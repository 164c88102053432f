#include "mining/lattice.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>
#include <utility>

namespace faircap {
namespace {

// Lifts a one-pattern evaluator to the lattice's batch signature.
TreatmentEvaluator PerPattern(
    std::function<std::optional<TreatmentEval>(const Pattern&)> fn) {
  return [fn = std::move(fn)](const std::vector<Pattern>& patterns) {
    std::vector<std::optional<TreatmentEval>> evals;
    evals.reserve(patterns.size());
    for (const Pattern& p : patterns) evals.push_back(fn(p));
    return evals;
  };
}

DataFrame Frame() {
  auto schema = Schema::Create({
      {"t1", AttrType::kCategorical, AttrRole::kMutable},
      {"t2", AttrType::kCategorical, AttrRole::kMutable},
      {"o", AttrType::kNumeric, AttrRole::kOutcome},
  });
  DataFrame df = DataFrame::Create(std::move(schema).ValueOrDie());
  EXPECT_TRUE(df.AppendRow({Value("a"), Value("p"), Value(1.0)}).ok());
  EXPECT_TRUE(df.AppendRow({Value("b"), Value("q"), Value(2.0)}).ok());
  return df;
}

TEST(LatticeTest, EnumeratesAtomsForAllCategories) {
  const DataFrame df = Frame();
  const auto atoms = EnumerateInterventionAtoms(df, {0, 1});
  EXPECT_EQ(atoms.size(), 4u);  // a,b for t1; p,q for t2
}

TEST(LatticeTest, AtomsSkipNumericAttributes) {
  const DataFrame df = Frame();
  const auto atoms = EnumerateInterventionAtoms(df, {2});
  EXPECT_TRUE(atoms.empty());
}

TEST(LatticeTest, SelectsHighestScoreFeasible) {
  const DataFrame df = Frame();
  TreatmentEvaluator eval = PerPattern(
      [&df](const Pattern& p) -> std::optional<TreatmentEval> {
    TreatmentEval e;
    e.cate = 1.0;
    // Score favors t1=b.
    e.score = p.ToString(df.schema()).find("t1 = b") != std::string::npos
                  ? 10.0
                  : 1.0;
    e.feasible = true;
    return e;
  });
  LatticeOptions options;
  options.max_predicates = 1;
  const LatticeResult result =
      TraverseInterventionLattice(df, {0, 1}, eval, options);
  ASSERT_TRUE(result.best.has_value());
  EXPECT_EQ(result.best->ToString(df.schema()), "t1 = b");
  EXPECT_DOUBLE_EQ(result.best_eval.score, 10.0);
  EXPECT_EQ(result.num_evaluated, 4u);
}

TEST(LatticeTest, InfeasibleTreatmentsNeverSelected) {
  const DataFrame df = Frame();
  TreatmentEvaluator eval = PerPattern(
      [](const Pattern&) -> std::optional<TreatmentEval> {
    TreatmentEval e;
    e.cate = 5.0;
    e.score = 5.0;
    e.feasible = false;
    return e;
  });
  const LatticeResult result = TraverseInterventionLattice(df, {0, 1}, eval);
  EXPECT_FALSE(result.best.has_value());
}

TEST(LatticeTest, NegativeCateNeverSelected) {
  const DataFrame df = Frame();
  TreatmentEvaluator eval = PerPattern(
      [](const Pattern&) -> std::optional<TreatmentEval> {
    TreatmentEval e;
    e.cate = -1.0;
    e.score = 100.0;
    e.feasible = true;
    return e;
  });
  const LatticeResult result = TraverseInterventionLattice(df, {0, 1}, eval);
  EXPECT_FALSE(result.best.has_value());
  EXPECT_TRUE(result.positive.empty());
}

TEST(LatticeTest, ChildrenOnlyMaterializedWhenAllParentsPositive) {
  const DataFrame df = Frame();
  std::map<std::string, int> eval_counts;
  TreatmentEvaluator eval = PerPattern(
      [&](const Pattern& p) -> std::optional<TreatmentEval> {
    const std::string str = p.ToString(df.schema());
    ++eval_counts[str];
    TreatmentEval e;
    // t2 atoms have negative CATE; so no level-2 node containing t2 may be
    // evaluated.
    e.cate = str.find("t2") != std::string::npos ? -1.0 : 1.0;
    e.score = e.cate;
    e.feasible = true;
    return e;
  });
  LatticeOptions options;
  options.max_predicates = 2;
  const LatticeResult result =
      TraverseInterventionLattice(df, {0, 1}, eval, options);
  EXPECT_TRUE(result.best.has_value());
  for (const auto& [pattern_str, count] : eval_counts) {
    EXPECT_EQ(count, 1) << pattern_str << " evaluated more than once";
    // Level-2 patterns join across attributes; all contain "AND". None may
    // include a t2 predicate because those parents were negative.
    if (pattern_str.find(" AND ") != std::string::npos) {
      EXPECT_EQ(pattern_str.find("t2"), std::string::npos) << pattern_str;
    }
  }
}

TEST(LatticeTest, PairsCombineDistinctAttributesOnly) {
  const DataFrame df = Frame();
  size_t level2 = 0;
  TreatmentEvaluator eval = PerPattern(
      [&](const Pattern& p) -> std::optional<TreatmentEval> {
    if (p.size() == 2) {
      ++level2;
      EXPECT_EQ(p.Attributes().size(), 2u);
    }
    TreatmentEval e;
    e.cate = 1.0;
    e.score = 1.0;
    e.feasible = true;
    return e;
  });
  LatticeOptions options;
  options.max_predicates = 2;
  TraverseInterventionLattice(df, {0, 1}, eval, options);
  EXPECT_EQ(level2, 4u);  // {a,b} x {p,q}
}

TEST(LatticeTest, EvaluationCapRespected) {
  const DataFrame df = Frame();
  TreatmentEvaluator eval = PerPattern(
      [](const Pattern&) -> std::optional<TreatmentEval> {
    TreatmentEval e;
    e.cate = 1.0;
    e.score = 1.0;
    e.feasible = true;
    return e;
  });
  LatticeOptions options;
  options.max_predicates = 2;
  options.max_evaluations = 3;
  const LatticeResult result =
      TraverseInterventionLattice(df, {0, 1}, eval, options);
  EXPECT_EQ(result.num_evaluated, 3u);
}

TEST(LatticeTest, NulloptEvaluationsAreSkipped) {
  const DataFrame df = Frame();
  TreatmentEvaluator eval = PerPattern(
      [&df](const Pattern& p) -> std::optional<TreatmentEval> {
    if (p.ToString(df.schema()).find("t1") != std::string::npos) {
      return std::nullopt;  // unestimable
    }
    TreatmentEval e;
    e.cate = 2.0;
    e.score = 2.0;
    e.feasible = true;
    return e;
  });
  const LatticeResult result = TraverseInterventionLattice(df, {0, 1}, eval);
  ASSERT_TRUE(result.best.has_value());
  EXPECT_EQ(result.best->Attributes()[0], 1u);
}

// The one-pattern-at-a-time traversal the batched one must reproduce:
// candidates evaluated strictly in order, the cap checked before each.
LatticeResult ReferenceTraversal(
    const DataFrame& df, const std::vector<size_t>& mutable_attrs,
    const std::function<std::optional<TreatmentEval>(const Pattern&)>& fn,
    const LatticeOptions& options) {
  LatticeResult result;
  const std::vector<Predicate> atoms =
      EnumerateInterventionAtoms(df, mutable_attrs);
  std::vector<std::vector<uint32_t>> level;
  std::vector<Pattern> level_patterns;
  const auto visit = [&](const std::vector<uint32_t>& ids,
                         const Pattern& pattern,
                         std::vector<std::vector<uint32_t>>* next,
                         std::vector<Pattern>* next_patterns) {
    const auto eval = fn(pattern);
    ++result.num_evaluated;
    if (!eval.has_value()) return;
    if (eval->feasible && eval->cate > 0.0 &&
        (!result.best.has_value() || eval->score > result.best_eval.score)) {
      result.best = pattern;
      result.best_eval = *eval;
    }
    if (eval->cate > 0.0) result.positive.emplace_back(pattern, *eval);
    if (eval->cate > 0.0 || !options.require_positive_parents) {
      next->push_back(ids);
      next_patterns->push_back(pattern);
    }
  };
  for (uint32_t i = 0; i < atoms.size(); ++i) {
    if (result.num_evaluated >= options.max_evaluations) return result;
    visit({i}, Pattern().With(atoms[i]), &level, &level_patterns);
  }
  for (size_t k = 2; k <= options.max_predicates && level.size() > 1; ++k) {
    std::vector<std::vector<uint32_t>> next;
    std::vector<Pattern> next_patterns;
    for (size_t a = 0; a < level.size(); ++a) {
      for (size_t b = a + 1; b < level.size(); ++b) {
        if (!std::equal(level[a].begin(), level[a].end() - 1,
                        level[b].begin()) ||
            level[a].back() >= level[b].back() ||
            atoms[level[a].back()].attr == atoms[level[b].back()].attr) {
          continue;
        }
        std::vector<uint32_t> ids = level[a];
        ids.push_back(level[b].back());
        bool parents_positive = true;
        for (size_t drop = 0; drop + 2 < ids.size(); ++drop) {
          std::vector<uint32_t> parent = ids;
          parent.erase(parent.begin() + static_cast<std::ptrdiff_t>(drop));
          if (std::find(level.begin(), level.end(), parent) == level.end()) {
            parents_positive = false;
          }
        }
        if (options.require_positive_parents && !parents_positive) continue;
        if (result.num_evaluated >= options.max_evaluations) return result;
        visit(ids, level_patterns[a].With(atoms[level[b].back()]), &next,
              &next_patterns);
      }
    }
    level = std::move(next);
    level_patterns = std::move(next_patterns);
  }
  return result;
}

DataFrame WideFrame() {
  auto schema = Schema::Create({
      {"t1", AttrType::kCategorical, AttrRole::kMutable},
      {"t2", AttrType::kCategorical, AttrRole::kMutable},
      {"t3", AttrType::kCategorical, AttrRole::kMutable},
      {"o", AttrType::kNumeric, AttrRole::kOutcome},
  });
  DataFrame df = DataFrame::Create(std::move(schema).ValueOrDie());
  EXPECT_TRUE(df.AppendRow({Value("a"), Value("p"), Value("x"), Value(1.0)})
                  .ok());
  EXPECT_TRUE(df.AppendRow({Value("b"), Value("q"), Value("y"), Value(2.0)})
                  .ok());
  EXPECT_TRUE(df.AppendRow({Value("c"), Value("q"), Value("z"), Value(3.0)})
                  .ok());
  return df;
}

void ExpectSameTraversal(const DataFrame& df, const LatticeResult& got,
                         const LatticeResult& want, const std::string& label) {
  EXPECT_EQ(got.num_evaluated, want.num_evaluated) << label;
  ASSERT_EQ(got.best.has_value(), want.best.has_value()) << label;
  if (want.best.has_value()) {
    EXPECT_EQ(got.best->ToString(df.schema()), want.best->ToString(df.schema()))
        << label;
    EXPECT_EQ(got.best_eval.score, want.best_eval.score) << label;
  }
  ASSERT_EQ(got.positive.size(), want.positive.size()) << label;
  for (size_t i = 0; i < want.positive.size(); ++i) {
    EXPECT_EQ(got.positive[i].first.ToString(df.schema()),
              want.positive[i].first.ToString(df.schema()))
        << label << " positive #" << i;
  }
}

TEST(LatticeTest, CapLandingMidLevelMatchesPerPatternOrder) {
  // Three attributes, 3 + 2 + 3 atoms, three levels; one atom negative so
  // pruning shapes the upper levels. Every cap from 0 past the full
  // traversal lands somewhere — mid-level included — and must stop on
  // the same pattern as the one-at-a-time order. Each batch the
  // evaluator sees is one level's (possibly truncated) candidate list.
  const DataFrame df = WideFrame();
  const auto fn = [&df](const Pattern& p) -> std::optional<TreatmentEval> {
    const std::string str = p.ToString(df.schema());
    TreatmentEval e;
    e.cate = str.find("t2 = p") != std::string::npos ? -1.0 : 1.0;
    e.score = static_cast<double>(str.size() % 7) + 0.5 * p.size();
    return e;
  };
  LatticeOptions options;
  options.max_predicates = 3;
  const size_t full =
      ReferenceTraversal(df, {0, 1, 2}, fn, options).num_evaluated;
  ASSERT_GT(full, 10u);
  for (size_t cap = 0; cap <= full + 1; ++cap) {
    options.max_evaluations = cap;
    std::vector<size_t> batch_sizes;
    const TreatmentEvaluator batch_eval =
        [&](const std::vector<Pattern>& patterns) {
          batch_sizes.push_back(patterns.size());
          std::vector<std::optional<TreatmentEval>> evals;
          evals.reserve(patterns.size());
          for (const Pattern& p : patterns) evals.push_back(fn(p));
          return evals;
        };
    const LatticeResult got =
        TraverseInterventionLattice(df, {0, 1, 2}, batch_eval, options);
    ExpectSameTraversal(df, got,
                        ReferenceTraversal(df, {0, 1, 2}, fn, options),
                        "cap " + std::to_string(cap));
    EXPECT_EQ(got.num_evaluated, std::min(cap, full));
    // One batch per level reached, never more than three.
    EXPECT_LE(batch_sizes.size(), 3u) << "cap " << cap;
    if (cap >= 8) {
      ASSERT_FALSE(batch_sizes.empty());
      EXPECT_EQ(batch_sizes[0], 8u);  // the whole first level at once
    }
  }
}

TEST(LatticeTest, EqualScoreTiesResolveInPerPatternOrder) {
  // Every candidate scores the same: the first feasible positive pattern
  // in candidate order wins, exactly as in the one-at-a-time traversal —
  // also when ties span levels and when the cap cuts a level.
  const DataFrame df = WideFrame();
  for (const bool first_infeasible : {false, true}) {
    const auto fn = [&](const Pattern& p) -> std::optional<TreatmentEval> {
      TreatmentEval e;
      e.cate = 1.0;
      e.score = 3.0;
      e.feasible = !(first_infeasible && p.size() == 1 &&
                     p.ToString(df.schema()) == "t1 = a");
      return e;
    };
    for (const size_t cap : {size_t{1}, size_t{2}, size_t{9}, size_t{50000}}) {
      LatticeOptions options;
      options.max_predicates = 3;
      options.max_evaluations = cap;
      const LatticeResult got =
          TraverseInterventionLattice(df, {0, 1, 2}, PerPattern(fn), options);
      const LatticeResult want = ReferenceTraversal(df, {0, 1, 2}, fn, options);
      ExpectSameTraversal(df, got, want,
                          "cap " + std::to_string(cap) +
                              (first_infeasible ? "/infeasible" : ""));
    }
  }
}

}  // namespace
}  // namespace faircap
