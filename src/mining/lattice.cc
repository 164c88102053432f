#include "mining/lattice.h"

#include <algorithm>
#include <string>
#include <unordered_set>

#include "util/logging.h"
#include "util/obs/metrics.h"
#include "util/obs/trace.h"

namespace faircap {

namespace {

/// Registry mirror of the per-result num_evaluated count, bumped once per
/// traversal (not per evaluation — the hot loop stays untouched).
void PublishEvaluations(size_t n) {
  static obs::Counter& evaluations =
      obs::MetricsRegistry::Global().GetCounter("mining.lattice_evaluations");
  evaluations.Add(n);
}

/// Counts traversal exits on every return path so the published total
/// always matches result.num_evaluated, including the max_evaluations
/// early returns.
struct EvaluationPublisher {
  const LatticeResult* result;
  ~EvaluationPublisher() { PublishEvaluations(result->num_evaluated); }
};

}  // namespace

std::vector<Predicate> EnumerateInterventionAtoms(
    const DataFrame& df, const std::vector<size_t>& mutable_attrs) {
  std::vector<Predicate> atoms;
  for (size_t attr : mutable_attrs) {
    const Column& col = df.column(attr);
    if (col.type() != AttrType::kCategorical) continue;
    for (size_t code = 0; code < col.num_categories(); ++code) {
      atoms.emplace_back(attr, CompareOp::kEq,
                         Value(col.CategoryName(static_cast<int32_t>(code))));
    }
  }
  return atoms;
}

LatticeResult TraverseInterventionLattice(
    const DataFrame& df, const std::vector<size_t>& mutable_attrs,
    const TreatmentEvaluator& evaluator, const LatticeOptions& options) {
  const obs::TraceSpan lattice_span("lattice");
  LatticeResult result;
  const EvaluationPublisher publish{&result};
  const std::vector<Predicate> atoms =
      EnumerateInterventionAtoms(df, mutable_attrs);

  struct Node {
    std::vector<uint32_t> atom_ids;  // sorted, one per attribute
    Pattern pattern;
  };

  auto consider = [&](const Pattern& pattern, const TreatmentEval& eval) {
    if (!eval.feasible || eval.cate <= 0.0) return;
    if (!result.best.has_value() || eval.score > result.best_eval.score) {
      result.best = pattern;
      result.best_eval = eval;
    }
  };

  // Evaluates one level's candidates as a batch, truncated to the
  // remaining budget, and consumes the results in candidate order.
  // `on_eval` sees each estimable candidate; returns false when the
  // budget cut the level short.
  const auto evaluate_level = [&](std::vector<Node>& candidates,
                                  const auto& on_eval) {
    const size_t budget = options.max_evaluations - result.num_evaluated;
    const bool truncated = candidates.size() > budget;
    if (truncated) candidates.resize(budget);
    if (candidates.empty()) return !truncated;
    std::vector<Pattern> patterns;
    patterns.reserve(candidates.size());
    for (const Node& node : candidates) patterns.push_back(node.pattern);
    const std::vector<std::optional<TreatmentEval>> evals =
        evaluator(patterns);
    FAIRCAP_CHECK(evals.size() == patterns.size());
    for (size_t i = 0; i < candidates.size(); ++i) {
      ++result.num_evaluated;
      if (!evals[i].has_value()) continue;
      consider(candidates[i].pattern, *evals[i]);
      if (evals[i]->cate > 0.0) {
        result.positive.emplace_back(candidates[i].pattern, *evals[i]);
      }
      on_eval(std::move(candidates[i]), *evals[i]);
    }
    return !truncated;
  };

  // Level 1: every atom.
  std::vector<Node> candidates;
  candidates.reserve(atoms.size());
  for (uint32_t i = 0; i < atoms.size(); ++i) {
    candidates.push_back({{i}, Pattern().With(atoms[i])});
  }
  std::vector<Node> level;
  const bool level1_done =
      evaluate_level(candidates, [&](Node node, const TreatmentEval& eval) {
        if (eval.cate > 0.0 || !options.require_positive_parents) {
          level.push_back(std::move(node));
        }
      });
  if (!level1_done) return result;

  // Track which atom-id sets had positive CATE so children can check that
  // every parent was positive before materializing.
  auto key_of = [](const std::vector<uint32_t>& ids) {
    std::string key;
    for (uint32_t id : ids) {
      key += std::to_string(id);
      key += ',';
    }
    return key;
  };
  std::unordered_set<std::string> positive_keys;
  for (const Node& node : level) positive_keys.insert(key_of(node.atom_ids));

  for (size_t k = 2; k <= options.max_predicates && level.size() > 1; ++k) {
    // Children depend only on the previous level's positive set, so the
    // whole level is materialized before any of it is evaluated.
    candidates.clear();
    for (size_t a = 0; a < level.size(); ++a) {
      for (size_t b = a + 1; b < level.size(); ++b) {
        const auto& ia = level[a].atom_ids;
        const auto& ib = level[b].atom_ids;
        if (!std::equal(ia.begin(), ia.end() - 1, ib.begin())) continue;
        const uint32_t last_a = ia.back();
        const uint32_t last_b = ib.back();
        if (last_a >= last_b) continue;
        // One predicate per attribute: conflicting assignments to the same
        // attribute cannot both hold.
        if (atoms[last_a].attr == atoms[last_b].attr) continue;

        std::vector<uint32_t> candidate = ia;
        candidate.push_back(last_b);

        // Materialize only if all parents had positive CATE (Section 5.2).
        if (options.require_positive_parents) {
          bool all_parents_positive = true;
          for (size_t drop = 0; drop + 2 < candidate.size(); ++drop) {
            std::vector<uint32_t> parent;
            for (size_t i = 0; i < candidate.size(); ++i) {
              if (i != drop) parent.push_back(candidate[i]);
            }
            if (positive_keys.count(key_of(parent)) == 0) {
              all_parents_positive = false;
              break;
            }
          }
          if (!all_parents_positive) continue;
        }
        candidates.push_back(
            {std::move(candidate), level[a].pattern.With(atoms[last_b])});
      }
    }

    std::vector<Node> next;
    std::unordered_set<std::string> next_keys;
    const bool level_done =
        evaluate_level(candidates, [&](Node node, const TreatmentEval& eval) {
          if (eval.cate > 0.0) next_keys.insert(key_of(node.atom_ids));
          if (eval.cate > 0.0 || !options.require_positive_parents) {
            next.push_back(std::move(node));
          }
        });
    if (!level_done) return result;
    level = std::move(next);
    positive_keys = std::move(next_keys);
  }
  return result;
}

}  // namespace faircap
