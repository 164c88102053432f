// Synthetic scale-workload generator tests: schema shape and knob
// semantics (protected prevalence, skew, planted positive effects,
// attenuation), determinism, and the 100k-row end-to-end FairCap pipeline
// on a streamed, warm-started, budget-capped table.

#include "ingest/synthetic.h"

#include <gtest/gtest.h>

#include <cmath>

#include "core/faircap.h"
#include "dataframe/csv.h"
#include "dataframe/predicate_index.h"
#include "ingest/chunked_csv_reader.h"

namespace faircap {
namespace {

TEST(SyntheticWorkloadTest, SchemaShapeFollowsConfig) {
  SyntheticConfig config;
  config.num_rows = 500;
  config.num_immutable = 4;
  config.num_mutable = 2;
  config.categories_per_attr = 5;
  const auto data = MakeSynthetic(config);
  ASSERT_TRUE(data.ok()) << data.status().ToString();

  const Schema& schema = data->df.schema();
  // Group + I1..I4 + M1..M2 + Outcome.
  EXPECT_EQ(schema.num_attributes(), 8u);
  EXPECT_EQ(schema.IndicesWithRole(AttrRole::kImmutable).size(), 5u);
  EXPECT_EQ(schema.IndicesWithRole(AttrRole::kMutable).size(), 2u);
  EXPECT_TRUE(schema.OutcomeIndex().ok());
  EXPECT_EQ(data->df.num_rows(), 500u);
  EXPECT_EQ(data->dag.num_nodes(), 8u);

  // Mutable attributes carry the configured cardinality.
  for (const size_t attr : schema.IndicesWithRole(AttrRole::kMutable)) {
    EXPECT_EQ(data->df.column(attr).num_categories(), 5u);
  }
}

TEST(SyntheticWorkloadTest, ProtectedFractionIsRespected) {
  for (const double fraction : {0.1, 0.35}) {
    SyntheticConfig config;
    config.num_rows = 4000;
    config.seed = 11;
    config.protected_fraction = fraction;
    const auto data = MakeSynthetic(config);
    ASSERT_TRUE(data.ok());
    const double observed =
        static_cast<double>(
            data->protected_pattern.Evaluate(data->df).Count()) /
        static_cast<double>(data->df.num_rows());
    EXPECT_NEAR(observed, fraction, 0.04) << "fraction " << fraction;
  }
}

TEST(SyntheticWorkloadTest, DeterministicForFixedSeed) {
  SyntheticConfig config;
  config.num_rows = 300;
  config.seed = 77;
  const auto a = MakeSynthetic(config);
  const auto b = MakeSynthetic(config);
  ASSERT_TRUE(a.ok() && b.ok());
  ASSERT_EQ(a->df.num_rows(), b->df.num_rows());
  for (size_t c = 0; c < a->df.num_columns(); ++c) {
    for (size_t r = 0; r < a->df.num_rows(); ++r) {
      ASSERT_EQ(a->df.GetValue(r, c), b->df.GetValue(r, c))
          << "col " << c << " row " << r;
    }
  }

  config.seed = 78;
  const auto c = MakeSynthetic(config);
  ASSERT_TRUE(c.ok());
  size_t differing = 0;
  for (size_t r = 0; r < c->df.num_rows(); ++r) {
    differing += (a->df.GetValue(r, 0) != c->df.GetValue(r, 0));
  }
  EXPECT_GT(differing, 0u);  // a different seed draws different rows
}

// The planted treatment effects are positive and attenuated for the
// protected group: mean outcome at the top level of the last mutable
// attribute (the strongest effect) beats level 0, and the protected
// group's gap is smaller.
TEST(SyntheticWorkloadTest, PlantedEffectsAndAttenuation) {
  SyntheticConfig config;
  config.num_rows = 30000;
  config.seed = 9;
  config.protected_attenuation = 0.3;
  const auto data = MakeSynthetic(config);
  ASSERT_TRUE(data.ok());
  const Schema& schema = data->df.schema();
  const size_t outcome = schema.OutcomeIndex().ValueOrDie();
  const size_t m_last = schema.IndexOf("M3").ValueOrDie();
  const size_t cats = config.categories_per_attr;

  const Bitmap protected_mask = data->protected_pattern.Evaluate(data->df);
  auto mean_gap = [&](const Bitmap& group) {
    // Levels by name: dictionary codes follow first appearance, not
    // level order.
    const Predicate top(m_last, CompareOp::kEq,
                        Value("level_" + std::to_string(cats - 1)));
    const Predicate bottom(m_last, CompareOp::kEq, Value("level_0"));
    const double top_mean =
        data->df.Mean(outcome, top.Evaluate(data->df) & group);
    const double bottom_mean =
        data->df.Mean(outcome, bottom.Evaluate(data->df) & group);
    return top_mean - bottom_mean;
  };

  Bitmap nonprotected = data->df.AllRows();
  nonprotected.AndNot(protected_mask);
  const double gap_nonprotected = mean_gap(nonprotected);
  const double gap_protected = mean_gap(protected_mask);
  EXPECT_GT(gap_nonprotected, 0.0);
  EXPECT_GT(gap_protected, 0.0);
  EXPECT_LT(gap_protected, 0.7 * gap_nonprotected);
}

TEST(SyntheticWorkloadTest, ConfigValidation) {
  SyntheticConfig config;
  config.num_rows = 0;
  EXPECT_FALSE(MakeSynthetic(config).ok());
  config = {};
  config.categories_per_attr = 1;
  EXPECT_FALSE(MakeSynthetic(config).ok());
  config = {};
  config.num_mutable = 0;
  EXPECT_FALSE(MakeSynthetic(config).ok());
  config = {};
  config.protected_fraction = 0.0;
  EXPECT_FALSE(MakeSynthetic(config).ok());
  config = {};
  config.group_skew = 1.5;
  EXPECT_FALSE(MakeSynthetic(config).ok());
}

// End-to-end at scale: generate 100k rows, round-trip through the
// streaming columnar ingest (warm index), cap the index memory budget,
// and run the full FairCap pipeline. The planted positive effects must
// surface as at least one prescription rule.
TEST(SyntheticWorkloadTest, EndToEndPipelineOn100kRows) {
  SyntheticConfig config;
  config.num_rows = 100000;
  config.seed = 4;
  const auto data = MakeSynthetic(config);
  ASSERT_TRUE(data.ok()) << data.status().ToString();

  const std::string path = testing::TempDir() + "/faircap_e2e_100k.csv";
  ASSERT_TRUE(WriteCsv(data->df, path).ok());
  IngestStats stats;
  auto streamed = StreamCsv(path, data->df.schema(), IngestOptions(), &stats);
  std::remove(path.c_str());
  ASSERT_TRUE(streamed.ok()) << streamed.status().ToString();
  ASSERT_EQ(streamed->num_rows(), config.num_rows);
  EXPECT_GT(stats.warm_atom_masks, 0u);

  DataFrame df = std::move(streamed).ValueOrDie();
  df.predicate_index().SetMemoryBudget(4u << 20);  // 4 MiB conjunction cap

  FairCapOptions options;
  options.apriori.min_support_fraction = 0.3;
  options.apriori.max_pattern_length = 2;
  options.lattice.max_predicates = 1;
  options.num_threads = 2;
  auto solver =
      FairCap::Create(&df, &data->dag, data->protected_pattern, options);
  ASSERT_TRUE(solver.ok()) << solver.status().ToString();
  const auto result = solver->Run();
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  EXPECT_GT(result->num_grouping_patterns, 0u);
  EXPECT_FALSE(result->rules.empty());
  for (const auto& rule : result->rules) {
    EXPECT_GT(rule.utility, 0.0);
    EXPECT_GT(rule.support, 0u);
  }
  // The warm-started index did real work and stayed within budget.
  const auto index_stats = df.predicate_index().GetStats();
  EXPECT_GT(index_stats.hits, 0u);
  EXPECT_LE(index_stats.conjunction_bytes, 4u << 20);
}

}  // namespace
}  // namespace faircap
