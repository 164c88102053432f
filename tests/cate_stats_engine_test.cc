// Property tests pinning the CateStatsEngine batch path against the
// legacy per-call estimator (the test oracle, tests/oracle/): for every
// method (regression / stratified / IPW), every subgroup estimate served
// by EstimateSubgroups must match what three independent
// oracle::LegacyEstimate calls produce —
// bit-for-bit for the stratified combine and the per-row IPW fallback,
// within tight tolerance where only floating-point summation order
// differs (regression normal equations, grouped IRLS).

#include "causal/cate_stats_engine.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <algorithm>
#include <tuple>

#include "causal/estimator.h"
#include "data/german.h"
#include "data/stackoverflow.h"
#include "ingest/synthetic.h"
#include "mining/shard_plan.h"
#include "oracle/legacy_estimator.h"
#include "oracle/legacy_linear_model.h"
#include "util/obs/metrics.h"
#include "util/random.h"
#include "util/simd/simd.h"
#include "util/task_scheduler.h"

namespace faircap {

// The test seam into engine construction: an estimator whose engines never
// take the exact int64 path, the pure-FP reference for the bit-identity
// tests below.
class CateEstimatorTestPeer {
 public:
  static Result<CateEstimator> CreateFpReference(const DataFrame* df,
                                                 const CausalDag* dag,
                                                 CateOptions options) {
    FAIRCAP_ASSIGN_OR_RETURN(CateEstimator est,
                             CateEstimator::Create(df, dag, options));
    est.int_path_allowed_ = false;
    return est;
  }
};

namespace {

// Relative-or-absolute tolerances per method. Stratified and the IPW
// numeric-confounder fallback replay the legacy arithmetic exactly
// (tolerance 0 = bit-for-bit); regression re-sums the normal equations
// per cell, which pins the CATE within 1e-9 but lets the *standard
// error* drift more: its residual sum of squares is the cancellation
// y'y - beta'X'y of two huge near-equal sums, so an O(1e-16) relative
// reordering difference in the inputs is amplified by the cancellation
// ratio. The grouped IRLS converges to the same optimum from
// group-summed Newton steps (convergence noise ~1e-8 of an iterate).
struct Tolerances {
  double cate;
  double std_error;
};

Tolerances ToleranceFor(CateMethod method) {
  switch (method) {
    case CateMethod::kStratified:
      return {0.0, 0.0};
    case CateMethod::kRegression:
      return {1e-9, 1e-6};
    case CateMethod::kIpw:
      return {1e-7, 1e-6};
  }
  return {1e-9, 1e-6};
}

void ExpectSameEstimate(const Result<CateEstimate>& batch,
                        const Result<CateEstimate>& legacy, Tolerances tol,
                        const std::string& label) {
  ASSERT_EQ(batch.ok(), legacy.ok())
      << label << ": batch=" << (batch.ok() ? "ok" : batch.status().ToString())
      << " legacy="
      << (legacy.ok() ? "ok" : legacy.status().ToString());
  if (!batch.ok()) {
    EXPECT_EQ(batch.status().code(), legacy.status().code()) << label;
    return;
  }
  EXPECT_EQ(batch->n_treated, legacy->n_treated) << label;
  EXPECT_EQ(batch->n_control, legacy->n_control) << label;
  if (tol.cate == 0.0) {
    EXPECT_EQ(batch->cate, legacy->cate) << label << " (bit-for-bit)";
    EXPECT_EQ(batch->std_error, legacy->std_error) << label;
  } else {
    const double cate_tol = tol.cate * std::max(1.0, std::abs(legacy->cate));
    EXPECT_NEAR(batch->cate, legacy->cate, cate_tol) << label;
    const double se_tol = tol.std_error * std::max(1.0, legacy->std_error);
    EXPECT_NEAR(batch->std_error, legacy->std_error, se_tol) << label;
  }
}

// The pinning oracle: three legacy per-call estimates vs one batch pass.
void ExpectBatchMatchesLegacy(const CateEstimator& est,
                              const Pattern& intervention, const Bitmap& group,
                              const Bitmap& protected_mask, size_t min_sub,
                              const std::string& label) {
  const Tolerances tol = ToleranceFor(est.options().method);
  const Result<CateSubgroupEstimates> batch =
      est.EstimateSubgroups(intervention, group, &protected_mask, min_sub);
  ASSERT_TRUE(batch.ok()) << label << ": " << batch.status().ToString();

  ExpectSameEstimate(batch->overall,
                     oracle::LegacyEstimate(est, intervention, group), tol,
                     label + "/overall");
  const Bitmap prot = group & protected_mask;
  ExpectSameEstimate(batch->protected_group,
                     oracle::LegacyEstimate(est, intervention, prot, min_sub),
                     tol, label + "/protected");
  Bitmap nonprot = group;
  nonprot.AndNot(protected_mask);
  ExpectSameEstimate(batch->nonprotected,
                     oracle::LegacyEstimate(est, intervention, nonprot,
                                            min_sub),
                     tol, label + "/nonprotected");
}

// Random subgroup bitmap with the given set-bit density.
Bitmap RandomGroup(size_t num_rows, double density, Rng* rng) {
  Bitmap group(num_rows);
  for (size_t r = 0; r < num_rows; ++r) {
    if (rng->NextBernoulli(density)) group.Set(r);
  }
  return group;
}

// Random 1- or 2-predicate interventions over the mutable categorical
// attributes.
std::vector<Pattern> SampleInterventions(const DataFrame& df, size_t count,
                                         Rng* rng) {
  std::vector<size_t> mutables;
  for (size_t attr : df.schema().IndicesWithRole(AttrRole::kMutable)) {
    if (df.column(attr).type() == AttrType::kCategorical &&
        df.column(attr).num_categories() > 0) {
      mutables.push_back(attr);
    }
  }
  std::vector<Pattern> out;
  if (mutables.empty()) return out;
  auto random_predicate = [&](size_t attr) {
    const Column& col = df.column(attr);
    const int32_t code =
        static_cast<int32_t>(rng->NextBounded(col.num_categories()));
    return Predicate(attr, CompareOp::kEq, Value(col.CategoryName(code)));
  };
  for (size_t i = 0; i < count; ++i) {
    const size_t a = mutables[rng->NextBounded(mutables.size())];
    Pattern p({random_predicate(a)});
    if (mutables.size() > 1 && rng->NextBernoulli(0.5)) {
      const size_t b = mutables[rng->NextBounded(mutables.size())];
      if (b != a) p = p.With(random_predicate(b));
    }
    out.push_back(std::move(p));
  }
  return out;
}

void RunPropertySweep(const DataFrame& df, const CausalDag& dag,
                      const Pattern& protected_pattern, uint64_t seed,
                      const std::string& label) {
  const Bitmap protected_mask = protected_pattern.Evaluate(df);
  Rng rng(seed);
  const std::vector<Pattern> interventions = SampleInterventions(df, 4, &rng);
  ASSERT_FALSE(interventions.empty());
  for (const CateMethod method :
       {CateMethod::kRegression, CateMethod::kStratified, CateMethod::kIpw}) {
    CateOptions options;
    options.method = method;
    const auto est = CateEstimator::Create(&df, &dag, options);
    ASSERT_TRUE(est.ok());
    for (size_t i = 0; i < interventions.size(); ++i) {
      // Full population, a dense random subgroup, and a sparse one (the
      // sparse slice exercises min-arm failures on both paths).
      const Bitmap all = df.AllRows();
      const Bitmap dense = RandomGroup(df.num_rows(), 0.6, &rng);
      const Bitmap sparse = RandomGroup(df.num_rows(), 0.02, &rng);
      const std::string tag =
          label + "/m" + std::to_string(static_cast<int>(method)) + "/i" +
          std::to_string(i);
      ExpectBatchMatchesLegacy(*est, interventions[i], all, protected_mask,
                               /*min_sub=*/5, tag + "/all");
      ExpectBatchMatchesLegacy(*est, interventions[i], dense, protected_mask,
                               /*min_sub=*/5, tag + "/dense");
      ExpectBatchMatchesLegacy(*est, interventions[i], sparse, protected_mask,
                               /*min_sub=*/5, tag + "/sparse");
    }
  }
}

class CateStatsEngineProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CateStatsEngineProperty, MatchesLegacyOnGerman) {
  GermanConfig config;
  config.num_rows = 1500;
  config.seed = GetParam();
  const auto data = MakeGerman(config);
  ASSERT_TRUE(data.ok());
  RunPropertySweep(data->df, data->dag, data->protected_pattern, GetParam(),
                   "german");
}

TEST_P(CateStatsEngineProperty, MatchesLegacyOnSynthetic) {
  SyntheticConfig config;
  config.num_rows = 4000;
  config.seed = GetParam();
  const auto data = MakeSynthetic(config);
  ASSERT_TRUE(data.ok());
  RunPropertySweep(data->df, data->dag, data->protected_pattern, GetParam(),
                   "synthetic");
}

INSTANTIATE_TEST_SUITE_P(Seeds, CateStatsEngineProperty,
                         ::testing::Values(11u, 12u, 13u, 14u));

// Hand-built table covering the hard corners in one place: a numeric
// confounder (regression uses the raw values, stratification its
// quantile bins, IPW the per-row fallback), nulls in both confounders,
// a degenerate stratum with treated rows only, and a mutable attribute
// that the DAG does not know (empty adjustment set).
struct EdgeData {
  DataFrame df;
  CausalDag dag;
  Pattern protected_pattern;
};

EdgeData MakeEdgeData(size_t n, uint64_t seed) {
  auto schema = Schema::Create({
      {"Prot", AttrType::kCategorical, AttrRole::kImmutable},
      {"Zc", AttrType::kCategorical, AttrRole::kImmutable},
      {"Zn", AttrType::kNumeric, AttrRole::kImmutable},
      {"T", AttrType::kCategorical, AttrRole::kMutable},
      {"U", AttrType::kCategorical, AttrRole::kMutable},  // not in the DAG
      {"O", AttrType::kNumeric, AttrRole::kOutcome},
  });
  DataFrame df = DataFrame::Create(std::move(schema).ValueOrDie());
  Rng rng(seed);
  const char* zc_levels[] = {"a", "b", "c"};
  for (size_t i = 0; i < n; ++i) {
    const bool prot = rng.NextBernoulli(0.3);
    const size_t zc = rng.NextBounded(3);
    const double zn = rng.NextGaussian(0.0, 2.0);
    const bool zc_null = rng.NextBernoulli(0.08);
    const bool zn_null = rng.NextBernoulli(0.08);
    // Stratum "c" is degenerate: always treated (positivity violation).
    const bool t = zc == 2 ? true
                          : rng.NextBernoulli(0.25 + 0.2 * zc +
                                              (zn > 0.0 ? 0.2 : 0.0));
    const bool u = rng.NextBernoulli(0.5);
    const double o = 5.0 + 3.0 * static_cast<double>(zc) + 1.5 * zn +
                     (t ? (prot ? 1.0 : 4.0) : 0.0) + (u ? 0.5 : 0.0) +
                     rng.NextGaussian(0.0, 1.0);
    const Status st = df.AppendRow(
        {Value(prot ? "yes" : "no"), zc_null ? Value::Null() : Value(zc_levels[zc]),
         zn_null ? Value::Null() : Value(zn), Value(t ? "yes" : "no"),
         Value(u ? "hi" : "lo"), Value(o)});
    EXPECT_TRUE(st.ok());
  }
  CausalDag dag = CausalDag::Create({"Prot", "Zc", "Zn", "T", "O"},
                                    {{"Zc", "T"},
                                     {"Zn", "T"},
                                     {"Zc", "O"},
                                     {"Zn", "O"},
                                     {"Prot", "O"},
                                     {"T", "O"}})
                      .ValueOrDie();
  Pattern protected_pattern(
      {Predicate(0, CompareOp::kEq, Value("yes"))});
  return {std::move(df), std::move(dag), std::move(protected_pattern)};
}

TEST(CateStatsEngineEdgeTest, NumericAndNullConfoundersMatchLegacy) {
  const EdgeData data = MakeEdgeData(3000, 77);
  RunPropertySweep(data.df, data.dag, data.protected_pattern, 77, "edge");
}

TEST(CateStatsEngineEdgeTest, EmptyAdjustmentSetMatchesLegacy) {
  const EdgeData data = MakeEdgeData(2000, 78);
  const Bitmap protected_mask = data.protected_pattern.Evaluate(data.df);
  // "U" is absent from the DAG: no confounders, single joint stratum.
  const size_t u = *data.df.schema().IndexOf("U");
  const Pattern intervention({Predicate(u, CompareOp::kEq, Value("hi"))});
  for (const CateMethod method :
       {CateMethod::kRegression, CateMethod::kStratified, CateMethod::kIpw}) {
    CateOptions options;
    options.method = method;
    const auto est = CateEstimator::Create(&data.df, &data.dag, options);
    ASSERT_TRUE(est.ok());
    ExpectBatchMatchesLegacy(*est, intervention, data.df.AllRows(),
                             protected_mask, 5,
                             "noadj/m" +
                                 std::to_string(static_cast<int>(method)));
  }
}

TEST(CateStatsEngineEdgeTest, MinArmFailuresMatchLegacy) {
  const EdgeData data = MakeEdgeData(800, 79);
  const Bitmap protected_mask = data.protected_pattern.Evaluate(data.df);
  const size_t t = *data.df.schema().IndexOf("T");
  const Pattern intervention({Predicate(t, CompareOp::kEq, Value("yes"))});
  Rng rng(79);
  // A 12-row group cannot satisfy the default floor of 10 per arm: both
  // paths must fail identically (FailedPrecondition).
  Bitmap tiny(data.df.num_rows());
  for (size_t i = 0; i < 12; ++i) {
    tiny.Set(rng.NextBounded(data.df.num_rows()));
  }
  for (const CateMethod method :
       {CateMethod::kRegression, CateMethod::kStratified, CateMethod::kIpw}) {
    CateOptions options;
    options.method = method;
    const auto est = CateEstimator::Create(&data.df, &data.dag, options);
    ASSERT_TRUE(est.ok());
    ExpectBatchMatchesLegacy(*est, intervention, tiny, protected_mask, 5,
                             "tiny/m" +
                                 std::to_string(static_cast<int>(method)));
  }
}

TEST(CateStatsEngineCacheTest, EnginesAreCachedPerTreatment) {
  const EdgeData data = MakeEdgeData(1000, 80);
  const auto est = CateEstimator::Create(&data.df, &data.dag);
  ASSERT_TRUE(est.ok());
  const size_t t = *data.df.schema().IndexOf("T");
  const Pattern intervention({Predicate(t, CompareOp::kEq, Value("yes"))});
  const Bitmap all = data.df.AllRows();
  const Bitmap prot = data.protected_pattern.Evaluate(data.df);

  ASSERT_TRUE(est->EstimateSubgroups(intervention, all, &prot, 5).ok());
  const auto first = est->GetEngineStats();
  EXPECT_EQ(first.engines, 1u);
  EXPECT_EQ(first.misses, 1u);
  EXPECT_EQ(first.partitions, 1u);
  EXPECT_GT(first.bytes, 0u);

  ASSERT_TRUE(est->EstimateSubgroups(intervention, all, &prot, 5).ok());
  const auto second = est->GetEngineStats();
  EXPECT_EQ(second.engines, 1u);
  EXPECT_EQ(second.misses, 1u);
  EXPECT_GE(second.hits, 1u);
}

TEST(CateStatsEngineCacheTest, PartitionsAreSharedAcrossSameAttrTreatments) {
  const EdgeData data = MakeEdgeData(1000, 81);
  const auto est = CateEstimator::Create(&data.df, &data.dag);
  ASSERT_TRUE(est.ok());
  const size_t t = *data.df.schema().IndexOf("T");
  const Bitmap all = data.df.AllRows();
  const Bitmap prot = data.protected_pattern.Evaluate(data.df);
  // T=yes and T=no share the treatment attribute, hence the adjustment
  // set, hence one confounder partition.
  (void)est->EstimateSubgroups(
      Pattern({Predicate(t, CompareOp::kEq, Value("yes"))}), all, &prot, 5);
  (void)est->EstimateSubgroups(
      Pattern({Predicate(t, CompareOp::kEq, Value("no"))}), all, &prot, 5);
  const auto stats = est->GetEngineStats();
  EXPECT_EQ(stats.engines, 2u);
  EXPECT_EQ(stats.partitions, 1u);
}

// One engine's overall estimate within `group`: a single-engine
// accumulation pass and its solve, with no protected split.
Result<CateEstimate> EngineOverall(const CateStatsEngine& engine,
                                   const Bitmap& group,
                                   size_t min_group_size) {
  Result<CateEstimate> out = Status::Internal("not accumulated");
  CateStatsEngine::AccumulateBatch(
      {&engine}, group, /*group_pattern=*/nullptr, /*protected_mask=*/nullptr,
      /*protected_pattern=*/nullptr, /*plan=*/nullptr, /*tasks=*/nullptr,
      [&](size_t, CateStatsEngine::SubgroupAccums accums) {
        out = engine
                  .SolveFromAccums(std::move(accums), group,
                                   /*protected_mask=*/nullptr,
                                   min_group_size, min_group_size)
                  .overall;
      });
  return out;
}

TEST(CateStatsEngineCacheTest, BudgetEvictsLruEnginesAndSharedPtrSurvives) {
  const EdgeData data = MakeEdgeData(1000, 82);
  auto est = CateEstimator::Create(&data.df, &data.dag);
  ASSERT_TRUE(est.ok());
  const size_t t = *data.df.schema().IndexOf("T");
  const size_t u = *data.df.schema().IndexOf("U");
  const Bitmap all = data.df.AllRows();

  const Pattern t_yes({Predicate(t, CompareOp::kEq, Value("yes"))});
  const auto held = est->EngineFor(t_yes);
  ASSERT_TRUE(held.ok());
  const Result<CateEstimate> before = EngineOverall(**held, all, 10);

  // A 1-byte budget keeps only the most recently used engine.
  est->SetEngineMemoryBudget(1);
  for (const char* level : {"hi", "lo"}) {
    (void)est->EngineFor(Pattern({Predicate(u, CompareOp::kEq, Value(level))}));
  }
  const auto stats = est->GetEngineStats();
  EXPECT_GT(stats.evictions, 0u);
  EXPECT_EQ(stats.engines, 1u);

  // The held engine still answers, identically, after eviction.
  const Result<CateEstimate> after = EngineOverall(**held, all, 10);
  ASSERT_EQ(before.ok(), after.ok());
  if (before.ok()) {
    EXPECT_EQ(before->cate, after->cate);
  }
}

// ---------------------------------------------------------------------
// ISA sweep: every SIMD tier must produce BIT-IDENTICAL estimates — the
// accumulation kernels keep integer stats exact and perform float adds
// in the scalar association order, so there is no tolerance here, for
// any method, including the batch protected/non-protected split.

uint64_t Bits(double x) {
  uint64_t b;
  std::memcpy(&b, &x, sizeof b);
  return b;
}

void ExpectSameBits(const Result<CateEstimate>& got,
                    const Result<CateEstimate>& ref,
                    const std::string& label) {
  ASSERT_EQ(got.ok(), ref.ok()) << label;
  if (!got.ok()) {
    EXPECT_EQ(got.status().code(), ref.status().code()) << label;
    return;
  }
  // == fails on NaN; the bit compare also fails on -0.0 vs +0.0.
  EXPECT_EQ(got->cate, ref->cate) << label;
  EXPECT_EQ(got->std_error, ref->std_error) << label;
  EXPECT_EQ(Bits(got->cate), Bits(ref->cate)) << label;
  EXPECT_EQ(Bits(got->std_error), Bits(ref->std_error)) << label;
  EXPECT_EQ(got->n_treated, ref->n_treated) << label;
  EXPECT_EQ(got->n_control, ref->n_control) << label;
}

TEST(CateStatsEngineSimdTest, EstimatesBitIdenticalAcrossIsaTiers) {
  const EdgeData data = MakeEdgeData(3000, 91);
  const Bitmap protected_mask = data.protected_pattern.Evaluate(data.df);
  const size_t t = *data.df.schema().IndexOf("T");
  const Pattern intervention({Predicate(t, CompareOp::kEq, Value("yes"))});
  Rng rng(91);
  const Bitmap dense = RandomGroup(data.df.num_rows(), 0.6, &rng);
  for (const CateMethod method :
       {CateMethod::kRegression, CateMethod::kStratified, CateMethod::kIpw}) {
    CateOptions options;
    options.method = method;
    const auto est = CateEstimator::Create(&data.df, &data.dag, options);
    ASSERT_TRUE(est.ok());
    // Scalar reference triple.
    Result<CateSubgroupEstimates> ref = Status::Internal("unset");
    {
      simd::ScopedSimdLevel pin(simd::SimdLevel::kScalar);
      ref = est->EstimateSubgroups(intervention, dense, &protected_mask, 5);
    }
    ASSERT_TRUE(ref.ok()) << ref.status().ToString();
    for (const simd::SimdLevel level : simd::SupportedSimdLevels()) {
      simd::ScopedSimdLevel pin(level);
      const std::string tag =
          std::string(simd::SimdLevelName(level)) + "/m" +
          std::to_string(static_cast<int>(method));
      const Result<CateSubgroupEstimates> got =
          est->EstimateSubgroups(intervention, dense, &protected_mask, 5);
      ASSERT_TRUE(got.ok()) << tag;
      ExpectSameBits(got->overall, ref->overall, tag + "/overall");
      ExpectSameBits(got->protected_group, ref->protected_group,
                     tag + "/protected");
      ExpectSameBits(got->nonprotected, ref->nonprotected,
                     tag + "/nonprotected");
    }
  }
}

TEST(CateStatsEngineSimdTest, DenseGroupMatchesLegacyAtEveryTier) {
  // The all-rows group exercises the vector tiers' dense-word fast path
  // (every group word is ~0); pin it against the legacy oracle per tier.
  const EdgeData data = MakeEdgeData(1500, 92);
  for (const simd::SimdLevel level : simd::SupportedSimdLevels()) {
    simd::ScopedSimdLevel pin(level);
    RunPropertySweep(data.df, data.dag, data.protected_pattern, 92,
                     std::string("simd-") + simd::SimdLevelName(level));
  }
}

// ---------------------------------------------------------------------
// Integer fast path: on an integer-valued outcome column the engine
// accumulates {n, Σy, Σy²} in int64 and converts to double at solve
// time. Under the safe-row guard every legacy floating-point prefix
// partial is also exact, so the two representations must agree
// bit-for-bit — for every method, tier, and shard count.

void ExpectSameSubgroups(const CateSubgroupEstimates& got,
                         const CateSubgroupEstimates& ref,
                         const std::string& label) {
  ExpectSameBits(got.overall, ref.overall, label + "/overall");
  ExpectSameBits(got.protected_group, ref.protected_group,
                 label + "/protected");
  ExpectSameBits(got.nonprotected, ref.nonprotected, label + "/nonprotected");
}

TEST(CateStatsEngineIntPathTest, IntAndFpPathsBitIdenticalOnIntegerData) {
  SyntheticConfig config;
  config.num_rows = 4000;
  config.seed = 21;
  config.integer_outcome = true;
  const auto data = MakeSynthetic(config);
  ASSERT_TRUE(data.ok());
  const DataFrame& df = data->df;
  const Bitmap protected_mask = data->protected_pattern.Evaluate(df);
  Rng rng(21);
  const std::vector<Pattern> interventions = SampleInterventions(df, 2, &rng);
  ASSERT_FALSE(interventions.empty());
  const Bitmap dense = RandomGroup(df.num_rows(), 0.7, &rng);
  const obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
  const uint64_t int_walks_before =
      reg.CounterValue("estimation.accumulate_path_int");

  for (const CateMethod method :
       {CateMethod::kRegression, CateMethod::kStratified, CateMethod::kIpw}) {
    CateOptions opts;
    opts.method = method;
    const auto int_est = CateEstimator::Create(&df, &data->dag, opts);
    const auto fp_est =
        CateEstimatorTestPeer::CreateFpReference(&df, &data->dag, opts);
    ASSERT_TRUE(int_est.ok());
    ASSERT_TRUE(fp_est.ok());
    for (const simd::SimdLevel level : simd::SupportedSimdLevels()) {
      simd::ScopedSimdLevel pin(level);
      for (const size_t shards : {size_t{1}, size_t{7}, size_t{16}}) {
        const ShardPlan plan = ShardPlan::Create(df.num_rows(), shards);
        for (size_t i = 0; i < interventions.size(); ++i) {
          const std::string tag =
              std::string("intpath/") + simd::SimdLevelName(level) + "/m" +
              std::to_string(static_cast<int>(method)) + "/s" +
              std::to_string(shards) + "/i" + std::to_string(i);
          const Result<CateSubgroupEstimates> got =
              int_est->EstimateSubgroups(
                  interventions[i], dense, &protected_mask, 5,
                  /*skip_subgroups_unless_positive=*/false, &plan, nullptr);
          const uint64_t int_walks =
              reg.CounterValue("estimation.accumulate_path_int");
          const Result<CateSubgroupEstimates> ref =
              fp_est->EstimateSubgroups(
                  interventions[i], dense, &protected_mask, 5,
                  /*skip_subgroups_unless_positive=*/false, &plan, nullptr);
          EXPECT_EQ(reg.CounterValue("estimation.accumulate_path_int"),
                    int_walks)
              << tag << ": the FP reference took the int64 path";
          ASSERT_TRUE(got.ok()) << tag;
          ASSERT_TRUE(ref.ok()) << tag;
          ExpectSameSubgroups(*got, *ref, tag);
        }
      }
      // And both agree with the legacy per-call oracle (method-specific
      // tolerances; stratified is bit-for-bit).
      ExpectBatchMatchesLegacy(*int_est, interventions[0], dense,
                               protected_mask, 5,
                               std::string("intpath-legacy/") +
                                   simd::SimdLevelName(level) + "/m" +
                                   std::to_string(static_cast<int>(method)));
    }
  }
  // The comparison means something only if the int64 path ran.
  EXPECT_GT(reg.CounterValue("estimation.accumulate_path_int"),
            int_walks_before);
}

// Near-limit magnitudes: |y| up to ~3e6 puts Σy² past 2^53 after ~1000
// rows, so a 4000-row group trips the overflow guard mid-range and the
// kernel must flush its exact int64 partials into the FP arrays and
// finish the pass on the FP path — with a result bit-identical to an
// engine that never used the integer path at all.
EdgeData MakeBigIntData(size_t n, uint64_t seed) {
  auto schema = Schema::Create({
      {"Prot", AttrType::kCategorical, AttrRole::kImmutable},
      {"Z", AttrType::kCategorical, AttrRole::kImmutable},
      {"T", AttrType::kCategorical, AttrRole::kMutable},
      {"O", AttrType::kNumeric, AttrRole::kOutcome},
  });
  DataFrame df = DataFrame::Create(std::move(schema).ValueOrDie());
  Rng rng(seed);
  const char* z_levels[] = {"a", "b", "c"};
  for (size_t i = 0; i < n; ++i) {
    const bool prot = rng.NextBernoulli(0.3);
    const size_t z = rng.NextBounded(3);
    const bool t = rng.NextBernoulli(0.3 + 0.15 * static_cast<double>(z));
    // Integer outcome in [-3e6, 3e6]: exactly representable, but squares
    // near 9e12 exhaust the 2^53 budget after ~1000 rows.
    const double o = static_cast<double>(
        static_cast<int64_t>(rng.NextBounded(6000001)) - 3000000);
    const Status st =
        df.AppendRow({Value(prot ? "yes" : "no"), Value(z_levels[z]),
                      Value(t ? "yes" : "no"), Value(o)});
    EXPECT_TRUE(st.ok());
  }
  CausalDag dag =
      CausalDag::Create({"Prot", "Z", "T", "O"},
                        {{"Z", "T"}, {"Z", "O"}, {"Prot", "O"}, {"T", "O"}})
          .ValueOrDie();
  Pattern protected_pattern({Predicate(0, CompareOp::kEq, Value("yes"))});
  return {std::move(df), std::move(dag), std::move(protected_pattern)};
}

TEST(CateStatsEngineIntPathTest, OverflowGuardFallsBackBitIdentically) {
  const EdgeData data = MakeBigIntData(4000, 101);
  const Bitmap protected_mask = data.protected_pattern.Evaluate(data.df);
  const size_t t = *data.df.schema().IndexOf("T");
  const Pattern intervention({Predicate(t, CompareOp::kEq, Value("yes"))});
  const Bitmap all = data.df.AllRows();
  const obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
  const uint64_t fallbacks_before =
      reg.CounterValue("estimation.accumulate_int_fallbacks");
  const uint64_t rows_before = reg.CounterValue("simd.cate_accumulate_rows");

  for (const CateMethod method :
       {CateMethod::kRegression, CateMethod::kStratified, CateMethod::kIpw}) {
    CateOptions opts;
    opts.method = method;
    const auto int_est = CateEstimator::Create(&data.df, &data.dag, opts);
    const auto fp_est =
        CateEstimatorTestPeer::CreateFpReference(&data.df, &data.dag, opts);
    ASSERT_TRUE(int_est.ok());
    ASSERT_TRUE(fp_est.ok());
    for (const simd::SimdLevel level : simd::SupportedSimdLevels()) {
      simd::ScopedSimdLevel pin(level);
      const std::string tag = std::string("guard/") +
                              simd::SimdLevelName(level) + "/m" +
                              std::to_string(static_cast<int>(method));
      // Sharded too: at 7/16 shards each shard stays under the guard and
      // the int partials convert at merge time instead, which must still
      // replay the FP engine's merge bit-for-bit.
      for (const size_t shards : {size_t{1}, size_t{7}, size_t{16}}) {
        const ShardPlan plan = ShardPlan::Create(data.df.num_rows(), shards);
        const Result<CateSubgroupEstimates> got =
            int_est->EstimateSubgroups(
                intervention, all, &protected_mask, 5,
                /*skip_subgroups_unless_positive=*/false, &plan, nullptr);
        const Result<CateSubgroupEstimates> ref =
            fp_est->EstimateSubgroups(
                intervention, all, &protected_mask, 5,
                /*skip_subgroups_unless_positive=*/false, &plan, nullptr);
        ASSERT_TRUE(got.ok()) << tag;
        ASSERT_TRUE(ref.ok()) << tag;
        ExpectSameSubgroups(*got, *ref, tag + "/s" + std::to_string(shards));
      }
      // The single-shard pass exceeds safe_rows, so the guard must have
      // tripped at least once at this tier; legacy oracle still matches.
      ExpectBatchMatchesLegacy(*int_est, intervention, all, protected_mask,
                               5, tag + "/legacy");
    }
  }
  EXPECT_GT(reg.CounterValue("estimation.accumulate_int_fallbacks"),
            fallbacks_before);
  EXPECT_GT(reg.CounterValue("simd.cate_accumulate_rows"), rows_before);
}

// ---------------------------------------------------------------------
// Treatment batching: AccumulateBatch runs ONE walk over the group for K
// engines that share a confounder partition. Each engine's accums must be
// bytewise equal to a walk with that engine alone — for every batch
// width, outcome type (FP / exact int64), protected split, moments block,
// SIMD tier, shard count, and whether the batch is split into cache-sized
// chunks. No tolerance: this is the FP add order itself.

// One treatment attribute with eight levels (so up to seven treatments
// share its adjustment set {Zc, Zn}), a numeric confounder (moments
// under regression), nulls in both confounders and the outcome, and
// `zc_levels` categorical levels — wide enough at 20 to force the batch
// into several cache-sized chunks.
EdgeData MakeBatchData(size_t n, size_t zc_levels, bool integer_outcome,
                       uint64_t seed) {
  auto schema = Schema::Create({
      {"Prot", AttrType::kCategorical, AttrRole::kImmutable},
      {"Zc", AttrType::kCategorical, AttrRole::kImmutable},
      {"Zn", AttrType::kNumeric, AttrRole::kImmutable},
      {"T", AttrType::kCategorical, AttrRole::kMutable},
      {"O", AttrType::kNumeric, AttrRole::kOutcome},
  });
  DataFrame df = DataFrame::Create(std::move(schema).ValueOrDie());
  Rng rng(seed);
  for (size_t i = 0; i < n; ++i) {
    const bool prot = rng.NextBernoulli(0.3);
    const size_t zc = rng.NextBounded(zc_levels);
    const double zn = rng.NextGaussian(0.0, 2.0);
    const size_t t = rng.NextBounded(8);
    double o = 5.0 + 0.5 * static_cast<double>(zc % 7) + 1.5 * zn +
               0.7 * static_cast<double>(t) + (prot ? -1.0 : 0.0) +
               rng.NextGaussian(0.0, 1.0);
    if (integer_outcome) o = std::round(o * 10.0);
    const Status st = df.AppendRow(
        {Value(prot ? "yes" : "no"),
         rng.NextBernoulli(0.05) ? Value::Null()
                                 : Value("z" + std::to_string(zc)),
         rng.NextBernoulli(0.05) ? Value::Null() : Value(zn),
         Value("t" + std::to_string(t)),
         rng.NextBernoulli(0.02) ? Value::Null() : Value(o)});
    EXPECT_TRUE(st.ok());
  }
  CausalDag dag = CausalDag::Create({"Prot", "Zc", "Zn", "T", "O"},
                                    {{"Zc", "T"},
                                     {"Zn", "T"},
                                     {"Zc", "O"},
                                     {"Zn", "O"},
                                     {"Prot", "O"},
                                     {"T", "O"}})
                      .ValueOrDie();
  Pattern protected_pattern({Predicate(0, CompareOp::kEq, Value("yes"))});
  return {std::move(df), std::move(dag), std::move(protected_pattern)};
}

// Bytewise: doubles compare by representation, so -0.0 vs 0.0 (or any
// NaN payload) would count as a difference.
template <typename T>
bool SameBytes(const std::vector<T>& a, const std::vector<T>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) == 0);
}

void ExpectSameAccum(const CateStatsEngine::Accum& got,
                     const CateStatsEngine::Accum& ref,
                     const std::string& label) {
  EXPECT_EQ(got.rows, ref.rows) << label;
  EXPECT_EQ(got.n_treated, ref.n_treated) << label;
  EXPECT_EQ(got.n_control, ref.n_control) << label;
  EXPECT_EQ(got.int_valid, ref.int_valid) << label;
  EXPECT_TRUE(SameBytes(got.n, ref.n)) << label << " n";
  EXPECT_TRUE(SameBytes(got.sy, ref.sy)) << label << " sy";
  EXPECT_TRUE(SameBytes(got.syy, ref.syy)) << label << " syy";
  EXPECT_TRUE(SameBytes(got.zsum, ref.zsum)) << label << " zsum";
  EXPECT_TRUE(SameBytes(got.zysum, ref.zysum)) << label << " zysum";
  EXPECT_TRUE(SameBytes(got.zzsum, ref.zzsum)) << label << " zzsum";
  EXPECT_TRUE(SameBytes(got.isy, ref.isy)) << label << " isy";
  EXPECT_TRUE(SameBytes(got.isyy, ref.isyy)) << label << " isyy";
}

void ExpectSameAccums(const CateStatsEngine::SubgroupAccums& got,
                      const CateStatsEngine::SubgroupAccums& ref,
                      const std::string& label) {
  EXPECT_EQ(got.split, ref.split) << label;
  EXPECT_EQ(got.rows_covered, ref.rows_covered) << label;
  ExpectSameAccum(got.overall, ref.overall, label + "/overall");
  ExpectSameAccum(got.prot, ref.prot, label + "/prot");
  ExpectSameAccum(got.nonprot, ref.nonprot, label + "/nonprot");
}

TEST(CateStatsEngineBatchTest, BatchedAccumsBytewiseEqualSingleTreatment) {
  const obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
  TaskScheduler scheduler(4);
  for (const bool integer_outcome : {false, true}) {
    for (const size_t zc_levels : {size_t{3}, size_t{20}}) {
      const EdgeData data =
          MakeBatchData(3000, zc_levels, integer_outcome, 31 + zc_levels);
      const DataFrame& df = data.df;
      const size_t t = *df.schema().IndexOf("T");
      std::vector<Pattern> treatments;
      treatments.reserve(7);
      for (int level = 0; level < 7; ++level) {
        treatments.push_back(Pattern({Predicate(
            t, CompareOp::kEq, Value("t" + std::to_string(level)))}));
      }
      const Bitmap protected_mask = data.protected_pattern.Evaluate(df);
      Rng rng(zc_levels);
      // All rows: the vector tiers' dense-word path; 30%: sparse words.
      const Bitmap groups[] = {df.AllRows(),
                               RandomGroup(df.num_rows(), 0.3, &rng)};
      // Regression with the numeric confounder runs the moments block
      // (FP even on integer outcomes); stratified runs without it, on
      // the int64 path for integer outcomes.
      for (const CateMethod method :
           {CateMethod::kRegression, CateMethod::kStratified}) {
        CateOptions options;
        options.method = method;
        const auto est = CateEstimator::Create(&df, &data.dag, options);
        ASSERT_TRUE(est.ok());
        std::vector<std::shared_ptr<const CateStatsEngine>> held;
        for (const Pattern& p : treatments) {
          const auto engine = est->EngineFor(p);
          ASSERT_TRUE(engine.ok()) << engine.status().ToString();
          held.push_back(*engine);
        }
        ASSERT_EQ(&held[0]->partition(), &held[6]->partition());
        for (const simd::SimdLevel level : simd::SupportedSimdLevels()) {
          simd::ScopedSimdLevel pin(level);
          for (const size_t shards :
               {size_t{1}, size_t{2}, size_t{7}, size_t{16}}) {
            const ShardPlan plan = ShardPlan::Create(df.num_rows(), shards);
            TaskGroup tasks(&scheduler);
            for (size_t g = 0; g < 2; ++g) {
              for (const bool split : {false, true}) {
                const Bitmap* prot = split ? &protected_mask : nullptr;
                // The K=1 reference for every treatment.
                std::vector<CateStatsEngine::SubgroupAccums> ref;
                const auto collect =
                    [](std::vector<CateStatsEngine::SubgroupAccums>* into) {
                      return [into](size_t index,
                                    CateStatsEngine::SubgroupAccums accums) {
                        EXPECT_EQ(index, into->size());
                        into->push_back(std::move(accums));
                      };
                    };
                for (const auto& engine : held) {
                  std::vector<CateStatsEngine::SubgroupAccums> one;
                  CateStatsEngine::AccumulateBatch(
                      {engine.get()}, groups[g], nullptr, prot, nullptr,
                      &plan, &tasks, collect(&one));
                  ASSERT_EQ(one.size(), 1u);
                  ref.push_back(std::move(one[0]));
                }
                for (const size_t k : {size_t{1}, size_t{2}, size_t{3},
                                       size_t{7}}) {
                  std::vector<const CateStatsEngine*> batch;
                  batch.reserve(k);
                  for (size_t i = 0; i < k; ++i) batch.push_back(held[i].get());
                  const uint64_t passes_before =
                      reg.CounterValue("estimation.batched_passes");
                  std::vector<CateStatsEngine::SubgroupAccums> got;
                  CateStatsEngine::AccumulateBatch(batch, groups[g], nullptr,
                                                   prot, nullptr, &plan,
                                                   &tasks, collect(&got));
                  const uint64_t passes =
                      reg.CounterValue("estimation.batched_passes") -
                      passes_before;
                  // The 20-level table's split FP accumulators overflow
                  // the cache budget: seven treatments need several walks.
                  if (zc_levels == 20 && split && k == 7) {
                    EXPECT_GT(passes, 1u);
                  }
                  ASSERT_EQ(got.size(), k);
                  for (size_t i = 0; i < k; ++i) {
                    ExpectSameAccums(
                        got[i], ref[i],
                        std::string(integer_outcome ? "int" : "fp") + "/z" +
                            std::to_string(zc_levels) + "/m" +
                            std::to_string(static_cast<int>(method)) + "/" +
                            simd::SimdLevelName(level) + "/s" +
                            std::to_string(shards) + "/g" +
                            std::to_string(g) + (split ? "/split" : "") +
                            "/k" + std::to_string(k) + "/t" +
                            std::to_string(i));
                  }
                }
              }
            }
          }
        }
      }
    }
  }
}

TEST(CateStatsEngineBatchTest, BatchedIntGuardTripsAtTheSameWord) {
  // Near-limit integer outcomes trip the safe_rows guard mid-walk. The
  // guard counts rows walked, which every treatment of a batch shares, so
  // each must fall back to FP at exactly the word its own walk would.
  const EdgeData data = MakeBigIntData(4000, 102);
  const size_t t = *data.df.schema().IndexOf("T");
  CateOptions options;
  options.method = CateMethod::kStratified;
  const auto est = CateEstimator::Create(&data.df, &data.dag, options);
  ASSERT_TRUE(est.ok());
  std::vector<std::shared_ptr<const CateStatsEngine>> held;
  held.reserve(2);
  for (const char* level : {"yes", "no"}) {
    held.push_back(
        *est->EngineFor(Pattern({Predicate(t, CompareOp::kEq, Value(level))})));
  }
  const Bitmap protected_mask = data.protected_pattern.Evaluate(data.df);
  const Bitmap all = data.df.AllRows();
  const obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
  const uint64_t fallbacks_before =
      reg.CounterValue("estimation.accumulate_int_fallbacks");
  for (const simd::SimdLevel level : simd::SupportedSimdLevels()) {
    simd::ScopedSimdLevel pin(level);
    for (const size_t shards : {size_t{1}, size_t{2}, size_t{7}, size_t{16}}) {
      const ShardPlan plan = ShardPlan::Create(data.df.num_rows(), shards);
      for (const Bitmap* prot : {static_cast<const Bitmap*>(nullptr),
                                 &protected_mask}) {
        std::vector<CateStatsEngine::SubgroupAccums> got, ref;
        const auto push_to = [](std::vector<CateStatsEngine::SubgroupAccums>*
                                    into) {
          return [into](size_t, CateStatsEngine::SubgroupAccums accums) {
            into->push_back(std::move(accums));
          };
        };
        CateStatsEngine::AccumulateBatch({held[0].get(), held[1].get()}, all,
                                         nullptr, prot, nullptr, &plan,
                                         nullptr, push_to(&got));
        for (const auto& engine : held) {
          CateStatsEngine::AccumulateBatch({engine.get()}, all, nullptr, prot,
                                           nullptr, &plan, nullptr,
                                           push_to(&ref));
        }
        ASSERT_EQ(got.size(), 2u);
        ASSERT_EQ(ref.size(), 2u);
        for (size_t i = 0; i < 2; ++i) {
          ExpectSameAccums(got[i], ref[i],
                           std::string("guard/") + simd::SimdLevelName(level) +
                               "/s" + std::to_string(shards) +
                               (prot != nullptr ? "/split" : "") + "/t" +
                               std::to_string(i));
        }
      }
    }
  }
  EXPECT_GT(reg.CounterValue("estimation.accumulate_int_fallbacks"),
            fallbacks_before);
}

TEST(CateStatsEngineBatchTest, EstimatorBatchMatchesPerTreatmentCalls) {
  // The estimator-level batch groups treatments by partition (here T
  // levels share one, U levels have an empty adjustment set, and one
  // pattern fails validation) and must answer each exactly as its own
  // EstimateSubgroups call would.
  const EdgeData data = MakeEdgeData(3000, 93);
  const Bitmap protected_mask = data.protected_pattern.Evaluate(data.df);
  const size_t t = *data.df.schema().IndexOf("T");
  const size_t u = *data.df.schema().IndexOf("U");
  const std::vector<Pattern> interventions = {
      Pattern({Predicate(t, CompareOp::kEq, Value("yes"))}),
      Pattern({Predicate(u, CompareOp::kEq, Value("hi"))}),
      Pattern({Predicate(t, CompareOp::kEq, Value("no"))}),
      Pattern({Predicate(u + 17, CompareOp::kEq, Value("x"))}),
      Pattern({Predicate(u, CompareOp::kEq, Value("lo"))}),
  };
  Rng rng(93);
  const Bitmap group = RandomGroup(data.df.num_rows(), 0.5, &rng);
  for (const CateMethod method :
       {CateMethod::kRegression, CateMethod::kStratified, CateMethod::kIpw}) {
    CateOptions options;
    options.method = method;
    const auto est = CateEstimator::Create(&data.df, &data.dag, options);
    ASSERT_TRUE(est.ok());
    const std::vector<Result<CateSubgroupEstimates>> batch =
        est->EstimateSubgroupsBatch(interventions, group, nullptr,
                                    &protected_mask, nullptr, 5,
                                    /*skip_subgroups_unless_positive=*/false,
                                    nullptr, nullptr);
    ASSERT_EQ(batch.size(), interventions.size());
    for (size_t i = 0; i < interventions.size(); ++i) {
      const Result<CateSubgroupEstimates> single = est->EstimateSubgroups(
          interventions[i], group, &protected_mask, 5);
      const std::string tag = "m" + std::to_string(static_cast<int>(method)) +
                              "/i" + std::to_string(i);
      ASSERT_EQ(batch[i].ok(), single.ok()) << tag;
      if (!single.ok()) continue;
      ExpectSameSubgroups(*batch[i], *single, tag);
    }
  }
}

// ---------------------------------------------------------------------
// Cell shortcuts: accums derived from per-cell statistics (the protected
// split routed from cells; groups restricted from table accums) must
// equal the walked accums byte for byte.

// Protected and grouping attributes that are confounders of T: Prot and
// Zc parent T (with nulls in both, so null-digit cells exist), and with
// `numeric_confounder` so does Zn (moments under regression). Zn and the
// 8-level T are never cell-aligned.
EdgeData MakeCellData(size_t n, bool integer_outcome, bool numeric_confounder,
                      uint64_t seed) {
  auto schema = Schema::Create({
      {"Prot", AttrType::kCategorical, AttrRole::kImmutable},
      {"Zc", AttrType::kCategorical, AttrRole::kImmutable},
      {"Zn", AttrType::kNumeric, AttrRole::kImmutable},
      {"T", AttrType::kCategorical, AttrRole::kMutable},
      {"O", AttrType::kNumeric, AttrRole::kOutcome},
  });
  DataFrame df = DataFrame::Create(std::move(schema).ValueOrDie());
  Rng rng(seed);
  for (size_t i = 0; i < n; ++i) {
    const bool prot = rng.NextBernoulli(0.3);
    const size_t zc = rng.NextBounded(2);
    const double zn = rng.NextGaussian(0.0, 2.0);
    const size_t t = rng.NextBounded(8);
    double o = 5.0 + 0.5 * static_cast<double>(zc) + 1.5 * zn +
               0.7 * static_cast<double>(t) + (prot ? -1.0 : 0.0) +
               rng.NextGaussian(0.0, 1.0);
    if (integer_outcome) o = std::round(o * 10.0);
    const Status st = df.AppendRow(
        {rng.NextBernoulli(0.04) ? Value::Null() : Value(prot ? "yes" : "no"),
         rng.NextBernoulli(0.05) ? Value::Null()
                                 : Value("z" + std::to_string(zc)),
         rng.NextBernoulli(0.05) ? Value::Null() : Value(zn),
         Value("t" + std::to_string(t)),
         rng.NextBernoulli(0.02) ? Value::Null() : Value(o)});
    EXPECT_TRUE(st.ok());
  }
  std::vector<std::pair<std::string, std::string>> edges = {
      {"Prot", "T"}, {"Zc", "T"}, {"Prot", "O"},
      {"Zc", "O"},   {"Zn", "O"}, {"T", "O"}};
  if (numeric_confounder) edges.push_back({"Zn", "T"});
  CausalDag dag =
      CausalDag::Create({"Prot", "Zc", "Zn", "T", "O"}, edges).ValueOrDie();
  Pattern protected_pattern({Predicate(0, CompareOp::kEq, Value("yes"))});
  return {std::move(df), std::move(dag), std::move(protected_pattern)};
}

// Derived accums are compared byte for byte with walked ones over the real
// (cell, arm) slots. The two scratch slots past them are write-only kernel
// scratch (the branchless int64 dense loop steers excluded rows there),
// never read by a merge or a solve, and a derived accum leaves them zero,
// so both sides clear them before the comparison.
void ExpectSameAccumSlots(CateStatsEngine::SubgroupAccums got,
                          CateStatsEngine::SubgroupAccums ref,
                          size_t slots, const std::string& label) {
  const auto clear = [slots](CateStatsEngine::SubgroupAccums* accums) {
    for (CateStatsEngine::Accum* acc :
         {&accums->overall, &accums->prot, &accums->nonprot}) {
      const auto zero = [slots](auto& v) {
        if (v.size() > slots) std::fill(v.begin() + slots, v.end(), 0);
      };
      zero(acc->n);
      zero(acc->sy);
      zero(acc->syy);
      zero(acc->isy);
      zero(acc->isyy);
    }
  };
  clear(&got);
  clear(&ref);
  ExpectSameAccums(got, ref, label);
}

// One AccumulateBatch call, collected in engine order.
std::vector<CateStatsEngine::SubgroupAccums> Accumulate(
    const std::vector<const CateStatsEngine*>& engines, const Bitmap& group,
    const Pattern* group_pattern, const Bitmap* protected_mask,
    const Pattern* protected_pattern, const ShardPlan* plan,
    TaskGroup* tasks) {
  std::vector<CateStatsEngine::SubgroupAccums> out;
  CateStatsEngine::AccumulateBatch(
      engines, group, group_pattern, protected_mask, protected_pattern, plan,
      tasks, [&](size_t index, CateStatsEngine::SubgroupAccums accums) {
        EXPECT_EQ(index, out.size());
        out.push_back(std::move(accums));
      });
  return out;
}

uint64_t CounterValue(const char* name) {
  return obs::MetricsRegistry::Global().CounterValue(name);
}

TEST(CateStatsEngineCellTest, CellDerivedAccumsBytewiseEqualWalked) {
  TaskScheduler scheduler(4);
  const uint64_t split_start = CounterValue("estimation.split_from_cells");
  const uint64_t groups_start = CounterValue("estimation.groups_from_cells");
  for (const bool integer_outcome : {false, true}) {
    for (const bool numeric_confounder : {false, true}) {
      const EdgeData data =
          MakeCellData(3000, integer_outcome, numeric_confounder, 41);
      const DataFrame& df = data.df;
      const size_t prot_attr = *df.schema().IndexOf("Prot");
      const size_t zc = *df.schema().IndexOf("Zc");
      const size_t zn = *df.schema().IndexOf("Zn");
      const size_t t = *df.schema().IndexOf("T");
      std::vector<Pattern> treatments;
      for (int level = 0; level < 7; ++level) {
        treatments.push_back(Pattern({Predicate(
            t, CompareOp::kEq, Value("t" + std::to_string(level)))}));
      }
      // Aligned groups (one and two predicates, all rows, a category no
      // row carries) and groups that must walk: Ne, a numeric attribute,
      // and a non-confounder.
      struct GroupCase {
        Pattern pattern;
        bool aligned;
      };
      const std::vector<GroupCase> group_cases = {
          {Pattern({Predicate(zc, CompareOp::kEq, Value("z1"))}), true},
          {Pattern({Predicate(prot_attr, CompareOp::kEq, Value("no")),
                    Predicate(zc, CompareOp::kEq, Value("z0"))}),
           true},
          {Pattern(), true},
          {Pattern({Predicate(zc, CompareOp::kEq, Value("absent"))}), true},
          {Pattern({Predicate(zc, CompareOp::kNe, Value("z1"))}), false},
          {Pattern({Predicate(zn, CompareOp::kLt, Value(0.5))}), false},
          {Pattern({Predicate(t, CompareOp::kEq, Value("t3"))}), false},
      };
      // Protected patterns: one predicate, two predicates, and one that
      // is not aligned (the walk splits on the mask).
      const std::vector<Pattern> protected_patterns = {
          data.protected_pattern,
          Pattern({Predicate(prot_attr, CompareOp::kEq, Value("yes")),
                   Predicate(zc, CompareOp::kEq, Value("z0"))}),
          Pattern({Predicate(zn, CompareOp::kGt, Value(0.0))}),
      };
      for (const CateMethod method :
           {CateMethod::kRegression, CateMethod::kStratified}) {
        CateOptions options;
        options.method = method;
        const auto est = CateEstimator::Create(&df, &data.dag, options);
        ASSERT_TRUE(est.ok());
        std::vector<std::shared_ptr<const CateStatsEngine>> held;
        std::vector<const CateStatsEngine*> engines;
        for (const Pattern& p : treatments) {
          held.push_back(*est->EngineFor(p));
          engines.push_back(held.back().get());
        }
        const size_t slots = held[0]->partition().cells().size() * 2;
        for (const simd::SimdLevel level : simd::SupportedSimdLevels()) {
          simd::ScopedSimdLevel pin(level);
          for (const size_t shards :
               {size_t{1}, size_t{2}, size_t{7}, size_t{16}}) {
            const ShardPlan plan = ShardPlan::Create(df.num_rows(), shards);
            TaskGroup tasks(&scheduler);
            for (size_t g = 0; g < group_cases.size(); ++g) {
              const Bitmap group = group_cases[g].pattern.Evaluate(df);
              for (size_t p = 0; p < protected_patterns.size(); ++p) {
                const Bitmap prot = protected_patterns[p].Evaluate(df);
                const std::string label =
                    std::string(integer_outcome ? "int" : "fp") +
                    (numeric_confounder ? "/zn" : "") + "/m" +
                    std::to_string(static_cast<int>(method)) + "/" +
                    simd::SimdLevelName(level) + "/s" +
                    std::to_string(shards) + "/g" + std::to_string(g) +
                    "/p" + std::to_string(p);
                const auto ref = Accumulate(engines, group, nullptr, &prot,
                                            nullptr, &plan, &tasks);
                const uint64_t from_cells_before =
                    CounterValue("estimation.groups_from_cells");
                const auto got =
                    Accumulate(engines, group, &group_cases[g].pattern, &prot,
                               &protected_patterns[p], &plan, &tasks);
                if (!group_cases[g].aligned) {
                  EXPECT_EQ(CounterValue("estimation.groups_from_cells"),
                            from_cells_before)
                      << label;
                }
                ASSERT_EQ(got.size(), ref.size()) << label;
                for (size_t k = 0; k < got.size(); ++k) {
                  ExpectSameAccumSlots(got[k], ref[k], slots,
                                       label + "/t" + std::to_string(k));
                }
              }
              // Without a protected split only the group shortcut applies.
              const auto ref = Accumulate(engines, group, nullptr, nullptr,
                                          nullptr, &plan, &tasks);
              const auto got = Accumulate(engines, group,
                                          &group_cases[g].pattern, nullptr,
                                          nullptr, &plan, &tasks);
              for (size_t k = 0; k < got.size(); ++k) {
                ExpectSameAccumSlots(got[k], ref[k], slots,
                                     "unsplit/g" + std::to_string(g) + "/t" +
                                         std::to_string(k));
              }
            }
          }
        }
      }
    }
  }
  // Both shortcuts were exercised, not just skipped.
  EXPECT_GT(CounterValue("estimation.split_from_cells"), split_start);
  EXPECT_GT(CounterValue("estimation.groups_from_cells"), groups_start);
}

TEST(CateStatsEngineCellTest, ShortcutsFireOnAlignedPatterns) {
  const EdgeData data = MakeCellData(2000, /*integer_outcome=*/false,
                                     /*numeric_confounder=*/false, 43);
  const size_t zc = *data.df.schema().IndexOf("Zc");
  const size_t t = *data.df.schema().IndexOf("T");
  const auto est = CateEstimator::Create(&data.df, &data.dag, CateOptions());
  ASSERT_TRUE(est.ok());
  const auto engine =
      *est->EngineFor(Pattern({Predicate(t, CompareOp::kEq, Value("t1"))}));
  const Pattern group_pattern({Predicate(zc, CompareOp::kEq, Value("z1"))});
  const Bitmap group = group_pattern.Evaluate(data.df);
  const Bitmap prot = data.protected_pattern.Evaluate(data.df);

  const size_t bytes_before = engine->bytes();
  const uint64_t split_before = CounterValue("estimation.split_from_cells");
  const uint64_t groups_before = CounterValue("estimation.groups_from_cells");
  const uint64_t table_rows_before =
      CounterValue("estimation.table_pass_rows");
  const uint64_t walk_rows_before = CounterValue("simd.cate_walk_rows");
  // First use builds the table accums with one pass over every row ...
  (void)Accumulate({engine.get()}, group, &group_pattern, &prot,
                   &data.protected_pattern, nullptr, nullptr);
  EXPECT_EQ(CounterValue("estimation.split_from_cells"), split_before + 1);
  EXPECT_EQ(CounterValue("estimation.groups_from_cells"), groups_before + 1);
  EXPECT_EQ(CounterValue("estimation.table_pass_rows"),
            table_rows_before + data.df.num_rows());
  EXPECT_GT(engine->bytes(), bytes_before);
  // ... and every later aligned group walks no row at all.
  const uint64_t walked = CounterValue("simd.cate_walk_rows");
  (void)Accumulate({engine.get()}, group, &group_pattern, &prot,
                   &data.protected_pattern, nullptr, nullptr);
  EXPECT_EQ(CounterValue("simd.cate_walk_rows"), walked);
  EXPECT_EQ(CounterValue("estimation.table_pass_rows"),
            table_rows_before + data.df.num_rows());
  EXPECT_GT(walked, walk_rows_before);
  // The estimator counts the table accums in its cache bytes.
  EXPECT_GE(est->GetEngineStats().bytes,
            engine->bytes() + engine->partition().bytes());
}

TEST(CateStatsEngineCellTest, CellsAddedByExtendInPlaceStayExact) {
  // The base rows never pair Prot = yes with Zc = z1; the delta does, so
  // ExtendInPlace adds cells after the protected membership was memoized
  // and after the engines built table accums.
  const EdgeData full = MakeCellData(2400, /*integer_outcome=*/true,
                                     /*numeric_confounder=*/false, 47);
  const size_t prot_attr = *full.df.schema().IndexOf("Prot");
  const size_t zc = *full.df.schema().IndexOf("Zc");
  const size_t t = *full.df.schema().IndexOf("T");
  std::vector<uint32_t> base_rows, delta_rows;
  for (uint32_t r = 0; r < full.df.num_rows(); ++r) {
    const bool yes_z1 = full.df.column(prot_attr).code(r) ==
                            *full.df.column(prot_attr).CodeOf("yes") &&
                        full.df.column(zc).code(r) ==
                            *full.df.column(zc).CodeOf("z1");
    (yes_z1 || r >= 2000 ? delta_rows : base_rows).push_back(r);
  }
  DataFrame df = full.df.TakeRows(base_rows);
  const DataFrame delta = full.df.TakeRows(delta_rows);
  auto est = CateEstimator::Create(&df, &full.dag, CateOptions());
  ASSERT_TRUE(est.ok());
  const Pattern treatment({Predicate(t, CompareOp::kEq, Value("t2"))});
  const Pattern group_pattern({Predicate(zc, CompareOp::kEq, Value("z1"))});
  const auto warm = [&]() {
    const auto engine = *est->EngineFor(treatment);
    const Bitmap group = group_pattern.Evaluate(df);
    const Bitmap prot = full.protected_pattern.Evaluate(df);
    const auto got = Accumulate({engine.get()}, group, &group_pattern, &prot,
                                &full.protected_pattern, nullptr, nullptr);
    const auto ref = Accumulate({engine.get()}, group, nullptr, &prot,
                                nullptr, nullptr, nullptr);
    return std::make_tuple(engine, got, ref);
  };
  const auto [before_engine, before_got, before_ref] = warm();
  const size_t cells_before = before_engine->partition().cells().size();
  ExpectSameAccumSlots(before_got[0], before_ref[0], cells_before * 2,
                       "before");

  ASSERT_TRUE(df.AppendFrame(delta).ok());
  const CateEstimator::AppendRefreshStats stats = est->NotifyAppend();
  ASSERT_EQ(stats.partitions_extended, 1u);
  const auto [engine, got, ref] = warm();
  ASSERT_EQ(&engine->partition(), &before_engine->partition());
  const size_t cells = engine->partition().cells().size();
  ASSERT_GT(cells, cells_before);
  ExpectSameAccumSlots(got[0], ref[0], cells * 2, "extended");
  // The new Prot = yes, Zc = z1 rows count as protected.
  EXPECT_GT(got[0].prot.rows, before_got[0].prot.rows);
}

TEST(CateStatsEngineCellTest, IntGuardTripInTablePassFallsBackToWalk) {
  // The table pass over all 2000 near-limit rows (1000 per shard when
  // sharded) trips the int64 guard, but a walk of the ~670-row Z = a
  // group would not: its int_valid would differ, so the group must walk —
  // and still match bytewise.
  const EdgeData data = MakeBigIntData(2000, 103);
  const size_t z = *data.df.schema().IndexOf("Z");
  const size_t t = *data.df.schema().IndexOf("T");
  CateOptions options;
  options.method = CateMethod::kStratified;
  const auto est = CateEstimator::Create(&data.df, &data.dag, options);
  ASSERT_TRUE(est.ok());
  const auto engine =
      *est->EngineFor(Pattern({Predicate(t, CompareOp::kEq, Value("yes"))}));
  const Pattern group_pattern({Predicate(z, CompareOp::kEq, Value("a"))});
  const Bitmap group = group_pattern.Evaluate(data.df);
  const size_t slots = engine->partition().cells().size() * 2;
  for (const size_t shards : {size_t{1}, size_t{2}}) {
    const ShardPlan plan = ShardPlan::Create(data.df.num_rows(), shards);
    const uint64_t fallbacks_before =
        CounterValue("estimation.accumulate_int_fallbacks");
    const uint64_t groups_before = CounterValue("estimation.groups_from_cells");
    const auto got = Accumulate({engine.get()}, group, &group_pattern,
                                nullptr, nullptr, &plan, nullptr);
    EXPECT_GT(CounterValue("estimation.accumulate_int_fallbacks"),
              fallbacks_before);
    EXPECT_EQ(CounterValue("estimation.groups_from_cells"), groups_before);
    const auto ref = Accumulate({engine.get()}, group, nullptr, nullptr,
                                nullptr, &plan, nullptr);
    EXPECT_TRUE(ref[0].overall.int_valid);
    ExpectSameAccumSlots(got[0], ref[0], slots,
                         "guard/s" + std::to_string(shards));
  }
}

// A joint confounder key is a mixed radix over the per-confounder bases
// (categories + 1 each). With 40 binary confounders it needs 3^40 > 2^63
// values: the engine must refuse the adjustment set, naming it, instead
// of letting distinct cells collide; 39 still fit.
TEST(CateStatsEngineRadixTest, WideAdjustmentSetIsRejectedByName) {
  for (const size_t width : {size_t{39}, size_t{40}}) {
    std::vector<AttributeSpec> specs;
    std::vector<std::string> nodes;
    std::vector<std::pair<std::string, std::string>> edges;
    for (size_t z = 0; z < width; ++z) {
      const std::string name = "Z" + std::to_string(z);
      specs.push_back({name, AttrType::kCategorical, AttrRole::kImmutable});
      nodes.push_back(name);
      edges.emplace_back(name, "T");
      edges.emplace_back(name, "O");
    }
    specs.push_back({"T", AttrType::kCategorical, AttrRole::kMutable});
    specs.push_back({"O", AttrType::kNumeric, AttrRole::kOutcome});
    nodes.push_back("T");
    nodes.push_back("O");
    edges.emplace_back("T", "O");
    DataFrame df =
        DataFrame::Create(Schema::Create(specs).ValueOrDie());
    Rng rng(width);
    for (size_t i = 0; i < 64; ++i) {
      std::vector<Value> row;
      row.reserve(width + 2);
      for (size_t z = 0; z < width; ++z) {
        row.emplace_back(rng.NextBernoulli(0.5) ? "a" : "b");
      }
      const bool treated = rng.NextBernoulli(0.5);
      row.emplace_back(treated ? "yes" : "no");
      row.emplace_back(treated ? 2.0 : 1.0);
      ASSERT_TRUE(df.AppendRow(row).ok());
    }
    const CausalDag dag = CausalDag::Create(nodes, edges).ValueOrDie();
    const auto est = CateEstimator::Create(&df, &dag);
    ASSERT_TRUE(est.ok());
    const Pattern intervention(
        {Predicate(width, CompareOp::kEq, Value("yes"))});
    const auto engine = est->EngineFor(intervention);
    if (width == 39) {
      EXPECT_TRUE(engine.ok()) << engine.status().ToString();
      continue;
    }
    ASSERT_FALSE(engine.ok());
    EXPECT_EQ(engine.status().code(), StatusCode::kInvalidArgument);
    const std::string message = engine.status().ToString();
    EXPECT_NE(message.find("Z0, Z1"), std::string::npos) << message;
    EXPECT_NE(message.find("Z39"), std::string::npos) << message;
    const Bitmap all = df.AllRows();
    const auto batch = est->EstimateSubgroups(intervention, all, nullptr);
    ASSERT_FALSE(batch.ok());
    EXPECT_EQ(batch.status().code(), StatusCode::kInvalidArgument);
  }
}

// ---------------------------------------------------------------------
// The regression solve against its test oracle: the per-cell-arm double
// assembly of X'X / X'y / y'y and the column-at-a-time inverse. The
// engine adds both arms of a cell to the count block at once and batches
// the inverse's column solves; both are exact rewrites, so every estimate
// must agree in bits.

// Solves every sampled treatment's overall / protected / non-protected
// accums over the whole table, a dense and a sparse group, and returns
// how many estimates succeeded (so callers can check the sweep is not
// vacuous).
size_t ExpectRegressionSolvesMatchOracle(const DataFrame& df,
                                         const CausalDag& dag,
                                         const Pattern& protected_pattern,
                                         uint64_t seed,
                                         const std::string& label) {
  const Bitmap protected_mask = protected_pattern.Evaluate(df);
  Rng rng(seed);
  const std::vector<Pattern> interventions = SampleInterventions(df, 6, &rng);
  CateOptions options;
  options.method = CateMethod::kRegression;
  const auto est = CateEstimator::Create(&df, &dag, options);
  EXPECT_TRUE(est.ok());
  if (!est.ok()) return 0;
  const size_t min_group = options.min_group_size;
  const size_t min_sub = 5;
  size_t solved = 0;
  for (size_t i = 0; i < interventions.size(); ++i) {
    const auto engine = est->EngineFor(interventions[i]);
    if (!engine.ok()) continue;
    const Bitmap groups[] = {df.AllRows(),
                             RandomGroup(df.num_rows(), 0.6, &rng),
                             RandomGroup(df.num_rows(), 0.02, &rng)};
    for (size_t g = 0; g < 3; ++g) {
      CateStatsEngine::AccumulateBatch(
          {engine->get()}, groups[g], nullptr, &protected_mask, nullptr,
          nullptr, nullptr,
          [&](size_t, CateStatsEngine::SubgroupAccums accums) {
            const std::string tag =
                label + "/i" + std::to_string(i) + "/g" + std::to_string(g);
            const CateSubgroupEstimates got = (*engine)->SolveFromAccums(
                accums, groups[g], &protected_mask, min_group, min_sub);
            ExpectSameBits(
                got.overall,
                oracle::LegacySolveRegression(df, **engine, accums.overall,
                                              min_group),
                tag + "/overall");
            ExpectSameBits(
                got.protected_group,
                oracle::LegacySolveRegression(df, **engine, accums.prot,
                                              min_sub),
                tag + "/protected");
            ExpectSameBits(
                got.nonprotected,
                oracle::LegacySolveRegression(df, **engine, accums.nonprot,
                                              min_sub),
                tag + "/nonprotected");
            solved += got.overall.ok() + got.protected_group.ok() +
                      got.nonprotected.ok();
          });
    }
  }
  return solved;
}

TEST(CateStatsEngineSolveTest, RegressionBitIdenticalToOracleOnGerman) {
  GermanConfig config;
  config.num_rows = 1500;
  config.seed = 21;
  const auto data = MakeGerman(config);
  ASSERT_TRUE(data.ok());
  EXPECT_GT(ExpectRegressionSolvesMatchOracle(
                data->df, data->dag, data->protected_pattern, 21, "german"),
            0u);
}

TEST(CateStatsEngineSolveTest, RegressionBitIdenticalToOracleOnStackOverflow) {
  StackOverflowConfig config;
  config.num_rows = 8000;
  config.seed = 22;
  const auto data = MakeStackOverflow(config);
  ASSERT_TRUE(data.ok());
  EXPECT_GT(ExpectRegressionSolvesMatchOracle(
                data->df, data->dag, data->protected_pattern, 22, "so"),
            0u);
}

TEST(CateStatsEngineSolveTest, RegressionBitIdenticalToOracleOnSynthetic) {
  // The generator's SCM (categorical confounders, integer outcome too)
  // and the hand-built tables with a numeric confounder and nulls, whose
  // regression assembly runs the z-moment blocks.
  for (const bool integer_outcome : {false, true}) {
    SyntheticConfig config;
    config.num_rows = 4000;
    config.seed = 23;
    config.integer_outcome = integer_outcome;
    const auto data = MakeSynthetic(config);
    ASSERT_TRUE(data.ok());
    EXPECT_GT(ExpectRegressionSolvesMatchOracle(data->df, data->dag,
                                                data->protected_pattern, 23,
                                                "synthetic"),
              0u);
  }
  const EdgeData edge = MakeEdgeData(3000, 24);
  EXPECT_GT(ExpectRegressionSolvesMatchOracle(edge.df, edge.dag,
                                              edge.protected_pattern, 24,
                                              "edge"),
            0u);
  for (const bool integer_outcome : {false, true}) {
    const EdgeData batch = MakeBatchData(3000, 20, integer_outcome, 25);
    EXPECT_GT(ExpectRegressionSolvesMatchOracle(batch.df, batch.dag,
                                                batch.protected_pattern, 25,
                                                "batch"),
              0u);
  }
}

// Regression test for the empty-arm guard: one-class inputs used to
// divide by a zero weight sum and return a NaN estimate.
TEST(HajekIpwTest, EmptyArmFailsInsteadOfNaN) {
  const size_t n = 6;
  const size_t p = 1;  // intercept-only propensity design
  const std::vector<double> design(n * p, 1.0);
  const std::vector<double> outcomes = {1.0, 2.0, 3.0, 4.0, 5.0, 6.0};
  for (const bool treated : {true, false}) {
    const std::vector<double> labels(n, treated ? 1.0 : 0.0);
    const std::vector<uint8_t> is_treated(n, treated ? 1 : 0);
    const Result<CateEstimate> result = HajekIpwFromRows(
        design, n, p, labels, outcomes, is_treated, /*propensity_clip=*/0.02);
    ASSERT_FALSE(result.ok()) << (treated ? "all-treated" : "all-control");
    EXPECT_EQ(result.status().code(), StatusCode::kFailedPrecondition);
    EXPECT_NE(result.status().ToString().find("arms"), std::string::npos);
  }
}

}  // namespace
}  // namespace faircap
