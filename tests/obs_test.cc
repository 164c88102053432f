// Observability layer (util/obs/): span tracer semantics — disabled-mode
// zero-event guarantee, nesting, thread attribution in the Chrome trace
// JSON — plus metrics-registry exactness under concurrent increments (the
// TSan leg runs this test), Reset-keeps-handles-valid, and the run-report
// schema floor: every v1 section and key must be present in the emitted
// JSON, and a real pipeline run must populate the same registry the
// report serializes (no bench-only shadow counters).

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/faircap.h"
#include "util/obs/metrics.h"
#include "util/obs/run_report.h"
#include "util/obs/trace.h"
#include "util/random.h"

namespace faircap {
namespace {

// ---------------------------------------------------------------------------
// Tracer

TEST(TraceTest, DisabledTracerRecordsNothing) {
  obs::DisableTracing();
  obs::ClearTrace();
  {
    obs::TraceSpan outer("outer");
    obs::TraceSpan inner("inner", 7);
  }
  EXPECT_EQ(obs::TraceEventCount(), 0u);
  std::ostringstream out;
  obs::WriteChromeTrace(out);
  EXPECT_EQ(out.str(), "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[]}");
}

TEST(TraceTest, EnableRecordsNestedSpans) {
  obs::EnableTracing();
  {
    obs::TraceSpan outer("outer");
    { obs::TraceSpan inner("inner", 3); }
    { obs::TraceSpan inner("inner", 4); }
  }
  obs::DisableTracing();
  EXPECT_EQ(obs::TraceEventCount(), 3u);
  std::ostringstream out;
  obs::WriteChromeTrace(out);
  const std::string json = out.str();
  EXPECT_NE(json.find("\"name\":\"outer\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"inner\""), std::string::npos);
  EXPECT_NE(json.find("\"args\":{\"v\":3}"), std::string::npos);
  EXPECT_NE(json.find("\"args\":{\"v\":4}"), std::string::npos);
  obs::ClearTrace();
}

TEST(TraceTest, TimestampsKeepNanosecondsPastTheFirstSecond) {
  // An hour into a session a span still nests by its exact ns bounds.
  obs::EnableTracing();
  obs::internal::RecordTraceEvent("late", 3600123456789u, 5007u, -1);
  obs::DisableTracing();
  std::ostringstream out;
  obs::WriteChromeTrace(out);
  EXPECT_NE(out.str().find("\"ts\":3600123456.789,\"dur\":5.007,"),
            std::string::npos)
      << out.str();
  obs::ClearTrace();
}

TEST(TraceTest, EnablementLatchedAtConstruction) {
  // A span that starts before EnableTracing records nothing even if
  // tracing turns on mid-span; a span that starts while enabled records
  // even if tracing turns off before its destructor.
  obs::DisableTracing();
  obs::ClearTrace();
  {
    obs::TraceSpan off_span("off");
    obs::EnableTracing();
  }
  EXPECT_EQ(obs::TraceEventCount(), 0u);
  {
    obs::TraceSpan on_span("on");
    obs::DisableTracing();
  }
  EXPECT_EQ(obs::TraceEventCount(), 1u);
  obs::ClearTrace();
}

TEST(TraceTest, ThreadAttribution) {
  obs::EnableTracing();
  std::thread worker([] {
    obs::SetThreadTraceName("obs-test-thread");
    obs::TraceSpan span("worker_span");
  });
  worker.join();
  { obs::TraceSpan span("main_span"); }
  obs::DisableTracing();
  std::ostringstream out;
  obs::WriteChromeTrace(out);
  const std::string json = out.str();
  // The worker's buffer survives its exit; its track carries the
  // registered name and its span, on a different tid from main's.
  EXPECT_NE(json.find("\"thread_name\",\"args\":{\"name\":\"obs-test-thread\"}"),
            std::string::npos);
  EXPECT_NE(json.find("\"name\":\"worker_span\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"main_span\""), std::string::npos);
  obs::ClearTrace();
}

TEST(TraceTest, EnableTracingStartsAFreshSession) {
  obs::EnableTracing();
  { obs::TraceSpan span("stale"); }
  obs::EnableTracing();  // drops the previous session's events
  { obs::TraceSpan span("fresh"); }
  obs::DisableTracing();
  std::ostringstream out;
  obs::WriteChromeTrace(out);
  EXPECT_EQ(out.str().find("\"name\":\"stale\""), std::string::npos);
  EXPECT_NE(out.str().find("\"name\":\"fresh\""), std::string::npos);
  obs::ClearTrace();
}

// ---------------------------------------------------------------------------
// Metrics registry

TEST(MetricsTest, CounterExactUnderConcurrentIncrements) {
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  obs::Counter& counter = registry.GetCounter("obs_test.concurrent");
  const uint64_t before = counter.value();
  constexpr int kThreads = 8;
  constexpr int kIncrements = 20000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&registry] {
      // Resolve the handle on each thread too: must alias one counter.
      obs::Counter& c = registry.GetCounter("obs_test.concurrent");
      for (int i = 0; i < kIncrements; ++i) c.Increment();
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(counter.value(),
            before + static_cast<uint64_t>(kThreads) * kIncrements);
}

TEST(MetricsTest, HandlesStayValidAcrossReset) {
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  obs::Counter& counter = registry.GetCounter("obs_test.reset");
  obs::Gauge& gauge = registry.GetGauge("obs_test.reset_gauge");
  counter.Add(41);
  gauge.Set(2.5);
  registry.Reset();
  EXPECT_EQ(counter.value(), 0u);
  EXPECT_EQ(gauge.value(), 0.0);
  counter.Increment();  // the pre-Reset handle still writes the registry
  EXPECT_EQ(registry.CounterValue("obs_test.reset"), 1u);
  EXPECT_EQ(&registry.GetCounter("obs_test.reset"), &counter);
}

TEST(MetricsTest, HistogramBucketsAndSum) {
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  obs::Histogram& hist = registry.GetHistogram("obs_test.hist");
  registry.Reset();
  hist.Observe(0.5);  // bucket 0 (<= 1)
  hist.Observe(1.0);  // bucket 0
  hist.Observe(3.0);  // (2,4] -> bucket 2
  hist.Observe(4.0);  // bucket 2
  hist.Observe(100.0);  // (64,128] -> bucket 7
  EXPECT_EQ(hist.count(), 5u);
  EXPECT_DOUBLE_EQ(hist.sum(), 108.5);
  EXPECT_EQ(hist.bucket(0), 2u);
  EXPECT_EQ(hist.bucket(2), 2u);
  EXPECT_EQ(hist.bucket(7), 1u);
}

TEST(MetricsTest, WriteJsonGroupsBySection) {
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  registry.Reset();
  registry.GetCounter("obs_json.alpha").Add(3);
  registry.GetGauge("obs_json.beta").Set(1.5);
  std::ostringstream out;
  registry.WriteJson(out);
  const std::string json = out.str();
  EXPECT_NE(json.find("\"obs_json\":{"), std::string::npos);
  EXPECT_NE(json.find("\"alpha\":3"), std::string::npos);
  EXPECT_NE(json.find("\"beta\":1.5"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Run report schema

TEST(RunReportTest, SchemaFloorAlwaysPresent) {
  // Even on a freshly Reset registry, the report carries the full v1 key
  // set — downstream parsers (CI validation, the bench harnesses) index
  // unconditionally.
  obs::MetricsRegistry::Global().Reset();
  std::ostringstream out;
  obs::WriteRunReport(out);
  const std::string json = out.str();
  EXPECT_EQ(json.rfind("{\"schema\":\"faircap.run_report.v1\",", 0), 0u);
  for (const char* key :
       {"\"phase\":{", "\"scheduler\":{", "\"index_cache\":{",
        "\"engine_cache\":{", "\"ingest\":{", "\"simd\":{",
        "\"estimation\":{", "\"mining\":{"}) {
    EXPECT_NE(json.find(key), std::string::npos) << "missing section " << key;
  }
  for (const char* key :
       {"\"group_mining_seconds\":", "\"treatment_mining_seconds\":",
        "\"selection_seconds\":", "\"ingest_seconds\":", "\"total_seconds\":",
        "\"workers\":", "\"submitted\":", "\"executed\":", "\"stolen\":",
        "\"helped\":", "\"instances\":", "\"hits\":", "\"misses\":",
        "\"evictions\":", "\"atom_evictions\":", "\"warm_atom_masks\":",
        "\"atom_bytes\":", "\"conjunction_bytes\":",
        "\"numeric_order_bytes\":", "\"rows\":", "\"bytes\":", "\"chunks\":",
        "\"segments\":", "\"runs\":", "\"level\":", "\"level_name\":",
        "\"legacy_calls\":", "\"batch_evals\":", "\"solve_regression\":",
        "\"solve_stratified\":", "\"solve_ipw_cells\":",
        "\"solve_ipw_rows\":", "\"lattice_evaluations\":",
        "\"pattern_tasks\":", "\"batched_passes\":",
        "\"split_from_cells\":", "\"groups_from_cells\":",
        "\"table_pass_rows\":", "\"cate_walk_rows\":",
        "\"batch_width\":{"}) {
    EXPECT_NE(json.find(key), std::string::npos) << "missing key " << key;
  }
}

TEST(RunReportTest, SimdLevelNameMatchesGauge) {
  obs::EnsureStandardMetricsRegistered();
  std::ostringstream out;
  obs::WriteRunReport(out);
  const std::string json = out.str();
  // Whatever tier the gauge holds, the report names one of the known
  // tiers (or "unknown" before any kernel dispatch resolved).
  const bool named = json.find("\"level_name\":\"scalar\"") !=
                         std::string::npos ||
                     json.find("\"level_name\":\"avx2\"") !=
                         std::string::npos ||
                     json.find("\"level_name\":\"avx512\"") !=
                         std::string::npos ||
                     json.find("\"level_name\":\"unknown\"") !=
                         std::string::npos;
  EXPECT_TRUE(named);
}

// ---------------------------------------------------------------------------
// End to end: the pipeline populates the registry the report serializes.

struct TestData {
  DataFrame df;
  CausalDag dag;
  Pattern protected_pattern;
};

TestData MakeSmallSynthetic(size_t n, uint64_t seed) {
  auto schema = Schema::Create({
      {"Prot", AttrType::kCategorical, AttrRole::kImmutable},
      {"G", AttrType::kCategorical, AttrRole::kImmutable},
      {"Z", AttrType::kCategorical, AttrRole::kImmutable},
      {"T", AttrType::kCategorical, AttrRole::kMutable},
      {"O", AttrType::kNumeric, AttrRole::kOutcome},
  });
  DataFrame df = DataFrame::Create(std::move(schema).ValueOrDie());
  Rng rng(seed);
  const char* g_levels[] = {"g0", "g1"};
  const char* z_levels[] = {"a", "b"};
  for (size_t i = 0; i < n; ++i) {
    const bool prot = rng.NextBernoulli(0.3);
    const size_t g = rng.NextBounded(2);
    const size_t z = rng.NextBounded(2);
    const bool t = rng.NextBernoulli(0.3 + 0.2 * static_cast<double>(z));
    const double o = 2.0 + 3.0 * static_cast<double>(z) + (t ? 4.0 : 0.0) +
                     static_cast<double>(rng.NextBounded(3));
    const Status st = df.AppendRow({Value(prot ? "yes" : "no"),
                                    Value(g_levels[g]), Value(z_levels[z]),
                                    Value(t ? "yes" : "no"), Value(o)});
    EXPECT_TRUE(st.ok());
  }
  CausalDag dag = CausalDag::Create(
                      {"Prot", "G", "Z", "T", "O"},
                      {{"Z", "T"}, {"Z", "O"}, {"Prot", "O"}, {"T", "O"}})
                      .ValueOrDie();
  return {std::move(df), std::move(dag),
          Pattern().With(Predicate(0, CompareOp::kEq, Value("yes")))};
}

TEST(RunReportTest, PipelineRunPopulatesRegistry) {
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  registry.Reset();
  TestData data = MakeSmallSynthetic(600, 17);
  FairCapOptions options;
  options.apriori.min_support_fraction = 0.2;
  options.num_threads = 2;
  options.num_shards = 2;
  auto solver =
      FairCap::Create(&data.df, &data.dag, data.protected_pattern, options);
  ASSERT_TRUE(solver.ok()) << solver.status().ToString();
  auto result = solver->Run();
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  // Scheduler totals flush at scheduler teardown (inside the run).
  EXPECT_GE(registry.CounterValue("scheduler.instances"), 1u);
  EXPECT_GT(registry.CounterValue("scheduler.executed"), 0u);
  EXPECT_GT(registry.CounterValue("mining.pattern_tasks"), 0u);
  EXPECT_GT(registry.CounterValue("mining.lattice_evaluations"), 0u);
  EXPECT_GT(registry.CounterValue("estimation.batch_evals"), 0u);
  EXPECT_GT(registry.CounterValue("index_cache.misses"), 0u);
  EXPECT_GT(registry.CounterValue("engine_cache.misses"), 0u);
  // Z is the treatment's only confounder, so the Z groups are served from
  // per-cell statistics after one table pass per engine.
  EXPECT_GT(registry.CounterValue("estimation.groups_from_cells"), 0u);
  EXPECT_GT(registry.CounterValue("estimation.table_pass_rows"), 0u);
  EXPECT_GE(registry.GaugeValue("phase.total_seconds"),
            registry.GaugeValue("phase.treatment_mining_seconds"));
  EXPECT_GT(registry.GaugeValue("phase.total_seconds"), 0.0);
  // The counters the report serializes are the ones the library bumped.
  std::ostringstream out;
  obs::WriteRunReport(out);
  const std::string json = out.str();
  EXPECT_NE(
      json.find("\"pattern_tasks\":" +
                std::to_string(registry.CounterValue("mining.pattern_tasks"))),
      std::string::npos);
  // SchedulerStats: a multi-threaded run reports real workers.
  EXPECT_TRUE(result->scheduler.collected);
  EXPECT_FALSE(result->scheduler.inline_execution);
  EXPECT_EQ(result->scheduler.workers, 2u);
}

TEST(RunReportTest, InlineRunReportsInlineExecution) {
  TestData data = MakeSmallSynthetic(300, 23);
  FairCapOptions options;
  options.apriori.min_support_fraction = 0.2;
  options.num_threads = 1;  // sequential: no scheduler is constructed
  auto solver =
      FairCap::Create(&data.df, &data.dag, data.protected_pattern, options);
  ASSERT_TRUE(solver.ok()) << solver.status().ToString();
  auto result = solver->Run();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result->scheduler.collected);
  EXPECT_TRUE(result->scheduler.inline_execution);
  EXPECT_EQ(result->scheduler.workers, 0u);
  EXPECT_EQ(result->scheduler.tasks, result->num_grouping_patterns);
  EXPECT_EQ(result->scheduler.stolen, 0u);
}

}  // namespace
}  // namespace faircap
