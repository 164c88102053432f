// Production-path benchmark: what a FairCap user waits for.
//
// Each workload runs in its own process as a closed loop — one client,
// ops back to back — and every op goes through the library's public entry
// points on files the benchmark generated at set-up:
//
//   synth1m_cold    CSV (1M synthetic rows, real outcome) -> StreamCsv ->
//                   FairCap::Create -> FairCap::Run, 1 thread
//   so_paper        CSV (38K Stack Overflow rows, Table-4 options) ->
//                   StreamCsv -> FairCap::Create -> FairCap::Run, 2 threads
//   synth1m_append  delta CSV (1% of 1M integer-outcome rows) ->
//                   DatasetRepository::ParseDelta ->
//                   IncrementalSession::Append -> IncrementalSession::Run,
//                   1 thread
//
// Every op's ruleset is checked (end of each workload function), so a
// speed-up is never measured on a wrong answer. With --trace 0 the last
// stdout line carries the end-to-end metrics: setup_s, op_s (median op
// wall: CSV to ruleset on the cold workloads, delta CSV to refreshed
// ruleset on the append workload), cpu_s and peak_rss_mb. With --trace 1
// the run alternates untraced ops with traced ones, whose spans (recorded
// here, around the public calls into each layer) give per-layer self
// times; registry counters read after each op give the per-layer counts.
//
//   faircap_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                     --dir DIR [--perturb]
//
// DIR receives the generated CSVs and the span dump. --perturb corrupts
// every op's ruleset before it is checked (negative self-test: the run
// must then report failures and correct=false).

#include <fcntl.h>
#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "core/faircap.h"
#include "core/greedy.h"
#include "core/incremental.h"
#include "data/stackoverflow.h"
#include "dataframe/csv.h"
#include "ingest/chunked_csv_reader.h"
#include "ingest/repository.h"
#include "ingest/synthetic.h"
#include "util/obs/metrics.h"

using namespace faircap;

namespace {

using Clock = std::chrono::steady_clock;

constexpr size_t kSetupRepeats = 3;
constexpr size_t kSynthRows = 1000000;
constexpr size_t kSoRows = 38000;
constexpr size_t kAppendDeltas = 10;         // delta CSVs per session cycle
constexpr size_t kAppendDeltaRows = 10000;   // 1% of the resident table

[[noreturn]] void Die(const std::string& what, const Status& status) {
  std::fprintf(stderr, "perfbench: %s: %s\n", what.c_str(),
               status.ToString().c_str());
  std::exit(1);
}

template <typename T>
T OrDie(Result<T> result, const std::string& what) {
  if (!result.ok()) Die(what, result.status());
  return std::move(result).ValueOrDie();
}

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

struct CpuTimes {
  double user = 0.0;
  double sys = 0.0;
};

CpuTimes CpuNow() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return {static_cast<double>(usage.ru_utime.tv_sec) +
              1e-6 * static_cast<double>(usage.ru_utime.tv_usec),
          static_cast<double>(usage.ru_stime.tv_sec) +
              1e-6 * static_cast<double>(usage.ru_stime.tv_usec)};
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

std::string Join(const std::vector<double>& values) {
  std::string text;
  char item[32];
  for (const double v : values) {
    std::snprintf(item, sizeof(item), "%.4f ", v);
    text += item;
  }
  return text;
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

// ---------------------------------------------------------------------------
// Bench-side spans: kept in memory, one id per op, written out at the end.

struct Span {
  std::string name;
  double start = 0.0;  // seconds since the tracer's epoch
  double end = 0.0;
  int parent = -1;     // index into the span vector, -1 = op root
  size_t op = 0;
};

class Tracer {
 public:
  Tracer() : epoch_(Clock::now()) {}

  int Begin(const std::string& name, size_t op) {
    Span span;
    span.name = name;
    span.start = SecondsSince(epoch_);
    span.parent = open_.empty() ? -1 : open_.back();
    span.op = op;
    spans_.push_back(std::move(span));
    open_.push_back(static_cast<int>(spans_.size()) - 1);
    return open_.back();
  }

  void End(int id) {
    spans_[id].end = SecondsSince(epoch_);
    open_.pop_back();
  }

  /// Per-name self time (span minus the part its children cover) summed
  /// over the spans of one op.
  std::map<std::string, double> SelfTimes(size_t op) const {
    std::map<std::string, double> self;
    std::vector<double> child_time(spans_.size(), 0.0);
    for (const Span& span : spans_) {
      if (span.op == op && span.parent >= 0) {
        child_time[span.parent] += span.end - span.start;
      }
    }
    for (size_t i = 0; i < spans_.size(); ++i) {
      if (spans_[i].op != op) continue;
      self[spans_[i].name] +=
          spans_[i].end - spans_[i].start - child_time[i];
    }
    return self;
  }

  bool Write(const std::string& path) const {
    std::ofstream out(path);
    if (!out) return false;
    out << "{\"spans\":[";
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      char line[256];
      std::snprintf(line, sizeof(line),
                    "%s\n{\"id\":%zu,\"op\":%zu,\"parent\":%d,\"start_s\":%.9f,"
                    "\"end_s\":%.9f,\"name\":",
                    i == 0 ? "" : ",", i, s.op, s.parent, s.start, s.end);
      out << line << '"' << s.name << "\"}";
    }
    out << "\n]}\n";
    return static_cast<bool>(out);
  }

 private:
  Clock::time_point epoch_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// RAII span; a no-op when `tracer` is null (the untraced path).
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, size_t op) : tracer_(tracer) {
    if (tracer_ != nullptr) id_ = tracer_->Begin(name, op);
  }
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->End(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  int id_ = -1;
};

// ---------------------------------------------------------------------------
// Output checks.

/// One selected rule in canonical, table-independent form: patterns by
/// attribute/category name (so rulesets from separately parsed tables
/// compare), supports, and the three utilities.
struct RuleRow {
  std::string patterns;
  size_t support = 0;
  size_t support_protected = 0;
  double utility = 0.0;
  double utility_protected = 0.0;
  double utility_nonprotected = 0.0;
};
using Ruleset = std::vector<RuleRow>;

Ruleset Canonical(const std::vector<PrescriptionRule>& rules,
                  const Schema& schema) {
  Ruleset rows;
  for (const PrescriptionRule& rule : rules) {
    rows.push_back({rule.grouping.ToString(schema) + " => " +
                        rule.intervention.ToString(schema),
                    rule.support, rule.support_protected, rule.utility,
                    rule.utility_protected, rule.utility_nonprotected});
  }
  return rows;
}

/// FNV-1a over the rules with utilities in hex-float (exact) notation.
std::string Digest(const Ruleset& rules) {
  uint64_t hash = 1469598103934665603ULL;
  char numbers[160];
  for (const RuleRow& rule : rules) {
    std::snprintf(numbers, sizeof(numbers), "|%zu|%zu|%a|%a|%a\n",
                  rule.support, rule.support_protected, rule.utility,
                  rule.utility_protected, rule.utility_nonprotected);
    for (const char c : rule.patterns + numbers) {
      hash ^= static_cast<unsigned char>(c);
      hash *= 1099511628211ULL;
    }
  }
  char hex[48];
  std::snprintf(hex, sizeof(hex), "%016" PRIx64 "/%zu rules", hash,
                rules.size());
  return hex;
}

bool Close(double a, double b, double rel_tol) {
  return a == b ||
         std::fabs(a - b) <= rel_tol * std::max(std::fabs(a), std::fabs(b));
}

/// Same rules in the same order with the same supports; utilities equal
/// up to `rel_tol` (0 = bit-for-bit).
bool Matches(const Ruleset& got, const Ruleset& want, double rel_tol) {
  if (got.size() != want.size()) return false;
  for (size_t i = 0; i < got.size(); ++i) {
    const RuleRow& a = got[i];
    const RuleRow& b = want[i];
    if (a.patterns != b.patterns || a.support != b.support ||
        a.support_protected != b.support_protected ||
        !Close(a.utility, b.utility, rel_tol) ||
        !Close(a.utility_protected, b.utility_protected, rel_tol) ||
        !Close(a.utility_nonprotected, b.utility_nonprotected, rel_tol)) {
      return false;
    }
  }
  return true;
}

/// The two corruptions the checks must catch: one rule dropped, or one
/// utility changed (by far more than any check's tolerance).
Ruleset DropOneRule(Ruleset rules) {
  if (!rules.empty()) rules.pop_back();
  return rules;
}

Ruleset ChangeOneUtility(Ruleset rules) {
  if (!rules.empty()) {
    rules[0].utility += 1e-6 * std::max(1.0, std::fabs(rules[0].utility));
  }
  return rules;
}

// ---------------------------------------------------------------------------
// Per-op record.

/// Registry counters and gauges captured after each op.
const char* const kCounterNames[] = {
    "mining.lattice_evaluations",
    "simd.cate_accumulate_rows",
    "estimation.batch_evals",
    "estimation.accumulate_path_sparse",
    "estimation.accumulate_path_fp_staged",
    "estimation.accumulate_path_int",
    "estimation.solve_regression",
    "engine_cache.hits",
    "engine_cache.misses",
    "index_cache.hits",
    "index_cache.misses",
    "scheduler.executed",
    "scheduler.stolen",
    "append.evals_delta",
    "append.evals_cached",
    "append.evals_full",
    "append.patterns_reused",
    "append.patterns_rechecked",
    "append.full_remines",
};
const char* const kGaugeNames[] = {
    "engine_cache.bytes",
    "index_cache.atom_bytes",
    "index_cache.conjunction_bytes",
    "index_cache.numeric_order_bytes",
};

struct OpRecord {
  bool traced = false;
  bool ran = false;     // no error status
  bool failed = false;  // error status or a failed output check
  double wall = 0.0;
  CpuTimes cpu;
  Ruleset raw;      // as produced
  Ruleset checked;  // as handed to the checks (corrupted under --perturb)
  size_t input_bytes = 0;
  size_t grouping_patterns = 0;
  size_t candidates = 0;
  std::map<std::string, double> counters;
  std::map<std::string, double> self;  // traced ops: per-span self time
  double rerun_s = 0.0;                // traced append ops
};

/// The counts that are deterministic at a fixed seed on a 1-thread
/// workload; two ops doing the same work must agree on them exactly.
std::string DeterministicCounts(const OpRecord& op) {
  const std::map<std::string, double>& c = op.counters;
  char text[192];
  std::snprintf(text, sizeof(text),
                "treatment_evals=%.0f regression_solves=%.0f "
                "rows_per_eval=%.17g",
                c.at("mining.lattice_evaluations"),
                c.at("estimation.solve_regression"),
                Ratio(c.at("simd.cate_accumulate_rows"),
                      c.at("estimation.batch_evals")));
  return text;
}

// ---------------------------------------------------------------------------
// Run-wide state.

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool perturb = false;
  std::string dir;
};

struct Run {
  Args args;
  Schema schema;
  Tracer tracer;
  std::vector<OpRecord> ops;
  std::vector<double> setup_seconds;
  std::vector<std::string> failures;  // one line per failed check
  bool run_checks_ok = true;          // checks not tied to one op
  double peak_rss_mb = 0.0;
  std::map<std::string, std::string> digests;  // printed per workload

  size_t failed_ops() const {
    size_t failed = 0;
    for (const OpRecord& op : ops) failed += op.failed ? 1 : 0;
    return failed;
  }

  void FailOp(size_t i, const std::string& why) {
    ops[i].failed = true;
    failures.push_back("op " + std::to_string(i) + ": " + why);
  }

  void FailRun(const std::string& why) {
    run_checks_ok = false;
    failures.push_back(why);
  }

  /// Times one op: registry reset before, counters and CPU after, the
  /// resulting ruleset canonicalized. `body` runs the op's public calls.
  template <typename Body>
  void TimeOp(bool traced, size_t input_bytes, Body&& body) {
    const size_t id = ops.size();
    Tracer* t = traced ? &tracer : nullptr;
    OpRecord record;
    record.traced = traced;
    record.input_bytes = input_bytes;
    obs::MetricsRegistry::Global().Reset();
    const CpuTimes cpu0 = CpuNow();
    const Clock::time_point start = Clock::now();
    Result<std::vector<PrescriptionRule>> rules = [&] {
      ScopedSpan root(t, "op", id);
      return body(t, id, &record);
    }();
    record.wall = SecondsSince(start);
    const CpuTimes cpu1 = CpuNow();
    record.cpu = {cpu1.user - cpu0.user, cpu1.sys - cpu0.sys};
    const obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
    for (const char* name : kCounterNames) {
      record.counters[name] = static_cast<double>(registry.CounterValue(name));
    }
    for (const char* name : kGaugeNames) {
      record.counters[name] = registry.GaugeValue(name);
    }
    record.ran = rules.ok();
    if (record.ran) {
      record.raw = Canonical(*rules, schema);
      record.checked = args.perturb ? DropOneRule(record.raw) : record.raw;
      if (traced) record.self = tracer.SelfTimes(id);
    }
    ops.push_back(std::move(record));
    if (!rules.ok()) FailOp(id, "error status " + rules.status().ToString());
  }

  /// The checks must reject both corruptions of a real ruleset.
  void NegativeSelfTest(const Ruleset& rules, double rel_tol) {
    if (rules.empty() || Matches(DropOneRule(rules), rules, rel_tol) ||
        Matches(ChangeOneUtility(rules), rules, rel_tol)) {
      FailRun("negative self-test: a corrupted ruleset passed the check");
    }
  }

  /// Op `i`'s checked ruleset must match `want`.
  void Expect(size_t i, const Ruleset& want, double rel_tol,
              const char* what) {
    if (ops[i].ran && !Matches(ops[i].checked, want, rel_tol)) {
      FailOp(i, "ruleset " + Digest(ops[i].checked) + " != " + what + " " +
                    Digest(want));
    }
  }

  /// Op `i`'s deterministic counts must repeat op `twin`'s exactly.
  void ExpectCounts(size_t i, size_t twin) {
    if (ops[i].ran && ops[twin].ran &&
        DeterministicCounts(ops[i]) != DeterministicCounts(ops[twin])) {
      FailOp(i, "deterministic counts " + DeterministicCounts(ops[i]) +
                    " != op " + std::to_string(twin) + "'s " +
                    DeterministicCounts(ops[twin]));
    }
  }

  /// A traced op's Steps 1/2/3 decomposition must produce the ruleset
  /// Run() produced on the same input (untraced op `twin`).
  void ExpectDecomposition(size_t i, size_t twin) {
    if (ops[i].ran && ops[twin].ran && !Matches(ops[i].raw, ops[twin].raw, 0)) {
      FailOp(i, "Steps 1/2/3 ruleset " + Digest(ops[i].raw) +
                    " != Run() ruleset " + Digest(ops[twin].raw));
    }
  }
};

// ---------------------------------------------------------------------------
// Pipeline pieces shared by the workloads.

size_t FileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  return in ? static_cast<size_t>(in.tellg()) : 0;
}

template <typename F>
auto InSpan(Tracer* tracer, const char* name, size_t op, F&& f) {
  ScopedSpan span(tracer, name, op);
  return f();
}

/// Runs the pipeline on `solver`: FairCap::Run when untraced; when traced,
/// Steps 1/2/3 as the separate public calls Run makes, each in a span.
Result<std::vector<PrescriptionRule>> Solve(const FairCap& solver,
                                            Tracer* tracer, size_t op,
                                            OpRecord* record) {
  if (tracer == nullptr) {
    FAIRCAP_ASSIGN_OR_RETURN(FairCapResult result, solver.Run());
    record->grouping_patterns = result.num_grouping_patterns;
    record->candidates = result.num_candidate_rules;
    return std::move(result.rules);
  }
  FAIRCAP_ASSIGN_OR_RETURN(
      const std::vector<FrequentPattern> groups,
      InSpan(tracer, "mining.group", op,
             [&] { return solver.MineGroupingPatterns(); }));
  FAIRCAP_ASSIGN_OR_RETURN(
      const std::vector<PrescriptionRule> candidates,
      InSpan(tracer, "mining.treatment", op,
             [&] { return solver.MineCandidateRules(groups); }));
  ScopedSpan span(tracer, "core.greedy", op);
  const FairCapOptions& options = solver.options();
  GreedyOptions greedy_options = options.greedy;
  greedy_options.num_threads = options.num_threads;
  const GreedyResult greedy =
      GreedySelect(candidates, solver.protected_mask(), options.fairness,
                   options.coverage, greedy_options);
  std::vector<PrescriptionRule> rules;
  for (const size_t idx : greedy.selected) rules.push_back(candidates[idx]);
  record->grouping_patterns = groups.size();
  record->candidates = candidates.size();
  return rules;
}

struct ColdInputs {
  CausalDag dag;
  Pattern protected_pattern;
  FairCapOptions options;
  std::string csv_path;
};

/// Cold op: CSV on disk to selected ruleset.
void ColdOp(Run* run, const ColdInputs& in, bool traced) {
  run->TimeOp(traced, FileBytes(in.csv_path),
              [&](Tracer* t, size_t op, OpRecord* record)
                  -> Result<std::vector<PrescriptionRule>> {
                FAIRCAP_ASSIGN_OR_RETURN(
                    const DataFrame df, InSpan(t, "ingest.parse", op, [&] {
                      return StreamCsv(in.csv_path, run->schema);
                    }));
                FAIRCAP_ASSIGN_OR_RETURN(
                    const FairCap solver, InSpan(t, "core.create", op, [&] {
                      return FairCap::Create(&df, &in.dag,
                                             in.protected_pattern, in.options);
                    }));
                return Solve(solver, t, op, record);
              });
}

/// Time-bounded closed loop: cold ops back to back until --seconds have
/// passed and at least three ran (two of each kind when tracing, where
/// odd ops are traced).
void ColdLoop(Run* run, const ColdInputs& in) {
  const size_t min_ops = run->args.trace ? 4 : 3;
  const Clock::time_point start = Clock::now();
  for (size_t i = 0; SecondsSince(start) < run->args.seconds || i < min_ops;
       ++i) {
    ColdOp(run, in, run->args.trace && i % 2 == 1);
    // Each cold op stands for a fresh process, so hand freed memory back
    // before the next: otherwise which worker's malloc arena kept what
    // from earlier ops makes peak RSS vary by a quarter from run to run.
    malloc_trim(0);
  }
  run->peak_rss_mb = PeakRssMb();
}

/// Writes a generated table as one of the workload's CSV inputs.
/// Flushed to disk, so write-back does not overlap the timed ops.
void WriteTable(const DataFrame& df, const std::string& path) {
  const Status written = WriteCsv(df, path);
  if (!written.ok()) Die("write " + path, written);
  const int fd = open(path.c_str(), O_RDONLY);
  if (fd < 0 || fsync(fd) != 0) Die("fsync " + path, Status::IOError(path));
  close(fd);
}

FairCapOptions SynthOptions() {
  FairCapOptions options;
  options.fairness = FairnessConstraint::GroupSP(60.0);
  options.num_threads = 1;
  return options;
}

// ---------------------------------------------------------------------------
// Workloads.

void Synth1mCold(Run* run) {
  ColdInputs in;
  in.csv_path = run->args.dir + "/synth1m.csv";
  in.options = SynthOptions();
  for (size_t r = 0; r < kSetupRepeats; ++r) {
    const Clock::time_point start = Clock::now();
    SyntheticConfig config;
    config.num_rows = kSynthRows;
    config.seed = run->args.seed;
    SyntheticData data = OrDie(MakeSynthetic(config), "generate");
    WriteTable(data.df, in.csv_path);
    run->setup_seconds.push_back(SecondsSince(start));
    run->schema = data.df.schema();
    in.dag = std::move(data.dag);
    in.protected_pattern = std::move(data.protected_pattern);
  }
  ColdLoop(run, in);

  // Every op's ruleset is identical to the first op's, and so are the
  // deterministic counts (1 thread).
  const OpRecord& first = run->ops[0];
  if (!first.ran) return;
  run->NegativeSelfTest(first.raw, 0.0);
  for (size_t i = 0; i < run->ops.size(); ++i) {
    run->Expect(i, first.raw, 0.0, "first op's");
    run->ExpectCounts(i, 0);
    if (run->ops[i].traced) run->ExpectDecomposition(i, 0);
  }
  run->digests["ruleset"] = Digest(first.raw);
  run->digests["counts"] = DeterministicCounts(first);
}

void SoPaper(Run* run) {
  ColdInputs in;
  in.csv_path = run->args.dir + "/so_paper.csv";
  // Table-4 options (as bench_table4_so) with group SP at $10k.
  in.options.apriori.min_support_fraction = 0.1;
  in.options.apriori.max_pattern_length = 2;
  in.options.lattice.max_predicates = 2;
  in.options.cate.min_group_size = 30;
  in.options.fairness = FairnessConstraint::GroupSP(10000.0);
  in.options.num_threads = 2;
  for (size_t r = 0; r < kSetupRepeats; ++r) {
    const Clock::time_point start = Clock::now();
    StackOverflowConfig config;
    config.num_rows = kSoRows;
    config.seed = run->args.seed;
    StackOverflowData data = OrDie(MakeStackOverflow(config), "generate");
    WriteTable(data.df, in.csv_path);
    run->setup_seconds.push_back(SecondsSince(start));
    run->schema = data.df.schema();
    in.dag = std::move(data.dag);
    in.protected_pattern = std::move(data.protected_pattern);
  }
  ColdLoop(run, in);

  // Reference after the timed ops: the sequential, unsharded oracle. The
  // timed ops run two row shards, which reassociates floating-point sums
  // (FairCapOptions::num_shards bounds the drift at 1e-9 relative), so
  // utilities match the oracle to that bound while rules and supports
  // match exactly; across ops (same shard count) everything is
  // bit-identical.
  constexpr double kShardTolerance = 1e-9;
  ColdInputs oracle_in = in;
  oracle_in.options.num_threads = 1;
  oracle_in.options.num_shards = 1;
  Run oracle;
  oracle.schema = run->schema;
  ColdOp(&oracle, oracle_in, /*traced=*/false);
  if (!oracle.ops[0].ran) Die("reference run", Status::Internal("failed"));
  const Ruleset& expected = oracle.ops[0].raw;

  const OpRecord& first = run->ops[0];
  if (!first.ran) return;
  run->NegativeSelfTest(expected, kShardTolerance);
  for (size_t i = 0; i < run->ops.size(); ++i) {
    run->Expect(i, expected, kShardTolerance, "1-thread 1-shard reference");
    run->Expect(i, first.raw, 0.0, "first op's");
    if (run->ops[i].traced) run->ExpectDecomposition(i, 0);
  }
  run->digests["ruleset"] = Digest(first.raw);
  run->digests["reference"] = Digest(expected);
}

// The append workload: a resident 1M-row table plus kAppendDeltas delta
// CSVs of 1% each. Each cycle builds a fresh session from the base CSV
// (set-up: StreamCsv, IncrementalSession::Create and the cold Run), then
// appends the deltas one op at a time, so op k of every cycle sees the
// same table. When tracing, odd cycles are traced.
void Synth1mAppend(Run* run) {
  const std::string base_path = run->args.dir + "/append_base.csv";
  std::vector<std::string> delta_paths;
  for (size_t k = 0; k < kAppendDeltas; ++k) {
    delta_paths.push_back(run->args.dir + "/append_delta" +
                          std::to_string(k) + ".csv");
  }
  CausalDag dag;
  Pattern protected_pattern;
  std::vector<double> generate_seconds;
  for (size_t r = 0; r < kSetupRepeats; ++r) {
    const Clock::time_point start = Clock::now();
    SyntheticConfig config;
    config.num_rows = kSynthRows + kAppendDeltas * kAppendDeltaRows;
    config.seed = run->args.seed;
    config.integer_outcome = true;  // exact warm == cold
    SyntheticData data = OrDie(MakeSynthetic(config), "generate");
    auto write_rows = [&](size_t begin, size_t end, const std::string& path) {
      std::vector<uint32_t> rows(end - begin);
      for (size_t i = 0; i < rows.size(); ++i) {
        rows[i] = static_cast<uint32_t>(begin + i);
      }
      WriteTable(data.df.TakeRows(rows), path);
    };
    write_rows(0, kSynthRows, base_path);
    for (size_t k = 0; k < kAppendDeltas; ++k) {
      const size_t begin = kSynthRows + k * kAppendDeltaRows;
      write_rows(begin, begin + kAppendDeltaRows, delta_paths[k]);
    }
    generate_seconds.push_back(SecondsSince(start));
    run->schema = data.df.schema();
    dag = std::move(data.dag);
    protected_pattern = std::move(data.protected_pattern);
  }

  std::vector<double> session_seconds;
  std::vector<Ruleset> session_rulesets;
  const size_t min_cycles = run->args.trace ? 2 : 1;
  const Clock::time_point loop_start = Clock::now();
  for (size_t cycle = 0;
       SecondsSince(loop_start) < run->args.seconds || cycle < min_cycles;
       ++cycle) {
    const Clock::time_point session_start = Clock::now();
    IncrementalSession session = OrDie(
        IncrementalSession::Create(
            OrDie(StreamCsv(base_path, run->schema), "read base CSV"), dag,
            protected_pattern, SynthOptions()),
        "create session");
    const FairCapResult cold = OrDie(session.Run(), "session cold run");
    session_seconds.push_back(SecondsSince(session_start));
    session_rulesets.push_back(Canonical(cold.rules, run->schema));

    const bool traced = run->args.trace && cycle % 2 == 1;
    for (const std::string& delta_path : delta_paths) {
      run->TimeOp(
          traced, FileBytes(delta_path),
          [&](Tracer* t, size_t op, OpRecord* record)
              -> Result<std::vector<PrescriptionRule>> {
            FAIRCAP_ASSIGN_OR_RETURN(
                const DataFrame delta, InSpan(t, "ingest.parse", op, [&] {
                  return DatasetRepository::ParseDelta(session.df().schema(),
                                                       delta_path);
                }));
            FAIRCAP_RETURN_NOT_OK(InSpan(t, "incremental.append", op,
                                         [&] { return session.Append(delta); }));
            const Clock::time_point rerun_start = Clock::now();
            auto rules = InSpan(t, "incremental.rerun", op, [&] {
              return Solve(session.faircap(), t, op, record);
            });
            record->rerun_s = SecondsSince(rerun_start);
            return rules;
          });
    }
  }
  run->peak_rss_mb = PeakRssMb();
  // setup_s: generate + write (median), plus session build and cold Run
  // (median over the cycles).
  run->setup_seconds = {Median(generate_seconds) + Median(session_seconds)};
  std::printf("setup: generate+write %s| session+cold run %s\n",
              Join(generate_seconds).c_str(), Join(session_seconds).c_str());

  // Reference: a cold FairCap over the final table, parsed from the
  // concatenation of the base and every delta CSV.
  const std::string final_path = run->args.dir + "/append_final.csv";
  {
    std::ofstream out(final_path, std::ios::binary);
    std::ifstream base(base_path, std::ios::binary);
    out << base.rdbuf();
    for (const std::string& path : delta_paths) {
      std::ifstream delta(path, std::ios::binary);
      std::string header;
      std::getline(delta, header);
      out << delta.rdbuf();
    }
    if (!out) Die("write final CSV", Status::IOError(final_path));
  }
  ColdInputs final_in{dag, protected_pattern, SynthOptions(), final_path};
  Run oracle;
  oracle.schema = run->schema;
  ColdOp(&oracle, final_in, /*traced=*/false);
  std::remove(final_path.c_str());
  if (!oracle.ops[0].ran) Die("reference run", Status::Internal("failed"));
  const Ruleset& expected_final = oracle.ops[0].raw;

  // Checks: each cycle's cold session ruleset and op k repeat cycle 0's
  // (rulesets and deterministic counts); the last op of every cycle
  // equals the cold reference exactly (integer outcome).
  for (size_t c = 1; c < session_rulesets.size(); ++c) {
    if (!Matches(session_rulesets[c], session_rulesets[0], 0.0)) {
      run->FailRun("cycle " + std::to_string(c) +
                   ": cold session ruleset differs from cycle 0's");
    }
  }
  const size_t last = kAppendDeltas - 1;
  if (!run->ops[last].ran) return;
  run->NegativeSelfTest(expected_final, 0.0);
  for (size_t i = 0; i < run->ops.size(); ++i) {
    const size_t k = i % kAppendDeltas;
    run->Expect(i, k == last ? expected_final : run->ops[k].raw, 0.0,
                k == last ? "cold reference" : "cycle 0's");
    run->ExpectCounts(i, k);
    if (run->ops[i].traced) run->ExpectDecomposition(i, k);
  }
  run->digests["ruleset"] = Digest(run->ops[last].raw);
  run->digests["reference"] = Digest(expected_final);
  run->digests["counts"] = DeterministicCounts(run->ops[last]);
}

// ---------------------------------------------------------------------------
// Reporting.

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

using OpValue = std::function<double(const OpRecord&)>;

/// Median of `value` over the ops that ran, traced or untraced.
double MedianOver(const std::vector<OpRecord>& ops, bool traced,
                  const OpValue& value) {
  std::vector<double> values;
  for (const OpRecord& op : ops) {
    if (op.ran && op.traced == traced) values.push_back(value(op));
  }
  return Median(values);
}

double Wall(const OpRecord& op) { return op.wall; }
double Cpu(const OpRecord& op) { return op.cpu.user + op.cpu.sys; }

std::vector<Metric> EndToEndMetrics(const Run& run) {
  return {
      {"setup_s", Median(run.setup_seconds), "s"},
      {"op_s", MedianOver(run.ops, false, Wall), "s"},
      {"cpu_s", MedianOver(run.ops, false, Cpu), "s"},
      {"peak_rss_mb", run.peak_rss_mb, "MB"},
  };
}

std::vector<Metric> PerLayerMetrics(const Run& run) {
  const std::vector<OpRecord>& ops = run.ops;
  auto self = [](const char* name) -> OpValue {
    return [name](const OpRecord& op) {
      const auto it = op.self.find(name);
      return it == op.self.end() ? 0.0 : it->second;
    };
  };
  auto count = [](const char* name) -> OpValue {
    return [name](const OpRecord& op) { return op.counters.at(name); };
  };
  // num / (sum of dens)
  auto share = [](const char* num, std::vector<const char*> dens) -> OpValue {
    return [num, dens](const OpRecord& op) {
      double total = 0.0;
      for (const char* den : dens) total += op.counters.at(den);
      return Ratio(op.counters.at(num), total);
    };
  };
  auto traced = [&](const OpValue& value) {
    return MedianOver(ops, true, value);
  };
  auto untraced = [&](const OpValue& value) {
    return MedianOver(ops, false, value);
  };

  // Tail: the highest sample with at least ten samples above it (the
  // smallest sample when there are fewer than eleven).
  std::vector<double> walls;
  for (const OpRecord& op : ops) {
    if (op.ran && !op.traced) walls.push_back(op.wall);
  }
  std::sort(walls.begin(), walls.end());
  const size_t n = walls.size();
  const size_t tail_index = n > 10 ? n - 11 : 0;

  return {
      {"op_s.tail", n > 0 ? walls[tail_index] : 0.0, "s"},
      {"op_s.tail_pct",
       n > 1 ? 100.0 * static_cast<double>(tail_index) /
                   static_cast<double>(n - 1)
             : 0.0,
       "%"},
      {"op_s.samples", static_cast<double>(n), "count"},
      {"trace_overhead", Ratio(traced(Wall), untraced(Wall)), "ratio"},
      {"bench.self_s", traced(self("op")), "s"},
      {"ingest.parse_s", traced(self("ingest.parse")), "s"},
      {"ingest.mb_per_s", traced([&](const OpRecord& op) {
         return Ratio(static_cast<double>(op.input_bytes) / 1e6,
                      self("ingest.parse")(op));
       }),
       "MB/s"},
      {"core.create_s", traced(self("core.create")), "s"},
      {"mining.group_s", traced(self("mining.group")), "s"},
      {"mining.grouping_patterns", untraced([](const OpRecord& op) {
         return static_cast<double>(op.grouping_patterns);
       }),
       "count"},
      {"mining.treatment_s", traced(self("mining.treatment")), "s"},
      {"mining.treatment_evals", untraced(count("mining.lattice_evaluations")),
       "count"},
      {"mining.us_per_eval", traced([&](const OpRecord& op) {
         return 1e6 * Ratio(self("mining.treatment")(op),
                            op.counters.at("mining.lattice_evaluations"));
       }),
       "us"},
      {"mining.candidates", untraced([](const OpRecord& op) {
         return static_cast<double>(op.candidates);
       }),
       "count"},
      {"causal.rows_per_eval",
       untraced(share("simd.cate_accumulate_rows", {"estimation.batch_evals"})),
       "rows"},
      {"causal.sparse_path_share",
       untraced(share("estimation.accumulate_path_sparse",
                      {"estimation.accumulate_path_sparse",
                       "estimation.accumulate_path_fp_staged",
                       "estimation.accumulate_path_int"})),
       "ratio"},
      {"causal.regression_solves", untraced(count("estimation.solve_regression")),
       "count"},
      {"causal.engine_hit_ratio",
       untraced(share("engine_cache.hits",
                      {"engine_cache.hits", "engine_cache.misses"})),
       "ratio"},
      {"causal.engine_bytes", untraced(count("engine_cache.bytes")), "B"},
      {"dataframe.index_hit_ratio",
       untraced(share("index_cache.hits",
                      {"index_cache.hits", "index_cache.misses"})),
       "ratio"},
      {"dataframe.index_bytes", untraced([](const OpRecord& op) {
         return op.counters.at("index_cache.atom_bytes") +
                op.counters.at("index_cache.conjunction_bytes") +
                op.counters.at("index_cache.numeric_order_bytes");
       }),
       "B"},
      {"core.greedy_s", traced(self("core.greedy")), "s"},
      {"core.greedy_candidates", untraced([](const OpRecord& op) {
         return static_cast<double>(op.candidates);
       }),
       "count"},
      {"incremental.append_call_s", traced(self("incremental.append")), "s"},
      // Inclusive: the warm re-mine's Steps 1/2/3 are its children.
      {"incremental.rerun_s",
       traced([](const OpRecord& op) { return op.rerun_s; }), "s"},
      {"incremental.eval_reuse_ratio", untraced([](const OpRecord& op) {
         const double reused = op.counters.at("append.evals_delta") +
                               op.counters.at("append.evals_cached");
         return Ratio(reused, reused + op.counters.at("append.evals_full"));
       }),
       "ratio"},
      {"incremental.pattern_reuse_ratio",
       untraced(share("append.patterns_reused",
                      {"append.patterns_reused", "append.patterns_rechecked"})),
       "ratio"},
      {"incremental.full_remines", untraced(count("append.full_remines")),
       "count"},
      {"scheduler.tasks", untraced(count("scheduler.executed")), "count"},
      {"scheduler.steal_ratio",
       untraced(share("scheduler.stolen", {"scheduler.executed"})), "ratio"},
      {"scheduler.cores_busy",
       untraced([](const OpRecord& op) { return Ratio(Cpu(op), op.wall); }),
       "ratio"},
      {"scheduler.sys_share",
       untraced([](const OpRecord& op) { return Ratio(op.cpu.sys, Cpu(op)); }),
       "ratio"},
  };
}

int Main(const Args& args) {
  Run run;
  run.args = args;
  if (args.workload == "synth1m_cold") {
    Synth1mCold(&run);
  } else if (args.workload == "so_paper") {
    SoPaper(&run);
  } else if (args.workload == "synth1m_append") {
    Synth1mAppend(&run);
  } else {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 args.workload.c_str());
    return 2;
  }
  if (args.trace) {
    const std::string path = args.dir + "/spans_" + args.workload + ".json";
    if (!run.tracer.Write(path)) Die("write spans", Status::IOError(path));
    std::printf("spans: %s\n", path.c_str());
  }

  const size_t attempted = run.ops.size();
  const size_t failed = run.failed_ops();
  for (const std::string& failure : run.failures) {
    std::printf("check failed: %s\n", failure.c_str());
  }
  for (const auto& [what, digest] : run.digests) {
    std::printf("%s: %s\n", what.c_str(), digest.c_str());
  }
  std::printf("workload %s seed %" PRIu64 ": failed_frac %.6g (%zu of %zu ops)\n",
              args.workload.c_str(), args.seed,
              Ratio(static_cast<double>(failed), static_cast<double>(attempted)),
              failed, attempted);

  std::vector<double> walls;
  for (const OpRecord& op : run.ops) walls.push_back(op.wall);
  std::printf("op walls (s): %s\nsetup repeats (s): %s\n", Join(walls).c_str(),
              Join(run.setup_seconds).c_str());

  const std::vector<Metric> metrics =
      args.trace ? PerLayerMetrics(run) : EndToEndMetrics(run);
  std::string json = "{\"correct\": ";
  json += failed == 0 && run.run_checks_ok ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    std::printf("%-32s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
    char entry[192];
    std::snprintf(entry, sizeof(entry),
                  "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", m.name.c_str(), m.value, m.unit.c_str());
    json += entry;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const bool has_value = i + 1 < argc;
    if (flag == "--workload" && has_value) {
      args.workload = argv[++i];
    } else if (flag == "--seed" && has_value) {
      args.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (flag == "--seconds" && has_value) {
      args.seconds = std::atof(argv[++i]);
    } else if (flag == "--trace" && has_value) {
      args.trace = std::atoi(argv[++i]) != 0;
    } else if (flag == "--dir" && has_value) {
      args.dir = argv[++i];
    } else if (flag == "--perturb") {
      args.perturb = true;
    } else {
      std::fprintf(stderr, "perfbench: bad argument '%s'\n", flag.c_str());
      return 2;
    }
  }
  if (args.workload.empty() || args.dir.empty()) {
    std::fprintf(stderr,
                 "usage: faircap_perfbench --workload NAME --seed N "
                 "--seconds S --trace 0|1 --dir DIR [--perturb]\n");
    return 2;
  }
  return Main(args);
}
