// FairCap: the end-to-end three-step algorithm (Section 5).
//   Step 1 — mine grouping patterns with Apriori over immutable attributes;
//   Step 2 — per grouping pattern, lattice-traverse intervention patterns,
//            scoring treatments by the fairness-aware benefit;
//   Step 3 — greedily select a ruleset under fairness and coverage
//            constraints.
// All 18 problem variants (3 coverage x 6 fairness choices) are expressed
// through FairCapOptions.

#ifndef FAIRCAP_CORE_FAIRCAP_H_
#define FAIRCAP_CORE_FAIRCAP_H_

#include <memory>
#include <vector>

#include "causal/dag.h"
#include "causal/estimator.h"
#include "core/coverage.h"
#include "core/fairness.h"
#include "core/cost.h"
#include "core/greedy.h"
#include "core/rule.h"
#include "core/ruleset.h"
#include "dataframe/dataframe.h"
#include "mining/apriori.h"
#include "mining/lattice.h"
#include "util/result.h"

namespace faircap {

class IncrementalState;  // core/incremental.h

/// All tuning knobs of the pipeline.
struct FairCapOptions {
  AprioriOptions apriori;
  LatticeOptions lattice;
  CateOptions cate;
  GreedyOptions greedy;
  FairnessConstraint fairness;
  CoverageConstraint coverage;
  /// Worker threads for Step-2 mining (0 = hardware concurrency,
  /// 1 = sequential). All parallelism of a run — grouping patterns AND
  /// the per-evaluation shard fan-out — shares this one work-stealing
  /// scheduler (util/task_scheduler.h): pattern tasks submit their
  /// treatment evaluations' sharded sufficient-statistics passes as
  /// child tasks on the same workers, so both axes saturate the pool no
  /// matter how the work is skewed. The calling thread is not one of
  /// them, but it runs pending tasks while it waits on the fan-out, so up
  /// to num_threads + 1 cores are busy: perfbench's so_paper at 2 threads
  /// reports scheduler.cores_busy of ~2.3-2.7.
  size_t num_threads = 0;
  /// Row-universe shards for Step-2 treatment mining (1 = unsharded
  /// oracle; 0 = match the resolved thread count). With more than one
  /// shard each treatment evaluation's sufficient-statistics pass fans
  /// out across word-aligned row shards as child tasks of its pattern
  /// task — one hot grouping pattern saturates every core instead of
  /// serializing on one, while many small patterns still spread across
  /// workers through the pattern axis (the old either/or restriction —
  /// sequential patterns when sharded, and the implicit
  /// "only shard when groups < threads" heuristic — is gone: the
  /// work-stealing scheduler runs both axes at once). Shard partials
  /// merge in ascending shard order (deterministic for a fixed shard
  /// count regardless of thread count); all integer statistics match the
  /// unsharded path exactly. The unsharded path (num_shards=1) is the
  /// pinning oracle. Caveat of the 0 default: the resolved shard count
  /// follows the machine's core count, and
  /// different shard counts reassociate floating-point sums (<=1e-9
  /// relative on continuous outcomes) — runs that must be
  /// bit-reproducible across machines should pin an explicit shard
  /// count (or 1).
  size_t num_shards = 0;
  /// Byte cap for the estimator's per-treatment engine cache
  /// (CateEstimator::SetEngineMemoryBudget). 0 = unlimited.
  size_t engine_memory_budget = 0;
  /// Drop mutable attributes with no directed path to the outcome in the
  /// DAG (optimization (i) of Section 5.2).
  bool prune_non_causal_attrs = true;
  /// Overlap floor for the protected / non-protected subgroup CATEs
  /// (smaller than the full-group floor because subgroups are smaller;
  /// estimates stay unbiased, just noisier).
  size_t min_subgroup_arm = 5;
  /// Keep, per grouping pattern, every feasible positive treatment as a
  /// candidate rather than only the best one. More candidates give greedy
  /// more room; the paper keeps the best treatment per group.
  bool keep_all_treatments = false;
  /// Optional intervention cost model (Section 8 extension). When set and
  /// greedy.budget > 0, selection maximizes marginal score per unit cost
  /// and the total ruleset cost never exceeds the budget.
  std::shared_ptr<const InterventionCostModel> cost_model;
  /// Cross-run reuse state for delta-aware re-mining (core/incremental.h).
  /// When set, Step-2 caches sufficient
  /// statistics per (grouping, intervention) across runs — after an
  /// append, only the delta rows are accumulated — and re-emits whole
  /// groups whose support the delta left untouched. A cold-cache run is
  /// bit-identical to one without the state; after appends, integer
  /// outcomes stay exact and FP matches to shard-merge precision.
  /// Typically owned by an IncrementalSession.
  std::shared_ptr<IncrementalState> incremental_state;
};

/// Execution counters of the Step-2 task scheduler (observability: the
/// CLI logs these after a run so skew and idle workers are visible, and
/// the same numbers land in the metrics registry — util/obs/metrics.h —
/// for the machine-readable run report).
struct SchedulerStats {
  bool collected = false;        ///< false = the run never filled this in
  bool inline_execution = false; ///< true = single-threaded, no scheduler
  size_t workers = 0;    ///< scheduler worker threads (0 when inline)
  size_t tasks = 0;      ///< tasks executed (pattern + shard + warm-up);
                         ///< on the inline path, the grouping patterns run
  size_t stolen = 0;     ///< tasks a worker took from another's deque
  size_t helped = 0;     ///< tasks run inline by a waiting thread
};

/// Wall-clock seconds per pipeline step (Figure 3).
struct StepTimings {
  double group_mining_seconds = 0.0;
  double treatment_mining_seconds = 0.0;
  double selection_seconds = 0.0;
  double total() const {
    return group_mining_seconds + treatment_mining_seconds +
           selection_seconds;
  }
};

/// Output of a full pipeline run.
struct FairCapResult {
  std::vector<PrescriptionRule> rules;  ///< the selected ruleset
  RulesetStats stats;
  StepTimings timings;
  bool constraints_satisfied = false;
  /// Total intervention cost (0 unless a cost model and budget were set).
  double total_cost = 0.0;
  size_t num_grouping_patterns = 0;
  size_t num_candidate_rules = 0;
  size_t num_treatment_evaluations = 0;
  SchedulerStats scheduler;
};

/// The FairCap solver. Holds borrowed references to the data and DAG; both
/// must outlive the solver.
class FairCap {
 public:
  /// Validates inputs and prepares the estimator. `protected_pattern`
  /// defines P_p over immutable attributes (it may reference any
  /// attribute, but must not reference the outcome).
  static Result<FairCap> Create(const DataFrame* df, const CausalDag* dag,
                                Pattern protected_pattern,
                                FairCapOptions options = {});

  /// Runs all three steps and returns the selected ruleset with metrics.
  Result<FairCapResult> Run() const;

  /// Step 1 only: grouping patterns over immutable attributes.
  Result<std::vector<FrequentPattern>> MineGroupingPatterns() const;

  /// Step 2 only: candidate prescription rules for the given grouping
  /// patterns. Runs the pattern x shard task graph on one work-stealing
  /// scheduler: pattern tasks fan out across workers, and each treatment
  /// evaluation's sharded sufficient-statistics pass nests as child
  /// tasks of its pattern task. Also usable with externally supplied
  /// grouping patterns (baseline adapters, Section 7.1).
  /// `scheduler_stats`, when non-null, receives the run's execution
  /// counters.
  Result<std::vector<PrescriptionRule>> MineCandidateRules(
      const std::vector<FrequentPattern>& groups,
      size_t* num_evaluations = nullptr,
      SchedulerStats* scheduler_stats = nullptr) const;

  /// Builds a fully-costed PrescriptionRule from explicit patterns: CATE
  /// estimates for overall / protected / non-protected plus coverage.
  /// Utilities default to 0 where the paper defines them so (empty
  /// coverage) or where estimation is impossible (no overlap). When
  /// `eval` is a lattice evaluation of this (grouping, intervention) pair
  /// carrying the subgroup utilities (fairness-aware mining estimated
  /// them against the grouping's coverage — the exact bitmap the rule
  /// covers), the rule is costed without re-estimating anything.
  PrescriptionRule CostRule(const Pattern& grouping,
                            const Pattern& intervention,
                            const TreatmentEval* eval = nullptr) const;

  /// Brings cached state current after rows were appended to the table
  /// (DataFrame::AppendFrame): re-evaluates the protected mask over the
  /// grown table, refreshes the estimator's partitions/engines
  /// (CateEstimator::NotifyAppend) and revalidates the incremental
  /// caches when options carry an IncrementalState. Must not run
  /// concurrently with Run/Mine calls — call it right after the append.
  CateEstimator::AppendRefreshStats NotifyAppend();

  const Bitmap& protected_mask() const { return protected_mask_; }
  const CateEstimator& estimator() const { return estimator_; }
  const FairCapOptions& options() const { return options_; }

  /// Mutable attributes that survive DAG pruning (optimization (i)).
  const std::vector<size_t>& mutable_attrs() const { return mutable_attrs_; }

 private:
  FairCap(const DataFrame* df, const CausalDag* dag, Pattern protected_pattern,
          Bitmap protected_mask, CateEstimator estimator,
          std::vector<size_t> mutable_attrs, FairCapOptions options);

  const DataFrame* df_;
  const CausalDag* dag_;
  Pattern protected_pattern_;
  Bitmap protected_mask_;
  CateEstimator estimator_;
  std::vector<size_t> mutable_attrs_;
  FairCapOptions options_;
};

}  // namespace faircap

#endif  // FAIRCAP_CORE_FAIRCAP_H_
