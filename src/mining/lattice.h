// Intervention-pattern lattice traversal (Section 5.2). The space of all
// intervention patterns forms a lattice ordered by predicate inclusion; we
// traverse it top-down, materializing a node only when every parent
// (pattern with one fewer predicate) had a positive CATE. The evaluation
// itself — CATE estimation and fairness-aware benefit scoring — is supplied
// by the caller, which keeps this module independent of the causal layer.

#ifndef FAIRCAP_MINING_LATTICE_H_
#define FAIRCAP_MINING_LATTICE_H_

#include <functional>
#include <optional>
#include <vector>

#include "mining/pattern.h"
#include "util/result.h"

namespace faircap {

/// Result of evaluating one candidate treatment.
struct TreatmentEval {
  double cate = 0.0;    ///< estimated conditional average treatment effect
  double score = 0.0;   ///< selection score (benefit); higher is better
  bool feasible = true; ///< satisfies per-rule constraints (e.g. individual fairness)
  double std_error = 0.0;  ///< standard error of `cate`
  /// Subgroup effects behind `score` when the evaluator estimated them
  /// (fairness-aware evaluation batches the protected / non-protected
  /// CATEs with the overall one); 0 otherwise. Winning treatments carry
  /// these into rule costing so the emitted rule needs no re-estimation.
  double utility_protected = 0.0;
  double utility_nonprotected = 0.0;
  /// False when a subgroup effect was needed but could not be estimated
  /// (no overlap); such treatments cannot have their fairness certified.
  bool subgroups_estimable = true;
  /// True when utility_protected / utility_nonprotected were actually
  /// estimated (fairness-aware evaluation), not defaulted.
  bool has_subgroup_utilities = false;
};

/// Evaluates a batch of intervention patterns for a fixed grouping
/// pattern — one lattice level at a time, so the evaluator can share work
/// across the level (one accumulation walk per confounder partition).
/// Returns one entry per pattern, in order; an entry is nullopt when that
/// effect cannot be estimated (no overlap, group too small). `cate`
/// drives lattice pruning; `score` drives selection.
using TreatmentEvaluator =
    std::function<std::vector<std::optional<TreatmentEval>>(
        const std::vector<Pattern>&)>;

/// Tuning knobs for the traversal.
struct LatticeOptions {
  /// Maximum number of predicates in an intervention pattern.
  size_t max_predicates = 2;
  /// Safety cap on patterns evaluated per traversal. A level that would
  /// cross it is truncated in candidate order, so the cap lands on the
  /// same pattern as a one-at-a-time traversal.
  size_t max_evaluations = 50000;
  /// The Section 5.2 pruning rule: materialize a node only when every
  /// parent had positive CATE. Disable for the ablation study (children
  /// of any evaluated parent are then expanded).
  bool require_positive_parents = true;
};

/// Outcome of a traversal.
struct LatticeResult {
  /// Feasible positive-CATE pattern with the highest score, if any.
  std::optional<Pattern> best;
  TreatmentEval best_eval;
  size_t num_evaluated = 0;
  /// All positive-CATE patterns seen (for diagnostics/tests).
  std::vector<std::pair<Pattern, TreatmentEval>> positive;
};

/// Candidate atoms for intervention patterns: one (attr = category)
/// predicate per category of each mutable categorical attribute.
/// Numeric mutable attributes are skipped (discretize first).
std::vector<Predicate> EnumerateInterventionAtoms(
    const DataFrame& df, const std::vector<size_t>& mutable_attrs);

/// Traverses the lattice and returns the best feasible treatment. Each
/// level's candidates are built in full, truncated to the remaining
/// max_evaluations budget, evaluated as one batch, and consumed in
/// candidate order — so `best` (first of equal scores wins), `positive`
/// and `num_evaluated` are those of a one-pattern-at-a-time traversal.
LatticeResult TraverseInterventionLattice(
    const DataFrame& df, const std::vector<size_t>& mutable_attrs,
    const TreatmentEvaluator& evaluator, const LatticeOptions& options = {});

}  // namespace faircap

#endif  // FAIRCAP_MINING_LATTICE_H_
