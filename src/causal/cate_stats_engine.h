// CateStatsEngine: per-treatment sufficient-statistics engine behind the
// CATE API. Step-2 mining scores every candidate treatment three times —
// overall, protected, and non-protected CATE — and a per-call estimator
// (the test-only oracle in tests/oracle/) redoes the full design-matrix /
// stratum pass over the table each time. But for all three estimation
// methods the estimate for ANY subgroup is a function of
// per-joint-confounder-stratum, per-arm sufficient statistics:
//
//   * stratified:  per-(stratum, arm) {n, Σy, Σy²} reproduce the exact
//     matching estimator bit for bit;
//   * regression:  within a stratum the one-hot confounder block of the
//     design row is constant, so X'X / X'y / y'y assemble from the same
//     cell stats (plus small per-cell numeric-confounder moments);
//   * IPW:         the propensity design is also cell-constant when the
//     confounders are categorical, so the logistic fit runs on grouped
//     per-cell counts and the Hajek sums come from the cell stats.
//
// The engine therefore partitions the table ONCE per adjustment set into
// joint-confounder cells (ConfounderPartition, shared across treatments
// with the same treatment attributes) and holds the treated mask via
// shared ownership from the PredicateIndex. Any subgroup bitmap — rule
// coverage, protected, non-protected — is answered by slicing: one
// word-at-a-time pass ANDs the group mask against the partition,
// accumulates the cell stats, and solves the small per-subgroup systems
// instead of rebuilding design matrices. The pass runs once per (group,
// partition), not once per treatment: every treatment whose engine shares
// the partition rides the same walk (AccumulateBatch), which reads each
// group word, cell id and outcome once and feeds each treatment's sinks
// with that treatment's arm bit. The overall / protected / non-protected
// triple comes from the same walk by splitting the accumulation on the
// protected bit, so the non-protected bitmap is never materialized.
//
// Two shortcuts skip per-row work when the caller names the patterns
// behind the bitmaps. A pattern whose every predicate is an equality on a
// categorical confounder of the partition is *cell-aligned*: each cell
// fixes every confounder's code, so it lies wholly inside or wholly
// outside the pattern, and the pattern selects exactly its member cells'
// rows (ConfounderPartition::CellsMatching).
//
//   * Protected split from cells. With an aligned protected pattern the
//     walk runs unsplit, and each cell's overall slots are then copied
//     into the protected or the non-protected accum.
//   * Groups from cells. With an aligned group pattern no row is walked:
//     each engine keeps table-level accums (one unsplit pass over every
//     row, one partial per shard of the plan, built on first use), and the
//     group's accums are those slots restricted to its cells.
//
// Both are exact, not approximations. Every derived slot holds the same
// rows, added in the same ascending row order, in the same shards, as the
// walk it replaces; the per-shard partials then merge through the same
// MergeAccum. So derived accums equal walked ones byte for byte (the
// kernels' write-only scratch slots aside), int_valid included, at every
// SIMD tier, shard count and thread count. The one place they could part
// is the int64 guard, which counts rows walked: a table partial that
// tripped it says nothing about a smaller group's walk, so such a batch
// walks instead.

#ifndef FAIRCAP_CAUSAL_CATE_STATS_ENGINE_H_
#define FAIRCAP_CAUSAL_CATE_STATS_ENGINE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "causal/estimator.h"
#include "dataframe/dataframe.h"
#include "mining/pattern.h"
#include "util/result.h"
#include "util/sync.h"
#include "util/thread_annotations.h"

namespace faircap {

class ShardPlan;    // mining/shard_plan.h
class TaskGroup;    // util/task_scheduler.h

/// Quantile bin edges for a numeric confounder (the stratified method's
/// binning). Shared by the partition build and the test oracle's
/// per-row stratum ids (tests/oracle/) so the two can never drift.
std::vector<double> QuantileBinEdges(const Column& col, size_t bins);

/// Hajek (self-normalized) IPW from materialized per-row propensity
/// design rows: fits the logistic propensity model, clips, and assembles
/// the weighted means and their linearized variance. The single shared
/// implementation behind the engine's numeric-confounder fallback and
/// the test oracle's per-call IPW estimator (tests/oracle/) — the two
/// must stay bit-for-bit identical for the pinning tests to mean
/// anything.
Result<CateEstimate> HajekIpwFromRows(const std::vector<double>& design,
                                      size_t n, size_t p,
                                      const std::vector<double>& labels,
                                      const std::vector<double>& outcomes,
                                      const std::vector<uint8_t>& is_treated_row,
                                      double propensity_clip);

/// Immutable partition of a table's rows into joint-confounder cells for
/// one adjustment set: rows agreeing on every categorical confounder code,
/// every numeric confounder quantile bin, and every confounder null flag
/// share a cell. Depends only on (table, outcome, adjustment set, binning
/// options) — NOT on the treatment — so all treatments over the same
/// attributes share one partition via shared_ptr. The one mutable member,
/// MemoCellsMatching's memo, is mutex-guarded.
class ConfounderPartition {
 public:
  /// One regression design feature (mirrors the oracle's enumeration:
  /// categorical levels 1..k-1 one-hot, numeric attrs one column each).
  struct Feature {
    size_t attr;
    bool categorical;
    int32_t code;
  };

  struct Cell {
    /// The oracle stratified estimator's joint stratum id; -1 when any
    /// confounder is null in this cell (such rows are excluded from
    /// stratification but kept, zero-featured, by regression and IPW).
    int64_t stratum_id = -1;
  };

  /// Fails with InvalidArgument, naming the adjustment set, when the
  /// joint cell key — a mixed radix over the per-confounder bases — would
  /// overflow int64: distinct cells would otherwise silently merge.
  static Result<std::shared_ptr<const ConfounderPartition>> Build(
      const DataFrame& df, size_t outcome_attr,
      const std::vector<size_t>& adjustment, const CateOptions& options);

  /// Extends this partition in place after an append (quiescent append
  /// path): interns rows [rows_covered(), df.num_rows()) into the same
  /// cell table — new cells appended in first-appearance order, the
  /// order a cold build over the concatenated table would discover them —
  /// grows the outcome caches and re-derives the integer-outcome status /
  /// overflow budget from the combined value range, producing exactly the
  /// partition Build would return over the concatenated table. Returns
  /// false, leaving the partition untouched, when it must be rebuilt
  /// cold instead: any numeric confounder (its quantile edges shift with
  /// the new rows) or a categorical confounder that gained categories
  /// (the radix bases and one-hot feature layout change). Every holder of
  /// the partition observes the extension, so the caller must guarantee
  /// no estimation queries are in flight (the IncrementalSession::Append
  /// contract); in exchange a 1% append costs delta work, with no O(N)
  /// copy of the per-row arrays.
  bool ExtendInPlace(const DataFrame& df);

  const std::vector<Feature>& features() const { return features_; }
  /// For numeric feature j (j-th numeric confounder): its index into
  /// features().
  const std::vector<uint32_t>& numeric_features() const {
    return numeric_features_;
  }
  size_t num_numeric() const { return numeric_features_.size(); }
  /// Cell index per row; -1 where the outcome is null (row excluded from
  /// every estimator).
  const std::vector<int32_t>& cell_of_row() const { return cell_of_row_; }
  const std::vector<Cell>& cells() const { return cells_; }
  /// Cell `c`'s one-hot design features (1 for every row of the cell):
  /// onehot_width() slots, one per categorical confounder in adjustment
  /// order, holding its level's feature or — reference level, null —
  /// features().size().
  const uint32_t* onehot(size_t c) const {
    return cell_onehot_.data() + c * onehot_width_;
  }
  size_t onehot_width() const { return onehot_width_; }
  /// Cells with stratum_id >= 0, ascending by stratum_id — the iteration
  /// order of the oracle's stratified combine (a std::map over ids).
  const std::vector<uint32_t>& cells_by_stratum() const {
    return cells_by_stratum_;
  }
  /// Outcome value per row (unspecified where null).
  const std::vector<double>& outcome() const { return outcome_; }
  /// True iff every outcome value is integer-valued with |y| <= 2^31 - 1
  /// — the precondition of the engine's exact int64 accumulation path.
  bool outcome_is_integer() const { return outcome_integer_; }
  /// Integer outcome cache (nulls as 0); empty unless outcome_is_integer.
  const std::vector<int64_t>& outcome_i64() const { return outcome_i64_; }
  /// Overflow guard for the integer path: the largest row count for which
  /// every per-slot partial |Σy| and Σy² stays below 2^53 given this
  /// column's max |y| — below it the int64 totals, their double
  /// conversions, AND the oracle's ascending-row FP sums are all exact, so
  /// the two paths are bit-identical. 0 unless outcome_is_integer.
  uint64_t safe_int_rows() const { return safe_int_rows_; }
  /// Cached numeric confounder column per numeric feature, with nulls as
  /// 0.0 — exactly the value the oracle's design-matrix build would use.
  const std::vector<std::vector<double>>& numeric_values() const {
    return numeric_values_;
  }
  /// numeric_values() as a raw pointer span, precomputed at build so the
  /// per-shard accumulation passes need no per-call heap allocation.
  const double* const* numeric_value_ptrs() const {
    return numeric_value_ptrs_.data();
  }

  /// Per-cell membership of `pattern` over `df` (this partition's table):
  /// entry c is 1 when every row of cell c matches and 0 when none does.
  /// Defined only for cell-aligned patterns — every predicate an equality
  /// on a categorical confounder of this partition (the empty pattern
  /// included) — and null otherwise; Ne, ordered and numeric predicates
  /// never align. The non-aligned answer costs O(|pattern| x |adjustment|),
  /// an aligned one O(cells).
  std::shared_ptr<const std::vector<uint8_t>> CellsMatching(
      const DataFrame& df, const Pattern& pattern) const;

  /// CellsMatching memoized for one pattern at a time: the protected
  /// pattern is asked on every walk but resolved once per partition.
  /// ExtendInPlace extends the memo over the cells it adds.
  std::shared_ptr<const std::vector<uint8_t>> MemoCellsMatching(
      const DataFrame& df, const Pattern& pattern) const;

  /// Heap bytes held (row arrays + cell table), for cache budgeting.
  size_t bytes() const { return bytes_; }

  /// Rows of the source table this partition covers (its num_rows at
  /// Build/ExtendInPlace time). After an append the table outgrows this and
  /// the partition is stale until extended or rebuilt.
  size_t rows_covered() const { return rows_covered_; }

  /// Identity of this partition's cell numbering: fresh per Build, kept
  /// by ExtendInPlace. Two partitions with the same lineage assign identical
  /// cell ids to their common row prefix, so sufficient statistics
  /// accumulated against the older one merge soundly with deltas
  /// accumulated against the newer (core/incremental.h relies on this; a
  /// cold rebuild gets a new lineage and invalidates such caches).
  uint64_t lineage_id() const { return lineage_id_; }

 private:
  ConfounderPartition() = default;

  /// Per-confounder layout persisted from Build: design feature span,
  /// the radix base of the cell key, and (numeric) the quantile edges —
  /// everything InternRows needs to intern further rows with the exact
  /// keys Build used. Digits are the category code or quantile bin;
  /// a null confounder takes digit base - 1, which no value uses.
  struct ConfLayout {
    size_t attr = 0;
    bool categorical = false;
    int64_t base = 0;
    /// Product of the bases of the confounders after this one: the
    /// digit of a cell key is (key / stride) % base.
    int64_t stride = 1;
    uint32_t feature_base = 0;
    /// Category count at build (0 for numeric): extension is only sound
    /// while the column still has exactly this many categories.
    size_t num_categories = 0;
    std::vector<double> edges;  ///< numeric confounders only
  };

  /// Shared tail of Build and ExtendInPlace: interns rows [row_begin, n)
  /// into the cell table and outcome caches, then re-derives the sorted
  /// stratum order, integer-outcome budget, and byte accounting. Each
  /// row's key is the int64 mixed radix of its confounder digits, built
  /// column-at-a-time over row blocks. The feature layout (confs_),
  /// numeric caches, and rows [0, row_begin) must already be in place.
  void InternRows(const DataFrame& df, size_t row_begin);

  /// One predicate of a cell-aligned pattern: confounder `conf` must take
  /// `digit` (-1: a category absent from the dictionary, matching no row).
  struct CellTerm {
    size_t conf;
    int64_t digit;
  };
  /// Resolves `pattern` into cell terms; false when it is not aligned.
  bool ResolveCellTerms(const DataFrame& df, const Pattern& pattern,
                        std::vector<CellTerm>* terms) const;
  /// Sets (*member)[c] for cells [begin, member->size()).
  void MarkCells(const std::vector<CellTerm>& terms, size_t begin,
                 std::vector<uint8_t>* member) const;

  /// MemoCellsMatching's single entry.
  struct CellMemo {
    Pattern pattern;
    bool aligned = false;
    std::vector<CellTerm> terms;
    std::shared_ptr<const std::vector<uint8_t>> cells;
  };

  /// Cell key -> cell index map: open addressing with linear probing over
  /// power-of-two tables, keys >= 0 (-1 marks an empty slot). Lookup and
  /// insert only — never iterated, so its layout cannot leak into results.
  class CellIndex {
   public:
    /// The cell of `key`; when absent, inserts `next` and returns it.
    int32_t FindOrInsert(int64_t key, int32_t next);
    size_t bytes() const {
      return keys_.size() * (sizeof(int64_t) + sizeof(int32_t));
    }

   private:
    void Grow();
    std::vector<int64_t> keys_;
    std::vector<int32_t> cells_;
    size_t size_ = 0;
  };

  std::vector<Feature> features_;
  std::vector<uint32_t> numeric_features_;
  std::vector<int32_t> cell_of_row_;
  std::vector<Cell> cells_;
  size_t onehot_width_ = 0;
  std::vector<uint32_t> cell_onehot_;  ///< cells x onehot_width_
  std::vector<int64_t> cell_keys_;  ///< each cell's joint key
  std::vector<uint32_t> cells_by_stratum_;
  std::vector<double> outcome_;
  bool outcome_integer_ = false;
  std::vector<int64_t> outcome_i64_;
  uint64_t safe_int_rows_ = 0;
  std::vector<std::vector<double>> numeric_values_;
  std::vector<const double*> numeric_value_ptrs_;
  size_t bytes_ = 0;

  // Build-time inputs and intern state persisted so ExtendInPlace can
  // resume the interning where Build stopped (same radix bases, same map)
  // and verify extendability against the post-append table.
  size_t outcome_attr_ = 0;
  std::vector<ConfLayout> confs_;
  CellIndex cell_ids_;
  /// Largest |y| seen (integer outcomes only) — re-derives safe_int_rows_
  /// when delta rows widen the range.
  int64_t max_abs_y_ = 0;
  size_t rows_covered_ = 0;
  uint64_t lineage_id_ = 0;

  mutable Mutex memo_mu_;
  mutable std::unique_ptr<CellMemo> memo_ GUARDED_BY(memo_mu_);
};

/// The per-treatment engine: treated mask + confounder partition +
/// options. Immutable after construction apart from the mutex-guarded
/// table-accum cache, so concurrent subgroup queries need no other
/// locking; the estimator caches engines per treatment with the same
/// shared-ownership/LRU discipline the PredicateIndex uses for
/// conjunction masks.
class CateStatsEngine {
 public:
  /// `df` must outlive the engine. `treated` and `partition` are shared
  /// (the mask typically lives in the table's PredicateIndex; the
  /// partition in the estimator's per-adjustment cache).
  CateStatsEngine(const DataFrame* df, CateOptions options,
                  std::vector<size_t> adjustment,
                  std::shared_ptr<const Bitmap> treated,
                  std::shared_ptr<const ConfounderPartition> partition);

  /// Per-subgroup sufficient statistics, indexed cell-major with two arms
  /// (idx = 2*cell + arm; arm 1 = treated). Numeric moment blocks are
  /// allocated only for the regression method with numeric confounders.
  /// The stat arrays carry two scratch slots past 2C that the integer
  /// kernels' branchless dense loop steers excluded rows into; solvers
  /// and merges never read them. Public so the incremental-mining layer
  /// can cache accumulated stats across appends and merge deltas in
  /// (core/incremental.h); treat as opaque outside this class.
  struct Accum {
    size_t rows = 0;  ///< subgroup rows with non-null outcome
    size_t n_treated = 0;
    size_t n_control = 0;
    std::vector<uint32_t> n;    ///< [2C + 2]
    std::vector<double> sy;     ///< [2C + 2]
    std::vector<double> syy;    ///< [2C + 2]
    std::vector<double> zsum;   ///< [2C * m]   Σ z_j
    std::vector<double> zysum;  ///< [2C * m]   Σ z_j y
    std::vector<double> zzsum;  ///< [2C * mm]  Σ z_i z_j, upper-tri packed
    /// Int64 staging for the exact fast path, [2C + 2]; allocated only
    /// when the engine enables it. int_valid marks isy/isyy (not sy/syy)
    /// as the authoritative outcome sums — cleared when the overflow
    /// guard flushed them into the FP arrays mid-range.
    std::vector<int64_t> isy;
    std::vector<int64_t> isyy;
    bool int_valid = false;
  };

  /// The overall / protected / non-protected accumulation triple for one
  /// group bitmap — the cacheable unit of the incremental path. When
  /// `split` is false the protected/nonprotected accums are untouched
  /// (no protected mask was supplied). `rows_covered` records the table
  /// size the accumulation has seen; after an append, AccumulateDelta
  /// over [rows_covered, num_rows) merged in brings it current.
  struct SubgroupAccums {
    Accum overall;
    Accum prot;
    Accum nonprot;
    bool split = false;
    size_t rows_covered = 0;
  };

  /// Receives engine `index`'s accums from AccumulateBatch.
  using AccumsConsumer =
      std::function<void(size_t index, SubgroupAccums accums)>;

  /// The batched accumulation pass: one walk over `group` (optionally
  /// sharded across `plan` via `tasks`) fills one SubgroupAccums per
  /// engine and hands each to `consume`, in engine order. Every engine
  /// must share one ConfounderPartition and the same options (one
  /// estimator's engines over one adjustment set). Each engine's accums
  /// are byte-identical to a pass with that engine alone: the walk feeds
  /// every treatment's sinks in ascending row order, and each shard fills
  /// K partials that merge per treatment in ascending shard order. Wide
  /// batches are split so each walk's accumulators stay cache-resident (a
  /// fixed rule on cells x K); a chunk's accums are consumed before the
  /// next chunk walks, so memory is bounded by one chunk, not by K. The
  /// protected split is always filled when `protected_mask` is non-null,
  /// so a cached result can serve later solves regardless of which
  /// subgroups they request.
  ///
  /// `group_pattern` / `protected_pattern`, when non-null, must select
  /// exactly `group` / `*protected_mask`; a cell-aligned one takes the
  /// matching shortcut from the file comment (the group one only while
  /// the table accums fit the same cache budget as a walk's). Returns the
  /// number of engines whose table accums this call built, so the owner
  /// can refresh its byte accounting.
  static size_t AccumulateBatch(
      const std::vector<const CateStatsEngine*>& engines, const Bitmap& group,
      const Pattern* group_pattern, const Bitmap* protected_mask,
      const Pattern* protected_pattern, const ShardPlan* plan,
      TaskGroup* tasks, const AccumsConsumer& consume);

  /// Indices of `engines` grouped by shared ConfounderPartition — the
  /// batches AccumulateBatch accepts. Groups come in first-appearance
  /// order, indices ascend within each; null entries are left out.
  static std::vector<std::vector<size_t>> GroupByPartition(
      const std::vector<const CateStatsEngine*>& engines);

  /// Accumulates ONLY rows >= row_begin of `group` — the delta tail of an
  /// append. Because delta rows are strictly after all resident rows,
  /// merging this into an accumulation that covered [0, row_begin)
  /// reproduces the full-table pass: exactly on the int64 path, and to
  /// shard-merge precision (the PR-4 contract) on the FP path.
  SubgroupAccums AccumulateDelta(const Bitmap& group,
                                 const Bitmap* protected_mask,
                                 size_t row_begin) const;

  /// `into += from` over all three accums (shard-merge semantics; exact
  /// while the combined counts stay under the int64 budget). Advances
  /// into->rows_covered to from's.
  void MergeSubgroupAccums(SubgroupAccums* into,
                           const SubgroupAccums& from) const;

  /// Solves the overall / protected / non-protected estimates from
  /// already-accumulated stats (the second half of
  /// CateEstimator::EstimateSubgroups). Takes the accums by value
  /// (EnsureFp is destructive): a caller that keeps its stats int-valid
  /// and mergeable passes a copy, one that is done with them moves them
  /// in. `group` / `protected_mask` are needed only by the IPW
  /// row-fallback re-walk.
  CateSubgroupEstimates SolveFromAccums(
      SubgroupAccums accums, const Bitmap& group,
      const Bitmap* protected_mask, size_t min_group_size,
      size_t min_subgroup_size,
      bool skip_subgroups_unless_positive = false) const;

  const Bitmap& treated() const { return *treated_; }
  const ConfounderPartition& partition() const { return *partition_; }
  const std::vector<size_t>& adjustment() const { return adjustment_; }
  const CateOptions& options() const { return options_; }

  /// Engine-held bytes excluding the shared partition, including the
  /// pinned treated mask and any table accums.
  size_t bytes() const;

 private:
  /// Which rows a solve refers to (needed only by the IPW row-level
  /// fallback, which must re-walk the subgroup).
  struct Slice {
    const Bitmap* group = nullptr;
    const Bitmap* protected_mask = nullptr;  ///< null: no protected filter
    bool protected_member = false;           ///< filter polarity
  };

  /// Fresh accums for one treatment (split iff `split`).
  SubgroupAccums MakeSubgroupAccums(bool split) const;

  /// Per-cell memberships a chunk of engines may use instead of walking
  /// (see the file comment); `prot` is set only with a protected mask.
  struct CellShortcuts {
    const std::vector<uint8_t>* group = nullptr;
    const std::vector<uint8_t>* prot = nullptr;
  };

  /// Table-level accums: one unsplit pass over every row, kept as one
  /// partial per shard of the plan they were built for (`ranges`, the
  /// shards' word ranges), so a group derived from them merges exactly
  /// like the group's own sharded walk.
  struct TableAccums {
    std::vector<std::pair<size_t, size_t>> ranges;
    std::vector<Accum> shards;
    /// False when a partial took the int64 guard's FP fallback: a
    /// group's walk, counting fewer rows, might not have, so groups must
    /// walk.
    bool usable = false;
  };

  /// One batched walk over bitmap words [word_begin, word_end) — the
  /// per-shard view — into `outs[k]` (fresh, from MakeSubgroupAccums) for
  /// `engines[k]`, k < count. The unsharded pass is exactly the
  /// full-range call.
  static void AccumulateRange(const CateStatsEngine* const* engines,
                              size_t count, const Bitmap& group,
                              const Bitmap* protected_mask, size_t word_begin,
                              size_t word_end, SubgroupAccums* outs);

  /// AccumulateBatch for one cache-sized chunk of engines; returns the
  /// number of table accums it built.
  static size_t AccumulateChunk(const CateStatsEngine* const* engines,
                              size_t count, const Bitmap& group,
                              const Bitmap* protected_mask,
                              CellShortcuts cells, const ShardPlan* plan,
                              TaskGroup* tasks, SubgroupAccums* outs);

  /// The chunk's table accums for `plan`, built in one batched pass over
  /// every row for the engines that lack them; empty when any of them is
  /// unusable. `*built` counts the engines this call built for.
  static std::vector<std::shared_ptr<const TableAccums>> TableAccumsFor(
      const CateStatsEngine* const* engines, size_t count, size_t num_rows,
      const ShardPlan* plan, TaskGroup* tasks, size_t* built);

  /// Fills `out` (fresh) from cell memberships instead of rows: with
  /// `table` its overall accum is `table` restricted to the `group`
  /// cells, and with `prot` each cell's overall slots are copied into
  /// out->prot or out->nonprot.
  void FillFromCells(const Accum* table, const std::vector<uint8_t>* group,
                     const std::vector<uint8_t>* prot,
                     SubgroupAccums* out) const;

  /// Bytes of one fresh Accum (stat arrays, int staging, moment blocks).
  size_t AccumBytes() const;

  /// Element-wise `into += from` over every statistic (counts, outcome
  /// sums, numeric moments) — the shard-merge step. Integer partials
  /// merge in int64 while the combined row count stays under the
  /// partition's safe_int_rows budget; past it (or when either side
  /// already fell back) both sides are converted exactly to FP first,
  /// which reproduces the pure-FP merge bit for bit.
  void MergeAccum(Accum* into, const Accum& from) const;

  /// Resize an accum that predates delta-interned cells up to the current
  /// partition slot count, zeroing the relocated kernel scratch slots.
  void GrowAccum(Accum* acc) const;

  /// Converts an int-valid accum's outcome sums into its FP arrays (an
  /// exact conversion under the safe_int_rows guard) and clears
  /// int_valid. No-op on FP-valid accums. Solvers read only sy/syy, so
  /// every accum is funneled through this before Solve.
  static void EnsureFp(Accum* acc);

  Result<CateEstimate> Solve(const Accum& acc, const Slice& slice,
                             size_t min_group_size) const;
  Result<CateEstimate> SolveRegression(const Accum& acc,
                                       size_t min_group_size) const;
  Result<CateEstimate> SolveStratified(const Accum& acc,
                                       size_t min_group_size) const;
  Result<CateEstimate> SolveIpw(const Accum& acc, const Slice& slice,
                                size_t min_group_size) const;
  /// Oracle-identical per-row IPW (numeric confounders vary within a
  /// cell, so the propensity design is not cell-constant); still serves
  /// features from the partition's cached columns.
  Result<CateEstimate> SolveIpwRows(const Slice& slice,
                                    size_t min_group_size) const;

  bool need_moments() const {
    return options_.method == CateMethod::kRegression &&
           partition_->num_numeric() > 0;
  }
  /// The exact int64 accumulation path applies when the outcome column is
  /// integer-valued and no FP moment blocks ride along in the same pass.
  bool int_path_enabled() const {
    return int_path_allowed_ && partition_->outcome_is_integer() &&
           !need_moments();
  }
  Accum MakeAccum() const;

  // Only CateEstimator::MakeEngine clears int_path_allowed_.
  friend class CateEstimator;

  const DataFrame* df_;
  CateOptions options_;
  bool int_path_allowed_ = true;
  std::vector<size_t> adjustment_;
  std::shared_ptr<const Bitmap> treated_;
  std::shared_ptr<const ConfounderPartition> partition_;

  // The table-accum cache: built outside the lock (a racing duplicate is
  // identical; the first published wins), never mutated once published,
  // replaced only when a different shard plan asks.
  mutable Mutex table_mu_;
  mutable std::shared_ptr<const TableAccums> table_ GUARDED_BY(table_mu_);
};

}  // namespace faircap

#endif  // FAIRCAP_CAUSAL_CATE_STATS_ENGINE_H_
