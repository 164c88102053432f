#include "causal/cate_stats_engine.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>

#include <cassert>

#include "causal/linear_model.h"
#include "causal/logistic.h"
#include "mining/shard_plan.h"
#include "util/obs/metrics.h"
#include "util/obs/trace.h"
#include "util/simd/simd.h"
#include "util/task_scheduler.h"

namespace faircap {

namespace {

// Accumulation-pass observability. simd.cate_accumulate_rows, the
// accumulate_path_* counters and estimation.accumulate_int_fallbacks are
// per treatment (a walk serving K treatments adds K times), so rows per
// evaluation compare like with like across batch widths;
// simd.cate_walk_rows, estimation.batched_passes and batch_width describe
// the walks themselves (table passes included). The cell shortcuts count
// per treatment: split_from_cells for a protected split routed from
// cells, groups_from_cells for a group served with no walk;
// table_pass_rows counts the rows of the table passes behind the latter.
struct AccumMetrics {
  obs::Counter& accumulate_rows;
  obs::Counter& walk_rows;
  obs::Counter& path_int;
  obs::Counter& int_fallbacks;
  obs::Counter& path_fp_staged;
  obs::Counter& path_sparse;
  obs::Counter& batched_passes;
  obs::Counter& split_from_cells;
  obs::Counter& groups_from_cells;
  obs::Counter& table_pass_rows;
  obs::Histogram& batch_width;
};

AccumMetrics& Metrics() {
  obs::MetricsRegistry& r = obs::MetricsRegistry::Global();
  static AccumMetrics* metrics = new AccumMetrics{
      r.GetCounter("simd.cate_accumulate_rows"),
      r.GetCounter("simd.cate_walk_rows"),
      r.GetCounter("estimation.accumulate_path_int"),
      r.GetCounter("estimation.accumulate_int_fallbacks"),
      r.GetCounter("estimation.accumulate_path_fp_staged"),
      r.GetCounter("estimation.accumulate_path_sparse"),
      r.GetCounter("estimation.batched_passes"),
      r.GetCounter("estimation.split_from_cells"),
      r.GetCounter("estimation.groups_from_cells"),
      r.GetCounter("estimation.table_pass_rows"),
      r.GetHistogram("estimation.batch_width"),
  };
  return *metrics;
}

// One walk over a group, K treatments wide.
void RecordPass(size_t width) {
  Metrics().batched_passes.Increment();
  Metrics().batch_width.Observe(static_cast<double>(width));
}

simd::CateSink SinkOf(CateStatsEngine::Accum* acc) {
  simd::CateSink sink;
  sink.n = acc->n.data();
  sink.sy = acc->sy.data();
  sink.syy = acc->syy.data();
  sink.zsum = acc->zsum.empty() ? nullptr : acc->zsum.data();
  sink.zysum = acc->zysum.empty() ? nullptr : acc->zysum.data();
  sink.zzsum = acc->zzsum.empty() ? nullptr : acc->zzsum.data();
  sink.isy = acc->isy.empty() ? nullptr : acc->isy.data();
  sink.isyy = acc->isyy.empty() ? nullptr : acc->isyy.data();
  return sink;
}

// The kernels keep no row or arm counters; a fresh accum's are the sums
// of its real (cell, arm) slot counts — the two scratch slots excluded.
void DeriveCounts(CateStatsEngine::Accum* acc) {
  size_t treated = 0, control = 0;
  for (size_t i = 0; i + 2 < acc->n.size(); i += 2) {
    control += acc->n[i];
    treated += acc->n[i + 1];
  }
  acc->n_treated = treated;
  acc->n_control = control;
  acc->rows = treated + control;
}

// Accumulator bytes a walk may keep hot across its treatments: about an
// L1 data cache. The sinks take scattered per-row adds, so a batch whose
// sinks overflow it trades the saved bitmap/cell/outcome loads for cache
// misses on every add.
constexpr size_t kBatchAccumBytes = 32 * 1024;

}  // namespace

std::vector<double> QuantileBinEdges(const Column& col, size_t bins) {
  std::vector<double> values;
  values.reserve(col.size());
  for (size_t r = 0; r < col.size(); ++r) {
    if (!col.IsNull(r)) values.push_back(col.numeric(r));
  }
  // Partial selection per edge instead of a full sort: the edge positions
  // are ascending, so each nth_element works on the suffix the previous
  // one left behind (everything before `prev` is already <= that edge).
  // O(n * bins) expected vs O(n log n), and identical edge values.
  std::vector<double> edges;
  size_t prev = 0;
  for (size_t b = 1; b < bins && !values.empty(); ++b) {
    const size_t pos = values.size() * b / bins;
    std::nth_element(values.begin() + prev, values.begin() + pos,
                     values.end());
    edges.push_back(values[pos]);
    prev = pos;
  }
  return edges;
}

Result<CateEstimate> HajekIpwFromRows(
    const std::vector<double>& design, size_t n, size_t p,
    const std::vector<double>& labels, const std::vector<double>& outcomes,
    const std::vector<uint8_t>& is_treated_row, double propensity_clip) {
  FAIRCAP_ASSIGN_OR_RETURN(const LogisticFit propensity,
                           FitLogistic(design, n, p, labels));

  // Hajek (self-normalized) IPW with clipped propensities.
  const double clip = propensity_clip;
  double sum_w1 = 0.0, sum_w1y = 0.0, sum_w0 = 0.0, sum_w0y = 0.0;
  std::vector<double> w1_values, w0_values;  // for the variance estimate
  std::vector<double> y1_values, y0_values;
  size_t n_treated = 0, n_control = 0;
  for (size_t r = 0; r < n; ++r) {
    const double e = std::clamp(
        PredictLogistic(propensity.beta, &design[r * p]), clip, 1.0 - clip);
    if (is_treated_row[r] != 0) {
      const double w = 1.0 / e;
      sum_w1 += w;
      sum_w1y += w * outcomes[r];
      w1_values.push_back(w);
      y1_values.push_back(outcomes[r]);
      ++n_treated;
    } else {
      const double w = 1.0 / (1.0 - e);
      sum_w0 += w;
      sum_w0y += w * outcomes[r];
      w0_values.push_back(w);
      y0_values.push_back(outcomes[r]);
      ++n_control;
    }
  }
  // An empty arm would divide by a zero weight sum below and return a
  // NaN estimate that poisons every downstream comparison; fail loudly
  // instead (callers floor arm sizes, but the guard must not rely on it).
  if (n_treated == 0 || n_control == 0) {
    return Status::FailedPrecondition(
        "IPW requires both arms non-empty: " + std::to_string(n_treated) +
        " treated / " + std::to_string(n_control) + " control rows");
  }
  const double mean1 = sum_w1y / sum_w1;
  const double mean0 = sum_w0y / sum_w0;

  // Approximate variance of each weighted mean via the weighted residual
  // sum of squares (Hajek linearization).
  const auto weighted_mean_var = [](const std::vector<double>& weights,
                                    const std::vector<double>& values,
                                    double mean, double weight_sum) {
    double acc = 0.0;
    for (size_t i = 0; i < weights.size(); ++i) {
      const double d = weights[i] * (values[i] - mean);
      acc += d * d;
    }
    return acc / (weight_sum * weight_sum);
  };

  CateEstimate est;
  est.cate = mean1 - mean0;
  est.std_error =
      std::sqrt(weighted_mean_var(w1_values, y1_values, mean1, sum_w1) +
                weighted_mean_var(w0_values, y0_values, mean0, sum_w0));
  est.n_treated = n_treated;
  est.n_control = n_control;
  return est;
}

Result<std::shared_ptr<const ConfounderPartition>> ConfounderPartition::Build(
    const DataFrame& df, size_t outcome_attr,
    const std::vector<size_t>& adjustment, const CateOptions& options) {
  std::shared_ptr<ConfounderPartition> part(new ConfounderPartition());
  const size_t n = df.num_rows();
  part->outcome_attr_ = outcome_attr;
  // Fresh cell-numbering identity; ExtendInPlace keeps it.
  static std::atomic<uint64_t> next_lineage{1};
  part->lineage_id_ = next_lineage.fetch_add(1, std::memory_order_relaxed);

  // Per-confounder layout: design feature span (oracle enumeration order)
  // and the radix base of the cell key. Persisted so ExtendInPlace can
  // intern appended rows with the exact same keys.
  part->confs_.reserve(adjustment.size());
  int64_t radix = 1;  // product of the bases: keys lie in [0, radix)
  bool overflow = false;
  for (size_t attr : adjustment) {
    const Column& col = df.column(attr);
    ConfLayout info;
    info.attr = attr;
    info.categorical = col.type() == AttrType::kCategorical;
    info.feature_base = static_cast<uint32_t>(part->features_.size());
    if (info.categorical) {
      // Drop the first level as the reference category.
      for (size_t code = 1; code < col.num_categories(); ++code) {
        part->features_.push_back({attr, true, static_cast<int32_t>(code)});
      }
      info.num_categories = col.num_categories();
      info.base = static_cast<int64_t>(col.num_categories() + 1);
    } else {
      part->numeric_features_.push_back(
          static_cast<uint32_t>(part->features_.size()));
      part->features_.push_back({attr, false, 0});
      info.edges = QuantileBinEdges(
          col, std::max<size_t>(1, options.numeric_confounder_bins));
      info.base = static_cast<int64_t>(info.edges.size() + 2);
    }
    overflow = overflow || __builtin_mul_overflow(radix, info.base, &radix);
    part->onehot_width_ += info.categorical ? 1 : 0;
    part->confs_.push_back(std::move(info));
  }
  if (overflow) {
    std::string names;
    for (size_t attr : adjustment) {
      if (!names.empty()) names += ", ";
      names += df.schema().attribute(attr).name;
    }
    return Status::InvalidArgument(
        "adjustment set {" + names + "} is too wide: its joint confounder "
        "key, a mixed radix over " + std::to_string(adjustment.size()) +
        " confounders, overflows int64 and would merge distinct cells");
  }
  int64_t stride = 1;
  for (size_t a = part->confs_.size(); a-- > 0;) {
    part->confs_[a].stride = stride;
    stride *= part->confs_[a].base;
  }

  // Cache the numeric confounder columns with nulls as 0.0 — exactly the
  // value the oracle design-matrix build substitutes.
  part->numeric_values_.resize(part->numeric_features_.size());
  for (size_t j = 0; j < part->numeric_features_.size(); ++j) {
    const Column& col =
        df.column(part->features_[part->numeric_features_[j]].attr);
    std::vector<double>& vals = part->numeric_values_[j];
    vals.resize(n);
    for (size_t r = 0; r < n; ++r) {
      vals[r] = col.IsNull(r) ? 0.0 : col.numeric(r);
    }
  }
  // Raw pointer span over the cached columns (stable: the column vectors
  // are never resized after this point) — accumulation passes read it
  // directly instead of rebuilding a pointer array per call.
  part->numeric_value_ptrs_.reserve(part->numeric_values_.size());
  for (const auto& vals : part->numeric_values_) {
    part->numeric_value_ptrs_.push_back(vals.data());
  }

  part->InternRows(df, /*row_begin=*/0);
  return std::shared_ptr<const ConfounderPartition>(std::move(part));
}

bool ConfounderPartition::ExtendInPlace(const DataFrame& df) {
  if (df.num_rows() < rows_covered_) return false;  // not an append
  if (!numeric_features_.empty()) return false;
  for (const ConfLayout& info : confs_) {
    if (df.column(info.attr).num_categories() != info.num_categories) {
      return false;
    }
  }
  InternRows(df, rows_covered_);
  return true;
}

int32_t ConfounderPartition::CellIndex::FindOrInsert(int64_t key,
                                                     int32_t next) {
  if ((size_ + 1) * 2 > keys_.size()) Grow();
  const size_t mask = keys_.size() - 1;
  uint64_t h = static_cast<uint64_t>(key) * 0x9E3779B97F4A7C15ULL;
  h ^= h >> 32;
  for (size_t slot = static_cast<size_t>(h) & mask;;
       slot = (slot + 1) & mask) {
    if (keys_[slot] == key) return cells_[slot];
    if (keys_[slot] < 0) {
      keys_[slot] = key;
      cells_[slot] = next;
      ++size_;
      return next;
    }
  }
}

void ConfounderPartition::CellIndex::Grow() {
  std::vector<int64_t> old_keys = std::move(keys_);
  std::vector<int32_t> old_cells = std::move(cells_);
  const size_t capacity = std::max<size_t>(16, old_keys.size() * 2);
  keys_.assign(capacity, -1);
  cells_.assign(capacity, 0);
  size_ = 0;
  for (size_t i = 0; i < old_keys.size(); ++i) {
    if (old_keys[i] >= 0) FindOrInsert(old_keys[i], old_cells[i]);
  }
}

void ConfounderPartition::InternRows(const DataFrame& df, size_t row_begin) {
  const size_t n = df.num_rows();

  // Intern each row's joint key (code / quantile bin / null digit per
  // confounder, as one int64 mixed radix) into a dense cell id. Rows with
  // a null outcome stay at cell -1: every estimator excludes them. New
  // cells are appended in first-appearance order, which for an extension
  // (row_begin > 0) is the order a cold build over the concatenated table
  // would discover them.
  const Column& outcome = df.column(outcome_attr_);
  // Reserve ~12.5% headroom past the current table whenever the per-row
  // caches must grow: an append of up to that fraction then extends in
  // place with no O(N) reallocation copy — the same amortized-reserve
  // policy Column::AppendRow uses. (resize alone would also amortize via
  // capacity doubling, but doubling touches 2N fresh pages exactly on
  // the latency-sensitive first append.)
  if (outcome_.capacity() < n) outcome_.reserve(n + n / 8);
  if (cell_of_row_.capacity() < n) cell_of_row_.reserve(n + n / 8);
  outcome_.resize(n);
  cell_of_row_.resize(n, -1);

  // Appends a new cell: its one-hot slots and oracle stratum id, decoded
  // from its key. Without nulls the stratum id IS the key (same digits,
  // same bases); any null digit makes it -1.
  const uint32_t no_feature = static_cast<uint32_t>(features_.size());
  const auto add_cell = [&](int64_t key) {
    std::vector<int64_t> digits(confs_.size());
    int64_t rest = key;
    for (size_t a = confs_.size(); a-- > 0;) {
      digits[a] = rest % confs_[a].base;
      rest /= confs_[a].base;
    }
    Cell cell;
    bool any_null = false;
    for (size_t a = 0; a < confs_.size(); ++a) {
      const bool null = digits[a] == confs_[a].base - 1;
      any_null = any_null || null;
      if (!confs_[a].categorical) continue;
      cell_onehot_.push_back(null || digits[a] == 0
                                 ? no_feature
                                 : confs_[a].feature_base +
                                       static_cast<uint32_t>(digits[a] - 1));
    }
    cell.stratum_id = any_null ? -1 : key;
    cells_.push_back(cell);
    cell_keys_.push_back(key);
  };

  // Keys are built column-at-a-time over row blocks small enough to stay
  // in L1: each confounder column streams through one tight digit loop,
  // then a single pass interns the block.
  constexpr size_t kBlock = 1024;
  int64_t keys[kBlock];
  const double* y = outcome.numeric_data();
  for (size_t begin = row_begin; begin < n; begin += kBlock) {
    const size_t len = std::min(kBlock, n - begin);
    std::fill(keys, keys + len, 0);
    for (const ConfLayout& info : confs_) {
      const Column& col = df.column(info.attr);
      const int64_t base = info.base;
      const int64_t null_digit = base - 1;
      if (info.categorical) {
        const int32_t* codes = col.codes_data() + begin;
        for (size_t i = 0; i < len; ++i) {
          const int32_t code = codes[i];
          keys[i] = keys[i] * base + (code < 0 ? null_digit : code);
        }
      } else {
        const double* values = col.numeric_data() + begin;
        for (size_t i = 0; i < len; ++i) {
          const double v = values[i];
          const int64_t bin =
              std::isnan(v)
                  ? null_digit
                  : std::upper_bound(info.edges.begin(), info.edges.end(),
                                     v) -
                        info.edges.begin();
          keys[i] = keys[i] * base + bin;
        }
      }
    }
    for (size_t i = 0; i < len; ++i) {
      const size_t r = begin + i;
      if (std::isnan(y[r])) {
        outcome_[r] = 0.0;
        cell_of_row_[r] = -1;
        continue;
      }
      outcome_[r] = y[r];
      const int32_t next = static_cast<int32_t>(cells_.size());
      const int32_t cell = cell_ids_.FindOrInsert(keys[i], next);
      if (cell == next) add_cell(keys[i]);
      cell_of_row_[r] = cell;
    }
  }

  // Detect integer-valued outcomes (the german/stackoverflow binary
  // outcomes and integer synthetic knobs) once per partition: the batch
  // engine then accumulates {Σy, Σy²} in int64 — exact, so vector tiers
  // may reassociate freely — and converts to double only at solve time.
  // The 2^31 magnitude cap keeps y² inside int64; safe_int_rows_ bounds
  // how many rows any partial may absorb before |Σy| or Σy² could reach
  // 2^53, past which the double conversion (and the oracle's FP sum itself)
  // would stop being exact. Nulls sit at 0.0 in outcome_, which is
  // integer, so scanning the whole cache is equivalent to scanning the
  // non-null rows. On an extension only the delta rows are scanned: the
  // persisted max_abs_y_ already covers [0, row_begin), and a base that
  // was already non-integer stays so (exactly what a cold scan over the
  // concatenated rows would conclude).
  if (row_begin == 0) {
    outcome_integer_ = true;
    max_abs_y_ = 0;
  }
  if (outcome_integer_) {
    for (size_t r = row_begin; r < n; ++r) {
      const double v = outcome_[r];
      if (!(v >= -2147483647.0 && v <= 2147483647.0) ||
          static_cast<double>(static_cast<int64_t>(v)) != v) {
        outcome_integer_ = false;
        break;
      }
      const int64_t iv = static_cast<int64_t>(v);
      max_abs_y_ = std::max(max_abs_y_, iv < 0 ? -iv : iv);
    }
  }
  if (outcome_integer_) {
    if (outcome_i64_.capacity() < n) outcome_i64_.reserve(n + n / 8);
    outcome_i64_.resize(n);
    for (size_t r = row_begin; r < n; ++r) {
      outcome_i64_[r] = static_cast<int64_t>(outcome_[r]);
    }
    const int64_t max_mag = std::max(max_abs_y_, max_abs_y_ * max_abs_y_);
    safe_int_rows_ =
        max_mag > 0 ? ((uint64_t{1} << 53) - 1) / static_cast<uint64_t>(max_mag)
                    : ~uint64_t{0};
  } else {
    // A delta row with a fractional outcome demotes an integer base: the
    // engine's int64 path is off for the combined table, exactly as a
    // cold build would decide.
    outcome_i64_.clear();
    safe_int_rows_ = 0;
  }

  // Re-derive the sorted stratum order over the (possibly grown) cell
  // table. Stratum ids are unique across cells (the radix encoding is
  // injective for non-null signatures), so the sort is deterministic and
  // matches a cold build's order.
  cells_by_stratum_.clear();
  cells_by_stratum_.reserve(cells_.size());
  for (uint32_t c = 0; c < cells_.size(); ++c) {
    if (cells_[c].stratum_id >= 0) cells_by_stratum_.push_back(c);
  }
  std::sort(cells_by_stratum_.begin(), cells_by_stratum_.end(),
            [&](uint32_t a, uint32_t b) {
              return cells_[a].stratum_id < cells_[b].stratum_id;
            });

  size_t bytes = cell_of_row_.size() * sizeof(int32_t) +
                 outcome_.size() * sizeof(double) +
                 outcome_i64_.size() * sizeof(int64_t) +
                 cell_keys_.size() * sizeof(int64_t) +
                 cells_by_stratum_.size() * sizeof(uint32_t);
  for (const auto& vals : numeric_values_) {
    bytes += vals.size() * sizeof(double);
  }
  bytes += cells_.size() * sizeof(Cell) +
           cell_onehot_.size() * sizeof(uint32_t);
  // The intern map persists for extension, so it counts too.
  bytes += cell_ids_.bytes();
  bytes_ = bytes;
  rows_covered_ = n;

  // An extension appends cells: extend the memoized membership over them
  // (a fresh vector — holders of the old one keep a consistent view).
  MutexLock lock(memo_mu_);
  if (memo_ != nullptr && memo_->aligned &&
      memo_->cells->size() < cells_.size()) {
    auto grown = std::make_shared<std::vector<uint8_t>>(*memo_->cells);
    const size_t old_cells = grown->size();
    grown->resize(cells_.size(), 0);
    MarkCells(memo_->terms, old_cells, grown.get());
    memo_->cells = std::move(grown);
  }
}

bool ConfounderPartition::ResolveCellTerms(const DataFrame& df,
                                           const Pattern& pattern,
                                           std::vector<CellTerm>* terms) const {
  terms->clear();
  for (const Predicate& pred : pattern.predicates()) {
    if (pred.op != CompareOp::kEq || !pred.value.is_string()) return false;
    const auto conf = std::find_if(
        confs_.begin(), confs_.end(),
        [&](const ConfLayout& info) { return info.attr == pred.attr; });
    if (conf == confs_.end() || !conf->categorical) return false;
    // A category the dictionary lacks matches no row — and no cell.
    const Result<int32_t> code = df.column(pred.attr).CodeOf(pred.value.str());
    terms->push_back({static_cast<size_t>(conf - confs_.begin()),
                      code.ok() ? int64_t{*code} : -1});
  }
  return true;
}

void ConfounderPartition::MarkCells(const std::vector<CellTerm>& terms,
                                    size_t begin,
                                    std::vector<uint8_t>* member) const {
  // A null confounder takes digit base - 1, which no term asks for, so
  // null-digit cells fall outside every equality, as their rows do.
  for (size_t c = begin; c < member->size(); ++c) {
    bool in = true;
    for (const CellTerm& term : terms) {
      const ConfLayout& info = confs_[term.conf];
      in = in && (cell_keys_[c] / info.stride) % info.base == term.digit;
    }
    (*member)[c] = in ? 1 : 0;
  }
}

std::shared_ptr<const std::vector<uint8_t>> ConfounderPartition::CellsMatching(
    const DataFrame& df, const Pattern& pattern) const {
  std::vector<CellTerm> terms;
  if (!ResolveCellTerms(df, pattern, &terms)) return nullptr;
  auto member = std::make_shared<std::vector<uint8_t>>(cells_.size(), 0);
  MarkCells(terms, 0, member.get());
  return member;
}

std::shared_ptr<const std::vector<uint8_t>>
ConfounderPartition::MemoCellsMatching(const DataFrame& df,
                                       const Pattern& pattern) const {
  MutexLock lock(memo_mu_);
  if (memo_ == nullptr || !(memo_->pattern == pattern)) {
    auto memo = std::make_unique<CellMemo>();
    memo->pattern = pattern;
    memo->aligned = ResolveCellTerms(df, pattern, &memo->terms);
    if (memo->aligned) {
      auto member = std::make_shared<std::vector<uint8_t>>(cells_.size(), 0);
      MarkCells(memo->terms, 0, member.get());
      memo->cells = std::move(member);
    }
    memo_ = std::move(memo);
  }
  return memo_->cells;
}

CateStatsEngine::CateStatsEngine(
    const DataFrame* df, CateOptions options, std::vector<size_t> adjustment,
    std::shared_ptr<const Bitmap> treated,
    std::shared_ptr<const ConfounderPartition> partition)
    : df_(df),
      options_(options),
      adjustment_(std::move(adjustment)),
      treated_(std::move(treated)),
      partition_(std::move(partition)) {}

size_t CateStatsEngine::bytes() const {
  // The treated mask is pinned by this engine via shared ownership (the
  // PredicateIndex may have evicted its own copy), so its words count
  // against whoever budgets the engine.
  const size_t mask_bytes = ((treated_->size() + 63) / 64) * sizeof(uint64_t);
  MutexLock lock(table_mu_);
  const size_t table_bytes =
      table_ != nullptr ? table_->shards.size() * AccumBytes() : 0;
  return sizeof(CateStatsEngine) + adjustment_.size() * sizeof(size_t) +
         mask_bytes + table_bytes;
}

size_t CateStatsEngine::AccumBytes() const {
  const size_t slots = partition_->cells().size() * 2 + 2;
  const size_t m = partition_->num_numeric();
  size_t slot_bytes = sizeof(uint32_t) + 2 * sizeof(double);
  if (int_path_enabled()) slot_bytes += 2 * sizeof(int64_t);
  if (need_moments()) {
    slot_bytes += (2 * m + m * (m + 1) / 2) * sizeof(double);
  }
  return slots * slot_bytes;
}

CateStatsEngine::Accum CateStatsEngine::MakeAccum() const {
  Accum acc;
  const size_t slots = partition_->cells().size() * 2;
  // Two write-only scratch slots past the real ones absorb the integer
  // kernels' branchless excluded-row stores (simd.h, CateSink).
  acc.n.assign(slots + 2, 0);
  acc.sy.assign(slots + 2, 0.0);
  acc.syy.assign(slots + 2, 0.0);
  if (need_moments()) {
    const size_t m = partition_->num_numeric();
    acc.zsum.assign(slots * m, 0.0);
    acc.zysum.assign(slots * m, 0.0);
    acc.zzsum.assign(slots * (m * (m + 1) / 2), 0.0);
  }
  if (int_path_enabled()) {
    acc.isy.assign(slots + 2, 0);
    acc.isyy.assign(slots + 2, 0);
  }
  return acc;
}

CateStatsEngine::SubgroupAccums CateStatsEngine::MakeSubgroupAccums(
    bool split) const {
  SubgroupAccums out;
  out.split = split;
  out.rows_covered = df_->num_rows();
  out.overall = MakeAccum();
  if (split) {
    out.prot = MakeAccum();
    out.nonprot = MakeAccum();
  }
  return out;
}

void CateStatsEngine::AccumulateRange(const CateStatsEngine* const* engines,
                                      size_t count, const Bitmap& group,
                                      const Bitmap* protected_mask,
                                      size_t word_begin, size_t word_end,
                                      SubgroupAccums* outs) {
  const CateStatsEngine& lead = *engines[0];
  const ConfounderPartition& part = *lead.partition_;
  // All bitmaps are walked in lockstep over one word range; a mismatched
  // universe (a shard-view bug) would otherwise read out of bounds of the
  // shorter mask.
  assert(protected_mask == nullptr || protected_mask->size() == group.size());
  assert(word_end <= group.num_words());

  // The group (plus optional protected) mask drives the rows — walked
  // word-at-a-time, 64 rows per load, through the runtime-dispatched
  // kernel — and each treatment's mask drives its arm bit. Integer-valued
  // outcomes take the exact int64 path (associative, so tiers reassociate
  // freely); real-valued outcomes keep every float add in the same
  // ascending-row order per sink. Either way each treatment's result is
  // bit-identical at every SIMD level and at every batch width.
  std::vector<simd::CateTreatmentSinks> sinks(count);
  for (size_t k = 0; k < count; ++k) {
    const CateStatsEngine& engine = *engines[k];
    assert(engine.partition_.get() == &part);
    assert(group.size() == engine.treated_->size());
    sinks[k].treated_words = engine.treated_->words();
    sinks[k].overall = SinkOf(&outs[k].overall);
    if (protected_mask != nullptr) {
      sinks[k].prot = SinkOf(&outs[k].prot);
      sinks[k].nonprot = SinkOf(&outs[k].nonprot);
    }
  }
  simd::CateAccumArgs args;
  args.group_words = group.words();
  args.protected_words =
      protected_mask != nullptr ? protected_mask->words() : nullptr;
  args.cell_of_row = part.cell_of_row().data();
  args.outcome = part.outcome().data();
  args.num_numeric = part.num_numeric();
  args.moments = lead.need_moments();
  args.zcols = args.moments ? part.numeric_value_ptrs() : nullptr;
  args.word_begin = word_begin;
  args.word_end = word_end;
  args.num_slots = part.cells().size() * 2;
  size_t dense_words = 0, sparse_words = 0;
  args.dense_words = &dense_words;
  args.sparse_words = &sparse_words;
  args.treatments = sinks.data();
  args.num_treatments = count;

  const bool int_path = lead.int_path_enabled();
  bool stayed_int = false;
  if (int_path) {
    args.outcome_i64 = part.outcome_i64().data();
    args.safe_rows = part.safe_int_rows();
    stayed_int = simd::ActiveKernels().cate_accumulate_int(args);
  } else {
    simd::ActiveKernels().cate_accumulate(args);
  }
  for (size_t k = 0; k < count; ++k) {
    DeriveCounts(&outs[k].overall);
    outs[k].overall.int_valid = stayed_int;
    if (protected_mask != nullptr) {
      DeriveCounts(&outs[k].prot);
      DeriveCounts(&outs[k].nonprot);
      outs[k].prot.int_valid = stayed_int;
      outs[k].nonprot.int_valid = stayed_int;
    }
  }

  AccumMetrics& metrics = Metrics();
  const size_t walked = outs[0].overall.rows;
  metrics.walk_rows.Add(walked);
  metrics.accumulate_rows.Add(walked * count);
  if (stayed_int) {
    metrics.path_int.Add(count);
    return;
  }
  if (int_path) metrics.int_fallbacks.Add(count);
  if (dense_words >= sparse_words && dense_words > 0) {
    metrics.path_fp_staged.Add(count);
  } else {
    metrics.path_sparse.Add(count);
  }
}

namespace {

// Copies every statistic of cell c's two (cell, arm) slots.
void CopyCellSlots(const CateStatsEngine::Accum& from, size_t c, size_t m,
                   CateStatsEngine::Accum* to) {
  const size_t i = 2 * c;
  const auto copy = [i](const auto& src, auto& dst, size_t width) {
    if (src.empty()) return;
    std::copy_n(src.begin() + static_cast<ptrdiff_t>(i * width), 2 * width,
                dst.begin() + static_cast<ptrdiff_t>(i * width));
  };
  copy(from.n, to->n, 1);
  copy(from.sy, to->sy, 1);
  copy(from.syy, to->syy, 1);
  copy(from.isy, to->isy, 1);
  copy(from.isyy, to->isyy, 1);
  copy(from.zsum, to->zsum, m);
  copy(from.zysum, to->zysum, m);
  copy(from.zzsum, to->zzsum, m * (m + 1) / 2);
}

// The word ranges a plan walks (the whole bitmap when unsharded).
std::vector<std::pair<size_t, size_t>> PlanRanges(const ShardPlan* plan,
                                                  size_t num_words) {
  std::vector<std::pair<size_t, size_t>> ranges;
  if (plan == nullptr || plan->num_shards() <= 1) {
    ranges.emplace_back(0, num_words);
    return ranges;
  }
  for (const ShardPlan::Shard& shard : plan->shards()) {
    ranges.emplace_back(shard.word_begin, shard.word_end);
  }
  return ranges;
}

}  // namespace

void CateStatsEngine::FillFromCells(const Accum* table,
                                    const std::vector<uint8_t>* group,
                                    const std::vector<uint8_t>* prot,
                                    SubgroupAccums* out) const {
  const size_t cells = partition_->cells().size();
  const size_t m = partition_->num_numeric();
  if (table != nullptr) {
    for (size_t c = 0; c < cells; ++c) {
      if ((*group)[c] != 0) CopyCellSlots(*table, c, m, &out->overall);
    }
    DeriveCounts(&out->overall);
    out->overall.int_valid = table->int_valid;
  }
  if (prot != nullptr) {
    for (size_t c = 0; c < cells; ++c) {
      CopyCellSlots(out->overall, c, m,
                    (*prot)[c] != 0 ? &out->prot : &out->nonprot);
    }
    DeriveCounts(&out->prot);
    DeriveCounts(&out->nonprot);
    out->prot.int_valid = out->overall.int_valid;
    out->nonprot.int_valid = out->overall.int_valid;
  }
}

std::vector<std::shared_ptr<const CateStatsEngine::TableAccums>>
CateStatsEngine::TableAccumsFor(const CateStatsEngine* const* engines,
                                size_t count, size_t num_rows,
                                const ShardPlan* plan, TaskGroup* tasks,
                                size_t* built) {
  const std::vector<std::pair<size_t, size_t>> ranges =
      PlanRanges(plan, (num_rows + 63) / 64);
  // A cached table serves only the plan it was built for, and only while
  // the partition has the cells it saw (an in-place extension adds some).
  const size_t slots = engines[0]->partition_->cells().size() * 2 + 2;
  const auto current = [&](const std::shared_ptr<const TableAccums>& table) {
    return table != nullptr && table->ranges == ranges &&
           table->shards[0].n.size() == slots;
  };
  std::vector<std::shared_ptr<const TableAccums>> tables(count);
  std::vector<const CateStatsEngine*> missing;
  std::vector<size_t> missing_at;
  for (size_t k = 0; k < count; ++k) {
    {
      const CateStatsEngine& engine = *engines[k];
      MutexLock lock(engine.table_mu_);
      tables[k] = engine.table_;
    }
    if (!current(tables[k])) {
      missing.push_back(engines[k]);
      missing_at.push_back(k);
    }
  }
  if (!missing.empty()) {
    // One batched, sharded pass over every row for the engines that lack
    // table accums — the same walk a group of all rows would take, minus
    // the protected split. Built outside the engines' locks: the shard
    // fan-out may help-run tasks that reach for the same engine.
    const obs::TraceSpan span("table_pass");
    const Bitmap all(num_rows, /*value=*/true);
    const size_t width = missing.size();
    std::vector<std::vector<SubgroupAccums>> parts(ranges.size());
    const auto accumulate_shard = [&](size_t s) {
      parts[s].reserve(width);
      for (const CateStatsEngine* engine : missing) {
        parts[s].push_back(engine->MakeSubgroupAccums(/*split=*/false));
      }
      AccumulateRange(missing.data(), width, all, nullptr, ranges[s].first,
                      ranges[s].second, parts[s].data());
    };
    RecordPass(width);
    if (tasks == nullptr || ranges.size() <= 1) {
      for (size_t s = 0; s < ranges.size(); ++s) accumulate_shard(s);
    } else {
      tasks->ParallelFor(ranges.size(), accumulate_shard);
    }
    Metrics().table_pass_rows.Add(num_rows);
    for (size_t j = 0; j < width; ++j) {
      const CateStatsEngine& engine = *missing[j];
      auto table = std::make_shared<TableAccums>();
      table->ranges = ranges;
      table->usable = true;
      for (auto& part : parts) {
        // Without the int64 path no partial is int-valid, walked or not.
        table->usable = table->usable && part[j].overall.int_valid ==
                                             engine.int_path_enabled();
        table->shards.push_back(std::move(part[j].overall));
      }
      MutexLock lock(engine.table_mu_);
      if (!current(engine.table_)) {
        engine.table_ = std::move(table);
        ++*built;
      }
      tables[missing_at[j]] = engine.table_;
    }
  }
  for (const auto& table : tables) {
    if (!table->usable) return {};
  }
  return tables;
}

size_t CateStatsEngine::AccumulateChunk(const CateStatsEngine* const* engines,
                                        size_t count, const Bitmap& group,
                                        const Bitmap* protected_mask,
                                        CellShortcuts cells,
                                        const ShardPlan* plan,
                                        TaskGroup* tasks,
                                        SubgroupAccums* outs) {
  const bool split = protected_mask != nullptr;
  const std::vector<uint8_t>* prot_cells = cells.prot;
  // The walk splits on the protected bit only when the cells cannot.
  const Bitmap* walk_protected = prot_cells != nullptr ? nullptr
                                                       : protected_mask;
  std::vector<std::shared_ptr<const TableAccums>> tables;
  size_t built = 0;
  if (cells.group != nullptr) {
    tables = TableAccumsFor(engines, count, group.size(), plan, tasks, &built);
  }
  const bool from_table = !tables.empty();
  AccumMetrics& metrics = Metrics();
  if (from_table) metrics.groups_from_cells.Add(count);
  if (prot_cells != nullptr) metrics.split_from_cells.Add(count);
  if (!from_table) RecordPass(count);

  // Fills one shard's (or the unsharded pass's) fresh partials: from the
  // table accums, or by walking the shard's word range; then routes the
  // protected split from cells.
  const auto fill = [&](size_t s, size_t word_begin, size_t word_end,
                        SubgroupAccums* partial) {
    for (size_t k = 0; k < count; ++k) {
      partial[k] = engines[k]->MakeSubgroupAccums(split);
    }
    if (!from_table) {
      AccumulateRange(engines, count, group, walk_protected, word_begin,
                      word_end, partial);
    }
    if (from_table || prot_cells != nullptr) {
      for (size_t k = 0; k < count; ++k) {
        engines[k]->FillFromCells(
            from_table ? &tables[k]->shards[s] : nullptr, cells.group,
            prot_cells, &partial[k]);
      }
    }
  };
  if (plan == nullptr || plan->num_shards() <= 1) {
    fill(0, 0, group.num_words(), outs);
    return built;
  }
  assert(plan->num_rows() == group.size());
  const size_t shards = plan->num_shards();

  // Per-shard partials, K per shard, accumulated independently over each
  // shard's word range. The IPW row-level fallback (numeric confounders)
  // re-walks the whole group inside Solve and is row-order deterministic
  // either way.
  std::vector<std::vector<SubgroupAccums>> parts(shards);
  auto accumulate_shard = [&](size_t s) {
    const obs::TraceSpan shard_span("shard", static_cast<int64_t>(s));
    const ShardPlan::Shard& shard = plan->shard(s);
    parts[s].resize(count);
    fill(s, shard.word_begin, shard.word_end, parts[s].data());
  };
  if (tasks == nullptr || from_table) {
    // Deriving from the table copies O(cells) slots: no fan-out needed.
    for (size_t s = 0; s < shards; ++s) accumulate_shard(s);
  } else {
    // Child tasks of the caller's group; Wait() inside ParallelFor helps
    // (executes pending shard tasks) so this nests freely under a
    // pattern task on the same scheduler.
    tasks->ParallelFor(shards, accumulate_shard);
  }

  // Merge per treatment in ascending shard order — fixed by the plan,
  // not by thread scheduling — so the result is deterministic for this
  // shard count and independent of the batch width.
  for (size_t k = 0; k < count; ++k) {
    const CateStatsEngine& engine = *engines[k];
    outs[k] = std::move(parts[0][k]);
    for (size_t s = 1; s < shards; ++s) {
      engine.MergeAccum(&outs[k].overall, parts[s][k].overall);
      if (split) {
        engine.MergeAccum(&outs[k].prot, parts[s][k].prot);
        engine.MergeAccum(&outs[k].nonprot, parts[s][k].nonprot);
      }
    }
  }
  return built;
}

std::vector<std::vector<size_t>> CateStatsEngine::GroupByPartition(
    const std::vector<const CateStatsEngine*>& engines) {
  std::vector<std::vector<size_t>> batches;
  std::vector<const ConfounderPartition*> keys;
  for (size_t i = 0; i < engines.size(); ++i) {
    if (engines[i] == nullptr) continue;
    const ConfounderPartition* part = engines[i]->partition_.get();
    const size_t b = static_cast<size_t>(
        std::find(keys.begin(), keys.end(), part) - keys.begin());
    if (b == keys.size()) {
      keys.push_back(part);
      batches.emplace_back();
    }
    batches[b].push_back(i);
  }
  return batches;
}

size_t CateStatsEngine::AccumulateBatch(
    const std::vector<const CateStatsEngine*>& engines, const Bitmap& group,
    const Pattern* group_pattern, const Bitmap* protected_mask,
    const Pattern* protected_pattern, const ShardPlan* plan, TaskGroup* tasks,
    const AccumsConsumer& consume) {
  if (engines.empty()) return 0;
  const CateStatsEngine& lead = *engines[0];
  const ConfounderPartition& part = *lead.partition_;
  // Cell memberships, resolved once for the whole batch (one partition).
  // The group shortcut needs table accums, which are unsplit, so a
  // requested split must come from cells too; and only cache-sized table
  // accums are kept, so a wide partition walks as before.
  std::shared_ptr<const std::vector<uint8_t>> prot_cells, group_cells;
  if (protected_mask != nullptr && protected_pattern != nullptr) {
    prot_cells = part.MemoCellsMatching(*lead.df_, *protected_pattern);
  }
  const size_t shards =
      plan == nullptr ? 1 : std::max<size_t>(1, plan->num_shards());
  if (group_pattern != nullptr &&
      (protected_mask == nullptr || prot_cells != nullptr) &&
      shards * lead.AccumBytes() <= kBatchAccumBytes) {
    group_cells = part.CellsMatching(*lead.df_, *group_pattern);
  }
  assert(prot_cells == nullptr || prot_cells->size() == part.cells().size());
  const CellShortcuts cells{group_cells.get(), prot_cells.get()};

  // Split the batch so one walk's accumulators fit kBatchAccumBytes: the
  // width follows from the partition's cells and the accum shape alone.
  const size_t sinks =
      protected_mask != nullptr && prot_cells == nullptr ? 3 : 1;
  const size_t treatment_bytes = sinks * lead.AccumBytes();
  const size_t width =
      std::min(engines.size(),
               std::max<size_t>(1, kBatchAccumBytes / treatment_bytes));
  std::vector<SubgroupAccums> chunk(width);
  size_t built = 0;
  for (size_t begin = 0; begin < engines.size(); begin += width) {
    const size_t count = std::min(width, engines.size() - begin);
    {
      const obs::TraceSpan span("accumulate");
      built += AccumulateChunk(engines.data() + begin, count, group,
                               protected_mask, cells, plan, tasks,
                               chunk.data());
    }
    for (size_t k = 0; k < count; ++k) consume(begin + k, std::move(chunk[k]));
  }
  return built;
}

Result<CateEstimate> CateStatsEngine::Solve(const Accum& acc,
                                            const Slice& slice,
                                            size_t min_group_size) const {
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  switch (options_.method) {
    case CateMethod::kRegression: {
      static obs::Counter& solves =
          registry.GetCounter("estimation.solve_regression");
      solves.Increment();
      return SolveRegression(acc, min_group_size);
    }
    case CateMethod::kStratified: {
      static obs::Counter& solves =
          registry.GetCounter("estimation.solve_stratified");
      solves.Increment();
      return SolveStratified(acc, min_group_size);
    }
    case CateMethod::kIpw:
      // The cell/row split is counted inside SolveIpw — only there is it
      // known whether the grouped-cell fit applies or the per-row
      // fallback runs.
      return SolveIpw(acc, slice, min_group_size);
  }
  return Status::Internal("unknown CATE method");
}

Result<CateEstimate> CateStatsEngine::SolveRegression(
    const Accum& acc, size_t min_group_size) const {
  if (acc.n_treated < min_group_size || acc.n_control < min_group_size) {
    return Status::FailedPrecondition(
        "insufficient overlap: " + std::to_string(acc.n_treated) +
        " treated / " + std::to_string(acc.n_control) + " control rows");
  }
  const auto& cells = partition_->cells();
  const auto& nf = partition_->numeric_features();
  const size_t m = partition_->num_numeric();
  const size_t mm = m * (m + 1) / 2;
  const size_t p = 2 + partition_->features().size();

  // Assemble X'X / X'y / y'y from the cell stats: within a cell the
  // design row is [1, arm, one-hot(c), z], with only z varying by row, so
  // every X'X entry is a weighted count, a z-moment or a z-product moment
  // of the cell. The sums equal a per-(cell, arm) double assembly bit for
  // bit. The count entries (rows/columns 1, T and one-hot) are integers
  // below 2^53, exact in any order, so they take both arms of a cell in
  // one add. Every other FP sum (X'y, y'y, moments) gets its adds in
  // ascending cell -> arm order; begun at +0.0 it is never -0.0, so an
  // empty arm adds +0.0 without changing it, and only empty cells are
  // skipped. Absent one-hot slots land in a sink row/column p.
  const size_t width = partition_->onehot_width();
  const size_t P = p + 1;
  struct Scratch {
    std::vector<uint32_t> live;  // non-empty cells
    std::vector<double> sums;    // P x P
    std::vector<double> xty;     // P
    std::vector<double> xtx;     // p x p
    OlsFit fit;
  };
  thread_local Scratch s;
  s.live.resize(cells.size());
  size_t num_live = 0;
  for (size_t c = 0; c < cells.size(); ++c) {
    s.live[num_live] = static_cast<uint32_t>(c);
    num_live += (acc.n[2 * c] | acc.n[2 * c + 1]) != 0;
  }
  s.sums.assign(P * P, 0.0);
  s.xty.assign(P, 0.0);
  double* const sums = s.sums.data();
  double* const xty = s.xty.data();
  double xty_1 = 0.0, xty_t = 0.0, yty = 0.0;
  for (size_t q = 0; q < num_live; ++q) {
    const size_t c = s.live[q];
    const uint32_t n[2] = {acc.n[2 * c], acc.n[2 * c + 1]};
    const auto arm_sum = [&](const std::vector<double>& v, size_t arm,
                             size_t stride, size_t k) {
      return n[arm] != 0 ? v[(2 * c + arm) * stride + k] : 0.0;
    };
    const double sy0 = arm_sum(acc.sy, 0, 1, 0);
    const double sy1 = arm_sum(acc.sy, 1, 1, 0);
    xty_1 += sy0;
    xty_1 += sy1;
    xty_t += sy1;
    yty += arm_sum(acc.syy, 0, 1, 0);
    yty += arm_sum(acc.syy, 1, 1, 0);
    const double nc = static_cast<double>(n[0]) + n[1];
    const double n1 = n[1];
    sums[0] += nc;  // (1, 1)
    sums[1] += n1;  // (1, T)
    const uint32_t* onehot = partition_->onehot(c);
    for (size_t i = 0; i < width; ++i) {
      const size_t a = 2 + onehot[i];
      sums[a] += nc;      // (1, f)
      sums[P + a] += n1;  // (T, f)
      for (size_t j = i + 1; j < width; ++j) {
        sums[a * P + 2 + onehot[j]] += nc;  // (f, g)
      }
      xty[a] += sy0;
      xty[a] += sy1;
    }
    for (size_t j = 0, t = 0; j < m; ++j) {
      const size_t zj = 2 + nf[j];
      for (size_t arm = 0; arm < 2; ++arm) {
        const double sz = arm_sum(acc.zsum, arm, m, j);
        sums[zj] += sz;                    // (1, z_j)
        if (arm != 0) sums[P + zj] += sz;  // (T, z_j)
        for (size_t i = 0; i < width; ++i) {
          const size_t a = 2 + onehot[i];
          sums[a <= zj ? a * P + zj : zj * P + a] += sz;  // (f, z_j)
        }
        xty[zj] += arm_sum(acc.zysum, arm, m, j);
      }
      for (size_t k = j; k < m; ++k, ++t) {
        for (size_t arm = 0; arm < 2; ++arm) {
          sums[zj * P + 2 + nf[k]] += arm_sum(acc.zzsum, arm, mm, t);
        }
      }
    }
  }
  xty[0] = xty_1;
  xty[1] = xty_t;
  // A 0/1 column's square sums to its count: (T, T) = (1, T) and
  // (f, f) = (1, f) for every one-hot f.
  sums[P + 1] = sums[1];
  for (size_t f = 0; f + 2 < p; ++f) {
    if (partition_->features()[f].categorical) {
      sums[(2 + f) * P + 2 + f] = sums[2 + f];
    }
  }
  s.xtx.resize(p * p);
  for (size_t i = 0; i < p; ++i) {
    std::copy(sums + i * P + i, sums + i * P + p, s.xtx.data() + i * p + i);
  }
  OlsFit& fit = s.fit;
  FAIRCAP_RETURN_NOT_OK(SolveNormalEquations(s.xtx.data(), xty, yty, acc.rows,
                                             p, options_.ridge, &fit));
  CateEstimate est;
  est.cate = fit.beta[1];
  est.std_error = fit.std_errors[1];
  est.n_treated = acc.n_treated;
  est.n_control = acc.n_control;
  return est;
}

Result<CateEstimate> CateStatsEngine::SolveStratified(
    const Accum& acc, size_t min_group_size) const {
  // The exact oracle combine (same arithmetic, same std::map-ascending
  // stratum order), fed from the sliced cell stats — bit-for-bit equal.
  double weighted_effect = 0.0;
  double weighted_var = 0.0;
  size_t n_used = 0, n_treated = 0, n_control = 0;
  for (const uint32_t c : partition_->cells_by_stratum()) {
    const size_t i1 = static_cast<size_t>(c) * 2 + 1;
    const size_t i0 = static_cast<size_t>(c) * 2;
    const size_t nt = acc.n[i1];
    const size_t nc = acc.n[i0];
    if (nt + nc == 0) continue;  // cell untouched by this subgroup
    if (nt < options_.min_stratum_arm || nc < options_.min_stratum_arm) {
      continue;  // no overlap in this stratum (positivity violation)
    }
    const size_t n_s = nt + nc;
    const double m1 = acc.sy[i1] / static_cast<double>(nt);
    const double m0 = acc.sy[i0] / static_cast<double>(nc);
    weighted_effect += static_cast<double>(n_s) * (m1 - m0);
    const auto arm_var = [](size_t n, double sum, double sum_sq) {
      if (n < 2) return 0.0;
      const double mean = sum / static_cast<double>(n);
      return std::max(0.0,
                      (sum_sq - sum * mean) / static_cast<double>(n - 1));
    };
    const double v1 =
        arm_var(nt, acc.sy[i1], acc.syy[i1]) / static_cast<double>(nt);
    const double v0 =
        arm_var(nc, acc.sy[i0], acc.syy[i0]) / static_cast<double>(nc);
    weighted_var += static_cast<double>(n_s) * static_cast<double>(n_s) *
                    (v1 + v0);
    n_used += n_s;
    n_treated += nt;
    n_control += nc;
  }
  if (n_treated < min_group_size || n_control < min_group_size) {
    return Status::FailedPrecondition(
        "insufficient overlap after stratification: " +
        std::to_string(n_treated) + " treated / " +
        std::to_string(n_control) + " control rows");
  }
  CateEstimate est;
  est.cate = weighted_effect / static_cast<double>(n_used);
  est.std_error = std::sqrt(weighted_var) / static_cast<double>(n_used);
  est.n_treated = n_treated;
  est.n_control = n_control;
  return est;
}

Result<CateEstimate> CateStatsEngine::SolveIpw(const Accum& acc,
                                               const Slice& slice,
                                               size_t min_group_size) const {
  if (acc.n_treated < min_group_size || acc.n_control < min_group_size) {
    return Status::FailedPrecondition(
        "insufficient overlap: " + std::to_string(acc.n_treated) +
        " treated / " + std::to_string(acc.n_control) + " control rows");
  }
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  if (partition_->num_numeric() > 0) {
    // The propensity design varies within a cell; replay the oracle's
    // per-row path (design served from the partition's cached columns).
    static obs::Counter& row_solves =
        registry.GetCounter("estimation.solve_ipw_rows");
    row_solves.Increment();
    return SolveIpwRows(slice, min_group_size);
  }
  static obs::Counter& cell_solves =
      registry.GetCounter("estimation.solve_ipw_cells");
  cell_solves.Increment();

  // Categorical-only confounders: the propensity design is constant per
  // cell, so the logistic fit runs on grouped counts and the Hajek sums
  // come straight from the cell stats.
  const auto& cells = partition_->cells();
  const size_t p = 1 + partition_->features().size();
  const uint32_t no_feature = static_cast<uint32_t>(p - 1);
  std::vector<double> x;
  std::vector<double> trials, successes;
  std::vector<uint32_t> touched;
  for (uint32_t c = 0; c < cells.size(); ++c) {
    const uint32_t n1 = acc.n[static_cast<size_t>(c) * 2 + 1];
    const uint32_t n0 = acc.n[static_cast<size_t>(c) * 2];
    if (n1 + n0 == 0) continue;
    const size_t base = x.size();
    x.resize(base + p, 0.0);
    x[base] = 1.0;
    const uint32_t* onehot = partition_->onehot(c);
    for (size_t i = 0; i < partition_->onehot_width(); ++i) {
      if (onehot[i] != no_feature) x[base + 1 + onehot[i]] = 1.0;
    }
    trials.push_back(static_cast<double>(n1 + n0));
    successes.push_back(static_cast<double>(n1));
    touched.push_back(c);
  }
  const Result<LogisticFit> propensity =
      FitLogisticGrouped(x, touched.size(), p, trials, successes);
  if (!propensity.ok()) return propensity.status();

  const double clip = options_.propensity_clip;
  double sum_w1 = 0.0, sum_w1y = 0.0, sum_w0 = 0.0, sum_w0y = 0.0;
  std::vector<double> e_of(touched.size());
  for (size_t i = 0; i < touched.size(); ++i) {
    const double e = std::clamp(
        PredictLogistic(propensity->beta, &x[i * p]), clip, 1.0 - clip);
    e_of[i] = e;
    const size_t c2 = static_cast<size_t>(touched[i]) * 2;
    const double n1 = static_cast<double>(acc.n[c2 + 1]);
    const double n0 = static_cast<double>(acc.n[c2]);
    sum_w1 += n1 / e;
    sum_w1y += acc.sy[c2 + 1] / e;
    sum_w0 += n0 / (1.0 - e);
    sum_w0y += acc.sy[c2] / (1.0 - e);
  }
  const double mean1 = sum_w1y / sum_w1;
  const double mean0 = sum_w0y / sum_w0;

  // Per-arm Hajek variance: within a cell the weight is constant, so
  // Σ_r (w (y_r - mean))² = w² (Σy² - 2 mean Σy + n mean²).
  double var1_acc = 0.0, var0_acc = 0.0;
  for (size_t i = 0; i < touched.size(); ++i) {
    const double e = e_of[i];
    const size_t c2 = static_cast<size_t>(touched[i]) * 2;
    const double n1 = static_cast<double>(acc.n[c2 + 1]);
    const double n0 = static_cast<double>(acc.n[c2]);
    const double w1 = 1.0 / e;
    const double w0 = 1.0 / (1.0 - e);
    const double ssd1 = std::max(
        0.0, acc.syy[c2 + 1] - 2.0 * mean1 * acc.sy[c2 + 1] +
                 n1 * mean1 * mean1);
    const double ssd0 = std::max(
        0.0, acc.syy[c2] - 2.0 * mean0 * acc.sy[c2] + n0 * mean0 * mean0);
    var1_acc += w1 * w1 * ssd1;
    var0_acc += w0 * w0 * ssd0;
  }
  CateEstimate est;
  est.cate = mean1 - mean0;
  est.std_error = std::sqrt(var1_acc / (sum_w1 * sum_w1) +
                            var0_acc / (sum_w0 * sum_w0));
  est.n_treated = acc.n_treated;
  est.n_control = acc.n_control;
  return est;
}

Result<CateEstimate> CateStatsEngine::SolveIpwRows(
    const Slice& slice, size_t min_group_size) const {
  (void)min_group_size;  // overlap already checked on the accumulated counts
  const int32_t* cell_of_row = partition_->cell_of_row().data();
  const double* y = partition_->outcome().data();
  const size_t m = partition_->num_numeric();
  const auto& nf = partition_->numeric_features();
  const size_t p = 1 + partition_->features().size();
  const uint32_t no_feature = static_cast<uint32_t>(p - 1);

  std::vector<double> design;
  std::vector<double> labels;
  std::vector<double> outcomes;
  std::vector<uint8_t> is_treated_row;
  const uint64_t* gw = slice.group->words();
  const uint64_t* tw = treated_->words();
  const uint64_t* pw =
      slice.protected_mask != nullptr ? slice.protected_mask->words() : nullptr;
  const size_t num_words = slice.group->num_words();
  for (size_t w = 0; w < num_words; ++w) {
    uint64_t bits = gw[w];
    if (pw != nullptr) bits &= slice.protected_member ? pw[w] : ~pw[w];
    if (bits == 0) continue;
    const uint64_t tword = tw[w];
    while (bits != 0) {
      const int b = __builtin_ctzll(bits);
      bits &= bits - 1;
      const size_t r = w * 64 + static_cast<size_t>(b);
      const int32_t c = cell_of_row[r];
      if (c < 0) continue;
      const size_t base = design.size();
      design.resize(base + p, 0.0);
      design[base] = 1.0;
      const uint32_t* onehot = partition_->onehot(c);
      for (size_t i = 0; i < partition_->onehot_width(); ++i) {
        if (onehot[i] != no_feature) design[base + 1 + onehot[i]] = 1.0;
      }
      for (size_t j = 0; j < m; ++j) {
        design[base + 1 + nf[j]] = partition_->numeric_values()[j][r];
      }
      const bool t = ((tword >> b) & 1) != 0;
      labels.push_back(t ? 1.0 : 0.0);
      outcomes.push_back(y[r]);
      is_treated_row.push_back(t ? 1 : 0);
    }
  }
  // Same ascending row order, same design values as the oracle loop —
  // HajekIpwFromRows is the one shared implementation.
  return HajekIpwFromRows(design, labels.size(), p, labels, outcomes,
                          is_treated_row, options_.propensity_clip);
}

void CateStatsEngine::EnsureFp(Accum* acc) {
  if (!acc->int_valid) return;
  // Exact by the safe_int_rows guard: every |Σy| and Σy² is below 2^53.
  // The FP arrays are all-zero while int_valid, so this is an assignment.
  for (size_t i = 0; i < acc->isy.size(); ++i) {
    acc->sy[i] = static_cast<double>(acc->isy[i]);
    acc->syy[i] = static_cast<double>(acc->isyy[i]);
  }
  acc->int_valid = false;
}

void CateStatsEngine::MergeAccum(Accum* into, const Accum& from) const {
  into->rows += from.rows;
  into->n_treated += from.n_treated;
  into->n_control += from.n_control;
  assert(into->n.size() == from.n.size());
  for (size_t i = 0; i < from.n.size(); ++i) into->n[i] += from.n[i];
  // Keep merging in int64 while the combined rows provably stay under the
  // exactness budget. Past it — or when either side already fell back to
  // FP — convert the int partials exactly (each is under the budget on
  // its own) and merge in FP, which is what the pure-FP path would have
  // summed, in the same ascending-shard slot order.
  if (into->int_valid && from.int_valid &&
      into->rows <= partition_->safe_int_rows()) {
    for (size_t i = 0; i < from.isy.size(); ++i) into->isy[i] += from.isy[i];
    for (size_t i = 0; i < from.isyy.size(); ++i) {
      into->isyy[i] += from.isyy[i];
    }
  } else {
    EnsureFp(into);
    if (from.int_valid) {
      for (size_t i = 0; i < from.isy.size(); ++i) {
        into->sy[i] += static_cast<double>(from.isy[i]);
        into->syy[i] += static_cast<double>(from.isyy[i]);
      }
    } else {
      for (size_t i = 0; i < from.sy.size(); ++i) into->sy[i] += from.sy[i];
      for (size_t i = 0; i < from.syy.size(); ++i) {
        into->syy[i] += from.syy[i];
      }
    }
  }
  for (size_t i = 0; i < from.zsum.size(); ++i) into->zsum[i] += from.zsum[i];
  for (size_t i = 0; i < from.zysum.size(); ++i) {
    into->zysum[i] += from.zysum[i];
  }
  for (size_t i = 0; i < from.zzsum.size(); ++i) {
    into->zzsum[i] += from.zzsum[i];
  }
}

CateStatsEngine::SubgroupAccums CateStatsEngine::AccumulateDelta(
    const Bitmap& group, const Bitmap* protected_mask,
    size_t row_begin) const {
  assert(group.size() == treated_->size());
  assert(row_begin <= group.size());
  // Scratch view of `group` restricted to the delta tail: only the words
  // at and past the boundary are copied (the kernel never reads words
  // below word_begin, so the resident words may stay zero), and the
  // boundary word's resident bits are cleared. Walking words ascending
  // accumulates the delta rows in ascending row order — the order a cold
  // pass would reach them after all resident rows.
  const size_t word_begin = row_begin / 64;
  const size_t num_words = group.num_words();
  Bitmap scratch(group.size(), /*value=*/false);
  uint64_t* sw = scratch.mutable_words();
  const uint64_t* gw = group.words();
  for (size_t w = word_begin; w < num_words; ++w) sw[w] = gw[w];
  const size_t boundary_bit = row_begin % 64;
  if (boundary_bit != 0) {
    sw[word_begin] &= ~((uint64_t{1} << boundary_bit) - 1);
  }
  const obs::TraceSpan span("accumulate");
  SubgroupAccums out = MakeSubgroupAccums(protected_mask != nullptr);
  const CateStatsEngine* self = this;
  RecordPass(1);
  AccumulateRange(&self, 1, scratch, protected_mask, word_begin, num_words,
                  &out);
  return out;
}

void CateStatsEngine::MergeSubgroupAccums(SubgroupAccums* into,
                                          const SubgroupAccums& from) const {
  assert(into->split == from.split);
  GrowAccum(&into->overall);
  MergeAccum(&into->overall, from.overall);
  if (into->split) {
    GrowAccum(&into->prot);
    GrowAccum(&into->nonprot);
    MergeAccum(&into->prot, from.prot);
    MergeAccum(&into->nonprot, from.nonprot);
  }
  into->rows_covered = std::max(into->rows_covered, from.rows_covered);
}

void CateStatsEngine::GrowAccum(Accum* acc) const {
  // A cached accum may predate cells the delta interned: grow it to the
  // current slot count. New cells append at the end, so resident slot
  // indices are unchanged — but the two kernel scratch slots sat at the
  // OLD end, which is now inside the real slot range, so their garbage
  // must be zeroed (they are write-only and never merged or solved).
  const size_t slots = partition_->cells().size() * 2;
  if (acc->n.empty() || acc->n.size() >= slots + 2) return;
  const size_t old_slots = acc->n.size() - 2;
  const auto grow_sinked = [&](auto& v) {
    if (v.empty()) return;
    v.resize(slots + 2, 0);
    v[old_slots] = 0;
    v[old_slots + 1] = 0;
  };
  grow_sinked(acc->n);
  grow_sinked(acc->sy);
  grow_sinked(acc->syy);
  grow_sinked(acc->isy);
  grow_sinked(acc->isyy);
  // Moment blocks have no scratch slots; the per-slot layout appends.
  const size_t m = partition_->num_numeric();
  if (!acc->zsum.empty()) acc->zsum.resize(slots * m, 0.0);
  if (!acc->zysum.empty()) acc->zysum.resize(slots * m, 0.0);
  if (!acc->zzsum.empty()) acc->zzsum.resize(slots * (m * (m + 1) / 2), 0.0);
}

CateSubgroupEstimates CateStatsEngine::SolveFromAccums(
    SubgroupAccums accums, const Bitmap& group, const Bitmap* protected_mask,
    size_t min_group_size, size_t min_subgroup_size,
    bool skip_subgroups_unless_positive) const {
  const obs::TraceSpan span("solve");
  GrowAccum(&accums.overall);
  GrowAccum(&accums.prot);
  GrowAccum(&accums.nonprot);
  EnsureFp(&accums.overall);
  EnsureFp(&accums.prot);
  EnsureFp(&accums.nonprot);
  CateSubgroupEstimates out;
  const Slice whole{&group, nullptr, false};
  out.overall = Solve(accums.overall, whole, min_group_size);
  if (protected_mask == nullptr) return out;
  if (skip_subgroups_unless_positive &&
      (!out.overall.ok() || out.overall->cate <= 0.0)) {
    return out;
  }
  const Slice prot_slice{&group, protected_mask, true};
  const Slice nonprot_slice{&group, protected_mask, false};
  out.protected_group = Solve(accums.prot, prot_slice, min_subgroup_size);
  out.nonprotected = Solve(accums.nonprot, nonprot_slice, min_subgroup_size);
  return out;
}

}  // namespace faircap
