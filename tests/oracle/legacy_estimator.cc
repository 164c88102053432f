#include "oracle/legacy_estimator.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <vector>

#include "causal/cate_stats_engine.h"
#include "causal/linear_model.h"

namespace faircap {
namespace oracle {
namespace {

Result<CateEstimate> EstimateRegression(
    const DataFrame& df, size_t outcome_attr, const CateOptions& options,
    const Bitmap& treated, const Bitmap& group,
    const std::vector<size_t>& adjustment, size_t min_group_size) {
  // Design: [intercept, T, one-hot(Z_cat levels 1..k-1)..., Z_num...].
  struct Feature {
    size_t attr;
    bool categorical;
    int32_t code;  // the level this column indicates (categorical)
  };
  std::vector<Feature> features;
  for (size_t attr : adjustment) {
    const Column& col = df.column(attr);
    if (col.type() == AttrType::kCategorical) {
      // Drop the first level as the reference category.
      for (size_t code = 1; code < col.num_categories(); ++code) {
        features.push_back({attr, true, static_cast<int32_t>(code)});
      }
    } else {
      features.push_back({attr, false, 0});
    }
  }
  const size_t p = 2 + features.size();
  OlsAccumulator acc(p);
  const Column& outcome = df.column(outcome_attr);
  std::vector<double> row(p);
  size_t n_treated = 0, n_control = 0;
  group.ForEach([&](size_t r) {
    if (outcome.IsNull(r)) return;
    row[0] = 1.0;
    const bool is_treated = treated.Get(r);
    row[1] = is_treated ? 1.0 : 0.0;
    for (size_t f = 0; f < features.size(); ++f) {
      const Feature& feat = features[f];
      const Column& col = df.column(feat.attr);
      if (col.IsNull(r)) {
        // Null confounders: treat as the reference level / zero.
        row[2 + f] = 0.0;
        continue;
      }
      if (feat.categorical) {
        row[2 + f] = col.code(r) == feat.code ? 1.0 : 0.0;
      } else {
        row[2 + f] = col.numeric(r);
      }
    }
    acc.AddRow(row.data(), outcome.numeric(r));
    if (is_treated) ++n_treated; else ++n_control;
  });

  if (n_treated < min_group_size || n_control < min_group_size) {
    return Status::FailedPrecondition(
        "insufficient overlap: " + std::to_string(n_treated) + " treated / " +
        std::to_string(n_control) + " control rows");
  }
  FAIRCAP_ASSIGN_OR_RETURN(const OlsFit fit, acc.Solve(options.ridge));
  CateEstimate est;
  est.cate = fit.beta[1];
  est.std_error = fit.std_errors[1];
  est.n_treated = n_treated;
  est.n_control = n_control;
  return est;
}

// Joint stratum id per row over `adjustment` attrs (numeric attrs are
// quantile-binned); -1 where any confounder is null.
std::vector<int64_t> StratumIds(const DataFrame& df,
                                const CateOptions& options,
                                const std::vector<size_t>& adjustment) {
  const size_t n = df.num_rows();
  std::vector<int64_t> ids(n, 0);
  // Precompute quantile bin edges for numeric confounders (shared with
  // the ConfounderPartition build so the two can never drift).
  std::vector<std::vector<double>> edges(adjustment.size());
  for (size_t a = 0; a < adjustment.size(); ++a) {
    const Column& col = df.column(adjustment[a]);
    if (col.type() != AttrType::kNumeric) continue;
    edges[a] = QuantileBinEdges(
        col, std::max<size_t>(1, options.numeric_confounder_bins));
  }
  for (size_t r = 0; r < n; ++r) {
    int64_t id = 0;
    for (size_t a = 0; a < adjustment.size(); ++a) {
      const Column& col = df.column(adjustment[a]);
      int64_t cell;
      if (col.IsNull(r)) {
        ids[r] = -1;
        break;
      }
      if (col.type() == AttrType::kCategorical) {
        cell = col.code(r);
        id = id * static_cast<int64_t>(col.num_categories() + 1) + cell;
      } else {
        const auto& e = edges[a];
        cell = static_cast<int64_t>(
            std::upper_bound(e.begin(), e.end(), col.numeric(r)) - e.begin());
        id = id * static_cast<int64_t>(e.size() + 2) + cell;
      }
    }
    if (ids[r] != -1) ids[r] = id;
  }
  return ids;
}

Result<CateEstimate> EstimateStratified(
    const DataFrame& df, size_t outcome_attr, const CateOptions& options,
    const Bitmap& treated, const Bitmap& group,
    const std::vector<size_t>& adjustment, size_t min_group_size) {
  const std::vector<int64_t> strata = StratumIds(df, options, adjustment);
  struct Arm {
    size_t n = 0;
    double sum = 0.0;
    double sum_sq = 0.0;
  };
  struct Cell {
    Arm treated;
    Arm control;
  };
  std::map<int64_t, Cell> cells;
  const Column& outcome = df.column(outcome_attr);
  group.ForEach([&](size_t r) {
    if (outcome.IsNull(r) || strata[r] < 0) return;
    Cell& cell = cells[strata[r]];
    Arm& arm = treated.Get(r) ? cell.treated : cell.control;
    const double y = outcome.numeric(r);
    ++arm.n;
    arm.sum += y;
    arm.sum_sq += y * y;
  });

  double weighted_effect = 0.0;
  double weighted_var = 0.0;
  size_t n_used = 0, n_treated = 0, n_control = 0;
  for (const auto& [stratum, cell] : cells) {
    if (cell.treated.n < options.min_stratum_arm ||
        cell.control.n < options.min_stratum_arm) {
      continue;  // no overlap in this stratum (positivity violation)
    }
    const size_t n_s = cell.treated.n + cell.control.n;
    const double m1 = cell.treated.sum / static_cast<double>(cell.treated.n);
    const double m0 = cell.control.sum / static_cast<double>(cell.control.n);
    weighted_effect += static_cast<double>(n_s) * (m1 - m0);
    // Within-arm variances for the standard error (0 when n=1).
    auto arm_var = [](const Arm& arm) {
      if (arm.n < 2) return 0.0;
      const double mean = arm.sum / static_cast<double>(arm.n);
      return std::max(0.0, (arm.sum_sq - arm.sum * mean) /
                               static_cast<double>(arm.n - 1));
    };
    const double v1 = arm_var(cell.treated) / static_cast<double>(cell.treated.n);
    const double v0 = arm_var(cell.control) / static_cast<double>(cell.control.n);
    weighted_var += static_cast<double>(n_s) * static_cast<double>(n_s) *
                    (v1 + v0);
    n_used += n_s;
    n_treated += cell.treated.n;
    n_control += cell.control.n;
  }
  if (n_treated < min_group_size || n_control < min_group_size) {
    return Status::FailedPrecondition(
        "insufficient overlap after stratification: " +
        std::to_string(n_treated) + " treated / " +
        std::to_string(n_control) + " control rows");
  }
  CateEstimate est;
  est.cate = weighted_effect / static_cast<double>(n_used);
  est.std_error =
      std::sqrt(weighted_var) / static_cast<double>(n_used);
  est.n_treated = n_treated;
  est.n_control = n_control;
  return est;
}

Result<CateEstimate> EstimateIpw(
    const DataFrame& df, size_t outcome_attr, const CateOptions& options,
    const Bitmap& treated, const Bitmap& group,
    const std::vector<size_t>& adjustment, size_t min_group_size) {
  // Propensity design: [intercept, one-hot(Z_cat levels 1..k-1), Z_num].
  struct Feature {
    size_t attr;
    bool categorical;
    int32_t code;
  };
  std::vector<Feature> features;
  for (size_t attr : adjustment) {
    const Column& col = df.column(attr);
    if (col.type() == AttrType::kCategorical) {
      for (size_t code = 1; code < col.num_categories(); ++code) {
        features.push_back({attr, true, static_cast<int32_t>(code)});
      }
    } else {
      features.push_back({attr, false, 0});
    }
  }
  const size_t p = 1 + features.size();

  const Column& outcome = df.column(outcome_attr);
  std::vector<double> design;
  std::vector<double> labels;
  std::vector<double> outcomes;
  std::vector<uint8_t> is_treated_row;
  group.ForEach([&](size_t r) {
    if (outcome.IsNull(r)) return;
    design.push_back(1.0);
    for (const Feature& feat : features) {
      const Column& col = df.column(feat.attr);
      if (col.IsNull(r)) {
        design.push_back(0.0);
      } else if (feat.categorical) {
        design.push_back(col.code(r) == feat.code ? 1.0 : 0.0);
      } else {
        design.push_back(col.numeric(r));
      }
    }
    const bool t = treated.Get(r);
    labels.push_back(t ? 1.0 : 0.0);
    outcomes.push_back(outcome.numeric(r));
    is_treated_row.push_back(t ? 1 : 0);
  });
  const size_t n = labels.size();
  size_t n_treated = 0;
  for (uint8_t t : is_treated_row) n_treated += t;
  const size_t n_control = n - n_treated;
  if (n_treated < min_group_size || n_control < min_group_size) {
    return Status::FailedPrecondition(
        "insufficient overlap: " + std::to_string(n_treated) + " treated / " +
        std::to_string(n_control) + " control rows");
  }

  // Fit + clipped Hajek weighting via the one shared implementation (the
  // sufficient-statistics engine's per-row fallback calls it too).
  return HajekIpwFromRows(design, n, p, labels, outcomes, is_treated_row,
                          options.propensity_clip);
}

}  // namespace

Result<CateEstimate> LegacyEstimate(const CateEstimator& est,
                                    const Pattern& intervention,
                                    const Bitmap& group,
                                    size_t min_group_size) {
  const DataFrame& df = est.data();
  const CateOptions& options = est.options();
  if (intervention.empty()) {
    return Status::InvalidArgument("intervention pattern must be non-empty");
  }
  if (min_group_size == 0) min_group_size = options.min_group_size;
  FAIRCAP_RETURN_NOT_OK(intervention.Validate(df));
  FAIRCAP_ASSIGN_OR_RETURN(const std::vector<size_t> adjustment,
                           est.AdjustmentAttrs(intervention));
  const std::shared_ptr<const Bitmap> treated_mask =
      est.TreatedMask(intervention);
  const Bitmap& treated = *treated_mask;
  const size_t outcome_attr = est.outcome_attr();
  switch (options.method) {
    case CateMethod::kRegression:
      return EstimateRegression(df, outcome_attr, options, treated, group,
                                adjustment, min_group_size);
    case CateMethod::kStratified:
      return EstimateStratified(df, outcome_attr, options, treated, group,
                                adjustment, min_group_size);
    case CateMethod::kIpw:
      return EstimateIpw(df, outcome_attr, options, treated, group,
                         adjustment, min_group_size);
  }
  return Status::Internal("unknown CATE method");
}

}  // namespace oracle
}  // namespace faircap
