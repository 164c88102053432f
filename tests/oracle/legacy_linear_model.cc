#include "oracle/legacy_linear_model.h"

#include <algorithm>
#include <cmath>
#include <string>

namespace faircap {
namespace oracle {
namespace {

// In-place Cholesky factorization A = L L'. Returns false if A is not
// positive definite. Lower triangle of `a` receives L.
bool Cholesky(std::vector<double>& a, size_t p) {
  for (size_t j = 0; j < p; ++j) {
    double d = a[j * p + j];
    for (size_t k = 0; k < j; ++k) d -= a[j * p + k] * a[j * p + k];
    if (d <= 0.0 || !std::isfinite(d)) return false;
    const double l_jj = std::sqrt(d);
    a[j * p + j] = l_jj;
    for (size_t i = j + 1; i < p; ++i) {
      double s = a[i * p + j];
      for (size_t k = 0; k < j; ++k) s -= a[i * p + k] * a[j * p + k];
      a[i * p + j] = s / l_jj;
    }
  }
  return true;
}

// Solves L L' x = b given the Cholesky factor in the lower triangle.
void CholeskySolve(const std::vector<double>& l, size_t p,
                   std::vector<double>& b) {
  // Forward: L z = b.
  for (size_t i = 0; i < p; ++i) {
    double s = b[i];
    for (size_t k = 0; k < i; ++k) s -= l[i * p + k] * b[k];
    b[i] = s / l[i * p + i];
  }
  // Backward: L' x = z.
  for (size_t i = p; i-- > 0;) {
    double s = b[i];
    for (size_t k = i + 1; k < p; ++k) s -= l[k * p + i] * b[k];
    b[i] = s / l[i * p + i];
  }
}

}  // namespace

Result<std::vector<double>> LegacyInvertSpd(std::vector<double> a, size_t p) {
  if (a.size() != p * p) {
    return Status::InvalidArgument("InvertSpd: dimension mismatch");
  }
  if (!Cholesky(a, p)) {
    return Status::FailedPrecondition("matrix is not positive definite");
  }
  std::vector<double> inv(p * p, 0.0);
  std::vector<double> e(p);
  for (size_t col = 0; col < p; ++col) {
    std::fill(e.begin(), e.end(), 0.0);
    e[col] = 1.0;
    CholeskySolve(a, p, e);
    for (size_t row = 0; row < p; ++row) inv[row * p + col] = e[row];
  }
  return inv;
}

Result<OlsFit> LegacySolveNormalEquations(const std::vector<double>& xtx,
                                          const std::vector<double>& xty,
                                          double yty, size_t n, size_t p,
                                          double ridge) {
  if (xtx.size() != p * p || xty.size() != p) {
    return Status::InvalidArgument("SolveNormalEquations: dimension mismatch");
  }
  if (n < p) {
    return Status::FailedPrecondition(
        "OLS needs at least as many rows as features (" +
        std::to_string(n) + " < " + std::to_string(p) + ")");
  }
  // Mirror the upper triangle and add the ridge.
  std::vector<double> a(p * p);
  for (size_t i = 0; i < p; ++i) {
    for (size_t j = 0; j < p; ++j) {
      a[i * p + j] = i <= j ? xtx[i * p + j] : xtx[j * p + i];
    }
    a[i * p + i] += ridge;
  }
  FAIRCAP_ASSIGN_OR_RETURN(std::vector<double> inv, LegacyInvertSpd(a, p));

  OlsFit fit;
  fit.n = n;
  fit.beta.assign(p, 0.0);
  for (size_t i = 0; i < p; ++i) {
    for (size_t j = 0; j < p; ++j) {
      fit.beta[i] += inv[i * p + j] * xty[j];
    }
  }
  // Residual sum of squares: y'y - 2 beta'X'y + beta'X'X beta, folded as
  // y'y - beta'X'y (valid at the normal-equation solution up to ridge).
  double beta_xty = 0.0;
  for (size_t i = 0; i < p; ++i) beta_xty += fit.beta[i] * xty[i];
  const double rss = std::max(0.0, yty - beta_xty);
  const size_t dof = n > p ? n - p : 1;
  fit.sigma2 = rss / static_cast<double>(dof);
  fit.std_errors.resize(p);
  for (size_t i = 0; i < p; ++i) {
    fit.std_errors[i] = std::sqrt(std::max(0.0, fit.sigma2 * inv[i * p + i]));
  }
  return fit;
}

OlsAccumulator::OlsAccumulator(size_t p)
    : p_(p), xtx_(p * p, 0.0), xty_(p, 0.0) {}

void OlsAccumulator::AddRow(const double* x, double y) {
  for (size_t i = 0; i < p_; ++i) {
    const double xi = x[i];
    if (xi == 0.0) continue;  // design rows are sparse one-hots
    for (size_t j = i; j < p_; ++j) {
      xtx_[i * p_ + j] += xi * x[j];
    }
    xty_[i] += xi * y;
  }
  yty_ += y * y;
  ++n_;
}

Result<OlsFit> OlsAccumulator::Solve(double ridge) const {
  return LegacySolveNormalEquations(xtx_, xty_, yty_, n_, p_, ridge);
}

Result<CateEstimate> LegacySolveRegression(const DataFrame& df,
                                           const CateStatsEngine& engine,
                                           CateStatsEngine::Accum acc,
                                           size_t min_group_size) {
  if (acc.n_treated < min_group_size || acc.n_control < min_group_size) {
    return Status::FailedPrecondition("insufficient overlap");
  }
  if (acc.int_valid) {
    for (size_t i = 0; i < acc.isy.size(); ++i) {
      acc.sy[i] = static_cast<double>(acc.isy[i]);
      acc.syy[i] = static_cast<double>(acc.isyy[i]);
    }
  }
  const ConfounderPartition& partition = engine.partition();
  const auto& cells = partition.cells();
  const auto& nf = partition.numeric_features();
  const size_t m = partition.num_numeric();
  const size_t mm = m * (m + 1) / 2;
  const size_t p = 2 + partition.features().size();

  // Within a cell the design row is [1, arm, one-hot(c), z], with only z
  // varying by row — so every X'X entry is a weighted count, a z-moment,
  // or a z-product moment of the cell.
  // A cell's one-hot features are read off one of its rows, as the
  // per-row design build does: feature f is 1 where the row's code is
  // f's level, and a null confounder sets none of its features.
  std::vector<size_t> row_of_cell(cells.size(), df.num_rows());
  for (size_t r = 0; r < partition.cell_of_row().size(); ++r) {
    const int32_t c = partition.cell_of_row()[r];
    if (c >= 0 && row_of_cell[c] == df.num_rows()) row_of_cell[c] = r;
  }
  std::vector<double> xtx(p * p, 0.0);
  std::vector<double> xty(p, 0.0);
  double yty = 0.0;
  std::vector<uint32_t> onehot;
  for (size_t c = 0; c < cells.size(); ++c) {
    // The cell's features, ascending.
    onehot.clear();
    const size_t r = row_of_cell[c];
    for (size_t f = 0; f < partition.features().size(); ++f) {
      const ConfounderPartition::Feature& feat = partition.features()[f];
      if (!feat.categorical || r == df.num_rows()) continue;
      const Column& col = df.column(feat.attr);
      if (!col.IsNull(r) && col.code(r) == feat.code) {
        onehot.push_back(static_cast<uint32_t>(f));
      }
    }
    for (int arm = 0; arm < 2; ++arm) {
      const size_t idx = c * 2 + static_cast<size_t>(arm);
      const uint32_t cnt = acc.n[idx];
      if (cnt == 0) continue;
      const double nd = static_cast<double>(cnt);
      const double sy = acc.sy[idx];
      xtx[0] += nd;
      if (arm != 0) {
        xtx[1] += nd;      // (0, T)
        xtx[p + 1] += nd;  // (T, T)
      }
      xty[0] += sy;
      if (arm != 0) xty[1] += sy;
      yty += acc.syy[idx];
      for (const uint32_t f : onehot) {
        const size_t col = 2 + f;
        xtx[col] += nd;                    // (0, f)
        if (arm != 0) xtx[p + col] += nd;  // (T, f)
        xty[col] += sy;
      }
      for (size_t i = 0; i < onehot.size(); ++i) {
        for (size_t j = i; j < onehot.size(); ++j) {
          xtx[(2 + onehot[i]) * p + (2 + onehot[j])] += nd;
        }
      }
      if (m > 0) {
        const size_t zbase = idx * m;
        for (size_t j = 0; j < m; ++j) {
          const double sz = acc.zsum[zbase + j];
          const size_t colj = 2 + nf[j];
          xtx[colj] += sz;                    // (0, z_j)
          if (arm != 0) xtx[p + colj] += sz;  // (T, z_j)
          for (const uint32_t f : onehot) {
            const size_t a = 2 + f;
            if (a <= colj) {
              xtx[a * p + colj] += sz;
            } else {
              xtx[colj * p + a] += sz;
            }
          }
          xty[colj] += acc.zysum[zbase + j];
        }
        const size_t zzbase = idx * mm;
        for (size_t i = 0, t = 0; i < m; ++i) {
          for (size_t j = i; j < m; ++j, ++t) {
            xtx[(2 + nf[i]) * p + (2 + nf[j])] += acc.zzsum[zzbase + t];
          }
        }
      }
    }
  }
  FAIRCAP_ASSIGN_OR_RETURN(
      const OlsFit fit,
      LegacySolveNormalEquations(xtx, xty, yty, acc.rows, p,
                                 engine.options().ridge));
  CateEstimate est;
  est.cate = fit.beta[1];
  est.std_error = fit.std_errors[1];
  est.n_treated = acc.n_treated;
  est.n_control = acc.n_control;
  return est;
}

}  // namespace oracle
}  // namespace faircap
