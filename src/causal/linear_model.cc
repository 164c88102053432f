#include "causal/linear_model.h"

#include <algorithm>
#include <cmath>
#include <string>

namespace faircap {

namespace {

// In-place Cholesky factorization A = L L' (row-major p x p). Reads only
// the lower triangle and diagonal of A, which receive L. Returns false if
// A is not positive definite. On success every entry of L is finite: each
// sub-diagonal l_ik enters the pivot of row i as l_ik^2, and that pivot
// passed the isfinite check.
bool Cholesky(double* a, size_t p) {
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

// Solves L L' x = b in place given the Cholesky factor in the lower
// triangle of `l`.
void CholeskySolve(const double* l, size_t p, double* b) {
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

// Writes A^-1 (row-major p x p) into `inv` from A's Cholesky factor in
// the lower triangle of `l`. Column c is CholeskySolve(l, p, e_c); all p
// solves run at once with the column loop innermost, so each column sees
// exactly CholeskySolve's scalar operation sequence (the inner loops only
// batch independent columns; the TU is built with -ffp-contract=off so no
// build fuses them differently). One exception, exact too: the forward
// pass skips the k < c terms of column c, whose partial solution there is
// +0 — subtracting l_ik * (+0) = ±0 (L is finite) from +0 or from 1
// leaves it unchanged.
void InvertFromCholesky(const double* l, size_t p, double* inv) {
  // Forward: L Z = I; Z is lower triangular.
  for (size_t i = 0; i < p; ++i) {
    double* __restrict zi = inv + i * p;
    for (size_t c = 0; c < p; ++c) zi[c] = c == i ? 1.0 : 0.0;
    for (size_t k = 0; k < i; ++k) {
      const double l_ik = l[i * p + k];
      const double* __restrict zk = inv + k * p;
      for (size_t c = 0; c <= k; ++c) zi[c] -= l_ik * zk[c];
    }
    const double l_ii = l[i * p + i];
    for (size_t c = 0; c <= i; ++c) zi[c] /= l_ii;
  }
  // Backward: L' X = Z.
  for (size_t i = p; i-- > 0;) {
    double* __restrict xi = inv + i * p;
    for (size_t k = i + 1; k < p; ++k) {
      const double l_ki = l[k * p + i];
      const double* __restrict xk = inv + k * p;
      for (size_t c = 0; c < p; ++c) xi[c] -= l_ki * xk[c];
    }
    const double l_ii = l[i * p + i];
    for (size_t c = 0; c < p; ++c) xi[c] /= l_ii;
  }
}

}  // namespace

Result<std::vector<double>> SolveSpd(std::vector<double> a, size_t p,
                                     std::vector<double> b) {
  if (a.size() != p * p || b.size() != p) {
    return Status::InvalidArgument("SolveSpd: dimension mismatch");
  }
  if (!Cholesky(a.data(), p)) {
    return Status::FailedPrecondition("matrix is not positive definite");
  }
  CholeskySolve(a.data(), p, b.data());
  return b;
}

Status SolveNormalEquations(const double* xtx, const double* xty, double yty,
                            size_t n, size_t p, double ridge, OlsFit* fit) {
  if (n < p) {
    return Status::FailedPrecondition(
        "OLS needs at least as many rows as features (" +
        std::to_string(n) + " < " + std::to_string(p) + ")");
  }
  // [ridged A | inverse], grown to the largest p this thread has solved.
  thread_local std::vector<double> scratch;
  if (scratch.size() < 2 * p * p) scratch.resize(2 * p * p);
  double* a = scratch.data();
  double* inv = a + p * p;
  // Mirror the upper triangle into the lower one (all Cholesky reads) and
  // add the ridge.
  for (size_t i = 0; i < p; ++i) {
    for (size_t j = 0; j <= i; ++j) a[i * p + j] = xtx[j * p + i];
    a[i * p + i] += ridge;
  }
  if (!Cholesky(a, p)) {
    return Status::FailedPrecondition("matrix is not positive definite");
  }
  InvertFromCholesky(a, p, inv);

  fit->n = n;
  fit->beta.resize(p);
  for (size_t i = 0; i < p; ++i) {
    double b = 0.0;
    for (size_t j = 0; j < p; ++j) b += inv[i * p + j] * xty[j];
    fit->beta[i] = b;
  }
  // Residual sum of squares: y'y - 2 beta'X'y + beta'X'X beta, folded as
  // y'y - beta'X'y (valid at the normal-equation solution up to ridge).
  double beta_xty = 0.0;
  for (size_t i = 0; i < p; ++i) beta_xty += fit->beta[i] * xty[i];
  const double rss = std::max(0.0, yty - beta_xty);
  const size_t dof = n > p ? n - p : 1;
  fit->sigma2 = rss / static_cast<double>(dof);
  fit->std_errors.resize(p);
  for (size_t i = 0; i < p; ++i) {
    fit->std_errors[i] =
        std::sqrt(std::max(0.0, fit->sigma2 * inv[i * p + i]));
  }
  return Status::OK();
}

}  // namespace faircap
