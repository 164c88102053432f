// Ordinary least squares via normal equations. The regression CATE
// estimator fits O ~ alpha + beta*T + gamma'Z and reads the treatment
// effect off beta, so all we need is a small, dependency-free SPD solver.

#ifndef FAIRCAP_CAUSAL_LINEAR_MODEL_H_
#define FAIRCAP_CAUSAL_LINEAR_MODEL_H_

#include <vector>

#include "util/result.h"

namespace faircap {

/// Fitted OLS model.
struct OlsFit {
  std::vector<double> beta;        ///< coefficients, length p
  std::vector<double> std_errors;  ///< standard errors, length p
  double sigma2 = 0.0;             ///< residual variance estimate
  size_t n = 0;                    ///< rows used
};

/// Solves A x = b for symmetric positive definite A (row-major p x p) via
/// Cholesky. Fails when A is not positive definite.
Result<std::vector<double>> SolveSpd(std::vector<double> a, size_t p,
                                     std::vector<double> b);

/// Solves the ridge-stabilized normal equations from sufficient statistics
/// alone: `xtx` is X'X (row-major p x p) with at least the upper triangle
/// filled (i <= j; the lower triangle is ignored), `xty` is X'y, `yty` is
/// y'y, `n` the row count behind the sums. The CATE sufficient-statistics
/// engine assembles X'X from per-cell accumulations instead of design rows.
///
/// The coefficient covariance comes from the explicit inverse
/// (X'X + ridge*I)^-1, built from one Cholesky factor by p unit-column
/// solves; beta = inverse * X'y. The fit is written into `*fit`, reusing
/// its buffers: once they and the calling thread's scratch have grown to
/// p, a solve allocates nothing. Fails (FailedPrecondition) when n < p or
/// the ridged system is not positive definite.
Status SolveNormalEquations(const double* xtx, const double* xty, double yty,
                            size_t n, size_t p, double ridge, OlsFit* fit);

}  // namespace faircap

#endif  // FAIRCAP_CAUSAL_LINEAR_MODEL_H_
