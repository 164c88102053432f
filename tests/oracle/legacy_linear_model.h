// The column-at-a-time normal-equation solve and the per-cell-arm double
// assembly of the regression design, kept as test-only references. The
// production solver (causal/linear_model.h) batches the inverse's unit-
// column solves and the engine adds both arms of a cell to the count
// block at once; both are meant to reproduce these bit for bit, and the
// pinning tests compare them with EXPECT_EQ on the doubles.

#ifndef FAIRCAP_TESTS_ORACLE_LEGACY_LINEAR_MODEL_H_
#define FAIRCAP_TESTS_ORACLE_LEGACY_LINEAR_MODEL_H_

#include <cstddef>
#include <vector>

#include "causal/cate_stats_engine.h"
#include "causal/estimator.h"
#include "causal/linear_model.h"
#include "dataframe/dataframe.h"
#include "util/result.h"

namespace faircap {
namespace oracle {

/// Inverts a symmetric positive definite matrix (row-major p x p): one
/// Cholesky factor, then p scalar unit-column solves.
Result<std::vector<double>> LegacyInvertSpd(std::vector<double> a, size_t p);

/// The ridge-stabilized normal-equation solve as LegacyInvertSpd followed
/// by beta = inverse * X'y; same contract as faircap::SolveNormalEquations.
Result<OlsFit> LegacySolveNormalEquations(const std::vector<double>& xtx,
                                          const std::vector<double>& xty,
                                          double yty, size_t n, size_t p,
                                          double ridge = 1e-8);

/// Accumulates X'X, X'y, y'y row by row, then solves the (ridge-stabilized)
/// normal equations. Design rows never need to be materialized together.
class OlsAccumulator {
 public:
  explicit OlsAccumulator(size_t p);

  size_t num_features() const { return p_; }
  size_t num_rows() const { return n_; }
  /// The sums so far: X'X (p x p, row-major, upper triangle), X'y, y'y.
  const std::vector<double>& xtx() const { return xtx_; }
  const std::vector<double>& xty() const { return xty_; }
  double yty() const { return yty_; }

  /// Adds one design row `x` (length p) with response `y`.
  void AddRow(const double* x, double y);

  /// Solves (X'X + ridge*I) beta = X'y and computes standard errors.
  /// Fails when fewer rows than features or a singular system.
  Result<OlsFit> Solve(double ridge = 1e-8) const;

 private:
  size_t p_;
  size_t n_ = 0;
  std::vector<double> xtx_;  // p x p, row-major (upper kept in sync)
  std::vector<double> xty_;  // p
  double yty_ = 0.0;
};

/// The regression estimate `engine` solves from `acc`: X'X / X'y / y'y
/// assembled in doubles one (cell, arm) at a time, then
/// LegacySolveNormalEquations. Each cell's one-hot features come from
/// one of its rows' category codes in `df` (the engine's table), not from
/// the partition's one-hot table. `acc` may be int-valid (its int64
/// outcome sums are converted first, as the engine does). Fails like the
/// engine on too few rows per arm.
Result<CateEstimate> LegacySolveRegression(const DataFrame& df,
                                           const CateStatsEngine& engine,
                                           CateStatsEngine::Accum acc,
                                           size_t min_group_size);

}  // namespace oracle
}  // namespace faircap

#endif  // FAIRCAP_TESTS_ORACLE_LEGACY_LINEAR_MODEL_H_
