#include "causal/linear_model.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "oracle/legacy_linear_model.h"
#include "util/random.h"

namespace faircap {
namespace {

using oracle::OlsAccumulator;

// The production solver on an accumulator's sums. The known-answer cases
// below check it next to the oracle's own solve.
Result<OlsFit> ProductionSolve(const OlsAccumulator& acc,
                               double ridge = 1e-8) {
  OlsFit fit;
  FAIRCAP_RETURN_NOT_OK(SolveNormalEquations(
      acc.xtx().data(), acc.xty().data(), acc.yty(), acc.num_rows(),
      acc.num_features(), ridge, &fit));
  return fit;
}

TEST(SolveSpdTest, SolvesKnownSystem) {
  // A = [[4,2],[2,3]], b = [10, 9] => x = [1.5, 2].
  const auto x = SolveSpd({4, 2, 2, 3}, 2, {10, 9});
  ASSERT_TRUE(x.ok());
  EXPECT_NEAR((*x)[0], 1.5, 1e-10);
  EXPECT_NEAR((*x)[1], 2.0, 1e-10);
}

TEST(SolveSpdTest, RejectsNonPositiveDefinite) {
  const auto x = SolveSpd({1, 2, 2, 1}, 2, {1, 1});
  EXPECT_EQ(x.status().code(), StatusCode::kFailedPrecondition);
}

TEST(SolveSpdTest, RejectsDimensionMismatch) {
  EXPECT_EQ(SolveSpd({1, 0, 0, 1}, 2, {1}).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(InvertSpdTest, InverseTimesMatrixIsIdentity) {
  const std::vector<double> a = {4, 1, 1, 3};
  const auto inv = oracle::LegacyInvertSpd(a, 2);
  ASSERT_TRUE(inv.ok());
  // A * A^-1 = I.
  for (size_t i = 0; i < 2; ++i) {
    for (size_t j = 0; j < 2; ++j) {
      double sum = 0.0;
      for (size_t k = 0; k < 2; ++k) {
        sum += a[i * 2 + k] * (*inv)[k * 2 + j];
      }
      EXPECT_NEAR(sum, i == j ? 1.0 : 0.0, 1e-10);
    }
  }
}

TEST(InvertSpdTest, ProductionSolveAppliesTheInverse) {
  // With X'y = e_j and no ridge, beta = A^-1 e_j is column j of the
  // inverse, so A * beta = e_j.
  const std::vector<double> a = {4, 1, 1, 3};
  for (size_t j = 0; j < 2; ++j) {
    const double e[2] = {j == 0 ? 1.0 : 0.0, j == 1 ? 1.0 : 0.0};
    OlsFit fit;
    ASSERT_TRUE(
        SolveNormalEquations(a.data(), e, 0.0, 2, 2, 0.0, &fit).ok());
    for (size_t i = 0; i < 2; ++i) {
      const double sum = a[i * 2] * fit.beta[0] + a[i * 2 + 1] * fit.beta[1];
      EXPECT_NEAR(sum, e[i], 1e-10);
    }
  }
}

TEST(OlsTest, RecoversExactLinearModel) {
  // y = 3 + 2*x, no noise.
  OlsAccumulator acc(2);
  for (double x = 0; x < 10; x += 1) {
    const double row[2] = {1.0, x};
    acc.AddRow(row, 3.0 + 2.0 * x);
  }
  for (const Result<OlsFit>& fit :
       {acc.Solve(0.0), ProductionSolve(acc, 0.0)}) {
    ASSERT_TRUE(fit.ok());
    EXPECT_NEAR(fit->beta[0], 3.0, 1e-8);
    EXPECT_NEAR(fit->beta[1], 2.0, 1e-8);
    EXPECT_NEAR(fit->sigma2, 0.0, 1e-8);
  }
}

TEST(OlsTest, RecoversNoisyModelWithinTolerance) {
  Rng rng(77);
  OlsAccumulator acc(3);
  for (int i = 0; i < 20000; ++i) {
    const double x1 = rng.NextGaussian();
    const double x2 = rng.NextGaussian();
    const double row[3] = {1.0, x1, x2};
    acc.AddRow(row, 1.0 - 4.0 * x1 + 0.5 * x2 + rng.NextGaussian(0.0, 0.3));
  }
  for (const Result<OlsFit>& fit : {acc.Solve(), ProductionSolve(acc)}) {
    ASSERT_TRUE(fit.ok());
    EXPECT_NEAR(fit->beta[0], 1.0, 0.02);
    EXPECT_NEAR(fit->beta[1], -4.0, 0.02);
    EXPECT_NEAR(fit->beta[2], 0.5, 0.02);
    EXPECT_NEAR(fit->sigma2, 0.09, 0.01);
    // Standard errors ~ 0.3 / sqrt(n).
    EXPECT_NEAR(fit->std_errors[1], 0.3 / std::sqrt(20000.0), 5e-4);
  }
}

TEST(OlsTest, UnderdeterminedRejected) {
  OlsAccumulator acc(3);
  const double row[3] = {1.0, 2.0, 3.0};
  acc.AddRow(row, 1.0);
  EXPECT_EQ(acc.Solve().status().code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(ProductionSolve(acc).status().code(),
            StatusCode::kFailedPrecondition);
}

TEST(OlsTest, CollinearFeaturesNeedRidge) {
  // Exactly singular SPD system (rank 1) is rejected without ridge; the
  // OLS accumulator's equivalent collinear design solves once ridged.
  EXPECT_FALSE(SolveSpd({1, 2, 2, 4}, 2, {1, 2}).ok());
  OlsAccumulator acc(2);
  for (int i = 0; i < 10; ++i) {
    const double row[2] = {1.0, 1.0};  // perfectly collinear with intercept
    acc.AddRow(row, 2.0);
  }
  for (const Result<OlsFit>& fit :
       {acc.Solve(1e-6), ProductionSolve(acc, 1e-6)}) {
    ASSERT_TRUE(fit.ok());
    // beta0 + beta1 ~ 2 under the ridge-regularized solution.
    EXPECT_NEAR(fit->beta[0] + fit->beta[1], 2.0, 1e-3);
  }
}

// ---------------------------------------------------------------------
// SolveNormalEquations batches the inverse's p unit-column solves; the
// oracle runs them one column at a time. The rewrite is exact, so the
// fits must agree in bits.

uint64_t Bits(double x) {
  uint64_t b;
  std::memcpy(&b, &x, sizeof b);
  return b;
}

struct NormalEquations {
  std::vector<double> xtx;  // upper triangle; lower poisoned with NaN
  std::vector<double> xty;
  double yty = 0.0;
  size_t n = 0;
};

// Normal equations of `n` random design rows shaped like the regression
// engine's: an intercept, a treatment bit, one-hot blocks, a few gaussian
// columns, and `zero_cols` trailing columns no row sets (held only by the
// ridge).
NormalEquations RandomSystem(size_t p, size_t n, size_t zero_cols, Rng* rng) {
  NormalEquations sys;
  sys.xtx.assign(p * p, 0.0);
  sys.xty.assign(p, 0.0);
  sys.n = n;
  const size_t live = p - zero_cols;
  std::vector<double> x(p);
  for (size_t r = 0; r < n; ++r) {
    for (size_t j = 0; j < p; ++j) {
      if (j >= live) {
        x[j] = 0.0;
      } else if (j == 0) {
        x[j] = 1.0;
      } else if (j % 5 == 4) {
        x[j] = rng->NextGaussian(0.0, 3.0);
      } else {
        x[j] = rng->NextBernoulli(0.3) ? 1.0 : 0.0;
      }
    }
    const double y =
        rng->NextGaussian(100.0, 40.0) + (live > 1 ? 7.0 * x[1] : 0.0);
    for (size_t i = 0; i < p; ++i) {
      for (size_t j = i; j < p; ++j) sys.xtx[i * p + j] += x[i] * x[j];
      sys.xty[i] += x[i] * y;
    }
    sys.yty += y * y;
  }
  for (size_t i = 0; i < p; ++i) {
    for (size_t j = 0; j < i; ++j) {
      sys.xtx[i * p + j] = std::numeric_limits<double>::quiet_NaN();
    }
  }
  return sys;
}

void ExpectSameFit(const NormalEquations& sys, size_t p, double ridge,
                   const std::string& label) {
  OlsFit got;
  const Status status = SolveNormalEquations(
      sys.xtx.data(), sys.xty.data(), sys.yty, sys.n, p, ridge, &got);
  const Result<OlsFit> ref = oracle::LegacySolveNormalEquations(
      sys.xtx, sys.xty, sys.yty, sys.n, p, ridge);
  ASSERT_EQ(status.ok(), ref.ok()) << label << ": " << status.ToString();
  if (!status.ok()) {
    EXPECT_EQ(status.code(), ref.status().code()) << label;
    return;
  }
  EXPECT_EQ(got.n, ref->n) << label;
  EXPECT_EQ(Bits(got.sigma2), Bits(ref->sigma2)) << label;
  ASSERT_EQ(got.beta.size(), p) << label;
  ASSERT_EQ(got.std_errors.size(), p) << label;
  for (size_t i = 0; i < p; ++i) {
    EXPECT_EQ(Bits(got.beta[i]), Bits(ref->beta[i])) << label << " beta" << i;
    EXPECT_EQ(Bits(got.std_errors[i]), Bits(ref->std_errors[i]))
        << label << " se" << i;
  }
}

TEST(SolveNormalEquationsTest, BitIdenticalToColumnAtATimeOracle) {
  Rng rng(2024);
  // One fit object across every size: reused buffers must not leak state
  // from a larger solve into a smaller one.
  for (const size_t p : {1, 2, 15, 17, 40, 70}) {
    for (const size_t zero_cols : {size_t{0}, size_t{1}, p / 4}) {
      if (zero_cols >= p) continue;
      for (const double ridge : {1e-6, 1e-8}) {
        for (int trial = 0; trial < 3; ++trial) {
          const NormalEquations sys =
              RandomSystem(p, 4 * p + 20, zero_cols, &rng);
          ExpectSameFit(sys, p, ridge,
                        "p" + std::to_string(p) + "/z" +
                            std::to_string(zero_cols) + "/r" +
                            std::to_string(ridge) + "/t" +
                            std::to_string(trial));
        }
      }
    }
  }
}

TEST(SolveNormalEquationsTest, FailuresMatchOracle) {
  Rng rng(7);
  for (const size_t p : {2, 15, 40}) {
    // Fewer rows than features.
    const NormalEquations few = RandomSystem(p, p - 1, 0, &rng);
    ExpectSameFit(few, p, 1e-6, "n<p/p" + std::to_string(p));
    OlsFit fit;
    EXPECT_EQ(SolveNormalEquations(few.xtx.data(), few.xty.data(), few.yty,
                                   few.n, p, 1e-6, &fit)
                  .code(),
              StatusCode::kFailedPrecondition);
    // A column no row sets and no ridge: a zero pivot.
    const NormalEquations singular = RandomSystem(p, 4 * p, 1, &rng);
    ExpectSameFit(singular, p, 0.0, "zero-pivot/p" + std::to_string(p));
    EXPECT_EQ(SolveNormalEquations(singular.xtx.data(), singular.xty.data(),
                                   singular.yty, singular.n, p, 0.0, &fit)
                  .code(),
              StatusCode::kFailedPrecondition);
  }
  // Indefinite: a negative pivot.
  NormalEquations indefinite;
  indefinite.xtx = {1, 2, std::numeric_limits<double>::quiet_NaN(), 1};
  indefinite.xty = {1, 1};
  indefinite.n = 10;
  ExpectSameFit(indefinite, 2, 0.0, "indefinite");
}

}  // namespace
}  // namespace faircap
