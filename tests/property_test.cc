// Property-based sweeps over the whole pipeline: orthogonal invariants,
// spectra preservation across methods and structured inputs, and scaling
// behaviour. These tests complement the per-module unit tests by checking
// mathematical invariants on randomised parameter grids.

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/tridiag.h"
#include "eig/drivers.h"
#include "eig/eig.h"
#include "la/blas.h"
#include "la/generate.h"

namespace tdg {
namespace {

// Eigenvalues through the fastest values-only path.
std::vector<double> spectrum(ConstMatrixView a, const TridiagOptions& topts) {
  TridiagOptions o = topts;
  o.want_factors = false;
  TridiagResult t = tridiagonalize(a, o);
  eig::steqr(t.d, t.e, nullptr);
  return t.d;
}

class SpectrumInvarianceTest
    : public ::testing::TestWithParam<std::tuple<int, int, int, int>> {};

TEST_P(SpectrumInvarianceTest, TwoStageMatchesDirect) {
  const auto [n, b, k, threads] = GetParam();
  Rng rng(7000 + n * 3 + b * 5 + k);
  const Matrix a = random_symmetric(n, rng);

  TridiagOptions direct;
  direct.method = TridiagMethod::kDirect;
  const auto ref = spectrum(a.view(), direct);

  TridiagOptions two;
  two.method = TridiagMethod::kTwoStageDbbr;
  two.b = b;
  two.k = k;
  two.bc_threads = threads;
  const auto got = spectrum(a.view(), two);

  for (index_t i = 0; i < n; ++i) {
    EXPECT_NEAR(got[static_cast<size_t>(i)], ref[static_cast<size_t>(i)],
                1e-10 * n)
        << "i=" << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, SpectrumInvarianceTest,
    ::testing::Values(std::tuple{30, 2, 4, 1}, std::tuple{30, 4, 8, 2},
                      std::tuple{47, 4, 4, 3}, std::tuple{47, 8, 16, 4},
                      std::tuple{63, 16, 16, 2}, std::tuple{64, 8, 32, 5},
                      std::tuple{80, 4, 16, 2}, std::tuple{33, 32, 32, 2},
                      std::tuple{96, 8, 24, 3}));

TEST(Property, SpectrumShiftEquivariance) {
  // eig(A + c I) = eig(A) + c for the whole pipeline.
  Rng rng(1);
  const index_t n = 40;
  Matrix a = random_symmetric(n, rng);
  TridiagOptions opts;
  opts.b = 4;
  opts.k = 8;
  const auto w0 = spectrum(a.view(), opts);
  const double c = 3.75;
  for (index_t i = 0; i < n; ++i) a(i, i) += c;
  const auto w1 = spectrum(a.view(), opts);
  for (index_t i = 0; i < n; ++i) {
    EXPECT_NEAR(w1[static_cast<size_t>(i)], w0[static_cast<size_t>(i)] + c,
                1e-10 * n);
  }
}

TEST(Property, SpectrumScaleEquivariance) {
  Rng rng(2);
  const index_t n = 36;
  Matrix a = random_symmetric(n, rng);
  TridiagOptions opts;
  opts.b = 8;
  opts.k = 16;
  const auto w0 = spectrum(a.view(), opts);
  const double s = -2.5;
  for (index_t j = 0; j < n; ++j) {
    for (index_t i = 0; i < n; ++i) a(i, j) *= s;
  }
  auto w1 = spectrum(a.view(), opts);
  // Negative scale reverses the order.
  std::reverse(w1.begin(), w1.end());
  for (index_t i = 0; i < n; ++i) {
    EXPECT_NEAR(w1[static_cast<size_t>(i)], s * w0[static_cast<size_t>(i)],
                1e-10 * n);
  }
}

TEST(Property, PlantedSpectrumRecovered) {
  // Clustered + spread spectra synthesised exactly, recovered by eigh.
  Rng rng(3);
  std::vector<double> evals;
  for (int i = 0; i < 10; ++i) evals.push_back(1.0);            // cluster
  for (int i = 0; i < 10; ++i) evals.push_back(2.0 + i * 1e-6); // near-cluster
  for (int i = 0; i < 12; ++i) evals.push_back(-50.0 + 9.0 * i);
  std::sort(evals.begin(), evals.end());
  const Matrix a = symmetric_with_spectrum(evals, rng);

  eig::EvdOptions opts;
  opts.tridiag.method = TridiagMethod::kTwoStageDbbr;
  opts.tridiag.b = 4;
  opts.tridiag.k = 8;
  const eig::EvdResult r = eig::eigh(a.view(), opts);
  for (std::size_t i = 0; i < evals.size(); ++i) {
    EXPECT_NEAR(r.eigenvalues[i], evals[i], 1e-9) << i;
  }
  EXPECT_LT(orthogonality_error(r.eigenvectors.view()),
            1e-10 * static_cast<double>(evals.size()));
}

TEST(Property, GramMatrixIsPsd) {
  // Gram matrices are PSD: every eigenvalue >= -tol.
  Rng rng(4);
  const index_t n = 48, m = 30;  // rank-deficient (rank <= 30)
  const Matrix x = random_matrix(n, m, rng);
  Matrix g(n, n);
  la::gemm(Trans::kNo, Trans::kTrans, 1.0, x.view(), x.view(), 0.0, g.view());
  TridiagOptions opts;
  opts.b = 8;
  opts.k = 16;
  const auto w = spectrum(g.view(), opts);
  EXPECT_GT(w.front(), -1e-9);
  // Rank deficiency: at least n - m numerically zero eigenvalues.
  const index_t zeros = static_cast<index_t>(
      std::count_if(w.begin(), w.end(), [](double x_) { return std::abs(x_) < 1e-8; }));
  EXPECT_GE(zeros, n - m);
}

TEST(Property, EighVectorsDiagonalizeExactly) {
  // V^T A V must be diagonal with the eigenvalues on the diagonal.
  Rng rng(5);
  const index_t n = 32;
  const Matrix a = random_symmetric(n, rng);
  eig::EvdOptions opts;
  opts.tridiag.b = 4;
  opts.tridiag.k = 8;
  const eig::EvdResult r = eig::eigh(a.view(), opts);

  Matrix av(n, n);
  la::gemm(Trans::kNo, Trans::kNo, 1.0, a.view(), r.eigenvectors.view(), 0.0,
           av.view());
  Matrix vav(n, n);
  la::gemm(Trans::kTrans, Trans::kNo, 1.0, r.eigenvectors.view(), av.view(),
           0.0, vav.view());
  for (index_t j = 0; j < n; ++j) {
    for (index_t i = 0; i < n; ++i) {
      const double expect =
          (i == j) ? r.eigenvalues[static_cast<size_t>(j)] : 0.0;
      EXPECT_NEAR(vav(i, j), expect, 1e-10 * n);
    }
  }
}

TEST(Property, HugeAndTinyScalesSurvive) {
  // Scale robustness: a planted spectrum in [-1, 1] times s must come back
  // to c n eps s at every scale, with vectors. Entries around 1e150 and
  // 1e-150 must not overflow or flush the pipeline (nrm2 is scaled; larfg
  // guards tiny norms), and D&C's deflation must not depend on ||T||.
  const index_t n = 96;  // above the D&C base case, so merges deflate
  const double eps = std::numeric_limits<double>::epsilon();
  std::vector<double> planted(static_cast<size_t>(n));
  for (index_t i = 0; i < n; ++i) {
    planted[static_cast<size_t>(i)] =
        -1.0 + 2.0 * static_cast<double>(i) / static_cast<double>(n - 1);
  }
  for (const double scale : {1e150, 1e-150, 1e-8, 1e-12}) {
    Rng rng(6);
    Matrix a = symmetric_with_spectrum(planted, rng);
    for (index_t j = 0; j < n; ++j) {
      for (index_t i = 0; i < n; ++i) a(i, j) *= scale;
    }
    eig::EvdOptions opts;
    opts.tridiag.b = 4;
    opts.tridiag.k = 8;
    const eig::EvdResult r = eig::eigh(a.view(), opts);
    ASSERT_EQ(r.eigenvalues.size(), static_cast<size_t>(n));
    for (index_t i = 0; i < n; ++i) {
      EXPECT_NEAR(r.eigenvalues[static_cast<size_t>(i)],
                  scale * planted[static_cast<size_t>(i)],
                  4.0 * static_cast<double>(n) * eps * scale)
          << "scale " << scale << ", eigenvalue " << i;
    }
    EXPECT_LT(orthogonality_error(r.eigenvectors.view()),
              4.0 * static_cast<double>(n) * eps)
        << "scale " << scale;
  }
}

TEST(Property, BandMatrixInputShortCircuitsStage1Work) {
  // A matrix already in band form must pass stage 1 unchanged
  // (all panel reflectors are identity) and still reduce correctly.
  Rng rng(7);
  const index_t n = 40, b = 5;
  const Matrix a = random_symmetric_band(n, b, rng);
  TridiagOptions opts;
  opts.method = TridiagMethod::kTwoStageDbbr;
  opts.b = b;
  opts.k = 10;
  TridiagOptions direct;
  direct.method = TridiagMethod::kDirect;
  const auto w1 = spectrum(a.view(), opts);
  const auto w2 = spectrum(a.view(), direct);
  for (index_t i = 0; i < n; ++i) {
    EXPECT_NEAR(w1[static_cast<size_t>(i)], w2[static_cast<size_t>(i)],
                1e-11 * n);
  }
}

}  // namespace
}  // namespace tdg
