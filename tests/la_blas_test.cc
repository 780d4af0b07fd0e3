// Unit tests for the dense BLAS substrate (src/la).

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "common/trace.h"
#include "la/blas.h"
#include "la/generate.h"
#include "la/matrix.h"

namespace tdg {
namespace {

Matrix naive_gemm(Trans ta, Trans tb, double alpha, ConstMatrixView a,
                  ConstMatrixView b, double beta, ConstMatrixView c0) {
  const index_t m = (ta == Trans::kNo) ? a.rows : a.cols;
  const index_t k = (ta == Trans::kNo) ? a.cols : a.rows;
  const index_t n = (tb == Trans::kNo) ? b.cols : b.rows;
  Matrix c(m, n);
  for (index_t j = 0; j < n; ++j) {
    for (index_t i = 0; i < m; ++i) {
      double s = 0.0;
      for (index_t l = 0; l < k; ++l) {
        const double av = (ta == Trans::kNo) ? a(i, l) : a(l, i);
        const double bv = (tb == Trans::kNo) ? b(l, j) : b(j, l);
        s += av * bv;
      }
      c(i, j) = alpha * s + beta * c0(i, j);
    }
  }
  return c;
}

TEST(Blas1, DotAxpyScalNrm2) {
  std::vector<double> x{1.0, 2.0, -3.0};
  std::vector<double> y{4.0, -5.0, 6.0};
  EXPECT_DOUBLE_EQ(la::dot(3, x.data(), y.data()), 4.0 - 10.0 - 18.0);
  la::axpy(3, 2.0, x.data(), y.data());
  EXPECT_DOUBLE_EQ(y[0], 6.0);
  EXPECT_DOUBLE_EQ(y[1], -1.0);
  EXPECT_DOUBLE_EQ(y[2], 0.0);
  la::scal(3, -1.0, y.data());
  EXPECT_DOUBLE_EQ(y[0], -6.0);
  EXPECT_NEAR(la::nrm2(3, x.data()), std::sqrt(14.0), 1e-15);
}

TEST(Blas1, Nrm2OverflowSafe) {
  std::vector<double> x{1e300, 1e300};
  EXPECT_NEAR(la::nrm2(2, x.data()) / (std::sqrt(2.0) * 1e300), 1.0, 1e-14);
  std::vector<double> z{0.0, 0.0};
  EXPECT_EQ(la::nrm2(2, z.data()), 0.0);
}

TEST(Blas2, GemvMatchesNaive) {
  Rng rng(1);
  const Matrix a = random_matrix(13, 7, rng);
  std::vector<double> x(13), y(13), xn(7);
  for (auto& v : x) v = rng.normal();
  for (auto& v : xn) v = rng.normal();

  // y = A * xn
  y.assign(13, 0.5);
  std::vector<double> yref = y;
  la::gemv(Trans::kNo, 2.0, a.view(), xn.data(), 3.0, y.data());
  for (index_t i = 0; i < 13; ++i) {
    double s = 0.0;
    for (index_t j = 0; j < 7; ++j) s += a(i, j) * xn[static_cast<size_t>(j)];
    yref[static_cast<size_t>(i)] = 2.0 * s + 3.0 * yref[static_cast<size_t>(i)];
  }
  for (index_t i = 0; i < 13; ++i)
    EXPECT_NEAR(y[static_cast<size_t>(i)], yref[static_cast<size_t>(i)], 1e-12);

  // y2 = A^T * x
  std::vector<double> y2(7, 0.0);
  la::gemv(Trans::kTrans, 1.0, a.view(), x.data(), 0.0, y2.data());
  for (index_t j = 0; j < 7; ++j) {
    double s = 0.0;
    for (index_t i = 0; i < 13; ++i) s += a(i, j) * x[static_cast<size_t>(i)];
    EXPECT_NEAR(y2[static_cast<size_t>(j)], s, 1e-12);
  }
}

TEST(Blas2, SymvLowerUsesOnlyLowerTriangle) {
  Rng rng(2);
  const index_t n = 9;
  Matrix a = random_symmetric(n, rng);
  Matrix poisoned = a;
  // Poison the strict upper triangle; symv_lower must ignore it.
  for (index_t j = 0; j < n; ++j)
    for (index_t i = 0; i < j; ++i) poisoned(i, j) = 1e9;

  std::vector<double> x(static_cast<size_t>(n)), y1(static_cast<size_t>(n), 0.0),
      y2(static_cast<size_t>(n), 0.0);
  for (auto& v : x) v = rng.normal();
  la::symv_lower(1.0, poisoned.view(), x.data(), 0.0, y1.data());
  la::gemv(Trans::kNo, 1.0, a.view(), x.data(), 0.0, y2.data());
  for (index_t i = 0; i < n; ++i)
    EXPECT_NEAR(y1[static_cast<size_t>(i)], y2[static_cast<size_t>(i)], 1e-12);
}

TEST(Blas2, Syr2LowerMatchesDense) {
  Rng rng(3);
  const index_t n = 8;
  Matrix a = random_symmetric(n, rng);
  Matrix ref = a;
  std::vector<double> x(static_cast<size_t>(n)), y(static_cast<size_t>(n));
  for (auto& v : x) v = rng.normal();
  for (auto& v : y) v = rng.normal();

  la::syr2_lower(-1.0, x.data(), y.data(), a.view());
  for (index_t j = 0; j < n; ++j)
    for (index_t i = j; i < n; ++i)
      ref(i, j) -= x[static_cast<size_t>(i)] * y[static_cast<size_t>(j)] +
                   y[static_cast<size_t>(i)] * x[static_cast<size_t>(j)];
  for (index_t j = 0; j < n; ++j)
    for (index_t i = j; i < n; ++i) EXPECT_NEAR(a(i, j), ref(i, j), 1e-12);
}

class GemmShapeTest
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(GemmShapeTest, AllTransposeCombosMatchNaive) {
  const auto [m, n, k] = GetParam();
  Rng rng(17 + m + 31 * n + 101 * k);
  for (const Trans ta : {Trans::kNo, Trans::kTrans}) {
    for (const Trans tb : {Trans::kNo, Trans::kTrans}) {
      const Matrix a = (ta == Trans::kNo) ? random_matrix(m, k, rng)
                                          : random_matrix(k, m, rng);
      const Matrix b = (tb == Trans::kNo) ? random_matrix(k, n, rng)
                                          : random_matrix(n, k, rng);
      Matrix c = random_matrix(m, n, rng);
      const Matrix ref =
          naive_gemm(ta, tb, 1.7, a.view(), b.view(), -0.3, c.view());
      la::gemm(ta, tb, 1.7, a.view(), b.view(), -0.3, c.view());
      EXPECT_LT(max_abs_diff(c.view(), ref.view()), 1e-10)
          << "ta=" << (ta == Trans::kTrans) << " tb=" << (tb == Trans::kTrans);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Shapes, GemmShapeTest,
                         ::testing::Values(std::tuple{1, 1, 1},
                                           std::tuple{5, 3, 4},
                                           std::tuple{8, 8, 8},
                                           std::tuple{17, 9, 23},
                                           std::tuple{33, 65, 7},
                                           std::tuple{64, 64, 64},
                                           std::tuple{3, 40, 2},
                                           // Shapes crossing the packed
                                           // MC/KC/NC cache-block edges,
                                           // none a block multiple.
                                           std::tuple{130, 70, 260},
                                           std::tuple{129, 17, 300},
                                           std::tuple{40, 530, 70}));

// Reference loop in the unblocked kernel's per-element order: c <- beta * c
// (zero for beta == 0), then c <- c + (alpha * op(B)(l, j)) * op(A)(i, l)
// for l ascending. The blocked engine must reproduce it bit for bit.
Matrix ordered_gemm(Trans ta, Trans tb, double alpha, ConstMatrixView a,
                    ConstMatrixView b, double beta, ConstMatrixView c0) {
  const index_t m = c0.rows;
  const index_t n = c0.cols;
  const index_t k = (ta == Trans::kNo) ? a.cols : a.rows;
  Matrix c(m, n);
  for (index_t j = 0; j < n; ++j) {
    for (index_t i = 0; i < m; ++i) {
      double x = (beta == 0.0) ? 0.0 : c0(i, j);
      if (beta != 0.0 && beta != 1.0) x *= beta;
      for (index_t l = 0; l < k; ++l) {
        const double av = (ta == Trans::kNo) ? a(i, l) : a(l, i);
        const double bv = (tb == Trans::kNo) ? b(l, j) : b(j, l);
        const double coef = alpha * bv;
        x += coef * av;
      }
      c(i, j) = x;
    }
  }
  return c;
}

// Reference one-pass lower-triangle sweep for symm_lower: column l of A adds
// (alpha b(l, j)) a(i, l) to rows i >= l and, through the mirrored entries,
// alpha * s to row l, with s = sum over i > l of a(i, l) b(i, j) accumulated
// from zero in ascending i.
Matrix ordered_symm(double alpha, ConstMatrixView a, ConstMatrixView b,
                    double beta, ConstMatrixView c0) {
  const index_t n = a.rows;
  const index_t w = c0.cols;
  Matrix c(n, w);
  for (index_t j = 0; j < w; ++j) {
    for (index_t i = 0; i < n; ++i) {
      c(i, j) = (beta == 0.0) ? 0.0 : c0(i, j);
      if (beta != 0.0 && beta != 1.0) c(i, j) *= beta;
    }
  }
  for (index_t l = 0; l < n; ++l) {
    for (index_t j = 0; j < w; ++j) {
      const double abl = alpha * b(l, j);
      c(l, j) += abl * a(l, l);
      double s = 0.0;
      for (index_t i = l + 1; i < n; ++i) {
        c(i, j) += abl * a(i, l);
        s += a(i, l) * b(i, j);
      }
      c(l, j) += alpha * s;
    }
  }
  return c;
}

// Bit-pattern equality (distinguishes -0.0 from 0.0, matches NaN payloads).
::testing::AssertionResult BitwiseEqual(ConstMatrixView x, ConstMatrixView y) {
  for (index_t j = 0; j < x.cols; ++j) {
    for (index_t i = 0; i < x.rows; ++i) {
      if (std::bit_cast<std::uint64_t>(x(i, j)) !=
          std::bit_cast<std::uint64_t>(y(i, j))) {
        return ::testing::AssertionFailure()
               << "first difference at (" << i << "," << j << "): " << x(i, j)
               << " vs " << y(i, j);
      }
    }
  }
  return ::testing::AssertionSuccess();
}

// The packed engine must reproduce the ordered reference bit for bit for
// every transpose pair and beta class (overwrite, accumulate, scale), at
// thread counts 1 and 4. The shapes straddle the register tile (4 x 4), the
// cache blocks (MC = 128, KC = 256, NC = 512) and the unpacked small-volume
// cutoff (64^3 for NN).
class GemmBetaThreadsTest : public ::testing::TestWithParam<double> {};

TEST_P(GemmBetaThreadsTest, PackedMatchesNaiveAndIsThreadInvariant) {
  const double beta = GetParam();
  const double alpha = -1.3;
  Rng rng(91 + static_cast<int>(10 * beta));
  const index_t shapes[][3] = {{1, 1, 1},      {3, 2, 5},      {4, 4, 4},
                               {5, 7, 9},      {64, 64, 64},   {65, 64, 64},
                               {128, 4, 256},  {127, 33, 255}, {129, 5, 257},
                               {130, 75, 280}, {261, 3, 40},   {40, 530, 70},
                               {133, 515, 261}};
  for (const auto& [m, n, k] : shapes) {
    for (const Trans ta : {Trans::kNo, Trans::kTrans}) {
      for (const Trans tb : {Trans::kNo, Trans::kTrans}) {
        const Matrix a = (ta == Trans::kNo) ? random_matrix(m, k, rng)
                                            : random_matrix(k, m, rng);
        const Matrix b = (tb == Trans::kNo) ? random_matrix(k, n, rng)
                                            : random_matrix(n, k, rng);
        const Matrix c0 = random_matrix(m, n, rng);
        const Matrix ref =
            ordered_gemm(ta, tb, alpha, a.view(), b.view(), beta, c0.view());
        for (const int threads : {1, 4}) {
          Matrix c = c0;
          {
            ThreadLimit limit(threads);
            la::gemm(ta, tb, alpha, a.view(), b.view(), beta, c.view());
          }
          EXPECT_TRUE(BitwiseEqual(c.view(), ref.view()))
              << m << "x" << n << "x" << k << " ta=" << (ta == Trans::kTrans)
              << " tb=" << (tb == Trans::kTrans) << " beta=" << beta
              << " threads=" << threads;
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Betas, GemmBetaThreadsTest,
                         ::testing::Values(0.0, 1.0, 0.5));

// symm_lower splits its rows into blocks of 128: n = 1, one block minus
// and plus one row, and several blocks, each with one, 32 and 70 output
// columns (70 crosses the 32-column grid). The strict upper triangle holds
// NaN, so reading it would show.
TEST(Symm, MatchesOrderedSweepAtThreads1And4) {
  Rng rng(402);
  for (const index_t n : {1, 127, 128, 129, 300}) {
    Matrix a = random_symmetric(n, rng);
    for (index_t j = 1; j < n; ++j)
      for (index_t i = 0; i < j; ++i)
        a(i, j) = std::numeric_limits<double>::quiet_NaN();
    for (const index_t w : {1, 32, 70}) {
      const Matrix b = random_matrix(n, w, rng);
      const Matrix c0 = random_matrix(n, w, rng);
      for (const double beta : {0.0, 1.0, 0.5}) {
        const Matrix ref =
            ordered_symm(0.7, a.view(), b.view(), beta, c0.view());
        for (const int threads : {1, 4}) {
          Matrix c = c0;
          {
            ThreadLimit limit(threads);
            la::symm_lower(0.7, a.view(), b.view(), beta, c.view());
          }
          EXPECT_TRUE(BitwiseEqual(c.view(), ref.view()))
              << "n=" << n << " w=" << w << " beta=" << beta
              << " threads=" << threads;
        }
      }
    }
  }
}

TEST(Gemm, BetaZeroOverwritesNanFreeAndKZeroScales) {
  Matrix a(4, 0), b(0, 5);
  Matrix c(4, 5);
  fill(c.view(), 2.0);
  la::gemm(Trans::kNo, Trans::kNo, 1.0, a.view(), b.view(), 0.5, c.view());
  EXPECT_DOUBLE_EQ(c(2, 3), 1.0);  // k == 0: only the beta scaling applies
  la::gemm(Trans::kNo, Trans::kNo, 1.0, a.view(), b.view(), 0.0, c.view());
  EXPECT_DOUBLE_EQ(c(0, 0), 0.0);
}

TEST(Syr2k, ReferenceMatchesDenseFormula) {
  Rng rng(4);
  const index_t n = 21, k = 6;
  const Matrix a = random_matrix(n, k, rng);
  const Matrix b = random_matrix(n, k, rng);
  Matrix c = random_symmetric(n, rng);
  Matrix ref = c;

  la::syr2k_lower(1.5, a.view(), b.view(), 0.25, c.view());
  for (index_t j = 0; j < n; ++j) {
    for (index_t i = j; i < n; ++i) {
      double s = 0.0;
      for (index_t l = 0; l < k; ++l) s += a(i, l) * b(j, l) + b(i, l) * a(j, l);
      ref(i, j) = 1.5 * s + 0.25 * ref(i, j);
    }
  }
  for (index_t j = 0; j < n; ++j)
    for (index_t i = j; i < n; ++i) EXPECT_NEAR(c(i, j), ref(i, j), 1e-11);
}

class Syr2kSquareTest
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(Syr2kSquareTest, MatchesReference) {
  const auto [n, k, block] = GetParam();
  Rng rng(7 + n + k);
  const Matrix a = random_matrix(n, k, rng);
  const Matrix b = random_matrix(n, k, rng);
  Matrix c1 = random_symmetric(n, rng);
  Matrix c2 = c1;

  la::syr2k_lower(-1.0, a.view(), b.view(), 1.0, c1.view());
  la::syr2k_lower_square(-1.0, a.view(), b.view(), 1.0, c2.view(), block);
  double maxd = 0.0;
  for (index_t j = 0; j < n; ++j)
    for (index_t i = j; i < n; ++i)
      maxd = std::max(maxd, std::abs(c1(i, j) - c2(i, j)));
  EXPECT_LT(maxd, 1e-10);
}

INSTANTIATE_TEST_SUITE_P(Shapes, Syr2kSquareTest,
                         ::testing::Values(std::tuple{16, 4, 4},
                                           std::tuple{17, 5, 4},
                                           std::tuple{64, 16, 16},
                                           std::tuple{100, 32, 24},
                                           std::tuple{33, 8, 0},
                                           std::tuple{1, 1, 1}));

TEST(Syr2k, LowerAndSymmAreThreadCountInvariant) {
  Rng rng(57);
  const index_t n = 180, k = 48, w = 70;
  const Matrix a = random_matrix(n, k, rng);
  const Matrix b = random_matrix(n, k, rng);
  const Matrix sym = random_symmetric(n, rng);
  const Matrix x = random_matrix(n, w, rng);
  const Matrix c0 = random_symmetric(n, rng);
  const Matrix y0 = random_matrix(n, w, rng);

  Matrix c1 = c0, c4 = c0, y1 = y0, y4 = y0;
  {
    ThreadLimit serial(1);
    la::syr2k_lower(-1.0, a.view(), b.view(), 0.5, c1.view());
    la::symm_lower(1.0, sym.view(), x.view(), 0.5, y1.view());
  }
  {
    ThreadLimit parallel(4);
    la::syr2k_lower(-1.0, a.view(), b.view(), 0.5, c4.view());
    la::symm_lower(1.0, sym.view(), x.view(), 0.5, y4.view());
  }
  for (index_t j = 0; j < n; ++j)
    for (index_t i = j; i < n; ++i) ASSERT_EQ(c1(i, j), c4(i, j));
  for (index_t j = 0; j < w; ++j)
    for (index_t i = 0; i < n; ++i) ASSERT_EQ(y1(i, j), y4(i, j));
}

TEST(Syr2kSquare, ParallelMatchesSerialBitwise) {
  // The Fig.-7 schedule dispatches independent anti-diagonal blocks to the
  // pool; every block writes a disjoint C tile with a fixed inner order, so
  // the parallel lower triangle must equal the serial one exactly.
  Rng rng(58);
  const index_t n = 200, k = 48, block = 64;
  const Matrix a = random_matrix(n, k, rng);
  const Matrix b = random_matrix(n, k, rng);
  const Matrix c0 = random_symmetric(n, rng);

  Matrix c1 = c0, c4 = c0;
  {
    ThreadLimit serial(1);
    la::syr2k_lower_square(-1.0, a.view(), b.view(), 1.0, c1.view(), block);
  }
  {
    ThreadLimit parallel(4);
    la::syr2k_lower_square(-1.0, a.view(), b.view(), 1.0, c4.view(), block);
  }
  for (index_t j = 0; j < n; ++j)
    for (index_t i = j; i < n; ++i)
      ASSERT_EQ(c1(i, j), c4(i, j)) << "(" << i << "," << j << ")";
}

TEST(Syr2kSquare, TraceIsThreadCountInvariant) {
  // Ops are recorded on the dispatching thread, so the recorded schedule
  // must not depend on the worker count.
  Rng rng(59);
  const index_t n = 96, k = 16, block = 32;
  const Matrix a = random_matrix(n, k, rng);
  const Matrix b = random_matrix(n, k, rng);

  auto run = [&](int threads) {
    Matrix c = random_symmetric(n, rng);
    trace::Recorder rec;
    ThreadLimit limit(threads);
    trace::Scope scope(rec);
    la::syr2k_lower_square(1.0, a.view(), b.view(), 1.0, c.view(), block);
    return rec.ops();
  };
  const auto ops1 = run(1);
  const auto ops4 = run(4);
  ASSERT_EQ(ops1.size(), ops4.size());
  for (std::size_t i = 0; i < ops1.size(); ++i) {
    EXPECT_EQ(ops1[i].kind, ops4[i].kind);
    EXPECT_EQ(ops1[i].m, ops4[i].m);
    EXPECT_EQ(ops1[i].n, ops4[i].n);
    EXPECT_EQ(ops1[i].k, ops4[i].k);
    EXPECT_EQ(ops1[i].batch, ops4[i].batch);
  }
}

TEST(Syr2kSquare, TraceContainsSquareGemms) {
  Rng rng(11);
  const index_t n = 64, k = 16, block = 16;
  const Matrix a = random_matrix(n, k, rng);
  const Matrix b = random_matrix(n, k, rng);
  Matrix c = random_symmetric(n, rng);

  trace::Recorder rec;
  {
    trace::Scope scope(rec);
    la::syr2k_lower_square(1.0, a.view(), b.view(), 1.0, c.view(), block);
  }
  int square_gemms = 0;
  for (const auto& op : rec.ops()) {
    if (op.kind == trace::OpKind::kGemm && op.m == block && op.n == block)
      ++square_gemms;
  }
  // 4 block-columns -> 6 off-diagonal blocks, 2 GEMMs each.
  EXPECT_EQ(square_gemms, 12);
}

TEST(Trace, FlopCountsAndScoping) {
  trace::Recorder rec;
  {
    trace::Scope scope(rec);
    trace::record({trace::OpKind::kGemm, 10, 20, 30, 1});
    trace::record({trace::OpKind::kSyr2k, 8, 8, 4, 1});
  }
  trace::record({trace::OpKind::kGemm, 100, 100, 100, 1});  // outside scope
  ASSERT_EQ(rec.ops().size(), 2u);
  EXPECT_DOUBLE_EQ(trace::flops(rec.ops()[0]), 2.0 * 10 * 20 * 30);
  EXPECT_DOUBLE_EQ(trace::flops(rec.ops()[1]), 2.0 * 8 * 9 * 4);
  EXPECT_EQ(trace::to_string(rec.ops()[0]), "gemm(10x20x30)");
}

TEST(Generate, SpectrumGeneratorKeepsEigenvaluesOnDiagonalSum) {
  Rng rng(5);
  const std::vector<double> evals{-3.0, -1.0, 0.5, 2.0, 10.0};
  const Matrix a = symmetric_with_spectrum(evals, rng);
  // Trace is similarity-invariant.
  double tr = 0.0;
  for (index_t i = 0; i < 5; ++i) tr += a(i, i);
  EXPECT_NEAR(tr, 8.5, 1e-10);
  // Symmetric by construction.
  EXPECT_LT(max_abs_diff(a.view(), transposed(a.view()).view()), 1e-14);
}

TEST(Generate, Laplacian1dEigenvaluesFormula) {
  const auto ev = laplacian_1d_eigenvalues(4);
  EXPECT_NEAR(ev.front(), 2.0 - 2.0 * std::cos(std::numbers::pi / 5.0), 1e-15);
  EXPECT_EQ(ev.size(), 4u);
}

TEST(Matrix, ViewsAndBlocks) {
  Matrix a(4, 5);
  a(2, 3) = 7.0;
  MatrixView b = a.block(1, 2, 3, 3);
  EXPECT_DOUBLE_EQ(b(1, 1), 7.0);
  b(1, 1) = 9.0;
  EXPECT_DOUBLE_EQ(a(2, 3), 9.0);
  EXPECT_THROW(a.block(2, 2, 4, 1), Error);
  const Matrix i3 = Matrix::identity(3);
  EXPECT_NEAR(orthogonality_error(i3.view()), 0.0, 1e-16);
}

}  // namespace
}  // namespace tdg
