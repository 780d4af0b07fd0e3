// Tests for the tridiagonal eigensolvers (steqr, secular solver, stedc) and
// the end-to-end EVD drivers.

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <numeric>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "eig/bisect.h"
#include "eig/drivers.h"
#include "eig/eig.h"
#include "eig/secular.h"
#include "la/blas.h"
#include "la/generate.h"

namespace tdg {
namespace {

Matrix tridiag_dense(const std::vector<double>& d,
                     const std::vector<double>& e) {
  const index_t n = static_cast<index_t>(d.size());
  Matrix t(n, n);
  for (index_t i = 0; i < n; ++i) {
    t(i, i) = d[static_cast<size_t>(i)];
    if (i + 1 < n) {
      t(i + 1, i) = e[static_cast<size_t>(i)];
      t(i, i + 1) = e[static_cast<size_t>(i)];
    }
  }
  return t;
}

// || T Z - Z diag(w) ||_max — residual of the eigen decomposition.
double eigen_residual(ConstMatrixView t, ConstMatrixView z,
                      const std::vector<double>& w) {
  Matrix tz(t.rows, t.cols);
  la::gemm(Trans::kNo, Trans::kNo, 1.0, t, z, 0.0, tz.view());
  double m = 0.0;
  for (index_t j = 0; j < t.cols; ++j) {
    for (index_t i = 0; i < t.rows; ++i) {
      m = std::max(m, std::abs(tz(i, j) - z(i, j) * w[static_cast<size_t>(j)]));
    }
  }
  return m;
}

constexpr double kEps = std::numeric_limits<double>::epsilon();

// ||T||_inf of the tridiagonal T(d, e).
double tridiag_norm(const std::vector<double>& d, const std::vector<double>& e) {
  double m = 0.0;
  for (std::size_t i = 0; i < d.size(); ++i) {
    const double left = i > 0 ? std::abs(e[i - 1]) : 0.0;
    const double right = i + 1 < d.size() ? std::abs(e[i]) : 0.0;
    m = std::max(m, left + std::abs(d[i]) + right);
  }
  return m;
}

TEST(Steqr, LaplacianEigenvaluesAnalytic) {
  const index_t n = 64;
  std::vector<double> d(static_cast<size_t>(n), 2.0);
  std::vector<double> e(static_cast<size_t>(n - 1), -1.0);
  eig::steqr(d, e, nullptr);
  const auto exact = laplacian_1d_eigenvalues(n);
  for (index_t i = 0; i < n; ++i) {
    EXPECT_NEAR(d[static_cast<size_t>(i)], exact[static_cast<size_t>(i)],
                1e-12 * n);
  }
}

TEST(Steqr, EigenvectorsResidualAndOrthogonality) {
  Rng rng(1);
  const index_t n = 40;
  std::vector<double> d(static_cast<size_t>(n)), e(static_cast<size_t>(n - 1));
  for (auto& x : d) x = rng.normal();
  for (auto& x : e) x = rng.normal();
  const Matrix t = tridiag_dense(d, e);

  Matrix z = Matrix::identity(n);
  MatrixView zv = z.view();
  eig::steqr(d, e, &zv);

  EXPECT_TRUE(std::is_sorted(d.begin(), d.end()));
  EXPECT_LT(orthogonality_error(z.view()), 1e-12 * n);
  EXPECT_LT(eigen_residual(t.view(), z.view(), d), 1e-12 * n);
}

TEST(Steqr, HandlesZeroAndSingleAndDiagonal) {
  std::vector<double> d0, e0;
  eig::steqr(d0, e0, nullptr);  // n == 0: no-op
  std::vector<double> d1{5.0}, e1;
  eig::steqr(d1, e1, nullptr);
  EXPECT_DOUBLE_EQ(d1[0], 5.0);
  // Already diagonal: e = 0.
  std::vector<double> d{3.0, 1.0, 2.0}, e{0.0, 0.0};
  eig::steqr(d, e, nullptr);
  EXPECT_DOUBLE_EQ(d[0], 1.0);
  EXPECT_DOUBLE_EQ(d[1], 2.0);
  EXPECT_DOUBLE_EQ(d[2], 3.0);
}

TEST(Secular, RootsInterlaceAndSolveExactly) {
  // Small problem with known structure: D = diag(0,1,2), z = (1,1,1)/sqrt 3,
  // rho = 1. Roots interlace: d_j < lambda_j < d_{j+1}, last < d_max+rho.
  const std::vector<double> d{0.0, 1.0, 2.0};
  const double s = 1.0 / std::sqrt(3.0);
  const std::vector<double> z{s, s, s};
  const auto roots = eig::solve_secular(d, z, 1.0);
  ASSERT_EQ(roots.size(), 3u);
  EXPECT_GT(roots[0].lambda, 0.0);
  EXPECT_LT(roots[0].lambda, 1.0);
  EXPECT_GT(roots[1].lambda, 1.0);
  EXPECT_LT(roots[1].lambda, 2.0);
  EXPECT_GT(roots[2].lambda, 2.0);
  EXPECT_LT(roots[2].lambda, 3.0 + 1e-12);
  // f(lambda) ~ 0 at each root.
  for (const auto& r : roots) {
    double f = 1.0;
    for (int i = 0; i < 3; ++i)
      f += z[static_cast<size_t>(i)] * z[static_cast<size_t>(i)] /
           (d[static_cast<size_t>(i)] - r.lambda);
    EXPECT_LT(std::abs(f), 1e-10);
  }
  // Eigenvalue sum: trace(D + rho z z^T) = 0+1+2 + 1 = 4.
  EXPECT_NEAR(roots[0].lambda + roots[1].lambda + roots[2].lambda, 4.0, 1e-12);
}

TEST(Secular, TinyGapsStayBracketed) {
  const std::vector<double> d{0.0, 1e-14, 1.0};
  const std::vector<double> z{0.5, 0.5, 0.7};
  const auto roots = eig::solve_secular(d, z, 2.0);
  EXPECT_GT(roots[0].lambda, d[0]);
  EXPECT_LT(roots[0].lambda, d[1]);
  EXPECT_GT(roots[1].lambda, d[1]);
  EXPECT_LT(roots[1].lambda, d[2]);
}

TEST(Secular, RecomputedZReproducesOriginalOnExactData) {
  // On a well-separated problem zhat ~ z.
  const std::vector<double> d{0.0, 2.0, 5.0, 9.0};
  std::vector<double> z{0.3, -0.4, 0.5, 0.6};
  const auto roots = eig::solve_secular(d, z, 1.7);
  const auto zhat = eig::recompute_z(d, z, 1.7, roots);
  for (std::size_t i = 0; i < z.size(); ++i) {
    EXPECT_NEAR(zhat[i], z[i], 1e-10) << i;
  }
}

class StedcTest : public ::testing::TestWithParam<int> {};

TEST_P(StedcTest, MatchesSteqrAndIsOrthogonal) {
  const index_t n = GetParam();
  Rng rng(10 + static_cast<uint64_t>(n));
  std::vector<double> d(static_cast<size_t>(n)), e(static_cast<size_t>(n - 1));
  for (auto& x : d) x = rng.normal();
  for (auto& x : e) x = rng.normal();
  const Matrix t = tridiag_dense(d, e);
  const double bound = 4.0 * static_cast<double>(n) * kEps;
  const double tnorm = tridiag_norm(d, e);

  std::vector<double> d1 = d, e1 = e;
  eig::steqr(d1, e1, nullptr);

  std::vector<double> d2 = d, e2 = e;
  Matrix q(n, n);
  eig::stedc(d2, e2, q.view(), 8);

  for (index_t i = 0; i < n; ++i) {
    EXPECT_NEAR(d1[static_cast<size_t>(i)], d2[static_cast<size_t>(i)],
                bound * tnorm)
        << i;
  }
  EXPECT_LT(orthogonality_error(q.view()), bound);
  EXPECT_LT(eigen_residual(t.view(), q.view(), d2), bound * tnorm);
}

INSTANTIATE_TEST_SUITE_P(Sizes, StedcTest,
                         ::testing::Values(1, 2, 3, 7, 8, 9, 16, 17, 33, 64,
                                           100, 129));

TEST(Stedc, HeavyDeflationClusteredSpectrum) {
  // A matrix engineered to deflate heavily: many equal diagonal entries and
  // tiny couplings.
  const index_t n = 50;
  std::vector<double> d(static_cast<size_t>(n), 1.0);
  std::vector<double> e(static_cast<size_t>(n - 1), 1e-18);
  e[10] = 0.5;
  e[30] = -0.25;
  const Matrix t = tridiag_dense(d, e);

  std::vector<double> dd = d, ee = e;
  Matrix q(n, n);
  eig::stedc(dd, ee, q.view(), 8);
  EXPECT_LT(orthogonality_error(q.view()), 1e-11 * n);
  EXPECT_LT(eigen_residual(t.view(), q.view(), dd), 1e-11 * n);
}

TEST(Stedc, ZeroCouplingSplitsCleanly) {
  const index_t n = 16;
  Rng rng(77);
  std::vector<double> d(static_cast<size_t>(n)), e(static_cast<size_t>(n - 1));
  for (auto& x : d) x = rng.normal();
  for (auto& x : e) x = rng.normal();
  e[7] = 0.0;  // rho == 0 at the top-level merge
  const Matrix t = tridiag_dense(d, e);

  std::vector<double> dd = d, ee = e;
  Matrix q(n, n);
  eig::stedc(dd, ee, q.view(), 4);
  EXPECT_LT(eigen_residual(t.view(), q.view(), dd), 1e-12 * n);
}

TEST(Secular, RootsStrictlyInsideAndMatchBisection) {
  // Reference: bisect f in the shifted variable about d_j (about d_{k-1}
  // for the last root) until the bracket stops shrinking.
  const auto reference = [](const std::vector<double>& d,
                            const std::vector<double>& z, double rho,
                            std::size_t j) {
    const std::size_t k = d.size();
    double lo = 0.0;
    double hi = 0.0;
    if (j + 1 < k) {
      hi = d[j + 1] - d[j];
    } else {
      for (double zi : z) hi += rho * zi * zi;
      hi *= 2.0;
    }
    for (;;) {
      const double mid = 0.5 * (lo + hi);
      if (!(mid > lo && mid < hi)) break;
      double f = 1.0 / rho;
      for (std::size_t i = 0; i < k; ++i) f += z[i] * z[i] / ((d[i] - d[j]) - mid);
      (f < 0.0 ? lo : hi) = mid;
    }
    return d[j] + 0.5 * (lo + hi);
  };

  struct Problem {
    std::vector<double> d, z;
    double rho;
  };
  std::vector<Problem> problems;
  problems.push_back({{0.0, 1e-14, 1.0}, {0.5, 0.5, 0.7}, 2.0});
  for (const std::uint64_t seed : {3u, 4u, 5u}) {
    Rng rng(seed);
    Problem p;
    p.d.resize(60);
    p.z.resize(60);
    for (auto& x : p.d) x = rng.normal();
    std::sort(p.d.begin(), p.d.end());
    double zz = 0.0;
    for (auto& x : p.z) {
      x = rng.normal();
      zz += x * x;
    }
    for (auto& x : p.z) x /= std::sqrt(zz);
    p.rho = 0.5 + rng.uniform();
    problems.push_back(p);
  }

  for (const Problem& p : problems) {
    const auto roots = eig::solve_secular(p.d, p.z, p.rho);
    const std::size_t k = p.d.size();
    double dmax = 0.0;
    for (double x : p.d) dmax = std::max(dmax, std::abs(x));
    for (std::size_t j = 0; j < k; ++j) {
      const eig::SecularRoot& r = roots[j];
      // Strictly inside the interval, read off the offset from the base
      // pole: lambda itself may round onto a pole.
      if (j + 1 < k) {
        const double gap = p.d[j + 1] - p.d[j];
        ASSERT_TRUE(r.base == static_cast<index_t>(j) ||
                    r.base == static_cast<index_t>(j + 1))
            << j;
        if (r.base == static_cast<index_t>(j)) {
          EXPECT_GT(r.mu, 0.0) << j;
          EXPECT_LT(r.mu, gap) << j;
        } else {
          EXPECT_LT(r.mu, 0.0) << j;
          EXPECT_GT(r.mu, -gap) << j;
        }
      } else {
        EXPECT_EQ(r.base, static_cast<index_t>(k - 1));
        EXPECT_GT(r.mu, 0.0);
      }
      EXPECT_NEAR(r.lambda, reference(p.d, p.z, p.rho, j), 4.0 * kEps * dmax)
          << "root " << j << " of " << k;
    }
  }
}

// One tridiagonal input for the D&C accuracy gate.
struct StedcInput {
  std::vector<double> d, e;
  index_t smlsiz = 8;
};

StedcInput random_input(index_t n, std::uint64_t seed, double scale,
                        index_t smlsiz) {
  StedcInput in;
  Rng rng(seed);
  in.d.resize(static_cast<size_t>(n));
  in.e.resize(static_cast<size_t>(n - 1));
  for (auto& x : in.d) x = scale * rng.normal();
  for (auto& x : in.e) x = scale * rng.normal();
  in.smlsiz = smlsiz;
  return in;
}

StedcInput stedc_input(const std::string& name) {
  if (name.rfind("random_n", 0) == 0) {
    // The StedcTest inputs.
    const index_t n = std::stoi(name.substr(8));
    return random_input(n, 10 + static_cast<std::uint64_t>(n), 1.0, 8);
  }
  if (name == "huge") return random_input(100, 71, 1e150, 8);
  if (name == "tiny") return random_input(100, 72, 1e-150, 8);
  if (name == "random_1024") return random_input(1024, 73, 1.0, 32);
  StedcInput in;
  if (name == "wilkinson_glued") {
    // 24 copies of W21+ glued by 1e-14: pairs of nearly equal eigenvalues
    // and heavy deflation in every merge.
    for (int b = 0; b < 24; ++b) {
      for (int i = 0; i < 21; ++i) {
        in.d.push_back(std::abs(10.0 - i));
        if (i < 20) in.e.push_back(1.0);
      }
      if (b < 23) in.e.push_back(1e-14);
    }
  } else if (name == "clusters") {
    // Three clusters of width 1e-12, through a dense Householder reduction.
    std::vector<double> w;
    for (const double c : {-1.0, 0.25, 2.0}) {
      for (int i = 0; i < 32; ++i) w.push_back(c + 1e-12 * i / 31.0);
    }
    Rng rng(74);
    const Matrix a = symmetric_with_spectrum(w, rng);
    TridiagOptions o;
    o.method = TridiagMethod::kDirect;
    o.want_factors = false;
    const TridiagResult t = tridiagonalize(a.view(), o);
    in.d = t.d;
    in.e = t.e;
  } else if (name == "graded") {
    for (int i = 0; i < 160; ++i) {
      in.d.push_back(std::pow(10.0, -0.1 * i));
      if (i < 159) in.e.push_back(0.5 * std::pow(10.0, -0.1 * i - 0.05));
    }
  } else if (name == "laplacian_1024") {
    in.d.assign(1024, 2.0);
    in.e.assign(1023, -1.0);
    in.smlsiz = 32;
  }
  return in;
}

class StedcAccuracy : public ::testing::TestWithParam<std::string> {};

TEST_P(StedcAccuracy, ResidualOrthogonalityEigenvaluesAndThreads) {
  const StedcInput in = stedc_input(GetParam());
  const index_t n = static_cast<index_t>(in.d.size());
  ASSERT_GT(n, 0);
  const double bound = 4.0 * static_cast<double>(n) * kEps;
  const double tnorm = tridiag_norm(in.d, in.e);

  const auto run = [&](int threads, std::vector<double>& w, Matrix& q) {
    ThreadLimit limit(threads);
    w = in.d;
    std::vector<double> e = in.e;
    q = Matrix(n, n);
    eig::stedc(w, e, q.view(), in.smlsiz);
  };
  std::vector<double> w1, w4;
  Matrix q1, q4;
  run(1, w1, q1);
  run(4, w4, q4);

  EXPECT_EQ(std::memcmp(w1.data(), w4.data(), w1.size() * sizeof(double)), 0);
  EXPECT_EQ(std::memcmp(q1.data(), q4.data(),
                        static_cast<std::size_t>(n * n) * sizeof(double)),
            0);

  EXPECT_LT(eigen_residual(tridiag_dense(in.d, in.e).view(), q1.view(), w1),
            bound * tnorm);
  EXPECT_LT(orthogonality_error(q1.view()), bound);
  const std::vector<double> ref = eig::eigenvalues_bisect(in.d, in.e, 0, n - 1);
  for (index_t i = 0; i < n; ++i) {
    EXPECT_NEAR(w1[static_cast<size_t>(i)], ref[static_cast<size_t>(i)],
                bound * tnorm)
        << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Inputs, StedcAccuracy,
    ::testing::Values("random_n1", "random_n2", "random_n3", "random_n7",
                      "random_n8", "random_n9", "random_n16", "random_n17",
                      "random_n33", "random_n64", "random_n100", "random_n129",
                      "wilkinson_glued", "clusters", "graded", "huge", "tiny",
                      "random_1024", "laplacian_1024"),
    [](const ::testing::TestParamInfo<std::string>& info) { return info.param; });

TEST(Eigh, DirectMatchesSpectrumGenerator) {
  Rng rng(20);
  std::vector<double> evals(32);
  for (std::size_t i = 0; i < evals.size(); ++i)
    evals[i] = static_cast<double>(i) - 7.5;
  const Matrix a = symmetric_with_spectrum(evals, rng);

  eig::EvdOptions opts;
  opts.tridiag.method = TridiagMethod::kDirect;
  const eig::EvdResult r = eig::eigh(a.view(), opts);
  for (std::size_t i = 0; i < evals.size(); ++i) {
    EXPECT_NEAR(r.eigenvalues[i], evals[i], 1e-10);
  }
}

class EighPipelineTest
    : public ::testing::TestWithParam<std::tuple<int, TridiagMethod, bool>> {};

TEST_P(EighPipelineTest, ResidualAndOrthogonality) {
  const auto [n, method, vectors] = GetParam();
  Rng rng(30 + static_cast<uint64_t>(n));
  const Matrix a = random_symmetric(n, rng);

  eig::EvdOptions opts;
  opts.vectors = vectors;
  opts.tridiag.method = method;
  opts.tridiag.b = 4;
  opts.tridiag.k = 8;
  opts.tridiag.bc_threads = 3;
  opts.knobs.bt_kw = 8;
  const eig::EvdResult r = eig::eigh(a.view(), opts);

  EXPECT_TRUE(std::is_sorted(r.eigenvalues.begin(), r.eigenvalues.end()));

  // Cross-validate eigenvalues against the direct method with QL.
  eig::EvdOptions ref;
  ref.vectors = false;
  ref.tridiag.method = TridiagMethod::kDirect;
  const eig::EvdResult rr = eig::eigh(a.view(), ref);
  for (index_t i = 0; i < n; ++i) {
    EXPECT_NEAR(r.eigenvalues[static_cast<size_t>(i)],
                rr.eigenvalues[static_cast<size_t>(i)], 1e-10 * n)
        << i;
  }

  if (vectors) {
    EXPECT_LT(orthogonality_error(r.eigenvectors.view()), 1e-10 * n);
    // || A V - V diag(w) ||.
    EXPECT_LT(eigen_residual(a.view(), r.eigenvectors.view(), r.eigenvalues),
              1e-10 * n);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Pipelines, EighPipelineTest,
    ::testing::Values(
        std::tuple{24, TridiagMethod::kDirect, true},
        std::tuple{24, TridiagMethod::kTwoStageClassic, true},
        std::tuple{24, TridiagMethod::kTwoStageDbbr, true},
        std::tuple{45, TridiagMethod::kTwoStageDbbr, true},
        std::tuple{45, TridiagMethod::kTwoStageClassic, true},
        std::tuple{45, TridiagMethod::kTwoStageDbbr, false},
        std::tuple{64, TridiagMethod::kTwoStageDbbr, true},
        std::tuple{7, TridiagMethod::kTwoStageDbbr, true},
        std::tuple{2, TridiagMethod::kTwoStageDbbr, true},
        std::tuple{1, TridiagMethod::kDirect, true}));

TEST(Eigh, QlSolverAgreesWithDivideConquer) {
  Rng rng(40);
  const index_t n = 32;
  const Matrix a = random_symmetric(n, rng);

  eig::EvdOptions o1;
  o1.solver = eig::TridiagSolver::kDivideConquer;
  o1.tridiag.b = 4;
  o1.tridiag.k = 8;
  const auto r1 = eig::eigh(a.view(), o1);

  eig::EvdOptions o2 = o1;
  o2.solver = eig::TridiagSolver::kImplicitQl;
  const auto r2 = eig::eigh(a.view(), o2);

  for (index_t i = 0; i < n; ++i) {
    EXPECT_NEAR(r1.eigenvalues[static_cast<size_t>(i)],
                r2.eigenvalues[static_cast<size_t>(i)], 1e-11 * n);
  }
  EXPECT_LT(eigen_residual(a.view(), r2.eigenvectors.view(), r2.eigenvalues),
            1e-10 * n);
}

TEST(Tridiagonalize, AllMethodsProduceSameSpectrum) {
  Rng rng(50);
  const index_t n = 40;
  const Matrix a = random_symmetric(n, rng);

  auto values = [&](TridiagMethod m) {
    TridiagOptions o;
    o.method = m;
    o.b = 4;
    o.k = 8;
    o.want_factors = false;
    TridiagResult t = tridiagonalize(a.view(), o);
    eig::steqr(t.d, t.e, nullptr);
    return t.d;
  };
  const auto v1 = values(TridiagMethod::kDirect);
  const auto v2 = values(TridiagMethod::kTwoStageClassic);
  const auto v3 = values(TridiagMethod::kTwoStageDbbr);
  for (index_t i = 0; i < n; ++i) {
    EXPECT_NEAR(v1[static_cast<size_t>(i)], v2[static_cast<size_t>(i)],
                1e-10 * n);
    EXPECT_NEAR(v1[static_cast<size_t>(i)], v3[static_cast<size_t>(i)],
                1e-10 * n);
  }
}

}  // namespace
}  // namespace tdg
