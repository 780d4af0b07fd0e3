// Principal component analysis via symmetric EVD — one of the applications
// motivating large dense eigenproblems in the paper's Section 7.2.
//
// Synthesises samples from a low-rank-plus-noise model, forms the covariance
// matrix, runs the two-stage EVD pipeline, and reports how much variance the
// leading components explain (the planted subspace must dominate).
//
//   ./build/examples/spectral_pca [features] [samples]

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include <tdg/eig.h>

#include "common/rng.h"
#include "la/blas.h"
#include "la/generate.h"

int main(int argc, char** argv) {
  using namespace tdg;
  const index_t p = (argc > 1) ? std::atoll(argv[1]) : 384;  // features
  const index_t m = (argc > 2) ? std::atoll(argv[2]) : 1024; // samples
  constexpr index_t kPlantedRank = 5;

  // Data: X = L F + noise, with L (p x r) a random loading matrix whose
  // components have decaying strength, F (r x m) latent factors.
  Rng rng(7);
  Matrix loadings = random_matrix(p, kPlantedRank, rng);
  for (index_t r = 0; r < kPlantedRank; ++r) {
    const double strength = 10.0 / (1.0 + static_cast<double>(r));
    la::scal(p, strength, loadings.view().col(r));
  }
  const Matrix factors = random_matrix(kPlantedRank, m, rng);
  Matrix x(p, m);
  la::gemm(Trans::kNo, Trans::kNo, 1.0, loadings.view(), factors.view(), 0.0,
           x.view());
  for (index_t j = 0; j < m; ++j) {
    for (index_t i = 0; i < p; ++i) x(i, j) += rng.normal();  // unit noise
  }

  // Center features and form the covariance C = X X^T / (m - 1).
  for (index_t i = 0; i < p; ++i) {
    double mean = 0.0;
    for (index_t j = 0; j < m; ++j) mean += x(i, j);
    mean /= static_cast<double>(m);
    for (index_t j = 0; j < m; ++j) x(i, j) -= mean;
  }
  Matrix cov(p, p);
  la::gemm(Trans::kNo, Trans::kTrans, 1.0 / static_cast<double>(m - 1),
           x.view(), x.view(), 0.0, cov.view());

  // EVD through the paper's pipeline.
  eig::EvdOptions opts;
  opts.tridiag.method = TridiagMethod::kTwoStageDbbr;
  opts.tridiag.b = 32;
  opts.tridiag.k = 128;
  const eig::EvdResult evd = eig::eigh(cov.view(), opts);

  double total = 0.0;
  for (double w : evd.eigenvalues) total += std::max(w, 0.0);

  std::printf("PCA on %lld features x %lld samples (planted rank %lld)\n",
              static_cast<long long>(p), static_cast<long long>(m),
              static_cast<long long>(kPlantedRank));
  std::printf("%5s | %12s | %10s | %10s\n", "PC", "eigenvalue", "explained",
              "cumulative");
  double cum = 0.0;
  for (index_t c = 0; c < 8; ++c) {
    const double w =
        evd.eigenvalues[static_cast<std::size_t>(p - 1 - c)];  // descending
    cum += w / total;
    std::printf("%5lld | %12.3f | %9.2f%% | %9.2f%%\n",
                static_cast<long long>(c + 1), w, 100.0 * w / total,
                100.0 * cum);
  }
  std::printf("\ntiming: tridiag %.3f s, solver %.3f s, back transform %.3f s\n",
              evd.profile.seconds("tridiagonalize"),
              evd.profile.seconds("solver"),
              evd.profile.seconds("backtransform"));
  std::printf("leading %lld components explain %.1f%% of variance "
              "(planted model: they should dominate)\n",
              static_cast<long long>(kPlantedRank), 100.0 * cum);

  // Subset solver: only the top kPlantedRank components — the back
  // transforms touch kPlantedRank columns instead of p, which is the cheap
  // path when you only need a few components.
  const eig::EvdResult top =
      eig::eigh_range(cov.view(), p - kPlantedRank, p - 1, opts);
  double maxdiff = 0.0;
  for (index_t c = 0; c < kPlantedRank; ++c) {
    maxdiff = std::max(
        maxdiff,
        std::abs(top.eigenvalues[static_cast<std::size_t>(c)] -
                 evd.eigenvalues[static_cast<std::size_t>(p - kPlantedRank + c)]));
  }
  std::printf("\neigh_range(top %lld): back transform %.3f s vs %.3f s full; "
              "max |diff| vs full solve = %.2e\n",
              static_cast<long long>(kPlantedRank),
              top.profile.seconds("backtransform"),
              evd.profile.seconds("backtransform"), maxdiff);
  return 0;
}
