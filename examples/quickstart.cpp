// Quickstart: tridiagonalize a symmetric matrix with the paper's pipeline
// (DBBR + pipelined bulge chasing) and compute its full eigendecomposition.
//
// Build & run:
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/quickstart [n]

#include <cmath>
#include <cstdio>
#include <cstdlib>

#include <tdg/eig.h>

#include "common/rng.h"
#include "la/blas.h"
#include "la/generate.h"

int main(int argc, char** argv) {
  using namespace tdg;
  const index_t n = (argc > 1) ? std::atoll(argv[1]) : 512;

  // A random dense symmetric matrix.
  Rng rng(42);
  const Matrix a = random_symmetric(n, rng);

  // --- Step 1: tridiagonalization, T = Q^T A Q. ---
  TridiagOptions topts;
  topts.method = TridiagMethod::kTwoStageDbbr;  // the paper's method
  topts.b = 32;                                 // bandwidth after stage 1
  topts.k = 256;                                // outer block (syr2k depth)
  // Its stages time themselves into the record installed around the call.
  obs::SolveRecord record;
  TridiagResult tri;
  {
    obs::RecordScope scope(&record);
    tri = tridiagonalize(a.view(), topts);
  }
  std::printf("tridiagonalized n=%lld: stage1 (DBBR) %.3f s, "
              "stage2 (bulge chasing) %.3f s\n",
              static_cast<long long>(n), record.seconds("dbbr"),
              record.seconds("bulge_chase"));
  std::printf("T diagonal head: %.4f %.4f %.4f ...\n", tri.d[0], tri.d[1],
              tri.d[2]);

  // --- Step 2: full eigendecomposition A = V diag(w) V^T. ---
  eig::EvdOptions eopts;
  eopts.tridiag = topts;
  const eig::EvdResult evd = eig::eigh(a.view(), eopts);
  std::printf("eigh: tridiag %.3f s, divide&conquer %.3f s, "
              "back transform %.3f s\n",
              evd.profile.seconds("tridiagonalize"),
              evd.profile.seconds("solver"),
              evd.profile.seconds("backtransform"));
  std::printf("spectrum: [%.4f, %.4f]\n", evd.eigenvalues.front(),
              evd.eigenvalues.back());

  // --- Verify: ||A v - w v|| for the extremal eigenpairs. ---
  for (const index_t j : {index_t{0}, n - 1}) {
    std::vector<double> av(static_cast<std::size_t>(n));
    la::gemv(Trans::kNo, 1.0, a.view(), evd.eigenvectors.view().col(j), 0.0,
             av.data());
    double resid = 0.0;
    for (index_t i = 0; i < n; ++i) {
      const double r = av[static_cast<std::size_t>(i)] -
                       evd.eigenvalues[static_cast<std::size_t>(j)] *
                           evd.eigenvectors(i, j);
      resid += r * r;
    }
    std::printf("||A v - w v||_2 for eigenpair %lld: %.2e\n",
                static_cast<long long>(j), std::sqrt(resid));
  }
  std::printf("orthogonality ||V^T V - I||_max = %.2e\n",
              orthogonality_error(evd.eigenvectors.view()));
  return 0;
}
