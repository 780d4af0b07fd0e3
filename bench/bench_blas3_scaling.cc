// Thread-scaling of the CPU BLAS-3 engine: GFLOP/s for the packed gemm, the
// square-block syr2k and the skinny shapes of DBBR's panel chain across
// sizes and thread counts. This is the substrate every stage of the
// pipeline (DBBR trailing updates and panel products, the
// back-transformation GEMMs) bottoms out in, so its scaling curve bounds the
// end-to-end trajectory.
//
// Besides the human-readable table, each measurement is emitted as one JSON
// line (prefix "JSON ") so the perf trajectory can scrape
//   {"bench":"blas3_scaling","op":...,"m":...,"n":...,"k":...,
//    "threads":...,"seconds":...,"gflops":...}
//
// Flags: --n_max=N    largest size to run (default 2048; the acceptance
//                     shapes gemm 2048x2048x1024 / syr2k n=4096 need
//                     --n_max=4096)
//        --maxthreads=T  largest thread count (default 8)
//        --reps=R     timing repetitions, best-of (default 1)

#include <algorithm>
#include <cstdio>
#include <functional>

#include "bench_util.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "la/blas.h"
#include "la/generate.h"

namespace {

using namespace tdg;

double best_of(index_t reps, const std::function<double()>& run) {
  double best = -1.0;
  for (index_t r = 0; r < reps; ++r) {
    const double s = run();
    if (best < 0.0 || s < best) best = s;
  }
  return best;
}

void emit(const char* op, index_t m, index_t n, index_t k, int threads,
          double seconds, double gflops) {
  benchutil::JsonLine("blas3_scaling")
      .field("op", op)
      .field("m", m)
      .field("n", n)
      .field("k", k)
      .field("threads", threads)
      .field("seconds", seconds)
      .field("gflops", gflops)
      .emit();
}

}  // namespace

int main(int argc, char** argv) {
  using namespace tdg;
  const benchutil::Args args(argc, argv, {"n_max", "maxthreads", "reps"});
  const index_t n_max = args.get_int("n_max", 2048);
  const int maxthreads = static_cast<int>(args.get_int("maxthreads", 8));
  const index_t reps = std::max<index_t>(args.get_int("reps", 1), 1);
  Rng rng(12);

  benchutil::header("BLAS-3 engine scaling: packed gemm (m = n, k = n/2)");
  std::printf("%6s | %8s | %10s | %10s | %8s\n", "n", "threads", "sec",
              "GFLOP/s", "scaling");
  benchutil::rule();
  for (index_t n : {256, 512, 1024, 2048, 4096}) {
    if (n > n_max) break;
    const index_t k = n / 2;
    const Matrix a = random_matrix(n, k, rng);
    const Matrix b = random_matrix(k, n, rng);
    Matrix c(n, n);
    const double flops = 2.0 * static_cast<double>(n) * n * k;
    double s1 = 0.0;
    for (int t = 1; t <= maxthreads; t *= 2) {
      const double s = best_of(reps, [&] {
        ThreadLimit limit(t);
        WallTimer timer;
        la::gemm(Trans::kNo, Trans::kNo, 1.0, a.view(), b.view(), 0.0,
                 c.view());
        return timer.seconds();
      });
      if (t == 1) s1 = s;
      std::printf("%6lld | %8d | %10.4f | %10.2f | %7.2fx\n",
                  static_cast<long long>(n), t, s, flops / s / 1e9, s1 / s);
      emit("gemm", n, n, k, t, s, flops / s / 1e9);
    }
  }

  benchutil::header("BLAS-3 engine scaling: square-block syr2k (k = n/4)");
  std::printf("%6s | %8s | %10s | %10s | %8s\n", "n", "threads", "sec",
              "GFLOP/s", "scaling");
  benchutil::rule();
  for (index_t n : {512, 1024, 2048, 4096}) {
    if (n > n_max) break;
    const index_t k = std::min<index_t>(1024, n / 4);
    const Matrix a = random_matrix(n, k, rng);
    const Matrix b = random_matrix(n, k, rng);
    const Matrix c0 = random_symmetric(n, rng);
    const double flops = benchutil::syr2k_flops(n, k);
    double s1 = 0.0;
    for (int t = 1; t <= maxthreads; t *= 2) {
      Matrix c = c0;
      const double s = best_of(reps, [&] {
        ThreadLimit limit(t);
        WallTimer timer;
        la::syr2k_lower_square(-1.0, a.view(), b.view(), 1.0, c.view());
        return timer.seconds();
      });
      if (t == 1) s1 = s;
      std::printf("%6lld | %8d | %10.4f | %10.2f | %7.2fx\n",
                  static_cast<long long>(n), t, s, flops / s / 1e9, s1 / s);
      emit("syr2k_square", n, n, k, t, s, flops / s / 1e9);
    }
  }

  // DBBR's panel chain for an n x n problem at b = 32, with k = n/4
  // reflector columns accumulated (mid outer block at the plan's k = n/2):
  // the JIT refresh Y Z^T (n x b x k, NT), the corrections Z^T V (k x b x n,
  // TN) and Y (Z^T V) (n x b x k, NN), and the panel product A V (symm,
  // n x b). Each is one call on the serial critical path.
  benchutil::header("DBBR panel shapes (b = 32, k = n/4) at 1 and 4 threads");
  std::printf("%14s | %6s | %6s | %6s | %8s | %10s | %10s\n", "op", "m", "n",
              "k", "threads", "sec", "GFLOP/s");
  benchutil::rule();
  for (index_t n : {512, 1024, 2048}) {
    if (n > n_max) break;
    const index_t b = 32;
    const index_t k = n / 4;
    const Matrix y = random_matrix(n, k, rng);
    const Matrix z = random_matrix(n, k, rng);
    const Matrix v = random_matrix(n, b, rng);
    const Matrix zv = random_matrix(k, b, rng);
    const Matrix sym = random_symmetric(n, rng);
    Matrix blk(n, b), corr(k, b), p(n, b);
    struct Shape {
      const char* op;
      index_t m, n, k;
      std::function<void()> run;
    };
    const Shape shapes[] = {
        {"panel_jit_nt", n, b, k,
         [&] {
           la::gemm(Trans::kNo, Trans::kTrans, -1.0, y.view(),
                    z.view().block(0, 0, b, k), 1.0, blk.view());
         }},
        {"panel_corr_tn", k, b, n,
         [&] {
           la::gemm(Trans::kTrans, Trans::kNo, 1.0, z.view(), v.view(), 0.0,
                    corr.view());
         }},
        {"panel_corr_nn", n, b, k,
         [&] {
           la::gemm(Trans::kNo, Trans::kNo, -1.0, y.view(), zv.view(), 1.0,
                    p.view());
         }},
        {"panel_symm", n, b, n,
         [&] {
           la::symm_lower(1.0, sym.view(), v.view(), 0.0, p.view());
         }},
    };
    for (const Shape& sh : shapes) {
      const double flops = 2.0 * static_cast<double>(sh.m) * sh.n * sh.k;
      for (int t : {1, 4}) {
        if (t > maxthreads) break;
        const double s = best_of(reps, [&] {
          ThreadLimit limit(t);
          WallTimer timer;
          sh.run();
          return timer.seconds();
        });
        std::printf("%14s | %6lld | %6lld | %6lld | %8d | %10.4f | %10.2f\n",
                    sh.op, static_cast<long long>(sh.m),
                    static_cast<long long>(sh.n), static_cast<long long>(sh.k),
                    t, s, flops / s / 1e9);
        emit(sh.op, sh.m, sh.n, sh.k, t, s, flops / s / 1e9);
      }
    }
  }

  // The acceptance shape from the paper's fat-trailing-update regime.
  if (n_max >= 4096) {
    benchutil::header("Acceptance shapes (gemm 2048x2048x1024, syr2k n=4096 k=1024)");
    {
      const Matrix a = random_matrix(2048, 1024, rng);
      const Matrix b = random_matrix(1024, 2048, rng);
      Matrix c(2048, 2048);
      const double flops = 2.0 * 2048.0 * 2048.0 * 1024.0;
      for (int t = 1; t <= maxthreads; t *= 2) {
        const double s = best_of(reps, [&] {
          ThreadLimit limit(t);
          WallTimer timer;
          la::gemm(Trans::kNo, Trans::kNo, 1.0, a.view(), b.view(), 0.0,
                   c.view());
          return timer.seconds();
        });
        emit("gemm_acceptance", 2048, 2048, 1024, t, s, flops / s / 1e9);
      }
    }
    {
      const Matrix a = random_matrix(4096, 1024, rng);
      const Matrix b = random_matrix(4096, 1024, rng);
      const Matrix c0 = random_symmetric(4096, rng);
      const double flops = benchutil::syr2k_flops(4096, 1024);
      for (int t = 1; t <= maxthreads; t *= 2) {
        Matrix c = c0;
        const double s = best_of(reps, [&] {
          ThreadLimit limit(t);
          WallTimer timer;
          la::syr2k_lower_square(-1.0, a.view(), b.view(), 1.0, c.view());
          return timer.seconds();
        });
        emit("syr2k_acceptance", 4096, 4096, 1024, t, s, flops / s / 1e9);
      }
    }
  }
  return 0;
}
