// Figure 14 of the paper: stage-1 back transformation (b = 64) — MAGMA's
// panel-by-panel ormqr vs the proposed blocked W reconstruction (k = 2048).
// Paper reports ~1.6x.
//
// Measured: the three real variants (conventional / recursive Algorithm 3 /
// blocked Figure 13) on the CPU. Projected: synthetic traces priced on the
// H100 model at paper sizes.

#include <cstdio>

#include "backtransform/backtransform.h"
#include "bench_util.h"
#include "common/rng.h"
#include "common/timer.h"
#include "gpumodel/kernel_model.h"
#include "gpumodel/trace_cost.h"
#include "la/generate.h"
#include "sbr/sbr.h"

int main(int argc, char** argv) {
  using namespace tdg;
  const benchutil::Args args(argc, argv, {"b"});
  const index_t b = args.get_int("b", 64);

  benchutil::header("Figure 14 (measured CPU): back-transform variants");
  Rng rng(6);
  std::printf("%6s | %12s | %12s | %12s | %14s\n", "n", "conv (s)",
              "recursive(s)", "blocked (s)", "blocked spdup");
  benchutil::rule();
  for (index_t n : {512, 1024, 1536}) {
    const index_t be = std::min(b, n / 4);
    Matrix a = random_symmetric(n, rng);
    sbr::BandFactor f = sbr::sy2sb(a.view(), be);
    Matrix c0 = random_matrix(n, n, rng);

    Matrix c1 = c0;
    WallTimer t1;
    bt::apply_q1_conventional(f, c1.view());
    const double s1 = t1.seconds();

    Matrix c2 = c0;
    WallTimer t2;
    bt::apply_q1_recursive(f, c2.view());
    const double s2 = t2.seconds();

    Matrix c3 = c0;
    WallTimer t3;
    bt::apply_q1_blocked(f, 256, c3.view());
    const double s3 = t3.seconds();

    std::printf("%6lld | %12.3f | %12.3f | %12.3f | %13.2fx\n",
                static_cast<long long>(n), s1, s2, s3, s1 / s3);
  }

  benchutil::header("Figure 14 (H100 projection, b = 64, kw = 2048)");
  const gpumodel::KernelModel model(gpumodel::h100_sxm());
  std::printf("%8s | %12s | %12s | %8s\n", "n", "ormqr (s)", "blocked (s)",
              "speedup");
  benchutil::rule();
  for (index_t n : {8192, 16384, 24576, 32768, 40960, 49152}) {
    const auto conv =
        gpumodel::price_trace(model, gpumodel::trace_bt_conventional(n, b, n));
    const auto blocked =
        gpumodel::price_trace(model, gpumodel::trace_bt_blocked(n, b, 2048, n));
    std::printf("%8lld | %12.2f | %12.2f | %7.2fx\n",
                static_cast<long long>(n), conv.seconds, blocked.seconds,
                conv.seconds / blocked.seconds);
  }
  std::printf("\npaper: ~1.6x over MAGMA ormqr\n");
  return 0;
}
