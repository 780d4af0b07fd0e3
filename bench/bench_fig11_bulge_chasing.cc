// Figure 11 of the paper: bulge chasing — MAGMA sb2st (CPU) vs the naive
// GPU kernel (one thread block per sweep, band embedded in the dense
// matrix) vs the optimized GPU kernel (packed Fig.-10 band + grouped
// sweeps). Paper: naive up to 5.9x over MAGMA, optimized up to 12.5x.
//
// Measured: our three real CPU implementations — sequential on the dense
// layout (MAGMA-analogue working set), sequential on the packed layout
// (Fig.-10 cache effect in isolation), and the pipelined parallel chase.
// Projected: the Section-3.3 pipeline model with the packed step time
// (optimized) and a DRAM-latency-inflated step time (naive).

#include <cstdio>

#include "bench_util.h"
#include "bc/bulge_chase.h"
#include "bc/bulge_chase_parallel.h"
#include "bc/givens_sbtrd.h"
#include "common/rng.h"
#include "common/timer.h"
#include "gpumodel/bc_pipeline_model.h"
#include "la/generate.h"

int main(int argc, char** argv) {
  using namespace tdg;
  const benchutil::Args args(argc, argv, {"b"});
  const index_t b = args.get_int("b", 32);

  benchutil::header("Figure 11 (measured CPU): dense vs packed vs pipelined chase");
  Rng rng(4);
  std::printf("b = %lld\n", static_cast<long long>(b));
  std::printf("%6s | %12s | %12s | %12s | %12s | %16s\n", "n", "givens (s)",
              "dense (s)", "packed (s)", "pipelined (s)", "packed speedup");
  benchutil::rule();
  for (index_t n : {512, 1024, 2048, 3072}) {
    const index_t be = std::min(b, n / 4);
    const Matrix a0 = random_symmetric_band(n, be, rng);
    const index_t kd = std::min<index_t>(2 * be, n - 1);

    Matrix ad = a0;
    WallTimer t1;
    bc::chase_dense(ad.view(), be, nullptr);
    const double s_dense = t1.seconds();

    SymBandMatrix b1 = extract_band(a0.view(), be, kd);
    WallTimer t2;
    bc::chase_packed(b1, be, nullptr);
    const double s_packed = t2.seconds();

    SymBandMatrix b2 = extract_band(a0.view(), be, kd);
    WallTimer t3;
    bc::ParallelChaseOptions po;
    po.threads = 4;
    bc::chase_packed_parallel(b2, be, po, nullptr);
    const double s_par = t3.seconds();

    // Classical Givens sbtrd (LAPACK-style rotation chase) as a baseline.
    SymBandMatrix b3 =
        extract_band(a0.view(), be, std::min<index_t>(be + 1, n - 1));
    WallTimer t4;
    bc::givens_sbtrd(b3, be);
    const double s_giv = t4.seconds();

    std::printf("%6lld | %12.3f | %12.3f | %12.3f | %12.3f | %15.2fx\n",
                static_cast<long long>(n), s_giv, s_dense, s_packed, s_par,
                s_dense / s_packed);
  }
  std::printf("(single hardware core: the pipelined chase shows protocol overhead,\n"
              " not speedup; the parallel-speedup claim is carried by the model below)\n");

  benchutil::header("Figure 11 (H100 projection at paper sizes)");
  const auto spec = gpumodel::h100_sxm();
  std::printf("naive: S = %d (one block/sweep); optimized: S = %d "
              "(warp-grouped) + packed band, b = %lld\n",
              spec.sm_count, 2 * spec.sm_count, static_cast<long long>(b));
  std::printf("%8s | %11s | %11s | %11s | %8s | %8s\n", "n", "MAGMA (s)",
              "naive (s)", "optim (s)", "nv/MAGMA", "opt/MAGMA");
  benchutil::rule();
  for (index_t n : {8192, 16384, 24576, 32768, 49152, 65536}) {
    const double magma = gpumodel::magma_sb2st_seconds(n, b);
    const double naive = gpumodel::bc_gpu_naive_seconds(spec, n, b);
    const double opt = gpumodel::bc_gpu_optimized_seconds(spec, n, b);
    std::printf("%8lld | %11.2f | %11.2f | %11.2f | %7.2fx | %7.2fx\n",
                static_cast<long long>(n), magma, naive, opt, magma / naive,
                magma / opt);
  }
  std::printf("\npaper: naive up to 5.9x, optimized up to 12.5x over MAGMA\n");
  return 0;
}
