// Figure 8 of the paper: the proposed square-block SYR2K vs cuBLAS Dsyr2k
// across matrix sizes on H100 — cuBLAS collapses for n >= 49152 while the
// square-block schedule stays flat near 50 TFLOPs.
//
// Projection: vendor surrogate vs constructive pricing of the square-block
// schedule's GEMM tiles. Measurement: both real CPU implementations at
// laptop scale (the square-block schedule is also the better CPU blocking,
// so the measured ratio > 1 demonstrates the same scheduling effect).

#include <cstdio>

#include "bench_util.h"
#include "common/rng.h"
#include "common/timer.h"
#include "common/trace.h"
#include "gpumodel/kernel_model.h"
#include "gpumodel/trace_cost.h"
#include "la/blas.h"
#include "la/generate.h"

int main(int argc, char** argv) {
  using namespace tdg;
  const benchutil::Args args(argc, argv, {"k", "kcpu"});
  const index_t k = args.get_int("k", 1024);

  benchutil::header("Figure 8: custom square-block SYR2K vs cuBLAS (H100 projection)");
  const gpumodel::KernelModel vendor(gpumodel::h100_sxm(), true);
  const gpumodel::KernelModel ours(gpumodel::h100_sxm(), false);
  std::printf("k = %lld\n", static_cast<long long>(k));
  std::printf("%8s | %14s | %14s | %8s\n", "n", "cuBLAS TFLOPs",
              "custom TFLOPs", "speedup");
  benchutil::rule();
  for (index_t n : {8192, 16384, 24576, 32768, 40960, 49152, 57344, 65536}) {
    const double flops = benchutil::syr2k_flops(n, k);
    const double tv = vendor.vendor_syr2k_seconds(n, k);
    // Price the square-block schedule constructively from its tiles.
    std::vector<trace::Op> ops;
    const index_t block = 512;
    const index_t nblk = (n + block - 1) / block;
    for (index_t d = 0; d < nblk; ++d) {
      for (index_t bj = 0; bj + d < nblk; ++bj) {
        if (d == 0) {
          ops.push_back({trace::OpKind::kGemm, block, block / 2, k, 1});
        } else {
          ops.push_back({trace::OpKind::kGemm, block, block, k, 2});
        }
      }
    }
    // price_trace coalesces same-shape blocks: all blocks within one
    // anti-diagonal are independent and run concurrently (the paper's
    // latency-hiding reorder).
    const double to = gpumodel::price_trace(ours, ops).seconds;
    std::printf("%8lld | %14.2f | %14.2f | %7.2fx\n",
                static_cast<long long>(n), flops / tv / 1e12,
                flops / to / 1e12, tv / to);
  }

  benchutil::header("Measured CPU: reference vs square-block syr2k");
  Rng rng(2);
  const index_t kc = args.get_int("kcpu", 128);
  std::printf("k = %lld, block = 128\n", static_cast<long long>(kc));
  std::printf("%6s | %12s | %12s | %8s\n", "n", "ref GFLOPs", "square GFLOPs",
              "speedup");
  benchutil::rule();
  for (index_t n : {512, 1024, 1536, 2048}) {
    const Matrix a = random_matrix(n, kc, rng);
    const Matrix b = random_matrix(n, kc, rng);
    Matrix c1 = random_symmetric(n, rng);
    Matrix c2 = c1;
    WallTimer t1;
    la::syr2k_lower(-1.0, a.view(), b.view(), 1.0, c1.view());
    const double s1 = t1.seconds();
    WallTimer t2;
    la::syr2k_lower_square(-1.0, a.view(), b.view(), 1.0, c2.view(), 128);
    const double s2 = t2.seconds();
    const double flops = benchutil::syr2k_flops(n, kc);
    std::printf("%6lld | %12.2f | %12.2f | %7.2fx\n",
                static_cast<long long>(n), flops / s1 / 1e9, flops / s2 / 1e9,
                s1 / s2);
  }
  return 0;
}
