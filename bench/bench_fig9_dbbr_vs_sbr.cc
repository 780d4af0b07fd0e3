// Figure 9 of the paper: band reduction — MAGMA SBR vs the proposed DBBR
// (b = 64) on H100 across matrix sizes; paper reports up to 3.1x.
//
// Measured: both real algorithms on the CPU at laptop sizes.
// Projected: synthetic traces priced on the H100 model at paper sizes
// (classic SBR priced with the vendor-syr2k surrogate, DBBR with the
// square-block custom syr2k).

#include <cstdio>

#include "bench_util.h"
#include "common/rng.h"
#include "common/timer.h"
#include "gpumodel/kernel_model.h"
#include "gpumodel/trace_cost.h"
#include "la/generate.h"
#include "sbr/sbr.h"

int main(int argc, char** argv) {
  using namespace tdg;
  const benchutil::Args args(argc, argv, {"b", "k", "n_max"});
  const index_t b = args.get_int("b", 64);
  const index_t k = args.get_int("k", 1024);

  benchutil::header("Figure 9 (measured CPU): sy2sb vs DBBR");
  Rng rng(3);
  std::printf("b = %lld, DBBR k = 256\n", static_cast<long long>(b));
  std::printf("%6s | %12s | %12s | %8s\n", "n", "sy2sb (s)", "dbbr (s)",
              "speedup");
  benchutil::rule();
  const index_t n_max = args.get_int("n_max", 2048);
  for (index_t n : {512, 1024, 1536, 2048}) {
    if (n > n_max) break;
    const Matrix a0 = random_symmetric(n, rng);

    Matrix a1 = a0;
    WallTimer t1;
    sbr::BandReductionOptions o1;
    o1.use_square_syr2k = false;  // MAGMA calls cuBLAS syr2k
    sbr::sy2sb(a1.view(), std::min(b, n / 4), o1);
    const double s1 = t1.seconds();

    Matrix a2 = a0;
    WallTimer t2;
    sbr::BandReductionOptions o2;
    o2.b = std::min(b, n / 4);
    o2.k = std::max<index_t>(o2.b, 256 / o2.b * o2.b);
    o2.use_square_syr2k = true;
    o2.syr2k_block = 256;
    sbr::dbbr(a2.view(), o2);
    const double s2 = t2.seconds();

    std::printf("%6lld | %12.3f | %12.3f | %7.2fx\n",
                static_cast<long long>(n), s1, s2, s1 / s2);
  }

  benchutil::header("Figure 9 (H100 projection at paper sizes)");
  const gpumodel::KernelModel vendor(gpumodel::h100_sxm(), true);
  const gpumodel::KernelModel ours(gpumodel::h100_sxm(), false);
  std::printf("b = %lld, DBBR k = %lld\n", static_cast<long long>(b),
              static_cast<long long>(k));
  std::printf("%8s | %12s | %12s | %8s\n", "n", "SBR (s)", "DBBR (s)",
              "speedup");
  benchutil::rule();
  for (index_t n : {8192, 16384, 24576, 32768, 40960, 49152}) {
    const auto sbr_cost =
        gpumodel::price_trace(vendor, gpumodel::trace_sy2sb(n, b, false));
    const auto dbbr_cost = gpumodel::price_trace(
        ours, gpumodel::trace_dbbr(n, b, k, true, 512));
    std::printf("%8lld | %12.2f | %12.2f | %7.2fx\n",
                static_cast<long long>(n), sbr_cost.seconds,
                dbbr_cost.seconds, sbr_cost.seconds / dbbr_cost.seconds);
  }
  std::printf("\npaper: DBBR speedup up to 3.1x at large n\n");
  return 0;
}
