// Ablation: the bandwidth trade-off of Section 3.2. Increasing b speeds up
// stage 1 (fatter syr2k) but slows bulge chasing; the paper quotes, at
// n = 49152: b=64 -> SBR 22.1 s + BC 23.9 s, b=128 -> SBR 16.5 s +
// BC 84.9 s, and BC at b=32 taking 16.2 s — which is why classic two-stage
// picks b <= 128 and why DBBR's decoupling of k from b lets it run b = 32.

#include <cstdio>

#include "bench_util.h"
#include "common/rng.h"
#include "common/timer.h"
#include "bc/bulge_chase.h"
#include "gpumodel/bc_pipeline_model.h"
#include "gpumodel/kernel_model.h"
#include "gpumodel/trace_cost.h"
#include "la/generate.h"
#include "sbr/sbr.h"

int main(int argc, char** argv) {
  using namespace tdg;
  const benchutil::Args args(argc, argv, {"n", "nmeasured"});
  const index_t n = args.get_int("n", 49152);

  benchutil::header("Ablation (H100 projection): classic 2-stage vs bandwidth b");
  const gpumodel::KernelModel vendor(gpumodel::h100_sxm(), true);
  std::printf("n = %lld (paper at b=64: SBR 22.1 s, BC 23.9 s; b=128: "
              "SBR 16.5 s, BC 84.9 s)\n", static_cast<long long>(n));
  std::printf("%6s | %10s | %12s | %10s\n", "b", "SBR (s)", "CPU BC (s)",
              "total (s)");
  benchutil::rule();
  for (index_t b : {16, 32, 64, 128, 256}) {
    const double sbr =
        gpumodel::price_trace(vendor, gpumodel::trace_sy2sb(n, b, false))
            .seconds;
    const double bcs = gpumodel::magma_sb2st_seconds(n, b);
    std::printf("%6lld | %10.2f | %12.2f | %10.2f\n",
                static_cast<long long>(b), sbr, bcs, sbr + bcs);
  }

  benchutil::header("Ablation (H100 projection): proposed pipeline vs bandwidth b");
  const gpumodel::KernelModel ours(gpumodel::h100_sxm(), false);
  const auto spec = gpumodel::h100_sxm();
  std::printf("%6s | %10s | %12s | %10s\n", "b", "DBBR (s)", "GPU BC (s)",
              "total (s)");
  benchutil::rule();
  for (index_t b : {16, 32, 64, 128}) {
    const index_t k = std::max<index_t>(b, 1024 / b * b);
    const double dbbr =
        gpumodel::price_trace(ours, gpumodel::trace_dbbr(n, b, k, true, 512))
            .seconds;
    const double bcs = gpumodel::bc_gpu_optimized_seconds(spec, n, b);
    std::printf("%6lld | %10.2f | %12.2f | %10.2f\n",
                static_cast<long long>(b), dbbr, bcs, dbbr + bcs);
  }

  benchutil::header("Measured CPU: stage-1 vs stage-2 time as b grows");
  Rng rng(21);
  const index_t nm = args.get_int("nmeasured", 1024);
  const Matrix a0 = random_symmetric(nm, rng);
  std::printf("n = %lld\n", static_cast<long long>(nm));
  std::printf("%6s | %12s | %12s | %10s\n", "b", "sy2sb (s)", "seq BC (s)",
              "total (s)");
  benchutil::rule();
  for (index_t b : {8, 16, 32, 64, 128}) {
    Matrix a = a0;
    WallTimer t1;
    sbr::sy2sb(a.view(), b);
    const double s1 = t1.seconds();
    SymBandMatrix band =
        extract_band(a.view(), b, std::min<index_t>(2 * b, nm - 1));
    WallTimer t2;
    bc::chase_packed(band, b, nullptr);
    const double s2 = t2.seconds();
    std::printf("%6lld | %12.3f | %12.3f | %10.3f\n",
                static_cast<long long>(b), s1, s2, s1 + s2);
  }
  return 0;
}
