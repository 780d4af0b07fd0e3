// Ablation: DBBR's outer block size k (the second blocking level of
// Algorithm 1). Larger k fattens the trailing syr2k (Table 1 says bigger is
// better) but adds more just-in-time panel-update flops — the paper settles
// on k = 1024. Also sweeps the Figure-7 square-syr2k tile size.

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
  const benchutil::Args args(argc, argv, {"n", "b", "nmeasured"});
  const index_t n = args.get_int("n", 32768);
  const index_t b = args.get_int("b", 32);

  benchutil::header("Ablation (H100 projection): DBBR time vs outer block k");
  const gpumodel::KernelModel ours(gpumodel::h100_sxm(), false);
  std::printf("n = %lld, b = %lld (paper uses k = 1024)\n",
              static_cast<long long>(n), static_cast<long long>(b));
  std::printf("%6s | %10s | %12s\n", "k", "DBBR (s)", "extra flops");
  benchutil::rule();
  double base_flops = 0.0;
  for (index_t k : {32, 64, 128, 256, 512, 1024, 2048, 4096}) {
    if (k < b) continue;
    const auto trace = gpumodel::trace_dbbr(n, b, k, true, 512);
    const auto cost = gpumodel::price_trace(ours, trace);
    if (base_flops == 0.0) base_flops = cost.flops;
    std::printf("%6lld | %10.2f | %+11.1f%%\n", static_cast<long long>(k),
                cost.seconds, 100.0 * (cost.flops / base_flops - 1.0));
  }

  benchutil::header("Ablation (H100 projection): square-syr2k tile size");
  std::printf("trailing update of DBBR at n = %lld, k = 1024\n",
              static_cast<long long>(n));
  std::printf("%8s | %10s\n", "tile", "DBBR (s)");
  benchutil::rule();
  for (index_t tile : {128, 256, 512, 1024, 2048}) {
    const auto cost = gpumodel::price_trace(
        ours, gpumodel::trace_dbbr(n, b, 1024, true, tile));
    std::printf("%8lld | %10.2f\n", static_cast<long long>(tile),
                cost.seconds);
  }

  benchutil::header("Measured CPU: DBBR time vs k");
  Rng rng(22);
  const index_t nm = args.get_int("nmeasured", 1024);
  const Matrix a0 = random_symmetric(nm, rng);
  std::printf("n = %lld, b = 16\n", static_cast<long long>(nm));
  std::printf("%6s | %10s\n", "k", "DBBR (s)");
  benchutil::rule();
  for (index_t k : {16, 32, 64, 128, 256, 512}) {
    Matrix a = a0;
    sbr::BandReductionOptions opts;
    opts.b = 16;
    opts.k = k;
    WallTimer t;
    sbr::dbbr(a.view(), opts);
    std::printf("%6lld | %10.3f\n", static_cast<long long>(k), t.seconds());
  }
  return 0;
}
