// Figure 12 of the paper: memory throughput of GPU bulge chasing as the
// number of parallel sweeps grows (Nsight Compute measurement in the paper;
// pipeline-occupancy model here), plus a measured-CPU section computing the
// effective traffic rate of the real packed chase.

#include <cstdio>

#include "bench_util.h"
#include "bc/bulge_chase.h"
#include "common/rng.h"
#include "common/timer.h"
#include "gpumodel/bc_pipeline_model.h"
#include "la/generate.h"

int main(int argc, char** argv) {
  using namespace tdg;
  const benchutil::Args args(argc, argv, {"n", "b"});
  const index_t n = args.get_int("n", 32768);
  const index_t b = args.get_int("b", 32);
  const auto spec = tdg::gpumodel::h100_sxm();

  benchutil::header("Figure 12: BC memory throughput vs parallel sweeps (H100 model)");
  std::printf("n = %lld, b = %lld\n", static_cast<long long>(n),
              static_cast<long long>(b));
  std::printf("%8s | %16s | %14s\n", "S", "throughput GB/s", "avg parallel");
  benchutil::rule();
  for (index_t s : {1, 2, 4, 8, 16, 32, 64, 128, 0}) {
    const index_t eff = (s == 0) ? n : s;  // 0 = "max" point of the figure
    const auto st = gpumodel::bc_simulate(n, b, eff);
    std::printf("%8s | %16.1f | %14.1f\n",
                (s == 0) ? "max" : std::to_string(s).c_str(),
                gpumodel::bc_memory_throughput_gbs(spec, n, b, eff),
                st.avg_parallel);
  }

  benchutil::header("Measured CPU: effective traffic of the packed chase");
  Rng rng(5);
  std::printf("%6s | %10s | %14s\n", "n", "time (s)", "eff GB/s");
  benchutil::rule();
  for (index_t nn : {512, 1024, 2048}) {
    const index_t be = std::min(b, nn / 4);
    const Matrix a0 = random_symmetric_band(nn, be, rng);
    SymBandMatrix band = extract_band(a0.view(), be,
                                      std::min<index_t>(2 * be, nn - 1));
    WallTimer t;
    bc::chase_packed(band, be, nullptr);
    const double s = t.seconds();
    // Bytes: each of ~n^2/(2b) block steps touches ~3 b^2 doubles r/w.
    const double steps = static_cast<double>(nn) * nn / (2.0 * be);
    const double bytes = steps * 3.0 * be * be * 8.0 * 2.0;
    std::printf("%6lld | %10.3f | %14.2f\n", static_cast<long long>(nn), s,
                bytes / s / 1e9);
  }
  return 0;
}
