// Figure 5 of the paper: estimated GPU bulge-chasing time vs the maximum
// number of parallel sweeps S (n = 65536, b = 32), against the MAGMA sb2st
// CPU line. Both the paper's closed-form expression and our exact
// discrete-event simulation of laws (1)-(3) are evaluated; the paper's
// headline observation — the GPU needs >= ~32 parallel sweeps to beat the
// CPU, and modern GPUs have > 100 SMs — must reproduce.

#include <cstdio>

#include "bench_util.h"
#include "gpumodel/bc_pipeline_model.h"

int main(int argc, char** argv) {
  using namespace tdg;
  const benchutil::Args args(argc, argv, {"n", "b"});
  const index_t n = args.get_int("n", 65536);
  const index_t b = args.get_int("b", 32);
  const auto spec = gpumodel::h100_sxm();

  benchutil::header("Figure 5: modeled GPU bulge chasing vs parallel sweeps S");
  std::printf("n = %lld, b = %lld, step = %.2f us, MAGMA sb2st line = %.2f s\n",
              static_cast<long long>(n), static_cast<long long>(b),
              gpumodel::bc_step_seconds(spec, b) * 1e6,
              gpumodel::magma_sb2st_seconds(n, b));
  std::printf("%6s | %14s | %14s | %12s | %10s\n", "S", "closed-form(s)",
              "simulated(s)", "avg parallel", "vs MAGMA");
  benchutil::rule();

  const double magma = gpumodel::magma_sb2st_seconds(n, b);
  index_t crossover = -1;
  for (index_t s : {1, 2, 4, 8, 16, 32, 64, 128}) {
    const double cf =
        gpumodel::bc_cycles_closed_form(n, b, s) *
        gpumodel::bc_step_seconds(spec, b);
    const auto sim = gpumodel::bc_simulate(n, b, s);
    const double simsec = sim.cycles * gpumodel::bc_step_seconds(spec, b);
    std::printf("%6lld | %14.2f | %14.2f | %12.1f | %9.2fx\n",
                static_cast<long long>(s), cf, simsec, sim.avg_parallel,
                magma / simsec);
    if (crossover < 0 && simsec < magma) crossover = s;
  }
  std::printf("\nfirst S beating the MAGMA CPU line: S = %lld "
              "(paper: >= ~32; H100 has %d SMs)\n",
              static_cast<long long>(crossover), spec.sm_count);
  return 0;
}
