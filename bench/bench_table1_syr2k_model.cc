// Table 1 of the paper: Dsyr2k throughput (TFLOPs) on H100 and RTX 4090 for
// n in {8192, 32768} and k in {16 ... 4096}.
//
// Columns: paper's measured cuBLAS numbers next to our device-model
// projections (the model is calibrated on two anchor points and must
// reproduce the rest of the grid's *shape*: linear growth in k on H100,
// saturation at large k, and the FP64-starved 4090 pinned at ~1.2).
//
// A measured CPU section runs the real reference syr2k at laptop scale to
// demonstrate the same qualitative k-dependence on actual hardware.

#include <cstdio>

#include "bench_util.h"
#include "common/rng.h"
#include "common/timer.h"
#include "gpumodel/kernel_model.h"
#include "la/blas.h"
#include "la/generate.h"

namespace {

// Paper Table 1 (TFLOPs).
struct PaperRow {
  tdg::index_t k;
  double h100_n8192, h100_n32768, rtx_n8192, rtx_n32768;
};
constexpr PaperRow kPaper[] = {
    {16, 0.43, 3.58, 1.07, 1.19},    {32, 0.86, 7.02, 1.07, 1.20},
    {64, 1.71, 12.78, 1.06, 1.21},   {128, 3.39, 21.05, 1.06, 1.21},
    {256, 6.41, 30.13, 1.12, 1.22},  {512, 11.57, 38.31, 1.20, 1.24},
    {1024, 18.91, 42.86, 1.22, 1.24}, {2048, 27.21, 45.36, 1.23, 1.24},
    {4096, 34.59, 45.54, 1.24, 1.25},
};

}  // namespace

int main(int argc, char** argv) {
  using namespace tdg;
  const benchutil::Args args(argc, argv, {"n"});
  benchutil::header("Table 1: SYR2K throughput vs (n, k) — paper vs device model");

  const gpumodel::KernelModel h100(gpumodel::h100_sxm());
  const gpumodel::KernelModel rtx(gpumodel::rtx4090());

  std::printf("%6s | %9s %9s | %9s %9s | %9s %9s | %9s %9s\n", "k",
              "H100/8192", "(paper)", "H100/32k", "(paper)", "4090/8192",
              "(paper)", "4090/32k", "(paper)");
  benchutil::rule();
  for (const auto& row : kPaper) {
    std::printf("%6lld | %9.2f %9.2f | %9.2f %9.2f | %9.2f %9.2f | %9.2f %9.2f\n",
                static_cast<long long>(row.k),
                h100.vendor_syr2k_tflops(8192, row.k), row.h100_n8192,
                h100.vendor_syr2k_tflops(32768, row.k), row.h100_n32768,
                rtx.vendor_syr2k_tflops(8192, row.k), row.rtx_n8192,
                rtx.vendor_syr2k_tflops(32768, row.k), row.rtx_n32768);
  }

  benchutil::header("Measured CPU reference syr2k (shape check: GFLOPs grow with k)");
  const index_t n = args.get_int("n", 1024);
  Rng rng(1);
  std::printf("%6s | %10s | %10s\n", "k", "seconds", "GFLOPs");
  benchutil::rule();
  for (index_t k : {8, 16, 32, 64, 128, 256}) {
    const Matrix a = random_matrix(n, k, rng);
    const Matrix b = random_matrix(n, k, rng);
    Matrix c = random_symmetric(n, rng);
    WallTimer t;
    la::syr2k_lower(-1.0, a.view(), b.view(), 1.0, c.view());
    const double s = t.seconds();
    std::printf("%6lld | %10.4f | %10.2f\n", static_cast<long long>(k), s,
                benchutil::syr2k_flops(n, k) / s / 1e9);
  }
  return 0;
}
