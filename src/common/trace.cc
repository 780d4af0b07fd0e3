#include "common/trace.h"

#include <sstream>

namespace tdg::trace {

namespace {
thread_local Recorder* g_active = nullptr;
}  // namespace

double flops(const Op& op) {
  const double m = static_cast<double>(op.m);
  const double n = static_cast<double>(op.n);
  const double k = static_cast<double>(op.k);
  const double batch = static_cast<double>(op.batch);
  switch (op.kind) {
    case OpKind::kGemm:
      return 2.0 * m * n * k * batch;
    case OpKind::kSyr2k:
      // Lower triangle only: 2 * (n(n+1)/2) * k * 2 ops per entry pair.
      return 2.0 * n * (n + 1.0) * k * batch;
    case OpKind::kSymv:
      return 2.0 * n * n * batch;
    case OpKind::kGemv:
      return 2.0 * m * n * batch;
    case OpKind::kGer:
      return 2.0 * m * n * batch;
    case OpKind::kSyr2:
      return 2.0 * n * (n + 1.0) * batch;
    case OpKind::kBatchedGemm:
      return 2.0 * m * n * k * batch;
    case OpKind::kBcStep:
      // One block step: ~ two-sided b x b update + two one-sided b x b
      // updates, each 4 b^2 flops for a rank-1 reflector application.
      return 12.0 * m * m * batch;
  }
  return 0.0;
}

std::string to_string(const Op& op) {
  std::ostringstream os;
  switch (op.kind) {
    case OpKind::kGemm: os << "gemm"; break;
    case OpKind::kSyr2k: os << "syr2k"; break;
    case OpKind::kSymv: os << "symv"; break;
    case OpKind::kGemv: os << "gemv"; break;
    case OpKind::kGer: os << "ger"; break;
    case OpKind::kSyr2: os << "syr2"; break;
    case OpKind::kBatchedGemm: os << "batched_gemm"; break;
    case OpKind::kBcStep: os << "bc_step"; break;
  }
  os << "(" << op.m << "x" << op.n << "x" << op.k;
  if (op.batch != 1) os << ", batch=" << op.batch;
  os << ")";
  return os.str();
}

Recorder* active() { return g_active; }

void record(const Op& op) {
  if (g_active != nullptr) g_active->record(op);
}

Scope::Scope(Recorder& r) : prev_(g_active) { g_active = &r; }

Scope::~Scope() { g_active = prev_; }

}  // namespace tdg::trace
