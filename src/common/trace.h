// Operation tracing.
//
// The paper's evaluation hinges on *which kernel shapes* an algorithm emits:
// skinny-k GEMM/SYR2K calls run far below peak on an H100 while fat ones run
// near peak. To project paper-scale device times from our CPU runs, the BLAS
// layer records every call (kind + shape) into the active Recorder; the GPU
// device model (src/gpumodel) then prices the recorded trace.
//
// Recording is opt-in via an RAII scope and thread-local, so concurrent
// algorithm runs never interleave their traces.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace tdg::trace {

enum class OpKind {
  kGemm,         // C(m x n) += A(m x k) * B(k x n)
  kSyr2k,        // C(n x n, lower) += A(n x k) B^T + B A^T
  kSymv,         // y(n) += A(n x n, symmetric) x
  kGemv,         // y(m) += A(m x n) x
  kGer,          // A(m x n) += x y^T
  kSyr2,         // A(n x n, lower) += x y^T + y x^T
  kBatchedGemm,  // batch GEMMs of identical shape
  kBcStep,       // one bulge-chase block step (bandwidth in m)
};

/// One recorded kernel invocation. For kBcStep, m = bandwidth b.
struct Op {
  OpKind kind;
  std::int64_t m = 0;
  std::int64_t n = 0;
  std::int64_t k = 0;
  std::int64_t batch = 1;
};

/// FP64 floating-point operation count of an op (multiply+add counted as 2).
double flops(const Op& op);

/// Short human-readable form, e.g. "gemm(512x64x1024)".
std::string to_string(const Op& op);

/// Accumulates ops; cheap enough to leave enabled around full algorithm runs.
class Recorder {
 public:
  void record(const Op& op) { ops_.push_back(op); }
  const std::vector<Op>& ops() const { return ops_; }
  void clear() { ops_.clear(); }

 private:
  std::vector<Op> ops_;
};

/// Recorder receiving ops on this thread, or nullptr when tracing is off.
Recorder* active();

/// Record into the active recorder, if any. Called from the BLAS layer.
void record(const Op& op);

/// RAII: routes this thread's ops into `r` for the scope's lifetime.
class Scope {
 public:
  explicit Scope(Recorder& r);
  ~Scope();
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Recorder* prev_;
};

}  // namespace tdg::trace
