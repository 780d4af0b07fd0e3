// Open-loop load against the in-process EVD service layer (tdg::serve).
//
// An open-loop arrival process (fixed submit schedule, independent of
// completion) over a mixed-shape working set exercises the whole ladder:
// shape-bucket coalescing, admission rejects once the queue saturates,
// deadline degradation, and — under TDG_FAULT_INJECT=serve_request:K —
// the retry rung. The CI soak job runs this binary for 60 s under fault
// injection and asserts accounted:true, drain_ok:true off this JSON line.
//
//   --duration_s=S     wall-clock submit window (default 5)
//   --rate=R           target submissions per second (default 200)
//   --queue=Q          ServeOptions::queue_capacity (default 256)
//   --window_ms=W      coalesce window (default 2)
//   --deadline_ms=D    per-request deadline, 0 = none (default 0)
//   --degrade_depth=K  queue depth beyond which vectors degrade (default 32)
//   --vectors=0/1      request eigenvectors (default 1)
//
// Emits one schema-stamped JSON line:
//   problems/s, p50/p95/p99 latency, reject rate, degraded count,
//   retries, breaker trips, accounted, drain_ok.

#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include <tdg/serve.h>

#include "bench_util.h"
#include "common/rng.h"
#include "la/generate.h"

namespace {

using namespace tdg;
using Clock = std::chrono::steady_clock;

// Mixed shapes: two coalescible buckets plus strays, mirroring a service
// that sees a few hot sizes and a long tail.
constexpr index_t kShapes[] = {48, 64, 64, 96, 96, 96, 128, 57};

}  // namespace

int main(int argc, char** argv) {
  const benchutil::Args args(
      argc, argv,
      {"duration_s", "rate", "deadline_ms", "vectors", "queue", "window_ms",
       "degrade_depth"});
  const double duration_s =
      static_cast<double>(args.get_int("duration_s", 5));
  const double rate = static_cast<double>(args.get_int("rate", 200));
  const double deadline_ms =
      static_cast<double>(args.get_int("deadline_ms", 0));
  const bool vectors = args.get_int("vectors", 1) != 0;

  serve::ServeOptions sopts;
  sopts.queue_capacity = args.get_int("queue", 256);
  sopts.coalesce_window_ms =
      static_cast<double>(args.get_int("window_ms", 2));
  sopts.degrade_queue_depth = args.get_int("degrade_depth", 32);

  // Pre-generate one matrix per shape; each submission copies it, so the
  // generator never sits on the submit path.
  constexpr int kNumShapes =
      static_cast<int>(sizeof(kShapes) / sizeof(kShapes[0]));
  std::vector<Matrix> protos;
  protos.reserve(kNumShapes);
  for (int i = 0; i < kNumShapes; ++i) {
    Rng rng(0x5e47e000ull + static_cast<std::uint64_t>(i));
    protos.push_back(random_symmetric(kShapes[i], rng));
  }

  serve::ServeCore core(sopts);
  std::vector<serve::Ticket> tickets;
  tickets.reserve(static_cast<std::size_t>(duration_s * rate) + 16);

  // Open loop: submission k fires at t0 + k/rate regardless of completions.
  const Clock::time_point t0 = Clock::now();
  const auto deadline_tp =
      t0 + std::chrono::duration_cast<Clock::duration>(
               std::chrono::duration<double>(duration_s));
  long long k = 0;
  while (Clock::now() < deadline_tp) {
    const Clock::time_point due =
        t0 + std::chrono::duration_cast<Clock::duration>(
                 std::chrono::duration<double>(static_cast<double>(k) / rate));
    std::this_thread::sleep_until(due);
    serve::RequestOptions ropts;
    ropts.vectors = vectors;
    ropts.deadline_ms = deadline_ms;
    const Matrix& proto = protos[static_cast<std::size_t>(k % kNumShapes)];
    Matrix a(proto.rows(), proto.cols());
    copy(proto.view(), a.view());
    tickets.push_back(core.submit(std::move(a), ropts));
    ++k;
  }
  const double submit_s =
      std::chrono::duration<double>(Clock::now() - t0).count();

  const bool drain_ok = core.drain(/*timeout_ms=*/120000.0);

  // Every future must be resolved after a successful drain; collect the
  // client-side view to cross-check the server counters.
  long long ok = 0, degraded = 0, rejected = 0, failed = 0;
  for (auto& t : tickets) {
    const serve::Response r = t.response.get();
    switch (r.outcome) {
      case serve::Outcome::kCompleted: ++ok; break;
      case serve::Outcome::kDegraded: ++degraded; break;
      case serve::Outcome::kRejected: ++rejected; break;
      case serve::Outcome::kFailed: ++failed; break;
    }
  }

  const serve::ServeStats s = core.stats();
  const long long solved = s.completed + s.degraded;
  const bool client_server_agree =
      ok == s.completed && degraded == s.degraded && rejected == s.rejected &&
      failed == s.failed;

  benchutil::JsonLine("serve")
      .field("duration_s", submit_s)
      .field("rate_target", rate)
      .field("submitted", s.submitted)
      .field("completed", s.completed)
      .field("degraded", s.degraded)
      .field("rejected", s.rejected)
      .field("failed", s.failed)
      .field("retries", s.retries)
      .field("breaker_trips", s.breaker_trips)
      .field("batches", s.batches)
      .field("queue_depth_hwm", s.queue_depth_hwm)
      .field("problems_per_s",
             submit_s > 0.0 ? static_cast<double>(solved) / submit_s : 0.0)
      .field("p50_ms", s.p50_ms)
      .field("p95_ms", s.p95_ms)
      .field("p99_ms", s.p99_ms)
      .field("reject_rate",
             s.submitted > 0
                 ? static_cast<double>(s.rejected) /
                       static_cast<double>(s.submitted)
                 : 0.0)
      .field("accounted", s.accounted() && client_server_agree)
      .field("drain_ok", drain_ok)
      .emit();

  // Non-zero exit on an accounting or drain violation so the CI soak job
  // fails loudly rather than parsing for it.
  return (s.accounted() && client_server_agree && drain_ok) ? 0 : 1;
}
