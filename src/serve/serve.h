// tdg::serve — a resilient EVD service layer in front of eigh_batched.
//
// ServeCore turns the library from a call-and-wait kernel into something a
// long-running service can sit on: requests are admitted against explicit
// queue and memory budgets, carry per-request deadlines that propagate as
// cooperative cancellation (common/cancel.h) through every pipeline phase,
// and are coalesced by shape bucket so a burst of same-sized problems costs
// one planner pass and one eigh_batched dispatch instead of N cold solves.
// Failures walk a typed ladder instead of taking the process down:
//
//   admission   — queue full, memory budget exceeded, bucket breaker open,
//                 or draining: the request is REJECTED synchronously with
//                 Error-code semantics (kOverloaded), never queued. An
//                 injected `serve_admit` fault rejects with kFaultInjected.
//   deadline    — a request whose deadline expires mid-solve unwinds with
//                 kCancelled at the next phase boundary (sy2sb/DBBR block,
//                 bulge-chase sweep claim, D&C merge, back-transform panel)
//                 and fails alone; the pool and the plan cache stay
//                 reusable (asserted bitwise in tests/serve_test.cc).
//   degradation — under queue pressure, or when the remaining deadline is
//                 smaller than the bucket's observed vectors-solve time, a
//                 vectors request degrades to eigenvalues-only (outcome
//                 kDegraded) rather than missing its deadline.
//   retry       — transient failures (kFaultInjected) retry once
//                 (max_retries) after a jittered backoff, under the same
//                 token, bucket plan and first-dispatch triage. A waiting
//                 retry sits on the dispatcher's due-time list, and once
//                 due runs as an ordinary slot of its bucket's next
//                 eigh_batched dispatch, so no thread sleeps through a
//                 backoff and other requests keep flowing.
//                 kPipelineStall is deliberately not retried: a drain
//                 stall may abandon a wedged worker, so it fails typed
//                 instead.
//   breaker     — breaker_threshold consecutive non-cancellation failures
//                 in one shape bucket trip a per-bucket circuit breaker:
//                 subsequent requests for that bucket are shed at admission
//                 with kOverloaded for breaker_open_ms, then a single
//                 half-open probe decides reopen vs close.
//
// Every request resolves to exactly one Outcome — kCompleted, kDegraded,
// kRejected, or kFailed — so submitted == completed + degraded + rejected +
// failed always holds (ServeStats::accounted); the CI soak job asserts it
// under fault injection.
//
// Determinism: solved requests run one-per-pool-worker at an intra-problem
// thread budget of 1 with the bucket's warm shared plan — bitwise identical
// to a standalone eigh() with batch_bucket_plan(n), whatever the batch
// composition, retry count, or arrival order.
//
// Observability: serve.* metrics (docs/ALGORITHMS.md §12), a serve.batch
// span per dispatch, a latency histogram behind ServeStats p50/p95/p99.
// Fault sites `serve_admit` (admission rejects) and `serve_request`
// (transient solve failure, exercising the retry ladder) plug into the CI
// fault matrix. Every submit mints a process-unique request id
// (obs::next_request_id) whose obs::TraceContext travels with the request
// through the dispatcher and its eigh_batched slots, retries included, so
// armed traces reconstruct one flow per request and flight-recorder dumps
// name the owning request. Resolutions feed per-shape-bucket explicit-bound
// latency histograms ("serve.latency_ms", OpenMetrics-exposable via
// obs::Registry::openmetrics_text and the wire protocol's METRICS verb),
// and TDG_SERVE_REQLOG=<path|stderr> emits one structured JSON log line
// per resolved request (schema tdg.reqlog.v1).
//
// Transport-agnostic: ServeCore is in-process (bench_serve drives it
// directly); examples/serve_main.cc wraps it in a line-protocol TCP front
// end via src/serve/wire.h.
#pragma once

#include <future>
#include <memory>
#include <string>
#include <vector>

#include "common/cancel.h"
#include "common/check.h"
#include "eig/batched.h"
#include "eig/drivers.h"
#include "la/matrix.h"

namespace tdg::serve {

/// Server-wide configuration, fixed at construction.
struct ServeOptions {
  /// Maximum admitted-but-unsolved requests; submit() beyond this rejects
  /// with kOverloaded.
  index_t queue_capacity = 256;
  /// Maximum bytes of queued request matrices (n*n*8 each); 0 = unlimited.
  long long memory_budget_bytes = 0;
  /// How long the dispatcher waits after the first queued request for
  /// same-bucket peers to coalesce into one batch. 0 = dispatch eagerly.
  double coalesce_window_ms = 2.0;
  /// Maximum requests per dispatch (one eigh_batched call per bucket).
  int max_batch = 64;
  /// Pool workers per dispatch (BatchOptions::threads; 0 = ambient budget).
  int threads = 0;
  /// Transient-failure retries per request (0 disables the retry rung).
  int max_retries = 1;
  /// Base backoff before a retry; jittered to [0.5, 1.5]x deterministically.
  double retry_backoff_ms = 5.0;
  /// Server-wide switch for the eigenvalues-only degradation rung.
  bool allow_degraded = true;
  /// Queue depth (at dispatch) beyond which vectors requests degrade to
  /// eigenvalues-only; 0 = never degrade on queue pressure alone.
  index_t degrade_queue_depth = 0;
  /// Consecutive failures in one shape bucket that trip its breaker.
  int breaker_threshold = 5;
  /// How long a tripped breaker sheds the bucket before one half-open
  /// probe is let through.
  double breaker_open_ms = 1000.0;
  /// How the per-bucket shared plans are produced.
  PlanMode plan = PlanMode::kHeuristic;
  /// Primary tridiagonal solver (the in-problem fallback chain applies).
  eig::TridiagSolver solver = eig::TridiagSolver::kDivideConquer;
  /// Per-request NaN/Inf screen (a bad input fails its own request only).
  bool check_finite = true;
};

/// Per-request options.
struct RequestOptions {
  /// Compute eigenvectors (may be degraded to false, see allow_degraded).
  bool vectors = true;
  /// Requested execution mode (plan::EvdMode; normalization rules in
  /// eig::EvdOptions::mode). The response echoes the EFFECTIVE mode, which
  /// may differ: degradation and fp32->fp64 recovery both change it.
  plan::EvdMode mode = plan::EvdMode::kStandard;
  /// Relative deadline in ms from submit; 0 = none. Propagates as a
  /// cancel::Token deadline through every pipeline phase.
  double deadline_ms = 0.0;
  /// Allow this request to degrade to eigenvalues-only.
  bool allow_degraded = true;
};

/// Exactly-once request resolution.
enum class Outcome {
  kCompleted,  // solved as asked
  kDegraded,   // solved eigenvalues-only under pressure
  kRejected,   // never ran: admission control or breaker shed
  kFailed,     // ran (or expired) and failed with a typed error
};

const char* to_string(Outcome o);

/// What a request's future resolves to. `result` is meaningful for
/// kCompleted / kDegraded; `code`/`message` for kRejected / kFailed.
struct Response {
  Outcome outcome = Outcome::kFailed;
  ErrorCode code = ErrorCode::kUnknown;
  std::string message;
  /// The execution mode that actually produced `result` (meaningful for
  /// kCompleted / kDegraded): the requested mode after any degradation
  /// and any fp32->fp64 recovery inside the solve.
  plan::EvdMode mode = plan::EvdMode::kStandard;
  eig::EvdResult result;
  double queue_ms = 0.0;  // admit -> first dispatch
  double solve_ms = 0.0;  // first dispatch -> resolution (includes retries)
  int retries = 0;        // transient-failure retries consumed
  /// Process-unique id minted at submit (even for synchronous rejects);
  /// the same id tags every armed-trace span and flight-recorder event
  /// this request produced ("req" in the Chrome-trace args).
  long long request_id = 0;
};

/// A submitted request: the response future plus the request's cancellation
/// token (cancel() aborts the solve at the next phase boundary).
struct Ticket {
  std::future<Response> response;
  std::shared_ptr<cancel::Token> token;
};

/// Service counters (exact; sampled live) and latency percentiles of
/// resolved requests. Each percentile is read from this instance's latency
/// histogram on the obs::latency_bounds_ms ladder (the ladder of the
/// "serve.latency_ms" registry series): it is the upper bound of the bucket
/// holding the percentile sample, so it overstates the sample by less than
/// that bucket's width (a sample beyond the last bound reads as that bound).
struct ServeStats {
  long long submitted = 0;
  long long admitted = 0;
  long long rejected = 0;
  long long completed = 0;
  long long degraded = 0;
  long long failed = 0;
  long long retries = 0;
  long long breaker_trips = 0;
  long long batches = 0;            // eigh_batched dispatches, retries included
  long long deadline_failures = 0;  // kCancelled resolutions
  long long queue_depth = 0;
  long long queue_depth_hwm = 0;
  double p50_ms = 0.0;  // submit -> resolution, resolved requests only
  double p95_ms = 0.0;
  double p99_ms = 0.0;

  /// The exactly-once invariant: every submitted request has resolved to
  /// one outcome. Holds whenever no request is queued or in flight.
  bool accounted() const {
    return submitted == completed + degraded + rejected + failed;
  }
};

/// The transport-agnostic service core. One dispatcher thread owns the
/// queue and the retry list; solves fan out through eigh_batched on the
/// shared pool.
/// Thread-safe: submit()/stats()/drain() may race freely.
class ServeCore {
 public:
  explicit ServeCore(const ServeOptions& opts = {});
  /// Drains (stops admitting, resolves everything queued), then joins.
  ~ServeCore();
  ServeCore(const ServeCore&) = delete;
  ServeCore& operator=(const ServeCore&) = delete;

  /// Submit one symmetric problem (lower triangle read; the matrix is
  /// owned by the service until resolution). Admission control runs
  /// synchronously: a rejected request's future is already resolved when
  /// submit returns. Never throws for per-request failures.
  Ticket submit(Matrix a, const RequestOptions& ropts = {});

  /// Stop admitting (subsequent submits reject with kOverloaded) and wait
  /// until every queued/in-flight request has resolved. Returns false on
  /// timeout (timeout_ms <= 0 = wait forever). Idempotent.
  bool drain(double timeout_ms = 0.0);

  ServeStats stats() const;

  const ServeOptions& options() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace tdg::serve
