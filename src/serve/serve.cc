#include "serve/serve.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <map>
#include <mutex>
#include <random>
#include <thread>
#include <utility>
#include <vector>

#include "common/fault.h"
#include "common/json.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/obs.h"
#include "plan/plan_cache.h"

namespace tdg::serve {

namespace {

using Clock = std::chrono::steady_clock;

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration_cast<std::chrono::duration<double, std::milli>>(
             b - a)
      .count();
}

Clock::duration ms_duration(double ms) {
  return std::chrono::microseconds(static_cast<long long>(ms * 1e3));
}

/// serve.* registry metrics, resolved once. All always-on: a request is
/// control-plane traffic and its accounting must survive disarmed metrics.
struct ServeMetrics {
  obs::Counter* submitted;
  obs::Counter* admitted;
  obs::Counter* rejected;
  obs::Counter* completed;
  obs::Counter* degraded;
  obs::Counter* failed;
  obs::Counter* retries;
  obs::Counter* breaker_trips;
  obs::Counter* batches;
  obs::Counter* deadline_failures;
  obs::Gauge* queue_depth;
  obs::Gauge* queue_depth_hwm;

  static ServeMetrics& get() {
    static ServeMetrics m = [] {
      obs::Registry& r = obs::Registry::global();
      const auto always = obs::Gating::kAlways;
      return ServeMetrics{r.counter("serve.submitted", always),
                          r.counter("serve.admitted", always),
                          r.counter("serve.rejected", always),
                          r.counter("serve.completed", always),
                          r.counter("serve.degraded", always),
                          r.counter("serve.failed", always),
                          r.counter("serve.retries", always),
                          r.counter("serve.breaker_trips", always),
                          r.counter("serve.batches", always),
                          r.counter("serve.deadline_failures", always),
                          r.gauge("serve.queue_depth", always),
                          r.gauge("serve.queue_depth_hwm", always)};
    }();
    return m;
  }
};

/// Per-bucket circuit breaker (guarded by the core mutex). Closed ->
/// (threshold consecutive failures) -> open for breaker_open_ms -> one
/// half-open probe -> closed on success, reopened on failure.
struct Breaker {
  int consecutive = 0;
  bool open = false;
  bool probing = false;  // a half-open probe is in flight
  Clock::time_point open_until{};
};

/// Transient failure classes that earn a retry instead of failing the
/// request outright. kCancelled is deliberately absent (retrying past a
/// deadline is never useful), as is kInvalidInput (deterministic).
/// kPipelineStall is also excluded: a drain stall may have abandoned a
/// genuinely wedged in-flight worker (task_graph.h drain watchdog), so
/// re-entering the solver in the same process is not safe — a stall fails
/// typed to the caller instead.
bool transient(ErrorCode code) {
  return code == ErrorCode::kFaultInjected;
}

/// The shape-bucket label a request's latency is recorded under:
/// "n<pow2-bucket>v<0|1>", the human-readable projection of the plan-cache
/// bucket key (stable across processes, safe as an OpenMetrics label).
std::string bucket_label(index_t n, bool vectors) {
  return "n" + std::to_string(plan::pow2_bucket(std::max<index_t>(n, 1))) +
         (vectors ? "v1" : "v0");
}

/// Structured per-request log sink, resolved once from TDG_SERVE_REQLOG:
/// unset/empty = disabled, "stderr" or "-" = stderr, anything else = append
/// to that path. nullptr means disabled.
std::FILE* reqlog_stream() {
  static std::FILE* const f = []() -> std::FILE* {
    const char* e = std::getenv("TDG_SERVE_REQLOG");
    if (e == nullptr || *e == '\0') return nullptr;
    if (std::strcmp(e, "stderr") == 0 || std::strcmp(e, "-") == 0) {
      return stderr;
    }
    return std::fopen(e, "a");
  }();
  return f;
}

/// One JSON line per resolved request (schema tdg.reqlog.v1). A single
/// fprintf call so concurrent resolutions don't interleave mid-line.
void log_request(long long request_id, const std::string& bucket,
                 Outcome outcome, ErrorCode code, double queue_ms,
                 double solve_ms, int retries, bool degraded,
                 const std::string& plan_source) {
  std::FILE* f = reqlog_stream();
  if (f == nullptr) return;
  std::fprintf(
      f,
      "{\"schema\":\"tdg.reqlog.v1\",\"req\":%lld,\"bucket\":\"%s\","
      "\"outcome\":\"%s\",\"code\":%d,\"queue_ms\":%.3f,\"solve_ms\":%.3f,"
      "\"retries\":%d,\"degraded\":%s,\"plan_source\":\"%s\"}\n",
      request_id, json::escape(bucket).c_str(), to_string(outcome),
      static_cast<int>(code), queue_ms, solve_ms, retries,
      degraded ? "true" : "false", json::escape(plan_source).c_str());
  std::fflush(f);
}

}  // namespace

const char* to_string(Outcome o) {
  switch (o) {
    case Outcome::kCompleted: return "completed";
    case Outcome::kDegraded: return "degraded";
    case Outcome::kRejected: return "rejected";
    case Outcome::kFailed: return "failed";
  }
  return "failed";
}

struct ServeCore::Impl {
  struct Request {
    Matrix a;
    RequestOptions ropts;
    std::promise<Response> promise;
    std::shared_ptr<cancel::Token> token;
    Clock::time_point submitted_at{};
    std::string admit_key;  // breaker bucket, as admitted (pre-degrade)
    std::string label;      // shape-bucket latency label ("n<pow2>v<0|1>")
    // Minted at submit: every span and flight event this request produces,
    // on whichever thread, carries ctx.request_id.
    obs::TraceContext ctx{};
    bool probe = false;  // the bucket breaker's half-open probe
    // Fixed at the first dispatch and kept by every retry: queue_ms ends
    // and solve_ms starts at `dispatched_at`, and a retry re-solves the
    // effective (post-degrade) vectors/mode of the first triage.
    Clock::time_point dispatched_at{};
    bool vectors = true;
    plan::EvdMode mode = plan::EvdMode::kStandard;
    bool degraded = false;
    int retries = 0;  // > 0: this dispatch is a retry
  };

  explicit Impl(const ServeOptions& o) : opts(o) {
    dispatcher = std::thread([this] { run(); });
  }

  ~Impl() {
    {
      std::lock_guard<std::mutex> lk(mu);
      draining = true;
      stopping = true;
    }
    cv.notify_all();
    dispatcher.join();  // resolves everything queued or waiting to retry
  }

  // ---- admission (caller thread) -------------------------------------

  Ticket submit(Matrix a, const RequestOptions& ropts) {
    ServeMetrics& m = ServeMetrics::get();
    auto token = std::make_shared<cancel::Token>();
    if (ropts.deadline_ms > 0.0) token->set_deadline_in_ms(ropts.deadline_ms);

    auto req = std::make_unique<Request>();
    req->ropts = ropts;
    req->vectors = ropts.vectors;
    req->mode = ropts.mode;
    req->token = token;
    req->submitted_at = Clock::now();
    Ticket ticket{req->promise.get_future(), token};

    const index_t n = a.rows();
    const long long bytes =
        static_cast<long long>(n) * static_cast<long long>(n) * 8;
    req->admit_key = plan::cache_key(plan::ProblemShape{
        std::max<index_t>(n, 1), ropts.vectors, 0, ropts.mode});
    req->label = bucket_label(n, ropts.vectors);
    req->ctx = obs::TraceContext{obs::next_request_id(), 0};

    std::lock_guard<std::mutex> lk(mu);
    ++submitted;
    m.submitted->inc();

    // Admission ladder: every reject is synchronous and typed — the
    // request never consumes queue space or a dispatch slot.
    if (fault::should_fire("serve_admit")) {
      reject(std::move(req), ErrorCode::kFaultInjected,
             "serve: fault injected at admission (serve_admit)");
      return ticket;
    }
    if (draining) {
      reject(std::move(req), ErrorCode::kOverloaded,
             "serve: draining, not admitting new requests");
      return ticket;
    }
    if (static_cast<index_t>(queue.size()) >= opts.queue_capacity) {
      reject(std::move(req), ErrorCode::kOverloaded,
             "serve: queue full (queue_capacity)");
      return ticket;
    }
    if (opts.memory_budget_bytes > 0 &&
        queued_bytes + bytes > opts.memory_budget_bytes) {
      reject(std::move(req), ErrorCode::kOverloaded,
             "serve: queued-matrix memory budget exceeded");
      return ticket;
    }
    Breaker& br = breakers[req->admit_key];
    if (br.open) {
      if (Clock::now() < br.open_until || br.probing) {
        reject(std::move(req), ErrorCode::kOverloaded,
               "serve: circuit breaker open for this shape bucket");
        return ticket;
      }
      // Half-open: let exactly one probe through to decide close/reopen.
      br.probing = true;
      req->probe = true;
    }

    req->a = std::move(a);
    ++admitted;
    m.admitted->inc();
    obs::flight::record(obs::flight::EventKind::kMarker, "serve.admit", n,
                        ropts.vectors ? 1 : 0, req->ctx.request_id);
    queued_bytes += bytes;
    queue.push_back(std::move(req));
    note_depth_locked();
    cv.notify_all();
    return ticket;
  }

  /// Resolve a request as kRejected (mu held; synchronous with submit).
  void reject(std::unique_ptr<Request> req, ErrorCode code,
              const std::string& msg) {
    ++rejected;
    ServeMetrics::get().rejected->inc();
    obs::flight::record(obs::flight::EventKind::kError, "serve.reject",
                        static_cast<long long>(code), 0,
                        req->ctx.request_id);
    log_request(req->ctx.request_id, req->label, Outcome::kRejected, code,
                0.0, 0.0, 0, false, "");
    Response r;
    r.outcome = Outcome::kRejected;
    r.code = code;
    r.message = msg;
    r.request_id = req->ctx.request_id;
    req->promise.set_value(std::move(r));
  }

  void note_depth_locked() {
    const long long depth = static_cast<long long>(queue.size());
    ServeMetrics& m = ServeMetrics::get();
    m.queue_depth->set(depth);
    m.queue_depth_hwm->update_max(depth);
    depth_hwm = std::max(depth_hwm, depth);
    obs::flight::record(obs::flight::EventKind::kMetric, "serve.queue_depth",
                        depth, 0, 0);
  }

  // ---- dispatcher ----------------------------------------------------

  void run() {
    std::unique_lock<std::mutex> lk(mu);
    for (;;) {
      // Sleep until a request is queued or the earliest retry falls due.
      // Shutdown ends the loop only once nothing is queued or retrying.
      if (retrying.empty()) {
        cv.wait(lk, [&] { return !queue.empty() || stopping; });
        if (queue.empty()) break;
      } else {
        cv.wait_until(lk, retrying.begin()->first,
                      [&] { return !queue.empty(); });
      }

      // Coalesce window: give same-bucket peers a moment to arrive so a
      // burst becomes one planner pass + one eigh_batched dispatch. Cut
      // short by a full batch, drain, or shutdown.
      if (!queue.empty() && opts.coalesce_window_ms > 0.0 && !draining) {
        const auto window_end = queue.front()->submitted_at +
                                ms_duration(opts.coalesce_window_ms);
        cv.wait_until(lk, window_end, [&] {
          return static_cast<int>(queue.size()) >= opts.max_batch ||
                 draining || stopping;
        });
      }

      // Due retries go first (they were admitted before anything still
      // queued), then fresh requests fill the batch up to max_batch.
      std::vector<std::unique_ptr<Request>> batch;
      const Clock::time_point now = Clock::now();
      while (!retrying.empty() && retrying.begin()->first <= now &&
             static_cast<int>(batch.size()) < opts.max_batch) {
        batch.push_back(std::move(retrying.begin()->second));
        retrying.erase(retrying.begin());
      }
      const index_t depth_at_dispatch = static_cast<index_t>(queue.size());
      while (!queue.empty() &&
             static_cast<int>(batch.size()) < opts.max_batch) {
        std::unique_ptr<Request> r = std::move(queue.front());
        queue.pop_front();
        const index_t n = r->a.rows();
        queued_bytes -= static_cast<long long>(n) * n * 8;
        r->dispatched_at = now;
        ++in_flight;
        batch.push_back(std::move(r));
      }
      note_depth_locked();

      lk.unlock();
      process(std::move(batch), depth_at_dispatch);
      lk.lock();

      if (queue.empty() && in_flight == 0) drain_cv.notify_all();
    }
  }

  /// Solve one dispatched batch. Never lets an exception escape to the
  /// dispatcher thread (which would std::terminate the process and leave
  /// the batch's promises unresolved): a batch-level throw — planner
  /// failure, eigh_batched misuse, std::bad_alloc — resolves every
  /// still-unresolved request in the batch with the typed error, keeping
  /// the exactly-once accounting and the dispatcher alive.
  void process(std::vector<std::unique_ptr<Request>> batch,
               index_t depth_at_dispatch) {
    try {
      process_batch(batch, depth_at_dispatch);
    } catch (...) {
      ErrorCode code = ErrorCode::kUnknown;
      std::string msg = "serve: batch dispatch failed";
      try {
        throw;
      } catch (const Error& err) {
        code = err.code();
        msg = err.what();
      } catch (const std::exception& err) {
        msg = std::string("serve: batch dispatch failed: ") + err.what();
      } catch (...) {
      }
      // Batch-level failures are the flight recorder's raison d'être: dump
      // every thread's recent events (request-tagged) before resolving the
      // batch, while the failing state is still fresh.
      obs::flight::record(obs::flight::EventKind::kError, "serve.batch_fail",
                          static_cast<long long>(code),
                          static_cast<long long>(batch.size()), 0);
      obs::flight::dump("serve batch dispatch failure: " + msg);
      for (auto& req : batch) {
        if (req) fail(std::move(req), code, msg);  // null: resolved or retrying
      }
    }
  }

  /// process() body: triage, group by shape bucket, one eigh_batched per
  /// bucket with the warm shared plan, then walk each failed request down
  /// the retry/breaker ladder. A request leaves `batch` (its pointer goes
  /// null) once it is resolved or back on the retry list, so the caller's
  /// backstop can resolve whatever is left on an escape at any point.
  void process_batch(std::vector<std::unique_ptr<Request>>& batch,
                     index_t depth_at_dispatch) {
    ServeMetrics& m = ServeMetrics::get();
    obs::Span span("serve.batch");
    span.attr("requests", static_cast<long long>(batch.size()));

    // Per-request triage: expire, degrade (first dispatch only; a retry
    // keeps its first triage), or join its bucket's solve. `serve_request`
    // fires here — a simulated transient failure of this attempt, checked
    // on retries too so a persistently armed site walks a request all the
    // way down the ladder instead of always being rescued by a retry.
    std::map<std::string, std::vector<std::size_t>> groups;
    for (std::size_t i = 0; i < batch.size(); ++i) {
      std::unique_ptr<Request>& req = batch[i];
      const bool retry = req->retries > 0;
      if (req->token->stop_requested()) {
        fail(std::move(req), ErrorCode::kCancelled,
             retry ? "serve: deadline expired before retry"
                   : "serve: deadline expired before solve");
        continue;
      }
      if (!retry) degrade_under_pressure(*req, depth_at_dispatch);
      if (fault::should_fire("serve_request")) {
        route_failure(std::move(req), ErrorCode::kFaultInjected,
                      retry ? "serve: fault injected in retry solve "
                              "(serve_request)"
                            : "serve: fault injected in request solve "
                              "(serve_request)");
        continue;
      }
      groups[plan::cache_key(plan::ProblemShape{
                 std::max<index_t>(req->a.rows(), 1), req->vectors, 0,
                 req->mode})]
          .push_back(i);
    }

    // One eigh_batched per shape bucket, every problem sharing the
    // bucket's warm plan and carrying its own cancellation token. A throw
    // out of one bucket's planner pass or batch dispatch fails only that
    // bucket's still-unresolved requests; the other buckets still solve.
    for (auto& [key, idxs] : groups) {
      try {
        // Bucket-level work (the warm-plan pass, the batch-span bookkeeping)
        // is attributed to the bucket's first request; per-problem spans get
        // their own request's context via BatchOptions::trace_contexts.
        const Request& head = *batch[idxs[0]];
        obs::ContextScope ctx_scope(head.ctx);
        const plan::Plan* plan =
            warm_plan(key, head.vectors, head.mode, head.a.rows());
        eig::BatchOptions bopts;
        bopts.vectors = head.vectors;
        bopts.mode = head.mode;
        bopts.plan = opts.plan;
        bopts.solver = opts.solver;
        bopts.check_finite = opts.check_finite;
        bopts.threads = opts.threads;
        bopts.shared_plan = plan;
        std::vector<ConstMatrixView> views;
        views.reserve(idxs.size());
        bopts.tokens.reserve(idxs.size());
        bopts.trace_contexts.reserve(idxs.size());
        for (const std::size_t i : idxs) {
          views.push_back(batch[i]->a.view());
          bopts.tokens.push_back(batch[i]->token.get());
          bopts.trace_contexts.push_back(batch[i]->ctx);
        }
        {
          std::lock_guard<std::mutex> lk(mu);
          ++batches;
        }
        m.batches->inc();
        eig::BatchResult br = eig::eigh_batched(views, bopts);

        for (std::size_t j = 0; j < idxs.size(); ++j) {
          std::unique_ptr<Request>& req = batch[idxs[j]];
          if (br.status[j].ok) {
            // The slot's own solve time: slots run side by side, so the
            // batch wall time says nothing about one of them.
            const eig::EvdResult& res = br.results[j];
            if (req->vectors) {
              note_vectors_ms(key, 1e3 * res.profile.total_seconds());
            }
            succeed(std::move(req), std::move(br.results[j]));
          } else {
            route_failure(std::move(req), br.status[j].code,
                          br.status[j].message);
          }
        }
      } catch (const Error& err) {
        fail_bucket(batch, idxs, err.code(), err.what());
      } catch (const std::exception& err) {
        fail_bucket(batch, idxs, ErrorCode::kUnknown,
                    std::string("serve: bucket solve failed: ") + err.what());
      }
    }
  }

  /// The degradation rung: under queue pressure, or when the remaining
  /// deadline is below the bucket's observed vectors-solve time, a vectors
  /// request that both the server and the request allow to degrade runs
  /// eigenvalues-only instead of missing its deadline.
  void degrade_under_pressure(Request& req, index_t depth_at_dispatch) {
    if (!req.vectors || !opts.allow_degraded || !req.ropts.allow_degraded) {
      return;
    }
    const bool pressure = opts.degrade_queue_depth > 0 &&
                          depth_at_dispatch > opts.degrade_queue_depth;
    bool deadline_pressure = false;
    if (req.ropts.deadline_ms > 0.0) {
      const double expect = expected_vectors_ms(req.a.rows(), req.mode);
      deadline_pressure = expect > 0.0 && req.token->remaining_ms() < expect;
    }
    if (pressure || deadline_pressure) {
      req.vectors = false;
      req.degraded = true;
    }
  }

  /// Route one failed attempt down the ladder: cancellation fails alone, a
  /// transient failure with retry budget left goes back on the retry list,
  /// everything else counts against the bucket breaker and fails typed.
  void route_failure(std::unique_ptr<Request> req, ErrorCode code,
                     const std::string& msg) {
    if (code == ErrorCode::kCancelled) {
      fail(std::move(req), code, msg);
    } else if (transient(code) && req->retries < opts.max_retries) {
      schedule_retry(std::move(req));
    } else {
      breaker_failure(req->admit_key, req->probe);
      fail(std::move(req), code, msg);
    }
  }

  /// A bucket-level failure (the planner pass or eigh_batched itself
  /// threw): every request of the bucket not yet resolved takes the same
  /// ladder a per-slot failure would.
  void fail_bucket(std::vector<std::unique_ptr<Request>>& batch,
                   const std::vector<std::size_t>& idxs, ErrorCode code,
                   const std::string& msg) {
    for (const std::size_t i : idxs) {
      if (batch[i]) route_failure(std::move(batch[i]), code, msg);
    }
  }

  /// The retry rung: the request waits out a deterministic jittered
  /// backoff on the dispatcher's retry list and then runs as an ordinary
  /// slot of its bucket's next dispatch, under the same token and bucket
  /// plan. Nothing sleeps, so a backoff never holds up another request.
  /// The request stays in flight until that dispatch resolves it.
  void schedule_retry(std::unique_ptr<Request> req) {
    ++req->retries;
    ServeMetrics::get().retries->inc();
    std::lock_guard<std::mutex> lk(mu);
    ++retries;
    const double backoff_ms = opts.retry_backoff_ms * jitter_dist(rng);
    retrying.emplace(Clock::now() + ms_duration(backoff_ms), std::move(req));
  }

  // ---- resolution ----------------------------------------------------

  void succeed(std::unique_ptr<Request> req, eig::EvdResult&& result) {
    ServeMetrics& m = ServeMetrics::get();
    breaker_success(req->admit_key, req->probe);
    Response r = timed_response(*req);
    r.outcome = req->degraded ? Outcome::kDegraded : Outcome::kCompleted;
    r.mode = result.mode;  // effective: post-degrade, post-recovery
    r.result = std::move(result);
    // Recorded before the drain notification, so stats() after drain()
    // covers every resolution.
    const double latency = record_latency(*req);
    {
      std::lock_guard<std::mutex> lk(mu);
      ++(req->degraded ? degraded : completed);
      --in_flight;
      if (queue.empty() && in_flight == 0) drain_cv.notify_all();
    }
    (req->degraded ? m.degraded : m.completed)->inc();
    obs::flight::record(obs::flight::EventKind::kMarker, "serve.resolve",
                        std::llround(latency * 1e3), req->degraded ? 1 : 0,
                        req->ctx.request_id);
    log_request(req->ctx.request_id, req->label, r.outcome,
                ErrorCode::kUnknown, r.queue_ms, r.solve_ms, r.retries,
                req->degraded, r.result.plan_source);
    req->promise.set_value(std::move(r));
  }

  void fail(std::unique_ptr<Request> req, ErrorCode code,
            const std::string& msg) {
    ServeMetrics& m = ServeMetrics::get();
    if (req->probe) release_probe(req->admit_key);
    Response r = timed_response(*req);
    r.outcome = Outcome::kFailed;
    r.code = code;
    r.message = msg;
    record_latency(*req);
    {
      std::lock_guard<std::mutex> lk(mu);
      ++failed;
      if (code == ErrorCode::kCancelled) ++deadline_failures;
      --in_flight;
      if (queue.empty() && in_flight == 0) drain_cv.notify_all();
    }
    m.failed->inc();
    if (code == ErrorCode::kCancelled) m.deadline_failures->inc();
    obs::flight::record(obs::flight::EventKind::kError, "serve.fail",
                        static_cast<long long>(code), r.retries,
                        req->ctx.request_id);
    log_request(req->ctx.request_id, req->label, Outcome::kFailed, code,
                r.queue_ms, r.solve_ms, r.retries, false, "");
    req->promise.set_value(std::move(r));
  }

  /// A response stamped with the request's id, retry count and timing:
  /// queue_ms up to the first dispatch, solve_ms from there to now.
  static Response timed_response(const Request& req) {
    Response r;
    r.queue_ms = ms_between(req.submitted_at, req.dispatched_at);
    r.solve_ms = ms_between(req.dispatched_at, Clock::now());
    r.retries = req.retries;
    r.request_id = req.ctx.request_id;
    return r;
  }

  /// Record one resolution's submit-to-now latency, once in this
  /// instance's ladder histogram (ServeStats percentiles) and once in the
  /// process-wide "serve.latency_ms" family (its "" aggregate and the
  /// request's shape-bucket series, behind the OpenMetrics and JSON
  /// exports). Returns the latency in ms.
  double record_latency(const Request& req) {
    const double ms = ms_between(req.submitted_at, Clock::now());
    latency_hist.record(ms);
    obs::Registry& reg = obs::Registry::global();
    reg.latency("serve.latency_ms", "")->record(ms);
    reg.latency("serve.latency_ms", req.label)->record(ms);
    return ms;
  }

  // ---- breaker / plan / ewma (mu) ------------------------------------

  void breaker_success(const std::string& key, bool was_probe) {
    std::lock_guard<std::mutex> lk(mu);
    Breaker& b = breakers[key];
    b.consecutive = 0;
    b.open = false;
    if (was_probe) b.probing = false;
  }

  void breaker_failure(const std::string& key, bool was_probe) {
    ServeMetrics& m = ServeMetrics::get();
    std::lock_guard<std::mutex> lk(mu);
    Breaker& b = breakers[key];
    if (was_probe) {
      // Failed half-open probe: reopen for another full window.
      b.probing = false;
      b.open = true;
      b.open_until = Clock::now() + ms_duration(opts.breaker_open_ms);
      ++breaker_trips;
      m.breaker_trips->inc();
      return;
    }
    ++b.consecutive;
    if (!b.open && opts.breaker_threshold > 0 &&
        b.consecutive >= opts.breaker_threshold) {
      b.open = true;
      b.open_until = Clock::now() + ms_duration(opts.breaker_open_ms);
      ++breaker_trips;
      m.breaker_trips->inc();
    }
  }

  /// A cancelled probe neither closes nor reopens the breaker — it just
  /// frees the probe slot so the next request can probe.
  void release_probe(const std::string& key) {
    std::lock_guard<std::mutex> lk(mu);
    breakers[key].probing = false;
  }

  /// One shape bucket's shared plan plus its build state. Lives in a
  /// node-based map so the address is stable for the life of the service;
  /// `plan` is immutable once `ready`, so callers may keep the pointer
  /// without holding the slot mutex.
  struct PlanSlot {
    std::mutex m;
    std::condition_variable cv;
    bool ready = false;
    bool building = false;  // a builder runs outside the lock
    plan::Plan plan;
  };

  /// The bucket's shared plan, resolved once (one planner pass per bucket
  /// for the life of the service) and reused warm by every batch. Only
  /// the map lookup holds the core mutex: the planner pass itself — which
  /// under PlanMode::kMeasure runs real measured solves — happens under
  /// the bucket's own build slot, so concurrent submit()/stats()/drain()
  /// never block on planning and only same-bucket callers wait for it.
  const plan::Plan* warm_plan(const std::string& key, bool vectors,
                              plan::EvdMode mode, index_t n) {
    PlanSlot* slot;
    {
      std::lock_guard<std::mutex> lk(mu);
      slot = &plans[key];
    }
    std::unique_lock<std::mutex> lk(slot->m);
    for (;;) {
      if (slot->ready) return &slot->plan;
      if (!slot->building) break;
      slot->cv.wait(lk);  // another thread is building this bucket's plan
    }
    slot->building = true;
    lk.unlock();
    plan::Plan built;
    try {
      eig::BatchOptions bopts;
      bopts.vectors = vectors;
      bopts.mode = mode;
      bopts.plan = opts.plan;
      built = eig::batch_bucket_plan(n, bopts);
    } catch (...) {
      lk.lock();
      slot->building = false;  // let the next same-bucket caller retry
      slot->cv.notify_all();
      throw;
    }
    lk.lock();
    slot->plan = std::move(built);
    slot->ready = true;
    slot->building = false;
    slot->cv.notify_all();
    return &slot->plan;
  }

  /// The EWMA of vectors solves in the bucket `process_batch` files them
  /// under: the same n, vectors on, the request's own mode.
  double expected_vectors_ms(index_t n, plan::EvdMode mode) {
    const std::string key = plan::cache_key(
        plan::ProblemShape{std::max<index_t>(n, 1), true, 0, mode});
    std::lock_guard<std::mutex> lk(mu);
    const auto it = solve_ewma_ms.find(key);
    return it == solve_ewma_ms.end() ? 0.0 : it->second;
  }

  void note_vectors_ms(const std::string& key, double ms) {
    std::lock_guard<std::mutex> lk(mu);
    double& e = solve_ewma_ms[key];
    e = e == 0.0 ? ms : 0.7 * e + 0.3 * ms;
  }

  // ---- drain / stats -------------------------------------------------

  bool drain(double timeout_ms) {
    std::unique_lock<std::mutex> lk(mu);
    draining = true;
    cv.notify_all();
    const auto done = [&] { return queue.empty() && in_flight == 0; };
    if (timeout_ms <= 0.0) {
      drain_cv.wait(lk, done);
      return true;
    }
    return drain_cv.wait_for(lk, ms_duration(timeout_ms), done);
  }

  ServeStats stats() const {
    ServeStats s;
    {
      std::lock_guard<std::mutex> lk(mu);
      s.submitted = submitted;
      s.admitted = admitted;
      s.rejected = rejected;
      s.completed = completed;
      s.degraded = degraded;
      s.failed = failed;
      s.retries = retries;
      s.breaker_trips = breaker_trips;
      s.batches = batches;
      s.deadline_failures = deadline_failures;
      s.queue_depth = static_cast<long long>(queue.size());
      s.queue_depth_hwm = depth_hwm;
    }
    s.p50_ms = latency_hist.percentile(0.50);
    s.p95_ms = latency_hist.percentile(0.95);
    s.p99_ms = latency_hist.percentile(0.99);
    return s;
  }

  // ---- state ---------------------------------------------------------

  const ServeOptions opts;
  mutable std::mutex mu;
  std::condition_variable cv;        // queue activity / shutdown
  std::condition_variable drain_cv;  // queue empty and nothing in flight
  std::deque<std::unique_ptr<Request>> queue;
  // Transient failures waiting out their backoff, by due time (equal due
  // times keep insertion order). Owned by the dispatcher under `mu`.
  std::multimap<Clock::time_point, std::unique_ptr<Request>> retrying;
  long long queued_bytes = 0;
  int in_flight = 0;  // popped, not yet resolved (retries included)
  bool draining = false;
  bool stopping = false;

  long long submitted = 0;
  long long admitted = 0;
  long long rejected = 0;
  long long completed = 0;
  long long degraded = 0;
  long long failed = 0;
  long long retries = 0;
  long long breaker_trips = 0;
  long long batches = 0;
  long long deadline_failures = 0;
  long long depth_hwm = 0;

  // Per-instance latency record on the canonical ladder (lock-free;
  // recorded outside mu), behind ServeStats::p50/p95/p99_ms, free of other
  // instances' resolutions in the shared registry series.
  int latency_nb = 0;
  const double* latency_bounds = obs::latency_bounds_ms(&latency_nb);
  obs::BoundedHistogram latency_hist{latency_bounds, latency_nb};

  std::map<std::string, Breaker> breakers;
  std::map<std::string, PlanSlot> plans;
  std::map<std::string, double> solve_ewma_ms;  // vectors solves, per bucket

  // Deterministic backoff jitter (fixed seed: reproducible schedules).
  std::mt19937 rng{0x5eedu};
  std::uniform_real_distribution<double> jitter_dist{0.5, 1.5};

  std::thread dispatcher;
};

ServeCore::ServeCore(const ServeOptions& opts) {
  TDG_CHECK(opts.queue_capacity >= 1, "serve: queue_capacity must be >= 1");
  TDG_CHECK(opts.max_batch >= 1, "serve: max_batch must be >= 1");
  impl_ = std::make_unique<Impl>(opts);
}

ServeCore::~ServeCore() = default;

Ticket ServeCore::submit(Matrix a, const RequestOptions& ropts) {
  return impl_->submit(std::move(a), ropts);
}

bool ServeCore::drain(double timeout_ms) { return impl_->drain(timeout_ms); }

ServeStats ServeCore::stats() const { return impl_->stats(); }

const ServeOptions& ServeCore::options() const { return impl_->opts; }

}  // namespace tdg::serve
