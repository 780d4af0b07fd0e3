#include "bc/bulge_chase_parallel.h"

#include <atomic>
#include <chrono>
#include <exception>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/cancel.h"
#include "common/fault.h"
#include "common/thread_pool.h"
#include "obs/metrics.h"
#include "obs/obs.h"

namespace tdg::bc {

namespace {

constexpr index_t kNotStarted = -1;

/// Bulge-chase pipeline metrics, resolved once. All gated on the armed
/// flag inside inc()/record(), so the spin slow paths call unconditionally.
struct BcMetrics {
  obs::Counter* sweeps;
  obs::Counter* gate_spin_episodes;
  obs::Counter* stall_near_miss;
  obs::Histogram* gate_wait_us;
  obs::Gauge* sweep_concurrency_hwm;

  static BcMetrics& get() {
    static BcMetrics m = [] {
      obs::Registry& r = obs::Registry::global();
      return BcMetrics{r.counter("bc.sweeps"),
                       r.counter("bc.gate_spin_episodes"),
                       r.counter("bc.stall_near_miss"),
                       r.histogram("bc.gate_wait_us"),
                       r.gauge("bc.sweep_concurrency_hwm")};
    }();
    return m;
  }
};

[[noreturn]] void throw_stall(index_t sweep, index_t row, int timeout_ms) {
  throw Error(ErrorCode::kPipelineStall,
              "bulge chase pipeline stalled: sweep " + std::to_string(sweep) +
                  " made no progress waiting at row " + std::to_string(row) +
                  " for " + std::to_string(timeout_ms) +
                  " ms (TDG_SPIN_TIMEOUT_MS)",
              {"bulge_chase", sweep, row});
}

[[noreturn]] void throw_poisoned(index_t sweep, index_t row) {
  // Secondary unwind error: a peer already recorded the root cause, so this
  // is only seen if thrown outside a poisoned region (it never is).
  throw Error(ErrorCode::kPipelineStall,
              "bulge chase pipeline poisoned: sweep " + std::to_string(sweep) +
                  " unwinding at row " + std::to_string(row) +
                  " after a peer failure",
              {"bulge_chase", sweep, row});
}

/// Bounds one spin loop. The clock is consulted only every 512 yields, so
/// the spinning cost is still dominated by the yield itself; the fast
/// (gate-already-open) path never constructs one.
class SpinDeadline {
 public:
  explicit SpinDeadline(int timeout_ms) : timeout_ms_(timeout_ms) {}

  void poll(index_t sweep, index_t row) {
    if (timeout_ms_ <= 0) return;
    if (++spins_ % 512 != 0) return;
    const auto now = std::chrono::steady_clock::now();
    if (!started_) {
      started_ = true;
      start_ = now;
      return;
    }
    if (now - start_ >= std::chrono::milliseconds(timeout_ms_)) {
      throw_stall(sweep, row, timeout_ms_);
    }
  }

 private:
  int timeout_ms_;
  long spins_ = 0;
  bool started_ = false;
  std::chrono::steady_clock::time_point start_{};
};

template <class Acc>
void chase_all_parallel(const Acc& acc, index_t b,
                        const ParallelChaseOptions& opts,
                        ChaseLogT<typename Acc::value_type>* log) {
  const index_t n = acc.n();
  const index_t nsweeps = std::max<index_t>(n - 2, 0);
  if (log != nullptr) {
    log->n = n;
    log->b = b;
    log->sweeps.assign(static_cast<std::size_t>(nsweeps), {});
  }
  if (nsweeps == 0 || b <= 1) return;

  obs::Span chase_span("bulge_chase");
  chase_span.attr("n", n);
  chase_span.attr("b", b);
  chase_span.attr("nsweeps", nsweeps);

  const index_t done = n + 3 * b;  // completion sentinel (matches publish)
  std::vector<std::atomic<index_t>> gcom(static_cast<std::size_t>(nsweeps));
  for (auto& g : gcom) g.store(kNotStarted, std::memory_order_relaxed);

  std::atomic<index_t> next_sweep{0};
  const int want = opts.threads > 0 ? opts.threads : current_threads();
  const int nthreads =
      static_cast<int>(std::min<index_t>(std::max(want, 1), nsweeps));
  const index_t cap = opts.max_parallel_sweeps;
  // Shared stall deadline (TDG_SPIN_TIMEOUT_MS): the same contract the
  // task-graph drain watchdog uses, via common/cancel.h.
  const int timeout_ms = opts.spin_timeout_ms >= 0
                             ? opts.spin_timeout_ms
                             : cancel::stall_timeout_ms();

  // Cooperative cancellation: pool workers do not inherit the caller's
  // thread-local cancel scope, so capture the token here and poll it
  // explicitly at each sweep claim. A cancelled/expired token throws
  // kCancelled, which poisons the pipeline and unwinds the peers exactly
  // like any other sweep failure.
  const cancel::Token* ctok = cancel::current();

  // Poisonable gates: on any task failure the abort flag releases every
  // spinning peer (both spin loops check it), so the pipeline unwinds
  // instead of deadlocking on a gate its owner will never advance. Only the
  // first failure is kept — it is the root cause; the peers' unwind errors
  // are secondary.
  std::atomic<bool> aborted{false};
  std::exception_ptr first_error;
  std::mutex err_mu;
  auto poison = [&](std::exception_ptr e) {
    {
      std::lock_guard<std::mutex> lock(err_mu);
      if (!first_error) first_error = e;
    }
    aborted.store(true, std::memory_order_release);
  };

  // Observability: gate waits are timed only when tracing or metrics are
  // armed (one clock read per spin EPISODE, never on the gate-already-open
  // fast path); the in-flight count feeds the sweep-concurrency high-water
  // mark. Spin-wait accounting distinguishes "pipeline is healthy" from
  // "peers are starving at the 2b-lag gates".
  const bool timed = obs::tracing_armed() || obs::metrics_armed();
  std::atomic<int> in_flight{0};
  auto account_wait = [&](double t0, double* sweep_wait_us) {
    const double w = obs::now_us() - t0;
    *sweep_wait_us += w;
    BcMetrics& m = BcMetrics::get();
    m.gate_spin_episodes->inc();
    m.gate_wait_us->record(static_cast<long long>(w));
    // Near-miss: one episode burned more than half the stall deadline —
    // the pipeline survived but was close to a kPipelineStall diagnosis.
    if (timeout_ms > 0 && w > 500.0 * timeout_ms) m.stall_near_miss->inc();
  };

  auto worker = [&] {
    for (;;) {
      const index_t i = next_sweep.fetch_add(1, std::memory_order_relaxed);
      if (i >= nsweeps) return;
      try {
        if (aborted.load(std::memory_order_acquire)) return;
        cancel::poll(ctok, "bc_sweep");
        fault::maybe_inject("bc_sweep");
        if (fault::should_fire("bc_stall")) {
          // Simulated wedge: hold this sweep's gate until a peer's spin
          // deadline poisons the pipeline (failsafe-capped so a disabled
          // deadline cannot hang a test run).
          const auto t0 = std::chrono::steady_clock::now();
          while (!aborted.load(std::memory_order_acquire) &&
                 std::chrono::steady_clock::now() - t0 <
                     std::chrono::seconds(10)) {
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
          }
          throw_poisoned(i, kNotStarted);
        }

        obs::Span sweep_span("bc.sweep");
        sweep_span.attr("sweep", i);
        double sweep_wait_us = 0.0;

        if (cap > 0 && i >= cap) {
          // Law (3): at most `cap` sweeps in the pipeline — wait for sweep
          // i - cap to drain before entering.
          const auto& gate = gcom[static_cast<std::size_t>(i - cap)];
          if (gate.load(std::memory_order_acquire) < done) {
            const double t0 = timed ? obs::now_us() : 0.0;
            SpinDeadline deadline(timeout_ms);
            while (gate.load(std::memory_order_acquire) < done) {
              if (aborted.load(std::memory_order_relaxed)) {
                throw_poisoned(i, kNotStarted);
              }
              deadline.poll(i, kNotStarted);
              std::this_thread::yield();
            }
            if (timed) account_wait(t0, &sweep_wait_us);
          }
        }

        auto wait = [&](index_t s) {
          if (i == 0) return;
          const auto& pred = gcom[static_cast<std::size_t>(i - 1)];
          // Paper Algorithm 2, line 5: spin while gCom[i] + 2b > gCom[i-1].
          if (pred.load(std::memory_order_acquire) >= s + 2 * b) return;
          const double t0 = timed ? obs::now_us() : 0.0;
          SpinDeadline deadline(timeout_ms);
          while (pred.load(std::memory_order_acquire) < s + 2 * b) {
            if (aborted.load(std::memory_order_relaxed)) {
              throw_poisoned(i, s);
            }
            deadline.poll(i, s);
            std::this_thread::yield();
          }
          if (timed) account_wait(t0, &sweep_wait_us);
        };
        auto publish = [&](index_t s) {
          gcom[static_cast<std::size_t>(i)].store(s,
                                                  std::memory_order_release);
        };

        auto* sl = (log != nullptr)
                       ? &log->sweeps[static_cast<std::size_t>(i)]
                       : nullptr;
        {
          struct InFlight {
            std::atomic<int>& c;
            ~InFlight() { c.fetch_sub(1, std::memory_order_relaxed); }
          } guard{in_flight};
          BcMetrics::get().sweep_concurrency_hwm->update_max(
              in_flight.fetch_add(1, std::memory_order_relaxed) + 1);
          chase_sweep(acc, b, i, sl, wait, publish);
        }
        // chase_sweep's final publish(n + 3b) marks the sweep complete.
        BcMetrics::get().sweeps->inc();
        sweep_span.attr("gate_wait_us",
                        static_cast<long long>(sweep_wait_us));
      } catch (...) {
        poison(std::current_exception());
        return;
      }
    }
  };

  if (nthreads == 1) {
    worker();
  } else {
    // Run the sweep workers as persistent-pool peers instead of spawning a
    // fresh std::thread set per call (the spawn/join overhead dominates
    // small-n chases). Sweeps are claimed in ascending order, so the lowest
    // unfinished sweep always belongs to a running peer and the pipeline
    // makes progress even if some peers start late (queued behind busy
    // workers).
    ThreadPool::global().run_concurrent(nthreads, [&](int) { worker(); });
  }
  if (first_error) std::rethrow_exception(first_error);
}

}  // namespace

template <class T>
void chase_packed_parallel(SymBandMatrixT<T>& band, index_t b,
                           const ParallelChaseOptions& opts,
                           std::type_identity_t<ChaseLogT<T>>* log) {
  TDG_CHECK(b >= 1, "chase_packed_parallel: bandwidth must be positive");
  TDG_CHECK(band.kd() >= std::min(2 * b, band.n() - 1),
            "chase_packed_parallel: storage bandwidth must be >= 2b");
  PackedLowerAccessor acc{&band};
  chase_all_parallel(acc, b, opts, log);
}

template <class T>
void chase_dense_parallel(MatrixViewT<T> a, index_t b,
                          const ParallelChaseOptions& opts,
                          std::type_identity_t<ChaseLogT<T>>* log) {
  TDG_CHECK(a.rows == a.cols, "chase_dense_parallel: matrix must be square");
  TDG_CHECK(b >= 1, "chase_dense_parallel: bandwidth must be positive");
  DenseLowerAccessor acc{a};
  chase_all_parallel(acc, b, opts, log);
}

#define TDG_INSTANTIATE_CHASE_PARALLEL(T)                                    \
  template void chase_packed_parallel<T>(                                   \
      SymBandMatrixT<T>&, index_t, const ParallelChaseOptions&,             \
      ChaseLogT<T>*);                                                       \
  template void chase_dense_parallel<T>(                                    \
      MatrixViewT<T>, index_t, const ParallelChaseOptions&, ChaseLogT<T>*);
TDG_INSTANTIATE_CHASE_PARALLEL(double)
TDG_INSTANTIATE_CHASE_PARALLEL(float)
#undef TDG_INSTANTIATE_CHASE_PARALLEL

}  // namespace tdg::bc
