#include "common/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <limits>
#include <memory>

#include "common/check.h"
#include "common/fault.h"
#include "obs/metrics.h"
#include "obs/obs.h"

namespace tdg {

namespace {

thread_local int t_limit = 0;
thread_local bool t_in_pool_task = false;

/// Pool metrics, resolved once against the global registry. Every inc() is
/// gated (one relaxed load when disarmed), so sites call unconditionally.
struct PoolMetrics {
  obs::Counter* tasks_run;
  obs::Counter* dispatches;
  obs::Counter* parks;
  obs::Counter* wakes;
  obs::Histogram* queue_wait_us;

  static PoolMetrics& get() {
    static PoolMetrics m = [] {
      obs::Registry& r = obs::Registry::global();
      return PoolMetrics{r.counter("pool.tasks_run"),
                         r.counter("pool.dispatches"), r.counter("pool.parks"),
                         r.counter("pool.wakes"),
                         r.histogram("pool.queue_wait_us")};
    }();
    return m;
  }
};

/// RAII flag flip for the caller-participates paths: exception-safe where
/// the old manual set/reset was not.
struct PoolTaskScope {
  bool prev;
  PoolTaskScope() : prev(t_in_pool_task) { t_in_pool_task = true; }
  ~PoolTaskScope() { t_in_pool_task = prev; }
};

struct ForState {
  std::atomic<index_t> next{0};
  index_t end = 0;
  index_t total = 0;
  const std::function<void(index_t)>* fn = nullptr;
  std::atomic<index_t> done{0};
  std::mutex mu;
  std::condition_variable cv;
  // First failure in the region; later ones are dropped (the region is
  // already doomed and the first exception is the root cause).
  std::atomic<bool> failed{false};
  std::exception_ptr error;  // guarded by mu

  void poison(std::exception_ptr e) {
    {
      std::lock_guard<std::mutex> lk(mu);
      if (!error) error = e;
    }
    failed.store(true, std::memory_order_release);
  }
};

// Claim-and-run loop shared by the caller and the helper tasks. The index
// assignment is dynamic but every fn(i) writes only its own output region,
// so scheduling order cannot affect results. A throwing fn poisons the
// region: remaining indices are claimed but skipped (the done count must
// still reach total so the join releases), and the first exception is
// rethrown at the join point by parallel_for.
void drive(ForState& st) {
  for (;;) {
    const index_t i = st.next.fetch_add(1, std::memory_order_relaxed);
    if (i >= st.end) return;
    if (!st.failed.load(std::memory_order_relaxed)) {
      try {
        fault::maybe_inject("pool_task");
        (*st.fn)(i);
      } catch (...) {
        st.poison(std::current_exception());
      }
    }
    if (st.done.fetch_add(1, std::memory_order_acq_rel) + 1 == st.total) {
      std::lock_guard<std::mutex> lk(st.mu);
      st.cv.notify_all();
    }
  }
}

// Inline (serial) execution path; exceptions propagate directly to the
// caller, but the fault site still fires so injected runs behave the same
// at every thread count.
void run_serial(index_t begin, index_t end,
                const std::function<void(index_t)>& fn) {
  for (index_t i = begin; i < end; ++i) {
    fault::maybe_inject("pool_task");
    fn(i);
  }
}

}  // namespace

int default_threads() {
  static const int v = [] {
    const unsigned hc = std::thread::hardware_concurrency();
    const long long n = env_int("TDG_THREADS", 1,
                                std::numeric_limits<int>::max(),
                                hc == 0 ? 1 : hc);
    return static_cast<int>(std::min<long long>(n, kMaxThreads));
  }();
  return v;
}

int current_threads() { return t_limit > 0 ? t_limit : default_threads(); }

bool in_pool_task() { return t_in_pool_task; }

ThreadLimit::ThreadLimit(int n) : prev_(t_limit) {
  if (n > 0) t_limit = std::min(n, kMaxThreads);
}

ThreadLimit::~ThreadLimit() { t_limit = prev_; }

ThreadPool::ThreadPool(int workers) {
  if (workers <= 0) workers = default_threads() - 1;
  ensure_workers(workers);
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& t : threads_) t.join();
}

int ThreadPool::workers() const {
  std::lock_guard<std::mutex> lk(mu_);
  return static_cast<int>(threads_.size());
}

void ThreadPool::ensure_workers(int n) {
  n = std::min(n, kMaxThreads);
  std::lock_guard<std::mutex> lk(mu_);
  while (static_cast<int>(threads_.size()) < n) {
    threads_.emplace_back([this] { worker_loop(); });
  }
}

void ThreadPool::worker_loop() {
  t_in_pool_task = true;  // tasks on this thread never re-dispatch
  PoolMetrics& m = PoolMetrics::get();
  for (;;) {
    Job job;
    {
      std::unique_lock<std::mutex> lk(mu_);
      if (!stop_ && queue_.empty()) {
        m.parks->inc();
        cv_.wait(lk, [&] { return stop_ || !queue_.empty(); });
        m.wakes->inc();
      }
      if (stop_ && queue_.empty()) return;
      job = std::move(queue_.front());
      queue_.pop_front();
    }
    if (job.enq_us > 0.0) {
      m.queue_wait_us->record(
          static_cast<long long>(obs::now_us() - job.enq_us));
    }
    m.tasks_run->inc();
    job.fn();
  }
}

void ThreadPool::enqueue_locked(std::function<void()> fn) {
  Job j;
  j.fn = std::move(fn);
  if (obs::metrics_armed()) j.enq_us = obs::now_us();
  queue_.push_back(std::move(j));
}

void ThreadPool::post(std::function<void()> fn) {
  // Carry the poster's ambient request context onto the worker: the task
  // runs as if on the posting thread's flow (task-graph runners inherit the
  // graph's owning request this way).
  const obs::TraceContext ctx = obs::current_context();
  {
    std::lock_guard<std::mutex> lk(mu_);
    enqueue_locked([fn = std::move(fn), ctx] {
      obs::ContextScope scope(ctx);
      fn();
    });
  }
  cv_.notify_one();
}

void ThreadPool::parallel_for(index_t begin, index_t end,
                              const std::function<void(index_t)>& fn) {
  const index_t n = end - begin;
  if (n <= 0) return;
  const int budget = current_threads();
  if (n == 1 || budget <= 1 || t_in_pool_task) {
    run_serial(begin, end, fn);
    return;
  }
  int helpers = static_cast<int>(std::min<index_t>(n, budget)) - 1;
  ensure_workers(helpers);
  helpers = std::min(helpers, workers());
  if (helpers <= 0) {
    run_serial(begin, end, fn);
    return;
  }

  auto st = std::make_shared<ForState>();
  st->next.store(begin, std::memory_order_relaxed);
  st->end = end;
  st->total = n;
  st->fn = &fn;  // the caller blocks until every claimed index completed,
                 // so the reference outlives all uses
  PoolMetrics::get().dispatches->inc();
  // Helpers adopt the dispatcher's ambient request context: every span a
  // body records on a pool worker is attributed to the same request as the
  // caller's inline share.
  const obs::TraceContext ctx = obs::current_context();
  {
    std::lock_guard<std::mutex> lk(mu_);
    for (int h = 0; h < helpers; ++h) {
      enqueue_locked([st, ctx] {
        obs::ContextScope scope(ctx);
        drive(*st);
      });
    }
  }
  cv_.notify_all();

  {
    PoolTaskScope scope;  // nested dispatch from the body runs inline
    drive(*st);
  }

  {
    std::unique_lock<std::mutex> lk(st->mu);
    st->cv.wait(lk, [&] {
      return st->done.load(std::memory_order_acquire) == st->total;
    });
  }
  // Join point: every helper is done touching st, so rethrowing the first
  // captured failure is safe and the region behaves like a serial loop that
  // threw (minus the not-yet-claimed tail). The exception is MOVED out so a
  // helper's deferred release of its st reference never drops the last
  // refcount on the exception object the caller is inspecting (that release
  // lives in uninstrumented libstdc++ and reads as a race under TSan).
  if (st->failed.load(std::memory_order_acquire)) {
    std::exception_ptr e;
    {
      std::lock_guard<std::mutex> lk(st->mu);
      e = std::move(st->error);
    }
    std::rethrow_exception(e);
  }
}

void ThreadPool::run_concurrent(int copies,
                                const std::function<void(int)>& fn) {
  if (copies <= 0) return;
  if (copies == 1 || t_in_pool_task) {
    for (int c = 0; c < copies; ++c) fn(c);
    return;
  }
  ensure_workers(copies - 1);

  struct ConcState {
    const std::function<void(int)>* fn = nullptr;
    std::atomic<int> done{0};
    int total = 0;
    std::mutex mu;
    std::condition_variable cv;
    std::exception_ptr error;  // first failure, guarded by mu

    void poison(std::exception_ptr e) {
      std::lock_guard<std::mutex> lk(mu);
      if (!error) error = e;
    }
  };
  auto st = std::make_shared<ConcState>();
  st->fn = &fn;
  st->total = copies - 1;
  PoolMetrics::get().dispatches->inc();
  const obs::TraceContext ctx = obs::current_context();
  {
    std::lock_guard<std::mutex> lk(mu_);
    for (int c = 1; c < copies; ++c) {
      enqueue_locked([st, c, ctx] {
        obs::ContextScope scope(ctx);
        try {
          (*st->fn)(c);
        } catch (...) {
          st->poison(std::current_exception());
        }
        if (st->done.fetch_add(1, std::memory_order_acq_rel) + 1 ==
            st->total) {
          std::lock_guard<std::mutex> lk2(st->mu);
          st->cv.notify_all();
        }
      });
    }
  }
  cv_.notify_all();

  {
    PoolTaskScope scope;
    try {
      fn(0);
    } catch (...) {
      // The caller's copy failed, but the helpers still reference st->fn —
      // capture and fall through to the join before rethrowing.
      st->poison(std::current_exception());
    }
  }

  std::exception_ptr first;
  {
    std::unique_lock<std::mutex> lk(st->mu);
    st->cv.wait(lk, [&] {
      return st->done.load(std::memory_order_acquire) == st->total;
    });
    // Moved for the same reason as in parallel_for: the caller must end up
    // sole owner of the exception it rethrows.
    first = std::move(st->error);
  }
  if (first) std::rethrow_exception(first);
}

ThreadPool& ThreadPool::global() {
  static ThreadPool pool;
  return pool;
}

void parallel_chunks(index_t total, index_t chunk,
                     const std::function<void(index_t, index_t)>& body) {
  if (total <= 0) return;
  if (chunk <= 0) chunk = total;
  const index_t nch = (total + chunk - 1) / chunk;
  ThreadPool::global().parallel_for(0, nch, [&](index_t t) {
    body(t * chunk, std::min(total, (t + 1) * chunk));
  });
}

}  // namespace tdg
