// Persistent worker-thread pool shared by every parallel kernel in the
// library (the CPU stand-in for a GPU's SM array).
//
// Design constraints, in order:
//
//  1. Determinism. parallel_for distributes a FIXED index grid whose shape
//     depends only on the problem (never on the thread count); every index
//     is executed by exactly one thread running the same serial code on a
//     disjoint output region. Results are therefore bitwise identical for
//     any worker count, including 1.
//  2. No per-call spawning. Workers are created once (lazily, grown on
//     demand up to kMaxThreads) and live for the process; a parallel_for is
//     a queue push + condition-variable wake, not a thread create/join.
//  3. Re-entrancy. A parallel_for issued from inside a pool task runs
//     inline on that worker — nested parallel kernels (a gemm inside a
//     syr2k block task) degrade to serial instead of deadlocking.
//  4. Exception safety. A task that throws poisons its parallel region:
//     the first std::exception_ptr is captured, remaining indices are
//     drained without executing, and the exception is rethrown at the join
//     point on the dispatching thread. A worker exception can therefore
//     never reach the worker loop (which would std::terminate) or leave
//     the caller blocked.
//
// Thread-count resolution: kernels ask current_threads(), which is the
// innermost active ThreadLimit on this thread, or default_threads()
// (TDG_THREADS env var, else hardware_concurrency). Drivers thread their
// `threads` option down by holding a ThreadLimit for the call's duration —
// thread_local, like trace::Scope, so concurrent algorithm runs don't
// interfere.
//
// Pool workers never carry a trace recorder (common/trace.h is
// thread-local): kernels record their ops on the dispatching thread before
// farming out the arithmetic, so traces are identical at every thread
// count.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace tdg {

using index_t = std::int64_t;

/// Hard cap on pool workers and ThreadLimit values.
inline constexpr int kMaxThreads = 64;

/// Threads used when no ThreadLimit is active: TDG_THREADS env var if set,
/// else std::thread::hardware_concurrency(), clamped to [1, kMaxThreads].
/// A TDG_THREADS that is not a positive integer throws Error(kInvalidInput).
int default_threads();

/// Effective thread budget for a kernel dispatched from this thread.
int current_threads();

/// True while executing inside a pool task (nested dispatch runs inline).
bool in_pool_task();

/// RAII thread-count override for the current thread (0 = keep current).
class ThreadLimit {
 public:
  explicit ThreadLimit(int n);
  ~ThreadLimit();
  ThreadLimit(const ThreadLimit&) = delete;
  ThreadLimit& operator=(const ThreadLimit&) = delete;

 private:
  int prev_;
};

class ThreadPool {
 public:
  /// Pool with `workers` resident threads (0 = default_threads() - 1; the
  /// dispatching thread always participates, so N-way parallelism needs
  /// N - 1 workers).
  explicit ThreadPool(int workers = 0);
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int workers() const;

  /// Grow the resident worker set to at least n (capped at kMaxThreads).
  void ensure_workers(int n);

  /// Run fn(i) for every i in [begin, end), distributed over up to
  /// current_threads() threads (caller included); blocks until all indices
  /// completed. Calls from inside a pool task, and calls with a thread
  /// budget of 1, run inline. If any fn(i) throws, the not-yet-claimed
  /// indices are skipped and the first exception is rethrown here after
  /// every worker has left the region.
  void parallel_for(index_t begin, index_t end,
                    const std::function<void(index_t)>& fn);

  /// Run `copies` instances of fn concurrently (fn(0) on the caller) and
  /// block until all return. Unlike parallel_for the instances are peers
  /// that may synchronise with each other (the bulge-chase pipeline);
  /// copies beyond the resident worker count queue and start as workers
  /// free up, which the chase's ordered sweep-claiming tolerates. The first
  /// exception thrown by any copy is rethrown here after all copies
  /// returned — peers that synchronise with each other must additionally
  /// poison their own gates (see bulge_chase_parallel.cc) so no copy blocks
  /// forever on a dead peer.
  void run_concurrent(int copies, const std::function<void(int)>& fn);

  /// Fire-and-forget: enqueue one task for any worker, no join. The caller
  /// owns completion tracking (the task-graph runtime's ready-queue drain);
  /// the task must not throw — an escaped exception would reach the worker
  /// loop and std::terminate, so posters wrap bodies in their own capture.
  void post(std::function<void()> fn);

  /// The process-wide pool used by the BLAS-3 engine and the bulge chase.
  static ThreadPool& global();

 private:
  /// Queue entry: the task plus its enqueue timestamp (stamped only while
  /// metrics are armed; 0 otherwise) so the obs layer can histogram
  /// queue-wait without a clock read on the disarmed path.
  struct Job {
    std::function<void()> fn;
    double enq_us = 0.0;
  };

  void worker_loop();
  void enqueue_locked(std::function<void()> fn);

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::vector<std::thread> threads_;
  std::deque<Job> queue_;
  bool stop_ = false;
};

/// Split [0, total) into fixed `chunk`-sized ranges and run body(lo, hi)
/// for each on the global pool. The grid depends only on (total, chunk),
/// so results are thread-count invariant.
void parallel_chunks(index_t total, index_t chunk,
                     const std::function<void(index_t, index_t)>& body);

}  // namespace tdg
