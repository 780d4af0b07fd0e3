// Cooperative cancellation and deadlines — the robustness primitive the
// serve layer (src/serve) threads through the solver pipeline.
//
// A cancel::Token is a tiny shared flag + absolute deadline that a caller
// owns and a running solve observes. Propagation is cooperative and
// phase-granular: the drivers install the current request's token in a
// thread-local Scope (like trace::Scope / ThreadLimit), and the pipeline
// polls it at its natural progress boundaries — the sy2sb / DBBR outer
// block loop, each bulge-chase sweep claim, each D&C merge node, and the
// back-transform panel loop. A poll that observes cancellation (manual or
// deadline) throws Error(ErrorCode::kCancelled), which unwinds through the
// same exception-safe join/poison machinery every other typed failure uses:
// pool regions rethrow at the join, chase gates poison, task graphs cancel
// their unstarted nodes. Nothing is left half-locked, so the pool and the
// plan cache stay reusable — a follow-up request on the same process
// produces bitwise-identical results to a fresh one.
//
// Cost model (the tdg::fault contract): with no token installed a poll is
// one thread-local pointer load + null test. With a token installed it adds
// one relaxed atomic load, plus one steady_clock read only when a deadline
// is set. Polls sit at phase boundaries (thousands of flops apart at
// minimum), so the armed cost is noise.
//
// The token is intentionally one-way: once cancelled or expired it stays
// so; tokens are not reusable across requests (the serve layer allocates
// one per request). Pool workers do not inherit the dispatcher's Scope —
// code that fans out and must stay cancellable captures current() before
// dispatch and polls the captured pointer (see bulge_chase_parallel.cc).
#pragma once

#include <atomic>
#include <chrono>

namespace tdg::cancel {

/// Shared cancellation state for one request. The owner calls cancel()
/// and/or set_deadline*(); the solve polls. All methods are thread-safe.
class Token {
 public:
  Token() = default;
  Token(const Token&) = delete;
  Token& operator=(const Token&) = delete;

  /// Request cancellation. Irreversible.
  void cancel() noexcept { cancelled_.store(true, std::memory_order_release); }

  /// Absolute deadline; polls past this instant observe expiry.
  void set_deadline(std::chrono::steady_clock::time_point tp) noexcept {
    deadline_us_.store(
        std::chrono::duration_cast<std::chrono::microseconds>(
            tp.time_since_epoch())
            .count(),
        std::memory_order_release);
  }

  /// Deadline `ms` milliseconds from now (<= 0 expires immediately at the
  /// next poll).
  void set_deadline_in_ms(double ms) noexcept {
    set_deadline(std::chrono::steady_clock::now() +
                 std::chrono::microseconds(static_cast<long long>(ms * 1e3)));
  }

  bool cancelled() const noexcept {
    return cancelled_.load(std::memory_order_acquire);
  }

  bool expired() const noexcept {
    const long long d = deadline_us_.load(std::memory_order_acquire);
    return d != 0 && now_us() >= d;
  }

  /// True when a poll against this token would throw.
  bool stop_requested() const noexcept { return cancelled() || expired(); }

  /// Milliseconds until the deadline (negative once past); +infinity when
  /// no deadline is set.
  double remaining_ms() const noexcept;

 private:
  static long long now_us() noexcept {
    return std::chrono::duration_cast<std::chrono::microseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }

  std::atomic<bool> cancelled_{false};
  std::atomic<long long> deadline_us_{0};  // 0 = no deadline
};

/// The token installed on this thread (nullptr when none). Pool workers
/// start with none — capture before fanning out.
const Token* current() noexcept;

/// RAII thread-local installation of `token` (may be nullptr = "no token",
/// which shadows any outer scope — batch workers run each problem under
/// exactly its own token). Restores the previous token on destruction.
class Scope {
 public:
  explicit Scope(const Token* token) noexcept;
  ~Scope();
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  const Token* prev_;
};

/// Throw Error(ErrorCode::kCancelled) with `stage` context when `token`
/// (may be nullptr) has been cancelled or its deadline has passed.
/// `stage` must be a string literal (it rides in the ErrorContext).
void poll(const Token* token, const char* stage);

/// Poll the thread-local current() token. The disarmed cost is one
/// thread-local load + null test.
inline void poll(const char* stage) {
  const Token* t = current();
  if (t != nullptr) poll(t, stage);
}

/// The process-wide stall deadline in milliseconds (TDG_SPIN_TIMEOUT_MS,
/// read once; <= 0 disables; a non-integer throws Error(kInvalidInput), so
/// callers read it before they start any worker). Shared by the bulge-chase
/// spin gates and the task-graph drain watchdog, so one knob bounds every
/// wait in the library.
int stall_timeout_ms();

/// Default for stall_timeout_ms() when the environment does not override:
/// a healthy pipeline advances its gates every few microseconds, so a
/// minute of zero progress is a wedge, not a slow run.
inline constexpr int kDefaultStallTimeoutMs = 60000;

}  // namespace tdg::cancel
