// Error handling for the tdg library.
//
// All public entry points validate their arguments with TDG_CHECK, which
// throws tdg::Error (derived from std::runtime_error) carrying the failed
// condition and source location. Internal invariants use TDG_ASSERT, which
// compiles to nothing in release builds unless TDG_ENABLE_ASSERTS is set.
//
// Every Error carries an ErrorCode so callers can branch on the failure
// class (retry a kNoConvergence with a different solver, surface a
// kPipelineStall with its coordinates, treat kCacheIo as a soft
// degradation) and an ErrorContext with machine-readable coordinates of the
// failure — which pipeline stage threw, at which index (sweep, eigenvalue,
// row — stage-defined), after how many iterations. See
// docs/ALGORITHMS.md §11 for the taxonomy and the recovery chains built on
// top of it.
#pragma once

#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>

namespace tdg {

/// Failure classes. Recovery policy branches on these, never on message
/// text.
enum class ErrorCode {
  kUnknown = 0,    // legacy untyped throw
  kInvalidInput,   // precondition violation (TDG_CHECK, NaN/Inf screen)
  kNoConvergence,  // an iterative solver gave up (steqr, secular)
  kPipelineStall,  // a progress gate was poisoned or hit its spin deadline
  kCacheIo,        // plan-cache file I/O or locking failure
  kFaultInjected,  // tdg::fault fired at a registered site
  kCancelled,      // cooperative cancellation / deadline (common/cancel.h)
  kOverloaded,     // serve-layer admission reject or circuit breaker shed
};

const char* to_string(ErrorCode code);

/// Machine-readable coordinates of a failure. `stage` must point at a
/// string literal (errors cross thread joins; no ownership is taken).
struct ErrorContext {
  const char* stage = "";       // e.g. "steqr", "bulge_chase", "secular"
  std::int64_t index = -1;      // stage-defined: eigenvalue / sweep / row
  std::int64_t iteration = -1;  // iteration count or secondary coordinate
};

/// Exception thrown on any precondition or numerical-state violation.
class Error : public std::runtime_error {
 public:
  explicit Error(const std::string& what) : std::runtime_error(what) {}
  Error(ErrorCode code, const std::string& what, ErrorContext ctx = {})
      : std::runtime_error(what), code_(code), ctx_(ctx) {}

  ErrorCode code() const noexcept { return code_; }
  const ErrorContext& context() const noexcept { return ctx_; }

 private:
  ErrorCode code_ = ErrorCode::kUnknown;
  ErrorContext ctx_{};
};

/// All of `s` as a base-10 integer in [lo, hi]; nullopt for anything else
/// ("", "abc", "2s", "1e3", an overflow).
std::optional<long long> parse_int(std::string_view s, long long lo,
                                   long long hi);

/// Integer environment knob `name` in [lo, hi], or `fallback` when unset.
/// Any other value throws Error(kInvalidInput) naming the variable: a
/// misspelt knob never falls back silently.
long long env_int(const char* name, long long lo, long long hi,
                  long long fallback);

namespace detail {
[[noreturn]] void check_failed(const char* cond, const char* file, int line,
                               const std::string& msg);
}  // namespace detail

}  // namespace tdg

/// Validate a user-facing precondition; throws tdg::Error with
/// ErrorCode::kInvalidInput on failure.
#define TDG_CHECK(cond, msg)                                            \
  do {                                                                  \
    if (!(cond)) {                                                      \
      ::tdg::detail::check_failed(#cond, __FILE__, __LINE__, (msg));    \
    }                                                                   \
  } while (0)

#if defined(TDG_ENABLE_ASSERTS)
#define TDG_ASSERT(cond) TDG_CHECK(cond, "internal invariant violated")
#else
#define TDG_ASSERT(cond) ((void)0)
#endif
