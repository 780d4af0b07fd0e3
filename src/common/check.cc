#include "common/check.h"

#include <charconv>
#include <cstdlib>
#include <sstream>

namespace tdg {

const char* to_string(ErrorCode code) {
  switch (code) {
    case ErrorCode::kUnknown: return "unknown";
    case ErrorCode::kInvalidInput: return "invalid_input";
    case ErrorCode::kNoConvergence: return "no_convergence";
    case ErrorCode::kPipelineStall: return "pipeline_stall";
    case ErrorCode::kCacheIo: return "cache_io";
    case ErrorCode::kFaultInjected: return "fault_injected";
    case ErrorCode::kCancelled: return "cancelled";
    case ErrorCode::kOverloaded: return "overloaded";
  }
  return "unknown";
}

std::optional<long long> parse_int(std::string_view s, long long lo,
                                   long long hi) {
  long long v = 0;
  const char* end = s.data() + s.size();
  const auto [ptr, ec] = std::from_chars(s.data(), end, v);
  if (s.empty() || ec != std::errc() || ptr != end || v < lo || v > hi) {
    return std::nullopt;
  }
  return v;
}

long long env_int(const char* name, long long lo, long long hi,
                  long long fallback) {
  const char* value = std::getenv(name);
  if (value == nullptr) return fallback;
  if (const std::optional<long long> v = parse_int(value, lo, hi)) return *v;
  throw Error(ErrorCode::kInvalidInput,
              std::string(name) + "='" + value + "': expected an integer in [" +
                  std::to_string(lo) + ", " + std::to_string(hi) + "]",
              {"env", -1, -1});
}

namespace detail {

void check_failed(const char* cond, const char* file, int line,
                  const std::string& msg) {
  std::ostringstream os;
  os << "tdg check failed: (" << cond << ") at " << file << ":" << line;
  if (!msg.empty()) os << " — " << msg;
  throw Error(ErrorCode::kInvalidInput, os.str());
}

}  // namespace detail
}  // namespace tdg
