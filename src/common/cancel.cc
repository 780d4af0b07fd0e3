#include "common/cancel.h"

#include <limits>
#include <string>

#include "common/check.h"

namespace tdg::cancel {

namespace {
thread_local const Token* t_current = nullptr;
}  // namespace

double Token::remaining_ms() const noexcept {
  const long long d = deadline_us_.load(std::memory_order_acquire);
  if (d == 0) return std::numeric_limits<double>::infinity();
  return static_cast<double>(d - now_us()) / 1e3;
}

const Token* current() noexcept { return t_current; }

Scope::Scope(const Token* token) noexcept : prev_(t_current) {
  t_current = token;
}

Scope::~Scope() { t_current = prev_; }

void poll(const Token* token, const char* stage) {
  if (token == nullptr) return;
  if (token->cancelled()) {
    throw Error(ErrorCode::kCancelled,
                std::string("request cancelled at stage '") + stage + "'",
                {stage, -1, -1});
  }
  if (token->expired()) {
    throw Error(ErrorCode::kCancelled,
                std::string("request deadline exceeded at stage '") + stage +
                    "'",
                {stage, -1, -1});
  }
}

int stall_timeout_ms() {
  static const int v = static_cast<int>(
      env_int("TDG_SPIN_TIMEOUT_MS", std::numeric_limits<int>::min(),
                   std::numeric_limits<int>::max(), kDefaultStallTimeoutMs));
  return v;
}

}  // namespace tdg::cancel
