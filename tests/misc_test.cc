// Coverage for the support layer: PRNG determinism & statistics, symm_lower,
// timers, the check machinery, and strict integer environment knobs.

#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/check.h"
#include "common/rng.h"
#include "common/task_graph.h"
#include "common/timer.h"
#include "la/blas.h"
#include "band/sym_band.h"
#include "eig/drivers.h"
#include "la/generate.h"

namespace tdg {
namespace {

TEST(Rng, DeterministicForEqualSeeds) {
  Rng a(123), b(123), c(124);
  bool any_diff = false;
  for (int i = 0; i < 100; ++i) {
    const auto va = a.next_u64();
    EXPECT_EQ(va, b.next_u64());
    if (va != c.next_u64()) any_diff = true;
  }
  EXPECT_TRUE(any_diff);
}

TEST(Rng, UniformRangeAndMoments) {
  Rng rng(7);
  double sum = 0.0, sum2 = 0.0;
  constexpr int kN = 200000;
  for (int i = 0; i < kN; ++i) {
    const double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
    sum2 += u * u;
  }
  const double mean = sum / kN;
  const double var = sum2 / kN - mean * mean;
  EXPECT_NEAR(mean, 0.5, 5e-3);
  EXPECT_NEAR(var, 1.0 / 12.0, 5e-3);
}

TEST(Rng, NormalMoments) {
  Rng rng(8);
  double sum = 0.0, sum2 = 0.0, sum4 = 0.0;
  constexpr int kN = 200000;
  for (int i = 0; i < kN; ++i) {
    const double x = rng.normal();
    sum += x;
    sum2 += x * x;
    sum4 += x * x * x * x;
  }
  EXPECT_NEAR(sum / kN, 0.0, 2e-2);
  EXPECT_NEAR(sum2 / kN, 1.0, 3e-2);
  EXPECT_NEAR(sum4 / kN, 3.0, 2e-1);  // Gaussian kurtosis
}

TEST(Rng, BoundedStaysInRange) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.bounded(17), 17u);
  }
  EXPECT_EQ(rng.bounded(1), 0u);
}

TEST(SymmLower, MatchesGemmOnSymmetrisedMatrix) {
  Rng rng(10);
  const index_t n = 23, w = 6;
  const Matrix a = random_symmetric(n, rng);
  Matrix poisoned = a;
  for (index_t j = 0; j < n; ++j) {
    for (index_t i = 0; i < j; ++i) poisoned(i, j) = 1e9;  // must be ignored
  }
  const Matrix b = random_matrix(n, w, rng);
  Matrix c1 = random_matrix(n, w, rng);
  Matrix c2 = c1;

  la::symm_lower(1.3, poisoned.view(), b.view(), -0.4, c1.view());
  la::gemm(Trans::kNo, Trans::kNo, 1.3, a.view(), b.view(), -0.4, c2.view());
  EXPECT_LT(max_abs_diff(c1.view(), c2.view()), 1e-10);
}

TEST(SymmLower, BetaZeroIgnoresInitialContent) {
  Rng rng(11);
  const index_t n = 9, w = 3;
  const Matrix a = random_symmetric(n, rng);
  const Matrix b = random_matrix(n, w, rng);
  Matrix c1(n, w);
  fill(c1.view(), std::nan(""));
  la::symm_lower(1.0, a.view(), b.view(), 0.0, c1.view());
  for (index_t j = 0; j < w; ++j) {
    for (index_t i = 0; i < n; ++i) EXPECT_TRUE(std::isfinite(c1(i, j)));
  }
}

TEST(Timer, MonotoneNonNegative) {
  WallTimer t;
  const double a = t.seconds();
  double b = 0.0;
  // Burn a few cycles.
  volatile double x = 1.0;
  for (int i = 0; i < 100000; ++i) x = x * 1.0000001;
  b = t.seconds();
  EXPECT_GE(a, 0.0);
  EXPECT_GE(b, a);
  t.reset();
  EXPECT_LE(t.seconds(), b + 1.0);
}

TEST(Check, ThrowsWithContext) {
  try {
    TDG_CHECK(1 == 2, "custom message");
    FAIL() << "expected throw";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("1 == 2"), std::string::npos);
    EXPECT_NE(what.find("custom message"), std::string::npos);
  }
}

TEST(Generate, BandGeneratorRespectsBandwidth) {
  Rng rng(12);
  const Matrix a = random_symmetric_band(30, 4, rng);
  EXPECT_EQ(off_band_max(a.view(), 4), 0.0);
  EXPECT_GT(off_band_max(a.view(), 3), 0.0);
  EXPECT_LT(max_abs_diff(a.view(), transposed(a.view()).view()), 1e-16);
}

TEST(EnvInt, ParsesOnlyWholeInRangeIntegers) {
  constexpr long long kMin = std::numeric_limits<long long>::min();
  constexpr long long kMax = std::numeric_limits<long long>::max();
  EXPECT_EQ(parse_int("0", -5, 5), 0);
  EXPECT_EQ(parse_int("-3", -5, 5), -3);
  EXPECT_EQ(parse_int("2000", 1, kMax), 2000);
  EXPECT_EQ(parse_int("9223372036854775807", kMin, kMax), kMax);
  for (const char* bad : {"", "abc", "2s", "1e3", " 4", "4 ", "+4", "0x10",
                          "9223372036854775808", "-9223372036854775809"}) {
    EXPECT_FALSE(parse_int(bad, kMin, kMax)) << "'" << bad << "'";
  }
  EXPECT_FALSE(parse_int("6", -5, 5));   // above the range
  EXPECT_FALSE(parse_int("-6", -5, 5));  // below it
}

TEST(EnvInt, BadValueRaisesInvalidInputNamingTheVariable) {
  const char* name = "TDG_TEST_INT_KNOB";
  ::unsetenv(name);
  EXPECT_EQ(env_int(name, 0, 100, 7), 7);  // unset: the default
  ::setenv(name, "42", 1);
  EXPECT_EQ(env_int(name, 0, 100, 7), 42);
  for (const char* bad : {"", "abc", "2s", "1e3", "101"}) {
    ::setenv(name, bad, 1);
    try {
      (void)env_int(name, 0, 100, 7);
      ADD_FAILURE() << "no throw for '" << bad << "'";
    } catch (const Error& e) {
      EXPECT_EQ(e.code(), ErrorCode::kInvalidInput);
      EXPECT_NE(std::string(e.what()).find(name), std::string::npos);
    }
  }
  ::unsetenv(name);
}

// Sets an environment variable for the scope (a re-executed test process
// inherits it) and restores the previous value.
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    if (const char* prev = std::getenv(name)) prev_ = prev;
    ::setenv(name, value, 1);
  }
  ~ScopedEnv() {
    if (prev_) {
      ::setenv(name_, prev_->c_str(), 1);
    } else {
      ::unsetenv(name_);
    }
  }

 private:
  const char* name_;
  std::optional<std::string> prev_;
};

// A knob read before main() has no caller to raise to: a malformed
// TDG_FAULT_INJECT stops a fresh process of this binary, with status 2,
// before any test runs.
TEST(EnvInt, MalformedFaultSpecExitsBeforeMain) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";  // re-executes
  const ScopedEnv spec("TDG_FAULT_INJECT", "serve_request:x");
  EXPECT_EXIT(std::exit(0), ::testing::ExitedWithCode(2),
              "TDG_FAULT_INJECT='serve_request:x'");
}

// A knob read inside a solve raises to the solve's caller. With a thread
// budget of 4 the first reader of the spin timeout is a task graph (DBBR's,
// inside eigh), so the error must leave run() before it posts a node: a
// node still running after the caller's frame unwound would use freed
// buffers (the sanitizer builds run this too).
TEST(EnvInt, MalformedSpinTimeoutFailsTheSolveCleanly) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";  // re-executes
  const ScopedEnv timeout("TDG_SPIN_TIMEOUT_MS", "2s");
  const ScopedEnv threads("TDG_THREADS", "4");
  EXPECT_EXIT(
      {
        std::atomic<int> ran{0};
        graph::TaskGraph g;
        for (int i = 0; i < 8; ++i) {
          g.add("leaf", graph::NodeClass::kPooled, [&ran] { ++ran; });
        }
        try {
          (void)g.run();
          std::exit(1);
        } catch (const Error&) {
        }
        Rng rng(256);
        const Matrix a = random_symmetric(256, rng);
        try {
          (void)eig::eigh(a.view());
        } catch (const Error& e) {
          std::fprintf(stderr, "%s: %s; nodes run: %d\n", to_string(e.code()),
                       e.what(), ran.load());
          std::exit(3);
        }
        std::exit(1);
      },
      ::testing::ExitedWithCode(3),
      "invalid_input: TDG_SPIN_TIMEOUT_MS='2s'.*; nodes run: 0");
}

}  // namespace
}  // namespace tdg
