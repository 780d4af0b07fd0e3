// Shared helpers for the figure/table reproduction benches.
//
// Every bench prints (a) the paper's reported numbers where the paper gives
// them, (b) our measured CPU numbers at laptop scale, and (c) device-model
// projections at paper scale. EXPERIMENTS.md collects the comparisons.
#pragma once

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <initializer_list>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "la/matrix.h"

// Source revision the binary was built from (stamped by CMake); "unknown"
// when building outside a git checkout.
#ifndef TDG_GIT_REV
#define TDG_GIT_REV "unknown"
#endif

namespace tdg::benchutil {

/// Version of the "JSON {...}" line schema shared by all benches. Bump when
/// a field changes meaning; adding fields is backward compatible.
inline constexpr int kJsonSchemaVersion = 1;

/// Builder for the machine-scrapable "JSON {...}" stdout lines. Every line
/// carries schema_version, the git revision, and the bench name, so the
/// perf trajectory can join measurements across commits without guessing:
///
///   benchutil::JsonLine("blas3_scaling")
///       .field("op", "gemm").field("n", n).field("seconds", s).emit();
///
/// field() escapes string values; raw() splices pre-rendered JSON (arrays,
/// nested objects) verbatim.
class JsonLine {
 public:
  explicit JsonLine(const std::string& bench) {
    os_ << "JSON {\"schema_version\":" << kJsonSchemaVersion
        << ",\"git_rev\":\"" << TDG_GIT_REV << "\"";
    field("bench", bench);
  }

  JsonLine& field(const std::string& key, const std::string& v) {
    sep(key);
    os_ << '"';
    for (const char c : v) {
      if (c == '"' || c == '\\') os_ << '\\';
      os_ << c;
    }
    os_ << '"';
    return *this;
  }
  JsonLine& field(const std::string& key, const char* v) {
    return field(key, std::string(v));
  }
  JsonLine& field(const std::string& key, double v) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.6g", v);
    sep(key);
    os_ << buf;
    return *this;
  }
  JsonLine& field(const std::string& key, long long v) {
    sep(key);
    os_ << v;
    return *this;
  }
  JsonLine& field(const std::string& key, index_t v) {
    return field(key, static_cast<long long>(v));
  }
  JsonLine& field(const std::string& key, int v) {
    return field(key, static_cast<long long>(v));
  }
  JsonLine& field(const std::string& key, bool v) {
    sep(key);
    os_ << (v ? "true" : "false");
    return *this;
  }
  /// Splice `json` (already valid JSON: array, object, number) unescaped.
  JsonLine& raw(const std::string& key, const std::string& json) {
    sep(key);
    os_ << json;
    return *this;
  }

  void emit() { std::printf("%s}\n", os_.str().c_str()); }

 private:
  void sep(const std::string& key) { os_ << ",\"" << key << "\":"; }
  std::ostringstream os_;
};

inline void header(const std::string& title) {
  std::printf("\n==== %s ====\n", title.c_str());
}

inline void rule() {
  std::printf("--------------------------------------------------------------------------\n");
}

/// Flop counts used throughout the paper's evaluation.
inline double tridiag_flops(index_t n) {
  // The standard 4/3 n^3 credit used when quoting sytrd TFLOPs.
  const double nd = static_cast<double>(n);
  return 4.0 / 3.0 * nd * nd * nd;
}

inline double bc_flops(index_t n, index_t b) {
  // ~6 b n^2: per sweep ~(n-i)/b block steps of ~12 b^2 flops.
  return 6.0 * static_cast<double>(b) * static_cast<double>(n) *
         static_cast<double>(n);
}

inline double syr2k_flops(index_t n, index_t k) {
  return 2.0 * static_cast<double>(n) * static_cast<double>(n) *
         static_cast<double>(k);
}

/// Strict parser for the benches' "--name=value" flags. Each bench names
/// every flag it accepts; an argument that is not one of them, a repeated
/// flag or a malformed value prints a message and exits with code 2, so a
/// typo never silently benchmarks a default:
///
///   const benchutil::Args args(argc, argv, {"n_max", "reps"});
///   const index_t n_max = args.get_int("n_max", 2048);
class Args {
 public:
  Args(int argc, char** argv, std::initializer_list<std::string> accepted)
      : prog_(argc > 0 ? argv[0] : "bench"), accepted_(accepted) {
    for (int i = 1; i < argc; ++i) {
      const std::string a = argv[i];
      const std::size_t eq = a.find('=');
      if (a.rfind("--", 0) != 0 || eq == std::string::npos ||
          !accepts(a.substr(2, eq - 2))) {
        fail("unknown flag '" + a + "'");
      }
      if (!values_.emplace(a.substr(2, eq - 2), a.substr(eq + 1)).second) {
        fail("repeated flag '" + a.substr(0, eq) + "'");
      }
    }
  }

  /// Integer value of --name, or fallback when absent.
  index_t get_int(const std::string& name, index_t fallback) const {
    const std::string* v = find(name);
    if (v == nullptr) return fallback;
    char* end = nullptr;
    errno = 0;
    const long long x = std::strtoll(v->c_str(), &end, 10);
    if (v->empty() || *end != '\0' || errno == ERANGE) {
      fail("flag '--" + name + "' needs an integer, got '" + *v + "'");
    }
    return static_cast<index_t>(x);
  }

  /// String value of --name, or fallback when absent.
  std::string get_str(const std::string& name,
                      const std::string& fallback) const {
    const std::string* v = find(name);
    return v == nullptr ? fallback : *v;
  }

 private:
  bool accepts(const std::string& name) const {
    return std::find(accepted_.begin(), accepted_.end(), name) !=
           accepted_.end();
  }

  const std::string* find(const std::string& name) const {
    if (!accepts(name)) fail("flag '--" + name + "' is read but not declared");
    const auto it = values_.find(name);
    return it == values_.end() ? nullptr : &it->second;
  }

  [[noreturn]] void fail(const std::string& msg) const {
    std::fprintf(stderr, "%s: %s; accepted flags:", prog_.c_str(),
                 msg.c_str());
    for (const std::string& a : accepted_) {
      std::fprintf(stderr, " --%s", a.c_str());
    }
    std::fprintf(stderr, "\n");
    std::exit(2);
  }

  std::string prog_;
  std::vector<std::string> accepted_;
  std::map<std::string, std::string> values_;
};

}  // namespace tdg::benchutil
