// FP32 spellings of the band reduction and its Q1 application, kept for
// the benchmark's mixed-precision replay (perfbench/src/evd_workloads.cc).
// Each forwards onto the generic stage the mixed-precision engine runs.
#pragma once

#include "backtransform/backtransform.h"
#include "la/matrix32.h"
#include "plan/plan.h"
#include "sbr/sbr.h"

namespace tdg::sbr {

using BandFactor32 = BandFactorT<float>;

inline BandFactor32 dbbr_f(MatrixViewF a, index_t b, index_t k,
                           bool want_factors) {
  return dbbr(a, {.b = b, .k = k, .want_factors = want_factors});
}

/// Q1 C at the planner's default group width.
inline void apply_q1_f(const BandFactor32& f, MatrixViewF c) {
  bt::apply_q1_blocked(f, plan::default_plan({f.n}).bt_kw, c);
}

}  // namespace tdg::sbr
