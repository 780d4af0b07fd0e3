// Blocked stage-2 (bulge chasing) back transformation — the paper's stated
// future work: "optimizing this back transformation process".
//
// Within one sweep, the chase reflectors act on pairwise-disjoint row
// ranges, so they commute; across g consecutive sweeps the reflectors
// covering the same row window form a compact-WY block of width <= g whose
// application is a pair of GEMMs instead of 2g rank-1 updates. This is the
// "diamond tile" batching MAGMA's dormqr stage uses for sb2st, and it turns
// the O(n^2/b) rank-1 larf calls into O(n^2/(b g)) block applications with
// inner dimension g.
//
// Results agree with bc::apply_q2_left to roundoff (within-sweep reflectors
// commute exactly, so only the summation grouping differs).
#pragma once

#include "bc/bulge_chase.h"

namespace tdg::bt {

/// C <- Q2 * C using compact-WY blocks of up to `group` consecutive sweeps,
/// in the scalar type of the log (double or float). Equivalent to
/// bc::apply_q2_left (which is the group = 1 special case).
template <class T>
void apply_q2_left_blocked(const bc::ChaseLogT<T>& log, MatrixViewT<T> c,
                           index_t group = 8);

}  // namespace tdg::bt
