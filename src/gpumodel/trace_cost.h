// Synthetic (shape-only) trace generators.
//
// The algorithms' kernel call sequences depend only on the problem sizes,
// never on the matrix values (Householder QR has no pivoting). These
// generators replay each algorithm's control flow and emit the identical
// op sequence the instrumented implementation would record — letting us
// price paper-scale problems (n = 49152, 19 GB matrices) that cannot be run
// on this machine. Fidelity is enforced by tests comparing the synthetic
// trace against the recorded trace of a real run at small sizes.
#pragma once

#include <vector>

#include "common/trace.h"
#include "la/matrix.h"

namespace tdg::gpumodel {

/// Trace of direct blocked tridiagonalization (lapack::sytrd).
std::vector<trace::Op> trace_sytrd(index_t n, index_t nb);

/// Trace of classic SBR (sbr::sy2sb).
std::vector<trace::Op> trace_sy2sb(index_t n, index_t b, bool square_syr2k,
                                   index_t syr2k_block = 0);

/// Trace of DBBR (sbr::dbbr, the paper's Algorithm 1).
std::vector<trace::Op> trace_dbbr(index_t n, index_t b, index_t k,
                                  bool square_syr2k, index_t syr2k_block = 0);

/// Trace of the conventional stage-1 back transformation applied to an
/// n x nc matrix (bt::apply_q1_conventional).
std::vector<trace::Op> trace_bt_conventional(index_t n, index_t b,
                                             index_t nc);

/// Trace of the recursive (Algorithm 3) back transformation.
std::vector<trace::Op> trace_bt_recursive(index_t n, index_t b, index_t nc);

/// Trace of the blocked (Figure 13) back transformation with group width kw.
std::vector<trace::Op> trace_bt_blocked(index_t n, index_t b, index_t kw,
                                        index_t nc);

/// Coarse trace of the stage-2 (bulge chasing) back transformation: the
/// reflectors are applied in blocked groups, one (2b x nc x b) GEMM per
/// group — n^2/(2 b^2) groups in total. (The real small-n implementation
/// applies reflectors one by one; on a GPU they are batched, and this is
/// the shape MAGMA's dormqr-stage batches into.)
std::vector<trace::Op> trace_q2_apply(index_t n, index_t b, index_t nc);

/// Trace of divide & conquer (stedc): per merge of its tree, one GEMM per
/// nonzero block of diag(Q1, Q2), batched across each tree level; no
/// deflation, i.e. the most stedc records for that tree.
std::vector<trace::Op> trace_stedc(index_t n, index_t smlsiz = 32);

}  // namespace tdg::gpumodel
