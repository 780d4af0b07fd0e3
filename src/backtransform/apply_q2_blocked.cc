#include "backtransform/apply_q2_blocked.h"

#include <algorithm>
#include <vector>

#include "common/cancel.h"
#include "common/thread_pool.h"
#include "common/trace.h"
#include "obs/obs.h"

namespace tdg::bt {

namespace {

// Column-block width for the parallel application. The columns of C are
// fully independent through every sweep, so each pool task owns a fixed
// column range end to end; per-column arithmetic is untouched, making the
// result bitwise identical at any thread count.
constexpr index_t kColChunk = 32;

// Apply all sweeps (reverse order, chunked) to the column slice `c`.
template <class T>
void apply_columns(const bc::ChaseLogT<T>& log, MatrixViewT<T> c,
                   index_t group, T* w) {
  const index_t nc = c.cols;
  // Sweeps in reverse; within a sweep the reflectors have pairwise-disjoint
  // row ranges, so a chunk of `group` consecutive steps is exactly
  // I - V diag(tau) V^T and its application needs only one pass:
  //   W = V^T C  (chunk of dot products over disjoint row bands)
  //   C -= V diag(tau) W.
  for (auto sweep = log.sweeps.rbegin(); sweep != log.sweeps.rend(); ++sweep) {
    const auto& steps = sweep->steps;
    index_t hi = static_cast<index_t>(steps.size());
    while (hi > 0) {
      const index_t lo = std::max<index_t>(0, hi - group);
      const index_t q = hi - lo;

      // W(r, :) = v_r^T C over the step's row band.
      for (index_t r = 0; r < q; ++r) {
        const bc::ReflectorT<T>& st = steps[static_cast<std::size_t>(lo + r)];
        T* wr = w + static_cast<std::size_t>(r) * nc;
        if (st.tau == T(0)) {
          std::fill(wr, wr + nc, T(0));
          continue;
        }
        for (index_t j = 0; j < nc; ++j) {
          T s = c(st.row0, j);  // v(0) = 1 implicit
          for (index_t i = 1; i < st.len; ++i) {
            s += sweep->vpool[static_cast<std::size_t>(st.voff + i - 1)] *
                 c(st.row0 + i, j);
          }
          wr[j] = s;
        }
      }
      // C -= v_r * (tau_r * W(r, :)) for each reflector of the chunk.
      for (index_t r = 0; r < q; ++r) {
        const bc::ReflectorT<T>& st = steps[static_cast<std::size_t>(lo + r)];
        if (st.tau == T(0)) continue;
        const T* wr = w + static_cast<std::size_t>(r) * nc;
        for (index_t j = 0; j < nc; ++j) {
          const T tw = st.tau * wr[j];
          c(st.row0, j) -= tw;
          for (index_t i = 1; i < st.len; ++i) {
            c(st.row0 + i, j) -=
                tw * sweep->vpool[static_cast<std::size_t>(st.voff + i - 1)];
          }
        }
      }
      hi = lo;
    }
  }
}

}  // namespace

template <class T>
void apply_q2_left_blocked(const bc::ChaseLogT<T>& log, MatrixViewT<T> c,
                           index_t group) {
  TDG_CHECK(c.rows == log.n, "apply_q2_left_blocked: row mismatch");
  TDG_CHECK(group >= 1, "apply_q2_left_blocked: group must be >= 1");
  const index_t nc = c.cols;
  const index_t b = std::max<index_t>(log.b, 1);

  cancel::poll("backtransform_panel");

  obs::Span span("apply_q2", obs::kStage);
  span.attr("n", log.n);
  span.attr("cols", nc);
  span.attr("group", group);

  // Record the chunked-application trace up front on this thread (pool
  // workers are untraced): one batched kernel per chunk, exactly what a GPU
  // would launch. On a GPU each chunk is one batched kernel instead of
  // 2*group rank-1 launches; the trace records it accordingly.
  for (auto sweep = log.sweeps.rbegin(); sweep != log.sweeps.rend(); ++sweep) {
    index_t hi = static_cast<index_t>(sweep->steps.size());
    while (hi > 0) {
      const index_t lo = std::max<index_t>(0, hi - group);
      trace::record({trace::OpKind::kBatchedGemm, 2 * b, nc, 1, hi - lo});
      hi = lo;
    }
  }
  if (nc == 0) return;

  parallel_chunks(nc, kColChunk, [&](index_t jlo, index_t jhi) {
    std::vector<T> w(static_cast<std::size_t>(group) *
                     static_cast<std::size_t>(jhi - jlo));
    apply_columns(log, c.block(0, jlo, c.rows, jhi - jlo), group, w.data());
  });
}

template void apply_q2_left_blocked<double>(const bc::ChaseLog&, MatrixView,
                                            index_t);
template void apply_q2_left_blocked<float>(const bc::ChaseLogT<float>&,
                                           MatrixViewT<float>, index_t);

}  // namespace tdg::bt
