// Double-blocking band reduction — the paper's Algorithm 1.
//
// Inner block size b (the target bandwidth) governs the panel QRs; outer
// block size k (opts.k, a multiple of b) governs how many reflector panels
// are accumulated in the ZY representation (Y, Z) before the trailing matrix
// is touched. Between trailing updates, each upcoming panel is refreshed
// just-in-time with the accumulated (Y, Z) — that is the paper's line 8-12,
// two skinny GEMMs per panel. The single trailing syr2k per outer block then
// has inner dimension k >> b, the shape that saturates an H100 (Table 1),
// while the bandwidth handed to bulge chasing stays small (e.g. b = 32).
//
// Internal state convention per outer block: processed panel columns hold
// their final band values (diag block via the JIT update, R via the panel
// QR, zeros below); everything at column >= the next panel is *stale* (the
// values from the start of the outer block). A panel's A_cur * V product is
// therefore computed from the stale trailing matrix plus the accumulated
// correction: A_cur = A_stale - Y Z^T - Z Y^T.
//
// Two schedules over the same arithmetic:
//
//  * Barrier (opts.lookahead == 0): panels, then one trailing syr2k, then
//    the next outer block — each phase joins before the next starts.
//  * Look-ahead DAG (opts.lookahead >= 1): the outer loop is expressed as a
//    task graph (common/task_graph.h). Per outer step s the nodes are
//      PC_s   (driver) the full panel chain of the block,
//      T_s    (pooled) one node per square tile of the trailing syr2k —
//             mutually independent, so the per-anti-diagonal barriers of
//             syr2k_lower_square disappear,
//      QR_s+1 (pooled) the *first* panel QR of the next block, depending
//             only on the tile-columns of T_s it actually reads — this is
//             the look-ahead: it overlaps the bulk of step s's tiles,
//      FIX    (driver) the final partial-panel fixup, after the last tiles.
//    The tile grid, kernels, and inputs are identical to the barrier path,
//    so results are bitwise identical for any schedule and thread count.

#include <algorithm>
#include <utility>
#include <vector>

#include "common/cancel.h"
#include "common/task_graph.h"
#include "common/thread_pool.h"
#include "common/trace.h"
#include "obs/obs.h"
#include "sbr/internal.h"
#include "sbr/sbr.h"

namespace tdg::sbr {

namespace {

template <class T>
void trailing_syr2k(const BandReductionOptions& opts, ConstMatrixViewT<T> v,
                    ConstMatrixViewT<T> w, MatrixViewT<T> atail) {
  if (opts.use_square_syr2k) {
    la::syr2k_lower_square(-1.0, v, w, 1.0, atail, opts.syr2k_block);
  } else {
    la::syr2k_lower(-1.0, v, w, 1.0, atail);
  }
}

/// One width-w panel at column j of the current outer block: JIT refresh
/// with the block's accumulated (Y, Z), panel QR (skipped when `pre` hands
/// in a prefactored WY — the DAG path's look-ahead QR, which also already
/// zeroed below R), A_cur V via symm + corrections, W, accumulation into
/// (y, z), and the panel record. Returns the new accumulated column count.
/// Shared verbatim by the barrier and DAG paths — bitwise identity between
/// the two schedules rests on this being the single implementation.
/// With keep_all == false only the newest panel is retained (the partial
/// -panel fixups read f.panels.back() only), so a values-only reduction
/// holds one O(n*b) panel at a time instead of the O(n^2/2) full set.
template <class T>
index_t panel_step(MatrixViewT<T> a, index_t b, index_t j, index_t cols,
                   MatrixT<T>& y, MatrixT<T>& z, BandFactorT<T>& f,
                   lapack::WyFactorT<T>* pre, bool keep_all) {
  const index_t n = a.rows;
  const index_t m = n - j - b;       // rows of the below-band panel
  const index_t w = std::min(b, m);  // panel width

  obs::Span panel_span("dbbr.panel");
  panel_span.attr("j", j);
  panel_span.attr("width", w);

  if (cols > 0) {
    // JIT refresh of this panel's column block (rows j..n-1): apply all
    // updates accumulated in this outer block. Paper Algorithm 1, l.8-12.
    MatrixViewT<T> blk = a.block(j, j, n - j, w);
    la::gemm(Trans::kNo, Trans::kTrans, -1.0, y.block(j, 0, n - j, cols),
             z.block(j, 0, w, cols), 1.0, blk);
    la::gemm(Trans::kNo, Trans::kTrans, -1.0, z.block(j, 0, n - j, cols),
             y.block(j, 0, w, cols), 1.0, blk);
  }

  lapack::WyFactorT<T> wy;
  if (pre != nullptr) {
    wy = std::move(*pre);  // QR + zero_below_r already ran in the QR node
  } else {
    wy = lapack::panel_qr(a.block(j + b, j, m, w));
    detail::zero_below_r(a, j, b, w);
  }

  // P = A_cur V = A_stale V - Y (Z^T V) - Z (Y^T V)  (rows j+b..n-1).
  MatrixT<T> p(m, w);
  la::symm_lower(1.0, a.block(j + b, j + b, m, m), wy.v.view(), 0.0,
                 p.view());
  if (cols > 0) {
    MatrixT<T> zv(cols, w);
    la::gemm(Trans::kTrans, Trans::kNo, 1.0, z.block(j + b, 0, m, cols),
             wy.v.view(), 0.0, zv.view());
    la::gemm(Trans::kNo, Trans::kNo, -1.0, y.block(j + b, 0, m, cols),
             zv.view(), 1.0, p.view());
    MatrixT<T> yv(cols, w);
    la::gemm(Trans::kTrans, Trans::kNo, 1.0, y.block(j + b, 0, m, cols),
             wy.v.view(), 0.0, yv.view());
    la::gemm(Trans::kNo, Trans::kNo, -1.0, z.block(j + b, 0, m, cols),
             yv.view(), 1.0, p.view());
  }
  MatrixT<T> wmat =
      detail::zy_w_from_av<T>(p.view(), wy.v.view(), wy.t.view());

  copy(wy.v.view(), y.block(j + b, cols, m, w));
  copy(wmat.view(), z.block(j + b, cols, m, w));

  if (!keep_all) f.panels.clear();
  f.panels.push_back({j + b, std::move(wy.v), std::move(wy.t)});
  return cols + w;
}

/// Static geometry of one outer step, precomputed by replaying the loop
/// bounds arithmetically so the DAG can be built before any numbers move.
struct StepGeom {
  index_t i = 0;       // first panel column of the block
  index_t cols = 0;    // accumulated reflector columns
  index_t t0 = 0;      // trailing start (last j + w)
  index_t last_w = 0;  // width of the block's last panel
  index_t blk = 0;     // square tile size of the trailing syr2k
  index_t nblk = 0;    // tile grid dimension
};

std::vector<StepGeom> dbbr_geometry(index_t n, index_t b, index_t k,
                                    index_t syr2k_block) {
  std::vector<StepGeom> steps;
  for (index_t i = 0; n - i - b >= 1; i += k) {
    StepGeom s;
    s.i = i;
    for (index_t j = i; j < i + k && n - j - b >= 1; j += b) {
      const index_t w = std::min(b, n - j - b);
      s.cols += w;
      s.t0 = j + w;
      s.last_w = w;
    }
    const index_t nt = n - s.t0;  // always >= 1: w <= b and n - j - b >= 1
    s.blk = la::syr2k_square_block_size(nt, syr2k_block);
    s.nblk = (nt + s.blk - 1) / s.blk;
    steps.push_back(s);
  }
  return steps;
}

/// The look-ahead DAG schedule. Same arithmetic as the barrier loop below,
/// re-expressed as a task graph; see the file header for the node layout.
template <class T>
void dbbr_graph(MatrixViewT<T> a, const BandReductionOptions& opts,
                MatrixT<T>& y, MatrixT<T>& z, BandFactorT<T>& f,
                obs::Span& dbbr_span) {
  const index_t n = a.rows;
  const index_t b = opts.b;
  const index_t k = opts.k;
  const std::vector<StepGeom> steps =
      dbbr_geometry(n, b, k, opts.syr2k_block);
  const index_t ns = static_cast<index_t>(steps.size());
  if (ns == 0) return;

  using graph::NodeClass;
  using graph::TaskGraph;
  TaskGraph g;

  // Look-ahead QR results, one slot per step, written by QR_s and consumed
  // by PC_s (ordered by the qr -> pc edge). Preallocated so no container
  // mutates while pool workers hold references.
  std::vector<lapack::WyFactorT<T>> pre(ns);
  std::vector<char> pre_ok(ns, 0);

  // tile ids of the previous step, grouped by tile-column bj (so the QR
  // node can depend on exactly the columns it reads).
  std::vector<std::vector<TaskGraph::NodeId>> prev_cols;

  for (index_t s = 0; s < ns; ++s) {
    const StepGeom& st = steps[s];

    // QR_s (s >= 1): prefactor the block's first panel as soon as the tile
    // columns it reads — trailing columns [i, i+w) of step s-1, whose
    // trailing region starts at steps[s-1].t0 — have landed. For full
    // previous blocks t0_{s-1} == i, so this is the first ceil(w/blk)
    // columns of the previous tile grid.
    TaskGraph::NodeId qr = -1;
    if (s > 0 && opts.lookahead >= 1) {
      const index_t w0 = std::min(b, n - st.i - b);
      const index_t span_cols = st.i + w0 - steps[s - 1].t0;
      const index_t prev_blk = steps[s - 1].blk;
      const index_t ncov =
          std::min<index_t>(steps[s - 1].nblk,
                            (span_cols + prev_blk - 1) / prev_blk);
      std::vector<TaskGraph::NodeId> deps;
      for (index_t c = 0; c < ncov; ++c) {
        deps.insert(deps.end(), prev_cols[c].begin(), prev_cols[c].end());
      }
      qr = g.add(
          "dbbr.lookahead_qr", NodeClass::kPooled,
          [&a, &steps, &pre, &pre_ok, s, n, b] {
            const index_t j = steps[s].i;
            const index_t m = n - j - b;
            const index_t w = std::min(b, m);
            pre[s] = lapack::panel_qr(a.block(j + b, j, m, w));
            detail::zero_below_r(a, j, b, w);
            pre_ok[s] = 1;
          },
          deps);
    }

    // PC_s: the whole panel chain of the block. Reads the full trailing
    // matrix of step s-1 (the first symm spans it), so it depends on every
    // previous tile — plus QR_s, whose result it consumes.
    std::vector<TaskGraph::NodeId> pc_deps;
    for (const auto& col : prev_cols) {
      pc_deps.insert(pc_deps.end(), col.begin(), col.end());
    }
    if (qr >= 0) pc_deps.push_back(qr);
    const bool keep_all = opts.want_factors;
    const TaskGraph::NodeId pc = g.add(
        "dbbr.panel_chain", NodeClass::kDriver,
        [&a, &steps, &pre, &pre_ok, &y, &z, &f, s, n, b, k, keep_all] {
          // Driver nodes run on the run() caller thread, which still holds
          // the request's cancel::Scope — one poll per outer block.
          cancel::poll("dbbr_block");
          const StepGeom& cur = steps[s];
          y.set_zero();
          z.set_zero();
          index_t cols = 0;
          for (index_t j = cur.i; j < cur.i + k && n - j - b >= 1; j += b) {
            lapack::WyFactorT<T>* p =
                (j == cur.i && pre_ok[s]) ? &pre[s] : nullptr;
            cols = panel_step(a, b, j, cols, y, z, f, p, keep_all);
          }
        },
        pc_deps);

    // T_s: the trailing syr2k as independent square tiles (disjoint C
    // regions — the anti-diagonal barriers of the pooled schedule carry no
    // ordering information and are simply dropped). Tile-column 0 is added
    // first so the FIFO ready queue front-runs the columns QR_{s+1} waits
    // on.
    std::vector<std::vector<TaskGraph::NodeId>> cur_cols(st.nblk);
    for (index_t bj = 0; bj < st.nblk; ++bj) {
      for (index_t bi = bj; bi < st.nblk; ++bi) {
        cur_cols[bj].push_back(g.add(
            "dbbr.syr2k_tile", NodeClass::kPooled,
            [&a, &steps, &y, &z, s, bi, bj, n] {
              const StepGeom& cur = steps[s];
              const index_t nt = n - cur.t0;
              la::detail::syr2k_square_tile(
                  -1.0, y.block(cur.t0, 0, nt, cur.cols),
                  z.block(cur.t0, 0, nt, cur.cols), 1.0,
                  a.block(cur.t0, cur.t0, nt, nt), cur.blk, bi, bj);
            },
            {pc}));
      }
    }
    prev_cols = std::move(cur_cols);
  }

  // FIX: the final block ended on a partial panel (w < b) — its remaining
  // in-band columns still take Q^T from the left. The touched region
  // overlaps the last trailing update, so order after every last-step tile.
  if (steps[ns - 1].last_w < b) {
    std::vector<TaskGraph::NodeId> deps;
    for (const auto& col : prev_cols) {
      deps.insert(deps.end(), col.begin(), col.end());
    }
    g.add(
        "dbbr.fixup", NodeClass::kDriver,
        [&a, &f, b] {
          const PanelT<T>& last = f.panels.back();
          const index_t lw = last.v.cols();
          const index_t lj = last.row0 - b;
          lapack::apply_block_reflector_left(
              last.v.view(), last.t.view(), Trans::kTrans,
              a.block(last.row0, lj + lw, last.v.rows(), b - lw));
        },
        deps);
  }

  const TaskGraph::Stats stats = g.run();
  dbbr_span.attr("tg_overlap_pct",
                 static_cast<long long>(100.0 * stats.overlap_fraction()));
}

}  // namespace

template <class T>
BandFactorT<T> dbbr(MatrixViewT<T> a, const BandReductionOptions& opts) {
  const index_t n = a.rows;
  const index_t b = opts.b;
  const index_t k = opts.k;
  TDG_CHECK(a.rows == a.cols, "dbbr: matrix must be square");
  TDG_CHECK(b >= 1 && b < std::max<index_t>(n, 2), "dbbr: need 1 <= b < n");
  TDG_CHECK(k >= b && k % b == 0, "dbbr: k must be a positive multiple of b");
  // Drive the parallel BLAS-3 engine at the requested width for the whole
  // reduction (JIT panel GEMMs, symm, and the fat trailing syr2k).
  ThreadLimit thread_scope(opts.threads);

  obs::Span dbbr_span("dbbr", obs::kStage);
  dbbr_span.attr("n", n);
  dbbr_span.attr("b", b);
  dbbr_span.attr("k", k);

  BandFactorT<T> f;
  f.n = n;
  f.b = b;

  MatrixT<T> y(n, k);  // accumulated V panels (global row indexing)
  MatrixT<T> z(n, k);  // accumulated W panels

  // DAG schedule: bitwise-identical to the barrier loop below (same tile
  // grid, same kernels, same inputs). Falls back under an active op trace —
  // graph nodes run on pool workers, which carry no recorder, so only the
  // barrier path can reproduce the canonical trace order.
  if (opts.lookahead >= 1 && opts.use_square_syr2k &&
      trace::active() == nullptr) {
    dbbr_graph(a, opts, y, z, f, dbbr_span);
    if (!opts.want_factors) f.panels.clear();
    return f;
  }

  index_t i = 0;
  while (n - i - b >= 1) {
    cancel::poll("dbbr_block");
    y.set_zero();
    z.set_zero();
    index_t cols = 0;  // accumulated reflector columns in this outer block
    index_t t0 = i;    // start of the stale trailing region

    for (index_t j = i; j < i + k && n - j - b >= 1; j += b) {
      cols = panel_step<T>(a, b, j, cols, y, z, f, nullptr, opts.want_factors);
      t0 = j + std::min(b, n - j - b);  // columns < t0 final; >= t0 stale
    }

    if (cols > 0 && t0 < n) {
      // One fat trailing update for the whole outer block (inner dim = cols).
      obs::Span syr2k_span("dbbr.syr2k");
      syr2k_span.attr("rows", n - t0);
      syr2k_span.attr("inner", cols);
      trailing_syr2k<T>(opts, y.block(t0, 0, n - t0, cols),
                        z.block(t0, 0, n - t0, cols),
                        a.block(t0, t0, n - t0, n - t0));
    }
    if (!f.panels.empty()) {
      // Final partial panel of the block (w < b): columns [j+w, j+b) stay
      // inside the band but their below-diagonal rows still receive the last
      // panel's Q^T from the left. (For full panels w == b this is empty.)
      const PanelT<T>& last = f.panels.back();
      const index_t lw = last.v.cols();
      const index_t lj = last.row0 - b;
      if (lw < b && lj >= i) {
        lapack::apply_block_reflector_left(
            last.v.view(), last.t.view(), Trans::kTrans,
            a.block(last.row0, lj + lw, last.v.rows(), b - lw));
      }
    }
    i += k;
  }
  if (!opts.want_factors) f.panels.clear();
  return f;
}

template BandFactor dbbr<double>(MatrixView, const BandReductionOptions&);
template BandFactorT<float> dbbr<float>(MatrixViewT<float>,
                                        const BandReductionOptions&);

}  // namespace tdg::sbr
