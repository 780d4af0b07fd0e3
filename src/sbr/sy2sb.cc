// Classic single-blocking successive band reduction (MAGMA dsy2sb analogue).
//
// Per panel of width b: QR-factorise the below-band block, then apply the
// two-sided block update to the whole trailing matrix through the ZY
// representation (Equation 1 of the paper):
//   Z = A V T - (1/2) V T^T (V^T A V T),   A2 <- A2 - V Z^T - Z V^T.
// The trailing update is a syr2k whose inner dimension equals b — the shape
// bottleneck the paper's DBBR removes.
//
// With opts.lookahead >= 1 the panel loop runs as a task DAG
// (common/task_graph.h), the same schedule shape as dbbr's: per panel p a
// driver node computes the panel transform (symm, W, fixup), pooled nodes
// run the trailing syr2k's square tiles barrier-free, and panel p+1's QR
// overlaps the tiles it does not read. Same tile grid, kernels, and inputs
// as the barrier loop, so results are bitwise identical.

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

/// Static geometry of one sy2sb panel step.
struct StepGeom {
  index_t j = 0;     // panel column
  index_t m = 0;     // trailing dimension (= below-band panel rows)
  index_t w = 0;     // panel width
  index_t blk = 0;   // square tile size of the trailing syr2k
  index_t nblk = 0;  // tile grid dimension
};

std::vector<StepGeom> sy2sb_geometry(index_t n, index_t b,
                                     index_t syr2k_block) {
  std::vector<StepGeom> steps;
  for (index_t j = 0; n - j - b >= 1; j += b) {
    StepGeom s;
    s.j = j;
    s.m = n - j - b;
    s.w = std::min(b, s.m);
    s.blk = la::syr2k_square_block_size(s.m, syr2k_block);
    s.nblk = (s.m + s.blk - 1) / s.blk;
    steps.push_back(s);
  }
  return steps;
}

/// The look-ahead DAG schedule: per panel p a pooled QR node (overlapping
/// the previous panel's tiles it does not read), a driver panel-transform
/// node, and one pooled node per trailing-syr2k tile.
template <class T>
void sy2sb_graph(MatrixViewT<T> a, const BandReductionOptions& opts,
                 BandFactorT<T>& f, obs::Span& sy2sb_span) {
  const index_t n = a.rows;
  const index_t b = opts.b;
  const std::vector<StepGeom> steps = sy2sb_geometry(n, b, opts.syr2k_block);
  const index_t np = static_cast<index_t>(steps.size());
  if (np == 0) return;

  using graph::NodeClass;
  using graph::TaskGraph;
  TaskGraph g;

  // Per-panel state, preallocated so no container mutates while pool
  // workers hold references. The WY factors move into f.panels only after
  // the graph has drained (tiles read wys[p].v while later panels run).
  std::vector<lapack::WyFactorT<T>> wys(np);
  std::vector<MatrixT<T>> zs(np);
  std::vector<char> pre_ok(np, 0);

  std::vector<std::vector<TaskGraph::NodeId>> prev_cols;

  for (index_t p = 0; p < np; ++p) {
    const StepGeom& st = steps[p];

    // QR_p (p >= 1): panel p reads columns [j, j+w) — offset 0 in the
    // previous trailing region (which starts at column j exactly), so the
    // first ceil(w/blk) tile-columns of the previous grid cover it.
    TaskGraph::NodeId qr = -1;
    if (p > 0) {
      const index_t prev_blk = steps[p - 1].blk;
      const index_t ncov = std::min<index_t>(
          steps[p - 1].nblk, (st.w + prev_blk - 1) / prev_blk);
      std::vector<TaskGraph::NodeId> deps;
      for (index_t c = 0; c < ncov; ++c) {
        deps.insert(deps.end(), prev_cols[c].begin(), prev_cols[c].end());
      }
      qr = g.add(
          "sy2sb.lookahead_qr", NodeClass::kPooled,
          [&a, &steps, &wys, &pre_ok, p, b] {
            const StepGeom& cur = steps[p];
            wys[p] = lapack::panel_qr(
                a.block(cur.j + b, cur.j, cur.m, cur.w));
            detail::zero_below_r(a, cur.j, b, cur.w);
            pre_ok[p] = 1;
          },
          deps);
    }

    // PT_p: the panel transform. The symm reads the whole previous trailing
    // matrix, so it depends on every previous tile — plus QR_p. The partial
    // -panel fixup moves here from after the syr2k: its region is disjoint
    // from this panel's trailing tiles and final after the previous tiles,
    // so the relocation is bitwise-neutral.
    std::vector<TaskGraph::NodeId> pt_deps;
    for (const auto& col : prev_cols) {
      pt_deps.insert(pt_deps.end(), col.begin(), col.end());
    }
    if (qr >= 0) pt_deps.push_back(qr);
    const TaskGraph::NodeId pt = g.add(
        "sy2sb.panel", NodeClass::kDriver,
        [&a, &steps, &wys, &zs, &pre_ok, p, b] {
          // Driver node — runs on the run() caller, which holds the
          // request's cancel::Scope. One poll per panel.
          cancel::poll("sy2sb_block");
          const StepGeom& cur = steps[p];
          obs::Span panel_span("sy2sb.panel");
          panel_span.attr("j", cur.j);
          panel_span.attr("width", cur.w);
          if (!pre_ok[p]) {
            wys[p] = lapack::panel_qr(
                a.block(cur.j + b, cur.j, cur.m, cur.w));
            detail::zero_below_r(a, cur.j, b, cur.w);
          }
          MatrixViewT<T> atail =
              a.block(cur.j + b, cur.j + b, cur.m, cur.m);
          MatrixT<T> pmat(cur.m, cur.w);
          la::symm_lower(1.0, atail, wys[p].v.view(), 0.0, pmat.view());
          zs[p] = detail::zy_w_from_av<T>(pmat.view(), wys[p].v.view(),
                                          wys[p].t.view());
          if (cur.w < b) {
            lapack::apply_block_reflector_left(
                wys[p].v.view(), wys[p].t.view(), Trans::kTrans,
                a.block(cur.j + b, cur.j + cur.w, cur.m, b - cur.w));
          }
        },
        pt_deps);

    // T_p: the trailing syr2k as independent square tiles; tile-column 0
    // first so the ready queue front-runs the columns QR_{p+1} waits on.
    std::vector<std::vector<TaskGraph::NodeId>> cur_cols(st.nblk);
    for (index_t bj = 0; bj < st.nblk; ++bj) {
      for (index_t bi = bj; bi < st.nblk; ++bi) {
        cur_cols[bj].push_back(g.add(
            "sy2sb.syr2k_tile", NodeClass::kPooled,
            [&a, &steps, &wys, &zs, p, bi, bj, b] {
              const StepGeom& cur = steps[p];
              la::detail::syr2k_square_tile(
                  -1.0, wys[p].v.view(), zs[p].view(), 1.0,
                  a.block(cur.j + b, cur.j + b, cur.m, cur.m), cur.blk, bi,
                  bj);
            },
            {pt}));
      }
    }
    prev_cols = std::move(cur_cols);
  }

  const TaskGraph::Stats stats = g.run();
  sy2sb_span.attr("tg_overlap_pct",
                  static_cast<long long>(100.0 * stats.overlap_fraction()));

  if (!opts.want_factors) return;  // values-only: panels are never consumed
  for (index_t p = 0; p < np; ++p) {
    f.panels.push_back(
        {steps[p].j + b, std::move(wys[p].v), std::move(wys[p].t)});
  }
}

}  // namespace

template <class T>
BandFactorT<T> sy2sb(MatrixViewT<T> a, index_t b,
                     const BandReductionOptions& opts) {
  const index_t n = a.rows;
  TDG_CHECK(a.rows == a.cols, "sy2sb: matrix must be square");
  TDG_CHECK(b >= 1 && b < std::max<index_t>(n, 2), "sy2sb: need 1 <= b < n");
  // Drive the parallel BLAS-3 engine at the requested width for the whole
  // reduction (panel symm and the per-panel trailing syr2k).
  ThreadLimit thread_scope(opts.threads);

  obs::Span sy2sb_span("sy2sb");
  sy2sb_span.attr("n", n);
  sy2sb_span.attr("b", b);

  BandFactorT<T> f;
  f.n = n;
  f.b = b;

  // DAG schedule: bitwise-identical to the barrier loop below; falls back
  // under an active op trace (pool workers carry no recorder).
  if (opts.lookahead >= 1 && opts.use_square_syr2k &&
      trace::active() == nullptr) {
    BandReductionOptions gopts = opts;
    gopts.b = b;  // sy2sb takes b positionally; the graph reads it from opts
    sy2sb_graph(a, gopts, f, sy2sb_span);
    return f;
  }

  for (index_t j = 0; n - j - b >= 1; j += b) {
    cancel::poll("sy2sb_block");
    const index_t m = n - j - b;       // rows of the below-band panel
    const index_t w = std::min(b, m);  // panel width
    obs::Span panel_span("sy2sb.panel");
    panel_span.attr("j", j);
    panel_span.attr("width", w);
    MatrixViewT<T> panel = a.block(j + b, j, m, w);
    lapack::WyFactorT<T> wy = lapack::panel_qr(panel);
    detail::zero_below_r(a, j, b, w);

    // Two-sided trailing update via the ZY representation.
    MatrixViewT<T> atail = a.block(j + b, j + b, m, m);
    MatrixT<T> p(m, w);
    la::symm_lower(1.0, atail, wy.v.view(), 0.0, p.view());
    MatrixT<T> z =
        detail::zy_w_from_av<T>(p.view(), wy.v.view(), wy.t.view());
    trailing_syr2k<T>(opts, wy.v.view(), z.view(), atail);

    if (w < b) {
      // Final partial panel: columns [j+w, j+b) stay inside the band but
      // their below-diagonal rows are still rotated by Q^T from the left.
      lapack::apply_block_reflector_left(wy.v.view(), wy.t.view(),
                                         Trans::kTrans,
                                         a.block(j + b, j + w, m, b - w));
    }

    if (opts.want_factors) {
      f.panels.push_back({j + b, std::move(wy.v), std::move(wy.t)});
    }
  }
  return f;
}

template BandFactor sy2sb<double>(MatrixView, index_t,
                                  const BandReductionOptions&);
template BandFactorT<float> sy2sb<float>(MatrixViewT<float>, index_t,
                                         const BandReductionOptions&);

}  // namespace tdg::sbr
