// WY-pair merging for the recursive (Algorithm 3) and blocked (Figure 13)
// back transformations.

#include <algorithm>

#include "backtransform/backtransform.h"
#include "la/blas.h"
#include "obs/obs.h"

namespace tdg::bt {

namespace {

// Base case: a single panel Q_p = I - V T V^T = I - (V T) V^T.
template <class T>
MergedWyT<T> from_panel(const sbr::PanelT<T>& p) {
  MergedWyT<T> m;
  m.row0 = p.row0;
  m.y = p.v;
  m.w = MatrixT<T>(p.v.rows(), p.v.cols());
  la::gemm(Trans::kNo, Trans::kNo, 1.0, p.v.view(), p.t.view(), 0.0,
           m.w.view());
  return m;
}

// Combine: (I - Wl Yl^T)(I - Wr Yr^T) = I - [Wl | Wr - Wl (Yl^T Wr)] [Yl|Yr]^T.
// Panels are ordered by ascending row0, so the left factor spans more rows.
template <class T>
MergedWyT<T> combine(const MergedWyT<T>& l, const MergedWyT<T>& r,
                     index_t n) {
  TDG_CHECK(l.row0 <= r.row0, "combine: panels out of order");
  const index_t hl = n - l.row0;
  const index_t hr = n - r.row0;
  const index_t kl = l.w.cols();
  const index_t kr = r.w.cols();
  const index_t off = r.row0 - l.row0;

  MergedWyT<T> m;
  m.row0 = l.row0;
  m.w = MatrixT<T>(hl, kl + kr);
  m.y = MatrixT<T>(hl, kl + kr);
  copy(l.w.view(), m.w.block(0, 0, hl, kl));
  copy(l.y.view(), m.y.block(0, 0, hl, kl));
  copy(r.w.view(), m.w.block(off, kl, hr, kr));
  copy(r.y.view(), m.y.block(off, kl, hr, kr));

  // W_right' = W_r - W_l (Y_l^T W_r): the correction GEMMs the paper counts
  // as the extra flops of the recursive scheme.
  MatrixT<T> mcorr(kl, kr);
  la::gemm(Trans::kTrans, Trans::kNo, 1.0, l.y.block(off, 0, hr, kl),
           r.w.view(), 0.0, mcorr.view());
  la::gemm(Trans::kNo, Trans::kNo, -1.0, l.w.view(), mcorr.view(), 1.0,
           m.w.block(0, kl, hl, kr));
  return m;
}

template <class T>
MergedWyT<T> merge_range(const sbr::BandFactorT<T>& f, std::size_t lo,
                         std::size_t hi) {
  if (hi - lo == 1) return from_panel(f.panels[lo]);
  const std::size_t mid = lo + (hi - lo) / 2;
  const MergedWyT<T> l = merge_range(f, lo, mid);
  const MergedWyT<T> r = merge_range(f, mid, hi);
  return combine(l, r, f.n);
}

template <class T>
void apply_merged(const MergedWyT<T>& m, index_t n, MatrixViewT<T> c) {
  // C(row0:, :) -= W (Y^T C(row0:, :)) — two fat GEMMs.
  MatrixViewT<T> csub = c.block(m.row0, 0, n - m.row0, c.cols);
  MatrixT<T> t(m.y.cols(), c.cols);
  la::gemm(Trans::kTrans, Trans::kNo, 1.0, m.y.view(), csub, 0.0, t.view());
  la::gemm(Trans::kNo, Trans::kNo, -1.0, m.w.view(), t.view(), 1.0, csub);
}

}  // namespace

template <class T>
MergedWyT<T> merge_panels(const sbr::BandFactorT<T>& f, std::size_t lo,
                          std::size_t hi) {
  TDG_CHECK(lo < hi && hi <= f.panels.size(), "merge_panels: bad range");
  return merge_range(f, lo, hi);
}

void apply_q1_recursive(const sbr::BandFactor& f, MatrixView c) {
  TDG_CHECK(c.rows == f.n, "apply_q1_recursive: row mismatch");
  if (f.panels.empty()) return;
  const MergedWy m = merge_panels(f, 0, f.panels.size());
  apply_merged(m, f.n, c);
}

template <class T>
void apply_q1_blocked(const sbr::BandFactorT<T>& f, index_t kw,
                      MatrixViewT<T> c) {
  TDG_CHECK(c.rows == f.n, "apply_q1_blocked: row mismatch");
  TDG_CHECK(kw >= 1, "apply_q1_blocked: kw must be positive");
  if (f.panels.empty()) return;

  obs::Span span("apply_q1");
  span.attr("n", f.n);
  span.attr("cols", c.cols);
  span.attr("kw", kw);

  const std::size_t group =
      std::max<std::size_t>(1, static_cast<std::size_t>(kw / std::max<index_t>(f.b, 1)));
  const std::size_t np = f.panels.size();

  // Group boundaries in factorisation order; groups applied in reverse.
  std::vector<std::pair<std::size_t, std::size_t>> ranges;
  for (std::size_t lo = 0; lo < np; lo += group) {
    ranges.emplace_back(lo, std::min(np, lo + group));
  }
  for (auto it = ranges.rbegin(); it != ranges.rend(); ++it) {
    const MergedWyT<T> m = merge_panels(f, it->first, it->second);
    apply_merged(m, f.n, c);
  }
}

#define TDG_INSTANTIATE_MERGED_W(T)                                          \
  template MergedWyT<T> merge_panels<T>(const sbr::BandFactorT<T>&,         \
                                        std::size_t, std::size_t);          \
  template void apply_q1_blocked<T>(const sbr::BandFactorT<T>&, index_t,    \
                                    MatrixViewT<T>);
TDG_INSTANTIATE_MERGED_W(double)
TDG_INSTANTIATE_MERGED_W(float)
#undef TDG_INSTANTIATE_MERGED_W

}  // namespace tdg::bt
