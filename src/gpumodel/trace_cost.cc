#include "gpumodel/trace_cost.h"

#include <algorithm>
#include <map>

namespace tdg::gpumodel {

namespace {

using trace::Op;
using trace::OpKind;

void emit(std::vector<Op>& t, OpKind kind, index_t m, index_t n, index_t k,
          index_t batch = 1) {
  t.push_back({kind, m, n, k, batch});
}

// geqr2 on an m x w panel: one larf_left (gemv + ger) per column that has
// trailing columns and a non-trivial reflector.
void emit_geqr2(std::vector<Op>& t, index_t m, index_t w) {
  const index_t kmax = std::min(m, w);
  for (index_t j = 0; j < kmax; ++j) {
    const bool tau_nonzero = (m - j) > 1;  // larfg of length 1 gives tau = 0
    if (tau_nonzero && j + 1 < w) {
      emit(t, OpKind::kGemv, m - j, w - j - 1, 0);
      emit(t, OpKind::kGer, m - j, w - j - 1, 0);
    }
  }
}

// sbr::detail::zy_w_from_av on P (m x w).
void emit_zy_w(std::vector<Op>& t, index_t m, index_t w) {
  emit(t, OpKind::kGemm, m, w, w);  // X = P T
  emit(t, OpKind::kGemm, w, w, m);  // M = V^T X
  emit(t, OpKind::kGemm, w, w, w);  // S = T^T M
  emit(t, OpKind::kGemm, m, w, w);  // X -= 0.5 V S
}

// lapack::apply_block_reflector_left with V (m x k), C (m x nc).
void emit_block_reflector_left(std::vector<Op>& t, index_t m, index_t k,
                               index_t nc) {
  if (k == 0 || nc == 0) return;
  emit(t, OpKind::kGemm, k, nc, m);
  emit(t, OpKind::kGemm, k, nc, k);
  emit(t, OpKind::kGemm, m, nc, k);
}

// la::syr2k_lower or la::syr2k_lower_square on an n x n output, inner dim k.
void emit_syr2k(std::vector<Op>& t, index_t n, index_t k, bool square,
                index_t block) {
  if (n <= 0) return;
  if (!square) {
    emit(t, OpKind::kSyr2k, n, n, k);
    return;
  }
  if (block <= 0) block = std::min<index_t>(512, n);
  const index_t nblk = (n + block - 1) / block;
  for (index_t d = 0; d < nblk; ++d) {
    for (index_t bj = 0; bj + d < nblk; ++bj) {
      const index_t bi = bj + d;
      const index_t jb = std::min(block, n - bj * block);
      const index_t ib = std::min(block, n - bi * block);
      if (d == 0) {
        emit(t, OpKind::kSyr2k, ib, ib, k);
      } else {
        emit(t, OpKind::kGemm, ib, jb, k);
        emit(t, OpKind::kGemm, ib, jb, k);
      }
    }
  }
}

}  // namespace

std::vector<Op> trace_sytrd(index_t n, index_t nb) {
  std::vector<Op> t;
  index_t j0 = 0;
  while (n - j0 > 2 * nb) {
    const index_t nn = n - j0;
    for (index_t i = 0; i < nb; ++i) {
      const index_t len = nn - i - 1;
      if (i > 0) {
        emit(t, OpKind::kGemv, nn - i, i, 0);
        emit(t, OpKind::kGemv, nn - i, i, 0);
      }
      emit(t, OpKind::kSymv, len, len, 0);
      if (i > 0) {
        emit(t, OpKind::kGemv, len, i, 0);
        emit(t, OpKind::kGemv, len, i, 0);
        emit(t, OpKind::kGemv, len, i, 0);
        emit(t, OpKind::kGemv, len, i, 0);
      }
    }
    emit(t, OpKind::kSyr2k, nn - nb, nn - nb, nb);
    j0 += nb;
  }
  // sytd2 tail.
  const index_t rem = n - j0;
  for (index_t i = 0; i + 2 < rem; ++i) {
    const index_t len = rem - i - 1;
    emit(t, OpKind::kSymv, len, len, 0);
    emit(t, OpKind::kSyr2, len, len, 0);
  }
  return t;
}

std::vector<Op> trace_sy2sb(index_t n, index_t b, bool square_syr2k,
                            index_t syr2k_block) {
  std::vector<Op> t;
  for (index_t j = 0; n - j - b >= 1; j += b) {
    const index_t m = n - j - b;
    const index_t w = std::min(b, m);
    emit_geqr2(t, m, w);
    emit(t, OpKind::kGemm, m, w, m);  // symm
    emit_zy_w(t, m, w);
    emit_syr2k(t, m, w, square_syr2k, syr2k_block);
    if (w < b) emit_block_reflector_left(t, m, w, b - w);
  }
  return t;
}

std::vector<Op> trace_dbbr(index_t n, index_t b, index_t k, bool square_syr2k,
                           index_t syr2k_block) {
  std::vector<Op> t;
  index_t i = 0;
  while (n - i - b >= 1) {
    index_t cols = 0;
    index_t t0 = i;
    index_t last_m = 0, last_w = 0;
    for (index_t j = i; j < i + k && n - j - b >= 1; j += b) {
      const index_t m = n - j - b;
      const index_t w = std::min(b, m);
      if (cols > 0) {
        emit(t, OpKind::kGemm, n - j, w, cols);
        emit(t, OpKind::kGemm, n - j, w, cols);
      }
      emit_geqr2(t, m, w);
      emit(t, OpKind::kGemm, m, w, m);  // symm on stale trailing
      if (cols > 0) {
        emit(t, OpKind::kGemm, cols, w, m);
        emit(t, OpKind::kGemm, m, w, cols);
        emit(t, OpKind::kGemm, cols, w, m);
        emit(t, OpKind::kGemm, m, w, cols);
      }
      emit_zy_w(t, m, w);
      cols += w;
      t0 = j + w;
      last_m = m;
      last_w = w;
    }
    if (cols > 0 && t0 < n) {
      emit_syr2k(t, n - t0, cols, square_syr2k, syr2k_block);
    }
    if (last_w > 0 && last_w < b) {
      emit_block_reflector_left(t, last_m, last_w, b - last_w);
    }
    i += k;
  }
  return t;
}

std::vector<Op> trace_bt_conventional(index_t n, index_t b, index_t nc) {
  std::vector<Op> t;
  // One block reflector per panel, applied in reverse order (order does not
  // affect cost; shapes match sbr panel geometry).
  for (index_t j = 0; n - j - b >= 1; j += b) {
    const index_t m = n - j - b;
    const index_t w = std::min(b, m);
    emit_block_reflector_left(t, m, w, nc);
  }
  return t;
}

namespace {

struct PanelGeom {
  index_t row0;
  index_t w;
};

std::vector<PanelGeom> panel_geometry(index_t n, index_t b) {
  std::vector<PanelGeom> p;
  for (index_t j = 0; n - j - b >= 1; j += b) {
    p.push_back({j + b, std::min(b, n - j - b)});
  }
  return p;
}

// Mirrors bt::merge_panels / combine. Returns (row0, width).
PanelGeom emit_merge(std::vector<Op>& t, const std::vector<PanelGeom>& p,
                     std::size_t lo, std::size_t hi, index_t n) {
  if (hi - lo == 1) {
    const index_t m = n - p[lo].row0;
    emit(t, OpKind::kGemm, m, p[lo].w, p[lo].w);  // W = V T
    return p[lo];
  }
  const std::size_t mid = lo + (hi - lo) / 2;
  const PanelGeom l = emit_merge(t, p, lo, mid, n);
  const PanelGeom r = emit_merge(t, p, mid, hi, n);
  const index_t hl = n - l.row0;
  const index_t hr = n - r.row0;
  emit(t, OpKind::kGemm, l.w, r.w, hr);  // Y_l^T W_r
  emit(t, OpKind::kGemm, hl, r.w, l.w);  // W_l * corr
  return {l.row0, l.w + r.w};
}

void emit_apply_merged(std::vector<Op>& t, const PanelGeom& g, index_t n,
                       index_t nc) {
  const index_t h = n - g.row0;
  emit(t, OpKind::kGemm, g.w, nc, h);
  emit(t, OpKind::kGemm, h, nc, g.w);
}

}  // namespace

std::vector<Op> trace_bt_recursive(index_t n, index_t b, index_t nc) {
  std::vector<Op> t;
  const auto p = panel_geometry(n, b);
  if (p.empty()) return t;
  const PanelGeom g = emit_merge(t, p, 0, p.size(), n);
  emit_apply_merged(t, g, n, nc);
  return t;
}

std::vector<Op> trace_bt_blocked(index_t n, index_t b, index_t kw,
                                 index_t nc) {
  std::vector<Op> t;
  const auto p = panel_geometry(n, b);
  if (p.empty()) return t;
  const std::size_t group = std::max<std::size_t>(
      1, static_cast<std::size_t>(kw / std::max<index_t>(b, 1)));
  std::vector<std::pair<std::size_t, std::size_t>> ranges;
  for (std::size_t lo = 0; lo < p.size(); lo += group) {
    ranges.emplace_back(lo, std::min(p.size(), lo + group));
  }
  for (auto it = ranges.rbegin(); it != ranges.rend(); ++it) {
    const PanelGeom g = emit_merge(t, p, it->first, it->second, n);
    emit_apply_merged(t, g, n, nc);
  }
  return t;
}

std::vector<Op> trace_q2_apply(index_t n, index_t b, index_t nc) {
  std::vector<Op> t;
  if (n <= 2 || b <= 1) return t;
  // ~n^2/(2b) reflectors of length <= b, batched b sweeps at a time into
  // (2b x nc x b) GEMMs -> n^2/(2 b^2) block applications.
  const index_t groups =
      std::max<index_t>(1, (n * n) / (2 * b * b));
  emit(t, OpKind::kBatchedGemm, 2 * b, nc, b, groups);
  return t;
}

std::vector<Op> trace_stedc(index_t n, index_t smlsiz) {
  // The merge tree stedc runs: a node of size m > smlsiz splits at
  // m1 = m / 2 and multiplies each nonzero block of diag(Q1, Q2) into the
  // merge's secular eigenvector columns — (m1 x m x m1) and (m2 x m x m2)
  // when nothing deflates, the most a merge can cost. The merges of one
  // tree level run side by side, so each level's equal shapes batch.
  std::vector<std::map<index_t, index_t>> levels;  // per depth: m -> count
  const auto visit = [&](const auto& self, index_t m, std::size_t depth) {
    if (m <= smlsiz) return;
    if (levels.size() <= depth) levels.resize(depth + 1);
    ++levels[depth][m];
    self(self, m / 2, depth + 1);
    self(self, m - m / 2, depth + 1);
  };
  visit(visit, n, 0);
  std::vector<Op> t;
  for (auto level = levels.rbegin(); level != levels.rend(); ++level) {
    for (const auto& [m, count] : *level) {
      const index_t m1 = m / 2;
      const index_t m2 = m - m1;
      emit(t, OpKind::kBatchedGemm, m1, m, m1, count);
      emit(t, OpKind::kBatchedGemm, m2, m, m2, count);
    }
  }
  return t;
}

}  // namespace tdg::gpumodel
