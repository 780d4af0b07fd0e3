// Cache-blocked, pool-parallel BLAS-3 kernels.
//
// Structure (BLIS-style):
//   * gemm splits C into a fixed MC x NC tile grid and dispatches it once.
//     Each tile task walks every KC-deep K slab in ascending order: it packs
//     its own slice of op(A) into MR-row micro-panels and of alpha * op(B)
//     into NR-column micro-panels (transposition is absorbed by the pack,
//     edges are zero-padded), then runs an MR x NR register-tile kernel
//     that keeps its C tile in vector registers across the slab.
//   * symm_lower splits C into a fixed grid of row blocks (and 32-column
//     blocks). A row block combines the columns left of it as an NN gemm,
//     the one-pass sweep inside the block, and the rows below it as a TN
//     gemm that finishes the sweep's dot sums.
//   * syr2k_lower processes fixed-width column blocks of the lower triangle
//     in parallel, with the k loop hoisted so each A/B column is streamed
//     once per block instead of once per column.
//
// Determinism: every grid depends only on the shape (never the thread
// count), every tile is computed by one thread, and each C element sees one
// fixed sequence of operations. For gemm that is c <- beta * c, then
// c <- c + (alpha * op(B)(l, j)) * op(A)(i, l) for l ascending — the
// sequence of the unblocked column sweep, which the small-volume path runs.
// For symm_lower it is the sequence of the one-pass lower-triangle sweep.
// Results are therefore bitwise identical for any thread count, and bitwise
// identical to those unblocked kernels.
//
// Tracing: the public entry points record one op on the calling thread;
// pool workers run the untraced detail:: kernels (common/trace.h is
// thread-local), so recorded traces are thread-count invariant.

#include <algorithm>
#include <cstring>
#include <memory>
#include <vector>

#include "common/thread_pool.h"
#include "common/trace.h"
#include "la/blas.h"

namespace tdg::la {

namespace {

// Register tile: kMR x kNR entries of C held in 16-byte vector registers,
// two per column (8 accumulators, compiled to SSE2 on the x86-64
// baseline): 4 x 4 doubles or 8 x 4 floats.
template <class T>
constexpr index_t kLanes = 16 / sizeof(T);
template <class T>
constexpr index_t kMR = 2 * kLanes<T>;
constexpr index_t kNR = 4;

// Cache blocks: a task's packed A slice (kMC x kKC doubles = 256 KiB) stays
// in L2 and the kKC x kNR micro-panel of B in use (8 KiB) in L1 while the A
// micro-panels stream past it; kNC bounds the packed B slice per task. A
// float slice is half the size.
constexpr index_t kMC = 128;
constexpr index_t kKC = 256;
constexpr index_t kNC = 512;

// NN problems below this flop volume skip packing and dispatch entirely
// (the hot skinny panel-factor GEMMs in the band reduction).
constexpr index_t kSmallGemmVolume = 64 * 64 * 64;

// Column-block width for the syr2k / symm parallel sweeps.
constexpr index_t kJB = 32;

// Row-block height of the symm_lower grid. A product of at most this many
// rows is one block and runs the plain sweep: every band-reduction panel
// product of an n <= 160 problem at b = 32.
constexpr index_t kSymmRB = 128;

template <class T>
struct Simd {
  typedef T type __attribute__((vector_size(16)));
};
template <class T>
using Vec = typename Simd<T>::type;

template <class T>
inline Vec<T> load(const T* p) {
  Vec<T> v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

template <class T>
inline void store(T* p, Vec<T> v) {
  std::memcpy(p, &v, sizeof(v));
}

template <class T>
inline Vec<T> splat(T x) {
  Vec<T> v;
  for (index_t i = 0; i < kLanes<T>; ++i) v[i] = x;
  return v;
}

// Unpacked kernel for small NN problems: C = alpha * A(m x k) * B(k x n) +
// beta * C. Column-register blocking: 8 output columns per pass so each A
// column is read once per 8 C columns.
template <class T>
void gemm_nn_kernel(T alpha, ConstMatrixViewT<T> a, ConstMatrixViewT<T> b,
                    T beta, MatrixViewT<T> c) {
  const index_t m = c.rows;
  const index_t n = c.cols;
  const index_t k = a.cols;
  constexpr index_t kColBlock = 8;

  for (index_t jj = 0; jj < n; jj += kColBlock) {
    const index_t jb = std::min(kColBlock, n - jj);
    if (beta != T(1)) {
      for (index_t j = jj; j < jj + jb; ++j) {
        T* cj = c.col(j);
        if (beta == T(0)) {
          std::fill(cj, cj + m, T(0));
        } else {
          for (index_t i = 0; i < m; ++i) cj[i] *= beta;
        }
      }
    }
    for (index_t l = 0; l < k; ++l) {
      const T* al = a.col(l);
      T coef[kColBlock];
      T* ccol[kColBlock];
      for (index_t t = 0; t < jb; ++t) {
        coef[t] = alpha * b(l, jj + t);
        ccol[t] = c.col(jj + t);
      }
      if (jb == kColBlock) {
        for (index_t i = 0; i < m; ++i) {
          const T ai = al[i];
          ccol[0][i] += coef[0] * ai;
          ccol[1][i] += coef[1] * ai;
          ccol[2][i] += coef[2] * ai;
          ccol[3][i] += coef[3] * ai;
          ccol[4][i] += coef[4] * ai;
          ccol[5][i] += coef[5] * ai;
          ccol[6][i] += coef[6] * ai;
          ccol[7][i] += coef[7] * ai;
        }
      } else {
        for (index_t t = 0; t < jb; ++t) {
          const T ct = coef[t];
          T* cc = ccol[t];
          for (index_t i = 0; i < m; ++i) cc[i] += ct * al[i];
        }
      }
    }
  }
}

// Pack op(A)(0:mb, pc:pc+kc) into kMR-row micro-panels: panel p holds rows
// p*kMR.. as kc consecutive kMR-vectors, zero-padded past mb.
template <class T>
void pack_a(Trans ta, ConstMatrixViewT<T> a, index_t mb, index_t pc,
            index_t kc, T* dst) {
  for (index_t ir = 0; ir < mb; ir += kMR<T>, dst += kMR<T> * kc) {
    const index_t mr = std::min(kMR<T>, mb - ir);
    if (ta == Trans::kNo) {
      for (index_t l = 0; l < kc; ++l) {
        const T* src = a.col(pc + l) + ir;
        T* d = dst + l * kMR<T>;
        for (index_t r = 0; r < mr; ++r) d[r] = src[r];
        for (index_t r = mr; r < kMR<T>; ++r) d[r] = T(0);
      }
    } else {
      // op(A)(i, l) = a(pc + l, i): read each source column contiguously.
      for (index_t r = 0; r < kMR<T>; ++r) {
        if (r < mr) {
          const T* src = a.col(ir + r) + pc;
          for (index_t l = 0; l < kc; ++l) dst[l * kMR<T> + r] = src[l];
        } else {
          for (index_t l = 0; l < kc; ++l) dst[l * kMR<T> + r] = T(0);
        }
      }
    }
  }
}

// Pack alpha * op(B)(pc:pc+kc, 0:nb) into kNR-column micro-panels, each kc
// consecutive kNR-vectors, zero-padded past nb. alpha * b(l, j) is the exact
// coefficient the unblocked kernel multiplies by.
template <class T>
void pack_b(Trans tb, T alpha, ConstMatrixViewT<T> b, index_t pc, index_t kc,
            index_t nb, T* dst) {
  for (index_t jr = 0; jr < nb; jr += kNR, dst += kNR * kc) {
    const index_t nr = std::min(kNR, nb - jr);
    if (tb == Trans::kNo) {
      for (index_t t = 0; t < kNR; ++t) {
        if (t < nr) {
          const T* src = b.col(jr + t) + pc;
          for (index_t l = 0; l < kc; ++l) dst[l * kNR + t] = alpha * src[l];
        } else {
          for (index_t l = 0; l < kc; ++l) dst[l * kNR + t] = T(0);
        }
      }
    } else {
      // op(B)(l, j) = b(j, pc + l): read each source column contiguously.
      for (index_t l = 0; l < kc; ++l) {
        const T* src = b.col(pc + l) + jr;
        T* d = dst + l * kNR;
        for (index_t t = 0; t < nr; ++t) d[t] = alpha * src[t];
        for (index_t t = nr; t < kNR; ++t) d[t] = T(0);
      }
    }
  }
}

// C(kMR x kNR, leading dimension ldc) = beta * C + Ap * Bp over one packed
// K slab. The tile lives in eight vector accumulators, two per column; each
// one receives c + b * a per step, in ascending l — the unblocked kernel's
// sequence.
template <class T>
void micro_kernel(index_t kc, const T* ap, const T* bp, T beta, T* c,
                  index_t ldc) {
  using V = Vec<T>;
  constexpr index_t L = kLanes<T>;
  T* c0 = c;
  T* c1 = c + ldc;
  T* c2 = c + 2 * ldc;
  T* c3 = c + 3 * ldc;
  V c00 = load(c0), c01 = load(c0 + L);
  V c10 = load(c1), c11 = load(c1 + L);
  V c20 = load(c2), c21 = load(c2 + L);
  V c30 = load(c3), c31 = load(c3 + L);
  if (beta == T(0)) {
    c00 = c01 = c10 = c11 = c20 = c21 = c30 = c31 = V{};
  } else if (beta != T(1)) {
    const V bv = splat(beta);
    c00 *= bv, c01 *= bv, c10 *= bv, c11 *= bv;
    c20 *= bv, c21 *= bv, c30 *= bv, c31 *= bv;
  }
  for (index_t l = 0; l < kc; ++l, ap += kMR<T>, bp += kNR) {
    const V a0 = load(ap);
    const V a1 = load(ap + L);
    const V b0 = splat(bp[0]);
    c00 += b0 * a0;
    c01 += b0 * a1;
    const V b1 = splat(bp[1]);
    c10 += b1 * a0;
    c11 += b1 * a1;
    const V b2 = splat(bp[2]);
    c20 += b2 * a0;
    c21 += b2 * a1;
    const V b3 = splat(bp[3]);
    c30 += b3 * a0;
    c31 += b3 * a1;
  }
  store(c0, c00), store(c0 + L, c01);
  store(c1, c10), store(c1 + L, c11);
  store(c2, c20), store(c2 + L, c21);
  store(c3, c30), store(c3 + L, c31);
}

// One mr x nr (<= kMR x kNR) edge tile: run the full kernel on a padded
// copy and write back only the valid part.
template <class T>
void micro_kernel_edge(index_t kc, const T* ap, const T* bp, T beta, T* c,
                       index_t ldc, index_t mr, index_t nr) {
  T tile[kMR<T> * kNR] = {};
  for (index_t j = 0; j < nr; ++j)
    for (index_t i = 0; i < mr; ++i) tile[i + j * kMR<T>] = c[i + j * ldc];
  micro_kernel(kc, ap, bp, beta, tile, kMR<T>);
  for (index_t j = 0; j < nr; ++j)
    for (index_t i = 0; i < mr; ++i) c[i + j * ldc] = tile[i + j * kMR<T>];
}

// Per-thread pack buffers for one full kMC x kKC / kKC x kNC slice pair,
// allocated uninitialized on the thread's first packed tile, so only the
// pages its largest slices touch become resident.
template <class T>
struct PackBuffers {
  std::unique_ptr<T[]> a = std::make_unique_for_overwrite<T[]>(
      static_cast<std::size_t>(kMC * kKC));
  std::unique_ptr<T[]> b = std::make_unique_for_overwrite<T[]>(
      static_cast<std::size_t>(kKC * kNC));
};

// One tile of at most kMC x kNC of C, all K slabs in ascending order.
template <class T>
void gemm_tile(Trans ta, Trans tb, T alpha, ConstMatrixViewT<T> a,
               ConstMatrixViewT<T> b, T beta, MatrixViewT<T> c, index_t k) {
  const index_t mb = c.rows;
  const index_t nb = c.cols;
  thread_local PackBuffers<T> buf;
  for (index_t pc = 0; pc < k; pc += kKC) {
    const index_t kc = std::min(kKC, k - pc);
    pack_a(ta, a, mb, pc, kc, buf.a.get());
    pack_b(tb, alpha, b, pc, kc, nb, buf.b.get());
    const T beta_eff = (pc == 0) ? beta : T(1);
    for (index_t jr = 0; jr < nb; jr += kNR) {
      const index_t nr = std::min(kNR, nb - jr);
      const T* bp = buf.b.get() + jr * kc;
      for (index_t ir = 0; ir < mb; ir += kMR<T>) {
        const index_t mr = std::min(kMR<T>, mb - ir);
        const T* ap = buf.a.get() + ir * kc;
        T* cp = c.col(jr) + ir;
        if (mr == kMR<T> && nr == kNR) {
          micro_kernel(kc, ap, bp, beta_eff, cp, c.ld);
        } else {
          micro_kernel_edge(kc, ap, bp, beta_eff, cp, c.ld, mr, nr);
        }
      }
    }
  }
}

// Packed gemm: one dispatch over the fixed kMC x kNC tile grid of C.
template <class T>
void gemm_packed(Trans ta, Trans tb, T alpha, ConstMatrixViewT<T> a,
                 ConstMatrixViewT<T> b, T beta, MatrixViewT<T> c) {
  const index_t m = c.rows;
  const index_t n = c.cols;
  const index_t k = (ta == Trans::kNo) ? a.cols : a.rows;
  const index_t nmb = (m + kMC - 1) / kMC;
  const index_t nnb = (n + kNC - 1) / kNC;

  ThreadPool::global().parallel_for(0, nmb * nnb, [&](index_t t) {
    const index_t i0 = (t % nmb) * kMC;
    const index_t j0 = (t / nmb) * kNC;
    const index_t mb = std::min(kMC, m - i0);
    const index_t nb = std::min(kNC, n - j0);
    const ConstMatrixViewT<T> at = (ta == Trans::kNo) ? a.block(i0, 0, mb, k)
                                                      : a.block(0, i0, k, mb);
    const ConstMatrixViewT<T> bt = (tb == Trans::kNo) ? b.block(0, j0, k, nb)
                                                      : b.block(j0, 0, nb, k);
    gemm_tile(ta, tb, alpha, at, bt, beta, c.block(i0, j0, mb, nb), k);
  });
}

// gemm without the k == 0 / alpha == 0 shortcut: every element runs the
// full multiply-add sequence. Requires m, n, k > 0.
template <class T>
void gemm_compute(Trans ta, Trans tb, T alpha, ConstMatrixViewT<T> a,
                  ConstMatrixViewT<T> b, T beta, MatrixViewT<T> c) {
  const index_t k = (ta == Trans::kNo) ? a.cols : a.rows;
  if (ta == Trans::kNo && tb == Trans::kNo &&
      c.rows * c.cols * k <= kSmallGemmVolume) {
    gemm_nn_kernel(alpha, a, b, beta, c);
  } else {
    gemm_packed(ta, tb, alpha, a, b, beta, c);
  }
}

template <class T>
void scale_columns(T beta, MatrixViewT<T> c) {
  if (beta == T(1)) return;
  for (index_t j = 0; j < c.cols; ++j) {
    T* cj = c.col(j);
    for (index_t i = 0; i < c.rows; ++i) cj[i] *= beta;
  }
}

// Rows [i0, i0 + ib) of C = alpha * A B + beta * C (A symmetric, lower
// triangle stored), in the one-pass sweep's per-element order. The sweep
// visits column l of A and, for each output column j, adds
// (alpha b(l, j)) a(i, l) to rows i > l and alpha * s to row l, where s is
// the dot product of a(l+1:n, l) and b(l+1:n, j) accumulated from 0 in
// ascending rows. For a row i of the block that is, in order:
//   1. beta scaling, then the l < i0 terms:     an NN gemm;
//   2. the i0 <= l <= i terms and the rows of s inside the block: the sweep;
//   3. the rows of s below the block:           a TN gemm into s;
//   4. c(i, j) += alpha * s.
// The last block has no rows below and runs the sweep unchanged.
template <class T>
void symm_row_block(T alpha, ConstMatrixViewT<T> a, ConstMatrixViewT<T> b,
                    T beta, MatrixViewT<T> c, index_t i0, index_t ib) {
  const index_t n = a.rows;
  const index_t w = c.cols;
  const index_t i1 = i0 + ib;
  if (i0 > 0) {
    gemm_compute(Trans::kNo, Trans::kNo, alpha, a.block(i0, 0, ib, i0),
                 b.block(0, 0, i0, w), beta, c.block(i0, 0, ib, w));
  } else if (beta != T(1)) {
    for (index_t j = 0; j < w; ++j) {
      T* cj = c.col(j);
      if (beta == T(0)) {
        std::fill(cj, cj + i1, T(0));
      } else {
        for (index_t i = 0; i < i1; ++i) cj[i] *= beta;
      }
    }
  }

  // Dot sums of rows l in the block, finished below the block when there
  // are rows there.
  const bool last = (i1 == n);
  std::vector<T> sbuf(last ? 0 : static_cast<std::size_t>(ib * w));
  const MatrixViewT<T> s{sbuf.data(), last ? 0 : ib, last ? 0 : w, ib};
  for (index_t l = i0; l < i1; ++l) {
    const T* al = a.col(l);
    for (index_t j = 0; j < w; ++j) {
      T* cj = c.col(j);
      const T* bj = b.col(j);
      const T abl = alpha * bj[l];
      cj[l] += abl * al[l];
      T sl = T(0);
      for (index_t i = l + 1; i < i1; ++i) {
        cj[i] += abl * al[i];
        sl += al[i] * bj[i];
      }
      if (last) {
        cj[l] += alpha * sl;
      } else {
        s(l - i0, j) = sl;
      }
    }
  }
  if (last) return;

  // s += A(i1:n, block)^T B(i1:n, :): with alpha = 1 the packed
  // coefficient is b(r, j) itself, so each s gains a(r, l) * b(r, j) in
  // ascending r, exactly as the sweep continued below the block.
  gemm_compute(Trans::kTrans, Trans::kNo, T(1), a.block(i1, i0, n - i1, ib),
               b.block(i1, 0, n - i1, w), T(1), s);
  for (index_t j = 0; j < w; ++j) {
    T* cj = c.col(j);
    for (index_t l = i0; l < i1; ++l) cj[l] += alpha * s(l - i0, j);
  }
}

}  // namespace

namespace detail {

template <class T>
void gemm_notrace(Trans ta, Trans tb, std::type_identity_t<T> alpha,
                  std::type_identity_t<ConstMatrixViewT<T>> a,
                  std::type_identity_t<ConstMatrixViewT<T>> b,
                  std::type_identity_t<T> beta, MatrixViewT<T> c) {
  const index_t k = (ta == Trans::kNo) ? a.cols : a.rows;
  if (c.rows == 0 || c.cols == 0) return;
  if (k == 0 || alpha == T(0)) {
    scale_columns(beta, c);
    return;
  }
  gemm_compute(ta, tb, alpha, a, b, beta, c);
}

template <class T>
void syr2k_lower_notrace(std::type_identity_t<T> alpha,
                         std::type_identity_t<ConstMatrixViewT<T>> a,
                         std::type_identity_t<ConstMatrixViewT<T>> b,
                         std::type_identity_t<T> beta, MatrixViewT<T> c) {
  const index_t n = c.rows;
  const index_t k = a.cols;
  // Fixed kJB-column blocks of the lower triangle, distributed over the
  // pool; within a block the k loop is hoisted so the streamed A/B columns
  // serve every block column. Each element still accumulates in ascending
  // l order — bitwise identical to the plain column sweep.
  parallel_chunks(n, kJB, [&](index_t lo, index_t hi) {
    if (beta != T(1)) {
      for (index_t j = lo; j < hi; ++j) {
        T* cj = c.col(j);
        for (index_t i = j; i < n; ++i) cj[i] *= beta;
      }
    }
    for (index_t l = 0; l < k; ++l) {
      const T* al = a.col(l);
      const T* bl = b.col(l);
      for (index_t j = lo; j < hi; ++j) {
        const T abj = alpha * b(j, l);
        const T aaj = alpha * a(j, l);
        T* cj = c.col(j);
        for (index_t i = j; i < n; ++i) {
          cj[i] += abj * al[i] + aaj * bl[i];
        }
      }
    }
  });
}

}  // namespace detail

template <class T>
void gemm(Trans ta, Trans tb, std::type_identity_t<T> alpha,
          std::type_identity_t<ConstMatrixViewT<T>> a,
          std::type_identity_t<ConstMatrixViewT<T>> b,
          std::type_identity_t<T> beta, MatrixViewT<T> c) {
  const index_t opa_rows = (ta == Trans::kNo) ? a.rows : a.cols;
  const index_t opa_cols = (ta == Trans::kNo) ? a.cols : a.rows;
  const index_t opb_rows = (tb == Trans::kNo) ? b.rows : b.cols;
  const index_t opb_cols = (tb == Trans::kNo) ? b.cols : b.rows;
  TDG_CHECK(opa_rows == c.rows && opb_cols == c.cols && opa_cols == opb_rows,
            "gemm: shape mismatch");
  trace::record({trace::OpKind::kGemm, c.rows, c.cols, opa_cols, 1});
  detail::gemm_notrace<T>(ta, tb, alpha, a, b, beta, c);
}

template <class T>
void syr2k_lower(std::type_identity_t<T> alpha,
                 std::type_identity_t<ConstMatrixViewT<T>> a,
                 std::type_identity_t<ConstMatrixViewT<T>> b,
                 std::type_identity_t<T> beta, MatrixViewT<T> c) {
  TDG_CHECK(c.rows == c.cols, "syr2k_lower: C must be square");
  TDG_CHECK(a.rows == c.rows && b.rows == c.rows && a.cols == b.cols,
            "syr2k_lower: shape mismatch");
  trace::record({trace::OpKind::kSyr2k, c.rows, c.rows, a.cols, 1});
  detail::syr2k_lower_notrace<T>(alpha, a, b, beta, c);
}

template <class T>
void symm_lower(std::type_identity_t<T> alpha,
                std::type_identity_t<ConstMatrixViewT<T>> a,
                std::type_identity_t<ConstMatrixViewT<T>> b,
                std::type_identity_t<T> beta, MatrixViewT<T> c) {
  TDG_CHECK(a.rows == a.cols, "symm_lower: A must be square");
  TDG_CHECK(a.rows == b.rows && b.rows == c.rows && b.cols == c.cols,
            "symm_lower: shape mismatch");
  trace::record({trace::OpKind::kGemm, c.rows, c.cols, a.cols, 1});

  const index_t n = a.rows;
  const index_t w = c.cols;
  if (n == 0 || w == 0) return;
  // Fixed grid of kSymmRB-row by kJB-column blocks; every block writes only
  // its own rows and columns of C.
  const index_t nrb = (n + kSymmRB - 1) / kSymmRB;
  const index_t ncb = (w + kJB - 1) / kJB;
  ThreadPool::global().parallel_for(0, nrb * ncb, [&](index_t t) {
    const index_t i0 = (t % nrb) * kSymmRB;
    const index_t j0 = (t / nrb) * kJB;
    const index_t jb = std::min(kJB, w - j0);
    symm_row_block<T>(alpha, a, b.block(0, j0, n, jb), beta,
                      c.block(0, j0, n, jb), i0, std::min(kSymmRB, n - i0));
  });
}

#define TDG_INSTANTIATE_BLAS3(T)                                            \
  template void gemm<T>(Trans, Trans, T, ConstMatrixViewT<T>,              \
                        ConstMatrixViewT<T>, T, MatrixViewT<T>);           \
  template void syr2k_lower<T>(T, ConstMatrixViewT<T>, ConstMatrixViewT<T>, \
                               T, MatrixViewT<T>);                         \
  template void symm_lower<T>(T, ConstMatrixViewT<T>, ConstMatrixViewT<T>,  \
                              T, MatrixViewT<T>);                          \
  template void detail::gemm_notrace<T>(Trans, Trans, T, ConstMatrixViewT<T>, \
                                        ConstMatrixViewT<T>, T,            \
                                        MatrixViewT<T>);                   \
  template void detail::syr2k_lower_notrace<T>(                            \
      T, ConstMatrixViewT<T>, ConstMatrixViewT<T>, T, MatrixViewT<T>);
TDG_INSTANTIATE_BLAS3(double)
TDG_INSTANTIATE_BLAS3(float)
#undef TDG_INSTANTIATE_BLAS3

}  // namespace tdg::la
