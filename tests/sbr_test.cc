// Tests for stage 1: classic SBR (sy2sb) and the paper's DBBR (Algorithm 1),
// plus the back transformations that reconstruct Q1.

#include <algorithm>
#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "backtransform/backtransform.h"
#include "band/sym_band.h"
#include "common/rng.h"
#include "common/trace.h"
#include "la/blas.h"
#include "la/generate.h"
#include "sbr/sbr.h"

namespace tdg {
namespace {

// Explicit Q1 from the panel factors (identity run through the conventional
// back transformation).
Matrix build_q1(const sbr::BandFactor& f) {
  Matrix q = Matrix::identity(f.n);
  bt::apply_q1_conventional(f, q.view());
  return q;
}

// || A0 - Q1 B Q1^T ||_max, where B is the band result (lower triangle of
// the reduced matrix, mirrored).
double reconstruction_error(ConstMatrixView a0, MatrixView reduced,
                            const sbr::BandFactor& f) {
  symmetrize_from_lower(reduced);
  const Matrix q = build_q1(f);
  Matrix qb(f.n, f.n);
  la::gemm(Trans::kNo, Trans::kNo, 1.0, q.view(), reduced, 0.0, qb.view());
  Matrix qbqt(f.n, f.n);
  la::gemm(Trans::kNo, Trans::kTrans, 1.0, qb.view(), q.view(), 0.0,
           qbqt.view());
  return max_abs_diff(qbqt.view(), a0);
}

class Sy2sbTest : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(Sy2sbTest, ProducesBandAndExactSimilarity) {
  const auto [n, b] = GetParam();
  Rng rng(1000 + n * 7 + b);
  const Matrix a0 = random_symmetric(n, rng);
  Matrix a = a0;

  sbr::BandFactor f = sbr::sy2sb(a.view(), b);

  EXPECT_LT(off_band_max(a.view(), b), 1e-11 * n) << "result not band-form";
  EXPECT_LT(orthogonality_error(build_q1(f).view()), 1e-12 * n);
  EXPECT_LT(reconstruction_error(a0.view(), a.view(), f), 1e-10 * n);
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, Sy2sbTest,
    ::testing::Values(std::tuple{16, 4}, std::tuple{24, 8}, std::tuple{33, 4},
                      std::tuple{40, 8}, std::tuple{64, 16},
                      std::tuple{65, 16}, std::tuple{37, 5},
                      std::tuple{12, 2}, std::tuple{70, 32},
                      std::tuple{9, 8}));

class DbbrTest
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(DbbrTest, ProducesBandAndExactSimilarity) {
  const auto [n, b, k] = GetParam();
  Rng rng(2000 + n * 13 + b + k);
  const Matrix a0 = random_symmetric(n, rng);
  Matrix a = a0;

  sbr::BandReductionOptions opts;
  opts.b = b;
  opts.k = k;
  sbr::BandFactor f = sbr::dbbr(a.view(), opts);

  EXPECT_LT(off_band_max(a.view(), b), 1e-11 * n) << "result not band-form";
  EXPECT_LT(orthogonality_error(build_q1(f).view()), 1e-12 * n);
  EXPECT_LT(reconstruction_error(a0.view(), a.view(), f), 1e-10 * n);
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, DbbrTest,
    ::testing::Values(std::tuple{16, 4, 8}, std::tuple{32, 4, 16},
                      std::tuple{33, 4, 16}, std::tuple{48, 8, 16},
                      std::tuple{64, 8, 32}, std::tuple{65, 8, 32},
                      std::tuple{40, 4, 4},   // k == b degenerates to SBR
                      std::tuple{70, 16, 32}, std::tuple{51, 2, 8},
                      std::tuple{96, 32, 64}, std::tuple{21, 8, 16}));

TEST(Dbbr, BandEqualsSy2sbBand) {
  // With the same panel width the reflectors are identical, so DBBR must
  // produce the same band matrix as classic SBR (up to roundoff), not just
  // an orthogonally-equivalent one.
  Rng rng(31);
  const index_t n = 48, b = 8;
  const Matrix a0 = random_symmetric(n, rng);

  Matrix a1 = a0;
  sbr::BandFactor f1 = sbr::sy2sb(a1.view(), b);

  Matrix a2 = a0;
  sbr::BandReductionOptions opts;
  opts.b = b;
  opts.k = 16;
  sbr::BandFactor f2 = sbr::dbbr(a2.view(), opts);

  double maxd = 0.0;
  for (index_t j = 0; j < n; ++j)
    for (index_t i = j; i <= std::min(n - 1, j + b); ++i)
      maxd = std::max(maxd, std::abs(a1(i, j) - a2(i, j)));
  EXPECT_LT(maxd, 1e-10 * n);
  ASSERT_EQ(f1.panels.size(), f2.panels.size());
}

TEST(Dbbr, SquareAndReferenceSyr2kAgree) {
  Rng rng(32);
  const index_t n = 40;
  const Matrix a0 = random_symmetric(n, rng);

  sbr::BandReductionOptions o1;
  o1.b = 4;
  o1.k = 16;
  o1.use_square_syr2k = true;
  o1.syr2k_block = 8;
  Matrix a1 = a0;
  sbr::dbbr(a1.view(), o1);

  sbr::BandReductionOptions o2 = o1;
  o2.use_square_syr2k = false;
  Matrix a2 = a0;
  sbr::dbbr(a2.view(), o2);

  double maxd = 0.0;
  for (index_t j = 0; j < n; ++j)
    for (index_t i = j; i < n; ++i)
      maxd = std::max(maxd, std::abs(a1(i, j) - a2(i, j)));
  EXPECT_LT(maxd, 1e-10);
}

TEST(Dbbr, TraceShowsFatSyr2k) {
  // The whole point of DBBR: trailing syr2k inner dimension is k, not b.
  Rng rng(33);
  const index_t n = 96, b = 8, k = 32;
  Matrix a = random_symmetric(n, rng);

  sbr::BandReductionOptions opts;
  opts.b = b;
  opts.k = k;
  opts.use_square_syr2k = false;  // keep trailing updates as single syr2k ops

  trace::Recorder rec;
  {
    trace::Scope scope(rec);
    sbr::dbbr(a.view(), opts);
  }
  index_t max_inner = 0;
  for (const auto& op : rec.ops()) {
    if (op.kind == trace::OpKind::kSyr2k) max_inner = std::max(max_inner, op.k);
  }
  EXPECT_EQ(max_inner, k);

  // Classic SBR keeps the inner dimension at b.
  Rng rng2(33);
  Matrix a2 = random_symmetric(n, rng2);
  trace::Recorder rec2;
  {
    trace::Scope scope(rec2);
    sbr::BandReductionOptions o2;
    o2.use_square_syr2k = false;
    sbr::sy2sb(a2.view(), b, o2);
  }
  index_t max_inner2 = 0;
  for (const auto& op : rec2.ops()) {
    if (op.kind == trace::OpKind::kSyr2k)
      max_inner2 = std::max(max_inner2, op.k);
  }
  EXPECT_EQ(max_inner2, b);
}

TEST(BackTransform, AllVariantsAgree) {
  Rng rng(41);
  const index_t n = 60, b = 4;
  Matrix a = random_symmetric(n, rng);
  sbr::BandReductionOptions opts;
  opts.b = b;
  opts.k = 16;
  sbr::BandFactor f = sbr::dbbr(a.view(), opts);

  Matrix c0 = random_matrix(n, 7, rng);
  Matrix c1 = c0, c2 = c0, c3 = c0, c4 = c0;
  bt::apply_q1_conventional(f, c1.view());
  bt::apply_q1_recursive(f, c2.view());
  bt::apply_q1_blocked(f, 16, c3.view());
  bt::apply_q1_blocked(f, 4, c4.view());  // group == 1 panel

  EXPECT_LT(max_abs_diff(c1.view(), c2.view()), 1e-10);
  EXPECT_LT(max_abs_diff(c1.view(), c3.view()), 1e-10);
  EXPECT_LT(max_abs_diff(c1.view(), c4.view()), 1e-10);
}

TEST(BackTransform, MergedWyReproducesExplicitProduct) {
  Rng rng(42);
  const index_t n = 36, b = 4;
  Matrix a = random_symmetric(n, rng);
  sbr::BandFactor f = sbr::sy2sb(a.view(), b);
  ASSERT_GE(f.panels.size(), 2u);

  // Q from merged WY vs Q from sequential application.
  const bt::MergedWy m = bt::merge_panels(f, 0, f.panels.size());
  Matrix q1(n, n);
  q1 = Matrix::identity(n);
  {
    MatrixView sub = q1.block(m.row0, 0, n - m.row0, n);
    Matrix t(m.y.cols(), n);
    la::gemm(Trans::kTrans, Trans::kNo, 1.0, m.y.view(), sub, 0.0, t.view());
    la::gemm(Trans::kNo, Trans::kNo, -1.0, m.w.view(), t.view(), 1.0, sub);
  }
  const Matrix q2 = build_q1(f);
  EXPECT_LT(max_abs_diff(q1.view(), q2.view()), 1e-11);
}

TEST(SymBand, PackedRoundTripAndOffBand) {
  Rng rng(51);
  const index_t n = 20, b = 3;
  const Matrix a = random_symmetric_band(n, b, rng);
  const SymBandMatrix band = extract_band(a.view(), b, 2 * b);
  EXPECT_EQ(off_band_max(band, b), 0.0);
  const Matrix back = band.to_dense();
  EXPECT_LT(max_abs_diff(back.view(), a.view()), 1e-15);
  EXPECT_DOUBLE_EQ(band.sym_at(0, 5), 0.0);  // outside stored band
  EXPECT_DOUBLE_EQ(band.sym_at(2, 4), band.sym_at(4, 2));
}

TEST(SymBand, RejectsBadBandwidth) {
  EXPECT_THROW(SymBandMatrix(4, 4), Error);
  Matrix a(5, 5);
  EXPECT_THROW(extract_band(a.view(), 3, 2), Error);
}

// The look-ahead DAG schedule must be bitwise identical to the barrier
// schedule — same tile grid, same kernels, same inputs — at every thread
// count, for both reductions. 0.0 tolerance everywhere: band matrix AND
// reflector panels.
// max |x - y| of two same-shape matrices of scalar type T, in FP64 (exact
// for float: promotion is lossless).
template <class T>
double max_abs_diff_of(const MatrixT<T>& x, const MatrixT<T>& y) {
  return max_abs_diff(converted<double>(x.view()).view(),
                      converted<double>(y.view()).view());
}

// DBBR in scalar type T on a0 rounded to T, at every schedule and thread
// count, against the single-threaded barrier schedule in T.
template <class T>
void expect_dbbr_schedules_match(const Matrix& a0) {
  const index_t n = a0.rows();
  sbr::BandReductionOptions base;
  base.b = 8;
  base.k = 32;
  base.syr2k_block = 16;  // several tiles per trailing update

  // Barrier reference, single-threaded.
  MatrixT<T> ref = converted<T>(a0.view());
  sbr::BandFactorT<T> fref;
  {
    sbr::BandReductionOptions o = base;
    o.threads = 1;
    o.lookahead = 0;
    fref = sbr::dbbr(ref.view(), o);
  }

  for (const int threads : {1, 2, 8}) {
    for (const index_t la : {index_t{0}, index_t{1}}) {
      MatrixT<T> a = converted<T>(a0.view());
      sbr::BandReductionOptions o = base;
      o.threads = threads;
      o.lookahead = la;
      const sbr::BandFactorT<T> f = sbr::dbbr(a.view(), o);
      EXPECT_EQ(max_abs_diff_of(a, ref), 0.0)
          << "n=" << n << " threads=" << threads << " lookahead=" << la
          << " sizeof(T)=" << sizeof(T);
      ASSERT_EQ(f.panels.size(), fref.panels.size());
      for (size_t p = 0; p < f.panels.size(); ++p) {
        EXPECT_EQ(f.panels[p].row0, fref.panels[p].row0);
        EXPECT_EQ(max_abs_diff_of(f.panels[p].v, fref.panels[p].v), 0.0)
            << "n=" << n << " panel " << p << " threads=" << threads
            << " la=" << la << " sizeof(T)=" << sizeof(T);
        EXPECT_EQ(max_abs_diff_of(f.panels[p].t, fref.panels[p].t), 0.0);
      }
    }
  }
}

TEST(Lookahead, DbbrBitwiseIdenticalToBarrierAcrossThreadCounts) {
  // n = 97: the partial final panel exercises the fixup node. n = 300: the
  // first panels' A V products span several symm_lower row blocks. Both
  // scalar types.
  for (const index_t n : {index_t{97}, index_t{300}}) {
    Rng rng(777);
    const Matrix a0 = random_symmetric(n, rng);
    expect_dbbr_schedules_match<double>(a0);
    expect_dbbr_schedules_match<float>(a0);
  }
}

TEST(Lookahead, Sy2sbBitwiseIdenticalToBarrierAcrossThreadCounts) {
  const index_t n = 83;
  const index_t b = 8;
  Rng rng(778);
  const Matrix a0 = random_symmetric(n, rng);

  sbr::BandReductionOptions base;
  base.syr2k_block = 16;

  Matrix ref = a0;
  sbr::BandFactor fref;
  {
    sbr::BandReductionOptions o = base;
    o.threads = 1;
    o.lookahead = 0;
    fref = sbr::sy2sb(ref.view(), b, o);
  }

  for (const int threads : {1, 2, 8}) {
    for (const index_t la : {index_t{0}, index_t{1}}) {
      Matrix a = a0;
      sbr::BandReductionOptions o = base;
      o.threads = threads;
      o.lookahead = la;
      const sbr::BandFactor f = sbr::sy2sb(a.view(), b, o);
      EXPECT_EQ(max_abs_diff(a.view(), ref.view()), 0.0)
          << "threads=" << threads << " lookahead=" << la;
      ASSERT_EQ(f.panels.size(), fref.panels.size());
      for (size_t p = 0; p < f.panels.size(); ++p) {
        EXPECT_EQ(f.panels[p].row0, fref.panels[p].row0);
        EXPECT_EQ(max_abs_diff(f.panels[p].v.view(), fref.panels[p].v.view()),
                  0.0);
        EXPECT_EQ(max_abs_diff(f.panels[p].t.view(), fref.panels[p].t.view()),
                  0.0);
      }
    }
  }
}

// An active op trace forces the barrier path (pool workers carry no
// recorder), so tracing a look-ahead run still yields the canonical trace.
TEST(Lookahead, TraceFallsBackToBarrierSchedule) {
  const index_t n = 48;
  Rng rng(779);
  const Matrix a0 = random_symmetric(n, rng);

  sbr::BandReductionOptions o;
  o.b = 8;
  o.k = 16;
  o.threads = 8;

  trace::Recorder rec_barrier;
  {
    Matrix a = a0;
    o.lookahead = 0;
    trace::Scope scope(rec_barrier);
    sbr::dbbr(a.view(), o);
  }
  trace::Recorder rec_la;
  Matrix a_la = a0;
  {
    o.lookahead = 1;
    trace::Scope scope(rec_la);
    sbr::dbbr(a_la.view(), o);
  }
  ASSERT_EQ(rec_la.ops().size(), rec_barrier.ops().size());
  for (size_t i = 0; i < rec_la.ops().size(); ++i) {
    EXPECT_EQ(rec_la.ops()[i].kind, rec_barrier.ops()[i].kind);
    EXPECT_EQ(rec_la.ops()[i].m, rec_barrier.ops()[i].m);
    EXPECT_EQ(rec_la.ops()[i].n, rec_barrier.ops()[i].n);
    EXPECT_EQ(rec_la.ops()[i].k, rec_barrier.ops()[i].k);
  }
}

}  // namespace
}  // namespace tdg
