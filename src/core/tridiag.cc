#include "core/tridiag.h"

#include <algorithm>
#include <cmath>
#include <string>

#include "backtransform/apply_q2_blocked.h"
#include "backtransform/backtransform.h"
#include "bc/bulge_chase_parallel.h"
#include "common/thread_pool.h"
#include "lapack/lapack.h"
#include "obs/obs.h"
#include "plan/plan.h"

namespace tdg {

namespace {

TridiagResult tridiag_direct(ConstMatrixView a, const TridiagOptions& opts) {
  TridiagResult r;
  r.method = TridiagMethod::kDirect;
  r.b = 1;

  Matrix work(a.rows, a.cols);
  copy(a, work.view());

  lapack::sytrd(work.view(), r.d, r.e, r.direct_taus, opts.sytrd_nb);
  if (opts.want_factors) {
    r.direct_a = std::move(work);
  }
  return r;
}

}  // namespace

template <class T>
TridiagResultT<T> tridiagonalize_two_stage(MatrixViewT<T> work,
                                           const TridiagOptions& opts) {
  const index_t n = work.rows;
  TridiagResultT<T> r;
  r.method = opts.method;

  const index_t b = std::max<index_t>(1, std::min(opts.b, n - 1));
  r.b = b;

  // Both stages drive the parallel BLAS-3 engine at the requested width.
  ThreadLimit thread_scope(opts.threads);

  if (opts.method == TridiagMethod::kTwoStageDbbr) {
    sbr::BandReductionOptions bo;
    bo.b = b;
    bo.k = std::max(b, (opts.k / b) * b);
    bo.use_square_syr2k = opts.use_square_syr2k;
    bo.threads = opts.threads;
    bo.lookahead = std::max<index_t>(0, opts.knobs.lookahead);
    bo.want_factors = opts.want_factors;
    r.k = bo.k;
    r.stage1 = sbr::dbbr(work, bo);
  } else {
    sbr::BandReductionOptions bo;
    bo.use_square_syr2k = opts.use_square_syr2k;
    bo.threads = opts.threads;
    bo.lookahead = std::max<index_t>(0, opts.knobs.lookahead);
    bo.want_factors = opts.want_factors;
    r.stage1 = sbr::sy2sb(work, b, bo);
  }

  // Stage 2 on the packed (Fig.-10) band layout.
  const index_t kd = std::min<index_t>(2 * b, n - 1);
  SymBandMatrixT<T> band = extract_band<T>(work, b, kd);
  bc::ChaseLogT<T>* log = opts.want_factors ? &r.stage2 : nullptr;

  if (opts.parallel_bc && opts.method == TridiagMethod::kTwoStageDbbr) {
    bc::ParallelChaseOptions po;
    po.threads = opts.bc_threads;
    po.max_parallel_sweeps = opts.max_parallel_sweeps;
    bc::chase_packed_parallel(band, b, po, log);
  } else {
    bc::chase_packed(band, b, log);
  }

  bc::extract_tridiag(band, r.d, r.e);
  return r;
}

void check_lower_finite(ConstMatrixView a, const char* stage) {
  for (index_t j = 0; j < a.cols; ++j) {
    for (index_t i = j; i < a.rows; ++i) {
      if (!std::isfinite(a(i, j))) {
        throw Error(ErrorCode::kInvalidInput,
                    std::string(stage) + ": non-finite input entry at (" +
                        std::to_string(i) + ", " + std::to_string(j) + ")",
                    {stage, i, j});
      }
    }
  }
}

TridiagResult tridiagonalize(ConstMatrixView a, const TridiagOptions& opts) {
  TDG_CHECK(a.rows == a.cols, "tridiagonalize: matrix must be square");
  TDG_CHECK(a.rows >= 1, "tridiagonalize: empty matrix");
  obs::Span span("tridiagonalize", obs::kStage);
  span.attr("n", a.rows);
  if (opts.check_finite) check_lower_finite(a, "tridiagonalize");
  if (a.rows == 1) {
    TridiagResult r;
    r.method = TridiagMethod::kDirect;
    r.b = 1;
    r.d = {a(0, 0)};
    r.direct_a = Matrix(1, 1);
    return r;
  }
  // Resolve unset (zero) knobs through the planner, then validate/clamp the
  // full vector; measure-tier candidates arrive here fully specified with
  // plan = kManual, so the recursion bottoms out after one level.
  const plan::ProblemShape shape{a.rows, opts.want_factors, 0};
  plan::PlannerOptions popts;
  popts.threads = opts.threads;
  TridiagOptions o =
      plan::resolve(opts, a.rows, plan::plan_for(shape, opts.plan, popts));
  o.plan = PlanMode::kManual;
  if (o.method == TridiagMethod::kDirect) {
    return tridiag_direct(a, o);
  }
  Matrix work(a.rows, a.cols);
  copy(a, work.view());
  return tridiagonalize_two_stage(work.view(), o);
}

template <class T>
void apply_q(const TridiagResultT<T>& r, MatrixViewT<T> c,
             const ApplyQOptions& opts) {
  const plan::ProblemShape shape{c.rows, true, c.cols};
  plan::PlannerOptions popts;
  popts.threads = opts.threads;
  const ApplyQOptions o =
      plan::resolve(opts, c.rows, plan::plan_for(shape, opts.plan, popts));
  ThreadLimit thread_scope(o.threads);
  if (r.method == TridiagMethod::kDirect) {
    TDG_CHECK(r.direct_a.rows() == c.rows,
              "apply_q: factors missing or size mismatch");
    if (c.rows >= 3) {
      lapack::apply_sytrd_q_left(r.direct_a.view(), r.direct_taus, c);
    }
    return;
  }
  TDG_CHECK(r.stage2.n == c.rows, "apply_q: factors missing or size mismatch");
  // Q = Q1 Q2, so apply Q2 first, then Q1. Q2 goes through the chunked
  // (column-parallel) application; within-sweep reflectors have disjoint
  // row ranges, so it matches the one-at-a-time order bit for bit.
  bt::apply_q2_left_blocked(r.stage2, c, o.knobs.q2_group);
  bt::apply_q1_blocked(r.stage1, o.knobs.bt_kw, c);
}

void apply_q(const TridiagResult& r, MatrixView c, index_t bt_kw) {
  ApplyQOptions opts;
  opts.knobs.bt_kw = bt_kw;
  apply_q(r, c, opts);
}

#define TDG_INSTANTIATE_TRIDIAG(T)                                           \
  template TridiagResultT<T> tridiagonalize_two_stage<T>(                   \
      MatrixViewT<T>, const TridiagOptions&);                               \
  template void apply_q<T>(const TridiagResultT<T>&, MatrixViewT<T>,        \
                           const ApplyQOptions&);
TDG_INSTANTIATE_TRIDIAG(double)
TDG_INSTANTIATE_TRIDIAG(float)
#undef TDG_INSTANTIATE_TRIDIAG

}  // namespace tdg
