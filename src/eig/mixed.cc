#include "eig/mixed.h"

#include <utility>
#include <vector>

#include "common/cancel.h"
#include "common/timer.h"
#include "core/tridiag.h"
#include "eig/eig.h"
#include "obs/obs.h"

namespace tdg::eig {

MixedOutcome eigh_mixed(ConstMatrixView a, const plan::ResolvedPipeline& cfg,
                        bool use_dc) {
  const index_t n = a.rows;
  TDG_CHECK(a.rows == a.cols && n >= 3, "eigh_mixed: need a square n >= 3");
  MixedOutcome out;
  obs::Span span("eigh_mixed");
  span.attr("n", n);

  // --- FP32 stages 1+2: the resolved two-stage reduction on a float copy
  // of A. The one-stage sytrd has no float instantiation, so a plan that
  // picked it (small n) runs DBBR.
  WallTimer t;
  MatrixT<float> af = converted<float>(a);
  TridiagOptions tri_opts = cfg.tridiag;
  if (tri_opts.method == TridiagMethod::kDirect) {
    tri_opts.method = TridiagMethod::kTwoStageDbbr;
  }
  TridiagResultT<float> tri = tridiagonalize_two_stage(af.view(), tri_opts);
  out.seconds_tridiag = t.seconds();
  cancel::poll("solver");

  // --- FP64 middle: solve the tridiagonal problem at full precision (cheap
  // relative to the reduction; keeps the solver's deflation and convergence
  // logic in its tested precision).
  t.reset();
  out.eigenvalues = std::move(tri.d);
  std::vector<double> e = std::move(tri.e);
  Matrix z(n, n);
  try {
    if (use_dc) {
      stedc(out.eigenvalues, e, z.view(), cfg.smlsiz);
    } else {
      z = Matrix::identity(n);
      MatrixView zv = z.view();
      steqr(out.eigenvalues, e, &zv);
    }
  } catch (const Error& err) {
    if (err.code() != ErrorCode::kNoConvergence) throw;
    out.seconds_solver = t.seconds();
    return out;  // ok = false: the driver reruns in FP64
  }
  out.seconds_solver = t.seconds();
  cancel::poll("backtransform");

  // --- FP32 back transformation: V = Q1 (Q2 Z).
  t.reset();
  MatrixT<float> zf = converted<float>(z.view());
  apply_q(tri, zf.view(), cfg.applyq);
  out.eigenvectors = converted<double>(zf.view());
  out.seconds_backtransform = t.seconds();

  // --- FP64 refinement with residual acceptance.
  t.reset();
  out.refine = refine_eigenpairs(a, out.eigenvalues,
                                 out.eigenvectors.view(), cfg.refine);
  out.seconds_refine = t.seconds();
  out.ok = out.refine.converged;
  span.attr("refine_iters", out.refine.iters);
  span.attr("ok", out.ok ? 1 : 0);
  return out;
}

}  // namespace tdg::eig
