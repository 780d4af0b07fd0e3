#include "eig/mixed.h"

#include <utility>
#include <vector>

#include "common/cancel.h"
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
  MatrixT<float> af;
  TridiagResultT<float> tri;
  {
    obs::Span tri_span("tridiagonalize", obs::kStage);
    tri_span.attr("n", n);
    af = converted<float>(a);
    TridiagOptions tri_opts = cfg.tridiag;
    if (tri_opts.method == TridiagMethod::kDirect) {
      tri_opts.method = TridiagMethod::kTwoStageDbbr;
    }
    tri = tridiagonalize_two_stage(af.view(), tri_opts);
  }
  cancel::poll("solver");

  // --- FP64 middle: solve the tridiagonal problem at full precision (cheap
  // relative to the reduction; keeps the solver's deflation and convergence
  // logic in its tested precision).
  Matrix z;
  {
    obs::Span solver_span("solver", obs::kStage);
    solver_span.attr("n", n);
    out.eigenvalues = std::move(tri.d);
    std::vector<double> e = std::move(tri.e);
    z = Matrix(n, n);
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
      return out;  // ok = false: the driver reruns in FP64
    }
  }
  cancel::poll("backtransform");

  // --- FP32 back transformation: V = Q1 (Q2 Z).
  MatrixT<float> zf;
  {
    obs::Span bt_span("backtransform", obs::kStage);
    bt_span.attr("n", n);
    zf = converted<float>(z.view());
    apply_q(tri, zf.view(), cfg.applyq);
    out.eigenvectors = converted<double>(zf.view());
  }

  // --- FP64 refinement with residual acceptance.
  out.refine = refine_eigenpairs(a, out.eigenvalues,
                                 out.eigenvectors.view(), cfg.refine);
  out.ok = out.refine.converged;
  span.attr("refine_iters", out.refine.iters);
  span.attr("ok", out.ok ? 1 : 0);
  return out;
}

}  // namespace tdg::eig
