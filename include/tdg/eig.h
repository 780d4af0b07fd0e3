// Public umbrella header for the tdg eigensolver API.
//
// This is the one include consumers (examples, benches, downstream code)
// need for the full driver surface:
//
//   tdg::eig::eigh          — full symmetric EVD, A = V diag(w) V^T
//   tdg::eig::eigh_range    — subset EVD over eigenvalue indices [il, iu]
//   tdg::eig::eigh_batched  — B independent small EVDs, one per pool worker
//   tdg::eig::validate      — resolve an EvdOptions exactly as eigh would,
//                             without running (mode normalization, knob
//                             folding, range checks)
//   tdg::tridiagonalize / tdg::apply_q — the two-stage pipeline pieces
//
// plus every option struct they take (EvdOptions, BatchOptions,
// TridiagOptions, ApplyQOptions, plan::Knobs), the planner's public types
// (PlanMode, plan::Plan, plan::ProblemShape, plan::plan_for) for plan
// sharing via the eigh(..., plan) overloads, and the Matrix types.
//
// Execution modes (the one spelling — EvdOptions::mode, plan::EvdMode):
//
//   kStandard       — full-FP64 pipeline, bitwise-stable default
//   kValuesOnly     — eigenvalues only; Q1/Q2 accumulation skipped, peak
//                     workspace strictly below the standard path
//   kMixedPrecision — FP32 band reduction + bulge chase, FP64 tridiagonal
//                     solve + Ogita–Aishima refinement; automatic rerun in
//                     full FP64 on refinement failure (recovery
//                     "fp32->fp64")
//
// `vectors` and `mode` are one axis: eigh normalizes them against each
// other (EvdOptions::mode docs); use tdg::eig::validate to see the
// resolved configuration up front.
//
// Internal headers under src/ remain includable for white-box use (the
// figure-reproduction benches reach into src/gpumodel, for instance), but
// everything needed to *call* the library is re-exported here; new code
// should prefer `#include <tdg/eig.h>` over reaching into src/... paths.
#pragma once

#include "core/tridiag.h"   // tridiagonalize, apply_q, TridiagOptions
#include "eig/batched.h"    // eigh_batched, BatchOptions, BatchResult
#include "eig/drivers.h"    // eigh, eigh_range, EvdOptions, EvdResult
#include "eig/eig.h"        // steqr, stedc (tridiagonal kernels)
#include "la/matrix.h"      // Matrix, MatrixView, ConstMatrixView
#include "obs/obs.h"        // obs::SolveRecord, obs::RecordScope (stage times)
#include "plan/knobs.h"     // plan::Knobs (consolidated knob sub-struct)
#include "plan/plan.h"      // PlanMode, plan::Plan, plan::plan_for
