#include "bc/bulge_chase.h"

#include "obs/obs.h"

namespace tdg::bc {

namespace {

struct NoWait {
  void operator()(index_t) const {}
};

template <class Acc>
void chase_all_sequential(const Acc& acc, index_t b,
                          ChaseLogT<typename Acc::value_type>* log) {
  const index_t n = acc.n();
  if (log != nullptr) {
    log->n = n;
    log->b = b;
    log->sweeps.assign(static_cast<std::size_t>(std::max<index_t>(n - 2, 0)),
                       {});
  }
  if (b <= 1) return;  // bandwidth 1 is already tridiagonal
  obs::Span span("bulge_chase");
  span.attr("n", n);
  span.attr("b", b);
  span.attr("nsweeps", std::max<index_t>(n - 2, 0));
  for (index_t i = 0; i + 2 < n; ++i) {
    auto* sl =
        (log != nullptr) ? &log->sweeps[static_cast<std::size_t>(i)] : nullptr;
    chase_sweep(acc, b, i, sl, NoWait{}, NoWait{});
  }
}

}  // namespace

template <class T>
void chase_dense(MatrixViewT<T> a, index_t b,
                 std::type_identity_t<ChaseLogT<T>>* log) {
  TDG_CHECK(a.rows == a.cols, "chase_dense: matrix must be square");
  TDG_CHECK(b >= 1, "chase_dense: bandwidth must be positive");
  DenseLowerAccessor acc{a};
  chase_all_sequential(acc, b, log);
}

template <class T>
void chase_packed(SymBandMatrixT<T>& band, index_t b,
                  std::type_identity_t<ChaseLogT<T>>* log) {
  TDG_CHECK(b >= 1, "chase_packed: bandwidth must be positive");
  TDG_CHECK(band.kd() >= std::min(2 * b, band.n() - 1),
            "chase_packed: storage bandwidth must be >= 2b for bulge room");
  PackedLowerAccessor acc{&band};
  chase_all_sequential(acc, b, log);
}

void extract_tridiag(ConstMatrixView a, std::vector<double>& d,
                     std::vector<double>& e) {
  const index_t n = a.rows;
  d.assign(static_cast<std::size_t>(n), 0.0);
  e.assign(static_cast<std::size_t>(std::max<index_t>(n - 1, 0)), 0.0);
  for (index_t i = 0; i < n; ++i) {
    d[static_cast<std::size_t>(i)] = a(i, i);
    if (i + 1 < n) e[static_cast<std::size_t>(i)] = a(i + 1, i);
  }
}

template <class T>
void extract_tridiag(const SymBandMatrixT<T>& band, std::vector<double>& d,
                     std::vector<double>& e) {
  const index_t n = band.n();
  d.assign(static_cast<std::size_t>(n), 0.0);
  e.assign(static_cast<std::size_t>(std::max<index_t>(n - 1, 0)), 0.0);
  for (index_t i = 0; i < n; ++i) {
    d[static_cast<std::size_t>(i)] = band.at(i, i);
    if (i + 1 < n) e[static_cast<std::size_t>(i)] = band.at(i + 1, i);
  }
}

#define TDG_INSTANTIATE_CHASE(T)                                             \
  template void chase_dense<T>(MatrixViewT<T>, index_t, ChaseLogT<T>*);     \
  template void chase_packed<T>(SymBandMatrixT<T>&, index_t, ChaseLogT<T>*); \
  template void extract_tridiag<T>(const SymBandMatrixT<T>&,                \
                                   std::vector<double>&, std::vector<double>&);
TDG_INSTANTIATE_CHASE(double)
TDG_INSTANTIATE_CHASE(float)
#undef TDG_INSTANTIATE_CHASE

void apply_q2_left(const ChaseLog& log, MatrixView c) {
  TDG_CHECK(c.rows == log.n, "apply_q2_left: row mismatch");
  std::vector<double> v(static_cast<std::size_t>(std::max<index_t>(log.b, 1)));
  std::vector<double> work(static_cast<std::size_t>(c.cols));

  // Q2 = H_1 H_2 ... H_K in execution order, so Q2 * C applies reflectors in
  // reverse execution order (last sweep's last step first).
  for (auto sweep = log.sweeps.rbegin(); sweep != log.sweeps.rend(); ++sweep) {
    for (auto step = sweep->steps.rbegin(); step != sweep->steps.rend();
         ++step) {
      if (step->tau == 0.0) continue;
      v[0] = 1.0;
      for (index_t r = 1; r < step->len; ++r) {
        v[static_cast<std::size_t>(r)] =
            sweep->vpool[static_cast<std::size_t>(step->voff + r - 1)];
      }
      lapack::larf_left(v.data(), step->tau,
                        c.block(step->row0, 0, step->len, c.cols),
                        work.data());
    }
  }
}

}  // namespace tdg::bc
