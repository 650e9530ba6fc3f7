#include "circuit/dc.hpp"

#include "circuit/dense_lu.hpp"
#include "circuit/mna.hpp"
#include "circuit/sparse.hpp"
#include "core/instrument.hpp"

namespace gia::circuit {

double DcSolution::voltage(NodeId n) const {
  if (n == kGround) return 0.0;
  return x.at(static_cast<std::size_t>(node_row(n)));
}

double DcSolution::vsource_current(int j) const {
  return x.at(static_cast<std::size_t>(ckt->vsource_current_index(j)));
}

double DcSolution::inductor_current(int j) const {
  return x.at(static_cast<std::size_t>(ckt->inductor_current_index(j)));
}

namespace {

/// DC system assembly, shared verbatim by the dense and sparse backends
/// (`M` is RealMatrix or RealSparseMatrix -- both stamp via add(r, c, v)).
template <typename M>
void assemble_dc(const Circuit& ckt, M& A) {
  stamp_static<double>(ckt, A);
  // gmin keeps nodes that only connect through capacitors solvable at DC,
  // the standard SPICE convergence aid.
  constexpr double gmin = 1e-12;
  for (int n = 0; n < ckt.node_count() - 1; ++n) A.add(n, n, gmin);

  // Inductors are shorts: branch current unknown with constraint va - vb = 0.
  const auto& ls = ckt.inductors();
  for (int j = 0; j < static_cast<int>(ls.size()); ++j) {
    stamp_branch_incidence(A, ls[static_cast<std::size_t>(j)].a, ls[static_cast<std::size_t>(j)].b,
                           ckt.inductor_current_index(j), 1.0);
  }
  // Capacitors are open: no stamp.
}

std::vector<double> dc_rhs(const Circuit& ckt, double t) {
  std::vector<double> rhs(static_cast<std::size_t>(ckt.unknown_count()), 0.0);
  const auto& vs = ckt.vsources();
  for (int j = 0; j < static_cast<int>(vs.size()); ++j) {
    rhs[static_cast<std::size_t>(ckt.vsource_current_index(j))] =
        vs[static_cast<std::size_t>(j)].v.at(t);
  }
  for (const auto& is : ckt.isources()) {
    const double val = is.i.at(t);
    const int rf = node_row(is.from), rt = node_row(is.to);
    if (rf >= 0) rhs[static_cast<std::size_t>(rf)] -= val;
    if (rt >= 0) rhs[static_cast<std::size_t>(rt)] += val;
  }
  return rhs;
}

}  // namespace

DcSolution solve_dc_dense(const Circuit& ckt, double t) {
  const int m = ckt.unknown_count();
  RealMatrix A(m);
  assemble_dc(ckt, A);
  LuFactor<double> lu(std::move(A));
  DcSolution out;
  out.ckt = &ckt;
  out.x = lu.solve(dc_rhs(ckt, t));
  return out;
}

DcSolution solve_dc_sparse(const Circuit& ckt, double t) {
  const int m = ckt.unknown_count();
  RealSparseMatrix A(m);
  assemble_dc(ckt, A);
  A.finalize();
  const std::vector<double> rhs = dc_rhs(ckt, t);
  // Equilibrate: the DC system mixes 1e-12 gmin with milliohm-path
  // conductances, far beyond what ILU(0)+BiCGSTAB can solve to tight
  // tolerance unscaled.
  const std::vector<double> d = equilibration_scales(A.view());
  apply_equilibration(A, d);
  std::vector<double> b(static_cast<std::size_t>(m));
  for (int i = 0; i < m; ++i) b[static_cast<std::size_t>(i)] = rhs[static_cast<std::size_t>(i)] * d[static_cast<std::size_t>(i)];
  const Ilu0Preconditioner<double> ilu(A.view());
  std::vector<double> x(static_cast<std::size_t>(m), 0.0);
  const auto stats = bicgstab(A.view(), b, x, ilu);
  if (stats.converged) {
    for (int i = 0; i < m; ++i) x[static_cast<std::size_t>(i)] *= d[static_cast<std::size_t>(i)];
    DcSolution out;
    out.ckt = &ckt;
    out.x = std::move(x);
    return out;
  }
  // ILU(0) cannot pivot, and small saddle chains (e.g. the IVR settling
  // circuit: vsource-R-L-R-L ladders) produce exact-cancellation pivots
  // that only row exchanges cure -- equilibration does not help because
  // the cancellation is structural, not a unit mismatch. Fall back to
  // pivoted dense LU where it is affordable; genuinely singular systems
  // still throw from inside the factorization, and at production scale
  // (where dense would be the very cost this backend exists to avoid)
  // non-convergence stays a loud failure.
  constexpr int kDenseFallbackMaxUnknowns = 2048;
  if (m > kDenseFallbackMaxUnknowns) {
    throw std::runtime_error(
        "sparse DC solve failed to converge (singular MNA matrix / floating node?)");
  }
  return solve_dc_dense(ckt, t);
}

DcSolution solve_dc(const Circuit& ckt, double t) {
  const bool sparse = use_sparse_mna(ckt.unknown_count());
  if (core::instrument::enabled()) {
    core::instrument::gauge_set("solver_backend.circuit_dc", sparse ? 1.0 : 0.0);
  }
  return sparse ? solve_dc_sparse(ckt, t) : solve_dc_dense(ckt, t);
}

}  // namespace gia::circuit
