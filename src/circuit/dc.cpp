#include "circuit/dc.hpp"

#include "circuit/dense_lu.hpp"
#include "circuit/mna.hpp"

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

void assemble_dc(const Circuit& ckt, RealMatrix& A) {
  stamp_static(ckt, A);
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

DcSolution solve_dc(const Circuit& ckt, double t) {
  const int m = ckt.unknown_count();
  RealMatrix A(m);
  assemble_dc(ckt, A);
  LuFactor<double> lu(std::move(A));
  DcSolution out;
  out.ckt = &ckt;
  out.x = lu.solve(dc_rhs(ckt, t));
  return out;
}

}  // namespace gia::circuit
