#pragma once

#include <vector>

#include "circuit/circuit.hpp"

/// \file dc.hpp
/// DC operating point: capacitors open, inductors short. Used standalone
/// (PDN IR drop) and to initialize transients.

namespace gia::circuit {

struct DcSolution {
  std::vector<double> x;  ///< full unknown vector
  const Circuit* ckt = nullptr;

  double voltage(NodeId n) const;
  double vsource_current(int j) const;
  double inductor_current(int j) const;
};

/// Solve the operating point with every stimulus evaluated at time `t`, on
/// the path `use_sparse_mna` (circuit/sparse.hpp) picks by unknown count.
DcSolution solve_dc(const Circuit& ckt, double t = 0.0);

/// The two paths behind solve_dc, exposed for direct comparison (tests,
/// benches). The sparse path equilibrates and runs ILU(0)-BiCGSTAB, falling
/// back to dense LU when that fails to converge on a system small enough to
/// afford it. Both throw std::runtime_error on a singular system.
DcSolution solve_dc_dense(const Circuit& ckt, double t = 0.0);
DcSolution solve_dc_sparse(const Circuit& ckt, double t = 0.0);

}  // namespace gia::circuit
