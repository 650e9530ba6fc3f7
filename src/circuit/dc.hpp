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

/// Solve the operating point with every stimulus evaluated at time `t`, by
/// dense LU. Throws std::runtime_error on a singular system.
DcSolution solve_dc(const Circuit& ckt, double t = 0.0);

}  // namespace gia::circuit
