#pragma once

#include "circuit/circuit.hpp"
#include "circuit/dense_lu.hpp"

/// \file mna.hpp
/// Shared modified-nodal-analysis stamping. Unknowns: node voltages for
/// nodes 1..N-1 (ground eliminated), then branch currents for voltage
/// sources, inductors, and VCVS outputs, in the order Circuit defines.

namespace gia::circuit {

/// Map a node to its unknown row, or -1 for ground.
inline int node_row(NodeId n) { return n - 1; }

/// Stamp a conductance g between nodes a and b.
template <typename T>
void stamp_conductance(DenseMatrix<T>& mat, NodeId a, NodeId b, T g) {
  const int ra = node_row(a), rb = node_row(b);
  if (ra >= 0) mat.add(ra, ra, g);
  if (rb >= 0) mat.add(rb, rb, g);
  if (ra >= 0 && rb >= 0) {
    mat.add(ra, rb, -g);
    mat.add(rb, ra, -g);
  }
}

/// Stamp the current-branch incidence for a two-terminal branch whose
/// current unknown is column `col`, flowing from `a` to `b`: KCL rows plus
/// the (a - b) part of the branch equation row.
template <typename T>
void stamp_branch_incidence(DenseMatrix<T>& mat, NodeId a, NodeId b, int col, T one) {
  const int ra = node_row(a), rb = node_row(b);
  if (ra >= 0) { mat.add(ra, col, one); mat.add(col, ra, one); }
  if (rb >= 0) { mat.add(rb, col, -one); mat.add(col, rb, -one); }
}

/// Stamp the elements whose pattern is identical in DC, AC and transient:
/// resistors, voltage-source branch incidence, VCVS constraints. (Values of
/// dynamic elements and RHS differ per analysis.) Templated on the scalar so
/// the same stamping code fills the real and complex matrices.
template <typename T>
void stamp_static(const Circuit& ckt, DenseMatrix<T>& A) {
  for (const auto& r : ckt.resistors()) {
    stamp_conductance(A, r.a, r.b, T{1.0 / r.ohms});
  }
  const auto& vs = ckt.vsources();
  for (int j = 0; j < static_cast<int>(vs.size()); ++j) {
    stamp_branch_incidence(A, vs[static_cast<std::size_t>(j)].plus,
                           vs[static_cast<std::size_t>(j)].minus, ckt.vsource_current_index(j),
                           T{1.0});
  }
  const auto& es = ckt.vcvs();
  for (int j = 0; j < static_cast<int>(es.size()); ++j) {
    const auto& e = es[static_cast<std::size_t>(j)];
    const int col = ckt.vcvs_current_index(j);
    // KCL incidence for the output branch + (out_p - out_n) in the row.
    stamp_branch_incidence(A, e.out_p, e.out_n, col, T{1.0});
    // -gain * (ctrl_p - ctrl_n) completes the constraint row.
    const int rp = node_row(e.ctrl_p), rn = node_row(e.ctrl_n);
    if (rp >= 0) A.add(col, rp, T{-e.gain});
    if (rn >= 0) A.add(col, rn, T{e.gain});
  }
}

}  // namespace gia::circuit
