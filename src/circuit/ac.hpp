#pragma once

#include <complex>
#include <vector>

#include "circuit/circuit.hpp"

/// \file ac.hpp
/// Small-signal AC sweep. Sources participate with their `ac_mag` (phase 0);
/// all other stimuli are quiesced. The PDN impedance profile of Fig 15 is an
/// AC sweep with a 1 A current source injected at the bump node.

namespace gia::circuit {

struct AcResult {
  std::vector<double> freq_hz;
  /// node_v[p][f] = phasor of probe p at freq_hz[f].
  std::vector<std::vector<std::complex<double>>> node_v;
};

/// Sweep `freqs_hz` on the path `use_sparse_mna` (circuit/sparse.hpp) picks
/// by unknown count.
AcResult run_ac(const Circuit& ckt, const std::vector<double>& freqs_hz,
                const std::vector<NodeId>& probes);

/// The two paths behind run_ac, exposed for direct comparison (tests,
/// benches): dense LU per point, or one CSR pattern with ILU(0)-BiCGSTAB
/// per point (throws std::runtime_error when a point fails to converge).
AcResult run_ac_dense(const Circuit& ckt, const std::vector<double>& freqs_hz,
                      const std::vector<NodeId>& probes);
AcResult run_ac_sparse(const Circuit& ckt, const std::vector<double>& freqs_hz,
                       const std::vector<NodeId>& probes);

/// Logarithmically spaced frequency grid (inclusive endpoints).
std::vector<double> log_freq_grid(double f_start_hz, double f_stop_hz, int points_per_decade);

}  // namespace gia::circuit
