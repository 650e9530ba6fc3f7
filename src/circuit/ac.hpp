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

/// Sweep `freqs_hz`, one dense LU factorization per frequency point.
AcResult run_ac(const Circuit& ckt, const std::vector<double>& freqs_hz,
                const std::vector<NodeId>& probes);

/// Logarithmically spaced frequency grid (inclusive endpoints).
std::vector<double> log_freq_grid(double f_start_hz, double f_stop_hz, int points_per_decade);

}  // namespace gia::circuit
