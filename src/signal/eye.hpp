#pragma once

#include "circuit/waveform.hpp"
#include "signal/link_sim.hpp"

/// \file eye.hpp
/// Eye-diagram construction and measurement (Fig 14). The receiver-pad
/// waveform is folded at the unit interval; eye width comes from the spread
/// of threshold crossings, eye height from the worst-case high/low levels at
/// the optimal sampling phase.

namespace gia::signal {

struct EyeResult {
  double width_s = 0;    ///< horizontal opening at the threshold
  double height_v = 0;   ///< vertical opening at the sampling phase
  double ui_s = 0;
  /// Opening ratios (normalized to UI and swing) -- the "% SI improvement"
  /// the paper quotes derives from these.
  double width_ratio() const { return ui_s > 0 ? width_s / ui_s : 0; }

  /// Level statistics at the sampling phase (for Q-factor/BER estimation).
  double mean_high_v = 0, mean_low_v = 0;
  double sigma_high_v = 0, sigma_low_v = 0;

  /// Gaussian Q-factor: (mu1 - mu0) / (sigma1 + sigma0). Large (>= 7) for
  /// clean eyes; clamped at 1e3 when the levels are noiseless.
  double q_factor() const;
  /// BER estimate from the Q-factor, 0.5 * erfc(Q/sqrt(2)).
  double ber_estimate() const;

  /// Folded eye raster for plotting: sample traces, one row per UI.
  std::vector<std::vector<double>> traces;
};

struct EyeConfig {
  double threshold = 0.45;   ///< crossing level [V]
  int skip_bits = 8;         ///< warm-up UIs excluded from the fold
  bool keep_traces = false;  ///< retain folded traces for plotting
};

/// Fold a PRBS run into an eye and measure it.
EyeResult measure_eye(const PrbsRun& run, const EyeConfig& cfg = {});

/// Convenience: simulate the link's PRBS response and measure the eye.
EyeResult simulate_eye(const LinkSpec& spec, int n_bits = 127, const EyeConfig& cfg = {});

}  // namespace gia::signal
