#pragma once

#include <vector>

#include "pdn/pdn_model.hpp"

/// \file impedance.hpp
/// PDN impedance profile (Fig 15): small-signal |Z(f)| seen from a chiplet
/// power bump, swept 1e6..1e9 Hz, plus the scalar summaries Table IV quotes.

namespace gia::pdn {

struct ImpedanceProfile {
  std::vector<double> freq_hz;
  std::vector<double> z_ohm;

  double at(double f_hz) const;       ///< log-interpolated |Z|
  double peak() const;                ///< max over the band
  /// |Z| at the top of the band (1 GHz) -- the feed-inductance-dominated
  /// region where the technologies separate (Table IV's PDN impedance row
  /// ordering).
  double high_band() const { return z_ohm.empty() ? 0.0 : z_ohm.back(); }
};

struct ImpedanceOptions {
  double f_start_hz = 1e6;
  double f_stop_hz = 1e9;
  int points_per_decade = 24;
};

/// Sweep the lumped model with the MNA AC engine: a 1 A AC current source
/// into the bump node, so |V(bump)| is |Z|.
ImpedanceProfile impedance_profile(const PdnModel& model, const ImpedanceOptions& opts = {});

}  // namespace gia::pdn
