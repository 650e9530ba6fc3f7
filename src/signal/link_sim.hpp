#pragma once

#include <string>
#include <vector>

#include "circuit/waveform.hpp"
#include "extract/line_model.hpp"
#include "signal/aib.hpp"

/// \file link_sim.hpp
/// End-to-end chiplet-to-chiplet link simulation: AIB TX -> (bumps/vias) ->
/// interposer line or 3D vertical stack -> (bumps/vias) -> AIB RX. Produces
/// the delay/power decomposition of Tables V and VI and drives the eye
/// analysis of Fig 14.

namespace gia::signal {

/// Channel description. A purely vertical (3D) link has length_um = 0 and
/// only series_elements; lateral links have a line plus optional bumps.
struct LinkSpec {
  extract::CoupledRlgc line;   ///< per-unit-length parameters (lateral part)
  double length_um = 0;        ///< lateral routed length
  /// Lumped elements in series before the line (TX-side bump/via stack).
  std::vector<extract::LumpedRlc> pre_elements;
  /// Lumped elements in series after the line (RX-side stack).
  std::vector<extract::LumpedRlc> post_elements;
  DriverModel tx;
  ReceiverModel rx;
  double bit_rate_hz = 0.7e9;  ///< Section VII-A: 0.7 Gbps
  /// Crosstalk coupling fraction between victim and aggressor for purely
  /// lumped (vertical) links, modeling neighbor bumps/TSVs in the 4x4 array.
  double lumped_coupling = 0.15;

  /// Simultaneous-switching (SSO) stress: when > 0, all drivers share a
  /// return path with this inductance [H] to ground, so aggressor edges
  /// bounce the victim's reference -- the bus-level impairment that closes
  /// eyes far beyond 3-line crosstalk. `sso_lanes` scales the aggressor
  /// drive (one modeled aggressor stands in for many switching lanes).
  double shared_return_l = 0.0;
  int sso_lanes = 1;
};

struct LinkResult {
  double driver_delay_s = 0;        ///< TX + RX intrinsic
  double interconnect_delay_s = 0;  ///< 50% pad-to-pad through the channel
  double total_delay_s = 0;
  double driver_power_w = 0;        ///< internal driver power per lane
  double interconnect_power_w = 0;  ///< channel charging power on random data
  double total_power_w = 0;
};

/// Single-edge transient for delay + channel capacitance energy for power.
LinkResult simulate_link(const LinkSpec& spec);

/// Raw receiver-pad waveform for a PRBS pattern on the victim with two
/// independent-pattern aggressors (when the channel is coupled).
struct PrbsRun {
  gia::circuit::Waveform rx;  ///< receiver pad voltage
  double ui_s = 0;            ///< unit interval
  int n_bits = 0;
};
PrbsRun run_prbs(const LinkSpec& spec, int n_bits, unsigned seed = 1);

}  // namespace gia::signal
