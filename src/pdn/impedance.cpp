#include "pdn/impedance.hpp"

#include <algorithm>
#include <cmath>

#include "circuit/ac.hpp"
#include "core/instrument.hpp"
#include "core/parallel.hpp"

namespace gia::pdn {

double ImpedanceProfile::at(double f_hz) const {
  if (freq_hz.empty()) return 0.0;
  if (f_hz <= freq_hz.front()) return z_ohm.front();
  if (f_hz >= freq_hz.back()) return z_ohm.back();
  const auto it = std::upper_bound(freq_hz.begin(), freq_hz.end(), f_hz);
  const std::size_t hi = static_cast<std::size_t>(it - freq_hz.begin());
  const std::size_t lo = hi - 1;
  const double f = (std::log10(f_hz) - std::log10(freq_hz[lo])) /
                   (std::log10(freq_hz[hi]) - std::log10(freq_hz[lo]));
  return z_ohm[lo] * (1.0 - f) + z_ohm[hi] * f;
}

double ImpedanceProfile::peak() const {
  return z_ohm.empty() ? 0.0 : *std::max_element(z_ohm.begin(), z_ohm.end());
}

namespace {

/// Series R-L between two nodes (inductor skipped when zero).
circuit::NodeId series_rl(circuit::Circuit& ckt, circuit::NodeId from, double r, double l,
                          const std::string& tag) {
  circuit::NodeId mid = ckt.add_node(tag + "_m");
  ckt.add_resistor(from, mid, std::max(r, 1e-7), tag + "_r");
  circuit::NodeId out = ckt.add_node(tag + "_o");
  ckt.add_inductor(mid, out, std::max(l, 1e-16), tag + "_l");
  return out;
}

}  // namespace

ImpedanceProfile impedance_profile(const PdnModel& model, const ImpedanceOptions& opts) {
  GIA_SPAN("pdn/impedance");
  using namespace circuit;
  Circuit ckt;
  const NodeId bump = ckt.add_node("bump");

  // 1 A AC injection at the bump; |V(bump)| is |Z|.
  ckt.add_isource(kGround, bump, Stimulus::dc(0), "iac", 1.0);

  // bump -> feed loop -> plane node.
  const NodeId plane = series_rl(ckt, bump, model.r_feed, model.l_feed, "feed");

  // Plane pair to ground: ESR + ESL + C in series.
  if (model.c_plane > 0) {
    const NodeId p1 = series_rl(ckt, plane, model.r_plane, model.l_plane, "plane");
    ckt.add_capacitor(p1, kGround, model.c_plane, "c_plane");
  }

  // Entry path to the (ideal) board supply, an AC ground.
  NodeId ball = series_rl(ckt, plane, model.r_entry, model.l_entry, "entry");
  if (model.r_substrate_loss > 0) {
    // Eddy loss in a conductive (silicon) substrate is an induced-current
    // effect: negligible at low frequency, approaching r_substrate_loss in
    // the high band. An R || L section crosses over around 200 MHz.
    const NodeId b2 = ckt.add_node("sub_loss");
    ckt.add_resistor(ball, b2, model.r_substrate_loss, "r_sub");
    ckt.add_inductor(ball, b2, model.r_substrate_loss / (2.0 * 3.14159265358979 * 200e6),
                     "l_sub_bypass");
    ball = b2;
  }
  ckt.add_vsource(ball, kGround, Stimulus::dc(0), "vboard", 0.0);

  const auto freqs = log_freq_grid(opts.f_start_hz, opts.f_stop_hz, opts.points_per_decade);
  // run_ac factors and solves the independent frequency points in parallel
  // (see circuit/ac.cpp); each |Z| slot below is likewise per-index.
  const auto ac = run_ac(ckt, freqs, {bump});

  ImpedanceProfile out;
  out.freq_hz = freqs;
  out.z_ohm.assign(freqs.size(), 0.0);
  core::parallel_for(freqs.size(),
                     [&](std::size_t i) { out.z_ohm[i] = std::abs(ac.node_v[0][i]); });
  return out;
}

}  // namespace gia::pdn
