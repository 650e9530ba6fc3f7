#include "signal/link_sim.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "circuit/transient.hpp"
#include "core/instrument.hpp"
#include "signal/prbs.hpp"

namespace gia::signal {
namespace {

using circuit::Circuit;
using circuit::kGround;
using circuit::NodeId;
using circuit::Stimulus;

struct ChannelNodes {
  NodeId v_ideal = 0;  ///< ideal source behind the output impedance
  NodeId tx_pad = 0;
  NodeId rx_pad = 0;
};

/// Total channel capacitance (line + lumped elements + receiver input):
/// the quantity that sets channel charging power.
double channel_capacitance(const LinkSpec& s) {
  double c = s.line.self.C * s.length_um * 1e-6;
  for (const auto& e : s.pre_elements) c += e.C;
  for (const auto& e : s.post_elements) c += e.C;
  return c + s.rx.c_in_farad;
}

/// Build one driver->channel->receiver chain. When `agg_in`/`agg2_in` are
/// provided and the link is lateral, the three lines run coupled.
ChannelNodes build_victim_channel(Circuit& ckt, const LinkSpec& s, const Stimulus& stim,
                                  NodeId* line_in_out = nullptr, NodeId ref = kGround) {
  ChannelNodes n;
  n.v_ideal = ckt.add_node("tx_ideal");
  ckt.add_vsource(n.v_ideal, ref, stim, "vtx");
  n.tx_pad = ckt.add_node("tx_pad");
  ckt.add_resistor(n.v_ideal, n.tx_pad, s.tx.r_out_ohm, "r_tx");

  NodeId cur = n.tx_pad;
  int idx = 0;
  for (const auto& e : s.pre_elements) {
    cur = extract::build_lumped(ckt, cur, e, "pre" + std::to_string(idx++));
  }
  if (line_in_out != nullptr) {
    *line_in_out = cur;  // caller splices the (coupled) line here
    return n;
  }
  if (s.length_um > 0) {
    const int sections = extract::recommended_sections(s.length_um, s.bit_rate_hz, s.line.self);
    cur = extract::build_line(ckt, cur, s.line.self, s.length_um, sections, "line");
  }
  idx = 0;
  for (const auto& e : s.post_elements) {
    cur = extract::build_lumped(ckt, cur, e, "post" + std::to_string(idx++));
  }
  n.rx_pad = cur;
  ckt.add_capacitor(n.rx_pad, kGround, s.rx.c_in_farad, "c_rx");
  return n;
}

Stimulus bit_stimulus(const LinkSpec& s, const std::vector<int>& bits) {
  const double ui = 1.0 / s.bit_rate_hz;
  return Stimulus::bits(bits, ui, std::min(s.tx.edge_time_s, 0.8 * ui), 0.0, s.tx.vdd);
}

}  // namespace

LinkResult simulate_link(const LinkSpec& spec) {
  GIA_SPAN("signal/link_sim");
  Circuit ckt;
  // Single rising edge, delayed so the line is quiet first.
  const double t0 = 0.1e-9;
  const auto stim = Stimulus::pulse(0.0, spec.tx.vdd, t0, spec.tx.edge_time_s, spec.tx.edge_time_s,
                                    /*width*/ 1.0, /*period*/ 0.0);
  const auto nodes = build_victim_channel(ckt, spec, stim);

  circuit::TransientSpec tr;
  // Resolve the fastest of: the edge, the line time of flight.
  const double tof = spec.length_um * 1e-6 * std::sqrt(spec.line.self.L * spec.line.self.C);
  tr.dt = std::max(std::min(spec.tx.edge_time_s / 25.0, 1e-12 + tof / 200.0), 0.1e-12);
  tr.t_stop = t0 + spec.tx.edge_time_s + 10.0 * tof + 1.5e-9;
  tr.probes = {nodes.v_ideal, nodes.rx_pad};
  tr.record_vsource_currents = true;
  const auto res = circuit::run_transient(ckt, tr);

  const auto& v_in = res.node_v[0];
  const auto& v_out = res.node_v[1];
  LinkResult out;
  // Near-zero-length channels switch within the same timestep as the
  // driver, so search the output crossing from slightly before the input
  // crossing and clamp at zero rather than demanding strict ordering.
  const double mid = 0.5 * spec.tx.vdd;
  const auto t_in = v_in.crossing(mid, 0.0, +1);
  if (!t_in) throw std::runtime_error("driver never switched -- bad stimulus?");
  const auto t_out = v_out.crossing(mid, *t_in - 3.0 * tr.dt, +1);
  if (!t_out) throw std::runtime_error("link never switched -- channel broken?");
  out.interconnect_delay_s = std::max(0.0, *t_out - *t_in);
  out.driver_delay_s = spec.tx.intrinsic_delay_s + spec.rx.intrinsic_delay_s;
  out.total_delay_s = out.driver_delay_s + out.interconnect_delay_s;

  // Energy drawn from the TX supply across the edge = C_ch * Vdd^2 (plus
  // resistive losses); rising edges occur at 1/4 the bit rate on random
  // data. vsrc current convention: current INTO the + terminal is positive,
  // so supplied power is -v*i.
  const double e_edge = -circuit::average_power(v_in, res.vsrc_i[0]) * v_in.duration();
  out.interconnect_power_w = e_edge * 0.25 * spec.bit_rate_hz;
  out.driver_power_w = driver_internal_power(spec.tx, AibFootprint{}, spec.bit_rate_hz);
  out.total_power_w = out.driver_power_w + out.interconnect_power_w;
  return out;
}

PrbsRun run_prbs(const LinkSpec& spec, int n_bits, unsigned seed) {
  if (n_bits < 8) throw std::invalid_argument("need >= 8 bits for an eye");
  Circuit ckt;
  const auto victim_bits = prbs7(n_bits, 0x5A + seed);
  const auto agg_bits_1 = prbs7(n_bits, 0x13 + seed * 7);
  const auto agg_bits_2 = prbs7(n_bits, 0x2F + seed * 13);

  // Shared return path for SSO stress: every driver references `ret`
  // instead of ideal ground, so switching currents bounce the rail. A bank
  // branch models the other (sso_lanes) lanes of the bus, each driving its
  // own channel-equivalent load through the same return.
  NodeId ret = kGround;
  if (spec.shared_return_l > 0) {
    ret = ckt.add_node("sso_ret");
    const NodeId mid = ckt.add_node("sso_mid");
    ckt.add_inductor(ret, mid, spec.shared_return_l, "l_ret");
    ckt.add_resistor(mid, kGround, 0.05, "r_ret");

    const int lanes = std::max(1, spec.sso_lanes);
    const NodeId bank_drv = ckt.add_node("sso_bank_drv");
    const NodeId bank_out = ckt.add_node("sso_bank_out");
    ckt.add_vsource(bank_drv, ret, bit_stimulus(spec, prbs7(n_bits, 0x71 + seed * 3)),
                    "v_bank");
    ckt.add_resistor(bank_drv, bank_out, spec.tx.r_out_ohm / lanes, "r_bank");
    const double c_lane = std::max(channel_capacitance(spec), 20e-15);
    const NodeId bank_c = ckt.add_node("sso_bank_c");
    ckt.add_resistor(bank_out, bank_c, 1.0, "r_bank_esr");  // load ESR damps ringing
    ckt.add_capacitor(bank_c, kGround, c_lane * lanes, "c_bank");
    // On-die decap between the bouncing return and true ground.
    const NodeId dec = ckt.add_node("sso_decap");
    ckt.add_resistor(ret, dec, 0.2, "r_decap");
    ckt.add_capacitor(dec, kGround, 5e-12, "c_decap");
  }

  const bool lateral = spec.length_um > 0;
  ChannelNodes nodes;
  if (lateral) {
    NodeId line_in = 0;
    nodes = build_victim_channel(ckt, spec, bit_stimulus(spec, victim_bits), &line_in, ret);
    // Aggressor drivers directly at the line (they share the same channel
    // structure; bumps on aggressors are second-order for crosstalk).
    const double r_agg = spec.tx.r_out_ohm;
    NodeId a1 = ckt.add_node("agg1_drv");
    NodeId a2 = ckt.add_node("agg2_drv");
    ckt.add_vsource(a1, ret, bit_stimulus(spec, agg_bits_1), "vagg1");
    ckt.add_vsource(a2, ret, bit_stimulus(spec, agg_bits_2), "vagg2");
    NodeId a1_in = ckt.add_node("agg1_in");
    NodeId a2_in = ckt.add_node("agg2_in");
    ckt.add_resistor(a1, a1_in, r_agg, "r_agg1");
    ckt.add_resistor(a2, a2_in, r_agg, "r_agg2");

    const int sections =
        std::min(extract::recommended_sections(spec.length_um, spec.bit_rate_hz, spec.line.self), 20);
    auto ends = extract::build_coupled_lines(ckt, line_in, a1_in, a2_in, spec.line,
                                             spec.length_um, sections, "cpl");
    NodeId cur = ends.victim_out;
    int idx = 0;
    for (const auto& e : spec.post_elements) {
      cur = extract::build_lumped(ckt, cur, e, "post" + std::to_string(idx++));
    }
    nodes.rx_pad = cur;
    ckt.add_capacitor(nodes.rx_pad, kGround, spec.rx.c_in_farad, "c_rx");
    // Aggressor far ends see receiver loads too.
    ckt.add_capacitor(ends.agg1_out, kGround, spec.rx.c_in_farad, "c_rx_a1");
    ckt.add_capacitor(ends.agg2_out, kGround, spec.rx.c_in_farad, "c_rx_a2");
  } else {
    // Vertical (3D) link: lumped chain with a neighbor aggressor coupled
    // capacitively, modeling the adjacent bump/TSV in the array.
    nodes = build_victim_channel(ckt, spec, bit_stimulus(spec, victim_bits), nullptr, ret);
    NodeId a1 = ckt.add_node("agg_drv");
    ckt.add_vsource(a1, kGround, bit_stimulus(spec, agg_bits_1), "vagg");
    NodeId a_pad = ckt.add_node("agg_pad");
    ckt.add_resistor(a1, a_pad, spec.tx.r_out_ohm, "r_agg");
    NodeId cur = a_pad;
    int idx = 0;
    for (const auto& e : spec.pre_elements) {
      cur = extract::build_lumped(ckt, cur, e, "agg_pre" + std::to_string(idx++));
    }
    for (const auto& e : spec.post_elements) {
      cur = extract::build_lumped(ckt, cur, e, "agg_post" + std::to_string(idx++));
    }
    ckt.add_capacitor(cur, kGround, spec.rx.c_in_farad, "c_rx_agg");
    const double c_couple = spec.lumped_coupling * std::max(channel_capacitance(spec), 1e-18);
    ckt.add_capacitor(nodes.rx_pad, cur, c_couple, "c_xtalk");
  }

  const double ui = 1.0 / spec.bit_rate_hz;
  circuit::TransientSpec tr;
  tr.dt = ui / 256.0;
  tr.t_stop = ui * n_bits;
  tr.probes = {nodes.rx_pad};
  auto res = circuit::run_transient(ckt, tr);

  PrbsRun out;
  out.rx = std::move(res.node_v[0]);
  out.ui_s = ui;
  out.n_bits = n_bits;
  return out;
}

}  // namespace gia::signal
