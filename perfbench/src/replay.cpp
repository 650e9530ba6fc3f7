#include "replay.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "core/links.hpp"
#include "interposer/arrangement.hpp"
#include "interposer/floorplanner.hpp"
#include "partition/hierarchical.hpp"
#include "partition/kway.hpp"
#include "partition/metrics.hpp"
#include "pdn/impedance.hpp"
#include "pdn/ir_drop.hpp"
#include "pdn/pdn_model.hpp"
#include "pdn/settling.hpp"
#include "signal/eye.hpp"
#include "signal/link_sim.hpp"
#include "tech/library.hpp"
#include "thermal/analysis.hpp"

namespace perfbench {

using namespace gia;
using netlist::ChipletSide;

namespace {

/// Resolution growth of the PDN and thermal meshes for a K-chiplet system,
/// as the stage graph applies it (lattice side against the 4-die baseline).
int system_mesh_factor(int chiplets) {
  return std::max(1, static_cast<int>(std::ceil(std::sqrt(chiplets / 4.0))));
}

/// Upstream inputs of the chiplet and interposer stages.
struct Partitioned {
  netlist::Netlist net;
  netlist::SerDesReport serdes;
  partition::PartitionResult partition;
  netlist::ChipletNetlist logic_nl, mem_nl;          // legacy two-tile mode
  std::vector<netlist::ChipletNetlist> parts;        // N-chiplet mode
  std::vector<partition::PairCut> pairs;
};

Partitioned replay_netlist_partition(const core::FlowOptions& o, Trace& t) {
  Trace::Scope stage(t, "replay/netlist_partition");
  Partitioned p;
  const bool legacy = o.system.is_legacy();
  {
    Trace::Scope s(t, "netlist.build");
    netlist::OpenPitonConfig op = o.openpiton;
    if (!legacy) op.tiles = o.system.chiplets;
    p.net = netlist::build_openpiton(op);
    p.serdes = netlist::apply_serdes(p.net, o.serdes);
  }
  if (legacy) {
    {
      Trace::Scope s(t, "partition.partition");
      p.partition = o.partition_mode == core::PartitionMode::Hierarchical
                        ? partition::hierarchical_partition(p.net)
                        : partition::fm_partition(p.net, o.fm);
    }
    Trace::Scope s(t, "partition.extract");
    p.logic_nl = netlist::extract_chiplet(p.net, p.partition.side, ChipletSide::Logic, 0);
    p.mem_nl = netlist::extract_chiplet(p.net, p.partition.side, ChipletSide::Memory, 0);
    return p;
  }
  const int k = o.system.chiplets;
  partition::KwayResult kway;
  {
    Trace::Scope s(t, "partition.partition");
    partition::KwayConfig kc;
    kc.parts = k;
    kc.balance_tolerance = o.fm.balance_tolerance;
    kc.max_passes = o.fm.max_passes;
    kc.seed = o.fm.seed;
    kway = partition::kway_partition(p.net, kc);
    p.pairs = partition::pair_cuts(p.net, kway.part, k);
  }
  Trace::Scope s(t, "partition.extract");
  for (int i = 0; i < k; ++i) {
    const ChipletSide cls = o.system.memory_class(i) ? ChipletSide::Memory : ChipletSide::Logic;
    p.parts.push_back(netlist::extract_part(p.net, kway.part, i, cls));
  }
  p.partition.side.resize(kway.part.size());
  for (std::size_t j = 0; j < kway.part.size(); ++j) {
    p.partition.side[j] =
        o.system.memory_class(kway.part[j]) ? ChipletSide::Memory : ChipletSide::Logic;
  }
  p.partition.cut_wires = static_cast<int>(kway.cut_wires);
  p.partition.memory_fraction = partition::memory_cell_fraction(p.net, p.partition.side);
  return p;
}

/// Chiplet planning and PnR, one die after another so each call's busy time
/// is its own ("chiplet.pnr_die" spans).
std::vector<chiplet::ChipletPnrResult> replay_chiplet_pnr(tech::TechnologyKind kind,
                                                         const core::FlowOptions& o,
                                                         const Partitioned& p,
                                                         core::TechnologyResult& r, Trace& t) {
  Trace::Scope stage(t, "replay/chiplet_pnr");
  const tech::Technology technology = tech::make_technology(kind);
  if (o.system.is_legacy()) {
    {
      Trace::Scope s(t, "chiplet.plan");
      r.plans = chiplet::plan_chiplet_pair(p.logic_nl.io_signals, p.mem_nl.io_signals,
                                           p.logic_nl.cell_area_um2, p.mem_nl.cell_area_um2,
                                           technology);
    }
    {
      Trace::Scope s(t, "chiplet.pnr_die");
      r.logic = chiplet::run_chiplet_pnr(p.net, p.logic_nl, technology, r.plans.logic, o.pnr);
    }
    Trace::Scope s(t, "chiplet.pnr_die");
    r.memory = chiplet::run_chiplet_pnr(p.net, p.mem_nl, technology, r.plans.memory, o.pnr);
    return {};
  }
  const int k = o.system.chiplets;
  std::vector<chiplet::BumpPlan> plans;
  {
    Trace::Scope s(t, "chiplet.plan");
    for (int i = 0; i < k; ++i) {
      const auto& part = p.parts[static_cast<std::size_t>(i)];
      plans.push_back(chiplet::plan_bumps(std::max(1, part.io_signals),
                                          part.cell_area_um2 * o.system.die_scale_of(i),
                                          o.system.memory_class(i), technology));
    }
  }
  std::vector<chiplet::ChipletPnrResult> sys(static_cast<std::size_t>(k));
  for (int i = 0; i < k; ++i) {
    const auto u = static_cast<std::size_t>(i);
    Trace::Scope s(t, "chiplet.pnr_die");
    sys[u] = chiplet::run_chiplet_pnr(p.net, p.parts[u], technology, plans[u], o.pnr);
  }
  // Table II/III representatives: the first logic-class and first
  // memory-class dies (the last die in a single-class system).
  r.plans.logic = plans.front();
  r.plans.memory = plans.back();
  r.logic = sys.front();
  r.memory = sys.back();
  for (int i = 0; i < k; ++i) {
    if (o.system.memory_class(i)) {
      r.plans.memory = plans[static_cast<std::size_t>(i)];
      r.memory = sys[static_cast<std::size_t>(i)];
      break;
    }
  }
  return sys;
}

/// Interposer design: bump plans, die placement, net assignment, routing.
void replay_interposer(tech::TechnologyKind kind, const core::FlowOptions& o,
                       const Partitioned& p, interposer::InterposerDesign& d, Trace& t) {
  Trace::Scope stage(t, "replay/interposer");
  d.technology = tech::make_technology(kind);
  const interposer::FloorplanOptions fp_opts;
  interposer::RouterOptions ro = o.router;
  if (o.system.is_legacy()) {
    {
      Trace::Scope s(t, "interposer.plan");
      d.plans = chiplet::plan_chiplet_pair(p.logic_nl.io_signals, p.mem_nl.io_signals,
                                           p.logic_nl.cell_area_um2, p.mem_nl.cell_area_um2,
                                           d.technology);
    }
    {
      Trace::Scope s(t, "interposer.floorplan");
      d.floorplan = interposer::place_dies(d.technology, d.plans.logic, d.plans.memory, fp_opts);
    }
    {
      Trace::Scope s(t, "interposer.assign");
      interposer::NetAssignOptions na;
      na.l2l_total = std::clamp(p.logic_nl.io_signals - p.mem_nl.io_signals, 1,
                                std::max(1, p.logic_nl.io_signals - 1));
      na.l2m_per_tile = std::min(p.mem_nl.io_signals, p.logic_nl.io_signals - na.l2l_total);
      d.top_nets = interposer::assign_top_nets(d.technology, d.floorplan, na);
    }
  } else {
    const chiplet::SystemConfig& sys = o.system;
    const int k = sys.chiplets;
    std::vector<interposer::SystemPairDemand> demands;
    for (const auto& pc : p.pairs) demands.push_back({pc.a, pc.b, pc.wires});
    {
      Trace::Scope s(t, "interposer.plan");
      d.chiplet_plans.reserve(static_cast<std::size_t>(k));
      for (int i = 0; i < k; ++i) {
        const auto& part = p.parts[static_cast<std::size_t>(i)];
        d.chiplet_plans.push_back(chiplet::plan_bumps(std::max(1, part.io_signals),
                                                      part.cell_area_um2 * sys.die_scale_of(i),
                                                      sys.memory_class(i), d.technology));
      }
    }
    {
      Trace::Scope s(t, "interposer.floorplan");
      auto arr = sys.arrangement == chiplet::Arrangement::Floorplan
                     ? interposer::floorplan_chiplets(d.technology, sys, d.chiplet_plans,
                                                      demands, fp_opts)
                     : interposer::arrange_chiplets(d.technology, sys, d.chiplet_plans, fp_opts);
      d.floorplan = std::move(arr.floorplan);
      d.adjacency = std::move(arr.adjacency);
    }
    {
      Trace::Scope s(t, "interposer.assign");
      d.top_nets = interposer::assign_system_nets(d.floorplan, demands);
    }
    ro.grid_nx = interposer::scaled_router_grid(o.router.grid_nx, k);
    ro.grid_ny = interposer::scaled_router_grid(o.router.grid_ny, k);
    d.plans.logic = d.chiplet_plans.front();
    d.plans.memory = d.chiplet_plans.back();
    for (int i = 0; i < k; ++i) {
      if (sys.memory_class(i)) {
        d.plans.memory = d.chiplet_plans[static_cast<std::size_t>(i)];
        break;
      }
    }
  }
  Trace::Scope s(t, "interposer.route");
  d.routes = interposer::route_interposer(d.technology, d.floorplan, d.top_nets, ro);
}

core::LinkStudy link_study(const interposer::InterposerDesign& d, interposer::TopNetKind kind) {
  core::LinkStudy s;
  s.spec = core::make_link_spec(d, kind);
  s.result = signal::simulate_link(s.spec);
  return s;
}

void replay_pdn(const core::FlowOptions& o, core::TechnologyResult& r, Trace& t) {
  Trace::Scope stage(t, "replay/pdn");
  const interposer::InterposerDesign& d = r.interposer;
  r.pdn_model = pdn::build_pdn_model(d);
  r.pdn_impedance = pdn::impedance_profile(r.pdn_model);
  if (d.technology.has_interposer()) {
    if (!o.system.is_legacy()) {
      pdn::IrDropOptions io;
      double power_units = 0;
      for (int i = 0; i < o.system.chiplets; ++i) power_units += o.system.power_scale_of(i);
      io.total_current_a *= power_units / 4.0;
      io.grid_n = std::min(96, io.grid_n * system_mesh_factor(o.system.chiplets));
      r.ir_drop = pdn::solve_ir_drop(d, io);
    } else {
      r.ir_drop = pdn::solve_ir_drop(d);
    }
  }
  r.settling = pdn::simulate_settling(r.pdn_model);
}

void replay_thermal(const core::FlowOptions& o, core::TechnologyResult& r, Trace& t) {
  Trace::Scope stage(t, "replay/thermal");
  if (!o.with_thermal) return;
  if (o.system.is_legacy()) {
    r.thermal = thermal::run_thermal(r.interposer, o.thermal_mesh);
    return;
  }
  thermal::MeshOptions mo = o.thermal_mesh;
  mo.logic_power_w *= o.system.power_scale;
  mo.memory_power_w *= o.system.power_scale * o.system.memory_power_scale;
  const int f = system_mesh_factor(o.system.chiplets);
  mo.nx = std::min(192, mo.nx * f);
  mo.ny = std::min(192, mo.ny * f);
  r.thermal = thermal::run_thermal(r.interposer, mo);
}

/// Full-chip power, system clock and link timing (Section VII-H).
void replay_rollup(const core::FlowOptions& o, const Partitioned& p,
                   const std::vector<chiplet::ChipletPnrResult>& sys_pnr,
                   core::TechnologyResult& r, Trace& t) {
  Trace::Scope stage(t, "replay/rollup");
  const double lane_l2m =
      r.l2m.result.driver_power_w + o.rollup_activity_scale * r.l2m.result.interconnect_power_w;
  const double lane_l2l =
      r.l2l.result.driver_power_w + o.rollup_activity_scale * r.l2l.result.interconnect_power_w;
  const double period = 1.0 / o.pnr.target_freq_hz;
  r.link_timing_met =
      r.l2m.result.total_delay_s < period && r.l2l.result.total_delay_s < period;
  if (o.system.is_legacy()) {
    const int l2m_lanes = 2 * p.mem_nl.io_signals;
    const int l2l_lanes = p.serdes.wires_after;
    r.total_power_w = 2.0 * (r.logic.power.total_w + r.memory.power.total_w) +
                      l2m_lanes * lane_l2m + l2l_lanes * lane_l2l;
    r.system_fmax_hz = std::min(r.logic.fmax_hz, r.memory.fmax_hz);
    return;
  }
  double chip_power_w = 0;
  double fmax = std::numeric_limits<double>::infinity();
  for (int i = 0; i < o.system.chiplets; ++i) {
    const auto& pr = sys_pnr[static_cast<std::size_t>(i)];
    chip_power_w += pr.power.total_w * o.system.power_scale_of(i);
    fmax = std::min(fmax, pr.fmax_hz);
  }
  long l2m_wires = 0, l2l_wires = 0;
  for (const auto& pc : p.pairs) {
    const bool mixed = o.system.memory_class(pc.a) != o.system.memory_class(pc.b);
    (mixed ? l2m_wires : l2l_wires) += pc.wires;
  }
  r.total_power_w = chip_power_w + static_cast<double>(l2m_wires) * lane_l2m +
                    static_cast<double>(l2l_wires) * lane_l2l;
  r.system_fmax_hz = fmax;
}

}  // namespace

core::TechnologyResult replay_flow(tech::TechnologyKind kind, const core::FlowOptions& opts,
                                   Trace& trace) {
  Trace::Scope op(trace, "replay/flow");
  core::TechnologyResult r;
  r.technology = tech::make_technology(kind);
  const Partitioned p = replay_netlist_partition(opts, trace);
  r.serdes = p.serdes;
  r.partition = p.partition;
  // Stage order of the {chiplet_pnr || interposer} wave, run serially here.
  const auto sys_pnr = replay_chiplet_pnr(kind, opts, p, r, trace);
  replay_interposer(kind, opts, p, r.interposer, trace);
  {
    Trace::Scope stage(trace, "replay/links");
    r.l2m = link_study(r.interposer, interposer::TopNetKind::LogicToMemory);
    r.l2l = link_study(r.interposer, interposer::TopNetKind::LogicToLogic);
  }
  {
    Trace::Scope stage(trace, "replay/eyes");
    if (opts.with_eyes) {
      r.l2m.eye = signal::simulate_eye(r.l2m.spec, opts.eye_bits);
      r.l2l.eye = signal::simulate_eye(r.l2l.spec, opts.eye_bits);
    }
  }
  replay_pdn(opts, r, trace);
  replay_thermal(opts, r, trace);
  replay_rollup(opts, p, sys_pnr, r, trace);
  return r;
}

}  // namespace perfbench
