// Kernel goldens: FNV-1a digests of the cluster placer and the interposer
// router on inputs the six-technology stage goldens do not reach (the
// 16-die grid / hex / floorplan router grids, the legacy two-die routes
// path by path under non-default router options, and the placer on its
// own), and of the post-route numerical kernels on their own: the PRBS and
// single-edge link transients, the PDN impedance sweep (complex LU) and
// settling transient, and the thermal SOR and multigrid fields.
// The digests cover every output bit (raw IEEE-754 bytes of each double),
// so an optimisation that changes a path, a length, a via count or a
// cluster position fails here even when rounded reports still agree.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "chiplet/bump_plan.hpp"
#include "chiplet/placer.hpp"
#include "chiplet/system.hpp"
#include "core/links.hpp"
#include "interposer/design.hpp"
#include "netlist/netlist.hpp"
#include "netlist/openpiton.hpp"
#include "netlist/serdes.hpp"
#include "partition/fm.hpp"
#include "partition/hierarchical.hpp"
#include "partition/kway.hpp"
#include "pdn/impedance.hpp"
#include "pdn/pdn_model.hpp"
#include "pdn/settling.hpp"
#include "signal/link_sim.hpp"
#include "tech/library.hpp"
#include "thermal/mesh.hpp"
#include "thermal/solver.hpp"

namespace ch = gia::chiplet;
namespace ip = gia::interposer;
namespace nl = gia::netlist;
namespace pt = gia::partition;
namespace sg = gia::signal;
namespace tml = gia::thermal;
using gia::tech::TechnologyKind;

namespace {

/// FNV-1a 64 over the raw bytes of every value fed in.
struct Digest {
  std::uint64_t h = 0xcbf29ce484222325ull;
  void bytes(const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      h ^= b[i];
      h *= 0x100000001b3ull;
    }
  }
  void add(double v) { bytes(&v, sizeof v); }
  void add(int v) { bytes(&v, sizeof v); }
  void add(const std::vector<double>& v) {
    for (double x : v) add(x);
  }
  std::string hex() const {
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h));
    return buf;
  }
};

std::string route_digest(const ip::RouteResult& r) {
  Digest d;
  for (const auto& rn : r.nets) {
    d.add(rn.net_id);
    d.add(rn.bits);
    d.add(rn.vias);
    d.add(rn.length_um);
    d.add(rn.vertical ? 1 : 0);
    for (const auto& pp : rn.path.points()) {
      d.add(pp.p.x);
      d.add(pp.p.y);
      d.add(pp.layer);
    }
  }
  const ip::RouteStats& s = r.stats;
  for (double v : {s.total_wl_um, s.min_wl_um, s.avg_wl_um, s.max_wl_um}) d.add(v);
  for (int v : {s.total_vias, s.vertical_via_pairs, s.signal_layers_available,
                s.signal_layers_used, s.overflowed_cells, s.routed_nets}) {
    d.add(v);
  }
  return d.hex();
}

std::string placement_digest(const ch::PlacementResult& p) {
  Digest d;
  for (const auto& pos : p.positions) {
    d.add(pos.x);
    d.add(pos.y);
  }
  for (const auto& n : p.nets) {
    d.add(n.net_id);
    d.add(n.bits);
    d.add(n.hpwl_um);
  }
  d.add(p.total_hpwl_um);
  return d.hex();
}

std::string field_digest(const tml::ThermalField& f) {
  Digest d;
  d.add(f.nx);
  d.add(f.ny);
  for (const auto& layer : f.t_c) d.add(layer.data());
  d.add(f.max_c);
  d.add(f.iterations);
  d.add(f.converged ? 1 : 0);
  return d.hex();
}

/// The six technologies that build an interposer design (all but the
/// monolithic reference), at default router options, built once per process.
const ip::InterposerDesign& legacy_design(TechnologyKind k) {
  static std::map<TechnologyKind, ip::InterposerDesign> cache;
  auto it = cache.find(k);
  if (it == cache.end()) it = cache.emplace(k, ip::build_interposer_design(k)).first;
  return it->second;
}

/// The 16-die Glass 2.5D system the perfbench daemon session serves
/// (cluster_cells 2000, memory_every 2): netlist_partition's generalized
/// path, reproduced so the router sees the same demand.
struct SixteenDie {
  ch::SystemConfig sys;
  ip::SystemInputs inputs;

  SixteenDie() {
    sys.chiplets = 16;
    sys.memory_every = 2;
    nl::OpenPitonConfig op;
    op.tiles = sys.chiplets;
    op.cluster_cells = 2000;
    nl::Netlist net = nl::build_openpiton(op);
    (void)nl::apply_serdes(net);
    const pt::FmConfig fm;
    pt::KwayConfig kc;
    kc.parts = sys.chiplets;
    kc.balance_tolerance = fm.balance_tolerance;
    kc.max_passes = fm.max_passes;
    kc.seed = fm.seed;
    const pt::KwayResult kway = pt::kway_partition(net, kc);
    for (int i = 0; i < sys.chiplets; ++i) {
      const auto cls = sys.memory_class(i) ? nl::ChipletSide::Memory : nl::ChipletSide::Logic;
      const nl::ChipletNetlist part = nl::extract_part(net, kway.part, i, cls);
      inputs.signal_ios.push_back(part.io_signals);
      inputs.cell_area_um2.push_back(part.cell_area_um2);
    }
    for (const auto& pc : pt::pair_cuts(net, kway.part, sys.chiplets)) {
      inputs.pairs.push_back({pc.a, pc.b, pc.wires});
    }
  }
};

/// Legacy two-tile netlist and its hierarchical logic/memory split.
struct LegacyPair {
  nl::Netlist net = nl::build_openpiton();
  nl::ChipletNetlist logic, memory;
  ch::ChipletPair plans;

  LegacyPair() {
    (void)nl::apply_serdes(net);
    const pt::PartitionResult part = pt::hierarchical_partition(net);
    logic = nl::extract_chiplet(net, part.side, nl::ChipletSide::Logic, 0);
    memory = nl::extract_chiplet(net, part.side, nl::ChipletSide::Memory, 0);
    plans = ch::plan_chiplet_pair(logic.io_signals, memory.io_signals, logic.cell_area_um2,
                                  memory.cell_area_um2,
                                  gia::tech::make_technology(TechnologyKind::Glass25D));
  }
};

}  // namespace

TEST(KernelGoldenTest, SixteenDieRoutesMatchRecordedDigests) {
  const SixteenDie s;
  struct Case {
    ch::Arrangement arrangement;
    double via_cost_um;
    const char* digest;
  };
  const Case cases[] = {
      {ch::Arrangement::Grid, 20.0, "718e92101236c067"},
      {ch::Arrangement::Grid, 80.0, "d556991c53d02815"},
      {ch::Arrangement::Hex, 20.0, "bee3a4b63493322f"},
      {ch::Arrangement::Hex, 80.0, "b5bb6b9879d303ea"},
      {ch::Arrangement::Floorplan, 20.0, "88a1113bfc904c84"},
      {ch::Arrangement::Floorplan, 80.0, "40b1de8c17b99c0f"},
  };
  // Digests recorded from the reference kernels; any change is a behaviour change.
  for (const Case& c : cases) {
    ch::SystemConfig sys = s.sys;
    sys.arrangement = c.arrangement;
    ip::RouterOptions ro;
    ro.via_cost_um = c.via_cost_um;
    const ip::InterposerDesign d =
        ip::build_system_design(TechnologyKind::Glass25D, sys, s.inputs, ro);
    EXPECT_EQ(route_digest(d.routes), c.digest)
        << ch::to_string(c.arrangement) << " via_cost_um=" << c.via_cost_um;
  }
}

TEST(KernelGoldenTest, LegacyRoutesMatchRecordedDigests) {
  // Every technology that routes laterally, at default options, then the
  // rip-up loop on a non-square grid (Manhattan and octilinear) and the
  // any-angle router with its grid fallback.
  struct Case {
    TechnologyKind kind;
    int grid_nx, grid_ny, reroute_passes;
    bool any_angle;
    const char* digest;
  };
  const ip::RouterOptions def;
  const int nx = def.grid_nx, ny = def.grid_ny, passes = def.reroute_passes;
  const Case cases[] = {
      {TechnologyKind::Glass25D, nx, ny, passes, false, "b181b5001804279f"},
      {TechnologyKind::Glass3D, nx, ny, passes, false, "f659b89ba28766f0"},
      {TechnologyKind::Silicon25D, nx, ny, passes, false, "b4d3bafac717999e"},
      {TechnologyKind::Shinko, nx, ny, passes, false, "5298cb06a584350b"},
      {TechnologyKind::APX, nx, ny, passes, false, "d8694215c219c316"},
      {TechnologyKind::Glass25D, 48, 64, 3, false, "e4184bd366bb690a"},
      {TechnologyKind::APX, 48, 64, 3, false, "efe6192c470fed65"},
      {TechnologyKind::Glass25D, nx, ny, passes, true, "f1b604ca6ce747fe"},
  };
  // Digests recorded from the reference kernels; any change is a behaviour change.
  for (const Case& c : cases) {
    ip::RouterOptions ro;
    ro.grid_nx = c.grid_nx;
    ro.grid_ny = c.grid_ny;
    ro.reroute_passes = c.reroute_passes;
    ro.any_angle = c.any_angle;
    const ip::InterposerDesign d = ip::build_interposer_design(c.kind, {}, ro);
    EXPECT_EQ(route_digest(d.routes), c.digest)
        << gia::tech::to_string(c.kind) << " grid " << c.grid_nx << "x" << c.grid_ny
        << " reroute_passes=" << c.reroute_passes << " any_angle=" << c.any_angle;
  }
}

TEST(KernelGoldenTest, LegacyPlacementsMatchRecordedDigests) {
  const LegacyPair p;
  struct Case {
    const nl::ChipletNetlist* chip;
    const ch::BumpPlan* plan;
    const char* digest;
  };
  const Case cases[] = {
      {&p.logic, &p.plans.logic, "b47d0ca008ab629f"},
      {&p.memory, &p.plans.memory, "4359e7e888ba556b"},
  };
  for (const Case& c : cases) {
    const gia::geometry::Rect die{0, 0, c.plan->width_um, c.plan->width_um};
    std::vector<int> nets = c.chip->internal_net_ids;
    nets.insert(nets.end(), c.chip->cut_net_ids.begin(), c.chip->cut_net_ids.end());
    const ch::PlacementResult r = ch::place_clusters(p.net, c.chip->instance_ids, nets, die, {});
    EXPECT_EQ(placement_digest(r), c.digest)
        << (c.chip->side == nl::ChipletSide::Logic ? "logic" : "memory");
  }
}

TEST(KernelGoldenTest, LinkTransientsMatchRecordedDigests) {
  // Each technology's l2m and l2l channel, as the links and eyes stages
  // build it: the 96-bit PRBS receiver waveform (the flow's eye_bits) and
  // the single-edge delay/power study.
  struct Case {
    TechnologyKind kind;
    ip::TopNetKind net;
    const char* prbs;
    const char* link;
  };
  constexpr ip::TopNetKind kL2m = ip::TopNetKind::LogicToMemory;
  constexpr ip::TopNetKind kL2l = ip::TopNetKind::LogicToLogic;
  const Case cases[] = {
      {TechnologyKind::Glass25D, kL2m, "9c1b6511a74bc16c", "77183b463f22570a"},
      {TechnologyKind::Glass25D, kL2l, "11a6e39746f957c4", "7526f490c247ecf9"},
      {TechnologyKind::Glass3D, kL2m, "3cbb2cbb5ca29d50", "35b07bde15d5521f"},
      {TechnologyKind::Glass3D, kL2l, "bd5bfff78bc8f3a3", "6c2ea629da21edb6"},
      {TechnologyKind::Silicon25D, kL2m, "242ca9c98a76273c", "052b50d53f53531e"},
      {TechnologyKind::Silicon25D, kL2l, "7a76c751427d448b", "bb2d31309a9b8ad9"},
      {TechnologyKind::Silicon3D, kL2m, "9419ad7395b98c89", "fa13f7049f72ca37"},
      {TechnologyKind::Silicon3D, kL2l, "f1edc28df13af788", "52a5fd1c76b028a9"},
      {TechnologyKind::Shinko, kL2m, "f60c866c3f92dddd", "3c15a0b4bb1f9497"},
      {TechnologyKind::Shinko, kL2l, "9cd8432435e4a402", "cae006a29e8787a0"},
      {TechnologyKind::APX, kL2m, "c3782d1682980b65", "266b28947b8696ca"},
      {TechnologyKind::APX, kL2l, "4ba3ea8e0ba8a9bc", "2d1b5fd96171f273"},
  };
  for (const Case& c : cases) {
    const sg::LinkSpec spec = gia::core::make_link_spec(legacy_design(c.kind), c.net);
    const sg::PrbsRun run = sg::run_prbs(spec, 96);
    Digest dp;
    dp.add(run.rx.dt());
    dp.add(run.rx.samples());
    dp.add(run.ui_s);
    dp.add(run.n_bits);
    const sg::LinkResult r = sg::simulate_link(spec);
    Digest dl;
    for (double v : {r.driver_delay_s, r.interconnect_delay_s, r.total_delay_s, r.driver_power_w,
                     r.interconnect_power_w, r.total_power_w}) {
      dl.add(v);
    }
    const std::string tag = std::string(gia::tech::to_string(c.kind)) +
                            (c.net == kL2m ? " l2m" : " l2l");
    EXPECT_EQ(dp.hex(), c.prbs) << tag << " run_prbs";
    EXPECT_EQ(dl.hex(), c.link) << tag << " simulate_link";
  }
}

TEST(KernelGoldenTest, PdnCircuitsMatchRecordedDigests) {
  struct Case {
    TechnologyKind kind;
    const char* impedance;
    const char* settling;
  };
  const Case cases[] = {
      {TechnologyKind::Glass25D, "e3a1d35623d4f8ca", "d8f58be9211e1f0f"},
      {TechnologyKind::Glass3D, "b4470ab10de0a660", "ec1fc3a1c2567680"},
      {TechnologyKind::Silicon25D, "5ccaf070da7e460a", "1d1f45c38e5e143d"},
      {TechnologyKind::Silicon3D, "2c860af865f25094", "131325bb63444573"},
      {TechnologyKind::Shinko, "2af479f23a215163", "06234b3377be070d"},
      {TechnologyKind::APX, "e7185f044552c739", "5a3db8fdfd9eaafb"},
  };
  for (const Case& c : cases) {
    const gia::pdn::PdnModel model = gia::pdn::build_pdn_model(legacy_design(c.kind));
    const gia::pdn::ImpedanceProfile z = gia::pdn::impedance_profile(model);
    Digest dz;
    dz.add(z.freq_hz);
    dz.add(z.z_ohm);
    const gia::pdn::SettlingResult s = gia::pdn::simulate_settling(model);
    Digest ds;
    ds.add(s.settling_time_s);
    ds.add(s.worst_droop_v);
    ds.add(s.rail.dt());
    ds.add(s.rail.samples());
    EXPECT_EQ(dz.hex(), c.impedance) << gia::tech::to_string(c.kind) << " impedance_profile";
    EXPECT_EQ(ds.hex(), c.settling) << gia::tech::to_string(c.kind) << " simulate_settling";
  }
}

TEST(KernelGoldenTest, ThermalFieldsMatchRecordedDigests) {
  // SOR at the flow's 48x48 mesh for every technology; the 47x47 mesh the
  // multigrid entry point hands back to SOR; and a 96x96 multigrid solve,
  // whose coarsest level is a dense LU.
  struct Case {
    TechnologyKind kind;
    int n;
    bool multigrid;
    const char* digest;
  };
  const Case cases[] = {
      {TechnologyKind::Glass25D, 48, false, "8a2d1794dcc990e4"},
      {TechnologyKind::Glass3D, 48, false, "12d3864a5a218ffb"},
      {TechnologyKind::Silicon25D, 48, false, "34f1c1e2a0219c34"},
      {TechnologyKind::Silicon3D, 48, false, "63b9b54f3146ac91"},
      {TechnologyKind::Shinko, 48, false, "28d756f330941ef2"},
      {TechnologyKind::APX, 48, false, "b84672ba9b064dc7"},
      {TechnologyKind::Glass25D, 47, true, "a1425417790ea4c0"},
      {TechnologyKind::Glass25D, 96, true, "568a7e5fd86105d1"},
  };
  for (const Case& c : cases) {
    const tml::ThermalMesh mesh =
        tml::build_thermal_mesh(legacy_design(c.kind), {.nx = c.n, .ny = c.n});
    const tml::ThermalField f = c.multigrid ? tml::solve_steady_state_multigrid(mesh)
                                            : tml::solve_steady_state_sor(mesh);
    EXPECT_EQ(field_digest(f), c.digest)
        << gia::tech::to_string(c.kind) << " " << c.n << "x" << c.n
        << (c.multigrid ? " multigrid" : " sor");
  }
}
