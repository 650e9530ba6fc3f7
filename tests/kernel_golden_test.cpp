// Kernel goldens: FNV-1a digests of the cluster placer and the interposer
// router on inputs the six-technology stage goldens do not reach (the
// 16-die grid / hex / floorplan router grids, the legacy two-die routes
// path by path under non-default router options, and the placer on its
// own).
// The digests cover every output bit (raw IEEE-754 bytes of each double),
// so an optimisation that changes a path, a length, a via count or a
// cluster position fails here even when rounded reports still agree.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "chiplet/bump_plan.hpp"
#include "chiplet/placer.hpp"
#include "chiplet/system.hpp"
#include "interposer/design.hpp"
#include "netlist/netlist.hpp"
#include "netlist/openpiton.hpp"
#include "netlist/serdes.hpp"
#include "partition/fm.hpp"
#include "partition/hierarchical.hpp"
#include "partition/kway.hpp"
#include "tech/library.hpp"

namespace ch = gia::chiplet;
namespace ip = gia::interposer;
namespace nl = gia::netlist;
namespace pt = gia::partition;
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
