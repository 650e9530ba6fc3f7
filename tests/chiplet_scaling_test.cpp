#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <string>
#include <utility>

#include "chiplet/system.hpp"
#include "core/stagegraph.hpp"
#include "interposer/arrangement.hpp"
#include "interposer/net_assign.hpp"
#include "serve/request.hpp"
#include "tech/library.hpp"

/// \file chiplet_scaling_test.cpp
/// N-chiplet arrangement engine coverage: hex/grid adjacency and sizing,
/// system-block request serialization (golden legacy keys pinned), and
/// end-to-end generalized flows with stage-cache reuse across arrangements.

namespace ip = gia::interposer;
namespace ch = gia::chiplet;
namespace sv = gia::serve;
namespace st = gia::core::stage;
namespace tech = gia::tech;

namespace {

std::vector<ch::BumpPlan> uniform_plans(int k, const tech::Technology& t) {
  std::vector<ch::BumpPlan> plans;
  plans.reserve(static_cast<std::size_t>(k));
  for (int i = 0; i < k; ++i) plans.push_back(ch::plan_bumps(200, 3.0e5, false, t));
  return plans;
}

/// Options sized for e2e scaling tests: coarse clusters, no optional solves.
gia::core::FlowOptions scaling_options(ch::SystemConfig sys) {
  gia::core::FlowOptions o;
  o.openpiton.cluster_cells = 4000;
  o.with_eyes = false;
  o.with_thermal = false;
  o.system = sys;
  return o;
}

ch::SystemConfig make_system(int chiplets, ch::Arrangement arr, int memory_every = 4) {
  ch::SystemConfig s;
  s.chiplets = chiplets;
  s.arrangement = arr;
  s.memory_every = memory_every;
  return s;
}

}  // namespace

// --- ArrangementTest: pure geometry/adjacency, no flow.

TEST(ArrangementTest, HexAdjacencyMatchesHexaMesh) {
  const auto t = tech::make_technology(tech::TechnologyKind::Glass25D);
  const auto plans = uniform_plans(16, t);
  auto arr = ip::arrange_chiplets(t, make_system(16, ch::Arrangement::Hex), plans);
  ASSERT_EQ(arr.cols, 4);
  ASSERT_EQ(arr.rows, 4);
  // Odd-r offset rows on a 4x4 lattice: 12 in-row edges plus 7 edges
  // between each of the 3 row pairs.
  EXPECT_EQ(arr.adjacency.size(), 33u);
  const auto deg = ip::neighbor_counts(arr);
  int six = 0;
  for (int d : deg) {
    EXPECT_GE(d, 2);
    EXPECT_LE(d, 6);
    six += d == 6 ? 1 : 0;
  }
  // The 2x2 interior of a 4x4 hex lattice sees the full 6-neighborhood.
  EXPECT_EQ(six, 4);
}

TEST(ArrangementTest, GridAdjacencyAndBoundingBox) {
  const auto t = tech::make_technology(tech::TechnologyKind::Glass25D);
  const auto plans = uniform_plans(9, t);
  ch::SystemConfig sys = make_system(9, ch::Arrangement::Grid);
  auto arr = ip::arrange_chiplets(t, sys, plans);
  ASSERT_EQ(arr.cols, 3);
  ASSERT_EQ(arr.rows, 3);
  // 3x3 4-neighbor lattice: 2 * 3 * 2 = 12 edges.
  EXPECT_EQ(arr.adjacency.size(), 12u);
  const auto deg = ip::neighbor_counts(arr);
  for (int d : deg) {
    EXPECT_GE(d, 2);
    EXPECT_LE(d, 4);
  }
  // Bounding box: glass margin on each side plus the 3-column lattice span.
  const double pitch = plans[0].width_um + t.rules.die_to_die_spacing_um * sys.pitch_scale;
  const double expect_w = 2 * 240.0 + 2 * pitch + plans[0].width_um;
  EXPECT_NEAR(arr.floorplan.outline.width(), expect_w, 1e-9);
  EXPECT_NEAR(arr.floorplan.outline.height(), expect_w, 1e-9);
  // Dies never overlap and sit inside the outline.
  for (std::size_t a = 0; a < arr.floorplan.dies.size(); ++a) {
    const auto& ra = arr.floorplan.dies[a].outline;
    EXPECT_GE(ra.lx, 0.0);
    EXPECT_GE(ra.ly, 0.0);
    EXPECT_LE(ra.ux, arr.floorplan.outline.ux);
    EXPECT_LE(ra.uy, arr.floorplan.outline.uy);
    for (std::size_t b = a + 1; b < arr.floorplan.dies.size(); ++b) {
      const auto& rb = arr.floorplan.dies[b].outline;
      const bool disjoint =
          ra.ux <= rb.lx || rb.ux <= ra.lx || ra.uy <= rb.ly || rb.uy <= ra.ly;
      EXPECT_TRUE(disjoint);
    }
  }
}

TEST(ArrangementTest, HexRowsPackAtHexagonalPitch) {
  const auto t = tech::make_technology(tech::TechnologyKind::Glass25D);
  const auto plans = uniform_plans(16, t);
  auto grid = ip::arrange_chiplets(t, make_system(16, ch::Arrangement::Grid), plans);
  auto hex = ip::arrange_chiplets(t, make_system(16, ch::Arrangement::Hex), plans);
  // Offset rows trade at most a half-pitch of width for sqrt(3)/2 row
  // spacing: strictly shorter, and wider by no more than pitch/2.
  const double pitch = plans[0].width_um + t.rules.die_to_die_spacing_um;
  EXPECT_LT(hex.floorplan.outline.height(), grid.floorplan.outline.height());
  EXPECT_NEAR(hex.floorplan.outline.width(), grid.floorplan.outline.width() + pitch / 2, 1e-9);
  const double dh = grid.floorplan.outline.height() - hex.floorplan.outline.height();
  EXPECT_NEAR(dh, 3 * pitch * (1.0 - std::sqrt(3.0) / 2.0), 1e-9);
}

TEST(ArrangementTest, PlacedPositionsRoundTrip) {
  std::vector<ch::PlacedPosition> pos = {{0, 0}, {1200.5, 0}, {600.25, 900}};
  ch::SystemConfig sys = make_system(3, ch::Arrangement::Placed, 0);
  sys.placed = ch::encode_placed(pos);
  const auto back = sys.placed_positions();
  ASSERT_EQ(back.size(), pos.size());
  for (std::size_t i = 0; i < pos.size(); ++i) {
    EXPECT_DOUBLE_EQ(back[i].x_um, pos[i].x_um);
    EXPECT_DOUBLE_EQ(back[i].y_um, pos[i].y_um);
  }
  const auto t = tech::make_technology(tech::TechnologyKind::Glass25D);
  auto arr = ip::arrange_chiplets(t, sys, uniform_plans(3, t));
  EXPECT_EQ(arr.floorplan.dies.size(), 3u);
}

TEST(ArrangementTest, PlacedCountMismatchThrows) {
  ch::SystemConfig sys = make_system(3, ch::Arrangement::Placed, 0);
  sys.placed = "0:0;100:100";  // two positions for three chiplets
  const auto t = tech::make_technology(tech::TechnologyKind::Glass25D);
  EXPECT_THROW(ip::arrange_chiplets(t, sys, uniform_plans(3, t)), std::invalid_argument);
}

// --- SystemRequestTest: serialization, hashing, golden keys.

TEST(SystemRequestTest, GoldenLegacyKeysUnchanged) {
  // Pinned from the pre-system-block schema: a default request must keep
  // hashing to these keys for every technology, or every cached result and
  // golden file is invalidated.
  const std::pair<tech::TechnologyKind, std::uint64_t> golden[] = {
      {tech::TechnologyKind::Glass25D, 0x9a82f796b765df11ull},
      {tech::TechnologyKind::Glass3D, 0x64a5e42f644924d1ull},
      {tech::TechnologyKind::Silicon25D, 0xd5dab2c5932af275ull},
      {tech::TechnologyKind::Silicon3D, 0x1b9d2eb5cc8d0d75ull},
      {tech::TechnologyKind::Shinko, 0x5e63dc772b304764ull},
      {tech::TechnologyKind::APX, 0x45f49e17f1ee9701ull},
  };
  for (const auto& [kind, key] : golden) {
    sv::FlowRequest req;
    req.tech = kind;
    EXPECT_EQ(sv::request_key(req), key) << tech::short_name(kind);
  }
}

TEST(SystemRequestTest, DefaultSystemSerializesToLegacyForm) {
  sv::FlowRequest req;
  EXPECT_TRUE(req.options.system.is_default());
  const std::string text = sv::canonical_text(req);
  EXPECT_EQ(text.find("system."), std::string::npos);
  const std::string json = sv::request_to_json(req);
  EXPECT_EQ(json.find("\"system\""), std::string::npos);
}

TEST(SystemRequestTest, ExplicitDefaultSystemBlockHashesToLegacyKey) {
  sv::FlowRequest legacy;
  const auto parsed = sv::request_from_json(
      R"({"flow_request":{"tech":"glass25d","system":{"chiplets":2,"arrangement":"legacy",)"
      R"("memory_every":0,"die_scale":1,"power_scale":1,"memory_die_scale":1,)"
      R"("memory_power_scale":1,"pitch_scale":1,"placed":""}}})");
  EXPECT_EQ(sv::request_key(parsed), sv::request_key(legacy));
}

TEST(SystemRequestTest, SystemBlockJsonRoundTrip) {
  sv::FlowRequest req;
  req.options.system = make_system(16, ch::Arrangement::Hex);
  req.options.system.pitch_scale = 1.2;
  req.options.system.memory_power_scale = 0.4;
  const std::string json = sv::request_to_json(req);
  EXPECT_NE(json.find("\"system\""), std::string::npos);
  const auto back = sv::request_from_json(json);
  EXPECT_EQ(back.options.system.chiplets, 16);
  EXPECT_EQ(back.options.system.arrangement, ch::Arrangement::Hex);
  EXPECT_EQ(back.options.system.memory_every, 4);
  EXPECT_DOUBLE_EQ(back.options.system.pitch_scale, 1.2);
  EXPECT_DOUBLE_EQ(back.options.system.memory_power_scale, 0.4);
  EXPECT_EQ(sv::request_key(back), sv::request_key(req));
}

TEST(SystemRequestTest, PlacedModeRoundTripsThroughJson) {
  sv::FlowRequest req;
  req.options.system = make_system(3, ch::Arrangement::Placed, 0);
  req.options.system.placed =
      ch::encode_placed({{0, 0}, {1200, 0}, {600, 900}});
  const auto back = sv::request_from_json(sv::request_to_json(req));
  EXPECT_EQ(back.options.system.arrangement, ch::Arrangement::Placed);
  EXPECT_EQ(back.options.system.placed, req.options.system.placed);
  EXPECT_EQ(sv::request_key(back), sv::request_key(req));
}

TEST(SystemRequestTest, UnknownSystemKeysRejected) {
  EXPECT_THROW(sv::request_from_json(
                   R"({"flow_request":{"tech":"glass25d","system":{"bogus":1}}})"),
               std::runtime_error);
  EXPECT_THROW(sv::request_from_json(
                   R"({"flow_request":{"tech":"glass25d","system":{"arrangement":"ring"}}})"),
               std::runtime_error);
}

TEST(SystemRequestTest, SystemKnobsFeedOnlyDeclaredStages) {
  gia::core::FlowOptions legacy;
  gia::core::FlowOptions grid = scaling_options(make_system(16, ch::Arrangement::Grid));
  // Legacy stage knob text never mentions the system block.
  for (const auto& si : st::registry()) {
    const std::string text = st::stage_knob_text(si.id, legacy);
    EXPECT_EQ(text.find("system."), std::string::npos) << si.name;
  }
  // Generalized mode: arrangement knobs live only in the interposer subtree.
  EXPECT_NE(st::stage_knob_text(st::StageId::Interposer, grid).find("system.arrangement"),
            std::string::npos);
  EXPECT_EQ(st::stage_knob_text(st::StageId::ChipletPnr, grid).find("system.arrangement"),
            std::string::npos);
  EXPECT_NE(st::stage_knob_text(st::StageId::NetlistPartition, grid).find("system.chiplets"),
            std::string::npos);
}

// --- SystemNetAssignTest: bump-site bookkeeping for N-chiplet bundles.

TEST(SystemNetAssignTest, BundlesClaimDisjointBumpSites) {
  const auto t = tech::make_technology(tech::TechnologyKind::Glass25D);
  const auto plans = uniform_plans(4, t);
  auto arr = ip::arrange_chiplets(t, make_system(4, ch::Arrangement::Grid, 0), plans);
  // Die 0 serves two bundles, die 3 serves two: each bundle must sit on its
  // own physical bumps.
  const std::vector<ip::SystemPairDemand> pairs = {
      {0, 1, 64}, {0, 2, 64}, {1, 3, 64}, {2, 3, 64}};
  const auto nets = ip::assign_system_nets(arr.floorplan, pairs);
  ASSERT_EQ(nets.size(), 32u);  // 4 pairs x 8 lanes of 8 wires
  for (int die = 0; die < 4; ++die) {
    std::set<std::pair<double, double>> sites;
    std::size_t endpoints = 0;
    const std::string tag = "c" + std::to_string(die);
    for (const auto& n : nets) {
      // Names are "cA_cB_i" with a < b: endpoint `a` belongs to die A,
      // endpoint `b` to die B.
      const auto us = n.name.find('_');
      const std::string a_tag = n.name.substr(0, us);
      const std::string b_tag = n.name.substr(us + 1, n.name.rfind('_') - us - 1);
      if (a_tag == tag) {
        sites.insert({n.a.x, n.a.y});
        ++endpoints;
      }
      if (b_tag == tag) {
        sites.insert({n.b.x, n.b.y});
        ++endpoints;
      }
    }
    EXPECT_EQ(endpoints, 16u) << "die " << die;
    EXPECT_EQ(sites.size(), endpoints) << "die " << die;  // no shared bumps
  }
}

TEST(SystemNetAssignTest, LaneCountClampsToFreeBumps) {
  const auto t = tech::make_technology(tech::TechnologyKind::Glass25D);
  const auto plans = uniform_plans(2, t);  // 200 signal bumps per die
  auto arr = ip::arrange_chiplets(t, make_system(2, ch::Arrangement::Grid, 0), plans);
  // 2000 wires want 250 lanes of 8; only 200 sites exist, so the bundle
  // clamps to 200 lanes carrying the full demand evenly.
  const auto nets = ip::assign_system_nets(arr.floorplan, {{0, 1, 2000}});
  ASSERT_EQ(nets.size(), 200u);
  long total = 0;
  for (const auto& n : nets) {
    EXPECT_EQ(n.bits, 10);
    total += n.bits;
  }
  EXPECT_EQ(total, 2000);
}

TEST(SystemNetAssignTest, ExhaustedDieNamedInError) {
  const auto t = tech::make_technology(tech::TechnologyKind::Glass25D);
  const auto plans = uniform_plans(3, t);
  auto arr = ip::arrange_chiplets(t, make_system(3, ch::Arrangement::Grid, 0), plans);
  // The first pair consumes all 200 sites on dies 0 and 1; the second pair
  // then finds die 0 exhausted.
  const std::vector<ip::SystemPairDemand> pairs = {{0, 1, 1600}, {0, 2, 8}};
  try {
    ip::assign_system_nets(arr.floorplan, pairs);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("die c0"), std::string::npos) << msg;
    EXPECT_NE(msg.find("c0_c2"), std::string::npos) << msg;
  }
}

TEST(SystemRequestTest, MemoryClassingChangesPartitionKey) {
  // The netlist_partition artifact bakes die classes in (per-part ChipletSide,
  // partition.side, memory_fraction). Two requests differing only in
  // memory_every must hash to distinct partition keys, or the process-wide
  // stage cache serves one request's die classes to the other.
  auto every2 = scaling_options(make_system(16, ch::Arrangement::Grid, 2));
  auto every4 = scaling_options(make_system(16, ch::Arrangement::Grid, 4));
  const auto k2 = st::compute_stage_keys(tech::TechnologyKind::Glass25D, every2);
  const auto k4 = st::compute_stage_keys(tech::TechnologyKind::Glass25D, every4);
  EXPECT_NE(k2.of(st::StageId::NetlistPartition), k4.of(st::StageId::NetlistPartition));
  // And the dependency chain must propagate the distinction downstream.
  EXPECT_NE(k2.of(st::StageId::ChipletPnr), k4.of(st::StageId::ChipletPnr));
  EXPECT_NE(k2.of(st::StageId::Interposer), k4.of(st::StageId::Interposer));
}

// --- ChipletScalingTest: end-to-end generalized flows.

TEST(ChipletScalingTest, EightChipletGridFlowCompletes) {
  auto o = scaling_options(make_system(8, ch::Arrangement::Grid));
  const auto r = st::execute_flow(tech::TechnologyKind::Glass25D, o);
  EXPECT_EQ(r.interposer.floorplan.dies.size(), 8u);
  EXPECT_FALSE(r.interposer.adjacency.empty());
  EXPECT_TRUE(std::isfinite(r.total_power_w));
  EXPECT_GT(r.total_power_w, 0.0);
  EXPECT_GT(r.system_fmax_hz, 0.0);
  EXPECT_GT(r.interposer.area_mm2(), 0.0);
  EXPECT_GT(r.interposer.routes.stats.routed_nets, 0);
  EXPECT_GT(r.interposer.routes.stats.total_wl_um, 0.0);
  EXPECT_TRUE(std::isfinite(r.interposer.routes.stats.total_wl_um));
  EXPECT_TRUE(std::isfinite(r.ir_drop.max_drop_v));
  // Memory-every classing: chiplets 3 and 7 (0-based) are memory dies.
  int mem = 0;
  for (const auto& die : r.interposer.floorplan.dies) {
    mem += die.side == gia::netlist::ChipletSide::Memory ? 1 : 0;
  }
  EXPECT_EQ(mem, 2);
}

TEST(ChipletScalingTest, EightChipletHexFlowCompletes) {
  auto o = scaling_options(make_system(8, ch::Arrangement::Hex));
  const auto r = st::execute_flow(tech::TechnologyKind::Glass25D, o);
  EXPECT_EQ(r.interposer.floorplan.dies.size(), 8u);
  EXPECT_TRUE(std::isfinite(r.total_power_w));
  EXPECT_GT(r.system_fmax_hz, 0.0);
  EXPECT_GT(r.interposer.routes.stats.routed_nets, 0);
}

TEST(ChipletScalingTest, GeneralizedThermalStaysFinite) {
  auto o = scaling_options(make_system(8, ch::Arrangement::Grid));
  o.with_thermal = true;
  o.thermal_mesh.nx = 24;
  o.thermal_mesh.ny = 24;
  const auto r = st::execute_flow(tech::TechnologyKind::Glass25D, o);
  ASSERT_TRUE(r.thermal.has_value());
  EXPECT_TRUE(std::isfinite(r.thermal->interposer_hotspot_c));
  EXPECT_GT(r.thermal->interposer_hotspot_c, r.thermal->ambient_c);
  for (const auto& [name, die] : r.thermal->dies) {
    EXPECT_TRUE(std::isfinite(die.hotspot_c)) << name;
  }
}

TEST(ChipletScalingTest, ArrangementSweepReusesUpstreamStages) {
  auto grid = scaling_options(make_system(8, ch::Arrangement::Grid));
  auto hex = scaling_options(make_system(8, ch::Arrangement::Hex));
  // Key level: only the interposer subtree may differ.
  const auto kg = st::compute_stage_keys(tech::TechnologyKind::Glass25D, grid);
  const auto kh = st::compute_stage_keys(tech::TechnologyKind::Glass25D, hex);
  EXPECT_EQ(kg.of(st::StageId::NetlistPartition), kh.of(st::StageId::NetlistPartition));
  EXPECT_EQ(kg.of(st::StageId::ChipletPnr), kh.of(st::StageId::ChipletPnr));
  EXPECT_NE(kg.of(st::StageId::Interposer), kh.of(st::StageId::Interposer));
  EXPECT_NE(kg.of(st::StageId::Rollup), kh.of(st::StageId::Rollup));

  // Execution level: the hex run serves the expensive upstream stages from
  // the cache primed by the grid run.
  const bool was_enabled = st::stage_cache_enabled();
  st::set_stage_cache_enabled(true);
  st::stage_cache_clear();
  st::execute_flow(tech::TechnologyKind::Glass25D, grid);
  st::StageRunRecord rec;
  st::execute_flow(tech::TechnologyKind::Glass25D, hex, &rec);
  EXPECT_NE(rec.outcome[st::idx(st::StageId::NetlistPartition)],
            st::StageRunRecord::Outcome::Computed);
  EXPECT_NE(rec.outcome[st::idx(st::StageId::ChipletPnr)],
            st::StageRunRecord::Outcome::Computed);
  EXPECT_EQ(rec.outcome[st::idx(st::StageId::Interposer)],
            st::StageRunRecord::Outcome::Computed);
  st::set_stage_cache_enabled(was_enabled);
}

TEST(ChipletScalingTest, LegacyRequiresTwoChiplets) {
  gia::core::FlowOptions o;
  o.system.chiplets = 5;  // legacy arrangement, wrong count
  EXPECT_THROW(st::execute_flow(tech::TechnologyKind::Glass25D, o), std::invalid_argument);
}

TEST(ChipletScalingTest, GeneralizedModeNeedsInterposerTechnology) {
  auto o = scaling_options(make_system(8, ch::Arrangement::Grid));
  EXPECT_THROW(st::execute_flow(tech::TechnologyKind::Silicon3D, o), std::invalid_argument);
}

TEST(ChipletScalingTest, PlacedArityValidatedBeforeRunning) {
  auto o = scaling_options(make_system(4, ch::Arrangement::Placed, 0));
  o.system.placed = "0:0;2000:0";  // two positions for four chiplets
  EXPECT_THROW(st::execute_flow(tech::TechnologyKind::Glass25D, o), std::invalid_argument);
}

TEST(ChipletScalingTest, DefaultRequestUnchangedByGeneralization) {
  // The legacy 2-chiplet flow must be byte-identical with the system block
  // at defaults: compare a handful of exact doubles across two runs with
  // the cache disabled (any drift in the legacy path shows here).
  const bool was_enabled = st::stage_cache_enabled();
  st::set_stage_cache_enabled(false);
  gia::core::FlowOptions o;
  const auto a = st::execute_flow(tech::TechnologyKind::Glass25D, o);
  const auto b = st::execute_flow(tech::TechnologyKind::Glass25D, o);
  st::set_stage_cache_enabled(was_enabled);
  EXPECT_EQ(a.total_power_w, b.total_power_w);
  EXPECT_EQ(a.system_fmax_hz, b.system_fmax_hz);
  EXPECT_EQ(a.interposer.routes.stats.total_wl_um, b.interposer.routes.stats.total_wl_um);
  EXPECT_TRUE(a.interposer.chiplet_plans.empty());
  EXPECT_TRUE(a.interposer.adjacency.empty());
}
