#include <gtest/gtest.h>

#include "core/stagegraph.hpp"
#include "tech/library.hpp"

/// Whole-flow integration properties: stability of the reproduced results
/// under netlist regeneration seeds, determinism of the full pipeline, and
/// cross-technology invariants that must hold regardless of calibration.

namespace co = gia::core;
namespace th = gia::tech;

// Seeds perturb the synthetic intra-module wiring; the published statistics
// (cell counts, interface widths) are fixed, so Table II/III-level results
// must stay inside their bands.
class FlowSeedSweep : public ::testing::TestWithParam<unsigned> {};

TEST_P(FlowSeedSweep, StableAcrossNetlistSeeds) {
  co::FlowOptions opts;
  opts.openpiton.seed = GetParam();
  const auto r = co::stage::execute_flow(th::TechnologyKind::Glass25D, opts);
  EXPECT_EQ(r.logic.cell_count, 167495);
  EXPECT_EQ(r.partition.cut_wires, 462);
  EXPECT_NEAR(r.logic.footprint_um, 820, 15);
  EXPECT_NEAR(r.logic.wirelength_m, 5.1, 1.0);
  EXPECT_NEAR(r.logic.power.total_w, 0.143, 0.015);
  EXPECT_GT(r.system_fmax_hz, 0.6e9);
  EXPECT_TRUE(r.link_timing_met);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FlowSeedSweep, ::testing::Values(1u, 20230710u, 99u));

TEST(FlowIntegration, FullyDeterministic) {
  const auto a = co::stage::execute_flow(th::TechnologyKind::Shinko);
  const auto b = co::stage::execute_flow(th::TechnologyKind::Shinko);
  EXPECT_DOUBLE_EQ(a.total_power_w, b.total_power_w);
  EXPECT_DOUBLE_EQ(a.logic.wirelength_m, b.logic.wirelength_m);
  EXPECT_DOUBLE_EQ(a.interposer.routes.stats.total_wl_um,
                   b.interposer.routes.stats.total_wl_um);
  EXPECT_DOUBLE_EQ(a.l2m.result.total_delay_s, b.l2m.result.total_delay_s);
  EXPECT_DOUBLE_EQ(a.ir_drop.max_drop_v, b.ir_drop.max_drop_v);
}

TEST(FlowIntegration, CrossTechnologyInvariants) {
  // Structural truths that hold whatever the calibration constants are.
  for (auto k : th::table_order()) {
    const auto r = co::stage::execute_flow(k);
    // Chiplets always fit on the interposer.
    if (r.technology.has_interposer()) {
      for (const auto& die : r.interposer.floorplan.dies) {
        EXPECT_TRUE(r.interposer.floorplan.outline.contains(die.outline))
            << th::to_string(k) << " " << die.name;
      }
    }
    // The logic chiplet is never smaller than the memory chiplet.
    EXPECT_GE(r.logic.footprint_um, r.memory.footprint_um - 1e-9) << th::to_string(k);
    // Utilization within physical bounds.
    EXPECT_GT(r.logic.utilization, 0.1) << th::to_string(k);
    EXPECT_LT(r.logic.utilization, 0.9) << th::to_string(k);
    EXPECT_LT(r.memory.utilization, 0.9) << th::to_string(k);
    // Power decomposition sums.
    EXPECT_NEAR(r.logic.power.total_w,
                r.logic.power.internal_w + r.logic.power.switching_w + r.logic.power.leakage_w,
                1e-12)
        << th::to_string(k);
    // Link results are causal and positive.
    EXPECT_GT(r.l2m.result.total_delay_s, 0) << th::to_string(k);
    EXPECT_GE(r.l2m.result.interconnect_delay_s, 0) << th::to_string(k);
    EXPECT_GT(r.total_power_w, 2 * (r.logic.power.total_w + r.memory.power.total_w) - 1e-6)
        << th::to_string(k);
  }
}

TEST(FlowIntegration, PitchDrivesFootprintOrdering) {
  // Table II's core observation as an invariant: finer bump pitch never
  // yields a larger bump-limited chiplet.
  const auto glass = co::stage::execute_flow(th::TechnologyKind::Glass25D);
  const auto si = co::stage::execute_flow(th::TechnologyKind::Silicon25D);
  const auto apx = co::stage::execute_flow(th::TechnologyKind::APX);
  EXPECT_LE(glass.logic.footprint_um, si.logic.footprint_um);
  EXPECT_LE(si.logic.footprint_um, apx.logic.footprint_um);
}

TEST(FlowIntegration, SerdesReportConsistent) {
  const auto r = co::stage::execute_flow(th::TechnologyKind::Glass3D);
  EXPECT_EQ(r.serdes.wires_before, 404);
  EXPECT_EQ(r.serdes.wires_after, 68);
  EXPECT_EQ(r.serdes.buses_serialized, 6);
  // 12 SerDes blocks (6 buses x 2 endpoints) landed in the netlist.
  EXPECT_EQ(r.serdes.serdes_instances_added, 12);
}
