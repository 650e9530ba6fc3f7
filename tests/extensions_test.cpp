#include <gtest/gtest.h>

#include <fstream>

#include "core/stagegraph.hpp"
#include "core/svg_export.hpp"
#include "interposer/design.hpp"
#include "tech/library.hpp"
#include "thermal/analysis.hpp"

namespace co = gia::core;
namespace th = gia::tech;

// --- Flattened-partition flow branch (Fig 4 right branch) --------------------

TEST(FlattenedFlow, ConvergesToPaperCutAtPaperBalance) {
  co::FlowOptions opts;
  opts.partition_mode = co::PartitionMode::Flattened;
  opts.fm.target_memory_fraction = 0.18;
  opts.fm.balance_tolerance = 0.05;
  const auto r = co::stage::execute_flow(th::TechnologyKind::Glass25D, opts);
  // At the paper's balance point, min-cut rediscovers the L3 boundary.
  EXPECT_EQ(r.partition.cut_wires, 462);
  EXPECT_NEAR(r.partition.memory_fraction, 0.181, 0.02);
  EXPECT_EQ(r.logic.aib_lanes, 299);
}

TEST(FlattenedFlow, UnbalancedTargetChangesChiplets) {
  co::FlowOptions opts;
  opts.partition_mode = co::PartitionMode::Flattened;
  opts.fm.target_memory_fraction = 0.5;
  opts.fm.balance_tolerance = 0.06;
  const auto r = co::stage::execute_flow(th::TechnologyKind::Glass25D, opts);
  EXPECT_NEAR(r.partition.memory_fraction, 0.5, 0.12);
  // A 50/50 split puts far more cells (and thus area) on the memory die
  // than the paper's 770 um L3-only chiplet.
  EXPECT_GT(r.memory.footprint_um, 840.0);
}

// --- Thermal vias (paper future work, Section VII-G) --------------------------

TEST(ThermalVias, CoolTheEmbeddedDie) {
  const auto design = gia::interposer::build_interposer_design(th::TechnologyKind::Glass3D);
  gia::thermal::MeshOptions none, vias;
  vias.thermal_via_fraction = 0.10;
  const auto t_none = gia::thermal::run_thermal(design, none);
  const auto t_vias = gia::thermal::run_thermal(design, vias);
  EXPECT_LT(t_vias.hotspot("tile0/mem"), t_none.hotspot("tile0/mem") - 1.0);
  // Monotone: more fill never heats the die.
  gia::thermal::MeshOptions more;
  more.thermal_via_fraction = 0.25;
  const auto t_more = gia::thermal::run_thermal(design, more);
  EXPECT_LE(t_more.hotspot("tile0/mem"), t_vias.hotspot("tile0/mem") + 0.2);
}

TEST(ThermalVias, NoEffectOnNonEmbeddedDesigns) {
  const auto design = gia::interposer::build_interposer_design(th::TechnologyKind::Silicon25D);
  gia::thermal::MeshOptions none, vias;
  vias.thermal_via_fraction = 0.10;
  const auto a = gia::thermal::run_thermal(design, none);
  const auto b = gia::thermal::run_thermal(design, vias);
  EXPECT_NEAR(a.hotspot("tile0/logic"), b.hotspot("tile0/logic"), 1e-6);
}

// --- SVG export -----------------------------------------------------------------

TEST(SvgExport, FloorplanContainsAllDies) {
  const auto design = gia::interposer::build_interposer_design(th::TechnologyKind::Glass3D);
  const auto svg = co::floorplan_svg(design);
  EXPECT_NE(svg.find("<svg"), std::string::npos);
  EXPECT_NE(svg.find("</svg>"), std::string::npos);
  for (const auto& die : design.floorplan.dies) {
    EXPECT_NE(svg.find(die.name), std::string::npos) << die.name;
  }
  EXPECT_NE(svg.find("embedded"), std::string::npos);  // Glass 3D marks cavities
  EXPECT_NE(svg.find("<polyline"), std::string::npos); // routed nets drawn
}

TEST(SvgExport, RouteCapRespected) {
  const auto design = gia::interposer::build_interposer_design(th::TechnologyKind::Silicon25D);
  co::SvgOptions opts;
  opts.max_routes = 5;
  const auto svg = co::floorplan_svg(design, opts);
  std::size_t count = 0, pos = 0;
  while ((pos = svg.find("<polyline", pos)) != std::string::npos) {
    ++count;
    ++pos;
  }
  EXPECT_LE(count, 5u);
}

TEST(SvgExport, HeatmapSpansRange) {
  gia::geometry::Grid<double> g(4, 4, 22.0);
  g.at(2, 2) = 40.0;
  const auto svg = co::heatmap_svg(g, 1000, 1000, "test map");
  EXPECT_NE(svg.find("test map"), std::string::npos);
  // 16 cells drawn.
  std::size_t count = 0, pos = 0;
  while ((pos = svg.find("<rect", pos)) != std::string::npos) {
    ++count;
    ++pos;
  }
  EXPECT_EQ(count, 16u);
}

TEST(SvgExport, WriteFileRoundTrip) {
  const std::string path = ::testing::TempDir() + "/gia_svg_test.svg";
  co::write_file(path, "<svg></svg>");
  std::ifstream f(path);
  std::string content((std::istreambuf_iterator<char>(f)), std::istreambuf_iterator<char>());
  EXPECT_EQ(content, "<svg></svg>");
  EXPECT_THROW(co::write_file("/nonexistent-dir/x.svg", "x"), std::runtime_error);
}
