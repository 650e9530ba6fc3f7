#include <gtest/gtest.h>

#include <map>
#include <sstream>

#include "core/headline.hpp"
#include "core/links.hpp"
#include "core/report.hpp"
#include "core/stagegraph.hpp"
#include "tech/library.hpp"

namespace co = gia::core;
namespace th = gia::tech;
namespace ip = gia::interposer;

namespace {

const co::TechnologyResult& flow_of(th::TechnologyKind k) {
  static std::map<th::TechnologyKind, co::TechnologyResult> cache;
  auto it = cache.find(k);
  if (it == cache.end()) {
    co::FlowOptions opts;
    opts.with_eyes = true;
    opts.with_thermal = true;
    opts.eye_bits = 64;
    it = cache.emplace(k, co::stage::execute_flow(k, opts)).first;
  }
  return it->second;
}

}  // namespace

// --- Full flow consistency ----------------------------------------------------

TEST(Flow, RejectsMonolithic) {
  EXPECT_THROW(co::stage::execute_flow(th::TechnologyKind::Monolithic2D), std::invalid_argument);
}

TEST(Flow, AllPiecesPopulated) {
  const auto& r = flow_of(th::TechnologyKind::Glass3D);
  EXPECT_EQ(r.serdes.wires_after, 68);
  EXPECT_EQ(r.partition.cut_wires, 2 * 231);
  EXPECT_GT(r.logic.cell_count, 160000);
  EXPECT_GT(r.interposer.top_nets.size(), 500u);
  EXPECT_TRUE(r.l2m.eye.has_value());
  EXPECT_TRUE(r.thermal.has_value());
  EXPECT_GT(r.total_power_w, 0.3);
  EXPECT_LT(r.total_power_w, 0.6);
  EXPECT_TRUE(r.link_timing_met);  // Section VII-H: pipelined links close
}

TEST(Flow, SystemFmaxIsSlowestChiplet) {
  const auto& r = flow_of(th::TechnologyKind::Silicon25D);
  EXPECT_DOUBLE_EQ(r.system_fmax_hz, std::min(r.logic.fmax_hz, r.memory.fmax_hz));
  EXPECT_GT(r.system_fmax_hz, 0.6e9);
}

TEST(Flow, FullChipPowerOrdering) {
  // Paper Table IV: Glass 3D consumes the least among interposer designs;
  // Silicon 3D the least overall; monolithic below both.
  const double g3 = flow_of(th::TechnologyKind::Glass3D).total_power_w;
  const double g25 = flow_of(th::TechnologyKind::Glass25D).total_power_w;
  const double s3 = flow_of(th::TechnologyKind::Silicon3D).total_power_w;
  const double sh = flow_of(th::TechnologyKind::Shinko).total_power_w;
  EXPECT_LT(g3, g25);
  EXPECT_LT(g3, sh);
  EXPECT_LT(s3, g3);
  const auto mono = co::run_monolithic_reference();
  EXPECT_LT(mono.total_power_w, g3);
}

TEST(Flow, MonolithicReference) {
  const auto mono = co::run_monolithic_reference();
  EXPECT_EQ(mono.cells, 2L * (166295 + 37091));
  EXPECT_NEAR(mono.footprint_mm, 1.6, 1e-9);
  EXPECT_GT(mono.wirelength_m, 8.0);
  EXPECT_LT(mono.wirelength_m, 16.0);
}

// --- Links (Table V shapes) ---------------------------------------------------

TEST(Links, VerticalBeatsLateralForL2M) {
  // Table V: Si3D lowest L2M delay/power, Glass 3D second, laterals worse.
  const auto& g3 = flow_of(th::TechnologyKind::Glass3D).l2m.result;
  const auto& s3 = flow_of(th::TechnologyKind::Silicon3D).l2m.result;
  const auto& si = flow_of(th::TechnologyKind::Silicon25D).l2m.result;
  const auto& g25 = flow_of(th::TechnologyKind::Glass25D).l2m.result;
  EXPECT_LE(s3.total_delay_s, g3.total_delay_s + 2e-12);
  EXPECT_LT(g3.total_delay_s, si.total_delay_s);
  EXPECT_LT(g3.interconnect_power_w, g25.interconnect_power_w);
  EXPECT_LT(s3.interconnect_power_w, si.interconnect_power_w);
}

TEST(Links, L2LSilicon3dBest) {
  // Table V: Si3D's TSV pair beats every lateral L2L link.
  const double s3 = flow_of(th::TechnologyKind::Silicon3D).l2l.result.total_delay_s;
  for (auto k : {th::TechnologyKind::Glass25D, th::TechnologyKind::Glass3D,
                 th::TechnologyKind::Silicon25D, th::TechnologyKind::Shinko,
                 th::TechnologyKind::APX}) {
    EXPECT_LT(s3, flow_of(k).l2l.result.total_delay_s) << th::to_string(k);
  }
}

TEST(Links, DriverDelayDominatesShortChannels) {
  // Table V: IO drivers contribute ~39-40 ps; short channels add little.
  const auto& g3 = flow_of(th::TechnologyKind::Glass3D).l2m.result;
  EXPECT_NEAR(g3.driver_delay_s, 39.5e-12, 3e-12);
  EXPECT_LT(g3.interconnect_delay_s, 5e-12);
}

TEST(Links, FixedLineSpecTableVI) {
  // Table VI: thick APX lines beat thin silicon lines per unit length.
  const auto apx = gia::signal::simulate_link(
      co::make_fixed_line_spec(th::make_technology(th::TechnologyKind::APX)));
  const auto si = gia::signal::simulate_link(
      co::make_fixed_line_spec(th::make_technology(th::TechnologyKind::Silicon25D)));
  const auto glass = gia::signal::simulate_link(
      co::make_fixed_line_spec(th::make_technology(th::TechnologyKind::Glass25D)));
  EXPECT_LT(apx.interconnect_delay_s, si.interconnect_delay_s);
  EXPECT_LE(glass.interconnect_delay_s, si.interconnect_delay_s);
}

TEST(Links, EyeOrderings) {
  // Fig 14: Glass 3D widest L2M eye; Silicon 2.5D narrowest.
  const auto& g3 = *flow_of(th::TechnologyKind::Glass3D).l2m.eye;
  const auto& si = *flow_of(th::TechnologyKind::Silicon25D).l2m.eye;
  EXPECT_GT(g3.width_s, si.width_s);
  EXPECT_GE(g3.height_v, si.height_v - 1e-3);
  // Fig 14: Silicon 3D widest L2L eye.
  const auto& s3_l2l = *flow_of(th::TechnologyKind::Silicon3D).l2l.eye;
  const auto& si_l2l = *flow_of(th::TechnologyKind::Silicon25D).l2l.eye;
  EXPECT_GE(s3_l2l.width_s, si_l2l.width_s - 1e-12);
}

// --- Headlines ------------------------------------------------------------------

TEST(Headlines, MatchPaperShape) {
  const auto h = co::compute_headlines(
      flow_of(th::TechnologyKind::Glass3D), flow_of(th::TechnologyKind::Glass25D),
      flow_of(th::TechnologyKind::Silicon25D), flow_of(th::TechnologyKind::Shinko));
  EXPECT_NEAR(h.area_reduction_x, 2.6, 0.5);         // paper: 2.6X
  EXPECT_GT(h.wirelength_reduction_x, 14.0);         // paper: 21X
  EXPECT_LT(h.wirelength_reduction_x, 30.0);
  EXPECT_GT(h.power_reduction_pct, 5.0);             // paper: 17.72%
  EXPECT_LT(h.power_reduction_pct, 25.0);
  EXPECT_GT(h.si_improvement_pct, 30.0);             // paper: 64.7%
  EXPECT_GT(h.pi_improvement_x, 8.0);                // paper: 10X
  EXPECT_GT(h.thermal_increase_pct, 15.0);           // paper: ~35%
  EXPECT_LT(h.thermal_increase_pct, 60.0);
}

// --- Report formatting -----------------------------------------------------------

TEST(Report, AlignedTable) {
  co::Table t("Demo");
  t.row({"design", "area", "power"});
  t.row({"Glass 3D", "1.88", "399.8"});
  t.row({"APX", "9.45", "506.3"});
  const auto s = t.str();
  EXPECT_NE(s.find("== Demo =="), std::string::npos);
  EXPECT_NE(s.find("Glass 3D"), std::string::npos);
  // Header separator present.
  EXPECT_NE(s.find("------"), std::string::npos);
}

TEST(Report, EngineeringNotation) {
  EXPECT_EQ(co::Table::eng(1.43e-9, "s"), "1.43 ns");
  EXPECT_EQ(co::Table::eng(2.07e6, "Hz"), "2.07 MHz");
  EXPECT_EQ(co::Table::eng(47.4, "ohm"), "47.40 ohm");
  EXPECT_EQ(co::Table::eng(0.142, "W"), "142.00 mW");
  EXPECT_EQ(co::Table::eng(0.0, "F"), "0 F");
  EXPECT_EQ(co::Table::num(3.14159, 2), "3.14");
  EXPECT_EQ(co::Table::pct(17.72, 2), "17.72%");
}
