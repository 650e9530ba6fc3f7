// Tests for core/serialize: JSON round-trip of TechnologyResult and
// HeadlineMetrics. The contract under test is the serving layer's storage
// format: serialize -> parse -> re-serialize must be byte-identical, and
// every summary field must survive exactly.

#include "core/serialize.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

#include "core/headline.hpp"
#include "core/stagegraph.hpp"
#include "tech/library.hpp"

namespace gia {
namespace {

core::TechnologyResult run_once(tech::TechnologyKind k, bool eyes, bool thermal) {
  core::FlowOptions opts;
  opts.with_eyes = eyes;
  opts.with_thermal = thermal;
  return core::stage::execute_flow(k, opts);
}

/// A fully populated result built from chosen values, independent of the
/// flow and the compiler: every scalar distinct (doubles k + 0.25 / 0.75,
/// integers from 101, booleans alternating), both eyes present, a two-die
/// thermal map and a three-point impedance profile.
core::TechnologyResult synthetic_result() {
  double x = -1.25;
  auto d = [&x] { return x += 1.5; };
  int n = 100;
  auto i = [&n] { return ++n; };
  core::TechnologyResult r;
  r.technology = tech::make_technology(tech::TechnologyKind::Glass25D);
  r.serdes = {i(), i(), i(), i(), i(), i()};
  r.partition.cut_wires = i();
  r.partition.memory_fraction = d();
  for (chiplet::BumpPlan* p : {&r.plans.logic, &r.plans.memory}) {
    p->signal_bumps = i();
    p->pg_bumps = i();
    p->width_um = d();
    p->bump_limited = p == &r.plans.logic;
  }
  for (chiplet::ChipletPnrResult* c : {&r.logic, &r.memory}) {
    c->side = c == &r.logic ? netlist::ChipletSide::Logic : netlist::ChipletSide::Memory;
    c->fmax_hz = d() * 1e9;
    c->footprint_um = d();
    c->cell_count = 5000000000L + i();  // above 2^31: a long field
    c->utilization = d();
    c->wirelength_m = d() * 1e-3;
    c->power = {d(), d(), d(), d(), d() * 1e-15, d() * 1e-15};
    c->congestion = {d(), d(), d(), d()};
    c->aib_lanes = i();
    c->aib_area_um2 = d();
    c->aib_area_frac = d();
    c->aib_power_w = d();
    c->aib_power_frac = d();
    c->timing_met = c == &r.memory;
  }
  r.interposer.floorplan.outline = {-d(), -d(), d(), d()};
  r.interposer.routes.stats = {d(), d(), d(), d(), i(), i(), i(), i(), i(), i()};
  for (core::LinkStudy* l : {&r.l2m, &r.l2l}) {
    l->spec.length_um = d();
    l->spec.bit_rate_hz = d() * 1e9;
    l->result = {d() * 1e-12, d() * 1e-12, d() * 1e-12, d(), d(), d()};
    signal::EyeResult eye;
    eye.width_s = d() * 1e-12;
    eye.height_v = d();
    eye.ui_s = d() * 1e-12;
    eye.mean_high_v = d();
    eye.mean_low_v = d();
    eye.sigma_high_v = d();
    eye.sigma_low_v = d();
    l->eye = eye;
  }
  r.pdn_model = {d() * 1e-12, d(), d() * 1e-9, d(), d() * 1e-12, d() * 1e-12, d(), d()};
  r.pdn_impedance.freq_hz = {1e6, 3.1622776601683795e7, 1e9};
  r.pdn_impedance.z_ohm = {d(), d(), 1.0 / 3.0};
  r.ir_drop.max_drop_v = d();
  r.ir_drop.avg_drop_v = d();
  r.settling.settling_time_s = d() * 1e-9;
  r.settling.worst_droop_v = d();
  thermal::ThermalReport t;
  for (const char* die : {"logic0", "memory0"}) {
    thermal::DieThermal& dt = t.dies[die];
    dt.die = die;
    dt.hotspot_c = d();
    dt.average_c = d();
  }
  t.interposer_hotspot_c = d();
  t.ambient_c = d();
  t.hotspot_spread = d();
  r.thermal = t;
  r.total_power_w = d();
  r.system_fmax_hz = d() * 1e9;
  r.link_timing_met = true;
  return r;
}

core::HeadlineMetrics synthetic_headline() {
  core::HeadlineMetrics h;
  h.area_reduction_x = 2.6;
  h.wirelength_reduction_x = 21.0;
  h.power_reduction_pct = 17.72;
  h.si_improvement_pct = 64.7;
  h.pi_improvement_x = -10.0;
  h.thermal_increase_pct = 35.0 / 3.0;
  return h;
}

TEST(SerializeTest, RoundTripIsByteIdenticalWithEyesAndThermal) {
  const auto r = run_once(tech::TechnologyKind::Glass3D, true, true);
  const std::string first = core::technology_result_to_json(r);
  const auto parsed = core::technology_result_from_json(first);
  const std::string second = core::technology_result_to_json(parsed);
  EXPECT_EQ(first, second);
  ASSERT_TRUE(parsed.thermal.has_value());
  ASSERT_TRUE(parsed.l2m.eye.has_value());
}

TEST(SerializeTest, RoundTripIsByteIdenticalWithoutOptionalAnalyses) {
  const auto r = run_once(tech::TechnologyKind::Shinko, false, false);
  const std::string first = core::technology_result_to_json(r);
  const auto parsed = core::technology_result_from_json(first);
  EXPECT_EQ(first, core::technology_result_to_json(parsed));
  EXPECT_FALSE(parsed.thermal.has_value());
  EXPECT_FALSE(parsed.l2m.eye.has_value());
}

TEST(SerializeTest, RestoresSummaryFieldsExactly) {
  const auto r = run_once(tech::TechnologyKind::Glass25D, true, false);
  const auto p = core::technology_result_from_json(core::technology_result_to_json(r));

  EXPECT_EQ(p.technology.kind, r.technology.kind);
  EXPECT_EQ(p.technology.name, r.technology.name);
  EXPECT_EQ(p.serdes.wires_after, r.serdes.wires_after);
  EXPECT_EQ(p.partition.cut_wires, r.partition.cut_wires);
  EXPECT_DOUBLE_EQ(p.partition.memory_fraction, r.partition.memory_fraction);
  EXPECT_DOUBLE_EQ(p.interposer.area_mm2(), r.interposer.area_mm2());
  EXPECT_DOUBLE_EQ(p.logic.power.total_w, r.logic.power.total_w);
  EXPECT_DOUBLE_EQ(p.memory.power.total_w, r.memory.power.total_w);
  EXPECT_DOUBLE_EQ(p.l2m.result.total_delay_s, r.l2m.result.total_delay_s);
  ASSERT_TRUE(p.l2m.eye.has_value());
  EXPECT_DOUBLE_EQ(p.l2m.eye->width_s, r.l2m.eye->width_s);
  EXPECT_DOUBLE_EQ(p.ir_drop.max_drop_v, r.ir_drop.max_drop_v);
  ASSERT_EQ(p.pdn_impedance.freq_hz.size(), r.pdn_impedance.freq_hz.size());
  EXPECT_DOUBLE_EQ(p.pdn_impedance.high_band(), r.pdn_impedance.high_band());
  EXPECT_DOUBLE_EQ(p.total_power_w, r.total_power_w);
  EXPECT_DOUBLE_EQ(p.system_fmax_hz, r.system_fmax_hz);
  EXPECT_EQ(p.link_timing_met, r.link_timing_met);
}

TEST(SerializeTest, RejectsMalformedInput) {
  EXPECT_THROW(core::technology_result_from_json(""), std::runtime_error);
  EXPECT_THROW(core::technology_result_from_json("{"), std::runtime_error);
  EXPECT_THROW(core::technology_result_from_json("not json at all"), std::runtime_error);
  EXPECT_THROW(core::technology_result_from_json("{\"wrong_wrapper\":{}}"),
               std::runtime_error);
  EXPECT_THROW(core::technology_result_from_json("{\"technology_result\":{}}"),
               std::runtime_error);
  // Truncation anywhere inside a real document must throw, never crash.
  const auto r = run_once(tech::TechnologyKind::APX, false, false);
  const std::string full = core::technology_result_to_json(r);
  EXPECT_THROW(core::technology_result_from_json(full.substr(0, full.size() / 2)),
               std::runtime_error);
}

TEST(SerializeTest, HeadlineMetricsRoundTrip) {
  core::HeadlineMetrics h;
  h.area_reduction_x = 2.6;
  h.wirelength_reduction_x = 21.0;
  h.power_reduction_pct = 17.72;
  h.si_improvement_pct = 64.7;
  h.pi_improvement_x = 10.0;
  h.thermal_increase_pct = 35.0 / 3.0;  // non-representable: exercises %.17g
  const std::string text = core::headline_metrics_to_json(h);
  const auto p = core::headline_metrics_from_json(text);
  EXPECT_DOUBLE_EQ(p.area_reduction_x, h.area_reduction_x);
  EXPECT_DOUBLE_EQ(p.wirelength_reduction_x, h.wirelength_reduction_x);
  EXPECT_DOUBLE_EQ(p.power_reduction_pct, h.power_reduction_pct);
  EXPECT_DOUBLE_EQ(p.si_improvement_pct, h.si_improvement_pct);
  EXPECT_DOUBLE_EQ(p.pi_improvement_x, h.pi_improvement_x);
  EXPECT_DOUBLE_EQ(p.thermal_increase_pct, h.thermal_increase_pct);
  EXPECT_EQ(text, core::headline_metrics_to_json(p));
}

// The writer's bytes, pinned verbatim: key order and spelling, nesting,
// %.17g doubles, integers beyond 2^31, both optionals present. The reader
// must restore it exactly.
TEST(SerializeTest, WriterGoldenFullyPopulatedResult) {
  const std::string golden =
    R"({"technology_result":{"tech":"glass25d","serdes":{"buses_serialized":101,)"
    R"("wires_before":102,"wires_after":103,"serdes_instances_added":104,"added_cells":105,)"
    R"("latency_cycles":106},"partition":{"cut_wires":107,"memory_fraction":0.25},)"
    R"("plans":{"logic":{"signal_bumps":108,"pg_bumps":109,"width_um":1.75,)"
    R"("bump_limited":true},"memory":{"signal_bumps":110,"pg_bumps":111,"width_um":3.25,)"
    R"("bump_limited":false}},"logic":{"side":"logic","fmax_hz":4750000000,)"
    R"("footprint_um":6.25,"cell_count":5000000112,"utilization":7.75,)"
    R"("wirelength_m":0.0092499999999999995,"power":{"internal_w":10.75,"switching_w":12.25,)"
    R"("leakage_w":13.75,"total_w":15.25,"pin_cap_f":1.6750000000000001e-14,)"
    R"("wire_cap_f":1.8250000000000001e-14},"congestion":{"demand_um":19.75,)"
    R"("capacity_um":21.25,"utilization":22.75,"detour_factor":24.25},"aib_lanes":113,)"
    R"("aib_area_um2":25.75,"aib_area_frac":27.25,"aib_power_w":28.75,"aib_power_frac":30.25,)"
    R"("timing_met":false},"memory":{"side":"memory","fmax_hz":31750000000,)"
    R"("footprint_um":33.25,"cell_count":5000000114,"utilization":34.75,)"
    R"("wirelength_m":0.036249999999999998,"power":{"internal_w":37.75,"switching_w":39.25,)"
    R"("leakage_w":40.75,"total_w":42.25,"pin_cap_f":4.3750000000000003e-14,)"
    R"("wire_cap_f":4.5250000000000003e-14},"congestion":{"demand_um":46.75,)"
    R"("capacity_um":48.25,"utilization":49.75,"detour_factor":51.25},"aib_lanes":115,)"
    R"("aib_area_um2":52.75,"aib_area_frac":54.25,"aib_power_w":55.75,"aib_power_frac":57.25,)"
    R"("timing_met":true},"interposer":{"outline":[-58.75,-60.25,61.75,63.25],)"
    R"("route_stats":{"total_wl_um":64.75,"min_wl_um":66.25,"avg_wl_um":67.75,)"
    R"("max_wl_um":69.25,"total_vias":116,"vertical_via_pairs":117,)"
    R"("signal_layers_available":118,"signal_layers_used":119,"overflowed_cells":120,)"
    R"("routed_nets":121}},"l2m":{"length_um":70.75,"bit_rate_hz":72250000000,)"
    R"("result":{"driver_delay_s":7.3750000000000004e-11,)"
    R"("interconnect_delay_s":7.5249999999999999e-11,"total_delay_s":7.6749999999999993e-11,)"
    R"("driver_power_w":78.25,"interconnect_power_w":79.75,"total_power_w":81.25},)"
    R"("eye":{"width_s":8.2749999999999999e-11,"height_v":84.25,)"
    R"("ui_s":8.5750000000000001e-11,"mean_high_v":87.25,"mean_low_v":88.75,)"
    R"("sigma_high_v":90.25,"sigma_low_v":91.75}},"l2l":{"length_um":93.25,)"
    R"("bit_rate_hz":94750000000,"result":{"driver_delay_s":9.6250000000000004e-11,)"
    R"("interconnect_delay_s":9.7749999999999998e-11,"total_delay_s":9.9249999999999993e-11,)"
    R"("driver_power_w":100.75,"interconnect_power_w":102.25,"total_power_w":103.75},)"
    R"("eye":{"width_s":1.0525e-10,"height_v":106.75,"ui_s":1.0825e-10,"mean_high_v":109.75,)"
    R"("mean_low_v":111.25,"sigma_high_v":112.75,"sigma_low_v":114.25}},)"
    R"("pdn_model":{"l_feed":1.1575e-10,"r_feed":117.25,"c_plane":1.1875e-07,)"
    R"("r_plane":120.25,"l_plane":1.2174999999999999e-10,"l_entry":1.2324999999999999e-10,)"
    R"("r_entry":124.75,"r_substrate_loss":126.25},"pdn_impedance":{"freq_hz":[1000000,)"
    R"(31622776.601683795,1000000000],"z_ohm":[127.75,129.25,0.33333333333333331]},)"
    R"("ir_drop":{"max_drop_v":130.75,"avg_drop_v":132.25},)"
    R"("settling":{"settling_time_s":1.3375000000000002e-07,"worst_droop_v":135.25},)"
    R"("thermal":{"dies":{"logic0":{"hotspot_c":136.75,"average_c":138.25},)"
    R"("memory0":{"hotspot_c":139.75,"average_c":141.25}},"interposer_hotspot_c":142.75,)"
    R"("ambient_c":144.25,"hotspot_spread":145.75},"total_power_w":147.25,)"
    R"("system_fmax_hz":148750000000,"link_timing_met":true}})";
  EXPECT_EQ(core::technology_result_to_json(synthetic_result()), golden);
  EXPECT_EQ(core::technology_result_to_json(core::technology_result_from_json(golden)), golden);
}

TEST(SerializeTest, WriterGoldenHeadlineMetrics) {
  const std::string golden =
    R"({"headline_metrics":{"area_reduction_x":2.6000000000000001,)"
    R"("wirelength_reduction_x":21,"power_reduction_pct":17.719999999999999,)"
    R"("si_improvement_pct":64.700000000000003,"pi_improvement_x":-10,)"
    R"("thermal_increase_pct":11.666666666666666}})";
  EXPECT_EQ(core::headline_metrics_to_json(synthetic_headline()), golden);
  EXPECT_EQ(core::headline_metrics_to_json(core::headline_metrics_from_json(golden)), golden);
}

}  // namespace
}  // namespace gia
