/// compare_technologies: the packaging-selection study a system architect
/// would run before committing to an integration technology -- the paper's
/// whole evaluation, condensed into one comparison matrix across all six
/// designs plus the monolithic reference.

#include <iostream>

#include "core/headline.hpp"
#include "core/report.hpp"
#include "core/stagegraph.hpp"
#include "tech/library.hpp"

using namespace gia;
using core::Table;

int main() {
  core::FlowOptions opts;
  opts.with_eyes = true;
  opts.with_thermal = true;

  std::vector<core::TechnologyResult> results;
  for (auto k : tech::table_order()) {
    std::cerr << "running flow: " << tech::to_string(k) << "...\n";
    results.push_back(core::stage::execute_flow(k, opts));
  }
  const auto mono = core::run_monolithic_reference(opts);

  Table t("Technology comparison (2-tile OpenPiton, 28nm chiplets, 700 MHz)");
  t.row({"metric", "Glass 2.5D", "Glass 3D", "Si 2.5D", "Si 3D", "Shinko", "APX", "2D mono"});
  auto for_each = [&](const char* name, auto&& fn, std::string mono_val = "-") {
    std::vector<std::string> cells{name};
    for (const auto& r : results) cells.push_back(fn(r));
    cells.push_back(std::move(mono_val));
    t.row(std::move(cells));
  };
  for_each("package area (mm2)",
           [](const auto& r) { return Table::num(r.interposer.area_mm2()); },
           Table::num(mono.area_mm2()));
  for_each("RDL wirelength (mm)",
           [](const auto& r) { return Table::num(r.interposer.routes.stats.total_wl_um * 1e-3, 1); });
  for_each("signal layers",
           [](const auto& r) { return std::to_string(r.interposer.routes.stats.signal_layers_used); });
  for_each("full-chip power (mW)",
           [](const auto& r) { return Table::num(r.total_power_w * 1e3, 1); },
           Table::num(mono.total_power_w * 1e3, 1));
  for_each("system Fmax (MHz)",
           [](const auto& r) { return Table::num(r.system_fmax_hz / 1e6, 0); });
  for_each("L2M delay (ps)",
           [](const auto& r) { return Table::num(r.l2m.result.total_delay_s * 1e12, 1); });
  for_each("L2M eye width (ns)",
           [](const auto& r) { return Table::num(r.l2m.eye->width_s * 1e9, 2); });
  for_each("PDN Z @1GHz (ohm)",
           [](const auto& r) { return Table::num(r.pdn_impedance.high_band(), 3); });
  for_each("IR drop (mV)",
           [](const auto& r) { return Table::num(r.ir_drop.max_drop_v * 1e3, 1); });
  for_each("hottest die (C)", [](const auto& r) {
    double hot = 0;
    for (const auto& [n, d] : r.thermal->dies) hot = std::max(hot, d.hotspot_c);
    return Table::num(hot, 1);
  });
  t.print(std::cout);

  const auto h = core::compute_headlines(results[1], results[0], results[2], results[4]);
  Table hl("Headline claims: Glass 3D vs conventional interposers (paper values in brackets)");
  hl.row({"claim", "reproduced", "paper"});
  hl.row({"interposer area reduction", Table::num(h.area_reduction_x, 2) + "X", "2.6X"});
  hl.row({"wirelength reduction", Table::num(h.wirelength_reduction_x, 1) + "X", "21X"});
  hl.row({"full-chip power reduction", Table::pct(h.power_reduction_pct), "17.72%"});
  hl.row({"signal-integrity improvement", Table::pct(h.si_improvement_pct), "64.7%"});
  hl.row({"power-integrity improvement", Table::num(h.pi_improvement_x, 1) + "X", "10X"});
  hl.row({"peak temperature increase", Table::pct(h.thermal_increase_pct), "~35%"});
  hl.print(std::cout);
  return 0;
}
