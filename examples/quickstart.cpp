/// quickstart: run the whole chiplet/interposer co-design flow for one
/// technology (the paper's Glass 3D "5.5D" design) and print the headline
/// results. This is the ten-line tour of the library:
///
///   FlowOptions -> stage::execute_flow(kind) -> TechnologyResult
///
/// Build & run:  ./build/examples/quickstart [glass3d|glass25d|si25d|si3d|shinko|apx]

#include <cstdio>
#include <cstring>

#include "core/report.hpp"
#include "core/stagegraph.hpp"
#include "tech/library.hpp"

using namespace gia;

namespace {

tech::TechnologyKind parse_kind(int argc, char** argv) {
  if (argc < 2) return tech::TechnologyKind::Glass3D;
  const struct { const char* name; tech::TechnologyKind kind; } table[] = {
      {"glass3d", tech::TechnologyKind::Glass3D},   {"glass25d", tech::TechnologyKind::Glass25D},
      {"si25d", tech::TechnologyKind::Silicon25D},  {"si3d", tech::TechnologyKind::Silicon3D},
      {"shinko", tech::TechnologyKind::Shinko},     {"apx", tech::TechnologyKind::APX}};
  for (const auto& e : table) {
    if (std::strcmp(argv[1], e.name) == 0) return e.kind;
  }
  std::fprintf(stderr, "unknown technology '%s', using glass3d\n", argv[1]);
  return tech::TechnologyKind::Glass3D;
}

}  // namespace

int main(int argc, char** argv) {
  const auto kind = parse_kind(argc, argv);

  core::FlowOptions opts;
  opts.with_eyes = true;
  opts.with_thermal = true;
  const auto r = core::stage::execute_flow(kind, opts);

  std::printf("Chiplet/interposer co-design flow: %s\n", r.technology.name.c_str());
  std::printf("  architecture : 2-tile OpenPiton-class SoC, %d inter-tile wires after SerDes\n",
              r.serdes.wires_after);
  std::printf("  partitioning : cut = %d wires, %.1f%% of cells on the memory chiplet\n",
              r.partition.cut_wires, 100.0 * r.partition.memory_fraction);
  std::printf("  logic chiplet: %.2f x %.2f mm, %ld cells, util %.1f%%, WL %.2f m, "
              "Fmax %.0f MHz, %.1f mW\n",
              r.logic.footprint_um * 1e-3, r.logic.footprint_um * 1e-3, r.logic.cell_count,
              100.0 * r.logic.utilization, r.logic.wirelength_m, r.logic.fmax_hz / 1e6,
              r.logic.power.total_w * 1e3);
  std::printf("  mem chiplet  : %.2f x %.2f mm, %ld cells, util %.1f%%, WL %.2f m, "
              "Fmax %.0f MHz, %.1f mW\n",
              r.memory.footprint_um * 1e-3, r.memory.footprint_um * 1e-3, r.memory.cell_count,
              100.0 * r.memory.utilization, r.memory.wirelength_m, r.memory.fmax_hz / 1e6,
              r.memory.power.total_w * 1e3);
  std::printf("  interposer   : %.2f x %.2f mm (%.2f mm2), %d+2 metal layers, "
              "total RDL WL %.1f mm, %d vias\n",
              r.interposer.footprint_w_mm(), r.interposer.footprint_h_mm(),
              r.interposer.area_mm2(), r.interposer.routes.stats.signal_layers_used,
              r.interposer.routes.stats.total_wl_um * 1e-3, r.interposer.routes.stats.total_vias);
  std::printf("  L2M link     : delay %s, power %s, eye %s x %.2f V\n",
              core::Table::eng(r.l2m.result.total_delay_s, "s").c_str(),
              core::Table::eng(r.l2m.result.total_power_w, "W").c_str(),
              core::Table::eng(r.l2m.eye->width_s, "s").c_str(), r.l2m.eye->height_v);
  std::printf("  L2L link     : delay %s, power %s, eye %s x %.2f V\n",
              core::Table::eng(r.l2l.result.total_delay_s, "s").c_str(),
              core::Table::eng(r.l2l.result.total_power_w, "W").c_str(),
              core::Table::eng(r.l2l.eye->width_s, "s").c_str(), r.l2l.eye->height_v);
  std::printf("  PDN          : Z(1GHz) %.3f ohm, IR drop %.1f mV, settling %.2f us\n",
              r.pdn_impedance.high_band(), r.ir_drop.max_drop_v * 1e3,
              r.settling.settling_time_s * 1e6);
  std::printf("  thermal      : logic %.1f C, memory %.1f C (ambient %.0f C)\n",
              r.thermal->hotspot("tile0/logic"), r.thermal->hotspot("tile0/mem"),
              r.thermal->ambient_c);
  std::printf("  full chip    : %.1f mW at %.0f MHz system clock, link timing %s\n",
              r.total_power_w * 1e3, r.system_fmax_hz / 1e6,
              r.link_timing_met ? "met" : "VIOLATED");
  return 0;
}
