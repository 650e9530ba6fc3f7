/// Headline reproduction: the abstract's claims -- 2.6X area, 21X
/// wirelength, 17.72% full-chip power, 64.7% SI, 10X PI, ~35% thermal --
/// recomputed from our full flows. Benchmarks the end-to-end flow.

#include "bench_util.hpp"

#include <iostream>

#include "core/headline.hpp"
#include "core/stagegraph.hpp"

namespace {

using gia::bench::flow_of;
using gia::core::Table;
namespace th = gia::tech;

void print_headlines() {
  const auto& g3 = flow_of(th::TechnologyKind::Glass3D, true, true);
  const auto& g25 = flow_of(th::TechnologyKind::Glass25D, true, true);
  const auto& si = flow_of(th::TechnologyKind::Silicon25D, true, true);
  const auto& sh = flow_of(th::TechnologyKind::Shinko, true, true);
  const auto h = gia::core::compute_headlines(g3, g25, si, sh);

  Table t("Headline claims -- Glass 3D vs conventional interposers");
  t.row({"claim", "reproduced", "paper", "baseline"});
  t.row({"interposer area reduction", Table::num(h.area_reduction_x, 2) + "X", "2.6X",
         "vs Glass 2.5D"});
  t.row({"wirelength reduction", Table::num(h.wirelength_reduction_x, 1) + "X", "21X",
         "vs Silicon 2.5D"});
  t.row({"full-chip power reduction", Table::pct(h.power_reduction_pct, 1), "17.72%",
         "vs Glass 2.5D"});
  t.row({"signal-integrity improvement", Table::pct(h.si_improvement_pct, 1), "64.7%",
         "eye closure vs Silicon 2.5D"});
  t.row({"power-integrity improvement", Table::num(h.pi_improvement_x, 1) + "X", "10X",
         "PDN Z vs organic"});
  t.row({"thermal increase", Table::pct(h.thermal_increase_pct, 1), "~35%",
         "embedded mem vs Si 2.5D mem"});
  t.print(std::cout);
}

void BM_full_flow(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(gia::core::stage::execute_flow(th::TechnologyKind::Glass3D));
  }
}
BENCHMARK(BM_full_flow)->Unit(benchmark::kMillisecond)->Iterations(2);

void BM_full_flow_with_analyses(benchmark::State& state) {
  gia::core::FlowOptions opts;
  opts.with_eyes = true;
  opts.with_thermal = true;
  for (auto _ : state) {
    benchmark::DoNotOptimize(gia::core::stage::execute_flow(th::TechnologyKind::Glass3D, opts));
  }
}
BENCHMARK(BM_full_flow_with_analyses)->Unit(benchmark::kMillisecond)->Iterations(2);

}  // namespace

GIA_BENCH_MAIN(print_headlines)
