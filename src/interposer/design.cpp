#include "interposer/design.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "core/instrument.hpp"
#include "interposer/arrangement.hpp"
#include "interposer/floorplanner.hpp"
#include "tech/library.hpp"

namespace gia::interposer {

const RoutedNet* InterposerDesign::worst_net(TopNetKind kind) const {
  const RoutedNet* best = nullptr;
  for (const auto& rn : routes.nets) {
    if (rn.kind != kind || rn.vertical) continue;
    if (best == nullptr || rn.length_um > best->length_um) best = &rn;
  }
  return best;
}

double InterposerDesign::max_wl_um(TopNetKind kind) const {
  const auto* w = worst_net(kind);
  return w == nullptr ? 0.0 : w->length_um;
}

double InterposerDesign::avg_wl_um(TopNetKind kind) const {
  double total = 0;
  int n = 0;
  for (const auto& rn : routes.nets) {
    if (rn.kind != kind || rn.vertical) continue;
    total += rn.length_um;
    ++n;
  }
  return n == 0 ? 0.0 : total / n;
}

InterposerDesign build_interposer_design(tech::TechnologyKind kind, const ChipletInputs& inputs,
                                         const RouterOptions& router_opts,
                                         const FloorplanOptions& fp_opts) {
  InterposerDesign d;
  d.technology = tech::make_technology(kind);
  if (d.technology.integration == tech::IntegrationStyle::SingleDie) {
    throw std::invalid_argument("monolithic reference has no interposer design");
  }
  d.plans = chiplet::plan_chiplet_pair(inputs.logic_signal_ios, inputs.memory_signal_ios,
                                       inputs.logic_cell_area_um2, inputs.memory_cell_area_um2,
                                       d.technology);
  {
    GIA_SPAN("interposer/floorplan");
    d.floorplan = place_dies(d.technology, d.plans.logic, d.plans.memory, fp_opts);
  }
  // Net counts follow the partition: every memory signal is an intra-tile
  // L2M net; the logic die's remaining signals are the inter-tile bundle.
  // Unconventional partitions (flattened FM at odd balance points) can give
  // the memory die more I/O than the logic die; clamp so both windows fit
  // their dies' signal-bump fields.
  NetAssignOptions na;
  na.l2l_total = std::clamp(inputs.logic_signal_ios - inputs.memory_signal_ios, 1,
                            std::max(1, inputs.logic_signal_ios - 1));
  na.l2m_per_tile =
      std::min(inputs.memory_signal_ios, inputs.logic_signal_ios - na.l2l_total);
  d.top_nets = assign_top_nets(d.technology, d.floorplan, na);
  d.routes = route_interposer(d.technology, d.floorplan, d.top_nets, router_opts);
  return d;
}

int scaled_router_grid(int base, int chiplets) {
  const int factor = std::max(
      1, static_cast<int>(std::ceil(std::sqrt(static_cast<double>(chiplets)) / 2.0)));
  return std::min(256, base * factor);
}

InterposerDesign build_system_design(tech::TechnologyKind kind,
                                     const chiplet::SystemConfig& sys,
                                     const SystemInputs& inputs,
                                     const RouterOptions& router_opts,
                                     const FloorplanOptions& fp_opts) {
  const int k = sys.chiplets;
  if (static_cast<int>(inputs.signal_ios.size()) != k ||
      static_cast<int>(inputs.cell_area_um2.size()) != k) {
    throw std::invalid_argument("system inputs must cover every chiplet");
  }
  InterposerDesign d;
  d.technology = tech::make_technology(kind);
  if (d.technology.integration != tech::IntegrationStyle::SideBySide &&
      d.technology.integration != tech::IntegrationStyle::EmbeddedDie) {
    throw std::invalid_argument(
        "N-chiplet arrangements need an interposer technology (2.5D or "
        "embedded-die)");
  }

  d.chiplet_plans.reserve(static_cast<std::size_t>(k));
  for (int i = 0; i < k; ++i) {
    // Every lane endpoint needs a signal bump; plan at least one site.
    const int ios = std::max(1, inputs.signal_ios[static_cast<std::size_t>(i)]);
    d.chiplet_plans.push_back(chiplet::plan_bumps(
        ios, inputs.cell_area_um2[static_cast<std::size_t>(i)] * sys.die_scale_of(i),
        sys.memory_class(i), d.technology));
  }
  {
    // Floorplan arrangements anneal against the partition's pair-cut
    // demands; the lattice arrangements are demand-oblivious.
    GIA_SPAN("interposer/floorplan");
    auto arr = sys.arrangement == chiplet::Arrangement::Floorplan
                   ? floorplan_chiplets(d.technology, sys, d.chiplet_plans, inputs.pairs, fp_opts)
                   : arrange_chiplets(d.technology, sys, d.chiplet_plans, fp_opts);
    d.floorplan = std::move(arr.floorplan);
    d.adjacency = std::move(arr.adjacency);
  }

  d.top_nets = assign_system_nets(d.floorplan, inputs.pairs);

  RouterOptions ro = router_opts;
  ro.grid_nx = scaled_router_grid(router_opts.grid_nx, k);
  ro.grid_ny = scaled_router_grid(router_opts.grid_ny, k);
  d.routes = route_interposer(d.technology, d.floorplan, d.top_nets, ro);

  // Representative Table II plans: first logic-class and first memory-class
  // chiplet (falling back to the last chiplet in single-class systems).
  d.plans.logic = d.chiplet_plans.front();
  d.plans.memory = d.chiplet_plans.back();
  for (int i = 0; i < k; ++i) {
    if (sys.memory_class(i)) {
      d.plans.memory = d.chiplet_plans[static_cast<std::size_t>(i)];
      break;
    }
  }
  return d;
}

}  // namespace gia::interposer
