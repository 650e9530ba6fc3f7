/// pareto_study: the architect's closing question -- with power, cost,
/// thermal and signal integrity all on the table, which integration options
/// are actually efficient choices? Builds multi-objective design points
/// from the full flows plus the cost model and feeds them through the
/// dse:: incremental Pareto front (the same core the giad `search` verb
/// streams). (The paper argues Glass 3D is the sweet spot; this makes that
/// claim a computation.)

#include <cstdio>

#include "core/stagegraph.hpp"
#include "core/sweep.hpp"
#include "dse/pareto.hpp"
#include "dse/search.hpp"
#include "tech/library.hpp"

using namespace gia;

int main() {
  core::FlowOptions opts;
  opts.with_eyes = true;
  opts.with_thermal = true;

  std::vector<core::DesignPoint> points;
  for (auto k : tech::table_order()) {
    std::fprintf(stderr, "evaluating %s...\n", tech::to_string(k));
    const auto r = core::stage::execute_flow(k, opts);
    points.push_back({tech::to_string(k), dse::metrics_of(r)});
  }

  std::printf("design,power_mW,cost_usd,hotspot_C,eye_opening,area_mm2\n");
  for (const auto& p : points) {
    std::printf("%s,%.1f,%.3f,%.1f,%.3f,%.2f\n", p.label.c_str(), p.metric("power_mW"),
                p.metric("cost_usd"), p.metric("hotspot_C"), p.metric("eye_opening"),
                p.metric("area_mm2"));
  }

  dse::ParetoFront front({{"power_mW", core::Direction::Minimize},
                          {"cost_usd", core::Direction::Minimize},
                          {"hotspot_C", core::Direction::Minimize},
                          {"eye_opening", core::Direction::Maximize}});
  for (const auto& p : points) front.add(p);

  std::printf("\nPareto-efficient options (power, cost, thermal, SI):\n");
  for (const auto& p : front.members()) std::printf("  %s\n", p.label.c_str());
  std::printf("\nDominated options:\n");
  for (const auto& p : points) {
    bool on_front = false;
    for (const auto& f : front.members()) on_front |= (f.label == p.label);
    if (!on_front) std::printf("  %s\n", p.label.c_str());
  }
  return 0;
}
