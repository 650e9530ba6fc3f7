/// bench_parallel_scaling: wall-clock scaling at 1, 2, and 4 threads of the
/// two heaviest parallel kernels -- SOR thermal steady state and Monte Carlo
/// variation -- and of a cold 16-die Glass 2.5D grid flow, whose per-die PnR
/// runs as a nested parallel_for inside the chiplet_pnr stage. Prints one
/// JSON line per (kernel, thread-count) pair with its speedup, and
/// cross-checks that every thread count produced byte-identical output (the
/// determinism contract of core/parallel.hpp). The cross-check is a gate:
/// the exit status is 1 when any row differs.
///
/// Note: reported speedup is bounded by the machine's core count; on a
/// single-core runner all configurations legitimately time the same, so
/// speedup is reported only, never gated.

#include <sys/resource.h>

#include <chrono>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "core/flow.hpp"
#include "core/instrument.hpp"
#include "core/links.hpp"
#include "core/parallel.hpp"
#include "core/serialize.hpp"
#include "core/stagegraph.hpp"
#include "interposer/design.hpp"
#include "signal/variation.hpp"
#include "tech/library.hpp"
#include "thermal/mesh.hpp"
#include "thermal/solver.hpp"

using namespace gia;

namespace {

struct ScalingRow {
  int threads = 0;
  double wall_s = 0;
  std::string output;  ///< bytes compared across thread counts
};

long max_rss_kb() {
  struct rusage ru;
  return getrusage(RUSAGE_SELF, &ru) == 0 ? ru.ru_maxrss : 0;
}

/// The bytes of `v`: equal strings mean bit-identical values.
std::string bytes_of(const std::vector<double>& v) {
  return std::string(reinterpret_cast<const char*>(v.data()), v.size() * sizeof(double));
}

/// Time `run` once at 1, 2 and 4 threads and print its rows. Returns
/// whether every thread count produced the same output bytes.
bool scale(const char* kernel, const std::function<std::string()>& run) {
  std::vector<ScalingRow> rows;
  for (int n : {1, 2, 4}) {
    core::set_thread_count(n);
    ScalingRow row;
    row.threads = n;
    const auto t0 = std::chrono::steady_clock::now();
    row.output = run();
    row.wall_s = std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
    rows.push_back(std::move(row));
  }
  const double base = rows.front().wall_s;
  bool identical = true;
  for (const auto& r : rows) identical &= (r.output == rows.front().output);
  for (const auto& r : rows) {
    std::printf(
        "{\"bench\":\"bench_parallel_scaling\",\"kernel\":\"%s\",\"threads\":%d,"
        "\"wall_s\":%.6f,\"speedup\":%.3f,\"identical\":%s,\"max_rss_kb\":%ld}\n",
        kernel, r.threads, r.wall_s, base / r.wall_s, identical ? "true" : "false",
        max_rss_kb());
  }
  return identical;
}

}  // namespace

int main() {
  bool identical = true;

  // --- Thermal steady state (red-black SOR) on the full Glass 2.5D stack.
  const auto design = interposer::build_interposer_design(tech::TechnologyKind::Glass25D);
  const auto mesh = thermal::build_thermal_mesh(design);
  identical &= scale("thermal_steady_state", [&] {
    const auto field = thermal::solve_steady_state(mesh);
    std::vector<double> metrics{field.max_c, static_cast<double>(field.iterations)};
    for (const auto& layer : field.t_c) {
      metrics.insert(metrics.end(), layer.data().begin(), layer.data().end());
    }
    return bytes_of(metrics);
  });

  // --- Monte Carlo variation on a mid-length silicon-interposer link.
  const auto link = core::make_fixed_line_spec(
      tech::make_technology(tech::TechnologyKind::Silicon25D), 2500.0);
  signal::VariationSpec var;
  var.samples = 24;
  identical &= scale("variation_monte_carlo", [&] {
    const auto res = signal::monte_carlo_delay(link, var);
    std::vector<double> metrics{res.mean_delay_s, res.sigma_delay_s, res.worst_delay_s};
    metrics.insert(metrics.end(), res.samples_s.begin(), res.samples_s.end());
    return bytes_of(metrics);
  });

  // --- Cold 16-die grid flow: the stage cache is off, so every run places
  // and routes all 16 dies.
  core::FlowOptions grid16;
  grid16.system.chiplets = 16;
  grid16.system.arrangement = chiplet::Arrangement::Grid;
  core::stage::set_stage_cache_enabled(false);
  identical &= scale("flow_grid16", [&] {
    return core::technology_result_to_json(
        core::stage::execute_flow(tech::TechnologyKind::Glass25D, grid16));
  });
  core::stage::set_stage_cache_enabled(true);

  core::set_thread_count(0);
  core::instrument::emit_report();
  if (!identical) {
    std::fprintf(stderr, "bench_parallel_scaling: output differs across thread counts\n");
    return 1;
  }
  return 0;
}
