/// bench_solver_scaling: scaling contract of the thermal geometric
/// multigrid against the fixed-sweep SOR reference it replaces on large
/// meshes. The Glass 2.5D design is meshed at 48/96/192 lateral cells and
/// solved steady-state with red-black SOR and with the multigrid V-cycle
/// solver (solve_steady_state picks multigrid at thermal::kMultigridMinExtent
/// cells in both extents). Contract: multigrid must be >= 5x faster on the
/// finest mesh, and the two fields must agree to 0.1 K at the hottest cell
/// (same discretization, so this guards correctness of the fast path, not
/// just its speed).
///
/// Emits per-size wall times, speedups and iteration counts in the standard
/// bench JSON line; exits non-zero when a contract is violated so CI can
/// gate on it.

#include <chrono>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "interposer/design.hpp"
#include "tech/library.hpp"
#include "thermal/mesh.hpp"
#include "thermal/solver.hpp"

using namespace gia;
using Clock = std::chrono::steady_clock;

namespace {

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

int fail(const char* what, const std::string& detail) {
  std::fprintf(stderr, "bench_solver_scaling: %s (%s)\n", what, detail.c_str());
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  (void)argc;
  const auto t0 = Clock::now();
  std::string extra;
  int rc = 0;

  // Fixed-sweep SOR vs geometric multigrid across mesh sizes.
  const auto design = interposer::build_interposer_design(tech::TechnologyKind::Glass25D);
  const std::vector<int> mesh_sizes = {48, 96, 192};
  double mg_speedup_finest = 0;
  std::printf("Thermal steady state, red-black SOR vs multigrid V-cycles\n");
  std::printf("%10s %10s %12s %12s %9s %8s %8s\n", "mesh", "cells", "sor [s]", "mg [s]",
              "speedup", "sweeps", "cycles");
  for (int n : mesh_sizes) {
    thermal::MeshOptions mo;
    mo.nx = n;
    mo.ny = n;
    const auto mesh = thermal::build_thermal_mesh(design, mo);
    const thermal::SolverOptions so;

    auto ts = Clock::now();
    const auto sor = thermal::solve_steady_state_sor(mesh, so);
    const double sor_s = seconds_since(ts);

    auto tm = Clock::now();
    const auto mg = thermal::solve_steady_state_multigrid(mesh, so);
    const double mg_s = seconds_since(tm);

    if (!sor.converged || !mg.converged) {
      rc = fail("both thermal solvers must converge", "mesh=" + std::to_string(n));
    }
    if (std::abs(sor.max_c - mg.max_c) > 0.1) {
      rc = fail("SOR and multigrid peak temperatures must agree to 0.1 K",
                "mesh=" + std::to_string(n) + " sor=" + std::to_string(sor.max_c) +
                    " mg=" + std::to_string(mg.max_c));
    }

    const double speedup = mg_s > 0 ? sor_s / mg_s : 0;
    mg_speedup_finest = speedup;
    const long cells = static_cast<long>(n) * n * static_cast<long>(mesh.layers.size());
    std::printf("%7dx%-3d %10ld %12.4f %12.4f %8.1fx %8d %8d\n", n, n, cells, sor_s, mg_s,
                speedup, sor.iterations, mg.iterations);
    const std::string tag = "\"thermal_" + std::to_string(n);
    extra += (extra.empty() ? "" : ",") + tag + "_sor_s\":" + std::to_string(sor_s);
    extra += "," + tag + "_mg_s\":" + std::to_string(mg_s);
    extra += "," + tag + "_speedup\":" + std::to_string(speedup);
    extra += "," + tag + "_sor_sweeps\":" + std::to_string(sor.iterations);
    extra += "," + tag + "_mg_cycles\":" + std::to_string(mg.iterations);
  }
  if (mg_speedup_finest < 5.0) {
    rc = fail("multigrid must be >= 5x faster than SOR on the finest mesh",
              "speedup=" + std::to_string(mg_speedup_finest));
  }

  extra += ",\"thermal_speedup_finest\":" + std::to_string(mg_speedup_finest);
  gia::bench::print_json_line(argv[0], seconds_since(t0), extra);
  core::instrument::emit_report();
  return rc;
}
