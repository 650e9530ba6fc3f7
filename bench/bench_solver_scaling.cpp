/// bench_solver_scaling: scaling contract of the sparse/iterative solver
/// core against the dense and fixed-sweep baselines it replaces at
/// production sizes.
///
///   1. MNA -- k x k resistor-grid PDN proxies (vsource corner feed, per-node
///      load to ground) at chiplet-count equivalents, solved for the DC
///      operating point with the dense LU path (solve_dc_dense) and with the
///      CSR + ILU(0)-BiCGSTAB path (solve_dc_sparse); solve_dc itself picks
///      sparse at circuit::kSparseMinUnknowns unknowns. Contract: sparse
///      must be >= 10x faster at the largest size.
///
///   2. Thermal -- the Glass 2.5D design meshed at 48/96/192 lateral cells,
///      solved steady-state with red-black SOR and with the geometric
///      multigrid V-cycle solver (solve_steady_state picks multigrid at
///      thermal::kMultigridMinExtent cells in both extents). Contract:
///      multigrid must be >= 5x faster on the finest mesh, and the two
///      fields must agree to 0.1 K at the hottest cell (same discretization,
///      so this guards correctness of the fast path, not just its speed).
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
#include "circuit/circuit.hpp"
#include "circuit/dc.hpp"
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

/// k x k unit-resistor grid fed from one corner, every node loaded to
/// ground -- the resistor-network shape of an on-interposer power mesh,
/// scaled by grid extent instead of chiplet count so the unknown count is
/// exact.
circuit::Circuit make_grid_circuit(int k) {
  circuit::Circuit ckt;
  std::vector<circuit::NodeId> node(static_cast<std::size_t>(k) * k);
  for (int y = 0; y < k; ++y) {
    for (int x = 0; x < k; ++x) {
      node[static_cast<std::size_t>(y) * k + x] =
          ckt.add_node("n" + std::to_string(x) + "_" + std::to_string(y));
    }
  }
  auto at = [&](int x, int y) { return node[static_cast<std::size_t>(y) * k + x]; };
  for (int y = 0; y < k; ++y) {
    for (int x = 0; x < k; ++x) {
      const std::string suffix = std::to_string(x) + "_" + std::to_string(y);
      if (x + 1 < k) ckt.add_resistor(at(x, y), at(x + 1, y), 0.05, "rx" + suffix);
      if (y + 1 < k) ckt.add_resistor(at(x, y), at(x, y + 1), 0.05, "ry" + suffix);
      ckt.add_resistor(at(x, y), circuit::kGround, 100.0, "rl" + suffix);
    }
  }
  ckt.add_vsource(at(0, 0), circuit::kGround, circuit::Stimulus::dc(1.0), "vdd");
  return ckt;
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

  // --- MNA: dense LU vs CSR + ILU(0)-BiCGSTAB across grid sizes.
  const std::vector<int> grid_sizes = {8, 24, 48};
  double mna_speedup_largest = 0;
  std::printf("MNA DC operating point, dense LU vs sparse ILU(0)-BiCGSTAB\n");
  std::printf("%10s %10s %12s %12s %9s\n", "grid", "unknowns", "dense [s]", "sparse [s]",
              "speedup");
  for (int k : grid_sizes) {
    const auto ckt = make_grid_circuit(k);

    auto td = Clock::now();
    const auto dense = circuit::solve_dc_dense(ckt);
    const double dense_s = seconds_since(td);

    auto ts = Clock::now();
    const auto sparse = circuit::solve_dc_sparse(ckt);
    const double sparse_s = seconds_since(ts);

    double max_dv = 0;
    for (std::size_t i = 0; i < dense.x.size(); ++i) {
      max_dv = std::max(max_dv, std::abs(dense.x[i] - sparse.x[i]));
    }
    if (max_dv > 1e-8) {
      rc = fail("dense and sparse DC solutions must agree",
                "grid=" + std::to_string(k) + " max_dv=" + std::to_string(max_dv));
    }

    const double speedup = sparse_s > 0 ? dense_s / sparse_s : 0;
    mna_speedup_largest = speedup;
    std::printf("%7dx%-2d %10d %12.4f %12.4f %8.1fx\n", k, k, ckt.unknown_count(), dense_s,
                sparse_s, speedup);
    const std::string tag = "\"mna_" + std::to_string(k) + "x" + std::to_string(k);
    extra += (extra.empty() ? "" : ",") + tag + "_dense_s\":" + std::to_string(dense_s);
    extra += "," + tag + "_sparse_s\":" + std::to_string(sparse_s);
    extra += "," + tag + "_speedup\":" + std::to_string(speedup);
  }
  if (mna_speedup_largest < 10.0) {
    rc = fail("sparse DC must be >= 10x faster than dense at the largest grid",
              "speedup=" + std::to_string(mna_speedup_largest));
  }

  // --- Thermal: fixed-sweep SOR vs geometric multigrid across mesh sizes.
  const auto design = interposer::build_interposer_design(tech::TechnologyKind::Glass25D);
  const std::vector<int> mesh_sizes = {48, 96, 192};
  double mg_speedup_finest = 0;
  std::printf("\nThermal steady state, red-black SOR vs multigrid V-cycles\n");
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
    extra += "," + tag + "_sor_s\":" + std::to_string(sor_s);
    extra += "," + tag + "_mg_s\":" + std::to_string(mg_s);
    extra += "," + tag + "_speedup\":" + std::to_string(speedup);
    extra += "," + tag + "_sor_sweeps\":" + std::to_string(sor.iterations);
    extra += "," + tag + "_mg_cycles\":" + std::to_string(mg.iterations);
  }
  if (mg_speedup_finest < 5.0) {
    rc = fail("multigrid must be >= 5x faster than SOR on the finest mesh",
              "speedup=" + std::to_string(mg_speedup_finest));
  }

  extra += ",\"mna_speedup_largest\":" + std::to_string(mna_speedup_largest);
  extra += ",\"thermal_speedup_finest\":" + std::to_string(mg_speedup_finest);
  gia::bench::print_json_line(argv[0], seconds_since(t0), extra);
  core::instrument::emit_report();
  return rc;
}
