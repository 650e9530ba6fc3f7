#include "thermal/solver.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "core/instrument.hpp"
#include "core/parallel.hpp"

namespace gia::thermal {

namespace instrument = core::instrument;

namespace {

/// Series conductance [W/K] between two voxel centers through half-cells of
/// conductivity ka, kb with face area `area` and center distances da, db
/// (all SI).
double series_g(double ka, double kb, double area, double da, double db) {
  const double ra = da / (ka * area);
  const double rb = db / (kb * area);
  return 1.0 / (ra + rb);
}

}  // namespace

ThermalField solve_steady_state(const ThermalMesh& mesh, const SolverOptions& opts) {
  const bool mg = use_multigrid(mesh.nx, mesh.ny);
  if (instrument::enabled()) {
    instrument::gauge_set("solver_backend.thermal_steady", mg ? 1.0 : 0.0);
  }
  // solve_steady_state_multigrid itself falls back to SOR when the mesh
  // cannot coarsen (odd extents or below the floor).
  return mg ? solve_steady_state_multigrid(mesh, opts) : solve_steady_state_sor(mesh, opts);
}

ThermalField solve_steady_state_sor(const ThermalMesh& mesh, const SolverOptions& opts) {
  GIA_SPAN("thermal/steady_state");
  const int nx = mesh.nx, ny = mesh.ny;
  const int nz = static_cast<int>(mesh.layers.size());
  if (nx < 1 || ny < 1 || nz < 1) throw std::invalid_argument("empty mesh");

  const double w = mesh.cell_w_um * 1e-6;
  const double h = mesh.cell_h_um * 1e-6;
  std::vector<double> dz(static_cast<std::size_t>(nz));
  for (int z = 0; z < nz; ++z) dz[static_cast<std::size_t>(z)] = mesh.layers[static_cast<std::size_t>(z)].thickness_um * 1e-6;

  ThermalField field;
  field.nx = nx;
  field.ny = ny;
  field.t_c.assign(static_cast<std::size_t>(nz), geometry::Grid<double>(nx, ny, mesh.ambient_c));

  auto k_at = [&](int z, int x, int y) { return mesh.layers[static_cast<std::size_t>(z)].k.at(x, y); };

  // Red-black SOR: cells are colored by (x + y + z) parity, so the 7-point
  // stencil of any cell only reads the opposite color. Each color sweep is
  // then embarrassingly parallel over (z, y) rows with byte-identical
  // results at any thread count -- within a sweep every update reads state
  // frozen by the previous sweep, regardless of execution order.
  const std::size_t n_rows = static_cast<std::size_t>(nz) * static_cast<std::size_t>(ny);
  std::vector<double> row_max_dt(n_rows);

  auto sweep_row_color = [&](std::size_t r, int color) {
    const int z = static_cast<int>(r) / ny;
    const int y = static_cast<int>(r) % ny;
    auto& t = field.t_c[static_cast<std::size_t>(z)];
    const auto& layer = mesh.layers[static_cast<std::size_t>(z)];
    double local_max = row_max_dt[r];
    for (int x = (color + y + z) & 1; x < nx; x += 2) {
      const double k_c = k_at(z, x, y);
      double g_sum = 0, rhs = layer.power.at(x, y);

      // Lateral neighbors (or side convection at the rim).
      const double a_x = h * dz[static_cast<std::size_t>(z)];
      const double a_y = w * dz[static_cast<std::size_t>(z)];
      const int dxs[] = {1, -1, 0, 0};
      const int dys[] = {0, 0, 1, -1};
      for (int n = 0; n < 4; ++n) {
        const int x2 = x + dxs[n], y2 = y + dys[n];
        const double area = dxs[n] != 0 ? a_x : a_y;
        const double half = dxs[n] != 0 ? w / 2 : h / 2;
        if (t.in_bounds(x2, y2)) {
          const double g = series_g(k_c, k_at(z, x2, y2), area, half, half);
          g_sum += g;
          rhs += g * t.at(x2, y2);
        } else {
          // Side film: half-cell conduction in series with convection.
          const double g =
              1.0 / (half / (k_c * area) + 1.0 / (mesh.h_side * area));
          g_sum += g;
          rhs += g * mesh.ambient_c;
        }
      }

      // Vertical neighbors / top and bottom films.
      const double a_z = w * h;
      if (z + 1 < nz) {
        const double g = series_g(k_c, k_at(z + 1, x, y), a_z,
                                  dz[static_cast<std::size_t>(z)] / 2,
                                  dz[static_cast<std::size_t>(z + 1)] / 2);
        g_sum += g;
        rhs += g * field.t_c[static_cast<std::size_t>(z + 1)].at(x, y);
      } else {
        const double g = 1.0 / (dz[static_cast<std::size_t>(z)] / 2 / (k_c * a_z) +
                                1.0 / (mesh.h_top * a_z));
        g_sum += g;
        rhs += g * mesh.ambient_c;
      }
      if (z > 0) {
        const double g = series_g(k_c, k_at(z - 1, x, y), a_z,
                                  dz[static_cast<std::size_t>(z)] / 2,
                                  dz[static_cast<std::size_t>(z - 1)] / 2);
        g_sum += g;
        rhs += g * field.t_c[static_cast<std::size_t>(z - 1)].at(x, y);
      } else {
        const double g = 1.0 / (dz[0] / 2 / (k_c * a_z) + 1.0 / (mesh.h_bottom * a_z));
        g_sum += g;
        rhs += g * mesh.ambient_c;
      }

      const double t_new = rhs / g_sum;
      const double dt = t_new - t.at(x, y);
      t.at(x, y) += opts.sor_omega * dt;
      local_max = std::max(local_max, std::abs(dt));
    }
    row_max_dt[r] = local_max;
  };

  for (int iter = 0; iter < opts.max_iters; ++iter) {
    std::fill(row_max_dt.begin(), row_max_dt.end(), 0.0);
    for (int color = 0; color < 2; ++color) {
      core::parallel_for(n_rows, [&](std::size_t r) { sweep_row_color(r, color); });
    }
    // max is exact under any accumulation order, so this reduction is
    // deterministic by construction.
    double max_dt = 0;
    for (double v : row_max_dt) max_dt = std::max(max_dt, v);
    if (max_dt < opts.tol_k) {
      field.converged = true;
      field.iterations = iter + 1;
      break;
    }
    field.iterations = iter + 1;
  }

  for (const auto& layer : field.t_c) {
    for (double v : layer.data()) field.max_c = std::max(field.max_c, v);
  }
  instrument::counter_add(instrument::Counter::SorIterations,
                          static_cast<std::uint64_t>(field.iterations));
  if (instrument::enabled()) {
    instrument::gauge_set("thermal.steady.max_c", field.max_c);
    instrument::gauge_set("thermal.steady.converged", field.converged ? 1.0 : 0.0);
  }
  return field;
}

}  // namespace gia::thermal
