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

TransientThermalResult solve_transient(const ThermalMesh& mesh, double t_stop_s,
                                       const ThermalProbe& probe, const SolverOptions& opts) {
  GIA_SPAN("thermal/transient");
  const int nx = mesh.nx, ny = mesh.ny;
  const int nz = static_cast<int>(mesh.layers.size());
  if (nx < 1 || ny < 1 || nz < 1) throw std::invalid_argument("empty mesh");
  if (probe.layer < 0 || probe.layer >= nz || !mesh.layers[0].k.in_bounds(probe.x, probe.y)) {
    throw std::invalid_argument("bad probe");
  }
  (void)opts;

  const double w = mesh.cell_w_um * 1e-6;
  const double h = mesh.cell_h_um * 1e-6;
  std::vector<double> dz(static_cast<std::size_t>(nz));
  for (int z = 0; z < nz; ++z) {
    dz[static_cast<std::size_t>(z)] = mesh.layers[static_cast<std::size_t>(z)].thickness_um * 1e-6;
  }
  auto k_at = [&](int z, int x, int y) {
    return mesh.layers[static_cast<std::size_t>(z)].k.at(x, y);
  };

  // Per-cell total conductance and capacity set the explicit stability
  // limit dt < min(C / G); run at 40% of it.
  double dt = 1e9;
  for (int z = 0; z < nz; ++z) {
    for (int y = 0; y < ny; ++y) {
      for (int x = 0; x < nx; ++x) {
        const double k_c = k_at(z, x, y);
        double g = 0;
        g += 2.0 * k_c * h * dz[static_cast<std::size_t>(z)] / w;
        g += 2.0 * k_c * w * dz[static_cast<std::size_t>(z)] / h;
        g += 2.0 * k_c * w * h / dz[static_cast<std::size_t>(z)];
        const double cap = std::max(mesh.layers[static_cast<std::size_t>(z)].cvol, 1e4) * w * h *
                           dz[static_cast<std::size_t>(z)];
        dt = std::min(dt, 0.4 * cap / g);
      }
    }
  }

  std::vector<geometry::Grid<double>> t(static_cast<std::size_t>(nz),
                                        geometry::Grid<double>(nx, ny, mesh.ambient_c));
  std::vector<geometry::Grid<double>> t_next = t;

  // Explicit stepping reads only the previous field, so each (layer, row)
  // updates independently: parallel over rows, deterministic at any thread
  // count because every cell writes its own t_next slot.
  const std::size_t n_rows = static_cast<std::size_t>(nz) * static_cast<std::size_t>(ny);
  auto step_row = [&](std::size_t r) {
    const int z = static_cast<int>(r) / ny;
    const int y = static_cast<int>(r) % ny;
    const auto& layer = mesh.layers[static_cast<std::size_t>(z)];
    for (int x = 0; x < nx; ++x) {
      const double k_c = k_at(z, x, y);
      const double t_c = t[static_cast<std::size_t>(z)].at(x, y);
      double q = layer.power.at(x, y);
      const double a_x = h * dz[static_cast<std::size_t>(z)];
      const double a_y = w * dz[static_cast<std::size_t>(z)];
      const int dxs[] = {1, -1, 0, 0};
      const int dys[] = {0, 0, 1, -1};
      for (int n2 = 0; n2 < 4; ++n2) {
        const int x2 = x + dxs[n2], y2 = y + dys[n2];
        const double area = dxs[n2] != 0 ? a_x : a_y;
        const double half = dxs[n2] != 0 ? w / 2 : h / 2;
        if (t[static_cast<std::size_t>(z)].in_bounds(x2, y2)) {
          const double g = series_g(k_c, k_at(z, x2, y2), area, half, half);
          q += g * (t[static_cast<std::size_t>(z)].at(x2, y2) - t_c);
        } else {
          const double g = 1.0 / (half / (k_c * area) + 1.0 / (mesh.h_side * area));
          q += g * (mesh.ambient_c - t_c);
        }
      }
      const double a_z = w * h;
      if (z + 1 < nz) {
        const double g = series_g(k_c, k_at(z + 1, x, y), a_z,
                                  dz[static_cast<std::size_t>(z)] / 2,
                                  dz[static_cast<std::size_t>(z + 1)] / 2);
        q += g * (t[static_cast<std::size_t>(z + 1)].at(x, y) - t_c);
      } else {
        const double g = 1.0 / (dz[static_cast<std::size_t>(z)] / 2 / (k_c * a_z) +
                                1.0 / (mesh.h_top * a_z));
        q += g * (mesh.ambient_c - t_c);
      }
      if (z > 0) {
        const double g = series_g(k_c, k_at(z - 1, x, y), a_z,
                                  dz[static_cast<std::size_t>(z)] / 2,
                                  dz[static_cast<std::size_t>(z - 1)] / 2);
        q += g * (t[static_cast<std::size_t>(z - 1)].at(x, y) - t_c);
      } else {
        const double g = 1.0 / (dz[0] / 2 / (k_c * a_z) + 1.0 / (mesh.h_bottom * a_z));
        q += g * (mesh.ambient_c - t_c);
      }
      const double cap = std::max(layer.cvol, 1e4) * w * h * dz[static_cast<std::size_t>(z)];
      t_next[static_cast<std::size_t>(z)].at(x, y) = t_c + dt * q / cap;
    }
  };

  TransientThermalResult out;
  const auto n_steps = static_cast<long>(std::ceil(t_stop_s / dt));
  const long record_every = std::max(1L, n_steps / 400);
  for (long step = 0; step <= n_steps; ++step) {
    if (step % record_every == 0) {
      out.time_s.push_back(step * dt);
      out.probe_c.push_back(
          t[static_cast<std::size_t>(probe.layer)].at(probe.x, probe.y));
    }
    core::parallel_for(n_rows, step_row);
    std::swap(t, t_next);
  }
  instrument::counter_add(instrument::Counter::ThermalTransientSteps,
                          static_cast<std::uint64_t>(n_steps + 1));

  out.final_field.nx = nx;
  out.final_field.ny = ny;
  out.final_field.t_c = t;
  for (const auto& layer : out.final_field.t_c) {
    for (double v : layer.data()) out.final_field.max_c = std::max(out.final_field.max_c, v);
  }
  // Dominant time constant from the 63.2% crossing of the probe's rise.
  const double rise = out.probe_c.back() - out.probe_c.front();
  if (rise > 1e-9) {
    const double target = out.probe_c.front() + 0.632 * rise;
    for (std::size_t i = 1; i < out.probe_c.size(); ++i) {
      if (out.probe_c[i] >= target) {
        out.tau_s = out.time_s[i];
        break;
      }
    }
  }
  return out;
}

}  // namespace gia::thermal
