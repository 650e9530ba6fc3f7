#include "thermal/solver.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "core/instrument.hpp"
#include "core/parallel.hpp"

namespace gia::thermal {

namespace instrument = core::instrument;

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
  const auto ux = static_cast<std::size_t>(nx);
  const auto uy = static_cast<std::size_t>(ny);
  const auto uz = static_cast<std::size_t>(nz);
  const std::size_t plane = ux * uy;

  const double w = mesh.cell_w_um * 1e-6;
  const double h = mesh.cell_h_um * 1e-6;
  std::vector<double> dz(uz);
  for (std::size_t z = 0; z < uz; ++z) dz[z] = mesh.layers[z].thickness_um * 1e-6;

  ThermalField field;
  field.nx = nx;
  field.ny = ny;
  field.t_c.assign(uz, geometry::Grid<double>(nx, ny, mesh.ambient_c));

  auto k_at = [&](int z, int x, int y) { return mesh.layers[static_cast<std::size_t>(z)].k.at(x, y); };

  // The stencil, assembled once: one conductance per cell face. gx holds
  // nx + 1 faces per (z, y) row, face x lying between cells x - 1 and x;
  // gy holds ny + 1 face rows per layer and gz nz + 1 face planes, indexed
  // the same way. The end slots hold the rim films (side, bottom, top). Two
  // cells share their common face's value: series_g(ka, kb, A, da, db)
  // equals series_g(kb, ka, A, db, da) bit for bit, because IEEE addition
  // commutes.
  std::vector<double> gx(uz * uy * (ux + 1)), gy(uz * (uy + 1) * ux), gz((uz + 1) * plane);
  const double a_z = w * h;
  for (int z = 0; z < nz; ++z) {
    const auto zz = static_cast<std::size_t>(z);
    const double a_x = h * dz[zz];
    const double a_y = w * dz[zz];
    for (int y = 0; y < ny; ++y) {
      const auto yy = static_cast<std::size_t>(y);
      double* gxr = &gx[(zz * uy + yy) * (ux + 1)];
      double* gyr = &gy[(zz * (uy + 1) + yy) * ux];
      double* gzr = &gz[zz * plane + yy * ux];
      for (int x = 0; x < nx; ++x) {
        const auto xx = static_cast<std::size_t>(x);
        const double k_c = k_at(z, x, y);
        // This cell's -x, -y and -z faces (a film at the rim), plus the
        // +x, +y and +z films of the last cell of a row, column or stack.
        gxr[xx] = x > 0 ? series_g(k_at(z, x - 1, y), k_c, a_x, w / 2, w / 2)
                        : film_g(k_c, a_x, w / 2, mesh.h_side);
        if (x + 1 == nx) gxr[ux] = film_g(k_c, a_x, w / 2, mesh.h_side);
        gyr[xx] = y > 0 ? series_g(k_at(z, x, y - 1), k_c, a_y, h / 2, h / 2)
                        : film_g(k_c, a_y, h / 2, mesh.h_side);
        if (y + 1 == ny) gyr[ux + xx] = film_g(k_c, a_y, h / 2, mesh.h_side);
        gzr[xx] = z > 0 ? series_g(k_at(z - 1, x, y), k_c, a_z, dz[zz - 1] / 2, dz[zz] / 2)
                        : film_g(k_c, a_z, dz[0] / 2, mesh.h_bottom);
        if (z + 1 == nz) gzr[plane + xx] = film_g(k_c, a_z, dz[zz] / 2, mesh.h_top);
      }
    }
  }

  // Red-black SOR: cells are colored by (x + y + z) parity, so the 7-point
  // stencil of any cell only reads the opposite color. Each color sweep is
  // then embarrassingly parallel over (z, y) rows with byte-identical
  // results at any thread count -- within a sweep every update reads state
  // frozen by the previous sweep, regardless of execution order.
  const std::size_t n_rows = uz * uy;
  std::vector<double> row_max_dt(n_rows);
  const double amb = mesh.ambient_c;

  auto sweep_row_color = [&](std::size_t r, int color) {
    const int z = static_cast<int>(r / uy);
    const int y = static_cast<int>(r % uy);
    const auto zz = static_cast<std::size_t>(z);
    const auto yy = static_cast<std::size_t>(y);
    double* t = field.t_c[zz].data().data() + yy * ux;
    const double* t_ym = y > 0 ? t - ux : nullptr;
    const double* t_yp = y + 1 < ny ? t + ux : nullptr;
    const double* t_zm = z > 0 ? field.t_c[zz - 1].data().data() + yy * ux : nullptr;
    const double* t_zp = z + 1 < nz ? field.t_c[zz + 1].data().data() + yy * ux : nullptr;
    const double* p = mesh.layers[zz].power.data().data() + yy * ux;
    const double* gxr = &gx[r * (ux + 1)];
    const double* gym = &gy[(zz * (uy + 1) + yy) * ux];
    const double* gyp = gym + ux;
    const double* gzm = &gz[zz * plane + yy * ux];
    const double* gzp = gzm + plane;
    double local_max = row_max_dt[r];
    for (int x = (color + y + z) & 1; x < nx; x += 2) {
      const auto xx = static_cast<std::size_t>(x);
      // Summed in the order +x, -x, +y, -y, +z, -z, a rim film taking its
      // missing neighbor's place with the ambient temperature.
      const double g_sum = gxr[xx + 1] + gxr[xx] + gyp[xx] + gym[xx] + gzp[xx] + gzm[xx];
      const double rhs = p[xx] + gxr[xx + 1] * (x + 1 < nx ? t[xx + 1] : amb) +
                         gxr[xx] * (x > 0 ? t[xx - 1] : amb) +
                         gyp[xx] * (t_yp ? t_yp[xx] : amb) + gym[xx] * (t_ym ? t_ym[xx] : amb) +
                         gzp[xx] * (t_zp ? t_zp[xx] : amb) + gzm[xx] * (t_zm ? t_zm[xx] : amb);
      const double t_new = rhs / g_sum;
      const double dt = t_new - t[xx];
      t[xx] += opts.sor_omega * dt;
      local_max = std::max(local_max, std::abs(dt));
    }
    row_max_dt[r] = local_max;
  };

  // Below kSorParallelMinCells a half-sweep is too short to repay waking
  // the pool; red-black ordering makes the serial sweep bit-identical.
  const bool serial = plane * uz < kSorParallelMinCells;
  for (int iter = 0; iter < opts.max_iters; ++iter) {
    std::fill(row_max_dt.begin(), row_max_dt.end(), 0.0);
    for (int color = 0; color < 2; ++color) {
      if (serial) {
        for (std::size_t r = 0; r < n_rows; ++r) sweep_row_color(r, color);
      } else {
        core::parallel_for(n_rows, [&](std::size_t r) { sweep_row_color(r, color); });
      }
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
