#include <algorithm>
#include <cmath>
#include <optional>
#include <stdexcept>
#include <vector>

#include "circuit/dense_lu.hpp"
#include "core/instrument.hpp"
#include "core/parallel.hpp"
#include "thermal/solver.hpp"

/// \file multigrid.cpp
/// Geometric multigrid for the steady-state conduction problem. The solve
/// runs in excess temperature theta = T - ambient, which makes every
/// convective film a homogeneous boundary (the film conductance lands on
/// the diagonal, the ambient source term vanishes) -- exactly what the
/// coarse-grid error equation A e = r needs, since errors have no ambient
/// offset.
///
/// Coarsening is lateral only (2x2 cell agglomeration per z-layer): the
/// z-stack is a handful of strongly-coupled thin layers, the textbook
/// semi-coarsening configuration -- keep the strong direction fine, coarsen
/// the weak ones, and smooth with z-lines (each vertical column solved
/// exactly by the Thomas algorithm, red-black over the lateral parity).
/// Coarse operators are built from the fine CONDUCTANCES, not from averaged
/// conductivities: a coarse lateral link is the parallel sum, over the fine
/// rows crossing the coarse interface, of the series path
/// half-internal-link / crossing-link / half-internal-link, and coarse
/// z-links and boundary-film conductances are plain sums over the 2x2
/// aggregate. This resistor-network renormalization is what keeps the
/// V-cycle rate mesh-independent here: the stack mixes copper, silicon and
/// glass with ~100x conductivity contrast, and a rediscretized operator on
/// arithmetically averaged k overestimates lateral coupling across material
/// interfaces so badly that the coarse-grid correction stalls (measured
/// ~0.8/cycle at 96x96 vs ~0.2 with conductance coarsening).
/// Restriction sums the four fine residuals into their coarse parent (full
/// weighting in the finite-volume sense: watts add), and prolongation is
/// cell-centered bilinear with clamped edges. Smoother columns of one color
/// only read frozen opposite-color neighbors, so every level is parallel
/// over mesh rows with byte-identical results at any thread count.

namespace gia::thermal {

namespace instrument = core::instrument;

namespace {

/// One multigrid level: geometry, per-cell conductivity, the assembled
/// 7-point operator (link conductances + diagonal incl. films), and the
/// solve vectors. Cells index as (z * ny + y) * nx + x.
struct Level {
  int nx = 0, ny = 0, nz = 0;
  double w = 0, h = 0;          ///< lateral cell sizes [m] (fine level only)
  std::vector<double> dz;       ///< per-layer thickness [m]
  std::vector<double> k;        ///< conductivity per cell (fine level only)
  std::vector<double> gx;       ///< link (x,y,z)-(x+1,y,z); valid for x < nx-1
  std::vector<double> gy;       ///< link to y+1; valid for y < ny-1
  std::vector<double> gz;       ///< link to z+1; valid for z < nz-1
  std::vector<double> film;     ///< boundary film conductance per cell
  std::vector<double> diag;     ///< sum of links + boundary films
  std::vector<double> rhs;      ///< power [W] (fine) / restricted residual
  std::vector<double> u;        ///< theta [K]
  std::vector<double> res;      ///< residual scratch
  std::vector<double> row_scratch;  ///< per-(z,y)-row reduction slots

  std::size_t idx(int x, int y, int z) const {
    return (static_cast<std::size_t>(z) * ny + y) * nx + x;
  }
  std::size_t cells() const {
    return static_cast<std::size_t>(nx) * ny * nz;
  }
};

void alloc_solve_arrays(Level& L) {
  const std::size_t n = L.cells();
  L.gx.assign(n, 0.0);
  L.gy.assign(n, 0.0);
  L.gz.assign(n, 0.0);
  L.film.assign(n, 0.0);
  L.diag.assign(n, 0.0);
  L.u.assign(n, 0.0);
  L.res.assign(n, 0.0);
  L.row_scratch.assign(static_cast<std::size_t>(L.nz) * L.ny, 0.0);
}

/// diag = sum of incident link conductances + the cell's boundary films.
void build_diag(Level& L) {
  const std::size_t plane = static_cast<std::size_t>(L.nx) * L.ny;
  for (int z = 0; z < L.nz; ++z) {
    for (int y = 0; y < L.ny; ++y) {
      for (int x = 0; x < L.nx; ++x) {
        const std::size_t i = L.idx(x, y, z);
        double d = L.film[i];
        if (x + 1 < L.nx) d += L.gx[i];
        if (x > 0) d += L.gx[i - 1];
        if (y + 1 < L.ny) d += L.gy[i];
        if (y > 0) d += L.gy[i - static_cast<std::size_t>(L.nx)];
        if (z + 1 < L.nz) d += L.gz[i];
        if (z > 0) d += L.gz[i - plane];
        L.diag[i] = d;
      }
    }
  }
}

/// Assemble the finest-level operator from the mesh geometry and per-cell
/// conductivities.
void assemble_fine(Level& L, const ThermalMesh& mesh) {
  alloc_solve_arrays(L);
  for (int z = 0; z < L.nz; ++z) {
    const double a_x = L.h * L.dz[static_cast<std::size_t>(z)];
    const double a_y = L.w * L.dz[static_cast<std::size_t>(z)];
    const double a_z = L.w * L.h;
    for (int y = 0; y < L.ny; ++y) {
      for (int x = 0; x < L.nx; ++x) {
        const std::size_t i = L.idx(x, y, z);
        const double k_c = L.k[i];
        if (x + 1 < L.nx) {
          L.gx[i] = series_g(k_c, L.k[L.idx(x + 1, y, z)], a_x, L.w / 2, L.w / 2);
        }
        if (y + 1 < L.ny) {
          L.gy[i] = series_g(k_c, L.k[L.idx(x, y + 1, z)], a_y, L.h / 2, L.h / 2);
        }
        if (z + 1 < L.nz) {
          L.gz[i] = series_g(k_c, L.k[L.idx(x, y, z + 1)], a_z,
                             L.dz[static_cast<std::size_t>(z)] / 2,
                             L.dz[static_cast<std::size_t>(z + 1)] / 2);
        }
        // Boundary films: side convection at the lateral rim, top/bottom
        // films on the outer layers (half-cell conduction in series with
        // the film), exactly as the SOR stencil.
        double f = 0.0;
        if (x == 0) f += film_g(k_c, a_x, L.w / 2, mesh.h_side);
        if (x + 1 == L.nx) f += film_g(k_c, a_x, L.w / 2, mesh.h_side);
        if (y == 0) f += film_g(k_c, a_y, L.h / 2, mesh.h_side);
        if (y + 1 == L.ny) f += film_g(k_c, a_y, L.h / 2, mesh.h_side);
        if (z + 1 == L.nz) {
          f += film_g(k_c, a_z, L.dz[static_cast<std::size_t>(z)] / 2, mesh.h_top);
        }
        if (z == 0) f += film_g(k_c, a_z, L.dz[0] / 2, mesh.h_bottom);
        L.film[i] = f;
      }
    }
  }
  build_diag(L);
}

/// Coarsen the OPERATOR, not the material map: every coarse conductance is
/// a series/parallel reduction of fine conductances, so material interfaces
/// keep their fine-grid bottlenecks (harmonic behaviour) no matter where
/// they land relative to the coarse grid.
///  * lateral link: half the sum of the fine links crossing the coarse
///    interface -- the crossing links already hold the harmonic (series)
///    combination of the two material half-cells at the interface, and the
///    1/2 accounts for the doubled centre distance. For uniform k this is
///    exactly the rediscretized value; for jumps it errs on the stiff side
///    (it drops the aggregate-internal resistance), which UNDERcorrects --
///    the stable direction. Adding that internal resistance in series was
///    tried and over-softens the coarse operator enough that the
///    correction overshoots and the cycle diverges.
///  * z link and boundary film: the four fine values add (areas add).
void coarsen_operator(const Level& f, Level& c) {
  alloc_solve_arrays(c);
  for (int z = 0; z < c.nz; ++z) {
    for (int y = 0; y < c.ny; ++y) {
      for (int x = 0; x < c.nx; ++x) {
        const std::size_t i = c.idx(x, y, z);
        if (x + 1 < c.nx) {
          c.gx[i] = 0.5 * (f.gx[f.idx(2 * x + 1, 2 * y, z)] + f.gx[f.idx(2 * x + 1, 2 * y + 1, z)]);
        }
        if (y + 1 < c.ny) {
          c.gy[i] = 0.5 * (f.gy[f.idx(2 * x, 2 * y + 1, z)] + f.gy[f.idx(2 * x + 1, 2 * y + 1, z)]);
        }
        if (z + 1 < c.nz) {
          c.gz[i] = f.gz[f.idx(2 * x, 2 * y, z)] + f.gz[f.idx(2 * x + 1, 2 * y, z)] +
                    f.gz[f.idx(2 * x, 2 * y + 1, z)] + f.gz[f.idx(2 * x + 1, 2 * y + 1, z)];
        }
        c.film[i] = f.film[f.idx(2 * x, 2 * y, z)] + f.film[f.idx(2 * x + 1, 2 * y, z)] +
                    f.film[f.idx(2 * x, 2 * y + 1, z)] + f.film[f.idx(2 * x + 1, 2 * y + 1, z)];
      }
    }
  }
  build_diag(c);
}

/// One red-black z-line Gauss-Seidel sweep (both colors). The z-stack is a
/// handful of thin, strongly-coupled layers -- the stiff direction that a
/// point smoother relaxes poorly and that lateral semicoarsening leaves
/// uncoarsened -- so each vertical column is solved exactly (Thomas) with
/// its lateral neighbors frozen. Columns are colored by (x + y) parity:
/// every lateral neighbor is the opposite color, so the row-parallel sweep
/// is byte-identical at any thread count.
void smooth(Level& L) {
  const std::size_t plane = static_cast<std::size_t>(L.nx) * L.ny;
  for (int color = 0; color < 2; ++color) {
    core::parallel_for(static_cast<std::size_t>(L.ny), [&L, color, plane](std::size_t yy) {
      const int y = static_cast<int>(yy);
      // Thomas scratch: modified upper diagonal and rhs per column.
      std::vector<double> cp(static_cast<std::size_t>(L.nz));
      std::vector<double> dp(static_cast<std::size_t>(L.nz));
      for (int x = (color + y) & 1; x < L.nx; x += 2) {
        // Column rhs: power/restricted residual + frozen lateral inflow.
        for (int z = 0; z < L.nz; ++z) {
          const std::size_t i = L.idx(x, y, z);
          double acc = L.rhs[i];
          if (x + 1 < L.nx) acc += L.gx[i] * L.u[i + 1];
          if (x > 0) acc += L.gx[i - 1] * L.u[i - 1];
          if (y + 1 < L.ny) acc += L.gy[i] * L.u[i + static_cast<std::size_t>(L.nx)];
          if (y > 0) acc += L.gy[i - static_cast<std::size_t>(L.nx)] * L.u[i - static_cast<std::size_t>(L.nx)];
          dp[static_cast<std::size_t>(z)] = acc;
        }
        // Tridiagonal solve over z: diag on the main diagonal, -gz off it.
        {
          const std::size_t i0 = L.idx(x, y, 0);
          const double inv = 1.0 / L.diag[i0];
          cp[0] = (L.nz > 1 ? -L.gz[i0] : 0.0) * inv;
          dp[0] *= inv;
        }
        for (int z = 1; z < L.nz; ++z) {
          const std::size_t i = L.idx(x, y, z);
          const double lower = -L.gz[i - plane];
          const double inv = 1.0 / (L.diag[i] - lower * cp[static_cast<std::size_t>(z - 1)]);
          cp[static_cast<std::size_t>(z)] = (z + 1 < L.nz ? -L.gz[i] : 0.0) * inv;
          dp[static_cast<std::size_t>(z)] =
              (dp[static_cast<std::size_t>(z)] - lower * dp[static_cast<std::size_t>(z - 1)]) * inv;
        }
        L.u[L.idx(x, y, L.nz - 1)] = dp[static_cast<std::size_t>(L.nz - 1)];
        for (int z = L.nz - 2; z >= 0; --z) {
          L.u[L.idx(x, y, z)] = dp[static_cast<std::size_t>(z)] -
                                cp[static_cast<std::size_t>(z)] * L.u[L.idx(x, y, z + 1)];
        }
      }
    });
  }
}

/// res = rhs - A u.
void residual(Level& L) {
  const std::size_t n_rows = static_cast<std::size_t>(L.nz) * L.ny;
  core::parallel_for(n_rows, [&L](std::size_t r) {
    const int z = static_cast<int>(r) / L.ny;
    const int y = static_cast<int>(r) % L.ny;
    const std::size_t plane = static_cast<std::size_t>(L.nx) * L.ny;
    for (int x = 0; x < L.nx; ++x) {
      const std::size_t i = L.idx(x, y, z);
      double acc = L.diag[i] * L.u[i];
      if (x + 1 < L.nx) acc -= L.gx[i] * L.u[i + 1];
      if (x > 0) acc -= L.gx[i - 1] * L.u[i - 1];
      if (y + 1 < L.ny) acc -= L.gy[i] * L.u[i + static_cast<std::size_t>(L.nx)];
      if (y > 0) acc -= L.gy[i - static_cast<std::size_t>(L.nx)] * L.u[i - static_cast<std::size_t>(L.nx)];
      if (z + 1 < L.nz) acc -= L.gz[i] * L.u[i + plane];
      if (z > 0) acc -= L.gz[i - plane] * L.u[i - plane];
      L.res[i] = L.rhs[i] - acc;
    }
  });
}

/// Full-weighting restriction (finite-volume): each coarse cell's RHS is
/// the sum of its four fine children's residuals -- watts add under
/// agglomeration.
void restrict_residual(const Level& fine, Level& coarse) {
  const std::size_t n_rows = static_cast<std::size_t>(coarse.nz) * coarse.ny;
  core::parallel_for(n_rows, [&](std::size_t r) {
    const int z = static_cast<int>(r) / coarse.ny;
    const int y = static_cast<int>(r) % coarse.ny;
    for (int x = 0; x < coarse.nx; ++x) {
      coarse.rhs[coarse.idx(x, y, z)] =
          fine.res[fine.idx(2 * x, 2 * y, z)] + fine.res[fine.idx(2 * x + 1, 2 * y, z)] +
          fine.res[fine.idx(2 * x, 2 * y + 1, z)] + fine.res[fine.idx(2 * x + 1, 2 * y + 1, z)];
    }
  });
}

/// Cell-centered bilinear prolongation with clamped edges: a fine cell sits
/// a quarter-cell off its coarse parent's center, giving 9/16-3/16-3/16-1/16
/// weights toward the parent and the two/three nearest coarse neighbors.
void prolong_add(const Level& coarse, Level& fine) {
  const std::size_t n_rows = static_cast<std::size_t>(fine.nz) * fine.ny;
  core::parallel_for(n_rows, [&](std::size_t r) {
    const int z = static_cast<int>(r) / fine.ny;
    const int y = static_cast<int>(r) % fine.ny;
    const int cy = y >> 1;
    const int sy = (y & 1) ? 1 : -1;
    const int cy2 = std::clamp(cy + sy, 0, coarse.ny - 1);
    for (int x = 0; x < fine.nx; ++x) {
      const int cx = x >> 1;
      const int sx = (x & 1) ? 1 : -1;
      const int cx2 = std::clamp(cx + sx, 0, coarse.nx - 1);
      const double e =
          (9.0 * coarse.u[coarse.idx(cx, cy, z)] + 3.0 * coarse.u[coarse.idx(cx2, cy, z)] +
           3.0 * coarse.u[coarse.idx(cx, cy2, z)] + 1.0 * coarse.u[coarse.idx(cx2, cy2, z)]) /
          16.0;
      fine.u[fine.idx(x, y, z)] += e;
    }
  });
}

/// Exact solver for the coarsest level. The coarsest level must be solved
/// EXACTLY: the convective films are weak (tens of W/(m^2 K) on top and
/// sides), so the operator carries a near-singular quasi-constant mode that
/// smoothing barely touches at any level -- an iterative coarse "sweep
/// block" leaves a slow ~0.85/cycle tail, while an exact solve restores
/// the mesh-independent multigrid rate. Small levels get a dense LU
/// factored once; levels a stopped (odd-extent) coarsening left large get
/// tightly-converged Jacobi-CG on the level's own stencil, which handles the
/// near-null mode where stationary smoothing cannot.
class CoarseSolver {
 public:
  explicit CoarseSolver(const Level& L) : L_(L) {
    const int n = static_cast<int>(L.cells());
    if (n > kDirectMaxCells) {
      inv_diag_.resize(L.cells());
      for (std::size_t i = 0; i < L.cells(); ++i) inv_diag_[i] = 1.0 / L.diag[i];
      return;
    }
    circuit::DenseMatrix<double> A(n);
    const int plane = L.nx * L.ny;
    for (int z = 0; z < L.nz; ++z) {
      for (int y = 0; y < L.ny; ++y) {
        for (int x = 0; x < L.nx; ++x) {
          const std::size_t i = L.idx(x, y, z);
          const int ii = static_cast<int>(i);
          A.at(ii, ii) = L.diag[i];
          if (x + 1 < L.nx) A.at(ii, ii + 1) = A.at(ii + 1, ii) = -L.gx[i];
          if (y + 1 < L.ny) A.at(ii, ii + L.nx) = A.at(ii + L.nx, ii) = -L.gy[i];
          if (z + 1 < L.nz) A.at(ii, ii + plane) = A.at(ii + plane, ii) = -L.gz[i];
        }
      }
    }
    lu_.emplace(std::move(A));
  }

  void solve(const std::vector<double>& rhs, std::vector<double>& u) const {
    if (lu_) {
      u = lu_->solve(rhs);
      return;
    }
    conjugate_gradient(rhs, u);
  }

 private:
  static constexpr int kDirectMaxCells = 1500;

  /// out = A v. Each row is summed from 0.0 in ascending column order
  /// (z-1, y-1, x-1, self, x+1, y+1, z+1) -- unlike residual() -- and that
  /// order is part of the pinned result: another one moves the last bits of
  /// every CG iterate.
  void multiply(const std::vector<double>& v, std::vector<double>& out) const {
    const Level& L = L_;
    const std::size_t row = static_cast<std::size_t>(L.nx);
    const std::size_t plane = row * static_cast<std::size_t>(L.ny);
    for (int z = 0; z < L.nz; ++z) {
      for (int y = 0; y < L.ny; ++y) {
        for (int x = 0; x < L.nx; ++x) {
          const std::size_t i = L.idx(x, y, z);
          double acc = 0.0;
          if (z > 0) acc += -L.gz[i - plane] * v[i - plane];
          if (y > 0) acc += -L.gy[i - row] * v[i - row];
          if (x > 0) acc += -L.gx[i - 1] * v[i - 1];
          acc += L.diag[i] * v[i];
          if (x + 1 < L.nx) acc += -L.gx[i] * v[i + 1];
          if (y + 1 < L.ny) acc += -L.gy[i] * v[i + row];
          if (z + 1 < L.nz) acc += -L.gz[i] * v[i + plane];
          out[i] = acc;
        }
      }
    }
  }

  static double dot(const std::vector<double>& a, const std::vector<double>& b) {
    double s = 0;
    for (std::size_t i = 0; i < a.size(); ++i) s += a[i] * b[i];
    return s;
  }

  /// Jacobi-preconditioned CG from u = 0 to ||r|| <= 1e-13 ||rhs||, at most
  /// 40 iterations per cell.
  void conjugate_gradient(const std::vector<double>& rhs, std::vector<double>& u) const {
    const std::size_t n = rhs.size();
    std::fill(u.begin(), u.end(), 0.0);
    const double bnorm = std::sqrt(dot(rhs, rhs));
    if (bnorm == 0.0) return;
    const double tol = 1e-13 * bnorm;
    const int max_iters = 40 * static_cast<int>(n);

    // u = 0, so the initial residual is rhs itself.
    std::vector<double> r = rhs, z(n), p(n), ap(n);
    for (std::size_t i = 0; i < n; ++i) z[i] = inv_diag_[i] * r[i];
    p = z;
    double rz = dot(r, z);
    int iterations = 0;
    for (int it = 0; it < max_iters; ++it) {
      multiply(p, ap);
      const double pap = dot(p, ap);
      if (std::abs(pap) < 1e-300) break;  // breakdown (singular operator)
      const double alpha = rz / pap;
      for (std::size_t i = 0; i < n; ++i) u[i] += alpha * p[i];
      for (std::size_t i = 0; i < n; ++i) r[i] -= alpha * ap[i];
      iterations = it + 1;
      if (std::sqrt(dot(r, r)) <= tol) break;
      for (std::size_t i = 0; i < n; ++i) z[i] = inv_diag_[i] * r[i];
      const double rz_new = dot(r, z);
      const double beta = rz_new / rz;
      rz = rz_new;
      for (std::size_t i = 0; i < n; ++i) p[i] = z[i] + beta * p[i];
    }
    instrument::counter_add(instrument::Counter::KrylovIterations,
                            static_cast<std::uint64_t>(iterations));
  }

  const Level& L_;
  std::optional<circuit::LuFactor<double>> lu_;
  std::vector<double> inv_diag_;  ///< Jacobi preconditioner (CG path only)
};

void vcycle(std::vector<Level>& levels, std::size_t l, const CoarseSolver& coarse,
            const SolverOptions& opts) {
  Level& L = levels[l];
  if (l + 1 == levels.size()) {
    coarse.solve(L.rhs, L.u);
    return;
  }
  for (int s = 0; s < opts.mg_pre_smooth; ++s) smooth(L);
  residual(L);
  restrict_residual(L, levels[l + 1]);
  std::fill(levels[l + 1].u.begin(), levels[l + 1].u.end(), 0.0);
  vcycle(levels, l + 1, coarse, opts);
  prolong_add(levels[l + 1], L);
  for (int s = 0; s < opts.mg_post_smooth; ++s) smooth(L);
}

}  // namespace

ThermalField solve_steady_state_multigrid(const ThermalMesh& mesh, const SolverOptions& opts) {
  const int nx = mesh.nx, ny = mesh.ny;
  const int nz = static_cast<int>(mesh.layers.size());
  if (nx < 1 || ny < 1 || nz < 1) throw std::invalid_argument("empty mesh");

  // --- Build the level hierarchy: lateral 2x coarsening while both extents
  // stay even and above the floor.
  std::vector<Level> levels;
  {
    Level fine;
    fine.nx = nx;
    fine.ny = ny;
    fine.nz = nz;
    fine.w = mesh.cell_w_um * 1e-6;
    fine.h = mesh.cell_h_um * 1e-6;
    fine.dz.resize(static_cast<std::size_t>(nz));
    for (int z = 0; z < nz; ++z) {
      fine.dz[static_cast<std::size_t>(z)] = mesh.layers[static_cast<std::size_t>(z)].thickness_um * 1e-6;
    }
    fine.k.resize(fine.cells());
    fine.rhs.resize(fine.cells());
    for (int z = 0; z < nz; ++z) {
      const auto& layer = mesh.layers[static_cast<std::size_t>(z)];
      for (int y = 0; y < ny; ++y) {
        for (int x = 0; x < nx; ++x) {
          fine.k[fine.idx(x, y, z)] = layer.k.at(x, y);
          fine.rhs[fine.idx(x, y, z)] = layer.power.at(x, y);
        }
      }
    }
    levels.push_back(std::move(fine));
  }
  while (levels.back().nx % 2 == 0 && levels.back().ny % 2 == 0 &&
         levels.back().nx / 2 >= opts.mg_min_extent && levels.back().ny / 2 >= opts.mg_min_extent) {
    const Level& f = levels.back();
    Level c;
    c.nx = f.nx / 2;
    c.ny = f.ny / 2;
    c.nz = f.nz;
    c.dz = f.dz;
    c.rhs.assign(c.cells(), 0.0);
    levels.push_back(std::move(c));
  }

  // Too small to coarsen even once: SOR is the better solver there.
  if (levels.size() < 2) return solve_steady_state_sor(mesh, opts);

  GIA_SPAN("thermal/steady_state_mg");
  assemble_fine(levels.front(), mesh);
  for (std::size_t l = 1; l < levels.size(); ++l) coarsen_operator(levels[l - 1], levels[l]);
  const CoarseSolver coarse(levels.back());

  // --- V-cycle to tolerance: converged when the largest fine-grid update
  // of a whole cycle drops below tol_k (one V-cycle contracts the error by
  // a mesh-independent factor, so the last update tracks the error scale).
  Level& fine = levels.front();
  std::vector<double> u_prev(fine.cells());
  const std::size_t n_rows = static_cast<std::size_t>(fine.nz) * fine.ny;
  // ~40 V-cycles of work equals a few hundred SOR sweeps worst case; the
  // sweep-count cap translates conservatively.
  const int max_vcycles = std::max(1, opts.max_iters / 100);

  ThermalField field;
  field.nx = nx;
  field.ny = ny;
  for (int cycle = 0; cycle < max_vcycles; ++cycle) {
    u_prev = fine.u;
    vcycle(levels, 0, coarse, opts);
    std::fill(fine.row_scratch.begin(), fine.row_scratch.end(), 0.0);
    core::parallel_for(n_rows, [&](std::size_t r) {
      const std::size_t base = r * static_cast<std::size_t>(fine.nx);
      double m = 0;
      for (int x = 0; x < fine.nx; ++x) {
        m = std::max(m, std::abs(fine.u[base + x] - u_prev[base + x]));
      }
      fine.row_scratch[r] = m;
    });
    double max_du = 0;
    for (double v : fine.row_scratch) max_du = std::max(max_du, v);
    field.iterations = cycle + 1;
    if (max_du < opts.tol_k) {
      field.converged = true;
      break;
    }
  }

  field.t_c.assign(static_cast<std::size_t>(nz), geometry::Grid<double>(nx, ny, mesh.ambient_c));
  for (int z = 0; z < nz; ++z) {
    auto& t = field.t_c[static_cast<std::size_t>(z)];
    for (int y = 0; y < ny; ++y) {
      for (int x = 0; x < nx; ++x) {
        t.at(x, y) = mesh.ambient_c + fine.u[fine.idx(x, y, z)];
      }
    }
  }
  for (const auto& layer : field.t_c) {
    for (double v : layer.data()) field.max_c = std::max(field.max_c, v);
  }
  instrument::counter_add(instrument::Counter::MgVcycles,
                          static_cast<std::uint64_t>(field.iterations));
  if (instrument::enabled()) {
    instrument::gauge_set("thermal.steady.max_c", field.max_c);
    instrument::gauge_set("thermal.steady.converged", field.converged ? 1.0 : 0.0);
  }
  return field;
}

}  // namespace gia::thermal
