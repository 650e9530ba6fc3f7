#pragma once

#include <vector>

#include "thermal/mesh.hpp"

/// \file solver.hpp
/// Steady-state finite-volume conduction solver with convective boundaries.
/// Voxel-to-voxel conductances use series (harmonic) combination of the
/// half-cell resistances, so layered stacks with 100x conductivity contrast
/// (glass vs silicon) behave correctly.
///
/// Two steady-state methods share the discretization (series_g and film_g
/// in mesh.hpp):
///  * fixed-sweep red-black SOR -- the small-mesh reference, byte-stable;
///  * geometric multigrid V-cycles (multigrid.cpp) -- red-black z-line
///    smoothing (exact vertical-column solves), lateral semi-coarsening
///    with full-weighting restriction and bilinear prolongation, and an
///    exact coarsest-level solve (dense LU, or matrix-free Jacobi-CG on the
///    level's stencil when coarsening stops early), for production-scale
///    meshes where SOR's O(N) sweep count becomes the wall.
/// `solve_steady_state` picks by mesh size alone (`use_multigrid`), which
/// keeps the default 48x48 flow mesh on SOR. Meshes whose extents cannot
/// halve (odd, or below the coarsening floor) always fall back to SOR.

namespace gia::thermal {

/// Lateral mesh extent at which `solve_steady_state` hands the solve to
/// multigrid.
inline constexpr int kMultigridMinExtent = 96;

/// Does an nx-by-ny mesh take the multigrid path? Both extents must reach
/// the threshold and be even (cell-centered 2x coarsening).
constexpr bool use_multigrid(int nx, int ny) noexcept {
  return nx >= kMultigridMinExtent && ny >= kMultigridMinExtent && nx % 2 == 0 && ny % 2 == 0;
}

struct SolverOptions {
  double sor_omega = 1.9;
  int max_iters = 15000;
  double tol_k = 5e-5;  ///< max temperature update per sweep / V-cycle [K]

  int mg_pre_smooth = 2;   ///< red-black z-line sweeps before coarse correction
  int mg_post_smooth = 2;  ///< sweeps after prolongation
  /// Stop coarsening when an extent would drop below this. The coarsest
  /// level is solved exactly (dense LU, factored once) -- essential because
  /// the weak convective films leave a near-singular global mode that
  /// smoothing alone cannot resolve -- so the floor is kept low to make
  /// that factorization trivially small.
  int mg_min_extent = 4;
};

struct ThermalField {
  int nx = 0, ny = 0;
  std::vector<geometry::Grid<double>> t_c;  ///< per z-layer temperatures [C]
  double max_c = 0;
  int iterations = 0;
  bool converged = false;

  double at(int layer, int x, int y) const { return t_c[static_cast<std::size_t>(layer)].at(x, y); }
};

ThermalField solve_steady_state(const ThermalMesh& mesh, const SolverOptions& opts = {});

/// The two concrete methods behind solve_steady_state, exposed for direct
/// comparison (tests, benches). `iterations` counts SOR sweeps for the
/// former and V-cycles for the latter. solve_steady_state_multigrid falls
/// back to SOR when the mesh cannot coarsen at least once.
ThermalField solve_steady_state_sor(const ThermalMesh& mesh, const SolverOptions& opts = {});
ThermalField solve_steady_state_multigrid(const ThermalMesh& mesh, const SolverOptions& opts = {});

}  // namespace gia::thermal
