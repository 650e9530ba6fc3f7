#pragma once

#include <string>
#include <vector>

#include "geometry/grid.hpp"
#include "interposer/design.hpp"

/// \file mesh.hpp
/// Voxel thermal mesh of a packaged design: a lateral grid times a list of
/// z-layers (package, substrate with optional embedded dies, RDL, bump/
/// underfill, dies, mold/air), each voxel carrying a thermal conductivity
/// and a dissipated power. Mirrors the paper's coarse-grained IcePak tile
/// model (Section VII-G).

namespace gia::thermal {

struct ZLayer {
  std::string name;
  double thickness_um = 100.0;
  geometry::Grid<double> k;      ///< conductivity [W/(m*K)] per lateral cell
  geometry::Grid<double> power;  ///< dissipated power [W] per cell
};

struct ThermalMesh {
  int nx = 0, ny = 0;
  double cell_w_um = 0, cell_h_um = 0;
  /// Mesh origin in interposer coordinates [um] (negative: the mesh extends
  /// past the interposer into the board for lateral heat spreading).
  double ox_um = 0, oy_um = 0;
  std::vector<ZLayer> layers;  ///< bottom (board side) to top (air side)
  double ambient_c = 22.0;
  /// Convective film coefficients [W/(m^2*K)]: the bottom couples the board
  /// to the chassis/ambient system; the top and sides see 0.1 m/s air
  /// (Section VII-G).
  double h_top = 20.0;
  double h_bottom = 20000.0;
  double h_side = 15.0;

  /// Lateral cell index of an interposer-coordinate point.
  int cell_x(double x_um) const;
  int cell_y(double y_um) const;
};

struct MeshOptions {
  int nx = 48;
  int ny = 48;
  /// Power of a die landing in the mesh; indexed by (side, tile).
  double logic_power_w = 0.142;
  double memory_power_w = 0.046;
  /// Interposer wiring dissipation spread over the RDL layer.
  double interposer_power_w = 0.03;
  /// Board extends this fraction of the interposer size past each edge,
  /// providing the lateral spreading path to the system sink.
  double board_margin_frac = 0.5;
  /// Copper thermal-via fill fraction under embedded dies (the paper's
  /// future-work mitigation for the trapped Glass 3D memory die: "thermal
  /// vias could aid in transferring heat from the embedded die to the
  /// package substrate", Section VII-G). 0 = none (the paper's design).
  double thermal_via_fraction = 0.0;
  /// Board/package composite: laminate with copper planes and ball fields.
  double board_thickness_um = 1000.0;
  double board_k = 12.0;
  unsigned power_seed = 11;
};

/// Build the stack for a designed system (any of the six technologies).
ThermalMesh build_thermal_mesh(const interposer::InterposerDesign& design,
                               const MeshOptions& opts = {});

}  // namespace gia::thermal
