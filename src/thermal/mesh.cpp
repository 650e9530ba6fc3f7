#include "thermal/mesh.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "geometry/units.hpp"
#include "tech/material.hpp"
#include "thermal/power_map.hpp"

namespace gia::thermal {

using geometry::Grid;
using geometry::Rect;
using netlist::ChipletSide;

int ThermalMesh::cell_x(double x_um) const {
  return std::clamp(static_cast<int>((x_um - ox_um) / cell_w_um), 0, nx - 1);
}
int ThermalMesh::cell_y(double y_um) const {
  return std::clamp(static_cast<int>((y_um - oy_um) / cell_h_um), 0, ny - 1);
}

namespace {

constexpr double k_air = 0.026;
constexpr double k_silicon = 149.0;
constexpr double k_copper = 398.0;
constexpr double k_underfill = 0.5;
constexpr double k_bump_layer = 2.0;  ///< solder bumps in underfill
constexpr double k_daf = 0.3;

struct Builder {
  ThermalMesh mesh;

  ZLayer make_layer(const std::string& name, double thickness_um, double k_background) const {
    ZLayer l;
    l.name = name;
    l.thickness_um = thickness_um;
    l.k = Grid<double>(mesh.nx, mesh.ny, k_background);
    l.power = Grid<double>(mesh.nx, mesh.ny, 0.0);
    return l;
  }

  void paint(ZLayer& l, const Rect& r, double k) const {
    for (int y = mesh.cell_y(r.ly); y <= mesh.cell_y(r.uy - 1e-9); ++y) {
      for (int x = mesh.cell_x(r.lx); x <= mesh.cell_x(r.ux - 1e-9); ++x) {
        l.k.at(x, y) = k;
      }
    }
  }

  void add_power(ZLayer& l, const Rect& r, double watts, unsigned seed) const {
    const int x0 = mesh.cell_x(r.lx), x1 = mesh.cell_x(r.ux - 1e-9);
    const int y0 = mesh.cell_y(r.ly), y1 = mesh.cell_y(r.uy - 1e-9);
    const auto tile = make_power_map(watts, {.tiles = 8, .nonuniformity = 0.35, .seed = seed});
    const auto cells = resample_power_map(tile, x1 - x0 + 1, y1 - y0 + 1);
    for (int y = y0; y <= y1; ++y) {
      for (int x = x0; x <= x1; ++x) {
        l.power.at(x, y) += cells.at(x - x0, y - y0);
      }
    }
  }
};

/// Effective isotropic conductivity of the copper-loaded RDL composite.
double rdl_k(const tech::Technology& t) {
  const double f = t.rules.metal_thickness_um /
                   (t.rules.metal_thickness_um + t.rules.dielectric_thickness_um);
  return 0.5 * f * k_copper + (1.0 - f) * t.rdl_dielectric.thermal_k;
}

/// Substrate conductivity including its through-via (TGV/TSV/PTH) copper
/// field -- the paper's primary vertical heat path on glass ("heat ...
/// dissipates through TGVs to the RDL", Section VII-G).
double substrate_k(const tech::Technology& t) {
  const double r = t.through_via.diameter_um / 2.0;
  const double f = geometry::constants::pi * r * r /
                   (t.through_via.pitch_um * t.through_via.pitch_um);
  return t.substrate.thermal_k + f * k_copper;
}

double die_power(const MeshOptions& o, ChipletSide side) {
  return side == ChipletSide::Logic ? o.logic_power_w : o.memory_power_w;
}

unsigned die_seed(const MeshOptions& o, const interposer::PlacedDie& d) {
  return o.power_seed + static_cast<unsigned>(d.tile) * 17 +
         (d.side == ChipletSide::Logic ? 0u : 101u);
}

}  // namespace

ThermalMesh build_thermal_mesh(const interposer::InterposerDesign& design,
                               const MeshOptions& opts) {
  const auto& tech = design.technology;
  const Rect ip = design.floorplan.outline;
  const double margin =
      std::max(opts.board_margin_frac * std::max(ip.width(), ip.height()), 1500.0);
  const Rect extent = ip.inflated(margin);

  if (opts.nx < 1 || opts.ny < 1) {
    throw std::invalid_argument("thermal_mesh.nx and thermal_mesh.ny must be >= 1 (got " +
                                std::to_string(opts.nx) + " x " + std::to_string(opts.ny) + ")");
  }
  Builder b;
  b.mesh.nx = opts.nx;
  b.mesh.ny = opts.ny;
  b.mesh.ox_um = extent.lx;
  b.mesh.oy_um = extent.ly;
  b.mesh.cell_w_um = extent.width() / opts.nx;
  b.mesh.cell_h_um = extent.height() / opts.ny;
  auto& mesh = b.mesh;

  const double rdl_thickness =
      std::max(10.0, tech.rules.metal_layers * (tech.rules.metal_thickness_um +
                                                tech.rules.dielectric_thickness_um));

  // Board spans the whole mesh in every configuration.
  mesh.layers.push_back(b.make_layer("board", opts.board_thickness_um, opts.board_k));

  auto add_top_dies = [&](bool skip_embedded) {
    auto bumps = b.make_layer("ubump", 15, k_air);
    auto active = b.make_layer("die_active", 20, k_air);
    auto bulk = b.make_layer("die_bulk", 180, k_air);
    for (const auto& die : design.floorplan.dies) {
      if (skip_embedded && die.embedded) continue;
      b.paint(bumps, die.outline, k_bump_layer);
      b.paint(active, die.outline, k_silicon);
      b.paint(bulk, die.outline, k_silicon);
      // Flip-chip: transistors face the bumps (heat enters at die bottom).
      b.add_power(active, die.outline, die_power(opts, die.side), die_seed(opts, die));
    }
    mesh.layers.push_back(std::move(bumps));
    mesh.layers.push_back(std::move(active));
    mesh.layers.push_back(std::move(bulk));
  };

  switch (tech.integration) {
    case tech::IntegrationStyle::SideBySide: {
      auto substrate = b.make_layer("substrate", tech.stackup.layers().front().thickness_um,
                                    k_air);
      b.paint(substrate, ip, substrate_k(tech));
      mesh.layers.push_back(std::move(substrate));
      auto rdl = b.make_layer("rdl", rdl_thickness, k_air);
      b.paint(rdl, ip, rdl_k(tech));
      b.add_power(rdl, ip, opts.interposer_power_w, opts.power_seed + 7);
      mesh.layers.push_back(std::move(rdl));
      add_top_dies(false);
      break;
    }
    case tech::IntegrationStyle::EmbeddedDie: {
      // Glass core with the memory dies embedded in cavities: DAF under the
      // die, then the die body, with its active face up (Fig 1b).
      auto core_bottom = b.make_layer("core_daf", 12, k_air);  // 10um DAF class
      auto core_die = b.make_layer("core_die", 123, k_air);
      auto core_active = b.make_layer("core_active", 20, k_air);
      b.paint(core_bottom, ip, substrate_k(tech));
      b.paint(core_die, ip, substrate_k(tech));
      b.paint(core_active, ip, substrate_k(tech));
      // Optional thermal-via field under the cavity: copper columns through
      // the DAF and the residual glass floor toward the package.
      const double k_under_die = k_daf + opts.thermal_via_fraction * k_copper;
      for (const auto& die : design.floorplan.dies) {
        if (!die.embedded) continue;
        b.paint(core_bottom, die.outline, k_under_die);
        b.paint(core_die, die.outline, k_silicon);
        b.paint(core_active, die.outline, k_silicon);
        // Heat applied at the TOP of embedded dies (Section VII-G).
        b.add_power(core_active, die.outline, die_power(opts, die.side), die_seed(opts, die));
      }
      mesh.layers.push_back(std::move(core_bottom));
      mesh.layers.push_back(std::move(core_die));
      mesh.layers.push_back(std::move(core_active));

      auto rdl = b.make_layer("rdl", rdl_thickness, k_air);
      b.paint(rdl, ip, rdl_k(tech));
      b.add_power(rdl, ip, opts.interposer_power_w, opts.power_seed + 7);
      mesh.layers.push_back(std::move(rdl));
      add_top_dies(true);
      break;
    }
    case tech::IntegrationStyle::TsvStack: {
      // Fig 5 stack, bottom-up: mem0, logic0, logic1, mem1. Dies are
      // thinned to 20um for the mini-TSVs, joined by bump layers.
      const ChipletSide order_side[] = {ChipletSide::Memory, ChipletSide::Logic,
                                        ChipletSide::Logic, ChipletSide::Memory};
      const int order_tile[] = {0, 0, 1, 1};
      for (int i = 0; i < 4; ++i) {
        const auto& die = design.floorplan.die(order_side[i], order_tile[i]);
        auto bumps = b.make_layer("ubump" + std::to_string(i), 15, k_air);
        b.paint(bumps, die.outline, k_bump_layer);
        mesh.layers.push_back(std::move(bumps));
        auto die_layer = b.make_layer("die" + std::to_string(i), i == 3 ? 100.0 : 20.0, k_air);
        b.paint(die_layer, die.outline, k_silicon);
        b.add_power(die_layer, die.outline, die_power(opts, order_side[i]),
                    die_seed(opts, die));
        mesh.layers.push_back(std::move(die_layer));
      }
      break;
    }
    case tech::IntegrationStyle::SingleDie: {
      auto die_layer = b.make_layer("die", 200, k_air);
      b.paint(die_layer, ip, k_silicon);
      const double total =
          2 * (opts.logic_power_w + opts.memory_power_w) + opts.interposer_power_w;
      b.add_power(die_layer, ip, total, opts.power_seed);
      mesh.layers.push_back(std::move(die_layer));
      break;
    }
  }
  return mesh;
}

}  // namespace gia::thermal
