#include "tech/material.hpp"

namespace gia::tech::materials {

Material copper() {
  return {.name = "copper", .eps_r = 1.0, .loss_tangent = 0.0, .resistivity = 1.72e-8,
          .thermal_k = 398.0};
}

Material glass_substrate() {
  // Alkali-free boro-aluminosilicate panel glass: low loss, very low thermal
  // conductivity -- the root of both the SI advantage and the thermal
  // disadvantage the paper reports.
  return {.name = "glass", .eps_r = 5.3, .loss_tangent = 0.004, .resistivity = 1e12,
          .thermal_k = 1.1};
}

Material silicon_substrate() {
  // Interposer-grade silicon (~10 ohm*cm): conductive enough to add
  // substrate eddy loss, thermally excellent.
  return {.name = "silicon", .eps_r = 11.9, .loss_tangent = 0.015, .resistivity = 0.1,
          .thermal_k = 149.0};
}

Material organic_core() {
  return {.name = "organic-core", .eps_r = 3.8, .loss_tangent = 0.01, .resistivity = 1e12,
          .thermal_k = 0.35};
}

Material abf_dielectric() {
  return {.name = "ABF", .eps_r = 3.1, .loss_tangent = 0.017, .resistivity = 1e12,
          .thermal_k = 0.25};
}

Material polymer_rdl() {
  return {.name = "polymer-RDL", .eps_r = 3.3, .loss_tangent = 0.005, .resistivity = 1e12,
          .thermal_k = 0.3};
}

Material sio2() {
  return {.name = "SiO2", .eps_r = 3.9, .loss_tangent = 0.001, .resistivity = 1e12,
          .thermal_k = 1.4};
}

Material underfill() {
  return {.name = "underfill", .eps_r = 3.6, .loss_tangent = 0.02, .resistivity = 1e12,
          .thermal_k = 0.5};
}

Material silicon_die() {
  return {.name = "silicon-die", .eps_r = 11.9, .loss_tangent = 0.015, .resistivity = 0.01,
          .thermal_k = 149.0};
}

Material solder() {
  return {.name = "SnAg", .eps_r = 1.0, .loss_tangent = 0.0, .resistivity = 1.3e-7,
          .thermal_k = 57.0};
}

Material air() {
  return {.name = "air", .eps_r = 1.0, .loss_tangent = 0.0, .resistivity = 1e14,
          .thermal_k = 0.026};
}

}  // namespace gia::tech::materials
