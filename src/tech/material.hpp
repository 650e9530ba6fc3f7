#pragma once

#include <string>

/// \file material.hpp
/// Electrical and thermal material properties for substrates, dielectrics
/// and conductors used by the extraction, PDN and thermal engines.

namespace gia::tech {

struct Material {
  std::string name;
  /// Relative permittivity (dielectrics/substrates). 1.0 for conductors.
  double eps_r = 1.0;
  /// Dielectric loss tangent at ~1 GHz.
  double loss_tangent = 0.0;
  /// Electrical resistivity [ohm*m]; huge for insulators.
  double resistivity = 1e12;
  /// Thermal conductivity [W/(m*K)].
  double thermal_k = 1.0;

  bool is_conductor() const { return resistivity < 1e-3; }
};

/// Built-in material table. Values are standard handbook numbers; the glass
/// substrate matches the low-CTE alkali-free glass (ENA1-class) used by the
/// Georgia Tech PRC process described in the paper (Section III).
namespace materials {
Material copper();
Material glass_substrate();    ///< ENA1-class interposer glass
Material silicon_substrate();  ///< high-resistivity interposer silicon
Material organic_core();       ///< organic build-up core (BT/ABF class)
Material abf_dielectric();     ///< Ajinomoto build-up film
Material polymer_rdl();        ///< dry-film polymer RDL dielectric on glass
Material sio2();               ///< silicon interposer BEOL oxide
Material underfill();
Material silicon_die();
Material solder();             ///< micro-bump solder (SnAg class)
Material air();
}  // namespace materials

}  // namespace gia::tech
