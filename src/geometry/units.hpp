#pragma once

/// \file units.hpp
/// Physical unit conventions and conversion helpers used across the toolkit.
///
/// Geometry is expressed in micrometers (um), electrical quantities in SI
/// (ohms, farads, henries, volts, seconds, watts), temperatures in Celsius
/// and thermal conductivities in W/(m*K). Helpers here keep conversions
/// explicit at module boundaries.

namespace gia::geometry {

/// Lengths in this library are doubles in micrometers unless a function says
/// otherwise. These helpers make call sites self-documenting.
constexpr double mm(double v) { return v * 1e3; }

/// Convert micrometers to meters for electrical/thermal formulas.
constexpr double um_to_m(double v_um) { return v_um * 1e-6; }
constexpr double mm_to_um(double v_mm) { return v_mm * 1e3; }

/// Area conversions.
constexpr double um2_to_mm2(double v) { return v * 1e-6; }

namespace constants {
/// Vacuum permittivity [F/m].
inline constexpr double eps0 = 8.8541878128e-12;
/// Vacuum permeability [H/m].
inline constexpr double mu0 = 1.25663706212e-6;
/// Speed of light [m/s].
inline constexpr double c0 = 2.99792458e8;
/// Copper resistivity at room temperature [ohm*m].
inline constexpr double rho_copper = 1.72e-8;
/// Pi. (std::numbers::pi is fine too; kept here so unit constants live together.)
inline constexpr double pi = 3.14159265358979323846;
}  // namespace constants

}  // namespace gia::geometry
