#include "chiplet/system.hpp"

#include <cmath>
#include <cstdlib>
#include <stdexcept>
#include <string>

namespace gia::chiplet {

const char* to_string(Arrangement a) {
  switch (a) {
    case Arrangement::Legacy: return "legacy";
    case Arrangement::Grid: return "grid";
    case Arrangement::Hex: return "hex";
    case Arrangement::Placed: return "placed";
    case Arrangement::Floorplan: return "floorplan";
  }
  return "legacy";
}

bool parse_arrangement(const std::string& text, Arrangement* out) {
  if (text == "legacy") *out = Arrangement::Legacy;
  else if (text == "grid") *out = Arrangement::Grid;
  else if (text == "hex") *out = Arrangement::Hex;
  else if (text == "placed") *out = Arrangement::Placed;
  else if (text == "floorplan") *out = Arrangement::Floorplan;
  else return false;
  return true;
}

void SystemConfig::resolve_arrangement() {
  if (chiplets != 2 && is_legacy()) arrangement = Arrangement::Grid;
}

namespace {

double parse_coord(const char* knob, const std::string& tok) {
  std::size_t used = 0;
  double v = 0;
  try {
    v = std::stod(tok, &used);
  } catch (const std::exception&) {
    throw std::invalid_argument(std::string("system.") + knob + ": bad coordinate '" + tok + "'");
  }
  if (used != tok.size() || !std::isfinite(v)) {
    throw std::invalid_argument(std::string("system.") + knob + ": bad coordinate '" + tok + "'");
  }
  return v;
}

/// Split a "a:b;a:b;..." token into coordinate pairs, naming `knob` in
/// errors. Shared by the placed-position and die-size parsers.
std::vector<std::pair<double, double>> parse_pairs(const char* knob, const std::string& text) {
  std::vector<std::pair<double, double>> out;
  if (text.empty()) return out;
  std::size_t start = 0;
  while (start <= text.size()) {
    std::size_t semi = text.find(';', start);
    if (semi == std::string::npos) semi = text.size();
    const std::string entry = text.substr(start, semi - start);
    const std::size_t colon = entry.find(':');
    if (colon == std::string::npos) {
      throw std::invalid_argument(std::string("system.") + knob + ": entry '" + entry +
                                  "' is not a colon-separated pair");
    }
    out.emplace_back(parse_coord(knob, entry.substr(0, colon)),
                     parse_coord(knob, entry.substr(colon + 1)));
    if (semi == text.size()) break;
    start = semi + 1;
  }
  return out;
}

}  // namespace

std::vector<PlacedPosition> SystemConfig::placed_positions() const {
  std::vector<PlacedPosition> out;
  for (const auto& [x, y] : parse_pairs("placed", placed)) out.push_back({x, y});
  return out;
}

std::vector<DieSize> SystemConfig::parsed_die_sizes() const {
  std::vector<DieSize> out;
  for (const auto& [w, h] : parse_pairs("die_sizes", die_sizes)) {
    if (w <= 0.0 || h <= 0.0) {
      throw std::invalid_argument("system.die_sizes: die sides must be positive");
    }
    out.push_back({w, h});
  }
  return out;
}

std::string encode_placed(const std::vector<PlacedPosition>& pos) {
  std::string out;
  char buf[64];
  for (std::size_t i = 0; i < pos.size(); ++i) {
    if (i) out += ';';
    std::snprintf(buf, sizeof buf, "%g:%g", pos[i].x_um, pos[i].y_um);
    out += buf;
  }
  return out;
}

void validate_system(const SystemConfig& sys) {
  if (sys.is_legacy()) {
    if (sys.chiplets != 2) {
      throw std::invalid_argument(
          "system.arrangement=legacy supports only chiplets=2; use "
          "grid/hex/placed for N-chiplet systems");
    }
    return;  // legacy mode ignores the remaining knobs
  }
  if (sys.memory_every > sys.chiplets) {
    throw std::invalid_argument("system.memory_every must be at most system.chiplets");
  }
  if (sys.arrangement == Arrangement::Placed) {
    const auto pos = sys.placed_positions();
    if (static_cast<int>(pos.size()) != sys.chiplets) {
      throw std::invalid_argument(
          "system.placed must list exactly system.chiplets positions");
    }
  } else if (!sys.placed.empty()) {
    throw std::invalid_argument(
        "system.placed is only meaningful with arrangement=placed");
  }
  if (!sys.die_sizes.empty() && sys.arrangement != Arrangement::Floorplan) {
    throw std::invalid_argument(
        "system.die_sizes is only meaningful with arrangement=floorplan");
  }
  if (sys.arrangement == Arrangement::Floorplan && !sys.die_sizes.empty()) {
    const auto sizes = sys.parsed_die_sizes();
    if (static_cast<int>(sizes.size()) != sys.chiplets) {
      throw std::invalid_argument(
          "system.die_sizes must list exactly system.chiplets sizes");
    }
    for (const auto& s : sizes) {
      if (s.w_um > 1e6 || s.h_um > 1e6) {
        throw std::invalid_argument("system.die_sizes: die sides must be at most 1e6 um");
      }
    }
  }
}

}  // namespace gia::chiplet
