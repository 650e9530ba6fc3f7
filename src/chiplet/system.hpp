#pragma once

#include <string>
#include <vector>

/// \file system.hpp
/// Description of an N-chiplet system: how many chiplets a FlowRequest asks
/// for, how they are classed (logic vs memory-heavy dies), and how they are
/// arranged on the interposer.
///
/// The default-constructed SystemConfig selects the paper's fixed two-tile
/// logic/memory study (Arrangement::Legacy) and serializes to *nothing*: the
/// canonical request text, the JSON wire form, and every stage-graph knob
/// subset are byte-identical to the pre-system-block schema, so existing
/// golden request keys and cached artifacts stay valid.

namespace gia::chiplet {

/// How chiplet dies are placed on the interposer.
enum class Arrangement {
  Legacy,    ///< the paper's hardcoded 2-tile logic/memory side-by-side study
  Grid,      ///< row-major near-square grid, 4-neighbor adjacency
  Hex,       ///< HexaMesh-style offset rows, 6-neighbor adjacency
  Placed,    ///< explicit positions from SystemConfig::placed (PlaceIT-style)
  Floorplan  ///< Floorplet-style performance-aware annealed floorplan
};

const char* to_string(Arrangement a);
bool parse_arrangement(const std::string& text, Arrangement* out);

/// One parsed explicit die position (um), from the "x:y;x:y;..." token.
struct PlacedPosition {
  double x_um = 0;
  double y_um = 0;
};

/// One parsed die size (um), from the "w:h;w:h;..." token.
struct DieSize {
  double w_um = 0;
  double h_um = 0;
};

struct SystemConfig {
  /// Number of chiplet dies. In legacy mode this must stay 2 (the two
  /// OpenPiton tiles); in generalized mode each chiplet is one netlist tile
  /// and one die on the interposer.
  int chiplets = 2;
  Arrangement arrangement = Arrangement::Legacy;
  /// Every Nth chiplet (1-based: chiplets N, 2N, ...) is memory-class: it is
  /// floorplanned with memory bump/utilization rules and books memory-side
  /// power in the thermal map. 0 disables memory-class dies.
  int memory_every = 0;
  /// Multiplier on each chiplet's standard-cell area before bump planning
  /// (bigger die class). Applied to every chiplet.
  double die_scale = 1.0;
  /// Multiplier on each chiplet's booked power in thermal/rollup.
  double power_scale = 1.0;
  /// Extra area multiplier applied only to memory-class chiplets.
  double memory_die_scale = 1.0;
  /// Extra power multiplier applied only to memory-class chiplets.
  double memory_power_scale = 1.0;
  /// Multiplier on the inter-die gap used by the arrangement engine.
  double pitch_scale = 1.0;
  /// Explicit die centers for Arrangement::Placed, encoded "x:y;x:y;..."
  /// in um (one entry per chiplet). Ignored by the other arrangements.
  std::string placed;
  /// Explicit per-die outlines for Arrangement::Floorplan, encoded
  /// "w:h;w:h;..." in um (one entry per chiplet). Each die's outline becomes
  /// w x h with the bump field centered inside it; both sides must fit the
  /// planned bump field. Empty keeps the square bump-plan outlines.
  std::string die_sizes;

  /// True when every field is at its default: the system block is omitted
  /// from canonical text / JSON and the request hashes to the legacy form.
  bool is_default() const { return *this == SystemConfig{}; }
  bool operator==(const SystemConfig&) const = default;
  /// True when the legacy two-tile flow path runs (system knobs are ignored
  /// wholesale, so stage keys also omit them).
  bool is_legacy() const { return arrangement == Arrangement::Legacy; }
  /// A chiplet count other than 2 with the legacy arrangement means a grid
  /// (`giaflow flow --chiplets N`, a DSE point with a chiplets axis):
  /// switch the arrangement to Grid in that case.
  void resolve_arrangement();
  /// Is chiplet i (0-based) memory-class?
  bool memory_class(int i) const {
    return memory_every > 0 && (i + 1) % memory_every == 0;
  }
  /// Area multiplier for chiplet i.
  double die_scale_of(int i) const {
    return die_scale * (memory_class(i) ? memory_die_scale : 1.0);
  }
  /// Power multiplier for chiplet i.
  double power_scale_of(int i) const {
    return power_scale * (memory_class(i) ? memory_power_scale : 1.0);
  }

  /// Parse `placed` into positions. Throws std::invalid_argument on a
  /// malformed token; returns an empty vector when `placed` is empty.
  std::vector<PlacedPosition> placed_positions() const;

  /// Parse `die_sizes` into per-die outlines. Throws std::invalid_argument
  /// on a malformed token; returns an empty vector when `die_sizes` is
  /// empty.
  std::vector<DieSize> parsed_die_sizes() const;
};

/// Encode positions into the `placed` token form ("x:y;x:y;...").
std::string encode_placed(const std::vector<PlacedPosition>& pos);

/// Validate the cross-field rules of a system block before running a flow:
/// legacy mode needs chiplets==2, memory_every <= chiplets, and the placed /
/// die_sizes lists must match the arrangement and the chiplet count. Throws
/// std::invalid_argument naming the offending field. Per-field ranges are
/// rows of the knob table (core/knobs.hpp), checked by the owning stages.
void validate_system(const SystemConfig& sys);

}  // namespace gia::chiplet
