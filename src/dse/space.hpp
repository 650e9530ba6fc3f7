#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/json.hpp"
#include "core/sweep.hpp"
#include "serve/request.hpp"

/// \file space.hpp
/// Declarative search-space grammar for design-space exploration. A
/// `SearchSpace` is a base `FlowRequest` plus named axes over any request
/// knob (every row of core/knobs.hpp): categorical token axes (technology,
/// arrangement), integer axes (chiplet count, SerDes ratio, booleans as
/// 0/1) and numeric axes given either as explicit value lists or as
/// linear/log ranges. The cross product is enumerable -- `materialize(i)`
/// yields the i-th fully specified request -- and content-hashable
/// (`key()`), so two identical searches coalesce in the daemon exactly like
/// two identical flow requests do.
///
/// The JSON form follows the serve/request.cpp contract: strict readers
/// that reject unknown keys (a typo'd knob or axis field fails loudly
/// instead of silently searching a different space), canonical single-line
/// writers whose output re-parses to an identical space.
///
/// A `SearchSpec` wraps a space with the optimizer's configuration:
/// objectives over result metrics, feasibility constraints (e.g. a cost
/// ceiling), and the seed/refine/batch budget knobs consumed by
/// dse/search.hpp.

namespace gia::dse {

/// How an axis's values bind to the FlowRequest.
enum class KnobType {
  Token,  ///< categorical string (tech name, arrangement)
  Int,    ///< integer or boolean knob; axis values must be integral
  Double  ///< real knob
};

/// One named axis: a knob plus its candidate values. Exactly one of
/// `tokens` (Token knobs) / `values` (Int/Double knobs) is populated.
struct Axis {
  std::string knob;
  KnobType type = KnobType::Double;
  std::vector<std::string> tokens;
  std::vector<double> values;

  std::size_t size() const { return type == KnobType::Token ? tokens.size() : values.size(); }
};

struct SearchSpace {
  serve::FlowRequest base;  ///< knobs not named by an axis keep these values
  std::vector<Axis> axes;   ///< document order; the index is mixed-radix over this

  /// Number of points in the cross product (saturates at UINT64_MAX).
  std::uint64_t size() const;

  /// The fully specified request at flat index `i` (mixed-radix decode,
  /// first axis fastest). As in `giaflow flow`, a point that sets
  /// system.chiplets != 2 while leaving the arrangement legacy is promoted
  /// to a grid arrangement. Throws std::out_of_range for i >= size().
  serve::FlowRequest materialize(std::uint64_t i) const;

  /// Human-readable point label: "tech=glass3d system.chiplets=16 ..."
  /// (axis values in %g), stable across runs.
  std::string label(std::uint64_t i) const;

  /// Per-axis digit decomposition of a flat index (first axis first).
  std::vector<std::size_t> digits(std::uint64_t i) const;
  /// Inverse of `digits`.
  std::uint64_t index_of(const std::vector<std::size_t>& digits) const;

  /// Deterministic full rendering (base request text + axis values); the
  /// preimage of `key()`.
  std::string canonical_text() const;
  /// 64-bit FNV-1a over `canonical_text()` -- the coalescing address.
  std::uint64_t key() const;
};

/// Feasibility constraint over a result metric: points outside the bounds
/// are reported but never join the Pareto front.
struct Constraint {
  std::string metric;
  bool has_min = false, has_max = false;
  double min = 0, max = 0;

  bool satisfied(double value) const {
    return (!has_min || value >= min) && (!has_max || value <= max);
  }
};

/// The metric names an objective or constraint may reference; values are
/// produced by `dse::metrics_of` (search.hpp). Objectives over hotspot_C /
/// eye_opening auto-enable the thermal / eye stages on the base request.
const std::vector<std::string>& known_metrics();

struct SearchSpec {
  SearchSpace space;
  /// Pareto objectives. Default: minimize power_mW, cost_usd, area_mm2.
  std::vector<core::Objective> objectives;
  std::vector<Constraint> constraints;
  int seed_points = 16;    ///< low-discrepancy seed sweep size
  int refine_rounds = 1;   ///< neighbor-expansion passes around the front
  int batch = 4;           ///< scheduler submissions per wave
  std::uint64_t max_points = 0;  ///< total evaluation cap; 0 = space size
  bool point_events = true;      ///< emit per-point events (search_done always)

  /// Content address over the full spec (space, objectives, constraints,
  /// budget knobs): identical searches coalesce by this key.
  std::uint64_t key() const;
  std::string canonical_text() const;
};

/// Parse a spec from a `{"search":{...}}` document or the bare inner
/// object. Grammar:
///   space        (required) object: axis name -> values
///                  Token knobs: ["glass25d","glass3d"]
///                  numeric knobs: [4,8,16] or
///                    {"min":1e9,"max":4e9,"steps":8,"scale":"linear"|"log"}
///   base         (optional) flow_request inner object (serve/request.cpp)
///   objectives   (optional) [{"metric":"power_mW","direction":"min"|"max"}]
///   constraints  (optional) [{"metric":"cost_usd","max":5.0,"min":...}]
///   seed_points, refine_rounds, batch, max_points, point_events (optional)
/// Unknown keys, unknown knobs, unknown metrics, empty axes, non-integral
/// values on Int knobs, values outside the knob's range and degenerate
/// ranges are rejected with std::runtime_error.
SearchSpec spec_from_value(const core::json::Value& v);
SearchSpec spec_from_json(const std::string& text);

/// Canonical single-line JSON (`{"search":{...}}`) that re-parses to an
/// equal spec (ranges are expanded to explicit value lists).
std::string spec_to_json(const SearchSpec& spec);

}  // namespace gia::dse
