#pragma once

#include <charconv>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

#include "core/flow.hpp"
#include "core/json.hpp"
#include "core/stagegraph.hpp"
#include "tech/technology.hpp"

/// \file knobs.hpp
/// The knob table: the one place a `FlowOptions` knob is named. `walk()`
/// visits every knob of a request in canonical order; each row carries its
/// name, the stages that own it (their keys render it, their bodies check
/// it when they start) and its inclusive range (doubles must be finite).
/// Tokens are checked by their parser when set. Every other view of the
/// options is a visitor over this walk: request keys and the wire format
/// (serve/request.cpp), stage keys (core/stagegraph.cpp), and `check`,
/// `rows` and `set` below (stage range checks, the DSE axis registry and
/// its by-path setter). A stage key covers exactly the rows that stage
/// checks, so a stage-cache hit never serves unchecked values.
///
/// A visitor implements `field(const Field<T>&)` (T = int, unsigned, double,
/// bool), `token(const Token<S>&)`, `end()` and `bool begin(name,
/// nondefault, in_use)`: a true return enters the section and `end()`
/// follows. Both flags are true except for the N-chiplet system block,
/// where `nondefault` says the block differs from its defaults (request
/// rendering omits it otherwise) and `in_use` says the flow reads it (a
/// non-legacy arrangement; stage keys and checks skip it otherwise).

namespace gia::core::knobs {

/// A set of stages: bit i is `stage::StageId` i.
using Stages = unsigned;

constexpr Stages bit(stage::StageId id) { return 1u << stage::idx(id); }

inline constexpr Stages kPartition = bit(stage::StageId::NetlistPartition);
inline constexpr Stages kPnr = bit(stage::StageId::ChipletPnr);
inline constexpr Stages kInterposer = bit(stage::StageId::Interposer);
inline constexpr Stages kEyes = bit(stage::StageId::Eyes);
inline constexpr Stages kPdn = bit(stage::StageId::Pdn);
inline constexpr Stages kThermal = bit(stage::StageId::Thermal);
inline constexpr Stages kRollup = bit(stage::StageId::Rollup);

/// One numeric or boolean row. Bools carry the range [false, true].
template <typename T>
struct Field {
  const char* name;
  T& value;
  T min, max;
  Stages owners;
  bool render;  ///< false: an optional row at its default; writers omit it
};

/// One token row: `value` is the current spelling; `set(text)` parses a
/// spelling into the options, returns false for an unknown word and throws
/// std::invalid_argument for a malformed list.
template <typename Set>
struct Token {
  const char* name;
  const std::string& value;
  const Set& set;
  Stages owners;
  bool render;
};

/// Adapter the walk writes its rows through: rows inherit their section's
/// owners unless they name their own.
template <typename V>
class Table {
 public:
  static constexpr Stages kSection = ~0u;

  explicit Table(V& v) : v_(v) {}

  bool begin(const char* name, Stages owners, bool nondefault = true, bool in_use = true) {
    if (!v_.begin(name, nondefault, in_use)) return false;
    section_[++depth_] = owners;
    return true;
  }
  void end() {
    v_.end();
    --depth_;
  }

  template <typename T>
  void field(const char* name, T& x, std::type_identity_t<T> lo, std::type_identity_t<T> hi,
             Stages owners = kSection, bool render = true) {
    v_.field(Field<T>{name, x, lo, hi, own(owners), render});
  }
  template <typename S>
  void token(const char* name, const std::string& cur, const S& set, Stages owners = kSection,
             bool render = true) {
    v_.token(Token<S>{name, cur, set, own(owners), render});
  }

 private:
  Stages own(Stages owners) const { return owners == kSection ? section_[depth_] : owners; }

  V& v_;
  Stages section_[4] = {0, 0, 0, 0};
  int depth_ = 0;
};

/// The table. Row order is the canonical order of request keys, the wire
/// format and stage keys; appending a row changes every request key, so a
/// post-schema row renders only when set (`any_angle`, `die_sizes`).
template <typename V>
void walk(tech::TechnologyKind& tk, FlowOptions& o, V& v) {
  Table<V> t(v);
  // The technology reaches stage keys through each stage's `reads_tech`.
  t.token("tech", tech::short_name(tk),
          [&tk](const std::string& s) { return tech::parse_kind(s, &tk); }, 0);
  t.token("partition_mode",
          o.partition_mode == PartitionMode::Hierarchical ? "hierarchical" : "flattened",
          [&o](const std::string& s) {
            if (s != "hierarchical" && s != "flattened") return false;
            o.partition_mode =
                s == "hierarchical" ? PartitionMode::Hierarchical : PartitionMode::Flattened;
            return true;
          },
          kPartition);

  t.begin("openpiton", kPartition);
  t.field("tiles", o.openpiton.tiles, 1, 256);
  t.field("cluster_cells", o.openpiton.cluster_cells, 1, 1000000);
  t.field("seed", o.openpiton.seed, 0, ~0u);
  t.field("intra_nets_per_cluster", o.openpiton.intra_nets_per_cluster, 0.0, 100.0);
  t.end();

  t.begin("serdes", kPartition);
  t.field("ratio", o.serdes.ratio, 1, 64);
  t.field("min_bits", o.serdes.min_bits, 1, 4096);
  t.field("cells_per_lane", o.serdes.cells_per_lane, 0, 100000);
  t.field("latency_cycles", o.serdes.latency_cycles, 0, 1000);
  t.end();

  t.begin("fm", kPartition);
  t.field("balance_tolerance", o.fm.balance_tolerance, 0.0, 0.5);
  t.field("target_memory_fraction", o.fm.target_memory_fraction, 0.0, 1.0);
  t.field("max_passes", o.fm.max_passes, 0, 1000);
  t.field("seed", o.fm.seed, 0, ~0u);
  t.end();

  t.begin("pnr", kPnr);
  t.field("target_freq_hz", o.pnr.target_freq_hz, 1e6, 1e11, kPnr | kRollup);
  t.field("logic_depth", o.pnr.logic_depth, 1, 10000);
  t.field("memory_depth", o.pnr.memory_depth, 1, 10000);
  t.field("aib_area_per_lane_um2", o.pnr.aib_area_per_lane_um2, 0.0, 1e6);
  t.field("aib_duty", o.pnr.aib_duty, 0.0, 1.0);
  t.field("tsv_stack_wl_factor", o.pnr.tsv_stack_wl_factor, 0.01, 10.0);
  t.begin("placer", kPnr);
  t.field("packing_util", o.pnr.placer.packing_util, 0.01, 1.0);
  t.field("moves_per_cluster", o.pnr.placer.moves_per_cluster, 0, 1000000);
  t.field("t_start_frac", o.pnr.placer.t_start_frac, 0.0, 10.0);
  t.field("cooling", o.pnr.placer.cooling, 0.01, 1.0);
  t.field("seed", o.pnr.placer.seed, 0, ~0u);
  t.end();
  t.begin("congestion", kPnr);
  t.field("tracks_per_um_per_layer", o.pnr.congestion.tracks_per_um_per_layer, 0.01, 1000.0);
  t.field("signal_layers", o.pnr.congestion.signal_layers, 1, 64);
  t.field("usable_fraction", o.pnr.congestion.usable_fraction, 0.01, 1.0);
  t.field("detour_slope", o.pnr.congestion.detour_slope, 0.0, 100.0);
  t.end();
  t.begin("timing", kPnr);
  t.field("stage_drive_ohm", o.pnr.timing.stage_drive_ohm, 0.0, 1e6);
  t.field("crit_net_scale", o.pnr.timing.crit_net_scale, 0.0, 100.0);
  t.field("fanout", o.pnr.timing.fanout, 0.0, 1000.0);
  t.end();
  t.end();

  t.begin("router", kInterposer);
  t.field("grid_nx", o.router.grid_nx, 1, 1024);
  t.field("grid_ny", o.router.grid_ny, 1, 1024);
  t.field("usable_track_fraction", o.router.usable_track_fraction, 0.01, 1.0);
  t.field("die_capacity_factor", o.router.die_capacity_factor, 0.0, 1.0);
  t.field("congestion_weight", o.router.congestion_weight, 0.0, 1000.0);
  t.field("via_cost_um", o.router.via_cost_um, 0.0, 1e5);
  t.field("wrong_way_penalty", o.router.wrong_way_penalty, 0.0, 1000.0);
  t.field("overflow_penalty", o.router.overflow_penalty, 0.0, 1e6);
  t.field("reroute_passes", o.router.reroute_passes, 0, 100);
  t.field("any_angle", o.router.any_angle, false, true, kInterposer, o.router.any_angle);
  t.end();

  t.begin("thermal_mesh", kThermal);
  t.field("nx", o.thermal_mesh.nx, 1, 512);
  t.field("ny", o.thermal_mesh.ny, 1, 512);
  t.field("logic_power_w", o.thermal_mesh.logic_power_w, 0.0, 1000.0);
  t.field("memory_power_w", o.thermal_mesh.memory_power_w, 0.0, 1000.0);
  t.field("interposer_power_w", o.thermal_mesh.interposer_power_w, 0.0, 1000.0);
  t.field("board_margin_frac", o.thermal_mesh.board_margin_frac, 0.0, 10.0);
  t.field("thermal_via_fraction", o.thermal_mesh.thermal_via_fraction, 0.0, 1.0);
  t.field("board_thickness_um", o.thermal_mesh.board_thickness_um, 1.0, 1e5);
  t.field("board_k", o.thermal_mesh.board_k, 0.01, 1e4);
  t.field("power_seed", o.thermal_mesh.power_seed, 0, ~0u);
  t.end();

  t.field("with_eyes", o.with_eyes, false, true, kEyes);
  t.field("with_thermal", o.with_thermal, false, true, kThermal);
  // 8 warm-up UIs plus at least 8 measured ones.
  t.field("eye_bits", o.eye_bits, 16, 65536, kEyes);
  t.field("rollup_activity_scale", o.rollup_activity_scale, 0.0, 100.0, kRollup);

  chiplet::SystemConfig& s = o.system;
  if (t.begin("system", 0, !s.is_default(), !s.is_legacy())) {
    // Cross-field rules (legacy => chiplets == 2, memory_every <= chiplets,
    // placed/die_sizes arity) live in chiplet::validate_system.
    // Later stages read chiplets too; they see it through the key of their
    // netlist_partition dependency, whose check runs before they start.
    t.field("chiplets", s.chiplets, 1, 256, kPartition);
    t.token("arrangement", chiplet::to_string(s.arrangement),
            [&s](const std::string& a) { return chiplet::parse_arrangement(a, &s.arrangement); },
            kInterposer);
    // The partition artifact bakes die classes in, so requests differing
    // only in memory_every must not share it.
    t.field("memory_every", s.memory_every, 0, 256,
            kPartition | kPnr | kInterposer | kPdn | kThermal | kRollup);
    t.field("die_scale", s.die_scale, 0.01, 100.0, kPnr | kInterposer);
    t.field("power_scale", s.power_scale, 0.01, 100.0, kPdn | kThermal | kRollup);
    t.field("memory_die_scale", s.memory_die_scale, 0.01, 100.0, kPnr | kInterposer);
    t.field("memory_power_scale", s.memory_power_scale, 0.01, 100.0, kPdn | kThermal | kRollup);
    t.field("pitch_scale", s.pitch_scale, 0.01, 100.0, kInterposer);
    t.token("placed", s.placed,
            [&s](const std::string& p) {
              s.placed = p;
              (void)s.placed_positions();
              return true;
            },
            kInterposer);
    t.token("die_sizes", s.die_sizes,
            [&s](const std::string& d) {
              s.die_sizes = d;
              (void)s.parsed_die_sizes();
              return true;
            },
            kInterposer, !s.die_sizes.empty());
    t.end();
  }
}

/// Walk for visitors that never assign (writers, checks).
template <typename V>
void walk_readonly(const tech::TechnologyKind& tk, const FlowOptions& o, V& v) {
  walk(const_cast<tech::TechnologyKind&>(tk), const_cast<FlowOptions&>(o), v);
}

/// Dotted section prefix for path-aware visitors; enters every section.
struct Path {
  std::string prefix;

  bool begin(const char* name, bool = true, bool = true) {
    prefix += name;
    prefix.push_back('.');
    return true;
  }
  void end() { prefix.erase(prefix.rfind('.', prefix.size() - 2) + 1); }
  std::string dotted(const char* name) const { return prefix + name; }
};

/// One row as the DSE and tests see it.
struct RowInfo {
  enum class Kind { Token, Bool, Int, Unsigned, Double };
  std::string path;  ///< dotted ("system.chiplets")
  Kind kind = Kind::Double;
  double min = 0, max = 0;  ///< unused for tokens
  Stages owners = 0;
};

namespace detail {

/// %.10g: to_chars in general format at precision 10.
inline std::string spell(double x) {
  char buf[32];
  return {buf, std::to_chars(buf, buf + sizeof buf, x, std::chars_format::general, 10).ptr};
}

/// Range check of the rows one stage owns (system rows only while in use).
struct Checker : Path {
  Stages stage = 0;

  bool begin(const char* name, bool, bool in_use) { return in_use && Path::begin(name); }
  template <typename T>
  void field(const Field<T>& f) {
    if ((f.owners & stage) == 0 || (f.min <= f.value && f.value <= f.max)) return;
    throw std::invalid_argument(dotted(f.name) + "=" + spell(f.value) + " is out of range [" +
                                spell(f.min) + ", " + spell(f.max) + "]");
  }
  template <typename S>
  void token(const Token<S>&) {}
};

struct Collector : Path {
  std::vector<RowInfo> out;

  template <typename T>
  void field(const Field<T>& f) {
    using K = RowInfo::Kind;
    const K kind = std::is_same_v<T, bool>       ? K::Bool
                   : std::is_same_v<T, int>      ? K::Int
                   : std::is_same_v<T, unsigned> ? K::Unsigned
                                                 : K::Double;
    out.push_back({dotted(f.name), kind, static_cast<double>(f.min),
                   static_cast<double>(f.max), f.owners});
  }
  template <typename S>
  void token(const Token<S>& t) {
    out.push_back({dotted(t.name), RowInfo::Kind::Token, 0, 0, t.owners});
  }
};

/// Assigns the row at `path`: a token from `text`, else a number from
/// `number` (it must fit the field's type; ranges are the stages' check).
struct Setter : Path {
  const std::string& path;
  const std::string* text;
  double number;
  bool found = false;

  [[noreturn]] void fail(const char* what) const {
    throw std::invalid_argument(path + ": " + what);
  }
  template <typename T>
  void field(const Field<T>& f) {
    if (found || dotted(f.name) != path) return;
    found = true;
    if (text != nullptr) fail("is numeric, not a token");
    if (!json::fits<T>(number)) fail("needs an integer its type can hold");
    f.value = static_cast<T>(number);
  }
  template <typename S>
  void token(const Token<S>& t) {
    if (found || dotted(t.name) != path) return;
    found = true;
    if (text == nullptr) fail("is a token, not a number");
    if (!t.set(*text)) throw std::invalid_argument("unknown " + path + " \"" + *text + "\"");
  }
};

inline void set(tech::TechnologyKind& tk, FlowOptions& o, Setter s) {
  walk(tk, o, s);
  if (!s.found) throw std::invalid_argument("unknown knob \"" + s.path + "\"");
}

}  // namespace detail

/// Range check of the rows stage `id` owns; throws std::invalid_argument
/// naming the dotted path. Each stage body runs it first thing.
inline void check(stage::StageId id, const FlowOptions& o) {
  detail::Checker c;
  c.stage = bit(id);
  walk_readonly(tech::TechnologyKind::Glass25D, o, c);
}

/// Every row of the table, in table order (the system block included).
inline const std::vector<RowInfo>& rows() {
  static const std::vector<RowInfo> all = [] {
    detail::Collector c;
    tech::TechnologyKind tk{};
    FlowOptions o;
    walk(tk, o, c);
    return std::move(c.out);
  }();
  return all;
}

/// The row at a dotted path, or nullptr.
inline const RowInfo* find(const std::string& path) {
  for (const RowInfo& row : rows()) {
    if (row.path == path) return &row;
  }
  return nullptr;
}

/// By-path setters. Throw std::invalid_argument for an unknown path, a kind
/// mismatch, a value the field's type cannot hold or an unparsable token.
inline void set(tech::TechnologyKind& tk, FlowOptions& o, const std::string& path,
                double value) {
  detail::set(tk, o, {{}, path, nullptr, value});
}
inline void set(tech::TechnologyKind& tk, FlowOptions& o, const std::string& path,
                const std::string& text) {
  detail::set(tk, o, {{}, path, &text, 0});
}

}  // namespace gia::core::knobs
