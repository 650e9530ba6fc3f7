#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>

#include <vector>

#include "core/flow.hpp"
#include "partition/kway.hpp"

/// \file stagegraph.hpp
/// The co-design flow of Fig 4 as an explicit stage DAG. Each stage
/// declares its upstream artifacts and the subset of `FlowOptions` knobs it
/// reads, and produces one artifact struct; `execute_flow` is a DAG
/// execution over this registry (byte-identical `TechnologyResult` to the
/// former monolithic function).
///
/// Stage keys are content addresses: FNV-1a over a canonical preimage of
/// (stage name, technology when the stage reads it, upstream stage keys,
/// the knobs the stage owns) rendered with `core/canon.hpp` -- the
/// same machinery behind the serving layer's request keys. Changing a knob
/// therefore invalidates exactly the stages that declare it plus their
/// transitive dependents; a downstream-only change (eye_bits, thermal mesh,
/// rollup activity) reuses every upstream artifact.
///
/// A process-wide artifact cache (a `ContentCache`, core/content_cache.hpp,
/// the sharded LRU the serving result cache also uses) backs the executor, so
/// sweeps, ablation benches and `giad` requests that differ only in
/// downstream knobs skip the expensive PnR/interposer stages. Concurrent
/// evaluations of the same stage key coalesce onto one computation (the
/// second caller blocks on the first's result). The cache is bounded
/// (entry count, LRU per shard) and controlled by `GIA_STAGE_CACHE`:
/// unset = enabled with the default capacity, "0"/"off" = disabled, a
/// positive integer = enabled with that capacity.
///
/// The executor hands the registry to `core::run_dag`: each stage starts as
/// soon as its own dependencies finish, not when a whole dependency level
/// does. `chiplet_pnr` runs beside the whole interposer subtree, and `links`,
/// `pdn` and `thermal` start the moment `interposer` is done, as does `eyes`
/// once `links` is. A failing stage's dependents never start (its
/// exception is rethrown after the independent stages finish). Every stage
/// reads only finished upstream artifacts and writes only its own, so the
/// repo-wide determinism contract holds: output is byte-identical at any
/// thread count and with the cache on or off.
///
/// Counters: declared in `StageCacheStats::CounterSet`, one set per stage; a
/// counter's row in its `walk` is its only name (core/counters.hpp).

namespace gia::core::stage {

/// The flow stages, in topological (registry) order.
enum class StageId : int {
  NetlistPartition = 0,  ///< netlist gen + SerDes + partitioning (Fig 4, top)
  ChipletPnr,            ///< chiplet planning + PnR (Tables II/III)
  Interposer,            ///< interposer floorplan + routing (Table IV)
  Links,                 ///< worst-net link specs + delay/power (Table V)
  Eyes,                  ///< optional eye diagrams (Fig 14)
  Pdn,                   ///< PDN model, impedance, IR drop, settling (Fig 15)
  Thermal,               ///< optional thermal solve (Figs 16-18)
  Rollup,                ///< full-chip power/fmax/timing rollup (Sec VII-H)
};
inline constexpr int kStageCount = 8;

inline constexpr int idx(StageId id) { return static_cast<int>(id); }

/// One registry row: identity, instrumentation span name, and the stage's
/// declared inputs (whether it reads the technology kind, and its upstream
/// stages; the knobs it owns are marked in the knob table, core/knobs.hpp).
struct StageInfo {
  StageId id;
  const char* name;       ///< stable snake_case token ("netlist_partition")
  const char* span_name;  ///< instrumentation span ("flow/netlist_partition")
  bool reads_tech;        ///< true when the stage body reads the technology
  int dep_count;
  std::array<StageId, 3> deps;  ///< first `dep_count` entries are upstream stages
};

/// The full registry, in topological order.
const std::array<StageInfo, kStageCount>& registry();
const StageInfo& info(StageId id);
const char* stage_name(StageId id);
/// Parse a stage token; returns false on unknown names.
bool parse_stage(const std::string& name, StageId* out);

/// Canonical rendering of the knobs a stage owns in the knob table
/// (core/knobs.hpp), in table order: the `FlowOptions`-derived lines of its
/// key preimage. Lines match the request canonicalization ("openpiton.seed=7").
std::string stage_knob_text(StageId id, const FlowOptions& opts);

/// Content addresses for every stage of one (technology, options) request.
struct StageKeys {
  std::array<std::uint64_t, kStageCount> key{};
  std::uint64_t of(StageId id) const { return key[idx(id)]; }
};
StageKeys compute_stage_keys(tech::TechnologyKind kind, const FlowOptions& opts);

// --- Stage artifacts. Plain value structs: copyable, and every field a
// downstream stage or the final TechnologyResult consumes is captured.

struct NetlistPartitionArtifact {
  netlist::Netlist net;  ///< post-SerDes netlist (consumed by chiplet PnR)
  netlist::SerDesReport serdes;
  partition::PartitionResult partition;
  netlist::ChipletNetlist logic_nl, mem_nl;
  // Generalized N-chiplet mode (system.arrangement != legacy) only; empty
  // in legacy runs. `partition` then summarizes the K-way cut (side = die
  // class per instance).
  partition::KwayResult kway;
  std::vector<netlist::ChipletNetlist> parts;  ///< per-chiplet views
  std::vector<partition::PairCut> pairs;       ///< inter-chiplet wire demand
};

struct ChipletPnrArtifact {
  chiplet::ChipletPair plans;               // Table II
  chiplet::ChipletPnrResult logic, memory;  // Table III
  /// Generalized mode: per-chiplet PnR results (`logic`/`memory` then hold
  /// the first logic-/memory-class representatives). Empty in legacy runs.
  std::vector<chiplet::ChipletPnrResult> sys_pnr;
};

struct InterposerArtifact {
  interposer::InterposerDesign design;  // Table IV (layout half)
};

struct LinksArtifact {
  LinkStudy l2m, l2l;  ///< spec + delay/power result; eye fields empty here
};

struct EyesArtifact {
  std::optional<signal::EyeResult> l2m, l2l;  ///< empty when !with_eyes
};

struct PdnArtifact {
  pdn::PdnModel model;
  pdn::ImpedanceProfile impedance;
  pdn::IrDropResult ir_drop;  ///< default when the technology has no interposer
  pdn::SettlingResult settling;
};

struct ThermalArtifact {
  std::optional<thermal::ThermalReport> report;  ///< empty when !with_thermal
};

struct RollupArtifact {
  double total_power_w = 0;
  double system_fmax_hz = 0;
  bool link_timing_met = false;
};

/// What happened to each stage during one `execute_flow` call.
struct StageRunRecord {
  enum class Outcome : unsigned char {
    Computed = 0,  ///< cache miss (or cache disabled): stage body ran
    CacheHit,      ///< artifact served from the stage cache
    Coalesced      ///< attached to a concurrent computation of the same key
  };
  std::array<Outcome, kStageCount> outcome{};

  /// Stages served without running their body (CacheHit + Coalesced).
  std::uint64_t hits() const;
  /// Stages whose body ran (Computed).
  std::uint64_t misses() const;
};

/// Run the full flow for one technology (span `flow/full_flow`, trace
/// counter `FlowRuns`), byte-identical at any thread count and cache state.
/// Fills `record` (when non-null) with the per-stage cache outcomes.
/// Throws std::invalid_argument for Monolithic2D (use
/// `run_monolithic_reference`).
TechnologyResult execute_flow(tech::TechnologyKind kind, const FlowOptions& opts = {},
                              StageRunRecord* record = nullptr);

// --- Process-wide stage-artifact cache controls and statistics.

struct StageCacheStats {
  template <typename C>
  struct CounterSet {
    C hits{};
    C misses{};
    C evictions{};
    C coalesced{};

    static void walk(auto&& v, auto&... s) {
      v("hits", s.hits...);
      v("misses", s.misses...);
      v("evictions", s.evictions...);
      v("coalesced", s.coalesced...);
    }
  };
  using PerStage = CounterSet<std::uint64_t>;
  std::array<PerStage, kStageCount> stage{};
  std::size_t entries = 0;   ///< current artifacts held across shards
  std::size_t capacity = 0;  ///< configured entry bound
  bool enabled = false;

  /// Every counter summed over the stages.
  PerStage total() const;
  std::uint64_t total_hits() const { return total().hits; }
  std::uint64_t total_misses() const { return total().misses; }
  std::uint64_t total_evictions() const { return total().evictions; }
  std::uint64_t total_coalesced() const { return total().coalesced; }
};

StageCacheStats stage_cache_stats();
/// Passive residency probe: true when the artifact for `key` is currently
/// stored or being computed. Never touches LRU recency or hit/miss
/// counters -- used by the dse:: cache-aware batch ordering, which must
/// observe the cache without perturbing it. Always false when disabled.
bool stage_cache_resident(std::uint64_t key);
/// Canonical single-line JSON of `s` (embedded in the daemon `stats` verb
/// and bench JSON lines).
std::string stage_cache_stats_json(const StageCacheStats& s = stage_cache_stats());

/// Drop every cached artifact and zero the counters.
void stage_cache_clear();

bool stage_cache_enabled();
/// Override the GIA_STAGE_CACHE environment decision (tests, benches).
void set_stage_cache_enabled(bool on);
std::size_t stage_cache_capacity();
/// Rebound the cache (entries, split across shards). A smaller bound evicts
/// at once, counted as per-stage evictions.
void set_stage_cache_capacity(std::size_t entries);

}  // namespace gia::core::stage
