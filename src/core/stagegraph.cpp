#include "core/stagegraph.hpp"

#include <atomic>
#include <cstdlib>
#include <functional>
#include <stdexcept>
#include <vector>

#include <algorithm>
#include <cmath>
#include <limits>

#include "core/canon.hpp"
#include "core/content_cache.hpp"
#include "core/instrument.hpp"
#include "core/json.hpp"
#include "core/links.hpp"
#include "core/parallel.hpp"
#include "partition/hierarchical.hpp"
#include "partition/metrics.hpp"
#include "tech/library.hpp"

namespace gia::core::stage {

using netlist::ChipletSide;

namespace {

/// Registry order is topological: every dependency precedes its dependents.
constexpr std::array<StageInfo, kStageCount> kRegistry = {{
    {StageId::NetlistPartition, "netlist_partition", "flow/netlist_partition", false, 0, {}},
    {StageId::ChipletPnr, "chiplet_pnr", "flow/chiplet_pnr", true, 1,
     {StageId::NetlistPartition}},
    {StageId::Interposer, "interposer", "flow/interposer", true, 1,
     {StageId::NetlistPartition}},
    {StageId::Links, "links", "flow/links", false, 1, {StageId::Interposer}},
    {StageId::Eyes, "eyes", "flow/eyes", false, 1, {StageId::Links}},
    {StageId::Pdn, "pdn", "flow/pdn", true, 1, {StageId::Interposer}},
    {StageId::Thermal, "thermal", "flow/thermal", false, 1, {StageId::Interposer}},
    {StageId::Rollup, "rollup", "flow/rollup", false, 3,
     {StageId::NetlistPartition, StageId::ChipletPnr, StageId::Links}},
}};

/// Mesh/grid growth factor for a K-chiplet system against the legacy 4-die
/// baseline: resolutions scale with the lattice side so cell size stays
/// roughly constant over the bounding floorplan.
int system_mesh_factor(int chiplets) {
  return std::max(1, static_cast<int>(std::ceil(std::sqrt(chiplets / 4.0))));
}

/// The `system.*` knobs a stage reads in generalized N-chiplet mode. Legacy
/// mode writes nothing: legacy stage bodies ignore the system block
/// wholesale, so stage keys (and cached artifacts) stay byte-identical to
/// the pre-system schema. Knobs a stage only consumes through an upstream
/// artifact (e.g. `chiplets` downstream of netlist_partition) are covered by
/// the dep keys and not re-declared.
void write_system_knobs(StageId id, const FlowOptions& o, canon::Writer& w) {
  const chiplet::SystemConfig& s = o.system;
  if (s.is_legacy()) return;
  std::string arrangement = chiplet::to_string(s.arrangement);
  w.begin("system");
  switch (id) {
    case StageId::NetlistPartition:
      w.field("chiplets", s.chiplets);
      // The partition artifact bakes die classes in (extract_part side,
      // partition.side, memory_fraction), so the class pattern is part of
      // the key: requests differing only in memory_every must not alias.
      w.field("memory_every", s.memory_every);
      break;
    case StageId::ChipletPnr:
      w.field("memory_every", s.memory_every);
      w.field("die_scale", s.die_scale);
      w.field("memory_die_scale", s.memory_die_scale);
      break;
    case StageId::Interposer:
      w.line("arrangement", arrangement);
      w.field("memory_every", s.memory_every);
      w.field("die_scale", s.die_scale);
      w.field("memory_die_scale", s.memory_die_scale);
      w.field("pitch_scale", s.pitch_scale);
      w.line("placed", s.placed);
      // Post-schema knob: written only when set so existing grid/hex/placed
      // interposer stage keys (and cached artifacts) stay valid.
      w.token_opt("die_sizes", s.die_sizes, !s.die_sizes.empty(), nullptr);
      break;
    case StageId::Links:
    case StageId::Eyes:
      break;  // fully determined by upstream artifacts
    case StageId::Pdn:
    case StageId::Thermal:
    case StageId::Rollup:
      w.field("memory_every", s.memory_every);
      w.field("power_scale", s.power_scale);
      w.field("memory_power_scale", s.memory_power_scale);
      break;
  }
  w.end();
}

void write_knobs(StageId id, const FlowOptions& o, canon::Writer& w) {
  switch (id) {
    case StageId::NetlistPartition: {
      w.line("partition_mode",
             o.partition_mode == PartitionMode::Hierarchical ? "hierarchical" : "flattened");
      w.begin("openpiton");
      w.field("tiles", o.openpiton.tiles);
      w.field("cluster_cells", o.openpiton.cluster_cells);
      w.field("seed", o.openpiton.seed);
      w.field("intra_nets_per_cluster", o.openpiton.intra_nets_per_cluster);
      w.end();
      w.begin("serdes");
      w.field("ratio", o.serdes.ratio);
      w.field("min_bits", o.serdes.min_bits);
      w.field("cells_per_lane", o.serdes.cells_per_lane);
      w.field("latency_cycles", o.serdes.latency_cycles);
      w.end();
      w.begin("fm");
      w.field("balance_tolerance", o.fm.balance_tolerance);
      w.field("target_memory_fraction", o.fm.target_memory_fraction);
      w.field("max_passes", o.fm.max_passes);
      w.field("seed", o.fm.seed);
      w.end();
      break;
    }
    case StageId::ChipletPnr: {
      w.begin("pnr");
      w.field("target_freq_hz", o.pnr.target_freq_hz);
      w.field("logic_depth", o.pnr.logic_depth);
      w.field("memory_depth", o.pnr.memory_depth);
      w.field("aib_area_per_lane_um2", o.pnr.aib_area_per_lane_um2);
      w.field("aib_duty", o.pnr.aib_duty);
      w.field("tsv_stack_wl_factor", o.pnr.tsv_stack_wl_factor);
      w.begin("placer");
      w.field("packing_util", o.pnr.placer.packing_util);
      w.field("moves_per_cluster", o.pnr.placer.moves_per_cluster);
      w.field("t_start_frac", o.pnr.placer.t_start_frac);
      w.field("cooling", o.pnr.placer.cooling);
      w.field("seed", o.pnr.placer.seed);
      w.end();
      w.begin("congestion");
      w.field("tracks_per_um_per_layer", o.pnr.congestion.tracks_per_um_per_layer);
      w.field("signal_layers", o.pnr.congestion.signal_layers);
      w.field("usable_fraction", o.pnr.congestion.usable_fraction);
      w.field("detour_slope", o.pnr.congestion.detour_slope);
      w.end();
      w.begin("timing");
      w.field("stage_drive_ohm", o.pnr.timing.stage_drive_ohm);
      w.field("crit_net_scale", o.pnr.timing.crit_net_scale);
      w.field("fanout", o.pnr.timing.fanout);
      w.end();
      w.end();
      break;
    }
    case StageId::Interposer: {
      w.begin("router");
      w.field("grid_nx", o.router.grid_nx);
      w.field("grid_ny", o.router.grid_ny);
      w.field("usable_track_fraction", o.router.usable_track_fraction);
      w.field("die_capacity_factor", o.router.die_capacity_factor);
      w.field("congestion_weight", o.router.congestion_weight);
      w.field("via_cost_um", o.router.via_cost_um);
      w.field("wrong_way_penalty", o.router.wrong_way_penalty);
      w.field("overflow_penalty", o.router.overflow_penalty);
      w.field("reroute_passes", o.router.reroute_passes);
      // Post-schema knob: written only when set (see system.die_sizes).
      w.field_opt("any_angle", o.router.any_angle, o.router.any_angle);
      w.end();
      break;
    }
    case StageId::Links:
      break;  // fully determined by the interposer artifact
    case StageId::Eyes: {
      w.field("with_eyes", o.with_eyes);
      w.field("eye_bits", o.eye_bits);
      break;
    }
    case StageId::Pdn:
      break;  // fully determined by technology + interposer artifact
    case StageId::Thermal: {
      w.field("with_thermal", o.with_thermal);
      w.begin("thermal_mesh");
      w.field("nx", o.thermal_mesh.nx);
      w.field("ny", o.thermal_mesh.ny);
      w.field("logic_power_w", o.thermal_mesh.logic_power_w);
      w.field("memory_power_w", o.thermal_mesh.memory_power_w);
      w.field("interposer_power_w", o.thermal_mesh.interposer_power_w);
      w.field("board_margin_frac", o.thermal_mesh.board_margin_frac);
      w.field("thermal_via_fraction", o.thermal_mesh.thermal_via_fraction);
      w.field("board_thickness_um", o.thermal_mesh.board_thickness_um);
      w.field("board_k", o.thermal_mesh.board_k);
      w.field("power_seed", o.thermal_mesh.power_seed);
      w.end();
      break;
    }
    case StageId::Rollup: {
      w.field("rollup_activity_scale", o.rollup_activity_scale);
      w.begin("pnr");
      w.field("target_freq_hz", o.pnr.target_freq_hz);
      w.end();
      break;
    }
  }
  write_system_knobs(id, o, w);
}

// --- Process-wide stage-artifact cache: a ContentCache of type-erased
// artifact pointers tagged by stage, so evictions count per stage.
// Counters are always live (the serving layer reports them with tracing
// off); the instrument-layer counters are additionally fed when tracing is
// on.

using ArtifactPtr = std::shared_ptr<const void>;

class StageCache {
 public:
  static constexpr std::size_t kDefaultCapacity = 128;

  StageCache()
      : store_(kDefaultCapacity, 8, [this](int tag) {
          evictions_[static_cast<std::size_t>(tag)].fetch_add(1, std::memory_order_relaxed);
        }) {
    const char* env = std::getenv("GIA_STAGE_CACHE");
    if (env != nullptr && env[0] != '\0') {
      const std::string v = env;
      if (v == "0" || v == "off" || v == "no" || v == "false") {
        enabled_.store(false, std::memory_order_relaxed);
      } else {
        char* end = nullptr;
        const unsigned long long n = std::strtoull(env, &end, 10);
        if (end != nullptr && *end == '\0' && n > 0) {
          store_.set_capacity(static_cast<std::size_t>(n));
        }
      }
    }
  }

  ArtifactPtr get_or_compute(StageId id, std::uint64_t key, StageRunRecord::Outcome* outcome,
                             const std::function<ArtifactPtr()>& compute) {
    if (!enabled()) {
      *outcome = StageRunRecord::Outcome::Computed;
      return compute();
    }
    using Store = ContentCache<void>;
    // A miss counts as its computation starts, so a throwing stage counts too.
    Store::Outcome oc;
    ArtifactPtr art = store_.get_or_compute(
        key, idx(id),
        [&] {
          count(misses_, id);
          instrument::counter_add(instrument::Counter::StageCacheMisses);
          return compute();
        },
        &oc);
    switch (oc) {
      case Store::Outcome::Hit:
        count(hits_, id);
        instrument::counter_add(instrument::Counter::StageCacheHits);
        *outcome = StageRunRecord::Outcome::CacheHit;
        break;
      case Store::Outcome::Coalesced:
        count(coalesced_, id);
        instrument::counter_add(instrument::Counter::StageCacheHits);
        *outcome = StageRunRecord::Outcome::Coalesced;
        break;
      case Store::Outcome::Computed:
        *outcome = StageRunRecord::Outcome::Computed;
        break;
    }
    return art;
  }

  StageCacheStats stats() const {
    StageCacheStats s;
    s.enabled = enabled();
    s.capacity = store_.capacity();
    for (std::size_t i = 0; i < static_cast<std::size_t>(kStageCount); ++i) {
      s.stage[i].hits = hits_[i].load();
      s.stage[i].misses = misses_[i].load();
      s.stage[i].evictions = evictions_[i].load();
      s.stage[i].coalesced = coalesced_[i].load();
    }
    s.entries = store_.size();
    return s;
  }

  void clear() {
    store_.clear();
    for (auto& c : hits_) c.store(0);
    for (auto& c : misses_) c.store(0);
    for (auto& c : evictions_) c.store(0);
    for (auto& c : coalesced_) c.store(0);
  }

  /// Passive residency probe (see stage_cache_resident).
  bool resident(std::uint64_t key) const { return enabled() && store_.resident(key); }

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  std::size_t capacity() const { return store_.capacity(); }
  void set_capacity(std::size_t n) { store_.set_capacity(n); }

 private:
  using CounterArray = std::array<std::atomic<std::uint64_t>, kStageCount>;
  static void count(CounterArray& arr, StageId id) {
    arr[static_cast<std::size_t>(idx(id))].fetch_add(1, std::memory_order_relaxed);
  }

  CounterArray hits_{}, misses_{}, evictions_{}, coalesced_{};
  ContentCache<void> store_;
  std::atomic<bool> enabled_{true};
};

StageCache& cache() {
  static StageCache c;
  return c;
}

// --- Stage bodies. Each is the exact computation the former monolithic
// run_full_flow performed, reading only its declared inputs.

struct Ctx {
  tech::TechnologyKind kind;
  const FlowOptions& opts;
  StageKeys keys;
  std::array<ArtifactPtr, kStageCount> art{};
};

template <typename T>
const T& dep(const Ctx& c, StageId id) {
  return *static_cast<const T*>(c.art[static_cast<std::size_t>(idx(id))].get());
}

/// One link study (spec + simulation) for either top-net kind -- the l2m
/// and l2l halves of Table V share this path; eye diagrams are the
/// separate `eyes` stage.
LinkStudy link_study(const interposer::InterposerDesign& design, interposer::TopNetKind kind) {
  LinkStudy s;
  s.spec = make_link_spec(design, kind);
  s.result = signal::simulate_link(s.spec);
  return s;
}

ArtifactPtr run_stage(const Ctx& c, StageId id) {
  instrument::counter_add(instrument::Counter::StageRuns);
  const FlowOptions& o = c.opts;
  switch (id) {
    case StageId::NetlistPartition: {
      auto a = std::make_shared<NetlistPartitionArtifact>();
      if (!o.system.is_legacy()) {
        // Generalized K-way mode: one netlist tile per chiplet, K-way
        // min-cut assignment, per-chiplet views and pairwise wire demand.
        const int k = o.system.chiplets;
        netlist::OpenPitonConfig op = o.openpiton;
        op.tiles = k;
        a->net = netlist::build_openpiton(op);
        a->serdes = netlist::apply_serdes(a->net, o.serdes);
        partition::KwayConfig kc;
        kc.parts = k;
        kc.balance_tolerance = o.fm.balance_tolerance;
        kc.max_passes = o.fm.max_passes;
        kc.seed = o.fm.seed;
        a->kway = partition::kway_partition(a->net, kc);
        a->pairs = partition::pair_cuts(a->net, a->kway.part, k);
        a->parts.reserve(static_cast<std::size_t>(k));
        for (int i = 0; i < k; ++i) {
          const ChipletSide cls =
              o.system.memory_class(i) ? ChipletSide::Memory : ChipletSide::Logic;
          a->parts.push_back(netlist::extract_part(a->net, a->kway.part, i, cls));
        }
        // Legacy-shaped summary so TechnologyResult consumers keep working:
        // every instance carries its chiplet's die class.
        a->partition.side.resize(a->kway.part.size());
        for (std::size_t j = 0; j < a->kway.part.size(); ++j) {
          a->partition.side[j] = o.system.memory_class(a->kway.part[j])
                                     ? ChipletSide::Memory
                                     : ChipletSide::Logic;
        }
        a->partition.cut_wires = static_cast<int>(a->kway.cut_wires);
        a->partition.memory_fraction =
            partition::memory_cell_fraction(a->net, a->partition.side);
        return a;
      }
      a->net = netlist::build_openpiton(o.openpiton);
      a->serdes = netlist::apply_serdes(a->net, o.serdes);
      a->partition = o.partition_mode == PartitionMode::Hierarchical
                         ? partition::hierarchical_partition(a->net)
                         : partition::fm_partition(a->net, o.fm);
      a->logic_nl = netlist::extract_chiplet(a->net, a->partition.side, ChipletSide::Logic, 0);
      a->mem_nl = netlist::extract_chiplet(a->net, a->partition.side, ChipletSide::Memory, 0);
      return a;
    }
    case StageId::ChipletPnr: {
      const auto& np = dep<NetlistPartitionArtifact>(c, StageId::NetlistPartition);
      const tech::Technology technology = tech::make_technology(c.kind);
      auto a = std::make_shared<ChipletPnrArtifact>();
      if (!o.system.is_legacy()) {
        const int k = o.system.chiplets;
        std::vector<chiplet::BumpPlan> plans(static_cast<std::size_t>(k));
        for (int i = 0; i < k; ++i) {
          const auto& part = np.parts[static_cast<std::size_t>(i)];
          plans[static_cast<std::size_t>(i)] = chiplet::plan_bumps(
              std::max(1, part.io_signals), part.cell_area_um2 * o.system.die_scale_of(i),
              o.system.memory_class(i), technology);
        }
        a->sys_pnr.resize(static_cast<std::size_t>(k));
        parallel_for(static_cast<std::size_t>(k), [&](std::size_t i) {
          a->sys_pnr[i] = chiplet::run_chiplet_pnr(np.net, np.parts[i], technology, plans[i],
                                                   o.pnr);
        });
        // Table II/III representatives: first logic-class and first
        // memory-class chiplet (last chiplet in single-class systems).
        a->plans.logic = plans.front();
        a->plans.memory = plans.back();
        a->logic = a->sys_pnr.front();
        a->memory = a->sys_pnr.back();
        for (int i = 0; i < k; ++i) {
          if (o.system.memory_class(i)) {
            a->plans.memory = plans[static_cast<std::size_t>(i)];
            a->memory = a->sys_pnr[static_cast<std::size_t>(i)];
            break;
          }
        }
        return a;
      }
      a->plans = chiplet::plan_chiplet_pair(np.logic_nl.io_signals, np.mem_nl.io_signals,
                                            np.logic_nl.cell_area_um2, np.mem_nl.cell_area_um2,
                                            technology);
      a->logic = chiplet::run_chiplet_pnr(np.net, np.logic_nl, technology, a->plans.logic, o.pnr);
      a->memory = chiplet::run_chiplet_pnr(np.net, np.mem_nl, technology, a->plans.memory, o.pnr);
      return a;
    }
    case StageId::Interposer: {
      const auto& np = dep<NetlistPartitionArtifact>(c, StageId::NetlistPartition);
      if (!o.system.is_legacy()) {
        const int k = o.system.chiplets;
        interposer::SystemInputs si;
        si.signal_ios.reserve(static_cast<std::size_t>(k));
        si.cell_area_um2.reserve(static_cast<std::size_t>(k));
        for (int i = 0; i < k; ++i) {
          const auto& part = np.parts[static_cast<std::size_t>(i)];
          si.signal_ios.push_back(part.io_signals);
          si.cell_area_um2.push_back(part.cell_area_um2);
        }
        si.pairs.reserve(np.pairs.size());
        for (const auto& pc : np.pairs) si.pairs.push_back({pc.a, pc.b, pc.wires});
        auto a = std::make_shared<InterposerArtifact>();
        a->design = interposer::build_system_design(c.kind, o.system, si, o.router);
        return a;
      }
      interposer::ChipletInputs inputs;
      inputs.logic_signal_ios = np.logic_nl.io_signals;
      inputs.memory_signal_ios = np.mem_nl.io_signals;
      inputs.logic_cell_area_um2 = np.logic_nl.cell_area_um2;
      inputs.memory_cell_area_um2 = np.mem_nl.cell_area_um2;
      auto a = std::make_shared<InterposerArtifact>();
      a->design = interposer::build_interposer_design(c.kind, inputs, o.router);
      return a;
    }
    case StageId::Links: {
      const auto& ip = dep<InterposerArtifact>(c, StageId::Interposer);
      auto a = std::make_shared<LinksArtifact>();
      a->l2m = link_study(ip.design, interposer::TopNetKind::LogicToMemory);
      a->l2l = link_study(ip.design, interposer::TopNetKind::LogicToLogic);
      return a;
    }
    case StageId::Eyes: {
      auto a = std::make_shared<EyesArtifact>();
      if (o.with_eyes) {
        const auto& ln = dep<LinksArtifact>(c, StageId::Links);
        a->l2m = signal::simulate_eye(ln.l2m.spec, o.eye_bits);
        a->l2l = signal::simulate_eye(ln.l2l.spec, o.eye_bits);
      }
      return a;
    }
    case StageId::Pdn: {
      const auto& ip = dep<InterposerArtifact>(c, StageId::Interposer);
      auto a = std::make_shared<PdnArtifact>();
      a->model = pdn::build_pdn_model(ip.design);
      a->impedance = pdn::impedance_profile(a->model);
      if (ip.design.technology.has_interposer()) {
        if (!o.system.is_legacy()) {
          // Load current scales with the system's power classes (legacy
          // baseline: 4 unit-power dies); the mesh tracks the bounding
          // floorplan so cell size stays roughly constant.
          pdn::IrDropOptions io;
          double power_units = 0;
          for (int i = 0; i < o.system.chiplets; ++i) power_units += o.system.power_scale_of(i);
          io.total_current_a *= power_units / 4.0;
          io.grid_n = std::min(96, io.grid_n * system_mesh_factor(o.system.chiplets));
          a->ir_drop = pdn::solve_ir_drop(ip.design, io);
        } else {
          a->ir_drop = pdn::solve_ir_drop(ip.design);
        }
      }
      a->settling = pdn::simulate_settling(a->model);
      return a;
    }
    case StageId::Thermal: {
      auto a = std::make_shared<ThermalArtifact>();
      if (o.with_thermal) {
        const auto& ip = dep<InterposerArtifact>(c, StageId::Interposer);
        if (!o.system.is_legacy()) {
          thermal::MeshOptions mo = o.thermal_mesh;
          mo.logic_power_w *= o.system.power_scale;
          mo.memory_power_w *= o.system.power_scale * o.system.memory_power_scale;
          const int f = system_mesh_factor(o.system.chiplets);
          mo.nx = std::min(192, mo.nx * f);
          mo.ny = std::min(192, mo.ny * f);
          a->report = thermal::run_thermal(ip.design, mo);
        } else {
          a->report = thermal::run_thermal(ip.design, o.thermal_mesh);
        }
      }
      return a;
    }
    case StageId::Rollup: {
      const auto& np = dep<NetlistPartitionArtifact>(c, StageId::NetlistPartition);
      const auto& pn = dep<ChipletPnrArtifact>(c, StageId::ChipletPnr);
      const auto& ln = dep<LinksArtifact>(c, StageId::Links);
      auto a = std::make_shared<RollupArtifact>();
      if (!o.system.is_legacy()) {
        double chip_power_w = 0;
        double fmax = std::numeric_limits<double>::infinity();
        for (int i = 0; i < o.system.chiplets; ++i) {
          const auto& pr = pn.sys_pnr[static_cast<std::size_t>(i)];
          chip_power_w += pr.power.total_w * o.system.power_scale_of(i);
          fmax = std::min(fmax, pr.fmax_hz);
        }
        // Lane wires by class: a pair with exactly one memory-class endpoint
        // carries L2M lanes, all others L2L.
        long l2m_wires = 0, l2l_wires = 0;
        for (const auto& pc : np.pairs) {
          const bool mixed = o.system.memory_class(pc.a) != o.system.memory_class(pc.b);
          (mixed ? l2m_wires : l2l_wires) += pc.wires;
        }
        const double lane_l2m = ln.l2m.result.driver_power_w +
                                o.rollup_activity_scale * ln.l2m.result.interconnect_power_w;
        const double lane_l2l = ln.l2l.result.driver_power_w +
                                o.rollup_activity_scale * ln.l2l.result.interconnect_power_w;
        a->total_power_w = chip_power_w + static_cast<double>(l2m_wires) * lane_l2m +
                           static_cast<double>(l2l_wires) * lane_l2l;
        a->system_fmax_hz = fmax;
        const double period = 1.0 / o.pnr.target_freq_hz;
        a->link_timing_met = ln.l2m.result.total_delay_s < period &&
                             ln.l2l.result.total_delay_s < period;
        return a;
      }
      const int l2m_lanes = 2 * np.mem_nl.io_signals;
      const int l2l_lanes = np.serdes.wires_after;
      const double lane_power_l2m = ln.l2m.result.driver_power_w +
                                    o.rollup_activity_scale * ln.l2m.result.interconnect_power_w;
      const double lane_power_l2l = ln.l2l.result.driver_power_w +
                                    o.rollup_activity_scale * ln.l2l.result.interconnect_power_w;
      a->total_power_w = 2.0 * (pn.logic.power.total_w + pn.memory.power.total_w) +
                         l2m_lanes * lane_power_l2m + l2l_lanes * lane_power_l2l;
      a->system_fmax_hz = std::min(pn.logic.fmax_hz, pn.memory.fmax_hz);
      const double period = 1.0 / o.pnr.target_freq_hz;
      a->link_timing_met = ln.l2m.result.total_delay_s < period &&
                           ln.l2l.result.total_delay_s < period;
      return a;
    }
  }
  throw std::logic_error("unknown stage");
}

/// The registry's dependency lists as `run_dag` node indices.
const std::vector<std::vector<std::size_t>>& stage_deps() {
  static const std::vector<std::vector<std::size_t>> deps = [] {
    std::vector<std::vector<std::size_t>> d(kStageCount);
    for (const StageInfo& si : kRegistry) {
      for (int i = 0; i < si.dep_count; ++i) {
        d[static_cast<std::size_t>(idx(si.id))].push_back(
            static_cast<std::size_t>(idx(si.deps[static_cast<std::size_t>(i)])));
      }
    }
    return d;
  }();
  return deps;
}

}  // namespace

const std::array<StageInfo, kStageCount>& registry() { return kRegistry; }

const StageInfo& info(StageId id) { return kRegistry[static_cast<std::size_t>(idx(id))]; }

const char* stage_name(StageId id) { return info(id).name; }

bool parse_stage(const std::string& name, StageId* out) {
  for (const StageInfo& si : kRegistry) {
    if (name == si.name) {
      *out = si.id;
      return true;
    }
  }
  return false;
}

std::string stage_knob_text(StageId id, const FlowOptions& opts) {
  canon::Writer w;
  write_knobs(id, opts, w);
  return w.out;
}

StageKeys compute_stage_keys(tech::TechnologyKind kind, const FlowOptions& opts) {
  StageKeys ks;
  for (const StageInfo& si : kRegistry) {  // topological: dep keys are ready
    canon::Writer w;
    w.line("stage", si.name);
    if (si.reads_tech) w.line("tech", tech::short_name(kind));
    w.begin("dep");
    for (int i = 0; i < si.dep_count; ++i) {
      const StageId d = si.deps[static_cast<std::size_t>(i)];
      w.line(stage_name(d), canon::key_hex(ks.of(d)));
    }
    w.end();
    write_knobs(si.id, opts, w);
    ks.key[static_cast<std::size_t>(idx(si.id))] = canon::fnv1a64(w.out);
  }
  return ks;
}

std::uint64_t StageRunRecord::hits() const {
  std::uint64_t n = 0;
  for (const Outcome oc : outcome) n += oc != Outcome::Computed ? 1 : 0;
  return n;
}

std::uint64_t StageRunRecord::misses() const {
  return static_cast<std::uint64_t>(kStageCount) - hits();
}

TechnologyResult execute_flow(tech::TechnologyKind kind, const FlowOptions& opts,
                              StageRunRecord* record) {
  if (kind == tech::TechnologyKind::Monolithic2D) {
    throw std::invalid_argument("use run_monolithic_reference for the 2D reference");
  }
  chiplet::validate_system(opts.system);
  if (!opts.system.is_legacy()) {
    const tech::Technology t = tech::make_technology(kind);
    if (t.integration != tech::IntegrationStyle::SideBySide &&
        t.integration != tech::IntegrationStyle::EmbeddedDie) {
      throw std::invalid_argument(
          "N-chiplet arrangements need an interposer technology (2.5D or embedded-die): " +
          std::string(tech::short_name(kind)));
    }
  }
  Ctx c{kind, opts, compute_stage_keys(kind, opts), {}};
  // Each stage starts as soon as its own inputs exist; a stage writes only
  // its own artifact slot and reads only finished dependencies' slots.
  run_dag(kStageCount, stage_deps(), [&](std::size_t i) {
    const StageId id = kRegistry[i].id;
    instrument::ScopedSpan span(info(id).span_name);
    StageRunRecord::Outcome oc;
    c.art[i] = cache().get_or_compute(id, c.keys.of(id), &oc, [&] { return run_stage(c, id); });
    if (record != nullptr) record->outcome[i] = oc;
  });

  TechnologyResult r;
  r.technology = tech::make_technology(kind);
  const auto& np = dep<NetlistPartitionArtifact>(c, StageId::NetlistPartition);
  r.serdes = np.serdes;
  r.partition = np.partition;
  const auto& pn = dep<ChipletPnrArtifact>(c, StageId::ChipletPnr);
  r.plans = pn.plans;
  r.logic = pn.logic;
  r.memory = pn.memory;
  r.interposer = dep<InterposerArtifact>(c, StageId::Interposer).design;
  const auto& ln = dep<LinksArtifact>(c, StageId::Links);
  r.l2m = ln.l2m;
  r.l2l = ln.l2l;
  const auto& ey = dep<EyesArtifact>(c, StageId::Eyes);
  r.l2m.eye = ey.l2m;
  r.l2l.eye = ey.l2l;
  const auto& pd = dep<PdnArtifact>(c, StageId::Pdn);
  r.pdn_model = pd.model;
  r.pdn_impedance = pd.impedance;
  r.ir_drop = pd.ir_drop;
  r.settling = pd.settling;
  r.thermal = dep<ThermalArtifact>(c, StageId::Thermal).report;
  const auto& ru = dep<RollupArtifact>(c, StageId::Rollup);
  r.total_power_w = ru.total_power_w;
  r.system_fmax_hz = ru.system_fmax_hz;
  r.link_timing_met = ru.link_timing_met;
  return r;
}

std::uint64_t StageCacheStats::total_hits() const {
  std::uint64_t n = 0;
  for (const PerStage& s : stage) n += s.hits;
  return n;
}
std::uint64_t StageCacheStats::total_misses() const {
  std::uint64_t n = 0;
  for (const PerStage& s : stage) n += s.misses;
  return n;
}
std::uint64_t StageCacheStats::total_evictions() const {
  std::uint64_t n = 0;
  for (const PerStage& s : stage) n += s.evictions;
  return n;
}
std::uint64_t StageCacheStats::total_coalesced() const {
  std::uint64_t n = 0;
  for (const PerStage& s : stage) n += s.coalesced;
  return n;
}

StageCacheStats stage_cache_stats() { return cache().stats(); }

std::string stage_cache_stats_json() {
  const StageCacheStats s = stage_cache_stats();
  std::string out = "{\"enabled\":";
  json::append_bool(s.enabled, out);
  out += ",\"entries\":";
  json::append_u64(s.entries, out);
  out += ",\"capacity\":";
  json::append_u64(s.capacity, out);
  out += ",\"hits\":";
  json::append_u64(s.total_hits(), out);
  out += ",\"misses\":";
  json::append_u64(s.total_misses(), out);
  out += ",\"evictions\":";
  json::append_u64(s.total_evictions(), out);
  out += ",\"coalesced\":";
  json::append_u64(s.total_coalesced(), out);
  out += ",\"stages\":{";
  bool first = true;
  for (const StageInfo& si : kRegistry) {
    const auto& ps = s.stage[static_cast<std::size_t>(idx(si.id))];
    if (!first) out.push_back(',');
    first = false;
    out.push_back('"');
    out += si.name;
    out += "\":{\"hits\":";
    json::append_u64(ps.hits, out);
    out += ",\"misses\":";
    json::append_u64(ps.misses, out);
    out += ",\"evictions\":";
    json::append_u64(ps.evictions, out);
    out += ",\"coalesced\":";
    json::append_u64(ps.coalesced, out);
    out.push_back('}');
  }
  out += "}}";
  return out;
}

bool stage_cache_resident(std::uint64_t key) { return cache().resident(key); }
void stage_cache_clear() { cache().clear(); }
bool stage_cache_enabled() { return cache().enabled(); }
void set_stage_cache_enabled(bool on) { cache().set_enabled(on); }
std::size_t stage_cache_capacity() { return cache().capacity(); }
void set_stage_cache_capacity(std::size_t entries) { cache().set_capacity(entries); }

}  // namespace gia::core::stage
