// Stage-graph flow core (core/stagegraph.hpp): registry sanity, key
// sensitivity (a knob invalidates exactly the stages that declare it plus
// their transitive dependents), the byte-identity determinism contract
// (cache on/off x thread count), and the process-wide stage cache's
// hit/coalesce/evict behaviour.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/canon.hpp"
#include "core/flow.hpp"
#include "core/instrument.hpp"
#include "core/json.hpp"
#include "core/parallel.hpp"
#include "core/serialize.hpp"
#include "core/stagegraph.hpp"

namespace stage = gia::core::stage;
using gia::core::FlowOptions;
using gia::core::PartitionMode;
using gia::tech::TechnologyKind;
using stage::StageId;

namespace {

constexpr std::array<TechnologyKind, 6> kSixTechs = {
    TechnologyKind::Glass25D, TechnologyKind::Glass3D, TechnologyKind::Silicon25D,
    TechnologyKind::Silicon3D, TechnologyKind::Shinko,  TechnologyKind::APX};

/// RAII reset: every test leaves the cache enabled, empty, at default
/// capacity, and the pool back on its environment-driven thread count.
struct CacheGuard {
  std::size_t capacity = stage::stage_cache_capacity();
  ~CacheGuard() {
    stage::set_stage_cache_capacity(capacity);
    stage::set_stage_cache_enabled(true);
    stage::stage_cache_clear();
    gia::core::set_thread_count(0);
  }
};

/// Which stage keys change between two option sets (same technology).
std::array<bool, stage::kStageCount> changed_keys(const FlowOptions& a, const FlowOptions& b,
                                                  TechnologyKind tech = TechnologyKind::Glass25D) {
  const stage::StageKeys ka = stage::compute_stage_keys(tech, a);
  const stage::StageKeys kb = stage::compute_stage_keys(tech, b);
  std::array<bool, stage::kStageCount> out{};
  for (int i = 0; i < stage::kStageCount; ++i) out[static_cast<std::size_t>(i)] = ka.key[static_cast<std::size_t>(i)] != kb.key[static_cast<std::size_t>(i)];
  return out;
}

std::array<bool, stage::kStageCount> mask(std::initializer_list<StageId> changed) {
  std::array<bool, stage::kStageCount> out{};
  for (StageId id : changed) out[static_cast<std::size_t>(stage::idx(id))] = true;
  return out;
}

FlowOptions full_options() {
  FlowOptions o;
  o.with_eyes = true;
  o.eye_bits = 16;
  o.with_thermal = true;
  return o;
}

/// The lines of a knob text in sorted order: equal for two renderings that
/// carry the same lines in a different order.
std::string sorted_lines(const std::string& text) {
  std::vector<std::string> lines;
  for (std::size_t s = 0; s < text.size();) {
    const std::size_t e = text.find('\n', s);
    lines.push_back(text.substr(s, e - s + 1));
    s = e + 1;
  }
  std::sort(lines.begin(), lines.end());
  std::string out;
  for (const auto& l : lines) out += l;
  return out;
}

}  // namespace

// FNV digests of every stage's knob text under default options and under a
// 16-die grid (which renders the system.* rows). `text` pins the exact
// rendering; `lines` pins the line set in any order.
//
// Stage texts render in knob-table order (core/knobs.hpp). Against the
// former hand-written per-stage lists two `text` digests moved, with the
// same lines: thermal (with_thermal now follows thermal_mesh.*) and rollup
// (pnr.target_freq_hz now precedes rollup_activity_scale). Stage keys live
// only in the in-memory stage cache; the disk tier stores request keys, so
// no persisted artifact is invalidated.
TEST(StageGraphTest, StageKnobTextGoldens) {
  struct Golden {
    StageId id;
    std::uint64_t text, lines;
  };
  FlowOptions grid;
  grid.system.chiplets = 16;
  grid.system.arrangement = gia::chiplet::Arrangement::Grid;
  const struct {
    const char* name;
    FlowOptions opts;
    std::array<Golden, stage::kStageCount> golden;
  } cases[] = {
      {"default",
       FlowOptions{},
       {{{StageId::NetlistPartition, 0xa4d3d3ce87626d20ull, 0xa12f5b627dc6abfeull},
         {StageId::ChipletPnr, 0x6b902a5deb7790fbull, 0xc94ad50d9a8f43afull},
         {StageId::Interposer, 0x9837ecea2bd20469ull, 0xe01f10141aba7151ull},
         {StageId::Links, 0xcbf29ce484222325ull, 0xcbf29ce484222325ull},
         {StageId::Eyes, 0x184ab512acb8c0a5ull, 0x951cfe148e8acf05ull},
         {StageId::Pdn, 0xcbf29ce484222325ull, 0xcbf29ce484222325ull},
         {StageId::Thermal, 0x60c8a1ed02532a5aull, 0x79826b10299eb2d4ull},
         {StageId::Rollup, 0x8d4cd966c91971ccull, 0x8d4cd966c91971ccull}}}},
      {"16-die grid",
       grid,
       {{{StageId::NetlistPartition, 0x39213803cba040ecull, 0xdaaf88c11a11824eull},
         {StageId::ChipletPnr, 0x7c0c5a50964c2432ull, 0xb5d406e9f4c35f10ull},
         {StageId::Interposer, 0x6ac19b4180f5e86full, 0x5dfeb2660b11ee2dull},
         {StageId::Links, 0xcbf29ce484222325ull, 0xcbf29ce484222325ull},
         {StageId::Eyes, 0x184ab512acb8c0a5ull, 0x951cfe148e8acf05ull},
         {StageId::Pdn, 0x197d9e4de66ed88cull, 0x32ed2e3f69a8ef26ull},
         {StageId::Thermal, 0xf7348e20d99e6245ull, 0x79852770ec9d82e1ull},
         {StageId::Rollup, 0x3c8b0dc9be02cce3ull, 0xf7a4f925b6daeeedull}}}},
  };
  for (const auto& c : cases) {
    for (const Golden& g : c.golden) {
      const std::string text = stage::stage_knob_text(g.id, c.opts);
      EXPECT_EQ(gia::core::canon::fnv1a64(text), g.text)
          << c.name << ": " << stage::stage_name(g.id) << " knob text drifted:\n" << text;
      EXPECT_EQ(gia::core::canon::fnv1a64(sorted_lines(text)), g.lines)
          << c.name << ": " << stage::stage_name(g.id) << " knob lines changed:\n" << text;
    }
  }
}

// FNV digests of all eight stage keys, in registry order: the default
// glass25d request, and a 16-die hex glass3d request whose doubles need all
// 17 significant digits (0.1, 1/3, 1e-7) or an exponent (2.5e9). Keys chain
// the dependency keys in hex, so these pin the double, integer and key_hex
// spellings at once.
TEST(StageGraphTest, StageKeysAreStable) {
  FlowOptions hex;
  hex.system.chiplets = 16;
  hex.system.arrangement = gia::chiplet::Arrangement::Hex;
  hex.system.die_scale = 1.0 / 3.0;
  hex.system.power_scale = 0.1;
  hex.system.pitch_scale = 1.1;
  hex.pnr.target_freq_hz = 2.5e9;
  hex.pnr.aib_duty = 1e-7;
  hex.router.congestion_weight = 2.75;
  hex.thermal_mesh.logic_power_w = 0.30000000000000004;
  hex.rollup_activity_scale = 0.7;
  hex.eye_bits = 96;
  const struct {
    const char* name;
    TechnologyKind tech;
    FlowOptions opts;
    std::array<std::uint64_t, stage::kStageCount> key;
  } cases[] = {
      {"default glass25d",
       TechnologyKind::Glass25D,
       FlowOptions{},
       {0x065c087d1c9b8b0bull, 0xdd7f0353dd323c7eull, 0x072a3297f804020bull, 0xa19357769728f765ull,
        0x7865d5c935f50ee8ull, 0x3dc1e6064af88242ull, 0xf98d6b908701f410ull, 0xd54cd1ad84ad8d6aull}},
      {"16-die hex glass3d",
       TechnologyKind::Glass3D,
       hex,
       {0x55b7fc6086b01095ull, 0x4a5afb8656e5e218ull, 0x0cb9349e87f93b00ull, 0x26bf95b78ad6aac8ull,
        0x913f5ee1ec4503beull, 0xb4a21fc8db69d887ull, 0x7f7285bf5632a79eull, 0x626c364e55bc6d49ull}},
  };
  for (const auto& c : cases) {
    const stage::StageKeys ks = stage::compute_stage_keys(c.tech, c.opts);
    std::size_t i = 0;
    for (const stage::StageInfo& si : stage::registry()) {
      EXPECT_EQ(ks.of(si.id), c.key[i++]) << c.name << ": " << si.name << " key drifted: 0x"
                                         << gia::core::canon::key_hex(ks.of(si.id));
    }
  }
}

TEST(StageGraphTest, RegistryIsTopologicalAndParseable) {
  const auto& reg = stage::registry();
  ASSERT_EQ(static_cast<int>(reg.size()), stage::kStageCount);
  for (int i = 0; i < stage::kStageCount; ++i) {
    const stage::StageInfo& si = reg[static_cast<std::size_t>(i)];
    EXPECT_EQ(stage::idx(si.id), i) << "registry order must match StageId order";
    for (int d = 0; d < si.dep_count; ++d) {
      EXPECT_LT(stage::idx(si.deps[static_cast<std::size_t>(d)]), i)
          << si.name << ": dependencies must precede the stage (topological order)";
    }
    StageId parsed;
    ASSERT_TRUE(stage::parse_stage(si.name, &parsed)) << si.name;
    EXPECT_EQ(parsed, si.id);
    EXPECT_EQ(std::string(stage::stage_name(si.id)), si.name);
  }
  StageId dummy;
  EXPECT_FALSE(stage::parse_stage("not_a_stage", &dummy));
}

TEST(StageGraphTest, KnobSubsetsRenderOnlyDeclaredKnobs) {
  const FlowOptions o = full_options();
  const std::string eyes = stage::stage_knob_text(StageId::Eyes, o);
  EXPECT_NE(eyes.find("eye_bits="), std::string::npos);
  EXPECT_NE(eyes.find("with_eyes="), std::string::npos);
  EXPECT_EQ(eyes.find("router."), std::string::npos);
  const std::string links = stage::stage_knob_text(StageId::Links, o);
  EXPECT_TRUE(links.empty()) << "links reads no knobs beyond its upstream artifacts";
  const std::string np = stage::stage_knob_text(StageId::NetlistPartition, o);
  EXPECT_NE(np.find("partition_mode="), std::string::npos);
  EXPECT_NE(np.find("fm.seed="), std::string::npos);
  EXPECT_EQ(np.find("pnr."), std::string::npos);
}

// --- Key-sensitivity matrix: changing a knob must move exactly the keys of
// the stages that declare it plus their transitive dependents.

TEST(StageGraphTest, DownstreamEyeKnobInvalidatesOnlyEyes) {
  FlowOptions a = full_options();
  FlowOptions b = a;
  b.eye_bits = a.eye_bits + 16;
  EXPECT_EQ(changed_keys(a, b), mask({StageId::Eyes}));
}

TEST(StageGraphTest, RollupKnobInvalidatesOnlyRollup) {
  FlowOptions a = full_options();
  FlowOptions b = a;
  b.rollup_activity_scale *= 1.25;
  EXPECT_EQ(changed_keys(a, b), mask({StageId::Rollup}));
}

TEST(StageGraphTest, ThermalMeshKnobInvalidatesOnlyThermal) {
  FlowOptions a = full_options();
  FlowOptions b = a;
  b.thermal_mesh.nx += 4;
  EXPECT_EQ(changed_keys(a, b), mask({StageId::Thermal}));
}

TEST(StageGraphTest, PnrKnobInvalidatesPnrAndRollup) {
  FlowOptions a = full_options();
  FlowOptions b = a;
  b.pnr.placer.seed += 1;
  // Rollup declares pnr.target_freq_hz but not placer.seed; it still moves
  // because it consumes the chiplet_pnr artifact.
  EXPECT_EQ(changed_keys(a, b), mask({StageId::ChipletPnr, StageId::Rollup}));
}

TEST(StageGraphTest, RouterKnobInvalidatesInterposerSubtree) {
  FlowOptions a = full_options();
  FlowOptions b = a;
  b.router.congestion_weight *= 2.0;
  EXPECT_EQ(changed_keys(a, b), mask({StageId::Interposer, StageId::Links, StageId::Eyes,
                                      StageId::Pdn, StageId::Thermal, StageId::Rollup}));
}

TEST(StageGraphTest, PartitionKnobInvalidatesEverything) {
  FlowOptions a = full_options();
  FlowOptions b = a;
  b.fm.seed += 1;
  std::array<bool, stage::kStageCount> all{};
  all.fill(true);
  EXPECT_EQ(changed_keys(a, b), all);
  FlowOptions c = a;
  c.partition_mode = PartitionMode::Flattened;
  EXPECT_EQ(changed_keys(a, c), all);
}

TEST(StageGraphTest, NetlistStageKeyIsSharedAcrossTechnologies) {
  const FlowOptions o = full_options();
  const stage::StageKeys glass = stage::compute_stage_keys(TechnologyKind::Glass25D, o);
  const stage::StageKeys si3d = stage::compute_stage_keys(TechnologyKind::Silicon3D, o);
  EXPECT_EQ(glass.of(StageId::NetlistPartition), si3d.of(StageId::NetlistPartition))
      << "partitioning is technology-independent; its artifact must be shared";
  for (int i = 1; i < stage::kStageCount; ++i) {
    EXPECT_NE(glass.key[static_cast<std::size_t>(i)], si3d.key[static_cast<std::size_t>(i)])
        << stage::stage_name(static_cast<StageId>(i));
  }
}

// --- Determinism contract: byte-identical serialized results with the
// cache on/off at 1 and 4 threads and with tracing on, for all six
// packaged technologies.

TEST(StageGraphTest, ByteIdenticalAcrossCacheAndThreadCount) {
  CacheGuard guard;
  const FlowOptions opts = full_options();
  for (TechnologyKind tech : kSixTechs) {
    gia::core::set_thread_count(1);
    stage::set_stage_cache_enabled(false);
    const std::string golden =
        gia::core::technology_result_to_json(gia::core::stage::execute_flow(tech, opts));

    stage::set_stage_cache_enabled(true);
    stage::stage_cache_clear();
    const std::string cached_cold =
        gia::core::technology_result_to_json(gia::core::stage::execute_flow(tech, opts));
    const std::string cached_warm =
        gia::core::technology_result_to_json(gia::core::stage::execute_flow(tech, opts));

    gia::core::set_thread_count(4);
    const std::string warm_mt =
        gia::core::technology_result_to_json(gia::core::stage::execute_flow(tech, opts));
    stage::set_stage_cache_enabled(false);
    const std::string uncached_mt =
        gia::core::technology_result_to_json(gia::core::stage::execute_flow(tech, opts));
    // Tracing (GIA_TRACE) records spans, counters and solver gauges; none
    // of it may reach result bytes.
    const bool was_traced = gia::core::instrument::enabled();
    gia::core::instrument::set_enabled(true);
    const std::string traced_mt =
        gia::core::technology_result_to_json(gia::core::stage::execute_flow(tech, opts));
    gia::core::instrument::set_enabled(was_traced);

    const char* name = gia::tech::short_name(tech);
    EXPECT_EQ(golden, cached_cold) << name << ": cache-enabled cold run drifted";
    EXPECT_EQ(golden, cached_warm) << name << ": cache-hit run drifted";
    EXPECT_EQ(golden, warm_mt) << name << ": 4-thread cached run drifted";
    EXPECT_EQ(golden, uncached_mt) << name << ": 4-thread uncached run drifted";
    EXPECT_EQ(golden, traced_mt) << name << ": 4-thread traced run drifted";
  }
}

// Per-die PnR runs concurrently inside the chiplet_pnr stage, so an
// N-chiplet flow must give the same bytes at any thread count too.
TEST(StageGraphTest, NChipletByteIdenticalAcrossThreadCount) {
  CacheGuard guard;
  FlowOptions opts;
  opts.with_eyes = false;
  opts.with_thermal = false;
  opts.system.chiplets = 16;
  opts.system.arrangement = gia::chiplet::Arrangement::Grid;
  stage::set_stage_cache_enabled(false);
  gia::core::set_thread_count(1);
  const std::string serial = gia::core::technology_result_to_json(
      gia::core::stage::execute_flow(TechnologyKind::Glass25D, opts));
  gia::core::set_thread_count(4);
  const std::string parallel = gia::core::technology_result_to_json(
      gia::core::stage::execute_flow(TechnologyKind::Glass25D, opts));
  EXPECT_EQ(serial, parallel) << "16-die grid drifted between 1 and 4 threads";
}

TEST(StageGraphTest, Monolithic2DIsRejected) {
  EXPECT_THROW(stage::execute_flow(TechnologyKind::Monolithic2D, FlowOptions{}),
               std::invalid_argument);
}

// A stage that throws must fail the flow with its own exception and start
// no stage downstream of it; stages that do not depend on it still run, so
// the cached state is the same at any thread count.
TEST(StageGraphTest, FailingStageRethrowsAndStartsNoDependent) {
  CacheGuard guard;
  FlowOptions opts;
  opts.router.grid_nx = 0;
  const stage::StageKeys keys = stage::compute_stage_keys(TechnologyKind::Glass25D, opts);
  for (int threads : {1, 4}) {
    gia::core::set_thread_count(threads);
    stage::set_stage_cache_enabled(true);
    stage::stage_cache_clear();
    try {
      (void)stage::execute_flow(TechnologyKind::Glass25D, opts);
      ADD_FAILURE() << "grid_nx=0 must fail the flow";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("router.grid_nx"), std::string::npos) << e.what();
    }
    const stage::StageCacheStats st = stage::stage_cache_stats();
    for (StageId id : {StageId::Interposer, StageId::Links, StageId::Eyes, StageId::Pdn,
                       StageId::Thermal, StageId::Rollup}) {
      EXPECT_FALSE(stage::stage_cache_resident(keys.of(id)))
          << threads << " threads: " << stage::stage_name(id) << " left an artifact";
      // A miss is counted when a stage body starts; only interposer may start.
      EXPECT_EQ(st.stage[static_cast<std::size_t>(stage::idx(id))].misses,
                id == StageId::Interposer ? 1u : 0u)
          << threads << " threads: " << stage::stage_name(id);
    }
    for (StageId id : {StageId::NetlistPartition, StageId::ChipletPnr}) {
      EXPECT_TRUE(stage::stage_cache_resident(keys.of(id)))
          << threads << " threads: independent stage " << stage::stage_name(id) << " missing";
    }
  }
}

// Each stage checks the knob rows it owns (core/knobs.hpp) when its body
// starts: an out-of-range knob fails the flow by its dotted path, and no
// stage downstream of the failing one starts.
TEST(StageGraphTest, OutOfRangeKnobFailsItsOwningStage) {
  CacheGuard guard;
  stage::set_stage_cache_enabled(true);
  stage::stage_cache_clear();
  FlowOptions opts;
  opts.openpiton.cluster_cells = 0;
  try {
    (void)stage::execute_flow(TechnologyKind::Glass25D, opts);
    ADD_FAILURE() << "openpiton.cluster_cells=0 must fail the flow";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("openpiton.cluster_cells=0"), std::string::npos)
        << e.what();
  }
  const stage::StageCacheStats st = stage::stage_cache_stats();
  EXPECT_EQ(st.total_misses(), 1u) << "only netlist_partition may start";
  EXPECT_EQ(st.entries, 0u);
}

// --- Cache behaviour.

TEST(StageGraphTest, SecondRunHitsEveryStage) {
  CacheGuard guard;
  stage::set_stage_cache_enabled(true);
  stage::stage_cache_clear();
  const FlowOptions opts;  // eyes/thermal off: fast
  stage::StageRunRecord first, second;
  (void)stage::execute_flow(TechnologyKind::Glass25D, opts, &first);
  (void)stage::execute_flow(TechnologyKind::Glass25D, opts, &second);
  EXPECT_EQ(first.misses(), static_cast<std::uint64_t>(stage::kStageCount));
  EXPECT_EQ(first.hits(), 0u);
  EXPECT_EQ(second.hits(), static_cast<std::uint64_t>(stage::kStageCount));
  EXPECT_EQ(second.misses(), 0u);
  for (int i = 0; i < stage::kStageCount; ++i) {
    EXPECT_EQ(second.outcome[static_cast<std::size_t>(i)], stage::StageRunRecord::Outcome::CacheHit);
  }
}

TEST(StageGraphTest, DownstreamSweepReusesUpstreamArtifacts) {
  CacheGuard guard;
  stage::set_stage_cache_enabled(true);
  stage::stage_cache_clear();
  FlowOptions opts;
  opts.with_eyes = true;
  opts.eye_bits = 16;  // minimum: 8 warm-up UIs + 8 measured
  (void)stage::execute_flow(TechnologyKind::Glass25D, opts);
  opts.eye_bits = 24;
  stage::StageRunRecord rec;
  (void)stage::execute_flow(TechnologyKind::Glass25D, opts, &rec);
  EXPECT_EQ(rec.misses(), 1u) << "only the eye stage may recompute";
  EXPECT_EQ(rec.outcome[static_cast<std::size_t>(stage::idx(StageId::Eyes))],
            stage::StageRunRecord::Outcome::Computed);
  EXPECT_EQ(rec.hits(), static_cast<std::uint64_t>(stage::kStageCount) - 1);
}

TEST(StageGraphTest, DisabledCacheRecomputesEveryStage) {
  CacheGuard guard;
  stage::set_stage_cache_enabled(false);
  EXPECT_FALSE(stage::stage_cache_enabled());
  const FlowOptions opts;
  stage::StageRunRecord a, b;
  (void)stage::execute_flow(TechnologyKind::Glass25D, opts, &a);
  (void)stage::execute_flow(TechnologyKind::Glass25D, opts, &b);
  EXPECT_EQ(a.misses(), static_cast<std::uint64_t>(stage::kStageCount));
  EXPECT_EQ(b.misses(), static_cast<std::uint64_t>(stage::kStageCount));
  EXPECT_EQ(b.hits(), 0u);
  EXPECT_FALSE(stage::stage_cache_stats().enabled);
}

TEST(StageGraphTest, LruEvictionKeepsEntriesBounded) {
  CacheGuard guard;
  stage::set_stage_cache_enabled(true);
  stage::stage_cache_clear();
  stage::set_stage_cache_capacity(8);
  FlowOptions opts;
  for (int i = 0; i < 4; ++i) {
    opts.rollup_activity_scale = 1.0 + 0.1 * i;  // new rollup key each run
    (void)stage::execute_flow(TechnologyKind::Glass25D, opts);
  }
  const stage::StageCacheStats st = stage::stage_cache_stats();
  EXPECT_LE(st.entries, static_cast<std::size_t>(8));
  EXPECT_GT(st.total_evictions(), 0u) << "11 distinct artifacts into 8 slots must evict";
  EXPECT_EQ(st.capacity, static_cast<std::size_t>(8));
}

TEST(StageGraphTest, ConcurrentIdenticalFlowsComputeEachStageOnce) {
  CacheGuard guard;
  stage::set_stage_cache_enabled(true);
  stage::stage_cache_clear();
  const FlowOptions opts;
  stage::StageRunRecord ra, rb;
  std::thread ta([&] { (void)stage::execute_flow(TechnologyKind::Glass3D, opts, &ra); });
  std::thread tb([&] { (void)stage::execute_flow(TechnologyKind::Glass3D, opts, &rb); });
  ta.join();
  tb.join();
  // Between the two runs every stage body ran exactly once; the other run
  // either coalesced onto the in-flight computation or hit the cache.
  EXPECT_EQ(ra.misses() + rb.misses(), static_cast<std::uint64_t>(stage::kStageCount));
  EXPECT_EQ(ra.hits() + rb.hits(), static_cast<std::uint64_t>(stage::kStageCount));
}

TEST(StageGraphTest, StatsJsonParsesAndCarriesPerStageCounters) {
  CacheGuard guard;
  stage::set_stage_cache_enabled(true);
  stage::stage_cache_clear();
  (void)stage::execute_flow(TechnologyKind::Glass25D, FlowOptions{});
  (void)stage::execute_flow(TechnologyKind::Glass25D, FlowOptions{});
  const std::string text = stage::stage_cache_stats_json();
  const gia::core::json::Value v = gia::core::json::parse(text);
  ASSERT_EQ(v.kind, gia::core::json::Value::Kind::Object);
  ASSERT_NE(v.find("enabled"), nullptr);
  ASSERT_NE(v.find("entries"), nullptr);
  const gia::core::json::Value* stages = v.find("stages");
  ASSERT_NE(stages, nullptr);
  for (const auto& si : stage::registry()) {
    const gia::core::json::Value* s = stages->find(si.name);
    ASSERT_NE(s, nullptr) << si.name;
    ASSERT_NE(s->find("hits"), nullptr);
    ASSERT_NE(s->find("misses"), nullptr);
    ASSERT_NE(s->find("evictions"), nullptr);
  }
  const stage::StageCacheStats st = stage::stage_cache_stats();
  EXPECT_EQ(st.total_hits(), static_cast<std::uint64_t>(stage::kStageCount));
  EXPECT_EQ(st.total_misses(), static_cast<std::uint64_t>(stage::kStageCount));
}
