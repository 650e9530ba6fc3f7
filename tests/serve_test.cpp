// Tests for the serving layer (src/serve): request canonicalization and
// golden key stability, cache LRU/disk behaviour and thread safety,
// scheduler coalescing/priority/deadline/cancellation/dependencies, and a
// loopback TCP smoke test of the giad protocol.

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <future>
#include <initializer_list>
#include <string>
#include <thread>
#include <vector>

#include "core/json.hpp"
#include "core/parallel.hpp"
#include "core/serialize.hpp"
#include "core/stagegraph.hpp"
#include "serve/cache.hpp"
#include "serve/daemon.hpp"
#include "serve/faultinject.hpp"
#include "serve/request.hpp"
#include "serve/scheduler.hpp"
#include "tech/library.hpp"

namespace gia {
namespace {

namespace fs = std::filesystem;
using Ms = std::chrono::milliseconds;

serve::FlowRequest request_for(tech::TechnologyKind k, int seed = 0) {
  serve::FlowRequest req;
  req.tech = k;
  if (seed != 0) req.options.openpiton.seed = seed;
  return req;
}

serve::ResultCache::ResultPtr make_result(double marker) {
  auto r = std::make_shared<core::TechnologyResult>();
  r->technology = tech::make_technology(tech::TechnologyKind::Glass25D);
  r->total_power_w = marker;
  return r;
}

/// A request with every knob off its default: a floorplan system block,
/// die_sizes and any_angle included, so the golden below pins the order and
/// spelling of the optional and system rows too.
serve::FlowRequest full_knob_request() {
  serve::FlowRequest r;
  r.tech = tech::TechnologyKind::APX;
  core::FlowOptions& o = r.options;
  o.partition_mode = core::PartitionMode::Flattened;
  o.openpiton.tiles = 3;
  o.openpiton.cluster_cells = 750;
  o.openpiton.seed = 424242;
  o.openpiton.intra_nets_per_cluster = 2.25;
  o.serdes.ratio = 4;
  o.serdes.min_bits = 24;
  o.serdes.cells_per_lane = 30;
  o.serdes.latency_cycles = 6;
  o.fm.balance_tolerance = 0.07;
  o.fm.target_memory_fraction = 0.2;
  o.fm.max_passes = 9;
  o.fm.seed = 5;
  o.pnr.target_freq_hz = 8.5e8;
  o.pnr.logic_depth = 60;
  o.pnr.memory_depth = 50;
  o.pnr.aib_area_per_lane_um2 = 80.5;
  o.pnr.aib_duty = 0.05;
  o.pnr.tsv_stack_wl_factor = 0.9;
  o.pnr.placer.packing_util = 0.65;
  o.pnr.placer.moves_per_cluster = 300;
  o.pnr.placer.t_start_frac = 0.04;
  o.pnr.placer.cooling = 0.9;
  o.pnr.placer.seed = 13;
  o.pnr.congestion.tracks_per_um_per_layer = 4.5;
  o.pnr.congestion.signal_layers = 7;
  o.pnr.congestion.usable_fraction = 0.6;
  o.pnr.congestion.detour_slope = 0.5;
  o.pnr.timing.stage_drive_ohm = 400;
  o.pnr.timing.crit_net_scale = 1.3;
  o.pnr.timing.fanout = 1.8;
  o.router.grid_nx = 80;
  o.router.grid_ny = 72;
  o.router.usable_track_fraction = 0.8;
  o.router.die_capacity_factor = 0.6;
  o.router.congestion_weight = 2.5;
  o.router.via_cost_um = 30;
  o.router.wrong_way_penalty = 2.0;
  o.router.overflow_penalty = 20;
  o.router.reroute_passes = 2;
  o.router.any_angle = true;
  o.thermal_mesh.nx = 40;
  o.thermal_mesh.ny = 36;
  o.thermal_mesh.logic_power_w = 0.15;
  o.thermal_mesh.memory_power_w = 0.05;
  o.thermal_mesh.interposer_power_w = 0.025;
  o.thermal_mesh.board_margin_frac = 0.4;
  o.thermal_mesh.thermal_via_fraction = 0.1;
  o.thermal_mesh.board_thickness_um = 800;
  o.thermal_mesh.board_k = 10;
  o.thermal_mesh.power_seed = 17;
  o.with_eyes = true;
  o.with_thermal = true;
  o.eye_bits = 64;
  o.rollup_activity_scale = 1.0 / 3.0;
  o.system.chiplets = 4;
  o.system.arrangement = chiplet::Arrangement::Floorplan;
  o.system.memory_every = 2;
  o.system.die_scale = 1.1;
  o.system.power_scale = 0.9;
  o.system.memory_die_scale = 1.2;
  o.system.memory_power_scale = 0.8;
  o.system.pitch_scale = 1.3;
  // A floorplan run ignores `placed`; it is set anyway so the golden pins
  // where the token renders.
  o.system.placed = "0:0;5000:0;0:5000;5000:5000";
  o.system.die_sizes = "4000:3000;2500:2500;4000:3000;2500:2500";
  return r;
}

/// Disarms every fault site when the scope ends, also when a failed
/// assertion returns early. Declare it before the scheduler, so the
/// scheduler's workers have stopped by the time it disarms; a stall the
/// test ends early is declared after it instead (disarming wakes a stall).
struct FaultScope {
  FaultScope() = default;
  explicit FaultScope(const char* spec) { serve::fault::configure(spec); }
  ~FaultScope() { serve::fault::configure(""); }
  FaultScope(const FaultScope&) = delete;
  FaultScope& operator=(const FaultScope&) = delete;
};

/// Worker stall that keeps a "blocker" job Running while a test queues work
/// behind it. The worker marks a job Running before it stalls, so every job
/// that starts stays Running this long, however warm the stage cache is
/// (a warm flow finishes inside wait_until_running's 1 ms poll).
constexpr const char* kBlockerStall = "sched_stall=1:500";

/// Spin until the ticket reports Running (the scheduler worker picked it up).
void wait_until_running(const serve::JobTicket& t) {
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (t.status() == serve::JobTicket::Status::Queued &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(Ms(1));
  }
  ASSERT_EQ(t.status(), serve::JobTicket::Status::Running);
}

// ---------------------------------------------------------------------------
// Request canonicalization

TEST(ServeRequestTest, Fnv1a64KnownVectors) {
  EXPECT_EQ(serve::fnv1a64(""), 0xcbf29ce484222325ull);
  EXPECT_EQ(serve::fnv1a64("a"), 0xaf63dc4c8601ec8cull);
  EXPECT_EQ(serve::fnv1a64("foobar"), 0x85944171f73967e8ull);
}

TEST(ServeRequestTest, KeyHexIsFixedWidthLowercase) {
  EXPECT_EQ(serve::key_hex(0), "0000000000000000");
  EXPECT_EQ(serve::key_hex(0xabcdef0123456789ull), "abcdef0123456789");
}

TEST(ServeRequestTest, CanonicalTextShapeIsStable) {
  const std::string text = serve::canonical_text(serve::FlowRequest());
  EXPECT_EQ(text.rfind("tech=glass25d\npartition_mode=hierarchical\n", 0), 0u);
  EXPECT_NE(text.find("pnr.placer.seed="), std::string::npos);
  EXPECT_NE(text.find("thermal_mesh.power_seed="), std::string::npos);
  EXPECT_NE(text.find("rollup_activity_scale=2\n"), std::string::npos);
}

// Golden content-address of the default request per technology. These lock
// the canonicalization: any change to a default knob value, a field name,
// the field order, or the number formatting is a cache-invalidation event
// and must update these constants deliberately.
TEST(ServeRequestTest, GoldenKeysAreStable) {
  const struct {
    tech::TechnologyKind kind;
    std::uint64_t key;
  } golden[] = {
      {tech::TechnologyKind::Glass25D, 0x9a82f796b765df11ull},
      {tech::TechnologyKind::Glass3D, 0x64a5e42f644924d1ull},
      {tech::TechnologyKind::Silicon25D, 0xd5dab2c5932af275ull},
      {tech::TechnologyKind::Silicon3D, 0x1b9d2eb5cc8d0d75ull},
      {tech::TechnologyKind::Shinko, 0x5e63dc772b304764ull},
      {tech::TechnologyKind::APX, 0x45f49e17f1ee9701ull},
  };
  for (const auto& g : golden) {
    EXPECT_EQ(serve::request_key(request_for(g.kind)), g.key)
        << "canonicalization drift for " << tech::to_string(g.kind);
  }
}

// Golden text and JSON of a fully non-default request. The default-request
// keys above cannot see a reorder among optional or system rows (those do
// not render at their defaults); this one renders every row.
TEST(ServeRequestTest, FullKnobRequestTextAndJsonAreStable) {
  const serve::FlowRequest req = full_knob_request();
  const std::string text =
      "tech=apx\n"
      "partition_mode=flattened\n"
      "openpiton.tiles=3\n"
      "openpiton.cluster_cells=750\n"
      "openpiton.seed=424242\n"
      "openpiton.intra_nets_per_cluster=2.25\n"
      "serdes.ratio=4\n"
      "serdes.min_bits=24\n"
      "serdes.cells_per_lane=30\n"
      "serdes.latency_cycles=6\n"
      "fm.balance_tolerance=0.070000000000000007\n"
      "fm.target_memory_fraction=0.20000000000000001\n"
      "fm.max_passes=9\n"
      "fm.seed=5\n"
      "pnr.target_freq_hz=850000000\n"
      "pnr.logic_depth=60\n"
      "pnr.memory_depth=50\n"
      "pnr.aib_area_per_lane_um2=80.5\n"
      "pnr.aib_duty=0.050000000000000003\n"
      "pnr.tsv_stack_wl_factor=0.90000000000000002\n"
      "pnr.placer.packing_util=0.65000000000000002\n"
      "pnr.placer.moves_per_cluster=300\n"
      "pnr.placer.t_start_frac=0.040000000000000001\n"
      "pnr.placer.cooling=0.90000000000000002\n"
      "pnr.placer.seed=13\n"
      "pnr.congestion.tracks_per_um_per_layer=4.5\n"
      "pnr.congestion.signal_layers=7\n"
      "pnr.congestion.usable_fraction=0.59999999999999998\n"
      "pnr.congestion.detour_slope=0.5\n"
      "pnr.timing.stage_drive_ohm=400\n"
      "pnr.timing.crit_net_scale=1.3\n"
      "pnr.timing.fanout=1.8\n"
      "router.grid_nx=80\n"
      "router.grid_ny=72\n"
      "router.usable_track_fraction=0.80000000000000004\n"
      "router.die_capacity_factor=0.59999999999999998\n"
      "router.congestion_weight=2.5\n"
      "router.via_cost_um=30\n"
      "router.wrong_way_penalty=2\n"
      "router.overflow_penalty=20\n"
      "router.reroute_passes=2\n"
      "router.any_angle=1\n"
      "thermal_mesh.nx=40\n"
      "thermal_mesh.ny=36\n"
      "thermal_mesh.logic_power_w=0.14999999999999999\n"
      "thermal_mesh.memory_power_w=0.050000000000000003\n"
      "thermal_mesh.interposer_power_w=0.025000000000000001\n"
      "thermal_mesh.board_margin_frac=0.40000000000000002\n"
      "thermal_mesh.thermal_via_fraction=0.10000000000000001\n"
      "thermal_mesh.board_thickness_um=800\n"
      "thermal_mesh.board_k=10\n"
      "thermal_mesh.power_seed=17\n"
      "with_eyes=1\n"
      "with_thermal=1\n"
      "eye_bits=64\n"
      "rollup_activity_scale=0.33333333333333331\n"
      "system.chiplets=4\n"
      "system.arrangement=floorplan\n"
      "system.memory_every=2\n"
      "system.die_scale=1.1000000000000001\n"
      "system.power_scale=0.90000000000000002\n"
      "system.memory_die_scale=1.2\n"
      "system.memory_power_scale=0.80000000000000004\n"
      "system.pitch_scale=1.3\n"
      "system.placed=0:0;5000:0;0:5000;5000:5000\n"
      "system.die_sizes=4000:3000;2500:2500;4000:3000;2500:2500\n";
  const std::string wire =
      R"({"flow_request":{"tech":"apx","partition_mode":"flattened")"
      R"(,"openpiton":{"tiles":3,"cluster_cells":750,"seed":424242)"
      R"(,"intra_nets_per_cluster":2.25},"serdes":{"ratio":4,"min_bits":24)"
      R"(,"cells_per_lane":30,"latency_cycles":6})"
      R"(,"fm":{"balance_tolerance":0.070000000000000007)"
      R"(,"target_memory_fraction":0.20000000000000001,"max_passes":9,"seed":5})"
      R"(,"pnr":{"target_freq_hz":850000000,"logic_depth":60,"memory_depth":50)"
      R"(,"aib_area_per_lane_um2":80.5,"aib_duty":0.050000000000000003)"
      R"(,"tsv_stack_wl_factor":0.90000000000000002)"
      R"(,"placer":{"packing_util":0.65000000000000002,"moves_per_cluster":300)"
      R"(,"t_start_frac":0.040000000000000001,"cooling":0.90000000000000002,"seed":13})"
      R"(,"congestion":{"tracks_per_um_per_layer":4.5,"signal_layers":7)"
      R"(,"usable_fraction":0.59999999999999998,"detour_slope":0.5})"
      R"(,"timing":{"stage_drive_ohm":400,"crit_net_scale":1.3,"fanout":1.8}})"
      R"(,"router":{"grid_nx":80,"grid_ny":72)"
      R"(,"usable_track_fraction":0.80000000000000004)"
      R"(,"die_capacity_factor":0.59999999999999998,"congestion_weight":2.5)"
      R"(,"via_cost_um":30,"wrong_way_penalty":2,"overflow_penalty":20)"
      R"(,"reroute_passes":2,"any_angle":true},"thermal_mesh":{"nx":40,"ny":36)"
      R"(,"logic_power_w":0.14999999999999999,"memory_power_w":0.050000000000000003)"
      R"(,"interposer_power_w":0.025000000000000001)"
      R"(,"board_margin_frac":0.40000000000000002)"
      R"(,"thermal_via_fraction":0.10000000000000001,"board_thickness_um":800)"
      R"(,"board_k":10,"power_seed":17},"with_eyes":true,"with_thermal":true)"
      R"(,"eye_bits":64,"rollup_activity_scale":0.33333333333333331)"
      R"(,"system":{"chiplets":4,"arrangement":"floorplan","memory_every":2)"
      R"(,"die_scale":1.1000000000000001,"power_scale":0.90000000000000002)"
      R"(,"memory_die_scale":1.2,"memory_power_scale":0.80000000000000004)"
      R"(,"pitch_scale":1.3,"placed":"0:0;5000:0;0:5000;5000:5000")"
      R"(,"die_sizes":"4000:3000;2500:2500;4000:3000;2500:2500"}}})";
  EXPECT_EQ(serve::canonical_text(req), text);
  EXPECT_EQ(serve::request_to_json(req), wire);
  const serve::FlowRequest back = serve::request_from_json(wire);
  EXPECT_EQ(serve::canonical_text(back), text);
}

TEST(ServeRequestTest, EveryKnobClassAffectsTheKey) {
  using Mutate = std::function<void(serve::FlowRequest&)>;
  const Mutate mutations[] = {
      [](serve::FlowRequest& r) { r.tech = tech::TechnologyKind::APX; },
      [](serve::FlowRequest& r) { r.options.partition_mode = core::PartitionMode::Flattened; },
      [](serve::FlowRequest& r) { r.options.openpiton.seed += 1; },
      [](serve::FlowRequest& r) { r.options.serdes.ratio *= 2; },
      [](serve::FlowRequest& r) { r.options.fm.seed += 1; },
      [](serve::FlowRequest& r) { r.options.pnr.target_freq_hz *= 1.5; },
      [](serve::FlowRequest& r) { r.options.pnr.placer.seed += 1; },
      [](serve::FlowRequest& r) { r.options.pnr.congestion.signal_layers += 1; },
      [](serve::FlowRequest& r) { r.options.pnr.timing.fanout += 1; },
      [](serve::FlowRequest& r) { r.options.router.reroute_passes += 1; },
      [](serve::FlowRequest& r) { r.options.thermal_mesh.nx += 8; },
      [](serve::FlowRequest& r) { r.options.with_eyes = true; },
      [](serve::FlowRequest& r) { r.options.with_thermal = true; },
      [](serve::FlowRequest& r) { r.options.eye_bits += 32; },
      [](serve::FlowRequest& r) { r.options.rollup_activity_scale = 1.0; },
  };
  const std::uint64_t base = serve::request_key(serve::FlowRequest());
  for (std::size_t i = 0; i < std::size(mutations); ++i) {
    serve::FlowRequest req;
    mutations[i](req);
    EXPECT_NE(serve::request_key(req), base) << "mutation " << i << " did not change the key";
  }
}

TEST(ServeRequestTest, JsonRoundTripPreservesKeyAndText) {
  serve::FlowRequest req = request_for(tech::TechnologyKind::Glass3D, 12345);
  req.options.with_eyes = true;
  req.options.rollup_activity_scale = 1.0 / 3.0;  // non-representable double
  req.options.pnr.placer.seed = 99;
  const std::string wire = serve::request_to_json(req);
  const serve::FlowRequest back = serve::request_from_json(wire);
  EXPECT_EQ(serve::canonical_text(back), serve::canonical_text(req));
  EXPECT_EQ(serve::request_key(back), serve::request_key(req));
  EXPECT_EQ(serve::request_to_json(back), wire);
}

TEST(ServeRequestTest, PartialJsonKeepsDefaults) {
  const auto req = serve::request_from_json("{\"flow_request\":{\"tech\":\"glass3d\"}}");
  EXPECT_EQ(req.tech, tech::TechnologyKind::Glass3D);
  serve::FlowRequest expect;
  expect.tech = tech::TechnologyKind::Glass3D;
  EXPECT_EQ(serve::request_key(req), serve::request_key(expect));
  // The bare inner object parses too.
  const auto bare = serve::request_from_json("{\"tech\":\"glass3d\"}");
  EXPECT_EQ(serve::request_key(bare), serve::request_key(expect));
}

TEST(ServeRequestTest, RejectsUnknownOrMalformedFields) {
  EXPECT_THROW(serve::request_from_json("{\"flow_request\":{\"bogus\":1}}"),
               std::runtime_error);
  EXPECT_THROW(serve::request_from_json("{\"flow_request\":{\"openpiton\":{\"sede\":1}}}"),
               std::runtime_error);
  EXPECT_THROW(serve::request_from_json("{\"flow_request\":{\"tech\":\"diamond\"}}"),
               std::runtime_error);
  EXPECT_THROW(serve::request_from_json("{\"flow_request\":{\"partition_mode\":\"vibes\"}}"),
               std::runtime_error);
  EXPECT_THROW(serve::request_from_json("{\"flow_request\":{\"openpiton\":7}}"),
               std::runtime_error);
  EXPECT_THROW(serve::request_from_json("not json"), std::runtime_error);
}

// The wire reader once read typed values without checking their JSON kind
// ("eye_bits":1e3 read as 1, "openpiton":{"seed":-1} as 4294967295). Now an
// integral spelling reads exactly, and a wrong kind, a fraction for an
// integer knob or a value its C++ type cannot hold is rejected by path.
TEST(ServeRequestTest, TypedReaderRejectsMistypedValues) {
  EXPECT_EQ(serve::request_from_json(R"({"eye_bits":1e3})").options.eye_bits, 1000);
  EXPECT_EQ(serve::request_from_json(R"({"router":{"grid_nx":16.0}})").options.router.grid_nx,
            16);
  const struct {
    const char* doc;
    const char* path;
  } rejected[] = {
      {R"({"eye_bits":96.9})", "\"eye_bits\""},
      {R"({"with_eyes":1})", "\"with_eyes\""},
      {R"({"router":{"grid_nx":"16"}})", "\"router.grid_nx\""},
      {R"({"openpiton":{"seed":-1}})", "\"openpiton.seed\""},
      {R"({"openpiton":{"tiles":4294967298}})", "\"openpiton.tiles\""},
      {R"({"pnr":{"target_freq_hz":true}})", "\"pnr.target_freq_hz\""},
  };
  for (const auto& r : rejected) {
    try {
      (void)serve::request_from_json(r.doc);
      ADD_FAILURE() << r.doc << " was accepted";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find(r.path), std::string::npos) << e.what();
    }
  }
}

// ---------------------------------------------------------------------------
// Result cache

TEST(ServeCacheTest, LruEvictsLeastRecentlyUsed) {
  serve::ResultCache::Config cfg;
  cfg.capacity = 4;
  cfg.shards = 1;  // single shard so the LRU order is globally observable
  cfg.disk_dir = "-";
  serve::ResultCache cache(cfg);

  for (std::uint64_t k = 1; k <= 4; ++k) cache.put(k, make_result(static_cast<double>(k)));
  EXPECT_NE(cache.get(1), nullptr);  // refresh key 1: key 2 is now the LRU
  cache.put(5, make_result(5));

  EXPECT_EQ(cache.peek(2), nullptr);
  EXPECT_NE(cache.peek(1), nullptr);
  EXPECT_NE(cache.peek(5), nullptr);
  const auto st = cache.stats();
  EXPECT_EQ(st.entries, 4u);
  EXPECT_EQ(st.evictions, 1u);
  EXPECT_EQ(st.insertions, 5u);
}

TEST(ServeCacheTest, PeekDoesNotCountOrRefresh) {
  serve::ResultCache::Config cfg;
  cfg.capacity = 2;
  cfg.shards = 1;
  cfg.disk_dir = "-";
  serve::ResultCache cache(cfg);
  cache.put(1, make_result(1));
  cache.put(2, make_result(2));
  EXPECT_NE(cache.peek(1), nullptr);  // must NOT refresh: 1 stays the LRU
  cache.put(3, make_result(3));
  EXPECT_EQ(cache.peek(1), nullptr);
  EXPECT_EQ(cache.stats().hits, 0u);
  EXPECT_EQ(cache.stats().misses, 0u);
}

TEST(ServeCacheTest, DiskStoreSurvivesRestart) {
  char tmpl[] = "/tmp/gia_cache_test_XXXXXX";
  ASSERT_NE(::mkdtemp(tmpl), nullptr);
  const std::string dir = tmpl;

  serve::ResultCache::Config cfg;
  cfg.disk_dir = dir;
  {
    serve::ResultCache cache(cfg);
    ASSERT_TRUE(cache.disk_enabled());
    cache.put(0xdeadbeefull, make_result(42.5));
    EXPECT_EQ(cache.stats().disk_writes, 1u);
    EXPECT_TRUE(fs::exists(dir + "/00000000deadbeef.json"));
  }
  {
    serve::ResultCache cache(cfg);  // fresh memory, same directory
    const auto hit = cache.get(0xdeadbeefull);
    ASSERT_NE(hit, nullptr);
    EXPECT_DOUBLE_EQ(hit->total_power_w, 42.5);
    const auto st = cache.stats();
    EXPECT_EQ(st.disk_hits, 1u);
    EXPECT_EQ(st.hits, 1u);
    // Promoted into memory: the second lookup never touches the disk.
    EXPECT_NE(cache.get(0xdeadbeefull), nullptr);
    EXPECT_EQ(cache.stats().disk_hits, 1u);
  }
  {
    // Corrupt entries are discarded, not fatal.
    serve::ResultCache cache(cfg);
    std::FILE* f = std::fopen((dir + "/00000000deadbeef.json").c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::fputs("{\"technology_result\":", f);
    std::fclose(f);
    EXPECT_EQ(cache.get(0xdeadbeefull), nullptr);
    EXPECT_FALSE(fs::exists(dir + "/00000000deadbeef.json"));
  }
  fs::remove_all(dir);
}

/// `text` with the scalar value of the first `"key":` replaced by `value`.
std::string with_value(std::string text, const std::string& key, const std::string& value) {
  const std::size_t at = text.find("\"" + key + "\":");
  EXPECT_NE(at, std::string::npos) << key;
  const std::size_t begin = at + key.size() + 3;
  text.replace(begin, text.find_first_of(",}", begin) - begin, value);
  return text;
}

// The disk reader once trusted every token: a stored "cut_wires":"462" read
// as 0, "side":"lojic" as memory, 462.7 as 462, and an entry carrying such
// edits was served as a hit with disk_errors at 0. Each edit below must now
// count as a corrupt entry: a miss, disk_errors++ and the file removed.
TEST(ServeCacheTest, CorruptDiskEntriesAreDiscardedNotServed) {
  char tmpl[] = "/tmp/gia_cache_corrupt_XXXXXX";
  ASSERT_NE(::mkdtemp(tmpl), nullptr);
  const std::string dir = tmpl;
  const std::string good =
      core::technology_result_to_json(core::stage::execute_flow(tech::TechnologyKind::Glass25D));
  const std::size_t z = good.find("\"z_ohm\":[");
  const std::size_t z_end = good.find(']', z);
  const std::string short_z = good.substr(0, good.rfind(',', z_end)) + good.substr(z_end);
  const std::string prefix = "{\"technology_result\":{";
  const std::string corrupt[] = {
      with_value(good, "cut_wires", "\"462\""),
      with_value(good, "side", "\"lojic\""),
      with_value(good, "cut_wires", "462.7"),
      with_value(good, "bump_limited", "1"),
      with_value(good, "fmax_hz", "\"oops\""),
      with_value(good, "cell_count", "99999999999999999999"),
      prefix + "\"bogus\":1," + good.substr(prefix.size()),
      short_z,
  };
  serve::ResultCache::Config cfg;
  cfg.disk_dir = dir;
  serve::ResultCache cache(cfg);
  auto store = [&dir](std::uint64_t key, const std::string& text) {
    const std::string path = dir + "/" + serve::key_hex(key) + ".json";
    std::FILE* f = std::fopen(path.c_str(), "w");
    EXPECT_NE(f, nullptr) << path;
    if (f != nullptr) {
      std::fputs(text.c_str(), f);
      std::fclose(f);
    }
    return path;
  };
  std::uint64_t key = 0;
  for (const std::string& text : corrupt) {
    const std::string path = store(++key, text);
    EXPECT_EQ(cache.get(key), nullptr) << text.substr(0, 200);
    const auto st = cache.stats();
    EXPECT_EQ(st.disk_errors, key);
    EXPECT_EQ(st.misses, key);
    EXPECT_EQ(st.disk_hits, 0u);
    EXPECT_FALSE(fs::exists(path));
  }
  // An integral spelling is not corruption: 1e3 reads exactly as 1000.
  store(++key, with_value(good, "cut_wires", "1e3"));
  const auto hit = cache.get(key);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->partition.cut_wires, 1000);
  EXPECT_EQ(cache.stats().disk_hits, 1u);
  fs::remove_all(dir);
}

TEST(ServeCacheTest, DashDisablesDiskEvenWithEnvironment) {
  ::setenv("GIA_CACHE_DIR", "/tmp/gia_cache_env_should_not_be_used", 1);
  serve::ResultCache::Config cfg;
  cfg.disk_dir = "-";
  serve::ResultCache cache(cfg);
  EXPECT_FALSE(cache.disk_enabled());
  ::unsetenv("GIA_CACHE_DIR");
  EXPECT_FALSE(fs::exists("/tmp/gia_cache_env_should_not_be_used"));
}

TEST(ServeCacheTest, ConcurrentGetPutUnderParallelFor) {
  serve::ResultCache::Config cfg;
  cfg.capacity = 16;
  cfg.shards = 4;
  cfg.disk_dir = "-";
  serve::ResultCache cache(cfg);
  core::set_thread_count(4);
  core::parallel_for(400, [&](std::size_t i) {
    const std::uint64_t key = i % 32;
    if (auto hit = cache.get(key)) {
      // Evicted entries must stay alive while a reader holds them.
      EXPECT_GE(hit->total_power_w, 0.0);
    } else {
      cache.put(key, make_result(static_cast<double>(key)));
    }
    cache.peek(key ^ 1);
  });
  core::set_thread_count(0);
  const auto st = cache.stats();
  EXPECT_EQ(st.hits + st.misses, 400u);
  EXPECT_LE(st.entries, 16u);
}

// ---------------------------------------------------------------------------
// Job scheduler

TEST(ServeSchedulerTest, BurstOfDuplicatesRunsOnceAndCoalesces) {
  serve::ResultCache::Config ccfg;
  ccfg.disk_dir = "-";
  serve::ResultCache cache(ccfg);
  serve::JobScheduler::Options opts;
  opts.workers = 1;
  opts.cache = &cache;
  serve::JobScheduler sched(opts);

  const auto req = request_for(tech::TechnologyKind::Glass25D, 777);
  const int kBurst = 6;
  std::vector<serve::JobTicket> tickets;
  for (int i = 0; i < kBurst; ++i) tickets.push_back(sched.submit(req));
  for (const auto& t : tickets) EXPECT_EQ(t.wait(), serve::JobTicket::Status::Done);

  const auto c = sched.counters();
  EXPECT_EQ(c.executed, 1u);
  EXPECT_EQ(c.coalesced, static_cast<std::uint64_t>(kBurst) - 1);
  EXPECT_FALSE(tickets[0].coalesced());
  for (int i = 1; i < kBurst; ++i) {
    EXPECT_TRUE(tickets[static_cast<std::size_t>(i)].coalesced());
    // Coalesced tickets share the underlying job and its result.
    EXPECT_EQ(tickets[static_cast<std::size_t>(i)].job_id(), tickets[0].job_id());
    EXPECT_EQ(tickets[static_cast<std::size_t>(i)].result(), tickets[0].result());
  }

  // The run populated the cache: the next submit is a hit that never queues.
  const auto again = sched.submit(req);
  EXPECT_EQ(again.wait(), serve::JobTicket::Status::Done);
  EXPECT_TRUE(again.from_cache());
  EXPECT_EQ(sched.counters().executed, 1u);
}

TEST(ServeSchedulerTest, PriorityOrdersTheQueue) {
  const FaultScope stall(kBlockerStall);
  serve::JobScheduler::Options opts;
  opts.workers = 1;
  serve::JobScheduler sched(opts);

  const auto blocker = sched.submit(request_for(tech::TechnologyKind::Glass25D, 1));
  wait_until_running(blocker);
  serve::JobScheduler::SubmitOptions low, high;
  low.priority = 0;
  high.priority = 5;
  const auto b = sched.submit(request_for(tech::TechnologyKind::Glass25D, 2), low);
  const auto c = sched.submit(request_for(tech::TechnologyKind::Glass25D, 3), high);
  sched.drain();

  EXPECT_EQ(b.status(), serve::JobTicket::Status::Done);
  EXPECT_EQ(c.status(), serve::JobTicket::Status::Done);
  EXPECT_LT(c.finish_order(), b.finish_order());
  EXPECT_LT(blocker.finish_order(), c.finish_order());
}

TEST(ServeSchedulerTest, ExpiredDeadlineNeverRuns) {
  const FaultScope stall(kBlockerStall);  // only the blocker starts, so only it stalls
  serve::JobScheduler::Options opts;
  opts.workers = 1;
  serve::JobScheduler sched(opts);

  const auto blocker = sched.submit(request_for(tech::TechnologyKind::Glass25D, 1));
  wait_until_running(blocker);
  serve::JobScheduler::SubmitOptions expired;
  expired.deadline = std::chrono::steady_clock::now() - Ms(1);
  const auto late = sched.submit(request_for(tech::TechnologyKind::Glass25D, 2), expired);
  EXPECT_EQ(late.wait(), serve::JobTicket::Status::Expired);
  EXPECT_EQ(blocker.wait(), serve::JobTicket::Status::Done);
  EXPECT_EQ(sched.counters().expired, 1u);
  EXPECT_EQ(sched.counters().executed, 1u);
}

TEST(ServeSchedulerTest, CancelQueuedNotRunning) {
  const FaultScope stall(kBlockerStall);  // only the blocker starts, so only it stalls
  serve::JobScheduler::Options opts;
  opts.workers = 1;
  serve::JobScheduler sched(opts);

  const auto blocker = sched.submit(request_for(tech::TechnologyKind::Glass25D, 1));
  wait_until_running(blocker);
  const auto queued = sched.submit(request_for(tech::TechnologyKind::Glass25D, 2));
  EXPECT_TRUE(sched.cancel(queued.job_id()));
  EXPECT_FALSE(sched.cancel(queued.job_id()));  // already terminal
  EXPECT_FALSE(sched.cancel(blocker.job_id())); // already running
  EXPECT_EQ(queued.wait(), serve::JobTicket::Status::Cancelled);
  EXPECT_EQ(blocker.wait(), serve::JobTicket::Status::Done);
  EXPECT_EQ(sched.counters().cancelled, 1u);
}

// A job cancelled while queued stays in the queue until the worker pops it.
// drain() once waited for that pop without being woken by it, so a drain
// that started between the cancel and the pop slept forever (giad's
// shutdown after a cancelled search hung this way). Cancelling right after
// submitting lets this thread reach drain() before the worker wakes.
TEST(ServeSchedulerTest, DrainReturnsAfterCancelledQueuedJobs) {
  serve::JobScheduler::Options opts;
  opts.workers = 1;
  serve::JobScheduler sched(opts);
  // tiles=0 fails its first stage at once if the worker wins the race.
  serve::FlowRequest req = request_for(tech::TechnologyKind::Glass25D);
  req.options.openpiton.tiles = 0;
  for (int i = 0; i < 50; ++i) {
    req.options.openpiton.seed = 1000 + i;
    sched.cancel(sched.submit(req).job_id());
    auto drained = std::async(std::launch::async, [&sched] { sched.drain(); });
    if (drained.wait_for(std::chrono::seconds(10)) != std::future_status::ready) {
      ADD_FAILURE() << "drain() still waiting after cancel, iteration " << i;
      (void)sched.submit(request_for(tech::TechnologyKind::Glass25D, 2000 + i)).wait();
      return;
    }
  }
}

TEST(ServeSchedulerTest, DependenciesOrderExecutionAndCascadeCancellation) {
  const FaultScope faults;
  serve::JobScheduler::Options opts;
  opts.workers = 2;
  serve::JobScheduler sched(opts);

  // b waits for a even with a free worker.
  const auto a = sched.submit(request_for(tech::TechnologyKind::Glass25D, 1));
  serve::JobScheduler::SubmitOptions after_a;
  after_a.after = {a.job_id()};
  const auto b = sched.submit(request_for(tech::TechnologyKind::Glass25D, 2), after_a);
  EXPECT_EQ(b.wait(), serve::JobTicket::Status::Done);
  EXPECT_LT(a.finish_order(), b.finish_order());

  // A dependency on an unknown (already finished) id is satisfied.
  serve::JobScheduler::SubmitOptions after_unknown;
  after_unknown.after = {987654321u};
  const auto c = sched.submit(request_for(tech::TechnologyKind::Glass25D, 3), after_unknown);
  EXPECT_EQ(c.wait(), serve::JobTicket::Status::Done);

  // Cancelling a held job cascades to its dependents. Both workers are kept
  // busy first, or an idle one could start d before the cancel lands.
  serve::fault::configure(kBlockerStall);
  const auto blocker = sched.submit(request_for(tech::TechnologyKind::Glass25D, 4));
  const auto blocker2 = sched.submit(request_for(tech::TechnologyKind::Glass25D, 7));
  wait_until_running(blocker);
  wait_until_running(blocker2);
  const auto d = sched.submit(request_for(tech::TechnologyKind::Glass25D, 5));
  serve::JobScheduler::SubmitOptions after_d;
  after_d.after = {d.job_id()};
  const auto e = sched.submit(request_for(tech::TechnologyKind::Glass25D, 6), after_d);
  EXPECT_TRUE(sched.cancel(d.job_id()));
  EXPECT_EQ(d.wait(), serve::JobTicket::Status::Cancelled);
  EXPECT_EQ(e.wait(), serve::JobTicket::Status::Cancelled);
  sched.drain();
}

// Regression: cache-hit tickets used to carry id 0 and finish order 0, so
// every hit collided with every other hit, cancel-by-id of a hit was
// undefined, and finish_order() lied about when hits were answered.
TEST(ServeSchedulerTest, CacheHitTicketsCarryRealIdsAndFinishOrder) {
  serve::ResultCache::Config ccfg;
  ccfg.disk_dir = "-";
  serve::ResultCache cache(ccfg);
  serve::JobScheduler::Options opts;
  opts.workers = 1;
  opts.cache = &cache;
  serve::JobScheduler sched(opts);

  const auto req = request_for(tech::TechnologyKind::Glass25D, 42);
  cache.put(serve::request_key(req), make_result(1.0));

  const auto hit1 = sched.submit(req);
  const auto hit2 = sched.submit(req);
  ASSERT_TRUE(hit1.from_cache());
  ASSERT_TRUE(hit2.from_cache());
  EXPECT_GT(hit1.job_id(), 0u);
  EXPECT_GT(hit2.job_id(), hit1.job_id());
  EXPECT_GT(hit1.finish_order(), 0u);
  EXPECT_GT(hit2.finish_order(), hit1.finish_order());
  // A hit is terminal at birth: cancelling its id is a well-defined no.
  EXPECT_FALSE(sched.cancel(hit1.job_id()));
  EXPECT_EQ(hit1.wait(), serve::JobTicket::Status::Done);

  // Hit ids draw from the same sequence as queued jobs: no collisions, and
  // finish order stays truthful across the hit/run boundary.
  const auto run = sched.submit(request_for(tech::TechnologyKind::Glass25D, 43));
  EXPECT_GT(run.job_id(), hit2.job_id());
  EXPECT_EQ(run.wait(), serve::JobTicket::Status::Done);
  EXPECT_GT(run.finish_order(), hit2.finish_order());
}

// Regression: finish_locked used to cascade through dependents recursively,
// one stack frame per link, so cancelling the root of a deep after-chain
// overflowed the stack. The iterative worklist must absorb a 100k chain.
TEST(ServeSchedulerTest, DeepDependencyChainCancelsIteratively) {
  // Pin the single worker: the stall fires once the blocker starts, giving
  // this thread a deterministic window to build and cancel the chain (the
  // root additionally depends on the blocker, so it cannot start early).
  // The stall is long enough for a sanitized chain build; disarming it
  // right after the cancel wakes the worker. Declared after the scheduler,
  // the guard also disarms before the scheduler joins if an assertion
  // returns early.
  serve::JobScheduler::Options opts;
  opts.workers = 1;
  serve::JobScheduler sched(opts);
  const FaultScope stall("sched_stall=1:120000");

  const auto blocker = sched.submit(request_for(tech::TechnologyKind::Glass25D, 1));
  serve::JobScheduler::SubmitOptions after;
  after.after = {blocker.job_id()};
  const auto root = sched.submit(request_for(tech::TechnologyKind::Glass25D, 2), after);

  constexpr int kDepth = 100000;
  after.after = {root.job_id()};
  std::vector<serve::JobTicket> chain;
  chain.reserve(kDepth);
  for (int i = 0; i < kDepth; ++i) {
    chain.push_back(sched.submit(request_for(tech::TechnologyKind::Glass25D, 10 + i), after));
    after.after = {chain.back().job_id()};
  }

  ASSERT_TRUE(sched.cancel(root.job_id()));  // must not overflow the stack
  serve::fault::configure("");               // ends the blocker's stall
  EXPECT_EQ(root.wait(), serve::JobTicket::Status::Cancelled);
  EXPECT_EQ(chain.front().wait(), serve::JobTicket::Status::Cancelled);
  EXPECT_EQ(chain.back().wait(), serve::JobTicket::Status::Cancelled);
  EXPECT_GE(sched.counters().cancelled, static_cast<std::uint64_t>(kDepth) + 1);
  // The cascade finishes parents before their dependents.
  EXPECT_LT(root.finish_order(), chain.front().finish_order());
  EXPECT_LT(chain.front().finish_order(), chain.back().finish_order());
  EXPECT_EQ(blocker.wait(), serve::JobTicket::Status::Done);
  sched.drain();
}

// ---------------------------------------------------------------------------
// Daemon loopback smoke

TEST(ServeDaemonTest, LoopbackProtocolSmoke) {
  serve::ServerOptions opts;
  opts.port = 0;
  opts.scheduler_workers = 1;
  opts.cache_dir = "-";
  serve::Server server(opts);
  std::string err;
  if (!server.start(&err)) GTEST_SKIP() << "cannot bind loopback socket: " << err;

  serve::Client client;
  ASSERT_TRUE(client.connect(server.port(), &err)) << err;
  std::string resp;

  ASSERT_TRUE(client.roundtrip("{\"ping\":true,\"id\":7}", &resp, &err)) << err;
  EXPECT_EQ(resp, "{\"ok\":true,\"id\":7,\"pong\":true}");

  ASSERT_TRUE(client.roundtrip("this is not json", &resp, &err)) << err;
  EXPECT_NE(resp.find("\"ok\":false"), std::string::npos);
  ASSERT_TRUE(client.roundtrip("{\"flow_request\":{\"bogus\":1}}", &resp, &err)) << err;
  EXPECT_NE(resp.find("unknown key"), std::string::npos);

  const std::string line =
      "{\"flow_request\":{\"tech\":\"shinko\"},\"id\":\"first\",\"result\":false}";
  ASSERT_TRUE(client.roundtrip(line, &resp, &err)) << err;
  EXPECT_NE(resp.find("\"ok\":true"), std::string::npos);
  EXPECT_NE(resp.find("\"id\":\"first\""), std::string::npos);
  EXPECT_NE(resp.find("\"cache\":\"miss\""), std::string::npos);
  ASSERT_TRUE(client.roundtrip(line, &resp, &err)) << err;
  EXPECT_NE(resp.find("\"cache\":\"hit\""), std::string::npos);

  ASSERT_TRUE(client.roundtrip("{\"stats\":true}", &resp, &err)) << err;
  // The stats verb reports the kernel-assigned port so port-0 deployments
  // (tests, CI) can discover where the daemon actually listens.
  EXPECT_NE(resp.find("\"port\":" + std::to_string(server.port())), std::string::npos);
  EXPECT_NE(resp.find("\"flow_requests\":2"), std::string::npos);
  EXPECT_NE(resp.find("\"executed\":1"), std::string::npos);
  EXPECT_NE(resp.find("\"cache_hits\":1"), std::string::npos);

  ASSERT_TRUE(client.roundtrip("{\"shutdown\":true}", &resp, &err)) << err;
  EXPECT_NE(resp.find("\"draining\":true"), std::string::npos);
  server.wait();

  const auto st = server.stats();
  EXPECT_EQ(st.flow_requests, 2u);
  EXPECT_EQ(st.scheduler.executed, 1u);
  EXPECT_GE(st.protocol_errors, 2u);
}

/// `line` with the value of every member named in `names` replaced by `#`
/// (timings and the hypervolume, which vary from run to run).
std::string mask_members(std::string line, std::initializer_list<const char*> names) {
  for (const char* name : names) {
    const std::string key = std::string("\"") + name + "\":";
    for (std::size_t p = line.find(key); p != std::string::npos; p = line.find(key, p)) {
      p += key.size();
      line.replace(p, line.find_first_of(",}", p) - p, "#");
    }
  }
  return line;
}

/// Every object key path of `v` in document order, space-separated
/// ("ok stats stats.port ...").
void key_paths(const core::json::Value& v, const std::string& prefix, std::string& out) {
  for (const auto& [k, child] : v.obj) {
    const std::string path = prefix.empty() ? k : prefix + "." + k;
    out += out.empty() ? path : " " + path;
    key_paths(child, path, out);
  }
}

// The wire bytes of every verb, pinned: the ok/id envelope, dispatch
// precedence when a line names two verbs, the generated "unknown request"
// message, the search event stream and the stats key order.
TEST(ServeDaemonTest, VerbResponsesAreStable) {
  serve::ServerOptions opts;
  opts.port = 0;
  opts.scheduler_workers = 1;
  opts.cache_dir = "-";
  serve::Server server(opts);
  std::string err;
  if (!server.start(&err)) GTEST_SKIP() << "cannot bind loopback socket: " << err;
  serve::Client client;
  ASSERT_TRUE(client.connect(server.port(), &err)) << err;

  const std::string flow = R"({"flow_request":{"tech":"shinko"},"id":3,"result":false})";
  const std::string metrics =
      R"({"area_mm2":6.5499999999999998,"cost_usd":0.23634156885964319,)"
      R"("energy_pj_bit":0.078058522766033353,"fmax_MHz":671.80652543684266,)"
      R"("power_mW":423.87908785108147})";
  const std::string shinko = R"({"label":"tech=shinko","metrics":)" + metrics + "}";
  const std::string no_verb =
      "\"unknown request (expected flow_request, search, search_cancel, search_refine, "
      "stats, ping or shutdown)\"";
  const struct {
    std::string line;
    std::vector<std::string> replies;
  } cases[] = {
      {R"({"ping":true,"id":7})", {R"({"ok":true,"id":7,"pong":true})"}},
      {R"({"ping":true,"id":"p"})", {R"({"ok":true,"id":"p","pong":true})"}},
      {flow,
       {R"({"ok":true,"id":3,"status":"done","cache":"miss","key":"5e63dc772b304764",)"
        R"("latency_us":#})"}},
      {flow,
       {R"({"ok":true,"id":3,"status":"done","cache":"hit","key":"5e63dc772b304764",)"
        R"("latency_us":#})"}},
      {R"({"id":1})", {R"({"ok":false,"id":1,"error":)" + no_verb + "}"}},
      {R"({"frobnicate":true})", {R"({"ok":false,"error":)" + no_verb + "}"}},
      {R"({"flow_request":{},"search":{"space":{"tech":["shinko"]}}})",
       {R"({"ok":false,"error":"unknown request field: search"})"}},
      {R"({"search_cancel":1,"search_refine":1})",
       {R"({"ok":false,"error":"unknown request field: search_refine"})"}},
      {R"({"search_cancel":99,"id":4})",
       {R"({"ok":false,"id":4,"error":"unknown search id 99"})"}},
      {R"({"search_refine":1,"rounds":0})",
       {R"({"ok":false,"error":"rounds must be a positive number"})"}},
      {R"({"search":{"space":{"tech":["shinko"]}},"id":5})",
       {R"({"ok":true,"id":5,"event":"search_started","search_id":1,)"
        R"("key":"b86567f928a9cf17","space_points":1,"budget":1})",
        R"({"ok":true,"id":5,"event":"front_updated","search_id":1,"version":1,)"
        R"("hypervolume":#,"front":[)" + shinko + "]}",
        R"({"ok":true,"id":5,"event":"point_evaluated","search_id":1,"index":0,)"
        R"("label":"tech=shinko","key":"5e63dc772b304764","point_ok":true,"feasible":true,)"
        R"("cache":"hit","resident_stages":8,"cache_assisted":true,"metrics":)" + metrics + "}",
        R"({"ok":true,"id":5,"event":"search_done","search_id":1,"status":"done",)"
        R"("space_points":1,"points_evaluated":1,"points_failed":0,"points_infeasible":0,)"
        R"("cache_hits":1,"coalesced":0,"cache_assisted":1,"rounds":0,"front_version":1,)"
        R"("hypervolume":#,"front":[)" + shinko + R"(],"wall_s":#})"}},
  };
  std::string resp;
  for (const auto& c : cases) {
    ASSERT_TRUE(client.send_line(c.line, &err)) << c.line << ": " << err;
    for (const std::string& want : c.replies) {
      ASSERT_TRUE(client.read_line(&resp, &err)) << c.line << ": " << err;
      EXPECT_EQ(mask_members(resp, {"latency_us", "uptime_s", "wall_s", "hypervolume"}), want)
          << c.line;
    }
  }

  ASSERT_TRUE(client.roundtrip(R"({"stats":true,"id":6})", &resp, &err)) << err;
  std::string paths;
  key_paths(core::json::parse(resp), "", paths);
  std::string want =
      "ok id stats stats.port stats.connections stats.requests stats.flow_requests "
      "stats.protocol_errors stats.timeouts stats.oversize_rejections stats.uptime_s "
      "stats.dse stats.dse.searches stats.dse.completed stats.dse.cancelled stats.dse.expired "
      "stats.dse.rejected stats.dse.active stats.dse.points_evaluated stats.dse.front_updates "
      "stats.dse.cache_assisted_points stats.scheduler stats.scheduler.pending "
      "stats.scheduler.submitted stats.scheduler.cache_hits stats.scheduler.coalesced "
      "stats.scheduler.executed stats.scheduler.failed stats.scheduler.cancelled "
      "stats.scheduler.expired stats.scheduler.stage_hits stats.scheduler.stage_misses "
      "stats.cache stats.cache.hits stats.cache.disk_hits stats.cache.misses "
      "stats.cache.insertions stats.cache.evictions stats.cache.disk_writes "
      "stats.cache.disk_errors stats.cache.entries stats.stage_cache stats.stage_cache.enabled "
      "stats.stage_cache.entries stats.stage_cache.capacity stats.stage_cache.hits "
      "stats.stage_cache.misses stats.stage_cache.evictions stats.stage_cache.coalesced "
      "stats.stage_cache.stages";
  for (const char* stage : {"netlist_partition", "chiplet_pnr", "interposer", "links", "eyes",
                            "pdn", "thermal", "rollup"}) {
    const std::string s = std::string(" stats.stage_cache.stages.") + stage;
    want += s + s + ".hits" + s + ".misses" + s + ".evictions" + s + ".coalesced";
  }
  // (A "faults" block would follow stage_cache only while GIA_FAULTS is armed.)
  EXPECT_EQ(paths, want);

  ASSERT_TRUE(client.roundtrip(R"({"shutdown":true,"id":8})", &resp, &err)) << err;
  EXPECT_EQ(resp, R"({"ok":true,"id":8,"draining":true})");
  server.wait();
}

/// Every numeric leaf of `v` as (dotted path, number token), in document order.
void numeric_leaves(const core::json::Value& v, const std::string& prefix,
                    std::vector<std::pair<std::string, std::string>>& out) {
  for (const auto& [k, child] : v.obj) {
    const std::string path = prefix.empty() ? k : prefix + "." + k;
    if (child.kind == core::json::Value::Kind::Number) out.emplace_back(path, child.raw);
    numeric_leaves(child, path, out);
  }
}

// The stats verb and Server::stats() report the same numbers: with every
// counter group driven off zero, each numeric leaf of the response equals
// the snapshot field of the same dotted path (uptime_s aside). The fields
// are named here one by one, apart from the code that renders them.
TEST(ServeDaemonTest, StatsResponseMatchesSnapshot) {
  serve::ServerOptions opts;
  opts.port = 0;
  opts.scheduler_workers = 1;
  opts.cache_dir = "-";
  opts.max_line_bytes = 4096;
  serve::Server server(opts);
  std::string err;
  if (!server.start(&err)) GTEST_SKIP() << "cannot bind loopback socket: " << err;
  std::string resp;
  {
    serve::Client big;
    ASSERT_TRUE(big.connect(server.port(), &err)) << err;
    ASSERT_TRUE(big.roundtrip(std::string(8192, 'x'), &resp, &err)) << err;
    EXPECT_NE(resp.find("request line too long"), std::string::npos) << resp;
  }
  serve::Client client;
  ASSERT_TRUE(client.connect(server.port(), &err)) << err;
  const std::string flow = R"({"flow_request":{"tech":"shinko"},"result":false})";
  // A flow miss, its hit, a rollup-only variant (seven upstream stage-cache
  // hits), a protocol error and a one-point search.
  for (const std::string& line :
       {flow, flow,
        std::string(R"({"flow_request":{"tech":"shinko","rollup_activity_scale":1.5}})"),
        std::string("not json")}) {
    ASSERT_TRUE(client.roundtrip(line, &resp, &err)) << err;
  }
  ASSERT_TRUE(client.send_line(R"({"search":{"space":{"tech":["shinko"]}}})", &err)) << err;
  do {
    ASSERT_TRUE(client.read_line(&resp, &err)) << err;
  } while (resp.find(R"("event":"search_done")") == std::string::npos);

  ASSERT_TRUE(client.roundtrip(R"({"stats":true})", &resp, &err)) << err;
  const serve::Server::Stats s = server.stats();
  EXPECT_GE(s.oversize_rejections, 1u);
  EXPECT_GE(s.protocol_errors, 2u);
  EXPECT_GE(s.dse.searches, 1u);
  EXPECT_GE(s.scheduler.executed, 1u);
  EXPECT_GE(s.cache.hits, 1u);
  EXPECT_GE(s.stage_cache.total_hits(), 1u);

  std::vector<std::pair<std::string, std::uint64_t>> want = {
      {"port", static_cast<std::uint64_t>(s.port)},
      {"connections", s.connections},
      {"requests", s.requests},
      {"flow_requests", s.flow_requests},
      {"protocol_errors", s.protocol_errors},
      {"timeouts", s.timeouts},
      {"oversize_rejections", s.oversize_rejections},
      {"dse.searches", s.dse.searches},
      {"dse.completed", s.dse.completed},
      {"dse.cancelled", s.dse.cancelled},
      {"dse.expired", s.dse.expired},
      {"dse.rejected", s.dse.rejected},
      {"dse.active", s.dse.active},
      {"dse.points_evaluated", s.dse.points_evaluated},
      {"dse.front_updates", s.dse.front_updates},
      {"dse.cache_assisted_points", s.dse.cache_assisted_points},
      {"scheduler.pending", s.scheduler_pending},
      {"scheduler.submitted", s.scheduler.submitted},
      {"scheduler.cache_hits", s.scheduler.cache_hits},
      {"scheduler.coalesced", s.scheduler.coalesced},
      {"scheduler.executed", s.scheduler.executed},
      {"scheduler.failed", s.scheduler.failed},
      {"scheduler.cancelled", s.scheduler.cancelled},
      {"scheduler.expired", s.scheduler.expired},
      {"scheduler.stage_hits", s.scheduler.stage_hits},
      {"scheduler.stage_misses", s.scheduler.stage_misses},
      {"cache.hits", s.cache.hits},
      {"cache.disk_hits", s.cache.disk_hits},
      {"cache.misses", s.cache.misses},
      {"cache.insertions", s.cache.insertions},
      {"cache.evictions", s.cache.evictions},
      {"cache.disk_writes", s.cache.disk_writes},
      {"cache.disk_errors", s.cache.disk_errors},
      {"cache.entries", s.cache.entries},
      {"stage_cache.entries", s.stage_cache.entries},
      {"stage_cache.capacity", s.stage_cache.capacity},
      {"stage_cache.hits", s.stage_cache.total_hits()},
      {"stage_cache.misses", s.stage_cache.total_misses()},
      {"stage_cache.evictions", s.stage_cache.total_evictions()},
      {"stage_cache.coalesced", s.stage_cache.total_coalesced()},
  };
  const char* stages[] = {"netlist_partition", "chiplet_pnr", "interposer", "links",
                          "eyes",              "pdn",         "thermal",    "rollup"};
  for (std::size_t i = 0; i < std::size(stages); ++i) {
    const std::string p = std::string("stage_cache.stages.") + stages[i] + ".";
    const auto& ps = s.stage_cache.stage[i];
    want.insert(want.end(), {{p + "hits", ps.hits},
                             {p + "misses", ps.misses},
                             {p + "evictions", ps.evictions},
                             {p + "coalesced", ps.coalesced}});
  }

  const core::json::Value top = core::json::parse(resp);
  EXPECT_EQ(top.at("stats").at("stage_cache").at("enabled").as_bool(), s.stage_cache.enabled);
  std::vector<std::pair<std::string, std::string>> leaves;
  numeric_leaves(top.at("stats"), "", leaves);
  std::size_t matched = 0;
  for (const auto& [path, token] : leaves) {
    if (path == "uptime_s") continue;
    const auto it = std::find_if(want.begin(), want.end(),
                                 [&](const auto& w) { return w.first == path; });
    ASSERT_NE(it, want.end()) << "stats leaf with no snapshot field: " << path;
    EXPECT_EQ(token, std::to_string(it->second)) << path;
    ++matched;
  }
  EXPECT_EQ(matched, want.size());

  ASSERT_TRUE(client.roundtrip(R"({"shutdown":true})", &resp, &err)) << err;
  server.wait();
}

// Each verb accepts every field of its verb-table row (the pinned test
// above covers the rejections): a row that lost a field would answer these
// lines with "unknown request field".
TEST(ServeDaemonTest, EveryVerbFieldIsAccepted) {
  serve::ServerOptions opts;
  opts.port = 0;
  opts.scheduler_workers = 1;
  opts.cache_dir = "-";
  serve::Server server(opts);
  std::string err;
  if (!server.start(&err)) GTEST_SKIP() << "cannot bind loopback socket: " << err;
  serve::Client client;
  ASSERT_TRUE(client.connect(server.port(), &err)) << err;
  std::string resp;

  ASSERT_TRUE(client.roundtrip(R"({"flow_request":{"tech":"shinko"},"id":1,"priority":3,)"
                               R"("deadline_ms":600000,"after":[],"result":false})",
                               &resp, &err))
      << err;
  EXPECT_NE(resp.find(R"({"ok":true,"id":1,"status":"done")"), std::string::npos) << resp;
  ASSERT_TRUE(client.send_line(
      R"({"search":{"space":{"tech":["shinko"]}},"id":2,"deadline_ms":600000})", &err))
      << err;
  do {
    ASSERT_TRUE(client.read_line(&resp, &err)) << err;
    EXPECT_EQ(resp.rfind(R"({"ok":true,"id":2,"event":)", 0), 0u) << resp;
  } while (resp.find(R"("event":"search_done")") == std::string::npos);
  for (const char* line :
       {R"({"search_cancel":5,"id":3})", R"({"search_refine":5,"rounds":2,"id":3})"}) {
    ASSERT_TRUE(client.roundtrip(line, &resp, &err)) << err;
    EXPECT_EQ(resp, R"({"ok":false,"id":3,"error":"unknown search id 5"})") << line;
  }
  for (const char* verb : {"stats", "ping", "shutdown"}) {
    ASSERT_TRUE(client.roundtrip(std::string("{\"") + verb + "\":true,\"id\":4}", &resp, &err))
        << err;
    EXPECT_EQ(resp.rfind(R"({"ok":true,"id":4,)", 0), 0u) << resp;
  }
  server.wait();
  EXPECT_EQ(server.stats().protocol_errors, 2u);
}

// ---------------------------------------------------------------------------
// Server flags (giad and giaflow serve)

bool parse_flags(std::vector<const char*> argv, serve::ServerOptions* opts, std::string* err) {
  return serve::parse_server_args(static_cast<int>(argv.size()), argv.data(), opts, err);
}

TEST(ServeArgsTest, AcceptsEveryFlag) {
  serve::ServerOptions o;
  std::string err;
  ASSERT_TRUE(parse_flags({"--port", "0", "--workers", "3", "--conn-workers", "5",
                           "--cache-capacity", "256", "--cache-dir", "-",
                           "--idle-timeout-ms", "1500", "--io-timeout-ms", "0",
                           "--max-conn-ms", "9000", "--max-line-bytes", "4096",
                           "--max-search-points", "0", "--max-active-searches", "4",
                           "--max-search-ms", "60000"},
                          &o, &err))
      << err;
  EXPECT_EQ(o.port, 0);
  EXPECT_EQ(o.scheduler_workers, 3);
  EXPECT_EQ(o.connection_workers, 5);
  EXPECT_EQ(o.cache_capacity, 256u);
  EXPECT_EQ(o.cache_dir, "-");
  EXPECT_EQ(o.idle_timeout_ms, 1500);
  EXPECT_EQ(o.io_timeout_ms, 0);
  EXPECT_EQ(o.max_connection_ms, 9000);
  EXPECT_EQ(o.max_line_bytes, 4096u);
  EXPECT_EQ(o.max_search_points, 0u);
  EXPECT_EQ(o.max_active_searches, 4);
  EXPECT_EQ(o.max_search_ms, 60000);

  serve::ServerOptions defaults;
  EXPECT_TRUE(parse_flags({}, &defaults, &err));
  EXPECT_EQ(defaults.port, serve::ServerOptions().port);

  // The usage text giad and giaflow print comes from the same flag table.
  const std::string usage = serve::server_args_usage(12);
  for (const char* flag : {"--port N", "--workers N", "--conn-workers N", "--cache-capacity N",
                           "--cache-dir DIR", "--idle-timeout-ms N", "--io-timeout-ms N",
                           "--max-conn-ms N", "--max-line-bytes N", "--max-search-points N",
                           "--max-active-searches N", "--max-search-ms N"})
    EXPECT_NE(usage.find(std::string("[") + flag + "]"), std::string::npos) << usage;
}

TEST(ServeArgsTest, RejectsUnknownFlagsAndMalformedNumbers) {
  const std::vector<std::vector<const char*>> bad = {
      {"--frobnicate"},                // unknown flag
      {"--port", "abc"},               // non-numeric (atoi would bind port 0)
      {"--port", "7411x"},             // trailing garbage
      {"--port", "70000"},             // out of range
      {"--workers", "0"},              // below the minimum
      {"--idle-timeout-ms", "-1"},     // negative
      {"--cache-capacity", ""},        // empty token
      {"--max-conn-ms"},               // missing value
      {"--max-search-ms", "2147483648"},             // above int
      {"--max-line-bytes", "99999999999999999999"},  // beyond long long
      {"--cache-dir"},                               // missing text value
  };
  for (const auto& argv : bad) {
    serve::ServerOptions o;
    std::string err;
    EXPECT_FALSE(parse_flags(argv, &o, &err)) << argv[0];
    EXPECT_NE(err.find(argv[0]), std::string::npos) << err;
  }

  // giaflow's own integers (--threads, ports, search ids, rounds,
  // --deadline-ms) follow the same rule: atoi read "abc" as 0 and let an id
  // like `1,"x":2` splice fields into the request line.
  const struct {
    const char* name;
    const char* text;
    long long min, max;
  } args[] = {
      {"--threads", "abc", 1, 1 << 20},   {"<port>", "abc", 1, 65535},
      {"<port>", "0", 1, 65535},          {"<id>", "1,\"x\":2", 1, 1LL << 62},
      {"rounds", "0", 1, 1 << 20},        {"--deadline-ms", "2147483648", 0, 2147483647},
  };
  for (const auto& a : args) {
    long long v = -7;
    std::string err;
    EXPECT_FALSE(serve::parse_int_arg(a.name, a.text, a.min, a.max, &v, &err)) << a.text;
    EXPECT_EQ(v, -7) << a.text;
    EXPECT_NE(err.find(a.name), std::string::npos) << err;
    EXPECT_NE(err.find(a.text), std::string::npos) << err;
  }
  long long port = 0;
  EXPECT_TRUE(serve::parse_int_arg("<port>", "7411", 1, 65535, &port));
  EXPECT_EQ(port, 7411);

  // Its real-number sibling (`giaflow eye` lengths and rates, flow flags):
  // atof read "abc" as a 0 um channel and exited 0.
  for (const char* text : {"abc", "", "nan", "1e999", "0", "-5", "12um"}) {
    double v = -7;
    std::string err;
    EXPECT_FALSE(serve::parse_double_arg("<len_um>", text, 1, 1e5, &v, &err)) << text;
    EXPECT_EQ(v, -7) << text;
    EXPECT_NE(err.find("<len_um>"), std::string::npos) << err;
    EXPECT_NE(err.find(std::string("'") + text + "'"), std::string::npos) << err;
  }
  double len = 0;
  EXPECT_TRUE(serve::parse_double_arg("<len_um>", "1500.5", 1, 1e5, &len));
  EXPECT_EQ(len, 1500.5);
}

}  // namespace
}  // namespace gia
