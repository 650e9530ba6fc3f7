#include "workloads.hpp"

#include <atomic>
#include <cmath>
#include <cstdio>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "core/instrument.hpp"
#include "core/json.hpp"
#include "core/serialize.hpp"
#include "core/stagegraph.hpp"
#include "replay.hpp"
#include "serve/daemon.hpp"
#include "serve/request.hpp"
#include "tech/library.hpp"

namespace perfbench {

using namespace gia;
namespace ins = core::instrument;
namespace stage = core::stage;

namespace {

/// splitmix64: a small seeded generator with the same sequence everywhere.
struct Rng {
  std::uint64_t s;
  std::uint64_t next() {
    std::uint64_t z = (s += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
};

/// The benchmark seed offsets the library's default netlist and partition
/// seeds, so the default seed (0) runs the library's default inputs.
unsigned netlist_seed(std::uint64_t seed) {
  return netlist::OpenPitonConfig{}.seed + static_cast<unsigned>(seed);
}
unsigned partition_seed(std::uint64_t seed) {
  return partition::FmConfig{}.seed + static_cast<unsigned>(seed);
}

/// Sanity of every checked result: finite, positive power and clock, a
/// routed interposer.
bool sane(const core::TechnologyResult& r, std::string* why) {
  const auto& st = r.interposer.routes.stats;
  if (!(std::isfinite(r.total_power_w) && r.total_power_w > 0)) *why = "total_power_w";
  else if (!(std::isfinite(r.system_fmax_hz) && r.system_fmax_hz > 0)) *why = "system_fmax_hz";
  else if (!std::isfinite(st.total_wl_um)) *why = "routed wirelength";
  else if (r.interposer.routes.nets.empty()) *why = "no routed nets";
  else return true;
  return false;
}

/// Per-key reference digests: the recorded table on the default seed, the
/// first evaluation on any other seed (later ones must then repeat it).
class DigestCheck {
 public:
  DigestCheck(RunContext& ctx, const std::string& workload) : ctx_(ctx) {
    if (ctx.args.seed == kDefaultSeed && !ctx.args.record) {
      const auto it = ctx.recorded.find(workload);
      if (it == ctx.recorded.end()) throw std::runtime_error("no recorded digests for " + workload);
      ctx.digests = it->second;
      fixed_ = true;
    }
  }

  /// Check one result against the reference for `key`; returns false (with
  /// `*why`) on a mismatch or an insane result.
  bool check(const std::string& key, const core::TechnologyResult& r, std::string* why) {
    if (!sane(r, why)) {
      *why = key + ": insane " + *why;
      return false;
    }
    const std::string digest = result_digest(r);
    std::lock_guard<std::mutex> lk(mu_);
    const auto it = ctx_.digests.find(key);
    if (it == ctx_.digests.end()) {
      if (fixed_) {
        *why = key + ": no recorded digest";
        return false;
      }
      ctx_.digests[key] = digest;
      return true;
    }
    if (it->second != digest) {
      *why = key + ": digest " + digest + " != reference " + it->second;
      return false;
    }
    return true;
  }

 private:
  RunContext& ctx_;
  std::mutex mu_;
  bool fixed_ = false;
};

/// One flow evaluation of an op, named for its digest key.
struct FlowCase {
  std::string name;
  tech::TechnologyKind kind;
  core::FlowOptions opts;
};

/// Time `fn` over `seconds` (at least once); returns the per-call seconds.
std::vector<double> timed_loop(double seconds, const std::function<void()>& fn) {
  std::vector<double> lat;
  const auto t0 = Clock::now();
  do {
    const auto t = Clock::now();
    fn();
    lat.push_back(seconds_since(t));
  } while (seconds_since(t0) < seconds);
  return lat;
}

/// Median microseconds of `request_from_json` + `request_key` per line.
double parse_key_us(const std::vector<std::string>& lines) {
  std::vector<double> us;
  for (int rep = 0; rep < 200; ++rep) {
    for (const std::string& line : lines) {
      const auto t = Clock::now();
      (void)serve::request_key(serve::request_from_json(line));
      us.push_back(seconds_since(t) * 1e6);
    }
  }
  return quantile(us, 0.5);
}

/// Sum of the aggregated span named `name` anywhere in the report tree.
std::uint64_t span_total_ns(const ins::SpanSnapshot& s, const std::string& name) {
  std::uint64_t ns = s.name == name ? s.total_ns : 0;
  for (const auto& c : s.children) ns += span_total_ns(c, name);
  return ns;
}

std::uint64_t counter(const ins::RunReport& rr, ins::Counter c) {
  for (const auto& [name, v] : rr.counters) {
    if (name == ins::counter_name(c)) return v;
  }
  return 0;
}

/// Per-layer metrics every workload reports from its traced run: the stage
/// walls of the traced end-to-end ops (per op) and the layer replay's spans.
void layer_metrics(const ins::RunReport& rr, double ops, double pnr_stage_wall_s,
                   const Trace& t, Report& rep) {
  for (const auto& si : stage::registry()) {
    rep.set(std::string("core.stage.") + si.name + "_s",
            static_cast<double>(span_total_ns(rr.root, si.span_name)) * 1e-9 / ops, "s");
  }
  rep.set("circuit.transient_steps",
          static_cast<double>(counter(rr, ins::Counter::TransientSteps)) / ops, "count");
  rep.set("circuit.lu_solves", static_cast<double>(counter(rr, ins::Counter::LuSolves)) / ops,
          "count");
  rep.set("netlist.build_s", t.total_s("netlist.build"), "s");
  rep.set("partition.partition_s", t.total_s("partition.partition"), "s");
  const double busy = t.total_s("chiplet.pnr_die");
  rep.set("chiplet.pnr_busy_s", busy, "s");
  rep.set("chiplet.pnr_die_p50_ms", quantile(t.durations_s("chiplet.pnr_die"), 0.5) * 1e3, "ms");
  rep.set("core.pnr_parallel_speedup", pnr_stage_wall_s > 0 ? busy / pnr_stage_wall_s : 0,
          "ratio");
  rep.set("interposer.floorplan_s", t.total_s("interposer.floorplan"), "s");
  rep.set("interposer.route_s", t.total_s("interposer.route"), "s");
  rep.set("signal.link_s", t.total_s("replay/links"), "s");
  rep.set("signal.eye_s", t.total_s("replay/eyes"), "s");
  rep.set("pdn.solve_s", t.total_s("replay/pdn"), "s");
  rep.set("thermal.solve_s", t.total_s("replay/thermal"), "s");
}

/// Replay `c` layer by layer and require the flow's own output.
core::TechnologyResult replay_checked(RunContext& ctx, const FlowCase& c,
                                      const std::string& expect_digest, Report& rep) {
  core::TechnologyResult r = replay_flow(c.kind, c.opts, ctx.trace);
  const std::string d = result_digest(r);
  if (d != expect_digest) {
    rep.fail("replay of " + c.name + " gives digest " + d + ", the flow gave " + expect_digest);
  }
  return r;
}

void run_flow_workload(RunContext& ctx, const std::string& workload,
                       const std::vector<FlowCase>& cases, Report& rep) {
  const Args& a = ctx.args;
  stage::set_stage_cache_enabled(false);
  stage::stage_cache_clear();
  DigestCheck check(ctx, workload);

  // One op: every case, cold. Returns false when any output check fails.
  const auto op = [&]() {
    bool ok = true;
    for (const FlowCase& c : cases) {
      std::string why;
      if (!check.check(c.name, stage::execute_flow(c.kind, c.opts), &why)) {
        rep.fail(why);
        ok = false;
      }
    }
    return ok;
  };

  // Set-up: process start plus one untimed warm-up op, repeated; the
  // warm-up on the default seed is already checked against the record.
  std::vector<double> setups;
  for (int i = 0; i < kSetups; ++i) {
    const auto t = Clock::now();
    if (!op()) rep.fail("warm-up op failed");
    setups.push_back(ctx.static_init_s + seconds_since(t));
  }

  if (a.trace) ins::set_enabled(true);
  ins::reset();
  std::uint64_t failed = 0;
  const std::vector<double> lat = timed_loop(a.seconds, [&] { failed += op() ? 0 : 1; });
  rep.attempted = lat.size();
  rep.failed = failed;
  double wall = 0;
  for (const double s : lat) wall += s;
  const double p50_ms = quantile(lat, 0.5) * 1e3;
  std::fprintf(stderr, "perfbench: %s op ms:", workload.c_str());
  for (const double s : lat) std::fprintf(stderr, " %.1f", s * 1e3);
  std::fprintf(stderr, "\n");

  if (!a.trace) {
    rep.set("setup_s", quantile(setups, 0.5), "s");
    rep.set("op_p50_ms", p50_ms, "ms");
    rep.set("op_p99_ms", quantile(lat, 0.99) * 1e3, "ms");
    rep.set("miss_p50_ms", p50_ms, "ms");  // every op is a cold evaluation
    rep.set("ops_per_s", static_cast<double>(lat.size()) / wall, "1/s");
    rep.set("max_rss_mb", max_rss_mb(), "MiB");
    return;
  }

  const ins::RunReport rr = ins::RunReport::capture();
  ins::set_enabled(false);
  const double ops = static_cast<double>(lat.size());
  const double pnr_wall = static_cast<double>(span_total_ns(rr.root, "flow/chiplet_pnr")) * 1e-9 / ops;

  std::vector<std::string> lines;
  int routed = 0, overflowed = 0;
  for (const FlowCase& c : cases) {
    const core::TechnologyResult r = replay_checked(ctx, c, ctx.digests[c.name], rep);
    routed += r.interposer.routes.stats.routed_nets;
    overflowed += r.interposer.routes.stats.overflowed_cells;
    lines.push_back(serve::request_to_json(serve::FlowRequest{c.kind, c.opts}));
  }
  layer_metrics(rr, ops, pnr_wall, ctx.trace, rep);
  rep.set("interposer.routed_nets", routed, "count");
  rep.set("interposer.overflowed_cells", overflowed, "count");
  rep.set("serve.parse_key_us", parse_key_us(lines), "us");
  // No daemon and no stage cache in this workload: its serve counters are 0.
  rep.set("serve.result_hit_ratio", 0, "ratio");
  rep.set("serve.flows_executed", 0, "count");
  rep.set("serve.coalesced", 0, "count");
  const auto sc = stage::stage_cache_stats();
  const double looked_up = static_cast<double>(sc.total_hits() + sc.total_misses());
  rep.set("core.stage_hit_ratio", looked_up > 0 ? sc.total_hits() / looked_up : 0, "ratio");
  rep.set("trace.op_p50_ms", p50_ms, "ms");
}

// --- giad_session ---------------------------------------------------------

constexpr int kClients = 3;
constexpr int kNewOneIn = 50;
constexpr int kSessionChiplets = 16;
// Coarser clusters than the flow default keep priming the 16-die upstream
// artifacts to a few seconds.
constexpr int kSessionClusterCells = 2000;

/// The `flow_request` object of one interposer-subtree variant.
std::string session_request(std::uint64_t seed, const char* arrangement, double pitch_scale,
                            double via_cost_um) {
  char buf[512];
  std::snprintf(buf, sizeof buf,
                "{\"tech\":\"glass25d\",\"openpiton\":{\"cluster_cells\":%d,\"seed\":%u},"
                "\"fm\":{\"seed\":%u},\"system\":{\"chiplets\":%d,\"arrangement\":\"%s\","
                "\"memory_every\":2,\"pitch_scale\":%.2f},\"router\":{\"via_cost_um\":%.1f}}",
                kSessionClusterCells, netlist_seed(seed), partition_seed(seed), kSessionChiplets,
                arrangement, pitch_scale, via_cost_um);
  return buf;
}

std::string request_line(const std::string& flow_request, std::uint64_t id, bool result) {
  return "{\"flow_request\":" + flow_request + ",\"id\":" + std::to_string(id) +
         ",\"result\":" + (result ? "true" : "false") + "}";
}

struct SessionKey {
  std::string flow_request;
  std::string line;  ///< the session's request line ("result":false)
  std::string hex;   ///< content-addressed request key
};

/// The fixed key space: arrangement x pitch_scale x router.via_cost_um.
std::vector<SessionKey> session_keys(std::uint64_t seed) {
  std::vector<SessionKey> keys;
  for (const char* arr : {"grid", "hex", "floorplan"}) {
    for (const double pitch : {1.0, 1.1, 1.2, 1.3}) {
      for (const double via : {20.0, 40.0, 80.0}) {
        SessionKey k;
        k.flow_request = session_request(seed, arr, pitch, via);
        k.line = request_line(k.flow_request, keys.size() + 1, false);
        k.hex = serve::key_hex(serve::request_key(serve::request_from_json(k.flow_request)));
        keys.push_back(std::move(k));
      }
    }
  }
  return keys;
}

bool has(const std::string& s, const char* needle) { return s.find(needle) != std::string::npos; }

/// The requests of one session and what came back.
struct Session {
  std::mutex mu;
  std::vector<int> answered;  ///< key indices some client has an answer for
  std::size_t next_new = 0;   ///< position in the seeded new-key order
  std::vector<double> hit_s, miss_s;
  std::uint64_t attempted = 0, failed = 0;
  std::vector<std::string> errors;
};

/// One closed-loop client: sends the next request when the last returns.
void client_loop(int port, int client, std::uint64_t seed, const std::vector<SessionKey>& keys,
                 const std::vector<int>& order, Clock::time_point deadline, Session& s) {
  Rng rng{seed * 0x100000001b3ull + static_cast<std::uint64_t>(client)};
  serve::Client cl;
  std::string resp, err;
  std::vector<double> hit_s, miss_s;
  std::uint64_t attempted = 0, failed = 0;
  std::vector<std::string> errors;
  while (Clock::now() < deadline) {
    int idx = -1;
    bool fresh = false;
    {
      std::lock_guard<std::mutex> lk(s.mu);
      const bool want_new = s.answered.empty() || rng.next() % kNewOneIn == 0;
      if (want_new && s.next_new < order.size()) {
        idx = order[s.next_new++];
        fresh = true;
      } else if (!s.answered.empty()) {
        idx = s.answered[rng.next() % s.answered.size()];
      }
    }
    if (idx < 0) {  // every key is in flight and none answered yet
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      continue;
    }
    ++attempted;
    if (!cl.connected() && !cl.connect(port, &err)) {
      ++failed;
      errors.push_back("connect: " + err);
      continue;
    }
    const auto t = Clock::now();
    const bool io_ok = cl.roundtrip(keys[static_cast<std::size_t>(idx)].line, &resp, &err);
    const double dt = seconds_since(t);
    const char* want = fresh ? "\"cache\":\"miss\"" : "\"cache\":\"hit\"";
    if (!io_ok || !has(resp, "\"ok\":true") || !has(resp, want)) {
      ++failed;
      if (errors.size() < 5) errors.push_back(io_ok ? resp.substr(0, 200) : "io: " + err);
      if (!io_ok) cl.close();
      if (fresh) {  // still counts as sent; a repeat of it checks it again
        std::lock_guard<std::mutex> lk(s.mu);
        s.answered.push_back(idx);
      }
      continue;
    }
    if (fresh) {
      miss_s.push_back(dt);
      std::lock_guard<std::mutex> lk(s.mu);
      s.answered.push_back(idx);
    } else {
      hit_s.push_back(dt);
    }
  }
  std::lock_guard<std::mutex> lk(s.mu);
  s.hit_s.insert(s.hit_s.end(), hit_s.begin(), hit_s.end());
  s.miss_s.insert(s.miss_s.end(), miss_s.begin(), miss_s.end());
  s.attempted += attempted;
  s.failed += failed;
  s.errors.insert(s.errors.end(), errors.begin(), errors.end());
}

std::unique_ptr<serve::Server> boot_server(std::string* err) {
  serve::ServerOptions so;
  so.port = 0;
  so.connection_workers = kClients + 1;
  so.scheduler_workers = 2;
  so.cache_capacity = 1024;  // far above the key space: nothing is evicted
  so.cache_dir = "-";        // memory only
  auto server = std::make_unique<serve::Server>(so);
  if (!server->start(err)) return nullptr;
  return server;
}

}  // namespace

void run_paper6(RunContext& ctx, Report& rep) {
  std::vector<FlowCase> cases;
  for (const auto kind : {tech::TechnologyKind::Glass25D, tech::TechnologyKind::Glass3D,
                          tech::TechnologyKind::Silicon25D, tech::TechnologyKind::Silicon3D,
                          tech::TechnologyKind::Shinko, tech::TechnologyKind::APX}) {
    FlowCase c{tech::short_name(kind), kind, {}};
    c.opts.openpiton.seed = netlist_seed(ctx.args.seed);
    c.opts.with_eyes = true;
    c.opts.with_thermal = true;
    cases.push_back(std::move(c));
  }
  run_flow_workload(ctx, "paper6", cases, rep);
}

void run_grid16(RunContext& ctx, Report& rep) {
  FlowCase c{"grid16", tech::TechnologyKind::Glass25D, {}};
  c.opts.openpiton.seed = netlist_seed(ctx.args.seed);
  c.opts.fm.seed = partition_seed(ctx.args.seed);
  c.opts.system.chiplets = 16;
  c.opts.system.arrangement = chiplet::Arrangement::Grid;
  c.opts.system.memory_every = 2;
  run_flow_workload(ctx, "grid16", {c}, rep);
}

void run_giad_session(RunContext& ctx, Report& rep) {
  const Args& a = ctx.args;
  DigestCheck check(ctx, "giad_session");
  const std::vector<SessionKey> keys = session_keys(a.seed);
  std::vector<int> order(keys.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = static_cast<int>(i);
  Rng shuffle{a.seed};
  for (std::size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[shuffle.next() % i]);
  }
  // The priming request shares every upstream stage with the key space but
  // uses a pitch outside it, so each session key is new to the result cache.
  const std::string prime = request_line(session_request(a.seed, "grid", 1.4, 40.0), 0, false);

  stage::set_stage_cache_enabled(true);
  stage::set_stage_cache_capacity(4096);
  if (a.trace) ins::set_enabled(true);

  // Set-up: boot the daemon and prime the upstream artifacts, repeated from
  // an empty stage cache; the last daemon serves the session.
  std::unique_ptr<serve::Server> server;
  std::vector<double> setups;
  double pnr_stage_wall_s = 0;
  for (int i = 0; i < kSetups; ++i) {
    if (server) {
      server->request_stop();
      server->wait();
    }
    stage::stage_cache_clear();
    ins::reset();
    const auto t = Clock::now();
    std::string err, resp;
    server = boot_server(&err);
    serve::Client cl;
    if (!server || !cl.connect(server->port(), &err) || !cl.roundtrip(prime, &resp, &err) ||
        !has(resp, "\"ok\":true")) {
      rep.fail("set-up failed: " + err + resp.substr(0, 200));
      rep.attempted = rep.failed = 1;
      return;
    }
    setups.push_back(ctx.static_init_s + seconds_since(t));
    pnr_stage_wall_s =
        static_cast<double>(span_total_ns(ins::RunReport::capture().root, "flow/chiplet_pnr")) *
        1e-9;
  }
  const auto stage_before = stage::stage_cache_stats();
  const auto serve_before = server->stats();
  ins::reset();

  Session s;
  const auto t0 = Clock::now();
  const auto deadline = t0 + std::chrono::duration_cast<Clock::duration>(
                                 std::chrono::duration<double>(a.seconds));
  {
    std::vector<std::thread> clients;
    for (int c = 0; c < kClients; ++c) {
      clients.emplace_back(client_loop, server->port(), c, a.seed, std::cref(keys),
                           std::cref(order), deadline, std::ref(s));
    }
    for (auto& th : clients) th.join();
  }
  const double wall = seconds_since(t0);
  const ins::RunReport rr = ins::RunReport::capture();
  ins::set_enabled(false);
  const auto serve_after = server->stats();
  const auto stage_after = stage::stage_cache_stats();
  rep.attempted = s.attempted;
  rep.failed = s.failed;
  for (const auto& e : s.errors) rep.fail("request failed: " + e);

  // Output check: every key sent is fetched once with its result and must
  // equal an in-process evaluation (from an emptied stage cache) and, on
  // the default seed, the recorded digest.
  const std::size_t sent = s.next_new;
  std::vector<std::string> served(sent);
  {
    serve::Client cl;
    std::string err, resp;
    if (!cl.connect(server->port(), &err)) rep.fail("check connect: " + err);
    for (std::size_t i = 0; i < sent; ++i) {
      const SessionKey& k = keys[static_cast<std::size_t>(order[i])];
      try {
        if (!cl.roundtrip(request_line(k.flow_request, 100000 + i, true), &resp, &err)) {
          throw std::runtime_error(err);
        }
        served[i] = result_digest(
            core::technology_result_from_value(core::json::parse(resp).at("result")));
      } catch (const std::exception& e) {
        rep.fail("check fetch " + k.hex + ": " + e.what());
      }
    }
  }
  // The in-process evaluations run on kClients threads; concurrent requests
  // for the shared upstream stages coalesce onto one computation.
  stage::stage_cache_clear();
  std::vector<core::TechnologyResult> local(sent);
  std::vector<std::string> local_error(sent);
  {
    std::atomic<std::size_t> next{0};
    std::vector<std::thread> workers;
    for (int w = 0; w < kClients; ++w) {
      workers.emplace_back([&] {
        std::size_t i = next.fetch_add(1);
        for (; i < sent; i = next.fetch_add(1)) {
          try {
            const serve::FlowRequest req =
                serve::request_from_json(keys[static_cast<std::size_t>(order[i])].flow_request);
            local[i] = stage::execute_flow(req.tech, req.options);
          } catch (const std::exception& e) {
            local_error[i] = e.what();
          }
        }
      });
    }
    for (auto& th : workers) th.join();
  }
  for (std::size_t i = 0; i < sent; ++i) {
    const std::string& hex = keys[static_cast<std::size_t>(order[i])].hex;
    std::string why;
    if (!local_error[i].empty()) {
      rep.fail(hex + ": in-process flow failed: " + local_error[i]);
      continue;
    }
    if (result_digest(local[i]) != served[i]) rep.fail(hex + ": served result != in-process flow");
    if (!check.check(hex, local[i], &why)) rep.fail(why);
  }

  const std::uint64_t executed = serve_after.scheduler.executed - serve_before.scheduler.executed;
  if (executed != sent) {
    rep.fail("flows executed " + std::to_string(executed) + " != distinct keys " +
             std::to_string(sent));
  }
  server->request_stop();
  server->wait();

  const double hit_p50_ms = quantile(s.hit_s, 0.5) * 1e3;
  if (!a.trace) {
    rep.set("setup_s", quantile(setups, 0.5), "s");
    rep.set("op_p50_ms", hit_p50_ms, "ms");
    rep.set("op_p99_ms", quantile(s.hit_s, 0.99) * 1e3, "ms");
    rep.set("miss_p50_ms", quantile(s.miss_s, 0.5) * 1e3, "ms");
    rep.set("ops_per_s", static_cast<double>(s.attempted - s.failed) / wall, "1/s");
    rep.set("max_rss_mb", max_rss_mb(), "MiB");
    return;
  }

  // Per-layer: stage walls per executed flow; the replay covers the first
  // new key, whose upstream layers are the work set-up primed.
  const FlowCase first{keys[static_cast<std::size_t>(order[0])].hex, tech::TechnologyKind::Glass25D,
                       serve::request_from_json(keys[static_cast<std::size_t>(order[0])].flow_request)
                           .options};
  const core::TechnologyResult r = replay_checked(ctx, first, ctx.digests[first.name], rep);
  layer_metrics(rr, std::max<double>(1, static_cast<double>(executed)), pnr_stage_wall_s,
                ctx.trace, rep);
  rep.set("interposer.routed_nets", r.interposer.routes.stats.routed_nets, "count");
  rep.set("interposer.overflowed_cells", r.interposer.routes.stats.overflowed_cells, "count");
  std::vector<std::string> lines;
  for (const auto& k : keys) lines.push_back(k.flow_request);
  rep.set("serve.parse_key_us", parse_key_us(lines), "us");
  const double hits = static_cast<double>(serve_after.cache.hits - serve_before.cache.hits);
  const double misses = static_cast<double>(serve_after.cache.misses - serve_before.cache.misses);
  rep.set("serve.result_hit_ratio", hits + misses > 0 ? hits / (hits + misses) : 0, "ratio");
  rep.set("serve.flows_executed", static_cast<double>(executed), "count");
  rep.set("serve.coalesced",
          static_cast<double>(serve_after.scheduler.coalesced - serve_before.scheduler.coalesced),
          "count");
  const double shits = static_cast<double>(stage_after.total_hits() - stage_before.total_hits());
  const double smiss =
      static_cast<double>(stage_after.total_misses() - stage_before.total_misses());
  rep.set("core.stage_hit_ratio", shits + smiss > 0 ? shits / (shits + smiss) : 0, "ratio");
  rep.set("trace.op_p50_ms", hit_p50_ms, "ms");
}

}  // namespace perfbench
