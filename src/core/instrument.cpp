#include "core/instrument.hpp"

#include <array>
#include <atomic>
#include <cctype>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <mutex>
#include <stdexcept>

#include "core/json.hpp"
#include "core/parallel.hpp"

namespace gia::core::instrument {

namespace {

constexpr int kNumCounters = static_cast<int>(Counter::kCount);

constexpr const char* kCounterNames[kNumCounters] = {
    "sor_iterations",        "thermal_transient_steps",
    "lu_factorizations",     "lu_solves",
    "transient_steps",       "ac_points",
    "mc_trials",             "prbs_segments",
    "eye_uis",               "sweep_points",
    "flow_runs",             "serve_requests",
    "cache_hits",            "cache_misses",
    "cache_coalesced",       "stage_runs",
    "stage_cache_hits",      "stage_cache_misses",
    "krylov_iterations",     "mg_vcycles",
    "dse_points_evaluated",  "dse_front_updates",
    "dse_cache_assisted_points", "router_expansions",
    "router_reroutes",       "placer_moves",
    "placer_accepts",
};

struct SpanNode {
  std::string name;
  SpanNode* parent = nullptr;
  std::vector<std::unique_ptr<SpanNode>> children;  // guarded by Registry::mu
  std::atomic<std::uint64_t> count{0};
  std::atomic<std::uint64_t> total_ns{0};
  std::atomic<std::uint64_t> min_ns{~std::uint64_t{0}};
  std::atomic<std::uint64_t> max_ns{0};
};

struct Registry {
  std::mutex mu;  ///< guards span-tree structure and gauges; stats are atomic
  SpanNode root;
  std::vector<std::pair<std::string, double>> gauges;
  std::array<std::atomic<std::uint64_t>, kNumCounters> counters{};
  Registry() { root.name = "root"; }
};

Registry& reg() {
  static Registry r;
  return r;
}

thread_local SpanNode* t_current = nullptr;

/// -1 = uninitialised (read GIA_TRACE on first query), else 0/1.
std::atomic<int> g_enabled{-1};

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

void atomic_min(std::atomic<std::uint64_t>& a, std::uint64_t v) {
  std::uint64_t cur = a.load(std::memory_order_relaxed);
  while (v < cur && !a.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

void atomic_max(std::atomic<std::uint64_t>& a, std::uint64_t v) {
  std::uint64_t cur = a.load(std::memory_order_relaxed);
  while (v > cur && !a.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

}  // namespace

bool enabled() noexcept {
  int s = g_enabled.load(std::memory_order_relaxed);
  if (s < 0) {
    const char* env = std::getenv("GIA_TRACE");
    const int on = (env != nullptr && env[0] != '\0' &&
                    !(env[0] == '0' && env[1] == '\0'))
                       ? 1
                       : 0;
    // First writer wins so concurrent initial queries agree.
    g_enabled.compare_exchange_strong(s, on);
    s = g_enabled.load(std::memory_order_relaxed);
  }
  return s != 0;
}

void set_enabled(bool on) noexcept { g_enabled.store(on ? 1 : 0); }

void reset() {
  auto& r = reg();
  std::lock_guard<std::mutex> lk(r.mu);
  r.root.children.clear();
  r.root.count.store(0);
  r.root.total_ns.store(0);
  r.root.min_ns.store(~std::uint64_t{0});
  r.root.max_ns.store(0);
  r.gauges.clear();
  for (auto& c : r.counters) c.store(0);
  t_current = nullptr;
}

const char* counter_name(Counter c) noexcept {
  return kCounterNames[static_cast<int>(c)];
}

void counter_add(Counter c, std::uint64_t n) noexcept {
  if (!enabled()) return;
  reg().counters[static_cast<std::size_t>(c)].fetch_add(n, std::memory_order_relaxed);
}

std::uint64_t counter_value(Counter c) noexcept {
  return reg().counters[static_cast<std::size_t>(c)].load(std::memory_order_relaxed);
}

void gauge_set(const std::string& name, double value) {
  if (!enabled()) return;
  auto& r = reg();
  std::lock_guard<std::mutex> lk(r.mu);
  for (auto& g : r.gauges) {
    if (g.first == name) {
      g.second = value;
      return;
    }
  }
  r.gauges.emplace_back(name, value);
}

ScopedSpan::ScopedSpan(const char* name) noexcept {
  if (!enabled()) return;
  auto& r = reg();
  SpanNode* parent = t_current != nullptr ? t_current : &r.root;
  SpanNode* node = nullptr;
  {
    std::lock_guard<std::mutex> lk(r.mu);
    for (auto& c : parent->children) {
      if (c->name == name) {
        node = c.get();
        break;
      }
    }
    if (node == nullptr) {
      auto owned = std::make_unique<SpanNode>();
      owned->name = name;
      owned->parent = parent;
      node = owned.get();
      parent->children.push_back(std::move(owned));
    }
  }
  prev_ = t_current;
  t_current = node;
  node_ = node;
  t0_ns_ = now_ns();
}

ScopedSpan::~ScopedSpan() {
  if (node_ == nullptr) return;
  const std::uint64_t dt = now_ns() - t0_ns_;
  auto* n = static_cast<SpanNode*>(node_);
  n->count.fetch_add(1, std::memory_order_relaxed);
  n->total_ns.fetch_add(dt, std::memory_order_relaxed);
  atomic_min(n->min_ns, dt);
  atomic_max(n->max_ns, dt);
  t_current = static_cast<SpanNode*>(prev_);
}

void* current_context() noexcept {
  return enabled() ? static_cast<void*>(t_current) : nullptr;
}

ContextScope::ContextScope(void* ctx) noexcept : prev_(t_current) {
  if (ctx != nullptr) t_current = static_cast<SpanNode*>(ctx);
}

ContextScope::~ContextScope() { t_current = static_cast<SpanNode*>(prev_); }

// --- Report capture -------------------------------------------------------

namespace {

SpanSnapshot snapshot_node(const SpanNode& n) {
  SpanSnapshot s;
  s.name = n.name;
  s.count = n.count.load(std::memory_order_relaxed);
  s.total_ns = n.total_ns.load(std::memory_order_relaxed);
  const std::uint64_t mn = n.min_ns.load(std::memory_order_relaxed);
  s.min_ns = s.count > 0 ? mn : 0;
  s.max_ns = n.max_ns.load(std::memory_order_relaxed);
  s.children.reserve(n.children.size());
  for (const auto& c : n.children) s.children.push_back(snapshot_node(*c));
  return s;
}

std::string compiler_string() {
#if defined(__clang__)
  return std::string("clang ") + std::to_string(__clang_major__) + "." +
         std::to_string(__clang_minor__) + "." + std::to_string(__clang_patchlevel__);
#elif defined(__GNUC__)
  return std::string("gcc ") + std::to_string(__GNUC__) + "." +
         std::to_string(__GNUC_MINOR__) + "." + std::to_string(__GNUC_PATCHLEVEL__);
#else
  return "unknown";
#endif
}

std::string build_type_string() {
#ifdef GIA_BUILD_TYPE
  return GIA_BUILD_TYPE;
#elif defined(NDEBUG)
  return "release";
#else
  return "debug";
#endif
}

}  // namespace

RunReport RunReport::capture() {
  RunReport out;
  out.compiler = compiler_string();
  out.build_type = build_type_string();
  out.threads = thread_count();
  auto& r = reg();
  std::lock_guard<std::mutex> lk(r.mu);
  out.counters.reserve(kNumCounters);
  for (int i = 0; i < kNumCounters; ++i) {
    out.counters.emplace_back(kCounterNames[i],
                              r.counters[static_cast<std::size_t>(i)].load());
  }
  out.gauges = r.gauges;
  out.root = snapshot_node(r.root);
  return out;
}

// --- JSON serialisation ---------------------------------------------------

namespace {

using json::append_double;
using json::append_u64;
using json::escape;

void json_escape(const std::string& s, std::string& out) { escape(s, out); }

void span_json(const SpanSnapshot& s, std::string& out) {
  out += "{\"name\":";
  json_escape(s.name, out);
  out += ",\"count\":";
  append_u64(s.count, out);
  out += ",\"total_ns\":";
  append_u64(s.total_ns, out);
  out += ",\"min_ns\":";
  append_u64(s.min_ns, out);
  out += ",\"max_ns\":";
  append_u64(s.max_ns, out);
  out += ",\"children\":[";
  for (std::size_t i = 0; i < s.children.size(); ++i) {
    if (i > 0) out.push_back(',');
    span_json(s.children[i], out);
  }
  out += "]}";
}

}  // namespace

std::string span_tree_json(const SpanSnapshot& s) {
  std::string out;
  span_json(s, out);
  return out;
}

std::string RunReport::to_json() const {
  std::string out = "{\"run_report\":{\"compiler\":";
  json_escape(compiler, out);
  out += ",\"build_type\":";
  json_escape(build_type, out);
  out += ",\"threads\":";
  append_u64(static_cast<std::uint64_t>(threads), out);
  out += ",\"counters\":{";
  for (std::size_t i = 0; i < counters.size(); ++i) {
    if (i > 0) out.push_back(',');
    json_escape(counters[i].first, out);
    out.push_back(':');
    append_u64(counters[i].second, out);
  }
  out += "},\"gauges\":{";
  for (std::size_t i = 0; i < gauges.size(); ++i) {
    if (i > 0) out.push_back(',');
    json_escape(gauges[i].first, out);
    out.push_back(':');
    append_double(gauges[i].second, out);
  }
  out += "},\"spans\":";
  span_json(root, out);
  out += "}}";
  return out;
}

// --- Text tree ------------------------------------------------------------

namespace {

std::string fmt_duration(std::uint64_t ns) {
  char buf[32];
  if (ns >= 1000000000ull) {
    std::snprintf(buf, sizeof buf, "%.3fs", static_cast<double>(ns) * 1e-9);
  } else if (ns >= 1000000ull) {
    std::snprintf(buf, sizeof buf, "%.3fms", static_cast<double>(ns) * 1e-6);
  } else {
    std::snprintf(buf, sizeof buf, "%.1fus", static_cast<double>(ns) * 1e-3);
  }
  return buf;
}

void span_text(const SpanSnapshot& s, int depth, std::string& out) {
  out.append(static_cast<std::size_t>(2 * depth), ' ');
  out += s.name;
  if (s.count > 0) {
    out += "  count=" + std::to_string(s.count) + " total=" + fmt_duration(s.total_ns) +
           " min=" + fmt_duration(s.min_ns) + " max=" + fmt_duration(s.max_ns);
  }
  out.push_back('\n');
  for (const auto& c : s.children) span_text(c, depth + 1, out);
}

}  // namespace

std::string RunReport::to_text() const {
  std::string out = "run report (" + compiler + ", " + build_type +
                    ", threads=" + std::to_string(threads) + ")\nspans:\n";
  span_text(root, 1, out);
  out += "counters:\n";
  for (const auto& [name, v] : counters) {
    out += "  " + name + " = " + std::to_string(v) + "\n";
  }
  if (!gauges.empty()) {
    out += "gauges:\n";
    for (const auto& [name, v] : gauges) {
      char buf[40];
      std::snprintf(buf, sizeof buf, "%.17g", v);
      out += "  " + name + " = " + buf + "\n";
    }
  }
  return out;
}

// --- JSON parsing (round-trips exactly what to_json emits) ----------------

namespace {

SpanSnapshot span_from_json(const json::Value& v) {
  SpanSnapshot s;
  s.name = v.at("name").str;
  s.count = v.at("count").as_u64();
  s.total_ns = v.at("total_ns").as_u64();
  s.min_ns = v.at("min_ns").as_u64();
  s.max_ns = v.at("max_ns").as_u64();
  for (const auto& c : v.at("children").arr) s.children.push_back(span_from_json(c));
  return s;
}

}  // namespace

RunReport RunReport::from_json(const std::string& text) {
  const json::Value top = json::parse(text);
  const json::Value& rr = top.at("run_report");
  RunReport out;
  out.compiler = rr.at("compiler").str;
  out.build_type = rr.at("build_type").str;
  out.threads = static_cast<int>(rr.at("threads").as_u64());
  for (const auto& [k, v] : rr.at("counters").obj) out.counters.emplace_back(k, v.as_u64());
  for (const auto& [k, v] : rr.at("gauges").obj) out.gauges.emplace_back(k, v.as_double());
  out.root = span_from_json(rr.at("spans"));
  return out;
}

// --- Emission -------------------------------------------------------------

void emit_report() {
  if (!enabled()) return;
  const RunReport rep = RunReport::capture();
  const char* mode = std::getenv("GIA_TRACE");
  const bool text = mode != nullptr && std::strcmp(mode, "text") == 0;
  const std::string body = text ? rep.to_text() : rep.to_json() + "\n";
  if (const char* path = std::getenv("GIA_TRACE_FILE")) {
    if (std::FILE* f = std::fopen(path, "w")) {
      std::fwrite(body.data(), 1, body.size(), f);
      std::fclose(f);
      return;
    }
    std::fprintf(stderr, "GIA_TRACE_FILE: cannot open %s, writing to stdout\n", path);
  }
  std::fwrite(body.data(), 1, body.size(), stdout);
}

}  // namespace gia::core::instrument
