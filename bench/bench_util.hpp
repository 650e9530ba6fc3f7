#pragma once

#include <benchmark/benchmark.h>
#include <sys/resource.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <map>
#include <string>

#include "core/instrument.hpp"
#include "core/parallel.hpp"
#include "core/report.hpp"
#include "core/stagegraph.hpp"
#include "tech/library.hpp"

/// Shared infrastructure for the per-table/figure benchmark binaries: each
/// prints its reproduced paper table first (the reproduction artifact), then
/// runs google-benchmark timings of the engines that generate it.

namespace gia::bench {

/// Cached full-flow results so the table printer and the timing loops don't
/// recompute identical designs.
inline const core::TechnologyResult& flow_of(tech::TechnologyKind k, bool eyes = false,
                                             bool thermal = false) {
  struct Key {
    tech::TechnologyKind k;
    bool eyes, thermal;
    bool operator<(const Key& o) const {
      return std::tie(k, eyes, thermal) < std::tie(o.k, o.eyes, o.thermal);
    }
  };
  static std::map<Key, core::TechnologyResult> cache;
  const Key key{k, eyes, thermal};
  auto it = cache.find(key);
  if (it == cache.end()) {
    core::FlowOptions opts;
    opts.with_eyes = eyes;
    opts.with_thermal = thermal;
    it = cache.emplace(key, core::stage::execute_flow(k, opts)).first;
  }
  return it->second;
}

inline const char* short_name(tech::TechnologyKind k) { return tech::to_string(k); }

/// Peak resident set size of this process so far, in KiB (getrusage; 0 when
/// unavailable).
inline long max_rss_kb() {
  struct rusage ru;
  if (getrusage(RUSAGE_SELF, &ru) != 0) return 0;
  return ru.ru_maxrss;
}

/// Emit one machine-readable line per bench run (BENCH_*.json-compatible):
/// binary name, wall-clock seconds, the parallel layer's thread count, and
/// the peak RSS in KiB. `extra` may carry additional `"key":value` fields
/// (comma-prepended automatically, e.g. bench_serve's latency percentiles).
/// When `GIA_TRACE` is on, the line additionally embeds the instrumentation
/// span tree and counters so BENCH_*.json trajectories carry per-stage
/// breakdowns. CI scrapes stdout for lines starting with {"bench".
inline void print_json_line(const char* bench_path, double wall_s,
                            const std::string& extra = std::string()) {
  const char* name = bench_path;
  if (const char* slash = std::strrchr(bench_path, '/')) name = slash + 1;
  std::string breakdown;
  if (!extra.empty()) breakdown += "," + extra;
  if (core::instrument::enabled()) {
    const auto rep = core::instrument::RunReport::capture();
    breakdown += ",\"spans\":" + core::instrument::span_tree_json(rep.root) +
                 ",\"counters\":" + core::instrument::counters_json(rep.counters);
  }
  std::printf("{\"bench\":\"%s\",\"wall_s\":%.6f,\"threads\":%d,\"max_rss_kb\":%ld%s}\n", name,
              wall_s, core::thread_count(), max_rss_kb(), breakdown.c_str());
}

}  // namespace gia::bench

/// Print the reproduction table, then hand over to google-benchmark; close
/// with the JSON wall-time/thread-count line for CI scraping and, when
/// `GIA_TRACE` is on, the full instrumentation run report (JSON to stdout or
/// `GIA_TRACE_FILE`, text tree with GIA_TRACE=text).
#define GIA_BENCH_MAIN(print_fn)                        \
  int main(int argc, char** argv) {                     \
    const auto gia_bench_t0 = std::chrono::steady_clock::now(); \
    print_fn();                                         \
    ::benchmark::Initialize(&argc, argv);               \
    if (::benchmark::ReportUnrecognizedArguments(argc, argv)) return 1; \
    ::benchmark::RunSpecifiedBenchmarks();              \
    ::benchmark::Shutdown();                            \
    const std::chrono::duration<double> gia_bench_dt =  \
        std::chrono::steady_clock::now() - gia_bench_t0; \
    gia::bench::print_json_line(argv[0], gia_bench_dt.count()); \
    gia::core::instrument::emit_report();               \
    return 0;                                           \
  }
