/// perfbench: the repository benchmark driver.
///
///   perfbench --workload paper6|grid16|giad_session --seed N --seconds S
///             --trace 0|1 --digests perfbench/digests.json
///             [--spawn-ns T] [--trace-out FILE] [--record]
///
/// Runs one workload for S seconds on 4 threads, checks every output, and
/// prints one JSON line last: {"correct","attempted","failed","metrics"}.
/// With --trace 0 the metrics are end-to-end (untraced); with --trace 1 the
/// run is traced and the metrics are per layer (see README.md). --record
/// prints the default-seed digests instead of checking them.

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <string>

#include "core/parallel.hpp"
#include "workloads.hpp"

using namespace perfbench;

namespace {

// The parallel layer is pinned so runs compare at one thread count.
constexpr int kThreads = 4;

int usage(const char* why) {
  std::fprintf(stderr, "perfbench: %s\n", why);
  return 2;
}

std::int64_t steady_now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

}  // namespace

int main(int argc, char** argv) {
  const std::int64_t main_ns = steady_now_ns();
  RunContext ctx;
  Args& a = ctx.args;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (k == "--record") {
      a.record = true;
      continue;
    }
    if (i + 1 >= argc) return usage(("missing value for " + k).c_str());
    const std::string v = argv[++i];
    if (k == "--workload") a.workload = v;
    else if (k == "--seed") a.seed = std::strtoull(v.c_str(), nullptr, 10);
    else if (k == "--seconds") a.seconds = std::atof(v.c_str());
    else if (k == "--trace") a.trace = v == "1";
    else if (k == "--spawn-ns") a.spawn_ns = std::strtoll(v.c_str(), nullptr, 10);
    else if (k == "--digests") a.digests_path = v;
    else if (k == "--trace-out") a.trace_out = v;
    else return usage(("unknown option " + k).c_str());
  }
  if (a.seconds <= 0) return usage("--seconds must be positive");
  // Set-up time starts when the process was spawned: it covers exec,
  // dynamic loading and static initialisation before main().
  ctx.static_init_s = a.spawn_ns >= 0 ? static_cast<double>(main_ns - a.spawn_ns) * 1e-9 : 0.0;

  gia::core::set_thread_count(kThreads);
  Report rep;
  try {
    if (!a.record) ctx.recorded = load_digests(a.digests_path);
    if (a.workload == "paper6") run_paper6(ctx, rep);
    else if (a.workload == "grid16") run_grid16(ctx, rep);
    else if (a.workload == "giad_session") run_giad_session(ctx, rep);
    else return usage(("unknown workload " + a.workload).c_str());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }

  for (const auto& [name, vu] : rep.metrics) {
    if (!std::isfinite(vu.first)) rep.fail("metric " + name + " is not finite");
  }
  if (!a.trace_out.empty() && !ctx.trace.spans().empty()) {
    std::ofstream(a.trace_out) << ctx.trace.to_json();
  }
  for (const std::string& e : rep.errors) std::fprintf(stderr, "perfbench: FAILED %s\n", e.c_str());
  if (a.record) {
    std::string out = "{\"" + a.workload + "\":{";
    bool first = true;
    for (const auto& [key, digest] : ctx.digests) {
      out += (first ? "\"" : ",\"") + key + "\":\"" + digest + "\"";
      first = false;
    }
    std::printf("%s}}\n", out.c_str());
  }
  std::printf("%s\n", rep.to_json().c_str());
  return 0;
}
