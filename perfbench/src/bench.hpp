#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/flow.hpp"

/// \file bench.hpp
/// Shared pieces of the repository benchmark: the clock, summary statistics,
/// result digests, the benchmark's own span recorder, and the record every
/// workload fills in.

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Linear-interpolated quantile of `v` (q in [0,1]); 0 for an empty sample.
double quantile(std::vector<double> v, double q);

/// FNV-1a of the canonical JSON of a flow result, as 16 lowercase hex digits.
std::string result_digest(const gia::core::TechnologyResult& r);

/// Peak resident set size of this process, in MiB.
double max_rss_mb();

/// Spans recorded by the benchmark around its own calls into each layer:
/// name, start, end and parent, kept in memory and written out at exit.
/// Single-threaded: the layer replay that records them runs on one thread.
class Trace {
 public:
  struct Span {
    std::string name;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    int parent = -1;  ///< index into spans(), -1 for a root span
    double seconds() const { return static_cast<double>(end_ns - start_ns) * 1e-9; }
  };

  /// Opens a span under the innermost open one and closes it on destruction.
  class Scope {
   public:
    Scope(Trace& t, std::string name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Trace& t_;
    int id_;
  };

  const std::vector<Span>& spans() const { return spans_; }
  /// Sum of the durations of every span called `name`.
  double total_s(const std::string& name) const;
  /// Durations of every span called `name`, in recording order.
  std::vector<double> durations_s(const std::string& name) const;
  /// One JSON document with every span (times relative to the first span).
  std::string to_json() const;

 private:
  std::vector<Span> spans_;
  int open_ = -1;
  Clock::time_point epoch_ = Clock::now();
};

/// Command-line options of one benchmark run.
struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10;
  bool trace = false;
  std::int64_t spawn_ns = -1;   ///< steady-clock time the process was spawned
  std::string digests_path;     ///< recorded default-seed digests (JSON)
  std::string trace_out;        ///< where the replay spans are written
  bool record = false;          ///< print digests instead of checking them
};

/// The benchmark's default seed: it maps every workload to the library's
/// default netlist and partition seeds, and reproduces the recorded digests.
inline constexpr std::uint64_t kDefaultSeed = 0;

/// Set-ups per run; setup_s is their median.
inline constexpr int kSetups = 3;

/// What one run reports: the result line's counts, the check failures, and
/// the metrics by name (value, unit).
struct Report {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool correct = true;
  std::vector<std::string> errors;
  std::map<std::string, std::pair<double, std::string>> metrics;

  void set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = {value, unit};
  }
  void fail(const std::string& why) {
    correct = false;
    if (errors.size() < 20) errors.push_back(why);
  }
  std::string to_json() const;
};

/// Default-seed digests recorded in the benchmark's directory, by workload
/// and key ("glass25d", "grid16", a giad_session request key, ...).
using DigestTable = std::map<std::string, std::map<std::string, std::string>>;
DigestTable load_digests(const std::string& path);

}  // namespace perfbench
