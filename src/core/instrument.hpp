#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

/// \file instrument.hpp
/// Dependency-free observability layer: RAII scoped timers aggregating into
/// a thread-safe registry of named spans (count / total / min / max ns with
/// parent links forming a call tree), monotonic counters for solver
/// internals, named gauges, and a `RunReport` snapshot that serialises the
/// registry plus build/thread metadata to JSON or a compact text tree.
///
/// The whole layer is gated by the `GIA_TRACE` environment variable (unset,
/// empty or "0" = off; anything else = on; the value "text" additionally
/// selects the text tree for `emit_report`). When tracing is off every entry
/// point is a single relaxed atomic load followed by an early return, so
/// instrumented hot paths keep their pre-instrumentation behaviour and
/// stdout byte-for-byte.
///
/// Span nesting is tracked per thread. The parallel layer
/// (`core/parallel.cpp`) propagates the submitting thread's open span to
/// pool workers via `current_context()` / `ContextScope`, so spans opened
/// inside `parallel_for` bodies aggregate under the caller's span at any
/// thread count instead of dangling from the root.

namespace gia::core::instrument {

/// Is tracing on? First call reads `GIA_TRACE`; `set_enabled` overrides.
bool enabled() noexcept;

/// Force tracing on/off (tests and embedders; overrides the environment).
void set_enabled(bool on) noexcept;

/// Clear all spans, counters and gauges. Must not be called while any span
/// is still open (including on pool workers mid-`parallel_for`).
void reset();

/// Monotonic solver-internal counters. Fixed enum rather than open-ended
/// strings so `counter_add` is a branch + one relaxed fetch_add.
enum class Counter : int {
  SorIterations = 0,      ///< thermal steady-state SOR iterations to convergence
  LuFactorizations,       ///< dense LU factorisations (real + complex)
  LuSolves,               ///< dense LU triangular solves
  TransientSteps,         ///< MNA transient time steps accepted
  AcPoints,               ///< AC analysis frequency points solved
  McTrials,               ///< Monte Carlo variation trials
  EyeUis,                 ///< unit intervals sampled by the eye fold
  FlowRuns,               ///< full co-design flow invocations
  StageRuns,              ///< flow stage bodies executed (stage-cache misses run)
  KrylovIterations,       ///< Jacobi-CG iterations of multigrid coarsest-level solves
  MgVcycles,              ///< thermal geometric-multigrid V-cycles
  RouterExpansions,       ///< A* nodes expanded by the interposer grid router
  RouterReroutes,         ///< nets ripped up and rerouted (or layer-rebalanced)
  PlacerMoves,            ///< simulated-annealing moves tried by the cluster placer
  PlacerAccepts,          ///< placer moves accepted
  kCount
};

/// Stable snake_case name used in reports ("sor_iterations", ...).
const char* counter_name(Counter c) noexcept;

void counter_add(Counter c, std::uint64_t n = 1) noexcept;
std::uint64_t counter_value(Counter c) noexcept;

/// Set (or overwrite) a named gauge. No-op when tracing is disabled.
void gauge_set(const std::string& name, double value);

/// RAII scoped timer. On construction (when enabled) finds or creates the
/// span named `name` under the calling thread's innermost open span and
/// makes it current; on destruction folds the elapsed time into the span's
/// aggregate stats. `name` must outlive the program (string literals).
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name) noexcept;
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  void* node_ = nullptr;  ///< SpanNode*, null when tracing is disabled
  void* prev_ = nullptr;  ///< thread's previous current span, restored on exit
  std::uint64_t t0_ns_ = 0;
};

#define GIA_SPAN_CONCAT2(a, b) a##b
#define GIA_SPAN_CONCAT(a, b) GIA_SPAN_CONCAT2(a, b)
/// Open a scoped span for the rest of the enclosing block.
#define GIA_SPAN(name) \
  ::gia::core::instrument::ScopedSpan GIA_SPAN_CONCAT(gia_span_, __LINE__)(name)

/// Opaque handle to the calling thread's innermost open span (null when
/// tracing is disabled or no span is open). Pass to `ContextScope` on
/// another thread to parent that thread's spans under it.
void* current_context() noexcept;

/// Adopt `ctx` (from `current_context()`) as the calling thread's current
/// span for the lifetime of the scope; restores the previous context on
/// destruction. Null `ctx` leaves the context untouched.
class ContextScope {
 public:
  explicit ContextScope(void* ctx) noexcept;
  ~ContextScope();
  ContextScope(const ContextScope&) = delete;
  ContextScope& operator=(const ContextScope&) = delete;

 private:
  void* prev_ = nullptr;
};

/// Immutable snapshot of one span subtree.
struct SpanSnapshot {
  std::string name;
  std::uint64_t count = 0;
  std::uint64_t total_ns = 0;
  std::uint64_t min_ns = 0;  ///< 0 when count == 0
  std::uint64_t max_ns = 0;
  std::vector<SpanSnapshot> children;  ///< sorted by name
};

/// Snapshot of the whole registry plus build/thread metadata, written out
/// as JSON or as a text tree (nothing reads either back).
struct RunReport {
  std::string compiler;    ///< e.g. "gcc 12.2.0"
  std::string build_type;  ///< CMake build type (or "unknown")
  int threads = 0;         ///< parallel layer worker target
  std::vector<std::pair<std::string, std::uint64_t>> counters;  ///< all, in enum order
  std::vector<std::pair<std::string, double>> gauges;           ///< insertion order
  SpanSnapshot root;  ///< synthetic "root" node; real spans are its children

  static RunReport capture();
  /// Canonical single-line JSON (`{"run_report":{...}}`).
  std::string to_json() const;
  /// Human-readable indented call tree + counters + gauges.
  std::string to_text() const;
};

/// Serialise one span subtree as JSON (the `"spans"` value of `to_json`);
/// exposed so bench JSON lines can embed per-stage breakdowns.
std::string span_tree_json(const SpanSnapshot& s);
/// Serialise counters as one JSON object (the `"counters"` value of
/// `to_json`); bench JSON lines embed it the same way.
std::string counters_json(const std::vector<std::pair<std::string, std::uint64_t>>& counters);

/// When tracing is enabled, capture a report and write it to the path in
/// `GIA_TRACE_FILE` (stdout when unset) -- JSON by default, the text tree
/// when `GIA_TRACE=text`. No-op when disabled.
void emit_report();

}  // namespace gia::core::instrument
