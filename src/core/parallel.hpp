#pragma once

#include <algorithm>
#include <cstddef>
#include <functional>
#include <vector>

/// \file parallel.hpp
/// Dependency-free parallel execution layer: a lazily-started std::thread
/// pool exposed through `parallel_for` (static chunking over an index
/// range), `parallel_for_chunked` (caller-visible fixed chunk grid),
/// `ordered_reduce` (per-chunk partials combined in chunk order), and
/// `run_dag` (dependency-driven execution of a small task graph).
///
/// Determinism contract: every helper produces byte-identical results at
/// any thread count. `parallel_for` bodies must write disjoint state per
/// index; `ordered_reduce` fixes its chunk grid from `grain` alone (never
/// from the thread count) and folds partials serially in ascending chunk
/// order, so floating-point reductions do not depend on scheduling.
///
/// The worker count comes from `set_thread_count()` or, by default, the
/// `GIA_THREADS` environment variable (falling back to the hardware
/// concurrency). A count of 1 runs every helper inline on the calling
/// thread -- the exact serial code path, no pool started. Nested calls
/// from inside a parallel region also degrade to inline execution.

namespace gia::core {

/// Current worker-thread target (>= 1). Reads `GIA_THREADS` on first use.
int thread_count();

/// Fix the worker count. `n >= 1` pins it (1 = pure serial execution and
/// the pool is torn down); `n == 0` re-reads `GIA_THREADS` / hardware
/// default. Safe to call between parallel regions; the pool is resized
/// lazily on the next parallel call.
void set_thread_count(int n);

/// Invoke `fn(i)` for every i in [0, n). Indices are distributed over the
/// pool in contiguous statically-sized chunks; exceptions thrown by `fn`
/// are rethrown on the calling thread (first one wins, remaining chunks
/// are abandoned). `fn` must be safe to call concurrently and must only
/// write state owned by its index.
void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn);

/// Invoke `fn(begin, end)` over the fixed chunk grid of [0, n) with chunks
/// of `grain` indices (last chunk may be short). The grid depends only on
/// `grain`, never on the thread count, so per-chunk accumulation is
/// reproducible.
void parallel_for_chunked(std::size_t n, std::size_t grain,
                          const std::function<void(std::size_t, std::size_t)>& fn);

/// Run the nodes of a dependency graph: `fn(i)` for every i in [0, n),
/// where node i starts as soon as every node listed in `deps[i]` has
/// finished. Every dependency must have a lower index than its dependent
/// (index order is then a topological order); std::invalid_argument
/// otherwise.
///
/// Scheduling: the caller runs nodes too. The thread that finishes a node
/// releases its dependents, keeps one and hands the others to the pool as
/// independent tasks, so no pool worker ever waits inside `fn` for another
/// node -- a graph never holds workers idle, and concurrent graphs (several
/// flows in one daemon) share the pool. Among several ready nodes a thread
/// takes the lowest index. Nodes run with nested parallel calls inline, as
/// `parallel_for` bodies do. With one thread, or when called from inside a
/// parallel region, the nodes run inline in index order.
///
/// Failure: a node that throws is recorded; its transitive dependents are
/// skipped (never started) while independent nodes still run, so the same
/// set of nodes runs at any thread count. When everything has run or been
/// skipped, the exception of the lowest-index failing node is rethrown.
void run_dag(std::size_t n, const std::vector<std::vector<std::size_t>>& deps,
             const std::function<void(std::size_t)>& fn);

/// Deterministic ordered reduction: partition [0, n) into fixed chunks of
/// `grain`, evaluate `chunk(begin, end) -> T` concurrently, then fold the
/// partials serially in ascending chunk order via `combine(acc, partial)`.
/// Byte-identical at any thread count because both the chunk grid and the
/// combine order are scheduling-independent.
template <typename T, typename ChunkFn, typename CombineFn>
T ordered_reduce(std::size_t n, std::size_t grain, T init, ChunkFn chunk, CombineFn combine) {
  if (n == 0) return init;
  grain = std::max<std::size_t>(1, grain);
  const std::size_t n_chunks = (n + grain - 1) / grain;
  std::vector<T> partials(n_chunks);
  parallel_for(n_chunks, [&](std::size_t c) {
    const std::size_t begin = c * grain;
    partials[c] = chunk(begin, std::min(n, begin + grain));
  });
  T acc = std::move(init);
  for (auto& p : partials) acc = combine(std::move(acc), std::move(p));
  return acc;
}

}  // namespace gia::core
