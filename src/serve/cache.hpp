#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "core/counters.hpp"
#include "core/flow.hpp"

/// \file cache.hpp
/// Content-addressed result cache for the serving layer: a
/// `core::ContentCache` (the sharded LRU shared with the stage cache) of
/// `TechnologyResult` keyed by `request_key` (see request.hpp), with an
/// optional write-through on-disk JSON store on top. Results are held as
/// `shared_ptr<const TechnologyResult>`: eviction never invalidates a
/// result a reader still holds.
///
/// Disk store: when constructed with a directory (or, by default, the
/// `GIA_CACHE_DIR` environment variable is set), every insert also writes
/// `<dir>/<16-hex-key>.json` (atomic tmp+rename), and a memory miss falls
/// back to parsing that file -- so a restarted daemon serves its persisted
/// history as disk hits. Disk entries are not LRU-bounded.
///
/// Counters: declared in `ResultCache::CounterSet`; a counter's row in its
/// `walk` is its only name (core/counters.hpp).

namespace gia::serve {

class ResultCache {
 public:
  using ResultPtr = std::shared_ptr<const core::TechnologyResult>;

  struct Config {
    std::size_t capacity = 64;  ///< total in-memory entries across shards
    int shards = 8;
    /// Disk store directory; empty = use GIA_CACHE_DIR; "-" = disable disk
    /// even when the environment sets a directory.
    std::string disk_dir;
  };

  template <typename C>
  struct CounterSet {
    C hits{};       ///< served from memory
    C disk_hits{};  ///< served from the disk store (subset of hits)
    C misses{};
    C insertions{};
    C evictions{};
    C disk_writes{};
    /// Failed disk writes plus corrupt entries discarded on read. The cache
    /// degrades to memory-only for the affected key; requests never fail.
    C disk_errors{};
    core::counters::Gauge<C, std::size_t> entries{};  ///< current in-memory entry count

    static void walk(auto&& v, auto&... s) {
      v("hits", s.hits...);
      v("disk_hits", s.disk_hits...);
      v("misses", s.misses...);
      v("insertions", s.insertions...);
      v("evictions", s.evictions...);
      v("disk_writes", s.disk_writes...);
      v("disk_errors", s.disk_errors...);
      v("entries", s.entries...);
    }
  };
  using Stats = CounterSet<std::uint64_t>;

  ResultCache();  ///< default Config
  explicit ResultCache(const Config& cfg);
  ~ResultCache();
  ResultCache(const ResultCache&) = delete;
  ResultCache& operator=(const ResultCache&) = delete;

  /// Look up a key: memory first (refreshes LRU position), then the disk
  /// store. Returns nullptr on a miss. Updates the hit/miss counters.
  ResultPtr get(std::uint64_t key);

  /// Insert (or refresh) a result; evicts the least-recently-used entry of
  /// the shard when over capacity and write-throughs to disk when enabled.
  void put(std::uint64_t key, ResultPtr result);

  /// Memory-only lookup that does not touch counters or LRU order (used by
  /// the scheduler's post-coalesce re-check).
  ResultPtr peek(std::uint64_t key) const;

  Stats stats() const;
  bool disk_enabled() const;
  const std::string& disk_dir() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace gia::serve
