#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <functional>
#include <future>
#include <iterator>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <utility>
#include <vector>

/// \file content_cache.hpp
/// The one in-memory cache behind both content-addressed stores: the
/// process-wide stage-artifact cache (core/stagegraph.cpp) and the serving
/// layer's result cache (serve/cache.cpp). A sharded LRU of
/// `shared_ptr<const V>` keyed by a 64-bit content address:
///
/// * Shards are picked from mixed key bits, each with its own mutex, so
///   concurrent lookups from pool workers and connection handlers rarely
///   contend. Capacity is split evenly: each shard holds at most
///   ceil(capacity / shards) entries and evicts its own least-recently-used
///   entry when over.
/// * `get` refreshes recency; `peek` and `resident` are passive probes that
///   never reorder entries.
/// * `get_or_compute` coalesces concurrent computations of one key onto a
///   shared future: the first caller computes, later callers block on its
///   result, and an exception reaches every waiter and leaves nothing
///   behind.
/// * Every entry carries a caller tag (e.g. the stage that produced it);
///   evictions are reported to `on_evict` with that tag, after the shard
///   lock is released, so callers keep per-kind eviction counts.
///
/// Values are shared: eviction never invalidates a value a reader holds.
/// Hit/miss accounting stays with the callers, which know what a lookup
/// means for them.

namespace gia::core {

template <typename V>
class ContentCache {
 public:
  using Ptr = std::shared_ptr<const V>;
  using EvictFn = std::function<void(int tag)>;
  enum class Outcome { Hit, Coalesced, Computed };

  explicit ContentCache(std::size_t capacity, int shards = 8, EvictFn on_evict = {})
      : shards_(static_cast<std::size_t>(std::max(1, shards))), on_evict_(std::move(on_evict)) {
    set_capacity(capacity);
  }
  ContentCache(const ContentCache&) = delete;
  ContentCache& operator=(const ContentCache&) = delete;

  /// Stored value for `key` (refreshed to most-recently-used), or nullptr.
  Ptr get(std::uint64_t key) {
    Shard& sh = shard_of(key);
    std::lock_guard<std::mutex> lk(sh.mu);
    auto it = sh.index.find(key);
    if (it == sh.index.end()) return nullptr;
    sh.lru.splice(sh.lru.begin(), sh.lru, it->second);
    return it->second->value;
  }

  /// Stored value for `key` without touching recency, or nullptr.
  Ptr peek(std::uint64_t key) const {
    const Shard& sh = shard_of(key);
    std::lock_guard<std::mutex> lk(sh.mu);
    auto it = sh.index.find(key);
    return it != sh.index.end() ? it->second->value : nullptr;
  }

  /// True while `key` is stored or being computed; never touches recency.
  bool resident(std::uint64_t key) const {
    const Shard& sh = shard_of(key);
    std::lock_guard<std::mutex> lk(sh.mu);
    return sh.index.count(key) != 0 || sh.pending.count(key) != 0;
  }

  /// Insert or replace `key` as most-recently-used. Returns true when the
  /// key was not stored before.
  bool put(std::uint64_t key, Ptr value, int tag = 0) {
    Shard& sh = shard_of(key);
    std::list<Node> evicted;
    {
      std::lock_guard<std::mutex> lk(sh.mu);
      if (auto it = sh.index.find(key); it != sh.index.end()) {
        it->second->value = std::move(value);
        it->second->tag = tag;
        sh.lru.splice(sh.lru.begin(), sh.lru, it->second);
        return false;
      }
      insert_locked(sh, key, std::move(value), tag, evicted);
    }
    report(evicted);
    return true;
  }

  /// The stored value for `key`, or the result of `compute()` stored under
  /// `tag`. Concurrent callers of a key being computed wait for that
  /// computation instead of repeating it. `*outcome` reports which path
  /// served the call. A throwing `compute` rethrows in the computing caller
  /// and in every waiter, and stores nothing.
  template <typename Compute>
  Ptr get_or_compute(std::uint64_t key, int tag, Compute&& compute, Outcome* outcome) {
    Shard& sh = shard_of(key);
    std::unique_lock<std::mutex> lk(sh.mu);
    if (auto it = sh.index.find(key); it != sh.index.end()) {
      sh.lru.splice(sh.lru.begin(), sh.lru, it->second);
      Ptr value = it->second->value;  // copy under the lock
      lk.unlock();
      *outcome = Outcome::Hit;
      return value;
    }
    if (auto p = sh.pending.find(key); p != sh.pending.end()) {
      std::shared_future<Ptr> fut = p->second;
      lk.unlock();
      *outcome = Outcome::Coalesced;
      return fut.get();  // rethrows the computing caller's exception
    }
    std::promise<Ptr> prom;
    sh.pending.emplace(key, prom.get_future().share());
    lk.unlock();

    *outcome = Outcome::Computed;
    Ptr value;
    try {
      value = compute();
    } catch (...) {
      lk.lock();
      sh.pending.erase(key);
      lk.unlock();
      prom.set_exception(std::current_exception());
      throw;
    }
    std::list<Node> evicted;
    lk.lock();
    sh.pending.erase(key);
    if (sh.index.count(key) == 0) insert_locked(sh, key, value, tag, evicted);
    lk.unlock();
    prom.set_value(value);
    report(evicted);
    return value;
  }

  std::size_t capacity() const { return capacity_.load(std::memory_order_relaxed); }

  /// Rebound the cache to `entries` (at least 1). Shrinking evicts at once.
  void set_capacity(std::size_t entries) {
    entries = std::max<std::size_t>(1, entries);
    capacity_.store(entries, std::memory_order_relaxed);
    per_shard_.store((entries + shards_.size() - 1) / shards_.size(), std::memory_order_relaxed);
    for (Shard& sh : shards_) {
      std::list<Node> evicted;
      {
        std::lock_guard<std::mutex> lk(sh.mu);
        trim_locked(sh, evicted);
      }
      report(evicted);
    }
  }

  /// Entries stored across all shards.
  std::size_t size() const {
    std::size_t n = 0;
    for (const Shard& sh : shards_) {
      std::lock_guard<std::mutex> lk(sh.mu);
      n += sh.lru.size();
    }
    return n;
  }

  /// Drop every stored entry (not reported as evictions). Computations in
  /// flight finish and store into the emptied cache.
  void clear() {
    for (Shard& sh : shards_) {
      std::lock_guard<std::mutex> lk(sh.mu);
      sh.index.clear();
      sh.lru.clear();
    }
  }

 private:
  struct Node {
    std::uint64_t key;
    int tag;
    Ptr value;
  };
  struct Shard {
    mutable std::mutex mu;
    std::list<Node> lru;  ///< front = most recently used
    std::unordered_map<std::uint64_t, typename std::list<Node>::iterator> index;
    std::unordered_map<std::uint64_t, std::shared_future<Ptr>> pending;
  };

  /// Mixes before selecting so low-entropy keys still spread across shards.
  std::size_t shard_index(std::uint64_t key) const { return (key ^ (key >> 29)) % shards_.size(); }
  Shard& shard_of(std::uint64_t key) { return shards_[shard_index(key)]; }
  const Shard& shard_of(std::uint64_t key) const { return shards_[shard_index(key)]; }

  void insert_locked(Shard& sh, std::uint64_t key, Ptr value, int tag,
                     std::list<Node>& evicted) {
    sh.lru.push_front(Node{key, tag, std::move(value)});
    sh.index.emplace(key, sh.lru.begin());
    trim_locked(sh, evicted);
  }

  /// Move the shard's overflow into `evicted`; the values are released, and
  /// their tags reported, once the caller has dropped the lock.
  void trim_locked(Shard& sh, std::list<Node>& evicted) {
    const std::size_t cap = per_shard_.load(std::memory_order_relaxed);
    while (sh.lru.size() > cap) {
      sh.index.erase(sh.lru.back().key);
      evicted.splice(evicted.end(), sh.lru, std::prev(sh.lru.end()));
    }
  }

  void report(const std::list<Node>& evicted) const {
    if (!on_evict_) return;
    for (const Node& n : evicted) on_evict_(n.tag);
  }

  std::vector<Shard> shards_;
  EvictFn on_evict_;
  std::atomic<std::size_t> capacity_{1};
  std::atomic<std::size_t> per_shard_{1};
};

}  // namespace gia::core
