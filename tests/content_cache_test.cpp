// Tests for core::ContentCache, the sharded LRU behind both the stage
// cache and the serving result cache: recency order, per-tag eviction
// reporting, runtime capacity changes, coalesced computation (including
// exception propagation), and the passive residency probe.

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/content_cache.hpp"

namespace {

using Cache = gia::core::ContentCache<int>;
using Outcome = Cache::Outcome;

Cache::Ptr value(int v) { return std::make_shared<const int>(v); }

/// Counts evictions per tag (tags 0..3).
struct EvictionLog {
  std::array<std::atomic<int>, 4> by_tag{};
  Cache::EvictFn fn() {
    return [this](int tag) { by_tag[static_cast<std::size_t>(tag)].fetch_add(1); };
  }
};

/// Blocks a computation until released, so tests can observe in-flight state.
struct Gate {
  std::mutex mu;
  std::condition_variable cv;
  bool entered = false, open = false;
  void enter_and_wait() {
    std::unique_lock<std::mutex> lk(mu);
    entered = true;
    cv.notify_all();
    cv.wait(lk, [&] { return open; });
  }
  void wait_entered() {
    std::unique_lock<std::mutex> lk(mu);
    cv.wait(lk, [&] { return entered; });
  }
  void release() {
    std::lock_guard<std::mutex> lk(mu);
    open = true;
    cv.notify_all();
  }
};

/// Wait until `n` threads have announced themselves, then give them time to
/// reach the cache and attach to the in-flight computation.
void settle(const std::atomic<int>& started, int n) {
  while (started.load() < n) std::this_thread::yield();
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
}

TEST(ContentCacheTest, EvictsLeastRecentlyUsedAndReportsTheTag) {
  EvictionLog log;
  Cache cache(3, /*shards=*/1, log.fn());
  EXPECT_TRUE(cache.put(1, value(10), /*tag=*/1));
  EXPECT_TRUE(cache.put(2, value(20), /*tag=*/2));
  EXPECT_TRUE(cache.put(3, value(30), /*tag=*/3));
  ASSERT_NE(cache.get(1), nullptr);  // 2 is now the least recently used
  EXPECT_TRUE(cache.put(4, value(40), /*tag=*/1));

  EXPECT_EQ(cache.peek(2), nullptr);
  EXPECT_EQ(*cache.peek(1), 10);
  EXPECT_EQ(cache.size(), 3u);
  EXPECT_EQ(log.by_tag[2].load(), 1);
  EXPECT_EQ(log.by_tag[1].load() + log.by_tag[3].load(), 0);

  // Replacing a stored key is not an insertion and evicts nothing.
  EXPECT_FALSE(cache.put(3, value(31), /*tag=*/3));
  EXPECT_EQ(*cache.peek(3), 31);
  EXPECT_EQ(cache.size(), 3u);

  // 3 was refreshed by the replace, so 1 goes next, then 4.
  cache.put(5, value(50), /*tag=*/0);
  cache.put(6, value(60), /*tag=*/0);
  EXPECT_EQ(cache.peek(1), nullptr);
  EXPECT_EQ(cache.peek(4), nullptr);
  EXPECT_EQ(log.by_tag[1].load(), 2);
}

TEST(ContentCacheTest, ShrinkingCapacityBoundsTheEntryCount) {
  EvictionLog log;
  Cache cache(64, /*shards=*/8, log.fn());
  for (std::uint64_t k = 0; k < 64; ++k) cache.put(k * 0x9e3779b97f4a7c15ull, value(1), 2);
  const std::size_t before = cache.size();
  const int evicted_before = log.by_tag[2].load();
  ASSERT_GT(before, 8u);

  cache.set_capacity(8);
  EXPECT_EQ(cache.capacity(), 8u);
  EXPECT_LE(cache.size(), 8u);
  EXPECT_EQ(static_cast<std::size_t>(log.by_tag[2].load() - evicted_before),
            before - cache.size());

  for (std::uint64_t k = 1000; k < 1100; ++k) cache.put(k, value(2), 2);
  EXPECT_LE(cache.size(), 8u);

  cache.set_capacity(0);  // clamps to 1: each shard keeps at most one entry
  EXPECT_EQ(cache.capacity(), 1u);
  EXPECT_LE(cache.size(), 8u);
}

TEST(ContentCacheTest, ConcurrentCallersOfOneKeyComputeOnce) {
  Cache cache(16);
  std::atomic<int> computes{0};
  Gate gate;
  constexpr int kThreads = 8;
  std::array<Outcome, kThreads> outcomes{};
  std::array<int, kThreads> seen{};
  std::atomic<int> started{0};

  std::vector<std::thread> threads;
  threads.emplace_back([&] {
    seen[0] = *cache.get_or_compute(
        42, 0,
        [&] {
          computes.fetch_add(1);
          gate.enter_and_wait();
          return value(7);
        },
        &outcomes[0]);
  });
  gate.wait_entered();  // the key is now in flight
  for (int t = 1; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      started.fetch_add(1);
      seen[static_cast<std::size_t>(t)] = *cache.get_or_compute(
          42, 0,
          [&] {
            computes.fetch_add(1);
            return value(-1);
          },
          &outcomes[static_cast<std::size_t>(t)]);
    });
  }
  settle(started, kThreads - 1);
  gate.release();
  for (auto& th : threads) th.join();

  EXPECT_EQ(computes.load(), 1);
  int computed = 0, coalesced = 0;
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(seen[static_cast<std::size_t>(t)], 7);
    computed += outcomes[static_cast<std::size_t>(t)] == Outcome::Computed;
    coalesced += outcomes[static_cast<std::size_t>(t)] == Outcome::Coalesced;
  }
  EXPECT_EQ(computed, 1);
  EXPECT_EQ(coalesced, kThreads - 1);

  Outcome again;
  EXPECT_EQ(*cache.get_or_compute(42, 0, [] { return value(-1); }, &again), 7);
  EXPECT_EQ(again, Outcome::Hit);
}

TEST(ContentCacheTest, ThrowingComputeReachesEveryWaiterAndLeavesNothing) {
  Cache cache(16);
  Gate gate;
  constexpr int kWaiters = 3;
  std::atomic<int> threw{0}, coalesced{0}, started{0};
  const auto call = [&](auto compute) {
    Outcome oc = Outcome::Hit;
    try {
      cache.get_or_compute(9, 0, compute, &oc);
    } catch (const std::runtime_error& e) {
      if (std::string(e.what()) == "stage failed") threw.fetch_add(1);
    }
    if (oc == Outcome::Coalesced) coalesced.fetch_add(1);
  };

  std::thread owner([&] {
    call([&]() -> Cache::Ptr {
      gate.enter_and_wait();
      throw std::runtime_error("stage failed");
    });
  });
  gate.wait_entered();
  std::vector<std::thread> waiters;
  for (int i = 0; i < kWaiters; ++i) {
    waiters.emplace_back([&] {
      started.fetch_add(1);
      call([] { return value(1); });
    });
  }
  settle(started, kWaiters);
  gate.release();
  owner.join();
  for (auto& th : waiters) th.join();

  EXPECT_EQ(threw.load(), 1 + kWaiters);
  EXPECT_EQ(coalesced.load(), kWaiters);
  EXPECT_FALSE(cache.resident(9)) << "no pending slot may survive a failed compute";
  EXPECT_EQ(cache.size(), 0u);
  Outcome oc;
  const auto v = cache.get_or_compute(9, 0, [] { return value(5); }, &oc);
  EXPECT_EQ(oc, Outcome::Computed);
  EXPECT_EQ(*v, 5);
}

TEST(ContentCacheTest, ResidentIsPassive) {
  EvictionLog log;
  Cache cache(2, /*shards=*/1, log.fn());
  EXPECT_FALSE(cache.resident(1));
  cache.put(1, value(1), 1);
  cache.put(2, value(2), 2);
  EXPECT_TRUE(cache.resident(1));  // must NOT refresh 1
  cache.put(3, value(3), 3);
  EXPECT_FALSE(cache.resident(1)) << "resident() refreshed recency";
  EXPECT_EQ(log.by_tag[1].load(), 1);

  // A key being computed is resident before it is stored.
  Gate gate;
  std::thread t([&] {
    Outcome oc;
    cache.get_or_compute(
        7, 0,
        [&] {
          gate.enter_and_wait();
          return value(7);
        },
        &oc);
  });
  gate.wait_entered();
  EXPECT_TRUE(cache.resident(7));
  EXPECT_EQ(cache.peek(7), nullptr);
  gate.release();
  t.join();
  EXPECT_TRUE(cache.resident(7));
  EXPECT_EQ(cache.size(), 2u);
}

}  // namespace
