#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <functional>
#include <future>
#include <mutex>
#include <numeric>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "core/links.hpp"
#include "core/parallel.hpp"
#include "core/sweep.hpp"
#include "interposer/design.hpp"
#include "pdn/impedance.hpp"
#include "pdn/pdn_model.hpp"
#include "signal/eye.hpp"
#include "signal/variation.hpp"
#include "tech/library.hpp"
#include "thermal/solver.hpp"

namespace co = gia::core;
namespace sg = gia::signal;
namespace th = gia::tech;
namespace tml = gia::thermal;

namespace {

/// Restores the previous thread count when a test ends so the suite's tests
/// stay order-independent.
struct ThreadCountGuard {
  ThreadCountGuard() : saved(co::thread_count()) {}
  ~ThreadCountGuard() { co::set_thread_count(saved); }
  int saved;
};

/// Two-layer n x n stack: a low-k base under a high-k top that dissipates.
tml::ThermalMesh two_layer_mesh(int n) {
  tml::ThermalMesh mesh;
  mesh.nx = n;
  mesh.ny = n;
  mesh.cell_w_um = 150;
  mesh.cell_h_um = 150;
  tml::ZLayer bot, top;
  bot.name = "bot";
  bot.thickness_um = 400;
  bot.k = gia::geometry::Grid<double>(n, n, 2.0);
  bot.power = gia::geometry::Grid<double>(n, n, 0.0);
  top = bot;
  top.name = "top";
  top.k.fill(120.0);
  // Asymmetric power so scheduling mistakes cannot hide behind symmetry.
  for (int y = 0; y < n; ++y) {
    for (int x = 0; x < n; ++x) top.power.at(x, y) = 1e-4 * (1 + x + 3 * y);
  }
  mesh.layers = {bot, top};
  return mesh;
}

sg::LinkSpec test_link() {
  return gia::core::make_fixed_line_spec(th::make_technology(th::TechnologyKind::Silicon25D),
                                         1500.0);
}

}  // namespace

TEST(ParallelFor, CoversEveryIndexExactlyOnce) {
  ThreadCountGuard guard;
  co::set_thread_count(4);
  std::vector<int> hits(999, 0);
  co::parallel_for(hits.size(), [&](std::size_t i) { hits[i] += 1; });
  for (int h : hits) EXPECT_EQ(h, 1);
}

TEST(ParallelFor, PoolRestartsAcrossThreadCountChanges) {
  ThreadCountGuard guard;
  for (int n : {1, 3, 1, 4, 2}) {
    co::set_thread_count(n);
    EXPECT_EQ(co::thread_count(), n);
    std::atomic<long> sum{0};
    co::parallel_for(100, [&](std::size_t i) { sum += static_cast<long>(i); });
    EXPECT_EQ(sum.load(), 4950);
  }
}

TEST(ParallelFor, EnvVarSetsDefault) {
  ThreadCountGuard guard;
  ASSERT_EQ(setenv("GIA_THREADS", "3", 1), 0);
  co::set_thread_count(0);  // re-read the environment
  EXPECT_EQ(co::thread_count(), 3);
  ASSERT_EQ(unsetenv("GIA_THREADS"), 0);
  co::set_thread_count(0);
  EXPECT_GE(co::thread_count(), 1);
}

TEST(ParallelFor, PropagatesExceptions) {
  ThreadCountGuard guard;
  for (int n : {1, 4}) {
    co::set_thread_count(n);
    EXPECT_THROW(co::parallel_for(64,
                                  [&](std::size_t i) {
                                    if (i == 13) throw std::runtime_error("boom");
                                  }),
                 std::runtime_error);
    // The pool must stay usable after an exception.
    std::atomic<int> count{0};
    co::parallel_for(32, [&](std::size_t) { ++count; });
    EXPECT_EQ(count.load(), 32);
  }
}

TEST(ParallelFor, LowestFailingIndexWins) {
  ThreadCountGuard guard;
  for (int threads : {1, 2, 4}) {
    co::set_thread_count(threads);
    std::vector<std::atomic<int>> ran(64);
    try {
      co::parallel_for(ran.size(), [&](std::size_t i) {
        ran[i]++;
        if (i == 13) {
          // Let index 40 fail first when the two run concurrently.
          std::this_thread::sleep_for(std::chrono::milliseconds(20));
          throw std::runtime_error("13");
        }
        if (i == 40) throw std::runtime_error("40");
      });
      ADD_FAILURE() << "parallel_for swallowed the exception";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "13") << threads << " threads";
    }
    // A failure abandons only work above it: every index a serial run
    // reaches still runs.
    for (std::size_t i = 0; i <= 13; ++i) {
      EXPECT_EQ(ran[i].load(), 1) << threads << " threads, index " << i;
    }
  }
}

TEST(ParallelFor, NestedCallsCoverEveryIndexOnce) {
  ThreadCountGuard guard;
  co::set_thread_count(4);
  std::vector<int> hits(64, 0);
  co::parallel_for(8, [&](std::size_t outer) {
    co::parallel_for(8, [&](std::size_t inner) { hits[outer * 8 + inner] += 1; });
  });
  for (int h : hits) EXPECT_EQ(h, 1);
}

namespace {

/// Number of distinct threads that run the indices of `parallel_for(n)`.
/// Each index waits up to 20 ms for `want` threads to show up, so every
/// executor the pool offers has time to claim an index, while a pool that
/// offers fewer fails the caller's check after n * 20 ms instead of hanging.
std::size_t distinct_threads(std::size_t n, std::size_t want) {
  std::mutex mu;
  std::condition_variable cv;
  std::set<std::thread::id> ids;
  co::parallel_for(n, [&](std::size_t) {
    std::unique_lock<std::mutex> lk(mu);
    ids.insert(std::this_thread::get_id());
    cv.notify_all();
    cv.wait_for(lk, std::chrono::milliseconds(20), [&] { return ids.size() >= want; });
  });
  return ids.size();
}

/// Runs `body` on its own thread and fails the test if it has not returned
/// within `limit`. A deadlocked pool cannot be torn down, so a timeout ends
/// the process instead of hanging the suite.
void expect_finishes_within(std::chrono::seconds limit, const std::function<void()>& body) {
  std::promise<void> done;
  std::future<void> finished = done.get_future();
  std::thread runner([&] {
    body();
    done.set_value();
  });
  if (finished.wait_for(limit) != std::future_status::ready) {
    ADD_FAILURE() << "did not finish within " << limit.count() << " s";
    std::abort();
  }
  runner.join();
}

}  // namespace

TEST(ParallelFor, NestedCallsUseIdleWorkers) {
  ThreadCountGuard guard;
  co::set_thread_count(4);
  std::size_t seen = 0;
  // A one-node graph: its node is a parallel region with three idle workers.
  co::run_dag(1, {{}}, [&](std::size_t) { seen = distinct_threads(16, 2); });
  EXPECT_GE(seen, 2u);
}

TEST(ParallelFor, ThreeLevelNestingFromTwoCallers) {
  ThreadCountGuard guard;
  constexpr std::size_t kA = 5, kB = 6, kC = 7;
  for (int threads : {1, 2, 4}) {
    co::set_thread_count(threads);
    expect_finishes_within(std::chrono::seconds(120), [] {
      auto caller = [](int rep) {
        std::vector<std::atomic<int>> hits(kA * kB * kC);
        co::parallel_for(kA, [&](std::size_t a) {
          co::parallel_for(kB, [&](std::size_t b) {
            co::parallel_for(kC, [&](std::size_t c) { hits[(a * kB + b) * kC + c]++; });
          });
        });
        for (std::size_t i = 0; i < hits.size(); ++i) {
          EXPECT_EQ(hits[i].load(), 1) << "rep " << rep << ", leaf " << i;
        }
        // An innermost throw comes out through both enclosing calls.
        try {
          co::parallel_for(kA, [&](std::size_t a) {
            co::parallel_for(kB, [&](std::size_t b) {
              co::parallel_for(kC, [&](std::size_t c) {
                if (a == 3 && b == 2 && c == 5) throw std::runtime_error("leaf");
              });
            });
          });
          ADD_FAILURE() << "rep " << rep << ": the inner exception was lost";
        } catch (const std::runtime_error& e) {
          EXPECT_STREQ(e.what(), "leaf");
        }
      };
      for (int rep = 0; rep < 20; ++rep) {
        std::thread other(caller, rep);
        caller(rep);
        other.join();
      }
      // The pool is still usable.
      std::atomic<int> count{0};
      co::parallel_for(100, [&](std::size_t) { ++count; });
      EXPECT_EQ(count.load(), 100);
    });
  }
}

TEST(ParallelFor, SetThreadCountBetweenRegionsResizesPool) {
  ThreadCountGuard guard;
  for (int n : {4, 2, 3, 1, 4}) {
    co::set_thread_count(n);
    // More indices than threads: a pool left at an old size would show a
    // thread too many or be one short.
    EXPECT_EQ(distinct_threads(16, static_cast<std::size_t>(n)), static_cast<std::size_t>(n))
        << n << " threads";
  }
}

// --- run_dag: dependency-driven graph execution.

namespace {

/// A 12-node graph with fan-out, fan-in and a long chain beside short
/// branches (the shape of the flow's stage registry, doubled).
std::vector<std::vector<std::size_t>> sample_dag() {
  return {{},        {0},    {0},    {2},       {3},    {2},
          {2},       {1, 4}, {1},    {5, 6, 8}, {},     {9, 10}};
}

/// Per-node start and finish tickets drawn from one atomic sequence.
struct Tickets {
  explicit Tickets(std::size_t n) : start(n, -1), finish(n, -1) {}
  std::atomic<int> seq{0};
  std::vector<int> start, finish;
};

}  // namespace

TEST(RunDag, RespectsDependencyOrderAtAnyThreadCount) {
  ThreadCountGuard guard;
  const auto deps = sample_dag();
  for (int threads : {1, 4}) {
    co::set_thread_count(threads);
    for (int rep = 0; rep < 20; ++rep) {
      Tickets t(deps.size());
      co::run_dag(deps.size(), deps, [&](std::size_t i) {
        t.start[i] = t.seq++;
        // Uneven work so the ready set changes shape between reps.
        volatile double x = 0;
        for (std::size_t k = 0; k < 2000 * ((i * 7 + static_cast<std::size_t>(rep)) % 5); ++k) {
          x = x + 1.0;
        }
        t.finish[i] = t.seq++;
      });
      for (std::size_t i = 0; i < deps.size(); ++i) {
        ASSERT_GE(t.start[i], 0) << "node " << i << " never ran";
        for (const std::size_t d : deps[i]) {
          EXPECT_LT(t.finish[d], t.start[i])
              << threads << " threads: node " << i << " started before dependency " << d
              << " finished";
        }
      }
    }
  }
}

TEST(RunDag, ExceptionSkipsDependentsAndIsRethrown) {
  ThreadCountGuard guard;
  const auto deps = sample_dag();
  // Node 2 fails: 3, 4, 5, 6, 7 (via 4), 9 and 11 (via 9) depend on it.
  const std::vector<std::size_t> downstream = {3, 4, 5, 6, 7, 9, 11};
  for (int threads : {1, 4}) {
    co::set_thread_count(threads);
    std::vector<std::atomic<int>> ran(deps.size());
    try {
      co::run_dag(deps.size(), deps, [&](std::size_t i) {
        ran[i]++;
        if (i == 2) throw std::runtime_error("node 2 failed");
      });
      ADD_FAILURE() << "run_dag swallowed the exception";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "node 2 failed");
    }
    for (std::size_t i = 0; i < deps.size(); ++i) {
      const bool is_downstream =
          std::find(downstream.begin(), downstream.end(), i) != downstream.end();
      EXPECT_EQ(ran[i].load(), is_downstream ? 0 : 1) << threads << " threads, node " << i;
    }
    // The pool must stay usable after a failed graph.
    std::atomic<int> count{0};
    co::run_dag(deps.size(), deps, [&](std::size_t) { ++count; });
    EXPECT_EQ(count.load(), static_cast<int>(deps.size()));
  }
}

TEST(RunDag, LowestFailingNodeWins) {
  ThreadCountGuard guard;
  const auto deps = sample_dag();
  for (int threads : {1, 4}) {
    co::set_thread_count(threads);
    // Nodes 8 and 10 are independent of each other; 10 finishes first when
    // run concurrently, but 8 has the lower index.
    try {
      co::run_dag(deps.size(), deps, [&](std::size_t i) {
        if (i == 8) {
          std::this_thread::sleep_for(std::chrono::milliseconds(20));
          throw std::runtime_error("8");
        }
        if (i == 10) throw std::runtime_error("10");
      });
      ADD_FAILURE() << "run_dag swallowed the exception";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "8") << threads << " threads";
    }
  }
}

TEST(RunDag, NestedCallRunsInlineInTopologicalOrder) {
  ThreadCountGuard guard;
  co::set_thread_count(4);
  const auto deps = sample_dag();
  std::vector<std::vector<std::size_t>> order(4);
  std::vector<std::thread::id> caller(4);
  std::vector<int> same_thread(4, 1);
  co::parallel_for(4, [&](std::size_t outer) {
    caller[outer] = std::this_thread::get_id();
    co::run_dag(deps.size(), deps, [&](std::size_t i) {
      order[outer].push_back(i);
      if (std::this_thread::get_id() != caller[outer]) same_thread[outer] = 0;
    });
  });
  std::vector<std::size_t> index_order(deps.size());
  std::iota(index_order.begin(), index_order.end(), std::size_t{0});
  for (std::size_t outer = 0; outer < 4; ++outer) {
    EXPECT_EQ(order[outer], index_order);
    EXPECT_EQ(same_thread[outer], 1);
  }
}

TEST(RunDag, RejectsForwardDependencies) {
  EXPECT_THROW(co::run_dag(2, {{1}, {}}, [](std::size_t) {}), std::invalid_argument);
  EXPECT_THROW(co::run_dag(2, {{}}, [](std::size_t) {}), std::invalid_argument);
}

TEST(OrderedReduce, ByteIdenticalAcrossThreadCounts) {
  ThreadCountGuard guard;
  // Values chosen so the accumulation order matters in floating point: a
  // scheduling-dependent combine order would show up as a bit difference.
  std::vector<double> values(4097);
  for (std::size_t i = 0; i < values.size(); ++i) {
    values[i] = 1e-12 + 1e3 * static_cast<double>(i % 7) + 1e-7 * static_cast<double>(i);
  }
  auto sum_at = [&](int threads) {
    co::set_thread_count(threads);
    return co::ordered_reduce(
        values.size(), 64, 0.0,
        [&](std::size_t b, std::size_t e) {
          return std::accumulate(values.begin() + static_cast<long>(b),
                                 values.begin() + static_cast<long>(e), 0.0);
        },
        [](double a, double b) { return a + b; });
  };
  const double s1 = sum_at(1);
  const double s4 = sum_at(4);
  EXPECT_EQ(s1, s4);  // exact, not NEAR
}

TEST(Determinism, ThermalSteadyState) {
  ThreadCountGuard guard;
  const auto mesh = two_layer_mesh(12);
  co::set_thread_count(1);
  const auto serial = tml::solve_steady_state(mesh);
  co::set_thread_count(4);
  const auto parallel = tml::solve_steady_state(mesh);
  ASSERT_TRUE(serial.converged);
  ASSERT_TRUE(parallel.converged);
  EXPECT_EQ(serial.iterations, parallel.iterations);
  EXPECT_EQ(serial.max_c, parallel.max_c);
  ASSERT_EQ(serial.t_c.size(), parallel.t_c.size());
  for (std::size_t z = 0; z < serial.t_c.size(); ++z) {
    EXPECT_EQ(serial.t_c[z].data(), parallel.t_c[z].data()) << "layer " << z;
  }
}

TEST(Determinism, ThermalSorEitherSideOfSerialCutoff) {
  // The largest two-layer mesh below kSorParallelMinCells sweeps serially
  // at any thread count; the next size up sweeps over the pool at 4 threads.
  // Both must give the same field at 1 and 4 threads. A fixed sweep count
  // keeps the larger mesh cheap; convergence is not the point here.
  ThreadCountGuard guard;
  int n = 1;
  while (2 * static_cast<std::size_t>(n + 1) * static_cast<std::size_t>(n + 1) <
         tml::kSorParallelMinCells) {
    ++n;
  }
  tml::SolverOptions opts;
  opts.max_iters = 200;
  for (const int side : {n, n + 1}) {
    const auto mesh = two_layer_mesh(side);
    ASSERT_EQ(2 * static_cast<std::size_t>(side) * static_cast<std::size_t>(side) <
                  tml::kSorParallelMinCells,
              side == n);
    co::set_thread_count(1);
    const auto serial = tml::solve_steady_state_sor(mesh, opts);
    co::set_thread_count(4);
    const auto parallel = tml::solve_steady_state_sor(mesh, opts);
    EXPECT_EQ(serial.iterations, parallel.iterations) << side;
    EXPECT_EQ(serial.max_c, parallel.max_c) << side;
    ASSERT_EQ(serial.t_c.size(), parallel.t_c.size());
    for (std::size_t z = 0; z < serial.t_c.size(); ++z) {
      EXPECT_EQ(serial.t_c[z].data(), parallel.t_c[z].data()) << side << " layer " << z;
    }
  }
}

TEST(Determinism, VariationMonteCarlo) {
  ThreadCountGuard guard;
  sg::VariationSpec var;
  var.samples = 8;
  co::set_thread_count(1);
  const auto serial = sg::monte_carlo_delay(test_link(), var);
  co::set_thread_count(4);
  const auto parallel = sg::monte_carlo_delay(test_link(), var);
  EXPECT_EQ(serial.samples_s, parallel.samples_s);
  EXPECT_EQ(serial.mean_delay_s, parallel.mean_delay_s);
  EXPECT_EQ(serial.sigma_delay_s, parallel.sigma_delay_s);
  EXPECT_EQ(serial.worst_delay_s, parallel.worst_delay_s);
}

TEST(Determinism, PdnImpedance) {
  ThreadCountGuard guard;
  const auto design = gia::interposer::build_interposer_design(th::TechnologyKind::Glass25D);
  const auto model = gia::pdn::build_pdn_model(design);
  co::set_thread_count(1);
  const auto serial = gia::pdn::impedance_profile(model);
  co::set_thread_count(4);
  const auto parallel = gia::pdn::impedance_profile(model);
  EXPECT_EQ(serial.freq_hz, parallel.freq_hz);
  EXPECT_EQ(serial.z_ohm, parallel.z_ohm);
}

TEST(Determinism, Eye) {
  ThreadCountGuard guard;
  // 127 bits leave several kUiGrain chunks of sampled UIs, so the level
  // statistics really are reduced across chunks; the traces fill in parallel.
  const auto spec = test_link();
  sg::EyeConfig cfg;
  cfg.keep_traces = true;
  co::set_thread_count(1);
  const auto serial = sg::simulate_eye(spec, 127, cfg);
  co::set_thread_count(4);
  const auto parallel = sg::simulate_eye(spec, 127, cfg);
  EXPECT_EQ(serial.width_s, parallel.width_s);
  EXPECT_EQ(serial.height_v, parallel.height_v);
  EXPECT_EQ(serial.mean_high_v, parallel.mean_high_v);
  EXPECT_EQ(serial.sigma_high_v, parallel.sigma_high_v);
  EXPECT_EQ(serial.mean_low_v, parallel.mean_low_v);
  EXPECT_EQ(serial.sigma_low_v, parallel.sigma_low_v);
  EXPECT_EQ(serial.traces, parallel.traces);
  EXPECT_GT(serial.traces.size(), 64u);
}

TEST(MetricMap, SortedFlatMapBehavesLikeMap) {
  co::MetricMap m{{"b", 2.0}, {"a", 1.0}, {"c", 3.0}};
  EXPECT_EQ(m.size(), 3u);
  EXPECT_TRUE(m.contains("a"));
  EXPECT_FALSE(m.contains("z"));
  ASSERT_NE(m.find("b"), nullptr);
  EXPECT_EQ(*m.find("b"), 2.0);
  m.set("b", 9.0);  // overwrite keeps size
  EXPECT_EQ(m.size(), 3u);
  EXPECT_EQ(*m.find("b"), 9.0);
  // Iteration is sorted by name.
  std::vector<std::string> names;
  for (const auto& kv : m) names.push_back(kv.first);
  EXPECT_EQ(names, (std::vector<std::string>{"a", "b", "c"}));
  // Conversion from std::map (legacy eval lambdas).
  const std::map<std::string, double> legacy{{"x", 1.0}, {"y", 2.0}};
  const co::MetricMap from_map = legacy;
  EXPECT_EQ(*from_map.find("y"), 2.0);
}
