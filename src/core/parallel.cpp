#include "core/parallel.hpp"

#include <atomic>
#include <condition_variable>
#include <cstdlib>
#include <deque>
#include <exception>
#include <limits>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>

#include "core/instrument.hpp"

namespace gia::core {

namespace {

/// True while the current thread is executing inside a parallel region
/// (worker or participating caller); nested parallel calls run inline.
thread_local bool t_in_parallel_region = false;

/// One parallel_for invocation: a shared chunk queue claimed by atomic
/// increment. `active` counts pool workers currently touching the job so
/// the caller knows when the stack-allocated Job may be destroyed.
struct Job {
  const std::function<void(std::size_t)>* fn = nullptr;
  /// Submitting thread's open instrumentation span: workers adopt it so
  /// spans opened inside the body nest under the caller's span.
  void* span_ctx = nullptr;
  std::size_t n_chunks = 0;
  std::size_t chunk_size = 0;
  std::size_t n = 0;
  std::atomic<std::size_t> next{0};
  std::atomic<int> active{0};
  std::atomic<bool> abort{false};
  std::mutex err_mu;
  std::exception_ptr eptr;

  void run_chunks() {
    for (;;) {
      if (abort.load(std::memory_order_relaxed)) return;
      const std::size_t c = next.fetch_add(1, std::memory_order_relaxed);
      if (c >= n_chunks) return;
      const std::size_t begin = c * chunk_size;
      const std::size_t end = std::min(n, begin + chunk_size);
      try {
        for (std::size_t i = begin; i < end; ++i) (*fn)(i);
      } catch (...) {
        std::lock_guard<std::mutex> lk(err_mu);
        if (!eptr) eptr = std::current_exception();
        abort.store(true, std::memory_order_relaxed);
      }
    }
  }
};

class Pool {
 public:
  explicit Pool(int workers) {
    threads_.reserve(static_cast<std::size_t>(workers));
    for (int i = 0; i < workers; ++i) threads_.emplace_back([this] { worker(); });
  }

  ~Pool() {
    {
      std::lock_guard<std::mutex> lk(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    for (auto& t : threads_) t.join();
  }

  int workers() const { return static_cast<int>(threads_.size()); }

  /// Queue one independent task; the first idle worker runs it. Tasks must
  /// not block waiting for other tasks (run_dag's never do).
  void submit(std::function<void()> task) {
    {
      std::lock_guard<std::mutex> lk(mu_);
      tasks_.push_back(std::move(task));
    }
    cv_.notify_one();
  }

  void run(Job& job) {
    {
      std::lock_guard<std::mutex> lk(mu_);
      job_ = &job;
      ++gen_;
    }
    cv_.notify_all();

    // The caller is a full participant; workers join as they wake.
    t_in_parallel_region = true;
    job.run_chunks();
    t_in_parallel_region = false;

    std::unique_lock<std::mutex> lk(mu_);
    cv_done_.wait(lk, [&] { return job.active.load() == 0; });
    job_ = nullptr;
  }

 private:
  void worker() {
    std::uint64_t seen = 0;
    for (;;) {
      Job* job = nullptr;
      std::function<void()> task;
      {
        std::unique_lock<std::mutex> lk(mu_);
        cv_.wait(lk, [&] { return stop_ || gen_ != seen || !tasks_.empty(); });
        if (stop_) return;
        if (!tasks_.empty()) {
          task = std::move(tasks_.front());
          tasks_.pop_front();
        } else {
          seen = gen_;
          job = job_;
          // Register under the lock only while work remains: once all chunks
          // are claimed the caller may wake and destroy the job, so a late
          // worker must not touch it.
          if (job == nullptr || job->next.load(std::memory_order_relaxed) >= job->n_chunks) {
            continue;
          }
          job->active.fetch_add(1, std::memory_order_relaxed);
        }
      }
      t_in_parallel_region = true;
      if (task) {
        task();
        t_in_parallel_region = false;
        continue;
      }
      {
        instrument::ContextScope span_ctx(job->span_ctx);
        job->run_chunks();
      }
      t_in_parallel_region = false;
      {
        std::lock_guard<std::mutex> lk(mu_);
        job->active.fetch_sub(1, std::memory_order_relaxed);
      }
      cv_done_.notify_all();
    }
  }

  std::vector<std::thread> threads_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::condition_variable cv_done_;
  Job* job_ = nullptr;
  std::deque<std::function<void()>> tasks_;
  std::uint64_t gen_ = 0;
  bool stop_ = false;
};

/// One run_dag invocation. Shared (not stack-owned) because a queued pool
/// task may outlive the call: the caller can run the node a task was posted
/// for, and the late task then finds nothing ready and returns untouched.
struct Dag : std::enable_shared_from_this<Dag> {
  static constexpr std::size_t kNone = std::numeric_limits<std::size_t>::max();

  const std::function<void(std::size_t)>* fn = nullptr;
  void* span_ctx = nullptr;  ///< caller's open span, adopted by workers
  Pool* pool = nullptr;
  std::vector<std::vector<std::size_t>> dependents;
  std::vector<std::size_t> pending;  ///< unfinished dependencies per node
  std::vector<char> blocked;         ///< a dependency failed or was skipped
  std::vector<std::size_t> ready;    ///< dependencies met, not yet claimed
  std::size_t settled = 0;           ///< nodes run or skipped
  std::size_t failed_node = kNone;
  std::exception_ptr eptr;
  std::mutex mu;
  std::condition_variable cv;  ///< wakes the caller: new ready node or done

  /// Run ready nodes until none is left, then return; never waits for a
  /// node another thread is running. Each finished node releases its
  /// dependents: this thread keeps one and posts the rest to the pool.
  void work(std::unique_lock<std::mutex>& lk) {
    while (!ready.empty()) {
      // Lowest index first: registry order when several nodes are ready.
      const auto it = std::min_element(ready.begin(), ready.end());
      const std::size_t i = *it;
      ready.erase(it);
      lk.unlock();
      std::exception_ptr e;
      try {
        (*fn)(i);
      } catch (...) {
        e = std::current_exception();
      }
      lk.lock();
      // The lowest failing node's exception wins, as in a serial run.
      if (e && i < failed_node) {
        failed_node = i;
        eptr = e;
      }
      const std::size_t before = ready.size();
      settle(i, e != nullptr);
      const std::size_t fresh = ready.size() - before;
      for (std::size_t k = 1; k < fresh; ++k) post();
      if (fresh > 0 || settled == pending.size()) cv.notify_all();
    }
  }

  /// Mark `i` finished (`bad`: failed or skipped) and release dependents;
  /// a dependent of a bad node is skipped without running.
  void settle(std::size_t i, bool bad) {
    ++settled;
    for (const std::size_t d : dependents[i]) {
      if (bad) blocked[d] = 1;
      if (--pending[d] == 0) {
        if (blocked[d] != 0) {
          settle(d, true);
        } else {
          ready.push_back(d);
        }
      }
    }
  }

  /// Hand one ready node to the pool. The task keeps the Dag alive; it
  /// touches `fn` only if it claims a node, and an unfinished node keeps
  /// the caller (and so `fn`) inside run_dag.
  void post() {
    pool->submit([self = shared_from_this()] {
      instrument::ContextScope ctx(self->span_ctx);
      std::unique_lock<std::mutex> lk(self->mu);
      self->work(lk);
    });
  }
};

int env_thread_count() {
  if (const char* env = std::getenv("GIA_THREADS")) {
    const long v = std::strtol(env, nullptr, 10);
    if (v >= 1) return static_cast<int>(std::min<long>(v, 256));
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw >= 1 ? static_cast<int>(std::min<unsigned>(hw, 256u)) : 1;
}

struct PoolState {
  std::mutex mu;
  int desired = 0;  ///< 0 = not yet initialized from the environment
  std::unique_ptr<Pool> pool;

  int resolve_desired() {
    if (desired == 0) desired = env_thread_count();
    return desired;
  }

  /// Returns the pool to use (workers = desired - 1, the caller being the
  /// remaining executor), or nullptr for serial execution.
  Pool* acquire() {
    std::lock_guard<std::mutex> lk(mu);
    const int want = resolve_desired() - 1;
    if (want <= 0) {
      pool.reset();
      return nullptr;
    }
    if (!pool || pool->workers() != want) pool = std::make_unique<Pool>(want);
    return pool.get();
  }
};

PoolState& state() {
  static PoolState s;
  return s;
}

}  // namespace

int thread_count() {
  auto& s = state();
  std::lock_guard<std::mutex> lk(s.mu);
  return s.resolve_desired();
}

void set_thread_count(int n) {
  auto& s = state();
  std::lock_guard<std::mutex> lk(s.mu);
  if (n <= 0) {
    s.desired = env_thread_count();
  } else {
    s.desired = std::min(n, 256);
  }
  if (s.desired == 1) s.pool.reset();
}

void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn) {
  if (n == 0) return;
  Pool* pool = t_in_parallel_region ? nullptr : state().acquire();
  if (pool == nullptr || n == 1) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }

  Job job;
  job.fn = &fn;
  job.span_ctx = instrument::current_context();
  job.n = n;
  const std::size_t ways = static_cast<std::size_t>(pool->workers()) + 1;
  job.n_chunks = std::min(n, ways);
  job.chunk_size = (n + job.n_chunks - 1) / job.n_chunks;
  pool->run(job);
  if (job.eptr) std::rethrow_exception(job.eptr);
}

void parallel_for_chunked(std::size_t n, std::size_t grain,
                          const std::function<void(std::size_t, std::size_t)>& fn) {
  if (n == 0) return;
  grain = std::max<std::size_t>(1, grain);
  const std::size_t n_chunks = (n + grain - 1) / grain;
  parallel_for(n_chunks, [&](std::size_t c) {
    const std::size_t begin = c * grain;
    fn(begin, std::min(n, begin + grain));
  });
}

void run_dag(std::size_t n, const std::vector<std::vector<std::size_t>>& deps,
             const std::function<void(std::size_t)>& fn) {
  if (deps.size() != n) throw std::invalid_argument("run_dag: deps.size() != n");
  for (std::size_t i = 0; i < n; ++i) {
    for (const std::size_t d : deps[i]) {
      if (d >= i) {
        throw std::invalid_argument("run_dag: node " + std::to_string(i) +
                                    " depends on node " + std::to_string(d) +
                                    "; dependencies must have lower indices");
      }
    }
  }
  if (n == 0) return;

  Pool* pool = t_in_parallel_region ? nullptr : state().acquire();
  if (pool == nullptr) {
    // Serial: index order is a topological order.
    std::vector<char> bad(n, 0);
    std::exception_ptr eptr;
    for (std::size_t i = 0; i < n; ++i) {
      bad[i] = std::any_of(deps[i].begin(), deps[i].end(), [&](std::size_t d) { return bad[d] != 0; });
      if (bad[i] != 0) continue;
      try {
        fn(i);
      } catch (...) {
        bad[i] = 1;
        if (!eptr) eptr = std::current_exception();
      }
    }
    if (eptr) std::rethrow_exception(eptr);
    return;
  }

  auto dag = std::make_shared<Dag>();
  dag->fn = &fn;
  dag->span_ctx = instrument::current_context();
  dag->pool = pool;
  dag->dependents.resize(n);
  dag->pending.resize(n);
  dag->blocked.assign(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    dag->pending[i] = deps[i].size();
    for (const std::size_t d : deps[i]) dag->dependents[d].push_back(i);
    if (deps[i].empty()) dag->ready.push_back(i);
  }

  // The caller keeps one ready node, posts the rest, then runs whatever
  // becomes ready until every node has run or been skipped.
  t_in_parallel_region = true;
  std::unique_lock<std::mutex> lk(dag->mu);
  for (std::size_t k = 1; k < dag->ready.size(); ++k) dag->post();
  for (;;) {
    dag->work(lk);
    if (dag->settled == n) break;
    dag->cv.wait(lk);
  }
  lk.unlock();
  t_in_parallel_region = false;
  if (dag->eptr) std::rethrow_exception(dag->eptr);
}

}  // namespace gia::core
