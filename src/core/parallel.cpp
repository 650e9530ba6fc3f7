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
#include <utility>

#include "core/instrument.hpp"

namespace gia::core {

namespace {

class Pool;

constexpr std::size_t kNone = std::numeric_limits<std::size_t>::max();

/// Pool of the parallel region the current thread runs in (as a worker or
/// as a caller running chunks or graph nodes), nullptr outside any region.
/// A nested parallel_for reuses it -- never acquire(), which may resize or
/// destroy the pool under a running worker -- and a nested run_dag runs inline.
thread_local Pool* t_region = nullptr;

/// Worker threads that run independent tasks from one FIFO deque. Tasks
/// never wait for a task that has not started (see parallel.hpp), so any
/// number of callers can share the pool.
class Pool {
 public:
  explicit Pool(int workers) : idle_(static_cast<std::size_t>(workers)) {
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

  /// Queue `k` copies of an independent task; idle workers run them. A task
  /// left in the queue when the pool stops is dropped, so callers must not
  /// depend on a task ever running (parallel_for and run_dag do not).
  void submit(const std::function<void()>& task, std::size_t k = 1) {
    {
      std::lock_guard<std::mutex> lk(mu_);
      tasks_.insert(tasks_.end(), k, task);
    }
    for (std::size_t i = 0; i < k; ++i) cv_.notify_one();
  }

  /// Whether some worker is not running a task (a lock-free hint).
  bool idle() const { return idle_.load(std::memory_order_relaxed) > 0; }

 private:
  void worker() {
    t_region = this;
    std::unique_lock<std::mutex> lk(mu_);
    for (;;) {
      cv_.wait(lk, [&] { return stop_ || !tasks_.empty(); });
      if (stop_) return;
      std::function<void()> task = std::move(tasks_.front());
      tasks_.pop_front();
      idle_.fetch_sub(1, std::memory_order_relaxed);
      lk.unlock();
      task();
      task = nullptr;
      lk.lock();
      idle_.fetch_add(1, std::memory_order_relaxed);
    }
  }

  std::vector<std::thread> threads_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> tasks_;
  std::atomic<std::size_t> idle_;  ///< workers not running a task
  bool stop_ = false;
};

/// One parallel_for invocation. Shared (not stack-owned) because a helper
/// task may start after the call has returned: it then claims no chunk and
/// never touches `fn`. A claimed chunk keeps the caller (and so `fn`)
/// inside parallel_for until it is counted done.
struct Job : std::enable_shared_from_this<Job> {
  const std::function<void(std::size_t)>* fn = nullptr;
  void* span_ctx = nullptr;  ///< caller's open span, adopted by workers
  Pool* pool = nullptr;
  std::size_t n_chunks = 0;
  std::size_t chunk_size = 0;
  std::size_t n = 0;
  std::mutex mu;
  std::condition_variable cv;  ///< wakes the caller when the last chunk is done
  std::size_t next = 0;        ///< next unclaimed chunk
  std::size_t done = 0;        ///< chunks run or skipped
  std::size_t failed = kNone;  ///< lowest chunk that threw
  std::exception_ptr eptr;     ///< its exception

  /// Claim and run chunks until none is left; `lk` holds `mu` on entry and
  /// on return. Chunks are claimed in ascending order, so a failure skips
  /// only chunks above it: those below are already claimed and still run,
  /// and the lowest failing index's exception wins, as in a serial run.
  void run_chunks(std::unique_lock<std::mutex>& lk) {
    while (next < n_chunks) {
      const std::size_t c = next++;
      const bool more = next < n_chunks;
      lk.unlock();
      if (more) help(1);  // a worker idle since the last claim can still join
      const std::size_t end = std::min(n, (c + 1) * chunk_size);
      std::exception_ptr e;
      try {
        for (std::size_t i = c * chunk_size; i < end; ++i) (*fn)(i);
      } catch (...) {
        e = std::current_exception();
      }
      lk.lock();
      ++done;
      if (e && c < failed) {
        failed = c;
        eptr = e;
        done += n_chunks - next;
        next = n_chunks;
      }
    }
    if (done == n_chunks) cv.notify_all();
  }

  /// Queue `k` helper tasks that claim chunks too, but only while some
  /// worker is idle: short calls made while every worker is busy (SOR
  /// sweeps inside a busy sweep) would otherwise pile up thousands of them.
  void help(std::size_t k) {
    if (!pool->idle()) return;
    pool->submit(
        [self = shared_from_this()] {
          instrument::ContextScope ctx(self->span_ctx);
          std::unique_lock<std::mutex> lk(self->mu);
          self->run_chunks(lk);
        },
        k);
  }
};

/// One run_dag invocation. Shared (not stack-owned) because a queued pool
/// task may outlive the call: the caller can run the node a task was posted
/// for, and the late task then finds nothing ready and returns untouched.
struct Dag : std::enable_shared_from_this<Dag> {
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

  /// Hand one ready node to the pool, if any. The task keeps the Dag alive;
  /// it touches `fn` only if it claims a node, and an unfinished node keeps
  /// the caller (and so `fn`) inside run_dag.
  void post() {
    if (pool == nullptr) return;
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
  Pool* pool = t_region != nullptr ? t_region : state().acquire();
  if (pool == nullptr || n == 1) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }

  auto job = std::make_shared<Job>();
  job->fn = &fn;
  job->pool = pool;
  job->span_ctx = instrument::current_context();
  job->n = n;
  // Four chunks per thread, claimed in turn: a slow index (a large die)
  // does not hold up the rest of a static share.
  const std::size_t ways = static_cast<std::size_t>(pool->workers()) + 1;
  job->n_chunks = std::min(n, 4 * ways);
  job->chunk_size = (n + job->n_chunks - 1) / job->n_chunks;
  // Idle workers help; the caller claims whatever they have not, then waits
  // only for chunks another thread is running.
  job->help(std::min(job->n_chunks, ways) - 1);
  std::unique_lock<std::mutex> lk(job->mu);
  Pool* const outer = std::exchange(t_region, pool);
  job->run_chunks(lk);
  t_region = outer;
  job->cv.wait(lk, [&] { return job->done == job->n_chunks; });
  // Move the exception out: a late task may drop the last reference to the
  // job, and it must not take the caller's exception object with it.
  if (const std::exception_ptr e = std::move(job->eptr)) std::rethrow_exception(e);
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

  // Without a pool (one thread, or nested in a region) nothing is posted
  // and the caller runs every node; lowest-ready-first is then index order.
  Pool* const outer = t_region;
  Pool* const pool = outer != nullptr ? nullptr : state().acquire();
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
  if (pool != nullptr) t_region = pool;
  std::unique_lock<std::mutex> lk(dag->mu);
  for (std::size_t k = 1; k < dag->ready.size(); ++k) dag->post();
  for (;;) {
    dag->work(lk);
    if (dag->settled == n) break;
    dag->cv.wait(lk);
  }
  lk.unlock();
  t_region = outer;
  if (const std::exception_ptr e = std::move(dag->eptr)) std::rethrow_exception(e);
}

}  // namespace gia::core
