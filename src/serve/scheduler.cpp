#include "serve/scheduler.hpp"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <mutex>
#include <queue>
#include <thread>
#include <unordered_map>

#include "core/counters.hpp"
#include "core/instrument.hpp"
#include "core/stagegraph.hpp"
#include "serve/faultinject.hpp"

namespace gia::serve {

using Clock = std::chrono::steady_clock;

struct JobTicket::State {
  std::uint64_t id = 0;
  std::uint64_t key = 0;
  std::uint64_t seq = 0;  ///< submission order (FIFO tie-break)
  int priority = 0;
  Clock::time_point deadline{};  ///< epoch = none
  FlowRequest request;

  mutable std::mutex mu;
  mutable std::condition_variable cv;
  Status status = Status::Queued;
  ResultCache::ResultPtr result;
  std::string error;
  std::uint64_t finish_seq = 0;

  /// Scheduling links, guarded by the scheduler mutex (not `mu`).
  int deps_remaining = 0;
  std::vector<std::shared_ptr<State>> dependents;

  bool terminal_locked() const {
    return status != Status::Queued && status != Status::Running;
  }
};

JobTicket::JobTicket(std::shared_ptr<State> st, bool from_cache, bool coalesced)
    : state_(std::move(st)), from_cache_(from_cache), coalesced_(coalesced) {}

std::uint64_t JobTicket::job_id() const { return state_->id; }
std::uint64_t JobTicket::key() const { return state_->key; }
bool JobTicket::from_cache() const { return from_cache_; }
bool JobTicket::coalesced() const { return coalesced_; }

JobTicket::Status JobTicket::status() const {
  std::lock_guard<std::mutex> lk(state_->mu);
  return state_->status;
}

JobTicket::Status JobTicket::wait() const {
  std::unique_lock<std::mutex> lk(state_->mu);
  state_->cv.wait(lk, [&] { return state_->terminal_locked(); });
  return state_->status;
}

JobTicket::Status JobTicket::wait_for(std::chrono::milliseconds timeout) const {
  std::unique_lock<std::mutex> lk(state_->mu);
  state_->cv.wait_for(lk, timeout, [&] { return state_->terminal_locked(); });
  return state_->status;
}

ResultCache::ResultPtr JobTicket::result() const {
  std::lock_guard<std::mutex> lk(state_->mu);
  return state_->result;
}

std::string JobTicket::error() const {
  std::lock_guard<std::mutex> lk(state_->mu);
  return state_->error;
}

std::uint64_t JobTicket::finish_order() const {
  std::lock_guard<std::mutex> lk(state_->mu);
  return state_->finish_seq;
}

// --------------------------------------------------------------------------

struct JobScheduler::Impl {
  using StatePtr = std::shared_ptr<JobTicket::State>;
  using Status = JobTicket::Status;

  ResultCache* cache = nullptr;

  std::mutex mu;  ///< guards queue / inflight / by_id / scheduling links
  std::condition_variable cv_work;
  std::condition_variable cv_idle;

  struct Cmp {
    bool operator()(const StatePtr& a, const StatePtr& b) const {
      if (a->priority != b->priority) return a->priority < b->priority;
      return a->seq > b->seq;  // FIFO within a priority
    }
  };
  std::priority_queue<StatePtr, std::vector<StatePtr>, Cmp> queue;
  /// Cache key -> queued or running job, for request coalescing.
  std::unordered_map<std::uint64_t, StatePtr> inflight;
  /// Job id -> non-terminal job, for cancel() and dependency lookup.
  std::unordered_map<std::uint64_t, StatePtr> by_id;

  std::uint64_t next_id = 1;
  std::uint64_t next_seq = 1;
  std::atomic<std::uint64_t> finish_counter{0};
  int active = 0;  ///< workers currently executing a job
  bool stop = false;

  CounterSet<core::counters::Live> counts;

  std::vector<std::thread> workers;

  /// Move a job to a terminal state and unlink it, then walk its dependents
  /// with an explicit worklist. Caller holds `mu`. Dependent cancellation
  /// must NOT recurse: a failed job at the head of a deep dependency chain
  /// would otherwise cancel the whole chain by nested calls while holding
  /// the scheduler mutex and overflow the stack.
  void finish_locked(const StatePtr& st, Status status, ResultCache::ResultPtr result,
                     std::string error) {
    struct Item {
      StatePtr st;
      Status status;
      ResultCache::ResultPtr result;
      std::string error;
      bool cascade;  ///< counted in counts.cancelled when it actually transitions
    };
    std::vector<Item> work;
    work.push_back({st, status, std::move(result), std::move(error), /*cascade=*/false});

    while (!work.empty()) {
      Item it = std::move(work.back());
      work.pop_back();
      {
        std::lock_guard<std::mutex> lk(it.st->mu);
        // A job may be queued twice here (a dependent of two failing jobs in
        // one cascade); only the first pop transitions it.
        if (it.st->terminal_locked()) continue;
        it.st->status = it.status;
        it.st->result = std::move(it.result);
        it.st->error = std::move(it.error);
        it.st->finish_seq = finish_counter.fetch_add(1, std::memory_order_relaxed) + 1;
      }
      it.st->cv.notify_all();
      if (it.cascade) counts.cancelled.fetch_add(1, std::memory_order_relaxed);

      auto fl = inflight.find(it.st->key);
      if (fl != inflight.end() && fl->second == it.st) inflight.erase(fl);
      by_id.erase(it.st->id);

      const bool ok = it.status == Status::Done;
      for (const auto& dep : it.st->dependents) {
        bool already_terminal;
        {
          std::lock_guard<std::mutex> lk(dep->mu);
          already_terminal = dep->terminal_locked();
        }
        if (already_terminal) continue;
        if (!ok) {
          work.push_back({dep, Status::Cancelled, nullptr,
                          "dependency " + std::to_string(it.st->id) + " did not complete",
                          /*cascade=*/true});
        } else if (--dep->deps_remaining == 0) {
          queue.push(dep);
          cv_work.notify_one();
        }
      }
      it.st->dependents.clear();
    }
    cv_idle.notify_all();
  }

  bool idle_locked() const { return queue.empty() && by_id.empty() && active == 0; }

  void worker_loop() {
    std::unique_lock<std::mutex> lk(mu);
    for (;;) {
      cv_work.wait(lk, [&] { return stop || !queue.empty(); });
      if (stop) return;
      StatePtr st = queue.top();
      queue.pop();

      // Cancelled-while-queued jobs are removed lazily here; a drain() that
      // saw them still queued is waiting for this pop.
      {
        std::lock_guard<std::mutex> slk(st->mu);
        if (st->terminal_locked()) {
          cv_idle.notify_all();
          continue;
        }
      }

      if (st->deadline != Clock::time_point{} && Clock::now() > st->deadline) {
        counts.expired.fetch_add(1, std::memory_order_relaxed);
        finish_locked(st, Status::Expired, nullptr, "deadline passed before start");
        continue;
      }

      // A duplicate may have populated the cache between submit and start
      // (e.g. a disk entry appeared); serve it without re-running.
      if (cache != nullptr) {
        if (auto hit = cache->peek(st->key)) {
          counts.cache_hits.fetch_add(1, std::memory_order_relaxed);
          finish_locked(st, Status::Done, hit, {});
          continue;
        }
      }

      {
        std::lock_guard<std::mutex> slk(st->mu);
        st->status = Status::Running;
      }
      ++active;
      lk.unlock();

      fault::maybe_stall();  // injected worker stall (GIA_FAULTS sched_stall)

      ResultCache::ResultPtr result;
      std::string error;
      try {
        GIA_SPAN("serve/flow");
        // The flow is submitted as stage-level work: execute_flow walks the
        // stage DAG, so a request that differs from recent traffic only in
        // downstream knobs reuses the cached upstream stage artifacts. The
        // per-run record feeds the scheduler's stage hit/miss counters.
        core::stage::StageRunRecord srec;
        result = std::make_shared<const core::TechnologyResult>(
            core::stage::execute_flow(st->request.tech, st->request.options, &srec));
        counts.stage_hits.fetch_add(srec.hits(), std::memory_order_relaxed);
        counts.stage_misses.fetch_add(srec.misses(), std::memory_order_relaxed);
      } catch (const std::exception& e) {
        error = e.what();
      } catch (...) {
        error = "unknown error";
      }
      if (result != nullptr && cache != nullptr) cache->put(st->key, result);

      lk.lock();
      --active;
      if (result != nullptr) {
        counts.executed.fetch_add(1, std::memory_order_relaxed);
        finish_locked(st, Status::Done, std::move(result), {});
      } else {
        counts.failed.fetch_add(1, std::memory_order_relaxed);
        finish_locked(st, Status::Failed, nullptr, std::move(error));
      }
    }
  }
};

JobScheduler::JobScheduler(const Options& opts) : impl_(std::make_unique<Impl>()) {
  impl_->cache = opts.cache;
  const int n = std::max(1, opts.workers);
  impl_->workers.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    impl_->workers.emplace_back([this] { impl_->worker_loop(); });
  }
}

JobScheduler::~JobScheduler() {
  {
    std::lock_guard<std::mutex> lk(impl_->mu);
    impl_->stop = true;
    // Cancel everything still queued or held on dependencies.
    while (!impl_->queue.empty()) impl_->queue.pop();
    std::vector<Impl::StatePtr> pending;
    pending.reserve(impl_->by_id.size());
    for (const auto& [id, st] : impl_->by_id) pending.push_back(st);
    for (const auto& st : pending) {
      bool running;
      {
        std::lock_guard<std::mutex> slk(st->mu);
        running = st->status == JobTicket::Status::Running;
      }
      if (running) continue;  // worker finishes and reports it
      impl_->counts.cancelled.fetch_add(1, std::memory_order_relaxed);
      impl_->finish_locked(st, JobTicket::Status::Cancelled, nullptr, "scheduler stopped");
    }
  }
  impl_->cv_work.notify_all();
  for (auto& t : impl_->workers) t.join();
}

JobTicket JobScheduler::submit(const FlowRequest& req) { return submit(req, SubmitOptions()); }

JobTicket JobScheduler::submit(const FlowRequest& req, const SubmitOptions& opts) {
  impl_->counts.submitted.fetch_add(1, std::memory_order_relaxed);
  const std::uint64_t key = request_key(req);

  if (impl_->cache != nullptr && opts.after.empty()) {
    if (auto hit = impl_->cache->get(key)) {
      impl_->counts.cache_hits.fetch_add(1, std::memory_order_relaxed);
      auto st = std::make_shared<JobTicket::State>();
      st->key = key;
      st->status = JobTicket::Status::Done;
      st->result = hit;
      // A hit is a job that completed at submit time: it gets a real id and
      // a finish sequence number like any other job, so finish_order() is
      // truthful for hits and cancel(job_id()) is a well-defined no-op
      // (the id never enters by_id) instead of aliasing on id 0.
      {
        std::lock_guard<std::mutex> lk(impl_->mu);
        st->id = impl_->next_id++;
        st->seq = impl_->next_seq++;
      }
      st->finish_seq = impl_->finish_counter.fetch_add(1, std::memory_order_relaxed) + 1;
      return JobTicket(std::move(st), /*from_cache=*/true, /*coalesced=*/false);
    }
  }

  std::lock_guard<std::mutex> lk(impl_->mu);

  // Dependency-carrying submissions are real ordering constraints; they
  // neither coalesce nor answer from cache.
  auto fl = opts.after.empty() ? impl_->inflight.find(key) : impl_->inflight.end();
  if (fl != impl_->inflight.end()) {
    bool live;
    {
      std::lock_guard<std::mutex> slk(fl->second->mu);
      live = !fl->second->terminal_locked();
    }
    if (live) {
      impl_->counts.coalesced.fetch_add(1, std::memory_order_relaxed);
      return JobTicket(fl->second, /*from_cache=*/false, /*coalesced=*/true);
    }
  }

  auto st = std::make_shared<JobTicket::State>();
  st->id = impl_->next_id++;
  st->seq = impl_->next_seq++;
  st->key = key;
  st->priority = opts.priority;
  st->deadline = opts.deadline;
  st->request = req;

  bool dep_missing_ok = true;
  for (const std::uint64_t dep_id : opts.after) {
    auto it = impl_->by_id.find(dep_id);
    if (it == impl_->by_id.end()) continue;  // already terminal: satisfied
    bool terminal, ok;
    {
      std::lock_guard<std::mutex> slk(it->second->mu);
      terminal = it->second->terminal_locked();
      ok = it->second->status == JobTicket::Status::Done;
    }
    if (terminal) {
      if (!ok) dep_missing_ok = false;
      continue;
    }
    ++st->deps_remaining;
    it->second->dependents.push_back(st);
  }

  impl_->by_id.emplace(st->id, st);
  impl_->inflight[key] = st;

  if (!dep_missing_ok) {
    impl_->counts.cancelled.fetch_add(1, std::memory_order_relaxed);
    impl_->finish_locked(st, JobTicket::Status::Cancelled, nullptr,
                         "dependency did not complete");
  } else if (st->deps_remaining == 0) {
    impl_->queue.push(st);
    impl_->cv_work.notify_one();
  }
  return JobTicket(std::move(st), /*from_cache=*/false, /*coalesced=*/false);
}

bool JobScheduler::cancel(std::uint64_t job_id) {
  std::lock_guard<std::mutex> lk(impl_->mu);
  auto it = impl_->by_id.find(job_id);
  if (it == impl_->by_id.end()) return false;
  Impl::StatePtr st = it->second;
  {
    std::lock_guard<std::mutex> slk(st->mu);
    if (st->status != JobTicket::Status::Queued) return false;
  }
  impl_->counts.cancelled.fetch_add(1, std::memory_order_relaxed);
  impl_->finish_locked(st, JobTicket::Status::Cancelled, nullptr, "cancelled");
  return true;
}

void JobScheduler::drain() {
  std::unique_lock<std::mutex> lk(impl_->mu);
  impl_->cv_idle.wait(lk, [&] { return impl_->idle_locked(); });
}

std::size_t JobScheduler::pending() const {
  std::lock_guard<std::mutex> lk(impl_->mu);
  return impl_->by_id.size();
}

JobScheduler::Counters JobScheduler::counters() const {
  Counters c;
  core::counters::load(impl_->counts, c);
  return c;
}

}  // namespace gia::serve
