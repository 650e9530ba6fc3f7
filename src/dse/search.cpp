#include "dse/search.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <numeric>
#include <unordered_map>
#include <unordered_set>

#include "core/instrument.hpp"
#include "core/stagegraph.hpp"
#include "cost/cost_model.hpp"

namespace gia::dse {

using Clock = std::chrono::steady_clock;

core::MetricMap metrics_of(const core::TechnologyResult& r) {
  core::MetricMap m;
  m.set("power_mW", r.total_power_w * 1e3);
  m.set("cost_usd", cost::system_cost(r.interposer).total());
  m.set("area_mm2", r.interposer.area_mm2());
  m.set("fmax_MHz", r.system_fmax_hz / 1e6);
  if (r.l2m.spec.bit_rate_hz > 0) {
    m.set("energy_pj_bit", r.l2m.result.total_power_w / r.l2m.spec.bit_rate_hz * 1e12);
  }
  if (r.thermal.has_value()) {
    double hottest = 0;
    for (const auto& [name, die] : r.thermal->dies) hottest = std::max(hottest, die.hotspot_c);
    m.set("hotspot_C", hottest);
  }
  if (r.l2m.eye.has_value()) m.set("eye_opening", r.l2m.eye->width_ratio());
  return m;
}

namespace {

/// One candidate of a batch, carrying everything the cache-aware ordering
/// and the event stream need.
struct Candidate {
  std::uint64_t index = 0;
  serve::FlowRequest req;
  std::uint64_t request_key = 0;
  int resident_stages = 0;
};

int count_resident_stages(const serve::FlowRequest& req) {
  const auto keys = core::stage::compute_stage_keys(req.tech, req.options);
  int n = 0;
  for (int s = 0; s < core::stage::kStageCount; ++s) {
    if (core::stage::stage_cache_resident(keys.key[static_cast<std::size_t>(s)])) ++n;
  }
  return n;
}

/// Golden-ratio stride coprime with N: k -> (k * stride) % N is a
/// bijection whose prefix spreads near-uniformly over the flat index, i.e.
/// over every axis of the mixed radix -- a one-line low-discrepancy
/// sequence with no state.
std::uint64_t golden_stride(std::uint64_t n) {
  if (n <= 2) return 1;
  std::uint64_t s = static_cast<std::uint64_t>(
      std::llround(static_cast<double>(n) * 0.6180339887498949));
  if (s == 0) s = 1;
  if (s >= n) s = n - 1;
  while (std::gcd(s, n) != 1) {
    ++s;
    if (s >= n) s = 1;
  }
  return s;
}

struct Engine {
  serve::JobScheduler& sched;
  const SearchSpec& spec;
  const SearchCallbacks& cb;
  std::shared_ptr<SearchControl> ctl;
  Clock::time_point deadline;

  Engine(serve::JobScheduler& s, const SearchSpec& sp, const SearchCallbacks& c,
         std::shared_ptr<SearchControl> control, Clock::time_point dl)
      : sched(s), spec(sp), cb(c), ctl(std::move(control)), deadline(dl) {}

  ParetoFront front{spec.objectives};
  SearchSummary sum;
  std::uint64_t budget = 0;
  std::uint64_t submitted = 0;  ///< budget accounting (includes drained points)
  std::unordered_set<std::uint64_t> visited;
  std::unordered_map<std::string, std::uint64_t> index_of_label;
  bool stopped = false;  ///< cancel or deadline ended the search

  bool out_of_time() const {
    return deadline != Clock::time_point{} && Clock::now() > deadline;
  }

  void stop(const char* status) {
    sum.status = status;
    stopped = true;
  }

  void handle_outcome(const Candidate& c, const serve::JobTicket& t,
                      serve::JobTicket::Status st) {
    if (st == serve::JobTicket::Status::Cancelled) {
      stop("cancelled");
      return;
    }
    if (st == serve::JobTicket::Status::Expired) {
      stop("deadline");
      return;
    }

    PointEvent ev;
    ev.index = c.index;
    ev.label = spec.space.label(c.index);
    ev.request_key = c.request_key;
    ev.cache_hit = t.from_cache();
    ev.coalesced = t.coalesced();
    ev.resident_stages = c.resident_stages;
    ev.cache_assisted = ev.cache_hit || ev.coalesced || c.resident_stages > 0;

    ++sum.points_evaluated;
    if (ev.cache_hit) ++sum.cache_hits;
    if (ev.coalesced) ++sum.coalesced;
    if (ev.cache_assisted) ++sum.cache_assisted;

    if (st == serve::JobTicket::Status::Done) {
      ev.ok = true;
      ev.metrics = metrics_of(*t.result());
      ev.feasible = true;
      for (const auto& con : spec.constraints) {
        const double* v = ev.metrics.find(con.metric);
        if (v == nullptr || !con.satisfied(*v)) ev.feasible = false;
      }
      if (ev.feasible) {
        // Assign, don't emplace: a same-label point rejoining the front with
        // fresh metrics must re-point the label at the flat index actually
        // evaluated, or refine_phase expands a stale neighborhood.
        index_of_label[ev.label] = c.index;
        const auto outcome = front.add({ev.label, ev.metrics});
        if (outcome.added) {
          if (cb.on_front) {
            cb.on_front({front.version(), front.hypervolume(), front.members()});
          }
        }
      } else {
        ++sum.points_infeasible;
      }
    } else {  // Failed: an invalid knob combination (e.g. hex on a TSV
              // stack) is a reported non-point, not a search abort.
      ev.error = t.error();
      ++sum.points_failed;
    }
    if (cb.on_point && spec.point_events) cb.on_point(ev);
  }

  /// Evaluate one batch through the scheduler. Returns false when the
  /// search must stop (cancelled / deadline); remaining tickets are
  /// cancelled where still queued and drained before returning.
  bool run_batch(const std::vector<std::uint64_t>& indices) {
    std::vector<Candidate> cands;
    cands.reserve(indices.size());
    for (const std::uint64_t i : indices) {
      Candidate c;
      c.index = i;
      c.req = spec.space.materialize(i);
      c.request_key = serve::request_key(c.req);
      c.resident_stages = count_resident_stages(c.req);
      cands.push_back(std::move(c));
    }
    // Cache-aware ordering: warm candidates first, so their (cheap)
    // evaluations finish and publish stage artifacts while cold ones run.
    std::stable_sort(cands.begin(), cands.end(), [](const Candidate& a, const Candidate& b) {
      return a.resident_stages > b.resident_stages;
    });

    serve::JobScheduler::SubmitOptions sopts;
    sopts.deadline = deadline;
    std::vector<serve::JobTicket> tickets;
    tickets.reserve(cands.size());
    for (const auto& c : cands) tickets.push_back(sched.submit(c.req, sopts));
    submitted += cands.size();

    for (std::size_t i = 0; i < cands.size(); ++i) {
      if (!stopped && ctl->cancelled()) stop("cancelled");
      if (stopped) {
        // Drain cleanly: cancel what is still queued, then wait for every
        // remaining ticket to reach a terminal state before returning.
        for (std::size_t j = i; j < tickets.size(); ++j) sched.cancel(tickets[j].job_id());
        for (std::size_t j = i; j < tickets.size(); ++j) tickets[j].wait();
        return false;
      }
      handle_outcome(cands[i], tickets[i], tickets[i].wait());
      if (stopped) {
        for (std::size_t j = i + 1; j < tickets.size(); ++j) sched.cancel(tickets[j].job_id());
        for (std::size_t j = i + 1; j < tickets.size(); ++j) tickets[j].wait();
        return false;
      }
    }
    return true;
  }

  /// Evaluate `todo` in waves of spec.batch.
  bool run_waves(const std::vector<std::uint64_t>& todo) {
    const std::size_t batch = static_cast<std::size_t>(spec.batch);
    for (std::size_t at = 0; at < todo.size(); at += batch) {
      if (ctl->cancelled()) {
        stop("cancelled");
        return false;
      }
      if (out_of_time()) {
        stop("deadline");
        return false;
      }
      std::vector<std::uint64_t> wave(todo.begin() + static_cast<std::ptrdiff_t>(at),
                                      todo.begin() +
                                          static_cast<std::ptrdiff_t>(std::min(at + batch,
                                                                               todo.size())));
      if (!run_batch(wave)) return false;
    }
    return true;
  }

  void seed_phase() {
    GIA_SPAN("dse/seed");
    const std::uint64_t n = sum.space_points;
    const std::uint64_t count =
        std::min<std::uint64_t>(static_cast<std::uint64_t>(spec.seed_points), budget);
    const std::uint64_t stride = golden_stride(n);
    std::vector<std::uint64_t> todo;
    todo.reserve(static_cast<std::size_t>(count));
    std::uint64_t at = 0;
    for (std::uint64_t k = 0; k < count; ++k) {
      todo.push_back(at);
      visited.insert(at);
      at = (at + stride) % n;
    }
    run_waves(todo);
  }

  void refine_phase() {
    int rounds_left = spec.refine_rounds;
    for (;;) {
      rounds_left += ctl->take_refine_rounds();
      if (stopped || rounds_left <= 0 || submitted >= budget) return;
      --rounds_left;

      // ±1 along every axis around each front member, deduplicated against
      // everything already visited.
      std::vector<std::uint64_t> todo;
      for (const auto& m : front.members()) {
        const auto it = index_of_label.find(m.label);
        if (it == index_of_label.end()) continue;
        auto digits = spec.space.digits(it->second);
        for (std::size_t a = 0; a < digits.size(); ++a) {
          for (const int delta : {-1, +1}) {
            const std::size_t cur = digits[a];
            if (delta < 0 && cur == 0) continue;
            if (delta > 0 && cur + 1 >= spec.space.axes[a].size()) continue;
            digits[a] = cur + static_cast<std::size_t>(delta < 0 ? -1 : 1);
            const std::uint64_t idx = spec.space.index_of(digits);
            digits[a] = cur;
            if (visited.insert(idx).second) todo.push_back(idx);
          }
        }
      }
      if (todo.empty()) return;  // front is interior-stable: nothing new
      if (submitted + todo.size() > budget) {
        todo.resize(static_cast<std::size_t>(budget - submitted));
      }
      ++sum.rounds_run;
      GIA_SPAN("dse/refine");
      if (!run_waves(todo)) return;
    }
  }
};

}  // namespace

SearchSummary run_search(serve::JobScheduler& sched, const SearchSpec& spec,
                         const SearchCallbacks& callbacks,
                         const std::shared_ptr<SearchControl>& control,
                         Clock::time_point deadline) {
  GIA_SPAN("dse/search");
  const auto t0 = Clock::now();
  auto ctl = control != nullptr ? control : std::make_shared<SearchControl>();

  Engine eng{sched, spec, callbacks, ctl, deadline};
  eng.sum.status = "done";
  eng.sum.space_points = spec.space.size();
  eng.budget = eng.sum.space_points;
  if (spec.max_points > 0) eng.budget = std::min(eng.budget, spec.max_points);

  if (eng.sum.space_points > 0 && eng.budget > 0) {
    eng.seed_phase();
    if (!eng.stopped) eng.refine_phase();
  }

  eng.sum.front_version = eng.front.version();
  eng.sum.hypervolume = eng.front.hypervolume();
  eng.sum.front = eng.front.members();
  eng.sum.wall_s =
      std::chrono::duration_cast<std::chrono::duration<double>>(Clock::now() - t0).count();
  return eng.sum;
}

}  // namespace gia::dse
