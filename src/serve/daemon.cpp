#include "serve/daemon.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <limits>
#include <mutex>
#include <set>
#include <stdexcept>
#include <thread>
#include <type_traits>
#include <unordered_map>
#include <vector>

#include "core/canon.hpp"
#include "core/instrument.hpp"
#include "core/json.hpp"
#include "core/serialize.hpp"
#include "core/stagegraph.hpp"
#include "dse/search.hpp"
#include "dse/space.hpp"
#include "serve/faultinject.hpp"
#include "serve/request.hpp"

namespace gia::serve {

namespace json = core::json;

namespace {

using Clock = std::chrono::steady_clock;

constexpr long long kIntMax = std::numeric_limits<int>::max();
constexpr long long kAnyMax = std::numeric_limits<long long>::max();

/// Send the whole buffer. With SO_SNDTIMEO set, a peer that stops reading
/// makes send() fail with EAGAIN after the timeout -- reported as false with
/// errno preserved so the caller can count it as a write deadline.
bool send_all(int fd, const std::string& data) {
  std::size_t off = 0;
  while (off < data.size()) {
    const ssize_t n = fault::send(fd, data.data() + off, data.size() - off, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    off += static_cast<std::size_t>(n);
  }
  return true;
}

std::string errno_str(const char* what) {
  return std::string(what) + ": " + std::strerror(errno);
}

/// 127.0.0.1:`port`.
sockaddr_in loopback(int port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  return addr;
}

void set_io_timeouts(int fd, int io_timeout_ms) {
  if (io_timeout_ms <= 0) return;
  struct timeval tv;
  tv.tv_sec = io_timeout_ms / 1000;
  tv.tv_usec = (io_timeout_ms % 1000) * 1000;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof tv);
}

/// The opening every response and event line shares: `{"ok":true|false`
/// and the echoed request id (`id_field` is `,"id":...` or empty).
std::string reply(bool ok, const std::string& id_field) {
  std::string out = ok ? "{\"ok\":true" : "{\"ok\":false";
  out += id_field;
  return out;
}

/// Best-effort last line before the daemon closes a connection itself (a
/// deadline counts as a timeout, not a protocol error: the bytes were fine).
void send_close_error(int fd, const char* what) {
  std::string line = reply(false, {});
  json::member("error", what, line);
  line += "}\n";
  send_all(fd, line);
}

}  // namespace

struct Server::Impl {
  ServerOptions opts;

  int listen_fd = -1;
  int bound_port = 0;
  int stop_pipe[2] = {-1, -1};
  bool started = false;

  std::unique_ptr<ResultCache> cache;
  std::unique_ptr<JobScheduler> scheduler;

  std::thread accept_thread;
  std::vector<std::thread> conn_workers;

  std::mutex cmu;
  std::condition_variable conn_cv;
  std::deque<int> pending_fds;
  std::set<int> active_fds;
  std::atomic<bool> stopping{false};

  std::mutex wait_mu;
  std::condition_variable wait_cv;
  bool tearing = false;
  bool torn_down = false;

  CounterSet<core::counters::Live> counts;
  std::chrono::steady_clock::time_point start_time{};

  /// Running searches' controls, addressable by search_id from any
  /// connection (search_cancel / search_refine cross-connection verbs).
  mutable std::mutex search_mu;
  std::unordered_map<std::uint64_t, std::shared_ptr<dse::SearchControl>> active_searches;
  std::uint64_t next_search_id = 1;

  DseCounterSet<core::counters::Live> dse_counts;

  ~Impl() {
    if (stop_pipe[0] >= 0) ::close(stop_pipe[0]);
    if (stop_pipe[1] >= 0) ::close(stop_pipe[1]);
  }

  void request_stop() {
    {
      std::lock_guard<std::mutex> lk(cmu);
      if (stopping.load(std::memory_order_relaxed)) return;
      stopping.store(true, std::memory_order_relaxed);
      // Half-close active connections so blocked reads observe EOF; the
      // responses for requests already in flight still go out (SHUT_RD only).
      for (int fd : active_fds) ::shutdown(fd, SHUT_RD);
    }
    if (stop_pipe[1] >= 0) {
      const char b = 1;
      (void)!::write(stop_pipe[1], &b, 1);
    }
    conn_cv.notify_all();
    // Cancel running searches, or the drain would block behind their
    // remaining rounds; each stream still flushes a "cancelled"
    // search_done before its connection winds down.
    {
      std::lock_guard<std::mutex> lk(search_mu);
      for (auto& [sid, ctl] : active_searches) ctl->cancel();
    }
  }

  void accept_loop() {
    for (;;) {
      struct pollfd ps[2] = {{listen_fd, POLLIN, 0}, {stop_pipe[0], POLLIN, 0}};
      const int pr = ::poll(ps, 2, -1);
      if (pr < 0) {
        if (errno == EINTR) continue;
        break;
      }
      if (stopping.load(std::memory_order_relaxed)) break;
      if (!(ps[0].revents & POLLIN)) continue;
      const int fd = ::accept(listen_fd, nullptr, nullptr);
      if (fd < 0) continue;
      std::unique_lock<std::mutex> lk(cmu);
      // Bounded hand-off: stall the accept thread (kernel backlog absorbs
      // the burst) rather than queueing connections without limit.
      conn_cv.wait(lk, [&] {
        return stopping.load(std::memory_order_relaxed) ||
               static_cast<int>(pending_fds.size()) < opts.max_pending_connections;
      });
      if (stopping.load(std::memory_order_relaxed)) {
        lk.unlock();
        ::close(fd);
        break;
      }
      pending_fds.push_back(fd);
      lk.unlock();
      conn_cv.notify_all();
    }
  }

  void conn_worker() {
    for (;;) {
      int fd = -1;
      {
        std::unique_lock<std::mutex> lk(cmu);
        conn_cv.wait(lk, [&] {
          return stopping.load(std::memory_order_relaxed) || !pending_fds.empty();
        });
        if (pending_fds.empty()) return;  // stopping, nothing left to serve
        fd = pending_fds.front();
        pending_fds.pop_front();
        active_fds.insert(fd);
      }
      conn_cv.notify_all();  // space freed for the accept thread
      handle_connection(fd);
      {
        std::lock_guard<std::mutex> lk(cmu);
        active_fds.erase(fd);
      }
      ::close(fd);
    }
  }

  void handle_connection(int fd) {
    counts.connections.fetch_add(1, std::memory_order_relaxed);
    set_io_timeouts(fd, opts.io_timeout_ms);
    std::string buf;
    char chunk[65536];
    bool open = true;
    const auto conn_start = Clock::now();
    auto last_activity = conn_start;
    while (open) {
      std::size_t pos;
      while (open && (pos = buf.find('\n')) != std::string::npos) {
        std::string line = buf.substr(0, pos);
        buf.erase(0, pos + 1);
        if (!line.empty() && line.back() == '\r') line.pop_back();
        if (line.empty()) continue;
        // An empty reply: a streaming handler lost the peer mid-stream, so
        // the connection cannot be resynchronised.
        std::string resp = handle_line(fd, line);
        open = !resp.empty() && send_line(fd, std::move(resp));
        last_activity = Clock::now();
      }
      if (!open || stopping.load(std::memory_order_relaxed)) break;

      // Deadline bookkeeping: poll no longer blocks past the idle deadline
      // or the connection's wall-clock budget, so a slow-loris client (bytes
      // trickling in, never a full line) cannot pin this worker.
      int timeout_ms = 200;
      const char* expired = nullptr;
      const auto budget = [&, now = Clock::now()](Clock::time_point from, int limit_ms,
                                                  const char* what) {
        if (limit_ms <= 0 || expired) return;
        const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                              from + std::chrono::milliseconds(limit_ms) - now)
                              .count();
        if (left <= 0)
          expired = what;
        else if (left < timeout_ms)
          timeout_ms = static_cast<int>(left);
      };
      budget(last_activity, opts.idle_timeout_ms, "idle timeout");
      budget(conn_start, opts.max_connection_ms, "connection budget exhausted");
      if (expired) {
        counts.timeouts.fetch_add(1, std::memory_order_relaxed);
        send_close_error(fd, expired);
        break;
      }

      struct pollfd p = {fd, POLLIN, 0};
      const int pr = ::poll(&p, 1, timeout_ms);
      if (pr < 0) {
        if (errno == EINTR) continue;
        break;
      }
      if (pr == 0) continue;  // deadlines re-checked at the top of the loop
      const ssize_t n = fault::recv(fd, chunk, sizeof chunk, 0);
      if (n < 0 && errno == EINTR) continue;
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        counts.timeouts.fetch_add(1, std::memory_order_relaxed);
        send_close_error(fd, "read timeout");
        break;
      }
      if (n <= 0) break;
      if (buf.size() + static_cast<std::size_t>(n) > opts.max_line_bytes) {
        counts.protocol_errors.fetch_add(1, std::memory_order_relaxed);
        counts.oversize_rejections.fetch_add(1, std::memory_order_relaxed);
        send_close_error(fd, "request line too long");
        break;
      }
      buf.append(chunk, static_cast<std::size_t>(n));
      last_activity = Clock::now();
    }
  }

  /// Send one reply line; false when the peer is gone (a write deadline
  /// counts as a timeout).
  bool send_line(int fd, std::string line) {
    line.push_back('\n');
    if (send_all(fd, line)) return true;
    if (errno == EAGAIN || errno == EWOULDBLOCK)
      counts.timeouts.fetch_add(1, std::memory_order_relaxed);
    return false;
  }

  std::string error_response(const std::string& id_field, const std::string& msg) {
    counts.protocol_errors.fetch_add(1, std::memory_order_relaxed);
    std::string out = reply(false, id_field);
    json::member("error", msg, out);
    out.push_back('}');
    return out;
  }

  /// A field a verb takes besides its name and `id`; an integer field
  /// with `lo <= hi` is checked against that inclusive range on dispatch.
  struct Field {
    const char* name = nullptr;
    std::int64_t lo = 1, hi = 0;
  };
  /// One verb table row: the handler gets the request, the verb's value
  /// and the echoed id.
  struct Verb {
    const char* name;
    Field fields[4];
    std::string (Impl::*handle)(int fd, const json::Value& v, const json::Value& arg,
                                const std::string& id_field);
  };
  static const Verb kVerbs[7];

  /// Dispatch one request line to the first verb row it names. Most verbs
  /// return their single response line (no trailing newline); the
  /// streaming `search` verb additionally writes intermediate event lines
  /// straight to `fd`. An empty return means the peer vanished mid-stream
  /// and the connection must close.
  std::string handle_line(int fd, const std::string& line) {
    GIA_SPAN("serve/request");
    counts.requests.fetch_add(1, std::memory_order_relaxed);
    std::string id_field;
    try {
      json::ParseLimits limits;
      limits.max_depth = opts.max_json_depth;
      limits.max_bytes = opts.max_line_bytes;
      const json::Value v = json::parse(line, limits);
      if (v.kind != json::Value::Kind::Object)
        return error_response(id_field, "request must be a JSON object");
      if (const json::Value* idv = v.find("id")) {
        id_field = ",\"id\":";
        if (idv->kind == json::Value::Kind::Number) {
          id_field += idv->raw;
        } else if (idv->kind == json::Value::Kind::String) {
          json::escape(idv->str, id_field);
        } else {
          return error_response(std::string(), "id must be a number or string");
        }
      }

      for (const Verb& verb : kVerbs) {
        const json::Value* arg = v.find(verb.name);
        if (arg == nullptr) continue;
        // One verb per line: a second verb is an unknown field of the first.
        for (const auto& [name, value] : v.obj) {
          if (name != verb.name && name != "id" &&
              std::none_of(std::begin(verb.fields), std::end(verb.fields),
                           [&](const Field& f) { return f.name && name == f.name; }))
            return error_response(id_field, "unknown request field: " + name);
        }
        for (const Field& f : verb.fields) {
          if (f.lo > f.hi) continue;
          if (const json::Value* x = v.find(f.name)) (void)x->as<std::int64_t>(f.name, f.lo, f.hi);
        }
        return (this->*verb.handle)(fd, v, *arg, id_field);
      }
      std::string expected;
      for (const Verb& verb : kVerbs)
        expected += (expected.empty() ? "" : &verb == std::end(kVerbs) - 1 ? " or " : ", ") +
                    std::string(verb.name);
      return error_response(id_field, "unknown request (expected " + expected + ")");
    } catch (const std::exception& e) {
      return error_response(id_field, e.what());
    }
  }

  std::string handle_flow(int, const json::Value& v, const json::Value& frv,
                          const std::string& id_field) {
    const FlowRequest req = request_from_value(frv);
    JobScheduler::SubmitOptions sopts;
    if (const json::Value* p = v.find("priority")) sopts.priority = p->as<int>("priority");
    if (const json::Value* d = v.find("deadline_ms")) {
      sopts.deadline = Clock::now() + std::chrono::milliseconds(d->as<int>("deadline_ms"));
    }
    if (const json::Value* a = v.find("after")) {
      if (a->kind != json::Value::Kind::Array)
        return error_response(id_field, "after must be an array of job ids");
      for (const auto& e : a->arr) sopts.after.push_back(e.as<std::uint64_t>("after"));
    }
    bool include_result = true;
    if (const json::Value* r = v.find("result")) include_result = r->as<bool>("result");

    counts.flow_requests.fetch_add(1, std::memory_order_relaxed);

    const auto t0 = std::chrono::steady_clock::now();
    const JobTicket ticket = scheduler->submit(req, sopts);
    const JobTicket::Status status = ticket.wait();
    const auto latency_us = std::chrono::duration_cast<std::chrono::microseconds>(
                                std::chrono::steady_clock::now() - t0)
                                .count();

    const char* status_str = "failed";
    switch (status) {
      case JobTicket::Status::Done: status_str = "done"; break;
      case JobTicket::Status::Failed: status_str = "failed"; break;
      case JobTicket::Status::Cancelled: status_str = "cancelled"; break;
      case JobTicket::Status::Expired: status_str = "expired"; break;
      default: break;
    }
    const bool ok = status == JobTicket::Status::Done;

    std::string out = reply(ok, id_field);
    json::member("status", status_str, out);
    json::member("cache", ticket.from_cache() ? "hit" : (ticket.coalesced() ? "coalesced" : "miss"),
                 out);
    json::member("key", key_hex(ticket.key()), out);
    json::member("latency_us", latency_us, out);
    if (ok && include_result && ticket.result()) {
      json::key("result", out);
      out += core::technology_result_to_json(*ticket.result());
    }
    if (!ok && !ticket.error().empty()) json::member("error", ticket.error(), out);
    out.push_back('}');
    return out;
  }

  static void append_metrics(const core::MetricMap& m, std::string& out) {
    out.push_back('{');
    for (const auto& [name, value] : m) json::member(name, value, out);
    out.push_back('}');
  }

  static void append_front(const std::vector<core::DesignPoint>& front, std::string& out) {
    out.push_back('[');
    for (std::size_t i = 0; i < front.size(); ++i) {
      if (i > 0) out.push_back(',');
      out += "{\"label\":";
      json::escape(front[i].label, out);
      out += ",\"metrics\":";
      append_metrics(front[i].metrics, out);
      out.push_back('}');
    }
    out.push_back(']');
  }

  std::string handle_search(int fd, const json::Value& v, const json::Value&,
                            const std::string& id_field) {
    const dse::SearchSpec spec = dse::spec_from_value(v);  // throws -> handle_line

    Clock::time_point deadline{};
    if (const json::Value* d = v.find("deadline_ms")) {
      deadline = Clock::now() + std::chrono::milliseconds(d->as<int>("deadline_ms"));
    }
    if (opts.max_search_ms > 0) {
      const auto cap = Clock::now() + std::chrono::milliseconds(opts.max_search_ms);
      if (deadline == Clock::time_point{} || cap < deadline) deadline = cap;
    }

    const std::uint64_t space_points = spec.space.size();
    std::uint64_t budget = space_points;
    if (spec.max_points > 0) budget = std::min(budget, spec.max_points);
    if (opts.max_search_points > 0 && budget > opts.max_search_points) {
      dse_counts.rejected.fetch_add(1, std::memory_order_relaxed);
      return error_response(id_field, "search budget of " + std::to_string(budget) +
                                          " points exceeds max_search_points=" +
                                          std::to_string(opts.max_search_points) +
                                          " (set \"max_points\" to sample the space)");
    }

    auto ctl = std::make_shared<dse::SearchControl>();
    std::uint64_t sid = 0;
    {
      std::lock_guard<std::mutex> lk(search_mu);
      if (opts.max_active_searches > 0 &&
          static_cast<int>(active_searches.size()) >= opts.max_active_searches) {
        dse_counts.rejected.fetch_add(1, std::memory_order_relaxed);
        return error_response(id_field, "too many active searches (max_active_searches=" +
                                            std::to_string(opts.max_active_searches) + ")");
      }
      // A stop that raced this registration still cancels us: re-check
      // under search_mu, where request_stop's cancel sweep also runs.
      if (stopping.load(std::memory_order_relaxed)) ctl->cancel();
      sid = next_search_id++;
      active_searches.emplace(sid, ctl);
    }
    dse_counts.searches.fetch_add(1, std::memory_order_relaxed);

    // Events stream on this thread (run_search blocks here and invokes the
    // callbacks synchronously), so plain sends on fd cannot interleave. A
    // failed send cancels the search: the peer is gone, stop paying.
    bool stream_ok = true;
    auto emit = [&](std::string body) {
      if (stream_ok && !send_line(fd, std::move(body))) {
        stream_ok = false;
        ctl->cancel();
      }
    };

    {
      std::string out = reply(true, id_field);
      json::member("event", "search_started", out);
      json::member("search_id", sid, out);
      json::member("key", key_hex(spec.key()), out);
      json::member("space_points", space_points, out);
      json::member("budget", budget, out);
      out.push_back('}');
      emit(std::move(out));
    }

    dse::SearchCallbacks cbs;
    cbs.on_point = [&](const dse::PointEvent& ev) {
      std::string out = reply(true, id_field);
      json::member("event", "point_evaluated", out);
      json::member("search_id", sid, out);
      json::member("index", ev.index, out);
      json::member("label", ev.label, out);
      json::member("key", key_hex(ev.request_key), out);
      json::member("point_ok", ev.ok, out);
      json::member("feasible", ev.feasible, out);
      json::member("cache", ev.cache_hit ? "hit" : (ev.coalesced ? "coalesced" : "miss"), out);
      json::member("resident_stages", ev.resident_stages, out);
      json::member("cache_assisted", ev.cache_assisted, out);
      if (ev.ok) {
        out += ",\"metrics\":";
        append_metrics(ev.metrics, out);
      } else {
        json::member("error", ev.error, out);
      }
      out.push_back('}');
      emit(std::move(out));
    };
    cbs.on_front = [&](const dse::FrontEvent& ev) {
      std::string out = reply(true, id_field);
      json::member("event", "front_updated", out);
      json::member("search_id", sid, out);
      json::member("version", ev.version, out);
      json::member("hypervolume", ev.hypervolume, out);
      out += ",\"front\":";
      append_front(ev.front, out);
      out.push_back('}');
      emit(std::move(out));
    };

    dse::SearchSummary sum;
    try {
      GIA_SPAN("serve/search");
      sum = dse::run_search(*scheduler, spec, cbs, ctl, deadline);
    } catch (...) {
      std::lock_guard<std::mutex> lk(search_mu);
      active_searches.erase(sid);
      throw;  // handle_line turns it into a structured error line
    }
    {
      std::lock_guard<std::mutex> lk(search_mu);
      active_searches.erase(sid);
    }
    dse_counts.points_evaluated.fetch_add(sum.points_evaluated, std::memory_order_relaxed);
    dse_counts.front_updates.fetch_add(sum.front_version, std::memory_order_relaxed);
    dse_counts.cache_assisted_points.fetch_add(sum.cache_assisted, std::memory_order_relaxed);
    if (sum.status == "done")
      dse_counts.completed.fetch_add(1, std::memory_order_relaxed);
    else if (sum.status == "cancelled")
      dse_counts.cancelled.fetch_add(1, std::memory_order_relaxed);
    else
      dse_counts.expired.fetch_add(1, std::memory_order_relaxed);

    if (!stream_ok) return std::string();  // peer gone: close the connection

    std::string out = reply(true, id_field);
    json::member("event", "search_done", out);
    json::member("search_id", sid, out);
    json::member("status", sum.status, out);
    json::member("space_points", sum.space_points, out);
    json::member("points_evaluated", sum.points_evaluated, out);
    json::member("points_failed", sum.points_failed, out);
    json::member("points_infeasible", sum.points_infeasible, out);
    json::member("cache_hits", sum.cache_hits, out);
    json::member("coalesced", sum.coalesced, out);
    json::member("cache_assisted", sum.cache_assisted, out);
    json::member("rounds", sum.rounds_run, out);
    json::member("front_version", sum.front_version, out);
    json::member("hypervolume", sum.hypervolume, out);
    out += ",\"front\":";
    append_front(sum.front, out);
    json::member("wall_s", sum.wall_s, out);
    out.push_back('}');
    return out;
  }

  std::string handle_search_cancel(int, const json::Value&, const json::Value& cv,
                                   const std::string& id_field) {
    const auto sid = cv.as<std::uint64_t>("search_cancel");
    {
      std::lock_guard<std::mutex> lk(search_mu);
      auto it = active_searches.find(sid);
      if (it == active_searches.end())
        return error_response(id_field, "unknown search id " + std::to_string(sid));
      it->second->cancel();
    }
    std::string out = reply(true, id_field);
    json::member("search_id", sid, out);
    out += ",\"cancelling\":true}";
    return out;
  }

  std::string handle_search_refine(int, const json::Value& v, const json::Value& rv,
                                   const std::string& id_field) {
    const auto sid = rv.as<std::uint64_t>("search_refine");
    const json::Value* r = v.find("rounds");
    const int rounds = r != nullptr ? r->as<int>("rounds") : 1;
    if (rounds < 1) return error_response(id_field, "rounds must be a positive number");
    {
      std::lock_guard<std::mutex> lk(search_mu);
      auto it = active_searches.find(sid);
      if (it == active_searches.end())
        return error_response(id_field, "unknown search id " + std::to_string(sid));
      it->second->add_refine_rounds(rounds);
    }
    std::string out = reply(true, id_field);
    json::member("search_id", sid, out);
    json::member("refine_rounds_added", rounds, out);
    out.push_back('}');
    return out;
  }

  std::string handle_ping(int, const json::Value&, const json::Value&,
                          const std::string& id_field) {
    return reply(true, id_field) + ",\"pong\":true}";
  }

  std::string handle_shutdown(int, const json::Value&, const json::Value&,
                              const std::string& id_field) {
    // Reply first; request_stop only flips flags, so the response still
    // flushes before this connection's read loop observes the drain.
    request_stop();
    return reply(true, id_field) + ",\"draining\":true}";
  }

  /// The one read of every counter; the stats verb renders this snapshot.
  Server::Stats snapshot() const {
    Server::Stats s;
    core::counters::load(counts, s);
    s.port = bound_port;
    core::counters::load(dse_counts, s.dse);
    {
      std::lock_guard<std::mutex> lk(search_mu);
      s.dse.active = active_searches.size();
    }
    if (scheduler) {
      s.scheduler = scheduler->counters();
      s.scheduler_pending = scheduler->pending();
    }
    if (cache) s.cache = cache->stats();
    s.stage_cache = core::stage::stage_cache_stats();
    s.uptime_s = std::chrono::duration<double>(Clock::now() - start_time).count();
    return s;
  }

  std::string handle_stats(int, const json::Value&, const json::Value&,
                           const std::string& id_field) {
    const Server::Stats s = snapshot();
    std::string out = reply(true, id_field);
    out += ",\"stats\":{";
    core::counters::append_members(s, out);
    core::counters::append_object("dse", s.dse, out);
    out += ",\"scheduler\":{";
    json::member("pending", s.scheduler_pending, out);
    core::counters::append_members(s.scheduler, out);
    out.push_back('}');
    core::counters::append_object("cache", s.cache, out);
    out += ",\"stage_cache\":";
    out += core::stage::stage_cache_stats_json(s.stage_cache);
    if (fault::enabled()) {
      out += ",\"faults\":";
      out += fault::counters_json();
    }
    out += "}}";
    return out;
  }
};

/// The verb table: the one place a verb and the fields it takes are named.
/// Rows are in dispatch precedence order.
const Server::Impl::Verb Server::Impl::kVerbs[7] = {
    {"flow_request", {{"priority"}, {"deadline_ms", 0, kIntMax}, {"after"}, {"result"}},
     &Impl::handle_flow},
    {"search", {{"deadline_ms", 0, kIntMax}}, &Impl::handle_search},
    {"search_cancel", {}, &Impl::handle_search_cancel},
    {"search_refine", {{"rounds"}}, &Impl::handle_search_refine},
    {"stats", {}, &Impl::handle_stats},
    {"ping", {}, &Impl::handle_ping},
    {"shutdown", {}, &Impl::handle_shutdown},
};

Server::Server(const ServerOptions& opts) : impl_(std::make_unique<Impl>()) {
  impl_->opts = opts;
  if (impl_->opts.connection_workers < 1) impl_->opts.connection_workers = 1;
  if (impl_->opts.scheduler_workers < 1) impl_->opts.scheduler_workers = 1;
  if (impl_->opts.max_pending_connections < 1) impl_->opts.max_pending_connections = 1;
  if (impl_->opts.max_line_bytes < 1024) impl_->opts.max_line_bytes = 1024;
  if (impl_->opts.max_json_depth < 8) impl_->opts.max_json_depth = 8;
}

Server::~Server() {
  if (impl_->started) {
    impl_->request_stop();
    wait();
  }
}

bool Server::start(std::string* err) {
  auto& im = *impl_;
  if (im.started) {
    if (err) *err = "server already started";
    return false;
  }
  const auto fail = [&](const char* what) {
    if (err) *err = errno_str(what);
    if (im.listen_fd >= 0) ::close(im.listen_fd);
    im.listen_fd = -1;
    return false;
  };
  if (::pipe(im.stop_pipe) != 0) return fail("pipe");
  im.listen_fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (im.listen_fd < 0) return fail("socket");
  int one = 1;
  ::setsockopt(im.listen_fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  sockaddr_in addr = loopback(im.opts.port);
  if (::bind(im.listen_fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0)
    return fail("bind");
  if (::listen(im.listen_fd, im.opts.accept_backlog) != 0) return fail("listen");
  socklen_t alen = sizeof addr;
  if (::getsockname(im.listen_fd, reinterpret_cast<sockaddr*>(&addr), &alen) == 0)
    im.bound_port = ntohs(addr.sin_port);
  else
    im.bound_port = im.opts.port;

  ResultCache::Config ccfg;
  ccfg.capacity = im.opts.cache_capacity;
  ccfg.disk_dir = im.opts.cache_dir;
  im.cache = std::make_unique<ResultCache>(ccfg);
  JobScheduler::Options sopts;
  sopts.workers = im.opts.scheduler_workers;
  sopts.cache = im.cache.get();
  im.scheduler = std::make_unique<JobScheduler>(sopts);

  im.start_time = std::chrono::steady_clock::now();
  im.accept_thread = std::thread([&im] { im.accept_loop(); });
  im.conn_workers.reserve(static_cast<std::size_t>(im.opts.connection_workers));
  for (int i = 0; i < im.opts.connection_workers; ++i)
    im.conn_workers.emplace_back([&im] { im.conn_worker(); });
  im.started = true;
  return true;
}

int Server::port() const { return impl_->bound_port; }

void Server::request_stop() { impl_->request_stop(); }

void Server::wait() {
  auto& im = *impl_;
  std::unique_lock<std::mutex> lk(im.wait_mu);
  if (im.torn_down) return;
  if (im.tearing) {
    im.wait_cv.wait(lk, [&] { return im.torn_down; });
    return;
  }
  im.tearing = true;
  lk.unlock();

  {
    std::unique_lock<std::mutex> clk(im.cmu);
    im.conn_cv.wait(clk, [&] { return im.stopping.load(std::memory_order_relaxed); });
  }
  if (im.accept_thread.joinable()) im.accept_thread.join();
  for (auto& t : im.conn_workers)
    if (t.joinable()) t.join();
  im.conn_workers.clear();
  if (im.listen_fd >= 0) {
    ::close(im.listen_fd);
    im.listen_fd = -1;
  }
  if (im.scheduler) im.scheduler->drain();

  lk.lock();
  im.torn_down = true;
  im.wait_cv.notify_all();
}

Server::Stats Server::stats() const { return impl_->snapshot(); }

// ---------------------------------------------------------------------------
// run_daemon

namespace {

int g_sig_pipe[2] = {-1, -1};

void on_signal(int) {
  const char b = 1;
  (void)!::write(g_sig_pipe[1], &b, 1);
}

}  // namespace

int run_daemon(const ServerOptions& opts) {
  Server server(opts);
  std::string err;
  if (!server.start(&err)) {
    std::fprintf(stderr, "giad: %s\n", err.c_str());
    return 1;
  }
  if (::pipe(g_sig_pipe) != 0) {
    std::fprintf(stderr, "giad: %s\n", errno_str("pipe").c_str());
    return 1;
  }
  struct sigaction sa {};
  sa.sa_handler = on_signal;
  sigemptyset(&sa.sa_mask);
  ::sigaction(SIGINT, &sa, nullptr);
  ::sigaction(SIGTERM, &sa, nullptr);

  std::printf("giad: listening on 127.0.0.1:%d\n", server.port());
  std::fflush(stdout);

  // The handler only writes a byte; this thread turns it into a drain.
  std::thread watcher([&server] {
    char b;
    while (::read(g_sig_pipe[0], &b, 1) < 0 && errno == EINTR) {
    }
    server.request_stop();
  });

  server.wait();  // drain triggered by a signal or the shutdown verb

  // Unblock the watcher if the stop came over the wire instead of a signal.
  const char b = 1;
  (void)!::write(g_sig_pipe[1], &b, 1);
  watcher.join();
  ::signal(SIGINT, SIG_DFL);
  ::signal(SIGTERM, SIG_DFL);
  ::close(g_sig_pipe[0]);
  ::close(g_sig_pipe[1]);
  g_sig_pipe[0] = g_sig_pipe[1] = -1;

  const Server::Stats st = server.stats();
  std::printf("giad: drained cleanly after %" PRIu64 " requests (%" PRIu64 " flow, %" PRIu64
              " hits, %" PRIu64 " coalesced, %" PRIu64 " executed)\n",
              st.requests, st.flow_requests, st.scheduler.cache_hits, st.scheduler.coalesced,
              st.scheduler.executed);
  std::fflush(stdout);
  return 0;
}

// ---------------------------------------------------------------------------
// parse_server_args

namespace {

/// Setter for one numeric ServerOptions field (the value is range-checked
/// against the flag's row before the call).
template <auto Member>
void assign(ServerOptions& o, long long v) {
  o.*Member = static_cast<std::remove_reference_t<decltype(o.*Member)>>(v);
}

/// The server flags in usage order. A row without a setter takes text.
const struct {
  const char* flag;
  long long min, max;
  void (*set)(ServerOptions&, long long);
} kServerFlags[] = {
    {"--port", 0, 65535, assign<&ServerOptions::port>},
    {"--workers", 1, kIntMax, assign<&ServerOptions::scheduler_workers>},
    {"--conn-workers", 1, kIntMax, assign<&ServerOptions::connection_workers>},
    {"--cache-capacity", 1, kAnyMax, assign<&ServerOptions::cache_capacity>},
    {"--cache-dir", 0, 0, nullptr},
    {"--idle-timeout-ms", 0, kIntMax, assign<&ServerOptions::idle_timeout_ms>},
    {"--io-timeout-ms", 0, kIntMax, assign<&ServerOptions::io_timeout_ms>},
    {"--max-conn-ms", 0, kIntMax, assign<&ServerOptions::max_connection_ms>},
    {"--max-line-bytes", 1, kAnyMax, assign<&ServerOptions::max_line_bytes>},
    {"--max-search-points", 0, kAnyMax, assign<&ServerOptions::max_search_points>},
    {"--max-active-searches", 0, kIntMax, assign<&ServerOptions::max_active_searches>},
    {"--max-search-ms", 0, kIntMax, assign<&ServerOptions::max_search_ms>},
};

}  // namespace

bool parse_int_arg(const std::string& name, const char* text, long long min, long long max,
                   long long* out, std::string* err) {
  errno = 0;
  char* end = nullptr;
  const long long v = std::strtoll(text, &end, 10);
  if (end != text && *end == '\0' && errno != ERANGE && v >= min && v <= max) {
    *out = v;
    return true;
  }
  if (err)
    *err = name + " expects an integer " +
           (max < kAnyMax ? "in [" + std::to_string(min) + ", " + std::to_string(max) + "]"
                          : ">= " + std::to_string(min)) +
           ", got '" + text + "'";
  return false;
}

bool parse_double_arg(const std::string& name, const char* text, double min, double max,
                      double* out, std::string* err) {
  char* end = nullptr;
  const double v = std::strtod(text, &end);
  if (end != text && *end == '\0' && std::isfinite(v) && v >= min && v <= max) {
    *out = v;
    return true;
  }
  if (err) {
    char range[64];
    std::snprintf(range, sizeof range, "in [%g, %g]", min, max);
    const bool bounded = min > std::numeric_limits<double>::lowest() ||
                         max < std::numeric_limits<double>::max();
    *err = name + " expects a finite number" + (bounded ? std::string(" ") + range : "") +
           ", got '" + text + "'";
  }
  return false;
}

bool parse_server_args(int argc, const char* const* argv, ServerOptions* opts,
                       std::string* err) {
  const auto fail = [&](std::string msg) {
    if (err) *err = std::move(msg);
    return false;
  };
  for (int i = 0; i < argc; ++i) {
    const std::string flag = argv[i];
    const auto* row = std::find_if(std::begin(kServerFlags), std::end(kServerFlags),
                                   [&](const auto& f) { return flag == f.flag; });
    if (row == std::end(kServerFlags)) return fail("unknown option " + flag);
    if (i + 1 >= argc) return fail(flag + " expects a value");
    const char* text = argv[++i];
    long long v = 0;
    if (row->set == nullptr)
      opts->cache_dir = text;
    else if (parse_int_arg(flag, text, row->min, row->max, &v, err))
      row->set(*opts, v);
    else
      return false;
  }
  return true;
}

std::string server_args_usage(std::size_t indent) {
  std::string out;
  for (std::size_t i = 0; i < std::size(kServerFlags); ++i) {
    if (i > 0) out += i % 3 == 0 ? "\n" + std::string(indent, ' ') : " ";
    out += std::string("[") + kServerFlags[i].flag + (kServerFlags[i].set ? " N]" : " DIR]");
  }
  return out;
}

// ---------------------------------------------------------------------------
// Client

Client::~Client() { close(); }

void Client::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  rxbuf_.clear();
}

bool Client::connect(int port, std::string* err) {
  close();
  const auto fail = [&](std::string msg) {
    if (err) *err = std::move(msg);
    close();
    return false;
  };
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) return fail(errno_str("socket"));
  // Non-blocking connect bounded by poll: a black-holed SYN fails with
  // "connect timeout" instead of hanging for the kernel's default
  // (connect_timeout_ms 0 waits as long as the kernel does).
  const int flags = ::fcntl(fd_, F_GETFL, 0);
  ::fcntl(fd_, F_SETFL, flags | O_NONBLOCK);
  const sockaddr_in addr = loopback(port);
  if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0) {
    if (errno != EINPROGRESS) return fail(errno_str("connect"));
    struct pollfd p = {fd_, POLLOUT, 0};
    const int wait_ms = opts_.connect_timeout_ms > 0 ? opts_.connect_timeout_ms : -1;
    int pr;
    while ((pr = ::poll(&p, 1, wait_ms)) < 0 && errno == EINTR) {
    }
    if (pr <= 0) return fail("connect timeout");
    int so_err = 0;
    socklen_t so_len = sizeof so_err;
    ::getsockopt(fd_, SOL_SOCKET, SO_ERROR, &so_err, &so_len);
    errno = so_err;
    if (so_err != 0) return fail(errno_str("connect"));
  }
  ::fcntl(fd_, F_SETFL, flags);
  set_io_timeouts(fd_, opts_.io_timeout_ms);
  return true;
}

bool Client::roundtrip(const std::string& line, std::string* response, std::string* err) {
  return send_line(line, err) && read_line(response, err);
}

bool Client::send_line(const std::string& line, std::string* err) {
  if (fd_ < 0) {
    if (err) *err = "not connected";
    return false;
  }
  std::string out = line;
  out.push_back('\n');
  if (!send_all(fd_, out)) {
    if (err)
      *err = (errno == EAGAIN || errno == EWOULDBLOCK) ? "send timeout" : errno_str("send");
    return false;
  }
  return true;
}

bool Client::read_line(std::string* response, std::string* err) {
  if (fd_ < 0) {
    if (err) *err = "not connected";
    return false;
  }
  for (;;) {
    const std::size_t pos = rxbuf_.find('\n');
    if (pos != std::string::npos) {
      *response = rxbuf_.substr(0, pos);
      rxbuf_.erase(0, pos + 1);
      return true;
    }
    if (rxbuf_.size() > opts_.max_response_bytes) {
      if (err) *err = "response line too long";
      close();  // the stream is mid-line; it cannot be resynchronised
      return false;
    }
    char chunk[65536];
    const ssize_t n = fault::recv(fd_, chunk, sizeof chunk, 0);
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      if (err) *err = "recv timeout";
      return false;
    }
    if (n <= 0) {
      if (err) *err = n == 0 ? "connection closed" : errno_str("recv");
      return false;
    }
    rxbuf_.append(chunk, static_cast<std::size_t>(n));
  }
}

bool Client::request_with_retry(int port, const std::string& line, const RetryPolicy& policy,
                                std::string* response, std::string* err, int* attempts_out) {
  const int max_attempts = std::max(1, policy.max_attempts);
  const auto t0 = Clock::now();
  const auto deadline =
      policy.overall_deadline_ms > 0
          ? t0 + std::chrono::milliseconds(policy.overall_deadline_ms)
          : Clock::time_point::max();
  double backoff_ms = std::max(1, policy.initial_backoff_ms);
  std::string last_err = "no attempts made";

  for (int attempt = 1; attempt <= max_attempts; ++attempt) {
    if (attempts_out) *attempts_out = attempt;
    bool ok = connected() || connect(port, &last_err);
    if (ok) {
      ok = roundtrip(line, response, &last_err);
      // A failed roundtrip leaves the stream in an unknown state (half-sent
      // request, partial response); reset so the retry starts clean.
      if (!ok) close();
    }
    if (ok) return true;
    if (attempt == max_attempts) break;
    if (Clock::now() >= deadline) {
      last_err += " (retry deadline exceeded)";
      break;
    }
    // Jittered exponential backoff: a deterministic 50-100% of the nominal
    // backoff, so synchronized failing clients fan out instead of thundering.
    const std::uint64_t roll = core::canon::splitmix64(
        policy.jitter_seed ^ (static_cast<std::uint64_t>(attempt) << 32));
    const auto nominal = static_cast<std::int64_t>(backoff_ms);
    std::int64_t sleep_ms = nominal / 2 + static_cast<std::int64_t>(
                                              roll % static_cast<std::uint64_t>(nominal / 2 + 1));
    const auto budget_left =
        std::chrono::duration_cast<std::chrono::milliseconds>(deadline - Clock::now()).count();
    if (sleep_ms > budget_left) sleep_ms = budget_left;
    if (sleep_ms > 0) std::this_thread::sleep_for(std::chrono::milliseconds(sleep_ms));
    backoff_ms = std::min(backoff_ms * std::max(1.0, policy.backoff_multiplier),
                          static_cast<double>(std::max(policy.max_backoff_ms, 1)));
  }
  if (err) *err = last_err;
  return false;
}

}  // namespace gia::serve
