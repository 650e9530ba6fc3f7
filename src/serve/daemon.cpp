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
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <functional>
#include <initializer_list>
#include <limits>
#include <mutex>
#include <set>
#include <stdexcept>
#include <thread>
#include <unordered_map>
#include <vector>

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
namespace ins = core::instrument;

namespace {

using Clock = std::chrono::steady_clock;

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

void set_io_timeouts(int fd, int io_timeout_ms) {
  if (io_timeout_ms <= 0) return;
  struct timeval tv;
  tv.tv_sec = io_timeout_ms / 1000;
  tv.tv_usec = (io_timeout_ms % 1000) * 1000;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof tv);
}

/// The first field of request object `v` not in `allowed`, or nullptr.
const std::string* unknown_field(const json::Value& v, std::initializer_list<const char*> allowed) {
  for (const auto& kv : v.obj) {
    if (std::none_of(allowed.begin(), allowed.end(), [&](const char* k) { return kv.first == k; }))
      return &kv.first;
  }
  return nullptr;
}

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
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

  std::atomic<std::uint64_t> n_connections{0}, n_requests{0}, n_flow_requests{0},
      n_protocol_errors{0}, n_timeouts{0}, n_oversize{0};
  std::chrono::steady_clock::time_point start_time{};

  /// Running searches, addressable by search_id from any connection
  /// (search_cancel / search_refine cross-connection verbs).
  struct ActiveSearch {
    std::uint64_t key = 0;  ///< SearchSpec content key
    std::shared_ptr<dse::SearchControl> ctl;
  };
  mutable std::mutex search_mu;
  std::unordered_map<std::uint64_t, ActiveSearch> active_searches;
  std::uint64_t next_search_id = 1;

  std::uint64_t active_search_count() const {
    std::lock_guard<std::mutex> lk(search_mu);
    return active_searches.size();
  }
  /// Always-on dse counters (the instrument-layer dse_* counters only
  /// count when GIA_TRACE is set; the stats verb must not depend on that).
  std::atomic<std::uint64_t> n_searches{0}, n_search_done{0}, n_search_cancelled{0},
      n_search_expired{0}, n_search_rejected{0}, n_search_points{0}, n_front_updates{0},
      n_search_cache_assisted{0};

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
      for (auto& [sid, as] : active_searches) as.ctl->cancel();
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

  /// Best-effort final error line before a deadline close; counted as a
  /// timeout, not a protocol error (the bytes on the wire were fine).
  void timeout_close(int fd, const char* what) {
    n_timeouts.fetch_add(1, std::memory_order_relaxed);
    std::string resp = "{\"ok\":false,\"error\":";
    json::escape(what, resp);
    resp += "}\n";
    send_all(fd, resp);
  }

  void handle_connection(int fd) {
    n_connections.fetch_add(1, std::memory_order_relaxed);
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
        std::string resp = handle_line(fd, line);
        if (resp.empty()) {
          // A streaming handler lost the peer mid-stream; the connection
          // cannot be resynchronised.
          open = false;
          break;
        }
        resp.push_back('\n');
        if (!send_all(fd, resp)) {
          if (errno == EAGAIN || errno == EWOULDBLOCK)
            n_timeouts.fetch_add(1, std::memory_order_relaxed);  // write deadline
          open = false;
        }
        last_activity = Clock::now();
      }
      if (!open || stopping.load(std::memory_order_relaxed)) break;

      // Deadline bookkeeping: poll no longer blocks past the idle deadline
      // or the connection's wall-clock budget, so a slow-loris client (bytes
      // trickling in, never a full line) cannot pin this worker.
      int timeout_ms = 200;
      const auto now = Clock::now();
      if (opts.idle_timeout_ms > 0) {
        const auto idle_left = std::chrono::duration_cast<std::chrono::milliseconds>(
                                   last_activity + std::chrono::milliseconds(opts.idle_timeout_ms) -
                                   now)
                                   .count();
        if (idle_left <= 0) {
          timeout_close(fd, "idle timeout");
          break;
        }
        if (idle_left < timeout_ms) timeout_ms = static_cast<int>(idle_left);
      }
      if (opts.max_connection_ms > 0) {
        const auto conn_left = std::chrono::duration_cast<std::chrono::milliseconds>(
                                   conn_start + std::chrono::milliseconds(opts.max_connection_ms) -
                                   now)
                                   .count();
        if (conn_left <= 0) {
          timeout_close(fd, "connection budget exhausted");
          break;
        }
        if (conn_left < timeout_ms) timeout_ms = static_cast<int>(conn_left);
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
        timeout_close(fd, "read timeout");
        break;
      }
      if (n <= 0) break;
      if (buf.size() + static_cast<std::size_t>(n) > opts.max_line_bytes) {
        n_protocol_errors.fetch_add(1, std::memory_order_relaxed);
        n_oversize.fetch_add(1, std::memory_order_relaxed);
        send_all(fd, "{\"ok\":false,\"error\":\"request line too long\"}\n");
        break;
      }
      buf.append(chunk, static_cast<std::size_t>(n));
      last_activity = Clock::now();
    }
  }

  std::string error_response(const std::string& id_field, const std::string& msg) {
    n_protocol_errors.fetch_add(1, std::memory_order_relaxed);
    std::string out = "{\"ok\":false";
    out += id_field;
    json::member("error", msg, out);
    out.push_back('}');
    return out;
  }

  /// Dispatch one request line. Most verbs return their single response
  /// line (no trailing newline); the streaming `search` verb additionally
  /// writes intermediate event lines straight to `fd`. An empty return
  /// means the peer vanished mid-stream and the connection must close.
  std::string handle_line(int fd, const std::string& line) {
    GIA_SPAN("serve/request");
    n_requests.fetch_add(1, std::memory_order_relaxed);
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

      if (const json::Value* frv = v.find("flow_request")) return handle_flow(v, *frv, id_field);
      if (v.find("search")) return handle_search(fd, v, id_field);
      if (const json::Value* cv = v.find("search_cancel"))
        return handle_search_cancel(v, *cv, id_field);
      if (const json::Value* rv = v.find("search_refine"))
        return handle_search_refine(v, *rv, id_field);
      // The bare verbs take no field but `id`, so a line naming two of them
      // is rejected rather than answered by whichever is tested first.
      for (const char* verb : {"stats", "ping", "shutdown"}) {
        if (!v.find(verb)) continue;
        if (const std::string* f = unknown_field(v, {verb, "id"}))
          return error_response(id_field, "unknown request field: " + *f);
      }
      if (v.find("stats")) {
        std::string out = "{\"ok\":true";
        out += id_field;
        out += ",\"stats\":";
        out += stats_body();
        out.push_back('}');
        return out;
      }
      if (v.find("ping")) return "{\"ok\":true" + id_field + ",\"pong\":true}";
      if (v.find("shutdown")) {
        // Reply first; request_stop only flips flags, so the response still
        // flushes before this connection's read loop observes the drain.
        request_stop();
        return "{\"ok\":true" + id_field + ",\"draining\":true}";
      }
      return error_response(id_field,
                            "unknown request (expected flow_request, search, search_cancel, "
                            "search_refine, stats, ping or shutdown)");
    } catch (const std::exception& e) {
      return error_response(id_field, e.what());
    }
  }

  std::string handle_flow(const json::Value& v, const json::Value& frv,
                          const std::string& id_field) {
    if (const std::string* f = unknown_field(
            v, {"flow_request", "id", "priority", "deadline_ms", "after", "result"}))
      return error_response(id_field, "unknown request field: " + *f);

    const FlowRequest req = request_from_value(frv);
    JobScheduler::SubmitOptions sopts;
    if (const json::Value* p = v.find("priority")) sopts.priority = p->as<int>("priority");
    if (const json::Value* d = v.find("deadline_ms")) {
      sopts.deadline = std::chrono::steady_clock::now() +
                       std::chrono::milliseconds(d->as<std::uint64_t>("deadline_ms"));
    }
    if (const json::Value* a = v.find("after")) {
      if (a->kind != json::Value::Kind::Array)
        return error_response(id_field, "after must be an array of job ids");
      for (const auto& e : a->arr) sopts.after.push_back(e.as<std::uint64_t>("after"));
    }
    bool include_result = true;
    if (const json::Value* r = v.find("result")) include_result = r->as<bool>("result");

    n_flow_requests.fetch_add(1, std::memory_order_relaxed);
    ins::counter_add(ins::Counter::ServeRequests);

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

    std::string out = ok ? "{\"ok\":true" : "{\"ok\":false";
    out += id_field;
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

  std::string handle_search(int fd, const json::Value& v, const std::string& id_field) {
    if (const std::string* f = unknown_field(v, {"search", "id", "deadline_ms"}))
      return error_response(id_field, "unknown request field: " + *f);

    const dse::SearchSpec spec = dse::spec_from_value(v);  // throws -> handle_line

    Clock::time_point deadline{};
    if (const json::Value* d = v.find("deadline_ms")) {
      deadline = Clock::now() + std::chrono::milliseconds(d->as<std::uint64_t>("deadline_ms"));
    }
    if (opts.max_search_ms > 0) {
      const auto cap = Clock::now() + std::chrono::milliseconds(opts.max_search_ms);
      if (deadline == Clock::time_point{} || cap < deadline) deadline = cap;
    }

    const std::uint64_t space_points = spec.space.size();
    std::uint64_t budget = space_points;
    if (spec.max_points > 0) budget = std::min(budget, spec.max_points);
    if (opts.max_search_points > 0 && budget > opts.max_search_points) {
      n_search_rejected.fetch_add(1, std::memory_order_relaxed);
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
        n_search_rejected.fetch_add(1, std::memory_order_relaxed);
        return error_response(id_field, "too many active searches (max_active_searches=" +
                                            std::to_string(opts.max_active_searches) + ")");
      }
      // A stop that raced this registration still cancels us: re-check
      // under search_mu, where request_stop's cancel sweep also runs.
      if (stopping.load(std::memory_order_relaxed)) ctl->cancel();
      sid = next_search_id++;
      active_searches.emplace(sid, ActiveSearch{spec.key(), ctl});
    }
    n_searches.fetch_add(1, std::memory_order_relaxed);

    // Events stream on this thread (run_search blocks here and invokes the
    // callbacks synchronously), so plain sends on fd cannot interleave. A
    // failed send cancels the search: the peer is gone, stop paying.
    bool stream_ok = true;
    auto emit = [&](std::string body) {
      if (!stream_ok) return;
      body.push_back('\n');
      if (!send_all(fd, body)) {
        if (errno == EAGAIN || errno == EWOULDBLOCK)
          n_timeouts.fetch_add(1, std::memory_order_relaxed);
        stream_ok = false;
        ctl->cancel();
      }
    };

    {
      std::string out = "{\"ok\":true";
      out += id_field;
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
      std::string out = "{\"ok\":true";
      out += id_field;
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
      std::string out = "{\"ok\":true";
      out += id_field;
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
    n_search_points.fetch_add(sum.points_evaluated, std::memory_order_relaxed);
    n_front_updates.fetch_add(sum.front_version, std::memory_order_relaxed);
    n_search_cache_assisted.fetch_add(sum.cache_assisted, std::memory_order_relaxed);
    if (sum.status == "done")
      n_search_done.fetch_add(1, std::memory_order_relaxed);
    else if (sum.status == "cancelled")
      n_search_cancelled.fetch_add(1, std::memory_order_relaxed);
    else
      n_search_expired.fetch_add(1, std::memory_order_relaxed);

    if (!stream_ok) return std::string();  // peer gone: close the connection

    std::string out = "{\"ok\":true";
    out += id_field;
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

  std::string handle_search_cancel(const json::Value& v, const json::Value& cv,
                                   const std::string& id_field) {
    if (const std::string* f = unknown_field(v, {"search_cancel", "id"}))
      return error_response(id_field, "unknown request field: " + *f);
    const auto sid = cv.as<std::uint64_t>("search_cancel");
    {
      std::lock_guard<std::mutex> lk(search_mu);
      auto it = active_searches.find(sid);
      if (it == active_searches.end())
        return error_response(id_field, "unknown search id " + std::to_string(sid));
      it->second.ctl->cancel();
    }
    std::string out = "{\"ok\":true";
    out += id_field;
    json::member("search_id", sid, out);
    out += ",\"cancelling\":true}";
    return out;
  }

  std::string handle_search_refine(const json::Value& v, const json::Value& rv,
                                   const std::string& id_field) {
    if (const std::string* f = unknown_field(v, {"search_refine", "rounds", "id"}))
      return error_response(id_field, "unknown request field: " + *f);
    const auto sid = rv.as<std::uint64_t>("search_refine");
    const json::Value* r = v.find("rounds");
    const int rounds = r != nullptr ? r->as<int>("rounds") : 1;
    if (rounds < 1) return error_response(id_field, "rounds must be a positive number");
    {
      std::lock_guard<std::mutex> lk(search_mu);
      auto it = active_searches.find(sid);
      if (it == active_searches.end())
        return error_response(id_field, "unknown search id " + std::to_string(sid));
      it->second.ctl->add_refine_rounds(rounds);
    }
    std::string out = "{\"ok\":true";
    out += id_field;
    json::member("search_id", sid, out);
    json::member("refine_rounds_added", rounds, out);
    out.push_back('}');
    return out;
  }

  std::string stats_body() const {
    const auto sched = scheduler->counters();
    const auto cst = cache->stats();
    const double uptime =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start_time).count();
    std::string out = "{\"port\":";
    json::append_i64(bound_port, out);
    json::member("connections", n_connections.load(std::memory_order_relaxed), out);
    json::member("requests", n_requests.load(std::memory_order_relaxed), out);
    json::member("flow_requests", n_flow_requests.load(std::memory_order_relaxed), out);
    json::member("protocol_errors", n_protocol_errors.load(std::memory_order_relaxed), out);
    json::member("timeouts", n_timeouts.load(std::memory_order_relaxed), out);
    json::member("oversize_rejections", n_oversize.load(std::memory_order_relaxed), out);
    json::member("uptime_s", uptime, out);
    out += ",\"dse\":{\"searches\":";
    json::append_u64(n_searches.load(std::memory_order_relaxed), out);
    json::member("completed", n_search_done.load(std::memory_order_relaxed), out);
    json::member("cancelled", n_search_cancelled.load(std::memory_order_relaxed), out);
    json::member("expired", n_search_expired.load(std::memory_order_relaxed), out);
    json::member("rejected", n_search_rejected.load(std::memory_order_relaxed), out);
    json::member("active", active_search_count(), out);
    json::member("points_evaluated", n_search_points.load(std::memory_order_relaxed), out);
    json::member("front_updates", n_front_updates.load(std::memory_order_relaxed), out);
    json::member("cache_assisted_points",
                 n_search_cache_assisted.load(std::memory_order_relaxed), out);
    out += "},\"scheduler\":{\"pending\":";
    json::append_u64(scheduler->pending(), out);
    json::member("submitted", sched.submitted, out);
    json::member("cache_hits", sched.cache_hits, out);
    json::member("coalesced", sched.coalesced, out);
    json::member("executed", sched.executed, out);
    json::member("failed", sched.failed, out);
    json::member("cancelled", sched.cancelled, out);
    json::member("expired", sched.expired, out);
    json::member("stage_hits", sched.stage_hits, out);
    json::member("stage_misses", sched.stage_misses, out);
    out += "},\"cache\":{\"hits\":";
    json::append_u64(cst.hits, out);
    json::member("disk_hits", cst.disk_hits, out);
    json::member("misses", cst.misses, out);
    json::member("insertions", cst.insertions, out);
    json::member("evictions", cst.evictions, out);
    json::member("disk_writes", cst.disk_writes, out);
    json::member("disk_errors", cst.disk_errors, out);
    json::member("entries", cst.entries, out);
    out.push_back('}');
    out += ",\"stage_cache\":";
    out += core::stage::stage_cache_stats_json();
    if (fault::enabled()) {
      out += ",\"faults\":";
      out += fault::counters_json();
    }
    out.push_back('}');
    return out;
  }
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
  if (::pipe(im.stop_pipe) != 0) {
    if (err) *err = errno_str("pipe");
    return false;
  }
  im.listen_fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (im.listen_fd < 0) {
    if (err) *err = errno_str("socket");
    return false;
  }
  int one = 1;
  ::setsockopt(im.listen_fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof addr);
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(im.opts.port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::bind(im.listen_fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    if (err) *err = errno_str("bind");
    ::close(im.listen_fd);
    im.listen_fd = -1;
    return false;
  }
  if (::listen(im.listen_fd, im.opts.accept_backlog) != 0) {
    if (err) *err = errno_str("listen");
    ::close(im.listen_fd);
    im.listen_fd = -1;
    return false;
  }
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

Server::Stats Server::stats() const {
  Stats s;
  s.port = impl_->bound_port;
  s.connections = impl_->n_connections.load(std::memory_order_relaxed);
  s.requests = impl_->n_requests.load(std::memory_order_relaxed);
  s.flow_requests = impl_->n_flow_requests.load(std::memory_order_relaxed);
  s.protocol_errors = impl_->n_protocol_errors.load(std::memory_order_relaxed);
  s.timeouts = impl_->n_timeouts.load(std::memory_order_relaxed);
  s.oversize_rejections = impl_->n_oversize.load(std::memory_order_relaxed);
  s.dse.searches = impl_->n_searches.load(std::memory_order_relaxed);
  s.dse.completed = impl_->n_search_done.load(std::memory_order_relaxed);
  s.dse.cancelled = impl_->n_search_cancelled.load(std::memory_order_relaxed);
  s.dse.expired = impl_->n_search_expired.load(std::memory_order_relaxed);
  s.dse.rejected = impl_->n_search_rejected.load(std::memory_order_relaxed);
  s.dse.active = impl_->active_search_count();
  s.dse.points_evaluated = impl_->n_search_points.load(std::memory_order_relaxed);
  s.dse.front_updates = impl_->n_front_updates.load(std::memory_order_relaxed);
  s.dse.cache_assisted_points = impl_->n_search_cache_assisted.load(std::memory_order_relaxed);
  if (impl_->scheduler) {
    s.scheduler = impl_->scheduler->counters();
    s.scheduler_pending = impl_->scheduler->pending();
  }
  if (impl_->cache) s.cache = impl_->cache->stats();
  s.stage_cache = core::stage::stage_cache_stats();
  s.uptime_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - impl_->start_time)
          .count();
  return s;
}

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
  struct sigaction sa;
  std::memset(&sa, 0, sizeof sa);
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
  std::printf(
      "giad: drained cleanly after %llu requests (%llu flow, %llu hits, %llu coalesced, "
      "%llu executed)\n",
      static_cast<unsigned long long>(st.requests),
      static_cast<unsigned long long>(st.flow_requests),
      static_cast<unsigned long long>(st.scheduler.cache_hits),
      static_cast<unsigned long long>(st.scheduler.coalesced),
      static_cast<unsigned long long>(st.scheduler.executed));
  std::fflush(stdout);
  return 0;
}

// ---------------------------------------------------------------------------
// parse_server_args

namespace {

/// Setter for one numeric ServerOptions field (the value is range-checked
/// against the field's type before the call).
template <typename T>
std::function<void(long long)> assign(T* field) {
  return [field](long long v) { *field = static_cast<T>(v); };
}

}  // namespace

bool parse_server_args(int argc, const char* const* argv, ServerOptions* opts,
                       std::string* err) {
  constexpr long long kIntMax = std::numeric_limits<int>::max();
  constexpr long long kAnyMax = std::numeric_limits<long long>::max();
  const struct {
    const char* flag;
    long long min, max;
    std::function<void(long long)> set;
  } kNumeric[] = {
      {"--port", 0, 65535, assign(&opts->port)},
      {"--workers", 1, kIntMax, assign(&opts->scheduler_workers)},
      {"--conn-workers", 1, kIntMax, assign(&opts->connection_workers)},
      {"--cache-capacity", 1, kAnyMax, assign(&opts->cache_capacity)},
      {"--idle-timeout-ms", 0, kIntMax, assign(&opts->idle_timeout_ms)},
      {"--io-timeout-ms", 0, kIntMax, assign(&opts->io_timeout_ms)},
      {"--max-conn-ms", 0, kIntMax, assign(&opts->max_connection_ms)},
      {"--max-line-bytes", 1, kAnyMax, assign(&opts->max_line_bytes)},
      {"--max-search-points", 0, kAnyMax, assign(&opts->max_search_points)},
      {"--max-active-searches", 0, kIntMax, assign(&opts->max_active_searches)},
      {"--max-search-ms", 0, kIntMax, assign(&opts->max_search_ms)},
  };
  const auto fail = [&](std::string msg) {
    if (err) *err = std::move(msg);
    return false;
  };
  for (int i = 0; i < argc; ++i) {
    const std::string flag = argv[i];
    const auto* num = std::find_if(std::begin(kNumeric), std::end(kNumeric),
                                   [&](const auto& f) { return flag == f.flag; });
    if (num == std::end(kNumeric) && flag != "--cache-dir") return fail("unknown option " + flag);
    if (i + 1 >= argc) return fail(flag + " expects a value");
    const char* text = argv[++i];
    if (num == std::end(kNumeric)) {
      opts->cache_dir = text;
      continue;
    }
    errno = 0;
    char* end = nullptr;
    const long long v = std::strtoll(text, &end, 10);
    if (end == text || *end != '\0' || errno == ERANGE || v < num->min || v > num->max) {
      const std::string range =
          num->max < kIntMax
              ? "in [" + std::to_string(num->min) + ", " + std::to_string(num->max) + "]"
              : ">= " + std::to_string(num->min);
      return fail(flag + " expects an integer " + range + ", got '" + text + "'");
    }
    num->set(v);
  }
  return true;
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
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof addr);
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) {
    if (err) *err = errno_str("socket");
    return false;
  }

  if (opts_.connect_timeout_ms > 0) {
    // Non-blocking connect bounded by poll: a black-holed SYN fails with
    // "connect timeout" instead of hanging for the kernel's default.
    const int flags = ::fcntl(fd_, F_GETFL, 0);
    ::fcntl(fd_, F_SETFL, flags | O_NONBLOCK);
    const int rc = ::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr);
    if (rc != 0 && errno != EINPROGRESS) {
      if (err) *err = errno_str("connect");
      close();
      return false;
    }
    if (rc != 0) {
      struct pollfd p = {fd_, POLLOUT, 0};
      int pr;
      while ((pr = ::poll(&p, 1, opts_.connect_timeout_ms)) < 0 && errno == EINTR) {
      }
      int so_err = 0;
      socklen_t so_len = sizeof so_err;
      if (pr > 0) ::getsockopt(fd_, SOL_SOCKET, SO_ERROR, &so_err, &so_len);
      if (pr <= 0 || so_err != 0) {
        if (err) {
          errno = so_err;
          *err = pr <= 0 ? "connect timeout" : errno_str("connect");
        }
        close();
        return false;
      }
    }
    ::fcntl(fd_, F_SETFL, flags);
  } else if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    if (err) *err = errno_str("connect");
    close();
    return false;
  }
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
    const std::uint64_t roll =
        splitmix64(policy.jitter_seed ^ (static_cast<std::uint64_t>(attempt) << 32));
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
