#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "core/counters.hpp"
#include "core/stagegraph.hpp"
#include "serve/cache.hpp"
#include "serve/scheduler.hpp"

/// \file daemon.hpp
/// `giad`: an NDJSON-over-TCP serving daemon (localhost only). One request
/// per line, one JSON response line back:
///
///   {"flow_request":{"tech":"glass3d","with_eyes":true}, "id":1,
///    "priority":2, "deadline_ms":5000, "result":false}
///     -> {"ok":true,"id":1,"status":"done","cache":"hit|miss|coalesced",
///         "key":"<16 hex>","latency_us":N,"result":{...}}
///   {"stats":true}    -> {"ok":true,"stats":{...}}
///   {"ping":true}     -> {"ok":true,"pong":true}
///   {"shutdown":true} -> {"ok":true,"draining":true}  (then graceful drain)
///
/// The `search` verb is the one streaming exception: it runs a dse:: Pareto
/// search (dse/search.hpp) and streams NDJSON progress events --
///
///   {"search":{"space":{...},...}, "id":7, "deadline_ms":60000}
///     -> {"ok":true,"id":7,"event":"search_started","search_id":1,...}
///        {"ok":true,"id":7,"event":"point_evaluated",...}   (per point)
///        {"ok":true,"id":7,"event":"front_updated","version":V,...}
///        {"ok":true,"id":7,"event":"search_done","status":"done",...}
///
/// while `{"search_cancel":1}` and `{"search_refine":1,"rounds":2}` (from
/// any connection) cancel or extend a running search by its search_id; the
/// stream then ends with a "cancelled" search_done. Searches are bounded by
/// max_search_points / max_active_searches / max_search_ms below.
///
/// The verb table (`kVerbs` in daemon.cpp) is the one place a verb and its
/// fields are defined: each row names a verb, the fields it takes besides
/// `id` (integers with their inclusive range, e.g. `deadline_ms` in
/// [0, 2147483647]) and its handler. The first row whose verb a line names
/// answers it; any other field, a second verb included, is an unknown
/// request field. Every line back opens with `{"ok":true|false` and the id.
///
/// Architecture: one accept thread hands connections to a fixed pool of
/// connection workers over a bounded queue (the accept thread stalls when
/// it is full). Each worker serves one connection at a time, dispatching
/// flow requests into the shared `JobScheduler` (which coalesces duplicates
/// and consults the `ResultCache`). Graceful drain on SIGINT/SIGTERM
/// (`run_daemon`) or the shutdown verb: stop accepting, half-close idle
/// connections, let in-flight requests finish, drain the scheduler, exit 0.
///
/// Counters: declared in `Server::CounterSet` and `DseCounterSet`; a
/// counter's row in its set's `walk` is its only name (core/counters.hpp).

namespace gia::serve {

struct ServerOptions {
  int port = 7411;  ///< 0 = ephemeral (query the bound port via `port()`)
  int connection_workers = 4;
  int scheduler_workers = 2;
  std::size_t cache_capacity = 64;
  /// Disk store directory; empty = GIA_CACHE_DIR; "-" = memory only.
  std::string cache_dir;
  int accept_backlog = 16;
  /// Accepted connections waiting for a worker before accept stalls.
  int max_pending_connections = 64;

  // --- Robustness limits. Every untrusted input is bounded; violations get
  // a structured {"ok":false,"error":...} line and show up in stats.
  /// Per-request line cap; also the cap on buffered in-flight bytes per
  /// connection. Oversized requests are rejected and the connection closed.
  std::size_t max_line_bytes = 1 << 20;
  /// JSON nesting cap applied to request lines (a `[[[[...` bomb is a parse
  /// error, not a stack overflow).
  std::size_t max_json_depth = 64;
  /// Close a connection that produces no complete request for this long
  /// (slow-loris defence). 0 = no idle limit.
  int idle_timeout_ms = 30000;
  /// SO_RCVTIMEO / SO_SNDTIMEO on every connection socket: one blocked
  /// socket op (e.g. a client that stops reading its response) cannot pin a
  /// worker longer than this. 0 = no per-op limit.
  int io_timeout_ms = 10000;
  /// Wall-clock budget for one connection, counting from accept. 0 = none.
  int max_connection_ms = 0;

  // --- Search (dse) limits. A search is a long-running streaming workload;
  // these bound how much of the daemon one client can book.
  /// Cap on one search's evaluation budget (space size clamped by the
  /// spec's max_points). Larger searches are rejected with a structured
  /// error telling the client to set max_points. 0 = unlimited.
  std::uint64_t max_search_points = 512;
  /// Concurrent searches across all connections; excess is rejected.
  int max_active_searches = 2;
  /// Hard wall-clock bound applied to every search on top of the request's
  /// own deadline_ms. 0 = none.
  int max_search_ms = 0;
};

class Server {
 public:
  explicit Server(const ServerOptions& opts = ServerOptions());
  ~Server();  ///< requests stop and joins if still running
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Bind/listen on 127.0.0.1 and spawn the accept + worker threads.
  /// Returns false (with `*err` filled) on socket errors.
  bool start(std::string* err = nullptr);

  /// Bound port (after a successful start).
  int port() const;

  /// Signal a graceful drain; safe from any thread, idempotent, non-blocking.
  void request_stop();

  /// Block until a requested stop has fully drained (joins all threads).
  void wait();

  template <typename C>
  struct CounterSet {
    core::counters::Gauge<C, int> port{};  ///< kernel-assigned listen port (== port())
    C connections{};
    C requests{};       ///< protocol lines handled
    C flow_requests{};  ///< lines carrying a flow_request
    C protocol_errors{};
    /// Connections closed by a deadline: idle, per-op read/write, or the
    /// wall-clock connection budget.
    C timeouts{};
    /// Requests rejected for exceeding max_line_bytes (also counted in
    /// protocol_errors).
    C oversize_rejections{};
    core::counters::Gauge<C, double> uptime_s{};

    static void walk(auto&& v, auto&... s) {
      v("port", s.port...);
      v("connections", s.connections...);
      v("requests", s.requests...);
      v("flow_requests", s.flow_requests...);
      v("protocol_errors", s.protocol_errors...);
      v("timeouts", s.timeouts...);
      v("oversize_rejections", s.oversize_rejections...);
      v("uptime_s", s.uptime_s...);
    }
  };

  /// Streaming dse search workload.
  template <typename C>
  struct DseCounterSet {
    C searches{};   ///< search verbs accepted (started)
    C completed{};  ///< finished with status "done"
    C cancelled{};  ///< finished with status "cancelled"
    C expired{};    ///< finished with status "deadline"
    C rejected{};   ///< over max_search_points / max_active_searches
    core::counters::Gauge<C> active{};  ///< currently running
    C points_evaluated{};
    C front_updates{};
    C cache_assisted_points{};

    static void walk(auto&& v, auto&... s) {
      v("searches", s.searches...);
      v("completed", s.completed...);
      v("cancelled", s.cancelled...);
      v("expired", s.expired...);
      v("rejected", s.rejected...);
      v("active", s.active...);
      v("points_evaluated", s.points_evaluated...);
      v("front_updates", s.front_updates...);
      v("cache_assisted_points", s.cache_assisted_points...);
    }
  };

  /// What `stats` reports, in wire order (`scheduler_pending` leads `scheduler`).
  struct Stats : CounterSet<std::uint64_t> {
    using Dse = DseCounterSet<std::uint64_t>;
    Dse dse;
    /// Scheduler jobs not yet terminal at snapshot time.
    std::uint64_t scheduler_pending = 0;
    JobScheduler::Counters scheduler;
    ResultCache::Stats cache;
    /// Process-wide stage-artifact cache (core/stagegraph.hpp): per-stage
    /// hit/miss/eviction counters proving which upstream artifacts the
    /// daemon's traffic reuses across requests.
    core::stage::StageCacheStats stage_cache;
  };
  Stats stats() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// Blocking daemon entry point used by the `giad` binary and
/// `giaflow serve`: starts the server, prints the listening port, installs
/// SIGINT/SIGTERM handlers, waits for a drain, prints final stats, and
/// returns the process exit code.
int run_daemon(const ServerOptions& opts);

/// The server flags shared by `giad` and `giaflow serve` (one per
/// ServerOptions field), applied on top of `*opts`. Every flag takes a
/// value; numbers follow `parse_int_arg` within the field's range ("--port
/// abc" is an error, not an ephemeral port). Returns false with `*err`
/// naming the flag on an unknown flag, a missing value or a bad number.
bool parse_server_args(int argc, const char* const* argv, ServerOptions* opts,
                       std::string* err = nullptr);
/// Those flags as usage text ("[--port N] [--workers N] ..."), three to a
/// line; continuation lines are indented by `indent` spaces.
std::string server_args_usage(std::size_t indent);

/// The rule for every integer `giad` and `giaflow` read from a command
/// line: the whole of `text` is a decimal integer in [min, max]. Otherwise
/// returns false with `*err` naming `name`, the range and the text.
bool parse_int_arg(const std::string& name, const char* text, long long min, long long max,
                   long long* out, std::string* err = nullptr);
/// Its sibling for real numbers: the whole of `text` is a finite number in
/// [min, max] ("nan", "1e999" and "" are errors, never 0 or infinity).
bool parse_double_arg(const std::string& name, const char* text, double min, double max,
                      double* out, std::string* err = nullptr);

/// Minimal blocking NDJSON client for giaflow/bench/CI. Every socket op is
/// bounded (connect timeout, per-op SO_RCVTIMEO/SO_SNDTIMEO, response-size
/// cap), and `request_with_retry` layers a jittered-exponential-backoff
/// retry policy with an overall deadline on top -- flow requests are
/// content-addressed, so retrying one is idempotent.
class Client {
 public:
  struct Options {
    int connect_timeout_ms = 5000;  ///< 0 = blocking connect
    int io_timeout_ms = 30000;      ///< per send/recv; 0 = unbounded
    /// Abort (with an error) when a response line exceeds this many bytes.
    std::size_t max_response_bytes = 64u << 20;
  };

  struct RetryPolicy {
    int max_attempts = 4;
    int initial_backoff_ms = 10;
    double backoff_multiplier = 2.0;
    int max_backoff_ms = 1000;
    /// Overall wall-clock budget across connects, roundtrips and sleeps;
    /// 0 = attempts alone bound the retry loop.
    int overall_deadline_ms = 30000;
    /// Seed for the deterministic backoff jitter (50-100% of the nominal
    /// backoff each attempt).
    std::uint64_t jitter_seed = 1;
  };

  Client() = default;
  explicit Client(const Options& opts) : opts_(opts) {}
  ~Client();
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  bool connect(int port, std::string* err = nullptr);  ///< 127.0.0.1
  /// Send one line (newline appended) and read one response line.
  bool roundtrip(const std::string& line, std::string* response, std::string* err = nullptr);
  /// Send one line without waiting for a response (streaming verbs).
  bool send_line(const std::string& line, std::string* err = nullptr);
  /// Read the next response line (streamed search events arrive one per
  /// line until the "search_done" event). Bounded by io_timeout_ms per
  /// recv and max_response_bytes per line.
  bool read_line(std::string* response, std::string* err = nullptr);
  /// Connect (or reconnect) and roundtrip, retrying per `policy`. On failure
  /// the stream is reset so the next attempt starts on a fresh connection.
  /// `attempts_out` (optional) reports the number of attempts made.
  bool request_with_retry(int port, const std::string& line, const RetryPolicy& policy,
                          std::string* response, std::string* err = nullptr,
                          int* attempts_out = nullptr);
  void close();
  bool connected() const { return fd_ >= 0; }

 private:
  Options opts_;
  int fd_ = -1;
  std::string rxbuf_;
};

}  // namespace gia::serve
