/// giad: the serving daemon, standalone. Listens for NDJSON flow requests on
/// 127.0.0.1, answers from the content-addressed result cache when it can,
/// coalesces duplicate in-flight requests, and drains cleanly on
/// SIGINT/SIGTERM. See src/serve/daemon.hpp for the wire protocol;
/// `giaflow client/stats/shutdown` are ready-made peers.
///
///   giad [server flags]   (an unknown flag such as --help prints them)
///
/// --port 0 picks an ephemeral port (printed on stdout at startup and
/// reported as "port" in the stats verb).
/// --cache-dir enables the on-disk store ("-" disables it even when
/// GIA_CACHE_DIR is set).
/// The timeout/limit knobs bound untrusted clients: idle connections are
/// closed, a blocked socket op cannot pin a worker, and oversized or
/// too-deeply-nested request lines are rejected with a structured error.
/// Set GIA_FAULTS (see src/serve/faultinject.hpp) for deterministic fault
/// injection when torture-testing.

#include <cstdio>
#include <string>

#include "serve/daemon.hpp"

int main(int argc, char** argv) {
  gia::serve::ServerOptions opts;
  std::string err;
  if (!gia::serve::parse_server_args(argc - 1, argv + 1, &opts, &err)) {
    std::fprintf(stderr, "giad: %s\nusage: giad %s\n", err.c_str(),
                 gia::serve::server_args_usage(12).c_str());
    return 2;
  }
  return gia::serve::run_daemon(opts);
}
