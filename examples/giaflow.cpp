/// giaflow: the unified command-line driver for the toolkit -- the
/// co-design flow and its pieces, and peers for the giad daemon
/// (src/serve/daemon.hpp). `usage()` below is the one list of its commands
/// and flags; giaflow prints it when run without a command.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <limits>
#include <string>
#include <vector>

#include "chiplet/system.hpp"
#include "core/instrument.hpp"
#include "core/knobs.hpp"
#include "core/json.hpp"
#include "core/links.hpp"
#include "core/parallel.hpp"
#include "core/stagegraph.hpp"
#include "core/svg_export.hpp"
#include "cost/cost_model.hpp"
#include "netlist/io.hpp"
#include "netlist/openpiton.hpp"
#include "netlist/serdes.hpp"
#include "serve/daemon.hpp"
#include "serve/request.hpp"
#include "signal/eye.hpp"
#include "tech/library.hpp"

using namespace gia;

namespace {

/// `giaflow flow` system flags and the request knob each one sets.
constexpr struct {
  const char* flag;
  const char* knob;
} kFlowFlags[] = {
    {"--chiplets", "system.chiplets"},       {"--arrangement", "system.arrangement"},
    {"--memory-every", "system.memory_every"}, {"--pitch-scale", "system.pitch_scale"},
    {"--placed", "system.placed"},           {"--die-sizes", "system.die_sizes"},
};

/// Set a flow flag's knob from its text: a token as spelled, a number only
/// by `serve::parse_double_arg` (atoi would map a typo to 0). Ranges are
/// checked by the flow's stages, which throw out of the run.
bool set_flow_flag(const char* knob, const char* text, tech::TechnologyKind* kind,
                   core::FlowOptions* opts) {
  try {
    if (core::knobs::find(knob)->kind == core::knobs::RowInfo::Kind::Token) {
      core::knobs::set(*kind, *opts, knob, std::string(text));
      return true;
    }
    double v = 0;
    std::string err;
    if (!serve::parse_double_arg(knob, text, std::numeric_limits<double>::lowest(),
                                 std::numeric_limits<double>::max(), &v, &err)) {
      std::fprintf(stderr, "giaflow flow: %s\n", err.c_str());
      return false;
    }
    core::knobs::set(*kind, *opts, knob, v);
    return true;
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "giaflow flow: %s '%s': %s\n", knob, text, e.what());
    return false;
  }
}

int usage() {
  std::fprintf(
      stderr,
      "usage: giaflow [--threads N] [--trace] <command> ...\n"
      "  --threads N  worker threads for the parallel layer (overrides GIA_THREADS)\n"
      "  --trace      instrument the run and print a report on exit (as GIA_TRACE=1)\n"
      "commands (tech: glass25d glass3d si25d si3d shinko apx):\n"
      "  flow <tech> [--chiplets N] [--arrangement grid|hex|placed|floorplan]\n"
      "       [--memory-every N] [--pitch-scale X] [--placed \"x:y;...\"]\n"
      "       [--die-sizes \"w:h;...\"]\n"
      "      run the full co-design flow; the system flags generalize it from\n"
      "      the paper's 2-tile study to N chiplets\n"
      "  netlist <out.gnl>                   generate + dump the OpenPiton netlist\n"
      "  layout <tech> <out.svg>             route and render the interposer\n"
      "  eye <tech> <len_um> <gbps>          eye metrics for a channel\n"
      "  cost                                cost comparison across all designs\n"
      "  serve %s\n"
      "      run the giad serving daemon\n"
      "  client <port> <tech>                submit one flow request to a daemon\n"
      "                                      (retries with jittered backoff)\n"
      "  search <port> [--spec FILE | --spec-json JSON] [--deadline-ms N]\n"
      "      stream a dse Pareto search from a daemon (default spec: 16-die\n"
      "      grid/hex/floorplan across the four interposer technologies); a\n"
      "      search is stateful, so the stream is never resubmitted on error\n"
      "  search-cancel <port> <id>           cancel a running search by search_id\n"
      "  search-refine <port> <id> [rounds]  grant a running search extra refine\n"
      "                                      rounds around its current front\n"
      "  stats <port>                        print a running daemon's counters\n"
      "  shutdown <port>                     ask a daemon to drain and exit\n",
      serve::server_args_usage(8).c_str());
  return 2;
}

/// A whole decimal argument in [min, max], by giad's flag rule; otherwise
/// says why on stderr and returns false.
bool int_arg(const char* name, const char* text, long long min, long long max, long long* out) {
  std::string err;
  if (serve::parse_int_arg(name, text, min, max, out, &err)) return true;
  std::fprintf(stderr, "giaflow: %s\n", err.c_str());
  return false;
}

/// The same for a real number: the whole text, finite, in [min, max].
bool double_arg(const char* name, const char* text, double min, double max, double* out) {
  std::string err;
  if (serve::parse_double_arg(name, text, min, max, out, &err)) return true;
  std::fprintf(stderr, "giaflow: %s\n", err.c_str());
  return false;
}

constexpr long long kIntMax = std::numeric_limits<int>::max();
constexpr long long kAnyMax = std::numeric_limits<long long>::max();

/// Send one request line and print the response. Idempotent requests retry
/// with jittered backoff (the defaults: 4 attempts); others go once.
int client_roundtrip(int port, const std::string& line, bool idempotent = true) {
  serve::Client client;
  serve::Client::RetryPolicy retry;
  if (!idempotent) retry.max_attempts = 1;
  std::string err, resp;
  int attempts = 0;
  if (!client.request_with_retry(port, line, retry, &resp, &err, &attempts)) {
    std::fprintf(stderr, "giaflow: %s (after %d attempts)\n", err.c_str(), attempts);
    return 1;
  }
  std::printf("%s\n", resp.c_str());
  return 0;
}

bool read_whole_file(const char* path, std::string* out) {
  std::FILE* f = std::fopen(path, "rb");
  if (f == nullptr) return false;
  char chunk[4096];
  std::size_t n;
  while ((n = std::fread(chunk, 1, sizeof chunk, f)) > 0) out->append(chunk, n);
  const bool ok = std::ferror(f) == 0;
  std::fclose(f);
  return ok;
}

/// The built-in demo spec: the paper's question at 16 dies. Sweep the four
/// interposer technologies against grid, hex, and annealed-floorplan
/// arrangements and two memory interleavings, minimizing power and cost.
const char* demo_search_spec() {
  return R"({"space":{"tech":["glass25d","glass3d","si25d","si3d"],)"
         R"("system.arrangement":["grid","hex","floorplan"],"system.memory_every":[2,4]},)"
         R"("base":{"system":{"chiplets":16}},)"
         R"("objectives":[{"metric":"power_mW","direction":"min"},)"
         R"({"metric":"cost_usd","direction":"min"}],)"
         R"("seed_points":8,"refine_rounds":1,"batch":4})";
}

/// An absent field reads as 0; a mistyped one throws (a bad event line).
unsigned long long u64_field(const core::json::Value& v, const char* name) {
  const core::json::Value* f = v.find(name);
  return f != nullptr ? f->as<unsigned long long>(name) : 0;
}

double double_field(const core::json::Value& v, const char* name) {
  const core::json::Value* f = v.find(name);
  return f != nullptr ? f->as<double>(name) : 0;
}

/// Render one streamed search event as a human-readable progress line on
/// stderr (the raw NDJSON goes to stdout for scripting).
void render_search_event(const core::json::Value& v) {
  const core::json::Value* ev = v.find("event");
  if (ev == nullptr || ev->kind != core::json::Value::Kind::String) return;
  if (ev->str == "search_started") {
    std::fprintf(stderr, "search %llu: %llu points in space, budget %llu\n",
                 u64_field(v, "search_id"), u64_field(v, "space_points"),
                 u64_field(v, "budget"));
  } else if (ev->str == "front_updated") {
    std::string labels;
    if (const core::json::Value* front = v.find("front")) {
      for (const auto& m : front->arr) {
        if (const core::json::Value* l = m.find("label")) {
          labels += ' ';
          labels += l->str;
        }
      }
    }
    std::fprintf(stderr, "  front v%llu (hv %.3f):%s\n", u64_field(v, "version"),
                 double_field(v, "hypervolume"), labels.c_str());
  } else if (ev->str == "search_done") {
    const core::json::Value* st = v.find("status");
    std::fprintf(stderr, "search %s: %llu evaluated, %llu cache-assisted, front v%llu\n",
                 st != nullptr ? st->str.c_str() : "?", u64_field(v, "points_evaluated"),
                 u64_field(v, "cache_assisted"), u64_field(v, "front_version"));
  }
}

/// Stream one search. A search is stateful server-side (it books budget and
/// an active-search slot), so unlike `client` there is NO retry/resubmit
/// here: any transport error after the request is sent surfaces as a hard
/// failure for the operator to inspect.
int run_search_stream(int port, const std::string& spec_json, long long deadline_ms) {
  std::string line = "{\"search\":" + spec_json;
  if (deadline_ms > 0) line += ",\"deadline_ms\":" + std::to_string(deadline_ms);
  line += "}";

  serve::Client client;
  std::string err;
  if (!client.connect(port, &err)) {
    std::fprintf(stderr, "giaflow search: %s\n", err.c_str());
    return 1;
  }
  if (!client.send_line(line, &err)) {
    std::fprintf(stderr, "giaflow search: %s\n", err.c_str());
    return 1;
  }
  for (;;) {
    std::string resp;
    if (!client.read_line(&resp, &err)) {
      std::fprintf(stderr, "giaflow search: stream ended early: %s\n", err.c_str());
      return 1;
    }
    std::printf("%s\n", resp.c_str());
    std::fflush(stdout);
    try {
      const core::json::Value v = core::json::parse(resp);
      if (const core::json::Value* okv = v.find("ok")) {
        if (!okv->as<bool>("ok")) {
          const core::json::Value* e = v.find("error");
          std::fprintf(stderr, "giaflow search: %s\n",
                       e != nullptr ? e->str.c_str() : "server error");
          return 1;
        }
      }
      render_search_event(v);
      const core::json::Value* ev = v.find("event");
      if (ev != nullptr && ev->kind == core::json::Value::Kind::String &&
          ev->str == "search_done") {
        const core::json::Value* st = v.find("status");
        return st != nullptr && st->str == "done" ? 0 : 1;
      }
    } catch (const std::exception& e) {
      std::fprintf(stderr, "giaflow search: bad event line: %s\n", e.what());
      return 1;
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  // Strip the global flags so subcommand parsing below sees only its args.
  std::vector<char*> args;
  bool trace = false;
  for (int i = 1; i < argc; ++i) {
    if (!std::strcmp(argv[i], "--threads") && i + 1 < argc) {
      long long threads = 0;
      if (!int_arg("--threads", argv[++i], 1, kIntMax, &threads)) return usage();
      core::set_thread_count(static_cast<int>(threads));
    } else if (!std::strcmp(argv[i], "--trace")) {
      trace = true;
      core::instrument::set_enabled(true);
    } else {
      args.push_back(argv[i]);
    }
  }
  if (args.empty()) return usage();
  const std::string cmd = args[0];
  const int n = static_cast<int>(args.size());
  tech::TechnologyKind kind;
  int rc = -1;
  // The daemon peers below take its port first.
  long long port = 0, id = 0, rounds = 1;
  double len_um = 0, gbps = 0;
  const auto port_arg = [&] { return int_arg("<port>", args[1], 1, 65535, &port); };

  if (cmd == "flow" && n >= 2 && tech::parse_kind(args[1], &kind)) {
    core::FlowOptions opts;
    opts.with_eyes = true;
    bool ok = true;
    for (int i = 2; i < n; ++i) {
      const char* knob = nullptr;
      for (const auto& f : kFlowFlags) {
        if (!std::strcmp(args[i], f.flag) && i + 1 < n) knob = f.knob;
      }
      if (knob == nullptr) {
        std::fprintf(stderr, "giaflow flow: unknown option %s\n", args[i]);
        ok = false;
      } else {
        ok = set_flow_flag(knob, args[++i], &kind, &opts) && ok;
      }
    }
    // `--chiplets N` alone implies a grid: requiring an explicit
    // --arrangement for every N != 2 invocation would just be a trap.
    opts.system.resolve_arrangement();
    if (!ok) return usage();
    try {
      const auto r = core::stage::execute_flow(kind, opts);
      if (!opts.system.is_legacy()) {
        std::printf("%s: %zu chiplets (%s), %zu die-to-die lanes\n",
                    r.technology.name.c_str(), r.interposer.floorplan.dies.size(),
                    chiplet::to_string(opts.system.arrangement), r.interposer.adjacency.size());
      }
      std::printf("%s: power %.1f mW, Fmax %.0f MHz, interposer %.2f mm2, "
                  "L2M %.1f ps / eye %.2f ns, PDN Z(1GHz) %.3f ohm, IR %.1f mV\n",
                  r.technology.name.c_str(), r.total_power_w * 1e3, r.system_fmax_hz / 1e6,
                  r.interposer.area_mm2(), r.l2m.result.total_delay_s * 1e12,
                  r.l2m.eye->width_s * 1e9, r.pdn_impedance.high_band(),
                  r.ir_drop.max_drop_v * 1e3);
      rc = 0;
    } catch (const std::exception& e) {
      // validate_system and the flow stages report bad requests by throwing;
      // surface the message instead of std::terminate.
      std::fprintf(stderr, "giaflow flow: %s\n", e.what());
      rc = 1;
    }
  } else if (cmd == "netlist" && n == 2) {
    auto net = netlist::build_openpiton();
    const auto rpt = netlist::apply_serdes(net);
    netlist::write_netlist_file(args[1], net);
    std::printf("wrote %s: %d instances, %d nets (%d inter-tile wires after SerDes)\n",
                args[1], net.instance_count(), net.net_count(), rpt.wires_after);
    rc = 0;
  } else if (cmd == "layout" && n == 3 && tech::parse_kind(args[1], &kind)) {
    const auto design = interposer::build_interposer_design(kind);
    core::write_file(args[2], core::floorplan_svg(design));
    std::printf("wrote %s (%.2f x %.2f mm, %zu nets)\n", args[2], design.footprint_w_mm(),
                design.footprint_h_mm(), design.routes.nets.size());
    rc = 0;
  } else if (cmd == "eye" && n == 4 && tech::parse_kind(args[1], &kind) &&
             double_arg("<len_um>", args[2], 1, 1e5, &len_um) &&
             double_arg("<gbps>", args[3], 0.01, 100, &gbps)) {
    auto spec = core::make_fixed_line_spec(tech::make_technology(kind), len_um);
    spec.bit_rate_hz = gbps * 1e9;
    const auto eye = signal::simulate_eye(spec, 96);
    std::printf("%s %.0f um @ %.2f Gbps: eye %.3f ns x %.3f V (%.0f%% of UI)\n",
                tech::to_string(kind), len_um, gbps,
                eye.width_s * 1e9, eye.height_v, 100 * eye.width_ratio());
    rc = 0;
  } else if (cmd == "cost" && n == 1) {
    for (auto k : tech::table_order()) {
      const auto c = cost::system_cost(interposer::build_interposer_design(k));
      std::printf("%-14s $%.3f (chiplets %.3f, substrate %.3f, adders %.3f, assembly %.3f)\n",
                  tech::to_string(k), c.total(), c.chiplets, c.substrate, c.process_adders,
                  c.assembly);
    }
    rc = 0;
  } else if (cmd == "serve") {
    serve::ServerOptions opts;
    std::string err;
    if (serve::parse_server_args(n - 1, args.data() + 1, &opts, &err)) {
      rc = serve::run_daemon(opts);
    } else {
      std::fprintf(stderr, "giaflow serve: %s\n", err.c_str());
      rc = usage();
    }
  } else if (cmd == "client" && n == 3 && tech::parse_kind(args[2], &kind) && port_arg()) {
    serve::FlowRequest req;
    req.tech = kind;
    req.options.with_eyes = true;
    rc = client_roundtrip(static_cast<int>(port), serve::request_to_json(req));
  } else if (cmd == "search" && n >= 2 && port_arg()) {
    std::string spec = demo_search_spec();
    long long deadline_ms = 0;
    bool ok = true;
    for (int i = 2; i < n; ++i) {
      const std::string a = args[i];
      if (a == "--spec" && i + 1 < n) {
        spec.clear();
        if (!read_whole_file(args[++i], &spec)) {
          std::fprintf(stderr, "giaflow search: cannot read %s\n", args[i]);
          ok = false;
        }
      } else if (a == "--spec-json" && i + 1 < n) {
        spec = args[++i];
      } else if (a == "--deadline-ms" && i + 1 < n) {
        ok = int_arg("--deadline-ms", args[++i], 0, kIntMax, &deadline_ms) && ok;
      } else {
        std::fprintf(stderr, "giaflow search: unknown option %s\n", a.c_str());
        ok = false;
      }
    }
    // Trailing newlines from a spec file would split the request line.
    while (!spec.empty() && (spec.back() == '\n' || spec.back() == '\r')) spec.pop_back();
    rc = ok ? run_search_stream(static_cast<int>(port), spec, deadline_ms) : usage();
  } else if (cmd == "search-cancel" && n == 3 && port_arg() &&
             int_arg("<id>", args[2], 1, kAnyMax, &id)) {
    // Cancellation is idempotent server-side, so the retrying client is safe.
    rc = client_roundtrip(static_cast<int>(port),
                          "{\"search_cancel\":" + std::to_string(id) + "}");
  } else if (cmd == "search-refine" && (n == 3 || n == 4) && port_arg() &&
             int_arg("<id>", args[2], 1, kAnyMax, &id) &&
             (n == 3 || int_arg("rounds", args[3], 1, kIntMax, &rounds))) {
    // Not idempotent (every accepted request adds rounds): one shot.
    rc = client_roundtrip(static_cast<int>(port),
                          "{\"search_refine\":" + std::to_string(id) +
                              ",\"rounds\":" + std::to_string(rounds) + "}",
                          false);
  } else if (cmd == "stats" && n == 2 && port_arg()) {
    rc = client_roundtrip(static_cast<int>(port), "{\"stats\":true}");
  } else if (cmd == "shutdown" && n == 2 && port_arg()) {
    rc = client_roundtrip(static_cast<int>(port), "{\"shutdown\":true}");
  }

  if (rc < 0) return usage();
  if (trace) core::instrument::emit_report();
  return rc;
}
