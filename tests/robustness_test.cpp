// Robustness torture suite for the serving stack: core/json input bounds
// (recursion depth, document size, strict number grammar with exact error
// offsets), the GIA_FAULTS fault-injection registry, cache degradation under
// injected disk failures, daemon survival against an adversarial corpus
// (deep nesting, oversized lines, slow-loris, truncated frames, mid-response
// disconnects), and the Client retry/backoff policy.

#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <functional>
#include <iterator>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "core/json.hpp"
#include "serve/cache.hpp"
#include "serve/daemon.hpp"
#include "serve/faultinject.hpp"
#include "serve/request.hpp"
#include "tech/library.hpp"

namespace gia {
namespace {

namespace fs = std::filesystem;
namespace json = core::json;
using Ms = std::chrono::milliseconds;

/// Scoped fault configuration: arms a spec for one test and always disarms
/// on exit so no fault leaks into the next test.
struct FaultScope {
  explicit FaultScope(const std::string& spec) { serve::fault::configure(spec); }
  ~FaultScope() { serve::fault::configure(""); }
};

std::string expect_parse_error(const std::string& text) {
  try {
    (void)json::parse(text);
  } catch (const std::exception& e) {
    return e.what();
  }
  ADD_FAILURE() << "expected a parse error for: " << text;
  return {};
}

// ---------------------------------------------------------------------------
// core/json input bounds

TEST(JsonLimitsTest, DeepNestingIsAParseErrorNotAStackOverflow) {
  // A 100k-deep "[[[[..." bomb previously recursed once per level and killed
  // the process; it must now fail fast at the depth limit.
  const std::string bomb(100000, '[');
  const std::string msg = expect_parse_error(bomb);
  EXPECT_NE(msg.find("nesting too deep"), std::string::npos) << msg;

  const std::string obj_bomb = []() {
    std::string s;
    for (int i = 0; i < 100000; ++i) s += "{\"a\":";
    return s;
  }();
  EXPECT_NE(expect_parse_error(obj_bomb).find("nesting too deep"), std::string::npos);
}

TEST(JsonLimitsTest, DepthLimitIsConfigurable) {
  json::ParseLimits tight;
  tight.max_depth = 2;
  EXPECT_NO_THROW(json::parse("[[1]]", tight));
  EXPECT_THROW(json::parse("[[[1]]]", tight), std::runtime_error);
  json::ParseLimits loose;
  loose.max_depth = 4;
  EXPECT_NO_THROW(json::parse("[[[1]]]", loose));
}

TEST(JsonLimitsTest, DocumentSizeLimit) {
  json::ParseLimits lim;
  lim.max_bytes = 16;
  EXPECT_NO_THROW(json::parse("{\"a\":1}", lim));
  const std::string big = "{\"key\":\"" + std::string(64, 'x') + "\"}";
  try {
    (void)json::parse(big, lim);
    FAIL() << "expected a size-limit error";
  } catch (const std::exception& e) {
    EXPECT_NE(std::string(e.what()).find("document too large"), std::string::npos);
  }
  lim.max_bytes = 0;  // 0 = unlimited
  EXPECT_NO_THROW(json::parse(big, lim));
}

// Malformed number literals must fail with the exact offset of the
// offending byte, not be silently accepted as garbage tokens.
TEST(JsonLimitsTest, MalformedNumbersRejectedWithExactOffsets) {
  const struct {
    const char* text;
    const char* what;
    int offset;
  } cases[] = {
      {"1e", "expected digit in exponent", 2},
      {"1e+", "expected digit in exponent", 3},
      {"-", "expected digit in number", 1},
      {"-e5", "expected digit in number", 1},
      {".5", "expected digit in number", 0},
      {"01", "leading zero in number", 1},
      {"-012", "leading zero in number", 2},
      {"1.", "expected digit after '.'", 2},
      {"1.e3", "expected digit after '.'", 2},
      {"+1", "expected digit in number", 0},
      {"[1,2e]", "expected digit in exponent", 5},
      {"{\"a\":00}", "leading zero in number", 6},
  };
  for (const auto& c : cases) {
    const std::string msg = expect_parse_error(c.text);
    EXPECT_NE(msg.find(c.what), std::string::npos) << c.text << " -> " << msg;
    EXPECT_NE(msg.find("offset " + std::to_string(c.offset)), std::string::npos)
        << c.text << " -> " << msg;
  }
}

TEST(JsonLimitsTest, ValidNumbersStillParse) {
  for (const char* text : {"0", "-0", "42", "-17", "0.5", "-0.5", "1e5", "1E-5", "2.25e+10",
                           "1.7976931348623157e308"}) {
    const json::Value v = json::parse(text);
    EXPECT_EQ(v.kind, json::Value::Kind::Number) << text;
    EXPECT_EQ(v.raw, text);
  }
  // Emitted documents (the %.17g writer) round-trip through the strict
  // grammar unchanged.
  std::string out;
  json::append_double(1.0 / 3.0, out);
  EXPECT_NO_THROW(json::parse(out));
}

// ---------------------------------------------------------------------------
// core/json checked scalar reads

template <typename T>
T read_as(const char* text) {
  return json::parse(text).as<T>("field");
}

TEST(JsonScalarTest, IntegralSpellingsReadExactly) {
  EXPECT_EQ(read_as<int>("1e3"), 1000);
  EXPECT_EQ(read_as<int>("16.0"), 16);
  EXPECT_EQ(read_as<int>("1.5e1"), 15);
  EXPECT_EQ(read_as<int>("100e-2"), 1);
  EXPECT_EQ(read_as<int>("-0"), 0);
  EXPECT_EQ(read_as<unsigned>("-0.0e5"), 0u);
  EXPECT_EQ(read_as<int>("0e999999999999999999999"), 0);
  EXPECT_EQ(read_as<int>("-2147483648"), std::numeric_limits<int>::min());
  EXPECT_EQ(read_as<long>("5000000112"), 5000000112L);
  EXPECT_EQ(read_as<std::int64_t>("-9223372036854775808"),
            std::numeric_limits<std::int64_t>::min());
  // u64 counters above 2^53 never pass through a double.
  EXPECT_EQ(read_as<std::uint64_t>("9007199254740993"), 9007199254740993ull);
  EXPECT_EQ(read_as<std::uint64_t>("18446744073709551615"),
            std::numeric_limits<std::uint64_t>::max());
  EXPECT_EQ(read_as<std::uint64_t>("1.8446744073709551615e19"),
            std::numeric_limits<std::uint64_t>::max());
  EXPECT_TRUE(read_as<bool>("true"));
  EXPECT_DOUBLE_EQ(read_as<double>("2.25e+10"), 2.25e10);
  EXPECT_EQ(read_as<double>("1e-400"), 0.0);  // underflow reads as zero
  EXPECT_EQ(read_as<std::string>("\"glass25d\""), "glass25d");
}

TEST(JsonScalarTest, WrongKindFractionAndRangeAreRejectedByName) {
  const std::function<void()> rejected[] = {
      [] { read_as<int>("2147483648"); },
      [] { read_as<int>("-2147483649"); },
      [] { read_as<unsigned>("-1"); },
      [] { read_as<int>("462.7"); },
      [] { read_as<int>("1e-1"); },
      [] { read_as<std::uint64_t>("18446744073709551616"); },
      [] { read_as<std::uint64_t>("1e20"); },
      [] { read_as<long>("99999999999999999999"); },
      [] { read_as<int>("1e999999999999999999999"); },
      [] { read_as<int>("\"5\""); },
      [] { read_as<int>("true"); },
      [] { read_as<bool>("1"); },
      [] { read_as<bool>("null"); },
      [] { read_as<double>("\"oops\""); },
      [] { read_as<double>("[1]"); },
      [] { read_as<double>("1e400"); },
      [] { read_as<std::string>("5"); },
  };
  for (const auto& read : rejected) {
    try {
      read();
      ADD_FAILURE() << "accepted";
    } catch (const std::runtime_error& e) {
      EXPECT_EQ(std::string(e.what()).rfind("field must be ", 0), 0u) << e.what();
    }
  }
}

TEST(JsonScalarTest, DoubleFitRuleMatchesTheTokenRule) {
  EXPECT_TRUE(json::fits<int>(2147483647.0));
  EXPECT_FALSE(json::fits<int>(2147483648.0));
  EXPECT_TRUE(json::fits<int>(-2147483648.0));
  EXPECT_FALSE(json::fits<unsigned>(-1.0));
  EXPECT_TRUE(json::fits<unsigned>(-0.0));
  EXPECT_FALSE(json::fits<int>(2.5));
  EXPECT_TRUE(json::fits<bool>(1.0));
  EXPECT_FALSE(json::fits<bool>(2.0));
  EXPECT_FALSE(json::fits<int>(std::nan("")));
  EXPECT_FALSE(json::fits<std::uint64_t>(0x1p64));
  EXPECT_TRUE(json::fits<std::uint64_t>(0x1p63));
  EXPECT_FALSE(json::fits<std::int64_t>(0x1p63));
  EXPECT_TRUE(json::fits<double>(std::nan("")));
}

// ---------------------------------------------------------------------------
// Fault-injection registry

TEST(FaultInjectTest, ProbabilityOneAlwaysFiresAndZeroNever) {
  FaultScope faults("seed=42,recv_short=1.0,send_drop=0.0");
  EXPECT_TRUE(serve::fault::enabled());
  for (int i = 0; i < 10; ++i) {
    EXPECT_TRUE(serve::fault::should_inject(serve::fault::Site::RecvShort));
    EXPECT_FALSE(serve::fault::should_inject(serve::fault::Site::SendDrop));
    EXPECT_FALSE(serve::fault::should_inject(serve::fault::Site::RecvDrop));  // unarmed
  }
  EXPECT_EQ(serve::fault::trials(serve::fault::Site::RecvShort), 10u);
  EXPECT_EQ(serve::fault::injected(serve::fault::Site::RecvShort), 10u);
  // send_drop was armed with p=0 -> threshold 0 -> not even a trial.
  EXPECT_EQ(serve::fault::injected(serve::fault::Site::SendDrop), 0u);
}

TEST(FaultInjectTest, DecisionsAreDeterministicPerSeed) {
  auto sample = [](const std::string& spec) {
    serve::fault::configure(spec);
    std::string bits;
    for (int i = 0; i < 64; ++i)
      bits.push_back(serve::fault::should_inject(serve::fault::Site::SendDrop) ? '1' : '0');
    return bits;
  };
  const std::string a = sample("seed=7,send_drop=0.5");
  const std::string b = sample("seed=7,send_drop=0.5");
  const std::string c = sample("seed=8,send_drop=0.5");
  serve::fault::configure("");
  EXPECT_EQ(a, b);          // same seed -> identical decision sequence
  EXPECT_NE(a, c);          // different seed -> different sequence
  EXPECT_NE(a.find('1'), std::string::npos);  // p=0.5 fires sometimes...
  EXPECT_NE(a.find('0'), std::string::npos);  // ...but not always
}

TEST(FaultInjectTest, MalformedSpecEntriesAreSkippedNotFatal) {
  FaultScope faults("bogus_site=0.5,seed=notanumber,recv_short,send_short=2.0,recv_drop=1.0");
  // Only the well-formed recv_drop entry is armed.
  EXPECT_TRUE(serve::fault::enabled());
  EXPECT_TRUE(serve::fault::should_inject(serve::fault::Site::RecvDrop));
  EXPECT_FALSE(serve::fault::should_inject(serve::fault::Site::SendShort));
  EXPECT_FALSE(serve::fault::should_inject(serve::fault::Site::RecvShort));
}

TEST(FaultInjectTest, CountersJsonCoversArmedSites) {
  FaultScope faults("seed=1,cache_write_enospc=1.0");
  EXPECT_NE(serve::fault::cache_write_error(), 0);
  const std::string j = serve::fault::counters_json();
  EXPECT_NE(j.find("\"cache_write_enospc\":{\"trials\":1,\"injected\":1}"), std::string::npos)
      << j;
  EXPECT_EQ(j.find("recv_drop"), std::string::npos) << j;  // unarmed sites omitted
}

// ---------------------------------------------------------------------------
// Cache degradation

serve::ResultCache::ResultPtr make_result(double marker) {
  auto r = std::make_shared<core::TechnologyResult>();
  r->technology = tech::make_technology(tech::TechnologyKind::Glass25D);
  r->total_power_w = marker;
  return r;
}

TEST(CacheDegradeTest, InjectedEnospcDegradesToMemoryOnly) {
  char tmpl[] = "/tmp/gia_robust_cache_XXXXXX";
  ASSERT_NE(::mkdtemp(tmpl), nullptr);
  const std::string dir = tmpl;
  serve::ResultCache::Config cfg;
  cfg.disk_dir = dir;
  serve::ResultCache cache(cfg);
  ASSERT_TRUE(cache.disk_enabled());

  {
    FaultScope faults("seed=3,cache_write_enospc=1.0");
    cache.put(0x77ull, make_result(7.5));
  }
  // The write failed, but the entry is served from memory and the store
  // directory holds neither the entry nor a leaked tmp file.
  const auto hit = cache.get(0x77ull);
  ASSERT_NE(hit, nullptr);
  EXPECT_DOUBLE_EQ(hit->total_power_w, 7.5);
  EXPECT_TRUE(fs::is_empty(dir));
  const auto st = cache.stats();
  EXPECT_EQ(st.disk_writes, 0u);
  EXPECT_EQ(st.disk_errors, 1u);

  // With the fault gone the next insert reaches the disk again.
  cache.put(0x78ull, make_result(8.5));
  EXPECT_EQ(cache.stats().disk_writes, 1u);
  fs::remove_all(dir);
}

TEST(CacheDegradeTest, UniqueTmpNamesSurviveConcurrentWritersOfOneKey) {
  char tmpl[] = "/tmp/gia_robust_race_XXXXXX";
  ASSERT_NE(::mkdtemp(tmpl), nullptr);
  const std::string dir = tmpl;
  serve::ResultCache::Config cfg;
  cfg.disk_dir = dir;
  serve::ResultCache cache(cfg);

  // Hammer one key from many threads: every put must publish a complete
  // file; no writer may rename another writer's partial tmp out from under
  // it, and no tmp file may survive.
  const int kThreads = 8, kRounds = 25;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&cache, t] {
      for (int r = 0; r < kRounds; ++r)
        cache.put(0xabcdull, make_result(static_cast<double>(t * 1000 + r)));
    });
  }
  for (auto& th : threads) th.join();

  int files = 0, tmps = 0;
  for (const auto& e : fs::directory_iterator(dir)) {
    ++files;
    if (e.path().string().find(".tmp") != std::string::npos) ++tmps;
  }
  EXPECT_EQ(files, 1);
  EXPECT_EQ(tmps, 0);
  EXPECT_EQ(cache.stats().disk_errors, 0u);
  // The published file is complete valid JSON (no torn write).
  serve::ResultCache cache2(cfg);
  EXPECT_NE(cache2.get(0xabcdull), nullptr);
  fs::remove_all(dir);
}

TEST(CacheDegradeTest, UnwritableDirectoryDisablesDiskButKeepsServing) {
  // A path whose parent is a regular file can never be created: the cache
  // must log, run memory-only, and keep serving.
  char tmpl[] = "/tmp/gia_robust_file_XXXXXX";
  const int fd = ::mkstemp(tmpl);
  ASSERT_GE(fd, 0);
  ::close(fd);
  serve::ResultCache::Config cfg;
  cfg.disk_dir = std::string(tmpl) + "/sub";
  serve::ResultCache cache(cfg);
  EXPECT_FALSE(cache.disk_enabled());
  cache.put(1, make_result(1.0));
  EXPECT_NE(cache.get(1), nullptr);
  fs::remove(tmpl);
}

// ---------------------------------------------------------------------------
// Daemon adversarial corpus

struct DaemonFixture {
  serve::ServerOptions opts;
  serve::Server server;
  bool ok = false;
  std::string err;

  explicit DaemonFixture(const serve::ServerOptions& o) : opts(o), server(o) {
    ok = server.start(&err);
  }
  int port() const { return server.port(); }
};

serve::ServerOptions tight_options() {
  serve::ServerOptions o;
  o.port = 0;
  o.scheduler_workers = 1;
  o.connection_workers = 2;
  o.cache_dir = "-";
  o.max_line_bytes = 64 * 1024;
  o.idle_timeout_ms = 400;
  o.io_timeout_ms = 2000;
  return o;
}

/// Raw loopback socket (no protocol helper) for malformed-traffic tests.
struct RawConn {
  int fd = -1;
  bool open(int port) {
    fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) return false;
    sockaddr_in addr;
    std::memset(&addr, 0, sizeof addr);
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    return ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) == 0;
  }
  bool send_bytes(const std::string& data) const {
    std::size_t off = 0;
    while (off < data.size()) {
      const ssize_t n = ::send(fd, data.data() + off, data.size() - off, MSG_NOSIGNAL);
      if (n <= 0) return false;
      off += static_cast<std::size_t>(n);
    }
    return true;
  }
  /// Read until the peer closes (or a timeout); returns everything read.
  std::string drain(int timeout_ms = 5000) const {
    struct timeval tv;
    tv.tv_sec = timeout_ms / 1000;
    tv.tv_usec = (timeout_ms % 1000) * 1000;
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
    std::string out;
    char chunk[4096];
    for (;;) {
      const ssize_t n = ::recv(fd, chunk, sizeof chunk, 0);
      if (n <= 0) break;
      out.append(chunk, static_cast<std::size_t>(n));
    }
    return out;
  }
  ~RawConn() {
    if (fd >= 0) ::close(fd);
  }
};

/// The daemon must still answer a ping on a fresh connection.
void expect_alive(int port) {
  serve::Client probe;
  std::string resp, err;
  ASSERT_TRUE(probe.connect(port, &err)) << err;
  ASSERT_TRUE(probe.roundtrip("{\"ping\":true}", &resp, &err)) << err;
  EXPECT_NE(resp.find("\"pong\":true"), std::string::npos);
}

TEST(DaemonRobustnessTest, DeepNestingBombGetsStructuredErrorNotACrash) {
  DaemonFixture d(tight_options());
  if (!d.ok) GTEST_SKIP() << "cannot bind loopback socket: " << d.err;

  serve::Client client;
  std::string resp, err;
  ASSERT_TRUE(client.connect(d.port(), &err)) << err;
  std::string bomb(20000, '[');
  bomb += std::string(20000, ']');
  ASSERT_TRUE(client.roundtrip(bomb, &resp, &err)) << err;
  EXPECT_NE(resp.find("\"ok\":false"), std::string::npos);
  EXPECT_NE(resp.find("nesting too deep"), std::string::npos) << resp;
  // The connection survives a rejected request; so does the daemon.
  ASSERT_TRUE(client.roundtrip("{\"ping\":true}", &resp, &err)) << err;
  EXPECT_NE(resp.find("\"pong\":true"), std::string::npos);
  expect_alive(d.port());
  EXPECT_GE(d.server.stats().protocol_errors, 1u);
}

TEST(DaemonRobustnessTest, OversizedLineIsRejectedAndCounted) {
  DaemonFixture d(tight_options());
  if (!d.ok) GTEST_SKIP() << "cannot bind loopback socket: " << d.err;

  RawConn conn;
  ASSERT_TRUE(conn.open(d.port()));
  // 128 KiB with no newline: twice the configured line cap.
  ASSERT_TRUE(conn.send_bytes(std::string(128 * 1024, 'x')));
  const std::string got = conn.drain();
  EXPECT_NE(got.find("request line too long"), std::string::npos) << got;

  expect_alive(d.port());
  const auto st = d.server.stats();
  EXPECT_EQ(st.oversize_rejections, 1u);
  EXPECT_GE(st.protocol_errors, 1u);
}

TEST(DaemonRobustnessTest, SlowLorisConnectionIsReapedByIdleTimeout) {
  DaemonFixture d(tight_options());  // idle_timeout_ms = 400
  if (!d.ok) GTEST_SKIP() << "cannot bind loopback socket: " << d.err;

  RawConn loris;
  ASSERT_TRUE(loris.open(d.port()));
  ASSERT_TRUE(loris.send_bytes("{\"ping\""));  // partial line, then silence
  const auto t0 = std::chrono::steady_clock::now();
  const std::string got = loris.drain(10000);  // returns when the server closes
  const auto held = std::chrono::steady_clock::now() - t0;
  EXPECT_NE(got.find("idle timeout"), std::string::npos) << got;
  EXPECT_LT(held, std::chrono::seconds(8)) << "connection was not reaped";

  // The reaped worker is back in rotation.
  expect_alive(d.port());
  EXPECT_GE(d.server.stats().timeouts, 1u);
}

TEST(DaemonRobustnessTest, TruncatedFramesAndMidResponseDisconnects) {
  serve::ServerOptions o = tight_options();
  o.idle_timeout_ms = 30000;  // not the subject here
  DaemonFixture d(o);
  if (!d.ok) GTEST_SKIP() << "cannot bind loopback socket: " << d.err;

  {  // Truncated frame: bytes then abrupt close, no newline.
    RawConn c;
    ASSERT_TRUE(c.open(d.port()));
    ASSERT_TRUE(c.send_bytes("{\"flow_request\":{\"tech\":\"gl"));
  }
  {  // Binary garbage with embedded newlines.
    RawConn c;
    ASSERT_TRUE(c.open(d.port()));
    std::string garbage;
    for (int i = 0; i < 512; ++i) garbage.push_back(static_cast<char>(i * 37));
    garbage.push_back('\n');
    ASSERT_TRUE(c.send_bytes(garbage));
    EXPECT_NE(c.drain(3000).find("\"ok\":false"), std::string::npos);
  }
  {  // Mid-response disconnect: fire a flow request, vanish immediately.
    RawConn c;
    ASSERT_TRUE(c.open(d.port()));
    ASSERT_TRUE(c.send_bytes("{\"flow_request\":{\"tech\":\"shinko\"}}\n"));
  }
  // Daemon alive, and the vanished client's flow still completes + caches.
  expect_alive(d.port());
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(60);
  while (d.server.stats().scheduler.executed < 1 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(Ms(20));
  }
  EXPECT_GE(d.server.stats().scheduler.executed, 1u);
}

TEST(DaemonRobustnessTest, EveryRejectionIsAccountedInStats) {
  serve::ServerOptions o = tight_options();
  o.idle_timeout_ms = 30000;
  DaemonFixture d(o);
  if (!d.ok) GTEST_SKIP() << "cannot bind loopback socket: " << d.err;

  serve::Client client;
  std::string resp, err;
  ASSERT_TRUE(client.connect(d.port(), &err)) << err;
  const char* bad_lines[] = {
      "not json at all",
      "[1,2,3]",                                   // not an object
      "{\"flow_request\":{\"tech\":\"diamond\"}}", // unknown tech
      "{\"flow_request\":{\"bogus\":1}}",          // unknown knob
      "{\"frobnicate\":true}",                     // unknown verb
      "{\"flow_request\":{\"tech\":\"glass3d\"},\"priority\":\"high\"}",
      "{\"flow_request\":{\"tech\":\"glass3d\"},\"deadline_ms\":-5}",
      "{\"flow_request\":{\"tech\":\"glass3d\"},\"after\":7}",
      "{\"flow_request\":{\"tech\":\"glass3d\"},\"result\":1}",
      "{\"id\":[1],\"ping\":true}",                // malformed id
      "{\"flow_request\":{\"openpiton\":{\"seed\":01}}}",  // bad number literal
  };
  for (const char* line : bad_lines) {
    ASSERT_TRUE(client.roundtrip(line, &resp, &err)) << line << ": " << err;
    EXPECT_NE(resp.find("\"ok\":false"), std::string::npos) << line << " -> " << resp;
    EXPECT_NE(resp.find("\"error\":"), std::string::npos) << line << " -> " << resp;
  }
  const auto st = d.server.stats();
  EXPECT_EQ(st.protocol_errors, std::size(bad_lines));
  EXPECT_EQ(st.requests, std::size(bad_lines));
  // flow_requests counts *accepted* flow requests only; every line above was
  // rejected before dispatch, so none reached the scheduler either.
  EXPECT_EQ(st.flow_requests, 0u);
  EXPECT_EQ(st.scheduler.submitted, 0u);
}

// The verb fields once checked only the JSON kind and the sign:
// "priority":1.5 and "after":[1.5] truncated to 1, and "rounds":1e2 read as
// 1. Each is now a checked read whose error names the field.
TEST(DaemonRobustnessTest, VerbFieldsAreCheckedScalars) {
  const char* const kDeadlineRange = "deadline_ms must be an integer in [0, 2147483647]";
  serve::ServerOptions o = tight_options();
  o.idle_timeout_ms = 30000;
  DaemonFixture d(o);
  if (!d.ok) GTEST_SKIP() << "cannot bind loopback socket: " << d.err;
  const struct {
    const char* line;
    const char* error;
  } cases[] = {
      {R"({"flow_request":{},"priority":1.5})", "priority"},
      {R"({"flow_request":{},"priority":2147483648})", "priority"},
      {R"({"flow_request":{},"deadline_ms":2.5})", "deadline_ms"},
      {R"({"flow_request":{},"after":[1.5]})", "after"},
      {R"({"flow_request":{},"after":[-1]})", "after"},
      {R"({"search":{"space":{"tech":["glass25d"]}},"deadline_ms":-1})", "deadline_ms"},
      {R"({"search_cancel":-1})", "search_cancel"},
      {R"({"search_cancel":1.5})", "search_cancel"},
      {R"({"search_refine":"7"})", "search_refine"},
      {R"({"search_refine":7,"rounds":1.5})", "rounds"},
      // Integral spellings are read exactly: these reach the id lookup.
      {R"({"search_refine":7,"rounds":1e2})", "unknown search id 7"},
      {R"({"search_cancel":7e0})", "unknown search id 7"},
      // The bare verbs take only `id`; a second verb is an unknown field.
      {R"({"ping":true,"bogus":1})", "unknown request field: bogus"},
      {R"({"stats":true,"bogus":1})", "unknown request field: bogus"},
      {R"({"shutdown":true,"bogus":1})", "unknown request field: bogus"},
      {R"({"ping":true,"shutdown":true})", "unknown request field"},
      // deadline_ms is read in [0, 2147483647]: a larger value once
      // overflowed the deadline arithmetic (a wrapped deadline expired the
      // request at once instead of running it).
      {R"({"flow_request":{},"deadline_ms":2147483648})", kDeadlineRange},
      {R"({"flow_request":{},"deadline_ms":9223372036854775807})", kDeadlineRange},
      {R"({"flow_request":{},"deadline_ms":18446744073709551615})", kDeadlineRange},
      {R"({"search":{"space":{"tech":["glass25d"]}},"deadline_ms":9223372036854775807})",
       kDeadlineRange},
      {R"({"search":{"space":{"tech":["glass25d"]}},"deadline_ms":18446744073709551615})",
       kDeadlineRange},
  };
  serve::Client client;
  std::string resp, err;
  ASSERT_TRUE(client.connect(d.port(), &err)) << err;
  for (const auto& c : cases) {
    ASSERT_TRUE(client.roundtrip(c.line, &resp, &err)) << c.line << ": " << err;
    EXPECT_NE(resp.find("\"ok\":false"), std::string::npos) << c.line << " -> " << resp;
    EXPECT_NE(resp.find(c.error), std::string::npos) << c.line << " -> " << resp;
  }
  const auto st = d.server.stats();
  EXPECT_EQ(st.protocol_errors, std::size(cases));
  EXPECT_EQ(st.scheduler.submitted, 0u);
  expect_alive(d.port());
}

// Grid dimensions below 1 once crashed giad (SIGSEGV for grid_nx:0 and for
// thermal_mesh.nx:0 with thermal on) or leaked a libstdc++ message
// (grid_nx:-3). Each must now fail only its own request, naming the knob.
TEST(DaemonRobustnessTest, NonPositiveGridDimensionsFailTheRequestNotTheDaemon) {
  serve::ServerOptions o = tight_options();
  o.idle_timeout_ms = 120000;  // the thermal case runs three stages first
  o.io_timeout_ms = 120000;
  DaemonFixture d(o);
  if (!d.ok) GTEST_SKIP() << "cannot bind loopback socket: " << d.err;

  const struct {
    const char* line;
    const char* knob;
  } cases[] = {
      {"{\"flow_request\":{\"tech\":\"glass25d\",\"router\":{\"grid_nx\":0}},\"result\":false}",
       "router.grid_nx"},
      {"{\"flow_request\":{\"tech\":\"glass25d\",\"router\":{\"grid_nx\":-3}},\"result\":false}",
       "router.grid_nx"},
      {"{\"flow_request\":{\"with_thermal\":true,\"thermal_mesh\":{\"nx\":0}},\"result\":false}",
       "thermal_mesh.nx"},
  };
  serve::Client::Options copts;
  copts.io_timeout_ms = 120000;
  for (const auto& c : cases) {
    serve::Client client(copts);
    std::string resp, err;
    ASSERT_TRUE(client.connect(d.port(), &err)) << err;
    ASSERT_TRUE(client.roundtrip(c.line, &resp, &err)) << c.line << ": " << err;
    EXPECT_NE(resp.find("\"ok\":false"), std::string::npos) << resp;
    EXPECT_NE(resp.find("\"status\":\"failed\""), std::string::npos) << resp;
    EXPECT_NE(resp.find(c.knob), std::string::npos) << resp;
    EXPECT_EQ(resp.find("_M_default_append"), std::string::npos) << resp;
    expect_alive(d.port());
  }
  EXPECT_EQ(d.server.stats().scheduler.failed, std::size(cases));
}

TEST(DaemonRobustnessTest, SurvivesSocketFaultInjection) {
  serve::ServerOptions o = tight_options();
  o.idle_timeout_ms = 2000;
  DaemonFixture d(o);
  if (!d.ok) GTEST_SKIP() << "cannot bind loopback socket: " << d.err;

  // Short reads/writes on every socket op; occasional hard drops. The
  // retrying client must still land requests, and nothing may crash/hang.
  FaultScope faults("seed=11,recv_short=0.3,send_short=0.3,recv_drop=0.02,send_drop=0.02");
  serve::Client::RetryPolicy retry;
  retry.max_attempts = 8;
  retry.initial_backoff_ms = 5;
  retry.overall_deadline_ms = 60000;
  int ok_count = 0;
  for (int i = 0; i < 10; ++i) {
    serve::Client client;
    std::string resp, err;
    if (client.request_with_retry(d.port(), "{\"ping\":true}", retry, &resp, &err) &&
        resp.find("\"pong\":true") != std::string::npos) {
      ++ok_count;
    }
  }
  EXPECT_GE(ok_count, 8) << "retry policy could not ride through injected faults";
  serve::fault::configure("");
  expect_alive(d.port());
}

// ---------------------------------------------------------------------------
// Client error paths and retry/backoff

/// One-shot fake server with a scripted behaviour per accepted connection.
struct FakeServer {
  int listen_fd = -1;
  int port = 0;
  std::thread thread;

  bool start(std::function<void(int conn_fd, int conn_index)> script, int accepts) {
    listen_fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (listen_fd < 0) return false;
    int one = 1;
    ::setsockopt(listen_fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
    sockaddr_in addr;
    std::memset(&addr, 0, sizeof addr);
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::bind(listen_fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) return false;
    if (::listen(listen_fd, 8) != 0) return false;
    socklen_t alen = sizeof addr;
    ::getsockname(listen_fd, reinterpret_cast<sockaddr*>(&addr), &alen);
    port = ntohs(addr.sin_port);
    thread = std::thread([this, script = std::move(script), accepts] {
      for (int i = 0; i < accepts; ++i) {
        const int fd = ::accept(listen_fd, nullptr, nullptr);
        if (fd < 0) return;
        script(fd, i);
        ::close(fd);
      }
    });
    return true;
  }
  ~FakeServer() {
    if (thread.joinable()) thread.join();
    if (listen_fd >= 0) ::close(listen_fd);
  }
};

/// Read one newline-terminated request off a fake-server connection.
void read_line(int fd) {
  char c;
  while (::recv(fd, &c, 1, 0) == 1 && c != '\n') {
  }
}

TEST(ClientRetryTest, RefusedConnectionExhaustsAttempts) {
  // Bind-then-close gives a port that actively refuses connections.
  int probe = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(probe, 0);
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof addr);
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::bind(probe, reinterpret_cast<sockaddr*>(&addr), sizeof addr), 0);
  socklen_t alen = sizeof addr;
  ASSERT_EQ(::getsockname(probe, reinterpret_cast<sockaddr*>(&addr), &alen), 0);
  const int dead_port = ntohs(addr.sin_port);
  ::close(probe);

  serve::Client client;
  serve::Client::RetryPolicy retry;
  retry.max_attempts = 3;
  retry.initial_backoff_ms = 2;
  std::string resp, err;
  int attempts = 0;
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_FALSE(client.request_with_retry(dead_port, "{\"ping\":true}", retry, &resp, &err,
                                         &attempts));
  EXPECT_EQ(attempts, 3);
  EXPECT_NE(err.find("connect"), std::string::npos) << err;
  // Two backoff sleeps happened (>= 50% of nominal each), but the loop is
  // far from unbounded.
  EXPECT_GE(std::chrono::steady_clock::now() - t0, Ms(2));
  EXPECT_LT(std::chrono::steady_clock::now() - t0, std::chrono::seconds(30));
}

TEST(ClientRetryTest, ReconnectsAfterServerClosesMidResponse) {
  FakeServer fake;
  ASSERT_TRUE(fake.start(
      [](int fd, int conn) {
        read_line(fd);
        if (conn == 0) {
          // Half a response, then hang up: the client sees a mid-response
          // disconnect and must retry on a fresh connection.
          const char* partial = "{\"ok\":tr";
          (void)!::send(fd, partial, std::strlen(partial), MSG_NOSIGNAL);
        } else {
          const char* full = "{\"ok\":true,\"pong\":true}\n";
          (void)!::send(fd, full, std::strlen(full), MSG_NOSIGNAL);
        }
      },
      /*accepts=*/2));

  serve::Client client;
  serve::Client::RetryPolicy retry;
  retry.max_attempts = 4;
  retry.initial_backoff_ms = 2;
  std::string resp, err;
  int attempts = 0;
  EXPECT_TRUE(
      client.request_with_retry(fake.port, "{\"ping\":true}", retry, &resp, &err, &attempts))
      << err;
  EXPECT_EQ(attempts, 2);
  EXPECT_EQ(resp, "{\"ok\":true,\"pong\":true}");
}

TEST(ClientRetryTest, OversizedResponseLineIsAnError) {
  FakeServer fake;
  ASSERT_TRUE(fake.start(
      [](int fd, int) {
        read_line(fd);
        // 256 KiB of response with no newline in sight.
        const std::string blob(256 * 1024, 'y');
        std::size_t off = 0;
        while (off < blob.size()) {
          const ssize_t n = ::send(fd, blob.data() + off, blob.size() - off, MSG_NOSIGNAL);
          if (n <= 0) break;
          off += static_cast<std::size_t>(n);
        }
      },
      /*accepts=*/1));

  serve::Client::Options copts;
  copts.max_response_bytes = 64 * 1024;
  serve::Client client(copts);
  std::string resp, err;
  ASSERT_TRUE(client.connect(fake.port, &err)) << err;
  EXPECT_FALSE(client.roundtrip("{\"ping\":true}", &resp, &err));
  EXPECT_NE(err.find("response line too long"), std::string::npos) << err;
  EXPECT_FALSE(client.connected());  // stream reset; a retry would reconnect
}

TEST(ClientRetryTest, RecvTimeoutInsteadOfInfiniteHang) {
  FakeServer fake;
  std::atomic<bool> release{false};
  ASSERT_TRUE(fake.start(
      [&release](int fd, int) {
        read_line(fd);
        // Never answer; just hold the socket until the test ends.
        while (!release.load()) std::this_thread::sleep_for(Ms(10));
        (void)fd;
      },
      /*accepts=*/1));

  serve::Client::Options copts;
  copts.io_timeout_ms = 300;
  serve::Client client(copts);
  std::string resp, err;
  ASSERT_TRUE(client.connect(fake.port, &err)) << err;
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_FALSE(client.roundtrip("{\"ping\":true}", &resp, &err));
  EXPECT_NE(err.find("recv timeout"), std::string::npos) << err;
  EXPECT_LT(std::chrono::steady_clock::now() - t0, std::chrono::seconds(10));
  release.store(true);
}

}  // namespace
}  // namespace gia
