// The number spellings of keys and JSON (core/json.hpp, core/canon.hpp):
// json::append_double, append_i64/append_u64 and canon::key_hex are built on
// std::to_chars and must spell exactly what printf's %.17g, PRId64/PRIu64
// and %016llx spell, since request keys, stage keys and every persisted
// result hash or store those bytes.

#include <gtest/gtest.h>

#include <cfloat>
#include <cinttypes>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <random>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/canon.hpp"
#include "core/flow.hpp"
#include "core/json.hpp"
#include "core/knobs.hpp"

namespace json = gia::core::json;
namespace canon = gia::core::canon;
namespace knobs = gia::core::knobs;

namespace {

std::string printf_g17(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string spelled(double v) {
  std::string out;
  json::append_double(v, out);
  return out;
}

double from_bits(std::uint64_t bits) {
  double v;
  std::memcpy(&v, &bits, sizeof v);
  return v;
}

/// Every double row's default value in the knob table.
struct DoubleDefaults : knobs::Path {
  std::vector<std::pair<std::string, double>> out;

  template <typename T>
  void field(const knobs::Field<T>& f) {
    if constexpr (std::is_same_v<T, double>) out.emplace_back(dotted(f.name), f.value);
  }
  template <typename S>
  void token(const knobs::Token<S>&) {}
};

}  // namespace

// Odd draws keep the sign and mantissa bits but move the exponent into
// [2^-64, 2^64), where knob values and results live; even draws span every
// pattern (NaN payloads, infinities, subnormals included).
TEST(NumberSpellingTest, DoubleMatchesPrintfOnRandomBitPatterns) {
  std::mt19937_64 rng(20231017);
  std::size_t mismatches = 0;
  std::string got;
  for (int i = 0; i < (1 << 20); ++i) {
    std::uint64_t bits = rng();
    if (i % 2 == 1) {
      const std::uint64_t exponent = 1023 - 64 + (bits >> 52) % 128;
      bits = (bits & 0x800fffffffffffffull) | exponent << 52;
    }
    const double v = from_bits(bits);
    char want[40];
    std::snprintf(want, sizeof want, "%.17g", v);
    got.clear();
    json::append_double(v, got);
    if (got != want && ++mismatches <= 5) {
      ADD_FAILURE() << "bits 0x" << canon::key_hex(bits) << ": printf " << want
                    << ", to_chars " << got;
    }
  }
  EXPECT_EQ(mismatches, 0u);
}

TEST(NumberSpellingTest, DoubleMatchesPrintfOnEdgeValues) {
  using L = std::numeric_limits<double>;
  const double two53 = 9007199254740992.0;
  const double edges[] = {0.0,
                          -0.0,
                          L::infinity(),
                          -L::infinity(),
                          L::quiet_NaN(),
                          -L::quiet_NaN(),
                          L::denorm_min(),
                          -L::denorm_min(),
                          DBL_MIN,
                          DBL_MAX,
                          -DBL_MAX,
                          two53 - 1,
                          two53 + 2,  // 2^53 + 1 is not a double; its neighbours are
                          std::nextafter(two53, 0.0),
                          std::nextafter(two53, L::infinity()),
                          1e16,
                          1e17,
                          0.1,
                          1.0,
                          -1.5,
                          1e-5,
                          1e-4,
                          123456789012345678.0};
  for (const double v : edges) EXPECT_EQ(spelled(v), printf_g17(v)) << printf_g17(v);
}

TEST(NumberSpellingTest, DoubleMatchesPrintfOnEveryKnobDefault) {
  DoubleDefaults v;
  gia::tech::TechnologyKind tk = gia::tech::TechnologyKind::Glass25D;
  gia::core::FlowOptions o;
  knobs::walk(tk, o, v);
  ASSERT_GT(v.out.size(), 30u);
  for (const auto& [path, x] : v.out) EXPECT_EQ(spelled(x), printf_g17(x)) << path;
}

TEST(NumberSpellingTest, IntegersAndKeyHexMatchPrintf) {
  using I = std::numeric_limits<std::int64_t>;
  std::vector<std::uint64_t> values = {0, 1, 0xf, 0x10, 0xcbf29ce484222325ull,
                                       static_cast<std::uint64_t>(I::max()),
                                       static_cast<std::uint64_t>(I::min()),
                                       std::numeric_limits<std::uint64_t>::max()};
  std::mt19937_64 rng(7);
  for (int i = 0; i < 10000; ++i) values.push_back(rng() >> (i % 64));
  for (const std::uint64_t u : values) {
    const auto v = static_cast<std::int64_t>(u);
    char buf[32];
    std::snprintf(buf, sizeof buf, "%" PRId64, v);
    std::string out;
    json::append_i64(v, out);
    EXPECT_EQ(out, buf);
  }
  for (const std::uint64_t v : values) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%" PRIu64, v);
    std::string out;
    json::append_u64(v, out);
    EXPECT_EQ(out, buf);
    std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
    EXPECT_EQ(canon::key_hex(v), buf);
  }
}
