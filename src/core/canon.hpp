#pragma once

#include <charconv>
#include <cstdint>
#include <string>
#include <string_view>

#include "core/json.hpp"

/// \file canon.hpp
/// Canonical key=value rendering and FNV-1a hashing shared by every
/// content-address in the system: the serving layer's request keys
/// (serve/request.cpp) and the stage graph's per-stage artifact keys
/// (core/stagegraph.cpp). Both hash the output of a `Writer`, so the two
/// key spaces can never drift apart in formatting: one spelling of a knob
/// ("section.key=value\n", doubles in %.17g) is the preimage everywhere.
/// Numbers are spelled by std::to_chars: doubles through json::append_double
/// (general format, precision 17, which the standard defines as printf's
/// %.17g), integers in decimal and keys in hex. NumberSpellingTest
/// (tests/number_spelling_test.cpp) pins each spelling against printf.

namespace gia::core::canon {

/// 64-bit FNV-1a over an arbitrary byte string.
inline std::uint64_t fnv1a64(const std::string& bytes) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

/// splitmix64's golden-ratio increment.
inline constexpr std::uint64_t kSplitmix64Gamma = 0x9e3779b97f4a7c15ull;

/// splitmix64 (Steele, Lea & Flood) as a stateless mixer: the generator's
/// output for state `x`. Fault-injection decisions and retry jitter hash
/// their seeds through it, so it must stay bit-identical everywhere.
inline std::uint64_t splitmix64(std::uint64_t x) noexcept {
  x += kSplitmix64Gamma;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// The splitmix64 generator: the output for `state`, then advance it.
inline std::uint64_t splitmix64_next(std::uint64_t& state) noexcept {
  const std::uint64_t out = splitmix64(state);
  state += kSplitmix64Gamma;
  return out;
}

/// Fixed-width lowercase-hex spelling of a key, zero-padded to 16 digits
/// (%016llx): cache filenames, logs, stage-key chaining.
inline std::string key_hex(std::uint64_t key) {
  char buf[16];
  char* end = std::to_chars(buf, buf + sizeof buf, key, 16).ptr;
  std::string hex(static_cast<std::size_t>(buf + sizeof buf - end), '0');
  return hex.append(buf, end);
}

/// "section.subsection.key=value" line writer. `begin`/`end` push and pop
/// dotted section prefixes; `field` renders ints/bools/doubles with the
/// canonical spellings (%.17g for doubles, 1/0 for bools) straight into
/// `out`. The knob-table visitors (core/knobs.hpp) render request and stage
/// keys through it.
struct Writer {
  std::string out;
  std::string prefix;

  void begin(std::string_view name) {
    prefix += name;
    prefix.push_back('.');
  }
  void end() { prefix.erase(prefix.rfind('.', prefix.size() - 2) + 1); }
  void line(std::string_view name, std::string_view value) {
    key(name);
    out += value;
    out.push_back('\n');
  }
  void field(std::string_view name, const int& x) {
    key(name);
    json::append_i64(x, out);
    out.push_back('\n');
  }
  void field(std::string_view name, const unsigned& x) {
    key(name);
    json::append_u64(x, out);
    out.push_back('\n');
  }
  void field(std::string_view name, const bool& x) { line(name, x ? "1" : "0"); }
  void field(std::string_view name, const double& x) {
    key(name);
    json::append_double(x, out);
    out.push_back('\n');
  }

 private:
  void key(std::string_view name) {
    out += prefix;
    out += name;
    out.push_back('=');
  }
};

}  // namespace gia::core::canon
