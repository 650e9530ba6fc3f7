#pragma once

#include <cstdint>
#include <cstdio>
#include <string>

/// \file canon.hpp
/// Canonical key=value rendering and FNV-1a hashing shared by every
/// content-address in the system: the serving layer's request keys
/// (serve/request.cpp) and the stage graph's per-stage artifact keys
/// (core/stagegraph.cpp). Both hash the output of a `Writer`, so the two
/// key spaces can never drift apart in formatting: one spelling of a knob
/// ("section.key=value\n", doubles in %.17g) is the preimage everywhere.

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

/// Fixed-width lowercase-hex spelling of a key (cache filenames, logs,
/// stage-key chaining).
inline std::string key_hex(std::uint64_t key) {
  char buf[20];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(key));
  return buf;
}

/// "section.subsection.key=value" line writer. `begin`/`end` push and pop
/// dotted section prefixes; `field` renders ints/bools/doubles with the
/// canonical spellings (%.17g for doubles, 1/0 for bools). The knob-table
/// visitors (core/knobs.hpp) render request and stage keys through it.
struct Writer {
  std::string out;
  std::string prefix;

  void begin(const char* name) { prefix += std::string(name) + "."; }
  void end() { prefix.erase(prefix.rfind('.', prefix.size() - 2) + 1); }
  void line(const char* name, const std::string& value) {
    out += prefix;
    out += name;
    out.push_back('=');
    out += value;
    out.push_back('\n');
  }
  void field(const char* name, const int& x) { line(name, std::to_string(x)); }
  void field(const char* name, const unsigned& x) { line(name, std::to_string(x)); }
  void field(const char* name, const bool& x) { line(name, x ? "1" : "0"); }
  void field(const char* name, const double& x) {
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", x);
    line(name, buf);
  }
};

}  // namespace gia::core::canon
