#pragma once

#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

/// \file json.hpp
/// Minimal dependency-free JSON reader/writer shared by the run-report
/// layer (core/instrument), the result serialization layer (core/serialize)
/// and the serving protocol (serve/). The writer helpers emit canonical
/// single-line JSON: doubles in %.17g (they round-trip exactly through
/// strtod, so serialize -> parse -> re-serialize is byte-identical), object
/// keys in emission order, no whitespace. Numbers are spelled by
/// std::to_chars: doubles in general format at precision 17, which the
/// standard defines as printf's %.17g in the C locale, and integers in
/// decimal; NumberSpellingTest pins both against printf. The parser keeps
/// number tokens verbatim; `Value::as<T>()` is the one place a token becomes
/// a C++ value, so integers read exactly (no detour through double) and
/// every reader shares one kind and fit check.

namespace gia::core::json {

struct Value {
  enum class Kind { Null, Bool, Number, String, Array, Object } kind = Kind::Null;
  bool b = false;
  std::string raw;  ///< number token, verbatim
  std::string str;
  std::vector<Value> arr;
  std::vector<std::pair<std::string, Value>> obj;

  /// Object member access; throws std::runtime_error when missing.
  const Value& at(std::string_view key) const;
  /// Object member lookup; nullptr when missing (optional fields).
  const Value* find(std::string_view key) const;

  /// Checked scalar read; T is bool, double, std::string or any integral
  /// type. Throws std::runtime_error naming `what` (may be empty) when the
  /// value has another JSON kind, when an integer read meets a fraction or
  /// a value T cannot hold, or when a number overflows a double. Integral
  /// spellings such as 1e3 and 16.0 read exactly as integers. The second
  /// form further bounds an integral read to the inclusive range [lo, hi].
  template <typename T>
  T as(std::string_view what = {}) const;
  template <typename T>
  T as(std::string_view what, T lo, T hi) const;

  /// Shorthands for the checked reads above.
  bool as_bool() const { return as<bool>(); }
  std::int64_t as_i64() const { return as<std::int64_t>(); }
  std::uint64_t as_u64() const { return as<std::uint64_t>(); }

 private:
  [[noreturn]] void mistyped(std::string_view what, const std::string& expected) const;
  double number(std::string_view what) const;
  /// Exact integer value of a number: false when |value| >= 2^64.
  bool integer(std::string_view what, bool* negative, std::uint64_t* magnitude) const;
};

/// The fit rule every reader shares: true when the integer `-magnitude`
/// (when `negative`) or `magnitude` is a value T holds (0 or 1 for bool).
template <typename T>
bool fits(bool negative, std::uint64_t magnitude) {
  using L = std::numeric_limits<T>;
  if (!negative || magnitude == 0) return magnitude <= static_cast<std::uint64_t>(L::max());
  return L::is_signed && magnitude - 1 <= static_cast<std::uint64_t>(L::max());
}

/// The same rule for a double: any double for double, else an integer T
/// holds. NaN and infinities fit no integer type.
template <typename T>
bool fits(double x) {
  if constexpr (std::is_floating_point_v<T>) {
    return true;
  } else {
    return x == std::trunc(x) && std::fabs(x) < 0x1p64 &&
           fits<T>(x < 0, static_cast<std::uint64_t>(std::fabs(x)));
  }
}

template <typename T>
T Value::as(std::string_view what) const {
  if constexpr (std::is_same_v<T, bool>) {
    if (kind != Kind::Bool) mistyped(what, "true or false");
    return b;
  } else if constexpr (std::is_same_v<T, std::string>) {
    if (kind != Kind::String) mistyped(what, "a string");
    return str;
  } else if constexpr (std::is_floating_point_v<T>) {
    return static_cast<T>(number(what));
  } else {
    static_assert(std::is_integral_v<T>, "as<T>: T must be bool, a number type or a string");
    return as<T>(what, std::numeric_limits<T>::lowest(), std::numeric_limits<T>::max());
  }
}

template <typename T>
T Value::as(std::string_view what, T lo, T hi) const {
  bool negative = false;
  std::uint64_t magnitude = 0;
  const bool held = integer(what, &negative, &magnitude) && fits<T>(negative, magnitude);
  // Two's-complement wrap: -magnitude for a negative value (C++20).
  const T x = static_cast<T>(negative ? 0 - magnitude : magnitude);
  if (!held || x < lo || x > hi)
    mistyped(what, "an integer in [" + std::to_string(lo) + ", " + std::to_string(hi) + "]");
  return x;
}

/// Bounds applied while parsing untrusted input. The defaults accept every
/// document this library emits; the serving layer tightens them per request.
struct ParseLimits {
  /// Maximum container nesting. Recursion is one frame per level, so this
  /// also bounds parser stack use (a `[[[[...` bomb fails at this depth
  /// with a parse error instead of overflowing the stack).
  std::size_t max_depth = 128;
  /// Maximum document size in bytes (0 = unlimited).
  std::size_t max_bytes = 64u << 20;
};

/// Parse a complete JSON document. Throws std::runtime_error (with byte
/// offset) on malformed input, trailing characters, or a violated limit.
/// Number tokens must match the strict JSON grammar: `1e`, `-`, `.5` and
/// `01` are rejected with the offset of the offending byte.
Value parse(const std::string& text);
Value parse(const std::string& text, const ParseLimits& limits);

/// Append `"s"` with standard JSON escaping.
void escape(std::string_view s, std::string& out);

void append_u64(std::uint64_t v, std::string& out);
void append_i64(std::int64_t v, std::string& out);
/// The one double spelling of keys and JSON: %.17g, so strtod(output) == v.
void append_double(double v, std::string& out);
void append_bool(bool v, std::string& out);

/// Append `"k":`, after a ',' unless `out` ends in the object's opening '{'.
void key(std::string_view k, std::string& out);

/// Append one object member `"k":v`. T is bool, an integral type (exact),
/// a floating type (%.17g) or a string.
template <typename T>
void member(std::string_view k, const T& v, std::string& out) {
  key(k, out);
  if constexpr (std::is_same_v<T, bool>) {
    append_bool(v, out);
  } else if constexpr (std::is_floating_point_v<T>) {
    append_double(v, out);
  } else if constexpr (std::is_signed_v<T>) {
    append_i64(v, out);
  } else if constexpr (std::is_unsigned_v<T>) {
    append_u64(v, out);
  } else {
    escape(v, out);
  }
}

}  // namespace gia::core::json
