#include "core/json.hpp"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>

namespace gia::core::json {

const Value& Value::at(std::string_view key) const {
  if (const Value* v = find(key)) return *v;
  throw std::runtime_error("JSON: missing key \"" + std::string(key) + "\"");
}

const Value* Value::find(std::string_view key) const {
  for (const auto& [k, v] : obj) {
    if (k == key) return &v;
  }
  return nullptr;
}

namespace {

std::string shown(const Value& v) {
  static const char* const kKinds[] = {"null", "", "", "a string", "an array", "an object"};
  if (v.kind == Value::Kind::Number) return v.raw.substr(0, 40);  // the start is enough
  if (v.kind == Value::Kind::Bool) return v.b ? "true" : "false";
  return kKinds[static_cast<int>(v.kind)];
}

}  // namespace

void Value::mistyped(std::string_view what, const std::string& expected) const {
  const std::string subject = what.empty() ? "" : std::string(what) + " ";
  throw std::runtime_error(subject + "must be " + expected + ", got " + shown(*this));
}

double Value::number(std::string_view what) const {
  if (kind != Kind::Number) mistyped(what, "a number");
  errno = 0;
  const double x = std::strtod(raw.c_str(), nullptr);
  // Underflow reads as the nearest subnormal or zero; overflow is refused.
  if (errno == ERANGE && std::isinf(x)) mistyped(what, "a number a double can hold");
  return x;
}

// Exact in integer arithmetic: the token (its grammar checked by the parser)
// is the digit string D times 10^exp, with D's trailing zeros moved into exp.
bool Value::integer(std::string_view what, bool* negative, std::uint64_t* magnitude) const {
  if (kind != Kind::Number) mistyped(what, "an integer");
  const bool minus = raw.front() == '-';
  std::string digits;
  long exp = 0;
  std::size_t i = minus ? 1 : 0;
  for (bool fraction = false; i < raw.size() && raw[i] != 'e' && raw[i] != 'E'; ++i) {
    if (raw[i] == '.') {
      fraction = true;
    } else {
      digits.push_back(raw[i]);
      exp -= fraction;
    }
  }
  if (i < raw.size()) {  // strtol saturates; the clamp keeps `exp` from overflowing
    exp += std::clamp(std::strtol(&raw[i + 1], nullptr, 10), -(1L << 40), 1L << 40);
  }
  digits.erase(0, digits.find_first_not_of('0'));
  for (; !digits.empty() && digits.back() == '0'; ++exp) digits.pop_back();
  *negative = minus && !digits.empty();
  *magnitude = 0;
  if (digits.empty()) return true;
  if (exp < 0) mistyped(what, "an integer");
  if (exp > 20 - static_cast<long>(digits.size())) return false;  // beyond 20 digits
  digits.append(static_cast<std::size_t>(exp), '0');
  errno = 0;
  *magnitude = std::strtoull(digits.c_str(), nullptr, 10);
  return errno != ERANGE;
}

namespace {

class Parser {
 public:
  Parser(const std::string& s, const ParseLimits& limits) : s_(s), limits_(limits) {}

  Value parse() {
    if (limits_.max_bytes != 0 && s_.size() > limits_.max_bytes) fail("document too large");
    Value v = value();
    skip_ws();
    if (pos_ != s_.size()) fail("trailing characters");
    return v;
  }

 private:
  [[noreturn]] void fail(const char* what) const {
    throw std::runtime_error(std::string("JSON: ") + what + " at offset " +
                             std::to_string(pos_));
  }
  void enter() {
    if (++depth_ > limits_.max_depth) fail("nesting too deep");
  }
  void leave() { --depth_; }
  void skip_ws() {
    while (pos_ < s_.size() && std::isspace(static_cast<unsigned char>(s_[pos_]))) ++pos_;
  }
  char peek() {
    skip_ws();
    if (pos_ >= s_.size()) fail("unexpected end");
    return s_[pos_];
  }
  void expect(char c) {
    if (peek() != c) fail("unexpected character");
    ++pos_;
  }

  Value value() {
    const char c = peek();
    if (c == '{') return object();
    if (c == '[') return array();
    if (c == '"') {
      Value v;
      v.kind = Value::Kind::String;
      v.str = string();
      return v;
    }
    if (c == 't' || c == 'f') return boolean();
    if (c == 'n') {
      if (s_.compare(pos_, 4, "null") != 0) fail("bad literal");
      pos_ += 4;
      return Value{};
    }
    return number();
  }

  Value object() {
    expect('{');
    enter();
    Value v;
    v.kind = Value::Kind::Object;
    if (peek() == '}') {
      ++pos_;
      leave();
      return v;
    }
    for (;;) {
      std::string key = string();
      expect(':');
      v.obj.emplace_back(std::move(key), value());
      const char c = peek();
      ++pos_;
      if (c == '}') {
        leave();
        return v;
      }
      if (c != ',') fail("expected ',' or '}'");
    }
  }

  Value array() {
    expect('[');
    enter();
    Value v;
    v.kind = Value::Kind::Array;
    if (peek() == ']') {
      ++pos_;
      leave();
      return v;
    }
    for (;;) {
      v.arr.push_back(value());
      const char c = peek();
      ++pos_;
      if (c == ']') {
        leave();
        return v;
      }
      if (c != ',') fail("expected ',' or ']'");
    }
  }

  std::string string() {
    expect('"');
    std::string out;
    while (pos_ < s_.size()) {
      const char c = s_[pos_++];
      if (c == '"') return out;
      if (c == '\\') {
        if (pos_ >= s_.size()) fail("bad escape");
        const char e = s_[pos_++];
        switch (e) {
          case '"': out.push_back('"'); break;
          case '\\': out.push_back('\\'); break;
          case '/': out.push_back('/'); break;
          case 'n': out.push_back('\n'); break;
          case 't': out.push_back('\t'); break;
          case 'r': out.push_back('\r'); break;
          case 'b': out.push_back('\b'); break;
          case 'f': out.push_back('\f'); break;
          case 'u': {
            if (pos_ + 4 > s_.size()) fail("bad \\u escape");
            const std::string hex = s_.substr(pos_, 4);
            pos_ += 4;
            out.push_back(static_cast<char>(std::strtoul(hex.c_str(), nullptr, 16)));
            break;
          }
          default: fail("bad escape");
        }
      } else {
        out.push_back(c);
      }
    }
    fail("unterminated string");
  }

  Value boolean() {
    Value v;
    v.kind = Value::Kind::Bool;
    if (s_.compare(pos_, 4, "true") == 0) {
      v.b = true;
      pos_ += 4;
    } else if (s_.compare(pos_, 5, "false") == 0) {
      v.b = false;
      pos_ += 5;
    } else {
      fail("bad literal");
    }
    return v;
  }

  bool digit_at(std::size_t p) const {
    return p < s_.size() && std::isdigit(static_cast<unsigned char>(s_[p]));
  }

  /// Strict JSON number grammar: -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?
  /// Malformed literals (`1e`, `-`, `.5`, `01`) fail at the offending byte.
  Value number() {
    skip_ws();
    const std::size_t start = pos_;
    if (pos_ < s_.size() && s_[pos_] == '-') ++pos_;
    if (!digit_at(pos_)) fail("expected digit in number");
    if (s_[pos_] == '0') {
      ++pos_;
      if (digit_at(pos_)) fail("leading zero in number");
    } else {
      while (digit_at(pos_)) ++pos_;
    }
    if (pos_ < s_.size() && s_[pos_] == '.') {
      ++pos_;
      if (!digit_at(pos_)) fail("expected digit after '.'");
      while (digit_at(pos_)) ++pos_;
    }
    if (pos_ < s_.size() && (s_[pos_] == 'e' || s_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < s_.size() && (s_[pos_] == '+' || s_[pos_] == '-')) ++pos_;
      if (!digit_at(pos_)) fail("expected digit in exponent");
      while (digit_at(pos_)) ++pos_;
    }
    Value v;
    v.kind = Value::Kind::Number;
    v.raw = s_.substr(start, pos_ - start);
    return v;
  }

  const std::string& s_;
  const ParseLimits limits_;
  std::size_t pos_ = 0;
  std::size_t depth_ = 0;
};

}  // namespace

Value parse(const std::string& text) { return Parser(text, ParseLimits()).parse(); }

Value parse(const std::string& text, const ParseLimits& limits) {
  return Parser(text, limits).parse();
}

void escape(std::string_view s, std::string& out) {
  out.push_back('"');
  for (const char ch : s) {
    switch (ch) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(ch) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", ch);
          out += buf;
        } else {
          out.push_back(ch);
        }
    }
  }
  out.push_back('"');
}

void append_u64(std::uint64_t v, std::string& out) {
  char buf[20];
  out.append(buf, std::to_chars(buf, buf + sizeof buf, v).ptr);
}

void append_i64(std::int64_t v, std::string& out) {
  char buf[20];
  out.append(buf, std::to_chars(buf, buf + sizeof buf, v).ptr);
}

void append_double(double v, std::string& out) {
  char buf[32];  // %.17g needs at most 24: -d.dddddddddddddddde-ddd
  out.append(buf, std::to_chars(buf, buf + sizeof buf, v, std::chars_format::general, 17).ptr);
}

void append_bool(bool v, std::string& out) { out += v ? "true" : "false"; }

void key(std::string_view k, std::string& out) {
  if (out.back() != '{') out.push_back(',');
  escape(k, out);
  out.push_back(':');
}

}  // namespace gia::core::json
