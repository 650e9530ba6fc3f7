#include "serve/request.hpp"

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "core/canon.hpp"
#include "core/knobs.hpp"

namespace gia::serve {

namespace json = core::json;

namespace {

namespace knobs = core::knobs;

/// Canonical text of every rendered row: the request-key preimage. Shares
/// core::canon::Writer with the stage keys, so the two never drift in
/// formatting.
struct TextWriter {
  core::canon::Writer w;

  bool begin(const char* name, bool nondefault, bool) {
    if (nondefault) w.begin(name);
    return nondefault;
  }
  void end() { w.end(); }
  template <typename T>
  void field(const knobs::Field<T>& f) {
    if (f.render) w.field(f.name, f.value);
  }
  template <typename S>
  void token(const knobs::Token<S>& t) {
    if (t.render) w.line(t.name, t.value);
  }
};

struct JsonWriter {
  std::string out;

  bool begin(const char* name, bool nondefault, bool) {
    if (!nondefault) return false;
    json::key(name, out);
    out.push_back('{');
    return true;
  }
  void end() { out.push_back('}'); }
  template <typename S>
  void token(const knobs::Token<S>& t) {
    if (t.render) json::member(t.name, t.value, out);
  }
  template <typename T>
  void field(const knobs::Field<T>& f) {
    if (f.render) json::member(f.name, f.value, out);
  }
};

/// Structure-directed reader: absent objects/fields keep defaults, present
/// ones must consume every key they carry (typos fail loudly instead of
/// silently hashing as a default request), and every value must have the
/// row's JSON kind and fit its C++ type. Errors name the dotted path.
struct JsonReader {
  struct Frame {
    const json::Value* obj = nullptr;  ///< null: section absent, all defaults
    std::vector<const char*> consumed;  ///< knob-table names: static strings
  };
  std::vector<Frame> stack;
  knobs::Path path;

  explicit JsonReader(const json::Value& root) { stack.push_back({&root, {}}); }

  [[noreturn]] void fail(const char* name, const std::string& what) const {
    throw std::runtime_error("flow_request: \"" + path.dotted(name) + "\" " + what);
  }
  const json::Value* get(const char* name) {
    Frame& f = stack.back();
    if (f.obj == nullptr) return nullptr;
    const json::Value* v = f.obj->find(name);
    if (v != nullptr) f.consumed.push_back(name);
    return v;
  }
  /// Enters every section: an absent one reads as all defaults, and an
  /// explicitly spelled all-default system block still hashes to the legacy
  /// key, because re-rendering omits it.
  bool begin(const char* name, bool, bool) {
    const json::Value* v = get(name);
    if (v != nullptr && v->kind != json::Value::Kind::Object) fail(name, "must be an object");
    stack.push_back({v, {}});
    path.begin(name);
    return true;
  }
  void end() {
    check_consumed();
    stack.pop_back();
    path.end();
  }
  void check_consumed() {
    const Frame& f = stack.back();
    if (f.obj == nullptr) return;
    for (const auto& [k, v] : f.obj->obj) {
      if (std::find(f.consumed.begin(), f.consumed.end(), k) == f.consumed.end()) {
        throw std::runtime_error("flow_request: unknown key \"" + k + "\"");
      }
    }
  }
  /// Optional rows always probe the document; absent keeps the default.
  template <typename S>
  void token(const knobs::Token<S>& t) {
    const json::Value* v = get(t.name);
    if (v == nullptr) return;
    const std::string s = read<std::string>(*v, t.name);
    try {
      if (!t.set(s)) {
        throw std::invalid_argument("unknown " + path.dotted(t.name) + " \"" + s + "\"");
      }
    } catch (const std::invalid_argument& e) {
      throw std::runtime_error(std::string("flow_request: ") + e.what());
    }
  }
  template <typename T>
  void field(const knobs::Field<T>& f) {
    if (const json::Value* v = get(f.name)) f.value = read<T>(*v, f.name);
  }
  template <typename T>
  T read(const json::Value& v, const char* name) const {
    try {
      return v.as<T>();
    } catch (const std::runtime_error& e) {
      fail(name, e.what());
    }
  }
};

}  // namespace

std::string canonical_text(const FlowRequest& req) {
  TextWriter v;
  knobs::walk_readonly(req.tech, req.options, v);
  return std::move(v.w.out);
}

std::uint64_t fnv1a64(const std::string& bytes) { return core::canon::fnv1a64(bytes); }

std::uint64_t request_key(const FlowRequest& req) { return fnv1a64(canonical_text(req)); }

std::string key_hex(std::uint64_t key) { return core::canon::key_hex(key); }

std::string request_to_json(const FlowRequest& req) {
  JsonWriter w;
  w.out = "{\"flow_request\":{";
  knobs::walk_readonly(req.tech, req.options, w);
  w.out += "}}";
  return w.out;
}

FlowRequest request_from_value(const json::Value& v) {
  const json::Value* inner = v.find("flow_request");
  const json::Value& obj = inner != nullptr ? *inner : v;
  if (obj.kind != json::Value::Kind::Object) {
    throw std::runtime_error("flow_request: expected an object");
  }
  FlowRequest req;
  JsonReader r(obj);
  knobs::walk(req.tech, req.options, r);
  r.check_consumed();
  return req;
}

FlowRequest request_from_json(const std::string& text) {
  return request_from_value(json::parse(text));
}

}  // namespace gia::serve
