#include "dse/space.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <stdexcept>

#include "chiplet/system.hpp"
#include "core/canon.hpp"
#include "core/knobs.hpp"

namespace gia::dse {

namespace json = core::json;

namespace {

std::string fmt_g(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%g", v);
  return buf;
}

[[noreturn]] void fail(const std::string& msg) { throw std::runtime_error("search: " + msg); }

/// Every key of `obj` must appear in `allowed` (strict reader contract).
void check_keys(const json::Value& obj, std::initializer_list<const char*> allowed,
                const char* where) {
  for (const auto& [k, v] : obj.obj) {
    bool found = false;
    for (const char* a : allowed) found |= (k == a);
    if (!found) fail(std::string(where) + ": unknown key \"" + k + "\"");
  }
}

/// Parse one axis value document (array or range object) against its knob.
Axis parse_axis(const std::string& name, const json::Value& v) {
  const core::knobs::RowInfo* row = core::knobs::find(name);
  if (row == nullptr) fail("space: unknown knob \"" + name + "\" (not a request knob)");
  using Kind = core::knobs::RowInfo::Kind;
  Axis axis;
  axis.knob = name;
  axis.type = row->kind == Kind::Token    ? KnobType::Token
              : row->kind == Kind::Double ? KnobType::Double
                                          : KnobType::Int;

  if (v.kind == json::Value::Kind::Array) {
    if (v.arr.empty()) fail("space." + name + ": axis must not be empty");
    for (const auto& e : v.arr) {
      if (axis.type == KnobType::Token) {
        // Validate the token eagerly: a typo'd technology fails at parse
        // time, not after half the search has run.
        std::string token = e.as<std::string>("search: space." + name);
        serve::FlowRequest probe;
        try {
          core::knobs::set(probe.tech, probe.options, name, token);
        } catch (const std::invalid_argument& err) {
          fail(std::string("space: ") + err.what());
        }
        axis.tokens.push_back(std::move(token));
      } else {
        axis.values.push_back(e.as<double>("search: space." + name));
      }
    }
  } else if (v.kind == json::Value::Kind::Object) {
    if (axis.type == KnobType::Token) {
      fail("space." + name + ": token axes take an array of names, not a range");
    }
    check_keys(v, {"min", "max", "steps", "scale"}, ("space." + name).c_str());
    const json::Value* pmin = v.find("min");
    const json::Value* pmax = v.find("max");
    const json::Value* psteps = v.find("steps");
    if (pmin == nullptr || pmax == nullptr || psteps == nullptr) {
      fail("space." + name + ": range needs min, max and steps");
    }
    const double lo = pmin->as<double>("search: space." + name + ".min");
    const double hi = pmax->as<double>("search: space." + name + ".max");
    const std::int64_t steps = psteps->as<std::int64_t>("search: space." + name + ".steps");
    bool log_scale = false;
    if (const json::Value* ps = v.find("scale")) {
      if (ps->str == "log") {
        log_scale = true;
      } else if (ps->str != "linear") {
        fail("space." + name + ": scale must be \"linear\" or \"log\"");
      }
    }
    if (!std::isfinite(lo) || !std::isfinite(hi) || lo >= hi) {
      fail("space." + name + ": range needs finite min < max");
    }
    if (steps < 2 || steps > 4096) fail("space." + name + ": steps must be in [2, 4096]");
    if (log_scale && lo <= 0) fail("space." + name + ": log scale needs min > 0");
    for (std::int64_t i = 0; i < steps; ++i) {
      const double t = static_cast<double>(i) / static_cast<double>(steps - 1);
      double x = log_scale ? std::exp(std::log(lo) + t * (std::log(hi) - std::log(lo)))
                           : lo + t * (hi - lo);
      if (axis.type == KnobType::Int) x = std::round(x);
      axis.values.push_back(x);
    }
  } else {
    fail("space." + name + ": axis must be an array or a range object");
  }

  // Every value must be one the row can hold: integral for Int knobs (bools
  // are Int with range [0, 1]) and inside the row's range.
  for (const double x : axis.values) {
    if (!std::isfinite(x)) fail("space." + name + ": values must be finite");
    if (axis.type == KnobType::Int && x != std::floor(x)) {
      fail("space." + name + ": integer knob requires integral values");
    }
    if (x < row->min || x > row->max) {
      fail("space." + name + ": value " + fmt_g(x) + " is out of range [" + fmt_g(row->min) +
           ", " + fmt_g(row->max) + "]");
    }
  }

  // Duplicate values would multiply the space without adding points.
  if (axis.type == KnobType::Token) {
    for (std::size_t i = 0; i < axis.tokens.size(); ++i) {
      for (std::size_t j = i + 1; j < axis.tokens.size(); ++j) {
        if (axis.tokens[i] == axis.tokens[j]) {
          fail("space." + name + ": duplicate value \"" + axis.tokens[i] + "\"");
        }
      }
    }
  } else {
    for (std::size_t i = 0; i + 1 < axis.values.size(); ++i) {
      for (std::size_t j = i + 1; j < axis.values.size(); ++j) {
        if (axis.values[i] == axis.values[j]) {
          fail("space." + name + ": duplicate value " + fmt_g(axis.values[i]) +
               (axis.type == KnobType::Int ? " (steps too fine for an integer knob?)" : ""));
        }
      }
    }
  }
  return axis;
}

core::Direction parse_direction(const std::string& s) {
  if (s == "min") return core::Direction::Minimize;
  if (s == "max") return core::Direction::Maximize;
  fail("objectives: direction must be \"min\" or \"max\", got \"" + s + "\"");
}

void require_known_metric(const std::string& metric, const char* where) {
  for (const auto& m : known_metrics()) {
    if (m == metric) return;
  }
  fail(std::string(where) + ": unknown metric \"" + metric + "\"");
}

}  // namespace

const std::vector<std::string>& known_metrics() {
  static const std::vector<std::string> m = {"power_mW",      "cost_usd",  "area_mm2",
                                             "fmax_MHz",      "hotspot_C", "eye_opening",
                                             "energy_pj_bit"};
  return m;
}

std::uint64_t SearchSpace::size() const {
  std::uint64_t n = 1;
  for (const auto& a : axes) {
    const std::uint64_t s = a.size();
    if (s == 0) return 0;
    if (n > std::numeric_limits<std::uint64_t>::max() / s) {
      return std::numeric_limits<std::uint64_t>::max();
    }
    n *= s;
  }
  return n;
}

std::vector<std::size_t> SearchSpace::digits(std::uint64_t i) const {
  std::vector<std::size_t> d(axes.size());
  for (std::size_t a = 0; a < axes.size(); ++a) {
    const std::uint64_t s = axes[a].size();
    d[a] = static_cast<std::size_t>(i % s);
    i /= s;
  }
  if (i != 0) throw std::out_of_range("SearchSpace: index past the end of the space");
  return d;
}

std::uint64_t SearchSpace::index_of(const std::vector<std::size_t>& d) const {
  std::uint64_t i = 0, stride = 1;
  for (std::size_t a = 0; a < axes.size(); ++a) {
    i += stride * d[a];
    stride *= axes[a].size();
  }
  return i;
}

serve::FlowRequest SearchSpace::materialize(std::uint64_t i) const {
  const auto d = digits(i);
  serve::FlowRequest r = base;
  for (std::size_t a = 0; a < axes.size(); ++a) {
    const Axis& x = axes[a];
    if (x.type == KnobType::Token) {
      core::knobs::set(r.tech, r.options, x.knob, x.tokens[d[a]]);
    } else {
      core::knobs::set(r.tech, r.options, x.knob, x.values[d[a]]);
    }
  }
  // `system.chiplets=N` without an arrangement axis means a grid, matching
  // the `giaflow flow --chiplets N` convention.
  r.options.system.resolve_arrangement();
  return r;
}

std::string SearchSpace::label(std::uint64_t i) const {
  const auto d = digits(i);
  std::string out;
  for (std::size_t a = 0; a < axes.size(); ++a) {
    if (!out.empty()) out.push_back(' ');
    out += axes[a].knob;
    out.push_back('=');
    out += axes[a].type == KnobType::Token ? axes[a].tokens[d[a]] : fmt_g(axes[a].values[d[a]]);
  }
  return out;
}

std::string SearchSpace::canonical_text() const {
  std::string out = serve::canonical_text(base);
  for (const auto& a : axes) {
    out += "axis.";
    out += a.knob;
    out.push_back('=');
    if (a.type == KnobType::Token) {
      for (std::size_t i = 0; i < a.tokens.size(); ++i) {
        if (i > 0) out.push_back(',');
        out += a.tokens[i];
      }
    } else {
      for (std::size_t i = 0; i < a.values.size(); ++i) {
        if (i > 0) out.push_back(',');
        json::append_double(a.values[i], out);
      }
    }
    out.push_back('\n');
  }
  return out;
}

std::uint64_t SearchSpace::key() const { return core::canon::fnv1a64(canonical_text()); }

std::string SearchSpec::canonical_text() const {
  std::string out = space.canonical_text();
  for (const auto& o : objectives) {
    out += "objective.";
    out += o.metric;
    out.push_back('=');
    out += o.direction == core::Direction::Minimize ? "min" : "max";
    out.push_back('\n');
  }
  for (const auto& c : constraints) {
    out += "constraint.";
    out += c.metric;
    out.push_back('=');
    if (c.has_min) {
      out += "min:";
      json::append_double(c.min, out);
    }
    if (c.has_min && c.has_max) out.push_back(',');
    if (c.has_max) {
      out += "max:";
      json::append_double(c.max, out);
    }
    out.push_back('\n');
  }
  out += "seed_points=" + std::to_string(seed_points) + "\n";
  out += "refine_rounds=" + std::to_string(refine_rounds) + "\n";
  out += "batch=" + std::to_string(batch) + "\n";
  out += "max_points=" + std::to_string(max_points) + "\n";
  out += std::string("point_events=") + (point_events ? "1" : "0") + "\n";
  return out;
}

std::uint64_t SearchSpec::key() const { return core::canon::fnv1a64(canonical_text()); }

SearchSpec spec_from_value(const json::Value& v) {
  const json::Value* inner = v.find("search");
  const json::Value& obj = inner != nullptr ? *inner : v;
  if (obj.kind != json::Value::Kind::Object) fail("expected an object");
  check_keys(obj,
             {"space", "base", "objectives", "constraints", "seed_points", "refine_rounds",
              "batch", "max_points", "point_events"},
             "search");

  SearchSpec spec;

  if (const json::Value* b = obj.find("base")) {
    spec.space.base = serve::request_from_value(*b);
  }

  const json::Value* sp = obj.find("space");
  if (sp == nullptr || sp->kind != json::Value::Kind::Object) {
    fail("space: required object mapping knob names to axis values");
  }
  if (sp->obj.empty()) fail("space: at least one axis is required");
  for (const auto& [name, av] : sp->obj) spec.space.axes.push_back(parse_axis(name, av));

  if (const json::Value* os = obj.find("objectives")) {
    if (os->kind != json::Value::Kind::Array || os->arr.empty()) {
      fail("objectives: must be a non-empty array");
    }
    for (const auto& e : os->arr) {
      if (e.kind != json::Value::Kind::Object) fail("objectives: entries must be objects");
      check_keys(e, {"metric", "direction"}, "objectives");
      const json::Value* m = e.find("metric");
      if (m == nullptr) fail("objectives: entries need a \"metric\"");
      require_known_metric(m->str, "objectives");
      core::Objective o;
      o.metric = m->str;
      if (const json::Value* d = e.find("direction")) o.direction = parse_direction(d->str);
      for (const auto& prev : spec.objectives) {
        if (prev.metric == o.metric) fail("objectives: duplicate metric \"" + o.metric + "\"");
      }
      spec.objectives.push_back(std::move(o));
    }
  } else {
    spec.objectives = {{"power_mW", core::Direction::Minimize},
                       {"cost_usd", core::Direction::Minimize},
                       {"area_mm2", core::Direction::Minimize}};
  }

  if (const json::Value* cs = obj.find("constraints")) {
    if (cs->kind != json::Value::Kind::Array) fail("constraints: must be an array");
    for (const auto& e : cs->arr) {
      if (e.kind != json::Value::Kind::Object) fail("constraints: entries must be objects");
      check_keys(e, {"metric", "min", "max"}, "constraints");
      const json::Value* m = e.find("metric");
      if (m == nullptr) fail("constraints: entries need a \"metric\"");
      require_known_metric(m->str, "constraints");
      Constraint c;
      c.metric = m->str;
      if (const json::Value* lo = e.find("min")) {
        c.has_min = true;
        c.min = lo->as<double>("search: constraints.min");
      }
      if (const json::Value* hi = e.find("max")) {
        c.has_max = true;
        c.max = hi->as<double>("search: constraints.max");
      }
      if (!c.has_min && !c.has_max) fail("constraints: need \"min\" and/or \"max\"");
      if (c.has_min && c.has_max && c.min > c.max) fail("constraints: min > max");
      spec.constraints.push_back(std::move(c));
    }
  }

  if (const json::Value* x = obj.find("seed_points")) {
    spec.seed_points = x->as<int>("search: seed_points");
    if (spec.seed_points < 1) fail("seed_points must be >= 1");
  }
  if (const json::Value* x = obj.find("refine_rounds")) {
    spec.refine_rounds = x->as<int>("search: refine_rounds");
    if (spec.refine_rounds < 0) fail("refine_rounds must be >= 0");
  }
  if (const json::Value* x = obj.find("batch")) {
    spec.batch = x->as<int>("search: batch");
    if (spec.batch < 1) fail("batch must be >= 1");
  }
  if (const json::Value* x = obj.find("max_points")) {
    spec.max_points = x->as<std::uint64_t>("search: max_points");
  }
  if (const json::Value* x = obj.find("point_events")) {
    spec.point_events = x->as<bool>("search: point_events");
  }

  // Objectives/constraints over the optional analyses imply those stages:
  // asking for hotspot_C without the thermal solve would make every point
  // silently unrankable on that axis.
  bool wants_thermal = false, wants_eyes = false;
  auto note = [&](const std::string& m) {
    wants_thermal |= (m == "hotspot_C");
    wants_eyes |= (m == "eye_opening");
  };
  for (const auto& o : spec.objectives) note(o.metric);
  for (const auto& c : spec.constraints) note(c.metric);
  if (wants_thermal) spec.space.base.options.with_thermal = true;
  if (wants_eyes) spec.space.base.options.with_eyes = true;

  return spec;
}

SearchSpec spec_from_json(const std::string& text) { return spec_from_value(json::parse(text)); }

std::string spec_to_json(const SearchSpec& spec) {
  std::string out = "{\"search\":{\"space\":{";
  bool first = true;
  for (const auto& a : spec.space.axes) {
    if (!first) out.push_back(',');
    first = false;
    json::escape(a.knob, out);
    out += ":[";
    if (a.type == KnobType::Token) {
      for (std::size_t i = 0; i < a.tokens.size(); ++i) {
        if (i > 0) out.push_back(',');
        json::escape(a.tokens[i], out);
      }
    } else {
      for (std::size_t i = 0; i < a.values.size(); ++i) {
        if (i > 0) out.push_back(',');
        json::append_double(a.values[i], out);
      }
    }
    out.push_back(']');
  }
  out += "},\"base\":";
  {
    // request_to_json emits exactly {"flow_request":{...}}; reuse its inner
    // object so the base spelling can never drift from the request schema.
    const std::string wrapped = serve::request_to_json(spec.space.base);
    out += wrapped.substr(16, wrapped.size() - 17);
  }
  out += ",\"objectives\":[";
  for (std::size_t i = 0; i < spec.objectives.size(); ++i) {
    if (i > 0) out.push_back(',');
    out.push_back('{');
    json::member("metric", spec.objectives[i].metric, out);
    json::member("direction",
                 spec.objectives[i].direction == core::Direction::Minimize ? "min" : "max", out);
    out.push_back('}');
  }
  out.push_back(']');
  if (!spec.constraints.empty()) {
    out += ",\"constraints\":[";
    for (std::size_t i = 0; i < spec.constraints.size(); ++i) {
      const Constraint& c = spec.constraints[i];
      if (i > 0) out.push_back(',');
      out.push_back('{');
      json::member("metric", c.metric, out);
      if (c.has_min) json::member("min", c.min, out);
      if (c.has_max) json::member("max", c.max, out);
      out.push_back('}');
    }
    out.push_back(']');
  }
  json::member("seed_points", spec.seed_points, out);
  json::member("refine_rounds", spec.refine_rounds, out);
  json::member("batch", spec.batch, out);
  json::member("max_points", spec.max_points, out);
  json::member("point_events", spec.point_events, out);
  out += "}}";
  return out;
}

}  // namespace gia::dse
