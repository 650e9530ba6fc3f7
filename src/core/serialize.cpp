#include "core/serialize.hpp"

#include <algorithm>
#include <initializer_list>
#include <map>
#include <optional>
#include <stdexcept>
#include <vector>

#include "tech/library.hpp"

namespace gia::core {

namespace {

// One walk per summary struct names every serialized field once, in key
// order. The writer and the strict reader below are its two visitors:
//   field(name, T&)                T = double, int, long or bool
//   token(name, spelling, parse)   parse(text) is false for an unknown word
//   object(name, S&) / optional(name, std::optional<S>&)   null when empty
//   doubles(name, std::vector<double>&) / fixed(name, {double*, ...})
//   map(name, std::map<std::string, S>&, &S::key)   keyed by S::key
//   require(ok, what)              a rule the reader enforces

template <typename V>
void walk(V& v, netlist::SerDesReport& s) {
  v.field("buses_serialized", s.buses_serialized);
  v.field("wires_before", s.wires_before);
  v.field("wires_after", s.wires_after);
  v.field("serdes_instances_added", s.serdes_instances_added);
  v.field("added_cells", s.added_cells);
  v.field("latency_cycles", s.latency_cycles);
}

template <typename V>
void walk(V& v, partition::PartitionResult& p) {
  v.field("cut_wires", p.cut_wires);
  v.field("memory_fraction", p.memory_fraction);
}

template <typename V>
void walk(V& v, chiplet::BumpPlan& p) {
  v.field("signal_bumps", p.signal_bumps);
  v.field("pg_bumps", p.pg_bumps);
  v.field("width_um", p.width_um);
  v.field("bump_limited", p.bump_limited);
}

template <typename V>
void walk(V& v, chiplet::ChipletPair& p) {
  v.object("logic", p.logic);
  v.object("memory", p.memory);
}

template <typename V>
void walk(V& v, chiplet::PowerResult& p) {
  v.field("internal_w", p.internal_w);
  v.field("switching_w", p.switching_w);
  v.field("leakage_w", p.leakage_w);
  v.field("total_w", p.total_w);
  v.field("pin_cap_f", p.pin_cap_f);
  v.field("wire_cap_f", p.wire_cap_f);
}

template <typename V>
void walk(V& v, chiplet::CongestionResult& c) {
  v.field("demand_um", c.demand_um);
  v.field("capacity_um", c.capacity_um);
  v.field("utilization", c.utilization);
  v.field("detour_factor", c.detour_factor);
}

template <typename V>
void walk(V& v, chiplet::ChipletPnrResult& c) {
  using netlist::ChipletSide;
  v.token("side", c.side == ChipletSide::Logic ? "logic" : "memory",
          [&c](const std::string& s) {
            if (s != "logic" && s != "memory") return false;
            c.side = s == "logic" ? ChipletSide::Logic : ChipletSide::Memory;
            return true;
          });
  v.field("fmax_hz", c.fmax_hz);
  v.field("footprint_um", c.footprint_um);
  v.field("cell_count", c.cell_count);
  v.field("utilization", c.utilization);
  v.field("wirelength_m", c.wirelength_m);
  v.object("power", c.power);
  v.object("congestion", c.congestion);
  v.field("aib_lanes", c.aib_lanes);
  v.field("aib_area_um2", c.aib_area_um2);
  v.field("aib_area_frac", c.aib_area_frac);
  v.field("aib_power_w", c.aib_power_w);
  v.field("aib_power_frac", c.aib_power_frac);
  v.field("timing_met", c.timing_met);
}

template <typename V>
void walk(V& v, interposer::RouteStats& s) {
  v.field("total_wl_um", s.total_wl_um);
  v.field("min_wl_um", s.min_wl_um);
  v.field("avg_wl_um", s.avg_wl_um);
  v.field("max_wl_um", s.max_wl_um);
  v.field("total_vias", s.total_vias);
  v.field("vertical_via_pairs", s.vertical_via_pairs);
  v.field("signal_layers_available", s.signal_layers_available);
  v.field("signal_layers_used", s.signal_layers_used);
  v.field("overflowed_cells", s.overflowed_cells);
  v.field("routed_nets", s.routed_nets);
}

template <typename V>
void walk(V& v, interposer::InterposerDesign& d) {
  geometry::Rect& o = d.floorplan.outline;
  v.fixed("outline", {&o.lx, &o.ly, &o.ux, &o.uy});
  v.object("route_stats", d.routes.stats);
}

template <typename V>
void walk(V& v, signal::LinkResult& r) {
  v.field("driver_delay_s", r.driver_delay_s);
  v.field("interconnect_delay_s", r.interconnect_delay_s);
  v.field("total_delay_s", r.total_delay_s);
  v.field("driver_power_w", r.driver_power_w);
  v.field("interconnect_power_w", r.interconnect_power_w);
  v.field("total_power_w", r.total_power_w);
}

template <typename V>
void walk(V& v, signal::EyeResult& e) {
  v.field("width_s", e.width_s);
  v.field("height_v", e.height_v);
  v.field("ui_s", e.ui_s);
  v.field("mean_high_v", e.mean_high_v);
  v.field("mean_low_v", e.mean_low_v);
  v.field("sigma_high_v", e.sigma_high_v);
  v.field("sigma_low_v", e.sigma_low_v);
}

template <typename V>
void walk(V& v, LinkStudy& l) {
  v.field("length_um", l.spec.length_um);
  v.field("bit_rate_hz", l.spec.bit_rate_hz);
  v.object("result", l.result);
  v.optional("eye", l.eye);
}

template <typename V>
void walk(V& v, pdn::PdnModel& m) {
  v.field("l_feed", m.l_feed);
  v.field("r_feed", m.r_feed);
  v.field("c_plane", m.c_plane);
  v.field("r_plane", m.r_plane);
  v.field("l_plane", m.l_plane);
  v.field("l_entry", m.l_entry);
  v.field("r_entry", m.r_entry);
  v.field("r_substrate_loss", m.r_substrate_loss);
}

template <typename V>
void walk(V& v, pdn::ImpedanceProfile& p) {
  v.doubles("freq_hz", p.freq_hz);
  v.doubles("z_ohm", p.z_ohm);
  // ImpedanceProfile::at() indexes z_ohm by the freq_hz position.
  v.require(p.freq_hz.size() == p.z_ohm.size(), "freq_hz and z_ohm differ in length");
}

template <typename V>
void walk(V& v, pdn::IrDropResult& r) {
  v.field("max_drop_v", r.max_drop_v);
  v.field("avg_drop_v", r.avg_drop_v);
}

template <typename V>
void walk(V& v, pdn::SettlingResult& r) {
  v.field("settling_time_s", r.settling_time_s);
  v.field("worst_droop_v", r.worst_droop_v);
}

template <typename V>
void walk(V& v, thermal::DieThermal& d) {
  v.field("hotspot_c", d.hotspot_c);
  v.field("average_c", d.average_c);
}

template <typename V>
void walk(V& v, thermal::ThermalReport& t) {
  v.map("dies", t.dies, &thermal::DieThermal::die);
  v.field("interposer_hotspot_c", t.interposer_hotspot_c);
  v.field("ambient_c", t.ambient_c);
  v.field("hotspot_spread", t.hotspot_spread);
}

/// The technology is stored as its kind token and rebuilt from the library.
template <typename V>
void walk(V& v, TechnologyResult& r) {
  v.token("tech", tech::short_name(r.technology.kind), [&r](const std::string& s) {
    tech::TechnologyKind kind;
    if (!tech::parse_kind(s, &kind)) return false;
    r.technology = tech::make_technology(kind);
    return true;
  });
  v.object("serdes", r.serdes);
  v.object("partition", r.partition);
  v.object("plans", r.plans);
  v.object("logic", r.logic);
  v.object("memory", r.memory);
  v.object("interposer", r.interposer);
  v.object("l2m", r.l2m);
  v.object("l2l", r.l2l);
  v.object("pdn_model", r.pdn_model);
  v.object("pdn_impedance", r.pdn_impedance);
  v.object("ir_drop", r.ir_drop);
  v.object("settling", r.settling);
  v.optional("thermal", r.thermal);
  v.field("total_power_w", r.total_power_w);
  v.field("system_fmax_hz", r.system_fmax_hz);
  v.field("link_timing_met", r.link_timing_met);
}

template <typename V>
void walk(V& v, HeadlineMetrics& h) {
  v.field("area_reduction_x", h.area_reduction_x);
  v.field("wirelength_reduction_x", h.wirelength_reduction_x);
  v.field("power_reduction_pct", h.power_reduction_pct);
  v.field("si_improvement_pct", h.si_improvement_pct);
  v.field("pi_improvement_x", h.pi_improvement_x);
  v.field("thermal_increase_pct", h.thermal_increase_pct);
}

// --- Writer -----------------------------------------------------------------

/// Canonical single-line JSON in walk order. It never assigns, so the
/// public writers walk their const argument through a const_cast.
struct Writer {
  std::string out;

  template <typename T>
  void field(const char* k, const T& x) {
    json::member(k, x, out);
  }
  template <typename Parse>
  void token(const char* k, const char* spelling, const Parse&) {
    json::member(k, spelling, out);
  }
  template <typename S>
  void object(const char* k, S& s) {
    json::key(k, out);
    out.push_back('{');
    walk(*this, s);
    out.push_back('}');
  }
  template <typename S>
  void optional(const char* k, std::optional<S>& o) {
    if (o.has_value()) return object(k, *o);
    json::key(k, out);
    out += "null";
  }
  void doubles(const char* k, const std::vector<double>& xs) {
    json::key(k, out);
    out.push_back('[');
    for (const double x : xs) {
      if (out.back() != '[') out.push_back(',');
      json::append_double(x, out);
    }
    out.push_back(']');
  }
  void fixed(const char* k, std::initializer_list<double*> xs) {
    std::vector<double> values;
    for (const double* x : xs) values.push_back(*x);
    doubles(k, values);
  }
  template <typename S>
  void map(const char* k, std::map<std::string, S>& m, std::string S::*) {
    json::key(k, out);
    out.push_back('{');
    for (auto& [name, s] : m) object(name.c_str(), s);
    out.push_back('}');
  }
  void require(bool, const char*) {}
};

template <typename S>
std::string to_json(const char* top, const S& s) {
  Writer w;
  w.out = "{";
  w.object(top, const_cast<S&>(s));
  w.out.push_back('}');
  return std::move(w.out);
}

// --- Strict reader ----------------------------------------------------------

/// Reads one JSON object through a walk: every row's key must be present
/// with its JSON kind and a value its C++ type holds (json::Value::as),
/// and the object may carry no other key. Errors name the dotted path.
class Reader {
 public:
  Reader(const json::Value& obj, const Reader* parent, const char* name)
      : obj_(obj), parent_(parent), name_(name) {}

  template <typename T>
  void field(const char* k, T& x) {
    x = read<T>(member(k), k);
  }
  template <typename Parse>
  void token(const char* k, const char*, const Parse& parse) {
    const std::string s = read<std::string>(member(k), k);
    if (!parse(s)) fail(k, "has an unknown value \"" + s + "\"");
  }
  template <typename S>
  void object(const char* k, S& s) {
    nested(member(k), k, s);
  }
  template <typename S>
  void optional(const char* k, std::optional<S>& o) {
    const json::Value& m = member(k);
    if (m.kind == json::Value::Kind::Null) return o.reset();
    if (m.kind != json::Value::Kind::Object) fail(k, "must be an object or null");
    nested(m, k, o.emplace());
  }
  void doubles(const char* k, std::vector<double>& xs) {
    const json::Value& m = member(k);
    if (m.kind != json::Value::Kind::Array) fail(k, "must be an array of numbers");
    xs.clear();
    for (const json::Value& e : m.arr) xs.push_back(read<double>(e, k));
  }
  void fixed(const char* k, std::initializer_list<double*> xs) {
    const json::Value& m = member(k);
    if (m.kind != json::Value::Kind::Array || m.arr.size() != xs.size()) {
      fail(k, "must be an array of " + std::to_string(xs.size()) + " numbers");
    }
    const json::Value* e = m.arr.data();
    for (double* x : xs) *x = read<double>(*e++, k);
  }
  template <typename S>
  void map(const char* k, std::map<std::string, S>& out, std::string S::*key) {
    const json::Value& m = member(k);
    if (m.kind != json::Value::Kind::Object) fail(k, "must be an object");
    const Reader entries(m, this, k);
    out.clear();
    for (const auto& [name, e] : m.obj) {
      auto [it, fresh] = out.try_emplace(name);
      if (!fresh) entries.fail(name.c_str(), "is repeated");
      it->second.*key = name;
      entries.nested(e, name.c_str(), it->second);
    }
  }
  void require(bool ok, const char* what) const {
    if (!ok) fail(nullptr, what);
  }

  /// After the walk: every member must have been claimed by exactly one row.
  void finish() const {
    if (seen_.size() == obj_.obj.size()) return;
    for (const auto& [k, v] : obj_.obj) {
      if (std::find(seen_.begin(), seen_.end(), k) == seen_.end()) {
        fail(k.c_str(), "is not a known key");
      }
    }
    fail(nullptr, "repeats a key");
  }

 private:
  const json::Value& member(const char* k) {
    seen_.push_back(k);
    const json::Value* m = obj_.find(k);
    if (m == nullptr) fail(k, "is missing");
    return *m;
  }
  template <typename S>
  void nested(const json::Value& m, const char* k, S& s) const {
    if (m.kind != json::Value::Kind::Object) fail(k, "must be an object");
    Reader child(m, this, k);
    walk(child, s);
    child.finish();
  }
  template <typename T>
  T read(const json::Value& m, const char* k) const {
    try {
      return m.as<T>();
    } catch (const std::runtime_error& e) {
      fail(k, e.what());
    }
  }
  std::string path(const char* k) const {
    std::string p = parent_ != nullptr ? parent_->path(name_) : std::string();
    if (k == nullptr) return p;
    return p.empty() ? k : p + "." + k;
  }
  [[noreturn]] void fail(const char* k, const std::string& what) const {
    throw std::runtime_error("result JSON: \"" + path(k) + "\" " + what);
  }

  const json::Value& obj_;
  const Reader* parent_;
  const char* name_;
  std::vector<std::string_view> seen_;
};

template <typename S>
S from_json(const json::Value& top, const char* name) {
  S s;
  Reader r(top, nullptr, nullptr);
  r.object(name, s);
  r.finish();
  return s;
}

}  // namespace

std::string technology_result_to_json(const TechnologyResult& r) {
  return to_json("technology_result", r);
}

TechnologyResult technology_result_from_value(const json::Value& top) {
  return from_json<TechnologyResult>(top, "technology_result");
}

TechnologyResult technology_result_from_json(const std::string& text) {
  return technology_result_from_value(json::parse(text));
}

std::string headline_metrics_to_json(const HeadlineMetrics& h) {
  return to_json("headline_metrics", h);
}

HeadlineMetrics headline_metrics_from_json(const std::string& text) {
  return from_json<HeadlineMetrics>(json::parse(text), "headline_metrics");
}

}  // namespace gia::core
