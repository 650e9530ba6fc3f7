#include "bench.hpp"

#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "core/json.hpp"
#include "core/serialize.hpp"
#include "serve/request.hpp"

namespace perfbench {

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

std::string result_digest(const gia::core::TechnologyResult& r) {
  return gia::serve::key_hex(gia::serve::fnv1a64(gia::core::technology_result_to_json(r)));
}

double max_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

Trace::Scope::Scope(Trace& t, std::string name) : t_(t), id_(static_cast<int>(t.spans_.size())) {
  Span s;
  s.name = std::move(name);
  s.parent = t.open_;
  t.spans_.push_back(std::move(s));
  t.open_ = id_;
  // Stamp last so the bookkeeping above stays outside the measured interval.
  t.spans_[static_cast<std::size_t>(id_)].start_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - t.epoch_).count();
}

Trace::Scope::~Scope() {
  Span& s = t_.spans_[static_cast<std::size_t>(id_)];
  s.end_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - t_.epoch_).count();
  t_.open_ = s.parent;
}

double Trace::total_s(const std::string& name) const {
  double sum = 0;
  for (const Span& s : spans_) sum += s.name == name ? s.seconds() : 0.0;
  return sum;
}

std::vector<double> Trace::durations_s(const std::string& name) const {
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (s.name == name) out.push_back(s.seconds());
  }
  return out;
}

std::string Trace::to_json() const {
  std::string out = "{\"spans\":[";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (i > 0) out += ",\n";
    out += "{\"id\":" + std::to_string(i) + ",\"name\":";
    gia::core::json::escape(s.name, out);
    out += ",\"start_ns\":" + std::to_string(s.start_ns) + ",\"end_ns\":" +
           std::to_string(s.end_ns) + ",\"parent\":" + std::to_string(s.parent) + "}";
  }
  out += "]}\n";
  return out;
}

std::string Report::to_json() const {
  std::string out = "{\"correct\":";
  gia::core::json::append_bool(correct, out);
  out += ",\"attempted\":";
  gia::core::json::append_u64(attempted, out);
  out += ",\"failed\":";
  gia::core::json::append_u64(failed, out);
  out += ",\"metrics\":{";
  bool first = true;
  for (const auto& [name, vu] : metrics) {
    if (!first) out += ",";
    first = false;
    gia::core::json::escape(name, out);
    out += ":{\"value\":";
    // Non-finite values are not JSON; report them as -1 and fail the run.
    gia::core::json::append_double(std::isfinite(vu.first) ? vu.first : -1.0, out);
    out += ",\"unit\":";
    gia::core::json::escape(vu.second, out);
    out += "}";
  }
  out += "}}";
  return out;
}

DigestTable load_digests(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read digests file " + path);
  std::stringstream ss;
  ss << in.rdbuf();
  const gia::core::json::Value doc = gia::core::json::parse(ss.str());
  DigestTable table;
  for (const auto& [workload, keys] : doc.at("digests").obj) {
    for (const auto& [key, digest] : keys.obj) table[workload][key] = digest.str;
  }
  return table;
}

}  // namespace perfbench
