#include "core/sweep.hpp"

#include <algorithm>
#include <stdexcept>

namespace gia::core {

namespace {

auto lower_bound_of(const std::vector<MetricMap::value_type>& entries, const std::string& name) {
  return std::lower_bound(entries.begin(), entries.end(), name,
                          [](const MetricMap::value_type& kv, const std::string& n) {
                            return kv.first < n;
                          });
}

}  // namespace

void MetricMap::set(const std::string& name, double value) {
  auto it = lower_bound_of(entries_, name);
  if (it != entries_.end() && it->first == name) {
    const auto idx = it - entries_.begin();
    entries_[static_cast<std::size_t>(idx)].second = value;
    return;
  }
  entries_.insert(it, {name, value});
}

const double* MetricMap::find(const std::string& name) const {
  const auto it = lower_bound_of(entries_, name);
  if (it == entries_.end() || it->first != name) return nullptr;
  return &it->second;
}

double DesignPoint::metric(const std::string& name) const {
  const double* v = metrics.find(name);
  if (v == nullptr) throw std::out_of_range("no metric " + name + " on " + label);
  return *v;
}

bool dominates(const DesignPoint& a, const DesignPoint& b,
               const std::vector<Objective>& objectives) {
  if (objectives.empty()) throw std::invalid_argument("need at least one objective");
  bool strictly_better = false;
  for (const auto& obj : objectives) {
    const double* va = a.metrics.find(obj.metric);
    const double* vb = b.metrics.find(obj.metric);
    if (va == nullptr || vb == nullptr) return false;
    const double better = obj.direction == Direction::Minimize ? *vb - *va : *va - *vb;
    if (better < 0) return false;  // a worse on this axis
    if (better > 0) strictly_better = true;
  }
  return strictly_better;
}

}  // namespace gia::core
