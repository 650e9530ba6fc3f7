#pragma once

#include <initializer_list>
#include <map>
#include <string>
#include <utility>
#include <vector>

/// \file sweep.hpp
/// Design-point vocabulary shared by the DSE engine and the comparison
/// studies: labeled points carrying named metrics, objective directions,
/// and the Pareto dominance test. The streaming front built on these is
/// `dse::ParetoFront` (dse/pareto.hpp); together they answer the paper's
/// implicit question -- "which integration technology should I pick?" --
/// under multiple objectives (power, cost, thermal, SI) at once.

namespace gia::core {

/// Flat sorted map of metric name -> value. Design points carry a handful
/// of metrics, where a sorted vector beats a node-based std::map on both
/// allocation count and lookup locality in large sweeps.
class MetricMap {
 public:
  using value_type = std::pair<std::string, double>;
  using const_iterator = std::vector<value_type>::const_iterator;

  MetricMap() = default;
  MetricMap(std::initializer_list<value_type> init) {
    entries_.reserve(init.size());
    for (const auto& kv : init) set(kv.first, kv.second);
  }
  MetricMap(const std::map<std::string, double>& m) : entries_(m.begin(), m.end()) {}

  /// Insert or overwrite.
  void set(const std::string& name, double value);
  /// Pointer to the value, or nullptr when absent.
  const double* find(const std::string& name) const;
  bool contains(const std::string& name) const { return find(name) != nullptr; }

  std::size_t size() const { return entries_.size(); }
  bool empty() const { return entries_.empty(); }
  void reserve(std::size_t n) { entries_.reserve(n); }
  const_iterator begin() const { return entries_.begin(); }
  const_iterator end() const { return entries_.end(); }

 private:
  std::vector<value_type> entries_;  ///< sorted by name
};

/// One evaluated design point: a label plus named metric values.
struct DesignPoint {
  std::string label;
  MetricMap metrics;

  double metric(const std::string& name) const;
  bool has(const std::string& name) const { return metrics.contains(name); }
};

/// Objective direction for Pareto dominance.
enum class Direction { Minimize, Maximize };

struct Objective {
  std::string metric;
  Direction direction = Direction::Minimize;
};

/// True when `a` dominates `b`: no worse on every objective, strictly
/// better on at least one. Points missing an objective metric never
/// dominate and are never dominated on that axis.
bool dominates(const DesignPoint& a, const DesignPoint& b,
               const std::vector<Objective>& objectives);

}  // namespace gia::core
