#include "dse/pareto.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <stdexcept>

#include "core/canon.hpp"

namespace gia::dse {

namespace {

/// Uniform [0, 1) draw from splitmix64, the tiny deterministic generator
/// behind the quasi-MC hypervolume estimate. Fixed seed -> equal fronts
/// report equal values on every platform and run.
double unit_double(std::uint64_t& state) {
  return static_cast<double>(core::canon::splitmix64_next(state) >> 11) * 0x1.0p-53;
}

}  // namespace

ParetoFront::ParetoFront(std::vector<core::Objective> objectives)
    : objectives_(std::move(objectives)) {
  if (objectives_.empty()) {
    throw std::invalid_argument("ParetoFront: objective list must not be empty");
  }
  seen_min_.assign(objectives_.size(), 0.0);
  seen_max_.assign(objectives_.size(), 0.0);
}

ParetoFront::AddOutcome ParetoFront::add(const core::DesignPoint& p) {
  ++seen_;
  AddOutcome out;
  out.version = version_;

  // A point missing any objective metric cannot be ranked against the
  // front; reject it instead of letting core::dominates treat the missing
  // axis as "never worse" (which would let it survive forever).
  std::vector<double> vals(objectives_.size());
  for (std::size_t i = 0; i < objectives_.size(); ++i) {
    const double* v = p.metrics.find(objectives_[i].metric);
    if (v == nullptr || !std::isfinite(*v)) {
      out.rejected = true;
      return out;
    }
    vals[i] = *v;
  }

  for (std::size_t i = 0; i < objectives_.size(); ++i) {
    if (!any_ranked_) {
      seen_min_[i] = seen_max_[i] = vals[i];
    } else {
      seen_min_[i] = std::min(seen_min_[i], vals[i]);
      seen_max_[i] = std::max(seen_max_[i], vals[i]);
    }
  }
  any_ranked_ = true;

  // Exact duplicate (same label, equal objective values): a no-op. A
  // same-label member with *different* values is a stale measurement of the
  // same design point -- the re-add supersedes it, so evict it before
  // ranking (otherwise the predecessor could keep its successor off the
  // front, or the two could coexist as "distinct" members).
  bool evicted_same_label = false;
  {
    std::size_t kept = 0;
    for (std::size_t i = 0; i < members_.size(); ++i) {
      if (members_[i].label == p.label) {
        bool same = true;
        for (std::size_t j = 0; same && j < objectives_.size(); ++j) {
          same = (members_[i].metric(objectives_[j].metric) == vals[j]);
        }
        if (same) {
          out.duplicate = true;
          return out;
        }
        ++out.removed;
        evicted_same_label = true;
        continue;
      }
      if (kept != i) members_[kept] = std::move(members_[i]);
      ++kept;
    }
    members_.resize(kept);
  }

  for (const auto& m : members_) {
    if (core::dominates(m, p, objectives_)) {  // strictly worse
      if (evicted_same_label) out.version = ++version_;  // front still mutated
      return out;
    }
  }

  // p joins: evict everything it dominates, keep ties (equal vectors under
  // distinct labels -- neither dominates).
  std::size_t kept = 0;
  for (std::size_t i = 0; i < members_.size(); ++i) {
    if (core::dominates(p, members_[i], objectives_)) {
      ++out.removed;
    } else {
      if (kept != i) members_[kept] = std::move(members_[i]);
      ++kept;
    }
  }
  members_.resize(kept);
  members_.push_back(p);
  out.added = true;
  out.version = ++version_;
  return out;
}

double ParetoFront::hypervolume() const {
  if (members_.empty()) return 0.0;
  const std::size_t d = objectives_.size();

  // Normalize every member to [0,1]^d with 1 = best observed. Degenerate
  // ranges (all seen points equal on an axis) count as fully covered.
  std::vector<std::vector<double>> norm(members_.size(), std::vector<double>(d));
  for (std::size_t m = 0; m < members_.size(); ++m) {
    for (std::size_t i = 0; i < d; ++i) {
      const double v = members_[m].metric(objectives_[i].metric);
      const double lo = seen_min_[i], hi = seen_max_[i];
      if (hi <= lo) {
        norm[m][i] = 1.0;
      } else if (objectives_[i].direction == core::Direction::Minimize) {
        norm[m][i] = (hi - v) / (hi - lo);
      } else {
        norm[m][i] = (v - lo) / (hi - lo);
      }
    }
  }

  if (d == 1) {
    double best = 0;
    for (const auto& n : norm) best = std::max(best, n[0]);
    return best;
  }
  if (d == 2) {
    // Exact 2-D sweep: sort by first coordinate descending, accumulate
    // rectangles above the running best second coordinate.
    std::sort(norm.begin(), norm.end());
    double hv = 0, best_y = 0;
    for (auto it = norm.rbegin(); it != norm.rend(); ++it) {
      const double x = (*it)[0], y = (*it)[1];
      if (y > best_y) {
        hv += x * (y - best_y);
        best_y = y;
      }
    }
    return hv;
  }

  // d >= 3: deterministic quasi-Monte-Carlo coverage of the unit cube.
  constexpr int kSamples = 8192;
  std::uint64_t state = 0x6761696144534531ull;  // fixed seed
  int covered = 0;
  std::vector<double> s(d);
  for (int k = 0; k < kSamples; ++k) {
    for (std::size_t i = 0; i < d; ++i) s[i] = unit_double(state);
    for (const auto& n : norm) {
      bool inside = true;
      for (std::size_t i = 0; inside && i < d; ++i) inside = s[i] <= n[i];
      if (inside) {
        ++covered;
        break;
      }
    }
  }
  return static_cast<double>(covered) / kSamples;
}

}  // namespace gia::dse
