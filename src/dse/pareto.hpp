#pragma once

#include <cstdint>
#include <vector>

#include "core/sweep.hpp"

/// \file pareto.hpp
/// Incremental multi-objective Pareto-front maintenance. `ParetoFront`
/// ingests points one at a time -- the shape of a streaming search, where every
/// accepted point may evict earlier front members and observers want to
/// know *when* the front changed, not just what it converged to.
///
/// The front is versioned: `version()` increments exactly once per
/// mutating `add` (a point joining the front, including any evictions it
/// causes), so a stream of `front_updated` events with strictly increasing
/// versions is a complete history. `hypervolume()` is a normalized
/// progress metric: the fraction of the observed objective ranges
/// dominated by the current front, in [0, 1], monotone as the front
/// improves against fixed bounds.

namespace gia::dse {

class ParetoFront {
 public:
  /// Throws std::invalid_argument on an empty objective list (dominance
  /// would be vacuous and every point would "join" the front).
  explicit ParetoFront(std::vector<core::Objective> objectives);

  struct AddOutcome {
    bool added = false;      ///< point joined the front
    std::size_t removed = 0; ///< members it evicted
    bool duplicate = false;  ///< same label and objective values as a member
    bool rejected = false;   ///< missing one of the objective metrics
    std::uint64_t version = 0;  ///< front version after this add
  };

  /// Ingest one evaluated point. A point missing any objective metric is
  /// rejected (it cannot be ranked). A duplicate (same label, equal
  /// objective values as a current member) is a no-op. A same-label member
  /// with *different* values is a stale measurement of the same design: it
  /// is evicted before ranking (counted in `removed`), and the re-add wins
  /// whatever dominance then says -- the front never carries two members
  /// with one label. Two distinct labels with identical objective vectors
  /// tie: neither dominates, both stay on the front.
  AddOutcome add(const core::DesignPoint& p);

  /// Current non-dominated set, in insertion order of surviving members.
  const std::vector<core::DesignPoint>& members() const { return members_; }
  const std::vector<core::Objective>& objectives() const { return objectives_; }

  /// Mutation count: bumped once per add that changed the front (including
  /// a same-label eviction whose replacement then failed to join).
  std::uint64_t version() const { return version_; }
  /// Every point ever offered to add(), including rejects and duplicates.
  std::uint64_t points_seen() const { return seen_; }

  /// Normalized dominated-hypervolume progress metric. Each objective is
  /// scaled to [0, 1] over the range observed across *all* seen points
  /// (1 = best seen, degenerate range = 1); the reference point is the
  /// worst corner. Exact for 1 and 2 objectives; for >= 3 a deterministic
  /// quasi-Monte-Carlo estimate (fixed-seed splitmix64, 8192 samples), so
  /// equal fronts always report equal values. 0 when the front is empty.
  double hypervolume() const;

 private:
  std::vector<core::Objective> objectives_;
  std::vector<core::DesignPoint> members_;
  std::uint64_t version_ = 0;
  std::uint64_t seen_ = 0;
  /// Observed per-objective value ranges (hypervolume normalization).
  std::vector<double> seen_min_, seen_max_;
  bool any_ranked_ = false;
};

}  // namespace gia::dse
