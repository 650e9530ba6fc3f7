#include <gtest/gtest.h>

#include "core/sweep.hpp"

namespace co = gia::core;

namespace {

co::DesignPoint pt(const std::string& label, double power, double cost) {
  return {label, {{"power", power}, {"cost", cost}}};
}

const std::vector<co::Objective> kMinBoth = {{"power", co::Direction::Minimize},
                                             {"cost", co::Direction::Minimize}};

}  // namespace

TEST(Sweep, DominanceBasics) {
  EXPECT_TRUE(co::dominates(pt("a", 1, 1), pt("b", 2, 2), kMinBoth));
  EXPECT_TRUE(co::dominates(pt("a", 1, 2), pt("b", 2, 2), kMinBoth));
  EXPECT_FALSE(co::dominates(pt("a", 2, 2), pt("b", 1, 1), kMinBoth));
  // Trade-off: neither dominates.
  EXPECT_FALSE(co::dominates(pt("a", 1, 3), pt("b", 3, 1), kMinBoth));
  EXPECT_FALSE(co::dominates(pt("b", 3, 1), pt("a", 1, 3), kMinBoth));
  // Equal points never dominate each other.
  EXPECT_FALSE(co::dominates(pt("a", 1, 1), pt("b", 1, 1), kMinBoth));
  EXPECT_THROW(co::dominates(pt("a", 1, 1), pt("b", 2, 2), {}), std::invalid_argument);
}

TEST(Sweep, MaximizeDirection) {
  const std::vector<co::Objective> obj = {{"power", co::Direction::Minimize},
                                          {"si", co::Direction::Maximize}};
  co::DesignPoint a{"a", {{"power", 1.0}, {"si", 0.9}}};
  co::DesignPoint b{"b", {{"power", 2.0}, {"si", 0.5}}};
  EXPECT_TRUE(co::dominates(a, b, obj));
  EXPECT_FALSE(co::dominates(b, a, obj));
}

TEST(Sweep, MissingMetricNeverDominates) {
  co::DesignPoint a{"a", {{"power", 1.0}}};
  co::DesignPoint b{"b", {{"power", 2.0}, {"cost", 1.0}}};
  EXPECT_FALSE(co::dominates(a, b, kMinBoth));
  EXPECT_FALSE(co::dominates(b, a, kMinBoth));
  EXPECT_DOUBLE_EQ(b.metric("cost"), 1.0);
  EXPECT_THROW(a.metric("cost"), std::out_of_range);
}
