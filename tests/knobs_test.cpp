// The knob table (core/knobs.hpp): a range sweep generated from the table
// itself -- every numeric row, set through the by-path setter to each
// out-of-range value its type can hold, must fail the check of every stage
// that owns it, naming the dotted path -- plus the setter's own errors.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/flow.hpp"
#include "core/knobs.hpp"
#include "core/stagegraph.hpp"

namespace knobs = gia::core::knobs;
namespace stage = gia::core::stage;
using gia::core::FlowOptions;
using gia::tech::TechnologyKind;
using Kind = knobs::RowInfo::Kind;

namespace {

/// Valid options in which every row is in use: a 4-die grid reads the
/// system block.
FlowOptions grid_options() {
  FlowOptions o;
  o.system.chiplets = 4;
  o.system.arrangement = gia::chiplet::Arrangement::Grid;
  return o;
}

/// The out-of-range values a row's type can hold.
std::vector<double> out_of_range(const knobs::RowInfo& row) {
  constexpr double inf = std::numeric_limits<double>::infinity();
  std::vector<double> v;
  switch (row.kind) {
    case Kind::Double:
      return {std::nextafter(row.min, -inf), std::nextafter(row.max, inf),
              std::numeric_limits<double>::quiet_NaN(), inf, -inf};
    case Kind::Int:
      if (row.min > std::numeric_limits<int>::lowest()) v.push_back(row.min - 1);
      if (row.max < std::numeric_limits<int>::max()) v.push_back(row.max + 1);
      return v;
    case Kind::Unsigned:
      if (row.min > 0) v.push_back(row.min - 1);
      if (row.max < std::numeric_limits<unsigned>::max()) v.push_back(row.max + 1);
      return v;
    case Kind::Bool:
    case Kind::Token:
      return v;
  }
  return v;
}

bool owns(const knobs::RowInfo& row, stage::StageId id) {
  return (row.owners & knobs::bit(id)) != 0;
}

}  // namespace

TEST(KnobTableTest, DefaultsAreInRangeForEveryStage) {
  for (const FlowOptions& o : {FlowOptions{}, grid_options()}) {
    for (const auto& si : stage::registry()) {
      EXPECT_NO_THROW(knobs::check(si.id, o)) << si.name;
    }
  }
}

TEST(KnobTableTest, EveryRowButTheTechnologyHasAnOwner) {
  for (const auto& row : knobs::rows()) {
    EXPECT_EQ(row.owners == 0, row.path == "tech") << row.path;
  }
}

TEST(KnobTableTest, OutOfRangeValuesFailTheOwningStagesByPath) {
  int cases = 0;
  for (const auto& row : knobs::rows()) {
    if (row.kind == Kind::Token || row.kind == Kind::Bool) continue;
    // Both ends are inclusive.
    for (const double edge : {row.min, row.max}) {
      FlowOptions o = grid_options();
      TechnologyKind tk = TechnologyKind::Glass25D;
      knobs::set(tk, o, row.path, edge);
      for (const auto& si : stage::registry()) {
        EXPECT_NO_THROW(knobs::check(si.id, o)) << row.path << "=" << edge << " at " << si.name;
      }
    }
    for (const double bad : out_of_range(row)) {
      FlowOptions o = grid_options();
      TechnologyKind tk = TechnologyKind::Glass25D;
      knobs::set(tk, o, row.path, bad);
      for (const auto& si : stage::registry()) {
        if (!owns(row, si.id)) {
          EXPECT_NO_THROW(knobs::check(si.id, o)) << row.path << " is not " << si.name << "'s";
          continue;
        }
        ++cases;
        try {
          knobs::check(si.id, o);
          ADD_FAILURE() << row.path << "=" << bad << " passed the " << si.name << " check";
        } catch (const std::invalid_argument& e) {
          EXPECT_NE(std::string(e.what()).find(row.path + "="), std::string::npos) << e.what();
        }
      }
    }
  }
  EXPECT_GT(cases, 100);
}

TEST(KnobTableTest, SetterRejectsUnknownPathsAndMismatchedValues) {
  FlowOptions o;
  TechnologyKind tk = TechnologyKind::Glass25D;
  EXPECT_THROW(knobs::set(tk, o, "router.bogus", 1.0), std::invalid_argument);
  EXPECT_THROW(knobs::set(tk, o, "router", 1.0), std::invalid_argument);
  EXPECT_THROW(knobs::set(tk, o, "router.grid_nx", std::string("16")), std::invalid_argument);
  EXPECT_THROW(knobs::set(tk, o, "tech", 1.0), std::invalid_argument);
  EXPECT_THROW(knobs::set(tk, o, "tech", std::string("diamond")), std::invalid_argument);
  EXPECT_THROW(knobs::set(tk, o, "router.grid_nx", 16.5), std::invalid_argument);
  EXPECT_THROW(knobs::set(tk, o, "openpiton.seed", -1.0), std::invalid_argument);
  EXPECT_THROW(knobs::set(tk, o, "router.any_angle", 2.0), std::invalid_argument);
  EXPECT_THROW(knobs::set(tk, o, "system.placed", std::string("1:")), std::invalid_argument);

  knobs::set(tk, o, "tech", std::string("glass3d"));
  knobs::set(tk, o, "router.grid_nx", 16.0);
  knobs::set(tk, o, "router.any_angle", 1.0);
  knobs::set(tk, o, "system.arrangement", std::string("hex"));
  EXPECT_EQ(tk, TechnologyKind::Glass3D);
  EXPECT_EQ(o.router.grid_nx, 16);
  EXPECT_TRUE(o.router.any_angle);
  EXPECT_EQ(o.system.arrangement, gia::chiplet::Arrangement::Hex);
}
