// Tests for the design-space exploration subsystem (src/dse): incremental
// Pareto-front maintenance, the search-space grammar (enumeration, JSON
// round-trip, strict rejection), the search engine running against a real
// scheduler (cancel mid-search drains cleanly, refine extends), and a
// loopback smoke test of the giad streaming search verbs.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/json.hpp"
#include "core/knobs.hpp"
#include "core/sweep.hpp"
#include "dse/pareto.hpp"
#include "dse/search.hpp"
#include "dse/space.hpp"
#include "serve/cache.hpp"
#include "serve/daemon.hpp"
#include "serve/request.hpp"
#include "serve/scheduler.hpp"

namespace gia {
namespace {

using core::Direction;
using Ms = std::chrono::milliseconds;

core::DesignPoint point(const std::string& label, double a, double b) {
  return {label, {{"power_mW", a}, {"cost_usd", b}}};
}

const std::vector<core::Objective> kMinMin = {{"power_mW", Direction::Minimize},
                                              {"cost_usd", Direction::Minimize}};

// ---------------------------------------------------------------------------
// ParetoFront

TEST(DseParetoTest, EmptyObjectivesThrow) {
  EXPECT_THROW(dse::ParetoFront({}), std::invalid_argument);
}

TEST(DseParetoTest, NonDominatedPointsAccumulate) {
  dse::ParetoFront front(kMinMin);
  EXPECT_TRUE(front.add(point("a", 1, 4)).added);
  EXPECT_TRUE(front.add(point("b", 4, 1)).added);
  EXPECT_TRUE(front.add(point("c", 2, 2)).added);
  EXPECT_EQ(front.members().size(), 3u);
  EXPECT_EQ(front.version(), 3u);
}

TEST(DseParetoTest, DominatingPointEvictsAndDominatedIsRejected) {
  dse::ParetoFront front(kMinMin);
  front.add(point("a", 3, 3));
  front.add(point("b", 4, 2));
  const auto out = front.add(point("c", 2, 2));  // dominates a and b
  EXPECT_TRUE(out.added);
  EXPECT_EQ(out.removed, 2u);
  ASSERT_EQ(front.members().size(), 1u);
  EXPECT_EQ(front.members()[0].label, "c");

  const auto worse = front.add(point("d", 5, 5));
  EXPECT_FALSE(worse.added);
  EXPECT_EQ(front.members().size(), 1u);
  EXPECT_EQ(front.points_seen(), 4u);
}

TEST(DseParetoTest, VersionBumpsOnlyOnMutation) {
  dse::ParetoFront front(kMinMin);
  EXPECT_EQ(front.add(point("a", 1, 1)).version, 1u);
  EXPECT_EQ(front.add(point("z", 9, 9)).version, 1u);  // dominated: no bump
  EXPECT_EQ(front.add(point("a", 1, 1)).version, 1u);  // duplicate: no bump
  EXPECT_EQ(front.version(), 1u);
}

TEST(DseParetoTest, DuplicateIsNoOpButDistinctLabelTieStays) {
  dse::ParetoFront front(kMinMin);
  front.add(point("a", 1, 2));
  const auto dup = front.add(point("a", 1, 2));
  EXPECT_TRUE(dup.duplicate);
  EXPECT_FALSE(dup.added);
  // Same objective vector under a different label: neither dominates.
  const auto tie = front.add(point("b", 1, 2));
  EXPECT_TRUE(tie.added);
  EXPECT_EQ(front.members().size(), 2u);
}

// Regression: a re-evaluated design (same label, different objective
// values) used to coexist with its stale measurement on the front. The
// same-label predecessor must be evicted before the new values are ranked.
TEST(DseParetoTest, SameLabelReaddSupersedesStaleMember) {
  dse::ParetoFront front(kMinMin);
  front.add(point("a", 3, 3));
  front.add(point("b", 1, 5));
  const auto out = front.add(point("a", 2, 4));  // fresher measurement of a
  EXPECT_TRUE(out.added);
  EXPECT_EQ(out.removed, 1u);  // the stale "a", not "b"
  ASSERT_EQ(front.members().size(), 2u);
  int a_count = 0;
  for (const auto& m : front.members()) a_count += m.label == "a";
  EXPECT_EQ(a_count, 1) << "front must never carry two members with one label";
  for (const auto& m : front.members()) {
    if (m.label == "a") EXPECT_DOUBLE_EQ(m.metric("power_mW"), 2.0);
  }
}

// The re-add may itself be dominated after its stale twin is gone; the
// front still mutated (a member vanished), so the version must bump and
// observers re-snapshot.
TEST(DseParetoTest, SameLabelReaddThatEndsDominatedStillBumpsVersion) {
  dse::ParetoFront front(kMinMin);
  front.add(point("a", 1, 1));                     // version 1
  front.add(point("b", 5, 5));                     // dominated, no bump
  const auto out = front.add(point("b", 9, 9));    // fresh "b", still dominated
  EXPECT_FALSE(out.added);
  EXPECT_EQ(out.removed, 0u);  // its stale twin was not on the front
  EXPECT_EQ(front.version(), 1u);

  front.add(point("c", 0, 9));                     // joins: version 2
  const auto gone = front.add(point("c", 2, 2));   // evicts stale c, then loses to a
  EXPECT_FALSE(gone.added);
  EXPECT_EQ(gone.removed, 1u);
  EXPECT_EQ(gone.version, 3u) << "front shrank; observers must see a new version";
  ASSERT_EQ(front.members().size(), 1u);
  EXPECT_EQ(front.members()[0].label, "a");
}

TEST(DseParetoTest, MissingOrNonFiniteMetricIsRejected) {
  dse::ParetoFront front(kMinMin);
  const auto missing = front.add({"m", {{"power_mW", 1.0}}});
  EXPECT_TRUE(missing.rejected);
  const auto nan = front.add(point("n", std::nan(""), 1));
  EXPECT_TRUE(nan.rejected);
  EXPECT_TRUE(front.members().empty());
  EXPECT_EQ(front.points_seen(), 2u);
}

TEST(DseParetoTest, SingleObjectiveKeepsOnlyTheBest) {
  dse::ParetoFront front({{"power_mW", Direction::Minimize}});
  front.add({"a", {{"power_mW", 5.0}}});
  front.add({"b", {{"power_mW", 3.0}}});
  front.add({"c", {{"power_mW", 4.0}}});
  ASSERT_EQ(front.members().size(), 1u);
  EXPECT_EQ(front.members()[0].label, "b");
  EXPECT_DOUBLE_EQ(front.hypervolume(), 1.0);  // best seen = fully covered
}

TEST(DseParetoTest, MaximizeDirectionInverts) {
  dse::ParetoFront front({{"eye_opening", Direction::Maximize}});
  front.add({"small", {{"eye_opening", 0.3}}});
  front.add({"big", {{"eye_opening", 0.8}}});
  ASSERT_EQ(front.members().size(), 1u);
  EXPECT_EQ(front.members()[0].label, "big");
}

TEST(DseParetoTest, HypervolumeGrowsAsTheFrontImproves) {
  dse::ParetoFront front(kMinMin);
  front.add(point("a", 1, 9));
  front.add(point("b", 9, 1));
  const double hv2 = front.hypervolume();
  front.add(point("c", 2, 2));  // fills in the middle
  const double hv3 = front.hypervolume();
  EXPECT_GT(hv3, hv2);
  EXPECT_LE(hv3, 1.0);
  EXPECT_GE(hv2, 0.0);
}

TEST(DseParetoTest, HypervolumeIsDeterministicInThreeDimensions) {
  const std::vector<core::Objective> objs = {{"power_mW", Direction::Minimize},
                                             {"cost_usd", Direction::Minimize},
                                             {"area_mm2", Direction::Minimize}};
  auto build = [&] {
    dse::ParetoFront f(objs);
    f.add({"a", {{"power_mW", 1.0}, {"cost_usd", 5.0}, {"area_mm2", 3.0}}});
    f.add({"b", {{"power_mW", 5.0}, {"cost_usd", 1.0}, {"area_mm2", 4.0}}});
    f.add({"c", {{"power_mW", 3.0}, {"cost_usd", 3.0}, {"area_mm2", 1.0}}});
    return f.hypervolume();
  };
  const double h1 = build();
  const double h2 = build();
  EXPECT_DOUBLE_EQ(h1, h2);
  EXPECT_GT(h1, 0.0);
  EXPECT_LE(h1, 1.0);
}

// ---------------------------------------------------------------------------
// SearchSpace / SearchSpec grammar

dse::SearchSpec parse(const std::string& inner) { return dse::spec_from_json(inner); }

TEST(DseSpaceTest, EnumerationIsMixedRadixFirstAxisFastest) {
  const auto spec = parse(
      R"({"space":{"tech":["glass25d","si25d"],"system.chiplets":[2,4,8]}})");
  EXPECT_EQ(spec.space.size(), 6u);
  // First axis (tech) cycles fastest.
  EXPECT_EQ(spec.space.label(0), "tech=glass25d system.chiplets=2");
  EXPECT_EQ(spec.space.label(1), "tech=si25d system.chiplets=2");
  EXPECT_EQ(spec.space.label(2), "tech=glass25d system.chiplets=4");
  EXPECT_EQ(spec.space.label(5), "tech=si25d system.chiplets=8");
  for (std::uint64_t i = 0; i < spec.space.size(); ++i) {
    EXPECT_EQ(spec.space.index_of(spec.space.digits(i)), i);
  }
  EXPECT_THROW(spec.space.materialize(6), std::out_of_range);
}

TEST(DseSpaceTest, MaterializeAppliesAxesAndPromotesGrid) {
  const auto spec = parse(R"({"space":{"tech":["glass3d"],"system.chiplets":[16]}})");
  const serve::FlowRequest r = spec.space.materialize(0);
  EXPECT_EQ(r.tech, tech::TechnologyKind::Glass3D);
  EXPECT_EQ(r.options.system.chiplets, 16);
  // chiplets != 2 without an arrangement axis implies a grid, matching the
  // `giaflow flow --chiplets N` convention.
  EXPECT_EQ(r.options.system.arrangement, chiplet::Arrangement::Grid);
}

TEST(DseSpaceTest, RangeAxesExpandLinearAndLog) {
  const auto lin = parse(
      R"({"space":{"pnr.target_freq_hz":{"min":1e9,"max":2e9,"steps":3}}})");
  ASSERT_EQ(lin.space.axes.size(), 1u);
  ASSERT_EQ(lin.space.axes[0].values.size(), 3u);
  EXPECT_DOUBLE_EQ(lin.space.axes[0].values[1], 1.5e9);

  const auto log = parse(
      R"({"space":{"serdes.ratio":{"min":2,"max":8,"steps":3,"scale":"log"}}})");
  ASSERT_EQ(log.space.axes.size(), 1u);
  ASSERT_EQ(log.space.axes[0].values.size(), 3u);
  EXPECT_DOUBLE_EQ(log.space.axes[0].values[1], 4.0);  // geometric midpoint
}

TEST(DseSpaceTest, RejectionsAreLoud) {
  // Unknown knob name.
  EXPECT_THROW(parse(R"({"space":{"bogus.knob":[1,2]}})"), std::runtime_error);
  // Unknown top-level key.
  EXPECT_THROW(parse(R"({"space":{"tech":["glass25d"]},"bogus":1})"), std::runtime_error);
  // Empty axis.
  EXPECT_THROW(parse(R"({"space":{"tech":[]}})"), std::runtime_error);
  // Unknown token value.
  EXPECT_THROW(parse(R"({"space":{"tech":["unobtainium"]}})"), std::runtime_error);
  // Non-integral value on an Int knob.
  EXPECT_THROW(parse(R"({"space":{"system.chiplets":[2.5]}})"), std::runtime_error);
  // Degenerate range.
  EXPECT_THROW(parse(R"({"space":{"serdes.ratio":{"min":4,"max":4,"steps":2}}})"),
               std::runtime_error);
  // Log range crossing zero.
  EXPECT_THROW(
      parse(R"({"space":{"serdes.ratio":{"min":0,"max":8,"steps":3,"scale":"log"}}})"),
      std::runtime_error);
  // Unknown objective metric.
  EXPECT_THROW(parse(R"({"space":{"tech":["glass25d"]},)"
                     R"("objectives":[{"metric":"nope","direction":"min"}]})"),
               std::runtime_error);
  // Missing space entirely.
  EXPECT_THROW(parse(R"({"objectives":[]})"), std::runtime_error);
  // Scalars are read through the checked JSON accessors: a wrong kind, a
  // fraction or a value the field's type cannot hold is rejected by name
  // (these once read as false, 1, 1, 0, 2, 2^64 - 1, 0 and 0).
  const struct {
    const char* extra;
    const char* field;
  } mistyped[] = {
      {R"("point_events":1)", "point_events"},
      {R"("seed_points":4294967297)", "seed_points"},
      {R"("refine_rounds":"2")", "refine_rounds"},
      {R"("batch":2.9)", "batch"},
      {R"("max_points":-1)", "max_points"},
      {R"("constraints":[{"metric":"cost_usd","max":"5"}])", "constraints.max"},
      {R"("constraints":[{"metric":"cost_usd","min":true}])", "constraints.min"},
  };
  for (const auto& m : mistyped) {
    try {
      (void)parse(std::string(R"({"space":{"tech":["glass25d"]},)") + m.extra + "}");
      ADD_FAILURE() << m.extra << " was accepted";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find(m.field), std::string::npos) << e.what();
    }
  }
  EXPECT_EQ(parse(R"({"space":{"tech":["glass25d"]},"seed_points":1e9})").seed_points,
            1000000000);
}

TEST(DseSpaceTest, JsonRoundTripPreservesKeyAndShape) {
  const std::string inner =
      R"({"space":{"tech":["glass25d","glass3d"],"system.chiplets":[4,16],)"
      R"("pnr.target_freq_hz":{"min":1e9,"max":2e9,"steps":2}},)"
      R"("base":{"system":{"memory_every":2}},)"
      R"("objectives":[{"metric":"power_mW","direction":"min"},)"
      R"({"metric":"fmax_MHz","direction":"max"}],)"
      R"("constraints":[{"metric":"cost_usd","max":50}],)"
      R"("seed_points":6,"refine_rounds":2,"batch":3,"max_points":7})";
  const auto spec = parse(inner);
  const std::string rendered = dse::spec_to_json(spec);
  const auto reparsed = dse::spec_from_json(rendered);
  EXPECT_EQ(spec.key(), reparsed.key());
  EXPECT_EQ(rendered, dse::spec_to_json(reparsed));
  EXPECT_EQ(reparsed.space.size(), 8u);
  EXPECT_EQ(reparsed.seed_points, 6);
  EXPECT_EQ(reparsed.refine_rounds, 2);
  EXPECT_EQ(reparsed.batch, 3);
  EXPECT_EQ(reparsed.max_points, 7u);
  ASSERT_EQ(reparsed.constraints.size(), 1u);
  EXPECT_TRUE(reparsed.constraints[0].has_max);
  EXPECT_EQ(reparsed.space.base.options.system.memory_every, 2);
}

TEST(DseSpaceTest, KeySeparatesSpecs) {
  const auto a = parse(R"({"space":{"tech":["glass25d","glass3d"]}})");
  auto b = parse(R"({"space":{"tech":["glass25d","glass3d"]},"seed_points":4})");
  EXPECT_NE(a.key(), b.key());
  const auto a2 = parse(R"({"space":{"tech":["glass25d","glass3d"]}})");
  EXPECT_EQ(a.key(), a2.key());
}

// Golden preimage tail and key of a spec whose axis values and constraint
// bounds need every double spelling: 17 significant digits, exponents,
// integral values and a subnormal-free tiny bound. The base request renders
// through the request canonicalization pinned in serve_test.
TEST(DseSpaceTest, GoldenSearchKeyIsStable) {
  const auto spec = parse(
      R"({"space":{"tech":["glass25d","apx"],"system.chiplets":[4,16],)"
      R"("pnr.aib_duty":[0.1,0.30000000000000004,1e-7],)"
      R"("pnr.target_freq_hz":{"min":1e9,"max":2e9,"steps":4}},)"
      R"("base":{"system":{"memory_every":2,"die_scale":1.25}},)"
      R"("objectives":[{"metric":"power_mW","direction":"min"},)"
      R"({"metric":"fmax_MHz","direction":"max"}],)"
      R"("constraints":[{"metric":"cost_usd","min":0.5,"max":123.456},)"
      R"({"metric":"area_mm2","max":1e300}],)"
      R"("seed_points":6,"refine_rounds":2,"batch":3,"max_points":70})");
  const std::string text = spec.canonical_text();
  const std::string tail = text.substr(text.find("axis."));
  EXPECT_EQ(tail,
            "axis.tech=glass25d,apx\n"
            "axis.system.chiplets=4,16\n"
            "axis.pnr.aib_duty=0.10000000000000001,0.30000000000000004,9.9999999999999995e-08\n"
            "axis.pnr.target_freq_hz=1000000000,1333333333.3333333,1666666666.6666665,2000000000\n"
            "objective.power_mW=min\n"
            "objective.fmax_MHz=max\n"
            "constraint.cost_usd=min:0.5,max:123.456\n"
            "constraint.area_mm2=max:1.0000000000000001e+300\n"
            "seed_points=6\n"
            "refine_rounds=2\n"
            "batch=3\n"
            "max_points=70\n"
            "point_events=1\n");
  EXPECT_EQ(spec.key(), 0xe75d8109278f5752ull) << "0x" << serve::key_hex(spec.key());
}

TEST(DseSpaceTest, ThermalAndEyeObjectivesEnableStages) {
  const auto spec = parse(
      R"({"space":{"tech":["glass25d"]},)"
      R"("objectives":[{"metric":"hotspot_C","direction":"min"},)"
      R"({"metric":"eye_opening","direction":"max"}]})");
  EXPECT_TRUE(spec.space.base.options.with_thermal);
  EXPECT_TRUE(spec.space.base.options.with_eyes);
}

TEST(DseSpaceTest, DefaultObjectivesMinimizePowerCostArea) {
  const auto spec = parse(R"({"space":{"tech":["glass25d"]}})");
  ASSERT_EQ(spec.objectives.size(), 3u);
  EXPECT_EQ(spec.objectives[0].metric, "power_mW");
  EXPECT_EQ(spec.objectives[1].metric, "cost_usd");
  EXPECT_EQ(spec.objectives[2].metric, "area_mm2");
}

// Axis values are checked against the knob row's type and range when the
// spec is parsed. Before, any_angle [0,1,2] gave 3 points of which two had
// one request key, and eye_bits [0,-5] was accepted.
TEST(DseSpaceTest, AxisValuesAreCheckedAgainstTheKnobRow) {
  EXPECT_THROW(parse(R"({"space":{"router.any_angle":[0,1,2]}})"), std::runtime_error);
  EXPECT_THROW(parse(R"({"space":{"eye_bits":[0,-5]}})"), std::runtime_error);
  EXPECT_THROW(parse(R"({"space":{"pnr.placer.cooling":{"min":-1,"max":0.5,"steps":3}}})"),
               std::runtime_error);
  const auto flag = parse(R"({"space":{"router.any_angle":[0,1]}})");
  ASSERT_EQ(flag.space.size(), 2u);
  EXPECT_NE(serve::request_key(flag.space.materialize(0)),
            serve::request_key(flag.space.materialize(1)));
  EXPECT_TRUE(flag.space.materialize(1).options.router.any_angle);
}

// Every request knob is an axis, not a hand-picked subset: both ends of
// every numeric row's range make a valid axis, and token rows parse too.
TEST(DseSpaceTest, EveryRequestKnobIsAnAxis) {
  for (const auto& row : core::knobs::rows()) {
    if (row.kind == core::knobs::RowInfo::Kind::Token) continue;
    char doc[160];
    std::snprintf(doc, sizeof doc, R"({"space":{"%s":[%.17g,%.17g]}})", row.path.c_str(),
                  row.min, row.max);
    EXPECT_EQ(parse(doc).space.size(), 2u) << doc;
  }
  const auto spec = parse(
      R"({"space":{"pnr.placer.cooling":[0.8,0.9],"partition_mode":["hierarchical","flattened"]}})");
  EXPECT_EQ(spec.space.size(), 4u);
  EXPECT_EQ(spec.space.materialize(3).options.partition_mode, core::PartitionMode::Flattened);
  EXPECT_DOUBLE_EQ(spec.space.materialize(3).options.pnr.placer.cooling, 0.9);
  EXPECT_THROW(parse(R"({"space":{"partition_mode":["vibes"]}})"), std::runtime_error);
  EXPECT_THROW(parse(R"({"space":{"with_thermal":[0,2]}})"), std::runtime_error);
}

// ---------------------------------------------------------------------------
// Search engine against a real scheduler

struct SchedulerFixture {
  serve::ResultCache cache;
  serve::JobScheduler sched;

  SchedulerFixture()
      : cache([] {
          serve::ResultCache::Config cfg;
          cfg.disk_dir = "-";
          return cfg;
        }()),
        sched([this] {
          serve::JobScheduler::Options opts;
          opts.workers = 2;
          opts.cache = &cache;
          return opts;
        }()) {}
};

TEST(DseSearchTest, ExhaustsASmallSpaceAndFindsTheFront) {
  SchedulerFixture fx;
  const auto spec = dse::spec_from_json(
      R"({"space":{"tech":["glass25d","glass3d","si25d","si3d"]},)"
      R"("seed_points":4,"refine_rounds":1,"batch":2})");

  std::atomic<int> points{0};
  std::uint64_t last_version = 0;
  dse::SearchCallbacks cbs;
  cbs.on_point = [&](const dse::PointEvent& ev) {
    ++points;
    EXPECT_TRUE(ev.ok) << ev.error;
  };
  cbs.on_front = [&](const dse::FrontEvent& ev) {
    EXPECT_GT(ev.version, last_version);  // strictly increasing versions
    last_version = ev.version;
    EXPECT_FALSE(ev.front.empty());
  };

  const auto sum = dse::run_search(fx.sched, spec, cbs);
  EXPECT_EQ(sum.status, "done");
  EXPECT_EQ(sum.space_points, 4u);
  EXPECT_EQ(sum.points_evaluated, 4u);
  EXPECT_EQ(points.load(), 4);
  EXPECT_EQ(sum.points_failed, 0u);
  EXPECT_FALSE(sum.front.empty());
  EXPECT_EQ(sum.front_version, last_version);
  for (const auto& m : sum.front) {
    EXPECT_TRUE(m.has("power_mW"));
    EXPECT_TRUE(m.has("cost_usd"));
    EXPECT_TRUE(m.has("area_mm2"));
  }
}

TEST(DseSearchTest, RerunIsFullyCacheAssisted) {
  SchedulerFixture fx;
  const auto spec = dse::spec_from_json(
      R"({"space":{"tech":["glass25d","glass3d"]},"seed_points":2})");
  const auto cold = dse::run_search(fx.sched, spec, {});
  EXPECT_EQ(cold.status, "done");
  const auto warm = dse::run_search(fx.sched, spec, {});
  EXPECT_EQ(warm.status, "done");
  EXPECT_EQ(warm.points_evaluated, 2u);
  EXPECT_EQ(warm.cache_hits, 2u);
  EXPECT_EQ(warm.cache_assisted, 2u);
  EXPECT_EQ(cold.front_version, warm.front_version);
  EXPECT_DOUBLE_EQ(cold.hypervolume, warm.hypervolume);
}

TEST(DseSearchTest, MaxPointsBoundsTheSweep) {
  SchedulerFixture fx;
  const auto spec = dse::spec_from_json(
      R"({"space":{"tech":["glass25d","glass3d","si25d","si3d","shinko","apx"]},)"
      R"("seed_points":16,"max_points":3})");
  const auto sum = dse::run_search(fx.sched, spec, {});
  EXPECT_EQ(sum.status, "done");
  EXPECT_EQ(sum.points_evaluated, 3u);
}

TEST(DseSearchTest, ConstraintInfeasiblePointsNeverJoinTheFront) {
  SchedulerFixture fx;
  // A cost ceiling nothing can meet: every point is reported infeasible and
  // the front stays empty.
  const auto spec = dse::spec_from_json(
      R"({"space":{"tech":["glass25d","glass3d"]},)"
      R"("constraints":[{"metric":"cost_usd","max":0.000001}],"seed_points":2})");
  const auto sum = dse::run_search(fx.sched, spec, {});
  EXPECT_EQ(sum.status, "done");
  EXPECT_EQ(sum.points_infeasible, 2u);
  EXPECT_TRUE(sum.front.empty());
  EXPECT_EQ(sum.front_version, 0u);
}

TEST(DseSearchTest, CancelMidSearchDrainsCleanly) {
  SchedulerFixture fx;
  const auto spec = dse::spec_from_json(
      R"({"space":{"tech":["glass25d","glass3d","si25d","si3d","shinko","apx"],)"
      R"("system.memory_every":[0,2]},"seed_points":12,"batch":2})");
  auto ctl = std::make_shared<dse::SearchControl>();
  std::atomic<int> points{0};
  dse::SearchCallbacks cbs;
  cbs.on_point = [&](const dse::PointEvent&) {
    if (++points == 2) ctl->cancel();
  };
  const auto sum = dse::run_search(fx.sched, spec, cbs, ctl);
  EXPECT_EQ(sum.status, "cancelled");
  EXPECT_LT(sum.points_evaluated, 12u);
  // The engine drained its in-flight tickets: nothing is left in the
  // scheduler, and a drain() returns immediately.
  EXPECT_EQ(fx.sched.pending(), 0u);
  fx.sched.drain();
}

TEST(DseSearchTest, PreCancelledControlEvaluatesNothing) {
  SchedulerFixture fx;
  const auto spec =
      dse::spec_from_json(R"({"space":{"tech":["glass25d","glass3d"]}})");
  auto ctl = std::make_shared<dse::SearchControl>();
  ctl->cancel();
  const auto sum = dse::run_search(fx.sched, spec, {}, ctl);
  EXPECT_EQ(sum.status, "cancelled");
  EXPECT_EQ(sum.points_evaluated, 0u);
}

TEST(DseSearchTest, RefineExpandsNeighborsOfTheFront) {
  SchedulerFixture fx;
  // 1x6 axis, tiny seed: refine must walk outward from the seeded front
  // member to neighbors the seed sweep never touched.
  const auto spec = dse::spec_from_json(
      R"({"space":{"system.memory_every":[0,2,3,4,6,8]},)"
      R"("base":{"system":{"chiplets":8}},"seed_points":1,"refine_rounds":2})");
  const auto sum = dse::run_search(fx.sched, spec, {});
  EXPECT_EQ(sum.status, "done");
  EXPECT_GE(sum.rounds_run, 1);
  EXPECT_GT(sum.points_evaluated, 1u);
}

// ---------------------------------------------------------------------------
// Daemon loopback: streaming search verbs

/// Read streamed events until `event` matches `final_event`; returns all
/// parsed lines. Fails the test on an ok:false line unless allow_error.
std::vector<std::string> read_stream_until(serve::Client& client, const std::string& final_event) {
  std::vector<std::string> lines;
  std::string resp, err;
  for (int i = 0; i < 10000; ++i) {
    if (!client.read_line(&resp, &err)) {
      ADD_FAILURE() << "stream ended early: " << err;
      return lines;
    }
    lines.push_back(resp);
    if (resp.find("\"event\":\"" + final_event + "\"") != std::string::npos) return lines;
  }
  ADD_FAILURE() << "no " << final_event << " event after 10000 lines";
  return lines;
}

TEST(DseDaemonTest, SearchStreamsPointsFrontsAndSummary) {
  serve::ServerOptions opts;
  opts.port = 0;
  opts.scheduler_workers = 2;
  opts.cache_dir = "-";
  serve::Server server(opts);
  std::string err;
  if (!server.start(&err)) GTEST_SKIP() << "cannot bind loopback socket: " << err;

  serve::Client client;
  ASSERT_TRUE(client.connect(server.port(), &err)) << err;
  ASSERT_TRUE(client.send_line(
      R"({"search":{"space":{"tech":["glass25d","glass3d","si25d"]},"seed_points":3},"id":9})",
      &err))
      << err;

  const auto lines = read_stream_until(client, "search_done");
  ASSERT_GE(lines.size(), 3u);  // started + >=1 point/front + done
  EXPECT_NE(lines.front().find("\"event\":\"search_started\""), std::string::npos);
  EXPECT_NE(lines.front().find("\"space_points\":3"), std::string::npos);

  int point_events = 0, front_events = 0;
  std::uint64_t last_version = 0;
  for (const auto& line : lines) {
    // Every frame is one well-formed JSON object carrying the request id.
    const core::json::Value v = core::json::parse(line);
    EXPECT_EQ(v.find("ok")->as_bool(), true) << line;
    EXPECT_EQ(v.find("id")->as_i64(), 9) << line;
    const std::string ev = v.find("event")->str;
    if (ev == "point_evaluated") {
      ++point_events;
      EXPECT_NE(line.find("\"metrics\""), std::string::npos);
    } else if (ev == "front_updated") {
      ++front_events;
      const auto version = v.find("version")->as_u64();
      EXPECT_GT(version, last_version);
      last_version = version;
    }
  }
  EXPECT_EQ(point_events, 3);
  EXPECT_GE(front_events, 1);
  EXPECT_NE(lines.back().find("\"status\":\"done\""), std::string::npos);
  EXPECT_NE(lines.back().find("\"points_evaluated\":3"), std::string::npos);

  // The connection is reusable after the stream completes.
  std::string resp;
  ASSERT_TRUE(client.roundtrip("{\"ping\":true}", &resp, &err)) << err;
  EXPECT_NE(resp.find("\"pong\":true"), std::string::npos);

  // Search activity shows up in the stats verb and the struct snapshot.
  ASSERT_TRUE(client.roundtrip("{\"stats\":true}", &resp, &err)) << err;
  EXPECT_NE(resp.find("\"dse\":{\"searches\":1"), std::string::npos);
  EXPECT_NE(resp.find("\"completed\":1"), std::string::npos);
  EXPECT_NE(resp.find("\"points_evaluated\":3"), std::string::npos);
  const auto st = server.stats();
  EXPECT_EQ(st.dse.searches, 1u);
  EXPECT_EQ(st.dse.completed, 1u);
  EXPECT_EQ(st.dse.points_evaluated, 3u);
  EXPECT_EQ(st.dse.active, 0u);

  server.request_stop();
  server.wait();
}

TEST(DseDaemonTest, SearchCancelFromASecondConnection) {
  serve::ServerOptions opts;
  opts.port = 0;
  opts.scheduler_workers = 1;
  opts.cache_dir = "-";
  serve::Server server(opts);
  std::string err;
  if (!server.start(&err)) GTEST_SKIP() << "cannot bind loopback socket: " << err;

  serve::Client streamer;
  ASSERT_TRUE(streamer.connect(server.port(), &err)) << err;
  // A 12-point space on one worker: plenty of time to cancel mid-flight.
  ASSERT_TRUE(streamer.send_line(
      R"({"search":{"space":{"tech":["glass25d","glass3d","si25d","si3d","shinko","apx"],)"
      R"("system.memory_every":[0,2]},"seed_points":12,"batch":2}})",
      &err))
      << err;

  // Wait for the started event to learn the search_id.
  std::string resp;
  ASSERT_TRUE(streamer.read_line(&resp, &err)) << err;
  ASSERT_NE(resp.find("\"event\":\"search_started\""), std::string::npos);
  const core::json::Value started = core::json::parse(resp);
  const std::uint64_t sid = started.find("search_id")->as_u64();

  serve::Client control;
  ASSERT_TRUE(control.connect(server.port(), &err)) << err;
  std::string cancel_resp;
  ASSERT_TRUE(control.roundtrip("{\"search_cancel\":" + std::to_string(sid) + "}",
                                &cancel_resp, &err))
      << err;
  EXPECT_NE(cancel_resp.find("\"cancelling\":true"), std::string::npos);

  const auto lines = read_stream_until(streamer, "search_done");
  EXPECT_NE(lines.back().find("\"status\":\"cancelled\""), std::string::npos);

  // Cancelling a finished search is an error (the id is gone).
  ASSERT_TRUE(control.roundtrip("{\"search_cancel\":" + std::to_string(sid) + "}",
                                &cancel_resp, &err))
      << err;
  EXPECT_NE(cancel_resp.find("\"ok\":false"), std::string::npos);

  const auto st = server.stats();
  EXPECT_EQ(st.dse.cancelled, 1u);

  server.request_stop();
  server.wait();
}

TEST(DseDaemonTest, OversizedSearchIsRejectedWithGuidance) {
  serve::ServerOptions opts;
  opts.port = 0;
  opts.scheduler_workers = 1;
  opts.cache_dir = "-";
  opts.max_search_points = 4;
  serve::Server server(opts);
  std::string err;
  if (!server.start(&err)) GTEST_SKIP() << "cannot bind loopback socket: " << err;

  serve::Client client;
  ASSERT_TRUE(client.connect(server.port(), &err)) << err;
  std::string resp;
  ASSERT_TRUE(client.roundtrip(
      R"({"search":{"space":{"tech":["glass25d","glass3d","si25d","si3d","shinko","apx"]}}})",
      &resp, &err))
      << err;
  EXPECT_NE(resp.find("\"ok\":false"), std::string::npos);
  EXPECT_NE(resp.find("max_search_points"), std::string::npos);
  EXPECT_NE(resp.find("max_points"), std::string::npos);

  // Bad spec JSON also answers with a structured error, not a closed socket.
  ASSERT_TRUE(client.roundtrip(R"({"search":{"space":{"nope":[1]}}})", &resp, &err)) << err;
  EXPECT_NE(resp.find("\"ok\":false"), std::string::npos);

  const auto st = server.stats();
  EXPECT_EQ(st.dse.rejected, 1u);
  EXPECT_EQ(st.dse.searches, 0u);

  server.request_stop();
  server.wait();
}

TEST(DseDaemonTest, UnknownSearchIdsAndRefineValidation) {
  serve::ServerOptions opts;
  opts.port = 0;
  opts.cache_dir = "-";
  serve::Server server(opts);
  std::string err;
  if (!server.start(&err)) GTEST_SKIP() << "cannot bind loopback socket: " << err;

  serve::Client client;
  ASSERT_TRUE(client.connect(server.port(), &err)) << err;
  std::string resp;
  ASSERT_TRUE(client.roundtrip("{\"search_cancel\":42}", &resp, &err)) << err;
  EXPECT_NE(resp.find("unknown search id"), std::string::npos);
  ASSERT_TRUE(client.roundtrip("{\"search_refine\":42,\"rounds\":2}", &resp, &err)) << err;
  EXPECT_NE(resp.find("unknown search id"), std::string::npos);
  ASSERT_TRUE(client.roundtrip("{\"search_refine\":1,\"rounds\":0}", &resp, &err)) << err;
  EXPECT_NE(resp.find("rounds must be"), std::string::npos);

  server.request_stop();
  server.wait();
}

}  // namespace
}  // namespace gia
