/// Tests for the observability layer (core/instrument.{hpp,cpp}): span
/// nesting and aggregation, cross-pool parent propagation, counter atomicity
/// under parallel_for, disabled-mode no-op behaviour, and the JSON a
/// RunReport writes.

#include "core/instrument.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/json.hpp"
#include "core/links.hpp"
#include "core/parallel.hpp"
#include "signal/eye.hpp"
#include "tech/library.hpp"

namespace ins = gia::core::instrument;

namespace {

class InstrumentTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ins::set_enabled(true);
    ins::reset();
  }
  void TearDown() override {
    ins::reset();
    ins::set_enabled(false);
    gia::core::set_thread_count(0);
  }
};

TEST_F(InstrumentTest, SpanNestingAndAggregation) {
  for (int i = 0; i < 3; ++i) {
    GIA_SPAN("outer");
    { GIA_SPAN("inner"); }
    { GIA_SPAN("inner"); }
    { GIA_SPAN("other"); }
  }
  const auto rep = ins::RunReport::capture();
  ASSERT_EQ(rep.root.children.size(), 1u);
  const auto& outer = rep.root.children[0];
  EXPECT_EQ(outer.name, "outer");
  EXPECT_EQ(outer.count, 3u);
  ASSERT_EQ(outer.children.size(), 2u);
  EXPECT_EQ(outer.children[0].name, "inner");
  EXPECT_EQ(outer.children[0].count, 6u);
  EXPECT_EQ(outer.children[1].name, "other");
  EXPECT_EQ(outer.children[1].count, 3u);
  EXPECT_LE(outer.children[0].min_ns, outer.children[0].max_ns);
  EXPECT_GE(outer.children[0].total_ns, outer.children[0].max_ns);
}

TEST_F(InstrumentTest, SameNameDifferentParentsAreDistinctSpans) {
  {
    GIA_SPAN("a");
    { GIA_SPAN("leaf"); }
  }
  {
    GIA_SPAN("b");
    { GIA_SPAN("leaf"); }
    { GIA_SPAN("leaf"); }
  }
  const auto rep = ins::RunReport::capture();
  ASSERT_EQ(rep.root.children.size(), 2u);
  ASSERT_EQ(rep.root.children[0].children.size(), 1u);
  EXPECT_EQ(rep.root.children[0].children[0].count, 1u);
  ASSERT_EQ(rep.root.children[1].children.size(), 1u);
  EXPECT_EQ(rep.root.children[1].children[0].count, 2u);
}

TEST_F(InstrumentTest, CountersAreExactUnderParallelFor) {
  gia::core::set_thread_count(4);
  constexpr std::size_t kN = 20000;
  gia::core::parallel_for(kN, [](std::size_t) {
    ins::counter_add(ins::Counter::McTrials);
    ins::counter_add(ins::Counter::LuSolves, 3);
  });
  EXPECT_EQ(ins::counter_value(ins::Counter::McTrials), kN);
  EXPECT_EQ(ins::counter_value(ins::Counter::LuSolves), 3 * kN);
}

TEST_F(InstrumentTest, SpanParentPropagatesAcrossThePool) {
  gia::core::set_thread_count(4);
  {
    GIA_SPAN("outer");
    gia::core::parallel_for(64, [](std::size_t) { GIA_SPAN("body"); });
  }
  const auto rep = ins::RunReport::capture();
  ASSERT_EQ(rep.root.children.size(), 1u);
  const auto& outer = rep.root.children[0];
  EXPECT_EQ(outer.name, "outer");
  ASSERT_EQ(outer.children.size(), 1u);
  EXPECT_EQ(outer.children[0].name, "body");
  EXPECT_EQ(outer.children[0].count, 64u);
}

TEST_F(InstrumentTest, DisabledModeIsANoOp) {
  ins::set_enabled(false);
  {
    GIA_SPAN("invisible");
    ins::counter_add(ins::Counter::SorIterations, 99);
    ins::gauge_set("ghost", 1.0);
  }
  ins::set_enabled(true);
  const auto rep = ins::RunReport::capture();
  EXPECT_TRUE(rep.root.children.empty());
  EXPECT_EQ(ins::counter_value(ins::Counter::SorIterations), 0u);
  EXPECT_TRUE(rep.gauges.empty());
}

TEST_F(InstrumentTest, GaugesOverwriteByName) {
  ins::gauge_set("x", 1.0);
  ins::gauge_set("y", 2.0);
  ins::gauge_set("x", 3.0);
  const auto rep = ins::RunReport::capture();
  ASSERT_EQ(rep.gauges.size(), 2u);
  EXPECT_EQ(rep.gauges[0].first, "x");
  EXPECT_DOUBLE_EQ(rep.gauges[0].second, 3.0);
}

/// `v` (a span of to_json) carries the name, stats and children of `s`.
void expect_span(const gia::core::json::Value& v, const ins::SpanSnapshot& s) {
  EXPECT_EQ(v.at("name").as<std::string>(), s.name);
  EXPECT_EQ(v.at("count").as_u64(), s.count);
  EXPECT_EQ(v.at("total_ns").as_u64(), s.total_ns);
  EXPECT_EQ(v.at("min_ns").as_u64(), s.min_ns);
  EXPECT_EQ(v.at("max_ns").as_u64(), s.max_ns);
  const auto& kids = v.at("children").arr;
  ASSERT_EQ(kids.size(), s.children.size()) << s.name;
  for (std::size_t i = 0; i < kids.size(); ++i) expect_span(kids[i], s.children[i]);
}

// to_json is valid JSON carrying every counter, gauge and span of the report.
TEST_F(InstrumentTest, JsonRoundTrip) {
  {
    GIA_SPAN("a");
    { GIA_SPAN("b"); }
  }
  ins::counter_add(ins::Counter::LuSolves, 7);
  ins::counter_add(ins::Counter::FlowRuns, 1);
  ins::gauge_set("thermal.max_c", 88.25);
  ins::gauge_set("weird\"name\\with\nescapes", -1.5e-300);
  const auto rep = ins::RunReport::capture();
  const auto top = gia::core::json::parse(rep.to_json());
  const auto& rr = top.at("run_report");
  EXPECT_EQ(rr.at("compiler").as<std::string>(), rep.compiler);
  EXPECT_EQ(rr.at("threads").as<int>(), rep.threads);

  const auto& counters = rr.at("counters").obj;
  ASSERT_EQ(counters.size(), rep.counters.size());
  for (std::size_t i = 0; i < counters.size(); ++i) {
    EXPECT_EQ(counters[i].first, rep.counters[i].first);
    EXPECT_EQ(counters[i].second.as_u64(), rep.counters[i].second) << counters[i].first;
  }
  EXPECT_EQ(rr.at("counters").at(ins::counter_name(ins::Counter::LuSolves)).as_u64(), 7u);

  const auto& gauges = rr.at("gauges").obj;
  ASSERT_EQ(gauges.size(), 2u);
  EXPECT_EQ(gauges[1].first, "weird\"name\\with\nescapes");
  EXPECT_EQ(gauges[0].second.as<double>(), 88.25);
  EXPECT_EQ(gauges[1].second.as<double>(), -1.5e-300);

  expect_span(rr.at("spans"), rep.root);
  ASSERT_EQ(rep.root.children.size(), 1u);
  EXPECT_EQ(rep.root.children[0].name, "a");
  ASSERT_EQ(rep.root.children[0].children.size(), 1u);
  EXPECT_EQ(rep.root.children[0].children[0].name, "b");
}

/// The span names of a to_json tree, depth first.
void collect_names(const gia::core::json::Value& v, std::vector<std::string>& out) {
  out.push_back(v.at("name").as<std::string>());
  for (const auto& c : v.at("children").arr) collect_names(c, out);
}

// Sibling spans opened in either order give the same tree: a snapshot
// lists children by name, not by which stage happened to open first.
TEST_F(InstrumentTest, SiblingOrderDoesNotDependOnOpenOrder) {
  const auto tree = [](bool b_first) {
    ins::reset();
    {
      GIA_SPAN("flow");
      for (int i = 0; i < 2; ++i) {
        if ((i == 0) == b_first) {
          GIA_SPAN("flow/b");
          { GIA_SPAN("leaf"); }
        } else {
          GIA_SPAN("flow/a");
        }
      }
    }
    std::vector<std::string> names;
    collect_names(gia::core::json::parse(ins::RunReport::capture().to_json())
                      .at("run_report")
                      .at("spans"),
                  names);
    return names;
  };
  const std::vector<std::string> expected = {"root", "flow", "flow/a", "flow/b", "leaf"};
  EXPECT_EQ(tree(true), expected);
  EXPECT_EQ(tree(false), expected);
}

TEST_F(InstrumentTest, InstrumentedSweepRecordsSpanAndCounter) {
  // The eye fold sweeps every sampled UI under one span and counts them.
  const auto spec = gia::core::make_fixed_line_spec(
      gia::tech::make_technology(gia::tech::TechnologyKind::Silicon25D), 1500.0);
  const auto run = gia::signal::run_prbs(spec, 48);
  ins::reset();  // keep only what the fold records
  gia::signal::EyeConfig cfg;
  cfg.keep_traces = true;
  const auto eye = gia::signal::measure_eye(run, cfg);
  const std::uint64_t uis = eye.traces.size();
  ASSERT_GT(uis, 0u);
  EXPECT_EQ(ins::counter_value(ins::Counter::EyeUis), uis);
  const auto rep = ins::RunReport::capture();
  ASSERT_EQ(rep.root.children.size(), 1u);
  EXPECT_EQ(rep.root.children[0].name, "signal/eye_measure");
  EXPECT_EQ(rep.root.children[0].count, 1u);

  const std::string text = rep.to_text();
  EXPECT_NE(text.find("signal/eye_measure"), std::string::npos);
  EXPECT_NE(text.find("eye_uis = " + std::to_string(uis)), std::string::npos);
}

}  // namespace
