// Tests of the benchmark's own logic: order statistics, span self-time
// aggregation and the correctness oracle.
#include <sstream>
#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

#include "driver/oracle.h"
#include "driver/spans.h"
#include "driver/stats.h"

namespace perfbench {
namespace {

TEST(Stats, MedianOfOddAndEvenCounts) {
  EXPECT_DOUBLE_EQ(median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(median({4.0, 1.0, 3.0, 2.0}), 2.5);
  EXPECT_DOUBLE_EQ(median({7.0}), 7.0);
  EXPECT_THROW(median({}), std::invalid_argument);
}

TEST(Stats, QuartilesMatchPythonExclusiveMethod) {
  // statistics.quantiles(values, n=4) on the same inputs.
  const auto a = quartiles({1, 2, 3, 4, 5, 6, 7, 8, 9, 10});
  EXPECT_DOUBLE_EQ(a[0], 2.75);
  EXPECT_DOUBLE_EQ(a[1], 5.5);
  EXPECT_DOUBLE_EQ(a[2], 8.25);
  const auto b = quartiles({1, 2});
  EXPECT_DOUBLE_EQ(b[0], 0.75);
  EXPECT_DOUBLE_EQ(b[1], 1.5);
  EXPECT_DOUBLE_EQ(b[2], 2.25);
  const auto c = quartiles({5, 1, 4, 2, 3});
  EXPECT_DOUBLE_EQ(c[0], 1.5);
  EXPECT_DOUBLE_EQ(c[1], 3.0);
  EXPECT_DOUBLE_EQ(c[2], 4.5);
  EXPECT_THROW(quartiles({1.0}), std::invalid_argument);
}

Span span(const char* layer, Nanos begin, Nanos end, std::int64_t parent) {
  Span s;
  s.layer = layer;
  s.kind = layer;
  s.begin = begin;
  s.end = end;
  s.parent = parent;
  return s;
}

TEST(Spans, SelfTimeSubtractsChildrenAndCountsOverlapsOnce) {
  // root [0,100] with two overlapping children (as from two threads), one
  // of which has a child of its own, and one child running past the root.
  const std::vector<Span> spans = {
      span("certify", 0, 100, -1),  // 0
      span("sim", 10, 40, 0),       // 1
      span("sim", 30, 60, 0),       // 2 overlaps 1
      span("faults", 20, 25, 1),    // 3 inside 1
      span("batch", 90, 130, 0),    // 4 clipped to the root at 100
  };
  const auto self = selfSecondsByLayer(spans);
  // root: 100 - |[10,60] u [90,100]| = 100 - 60 = 40
  EXPECT_NEAR(self.at("certify"), 40e-9, 1e-15);
  // sim: [10,20] u [25,40] from span 1, [30,60] from span 2 -> 10 + 35
  EXPECT_NEAR(self.at("sim"), 45e-9, 1e-15);
  EXPECT_NEAR(self.at("faults"), 5e-9, 1e-15);
  EXPECT_NEAR(self.at("batch"), 40e-9, 1e-15);
}

TEST(Spans, UnclosedSpansAreIgnored) {
  const std::vector<Span> spans = {span("search", 0, 10, -1),
                                   span("explore", 5, 4, 0)};
  const auto self = selfSecondsByLayer(spans);
  EXPECT_NEAR(self.at("search"), 10e-9, 1e-15);
  EXPECT_EQ(self.count("explore"), 0u);
}

TEST(Spans, EventCoverageLeavesOutDirectCalls) {
  // A call [0,100] whose library events cover [10,40] u [30,60] (two runs
  // in lockstep) and a phase [80,90]; the call's other 40 ns are a gap.
  std::vector<Span> spans = {
      span("certify", 0, 100, -1), span("sim", 10, 40, 0),
      span("sim", 30, 60, 0),      span("checker", 80, 90, 0),
      span("explore", 95, 94, 0),  // never closed
  };
  spans[1].source = spans[2].source = SpanSource::kRun;
  spans[3].source = spans[4].source = SpanSource::kPhase;
  EXPECT_NEAR(eventCoveredSeconds(spans), 60e-9, 1e-15);
  EXPECT_NEAR(selfSecondsByLayer(spans).at("certify"), 40e-9, 1e-15);
}

TEST(Spans, TracerNestsPhasesUnderTheOpenCall) {
  Tracer t;
  const std::size_t call = t.open("search", 1);
  t.onPhaseStart({7, "check"});
  t.onPhaseStart({7, "explore"});
  t.onPhaseEnd({7, "explore", 0.0});
  t.onPhaseEnd({7, "check", 0.0});
  t.close(call);
  ASSERT_EQ(t.spans().size(), 3u);
  EXPECT_EQ(t.spans()[1].parent, 0);
  EXPECT_EQ(t.spans()[2].parent, 1);
  EXPECT_STREQ(t.spans()[1].layer, "checker");
  EXPECT_STREQ(t.spans()[2].layer, "explore");
  for (const Span& s : t.spans()) EXPECT_GE(s.end, s.begin);
}

Oracle oracleFrom(const std::string& text) {
  std::istringstream in(text);
  return Oracle::parse(in);
}

std::vector<Unit> passUnits() {
  return {
      Unit{"search.a", "examined=16 solvers=0 verdict=pass", "", true},
      Unit{"e18.b", "states=16 ~exact=49.620000000000005", "sim_mean=48.693",
           true},
  };
}

TEST(Oracle, MatchingPassHasNoErrors) {
  const Oracle o = oracleFrom(
      "# seed 99\n"
      "search.a\texamined=16 solvers=0 verdict=pass\t\n"
      "e18.b\tstates=16 ~exact=49.62\tsim_mean=48.693\n");
  const CheckResult r = o.check(passUnits(), 99);
  EXPECT_EQ(r.attempted, 2u);
  EXPECT_EQ(r.failed, 0u);
}

TEST(Oracle, PerturbedExpectedValueGivesNonzeroErrorRate) {
  const Oracle o = oracleFrom(
      "# seed 99\n"
      "search.a\texamined=16 solvers=1 verdict=pass\t\n"
      "e18.b\tstates=16 ~exact=49.62\tsim_mean=48.693\n");
  const CheckResult r = o.check(passUnits(), 99);
  EXPECT_EQ(r.attempted, 2u);
  EXPECT_EQ(r.failed, 1u);
  EXPECT_GT(static_cast<double>(r.failed) / static_cast<double>(r.attempted),
            0.0);
}

TEST(Oracle, NumericTokensMatchWithinOnePartPerBillion) {
  EXPECT_TRUE(textsMatch("~exact=49.62000000001", "~exact=49.62"));
  EXPECT_FALSE(textsMatch("~exact=49.6201", "~exact=49.62"));
  EXPECT_FALSE(textsMatch("exact=49.62000000001", "exact=49.62"));
  EXPECT_FALSE(textsMatch("~other=49.62", "~exact=49.62"));
  EXPECT_FALSE(textsMatch("a=1 b=2", "a=1"));
}

TEST(Oracle, SeededTextsAreComparedOnlyAtTheRecordedSeed) {
  const Oracle o = oracleFrom(
      "# seed 99\n"
      "search.a\texamined=16 solvers=0 verdict=pass\t\n"
      "e18.b\tstates=16 ~exact=49.62\tsim_mean=50.000\n");
  EXPECT_EQ(o.check(passUnits(), 99).failed, 1u);
  EXPECT_EQ(o.check(passUnits(), 5).failed, 0u);
}

TEST(Oracle, OwnChecksMissingUnitsAndReferenceDifferencesFail) {
  const Oracle o = oracleFrom(
      "search.a\texamined=16 solvers=0 verdict=pass\t\n"
      "e18.b\tstates=16 ~exact=49.62\tsim_mean=48.693\n"
      "extra.c\tx=1\t\n");
  std::vector<Unit> units = passUnits();
  units[0].ok = false;
  CheckResult r = o.check(units, 1);
  EXPECT_EQ(r.attempted, 3u);  // the missing unit counts as attempted
  EXPECT_EQ(r.failed, 2u);

  std::vector<Unit> reference = passUnits();
  reference[1].seeded = "sim_mean=1";
  r = o.check(passUnits(), 1, &reference);
  EXPECT_EQ(r.failed, 2u);  // e18.b differs from the reference; extra.c
}

TEST(Oracle, MalformedLinesAreRejected) {
  EXPECT_THROW(oracleFrom("name-without-tabs\n"), std::runtime_error);
}

}  // namespace
}  // namespace perfbench
