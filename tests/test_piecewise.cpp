// Unit tests for the step-function foundation: every schedule, profile and
// energy integral in the library flows through this class.
#include "common/piecewise.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <vector>

#include "common/interval_set.hpp"
#include "common/xoshiro.hpp"

namespace qbss {
namespace {

TEST(StepFunction, ZeroFunctionEverywhereZero) {
  const StepFunction f;
  EXPECT_EQ(f.value(0.0), 0.0);
  EXPECT_EQ(f.value(42.0), 0.0);
  EXPECT_EQ(f.integral(), 0.0);
  EXPECT_EQ(f.max_value(), 0.0);
  EXPECT_TRUE(f.support().empty());
}

TEST(StepFunction, ConstantRespectsHalfOpenConvention) {
  const StepFunction f = StepFunction::constant({1.0, 3.0}, 2.0);
  EXPECT_EQ(f.value(1.0), 0.0);  // left end excluded
  EXPECT_EQ(f.value(1.5), 2.0);
  EXPECT_EQ(f.value(3.0), 2.0);  // right end included
  EXPECT_EQ(f.value(3.5), 0.0);
}

TEST(StepFunction, IntegralOfConstant) {
  const StepFunction f = StepFunction::constant({0.0, 4.0}, 2.5);
  EXPECT_DOUBLE_EQ(f.integral(), 10.0);
  EXPECT_DOUBLE_EQ(f.integral(Interval{1.0, 2.0}), 2.5);
  EXPECT_DOUBLE_EQ(f.integral(Interval{-5.0, 0.5}), 1.25);
}

TEST(StepFunction, PowerIntegralIsClosedForm) {
  const StepFunction f = StepFunction::constant({0.0, 2.0}, 3.0);
  // integral of 3^2 over 2 units = 18
  EXPECT_DOUBLE_EQ(f.power_integral(2.0), 18.0);
  EXPECT_DOUBLE_EQ(f.power_integral(3.0), 54.0);
}

TEST(StepFunction, PlusMergesBreakpoints) {
  const StepFunction f = StepFunction::constant({0.0, 2.0}, 1.0);
  const StepFunction g = StepFunction::constant({1.0, 3.0}, 2.0);
  const StepFunction h = f + g;
  EXPECT_DOUBLE_EQ(h.value(0.5), 1.0);
  EXPECT_DOUBLE_EQ(h.value(1.5), 3.0);
  EXPECT_DOUBLE_EQ(h.value(2.5), 2.0);
  EXPECT_DOUBLE_EQ(h.integral(), 2.0 + 4.0);
}

TEST(StepFunction, SumOfManyOverlappingSegments) {
  std::vector<Segment> segs;
  for (int i = 0; i < 100; ++i) {
    segs.push_back({{0.0, 1.0 + i}, 1.0});
  }
  const StepFunction f = StepFunction::sum_of(segs);
  EXPECT_DOUBLE_EQ(f.value(0.5), 100.0);
  EXPECT_DOUBLE_EQ(f.value(99.5), 1.0);
  EXPECT_DOUBLE_EQ(f.max_value(), 100.0);
}

TEST(StepFunction, SumOfMatchesRepeatedPlus) {
  std::vector<Segment> segs = {
      {{0.0, 2.0}, 1.0}, {{1.0, 4.0}, 0.5}, {{3.0, 5.0}, 2.0}};
  const StepFunction fast = StepFunction::sum_of(segs);
  StepFunction slow;
  for (const Segment& s : segs) slow.add_constant(s.span, s.value);
  EXPECT_TRUE(fast.approx_equals(slow));
}

TEST(StepFunction, ScaledMultipliesValues) {
  const StepFunction f = StepFunction::constant({0.0, 2.0}, 3.0);
  const StepFunction g = f.scaled(0.5);
  EXPECT_DOUBLE_EQ(g.value(1.0), 1.5);
  EXPECT_DOUBLE_EQ(g.integral(), 3.0);
}

TEST(StepFunction, RestrictedClipsSupport) {
  StepFunction f = StepFunction::constant({0.0, 10.0}, 1.0);
  const StepFunction g = f.restricted({2.0, 4.0});
  EXPECT_EQ(g.value(1.0), 0.0);
  EXPECT_EQ(g.value(3.0), 1.0);
  EXPECT_EQ(g.value(5.0), 0.0);
  EXPECT_DOUBLE_EQ(g.integral(), 2.0);
}

TEST(StepFunction, AddConstantAccumulates) {
  StepFunction f;
  f.add_constant({0.0, 2.0}, 1.0);
  f.add_constant({0.0, 2.0}, 1.0);
  EXPECT_DOUBLE_EQ(f.value(1.0), 2.0);
}

TEST(StepFunction, SupportSkipsZeroPieces) {
  std::vector<Segment> segs = {{{0.0, 1.0}, 1.0},
                               {{1.0, 2.0}, -1.0},  // cancels below
                               {{1.0, 2.0}, 1.0},
                               {{3.0, 4.0}, 2.0}};
  const StepFunction f = StepFunction::sum_of(segs);
  const Interval s = f.support();
  EXPECT_DOUBLE_EQ(s.begin, 0.0);
  EXPECT_DOUBLE_EQ(s.end, 4.0);
  EXPECT_EQ(f.value(1.5), 0.0);
}

TEST(StepFunction, BreakpointsSortedUnique) {
  StepFunction f;
  f.add_constant({0.0, 2.0}, 1.0);
  f.add_constant({1.0, 3.0}, 2.0);
  const auto bps = f.breakpoints();
  ASSERT_EQ(bps.size(), 4u);
  EXPECT_TRUE(std::is_sorted(bps.begin(), bps.end()));
}

TEST(StepFunction, ApproxEqualsDetectsDifference) {
  const StepFunction f = StepFunction::constant({0.0, 1.0}, 1.0);
  const StepFunction g = StepFunction::constant({0.0, 1.0}, 1.0 + 1e-3);
  EXPECT_FALSE(f.approx_equals(g));
  EXPECT_TRUE(f.approx_equals(g, 1e-2));
}

TEST(StepFunction, MergeAdjacentEqualPieces) {
  StepFunction f;
  f.add_constant({0.0, 1.0}, 2.0);
  f.add_constant({1.0, 2.0}, 2.0);
  EXPECT_EQ(f.pieces().size(), 1u);
  EXPECT_DOUBLE_EQ(f.pieces()[0].span.length(), 2.0);
}

TEST(StepFunction, FromDisjointMatchesAddConstantChainBitForBit) {
  Xoshiro256 rng(7);
  for (int trial = 0; trial < 100; ++trial) {
    // Disjoint pieces, some touching, some with gaps, with values drawn
    // from a small set so touching neighbours often merge, zeros included.
    std::vector<Segment> pieces;
    double t = rng.uniform(0.0, 1.0);
    const int count = static_cast<int>(rng.below(40));
    for (int i = 0; i < count; ++i) {
      if (rng.chance(0.3)) t += rng.uniform(0.0, 0.5);
      const double end = t + rng.uniform(0.01, 1.0);
      const double values[] = {0.0, 0.5, 1.0 / 3.0, 2.0, 2.0};
      pieces.push_back(Segment{{t, end}, values[rng.below(5)]});
      t = end;
    }
    StepFunction chained;
    for (const Segment& p : pieces) chained.add_constant(p.span, p.value);

    std::shuffle(pieces.begin(), pieces.end(), rng);
    const StepFunction built = StepFunction::from_disjoint(pieces);
    ASSERT_EQ(built.pieces().size(), chained.pieces().size());
    for (std::size_t i = 0; i < built.pieces().size(); ++i) {
      EXPECT_EQ(std::memcmp(&built.pieces()[i], &chained.pieces()[i],
                            sizeof(Segment)),
                0)
          << "trial " << trial << " piece " << i;
    }
  }
}

TEST(Interval, HalfOpenContains) {
  const Interval iv{1.0, 2.0};
  EXPECT_FALSE(iv.contains(1.0));
  EXPECT_TRUE(iv.contains(1.5));
  EXPECT_TRUE(iv.contains(2.0));
  EXPECT_FALSE(iv.contains(2.5));
}

TEST(Interval, IntersectAndCovers) {
  const Interval a{0.0, 4.0};
  const Interval b{2.0, 6.0};
  EXPECT_EQ(a.intersect(b), (Interval{2.0, 4.0}));
  EXPECT_TRUE(a.covers({1.0, 3.0}));
  EXPECT_FALSE(a.covers(b));
}

TEST(IntervalSet, InsertMergesOverlaps) {
  IntervalSet s;
  s.insert({0.0, 1.0});
  s.insert({2.0, 3.0});
  s.insert({0.5, 2.5});
  ASSERT_EQ(s.members().size(), 1u);
  EXPECT_DOUBLE_EQ(s.measure(), 3.0);
}

TEST(IntervalSet, GapsWithin) {
  IntervalSet s;
  s.insert({1.0, 2.0});
  s.insert({3.0, 4.0});
  const auto gaps = s.gaps_within({0.0, 5.0});
  ASSERT_EQ(gaps.size(), 3u);
  EXPECT_EQ(gaps[0], (Interval{0.0, 1.0}));
  EXPECT_EQ(gaps[1], (Interval{2.0, 3.0}));
  EXPECT_EQ(gaps[2], (Interval{4.0, 5.0}));
}

TEST(IntervalSet, MeasureWithin) {
  IntervalSet s;
  s.insert({1.0, 3.0});
  EXPECT_DOUBLE_EQ(s.measure_within({0.0, 2.0}), 1.0);
  EXPECT_DOUBLE_EQ(s.measure_within({0.0, 10.0}), 2.0);
  EXPECT_DOUBLE_EQ(s.measure_within({4.0, 5.0}), 0.0);
}

}  // namespace
}  // namespace qbss
