// Tests for the classical online algorithms (AVR, OA, BKP): feasibility,
// their defining structure, and their proven competitive bounds measured
// on random instances.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "analysis/bounds.hpp"
#include "common/constants.hpp"
#include "common/xoshiro.hpp"
#include "gen/nested.hpp"
#include "gen/random_instances.hpp"
#include "qbss/transform.hpp"
#include "scheduling/avr.hpp"
#include "scheduling/bkp.hpp"
#include "scheduling/edf.hpp"
#include "scheduling/oa.hpp"
#include "scheduling/yds.hpp"

namespace qbss::scheduling {
namespace {

Instance random_instance(Xoshiro256& rng, int n, double horizon) {
  Instance inst;
  for (int j = 0; j < n; ++j) {
    const Time r = rng.uniform(0.0, horizon);
    inst.add(r, r + rng.uniform(0.3, 3.0), rng.uniform(0.1, 2.0));
  }
  return inst;
}

// ----- AVR ------------------------------------------------------------

TEST(Avr, SpeedIsSumOfActiveDensities) {
  Instance inst;
  inst.add(0.0, 2.0, 2.0);  // density 1
  inst.add(1.0, 3.0, 4.0);  // density 2
  const StepFunction f = avr_profile(inst);
  EXPECT_DOUBLE_EQ(f.value(0.5), 1.0);
  EXPECT_DOUBLE_EQ(f.value(1.5), 3.0);
  EXPECT_DOUBLE_EQ(f.value(2.5), 2.0);
}

TEST(Avr, AlwaysFeasible) {
  Xoshiro256 rng(3);
  for (int trial = 0; trial < 20; ++trial) {
    const Instance inst = random_instance(rng, 10, 8.0);
    const Schedule s = avr(inst);
    EXPECT_TRUE(validate(inst, s).feasible);
  }
}

TEST(Avr, WithinProvenEnergyBoundOnRandomInstances) {
  Xoshiro256 rng(5);
  for (int trial = 0; trial < 20; ++trial) {
    const Instance inst = random_instance(rng, 8, 6.0);
    for (const double alpha : {2.0, 2.5, 3.0}) {
      const double ratio =
          avr(inst).energy(alpha) / optimal_energy(inst, alpha);
      EXPECT_GE(ratio, 1.0 - 1e-9);
      EXPECT_LE(ratio, analysis::avr_energy_upper(alpha) + 1e-9);
    }
  }
}

TEST(Avr, TwoSymmetricJobsGiveKnownRatio) {
  // The classic 2-job AVR example: overlapping at a point, OPT evens the
  // load, AVR stacks it.
  Instance inst;
  inst.add(0.0, 2.0, 1.0);
  inst.add(1.0, 3.0, 1.0);
  const double alpha = 2.0;
  const double avr_energy = avr(inst).energy(alpha);
  // AVR: speed 0.5 on (0,1] and (2,3], speed 1 on (1,2] -> 0.25+1+0.25.
  EXPECT_NEAR(avr_energy, 1.5, 1e-12);
  const double opt = optimal_energy(inst, alpha);
  // OPT runs both at constant 2/3 over their windows... but must respect
  // windows; true optimum here is 4/3 (speed 2/3 everywhere).
  EXPECT_NEAR(opt, 4.0 / 3.0, 1e-9);
}

// ----- OA -------------------------------------------------------------

TEST(Oa, MatchesYdsWhenAllJobsKnownUpfront) {
  Xoshiro256 rng(9);
  for (int trial = 0; trial < 10; ++trial) {
    Instance inst;
    for (int j = 0; j < 6; ++j) {
      inst.add(0.0, rng.uniform(0.5, 6.0), rng.uniform(0.1, 2.0));
    }
    // Common release: OA's single plan is the YDS optimum.
    EXPECT_NEAR(optimal_available(inst).energy(2.0),
                optimal_energy(inst, 2.0), 1e-6);
  }
}

TEST(Oa, AlwaysFeasible) {
  Xoshiro256 rng(21);
  for (int trial = 0; trial < 20; ++trial) {
    const Instance inst = random_instance(rng, 10, 8.0);
    const Schedule s = optimal_available(inst);
    EXPECT_TRUE(validate(inst, s).feasible);
  }
}

TEST(Oa, WithinProvenEnergyBound) {
  Xoshiro256 rng(23);
  for (int trial = 0; trial < 20; ++trial) {
    const Instance inst = random_instance(rng, 8, 6.0);
    for (const double alpha : {2.0, 3.0}) {
      const double ratio = optimal_available(inst).energy(alpha) /
                           optimal_energy(inst, alpha);
      EXPECT_GE(ratio, 1.0 - 1e-9);
      EXPECT_LE(ratio, analysis::oa_energy_upper(alpha) + 1e-9);
    }
  }
}

TEST(Oa, ProcrastinationFamilyStaysWithinAlphaToTheAlpha) {
  // The classic OA stressor: waves of work sharing a deadline. OA's
  // measured ratio must stay under its tight alpha^alpha bound while
  // growing with the wave count (the bound's shape).
  for (const double alpha : {2.0, 3.0}) {
    double prev = 0.0;
    for (const int waves : {2, 6, 12}) {
      Instance inst;
      double remaining = 1.0;
      for (int k = 1; k <= waves; ++k) {
        const double next = remaining * 0.5;
        inst.add(1.0 - remaining, 1.0, remaining - next);
        remaining = next;
      }
      const double ratio = optimal_available(inst).energy(alpha) /
                           optimal_energy(inst, alpha);
      EXPECT_LE(ratio, analysis::oa_energy_upper(alpha) + 1e-9);
      EXPECT_GE(ratio + 1e-9, prev) << "ratio should grow with waves";
      prev = ratio;
    }
  }
}

// ----- BKP ------------------------------------------------------------

TEST(Bkp, SingleJobProfileIsEtimesDensity) {
  Instance inst;
  inst.add(0.0, 1.0, 1.0);
  const StepFunction f = bkp_profile(inst);
  EXPECT_NEAR(f.value(0.5), kE, 1e-12);
}

TEST(Bkp, AlwaysFeasibleAtNominalProfile) {
  Xoshiro256 rng(31);
  for (int trial = 0; trial < 20; ++trial) {
    const Instance inst = random_instance(rng, 8, 6.0);
    const OnlineRun run = bkp(inst);
    EXPECT_TRUE(run.feasible);
    EXPECT_TRUE(validate(inst, run.schedule).feasible);
  }
}

TEST(Bkp, NominalDominatesExecutedSpeed) {
  Xoshiro256 rng(33);
  const Instance inst = random_instance(rng, 10, 6.0);
  const OnlineRun run = bkp(inst);
  for (const Segment& p : run.schedule.speed().pieces()) {
    const Time probe = p.span.end;
    EXPECT_LE(p.value, run.nominal.value(probe) + 1e-9);
  }
}

TEST(Bkp, WithinProvenMaxSpeedBound) {
  Xoshiro256 rng(35);
  for (int trial = 0; trial < 20; ++trial) {
    const Instance inst = random_instance(rng, 8, 6.0);
    const double ratio =
        bkp(inst).nominal_max_speed() / optimal_max_speed(inst);
    EXPECT_LE(ratio, analysis::bkp_speed_upper() + 1e-9);
  }
}

TEST(Bkp, WithinProvenEnergyBound) {
  Xoshiro256 rng(37);
  for (int trial = 0; trial < 15; ++trial) {
    const Instance inst = random_instance(rng, 8, 6.0);
    for (const double alpha : {2.0, 3.0}) {
      const double ratio =
          bkp(inst).nominal_energy(alpha) / optimal_energy(inst, alpha);
      EXPECT_LE(ratio, analysis::bkp_energy_upper(alpha) + 1e-9);
    }
  }
}

TEST(Bkp, ProfileCoversCriticalIntensity) {
  // w(t, t1, t2)/(t2-t1) at the moment of max load: the profile must be
  // e times at least the YDS intensity, hence >= YDS speed pointwise is
  // NOT guaranteed, but >= the max over windows fully inside is.
  Instance inst;
  inst.add(0.0, 1.0, 2.0);
  inst.add(0.0, 2.0, 1.0);
  const StepFunction f = bkp_profile(inst);
  // At t in (0,1]: candidates include (0,1] with w=2.
  EXPECT_GE(f.value(0.5), kE * 2.0 - 1e-12);
}

// ----- BKP sweep vs the reference triple loop ---------------------------

// Segments carry no padding, so memcmp compares exactly the three doubles.
static_assert(sizeof(Segment) == 3 * sizeof(double));

/// The sweep must reproduce the reference bit for bit, not within a
/// tolerance: served payloads and the Table 1 bench stdout depend on it.
void expect_same_bytes(const Instance& inst, const std::string& label) {
  const StepFunction fast = bkp_profile(inst);
  const StepFunction ref = bkp_reference(inst);
  ASSERT_EQ(fast.pieces().size(), ref.pieces().size()) << label;
  for (std::size_t i = 0; i < ref.pieces().size(); ++i) {
    EXPECT_EQ(std::memcmp(&fast.pieces()[i], &ref.pieces()[i],
                          sizeof(Segment)),
              0)
        << label << " piece " << i << ": [" << fast.pieces()[i].span.begin
        << ", " << fast.pieces()[i].span.end << "] "
        << fast.pieces()[i].value << " vs [" << ref.pieces()[i].span.begin
        << ", " << ref.pieces()[i].span.end << "] " << ref.pieces()[i].value;
  }
}

/// The classical instances BKP meets for one QBSS instance: the
/// clairvoyant reduction, BKPQ's golden/half expansion, and the two
/// extreme query policies.
std::vector<std::pair<std::string, Instance>> classical_views(
    const core::QInstance& q) {
  using core::QueryPolicy;
  using core::SplitPolicy;
  return {
      {"clairvoyant", core::clairvoyant_instance(q)},
      {"golden/half",
       core::expand(q, QueryPolicy::golden(), SplitPolicy::half()).classical},
      {"never", core::expand(q, QueryPolicy::never(), SplitPolicy::half())
                    .classical},
      {"always/half", core::expand(q, QueryPolicy::always(),
                                   SplitPolicy::half())
                          .classical},
  };
}

TEST(BkpSweep, MatchesReferenceBytesOnEveryFamily) {
  for (const int n : {1, 2, 16, 64, 256}) {
    const std::uint64_t seeds = n <= 16 ? 4 : 1;
    for (std::uint64_t seed = 1; seed <= seeds; ++seed) {
      const std::vector<std::pair<std::string, core::QInstance>> families = {
          {"random_online", gen::random_online(n, 10.0, 0.5, 4.0, seed)},
          {"common_deadline", gen::random_common_deadline(n, 4.0, seed)},
          {"pow2", gen::random_pow2_deadlines(n, 4, seed)},
          {"arbitrary", gen::random_arbitrary_deadlines(n, 8.0, seed)},
          // Levels stay where 1 - 2^-i is still below 1 in doubles.
          {"nested", gen::nested_family(std::clamp(n - 1, 1, 48), 0.05)},
          {"geometric", gen::geometric_release_family(n, 0.9, 0.05)},
      };
      for (const auto& [family, q] : families) {
        for (const auto& [view, inst] : classical_views(q)) {
          expect_same_bytes(inst, family + " " + view + " n=" +
                                      std::to_string(n) +
                                      " seed=" + std::to_string(seed));
        }
      }
    }
  }
}

TEST(BkpSweep, MatchesReferenceBytesOnHandBuiltTies) {
  Instance single;
  single.add(0.5, 2.0, 1.5);
  expect_same_bytes(single, "single job");

  // Equal releases with works whose sum depends on the addition order.
  Instance equal_releases;
  for (int i = 0; i < 6; ++i) {
    equal_releases.add(1.0, 2.0 + 0.5 * i, 0.1 * (i + 1));
  }
  equal_releases.add(0.0, 3.0, 0.3);
  expect_same_bytes(equal_releases, "equal releases");

  // Same window, so only the addition order separates 0.3 + 0.2 + 0.1
  // (= 0.6) from 0.1 + 0.2 + 0.3 (= 0.6000000000000001).
  Instance order_sensitive;
  for (const double w : {0.1, 0.2, 0.3}) order_sensitive.add(0.0, 1.0, w);
  expect_same_bytes(order_sensitive, "order-sensitive sum");

  Instance equal_deadlines;
  for (int i = 0; i < 6; ++i) equal_deadlines.add(0.3 * i, 4.0, 0.7 / (i + 1));
  expect_same_bytes(equal_deadlines, "equal deadlines");

  Instance zero_work;
  zero_work.add(0.0, 1.0, 0.0);
  zero_work.add(0.5, 2.0, 1.0);
  zero_work.add(0.5, 1.5, 0.0);
  expect_same_bytes(zero_work, "zero-work jobs");

  Instance all_zero;
  all_zero.add(0.0, 1.0, 0.0);
  all_zero.add(1.0, 2.0, 0.0);
  expect_same_bytes(all_zero, "all zero work");
  EXPECT_TRUE(bkp_profile(all_zero).pieces().empty());

  // Identical jobs, and a release that coincides with a deadline.
  Instance duplicates;
  for (int i = 0; i < 4; ++i) duplicates.add(0.0, 1.0, 0.1);
  duplicates.add(1.0, 2.0, 0.2);
  expect_same_bytes(duplicates, "duplicates");

  EXPECT_TRUE(bkp_profile(Instance{}).pieces().empty());
}

TEST(BkpSweep, MatchesReferenceBytesOnTieHeavyRandomInstances) {
  // Releases and deadlines on a coarse grid so most times repeat; works
  // mix zeros with values whose sums round differently by order.
  Xoshiro256 rng(41);
  for (int trial = 0; trial < 200; ++trial) {
    const int n = 1 + static_cast<int>(rng.below(64));
    Instance inst;
    for (int j = 0; j < n; ++j) {
      const double r = 0.25 * static_cast<double>(rng.below(12));
      const double d = r + 0.25 * static_cast<double>(1 + rng.below(8));
      const double w = rng.chance(0.15) ? 0.0 : rng.uniform(0.01, 3.0);
      inst.add(r, d, w);
    }
    expect_same_bytes(inst, "trial " + std::to_string(trial));
  }
}

}  // namespace
}  // namespace qbss::scheduling
