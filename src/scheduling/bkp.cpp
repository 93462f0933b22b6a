#include "scheduling/bkp.hpp"

#include <algorithm>
#include <vector>

#include "common/constants.hpp"
#include "scheduling/edf.hpp"

namespace qbss::scheduling {

namespace {

/// Sorted distinct values of one job field.
template <typename Field>
std::vector<Time> distinct_times(const Instance& instance, Field field) {
  std::vector<Time> ts;
  ts.reserve(instance.size());
  for (const ClassicalJob& j : instance.jobs()) ts.push_back(j.*field);
  std::sort(ts.begin(), ts.end());
  ts.erase(std::unique(ts.begin(), ts.end()), ts.end());
  return ts;
}

/// Job indices sorted by release. Both profiles walk this order backwards
/// to accumulate work, so they must build it with the same (unstable)
/// sort: equal-release jobs then add up in the same floating-point order.
std::vector<std::size_t> release_order(const Instance& instance) {
  std::vector<std::size_t> by_release(instance.size());
  for (std::size_t i = 0; i < instance.size(); ++i) by_release[i] = i;
  std::sort(by_release.begin(), by_release.end(),
            [&](std::size_t a, std::size_t b) {
              return instance.jobs()[a].release < instance.jobs()[b].release;
            });
  return by_release;
}

}  // namespace

StepFunction bkp_profile(const Instance& instance) {
  if (instance.empty()) return {};

  const std::vector<Time> releases =
      distinct_times(instance, &ClassicalJob::release);
  const std::vector<Time> deadlines =
      distinct_times(instance, &ClassicalJob::deadline);
  const std::vector<Time> grid = instance.event_times();
  const std::size_t n = instance.size();
  const std::size_t nd = deadlines.size();

  // Jobs in release order, each with the index of its own deadline: a job
  // counts toward every candidate t2 at or after that index.
  std::vector<Time> release(n);
  std::vector<Work> work(n);
  std::vector<std::size_t> first_t2(n);
  {
    const std::vector<std::size_t> by_release = release_order(instance);
    for (std::size_t k = 0; k < n; ++k) {
      const ClassicalJob& j = instance.jobs()[by_release[k]];
      release[k] = j.release;
      work[k] = j.work;
      first_t2[k] = static_cast<std::size_t>(
          std::lower_bound(deadlines.begin(), deadlines.end(), j.deadline) -
          deadlines.begin());
    }
  }

  // Per release epoch: sum[d] is the running window work ending at
  // deadlines[d], peak[d] the best intensity over t1 for that t2, and
  // suffix[d] the best over every t2 >= deadlines[d].
  std::vector<Work> sum(nd);
  std::vector<double> peak(nd);
  std::vector<double> suffix(nd + 1, 0.0);

  std::vector<Segment> pieces;
  pieces.reserve(grid.size());
  std::size_t epoch = 0;     // distinct releases <= a
  std::size_t released = 0;  // jobs with release <= a (a release-order prefix)
  bool stale = true;
  for (std::size_t g = 0; g + 1 < grid.size(); ++g) {
    const Time a = grid[g];
    const Time b = grid[g + 1];
    while (epoch < releases.size() && releases[epoch] <= a) {
      ++epoch;
      stale = true;
    }
    if (epoch == 0) continue;  // nothing released yet: speed 0

    if (stale) {
      // The candidates of every piece (a, b] in this epoch share one
      // released set and one t1 range; only t2 >= b differs. Compute
      // them once, for every t2 past the epoch's release.
      stale = false;
      const Time epoch_release = releases[epoch - 1];
      const std::size_t lo = static_cast<std::size_t>(
          std::upper_bound(deadlines.begin(), deadlines.end(),
                           epoch_release) -
          deadlines.begin());
      // A t2 before every deadline of the jobs this epoch releases sees
      // exactly the previous epoch's additions (the new jobs are skipped),
      // so its peak carries over. Only t2 from `fresh` on is recomputed.
      std::size_t fresh = nd;
      for (; released < n && release[released] <= epoch_release; ++released) {
        fresh = std::min(fresh, first_t2[released]);
      }
      fresh = std::max(fresh, lo);
      std::fill(sum.begin() + static_cast<std::ptrdiff_t>(fresh), sum.end(),
                0.0);
      std::fill(peak.begin() + static_cast<std::ptrdiff_t>(fresh),
                peak.end(), 0.0);
      // One pass over the released jobs in descending release order,
      // adding each job's work into every t2 at or after its deadline: for
      // each (t1, t2) the additions happen in the order bkp_reference
      // performs them, so every sum is bit-identical.
      std::size_t k = released;
      while (k > 0) {
        const Time t1 = release[k - 1];
        std::size_t touched = nd;
        while (k > 0 && release[k - 1] >= t1) {
          --k;
          const std::size_t from = std::max(first_t2[k], fresh);
          touched = std::min(touched, from);
          const Work w = work[k];
          for (std::size_t d = from; d < nd; ++d) sum[d] += w;
        }
        // Every t2 here is past t1. Sums below `touched` did not change
        // since the previous (later) t1, so their intensity can only have
        // shrunk with the wider window and cannot raise the max.
        for (std::size_t d = touched; d < nd; ++d) {
          peak[d] = std::max(peak[d], sum[d] / (deadlines[d] - t1));
        }
      }
      for (std::size_t d = nd; d > lo; --d) {
        suffix[d - 1] = std::max(peak[d - 1], suffix[d]);
      }
    }

    // max over t2 >= b. The reference takes the same max in another
    // order, which cannot change it: every candidate is finite and >= +0.
    const std::size_t first = static_cast<std::size_t>(
        std::lower_bound(deadlines.begin(), deadlines.end(), b) -
        deadlines.begin());
    const double best = suffix[first];
    if (best > 0.0) pieces.push_back(Segment{{a, b}, kE * best});
  }
  return StepFunction::from_disjoint(std::move(pieces));
}

StepFunction bkp_reference(const Instance& instance) {
  if (instance.empty()) return {};

  const std::vector<Time> releases =
      distinct_times(instance, &ClassicalJob::release);
  const std::vector<Time> deadlines =
      distinct_times(instance, &ClassicalJob::deadline);
  const std::vector<Time> grid = instance.event_times();

  // Jobs sorted by release for suffix-sum accumulation per t2 candidate.
  const std::vector<std::size_t> by_release = release_order(instance);

  StepFunction profile;
  for (std::size_t g = 0; g + 1 < grid.size(); ++g) {
    const Time a = grid[g];
    const Time b = grid[g + 1];

    // On (a, b] the arrived set and the admissible candidates are fixed:
    // t1 must satisfy t1 < t for all t in the piece (t1 <= a), t2 must
    // satisfy t <= t2 (t2 >= b).
    double best = 0.0;
    for (const Time t2 : deadlines) {
      if (t2 < b) continue;
      // work[k] = total work of arrived jobs with release >= release of the
      // k-th by-release job and deadline <= t2, accumulated right-to-left.
      Work suffix = 0.0;
      // Walk releases descending; when passing a candidate t1 (a release
      // value <= a), evaluate the intensity.
      std::size_t r = by_release.size();
      std::size_t rel_idx = releases.size();
      while (rel_idx > 0) {
        const Time t1 = releases[rel_idx - 1];
        // Absorb all jobs with release >= t1 into the suffix.
        while (r > 0 &&
               instance.jobs()[by_release[r - 1]].release >= t1) {
          const ClassicalJob& j = instance.jobs()[by_release[r - 1]];
          if (j.release <= a && j.deadline <= t2) suffix += j.work;
          --r;
        }
        if (t1 <= a && t2 > t1) {
          best = std::max(best, suffix / (t2 - t1));
        }
        --rel_idx;
      }
    }
    if (best > 0.0) profile.add_constant({a, b}, kE * best);
  }
  return profile;
}

OnlineRun bkp(const Instance& instance) {
  OnlineRun run;
  run.nominal = bkp_profile(instance);
  EdfResult edf = edf_allocate(instance, run.nominal);
  run.feasible = edf.feasible;
  run.schedule = std::move(edf.schedule);
  return run;
}

}  // namespace qbss::scheduling
