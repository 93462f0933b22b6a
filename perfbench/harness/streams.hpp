// Request streams of the three workloads. Every request is a pure
// function of (--seed, position), so the same seed reproduces the same
// stream and the service only ever sees these generated requests.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "svc/protocol.hpp"

namespace perfbench {

// hit_ladder: 256 bkpq n=16 random_online instances, all warmed in set-up.
inline constexpr std::size_t kHitPool = 256;
inline constexpr int kHitJobs = 16;

// miss_mix: every request a fresh instance of n=32 from a family its
// policy admits; one request in four asks for the schedule dump. oaq and
// avrq_m are left out of the stream: ordinary random instances abort the
// service on them (see abort_reproducers).
inline constexpr int kMissJobs = 32;
inline constexpr int kMissMachines = 4;

// fleet_zipf: Zipf(1) over a pool of 4096 bkpq n=16 keys, plus fresh keys
// (misses with a write-behind append): one request in ten, chosen by the
// request's index in the stream, in the closed and the open loop alike.
inline constexpr std::size_t kFleetPool = 4096;
inline constexpr int kFleetJobs = 16;
inline constexpr double kFleetZipfS = 1.0;
inline constexpr std::uint64_t kFleetFreshEvery = 10;

/// splitmix64 of (seed, salt, index): the one source of randomness.
[[nodiscard]] std::uint64_t mix(std::uint64_t seed, std::uint64_t salt,
                                std::uint64_t index);

/// The policies the service serves, in miss_mix reporting order.
[[nodiscard]] const std::vector<std::string>& policies();

/// A solve request for `algo` on an instance of `n` jobs drawn from the
/// family `algo` admits (random_online, or the common/pow2/arbitrary
/// deadline families for crcd/crp2d/crad).
[[nodiscard]] qbss::svc::Request policy_request(const std::string& algo,
                                                int n,
                                                std::uint64_t instance_seed,
                                                bool want_schedule);

/// Well-formed requests that abort the service at the commit this
/// benchmark was written against: random_online n=32 instances on which
/// oaq fails the `packed.feasible` postcondition in scheduling/yds.cpp and
/// avrq_m the slice-machine precondition in
/// scheduling/multi/machine_schedule.hpp (about 1 in 60k oaq and 1 in 40k
/// avrq_m requests). Kept as the record of the defect; nothing in the
/// benchmark sends them.
[[nodiscard]] std::vector<qbss::svc::Request> abort_reproducers();

[[nodiscard]] qbss::svc::Request hit_request(std::uint64_t seed,
                                             std::size_t index);
[[nodiscard]] qbss::svc::Request miss_request(std::uint64_t seed,
                                              std::uint64_t index);
/// Warm-up requests for miss_mix set-up: same mix, disjoint keys.
[[nodiscard]] qbss::svc::Request miss_warm_request(std::uint64_t seed,
                                                   std::uint64_t index);
[[nodiscard]] qbss::svc::Request fleet_pool_request(std::uint64_t seed,
                                                    std::size_t index);
[[nodiscard]] qbss::svc::Request fleet_fresh_request(std::uint64_t seed,
                                                     std::uint64_t index);

/// A fleet_zipf key: a pool index, or the number of a fresh key.
struct FleetKey {
  bool fresh = false;
  std::uint64_t index = 0;
};

/// One open-loop arrival: due time from the phase start, and its key.
struct Arrival {
  std::uint64_t due_ns = 0;
  FleetKey key;
};

/// The fleet_zipf key stream: one draw in kFleetFreshEvery is a fresh
/// key, the rest are Zipf(kFleetZipfS) over the pool. `stream` separates
/// the phases of one run; fresh keys never repeat across streams.
class FleetStream {
 public:
  explicit FleetStream(std::uint64_t seed);
  /// Key of request `i` of `stream`.
  [[nodiscard]] FleetKey key(std::uint64_t stream, std::uint64_t i) const;
  /// Zipf pool index of request `i` of `stream` (no fresh keys).
  [[nodiscard]] std::size_t pool_index(std::uint64_t stream,
                                       std::uint64_t i) const;
  /// Poisson arrivals at `rate` per second for `seconds`, keyed like key().
  [[nodiscard]] std::vector<Arrival> arrivals(double rate, double seconds,
                                              std::uint64_t stream) const;

 private:
  std::uint64_t seed_;
  std::vector<double> cdf_;  ///< Zipf CDF over pool ranks
};

/// FNV-1a digest of the first requests of `workload`'s stream; for
/// fleet_zipf, of the first keys key() picks (fresh or pool, and which)
/// and their requests. An unknown workload name digests nothing and
/// returns the FNV offset basis.
[[nodiscard]] std::uint64_t stream_digest(const std::string& workload,
                                          std::uint64_t seed);

}  // namespace perfbench
