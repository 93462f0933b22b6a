#include "streams.hpp"

#include <algorithm>
#include <cmath>

#include "gen/random_instances.hpp"

namespace perfbench {

namespace svc = qbss::svc;

namespace {

// Stream salts: each kind of draw has its own sequence.
constexpr std::uint64_t kSaltHit = 0x1001;
constexpr std::uint64_t kSaltMixPick = 0x2001;
constexpr std::uint64_t kSaltMixInstance = 0x2002;
constexpr std::uint64_t kSaltMixWarm = 0x2003;
constexpr std::uint64_t kSaltFleetPool = 0x3001;
constexpr std::uint64_t kSaltFleetFresh = 0x3002;
constexpr std::uint64_t kSaltFleetArrival = 0x3003;
constexpr std::uint64_t kSaltFleetKey = 0x3004;
constexpr std::uint64_t kSaltFleetPick = 0x3005;

double unit(std::uint64_t bits) {
  return static_cast<double>(bits >> 11) * 0x1.0p-53;
}

svc::Request bkpq_request(int n, std::uint64_t instance_seed) {
  return policy_request("bkpq", n, instance_seed, false);
}

/// The miss_mix policy mix, in percent: bkpq (the service default) is
/// the largest share. oaq and avrq_m are absent because some of their
/// ordinary inputs abort the service (abort_reproducers). bkpq n=32
/// takes about ten times as long as the others, so latencies fall in a
/// fast and a slow mode; at a 50% share the median would sit on the gap
/// between them and jump with the share's sampling noise, while at 60%
/// it lies inside bkpq's own distribution.
struct Share {
  const char* algo;
  std::uint64_t percent;
};
constexpr Share kMix[] = {{"bkpq", 60}, {"avrq", 10},  {"opt", 10},
                          {"crcd", 7},  {"crp2d", 7}, {"crad", 6}};

svc::Request mix_request(std::uint64_t seed, std::uint64_t salt,
                         std::uint64_t index) {
  const std::uint64_t pick = mix(seed, kSaltMixPick ^ salt, index);
  std::uint64_t slot = pick % 100;
  const char* algo = kMix[0].algo;
  for (const Share& share : kMix) {
    if (slot < share.percent) {
      algo = share.algo;
      break;
    }
    slot -= share.percent;
  }
  const bool dump = (pick >> 32) % 4 == 0;
  return policy_request(algo, kMissJobs, mix(seed, salt, index), dump);
}

}  // namespace

std::uint64_t mix(std::uint64_t seed, std::uint64_t salt,
                  std::uint64_t index) {
  std::uint64_t z = seed * 0x9e3779b97f4a7c15ULL + salt * 0xd1b54a32d192ed03ULL +
                    index + 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

const std::vector<std::string>& policies() {
  static const std::vector<std::string> kPolicies = {
      "bkpq", "oaq", "avrq", "avrq_m", "crcd", "crp2d", "crad", "opt"};
  return kPolicies;
}

svc::Request policy_request(const std::string& algo, int n,
                            std::uint64_t instance_seed, bool want_schedule) {
  svc::Request request;
  request.algo = algo;
  request.alpha = 3.0;
  request.machines = kMissMachines;
  request.want_schedule = want_schedule;
  if (algo == "crcd") {
    request.instance = qbss::gen::random_common_deadline(n, 8.0, instance_seed);
  } else if (algo == "crp2d") {
    request.instance = qbss::gen::random_pow2_deadlines(n, 4, instance_seed);
  } else if (algo == "crad") {
    request.instance =
        qbss::gen::random_arbitrary_deadlines(n, 10.0, instance_seed);
  } else {
    request.instance =
        qbss::gen::random_online(n, 10.0, 0.5, 4.0, instance_seed);
  }
  return request;
}

std::vector<svc::Request> abort_reproducers() {
  return {policy_request("oaq", kMissJobs, 0x13541e07ca865144ull, false),
          policy_request("avrq_m", kMissJobs, 0xab30ab123cedc5c2ull, false),
          policy_request("oaq", kMissJobs, 0x41c4ec04f6b53a4bull, false)};
}

svc::Request hit_request(std::uint64_t seed, std::size_t index) {
  return bkpq_request(kHitJobs, mix(seed, kSaltHit, index));
}

svc::Request miss_request(std::uint64_t seed, std::uint64_t index) {
  return mix_request(seed, kSaltMixInstance, index);
}

svc::Request miss_warm_request(std::uint64_t seed, std::uint64_t index) {
  return mix_request(seed, kSaltMixWarm, index);
}

svc::Request fleet_pool_request(std::uint64_t seed, std::size_t index) {
  return bkpq_request(kFleetJobs, mix(seed, kSaltFleetPool, index));
}

svc::Request fleet_fresh_request(std::uint64_t seed, std::uint64_t index) {
  return bkpq_request(kFleetJobs, mix(seed, kSaltFleetFresh, index));
}

FleetStream::FleetStream(std::uint64_t seed) : seed_(seed) {
  cdf_.reserve(kFleetPool);
  double total = 0.0;
  for (std::size_t i = 0; i < kFleetPool; ++i) {
    total += std::pow(static_cast<double>(i + 1), -kFleetZipfS);
    cdf_.push_back(total);
  }
  for (double& p : cdf_) p /= total;
}

FleetKey FleetStream::key(std::uint64_t stream, std::uint64_t i) const {
  if (mix(seed_, kSaltFleetPick + stream, i) % kFleetFreshEvery == 0) {
    return {true, stream << 40 | i};
  }
  return {false, pool_index(stream, i)};
}

std::size_t FleetStream::pool_index(std::uint64_t stream,
                                    std::uint64_t i) const {
  const double u = unit(mix(seed_, kSaltFleetKey + stream, i));
  const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
  return std::min<std::size_t>(static_cast<std::size_t>(it - cdf_.begin()),
                               kFleetPool - 1);
}

std::vector<Arrival> FleetStream::arrivals(double rate, double seconds,
                                           std::uint64_t stream) const {
  std::vector<Arrival> out;
  out.reserve(static_cast<std::size_t>(rate * seconds * 1.1) + 16);
  const double horizon_ns = seconds * 1e9;
  double t = 0.0;
  for (std::uint64_t i = 0;; ++i) {
    // Exponential gap; 1 - u is in (0, 1] so the log is finite.
    t += -std::log(1.0 - unit(mix(seed_, kSaltFleetArrival + stream, i))) /
         rate * 1e9;
    if (t >= horizon_ns) break;
    out.push_back({static_cast<std::uint64_t>(t), key(stream, i)});
  }
  return out;
}

std::uint64_t stream_digest(const std::string& workload, std::uint64_t seed) {
  std::uint64_t digest = 0xcbf29ce484222325ull;
  const auto fold = [&digest](const std::string& bytes) {
    for (const char c : bytes) {
      digest ^= static_cast<unsigned char>(c);
      digest *= 0x100000001b3ull;
    }
  };
  constexpr std::size_t kDigested = 64;
  if (workload == "hit_ladder") {
    for (std::size_t i = 0; i < kHitPool; ++i) {
      fold(svc::serialize_request(hit_request(seed, i)));
    }
  } else if (workload == "miss_mix") {
    for (std::uint64_t i = 0; i < kDigested; ++i) {
      fold(svc::serialize_request(miss_request(seed, i)));
    }
  } else if (workload == "fleet_zipf") {
    const FleetStream stream(seed);
    for (std::uint64_t i = 0; i < kDigested; ++i) {
      const FleetKey key = stream.key(0, i);
      fold(key.fresh ? "fresh" : "pool");
      fold(std::to_string(key.index));
      fold(svc::serialize_request(key.fresh
                                      ? fleet_fresh_request(seed, key.index)
                                      : fleet_pool_request(seed, key.index)));
    }
  }
  return digest;
}

}  // namespace perfbench
