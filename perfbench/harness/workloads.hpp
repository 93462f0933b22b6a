// The three workloads and the run that measures them. Everything runs in
// this one process: the servers, the router and the clients are the
// service's own public classes, reached over Unix-domain sockets.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

inline constexpr const char* kWorkloadNames[] = {"hit_ladder", "miss_mix",
                                                 "fleet_zipf"};

[[nodiscard]] bool known_workload(const std::string& name);

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Parent of this run's private directory (sockets, disk tiers); the
  /// directory is created fresh and removed when the run ends.
  std::string work_root = ".bench_build";
};

/// One reported value. `samples` is the number of measurements it rests
/// on (0 when it is a single count or a configuration constant).
struct Metric {
  double value = 0.0;
  std::string unit;
  std::uint64_t samples = 0;
  std::string note;  ///< shown in the human-readable table only
};

struct Result {
  std::uint64_t attempted = 0;  ///< timed requests sent
  /// error replies + shed + transport failures + correctness mismatches
  std::uint64_t failed = 0;
  std::uint64_t mismatches = 0;  ///< correctness failures (subset of failed)
  std::map<std::string, Metric> metrics;
  std::vector<std::string> problems;  ///< first few failure descriptions
  std::vector<std::string> notes;     ///< what the checks covered

  [[nodiscard]] bool correct() const { return mismatches == 0; }
};

/// Runs `options.workload` once. False + *error when the run could not
/// be carried out at all (a server failed to start, a client could not
/// connect); request-level failures are counted in *result instead.
[[nodiscard]] bool run_workload(const Options& options, Result* result,
                                std::string* error);

}  // namespace perfbench
