// perfbench — the qbss end-to-end benchmark program.
//
//   perfbench --workload hit_ladder|miss_mix|fleet_zipf --seed N
//             --seconds S --trace 0|1 [--work-root DIR]
//
// Starts the service in-process, runs one workload, checks every reply,
// prints a human-readable table and, as the last stdout line, one JSON
// object: {"correct", "attempted", "failed", "metrics"}. --trace 0
// reports the end-to-end metrics, --trace 1 the per-layer ones (see
// metrics.hpp and perfbench/README.md). Exit status: 0 when every
// request succeeded and every check passed, 1 when the result records a
// failure, 2 when no result could be produced.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>

#include "metrics.hpp"
#include "workloads.hpp"

namespace {

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\n"
               "usage: perfbench --workload hit_ladder|miss_mix|fleet_zipf "
               "--seed N --seconds S --trace 0|1 [--work-root DIR]\n",
               why);
  return 2;
}

/// Shortest text that reads back as exactly `value` (all its digits).
std::string number(double value) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  return buf;
}

template <std::size_t N>
bool in_table(const perfbench::MetricSpec (&table)[N], std::string_view name) {
  for (const auto& spec : table) {
    if (spec.name == name) return true;
  }
  return false;
}

}  // namespace

int main(int argc, char** argv) {
  // Isolation: one solver thread for library-level parallel loops, no
  // log sink, no trace file, no fault plan.
  setenv("QBSS_THREADS", "1", 1);
  unsetenv("QBSS_TRACE");
  unsetenv("QBSS_LOG");
  unsetenv("QBSS_FAULTS");

  perfbench::Options options;
  bool have_seed = false;
  bool have_seconds = false;
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + arg).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      options.workload = value;
    } else if (arg == "--seed") {
      options.seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = end != value.c_str() && *end == '\0';
    } else if (arg == "--seconds") {
      options.seconds = std::strtod(value.c_str(), &end);
      have_seconds = end != value.c_str() && *end == '\0' &&
                     options.seconds > 0.0 && options.seconds <= 600.0;
    } else if (arg == "--trace") {
      have_trace = value == "0" || value == "1";
      options.trace = value == "1";
    } else if (arg == "--work-root") {
      options.work_root = value;
    } else {
      return usage(("unknown argument " + arg).c_str());
    }
  }
  if (!perfbench::known_workload(options.workload)) {
    return usage("--workload must be hit_ladder, miss_mix or fleet_zipf");
  }
  if (!have_seed) return usage("--seed must be a non-negative integer");
  if (!have_seconds) return usage("--seconds must be in (0, 600]");
  if (!have_trace) return usage("--trace must be 0 or 1");

  perfbench::Result result;
  std::string error;
  if (!perfbench::run_workload(options, &result, &error)) {
    std::fprintf(stderr, "perfbench: %s\n", error.c_str());
    return 2;
  }

  std::printf("perfbench %s seed=%llu seconds=%g trace=%d\n",
              options.workload.c_str(),
              static_cast<unsigned long long>(options.seed), options.seconds,
              options.trace ? 1 : 0);
  for (const auto& [name, metric] : result.metrics) {
    if (!in_table(perfbench::kEndToEnd, name) &&
        !in_table(perfbench::kPerLayer, name)) {
      std::fprintf(stderr, "perfbench: metric %s is not catalogued\n",
                   name.c_str());
      return 2;
    }
    std::printf("  %-36s %14.4f %-6s samples=%-8llu %s\n", name.c_str(),
                metric.value, metric.unit.c_str(),
                static_cast<unsigned long long>(metric.samples),
                metric.note.c_str());
  }
  const double failed_frac =
      result.attempted == 0 ? 0.0
                            : static_cast<double>(result.failed) /
                                  static_cast<double>(result.attempted);
  std::printf("  %-36s %14.6f        (%llu of %llu attempted)\n",
              "failed_frac", failed_frac,
              static_cast<unsigned long long>(result.failed),
              static_cast<unsigned long long>(result.attempted));
  for (const std::string& n : result.notes) std::printf("  note: %s\n", n.c_str());
  for (const std::string& p : result.problems) {
    std::printf("  problem: %s\n", p.c_str());
  }

  std::string json = "{\"correct\": ";
  json += result.correct() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(result.attempted);
  json += ", \"failed\": " + std::to_string(result.failed);
  json += ", \"metrics\": {";
  bool first = true;
  const auto emit = [&](const auto& table) {
    for (const auto& spec : table) {
      const auto it = result.metrics.find(std::string(spec.name));
      if (it == result.metrics.end() || !std::isfinite(it->second.value)) {
        std::fprintf(stderr, "perfbench: metric %.*s was not measured\n",
                     static_cast<int>(spec.name.size()), spec.name.data());
        return false;
      }
      json += first ? "\"" : ", \"";
      first = false;
      json += spec.name;
      json += "\": {\"value\": ";
      json += number(it->second.value);
      json += ", \"unit\": \"";
      json += spec.unit;
      json += "\"}";
    }
    return true;
  };
  if (!(options.trace ? emit(perfbench::kPerLayer)
                      : emit(perfbench::kEndToEnd))) {
    return 2;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return result.correct() && result.failed == 0 && result.attempted > 0 ? 0
                                                                         : 1;
}
