// Self-tests of the benchmark: stream determinism, the sample
// arithmetic, the metric catalogue against BENCHMARK.json, and a short
// smoke run of every workload in both modes with no failed request.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <map>
#include <regex>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "stats.hpp"
#include "streams.hpp"
#include "workloads.hpp"

namespace {

using perfbench::kWorkloadNames;

TEST(Streams, SameSeedSameDigestOtherSeedOtherDigest) {
  for (const char* workload : kWorkloadNames) {
    const std::uint64_t a = perfbench::stream_digest(workload, 7);
    EXPECT_EQ(a, perfbench::stream_digest(workload, 7)) << workload;
    EXPECT_NE(a, perfbench::stream_digest(workload, 8)) << workload;
  }
  EXPECT_NE(perfbench::stream_digest("hit_ladder", 7),
            perfbench::stream_digest("miss_mix", 7));
}

TEST(Streams, MissMixNeverRepeatsAKey) {
  std::set<std::string> keys;
  for (std::uint64_t i = 0; i < 500; ++i) {
    keys.insert(qbss::svc::cache_key(perfbench::miss_request(3, i)));
  }
  EXPECT_EQ(keys.size(), 500u);
}

TEST(Streams, FleetSendsOneFreshKeyInTen) {
  const perfbench::FleetStream stream(3);
  std::set<std::uint64_t> fresh;
  for (std::uint64_t i = 0; i < 10000; ++i) {
    const perfbench::FleetKey key = stream.key(1, i);
    if (key.fresh) {
      EXPECT_TRUE(fresh.insert(key.index).second) << "fresh key repeated";
    } else {
      EXPECT_LT(key.index, perfbench::kFleetPool);
    }
  }
  EXPECT_GT(fresh.size(), 900u);
  EXPECT_LT(fresh.size(), 1100u);
}

TEST(Stats, NearestRankPercentiles) {
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  EXPECT_EQ(perfbench::percentile(v, 0.50), 50.0);
  EXPECT_EQ(perfbench::percentile(v, 0.99), 99.0);
  EXPECT_EQ(perfbench::percentile(v, 1.00), 100.0);
  EXPECT_EQ(perfbench::percentile(v, 0.001), 1.0);
  std::vector<double> one = {4.5};
  EXPECT_EQ(perfbench::percentile(one, 0.99), 4.5);
  std::vector<double> none;
  EXPECT_EQ(perfbench::percentile(none, 0.5), 0.0);
  EXPECT_EQ(perfbench::median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_EQ(perfbench::samples_beyond(100, 0.99), 1u);
  EXPECT_EQ(perfbench::samples_beyond(1000, 0.99), 10u);
  EXPECT_EQ(perfbench::samples_beyond(1000, 0.5), 500u);
  std::vector<double> lat = {10, 20, 30, 40, 50, 60, 70, 80, 90, 100};
  const perfbench::LatencySummary s = perfbench::summarize(lat);
  EXPECT_EQ(s.count, 10u);
  EXPECT_EQ(s.p50, 50.0);
  EXPECT_EQ(s.p99, 100.0);
}

TEST(Stats, LogLogSlopeRecoversExponents) {
  EXPECT_NEAR(perfbench::loglog_slope({{32, 3 * 32.0 * 32}, {64, 3 * 64.0 * 64},
                                       {128, 3 * 128.0 * 128}}),
              2.0, 1e-12);
  EXPECT_NEAR(perfbench::loglog_slope({{10, 1.0}, {20, 2.0}, {40, 4.0}}), 1.0,
              1e-12);
  EXPECT_NEAR(perfbench::loglog_slope({{1, 1.0}, {4, 8.0}}), 1.5, 1e-12);
  EXPECT_EQ(perfbench::loglog_slope({{5, 1.0}}), 0.0);
  EXPECT_EQ(perfbench::loglog_slope({{5, 1.0}, {5, 2.0}}), 0.0);
  EXPECT_EQ(perfbench::loglog_slope({{0, 1.0}, {5, 2.0}}), 0.0);
}

/// name -> unit for one metric list of BENCHMARK.json.
std::map<std::string, std::string> spec_metrics(const std::string& list) {
  std::ifstream in(PERFBENCH_SPEC);
  std::stringstream text;
  text << in.rdbuf();
  const std::string all = text.str();
  const std::size_t at = all.find("\"" + list + "\"");
  EXPECT_NE(at, std::string::npos) << list;
  const std::size_t end = all.find(']', at);
  const std::string section = all.substr(at, end - at);
  std::map<std::string, std::string> out;
  const std::regex entry(R"re("name":\s*"([^"]*)",\s*"unit":\s*"([^"]*)")re");
  for (auto it = std::sregex_iterator(section.begin(), section.end(), entry);
       it != std::sregex_iterator(); ++it) {
    out[(*it)[1]] = (*it)[2];
  }
  return out;
}

struct Output {
  int status = -1;
  std::string last_line;
};

Output run_bench(const std::string& workload, int trace) {
  const std::string command = std::string(PERFBENCH_BIN) +
                              " --workload " + workload +
                              " --seed 5 --seconds 1 --trace " +
                              std::to_string(trace) + " --work-root " +
                              PERFBENCH_WORK;
  Output out;
  FILE* pipe = popen(command.c_str(), "r");
  if (pipe == nullptr) return out;
  char buf[4096];
  std::string line;
  while (std::fgets(buf, sizeof buf, pipe) != nullptr) {
    line += buf;
    if (!line.empty() && line.back() == '\n') {
      line.pop_back();
      if (!line.empty()) out.last_line = line;
      line.clear();
    }
  }
  const int status = pclose(pipe);
  out.status = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  return out;
}

class Smoke : public ::testing::TestWithParam<std::tuple<const char*, int>> {};

TEST_P(Smoke, CleanRunPrintsExactlyTheCataloguedMetrics) {
  const auto [workload, trace] = GetParam();
  const Output out = run_bench(workload, trace);
  ASSERT_EQ(out.status, 0) << out.last_line;
  EXPECT_NE(out.last_line.find("\"correct\": true"), std::string::npos);
  EXPECT_NE(out.last_line.find("\"failed\": 0,"), std::string::npos);

  std::map<std::string, std::string> printed;
  const std::regex metric(
      R"re("([^"]+)": \{"value": [-0-9.eE+]+, "unit": "([^"]*)"\})re");
  for (auto it = std::sregex_iterator(out.last_line.begin(),
                                      out.last_line.end(), metric);
       it != std::sregex_iterator(); ++it) {
    printed[(*it)[1]] = (*it)[2];
  }
  const std::regex name_rule("[A-Za-z0-9_.-]+");
  for (const auto& [name, unit] : printed) {
    EXPECT_TRUE(std::regex_match(name, name_rule)) << name;
  }
  EXPECT_EQ(printed, spec_metrics(trace ? "per_layer" : "end_to_end"));
}

INSTANTIATE_TEST_SUITE_P(
    Workloads, Smoke,
    ::testing::Combine(::testing::ValuesIn(kWorkloadNames),
                       ::testing::Values(0, 1)),
    [](const ::testing::TestParamInfo<Smoke::ParamType>& param_info) {
      return std::string(std::get<0>(param_info.param)) +
             (std::get<1>(param_info.param) ? "_traced" : "_untraced");
    });

}  // namespace
