// Tests of the plain-text instance/schedule formats: round-trips,
// comment/whitespace handling, precise parse-error reporting, and the
// stream-free double rendering matching the ostream one byte for byte.
#include "io/format.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cfloat>
#include <cmath>
#include <cstdint>
#include <limits>
#include <sstream>
#include <vector>

#include "common/xoshiro.hpp"
#include "gen/random_instances.hpp"
#include "scheduling/yds.hpp"

namespace qbss::io {
namespace {

TEST(IoQInstance, ParsesBasicFile) {
  std::istringstream in(
      "# release deadline query_cost upper_bound exact_load\n"
      "0.0 4.0 0.5 3.0 1.0\n"
      "\n"
      "1.0 5.0 0.4 2.0 2.0   # trailing comment\n");
  const Parsed<core::QInstance> parsed = read_qinstance(in);
  ASSERT_TRUE(parsed);
  ASSERT_EQ(parsed.value->size(), 2u);
  EXPECT_DOUBLE_EQ(parsed.value->job(0).query_cost, 0.5);
  EXPECT_DOUBLE_EQ(parsed.value->job(1).exact_load, 2.0);
}

TEST(IoQInstance, RejectsWrongColumnCount) {
  std::istringstream in("0.0 4.0 0.5 3.0\n");
  const Parsed<core::QInstance> parsed = read_qinstance(in);
  ASSERT_FALSE(parsed);
  EXPECT_EQ(parsed.error.line, 1);
}

TEST(IoQInstance, RejectsInvalidJobWithLineNumber) {
  std::istringstream in(
      "0.0 4.0 0.5 3.0 1.0\n"
      "0.0 4.0 5.0 3.0 1.0\n");  // c > w
  const Parsed<core::QInstance> parsed = read_qinstance(in);
  ASSERT_FALSE(parsed);
  EXPECT_EQ(parsed.error.line, 2);
}

TEST(IoQInstance, RejectsTrailingJunk) {
  std::istringstream in("0.0 4.0 0.5 3.0 1.0 oops\n");
  EXPECT_FALSE(read_qinstance(in));
}

TEST(IoQInstance, RoundTripsGeneratedInstances) {
  const core::QInstance original =
      gen::random_online(25, 10.0, 0.5, 4.0, 42);
  std::ostringstream out;
  write_qinstance(out, original);
  std::istringstream in(out.str());
  const Parsed<core::QInstance> parsed = read_qinstance(in);
  ASSERT_TRUE(parsed);
  ASSERT_EQ(parsed.value->size(), original.size());
  for (std::size_t i = 0; i < original.size(); ++i) {
    // Default stream precision is 6 significant digits; compare loosely.
    EXPECT_NEAR(parsed.value->jobs()[i].upper_bound,
                original.jobs()[i].upper_bound,
                1e-4 * original.jobs()[i].upper_bound);
  }
}

TEST(IoInstance, ParsesClassicalTriples) {
  std::istringstream in("0 2 4\n1 3 2\n");
  const Parsed<scheduling::Instance> parsed = read_instance(in);
  ASSERT_TRUE(parsed);
  ASSERT_EQ(parsed.value->size(), 2u);
  EXPECT_DOUBLE_EQ(parsed.value->job(1).work, 2.0);
}

TEST(IoInstance, RejectsEmptyWindow) {
  std::istringstream in("2 2 4\n");
  EXPECT_FALSE(read_instance(in));
}

TEST(IoSchedule, WritesSummaryAndPieces) {
  scheduling::Instance inst;
  inst.add(0.0, 2.0, 4.0);
  const scheduling::Schedule s = scheduling::yds(inst);
  std::ostringstream out;
  write_schedule(out, s, 2.0);
  const std::string text = out.str();
  EXPECT_NE(text.find("# energy(alpha=2) = 8"), std::string::npos);
  EXPECT_NE(text.find("# max_speed = 2"), std::string::npos);
  EXPECT_NE(text.find("0 0 2 2"), std::string::npos);
}

TEST(IoQInstance, RejectsNegativeExactLoadWithLineNumber) {
  std::istringstream in(
      "0.0 4.0 0.5 3.0 1.0\n"
      "# a comment, which still counts toward the line number\n"
      "0.0 4.0 0.5 3.0 -1.0\n");  // w* < 0
  const Parsed<core::QInstance> parsed = read_qinstance(in);
  ASSERT_FALSE(parsed);
  EXPECT_EQ(parsed.error.line, 3);
  EXPECT_NE(parsed.error.message.find("w*"), std::string::npos);
}

TEST(IoQInstance, RejectsExactLoadAboveUpperBound) {
  std::istringstream in("0.0 4.0 0.5 3.0 3.5\n");  // w* > w
  const Parsed<core::QInstance> parsed = read_qinstance(in);
  ASSERT_FALSE(parsed);
  EXPECT_EQ(parsed.error.line, 1);
}

TEST(IoQInstance, RejectsDeadlineAtOrBeforeRelease) {
  std::istringstream in(
      "0.0 4.0 0.5 3.0 1.0\n"
      "5.0 5.0 0.5 3.0 1.0\n");  // d == r
  const Parsed<core::QInstance> parsed = read_qinstance(in);
  ASSERT_FALSE(parsed);
  EXPECT_EQ(parsed.error.line, 2);

  std::istringstream reversed("5.0 4.0 0.5 3.0 1.0\n");  // d < r
  EXPECT_FALSE(read_qinstance(reversed));
}

TEST(IoQInstance, RejectsNonNumericColumn) {
  std::istringstream in("0.0 4.0 half 3.0 1.0\n");
  const Parsed<core::QInstance> parsed = read_qinstance(in);
  ASSERT_FALSE(parsed);
  EXPECT_EQ(parsed.error.line, 1);
}

TEST(IoInstance, RejectsWrongColumnCountWithLineNumber) {
  std::istringstream in(
      "0 2 4\n"
      "1 3\n");
  const Parsed<scheduling::Instance> parsed = read_instance(in);
  ASSERT_FALSE(parsed);
  EXPECT_EQ(parsed.error.line, 2);
}

TEST(IoInstance, RejectsNegativeWork) {
  std::istringstream in("0 2 -4\n");
  const Parsed<scheduling::Instance> parsed = read_instance(in);
  ASSERT_FALSE(parsed);
  EXPECT_EQ(parsed.error.line, 1);
}

TEST(IoSchedule, RoundTripsLosslessly) {
  const core::QInstance qinstance =
      gen::random_online(20, 10.0, 0.5, 4.0, 7);
  scheduling::Instance inst;
  for (const core::QJob& job : qinstance.jobs()) {
    inst.add(job.release, job.deadline, job.upper_bound);
  }
  const scheduling::Schedule original = scheduling::yds(inst);

  std::ostringstream out;
  write_schedule(out, original, 2.5);
  std::istringstream in(out.str());
  const Parsed<scheduling::Schedule> parsed =
      read_schedule(in, inst.size());
  ASSERT_TRUE(parsed) << parsed.error.message;

  // write_schedule prints max_digits10 digits, so the round-trip is
  // bit-exact, not merely close.
  EXPECT_EQ(parsed.value->energy(2.5), original.energy(2.5));
  EXPECT_EQ(parsed.value->max_speed(), original.max_speed());
}

TEST(IoSchedule, ReadDerivesJobCountWhenUnspecified) {
  std::istringstream in(
      "# job begin end speed\n"
      "0 0 1 2\n"
      "2 1 3 0.5\n");
  const Parsed<scheduling::Schedule> parsed = read_schedule(in);
  ASSERT_TRUE(parsed) << parsed.error.message;
  EXPECT_DOUBLE_EQ(parsed.value->max_speed(), 2.0);
}

TEST(IoSchedule, ReadRejectsMalformedRows) {
  {
    std::istringstream in("0 0 1\n");  // 3 columns
    const Parsed<scheduling::Schedule> parsed = read_schedule(in);
    ASSERT_FALSE(parsed);
    EXPECT_EQ(parsed.error.line, 1);
  }
  {
    std::istringstream in(
        "0 0 1 2\n"
        "0 3 3 2\n");  // begin == end
    const Parsed<scheduling::Schedule> parsed = read_schedule(in);
    ASSERT_FALSE(parsed);
    EXPECT_EQ(parsed.error.line, 2);
    EXPECT_NE(parsed.error.message.find("begin < end"),
              std::string::npos);
  }
  {
    std::istringstream in("0 0 1 0\n");  // speed == 0
    EXPECT_FALSE(read_schedule(in));
  }
  {
    std::istringstream in("1.5 0 1 2\n");  // fractional job id
    const Parsed<scheduling::Schedule> parsed = read_schedule(in);
    ASSERT_FALSE(parsed);
    EXPECT_NE(parsed.error.message.find("job id"), std::string::npos);
  }
  {
    std::istringstream in("-1 0 1 2\n");  // negative job id
    EXPECT_FALSE(read_schedule(in));
  }
  {
    std::istringstream in("5 0 1 2\n");  // beyond the declared count
    const Parsed<scheduling::Schedule> parsed = read_schedule(in, 3);
    ASSERT_FALSE(parsed);
    EXPECT_NE(parsed.error.message.find("out of range"),
              std::string::npos);
  }
}

TEST(IoDouble, AppendDoubleMatchesOstreamAtMaxDigits10) {
  std::ostringstream ss;
  ss.precision(std::numeric_limits<double>::max_digits10);
  std::string text;
  const auto expect_same = [&](double v) {
    ss.str("");
    ss << v;
    text.clear();
    append_double(text, v);
    EXPECT_EQ(text, ss.str()) << "bits 0x" << std::hex
                              << std::bit_cast<std::uint64_t>(v);
  };

  const std::vector<double> edges = {
      0.0, -0.0, DBL_MAX, -DBL_MAX, DBL_MIN, -DBL_MIN, DBL_TRUE_MIN,
      -DBL_TRUE_MIN, DBL_MIN / 3.0, std::nextafter(DBL_MIN, 0.0), 1.0,
      -1.0, 0.1, 1.0 / 3.0, 1e16, 1e17, 123456789012345678.0, 1e-5, 1e-4,
      std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity(),
      std::numeric_limits<double>::quiet_NaN()};
  for (const double v : edges) expect_same(v);

  // Raw bit patterns cover every exponent (subnormals, NaN payloads,
  // both signs) uniformly.
  Xoshiro256 rng(2024);
  for (int i = 0; i < 1'000'000; ++i) {
    expect_same(std::bit_cast<double>(rng()));
    if (HasFailure()) break;
  }
}

TEST(IoInstance, WriteMatchesAppendAtFullPrecision) {
  scheduling::Instance inst;
  inst.add(0.1, 1.0 / 3.0, 2.0 / 7.0);
  inst.add(1.0, 5.0, 1e-300);
  std::string text;
  append_instance(text, inst);
  EXPECT_EQ(text,
            "# release deadline work\n"
            "0.10000000000000001 0.33333333333333331 0.2857142857142857\n"
            "1 5 1e-300\n");
  std::ostringstream out;
  write_instance(out, inst);
  EXPECT_EQ(out.str(), text);
}

TEST(IoQInstance, EmptyInputYieldsEmptyInstance) {
  std::istringstream in("# only comments\n\n");
  const Parsed<core::QInstance> parsed = read_qinstance(in);
  ASSERT_TRUE(parsed);
  EXPECT_TRUE(parsed.value->empty());
}

}  // namespace
}  // namespace qbss::io
