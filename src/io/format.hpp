// Plain-text instance and schedule formats, for the CLI tools and for
// shipping instances between runs.
//
// Instance format (one job per line, '#' comments, blank lines ignored):
//
//     # release deadline query_cost upper_bound exact_load
//     0.0  4.0  0.5  3.0  1.0
//     1.0  5.0  0.4  2.0  2.0
//
// Classical instances use three columns (release deadline work).
// Schedules round-trip: one rate piece per line (job begin end speed),
// preceded by summary comments; read_schedule parses the same format
// back (the loadgen re-validates served schedules through it).
#pragma once

#include <iosfwd>
#include <optional>
#include <string>

#include "qbss/qinstance.hpp"
#include "scheduling/schedule.hpp"

namespace qbss::io {

/// Parse failure: offending line and message.
struct ParseError {
  int line = 0;
  std::string message;
};

/// Either a value or a parse error.
template <typename T>
struct Parsed {
  std::optional<T> value;
  ParseError error;

  explicit operator bool() const noexcept { return value.has_value(); }
};

/// Reads a QBSS instance (5 columns) from a stream.
[[nodiscard]] Parsed<core::QInstance> read_qinstance(std::istream& in);

/// Reads a classical instance (3 columns) from a stream.
[[nodiscard]] Parsed<scheduling::Instance> read_instance(std::istream& in);

/// Writes a QBSS instance in the 5-column format.
void write_qinstance(std::ostream& out, const core::QInstance& instance);

/// Appends `v` as std::to_chars(general, 17): the text an ostream prints
/// at max_digits10 precision, so it parses back to the same double.
void append_double(std::string& out, double v);

/// Appends a classical instance in the 3-column format, every number at
/// max_digits10 precision.
void append_instance(std::string& out, const scheduling::Instance& instance);

/// Writes append_instance's text to a stream.
void write_instance(std::ostream& out,
                    const scheduling::Instance& instance);

/// Appends a fluid schedule: summary comments (energy at `alpha`, max
/// speed), then one `job begin end speed` line per rate piece. Numbers
/// carry max_digits10 precision so read_schedule round-trips losslessly.
void append_schedule(std::string& out, const scheduling::Schedule& schedule,
                     double alpha);

/// Writes append_schedule's text to a stream.
void write_schedule(std::ostream& out, const scheduling::Schedule& schedule,
                    double alpha);

/// Reads a schedule dump written by write_schedule: comments and blank
/// lines are ignored, each data line is `job begin end speed` with an
/// integral job id. `job_count` fixes the number of rate functions (ids
/// must stay below it); 0 derives it from the largest id seen. Pieces of
/// one job may repeat or overlap — rates accumulate, as in
/// ScheduleBuilder.
[[nodiscard]] Parsed<scheduling::Schedule> read_schedule(
    std::istream& in, std::size_t job_count = 0);

}  // namespace qbss::io
