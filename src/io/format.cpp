#include "io/format.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <ios>
#include <istream>
#include <limits>
#include <ostream>
#include <sstream>
#include <vector>

namespace qbss::io {

namespace {

/// Splits a data line into doubles; returns false on malformed input.
bool parse_columns(const std::string& line, std::vector<double>& out) {
  out.clear();
  std::istringstream ss(line);
  double v = 0.0;
  while (ss >> v) out.push_back(v);
  if (!ss.eof()) return false;  // trailing junk
  return true;
}

/// Strips comments and whitespace; true iff something remains.
bool data_line(std::string& line) {
  const std::size_t hash = line.find('#');
  if (hash != std::string::npos) line.erase(hash);
  const std::size_t first = line.find_first_not_of(" \t\r");
  if (first == std::string::npos) return false;
  line.erase(0, first);
  return true;
}

template <typename T, typename AddFn>
Parsed<T> read_rows(std::istream& in, std::size_t columns, AddFn add) {
  T result;
  std::string line;
  int number = 0;
  while (std::getline(in, line)) {
    ++number;
    if (!data_line(line)) continue;
    std::vector<double> cols;
    if (!parse_columns(line, cols) || cols.size() != columns) {
      std::ostringstream msg;
      msg << "expected " << columns << " numeric columns";
      return {std::nullopt, {number, msg.str()}};
    }
    std::string error = add(result, cols);
    if (!error.empty()) return {std::nullopt, {number, std::move(error)}};
  }
  return {std::move(result), {}};
}

}  // namespace

Parsed<core::QInstance> read_qinstance(std::istream& in) {
  return read_rows<core::QInstance>(
      in, 5, [](core::QInstance& inst, const std::vector<double>& c) {
        const core::QJob job{c[0], c[1], c[2], c[3], c[4]};
        if (!job.valid()) {
          return std::string(
              "invalid job: need 0 <= r < d, 0 < c <= w, 0 <= w* <= w");
        }
        inst.add(c[0], c[1], c[2], c[3], c[4]);
        return std::string();
      });
}

Parsed<scheduling::Instance> read_instance(std::istream& in) {
  return read_rows<scheduling::Instance>(
      in, 3, [](scheduling::Instance& inst, const std::vector<double>& c) {
        const scheduling::ClassicalJob job{c[0], c[1], c[2]};
        if (!job.valid()) {
          return std::string("invalid job: need 0 <= r < d, w >= 0");
        }
        inst.add(c[0], c[1], c[2]);
        return std::string();
      });
}

void write_qinstance(std::ostream& out, const core::QInstance& instance) {
  out << "# release deadline query_cost upper_bound exact_load\n";
  for (const core::QJob& j : instance.jobs()) {
    out << j.release << ' ' << j.deadline << ' ' << j.query_cost << ' '
        << j.upper_bound << ' ' << j.exact_load << '\n';
  }
}

void append_double(std::string& out, double v) {
  char buf[32];  // "-d.dddddddddddddddde-308" needs 24
  const std::to_chars_result r =
      std::to_chars(buf, buf + sizeof buf, v, std::chars_format::general,
                    std::numeric_limits<double>::max_digits10);
  out.append(buf, r.ptr);
}

void append_instance(std::string& out, const scheduling::Instance& instance) {
  out += "# release deadline work\n";
  for (const scheduling::ClassicalJob& j : instance.jobs()) {
    append_double(out, j.release);
    out += ' ';
    append_double(out, j.deadline);
    out += ' ';
    append_double(out, j.work);
    out += '\n';
  }
}

void write_instance(std::ostream& out, const scheduling::Instance& instance) {
  std::string text;
  append_instance(text, instance);
  out.write(text.data(), static_cast<std::streamsize>(text.size()));
}

void append_schedule(std::string& out, const scheduling::Schedule& schedule,
                     double alpha) {
  out += "# energy(alpha=";
  append_double(out, alpha);
  out += ") = ";
  append_double(out, schedule.energy(alpha));
  out += "\n# max_speed = ";
  append_double(out, schedule.max_speed());
  out += "\n# job begin end speed\n";
  for (std::size_t j = 0; j < schedule.job_count(); ++j) {
    const std::string id = std::to_string(j);
    for (const Segment& p :
         schedule.rate(static_cast<scheduling::JobId>(j)).pieces()) {
      out += id;
      out += ' ';
      append_double(out, p.span.begin);
      out += ' ';
      append_double(out, p.span.end);
      out += ' ';
      append_double(out, p.value);
      out += '\n';
    }
  }
}

void write_schedule(std::ostream& out, const scheduling::Schedule& schedule,
                    double alpha) {
  std::string text;
  append_schedule(text, schedule, alpha);
  out.write(text.data(), static_cast<std::streamsize>(text.size()));
}

Parsed<scheduling::Schedule> read_schedule(std::istream& in,
                                           std::size_t job_count) {
  struct Piece {
    std::size_t job;
    Interval span;
    Speed speed;
  };
  std::vector<Piece> pieces;
  std::size_t max_id = 0;
  bool any = false;

  std::string line;
  int number = 0;
  while (std::getline(in, line)) {
    ++number;
    if (!data_line(line)) continue;
    std::vector<double> cols;
    if (!parse_columns(line, cols) || cols.size() != 4) {
      return {std::nullopt, {number, "expected 4 numeric columns"}};
    }
    const double id = cols[0];
    if (id < 0.0 || id != std::floor(id) ||
        id > static_cast<double>(std::numeric_limits<int>::max())) {
      return {std::nullopt, {number, "job id must be a small non-negative "
                                     "integer"}};
    }
    const std::size_t job = static_cast<std::size_t>(id);
    if (job_count != 0 && job >= job_count) {
      return {std::nullopt, {number, "job id out of range"}};
    }
    if (!(cols[1] < cols[2])) {
      return {std::nullopt, {number, "need begin < end"}};
    }
    if (cols[3] <= 0.0) {
      return {std::nullopt, {number, "need speed > 0"}};
    }
    pieces.push_back(Piece{job, Interval{cols[1], cols[2]}, cols[3]});
    max_id = std::max(max_id, job);
    any = true;
  }

  const std::size_t jobs = job_count != 0 ? job_count : (any ? max_id + 1 : 0);
  scheduling::ScheduleBuilder builder(jobs);
  for (const Piece& p : pieces) {
    builder.add_rate(static_cast<scheduling::JobId>(p.job), p.span, p.speed);
  }
  return {std::move(builder).build(), {}};
}

}  // namespace qbss::io
