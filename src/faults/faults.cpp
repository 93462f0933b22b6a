#include "faults/faults.hpp"

#include <chrono>
#include <cstdlib>
#include <sstream>
#include <thread>

#include "obs/log.hpp"
#include "obs/registry.hpp"

namespace qbss::faults {

namespace {

/// splitmix64 finalizer — the per-opportunity decision hash.
std::uint64_t mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Uniform double in [0, 1) from (seed, site, opportunity, clause):
/// thread interleavings change which thread draws an index, never what
/// the index decides.
double decision(std::uint64_t seed, std::size_t site, std::uint64_t op,
                std::size_t clause) {
  const std::uint64_t salt =
      (static_cast<std::uint64_t>(site) << 32) | (clause + 1);
  return static_cast<double>(mix(mix(seed ^ salt) ^ op) >> 11) * 0x1.0p-53;
}

bool parse_number(const std::string& text, double* out) {
  std::istringstream in(text);
  return static_cast<bool>(in >> *out) && in.eof();
}

bool parse_kind(const std::string& name, FaultSpec::Kind* kind) {
  if (name == "read_short") *kind = FaultSpec::Kind::kReadShort;
  else if (name == "write_err") *kind = FaultSpec::Kind::kWriteErr;
  else if (name == "delay") *kind = FaultSpec::Kind::kDelay;
  else if (name == "corrupt_header") *kind = FaultSpec::Kind::kCorruptHeader;
  else if (name == "worker_stall") *kind = FaultSpec::Kind::kWorkerStall;
  else return false;
  return true;
}

void count_fired(FaultSpec::Kind kind) {
  switch (kind) {
    case FaultSpec::Kind::kReadShort:
      QBSS_COUNT("faults.read_short");
      break;
    case FaultSpec::Kind::kWriteErr:
      QBSS_COUNT("faults.write_err");
      break;
    case FaultSpec::Kind::kDelay:
      QBSS_COUNT("faults.delay");
      break;
    case FaultSpec::Kind::kCorruptHeader:
      QBSS_COUNT("faults.corrupt_header");
      break;
    case FaultSpec::Kind::kWorkerStall:
      QBSS_COUNT("faults.worker_stall");
      break;
  }
}

}  // namespace

const char* kind_name(FaultSpec::Kind kind) noexcept {
  switch (kind) {
    case FaultSpec::Kind::kReadShort:
      return "read_short";
    case FaultSpec::Kind::kWriteErr:
      return "write_err";
    case FaultSpec::Kind::kDelay:
      return "delay";
    case FaultSpec::Kind::kCorruptHeader:
      return "corrupt_header";
    case FaultSpec::Kind::kWorkerStall:
      break;
  }
  return "worker_stall";
}

Site FaultSpec::site() const noexcept {
  if (at_store) {
    // Store retarget: read_short misses a record read; write_err,
    // corrupt_header, delay and worker_stall all land on the append
    // path (a failed, garbled, slow or stalled disk write).
    return kind == Kind::kReadShort ? Site::kStoreRead : Site::kStoreWrite;
  }
  switch (kind) {
    case Kind::kReadShort:
      return Site::kRead;
    case Kind::kWriteErr:
    case Kind::kCorruptHeader:
      return Site::kWrite;
    case Kind::kDelay:
    case Kind::kWorkerStall:
      break;
  }
  return Site::kCompute;
}

bool parse_plan(const std::string& text, FaultPlan* plan,
                std::string* error) {
  FaultPlan out;
  out.text = text;
  std::stringstream clauses(text);
  std::string clause;
  while (std::getline(clauses, clause, ',')) {
    if (clause.empty()) continue;
    std::stringstream tokens(clause);
    std::string name;
    std::getline(tokens, name, ':');

    // A bare `key=value` clause is a plan-wide setting (only `seed`).
    if (const std::size_t eq = name.find('='); eq != std::string::npos) {
      const std::string key = name.substr(0, eq);
      double value = 0.0;
      if (key != "seed" || !parse_number(name.substr(eq + 1), &value) ||
          value < 0.0) {
        if (error) *error = "bad plan setting: " + name;
        return false;
      }
      out.seed = static_cast<std::uint64_t>(value);
      continue;
    }

    FaultSpec spec;
    if (!parse_kind(name, &spec.kind)) {
      if (error) *error = "unknown fault: " + name;
      return false;
    }
    // Defaults that make the short spellings useful: a bare `delay`
    // still delays, a bare `worker_stall` still stalls mid-run.
    if (spec.kind == FaultSpec::Kind::kDelay) spec.ms = 10.0;
    if (spec.kind == FaultSpec::Kind::kWorkerStall) {
      spec.ms = 250.0;
      spec.after = 4;
    }
    bool saw_p = false;
    bool saw_after = false;
    std::string param;
    while (std::getline(tokens, param, ':')) {
      const std::size_t eq = param.find('=');
      if (eq == std::string::npos) {
        if (error) *error = "bad fault parameter: " + param;
        return false;
      }
      // `at` takes a symbolic value; everything else is numeric.
      if (param.substr(0, eq) == "at") {
        const std::string where = param.substr(eq + 1);
        if (where == "store") spec.at_store = true;
        else if (where == "wire") spec.at_store = false;
        else {
          if (error) *error = "bad fault parameter: " + param;
          return false;
        }
        continue;
      }
      double value = 0.0;
      if (!parse_number(param.substr(eq + 1), &value)) {
        if (error) *error = "bad fault parameter: " + param;
        return false;
      }
      const std::string key = param.substr(0, eq);
      if (key == "p" && value >= 0.0 && value <= 1.0) {
        spec.p = value;
        saw_p = true;
      } else if (key == "after" && value >= 0.0) {
        spec.after = static_cast<std::uint64_t>(value);
        saw_after = true;
      } else if (key == "ms" && value >= 0.0) {
        spec.ms = value;
      } else {
        if (error) *error = "bad fault parameter: " + param;
        return false;
      }
    }
    // One-shot faults: an explicit stall, or an `after`-gated clause
    // with no probability (e.g. `write_err:after=100` fails one write).
    spec.once =
        spec.kind == FaultSpec::Kind::kWorkerStall || (saw_after && !saw_p);
    out.specs.push_back(spec);
  }
  *plan = std::move(out);
  return true;
}

void Injector::configure(FaultPlan plan) {
  const std::lock_guard<std::mutex> lock(mu_);
  plan_ = std::move(plan);
  fired_.assign(plan_.specs.size(), 0);
  for (auto& ops : site_ops_) ops.store(0, std::memory_order_relaxed);
  injected_.store(0, std::memory_order_relaxed);
  enabled_.store(!plan_.empty(), std::memory_order_release);
}

Action Injector::fire(Site site) {
  Action action;
  if (!enabled()) return action;
  const std::size_t si = static_cast<std::size_t>(site);
  const std::uint64_t op = site_ops_[si].fetch_add(1,
                                                   std::memory_order_relaxed);
  const std::lock_guard<std::mutex> lock(mu_);
  for (std::size_t i = 0; i < plan_.specs.size(); ++i) {
    const FaultSpec& spec = plan_.specs[i];
    if (spec.site() != site || op < spec.after) continue;
    if (spec.once) {
      if (fired_[i] > 0) continue;
    } else if (spec.p < 1.0 &&
               decision(plan_.seed, si, op, i) >= spec.p) {
      continue;
    }
    ++fired_[i];
    injected_.fetch_add(1, std::memory_order_relaxed);
    count_fired(spec.kind);
    action.fired_kinds |= 1u << static_cast<std::uint32_t>(spec.kind);
    switch (spec.kind) {
      case FaultSpec::Kind::kReadShort:
      case FaultSpec::Kind::kWriteErr:
        action.drop_connection = true;
        break;
      case FaultSpec::Kind::kCorruptHeader:
        action.corrupt_header = true;
        break;
      case FaultSpec::Kind::kDelay:
      case FaultSpec::Kind::kWorkerStall:
        action.delay_ms += spec.ms;
        break;
    }
  }
  return action;
}

FaultPlan Injector::plan() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return plan_;
}

Injector& injector() {
  static Injector instance;
  return instance;
}

bool configure_from_env(std::string* error) {
  const char* env = std::getenv("QBSS_FAULTS");
  if (env == nullptr || *env == '\0') return true;
  FaultPlan plan;
  if (!parse_plan(env, &plan, error)) return false;
  injector().configure(std::move(plan));
  return true;
}

void log_fault_fired(const Action& action, const char* site,
                     std::uint64_t trace_id, std::uint64_t conn_id) {
  using A = obs::LogArg;
  for (std::uint32_t kind = 0; kind < FaultSpec::kKindCount; ++kind) {
    if ((action.fired_kinds & (1u << kind)) == 0) continue;
    QBSS_LOG_WARN("faults.fired", trace_id, A("site", site),
                  A("kind", kind_name(static_cast<FaultSpec::Kind>(kind))),
                  A("conn", conn_id), A("delay_ms", action.delay_ms));
  }
}

void sleep_ms(double ms) {
  std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(ms));
}

}  // namespace qbss::faults
