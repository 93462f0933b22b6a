// qbss::faults — deterministic, seeded fault injection for the service
// layer.
//
// A FaultPlan is parsed from a spec string (CLI `--faults` or the
// QBSS_FAULTS environment variable) and installed into the process-wide
// Injector. Service code marks injection opportunities with the
// QBSS_FAULT(site) macro, which returns an Action describing what the
// site must do: nothing (the overwhelmingly common case), tear the
// connection, corrupt the outgoing frame header, or sleep. Mirroring the
// obs macro design, compiling with QBSS_FAULTS_OFF (CMake:
// -DQBSS_FAULTS=OFF) turns the macro into a no-action constant the
// optimizer deletes; the classes themselves always compile, so plan
// parsing and tooling keep linking.
//
// Plan grammar (docs/SERVICE.md has the full story):
//
//     plan   := clause ("," clause)*
//     clause := name (":" key "=" value)*  |  "seed=" N
//     name   := read_short | write_err | delay | corrupt_header
//             | worker_stall
//
// e.g. `read_short:p=0.05,write_err:after=100,delay:ms=50,
// corrupt_header:p=0.01,worker_stall`. Parameters: `p` (per-opportunity
// firing probability), `after` (skip the first N opportunities at the
// site), `ms` (delay magnitude), `at` (`wire`, the default, or `store`:
// retarget the clause at the segment-store read/write sites, e.g.
// `corrupt_header:at=store:p=0.05` writes records recovery must skip).
// `worker_stall` — and any clause given `after` without `p` — fires
// exactly once. Decisions are a pure function of (seed, site,
// opportunity index), so a plan replays identically for a fixed arrival
// order regardless of thread count.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace qbss::faults {

/// Where in the service an injection opportunity occurs.
enum class Site : std::uint32_t {
  kRead = 0,        ///< server about to read a request frame
  kWrite = 1,       ///< server about to write a response frame
  kCompute = 2,     ///< worker about to run a solve
  kStoreRead = 3,   ///< segment store about to read a record
  kStoreWrite = 4,  ///< segment store about to append a record
};
inline constexpr std::size_t kSiteCount = 5;

/// What one opportunity must do. Default-constructed = no fault; the
/// fields compose (a delay and a drop can fire on the same opportunity).
struct Action {
  bool drop_connection = false;  ///< tear the stream instead of the io
  bool corrupt_header = false;   ///< flip the outgoing frame's magic
  double delay_ms = 0.0;         ///< sleep this long before proceeding
  /// One bit per FaultSpec::Kind that fired on this opportunity, so the
  /// site can log a `faults.fired` event per clause with its name.
  std::uint32_t fired_kinds = 0;
  [[nodiscard]] bool any() const noexcept {
    return drop_connection || corrupt_header || delay_ms > 0.0;
  }
};

/// One parsed plan clause.
struct FaultSpec {
  enum class Kind {
    kReadShort,      ///< drop the connection at a read opportunity
    kWriteErr,       ///< drop the connection at a write opportunity
    kDelay,          ///< sleep `ms` at a compute opportunity
    kCorruptHeader,  ///< corrupt the frame at a write opportunity
    kWorkerStall,    ///< one long sleep at a compute opportunity
  };
  static constexpr std::size_t kKindCount = 5;
  Kind kind = Kind::kDelay;
  double p = 1.0;           ///< firing probability per opportunity
  std::uint64_t after = 0;  ///< skip the first `after` opportunities
  double ms = 0.0;          ///< delay magnitude (kDelay / kWorkerStall)
  bool once = false;        ///< fire at most once over the process life
  /// `at=store`: the clause fires at the segment-store sites instead of
  /// the wire/compute ones (read_short -> kStoreRead, everything else
  /// -> kStoreWrite).
  bool at_store = false;
  [[nodiscard]] Site site() const noexcept;
};

/// The plan-grammar spelling of a clause kind ("read_short", ...).
[[nodiscard]] const char* kind_name(FaultSpec::Kind kind) noexcept;

/// A parsed fault plan. Empty (no clauses) disables injection.
struct FaultPlan {
  std::uint64_t seed = 0x5eedULL;
  std::vector<FaultSpec> specs;
  std::string text;  ///< the spec string it was parsed from
  [[nodiscard]] bool empty() const noexcept { return specs.empty(); }
};

/// Parses a plan spec string; false + *error on an unknown clause name,
/// an unknown parameter, or an unparsable value. An empty string parses
/// to an empty (disabled) plan.
[[nodiscard]] bool parse_plan(const std::string& text, FaultPlan* plan,
                              std::string* error);

/// The process-wide injection engine. fire() is cheap when no plan is
/// installed (one relaxed load); with a plan, each call consumes one
/// opportunity index at its site and evaluates every matching clause.
class Injector {
 public:
  /// Installs `plan` and resets every opportunity and firing counter.
  /// An empty plan disables injection.
  void configure(FaultPlan plan);

  [[nodiscard]] bool enabled() const noexcept {
    return enabled_.load(std::memory_order_acquire);
  }

  /// Consumes one opportunity at `site` and returns the composed action.
  [[nodiscard]] Action fire(Site site);

  /// Copy of the installed plan (for manifests and reports).
  [[nodiscard]] FaultPlan plan() const;

  /// Faults injected since the last configure().
  [[nodiscard]] std::uint64_t injected() const noexcept {
    return injected_.load(std::memory_order_relaxed);
  }

 private:
  mutable std::mutex mu_;
  FaultPlan plan_;
  std::vector<std::uint64_t> fired_;  ///< per-spec firing counts
  std::atomic<bool> enabled_{false};
  std::atomic<std::uint64_t> site_ops_[kSiteCount]{};
  std::atomic<std::uint64_t> injected_{0};
};

/// The process-wide injector used by the QBSS_FAULT macro.
Injector& injector();

/// Configures the global injector from the QBSS_FAULTS environment
/// variable. An absent or empty variable is success (injection stays
/// off); a malformed plan is false + *error.
[[nodiscard]] bool configure_from_env(std::string* error);

/// One `faults.fired` warn event per clause kind that fired on this
/// opportunity, carrying the trace id of the request it hit (0 = none)
/// so the flight recording correlates the fault to its req events.
void log_fault_fired(const Action& action, const char* site,
                     std::uint64_t trace_id = 0, std::uint64_t conn_id = 0);

/// Blocks the calling thread for `ms` milliseconds (fault delays).
void sleep_ms(double ms);

}  // namespace qbss::faults

#ifndef QBSS_FAULTS_OFF

/// Consumes one injection opportunity at `site` (a faults::Site) and
/// yields the faults::Action the site must apply.
#define QBSS_FAULT(site) ::qbss::faults::injector().fire(site)

#else  // QBSS_FAULTS_OFF: no injector call; the no-action constant folds.

#define QBSS_FAULT(site) \
  (static_cast<void>(site), ::qbss::faults::Action{})

#endif  // QBSS_FAULTS_OFF
