#include "workloads.hpp"

#include <sys/prctl.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <thread>

#include "io/format.hpp"
#include "layers.hpp"
#include "obs/diff.hpp"
#include "obs/trace.hpp"
#include "route/router.hpp"
#include "scheduling/schedule.hpp"
#include "stats.hpp"
#include "streams.hpp"
#include "svc/client.hpp"
#include "svc/server.hpp"

namespace perfbench {

namespace svc = qbss::svc;
namespace route = qbss::route;
namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

namespace {

/// Fresh deployments the timed phase is split over (see measure()).
constexpr int kSegments = 7;
/// Per-call socket timeout: a wedged server fails the run instead of
/// hanging it.
constexpr double kCallTimeoutMs = 10000.0;
/// Schedule dumps re-validated per miss_mix run.
constexpr std::size_t kValidatedDumps = 64;
/// Failure descriptions kept for the report.
constexpr std::size_t kMaxProblems = 8;

/// Latency limits for bench.slo_rate_rps: each closed loop offers exactly
/// what it achieves, so it meets its limit at its own throughput or at
/// no rate.
constexpr double kHitP99LimitUs = 2000.0;
constexpr double kMissP99LimitUs = 20000.0;
constexpr double kFleetP99LimitUs = 20000.0;

// fleet_zipf's open-loop probe in the traced run: Poisson arrivals at a
// fixed rate, each request timed from when it was due.
constexpr double kFleetOpenRate = 1500.0;
/// A probe whose generator falls this far behind is overloaded; its
/// remaining arrivals are not sent.
constexpr double kAbortLagUs = 100000.0;

/// " v1 v2 ..." rounded to whole numbers, for the table's notes.
std::string listed(const std::vector<double>& values) {
  std::string out;
  for (const double v : values) {
    out += ' ';
    out += std::to_string(std::lround(v));
  }
  return out;
}

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) +
           static_cast<double>(t.tv_usec) * 1e-6;
  };
  return tv(usage.ru_utime) + tv(usage.ru_stime);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// What a workload deploys.
struct Plan {
  std::size_t servers = 1;
  std::size_t workers = 2;
  std::size_t cache_entries = 1024;
  std::size_t cache_shards = 8;
  bool disk_tier = false;
  bool router = false;
  std::size_t connections = 2;
  /// Set-ups per run; setup_s is their median. A set-up takes tens of
  /// milliseconds on one server and about a second on the fleet.
  int setups = 25;
};

Plan plan_for(const std::string& workload) {
  Plan plan;
  if (workload == "miss_mix") {
    plan.cache_entries = 512;  // smaller than the run: put evicts
  } else if (workload == "fleet_zipf") {
    plan.servers = 2;
    plan.workers = 1;
    plan.cache_entries = 256;  // fleet memory 512 << kFleetPool keys
    plan.cache_shards = 4;
    plan.disk_tier = true;
    plan.router = true;
    plan.connections = 3;
    plan.setups = 5;
  }
  return plan;
}

/// The service as one workload deploys it, plus the benchmark's client
/// connections to its front (the router, or the single server).
struct Deployment {
  std::vector<std::unique_ptr<svc::Server>> servers;
  std::vector<std::pair<std::string, svc::Endpoint>> backends;
  std::unique_ptr<route::Router> router;
  svc::Endpoint front;
  std::vector<std::unique_ptr<svc::Client>> clients;

  Deployment() = default;
  Deployment(const Deployment&) = delete;
  Deployment& operator=(const Deployment&) = delete;
  ~Deployment() { stop(); }

  void stop() {
    clients.clear();
    if (router) {
      router->shutdown();
      router->wait();
      router.reset();
    }
    for (auto& server : servers) {
      server->shutdown();
      server->wait();
    }
    servers.clear();
    backends.clear();
  }
};

svc::Endpoint unix_endpoint(const fs::path& path) {
  svc::Endpoint endpoint;
  endpoint.socket_path = path.string();
  return endpoint;
}

bool connect_client(const svc::Endpoint& endpoint, svc::Client* client,
                    std::string* error) {
  client->set_timeout_ms(kCallTimeoutMs);
  return client->connect(endpoint, error);
}

bool start_deployment(const Plan& plan, const fs::path& dir, Deployment* d,
                      std::string* error) {
  for (std::size_t i = 0; i < plan.servers; ++i) {
    const std::string name = "b" + std::to_string(i);
    svc::ServerConfig config;
    config.socket_path = (dir / (name + ".sock")).string();
    config.workers = plan.workers;
    config.cache_entries = plan.cache_entries;
    config.cache_shards = plan.cache_shards;
    // A 4 s stats window, so window percentiles cover the measured phase
    // rather than set-up.
    config.stats_interval_ms = 500.0;
    if (plan.disk_tier) config.cache_dir = (dir / (name + "-cache")).string();
    auto server = std::make_unique<svc::Server>(config);
    if (!server->start(error)) return false;
    d->servers.push_back(std::move(server));
    d->backends.emplace_back(name, unix_endpoint(config.socket_path));
  }
  d->front = d->backends.front().second;
  if (plan.router) {
    route::RouterConfig config;
    config.socket_path = (dir / "router.sock").string();
    config.stats_interval_ms = 500.0;
    for (const auto& [name, endpoint] : d->backends) {
      route::BackendSpec spec;
      spec.name = name;
      spec.endpoint = endpoint;
      config.topology.backends.push_back(spec);
    }
    d->router = std::make_unique<route::Router>(config);
    if (!d->router->start(error)) return false;
    d->front = unix_endpoint(config.socket_path);
  }
  for (std::size_t c = 0; c < plan.connections; ++c) {
    auto client = std::make_unique<svc::Client>();
    if (!connect_client(d->front, client.get(), error)) return false;
    d->clients.push_back(std::move(client));
  }
  return true;
}

/// Sends requests [0, count) once each over every client connection in
/// parallel; payloads[i] receives request i's ok-payload. Any non-ok
/// outcome fails set-up.
bool warm(Deployment& d, std::size_t count,
          const std::function<svc::Request(std::size_t)>& make,
          std::vector<std::string>* payloads, std::string* error) {
  if (payloads != nullptr) payloads->assign(count, std::string());
  std::atomic<std::size_t> next{0};
  std::mutex error_mu;
  std::string first_error;
  std::vector<std::thread> threads;
  for (auto& client : d.clients) {
    threads.emplace_back([&, c = client.get()] {
      svc::Client::Reply reply;
      std::string err;
      for (std::size_t i = next++; i < count; i = next++) {
        const svc::Request request = make(i);
        if (!c->call(request, &reply, &err) ||
            reply.status != svc::Status::kOk) {
          const std::lock_guard<std::mutex> lock(error_mu);
          if (first_error.empty()) {
            first_error = "warm-up request " + std::to_string(i) +
                          " failed: " + (err.empty() ? reply.payload : err);
          }
          return;
        }
        if (payloads != nullptr) (*payloads)[i] = reply.payload;
      }
    });
  }
  for (auto& t : threads) t.join();
  if (!first_error.empty()) {
    *error = first_error;
    return false;
  }
  return true;
}

/// One ok reply: when it completed (us after the phase start) and its
/// latency. Eight bytes, so the benchmark's own memory stays small next
/// to the service's in peak_rss_mb.
struct Sample {
  std::uint32_t done_us = 0;
  float latency_us = 0.0f;
};

/// Per-connection request accounting, merged after the phase.
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t ok = 0;
  std::uint64_t shed = 0;
  std::uint64_t errors = 0;
  std::uint64_t transport = 0;
  std::uint64_t mismatches = 0;
  std::uint64_t disk_hits = 0;  ///< replies flagged as disk-tier hits
  std::vector<Sample> samples;  ///< every ok reply, exact
  std::vector<double> lag_us;   ///< open loop: send time minus due time
  std::vector<std::string> problems;

  void note(std::string problem) {
    if (problems.size() < kMaxProblems) problems.push_back(std::move(problem));
  }
  [[nodiscard]] std::uint64_t failed() const {
    return shed + errors + transport + mismatches;
  }
  void absorb(Tally&& other) {
    attempted += other.attempted;
    ok += other.ok;
    shed += other.shed;
    errors += other.errors;
    transport += other.transport;
    mismatches += other.mismatches;
    disk_hits += other.disk_hits;
    samples.insert(samples.end(), other.samples.begin(), other.samples.end());
    lag_us.insert(lag_us.end(), other.lag_us.begin(), other.lag_us.end());
    for (std::string& p : other.problems) note(std::move(p));
  }
};

/// One measured phase: every reply, the length of the timed window and
/// the process CPU spent in it.
struct Phase {
  Tally tally;
  double seconds = 0.0;
  double cpu_s = 0.0;  ///< process user+system CPU over the window

  /// Latencies of the ok replies that completed inside the window.
  [[nodiscard]] std::vector<double> in_window() const {
    const auto end_us = static_cast<std::uint64_t>(seconds * 1e6);
    std::vector<double> out;
    out.reserve(tally.samples.size());
    for (const Sample& s : tally.samples) {
      if (s.done_us <= end_us) out.push_back(s.latency_us);
    }
    return out;
  }

  /// Latencies of every ok reply, including those completed after the
  /// window (the open loop's last arrivals).
  [[nodiscard]] std::vector<double> all() const {
    std::vector<double> out;
    out.reserve(tally.samples.size());
    for (const Sample& s : tally.samples) out.push_back(s.latency_us);
    return out;
  }
};

/// Builds (or points at) request `i` of the stream for connection
/// `conn`; `scratch` is that connection's own buffer.
using MakeFn = std::function<const svc::Request&(
    std::size_t conn, std::uint64_t i, svc::Request* scratch)>;
/// Checks the ok-reply to request `i` on connection `conn`; false = a
/// correctness mismatch.
using CheckFn = std::function<bool(std::size_t conn, std::uint64_t i,
                                   const svc::Client::Reply& reply)>;

/// Counts one call's outcome. True when the reply is an ok payload.
bool account(bool sent, const svc::Client::Reply& reply,
             const std::string& error, std::uint64_t i, Tally* t) {
  ++t->attempted;
  if (!sent) {
    ++t->transport;
    t->note("request " + std::to_string(i) + " transport: " + error);
    return false;
  }
  if (reply.status == svc::Status::kShed) {
    ++t->shed;
    t->note("request " + std::to_string(i) + " shed: " + reply.payload);
    return false;
  }
  if (reply.status != svc::Status::kOk) {
    ++t->errors;
    t->note("request " + std::to_string(i) + " error: " + reply.payload);
    return false;
  }
  ++t->ok;
  if (reply.disk_hit) ++t->disk_hits;
  return true;
}

/// After a transport failure the connection is dead; reconnect once.
bool reconnect(svc::Client* client, const svc::Endpoint& endpoint,
               Tally* t) {
  client->close();
  std::string error;
  if (connect_client(endpoint, client, &error)) return true;
  t->note("reconnect failed: " + error);
  return false;
}

/// Runs one phase of `seconds` from `start`: `body(c, tally)` on one
/// thread per connection, while this thread reads process CPU at the
/// window's start and end.
Phase run_phase(Deployment& d, Clock::time_point start, double seconds,
                const std::function<void(std::size_t, Tally*)>& body) {
  Phase phase;
  phase.seconds = seconds;
  std::vector<Tally> tallies(d.clients.size());
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < d.clients.size(); ++c) {
    threads.emplace_back([&, c] { body(c, &tallies[c]); });
  }
  std::this_thread::sleep_until(start);
  const double cpu_start = cpu_seconds();
  std::this_thread::sleep_until(
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds)));
  phase.cpu_s = cpu_seconds() - cpu_start;
  for (auto& t : threads) t.join();
  for (Tally& t : tallies) phase.tally.absorb(std::move(t));
  return phase;
}

Sample sample(Clock::time_point start, Clock::time_point done,
              double latency_us) {
  Sample s;
  s.done_us = done <= start
                  ? 0
                  : static_cast<std::uint32_t>(
                        std::chrono::duration_cast<std::chrono::microseconds>(
                            done - start)
                            .count());
  s.latency_us = static_cast<float>(latency_us);
  return s;
}

/// Closed loop: each connection sends its next request when the previous
/// one is answered, until `seconds` have passed.
Phase closed_loop(Deployment& d, double seconds, const MakeFn& make,
                  const CheckFn& check, bool trace_spans) {
  std::atomic<std::uint64_t> next{0};
  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(1);
  const Clock::time_point end =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  return run_phase(d, start, seconds, [&](std::size_t c, Tally* t) {
    svc::Client& client = *d.clients[c];
    svc::Request scratch;
    svc::Client::Reply reply;
    std::string error;
    std::this_thread::sleep_until(start);
    while (Clock::now() < end) {
      const std::uint64_t i = next++;
      const svc::Request& request = make(c, i, &scratch);
      const std::uint64_t t0 = qbss::obs::now_ns();
      const bool sent = client.call(request, &reply, &error);
      const std::uint64_t t1 = qbss::obs::now_ns();
      const Clock::time_point done = Clock::now();
      if (!account(sent, reply, error, i, t)) {
        if (!sent && !reconnect(&client, d.front, t)) return;
        continue;
      }
      t->samples.push_back(
          sample(start, done, static_cast<double>(t1 - t0) / 1e3));
      if (trace_spans) {
        qbss::obs::trace_emit_request("bench.request", t0, t1, reply.trace_id);
      }
      if (!check(c, i, reply)) {
        ++t->mismatches;
        t->note("request " + std::to_string(i) + " payload mismatch");
      }
    }
  });
}

/// Open loop: request k is due at start + arrivals[k].due_ns whether or
/// not earlier ones were answered; up to one request per connection is
/// in flight, and each is timed from when it was due. `seconds` is the
/// arrival horizon.
Phase open_loop(Deployment& d, const std::vector<Arrival>& arrivals,
                double seconds, const MakeFn& make, const CheckFn& check,
                bool trace_spans) {
  std::atomic<std::uint64_t> next{0};
  std::atomic<bool> abort{false};
  // A short lead so the first arrivals are not already late.
  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(2);
  return run_phase(d, start, seconds, [&](std::size_t c, Tally* t) {
    // Wake-ups within ~1 us of the due time instead of the default
    // 50 us timer slack, so the generator itself adds little lag.
    prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
    svc::Client& client = *d.clients[c];
    svc::Request scratch;
    svc::Client::Reply reply;
    std::string error;
    for (std::uint64_t k = next++; k < arrivals.size() && !abort; k = next++) {
      const Clock::time_point due =
          start + std::chrono::nanoseconds(arrivals[k].due_ns);
      std::this_thread::sleep_until(due);
      const svc::Request& request = make(c, k, &scratch);
      const Clock::time_point sent_at = Clock::now();
      const std::uint64_t t0 = qbss::obs::now_ns();
      const bool sent = client.call(request, &reply, &error);
      const std::uint64_t t1 = qbss::obs::now_ns();
      const Clock::time_point done = Clock::now();
      const double lag_us =
          std::chrono::duration<double, std::micro>(sent_at - due).count();
      t->lag_us.push_back(lag_us);
      if (lag_us > kAbortLagUs) abort = true;
      if (!account(sent, reply, error, k, t)) {
        if (!sent && !reconnect(&client, d.front, t)) return;
        continue;
      }
      t->samples.push_back(sample(
          start, done,
          std::chrono::duration<double, std::micro>(done - due).count()));
      if (trace_spans) {
        qbss::obs::trace_emit_request("bench.request", t0, t1, reply.trace_id);
      }
      if (!check(c, k, reply)) {
        ++t->mismatches;
        t->note("arrival " + std::to_string(k) + " payload mismatch");
      }
    }
  });
}

/// Solves `count` requests in-process on all cores; out[i] is request
/// i's canonical payload (or "!" + the error).
std::vector<std::string> solve_in_process(
    std::size_t count, const std::function<svc::Request(std::size_t)>& make) {
  std::vector<std::string> out(count);
  std::atomic<std::size_t> next{0};
  const unsigned threads_n = std::max(1u, std::thread::hardware_concurrency());
  std::vector<std::thread> threads;
  for (unsigned t = 0; t < threads_n; ++t) {
    threads.emplace_back([&] {
      for (std::size_t i = next++; i < count; i = next++) {
        std::string payload;
        std::string error;
        out[i] = svc::solve_request(make(i), &payload, &error)
                     ? std::move(payload)
                     : "!" + error;
      }
    });
  }
  for (auto& t : threads) t.join();
  return out;
}

/// Re-validates a schedule dump the way a client would: parse the
/// classical instance and schedule back and check feasibility and the
/// reported energy.
bool dump_is_valid(const std::string& payload, double alpha,
                   std::string* why) {
  svc::SolveResult result;
  if (!svc::parse_solve_result(payload, &result, why)) return false;
  if (!result.valid || result.classical_text.empty() ||
      result.schedule_text.empty()) {
    *why = "dump missing or marked invalid";
    return false;
  }
  std::istringstream classical_in(result.classical_text);
  std::istringstream schedule_in(result.schedule_text);
  const auto classical = qbss::io::read_instance(classical_in);
  if (!classical) {
    *why = "classical section does not parse";
    return false;
  }
  const auto schedule =
      qbss::io::read_schedule(schedule_in, classical.value->size());
  if (!schedule) {
    *why = "schedule section does not parse";
    return false;
  }
  if (!qbss::scheduling::validate(*classical.value, *schedule.value)
           .feasible) {
    *why = "schedule infeasible";
    return false;
  }
  const double energy = schedule.value->energy(alpha);
  if (std::abs(energy - result.energy) >
      1e-6 * std::max(1.0, std::abs(result.energy))) {
    *why = "energy does not match the schedule";
    return false;
  }
  return true;
}

/// Counters and window histograms from one stats-verb reply.
std::optional<qbss::obs::StatsData> fetch_stats(const svc::Endpoint& endpoint,
                                                std::string* error) {
  svc::Client client;
  svc::Client::Reply reply;
  if (!connect_client(endpoint, &client, error) ||
      !client.stats("json", &reply, error)) {
    return std::nullopt;
  }
  return qbss::obs::parse_stats_json(reply.payload, error);
}

double lifetime_counter(const qbss::obs::StatsData& stats,
                        const std::string& name) {
  const auto it = stats.lifetime.counters.find(name);
  return it == stats.lifetime.counters.end() ? 0.0 : it->second;
}

double counter_delta(const qbss::obs::StatsData& before,
                     const qbss::obs::StatsData& after,
                     const std::string& name) {
  return lifetime_counter(after, name) - lifetime_counter(before, name);
}

const qbss::obs::HistogramSummary* window_hist(
    const qbss::obs::StatsData& stats, const std::string& name) {
  const auto it = stats.window.histograms.find(name);
  return it == stats.window.histograms.end() || it->second.count == 0
             ? nullptr
             : &it->second;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// The run's private directory: created empty, removed on scope exit.
class RunDir {
 public:
  explicit RunDir(fs::path path) : path_(std::move(path)) {}
  RunDir(const RunDir&) = delete;
  RunDir& operator=(const RunDir&) = delete;
  ~RunDir() {
    std::error_code ec;
    fs::remove_all(path_, ec);
  }
  bool reset(std::string* error) {
    std::error_code ec;
    fs::remove_all(path_, ec);
    fs::create_directories(path_, ec);
    if (ec) *error = "cannot create " + path_.string() + ": " + ec.message();
    return !ec;
  }
  [[nodiscard]] const fs::path& path() const { return path_; }

 private:
  fs::path path_;
};

/// One workload's run: set-up, measured phases, post-window checks.
class Run {
 public:
  Run(const Options& options, Result* result)
      : options_(options),
        result_(result),
        plan_(plan_for(options.workload)),
        dir_(fs::path(options.work_root) /
             ("perfbench-" + options.workload + "-" +
              std::to_string(::getpid()))),
        fleet_(options.seed) {}

  bool execute(std::string* error) {
    if (!set_up(error)) return false;
    if (!(options_.trace ? traced(error) : measure(error))) return false;
    check_after_window();
    deployment_.stop();
    return true;
  }

 private:
  [[nodiscard]] const std::string& workload() const {
    return options_.workload;
  }

  // ---- set-up -----------------------------------------------------------

  /// Starts the deployment and warms it, plan_.setups times (fresh directory
  /// each time), and keeps the last. Traced runs do the same, so both
  /// kinds of run measure a process in the same state.
  bool set_up(std::string* error) {
    std::vector<double> times;
    for (int round = 0; round < plan_.setups; ++round) {
      deployment_.stop();
      if (!dir_.reset(error)) return false;
      const Clock::time_point t0 = Clock::now();
      if (!start_deployment(plan_, dir_.path(), &deployment_, error)) {
        return false;
      }
      if (!warm_up(error)) return false;
      times.push_back(seconds_since(t0));
    }
    std::string each;
    for (const double t : times) each += " " + std::to_string(t);
    set_metric("setup_s", median(times), "s", times.size(),
               "median of " + std::to_string(times.size()) + " set-ups:" + each);
    return true;
  }

  bool warm_up(std::string* error) {
    const std::uint64_t seed = options_.seed;
    if (workload() == "hit_ladder") {
      return warm(deployment_, kHitPool,
                  [seed](std::size_t i) { return hit_request(seed, i); },
                  &expected_, error);
    }
    if (workload() == "miss_mix") {
      // Faults in the solver arenas and worker threads; these keys are
      // disjoint from the timed stream.
      return warm(deployment_, 32,
                  [seed](std::size_t i) { return miss_warm_request(seed, i); },
                  nullptr, error);
    }
    // Warm-up ends when every warmed key is on disk: until the
    // write-behind persister has drained, its appends and fsyncs compete
    // with the timed requests.
    const auto appended = [this](double* out, std::string* err) {
      const auto stats = fetch_stats(deployment_.front, err);
      if (stats) *out = lifetime_counter(*stats, "store.append");
      return stats.has_value();
    };
    double before = 0.0;
    if (!appended(&before, error) ||
        !warm(deployment_, kFleetPool,
              [seed](std::size_t i) { return fleet_pool_request(seed, i); },
              &expected_, error)) {
      return false;
    }
    const Clock::time_point give_up = Clock::now() + std::chrono::seconds(60);
    for (double now = before; now - before < static_cast<double>(kFleetPool);) {
      if (Clock::now() > give_up) {
        *error = "disk tier did not persist the warm-up within 60 s";
        return false;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
      if (!appended(&now, error)) return false;
    }
    return true;
  }

  // ---- request streams and checks ----------------------------------------

  void prepare_streams() {
    const std::uint64_t seed = options_.seed;
    if (workload() == "hit_ladder" || workload() == "fleet_zipf") {
      const std::size_t n = workload() == "hit_ladder" ? kHitPool : kFleetPool;
      pool_.reserve(n);
      for (std::size_t i = 0; i < n; ++i) {
        pool_.push_back(workload() == "hit_ladder" ? hit_request(seed, i)
                                                   : fleet_pool_request(seed, i));
      }
    }
    records_.assign(deployment_.clients.size(), {});
  }

  /// hit_ladder: round-robin over the warmed pool; every reply must be
  /// byte-identical to the warm-up payload of its key.
  Phase run_hit(double seconds, bool trace_spans) {
    const MakeFn make = [this](std::size_t, std::uint64_t i, svc::Request*)
        -> const svc::Request& { return pool_[i % kHitPool]; };
    const CheckFn check = [this](std::size_t, std::uint64_t i,
                                 const svc::Client::Reply& reply) {
      return reply.payload == expected_[i % kHitPool];
    };
    return closed_loop(deployment_, seconds, make, check, trace_spans);
  }

  /// miss_mix: request i is fresh; its payload's length and digest are
  /// kept for the post-window comparison with an in-process solve.
  Phase run_miss(double seconds, bool trace_spans) {
    const std::uint64_t seed = options_.seed;
    const std::uint64_t base = miss_next_;
    const MakeFn make = [seed, base](std::size_t, std::uint64_t i,
                                     svc::Request* scratch)
        -> const svc::Request& {
      *scratch = miss_request(seed, base + i);
      return *scratch;
    };
    const CheckFn check = [this, base](std::size_t conn, std::uint64_t i,
                                       const svc::Client::Reply& reply) {
      Record r;
      r.index = base + i;
      r.length = reply.payload.size();
      r.digest = svc::fnv1a(reply.payload);
      if (reply.payload.find("\nschedule:\n") != std::string::npos) {
        const std::lock_guard<std::mutex> lock(dumps_mu_);
        if (dumps_.size() < kValidatedDumps) dumps_.push_back(reply.payload);
      }
      records_[conn].push_back(r);
      return true;
    };
    Phase phase = closed_loop(deployment_, seconds, make, check, trace_spans);
    // Every index the loop drew was sent, so the next phase starts after
    // them and no request repeats within a run.
    miss_next_ += phase.tally.attempted;
    return phase;
  }

  /// fleet_zipf, closed loop through the router: request i carries
  /// FleetStream::key(stream, i), a fresh key for one index in
  /// kFleetFreshEvery and a Zipf pool key otherwise. Pool keys must match
  /// their warm-up payload; fresh keys are kept for the post-window
  /// comparison.
  Phase run_fleet(double seconds, bool trace_spans) {
    const std::uint64_t stream = next_stream_++;
    std::vector<FleetKey> last(deployment_.clients.size());
    const MakeFn make = [&, stream](std::size_t conn, std::uint64_t i,
                                    svc::Request* scratch)
        -> const svc::Request& {
      last[conn] = fleet_.key(stream, i);
      return fleet_request(last[conn], scratch);
    };
    const CheckFn check = [&](std::size_t conn, std::uint64_t,
                              const svc::Client::Reply& reply) {
      return check_fleet(conn, last[conn], reply);
    };
    return closed_loop(deployment_, seconds, make, check, trace_spans);
  }

  /// fleet_zipf, open loop: Poisson arrivals at `rate`, each timed from
  /// when it was due (traced run only).
  Phase run_fleet_open(double rate, double seconds) {
    const std::vector<Arrival> arrivals =
        fleet_.arrivals(rate, seconds, next_stream_++);
    const MakeFn make = [this, &arrivals](
                            std::size_t, std::uint64_t k,
                            svc::Request* scratch) -> const svc::Request& {
      return fleet_request(arrivals[k].key, scratch);
    };
    const CheckFn check = [this, &arrivals](std::size_t conn, std::uint64_t k,
                                            const svc::Client::Reply& reply) {
      return check_fleet(conn, arrivals[k].key, reply);
    };
    return open_loop(deployment_, arrivals, seconds, make, check, false);
  }

  const svc::Request& fleet_request(const FleetKey& key,
                                    svc::Request* scratch) const {
    if (!key.fresh) return pool_[key.index];
    *scratch = fleet_fresh_request(options_.seed, key.index);
    return *scratch;
  }

  bool check_fleet(std::size_t conn, const FleetKey& key,
                   const svc::Client::Reply& reply) {
    if (!key.fresh) return reply.payload == expected_[key.index];
    Record r;
    r.index = key.index;
    r.length = reply.payload.size();
    r.digest = svc::fnv1a(reply.payload);
    records_[conn].push_back(r);
    return true;
  }

  /// The workload's measured phase.
  Phase run_main(double seconds, bool trace_spans) {
    if (workload() == "hit_ladder") return run_hit(seconds, trace_spans);
    if (workload() == "miss_mix") return run_miss(seconds, trace_spans);
    return run_fleet(seconds, trace_spans);
  }

  void absorb(Phase& phase) {
    result_->attempted += phase.tally.attempted;
    result_->failed += phase.tally.failed();
    result_->mismatches += phase.tally.mismatches;
    for (std::string& p : phase.tally.problems) note(std::move(p));
    phase.tally.problems.clear();
  }

  void note(std::string problem) {
    if (result_->problems.size() < kMaxProblems) {
      result_->problems.push_back(std::move(problem));
    }
  }

  void fail_check(std::string problem) {
    ++result_->mismatches;
    ++result_->failed;
    note(std::move(problem));
  }

  // ---- untraced run -----------------------------------------------------

  /// Stops the deployment and sets it up again on a fresh directory
  /// (untimed: setup_s is measured by set_up()).
  bool redeploy(std::string* error) {
    deployment_.stop();
    return dir_.reset(error) &&
           start_deployment(plan_, dir_.path(), &deployment_, error) &&
           warm_up(error);
  }

  /// The timed phase runs as kSegments segments, each on a fresh
  /// deployment (the first on the set-up left running). A fresh
  /// deployment re-draws state that otherwise holds for a whole run
  /// (where the scheduler put the service's threads, how its memory was
  /// laid out), which moved whole runs by up to a third against each
  /// other. p50, throughput and CPU per request are each the median of
  /// the per-deployment figures, every one taken over all the replies of
  /// its deployment; the table shows the whole-run figures beside them.
  /// The run's p99 is shown in the table only: it is reported, unbounded,
  /// by the traced run (bench.latency_p99_us; see README).
  bool measure(std::string* error) {
    prepare_streams();
    std::vector<double> latencies;
    std::vector<double> p50s, p99s, rates, cpus;
    double window_s = 0.0;
    double cpu_s = 0.0;
    for (int segment = 0; segment < kSegments; ++segment) {
      if (segment > 0 && !redeploy(error)) return false;
      Phase phase = run_main(options_.seconds / kSegments, false);
      std::vector<double> own = phase.in_window();
      const LatencySummary summary = summarize(own);
      const auto n = static_cast<double>(summary.count);
      p50s.push_back(summary.p50);
      p99s.push_back(summary.p99);
      rates.push_back(n / phase.seconds);
      cpus.push_back(ratio(phase.cpu_s * 1e6, n));
      latencies.insert(latencies.end(), own.begin(), own.end());
      window_s += phase.seconds;
      cpu_s += phase.cpu_s;
      absorb(phase);
    }
    const double rss = peak_rss_mb();
    const LatencySummary all = summarize(latencies);
    const double n = static_cast<double>(all.count);
    const std::string basis =
        "median of " + std::to_string(kSegments) + " deployments:";
    set_metric("latency_p50_us", median(p50s), "us", all.count,
               basis + listed(p50s) + "; whole run" + listed({all.p50}));
    set_metric("throughput_rps", median(rates), "1/s", all.count,
               basis + listed(rates) + "; whole run" +
                   listed({n / window_s}));
    set_metric("cpu_us_per_req", median(cpus), "us", all.count,
               basis + listed(cpus) + "; whole run" +
                   listed({ratio(cpu_s * 1e6, n)}));
    set_metric("peak_rss_mb", rss, "MB", 0, "getrusage ru_maxrss");
    result_->notes.push_back(
        "latency p99" + listed({all.p99}) + " us over all " +
        std::to_string(all.count) + " replies, " +
        std::to_string(samples_beyond(all.count, 0.99)) +
        " beyond it; per deployment:" + listed(p99s) +
        " (not a bounded metric; see bench.latency_p99_us)");
    return true;
  }

  // ---- traced run --------------------------------------------------------

  bool traced(std::string* error) {
    prepare_streams();
    const double half = options_.seconds / 2.0;
    auto before = stats(error);
    if (!before) return false;
    Phase plain = run_main(half, false);
    auto after = stats(error);
    if (!after) return false;
    const std::uint64_t client_disk_hits = plain.tally.disk_hits;
    std::vector<double> plain_latencies = plain.in_window();
    const LatencySummary plain_summary = summarize(plain_latencies);
    const double p50_plain = plain_summary.p50;
    const std::uint64_t requests = plain.tally.attempted;
    absorb(plain);

    const std::string trace_file =
        (fs::path(options_.work_root) /
         ("perfbench-trace-" + workload() + ".json"))
            .string();
    qbss::obs::set_trace_path(trace_file);
    Phase spans = run_main(half, true);
    qbss::obs::flush_trace();
    qbss::obs::set_trace_path("");
    std::vector<double> traced_latencies = spans.in_window();
    const double p50_traced = summarize(traced_latencies).p50;
    absorb(spans);

    layer_counters(*before, *after, requests, client_disk_hits);
    // The open-loop probe: fleet_zipf only, the one workload whose users
    // arrive independently.
    LatencySummary open;
    LatencySummary lag;
    if (workload() == "fleet_zipf") {
      Phase probe = run_fleet_open(kFleetOpenRate, half);
      std::vector<double> latencies = probe.all();
      open = summarize(latencies);
      lag = summarize(probe.tally.lag_us);
      absorb(probe);
    }
    set_metric("bench.open_loop_p99_us", open.p99, "us", open.count,
               "fleet_zipf at " + std::to_string(static_cast<int>(kFleetOpenRate)) +
                   " req/s Poisson, timed from due time");
    set_metric("bench.send_lag_p99_us", lag.p99, "us", lag.count,
               "how late the open-loop generator sent");
    set_metric("bench.latency_p50_us", p50_plain, "us", plain_summary.count,
               "untraced half of this run");
    set_metric("bench.latency_p99_us", plain_summary.p99, "us",
               plain_summary.count,
               "untraced half of this run, " +
                   std::to_string(samples_beyond(plain_summary.count, 0.99)) +
                   " beyond p99");
    const double limit = workload() == "hit_ladder" ? kHitP99LimitUs
                         : workload() == "miss_mix" ? kMissP99LimitUs
                                                    : kFleetP99LimitUs;
    const bool met = plain.tally.failed() == 0 && plain_summary.p99 <= limit;
    set_metric("bench.slo_rate_rps",
               met ? static_cast<double>(plain_summary.count) / plain.seconds
                   : 0.0,
               "1/s", plain_summary.count,
               "untraced half: ok replies/s when p99 <= " +
                   std::to_string(static_cast<int>(limit)) + " us, else 0");
    set_metric("bench.trace_overhead_pct",
               ratio((p50_traced - p50_plain) * 100.0, p50_plain), "%", 0,
               "traced vs untraced latency_p50_us");

    LayerInputs inputs;
    inputs.requests = layer_sample();
    inputs.cache_entries = plan_.cache_entries;
    inputs.cache_shards = plan_.cache_shards;
    inputs.scratch_dir = (dir_.path() / "layers").string();
    inputs.server = deployment_.backends.front().second;
    inputs.has_router = plan_.router;
    inputs.router = deployment_.front;
    inputs.backends = deployment_.backends;
    inputs.warmed = workload() == "miss_mix" ? inputs.requests.front()
                                             : pool_.front();
    if (!measure_layers(inputs, &result_->metrics, error)) return false;

    const double sum =
        result_->metrics["svc.protocol.serialize_request_us"].value +
        result_->metrics["svc.protocol.parse_request_us"].value +
        result_->metrics["svc.protocol.cache_key_us"].value +
        result_->metrics["svc.cache.get_hit_us"].value +
        result_->metrics["svc.client.ping_rtt_us"].value;
    set_metric("bench.hit_layer_sum_us", sum, "us", 0,
               "serialize + parse + cache_key + get_hit + ping");
    set_metric("bench.hit_layer_share_pct", ratio(sum * 100.0, p50_plain),
               "%", 0, "hit_layer_sum_us / bench.latency_p50_us");
    return true;
  }

  std::optional<qbss::obs::StatsData> stats(std::string* error) {
    return fetch_stats(deployment_.front, error);
  }

  /// Stats-verb deltas over the untraced half. The registry is
  /// process-wide, so on fleet_zipf the svc.* numbers sum both backends.
  void layer_counters(const qbss::obs::StatsData& before,
                      const qbss::obs::StatsData& after,
                      std::uint64_t requests,
                      std::uint64_t client_disk_hits) {
    const auto delta = [&](const std::string& name) {
      return counter_delta(before, after, name);
    };
    const double hits = delta("svc.cache.hit");
    const double disk = delta("svc.cache.disk_hit");
    const double lookups = hits + disk + delta("svc.cache.miss");
    set_metric("svc.cache.hit_ratio", ratio(hits, lookups), "ratio", 0, "");
    set_metric("svc.cache.disk_hit_ratio", ratio(disk, lookups), "ratio", 0,
               "");
    set_metric("svc.cache.evicted", delta("svc.cache.evicted"), "count", 0,
               "");
    set_metric("svc.cache.disk_hit", disk, "count", 0,
               "backends' disk hits (stats verb)");
    set_metric("route.client_disk_hits",
               static_cast<double>(client_disk_hits), "count", 0,
               "disk-hit flags seen by the clients");
    set_metric("svc.store.append_bytes_per_req",
               ratio(delta("store.append_bytes"),
                     static_cast<double>(requests)),
               "bytes", 0, "");
    const qbss::obs::HistogramSummary* latency =
        window_hist(after, "svc.latency_us");
    set_metric("svc.server.latency_p50_us", latency ? latency->p50 : 0.0,
               "us", latency ? latency->count : 0, "stats window");
    set_metric("svc.server.solve_mean_us",
               ratio(delta("svc.solve.ns") / 1e3, delta("svc.solve.calls")),
               "us", 0, "");
    const qbss::obs::HistogramSummary* depth =
        window_hist(after, "svc.queue_depth");
    set_metric("svc.server.queue_depth_p90", depth ? depth->p90 : 0.0,
               "count", depth ? depth->count : 0, "stats window");
    set_metric("svc.server.batch_size_mean",
               ratio(delta("svc.admitted"), delta("svc.batches")), "count",
               0, "");
    set_metric("svc.server.shed",
               delta("svc.shed.queue") + delta("svc.shed.deadline") +
                   delta("svc.shed.degraded") + delta("svc.shed.shutdown"),
               "count", 0, "");
    set_metric("svc.server.coalesced", delta("svc.coalesced"), "count", 0, "");
    const qbss::obs::HistogramSummary* backend =
        plan_.router ? window_hist(after, "route.backend_us") : nullptr;
    set_metric("route.backend_p50_us", backend ? backend->p50 : 0.0, "us",
               backend ? backend->count : 0, "stats window");
    set_metric("route.failover", delta("route.failover"), "count", 0, "");
    set_metric("route.shed.no_backend", delta("route.shed.no_backend"),
               "count", 0, "");
    const double reused = delta("route.pool.reused");
    set_metric("route.pool_reuse_ratio",
               ratio(reused, reused + delta("route.pool.created")), "ratio",
               0, "");
  }

  /// The requests the layer timings run on: the workload's own mix.
  std::vector<svc::Request> layer_sample() const {
    constexpr std::size_t kSample = 128;
    std::vector<svc::Request> out;
    if (workload() == "miss_mix") {
      for (std::uint64_t i = 0; i < kSample; ++i) {
        out.push_back(miss_request(options_.seed, i));
      }
    } else {
      out.assign(pool_.begin(),
                 pool_.begin() + static_cast<std::ptrdiff_t>(
                                     std::min(kSample, pool_.size())));
    }
    return out;
  }

  // ---- correctness after the window ------------------------------------

  void check_after_window() {
    const std::uint64_t seed = options_.seed;
    if (!expected_.empty()) {
      // Warm-up payloads, which every timed reply was compared with,
      // must be what an in-process solve produces.
      const bool hit = workload() == "hit_ladder";
      const std::vector<std::string> truth = solve_in_process(
          expected_.size(), [seed, hit](std::size_t i) {
            return hit ? hit_request(seed, i) : fleet_pool_request(seed, i);
          });
      for (std::size_t i = 0; i < truth.size(); ++i) {
        if (truth[i] != expected_[i]) {
          fail_check("key " + std::to_string(i) +
                     ": served payload differs from in-process solve");
        }
      }
    }
    std::vector<Record> records;
    for (auto& r : records_) records.insert(records.end(), r.begin(), r.end());
    if (!records.empty()) {
      const bool miss = workload() == "miss_mix";
      const std::vector<std::string> truth = solve_in_process(
          records.size(), [&records, seed, miss](std::size_t k) {
            return miss ? miss_request(seed, records[k].index)
                        : fleet_fresh_request(seed, records[k].index);
          });
      for (std::size_t k = 0; k < records.size(); ++k) {
        if (truth[k].size() != records[k].length ||
            svc::fnv1a(truth[k]) != records[k].digest) {
          fail_check("request " + std::to_string(records[k].index) +
                     ": served payload differs from in-process solve");
        }
      }
    }
    for (const std::string& dump : dumps_) {
      std::string why;
      if (!dump_is_valid(dump, 3.0, &why)) fail_check("schedule dump: " + why);
    }
    result_->notes.push_back(
        "checked " + std::to_string(expected_.size() + records.size()) +
        " payloads against in-process solves, re-validated " +
        std::to_string(dumps_.size()) + " schedule dumps");
  }

  void set_metric(const std::string& name, double value,
                  const std::string& unit, std::uint64_t samples,
                  std::string note) {
    Metric& m = result_->metrics[name];
    m.value = value;
    m.unit = unit;
    m.samples = samples;
    m.note = std::move(note);
  }

  /// A timed reply kept for the post-window comparison: payload length
  /// and 64-bit FNV-1a digest (storing whole payloads would make the
  /// benchmark's own memory grow with throughput).
  struct Record {
    std::uint64_t index = 0;
    std::size_t length = 0;
    std::uint64_t digest = 0;
  };

  const Options& options_;
  Result* result_;
  Plan plan_;
  RunDir dir_;
  FleetStream fleet_;
  Deployment deployment_;
  std::vector<svc::Request> pool_;
  std::vector<std::string> expected_;  ///< warm-up payload per pool key
  std::vector<std::vector<Record>> records_;  ///< per connection
  std::mutex dumps_mu_;
  std::vector<std::string> dumps_;
  std::uint64_t next_stream_ = 0;
  std::uint64_t miss_next_ = 0;  ///< first unused miss_mix stream index
};

}  // namespace

bool known_workload(const std::string& name) {
  return std::find(std::begin(kWorkloadNames), std::end(kWorkloadNames),
                   name) != std::end(kWorkloadNames);
}

bool run_workload(const Options& options, Result* result,
                  std::string* error) {
  if (!known_workload(options.workload)) {
    *error = "unknown workload: " + options.workload;
    return false;
  }
  Run run(options, result);
  return run.execute(error);
}

}  // namespace perfbench
