// qbss::route router — the fleet's front tier.
//
// Architecture (docs/ROUTING.md has the full story):
//
//   svc::Frontend (svc/frontend.hpp, shared with svc::Server)
//     listeners, accept loop, one reader thread per client connection,
//     request parse, ping/stats/shutdown answered locally, reply writes,
//     stats ring, flight triggers, manifest epilogue
//                     │ proxy_solve, on the reader thread: hash the
//                     │ canonical cache key onto the ring and forward
//                     │ the client's
//                     │ payload bytes verbatim to the owning backend
//                     │ (breaker-gated, pooled RetryingClient), echoing
//                     │ the client's request and trace ids end to end
//   health loop ──> periodic pings per backend feed the same breakers
//   replicator  ──> keys whose hit count crosses the hot threshold are
//                   pushed to R ring successors so a node death doesn't
//                   cold-start the hottest keys
//
// A backend whose breaker is open is skipped and the key fails over to
// the next ring node — correct by construction, because every backend
// computes byte-identical payloads for the same canonical key. When no
// backend is reachable the router sheds (`reason: no_backend`) rather
// than queueing: the fleet's backpressure story stays the backends' own.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "route/health.hpp"
#include "route/ring.hpp"
#include "route/topology.hpp"
#include "svc/frontend.hpp"
#include "svc/protocol.hpp"
#include "svc/retry.hpp"

namespace qbss::route {

/// Everything a Router needs to know at start(): the shared client-facing
/// settings (endpoints, timeouts, stats ring, manifest, flight path) plus
/// the fleet and the routing policy.
struct RouterConfig : svc::FrontendConfig {
  Topology topology;        ///< the backend fleet (>= 1 node)
  /// Ring successors hot keys are replicated to (0 = replication off).
  std::size_t replicas = 1;
  /// Observed hits at which a key turns hot and replication fires
  /// (0 = never).
  std::uint64_t hot_threshold = 16;
  double health_interval_ms = 500.0;  ///< ping cadence per backend
  int breaker_failures = 3;       ///< consecutive failures to trip open
  double breaker_open_ms = 2000.0;    ///< cooldown before the half-open probe
  double backend_timeout_ms = 5000.0; ///< per-attempt socket timeout
  int backend_retries = 2;        ///< extra attempts per proxied call
  std::size_t pool_capacity = 8;  ///< idle connections kept per backend
};

/// The routing tier. Same lifecycle contract as svc::Server: construct,
/// start(), wait() from a thread that is not one of the router's own;
/// shutdown() is idempotent and callable from any thread.
class Router {
 public:
  explicit Router(RouterConfig config);
  ~Router();
  Router(const Router&) = delete;
  Router& operator=(const Router&) = delete;

  [[nodiscard]] bool start(std::string* error);
  void wait();
  void shutdown();

  /// Responses relayed or answered so far (any status).
  [[nodiscard]] std::uint64_t responses() const noexcept {
    return frontend_.responses();
  }

  /// Point-in-time view of one backend (stats verb and tests).
  struct BackendStatus {
    std::string name;
    std::string addr;
    Breaker::State state = Breaker::State::kClosed;
    std::uint64_t forwarded = 0;   ///< proxied calls answered by it
    std::uint64_t failures = 0;    ///< proxied calls it failed
    std::uint64_t replicated = 0;  ///< hot-key pushes it received
  };
  [[nodiscard]] std::vector<BackendStatus> backend_status() const;

  /// Keys whose hit count crossed the hot threshold so far.
  [[nodiscard]] std::uint64_t hot_keys() const noexcept {
    return hot_keys_.load(std::memory_order_relaxed);
  }

 private:
  /// One backend at runtime: its spec, breaker and connection pool.
  struct Backend {
    BackendSpec spec;
    Breaker breaker;
    std::mutex pool_mu;
    std::vector<std::unique_ptr<svc::RetryingClient>> pool;
    std::atomic<std::uint64_t> forwarded{0};
    std::atomic<std::uint64_t> failures{0};
    std::atomic<std::uint64_t> replicated{0};
    Backend(BackendSpec spec_in, BreakerConfig breaker_in)
        : spec(std::move(spec_in)), breaker(breaker_in) {}
  };

  /// One queued hot-key replication push.
  struct Replication {
    std::string payload;  ///< the client's request bytes, verbatim
    std::vector<std::size_t> targets;  ///< backend indices
    std::uint64_t key_hash = 0;
    std::uint64_t trace_id = 0;
  };

  void health_loop();
  void replication_loop();
  /// Routes one solve: breaker-gated candidate walk (owner first, then
  /// ring successors), proxy, relay. Sheds when every candidate is down.
  /// `request` (parsed from `payload`) only places the key on the ring;
  /// the backends receive `payload` itself. The front end's handler.
  void proxy_solve(const std::shared_ptr<svc::Connection>& conn,
                   const svc::FrameHeader& frame, svc::Request& request,
                   const std::string& payload,
                   std::uint64_t admitted);
  /// One proxied call of `payload` against backend `index` through its
  /// pool. False on transport exhaustion (the breaker hears about either
  /// outcome).
  [[nodiscard]] bool call_backend(std::size_t index, std::string_view payload,
                                  std::uint64_t trace_id,
                                  svc::Client::Reply* reply);
  /// Hit-count bookkeeping by ring hash; true when the key just crossed
  /// the hot threshold (the caller then enqueues replication). `*hot`
  /// reports whether the key is already hot (replica set serves it).
  [[nodiscard]] bool note_hit(std::uint64_t key_hash, bool* hot);
  void enqueue_replication(Replication task);
  /// The router's stats and manifest keys: role, fleet size, hot keys
  /// and one row per backend.
  [[nodiscard]] svc::Frontend::Extras stats_extra() const;
  void record_backend_result(std::size_t index, bool ok);
  void log_route_start();

  RouterConfig config_;
  HashRing ring_;
  std::vector<std::unique_ptr<Backend>> backends_;  ///< ring-index order
  svc::Frontend frontend_;

  std::atomic<std::uint64_t> hot_keys_{0};
  std::atomic<std::uint64_t> hot_rotation_{0};

  std::thread health_thread_;
  std::thread replication_thread_;

  /// Hot-key table keyed by HashRing::key_hash: hit counts plus the
  /// already-hot set. Bounded; when the count table overflows it is
  /// reset (hot verdicts persist). Keys with equal hashes share an owner
  /// and a verdict.
  std::mutex hot_mu_;
  std::unordered_map<std::uint64_t, std::uint64_t> key_hits_;
  std::unordered_set<std::uint64_t> hot_;

  std::mutex replication_mu_;
  std::condition_variable replication_cv_;
  std::deque<Replication> replication_queue_;

  std::mutex health_mu_;  ///< pairs with health_cv_ for interruptible sleep
  std::condition_variable health_cv_;
};

}  // namespace qbss::route
