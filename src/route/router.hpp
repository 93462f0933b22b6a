// qbss::route router — the fleet's front tier.
//
// Architecture (docs/ROUTING.md has the full story):
//
//   accept loop ──> one reader thread per client connection
//                     │ read a QSS2 frame, answer ping/stats/shutdown
//                     │ locally; for solves, hash the canonical cache
//                     │ key onto the ring and forward the client's
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

#include "obs/snapshot.hpp"
#include "route/health.hpp"
#include "route/ring.hpp"
#include "route/topology.hpp"
#include "svc/protocol.hpp"
#include "svc/retry.hpp"

namespace qbss::route {

/// Everything a Router needs to know at start().
struct RouterConfig {
  std::string socket_path;  ///< client-facing Unix socket ("" = none)
  int tcp_port = 0;         ///< client-facing loopback TCP (0 = off)
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
  double read_timeout_ms = 30000.0;   ///< client-facing recv timeout
  double write_timeout_ms = 10000.0;  ///< client-facing send timeout
  double stats_interval_ms = 1000.0;  ///< snapshot-ring cadence (0 = off)
  std::size_t stats_ring = 8;
  std::string manifest_path;  ///< manifest epilogue at shutdown ("" = none)
  std::string flight_path;    ///< flight-recorder dump destination ("")
  /// Extra manifest key/values (the CLI records its flags here).
  std::vector<std::pair<std::string, std::string>> manifest_extra;
  /// Optional externally-owned stop flag (signal handlers set it).
  const std::atomic<bool>* external_stop = nullptr;
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
    return responses_.load(std::memory_order_relaxed);
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

  /// One client connection (same ownership story as svc::Server).
  struct Connection {
    Connection(int fd_in, std::uint64_t id_in) : fd(fd_in), id(id_in) {
      read_buf.reserve(4096);
    }
    ~Connection();
    int fd;
    std::uint64_t id;
    std::mutex write_mu;
    std::string read_buf;
  };

  /// One queued hot-key replication push.
  struct Replication {
    std::string payload;  ///< the client's request bytes, verbatim
    std::vector<std::size_t> targets;  ///< backend indices
    std::uint64_t key_hash = 0;
    std::uint64_t trace_id = 0;
  };

  void accept_loop();
  void reader_loop(std::shared_ptr<Connection> conn);
  void health_loop();
  void replication_loop();
  void stats_loop();
  void handle_request(const std::shared_ptr<Connection>& conn,
                      const svc::FrameHeader& frame,
                      const std::string& payload);
  /// Routes one solve: breaker-gated candidate walk (owner first, then
  /// ring successors), proxy, relay. Sheds when every candidate is down.
  /// `request` (parsed from `payload`) only places the key on the ring;
  /// the backends receive `payload` itself.
  void proxy_solve(const std::shared_ptr<Connection>& conn,
                   const svc::FrameHeader& frame, const svc::Request& request,
                   std::string_view payload);
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
  [[nodiscard]] std::string build_stats_payload(const std::string& format);
  void respond(const std::shared_ptr<Connection>& conn,
               std::uint64_t request_id, std::uint64_t trace_id,
               svc::Status status, std::uint32_t flags,
               std::string_view payload, double latency_us);
  void record_backend_result(std::size_t index, bool ok);
  void write_manifest();
  void note_flight_trigger();
  void dump_flight_recorder();
  void log_route_start();

  RouterConfig config_;
  HashRing ring_;
  std::vector<std::unique_ptr<Backend>> backends_;  ///< ring-index order

  std::vector<int> listen_fds_;
  std::atomic<bool> stopping_{false};
  std::atomic<std::uint64_t> responses_{0};
  std::atomic<std::uint64_t> next_conn_id_{0};
  std::atomic<std::uint64_t> hot_keys_{0};
  std::atomic<std::uint64_t> hot_rotation_{0};
  std::atomic<bool> flight_pending_{false};
  std::atomic<std::uint64_t> last_flight_dump_ns_{0};

  std::thread accept_thread_;
  std::thread health_thread_;
  std::thread replication_thread_;
  std::thread stats_thread_;

  std::mutex conns_mu_;
  std::vector<std::shared_ptr<Connection>> conns_;
  std::vector<std::thread> readers_;  ///< appended only by the accept loop

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

  std::mutex ring_mu_;  ///< guards the snapshot ring below
  std::deque<obs::Snapshot> snapshots_;
  std::mutex stats_mu_;
  std::condition_variable stats_cv_;

  std::mutex health_mu_;  ///< pairs with health_cv_ for interruptible sleep
  std::condition_variable health_cv_;
};

}  // namespace qbss::route
