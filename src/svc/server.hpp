// qbss::svc server — a resident scheduling service.
//
// Architecture (docs/SERVICE.md has the full story):
//
//   svc::Frontend (frontend.hpp, shared with route::Router)
//     listeners, accept loop, one reader thread per connection,
//     stats ring, flight triggers, reply writes, manifest epilogue
//     request parse, ping/stats/shutdown answered locally
//                     │ handle_request, on the reader thread: solves
//                     │ only; check result cache (hit → respond)
//                     │ coalesce onto an identical in-flight request, or
//                     │ admit into the bounded queue (full → shed)
//   worker pool <─────┘ drain up to `batch` tasks per wakeup, drop
//                       deadline-expired waiters, solve once, cache,
//                       respond to every coalesced waiter
//
// Backpressure is structural: the admission queue never exceeds
// `queue_depth`, so overload turns into immediate `shed` responses
// instead of unbounded latency. Every stage feeds `svc.*` counters,
// latency/queue-depth/batch-size histograms and Chrome-trace spans, and
// shutdown writes a manifest epilogue (`BENCH_svc.json` by default from
// the CLI) that `qbss obs-diff` can gate on.
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
#include <utility>
#include <vector>

#include "svc/cache.hpp"
#include "svc/frontend.hpp"
#include "svc/protocol.hpp"

namespace qbss::svc {

/// Everything a Server needs to know at start(): the shared front-end
/// settings (endpoints, timeouts, stats ring, manifest, flight path) plus
/// the serving side's own.
struct ServerConfig : FrontendConfig {
  std::size_t workers = 2;
  std::size_t queue_depth = 64;   ///< admission queue bound (>= 1)
  std::size_t cache_entries = 1024;
  std::size_t cache_shards = 8;
  /// Disk tier (docs/DURABILITY.md): directory for the segment store.
  /// "" = memory-only cache, no persistence.
  std::string cache_dir;
  /// Disk-tier byte budget in MiB; the oldest sealed segment is dropped
  /// whole when total size exceeds it.
  double cache_disk_mb = 256.0;
  /// Write-behind fsync cadence: "none", "interval" or "always".
  std::string cache_sync = "interval";
  double cache_sync_interval_ms = 100.0;  ///< "interval" mode cadence
  std::size_t batch = 4;     ///< max tasks drained per worker wakeup
  double delay_ms = 0.0;     ///< artificial per-solve delay (soak knob)
  /// Shutdown drain budget: backlog still queued past this deadline is
  /// answered with `shed` instead of solved, bounding exit time. 0 =
  /// drain everything no matter how long it takes.
  double drain_ms = 2000.0;
  /// Overload degradation window: after a queue-full shed, cache misses
  /// are fast-shed (cache hits still served) for this long. 0 = off.
  double degraded_window_ms = 0.0;
  /// Wire-trace sampling: requests whose client-stamped trace id is
  /// nonzero and divisible by this get a per-request span chain in the
  /// Chrome trace (ids are uniform, so ~1/N of traffic). 1 = every
  /// request, 0 = never. No effect unless tracing is enabled.
  std::uint64_t trace_sample = 16;
};

/// The resident scheduling service. Lifecycle: construct, start(),
/// wait() from a thread that is NOT one of the server's own (wait joins
/// them). shutdown() is idempotent and callable from any thread,
/// including reader threads (a client `shutdown` frame triggers it).
class Server {
 public:
  explicit Server(ServerConfig config);
  ~Server();
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Opens the disk tier, binds the configured endpoints, then spawns
  /// the worker pool and the front end's loops. False + *error on any
  /// setup failure.
  [[nodiscard]] bool start(std::string* error);

  /// Blocks until shutdown is initiated, then joins every thread,
  /// answers the remaining backlog, writes the manifest epilogue and
  /// removes the socket file.
  void wait();

  /// Initiates shutdown: stop accepting, unblock readers and workers.
  void shutdown();

  /// Requests served so far (responses of any status).
  [[nodiscard]] std::uint64_t responses() const noexcept {
    return frontend_.responses();
  }

 private:
  /// Per-request wire-trace state: the client-stamped id (echoed in
  /// every response header) plus, when this request was sampled, the
  /// stage timestamps the span chain is cut from.
  struct WireTrace {
    std::uint64_t id = 0;
    bool sampled = false;
    std::uint64_t read_ns = 0;    ///< frame fully read
    std::uint64_t parsed_ns = 0;  ///< request parsed
    std::uint64_t cache_ns = 0;   ///< cache lookup finished
    std::uint64_t queued_ns = 0;  ///< admitted into the queue
    std::uint64_t picked_ns = 0;  ///< drained by a worker
    std::uint64_t solved_ns = 0;  ///< solve finished
  };

  /// A response destination for one admitted or coalesced request.
  struct Waiter {
    std::shared_ptr<Connection> conn;
    std::uint64_t request_id = 0;
    std::uint64_t admitted = 0;  ///< obs::now_ns() when the frame was read
    double deadline_ms = 0.0;
    WireTrace trace;
  };

  /// An in-flight computation; identical requests append themselves as
  /// waiters instead of recomputing.
  struct Inflight {
    std::vector<Waiter> waiters;
  };

  /// One queued computation.
  struct Task {
    std::string key;
    Request request;
    std::shared_ptr<Inflight> inflight;
  };

  void worker_loop();
  /// The front end's handler: one solve on its reader thread — cache
  /// hit, coalesce, admit or shed.
  void handle_request(const std::shared_ptr<Connection>& conn,
                      const FrameHeader& frame, Request& request,
                      const std::string& payload,
                      std::uint64_t admitted);
  /// The server's stats and manifest keys (config, queue, cache, disk
  /// tier, degradation).
  [[nodiscard]] Frontend::Extras stats_extra();
  /// Drains one admission batch: shed bookkeeping per task, then a
  /// single solve_request_batch call over the survivors, then publish
  /// and respond per task.
  void process_batch(std::vector<Task>& batch);
  /// Pre-solve bookkeeping for one task (shutdown-drain shed, expired
  /// waiters). False when the task needs no solve.
  [[nodiscard]] bool prepare_task(Task& task);
  /// Publishes one solved task and answers its waiters. `picked_ns` /
  /// `solved_ns` stamp the batch's queue-exit and solve-done times into
  /// sampled waiters' trace chains.
  void finish_task(Task& task, SolveItem& item, std::uint64_t picked_ns,
                   std::uint64_t solved_ns);
  void respond(const Waiter& waiter, Status status, std::uint32_t flags,
               std::string_view payload);
  void enter_degraded();
  /// Logs the `server.start` event carrying the effective config.
  void log_server_start();

  ServerConfig config_;
  ResultCache cache_;
  Frontend frontend_;

  /// obs::now_ns() until which the degradation window is active (0 =
  /// never entered).
  std::atomic<std::uint64_t> degraded_until_ns_{0};
  /// obs::now_ns() deadline for the shutdown drain (0 = unbounded).
  std::atomic<std::uint64_t> drain_deadline_ns_{0};

  std::vector<std::thread> workers_;

  std::mutex queue_mu_;
  std::condition_variable queue_cv_;
  std::deque<Task> queue_;

  std::mutex inflight_mu_;
  std::unordered_map<std::string, std::shared_ptr<Inflight>> inflight_;
};

}  // namespace qbss::svc
