// qbss::svc front end — the client-facing half of both `qbss serve`
// (svc::Server) and `qbss route` (route::Router): listeners, the accept
// loop (errno triage, reaping finished readers), one reader thread per
// connection (timeouts, typed bad-frame replies, the read fault site),
// request parsing, the ping/stats/shutdown verbs, the write half of every
// reply, the stats ring, flight triggers and the manifest epilogue. A
// role supplies a metric prefix ("svc", "route"), a handler for solve
// requests, a stop hook and its stats extras. Teardown is two steps so
// the server can drain its workers and flush its cache in between:
// join(), then finish().
#pragma once

#include <array>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "faults/faults.hpp"
#include "obs/registry.hpp"
#include "obs/snapshot.hpp"
#include "svc/protocol.hpp"

namespace qbss::svc {

/// The settings both roles take for their client-facing side.
struct FrontendConfig {
  std::string socket_path;  ///< Unix-domain socket path ("" = no UDS)
  int tcp_port = 0;         ///< 127.0.0.1 TCP listener (0 = off)
  /// Per-connection recv timeout (slowloris defense): a peer that stalls
  /// mid-frame or sits idle longer than this is disconnected. 0 = never.
  double read_timeout_ms = 30000.0;
  /// Per-connection send timeout: a peer that stops draining replies is
  /// disconnected instead of wedging a writer. 0 = never.
  double write_timeout_ms = 10000.0;
  /// Cadence of the registry snapshots behind the stats verb's "recent
  /// window" block. 0 = no ring: the window is the whole lifetime.
  double stats_interval_ms = 1000.0;
  /// Snapshots retained: the window spans up to stats_ring intervals.
  std::size_t stats_ring = 8;
  std::string manifest_path; ///< manifest epilogue at shutdown ("" = none)
  /// Flight-recorder dump destination, written when a fault clause trips
  /// or a connection dies abnormally (rate-limited) and once more at
  /// shutdown after any such trigger. "" = no automatic dumps.
  std::string flight_path;
  /// Extra manifest key/values (the CLI records its flags here).
  std::vector<std::pair<std::string, std::string>> manifest_extra;
  /// Optional externally-owned stop flag (signal handlers set it; the
  /// accept loop polls it every ~100 ms and initiates shutdown).
  const std::atomic<bool>* external_stop = nullptr;
};

/// One client connection. The fd closes when the last reference drops
/// (the reader and any pending reply share ownership), so replies racing
/// a disconnect write to a valid-but-dead socket, never to a reused
/// descriptor.
struct Connection {
  Connection(int fd_in, std::uint64_t id_in) : fd(fd_in), id(id_in) {
    read_buf.reserve(4096);
  }
  ~Connection();
  int fd;
  std::uint64_t id;     ///< dense accept-order id (log correlation)
  std::mutex write_mu;  ///< one reply frame leaves at a time
  /// Reader-owned frame payload buffer, reused across every request on
  /// this connection (read_frame assigns in place, so steady-state reads
  /// never allocate).
  std::string read_buf;
};

class Frontend {
 public:
  /// Takes each solve request on its connection's reader thread: the
  /// frame, the request parsed from `payload` (the bytes as read) and the
  /// obs::now_ns() at which the frame was read.
  using Handler = std::function<void(
      const std::shared_ptr<Connection>& conn, const FrameHeader& frame,
      Request& request, const std::string& payload, std::uint64_t read_ns)>;
  using Extras = std::vector<std::pair<std::string, std::string>>;

  /// `prefix` names the role's metrics ("svc" -> `svc.connections`, ...);
  /// `on_stop` runs on a shutdown frame or the external stop flag and
  /// must call stop(); `extras` lists the role's keys for stats replies
  /// and the manifest.
  Frontend(FrontendConfig config, std::string_view prefix, Handler handler,
           std::function<void()> on_stop, std::function<Extras()> extras);
  Frontend(const Frontend&) = delete;
  Frontend& operator=(const Frontend&) = delete;

  /// False + *error when neither a socket path nor a TCP port is set.
  /// Touches nothing, so a role can check before its own setup.
  [[nodiscard]] bool has_endpoint(std::string* error) const;

  /// Binds the configured endpoints. False + *error if none or on failure.
  [[nodiscard]] bool listen(std::string* error);

  /// Spawns the stats loop (if enabled) and the accept loop.
  void start();

  /// Marks the front end stopping; true only on the first call.
  bool stop();
  [[nodiscard]] bool stopping() const noexcept {
    return stopping_.load(std::memory_order_acquire);
  }

  /// Teardown step 1: joins the accept and stats loops and every reader.
  void join();

  /// Teardown step 2: closes the listeners, removes the socket file,
  /// writes the manifest once (`command`, the role's extras, then the
  /// configured ones; `threads` as given) and does the final flight dump
  /// if a trigger fired.
  void finish(const char* command, std::size_t threads = 0);

  /// Sends one reply frame (latency histogram, write fault site, write
  /// timeout). With `stamp_write`, returns obs::now_ns() taken right
  /// before the write; 0 when none was attempted.
  std::uint64_t reply(Connection& conn, std::uint64_t request_id,
                      std::uint64_t trace_id, Status status,
                      std::uint32_t flags, std::string_view payload,
                      double latency_us, bool stamp_write = false);

  /// Something flight-worthy happened: dump the rings, rate-limited, and
  /// once more in finish(). No-op unless flight_path is set.
  void note_flight_trigger();

  /// Replies sent so far (any status).
  [[nodiscard]] std::uint64_t responses() const noexcept {
    return responses_.load(std::memory_order_relaxed);
  }

  /// The endpoints as one label: "PATH", "tcp:PORT" or "PATH+tcp:PORT".
  [[nodiscard]] std::string endpoint_label() const;

 private:
  /// The `<prefix>.*` counters, in the order frontend.cpp names them.
  enum Counter {
    kConnections, kAcceptOverload, kAcceptRetry, kAcceptError, kRequests,
    kBadFrame, kTimeoutRead, kTimeoutWrite, kStatsSnapshots, kFlightDumps,
    kErrors, kPings, kStatsRequests, kCounters
  };

  /// A reader thread and whether its loop has returned (joinable now).
  struct Reader {
    std::thread thread;
    std::weak_ptr<Connection> conn;
    std::atomic<bool> done{false};
  };

  void accept_loop();
  void reader_loop(const std::shared_ptr<Connection>& conn);
  /// Parses one frame's request; answers the local verbs, hands solves
  /// to the role.
  void dispatch(const std::shared_ptr<Connection>& conn,
                const FrameHeader& frame, const std::string& payload);
  /// One stats reply ("json" or "prometheus"): lifetime and ring-window
  /// blocks, then the role's extras and the live reader count.
  [[nodiscard]] std::string stats_payload(const std::string& format);
  void stats_loop();
  /// Joins finished readers (accept thread only).
  void reap_readers();
  void count(Counter which);
  void dump_flight_recorder();

  FrontendConfig config_;
  /// This role's handles (null under QBSS_OBS_OFF).
  std::array<obs::Counter*, kCounters> counters_{};
  obs::Histogram* latency_us_ = nullptr;
  obs::Timer* request_timer_ = nullptr;
  Handler handler_;
  std::function<void()> on_stop_;
  std::function<Extras()> extras_;

  std::vector<int> listen_fds_;
  std::atomic<bool> stopping_{false};
  std::atomic<std::uint64_t> responses_{0};
  std::atomic<std::uint64_t> next_conn_id_{0};
  /// A flight trigger fired since start (final dump owed at shutdown).
  std::atomic<bool> flight_pending_{false};
  /// obs::now_ns() of the last automatic flight dump (rate limiting).
  std::atomic<std::uint64_t> last_flight_dump_ns_{0};

  std::thread accept_thread_;
  std::thread stats_thread_;
  /// Owned by the accept thread (then by join()); list nodes keep each
  /// `done` flag at a stable address.
  std::list<Reader> readers_;
  std::atomic<std::size_t> reader_count_{0};  ///< readers_.size()

  /// Snapshot ring: stats_loop appends, stats replies delta against the
  /// front. Guarded by its own mutex (capture happens outside it).
  std::mutex ring_mu_;
  std::deque<obs::Snapshot> ring_;
  std::mutex stats_mu_;  ///< pairs with stats_cv_ for interruptible sleep
  std::condition_variable stats_cv_;
};

}  // namespace qbss::svc
