#include "svc/frontend.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <fstream>
#include <sstream>

#include "io/json.hpp"
#include "obs/histogram.hpp"
#include "obs/log.hpp"
#include "obs/manifest.hpp"
#include "obs/span.hpp"
#include "obs/trace.hpp"

namespace qbss::svc {

namespace {

using A = obs::LogArg;

/// Binds and listens on `addr`; the fd, or -1 with *error set.
int bind_listener(int domain, const sockaddr* addr, socklen_t len,
                  const std::string& where, std::string* error) {
  const int fd = ::socket(domain, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    if (error) *error = std::string("socket: ") + std::strerror(errno);
    return -1;
  }
  if (domain == AF_INET) {
    const int one = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  }
  if (::bind(fd, addr, len) < 0 || ::listen(fd, 64) < 0) {
    if (error) *error = "bind/listen " + where + ": " + std::strerror(errno);
    ::close(fd);
    return -1;
  }
  return fd;
}

/// Frontend::Counter order.
constexpr const char* kCounterNames[] = {
    "connections",  "accept.overload", "accept.retry", "accept.error",
    "requests",     "badframe",        "timeout.read", "timeout.write",
    "stats.snapshots", "flight.dumps", "errors", "pings", "stats.requests"};

}  // namespace

Connection::~Connection() { ::close(fd); }

// The QBSS_COUNT/QBSS_HIST macros cache their handle in a call-site
// static, which would bind this shared code to whichever role reached it
// first. Each Frontend resolves its own `<prefix>.*` handles instead, and
// like the macros they compile away under QBSS_OBS_OFF.
Frontend::Frontend(FrontendConfig config, std::string_view prefix,
                   Handler handler, std::function<void()> on_stop,
                   std::function<Extras()> extras)
    : config_(std::move(config)),
      handler_(std::move(handler)),
      on_stop_(std::move(on_stop)),
      extras_(std::move(extras)) {
  static_assert(std::size(kCounterNames) == kCounters);
#ifndef QBSS_OBS_OFF
  const std::string p(prefix);
  for (std::size_t i = 0; i < kCounters; ++i) {
    counters_[i] = &obs::registry().counter(p + "." + kCounterNames[i]);
  }
  latency_us_ = &obs::registry().histogram(p + ".latency_us");
  request_timer_ = &obs::registry().timer(p + ".request");
#else
  static_cast<void>(prefix);
#endif
}

void Frontend::count([[maybe_unused]] Counter which) {
#ifndef QBSS_OBS_OFF
  counters_[which]->add();
#endif
}

bool Frontend::has_endpoint(std::string* error) const {
  if (config_.socket_path.empty() && config_.tcp_port == 0) {
    if (error) *error = "no endpoint: need a socket path or a TCP port";
    return false;
  }
  return true;
}

bool Frontend::listen(std::string* error) {
  if (!has_endpoint(error)) return false;
  if (!config_.socket_path.empty()) {
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (config_.socket_path.size() >= sizeof(addr.sun_path)) {
      if (error) *error = "socket path too long";
      return false;
    }
    std::strncpy(addr.sun_path, config_.socket_path.c_str(),
                 sizeof(addr.sun_path) - 1);
    ::unlink(config_.socket_path.c_str());  // stale socket from a crash
    const int fd =
        bind_listener(AF_UNIX, reinterpret_cast<const sockaddr*>(&addr),
                      sizeof addr, config_.socket_path, error);
    if (fd < 0) return false;
    listen_fds_.push_back(fd);
  }
  if (config_.tcp_port != 0) {
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(config_.tcp_port));
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    const int fd = bind_listener(
        AF_INET, reinterpret_cast<const sockaddr*>(&addr), sizeof addr,
        "127.0.0.1:" + std::to_string(config_.tcp_port), error);
    if (fd < 0) return false;
    listen_fds_.push_back(fd);
  }
  return true;
}

void Frontend::start() {
  if (config_.stats_interval_ms > 0.0) {
    stats_thread_ = std::thread([this] { stats_loop(); });
  }
  accept_thread_ = std::thread([this] { accept_loop(); });
}

bool Frontend::stop() {
  const bool first = !stopping_.exchange(true, std::memory_order_acq_rel);
  stats_cv_.notify_all();
  return first;
}

void Frontend::join() {
  if (accept_thread_.joinable()) accept_thread_.join();
  if (stats_thread_.joinable()) stats_thread_.join();
  // Unblock every reader stuck in recv; fds stay open (and numbers
  // un-reused) until the last Connection reference drops.
  for (Reader& reader : readers_) {
    if (reader.done.load(std::memory_order_acquire)) continue;
    if (const auto conn = reader.conn.lock()) {
      ::shutdown(conn->fd, SHUT_RDWR);
    }
  }
  for (Reader& reader : readers_) {
    if (reader.thread.joinable()) reader.thread.join();
  }
  readers_.clear();
  reader_count_.store(0, std::memory_order_relaxed);
}

void Frontend::finish(const char* command, std::size_t threads) {
  for (const int fd : listen_fds_) ::close(fd);
  listen_fds_.clear();
  if (!config_.socket_path.empty()) {
    ::unlink(config_.socket_path.c_str());
  }
  if (!config_.manifest_path.empty()) {
    obs::Manifest manifest = obs::current_manifest();
    manifest.threads = threads;
    manifest.extra.emplace_back("command", command);
    for (auto& entry : extras_()) manifest.extra.push_back(std::move(entry));
    manifest.extra.insert(manifest.extra.end(), config_.manifest_extra.begin(),
                          config_.manifest_extra.end());
    if (std::ofstream out(config_.manifest_path); out) {
      io::write_json_manifest(out, manifest);
    }
    config_.manifest_path.clear();  // once per lifetime
  }
  if (flight_pending_.exchange(false, std::memory_order_acq_rel)) {
    // The final, complete black box: every trigger-time dump was
    // rate-limited and raced ongoing traffic; this one sees it all.
    dump_flight_recorder();
  }
}

void Frontend::dump_flight_recorder() {
  if (config_.flight_path.empty()) return;
  count(kFlightDumps);
  obs::flush_logs();  // the sink stream and the dump agree on history
  obs::dump_flight_recorder(config_.flight_path.c_str());
}

void Frontend::note_flight_trigger() {
  if (config_.flight_path.empty()) return;
  flight_pending_.store(true, std::memory_order_release);
  // Rate limit trigger-time dumps: a chaos plan can fire hundreds of
  // clauses per second, and each dump rewrites the whole file anyway.
  const std::uint64_t now = obs::now_ns();
  std::uint64_t last = last_flight_dump_ns_.load(std::memory_order_relaxed);
  constexpr std::uint64_t kMinGapNs = 250'000'000;  // 250 ms
  if (last != 0 && now - last < kMinGapNs) return;
  if (last_flight_dump_ns_.compare_exchange_strong(
          last, now, std::memory_order_acq_rel)) {
    dump_flight_recorder();
  }
}

void Frontend::reap_readers() {
  for (auto it = readers_.begin(); it != readers_.end();) {
    if (it->done.load(std::memory_order_acquire)) {
      it->thread.join();
      it = readers_.erase(it);
    } else {
      ++it;
    }
  }
  reader_count_.store(readers_.size(), std::memory_order_relaxed);
}

void Frontend::accept_loop() {
  std::vector<pollfd> pfds;
  for (const int fd : listen_fds_) pfds.push_back(pollfd{fd, POLLIN, 0});
  while (!stopping()) {
    if (config_.external_stop != nullptr &&
        config_.external_stop->load(std::memory_order_relaxed)) {
      on_stop_();
      break;
    }
    reap_readers();
    for (pollfd& p : pfds) p.revents = 0;
    const int ready = ::poll(pfds.data(), pfds.size(), 100);
    if (ready < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (ready == 0) continue;
    for (const pollfd& p : pfds) {
      if ((p.revents & POLLIN) == 0) continue;
      const int fd = ::accept4(p.fd, nullptr, nullptr, SOCK_CLOEXEC);
      if (fd < 0) {
        const int err = errno;
        if (err == EMFILE || err == ENFILE || err == ENOBUFS ||
            err == ENOMEM) {
          // Descriptor/buffer exhaustion: back off instead of spinning
          // hot, and keep the listener alive — finishing connections
          // free descriptors.
          count(kAcceptOverload);
          std::this_thread::sleep_for(std::chrono::milliseconds(50));
        } else if (err == EINTR || err == ECONNABORTED || err == EAGAIN ||
                   err == EPROTO) {
          // The peer vanished between poll-readiness and accept, or the
          // call was interrupted: routine, take the next one.
          count(kAcceptRetry);
        } else {
          count(kAcceptError);
        }
        continue;
      }
      if (stopping()) {
        ::close(fd);
        continue;
      }
      set_socket_timeouts(fd, config_.read_timeout_ms,
                          config_.write_timeout_ms);
      count(kConnections);
      const std::uint64_t conn_id =
          next_conn_id_.fetch_add(1, std::memory_order_relaxed) + 1;
      auto conn = std::make_shared<Connection>(fd, conn_id);
      QBSS_LOG_INFO("conn.accept", 0, A("conn", conn_id));
      Reader& reader = readers_.emplace_back();
      reader.conn = conn;
      reader.thread = std::thread([this, conn = std::move(conn), &reader] {
        reader_loop(conn);
        reader.done.store(true, std::memory_order_release);
      });
      reader_count_.store(readers_.size(), std::memory_order_relaxed);
    }
  }
}

void Frontend::reader_loop(const std::shared_ptr<Connection>& conn) {
  std::string& payload = conn->read_buf;
  std::string error;
  const char* close_reason = "eof";
  bool abnormal = false;
  for (;;) {
    FrameHeader header;
    const ReadResult rc = read_frame(conn->fd, &header, &payload, &error);
    if (rc == ReadResult::kTimeout) {
      // Slowloris / stalled peer: reclaim the connection instead of
      // holding a reader thread hostage forever.
      count(kTimeoutRead);
      ::shutdown(conn->fd, SHUT_RDWR);
      close_reason = "read_timeout";
      abnormal = true;
      break;
    }
    if (rc == ReadResult::kBadFrame) {
      // The stream cannot resync after a bad header, but the peer gets
      // a typed error frame saying why before the close — never a
      // silent drop.
      count(kBadFrame);
      QBSS_LOG_WARN("req.error", 0, A("conn", conn->id),
                    A("message", error));
      reply(*conn, 0, 0, Status::kError, 0, "message: " + error + "\n", 0.0);
      close_reason = "badframe";
      abnormal = true;
      break;
    }
    if (rc == ReadResult::kError) {
      close_reason = "read_error";
      abnormal = true;
      break;
    }
    if (rc != ReadResult::kFrame) break;
    const faults::Action fault = QBSS_FAULT(faults::Site::kRead);
    faults::log_fault_fired(fault, "read", header.trace_id, conn->id);
    if (fault.any()) note_flight_trigger();
    if (fault.delay_ms > 0.0) faults::sleep_ms(fault.delay_ms);
    if (fault.drop_connection) {
      // Injected short read: tear the connection down mid-request; the
      // client sees EOF with no response and must reconnect and retry.
      ::shutdown(conn->fd, SHUT_RDWR);
      close_reason = "fault_drop";
      abnormal = true;
      break;
    }
    count(kRequests);
    dispatch(conn, header, payload);
    if (stopping()) {
      close_reason = "shutdown";
      break;
    }
  }
  QBSS_LOG_INFO("conn.close", 0, A("conn", conn->id),
                A("reason", close_reason));
  if (abnormal) note_flight_trigger();
}

void Frontend::dispatch(const std::shared_ptr<Connection>& conn,
                        const FrameHeader& frame, const std::string& payload) {
#ifndef QBSS_OBS_OFF
  const obs::Span span(*request_timer_);
#endif
  const std::uint64_t read_ns = obs::now_ns();
  const auto answer = [&](Status status, std::string_view body) {
    reply(*conn, frame.request_id, frame.trace_id, status, 0, body,
          obs::elapsed_us(read_ns));
  };
  Request request;
  std::string error;
  if (!parse_request(payload, &request, &error)) {
    count(kErrors);
    QBSS_LOG_WARN("req.error", frame.trace_id, A("conn", conn->id),
                  A("req", frame.request_id), A("message", error));
    answer(Status::kError, "message: " + error + "\n");
    return;
  }
  switch (request.verb) {
    case Verb::kPing:
      count(kPings);
      answer(Status::kOk, "pong\n");
      return;
    case Verb::kShutdown:
      // Stops this process only: a router's backends keep serving.
      answer(Status::kOk, "bye\n");
      on_stop_();
      return;
    case Verb::kStats:
      // Answered inline on the reader thread, bypassing the role: live
      // introspection still works when the server's queue is full.
      count(kStatsRequests);
      answer(Status::kOk, stats_payload(request.stats_format));
      return;
    case Verb::kSolve:
      break;
  }
  handler_(conn, frame, request, payload, read_ns);
}

std::uint64_t Frontend::reply(Connection& conn, std::uint64_t request_id,
                              std::uint64_t trace_id, Status status,
                              std::uint32_t flags, std::string_view payload,
                              double latency_us, bool stamp_write) {
#ifndef QBSS_OBS_OFF
  latency_us_->record(latency_us);
#else
  static_cast<void>(latency_us);
#endif
  responses_.fetch_add(1, std::memory_order_relaxed);
  FrameHeader header;
  header.status = status;
  header.flags = flags;
  header.request_id = request_id;
  header.trace_id = trace_id;
  std::string error;
  const faults::Action fault = QBSS_FAULT(faults::Site::kWrite);
  faults::log_fault_fired(fault, "write", trace_id, conn.id);
  if (fault.any()) note_flight_trigger();
  if (fault.delay_ms > 0.0) faults::sleep_ms(fault.delay_ms);
  const std::lock_guard<std::mutex> lock(conn.write_mu);
  if (fault.corrupt_header) {
    // Injected corruption: the frame goes out with a flipped magic
    // byte, so the client's decode must reject it and retry.
    static_cast<void>(write_corrupt_frame(conn.fd, header, payload, &error));
    return 0;
  }
  if (fault.drop_connection) {
    // Injected write error: the response vanishes with the connection.
    ::shutdown(conn.fd, SHUT_RDWR);
    return 0;
  }
  // A vanished client is not a failure; the write error is deliberately
  // dropped (EPIPE after shutdown is the normal case) — but a peer that
  // stopped draining replies is disconnected so it cannot wedge later
  // replies behind its full socket buffer.
  bool timed_out = false;
  const std::uint64_t write_start = stamp_write ? obs::now_ns() : 0;
  if (!write_frame(conn.fd, header, payload, &error, &timed_out) &&
      timed_out) {
    count(kTimeoutWrite);
    ::shutdown(conn.fd, SHUT_RDWR);
  }
  return write_start;
}

std::string Frontend::endpoint_label() const {
  std::string label = config_.socket_path;
  if (config_.tcp_port != 0) {
    if (!label.empty()) label += "+";
    label += "tcp:" + std::to_string(config_.tcp_port);
  }
  return label;
}

void Frontend::stats_loop() {
  const auto interval =
      std::chrono::duration<double, std::milli>(config_.stats_interval_ms);
  const std::size_t cap = std::max<std::size_t>(config_.stats_ring, 1);
  std::unique_lock<std::mutex> lock(stats_mu_);
  // The first capture is taken at startup, so the first stats reply
  // already has a real window instead of falling back to lifetime
  // averages.
  do {
    obs::Snapshot snap = obs::capture_snapshot(true);
    count(kStatsSnapshots);
    const std::lock_guard<std::mutex> rlock(ring_mu_);
    ring_.push_back(std::move(snap));
    while (ring_.size() > cap) ring_.pop_front();
  } while (!stats_cv_.wait_for(lock, interval, [this] { return stopping(); }));
}

std::string Frontend::stats_payload(const std::string& format) {
  obs::StatsFrame frame;
  frame.lifetime = obs::capture_snapshot(true);
  frame.uptime_seconds = frame.lifetime.uptime_seconds;
  frame.interval_ms = config_.stats_interval_ms;
  {
    // Ring disabled (--stats-interval-ms 0): the "window" degrades to
    // the whole lifetime, i.e. lifetime-average rates.
    static const obs::Snapshot kEmpty;
    const std::lock_guard<std::mutex> lock(ring_mu_);
    frame.window =
        obs::delta(ring_.empty() ? kEmpty : ring_.front(), frame.lifetime);
  }
  frame.extra = extras_();
  frame.extra.emplace_back(
      "readers",
      std::to_string(reader_count_.load(std::memory_order_relaxed)));
  std::ostringstream out;
  if (format == "prometheus") {
    obs::write_prometheus(out, frame);
  } else {
    io::write_json_stats(out, frame);
  }
  return out.str();
}

}  // namespace qbss::svc
