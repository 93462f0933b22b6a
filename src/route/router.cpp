#include "route/router.hpp"

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

#include "faults/faults.hpp"
#include "io/json.hpp"
#include "obs/histogram.hpp"
#include "obs/log.hpp"
#include "obs/manifest.hpp"
#include "obs/span.hpp"
#include "obs/trace.hpp"

namespace qbss::route {

namespace {

using A = obs::LogArg;
using Clock = std::chrono::steady_clock;

/// Distinct hit counts tracked before the table resets (hot verdicts
/// survive the reset; only in-progress counts restart).
constexpr std::size_t kMaxTrackedKeys = 65536;

double elapsed_us(Clock::time_point since) {
  return std::chrono::duration<double, std::micro>(Clock::now() - since)
      .count();
}

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

void close_fd(int& fd) {
  if (fd >= 0) {
    ::close(fd);
    fd = -1;
  }
}

void sleep_ms(double ms) {
  std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(ms));
}

/// Same per-clause fault logging as the server: the flight recording
/// correlates an injected proxy fault to the request it hit.
void log_fault_fired(const faults::Action& action, const char* site,
                     std::uint64_t trace_id, std::uint64_t conn_id) {
  for (std::uint32_t kind = 0; kind < faults::FaultSpec::kKindCount; ++kind) {
    if ((action.fired_kinds & (1u << kind)) == 0) continue;
    QBSS_LOG_WARN(
        "faults.fired", trace_id, A("site", site),
        A("kind",
          faults::kind_name(static_cast<faults::FaultSpec::Kind>(kind))),
        A("conn", conn_id), A("delay_ms", action.delay_ms));
  }
}

}  // namespace

Router::Connection::~Connection() { close_fd(fd); }

Router::Router(RouterConfig config)
    : config_(std::move(config)), ring_(config_.topology.ring_nodes()) {
  if (config_.pool_capacity < 1) config_.pool_capacity = 1;
  if (config_.backend_retries < 0) config_.backend_retries = 0;
  // backends_ aligns with ring node indices (name-sorted), so a ring
  // lookup indexes straight into it.
  backends_.reserve(ring_.size());
  const BreakerConfig breaker{config_.breaker_failures,
                              config_.breaker_open_ms};
  for (std::size_t i = 0; i < ring_.size(); ++i) {
    for (const BackendSpec& spec : config_.topology.backends) {
      if (spec.name == ring_.name(i)) {
        backends_.push_back(std::make_unique<Backend>(spec, breaker));
        break;
      }
    }
  }
}

Router::~Router() {
  shutdown();
  wait();
}

bool Router::start(std::string* error) {
  if (config_.socket_path.empty() && config_.tcp_port == 0) {
    if (error) *error = "no endpoint: need a socket path or a TCP port";
    return false;
  }
  if (backends_.empty()) {
    if (error) *error = "topology declares no backends";
    return false;
  }

  if (!config_.socket_path.empty()) {
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (config_.socket_path.size() >= sizeof(addr.sun_path)) {
      if (error) *error = "socket path too long";
      return false;
    }
    std::strncpy(addr.sun_path, config_.socket_path.c_str(),
                 sizeof(addr.sun_path) - 1);
    const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd < 0) {
      if (error) *error = std::string("socket: ") + std::strerror(errno);
      return false;
    }
    ::unlink(config_.socket_path.c_str());  // stale socket from a crash
    if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) <
            0 ||
        ::listen(fd, 64) < 0) {
      if (error) {
        *error = "bind/listen " + config_.socket_path + ": " +
                 std::strerror(errno);
      }
      ::close(fd);
      return false;
    }
    listen_fds_.push_back(fd);
  }

  if (config_.tcp_port != 0) {
    const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd < 0) {
      if (error) *error = std::string("socket: ") + std::strerror(errno);
      return false;
    }
    const int one = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(config_.tcp_port));
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) <
            0 ||
        ::listen(fd, 64) < 0) {
      if (error) {
        *error = "bind/listen 127.0.0.1:" + std::to_string(config_.tcp_port) +
                 ": " + std::strerror(errno);
      }
      ::close(fd);
      return false;
    }
    listen_fds_.push_back(fd);
  }

  replication_thread_ = std::thread([this] { replication_loop(); });
  if (config_.health_interval_ms > 0.0) {
    health_thread_ = std::thread([this] { health_loop(); });
  }
  if (config_.stats_interval_ms > 0.0) {
    stats_thread_ = std::thread([this] { stats_loop(); });
  }
  accept_thread_ = std::thread([this] { accept_loop(); });
  log_route_start();
  return true;
}

void Router::log_route_start() {
  std::string endpoint = config_.socket_path;
  if (config_.tcp_port != 0) {
    if (!endpoint.empty()) endpoint += "+";
    endpoint += "tcp:" + std::to_string(config_.tcp_port);
  }
  std::string fleet;
  for (const auto& backend : backends_) {
    if (!fleet.empty()) fleet += ",";
    fleet += backend->spec.name;
  }
  const faults::FaultPlan plan = faults::injector().plan();
  QBSS_LOG_INFO(
      "route.start", 0, A("endpoint", endpoint), A("backends", fleet),
      A("replicas", config_.replicas),
      A("hot_threshold", config_.hot_threshold),
      A("health_interval_ms", config_.health_interval_ms),
      A("breaker_failures", config_.breaker_failures),
      A("breaker_open_ms", config_.breaker_open_ms),
      A("backend_timeout_ms", config_.backend_timeout_ms),
      A("backend_retries", config_.backend_retries),
      A("pool_capacity", config_.pool_capacity),
      A("fault_plan", plan.empty() ? std::string_view("none")
                                   : std::string_view(plan.text)));
}

void Router::shutdown() {
  stopping_.store(true, std::memory_order_release);
  replication_cv_.notify_all();
  stats_cv_.notify_all();
  health_cv_.notify_all();
}

void Router::wait() {
  if (accept_thread_.joinable()) accept_thread_.join();
  {
    const std::lock_guard<std::mutex> lock(conns_mu_);
    for (const auto& conn : conns_) {
      ::shutdown(conn->fd, SHUT_RDWR);
    }
  }
  for (std::thread& reader : readers_) {
    if (reader.joinable()) reader.join();
  }
  replication_cv_.notify_all();
  if (replication_thread_.joinable()) replication_thread_.join();
  if (health_thread_.joinable()) health_thread_.join();
  if (stats_thread_.joinable()) stats_thread_.join();

  for (int& fd : listen_fds_) close_fd(fd);
  if (!config_.socket_path.empty()) {
    ::unlink(config_.socket_path.c_str());
  }
  {
    const std::lock_guard<std::mutex> lock(conns_mu_);
    conns_.clear();
  }
  if (!config_.manifest_path.empty()) {
    write_manifest();
    config_.manifest_path.clear();  // once per lifetime
  }
  if (flight_pending_.exchange(false, std::memory_order_acq_rel)) {
    dump_flight_recorder();
  }
}

void Router::dump_flight_recorder() {
  if (config_.flight_path.empty()) return;
  QBSS_COUNT("route.flight.dumps");
  obs::flush_logs();
  obs::dump_flight_recorder(config_.flight_path.c_str());
}

void Router::note_flight_trigger() {
  if (config_.flight_path.empty()) return;
  flight_pending_.store(true, std::memory_order_release);
  const std::uint64_t now = obs::now_ns();
  std::uint64_t last = last_flight_dump_ns_.load(std::memory_order_relaxed);
  constexpr std::uint64_t kMinGapNs = 250'000'000;  // 250 ms
  if (last != 0 && now - last < kMinGapNs) return;
  if (last_flight_dump_ns_.compare_exchange_strong(
          last, now, std::memory_order_acq_rel)) {
    dump_flight_recorder();
  }
}

void Router::accept_loop() {
  std::vector<pollfd> pfds;
  pfds.reserve(listen_fds_.size());
  for (const int fd : listen_fds_) {
    pfds.push_back(pollfd{fd, POLLIN, 0});
  }
  while (!stopping_.load(std::memory_order_acquire)) {
    if (config_.external_stop != nullptr &&
        config_.external_stop->load(std::memory_order_relaxed)) {
      shutdown();
      break;
    }
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
          QBSS_COUNT("route.accept.overload");
          std::this_thread::sleep_for(std::chrono::milliseconds(50));
        } else if (err == EINTR || err == ECONNABORTED || err == EAGAIN ||
                   err == EPROTO) {
          QBSS_COUNT("route.accept.retry");
        } else {
          QBSS_COUNT("route.accept.error");
        }
        continue;
      }
      if (stopping_.load(std::memory_order_acquire)) {
        ::close(fd);
        continue;
      }
      svc::set_socket_timeouts(fd, config_.read_timeout_ms,
                               config_.write_timeout_ms);
      QBSS_COUNT("route.connections");
      const std::uint64_t conn_id =
          next_conn_id_.fetch_add(1, std::memory_order_relaxed) + 1;
      auto conn = std::make_shared<Connection>(fd, conn_id);
      QBSS_LOG_INFO("conn.accept", 0, A("conn", conn_id));
      const std::lock_guard<std::mutex> lock(conns_mu_);
      conns_.push_back(conn);
      readers_.emplace_back(
          [this, conn = std::move(conn)]() mutable { reader_loop(conn); });
    }
  }
}

void Router::reader_loop(std::shared_ptr<Connection> conn) {
  std::string& payload = conn->read_buf;
  std::string error;
  const char* close_reason = "eof";
  bool abnormal = false;
  for (;;) {
    svc::FrameHeader header;
    const svc::ReadResult rc =
        svc::read_frame(conn->fd, &header, &payload, &error);
    if (rc == svc::ReadResult::kTimeout) {
      QBSS_COUNT("route.timeout.read");
      ::shutdown(conn->fd, SHUT_RDWR);
      close_reason = "read_timeout";
      abnormal = true;
      break;
    }
    if (rc == svc::ReadResult::kBadFrame) {
      QBSS_COUNT("route.badframe");
      QBSS_LOG_WARN("req.error", 0, A("conn", conn->id),
                    A("message", error));
      respond(conn, 0, 0, svc::Status::kError, 0,
              "message: " + error + "\n", 0.0);
      close_reason = "badframe";
      abnormal = true;
      break;
    }
    if (rc == svc::ReadResult::kError) {
      close_reason = "read_error";
      abnormal = true;
      break;
    }
    if (rc != svc::ReadResult::kFrame) break;
    const faults::Action fault = QBSS_FAULT(faults::Site::kRead);
    log_fault_fired(fault, "read", header.trace_id, conn->id);
    if (fault.any()) note_flight_trigger();
    if (fault.delay_ms > 0.0) sleep_ms(fault.delay_ms);
    if (fault.drop_connection) {
      ::shutdown(conn->fd, SHUT_RDWR);
      close_reason = "fault_drop";
      abnormal = true;
      break;
    }
    QBSS_COUNT("route.requests");
    handle_request(conn, header, payload);
    if (stopping_.load(std::memory_order_acquire)) {
      close_reason = "shutdown";
      break;
    }
  }
  QBSS_LOG_INFO("conn.close", 0, A("conn", conn->id),
                A("reason", close_reason));
  if (abnormal) note_flight_trigger();
  const std::lock_guard<std::mutex> lock(conns_mu_);
  std::erase(conns_, conn);
}

void Router::handle_request(const std::shared_ptr<Connection>& conn,
                            const svc::FrameHeader& frame,
                            const std::string& payload) {
  QBSS_SPAN("route.request");
  const Clock::time_point admitted = Clock::now();
  svc::Request request;
  std::string error;
  if (!svc::parse_request(payload, &request, &error)) {
    QBSS_COUNT("route.errors");
    QBSS_LOG_WARN("req.error", frame.trace_id, A("conn", conn->id),
                  A("req", frame.request_id), A("message", error));
    respond(conn, frame.request_id, frame.trace_id, svc::Status::kError, 0,
            "message: " + error + "\n", elapsed_us(admitted));
    return;
  }
  if (request.verb == svc::Verb::kPing) {
    QBSS_COUNT("route.pings");
    respond(conn, frame.request_id, frame.trace_id, svc::Status::kOk, 0,
            "pong\n", elapsed_us(admitted));
    return;
  }
  if (request.verb == svc::Verb::kShutdown) {
    // A shutdown frame stops the *router*; the backends are someone
    // else's processes and keep serving (stop them individually).
    respond(conn, frame.request_id, frame.trace_id, svc::Status::kOk, 0,
            "bye\n", elapsed_us(admitted));
    shutdown();
    return;
  }
  if (request.verb == svc::Verb::kStats) {
    QBSS_COUNT("route.stats.requests");
    respond(conn, frame.request_id, frame.trace_id, svc::Status::kOk, 0,
            build_stats_payload(request.stats_format), elapsed_us(admitted));
    return;
  }
  proxy_solve(conn, frame, request, payload);
}

void Router::proxy_solve(const std::shared_ptr<Connection>& conn,
                         const svc::FrameHeader& frame,
                         const svc::Request& request,
                         std::string_view payload) {
  const Clock::time_point admitted = Clock::now();
  const std::uint64_t hash = HashRing::key_hash(svc::cache_key(request));
  const std::size_t primary = ring_.primary(hash);
  bool hot = false;
  const bool crossed = note_hit(hash, &hot);

  // Candidate order: the ring owner, then every other node in ring
  // order — the tail is the failover ladder. For hot keys the first
  // `replicas + 1` entries all hold the key, so rotate within that
  // prefix to spread the load.
  std::vector<std::size_t> order;
  order.reserve(backends_.size());
  order.push_back(primary);
  const std::vector<std::size_t> succ =
      ring_.successors(hash, backends_.size() - 1);
  order.insert(order.end(), succ.begin(), succ.end());
  const std::size_t replica_set =
      hot && config_.replicas > 0
          ? std::min(config_.replicas + 1, order.size())
          : 1;
  if (replica_set > 1) {
    const std::size_t first =
        hot_rotation_.fetch_add(1, std::memory_order_relaxed) % replica_set;
    std::rotate(order.begin(),
                order.begin() + static_cast<std::ptrdiff_t>(first),
                order.begin() + static_cast<std::ptrdiff_t>(replica_set));
  }

  for (std::size_t i = 0; i < order.size(); ++i) {
    const std::size_t index = order[i];
    Backend& backend = *backends_[index];
    if (!backend.breaker.allow(now_ns())) continue;
    svc::Client::Reply reply;
    const bool ok = call_backend(index, payload, frame.trace_id, &reply);
    record_backend_result(index, ok);
    if (!ok) continue;
    if (index != order[0]) {
      // The intended backend was skipped (breaker open) or failed the
      // call; the key was served by a later ring node instead.
      QBSS_COUNT("route.failover");
      QBSS_LOG_WARN("route.failover", frame.trace_id,
                    A("backend", backend.spec.name),
                    A("from", backends_[order[0]]->spec.name),
                    A::hex("key", hash));
    }
    backend.forwarded.fetch_add(1, std::memory_order_relaxed);
    QBSS_COUNT("route.forwarded");
    if (reply.cache_hit) QBSS_COUNT("route.hit");
    if (crossed && config_.replicas > 0 && !succ.empty()) {
      Replication task;
      task.payload = payload;
      const std::size_t targets = std::min(config_.replicas, succ.size());
      task.targets.assign(succ.begin(),
                          succ.begin() + static_cast<std::ptrdiff_t>(targets));
      task.key_hash = hash;
      task.trace_id = frame.trace_id;
      enqueue_replication(std::move(task));
    }
    const std::uint32_t flags =
        (reply.cache_hit ? svc::kFlagCacheHit : 0u) |
        (reply.disk_hit ? svc::kFlagDiskHit : 0u);
    respond(conn, frame.request_id, frame.trace_id, reply.status, flags,
            reply.payload, elapsed_us(admitted));
    return;
  }

  QBSS_COUNT("route.shed.no_backend");
  QBSS_LOG_WARN("req.shed", frame.trace_id, A("conn", conn->id),
                A("req", frame.request_id), A("reason", "no_backend"));
  respond(conn, frame.request_id, frame.trace_id, svc::Status::kShed, 0,
          "reason: no_backend\n", elapsed_us(admitted));
}

bool Router::call_backend(std::size_t index, std::string_view payload,
                          std::uint64_t trace_id, svc::Client::Reply* reply) {
  Backend& backend = *backends_[index];
  std::unique_ptr<svc::RetryingClient> client;
  {
    const std::lock_guard<std::mutex> lock(backend.pool_mu);
    if (!backend.pool.empty()) {
      client = std::move(backend.pool.back());
      backend.pool.pop_back();
    }
  }
  if (client) {
    QBSS_COUNT("route.pool.reused");
  } else {
    QBSS_COUNT("route.pool.created");
    svc::RetryPolicy policy;
    policy.max_retries = config_.backend_retries;
    policy.attempt_timeout_ms = config_.backend_timeout_ms;
    policy.jitter_seed = 0x9e3779b97f4a7c15ULL ^
                         (static_cast<std::uint64_t>(index) + 1) *
                             0x100000001b3ULL;
    client =
        std::make_unique<svc::RetryingClient>(backend.spec.endpoint, policy);
  }
  // Echo the caller's trace id through every backend attempt (0 keeps
  // auto-generated ids for untraced callers and health probes).
  client->pin_trace_id(trace_id);
  const Clock::time_point start = Clock::now();
  std::string error;
  const bool ok = client->call_raw(payload, reply, &error);
  QBSS_HIST("route.backend_us", elapsed_us(start));
  client->pin_trace_id(0);
  {
    const std::lock_guard<std::mutex> lock(backend.pool_mu);
    if (backend.pool.size() < config_.pool_capacity) {
      backend.pool.push_back(std::move(client));
    }
  }
  return ok;
}

void Router::record_backend_result(std::size_t index, bool ok) {
  Backend& backend = *backends_[index];
  const std::int64_t now = now_ns();
  if (ok) {
    if (backend.breaker.record_success(now)) {
      QBSS_COUNT("route.backend_up");
      QBSS_LOG_INFO("route.backend_up", 0, A("backend", backend.spec.name));
    }
    return;
  }
  backend.failures.fetch_add(1, std::memory_order_relaxed);
  QBSS_COUNT("route.backend.error");
  if (backend.breaker.record_failure(now)) {
    QBSS_COUNT("route.backend_down");
    QBSS_LOG_WARN("route.backend_down", 0, A("backend", backend.spec.name),
                  A("failures", backend.breaker.failures()));
    note_flight_trigger();
  }
}

bool Router::note_hit(std::uint64_t key_hash, bool* hot) {
  *hot = false;
  if (config_.hot_threshold == 0) return false;
  const std::lock_guard<std::mutex> lock(hot_mu_);
  if (hot_.count(key_hash) != 0) {
    *hot = true;
    return false;
  }
  if (key_hits_.size() >= kMaxTrackedKeys && key_hits_.count(key_hash) == 0) {
    key_hits_.clear();  // bounded memory; counts restart, verdicts keep
  }
  const std::uint64_t hits = ++key_hits_[key_hash];
  if (hits < config_.hot_threshold) return false;
  key_hits_.erase(key_hash);
  if (hot_.size() >= kMaxTrackedKeys) hot_.clear();
  hot_.insert(key_hash);
  hot_keys_.fetch_add(1, std::memory_order_relaxed);
  QBSS_COUNT("route.hot_keys");
  *hot = true;
  return true;
}

void Router::enqueue_replication(Replication task) {
  {
    const std::lock_guard<std::mutex> lock(replication_mu_);
    replication_queue_.push_back(std::move(task));
  }
  replication_cv_.notify_one();
}

void Router::replication_loop() {
  for (;;) {
    Replication task;
    {
      std::unique_lock<std::mutex> lock(replication_mu_);
      replication_cv_.wait(lock, [this] {
        return !replication_queue_.empty() ||
               stopping_.load(std::memory_order_acquire);
      });
      if (replication_queue_.empty()) {
        if (stopping_.load(std::memory_order_acquire)) return;
        continue;
      }
      task = std::move(replication_queue_.front());
      replication_queue_.pop_front();
    }
    for (const std::size_t target : task.targets) {
      if (stopping_.load(std::memory_order_acquire)) return;
      Backend& backend = *backends_[target];
      if (!backend.breaker.allow(now_ns())) continue;
      svc::Client::Reply reply;
      const bool ok = call_backend(target, task.payload, task.trace_id,
                                   &reply);
      record_backend_result(target, ok);
      if (!ok || reply.status != svc::Status::kOk) continue;
      backend.replicated.fetch_add(1, std::memory_order_relaxed);
      QBSS_COUNT("route.replicate");
      QBSS_LOG_INFO("route.replicate", task.trace_id,
                    A("backend", backend.spec.name),
                    A::hex("key", task.key_hash),
                    A("cache_hit", reply.cache_hit));
    }
  }
}

void Router::health_loop() {
  const auto interval =
      std::chrono::duration<double, std::milli>(config_.health_interval_ms);
  svc::Request ping_request;
  ping_request.verb = svc::Verb::kPing;
  const std::string ping = svc::serialize_request(ping_request);
  while (!stopping_.load(std::memory_order_acquire)) {
    {
      std::unique_lock<std::mutex> lock(health_mu_);
      health_cv_.wait_for(lock, interval, [this] {
        return stopping_.load(std::memory_order_acquire);
      });
    }
    if (stopping_.load(std::memory_order_acquire)) break;
    for (std::size_t i = 0; i < backends_.size(); ++i) {
      if (stopping_.load(std::memory_order_acquire)) break;
      QBSS_COUNT("route.health.probes");
      svc::Client::Reply reply;
      const bool ok = call_backend(i, ping, 0, &reply) &&
                      reply.status == svc::Status::kOk;
      if (!ok) QBSS_COUNT("route.health.failures");
      record_backend_result(i, ok);
    }
  }
}

void Router::stats_loop() {
  const auto interval =
      std::chrono::duration<double, std::milli>(config_.stats_interval_ms);
  const std::size_t cap = std::max<std::size_t>(config_.stats_ring, 1);
  {
    obs::Snapshot snap = obs::capture_snapshot(true);
    const std::lock_guard<std::mutex> rlock(ring_mu_);
    snapshots_.push_back(std::move(snap));
  }
  std::unique_lock<std::mutex> lock(stats_mu_);
  while (!stopping_.load(std::memory_order_acquire)) {
    stats_cv_.wait_for(lock, interval, [this] {
      return stopping_.load(std::memory_order_acquire);
    });
    if (stopping_.load(std::memory_order_acquire)) break;
    obs::Snapshot snap = obs::capture_snapshot(true);
    const std::lock_guard<std::mutex> rlock(ring_mu_);
    snapshots_.push_back(std::move(snap));
    while (snapshots_.size() > cap) snapshots_.pop_front();
  }
}

std::vector<Router::BackendStatus> Router::backend_status() const {
  std::vector<BackendStatus> out;
  out.reserve(backends_.size());
  const std::int64_t now = now_ns();
  for (const auto& backend : backends_) {
    BackendStatus status;
    status.name = backend->spec.name;
    status.addr = svc::endpoint_to_string(backend->spec.endpoint);
    status.state = backend->breaker.state(now);
    status.forwarded = backend->forwarded.load(std::memory_order_relaxed);
    status.failures = backend->failures.load(std::memory_order_relaxed);
    status.replicated = backend->replicated.load(std::memory_order_relaxed);
    out.push_back(std::move(status));
  }
  return out;
}

std::string Router::build_stats_payload(const std::string& format) {
  obs::StatsFrame frame;
  frame.lifetime = obs::capture_snapshot(true);
  frame.uptime_seconds = frame.lifetime.uptime_seconds;
  frame.interval_ms = config_.stats_interval_ms;
  bool have_window = false;
  {
    const std::lock_guard<std::mutex> lock(ring_mu_);
    if (!snapshots_.empty()) {
      frame.window = obs::delta(snapshots_.front(), frame.lifetime);
      have_window = true;
    }
  }
  if (!have_window) {
    frame.window = obs::delta(obs::Snapshot{}, frame.lifetime);
  }
  frame.extra.emplace_back("role", "route");
  frame.extra.emplace_back("backends", std::to_string(backends_.size()));
  frame.extra.emplace_back("replicas", std::to_string(config_.replicas));
  frame.extra.emplace_back("hot_threshold",
                           std::to_string(config_.hot_threshold));
  frame.extra.emplace_back("hot_keys", std::to_string(hot_keys()));
  frame.extra.emplace_back("responses", std::to_string(responses()));
  // The per-backend breakdown `qbss top`/`scrape` render: one extra per
  // backend, value = "addr state=... forwarded=... failures=...
  // replicated=...".
  for (const BackendStatus& status : backend_status()) {
    frame.extra.emplace_back(
        "backend." + status.name,
        status.addr + " state=" + breaker_state_name(status.state) +
            " forwarded=" + std::to_string(status.forwarded) +
            " failures=" + std::to_string(status.failures) +
            " replicated=" + std::to_string(status.replicated));
  }
  std::ostringstream out;
  if (format == "prometheus") {
    obs::write_prometheus(out, frame);
  } else {
    io::write_json_stats(out, frame);
  }
  return out.str();
}

void Router::respond(const std::shared_ptr<Connection>& conn,
                     std::uint64_t request_id, std::uint64_t trace_id,
                     svc::Status status, std::uint32_t flags,
                     std::string_view payload, double latency_us) {
  QBSS_HIST("route.latency_us", latency_us);
  responses_.fetch_add(1, std::memory_order_relaxed);
  svc::FrameHeader header;
  header.status = status;
  header.flags = flags;
  header.request_id = request_id;
  header.trace_id = trace_id;
  std::string error;
  const faults::Action fault = QBSS_FAULT(faults::Site::kWrite);
  log_fault_fired(fault, "write", trace_id, conn->id);
  if (fault.any()) note_flight_trigger();
  if (fault.delay_ms > 0.0) sleep_ms(fault.delay_ms);
  const std::lock_guard<std::mutex> lock(conn->write_mu);
  if (fault.corrupt_header) {
    static_cast<void>(
        svc::write_corrupt_frame(conn->fd, header, payload, &error));
    return;
  }
  if (fault.drop_connection) {
    ::shutdown(conn->fd, SHUT_RDWR);
    return;
  }
  bool timed_out = false;
  if (!svc::write_frame(conn->fd, header, payload, &error, &timed_out) &&
      timed_out) {
    QBSS_COUNT("route.timeout.write");
    ::shutdown(conn->fd, SHUT_RDWR);
  }
}

void Router::write_manifest() {
  obs::Manifest manifest = obs::current_manifest();
  manifest.extra.emplace_back("command", "route");
  manifest.extra.emplace_back("backends", std::to_string(backends_.size()));
  manifest.extra.emplace_back("replicas", std::to_string(config_.replicas));
  manifest.extra.emplace_back("hot_threshold",
                              std::to_string(config_.hot_threshold));
  manifest.extra.emplace_back("hot_keys", std::to_string(hot_keys()));
  manifest.extra.emplace_back("responses", std::to_string(responses()));
  for (const BackendStatus& status : backend_status()) {
    manifest.extra.emplace_back(
        "backend." + status.name,
        status.addr + " forwarded=" + std::to_string(status.forwarded) +
            " failures=" + std::to_string(status.failures) +
            " replicated=" + std::to_string(status.replicated));
  }
  for (const auto& [key, value] : config_.manifest_extra) {
    manifest.extra.emplace_back(key, value);
  }
  if (std::ofstream out(config_.manifest_path); out) {
    io::write_json_manifest(out, manifest);
  }
}

}  // namespace qbss::route
