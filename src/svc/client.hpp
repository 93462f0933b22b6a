// qbss::svc client — a blocking one-request-at-a-time connection to a
// qbss serve endpoint. The loadgen drives many of these concurrently;
// each Client owns one socket and matches responses by request id.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "svc/endpoint.hpp"
#include "svc/protocol.hpp"

namespace qbss::svc {

/// One framed connection. Not thread-safe; use one Client per thread.
class Client {
 public:
  Client() = default;
  ~Client();
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// Connects to a Unix-domain socket path.
  [[nodiscard]] bool connect_unix(const std::string& path,
                                  std::string* error);

  /// Connects to 127.0.0.1:`port`.
  [[nodiscard]] bool connect_tcp(int port, std::string* error);

  /// Connects to `host`:`port` (an IPv4 literal; "" = 127.0.0.1).
  [[nodiscard]] bool connect_tcp(const std::string& host, int port,
                                 std::string* error);

  /// Connects to whichever transport `endpoint` names.
  [[nodiscard]] bool connect(const Endpoint& endpoint, std::string* error);

  /// Per-attempt socket timeout: a call that cannot send or receive
  /// within `ms` fails instead of blocking forever. Applies to the
  /// current connection and every later one; 0 restores blocking io.
  void set_timeout_ms(double ms);

  /// A response as it came off the wire.
  struct Reply {
    Status status = Status::kError;
    bool cache_hit = false;
    bool disk_hit = false;  ///< hit was served from the on-disk tier
    std::uint64_t trace_id = 0;  ///< echoed from the response header
    std::string payload;
  };

  /// Sends `request` and blocks for its response. False + *error on a
  /// transport failure (a kShed/kError *reply* is still a true return).
  /// Every call stamps a fresh nonzero trace id into the request header
  /// (unless pinned by set_next_trace_id); the server echoes it and may
  /// record a sampled span chain under it.
  [[nodiscard]] bool call(const Request& request, Reply* reply,
                          std::string* error);

  /// Like call, but sends `payload` as the request body verbatim: the
  /// router forwards its client's bytes this way instead of parsing and
  /// re-serializing them.
  [[nodiscard]] bool call_raw(std::string_view payload, Reply* reply,
                              std::string* error);

  /// Round-trips a ping frame.
  [[nodiscard]] bool ping(std::string* error);

  /// Fetches a stats frame ("json" or "prometheus" exposition) into
  /// reply->payload.
  [[nodiscard]] bool stats(const std::string& format, Reply* reply,
                           std::string* error);

  /// Asks the server to shut down (best effort; waits for the ack).
  [[nodiscard]] bool shutdown_server(std::string* error);

  /// Pins the trace id stamped into the *next* call (tests use this to
  /// assert end-to-end propagation); afterwards ids auto-generate again.
  void set_next_trace_id(std::uint64_t id) noexcept { pinned_trace_id_ = id; }

  /// The trace id stamped into the most recent call's request header.
  [[nodiscard]] std::uint64_t last_trace_id() const noexcept {
    return last_trace_id_;
  }

  [[nodiscard]] bool connected() const noexcept { return fd_ >= 0; }
  void close();

 private:
  [[nodiscard]] std::uint64_t make_trace_id();

  int fd_ = -1;
  std::uint64_t next_id_ = 1;
  std::uint64_t trace_seed_ = 0;
  std::uint64_t pinned_trace_id_ = 0;
  std::uint64_t last_trace_id_ = 0;
  double timeout_ms_ = 0.0;
};

}  // namespace qbss::svc
