#include "svc/retry.hpp"

#include <algorithm>
#include <chrono>
#include <thread>
#include <utility>

#include "obs/histogram.hpp"
#include "obs/log.hpp"
#include "obs/registry.hpp"

namespace qbss::svc {

namespace {

using A = obs::LogArg;
using Clock = std::chrono::steady_clock;

double elapsed_ms(Clock::time_point since) {
  return std::chrono::duration<double, std::milli>(Clock::now() - since)
      .count();
}

}  // namespace

RetryingClient::RetryingClient(Endpoint endpoint, RetryPolicy policy)
    : endpoint_(std::move(endpoint)),
      policy_(policy),
      rng_(policy.jitter_seed),
      prev_backoff_ms_(policy.base_ms) {
  if (policy_.max_retries < 0) policy_.max_retries = 0;
  if (policy_.base_ms < 0.0) policy_.base_ms = 0.0;
  if (policy_.cap_ms < policy_.base_ms) policy_.cap_ms = policy_.base_ms;
  client_.set_timeout_ms(policy_.attempt_timeout_ms);
}

double RetryingClient::next_backoff_ms() {
  const double hi = std::max(policy_.base_ms, prev_backoff_ms_ * 3.0);
  prev_backoff_ms_ =
      std::min(policy_.cap_ms, rng_.uniform(policy_.base_ms, hi));
  return prev_backoff_ms_;
}

bool RetryingClient::call(const Request& request, Client::Reply* reply,
                          std::string* error) {
  return call_raw(serialize_request(request), reply, error);
}

bool RetryingClient::call_raw(std::string_view payload, Client::Reply* reply,
                              std::string* error) {
  const Clock::time_point start = Clock::now();
  prev_backoff_ms_ = policy_.base_ms;  // each call restarts the ladder
  // `last_error` always holds the most recent failure: the exhaustion
  // summary below must report the *final* typed error — the one that
  // actually spent the retry budget — never the first.
  std::string last_error = "no attempt made";
  int attempts_made = 0;
  bool deadline_hit = false;
  for (int attempt = 0; attempt <= policy_.max_retries; ++attempt) {
    if (attempt > 0) {
      QBSS_COUNT("svc.retry.retries");
      ++retries_;
      const double backoff = next_backoff_ms();
      QBSS_HIST("svc.retry.backoff_ms", backoff);
      QBSS_LOG_INFO("retry.backoff", client_.last_trace_id(),
                    A("attempt", attempt), A("delay_ms", backoff),
                    A("reason", last_error));
      std::this_thread::sleep_for(
          std::chrono::duration<double, std::milli>(backoff));
    }
    if (policy_.call_deadline_ms > 0.0 &&
        elapsed_ms(start) > policy_.call_deadline_ms) {
      deadline_hit = true;
      break;
    }
    QBSS_COUNT("svc.retry.attempts");
    ++attempts_made;
    QBSS_LOG_DEBUG("retry.attempt", client_.last_trace_id(),
                   A("attempt", attempts_made));
    if (!client_.connected()) {
      if (!client_.connect(endpoint_, &last_error)) continue;
      if (was_connected_) {
        QBSS_COUNT("svc.retry.reconnects");
        ++reconnects_;
        QBSS_LOG_INFO("retry.reconnect", 0, A("attempt", attempts_made));
      }
      was_connected_ = true;
    }
    if (pinned_trace_id_ != 0) client_.set_next_trace_id(pinned_trace_id_);
    if (client_.call_raw(payload, reply, &last_error)) return true;
    // Transport failure — including a peer that died mid-payload after
    // a good header ("connection closed mid-payload"): the stream may
    // hold half a frame, so the only safe continuation is a fresh
    // connection. Solves are idempotent by key, so re-sending is safe.
    client_.close();
  }
  QBSS_COUNT("svc.retry.exhausted");
  ++exhausted_;
  QBSS_LOG_ERR("retry.exhausted", client_.last_trace_id(),
               A("attempts", attempts_made), A("deadline", deadline_hit),
               A("error", last_error));
  last_error_ = (deadline_hit ? "call deadline exceeded after "
                              : "retries exhausted after ") +
                std::to_string(attempts_made) + " attempt" +
                (attempts_made == 1 ? "" : "s") + ": " + last_error;
  if (error) *error = last_error_;
  return false;
}

bool RetryingClient::ping(std::string* error) {
  Request request;
  request.verb = Verb::kPing;
  Client::Reply reply;
  if (!call(request, &reply, error)) return false;
  if (reply.status != Status::kOk) {
    if (error) *error = "ping rejected";
    return false;
  }
  return true;
}

bool RetryingClient::shutdown_server(std::string* error) {
  Request request;
  request.verb = Verb::kShutdown;
  Client::Reply reply;
  // A server that already began exiting may tear the connection instead
  // of acking; both shapes mean the shutdown landed.
  std::string local;
  if (call(request, &reply, &local)) return reply.status == Status::kOk;
  if (error) *error = local;
  return false;
}

}  // namespace qbss::svc
