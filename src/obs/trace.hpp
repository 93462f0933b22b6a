// Chrome trace-event export for obs::Span scopes.
//
// When enabled — via the QBSS_TRACE=<file> environment variable or
// set_trace_path() (CLI: qbss ... --trace out.json) — every completed
// span is buffered as a complete ("ph":"X") event with the wall-clock
// offset, duration, and a small per-thread id, and the buffer is written
// as Chrome trace-event JSON (chrome://tracing or https://ui.perfetto.dev
// loadable) on flush_trace() and again at process exit. Disabled tracing
// costs one relaxed atomic load per span.
#pragma once

#include <cstdint>
#include <string>

namespace qbss::obs {

/// Monotonic clock, nanoseconds. Base is unspecified; use differences.
[[nodiscard]] std::uint64_t now_ns() noexcept;

/// Microseconds since `since_ns`, an earlier now_ns() reading.
[[nodiscard]] inline double elapsed_us(std::uint64_t since_ns) noexcept {
  return static_cast<double>(now_ns() - since_ns) / 1e3;
}

/// now_ns() captured during static initialization — the zero point for
/// trace timestamps and manifest wall time.
[[nodiscard]] std::uint64_t process_start_ns() noexcept;

/// Seconds elapsed since process_start_ns().
[[nodiscard]] double process_uptime_seconds() noexcept;

/// Small dense id for the calling thread (assigned on first use).
[[nodiscard]] int current_thread_id() noexcept;

/// True when span events are being recorded.
[[nodiscard]] bool trace_enabled() noexcept;

/// Starts recording span events, to be written to `path`. An empty path
/// disables recording (buffered events are kept until the next flush).
/// Overrides the QBSS_TRACE environment variable.
void set_trace_path(std::string path);

/// Records one completed span (called by Span; no-op unless enabled).
void trace_emit(const std::string& name, std::uint64_t start_ns,
                std::uint64_t end_ns);

/// Records one completed request-stage span tagged with a wire trace id.
/// Events carry cat "qbss.req" and an args.trace_id field ("0x...") so a
/// per-request chain (accept -> queue -> solve -> write) can be grouped
/// and searched in Perfetto by the client-stamped id.
void trace_emit_request(const std::string& stage, std::uint64_t start_ns,
                        std::uint64_t end_ns, std::uint64_t trace_id);

/// Writes all buffered events to the configured path as Chrome trace
/// JSON. Idempotent — the buffer is retained, so a later flush (or the
/// automatic one at exit) rewrites a superset. Returns false when
/// disabled, pathless, or the file cannot be written.
bool flush_trace();

}  // namespace qbss::obs
