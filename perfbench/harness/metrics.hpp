// The benchmark's metric catalogue: every name the benchmark prints, with
// its unit. BENCHMARK.json lists the same names (the self-test checks
// both directions); the program refuses to print a result whose metric
// set differs from this table.
#pragma once

#include <string_view>

namespace perfbench {

struct MetricSpec {
  std::string_view name;
  std::string_view unit;
};

/// Printed with --trace 0, on every workload.
inline constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},
    {"latency_p50_us", "us"},
    {"throughput_rps", "1/s"},
    {"cpu_us_per_req", "us"},
    {"peak_rss_mb", "MB"},
};

/// Printed with --trace 1, on every workload. A layer the workload does
/// not run (no router, no disk tier, no open loop) reads 0.
inline constexpr MetricSpec kPerLayer[] = {
    {"svc.client.ping_rtt_us", "us"},
    {"svc.protocol.serialize_request_us", "us"},
    {"svc.protocol.parse_request_us", "us"},
    {"svc.protocol.request_bytes", "bytes"},
    {"svc.protocol.cache_key_us", "us"},
    {"svc.protocol.key_bytes", "bytes"},
    {"svc.protocol.encode_us", "us"},
    {"svc.protocol.response_bytes", "bytes"},
    {"svc.cache.get_hit_us", "us"},
    {"svc.cache.put_us", "us"},
    {"svc.cache.get_disk_us", "us"},
    {"svc.cache.hit_ratio", "ratio"},
    {"svc.cache.disk_hit_ratio", "ratio"},
    {"svc.cache.evicted", "count"},
    {"svc.cache.disk_hit", "count"},
    {"svc.store.append_us", "us"},
    {"svc.store.find_us", "us"},
    {"svc.store.append_bytes_per_req", "bytes"},
    {"svc.server.latency_p50_us", "us"},
    {"svc.server.solve_mean_us", "us"},
    {"svc.server.queue_depth_p90", "count"},
    {"svc.server.batch_size_mean", "count"},
    {"svc.server.shed", "count"},
    {"svc.server.coalesced", "count"},
    {"qbss.bkpq.solve_us", "us"},
    {"qbss.oaq.solve_us", "us"},
    {"qbss.avrq.solve_us", "us"},
    {"qbss.avrq_m.solve_us", "us"},
    {"qbss.crcd.solve_us", "us"},
    {"qbss.crp2d.solve_us", "us"},
    {"qbss.crad.solve_us", "us"},
    {"qbss.opt.solve_us", "us"},
    {"qbss.bkpq.exponent", "1"},
    {"qbss.oaq.exponent", "1"},
    {"qbss.avrq.exponent", "1"},
    {"qbss.avrq_m.exponent", "1"},
    {"qbss.crcd.exponent", "1"},
    {"qbss.crp2d.exponent", "1"},
    {"qbss.crad.exponent", "1"},
    {"qbss.opt.exponent", "1"},
    {"qbss.validate_us", "us"},
    {"route.hop_us", "us"},
    {"route.ring_primary_us", "us"},
    {"route.backend_p50_us", "us"},
    {"route.failover", "count"},
    {"route.shed.no_backend", "count"},
    {"route.pool_reuse_ratio", "ratio"},
    {"route.client_disk_hits", "count"},
    {"bench.open_loop_p99_us", "us"},
    {"bench.send_lag_p99_us", "us"},
    {"bench.trace_overhead_pct", "%"},
    {"bench.latency_p50_us", "us"},
    {"bench.latency_p99_us", "us"},
    {"bench.slo_rate_rps", "1/s"},
    {"bench.hit_layer_sum_us", "us"},
    {"bench.hit_layer_share_pct", "%"},
};

}  // namespace perfbench
