#include "layers.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <functional>

#include "qbss/avrq.hpp"
#include "qbss/avrq_m.hpp"
#include "qbss/bkpq.hpp"
#include "qbss/clairvoyant.hpp"
#include "qbss/crad.hpp"
#include "qbss/crcd.hpp"
#include "qbss/crp2d.hpp"
#include "qbss/oaq.hpp"
#include "qbss/run.hpp"
#include "qbss/transform.hpp"
#include "route/ring.hpp"
#include "stats.hpp"
#include "streams.hpp"
#include "svc/cache.hpp"
#include "svc/client.hpp"

namespace perfbench {

namespace svc = qbss::svc;
namespace core = qbss::core;
namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

namespace {

/// Passes per batched timing; each layer number is the median pass.
constexpr int kPasses = 15;
/// Round trips per RTT probe.
constexpr int kRoundTrips = 2000;
/// The scaling fit runs each policy at n, 2n and 4n.
constexpr int kFitSizes[] = {kMissJobs, 2 * kMissJobs, 4 * kMissJobs};
constexpr int kFitInstances = 5;

/// Consumes results of timed calls so the compiler cannot drop them.
std::atomic<std::size_t> g_sink{0};
void keep(std::size_t value) { g_sink.fetch_add(value, std::memory_order_relaxed); }

/// Median over passes of (pass time / calls), in microseconds. For
/// calls too short to time one at a time.
double per_call_us(std::size_t calls, const std::function<void()>& pass) {
  std::vector<double> per_call;
  for (int p = 0; p < kPasses; ++p) {
    const Clock::time_point t0 = Clock::now();
    pass();
    const double us =
        std::chrono::duration<double, std::micro>(Clock::now() - t0).count();
    per_call.push_back(us / static_cast<double>(std::max<std::size_t>(calls, 1)));
  }
  return median(per_call);
}

/// Wall time of one call, in microseconds.
double time_us(const std::function<void()>& call) {
  const Clock::time_point t0 = Clock::now();
  call();
  return std::chrono::duration<double, std::micro>(Clock::now() - t0).count();
}

/// Smallest of `reps` timings of `call`: the least-disturbed run, for
/// differences of two timings of the same work.
double min_us(int reps, const std::function<void()>& call) {
  double best = time_us(call);
  for (int r = 1; r < reps; ++r) best = std::min(best, time_us(call));
  return best;
}

void put(std::map<std::string, Metric>* out, const std::string& name,
         double value, const std::string& unit, std::uint64_t samples,
         std::string note) {
  Metric& m = (*out)[name];
  m.value = value;
  m.unit = unit;
  m.samples = samples;
  m.note = std::move(note);
}

/// Median client round trip of `request` (or of a ping when null).
bool median_rtt_us(const svc::Endpoint& endpoint, const svc::Request* request,
                   double* out, std::string* error) {
  svc::Client client;
  client.set_timeout_ms(10000.0);
  if (!client.connect(endpoint, error)) return false;
  std::vector<double> samples;
  svc::Client::Reply reply;
  for (int i = 0; i < kRoundTrips; ++i) {
    const Clock::time_point t0 = Clock::now();
    const bool ok = request == nullptr ? client.ping(error)
                                       : client.call(*request, &reply, error);
    samples.push_back(
        std::chrono::duration<double, std::micro>(Clock::now() - t0).count());
    if (!ok || (request != nullptr && reply.status != svc::Status::kOk)) {
      if (error->empty()) *error = "probe reply not ok: " + reply.payload;
      return false;
    }
  }
  *out = median(samples);
  return true;
}

/// Runs `algo`'s policy the way svc::solve_request does; returns the
/// validation time through *validate_us when non-null.
void run_policy(const svc::Request& r, double* validate_us) {
  if (r.algo == "avrq_m") {
    const core::QbssMultiRun run = core::avrq_m(r.instance, r.machines);
    if (validate_us != nullptr) {
      *validate_us = min_us(3, [&] {
        (void)core::validate_multi_run(r.instance, run);
      });
    }
    return;
  }
  if (r.algo == "opt") {
    const qbss::scheduling::Instance classical =
        core::clairvoyant_instance(r.instance);
    const qbss::scheduling::Schedule schedule =
        core::clairvoyant_schedule(r.instance);
    if (validate_us != nullptr) {
      *validate_us = min_us(3, [&] {
        (void)qbss::scheduling::validate(classical, schedule);
      });
    }
    return;
  }
  core::QbssRun run;
  if (r.algo == "crcd") {
    run = core::crcd(r.instance);
  } else if (r.algo == "crp2d") {
    run = core::crp2d(r.instance);
  } else if (r.algo == "crad") {
    run = core::crad(r.instance);
  } else if (r.algo == "avrq") {
    run = core::avrq(r.instance);
  } else if (r.algo == "oaq") {
    run = core::oaq(r.instance);
  } else {
    run = core::bkpq(r.instance);
  }
  if (validate_us != nullptr) {
    *validate_us =
        min_us(3, [&] { (void)core::validate_run(r.instance, run); });
  }
}

void protocol_layers(const LayerInputs& in, std::map<std::string, Metric>* out) {
  const std::vector<svc::Request>& reqs = in.requests;
  std::vector<std::string> payloads;
  std::vector<std::string> keys;
  double request_bytes = 0.0;
  double key_bytes = 0.0;
  for (const svc::Request& r : reqs) {
    payloads.push_back(svc::serialize_request(r));
    keys.push_back(svc::cache_key(r));
    request_bytes += static_cast<double>(payloads.back().size());
    key_bytes += static_cast<double>(keys.back().size());
  }
  const double n = static_cast<double>(reqs.size());
  std::size_t sink = 0;
  put(out, "svc.protocol.serialize_request_us",
      per_call_us(reqs.size(),
                  [&] {
                    for (const svc::Request& r : reqs) {
                      sink += svc::serialize_request(r).size();
                    }
                  }),
      "us", reqs.size() * kPasses, "median pass");
  svc::Request parsed;
  std::string error;
  put(out, "svc.protocol.parse_request_us",
      per_call_us(payloads.size(),
                  [&] {
                    for (const std::string& p : payloads) {
                      sink += svc::parse_request(p, &parsed, &error) ? 1 : 0;
                    }
                  }),
      "us", reqs.size() * kPasses, "median pass");
  put(out, "svc.protocol.cache_key_us",
      per_call_us(reqs.size(),
                  [&] {
                    for (const svc::Request& r : reqs) {
                      sink += svc::cache_key(r).size();
                    }
                  }),
      "us", reqs.size() * kPasses, "median pass");
  put(out, "svc.protocol.request_bytes", request_bytes / n, "bytes",
      reqs.size(), "mean serialized request");
  put(out, "svc.protocol.key_bytes", key_bytes / n, "bytes", reqs.size(),
      "mean cache key");
  keep(sink);
}

/// encode = solve_request - policy - validation, on the same request.
void encode_layer(const LayerInputs& in, std::map<std::string, Metric>* out) {
  constexpr std::size_t kEncoded = 32;
  std::vector<double> encode;
  double response_bytes = 0.0;
  const std::size_t count = std::min(kEncoded, in.requests.size());
  for (std::size_t i = 0; i < count; ++i) {
    const svc::Request& r = in.requests[i];
    std::string payload;
    std::string error;
    const double solve = min_us(3, [&] {
      payload.clear();
      (void)svc::solve_request(r, &payload, &error);
    });
    response_bytes += static_cast<double>(payload.size());
    double validate = 0.0;
    const double policy = min_us(3, [&] { run_policy(r, nullptr); });
    run_policy(r, &validate);
    encode.push_back(std::max(0.0, solve - policy - validate));
  }
  put(out, "svc.protocol.encode_us", median(encode), "us", encode.size(),
      "solve_request - policy - validation, median request");
  put(out, "svc.protocol.response_bytes",
      response_bytes / static_cast<double>(std::max<std::size_t>(count, 1)),
      "bytes", count, "mean ok-payload");
}

bool cache_layers(const LayerInputs& in, std::map<std::string, Metric>* out,
                  std::string* error) {
  std::vector<std::string> keys;
  std::vector<std::string> payloads;
  for (const svc::Request& r : in.requests) {
    std::string payload;
    std::string err;
    if (!svc::solve_request(r, &payload, &err)) {
      *error = "layer sample request does not solve: " + err;
      return false;
    }
    keys.push_back(svc::cache_key(r));
    payloads.push_back(std::move(payload));
  }
  const std::size_t n = keys.size();
  std::size_t sink = 0;
  std::error_code ec;
  fs::create_directories(in.scratch_dir, ec);
  if (ec) {
    *error = "cannot create " + in.scratch_dir + ": " + ec.message();
    return false;
  }

  {
    svc::ResultCache cache(in.cache_entries, in.cache_shards);
    for (std::size_t i = 0; i < n; ++i) cache.put(keys[i], payloads[i]);
    put(out, "svc.cache.get_hit_us",
        per_call_us(n,
                    [&] {
                      for (const std::string& k : keys) {
                        sink += cache.get(k) ? 1 : 0;
                      }
                    }),
        "us", n * kPasses, "memory hit, median pass");
    // Fill to capacity so every timed put evicts, as in a long run.
    std::size_t filler = 0;
    while (cache.size() < cache.capacity()) {
      cache.put(keys[filler % n] + "#fill" + std::to_string(filler),
                payloads[filler % n]);
      ++filler;
    }
    std::vector<double> per_call;
    for (int p = 0; p < kPasses; ++p) {
      std::vector<std::string> fresh_keys;
      std::vector<std::string> fresh_payloads(payloads);
      for (std::size_t i = 0; i < n; ++i) {
        fresh_keys.push_back(keys[i] + "#" + std::to_string(p));
      }
      const double us = time_us([&] {
        for (std::size_t i = 0; i < n; ++i) {
          cache.put(fresh_keys[i], std::move(fresh_payloads[i]));
        }
      });
      per_call.push_back(us / static_cast<double>(n));
    }
    put(out, "svc.cache.put_us", median(per_call), "us", n * kPasses,
        "evicting put, median pass");
  }

  {
    // Disk tier: a cache sized like the workload's with a store behind
    // it; keys pushed out of memory are read back as disk hits.
    const fs::path dir = fs::path(in.scratch_dir) / "disk-tier";
    svc::DiskTierConfig config;
    config.store.dir = dir.string();
    svc::ResultCache cache(in.cache_entries, in.cache_shards);
    if (!cache.attach_store(config, nullptr, error)) return false;
    const std::size_t total = 2 * in.cache_entries + n;
    for (std::size_t i = 0; i < total; ++i) {
      cache.put(keys[i % n] + "#d" + std::to_string(i), payloads[i % n]);
    }
    cache.flush();
    std::vector<double> disk_us;
    for (std::size_t i = 0; i < n; ++i) {
      bool disk_hit = false;
      const std::string key = keys[i] + "#d" + std::to_string(i);
      const double us = time_us([&] { sink += cache.get(key, &disk_hit) ? 1 : 0; });
      if (disk_hit) disk_us.push_back(us);
    }
    put(out, "svc.cache.get_disk_us", median(disk_us), "us", disk_us.size(),
        "disk hit with promotion, median call");
  }

  {
    qbss::svc::store::SegmentStore store;
    qbss::svc::store::StoreConfig config;
    config.dir = (fs::path(in.scratch_dir) / "store").string();
    if (!store.open(config, nullptr, error)) return false;
    std::vector<double> append_us;
    std::vector<double> find_us;
    for (int p = 0; p < 4; ++p) {
      for (std::size_t i = 0; i < n; ++i) {
        const std::string key = keys[i] + "#s" + std::to_string(p);
        bool ok = true;
        append_us.push_back(
            time_us([&] { ok = store.append(key, payloads[i], error); }));
        if (!ok) return false;
      }
    }
    for (int p = 0; p < 4; ++p) {
      for (std::size_t i = 0; i < n; ++i) {
        const std::string key = keys[i] + "#s" + std::to_string(p);
        find_us.push_back(time_us([&] { sink += store.find(key) ? 1 : 0; }));
      }
    }
    store.close();
    put(out, "svc.store.append_us", median(append_us), "us", append_us.size(),
        "median call");
    put(out, "svc.store.find_us", median(find_us), "us", find_us.size(),
        "median call");
  }
  keep(sink);
  return true;
}

void solver_layers(std::map<std::string, Metric>* out) {
  std::vector<double> validate;
  for (const std::string& algo : policies()) {
    std::vector<std::pair<double, double>> points;
    for (const int n : kFitSizes) {
      std::vector<double> times;
      for (int k = 0; k < kFitInstances; ++k) {
        const svc::Request r = policy_request(
            algo, n, mix(0x5eed, static_cast<std::uint64_t>(n),
                         static_cast<std::uint64_t>(k)),
            false);
        double validate_us = 0.0;
        times.push_back(min_us(2, [&] { run_policy(r, nullptr); }));
        if (algo == "bkpq" && n == kMissJobs) {
          run_policy(r, &validate_us);
          validate.push_back(validate_us);
        }
      }
      const double t = median(times);
      points.emplace_back(n, t);
      if (n == kMissJobs) {
        put(out, "qbss." + algo + ".solve_us", t, "us", times.size(),
            "n=" + std::to_string(n) + ", median instance");
      }
    }
    put(out, "qbss." + algo + ".exponent", loglog_slope(points), "1",
        points.size(), "log-log fit over n, 2n, 4n");
  }
  put(out, "qbss.validate_us", median(validate), "us", validate.size(),
      "core::validate_run on bkpq n=" + std::to_string(kMissJobs));
}

bool route_layers(const LayerInputs& in, std::map<std::string, Metric>* out,
                  std::string* error) {
  std::vector<std::pair<std::string, double>> nodes;
  for (const auto& [name, endpoint] : in.backends) nodes.emplace_back(name, 1.0);
  if (nodes.size() < 2) nodes = {{"b0", 1.0}, {"b1", 1.0}};
  const qbss::route::HashRing ring(nodes);
  std::vector<std::string> keys;
  for (const svc::Request& r : in.requests) keys.push_back(svc::cache_key(r));
  std::size_t sink = 0;
  put(out, "route.ring_primary_us",
      per_call_us(keys.size(),
                  [&] {
                    for (const std::string& k : keys) {
                      sink += ring.primary(qbss::route::HashRing::key_hash(k));
                    }
                  }),
      "us", keys.size() * kPasses, "key_hash + primary, median pass");
  keep(sink);

  double hop = 0.0;
  if (in.has_router) {
    // The owner answers the routed call, so routed - direct on the owner
    // is the router's own share of the round trip.
    const std::string& owner = ring.name(
        ring.primary(qbss::route::HashRing::key_hash(svc::cache_key(in.warmed))));
    const auto backend = std::find_if(
        in.backends.begin(), in.backends.end(),
        [&owner](const auto& b) { return b.first == owner; });
    double routed = 0.0;
    double direct = 0.0;
    if (backend == in.backends.end() ||
        !median_rtt_us(in.router, &in.warmed, &routed, error) ||
        !median_rtt_us(backend->second, &in.warmed, &direct, error)) {
      if (error->empty()) *error = "ring owner " + owner + " not deployed";
      return false;
    }
    hop = routed - direct;
  }
  put(out, "route.hop_us", hop, "us", in.has_router ? kRoundTrips : 0,
      "routed - direct round trip, one warmed key");
  return true;
}

}  // namespace

bool measure_layers(const LayerInputs& in, std::map<std::string, Metric>* out,
                    std::string* error) {
  double ping = 0.0;
  if (!median_rtt_us(in.server, nullptr, &ping, error)) return false;
  put(out, "svc.client.ping_rtt_us", ping, "us", kRoundTrips,
      "median Client::ping");
  protocol_layers(in, out);
  encode_layer(in, out);
  if (!cache_layers(in, out, error)) return false;
  solver_layers(out);
  return route_layers(in, out, error);
}

}  // namespace perfbench
