// Per-layer timings for the traced run: each layer's public functions
// are called directly from here on the workload's own requests, so a
// change to one layer shows up in that layer's number.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "svc/endpoint.hpp"
#include "svc/protocol.hpp"
#include "workloads.hpp"

namespace perfbench {

struct LayerInputs {
  /// A sample of the workload's requests (the same mix it sends).
  std::vector<qbss::svc::Request> requests;
  std::size_t cache_entries = 0;  ///< memory tier sized like the workload's
  std::size_t cache_shards = 8;
  std::string scratch_dir;        ///< private directory for store timings
  qbss::svc::Endpoint server;     ///< a backend to ping
  /// Router and the backends behind it (fleet_zipf only; empty path and
  /// no backends elsewhere). route.hop_us is measured only with a router.
  bool has_router = false;
  qbss::svc::Endpoint router;
  std::vector<std::pair<std::string, qbss::svc::Endpoint>> backends;
  /// A request already warmed on the fleet (route.hop_us probe).
  qbss::svc::Request warmed;
};

/// Fills every per-layer timing and size metric in `out` (the stats-verb
/// counters are the caller's). Returns false + *error on a transport
/// failure or a payload the layers disagree on.
[[nodiscard]] bool measure_layers(const LayerInputs& inputs,
                                  std::map<std::string, Metric>* out,
                                  std::string* error);

}  // namespace perfbench
