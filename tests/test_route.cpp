// Tests for qbss::route: hash-ring determinism, weighted placement and
// bounded key movement; the endpoint grammar shared with svc; topology
// parsing; the breaker state machine under an injected clock; and an
// end-to-end fleet — two real servers behind an in-process Router —
// covering byte-identity with a direct backend call, trace-id echo,
// per-backend stats, hot-key replication, breaker failover when a
// backend dies, the no-backend shed path, and the disk-hit flag relayed
// from a restarted disk-tier backend. Recording stand-in backends check
// that proxied and replicated solves carry the client's bytes verbatim.
#include "route/health.hpp"
#include "route/ring.hpp"
#include "route/router.hpp"
#include "route/topology.hpp"

#include <gtest/gtest.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <map>
#include <mutex>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "gen/random_instances.hpp"
#include "svc/client.hpp"
#include "svc/endpoint.hpp"
#include "svc/protocol.hpp"
#include "svc/server.hpp"

namespace qbss::route {
namespace {

std::vector<std::pair<std::string, double>> unit_nodes(int n) {
  std::vector<std::pair<std::string, double>> nodes;
  for (int i = 0; i < n; ++i) {
    nodes.emplace_back("node" + std::to_string(i), 1.0);
  }
  return nodes;
}

TEST(HashRing, OrderIndependentAndDeterministic) {
  std::vector<std::pair<std::string, double>> nodes = {
      {"gamma", 1.0}, {"alpha", 2.0}, {"beta", 0.5}};
  const HashRing forward(nodes);
  std::reverse(nodes.begin(), nodes.end());
  const HashRing reversed(nodes);

  ASSERT_EQ(forward.size(), 3u);
  ASSERT_EQ(reversed.size(), 3u);
  // Indices are name-sorted regardless of construction order.
  EXPECT_EQ(forward.name(0), "alpha");
  EXPECT_EQ(forward.name(1), "beta");
  EXPECT_EQ(forward.name(2), "gamma");
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(forward.name(i), reversed.name(i));
  }
  for (std::uint64_t k = 0; k < 4096; ++k) {
    const std::uint64_t hash =
        HashRing::key_hash("key-" + std::to_string(k));
    ASSERT_EQ(forward.primary(hash), reversed.primary(hash));
    ASSERT_EQ(forward.successors(hash, 2), reversed.successors(hash, 2));
  }
}

TEST(HashRing, KeyHashIsStable) {
  // key_hash is a pure function of the bytes: stable within a process,
  // different for different keys, and never equal for the vnode labels
  // of distinct nodes (collisions would merge ring points).
  EXPECT_EQ(HashRing::key_hash("qbss"), HashRing::key_hash("qbss"));
  EXPECT_NE(HashRing::key_hash("qbss"), HashRing::key_hash("qbst"));
  EXPECT_NE(HashRing::key_hash(""), HashRing::key_hash("0"));
}

TEST(HashRing, WeightedPlacementWithinTolerance) {
  const HashRing ring(
      {{"light", 1.0}, {"medium", 2.0}, {"heavy", 4.0}});
  std::map<std::string, int> owned;
  const int kKeys = 40000;
  for (int k = 0; k < kKeys; ++k) {
    const std::uint64_t hash =
        HashRing::key_hash("sample:" + std::to_string(k));
    owned[ring.name(ring.primary(hash))]++;
  }
  // Expected shares 1/7, 2/7, 4/7; vnode placement noise at 64 vnodes
  // per unit weight stays well inside a +-35% relative band.
  const auto share = [&](const char* name) {
    return static_cast<double>(owned[name]) / kKeys;
  };
  EXPECT_NEAR(share("light"), 1.0 / 7.0, 0.35 / 7.0);
  EXPECT_NEAR(share("medium"), 2.0 / 7.0, 0.7 / 7.0);
  EXPECT_NEAR(share("heavy"), 4.0 / 7.0, 1.4 / 7.0);
}

TEST(HashRing, AddingANodeMovesOnlyKeysToIt) {
  const HashRing before(unit_nodes(5));
  auto grown = unit_nodes(5);
  grown.emplace_back("node5", 1.0);
  const HashRing after(grown);

  const int kKeys = 20000;
  int moved = 0;
  for (int k = 0; k < kKeys; ++k) {
    const std::uint64_t hash =
        HashRing::key_hash("move:" + std::to_string(k));
    const std::string& old_owner = before.name(before.primary(hash));
    const std::string& new_owner = after.name(after.primary(hash));
    if (old_owner != new_owner) {
      ++moved;
      // Consistent hashing's defining property: a remapped key can only
      // have moved TO the new node.
      ASSERT_EQ(new_owner, "node5");
    }
  }
  // ~1/6 of keys move; allow generous slack for vnode placement noise.
  EXPECT_GT(moved, kKeys / 12);
  EXPECT_LT(moved, kKeys / 3);
}

TEST(HashRing, RemovingANodeMovesOnlyItsKeys) {
  const HashRing before(unit_nodes(5));
  auto shrunk = unit_nodes(5);
  shrunk.erase(shrunk.begin() + 2);  // drop node2
  const HashRing after(shrunk);

  const int kKeys = 20000;
  int moved = 0;
  for (int k = 0; k < kKeys; ++k) {
    const std::uint64_t hash =
        HashRing::key_hash("del:" + std::to_string(k));
    const std::string& old_owner = before.name(before.primary(hash));
    const std::string& new_owner = after.name(after.primary(hash));
    if (old_owner != new_owner) {
      ++moved;
      ASSERT_EQ(old_owner, "node2");  // only node2's keys may move
    } else {
      ASSERT_NE(old_owner, "node2");
    }
  }
  EXPECT_GT(moved, kKeys / 12);
  EXPECT_LT(moved, kKeys / 3);
}

TEST(HashRing, SuccessorsAreDistinctAndNeverThePrimary) {
  const HashRing ring(unit_nodes(4));
  for (std::uint64_t k = 0; k < 4096; ++k) {
    const std::uint64_t hash =
        HashRing::key_hash("succ:" + std::to_string(k));
    const std::size_t owner = ring.primary(hash);
    const std::vector<std::size_t> two = ring.successors(hash, 2);
    ASSERT_EQ(two.size(), 2u);
    ASSERT_NE(two[0], owner);
    ASSERT_NE(two[1], owner);
    ASSERT_NE(two[0], two[1]);
    // Asking for more than exists caps at the other nodes.
    const std::vector<std::size_t> all = ring.successors(hash, 10);
    ASSERT_EQ(all.size(), 3u);
    for (const std::size_t s : all) ASSERT_NE(s, owner);
  }
}

TEST(Endpoint, ParsesEveryGrammarForm) {
  svc::Endpoint endpoint;
  std::string error;
  ASSERT_TRUE(svc::parse_endpoint("unix:/tmp/a.sock", &endpoint, &error));
  EXPECT_EQ(endpoint.socket_path, "/tmp/a.sock");
  EXPECT_EQ(svc::endpoint_to_string(endpoint), "unix:/tmp/a.sock");

  ASSERT_TRUE(svc::parse_endpoint("/tmp/b.sock", &endpoint, &error));
  EXPECT_EQ(endpoint.socket_path, "/tmp/b.sock");

  ASSERT_TRUE(svc::parse_endpoint("7070", &endpoint, &error));
  EXPECT_EQ(endpoint.tcp_port, 7070);
  EXPECT_TRUE(endpoint.host.empty());
  EXPECT_EQ(svc::endpoint_to_string(endpoint), "127.0.0.1:7070");

  ASSERT_TRUE(svc::parse_endpoint("127.0.0.1:8080", &endpoint, &error));
  EXPECT_EQ(endpoint.tcp_port, 8080);
  EXPECT_TRUE(endpoint.host.empty());  // loopback is the default host

  ASSERT_TRUE(svc::parse_endpoint("localhost:9090", &endpoint, &error));
  EXPECT_EQ(endpoint.tcp_port, 9090);
  EXPECT_TRUE(endpoint.host.empty());

  ASSERT_TRUE(svc::parse_endpoint("10.1.2.3:80", &endpoint, &error));
  EXPECT_EQ(endpoint.host, "10.1.2.3");
  EXPECT_EQ(endpoint.tcp_port, 80);
  EXPECT_EQ(svc::endpoint_to_string(endpoint), "10.1.2.3:80");
}

TEST(Endpoint, RejectsBadForms) {
  svc::Endpoint endpoint;
  std::string error;
  EXPECT_FALSE(svc::parse_endpoint("", &endpoint, &error));
  EXPECT_FALSE(svc::parse_endpoint("unix:", &endpoint, &error));
  EXPECT_FALSE(svc::parse_endpoint("0", &endpoint, &error));
  EXPECT_FALSE(svc::parse_endpoint("70000", &endpoint, &error));
  EXPECT_FALSE(svc::parse_endpoint("words", &endpoint, &error));
  EXPECT_FALSE(svc::parse_endpoint(":80", &endpoint, &error));
  EXPECT_FALSE(svc::parse_endpoint("example.com:80", &endpoint, &error))
      << "DNS names must be rejected (router never resolves)";
  EXPECT_FALSE(svc::parse_endpoint("127.0.0.1:notaport", &endpoint,
                                   &error));
}

TEST(Topology, ParsesNamesAddressesWeightsAndComments) {
  std::istringstream in(
      "# fleet\n"
      "alpha unix:/tmp/a.sock\n"
      "\n"
      "beta 127.0.0.1:7070 2.5  # twice the hardware\n"
      "gamma 7071\n");
  Topology topology;
  std::string error;
  ASSERT_TRUE(parse_topology(in, &topology, &error)) << error;
  ASSERT_EQ(topology.backends.size(), 3u);
  EXPECT_EQ(topology.backends[0].name, "alpha");
  EXPECT_EQ(topology.backends[0].endpoint.socket_path, "/tmp/a.sock");
  EXPECT_DOUBLE_EQ(topology.backends[0].weight, 1.0);
  EXPECT_EQ(topology.backends[1].endpoint.tcp_port, 7070);
  EXPECT_DOUBLE_EQ(topology.backends[1].weight, 2.5);
  EXPECT_EQ(topology.backends[2].endpoint.tcp_port, 7071);

  const auto nodes = topology.ring_nodes();
  ASSERT_EQ(nodes.size(), 3u);
  EXPECT_EQ(nodes[1].first, "beta");
  EXPECT_DOUBLE_EQ(nodes[1].second, 2.5);
}

TEST(Topology, RejectsBadLines) {
  const auto fails = [](const char* text) {
    std::istringstream in(text);
    Topology topology;
    std::string error;
    const bool ok = parse_topology(in, &topology, &error);
    EXPECT_FALSE(ok) << text;
    EXPECT_FALSE(error.empty());
    return error;
  };
  EXPECT_NE(fails("alpha\n").find("line 1"), std::string::npos);
  fails("alpha unix:/a.sock 0\n");       // weight must be positive
  fails("alpha unix:/a.sock -1\n");      // negative weight
  fails("alpha unix:/a.sock nope\n");    // non-numeric weight
  fails("alpha unix:/a.sock 1 extra\n");  // trailing token
  fails("alpha badhost:xy\n");           // bad address
  fails("alpha unix:/a.sock\nalpha unix:/b.sock\n");  // duplicate name
  fails("# only a comment\n");           // no backends at all
}

TEST(Breaker, TripsAfterThresholdAndReportsEdgesOnce) {
  Breaker breaker(BreakerConfig{3, 100.0});
  const std::int64_t t0 = 1'000'000'000;
  EXPECT_TRUE(breaker.allow(t0));
  EXPECT_FALSE(breaker.record_failure(t0));  // 1st failure: no edge
  EXPECT_FALSE(breaker.record_failure(t0));  // 2nd: still closed
  EXPECT_TRUE(breaker.allow(t0));
  EXPECT_TRUE(breaker.record_failure(t0));  // 3rd: the down edge
  EXPECT_EQ(breaker.state(t0), Breaker::State::kOpen);
  EXPECT_FALSE(breaker.allow(t0));          // open: skip
  EXPECT_FALSE(breaker.record_failure(t0));  // already down: no 2nd edge
  EXPECT_EQ(breaker.failures(), 4);
}

TEST(Breaker, HalfOpenProbeClosesOrReopens) {
  const std::int64_t ms = 1'000'000;
  Breaker breaker(BreakerConfig{1, 100.0});
  EXPECT_TRUE(breaker.record_failure(0));  // threshold 1: trips at once
  EXPECT_FALSE(breaker.allow(50 * ms));    // cooldown still running
  EXPECT_EQ(breaker.state(100 * ms), Breaker::State::kHalfOpen);
  EXPECT_TRUE(breaker.allow(100 * ms));    // claims the probe slot
  EXPECT_FALSE(breaker.allow(100 * ms));   // only one probe at a time
  EXPECT_TRUE(breaker.record_success(100 * ms));  // the up edge
  EXPECT_EQ(breaker.state(100 * ms), Breaker::State::kClosed);
  EXPECT_TRUE(breaker.allow(100 * ms));

  // Round two: a failed probe re-opens silently with a fresh cooldown.
  EXPECT_TRUE(breaker.record_failure(200 * ms));
  EXPECT_TRUE(breaker.allow(300 * ms));            // the probe
  EXPECT_FALSE(breaker.record_failure(300 * ms));  // no second down edge
  EXPECT_FALSE(breaker.allow(350 * ms));           // cooldown restarted
  EXPECT_TRUE(breaker.allow(400 * ms));
  EXPECT_TRUE(breaker.record_success(400 * ms));
}

// ---------------------------------------------------------------------
// End to end: two real servers behind an in-process Router.

std::string socket_path(const char* tag) {
  return "/tmp/qbss-route-" + std::to_string(::getpid()) + "-" + tag +
         ".sock";
}

svc::Request solve_request(std::uint64_t seed) {
  svc::Request request;
  request.algo = "bkpq";
  request.alpha = 3.0;
  request.instance = gen::random_online(8, 10.0, 0.5, 4.0, seed);
  return request;
}

struct Fleet {
  std::string b1_path = socket_path("b1");
  std::string b2_path = socket_path("b2");
  std::string router_path = socket_path("r");
  std::unique_ptr<svc::Server> b1;
  std::unique_ptr<svc::Server> b2;
  std::unique_ptr<Router> router;

  explicit Fleet(RouterConfig config = {}) {
    svc::ServerConfig backend;
    backend.workers = 2;
    backend.socket_path = b1_path;
    b1 = std::make_unique<svc::Server>(backend);
    backend.socket_path = b2_path;
    b2 = std::make_unique<svc::Server>(backend);
    std::string error;
    if (!b1->start(&error) || !b2->start(&error)) {
      ADD_FAILURE() << "backend start: " << error;
      return;
    }
    config.socket_path = router_path;
    config.topology.backends.push_back(
        BackendSpec{"b1", svc::Endpoint{b1_path, "", 0}, 1.0});
    config.topology.backends.push_back(
        BackendSpec{"b2", svc::Endpoint{b2_path, "", 0}, 1.0});
    router = std::make_unique<Router>(std::move(config));
    if (!router->start(&error)) {
      ADD_FAILURE() << "router start: " << error;
    }
  }

  ~Fleet() {
    if (router) {
      router->shutdown();
      router->wait();
    }
    for (svc::Server* server : {b1.get(), b2.get()}) {
      if (server != nullptr) {
        server->shutdown();
        server->wait();
      }
    }
    for (const std::string& path : {b1_path, b2_path, router_path}) {
      std::remove(path.c_str());
    }
  }
};

RouterConfig fast_config() {
  RouterConfig config;
  config.health_interval_ms = 50.0;
  config.breaker_failures = 2;
  config.breaker_open_ms = 200.0;
  config.backend_retries = 0;
  config.backend_timeout_ms = 2000.0;
  config.stats_interval_ms = 50.0;
  config.hot_threshold = 3;
  config.replicas = 1;
  return config;
}

TEST(Router, ProxiesByteIdenticallyAndEchoesTraceIds) {
  Fleet fleet(fast_config());
  ASSERT_TRUE(fleet.router);

  svc::Client via_router;
  std::string error;
  ASSERT_TRUE(via_router.connect_unix(fleet.router_path, &error)) << error;
  ASSERT_TRUE(via_router.ping(&error)) << error;

  const svc::Request request = solve_request(7);
  via_router.set_next_trace_id(0xabcdef12345ULL);
  svc::Client::Reply routed;
  ASSERT_TRUE(via_router.call(request, &routed, &error)) << error;
  ASSERT_EQ(routed.status, svc::Status::kOk) << routed.payload;
  // The router must relay the client's trace id end to end, not mint
  // its own.
  EXPECT_EQ(routed.trace_id, 0xabcdef12345ULL);

  // Byte-identity: any backend computes the same payload for the same
  // canonical key, so a direct call to a *specific* backend must match
  // the routed bytes exactly, whichever node the ring picked.
  svc::Client direct;
  ASSERT_TRUE(direct.connect_unix(fleet.b1_path, &error)) << error;
  svc::Client::Reply reference;
  ASSERT_TRUE(direct.call(request, &reference, &error)) << error;
  ASSERT_EQ(reference.status, svc::Status::kOk);
  EXPECT_EQ(routed.payload, reference.payload);

  // A repeat through the router is a backend cache hit, relayed via the
  // cache-hit flag, and byte-identical again.
  svc::Client::Reply repeat;
  ASSERT_TRUE(via_router.call(request, &repeat, &error)) << error;
  ASSERT_EQ(repeat.status, svc::Status::kOk);
  EXPECT_EQ(repeat.payload, routed.payload);
}

TEST(Router, StatsReportPerBackendRows) {
  Fleet fleet(fast_config());
  ASSERT_TRUE(fleet.router);

  svc::Client client;
  std::string error;
  ASSERT_TRUE(client.connect_unix(fleet.router_path, &error)) << error;
  svc::Client::Reply first;
  ASSERT_TRUE(client.call(solve_request(11), &first, &error)) << error;
  ASSERT_EQ(first.status, svc::Status::kOk);

  svc::Client::Reply stats;
  ASSERT_TRUE(client.stats("json", &stats, &error)) << error;
  EXPECT_NE(stats.payload.find("\"role\":\"route\""), std::string::npos)
      << stats.payload;
  EXPECT_NE(stats.payload.find("backend.b1"), std::string::npos);
  EXPECT_NE(stats.payload.find("backend.b2"), std::string::npos);
  EXPECT_NE(stats.payload.find("state=closed"), std::string::npos);

  const std::vector<Router::BackendStatus> status =
      fleet.router->backend_status();
  ASSERT_EQ(status.size(), 2u);
  EXPECT_EQ(status[0].name, "b1");
  EXPECT_EQ(status[1].name, "b2");
  EXPECT_EQ(status[0].forwarded + status[1].forwarded, 1u);
}

TEST(Router, HotKeysReplicateToTheSuccessor) {
  Fleet fleet(fast_config());  // hot_threshold 3, replicas 1
  ASSERT_TRUE(fleet.router);

  svc::Client client;
  std::string error;
  ASSERT_TRUE(client.connect_unix(fleet.router_path, &error)) << error;
  const svc::Request request = solve_request(23);
  for (int i = 0; i < 4; ++i) {
    svc::Client::Reply reply;
    ASSERT_TRUE(client.call(request, &reply, &error)) << error;
    ASSERT_EQ(reply.status, svc::Status::kOk);
  }
  EXPECT_EQ(fleet.router->hot_keys(), 1u);

  // Replication is asynchronous; with two nodes the single successor is
  // whichever backend is not the primary.
  bool replicated = false;
  for (int spin = 0; spin < 100 && !replicated; ++spin) {
    for (const Router::BackendStatus& status :
         fleet.router->backend_status()) {
      if (status.replicated > 0) replicated = true;
    }
    if (!replicated) {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
  }
  EXPECT_TRUE(replicated)
      << "hot key never reached the successor backend";
}

TEST(Router, FailsOverWhenABackendDiesAndShedsWhenAllDo) {
  RouterConfig config = fast_config();
  config.hot_threshold = 0;  // isolate failover from hot rotation
  Fleet fleet(std::move(config));
  ASSERT_TRUE(fleet.router);

  svc::Client client;
  std::string error;
  ASSERT_TRUE(client.connect_unix(fleet.router_path, &error)) << error;

  // Find one request owned by each backend so the kill is guaranteed to
  // hit a covered key range.
  const HashRing ring({{"b1", 1.0}, {"b2", 1.0}});
  svc::Request owned_by_b2;
  bool found = false;
  for (std::uint64_t seed = 1; seed < 64 && !found; ++seed) {
    svc::Request candidate = solve_request(seed);
    const std::uint64_t hash =
        HashRing::key_hash(svc::cache_key(candidate));
    if (ring.name(ring.primary(hash)) == "b2") {
      owned_by_b2 = std::move(candidate);
      found = true;
    }
  }
  ASSERT_TRUE(found);

  // Kill b2. Its keys must fail over to b1 with the client still seeing
  // a clean kOk.
  fleet.b2->shutdown();
  fleet.b2->wait();
  svc::Client::Reply reply;
  ASSERT_TRUE(client.call(owned_by_b2, &reply, &error)) << error;
  EXPECT_EQ(reply.status, svc::Status::kOk) << reply.payload;

  // The breaker hears about the failures; b2 leaves the closed state
  // once the threshold (2) is crossed — the failed proxy call plus the
  // 50 ms health probes get there quickly.
  bool b2_down = false;
  for (int spin = 0; spin < 100 && !b2_down; ++spin) {
    for (const Router::BackendStatus& status :
         fleet.router->backend_status()) {
      if (status.name == "b2" &&
          status.state != Breaker::State::kClosed) {
        b2_down = true;
      }
    }
    if (!b2_down) {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
  }
  EXPECT_TRUE(b2_down);

  // Kill b1 too: with no backend left the router sheds rather than
  // hanging the client.
  fleet.b1->shutdown();
  fleet.b1->wait();
  svc::Client::Reply shed;
  ASSERT_TRUE(client.call(solve_request(5), &shed, &error)) << error;
  EXPECT_EQ(shed.status, svc::Status::kShed);
  EXPECT_NE(shed.payload.find("no_backend"), std::string::npos)
      << shed.payload;
}

TEST(Router, RelaysTheDiskHitFlag) {
  struct Paths {
    std::string dir = "/tmp/qbss-route-" + std::to_string(::getpid()) +
                      "-disk";
    std::string backend = socket_path("disk");
    std::string router = socket_path("disk-r");
    Paths() {
      std::filesystem::remove_all(dir);
      std::filesystem::create_directories(dir);
    }
    ~Paths() {
      std::filesystem::remove_all(dir);
      std::remove(backend.c_str());
      std::remove(router.c_str());
    }
  } paths;

  svc::ServerConfig backend;
  backend.socket_path = paths.backend;
  backend.workers = 1;
  backend.cache_dir = paths.dir;
  backend.cache_sync = "always";
  const svc::Request request = solve_request(41);
  std::string error;
  std::string solved;
  {
    // First lifetime: one solve, persisted to the disk tier.
    svc::Server server(backend);
    ASSERT_TRUE(server.start(&error)) << error;
    svc::Client client;
    ASSERT_TRUE(client.connect_unix(paths.backend, &error)) << error;
    svc::Client::Reply reply;
    ASSERT_TRUE(client.call(request, &reply, &error)) << error;
    ASSERT_EQ(reply.status, svc::Status::kOk) << reply.payload;
    solved = reply.payload;
    server.shutdown();
    server.wait();
  }

  // Restarted on the same directory, the backend can only answer from
  // disk; the routed client must see that, not just a plain cache hit.
  svc::Server server(backend);
  ASSERT_TRUE(server.start(&error)) << error;
  RouterConfig config = fast_config();
  config.hot_threshold = 0;
  config.socket_path = paths.router;
  config.topology.backends.push_back(
      BackendSpec{"disk", svc::Endpoint{paths.backend, "", 0}, 1.0});
  Router router(std::move(config));
  ASSERT_TRUE(router.start(&error)) << error;

  svc::Client client;
  ASSERT_TRUE(client.connect_unix(paths.router, &error)) << error;
  svc::Client::Reply warm;
  ASSERT_TRUE(client.call(request, &warm, &error)) << error;
  ASSERT_EQ(warm.status, svc::Status::kOk) << warm.payload;
  EXPECT_TRUE(warm.cache_hit);
  EXPECT_TRUE(warm.disk_hit);
  EXPECT_EQ(warm.payload, solved);

  // The disk hit promoted the entry: the repeat is a memory hit.
  svc::Client::Reply memory;
  ASSERT_TRUE(client.call(request, &memory, &error)) << error;
  EXPECT_TRUE(memory.cache_hit);
  EXPECT_FALSE(memory.disk_hit);
  EXPECT_EQ(memory.payload, solved);

  router.shutdown();
  router.wait();
  server.shutdown();
  server.wait();
}

/// A stand-in backend built on the frame codec alone: it records the
/// payload of every frame it receives and answers solves with the
/// canonical solve_request payload, pings with "pong".
class RecordingBackend {
 public:
  explicit RecordingBackend(std::string path) : path_(std::move(path)) {
    std::remove(path_.c_str());
    listener_ = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, path_.c_str(), sizeof(addr.sun_path) - 1);
    if (listener_ < 0 ||
        ::bind(listener_, reinterpret_cast<const sockaddr*>(&addr),
               sizeof addr) != 0 ||
        ::listen(listener_, 8) != 0) {
      ADD_FAILURE() << "recording backend cannot listen on " << path_;
      return;
    }
    accept_thread_ = std::thread([this] { accept_loop(); });
  }

  ~RecordingBackend() {
    stop_.store(true);
    if (accept_thread_.joinable()) accept_thread_.join();
    {
      const std::lock_guard<std::mutex> lock(mu_);
      for (const int fd : conns_) ::shutdown(fd, SHUT_RDWR);
    }
    for (std::thread& t : conn_threads_) t.join();
    for (const int fd : conns_) ::close(fd);
    if (listener_ >= 0) ::close(listener_);
    std::remove(path_.c_str());
  }

  [[nodiscard]] std::vector<std::string> payloads() const {
    const std::lock_guard<std::mutex> lock(mu_);
    return payloads_;
  }

  [[nodiscard]] svc::Endpoint endpoint() const {
    return svc::Endpoint{path_, "", 0};
  }

 private:
  void accept_loop() {
    while (!stop_.load()) {
      pollfd pfd{listener_, POLLIN, 0};
      if (::poll(&pfd, 1, 20) <= 0) continue;
      const int fd = ::accept4(listener_, nullptr, nullptr, SOCK_CLOEXEC);
      if (fd < 0) continue;
      const std::lock_guard<std::mutex> lock(mu_);
      conns_.push_back(fd);
      conn_threads_.emplace_back([this, fd] { serve(fd); });
    }
  }

  void serve(int fd) {
    svc::FrameHeader header;
    std::string payload;
    std::string error;
    while (svc::read_frame(fd, &header, &payload, &error) ==
           svc::ReadResult::kFrame) {
      {
        const std::lock_guard<std::mutex> lock(mu_);
        payloads_.push_back(payload);
      }
      svc::Request request;
      std::string reply = "pong\n";
      svc::FrameHeader response;
      response.status = svc::Status::kOk;
      if (!svc::parse_request(payload, &request, &error) ||
          (request.verb == svc::Verb::kSolve &&
           !svc::solve_request(request, &reply, &error))) {
        response.status = svc::Status::kError;
        reply = "message: " + error + "\n";
      }
      response.request_id = header.request_id;
      response.trace_id = header.trace_id;
      if (!svc::write_frame(fd, response, reply, &error)) return;
    }
  }

  std::string path_;
  int listener_ = -1;
  std::atomic<bool> stop_{false};
  mutable std::mutex mu_;
  std::vector<int> conns_;
  std::vector<std::thread> conn_threads_;
  std::vector<std::string> payloads_;
  std::thread accept_thread_;
};

/// A valid solve payload in a form serialize_request never writes:
/// fields reordered, `alpha: 3.0` instead of `alpha: 3`, and an explicit
/// `deadline_ms: 0` line.
std::string non_canonical_payload(const svc::Request& request) {
  const std::string canonical = svc::serialize_request(request);
  const std::size_t instance = canonical.find("instance:\n");
  EXPECT_NE(instance, std::string::npos);
  return "qbss-svc/1 solve\n"
         "schedule: 0\n"
         "deadline_ms: 0\n"
         "alpha: 3.0\n"
         "machines: 4\n"
         "algo: " +
         request.algo + "\n" + canonical.substr(instance);
}

RouterConfig recording_config(const std::string& router_path) {
  RouterConfig config = fast_config();
  config.socket_path = router_path;
  config.health_interval_ms = 0.0;  // only the client's frames arrive
  return config;
}

TEST(Router, ForwardsClientBytesVerbatim) {
  RecordingBackend backend(socket_path("rec"));
  RouterConfig config = recording_config(socket_path("rec-r"));
  config.hot_threshold = 0;
  config.topology.backends.push_back(
      BackendSpec{"rec", backend.endpoint(), 1.0});
  Router router(std::move(config));
  std::string error;
  ASSERT_TRUE(router.start(&error)) << error;

  const svc::Request request = solve_request(61);
  const std::string bytes = non_canonical_payload(request);
  ASSERT_NE(bytes, svc::serialize_request(request));
  svc::Request parsed;
  ASSERT_TRUE(svc::parse_request(bytes, &parsed, &error)) << error;
  ASSERT_EQ(svc::cache_key(parsed), svc::cache_key(request));

  svc::Client client;
  ASSERT_TRUE(client.connect_unix(socket_path("rec-r"), &error)) << error;
  svc::Client::Reply reply;
  ASSERT_TRUE(client.call_raw(bytes, &reply, &error)) << error;
  ASSERT_EQ(reply.status, svc::Status::kOk) << reply.payload;
  std::string direct;
  ASSERT_TRUE(svc::solve_request(request, &direct, &error)) << error;
  EXPECT_EQ(reply.payload, direct);

  const std::vector<std::string> seen = backend.payloads();
  ASSERT_EQ(seen.size(), 1u);
  EXPECT_EQ(seen[0], bytes);
  router.shutdown();
  router.wait();
}

TEST(Router, ReplicatesTheClientBytesToTheSuccessor) {
  RecordingBackend first(socket_path("rec1"));
  RecordingBackend second(socket_path("rec2"));
  RouterConfig config = recording_config(socket_path("rec-r2"));
  config.hot_threshold = 1;  // the first request turns the key hot
  config.replicas = 1;
  config.topology.backends.push_back(
      BackendSpec{"rec1", first.endpoint(), 1.0});
  config.topology.backends.push_back(
      BackendSpec{"rec2", second.endpoint(), 1.0});
  Router router(std::move(config));
  std::string error;
  ASSERT_TRUE(router.start(&error)) << error;

  const std::string bytes = non_canonical_payload(solve_request(62));
  svc::Client client;
  ASSERT_TRUE(client.connect_unix(socket_path("rec-r2"), &error)) << error;
  svc::Client::Reply reply;
  ASSERT_TRUE(client.call_raw(bytes, &reply, &error)) << error;
  ASSERT_EQ(reply.status, svc::Status::kOk) << reply.payload;
  EXPECT_EQ(router.hot_keys(), 1u);

  // The owner answered the client; the replication push to the other
  // node is asynchronous.
  std::vector<std::string> seen;
  for (int spin = 0; spin < 100 && seen.size() < 2; ++spin) {
    seen = first.payloads();
    const std::vector<std::string> more = second.payloads();
    seen.insert(seen.end(), more.begin(), more.end());
    if (seen.size() < 2) {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
  }
  ASSERT_EQ(seen.size(), 2u) << "the successor never received the key";
  EXPECT_EQ(first.payloads().size(), 1u);
  EXPECT_EQ(second.payloads().size(), 1u);
  for (const std::string& payload : seen) EXPECT_EQ(payload, bytes);
  router.shutdown();
  router.wait();
}

}  // namespace
}  // namespace qbss::route
