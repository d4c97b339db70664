#include "exec/backend.hpp"
#include "gen/designs.hpp"
#include "graph/circuit_graph.hpp"
#include "netlist/hierarchy.hpp"
#include "serve/client.hpp"
#include "serve/core.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "util/json_writer.hpp"
#include "util/metrics.hpp"

#include <arpa/inet.h>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <gtest/gtest.h>
#include <iterator>
#include <limits>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <thread>
#include <unistd.h>

namespace cgps {
namespace {

using serve::Request;
using serve::Response;
using serve::ServeOptions;
using serve::Status;
using serve::TaskKind;

GpsConfig small_config() {
  GpsConfig c;
  c.hidden = 16;
  c.layers = 1;
  c.heads = 2;
  c.performer_features = 8;
  c.head_hidden = 16;
  c.seed = 11;
  return c;
}

// Shared serving fixture: one generated design, one model. The coalescing
// contract is only bit-exact on the scalar backend, and the CI matrix runs
// the suite under CIRCUITGPS_BACKEND=avx2, so pin the backend before the
// first forward.
struct ServeFixture {
  ServeFixture() {
    ::setenv("CIRCUITGPS_BACKEND", "scalar", /*overwrite=*/1);
    const Netlist netlist = flatten(gen::make_design(gen::DatasetId::kTimingControl));
    CircuitGraph cg = build_circuit_graph(netlist);
    normalizer.fit(cg.xc);
    design.name = "timing_control";
    design.graph = std::move(cg.graph);
    design.xc = std::move(cg.xc);
    model = std::make_unique<CircuitGps>(small_config());
  }

  ServeOptions options() const {
    ServeOptions o;
    o.max_batch = 16;
    o.queue_cap = 64;
    o.default_deadline_us = 60'000'000;
    o.subgraph.max_nodes_per_anchor = 32;
    return o;
  }

  Request link_request(std::uint64_t id, std::int32_t a, std::int32_t b) const {
    Request r;
    r.id = id;
    r.task = TaskKind::kLink;
    r.node_a = a;
    r.node_b = b;
    return r;
  }

  serve::ServedDesign design;
  XcNormalizer normalizer;
  std::unique_ptr<CircuitGps> model;
};

ServeFixture& fixture() {
  static ServeFixture f;
  return f;
}

// A plain blocking loopback socket, for clients ServeClient cannot play.
int raw_connect(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  return fd;
}

// Entries of /proc/self/<dir>: open descriptors ("fd") or threads ("task").
std::ptrdiff_t proc_self_entries(const char* dir) {
  return std::distance(std::filesystem::directory_iterator(std::string("/proc/self/") + dir),
                       std::filesystem::directory_iterator{});
}

// Polls `done` for up to 5 s: the server reaps a closed connection on its
// own thread, after the client's close() has returned.
template <typename Done>
bool within_5s(Done done) {
  const auto until = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (!done()) {
    if (std::chrono::steady_clock::now() > until) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return true;
}

TEST(ServeCore, CoalescedMatchesSoloBitwise) {
  ServeFixture& f = fixture();
  const std::int32_t n = static_cast<std::int32_t>(f.design.graph.num_nodes());
  std::vector<Request> requests;
  for (std::int32_t i = 0; i < 12; ++i) {
    Request r = f.link_request(static_cast<std::uint64_t>(i + 1), i % n, (i * 7 + 3) % n);
    if (i % 3 == 2) r.task = TaskKind::kEdgeCap;
    if (i % 4 == 3) {
      r.task = TaskKind::kNodeCap;
      r.node_b = -1;
    }
    requests.push_back(r);
  }

  // One run_cycle serves all 12 as a single coalesced batch.
  std::vector<Response> coalesced(requests.size());
  {
    serve::ServeCore core(*f.model, f.normalizer, {f.design}, f.options());
    for (std::size_t i = 0; i < requests.size(); ++i)
      core.submit(requests[i], [&coalesced, i](const Response& r) { coalesced[i] = r; });
    EXPECT_EQ(core.run_cycle(), static_cast<int>(requests.size()));
  }

  // Solo oracle: each request alone through its own cycle.
  for (std::size_t i = 0; i < requests.size(); ++i) {
    serve::ServeCore core(*f.model, f.normalizer, {f.design}, f.options());
    Response solo;
    core.submit(requests[i], [&solo](const Response& r) { solo = r; });
    EXPECT_EQ(core.run_cycle(), 1);
    ASSERT_EQ(coalesced[i].status, Status::kOk) << "request " << i;
    ASSERT_EQ(solo.status, Status::kOk) << "request " << i;
    // Bitwise: == on float, no tolerance.
    EXPECT_EQ(coalesced[i].value, solo.value) << "request " << i;
    EXPECT_EQ(coalesced[i].cap_farads, solo.cap_farads) << "request " << i;
  }
}

TEST(ServeCore, ExpiredDeadlineIsShedAsTimeout) {
  ServeFixture& f = fixture();
  serve::ServeCore core(*f.model, f.normalizer, {f.design}, f.options());
  Request r = f.link_request(1, 0, 1);
  r.deadline_us = 1;  // 1 µs budget: expired by the time the cycle runs
  Response out;
  core.submit(r, [&out](const Response& resp) { out = resp; });
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  EXPECT_EQ(core.run_cycle(), 1);  // shed requests still count as answered
  EXPECT_EQ(out.status, Status::kTimeout);
}

TEST(ServeCore, FullQueueRejectsWithOverloaded) {
  ServeFixture& f = fixture();
  ServeOptions opts = f.options();
  opts.queue_cap = 2;
  serve::ServeCore core(*f.model, f.normalizer, {f.design}, opts);
  std::vector<Status> seen;
  auto record = [&seen](const Response& r) { seen.push_back(r.status); };
  EXPECT_TRUE(core.submit(f.link_request(1, 0, 1), record));
  EXPECT_TRUE(core.submit(f.link_request(2, 1, 2), record));
  // Queue full: rejected inline, from the calling thread.
  EXPECT_FALSE(core.submit(f.link_request(3, 2, 3), record));
  ASSERT_EQ(seen.size(), 1u);
  EXPECT_EQ(seen[0], Status::kOverloaded);
  while (core.run_cycle() > 0) {
  }
}

TEST(ServeCore, StopDrainsAcceptedWorkThenRefuses) {
  ServeFixture& f = fixture();
  serve::ServeCore core(*f.model, f.normalizer, {f.design}, f.options());
  core.start();
  std::atomic<int> answered{0};
  for (int i = 0; i < 8; ++i) {
    core.submit(f.link_request(static_cast<std::uint64_t>(i + 1), i, i + 1),
                [&answered](const Response& r) {
                  if (r.status == Status::kOk) answered.fetch_add(1);
                });
  }
  core.stop();  // must not return before every accepted request is answered
  EXPECT_EQ(answered.load(), 8);
  Response post;
  EXPECT_FALSE(core.submit(f.link_request(99, 0, 1),
                           [&post](const Response& r) { post = r; }));
  EXPECT_EQ(post.status, Status::kShutdown);
}

TEST(ServeCore, BadDesignAndBadNodeAnsweredInline) {
  ServeFixture& f = fixture();
  serve::ServeCore core(*f.model, f.normalizer, {f.design}, f.options());
  Request r = f.link_request(1, 0, 1);
  r.design = 7;
  Response out;
  EXPECT_TRUE(core.submit(r, [&out](const Response& resp) { out = resp; }));
  EXPECT_EQ(out.status, Status::kBadDesign);

  Request bad_node = f.link_request(2, -1, 1);
  EXPECT_TRUE(core.submit(bad_node, [&out](const Response& resp) { out = resp; }));
  EXPECT_EQ(out.status, Status::kBadNode);

  Request big = f.link_request(3, 0, static_cast<std::int32_t>(f.design.graph.num_nodes()));
  EXPECT_TRUE(core.submit(big, [&out](const Response& resp) { out = resp; }));
  EXPECT_EQ(out.status, Status::kBadNode);
}

TEST(ServeServer, SocketRoundTripOnEphemeralPort) {
  ServeFixture& f = fixture();
  serve::ServeCore core(*f.model, f.normalizer, {f.design}, f.options());
  core.start();
  serve::ServeServer server(core, /*port=*/0);
  ASSERT_TRUE(server.start());
  ASSERT_GT(server.port(), 0);

  serve::ServeClient client;
  ASSERT_TRUE(client.connect("127.0.0.1", server.port()));

  // Metadata probe.
  Request info;
  info.id = 41;
  info.task = TaskKind::kInfo;
  const auto probe = client.call(info);
  ASSERT_TRUE(probe.has_value());
  EXPECT_EQ(probe->id, 41u);
  EXPECT_EQ(probe->status, Status::kOk);
  EXPECT_EQ(static_cast<std::int64_t>(probe->value), f.design.graph.num_nodes());

  // Pipelined burst through the buffered client path: enqueue all, one
  // flush, collect responses by id.
  const int burst = 10;
  for (int i = 0; i < burst; ++i)
    client.enqueue(f.link_request(static_cast<std::uint64_t>(100 + i), i, i + 2));
  ASSERT_TRUE(client.flush());
  std::uint64_t id_sum = 0;
  for (int i = 0; i < burst; ++i) {
    const auto response = client.recv();
    ASSERT_TRUE(response.has_value());
    EXPECT_EQ(response->status, Status::kOk);
    id_sum += response->id;
  }
  EXPECT_EQ(id_sum, static_cast<std::uint64_t>(burst) * 100 +
                        static_cast<std::uint64_t>(burst - 1) * burst / 2);

  // Bad design surfaces through the wire with its id intact.
  Request bad = f.link_request(7, 0, 1);
  bad.design = 3;
  const auto bad_response = client.call(bad);
  ASSERT_TRUE(bad_response.has_value());
  EXPECT_EQ(bad_response->id, 7u);
  EXPECT_EQ(bad_response->status, Status::kBadDesign);

  client.close();
  server.stop();
  core.stop();
}

// kStats over a real socket: the snapshot must carry the full
// cgps-serve-stats-v1 surface, with finite windowed quantiles once requests
// have been served, and the connection must keep answering normal requests
// after a stats fetch.
TEST(ServeServer, StatsRoundTripOverSocket) {
  ServeFixture& f = fixture();
  serve::ServeCore core(*f.model, f.normalizer, {f.design}, f.options());
  serve::ServeIdentity identity;
  identity.checkpoint = "test-ckpt";
  identity.build = "test-build";
  core.set_identity(identity);
  core.start();
  serve::ServeServer server(core, /*port=*/0);
  ASSERT_TRUE(server.start());

  serve::ServeClient client;
  ASSERT_TRUE(client.connect("127.0.0.1", server.port()));
  const int burst = 8;
  for (int i = 0; i < burst; ++i) {
    const auto r = client.call(f.link_request(static_cast<std::uint64_t>(i + 1), i, i + 2));
    ASSERT_TRUE(r.has_value());
    EXPECT_EQ(r->status, Status::kOk);
  }

  const std::optional<std::string> stats = client.fetch_stats();
  ASSERT_TRUE(stats.has_value());
  std::string error;
  const std::optional<JsonValue> parsed = json_parse(*stats, &error);
  ASSERT_TRUE(parsed.has_value()) << error;

  const auto str_field = [&](const std::vector<std::string>& path) {
    const JsonValue* v = parsed->find(path[0]);
    for (std::size_t i = 1; v != nullptr && i < path.size(); ++i) v = v->find(path[i]);
    return v != nullptr && v->type == JsonValue::Type::kString ? v->string
                                                               : std::string("<missing>");
  };
  const auto num_field = [&](const std::vector<std::string>& path) {
    const JsonValue* v = parsed->find(path[0]);
    for (std::size_t i = 1; v != nullptr && i < path.size(); ++i) v = v->find(path[i]);
    return v != nullptr && v->type == JsonValue::Type::kNumber
               ? v->number
               : std::numeric_limits<double>::quiet_NaN();
  };

  EXPECT_EQ(str_field({"schema"}), "cgps-serve-stats-v1");
  EXPECT_EQ(num_field({"proto_version"}), serve::kProtocolVersion);
  EXPECT_EQ(str_field({"checkpoint"}), "test-ckpt");
  EXPECT_EQ(str_field({"build"}), "test-build");
  EXPECT_GE(num_field({"uptime_s"}), 0.0);
  EXPECT_GT(num_field({"rss_bytes"}), 0.0);

  const JsonValue* designs = parsed->find("designs");
  ASSERT_NE(designs, nullptr);
  ASSERT_EQ(designs->array.size(), 1u);
  EXPECT_EQ(designs->array[0].find("name")->string, "timing_control");
  EXPECT_EQ(static_cast<std::int64_t>(designs->array[0].find("nodes")->number),
            f.design.graph.num_nodes());

  // The burst landed within the last 10 seconds: the window must have mass
  // and finite interpolated quantiles.
  EXPECT_GE(num_field({"windows", "10s", "done"}), static_cast<double>(burst));
  EXPECT_GT(num_field({"windows", "10s", "qps"}), 0.0);
  EXPECT_TRUE(std::isfinite(num_field({"windows", "10s", "p50_s"})));
  EXPECT_TRUE(std::isfinite(num_field({"windows", "10s", "p95_s"})));
  EXPECT_TRUE(std::isfinite(num_field({"windows", "10s", "p99_s"})));
  EXPECT_EQ(num_field({"windows", "10s", "window_s"}), 10.0);
  EXPECT_EQ(num_field({"windows", "60s", "window_s"}), 60.0);

  // Registry mirror: lifetime counters and the live-connection gauge.
  EXPECT_GE(num_field({"registry", "counters", "serve.requests"}),
            static_cast<double>(burst));
  EXPECT_GE(num_field({"registry", "counters", "serve.stats_requests"}), 1.0);
  EXPECT_EQ(num_field({"registry", "gauges", "serve.active_connections"}), 1.0);

  // The same connection still serves ordinary requests after a stats fetch.
  const auto after = client.call(f.link_request(99, 0, 1));
  ASSERT_TRUE(after.has_value());
  EXPECT_EQ(after->status, Status::kOk);

  client.close();
  server.stop();
  core.stop();
}

// Regression probe: a fresh daemon with zero completed requests must still
// serialize a valid JSON snapshot — empty-window quantiles are JSON null
// (the writer's encoding of NaN), rates are 0, and no bare NaN/Inf token
// leaks into the document (bare tokens would break every JSON consumer).
TEST(ServeCore, FreshDaemonStatsAreValidJsonWithoutNanInf) {
  ServeFixture& f = fixture();
  serve::ServeCore core(*f.model, f.normalizer, {f.design}, f.options());
  const std::string stats = core.stats_json();

  EXPECT_EQ(stats.find("nan"), std::string::npos);
  EXPECT_EQ(stats.find("NaN"), std::string::npos);
  EXPECT_EQ(stats.find("inf"), std::string::npos);
  EXPECT_EQ(stats.find("Infinity"), std::string::npos);

  std::string error;
  const std::optional<JsonValue> parsed = json_parse(stats, &error);
  ASSERT_TRUE(parsed.has_value()) << error;

  const JsonValue* w10 = parsed->find("windows");
  ASSERT_NE(w10, nullptr);
  w10 = w10->find("10s");
  ASSERT_NE(w10, nullptr);
  EXPECT_EQ(w10->find("done")->number, 0.0);
  EXPECT_EQ(w10->find("qps")->number, 0.0);
  EXPECT_EQ(w10->find("shed_rate")->number, 0.0);
  EXPECT_EQ(w10->find("reject_rate")->number, 0.0);
  // Empty-window quantiles serialize as null, never as a number.
  EXPECT_EQ(w10->find("p50_s")->type, JsonValue::Type::kNull);
  EXPECT_EQ(w10->find("p99_s")->type, JsonValue::Type::kNull);

  // Resident-memory fields, and the kernel backend the executor runs.
  const JsonValue* designs = parsed->find("designs");
  ASSERT_NE(designs, nullptr);
  ASSERT_EQ(designs->array.size(), 1u);
  EXPECT_GT(designs->array[0].find("resident_bytes")->number, 0.0);
  EXPECT_GT(parsed->find("model_fp32_bytes")->number, 0.0);
  const std::string& executor = parsed->find("executor")->string;
  EXPECT_TRUE(executor == "scalar" || executor == "avx2") << executor;
  EXPECT_EQ(executor, exec::select_backend().name());
}

// Corrupt or truncated frames carrying (or pretending to carry) a kStats
// request must be answered with kError and a dropped connection, exactly
// like any other protocol violation — the stream offset is untrustworthy.
TEST(ServeServer, CorruptStatsFramesGetErrorAndClose) {
  ServeFixture& f = fixture();
  serve::ServeCore core(*f.model, f.normalizer, {f.design}, f.options());
  core.start();
  serve::ServeServer server(core, /*port=*/0);
  ASSERT_TRUE(server.start());

  const auto expect_error_then_eof = [&](int fd) {
    std::vector<std::uint8_t> buf;
    std::uint8_t chunk[4096];
    for (;;) {
      const ssize_t got = ::read(fd, chunk, sizeof(chunk));
      if (got <= 0) break;  // server closed after flushing the error
      buf.insert(buf.end(), chunk, chunk + got);
    }
    std::size_t pos = 0;
    std::vector<std::uint8_t> payload;
    ASSERT_EQ(serve::scan_frame(buf, pos, payload), serve::FrameScan::kFrame);
    const auto response = serve::decode_response(payload);
    ASSERT_TRUE(response.has_value());
    EXPECT_EQ(response->status, Status::kError);
    EXPECT_EQ(pos, buf.size());  // nothing after the error frame
    ::close(fd);
  };

  {
    // Truncated kStats request: length prefix honest, payload cut short.
    Request r;
    r.id = 5;
    r.task = TaskKind::kStats;
    std::vector<std::uint8_t> payload = serve::encode_request(r);
    payload.resize(payload.size() / 2);
    std::vector<std::uint8_t> framed;
    serve::append_frame(framed, payload);
    const int fd = raw_connect(server.port());
    ASSERT_TRUE(serve::write_all_bytes(fd, framed.data(), framed.size()));
    expect_error_then_eof(fd);
  }
  {
    // Oversized length prefix: corrupt before any payload arrives.
    const std::uint8_t evil[4] = {0xFF, 0xFF, 0xFF, 0xFF};
    const int fd = raw_connect(server.port());
    ASSERT_TRUE(serve::write_all_bytes(fd, evil, sizeof(evil)));
    expect_error_then_eof(fd);
  }

  server.stop();
  core.stop();
}

// A closed connection gives its descriptor back, and any number of open
// connections share the one loop thread.
TEST(ServeServer, ConnectionChurnLeavesNoDescriptorOrThreadBehind) {
  ServeFixture& f = fixture();
  serve::ServeCore core(*f.model, f.normalizer, {f.design}, f.options());
  core.start();
  serve::ServeServer server(core, /*port=*/0);
  ASSERT_TRUE(server.start());
  const Gauge& active = metric_gauge("serve.active_connections");
  const auto call_ok = [&](serve::ServeClient& client, std::uint64_t id) {
    ASSERT_TRUE(client.connected() || client.connect("127.0.0.1", server.port()));
    const auto r = client.call(f.link_request(id, static_cast<std::int32_t>(id % 8),
                                              static_cast<std::int32_t>((id + 3) % 8)));
    ASSERT_TRUE(r.has_value());
    EXPECT_EQ(r->status, Status::kOk);
  };
  {
    // The first request starts every thread the core starts lazily.
    serve::ServeClient client;
    call_ok(client, 1);
  }
  ASSERT_TRUE(within_5s([&] { return active.value() == 0.0; }));
  const std::ptrdiff_t fds = proc_self_entries("fd");
  const std::ptrdiff_t threads = proc_self_entries("task");
  {
    std::array<serve::ServeClient, 4> clients;
    for (std::size_t i = 0; i < clients.size(); ++i) call_ok(clients[i], 10 + i);
    EXPECT_EQ(active.value(), 4.0);
    EXPECT_EQ(proc_self_entries("task"), threads);
  }
  for (std::uint64_t i = 0; i < 200; ++i) {
    serve::ServeClient client;
    call_ok(client, 100 + i);
  }
  EXPECT_TRUE(within_5s([&] { return active.value() == 0.0 && proc_self_entries("fd") == fds; }))
      << "descriptors " << proc_self_entries("fd") << " (baseline " << fds
      << "), active connections " << active.value();
  server.stop();
  core.stop();
}

// A client that pipelines requests and never reads its replies must not
// hold up anyone else: the server stops reading it while a read's worth of
// its replies is unsent, and the batching thread never writes to a socket.
TEST(ServeServer, StalledReaderDoesNotStallOtherClients) {
  ServeFixture& f = fixture();
  serve::ServeCore core(*f.model, f.normalizer, {f.design}, f.options());
  core.start();
  serve::ServeServer server(core, /*port=*/0);
  ASSERT_TRUE(server.start());

  // A whole number of node-cap frames, sent round and round so every send
  // continues the stream where the last one stopped.
  std::vector<std::uint8_t> stream;
  for (std::int32_t i = 0; i < 256; ++i) {
    Request r;
    r.id = static_cast<std::uint64_t>(i + 1);
    r.task = TaskKind::kNodeCap;
    r.node_a = i % 8;
    serve::append_frame(stream, serve::encode_request(r));
  }
  const int stalled = raw_connect(server.port());
  std::size_t sent = 0;
  while (sent < (std::size_t{8} << 20)) {
    pollfd writable{stalled, POLLOUT, 0};
    if (::poll(&writable, 1, 200) <= 0) break;  // writes stalled
    const std::size_t at = sent % stream.size();
    const ssize_t n = ::send(stalled, stream.data() + at, stream.size() - at, MSG_DONTWAIT);
    if (n > 0) sent += static_cast<std::size_t>(n);
  }

  // The stalled client's admitted work drains, and another client is served.
  const Gauge& queue_depth = metric_gauge("serve.queue_depth");
  EXPECT_TRUE(within_5s([&] { return queue_depth.value() == 0.0; }))
      << "queue depth " << queue_depth.value() << " after " << sent << " bytes";
  const int other = raw_connect(server.port());
  std::vector<std::uint8_t> frame;
  serve::append_frame(frame, serve::encode_request(f.link_request(7, 0, 1)));
  EXPECT_TRUE(serve::write_all_bytes(other, frame.data(), frame.size()));
  std::vector<std::uint8_t> in;
  std::vector<std::uint8_t> payload;
  std::size_t pos = 0;
  while (serve::scan_frame(in, pos, payload) == serve::FrameScan::kNeedMore) {
    pollfd readable{other, POLLIN, 0};
    if (::poll(&readable, 1, 5000) <= 0) break;
    std::uint8_t chunk[256];
    const ssize_t got = ::read(other, chunk, sizeof(chunk));
    if (got <= 0) break;
    in.insert(in.end(), chunk, chunk + got);
  }
  // Shut the stalled socket before any assertion can return, so a server
  // blocked writing to it returns and the teardown cannot hang.
  ::shutdown(stalled, SHUT_RDWR);
  ::close(stalled);
  ::close(other);
  const std::optional<Response> reply = serve::decode_response(payload);
  ASSERT_TRUE(reply.has_value()) << "no reply within 5 s";
  EXPECT_EQ(reply->id, 7u);
  EXPECT_EQ(reply->status, Status::kOk);
  server.stop();
  core.stop();
}

// Unregistering the cycle hook waits for a hook that is running, so a
// transport can release what its hook writes to as soon as it returns.
TEST(ServeCore, SetCycleHookWaitsForARunningHook) {
  ServeFixture& f = fixture();
  serve::ServeCore core(*f.model, f.normalizer, {f.design}, f.options());
  std::atomic<bool> entered{false};
  std::atomic<bool> finished{false};
  core.set_cycle_hook([&] {
    entered = true;
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    finished = true;
  });
  core.submit(f.link_request(1, 0, 1), [](const Response&) {});
  std::thread cycle([&core] { core.run_cycle(); });
  while (!entered) std::this_thread::yield();
  core.set_cycle_hook({});
  EXPECT_TRUE(finished);
  cycle.join();
}

// Access log: every finished request appends one cgps-serve-access-v1 JSONL
// record, and the file rotates through the CIRCUITGPS_RUN_LOG_MAX_MB cap
// like the training run log.
TEST(ServeCore, AccessLogWritesSchemaRecordsAndRotates) {
  ServeFixture& f = fixture();
  const std::string path =
      (std::filesystem::path(::testing::TempDir()) / "cgps_access_test.jsonl").string();
  std::remove(path.c_str());
  std::remove((path + ".1").c_str());
  ::setenv("CIRCUITGPS_SERVE_ACCESS_LOG", path.c_str(), /*overwrite=*/1);
  ::setenv("CIRCUITGPS_RUN_LOG_MAX_MB", "0.001", /*overwrite=*/1);  // ~1 KiB cap

  const int total = 24;
  {
    serve::ServeCore core(*f.model, f.normalizer, {f.design}, f.options());
    int done = 0;
    for (int i = 0; i < total; ++i)
      core.submit(f.link_request(static_cast<std::uint64_t>(i + 1), i % 8, (i + 3) % 8),
                  [&done](const Response&) { ++done; });
    while (done < total) ASSERT_GT(core.run_cycle(), 0);
  }
  ::unsetenv("CIRCUITGPS_SERVE_ACCESS_LOG");
  ::unsetenv("CIRCUITGPS_RUN_LOG_MAX_MB");

  // ~190 bytes/record * 24 records >> 1 KiB: the cap must have rotated.
  EXPECT_TRUE(std::filesystem::exists(path + ".1"));
  int records = 0;
  for (const std::string& file : {path, path + ".1"}) {
    std::ifstream in(file);
    std::string line;
    while (std::getline(in, line)) {
      if (line.empty()) continue;
      ++records;
      std::string error;
      const std::optional<JsonValue> v = json_parse(line, &error);
      ASSERT_TRUE(v.has_value()) << file << ": " << error;
      EXPECT_EQ(v->find("schema")->string, "cgps-serve-access-v1");
      EXPECT_EQ(v->find("status")->string, "ok");
      EXPECT_EQ(v->find("task")->string, "link");
      EXPECT_GE(v->find("trace_id")->number, 1.0);
      EXPECT_GE(v->find("queue_us")->number, 0.0);
      EXPECT_GE(v->find("total_us")->number, 0.0);
      EXPECT_GE(v->find("batch")->number, 1.0);
      EXPECT_GE(v->find("batch_size")->number, 1.0);
      EXPECT_EQ(v->find("design")->number, 0.0);
    }
  }
  EXPECT_GT(records, 0);
  EXPECT_LE(records, total);  // rotation may drop the oldest records
  std::remove(path.c_str());
  std::remove((path + ".1").c_str());
}

TEST(ServeProtocol, StatsResponseRoundTripAndVersionBounds) {
  const std::string json = "{\"schema\":\"cgps-serve-stats-v1\"}";
  std::vector<std::uint8_t> payload = serve::encode_stats_response(0xABCDull, json);
  const auto decoded = serve::decode_stats_response(payload);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->id, 0xABCDull);
  EXPECT_EQ(decoded->json, json);

  // Truncation at every prefix of the prologue fails cleanly; so does a
  // prologue with no JSON body.
  for (std::size_t cut = 0; cut <= 13; ++cut) {
    const std::vector<std::uint8_t> trunc(payload.begin(),
                                          payload.begin() + static_cast<std::ptrdiff_t>(cut));
    EXPECT_FALSE(serve::decode_stats_response(trunc).has_value()) << "cut=" << cut;
  }

  // Version handshake: every layout version this build knows is accepted,
  // the next one is rejected rather than misread. The version byte follows
  // the 4-byte magic.
  for (std::uint8_t v = serve::kMinProtocolVersion; v <= serve::kProtocolVersion; ++v) {
    payload[4] = v;
    EXPECT_TRUE(serve::decode_stats_response(payload).has_value()) << "v=" << int(v);
  }
  payload[4] = serve::kProtocolVersion + 1;
  EXPECT_FALSE(serve::decode_stats_response(payload).has_value());
  payload[4] = serve::kProtocolVersion;

  // A stats payload is not a response payload and vice versa.
  EXPECT_FALSE(serve::decode_response(payload).has_value());
  Response resp;
  EXPECT_FALSE(serve::decode_stats_response(serve::encode_response(resp)).has_value());

  // Requests and responses stamp v1 (their layout is unchanged) but must
  // accept a v2 stamp from newer peers.
  Request r;
  std::vector<std::uint8_t> req = serve::encode_request(r);
  EXPECT_EQ(req[4], serve::kMinProtocolVersion);
  req[4] = serve::kProtocolVersion;
  EXPECT_TRUE(serve::decode_request(req).has_value());
  req[4] = serve::kProtocolVersion + 1;
  EXPECT_FALSE(serve::decode_request(req).has_value());
}

TEST(ServeProtocol, RequestAndResponseRoundTrip) {
  Request r;
  r.id = 0xDEADBEEFull;
  r.design = 2;
  r.task = TaskKind::kEdgeCap;
  r.node_a = 123;
  r.node_b = -1;
  r.deadline_us = 987654;
  const auto decoded = serve::decode_request(serve::encode_request(r));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->id, r.id);
  EXPECT_EQ(decoded->design, r.design);
  EXPECT_EQ(decoded->task, r.task);
  EXPECT_EQ(decoded->node_a, r.node_a);
  EXPECT_EQ(decoded->node_b, r.node_b);
  EXPECT_EQ(decoded->deadline_us, r.deadline_us);

  Response resp;
  resp.id = 77;
  resp.status = Status::kTimeout;
  resp.value = 0.25f;
  resp.cap_farads = 1.5e-15;
  resp.server_us = 4242;
  const auto decoded_resp = serve::decode_response(serve::encode_response(resp));
  ASSERT_TRUE(decoded_resp.has_value());
  EXPECT_EQ(decoded_resp->id, resp.id);
  EXPECT_EQ(decoded_resp->status, resp.status);
  EXPECT_EQ(decoded_resp->value, resp.value);
  EXPECT_EQ(decoded_resp->cap_farads, resp.cap_farads);
  EXPECT_EQ(decoded_resp->server_us, resp.server_us);
}

TEST(ServeProtocol, MalformedPayloadsAreRejected) {
  Request r;
  r.id = 1;
  std::vector<std::uint8_t> payload = serve::encode_request(r);
  // Truncation at every prefix length must fail cleanly, never read past end.
  for (std::size_t cut = 0; cut < payload.size(); ++cut) {
    const std::vector<std::uint8_t> trunc(payload.begin(),
                                          payload.begin() + static_cast<std::ptrdiff_t>(cut));
    EXPECT_FALSE(serve::decode_request(trunc).has_value()) << "cut=" << cut;
  }
  // Wrong magic.
  payload[0] ^= 0xFF;
  EXPECT_FALSE(serve::decode_request(payload).has_value());
  payload[0] ^= 0xFF;
  // A request payload is not a response payload.
  EXPECT_FALSE(serve::decode_response(payload).has_value());
  // Out-of-range task code.
  std::vector<std::uint8_t> bad_task = serve::encode_request(r);
  bad_task[4 + 1 + 8 + 2] = 0x7F;  // magic+ver+id+design -> task byte
  EXPECT_FALSE(serve::decode_request(bad_task).has_value());
}

TEST(ServeProtocol, ScanFrameHandlesSplitAndCorruptStreams) {
  const std::vector<std::uint8_t> a = serve::encode_request(Request{});
  Response resp;
  resp.status = Status::kOk;
  const std::vector<std::uint8_t> b = serve::encode_response(resp);

  std::vector<std::uint8_t> stream;
  serve::append_frame(stream, a);
  serve::append_frame(stream, b);

  // Feed byte by byte: kNeedMore until each frame completes, in order.
  std::vector<std::uint8_t> fed;
  std::size_t pos = 0;
  std::vector<std::uint8_t> payload;
  int frames = 0;
  for (const std::uint8_t byte : stream) {
    fed.push_back(byte);
    const serve::FrameScan scan = serve::scan_frame(fed, pos, payload);
    if (scan == serve::FrameScan::kFrame) {
      ++frames;
      EXPECT_EQ(payload, frames == 1 ? a : b);
    } else {
      EXPECT_EQ(scan, serve::FrameScan::kNeedMore);
    }
  }
  EXPECT_EQ(frames, 2);
  EXPECT_EQ(pos, fed.size());

  // Oversized length prefix is corrupt, not a huge allocation.
  std::vector<std::uint8_t> evil(4, 0xFF);
  std::size_t evil_pos = 0;
  EXPECT_EQ(serve::scan_frame(evil, evil_pos, payload), serve::FrameScan::kCorrupt);
  // Zero-length frames are invalid too.
  std::vector<std::uint8_t> zero(4, 0x00);
  std::size_t zero_pos = 0;
  EXPECT_EQ(serve::scan_frame(zero, zero_pos, payload), serve::FrameScan::kCorrupt);
}

}  // namespace
}  // namespace cgps
