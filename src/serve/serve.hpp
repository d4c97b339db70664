// Shared vocabulary of the cgps_serve inference service (DESIGN.md §11):
// request/response records, status codes, and the served-design bundle the
// batching core predicts against. The wire encoding of these records lives
// in serve/protocol.hpp; the batching loop in serve/core.hpp.
#pragma once

#include "graph/circuit_graph.hpp"  // kXcDim
#include "graph/hetero_graph.hpp"

#include <array>
#include <cstdint>
#include <string>
#include <vector>

namespace cgps::serve {

// TCP port cgps_serve binds on 127.0.0.1, and cgps_top polls, unless told
// otherwise with --port / --connect.
inline constexpr int kDefaultPort = 9207;

// What a request asks the model for. kInfo and kStats are answered
// synchronously at admission (design discovery / live introspection — they
// never enter the batch queue); the other kinds ride the batching loop.
enum class TaskKind : std::uint8_t {
  kLink = 0,     // P(coupling exists) for (node_a, node_b), sigmoid of the logit
  kEdgeCap = 1,  // normalized coupling capacitance for (node_a, node_b)
  kNodeCap = 2,  // normalized ground capacitance for node_a (node_b ignored)
  kInfo = 3,     // design metadata probe; never enters the queue
  kStats = 4,    // JSON stats snapshot (protocol v2); never enters the queue
};

enum class Status : std::uint8_t {
  kOk = 0,
  kTimeout = 1,     // deadline expired before the batch loop reached it (shed)
  kOverloaded = 2,  // admission queue at capacity (backpressure)
  kBadDesign = 3,   // design index not loaded
  kBadNode = 4,     // node id outside the design's node table
  kShutdown = 5,    // submitted after stop() began
  kError = 6        // malformed frame / internal failure (socket layer)
};

const char* status_name(Status s);
const char* task_kind_name(TaskKind k);

struct Request {
  std::uint64_t id = 0;        // echoed verbatim in the response
  std::uint16_t design = 0;    // index into the server's loaded designs
  TaskKind task = TaskKind::kLink;
  std::int32_t node_a = -1;    // anchor m (graph node id of the design)
  std::int32_t node_b = -1;    // anchor n; ignored for kNodeCap / kInfo
  // Latency budget in microseconds, measured from admission; 0 = server
  // default. Requests still queued past their budget are shed with kTimeout.
  std::int64_t deadline_us = 0;
};

struct Response {
  std::uint64_t id = 0;
  Status status = Status::kOk;
  // kLink: probability in [0,1]. kEdgeCap/kNodeCap: normalized capacitance
  // in [0,1] (the training-target scale). kInfo: node count of the design.
  float value = 0.0f;
  // Denormalized capacitance in farads for the cap tasks (0 otherwise;
  // design count for kInfo).
  double cap_farads = 0.0;
  // Server-side latency: admission -> reply, microseconds.
  std::int64_t server_us = 0;
};

// One design the service answers queries about: the structural graph that
// enclosing subgraphs are extracted from (the link-injected graph, matching
// the training-time SEAL setup) plus the raw X_C feature rows the batch
// assembler normalizes.
struct ServedDesign {
  std::string name;
  HeteroGraph graph;
  std::vector<std::array<float, kXcDim>> xc;  // aligned with graph node ids
};

}  // namespace cgps::serve
