// cgps_serve: batched low-latency inference daemon (DESIGN.md §11).
//
// Loads a model bundle, builds the circuit graphs of the requested designs,
// and serves (design, link) capacitance / link-prediction queries over the
// length-prefixed TCP protocol in src/serve/protocol.hpp. Concurrent
// requests are coalesced into cross-request batches — one fused forward per
// admission-queue drain — without changing any answer (scalar backend is
// bit-identical to solo inference; tests/test_serve.cpp pins this).
//
// Usage:
//   cgps_serve --checkpoint model.cgps [--designs SSRAM,ULTRA8T]
//              [--port N] [--max-batch N] [--queue-cap N] [--deadline-ms N]
//   cgps_serve --demo [--designs ...]
//
// --demo serves a small randomly initialized model (CI smoke / protocol
// debugging without a trained checkpoint). The integer flags default to
// serve::kDefaultPort and serve::ServeOptions{}, and a value out of range
// exits 2. Set CIRCUITGPS_SERVE_ACCESS_LOG / CIRCUITGPS_SERVE_SLOW_MS for the
// per-request access log (see docs/OPERATIONS.md), and poll live stats with
// cgps_top (kStats over the wire).
// SIGINT/SIGTERM drain the admission queue before exiting: every accepted
// request is answered, late submissions are rejected with status `shutdown`.
#include "exec/backend.hpp"
#include "gen/designs.hpp"
#include "graph/circuit_graph.hpp"
#include "netlist/hierarchy.hpp"
#include "serve/core.hpp"
#include "serve/server.hpp"
#include "train/model_io.hpp"
#include "util/env.hpp"
#include "util/logging.hpp"
#include "util/metrics.hpp"
#include "util/strings.hpp"

#include <unistd.h>

#include <atomic>
#include <csignal>
#include <cstring>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#ifndef CGPS_GIT_DESCRIBE
#define CGPS_GIT_DESCRIBE "unknown"
#endif

namespace {

// Signal-safe stop flag: std::atomic<int> is lock-free on every target we
// build for, and the default seq_cst ordering keeps it out of the
// tools/cgps_atomics.txt weak-order manifest.
std::atomic<int> g_stop{0};
static_assert(std::atomic<int>::is_always_lock_free);

void on_signal(int) { g_stop = 1; }

const cgps::serve::ServeOptions kDefaults{};

struct Args {
  std::string checkpoint;
  std::string designs = "TIMING_CONTROL";
  int port = cgps::serve::kDefaultPort;
  int max_batch = kDefaults.max_batch;
  int queue_cap = kDefaults.queue_cap;
  int deadline_ms = static_cast<int>(kDefaults.default_deadline_us / 1000);
  bool demo = false;
  bool help = false;
};

void print_usage() {
  const Args defaults;
  std::cout
      << "usage: cgps_serve --checkpoint PATH [options]\n"
         "       cgps_serve --demo [options]\n"
         "\n"
         "  --checkpoint PATH   model bundle written by save_model_bundle\n"
         "  --demo              serve a small untrained model (no checkpoint)\n"
         "  --designs LIST      comma-separated design names (default TIMING_CONTROL)\n"
         "                      SSRAM ULTRA8T SANDWICH-RAM DIGITAL_CLK_GEN\n"
         "                      TIMING_CONTROL ARRAY_128_32\n"
         "  --port N            TCP port on 127.0.0.1, 0 = ephemeral (default "
      << defaults.port << ")\n"
      << "  --max-batch N       coalesced batch cap (default " << defaults.max_batch << ")\n"
      << "  --queue-cap N       admission queue bound (default " << defaults.queue_cap << ")\n"
      << "  --deadline-ms N     default request deadline (default " << defaults.deadline_ms
      << ")\n";
}

// An integer flag and the range the daemon accepts for it.
struct IntFlag {
  const char* name;
  long long min, max;
  int* value;
};

bool parse_args(int argc, char** argv, Args& args) {
  const IntFlag int_flags[] = {{"--port", 0, 65535, &args.port},
                               {"--max-batch", 1, 4096, &args.max_batch},
                               {"--queue-cap", 1, 1 << 20, &args.queue_cap},
                               {"--deadline-ms", 1, 3600000, &args.deadline_ms}};
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--help" || flag == "-h") {
      args.help = true;
      return true;
    }
    if (flag == "--demo") {
      args.demo = true;
      continue;
    }
    const IntFlag* int_flag = nullptr;
    for (const IntFlag& f : int_flags)
      if (flag == f.name) int_flag = &f;
    if (int_flag == nullptr && flag != "--checkpoint" && flag != "--designs") {
      std::cerr << "cgps_serve: unknown flag " << flag << "\n";
      return false;
    }
    if (i + 1 >= argc) {
      std::cerr << "cgps_serve: " << flag << " needs a value\n";
      return false;
    }
    const char* value = argv[++i];
    if (flag == "--checkpoint") args.checkpoint = value;
    if (flag == "--designs") args.designs = value;
    if (int_flag == nullptr) continue;
    const std::optional<long long> n = cgps::parse_env_int(value);
    if (!n.has_value() || *n < int_flag->min || *n > int_flag->max) {
      std::cerr << "cgps_serve: " << flag << " wants an integer in [" << int_flag->min << ", "
                << int_flag->max << "], got '" << value << "'\n";
      return false;
    }
    *int_flag->value = static_cast<int>(*n);
  }
  return true;
}

bool lookup_design(const std::string& name, cgps::gen::DatasetId& id) {
  for (int i = 0; i <= static_cast<int>(cgps::gen::DatasetId::kArray128x32); ++i) {
    const auto candidate = static_cast<cgps::gen::DatasetId>(i);
    if (name == cgps::gen::dataset_name(candidate)) {
      id = candidate;
      return true;
    }
  }
  return false;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace cgps;
  Args args;
  if (!parse_args(argc, argv, args)) return 2;
  if (args.help) {
    print_usage();
    return 0;
  }
  if (args.checkpoint.empty() && !args.demo) {
    std::cerr << "cgps_serve: need --checkpoint PATH or --demo\n";
    print_usage();
    return 2;
  }

  // Model + normalizer.
  ModelBundle bundle;
  if (args.demo) {
    GpsConfig config;
    config.hidden = 32;
    config.layers = 2;
    config.heads = 4;
    config.seed = 7;
    bundle.model = std::make_unique<CircuitGps>(config);
    log_info("cgps_serve: --demo, serving an untrained model (hidden=32, layers=2)");
  } else {
    try {
      bundle = load_model_bundle_full(args.checkpoint);
    } catch (const std::exception& e) {
      std::cerr << "cgps_serve: cannot load " << args.checkpoint << ": " << e.what()
                << "\n";
      return 1;
    }
  }

  // Served designs: structural circuit graph + raw X_C per design.
  std::vector<serve::ServedDesign> designs;
  for (const std::string& raw : split(args.designs, ',')) {
    gen::DatasetId id;
    if (raw.empty()) continue;
    if (!lookup_design(raw, id)) {
      std::cerr << "cgps_serve: unknown design '" << raw << "'\n";
      return 2;
    }
    const Netlist netlist = flatten(gen::make_design(id));
    CircuitGraph cg = build_circuit_graph(netlist);
    serve::ServedDesign design;
    design.name = raw;
    design.graph = std::move(cg.graph);
    design.xc = std::move(cg.xc);
    log_info("cgps_serve: design ", raw, ": ", design.graph.num_nodes(), " nodes, ",
             design.graph.num_edges(), " edges");
    designs.push_back(std::move(design));
  }
  if (designs.empty()) {
    std::cerr << "cgps_serve: no designs to serve\n";
    return 2;
  }

  // A v1 bundle (or --demo) carries no normalizer: fit over the served
  // designs and warn — feature scaling then differs from training time.
  if (!bundle.normalizer.fitted()) {
    for (const serve::ServedDesign& design : designs) bundle.normalizer.fit(design.xc);
    if (!args.demo)
      log_warn("cgps_serve: bundle has no X_C normalizer; refitting on the served ",
               "designs. Re-save the checkpoint with save_model_bundle(model, path, ",
               "&normalizer) for training-time scaling.");
  }

  serve::ServeOptions options;
  options.max_batch = args.max_batch;
  options.queue_cap = args.queue_cap;
  options.default_deadline_us = static_cast<std::int64_t>(args.deadline_ms) * 1000;
  serve::ServeCore core(*bundle.model, bundle.normalizer, std::move(designs), options);
  // Stamp what the kStats snapshot reports as this daemon's identity.
  serve::ServeIdentity identity;
  identity.checkpoint = args.demo ? "demo" : args.checkpoint;
  identity.build = CGPS_GIT_DESCRIBE;
  core.set_identity(std::move(identity));
  core.start();

  serve::ServeServer server(core, args.port);
  if (!server.start()) return 1;

  std::signal(SIGINT, on_signal);
  std::signal(SIGTERM, on_signal);

  // The line the smoke test greps for; flush so pipes see it immediately.
  std::cout << "cgps_serve listening on 127.0.0.1:" << server.port() << " ("
            << core.num_designs() << " designs, " << exec::select_backend().name()
            << " backend)" << std::endl;

  while (g_stop == 0) pause();

  log_info("cgps_serve: signal received, draining");
  server.stop();  // stop accepting new work first
  core.stop();    // then answer everything already admitted
  std::cout << "cgps_serve drained: " << metric_counter("serve.requests").value()
            << " requests, " << metric_counter("serve.ok").value() << " ok, "
            << metric_counter("serve.timeouts").value() << " timeouts" << std::endl;
  return 0;
}
