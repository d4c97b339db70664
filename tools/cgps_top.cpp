// cgps_top: live terminal dashboard for a running cgps_serve daemon
// (DESIGN.md §11). Polls the kStats task (protocol v2) at an interval and
// renders windowed QPS, shed/reject rates, latency quantiles, queue depth,
// connection counts, and a batch-size distribution sparkline from the
// cgps-serve-stats-v1 snapshot. `--once --json` prints one raw snapshot for
// scripting and CI assertions.
//
// Usage:
//   cgps_top [--connect HOST:PORT] [--interval-ms N] [--count N]
//   cgps_top --once --json        # one snapshot, raw JSON on stdout
//
// Exit codes: 0 ok, 1 connect/fetch/parse failure, 2 usage error.
#include "serve/client.hpp"
#include "util/env.hpp"
#include "util/json_writer.hpp"
#include "util/table.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <optional>
#include <string>
#include <thread>
#include <vector>

namespace {

struct Args {
  std::string host = "127.0.0.1";
  int port = cgps::env_serve_port();
  int interval_ms = 1000;
  std::int64_t count = 0;  // 0 = poll until the connection drops
  bool json = false;
  bool help = false;
};

void print_usage() {
  std::printf(
      "usage: cgps_top [options]\n"
      "\n"
      "  --connect HOST:PORT  daemon to poll (default 127.0.0.1:CIRCUITGPS_SERVE_PORT)\n"
      "  --interval-ms N      poll interval (default 1000)\n"
      "  --count N            stop after N snapshots (default: until killed)\n"
      "  --once               shorthand for --count 1\n"
      "  --json               print raw cgps-serve-stats-v1 JSON instead of the\n"
      "                       dashboard (with --once: one document on stdout)\n");
}

bool parse_args(int argc, char** argv, Args& args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--help" || flag == "-h") {
      args.help = true;
      return true;
    }
    if (flag == "--once") {
      args.count = 1;
      continue;
    }
    if (flag == "--json") {
      args.json = true;
      continue;
    }
    if (i + 1 >= argc) {
      std::fprintf(stderr, "cgps_top: %s needs a value\n", flag.c_str());
      return false;
    }
    const std::string value = argv[++i];
    if (flag == "--connect") {
      const std::size_t colon = value.rfind(':');
      const std::optional<long long> p =
          colon == std::string::npos
              ? std::nullopt
              : cgps::parse_env_int(value.c_str() + colon + 1);
      if (colon == std::string::npos || colon == 0 || !p.has_value() || *p < 1 ||
          *p > 65535) {
        std::fprintf(stderr, "cgps_top: --connect wants HOST:PORT, got '%s'\n",
                     value.c_str());
        return false;
      }
      args.host = value.substr(0, colon);
      args.port = static_cast<int>(*p);
    } else if (flag == "--interval-ms" || flag == "--count") {
      const std::optional<long long> n = cgps::parse_env_int(value.c_str());
      if (!n.has_value() || *n < 1) {
        std::fprintf(stderr, "cgps_top: %s wants a positive integer, got '%s'\n",
                     flag.c_str(), value.c_str());
        return false;
      }
      if (flag == "--interval-ms") args.interval_ms = static_cast<int>(*n);
      if (flag == "--count") args.count = *n;
    } else {
      std::fprintf(stderr, "cgps_top: unknown flag %s\n", flag.c_str());
      return false;
    }
  }
  return true;
}

// Nested lookup helpers over the parsed snapshot. JSON null (the writer's
// encoding of NaN/Inf quantiles) comes back as NaN and renders as "-".
const cgps::JsonValue* walk(const cgps::JsonValue& root,
                            const std::vector<std::string>& path) {
  const cgps::JsonValue* v = &root;
  for (const std::string& key : path) {
    v = v->find(key);
    if (v == nullptr) return nullptr;
  }
  return v;
}

double num_at(const cgps::JsonValue& root, const std::vector<std::string>& path) {
  const cgps::JsonValue* v = walk(root, path);
  if (v == nullptr || v->type != cgps::JsonValue::Type::kNumber)
    return std::numeric_limits<double>::quiet_NaN();
  return v->number;
}

std::string str_at(const cgps::JsonValue& root, const std::vector<std::string>& path) {
  const cgps::JsonValue* v = walk(root, path);
  return v != nullptr && v->type == cgps::JsonValue::Type::kString ? v->string : "?";
}

std::string fmt_num(double v, int decimals) {
  if (!std::isfinite(v)) return "-";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f", decimals, v);
  return buf;
}

std::string fmt_ms(double seconds) {
  return std::isfinite(seconds) ? fmt_num(seconds * 1e3, 2) : "-";
}

std::string fmt_mib(double bytes) {
  return std::isfinite(bytes) ? fmt_num(bytes / (1024.0 * 1024.0), 1) + " MiB" : "-";
}

// One row of the windows table from a "10s"/"60s" block.
std::vector<std::string> window_row(const char* label, const cgps::JsonValue& w) {
  auto pct = [&](const char* key) {
    const double v = num_at(w, {key});
    return std::isfinite(v) ? fmt_num(v * 100.0, 2) : "-";
  };
  return {label,
          fmt_num(num_at(w, {"qps"}), 1),
          fmt_num(num_at(w, {"ok_qps"}), 1),
          pct("shed_rate"),
          pct("reject_rate"),
          fmt_ms(num_at(w, {"p50_s"})),
          fmt_ms(num_at(w, {"p95_s"})),
          fmt_ms(num_at(w, {"p99_s"}))};
}

// Unicode block sparkline of the serve.batch_size bucket counts.
std::string sparkline(const cgps::JsonValue& counts) {
  static const char* kBlocks[] = {" ", "▁", "▂", "▃",
                                  "▄", "▅", "▆", "▇", "█"};
  double max = 0.0;
  for (const cgps::JsonValue& c : counts.array) max = std::max(max, c.number);
  std::string out;
  for (const cgps::JsonValue& c : counts.array) {
    const int level =
        max <= 0.0 ? 0 : static_cast<int>(std::ceil(c.number / max * 8.0));
    out += kBlocks[std::clamp(level, 0, 8)];
  }
  return out;
}

void render(const Args& args, const cgps::JsonValue& s) {
  std::printf("cgps_top — %s:%d   up %ss   build %s   checkpoint %s   "
              "executor %s   proto v%d\n",
              args.host.c_str(), args.port, fmt_num(num_at(s, {"uptime_s"}), 0).c_str(),
              str_at(s, {"build"}).c_str(), str_at(s, {"checkpoint"}).c_str(),
              str_at(s, {"executor"}).c_str(),
              static_cast<int>(num_at(s, {"proto_version"})));

  const cgps::JsonValue* designs = s.find("designs");
  if (designs != nullptr) {
    std::printf("designs:");
    for (const cgps::JsonValue& d : designs->array) {
      std::printf(" %s (%.0f nodes, %.0f edges", str_at(d, {"name"}).c_str(),
                  num_at(d, {"nodes"}), num_at(d, {"edges"}));
      const double resident = num_at(d, {"resident_bytes"});
      if (std::isfinite(resident)) std::printf(", %s", fmt_mib(resident).c_str());
      std::printf(")");
    }
    std::printf("\n");
  }
  const double rss = num_at(s, {"rss_bytes"});
  const double fp32 = num_at(s, {"model_fp32_bytes"});
  if (std::isfinite(rss) || std::isfinite(fp32)) {
    std::printf("memory: rss %s   model fp32 %s\n", fmt_mib(rss).c_str(),
                fmt_mib(fp32).c_str());
  }

  auto counter = [&](const char* name) {
    return num_at(s, {"registry", "counters", name});
  };
  auto gauge = [&](const char* name) { return num_at(s, {"registry", "gauges", name}); };
  std::printf("requests %s   ok %s   timeouts %s   rejected %s   batches %s   "
              "stats probes %s\n",
              fmt_num(counter("serve.requests"), 0).c_str(),
              fmt_num(counter("serve.ok"), 0).c_str(),
              fmt_num(counter("serve.timeouts"), 0).c_str(),
              fmt_num(counter("serve.rejected"), 0).c_str(),
              fmt_num(counter("serve.batches"), 0).c_str(),
              fmt_num(counter("serve.stats_requests"), 0).c_str());
  std::printf("connections %s active / %s lifetime   queue depth %s\n",
              fmt_num(gauge("serve.active_connections"), 0).c_str(),
              fmt_num(counter("serve.connections"), 0).c_str(),
              fmt_num(gauge("serve.queue_depth"), 0).c_str());

  cgps::TextTable table({"window", "qps", "ok qps", "shed %", "reject %", "p50 ms",
                         "p95 ms", "p99 ms"});
  if (const cgps::JsonValue* w10 = walk(s, {"windows", "10s"}))
    table.add_row(window_row("last 10s", *w10));
  if (const cgps::JsonValue* w60 = walk(s, {"windows", "60s"}))
    table.add_row(window_row("last 60s", *w60));
  {
    // Lifetime row from the registry's serve.latency histogram quantiles.
    std::vector<std::string> row = {
        "lifetime",
        "-",
        "-",
        "-",
        "-",
        fmt_ms(num_at(s, {"registry", "histograms", "serve.latency", "p50"})),
        fmt_ms(num_at(s, {"registry", "histograms", "serve.latency", "p95"})),
        fmt_ms(num_at(s, {"registry", "histograms", "serve.latency", "p99"}))};
    table.add_row(row);
  }
  std::printf("%s", table.to_string().c_str());

  if (const cgps::JsonValue* counts =
          walk(s, {"registry", "histograms", "serve.batch_size", "counts"})) {
    const double mean_den =
        num_at(s, {"registry", "histograms", "serve.batch_size", "count"});
    const double mean_num =
        num_at(s, {"registry", "histograms", "serve.batch_size", "sum"});
    std::printf("batch size 1..1024+: %s  (mean %s)\n", sparkline(*counts).c_str(),
                mean_den > 0 ? fmt_num(mean_num / mean_den, 1).c_str() : "-");
  }
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, args)) return 2;
  if (args.help) {
    print_usage();
    return 0;
  }

  cgps::serve::ServeClient client;
  if (!client.connect(args.host, args.port)) return 1;

  const bool interactive = args.count != 1;
  for (std::int64_t polled = 0; args.count == 0 || polled < args.count; ++polled) {
    if (polled > 0)
      std::this_thread::sleep_for(std::chrono::milliseconds(args.interval_ms));
    const std::optional<std::string> snapshot = client.fetch_stats();
    if (!snapshot.has_value()) {
      std::fprintf(stderr, "cgps_top: stats fetch failed (daemon gone?)\n");
      return 1;
    }
    if (args.json) {
      std::printf("%s\n", snapshot->c_str());
      std::fflush(stdout);
      continue;
    }
    std::string error;
    const std::optional<cgps::JsonValue> parsed = cgps::json_parse(*snapshot, &error);
    if (!parsed.has_value()) {
      std::fprintf(stderr, "cgps_top: unparseable stats payload: %s\n", error.c_str());
      return 1;
    }
    if (interactive) std::printf("\x1b[H\x1b[2J");  // home + clear, top-style refresh
    render(args, *parsed);
  }
  return 0;
}
