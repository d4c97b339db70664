// Comparison of cgps-bench-v1 reports (bench/common.hpp BenchReport):
// pairwise metric diffs with a percentage tolerance, and a multi-report
// trend mode over a chronological series of git-describe-stamped reports.
// Backs the tools/cgps_bench_diff and tools/cgps_bench_trend CLIs and their
// tests; kept in cgps_util so the logic is unit-testable without spawning
// the binaries.
#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace cgps {

// Per-metric regression direction. Every report declares one per metric in
// its "directions" object; the only undeclared metric, wall_seconds (read
// with --include-wall), is lower-is-better.
enum class MetricDirection {
  kLowerIsBetter,   // losses, errors, latencies — regress when they rise
  kHigherIsBetter,  // quality scores — regress when they drop
  kTwoSided,        // deterministic counts — any move is a regression
};

// "down" / "up" / "both" — the tokens used in the report's "directions"
// object and in rendered tables.
std::string_view metric_direction_token(MetricDirection direction);

// The subset of a cgps-bench-v1 report the differ consumes. `metrics`
// preserves the report's member order so diff tables read like the report.
struct BenchReportView {
  std::string bench;   // report/bench name
  std::string git;     // producing commit ("unknown" outside a checkout)
  std::string source;  // file path or label; trend tables cite it
  std::vector<std::pair<std::string, double>> metrics;
  // Per-metric directions from the "directions" object (one per metric).
  std::vector<std::pair<std::string, MetricDirection>> directions;
  double wall_seconds = 0.0;
};

// Parse + validate a cgps-bench-v1 document. Requires schema ==
// "cgps-bench-v1", a string "bench", an all-numeric "metrics" object, and a
// "directions" object mapping every metric to "down"/"up"/"both". Returns
// nullopt and fills `error` (if given, naming the metric when one has no
// direction) on malformed input.
std::optional<BenchReportView> parse_bench_report(std::string_view text,
                                                  std::string* error = nullptr);

// parse_bench_report over a file's contents; also fails on unreadable paths.
// Fills `source` with the path.
std::optional<BenchReportView> load_bench_report(const std::string& path,
                                                 std::string* error = nullptr);

// The direction the report declares for `name`; lower-is-better for a name
// it does not declare (wall_seconds).
MetricDirection metric_direction(const BenchReportView& report, std::string_view name);

struct BenchDiffOptions {
  // A candidate metric may move this many percent in the bad direction
  // (relative to the baseline value) before it counts as a regression.
  double tolerance_pct = 5.0;
  // wall_seconds is machine noise across hosts; only diff it on request.
  bool include_wall = false;
  // Metrics whose name contains any of these substrings are reported but
  // never gate (status "skipped") — e.g. "--skip seconds" on a shared CI
  // host where timings are noise but quality metrics must hold.
  std::vector<std::string> skip;
};

struct BenchDiffRow {
  std::string metric;
  bool in_baseline = false;
  bool in_candidate = false;
  double baseline = 0.0;
  double candidate = 0.0;
  double delta_pct = 0.0;  // signed, relative to the baseline value
  MetricDirection direction = MetricDirection::kLowerIsBetter;
  // "ok" | "improved" | "REGRESSED" | "new" | "MISSING" | "skipped"
  std::string status;
};

struct BenchDiffResult {
  std::vector<BenchDiffRow> rows;
  int regressions = 0;  // REGRESSED rows + MISSING rows
};

// Diff candidate against baseline. Rows follow the baseline's metric order,
// then candidate-only metrics. A metric present in the baseline but absent
// from the candidate is a regression (MISSING); a candidate-only metric is
// informational (new). Directions resolve from the baseline's metadata
// first, then the candidate's.
BenchDiffResult diff_bench_reports(const BenchReportView& baseline,
                                   const BenchReportView& candidate,
                                   const BenchDiffOptions& options = {});

// Human-readable diff: header lines naming both reports, the row table, and
// a one-line verdict.
std::string render_bench_diff(const BenchReportView& baseline,
                              const BenchReportView& candidate,
                              const BenchDiffResult& result,
                              const BenchDiffOptions& options);

// CLI driver for tools/cgps_bench_diff:
//   cgps_bench_diff <baseline.json> <candidate.json>
//                   [--tolerance-pct N] [--include-wall] [--skip SUBSTR]...
// Appends all output (table or error text) to *out. Returns 0 when no metric
// regressed, 1 on regression, 2 on bad usage or malformed input (a metric
// without a direction included). cgps_bench_trend parses the shared flags
// with the same parser.
int bench_diff_main(int argc, const char* const* argv, std::string& out);

// ---------------------------------------------------------------- trend --

// The diff's options (the tolerance applies newest-vs-oldest), plus the
// window.
struct BenchTrendOptions : BenchDiffOptions {
  // Keep only the newest N reports of the series (0 = all).
  std::size_t last_n = 0;
};

struct BenchTrendRow {
  std::string metric;
  MetricDirection direction = MetricDirection::kLowerIsBetter;
  int present = 0;         // reports of the series carrying this metric
  double first = 0.0;      // oldest value present
  double last = 0.0;       // value in the newest report carrying it
  double min = 0.0;
  double max = 0.0;
  double delta_pct = 0.0;  // first -> last, relative to first
  std::string spark;       // ASCII min..max ramp over the series
  // "ok" | "improved" | "DRIFTED" | "MISSING" | "new" | "skipped"
  std::string status;
};

struct BenchTrendResult {
  std::vector<BenchTrendRow> rows;
  int drifts = 0;           // DRIFTED rows + MISSING rows
  std::size_t reports = 0;  // series length after --last trimming
  std::string bench;
  std::string first_git;
  std::string last_git;
};

// Per-metric drift over a chronological series (oldest first — callers sort
// file paths lexicographically, which the bench/history/ naming convention
// (<seq>-<git>.json) makes chronological). The rows, their order, their
// directions and statuses are diff_bench_reports of the newest report
// against each metric's oldest value in the reports before it, with
// REGRESSED shown as DRIFTED: DRIFTED when newest vs oldest moves past the
// tolerance in its bad direction, MISSING when the metric appeared earlier
// but is absent from the newest report, "new" when only the newest report
// carries it. The newest report's directions win; a metric it lacks keeps
// the direction its own report declared. present/first/last/min/max and the
// spark line come from the whole window.
BenchTrendResult trend_bench_reports(const std::vector<BenchReportView>& series,
                                     const BenchTrendOptions& options = {});

std::string render_bench_trend(const BenchTrendResult& result,
                               const BenchTrendOptions& options);

// CLI driver for tools/cgps_bench_trend:
//   cgps_bench_trend <history-dir | report.json report.json ...>
//                    [--bench NAME] [--last N] [--tolerance-pct N]
//                    [--skip SUBSTR]... [--include-wall]
// A directory argument expands to its *.json entries, sorted by name. All
// reports must agree on the bench name (--bench filters a mixed directory).
// Returns 0 when nothing drifted, 1 on drift, 2 on bad usage, malformed
// input, or fewer than two usable reports.
int bench_trend_main(int argc, const char* const* argv, std::string& out);

}  // namespace cgps
