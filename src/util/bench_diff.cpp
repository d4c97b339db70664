#include "util/bench_diff.hpp"

#include "util/json_writer.hpp"
#include "util/table.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace cgps {

namespace {

// %+.2f without locale surprises; NaN renders as "n/a" (absent side).
std::string fmt_value(double v) {
  if (!std::isfinite(v)) return "n/a";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return std::string(buf);
}

std::string fmt_delta(double pct) {
  if (!std::isfinite(pct)) return "n/a";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%+.2f%%", pct);
  return std::string(buf);
}

bool matches_skip(const std::vector<std::string>& skip, std::string_view name) {
  for (const std::string& token : skip)
    if (!token.empty() && name.find(token) != std::string_view::npos) return true;
  return false;
}

double relative_delta_pct(double from, double to) {
  const double denom = std::max(std::abs(from), 1e-12);
  return (to - from) / denom * 100.0;
}

// Signed size of a move in the metric's bad direction: positive = worse.
double bad_move(MetricDirection direction, double delta_pct) {
  switch (direction) {
    case MetricDirection::kHigherIsBetter:
      return -delta_pct;
    case MetricDirection::kLowerIsBetter:
      return delta_pct;
    case MetricDirection::kTwoSided:
      return std::abs(delta_pct);
  }
  return delta_pct;
}

std::optional<MetricDirection> direction_from_token(std::string_view token) {
  if (token == "down") return MetricDirection::kLowerIsBetter;
  if (token == "up") return MetricDirection::kHigherIsBetter;
  if (token == "both") return MetricDirection::kTwoSided;
  return std::nullopt;
}

using Metrics = std::vector<std::pair<std::string, double>>;

// What a comparison reads of a report: its metrics, then wall_seconds when
// asked for.
Metrics metrics_of(const BenchReportView& report, bool include_wall) {
  Metrics m = report.metrics;
  if (include_wall) m.emplace_back("wall_seconds", report.wall_seconds);
  return m;
}

const double* find_value(const Metrics& metrics, std::string_view name) {
  for (const auto& [metric, value] : metrics)
    if (metric == name) return &value;
  return nullptr;
}

// The flags of both CLIs; --last and --bench only where `last_n` and
// `bench` are given (the trend). False, with the message in `out`, on a bad
// flag or value.
bool parse_flags(int argc, const char* const* argv, BenchDiffOptions& options,
                 std::size_t* last_n, std::string* bench, std::vector<std::string>& positional,
                 std::string& out) {
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const auto value = [&](const char* what) -> const char* {
      if (i + 1 < argc) return argv[++i];
      out += std::string(arg) + " needs " + what + "\n";
      return nullptr;
    };
    if (arg == "--tolerance-pct") {
      const char* v = value("a value");
      if (v == nullptr) return false;
      try {
        options.tolerance_pct = std::stod(v);
      } catch (...) {
        out += "--tolerance-pct: not a number\n";
        return false;
      }
      if (options.tolerance_pct < 0) {
        out += "--tolerance-pct must be >= 0\n";
        return false;
      }
    } else if (arg == "--include-wall") {
      options.include_wall = true;
    } else if (arg == "--skip") {
      const char* v = value("a substring");
      if (v == nullptr) return false;
      options.skip.emplace_back(v);
    } else if (arg == "--last" && last_n != nullptr) {
      const char* v = value("a count");
      if (v == nullptr) return false;
      try {
        const int n = std::stoi(v);
        if (n < 1) throw std::invalid_argument("non-positive");
        *last_n = static_cast<std::size_t>(n);
      } catch (...) {
        out += "--last: want a positive integer\n";
        return false;
      }
    } else if (arg == "--bench" && bench != nullptr) {
      const char* v = value("a name");
      if (v == nullptr) return false;
      *bench = v;
    } else if (!arg.empty() && arg[0] == '-') {
      out += "unknown flag: " + std::string(arg) + "\n";
      return false;
    } else {
      positional.emplace_back(arg);
    }
  }
  return true;
}

}  // namespace

std::string_view metric_direction_token(MetricDirection direction) {
  switch (direction) {
    case MetricDirection::kLowerIsBetter:
      return "down";
    case MetricDirection::kHigherIsBetter:
      return "up";
    case MetricDirection::kTwoSided:
      return "both";
  }
  return "down";
}

std::optional<BenchReportView> parse_bench_report(std::string_view text, std::string* error) {
  std::string parse_error;
  const std::optional<JsonValue> doc = json_parse(text, &parse_error);
  if (!doc) {
    if (error) *error = "JSON parse error: " + parse_error;
    return std::nullopt;
  }
  if (doc->type != JsonValue::Type::kObject) {
    if (error) *error = "report root is not an object";
    return std::nullopt;
  }
  const JsonValue* schema = doc->find("schema");
  if (schema == nullptr || schema->type != JsonValue::Type::kString ||
      schema->string != "cgps-bench-v1") {
    if (error) *error = "missing or unexpected \"schema\" (want \"cgps-bench-v1\")";
    return std::nullopt;
  }
  const JsonValue* bench = doc->find("bench");
  if (bench == nullptr || bench->type != JsonValue::Type::kString || bench->string.empty()) {
    if (error) *error = "missing or non-string \"bench\"";
    return std::nullopt;
  }
  const JsonValue* metrics = doc->find("metrics");
  if (metrics == nullptr || metrics->type != JsonValue::Type::kObject) {
    if (error) *error = "missing or non-object \"metrics\"";
    return std::nullopt;
  }

  BenchReportView view;
  view.bench = bench->string;
  if (const JsonValue* git = doc->find("git");
      git != nullptr && git->type == JsonValue::Type::kString) {
    view.git = git->string;
  }
  for (const auto& [name, value] : metrics->object) {
    if (value.type != JsonValue::Type::kNumber) {
      if (error) *error = "metric \"" + name + "\" is not a number";
      return std::nullopt;
    }
    view.metrics.emplace_back(name, value.number);
  }
  if (const JsonValue* directions = doc->find("directions");
      directions != nullptr && directions->type == JsonValue::Type::kObject) {
    for (const auto& [name, value] : directions->object) {
      if (value.type != JsonValue::Type::kString) {
        if (error) *error = "direction of \"" + name + "\" is not a string";
        return std::nullopt;
      }
      const std::optional<MetricDirection> dir = direction_from_token(value.string);
      if (!dir) {
        if (error)
          *error = "direction of \"" + name + "\" is \"" + value.string +
                   "\" (want \"down\", \"up\", or \"both\")";
        return std::nullopt;
      }
      view.directions.emplace_back(name, *dir);
    }
  }
  for (const auto& [name, value] : view.metrics) {
    if (std::none_of(view.directions.begin(), view.directions.end(),
                     [&name = name](const auto& d) { return d.first == name; })) {
      if (error)
        *error = "metric \"" + name +
                 "\" has no entry in \"directions\" (want \"down\", \"up\", or \"both\")";
      return std::nullopt;
    }
  }
  if (const JsonValue* wall = doc->find("wall_seconds");
      wall != nullptr && wall->type == JsonValue::Type::kNumber) {
    view.wall_seconds = wall->number;
  }
  return view;
}

std::optional<BenchReportView> load_bench_report(const std::string& path, std::string* error) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    if (error) *error = "cannot read " + path;
    return std::nullopt;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  std::string inner;
  std::optional<BenchReportView> view = parse_bench_report(buf.str(), &inner);
  if (!view && error) *error = path + ": " + inner;
  if (view) view->source = path;
  return view;
}

MetricDirection metric_direction(const BenchReportView& report, std::string_view name) {
  for (const auto& [metric, direction] : report.directions)
    if (metric == name) return direction;
  return MetricDirection::kLowerIsBetter;  // wall_seconds, which no report declares
}

BenchDiffResult diff_bench_reports(const BenchReportView& baseline,
                                   const BenchReportView& candidate,
                                   const BenchDiffOptions& options) {
  const Metrics base = metrics_of(baseline, options.include_wall);
  const Metrics cand = metrics_of(candidate, options.include_wall);
  // Baseline metadata wins: the committed baseline is the contract. A metric
  // only the candidate declares (e.g. a newly added one) uses the
  // candidate's.
  auto direction_of = [&](const std::string& name) {
    for (const auto& [metric, direction] : baseline.directions)
      if (metric == name) return direction;
    return metric_direction(candidate, name);
  };

  BenchDiffResult result;
  for (const auto& [name, base_value] : base) {
    BenchDiffRow row;
    row.metric = name;
    row.in_baseline = true;
    row.baseline = base_value;
    row.direction = direction_of(name);
    const bool skipped = matches_skip(options.skip, name);
    if (const double* cand_value = find_value(cand, name)) {
      row.in_candidate = true;
      row.candidate = *cand_value;
      row.delta_pct = relative_delta_pct(row.baseline, row.candidate);
      const double worse = bad_move(row.direction, row.delta_pct);
      if (skipped) {
        row.status = "skipped";
      } else if (worse > options.tolerance_pct) {
        row.status = "REGRESSED";
        ++result.regressions;
      } else if (worse < -options.tolerance_pct) {
        row.status = "improved";
      } else {
        row.status = "ok";
      }
    } else if (skipped) {
      row.status = "skipped";
    } else {
      row.status = "MISSING";  // baseline metric dropped = regression
      ++result.regressions;
    }
    result.rows.push_back(std::move(row));
  }
  for (const auto& [name, cand_value] : cand) {
    if (find_value(base, name) != nullptr) continue;
    BenchDiffRow row;
    row.metric = name;
    row.in_candidate = true;
    row.candidate = cand_value;
    row.direction = direction_of(name);
    row.status = matches_skip(options.skip, name) ? "skipped" : "new";
    result.rows.push_back(std::move(row));
  }
  return result;
}

std::string render_bench_diff(const BenchReportView& baseline,
                              const BenchReportView& candidate,
                              const BenchDiffResult& result,
                              const BenchDiffOptions& options) {
  std::string out;
  out += "bench:     " + baseline.bench;
  if (candidate.bench != baseline.bench) out += " vs " + candidate.bench;
  out += "\n";
  out += "baseline:  git " + (baseline.git.empty() ? "?" : baseline.git) + "\n";
  out += "candidate: git " + (candidate.git.empty() ? "?" : candidate.git) + "\n";

  TextTable table({"metric", "baseline", "candidate", "delta", "dir", "status"});
  for (const BenchDiffRow& row : result.rows) {
    table.add_row({
        row.metric,
        row.in_baseline ? fmt_value(row.baseline) : "n/a",
        row.in_candidate ? fmt_value(row.candidate) : "n/a",
        row.in_baseline && row.in_candidate ? fmt_delta(row.delta_pct) : "n/a",
        std::string(metric_direction_token(row.direction)),
        row.status,
    });
  }
  out += table.to_string();

  char verdict[128];
  std::snprintf(verdict, sizeof(verdict),
                "%d regression(s) at tolerance %.2f%% over %d metric(s)\n",
                result.regressions, options.tolerance_pct,
                static_cast<int>(result.rows.size()));
  out += verdict;
  return out;
}

int bench_diff_main(int argc, const char* const* argv, std::string& out) {
  BenchDiffOptions options;
  std::vector<std::string> paths;
  if (!parse_flags(argc, argv, options, nullptr, nullptr, paths, out)) return 2;
  if (paths.size() != 2) {
    out +=
        "usage: cgps_bench_diff <baseline.json> <candidate.json> "
        "[--tolerance-pct N] [--include-wall] [--skip SUBSTR]...\n";
    return 2;
  }

  std::string error;
  const std::optional<BenchReportView> baseline = load_bench_report(paths[0], &error);
  if (!baseline) {
    out += "baseline: " + error + "\n";
    return 2;
  }
  const std::optional<BenchReportView> candidate = load_bench_report(paths[1], &error);
  if (!candidate) {
    out += "candidate: " + error + "\n";
    return 2;
  }

  const BenchDiffResult result = diff_bench_reports(*baseline, *candidate, options);
  out += render_bench_diff(*baseline, *candidate, result, options);
  return result.regressions > 0 ? 1 : 0;
}

// ---------------------------------------------------------------- trend --

namespace {

// ASCII min..max ramp: one character per report carrying the metric. Dense
// enough to spot a step change at a glance without scraping the numbers.
std::string spark_line(const std::vector<double>& values) {
  static constexpr char kRamp[] = "_.-=+*#@";
  constexpr int kLevels = static_cast<int>(sizeof(kRamp) - 1);
  if (values.empty()) return "";
  const auto [lo_it, hi_it] = std::minmax_element(values.begin(), values.end());
  const double lo = *lo_it, hi = *hi_it;
  std::string out;
  out.reserve(values.size());
  for (const double v : values) {
    const double t = hi > lo ? (v - lo) / (hi - lo) : 0.0;
    const int level = std::clamp(static_cast<int>(t * (kLevels - 1) + 0.5), 0, kLevels - 1);
    out += kRamp[level];
  }
  return out;
}

}  // namespace

BenchTrendResult trend_bench_reports(const std::vector<BenchReportView>& series,
                                     const BenchTrendOptions& options) {
  BenchTrendResult result;
  const std::size_t begin =
      options.last_n > 0 && options.last_n < series.size() ? series.size() - options.last_n : 0;
  result.reports = series.size() - begin;
  if (result.reports == 0) return result;
  result.bench = series[begin].bench;
  result.first_git = series[begin].git;
  result.last_git = series.back().git;

  std::vector<Metrics> window;
  for (std::size_t i = begin; i < series.size(); ++i)
    window.push_back(metrics_of(series[i], options.include_wall));

  // The verdict is the diff of the newest report against each metric's
  // oldest value in the reports before it. wall_seconds is already in
  // `window`, at its first appearance. The candidate carries every
  // direction: the newest report's own first (they win), then each older
  // metric's from the report it came from.
  BenchReportView oldest;
  BenchReportView newest = series.back();
  newest.metrics = window.back();
  for (std::size_t i = 0; i + 1 < window.size(); ++i) {
    for (const auto& [name, value] : window[i]) {
      if (find_value(oldest.metrics, name) != nullptr) continue;
      oldest.metrics.emplace_back(name, value);
      newest.directions.emplace_back(name, metric_direction(series[begin + i], name));
    }
  }
  BenchDiffOptions diff_options = options;
  diff_options.include_wall = false;
  const BenchDiffResult diff = diff_bench_reports(oldest, newest, diff_options);

  result.drifts = diff.regressions;
  for (const BenchDiffRow& verdict : diff.rows) {
    BenchTrendRow row;
    row.metric = verdict.metric;
    row.direction = verdict.direction;
    row.status = verdict.status == "REGRESSED" ? "DRIFTED" : verdict.status;
    std::vector<double> values;
    for (const Metrics& metrics : window)
      if (const double* v = find_value(metrics, row.metric)) values.push_back(*v);
    row.present = static_cast<int>(values.size());
    row.first = values.front();
    row.last = values.back();
    const auto [lo, hi] = std::minmax_element(values.begin(), values.end());
    row.min = *lo;
    row.max = *hi;
    row.delta_pct = relative_delta_pct(row.first, row.last);
    row.spark = spark_line(values);
    result.rows.push_back(std::move(row));
  }
  return result;
}

std::string render_bench_trend(const BenchTrendResult& result,
                               const BenchTrendOptions& options) {
  std::string out;
  out += "bench:   " + result.bench + "\n";
  char span[192];
  std::snprintf(span, sizeof(span), "reports: %d (git %s .. %s)\n",
                static_cast<int>(result.reports),
                result.first_git.empty() ? "?" : result.first_git.c_str(),
                result.last_git.empty() ? "?" : result.last_git.c_str());
  out += span;

  TextTable table({"metric", "dir", "n", "first", "last", "min", "max", "delta", "trend",
                   "status"});
  for (const BenchTrendRow& row : result.rows) {
    table.add_row({
        row.metric,
        std::string(metric_direction_token(row.direction)),
        std::to_string(row.present),
        row.present > 0 ? fmt_value(row.first) : "n/a",
        row.present > 0 ? fmt_value(row.last) : "n/a",
        row.present > 0 ? fmt_value(row.min) : "n/a",
        row.present > 0 ? fmt_value(row.max) : "n/a",
        row.present > 1 ? fmt_delta(row.delta_pct) : "n/a",
        row.spark,
        row.status,
    });
  }
  out += table.to_string();

  char verdict[160];
  std::snprintf(verdict, sizeof(verdict),
                "%d drift(s) at tolerance %.2f%% over %d metric(s), %d report(s)\n",
                result.drifts, options.tolerance_pct, static_cast<int>(result.rows.size()),
                static_cast<int>(result.reports));
  out += verdict;
  return out;
}

int bench_trend_main(int argc, const char* const* argv, std::string& out) {
  BenchTrendOptions options;
  std::string bench_filter;
  std::vector<std::string> inputs;
  if (!parse_flags(argc, argv, options, &options.last_n, &bench_filter, inputs, out)) return 2;
  if (inputs.empty()) {
    out +=
        "usage: cgps_bench_trend <history-dir | report.json...> [--bench NAME] "
        "[--last N] [--tolerance-pct N] [--skip SUBSTR]... [--include-wall]\n";
    return 2;
  }

  // Expand directory arguments to their *.json entries. Lexicographic order
  // is chronological under the bench/history/ <seq>-<git>.json convention.
  std::vector<std::string> paths;
  for (const std::string& input : inputs) {
    std::error_code ec;
    if (std::filesystem::is_directory(input, ec)) {
      std::vector<std::string> entries;
      for (const auto& entry : std::filesystem::directory_iterator(input, ec)) {
        if (entry.is_regular_file() && entry.path().extension() == ".json")
          entries.push_back(entry.path().string());
      }
      if (ec) {
        out += "cannot list " + input + "\n";
        return 2;
      }
      std::sort(entries.begin(), entries.end());
      paths.insert(paths.end(), entries.begin(), entries.end());
    } else {
      paths.push_back(input);
    }
  }

  std::vector<BenchReportView> series;
  for (const std::string& path : paths) {
    std::string error;
    std::optional<BenchReportView> view = load_bench_report(path, &error);
    if (!view) {
      out += error + "\n";
      return 2;
    }
    if (!bench_filter.empty() && view->bench != bench_filter) continue;
    if (!series.empty() && view->bench != series.front().bench) {
      out += "mixed bench names (\"" + series.front().bench + "\" vs \"" + view->bench +
             "\" in " + path + "); pass --bench NAME to select one\n";
      return 2;
    }
    series.push_back(std::move(*view));
  }
  if (series.size() < 2) {
    out += "need at least two reports to trend (got " + std::to_string(series.size()) + ")\n";
    return 2;
  }

  const BenchTrendResult result = trend_bench_reports(series, options);
  out += render_bench_trend(result, options);
  return result.drifts > 0 ? 1 : 0;
}

}  // namespace cgps
