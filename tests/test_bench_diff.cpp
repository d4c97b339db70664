// Tests for the cgps-bench-v1 regression gate (util/bench_diff +
// tools/cgps_bench_diff): report parsing/validation, the diff and its
// declared directions, the rendered table, the trend as a diff, and the CLI
// exit-code contract (0 = clean, 1 = regression, 2 = malformed input or bad
// usage).
#include "util/bench_diff.hpp"

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <gtest/gtest.h>
#include <string>
#include <vector>

namespace cgps {
namespace {

// One metric of a test report and its declared direction token.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string direction;  // "down" | "up" | "both" (or a bad token)
};

std::string report_json(const std::string& bench, const std::vector<Metric>& metrics,
                        double wall_seconds = 1.0) {
  std::string values;
  std::string directions;
  for (const Metric& m : metrics) {
    values += (values.empty() ? "\"" : ",\"") + m.name + "\":" + std::to_string(m.value);
    directions += (directions.empty() ? "\"" : ",\"") + m.name + "\":\"" + m.direction + "\"";
  }
  return "{\"schema\":\"cgps-bench-v1\",\"bench\":\"" + bench +
         "\",\"git\":\"test\",\"metrics\":{" + values + "},\"directions\":{" + directions +
         "},\"wall_seconds\":" + std::to_string(wall_seconds) + "}";
}

std::string write_temp(const std::string& name, const std::string& content) {
  const std::string path = ::testing::TempDir() + name;
  std::ofstream out(path);
  out << content;
  return path;
}

int run_cli(const std::vector<std::string>& args, std::string& out) {
  std::vector<const char*> argv{"cgps_bench_diff"};
  for (const std::string& a : args) argv.push_back(a.c_str());
  return bench_diff_main(static_cast<int>(argv.size()), argv.data(), out);
}

TEST(ParseBenchReport, AcceptsValidReport) {
  const auto view =
      parse_bench_report(report_json("smoke", {{"auc", 0.9, "up"}, {"loss", 0.1, "down"}}, 2.5));
  ASSERT_TRUE(view.has_value());
  EXPECT_EQ(view->bench, "smoke");
  EXPECT_EQ(view->git, "test");
  ASSERT_EQ(view->metrics.size(), 2u);
  EXPECT_EQ(view->metrics[0].first, "auc");
  EXPECT_DOUBLE_EQ(view->metrics[0].second, 0.9);
  EXPECT_DOUBLE_EQ(view->wall_seconds, 2.5);
}

TEST(ParseBenchReport, RejectsMalformedInput) {
  std::string error;
  EXPECT_FALSE(parse_bench_report("not json at all", &error).has_value());
  EXPECT_FALSE(error.empty());
  EXPECT_FALSE(parse_bench_report("[1,2,3]", &error).has_value());
  // Wrong schema tag.
  EXPECT_FALSE(
      parse_bench_report("{\"schema\":\"cgps-train-v1\",\"bench\":\"x\",\"metrics\":{}}", &error)
          .has_value());
  // Missing bench name.
  EXPECT_FALSE(
      parse_bench_report("{\"schema\":\"cgps-bench-v1\",\"metrics\":{}}", &error).has_value());
  // Non-numeric metric value.
  EXPECT_FALSE(parse_bench_report(
                   "{\"schema\":\"cgps-bench-v1\",\"bench\":\"x\",\"metrics\":{\"a\":\"hi\"}}",
                   &error)
                   .has_value());
  EXPECT_NE(error.find("metric"), std::string::npos);
  // A metric without a direction is named.
  EXPECT_FALSE(parse_bench_report("{\"schema\":\"cgps-bench-v1\",\"bench\":\"x\","
                                  "\"metrics\":{\"a\":1,\"b\":2},\"directions\":{\"a\":\"down\"}}",
                                  &error)
                   .has_value());
  EXPECT_NE(error.find("\"b\" has no entry in \"directions\""), std::string::npos) << error;
  EXPECT_FALSE(
      parse_bench_report("{\"schema\":\"cgps-bench-v1\",\"bench\":\"x\",\"metrics\":{\"a\":1}}",
                         &error)
          .has_value());
  EXPECT_NE(error.find("\"a\""), std::string::npos) << error;
}

TEST(DiffBenchReports, WithinToleranceIsClean) {
  const auto a =
      parse_bench_report(report_json("b", {{"auc", 0.90, "up"}, {"mae", 0.100, "down"}}));
  const auto b =
      parse_bench_report(report_json("b", {{"auc", 0.89, "up"}, {"mae", 0.103, "down"}}));
  BenchDiffOptions options;
  options.tolerance_pct = 5.0;
  const BenchDiffResult result = diff_bench_reports(*a, *b, options);
  EXPECT_EQ(result.regressions, 0);
  ASSERT_EQ(result.rows.size(), 2u);
  EXPECT_EQ(result.rows[0].status, "ok");
  EXPECT_EQ(result.rows[1].status, "ok");
}

TEST(DiffBenchReports, FlagsLowerIsBetterRegression) {
  const auto a = parse_bench_report(report_json("b", {{"mae", 0.100, "down"}}));
  const auto b = parse_bench_report(report_json("b", {{"mae", 0.111, "down"}}));
  BenchDiffOptions options;
  options.tolerance_pct = 5.0;
  const BenchDiffResult result = diff_bench_reports(*a, *b, options);
  EXPECT_EQ(result.regressions, 1);
  EXPECT_EQ(result.rows[0].status, "REGRESSED");
  EXPECT_NEAR(result.rows[0].delta_pct, 11.0, 0.2);
}

TEST(DiffBenchReports, FlagsHigherIsBetterRegression) {
  const auto a = parse_bench_report(report_json("b", {{"auc", 0.90, "up"}}));
  const auto b = parse_bench_report(report_json("b", {{"auc", 0.80, "up"}}));
  BenchDiffOptions options;
  options.tolerance_pct = 5.0;
  const BenchDiffResult result = diff_bench_reports(*a, *b, options);
  EXPECT_EQ(result.regressions, 1);
  EXPECT_EQ(result.rows[0].status, "REGRESSED");
  // An *improvement* on a higher-is-better metric is not a regression.
  const BenchDiffResult gain = diff_bench_reports(*b, *a, options);
  EXPECT_EQ(gain.regressions, 0);
  EXPECT_EQ(gain.rows[0].status, "improved");
}

TEST(DiffBenchReports, MissingMetricIsRegressionNewIsNot) {
  const auto a = parse_bench_report(report_json("b", {{"auc", 0.9, "up"}, {"mae", 0.1, "down"}}));
  const auto b =
      parse_bench_report(report_json("b", {{"auc", 0.9, "up"}, {"rmse", 0.2, "down"}}));
  const BenchDiffResult result = diff_bench_reports(*a, *b, {});
  EXPECT_EQ(result.regressions, 1);
  ASSERT_EQ(result.rows.size(), 3u);  // auc, mae (missing), rmse (new)
  EXPECT_EQ(result.rows[1].metric, "mae");
  EXPECT_EQ(result.rows[1].status, "MISSING");
  EXPECT_EQ(result.rows[2].metric, "rmse");
  EXPECT_EQ(result.rows[2].status, "new");
}

TEST(DiffBenchReports, WallClockOnlyOnRequest) {
  const auto a = parse_bench_report(report_json("b", {{"auc", 0.9, "up"}}, 1.0));
  const auto b = parse_bench_report(report_json("b", {{"auc", 0.9, "up"}}, 100.0));
  EXPECT_EQ(diff_bench_reports(*a, *b, {}).rows.size(), 1u);
  BenchDiffOptions with_wall;
  with_wall.include_wall = true;
  const BenchDiffResult result = diff_bench_reports(*a, *b, with_wall);
  ASSERT_EQ(result.rows.size(), 2u);
  EXPECT_EQ(result.rows[1].metric, "wall_seconds");
  EXPECT_EQ(result.rows[1].status, "REGRESSED");
}

TEST(RenderBenchDiff, GoldenTableShape) {
  const auto a =
      parse_bench_report(report_json("smoke", {{"auc", 0.90, "up"}, {"mae", 0.10, "down"}}));
  const auto b =
      parse_bench_report(report_json("smoke", {{"auc", 0.80, "up"}, {"mae", 0.10, "down"}}));
  BenchDiffOptions options;
  options.tolerance_pct = 5.0;
  const BenchDiffResult result = diff_bench_reports(*a, *b, options);
  const std::string text = render_bench_diff(*a, *b, result, options);
  EXPECT_NE(text.find("bench:     smoke"), std::string::npos) << text;
  EXPECT_NE(text.find("metric"), std::string::npos);
  EXPECT_NE(text.find("auc"), std::string::npos);
  EXPECT_NE(text.find("REGRESSED"), std::string::npos);
  EXPECT_NE(text.find("-11.11%"), std::string::npos) << text;
  EXPECT_NE(text.find("1 regression(s) at tolerance 5.00%"), std::string::npos) << text;
}

TEST(BenchDiffMain, ExitCodeContract) {
  const std::string clean = write_temp("bd_clean.json", report_json("b", {{"auc", 0.9, "up"}}));
  const std::string worse = write_temp("bd_worse.json", report_json("b", {{"auc", 0.5, "up"}}));
  const std::string broken = write_temp("bd_broken.json", "{nope");
  const std::string undirected = write_temp(
      "bd_undirected.json",
      "{\"schema\":\"cgps-bench-v1\",\"bench\":\"b\",\"metrics\":{\"auc\":0.9}}");

  std::string out;
  EXPECT_EQ(run_cli({clean, clean}, out), 0);
  EXPECT_NE(out.find("0 regression(s)"), std::string::npos) << out;

  out.clear();
  EXPECT_EQ(run_cli({clean, worse, "--tolerance-pct", "5"}, out), 1);
  EXPECT_NE(out.find("REGRESSED"), std::string::npos) << out;

  out.clear();
  EXPECT_EQ(run_cli({clean, broken}, out), 2);
  EXPECT_NE(out.find("candidate"), std::string::npos) << out;

  out.clear();
  EXPECT_EQ(run_cli({clean, "/nonexistent_cgps/missing.json"}, out), 2);

  out.clear();
  EXPECT_EQ(run_cli({undirected, clean}, out), 2);
  EXPECT_NE(out.find("baseline: " + undirected + ": metric \"auc\" has no entry"),
            std::string::npos)
      << out;

  out.clear();
  EXPECT_EQ(run_cli({clean}, out), 2);  // usage error
  EXPECT_NE(out.find("usage"), std::string::npos) << out;

  out.clear();
  EXPECT_EQ(run_cli({clean, clean, "--tolerance-pct", "abc"}, out), 2);
  out.clear();
  EXPECT_EQ(run_cli({clean, clean, "--bogus-flag"}, out), 2);

  // A generous tolerance turns the regression into a pass.
  out.clear();
  EXPECT_EQ(run_cli({clean, worse, "--tolerance-pct", "60"}, out), 0);

  std::remove(clean.c_str());
  std::remove(worse.c_str());
  std::remove(broken.c_str());
  std::remove(undirected.c_str());
}

// ------------------------------------------------- direction metadata --

TEST(ParseBenchReport, ReadsDirectionsObject) {
  const auto view = parse_bench_report(
      report_json("b", {{"a", 1.0, "down"}, {"b", 2.0, "up"}, {"c", 3.0, "both"}}));
  ASSERT_TRUE(view.has_value());
  EXPECT_EQ(metric_direction(*view, "a"), MetricDirection::kLowerIsBetter);
  EXPECT_EQ(metric_direction(*view, "b"), MetricDirection::kHigherIsBetter);
  EXPECT_EQ(metric_direction(*view, "c"), MetricDirection::kTwoSided);
}

TEST(ParseBenchReport, RejectsBadDirectionTokens) {
  std::string error;
  EXPECT_FALSE(parse_bench_report(report_json("b", {{"a", 1.0, "sideways"}}), &error).has_value());
  EXPECT_NE(error.find("direction"), std::string::npos) << error;
  // Non-string direction value.
  EXPECT_FALSE(parse_bench_report("{\"schema\":\"cgps-bench-v1\",\"bench\":\"b\","
                                  "\"metrics\":{\"a\":1},\"directions\":{\"a\":3}}",
                                  &error)
                   .has_value());
}

TEST(DiffBenchReports, ExplicitDirectionOverridesNameHeuristic) {
  // "auc" reads like a quality score, but its declared "down" decides, so a
  // *rise* is the regression.
  const auto a = parse_bench_report(report_json("b", {{"auc", 0.50, "down"}}));
  const auto b = parse_bench_report(report_json("b", {{"auc", 0.60, "down"}}));
  BenchDiffOptions options;
  options.tolerance_pct = 5.0;
  EXPECT_EQ(diff_bench_reports(*a, *b, options).rows[0].status, "REGRESSED");
  EXPECT_EQ(diff_bench_reports(*b, *a, options).rows[0].status, "improved");
}

TEST(DiffBenchReports, TwoSidedRegressesOnAnyMove) {
  const auto base = parse_bench_report(report_json("b", {{"runs", 10.0, "both"}}));
  const auto up = parse_bench_report(report_json("b", {{"runs", 12.0, "both"}}));
  const auto down = parse_bench_report(report_json("b", {{"runs", 8.0, "both"}}));
  BenchDiffOptions options;
  options.tolerance_pct = 5.0;
  EXPECT_EQ(diff_bench_reports(*base, *up, options).regressions, 1);
  EXPECT_EQ(diff_bench_reports(*base, *down, options).regressions, 1);
  EXPECT_EQ(diff_bench_reports(*base, *base, options).regressions, 0);
}

TEST(DiffBenchReports, SkipSubstringNeverGates) {
  const auto a =
      parse_bench_report(report_json("b", {{"auc", 0.9, "up"}, {"build_seconds", 1.0, "down"}}));
  const auto b =
      parse_bench_report(report_json("b", {{"auc", 0.9, "up"}, {"build_seconds", 9.0, "down"}}));
  BenchDiffOptions options;
  options.tolerance_pct = 5.0;
  options.skip = {"seconds"};
  const BenchDiffResult result = diff_bench_reports(*a, *b, options);
  EXPECT_EQ(result.regressions, 0);
  ASSERT_EQ(result.rows.size(), 2u);
  EXPECT_EQ(result.rows[1].metric, "build_seconds");
  EXPECT_EQ(result.rows[1].status, "skipped");
  // A skipped metric that disappears is not a MISSING regression either.
  const auto gone = parse_bench_report(report_json("b", {{"auc", 0.9, "up"}}));
  EXPECT_EQ(diff_bench_reports(*a, *gone, options).regressions, 0);
}

// ------------------------------------------------------------- trend --

BenchReportView make_view(const std::string& git, const std::vector<Metric>& metrics,
                          double wall_seconds = 1.0) {
  std::optional<BenchReportView> v =
      parse_bench_report(report_json("trendy", metrics, wall_seconds));
  EXPECT_TRUE(v.has_value());
  v->git = git;
  v->source = git + ".json";
  return *v;
}

TEST(TrendBenchReports, FlatSeriesIsClean) {
  const std::vector<BenchReportView> series{
      make_view("r1", {{"auc", 0.9, "up"}, {"mae", 0.1, "down"}}),
      make_view("r2", {{"auc", 0.9, "up"}, {"mae", 0.1, "down"}}),
      make_view("r3", {{"auc", 0.9, "up"}, {"mae", 0.1, "down"}}),
  };
  const BenchTrendResult result = trend_bench_reports(series);
  EXPECT_EQ(result.drifts, 0);
  EXPECT_EQ(result.reports, 3u);
  EXPECT_EQ(result.bench, "trendy");
  EXPECT_EQ(result.first_git, "r1");
  EXPECT_EQ(result.last_git, "r3");
  ASSERT_EQ(result.rows.size(), 2u);
  EXPECT_EQ(result.rows[0].status, "ok");
  EXPECT_EQ(result.rows[0].present, 3);
  EXPECT_EQ(result.rows[0].spark.size(), 3u);
}

TEST(TrendBenchReports, DriftAndImprovementFollowDirection) {
  const std::vector<BenchReportView> series{
      make_view("r1", {{"auc", 0.90, "up"}, {"mae", 0.100, "down"}}),
      make_view("r2", {{"auc", 0.85, "up"}, {"mae", 0.097, "down"}}),
      make_view("r3", {{"auc", 0.80, "up"}, {"mae", 0.094, "down"}}),
  };
  BenchTrendOptions options;
  options.tolerance_pct = 5.0;
  const BenchTrendResult result = trend_bench_reports(series, options);
  EXPECT_EQ(result.drifts, 1);
  ASSERT_EQ(result.rows.size(), 2u);
  EXPECT_EQ(result.rows[0].metric, "auc");
  EXPECT_EQ(result.rows[0].status, "DRIFTED");
  EXPECT_NEAR(result.rows[0].delta_pct, -11.1, 0.1);
  EXPECT_EQ(result.rows[1].metric, "mae");
  EXPECT_EQ(result.rows[1].status, "improved");
}

TEST(TrendBenchReports, MissingAndNewStatuses) {
  const std::vector<BenchReportView> series{
      make_view("r1", {{"old_metric", 1.0, "down"}, {"auc", 0.9, "up"}}),
      make_view("r2", {{"auc", 0.9, "up"}, {"fresh_metric", 2.0, "down"}}),
  };
  const BenchTrendResult result = trend_bench_reports(series);
  ASSERT_EQ(result.rows.size(), 3u);
  EXPECT_EQ(result.rows[0].metric, "old_metric");
  EXPECT_EQ(result.rows[0].status, "MISSING");
  EXPECT_EQ(result.rows[1].status, "ok");
  EXPECT_EQ(result.rows[2].metric, "fresh_metric");
  EXPECT_EQ(result.rows[2].status, "new");
  EXPECT_EQ(result.drifts, 1);  // the MISSING row
}

TEST(TrendBenchReports, LastNTrimsOldReports) {
  const std::vector<BenchReportView> series{
      make_view("r1", {{"mae", 10.0, "down"}}),  // would drift vs the newest
      make_view("r2", {{"mae", 0.1, "down"}}),
      make_view("r3", {{"mae", 0.1, "down"}}),
  };
  BenchTrendOptions options;
  options.last_n = 2;
  const BenchTrendResult result = trend_bench_reports(series, options);
  EXPECT_EQ(result.reports, 2u);
  EXPECT_EQ(result.first_git, "r2");
  EXPECT_EQ(result.drifts, 0);
  EXPECT_EQ(result.rows[0].status, "ok");
}

// The newest report's direction wins; a metric it dropped keeps the
// direction its own report declared.
TEST(TrendBenchReports, DirectionsComeFromTheReports) {
  const std::vector<BenchReportView> series{
      make_view("r1", {{"flipped", 1.0, "down"}, {"dropped", 1.0, "up"}}),
      make_view("r2", {{"flipped", 2.0, "up"}}),
  };
  const BenchTrendResult result = trend_bench_reports(series);
  ASSERT_EQ(result.rows.size(), 2u);
  EXPECT_EQ(result.rows[0].direction, MetricDirection::kHigherIsBetter);
  EXPECT_EQ(result.rows[0].status, "improved");
  EXPECT_EQ(result.rows[1].metric, "dropped");
  EXPECT_EQ(result.rows[1].direction, MetricDirection::kHigherIsBetter);
  EXPECT_EQ(result.rows[1].status, "MISSING");
}

// With --include-wall, wall_seconds is a metric of every report: its row
// follows the oldest report's metrics, ahead of a metric added later.
TEST(TrendBenchReports, WallSecondsRowKeepsItsFirstAppearance) {
  const std::vector<BenchReportView> series{
      make_view("r1", {{"mae", 0.1, "down"}}, 1.0),
      make_view("r2", {{"mae", 0.1, "down"}, {"added", 1.0, "down"}}, 1.0),
      make_view("r3", {{"mae", 0.1, "down"}, {"added", 1.0, "down"}}, 2.0),
  };
  BenchTrendOptions options;
  options.include_wall = true;
  const BenchTrendResult result = trend_bench_reports(series, options);
  ASSERT_EQ(result.rows.size(), 3u);
  EXPECT_EQ(result.rows[1].metric, "wall_seconds");
  EXPECT_EQ(result.rows[1].direction, MetricDirection::kLowerIsBetter);
  EXPECT_EQ(result.rows[1].status, "DRIFTED");
  EXPECT_EQ(result.rows[2].metric, "added");
  EXPECT_EQ(result.rows[2].present, 2);
  EXPECT_EQ(result.rows[2].status, "ok");
}

TEST(TrendBenchReports, SkipSubstringNeverDrifts) {
  const std::vector<BenchReportView> series{
      make_view("r1", {{"build_seconds", 1.0, "down"}}),
      make_view("r2", {{"build_seconds", 50.0, "down"}}),
  };
  BenchTrendOptions options;
  options.skip = {"seconds"};
  const BenchTrendResult result = trend_bench_reports(series, options);
  EXPECT_EQ(result.drifts, 0);
  EXPECT_EQ(result.rows[0].status, "skipped");
}

int run_trend_cli(const std::vector<std::string>& args, std::string& out) {
  std::vector<const char*> argv{"cgps_bench_trend"};
  for (const std::string& a : args) argv.push_back(a.c_str());
  return bench_trend_main(static_cast<int>(argv.size()), argv.data(), out);
}

TEST(BenchTrendMain, ExitCodeContract) {
  const std::string r1 = write_temp("bt_0001.json", report_json("b", {{"auc", 0.90, "up"}}));
  const std::string r2 = write_temp("bt_0002.json", report_json("b", {{"auc", 0.90, "up"}}));
  const std::string r3 = write_temp("bt_0003.json", report_json("b", {{"auc", 0.70, "up"}}));

  std::string out;
  EXPECT_EQ(run_trend_cli({r1, r2}, out), 0);
  EXPECT_NE(out.find("0 drift(s)"), std::string::npos) << out;

  out.clear();
  EXPECT_EQ(run_trend_cli({r1, r2, r3, "--tolerance-pct", "5"}, out), 1);
  EXPECT_NE(out.find("DRIFTED"), std::string::npos) << out;

  out.clear();
  EXPECT_EQ(run_trend_cli({r1}, out), 2);  // need >= 2 reports
  out.clear();
  EXPECT_EQ(run_trend_cli({}, out), 2);  // usage
  EXPECT_NE(out.find("usage"), std::string::npos) << out;

  // --last trims the drifting oldest report away.
  out.clear();
  EXPECT_EQ(run_trend_cli({r3, r1, r2, "--last", "2"}, out), 0);

  // Mixed bench names are an input error unless --bench filters.
  const std::string other =
      write_temp("bt_other.json", report_json("other", {{"auc", 0.9, "up"}}));
  out.clear();
  EXPECT_EQ(run_trend_cli({r1, r2, other}, out), 2);
  out.clear();
  EXPECT_EQ(run_trend_cli({r1, r2, other, "--bench", "b"}, out), 0);

  std::remove(r1.c_str());
  std::remove(r2.c_str());
  std::remove(r3.c_str());
  std::remove(other.c_str());
}

// A trend of two reports is their diff: the same rows in the same order,
// the same statuses (REGRESSED reads DRIFTED) and the same exit code.
TEST(BenchTrendMain, TwoReportTrendIsTheDiff) {
  const std::string base = write_temp(
      "bt_diff_base.json",
      report_json("b", {{"steady", 1.0, "down"}, {"better", 1.0, "down"}, {"worse", 1.0, "up"},
                        {"gone", 1.0, "down"}, {"build_seconds", 1.0, "down"}}));
  const std::string cand = write_temp(
      "bt_diff_cand.json",
      report_json("b", {{"steady", 1.01, "down"}, {"better", 0.5, "down"}, {"worse", 0.5, "up"},
                        {"build_seconds", 9.0, "down"}, {"fresh", 2.0, "up"}}));
  for (const std::vector<std::string>& flags :
       {std::vector<std::string>{"--skip", "seconds"},
        std::vector<std::string>{"--tolerance-pct", "60", "--skip", "seconds"},
        std::vector<std::string>{"--include-wall"}}) {
    std::vector<std::string> args{base, cand};
    args.insert(args.end(), flags.begin(), flags.end());
    std::string diff_out;
    std::string trend_out;
    EXPECT_EQ(run_trend_cli(args, trend_out), run_cli(args, diff_out)) << trend_out << diff_out;
  }

  std::string error;
  const auto a = load_bench_report(base, &error);
  const auto b = load_bench_report(cand, &error);
  ASSERT_TRUE(a && b) << error;
  BenchDiffOptions diff_options;
  diff_options.skip = {"seconds"};
  BenchTrendOptions trend_options;
  trend_options.skip = {"seconds"};
  const BenchDiffResult diff = diff_bench_reports(*a, *b, diff_options);
  const BenchTrendResult trend = trend_bench_reports({*a, *b}, trend_options);
  EXPECT_EQ(trend.drifts, diff.regressions);
  ASSERT_EQ(trend.rows.size(), diff.rows.size());
  std::vector<std::string> statuses;
  for (std::size_t i = 0; i < diff.rows.size(); ++i) {
    EXPECT_EQ(trend.rows[i].metric, diff.rows[i].metric);
    EXPECT_EQ(trend.rows[i].direction, diff.rows[i].direction) << diff.rows[i].metric;
    EXPECT_EQ(trend.rows[i].status,
              diff.rows[i].status == "REGRESSED" ? "DRIFTED" : diff.rows[i].status);
    statuses.push_back(diff.rows[i].status);
  }
  EXPECT_EQ(statuses, (std::vector<std::string>{"ok", "improved", "REGRESSED", "MISSING",
                                                 "skipped", "new"}));
  std::remove(base.c_str());
  std::remove(cand.c_str());
}

TEST(BenchTrendMain, DirectoryExpandsSortedJson) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::path(::testing::TempDir()) / "cgps_trend_dir";
  fs::remove_all(dir);
  fs::create_directories(dir);
  // Written out of order; lexicographic sort must restore chronology.
  std::ofstream(dir / "0002-bbb.json") << report_json("b", {{"mae", 0.2, "down"}});
  std::ofstream(dir / "0001-aaa.json") << report_json("b", {{"mae", 0.1, "down"}});
  std::ofstream(dir / "0003-ccc.json") << report_json("b", {{"mae", 0.1, "down"}});
  std::ofstream(dir / "notes.txt") << "not a report";  // ignored

  std::string out;
  EXPECT_EQ(run_trend_cli({dir.string()}, out), 0) << out;
  EXPECT_NE(out.find("reports: 3"), std::string::npos) << out;

  fs::remove_all(dir);
}

}  // namespace
}  // namespace cgps
