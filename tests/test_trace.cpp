// Tests for the hierarchical tracing layer (util/trace, DESIGN.md §8):
// span nesting, registry histogram feeding, thread-safety under the work
// pool, cgps-trace-v1 stream coverage of the training hot paths, and the
// contract that tracing never changes training results.
#include "train/trainer.hpp"
#include "util/json_writer.hpp"
#include "util/metrics.hpp"
#include "util/parallel.hpp"
#include "util/trace.hpp"

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <gtest/gtest.h>
#include <map>
#include <set>
#include <string>
#include <vector>

namespace cgps {
namespace {

CircuitDataset& small_dataset() {
  static CircuitDataset ds = [] {
    DatasetOptions options;
    options.seed = 5;
    return build_dataset(gen::DatasetId::kTimingControl, options);
  }();
  return ds;
}

GpsConfig tiny_config() {
  GpsConfig c;
  c.hidden = 16;
  c.layers = 2;
  c.heads = 2;
  c.performer_features = 8;
  c.head_hidden = 16;
  c.dropout = 0.0f;
  c.attn = AttnKind::kNone;
  return c;
}

class TraceEnv {
 public:
  explicit TraceEnv(const std::string& path) : path_(path) {
    std::remove(path_.c_str());
    ::setenv("CIRCUITGPS_TRACE", path_.c_str(), 1);
  }
  ~TraceEnv() {
    ::unsetenv("CIRCUITGPS_TRACE");
    std::remove(path_.c_str());
  }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

std::vector<JsonValue> read_events(const std::string& path) {
  std::vector<JsonValue> events;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    std::string error;
    const auto v = json_parse(line, &error);
    EXPECT_TRUE(v.has_value()) << error << " in: " << line;
    if (v.has_value()) events.push_back(*v);
  }
  return events;
}

TEST(TraceSpanTest, NestsOnThreadLocalStack) {
  ::unsetenv("CIRCUITGPS_TRACE");
  EXPECT_EQ(trace::depth(), 0);
  EXPECT_EQ(trace::current_span(), "");
  {
    const TraceSpan outer("test.outer");
    EXPECT_EQ(trace::depth(), 1);
    EXPECT_EQ(trace::current_span(), "test.outer");
    {
      const TraceSpan inner("test.inner");
      EXPECT_EQ(trace::depth(), 2);
      EXPECT_EQ(trace::current_span(), "test.inner");
    }
    EXPECT_EQ(trace::depth(), 1);
    EXPECT_EQ(trace::current_span(), "test.outer");
  }
  EXPECT_EQ(trace::depth(), 0);
}

TEST(TraceSpanTest, FeedsLatencyHistogramEvenWhenStreamingOff) {
  ::unsetenv("CIRCUITGPS_TRACE");
  const std::int64_t before = trace::latency_histogram("test.hist_feed").snapshot().count;
  {
    const TraceSpan span("test.hist_feed");
  }
  const Histogram::Snapshot snap = trace::latency_histogram("test.hist_feed").snapshot();
  EXPECT_EQ(snap.count, before + 1);
  EXPECT_GE(snap.sum, 0.0);
}

TEST(TraceSpanTest, ThreadSafeUnderWorkPool) {
  const TraceEnv env(::testing::TempDir() + "cgps_trace_pool.jsonl");
  par::set_threads(4);
  par::parallel_for(0, 64, 1, [](std::int64_t b, std::int64_t e) {
    for (std::int64_t i = b; i < e; ++i) {
      const TraceSpan outer("test.pool.outer");
      const TraceSpan inner("test.pool.inner");
      EXPECT_GE(trace::depth(), 2);
    }
  });
  par::set_threads(0);

  std::int64_t begins = 0, ends = 0;
  for (const JsonValue& ev : read_events(env.path())) {
    ASSERT_TRUE(ev.has("ph"));
    const std::string& ph = ev.find("ph")->string;
    if (ph == "B") ++begins;
    if (ph == "E") ++ends;
  }
  EXPECT_EQ(begins, ends);
  EXPECT_EQ(begins, 2 * 64);
}

TEST(TraceTest, RunIdLooksLikeTimestampPid) {
  const std::string a = trace::make_run_id();
  EXPECT_FALSE(a.empty());
  EXPECT_NE(a.find('-'), std::string::npos);
  for (const char c : a) {
    EXPECT_TRUE((c >= '0' && c <= '9') || (c >= 'a' && c <= 'f') || c == '-') << a;
  }
}

TEST(TraceStreamTest, CoversTrainingHotPaths) {
  const TraceEnv env(::testing::TempDir() + "cgps_trace_train.jsonl");

  Rng rng(6);
  const TaskData train = TaskData::for_links(small_dataset(), {}, 48, rng);
  const TaskData* tasks[] = {&train};
  const XcNormalizer norm = fit_normalizer(tasks);
  TrainOptions options;
  options.epochs = 2;
  options.batch_size = 16;
  CircuitGps model(tiny_config());
  train_link_prediction(model, norm, tasks, options);

  const std::vector<JsonValue> events = read_events(env.path());
  ASSERT_FALSE(events.empty());
  // First record is the metadata header tagging the schema.
  EXPECT_EQ(events.front().find("schema")->string, "cgps-trace-v1");
  ASSERT_TRUE(events.front().has("run_id"));

  std::set<std::string> names;
  std::map<std::string, std::int64_t> balance;  // B minus E per name
  for (const JsonValue& ev : events) {
    if (!ev.has("name") || !ev.has("ph")) continue;
    const std::string& ph = ev.find("ph")->string;
    if (ph == "M") continue;
    const std::string& name = ev.find("name")->string;
    names.insert(name);
    ASSERT_TRUE(ev.has("ts"));
    ASSERT_TRUE(ev.has("pid"));
    ASSERT_TRUE(ev.has("tid"));
    if (ph == "B") ++balance[name];
    if (ph == "E") --balance[name];
    if (ph == "X") {
      EXPECT_TRUE(ev.has("dur")) << name;
    }
  }
  // Acceptance: sampling, batch assembly, and the model hot path all appear.
  // The planned executor runs the whole model as one compiled plan and
  // emits exec.* spans for it.
  const char* required[] = {"sampling.for_links", "sampling.extract", "sampling.dspd",
                            "batch.assemble",     "train.epoch",      "train.forward",
                            "train.backward",     "exec.plan_build",  "exec.run_fwd",
                            "exec.run_bwd"};
  for (const char* span : required) {
    EXPECT_TRUE(names.count(span)) << "span missing from stream: " << span;
  }
  for (const auto& [name, b] : balance) EXPECT_EQ(b, 0) << "unbalanced B/E for " << name;
}

TEST(TraceStreamTest, TracingDoesNotChangeTraining) {
  Rng rng(7);
  const TaskData train = TaskData::for_links(small_dataset(), {}, 48, rng);
  const TaskData* tasks[] = {&train};
  const XcNormalizer norm = fit_normalizer(tasks);
  TrainOptions options;
  options.epochs = 2;
  options.batch_size = 16;

  ::unsetenv("CIRCUITGPS_TRACE");
  CircuitGps plain(tiny_config());
  train_link_prediction(plain, norm, tasks, options);

  std::vector<float> traced_params;
  {
    const TraceEnv env(::testing::TempDir() + "cgps_trace_identical.jsonl");
    CircuitGps traced(tiny_config());
    train_link_prediction(traced, norm, tasks, options);
    for (const auto& [name, p] : traced.named_parameters())
      traced_params.insert(traced_params.end(), p.data().begin(), p.data().end());
  }

  std::vector<float> plain_params;
  for (const auto& [name, p] : plain.named_parameters())
    plain_params.insert(plain_params.end(), p.data().begin(), p.data().end());
  ASSERT_EQ(plain_params.size(), traced_params.size());
  for (std::size_t i = 0; i < plain_params.size(); ++i)
    ASSERT_EQ(plain_params[i], traced_params[i]) << "parameter " << i << " diverged";
}

}  // namespace
}  // namespace cgps
