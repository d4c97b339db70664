#include "layers.hpp"

#include "exec/runner.hpp"
#include "train/trainer.hpp"
#include "util/metrics.hpp"
#include "util/parallel.hpp"

#include <algorithm>

namespace cgps::perfbench {

void add_end_to_end(Outcome& out, const EndToEnd& e) {
  out.add("setup_s", e.setup_s, "s");
  out.add("throughput_per_s", e.throughput_per_s, "1/s");
  out.add("latency_p50_ms", e.latency_p50_ms, "ms");
  out.add("latency_p99_ms", e.latency_p99_ms, "ms");
  out.add("peak_rss_mb", e.peak_rss_mb, "MiB");
  out.add("adapt_p50_ms", e.adapt_p50_ms, "ms");
  out.add("heldout_mae", e.heldout_mae, "norm_cap");
  out.add("zeroshot_auc", e.zeroshot_auc, "auc");
}

void add_layer_metrics(Outcome& out, const LayerReport& l) {
  out.add("serve.server_ms_p50", l.serve_server_ms_p50, "ms");
  out.add("serve.wire_ms_p50", l.serve_wire_ms_p50, "ms");
  out.add("serve.connect_ms_p50", l.serve_connect_ms_p50, "ms");
  out.add("serve.open_fds_end", l.serve_open_fds_end, "count");
  out.add("serve.threads_end", l.serve_threads_end, "count");
  out.add("serve.batch_size_mean", l.serve_batch_size_mean, "count");
  out.add("serve.cycle_ms_p50", l.serve_cycle_ms_p50, "ms");
  out.add("serve.repeat_share", l.serve_repeat_share, "share");
  out.add("serve.failed", l.serve_failed, "count");
  out.add("graph.extract_us_p50", l.graph_extract_us_p50, "us");
  out.add("graph.subgraph_nodes_mean", l.graph_subgraph_nodes_mean, "count");
  out.add("graph.build_ms", l.graph_build_ms, "ms");
  out.add("gps.assemble_us_per_graph", l.gps_assemble_us_per_graph, "us");
  out.add("exec.predict_us_per_graph", l.exec_predict_us_per_graph, "us");
  out.add("exec.plan_build_ms", l.exec_plan_build_ms, "ms");
  out.add("exec.train_step_ms_p50", l.exec_train_step_ms_p50, "ms");
  out.add("exec.arena_mb", l.exec_arena_mb, "MiB");
  out.add("tensor.optim_step_ms_p50", l.tensor_optim_step_ms_p50, "ms");
  out.add("train.eval_ms_p50", l.train_eval_ms_p50, "ms");
  out.add("train.bundle_save_ms", l.train_bundle_save_ms, "ms");
  out.add("train.bundle_load_ms", l.train_bundle_load_ms, "ms");
  out.add("train.sample_ms", l.train_sample_ms, "ms");
  out.add("layout.place_ms", l.layout_place_ms, "ms");
  out.add("parasitics.extract_ms", l.parasitics_extract_ms, "ms");
  out.add("util.pool_utilization", l.util_pool_utilization, "share");
  out.add("util.pooled_jobs_per_op", l.util_pooled_jobs_per_op, "count");
  out.add("trace.coverage_share", l.trace_coverage_share, "share");
  out.add("trace.residual_ms", l.trace_residual_ms, "ms");
  out.add("trace.overhead_share", l.trace_overhead_share, "share");
}

namespace {

double arena_mib() { return metric_gauge("exec.arena_bytes").value() / (1024.0 * 1024.0); }

// Extract the subgraphs of queries[idx] on the pool, one call per query, as
// ServeCore does for a batch; `us` receives each call's own duration.
std::vector<Subgraph> extract_group(const ReplayInput& in, const std::vector<Query>& queries,
                                    const std::vector<std::size_t>& idx,
                                    std::vector<double>* us) {
  std::vector<Subgraph> out(idx.size());
  std::vector<double> took(idx.size());
  par::parallel_for(0, static_cast<std::int64_t>(idx.size()), 1,
                    [&](std::int64_t b0, std::int64_t b1) {
                      for (std::int64_t i = b0; i < b1; ++i) {
                        const Query& q = queries[idx[static_cast<std::size_t>(i)]];
                        const double t = now_s();
                        out[static_cast<std::size_t>(i)] = extract_enclosing_subgraph(
                            *in.sources[q.design].graph, q.a,
                            q.task == serve::TaskKind::kNodeCap ? -1 : q.b, in.subgraph);
                        took[static_cast<std::size_t>(i)] = (now_s() - t) * 1e6;
                      }
                    });
  if (us != nullptr) us->insert(us->end(), took.begin(), took.end());
  return out;
}

// Consecutive runs of `batch` queries, split by design like
// ServeCore::serve_some (one assembled batch per design).
std::vector<std::vector<std::size_t>> plan_batches(const std::vector<Query>& queries,
                                                   int batch) {
  std::vector<std::vector<std::size_t>> out;
  const std::size_t k = static_cast<std::size_t>(std::max(1, batch));
  for (std::size_t begin = 0; begin < queries.size(); begin += k) {
    const std::size_t end = std::min(queries.size(), begin + k);
    std::vector<std::uint16_t> designs;
    for (std::size_t i = begin; i < end; ++i)
      if (std::find(designs.begin(), designs.end(), queries[i].design) == designs.end())
        designs.push_back(queries[i].design);
    for (const std::uint16_t d : designs) {
      std::vector<std::size_t> group;
      for (std::size_t i = begin; i < end; ++i)
        if (queries[i].design == d) group.push_back(i);
      out.push_back(std::move(group));
    }
  }
  return out;
}

std::vector<const Subgraph*> refs_of(const std::vector<Subgraph>& subgraphs) {
  std::vector<const Subgraph*> refs;
  refs.reserve(subgraphs.size());
  for (const Subgraph& sg : subgraphs) refs.push_back(&sg);
  return refs;
}

}  // namespace

ReplayResult replay_layers(const ReplayInput& in) {
  ReplayResult r;
  CircuitGps& model = *in.model;
  const BatchOptions batch_options = batch_options_for(model.config());
  model.set_training(false);
  const std::vector<std::vector<std::size_t>> infer_groups =
      plan_batches(in.predict_queries, in.predict_batch);

  // Inference path: extraction on the pool, assembly, predict per batch.
  // Returns the queries served; with `record`, fills the inference timings.
  auto infer = [&](std::size_t max_groups, bool record) {
    exec::PlanRunner runner(model);
    double assemble_s = 0, predict_s = 0, infer_s = 0;
    std::int64_t graphs = 0, predicted = 0, nodes = 0, batches = 0;
    bool first = true;
    for (std::size_t g = 0; g < infer_groups.size() && g < max_groups; ++g) {
      const std::vector<std::size_t>& group = infer_groups[g];
      const ReplaySource& src = in.sources[in.predict_queries[group.front()].design];
      const double t0 = now_s();
      const std::vector<Subgraph> subgraphs =
          extract_group(in, in.predict_queries, group, record ? &r.extract_us : nullptr);
      const double t1 = now_s();
      const SubgraphBatch batch =
          make_batch(refs_of(subgraphs), *src.xc, *in.normalizer, batch_options);
      const double t2 = now_s();
      std::int64_t rows = 0;
      {
        InferenceGuard guard;
        runner.predict(batch, &rows);
      }
      const double t3 = now_s();
      for (const Subgraph& sg : subgraphs) nodes += sg.num_nodes();
      graphs += static_cast<std::int64_t>(group.size());
      assemble_s += t2 - t1;
      if (first) {
        if (record) r.plan_build_ms = (t3 - t2) * 1e3;
        first = false;
        continue;
      }
      predict_s += t3 - t2;
      predicted += static_cast<std::int64_t>(group.size());
      infer_s += t3 - t0;
      ++batches;
    }
    if (record) {
      r.subgraph_nodes_mean = graphs > 0 ? static_cast<double>(nodes) / graphs : kUnset;
      r.assemble_us_per_graph = graphs > 0 ? assemble_s * 1e6 / graphs : kUnset;
      r.predict_us_per_graph = predicted > 0 ? predict_s * 1e6 / predicted : kUnset;
      r.infer_ms_per_batch = batches > 0 ? infer_s * 1e3 / static_cast<double>(batches) : kUnset;
      r.arena_mb = arena_mib();
    }
    return graphs;
  };

  infer(infer_groups.size(), /*record=*/true);
  if (in.pool_probe) r.pool = probe_pool([&] { return infer(32, /*record=*/false); });
  if (in.eval_data != nullptr) {
    for (int pass = 0; pass < 5; ++pass) {
      const double t = now_s();
      evaluate_regression(model, *in.normalizer, *in.eval_data, 64);
      r.eval_ms.push_back((now_s() - t) * 1e3);
    }
  }
  return r;
}

}  // namespace cgps::perfbench
