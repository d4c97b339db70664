// train_fewshot: the paper's few-shot flow in process (PAPER §III-E).
//
//   set-up       timed, repeated before and after the timed phase (which
//                starts from the last set-up before it): build the SSRAM
//                training dataset at bench scale and the held-out
//                DIGITAL_CLK_GEN / TIMING_CONTROL datasets, sample the task
//                data, fit the X_C normalizer and compile the training plan
//                once
//   timed phase  rounds of: continue pre-training link prediction (batch 24),
//                then one k-shot adaptation per shot count on TIMING_CONTROL
//                (copy_state, reset_head, fine-tune at batch 8, held-out MAE,
//                save_model_bundle); then the zero-shot AUC of the
//                pre-trained meta-learner on DIGITAL_CLK_GEN
//   checks       finite losses, a zero-shot AUC above chance, sane MAEs, and
//                reloaded bundles that reproduce their adaptation's MAE
//
// Epoch timings, and the traced run's per-step layer times, come from the
// trainer's own run log (read_run_log), so the timed phase calls the
// training entry points unmodified.
#include "harness.hpp"
#include "layers.hpp"
#include "workloads.hpp"

#include "exec/runner.hpp"
#include "nn/module.hpp"
#include "train/model_io.hpp"
#include "train/trainer.hpp"
#include "util/metrics.hpp"
#include "util/rng.hpp"

#include <malloc.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <stdexcept>
#include <string>

namespace cgps::perfbench {
namespace {

// Timed set-ups per run, half before the timed phase and half after it, so
// the median spans the run instead of one stretch of the host's load.
constexpr int kSetupReps = 10;
constexpr double kTrainScale = 0.5;  // bench-scale training designs
constexpr std::int64_t kPretrainSamples = 720;
constexpr std::int64_t kZeroShotSamples = 600;
constexpr std::int64_t kPoolSamples = 512;
constexpr std::size_t kShotRegion = 192;  // shots come from pool[0, 192); the rest is held out
// An odd number of shot counts puts the median adaptation inside the k = 16
// group instead of on the boundary between two groups.
constexpr int kShots[] = {4, 8, 16, 32, 64};
constexpr std::size_t kShotKinds = sizeof(kShots) / sizeof(kShots[0]);
constexpr int kFinetuneEpochs = 20;
// Work per second of --seconds (see serve_workloads.cpp): pre-training and
// the adaptation sweep take about half of the timed phase each, which at
// 35 s leaves 1000 fine-tune epochs, enough for a p99 with 10 beyond it.
constexpr double kPretrainEpochsPerSecond = 1.1;
constexpr double kAdaptationsPerSecond = 1.43;
constexpr std::size_t kRoundTrips = 4;  // adaptations whose bundle is reloaded and re-scored
constexpr double kMinZeroShotAuc = 0.55;

TaskData take(const TaskData& source, std::size_t begin, std::size_t end) {
  TaskData out;
  out.graph = source.graph;
  for (std::size_t i = begin; i < end && i < source.subgraphs.size(); ++i) {
    out.subgraphs.push_back(source.subgraphs[i]);
    out.targets.push_back(source.targets[i]);
    if (!source.labels.empty()) out.labels.push_back(source.labels[i]);
  }
  return out;
}

// Everything the timed phase starts from. Task data points into the
// datasets, so both live here together.
struct FewShot {
  std::unique_ptr<CircuitDataset> train_ds, zeroshot_ds, fewshot_ds;
  TaskData pretrain, zeroshot, pool, heldout;
  XcNormalizer normalizer;
  std::unique_ptr<CircuitGps> meta;
  double sample_ms = 0;
};

DatasetOptions dataset_options(std::uint64_t seed, gen::DatasetId id) {
  DatasetOptions options;
  options.seed = derive_seed(seed, 200 + static_cast<std::uint64_t>(id));
  options.design_scale.train_scale = kTrainScale;
  return options;
}

std::unique_ptr<FewShot> set_up(std::uint64_t seed) {
  auto f = std::make_unique<FewShot>();
  using gen::DatasetId;
  f->train_ds = std::make_unique<CircuitDataset>(
      build_dataset(DatasetId::kSsram, dataset_options(seed, DatasetId::kSsram)));
  f->zeroshot_ds = std::make_unique<CircuitDataset>(
      build_dataset(DatasetId::kDigitalClkGen, dataset_options(seed, DatasetId::kDigitalClkGen)));
  f->fewshot_ds = std::make_unique<CircuitDataset>(
      build_dataset(DatasetId::kTimingControl, dataset_options(seed, DatasetId::kTimingControl)));
  const double t = now_s();
  Rng rng(derive_seed(seed, 3));
  const SubgraphOptions sg = train_subgraph_options();
  f->pretrain = TaskData::for_links(*f->train_ds, sg, kPretrainSamples, rng);
  f->zeroshot = TaskData::for_links(*f->zeroshot_ds, sg, kZeroShotSamples, rng);
  f->pool = TaskData::for_edge_regression(*f->fewshot_ds, sg, kPoolSamples, rng);
  f->sample_ms = (now_s() - t) * 1e3;
  f->heldout = take(f->pool, kShotRegion, f->pool.subgraphs.size());
  const TaskData* pre[] = {&f->pretrain};
  f->normalizer = fit_normalizer(pre);
  f->meta = std::make_unique<CircuitGps>(table2_config());

  // Ready to train: the training plan compiles on a scratch copy, so the
  // meta-learner's weights and dropout stream stay untouched.
  CircuitGps scratch(table2_config());
  nn::copy_state(*f->meta, scratch);
  scratch.set_training(true);
  exec::PlanRunner runner(scratch);
  std::vector<const Subgraph*> refs;
  std::vector<float> labels;
  for (std::size_t i = 0; i < 24 && i < f->pretrain.subgraphs.size(); ++i) {
    refs.push_back(&f->pretrain.subgraphs[i]);
    labels.push_back(f->pretrain.labels[i]);
  }
  const SubgraphBatch batch = make_batch(refs, f->pretrain.graph->xc, f->normalizer,
                                         batch_options_for(scratch.config()));
  runner.forward_loss(batch, labels, 0.0f, /*link_task=*/true);
  runner.backward();
  return f;
}

struct Timed {
  std::vector<EpochRecord> epochs;
  double zeroshot_auc = kUnset;
  std::vector<double> adapt_ms, mae;
  std::vector<std::string> bundles;  // per adaptation
  // The calls between the trainer's epochs, each timed from outside, and
  // the whole phase: what the traced run's accounting adds up.
  double phase_s = 0;
  double zeroshot_eval_ms = 0;
  std::vector<double> eval_ms, save_ms;  // per adaptation
  double pretrain_arena_mb = 0;          // exec.arena_bytes after pre-training
};

TrainOptions pretrain_options(int epochs) {
  TrainOptions options;
  options.epochs = epochs;
  options.batch_size = 24;
  options.lr = 2e-3f;
  return options;
}

// Pre-training and the shot sweep interleave: each round continues
// pre-training the meta-learner, then adapts it once per shot count, and the
// zero-shot AUC scores the meta-learner after the last round. Each phase's
// samples thus span the whole timed phase instead of one half of it, so a
// stretch of the shared host's load moves each figure less.
Timed run_timed(FewShot& f, const Args& args, int epochs, int rounds) {
  Timed t;
  const std::string log_path = run_log_path(args);
  std::remove(log_path.c_str());
  TrainOptions ft_options;
  ft_options.epochs = kFinetuneEpochs;
  ft_options.batch_size = 8;
  ft_options.lr = 1e-3f;
  // Fixed work; the deadline only keeps a much slower host within the
  // run's time limit.
  const double deadline = now_s() + 2.0 * args.seconds + 20.0;
  const double p0 = now_s();
  const TaskData* pre[] = {&f.pretrain};
  const int kinds = static_cast<int>(kShotKinds);
  for (int i = 0; i < rounds * kinds && now_s() < deadline; ++i) {
    const int round = i / kinds;
    const int block = epochs * (round + 1) / rounds - epochs * round / rounds;
    if (i % kinds == 0 && block > 0) {
      train_link_prediction(*f.meta, f.normalizer, pre, pretrain_options(block));
      if (round == 0)
        t.pretrain_arena_mb = metric_gauge("exec.arena_bytes").value() / (1024.0 * 1024.0);
    }
    const std::size_t k = static_cast<std::size_t>(kShots[static_cast<std::size_t>(i) % kShotKinds]);
    const std::size_t offset =
        (static_cast<std::size_t>(i) / kShotKinds * 37) % (kShotRegion - k + 1);
    const TaskData shots = take(f.pool, offset, offset + k);
    const TaskData* shot_tasks[] = {&shots};
    const std::string path = args.run_dir + "/adapted" + std::to_string(i % kRoundTrips) + ".cgps";
    const double a0 = now_s();
    CircuitGps adapted(f.meta->config());
    nn::copy_state(*f.meta, adapted);
    adapted.reset_head(derive_seed(args.seed, 1000 + static_cast<std::uint64_t>(i)));
    train_regression(adapted, f.normalizer, shot_tasks, ft_options);
    const double a1 = now_s();
    const double mae = evaluate_regression(adapted, f.normalizer, f.heldout).mae;
    const double a2 = now_s();
    save_model_bundle(adapted, path, &f.normalizer);
    const double a3 = now_s();
    t.adapt_ms.push_back((a3 - a0) * 1e3);
    t.eval_ms.push_back((a2 - a1) * 1e3);
    t.save_ms.push_back((a3 - a2) * 1e3);
    t.mae.push_back(mae);
    t.bundles.push_back(path);
  }
  const double z0 = now_s();
  t.zeroshot_auc = evaluate_link_prediction(*f.meta, f.normalizer, f.zeroshot).auc;
  t.zeroshot_eval_ms = (now_s() - z0) * 1e3;
  t.phase_s = now_s() - p0;
  t.epochs = read_run_log(log_path);
  return t;
}

// Tracing overhead. The per-layer step times come from the trainer's run
// log, the one part of its timing that can be switched off: pre-training
// epochs on a copy of the meta-learner, alternately without and with the
// log, each timed by train_link_prediction itself. Every other thread is
// idle here, so switching the variable is safe.
double run_log_overhead(const FewShot& f, const Args& args) {
  CircuitGps copy(f.meta->config());
  nn::copy_state(*f.meta, copy);
  const TaskData* pre[] = {&f.pretrain};
  const TrainOptions options = pretrain_options(2);
  std::vector<double> off, on;
  for (int round = 0; round < 2; ++round) {
    ::unsetenv("CIRCUITGPS_RUN_LOG");
    off.push_back(train_link_prediction(copy, f.normalizer, pre, options));
    ::setenv("CIRCUITGPS_RUN_LOG", run_log_path(args).c_str(), 1);
    on.push_back(train_link_prediction(copy, f.normalizer, pre, options));
  }
  return median(on) / median(off) - 1.0;
}

// Checks of one timed phase; returns operations attempted and failed.
std::pair<std::int64_t, std::int64_t> check_timed(const FewShot& f, const Timed& t,
                                                  bool corrupt) {
  std::int64_t attempted = 0, failed = 0;
  for (const EpochRecord& e : t.epochs) {
    ++attempted;
    if (!std::isfinite(e.loss) || e.batches <= 0) {
      std::fprintf(stderr, "[perfbench] %s epoch: loss %g over %lld batches\n", e.task.c_str(),
                   e.loss, static_cast<long long>(e.batches));
      ++failed;
    }
  }
  ++attempted;
  if (!(t.zeroshot_auc > kMinZeroShotAuc)) {
    std::fprintf(stderr, "[perfbench] zero-shot AUC %.4f is not above %.2f\n", t.zeroshot_auc,
                 kMinZeroShotAuc);
    ++failed;
  }
  // Predictions and targets are both normalized caps in [0, 1].
  for (const double mae : t.mae) {
    ++attempted;
    if (!std::isfinite(mae) || mae < 0 || mae > 1) {
      std::fprintf(stderr, "[perfbench] held-out MAE %g is outside [0, 1]\n", mae);
      ++failed;
    }
  }
  // The last kRoundTrips adaptations each left their own bundle: reload it
  // and the held-out MAE must come back unchanged.
  const std::size_t n = t.mae.size();
  for (std::size_t i = n - std::min(n, kRoundTrips); i < n; ++i) {
    if (corrupt && i + 1 == n) {
      // Self-test: flip the top byte of the last stored float.
      std::fstream file(t.bundles[i], std::ios::in | std::ios::out | std::ios::binary);
      file.seekg(-1, std::ios::end);
      const char byte = static_cast<char>(file.get() ^ 0x40);
      file.seekp(-1, std::ios::end);
      file.put(byte);
    }
    try {
      ModelBundle bundle = load_model_bundle_full(t.bundles[i]);
      const double mae = evaluate_regression(*bundle.model, bundle.normalizer, f.heldout).mae;
      if (std::fabs(mae - t.mae[i]) > 1e-6) {
        std::fprintf(stderr, "[perfbench] adaptation %zu: reloaded MAE %.9f, trained %.9f\n", i,
                     mae, t.mae[i]);
        ++failed;
      }
    } catch (const std::exception& e) {
      std::fprintf(stderr, "[perfbench] adaptation %zu: bundle reload failed: %s\n", i,
                   e.what());
      ++failed;
    }
  }
  return {attempted, failed};
}

double per_step_ms(const EpochRecord& e) {
  return e.batches > 0 ? e.seconds * 1e3 / static_cast<double>(e.batches) : kUnset;
}

}  // namespace

Outcome run_train_fewshot(const Args& args) {
  Outcome out;
  int epochs = std::max(2, static_cast<int>(std::lround(args.seconds * kPretrainEpochsPerSecond)));
  // Whole rounds of the shot sweep, so the median adaptation stays inside
  // the k = 16 group.
  const int kinds = static_cast<int>(kShotKinds);
  int rounds =
      std::max(1, static_cast<int>(std::lround(args.seconds * kAdaptationsPerSecond / kinds)));
  if (args.trace) {  // the traced run times half the work
    epochs = std::max(2, epochs / 2);
    rounds = std::max(1, rounds / 2);
  }

  std::vector<double> setup_s;
  auto timed_setup = [&] {
    const double t = now_s();
    std::unique_ptr<FewShot> s = set_up(args.seed);
    setup_s.push_back(now_s() - t);
    return s;
  };
  // The timed phase starts from the last set-up before it. The peak RSS
  // counts from that set-up, with the heap the earlier ones freed handed
  // back, as in a process that sets up once.
  const int setup_reps = args.trace ? 1 : kSetupReps;
  for (int rep = 1; rep < (setup_reps + 1) / 2; ++rep) timed_setup();
  malloc_trim(0);
  PeakRss rss;
  const std::unique_ptr<FewShot> f = timed_setup();
  const Timed timed = run_timed(*f, args, epochs, rounds);
  rss.stop();
  for (int rep = (setup_reps + 1) / 2; rep < setup_reps; ++rep) timed_setup();

  const auto [attempted, failed] = check_timed(*f, timed, args.corrupt);
  out.attempted = attempted;
  out.failed = failed;

  std::vector<EpochRecord> pretrain_epochs, finetune_epochs;
  std::vector<double> pretrain_rate, finetune_step_ms, finetune_order;
  std::string last_run;
  for (const EpochRecord& e : timed.epochs) {
    // A training call's first epoch also compiles its plan.
    const bool first = e.run_id != last_run;
    last_run = e.run_id;
    if (e.task == "link") {
      pretrain_epochs.push_back(e);
      if (!first) pretrain_rate.push_back(static_cast<double>(e.samples) / e.seconds);
    } else {
      finetune_epochs.push_back(e);
      finetune_step_ms.push_back(per_step_ms(e));
      finetune_order.push_back(static_cast<double>(finetune_order.size()));
    }
  }
  const double mean_mae = mean(timed.mae);
  std::fprintf(stderr,
               "[perfbench] train_fewshot: %d pre-training epochs, %d adaptations, "
               "%zu fine-tune epochs, zero-shot AUC %.4f, mean held-out MAE %.4f\n",
               epochs, static_cast<int>(timed.mae.size()), finetune_step_ms.size(),
               timed.zeroshot_auc, mean_mae);

  if (!args.trace) {
    if (out.failed > 0)
      out.reject(std::to_string(out.failed) + " of " + std::to_string(out.attempted) +
                 " operations failed");
    EndToEnd e;
    e.setup_s = median(setup_s);
    e.throughput_per_s = median(pretrain_rate);
    e.latency_p50_ms = median(finetune_step_ms);
    // One window per round of the shot sweep, as windowed_tail does for the
    // serve workloads: a round's first epochs (plan compiles) and one slow
    // stretch of the host do not set the figure on their own.
    const Tail tail = windowed_tail(finetune_order, finetune_step_ms, rounds);
    e.latency_p99_ms = tail.value;
    e.peak_rss_mb = rss.peak_mib();
    e.adapt_p50_ms = median(timed.adapt_ms);
    e.heldout_mae = mean_mae;
    e.zeroshot_auc = timed.zeroshot_auc;
    std::fprintf(stderr,
                 "[perfbench] step latency: p50 of %zu fine-tune epochs; p%.0f per round of %zu, "
                 "median of %d rounds; setup median of %zu:",
                 finetune_step_ms.size(), tail.q * 100, tail.n, rounds, setup_s.size());
    for (const double s : setup_s) std::fprintf(stderr, " %.3f", s);
    std::fprintf(stderr, "\n");
    add_end_to_end(out, e);
    return out;
  }

  // Traced run. Step layers from the trainer's run log: pre-training steps
  // for assembly and forward + backward (-> throughput_per_s), fine-tune
  // steps for the optimizer (-> adapt_p50_ms).
  LayerReport l;
  const StepTimes pre = step_times(pretrain_epochs);
  l.gps_assemble_us_per_graph = pre.gather_us_per_graph;
  l.exec_train_step_ms_p50 = pre.step_ms;
  l.tensor_optim_step_ms_p50 = step_times(finetune_epochs).optim_ms;
  l.train_eval_ms_p50 = median(timed.eval_ms);
  l.train_bundle_save_ms = median(timed.save_ms);
  l.train_sample_ms = f->sample_ms;
  {
    BuildTimes bt;
    build_dataset_layered(gen::DatasetId::kSsram,
                          dataset_options(args.seed, gen::DatasetId::kSsram), &bt);
    l.layout_place_ms = bt.place_ms;
    l.parasitics_extract_ms = bt.extract_ms;
  }

  // Accounting of the timed phase: the trainer's phase timers over every
  // epoch plus the evaluations and bundle writes timed around them; the
  // residual (optimizer and runner construction, copy_state, reset_head,
  // per-epoch bookkeeping) is reported per training step.
  double attributed_s = timed.zeroshot_eval_ms * 1e-3;
  std::int64_t steps = 0;
  for (const EpochRecord& e : timed.epochs) {
    attributed_s += e.timed_s();
    steps += e.batches;
  }
  for (std::size_t i = 0; i < timed.eval_ms.size(); ++i)
    attributed_s += (timed.eval_ms[i] + timed.save_ms[i]) * 1e-3;
  l.trace_coverage_share = attributed_s / timed.phase_s;
  l.trace_residual_ms = (timed.phase_s - attributed_s) * 1e3 / static_cast<double>(steps);
  l.trace_overhead_share = run_log_overhead(*f, args);
  std::fprintf(stderr,
               "[perfbench] traced: timed phase %.3f s, layers %.3f s over %lld steps, "
               "run-log overhead %.4f\n",
               timed.phase_s, attributed_s, static_cast<long long>(steps),
               l.trace_overhead_share);

  // Inference layers on the zero-shot link queries, at
  // evaluate_link_prediction's batch of 64.
  ReplayInput in;
  in.model = f->meta.get();
  in.normalizer = &f->normalizer;
  in.sources.push_back({&f->zeroshot_ds->link_graph, &f->zeroshot_ds->graph.xc});
  in.subgraph = train_subgraph_options();
  for (std::size_t i = 0; i < f->zeroshot.subgraphs.size(); ++i) {
    const Subgraph& sg = f->zeroshot.subgraphs[i];
    Query q;
    q.task = serve::TaskKind::kLink;
    q.a = sg.orig_nodes[0];
    q.b = sg.orig_nodes[static_cast<std::size_t>(sg.second_anchor)];
    q.target = f->zeroshot.labels[i];
    in.predict_queries.push_back(q);
  }
  in.predict_batch = 64;
  in.pool_probe = false;
  const ReplayResult r = replay_layers(in);
  l.graph_extract_us_p50 = median(r.extract_us);
  l.graph_subgraph_nodes_mean = r.subgraph_nodes_mean;
  l.exec_predict_us_per_graph = r.predict_us_per_graph;
  l.exec_plan_build_ms = r.plan_build_ms;
  l.exec_arena_mb = std::max(r.arena_mb, timed.pretrain_arena_mb);

  // The pool on one pre-training epoch of a copy of the meta-learner.
  const PoolProbe pool = probe_pool([&] {
    CircuitGps copy(f->meta->config());
    nn::copy_state(*f->meta, copy);
    const TaskData* pre_tasks[] = {&f->pretrain};
    const TrainOptions options = pretrain_options(1);
    train_link_prediction(copy, f->normalizer, pre_tasks, options);
    return (f->pretrain.size() + options.batch_size - 1) / options.batch_size;
  });
  l.util_pool_utilization = pool.utilization;
  l.util_pooled_jobs_per_op = pool.jobs_per_op;

  // Deploy an adapted checkpoint (the oldest one the round-trip check kept,
  // which the self-test leaves intact): held-out coupling queries through
  // the daemon, checked like serve traffic.
  const std::string deploy_path =
      timed.bundles[timed.bundles.size() - std::min(timed.bundles.size(), kRoundTrips)];
  std::vector<Query> deploy;
  for (std::size_t i = 0; i < f->heldout.subgraphs.size() && deploy.size() < 192; ++i) {
    const Subgraph& sg = f->heldout.subgraphs[i];
    Query q;
    q.task = serve::TaskKind::kEdgeCap;
    q.a = sg.orig_nodes[0];
    q.b = sg.orig_nodes[static_cast<std::size_t>(sg.second_anchor)];
    q.target = f->heldout.targets[i];
    deploy.push_back(q);
  }
  const DeployProbe probe = probe_deployment(deploy_path, gen::DatasetId::kTimingControl, deploy,
                                             16, derive_seed(args.seed, 30));
  l.serve_server_ms_p50 = probe.server_ms_p50;
  l.serve_wire_ms_p50 = probe.wire_ms_p50;
  l.serve_connect_ms_p50 = probe.connect_ms_p50;
  l.serve_batch_size_mean = probe.batch_size_mean;
  l.serve_cycle_ms_p50 = probe.cycle_ms_p50;
  l.serve_repeat_share = probe.repeat_share;
  l.serve_failed = static_cast<double>(probe.failed);
  l.serve_open_fds_end = probe.open_fds_end;
  l.serve_threads_end = probe.threads_end;
  l.graph_build_ms = probe.graph_build_ms;
  l.train_bundle_load_ms = probe.bundle_load_ms;
  out.attempted += probe.attempted;
  out.failed += probe.failed;
  if (out.failed > 0)
    out.reject(std::to_string(out.failed) + " of " + std::to_string(out.attempted) +
               " operations failed");
  add_layer_metrics(out, l);
  return out;
}

}  // namespace cgps::perfbench
