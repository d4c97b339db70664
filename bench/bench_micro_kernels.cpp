// Kernel micro-benchmarks (google-benchmark): the hot operations behind
// training — matmul, GatedGCN forward, attention variants, subgraph
// sampling, and the positional encodings of Table II.
#include "common.hpp"
#include "exec/arena.hpp"
#include "exec/backend.hpp"
#include "exec/runner.hpp"
#include "gen/designs.hpp"
#include "gps/batch.hpp"
#include "graph/links.hpp"
#include "graph/pe.hpp"
#include "layout/placer.hpp"
#include "netlist/hierarchy.hpp"
#include "nn/attention.hpp"
#include "nn/gated_gcn.hpp"
#include "tensor/kernels.hpp"
#include "tensor/ops.hpp"
#include "tensor/optim.hpp"
#include "train/dataset.hpp"
#include "train/task_data.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"
#include "util/trace.hpp"

#include <benchmark/benchmark.h>

namespace {

using namespace cgps;

void BM_Matmul(benchmark::State& state) {
  const auto n = state.range(0);
  Rng rng(1);
  Tensor a = Tensor::randn(n, n, 1.0f, rng);
  Tensor b = Tensor::randn(n, n, 1.0f, rng);
  InferenceGuard guard;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ops::matmul(a, b).data().data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
}
BENCHMARK(BM_Matmul)->Arg(64)->Arg(128)->Arg(256);

struct GraphFixture {
  Netlist netlist;
  CircuitGraph graph;
  std::vector<LinkSample> samples;
  Subgraph subgraph;

  GraphFixture() {
    netlist = flatten(gen::digital_clk_gen());
    graph = build_circuit_graph(netlist);
    const Placement placement = place(netlist);
    const ExtractionResult extraction = extract_parasitics(netlist, placement);
    Rng rng(2);
    samples = build_link_samples(graph, extraction.links, rng, {});
    SubgraphOptions options;
    options.max_nodes_per_anchor = 96;
    subgraph = extract_enclosing_subgraph(graph.graph, samples[0].node_a, samples[0].node_b,
                                          options);
  }
};

GraphFixture& fixture() {
  static GraphFixture f;
  return f;
}

void BM_SubgraphSampling(benchmark::State& state) {
  GraphFixture& f = fixture();
  SubgraphOptions options;
  options.hops = static_cast<std::int32_t>(state.range(0));
  options.max_nodes_per_anchor = 96;
  std::size_t i = 0;
  for (auto _ : state) {
    const LinkSample& s = f.samples[i++ % f.samples.size()];
    benchmark::DoNotOptimize(
        extract_enclosing_subgraph(f.graph.graph, s.node_a, s.node_b, options).num_nodes());
  }
}
BENCHMARK(BM_SubgraphSampling)->Arg(1)->Arg(2);

void BM_PeDrnl(benchmark::State& state) {
  GraphFixture& f = fixture();
  for (auto _ : state) benchmark::DoNotOptimize(drnl_labels(f.subgraph).size());
}
BENCHMARK(BM_PeDrnl);

void BM_PeRwse(benchmark::State& state) {
  GraphFixture& f = fixture();
  for (auto _ : state) benchmark::DoNotOptimize(rwse(f.subgraph, 8).size());
}
BENCHMARK(BM_PeRwse);

void BM_PeLapPe(benchmark::State& state) {
  GraphFixture& f = fixture();
  for (auto _ : state) benchmark::DoNotOptimize(lappe(f.subgraph, 4).size());
}
BENCHMARK(BM_PeLapPe);

void BM_GatedGcnForward(benchmark::State& state) {
  GraphFixture& f = fixture();
  Rng rng(3);
  const std::int64_t dim = 48;
  nn::GatedGcn layer(dim, rng);
  layer.set_training(false);
  Tensor x = Tensor::randn(f.subgraph.num_nodes(), dim, 1.0f, rng);
  Tensor e = Tensor::randn(f.subgraph.num_directed_edges(), dim, 1.0f, rng);
  InferenceGuard guard;
  for (auto _ : state) {
    benchmark::DoNotOptimize(layer.forward(x, e, f.subgraph.edges).x.data().data());
  }
}
BENCHMARK(BM_GatedGcnForward);

void BM_Attention(benchmark::State& state) {
  Rng rng(4);
  const std::int64_t n = 128, dim = 48;
  Tensor x = Tensor::randn(n, dim, 1.0f, rng);
  const std::vector<std::int64_t> ptr{0, n};
  InferenceGuard guard;
  if (state.range(0) == 0) {
    nn::MultiheadSelfAttention attn(dim, 4, rng);
    attn.set_training(false);
    for (auto _ : state) benchmark::DoNotOptimize(attn.forward(x, ptr).data().data());
  } else {
    nn::PerformerAttention attn(dim, 4, 16, rng);
    attn.set_training(false);
    for (auto _ : state) benchmark::DoNotOptimize(attn.forward(x, ptr).data().data());
  }
}
BENCHMARK(BM_Attention)->Arg(0)->Arg(1);  // 0 = softmax Transformer, 1 = Performer

// ---------------------------------------------------------------- exec ---
// Plan-executor benches (DESIGN.md §10): fused kernels vs their unfused op
// sequences, arena binding vs per-buffer heap allocation, and whole-model
// planned vs eager training steps. Keys are exported as exec.*.real_ns.

void BM_ExecLinearReluUnfused(benchmark::State& state) {
  const std::int64_t m = 256, k = 48, n = 48;
  Rng rng(11);
  std::vector<float> x(static_cast<std::size_t>(m * k)), w(static_cast<std::size_t>(k * n)),
      b(static_cast<std::size_t>(n)), mm(static_cast<std::size_t>(m * n)),
      out(static_cast<std::size_t>(m * n));
  for (float& v : x) v = rng.normal();
  for (float& v : w) v = rng.normal();
  for (float& v : b) v = rng.normal();
  const exec::KernelBackend& backend = exec::select_backend();
  for (auto _ : state) {
    backend.matmul_fwd(x.data(), w.data(), mm.data(), m, k, n);
    kern::add_rowvec_fwd(mm.data(), b.data(), out.data(), m, n);
    par::parallel_for(0, m * n, par::grain_for(1), [&](std::int64_t i0, std::int64_t i1) {
      for (std::int64_t i = i0; i < i1; ++i) out[static_cast<std::size_t>(i)] =
          kern::relu1(out[static_cast<std::size_t>(i)]);
    });
    benchmark::DoNotOptimize(out.data());
  }
}
BENCHMARK(BM_ExecLinearReluUnfused);

void BM_ExecLinearReluFused(benchmark::State& state) {
  const std::int64_t m = 256, k = 48, n = 48;
  Rng rng(11);
  std::vector<float> x(static_cast<std::size_t>(m * k)), w(static_cast<std::size_t>(k * n)),
      b(static_cast<std::size_t>(n)), out(static_cast<std::size_t>(m * n));
  for (float& v : x) v = rng.normal();
  for (float& v : w) v = rng.normal();
  for (float& v : b) v = rng.normal();
  const exec::KernelBackend& backend = exec::select_backend();
  for (auto _ : state) {
    backend.linear_relu_fwd(x.data(), w.data(), b.data(), out.data(), m, k, n);
    benchmark::DoNotOptimize(out.data());
  }
}
BENCHMARK(BM_ExecLinearReluFused);

void BM_ExecGateChainUnfused(benchmark::State& state) {
  const std::int64_t count = 4096 * 48;
  Rng rng(12);
  std::vector<float> e_hat(static_cast<std::size_t>(count)), lm(static_cast<std::size_t>(count)),
      eta(static_cast<std::size_t>(count)), msg(static_cast<std::size_t>(count));
  for (float& v : e_hat) v = rng.normal();
  for (float& v : lm) v = rng.normal();
  for (auto _ : state) {
    par::parallel_for(0, count, par::grain_for(1), [&](std::int64_t i0, std::int64_t i1) {
      for (std::int64_t i = i0; i < i1; ++i)
        eta[static_cast<std::size_t>(i)] = kern::sigmoid1(e_hat[static_cast<std::size_t>(i)]);
    });
    par::parallel_for(0, count, par::grain_for(1), [&](std::int64_t i0, std::int64_t i1) {
      for (std::int64_t i = i0; i < i1; ++i)
        msg[static_cast<std::size_t>(i)] =
            kern::mul1(eta[static_cast<std::size_t>(i)], lm[static_cast<std::size_t>(i)]);
    });
    benchmark::DoNotOptimize(msg.data());
  }
}
BENCHMARK(BM_ExecGateChainUnfused);

void BM_ExecGateChainFused(benchmark::State& state) {
  const std::int64_t count = 4096 * 48;
  Rng rng(12);
  std::vector<float> e_hat(static_cast<std::size_t>(count)), lm(static_cast<std::size_t>(count)),
      eta(static_cast<std::size_t>(count)), msg(static_cast<std::size_t>(count));
  for (float& v : e_hat) v = rng.normal();
  for (float& v : lm) v = rng.normal();
  const exec::KernelBackend& backend = exec::select_backend();
  for (auto _ : state) {
    backend.gate_chain_fwd(e_hat.data(), lm.data(), eta.data(), msg.data(), count);
    benchmark::DoNotOptimize(msg.data());
  }
}
BENCHMARK(BM_ExecGateChainFused);

// The planned forward's matmuls at the served shapes: m = 686 rows (the
// bulk screen's mean batch nodes) by (k, n) = (32, 96) the packed q/k/v
// projection's shape, (32, 32) hidden linears and (8, 16) the FAVOR+
// u omega. Outside the micro gate's pinned filter; exported as
// exec.matmul_fwd.n<n>.real_ns.
void BM_ExecNarrowMatmul(benchmark::State& state) {
  const std::int64_t m = 686, k = state.range(0), n = state.range(1);
  Rng rng(13);
  std::vector<float> a(static_cast<std::size_t>(m * k)), b(static_cast<std::size_t>(k * n)),
      out(static_cast<std::size_t>(m * n));
  for (float& v : a) v = rng.normal();
  for (float& v : b) v = rng.normal();
  const exec::KernelBackend& backend = exec::select_backend();
  for (auto _ : state) {
    backend.matmul_fwd(a.data(), b.data(), out.data(), m, k, n);
    benchmark::DoNotOptimize(out.data());
  }
}
BENCHMARK(BM_ExecNarrowMatmul)->Args({32, 96})->Args({32, 32})->Args({8, 16});

// The training step's backward matmuls at the pre-training shapes: m = 337
// rows (the pre-training batch's mean node count) by (inner, cols) = (32, 32)
// hidden linears, (32, 8) per-head q/k/v and (64, 32) the second
// linear of the fuse MLP. `grad_b` picks dB(inner,cols) += A^T dC, else
// dA(m,inner) += dC B^T.
// Outside the micro gate's pinned filter; exported as
// exec.matmul_db.<inner>x<cols>.real_ns and exec.matmul_da.<inner>x<cols>.real_ns.
void BM_ExecBackwardMatmul(benchmark::State& state, bool grad_b) {
  const std::int64_t m = 337, inner = state.range(0), cols = state.range(1);
  Rng rng(14);
  std::vector<float> dc(static_cast<std::size_t>(m * cols)), a(static_cast<std::size_t>(m * inner)),
      b(static_cast<std::size_t>(inner * cols));
  for (float& v : dc) v = rng.normal();
  for (float& v : a) v = rng.normal();
  for (float& v : b) v = rng.normal();
  std::vector<float> da(a.size()), db(b.size());
  const exec::KernelBackend& backend = exec::select_backend();
  for (auto _ : state) {
    if (grad_b)
      backend.matmul_db(dc.data(), a.data(), db.data(), m, inner, cols);
    else
      backend.matmul_da(dc.data(), b.data(), da.data(), m, inner, cols);
    benchmark::DoNotOptimize(grad_b ? db.data() : da.data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK_CAPTURE(BM_ExecBackwardMatmul, db, true)->Args({32, 32})->Args({32, 8})->Args({64, 32});
BENCHMARK_CAPTURE(BM_ExecBackwardMatmul, da, false)->Args({32, 32})->Args({32, 8})->Args({64, 32});

// The Performer's FAVOR+ feature pass at the served shape: one head's
// N = 800 rows (a bulk-screen batch of 16 graphs has about 801 nodes), dh = 8
// and fm = 16. Outside the micro gate's pinned filter; exported as
// exec.favor_fwd.real_ns.
void BM_ExecFavorFeatures(benchmark::State& state) {
  const std::int64_t rows = 800, dh = 8, fm = 16;
  Rng rng(15);
  std::vector<float> u(static_cast<std::size_t>(rows * dh)),
      proj(static_cast<std::size_t>(rows * fm)), e(proj.size()), phi(proj.size());
  for (float& v : u) v = 0.5f * rng.normal();
  for (float& v : proj) v = rng.normal();
  const exec::KernelBackend& backend = exec::select_backend();
  for (auto _ : state) {
    backend.favor_fwd(proj.data(), u.data(), e.data(), phi.data(), rows, dh, fm, 0.25f);
    benchmark::DoNotOptimize(phi.data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_ExecFavorFeatures);

// The Performer forward's two wide kernels at the served shape: a
// bulk-screen batch of N = 900 rows in 16 graphs, hidden 32, 4 heads, dh 8
// and fm 16. BM_ExecQkvProjection is one layer's packed q/k/v projection,
// BM_ExecPerformerAttend one head's attend over every graph. Outside the
// micro gate's pinned filter; exported as exec.qkv_fwd.real_ns and
// exec.performer_attend.real_ns.
void BM_ExecQkvProjection(benchmark::State& state) {
  const std::int64_t m = 900, dim = 32, heads = 4, dh = 8;
  Rng rng(16);
  std::vector<float> x(static_cast<std::size_t>(m * dim)),
      w(static_cast<std::size_t>(dim * 3 * heads * dh)),
      q(static_cast<std::size_t>(heads * m * dh)), k(q.size()), v(q.size());
  for (float& e : x) e = rng.normal();
  for (float& e : w) e = rng.normal();
  const exec::KernelBackend& backend = exec::select_backend();
  for (auto _ : state) {
    backend.qkv_fwd(x.data(), w.data(), q.data(), k.data(), v.data(), m, dim, heads, dh,
                    0.5946f);
    benchmark::DoNotOptimize(v.data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_ExecQkvProjection);

void BM_ExecPerformerAttend(benchmark::State& state) {
  const std::int64_t rows = 900, graphs = 16, dh = 8, fm = 16, stride = 32;
  Rng rng(17);
  std::vector<std::int64_t> graph_ptr;
  for (std::int64_t g = 0; g <= graphs; ++g) graph_ptr.push_back(g * rows / graphs);
  // FAVOR+ features are positive: exp(.) / sqrt(fm).
  std::vector<float> phi_q(static_cast<std::size_t>(rows * fm)), phi_k(phi_q.size()),
      v(static_cast<std::size_t>(rows * dh)), kv(static_cast<std::size_t>(graphs * fm * dh)),
      z(static_cast<std::size_t>(graphs * fm)), numer(v.size()),
      denom(static_cast<std::size_t>(rows)), out(static_cast<std::size_t>(rows * stride));
  for (float& e : phi_q) e = 0.25f * std::exp(0.5f * rng.normal());
  for (float& e : phi_k) e = 0.25f * std::exp(0.5f * rng.normal());
  for (float& e : v) e = rng.normal();
  const exec::KernelBackend& backend = exec::select_backend();
  for (auto _ : state) {
    backend.performer_attend_fwd(phi_q.data(), phi_k.data(), v.data(), graph_ptr.data(), graphs,
                                 dh, fm, kv.data(), z.data(), numer.data(), denom.data(),
                                 out.data(), stride);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_ExecPerformerAttend);

// Plan-shaped buffer set: ~200 tensors with staggered liveness.
std::vector<exec::ArenaRequest> arena_requests() {
  std::vector<exec::ArenaRequest> reqs;
  for (int i = 0; i < 200; ++i)
    reqs.push_back({256 * 48, i, i + 8});
  return reqs;
}

void BM_ExecArenaBind(benchmark::State& state) {
  exec::Arena arena;
  const std::vector<exec::ArenaRequest> reqs = arena_requests();
  arena.bind(reqs);  // warm: slab reaches steady state
  for (auto _ : state) {
    benchmark::DoNotOptimize(arena.bind(reqs).data());
  }
}
BENCHMARK(BM_ExecArenaBind);

void BM_ExecMallocBind(benchmark::State& state) {
  const std::vector<exec::ArenaRequest> reqs = arena_requests();
  for (auto _ : state) {
    // What the eager path does per batch: one zero-filled allocation per
    // tensor, freed at the end of the step.
    std::vector<std::vector<float>> buffers;
    buffers.reserve(reqs.size());
    for (const exec::ArenaRequest& r : reqs)
      buffers.emplace_back(static_cast<std::size_t>(r.floats), 0.0f);
    benchmark::DoNotOptimize(buffers.data());
  }
}
BENCHMARK(BM_ExecMallocBind);

struct ExecBenchFixture {
  GpsConfig config;
  std::unique_ptr<CircuitGps> eager_model;
  std::unique_ptr<CircuitGps> planned_model;
  std::unique_ptr<exec::PlanRunner> runner;
  SubgraphBatch batch;
  std::vector<float> values;

  ExecBenchFixture() {
    GraphFixture& f = fixture();
    Rng rng(13);
    std::vector<Subgraph> subgraphs;
    SubgraphOptions options;
    options.max_nodes_per_anchor = 96;
    for (std::size_t i = 0; i < 8 && i < f.samples.size(); ++i)
      subgraphs.push_back(extract_enclosing_subgraph(f.graph.graph, f.samples[i].node_a,
                                                     f.samples[i].node_b, options));
    XcNormalizer normalizer;
    normalizer.fit(f.graph.xc);
    std::vector<const Subgraph*> refs;
    for (const Subgraph& sg : subgraphs) refs.push_back(&sg);
    BatchOptions batch_options;
    batch_options.pe = config.pe;
    batch = make_batch(refs, f.graph.xc, normalizer, batch_options);
    for (std::int64_t g = 0; g < batch.num_graphs(); ++g)
      values.push_back(static_cast<float>(g % 2));
    eager_model = std::make_unique<CircuitGps>(config);
    planned_model = std::make_unique<CircuitGps>(config);
    runner = std::make_unique<exec::PlanRunner>(*planned_model);
  }
};

ExecBenchFixture& exec_fixture() {
  static ExecBenchFixture f;
  return f;
}

void BM_ExecEagerForward(benchmark::State& state) {
  ExecBenchFixture& f = exec_fixture();
  f.eager_model->set_training(false);
  InferenceGuard guard;
  for (auto _ : state)
    benchmark::DoNotOptimize(f.eager_model->forward(f.batch).data().data());
}
BENCHMARK(BM_ExecEagerForward);

void BM_ExecPlannedForward(benchmark::State& state) {
  ExecBenchFixture& f = exec_fixture();
  f.planned_model->set_training(false);
  for (auto _ : state) {
    std::int64_t rows = 0;
    benchmark::DoNotOptimize(f.runner->predict(f.batch, &rows));
  }
}
BENCHMARK(BM_ExecPlannedForward);

// The served Table-II config (bench_gps_config) on a batch shaped like
// serve_bulk_screen's: 16 subgraphs around ARRAY_128_32 pin/net pairs 2-4
// hops apart, rails included, with the serve daemon's default subgraph
// options: 1,101 nodes in all. Outside the micro gate's pinned filter;
// exported as exec.forward.planned_table2.real_ns.
struct Table2ForwardFixture {
  std::unique_ptr<CircuitGps> model;
  std::unique_ptr<exec::PlanRunner> runner;
  SubgraphBatch batch;

  Table2ForwardFixture() {
    const CircuitGraph graph = build_circuit_graph(flatten(gen::array_128_32()));
    const HeteroGraph& g = graph.graph;
    const auto endpoint = [&g](std::int32_t v) {
      return g.node_type(v) == NodeType::kPin || g.node_type(v) == NodeType::kNet;
    };
    Rng rng(18);
    std::vector<Subgraph> subgraphs;
    while (subgraphs.size() < 16) {
      const auto u = static_cast<std::int32_t>(
          rng.uniform_int(static_cast<std::uint64_t>(g.num_nodes())));
      if (!endpoint(u)) continue;
      std::int32_t v = u;
      const std::uint64_t hops = 2 + rng.uniform_int(3);
      for (std::uint64_t h = 0; h < hops && g.degree(v) > 0; ++h)
        v = g.neighbor(v, static_cast<std::int64_t>(
                              rng.uniform_int(static_cast<std::uint64_t>(g.degree(v)))))
                .node;
      if (v == u || !endpoint(v)) continue;
      subgraphs.push_back(extract_enclosing_subgraph(g, u, v, SubgraphOptions{}));
    }
    const GpsConfig config = bench::bench_gps_config();
    XcNormalizer normalizer;
    normalizer.fit(graph.xc);
    std::vector<const Subgraph*> refs;
    for (const Subgraph& sg : subgraphs) refs.push_back(&sg);
    BatchOptions options;
    options.pe = config.pe;
    batch = make_batch(refs, graph.xc, normalizer, options);
    model = std::make_unique<CircuitGps>(config);
    model->set_training(false);
    runner = std::make_unique<exec::PlanRunner>(*model);
  }
};

void BM_ExecPlannedForwardTable2(benchmark::State& state) {
  static Table2ForwardFixture f;
  for (auto _ : state) {
    std::int64_t rows = 0;
    benchmark::DoNotOptimize(f.runner->predict(f.batch, &rows));
  }
  state.counters["nodes"] = static_cast<double>(f.batch.num_nodes());
}
BENCHMARK(BM_ExecPlannedForwardTable2);

void BM_ExecEagerTrainStep(benchmark::State& state) {
  ExecBenchFixture& f = exec_fixture();
  CircuitGps& model = *f.eager_model;
  model.set_training(true);
  Adam optimizer(model.trainable_parameters(), 2e-3f);
  for (auto _ : state) {
    Tensor out = model.forward(f.batch);
    Tensor target = Tensor::from_vector(std::vector<float>(f.values), out.rows(), 1);
    Tensor loss = ops::bce_with_logits(out, target);
    optimizer.zero_grad();
    loss.backward();
    benchmark::DoNotOptimize(loss.item());
  }
}
BENCHMARK(BM_ExecEagerTrainStep);

void BM_ExecPlannedTrainStep(benchmark::State& state) {
  ExecBenchFixture& f = exec_fixture();
  CircuitGps& model = *f.planned_model;
  model.set_training(true);
  Adam optimizer(model.trainable_parameters(), 2e-3f);
  for (auto _ : state) {
    const float loss = f.runner->forward_loss(f.batch, f.values, 0.0f, /*link=*/true);
    optimizer.zero_grad();
    f.runner->backward();
    benchmark::DoNotOptimize(loss);
  }
}
BENCHMARK(BM_ExecPlannedTrainStep);

void BM_DatasetExtraction(benchmark::State& state) {
  const Netlist netlist = flatten(gen::timing_control());
  const Placement placement = place(netlist);
  for (auto _ : state) {
    benchmark::DoNotOptimize(extract_parasitics(netlist, placement).links.size());
  }
}
BENCHMARK(BM_DatasetExtraction);

// TraceSpan with CIRCUITGPS_TRACE unset: a histogram lookup at construction
// plus one clock read and histogram observe at destruction. This is the
// price every instrumented section pays on an untraced run; DESIGN.md §8
// budgets it, and the `trace_span.overhead.real_ns` metric tracks it.
void BM_TraceSpanOffPath(benchmark::State& state) {
  for (auto _ : state) {
    TraceSpan span("bench.span_overhead");
    benchmark::DoNotOptimize(&span);
  }
}
BENCHMARK(BM_TraceSpanOffPath);

// ------------------------------------------------------- thread sweeps --
// Arg is the work-pool width (0 = CIRCUITGPS_THREADS / hardware default).
// Results are bit-identical across the sweep; only wall-clock changes.

class ThreadSweep {
 public:
  explicit ThreadSweep(std::int64_t threads) {
    par::set_threads(static_cast<int>(threads));
  }
  ~ThreadSweep() { par::set_threads(0); }
};

void BM_MatmulThreads(benchmark::State& state) {
  const ThreadSweep sweep(state.range(0));
  const std::int64_t n = 256;
  Rng rng(1);
  Tensor a = Tensor::randn(n, n, 1.0f, rng);
  Tensor b = Tensor::randn(n, n, 1.0f, rng);
  InferenceGuard guard;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ops::matmul(a, b).data().data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
}
BENCHMARK(BM_MatmulThreads)->Arg(1)->Arg(2)->Arg(4)->Arg(0);

void BM_GatedGcnTrainThreads(benchmark::State& state) {
  const ThreadSweep sweep(state.range(0));
  GraphFixture& f = fixture();
  Rng rng(3);
  const std::int64_t dim = 48;
  nn::GatedGcn layer(dim, rng);
  layer.set_training(true);
  Tensor x = Tensor::randn(f.subgraph.num_nodes(), dim, 1.0f, rng);
  Tensor e = Tensor::randn(f.subgraph.num_directed_edges(), dim, 1.0f, rng);
  for (auto _ : state) {
    Tensor loss = ops::mean_all(layer.forward(x, e, f.subgraph.edges).x);
    loss.backward();
    benchmark::DoNotOptimize(loss.item());
  }
}
BENCHMARK(BM_GatedGcnTrainThreads)->Arg(1)->Arg(2)->Arg(4)->Arg(0);

void BM_AttentionThreads(benchmark::State& state) {
  const ThreadSweep sweep(state.range(0));
  Rng rng(4);
  const std::int64_t n = 128, dim = 48;
  Tensor x = Tensor::randn(n, dim, 1.0f, rng);
  const std::vector<std::int64_t> ptr{0, n};
  nn::MultiheadSelfAttention attn(dim, 4, rng);
  attn.set_training(false);
  InferenceGuard guard;
  for (auto _ : state) benchmark::DoNotOptimize(attn.forward(x, ptr).data().data());
}
BENCHMARK(BM_AttentionThreads)->Arg(1)->Arg(2)->Arg(4)->Arg(0);

const CircuitDataset& sweep_dataset() {
  static const CircuitDataset ds = [] {
    DatasetOptions options;
    options.seed = 5;
    return build_dataset(gen::DatasetId::kTimingControl, options);
  }();
  return ds;
}

void BM_SamplingThreads(benchmark::State& state) {
  const ThreadSweep sweep(state.range(0));
  const CircuitDataset& ds = sweep_dataset();
  SubgraphOptions options;
  options.max_nodes_per_anchor = 96;
  for (auto _ : state) {
    Rng rng(7);
    benchmark::DoNotOptimize(TaskData::for_links(ds, options, 64, rng).subgraphs.size());
  }
}
BENCHMARK(BM_SamplingThreads)->Arg(1)->Arg(2)->Arg(4)->Arg(0);

void BM_BatchAssemblyThreads(benchmark::State& state) {
  const ThreadSweep sweep(state.range(0));
  const CircuitDataset& ds = sweep_dataset();
  static const TaskData task = [&] {
    SubgraphOptions options;
    options.max_nodes_per_anchor = 96;
    Rng rng(7);
    return TaskData::for_links(ds, options, 64, rng);
  }();
  XcNormalizer normalizer;
  normalizer.fit(ds.graph.xc);
  std::vector<const Subgraph*> refs;
  refs.reserve(task.subgraphs.size());
  for (const Subgraph& sg : task.subgraphs) refs.push_back(&sg);
  BatchOptions options;
  options.pe = PeKind::kRwse;  // per-graph PE cost dominates assembly
  for (auto _ : state) {
    benchmark::DoNotOptimize(make_batch(refs, ds.graph.xc, normalizer, options).num_nodes());
  }
}
BENCHMARK(BM_BatchAssemblyThreads)->Arg(1)->Arg(2)->Arg(4)->Arg(0);

// Chains the normal console output while capturing each run for the
// machine-readable BENCH_micro_kernels.json report.
class CaptureReporter : public benchmark::ConsoleReporter {
 public:
  struct Row {
    std::string name;
    double real_time;
    double cpu_time;
    std::string time_unit;
    std::int64_t iterations;
  };

  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& run : runs) {
      if (run.error_occurred) continue;
      rows_.push_back({run.benchmark_name(), run.GetAdjustedRealTime(), run.GetAdjustedCPUTime(),
                       benchmark::GetTimeUnitString(run.time_unit), run.iterations});
    }
    ConsoleReporter::ReportRuns(runs);
  }

  const std::vector<Row>& rows() const { return rows_; }

 private:
  std::vector<Row> rows_;
};

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  CaptureReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();

  cgps::bench::BenchReport report("micro_kernels");
  cgps::TextTable table({"Benchmark", "Real", "CPU", "Unit", "Iterations"});
  // google-benchmark reports each run in its own time unit; normalize to
  // nanoseconds so the metric keys (<kernel>.real_ns) stay unit-stable.
  auto to_ns = [](double v, const std::string& unit) {
    if (unit == "ns") return v;
    if (unit == "us") return v * 1e3;
    if (unit == "ms") return v * 1e6;
    return v * 1e9;  // "s"
  };
  for (const CaptureReporter::Row& row : reporter.rows()) {
    table.add_row({row.name, cgps::bench::fmt(row.real_time, 1), cgps::bench::fmt(row.cpu_time, 1),
                   row.time_unit, std::to_string(row.iterations)});
    report.add_metric(cgps::bench::metric_key(row.name) + ".real_ns",
                      to_ns(row.real_time, row.time_unit),
                      cgps::MetricDirection::kLowerIsBetter);
    // Stable alias for the off-path tracing budget (DESIGN.md §8), so the
    // series survives any rename of the benchmark itself.
    if (row.name == "BM_TraceSpanOffPath")
      report.add_metric("trace_span.overhead.real_ns", to_ns(row.real_time, row.time_unit),
                        cgps::MetricDirection::kLowerIsBetter);
    // Stable aliases for the plan executor (DESIGN.md §10): fused vs unfused
    // kernel pairs, arena vs heap binding, whole-model planned vs eager, the
    // served Table-II forward, the forward matmuls, the training-shaped
    // backward matmuls, the FAVOR+ feature pass and the Performer's packed
    // projection and attend.
    static const std::pair<const char*, const char*> kExecAliases[] = {
        {"BM_ExecLinearReluUnfused", "exec.linear_relu.unfused.real_ns"},
        {"BM_ExecLinearReluFused", "exec.linear_relu.fused.real_ns"},
        {"BM_ExecGateChainUnfused", "exec.gate_chain.unfused.real_ns"},
        {"BM_ExecGateChainFused", "exec.gate_chain.fused.real_ns"},
        {"BM_ExecArenaBind", "exec.bind.arena.real_ns"},
        {"BM_ExecMallocBind", "exec.bind.malloc.real_ns"},
        {"BM_ExecEagerForward", "exec.forward.eager.real_ns"},
        {"BM_ExecPlannedForward", "exec.forward.planned.real_ns"},
        {"BM_ExecEagerTrainStep", "exec.train_step.eager.real_ns"},
        {"BM_ExecPlannedTrainStep", "exec.train_step.planned.real_ns"},
        {"BM_ExecPlannedForwardTable2", "exec.forward.planned_table2.real_ns"},
        {"BM_ExecNarrowMatmul/32/96", "exec.matmul_fwd.n96.real_ns"},
        {"BM_ExecNarrowMatmul/32/32", "exec.matmul_fwd.n32.real_ns"},
        {"BM_ExecNarrowMatmul/8/16", "exec.matmul_fwd.n16.real_ns"},
        {"BM_ExecBackwardMatmul/db/32/32", "exec.matmul_db.32x32.real_ns"},
        {"BM_ExecBackwardMatmul/db/32/8", "exec.matmul_db.32x8.real_ns"},
        {"BM_ExecBackwardMatmul/db/64/32", "exec.matmul_db.64x32.real_ns"},
        {"BM_ExecBackwardMatmul/da/32/32", "exec.matmul_da.32x32.real_ns"},
        {"BM_ExecBackwardMatmul/da/32/8", "exec.matmul_da.32x8.real_ns"},
        {"BM_ExecBackwardMatmul/da/64/32", "exec.matmul_da.64x32.real_ns"},
        {"BM_ExecFavorFeatures", "exec.favor_fwd.real_ns"},
        {"BM_ExecQkvProjection", "exec.qkv_fwd.real_ns"},
        {"BM_ExecPerformerAttend", "exec.performer_attend.real_ns"},
    };
    for (const auto& [bench, key] : kExecAliases) {
      if (row.name == bench)
        report.add_metric(key, to_ns(row.real_time, row.time_unit),
                          cgps::MetricDirection::kLowerIsBetter);
    }
  }
  report.add_table("google-benchmark runs", table);
  // Run-set size is pinned by the --benchmark_filter the caller passes: a
  // drift either way means the gate and its baseline ran different kernels.
  report.add_metric("runs", static_cast<double>(reporter.rows().size()),
                    cgps::MetricDirection::kTwoSided);
  report.write();
  return 0;
}
