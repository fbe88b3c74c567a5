// Micro-benchmarks of the performance-critical substrate components: walk
// sampling throughput, alias-table sampling, tensor matmul kernels, and
// the cost of EHNA's packed autograd aggregation. These are classic
// repeated-timing google-benchmark cases (unlike the table/figure
// reproduction binaries, which run one full experiment per invocation).
#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "core/aggregator.h"
#include "graph/generators/generators.h"
#include "nn/embedding.h"
#include "nn/init.h"
#include "nn/ops.h"
#include "util/alias_sampler.h"
#include "walk/node2vec_walk.h"
#include "walk/temporal_walk.h"

namespace {

using namespace ehna;

const TemporalGraph& BenchGraph() {
  static const TemporalGraph* graph = [] {
    auto g = MakePaperDataset(PaperDataset::kDblp, 0.15, 1);
    EHNA_CHECK(g.ok());
    return new TemporalGraph(std::move(g).value());
  }();
  return *graph;
}

const TemporalGraph& HubBenchGraph() {
  static const TemporalGraph* graph = [] {
    auto g = MakePaperDataset(PaperDataset::kYelp, 0.15, 1);
    EHNA_CHECK(g.ok());
    return new TemporalGraph(std::move(g).value());
  }();
  return *graph;
}

/// One 10-step temporal walk from a random node after the last edge.
/// Args: {graph, (p, q) point}. Graph 0 is the DBLP substitute, graph 1 the
/// hub-heavy Yelp substitute, whose long candidate lists are where a
/// per-step O(deg) scan hurts. The (p, q) points are (1, 1), where every
/// step is beta-free, (2, 0.5) and (4, 0.25), where steps after the first
/// go through rejection. Prefixes build lazily during the first
/// iterations, so the steady state is a warm cache, as in training.
void BM_TemporalWalkSample(benchmark::State& state) {
  static constexpr double kPq[][2] = {{1.0, 1.0}, {2.0, 0.5}, {4.0, 0.25}};
  const TemporalGraph& g =
      state.range(0) == 0 ? BenchGraph() : HubBenchGraph();
  TemporalWalkConfig cfg;
  cfg.walk_length = 10;
  cfg.p = kPq[state.range(1)][0];
  cfg.q = kPq[state.range(1)][1];
  TemporalWalkSampler sampler(&g, cfg);
  Rng rng(1);
  const Timestamp ref = g.max_time() + 1.0;
  for (auto _ : state) {
    const NodeId v = static_cast<NodeId>(rng.UniformInt(g.num_nodes()));
    benchmark::DoNotOptimize(sampler.SampleWalk(v, ref, &rng));
  }
  state.SetItemsProcessed(state.iterations());
  state.SetLabel(std::string(state.range(0) == 0 ? "dblp" : "yelp") +
                 " p=" + std::to_string(cfg.p).substr(0, 4) +
                 " q=" + std::to_string(cfg.q).substr(0, 4));
}
BENCHMARK(BM_TemporalWalkSample)->ArgsProduct({{0, 1}, {0, 1, 2}});

void BM_Node2VecWalkSample(benchmark::State& state) {
  const TemporalGraph& g = BenchGraph();
  Node2VecWalkConfig cfg;
  cfg.walk_length = static_cast<int>(state.range(0));
  Node2VecWalkSampler sampler(&g, cfg);
  Rng rng(2);
  for (auto _ : state) {
    const NodeId v = static_cast<NodeId>(rng.UniformInt(g.num_nodes()));
    benchmark::DoNotOptimize(sampler.SampleWalk(v, &rng));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_Node2VecWalkSample)->Arg(20)->Arg(80);

void BM_AliasSample(benchmark::State& state) {
  Rng rng(3);
  std::vector<double> weights(state.range(0));
  for (double& w : weights) w = rng.Uniform(0.1, 10.0);
  AliasSampler sampler(weights);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sampler.Sample(&rng));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_AliasSample)->Arg(1000)->Arg(1000000);

void BM_MatMul(benchmark::State& state) {
  const int64_t n = state.range(0);
  Rng rng(4);
  Tensor a(n, n), b(n, n);
  UniformInit(&a, -1, 1, &rng);
  UniformInit(&b, -1, 1, &rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(MatMul(a, b));
  }
  state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
}
BENCHMARK(BM_MatMul)->Arg(16)->Arg(64)->Arg(128);

void BM_AutogradBackward(benchmark::State& state) {
  // Cost of building + differentiating a small MLP-like graph.
  Rng rng(5);
  Tensor w0(32, 32), x0(8, 32);
  UniformInit(&w0, -1, 1, &rng);
  UniformInit(&x0, -1, 1, &rng);
  Var w = Var::Leaf(w0, true);
  for (auto _ : state) {
    Var x = Var::Leaf(x0);
    Var y = ag::Tanh(ag::MatMul(ag::Tanh(ag::MatMul(x, w)), w));
    Var loss = ag::SumSquares(y);
    Backward(loss);
    w.ZeroGrad();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_AutogradBackward);

/// The production aggregation path: PlanAggregation for each of
/// range(1) random targets, then one training-mode AggregateBatch pack
/// over all of them (the tape a trainer shard builds). Args: {dim, plans}.
void BM_EhnaAggregate(benchmark::State& state) {
  const TemporalGraph& g = BenchGraph();
  EhnaConfig cfg;
  cfg.dim = static_cast<int64_t>(state.range(0));
  cfg.num_walks = 4;
  cfg.walk_length = 5;
  const size_t num_plans = static_cast<size_t>(state.range(1));
  Rng rng(6);
  Embedding emb(g.num_nodes(), cfg.dim, &rng);
  EhnaAggregator agg(&g, &emb, cfg, &rng);
  const Timestamp ref = g.max_time() + 1.0;
  std::vector<AggregationPlan> plans(num_plans);
  for (auto _ : state) {
    for (AggregationPlan& plan : plans) {
      const NodeId v = static_cast<NodeId>(rng.UniformInt(g.num_nodes()));
      agg.PlanAggregation(v, ref, &rng, &plan);
    }
    benchmark::DoNotOptimize(agg.AggregateBatch(plans, /*training=*/true));
    emb.ClearGradients();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(num_plans));
}
BENCHMARK(BM_EhnaAggregate)
    ->ArgNames({"dim", "plans"})
    ->Args({16, 1})
    ->Args({16, 64})
    ->Args({64, 1})
    ->Args({64, 64});

}  // namespace

BENCHMARK_MAIN();
