// Equivalence tests for the minibatch-packed aggregation path (DESIGN.md
// §10). Three contracts are enforced here:
//
//  1. Forward and gradient agreement with the reference Aggregate: z is
//     bitwise the same as a sequence of Aggregate calls driven by an
//     identically seeded RNG, and the replayed gradients — every dense
//     parameter grad and every pending sparse embedding row — agree with
//     Aggregate's tape to a relative 1e-4 (summation order differs). This
//     holds for every variant, for multi-plan packs with mixed walk
//     lengths, and for the fallback / isolated-node paths.
//  2. Pack-width independence: the same plans run as one pack per edge or
//     as one pack over all of them, then one Backward, give bitwise-equal
//     losses, dense grads, sparse embedding grads and BatchNorm statistics.
//     This is why the trainer may pack a whole batch or shard per call.
//  3. Gradient reach: one Backward through a packed batch populates every
//     parameter group and the sparse embedding accumulator.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "core/aggregator.h"
#include "graph/generators/generators.h"
#include "nn/ops.h"

namespace ehna {
namespace {

TemporalGraph SmallGraph() {
  auto g = MakePaperDataset(PaperDataset::kDigg, 0.05, 42);
  EHNA_CHECK(g.ok());
  return std::move(g).value();
}

EhnaConfig SmallConfig() {
  EhnaConfig cfg;
  cfg.dim = 8;
  cfg.num_walks = 3;
  cfg.walk_length = 4;
  cfg.lstm_layers = 2;
  cfg.num_negatives = 1;
  cfg.seed = 1;
  return cfg;
}

/// Element-exact comparison; any mismatch reports the first bad index.
void ExpectBitwiseEqual(const Tensor& a, const Tensor& b,
                        const std::string& what) {
  ASSERT_EQ(a.numel(), b.numel()) << what;
  for (int64_t i = 0; i < a.numel(); ++i) {
    ASSERT_EQ(a[i], b[i]) << what << " diverges at element " << i;
  }
}

/// |a_i - b_i| <= rel * max_j |a_j|. The bound is relative to the tensor's
/// scale: reordered float sums differ by a few ulps of the largest term,
/// which a per-element relative bound would misjudge near zero.
void ExpectClose(const Tensor& a, const Tensor& b, float rel,
                 const std::string& what) {
  ASSERT_EQ(a.numel(), b.numel()) << what;
  float scale = 0.0f;
  for (int64_t i = 0; i < a.numel(); ++i) {
    scale = std::max(scale, std::abs(a[i]));
  }
  for (int64_t i = 0; i < a.numel(); ++i) {
    ASSERT_LE(std::abs(a[i] - b[i]), rel * scale)
        << what << " diverges at element " << i << ": " << a[i] << " vs "
        << b[i];
  }
}

std::vector<int64_t> RowIds(const SparseRowGrads& rows) {
  std::vector<int64_t> ids;
  for (const auto& [id, grad] : rows) ids.push_back(id);
  std::sort(ids.begin(), ids.end());
  return ids;
}

/// The rows of `rows` in id order, flattened into one tensor.
Tensor Stacked(const SparseRowGrads& rows) {
  std::vector<float> flat;
  for (int64_t id : RowIds(rows)) {
    const Tensor& g = rows.at(id);
    flat.insert(flat.end(), g.data(), g.data() + g.numel());
  }
  Tensor out(static_cast<int64_t>(flat.size()));
  std::copy(flat.begin(), flat.end(), out.data());
  return out;
}

/// A loss whose gradient reaches every z (z is unit-norm, so SumSquares(z)
/// alone would be flat): sum_i ||z_i - c_i||^2 for fixed distinct c_i.
Var ProbeLoss(const std::vector<Var>& z) {
  std::vector<Var> terms;
  for (size_t i = 0; i < z.size(); ++i) {
    Tensor c(z[i].value().numel());
    for (int64_t j = 0; j < c.numel(); ++j) {
      c[j] = 0.1f * static_cast<float>(i + 1) * static_cast<float>(j % 3 - 1);
    }
    terms.push_back(ag::SumSquares(ag::Sub(z[i], Var::Leaf(std::move(c)))));
  }
  return ag::SumN(terms);
}

/// Runs the same aggregation sequence through the reference per-call
/// Aggregate and through one AggregateBatch pack, from identically seeded
/// state, and asserts bitwise-equal outputs. Exercising them in ONE
/// sequence matters: BatchNorm running statistics evolve across calls, so
/// equality here also proves the packed path updates them in the same
/// order. In training mode it then backpropagates the same loss through
/// both tapes and compares every dense parameter grad and every pending
/// sparse embedding row (gathered into per-aggregator sinks).
void ExpectPackMatchesLegacy(const TemporalGraph& g, const EhnaConfig& cfg,
                             const std::vector<NodeId>& targets,
                             const std::vector<Timestamp>& times,
                             bool training) {
  const std::string tag = EhnaVariantName(cfg.variant);
  Rng rng_a(7), rng_b(7);
  Embedding emb_a(g.num_nodes(), cfg.dim, &rng_a);
  Embedding emb_b(g.num_nodes(), cfg.dim, &rng_b);
  EhnaAggregator agg_a(&g, &emb_a, cfg, &rng_a);
  EhnaAggregator agg_b(&g, &emb_b, cfg, &rng_b);
  auto sink_a = std::make_shared<SparseRowGrads>();
  auto sink_b = std::make_shared<SparseRowGrads>();
  agg_a.set_grad_sink(sink_a);
  agg_b.set_grad_sink(sink_b);

  std::vector<Var> legacy;
  for (size_t i = 0; i < targets.size(); ++i) {
    legacy.push_back(agg_a.Aggregate(targets[i], times[i], training, &rng_a));
  }

  std::vector<AggregationPlan> plans(targets.size());
  for (size_t i = 0; i < targets.size(); ++i) {
    agg_b.PlanAggregation(targets[i], times[i], &rng_b, &plans[i]);
  }
  std::vector<Var> packed = agg_b.AggregateBatch(plans, training);

  ASSERT_EQ(packed.size(), legacy.size());
  for (size_t i = 0; i < legacy.size(); ++i) {
    ExpectBitwiseEqual(legacy[i].value(), packed[i].value(),
                       tag + " plan " + std::to_string(i));
  }
  if (!training) return;

  Backward(ProbeLoss(legacy));
  Backward(ProbeLoss(packed));
  const std::vector<Var> params_a = agg_a.Parameters();
  const std::vector<Var> params_b = agg_b.Parameters();
  ASSERT_EQ(params_a.size(), params_b.size());
  for (size_t i = 0; i < params_a.size(); ++i) {
    ExpectClose(params_a[i].grad(), params_b[i].grad(), 1e-4f,
                tag + " param " + std::to_string(i) + " grad");
  }
  ASSERT_FALSE(sink_a->empty()) << tag;
  ASSERT_EQ(RowIds(*sink_a), RowIds(*sink_b)) << tag;
  // The pending rows are compared as one [rows, dim] matrix: a row whose
  // contributions cancel holds only rounding noise of the others' scale.
  ExpectClose(Stacked(*sink_a), Stacked(*sink_b), 1e-4f,
              tag + " pending embedding rows");
}

constexpr EhnaVariant kAllVariants[] = {
    EhnaVariant::kFull, EhnaVariant::kNoAttention, EhnaVariant::kStaticWalk,
    EhnaVariant::kSingleLayer};

/// SmallGraph plus one node without edges, the last id.
TemporalGraph SmallGraphWithIsolatedNode() {
  const TemporalGraph base = SmallGraph();
  auto g = TemporalGraph::FromEdges(base.edges(), base.num_nodes() + 1,
                                    base.directed());
  EHNA_CHECK(g.ok());
  return std::move(g).value();
}

TEST(AggregatorBatchTest, SinglePlanMatchesLegacyAllVariants) {
  TemporalGraph g = SmallGraph();
  for (EhnaVariant variant : kAllVariants) {
    EhnaConfig cfg = SmallConfig();
    cfg.variant = variant;
    for (bool training : {true, false}) {
      ExpectPackMatchesLegacy(g, cfg, {2}, {g.max_time() + 1.0}, training);
    }
  }
}

TEST(AggregatorBatchTest, MultiPlanPackMatchesLegacySequenceAllVariants) {
  TemporalGraph g = SmallGraphWithIsolatedNode();
  // Mixed targets force ragged walk lengths (tail plans drop out of the
  // pack mid-sequence), the fallback path (ref_time before any edge) and
  // the isolated path (empty fallback pool, zero neighborhood summary)
  // inside the same pack as standard plans.
  const NodeId isolated = g.num_nodes() - 1;
  const std::vector<NodeId> targets = {0, 5, 3, isolated, 17, 1};
  const std::vector<Timestamp> times = {
      g.max_time() + 1.0, g.max_time() + 1.0, g.min_time() - 1.0,
      g.max_time() + 1.0, g.max_time() + 1.0, g.max_time() + 1.0};
  for (EhnaVariant variant : kAllVariants) {
    EhnaConfig cfg = SmallConfig();
    cfg.variant = variant;
    ExpectPackMatchesLegacy(g, cfg, targets, times, /*training=*/true);
  }
}

TEST(AggregatorBatchTest, IsolatedNodeInPackMatchesLegacy) {
  auto made = TemporalGraph::FromEdges({{0, 1, 1.0, 1.0f}}, /*num_nodes=*/5);
  ASSERT_TRUE(made.ok());
  TemporalGraph g = std::move(made).value();
  // Node 4 is isolated: its fallback pool is empty and its neighborhood
  // summary is the zero vector; packing it next to a connected node must
  // not disturb either output.
  for (EhnaVariant variant : kAllVariants) {
    EhnaConfig cfg = SmallConfig();
    cfg.variant = variant;
    ExpectPackMatchesLegacy(g, cfg, {4, 0}, {10.0, 10.0}, /*training=*/true);
  }
}

TEST(AggregatorBatchTest, GradientsReachAllParameterGroups) {
  TemporalGraph g = SmallGraph();
  Rng rng(4);
  EhnaConfig cfg = SmallConfig();
  Embedding emb(g.num_nodes(), cfg.dim, &rng);
  EhnaAggregator agg(&g, &emb, cfg, &rng);
  std::vector<AggregationPlan> plans(3);
  agg.PlanAggregation(1, g.max_time() + 1.0, &rng, &plans[0]);
  agg.PlanAggregation(2, g.max_time() + 1.0, &rng, &plans[1]);
  agg.PlanAggregation(7, g.max_time() + 1.0, &rng, &plans[2]);
  std::vector<Var> z = agg.AggregateBatch(plans, /*training=*/true);
  std::vector<Var> terms;
  for (const Var& zi : z) terms.push_back(ag::SumSquares(zi));
  Backward(ag::SumN(terms));
  int with_grad = 0;
  for (const Var& p : agg.Parameters()) with_grad += p.grad().numel() > 0;
  EXPECT_GE(with_grad, 8);
  EXPECT_GT(emb.num_pending_rows(), 0u);
  emb.ClearGradients();
}

// ------------------------------------------------- pack-width independence

/// Eq. 6 for one edge from its z slice [zx, zy, negatives...], the shape
/// the trainer builds.
Var EdgeHinge(const std::vector<Var>& z, size_t base, size_t negatives) {
  Var d_pos = ag::SumSquares(ag::Sub(z[base], z[base + 1]));
  std::vector<Var> terms;
  for (size_t q = 0; q < negatives; ++q) {
    Var d_neg = ag::SumSquares(ag::Sub(z[base], z[base + 2 + q]));
    terms.push_back(ag::Hinge(ag::AddScalar(ag::Sub(d_pos, d_neg), 5.0f)));
  }
  return ag::SumN(terms);
}

/// The replay sentinel's contract (DESIGN.md §10): the same plans, run as
/// one AggregateBatch per edge on one tape or as one pack over all of
/// them, then one Backward, give bitwise-equal loss, dense parameter
/// grads, sparse embedding grads and BatchNorm running statistics. The
/// edges include history-less endpoints (fallback) and an isolated
/// negative.
TEST(AggregatorBatchTest, PackWidthDoesNotChangeGradientsAllVariants) {
  const TemporalGraph g = SmallGraphWithIsolatedNode();
  const NodeId isolated = g.num_nodes() - 1;
  constexpr size_t kEdges = 6;
  constexpr size_t kNegatives = 2;
  constexpr size_t kPlansPerEdge = 2 + kNegatives;
  for (EhnaVariant variant : kAllVariants) {
    const std::string tag = EhnaVariantName(variant);
    EhnaConfig cfg = SmallConfig();
    cfg.variant = variant;
    Rng rng_a(5), rng_b(5);
    Embedding emb_a(g.num_nodes(), cfg.dim, &rng_a);
    Embedding emb_b(g.num_nodes(), cfg.dim, &rng_b);
    EhnaAggregator per_edge(&g, &emb_a, cfg, &rng_a);
    EhnaAggregator one_pack(&g, &emb_b, cfg, &rng_b);
    auto sink_a = std::make_shared<SparseRowGrads>();
    auto sink_b = std::make_shared<SparseRowGrads>();
    per_edge.set_grad_sink(sink_a);
    one_pack.set_grad_sink(sink_b);

    // Plans for src, dst and the negatives of the first edges (the
    // earliest endpoints have no history yet); the last edge's second
    // negative is the isolated node.
    Rng plan_rng(9);
    std::vector<AggregationPlan> plans(kEdges * kPlansPerEdge);
    for (size_t e = 0; e < kEdges; ++e) {
      const TemporalEdge& edge = g.edges()[e * 7];
      AggregationPlan* p = &plans[e * kPlansPerEdge];
      per_edge.PlanAggregation(edge.src, edge.time, &plan_rng, &p[0]);
      per_edge.PlanAggregation(edge.dst, edge.time, &plan_rng, &p[1]);
      for (size_t q = 0; q < kNegatives; ++q) {
        const NodeId v = e + 1 == kEdges && q + 1 == kNegatives
                             ? isolated
                             : static_cast<NodeId>(plan_rng.UniformInt(
                                   g.num_nodes() - 1));
        per_edge.PlanAggregation(v, edge.time, &plan_rng, &p[2 + q]);
      }
    }

    ASSERT_GT(std::count_if(plans.begin(), plans.end(),
                            [](const AggregationPlan& p) {
                              return p.walks.empty();
                            }),
              0)
        << tag << ": no fallback plan in the pack";

    std::vector<Var> losses_a;
    for (size_t e = 0; e < kEdges; ++e) {
      const std::vector<AggregationPlan> edge_plans(
          plans.begin() + e * kPlansPerEdge,
          plans.begin() + (e + 1) * kPlansPerEdge);
      losses_a.push_back(EdgeHinge(
          per_edge.AggregateBatch(edge_plans, /*training=*/true), 0,
          kNegatives));
    }
    Var loss_a = ag::SumN(losses_a);
    Backward(loss_a);

    const std::vector<Var> z = one_pack.AggregateBatch(plans, true);
    std::vector<Var> losses_b;
    for (size_t e = 0; e < kEdges; ++e) {
      losses_b.push_back(EdgeHinge(z, e * kPlansPerEdge, kNegatives));
    }
    Var loss_b = ag::SumN(losses_b);
    Backward(loss_b);

    ExpectBitwiseEqual(loss_a.value(), loss_b.value(), tag + " loss");
    const std::vector<Var> params_a = per_edge.Parameters();
    const std::vector<Var> params_b = one_pack.Parameters();
    ASSERT_EQ(params_a.size(), params_b.size());
    for (size_t i = 0; i < params_a.size(); ++i) {
      ExpectBitwiseEqual(params_a[i].grad(), params_b[i].grad(),
                         tag + " param " + std::to_string(i) + " grad");
    }
    ASSERT_FALSE(sink_a->empty()) << tag;
    ASSERT_EQ(sink_a->size(), sink_b->size()) << tag;
    for (const auto& [row, grad] : *sink_a) {
      ASSERT_EQ(sink_b->count(row), 1u) << tag << " embedding row " << row;
      ExpectBitwiseEqual(grad, sink_b->at(row),
                         tag + " embedding row " + std::to_string(row));
    }
    const auto bns_a = per_edge.MutableBatchNorms();
    const auto bns_b = one_pack.MutableBatchNorms();
    for (size_t b = 0; b < bns_a.size(); ++b) {
      ExpectBitwiseEqual(bns_a[b]->running_mean(), bns_b[b]->running_mean(),
                         tag + " BN running mean");
      ExpectBitwiseEqual(bns_a[b]->running_var(), bns_b[b]->running_var(),
                         tag + " BN running var");
    }
  }
}

}  // namespace
}  // namespace ehna
