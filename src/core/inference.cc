#include "core/inference.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <thread>
#include <vector>

namespace ehna {

namespace {

// Node cap of one packed inference chunk (see InferenceEngine::Infer).
constexpr size_t kChunkNodes = 64;

}  // namespace

InferenceEngine::InferenceEngine(const TemporalGraph* graph,
                                 Embedding* embedding,
                                 EhnaAggregator* aggregator,
                                 const EhnaConfig& config)
    : graph_(graph),
      embedding_(embedding),
      aggregator_(aggregator),
      config_(config) {
  EHNA_CHECK(graph != nullptr);
  EHNA_CHECK(embedding != nullptr);
  EHNA_CHECK(aggregator != nullptr);
  EHNA_CHECK_EQ(embedding->dim(), config.dim);
}

int InferenceEngine::num_threads() const {
  if (config_.num_threads > 0) return config_.num_threads;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? static_cast<int>(hw) : 1;
}

void InferenceEngine::RebindGraph(const TemporalGraph* graph) {
  EHNA_CHECK(graph != nullptr);
  graph_ = graph;
  aggregator_->ResetGraph(graph);
}

ThreadPool* InferenceEngine::EnsurePool() {
  if (owned_pool_ == nullptr) {
    owned_pool_ =
        std::make_unique<ThreadPool>(static_cast<size_t>(num_threads()));
  }
  return owned_pool_.get();
}

void InferenceEngine::FinalizeIsolated(NodeId v, float* dst) const {
  const int64_t d = config_.dim;
  const float* src = embedding_->RowData(v);
  double norm = 0.0;
  for (int64_t j = 0; j < d; ++j) {
    norm += static_cast<double>(src[j]) * src[j];
  }
  const float inv =
      norm > 1e-24 ? 1.0f / static_cast<float>(std::sqrt(norm)) : 0.0f;
  for (int64_t j = 0; j < d; ++j) dst[j] = src[j] * inv;
}

void InferenceEngine::InferChunk(std::span<const NodeId> chunk,
                                 Rng* serial_rng, Tensor* out) {
  // Thread-local: each pool worker opens its own scope.
  NoGradScope no_grad;
  std::vector<AggregationPlan> plans;
  plans.reserve(chunk.size());
  for (const NodeId v : chunk) {
    auto recent = graph_->MostRecentInteraction(v);
    if (!recent.ok()) {
      FinalizeIsolated(v, out->Row(v));  // draws nothing, as it always has.
      continue;
    }
    plans.emplace_back();
    if (serial_rng != nullptr) {
      aggregator_->PlanAggregation(v, recent.value(), serial_rng,
                                   &plans.back());
    } else {
      Rng node_rng = Rng::Stream(config_.seed ^ kFinalizeStreamSalt, v);
      aggregator_->PlanAggregation(v, recent.value(), &node_rng,
                                   &plans.back());
    }
  }
  if (plans.empty()) return;
  const std::vector<Var> z =
      aggregator_->AggregateBatch(plans, /*training=*/false);
  const int64_t d = config_.dim;
  for (size_t i = 0; i < plans.size(); ++i) {
    std::copy_n(z[i].value().data(), d, out->Row(plans[i].target));
  }
}

void InferenceEngine::Infer(std::span<const NodeId> nodes, Rng* serial_rng,
                            ThreadPool* pool, Tensor* out) {
  const size_t n = nodes.size();
  const bool parallel =
      serial_rng == nullptr && pool != nullptr && pool->num_threads() > 1;
  // A chunk's transient packs are ~3 × walks × length × dim floats per
  // node, so the cap bounds inference memory at a few MB per thread while
  // still feeding the LSTM GEMMs hundreds of rows. The parallel path
  // splits smaller inputs evenly across the workers. Rows are a function
  // of each node's plan alone (row-local kernels), so the chunking never
  // changes a bit.
  size_t chunk = kChunkNodes;
  if (parallel) {
    chunk = std::clamp<size_t>((n + pool->num_threads() - 1) /
                                   pool->num_threads(),
                               1, kChunkNodes);
  }
  const size_t num_chunks = (n + chunk - 1) / chunk;
  auto run = [&](size_t c) {
    const size_t begin = c * chunk;
    InferChunk(nodes.subspan(begin, std::min(chunk, n - begin)), serial_rng,
               out);
  };
  if (parallel && num_chunks > 1) {
    pool->ParallelFor(num_chunks, run);
  } else {
    for (size_t c = 0; c < num_chunks; ++c) run(c);
  }
}

Tensor InferenceEngine::ComputeFinalEmbeddings(Rng* serial_rng,
                                               ThreadPool* pool) {
  const NodeId n = graph_->num_nodes();
  Tensor final(n, config_.dim);
  std::vector<NodeId> all(n);
  std::iota(all.begin(), all.end(), NodeId{0});
  if (num_threads() > 1) {
    // Chunks fan out freely (pure read of the trained state); the per-node
    // stream makes the result a function of the seed alone, independent of
    // thread count and scheduling.
    Infer(all, nullptr, pool != nullptr ? pool : EnsurePool(), &final);
  } else {
    EHNA_CHECK(serial_rng != nullptr);
    Infer(all, serial_rng, nullptr, &final);
  }
  return final;
}

Tensor InferenceEngine::FinalizeEmbeddings(Rng* serial_rng, ThreadPool* pool) {
  Tensor final = ComputeFinalEmbeddings(serial_rng, pool);
  // Write back only after every node has been aggregated against the
  // *trained* table (§IV.D's e_x := z_x), so later aggregations do not read
  // already-replaced rows.
  const NodeId n = graph_->num_nodes();
  for (NodeId v = 0; v < n; ++v) embedding_->SetRow(v, final.Row(v));
  return final;
}

void InferenceEngine::RefreshInto(std::span<const NodeId> nodes, Tensor* out,
                                  ThreadPool* pool) {
  EHNA_CHECK(out != nullptr);
  EHNA_CHECK_GE(out->rows(), static_cast<int64_t>(graph_->num_nodes()));
  EHNA_CHECK_EQ(out->cols(), config_.dim);
  if (pool == nullptr && num_threads() > 1) pool = EnsurePool();
  Infer(nodes, nullptr, pool, out);
}

}  // namespace ehna
