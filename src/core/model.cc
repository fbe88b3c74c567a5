#include "core/model.h"

#include <algorithm>
#include <numeric>
#include <optional>
#include <thread>
#include <utility>

#include "core/checkpoint.h"
#include "core/inference.h"
#include "nn/ops.h"
#include "util/metrics.h"
#include "util/pipeline.h"
#include "util/timer.h"

namespace ehna {

namespace {

// Seed salt separating the per-edge training streams from the per-node
// inference streams (inference.h's kFinalizeStreamSalt) and from everything
// the master rng_ draws.
constexpr uint64_t kTrainStreamSalt = 0x45484E4154524E00ULL;  // "EHNATRN"

// Training stream index for edge `position` of epoch `epoch`: the epoch id
// occupies the high bits so streams never collide across epochs (supports
// up to 2^40 edges per epoch and 2^24 epochs).
uint64_t TrainStream(uint64_t epoch, uint64_t position) {
  return (epoch << 40) | position;
}

}  // namespace

/// A data-parallel worker replica. The aggregator owns fresh parameter
/// leaves (initial values are irrelevant — SyncWorkerFromMaster overwrites
/// them before the first forward pass) and routes its embedding gathers to
/// a private sparse sink, so a worker's forward/backward touches no state
/// shared with other workers: the embedding table and graph are only read,
/// and all writes land in the replica's own tape, parameter grads, and
/// sink.
struct EhnaModel::Worker {
  Rng init_rng;
  std::shared_ptr<SparseRowGrads> sink;
  EhnaAggregator aggregator;
  std::vector<Var> params;
  /// Per-replica tape arena: activated on the shard's pool thread for the
  /// batch's forward/backward, Reset by the main thread after the shard's
  /// gradients (which live in it) have been reduced into the master.
  TensorArena arena;
  /// Edges in this replica's last shard (weights its BatchNorm statistics).
  size_t edges = 0;

  Worker(const TemporalGraph* graph, Embedding* embedding,
         const EhnaConfig& config, Rng rng)
      : init_rng(rng),
        sink(std::make_shared<SparseRowGrads>()),
        aggregator(graph, embedding, config, &init_rng),
        params(aggregator.Parameters()) {
    aggregator.set_grad_sink(sink);
  }
};

/// One batch: edge positions [begin, begin + count) of the epoch order,
/// split into `shards` contiguous shards with exactly ParallelForShards'
/// decomposition, plus each shard's plans once PlanShard has filled them
/// (heap-backed captures of every RNG draw the shard's aggregations need).
struct EhnaModel::BatchPack {
  size_t begin = 0;
  size_t count = 0;
  size_t shards = 0;
  std::vector<std::vector<AggregationPlan>> shard_plans;
  std::vector<std::vector<size_t>> shard_edge_base;
};

/// Where an epoch's packs come from (DESIGN.md §11). With pipeline_depth =
/// 0, Next() only sizes the next batch and its shards are planned where
/// they compute. With pipeline_depth = N >= 1, a producer task on the
/// pipeline thread sizes and plans packs up to N ahead behind a bounded
/// queue, recycling N + 1 packs, and Next() pops finished ones. The
/// queues' mutexes are the happens-before edges that hand a pack between
/// the two threads. Either way the consumer sees the same packs in the
/// same order, and planning draws the same RNG values.
class EhnaModel::BatchSource {
 public:
  BatchSource(EhnaModel* model, const std::vector<size_t>& order)
      : model_(model), order_(order) {
    const size_t depth = static_cast<size_t>(model->config_.pipeline_depth);
    model->EnsurePacks(depth + 1);
    if (depth == 0) return;
    free_.emplace(depth + 1);
    ready_.emplace(depth, TrainPipelineQueueMetrics());
    for (size_t s = 0; s <= depth; ++s) free_->Push(model->packs_[s].get());
    producer_ = model->EnsurePipelinePool();
    producer_->Submit([this] {
      try {
        Produce();
      } catch (...) {
        ready_->Close();  // wake the consumer; Finish() rethrows.
        throw;
      }
      ready_->Close();
    });
  }

  // The producer holds `this`.
  BatchSource(const BatchSource&) = delete;
  BatchSource& operator=(const BatchSource&) = delete;

  /// Abandons an unfinished prefetch (the consumer threw): closes both
  /// queues so the producer cannot block, then joins it without throwing.
  ~BatchSource() {
    if (producer_ == nullptr) return;
    ready_->Close();
    free_->Close();
    producer_->CollectError();
  }

  bool prefetching() const { return producer_ != nullptr; }

  /// The next pack, or nullptr once the epoch is drained. Recycles the
  /// previously returned pack.
  BatchPack* Next() {
    if (producer_ == nullptr) {
      BatchPack* pack = model_->packs_[0].get();
      if (next_ >= order_.size()) return nullptr;
      model_->StartPack(next_, order_.size(), pack);
      next_ += pack->count;
      return pack;
    }
    if (current_ != nullptr) free_->Push(current_);
    EHNA_TRACE_PHASE("train.phase.pipeline_wait");
    std::optional<BatchPack*> popped = ready_->Pop();
    current_ = popped.value_or(nullptr);
    return current_;
  }

  /// Joins the producer once the epoch is drained, surfacing its error.
  void Finish() {
    if (producer_ == nullptr) return;
    free_->Close();
    std::exchange(producer_, nullptr)->Wait();
  }

 private:
  void Produce() {
    static Counter* const packs_counter =
        MetricsRegistry::Global().GetCounter("pipeline.packs");
    for (size_t i = 0; i < order_.size();) {
      std::optional<BatchPack*> slot = free_->Pop();
      if (!slot.has_value()) return;  // the consumer abandoned the epoch.
      BatchPack* pack = *slot;
      model_->StartPack(i, order_.size(), pack);
      i += pack->count;
      {
        EHNA_TRACE_PHASE("train.phase.pipeline_plan");
        for (size_t s = 0; s < pack->shards; ++s) {
          model_->PlanShard(order_, s, pack);
        }
      }
      packs_counter->Add(1);
      if (!ready_->Push(pack)) return;
    }
  }

  EhnaModel* model_;
  const std::vector<size_t>& order_;
  size_t next_ = 0;  // synchronous source: the next edge position.
  ThreadPool* producer_ = nullptr;
  std::optional<BoundedQueue<BatchPack*>> free_;
  std::optional<BoundedQueue<BatchPack*>> ready_;
  BatchPack* current_ = nullptr;
};

EhnaModel::EhnaModel(const TemporalGraph* graph, const EhnaConfig& config)
    : graph_(graph),
      config_(config),
      rng_(config.seed),
      embedding_(graph->num_nodes(), config.dim, &rng_),
      aggregator_(graph, &embedding_, config, &rng_),
      noise_(*graph),
      optimizer_(aggregator_.Parameters(), config.learning_rate) {
  EHNA_CHECK_GT(graph->num_nodes(), 0u);
  EHNA_CHECK_GT(graph->num_edges(), 0u);
  // Eq. 6/7 is a sum over negatives: with none, every batch loss is empty.
  EHNA_CHECK_GE(config.num_negatives, 1);
}

EhnaModel::~EhnaModel() = default;

int EhnaModel::num_threads() const {
  if (config_.num_threads > 0) return config_.num_threads;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? static_cast<int>(hw) : 1;
}

ThreadPool* EhnaModel::EnsurePool() {
  if (pool_ == nullptr) {
    pool_ = std::make_unique<ThreadPool>(static_cast<size_t>(num_threads()));
  }
  return pool_.get();
}

void EhnaModel::EnsureWorkers() {
  EnsurePool();
  while (workers_.size() < static_cast<size_t>(num_threads())) {
    workers_.push_back(std::make_unique<Worker>(
        graph_, &embedding_, config_,
        Rng::Stream(config_.seed, 0xC0FFEEULL + workers_.size())));
  }
}

ThreadPool* EhnaModel::EnsurePipelinePool() {
  if (pipeline_pool_ == nullptr) {
    pipeline_pool_ = std::make_unique<ThreadPool>(1);
  }
  return pipeline_pool_.get();
}

void EhnaModel::EnsurePacks(size_t num_packs) {
  while (packs_.size() < num_packs) {
    packs_.push_back(std::make_unique<BatchPack>());
  }
}

void EhnaModel::SyncWorkerFromMaster(Worker* worker) {
  const std::vector<Var>& master = optimizer_.params();
  EHNA_CHECK_EQ(master.size(), worker->params.size());
  for (size_t i = 0; i < master.size(); ++i) {
    worker->params[i].mutable_value() = master[i].value();
  }
  const auto master_bns = aggregator_.MutableBatchNorms();
  const auto worker_bns = worker->aggregator.MutableBatchNorms();
  for (size_t b = 0; b < master_bns.size(); ++b) {
    worker_bns[b]->SetRunningStats(master_bns[b]->running_mean(),
                                   master_bns[b]->running_var(),
                                   master_bns[b]->stats_initialized());
  }
}

void EhnaModel::ReduceWorkerGrads(Worker* worker) {
  const std::vector<Var>& master = optimizer_.params();
  for (size_t i = 0; i < master.size(); ++i) {
    const Tensor& g = worker->params[i].grad();
    if (g.numel() > 0) master[i].AccumulateGrad(g);
    worker->params[i].ZeroGrad();
  }
  embedding_.AccumulateSparse(*worker->sink);
  worker->sink->clear();
}

void EhnaModel::MergeWorkerBatchNormStats(size_t num_used) {
  const auto master_bns = aggregator_.MutableBatchNorms();
  for (size_t b = 0; b < master_bns.size(); ++b) {
    Tensor mean, var;
    double total = 0.0;
    for (size_t w = 0; w < num_used; ++w) {
      Worker& worker = *workers_[w];
      BatchNorm1d* bn = worker.aggregator.MutableBatchNorms()[b];
      if (worker.edges == 0 || !bn->stats_initialized()) continue;
      const float weight = static_cast<float>(worker.edges);
      if (mean.numel() == 0) {
        mean = Tensor(bn->running_mean().numel());
        var = Tensor(bn->running_var().numel());
      }
      mean.Axpy(weight, bn->running_mean());
      var.Axpy(weight, bn->running_var());
      total += weight;
    }
    if (total > 0.0) {
      mean.ScaleInPlace(1.0f / static_cast<float>(total));
      var.ScaleInPlace(1.0f / static_cast<float>(total));
      master_bns[b]->SetRunningStats(mean, var, /*initialized=*/true);
    }
  }
}

Var EhnaModel::EdgeLoss(const TemporalEdge& edge, bool training) {
  std::vector<AggregationPlan> plans;
  PlanEdge(edge, &rng_, &plans);
  return EdgeLossFromZ(aggregator_.AggregateBatch(plans, training), 0);
}

void EhnaModel::PlanEdge(const TemporalEdge& edge, Rng* rng,
                         std::vector<AggregationPlan>* plans) {
  const Timestamp t = edge.time;
  plans->emplace_back();
  aggregator_.PlanAggregation(edge.src, t, rng, &plans->back());
  plans->emplace_back();
  aggregator_.PlanAggregation(edge.dst, t, rng, &plans->back());
  const NodeId exclude[] = {edge.src, edge.dst};
  const int rounds = config_.bidirectional_negatives ? 2 : 1;
  for (int r = 0; r < rounds; ++r) {
    for (int q = 0; q < config_.num_negatives; ++q) {
      const NodeId v = noise_.SampleExcluding(exclude, rng);
      plans->emplace_back();
      aggregator_.PlanAggregation(v, t, rng, &plans->back());
    }
  }
}

Var EhnaModel::EdgeLossFromZ(const std::vector<Var>& z, size_t base) {
  const Var& zx = z[base];
  const Var& zy = z[base + 1];
  Var d_pos = ag::SumSquares(ag::Sub(zx, zy));

  std::vector<Var> terms;
  terms.reserve(static_cast<size_t>(config_.num_negatives) *
                (config_.bidirectional_negatives ? 2 : 1));
  size_t idx = base + 2;
  auto add_negative_terms = [&](const Var& anchor) {
    for (int q = 0; q < config_.num_negatives; ++q) {
      Var d_neg = ag::SumSquares(ag::Sub(anchor, z[idx++]));
      terms.push_back(
          ag::Hinge(ag::AddScalar(ag::Sub(d_pos, d_neg), config_.margin)));
    }
  };
  add_negative_terms(zx);                                       // Eq. 6.
  if (config_.bidirectional_negatives) add_negative_terms(zy);  // Eq. 7.
  return ag::SumN(terms);
}

std::vector<size_t> EhnaModel::ShuffledEpochOrder() {
  std::vector<size_t> order(graph_->edges().size());
  std::iota(order.begin(), order.end(), size_t{0});
  rng_.Shuffle(&order);
  if (config_.max_edges_per_epoch > 0 &&
      order.size() > config_.max_edges_per_epoch) {
    order.resize(config_.max_edges_per_epoch);
  }
  return order;
}

void EhnaModel::StartPack(size_t begin, size_t epoch_edges,
                          BatchPack* pack) const {
  const size_t batch = static_cast<size_t>(std::max(1, config_.batch_edges));
  pack->begin = begin;
  pack->count = std::min(batch, epoch_edges - begin);
  pack->shards = ThreadPool::ResolveShards(
      pack->count, static_cast<size_t>(num_threads()));
  pack->shard_plans.resize(pack->shards);
  pack->shard_edge_base.resize(pack->shards);
}

void EhnaModel::PlanShard(const std::vector<size_t>& order, size_t shard,
                          BatchPack* pack) {
  const auto& edges = graph_->edges();
  std::vector<AggregationPlan>& plans = pack->shard_plans[shard];
  std::vector<size_t>& edge_base = pack->shard_edge_base[shard];
  plans.clear();
  edge_base.clear();
  const auto [a, b] = ThreadPool::ShardBounds(pack->count, pack->shards, shard);
  for (size_t j = a; j < b; ++j) {
    const size_t pos = pack->begin + j;
    edge_base.push_back(plans.size());
    if (num_threads() == 1) {
      PlanEdge(edges[order[pos]], &rng_, &plans);
    } else {
      // Streams are keyed on (seed, epoch, edge position), so where and in
      // which order shards are planned cannot change a draw.
      Rng edge_rng = Rng::Stream(config_.seed ^ kTrainStreamSalt,
                                 TrainStream(epoch_index_, pos));
      PlanEdge(edges[order[pos]], &edge_rng, &plans);
    }
  }
}

double EhnaModel::ComputeShard(EhnaAggregator* aggregator,
                               const BatchPack& pack, size_t shard) {
  // The shard's aggregations run on one packed tape with a single backward
  // pass; the 1/count scale makes the shards' summed gradient the batch
  // mean's.
  const std::vector<Var> z =
      aggregator->AggregateBatch(pack.shard_plans[shard], /*training=*/true);
  std::vector<Var> losses;
  losses.reserve(pack.shard_edge_base[shard].size());
  double loss_sum = 0.0;
  for (size_t base : pack.shard_edge_base[shard]) {
    losses.push_back(EdgeLossFromZ(z, base));
    loss_sum += losses.back().value()[0];
  }
  Backward(ag::ScalarMul(ag::SumN(losses),
                         1.0f / static_cast<float>(pack.count)));
  return loss_sum;
}

double EhnaModel::TrainPack(const std::vector<size_t>& order, BatchPack* pack,
                            bool planned) {
  // One thread computes on the master aggregator; N threads compute each
  // shard on its worker replica, synced from the master first.
  const bool replicas = num_threads() > 1;
  for (size_t s = 0; replicas && s < pack->shards; ++s) {
    SyncWorkerFromMaster(workers_[s].get());
  }
  std::vector<double> shard_loss(pack->shards);
  {
    EHNA_TRACE_PHASE("train.phase.forward_backward");
    auto run_shard = [&](size_t s, size_t a, size_t b) {
      if (!planned) PlanShard(order, s, pack);
      // The shard's whole tape — every forward value, stashed intermediate
      // and backward gradient — bump-allocates from its arena. Long-lived
      // state (parameters, Adam moments, BN running stats, the sparse
      // embedding accumulator) stays heap-backed; see DESIGN.md §9.
      Worker* worker = replicas ? workers_[s].get() : nullptr;
      TensorArena::Scope tape_scope(replicas ? &worker->arena : &arena_);
      shard_loss[s] = ComputeShard(
          replicas ? &worker->aggregator : &aggregator_, *pack, s);
      if (replicas) worker->edges = b - a;
    };
    if (replicas) {
      pool_->ParallelForShards(pack->count, pack->shards, run_shard);
    } else {
      run_shard(0, 0, pack->count);
    }
  }

  double loss_sum = 0.0;
  for (double l : shard_loss) loss_sum += l;
  if (replicas) {
    // Deterministic reduction: workers merge in shard order, so the result
    // depends only on (seed, num_threads), not on scheduling.
    EHNA_TRACE_PHASE("train.phase.grad_reduce");
    for (size_t s = 0; s < pack->shards; ++s) {
      ReduceWorkerGrads(workers_[s].get());
    }
    MergeWorkerBatchNormStats(pack->shards);
    // Replica gradients and sinks have been drained into the master (all
    // heap-backed); the worker tapes are dead.
    for (size_t s = 0; s < pack->shards; ++s) workers_[s]->arena.Reset();
  }

  {
    EHNA_TRACE_PHASE("train.phase.optimizer_step");
    ClipGradNorm(optimizer_.params(), config_.grad_clip);
    optimizer_.Step();
    optimizer_.ZeroGrad();
    embedding_.ApplyAdam(config_.learning_rate *
                         config_.embedding_lr_multiplier);
  }
  // Gradients were consumed by the step above; the master tape is dead.
  if (!replicas) arena_.Reset();
  return loss_sum;
}

EhnaModel::EpochStats EhnaModel::TrainEpoch() {
  // Epoch-level telemetry (DESIGN.md §8): completed epochs/edges, the last
  // epoch's loss, and walks/sec + edges/sec throughput derived from the
  // walk engine's own counter.
  static Counter* const epochs_total =
      MetricsRegistry::Global().GetCounter("train.epochs");
  static Counter* const edges_total =
      MetricsRegistry::Global().GetCounter("train.edges");
  static Counter* const walks_counter =
      MetricsRegistry::Global().GetCounter("walk.temporal.walks");
  static Gauge* const loss_gauge =
      MetricsRegistry::Global().GetGauge("train.last_epoch_loss");
  static Gauge* const edges_per_sec =
      MetricsRegistry::Global().GetGauge("train.edges_per_sec");
  static Gauge* const walks_per_sec =
      MetricsRegistry::Global().GetGauge("train.walks_per_sec");
  static StreamingHistogram* const epoch_hist =
      MetricsRegistry::Global().GetHistogram("train.phase.epoch");

  const uint64_t walks_before = walks_counter->Total();
  Timer timer;
  if (num_threads() > 1) EnsureWorkers();
  const std::vector<size_t> order = ShuffledEpochOrder();
  double loss_sum = 0.0;
  {
    BatchSource source(this, order);
    while (BatchPack* pack = source.Next()) {
      loss_sum += TrainPack(order, pack, source.prefetching());
    }
    source.Finish();
  }
  ++epoch_index_;

  EpochStats stats;
  stats.edges = order.size();
  stats.avg_loss = order.empty() ? 0.0 : loss_sum / order.size();
  stats.seconds = timer.ElapsedSeconds();
  epochs_total->Add(1);
  edges_total->Add(stats.edges);
  loss_gauge->Set(stats.avg_loss);
  epoch_hist->Record(static_cast<uint64_t>(stats.seconds * 1e9));
  if (stats.seconds > 0.0) {
    edges_per_sec->Set(static_cast<double>(stats.edges) / stats.seconds);
    walks_per_sec->Set(
        static_cast<double>(walks_counter->Total() - walks_before) /
        stats.seconds);
  }
  return stats;
}

std::vector<EhnaModel::EpochStats> EhnaModel::Train(
    int epochs,
    const std::function<void(int, const EpochStats&)>& progress) {
  const uint64_t total =
      static_cast<uint64_t>(epochs > 0 ? epochs : config_.epochs);
  std::unique_ptr<CheckpointManager> checkpoints;
  if (!config_.checkpoint_dir.empty()) {
    checkpoints = std::make_unique<CheckpointManager>(config_.checkpoint_dir,
                                                      config_.checkpoint_keep);
  }
  const uint64_t every =
      static_cast<uint64_t>(std::max(1, config_.checkpoint_every));
  std::vector<EpochStats> history;
  if (epoch_index_ < total) history.reserve(total - epoch_index_);
  // `total` counts *completed* epochs (including ones restored from a
  // checkpoint), so a resumed run finishes exactly the epochs the
  // uninterrupted run would have.
  while (epoch_index_ < total) {
    history.push_back(TrainEpoch());
    if (progress) {
      progress(static_cast<int>(epoch_index_) - 1, history.back());
    }
    if (checkpoints != nullptr &&
        (epoch_index_ % every == 0 || epoch_index_ == total)) {
      EHNA_TRACE_PHASE("train.phase.checkpoint_save");
      const Status st = checkpoints->Save(*this, epoch_index_);
      if (!st.ok()) {
        EHNA_LOG(Warning) << "checkpoint save failed at epoch "
                          << epoch_index_ << ": " << st;
      }
    }
  }
  return history;
}

Tensor EhnaModel::AggregateAt(NodeId node, Timestamp ref_time) {
  // A one-plan packed batch: the same draws from rng_ and the same bits as
  // the per-call Aggregate.
  NoGradScope no_grad;
  std::vector<AggregationPlan> plan(1);
  aggregator_.PlanAggregation(node, ref_time, &rng_, &plan[0]);
  return aggregator_.AggregateBatch(plan, /*training=*/false)[0].value();
}

Tensor EhnaModel::FinalizeEmbeddings() {
  InferenceEngine engine(graph_, &embedding_, &aggregator_, config_);
  return engine.FinalizeEmbeddings(&rng_,
                                   num_threads() > 1 ? EnsurePool() : nullptr);
}

}  // namespace ehna
