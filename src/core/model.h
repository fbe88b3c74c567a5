#ifndef EHNA_CORE_MODEL_H_
#define EHNA_CORE_MODEL_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/aggregator.h"
#include "core/ehna_config.h"
#include "graph/noise_distribution.h"
#include "graph/temporal_graph.h"
#include "nn/arena.h"
#include "nn/optim.h"
#include "util/thread_pool.h"

namespace ehna {

/// The complete EHNA model and trainer (§IV): per-edge historical
/// neighborhood aggregation for both endpoints and the sampled negatives,
/// the margin-based hinge objective of Eq. 6/7, sparse-Adam updates for the
/// embedding table, dense Adam for the network parameters, and the final
/// inference pass that replaces each node's embedding with its aggregated
/// embedding anchored at its most recent interaction.
///
/// Training is one mini-batch loop over a batch source. Each batch is
/// split into shards; each shard's aggregations are planned (every RNG
/// draw captured up front), run through one packed tape, and
/// backpropagated; the shard gradients are reduced in shard order before
/// one optimizer step. With `config.num_threads == 1` the single shard
/// runs on the master aggregator and draws the master RNG in edge order.
/// With N > 1 (0 = hardware concurrency) each shard runs on a worker
/// replica and each edge draws its own (seed, epoch, position) stream, so a
/// step stays mathematically equal to the one-thread batch up to float
/// summation order, and is reproducible per (seed, num_threads).
/// Inference (FinalizeEmbeddings) fans out across nodes with per-node RNG
/// streams, reproducible for a fixed seed regardless of thread count.
///
/// `config.pipeline_depth >= 1` changes only where shards are planned: a
/// producer on a dedicated pipeline thread plans up to `pipeline_depth`
/// batches ahead behind a bounded queue (DESIGN.md §11). Planning draws the
/// same values wherever it runs and compute draws none, so at a given
/// thread count every depth yields the checkpoint bytes of depth 0.
class EhnaModel {
 public:
  /// `graph` must outlive the model.
  EhnaModel(const TemporalGraph* graph, const EhnaConfig& config);
  ~EhnaModel();

  /// Per-epoch training statistics.
  struct EpochStats {
    double avg_loss = 0.0;
    size_t edges = 0;
    double seconds = 0.0;
  };

  /// One pass over (a shuffled sample of) the training edges.
  EpochStats TrainEpoch();

  /// Trains until `config.epochs` (or `epochs` if > 0) epochs have been
  /// *completed*, counting epochs restored from a checkpoint — so a model
  /// resumed at epoch k runs exactly the remaining epochs and lands on the
  /// same final state as an uninterrupted run. `progress`, when set, is
  /// invoked after each epoch with its zero-based index. When
  /// `config.checkpoint_dir` is non-empty, a snapshot is written every
  /// `config.checkpoint_every` completed epochs (and after the final one),
  /// with keep-last-N rotation; snapshot failures are logged, not fatal.
  std::vector<EpochStats> Train(
      int epochs = 0,
      const std::function<void(int epoch, const EpochStats&)>& progress = {});

  /// Builds the autograd loss for one edge (Eq. 6, or Eq. 7 when
  /// bidirectional negatives are enabled) as a one-edge pack drawn from the
  /// master RNG. Exposed for tests.
  Var EdgeLoss(const TemporalEdge& edge, bool training);

  /// §IV.D final pass: one aggregation per node anchored at its most recent
  /// edge; the aggregated embeddings become the final embeddings (written
  /// back into the table) and are returned as an [N, dim] matrix. Isolated
  /// nodes keep their (L2-normalized) raw embeddings. Delegates to the
  /// trainer-free InferenceEngine (core/inference.h) against this model's
  /// graph/table/aggregator — byte-identical to the pre-split
  /// implementation (pinned by tests/serve_test.cc).
  Tensor FinalizeEmbeddings();

  /// Aggregated embedding of one node at a reference time (inference mode).
  Tensor AggregateAt(NodeId node, Timestamp ref_time);

  /// The resolved worker count: `config.num_threads`, with 0 mapped to the
  /// hardware concurrency (at least 1).
  int num_threads() const;

  /// Serializes the complete training state — aggregator parameters, dense
  /// Adam moments and step counter, BatchNorm running statistics, the
  /// embedding table with its sparse per-row Adam state, the RNG stream
  /// state, and the completed-epoch counter — to `path` atomically (temp
  /// file + rename). Implemented in checkpoint.cc; format in checkpoint.h.
  Status SaveCheckpoint(const std::string& path) const;

  /// Restores a snapshot written by SaveCheckpoint. The model must have
  /// been constructed over the same graph shape and config fingerprint
  /// (seed, dim, variant, LSTM depth). On any validation failure —
  /// truncation, corruption, or fingerprint mismatch — the model is left
  /// unmodified and the Status describes the rejection.
  Status RestoreCheckpoint(const std::string& path);

  /// Epochs completed so far; restored by RestoreCheckpoint, and what
  /// Train() counts toward its target, so a resumed run finishes exactly
  /// the epochs an uninterrupted run would have.
  uint64_t completed_epochs() const { return epoch_index_; }

  const Tensor& embedding_table() const { return embedding_.table(); }
  Embedding* embedding() { return &embedding_; }
  EhnaAggregator* aggregator() { return &aggregator_; }
  const EhnaConfig& config() const { return config_; }

  /// The master RNG stream (serialized into checkpoints). Exposed so a
  /// standalone InferenceEngine driven over this model's state can consume
  /// the exact draw sequence the model's own serial finalize would — the
  /// basis of the inference-core equivalence tests.
  Rng* mutable_rng() { return &rng_; }

 private:
  /// One data-parallel worker: a replica aggregator with its own parameter
  /// leaves, embedding gradient sink, and tape arena.
  struct Worker;

  /// One batch of the epoch order, split into shards, with each shard's
  /// plan captures once PlanShard has filled them.
  struct BatchPack;

  /// Yields an epoch's packs in order, either sized on demand or sized and
  /// planned ahead on the pipeline thread (pipeline_depth >= 1).
  class BatchSource;

  /// Plans every aggregation one edge's loss needs — src, dst, then each
  /// sampled negative — appending to `plans` while consuming `rng` in a
  /// fixed order (walk sampling, fallback draws and negative sampling
  /// interleave). The edge's plan span is [old plans->size(),
  /// plans->size()). Planning only reads the master aggregator, so any
  /// thread may run it.
  void PlanEdge(const TemporalEdge& edge, Rng* rng,
                std::vector<AggregationPlan>* plans);

  /// Assembles Eq. 6/7 from an edge's slice of packed-aggregation outputs
  /// laid out [zx, zy, negatives...] starting at `base`.
  Var EdgeLossFromZ(const std::vector<Var>& z, size_t base);

  /// The epoch's shuffled (and possibly capped) edge-index order, drawn
  /// from the master RNG — the first thing every epoch consumes.
  std::vector<size_t> ShuffledEpochOrder();

  /// Sizes `pack` as the batch starting at edge position `begin`: at most
  /// `batch_edges` edges, split into min(count, num_threads()) shards.
  void StartPack(size_t begin, size_t epoch_edges, BatchPack* pack) const;

  /// Fills one shard's plans. At one thread the master RNG is drawn in
  /// edge order; at N threads each edge draws its own (seed, epoch,
  /// position) stream, so shards can be planned anywhere, in any order.
  void PlanShard(const std::vector<size_t>& order, size_t shard,
                 BatchPack* pack);

  /// Forward and backward of one planned shard on `aggregator` (the master
  /// or a worker replica), inside the caller's arena scope. Returns the
  /// shard's summed edge loss.
  double ComputeShard(EhnaAggregator* aggregator, const BatchPack& pack,
                      size_t shard);

  /// The consumer: syncs the replicas, computes every shard (planning it
  /// first on its own thread unless `planned`), reduces gradients in shard
  /// order, and takes one optimizer step. Returns the batch's summed loss.
  double TrainPack(const std::vector<size_t>& order, BatchPack* pack,
                   bool planned);

  /// Lazily builds the pool (and, for EnsureWorkers, the worker replicas)
  /// sized to num_threads().
  ThreadPool* EnsurePool();
  void EnsureWorkers();

  /// Lazily builds the single-thread producer pool, and grows the recycled
  /// batch packs to `num_packs` (pipeline_depth + 1).
  ThreadPool* EnsurePipelinePool();
  void EnsurePacks(size_t num_packs);

  /// Copies master parameter values and BatchNorm running statistics into a
  /// worker replica (called between optimizer steps, never concurrently
  /// with them).
  void SyncWorkerFromMaster(Worker* worker);

  /// Accumulates a worker's parameter gradients and sparse embedding
  /// gradients into the master, then clears the worker-side state.
  void ReduceWorkerGrads(Worker* worker);

  /// Folds the workers' post-batch BatchNorm running statistics back into
  /// the master as an edge-count-weighted average.
  void MergeWorkerBatchNormStats(size_t num_used);

  const TemporalGraph* graph_;
  EhnaConfig config_;
  Rng rng_;
  Embedding embedding_;
  EhnaAggregator aggregator_;
  NoiseDistribution noise_;
  Adam optimizer_;

  /// Bump allocator for the one-thread trainer's per-batch tapes. Active
  /// (via TensorArena::Scope) around each batch's forward/backward, and
  /// Reset once the optimizer step has consumed the gradients (DESIGN.md
  /// §9).
  TensorArena arena_;

  std::unique_ptr<ThreadPool> pool_;
  std::vector<std::unique_ptr<Worker>> workers_;

  /// A one-thread pool the prefetch producer runs on (so its exceptions
  /// surface at the Wait join point); built only when pipeline_depth >= 1.
  std::unique_ptr<ThreadPool> pipeline_pool_;
  /// Recycled batch packs: one when synchronous, pipeline_depth + 1 when
  /// prefetching.
  std::vector<std::unique_ptr<BatchPack>> packs_;

  uint64_t epoch_index_ = 0;  // namespaces the per-edge training streams.
};

}  // namespace ehna

#endif  // EHNA_CORE_MODEL_H_
