#ifndef EHNA_WALK_TEMPORAL_WALK_H_
#define EHNA_WALK_TEMPORAL_WALK_H_

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "graph/temporal_graph.h"
#include "util/rng.h"
#include "util/thread_pool.h"
#include "walk/walk.h"

namespace ehna {

/// Configuration of the EHNA temporal random walk (§IV.A).
struct TemporalWalkConfig {
  /// Return parameter: 1/p multiplies the weight of stepping back to the
  /// previous node (d_uw = 0 in Eq. 2). p = +inf forbids backtracking.
  double p = 1.0;
  /// In-out parameter: 1/q multiplies the weight of moving two hops away
  /// from the previous node (d_uw = 2); q > 1 biases toward BFS.
  double q = 1.0;
  /// Number of steps per walk (paper default l = 10). The realized walk may
  /// be shorter if it terminates early (no relevant neighbor).
  int walk_length = 10;
  /// Walks per target node (paper default k = 10).
  int num_walks = 10;
  /// Decay rate of the kernel K (Eq. 1) in *normalized-time* units: the
  /// kernel is exp(-decay_rate * (t_ref - t) / time_span). With
  /// decay_rate = time_span the paper's raw exp(-(t_ref - t)) is recovered;
  /// exposing the rate keeps the kernel numerically sane for second- or
  /// year-resolution timestamps alike. Must be finite and >= 0. See
  /// DESIGN.md §2.
  double decay_rate = 5.0;
  /// When false (paper's EHNA-RW ablation pairs with this), the kernel K is
  /// replaced by the static edge weight — i.e. a plain node2vec walk over
  /// the historical subgraph.
  bool use_time_decay = true;
};

/// Samples EHNA temporal random walks: starting from a target node `x` with
/// reference time `t_ref` (the timestamp of the edge formation being
/// analyzed), the walk moves only across historical edges whose timestamps
/// are non-increasing along the walk (Definition 2's relevance constraint),
/// with per-step transition weights
///   beta(u,w; p,q) * w_(v,w) * exp(-decay_rate * (t_ref - t_(v,w)) / span)
/// (Eq. 1-2). Walks terminate early when no relevant neighbor exists.
///
/// A step costs O(log d): t_ref is fixed for a whole walk, so the decay
/// kernel rebased to each node's latest adjacency time differs from Eq. 1's
/// by a factor common to every candidate of a step. The sampler keeps, per
/// node, the inclusive prefix sums of weight * exp(decay_rate * (t_i -
/// t_last(v)) / span) over the time-sorted adjacency, built lazily on the
/// first visit and reused until the graph changes; a beta-free step is one
/// binary search for the time cutoff and one for the drawn mass. Steps with
/// a beta factor (p or q != 1) use rejection sampling on top, and every
/// case the prefix cannot serve exactly falls back to an O(deg) scan.
/// DESIGN.md §2 has the derivation and the cache's lifetime.
///
/// Sampling is thread-safe: concurrent walks may build the same node's
/// prefix, and every thread reads the same bytes. Rebind is not; it must
/// not overlap sampling.
class TemporalWalkSampler {
 public:
  /// `graph` must outlive the sampler (or the next Rebind). Dies unless
  /// p, q > 0, walk_length, num_walks >= 1 and decay_rate is finite and
  /// >= 0 (a negative rate makes the rebased kernel overflow).
  TemporalWalkSampler(const TemporalGraph* graph, TemporalWalkConfig config);
  ~TemporalWalkSampler();

  /// Points the sampler at `graph` (or at the same graph after an in-place
  /// InsertEdges) and invalidates the cached prefixes in O(1), keeping their
  /// buffers; only a grown node or slot count reallocates. Sampling a graph
  /// whose version() changed since the last bind dies.
  void Rebind(const TemporalGraph* graph);

  /// Samples a single walk of at most `config.walk_length` steps (plus the
  /// starting node). The first candidate set is `NeighborsBefore(start,
  /// t_ref)`.
  Walk SampleWalk(NodeId start, Timestamp ref_time, Rng* rng) const;

  /// Samples `config.num_walks` walks from `start`.
  std::vector<Walk> SampleWalks(NodeId start, Timestamp ref_time,
                                Rng* rng) const;

  /// One (start node, reference time) anchor of a batched sampling request.
  struct Anchor {
    NodeId start = 0;
    Timestamp ref_time = 0.0;
  };

  /// Samples `config.num_walks` walks for every anchor, fanning the anchors
  /// out across `pool` (serial when `pool` is null or single-threaded).
  /// Anchor i draws from the independent stream Rng::Stream(seed, i), so
  /// the output is bitwise-identical for a fixed seed regardless of thread
  /// count or scheduling.
  std::vector<std::vector<Walk>> SampleWalksBatch(
      const std::vector<Anchor>& anchors, uint64_t seed,
      ThreadPool* pool) const;

  const TemporalWalkConfig& config() const { return config_; }

 private:
  struct PrefixCache;

  /// Eq. 2's beta(prev, cand) relative to its largest value: the acceptance
  /// probability of a proposed candidate.
  double AcceptanceRatio(NodeId prev, const AdjEntry& cand) const;

  /// exp(decay_rate * (time - anchor) / span), or 1 without decay: Eq. 1's
  /// kernel up to a factor shared by every candidate of a step.
  double Kernel(Timestamp time, Timestamp anchor) const;

  /// `node`'s inclusive prefix sums of weight * Kernel(t, t_last(node)) over
  /// its whole adjacency: one double per adjacency slot, built first (and
  /// counted in `*builds`) if the cache holds none for the bound graph.
  const double* NodePrefix(NodeId node, uint64_t* builds) const;

  /// The exact O(deg) step: the weights of Eq. 1-2 over `candidates`
  /// (beta dropped when `prev` is kInvalidNode), the kernel rebased to the
  /// newest candidate of nonzero beta * weight, one draw. Returns the chosen
  /// index, or -1 when every beta * weight is zero.
  int64_t ScanStep(NodeId prev, std::span<const AdjEntry> candidates,
                   Rng* rng) const;

  const TemporalGraph* graph_;
  TemporalWalkConfig config_;
  double inv_span_;
  /// True when Eq. 2's beta is 1 for every move (p = q = 1).
  bool beta_free_;
  /// Acceptance ratios beta / beta_max for d_uw = 0, 1, 2.
  double accept_return_, accept_one_hop_, accept_two_hop_;
  /// Steps with fewer candidates than this take the scan directly; then the
  /// scan is cheaper than the expected rejection trials.
  size_t min_rejection_candidates_;
  /// Rejection trials before a step falls back to the scan.
  int max_rejection_trials_;
  std::unique_ptr<PrefixCache> cache_;
};

}  // namespace ehna

#endif  // EHNA_WALK_TEMPORAL_WALK_H_
