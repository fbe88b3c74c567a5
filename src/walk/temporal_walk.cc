#include "walk/temporal_walk.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>

#include "util/logging.h"
#include "util/metrics.h"

namespace ehna {
namespace {

/// A step with a beta factor whose candidate count is below this multiple
/// of beta_max / beta_min takes the scan directly: on short lists the
/// expected trials (up to beta_max / beta_min of them) cost more than the
/// scan. 0.5 timed best or within 10% of best in BM_TemporalWalkSample
/// against 0.25, 1 and 2, at (p, q) = (4, 0.25) and (0.25, 4) on both
/// graphs.
constexpr double kRejectionCandidatesPerRatio = 0.5;
/// Rejection trials per unit of beta_max / beta_min before the scan takes
/// over; at the worst acceptance rate, e^-4 of the steps reach the scan.
constexpr double kTrialsPerRatio = 4.0;
/// Upper clamp of beta_max / beta_min; kTrialsPerRatio times it fits int.
constexpr double kMaxBetaRatio = 1e8;
static_assert(kTrialsPerRatio * kMaxBetaRatio <
              static_cast<double>(std::numeric_limits<int>::max()));

/// Per-thread scratch for the scan's prefix sums. SampleWalk runs
/// concurrently from worker shards; a function-local vector would pay one
/// allocation per call and serialize the workers on the allocator.
std::vector<double>& ScanScratch() {
  static thread_local std::vector<double> scratch;
  return scratch;
}

/// Prefix slots are shared between threads that may build the same node at
/// once (with identical bytes), so every access is a relaxed atomic; on
/// x86-64 that is a plain load or store.
double LoadSlot(const double* slot) {
  return std::atomic_ref<double>(*const_cast<double*>(slot))
      .load(std::memory_order_relaxed);
}

/// The first index in [0, n) whose inclusive prefix is >= pick, clamped to
/// n - 1. The prefix is non-decreasing, so ties on zero-weight candidates
/// resolve to the earliest index.
size_t LowerBound(const double* prefix, size_t n, double pick) {
  size_t lo = 0;
  size_t len = n;
  while (len > 0) {
    const size_t half = len / 2;
    if (LoadSlot(prefix + lo + half) < pick) {
      lo += half + 1;
      len -= half + 1;
    } else {
      len = half;
    }
  }
  return lo < n ? lo : n - 1;
}

/// Positive, finite and not subnormal: a total a prefix can be drawn from
/// at full relative precision.
bool UsableTotal(double total) { return std::isnormal(total) && total > 0.0; }

}  // namespace

/// The per-node prefix sums of the bound graph. `stamps[v] == generation`
/// marks node v's slots as built for the current bind; a rebind bumps the
/// generation instead of touching the arrays. Slots are never
/// value-initialized: a node's slots are read only after its stamp says
/// they were written.
struct TemporalWalkSampler::PrefixCache {
  uint64_t graph_version = 0;
  uint32_t generation = 0;
  std::unique_ptr<uint32_t[]> stamps;
  size_t node_capacity = 0;
  std::unique_ptr<double[]> slots;
  size_t slot_capacity = 0;
};

TemporalWalkSampler::TemporalWalkSampler(const TemporalGraph* graph,
                                         TemporalWalkConfig config)
    : config_(config), cache_(std::make_unique<PrefixCache>()) {
  EHNA_CHECK(graph != nullptr);
  EHNA_CHECK_GT(config_.p, 0.0);
  EHNA_CHECK_GT(config_.q, 0.0);
  EHNA_CHECK_GE(config_.walk_length, 1);
  EHNA_CHECK_GE(config_.num_walks, 1);
  EHNA_CHECK(std::isfinite(config_.decay_rate) && config_.decay_rate >= 0.0)
      << "decay_rate must be finite and >= 0, got " << config_.decay_rate;

  // Eq. 2's beta for d_uw = 0, 1, 2; only their ratios matter.
  const double beta_return = std::isinf(config_.p) ? 0.0 : 1.0 / config_.p;
  const double beta_two_hop = 1.0 / config_.q;
  const double beta_max = std::max({beta_return, 1.0, beta_two_hop});
  accept_return_ = beta_return / beta_max;
  accept_one_hop_ = 1.0 / beta_max;
  accept_two_hop_ = beta_two_hop / beta_max;
  beta_free_ = config_.p == 1.0 && config_.q == 1.0;

  // beta_min over the non-zero beta: a zero beta (p or q = inf) bounds no
  // acceptance rate, and the trial cap handles lists that are mostly zero.
  double beta_min = 1.0;
  if (beta_return > 0.0) beta_min = std::min(beta_min, beta_return);
  if (beta_two_hop > 0.0) beta_min = std::min(beta_min, beta_two_hop);
  // Clamped so an extreme p or q keeps kTrialsPerRatio * ratio within int;
  // at that ratio every beta step scans directly anyway.
  const double ratio = std::min(beta_max / beta_min, kMaxBetaRatio);
  min_rejection_candidates_ =
      static_cast<size_t>(std::ceil(kRejectionCandidatesPerRatio * ratio));
  max_rejection_trials_ = static_cast<int>(std::ceil(kTrialsPerRatio * ratio));
  Rebind(graph);
}

TemporalWalkSampler::~TemporalWalkSampler() = default;

void TemporalWalkSampler::Rebind(const TemporalGraph* graph) {
  EHNA_CHECK(graph != nullptr);
  graph_ = graph;
  inv_span_ = 1.0 / graph->TimeSpan();
  PrefixCache& cache = *cache_;
  if (cache.generation != 0 && cache.graph_version == graph->version()) {
    return;  // same contents: every built prefix is still exact.
  }
  cache.graph_version = graph->version();
  // Growth is geometric so a stream of small refreshes reallocates rarely.
  const size_t nodes = graph->num_nodes();
  if (nodes > cache.node_capacity) {
    cache.node_capacity = std::max(nodes, cache.node_capacity * 3 / 2);
    cache.stamps = std::make_unique<uint32_t[]>(cache.node_capacity);
  }
  const size_t slots = graph->num_adjacency_slots();
  if (slots > cache.slot_capacity) {
    cache.slot_capacity = std::max(slots, cache.slot_capacity * 3 / 2);
    cache.slots = std::make_unique_for_overwrite<double[]>(cache.slot_capacity);
  }
  if (++cache.generation == 0) {  // wrapped: no stale stamp may match.
    std::fill_n(cache.stamps.get(), cache.node_capacity, 0u);
    cache.generation = 1;
  }
}

double TemporalWalkSampler::AcceptanceRatio(NodeId prev,
                                            const AdjEntry& cand) const {
  if (cand.neighbor == prev) return accept_return_;  // d_uw = 0.
  if (accept_one_hop_ == accept_two_hop_) return accept_one_hop_;  // q = 1.
  return graph_->HasEdge(prev, cand.neighbor) ? accept_one_hop_  // d_uw = 1.
                                              : accept_two_hop_;  // d_uw = 2.
}

const double* TemporalWalkSampler::NodePrefix(NodeId node,
                                              uint64_t* builds) const {
  PrefixCache& cache = *cache_;
  double* slots = cache.slots.get() + graph_->AdjacencyOffset(node);
  std::atomic_ref<uint32_t> stamp(cache.stamps[node]);
  if (stamp.load(std::memory_order_acquire) == cache.generation) return slots;

  // Threads that build one node's prefix at once store identical values,
  // and a reader reads only after acquiring a stamp some thread released
  // after its stores, so every thread sees the same bytes whichever built
  // them.
  const std::span<const AdjEntry> adjacency = graph_->Neighbors(node);
  const Timestamp newest = adjacency.back().time;
  double total = 0.0;
  for (size_t i = 0; i < adjacency.size(); ++i) {
    total += adjacency[i].weight * Kernel(adjacency[i].time, newest);
    std::atomic_ref<double>(slots[i]).store(total, std::memory_order_relaxed);
  }
  stamp.store(cache.generation, std::memory_order_release);
  ++*builds;
  return slots;
}

double TemporalWalkSampler::Kernel(Timestamp time, Timestamp anchor) const {
  if (!config_.use_time_decay) return 1.0;
  return std::exp(config_.decay_rate * ((time - anchor) * inv_span_));
}

int64_t TemporalWalkSampler::ScanStep(NodeId prev,
                                      std::span<const AdjEntry> candidates,
                                      Rng* rng) const {
  // beta * weight first, then the kernel rebased to the newest candidate
  // that can be drawn at all: that candidate's term is exactly its beta *
  // weight, so the total cannot underflow to zero while any move is
  // allowed, and zero-mass candidates newer than it never meet exp.
  std::vector<double>& prefix = ScanScratch();
  const size_t n = candidates.size();
  prefix.resize(n);
  size_t newest = n;
  for (size_t i = n; i-- > 0;) {
    double mass = candidates[i].weight;
    if (prev != kInvalidNode && mass > 0.0) {
      mass *= AcceptanceRatio(prev, candidates[i]);
    }
    prefix[i] = mass;
    if (newest == n && mass > 0.0) newest = i;
  }
  if (newest == n) return -1;  // every move forbidden (p = inf dead end).
  const Timestamp newest_time = candidates[newest].time;
  double total = 0.0;
  for (size_t i = 0; i < n; ++i) {
    if (prefix[i] > 0.0) {
      total += prefix[i] * Kernel(candidates[i].time, newest_time);
    }
    prefix[i] = total;
  }
  return static_cast<int64_t>(
      LowerBound(prefix.data(), n, rng->Uniform() * total));
}

Walk TemporalWalkSampler::SampleWalk(NodeId start, Timestamp ref_time,
                                     Rng* rng) const {
  // Corpus telemetry (DESIGN.md §8). Counts accumulate locally and flush
  // once per walk, so the per-step hot loop stays untouched.
  static Counter* const walks_total =
      MetricsRegistry::Global().GetCounter("walk.temporal.walks");
  static Counter* const steps_total =
      MetricsRegistry::Global().GetCounter("walk.temporal.steps");
  static Counter* const early_total =
      MetricsRegistry::Global().GetCounter("walk.temporal.early_terminations");
  static Counter* const rejected_total =
      MetricsRegistry::Global().GetCounter("walk.temporal.rejected_steps");
  static Counter* const builds_total =
      MetricsRegistry::Global().GetCounter("walk.temporal.prefix_builds");
  static Counter* const trials_total =
      MetricsRegistry::Global().GetCounter("walk.temporal.rejection_trials");
  static Counter* const scans_total =
      MetricsRegistry::Global().GetCounter("walk.temporal.scan_fallbacks");
  // The degenerate anchor case: every edge in the start node's history is
  // at-or-after `ref_time`, so the very first NeighborsBefore query comes
  // back empty and the walk is the bare anchor (length 1, zero RNG draws).
  // Downstream this is what routes an aggregation to the GraphSAGE-style
  // fallback; the dedicated counter makes the case observable instead of
  // blending into ordinary mid-walk early terminations.
  static Counter* const no_history_total =
      MetricsRegistry::Global().GetCounter("walk.temporal.no_history_anchors");
  EHNA_CHECK(graph_->version() == cache_->graph_version)
      << "graph changed since the sampler was bound; call Rebind";
  uint64_t steps_taken = 0;
  bool terminated_early = false;
  bool rejected = false;
  uint64_t prefix_builds = 0;
  uint64_t rejection_trials = 0;
  uint64_t scan_fallbacks = 0;

  Walk walk;
  walk.reserve(config_.walk_length + 1);
  walk.push_back(WalkStep{start, 0.0, 0.0f});

  NodeId prev = kInvalidNode;
  NodeId current = start;
  Timestamp frontier_time = ref_time;

  for (int step = 0; step < config_.walk_length; ++step) {
    // Relevance constraint (Definition 2): only historical edges no newer
    // than the edge we just traversed (or the target edge, on step one).
    const std::span<const AdjEntry> candidates =
        graph_->NeighborsBefore(current, frontier_time);
    if (candidates.empty()) {  // early termination (§IV.A).
      terminated_early = true;
      break;
    }
    const size_t cut = candidates.size();

    // Beta-free steps draw straight from the prefix; beta steps propose
    // from it and accept with probability beta / beta_max. A step the
    // prefix cannot serve exactly (an unusable total, too few candidates
    // for rejection to pay, or no acceptance within the trial cap) scans.
    const bool beta_step = prev != kInvalidNode && !beta_free_;
    int64_t chosen = -1;
    if (!beta_step || cut >= min_rejection_candidates_) {
      const double* prefix = NodePrefix(current, &prefix_builds);
      const double total = LoadSlot(prefix + cut - 1);
      if (UsableTotal(total) && !beta_step) {
        chosen = static_cast<int64_t>(
            LowerBound(prefix, cut, rng->Uniform() * total));
      } else if (UsableTotal(total)) {
        for (int t = 0; t < max_rejection_trials_; ++t) {
          ++rejection_trials;
          const size_t i = LowerBound(prefix, cut, rng->Uniform() * total);
          if (rng->Uniform() < AcceptanceRatio(prev, candidates[i])) {
            chosen = static_cast<int64_t>(i);
            break;
          }
        }
      }
    }
    if (chosen < 0) {
      ++scan_fallbacks;
      chosen = ScanStep(beta_step ? prev : kInvalidNode, candidates, rng);
    }
    if (chosen < 0) {  // all moves forbidden (e.g. p = inf dead end).
      rejected = true;
      break;
    }

    const AdjEntry& next = candidates[static_cast<size_t>(chosen)];
    walk.push_back(WalkStep{next.neighbor, next.time, next.weight});
    prev = current;
    current = next.neighbor;
    frontier_time = next.time;
    ++steps_taken;
  }

  walks_total->Add(1);
  steps_total->Add(steps_taken);
  if (terminated_early) early_total->Add(1);
  if (terminated_early && steps_taken == 0) no_history_total->Add(1);
  if (rejected) rejected_total->Add(1);
  if (prefix_builds != 0) builds_total->Add(prefix_builds);
  if (rejection_trials != 0) trials_total->Add(rejection_trials);
  if (scan_fallbacks != 0) scans_total->Add(scan_fallbacks);
  return walk;
}

std::vector<Walk> TemporalWalkSampler::SampleWalks(NodeId start,
                                                   Timestamp ref_time,
                                                   Rng* rng) const {
  std::vector<Walk> walks;
  walks.reserve(config_.num_walks);
  for (int i = 0; i < config_.num_walks; ++i) {
    walks.push_back(SampleWalk(start, ref_time, rng));
  }
  return walks;
}

std::vector<std::vector<Walk>> TemporalWalkSampler::SampleWalksBatch(
    const std::vector<Anchor>& anchors, uint64_t seed,
    ThreadPool* pool) const {
  EHNA_TRACE_PHASE("walk.phase.sample_batch");
  std::vector<std::vector<Walk>> out(anchors.size());
  const auto sample_one = [&](size_t i) {
    Rng rng = Rng::Stream(seed, static_cast<uint64_t>(i));
    out[i] = SampleWalks(anchors[i].start, anchors[i].ref_time, &rng);
  };
  if (pool != nullptr && pool->num_threads() > 1) {
    pool->ParallelFor(anchors.size(), sample_one);
  } else {
    for (size_t i = 0; i < anchors.size(); ++i) sample_one(i);
  }
  return out;
}

}  // namespace ehna
