#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <set>
#include <tuple>

#include "graph/generators/generators.h"
#include "graph/temporal_graph.h"
#include "walk/ctdne_walk.h"
#include "walk/node2vec_walk.h"
#include "util/logging.h"
#include "util/metrics.h"
#include "util/thread_pool.h"
#include "walk/temporal_walk.h"
#include "walk/walk_stats.h"

namespace ehna {
namespace {

TemporalGraph MakePathGraph() {
  // 0 -(t3)- 1 -(t2)- 2 -(t1)- 3: times decrease along the path, so a
  // temporal walk from 0 at ref >= 3 can reach 3.
  auto g = TemporalGraph::FromEdges(
      {{0, 1, 3.0, 1.0f}, {1, 2, 2.0, 1.0f}, {2, 3, 1.0, 1.0f}});
  EHNA_CHECK(g.ok());
  return std::move(g).value();
}

TemporalGraph MakeIncreasingPath() {
  // Times increase away from 0: the relevance constraint blocks the walk
  // after the first hop.
  auto g = TemporalGraph::FromEdges(
      {{0, 1, 1.0, 1.0f}, {1, 2, 2.0, 1.0f}, {2, 3, 3.0, 1.0f}});
  EHNA_CHECK(g.ok());
  return std::move(g).value();
}

// ---------------------------------------------------------- TemporalWalk

TEST(TemporalWalkTest, WalkStartsAtTarget) {
  TemporalGraph g = MakePathGraph();
  TemporalWalkConfig cfg;
  cfg.walk_length = 5;
  TemporalWalkSampler sampler(&g, cfg);
  Rng rng(1);
  Walk w = sampler.SampleWalk(0, 10.0, &rng);
  ASSERT_FALSE(w.empty());
  EXPECT_EQ(w[0].node, 0u);
}

TEST(TemporalWalkTest, TimestampsNonIncreasingAlongWalk) {
  // Definition 2's relevance constraint, as sampled backwards in time.
  TemporalGraph g = MakePathGraph();
  TemporalWalkConfig cfg;
  cfg.walk_length = 10;
  TemporalWalkSampler sampler(&g, cfg);
  Rng rng(2);
  for (int i = 0; i < 50; ++i) {
    Walk w = sampler.SampleWalk(0, 10.0, &rng);
    for (size_t j = 2; j < w.size(); ++j) {
      EXPECT_LE(w[j].edge_time, w[j - 1].edge_time);
    }
  }
}

TEST(TemporalWalkTest, NeverTraversesEdgesAfterRefTime) {
  TemporalGraph g = MakeIncreasingPath();
  TemporalWalkConfig cfg;
  cfg.walk_length = 10;
  TemporalWalkSampler sampler(&g, cfg);
  Rng rng(3);
  for (int i = 0; i < 50; ++i) {
    Walk w = sampler.SampleWalk(1, 1.5, &rng);  // only (0,1)@1 is history.
    for (size_t j = 1; j < w.size(); ++j) {
      EXPECT_LE(w[j].edge_time, 1.5);
    }
  }
}

TEST(TemporalWalkTest, EarlyTerminationWithoutRelevantNeighbors) {
  TemporalGraph g = MakeIncreasingPath();
  TemporalWalkConfig cfg;
  cfg.walk_length = 10;
  TemporalWalkSampler sampler(&g, cfg);
  Rng rng(4);
  // From node 0 at ref 0.5 there is no historical edge at all.
  Walk w = sampler.SampleWalk(0, 0.5, &rng);
  EXPECT_EQ(w.size(), 1u);
}

TEST(TemporalWalkTest, NoHistoryAnchorIsCountedAndDrawsNoRng) {
  // Degenerate anchor: every edge in the start node's history is at-or-
  // after the reference time, so the walk is the bare anchor. This must be
  // observable (dedicated counter, distinct from mid-walk terminations) and
  // must consume zero RNG — the aggregator's fast path relies on that to
  // skip the k sampler calls without perturbing the draw sequence.
  TemporalGraph g = MakeIncreasingPath();
  TemporalWalkConfig cfg;
  cfg.walk_length = 10;
  TemporalWalkSampler sampler(&g, cfg);

  MetricsRegistry& reg = MetricsRegistry::Global();
  reg.Reset();
  Rng rng(11);
  Rng untouched(11);
  Walk w = sampler.SampleWalk(0, 0.5, &rng);  // 0's only edge is at t=1.
  ASSERT_EQ(w.size(), 1u);
  EXPECT_EQ(w[0].node, 0u);
  EXPECT_EQ(rng.Next(), untouched.Next());

  MetricsSnapshot snap = reg.Snapshot();
  EXPECT_EQ(snap.CounterValue("walk.temporal.no_history_anchors"), 1u);
  EXPECT_EQ(snap.CounterValue("walk.temporal.early_terminations"), 1u);

  // A walk from an anchor that does have history is not a no-history
  // anchor, whatever happens later in the walk.
  Walk mid = sampler.SampleWalk(1, 1.5, &rng);  // (0,1)@1 is history.
  ASSERT_GT(mid.size(), 1u);
  snap = reg.Snapshot();
  EXPECT_EQ(snap.CounterValue("walk.temporal.no_history_anchors"), 1u);
}

TEST(TemporalWalkTest, NoBacktrackWhenPIsInfinite) {
  TemporalGraph g = MakeIncreasingPath();
  TemporalWalkConfig cfg;
  cfg.walk_length = 10;
  cfg.p = std::numeric_limits<double>::infinity();
  TemporalWalkSampler sampler(&g, cfg);
  Rng rng(5);
  // From 3 at ref 10: history 3->2@3 then 2->1@2 then 1->0@1; backtracking
  // forbidden, so the walk is the simple path 3,2,1,0.
  Walk w = sampler.SampleWalk(3, 10.0, &rng);
  std::vector<NodeId> nodes = WalkNodes(w);
  EXPECT_EQ(nodes, (std::vector<NodeId>{3, 2, 1, 0}));
}

TEST(TemporalWalkTest, SmallPEncouragesBacktracking) {
  TemporalGraph g = MakePathGraph();
  TemporalWalkConfig cfg;
  cfg.walk_length = 4;
  cfg.p = 0.01;  // strong return bias.
  cfg.q = 1.0;
  TemporalWalkSampler sampler(&g, cfg);
  Rng rng(6);
  int returns = 0, total = 0;
  for (int i = 0; i < 200; ++i) {
    Walk w = sampler.SampleWalk(0, 10.0, &rng);
    if (w.size() >= 3) {
      ++total;
      if (w[2].node == w[0].node) ++returns;
    }
  }
  ASSERT_GT(total, 0);
  EXPECT_GT(returns, total / 2);
}

TEST(TemporalWalkTest, TimeDecayPrefersRecentEdges) {
  // Star around 0 with one recent and one old edge; both valid history.
  auto made = TemporalGraph::FromEdges(
      {{0, 1, 1.0, 1.0f}, {0, 2, 99.0, 1.0f}, {1, 3, 0.5, 1.0f},
       {2, 3, 50.0, 1.0f}});
  ASSERT_TRUE(made.ok());
  TemporalGraph g = std::move(made).value();
  TemporalWalkConfig cfg;
  cfg.walk_length = 1;
  cfg.decay_rate = 8.0;
  TemporalWalkSampler sampler(&g, cfg);
  Rng rng(7);
  int recent = 0;
  const int n = 2000;
  for (int i = 0; i < n; ++i) {
    Walk w = sampler.SampleWalk(0, 100.0, &rng);
    ASSERT_EQ(w.size(), 2u);
    if (w[1].node == 2) ++recent;
  }
  EXPECT_GT(recent, n * 9 / 10);  // decay 8 over ~1 normalized unit.
}

TEST(TemporalWalkTest, WithoutDecayFollowsWeights) {
  auto made = TemporalGraph::FromEdges(
      {{0, 1, 1.0, 1.0f}, {0, 2, 99.0, 1.0f}});
  ASSERT_TRUE(made.ok());
  TemporalGraph g = std::move(made).value();
  TemporalWalkConfig cfg;
  cfg.walk_length = 1;
  cfg.use_time_decay = false;
  TemporalWalkSampler sampler(&g, cfg);
  Rng rng(8);
  int old_edge = 0;
  const int n = 4000;
  for (int i = 0; i < n; ++i) {
    Walk w = sampler.SampleWalk(0, 100.0, &rng);
    if (w.size() == 2 && w[1].node == 1) ++old_edge;
  }
  EXPECT_NEAR(old_edge / static_cast<double>(n), 0.5, 0.05);
}

TEST(TemporalWalkTest, HighDegreeSelectionFollowsWeightsAndIsDeterministic) {
  // A degree-24 node whose hub neighbor carries half the total weight: the
  // empirical pick frequency must track it, the picks must all be real
  // temporal neighbors, and a re-seeded sampler must replay the exact same
  // walks (same Uniform draw -> same prefix index).
  std::vector<TemporalEdge> edges;
  for (NodeId v = 1; v <= 24; ++v) {
    edges.push_back({0, v, 1.0, v == 1 ? 23.0f : 1.0f});
  }
  auto made = TemporalGraph::FromEdges(edges);
  ASSERT_TRUE(made.ok());
  TemporalGraph g = std::move(made).value();
  TemporalWalkConfig cfg;
  cfg.walk_length = 1;
  cfg.use_time_decay = false;
  TemporalWalkSampler sampler(&g, cfg);

  Rng rng(11);
  int hub_hits = 0;
  std::vector<NodeId> picks;
  const int trials = 2000;
  for (int i = 0; i < trials; ++i) {
    Walk w = sampler.SampleWalk(0, 10.0, &rng);
    ASSERT_EQ(w.size(), 2u);
    EXPECT_GE(w[1].node, 1u);
    EXPECT_LE(w[1].node, 24u);
    hub_hits += w[1].node == 1u;
    picks.push_back(w[1].node);
  }
  // Neighbor 1 holds 23/46 = 50% of the mass; 2000 trials keep the
  // binomial noise well inside +-5 points.
  EXPECT_NEAR(static_cast<double>(hub_hits) / trials, 0.5, 0.05);

  Rng replay(11);
  for (int i = 0; i < trials; ++i) {
    Walk w = sampler.SampleWalk(0, 10.0, &replay);
    ASSERT_EQ(w[1].node, picks[static_cast<size_t>(i)]) << "trial " << i;
  }
}

TEST(TemporalWalkTest, SampleWalksReturnsConfiguredCount) {
  TemporalGraph g = MakePathGraph();
  TemporalWalkConfig cfg;
  cfg.num_walks = 7;
  TemporalWalkSampler sampler(&g, cfg);
  Rng rng(9);
  EXPECT_EQ(sampler.SampleWalks(0, 10.0, &rng).size(), 7u);
}

TEST(TemporalWalkTest, RespectsWalkLengthBound) {
  auto made = MakePaperDataset(PaperDataset::kDigg, 0.05, 21);
  ASSERT_TRUE(made.ok());
  TemporalGraph g = std::move(made).value();
  TemporalWalkConfig cfg;
  cfg.walk_length = 6;
  TemporalWalkSampler sampler(&g, cfg);
  Rng rng(10);
  for (int i = 0; i < 100; ++i) {
    const NodeId v = static_cast<NodeId>(rng.UniformInt(g.num_nodes()));
    Walk w = sampler.SampleWalk(v, g.max_time() + 1.0, &rng);
    EXPECT_LE(w.size(), 7u);  // start + 6 steps.
  }
}

// ------------------------------------- TemporalWalk: exact transition law
//
// The sampler draws from per-node prefix sums of a rebased kernel, with
// rejection for p, q != 1 and an O(deg) scan as its fallback. The tests
// below check it against Eq. 1-2 evaluated from scratch: exact step laws in
// long double (which does not underflow at decay 1e4), compared with
// empirical frequencies by a chi-square bound, a whole-corpus check through
// ComputeWalkCorpusStats, and a Walk-equality pin against the exact scan
// the sampler used before its prefix sums.

/// One step's outcome: the adjacency annotation a WalkStep records.
using StepKey = std::tuple<NodeId, Timestamp, float>;
/// Probabilities of a step's outcomes; empty when the walk must stop.
using StepLaw = std::map<StepKey, long double>;

double Beta(const TemporalGraph& g, const TemporalWalkConfig& cfg,
            NodeId prev, NodeId cand) {
  if (prev == kInvalidNode) return 1.0;
  if (cand == prev) return std::isinf(cfg.p) ? 0.0 : 1.0 / cfg.p;
  return g.HasEdge(prev, cand) ? 1.0 : 1.0 / cfg.q;
}

/// Eq. 1-2 for the walk at `cur`, arrived from `prev`, below `frontier`,
/// for reference time `ref_time`: the kernel relative to t_ref, as the
/// paper writes it.
StepLaw ExactStepLaw(const TemporalGraph& g, const TemporalWalkConfig& cfg,
                     NodeId prev, NodeId cur, Timestamp frontier,
                     Timestamp ref_time) {
  StepLaw law;
  long double total = 0.0L;
  for (const AdjEntry& a : g.NeighborsBefore(cur, frontier)) {
    long double w = a.weight;
    if (cfg.use_time_decay) {
      w *= std::exp(-static_cast<long double>(cfg.decay_rate) *
                    (ref_time - a.time) / g.TimeSpan());
    }
    w *= Beta(g, cfg, prev, a.neighbor);
    law[{a.neighbor, a.time, a.weight}] += w;
    total += w;
  }
  if (!(total > 0.0L)) return {};
  for (auto& [key, prob] : law) prob /= total;
  return law;
}

/// Upper 5-sigma quantile of chi-square with `df` degrees of freedom
/// (Wilson-Hilferty); a fixed seed either passes it or points at a bias.
double ChiSquareBound(int df) {
  const double k = df;
  const double z = 5.0;
  const double c = 1.0 - 2.0 / (9.0 * k) + z * std::sqrt(2.0 / (9.0 * k));
  return k * c * c * c;
}

/// Asserts that `counts` (over `n` draws) fits `law`. Outcomes of zero
/// probability must never occur; outcomes expected fewer than 5 times are
/// pooled into one cell, which is bounded Poisson-style when still small.
void ExpectFitsLaw(const StepLaw& law, const std::map<StepKey, int>& counts,
                   int n, const std::string& what) {
  for (const auto& [key, c] : counts) {
    ASSERT_TRUE(law.count(key)) << what << ": drew an impossible candidate "
                                << std::get<0>(key) << "@" << std::get<1>(key);
  }
  double chi2 = 0.0;
  int cells = 0;
  double pooled_expected = 0.0;
  int pooled_observed = 0;
  for (const auto& [key, prob] : law) {
    const auto it = counts.find(key);
    const int observed = it == counts.end() ? 0 : it->second;
    const double expected = static_cast<double>(prob) * n;
    if (prob == 0.0L) {
      EXPECT_EQ(observed, 0) << what << ": drew a zero-probability candidate "
                             << std::get<0>(key) << "@" << std::get<1>(key);
    } else if (expected < 5.0) {
      pooled_expected += expected;
      pooled_observed += observed;
    } else {
      chi2 += (observed - expected) * (observed - expected) / expected;
      ++cells;
    }
  }
  if (pooled_expected >= 5.0) {
    chi2 += (pooled_observed - pooled_expected) *
            (pooled_observed - pooled_expected) / pooled_expected;
    ++cells;
  } else {
    EXPECT_LE(pooled_observed,
              pooled_expected + 5.0 * std::sqrt(pooled_expected) + 3.0)
        << what;
  }
  if (cells >= 2) {
    EXPECT_LE(chi2, ChiSquareBound(cells - 1))
        << what << ": chi-square over " << cells << " cells";
  }
}

constexpr NodeId kHub = 0;
constexpr NodeId kLeaves = 48;
constexpr NodeId kProbe = 49;     // one edge into the hub, at t_ref.
constexpr NodeId kDeadEnd = 51;   // its only neighbor leads straight back.

/// A hub with 48 leaves (degree above every rejection threshold the test
/// grid uses), zero-weight edges, timestamp ties at the probe's cutoff,
/// leaf-leaf edges that make some hub candidates one hop from the walk's
/// previous node, an edge newer than every reference time, and a dead end.
TemporalGraph MakeLawGraph() {
  std::vector<TemporalEdge> edges;
  for (NodeId i = 1; i <= kLeaves; ++i) {
    edges.push_back({kHub, i, 1.0 + i % 4,
                     i % 5 == 0 ? 0.0f : 1.0f + static_cast<float>(i % 3)});
    if (i % 2 == 1) edges.push_back({i, i + 1, 0.5, 1.0f});
  }
  edges.push_back({kProbe, kHub, 3.0, 1.5f});
  edges.push_back({kProbe, 5, 5.0, 1.0f});   // leaf 5: one hop from kProbe.
  edges.push_back({kHub, 50, 10.0, 1.0f});   // newer than any t_ref below.
  edges.push_back({kDeadEnd, 52, 2.0, 1.0f});
  edges.push_back({52, kDeadEnd, 1.5, 1.0f});
  auto g = TemporalGraph::FromEdges(std::move(edges));
  EHNA_CHECK(g.ok());
  return std::move(g).value();
}

struct LawCase {
  double p;
  double q;
  double decay;
};

std::vector<LawCase> LawGrid() {
  const double inf = std::numeric_limits<double>::infinity();
  std::vector<LawCase> grid;
  for (const auto& [p, q] : std::vector<std::pair<double, double>>{
           {1.0, 1.0}, {4.0, 0.25}, {0.25, 4.0}, {inf, 1.0}, {1.0, inf},
           {1e9, 1.0}}) {
    for (const double decay : {0.0, 5.0, 1e4}) grid.push_back({p, q, decay});
  }
  return grid;
}

std::string Describe(const LawCase& c) {
  return "p=" + std::to_string(c.p) + " q=" + std::to_string(c.q) +
         " decay=" + std::to_string(c.decay);
}

TEST(TemporalWalkLawTest, HubStepMatchesExactLaw) {
  // The probe's only history edge is (probe, hub) at t_ref, so every walk
  // reaches the hub with prev = probe and frontier 3.0: 36 leaves plus the
  // return edge (a timestamp tie at the cutoff) are candidates, the hub's
  // newest edge lies beyond t_ref, and leaf 5 is one hop from the probe.
  const TemporalGraph g = MakeLawGraph();
  constexpr int kDraws = 20000;
  for (const LawCase& c : LawGrid()) {
    TemporalWalkConfig cfg;
    cfg.p = c.p;
    cfg.q = c.q;
    cfg.decay_rate = c.decay;
    cfg.walk_length = 2;
    TemporalWalkSampler sampler(&g, cfg);
    MetricsRegistry& reg = MetricsRegistry::Global();
    reg.Reset();
    Rng rng(101);
    std::map<StepKey, int> counts;
    for (int i = 0; i < kDraws; ++i) {
      const Walk w = sampler.SampleWalk(kProbe, 3.0, &rng);
      ASSERT_EQ(w.size(), 3u) << Describe(c);
      ASSERT_EQ(w[1].node, kHub);
      ++counts[{w[2].node, w[2].edge_time, w[2].edge_weight}];
    }
    const StepLaw law = ExactStepLaw(g, cfg, kProbe, kHub, 3.0, 3.0);
    ASSERT_EQ(law.size(), 37u);
    ExpectFitsLaw(law, counts, kDraws, Describe(c));

    // The path each case is meant to exercise was taken: at decay 1e4 the
    // prefixes of the probe and the hub (rebased to their edges at t = 5
    // and t = 10) underflow, so both steps scan; otherwise p = q = 1 draws
    // from the prefix alone. At p = 1e9, beta_max / beta_min is beyond
    // any list length, so the hub step scans directly. At q = inf only the
    // return edge has non-zero beta * weight: the zero beta does not enter
    // beta_min, so rejection is tried and the trial cap sends most steps to
    // the scan. Every other (p, q) goes through rejection.
    const MetricsSnapshot snap = reg.Snapshot();
    const uint64_t trials = snap.CounterValue("walk.temporal.rejection_trials");
    const uint64_t scans = snap.CounterValue("walk.temporal.scan_fallbacks");
    if (c.decay == 1e4) {
      EXPECT_EQ(scans, 2u * kDraws) << Describe(c);
    } else if (c.p == 1.0 && c.q == 1.0) {
      EXPECT_EQ(trials, 0u) << Describe(c);
      EXPECT_EQ(scans, 0u) << Describe(c);
    } else if (c.p == 1e9) {
      EXPECT_EQ(trials, 0u) << Describe(c);
      EXPECT_EQ(scans, static_cast<uint64_t>(kDraws)) << Describe(c);
    } else if (std::isinf(c.q)) {
      EXPECT_GE(trials, static_cast<uint64_t>(kDraws)) << Describe(c);
      EXPECT_LT(scans, static_cast<uint64_t>(kDraws)) << Describe(c);
    } else {
      EXPECT_GE(trials, static_cast<uint64_t>(kDraws)) << Describe(c);
      EXPECT_LT(scans, static_cast<uint64_t>(kDraws / 10)) << Describe(c);
    }
  }
}

TEST(TemporalWalkLawTest, CorpusStatsMatchExactChain) {
  // Walks of 4 steps from the hub at t_ref = 4: the exact chain over
  // (prev, node, frontier) states gives the expected mean length, early
  // termination rate and backtrack rate of the corpus.
  const TemporalGraph g = MakeLawGraph();
  constexpr int kWalks = 20000;
  constexpr int kLength = 4;
  for (const LawCase& c : LawGrid()) {
    TemporalWalkConfig cfg;
    cfg.p = c.p;
    cfg.q = c.q;
    cfg.decay_rate = c.decay;
    cfg.walk_length = kLength;
    TemporalWalkSampler sampler(&g, cfg);
    Rng rng(202);
    std::vector<Walk> corpus;
    corpus.reserve(kWalks);
    for (int i = 0; i < kWalks; ++i) {
      corpus.push_back(sampler.SampleWalk(kHub, 4.0, &rng));
    }
    const WalkCorpusStats stats = ComputeWalkCorpusStats(corpus, kLength);

    using State = std::tuple<NodeId, NodeId, Timestamp>;
    std::map<State, long double> mass{{{kInvalidNode, kHub, 4.0}, 1.0L}};
    long double mean_length = 0.0L, interior = 0.0L, backtracks = 0.0L;
    for (int step = 0; step < kLength; ++step) {
      std::map<State, long double> next;
      for (const auto& [state, m] : mass) {
        const auto& [prev, cur, frontier] = state;
        for (const auto& [key, prob] :
             ExactStepLaw(g, cfg, prev, cur, frontier, 4.0)) {
          const NodeId node = std::get<0>(key);
          next[{cur, node, std::get<1>(key)}] += m * prob;
          if (prev != kInvalidNode) {
            interior += m * prob;
            if (node == prev) backtracks += m * prob;
          }
        }
      }
      mass = std::move(next);
      for (const auto& [state, m] : mass) mean_length += m;
    }
    long double full = 0.0L;
    for (const auto& [state, m] : mass) full += m;

    const double n = kWalks;
    EXPECT_NEAR(stats.mean_length, static_cast<double>(mean_length),
                6.0 * (kLength / 2.0) / std::sqrt(n))
        << Describe(c);
    EXPECT_NEAR(stats.early_termination_rate,
                static_cast<double>(1.0L - full), 6.0 * 0.5 / std::sqrt(n))
        << Describe(c);
    EXPECT_NEAR(stats.backtrack_rate,
                static_cast<double>(backtracks / interior),
                6.0 * 0.5 / std::sqrt(n * static_cast<double>(interior)))
        << Describe(c);
  }
}

TEST(TemporalWalkLawTest, AllZeroBetaDeadEndRejectsTheWalk) {
  // From the dead end both candidates of the second step return to the
  // previous node. With p = inf every beta is zero: rejection finds nothing
  // within its trial cap, the scan confirms an all-zero total, and the walk
  // ends there as a rejected step without drawing a move.
  const TemporalGraph g = MakeLawGraph();
  TemporalWalkConfig cfg;
  cfg.p = std::numeric_limits<double>::infinity();
  cfg.walk_length = 3;
  TemporalWalkSampler sampler(&g, cfg);
  MetricsRegistry& reg = MetricsRegistry::Global();
  reg.Reset();
  Rng rng(7);
  for (int i = 0; i < 50; ++i) {
    const Walk w = sampler.SampleWalk(kDeadEnd, 2.0, &rng);
    ASSERT_EQ(WalkNodes(w), (std::vector<NodeId>{kDeadEnd, 52}));
  }
  const MetricsSnapshot snap = reg.Snapshot();
  EXPECT_EQ(snap.CounterValue("walk.temporal.rejected_steps"), 50u);
  EXPECT_GT(snap.CounterValue("walk.temporal.rejection_trials"), 0u);
  EXPECT_EQ(snap.CounterValue("walk.temporal.scan_fallbacks"), 50u);

  // With a finite p the same step returns.
  cfg.p = 4.0;
  TemporalWalkSampler returning(&g, cfg);
  const Walk w = returning.SampleWalk(kDeadEnd, 2.0, &rng);
  ASSERT_GE(w.size(), 3u);
  EXPECT_EQ(w[2].node, kDeadEnd);
}

TEST(TemporalWalkLawTest, UnderflowingPrefixFallsBackToScan) {
  // Node 0's newest edge (t = 100) sits far beyond t_ref, so at decay 1e4
  // its whole prefix, rebased to t = 100, underflows to zero. The step
  // must not read that as a dead end: the scan rebases to the newest
  // candidate and takes the (t = 2) edge, which holds all but e^-101 of
  // the mass. (Eq. 1 relative to t_ref = 50 underflows too, which is why
  // the scan does not use it.)
  auto made = TemporalGraph::FromEdges(
      {{0, 1, 1.0, 1.0f}, {0, 2, 2.0, 1.0f}, {0, 3, 100.0, 1.0f}});
  ASSERT_TRUE(made.ok());
  const TemporalGraph g = std::move(made).value();
  TemporalWalkConfig cfg;
  cfg.decay_rate = 1e4;
  cfg.walk_length = 1;
  TemporalWalkSampler sampler(&g, cfg);
  MetricsRegistry& reg = MetricsRegistry::Global();
  reg.Reset();
  Rng rng(3);
  for (int i = 0; i < 20; ++i) {
    const Walk w = sampler.SampleWalk(0, 50.0, &rng);
    ASSERT_EQ(w.size(), 2u);
    EXPECT_EQ(w[1].node, 2u);
  }
  const MetricsSnapshot snap = reg.Snapshot();
  EXPECT_EQ(snap.CounterValue("walk.temporal.scan_fallbacks"), 20u);
  EXPECT_EQ(snap.CounterValue("walk.temporal.rejected_steps"), 0u);
}

TEST(TemporalWalkDeathTest, InvalidDecayRateRejectedAtConstruction) {
  // A negative rate makes the rebased exponent positive, so the prefix
  // overflows to inf; NaN or inf rates poison every weight.
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const TemporalGraph g = MakePathGraph();
  for (const double rate : {-1e-3, std::numeric_limits<double>::quiet_NaN(),
                            std::numeric_limits<double>::infinity()}) {
    TemporalWalkConfig cfg;
    cfg.decay_rate = rate;
    EXPECT_DEATH(TemporalWalkSampler(&g, cfg), "decay_rate") << rate;
  }
}

/// The exact O(deg) scan the sampler ran at every step before it kept
/// prefix sums: Eq. 1-2 relative to t_ref, recomputed per step, one draw
/// per step. Kept as the oracle of the prefix path.
Walk ExactScanWalk(const TemporalGraph& g, const TemporalWalkConfig& cfg,
                   NodeId start, Timestamp ref_time, Rng* rng) {
  const double inv_span = 1.0 / g.TimeSpan();
  Walk walk{WalkStep{start, 0.0, 0.0f}};
  NodeId prev = kInvalidNode;
  NodeId current = start;
  Timestamp frontier = ref_time;
  std::vector<double> prefix;
  for (int step = 0; step < cfg.walk_length; ++step) {
    const auto candidates = g.NeighborsBefore(current, frontier);
    if (candidates.empty()) break;
    prefix.clear();
    double total = 0.0;
    for (const AdjEntry& c : candidates) {
      double kernel = c.weight;
      if (cfg.use_time_decay) {
        const double dt = (ref_time - c.time) * inv_span;
        kernel *= std::exp(-cfg.decay_rate * (dt > 0.0 ? dt : 0.0));
      }
      total += Beta(g, cfg, prev, c.neighbor) * kernel;
      prefix.push_back(total);
    }
    if (total <= 0.0) break;
    const double pick = rng->Uniform() * total;
    size_t chosen = static_cast<size_t>(
        std::lower_bound(prefix.begin(), prefix.end(), pick) - prefix.begin());
    if (chosen >= candidates.size()) chosen = candidates.size() - 1;
    const AdjEntry& next = candidates[chosen];
    walk.push_back(WalkStep{next.neighbor, next.time, next.weight});
    prev = current;
    current = next.neighbor;
    frontier = next.time;
  }
  return walk;
}

/// Training-style anchors on the DBLP substitute: both endpoints of a
/// stride of edges at the edge's time, plus every tenth node after the
/// last edge.
std::vector<TemporalWalkSampler::Anchor> DblpAnchors(const TemporalGraph& g) {
  std::vector<TemporalWalkSampler::Anchor> anchors;
  const size_t stride = std::max<size_t>(1, g.num_edges() / 600);
  for (size_t e = 0; e < g.num_edges(); e += stride) {
    anchors.push_back({g.edges()[e].src, g.edges()[e].time});
    anchors.push_back({g.edges()[e].dst, g.edges()[e].time});
  }
  for (NodeId v = 0; v < g.num_nodes(); v += 10) {
    anchors.push_back({v, g.max_time() + 1.0});
  }
  return anchors;
}

TemporalGraph DblpGraph() {
  auto g = MakePaperDataset(PaperDataset::kDblp, 0.05, 17);
  EHNA_CHECK(g.ok());
  return std::move(g).value();
}

TEST(TemporalWalkLawTest, PrefixPathEqualsExactScanAtPEqualsQEqualsOne) {
  // At p = q = 1 every step is beta-free, and the prefix draw lands on the
  // candidate the exact scan picks for the same uniform: Walk-equal output
  // on every anchor, at 1 thread and at 4 (where fresh samplers build the
  // prefixes lazily and concurrently).
  const TemporalGraph g = DblpGraph();
  const auto anchors = DblpAnchors(g);
  ASSERT_GE(anchors.size(), 1000u);
  TemporalWalkConfig cfg;
  cfg.num_walks = 4;
  for (const double decay : {0.0, 5.0, 40.0}) {
    cfg.decay_rate = decay;
    std::vector<std::vector<Walk>> oracle(anchors.size());
    for (size_t i = 0; i < anchors.size(); ++i) {
      Rng rng = Rng::Stream(31, i);
      for (int k = 0; k < cfg.num_walks; ++k) {
        oracle[i].push_back(ExactScanWalk(g, cfg, anchors[i].start,
                                          anchors[i].ref_time, &rng));
      }
    }
    ThreadPool pool(4);
    for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool}) {
      TemporalWalkSampler sampler(&g, cfg);
      const auto got = sampler.SampleWalksBatch(anchors, 31, p);
      ASSERT_EQ(got.size(), oracle.size());
      for (size_t i = 0; i < anchors.size(); ++i) {
        ASSERT_EQ(got[i], oracle[i])
            << "anchor " << i << " decay " << decay
            << (p == nullptr ? " 1T" : " 4T");
      }
    }
  }
}

TEST(TemporalWalkLawTest, ConcurrentSamplingIsDeterministicForEveryPQ) {
  // Rejection draws differ from the scan's, but not between thread counts
  // or between metrics on and off: 1T == 4T == 4T with metrics disabled,
  // each from a fresh sampler whose prefixes build during the run.
  const TemporalGraph g = DblpGraph();
  const auto anchors = DblpAnchors(g);
  ThreadPool pool(4);
  for (const auto& [p, q] : std::vector<std::pair<double, double>>{
           {1.0, 1.0}, {2.0, 0.5}, {0.25, 4.0}}) {
    TemporalWalkConfig cfg;
    cfg.p = p;
    cfg.q = q;
    cfg.num_walks = 3;
    const auto serial =
        TemporalWalkSampler(&g, cfg).SampleWalksBatch(anchors, 5, nullptr);
    const auto parallel =
        TemporalWalkSampler(&g, cfg).SampleWalksBatch(anchors, 5, &pool);
    MetricsRegistry::SetEnabled(false);
    const auto quiet =
        TemporalWalkSampler(&g, cfg).SampleWalksBatch(anchors, 5, &pool);
    MetricsRegistry::SetEnabled(true);
    EXPECT_EQ(serial, parallel) << "p=" << p << " q=" << q;
    EXPECT_EQ(serial, quiet) << "p=" << p << " q=" << q;
  }
}

TEST(TemporalWalkLawTest, RebindInvalidatesInO1AndMatchesAFreshSampler) {
  // Rebinding to a grown graph reuses the sampler: its walks equal a fresh
  // sampler's, and nothing is rebuilt until a walk visits a node. A rebind
  // to an unchanged graph keeps every built prefix.
  auto made = MakePaperDataset(PaperDataset::kDblp, 0.05, 17);
  ASSERT_TRUE(made.ok());
  TemporalGraph g = std::move(made).value();
  const std::vector<TemporalEdge> all = g.edges();
  auto head = TemporalGraph::FromEdges(
      std::vector<TemporalEdge>(all.begin(), all.begin() + all.size() / 2),
      g.num_nodes());
  ASSERT_TRUE(head.ok());
  TemporalGraph growing = std::move(head).value();
  TemporalWalkConfig cfg;
  cfg.p = 2.0;
  cfg.q = 0.5;
  TemporalWalkSampler sampler(&growing, cfg);
  const auto anchors = DblpAnchors(g);
  (void)sampler.SampleWalksBatch(anchors, 9, nullptr);

  MetricsRegistry& reg = MetricsRegistry::Global();
  reg.Reset();
  sampler.Rebind(&growing);  // same version: the cache stays warm.
  (void)sampler.SampleWalksBatch(anchors, 9, nullptr);
  EXPECT_EQ(reg.Snapshot().CounterValue("walk.temporal.prefix_builds"), 0u);

  ASSERT_TRUE(growing
                  .InsertEdges(std::span<const TemporalEdge>(
                                   all.begin() + all.size() / 2, all.end()),
                               g.num_nodes())
                  .ok());
  sampler.Rebind(&growing);
  EXPECT_EQ(reg.Snapshot().CounterValue("walk.temporal.prefix_builds"), 0u);
  EXPECT_EQ(sampler.SampleWalksBatch(anchors, 9, nullptr),
            TemporalWalkSampler(&g, cfg).SampleWalksBatch(anchors, 9, nullptr));
}

TEST(TemporalWalkDeathTest, SamplingAMutatedGraphWithoutRebindDies) {
  // The prefix cache is keyed by the graph's version: after an in-place
  // InsertEdges the slots it holds describe another adjacency layout.
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  TemporalGraph g = MakePathGraph();
  TemporalWalkSampler sampler(&g, {});
  Rng rng(1);
  (void)sampler.SampleWalk(0, 10.0, &rng);
  const TemporalEdge extra{0, 3, 4.0, 1.0f};
  ASSERT_TRUE(g.InsertEdges({&extra, 1}, g.num_nodes()).ok());
  EXPECT_DEATH((void)sampler.SampleWalk(0, 10.0, &rng), "Rebind");
}

// ---------------------------------------------------------- Node2VecWalk

TEST(Node2VecWalkTest, WalkHasConfiguredLength) {
  TemporalGraph g = MakePathGraph();
  Node2VecWalkConfig cfg;
  cfg.walk_length = 8;
  Node2VecWalkSampler sampler(&g, cfg);
  Rng rng(1);
  auto w = sampler.SampleWalk(1, &rng);
  EXPECT_EQ(w.size(), 9u);  // start + 8 (path graph never dead-ends).
  EXPECT_EQ(w[0], 1u);
}

TEST(Node2VecWalkTest, IsolatedNodeReturnsSingleton) {
  auto made = TemporalGraph::FromEdges({{0, 1, 1.0, 1.0f}}, /*num_nodes=*/3);
  ASSERT_TRUE(made.ok());
  TemporalGraph g = std::move(made).value();
  Node2VecWalkSampler sampler(&g, {});
  Rng rng(2);
  auto w = sampler.SampleWalk(2, &rng);
  EXPECT_EQ(w, (std::vector<NodeId>{2}));
}

TEST(Node2VecWalkTest, StepsFollowEdges) {
  auto made = MakePaperDataset(PaperDataset::kDigg, 0.05, 3);
  ASSERT_TRUE(made.ok());
  TemporalGraph g = std::move(made).value();
  Node2VecWalkConfig cfg;
  cfg.walk_length = 10;
  Node2VecWalkSampler sampler(&g, cfg);
  Rng rng(3);
  for (int i = 0; i < 20; ++i) {
    const NodeId v = static_cast<NodeId>(rng.UniformInt(g.num_nodes()));
    auto w = sampler.SampleWalk(v, &rng);
    for (size_t j = 1; j < w.size(); ++j) {
      EXPECT_TRUE(g.HasEdge(w[j - 1], w[j]));
    }
  }
}

TEST(Node2VecWalkTest, LowQEncouragesExploration) {
  // On a path graph, q -> 0 biases outward (DFS): the walk should reach
  // the far end more often than with high q.
  auto made = TemporalGraph::FromEdges({{0, 1, 1, 1.0f},
                                        {1, 2, 1, 1.0f},
                                        {2, 3, 1, 1.0f},
                                        {3, 4, 1, 1.0f},
                                        {4, 5, 1, 1.0f}});
  ASSERT_TRUE(made.ok());
  TemporalGraph g = std::move(made).value();
  auto reach_rate = [&](double q) {
    Node2VecWalkConfig cfg;
    cfg.walk_length = 5;
    cfg.q = q;
    cfg.p = 1.0;
    Node2VecWalkSampler sampler(&g, cfg);
    Rng rng(4);
    int reached = 0;
    for (int i = 0; i < 500; ++i) {
      auto w = sampler.SampleWalk(0, &rng);
      if (std::find(w.begin(), w.end(), NodeId{5}) != w.end()) ++reached;
    }
    return reached;
  };
  EXPECT_GT(reach_rate(0.25), reach_rate(4.0));
}

// ------------------------------------------------------------- CtdneWalk

TEST(CtdneWalkTest, TimesNonDecreasing) {
  auto made = MakePaperDataset(PaperDataset::kDblp, 0.05, 5);
  ASSERT_TRUE(made.ok());
  TemporalGraph g = std::move(made).value();
  CtdneWalkConfig cfg;
  cfg.walk_length = 12;
  CtdneWalkSampler sampler(&g, cfg);
  Rng rng(5);
  for (int i = 0; i < 50; ++i) {
    auto w = sampler.SampleWalk(&rng);
    ASSERT_GE(w.size(), 2u);
    // Verify consecutive steps use edges; times are enforced internally,
    // so at minimum each hop must be a real edge.
    for (size_t j = 1; j < w.size(); ++j) {
      EXPECT_TRUE(g.HasEdge(w[j - 1], w[j]));
    }
  }
}

TEST(CtdneWalkTest, DeadEndsTerminateEarly) {
  TemporalGraph g = MakeIncreasingPath();
  CtdneWalkConfig cfg;
  cfg.walk_length = 50;
  CtdneWalkSampler sampler(&g, cfg);
  Rng rng(6);
  for (int i = 0; i < 50; ++i) {
    auto w = sampler.SampleWalk(&rng);
    EXPECT_LE(w.size(), 5u);  // the path has only 4 nodes.
  }
}

TEST(CtdneWalkTest, EmptyGraphGivesEmptyWalk) {
  auto made = TemporalGraph::FromEdges({});
  ASSERT_TRUE(made.ok());
  TemporalGraph g = std::move(made).value();
  CtdneWalkSampler sampler(&g, {});
  Rng rng(7);
  EXPECT_TRUE(sampler.SampleWalk(&rng).empty());
}

TEST(CtdneWalkTest, ForwardInTimeOnIncreasingPath) {
  TemporalGraph g = MakeIncreasingPath();
  CtdneWalkConfig cfg;
  cfg.walk_length = 10;
  CtdneWalkSampler sampler(&g, cfg);
  Rng rng(8);
  // Any walk that starts at edge (0,1)@1 can continue only toward 2 then 3.
  bool saw_full_path = false;
  for (int i = 0; i < 200; ++i) {
    auto w = sampler.SampleWalk(&rng);
    if (w.size() >= 2 && w[0] == 0 && w[1] == 1) {
      if (w == std::vector<NodeId>({0, 1, 2, 3})) saw_full_path = true;
      // It must never go back to 0 (edge (0,1) is in the past).
      for (size_t j = 2; j < w.size(); ++j) EXPECT_NE(w[j], 0u);
    }
  }
  EXPECT_TRUE(saw_full_path);
}

TEST(WalkNodesTest, ExtractsSequence) {
  Walk w{{5, 0.0, 0.0f}, {6, 1.0, 1.0f}, {7, 2.0, 1.0f}};
  EXPECT_EQ(WalkNodes(w), (std::vector<NodeId>{5, 6, 7}));
}

}  // namespace
}  // namespace ehna
