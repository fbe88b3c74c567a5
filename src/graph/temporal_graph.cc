#include "graph/temporal_graph.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>
#include <string>

#include "util/logging.h"

namespace ehna {
namespace {

uint64_t NextGraphVersion() {
  static std::atomic<uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace

Status TemporalGraph::ValidateEdgeCount(uint64_t count) {
  if (count > kMaxEdges) {
    return Status::InvalidArgument(
        "edge count " + std::to_string(count) +
        " exceeds the 32-bit EdgeId limit of " + std::to_string(kMaxEdges) +
        " edges; shard the graph or widen EdgeId");
  }
  return Status::OK();
}

Status TemporalGraph::ValidateEdge(const TemporalEdge& e) {
  if (e.src == e.dst) {
    return Status::InvalidArgument("self-loop on node " +
                                   std::to_string(e.src));
  }
  if (!std::isfinite(e.time)) {
    return Status::InvalidArgument("non-finite edge timestamp");
  }
  if (!std::isfinite(e.weight)) {
    return Status::InvalidArgument("non-finite edge weight");
  }
  if (e.weight < 0.0f) {
    return Status::InvalidArgument("negative edge weight");
  }
  if (e.src == kInvalidNode || e.dst == kInvalidNode) {
    return Status::InvalidArgument("node id " + std::to_string(kInvalidNode) +
                                   " is reserved (kInvalidNode)");
  }
  return Status::OK();
}

Result<TemporalGraph> TemporalGraph::FromEdges(std::vector<TemporalEdge> edges,
                                               NodeId num_nodes,
                                               bool directed) {
  EHNA_RETURN_NOT_OK(ValidateEdgeCount(edges.size()));
  TemporalGraph g;
  g.directed_ = directed;

  NodeId max_id = 0;
  for (const auto& e : edges) {
    EHNA_RETURN_NOT_OK(ValidateEdge(e));
    max_id = std::max(max_id, std::max(e.src, e.dst));
  }
  if (num_nodes == 0) {
    num_nodes = edges.empty() ? 0 : max_id + 1;
  } else if (!edges.empty() && max_id >= num_nodes) {
    return Status::InvalidArgument("edge endpoint " + std::to_string(max_id) +
                                   " >= num_nodes " +
                                   std::to_string(num_nodes));
  }
  g.num_nodes_ = num_nodes;

  std::stable_sort(edges.begin(), edges.end(),
                   [](const TemporalEdge& a, const TemporalEdge& b) {
                     return a.time < b.time;
                   });
  g.edges_ = std::move(edges);
  g.BuildAdjacency();
  return g;
}

void TemporalGraph::BuildAdjacency() {
  version_ = NextGraphVersion();
  const NodeId num_nodes = num_nodes_;
  if (!edges_.empty()) {
    min_time_ = edges_.front().time;
    max_time_ = edges_.back().time;
  }

  // Count adjacency slots per node directly into the offset table (shifted
  // by one), then prefix-sum in place — no separate counts vector, which at
  // 10⁶ nodes is 8 MB saved off the build's peak.
  adj_offsets_.assign(num_nodes + 1, 0);
  for (const auto& e : edges_) {
    ++adj_offsets_[e.src + 1];
    if (!directed_) ++adj_offsets_[e.dst + 1];
  }
  for (NodeId v = 0; v < num_nodes; ++v) {
    adj_offsets_[v + 1] += adj_offsets_[v];
  }
  adj_.resize(adj_offsets_[num_nodes]);

  // Fill in chronological order: edges_ is time-sorted, so appending each
  // edge to its endpoints' cursors leaves every adjacency list ascending in
  // time without a per-node sort.
  std::vector<size_t> cursor(adj_offsets_.begin(), adj_offsets_.end() - 1);
  for (EdgeId id = 0; id < edges_.size(); ++id) {
    const TemporalEdge& e = edges_[id];
    adj_[cursor[e.src]++] = AdjEntry{e.dst, e.time, e.weight, id};
    if (!directed_) {
      adj_[cursor[e.dst]++] = AdjEntry{e.src, e.time, e.weight, id};
    }
  }

  // Static connectivity index: the same CSR segments with neighbor ids
  // sorted ascending, so HasEdge is a binary search instead of a hash
  // probe. 4 bytes per adjacency slot, vs ~50 per edge for the
  // unordered_set this replaced — the difference between fitting a
  // 10⁷-edge graph's index in cache-friendly flat memory and a gigabyte of
  // hash nodes.
  nbr_sorted_.resize(adj_.size());
  for (size_t i = 0; i < adj_.size(); ++i) nbr_sorted_[i] = adj_[i].neighbor;
  for (NodeId v = 0; v < num_nodes; ++v) {
    std::sort(nbr_sorted_.begin() + adj_offsets_[v],
              nbr_sorted_.begin() + adj_offsets_[v + 1]);
  }
}

Status TemporalGraph::InsertEdges(std::span<const TemporalEdge> delta,
                                  NodeId num_nodes) {
  if (num_nodes < num_nodes_) {
    return Status::InvalidArgument("InsertEdges cannot shrink the node range");
  }
  for (const TemporalEdge& e : delta) {
    EHNA_RETURN_NOT_OK(ValidateEdge(e));
    if (std::max(e.src, e.dst) >= num_nodes) {
      return Status::InvalidArgument(
          "edge endpoint " + std::to_string(std::max(e.src, e.dst)) +
          " >= num_nodes " + std::to_string(num_nodes));
    }
  }
  EHNA_RETURN_NOT_OK(ValidateEdgeCount(edges_.size() + delta.size()));

  // FromEdges stable-sorts edges() ++ delta by time. edges() is already in
  // that order, so stable-sorting the delta alone and merging with ties
  // drawn from edges() first yields the same permutation.
  std::vector<TemporalEdge> sorted(delta.begin(), delta.end());
  std::stable_sort(sorted.begin(), sorted.end(),
                   [](const TemporalEdge& a, const TemporalEdge& b) {
                     return a.time < b.time;
                   });

  // ---- Edge list: merge backwards in place, recording where each edge
  // lands. Old edges up to and including the earliest delta timestamp
  // keep their ids; each later old edge i moves to i + (delta edges before
  // it), recorded in `moved_id`.
  const size_t n_old = edges_.size();
  const size_t m = sorted.size();
  const size_t keep =
      m == 0 ? n_old
             : static_cast<size_t>(
                   std::upper_bound(edges_.begin(), edges_.end(),
                                    sorted.front().time,
                                    [](Timestamp t, const TemporalEdge& e) {
                                      return t < e.time;
                                    }) -
                   edges_.begin());
  std::vector<EdgeId> moved_id(n_old - keep);
  std::vector<EdgeId> delta_id(m);
  edges_.resize(n_old + m);
  for (size_t i = n_old, j = m, k = n_old + m; j > 0;) {
    --k;
    if (i > keep && edges_[i - 1].time > sorted[j - 1].time) {
      --i;
      edges_[k] = edges_[i];
      moved_id[i - keep] = static_cast<EdgeId>(k);
    } else {
      --j;
      edges_[k] = sorted[j];
      delta_id[j] = static_cast<EdgeId>(k);
    }
  }
  auto remap = [&](EdgeId id) {
    return id < keep ? id : moved_id[id - keep];
  };

  // ---- The delta's adjacency entries grouped by node. Within a node they
  // ascend in new EdgeId, the order the chronological CSR fill appends in.
  struct DeltaEntry {
    NodeId node;
    AdjEntry entry;
  };
  std::vector<DeltaEntry> dadj;
  dadj.reserve(directed_ ? m : 2 * m);
  for (size_t j = 0; j < m; ++j) {
    const TemporalEdge& e = sorted[j];
    dadj.push_back({e.src, AdjEntry{e.dst, e.time, e.weight, delta_id[j]}});
    if (!directed_) {
      dadj.push_back({e.dst, AdjEntry{e.src, e.time, e.weight, delta_id[j]}});
    }
  }
  std::stable_sort(dadj.begin(), dadj.end(),
                   [](const DeltaEntry& a, const DeltaEntry& b) {
                     return a.node < b.node;
                   });

  // ---- Adjacency and sorted-neighbor index: every segment only grows, so
  // walking nodes from the last to the first and filling each segment from
  // its end never overwrites an entry not yet read (the write cursor stays
  // at or past the read cursor). Each node merges in only its own delta
  // entries — by new EdgeId into the adjacency, by id into the neighbor
  // index — and remaps the EdgeIds of its old entries.
  const size_t old_total = adj_.size();
  const size_t total = old_total + dadj.size();
  adj_offsets_.resize(size_t{num_nodes} + 1, old_total);
  adj_.resize(total);
  nbr_sorted_.resize(total);
  std::vector<NodeId> dnbr;
  size_t d_end = dadj.size();
  size_t old_end = old_total;
  size_t new_end = total;
  adj_offsets_[num_nodes] = total;
  for (NodeId v = num_nodes; v-- > 0;) {
    const size_t old_begin = adj_offsets_[v];
    size_t d_begin = d_end;
    while (d_begin > 0 && dadj[d_begin - 1].node == v) --d_begin;

    size_t r = old_end;
    size_t w = new_end;
    for (size_t dj = d_end; dj > d_begin;) {
      --w;
      if (r > old_begin &&
          remap(adj_[r - 1].edge_id) > dadj[dj - 1].entry.edge_id) {
        --r;
        adj_[w] = adj_[r];
        adj_[w].edge_id = remap(adj_[w].edge_id);
      } else {
        --dj;
        adj_[w] = dadj[dj].entry;
      }
    }
    if (w != r || keep < n_old) {
      while (r > old_begin) {
        --r;
        --w;
        adj_[w] = adj_[r];
        adj_[w].edge_id = remap(adj_[w].edge_id);
      }
    }

    dnbr.clear();
    for (size_t dj = d_begin; dj < d_end; ++dj) {
      dnbr.push_back(dadj[dj].entry.neighbor);
    }
    std::sort(dnbr.begin(), dnbr.end());
    r = old_end;
    w = new_end;
    for (size_t dj = dnbr.size(); dj > 0;) {
      --w;
      if (r > old_begin && nbr_sorted_[r - 1] > dnbr[dj - 1]) {
        nbr_sorted_[w] = nbr_sorted_[--r];
      } else {
        nbr_sorted_[w] = dnbr[--dj];
      }
    }
    if (w != r) {
      std::copy_backward(nbr_sorted_.begin() + old_begin,
                         nbr_sorted_.begin() + r, nbr_sorted_.begin() + w);
    }

    new_end -= (old_end - old_begin) + (d_end - d_begin);
    adj_offsets_[v] = new_end;
    old_end = old_begin;
    d_end = d_begin;
  }

  num_nodes_ = num_nodes;
  if (!edges_.empty()) {
    min_time_ = edges_.front().time;
    max_time_ = edges_.back().time;
  }
  version_ = NextGraphVersion();
  return Status::OK();
}

std::span<const AdjEntry> TemporalGraph::Neighbors(NodeId node) const {
  EHNA_DCHECK(node < num_nodes_);
  return {adj_.data() + adj_offsets_[node],
          adj_offsets_[node + 1] - adj_offsets_[node]};
}

std::span<const AdjEntry> TemporalGraph::NeighborsBefore(
    NodeId node, Timestamp cutoff) const {
  auto all = Neighbors(node);
  auto it = std::upper_bound(
      all.begin(), all.end(), cutoff,
      [](Timestamp t, const AdjEntry& a) { return t < a.time; });
  return all.subspan(0, static_cast<size_t>(it - all.begin()));
}

size_t TemporalGraph::AdjacencyOffset(NodeId node) const {
  EHNA_DCHECK(node < num_nodes_);
  return adj_offsets_[node];
}

size_t TemporalGraph::Degree(NodeId node) const {
  EHNA_DCHECK(node < num_nodes_);
  return adj_offsets_[node + 1] - adj_offsets_[node];
}

bool TemporalGraph::HasEdge(NodeId u, NodeId v) const {
  if (u >= num_nodes_) return false;
  return std::binary_search(nbr_sorted_.begin() + adj_offsets_[u],
                            nbr_sorted_.begin() + adj_offsets_[u + 1], v);
}

Result<Timestamp> TemporalGraph::MostRecentInteraction(NodeId node) const {
  auto nbrs = Neighbors(node);
  if (nbrs.empty()) {
    return Status::NotFound("node " + std::to_string(node) + " is isolated");
  }
  return nbrs.back().time;
}

Timestamp TemporalGraph::TimeSpan() const {
  const Timestamp span = max_time_ - min_time_;
  return span > 1e-12 ? span : 1e-12;
}

double TemporalGraph::WeightedDegree(NodeId node) const {
  double total = 0.0;
  for (const auto& a : Neighbors(node)) total += a.weight;
  return total;
}

std::vector<size_t> TemporalGraph::Degrees() const {
  std::vector<size_t> d(num_nodes_);
  for (NodeId v = 0; v < num_nodes_; ++v) d[v] = Degree(v);
  return d;
}

}  // namespace ehna
