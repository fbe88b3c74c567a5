#ifndef EHNA_EVAL_KNN_H_
#define EHNA_EVAL_KNN_H_

#include <algorithm>
#include <queue>
#include <span>
#include <vector>

#include "graph/temporal_graph.h"
#include "nn/quant.h"
#include "nn/tensor.h"
#include "util/logging.h"
#include "util/status.h"

namespace ehna {

/// Similarity used by nearest-neighbor queries over an embedding matrix.
enum class Similarity {
  kDotProduct,          // the paper's reconstruction metric.
  kCosine,              // dot product on L2-normalized vectors.
  kNegativeEuclidean,   // -||a-b||^2, the metric EHNA optimizes.
};

/// One nearest-neighbor hit.
struct Neighbor {
  NodeId node = 0;
  double score = 0.0;
};

/// The scalar score behind every nearest-neighbor query in this library
/// (double accumulation over `d` floats). Shared by the exact scan and the
/// IVF index (eval/ann.h) so ANN candidate scores are bit-identical to the
/// oracle's and recall comparisons never hinge on summation order.
double SimilarityScore(const float* a, const float* b, int64_t d,
                       Similarity similarity);

/// The best-k selector behind every top-k scan in this library (exact,
/// batched, quantized, IVF). Offers go into a min-heap of `capacity`; a
/// later offer replaces the worst kept one only when its score is strictly
/// greater, so among scores tied at the boundary the earlier offer wins.
/// Drain returns the kept neighbors best-first. Callers answer k = 0
/// themselves: Offer carries no capacity guard, so it adds no work per row.
class TopKSelector {
 public:
  explicit TopKSelector(size_t capacity) : capacity_(capacity) {
    EHNA_CHECK_GT(capacity, size_t{0});
  }

  // Only the two compares are inline: most rows of a scan fail them, and
  // the heap updates stay out of the scan loops so Offer itself inlines.
  void Offer(NodeId node, double score) {
    if (heap_.size() < capacity_) {
      Push(Neighbor{node, score});
    } else if (score > heap_.top().score) {
      ReplaceWorst(Neighbor{node, score});
    }
  }

  /// The kept neighbors, best-first; leaves the selector empty.
  std::vector<Neighbor> Drain();

 private:
  void Push(const Neighbor& nb);
  void ReplaceWorst(const Neighbor& nb);

  struct WorstOnTop {
    bool operator()(const Neighbor& a, const Neighbor& b) const {
      return a.score > b.score;
    }
  };
  size_t capacity_;
  std::priority_queue<Neighbor, std::vector<Neighbor>, WorstOnTop> heap_;
};

/// Candidates a reduced-precision selection keeps for the exact re-rank:
/// rerank_factor · k (a factor of 0 counts as 1), saturating at SIZE_MAX
/// instead of wrapping.
size_t RerankSurvivors(size_t k, size_t rerank_factor);

/// The exact re-rank behind every quantized scan: re-scores `candidates`
/// with SimilarityScore(query, row_of(node)), orders them by score
/// descending then node id ascending, and keeps the best `k` — so returned
/// scores are exactly the fp32 oracle's.
template <typename RowOf>
std::vector<Neighbor> RerankExact(std::vector<Neighbor> candidates,
                                  const float* query, int64_t d,
                                  Similarity similarity, size_t k,
                                  RowOf row_of) {
  for (Neighbor& nb : candidates) {
    nb.score = SimilarityScore(query, row_of(nb.node), d, similarity);
  }
  std::sort(candidates.begin(), candidates.end(),
            [](const Neighbor& a, const Neighbor& b) {
              if (a.score != b.score) return a.score > b.score;
              return a.node < b.node;
            });
  if (candidates.size() > k) candidates.resize(k);
  return candidates;
}

/// Exact top-k search: returns the `k` highest-scoring nodes for `query`
/// (excluding the query itself), sorted by descending score. O(N·d) per
/// query with an O(N log k) heap — appropriate for the graph sizes this
/// library targets; callers needing sublinear search should use the IVF
/// index in eval/ann.h. The batched scan below with one query.
Result<std::vector<Neighbor>> TopKNeighbors(const Tensor& embeddings,
                                            NodeId query, size_t k,
                                            Similarity similarity);

/// Batched exact top-k: one pass over the embedding matrix answers every
/// query in `queries`, returning per-query results identical (including tie
/// behavior) to calling TopKNeighbors per query — but touching each of the
/// N rows once instead of Q times, so the row data stays cache-resident
/// across the Q heap updates. This is the harness-side API for Table 3–6
/// style evaluations and the recall oracle for ANN benchmarks.
Result<std::vector<std::vector<Neighbor>>> TopKNeighborsBatch(
    const Tensor& embeddings, std::span<const NodeId> queries, size_t k,
    Similarity similarity);

/// Pairwise similarity of two rows of `embeddings`.
Result<double> PairSimilarity(const Tensor& embeddings, NodeId a, NodeId b,
                              Similarity similarity);

// ------------------------------------------- reduced-precision candidates
//
// Quantized candidate scoring for the serving tier (DESIGN.md §14): the
// quantized mirror ranks candidates cheaply, then the survivors are
// re-scored with the exact fp32 SimilarityScore, so returned scores stay
// bit-identical to the oracle's for the rows that make the cut. The score
// combination here is ISA-independent scalar double arithmetic in one
// fixed expression order per similarity; only the exact int32 dot (int8)
// or the fixed-order widening dot (bf16) runs through the dispatched
// kernels — which is what makes quantized scores bitwise identical under
// EHNA_KERNEL_ISA=scalar and =avx2.

/// Scores rows of a quantized serving mirror against one query under the
/// serving similarity. Not thread-safe (owns GEMV scratch); make one per
/// query or per thread.
class QuantizedScorer {
 public:
  /// `query` (length quant->dim()) is borrowed and must outlive the
  /// scorer; it is prepared once (int8: quantized with the row scheme, so
  /// a node's own fp32 row reproduces its stored codes exactly).
  QuantizedScorer(const QuantizedMatrix* quant, const float* query,
                  Similarity similarity);

  /// Quantized-domain score of one row.
  double Score(int64_t row) const;

  /// Scores the contiguous rows [row0, row0 + count) through the blocked
  /// GemvI8/GemvBf16 kernels; writes `count` scores (bit-identical to
  /// per-row Score calls).
  void ScoreBlock(int64_t row0, int64_t count, double* out);

 private:
  double Combine(int64_t row, int32_t idot) const;
  double Combine(int64_t row, float fdot) const;

  const QuantizedMatrix* quant_;
  Similarity similarity_;
  QuantizedQuery query_;
  std::vector<int32_t> idot_scratch_;
  std::vector<float> fdot_scratch_;
};

/// Exact-scan top-k at the precision tier of `quant`. An fp32 (empty)
/// mirror scans in fp32: this is TopKNeighbors. Otherwise the quantized
/// scores select the top RerankSurvivors(k, rerank_factor) candidates (the
/// full O(N·d) scan at reduced precision), which RerankExact re-scores over
/// `embeddings` — so the returned scores are exactly the oracle's, and
/// recall is the only thing quantization can cost. A quantized `quant`
/// must mirror `embeddings` row-for-row.
Result<std::vector<Neighbor>> TopKNeighborsQuantized(
    const Tensor& embeddings, const QuantizedMatrix& quant, NodeId query,
    size_t k, Similarity similarity, size_t rerank_factor = 4);

}  // namespace ehna

#endif  // EHNA_EVAL_KNN_H_
