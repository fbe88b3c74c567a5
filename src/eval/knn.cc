#include "eval/knn.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <span>
#include <string>

#include "nn/kernels.h"
#include "util/logging.h"
#include "util/metrics.h"

namespace ehna {

double SimilarityScore(const float* a, const float* b, int64_t d,
                       Similarity similarity) {
  switch (similarity) {
    case Similarity::kDotProduct: {
      double dot = 0.0;
      for (int64_t j = 0; j < d; ++j) dot += static_cast<double>(a[j]) * b[j];
      return dot;
    }
    case Similarity::kCosine: {
      double dot = 0.0, na = 0.0, nb = 0.0;
      for (int64_t j = 0; j < d; ++j) {
        dot += static_cast<double>(a[j]) * b[j];
        na += static_cast<double>(a[j]) * a[j];
        nb += static_cast<double>(b[j]) * b[j];
      }
      const double denom = std::sqrt(na) * std::sqrt(nb);
      return denom > 1e-24 ? dot / denom : 0.0;
    }
    case Similarity::kNegativeEuclidean: {
      double dist = 0.0;
      for (int64_t j = 0; j < d; ++j) {
        const double diff = static_cast<double>(a[j]) - b[j];
        dist += diff * diff;
      }
      return -dist;
    }
  }
  return 0.0;
}

void TopKSelector::Push(const Neighbor& nb) { heap_.push(nb); }

void TopKSelector::ReplaceWorst(const Neighbor& nb) {
  heap_.pop();
  heap_.push(nb);
}

std::vector<Neighbor> TopKSelector::Drain() {
  std::vector<Neighbor> out;
  out.reserve(heap_.size());
  while (!heap_.empty()) {
    out.push_back(heap_.top());
    heap_.pop();
  }
  std::reverse(out.begin(), out.end());
  return out;
}

size_t RerankSurvivors(size_t k, size_t rerank_factor) {
  const size_t factor = std::max<size_t>(rerank_factor, 1);
  return k > SIZE_MAX / factor ? SIZE_MAX : factor * k;
}

namespace {

Status CheckQueries(const Tensor& embeddings,
                    std::span<const NodeId> queries) {
  if (embeddings.rank() != 2) {
    return Status::InvalidArgument("embeddings must be a matrix");
  }
  for (const NodeId q : queries) {
    if (q >= embeddings.rows()) {
      return Status::OutOfRange("query node " + std::to_string(q) +
                                " outside embedding matrix");
    }
  }
  return Status::OK();
}

// The fp32 scan behind TopKNeighbors and TopKNeighborsBatch: one pass over
// the matrix, row v scored against every query while its data is hot, one
// selector per query — so a batch answers each query exactly as a single
// scan does, ties included. Requires k > 0.
std::vector<std::vector<Neighbor>> ScanExact(const Tensor& embeddings,
                                             std::span<const NodeId> queries,
                                             size_t k, Similarity similarity) {
  const int64_t d = embeddings.cols();
  std::vector<const float*> query_rows;
  for (const NodeId q : queries) query_rows.push_back(embeddings.Row(q));
  std::vector<TopKSelector> best(queries.size(), TopKSelector(k));
  for (int64_t v = 0; v < embeddings.rows(); ++v) {
    const float* row = embeddings.Row(v);
    for (size_t qi = 0; qi < queries.size(); ++qi) {
      if (static_cast<NodeId>(v) == queries[qi]) continue;
      best[qi].Offer(static_cast<NodeId>(v),
                     SimilarityScore(query_rows[qi], row, d, similarity));
    }
  }
  std::vector<std::vector<Neighbor>> results;
  results.reserve(queries.size());
  for (TopKSelector& b : best) results.push_back(b.Drain());
  return results;
}

}  // namespace

Result<std::vector<Neighbor>> TopKNeighbors(const Tensor& embeddings,
                                            NodeId query, size_t k,
                                            Similarity similarity) {
  EHNA_RETURN_NOT_OK(CheckQueries(embeddings, {&query, 1}));
  if (k == 0) return std::vector<Neighbor>{};
  EHNA_TRACE_PHASE("eval.phase.knn_query");
  return std::move(ScanExact(embeddings, {&query, 1}, k, similarity).front());
}

Result<std::vector<std::vector<Neighbor>>> TopKNeighborsBatch(
    const Tensor& embeddings, std::span<const NodeId> queries, size_t k,
    Similarity similarity) {
  EHNA_RETURN_NOT_OK(CheckQueries(embeddings, queries));
  if (k == 0 || queries.empty()) {
    return std::vector<std::vector<Neighbor>>(queries.size());
  }
  EHNA_TRACE_PHASE("eval.phase.knn_query_batch");
  return ScanExact(embeddings, queries, k, similarity);
}

QuantizedScorer::QuantizedScorer(const QuantizedMatrix* quant,
                                 const float* query, Similarity similarity)
    : quant_(quant),
      similarity_(similarity),
      query_(PrepareQuantizedQuery(query, quant->dim(), quant->precision())) {}

// The int8 score combinations. Scales and norms enter in one fixed scalar
// expression order per similarity, computed in double:
//   dot      s_r · s_q · idot
//   cosine   idot / sqrt(rn · qn)          (the scales cancel exactly)
//   -L2      2·s_r·s_q·idot − s_r²·rn − s_q²·qn
// where idot/rn/qn are exact int32 quantities from the kernels.
double QuantizedScorer::Combine(int64_t row, int32_t idot) const {
  const double rs = static_cast<double>(quant_->scale(row));
  const double qs = static_cast<double>(query_.scale);
  switch (similarity_) {
    case Similarity::kDotProduct:
      return rs * qs * static_cast<double>(idot);
    case Similarity::kCosine: {
      const double denom = std::sqrt(static_cast<double>(quant_->sqnorm_i32(row)) *
                                     static_cast<double>(query_.sqnorm_i32));
      return denom > 0.0 ? static_cast<double>(idot) / denom : 0.0;
    }
    case Similarity::kNegativeEuclidean:
      return 2.0 * rs * qs * static_cast<double>(idot) -
             rs * rs * static_cast<double>(quant_->sqnorm_i32(row)) -
             qs * qs * static_cast<double>(query_.sqnorm_i32);
  }
  return 0.0;
}

// The bf16 combinations: the widening dot is already fp32; norms are the
// stored per-row double and the query's precomputed double.
double QuantizedScorer::Combine(int64_t row, float fdot) const {
  switch (similarity_) {
    case Similarity::kDotProduct:
      return static_cast<double>(fdot);
    case Similarity::kCosine: {
      const double denom = std::sqrt(quant_->sqnorm(row) * query_.sqnorm);
      return denom > 1e-24 ? static_cast<double>(fdot) / denom : 0.0;
    }
    case Similarity::kNegativeEuclidean:
      return 2.0 * static_cast<double>(fdot) - quant_->sqnorm(row) -
             query_.sqnorm;
  }
  return 0.0;
}

double QuantizedScorer::Score(int64_t row) const {
  const int64_t d = quant_->dim();
  switch (quant_->precision()) {
    case ServePrecision::kInt8:
      return Combine(row,
                     kernels::DotI8(quant_->RowI8(row), query_.i8.data(), d));
    case ServePrecision::kBf16:
      return Combine(row, kernels::DotBf16(quant_->RowBf16(row), query_.fp32, d));
    case ServePrecision::kFp32:
      break;
  }
  EHNA_CHECK(false) << "QuantizedScorer over an fp32 (empty) mirror";
  return 0.0;
}

void QuantizedScorer::ScoreBlock(int64_t row0, int64_t count, double* out) {
  const int64_t d = quant_->dim();
  switch (quant_->precision()) {
    case ServePrecision::kInt8:
      idot_scratch_.resize(static_cast<size_t>(count));
      kernels::GemvI8(count, d, quant_->DataI8() + row0 * d, query_.i8.data(),
                      idot_scratch_.data());
      for (int64_t i = 0; i < count; ++i) {
        out[i] = Combine(row0 + i, idot_scratch_[static_cast<size_t>(i)]);
      }
      return;
    case ServePrecision::kBf16:
      fdot_scratch_.resize(static_cast<size_t>(count));
      kernels::GemvBf16(count, d, quant_->DataBf16() + row0 * d, query_.fp32,
                        fdot_scratch_.data());
      for (int64_t i = 0; i < count; ++i) {
        out[i] = Combine(row0 + i, fdot_scratch_[static_cast<size_t>(i)]);
      }
      return;
    case ServePrecision::kFp32:
      break;
  }
  EHNA_CHECK(false) << "QuantizedScorer over an fp32 (empty) mirror";
}

Result<std::vector<Neighbor>> TopKNeighborsQuantized(
    const Tensor& embeddings, const QuantizedMatrix& quant, NodeId query,
    size_t k, Similarity similarity, size_t rerank_factor) {
  if (quant.precision() == ServePrecision::kFp32) {
    return TopKNeighbors(embeddings, query, k, similarity);
  }
  EHNA_RETURN_NOT_OK(CheckQueries(embeddings, {&query, 1}));
  if (quant.rows() != embeddings.rows() || quant.dim() != embeddings.cols()) {
    return Status::InvalidArgument(
        "quantized mirror does not match the embedding matrix");
  }
  if (k == 0) return std::vector<Neighbor>{};
  EHNA_TRACE_PHASE("eval.phase.knn_query_quantized");

  const int64_t n = embeddings.rows();
  const float* q = embeddings.Row(query);
  TopKSelector selected(
      std::min(RerankSurvivors(k, rerank_factor), static_cast<size_t>(n)));

  // Quantized O(N·d) selection pass, blocked through the GEMV kernels.
  QuantizedScorer scorer(&quant, q, similarity);
  constexpr int64_t kBlockRows = 1024;
  std::vector<double> block(kBlockRows);
  for (int64_t base = 0; base < n; base += kBlockRows) {
    const int64_t rows = std::min<int64_t>(kBlockRows, n - base);
    scorer.ScoreBlock(base, rows, block.data());
    for (int64_t i = 0; i < rows; ++i) {
      const NodeId v = static_cast<NodeId>(base + i);
      if (v == query) continue;
      selected.Offer(v, block[static_cast<size_t>(i)]);
    }
  }
  return RerankExact(selected.Drain(), q, embeddings.cols(), similarity, k,
                     [&](NodeId v) { return embeddings.Row(v); });
}

Result<double> PairSimilarity(const Tensor& embeddings, NodeId a, NodeId b,
                              Similarity similarity) {
  if (embeddings.rank() != 2) {
    return Status::InvalidArgument("embeddings must be a matrix");
  }
  if (a >= embeddings.rows() || b >= embeddings.rows()) {
    return Status::OutOfRange("node outside embedding matrix");
  }
  return SimilarityScore(embeddings.Row(a), embeddings.Row(b),
                         embeddings.cols(), similarity);
}

}  // namespace ehna
