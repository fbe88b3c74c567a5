// Unit tests for the reduced-precision serving tier (nn/quant.h,
// DESIGN.md §14): bf16 round-to-nearest-even, per-row symmetric int8
// quantization, exact size accounting, determinism of re-quantization, the
// quantized score combinations in eval/knn.cc (Score vs blocked ScoreBlock
// bitwise, query self-quantization), the exact-scan + fp32 re-rank path,
// and the quantized IVF query. Everything here is ISA-independent by the
// kernel contract; the cross-ISA bitwise checks live in
// tests/kernels_isa_test.cc.

#include <bit>
#include <cmath>
#include <cstring>
#include <set>
#include <vector>

#include "eval/ann.h"
#include "eval/knn.h"
#include "gtest/gtest.h"
#include "nn/quant.h"
#include "util/rng.h"

namespace ehna {
namespace {

Tensor RandomMatrix(int64_t n, int64_t d, uint64_t seed, double lo = -1.0,
                    double hi = 1.0) {
  Rng rng(seed);
  Tensor m(n, d);
  for (int64_t i = 0; i < m.numel(); ++i) {
    m.data()[i] = static_cast<float>(rng.Uniform(lo, hi));
  }
  return m;
}

// --------------------------------------------------------------- bf16

TEST(Bf16, ExactValuesRoundTrip) {
  // Values already representable in bf16 survive the round trip bit-exact.
  for (const float f : {0.0f, 1.0f, -1.0f, 0.5f, -2.0f, 65280.0f}) {
    EXPECT_EQ(F32FromBf16(Bf16FromF32(f)), f);
  }
  // Sign of zero is preserved.
  EXPECT_EQ(std::bit_cast<uint32_t>(F32FromBf16(Bf16FromF32(-0.0f))),
            0x80000000u);
}

TEST(Bf16, RoundsToNearestEven) {
  // Halfway cases: mantissa tail exactly 0x8000 rounds to the even kept
  // lsb — down when the kept lsb is 0, up when it is 1.
  const float down = std::bit_cast<float>(0x3F808000u);  // kept lsb 0
  EXPECT_EQ(Bf16FromF32(down), 0x3F80u);
  const float up = std::bit_cast<float>(0x3F818000u);  // kept lsb 1
  EXPECT_EQ(Bf16FromF32(up), 0x3F82u);
  // Just above/below halfway round to nearest.
  EXPECT_EQ(Bf16FromF32(std::bit_cast<float>(0x3F808001u)), 0x3F81u);
  EXPECT_EQ(Bf16FromF32(std::bit_cast<float>(0x3F807FFFu)), 0x3F80u);
}

TEST(Bf16, SpecialsStaySpecial) {
  const float inf = std::numeric_limits<float>::infinity();
  EXPECT_EQ(F32FromBf16(Bf16FromF32(inf)), inf);
  EXPECT_EQ(F32FromBf16(Bf16FromF32(-inf)), -inf);
  EXPECT_TRUE(std::isnan(F32FromBf16(
      Bf16FromF32(std::numeric_limits<float>::quiet_NaN()))));
  // A NaN whose payload would carry out of the kept bits must stay a NaN,
  // not round into an infinity encoding.
  const float sig_nan = std::bit_cast<float>(0x7F80FFFFu);
  EXPECT_TRUE(std::isnan(F32FromBf16(Bf16FromF32(sig_nan))));
  // Rounding error of the truncation is bounded by half a kept ulp.
  Rng rng(5);
  for (int t = 0; t < 2000; ++t) {
    const float f = static_cast<float>(rng.Uniform(-8.0, 8.0));
    const float w = F32FromBf16(Bf16FromF32(f));
    EXPECT_LE(std::fabs(w - f), std::fabs(f) * (1.0f / 256.0f) + 1e-30f);
  }
}

// --------------------------------------------------------------- int8 rows

TEST(QuantizedMatrix, Int8RowSchemeAndAccounting) {
  Tensor m(2, 4);
  const float row0[4] = {1.0f, -0.5f, 0.25f, 0.0f};
  const float row1[4] = {0.0f, 0.0f, 0.0f, 0.0f};
  std::memcpy(m.Row(0), row0, sizeof(row0));
  std::memcpy(m.Row(1), row1, sizeof(row1));
  const QuantizedMatrix q =
      QuantizedMatrix::FromTensor(m, ServePrecision::kInt8);

  // scale = max-abs/127; codes are RNE of value/scale.
  EXPECT_FLOAT_EQ(q.scale(0), 1.0f / 127.0f);
  EXPECT_EQ(q.RowI8(0)[0], 127);
  EXPECT_EQ(q.RowI8(0)[1], -64);  // -63.5 rounds to even -64
  EXPECT_EQ(q.RowI8(0)[2], 32);   // 31.75 rounds to 32
  EXPECT_EQ(q.RowI8(0)[3], 0);
  EXPECT_EQ(q.sqnorm_i32(0), 127 * 127 + 64 * 64 + 32 * 32);
  // The all-zero row degenerates cleanly.
  EXPECT_EQ(q.scale(1), 0.0f);
  EXPECT_EQ(q.sqnorm_i32(1), 0);

  // Exact byte accounting: codes + fp32 scale + int32 sqnorm per row.
  EXPECT_EQ(q.bytes(), 2u * (4u + 4u + 4u));
}

TEST(QuantizedMatrix, FootprintRatioAtServingDim) {
  const Tensor m = RandomMatrix(100, 32, 7);
  const QuantizedMatrix i8 =
      QuantizedMatrix::FromTensor(m, ServePrecision::kInt8);
  const QuantizedMatrix b16 =
      QuantizedMatrix::FromTensor(m, ServePrecision::kBf16);
  const size_t fp32_bytes = static_cast<size_t>(m.numel()) * 4;
  // d=32: int8 is 40B/row vs 128B fp32 (3.2x); bf16 is 72B/row (~1.8x).
  EXPECT_GE(fp32_bytes, 3 * i8.bytes());
  EXPECT_GT(fp32_bytes, b16.bytes());
}

TEST(QuantizedMatrix, RequantizeIsPureAndDeterministic) {
  const Tensor m = RandomMatrix(64, 17, 11);
  QuantizedMatrix a = QuantizedMatrix::FromTensor(m, ServePrecision::kInt8);
  QuantizedMatrix b = QuantizedMatrix::FromTensor(m, ServePrecision::kInt8);
  ASSERT_EQ(a.rows(), b.rows());
  EXPECT_EQ(std::memcmp(a.DataI8(), b.DataI8(),
                        static_cast<size_t>(a.rows() * a.dim())),
            0);
  // Re-quantizing an unchanged row reproduces the stored bytes exactly.
  std::vector<int8_t> before(a.RowI8(3), a.RowI8(3) + a.dim());
  a.RequantizeRow(3, m.Row(3));
  EXPECT_EQ(std::memcmp(before.data(), a.RowI8(3),
                        static_cast<size_t>(a.dim())),
            0);
  // EnsureRows growth leaves existing rows untouched.
  const std::vector<int8_t> all(a.DataI8(),
                                a.DataI8() + a.rows() * a.dim());
  a.EnsureRows(80);
  EXPECT_EQ(a.rows(), 80);
  EXPECT_EQ(std::memcmp(all.data(), a.DataI8(), all.size()), 0);
}

TEST(QuantizedMatrix, ErrorBoundedByHalfStep) {
  const Tensor m = RandomMatrix(50, 33, 13, -3.0, 3.0);
  const QuantizedMatrix q =
      QuantizedMatrix::FromTensor(m, ServePrecision::kInt8);
  std::vector<float> deq(33);
  for (int64_t r = 0; r < m.rows(); ++r) {
    q.Dequantize(r, deq.data());
    for (int64_t j = 0; j < 33; ++j) {
      // RNE error is at most half a quantization step.
      EXPECT_LE(std::fabs(deq[j] - m.Row(r)[j]),
                0.5f * q.scale(r) + 1e-7f);
    }
  }
  const QuantErrorStats stats = q.ErrorStats(m);
  EXPECT_GT(stats.max_abs, 0.0);
  EXPECT_LE(stats.mean_abs, stats.max_abs);
  EXPECT_LE(stats.max_abs, 0.5 * (3.0 / 127.0) + 1e-6);
}

TEST(ParseServePrecision, RoundTripsAndRejects) {
  for (const ServePrecision p : {ServePrecision::kFp32, ServePrecision::kInt8,
                                 ServePrecision::kBf16}) {
    auto parsed = ParseServePrecision(ServePrecisionName(p));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(parsed.value(), p);
  }
  EXPECT_FALSE(ParseServePrecision("fp16").ok());
}

// ------------------------------------------------------------ scoring

class QuantScoringTest : public ::testing::TestWithParam<ServePrecision> {};

TEST_P(QuantScoringTest, ScoreMatchesScoreBlockBitwise) {
  const Tensor m = RandomMatrix(300, 23, 17);
  const QuantizedMatrix q = QuantizedMatrix::FromTensor(m, GetParam());
  for (const Similarity sim :
       {Similarity::kDotProduct, Similarity::kCosine,
        Similarity::kNegativeEuclidean}) {
    QuantizedScorer scorer(&q, m.Row(5), sim);
    std::vector<double> block(static_cast<size_t>(q.rows()));
    scorer.ScoreBlock(0, q.rows(), block.data());
    for (int64_t r = 0; r < q.rows(); ++r) {
      const double s = scorer.Score(r);
      const double b = block[static_cast<size_t>(r)];
      EXPECT_EQ(std::memcmp(&s, &b, sizeof(double)), 0)
          << "row " << r << " sim " << static_cast<int>(sim);
    }
  }
}

TEST_P(QuantScoringTest, QuantizedScoreTracksFp32Score) {
  const Tensor m = RandomMatrix(200, 32, 19);
  const QuantizedMatrix q = QuantizedMatrix::FromTensor(m, GetParam());
  for (const Similarity sim :
       {Similarity::kDotProduct, Similarity::kCosine,
        Similarity::kNegativeEuclidean}) {
    QuantizedScorer scorer(&q, m.Row(0), sim);
    for (int64_t r = 1; r < 50; ++r) {
      const double exact = SimilarityScore(m.Row(0), m.Row(r), 32, sim);
      // Per-element error <= scale/2 ~ 1/254 of the row max-abs; over a
      // 32-dim dot of O(1) values that stays well inside 0.5.
      EXPECT_NEAR(scorer.Score(r), exact, 0.5);
    }
  }
}

TEST(QuantScoring, NodeQueryReproducesItsStoredCodes) {
  const Tensor m = RandomMatrix(40, 19, 23);
  const QuantizedMatrix q =
      QuantizedMatrix::FromTensor(m, ServePrecision::kInt8);
  // Quantizing a node's fp32 row as a query is the same pure function that
  // produced its stored row, so codes/scale/sqnorm agree exactly.
  const QuantizedQuery pq =
      PrepareQuantizedQuery(m.Row(7), 19, ServePrecision::kInt8);
  EXPECT_EQ(std::memcmp(pq.i8.data(), q.RowI8(7), 19), 0);
  const float qs = pq.scale;
  const float rs = q.scale(7);
  EXPECT_EQ(std::memcmp(&qs, &rs, sizeof(float)), 0);
  EXPECT_EQ(pq.sqnorm_i32, q.sqnorm_i32(7));
}

TEST_P(QuantScoringTest, ExactScanRerankReturnsOracleScores) {
  const Tensor m = RandomMatrix(500, 24, 29);
  const QuantizedMatrix q = QuantizedMatrix::FromTensor(m, GetParam());
  const NodeId query = 3;
  const size_t k = 10;
  auto quant_or = TopKNeighborsQuantized(m, q, query, k,
                                         Similarity::kNegativeEuclidean);
  ASSERT_TRUE(quant_or.ok());
  auto exact_or = TopKNeighbors(m, query, k, Similarity::kNegativeEuclidean);
  ASSERT_TRUE(exact_or.ok());
  const auto& quant = quant_or.value();
  const auto& exact = exact_or.value();
  ASSERT_EQ(quant.size(), k);

  // Returned scores are the exact fp32 oracle's, not quantized values.
  for (const Neighbor& nb : quant) {
    EXPECT_EQ(nb.score, SimilarityScore(m.Row(query), m.Row(nb.node), 24,
                                        Similarity::kNegativeEuclidean));
  }
  // Descending, and high recall vs the oracle on this easy distribution.
  for (size_t i = 1; i < quant.size(); ++i) {
    EXPECT_GE(quant[i - 1].score, quant[i].score);
  }
  std::set<NodeId> truth;
  for (const Neighbor& nb : exact) truth.insert(nb.node);
  size_t hits = 0;
  for (const Neighbor& nb : quant) hits += truth.count(nb.node);
  EXPECT_GE(hits, k - 1);
}

TEST_P(QuantScoringTest, IvfQuantizedQueryMatchesSemantics) {
  const Tensor m = RandomMatrix(600, 16, 31);
  const QuantizedMatrix q = QuantizedMatrix::FromTensor(m, GetParam());
  IvfFlatOptions opt;
  opt.num_lists = 16;
  opt.nprobe = 16;  // probe everything: candidate set == full matrix.
  auto index_or = IvfFlatIndex::Build(m, opt);
  ASSERT_TRUE(index_or.ok());
  const IvfFlatIndex& index = index_or.value();

  const NodeId node = 11;
  auto quant_or = index.QueryNode(node, 5, /*nprobe=*/0, &q);
  ASSERT_TRUE(quant_or.ok());
  auto exact_or = TopKNeighbors(m, node, 5, Similarity::kNegativeEuclidean);
  ASSERT_TRUE(exact_or.ok());
  ASSERT_EQ(quant_or.value().size(), 5u);
  // All-probes quantized query with fp32 re-rank: top-1 must agree with
  // the oracle, and every returned score is the exact fp32 score.
  EXPECT_EQ(quant_or.value()[0].node, exact_or.value()[0].node);
  for (const Neighbor& nb : quant_or.value()) {
    EXPECT_EQ(nb.score, SimilarityScore(m.Row(node), m.Row(nb.node), 16,
                                        Similarity::kNegativeEuclidean));
  }
}

// The mirror's precision is the tier: an fp32 (empty) mirror, as an fp32
// server holds, makes both scans the plain fp32 ones, bit for bit.
TEST(QuantScoring, EmptyFp32MirrorScansInFp32) {
  const Tensor m = RandomMatrix(200, 16, 41);
  const QuantizedMatrix empty;
  ASSERT_EQ(empty.precision(), ServePrecision::kFp32);
  auto index_or = IvfFlatIndex::Build(m, {});
  ASSERT_TRUE(index_or.ok());
  const IvfFlatIndex& index = index_or.value();
  const auto same = [](const std::vector<Neighbor>& a,
                       const std::vector<Neighbor>& b) {
    if (a.size() != b.size()) return false;
    for (size_t i = 0; i < a.size(); ++i) {
      if (a[i].node != b[i].node ||
          std::memcmp(&a[i].score, &b[i].score, sizeof(double)) != 0) {
        return false;
      }
    }
    return true;
  };
  for (const NodeId q : {NodeId{0}, NodeId{17}, NodeId{199}}) {
    auto tiered = TopKNeighborsQuantized(m, empty, q, 10,
                                         Similarity::kNegativeEuclidean);
    auto plain = TopKNeighbors(m, q, 10, Similarity::kNegativeEuclidean);
    ASSERT_TRUE(tiered.ok()) << tiered.status().ToString();
    ASSERT_TRUE(plain.ok());
    EXPECT_TRUE(same(tiered.value(), plain.value())) << "query " << q;
    auto ivf_tiered = index.QueryNode(q, 10, /*nprobe=*/0, &empty);
    auto ivf_plain = index.QueryNode(q, 10);
    ASSERT_TRUE(ivf_tiered.ok());
    ASSERT_TRUE(ivf_plain.ok());
    EXPECT_TRUE(same(ivf_tiered.value(), ivf_plain.value())) << "query " << q;
  }
}

// Regression: the survivor count rerank_factor · k wrapped to 0 at
// k = 2^62, rerank_factor 4, and both quantized scans then read the top of
// an empty heap. The count now saturates, so a k past the candidate count
// returns every candidate, re-ranked.
TEST_P(QuantScoringTest, HugeKDoesNotWrapTheSurvivorCount) {
  const Tensor m = RandomMatrix(300, 16, 37);
  const QuantizedMatrix q = QuantizedMatrix::FromTensor(m, GetParam());
  IvfFlatOptions opt;
  opt.num_lists = 8;
  opt.nprobe = 8;
  auto index_or = IvfFlatIndex::Build(m, opt);
  ASSERT_TRUE(index_or.ok());
  const IvfFlatIndex& index = index_or.value();
  for (const size_t k : {size_t{1} << 62, SIZE_MAX}) {
    auto exact = TopKNeighborsQuantized(m, q, 7, k,
                                        Similarity::kNegativeEuclidean, 4);
    ASSERT_TRUE(exact.ok());
    EXPECT_EQ(exact.value().size(), 299u) << "k " << k;
    auto ivf = index.QueryNode(7, k, /*nprobe=*/0, &q, 4);
    ASSERT_TRUE(ivf.ok());
    EXPECT_EQ(ivf.value().size(), 299u) << "k " << k;
    for (size_t i = 1; i < ivf.value().size(); ++i) {
      EXPECT_GE(ivf.value()[i - 1].score, ivf.value()[i].score);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllPrecisions, QuantScoringTest,
                         ::testing::Values(ServePrecision::kInt8,
                                           ServePrecision::kBf16),
                         [](const auto& info) {
                           return std::string(ServePrecisionName(info.param));
                         });

}  // namespace
}  // namespace ehna
