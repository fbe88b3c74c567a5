// Golden fingerprints of every top-k query path. A fixed matrix (with
// exactly tied rows and an all-zero row) is queried through the exact
// scan, the batched exact scan and the IVF index, at each precision tier
// (fp32, int8, bf16), under each similarity, at k in {1, 10, 50, 800}; the
// IVF index additionally carries ids appended and ids moved after its
// quantized mirror was taken, and is probed at the default nprobe and at
// every list. Each (similarity, tier, path) is pinned by the FNV-1a-64
// hash of its results' (node, score bits), in query order.
//
// The pins are the oracle of the query paths: any refactor of selection,
// re-rank or probing that keeps the answers must leave every constant
// untouched, ties and result order included. Scalar and AVX2 kernels are
// bitwise identical (DESIGN.md §9), so the same constants hold under
// EHNA_KERNEL_ISA=scalar and =avx2.
#include <gtest/gtest.h>

#include <cstdint>
#include <iterator>
#include <sstream>
#include <string>
#include <vector>

#include "eval/ann.h"
#include "eval/knn.h"
#include "nn/quant.h"
#include "util/rng.h"

namespace ehna {
namespace {

constexpr int64_t kRows = 1000;
constexpr int64_t kDim = 13;  // not a multiple of any kernel block width.
constexpr NodeId kTiedRow = 3;        // rows 10 and 11 are copies of it.
constexpr NodeId kZeroRow = 20;
constexpr size_t kKs[] = {1, 10, 50, 800};
// Re-rank depths of the quantized tiers: at 1 the quantized selection alone
// decides which rows are returned, at 4 (the default) mostly the re-rank.
constexpr size_t kRerankFactors[] = {1, 4};
constexpr ServePrecision kTiers[] = {ServePrecision::kFp32,
                                     ServePrecision::kInt8,
                                     ServePrecision::kBf16};
const std::vector<NodeId> kExactQueries = {0, kTiedRow, 10, kZeroRow, 500,
                                           kRows - 1};

class Fnv1a64 {
 public:
  void Add(const void* data, size_t size) {
    const auto* bytes = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < size; ++i) {
      h_ ^= bytes[i];
      h_ *= 0x100000001b3ULL;
    }
  }
  void Add(const std::vector<Neighbor>& result) {
    const uint64_t n = result.size();
    Add(&n, sizeof(n));
    for (const Neighbor& nb : result) {
      Add(&nb.node, sizeof(nb.node));
      Add(&nb.score, sizeof(nb.score));
    }
  }
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 0xcbf29ce484222325ULL;
};

std::string Hex(uint64_t v) {
  std::ostringstream ss;
  ss << "0x" << std::hex << v << "ULL";
  return ss.str();
}

Tensor GoldenMatrix() {
  Rng rng(0x51);
  Tensor m(kRows, kDim);
  for (int64_t i = 0; i < m.numel(); ++i) {
    m.data()[i] = static_cast<float>(rng.Uniform(-1.0, 1.0));
  }
  for (const int64_t copy : {10, 11}) {
    for (int64_t j = 0; j < kDim; ++j) m.Row(copy)[j] = m.Row(kTiedRow)[j];
  }
  for (int64_t j = 0; j < kDim; ++j) m.Row(kZeroRow)[j] = 0.0f;
  return m;
}

/// Ids the IVF index gains after its mirror was taken: a dense run past the
/// mirror's rows plus one sparse id (leaving absent ids in between).
std::vector<NodeId> AppendedIds() {
  std::vector<NodeId> ids;
  for (NodeId v = kRows; v < kRows + 10; ++v) ids.push_back(v);
  ids.push_back(kRows + 40);
  return ids;
}

/// Existing ids whose vectors change after the mirror was taken (the mirror
/// keeps their old codes; most land in another cell).
const std::vector<NodeId> kMovedIds = {5, 6, 7, 100, 200};

const std::vector<NodeId> kIvfQueries = {0,   kTiedRow,  10,
                                         kZeroRow, 5, kRows + 2,
                                         kRows + 40};

IvfFlatIndex GoldenIndex(const Tensor& m, Similarity similarity) {
  IvfFlatOptions opt;
  opt.similarity = similarity;
  auto index_or = IvfFlatIndex::Build(m, opt);
  EHNA_CHECK(index_or.ok());
  IvfFlatIndex index = std::move(index_or).value();
  Rng rng(0x52);
  std::vector<float> vec(kDim);
  std::vector<NodeId> updates = AppendedIds();
  updates.insert(updates.end(), kMovedIds.begin(), kMovedIds.end());
  for (const NodeId v : updates) {
    for (float& x : vec) x = static_cast<float>(rng.Uniform(-1.0, 1.0));
    index.Update(v, vec.data());
  }
  return index;
}

struct SimilarityPins {
  Similarity similarity;
  uint64_t exact[3];  // per tier: fp32, int8, bf16.
  uint64_t ivf[3];
};

// The pins hold for one floating-point code generation. SimilarityScore
// and the quantized score combinations are scalar double code, which GCC
// contracts into FMA where the target ISA has it (-march=native on an FMA
// host, the default build); a build without FMA has its own set. Only the
// -L2 pins differ between the sets: a float·float product is exact in
// double, so fusing it into the dot and cosine sums moves no bits. Both
// sets were recorded with GCC.
#if defined(__FMA__)
const SimilarityPins kPins[] = {
    {Similarity::kDotProduct,
     {0x8da61c01611d1aedULL, 0x6a80d3eb238a7a4cULL, 0x6c200a39f7e88351ULL},
     {0x09fb5823b0ee2a71ULL, 0xfb216c368a9a5377ULL, 0x2abfca0031671c72ULL}},
    {Similarity::kCosine,
     {0xb77602b3950d3131ULL, 0xe42c9e768b88b6a5ULL, 0xab9c8b40c761a560ULL},
     {0x835dc647fc5a518dULL, 0x0760dcafdcda6c7eULL, 0x86d6a6162ab24340ULL}},
    {Similarity::kNegativeEuclidean,
     {0x2b0f7c2f30404969ULL, 0xb4a8f4561daa4ee9ULL, 0x7b3a473296631f8fULL},
     {0x69fcfab5461e64d1ULL, 0xdf16425615c63b5aULL, 0xfd3b315386eb0580ULL}},
};
#else
const SimilarityPins kPins[] = {
    {Similarity::kDotProduct,
     {0x8da61c01611d1aedULL, 0x6a80d3eb238a7a4cULL, 0x6c200a39f7e88351ULL},
     {0x09fb5823b0ee2a71ULL, 0xfb216c368a9a5377ULL, 0x2abfca0031671c72ULL}},
    {Similarity::kCosine,
     {0xb77602b3950d3131ULL, 0xe42c9e768b88b6a5ULL, 0xab9c8b40c761a560ULL},
     {0x835dc647fc5a518dULL, 0x0760dcafdcda6c7eULL, 0x86d6a6162ab24340ULL}},
    {Similarity::kNegativeEuclidean,
     {0x4d96897c2f129e05ULL, 0x6ce81f8fa8f98f72ULL, 0x63dc3f83bd134ad4ULL},
     {0x5570357fe47b49a9ULL, 0xf8f7b057b2ac4c05ULL, 0xf8c2eb6b378af533ULL}},
};
#endif

std::string Tag(const SimilarityPins& p, size_t tier) {
  return "similarity " + std::to_string(static_cast<int>(p.similarity)) +
         " tier " + ServePrecisionName(kTiers[tier]);
}

TEST(QueryGoldenTest, FixtureHasTiesAZeroRowAndAStaleMirror) {
  const Tensor m = GoldenMatrix();
  for (const Similarity sim :
       {Similarity::kDotProduct, Similarity::kCosine,
        Similarity::kNegativeEuclidean}) {
    const double tied = SimilarityScore(m.Row(0), m.Row(kTiedRow), kDim, sim);
    EXPECT_EQ(SimilarityScore(m.Row(0), m.Row(10), kDim, sim), tied);
    EXPECT_EQ(SimilarityScore(m.Row(0), m.Row(11), kDim, sim), tied);
  }
  EXPECT_EQ(SimilarityScore(m.Row(0), m.Row(kZeroRow), kDim,
                            Similarity::kCosine),
            0.0);
  const IvfFlatIndex index = GoldenIndex(m, Similarity::kNegativeEuclidean);
  EXPECT_EQ(index.size(), static_cast<size_t>(kRows) + AppendedIds().size());
  for (const NodeId v : kIvfQueries) EXPECT_NE(index.VectorOf(v), nullptr);
}

TEST(QueryGoldenTest, ExactScanAtEveryTier) {
  const Tensor m = GoldenMatrix();
  for (const SimilarityPins& p : kPins) {
    for (size_t t = 0; t < 3; ++t) {
      const QuantizedMatrix mirror = QuantizedMatrix::FromTensor(m, kTiers[t]);
      Fnv1a64 h;
      for (const size_t rerank_factor : kRerankFactors) {
        for (const size_t k : kKs) {
          for (const NodeId q : kExactQueries) {
            auto res = TopKNeighborsQuantized(m, mirror, q, k, p.similarity,
                                              rerank_factor);
            ASSERT_TRUE(res.ok()) << res.status().ToString();
            h.Add(res.value());
          }
        }
      }
      EXPECT_EQ(h.value(), p.exact[t])
          << Tag(p, t) << ": exact fingerprint is " << Hex(h.value());
    }
  }
}

TEST(QueryGoldenTest, BatchedScanReproducesTheExactPins) {
  const Tensor m = GoldenMatrix();
  for (const SimilarityPins& p : kPins) {
    // The fp32 tier ignores the re-rank depth, so its pin covers the grid
    // twice over.
    Fnv1a64 h;
    for (size_t pass = 0; pass < std::size(kRerankFactors); ++pass) {
      for (const size_t k : kKs) {
        auto res = TopKNeighborsBatch(m, kExactQueries, k, p.similarity);
        ASSERT_TRUE(res.ok()) << res.status().ToString();
        for (const auto& r : res.value()) h.Add(r);
      }
    }
    EXPECT_EQ(h.value(), p.exact[0])
        << Tag(p, 0) << ": batched fingerprint is " << Hex(h.value());
  }
}

TEST(QueryGoldenTest, IvfAtEveryTierAndProbeDepth) {
  const Tensor m = GoldenMatrix();
  for (const SimilarityPins& p : kPins) {
    const IvfFlatIndex index = GoldenIndex(m, p.similarity);
    for (size_t t = 0; t < 3; ++t) {
      const QuantizedMatrix mirror = QuantizedMatrix::FromTensor(m, kTiers[t]);
      Fnv1a64 h;
      for (const size_t rerank_factor : kRerankFactors) {
        for (const size_t nprobe : {size_t{0}, index.num_lists()}) {
          for (const size_t k : kKs) {
            for (const NodeId q : kIvfQueries) {
              auto res = index.QueryNode(q, k, nprobe, &mirror, rerank_factor);
              ASSERT_TRUE(res.ok()) << res.status().ToString();
              h.Add(res.value());
            }
          }
        }
      }
      EXPECT_EQ(h.value(), p.ivf[t])
          << Tag(p, t) << ": IVF fingerprint is " << Hex(h.value());
    }
  }
}

}  // namespace
}  // namespace ehna
