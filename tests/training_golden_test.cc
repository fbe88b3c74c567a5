// Golden fingerprints of training. A short fixed-seed run is trained for
// every variant at 1 and 4 threads, for the bidirectional (Eq. 7) +
// population-BatchNorm objective, and under the async pipeline; each run
// is pinned by the FNV-1a-64 hash of its checkpoint bytes (parameters,
// dense and sparse Adam state, BatchNorm statistics, RNG state, epoch
// counter) and of its FinalizeEmbeddings bytes.
//
// The pins make the training loop's structure free to change: any
// refactor of planning, packing, sharding, reduction or the optimizer step
// that keeps the numbers must leave every constant untouched. A deliberate
// numeric change (new walk sampler, new kernel accumulation order) re-pins
// here and records the re-pin in CHANGES.md. Scalar and AVX2 kernels are
// bitwise identical (DESIGN.md §9), so the same constants hold under
// EHNA_KERNEL_ISA=scalar and =avx2.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/model.h"
#include "graph/generators/generators.h"
#include "util/metrics.h"

namespace ehna {
namespace {

namespace fs = std::filesystem;

constexpr NodeId kIsolatedNodes = 3;

uint64_t Fnv1a64(const void* data, size_t size) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  uint64_t h = 0xcbf29ce484222325ULL;
  for (size_t i = 0; i < size; ++i) {
    h ^= bytes[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// The tiny DBLP substitute plus `kIsolatedNodes` nodes without any edge,
/// so finalize runs its isolated-node path next to the aggregated one.
TemporalGraph GoldenGraph() {
  auto base = MakePaperDataset(PaperDataset::kDblp, 0.02, 9);
  EHNA_CHECK(base.ok());
  auto g = TemporalGraph::FromEdges(
      base.value().edges(), base.value().num_nodes() + kIsolatedNodes,
      base.value().directed());
  EHNA_CHECK(g.ok());
  return std::move(g).value();
}

/// Batches of 8, 8, 8 and 3 edges per epoch: the ragged last batch splits
/// into fewer shards than the 4-thread trainer has workers.
EhnaConfig GoldenConfig(EhnaVariant variant, int num_threads) {
  EhnaConfig cfg;
  cfg.variant = variant;
  cfg.dim = 4;
  cfg.num_walks = 2;
  cfg.walk_length = 3;
  cfg.lstm_layers = 2;
  cfg.num_negatives = 2;
  cfg.batch_edges = 8;
  cfg.epochs = 2;
  cfg.max_edges_per_epoch = 27;
  cfg.learning_rate = 5e-3f;
  cfg.seed = 11;
  cfg.num_threads = num_threads;
  return cfg;
}

struct Fingerprint {
  uint64_t checkpoint = 0;
  uint64_t embeddings = 0;
};

Fingerprint TrainAndFingerprint(const TemporalGraph& g, const EhnaConfig& cfg,
                                const std::string& tag) {
  const fs::path dir = fs::temp_directory_path() / "ehna_training_golden";
  fs::create_directories(dir);
  const std::string path = (dir / (tag + ".ehnc")).string();

  Counter* const fallbacks =
      MetricsRegistry::Global().GetCounter("agg.fallbacks");
  const uint64_t fallbacks_before = fallbacks->Total();
  EhnaModel model(&g, cfg);
  model.Train();
  // EHNA-RW's static walks never come back empty, so only the temporal
  // variants reach the fallback.
  if (MetricsEnabled() && cfg.variant != EhnaVariant::kStaticWalk) {
    EXPECT_GT(fallbacks->Total(), fallbacks_before)
        << tag << ": training never took the history-less fallback path";
  }
  EHNA_CHECK(model.SaveCheckpoint(path).ok());
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  const std::string bytes = ss.str();
  EXPECT_FALSE(bytes.empty()) << tag;
  fs::remove(path);

  const Tensor emb = model.FinalizeEmbeddings();
  return {Fnv1a64(bytes.data(), bytes.size()),
          Fnv1a64(emb.data(),
                  sizeof(float) * static_cast<size_t>(emb.numel()))};
}

std::string Hex(uint64_t v) {
  std::ostringstream ss;
  ss << "0x" << std::hex << v << "ULL";
  return ss.str();
}

void ExpectFingerprint(const TemporalGraph& g, const EhnaConfig& cfg,
                       const std::string& tag, const Fingerprint& want) {
  const Fingerprint got = TrainAndFingerprint(g, cfg, tag);
  EXPECT_EQ(got.checkpoint, want.checkpoint)
      << tag << ": checkpoint fingerprint is " << Hex(got.checkpoint);
  EXPECT_EQ(got.embeddings, want.embeddings)
      << tag << ": embedding fingerprint is " << Hex(got.embeddings);
}

struct GoldenCase {
  EhnaVariant variant;
  int num_threads;
  Fingerprint want;
};

// The pins hold for one floating-point code generation. Where the target
// ISA has FMA (-march=native on an FMA host, the default build), GCC may
// fuse a*b+c outside the dispatched kernels, which moves last bits; a
// build whose target lacks FMA has its own pins. Both sets were recorded
// with GCC; other compilers may contract differently.
#if defined(__FMA__)
const GoldenCase kVariantCases[] = {
    {EhnaVariant::kFull, 1, {0xc84444bbb65471a6ULL, 0x89333ee2f3331108ULL}},
    {EhnaVariant::kFull, 4, {0x4e5b46910db3bc04ULL, 0x6eb0570dd54d9e3dULL}},
    {EhnaVariant::kNoAttention, 1,
     {0xe4517e3babe3748cULL, 0xa70dfc522506bb58ULL}},
    {EhnaVariant::kNoAttention, 4,
     {0x431ce6b9a7fbd4e0ULL, 0x05d9ed0853ed833aULL}},
    {EhnaVariant::kStaticWalk, 1,
     {0xf343f8a8dc93296eULL, 0x1dadef9de87d3b46ULL}},
    {EhnaVariant::kStaticWalk, 4,
     {0x0acf5de55a4f57ddULL, 0xe76043ea0244a654ULL}},
    {EhnaVariant::kSingleLayer, 1,
     {0xf424ad9b593b835bULL, 0x5ce3af0505467781ULL}},
    {EhnaVariant::kSingleLayer, 4,
     {0xd874994ef3d2a3fdULL, 0x9b1fbcaf75a02c02ULL}},
};

const GoldenCase kBidirectionalPopulationBnCases[] = {
    {EhnaVariant::kFull, 1, {0x7dac77fed6c852adULL, 0x572b55633cdbdb84ULL}},
    {EhnaVariant::kFull, 4, {0xff241842a8f6d518ULL, 0x39f35a60783af638ULL}},
};
#else
const GoldenCase kVariantCases[] = {
    {EhnaVariant::kFull, 1, {0xfd7d7b3a192eb9a2ULL, 0x2b8c0383b8d610d9ULL}},
    {EhnaVariant::kFull, 4, {0x007d22e400675935ULL, 0xe82a3bf1441edca0ULL}},
    {EhnaVariant::kNoAttention, 1,
     {0x9ef0f8b7d8a2a39aULL, 0x71e2a5c9179e41ffULL}},
    {EhnaVariant::kNoAttention, 4,
     {0x7354bde8efe96b36ULL, 0x169741e8aeb21633ULL}},
    {EhnaVariant::kStaticWalk, 1,
     {0xa44f1297781762b3ULL, 0xe17a26dbff18b257ULL}},
    {EhnaVariant::kStaticWalk, 4,
     {0x63c804ceef0318f2ULL, 0xc7ed640a028861bdULL}},
    {EhnaVariant::kSingleLayer, 1,
     {0x25e7a1596679bb0dULL, 0x918bc3471c65180fULL}},
    {EhnaVariant::kSingleLayer, 4,
     {0x206b53c8da4c4e2dULL, 0x550617383abcbcc5ULL}},
};

const GoldenCase kBidirectionalPopulationBnCases[] = {
    {EhnaVariant::kFull, 1, {0xfc5b34771a564002ULL, 0x4172007ce50429c7ULL}},
    {EhnaVariant::kFull, 4, {0x86657d08e833c16bULL, 0x377d42737c5760a2ULL}},
};
#endif

std::string CaseTag(const GoldenCase& c, const std::string& suffix = "") {
  return std::string(EhnaVariantName(c.variant)) + "_" +
         std::to_string(c.num_threads) + "t" + suffix;
}

TEST(TrainingGoldenTest, GraphCoversIsolatedNodes) {
  const TemporalGraph g = GoldenGraph();
  for (NodeId v = g.num_nodes() - kIsolatedNodes; v < g.num_nodes(); ++v) {
    EXPECT_TRUE(g.Neighbors(v).empty()) << "node " << v;
  }
}

TEST(TrainingGoldenTest, EveryVariantAtOneAndFourThreads) {
  const TemporalGraph g = GoldenGraph();
  for (const GoldenCase& c : kVariantCases) {
    ExpectFingerprint(g, GoldenConfig(c.variant, c.num_threads), CaseTag(c),
                      c.want);
  }
}

TEST(TrainingGoldenTest, BidirectionalNegativesWithPopulationBatchNorm) {
  const TemporalGraph g = GoldenGraph();
  for (const GoldenCase& c : kBidirectionalPopulationBnCases) {
    EhnaConfig cfg = GoldenConfig(c.variant, c.num_threads);
    cfg.bidirectional_negatives = true;
    cfg.population_batchnorm = true;
    ExpectFingerprint(g, cfg, CaseTag(c, "_bidir_popbn"), c.want);
  }
}

TEST(TrainingGoldenTest, AsyncPipelineReproducesSynchronousPins) {
  // The prefetch only moves where batches are planned, so depth 2 must
  // land on the depth-0 pins of the same case.
  const TemporalGraph g = GoldenGraph();
  for (const GoldenCase& c : kVariantCases) {
    if (c.variant != EhnaVariant::kFull) continue;
    EhnaConfig cfg = GoldenConfig(c.variant, c.num_threads);
    cfg.pipeline_depth = 2;
    ExpectFingerprint(g, cfg, CaseTag(c, "_depth2"), c.want);
  }
}

}  // namespace
}  // namespace ehna
