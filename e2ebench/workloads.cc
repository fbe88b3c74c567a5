// The three benchmark workloads. Each generates its inputs from the seed,
// sets up several times (setup_s is the median), warms up untimed, runs a
// fixed amount of timed work sized from --seconds, and checks its outputs.
// The library is driven only through its public entry points.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <memory>
#include <numeric>
#include <optional>
#include <thread>
#include <unordered_map>

#include "bench.h"
#include "core/inference.h"
#include "core/model.h"
#include "eval/link_prediction.h"
#include "graph/edge_log.h"
#include "graph/generators/generators.h"
#include "graph/split.h"
#include "nn/quant.h"
#include "serve/embedding_server.h"
#include "util/rng.h"

namespace e2ebench {

using namespace ehna;  // NOLINT: the benchmark is a client of the library.

namespace {

// Stream salts separating the benchmark's own draws from each other.
constexpr uint64_t kSplitSalt = 0x42454e4353504c54ULL;
constexpr uint64_t kTrafficSalt = 0x42454e4354524146ULL;
constexpr uint64_t kSampleSalt = 0x42454e4353414d50ULL;
// Mirrors kServeGrowSalt in src/serve/embedding_server.cc: the stream the
// server draws table rows for first-seen nodes from. The offline refresh
// oracle must grow its table identically.
constexpr uint64_t kServeGrowSalt = 0x45484E4153525647ULL;

constexpr int64_t kDim = 32;
constexpr size_t kTopK = 10;
constexpr size_t kRecallSample = 200;
constexpr size_t kRecentEdges = 2000;
constexpr size_t kExactSample = 50;
// Set-up repetitions; setup_s is their median. Train's set-up takes about
// 20 ms and its first repetitions run slower while the allocator warms, so
// it repeats 21 times; a serving set-up (2-3 s) repeats 5 times.
constexpr int kTrainSetupReps = 21;
constexpr int kServeSetupReps = 5;
// Quality floors. On the train workload's Tmall substitute, the untrained
// model's final pass already scores ~0.59 AUC and the benchmark's training
// budget reaches 0.67-0.79 across seeds, so the floor sits between the two.
constexpr double kAucFloor = 0.62;
constexpr double kRecallFloor = 0.80;
// The int8 exact scan re-ranks 4k candidates, so it misses a true top-10
// neighbor only among near-ties: on seeds 0-16, one miss in the 500
// answers of seed 7 and none elsewhere.
constexpr double kExactRecallFloor = 0.95;

bool Corrupting(const Context* ctx, const char* check) {
  return ctx->opt.corrupt == check;
}

std::string OutPath(const Context* ctx, const std::string& name) {
  return (std::filesystem::path(ctx->opt.out_dir) / name).string();
}

double Median(std::vector<double> v) { return Percentile(std::move(v), 0.5); }

EhnaConfig ServeTrainingConfig(uint64_t seed) {
  EhnaConfig cfg;
  cfg.dim = kDim;
  cfg.num_walks = 4;
  cfg.walk_length = 5;
  cfg.num_threads = 2;
  cfg.max_edges_per_epoch = 512;
  cfg.epochs = 1;
  cfg.seed = seed;
  return cfg;
}

/// A short untimed training run whose checkpoint the serving workloads load.
Status MakeCheckpoint(const TemporalGraph& graph, const EhnaConfig& cfg,
                      const std::string& path) {
  EhnaModel model(&graph, cfg);
  model.TrainEpoch();
  return model.SaveCheckpoint(path);
}

/// Endpoints of the most recent edges: queries that keep hitting the same
/// hot IVF lists, as a live feed would.
std::vector<NodeId> RecentEndpoints(const std::vector<TemporalEdge>& edges) {
  std::vector<NodeId> pool;
  const size_t from = edges.size() > kRecentEdges ? edges.size() - kRecentEdges
                                                  : 0;
  for (size_t i = from; i < edges.size(); ++i) {
    pool.push_back(edges[i].src);
    pool.push_back(edges[i].dst);
  }
  return pool;
}

/// Share of the exact fp32 top-k found by the served Query, over `nodes`.
double RecallAt10(Context* ctx, const EmbeddingServer& server,
                  const std::vector<NodeId>& nodes, bool corrupt) {
  size_t hits = 0, wanted = 0;
  for (const NodeId v : nodes) {
    auto ann = server.Query(v, kTopK);
    auto exact = server.QueryExactFp32(v, kTopK);
    if (!ctx->ops.Count(ann) || !ctx->ops.Count(exact)) continue;
    for (const Neighbor& e : exact.value()) {
      ++wanted;
      for (const Neighbor& a : ann.value()) {
        const NodeId got = corrupt ? (a.node + 1) % server.num_nodes() : a.node;
        if (got == e.node) {
          ++hits;
          break;
        }
      }
    }
  }
  return wanted == 0 ? 0.0 : static_cast<double>(hits) / wanted;
}

/// True when QueryExact returns exactly QueryExactFp32's ids and score bits
/// on the first kExactSample of `nodes`. On an fp32 server both run the
/// same scan, so this pins the fp32 tier's QueryExact to the oracle.
bool ExactEqualsFp32(Context* ctx, const EmbeddingServer& server,
                     const std::vector<NodeId>& nodes, bool corrupt) {
  bool same = true;
  for (size_t i = 0; i < kExactSample && i < nodes.size(); ++i) {
    auto a = server.QueryExact(nodes[i], kTopK);
    auto b = server.QueryExactFp32(nodes[i], kTopK);
    if (!ctx->ops.Count(a) || !ctx->ops.Count(b)) {
      same = false;
      continue;
    }
    std::vector<Neighbor> got = a.value();
    if (i == 0 && corrupt) {
      got.front().score = std::nextafter(got.front().score, 1e300);
    }
    same = same && got.size() == b.value().size();
    for (size_t j = 0; same && j < got.size(); ++j) {
      same = got[j].node == b.value()[j].node &&
             std::memcmp(&got[j].score, &b.value()[j].score,
                         sizeof(double)) == 0;
    }
  }
  return same;
}

/// What a quantized server's QueryExact promises (eval/knn.h): its
/// quantized scan keeps the top rerank_factor * k candidates and the fp32
/// re-rank returns their exact scores, so every neighbor it returns carries
/// the fp32 oracle's score bits, in the oracle's order (score descending,
/// lower id first on ties). Recall against the fp32 top k is what
/// quantization may cost.
struct QuantizedExact {
  bool scores_exact = true;
  double recall = 0;
};

/// Checks QueryExact on the first kExactSample of `nodes` against the full
/// fp32 ranking from QueryExactFp32.
QuantizedExact CheckQuantizedExact(Context* ctx, const EmbeddingServer& server,
                                   const std::vector<NodeId>& nodes,
                                   bool corrupt_score, bool corrupt_ids) {
  QuantizedExact out;
  const size_t n = server.num_nodes();
  size_t hits = 0, wanted = 0;
  std::vector<double> oracle(n);
  std::vector<char> in_top(n);
  for (size_t i = 0; i < kExactSample && i < nodes.size(); ++i) {
    auto got = server.QueryExact(nodes[i], kTopK);
    auto all = server.QueryExactFp32(nodes[i], n);
    if (!ctx->ops.Count(got) || !ctx->ops.Count(all)) {
      out.scores_exact = false;
      continue;
    }
    std::fill(in_top.begin(), in_top.end(), 0);
    for (size_t r = 0; r < all.value().size(); ++r) {
      const Neighbor& nb = all.value()[r];
      oracle[nb.node] = nb.score;
      in_top[nb.node] = r < kTopK;
    }
    std::vector<Neighbor> answer = got.value();
    if (i == 0 && corrupt_score) {
      answer.front().score = std::nextafter(answer.front().score, 1e300);
    }
    out.scores_exact =
        out.scores_exact &&
        answer.size() == std::min(kTopK, all.value().size());
    for (size_t j = 0; j < answer.size(); ++j) {
      const Neighbor& a = answer[j];
      out.scores_exact =
          out.scores_exact && a.node < n &&
          std::memcmp(&a.score, &oracle[a.node], sizeof(double)) == 0 &&
          (j == 0 || answer[j - 1].score > a.score ||
           (answer[j - 1].score == a.score && answer[j - 1].node < a.node));
      const NodeId id = corrupt_ids ? (a.node + 1) % n : a.node;
      hits += id < n && in_top[id];
    }
    wanted += std::min(kTopK, all.value().size());
  }
  out.recall = wanted == 0 ? 0.0 : static_cast<double>(hits) / wanted;
  return out;
}

std::vector<NodeId> SampleNodes(const std::vector<NodeId>& pool, size_t n,
                                uint64_t seed) {
  Rng rng(seed ^ kSampleSalt);
  std::vector<NodeId> out;
  for (size_t i = 0; i < n && !pool.empty(); ++i) {
    out.push_back(pool[rng.UniformInt(uint64_t{pool.size()})]);
  }
  return out;
}

uint64_t HashTensor(const Tensor& t, uint64_t seed = 0xcbf29ce484222325ULL) {
  return Fnv1a(t.data(), static_cast<size_t>(t.numel()) * sizeof(float),
               seed);
}

/// Sum (ns) of a library phase histogram — read around a single-threaded
/// call to get that call's own time in the phase.
uint64_t PhaseSumNs(const char* phase) {
  return MetricsRegistry::Global().GetHistogram(phase)->Merged().sum();
}

/// Builds the graph from the log and loads a server over it: the serving
/// workloads' set-up, repeated `reps` times (the last server is kept).
std::unique_ptr<EmbeddingServer> SetUpServer(Context* ctx, Report* rep,
                                             const std::string& log,
                                             const std::string& ckpt,
                                             const ServeOptions& opts,
                                             int reps) {
  std::unique_ptr<EmbeddingServer> server;
  std::vector<double> setup;
  ScopedSpan phase(&ctx->spans, "phase.setup");
  for (int r = 0; r < reps; ++r) {
    server.reset();
    const double t0 = NowSeconds();
    Result<TemporalGraph> graph = [&] {
      ScopedSpan s(&ctx->spans, "graph.FromEdgeLog", phase.id());
      return TemporalGraph::FromEdgeLog(log);
    }();
    if (!ctx->ops.Count(graph)) return nullptr;
    auto loaded = [&] {
      ScopedSpan s(&ctx->spans, "serve.Load", phase.id());
      return EmbeddingServer::Load(ckpt, std::move(graph).value(), opts);
    }();
    if (!ctx->ops.Count(loaded)) return nullptr;
    setup.push_back(NowSeconds() - t0);
    server = std::move(loaded).value();
  }
  rep->e2e["setup_s"] = Median(setup);
  rep->layers.load_nodes = server->num_nodes();
  return server;
}

// ------------------------------------------------------- serve_read traffic

enum class Kind { kQuery, kExact, kLink };

struct Request {
  Kind kind = Kind::kQuery;
  NodeId u = 0;
  NodeId v = 0;
};

/// 80% Query, 10% QueryExact, 10% LinkScore over `pool`.
std::vector<Request> MakeRequests(const std::vector<NodeId>& pool, size_t n,
                                  Rng* rng) {
  std::vector<Request> out(n);
  for (Request& r : out) {
    const double p = rng->Uniform();
    r.kind = p < 0.8 ? Kind::kQuery : (p < 0.9 ? Kind::kExact : Kind::kLink);
    r.u = pool[rng->UniformInt(uint64_t{pool.size()})];
    r.v = pool[rng->UniformInt(uint64_t{pool.size()})];
  }
  return out;
}

void Execute(Context* ctx, const EmbeddingServer& server, const Request& r,
             uint64_t parent, uint64_t request_id) {
  switch (r.kind) {
    case Kind::kQuery: {
      ScopedSpan s(&ctx->spans, "serve.Query", parent, request_id);
      ctx->ops.Count(server.Query(r.u, kTopK));
      return;
    }
    case Kind::kExact: {
      ScopedSpan s(&ctx->spans, "serve.QueryExact", parent, request_id);
      ctx->ops.Count(server.QueryExact(r.u, kTopK));
      return;
    }
    case Kind::kLink: {
      ScopedSpan s(&ctx->spans, "serve.LinkScore", parent, request_id);
      ctx->ops.Count(server.LinkScore(r.u, r.v));
      return;
    }
  }
}

/// Waits until `due` (steady-clock seconds): sleeps to just short of it,
/// then spins, so timer slack stays in microseconds without a client
/// burning a core. Waking later than that (a descheduled vCPU) shows as
/// generator lateness, which is reported and not charged to the server.
void WaitUntil(double due) {
  constexpr double kSpin = 200e-6;
  const double now = NowSeconds();
  if (due - now > kSpin) {
    std::this_thread::sleep_for(
        std::chrono::duration<double>(due - now - kSpin));
  }
  while (NowSeconds() < due) {
  }
}

/// Open-loop client `c` of `clients`: issues requests c, c+clients, ...
/// below `count` through `call`, request i due at t0 + i / rate.
template <typename Call>
OpenLoopStats RunOpenLoopClient(size_t c, size_t clients, size_t count,
                                double rate, double t0, Call&& call) {
  std::vector<OpenLoopSample> samples;
  for (size_t i = c; i < count; i += clients) {
    OpenLoopSample s;
    s.due = t0 + static_cast<double>(i) / rate;
    WaitUntil(s.due);
    s.start = NowSeconds();
    call(i);
    s.end = NowSeconds();
    samples.push_back(s);
  }
  return AccountOpenLoop(samples);
}

// ------------------------------------------------------------ serve_write

/// Renumbers node ids in order of first appearance, so ids first seen in
/// the streamed suffix are exactly those past the base graph's range.
void RelabelByFirstAppearance(std::vector<TemporalEdge>* edges) {
  std::unordered_map<NodeId, NodeId> ids;
  auto id = [&](NodeId v) {
    auto [it, inserted] = ids.try_emplace(v, static_cast<NodeId>(ids.size()));
    return it->second;
  };
  for (TemporalEdge& e : *edges) {
    e.src = id(e.src);
    e.dst = id(e.dst);
  }
}

bool SameQuantizedRows(const QuantizedMatrix& a, const QuantizedMatrix& b) {
  if (a.rows() != b.rows() || a.dim() != b.dim()) return false;
  for (int64_t r = 0; r < a.rows(); ++r) {
    const float sa = a.scale(r), sb = b.scale(r);
    if (std::memcmp(a.RowI8(r), b.RowI8(r), static_cast<size_t>(a.dim())) ||
        std::memcmp(&sa, &sb, sizeof(float)) ||
        a.sqnorm_i32(r) != b.sqnorm_i32(r)) {
      return false;
    }
  }
  return true;
}

void RecordCheck(Report* report, const std::string& name, bool passed) {
  report->checks[name] = passed;
  if (!passed) {
    std::fprintf(stderr, "e2ebench: check failed: %s\n", name.c_str());
  }
}

}  // namespace

// ==================================================================== train

Report RunTrain(Context* ctx) {
  const Options& o = ctx->opt;
  Report rep;
  const double scale = o.tiny ? 0.5 : 4.0;
  const int setup_reps = o.tiny ? 1 : kTrainSetupReps;
  const int warmup_steps = o.tiny ? 2 : 8;
  const int steps = o.tiny ? 12 : std::max(100, 8 * o.seconds);
  constexpr double kTailQ = 0.90;
  constexpr size_t kWindow = 16;

  // Inputs: Tmall substitute, temporal hold-out, training prefix as a log.
  auto full = MakePaperDataset(PaperDataset::kTmall, scale, o.seed);
  if (!full.ok()) return rep;
  Rng split_rng(o.seed ^ kSplitSalt);
  auto split = MakeTemporalSplit(full.value(), {}, &split_rng);
  if (!split.ok()) return rep;
  const std::string log = OutPath(ctx, "train.ehnl");
  const TemporalGraph& train_graph = split.value().train;
  if (!WriteEdgeLog(log, train_graph.edges(), train_graph.num_nodes(),
                    train_graph.directed())
           .ok()) {
    return rep;
  }
  EhnaConfig cfg;  // paper walk defaults: k = 10, l = 10, Q = 5, 2 layers.
  cfg.dim = kDim;
  cfg.num_threads = 2;
  cfg.pipeline_depth = 0;
  cfg.max_edges_per_epoch = static_cast<size_t>(cfg.batch_edges);
  cfg.seed = o.seed;

  ResetPeakRss();
  MetricsRegistry::Global().Reset();

  // Set-up: FromEdgeLog + EhnaModel construction.
  std::optional<TemporalGraph> graph;
  std::unique_ptr<EhnaModel> model;
  {
    ScopedSpan phase(&ctx->spans, "phase.setup");
    std::vector<double> setup;
    for (int r = 0; r < setup_reps; ++r) {
      model.reset();
      const double t0 = NowSeconds();
      {
        ScopedSpan s(&ctx->spans, "graph.FromEdgeLog", phase.id());
        auto g = TemporalGraph::FromEdgeLog(log);
        if (!ctx->ops.Count(g)) return rep;
        graph.emplace(std::move(g).value());
      }
      {
        ScopedSpan s(&ctx->spans, "core.EhnaModel", phase.id());
        model = std::make_unique<EhnaModel>(&*graph, cfg);
      }
      setup.push_back(NowSeconds() - t0);
    }
    rep.e2e["setup_s"] = Median(setup);
  }

  // One training step = one TrainEpoch capped at one edge batch.
  std::vector<double> losses;
  {
    ScopedSpan phase(&ctx->spans, "phase.warmup");
    for (int i = 0; i < warmup_steps; ++i) {
      ScopedSpan s(&ctx->spans, "core.TrainEpoch", phase.id());
      losses.push_back(model->TrainEpoch().avg_loss);
    }
  }
  std::vector<double> step_s;
  size_t edges = 0;
  {
    ScopedSpan phase(&ctx->spans, "phase.timed");
    const HostSample h0 = SampleHost();
    for (int i = 0; i < steps; ++i) {
      ScopedSpan s(&ctx->spans, "core.TrainEpoch", phase.id(), i + 1);
      const double t0 = NowSeconds();
      const EhnaModel::EpochStats st = model->TrainEpoch();
      step_s.push_back(NowSeconds() - t0);
      edges += st.edges;
      losses.push_back(st.avg_loss);
    }
    const HostSample h1 = SampleHost();
    rep.layers.steal_share = StealShare(h0, h1);
    rep.layers.cpu_per_wall = CpuPerWall(h0, h1);
  }
  // Throughput: median over windows of kWindow steps of edges per busy
  // second.
  std::vector<double> busy_done(step_s.size());
  std::partial_sum(step_s.begin(), step_s.end(), busy_done.begin());
  rep.e2e["throughput_per_s"] =
      WindowedRate(busy_done, 0.0, std::min(kWindow, busy_done.size())) *
                                static_cast<double>(edges) /
                                static_cast<double>(step_s.size());
  rep.e2e["latency_p50_ms"] = 1e3 * Percentile(step_s, 0.5);
  rep.e2e["latency_tail_ms"] = 1e3 * Percentile(step_s, kTailQ);
  if (!o.tiny) {
    const size_t n =
        step_s.size() / (Corrupting(ctx, "train.tail_supported") ? 2 : 1);
    RecordCheck(&rep, "train.tail_supported", PercentileSupported(n, kTailQ));
  }

  // Checkpoint, §IV.D final pass, and the §V.E protocol on the hold-out.
  const std::string ckpt = OutPath(ctx, "train.ehnc");
  {
    ScopedSpan s(&ctx->spans, "core.SaveCheckpoint");
    ctx->ops.Count(model->SaveCheckpoint(ckpt));
  }
  Tensor emb;
  {
    ScopedSpan s(&ctx->spans, "core.FinalizeEmbeddings");
    emb = model->FinalizeEmbeddings();
  }
  rep.layers.finalize_nodes = static_cast<size_t>(emb.rows());
  rep.layers.snapshot = MetricsRegistry::Global().Snapshot();
  auto eval_auc = [&](const Tensor& e) {
    ScopedSpan s(&ctx->spans, "eval.EvaluateLinkPrediction");
    auto r = EvaluateLinkPredictionAllOperators(split.value(), e, {});
    if (!ctx->ops.Count(r)) return 0.0;
    double best = 0.0;
    for (const BinaryMetrics& m : r.value()) best = std::max(best, m.auc);
    return best;
  };
  rep.e2e["quality"] = eval_auc(emb);
  rep.e2e["peak_rss_mb"] = PeakRssMb();

  if (Corrupting(ctx, "train.loss_finite")) losses.front() = std::nan("");
  RecordCheck(&rep, "train.loss_finite",
              std::all_of(losses.begin(), losses.end(),
                          [](double l) { return std::isfinite(l); }));
  const double auc = Corrupting(ctx, "train.auc_floor")
                         ? eval_auc(Tensor(emb.rows(), emb.cols()))
                         : rep.e2e["quality"];
  RecordCheck(&rep, "train.auc_floor", auc >= kAucFloor);

  rep.fingerprint = HashTensor(emb);
  rep.fingerprint = Fnv1a(&rep.e2e["quality"], sizeof(double), rep.fingerprint);
  std::filesystem::remove(log);
  std::filesystem::remove(ckpt);
  return rep;
}

// =============================================================== serve_read

Report RunServeRead(Context* ctx) {
  const Options& o = ctx->opt;
  Report rep;
  // Digg substitute x5: its 10^4 x 32 serving matrix (1.3 MB) stays within
  // one core's 2 MB L2 on the reference host. At x10 the exact scans ran
  // from the shared L3 and their latency followed other tenants' load
  // (p95 spread 30 % across seeds).
  const double scale = o.tiny ? 0.5 : 5.0;
  const int setup_reps = o.tiny ? 1 : kServeSetupReps;
  // The single-threaded warm-up (about 1200 Query calls) also yields the
  // Query self-time samples, enough for their p99 at tiny size too.
  constexpr size_t kWarmupN = 1500;
  constexpr size_t kClients = 2;
  // Requests/s over both clients: about a sixth of their capacity, low
  // enough that queueing behind the exact scans stays a small part of the
  // tail.
  constexpr double kRate = 2000.0;
  // p95 sits in the middle of the 10% exact-scan class. p99 on this host is
  // set by stalls of the shared machine and is kept as the per-layer
  // client.read_p99_ms.
  constexpr double kTailQ = 0.95;
  constexpr size_t kWindow = 1000;  // requests; 50 beyond each window's p95.
  constexpr size_t kMinWindows = 5;
  constexpr size_t kRounds = 4;
  const size_t seconds = static_cast<size_t>(o.seconds);
  // At tiny size (a traced run's coverage pass) the counts still support
  // every percentile the traced run reports: p99 of about 1000 open-loop
  // requests and of about 1200 QueryExact calls.
  const size_t open_n =
      o.tiny ? 1200 : std::max(kMinWindows * kWindow, 800 * seconds);
  const size_t closed_n =
      o.tiny ? 10000 : std::max(kMinWindows * kWindow, 1600 * seconds);

  auto full = MakePaperDataset(PaperDataset::kDigg, scale, o.seed);
  if (!full.ok()) return rep;
  const TemporalGraph& g = full.value();
  const std::string log = OutPath(ctx, "read.ehnl");
  const std::string ckpt = OutPath(ctx, "read.ehnc");
  const EhnaConfig train_cfg = ServeTrainingConfig(o.seed);
  if (!WriteEdgeLog(log, g.edges(), g.num_nodes(), g.directed()).ok() ||
      !MakeCheckpoint(g, train_cfg, ckpt).ok()) {
    return rep;
  }
  ServeOptions opts;
  opts.config = train_cfg;
  opts.config.num_threads = 1;
  const std::vector<NodeId> pool = RecentEndpoints(g.edges());
  Rng traffic(o.seed ^ kTrafficSalt);
  const std::vector<Request> warmup = MakeRequests(pool, kWarmupN, &traffic);
  const std::vector<Request> open = MakeRequests(pool, open_n, &traffic);
  const std::vector<Request> closed = MakeRequests(pool, closed_n, &traffic);

  ResetPeakRss();
  MetricsRegistry::Global().Reset();
  std::unique_ptr<EmbeddingServer> server =
      SetUpServer(ctx, &rep, log, ckpt, opts, setup_reps);
  if (server == nullptr) return rep;
  rep.fingerprint = HashTensor(server->ServingEmbeddings());

  {
    // Single-threaded, so a traced run can read each Query's own time in
    // the eval phase from the phase histogram around the call.
    ScopedSpan phase(&ctx->spans, "phase.warmup");
    for (const Request& r : warmup) {
      if (!o.trace || r.kind != Kind::kQuery) {
        Execute(ctx, *server, r, phase.id(), 0);
        continue;
      }
      const uint64_t p0 = PhaseSumNs("eval.phase.ann_query");
      const double c0 = NowSeconds();
      Execute(ctx, *server, r, phase.id(), 0);
      const double call = NowSeconds() - c0;
      const uint64_t p1 = PhaseSumNs("eval.phase.ann_query");
      rep.layers.query_self_s.push_back(call - 1e-9 * (p1 - p0));
    }
  }
  // The timed phase alternates open- and closed-loop rounds, so both see
  // the same stretch of host conditions rather than one each.
  const HostSample h0 = SampleHost();
  std::vector<OpenLoopStats> open_stats;
  std::vector<double> closed_busy_done;  // closed-loop time, gaps removed.
  double closed_busy = 0.0;
  for (size_t round = 0; round < kRounds; ++round) {
    {
      // Open loop: independent users arriving at a fixed rate.
      ScopedSpan phase(&ctx->spans, "phase.open_loop", 0, round + 1);
      const size_t begin = round * open_n / kRounds;
      const size_t end = (round + 1) * open_n / kRounds;
      const double t0 = NowSeconds() + 0.01;
      std::vector<OpenLoopStats> per_client(kClients);
      std::vector<std::thread> clients;
      for (size_t c = 0; c < kClients; ++c) {
        clients.emplace_back([&, c] {
          per_client[c] = RunOpenLoopClient(
              c, kClients, end - begin, kRate, t0, [&](size_t i) {
                Execute(ctx, *server, open[begin + i], phase.id(),
                        begin + i + 1);
              });
        });
      }
      for (std::thread& t : clients) t.join();
      open_stats.push_back(MergeOpenLoop(per_client));
    }
    {
      // Closed loop: two clients each waiting on its replies — the read
      // path's capacity. Two threads also average over two vCPUs, whose
      // speeds differ on a shared host.
      ScopedSpan phase(&ctx->spans, "phase.closed_loop", 0, round + 1);
      const size_t begin = round * closed_n / kRounds;
      const size_t end = (round + 1) * closed_n / kRounds;
      const double t0 = NowSeconds();
      std::vector<std::vector<double>> done(kClients);
      std::vector<std::thread> clients;
      for (size_t c = 0; c < kClients; ++c) {
        clients.emplace_back([&, c] {
          for (size_t i = begin + c; i < end; i += kClients) {
            Execute(ctx, *server, closed[i], phase.id(), open_n + i + 1);
            done[c].push_back(NowSeconds() - t0);
          }
        });
      }
      for (std::thread& t : clients) t.join();
      std::vector<double> merged;
      for (const std::vector<double>& d : done) {
        merged.insert(merged.end(), d.begin(), d.end());
      }
      std::sort(merged.begin(), merged.end());
      for (const double t : merged) closed_busy_done.push_back(closed_busy + t);
      closed_busy = closed_busy_done.back();
    }
  }
  rep.layers.open_loop = MergeOpenLoop(open_stats);
  rep.e2e["throughput_per_s"] =
      o.tiny ? closed_n / closed_busy
             : WindowedRate(closed_busy_done, 0.0, kWindow);
  const HostSample h1 = SampleHost();
  rep.layers.steal_share = StealShare(h0, h1);
  rep.layers.cpu_per_wall = CpuPerWall(h0, h1);
  rep.layers.snapshot = MetricsRegistry::Global().Snapshot();
  rep.e2e["peak_rss_mb"] = PeakRssMb();

  const std::vector<double>& lat = rep.layers.open_loop.latency;
  rep.e2e["latency_p50_ms"] = 1e3 * Percentile(lat, 0.5);
  rep.e2e["latency_tail_ms"] =
      1e3 * (o.tiny ? Percentile(lat, kTailQ)
                    : WindowedPercentile(lat, kWindow, kTailQ));
  if (!o.tiny) {
    const size_t n =
        lat.size() / (Corrupting(ctx, "serve_read.tail_supported") ? 2 : 1);
    RecordCheck(&rep, "serve_read.tail_supported",
                n / kWindow >= kMinWindows &&
                    PercentileSupported(kWindow, kTailQ));
  }

  // Quality and checks (after the snapshot, so they do not count as load).
  const std::vector<NodeId> sample = SampleNodes(pool, kRecallSample, o.seed);
  const double recall = RecallAt10(ctx, *server, sample,
                                   Corrupting(ctx, "serve_read.recall_floor"));
  rep.e2e["quality"] = recall;
  rep.layers.recall_at10 = recall;
  RecordCheck(&rep, "serve_read.recall_floor", recall >= kRecallFloor);
  RecordCheck(&rep, "serve_read.exact_equals_fp32",
              ExactEqualsFp32(ctx, *server, sample,
                              Corrupting(ctx, "serve_read.exact_equals_fp32")));
  std::filesystem::remove(log);
  std::filesystem::remove(ckpt);
  return rep;
}

// ============================================================== serve_write

Report RunServeWrite(Context* ctx) {
  const Options& o = ctx->opt;
  Report rep;
  const double scale = o.tiny ? 0.5 : 10.0;
  const int setup_reps = o.tiny ? 1 : kServeSetupReps;
  constexpr size_t kBatch = 16;  // edges per auto-refresh.
  constexpr size_t kWarmupRefreshes = 2;
  constexpr size_t kTail = kBatch / 2;  // left for the final explicit Refresh.
  // At least 200 refreshes at every size, so freshness p95 and the refresh
  // p95 always have ten samples beyond them.
  const size_t refreshes =
      std::max<size_t>(200, 10 * static_cast<size_t>(o.seconds));
  const size_t reads = o.tiny ? 100 : 9 * refreshes;
  constexpr double kReadRate = 100.0;
  constexpr double kTailQ = 0.95;  // refreshes, not edges, are the samples.
  constexpr size_t kWindow = 25 * kBatch;  // edges per throughput window.

  // Yelp substitute continued past the base graph by the streamed edges.
  const size_t warm_edges = kWarmupRefreshes * kBatch;
  const size_t timed_edges = refreshes * kBatch + kTail;
  BipartiteGraphOptions gen;
  gen.num_users = static_cast<NodeId>(1200 * scale);
  gen.num_items = static_cast<NodeId>(800 * scale);
  gen.num_edges = static_cast<size_t>(15000 * scale) + warm_edges + timed_edges;
  gen.mode = BipartiteMode::kReview;
  gen.seed = o.seed;
  auto full = MakeBipartiteGraph(gen);
  if (!full.ok()) return rep;
  std::vector<TemporalEdge> all = full.value().edges();
  const bool directed = full.value().directed();
  RelabelByFirstAppearance(&all);
  const size_t base_n_edges = all.size() - warm_edges - timed_edges;
  const std::vector<TemporalEdge> base_edges(all.begin(),
                                             all.begin() + base_n_edges);
  auto base = TemporalGraph::FromEdges(base_edges, 0, directed);
  if (!base.ok()) return rep;
  const std::string log = OutPath(ctx, "write.ehnl");
  const std::string ckpt = OutPath(ctx, "write.ehnc");
  const EhnaConfig train_cfg = ServeTrainingConfig(o.seed);
  if (!WriteEdgeLog(log, base_edges, base.value().num_nodes(), directed).ok() ||
      !MakeCheckpoint(base.value(), train_cfg, ckpt).ok()) {
    return rep;
  }
  ServeOptions opts;
  opts.config = train_cfg;
  opts.config.num_threads = 1;
  opts.precision = ServePrecision::kInt8;
  opts.refresh_batch = kBatch;
  const std::vector<NodeId> pool = RecentEndpoints(base_edges);
  Rng traffic(o.seed ^ kTrafficSalt);
  std::vector<NodeId> read_nodes(reads);
  for (NodeId& v : read_nodes) {
    v = pool[traffic.UniformInt(uint64_t{pool.size()})];
  }

  ResetPeakRss();
  MetricsRegistry::Global().Reset();
  std::unique_ptr<EmbeddingServer> server =
      SetUpServer(ctx, &rep, log, ckpt, opts, setup_reps);
  if (server == nullptr) return rep;

  auto refresh_count = [&](uint64_t parent) {
    ScopedSpan s(&ctx->spans, "serve.stats", parent);
    ctx->ops.attempted.fetch_add(1, std::memory_order_relaxed);
    return server->stats().refreshes;
  };
  struct IngestCall {
    double start = 0;
    double end = 0;
    bool refreshed = false;  // the call ran an auto-refresh.
  };
  uint64_t seen = refresh_count(0);
  auto ingest = [&](const TemporalEdge& e, uint64_t parent, uint64_t req) {
    IngestCall c;
    uint64_t span = 0;
    {
      ScopedSpan s(&ctx->spans, "serve.Ingest", parent, req);
      span = s.id();
      c.start = NowSeconds();
      ctx->ops.Count(server->Ingest(e));
      c.end = NowSeconds();
    }
    const uint64_t now_seen = refresh_count(parent);
    c.refreshed = now_seen != seen;
    seen = now_seen;
    // graph.ingest_us_p50 is over the calls that did not refresh.
    if (c.refreshed) ctx->spans.Rename(span, "serve.Ingest.refreshing");
    return c;
  };
  auto read = [&](NodeId v, uint64_t parent, uint64_t req) {
    ScopedSpan s(&ctx->spans, "serve.Query", parent, req);
    return ctx->ops.Count(server->Query(v, kTopK));
  };

  {
    ScopedSpan phase(&ctx->spans, "phase.warmup");
    for (size_t i = 0; i < warm_edges; ++i) {
      ingest(all[base_n_edges + i], phase.id(), 0);
    }
    for (size_t i = 0; i < 20; ++i) read(read_nodes[i], phase.id(), 0);
  }

  FreshnessTracker fresh;
  const HostSample h0 = SampleHost();
  {
    ScopedSpan phase(&ctx->spans, "phase.timed");
    const bool attribute = ctx->opt.trace;
    const double t0 = NowSeconds() + 0.01;
    // One open-loop reader racing the writer for the server's lock.
    std::thread reader([&] {
      rep.layers.open_loop = RunOpenLoopClient(
          0, 1, reads, kReadRate, t0, [&](size_t i) {
            if (!attribute) {
              read(read_nodes[i], phase.id(), i + 1);
              return;
            }
            const uint64_t p0 = PhaseSumNs("eval.phase.ann_query_quantized");
            const double c0 = NowSeconds();
            read(read_nodes[i], phase.id(), i + 1);
            const double call = NowSeconds() - c0;
            const uint64_t p1 = PhaseSumNs("eval.phase.ann_query_quantized");
            rep.layers.query_self_s.push_back(call - 1e-9 * (p1 - p0));
          });
    });
    // One closed-loop writer.
    WaitUntil(t0);
    const double w0 = NowSeconds();
    const size_t first = base_n_edges + warm_edges;
    std::vector<double> done;
    for (size_t i = 0; i < timed_edges; ++i) {
      const IngestCall c = ingest(all[first + i], phase.id(), i + 1);
      fresh.OnIngest(c.start, c.end, c.refreshed);
      done.push_back(c.end);
    }
    {
      ScopedSpan s(&ctx->spans, "serve.Refresh", phase.id());
      ctx->ops.Count(server->Refresh());
    }
    fresh.OnRefresh(NowSeconds());
    rep.e2e["throughput_per_s"] = WindowedRate(done, w0, kWindow);
    reader.join();
  }
  const HostSample h1 = SampleHost();
  rep.layers.steal_share = StealShare(h0, h1);
  rep.layers.cpu_per_wall = CpuPerWall(h0, h1);
  rep.layers.snapshot = MetricsRegistry::Global().Snapshot();
  rep.e2e["peak_rss_mb"] = PeakRssMb();
  rep.e2e["latency_p50_ms"] = 1e3 * Percentile(fresh.freshness(), 0.5);
  rep.e2e["latency_tail_ms"] = 1e3 * Percentile(fresh.freshness(), kTailQ);
  const EmbeddingServer::Stats stats = server->stats();
  rep.layers.refreshes = stats.refreshes;
  rep.layers.new_nodes = stats.num_nodes - base.value().num_nodes();
  {
    const size_t n =
        fresh.refreshes() -
        (Corrupting(ctx, "serve_write.refreshes_min") ? 2 : 0);
    RecordCheck(&rep, "serve_write.refreshes_min",
                n >= 200 && PercentileSupported(n, kTailQ));
  }

  // Quality: int8 Query against the exact fp32 oracle.
  const std::vector<NodeId> sample = SampleNodes(pool, kRecallSample, o.seed);
  rep.e2e["quality"] = RecallAt10(ctx, *server, sample, false);
  rep.layers.recall_at10 = rep.e2e["quality"];
  // The int8 QueryExact (quantized scan, fp32 re-rank) returns exact fp32
  // scores in the oracle's order, and loses little recall.
  const QuantizedExact exact = CheckQuantizedExact(
      ctx, *server, sample, Corrupting(ctx, "serve_write.exact_scores_fp32"),
      Corrupting(ctx, "serve_write.exact_recall_floor"));
  std::fprintf(stderr, "e2ebench: int8 QueryExact recall@10 %.4f\n",
               exact.recall);
  RecordCheck(&rep, "serve_write.exact_scores_fp32", exact.scores_exact);
  RecordCheck(&rep, "serve_write.exact_recall_floor",
              exact.recall >= kExactRecallFloor);

  // Rows the final Refresh recomputed equal an offline recompute
  // against the compacted graph, bitwise.
  Tensor served = server->ServingEmbeddings();
  const NodeId n = static_cast<NodeId>(served.rows());
  std::vector<NodeId> final_nodes;
  for (size_t i = all.size() - kTail; i < all.size(); ++i) {
    final_nodes.push_back(all[i].src);
    final_nodes.push_back(all[i].dst);
  }
  bool rows_ok = false;
  {
    auto graph_now = TemporalGraph::FromEdges(all, n, directed);
    EhnaModel offline(&base.value(), opts.config);
    if (graph_now.ok() && offline.RestoreCheckpoint(ckpt).ok()) {
      Rng grow = Rng::Stream(opts.config.seed, kServeGrowSalt);
      offline.embedding()->EnsureRows(n, &grow);
      InferenceEngine engine(&base.value(), offline.embedding(),
                             offline.aggregator(), opts.config);
      engine.RebindGraph(&graph_now.value());
      Tensor oracle(n, served.cols());
      engine.RefreshInto(final_nodes, &oracle);
      Tensor got = served;
      if (Corrupting(ctx, "serve_write.rows_bitwise")) {
        got.Row(final_nodes[0])[0] =
            std::nextafter(got.Row(final_nodes[0])[0], 1e30f);
      }
      const size_t row_bytes =
          static_cast<size_t>(served.cols()) * sizeof(float);
      rows_ok = true;
      for (const NodeId v : final_nodes) {
        rows_ok = rows_ok &&
                  std::memcmp(got.Row(v), oracle.Row(v), row_bytes) == 0;
      }
    }
  }
  RecordCheck(&rep, "serve_write.rows_bitwise", rows_ok);

  // The int8 mirror equals a from-scratch quantization of the
  // served matrix.
  Tensor reference = served;
  if (Corrupting(ctx, "serve_write.mirror_bitwise")) {
    reference.Row(final_nodes[0])[0] += 0.5f;
  }
  RecordCheck(&rep, "serve_write.mirror_bitwise",
              SameQuantizedRows(server->QuantizedServingSnapshot(),
                                QuantizedMatrix::FromTensor(
                                    reference, ServePrecision::kInt8)));

  rep.fingerprint = HashTensor(served);
  std::filesystem::remove(log);
  std::filesystem::remove(ckpt);
  return rep;
}

}  // namespace e2ebench
