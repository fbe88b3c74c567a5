// Shared types of the end-to-end benchmark binary: run options, per-run
// report, operation accounting, and the raw measurements per-layer metrics
// are computed from. The three workloads live in workloads.cc; the
// per-layer metric definitions in layers.cc.
#ifndef EHNA_E2EBENCH_BENCH_H_
#define EHNA_E2EBENCH_BENCH_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "harness.h"
#include "util/metrics.h"
#include "util/status.h"

namespace e2ebench {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 20;
  bool trace = false;
  /// Name of one correctness check whose input is deliberately corrupted
  /// (the self-test proving that check fires); empty for a normal run.
  std::string corrupt;
  /// Scratch directory for this run's edge logs, checkpoints and traces.
  std::string out_dir;
  /// Small fixed sizes instead of the --seconds-derived ones; used by the
  /// traced run's coverage passes and the self-test.
  bool tiny = false;
};

/// Public-call accounting: a call whose Status is not OK counts as failed.
struct Ops {
  std::atomic<uint64_t> attempted{0};
  std::atomic<uint64_t> failed{0};
  bool Count(const ehna::Status& st) {
    attempted.fetch_add(1, std::memory_order_relaxed);
    if (!st.ok()) failed.fetch_add(1, std::memory_order_relaxed);
    return st.ok();
  }
  template <typename T>
  bool Count(const ehna::Result<T>& r) {
    return Count(r.ok() ? ehna::Status::OK() : r.status());
  }
};

/// Measurements of one workload run that are not spans. Each per-layer
/// metric is computed from these and the run's spans (layers.cc); a source
/// left empty means the run did not drive that layer.
struct LayerSources {
  ehna::MetricsSnapshot snapshot;  // registry at the end of the run.
  size_t load_nodes = 0;           // nodes each Load finalizes.
  size_t finalize_nodes = 0;       // rows FinalizeEmbeddings returned.
  std::vector<double> query_self_s;  // Query call minus its eval phase.
  std::optional<double> recall_at10;
  std::optional<uint64_t> refreshes;
  std::optional<uint64_t> new_nodes;
  OpenLoopStats open_loop;  // every open-loop client of the run.
  std::optional<double> steal_share;
  std::optional<double> cpu_per_wall;
};

/// Outcome of one workload run.
struct Report {
  std::map<std::string, bool> checks;  // check name -> passed.
  std::map<std::string, double> e2e;
  LayerSources layers;
  /// Hash of the run's output bytes (final embeddings or served rows, and
  /// the AUC bits); traced and untraced runs must agree on it.
  uint64_t fingerprint = 0;
};

struct Context {
  Options opt;
  SpanRecorder spans;
  Ops ops;
};

/// Workload entry points. Each generates its inputs from ctx->opt.seed,
/// runs untimed warm-up, the timed phases, and the correctness checks.
Report RunTrain(Context* ctx);
Report RunServeRead(Context* ctx);
Report RunServeWrite(Context* ctx);

/// Per-layer metrics computable from `src` and the run's `spans`. A metric
/// whose source is empty, or a percentile its samples do not support (ten
/// beyond), is absent from the result.
std::map<std::string, double> ComputeLayers(
    const LayerSources& src, const std::vector<SpanRecord>& spans);

}  // namespace e2ebench

#endif  // EHNA_E2EBENCH_BENCH_H_
