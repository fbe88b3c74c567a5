// Per-layer metrics of the traced run, one group per library module. Each
// is computed from the registry snapshot (the library's own phase
// histograms and counters) or from the benchmark's spans around public
// calls. NOTES.md maps each to the end-to-end metric it should move.
#include <algorithm>
#include <numeric>

#include "bench.h"

namespace e2ebench {

namespace {

using Out = std::map<std::string, double>;

double Mean(const std::vector<double>& v) {
  return std::accumulate(v.begin(), v.end(), 0.0) /
         static_cast<double>(v.size());
}

/// Phase seconds per unit of work, in microseconds; absent when either the
/// phase never ran or there was no work.
void PerUnitUs(const ehna::MetricsSnapshot& s, const char* phase,
               uint64_t units, const char* name, Out* out) {
  const ehna::HistogramData* h = s.Histogram(phase);
  if (h == nullptr || h->count() == 0 || units == 0) return;
  (*out)[name] = 1e6 * s.PhaseSeconds(phase) / static_cast<double>(units);
}

/// Quantile of a phase histogram (recorded in ns) in the given unit scale;
/// absent unless the histogram's count supports q (ten beyond).
void PhaseQuantile(const ehna::MetricsSnapshot& s, const char* phase, double q,
                   double scale, const char* name, Out* out) {
  const ehna::HistogramData* h = s.Histogram(phase);
  if (h == nullptr || !PercentileSupported(h->count(), q)) return;
  (*out)[name] = h->Quantile(q) * 1e-9 * scale;
}

/// q-th percentile of `samples` times `scale`; absent unless supported.
void SampleQuantile(const std::vector<double>& samples, double q, double scale,
                    const char* name, Out* out) {
  if (!PercentileSupported(samples.size(), q)) return;
  (*out)[name] = scale * Percentile(samples, q);
}

/// Mean seconds per recorded instance of a phase.
std::optional<double> PhaseMeanSeconds(const ehna::MetricsSnapshot& s,
                                       const char* phase) {
  const ehna::HistogramData* h = s.Histogram(phase);
  if (h == nullptr || h->count() == 0) return std::nullopt;
  return h->Mean() * 1e-9;
}

}  // namespace

std::map<std::string, double> ComputeLayers(
    const LayerSources& src, const std::vector<SpanRecord>& spans) {
  Out out;
  const ehna::MetricsSnapshot& s = src.snapshot;
  auto span_s = [&](const char* name) { return SpanSeconds(spans, name); };

  // graph. Set-up figures are medians over the set-up repetitions.
  if (const auto b = span_s("graph.FromEdgeLog"); !b.empty()) {
    out["graph.build_s"] = Percentile(b, 0.5);
  }
  // Ingest calls that ran a refresh are named apart (workloads.cc).
  SampleQuantile(span_s("serve.Ingest"), 0.5, 1e6, "graph.ingest_us_p50",
                 &out);

  // walk and nn, per aggregation (one target's k walks + its LSTM passes),
  // the unit shared by training and inference.
  const uint64_t aggs = s.CounterValue("agg.aggregations");
  PerUnitUs(s, "train.phase.walk_sampling", aggs, "walk.sampling_us_per_agg",
            &out);
  PerUnitUs(s, "kernels.phase.gemm", aggs, "nn.gemm_us_per_agg", &out);
  PerUnitUs(s, "kernels.phase.lstm_step", aggs, "nn.lstm_step_us_per_agg",
            &out);
  PerUnitUs(s, "kernels.phase.attention", aggs, "nn.attention_us_per_agg",
            &out);

  // core: training phases per training edge.
  const uint64_t train_edges = s.CounterValue("train.edges");
  PerUnitUs(s, "train.phase.forward_backward", train_edges,
            "core.forward_backward_us_per_edge", &out);
  PerUnitUs(s, "train.phase.grad_reduce", train_edges,
            "core.grad_reduce_us_per_edge", &out);
  PerUnitUs(s, "train.phase.optimizer_step", train_edges,
            "core.optimizer_step_us_per_edge", &out);
  if (const auto m = span_s("core.EhnaModel"); !m.empty()) {
    out["core.model_init_s"] = Percentile(m, 0.5);
  }
  if (const auto c = span_s("core.SaveCheckpoint"); !c.empty()) {
    out["core.checkpoint_save_s"] = c.front();
  }
  // core: the §IV.D final pass, per node — FinalizeEmbeddings when training,
  // the initial finalize inside each Load when serving.
  if (const auto f = span_s("core.FinalizeEmbeddings");
      !f.empty() && src.finalize_nodes > 0) {
    out["core.finalize_us_per_node"] =
        1e6 * f.front() / static_cast<double>(src.finalize_nodes);
  } else if (auto f = PhaseMeanSeconds(s, "serve.phase.initial_finalize");
             f && src.load_nodes > 0) {
    out["core.finalize_us_per_node"] =
        1e6 * *f / static_cast<double>(src.load_nodes);
  }
  // core: incremental refresh.
  const uint64_t refreshed = s.CounterValue("serve.refreshed_nodes");
  PerUnitUs(s, "serve.phase.refresh", refreshed, "core.refresh_us_per_node",
            &out);
  const uint64_t ingested = s.CounterValue("serve.ingested_edges");
  if (ingested > 0) {
    out["core.refreshed_nodes_per_edge"] =
        static_cast<double>(refreshed) / static_cast<double>(ingested);
  }

  // eval
  if (auto b = PhaseMeanSeconds(s, "eval.phase.ann_build")) {
    out["eval.ann_build_s"] = *b;
  }
  PhaseQuantile(s, "eval.phase.ann_query", 0.50, 1e6, "eval.ann_query_us_p50",
                &out);
  PhaseQuantile(s, "eval.phase.ann_query", 0.99, 1e6, "eval.ann_query_us_p99",
                &out);
  PhaseQuantile(s, "eval.phase.knn_query", 0.50, 1e6, "eval.knn_query_us_p50",
                &out);
  PhaseQuantile(s, "eval.phase.knn_query", 0.99, 1e6, "eval.knn_query_us_p99",
                &out);
  PhaseQuantile(s, "eval.phase.ann_query_quantized", 0.50, 1e6,
                "eval.ann_query_quantized_us_p50", &out);
  if (src.recall_at10) out["eval.ann_recall_at10"] = *src.recall_at10;
  if (const auto l = span_s("eval.EvaluateLinkPrediction"); !l.empty()) {
    out["eval.linkpred_s"] = l.front();
  }

  // serve
  if (const auto load = span_s("serve.Load"); !load.empty()) {
    // Load minus its two library phases: checkpoint restore, overlay and
    // engine construction, and the quantized mirror.
    const double finalize = PhaseMeanSeconds(s, "serve.phase.initial_finalize")
                                .value_or(0.0);
    const double build =
        PhaseMeanSeconds(s, "eval.phase.ann_build").value_or(0.0);
    out["serve.restore_s"] = Mean(load) - finalize - build;
  }
  PhaseQuantile(s, "serve.phase.refresh", 0.50, 1e3, "serve.refresh_ms_p50",
                &out);
  PhaseQuantile(s, "serve.phase.refresh", 0.95, 1e3, "serve.refresh_ms_p95",
                &out);
  SampleQuantile(src.query_self_s, 0.99, 1e6, "serve.query_self_us_p99",
                 &out);
  if (src.refreshes) {
    out["serve.refreshes"] = static_cast<double>(*src.refreshes);
  }
  if (src.new_nodes) {
    out["serve.new_nodes"] = static_cast<double>(*src.new_nodes);
  }

  // client
  SampleQuantile(src.open_loop.latency, 0.99, 1e3, "client.read_p99_ms", &out);
  SampleQuantile(src.open_loop.queue_wait, 0.99, 1e3,
                 "client.queue_wait_ms_p99", &out);
  if (!src.open_loop.lateness.empty()) {
    out["client.late_ms_max"] = 1e3 * Percentile(src.open_loop.lateness, 1.0);
  }
  if (const auto w = span_s("phase.warmup"); !w.empty()) {
    out["bench.warmup_s"] = w.front();
  }

  // host
  if (src.steal_share) out["host.steal_share"] = *src.steal_share;
  if (src.cpu_per_wall) out["host.cpu_per_wall"] = *src.cpu_per_wall;
  return out;
}

}  // namespace e2ebench
