// Measurement helpers of the end-to-end benchmark: percentiles with a
// sample-support rule, open-loop due-time accounting, freshness attribution,
// in-memory spans, and host probes. Everything here is independent of the
// EHNA library so it can be unit-tested on synthetic timestamps
// (harness_test.cc).
#ifndef EHNA_E2EBENCH_HARNESS_H_
#define EHNA_E2EBENCH_HARNESS_H_

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace e2ebench {

/// Seconds on the monotonic clock.
double NowSeconds();

// ----------------------------------------------------------- percentiles

/// Minimum number of samples that must lie strictly beyond a reported
/// percentile (choosing-metrics guide: report the highest percentile with
/// at least ten samples beyond it).
inline constexpr size_t kMinSamplesBeyond = 10;

/// Nearest-rank percentile: the sample of 1-based rank ceil(q * n) in sorted
/// order (q = 0 gives the minimum). `samples` need not be sorted. Returns 0
/// for an empty input.
double Percentile(std::vector<double> samples, double q);

/// Samples strictly beyond the nearest-rank q-th percentile of n samples.
size_t SamplesBeyond(size_t n, double q);

/// True when the q-th percentile of n samples has at least
/// kMinSamplesBeyond samples beyond it.
bool PercentileSupported(size_t n, double q);

/// Median over consecutive windows of `window` samples (a trailing partial
/// window is dropped) of each window's q-th percentile. One stall on a
/// shared host then moves one window, not the reported figure. Callers size
/// windows so each supports q by the ten-samples-beyond rule. Returns 0
/// when there is no full window.
double WindowedPercentile(const std::vector<double>& samples, size_t window,
                          double q);

/// Median over consecutive windows of `window` operations of each window's
/// rate (operations per second). `done` holds each operation's completion
/// time in order; `start` is when the first operation began.
double WindowedRate(const std::vector<double>& done, double start,
                    size_t window);

// --------------------------------------------------------- open-loop runs

/// One request of an open-loop schedule: when it was due, when its client
/// actually issued it, and when it returned (all in seconds).
struct OpenLoopSample {
  double due = 0;
  double start = 0;
  double end = 0;
};

/// Due-time accounting for one client's open-loop stream. Request i is due
/// at t0 + i * interval regardless of how long earlier requests took, so a
/// stall is charged to every request queued behind it. The wait before a
/// request starts splits into
///   queue wait: time the client was still busy with earlier requests
///               after this one fell due, and
///   lateness:   the rest — the generator itself issuing late while idle
///               (on a shared VM, mostly its vCPU being descheduled).
/// Latency runs from the due time and keeps the queue wait but not the
/// generator's own lateness, which is reported on its own.
struct OpenLoopStats {
  std::vector<double> due;
  std::vector<double> latency;     // end - due - lateness
  std::vector<double> queue_wait;  // min(start, previous end) - due, >= 0
  std::vector<double> lateness;    // start - due - queue_wait, >= 0
};

/// Accounts `samples` (in issue order of one client).
OpenLoopStats AccountOpenLoop(const std::vector<OpenLoopSample>& samples);

/// Merges several clients' stats into one, ordered by due time.
OpenLoopStats MergeOpenLoop(const std::vector<OpenLoopStats>& clients);

// -------------------------------------------------------------- freshness

/// Attributes each ingested edge's freshness — the time from the start of
/// its Ingest call to the return of the call whose refresh made it
/// servable — for one closed-loop writer. Edges stay pending until a call
/// reports that it ran a refresh; that call's end time then closes every
/// pending edge, including the edge the call itself carried.
class FreshnessTracker {
 public:
  /// One Ingest call: started at `start`, returned at `end`; `refreshed`
  /// when the call triggered a refresh.
  void OnIngest(double start, double end, bool refreshed);
  /// An explicit Refresh call that returned at `end` closes all pending
  /// edges (no-op when none are pending).
  void OnRefresh(double end);

  const std::vector<double>& freshness() const { return freshness_; }
  /// Refreshes that closed at least one edge.
  size_t refreshes() const { return refreshes_; }
  size_t pending() const { return pending_.size(); }

 private:
  void Close(double end);

  std::vector<double> pending_;  // start times of not-yet-servable edges.
  std::vector<double> freshness_;
  size_t refreshes_ = 0;
};

// ------------------------------------------------------------------ spans

/// A span recorded around one public call (or a group of calls) from the
/// benchmark's side: name, start, end, the span that caused it, and the
/// request it belongs to (0 when none).
struct SpanRecord {
  std::string name;
  double start = 0;
  double end = 0;
  uint64_t id = 0;
  uint64_t parent = 0;
  uint64_t request = 0;
};

/// Thread-safe in-memory span store; inert unless enabled. Spans are kept
/// until WriteJson at exit.
class SpanRecorder {
 public:
  void Enable(bool enabled) { enabled_ = enabled; }
  /// Opens a span and returns its id (0 when disabled).
  uint64_t Begin(const std::string& name, uint64_t parent, uint64_t request);
  void End(uint64_t id);
  /// Renames an open or closed span, for outcomes known only after the
  /// call (an Ingest that turned out to refresh).
  void Rename(uint64_t id, const std::string& name);
  std::vector<SpanRecord> Spans() const;
  bool WriteJson(const std::string& path) const;

 private:
  bool enabled_ = false;
  mutable std::mutex mu_;
  std::vector<SpanRecord> spans_;  // index = id - 1.
};

/// RAII span over a scope.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* recorder, const std::string& name,
             uint64_t parent = 0, uint64_t request = 0)
      : recorder_(recorder), id_(recorder->Begin(name, parent, request)) {}
  ~ScopedSpan() { recorder_->End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  uint64_t id() const { return id_; }

 private:
  SpanRecorder* recorder_;
  uint64_t id_;
};

/// Durations (s) of the spans named `name`, in recording order.
std::vector<double> SpanSeconds(const std::vector<SpanRecord>& spans,
                                const std::string& name);

// ------------------------------------------------------------ host probes

/// Resets the process's resident-set high-water mark (writes "5" to
/// /proc/self/clear_refs). Returns false when the kernel refuses.
bool ResetPeakRss();
/// VmHWM from /proc/self/status, in MiB (0 when unreadable).
double PeakRssMb();

/// Aggregate CPU jiffies from /proc/stat plus this process's CPU seconds.
struct HostSample {
  double wall = 0;
  double process_cpu_s = 0;
  uint64_t steal = 0;
  uint64_t total = 0;
};
HostSample SampleHost();
/// Share of host CPU time stolen by the hypervisor between two samples.
double StealShare(const HostSample& a, const HostSample& b);
/// Process CPU seconds per wall second between two samples.
double CpuPerWall(const HostSample& a, const HostSample& b);

// ------------------------------------------------------------------- misc

/// FNV-1a over raw bytes, chained from `seed`.
uint64_t Fnv1a(const void* data, size_t bytes,
               uint64_t seed = 0xcbf29ce484222325ULL);

}  // namespace e2ebench

#endif  // EHNA_E2EBENCH_HARNESS_H_
