#ifndef EHNA_UTIL_METRICS_H_
#define EHNA_UTIL_METRICS_H_

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "util/status.h"

namespace ehna {

class TableWriter;

/// Process-wide observability layer for the trainer, walk engines, and eval
/// harness (DESIGN.md §8): named counters, gauges, and mergeable streaming
/// histograms behind a single registry, designed so instrumentation on the
/// data-parallel hot paths is contention-free and cannot perturb training
/// results.
///
/// Determinism contract: every piece of merged state is an integer (event
/// counts, nanosecond sums, histogram bucket counts) or an order-independent
/// reduction (min/max), so `Snapshot()` is a pure function of the *multiset*
/// of recorded events — identical regardless of which worker recorded what,
/// how threads were scheduled, or which shard each thread landed on. And
/// because recording never touches an Rng, a parameter, or any other model
/// state, training with metrics enabled is bitwise-identical to training
/// with them disabled (tests/checkpoint_test.cc proves this on checkpoint
/// bytes).

namespace metrics_internal {

/// Global on/off switch, read with relaxed ordering on every record call.
extern std::atomic<bool> g_enabled;

/// Fixed shard fan-out for all sharded metric storage. Threads are assigned
/// shards round-robin at first use; with at most kShards concurrent writers
/// every writer owns a private cache line (zero contention), and beyond that
/// the relaxed atomics stay correct, merely sharing lines.
constexpr size_t kShards = 16;

/// The round-robin shard slot of the calling thread.
size_t CurrentShard();

}  // namespace metrics_internal

/// True when metric recording is active (the default). Flip with
/// MetricsRegistry::SetEnabled.
inline bool MetricsEnabled() {
  return metrics_internal::g_enabled.load(std::memory_order_relaxed);
}

// ---------------------------------------------------------------- Counter

/// Monotonically increasing event counter, sharded across cache-line-padded
/// atomic cells so concurrent workers never contend. Total() merges the
/// shards in shard order; u64 addition is commutative, so the total is
/// exact (no torn or lost updates) and independent of thread interleaving.
class Counter {
 public:
  Counter() = default;
  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;

  void Add(uint64_t delta = 1) {
    if (!MetricsEnabled()) return;
    shards_[metrics_internal::CurrentShard()].value.fetch_add(
        delta, std::memory_order_relaxed);
  }

  uint64_t Total() const {
    uint64_t total = 0;
    for (const Cell& c : shards_) {
      total += c.value.load(std::memory_order_relaxed);
    }
    return total;
  }

  /// Zeroes every shard. Not atomic with respect to concurrent Add();
  /// callers reset between phases, not during them.
  void Reset() {
    for (Cell& c : shards_) c.value.store(0, std::memory_order_relaxed);
  }

 private:
  struct alignas(64) Cell {
    std::atomic<uint64_t> value{0};
  };
  std::array<Cell, metrics_internal::kShards> shards_;
};

// ------------------------------------------------------------------ Gauge

/// Last-writer-wins instantaneous value (throughput, loss, sizes). A single
/// atomic double: gauges are written once per epoch, not per event, so
/// sharding would buy nothing.
class Gauge {
 public:
  Gauge() = default;
  Gauge(const Gauge&) = delete;
  Gauge& operator=(const Gauge&) = delete;

  void Set(double v) {
    if (!MetricsEnabled()) return;
    bits_.store(ToBits(v), std::memory_order_relaxed);
  }

  double Value() const {
    return FromBits(bits_.load(std::memory_order_relaxed));
  }

  /// For gauges that describe process configuration rather than activity
  /// (e.g. the active kernel ISA, fixed once per process): records `v`
  /// even while metrics are disabled, and makes Reset() restore `v`
  /// instead of zero, so a registry reset cannot make the gauge lie.
  void Pin(double v) {
    pinned_bits_.store(ToBits(v), std::memory_order_relaxed);
    bits_.store(ToBits(v), std::memory_order_relaxed);
  }

  /// Back to zero, or to the pinned value for a pinned gauge.
  void Reset() {
    bits_.store(pinned_bits_.load(std::memory_order_relaxed),
                std::memory_order_relaxed);
  }

 private:
  static uint64_t ToBits(double v) {
    uint64_t b;
    static_assert(sizeof(b) == sizeof(v));
    __builtin_memcpy(&b, &v, sizeof(b));
    return b;
  }
  static double FromBits(uint64_t b) {
    double v;
    __builtin_memcpy(&v, &b, sizeof(v));
    return v;
  }
  std::atomic<uint64_t> bits_{0};
  std::atomic<uint64_t> pinned_bits_{0};  // 0.0: unpinned gauges zero.
};

// ---------------------------------------------------------- HistogramData

/// Value-type log-linear histogram over non-negative integer samples
/// (nanosecond latencies, lengths, counts). Buckets are exact for values
/// below 2^kSubBucketBits and thereafter split each octave [2^e, 2^{e+1})
/// into 2^kSubBucketBits equal sub-buckets, bounding the relative width of
/// any bucket — and hence the value error of any quantile estimate — by
/// 2^-kSubBucketBits.
///
/// All state is integral (bucket counts, count, sum) or an
/// order-independent min/max, so Merge is exactly associative and
/// commutative: merging any permutation or parenthesization of parts yields
/// an identical histogram (tests/metrics_property_test.cc).
class HistogramData {
 public:
  /// Sub-bucket resolution: 16 sub-buckets per octave, 1/16 = 6.25%
  /// worst-case relative bucket width.
  static constexpr int kSubBucketBits = 4;
  static constexpr uint64_t kSubBuckets = uint64_t{1} << kSubBucketBits;
  /// Exact buckets [0, kSubBuckets) + (64 - kSubBucketBits) octaves of
  /// kSubBuckets sub-buckets covers every uint64 value.
  static constexpr size_t kNumBuckets =
      kSubBuckets + (64 - kSubBucketBits) * kSubBuckets;

  /// Upper bound on |estimate - true_quantile| / true_quantile for any
  /// non-zero sample (estimates land in the true sample's bucket).
  static constexpr double MaxRelativeError() {
    return 1.0 / static_cast<double>(kSubBuckets);
  }

  HistogramData();

  /// Bucket index of `value`; inverse bounds via BucketLowerBound /
  /// BucketUpperBound (inclusive).
  static size_t BucketIndex(uint64_t value);
  static uint64_t BucketLowerBound(size_t index);
  static uint64_t BucketUpperBound(size_t index);

  void Record(uint64_t value, uint64_t repeat = 1);

  /// Adds `other`'s samples into this histogram.
  void Merge(const HistogramData& other);

  uint64_t count() const { return count_; }
  uint64_t sum() const { return sum_; }
  /// Smallest / largest recorded sample; 0 when empty.
  uint64_t min() const { return count_ == 0 ? 0 : min_; }
  uint64_t max() const { return count_ == 0 ? 0 : max_; }
  double Mean() const {
    return count_ == 0 ? 0.0
                       : static_cast<double>(sum_) /
                             static_cast<double>(count_);
  }

  /// Value estimate at quantile q in [0, 1]: the upper bound of the bucket
  /// holding the sample of rank ceil(q * count), clamped to [min, max], so
  /// the estimate is never below the true rank-q sample and at most
  /// MaxRelativeError() above it. Returns 0 when empty.
  double Quantile(double q) const;

  bool operator==(const HistogramData& other) const;

 private:
  friend class StreamingHistogram;  // Merged() fills the fields directly.

  std::vector<uint64_t> buckets_;  // dense, kNumBuckets entries
  uint64_t count_ = 0;
  uint64_t sum_ = 0;
  uint64_t min_ = UINT64_MAX;
  uint64_t max_ = 0;
};

// ----------------------------------------------------- StreamingHistogram

/// Concurrent histogram the hot paths record into: per-shard dense atomic
/// bucket arrays with the same layout as HistogramData. Record() touches
/// only the calling thread's shard (relaxed fetch_add / CAS min-max);
/// Merged() folds the shards in shard-index order into one HistogramData.
/// Since every reduction is commutative the merged result depends only on
/// the multiset of recorded samples.
class StreamingHistogram {
 public:
  StreamingHistogram();
  StreamingHistogram(const StreamingHistogram&) = delete;
  StreamingHistogram& operator=(const StreamingHistogram&) = delete;

  void Record(uint64_t value);

  /// Convenience for phase scopes: record a duration in nanoseconds.
  void RecordDuration(std::chrono::nanoseconds ns) {
    Record(ns.count() < 0 ? 0 : static_cast<uint64_t>(ns.count()));
  }

  HistogramData Merged() const;

  void Reset();

 private:
  struct Shard {
    std::array<std::atomic<uint64_t>, HistogramData::kNumBuckets> buckets;
    std::atomic<uint64_t> count{0};
    std::atomic<uint64_t> sum{0};
    std::atomic<uint64_t> min{UINT64_MAX};
    std::atomic<uint64_t> max{0};
  };
  std::unique_ptr<Shard[]> shards_;
};

// ---------------------------------------------------------------- Snapshot

/// Point-in-time export of every registered metric, name-sorted. Rendered
/// three ways: an aligned table / TSV through the existing TableWriter, and
/// a JSON document written atomically (schema in DESIGN.md §8).
struct MetricsSnapshot {
  struct CounterEntry {
    std::string name;
    uint64_t value = 0;
  };
  struct GaugeEntry {
    std::string name;
    double value = 0.0;
  };
  struct HistogramEntry {
    std::string name;
    HistogramData data;
  };

  std::vector<CounterEntry> counters;
  std::vector<GaugeEntry> gauges;
  std::vector<HistogramEntry> histograms;

  /// Lookup helpers; a missing name yields 0 / nullptr.
  uint64_t CounterValue(std::string_view name) const;
  double GaugeValue(std::string_view name) const;
  const HistogramData* Histogram(std::string_view name) const;

  /// Sum of a phase histogram in seconds (histograms record nanoseconds);
  /// 0 when the phase never ran.
  double PhaseSeconds(std::string_view name) const;

  /// One row per metric: name, type, value/count/sum, mean, p50/p90/p99,
  /// min, max (blank where not applicable).
  TableWriter ToTable() const;

  std::string ToJson() const;

  /// TSV via TableWriter (atomic write); JSON via AtomicWriteFile.
  Status WriteTsv(const std::string& path) const;
  Status WriteJson(const std::string& path) const;
};

// ---------------------------------------------------------------- Registry

/// Owner of every named metric. Registration (name lookup) takes a mutex;
/// the returned pointers are stable for the process lifetime, so hot paths
/// resolve a metric once (EHNA_TRACE_PHASE caches per call site) and then
/// record lock-free.
class MetricsRegistry {
 public:
  /// The process-wide registry (intentionally leaked: metric pointers must
  /// outlive every static destructor that might still record).
  static MetricsRegistry& Global();

  Counter* GetCounter(std::string_view name);
  Gauge* GetGauge(std::string_view name);
  StreamingHistogram* GetHistogram(std::string_view name);

  /// Globally enables/disables recording (registration still works).
  static void SetEnabled(bool enabled) {
    metrics_internal::g_enabled.store(enabled, std::memory_order_relaxed);
  }

  /// Coherent name-sorted export of all registered metrics.
  MetricsSnapshot Snapshot() const;

  /// Zeroes every metric's value, keeping registrations (and thus cached
  /// pointers) intact. For benches and tests; not atomic versus concurrent
  /// recording.
  void Reset();

 private:
  MetricsRegistry() = default;

  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<StreamingHistogram>, std::less<>>
      histograms_;
};

// ------------------------------------------------------------ Phase scopes

/// RAII phase-tracing scope: records the scope's wall-clock duration (ns)
/// into a StreamingHistogram on destruction. When metrics are disabled at
/// entry the scope is inert (no clock reads).
class PhaseScope {
 public:
  explicit PhaseScope(StreamingHistogram* hist)
      : hist_(MetricsEnabled() ? hist : nullptr) {
    if (hist_ != nullptr) start_ = std::chrono::steady_clock::now();
  }
  ~PhaseScope() {
    if (hist_ != nullptr) {
      hist_->RecordDuration(std::chrono::steady_clock::now() - start_);
    }
  }
  PhaseScope(const PhaseScope&) = delete;
  PhaseScope& operator=(const PhaseScope&) = delete;

 private:
  StreamingHistogram* hist_;
  std::chrono::steady_clock::time_point start_;
};

#define EHNA_METRICS_CONCAT_INNER_(a, b) a##b
#define EHNA_METRICS_CONCAT_(a, b) EHNA_METRICS_CONCAT_INNER_(a, b)

/// Times the rest of the enclosing block into the phase histogram `name`
/// (a string literal, by convention "<subsystem>.phase.<stage>"; recorded
/// unit is nanoseconds). The histogram pointer is resolved once per call
/// site via a function-local static, so steady-state cost is two clock
/// reads plus one relaxed fetch_add on a thread-private shard.
#define EHNA_TRACE_PHASE(name)                                              \
  static ::ehna::StreamingHistogram* const EHNA_METRICS_CONCAT_(            \
      ehna_phase_hist_, __LINE__) =                                         \
      ::ehna::MetricsRegistry::Global().GetHistogram(name);                 \
  ::ehna::PhaseScope EHNA_METRICS_CONCAT_(ehna_phase_scope_, __LINE__)(     \
      EHNA_METRICS_CONCAT_(ehna_phase_hist_, __LINE__))

}  // namespace ehna

#endif  // EHNA_UTIL_METRICS_H_
