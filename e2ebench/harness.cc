#include "harness.h"

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

#include <sys/resource.h>

namespace e2ebench {

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// ----------------------------------------------------------- percentiles

namespace {

// 1-based nearest rank of the q-th percentile of n samples.
size_t NearestRank(size_t n, double q) {
  if (n == 0) return 0;
  const double r = std::ceil(q * static_cast<double>(n));
  return std::clamp<size_t>(static_cast<size_t>(r), 1, n);
}

}  // namespace

double Percentile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  const size_t rank = NearestRank(samples.size(), q);
  std::nth_element(samples.begin(), samples.begin() + (rank - 1),
                   samples.end());
  return samples[rank - 1];
}

size_t SamplesBeyond(size_t n, double q) {
  return n == 0 ? 0 : n - NearestRank(n, q);
}

bool PercentileSupported(size_t n, double q) {
  return SamplesBeyond(n, q) >= kMinSamplesBeyond;
}

double WindowedPercentile(const std::vector<double>& samples, size_t window,
                          double q) {
  std::vector<double> per_window;
  for (size_t i = 0; window > 0 && i + window <= samples.size(); i += window) {
    per_window.push_back(Percentile(
        std::vector<double>(samples.begin() + i, samples.begin() + i + window),
        q));
  }
  return Percentile(std::move(per_window), 0.5);
}

double WindowedRate(const std::vector<double>& done, double start,
                    size_t window) {
  std::vector<double> rates;
  double from = start;
  for (size_t i = 0; window > 0 && i + window <= done.size(); i += window) {
    const double to = done[i + window - 1];
    rates.push_back(static_cast<double>(window) / (to - from));
    from = to;
  }
  return Percentile(std::move(rates), 0.5);
}

// --------------------------------------------------------- open-loop runs

OpenLoopStats AccountOpenLoop(const std::vector<OpenLoopSample>& samples) {
  OpenLoopStats out;
  double prev_end = -INFINITY;
  for (const OpenLoopSample& s : samples) {
    const double waited = std::max(0.0, s.start - s.due);
    const double queued =
        std::clamp(std::min(s.start, prev_end) - s.due, 0.0, waited);
    out.due.push_back(s.due);
    out.latency.push_back(s.end - s.due - (waited - queued));
    out.queue_wait.push_back(queued);
    out.lateness.push_back(waited - queued);
    prev_end = s.end;
  }
  return out;
}

OpenLoopStats MergeOpenLoop(const std::vector<OpenLoopStats>& clients) {
  std::vector<std::pair<double, std::array<double, 3>>> rows;
  for (const OpenLoopStats& c : clients) {
    for (size_t i = 0; i < c.due.size(); ++i) {
      rows.push_back(
          {c.due[i], {c.latency[i], c.queue_wait[i], c.lateness[i]}});
    }
  }
  std::stable_sort(rows.begin(), rows.end(),
                   [](const auto& a, const auto& b) {
                     return a.first < b.first;
                   });
  OpenLoopStats out;
  for (const auto& [due, v] : rows) {
    out.due.push_back(due);
    out.latency.push_back(v[0]);
    out.queue_wait.push_back(v[1]);
    out.lateness.push_back(v[2]);
  }
  return out;
}

// -------------------------------------------------------------- freshness

void FreshnessTracker::OnIngest(double start, double end, bool refreshed) {
  pending_.push_back(start);
  if (refreshed) Close(end);
}

void FreshnessTracker::OnRefresh(double end) {
  if (!pending_.empty()) Close(end);
}

void FreshnessTracker::Close(double end) {
  for (const double start : pending_) freshness_.push_back(end - start);
  pending_.clear();
  ++refreshes_;
}

// ------------------------------------------------------------------ spans

uint64_t SpanRecorder::Begin(const std::string& name, uint64_t parent,
                             uint64_t request) {
  if (!enabled_) return 0;
  const double now = NowSeconds();
  std::lock_guard lock(mu_);
  SpanRecord r;
  r.name = name;
  r.start = now;
  r.end = now;
  r.id = spans_.size() + 1;
  r.parent = parent;
  r.request = request;
  spans_.push_back(std::move(r));
  return spans_.back().id;
}

void SpanRecorder::End(uint64_t id) {
  if (id == 0) return;
  const double now = NowSeconds();
  std::lock_guard lock(mu_);
  spans_[id - 1].end = now;
}

void SpanRecorder::Rename(uint64_t id, const std::string& name) {
  if (id == 0) return;
  std::lock_guard lock(mu_);
  spans_[id - 1].name = name;
}

std::vector<SpanRecord> SpanRecorder::Spans() const {
  std::lock_guard lock(mu_);
  return spans_;
}

bool SpanRecorder::WriteJson(const std::string& path) const {
  std::lock_guard lock(mu_);
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  out << "[\n";
  char buf[256];
  for (size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    std::snprintf(buf, sizeof(buf),
                  "{\"name\":\"%s\",\"id\":%llu,\"parent\":%llu,"
                  "\"request\":%llu,\"start_s\":%.9f,\"end_s\":%.9f}%s\n",
                  s.name.c_str(), static_cast<unsigned long long>(s.id),
                  static_cast<unsigned long long>(s.parent),
                  static_cast<unsigned long long>(s.request), s.start, s.end,
                  i + 1 < spans_.size() ? "," : "");
    out << buf;
  }
  out << "]\n";
  return static_cast<bool>(out);
}

std::vector<double> SpanSeconds(const std::vector<SpanRecord>& spans,
                                const std::string& name) {
  std::vector<double> out;
  for (const SpanRecord& s : spans) {
    if (s.name == name) out.push_back(s.end - s.start);
  }
  return out;
}

// ------------------------------------------------------------ host probes

bool ResetPeakRss() {
  std::ofstream out("/proc/self/clear_refs");
  if (!out) return false;
  out << "5";
  out.flush();
  return static_cast<bool>(out);
}

double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MiB
    }
  }
  return 0.0;
}

HostSample SampleHost() {
  HostSample s;
  s.wall = NowSeconds();
  rusage ru{};
  if (getrusage(RUSAGE_SELF, &ru) == 0) {
    s.process_cpu_s = static_cast<double>(ru.ru_utime.tv_sec) +
                      static_cast<double>(ru.ru_stime.tv_sec) +
                      1e-6 * static_cast<double>(ru.ru_utime.tv_usec +
                                                 ru.ru_stime.tv_usec);
  }
  std::ifstream in("/proc/stat");
  std::string cpu;
  in >> cpu;
  if (cpu == "cpu") {
    // user nice system idle iowait irq softirq steal [guest guest_nice]
    uint64_t v[8] = {};
    for (uint64_t& x : v) in >> x;
    for (const uint64_t x : v) s.total += x;
    s.steal = v[7];
  }
  return s;
}

double StealShare(const HostSample& a, const HostSample& b) {
  if (b.total <= a.total) return 0.0;
  return static_cast<double>(b.steal - a.steal) /
         static_cast<double>(b.total - a.total);
}

double CpuPerWall(const HostSample& a, const HostSample& b) {
  const double wall = b.wall - a.wall;
  return wall > 0 ? (b.process_cpu_s - a.process_cpu_s) / wall : 0.0;
}

// ------------------------------------------------------------------- misc

uint64_t Fnv1a(const void* data, size_t bytes, uint64_t seed) {
  const auto* p = static_cast<const unsigned char*>(data);
  uint64_t h = seed;
  for (size_t i = 0; i < bytes; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

}  // namespace e2ebench
