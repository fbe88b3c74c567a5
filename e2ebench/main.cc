// End-to-end benchmark of the EHNA train -> serve path (see NOTES.md).
//
//   ehna_e2ebench --workload train|serve_read|serve_write --seed N
//                 --seconds S --trace 0|1 --out DIR [--corrupt CHECK]
//                 [--tiny 1]
//
// Prints one JSON line: correctness checks, operation counts, the
// end-to-end metrics, the per-layer metrics (with --trace 1) and a
// fingerprint of the run's output bytes. e2ebench/run.py builds this binary
// and turns that line into the benchmark's result.
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>

#include "bench.h"
#include "util/logging.h"
#include "util/metrics.h"

namespace e2ebench {
namespace {

using RunFn = Report (*)(Context*);

struct Workload {
  const char* name;
  RunFn run;
};

constexpr Workload kWorkloads[] = {
    {"train", RunTrain},
    {"serve_read", RunServeRead},
    {"serve_write", RunServeWrite},
};

RunFn Find(const std::string& name) {
  for (const Workload& w : kWorkloads) {
    if (name == w.name) return w.run;
  }
  return nullptr;
}

std::string JsonNumber(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string JsonObject(const std::map<std::string, double>& m) {
  std::string s = "{";
  for (const auto& [k, v] : m) {
    if (s.size() > 1) s += ",";
    s += "\"" + k + "\":" + JsonNumber(v);
  }
  return s + "}";
}

int Usage() {
  std::fprintf(stderr,
               "usage: ehna_e2ebench --workload train|serve_read|serve_write "
               "--seed N --seconds S --trace 0|1 --out DIR "
               "[--corrupt CHECK] [--tiny 1]\n");
  return 2;
}

int Main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i], val = argv[i + 1];
    if (key == "--workload") {
      opt.workload = val;
    } else if (key == "--seed") {
      opt.seed = std::strtoull(val.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      opt.seconds = std::atoi(val.c_str());
    } else if (key == "--trace") {
      opt.trace = val == "1";
    } else if (key == "--corrupt") {
      opt.corrupt = val;
    } else if (key == "--out") {
      opt.out_dir = val;
    } else if (key == "--tiny") {
      opt.tiny = val == "1";
    } else {
      return Usage();
    }
  }
  const RunFn run = Find(opt.workload);
  if (run == nullptr || opt.seconds < 1 || opt.out_dir.empty()) return Usage();
  std::filesystem::create_directories(opt.out_dir);
  ehna::SetLogLevel(ehna::LogLevel::kWarning);

  // Tracing = the library's metrics registry plus the benchmark's spans.
  // Untraced runs switch the registry off, so they pay no recording cost.
  ehna::MetricsRegistry::SetEnabled(opt.trace);
  Context ctx;
  ctx.opt = opt;
  ctx.spans.Enable(opt.trace);
  Report rep = run(&ctx);

  // run.py checks that every metric BENCHMARK.json names was measured.
  bool correct = !rep.checks.empty();
  for (const auto& [name, ok] : rep.checks) correct = correct && ok;

  std::map<std::string, double> layers;
  std::map<std::string, std::string> layer_source;
  if (opt.trace) {
    const std::string stem =
        (std::filesystem::path(opt.out_dir) / opt.workload).string();
    ctx.spans.WriteJson(stem + ".spans.json");
    rep.layers.snapshot.WriteJson(stem + ".registry.json");
    layers = ComputeLayers(rep.layers, ctx.spans.Spans());
    for (const auto& [name, v] : layers) layer_source[name] = opt.workload;
    // Layers this workload does not drive are measured by small coverage
    // runs of the other workloads, sized so every percentile they report
    // is supported; layer_source names where each value came from.
    for (const Workload& w : kWorkloads) {
      if (opt.workload == w.name) continue;
      ehna::MetricsRegistry::Global().Reset();
      Context cov;
      cov.opt = opt;
      cov.opt.workload = w.name;
      cov.opt.tiny = true;
      cov.opt.corrupt.clear();
      cov.spans.Enable(true);
      Report cr = w.run(&cov);
      ctx.ops.attempted += cov.ops.attempted.load();
      ctx.ops.failed += cov.ops.failed.load();
      for (const auto& [name, ok] : cr.checks) {
        correct = correct && ok;
        rep.checks["coverage." + name] = ok;
      }
      const auto cov_layers = ComputeLayers(cr.layers, cov.spans.Spans());
      for (const auto& [name, v] : cov_layers) {
        if (layers.emplace(name, v).second) {
          layer_source[name] = std::string("coverage:") + w.name;
        }
      }
    }
  }

  std::string checks = "{";
  for (const auto& [name, ok] : rep.checks) {
    if (checks.size() > 1) checks += ",";
    checks += "\"" + name + "\":" + (ok ? "true" : "false");
  }
  checks += "}";
  std::string sources = "{";
  for (const auto& [name, src] : layer_source) {
    if (sources.size() > 1) sources += ",";
    sources += "\"" + name + "\":\"" + src + "\"";
  }
  sources += "}";
  std::printf(
      "{\"workload\":\"%s\",\"correct\":%s,\"attempted\":%" PRIu64
      ",\"failed\":%" PRIu64 ",\"fingerprint\":\"%016" PRIx64
      "\",\"checks\":%s,\"e2e\":%s,\"layers\":%s,\"layer_source\":%s}\n",
      opt.workload.c_str(), correct ? "true" : "false",
      ctx.ops.attempted.load(), ctx.ops.failed.load(), rep.fingerprint,
      checks.c_str(), JsonObject(rep.e2e).c_str(), JsonObject(layers).c_str(),
      sources.c_str());
  return 0;
}

}  // namespace
}  // namespace e2ebench

int main(int argc, char** argv) { return e2ebench::Main(argc, argv); }
