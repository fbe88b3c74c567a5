#!/usr/bin/env python3
"""End-to-end benchmark of the EHNA train -> serve path.

    python3 e2ebench/run.py --workload train|serve_read|serve_write \
        --seed N --seconds S --trace 0|1
    python3 e2ebench/run.py --self-test

Run from the repository root. Builds the library and the benchmark binary
into .bench_build/e2ebench (CMake, Release), runs one workload, and prints
one JSON line as the last line of standard output:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json;
with --trace 1 the per-layer ones. A traced run first repeats the run
untraced, so it can check that tracing changes no output bytes and report
the tracing overhead. The process exits non-zero when a correctness check
fails. --self-test runs the harness unit tests and proves that every
correctness check fires on deliberately corrupted input. See NOTES.md.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "e2ebench")
BINARY = os.path.join(BUILD, "ehna_e2ebench")
WORKLOADS = ("train", "serve_read", "serve_write")
# Wall-clock budget for the measured children of one invocation (after the
# build), so a hung run still ends the invocation within three minutes.
RUN_BUDGET_S = 170

# Checks of each workload that the self-test corrupts one at a time, at
# tiny size.
OUTPUT_CHECKS = {
    "train": ["train.loss_finite", "train.auc_floor"],
    "serve_read": ["serve_read.exact_equals_fp32", "serve_read.recall_floor"],
    "serve_write": ["serve_write.rows_bitwise", "serve_write.mirror_bitwise",
                    "serve_write.exact_scores_fp32",
                    "serve_write.exact_recall_floor",
                    "serve_write.refreshes_min"],
}
# Configuration asserts: the sample counts the full-size run produced
# support its tail percentile. They exist only at full size.
VALIDITY_CHECKS = {
    "train": "train.tail_supported",
    "serve_read": "serve_read.tail_supported",
}


def log(msg):
    print(f"e2ebench: {msg}", file=sys.stderr, flush=True)


def build(targets):
    """Configures once and builds `targets`; False on any failure."""
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")):
        log("no CMakeLists.txt at the repository root; nothing to build")
        return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs, "--target", *targets])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("build failed: " + " ".join(cmd))
            return False
    return True


def run_child(workload, seed, seconds, trace, out_dir, deadline, corrupt="",
              tiny=False):
    """Runs the binary once and returns its parsed JSON line (None on error)."""
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--out", out_dir]
    if corrupt:
        cmd += ["--corrupt", corrupt]
    if tiny:
        cmd += ["--tiny", "1"]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        log(f"{workload} timed out")
        return None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        log(f"{workload} exited with {proc.returncode}")
        return None
    return json.loads(lines[-1])


def metric_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return ([(m["name"], m["unit"]) for m in spec["end_to_end"]],
            [(m["name"], m["unit"]) for m in spec["per_layer"]])


def measure(args):
    e2e_spec, layer_spec = metric_spec()
    if not build(["ehna_e2ebench"]):
        return 1
    out_dir = os.path.join(BUILD, "runs", f"{args.workload}-s{args.seed}")
    shutil.rmtree(out_dir, ignore_errors=True)
    corrupt = "" if args.corrupt == "trace.equal" else args.corrupt
    deadline = time.monotonic() + RUN_BUDGET_S
    plain = run_child(args.workload, args.seed, args.seconds, False, out_dir,
                      deadline, corrupt, args.tiny)
    if plain is None:
        return 1
    runs = [plain]
    checks = dict(plain["checks"])
    if args.trace:
        traced = run_child(args.workload, args.seed, args.seconds, True,
                           out_dir, deadline, corrupt, args.tiny)
        if traced is None:
            return 1
        runs.append(traced)
        checks.update({f"traced.{k}": v for k, v in traced["checks"].items()})
        # Metrics on == off: tracing must not change a single output byte.
        fingerprint = traced["fingerprint"]
        if args.corrupt == "trace.equal":
            fingerprint = "corrupted"
        checks["trace.equal"] = fingerprint == plain["fingerprint"]
        values = dict(traced["layers"])
        coverage = sorted(n for n, src in traced["layer_source"].items()
                          if src != args.workload)
        log("per-layer metrics from coverage runs of other workloads: "
            + ", ".join(f"{n} ({traced['layer_source'][n]})"
                        for n in coverage))
        base, with_trace = plain["e2e"], traced["e2e"]
        values["trace.overhead_throughput_share"] = (
            1.0 - with_trace["throughput_per_s"] / base["throughput_per_s"])
        values["trace.overhead_latency_share"] = (
            with_trace["latency_p50_ms"] / base["latency_p50_ms"] - 1.0)
        spec = layer_spec
        with open(os.path.join(out_dir, "result.json"), "w") as f:
            json.dump({"untraced": plain, "traced": traced}, f, indent=1)
    else:
        values = plain["e2e"]
        spec = e2e_spec
        shutil.rmtree(out_dir, ignore_errors=True)

    correct = all(r["correct"] for r in runs) and all(checks.values())
    for name, ok in sorted(checks.items()):
        if not ok:
            log(f"check failed: {name}")
    metrics = {}
    for name, unit in spec:
        if name not in values:
            log(f"metric {name} missing")
            return 1
        metrics[name] = {"value": values[name], "unit": unit}
    result = {
        "correct": correct,
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "metrics": metrics,
    }
    print(json.dumps(result), flush=True)
    return 0 if correct else 1


def self_test():
    """Unit tests, then each check fired once on corrupted input."""
    if not build(["ehna_e2ebench", "e2ebench_harness_test"]):
        return 1
    if subprocess.run([os.path.join(BUILD, "e2ebench_harness_test")],
                      stdout=sys.stderr).returncode:
        log("harness unit tests failed")
        return 1
    cases = []
    for w in WORKLOADS:
        cases.append((w, "", True, False))  # clean run must pass
        cases += [(w, c, True, False) for c in OUTPUT_CHECKS[w]]
        if w in VALIDITY_CHECKS:
            cases.append((w, VALIDITY_CHECKS[w], False, False))
    cases.append(("train", "trace.equal", True, True))
    failures = 0
    for workload, check, tiny, trace in cases:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload",
               workload, "--seed", "7", "--seconds", "1",
               "--trace", "1" if trace else "0"]
        if check:
            cmd += ["--corrupt", check]
        if tiny:
            cmd += ["--tiny"]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True)
        fired = proc.returncode != 0 and f"check failed: {check}" in proc.stderr
        ok = fired if check else proc.returncode == 0
        log(f"self-test {workload} {check or 'clean'}: "
            f"{'ok' if ok else 'FAILED'}")
        failures += not ok
    return 1 if failures else 0


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--corrupt", default="",
                   help="corrupt the input of one named check (self-test)")
    p.add_argument("--tiny", action="store_true",
                   help="small fixed sizes (self-test)")
    p.add_argument("--self-test", action="store_true")
    args = p.parse_args()
    if args.self_test:
        return self_test()
    if args.workload is None:
        p.error("--workload is required")
    return measure(args)


if __name__ == "__main__":
    sys.exit(main())
