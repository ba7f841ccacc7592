#!/usr/bin/env bash
# Runs the commit-path micro-benchmarks (bench/micro_commit) and emits
# BENCH_hotpath.json in the ftx.bench-results schema, including speedups
# against the recorded pre-overhaul baseline (std::set dirty tracking,
# per-page heap-allocated before-images, byte-at-a-time CRC).
#
# Usage: scripts/bench_hotpath.sh [OUT.json]
#   BUILD_DIR=build        build tree containing bench/micro_commit
#   BENCH_MIN_TIME=0.1     google-benchmark --benchmark_min_time (seconds,
#                          plain double; this benchmark build rejects the
#                          "0.1s" suffix form)
#
# The acceptance gates checked into meta.acceptance mirror the overhaul's
# targets: BM_SegmentWriteBarrier >= 3x and BM_SegmentCommit/1024 >= 2x over
# the baseline, and BM_TraceAppend2pc >= 2x over the trace before its
# 32-byte event layout and paged send pairing. BASELINE_CPU_NS values are
# absolute nanoseconds measured on the original development host, so
# speedups (and the gates) are only meaningful on comparable hardware —
# treat cross-machine numbers as a trajectory, not a comparison. On a full-scale run (BENCH_MIN_TIME >= 0.5)
# a failed gate exits nonzero; quick smoke runs (like the ctest fixture at
# 0.01) report PASS/FAIL but always exit 0, since timings at tiny min_time
# are too noisy to gate on. Validate the output with
# scripts/check_bench_json.py.
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR=${BUILD_DIR:-build}
OUT=${1:-BENCH_hotpath.json}
MIN_TIME=${BENCH_MIN_TIME:-0.1}
BIN="$BUILD_DIR/bench/micro_commit"

if [ ! -x "$BIN" ]; then
  echo "bench_hotpath: $BIN not found; build the 'micro_commit' target first" >&2
  exit 1
fi

RAW=$(mktemp)
trap 'rm -f "$RAW"' EXIT

"$BIN" --benchmark_format=json --benchmark_min_time="$MIN_TIME" \
  --benchmark_filter='BM_Segment|BM_RedoRecordAppend|BM_Crc32|BM_GroupCommit|BM_TraceAppend2pc' \
  >"$RAW"

python3 - "$RAW" "$OUT" "$MIN_TIME" "$BUILD_DIR" <<'PYEOF'
import json
import os
import sys

raw_path, out_path, min_time, build_dir = (sys.argv[1], sys.argv[2],
                                           sys.argv[3], sys.argv[4])


def host_meta():
    """Real host metadata (the benchmark-library context reports its
    compiled-in defaults — num_cpus=1, mhz_per_cpu=2100 — which made the
    recorded trajectories uninterpretable across machines). Mirrors
    ftx_prof::HostMetaJson so bench_diff.py can fingerprint both formats."""
    cpu_model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.lower().startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    ftx_native = False
    sanitizer = "none"
    try:
        with open(os.path.join(build_dir, "CMakeCache.txt"),
                  encoding="utf-8") as f:
            for line in f:
                if line.startswith("FTX_NATIVE:"):
                    ftx_native = line.rstrip().split("=", 1)[1] in ("ON", "1",
                                                                   "TRUE")
                elif line.startswith("FTX_SANITIZE:"):
                    value = line.rstrip().split("=", 1)[1]
                    if value and value != "OFF":
                        sanitizer = value
    except OSError:
        pass
    return {
        "cpu_model": cpu_model,
        "num_cpus": os.cpu_count() or 0,
        "ftx_native": ftx_native,
        "sanitizer": sanitizer,
    }

# Pre-overhaul cpu-time baseline (ns) measured on the original development
# host with the std::set / per-page-allocation implementation, for speedup
# reporting. Host-specific absolute values: speedups computed against them
# are not comparable across machines.
BASELINE_CPU_NS = {
    "BM_SegmentWriteBarrier": 24.7,
    "BM_SegmentCommit/1": 109.4,
    "BM_SegmentCommit/16": 3542.3,
    "BM_SegmentCommit/64": 14316.6,
    "BM_SegmentCommit/256": 91204.4,
    "BM_SegmentCommit/1024": 472382.4,
    "BM_SegmentAbort/16": 5113.3,
    "BM_SegmentAbort/256": 112272.4,
}

ACCEPTANCE = [
    ("BM_SegmentWriteBarrier", 3.0),
    ("BM_SegmentCommit/1024", 2.0),
]

# PR 3 abort-path cpu-time baseline (ns) on the same host: the undo log as
# shipped by the first optimization pass, before the pooled page-slot /
# extent-based rewrite. The allocation-free abort must beat it >= 3x.
PR3_CPU_NS = {
    "BM_SegmentAbort/16": 3064.3,
    "BM_SegmentAbort/256": 96765.6,
}

PR3_ACCEPTANCE = [
    ("BM_SegmentAbort/16", 3.0),
    ("BM_SegmentAbort/256", 3.0),
]

# Trace-append cpu-time baseline (ns) of one fleet 2PC round, measured with
# this benchmark's code on the trace as it was before the diet (an ~80-byte
# TraceEvent with a std::string label, std::map send pairing in the trace
# and in the critical-path tracker) on a 4-vCPU 2.1 GHz Xeon VM, gcc 12,
# RelWithDebInfo. The diet must beat it >= 2x.
PRE_DIET_CPU_NS = {
    "BM_TraceAppend2pc": 4570706.0,
}

PRE_DIET_ACCEPTANCE = [
    ("BM_TraceAppend2pc", 2.0),
]

# Same-run ratio gates: numerator row / denominator row on the named
# counter. Host-independent (both sides run on this machine, this build).
RATIO_ACCEPTANCE = [
    # Hardware (PCLMUL-folded) CRC32 vs the slice-by-8 portable path.
    ("crc32_hw_vs_portable", "BM_Crc32/1048576", "BM_Crc32Portable/1048576",
     "bytes_per_second", 4.0),
    # Group commit at window=8 vs one-sync-pair-per-commit, in DiskStore
    # simulated commits/sec (the paper's two-synchronous-I/O cost model).
    ("group_commit_batch8", "BM_GroupCommit/8", "BM_GroupCommit/1",
     "sim_commits_per_sec", 2.0),
    # 512-bit VPCLMULQDQ kernel vs the 128-bit PCLMULQDQ kernel on 4 KB.
    # Each skips itself on hosts without its instructions, and a gate over a
    # skipped row is not checked.
    ("crc32_wide_vs_narrow", "BM_Crc32Vpclmul512/4096", "BM_Crc32Pclmul128/4096",
     "bytes_per_second", 2.0),
]

TO_NS = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}

with open(raw_path, encoding="utf-8") as f:
    doc = json.load(f)

rows = []
speedups = {}
skipped = set()
for b in doc.get("benchmarks", []):
    if b.get("run_type") == "aggregate":
        continue
    if b.get("error_occurred"):
        print(f"bench_hotpath: {b['name']} skipped: {b.get('error_message', '')}")
        skipped.add(b["name"])
        continue
    scale = TO_NS[b.get("time_unit", "ns")]
    row = {
        "benchmark": b["name"],
        "real_time_ns": b["real_time"] * scale,
        "cpu_time_ns": b["cpu_time"] * scale,
        "iterations": b["iterations"],
    }
    for extra in ("items_per_second", "bytes_per_second",
                  "sim_commits_per_sec"):
        if extra in b:
            row[extra] = b[extra]
    baseline = BASELINE_CPU_NS.get(b["name"])
    if baseline is not None:
        row["baseline_cpu_time_ns"] = baseline
        row["speedup"] = baseline / row["cpu_time_ns"]
        speedups[b["name"]] = row["speedup"]
    pr3 = PR3_CPU_NS.get(b["name"])
    if pr3 is not None:
        row["pr3_cpu_time_ns"] = pr3
        row["pr3_speedup"] = pr3 / row["cpu_time_ns"]
    pre_diet = PRE_DIET_CPU_NS.get(b["name"])
    if pre_diet is not None:
        row["pre_diet_cpu_time_ns"] = pre_diet
        row["pre_diet_speedup"] = pre_diet / row["cpu_time_ns"]
    rows.append(row)

if not rows:
    sys.exit("bench_hotpath: no benchmark rows in google-benchmark output")

context = doc.get("context", {})
by_name = {row["benchmark"]: row for row in rows}
acceptance = {}
gates = []  # (label, got, required) for the console report / failed list

for name, required in ACCEPTANCE:
    got = speedups.get(name)
    key = name.replace("BM_", "").replace("/", "_")
    acceptance[key + "_speedup"] = got if got is not None else -1.0
    acceptance[key + "_required"] = required
    acceptance[key + "_pass"] = got is not None and got >= required
    gates.append((name, got, required))

for name, required in PR3_ACCEPTANCE:
    row = by_name.get(name)
    got = row.get("pr3_speedup") if row else None
    key = name.replace("BM_", "").replace("/", "_") + "_vs_pr3"
    acceptance[key + "_speedup"] = got if got is not None else -1.0
    acceptance[key + "_required"] = required
    acceptance[key + "_pass"] = got is not None and got >= required
    gates.append((name + " (vs PR3)", got, required))

for name, required in PRE_DIET_ACCEPTANCE:
    row = by_name.get(name)
    got = row.get("pre_diet_speedup") if row else None
    key = name.replace("BM_", "").replace("/", "_") + "_vs_pre_diet"
    acceptance[key + "_speedup"] = got if got is not None else -1.0
    acceptance[key + "_required"] = required
    acceptance[key + "_pass"] = got is not None and got >= required
    gates.append((name + " (vs pre-diet trace)", got, required))

for key, num_name, den_name, counter, required in RATIO_ACCEPTANCE:
    if num_name in skipped or den_name in skipped:
        print(f"bench_hotpath: {key}: not checked on this host")
        continue
    num = by_name.get(num_name, {}).get(counter)
    den = by_name.get(den_name, {}).get(counter)
    got = (num / den) if num and den else None
    acceptance[key + "_ratio"] = got if got is not None else -1.0
    acceptance[key + "_required"] = required
    acceptance[key + "_pass"] = got is not None and got >= required
    gates.append((key, got, required))

out = {
    "schema": "ftx.bench-results",
    "schema_version": 1,
    "bench": "micro_commit_hotpath",
    "full_scale": float(min_time) >= 0.5,
    "meta": {
        "benchmark_min_time": float(min_time),
        "host": host_meta(),
        "num_cpus": context.get("num_cpus", 0),
        "mhz_per_cpu": context.get("mhz_per_cpu", 0),
        "library_build_type": context.get("library_build_type", ""),
        "baseline": "pre-overhaul micro_commit (std::set dirty tracking, "
                    "per-page allocation, byte-at-a-time CRC)",
        "acceptance": acceptance,
    },
    "rows": rows,
}

with open(out_path, "w", encoding="utf-8") as f:
    json.dump(out, f, indent=1)
    f.write("\n")

failed = []
for label, got, required in gates:
    ok = got is not None and got >= required
    if not ok:
        failed.append(label)
    shown = f"{got:.2f}x" if got is not None else "missing"
    print(f"bench_hotpath: {label}: {shown} (required {required:.1f}x) "
          f"{'PASS' if ok else 'FAIL'}")
print(f"bench_hotpath: wrote {out_path} ({len(rows)} rows)")
if failed and out["full_scale"]:
    sys.exit(f"bench_hotpath: acceptance gate(s) failed at full scale: "
             f"{', '.join(failed)}")
if failed:
    print("bench_hotpath: gates advisory at this min_time "
          "(full_scale requires BENCH_MIN_TIME >= 0.5)")
PYEOF
