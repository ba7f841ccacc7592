#!/usr/bin/env python3
"""Steadiness check: runs each workload N times and summarises the spread.

    python3 perfbench/steady.py --runs 10 > first.json
    python3 perfbench/steady.py --runs 10 --compare first.json > second.json

Run from the repository root. Each run is `perfbench/run.py --workload W
--seed S --seconds T --trace 0` with seeds 1..N and T = run_seconds from
BENCHMARK.json. For every end-to-end metric it prints, on stderr, the
median, the first and third quartiles (statistics.quantiles(values, n=4))
and the spread (q3 - q1) / median, next to the metric's bound. With
--compare it also prints how much worse each median is than the one in an
earlier report, as a share of the earlier median, next to the bound. The
JSON report on stdout is stamped with the host/build description
(ftx_prof::HostMetaJson), so numbers from different hosts are never
compared. Exits nonzero when a run fails, a spread (setup_s excepted)
exceeds its bound, or a median is worse than the earlier one by more than
its bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(args):
    proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py")] + args,
                          stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
                          check=False)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        return proc.returncode, None
    return proc.returncode, lines[-1]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--compare", default=None, metavar="EARLIER.json",
                        help="a report of an earlier steady.py run on the same host")
    opts = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        bench = json.load(f)
    seconds = bench["run_seconds"]
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    earlier = None
    if opts.compare:
        with open(opts.compare, encoding="utf-8") as f:
            earlier = json.load(f)

    code, meta = run(["--host-meta"])
    host = json.loads(meta) if code == 0 and meta else None
    if earlier is not None and earlier.get("host") != host:
        print("steady: the earlier report comes from another host; not comparing",
              file=sys.stderr)
        return 1
    report = {"host": host, "runs": opts.runs, "seconds": seconds, "workloads": {}}
    ok = True
    for workload in (w["name"] for w in bench["workloads"]):
        values = {}
        for seed in range(1, opts.runs + 1):
            code, line = run(["--workload", workload, "--seed", str(seed),
                              "--seconds", str(seconds), "--trace", "0"])
            result = json.loads(line) if line else None
            if code != 0 or result is None or not result["correct"]:
                print(f"{workload} seed {seed}: FAILED (exit {code})", file=sys.stderr)
                ok = False
                continue
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        summary = {}
        for name, vals in values.items():
            if len(vals) < 2:
                continue
            q1, median, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / median
            bound = metrics[name]["bound"]
            summary[name] = {"median": median, "q1": q1, "q3": q3, "spread": spread,
                             "values": vals}
            line = (f"{workload:14s} {name:14s} median {median:12.6g}  "
                    f"spread {spread:7.4f}  bound {bound}")
            if name != "setup_s" and spread > bound:
                ok = False
                line += "  SPREAD ABOVE BOUND"
            if earlier is not None:
                before = earlier["workloads"].get(workload, {}).get(name, {}).get("median")
                if before:
                    sign = 1 if metrics[name]["better"] == "lower" else -1
                    worse = sign * (median - before) / before
                    summary[name]["worse_than_earlier"] = worse
                    line += f"  worse than earlier {worse:+7.4f}"
                    if worse > bound:
                        ok = False
                        line += "  ABOVE BOUND"
            print(line, file=sys.stderr)
        report["workloads"][workload] = summary
    print(json.dumps(report, indent=1))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
