#!/usr/bin/env python3
"""Record the benchmark's numbers for one commit in one JSON file.

Runs the repository's one harness, bench/run.py, as it stands: for
each workload, R times untraced (--trace 0) and R times traced
(--trace 1), each run a subprocess. From each run it reads the last
line (the harness's JSON) and the `trace sha256 <op> <sha>` lines, and
writes one file:

- end_to_end: each untraced metric as the median, quartiles and values
  of its R runs, with every run's attempted and failed operations;
- layers: each traced layer's calls and self_s, medians over R runs;
- shas: every scenario's trace sha256, which must agree over all runs;
- lines: the line counts of src/olsrv2sim/*.py, tests/*.py and
  scripts/*.py;
- host: the commit, whether the tree had changes, the Python version
  and the number of usable cores.

By convention the file is BENCH_<n>.json at the repository root, one
per change that quotes numbers, so a later change can compare its own
file with the last one. Run from anywhere:

    python3 scripts/bench_record.py --out BENCH_<n>.json --seconds 10
"""
import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("grid", "churn", "longrun")
SEED = 1  # bench/run.py's default, the seed its hashes are pinned at


def bench_run(workload: str, seconds: float, trace: int) -> dict:
    """One bench/run.py run: its JSON line and its trace sha256s."""
    cmd = [sys.executable, str(ROOT / "bench" / "run.py"),
           "--workload", workload, "--seconds", str(seconds),
           "--trace", str(trace), "--seed", str(SEED)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.exit(f"error: {' '.join(cmd[1:])} exited {proc.returncode}:\n"
                 f"{proc.stderr}")
    lines = proc.stdout.splitlines()
    shas = {}
    for line in lines:
        if line.startswith("trace sha256 "):
            _, _, op, sha = line.split()
            shas[op] = sha
    return {"result": json.loads(lines[-1]), "shas": shas}


def spread(values: list) -> dict:
    """Median, quartiles and the values themselves."""
    q1, _, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                 if len(values) > 1 else values * 3)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "values": values}


def line_count(paths) -> int:
    return sum(p.read_bytes().count(b"\n") for p in paths)


def git(*args):
    """git's output in the repository, or None outside a git checkout."""
    try:
        return subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                              text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None


def record(workloads, repeats: int, seconds: float) -> dict:
    out = {"settings": {"workloads": list(workloads), "repeats": repeats,
                        "seconds": seconds, "seed": SEED},
           "end_to_end": {}, "layers": {}, "shas": {}}
    for w in workloads:
        plain = [bench_run(w, seconds, 0) for _ in range(repeats)]
        traced = [bench_run(w, seconds, 1) for _ in range(repeats)]
        shas = {}
        for run in plain + traced:
            for op, sha in run["shas"].items():
                if shas.setdefault(op, sha) != sha:
                    sys.exit(f"error: {w} {op}: trace sha256 differs"
                             " between runs")
        out["shas"][w] = shas
        metrics = {name: spread([r["result"]["metrics"][name]["value"]
                                 for r in plain])
                   for name in plain[0]["result"]["metrics"]}
        out["end_to_end"][w] = {
            "metrics": metrics,
            "attempted": [r["result"]["attempted"] for r in plain + traced],
            "failed": [r["result"]["failed"] for r in plain + traced]}
        layers = {}
        for name in traced[0]["result"]["metrics"]:
            label, _, field = name.rpartition(".")
            if field in ("calls", "self_s"):
                layers.setdefault(label, {})[field] = statistics.median(
                    r["result"]["metrics"][name]["value"] for r in traced)
        out["layers"][w] = layers
    out["lines"] = {
        "src": line_count((ROOT / "src" / "olsrv2sim").glob("*.py")),
        "tests": line_count((ROOT / "tests").glob("*.py")),
        "scripts": line_count((ROOT / "scripts").glob("*.py"))}
    out["host"] = {
        "commit": git("rev-parse", "HEAD"),
        "changed": git("status", "--porcelain", "--", "src", "tests",
                       "scripts", "bench") not in ("", None),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0))}
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--out", required=True, type=Path,
                    help="the JSON file to write, e.g. BENCH_<n>.json")
    ap.add_argument("--seconds", type=float, default=10.0,
                    help="bench/run.py --seconds for every run")
    ap.add_argument("--repeats", type=int, default=3,
                    help="runs per workload and trace mode")
    ap.add_argument("--workloads", nargs="+", choices=WORKLOADS,
                    default=list(WORKLOADS))
    args = ap.parse_args(argv)
    if args.repeats < 1:
        ap.error("--repeats must be >= 1")
    data = record(args.workloads, args.repeats, args.seconds)
    args.out.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
