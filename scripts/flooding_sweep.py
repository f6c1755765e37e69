#!/usr/bin/env python3
"""Sweep TC flooding cost over grid sizes and seeds.

For each k x k unit-metric grid the center router's first
post-convergence TC is traced through the network and the number of
broadcasts carrying it is counted, once with selective MPR forwarding
and once with every router forwarding (flood_all). The reduction column
is the fraction of broadcasts saved by the selective rule.
"""
import argparse
import statistics
import sys

from olsrv2sim.checkers import count_tc_broadcasts, run_to_convergence
from olsrv2sim.cli import parse_scenario
from olsrv2sim.simnet import build_network


def grid_text(k: int, seed: int) -> str:
    def name(i, j):
        return f"r{i}c{j}"

    lines = []
    for i in range(k):
        for j in range(k):
            lines.append(f"node {name(i, j)}")
    for i in range(k):
        for j in range(k):
            if j + 1 < k:
                lines.append(f"link {name(i, j)} {name(i, j + 1)} 1 bidi 1")
            if i + 1 < k:
                lines.append(f"link {name(i, j)} {name(i + 1, j)} 1 bidi 1")
    n = k * k
    params = {
        "lb": 1, "delta_b": 1,
        "hp_maxjitter": 3, "hello_interval": 8, "h_hold_time": 12,
        "tp_maxjitter": 3, "tc_interval": 12,
        # worst-case flood traversal is (2*(lb+delta_b)+1) ticks per hop
        "t_hold_time": 5 * (n - 1) + 11,
        "l_hold_time": 10,
        "seed": seed, "ticks": 600,
    }
    for key, value in params.items():
        lines.append(f"param {key} {value}")
    return "\n".join(lines) + "\n"


def measure(k: int, seed: int, flood_all: bool):
    """Return (broadcast count, nodes covered) for one traced TC."""
    scenario = parse_scenario(grid_text(k, seed))
    if flood_all:
        scenario.flags["flood_all"] = True
    net = build_network(scenario)
    conv = run_to_convergence(net, window=50, budget=600)
    if not conv.converged:
        return None
    settle = net.clock
    n = k * k
    # leave room for one more TC generation plus a full flood traversal
    net.run(12 + 3 + 5 * (n - 1) + 5)
    center = f"r{k // 2}c{k // 2}"
    seq = None
    for ev in net.trace:
        if ev.kind == "TC_GEN" and ev.node == center and ev.tick >= settle:
            seq = ev.payload.seq
            break
    if seq is None:
        return None
    count, coverage = count_tc_broadcasts(net.trace, center, seq)
    return count, len(coverage)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--sizes", default="3,4,5",
                    help="comma-separated grid side lengths (default 3,4,5)")
    ap.add_argument("--seeds", type=int, default=3,
                    help="seeds per size, 0..N-1 (default 3)")
    args = ap.parse_args(argv)
    sizes = [int(tok) for tok in args.sizes.split(",")]

    print(f"{'k':>3} {'n':>4} {'seed':>5} {'selective':>10} "
          f"{'classical':>10} {'reduction':>10}")
    for k in sizes:
        reductions = []
        for seed in range(args.seeds):
            sel = measure(k, seed, flood_all=False)
            cls = measure(k, seed, flood_all=True)
            if sel is None or cls is None:
                print(f"{k:>3} {k * k:>4} {seed:>5} {'(no convergence)':>21}")
                continue
            n = k * k
            if sel[1] != n or cls[1] != n:
                print(f"{k:>3} {n:>4} {seed:>5} incomplete coverage "
                      f"{sel[1]}/{cls[1]} of {n}", file=sys.stderr)
                return 1
            saved = 1 - sel[0] / cls[0]
            reductions.append(saved)
            print(f"{k:>3} {n:>4} {seed:>5} {sel[0]:>10} {cls[0]:>10} "
                  f"{saved:>9.1%}")
        if reductions:
            print(f"    k={k}: mean reduction {statistics.mean(reductions):.1%}"
                  f" over {len(reductions)} seeds")
    return 0


if __name__ == "__main__":
    sys.exit(main())
