#!/usr/bin/env python3
"""Measure how often the RFC 7181 metric-direction reading hurts routes.

Random connected scenarios with independently drawn per-direction link
metrics are each run twice to convergence: once with corrected
routing-MPR selection (two-hop distances judged by incoming metric) and
once with the literal RFC 7181 section 18.5 reading (outgoing metric,
the --bug-rfc7181 semantics). Converged routing sets are then compared
against ground-truth shortest paths. Corrected runs are expected to be
optimal everywhere; the survey reports how many scenarios and
destination pairs the bugged reading degrades, and by how much.
"""
import argparse
import random
import statistics
import sys

from olsrv2sim.checkers import check_route_optimality, run_to_convergence
from olsrv2sim.cli import parse_scenario
from olsrv2sim.simnet import build_network


def scenario_text(rng: random.Random, n: int, seed: int) -> str:
    """A connected graph: random spanning tree plus up to n-1 chords."""
    names = [chr(ord("a") + i) for i in range(n)]
    order = names[:]
    rng.shuffle(order)
    pairs = set()
    for i in range(1, n):
        pairs.add(frozenset((order[rng.randrange(i)], order[i])))
    for _ in range(rng.randrange(n)):
        u, v = rng.sample(names, 2)
        pairs.add(frozenset((u, v)))

    lines = [f"node {name}" for name in names]
    for pair in sorted(pairs, key=sorted):
        u, v = sorted(pair)
        lines.append(f"link {u} {v} {rng.randint(1, 8)}"
                     f" bidi {rng.randint(1, 8)}")
    params = {
        "lb": 1, "delta_b": 1,
        "hp_maxjitter": 3, "hello_interval": 8,
        "tp_maxjitter": 3, "tc_interval": 12,
        "seed": seed, "ticks": 400,
    }
    for key, value in params.items():
        lines.append(f"param {key} {value}")
    return "\n".join(lines) + "\n"


def run_mode(text: str, bug: bool):
    scenario = parse_scenario(text)
    scenario.flags["bug_rfc7181"] = bug
    net = build_network(scenario)
    conv = run_to_convergence(net, window=50, budget=400)
    if not conv.converged:
        return None
    return check_route_optimality(net)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--scenarios", type=int, default=40)
    ap.add_argument("--min-nodes", type=int, default=4)
    ap.add_argument("--max-nodes", type=int, default=8)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("-v", "--verbose", action="store_true",
                    help="print one line per affected scenario")
    args = ap.parse_args(argv)

    rng = random.Random(args.seed)
    skipped = corrected_bad = 0
    affected = 0
    pair_total = pair_bad = 0
    stretches = []
    worst = None
    for i in range(args.scenarios):
        n = rng.randint(args.min_nodes, args.max_nodes)
        text = scenario_text(rng, n, seed=args.seed * 1000 + i)
        clean = run_mode(text, bug=False)
        bugged = run_mode(text, bug=True)
        if clean is None or bugged is None:
            skipped += 1
            continue
        if not all(rep.verdict for rep in clean.values()):
            corrected_bad += 1
        pair_total += n * (n - 1)
        bad_here = 0
        for ip, rep in sorted(bugged.items()):
            for dest, found, best in sorted(rep.suboptimal):
                bad_here += 1
                stretch = found / best
                stretches.append(stretch)
                if worst is None or stretch > worst[0]:
                    worst = (stretch, i, ip, dest, found, best)
            bad_here += len(rep.missing)
        if bad_here:
            affected += 1
            pair_bad += bad_here
            if args.verbose:
                print(f"scenario {i} (n={n}): {bad_here}/{n * (n - 1)}"
                      " routes degraded")

    ran = args.scenarios - skipped
    print(f"{ran} scenarios converged in both modes"
          + (f" ({skipped} skipped)" if skipped else ""))
    print(f"corrected mode optimal everywhere: {ran - corrected_bad}/{ran}")
    print(f"bugged mode degraded routes in {affected}/{ran} scenarios,"
          f" {pair_bad}/{pair_total} source-destination pairs")
    if stretches:
        s, i, ip, dest, found, best = worst
        print(f"stretch over affected pairs: mean"
              f" {statistics.mean(stretches):.2f}, max {s:.2f}"
              f" (scenario {i}, {ip}->{dest}: {found} vs {best})")
    return 1 if corrected_bad else 0


if __name__ == "__main__":
    sys.exit(main())
