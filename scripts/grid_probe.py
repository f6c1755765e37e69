#!/usr/bin/env python3
"""Run a 7x7 and a 10x10 unit grid, 300 ticks each at seed 1, and print
one summary line each (also to $GITHUB_STEP_SUMMARY when it is set),
then one JSON line of the 10x10 run's counts (counts()). Exits 1 if
the 7x7 trace that `run --trace FILE` writes is not the in-process one.
Run from the repository root: PYTHONPATH=src python3 scripts/grid_probe.py
"""
import gc
import hashlib
import json
import os
import platform
import resource
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

from flooding_sweep import grid_text
from olsrv2sim import engine, topology
from olsrv2sim.cli import parse_scenario
from olsrv2sim.simnet import build_network

TICKS = 300


def counts(k: int, ticks: int):
    """Run the k x k grid for ticks with counters wrapped around the
    library: the counts (KEYS), and the network, run but not rendered.
    Every name patched to count is restored on the way out."""
    n = Counter()
    patched = [(engine, "make_hello"), (topology, "repair_distances"),
               (topology, "update_router_topology"), (topology, "routes"),
               (engine.Router, "run_topology_update"),
               (engine.Router, "process_tc")]
    old = {name: getattr(owner, name) for owner, name in patched}

    def make_hello(*args):  # the HELLOs built; the others are resent
        n["hello_builds"] += 1
        return old["make_hello"](*args)

    # topology passes by what they did with the distances: kept,
    # lowered, or (any other pass) recomputed in full
    def repair_distances(edges, changed, dist):
        fell = old["repair_distances"](edges, changed, dist)
        n["passes_fell_back" if fell is None else "passes_lowered" if fell
          else "passes_kept"] += 1
        return fell

    def run_topology_update(router):
        n["passes"] += 1
        old["run_topology_update"](router)

    # accepted TC copies by how their rows were stored: refreshed
    # inline, or through update_router_topology, which compares them
    # row by row unless the originator is new
    def update_router_topology(rts, moip, *rest):
        n["tc_compared" if moip in rts else "tc_new"] += 1
        return old["update_router_topology"](rts, moip, *rest)

    def process_tc(router, msg, *args):
        moip = msg.originator
        before, through = router.rts.get(moip), n["tc_compared"] + n["tc_new"]
        old["process_tc"](router, msg, *args)
        if (router.rts.get(moip) is not before
                and n["tc_compared"] + n["tc_new"] == through):
            n["tc_inline"] += 1

    # routes() reads: of every node, or, on a lowering pass, of the
    # stale nodes and their descendants only, found in order of
    # distance: a node is a descendant when its predecessor is one
    def routes(ip, dist, pred, rs, stale=None, children=None):
        if stale is None:
            n["routes_full_reads"] += 1
            n["routes_full_nodes"] += len(dist) - 1
        else:
            under = set(stale)
            for v in sorted(dist, key=dist.get):
                if pred.get(v) in under:
                    under.add(v)
            n["routes_partial_reads"] += 1
            n["routes_partial_nodes"] += len(under)
        return old["routes"](ip, dist, pred, rs, stale, children)

    # automatic collections started during net.run; it pauses the
    # collector, so 0 is expected
    def collection(phase, info):
        n["collections"] += phase == "start"

    counted = {f.__name__: f for f in (
        make_hello, repair_distances, update_router_topology, routes,
        run_topology_update, process_tc)}
    try:
        for owner, name in patched:
            setattr(owner, name, counted[name])
        net = build_network(parse_scenario(grid_text(k, 1)))
        gc.callbacks.append(collection)
        try:
            net.run(ticks)
        finally:
            gc.callbacks.remove(collection)
    finally:
        for owner, name in patched:
            setattr(owner, name, old[name])
    n["hellos"] = sum(e.kind == "HELLO_GEN" for e in net.trace)
    n["passes_full"] = n["passes"] - n["passes_kept"] - n["passes_lowered"]
    n["tc_accepted"] = n["tc_inline"] + n["tc_compared"] + n["tc_new"]
    return {key: n[key] for key in KEYS}, net


KEYS = ("hello_builds", "hellos", "passes", "passes_kept", "passes_lowered",
        "passes_full", "passes_fell_back", "tc_accepted", "tc_inline",
        "tc_compared", "tc_new", "routes_full_reads",
        "routes_full_nodes", "routes_partial_reads", "routes_partial_nodes",
        "collections")


def peak_mb(who=resource.RUSAGE_SELF) -> float:
    return resource.getrusage(who).ru_maxrss / 1024


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        scenario, trace = Path(tmp, "grid7.txt"), Path(tmp, "grid7.trace")
        scenario.write_text(grid_text(7, 1))
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-m", "olsrv2sim", "run", "--ticks",
                        str(TICKS), "--scenario", str(scenario),
                        "--trace", str(trace)], check=True)
        wall = time.perf_counter() - t0
        got = hashlib.sha256(trace.read_bytes()).hexdigest()
    net = build_network(parse_scenario(grid_text(7, 1)))
    net.run(TICKS)
    t0 = time.perf_counter()
    text = net.render_trace()
    render_s = time.perf_counter() - t0
    want = hashlib.sha256(text.encode()).hexdigest()
    del net, text  # so that the 10x10 run can reuse their memory
    python = f" (Python {platform.python_version()})"
    lines = [f"7x7 grid, {TICKS} ticks, run --trace FILE: {wall:.2f} s wall,"
             f" {peak_mb(resource.RUSAGE_CHILDREN):.0f} MB peak RSS, sha256"
             f" {got[:16]}; in process, render_trace {render_s:.2f} s,"
             f" {peak_mb():.0f} MB peak RSS after rendering{python}"]
    t0 = time.perf_counter()
    c, net = counts(10, TICKS)
    wall, rss_mb = time.perf_counter() - t0, peak_mb()
    t0 = time.perf_counter()
    net.render_trace()
    render_s = time.perf_counter() - t0
    lines.append((
        "10x10 grid, {ticks} ticks, run only: {wall:.2f} s wall, {rss:.0f} MB"
        " peak RSS, make_hello built {hello_builds} of {hellos} HELLOs;"
        " {passes} topology passes: {passes_kept} kept the distances,"
        " {passes_lowered} lowered them, {passes_full} recomputed them in"
        " full ({passes_fell_back} after a lost tight edge); {tc_accepted}"
        " accepted TC copies: {tc_inline} refreshed inline, {tc_compared}"
        " compared row by row, {tc_new} from a new originator; routes() read"
        " {routes_full_nodes} nodes in {routes_full_reads} full reads and"
        " {routes_partial_nodes} in {routes_partial_reads} reads under moved"
        " nodes; {collections} automatic collections started during net.run"
        " (expected 0); render_trace {render_s:.2f} s, {render_mb:.0f} MB"
        " peak RSS after rendering{python}").format(
            **c, ticks=TICKS, wall=wall, rss=rss_mb, render_s=render_s,
            render_mb=peak_mb(), python=python))
    print(*lines, sep="\n")
    if "GITHUB_STEP_SUMMARY" in os.environ:
        with open(os.environ["GITHUB_STEP_SUMMARY"], "a") as fh:
            print(*lines, sep="\n", file=fh)
    print(json.dumps({**c, "grid7_sha256": got}))
    if got != want:
        sys.exit(f"error: 7x7 trace sha256 {got} != in-process {want}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
