"""Analysis passes over finished (or in-progress) simulation runs.

Everything here works from ground truth plus router state or the
trace; nothing feeds back into the protocol. The reference scenarios
for the three built-in demos live here as plain scenario text.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .messages import INF, NEG_INF, NodeId, Tc, render_metric
from .simnet import Network, collector_paused
from .topology import _dijkstra


def symmetric_universe(out: dict) -> dict:
    """Ground truth's rows, such as Network.out, restricted to pairs
    that hear each other.

    The protocol only ever routes over links whose reverse direction
    also exists (HELLO exchange in both directions is what makes a
    link SYMMETRIC), so the fair baseline ignores one-way links.
    Returns an adjacency map a -> {b: metric}, as out is.
    """
    return {a: {b: m for b, m in row.items() if a in out.get(b, ())}
            for a, row in out.items()}


def ground_truth_shortest_paths(universe: dict, source: NodeId) -> dict:
    """Best metric-distance from source to every node it reaches over
    universe, an adjacency map such as symmetric_universe builds."""
    dist = _dijkstra(universe, source)
    return {d: m for d, m in dist.items() if d != source and m != INF}


@dataclass(frozen=True)
class OptimalityReport:
    node: NodeId
    verdict: bool
    missing: tuple          # destinations with no route at all
    suboptimal: tuple       # (dest, found metric, optimal metric)


def render_optimality_report(rep: OptimalityReport) -> str:
    missing = ",".join(rep.missing)
    subopt = ",".join(f"({d},{render_metric(f)},{render_metric(o)})"
                      for d, f, o in rep.suboptimal)
    verdict = "true" if rep.verdict else "false"
    return (f"OPT n={rep.node} verdict={verdict} "
            f"missing={{{missing}}} subopt={{{subopt}}}")


def check_route_optimality(net: Network) -> dict:
    """Compare every router's routing set against ground truth."""
    reports = {}
    universe = symmetric_universe(net.out)
    for ip in sorted(net.routers):
        oracle = ground_truth_shortest_paths(universe, ip)
        found = {r.dest: r.metric for r in net.routers[ip].rs.values()}
        missing = tuple(sorted(set(oracle) - set(found)))
        subopt = tuple(sorted(
            (d, m, oracle.get(d, INF))
            for d, m in found.items() if m != oracle.get(d, INF)))
        reports[ip] = OptimalityReport(
            node=ip, verdict=not missing and not subopt,
            missing=missing, suboptimal=subopt)
    return reports


def count_tc_broadcasts(trace, originator: NodeId, seq: int):
    """How widely one specific TC flooded.

    Returns (number of broadcasts carrying it, set of nodes that had
    it delivered). A node that hears the TC twice still counts once.
    """
    count = 0
    coverage = set()
    for ev in trace:
        if not any(isinstance(m, Tc) and m.originator == originator
                   and m.seq == seq for m in ev.packet or ()):
            continue
        if ev.kind == "BROADCAST":
            count += 1
        elif ev.kind == "DELIVER":
            coverage.add(ev.node)
    return count, coverage


@dataclass(frozen=True)
class ConvergenceReport:
    converged: bool
    tick: Optional[int]     # last routing-set change, 0 if none ever
    window: int
    observed_ticks: int     # the clock quiet_window judged at


def quiet_window(last_change, last_event, window: int, clock: int):
    """The one convergence rule; a last_change of NEG_INF is none."""
    converged = max(last_change, last_event) + window <= clock
    tick = max(last_change, 0) if converged else None
    return ConvergenceReport(converged, tick, window, clock)


def detect_convergence(trace, window: int, total_ticks: int) -> ConvergenceReport:
    """Did routing sets go quiet for at least `window` ticks?

    Converged means: no ROUTE_CHANGE after some tick c, with the run
    observed for at least `window` ticks past c. A run with no route
    changes at all is trivially converged at tick 0 (provided it was
    at least `window` ticks long).
    """
    last = max((ev.tick for ev in trace if ev.kind == "ROUTE_CHANGE"),
               default=NEG_INF)
    return quiet_window(last, 0, window, total_ticks)


def default_window(net: Network) -> int:
    """Quiet period that outlasts one full TC cycle with jitter."""
    return max(r.cfg.tc_interval + r.cfg.tp_maxjitter
               for r in net.routers.values())


def run_to_convergence(net: Network, window: int,
                       budget: int) -> ConvergenceReport:
    """Tick until routing sets stay quiet for `window`, or give up.

    After each tick, quiet_window judges the routers' last routing-set
    change (Router.last_route_change, not the trace) and the last
    topology event within the budget, so a run is never judged before
    its events have applied. Early exit only triggers after at least
    one route change; a scenario that never routes anything runs its
    full budget.
    """
    last_event = max((ev.time for ev in net.events if ev.time < budget),
                     default=0)
    routers = net.routers.values()
    with collector_paused():  # the reports allocate between ticks
        while net.clock < budget:
            net.tick()
            last_change = max(r.last_route_change for r in routers)
            report = quiet_window(last_change, last_event, window, net.clock)
            if report.converged and last_change > NEG_INF:
                return report
        return quiet_window(max(r.last_route_change for r in routers),
                            last_event, window, net.clock)


# ---------------------------------------------------------------------------
# Reference scenarios for the built-in demos.
# ---------------------------------------------------------------------------

# 3x3 grid with unit metrics; E sits in the centre and is the only
# router whose TC timer fires inside the simulated horizon. With
# selective flooding exactly E and its two flooding MPRs broadcast the
# TC; with flood_all every router does.
#
# HELLO rounds are synchronized: every router starts its HELLO timer
# at 0 and the jitter window (hp_maxjitter 2, so draws differ by at
# most one tick) is smaller than the fixed one-tick flight time
# (lb 1, delta_b 0). No HELLO can therefore influence another HELLO
# of the same round, rounds stay cleanly separated, and the first
# round that lists SYMMETRIC neighbours (round 3) lists each
# neighbourhood completely. Fed complete listings one at a time, the
# greedy flooding-MPR selection at E provably lands on a two-element
# set whatever the arrival order, and round 4 re-announces final MPR
# choices well before E's TC fires at ~78, so no stale selector flag
# survives. That makes the broadcast count exactly 3 for every seed.
FIG1_SCENARIO = """\
# 3x3 grid, unit metrics, centre node E
node A
node B
node C
node D
node E
node F
node G
node H
node I
param lb 1
param delta_b 0
param hp_maxjitter 2
param hello_interval 20
param h_hold_time 22
param tp_maxjitter 2
param tc_interval 200
param t_hold_time 224
param l_hold_time 20
param seed 1
param ticks 96
link A B 1 bidi 1
link B C 1 bidi 1
link D E 1 bidi 1
link E F 1 bidi 1
link G H 1 bidi 1
link H I 1 bidi 1
link A D 1 bidi 1
link D G 1 bidi 1
link B E 1 bidi 1
link E H 1 bidi 1
link C F 1 bidi 1
link F I 1 bidi 1
offset A hello 0 tc 150
offset B hello 0 tc 150
offset C hello 0 tc 150
offset D hello 0 tc 150
offset E hello 0 tc 78
offset F hello 0 tc 150
offset G hello 0 tc 150
offset H hello 0 tc 150
offset I hello 0 tc 150
"""

# Three-node chain. Hello offsets are spaced far enough apart that the
# exchange unfolds one message at a time regardless of jitter draws:
# A speaks first (B hears it), B answers (the A-B link goes symmetric),
# C speaks, and the second round of HELLOs gives A and C two-hop
# knowledge of each other through B. TC timers sit beyond the horizon.
FIG2_SCENARIO = """\
# chain A - B - C, staggered first HELLOs
node A
node B
node C
param lb 1
param delta_b 1
param hp_maxjitter 3
param hello_interval 30
param h_hold_time 34
param tp_maxjitter 3
param tc_interval 200
param t_hold_time 209
param seed 1
param ticks 46
link A B 1 bidi 1
link B C 1 bidi 1
offset A hello 3 tc 120
offset B hello 10 tc 120
offset C hello 17 tc 120
"""

# Five routers, asymmetric metrics. The cheapest S-to-D path is
# S-A-B-D at metric 6. Reading the wrong metric direction when D picks
# its routing MPRs (the RFC 7181 section 18.5 text) makes D pick C
# instead of B, B's inbound links are never advertised, and S settles
# on S-A-C-D at metric 7.
FIG3_SCENARIO = """\
# five nodes, asymmetric metrics; bug flag changes D's MPR choice
node A
node B
node C
node D
node S
param lb 1
param delta_b 1
param hp_maxjitter 3
param hello_interval 10
param h_hold_time 14
param tp_maxjitter 3
param tc_interval 30
param t_hold_time 50
param seed 1
param ticks 200
link S A 1 bidi 1
link A B 1 bidi 3
link C D 1 bidi 6
link A C 5 bidi 5
link D B 1 bidi 4
"""
