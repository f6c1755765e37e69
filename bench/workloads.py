"""Benchmark inputs: every workload is a pure function of its seed.

The grid and random-network texts come from the repository's own
generators (scripts/flooding_sweep.grid_text and
scripts/bug_impact_survey.scenario_text); only the churn-event
generator is new here. Each generated scenario is returned as scenario
text, so timing its set-up covers the same parse + build path as the
command line.
"""
from __future__ import annotations

import random
from dataclasses import dataclass

from olsrv2sim import cli
from olsrv2sim.simnet import TopologyEvent

from bug_impact_survey import scenario_text
from flooding_sweep import grid_text

DEFAULT_SEED = 1

# grid: three 5x5 unit grids per pass; each converges by tick ~50 and
# then spends the rest of its budget in steady-state MPR flooding.
GRID_K = 5
GRID_COUNT = 3
GRID_TICKS = 100

# longrun: two 4x4 unit grids, each run long enough that the message
# logs and the in-memory trace grow far past their size at convergence.
# The seed draws the second grid's jitter. The first grid's is fixed:
# the trace length a seed draws falls in steps (38.3k, 40.4k or 42.6k
# lines over 20 probed seeds), and peak RSS, reached while the longest
# trace is rendered, jumped with it. Jitter seed 119 gave the longest
# trace of those probed (43.6k lines), so it sets the peak.
LONGRUN_K = 4
LONGRUN_ANCHOR = 119
LONGRUN_TICKS = 1000

# churn: one network of each size 4..10, each run in both metric
# readings. The shapes and metrics come from one fixed stream, because
# the cost of a random network swings with its chord count: drawn per
# seed, the pass time spread by ~20% between seeds. The seed draws the
# churn events, the jitter, the offsets and the transmission times.
CHURN_SIZES = tuple(range(4, 11))
CHURN_SHAPES = 1
CHURN_START = 80    # first convergence came by tick 50 in every probe
CHURN_GAP = 40      # longer than a link tuple survives its last HELLO
CHURN_SETTLE = 60   # ticks run past the last event before convergence


@dataclass(frozen=True)
class Op:
    """One scenario run: the unit attempted, timed and judged."""

    name: str
    text: str
    ticks: int           # ticks to run; with check, the last event's tick
    check: bool = False  # run like `check` rather than like `run`
    bug: bool = False    # RFC 7181 metric reading


def churn_events(scenario, seed: int, metric: bool = False) -> tuple:
    """Seeded link churn for a parsed scenario, after first convergence.

    One undirected link goes down in both directions and comes back
    with its original metrics; then a second one does the same. With
    metric, two directed links change metric instead of the second
    down/up. Only links present at the event's tick are touched, so
    every event is valid. Depends on nothing but the seed, the flag and
    the scenario's links.
    """
    rng = random.Random(f"churn/{seed}")
    metric_of = {(src, dst): m for src, dst, m in scenario.links}
    pairs = sorted({tuple(sorted(k)) for k in metric_of
                    if (k[1], k[0]) in metric_of})

    def down_up(u, v, t_down):
        t_up = t_down + CHURN_GAP
        return [TopologyEvent(t_down, "linkdown", u, v),
                TopologyEvent(t_down, "linkdown", v, u),
                TopologyEvent(t_up, "linkup", u, v, metric_of[(u, v)]),
                TopologyEvent(t_up, "linkup", v, u, metric_of[(v, u)])]

    first = rng.choice(pairs)
    events = down_up(*first, CHURN_START)
    t_next = CHURN_START + 2 * CHURN_GAP
    if not metric:
        second = rng.choice([p for p in pairs if p != first] or pairs)
        return tuple(events + down_up(*second, t_next))
    for i, (src, dst) in enumerate(rng.sample(sorted(metric_of), 2)):
        new = rng.choice([m for m in range(1, 9)
                          if m != metric_of[(src, dst)]])
        events.append(TopologyEvent(t_next + i * CHURN_GAP, "metric",
                                    src, dst, new))
    return tuple(events)


def grid_ops(seed: int) -> list:
    return [Op(f"grid{i}", grid_text(GRID_K, seed * GRID_COUNT + i),
               GRID_TICKS)
            for i in range(GRID_COUNT)]


def longrun_ops(seed: int) -> list:
    return [Op(f"longrun{i}", grid_text(LONGRUN_K, jitter), LONGRUN_TICKS)
            for i, jitter in enumerate((LONGRUN_ANCHOR, seed))]


def churn_ops(seed: int, metric: bool = False) -> list:
    shapes = random.Random(CHURN_SHAPES)
    ops = []
    for i, n in enumerate(CHURN_SIZES):
        scenario = cli.parse_scenario(
            scenario_text(shapes, n, seed=seed * 1000 + i))
        scenario.events = churn_events(scenario, seed * 1000 + i, metric)
        last = max(ev.time for ev in scenario.events)
        scenario.params["ticks"] = last + CHURN_SETTLE + 400
        for bug in (False, True):
            scenario.flags["bug_rfc7181"] = bug
            ops.append(Op(f"churn{i}-n{n}-{'rfc7181' if bug else 'corrected'}",
                          cli.render_scenario(scenario), last, True, bug))
    return ops


def churn_metric_ops(seed: int) -> list:
    """`churn` with metric events; not a benchmark workload.

    It reproduces a standing simulator defect (NOTES.md): a link's
    in_metric never follows a metric event, so every corrected-reading
    run fails its ground-truth check.
    """
    return churn_ops(seed, metric=True)


WORKLOADS = {"grid": grid_ops, "churn": churn_ops, "longrun": longrun_ops,
             "churn-metric": churn_metric_ops}
