#!/usr/bin/env python3
"""olsrv2-sim benchmark: end-to-end and per-layer timing of fixed workloads.

Usage, from the repository root:

    python3 bench/run.py --workload grid|churn|longrun --seed N \
        --seconds S --trace 0|1

One process runs one workload as a closed loop: the workload's
scenarios run one after another, and the whole set (a pass) repeats
while another pass still fits in S seconds. Every pass runs the same
inputs, generated from the seed. With --trace 0 the last line of
stdout is a JSON object holding the end-to-end metrics; with --trace 1
each scenario also runs traced right after its untraced run, and the
JSON holds the per-layer metrics. The built-in demos run once per
invocation, and every output is checked (NOTES.md says what counts as
a failed operation). Times are scaled to the host's uncontended speed
(hostspeed.py); the raw figures are printed too.

`--pin` rewrites pinned.json from the default seed's current outputs;
use it only in a change that alters traces on purpose, and say why.
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import math
import resource
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
PINNED = BENCH / "pinned.json"


def _use_checkout() -> None:
    """Import the simulator from this checkout's sources, or stop."""
    src = ROOT / "src"
    needed = (src / "olsrv2sim" / "__init__.py",
              ROOT / "scripts" / "flooding_sweep.py",
              ROOT / "scripts" / "bug_impact_survey.py")
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]
    if missing:
        sys.exit(f"error: simulator sources not found: {', '.join(missing)}")
    sys.path[:0] = [str(src), str(ROOT / "scripts")]


_use_checkout()

from olsrv2sim import (checkers, cli, engine, message_logs,  # noqa: E402
                       messages, neighborhood, simnet, topology)

import hostspeed  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import (CHURN_SETTLE, DEFAULT_SEED, WORKLOADS,  # noqa: E402
                       Op)

DEMOS = ("fig1", "fig2", "fig3")
SETUP_ROUNDS = 8       # per pass
# Set-up slows by about the square root of the host-speed kernel's
# slowdown: fitted on each workload, the elasticity was 0.52-0.57 for
# kernel slowdowns between 1.24 and 2.29. Scaled by the whole factor,
# set-up read ~30% lower on a loaded host than on an idle one.
SETUP_ELASTICITY = 0.55
MIN_ROUNDS = (2, 1)    # untraced runs; traced runs
TAIL_PERCENTILES = (99.9, 99.0, 90.0, 50.0)


# ---------------------------------------------------------------------------
# layers
# ---------------------------------------------------------------------------

def layer_tracer() -> Tracer:
    """Wrap the public functions of each layer at the name callers use."""
    t = Tracer()
    router, network = engine.Router, simnet.Network
    for attr in ("step_main", "run_update_info", "process_hello"):
        t.add(router, attr, f"engine.Router.{attr}")
    t.add(router, "updates_pending", "engine.Router.updates_pending",
          useful=lambda args, result, before: result)
    t.add(router, "process_tc", "engine.Router.process_tc",
          pre=lambda args: len(args[0].ps),
          useful=lambda args, result, before: len(args[0].ps) > before)
    for attr in ("make_hello", "make_tc", "render_message"):
        t.add(engine, attr, f"engine.{attr}")
    for attr in ("tick", "busy", "render_trace"):
        t.add(network, attr, f"simnet.Network.{attr}")
    for attr in ("render_packet", "build_network"):
        t.add(simnet, attr, f"simnet.{attr}")
    t.add(messages, "render_message", "messages.render_message")
    t.add(cli, "parse_scenario", "cli.parse_scenario")
    for attr in ("is_valid_fmpr_set", "is_valid_rmpr_set", "choose_fmprs",
                 "choose_rmprs", "update_fmprs", "update_rmprs",
                 "purge_link_set", "purge_2hop_set"):
        t.add(neighborhood, attr, f"neighborhood.{attr}")
    for attr in ("link_universe", "is_optimal_over", "increment_ansn",
                 "choose_optimal", "update_routing_set",
                 "update_router_topology"):
        t.add(topology, attr, f"topology.{attr}")
    for attr in ("add_processed_tuple", "add_received_tuple"):
        t.add(message_logs, attr, f"message_logs.{attr}")
    for attr in ("run_to_convergence", "check_route_optimality"):
        t.add(checkers, attr, f"checkers.{attr}")
    return t


# ---------------------------------------------------------------------------
# judging outputs
# ---------------------------------------------------------------------------

def judge(op: Op, converged: bool, reports: dict, sha: str,
          pinned_sha) -> list:
    """Reasons the operation failed; empty when it succeeded.

    Routes are held to ground truth in the corrected metric reading
    only: the RFC 7181 reading is known to pick suboptimal routes.
    """
    failures = []
    if not converged:
        failures.append("no convergence")
    if not op.bug:
        bad = sorted(ip for ip, rep in reports.items() if not rep.verdict)
        if bad:
            failures.append("routes differ from ground truth at "
                            + ",".join(bad))
    if pinned_sha is not None and sha != pinned_sha:
        failures.append(f"trace sha256 {sha[:12]} != pinned {pinned_sha[:12]}")
    return failures


def op_failures(passes: list) -> dict:
    """Failed operations: op name -> reasons, over every pass of the run.

    Passes repeat one set of operations, so an operation counts once
    however many passes ran. An operation whose trace differs from the
    first pass's fails; so does every operation of a traced pass whose
    call counts differ from the first traced pass's.
    """
    failures: dict = {}
    traced = [p for p in passes if p.traced]
    for p in passes:
        for name, reasons in p.failures.items():
            failures.setdefault(name, reasons)
        for name, sha in p.shas.items():
            if sha != passes[0].shas.get(name):
                failures.setdefault(name, ["trace differs between passes"])
        if p.traced and ({k: v[0] for k, v in p.layers.items()}
                         != {k: v[0] for k, v in traced[0].layers.items()}):
            for name in p.shas:
                failures.setdefault(name, ["call counts differ between"
                                           " traced passes"])
    return failures


def run_demo(fig: str) -> tuple:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["demo", fig])
    return code, out.getvalue()


def tail_pct(ticks_per_pass: int) -> float:
    """Highest percentile with >= 10 samples beyond it in every run.

    Fixed by the workload, from the fewest passes a run makes, so the
    tail of every run of a workload is the same percentile.
    """
    n = ticks_per_pass * MIN_ROUNDS[0]
    for pct in TAIL_PERCENTILES:
        if n - math.ceil(pct / 100 * n) >= 10:
            return pct
    return TAIL_PERCENTILES[-1]


def tail(samples: list, pct: float) -> tuple:
    """(value, samples beyond it) at percentile pct (nearest rank)."""
    ordered = sorted(samples)
    idx = max(0, math.ceil(pct / 100 * len(ordered)) - 1)
    return ordered[idx], len(ordered) - idx - 1


# ---------------------------------------------------------------------------
# timing
# ---------------------------------------------------------------------------

class OpTiming:
    """Raw times of one scenario run, with host-speed samples among them."""

    def __init__(self):
        self.lat: list = []   # seconds per Network.tick, in tick order
        self.run_s = 0.0      # the timed section, sampling excluded
        self.cal: list = []   # (ticks done when taken, kernel seconds)
        self.cal_s = 0.0      # time spent sampling inside the section
        self.last_cal = 0.0

    def calibrate(self) -> float:
        t0 = perf_counter()
        self.cal.append((len(self.lat), hostspeed.sample()))
        self.last_cal = perf_counter()
        return self.last_cal - t0

    def normalised(self) -> tuple:
        """(per-tick latencies, run seconds) scaled to uncontended speed.

        Each tick is scaled by the first sample taken after it; the
        time outside ticks by the median factor of the whole run.
        """
        idx = [i for i, _ in self.cal]
        f = hostspeed.factors([s for _, s in self.cal])
        lat, j = [], 0
        for i, dt in enumerate(self.lat):
            while idx[j] <= i:
                j += 1
            lat.append(dt / f[j])
        rest = (self.run_s - sum(self.lat)) / statistics.median(f)
        return lat, sum(lat) + rest


def _timed_ticks(net, timing: OpTiming) -> None:
    """Time each tick of net from outside, whoever calls net.tick()."""
    network = type(net)

    def timed():
        t0 = perf_counter()
        network.tick(net)  # looked up per call: a traced pass wraps it
        t1 = perf_counter()
        timing.lat.append(t1 - t0)
        if t1 - timing.last_cal >= hostspeed.EVERY_S:
            timing.cal_s += timing.calibrate()

    net.tick = timed


class Pass:
    def __init__(self, traced: bool):
        self.traced = traced
        self.ticks = 0
        self.ops: dict = {}        # op name -> OpTiming
        self.shas: dict = {}
        self.failures: dict = {}   # op name -> reasons
        self.log_entries = 0
        self.layers: dict = {}     # label -> (calls, total, self, useful)

    def raw_s(self) -> float:
        return sum(t.run_s for t in self.ops.values())

    def normalised(self) -> tuple:
        """(per-tick latencies, run seconds) at uncontended host speed."""
        lat, run_s = [], 0.0
        for timing in self.ops.values():
            op_lat, op_s = timing.normalised()
            lat += op_lat
            run_s += op_s
        return lat, run_s


def run_op(op: Op, p: Pass, traced, pinned_sha) -> None:
    """Set up, run and judge one scenario; accumulate into the pass."""
    with traced():
        scenario = cli.parse_scenario(op.text)
        net = simnet.build_network(scenario)
    timing = p.ops[op.name] = OpTiming()
    _timed_ticks(net, timing)
    # Start from an empty heap: garbage left by earlier scenarios would
    # otherwise be collected at a tick that depends on what ran before.
    gc.collect()
    timing.calibrate()
    with traced():
        t0 = perf_counter()
        if op.check:
            # like `olsrv2-sim check`, after running past the last event
            net.run(op.ticks + CHURN_SETTLE)
            window = checkers.default_window(net)
            conv = checkers.run_to_convergence(net, window,
                                               scenario.params["ticks"])
            reports = checkers.check_route_optimality(net)
            text = None
        else:
            # like `olsrv2-sim run`: tick the budget, render the trace
            net.run(op.ticks)
            text = net.render_trace()
        timing.run_s = perf_counter() - t0 - timing.cal_s
    timing.calibrate()
    p.ticks += net.clock
    if text is None:
        text = net.render_trace()
        converged = conv.converged
    else:
        window = checkers.default_window(net)
        converged = checkers.detect_convergence(net.trace, window,
                                                net.clock).converged
        reports = checkers.check_route_optimality(net)
    sha = hashlib.sha256(text.encode()).hexdigest()
    p.shas[op.name] = sha
    p.log_entries += sum(len(r.ps) + len(r.rxs) for r in net.routers.values())
    reasons = judge(op, converged, reports, sha, pinned_sha)
    if reasons:
        p.failures[op.name] = reasons


def run_round(ops: list, pinned: dict, tracer) -> list:
    """One untraced pass; with a tracer, also a traced one.

    A traced run repeats each scenario traced right after its untraced
    run, so both see the same host load and their ratio is the cost
    of tracing.
    """
    plain = Pass(traced=False)
    runs = [(plain, contextlib.nullcontext)]
    if tracer:
        tracer.reset()
        runs.append((Pass(traced=True), tracer.installed))
    for op in ops:
        for p, traced in runs:
            try:
                run_op(op, p, traced, pinned.get(op.name))
            except Exception:  # an operation that raises is a failed one
                p.ops.pop(op.name, None)  # its timing is incomplete
                p.failures[op.name] = ["exception: "
                                       + traceback.format_exc().strip()]
    if tracer:
        runs[1][0].layers = {
            label: (s.calls, s.total, s.self_time, s.useful)
            for label, s in tracer.stats.items()}
    return [p for p, _ in runs]


def setup_rounds(ops: list, rounds: int) -> list:
    """(raw, normalised) seconds to parse and build every scenario.

    One pair per round; each round is scaled by the host-speed sample
    taken right after it (a median with its neighbours), raised to
    SETUP_ELASTICITY.
    """
    samples, raws = [hostspeed.sample()], []
    for _ in range(rounds):
        gc.collect()  # as before a timed run
        t0 = perf_counter()
        for op in ops:
            simnet.build_network(cli.parse_scenario(op.text))
        raws.append(perf_counter() - t0)
        samples.append(hostspeed.sample())
    f = hostspeed.factors(samples)
    return [(raw, raw / f[i + 1] ** SETUP_ELASTICITY)
            for i, raw in enumerate(raws)]


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------

def end_to_end(passes: list, setups: list, attempted: int,
               failed: int) -> dict:
    norm = [p.normalised() for p in passes]
    lat = [dt for pass_lat, _ in norm for dt in pass_lat]
    run_s = statistics.median(s for _, s in norm)
    return {
        "setup_s": (statistics.median(s for _, s in setups), "s"),
        "run_s": (run_s, "s"),
        "ticks_per_s": (passes[0].ticks / run_s, "1/s"),
        "tick_ms_p50": (1000 * statistics.median(lat), "ms"),
        "tick_ms_tail": (1000 * tail(lat, tail_pct(passes[0].ticks))[0],
                         "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024, "MB"),
        "correct_share": ((attempted - failed) / attempted, "share"),
    }


def per_layer(plain: list, traced: list) -> dict:
    """Per-layer counts and times; times scaled like the pass's run_s."""
    scale = [p.normalised()[1] / p.raw_s() for p in traced]
    layers = traced[0].layers
    out = {}
    for label, (calls, *_rest) in layers.items():
        out[f"{label}.calls"] = (calls, "count")
        for i, name in ((1, "total_s"), (2, "self_s")):
            out[f"{label}.{name}"] = (statistics.median(
                p.layers[label][i] * k for p, k in zip(traced, scale)), "s")
    pend = layers["engine.Router.updates_pending"]
    steps = layers["engine.Router.step_main"]
    tc = layers["engine.Router.process_tc"]
    out["engine.Router.updates_pending.calls_per_step"] = (
        pend[0] / steps[0] if steps[0] else 0.0, "ratio")
    out["engine.Router.updates_pending.true_share"] = (
        pend[3] / pend[0] if pend[0] else 0.0, "share")
    out["engine.Router.process_tc.accepted_share"] = (
        tc[3] / tc[0] if tc[0] else 0.0, "share")
    out["message_logs.entries_held"] = (traced[0].log_entries, "count")
    out["tracing_overhead"] = (
        statistics.median(p.normalised()[1] for p in traced)
        / statistics.median(p.normalised()[1] for p in plain), "ratio")
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--pin", action="store_true",
                    help="rewrite pinned.json from this run's outputs")
    args = ap.parse_args(argv)
    if args.pin and args.seed != DEFAULT_SEED:
        ap.error(f"--pin needs the default seed {DEFAULT_SEED}")

    start = perf_counter()
    pins = json.loads(PINNED.read_text()) if PINNED.is_file() else {}
    default = args.seed == DEFAULT_SEED and not args.pin
    pinned = pins.get("traces", {}).get(args.workload, {}) if default else {}
    ops = WORKLOADS[args.workload](args.seed)

    attempted = failed = 0
    demos = {}
    for fig in DEMOS:
        try:
            code, out = run_demo(fig)
        except Exception:  # a demo that raises is a failed operation
            code, out = None, traceback.format_exc()
        demos[fig] = {"exit": code, "stdout": out}
        attempted += 1
        if not args.pin and pins.get("demos", {}).get(fig) != demos[fig]:
            failed += 1
            print(f"error: demo {fig} output differs from pinned.json",
                  file=sys.stderr)

    tracer = layer_tracer() if args.trace else None
    passes: list = []
    setups: list = []
    rounds = 0
    while True:
        # set-up rounds spread over the run, so their median is not
        # taken from one stretch of host load
        setups += setup_rounds(ops, SETUP_ROUNDS)
        passes += run_round(ops, pinned, tracer)
        rounds += 1
        elapsed = perf_counter() - start
        if rounds < MIN_ROUNDS[args.trace]:
            continue
        if elapsed * (rounds + 1) / rounds > args.seconds:
            break

    failures = op_failures(passes)
    attempted += len(ops)
    failed += len(failures)
    plain = [p for p in passes if not p.traced]
    for name, reasons in failures.items():
        print(f"FAILED {name}: {'; '.join(reasons)}")
    if not all(p.ops for p in passes):
        sys.exit("error: a pass completed no scenario; nothing to measure")
    for name, sha in passes[0].shas.items():
        print(f"trace sha256 {name} {sha}")
    print(f"workload={args.workload} seed={args.seed} rounds={rounds}"
          f" scenarios/pass={len(ops)} ticks/pass={passes[0].ticks}"
          f" failed_share={failed}/{attempted}={failed / attempted:.4f}")
    if args.trace:
        metrics = per_layer(plain, [p for p in passes if p.traced])
    else:
        metrics = end_to_end(plain, setups, attempted, failed)
        pct = tail_pct(passes[0].ticks)
        lat = [dt for p in plain for dt in p.normalised()[0]]
        print(f"tick_ms_tail is p{pct:g} of the {len(lat)} ticks of"
              f" {len(plain)} passes ({tail(lat, pct)[1]} beyond it);"
              " run_s is the median over the passes")
        print("raw (unscaled) run_s median"
              f" {statistics.median(p.raw_s() for p in plain):.6g} s,"
              f" setup_s median {statistics.median(r for r, _ in setups):.6g}"
              " s")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")

    if args.pin:
        pins = {"seed": DEFAULT_SEED, "demos": demos,
                "traces": {**pins.get("traces", {}),
                           args.workload: passes[0].shas}}
        PINNED.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")

    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
