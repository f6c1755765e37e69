"""Scenario files and the olsrv2-sim command line.

Scenario grammar, one directive per line, `#` starts a comment:

    node <id>
    param <name> <int>            (or  param <node>.<name> <int>,
                                   for a per-router param)
    link <src> <dst> <metric> [bidi <metric>]
    at <tick> linkup <src> <dst> <metric>
    at <tick> linkdown <src> <dst>
    at <tick> metric <src> <dst> <metric>
    flag <name> on|off
    offset <id> hello <tick> tc <tick>

All numbers are decimal integers; infinities never appear in input.
The grammar is here; the rules of what each line may say, the library
states once in simnet's check_* functions, which both paths call.

Exit codes: 0 success (and true verdicts), 1 false verdict,
2 usage or parse or configuration error (an unwritable --trace file
among them), 3 non-convergence, 4 stdout closed by its reader.
"""
from __future__ import annotations

import argparse
import contextlib
import os
import re
import sys
from dataclasses import dataclass, field

from .checkers import (FIG1_SCENARIO, FIG2_SCENARIO, FIG3_SCENARIO,
                       check_route_optimality, count_tc_broadcasts,
                       default_window, render_optimality_report,
                       run_to_convergence)
from .engine import ConfigError, EngineDiagnostic
from .messages import Status, render_metric
from .simnet import (EVENT_KINDS, Network, ScenarioError, TopologyEvent,
                     build_network, check_event, check_flag, check_link,
                     check_node, check_offset, check_param, trace_batches)

_INT = re.compile(r"-?[0-9]+\Z")


@dataclass
class Scenario:
    nodes: tuple = ()
    params: dict = field(default_factory=dict)
    links: tuple = ()       # (src, dst, metric), one entry per direction
    events: tuple = ()      # TopologyEvent
    flags: dict = field(default_factory=dict)
    offsets: dict = field(default_factory=dict)  # node -> (hello, tc)


def parse_scenario(text: str) -> Scenario:
    nodes: list = []
    params: dict = {}
    links: list = []
    events: list = []
    flags: dict = {}
    offsets: dict = {}
    declared: set = set()
    linked: dict = {}       # src -> the dsts its link lines name so far

    def number(tok):  # the checks name a token that is no integer
        return int(tok) if _INT.match(tok) else tok

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        toks = line.split()
        kind, rest = toks[0], toks[1:]
        try:
            if kind == "node":
                if len(rest) != 1:
                    raise ScenarioError("usage: node <id>")
                check_node(rest[0], declared)
                declared.add(rest[0])
                nodes.append(rest[0])

            elif kind == "param":
                if len(rest) != 2:
                    raise ScenarioError("usage: param <name> <int>")
                value = number(rest[1])
                check_param(rest[0], value, declared)
                params[rest[0]] = value

            elif kind == "link":
                if len(rest) not in (3, 5) or (len(rest) == 5
                                               and rest[3] != "bidi"):
                    raise ScenarioError("usage: link <src> <dst> <metric>"
                                        " [bidi <metric>]")
                ends = [(rest[0], rest[1], number(rest[2]))]
                if len(rest) == 5:
                    ends.append((rest[1], rest[0], number(rest[4])))
                for a, b, m in ends:
                    dsts = linked.setdefault(a, set())
                    check_link(a, b, m, declared, dsts)
                    dsts.add(b)
                    links.append((a, b, m))

            elif kind == "at":
                if len(rest) not in (4, 5):
                    raise ScenarioError("usage: at <tick> <event> <src>"
                                        " <dst> [<metric>]")
                tick, ev, src, dst = rest[:4]
                arity = 4 if ev == "linkdown" else 5
                if ev in EVENT_KINDS and len(rest) != arity:
                    raise ScenarioError(f"usage: at <tick> {ev} <src> <dst>"
                                        + " <metric>" * (arity - 4))
                event = TopologyEvent(number(tick), ev, src, dst,
                                      *map(number, rest[4:]))
                check_event(event, declared)
                events.append(event)

            elif kind == "flag":
                if len(rest) != 2 or rest[1] not in ("on", "off"):
                    raise ScenarioError("usage: flag <name> on|off")
                check_flag(rest[0], rest[1] == "on")
                flags[rest[0]] = rest[1] == "on"

            elif kind == "offset":
                if (len(rest) != 5 or rest[1] != "hello" or rest[3] != "tc"):
                    raise ScenarioError(
                        "usage: offset <id> hello <tick> tc <tick>")
                ticks = (number(rest[2]), number(rest[4]))
                check_offset(rest[0], ticks, declared)
                offsets[rest[0]] = ticks

            else:
                raise ScenarioError(f"unknown directive {kind!r}")
        except ScenarioError as exc:
            raise ScenarioError(f"line {lineno}: {exc}") from None

    return Scenario(nodes=tuple(nodes), params=params, links=tuple(links),
                    events=tuple(events), flags=flags, offsets=offsets)


def render_scenario(s: Scenario) -> str:
    out = []
    for n in s.nodes:
        out.append(f"node {n}")
    for name, val in s.params.items():
        out.append(f"param {name} {val}")
    for name, val in s.flags.items():
        out.append(f"flag {name} {'on' if val else 'off'}")
    for src, dst, m in s.links:
        out.append(f"link {src} {dst} {m}")
    for n, (h, t) in s.offsets.items():
        out.append(f"offset {n} hello {h} tc {t}")
    for ev in s.events:
        if ev.kind == "linkdown":
            out.append(f"at {ev.time} linkdown {ev.src} {ev.dst}")
        else:
            out.append(f"at {ev.time} {ev.kind} {ev.src} {ev.dst}"
                       f" {ev.metric}")
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# command line
# ---------------------------------------------------------------------------

def _apply_cli_overrides(scenario: Scenario, args) -> Scenario:
    if args.seed is not None:
        scenario.params["seed"] = args.seed
    if args.ticks is not None:
        if args.ticks < 0:
            raise ScenarioError(f"--ticks must be >= 0, got {args.ticks}")
        scenario.params["ticks"] = args.ticks
    window = getattr(args, "window", None)
    if window is not None and window < 1:
        raise ScenarioError(f"--window must be >= 1, got {window}")
    if args.bug_rfc7181:
        scenario.flags["bug_rfc7181"] = True
    if args.flood_all:
        scenario.flags["flood_all"] = True
    return scenario


def _ticks(scenario: Scenario, default: int = 100) -> int:
    return scenario.params.get("ticks", default)


def _warn_late_events(scenario: Scenario, budget: int,
                      window: int = 0) -> None:
    """Name on stderr each event the tick budget never reaches, and,
    given check's window, each that leaves less than a window after."""
    for ev in scenario.events:
        what = f"warning: event at t={ev.time} ({ev.kind} {ev.src} {ev.dst})"
        if ev.time >= budget:
            print(f"{what} is at or after the tick budget {budget} and is"
                  " never applied", file=sys.stderr)
        elif ev.time > budget - window:
            print(f"{what} leaves fewer than {window} quiet ticks before the"
                  f" tick budget {budget}", file=sys.stderr)


def _open_trace(path):
    """The --trace file, opened before anything runs (or no file)."""
    if not path:
        return contextlib.nullcontext()
    try:
        return open(path, "w", encoding="utf-8")
    except OSError as exc:
        raise ScenarioError(f"cannot write trace {path}: {exc}") from exc


def _write_trace(net: Network, args) -> None:
    if args.trace:
        args.trace.writelines(trace_batches(net.trace))


def _cmd_run(args) -> int:
    scenario = _apply_cli_overrides(
        parse_scenario(_read(args.scenario)), args)
    net = build_network(scenario)
    budget = _ticks(scenario)
    _warn_late_events(scenario, budget)
    net.run(budget)
    (args.trace or sys.stdout).writelines(trace_batches(net.trace))
    return 0


def _cmd_check(args) -> int:
    scenario = _apply_cli_overrides(
        parse_scenario(_read(args.scenario)), args)
    net = build_network(scenario)
    if net.metric_noise:
        raise ScenarioError(
            "check compares routes with noiseless ground truth and cannot"
            f" judge a run with metric_noise {net.metric_noise};"
            " use run instead")
    window = args.window if args.window is not None else default_window(net)
    budget = _ticks(scenario, default=400)
    _warn_late_events(scenario, budget, window)
    report = run_to_convergence(net, window, budget)
    _write_trace(net, args)
    if not report.converged:
        print(f"error: no convergence within {report.observed_ticks} ticks"
              f" (window {window})", file=sys.stderr)
        return 3
    print(f"# converged t={report.tick} window={window}", file=sys.stderr)
    reports = check_route_optimality(net)
    for ip in sorted(reports):
        print(render_optimality_report(reports[ip]))
    return 0 if all(r.verdict for r in reports.values()) else 1


def _demo_fig1(args) -> int:
    scenario = _apply_cli_overrides(parse_scenario(FIG1_SCENARIO), args)
    flood_all = scenario.flags.get("flood_all", False)
    net = build_network(scenario)
    net.run(_ticks(scenario))
    _write_trace(net, args)
    count, coverage = count_tc_broadcasts(net.trace, "E", 0)
    expected = len(net.routers) if flood_all else 3
    mode = "flood_all" if flood_all else "selective (flooding MPRs)"
    print(f"fig1: one TC from E over a 3x3 grid, {mode}")
    print(f"broadcasts carrying the TC: {count} (expected {expected})")
    print(f"delivered to {len(coverage)}/{len(net.routers)} nodes:"
          f" {','.join(sorted(coverage))}")
    ok = count == expected and coverage == net.routers.keys()
    return 0 if ok else 1


def _demo_fig2(args) -> int:
    scenario = _apply_cli_overrides(parse_scenario(FIG2_SCENARIO), args)
    net = build_network(scenario)
    a, b, c = (net.routers[n] for n in ("A", "B", "C"))

    def status(router, oip):
        lt = router.ls.get(oip)
        return lt.status(router.now) if lt else None

    snaps = []
    for _ in range(_ticks(scenario)):
        net.run(1)
        snaps.append({
            "b_sees_a": status(b, "A"),
            "a_sees_b": status(a, "B"),
            "a_n2_c": ("B", "C") in a.twohop_set,
            "c_n2_a": ("B", "A") in c.twohop_set,
        })
    _write_trace(net, args)

    def deliver_tick(at_node, sender, nth):
        seen = 0
        for ev in net.trace:
            if (ev.kind == "DELIVER" and ev.node == at_node
                    and ev.payload[0] == sender):
                seen += 1
                if seen == nth:
                    return ev.tick
        return None

    t1 = deliver_tick("B", "A", 1)   # A's first HELLO lands at B
    t2 = deliver_tick("A", "B", 1)   # B's first HELLO lands at A
    t3a = deliver_tick("A", "B", 2)  # B's second HELLO lands at A
    t3c = deliver_tick("C", "B", 2)  # ... and at C
    panels = [
        ("after A's first HELLO, B holds a HEARD tuple for A", t1,
         t1 is not None and snaps[t1]["b_sees_a"] == Status.HEARD),
        ("after B's first HELLO, A holds a SYMMETRIC tuple for B", t2,
         t2 is not None and snaps[t2]["a_sees_b"] == Status.SYMMETRIC),
        ("after B's second HELLO, A holds a 2-hop tuple for C via B", t3a,
         t3a is not None and snaps[t3a]["a_n2_c"]),
        ("after B's second HELLO, C holds a 2-hop tuple for A via B", t3c,
         t3c is not None and snaps[t3c]["c_n2_a"]),
    ]
    print("fig2: staggered HELLO exchange on the chain A - B - C")
    ok = True
    for text, tick, held in panels:
        mark = "ok" if held else "FAIL"
        print(f"  [{mark}] t={tick}: {text}")
        ok = ok and held
    return 0 if ok else 1


def _fig3_one_mode(args, bug: bool):
    scenario = _apply_cli_overrides(parse_scenario(FIG3_SCENARIO), args)
    scenario.flags["bug_rfc7181"] = bug
    net = build_network(scenario)
    window = args.window if args.window is not None else default_window(net)
    conv = run_to_convergence(net, window, _ticks(scenario))
    if not conv.converged:
        return None
    d_rmprs = sorted(oip for oip, lt in net.routers["D"].ls.items()
                     if lt.rmpr)
    route = net.routers["S"].rs.get("D")
    reports = check_route_optimality(net)
    return {
        "net": net,
        "d_rmprs": d_rmprs,
        "route": route,
        "reports": reports,
        "verdict": all(r.verdict for r in reports.values()),
    }


def _demo_fig3(args) -> int:
    results = {}
    for label, bug in (("corrected", False), ("rfc7181", True)):
        r = _fig3_one_mode(args, bug)
        if r is None:
            print(f"error: {label} run did not converge", file=sys.stderr)
            return 3
        results[label] = r

    print("fig3: which metric direction feeds routing-MPR selection")
    print(f"{'mode':<11}{'D routing MPRs':<17}{'S->D route':<16}"
          "all routes optimal")
    for label, r in results.items():
        mprs = "{" + ",".join(r["d_rmprs"]) + "}"
        rt = r["route"]
        route = (f"via {rt.next_hop} m={render_metric(rt.metric)}"
                 if rt else "none")
        verdict = "true" if r["verdict"] else "false"
        print(f"{label:<11}{mprs:<17}{route:<16}{verdict}")
    for rep in results["rfc7181"]["reports"].values():
        if not rep.verdict:
            print("  " + render_optimality_report(rep))

    active = "rfc7181" if args.bug_rfc7181 else "corrected"
    _write_trace(results[active]["net"], args)
    return 0 if results[active]["verdict"] else 1


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario {path}: {exc}") from exc


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="olsrv2-sim",
        description="deterministic discrete-time OLSRv2 simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, scenario_required, window=False):
        if scenario_required:
            p.add_argument("--scenario", required=True,
                           help="scenario file to execute")
        p.add_argument("--ticks", type=int, default=None,
                       help="override the scenario's tick budget")
        p.add_argument("--seed", type=int, default=None,
                       help="override the scenario's RNG seed")
        p.add_argument("--trace", default=None,
                       help="write the event trace to this file")
        p.add_argument("--bug-rfc7181", action="store_true",
                       dest="bug_rfc7181",
                       help="use the outgoing-metric reading of"
                            " RFC 7181 section 18.5")
        p.add_argument("--flood-all", action="store_true", dest="flood_all",
                       help="classical flooding instead of MPR flooding")
        if window:  # only the commands that run to convergence read it
            p.add_argument("--window", type=int, default=None,
                           help="quiet ticks before declaring convergence")

    p_run = sub.add_parser("run", help="execute a scenario, emit the trace")
    common(p_run, scenario_required=True)
    p_check = sub.add_parser(
        "check", help="run to convergence, report route optimality")
    common(p_check, scenario_required=True, window=True)
    p_demo = sub.add_parser("demo", help="run a built-in reference scenario")
    figures = p_demo.add_subparsers(dest="figure", required=True)
    for fig in ("fig1", "fig2", "fig3"):
        common(figures.add_parser(fig), scenario_required=False,
               window=fig == "fig3")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    name = args.figure if args.command == "demo" else args.command
    command = {"run": _cmd_run, "check": _cmd_check, "fig1": _demo_fig1,
               "fig2": _demo_fig2, "fig3": _demo_fig3}[name]
    try:
        with _open_trace(args.trace) as args.trace:
            return command(args)
    except (ScenarioError, ConfigError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except EngineDiagnostic as exc:
        print(f"diagnostic: {exc}", file=sys.stderr)
        return 3
    except BrokenPipeError:
        # the reader left: the flush at exit goes to devnull, not raises
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 4


if __name__ == "__main__":
    sys.exit(main())
