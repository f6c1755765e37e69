"""Scenario files and the olsrv2-sim command line.

Scenario grammar, one directive per line, `#` starts a comment:

    node <id>
    param <name> <int>            (or  param <node>.<name> <int>)
    link <src> <dst> <metric> [bidi <metric>]
    at <tick> linkup <src> <dst> <metric>
    at <tick> linkdown <src> <dst>
    at <tick> metric <src> <dst> <metric>
    flag <name> on|off
    offset <id> hello <tick> tc <tick>

All numbers are decimal integers; infinities never appear in input.
Node ids must be declared before use and match [A-Za-z0-9_-]+. Event
ticks and the ticks and metric_noise params are non-negative, and each
directed link is declared once.

Exit codes: 0 success (and true verdicts), 1 false verdict,
2 usage or parse or configuration error, 3 non-convergence.
"""
from __future__ import annotations

import argparse
import re
import sys
from dataclasses import dataclass, field

from .checkers import (FIG1_SCENARIO, FIG2_SCENARIO, FIG3_SCENARIO,
                       check_route_optimality, count_tc_broadcasts,
                       default_window, render_optimality_report,
                       run_to_convergence)
from .engine import ConfigError, EngineDiagnostic
from .messages import Status, render_metric
from .simnet import Network, ScenarioError, TopologyEvent, build_network

_ID = re.compile(r"[A-Za-z0-9_-]+\Z")
_INT = re.compile(r"-?[0-9]+\Z")

PARAM_NAMES = frozenset({
    "lb", "delta_b", "seed", "ticks", "metric_noise",
    "hp_maxjitter", "tp_maxjitter", "hello_interval", "tc_interval",
    "h_hold_time", "t_hold_time", "l_hold_time",
})
FLAG_NAMES = frozenset({"bug_rfc7181", "flood_all",
                        "process_tc_from_unknown"})


@dataclass
class Scenario:
    nodes: tuple = ()
    params: dict = field(default_factory=dict)
    links: tuple = ()       # (src, dst, metric), one entry per direction
    events: tuple = ()      # TopologyEvent
    flags: dict = field(default_factory=dict)
    offsets: dict = field(default_factory=dict)  # node -> (hello, tc)


def _fail(lineno: int, msg: str):
    raise ScenarioError(f"line {lineno}: {msg}")


def parse_scenario(text: str) -> Scenario:
    nodes: list = []
    params: dict = {}
    links: list = []
    events: list = []
    flags: dict = {}
    offsets: dict = {}
    declared: set = set()
    linked: set = set()     # (src, dst) of every link line so far

    def want_int(tok, lineno, what):
        if not _INT.match(tok):
            _fail(lineno, f"{what} must be a decimal integer, got {tok!r}")
        return int(tok)

    def want_node(tok, lineno):
        if tok not in declared:
            _fail(lineno, f"undeclared node {tok!r}")
        return tok

    def want_metric(tok, lineno):
        m = want_int(tok, lineno, "metric")
        if m < 1:
            _fail(lineno, f"metric must be >= 1, got {m}")
        return m

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        toks = line.split()
        kind, rest = toks[0], toks[1:]

        if kind == "node":
            if len(rest) != 1:
                _fail(lineno, "usage: node <id>")
            nid = rest[0]
            if not _ID.match(nid):
                _fail(lineno, f"bad node id {nid!r}")
            if nid in declared:
                _fail(lineno, f"duplicate node id: {nid}")
            declared.add(nid)
            nodes.append(nid)

        elif kind == "param":
            if len(rest) != 2:
                _fail(lineno, "usage: param <name> <int>")
            name = rest[0]
            base = name.split(".", 1)[1] if "." in name else name
            if base not in PARAM_NAMES:
                _fail(lineno, f"unknown param {base!r}")
            if "." in name:
                want_node(name.split(".", 1)[0], lineno)
            params[name] = want_int(rest[1], lineno, f"param {name}")
            if base in ("ticks", "metric_noise") and params[name] < 0:
                _fail(lineno, f"param {name} must be >= 0, got {params[name]}")

        elif kind == "link":
            if len(rest) not in (3, 5) or (len(rest) == 5
                                           and rest[3] != "bidi"):
                _fail(lineno, "usage: link <src> <dst> <metric>"
                              " [bidi <metric>]")
            src = want_node(rest[0], lineno)
            dst = want_node(rest[1], lineno)
            if src == dst:
                _fail(lineno, f"self-loop link on {src}")
            ends = [(src, dst, rest[2])]
            if len(rest) == 5:
                ends.append((dst, src, rest[4]))
            for a, b, m in ends:
                if (a, b) in linked:
                    _fail(lineno, f"duplicate link {a}->{b}")
                linked.add((a, b))
                links.append((a, b, want_metric(m, lineno)))

        elif kind == "at":
            if len(rest) < 2:
                _fail(lineno, "usage: at <tick> <event> ...")
            tick = want_int(rest[0], lineno, "tick")
            if tick < 0:
                _fail(lineno, f"event tick must be >= 0, got {tick}")
            ev, args = rest[1], rest[2:]
            if ev in ("linkup", "metric"):
                if len(args) != 3:
                    _fail(lineno, f"usage: at <tick> {ev} <src> <dst>"
                                  " <metric>")
                events.append(TopologyEvent(
                    tick, ev, want_node(args[0], lineno),
                    want_node(args[1], lineno),
                    want_metric(args[2], lineno)))
            elif ev == "linkdown":
                if len(args) != 2:
                    _fail(lineno, "usage: at <tick> linkdown <src> <dst>")
                events.append(TopologyEvent(
                    tick, ev, want_node(args[0], lineno),
                    want_node(args[1], lineno)))
            else:
                _fail(lineno, f"unknown event kind {ev!r}")

        elif kind == "flag":
            if len(rest) != 2 or rest[1] not in ("on", "off"):
                _fail(lineno, "usage: flag <name> on|off")
            if rest[0] not in FLAG_NAMES:
                _fail(lineno, f"unknown flag {rest[0]!r}")
            flags[rest[0]] = rest[1] == "on"

        elif kind == "offset":
            if (len(rest) != 5 or rest[1] != "hello" or rest[3] != "tc"):
                _fail(lineno, "usage: offset <id> hello <tick> tc <tick>")
            nid = want_node(rest[0], lineno)
            offsets[nid] = (want_int(rest[2], lineno, "hello offset"),
                            want_int(rest[4], lineno, "tc offset"))

        else:
            _fail(lineno, f"unknown directive {kind!r}")

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
    if getattr(args, "bug_rfc7181", False):
        scenario.flags["bug_rfc7181"] = True
    if getattr(args, "flood_all", False):
        scenario.flags["flood_all"] = True
    return scenario


def _ticks(scenario: Scenario, default: int = 100) -> int:
    return scenario.params.get("ticks", default)


def _warn_late_events(scenario: Scenario, budget: int) -> None:
    """Name on stderr each event the tick budget never reaches."""
    for ev in scenario.events:
        if ev.time >= budget:
            print(f"warning: event at t={ev.time} ({ev.kind} {ev.src}"
                  f" {ev.dst}) is at or after the tick budget {budget}"
                  " and is never applied", file=sys.stderr)


def _write_trace(net: Network, args) -> None:
    if args.trace:
        with open(args.trace, "w", encoding="utf-8") as fh:
            fh.writelines(net.trace_lines())


def _cmd_run(args) -> int:
    scenario = _apply_cli_overrides(
        parse_scenario(_read(args.scenario)), args)
    net = build_network(scenario)
    budget = _ticks(scenario)
    _warn_late_events(scenario, budget)
    net.run(budget)
    if args.trace:
        _write_trace(net, args)
    else:
        sys.stdout.writelines(net.trace_lines())
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
    _warn_late_events(scenario, budget)
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


def _cmd_demo(args) -> int:
    if args.figure == "fig1":
        return _demo_fig1(args)
    if args.figure == "fig2":
        return _demo_fig2(args)
    return _demo_fig3(args)


def _demo_fig1(args) -> int:
    scenario = _apply_cli_overrides(parse_scenario(FIG1_SCENARIO), args)
    flood_all = scenario.flags.get("flood_all", False)
    net = build_network(scenario)
    net.run(_ticks(scenario))
    _write_trace(net, args)
    count, coverage = count_tc_broadcasts(net.trace, "E", 0)
    expected = len(net.gt.nodes) if flood_all else 3
    mode = "flood_all" if flood_all else "selective (flooding MPRs)"
    print(f"fig1: one TC from E over a 3x3 grid, {mode}")
    print(f"broadcasts carrying the TC: {count} (expected {expected})")
    print(f"delivered to {len(coverage)}/{len(net.gt.nodes)} nodes:"
          f" {','.join(sorted(coverage))}")
    ok = count == expected and coverage == net.gt.nodes
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
        net.tick()
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

    active = "rfc7181" if getattr(args, "bug_rfc7181", False) else "corrected"
    if args.trace:
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

    def common(p, scenario_required):
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
        p.add_argument("--window", type=int, default=None,
                       help="quiet ticks required to declare convergence")

    p_run = sub.add_parser("run", help="execute a scenario, emit the trace")
    common(p_run, scenario_required=True)
    p_check = sub.add_parser(
        "check", help="run to convergence, report route optimality")
    common(p_check, scenario_required=True)
    p_demo = sub.add_parser("demo", help="run a built-in reference scenario")
    p_demo.add_argument("figure", choices=("fig1", "fig2", "fig3"))
    common(p_demo, scenario_required=False)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "check":
            return _cmd_check(args)
        return _cmd_demo(args)
    except (ScenarioError, ConfigError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except EngineDiagnostic as exc:
        print(f"diagnostic: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
