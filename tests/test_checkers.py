"""Trace analysis: ground-truth shortest paths, flood counting, convergence."""
import random
from types import SimpleNamespace

from olsrv2sim.checkers import (FIG1_SCENARIO, FIG2_SCENARIO, FIG3_SCENARIO,
                                OptimalityReport, check_route_optimality,
                                count_tc_broadcasts, default_window,
                                detect_convergence,
                                ground_truth_shortest_paths,
                                render_optimality_report, run_to_convergence,
                                symmetric_universe)
from olsrv2sim.cli import Scenario, parse_scenario
from olsrv2sim.messages import Hello, Tc
from olsrv2sim.simnet import TraceEvent, build_network
from olsrv2sim.topology import Route

import oracles


def test_symmetric_universe_drops_one_way_links():
    gt = SimpleNamespace(metric={("a", "b"): 2, ("b", "a"): 7,
                                 ("a", "c"): 1})
    assert symmetric_universe(gt) == {("a", "b"): 2, ("b", "a"): 7}


def test_ground_truth_shortest_paths_small_case():
    gt = SimpleNamespace(metric={("a", "b"): 2, ("b", "a"): 7,
                                 ("b", "c"): 1, ("c", "b"): 1,
                                 ("a", "x"): 1})  # x unreachable (one-way)
    assert ground_truth_shortest_paths(gt, "a") == {"b": 2, "c": 3}


def test_ground_truth_shortest_paths_vs_enumeration():
    rng = random.Random(0xCAFE)
    for _ in range(500):
        n = rng.randint(2, 8)
        names = [f"r{i}" for i in range(n)]
        metric = {}
        for u in names:
            for v in names:
                if u != v and rng.random() < 0.25:
                    metric[(u, v)] = rng.randint(1, 9)
        gt = SimpleNamespace(metric=metric)
        src = rng.choice(names)
        want = {d: m for d, m in
                oracles.simple_path_dists(symmetric_universe(gt), src).items()
                if d != src and m != float("inf")}
        assert ground_truth_shortest_paths(gt, src) == want


def test_render_optimality_report_frozen():
    rep = OptimalityReport(node="s", verdict=False, missing=("x", "y"),
                           suboptimal=(("d", 7, 6),))
    assert render_optimality_report(rep) == \
        "OPT n=s verdict=false missing={x,y} subopt={(d,7,6)}"
    ok = OptimalityReport(node="s", verdict=True, missing=(), suboptimal=())
    assert render_optimality_report(ok) == \
        "OPT n=s verdict=true missing={} subopt={}"


def two_node_net(**kw):
    params = {"lb": 1, "delta_b": 0, "hp_maxjitter": 3, "tp_maxjitter": 3,
              "hello_interval": 8, "h_hold_time": 12, "tc_interval": 12,
              "t_hold_time": 30, "seed": 3}
    params.update(kw.pop("params", {}))
    s = Scenario(nodes=("a", "b"), params=params,
                 links=kw.pop("links", (("a", "b", 5), ("b", "a", 2))))
    return build_network(s)


def test_check_route_optimality_classifies():
    net = two_node_net()
    net.routers["a"].rs = {}
    net.routers["b"].rs = {"a": Route("a", "a", 9)}
    reports = check_route_optimality(net)
    assert reports["a"].missing == ("b",) and not reports["a"].verdict
    assert reports["b"].suboptimal == (("a", 9, 2),)
    net.routers["a"].rs = {"b": Route("b", "b", 5)}
    net.routers["b"].rs = {"a": Route("a", "a", 2)}
    reports = check_route_optimality(net)
    assert all(r.verdict for r in reports.values())


def test_count_tc_broadcasts_synthetic():
    the_tc = Tc("e", "e", 9, seq=4, ansn=0, dests={})
    other = Tc("e", "e", 9, seq=5, ansn=0, dests={})
    hello = Hello("a", 9, {}, {}, {}, {})
    to_b, to_d = frozenset({"b"}), frozenset({"d"})
    trace = [
        TraceEvent(1, "e", "BROADCAST", (1, to_b), packet=[hello, the_tc]),
        TraceEvent(2, "b", "DELIVER", ("e", 1), packet=[hello, the_tc]),
        TraceEvent(2, "d", "DELIVER", ("e", 1), packet=[the_tc]),
        TraceEvent(3, "b", "BROADCAST", (1, to_d), packet=[the_tc]),
        TraceEvent(4, "d", "DELIVER", ("b", 1), packet=[the_tc]),  # twice
        TraceEvent(4, "e", "DELIVER", ("b", 1), packet=[other]),   # wrong seq
        TraceEvent(5, "x", "BROADCAST", (1, to_d), packet=[hello]),  # no TC
        TraceEvent(5, "q", "HELLO_GEN", hello),
    ]
    count, coverage = count_tc_broadcasts(trace, "e", 4)
    assert count == 2
    assert coverage == {"b", "d"}
    assert count_tc_broadcasts(trace, "zz", 4) == (0, set())


def rc(tick):
    return TraceEvent(tick, "a", "ROUTE_CHANGE", ())


def test_detect_convergence_edges():
    rep = detect_convergence([], window=10, total_ticks=10)
    assert rep.converged and rep.tick == 0
    rep = detect_convergence([], window=10, total_ticks=9)
    assert not rep.converged and rep.tick is None
    rep = detect_convergence([rc(5)], window=10, total_ticks=15)
    assert rep.converged and rep.tick == 5 and rep.observed_ticks == 15
    rep = detect_convergence([rc(5), rc(2)], window=10, total_ticks=14)
    assert not rep.converged


def test_default_window():
    net = two_node_net(params={"b.tc_interval": 40, "b.t_hold_time": 60})
    assert default_window(net) == 40 + 3


def test_run_to_convergence_quiet_scenario_uses_full_budget():
    net = two_node_net(links=())
    rep = run_to_convergence(net, window=10, budget=30)
    assert net.clock == 30
    assert rep.converged and rep.tick == 0 and rep.observed_ticks == 30


def test_run_to_convergence_early_exit():
    net = two_node_net()
    rep = run_to_convergence(net, window=20, budget=400)
    assert rep.converged and rep.tick is not None and rep.tick > 0
    assert net.clock < 400
    assert net.clock >= rep.tick + 20


def test_reference_scenarios_parse_and_build():
    for text in (FIG1_SCENARIO, FIG2_SCENARIO, FIG3_SCENARIO):
        build_network(parse_scenario(text))
