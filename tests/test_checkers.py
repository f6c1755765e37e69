"""Trace analysis: ground-truth shortest paths, flood counting, convergence."""
import random

import pytest
from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st

from olsrv2sim.checkers import (FIG1_SCENARIO, FIG2_SCENARIO, FIG3_SCENARIO,
                                OptimalityReport, check_route_optimality,
                                count_tc_broadcasts, default_window,
                                detect_convergence,
                                ground_truth_shortest_paths,
                                render_optimality_report, run_to_convergence,
                                symmetric_universe)
from olsrv2sim.cli import Scenario, parse_scenario
from olsrv2sim.messages import NEG_INF, Hello, Tc
from olsrv2sim.simnet import TopologyEvent, TraceEvent, build_network
from olsrv2sim.topology import Route

import oracles
from test_engine import churn_events


def test_symmetric_universe_drops_one_way_links():
    out = {"a": {"b": 2, "c": 1}, "b": {"a": 7}}
    assert symmetric_universe(out) == {"a": {"b": 2}, "b": {"a": 7}}


def test_ground_truth_shortest_paths_small_case():
    out = {"a": {"b": 2, "x": 1}, "b": {"a": 7, "c": 1},
           "c": {"b": 1}}  # x unreachable (one-way)
    assert ground_truth_shortest_paths(symmetric_universe(out), "a") == {
        "b": 2, "c": 3}


def test_ground_truth_shortest_paths_vs_enumeration():
    rng = random.Random(0xCAFE)
    for _ in range(500):
        n = rng.randint(2, 8)
        names = [f"r{i}" for i in range(n)]
        out = {}
        for u in names:
            for v in names:
                if u != v and rng.random() < 0.25:
                    out.setdefault(u, {})[v] = rng.randint(1, 9)
        universe = symmetric_universe(out)
        src = rng.choice(names)
        want = {d: m for d, m in
                oracles.simple_path_dists(universe, src).items()
                if d != src and m != float("inf")}
        assert ground_truth_shortest_paths(universe, src) == want


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
                 links=kw.pop("links", (("a", "b", 5), ("b", "a", 2))),
                 events=kw.pop("events", ()))
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
    the_tc = Tc("e", 9, seq=4, ansn=0, dests={})
    other = Tc("e", 9, seq=5, ansn=0, dests={})
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
    # with no event, the routers' record and the trace give one verdict
    assert rep == detect_convergence(net.trace, 20, net.clock)


def test_run_to_convergence_waits_for_the_last_event():
    """A network quiet long before its last event within the budget is
    judged from that event: the window counts from the later of the
    last route change and the last event, and an event too close to the
    budget's end leaves the run unconverged, also when no route has
    changed by the budget (linkless, the links coming up at t=395: the
    first route change would come at t=402). An event at the budget or
    later never applies and is not waited for."""
    for at, budget, converged, linkless in (
            (150, 400, True, False), (390, 400, False, False),
            (400, 400, True, False), (150, 400, True, True),
            (390, 400, False, True), (395, 400, False, True)):
        if linkless:
            net = two_node_net(links=(), events=(
                TopologyEvent(at, "linkup", "a", "b", 1),
                TopologyEvent(at, "linkup", "b", "a", 1)))
        else:
            net = two_node_net(
                events=(TopologyEvent(at, "metric", "a", "b", 3),))
        rep = run_to_convergence(net, window=20, budget=budget)
        assert rep.converged == converged, at
        if at < budget:
            assert net.clock >= min(at + 20, budget)
        else:
            assert net.clock < 100
        if converged:
            assert net.clock >= rep.tick + 20
            assert not linkless or rep.tick > at  # the links made routes
        else:
            assert rep.tick is None and net.clock == budget


# no shrinking: a smaller seed is no simpler network
@settings(max_examples=25, deadline=None,
          phases=(Phase.explicit, Phase.reuse, Phase.generate))
@given(seed=st.integers(0, 2**32 - 1), n_nodes=st.integers(4, 8))
# runs whose last route change (t=201, 193 and 203) comes past the last
# event plus h_hold_time + t_hold_time, which bounds a lost link only
@example(seed=599599, n_nodes=4)
@example(seed=10861375, n_nodes=4)
@example(seed=12128415, n_nodes=4)
def test_churn_reconverges_to_ground_truth(seed, n_nodes):
    """After link churn and metric changes, the last route change comes
    within each event's bound (oracles.reconvergence_bounds) of that
    event, and the routes then equal ground-truth shortest paths at
    every router."""
    rng = random.Random(seed)
    s = oracles.random_connected_scenario(rng, n_nodes, seed=seed,
                                          ticks=200)
    s.events = churn_events(rng, [(u, v) for u, v, _ in s.links], 200)
    net = build_network(s)
    bound = oracles.last_change_bound(net)
    conv = run_to_convergence(net, window=50, budget=bound + 50)
    assert conv.converged
    assert max(ev.tick for ev in net.trace
               if ev.kind == "ROUTE_CHANGE") <= bound
    # run_to_convergence reads each router's record of its last change
    for ip, router in net.routers.items():
        assert router.last_route_change == max(
            (ev.tick for ev in net.trace
             if ev.kind == "ROUTE_CHANGE" and ev.node == ip),
            default=NEG_INF), ip
    universe = symmetric_universe(net.out)
    for ip, router in net.routers.items():
        assert {r.dest: r.metric for r in router.rs.values()} == (
            ground_truth_shortest_paths(universe, ip)), ip


@pytest.mark.parametrize("kind,seed", [("linkdown", 540), ("raise", 141)])
def test_shorter_reconvergence_bounds_fail(kind, seed):
    """Witnesses that two shorter bounds do not hold, on 3 routers with
    one event at t=120 on the scenario's first link:
    - a linkdown's h_hold_time + t_hold_time covers the lost link
      leaving every set, but not the MPR selections made once the 2-hop
      tuples through it lapse, nor the TCs that then advertise others;
    - a raise's tc_interval plus the flood covers the next TC, but the
      new metric reaches the end that advertises it only through the
      far end's HELLO.
    The last route change comes past each, within the derived bound,
    and the routes end at ground truth."""
    rng = random.Random(seed)
    s = oracles.random_connected_scenario(rng, 3, seed=seed, ticks=320)
    u, v, m = s.links[0]
    s.events = ((TopologyEvent(120, "linkdown", u, v),) if kind == "linkdown"
                else (TopologyEvent(120, "metric", u, v, m + 8),))
    net = build_network(s)
    net.run(320)
    gap = max(ev.tick for ev in net.trace if ev.kind == "ROUTE_CHANGE") - 120
    cfg, hop = net.routers[u].cfg, 2 * (net.params.lb + net.params.delta_b) + 1
    shorter = (cfg.h_hold_time + cfg.t_hold_time if kind == "linkdown"
               else cfg.tc_interval + 2 * hop)
    bound = oracles.reconvergence_bounds(net)[
        "linkdown" if kind == "linkdown" else "metric"]
    assert shorter < gap <= bound
    universe = symmetric_universe(net.out)
    for ip, router in net.routers.items():
        assert {r.dest: r.metric for r in router.rs.values()} == (
            ground_truth_shortest_paths(universe, ip)), ip


def test_reference_scenarios_parse_and_build():
    for text in (FIG1_SCENARIO, FIG2_SCENARIO, FIG3_SCENARIO):
        build_network(parse_scenario(text))
