"""End-to-end acceptance checks.

Each test prints one pass/fail line (run pytest with -s to see them all)
and asserts the same condition, so the suite is green exactly when
every criterion holds. Criteria 1-3 pin the three reference scenarios,
4-8 are statistical or structural properties of the whole stack.
"""
import random
import time

from olsrv2sim.checkers import (FIG1_SCENARIO, FIG2_SCENARIO, FIG3_SCENARIO,
                                check_route_optimality, count_tc_broadcasts,
                                default_window, ground_truth_shortest_paths,
                                run_to_convergence)
from olsrv2sim.cli import parse_scenario
from olsrv2sim.engine import Router
from olsrv2sim.messages import Status
from olsrv2sim.neighborhood import (choose_fmprs, choose_rmprs,
                                    is_valid_fmpr_set, is_valid_rmpr_set)
from olsrv2sim.simnet import build_network

import oracles
from test_neighborhood import valid_family

NOW = 100


def report(ok: bool, label: str) -> None:
    print(("✓ " if ok else "✗ ") + label)
    assert ok, label


def test_acceptance_1_metric_direction_counterexample():
    """Reading the outgoing metric in routing-MPR selection breaks routes."""
    t0 = time.monotonic()
    got = {}
    for bug in (False, True):
        s = parse_scenario(FIG3_SCENARIO)
        s.flags["bug_rfc7181"] = bug
        net = build_network(s)
        conv = run_to_convergence(net, default_window(net),
                                  s.params["ticks"])
        assert conv.converged
        d_rmprs = {oip for oip, lt in net.routers["D"].ls.items() if lt.rmpr}
        route = net.routers["S"].rs["D"]
        verdict = all(r.verdict
                      for r in check_route_optimality(net).values())
        got[bug] = (d_rmprs, route.metric, verdict)
    elapsed = time.monotonic() - t0
    ok = (got[False] == ({"B"}, 6, True)
          and got[True] == ({"C"}, 7, False)
          and elapsed < 1.0)
    report(ok, "1. wrong metric direction flips D's routing MPR {B}->{C}"
               f" and S->D cost 6->7, breaking optimality"
               f" (corrected={got[False]}, bugged={got[True]},"
               f" {elapsed:.2f}s)")


def test_acceptance_2_flooding_reduction():
    """One TC crosses the 3x3 grid in 3 broadcasts instead of 9."""
    t0 = time.monotonic()
    counts = {}
    for flood_all in (False, True):
        s = parse_scenario(FIG1_SCENARIO)
        if flood_all:
            s.flags["flood_all"] = True
        net = build_network(s)
        net.run(s.params["ticks"])
        count, coverage = count_tc_broadcasts(net.trace, "E", 0)
        assert coverage == net.gt.nodes, (flood_all, coverage)
        counts[flood_all] = count
    elapsed = time.monotonic() - t0
    ok = counts == {False: 3, True: 9} and elapsed < 5.0
    report(ok, "2. E's TC reaches all 9 grid nodes: 3 broadcasts with"
               f" flooding MPRs, 9 with classical flooding (got"
               f" {counts[False]}/{counts[True]}, {elapsed:.2f}s)")


def test_acceptance_3_hello_exchange_stages():
    """HEARD, then SYMMETRIC, then 2-hop knowledge, at delivery ticks."""
    s = parse_scenario(FIG2_SCENARIO)
    net = build_network(s)
    a, b, c = (net.routers[n] for n in ("A", "B", "C"))
    snaps = []
    for _ in range(s.params["ticks"]):
        net.tick()
        snaps.append({
            "b_sees_a": (b.ls["A"].status(b.now) if "A" in b.ls else None),
            "a_sees_b": (a.ls["B"].status(a.now) if "B" in a.ls else None),
            "a_n2_c": ("B", "C") in a.twohop_set,
            "c_n2_a": ("B", "A") in c.twohop_set,
        })

    def deliver_tick(at_node, sender, nth):
        seen = 0
        for ev in net.trace:
            if (ev.kind == "DELIVER" and ev.node == at_node
                    and ev.payload[0] == sender):
                seen += 1
                if seen == nth:
                    return ev.tick
        return None

    t1 = deliver_tick("B", "A", 1)
    t2 = deliver_tick("A", "B", 1)
    t3a = deliver_tick("A", "B", 2)
    t3c = deliver_tick("C", "B", 2)
    stages = [
        t1 is not None and snaps[t1]["b_sees_a"] == Status.HEARD,
        t2 is not None and snaps[t2]["a_sees_b"] == Status.SYMMETRIC,
        t3a is not None and snaps[t3a]["a_n2_c"],
        t3c is not None and snaps[t3c]["c_n2_a"],
    ]
    report(all(stages),
           "3. chain HELLO exchange: B hears A, the A-B link turns"
           " symmetric, then A and C learn of each other through B"
           f" (delivery ticks {t1}/{t2}/{t3a}/{t3c})")


def test_acceptance_4_random_scenarios_reach_ground_truth():
    """Converged routing equals ground-truth shortest paths, everywhere."""
    t0 = time.monotonic()
    rng = random.Random(20260817)
    n_scenarios = 200
    for i in range(n_scenarios):
        s = oracles.random_connected_scenario(rng, rng.randint(4, 10),
                                              seed=1000 + i)
        net = build_network(s)
        # The steady-state refresh bound (tc_interval + tp_maxjitter = 15)
        # is too short while selector sets are still bootstrapping: early
        # TCs are empty and unforwarded, so >15 quiet ticks can pass with
        # multi-hop routes still missing. 50 comfortably exceeds any gap
        # between route-changing deliveries during the transient.
        conv = run_to_convergence(net, window=50, budget=400)
        assert conv.converged, f"scenario {i} did not converge"
        for ip in sorted(net.routers):
            oracle = ground_truth_shortest_paths(net.gt, ip)
            found = {r.dest: r.metric
                     for r in net.routers[ip].rs.values()}
            assert found == oracle, (
                f"scenario {i}, router {ip}: {found} != {oracle}")
    elapsed = time.monotonic() - t0
    ok = elapsed < 120.0
    report(ok, f"4. {n_scenarios} random connected scenarios (4-10 routers,"
               " asymmetric metrics) all converge to exact ground-truth"
               f" shortest paths at every router ({elapsed:.1f}s)")


def test_acceptance_5_mpr_selection_against_enumeration():
    """Greedy choice always lies in the independently recomputed family."""
    rng = random.Random(0xACC5)
    n_cases = 500
    for _ in range(n_cases):
        ls, ths = oracles.random_neighborhood(rng, max_n1=6, now=NOW)
        ref = oracles.ref_all_valid(ls, ths, NOW, "fmpr")
        assert valid_family(is_valid_fmpr_set, ls, ths) == ref
        assert choose_fmprs(ls, ths, NOW) in ref
        for bug in (False, True):
            ref = oracles.ref_all_valid(ls, ths, NOW, "rmpr", bug)
            assert valid_family(is_valid_rmpr_set, ls, ths, bug) == ref
            assert choose_rmprs(ls, ths, NOW, bug) in ref
    report(True, f"5. {n_cases} random neighborhoods: the subsets of N1 the"
                 " library's validity test accepts match an independent"
                 " reference family, and the greedy"
                 " choice is always a member (both flavours, both metric"
                 " directions)")


EVENTFUL_SCENARIO = """
node a
node b
node c
node d
link a b 2 bidi 3
link b c 1 bidi 1
link c d 4 bidi 2
link d a 1 bidi 5
at 100 linkdown b c
at 100 linkdown c b
at 160 linkup b c 2
at 160 linkup c b 2
at 200 metric a b 7
param lb 1
param delta_b 1
param hp_maxjitter 3
param hello_interval 8
param h_hold_time 12
param tp_maxjitter 3
param tc_interval 12
param t_hold_time 26
param l_hold_time 10
param seed 41
param ticks 240
"""


def test_acceptance_6_consistency_after_every_update():
    """updates_pending() is false after every single maintenance pass."""
    calls = 0
    orig = Router.run_update_info

    def checked(self):
        nonlocal calls
        orig(self)
        assert not self.updates_pending(), \
            f"router {self.ip} still inconsistent at t={self.now}"
        calls += 1

    Router.run_update_info = checked
    try:
        for text, bug in ((FIG3_SCENARIO, False), (FIG3_SCENARIO, True),
                          (FIG2_SCENARIO, False), (EVENTFUL_SCENARIO, False)):
            s = parse_scenario(text)
            s.flags["bug_rfc7181"] = bug
            net = build_network(s)
            net.run(min(s.params["ticks"], 240))
        rng = random.Random(6)
        for i in range(3):
            s = oracles.random_connected_scenario(rng, 5, seed=600 + i)
            net = build_network(s)
            net.run(150)
    finally:
        Router.run_update_info = orig
    # Maintenance runs only after a write or when a stored time is
    # reached, so a converged network contributes few passes; the floor
    # just guards against the wrapper silently not being exercised.
    report(calls > 150, "6. information bases are internally consistent"
                        " after every maintenance pass, including under"
                        f" link churn ({calls} passes checked)")


def test_acceptance_7_symmetric_links_never_flap():
    """On static topologies a SYMMETRIC link stays SYMMETRIC."""
    rng = random.Random(7)
    violations = []
    n_runs = 50
    for case in range(n_runs):
        s = oracles.random_connected_scenario(rng, rng.randint(3, 6),
                                              seed=3000 + case)
        net = build_network(s)
        last = {}
        for _ in range(8 * 20 + 10):   # at least twenty HELLO rounds
            net.tick()
            cur = {}
            for ip, r in net.routers.items():
                for oip, lt in r.ls.items():
                    cur[(ip, oip)] = lt.status(r.now) == Status.SYMMETRIC
            for key, was in last.items():
                if was and not cur.get(key, False):
                    violations.append((case, net.clock, key))
            last = cur
    label = (f"7. across {n_runs} static runs no symmetric link ever"
             " regressed to heard/lost/expired")
    if violations:
        label += f" (first: {violations[:3]!r})"
    report(not violations, label)


def test_acceptance_8_determinism_and_order_independence():
    """Equal seeds give equal traces; step order is protocol-invisible."""
    # byte-identical re-runs
    for text in (FIG1_SCENARIO, FIG3_SCENARIO):
        s = parse_scenario(text)
        nets = [build_network(parse_scenario(text)) for _ in range(2)]
        for net in nets:
            net.run(min(s.params["ticks"], 100))
        assert nets[0].render_trace() == nets[1].render_trace()
        assert nets[0].render_trace()   # not trivially empty

    # permutation invariance of the phase-2 step order
    def snap(net):
        return tuple(
            (ip, tuple(sorted(r.ls.items())),
             tuple(sorted(r.twohop_set.items())),
             tuple(sorted(r.arrs.items())), tuple(sorted(r.rts.items())),
             tuple(sorted(r.rs.items())), r.ansn, r.sqn)
            for ip, r in sorted(net.routers.items()))

    rng = random.Random(88)
    s = oracles.random_connected_scenario(rng, 5, seed=808)
    net_sorted = build_network(s)
    net_shuffled = build_network(s)
    for _ in range(150):
        net_sorted.tick()
        order = sorted(net_shuffled.routers)
        rng.shuffle(order)
        net_shuffled.tick(step_order=order)
        assert snap(net_sorted) == snap(net_shuffled)
    assert net_sorted.render_trace() == net_shuffled.render_trace()
    report(True, "8. identical scenarios reproduce byte-identical traces,"
                 " and shuffling the per-tick router step order changes"
                 " neither state evolution nor the trace")
