"""Network layer: timed delivery, busy spans, snapshots, topology events,
typed trace events rendered only on output."""
import hashlib

import pytest

from olsrv2sim import (checkers, cli, engine, message_logs, messages,
                       neighborhood, simnet, topology)
from olsrv2sim.checkers import (check_route_optimality, default_window,
                                run_to_convergence)
from olsrv2sim.cli import Scenario, parse_scenario
from olsrv2sim.messages import Hello, Status
from olsrv2sim.simnet import (GroundTruth, Network, NetworkParams,
                              ScenarioError, TopologyEvent, TraceEvent,
                              build_network, render_trace_event)
from olsrv2sim.topology import Route

from test_acceptance import EVENTFUL_SCENARIO


def scen(nodes=("a", "b"), links=(("a", "b", 5), ("b", "a", 5)),
         params=None, offsets=None, events=(), flags=None):
    base = {"lb": 2, "delta_b": 0, "hp_maxjitter": 3, "tp_maxjitter": 3,
            "seed": 1}
    base.update(params or {})
    return Scenario(nodes=tuple(nodes), params=base, links=tuple(links),
                    events=tuple(events), flags=flags or {},
                    offsets=offsets if offsets is not None
                    else {"a": (0, 25), "b": (9, 27)})


def events_of(net, node=None, kind=None):
    return [ev for ev in net.trace
            if (node is None or ev.node == node)
            and (kind is None or ev.kind == kind)]


def test_params_validation():
    with pytest.raises(ScenarioError, match="0 < LB"):
        NetworkParams(lb=0, delta_b=0, node_count=2, seed=1)
    with pytest.raises(ScenarioError, match="ΔB >= 0"):
        NetworkParams(lb=1, delta_b=-1, node_count=2, seed=1)


def test_ground_truth_check():
    for metric in ({("a", "zz"): 1}, {("zz", "a"): 1}):
        gt = GroundTruth(nodes={"a"}, metric=metric)
        with pytest.raises(ScenarioError, match="undeclared"):
            gt.check()
    gt = GroundTruth(nodes={"a"}, metric={("a", "a"): 1})
    with pytest.raises(ScenarioError, match="self-loop"):
        gt.check()
    gt = GroundTruth(nodes={"a", "b"}, metric={("a", "b"): 0})
    with pytest.raises(ScenarioError, match="finite positive"):
        gt.check()
    GroundTruth(nodes={"a", "b"}, metric={("a", "b"): 1}).check()


def test_render_trace_event_frozen():
    hello = Hello("b", 12, {"a": Status.HEARD}, {}, {"a": 1}, {})
    assert render_trace_event(TraceEvent(3, "a", "DELIVER", ("b", 1),
                                         packet=[hello])) \
        == ("t=3 n=a ev=DELIVER from=b m=1"
            " pkt=[HELLO o=b vt=12 st={a:HEARD} mpr={} in={a:1} out={}]")


def test_broadcast_timing_and_busy_span():
    """lb=2, dB=0: emit at t, deliver exactly at t+2, busy in between."""
    net = build_network(scen())
    net.run(2)   # ticks 0 and 1; a generates at 0, broadcasts at 1
    bc = events_of(net, "a", "BROADCAST")
    assert len(bc) == 1 and bc[0].tick == 1
    assert bc[0].detail.startswith("d=2 to={b} pkt=[HELLO")
    assert net.busy("a")
    net.run(1)   # tick 2: a is transmission-busy, nothing delivered yet
    assert not events_of(net, "b", "DELIVER")
    assert not net.busy("a")     # clock reached the delivery tick
    net.run(1)   # tick 3: phase 1 delivers
    de = events_of(net, "b", "DELIVER")
    assert len(de) == 1 and de[0].tick == 3
    assert de[0].detail.startswith("from=a m=5 pkt=[HELLO")
    assert de[0].packet is not None and de[0].packet[0].originator == "a"


def test_busy_nodes_do_not_step():
    net = build_network(scen())
    net.run(3)
    # during tick 2 the transmitter was busy: no events from a at all
    assert not [ev for ev in events_of(net, "a") if ev.tick == 2]


def test_clock_sync():
    net = build_network(scen())
    net.run(7)
    assert net.clock == 7
    assert all(r.now == 7 for r in net.routers.values())


def test_out_of_range_at_send_never_delivered():
    """Recipients are sampled at send time; a later linkup cannot add one."""
    s = scen(links=(("b", "a", 5),),
             events=(TopologyEvent(1, "linkup", "a", "b", 4),))
    net = build_network(s)
    net.run(10)
    # a's t=1 broadcast had no recipients even though the link came up
    # at t=1 (events apply after the send) and stayed up during flight
    assert not events_of(net, "b", "DELIVER")
    net.run(5)
    # the second HELLO (generated around t=8..10) does arrive
    de = events_of(net, "b", "DELIVER")
    assert de and de[0].tick >= 11
    assert de[0].detail.startswith("from=a m=4")


def test_in_range_at_send_delivered_after_linkdown():
    """A mid-flight linkdown falls back to the send-time metric snapshot."""
    s = scen(events=(TopologyEvent(2, "linkdown", "a", "b"),))
    net = build_network(s)
    net.run(4)
    de = events_of(net, "b", "DELIVER")
    assert len(de) == 1 and de[0].tick == 3
    assert de[0].detail.startswith("from=a m=5")
    assert "t=2 n=a ev=LINK_EVENT linkdown dst=b\n" in net.render_trace()


def test_metric_change_mid_flight_wins_over_snapshot():
    s = scen(events=(TopologyEvent(2, "metric", "a", "b", 9),))
    net = build_network(s)
    net.run(4)
    de = events_of(net, "b", "DELIVER")
    assert de[0].detail.startswith("from=a m=9")


def test_metric_event_on_absent_link_rejected():
    s = scen(events=(TopologyEvent(2, "metric", "b", "a", 9),
                     TopologyEvent(1, "linkdown", "b", "a")))
    net = build_network(s)
    with pytest.raises(ScenarioError, match="absent link b->a at t=2"):
        net.run(4)


def test_unknown_event_kind_rejected():
    net = build_network(scen())
    with pytest.raises(ScenarioError, match="unknown topology event kind"):
        net.apply_topology_event(TopologyEvent(0, "teleport", "a", "b"))


def test_metric_noise_bounded_and_deterministic():
    s = scen(params={"metric_noise": 2})
    runs = []
    for _ in range(2):
        net = build_network(s)
        net.run(40)
        ms = [ev.payload[1] for ev in events_of(net, kind="DELIVER")]
        assert ms and all(3 <= m <= 7 for m in ms)
        runs.append(net.render_trace())
    assert runs[0] == runs[1]
    assert len(set(ms)) > 1   # the noise actually does something


def test_build_network_rejects_bad_scenarios():
    with pytest.raises(ScenarioError, match="duplicate node id: a"):
        build_network(scen(nodes=("a", "b", "a")))
    with pytest.raises(ScenarioError, match="dangling link endpoint"):
        build_network(scen(links=(("a", "zz", 1),)))
    with pytest.raises(ScenarioError, match="unknown node"):
        build_network(scen(events=(TopologyEvent(0, "linkup", "a", "zz", 1),)))


def test_build_network_per_node_param_overrides():
    s = scen(params={"hello_interval": 12, "b.hello_interval": 20,
                     "b.h_hold_time": 30}, offsets={})
    net = build_network(s)
    assert net.routers["a"].cfg.hello_interval == 12
    assert net.routers["b"].cfg.hello_interval == 20
    # defaults derived from a per-node interval follow that node's value
    assert net.routers["a"].cfg.h_hold_time == 2 + 0 + 12 + 1
    assert net.routers["b"].cfg.h_hold_time == 30


def test_build_network_default_offsets_are_seeded():
    a = build_network(scen(offsets={}))
    b = build_network(scen(offsets={}))
    for n in ("a", "b"):
        assert a.routers[n].hello_time == b.routers[n].hello_time
        assert a.routers[n].tc_time == b.routers[n].tc_time


def test_router_set_must_match_nodes():
    net = build_network(scen())
    with pytest.raises(ScenarioError, match="router set"):
        Network(net.params, net.gt, {"a": net.routers["a"]})


# --- typed events: rendered only on output -----------------------------------

def check_style_run():
    """Like `olsrv2-sim check` after the scenario's last event: run to
    convergence, judge the routes."""
    net = build_network(parse_scenario(EVENTFUL_SCENARIO))
    net.run(201)
    run_to_convergence(net, default_window(net), 400)
    check_route_optimality(net)
    return net


def test_nothing_is_rendered_before_output(monkeypatch):
    """With every renderer of a trace line refusing, a checked run
    completes; restored, its trace is the same as an unpatched run's."""
    def refuse(*args):
        raise AssertionError("trace text rendered before output")

    renderers = {"render_message": messages.render_message,
                 "render_packet": messages.render_packet,
                 "render_route": topology.render_route}
    with monkeypatch.context() as mp:
        patched = []
        for mod in (checkers, cli, engine, message_logs, messages,
                    neighborhood, simnet, topology):
            for name, fn in renderers.items():
                if getattr(mod, name, None) is fn:
                    mp.setattr(mod, name, refuse)
                    patched.append(f"{mod.__name__}.{name}")
        assert "olsrv2sim.engine.render_message" in patched
        lazy = check_style_run()
        with pytest.raises(AssertionError, match="before output"):
            lazy.render_trace()
    eager = check_style_run()
    assert any(ev.kind == "LINK_EVENT" for ev in lazy.trace)

    def sha(net):
        return hashlib.sha256(net.render_trace().encode()).hexdigest()
    assert sha(lazy) == sha(eager)
    # the memoised lines are the lines each event renders on its own
    assert lazy.render_trace() == "".join(
        render_trace_event(ev) + "\n" for ev in lazy.trace)


def test_route_change_line_survives_in_place_change_to_rs():
    net = build_network(parse_scenario(EVENTFUL_SCENARIO))
    while not events_of(net, kind="ROUTE_CHANGE"):
        net.tick()
    ev = events_of(net, kind="ROUTE_CHANGE")[-1]
    r = net.routers[ev.node]
    line, text = render_trace_event(ev), net.render_trace()
    assert line.endswith("rs=[" + "; ".join(
        topology.render_route(r.rs[d]) for d in sorted(r.rs)) + "]")
    r.rs.clear()
    r.rs["zz"] = Route("zz", "zz", 1)
    assert render_trace_event(ev) == line
    assert net.render_trace() == text
