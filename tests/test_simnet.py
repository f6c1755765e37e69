"""Network layer: timed delivery, busy spans, snapshots, topology events,
typed trace events rendered only on output."""
import gc
import hashlib
import random
import weakref

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

import oracles
from test_acceptance import EVENTFUL_SCENARIO
from test_engine import churn_events


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
        NetworkParams(lb=0, delta_b=0, seed=1)
    with pytest.raises(ScenarioError, match="ΔB >= 0"):
        NetworkParams(lb=1, delta_b=-1, seed=1)


def test_ground_truth_check():
    for out in ({"a": {"zz": 1}}, {"zz": {"a": 1}}):
        gt = GroundTruth(nodes={"a"}, out=out)
        with pytest.raises(ScenarioError, match="undeclared"):
            gt.check()
    gt = GroundTruth(nodes={"a"}, out={"a": {"a": 1}})
    with pytest.raises(ScenarioError, match="self-loop"):
        gt.check()
    gt = GroundTruth(nodes={"a", "b"}, out={"a": {"b": 0}})
    with pytest.raises(ScenarioError, match="finite positive"):
        gt.check()
    GroundTruth(nodes={"a", "b"}, out={"a": {"b": 1}}).check()


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
    with pytest.raises(ScenarioError, match="absent link b->a at t=2"):
        build_network(s)


def test_link_events_replayed_at_set_up():
    """Each event is checked against the links it will meet, in the
    order the ticks apply them (same-tick events in scenario order)."""
    s = scen(events=(TopologyEvent(6, "metric", "a", "b", 3),
                     TopologyEvent(4, "linkdown", "a", "b"),
                     TopologyEvent(4, "linkup", "a", "b", 2)))
    net = build_network(s)
    net.run(7)
    assert net.gt.out["a"] == {"b": 3}
    for events, message in (
            ((TopologyEvent(4, "linkup", "a", "b", 2),
              TopologyEvent(4, "linkdown", "a", "b")),
             "linkup event on present link a->b at t=4"),
            ((TopologyEvent(2, "linkdown", "b", "a"),
              TopologyEvent(7, "linkdown", "b", "a")),
             "linkdown event on absent link b->a at t=7"),
            ((TopologyEvent(1, "linkdown", "b", "a"),
              TopologyEvent(3, "linkup", "b", "a", 4),
              TopologyEvent(500, "linkup", "b", "a", 4)),
             "linkup event on present link b->a at t=500"),
            ((TopologyEvent(20, "flap", "a", "b"),),
             "unknown topology event kind: flap")):
        with pytest.raises(ScenarioError, match=message):
            build_network(scen(events=events))


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
    with pytest.raises(ScenarioError, match="undeclared node"):
        build_network(scen(links=(("a", "zz", 1),)))
    with pytest.raises(ScenarioError, match="unknown node"):
        build_network(scen(events=(TopologyEvent(0, "linkup", "a", "zz", 1),)))


class FixedDraw:
    """A duration stream that always draws the same value."""

    def __init__(self, value):
        self.value = value

    def randrange(self, stop):
        return self.value


def test_broadcasts_landing_on_one_tick_are_delivered_in_sender_order():
    """b starts a 3-tick broadcast at t=0, a a 2-tick one at t=1. Both
    land at t=3, and c is handed a's first, although b's was sent
    first."""
    s = scen(nodes=("a", "b", "c"), links=(("a", "c", 1), ("b", "c", 2)),
             params={"lb": 1, "delta_b": 2, "hp_maxjitter": 4,
                     "tp_maxjitter": 4}, offsets={})
    net = build_network(s)
    for r in net.routers.values():  # nothing generated before t=10
        r.hello_time = r._hello_fire = r.tc_time = r._tc_fire = 10
    for nid, start, draw in (("a", 1, 1), ("b", 0, 2)):
        net.routers[nid].pkt = [Hello(nid, 12, {}, {}, {}, {})]
        net.routers[nid].send_time = start
        net._dur_rng[nid] = FixedDraw(draw)
    net.run(2)
    assert [(ev.tick, ev.node, ev.payload)
            for ev in events_of(net, kind="BROADCAST")] == [
        (0, "b", (3, frozenset({"c"}))), (1, "a", (2, frozenset({"c"})))]
    assert [sender for sender, _, _ in net.inflights[3]] == ["b", "a"]
    net.run(2)
    assert [(ev.tick, ev.payload) for ev in events_of(net, "c", "DELIVER")] \
        == [(3, ("a", 1)), (3, ("b", 2))]
    assert not net.inflights


def test_inflights_hold_only_ticks_still_to_come():
    """After every tick of random churn runs, each broadcast in flight
    lands at the current tick or later: a tick's list leaves the map
    when it is delivered."""
    rng = random.Random("inflights")
    held = 0
    for i in range(3):
        s = oracles.random_connected_scenario(rng, rng.randint(4, 8),
                                              seed=900 + i)
        s.events = churn_events(rng, [(u, v) for u, v, _ in s.links], 200)
        net = build_network(s)
        for _ in range(200):
            net.tick()
            assert all(t >= net.clock for t in net.inflights), net.clock
            held = max(held, sum(map(len, net.inflights.values())))
    assert held > 1


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
                 "render_tc_head": messages.render_tc_head,
                 "render_tc_tail": messages.render_tc_tail,
                 "render_dests": messages.render_dests,
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
        assert {"olsrv2sim.messages.render_tc_head",
                "olsrv2sim.messages.render_tc_tail",
                "olsrv2sim.messages.render_dests"} <= set(patched)
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


def test_tc_map_rendered_once_per_map_object(monkeypatch):
    """Forwarded copies share their original's advertised map, and an
    origination whose map is unchanged carries the last one on, so the
    trace renders each distinct map object once, fewer maps than TCs
    generated, and every copy's line is still the one it renders on its
    own."""
    net = check_style_run()
    render_dests, calls = messages.render_dests, []

    def counted(dests):
        calls.append(dests)
        return render_dests(dests)

    monkeypatch.setattr(messages, "render_dests", counted)
    text = net.render_trace()
    gen = events_of(net, kind="TC_GEN")
    assert len(calls) == len({id(ev.payload.dests) for ev in gen}) < len(gen)
    assert len({id(d) for d in calls}) == len(calls)
    assert len(events_of(net, kind="TC_FWD")) > len(calls)
    monkeypatch.undo()
    assert text == "".join(render_trace_event(ev) + "\n"
                           for ev in net.trace)


@pytest.mark.parametrize("kind", ["HELLO_GEN", "TC_GEN"])
def test_generation_reuses_an_unchanged_advertisement(kind):
    """A HELLO equal, key for key in the same order, to its router's last
    HELLO is that same object, and one that differs is a new object; the
    same holds for a TC's map and its router's last map."""
    s = parse_scenario(EVENTFUL_SCENARIO)
    net = build_network(s)
    net.run(s.params["ticks"])

    def content(msg):
        """The generated object, and its content with maps in order."""
        if kind == "TC_GEN":
            return msg.dests, list(msg.dests.items())
        return msg, [*msg[:2], *(list(d.items()) for d in msg[2:])]

    last, seen, reused = {}, set(), 0
    gen = events_of(net, kind=kind)
    for ev in gen:
        obj, ordered = content(ev.payload)
        if ev.node in last and last[ev.node][1] == ordered:
            assert obj is last[ev.node][0]
            reused += 1
        else:
            assert id(obj) not in seen  # the trace holds every one
        seen.add(id(obj))
        last[ev.node] = obj, ordered
    assert 0 < reused < len(gen) - len(net.routers)


def test_dropped_network_is_freed_without_the_cycle_collector():
    """Routers' trace emitters hold no reference back to the network,
    so dropping a network frees it at once, ticked or not."""
    gc.disable()
    try:
        for ticks in (0, 30):
            net = build_network(parse_scenario(EVENTFUL_SCENARIO))
            net.run(ticks)
            ref = weakref.ref(net)
            del net
            assert ref() is None
    finally:
        gc.enable()


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
