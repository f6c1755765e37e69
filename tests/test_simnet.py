"""Network layer: timed delivery, busy spans, snapshots, topology events,
typed trace events rendered only on output, and the paused cycle
collector."""
import contextlib
import gc
import hashlib
import random
import weakref
from collections import Counter

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from olsrv2sim import (checkers, cli, engine, message_logs, messages,
                       neighborhood, simnet, topology)
from olsrv2sim.checkers import (check_route_optimality, default_window,
                                run_to_convergence)
from olsrv2sim.cli import Scenario, parse_scenario
from olsrv2sim.messages import Hello, Status, Tc
from olsrv2sim.simnet import (ScenarioError, TopologyEvent, TraceEvent,
                              build_network)
from olsrv2sim.topology import Route

import oracles
from oracles import render_event_detail, render_trace_event
import test_trace_pins
from test_acceptance import EVENTFUL_SCENARIO
from test_engine import churn_events, sym
from test_scripts import load


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


@pytest.mark.parametrize("text, ticks", [
    (EVENTFUL_SCENARIO, 240),
    (EVENTFUL_SCENARIO + "flag flood_all on\n", 240),
    (load("flooding_sweep").grid_text(4, 1), 150),
], ids=["eventful", "eventful-flood-all", "grid4"])
def test_no_router_forwards_a_tc_twice(text, ticks):
    """A router forwards each TC, named by (originator, seq), at most
    once. Checked after every tick, so a router that loses track of
    the TCs it received fails at its first repeat, a few ticks into
    the run, instead of flooding copies without end."""
    net = build_network(parse_scenario(text))
    forwarded, checked = set(), 0
    for _ in range(ticks):
        net.tick()
        for ev in net.trace[checked:]:
            if ev.kind == "TC_FWD":
                key = (ev.node, ev.payload.originator, ev.payload.seq)
                assert key not in forwarded, (
                    f"t={ev.tick}: router {ev.node} forwarded"
                    f" {key[1]}'s TC {key[2]} a second time")
                forwarded.add(key)
        checked = len(net.trace)
    assert forwarded


def test_every_forward_carries_the_object_its_router_received():
    """A TC has no sender field (messages.Tc), so a flood carries one
    object per origination. Over a 5x5 grid run, the Tcs in the trace,
    as payloads or in packets, are exactly the TC_GEN payloads, one
    distinct object each, and each TC_FWD payload is an object that a
    packet delivered to that router, at that tick or earlier, carried."""
    net = build_network(parse_scenario(load("flooding_sweep").grid_text(5, 1)))
    net.run(150)
    generated = [id(ev.payload) for ev in events_of(net, kind="TC_GEN")]
    assert len(set(generated)) == len(generated)
    seen, received, forwards = set(), set(), 0
    for ev in net.trace:
        if ev.kind in ("TC_GEN", "TC_FWD"):
            seen.add(id(ev.payload))
        for msg in ev.packet or ():
            if type(msg) is Tc:
                seen.add(id(msg))
                if ev.kind == "DELIVER":
                    received.add((ev.node, id(msg)))
        if ev.kind == "TC_FWD":
            forwards += 1
            assert (ev.node, id(ev.payload)) in received, (
                f"t={ev.tick}: router {ev.node} forwarded a TC object no"
                " packet delivered to it")
    assert seen == set(generated)
    assert forwards > len(generated)


def test_params_validation(tmp_path, capsys):
    """engine.validate_config, which build_network runs, states the
    network-wide rules on LB and ΔB; the command line exits 2 on them."""
    with pytest.raises(engine.ConfigError,
                       match="^constraint violated: 0 < LB$"):
        build_network(scen(params={"lb": 0}))
    with pytest.raises(engine.ConfigError,
                       match="^constraint violated: ΔB >= 0$"):
        build_network(scen(params={"delta_b": -1}))
    path = tmp_path / "lb0.txt"
    path.write_text("node a\nnode b\nlink a b 1 bidi 1\nparam lb 0\n")
    assert cli.main(["run", "--scenario", str(path)]) == 2
    assert "error: constraint violated: 0 < LB\n" in capsys.readouterr().err


def late_route_changes(seed, n_nodes, h_hold_time):
    """The ROUTE_CHANGE ticks after t=350 of a static random network run
    for 700 ticks with lb 1, ΔB 1 and hello_interval 8."""
    s = oracles.random_connected_scenario(random.Random(seed), n_nodes,
                                          seed, ticks=700)
    s.params["h_hold_time"] = h_hold_time
    net = build_network(s)
    net.run(700)
    return [ev.tick for ev in net.trace
            if ev.kind == "ROUTE_CHANGE" and ev.tick > 350]


@pytest.mark.parametrize("seed,n_nodes", [(1, 5), (2, 6)])
def test_h_hold_time_bound_is_needed(monkeypatch, seed, n_nodes):
    """A witness that validate_config's "LB + 2ΔB + hello_interval <
    h_hold_time" is tight: one below its minimum, 12, a link can expire
    between two HELLOs over it, so routes still change long after the
    network settled; at the minimum, none do."""
    with pytest.raises(engine.ConfigError, match="< h_hold_time$"):
        late_route_changes(seed, n_nodes, 11)
    with monkeypatch.context() as m:
        m.setattr(simnet, "validate_config", lambda *args: None)
        assert late_route_changes(seed, n_nodes, 11)
    assert late_route_changes(seed, n_nodes, 12) == []


def test_render_trace_event_frozen():
    """The oracle and the library render one event's line alike."""
    hello = Hello("b", 12, {"a": Status.HEARD}, {}, {"a": 1}, {})
    ev = TraceEvent(3, "a", "DELIVER", ("b", 1), packet=[hello])
    line = ("t=3 n=a ev=DELIVER from=b m=1"
            " pkt=[HELLO o=b vt=12 st={a:HEARD} mpr={} in={a:1} out={}]")
    assert render_trace_event(ev) == line
    assert list(simnet.trace_batches([ev])) == [line + "\n"]


def test_tc_text_is_shared_per_origination_only():
    """trace_batches renders a TC's tail once per (originator, seq):
    two originators' TCs with equal seq, validity and ansn but other
    maps keep their own text, and the one object of an origination that
    two senders forward, in a line of their own or in a packet, shares
    it. Its s= is the line's node or the packet's broadcaster. Each
    line equals the oracle's, rendered from its event alone."""
    x_map = {"y": 2, "z": 1}
    gen_x = Tc("x", 40, 3, 1, x_map)
    gen_y = Tc("y", 40, 3, 1, {"x": 5})
    # x's next origination, with its map unchanged, and one from z with
    # an equal map that is another object
    again = Tc("x", 40, 4, 1, x_map)
    equal = Tc("z", 40, 4, 1, dict(x_map))
    trace = [TraceEvent(0, "x", "TC_GEN", gen_x),
             TraceEvent(0, "y", "TC_GEN", gen_y),
             TraceEvent(1, "b", "TC_FWD", gen_x),
             TraceEvent(1, "c", "TC_FWD", gen_x),
             TraceEvent(2, "b", "BROADCAST", (1, frozenset({"a", "d"})),
                        packet=[gen_x]),
             TraceEvent(3, "d", "DELIVER", ("c", 2), packet=[gen_x, gen_y]),
             TraceEvent(4, "x", "TC_GEN", again),
             TraceEvent(4, "z", "TC_GEN", equal),
             TraceEvent(5, "a", "DELIVER", ("x", 1), packet=[gen_x, again])]
    want = [render_trace_event(ev) + "\n" for ev in trace]
    got = "".join(simnet.trace_batches(trace)).splitlines(keepends=True)
    assert got == want
    assert "TC o=y s=y vt=40 sqn=3 ansn=1 d={x:5}" in want[1]
    assert [line.count("TC o=x s=c ") for line in want[2:6]] == [0, 1, 0, 1]
    assert "TC o=x s=b vt=40 sqn=3" in want[4]


def assert_renderings_agree(net):
    """render_trace(), the joined strings of trace_batches and the
    oracle's lines, each event rendered on its own, are one text."""
    want = "".join(render_trace_event(ev) + "\n" for ev in net.trace)
    assert net.render_trace() == want
    assert "".join(simnet.trace_batches(net.trace)) == want


def test_a_trace_cut_mid_flight_renders_alike():
    """A pinned trace cut just after a BROADCAST of a TC that lands
    later: the cut holds that packet's DELIVERs but not its BROADCAST,
    so the loop renders the packet at a DELIVER, on a memo miss, with
    the sender as the TC's s=. The cut spans more than one batch."""
    s = test_trace_pins.CASES["random-churn-from-unknown"][0]()
    net = build_network(s)
    net.run(s.params["ticks"])
    trace = net.trace
    cut = next(i + 1 for i in range(100, len(trace))
               if trace[i].kind == "BROADCAST"
               and any(type(msg) is Tc for msg in trace[i].packet)
               and any(ev.packet is trace[i].packet for ev in trace[i + 1:]))
    pkt = trace[cut - 1].packet
    net.trace = trace[cut:]
    assert [ev.kind for ev in net.trace if ev.packet is pkt][0] == "DELIVER"
    assert len(net.trace) > simnet._BATCH
    assert_renderings_agree(net)


# no shrinking: a smaller seed is no simpler network
@settings(max_examples=10, deadline=None,
          phases=(Phase.explicit, Phase.reuse, Phase.generate))
@given(seed=st.integers(0, 2**32 - 1), flood_all=st.booleans())
def test_churn_networks_render_alike(seed, flood_all):
    """Random networks with link churn: links go down and come back,
    and metrics move, so one sender broadcasts to more than one
    recipient set and routes change next hop and metric."""
    rng = random.Random(seed)
    s = oracles.random_connected_scenario(rng, rng.randint(3, 6),
                                          seed=seed, ticks=200)
    s.events = churn_events(rng, [(u, v) for u, v, _ in s.links], 200)
    s.flags["flood_all"] = flood_all
    net = build_network(s)
    net.run(200)
    assert_renderings_agree(net)


def events_in_flight(rng, s, ticks):
    """linkdown, linkup and metric events for s within ticks: the
    linkdown at a tick when its src has a broadcast in flight through
    phase 3, found by a run of s without events, which is the same run
    until the first event. Up to three metric changes fall at later
    ticks when their src had a broadcast in flight in that run."""
    dry = build_network(s)
    busy = []  # (tick, sender) with a broadcast landing after that tick
    for _ in range(ticks // 2):
        dry.tick()
        t = dry.clock - 1
        busy += [(t, n) for n in sorted(dry.routers)
                 if t >= 20 and dry._busy_until[n] > t]
    links = [(u, v) for u, v, _ in s.links]
    t, src = rng.choice(busy)
    down = rng.choice(sorted(v for u, v in links if u == src))
    up = t + rng.randrange(1, 30)
    events = [TopologyEvent(t, "linkdown", src, down),
              TopologyEvent(up, "linkup", src, down, rng.randint(1, 8))]
    later = [(bt, n) for bt, n in busy if bt >= t]
    for bt, n in rng.sample(later, min(3, len(later))):
        dst = rng.choice(sorted(v for u, v in links if u == n))
        if (n, dst) != (src, down):
            events.append(TopologyEvent(bt, "metric", n, dst,
                                        rng.randint(1, 8)))
    events.append(TopologyEvent(rng.randrange(up + 1, ticks), "metric",
                                src, down, rng.randint(1, 8)))
    return tuple(events)


def tick_state(net):
    """A network's state after a tick, in-flight snapshots as rows."""
    inflight = sorted((t, sender, pkt, list(snap[1])
                       if type(snap) is tuple else sorted(snap.items()))
                      for t, due in net.inflights.items()
                      for sender, pkt, snap in due)
    return (net.clock, net.out, inflight, [
        (oracles.pass_state(r), r.sqn, r.now, r.ps, r.rxs)
        for _, r in sorted(net.routers.items())])


# no shrinking: a smaller seed is no simpler network
@settings(max_examples=12, deadline=None,
          phases=(Phase.explicit, Phase.reuse, Phase.generate))
@given(seed=st.integers(0, 2**32 - 1), n_nodes=st.integers(4, 7),
       delta_b=st.integers(0, 2), noise=st.integers(0, 1))
def test_tick_matches_the_reference_tick(seed, n_nodes, delta_b, noise):
    """Network.tick, which records events per node and shares one
    snapshot per sender row, against oracles.ref_tick, which keeps one
    list sorted by node and copies the row per broadcast: on random
    networks with link events, some while the link's src has a
    broadcast in flight, the rendered traces are one text and the
    states are equal after every tick. A third network steps its
    routers in a shuffled order each tick, to the same trace."""
    rng = random.Random(seed)
    ticks = 150
    s = oracles.random_connected_scenario(rng, n_nodes, seed=seed,
                                          ticks=ticks)
    s.params.update(delta_b=delta_b, metric_noise=noise,
                    hp_maxjitter=delta_b + 3, tp_maxjitter=delta_b + 3)
    s.events = events_in_flight(rng, s, ticks)
    net, ref, shuffled = (build_network(s) for _ in range(3))
    hit = 0
    for t in range(ticks):
        net.tick()
        hit += any(sender == ev.src for ev in s.events if ev.time == t
                   for due in net.inflights.values() for sender, _, _ in due)
        oracles.ref_tick(ref)
        order = sorted(shuffled.routers)
        rng.shuffle(order)
        shuffled._step_order = order
        shuffled.tick()
        assert tick_state(net) == tick_state(ref) == tick_state(shuffled)
    assert hit
    text = ref.render_trace()
    assert net.render_trace() == text == shuffled.render_trace()
    assert text.count("ev=LINK_EVENT") == len(s.events)


def test_shared_routes_and_recipient_sets_render_alike():
    """ROUTE_CHANGEs that share Route objects, and a route to one
    destination that moves; BROADCASTs from two senders that share a
    recipient set (one object, and an equal one), and one sender's
    broadcasts to two sets."""
    kept, before, after = (Route("b", "b", 1), Route("c", "b", 2),
                           Route("c", "d", 3))
    hello = Hello("a", 12, {"b": Status.HEARD}, {}, {"b": 1}, {})
    tc = Tc("a", 40, 1, 0, {"b": 1})
    to = frozenset({"b", "d"})
    net = build_network(scen())
    net.trace = [
        TraceEvent(0, "a", "ROUTE_CHANGE", (kept, before)),
        TraceEvent(1, "a", "ROUTE_CHANGE", (kept, after)),
        TraceEvent(1, "x", "ROUTE_CHANGE", (Route("c", "b", 2), kept)),
        TraceEvent(2, "a", "BROADCAST", (1, to), packet=[hello]),
        TraceEvent(2, "c", "BROADCAST", (1, to), packet=[tc]),
        TraceEvent(3, "d", "BROADCAST", (2, frozenset({"d", "b"})),
                   packet=[tc, hello]),
        TraceEvent(4, "a", "BROADCAST", (1, frozenset({"b"})),
                   packet=[hello, tc]),
    ]
    assert_renderings_agree(net)
    lines = net.render_trace().splitlines()
    assert lines[1] == ("t=1 n=a ev=ROUTE_CHANGE"
                        " rs=[ROUTE b via b m=1; ROUTE c via d m=3]")
    assert [line.split(" to=")[1].partition(" ")[0]
            for line in lines[3:]] == ["{b,d}", "{b,d}", "{b,d}", "{b}"]


def test_broadcast_timing_and_busy_span():
    """lb=2, dB=0: emit at t, deliver exactly at t+2, busy in between."""
    net = build_network(scen())
    net.run(2)   # ticks 0 and 1; a generates at 0, broadcasts at 1
    bc = events_of(net, "a", "BROADCAST")
    assert len(bc) == 1 and bc[0].tick == 1
    assert render_event_detail(bc[0]).startswith("d=2 to={b} pkt=[HELLO")
    assert net.busy("a")
    net.run(1)   # tick 2: a is transmission-busy, nothing delivered yet
    assert not events_of(net, "b", "DELIVER")
    assert not net.busy("a")     # clock reached the delivery tick
    net.run(1)   # tick 3: phase 1 delivers
    de = events_of(net, "b", "DELIVER")
    assert len(de) == 1 and de[0].tick == 3
    assert render_event_detail(de[0]).startswith("from=a m=5 pkt=[HELLO")
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


def test_an_event_recorded_between_ticks_joins_the_next_tick():
    """A router stamps its events with its own clock, the next tick's
    between ticks: a route change made there is traced with that tick,
    first among its router's events, once the tick has run."""
    net = build_network(scen())
    net.run(3)
    assert not [ev for ev in net.trace if ev.kind == "ROUTE_CHANGE"]
    traced = len(net.trace)
    a = net.routers["a"]
    a.ls = {"b": sym("b", in_m=2, out_m=3, now=3)}
    a.run_update_info()
    assert len(net.trace) == traced
    net.run(1)
    first = next(ev for ev in net.trace[traced:] if ev.node == "a")
    assert (first.tick, first.kind, render_event_detail(first)) == (
        3, "ROUTE_CHANGE", "rs=[ROUTE b via b m=3]")


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
    assert render_event_detail(de[0]).startswith("from=a m=4")


def test_in_range_at_send_delivered_after_linkdown():
    """A mid-flight linkdown falls back to the send-time metric snapshot."""
    s = scen(events=(TopologyEvent(2, "linkdown", "a", "b"),))
    net = build_network(s)
    net.run(4)
    de = events_of(net, "b", "DELIVER")
    assert len(de) == 1 and de[0].tick == 3
    assert render_event_detail(de[0]).startswith("from=a m=5")
    assert "t=2 n=a ev=LINK_EVENT linkdown dst=b\n" in net.render_trace()


def test_metric_change_mid_flight_wins_over_snapshot():
    s = scen(events=(TopologyEvent(2, "metric", "a", "b", 9),))
    net = build_network(s)
    net.run(4)
    de = events_of(net, "b", "DELIVER")
    assert render_event_detail(de[0]).startswith("from=a m=9")


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
    assert net.out["a"] == {"b": 3}
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
             "unknown event kind 'flap'")):
        with pytest.raises(ScenarioError, match=message):
            build_network(scen(events=events))


def test_library_rejects_what_the_parser_rejects():
    """build_network refuses an event before tick 0, which no tick would
    apply although the replay counts it (so the linkup below would land
    on a present link), and a negative metric_noise, which would raise
    a bare ValueError mid-run."""
    events = (TopologyEvent(-1, "linkdown", "a", "b"),
              TopologyEvent(3, "linkup", "a", "b", 2))
    with pytest.raises(ScenarioError, match="event tick must be >= 0, got -1"):
        build_network(scen(events=events))
    with pytest.raises(ScenarioError, match="metric_noise must be >= 0, got -1"):
        build_network(scen(params={"metric_noise": -1}))


@pytest.mark.parametrize("change, message", [
    ({"events": (TopologyEvent(3, "metric", "a", "b", 0),)},
     "metric must be >= 1, got 0"),
    ({"events": (TopologyEvent(3, "metric", "a", "b", -3),)},
     "metric must be >= 1, got -3"),
    ({"events": (TopologyEvent(3, "metric", "a", "b", None),)},
     "metric must be a decimal integer, got None"),
    ({"events": (TopologyEvent(3, "metric", "a", "b", messages.INF),)},
     "metric must be a decimal integer, got inf"),
    ({"nodes": ("a", "b", "b c")}, "bad node id 'b c'"),
    ({"params": {"hello_intervall": 10}}, "unknown param 'hello_intervall'"),
    ({"flags": {"flood_al": True}}, "unknown flag 'flood_al'"),
    ({"flags": {"flood_all": "off"}},
     "flag flood_all must be on or off, got 'off'"),
    ({"params": {"a.lb": 2}}, "param lb is network-wide"),
    ({"params": {"zz.hello_interval": 10}}, "undeclared node 'zz'"),
    ({"offsets": {"zz": (0, 0)}}, "undeclared node 'zz'"),
    ({"links": (("a", "b", 5), ("b", "a", 5), ("a", "b", 7))},
     "duplicate link a->b"),
    ({"links": (("a", "b", 5), ("b", "a", 5), ("a", "a", 1))},
     "self-loop link on a"),
    # an event names a link: a linkup a a would make a its own neighbour
    ({"events": (TopologyEvent(3, "linkup", "a", "a", 1),)},
     "self-loop link on a"),
    ({"events": (TopologyEvent(3, "linkdown", "a", "b", 7),)},
     "a linkdown carries no metric, got 7"),
    # every number is an int, as the parser's decimal tokens are
    ({"params": {"hello_interval": "x"}},
     "param hello_interval must be a decimal integer, got x"),
    ({"params": {"ticks": "3"}},
     "param ticks must be a decimal integer, got 3"),
    ({"params": {"lb": 1.5}}, "param lb must be a decimal integer, got 1.5"),
    ({"params": {"seed": None}},
     "param seed must be a decimal integer, got None"),
    ({"offsets": {"a": ("x", 0)}},
     "hello offset must be a decimal integer, got x"),
    ({"events": (TopologyEvent(None, "linkdown", "a", "b"),)},
     "event tick must be a decimal integer, got None"),
], ids=["event metric 0", "event metric -3", "event metric None",
        "event metric inf", "node id with a space", "misspelt param",
        "misspelt flag", "flag text", "per-node network param",
        "param of an undeclared node", "offset of an undeclared node",
        "second link a->b", "self-loop link", "self-loop event",
        "linkdown with a metric", "param text", "ticks text", "param float",
        "param None", "offset text", "event tick None"])
def test_library_rejects_what_the_parser_rejects_by_name(change, message):
    """Each change to a valid two-node scenario breaks one rule that
    cli.parse_scenario enforces, and build_network refuses it too."""
    with pytest.raises(ScenarioError, match=message):
        build_network(scen(**change))


def test_build_network_checks_each_link_and_event_once(monkeypatch):
    """build_network states each link and event rule once: check_link
    runs once per link and once per event, the latter from inside
    check_event, which runs once per event."""
    calls = Counter()
    for name in ("check_link", "check_event"):
        def counted(*args, _name=name, _fn=getattr(simnet, name)):
            calls[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(simnet, name, counted)
    s = scen(events=(TopologyEvent(4, "linkdown", "a", "b"),
                     TopologyEvent(6, "linkup", "a", "b", 3)))
    build_network(s)
    assert calls == {"check_link": len(s.links) + len(s.events),
                     "check_event": len(s.events)}


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


def test_a_noiseless_network_builds_no_noise_stream(monkeypatch):
    """Only a noisy delivery draws from a noise stream, so a network
    without metric_noise seeds none; a noisy one seeds one per node."""
    seeds = []

    class Seen(random.Random):
        def __init__(self, seed):
            seeds.append(seed)
            super().__init__(seed)

    monkeypatch.setattr(simnet.random, "Random", Seen)
    for noise in (0, 1):
        seeds.clear()
        net = build_network(scen(params={"metric_noise": noise}))
        net.run(40)
        assert [x for x in seeds if x.endswith("/noise")] == (
            ["1/a/noise", "1/b/noise"] if noise else [])
        assert sorted(net._noise_rng) == (["a", "b"] if noise else [])


def test_build_network_rejects_bad_scenarios():
    with pytest.raises(ScenarioError, match="duplicate node id: a"):
        build_network(scen(nodes=("a", "b", "a")))
    with pytest.raises(ScenarioError, match="undeclared node"):
        build_network(scen(links=(("a", "zz", 1),)))
    with pytest.raises(ScenarioError, match="undeclared node 'zz'"):
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
                 "render_tc_parts": messages.render_tc_parts,
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
        assert {"olsrv2sim.messages.render_tc_parts",
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


def test_pinned_traces_reach_every_line_shape():
    """The pinned scenarios together render every kind of line, each
    kind of link event included, and one pinned trace spans more than
    one of trace_batches' strings, so memoised text is reused across a
    batch boundary. An edit to the pins that dropped part of the
    renderer's coverage fails here."""
    shapes, batches = set(), []
    for name in sorted(test_trace_pins.CASES):
        s = test_trace_pins.CASES[name][0]()
        net = build_network(s)
        net.run(s.params["ticks"])
        shapes |= {(ev.kind, ev.payload.kind) if ev.kind == "LINK_EVENT"
                   else ev.kind for ev in net.trace}
        batches.append(sum(1 for _ in simnet.trace_batches(net.trace)))
    assert shapes == {"HELLO_GEN", "TC_GEN", "TC_FWD", "ROUTE_CHANGE",
                      "DELIVER", "BROADCAST", ("LINK_EVENT", "linkdown"),
                      ("LINK_EVENT", "linkup"), ("LINK_EVENT", "metric")}
    assert max(batches) > 1


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


# --- the paused cycle collector ------------------------------------------

RUNNERS = {
    "run": lambda net: net.run(40),
    "run_to_convergence": lambda net: run_to_convergence(net, 5, 40),
}


@pytest.fixture
def collector_restored():
    """The collector as the test found it, whatever the test left."""
    enabled, flags = gc.isenabled(), gc.get_debug()
    yield
    gc.set_debug(flags)
    (gc.enable if enabled else gc.disable)()


@pytest.mark.parametrize("raises", [False, True], ids=["returns", "raises"])
@pytest.mark.parametrize("enabled", [True, False],
                         ids=["enabled", "disabled"])
@pytest.mark.parametrize("runner", sorted(RUNNERS))
def test_running_leaves_the_collector_as_found(collector_restored,
                                               monkeypatch, runner, enabled,
                                               raises):
    """Network.run and run_to_convergence pause the cycle collector
    while routers step, and leave it enabled or disabled as they found
    it, also when a step raises mid-tick."""
    net = build_network(parse_scenario(EVENTFUL_SCENARIO))
    step, seen = engine.Router.step_main, []

    def recorded_step(router):
        seen.append(gc.isenabled())
        if raises:
            raise engine.EngineDiagnostic("a step that fails")
        return step(router)
    monkeypatch.setattr(engine.Router, "step_main", recorded_step)
    (gc.enable if enabled else gc.disable)()
    if raises:
        with pytest.raises(engine.EngineDiagnostic):
            RUNNERS[runner](net)
    else:
        RUNNERS[runner](net)
    assert gc.isenabled() is enabled
    assert seen and not any(seen)


class Allocated:
    """One instance is a new tracked object, so it can start a
    collection; a tuple or dict from a freelist cannot."""


def run_over_a_wrapped_tick(net):
    """Network.run with tick wrapped, as a tracer wraps it, by code that
    allocates one class instance after each tick."""
    tick = net.tick

    def wrapped():
        tick()
        Allocated()
    net.tick = wrapped
    try:
        net.run(300)
    finally:
        del net.tick


@pytest.mark.parametrize("runner", [
    lambda net: net.run(300),
    run_over_a_wrapped_tick,
    lambda net: run_to_convergence(net, 300, 300),
], ids=["run", "run_over_a_wrapped_tick", "run_to_convergence"])
def test_no_collection_starts_inside_a_run(collector_restored, runner):
    """A 4x4 grid run for 300 ticks starts no collection, though it
    allocates enough that the collector, left running, would have:
    run_to_convergence allocates between ticks too, and so does a
    wrapper round tick, which only run's own pause covers."""
    net = build_network(parse_scenario(load("flooding_sweep").grid_text(4, 1)))
    starts = []

    def count(phase, info):
        if phase == "start":
            starts.append(info["generation"])
    gc.enable()
    gc.collect()
    gc.callbacks.append(count)
    try:
        runner(net)
        allocated = gc.get_count()[0]
    finally:
        gc.callbacks.remove(count)
    assert net.clock == 300 and starts == []
    assert allocated > gc.get_threshold()[0]


@contextlib.contextmanager
def every_cycle_kept():
    """The collector disabled and told to keep what it finds unreachable
    in gc.garbage, from an empty heap; on exit, the cycles are freed."""
    enabled, flags = gc.isenabled(), gc.get_debug()
    gc.collect()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        yield
    finally:
        gc.set_debug(flags)
        gc.garbage.clear()
        gc.collect()
        if enabled:
            gc.enable()


def assert_no_cycles(where):
    found = gc.collect()
    kinds = Counter(type(o).__name__ for o in gc.garbage)
    assert found == 0, (f"{where}: {found} objects in reference cycles,"
                        f" by type {dict(kinds.most_common())}")


@pytest.mark.parametrize("name", sorted(test_trace_pins.CASES))
def test_a_pinned_run_makes_no_reference_cycles(name):
    """What the paused collector rests on: a run's heap is acyclic, so
    refcounting frees all of it and the collector would find nothing,
    neither while the network lives nor once it is dropped."""
    with every_cycle_kept():
        s = test_trace_pins.CASES[name][0]()
        net = build_network(s)
        net.run(s.params["ticks"])
        text = net.render_trace()
        assert_no_cycles(f"{name}, network alive")
        del s, net, text
        assert_no_cycles(f"{name}, network dropped")


# no shrinking: a smaller seed is no simpler network
@settings(max_examples=12, deadline=None,
          phases=(Phase.explicit, Phase.reuse, Phase.generate))
@given(seed=st.integers(0, 2**32 - 1), flood_all=st.booleans(),
       bug_rfc7181=st.booleans(), from_unknown=st.booleans(),
       noise=st.integers(0, 2))
def test_a_checked_run_makes_no_reference_cycles(seed, flood_all,
                                                 bug_rfc7181, from_unknown,
                                                 noise):
    """The same on random networks with link churn, every mode flag and
    measurement noise, run past the churn, converged, checked and
    rendered as `check` does."""
    with every_cycle_kept():
        rng = random.Random(seed)
        s = oracles.random_connected_scenario(rng, rng.randint(3, 5),
                                              seed=seed, ticks=160)
        s.events = churn_events(rng, [(u, v) for u, v, _ in s.links], 160)
        s.flags.update(flood_all=flood_all, bug_rfc7181=bug_rfc7181,
                       process_tc_from_unknown=from_unknown)
        s.params["metric_noise"] = noise
        net = build_network(s)
        net.run(max(ev.time for ev in s.events) + 1)
        conv = run_to_convergence(net, default_window(net), 400)
        reports = check_route_optimality(net)
        text = net.render_trace()
        assert_no_cycles(f"seed {seed}, network alive")
        del s, net, conv, reports, text
        assert_no_cycles(f"seed {seed}, network dropped")


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
