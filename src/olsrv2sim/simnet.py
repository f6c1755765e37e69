"""Network layer: ground truth, timed broadcast delivery, global clock.

One tick proceeds in four phases:
  1. every in-flight transmission due now is delivered into the
     recipients' queues (canonical order: by sender, then recipient),
     each at the metric on the sender's row, or the send-time
     snapshot's for a link gone mid-flight, perturbed by the
     recipient's noise stream when metric_noise is set;
  2. every non-busy router runs step_main, in ascending NodeId order;
     an emitted packet becomes a new in-flight transmission and the
     sender stays busy until its delivery tick;
  3. scheduled topology events for this tick are applied;
  4. the global clock and every router's local clock advance by one.

Deliveries all land before any router steps, and every random draw
comes from a per-node stream, so phase-2 iteration order is not
protocol-visible (a property the test suite checks by permuting it).

Trace events are typed: each TraceEvent holds the objects its line is
made of, and text is rendered only on output (Network.trace_chunks,
Network.render_trace, TraceEvent.detail). The payload per kind:
  HELLO_GEN, TC_GEN, TC_FWD  the generated or forwarded Message;
  ROUTE_CHANGE               the new routing set, a tuple of Route in
                             destination order;
  DELIVER                    (sender, measured metric), and the
                             delivered Packet as packet;
  BROADCAST                  (duration, frozenset of recipients), and
                             the sent Packet as packet;
  LINK_EVENT                 the TopologyEvent applied.
Messages and packets are never changed once traced, so an event's line
is the same whenever it is rendered, and text that lines share is
rendered once (see _Texts): a TC's text serves its own line and its
packet's. Each router's trace callback is bound once, when the Network
is built; it and the tick record into the current tick's events, which
join the trace in node order at the tick's end. Both build each event
with _event, from all five fields.

Ground truth is held by sender, sender -> {recipient: metric}, so a
broadcast reads its recipients and their metrics off the sender's row
in O(degree). Broadcasts in flight are held by delivery tick, as
tick -> [(sender, packet, snapshot)]: snapshot copies the sender's row
at send time, so its keys are the recipients and its metrics the
fallback measurement for a link that vanishes mid-flight.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from functools import partial
from operator import attrgetter, itemgetter
from typing import Iterable, Iterator, NamedTuple, Optional

from . import messages
from .engine import EngineDiagnostic, Router, RouterConfig, init_router
from .messages import (INF, Metric, NodeId, Packet, Tc, TimeValue,
                       render_packet)
from .topology import render_route


class ScenarioError(ValueError):
    """Scenario content is structurally or semantically invalid."""


@dataclass(frozen=True)
class NetworkParams:
    lb: int
    delta_b: int
    seed: int

    def __post_init__(self):
        if not self.lb > 0:
            raise ScenarioError("constraint violated: 0 < LB")
        if not self.delta_b >= 0:
            raise ScenarioError("constraint violated: ΔB >= 0")


@dataclass
class GroundTruth:
    """Who can hear whom, and at what directed link metric.

    b hears a exactly when b is a key of out[a].
    """

    nodes: set
    out: dict      # NodeId -> {NodeId: Metric}

    def check(self) -> None:
        for a, row in self.out.items():
            for b, m in row.items():
                if a not in self.nodes or b not in self.nodes:
                    raise ScenarioError(
                        f"link {a}->{b} mentions an undeclared node")
                if a == b:
                    raise ScenarioError(f"self-loop link on {a}")
                if m == INF or m < 1:
                    raise ScenarioError(f"metric {a}->{b} must be a finite positive integer")


@dataclass(frozen=True)
class TopologyEvent:
    time: int
    kind: str  # linkup | linkdown | metric
    src: NodeId
    dst: NodeId
    metric: Optional[Metric] = None


class TraceEvent(NamedTuple):
    tick: TimeValue
    node: NodeId
    kind: str
    payload: object  # per kind, see the module docstring
    packet: Optional[Packet] = None  # BROADCAST and DELIVER only

    @property
    def detail(self) -> str:
        """The rendered text after the kind, for this event alone."""
        return "".join(_render_detail(self, _Texts()))


# A TraceEvent from a tuple of all five fields, built in C: NamedTuple's
# generated __new__ runs Python code, once per delivery and message.
_event = partial(tuple.__new__, TraceEvent)
_NODE = attrgetter("node")
_SENDER = itemgetter(0)


class _TickEvents(list):
    """The events of the tick being run, in emission order, and that
    tick. Routers' emitters hold this and not the Network, so a
    network forms no reference cycle and is freed once dropped."""

    tick: TimeValue = 0


class _Texts(dict):
    """Text shared by trace lines, rendered once per pass over a trace:
    per object for a HELLO, a packet or a TC map, per origination for a
    TC's text after its sender, and per TC from its own line until its
    one packet is rendered. Ids are stable and distinct, as the trace
    holds every object; no text is empty, so get() is falsy on a miss."""

    def message(self, msg) -> str:
        if type(msg) is Tc:
            return self.pop(id(msg), None) or (
                messages.render_tc_head(msg) + self.tc_tail(msg))
        return self.get(id(msg)) or self.setdefault(
            id(msg), messages.render_message(msg))

    def tc_line(self, msg: Tc) -> tuple:
        """A TC line's (head, tail); its whole text waits for its packet."""
        head, tail = messages.render_tc_head(msg), self.tc_tail(msg)
        self[id(msg)] = head + tail
        return head, tail

    def tc_tail(self, msg: Tc) -> str:
        key = (msg.originator, msg.validity, msg.seq, msg.ansn, id(msg.dests))
        return self.get(key) or self.setdefault(key, messages.render_tc_tail(
            msg, self.get(id(msg.dests)) or self.setdefault(
                id(msg.dests), messages.render_dests(msg.dests))))

    def packet(self, pkt: Packet) -> str:
        return self.get(id(pkt)) or self.setdefault(
            id(pkt), render_packet(pkt, self.message))


def _render_detail(ev: TraceEvent, texts: _Texts) -> tuple:
    """ev's text after the kind, as (head, shared): this line's own text,
    then the packet's or message's text from texts ("" if none)."""
    kind, p = ev.kind, ev.payload
    if kind == "DELIVER":
        sender, m = p
        return f"from={sender} m={m} pkt=", texts.packet(ev.packet)
    if kind == "BROADCAST":
        d, recipients = p
        to = ",".join(sorted(recipients))
        return f"d={d} to={{{to}}} pkt=", texts.packet(ev.packet)
    if kind == "HELLO_GEN":
        return "", texts.message(p)
    if kind in ("TC_GEN", "TC_FWD"):
        return texts.tc_line(p)
    if kind == "ROUTE_CHANGE":
        return "rs=[" + "; ".join(map(render_route, p)) + "]", ""
    if kind == "LINK_EVENT":
        if p.kind == "linkdown":
            return f"linkdown dst={p.dst}", ""
        return f"{p.kind} dst={p.dst} m={p.metric}", ""
    raise ValueError(f"unknown trace event kind: {kind}")


def render_trace_event(ev: TraceEvent) -> str:
    return f"t={ev.tick} n={ev.node} ev={ev.kind} {ev.detail}"


class Network:
    def __init__(self, params: NetworkParams, gt: GroundTruth,
                 routers: dict, events: Iterable[TopologyEvent] = (),
                 metric_noise: int = 0):
        gt.check()
        if set(routers) != gt.nodes:
            raise ScenarioError("router set does not match declared nodes")
        for n in gt.nodes:  # a row per node, for broadcasts and events
            gt.out.setdefault(n, {})
        self.params = params
        self.gt = gt
        self.routers = routers
        self._step_order = sorted(routers)  # phase 2's order
        self.events = sorted(events, key=lambda e: (e.time, e.src, e.dst))
        # check every event once, replayed over the links that are up:
        # its kind must be known, a linkup needs its link absent, a
        # linkdown or metric present
        up = {(a, b) for a, row in gt.out.items() for b in row}
        for ev in self.events:
            link = (ev.src, ev.dst)
            if ev.src not in gt.nodes or ev.dst not in gt.nodes:
                raise ScenarioError(f"topology event references unknown"
                                    f" node: {ev.src}->{ev.dst}")
            if ev.kind not in ("linkup", "linkdown", "metric"):
                raise ScenarioError(f"unknown topology event kind: {ev.kind}")
            if (ev.kind == "linkup") == (link in up):
                state = "present" if link in up else "absent"
                raise ScenarioError(f"{ev.kind} event on {state} link"
                                    f" {ev.src}->{ev.dst} at t={ev.time}")
            if ev.kind == "linkup":
                up.add(link)
            elif ev.kind == "linkdown":
                up.remove(link)
        self._next_event = 0  # index of the first event not yet due
        self.metric_noise = metric_noise
        self.clock: TimeValue = 0
        self.inflights: dict = {}  # tick -> [(sender, packet, snapshot)]
        self._busy_until = dict.fromkeys(routers, 0)  # node -> delivery tick
        self.trace: list = []
        self._tick_events = _TickEvents()
        for nid, router in routers.items():
            router.trace = self._emitter(nid)
        self._dur_rng = {n: random.Random(f"{params.seed}/{n}/dur")
                         for n in routers}
        self._noise_rng = {n: random.Random(f"{params.seed}/{n}/noise")
                           for n in routers}

    # -- helpers ----------------------------------------------------------

    def _emitter(self, node: NodeId):
        """The router's trace(kind, payload): records a TraceEvent of
        node at the current tick."""
        events = self._tick_events
        append = events.append

        def emit(kind: str, payload) -> None:
            append(_event((events.tick, node, kind, payload, None)))
        return emit

    def busy(self, node: NodeId) -> bool:
        return self.clock < self._busy_until.get(node, 0)

    # -- one global tick ---------------------------------------------------

    def tick(self, step_order: Optional[list] = None) -> None:
        """Advance the whole network by one time unit.

        step_order overrides the phase-2 iteration order; it exists for
        the permutation-invariance test and must be a permutation of
        the node ids.
        """
        events = self._tick_events
        events.clear()  # drop anything traced outside a tick
        clock = events.tick = self.clock
        append = events.append
        routers, out = self.routers, self.gt.out

        # phase 1: deliveries due now, canonical order by sender
        noise = self.metric_noise
        due = self.inflights.pop(clock, ())
        for sender, packet, snapshot in sorted(due, key=_SENDER):
            row = out[sender]
            for r in sorted(snapshot):
                m = row.get(r, snapshot[r])
                if noise:
                    m = self._noise_rng[r].randint(max(1, m - noise),
                                                   m + noise)
                routers[r].enqueue_delivery(packet, m)
                append(_event((clock, r, "DELIVER", (sender, m), packet)))

        # phase 2: per-router steps
        busy_until = self._busy_until
        order = step_order if step_order is not None else self._step_order
        for nid in order:
            if clock < busy_until[nid]:
                continue
            packet = routers[nid].step_main()
            if packet is not None:
                d = self.params.lb + self._dur_rng[nid].randrange(
                    self.params.delta_b + 1)
                snapshot = dict(out[nid])
                self.inflights.setdefault(clock + d, []).append(
                    (nid, packet, snapshot))
                busy_until[nid] = clock + d
                append(_event((clock, nid, "BROADCAST",
                               (d, frozenset(snapshot)), packet)))

        # phase 3: topology events scheduled for this tick; events
        # is sorted by time, so the due ones start at the cursor
        evs, i = self.events, self._next_event
        while i < len(evs) and evs[i].time <= clock:
            if evs[i].time == clock:
                self.apply_topology_event(evs[i])
            i += 1
        self._next_event = i

        # phase 4: clocks advance
        self.clock += 1
        for router in self.routers.values():
            router.now += 1

        events.sort(key=_NODE)  # stable: keeps emission order
        self.trace.extend(events)

    def apply_topology_event(self, ev: TopologyEvent) -> None:
        """Apply one event, already checked against the links it meets,
        and trace it at the current tick."""
        row = self.gt.out[ev.src]
        if ev.kind == "linkdown":
            del row[ev.dst]
        else:  # linkup or metric: the constructor rejects other kinds
            row[ev.dst] = ev.metric
        self._tick_events.append(
            _event((self.clock, ev.src, "LINK_EVENT", ev, None)))

    def run(self, ticks: int) -> None:
        for _ in range(ticks):
            self.tick()

    def trace_chunks(self) -> Iterator[str]:
        """The trace's text in chunks: per event, its line's head, the
        shared text it ends in (never copied into a line), a newline."""
        texts = _Texts()
        for ev in self.trace:
            head, shared = _render_detail(ev, texts)
            yield f"t={ev.tick} n={ev.node} ev={ev.kind} {head}"
            yield shared
            yield "\n"

    def render_trace(self) -> str:
        return "".join(self.trace_chunks())


def build_network(scenario) -> Network:
    """Instantiate routers and ground truth from a parsed scenario.

    The scenario is duck-typed (see cli.Scenario): nodes, links, events,
    offsets, flags, and a params mapping with optional per-node
    overrides spelled "<node>.<name>".
    """
    nodes = list(scenario.nodes)
    if len(set(nodes)) != len(nodes):
        dupes = sorted({n for n in nodes if nodes.count(n) > 1})
        raise ScenarioError(f"duplicate node id: {', '.join(dupes)}")

    def param(name, default, node=None):
        if node is not None and f"{node}.{name}" in scenario.params:
            return scenario.params[f"{node}.{name}"]
        return scenario.params.get(name, default)

    lb = param("lb", 1)
    delta_b = param("delta_b", 0)
    seed = param("seed", 1)
    params = NetworkParams(lb=lb, delta_b=delta_b, seed=seed)

    out: dict = {}
    for (src, dst, m) in scenario.links:
        out.setdefault(src, {})[dst] = m
    gt = GroundTruth(nodes=set(nodes), out=out)

    flags = dict(scenario.flags)
    routers = {}
    for n in nodes:
        tc_default = ((2 * (lb + delta_b) + 1) * (len(nodes) - 1)
                      - (lb + 1) + param("tc_interval", 30, n) + 1)
        cfg = RouterConfig(
            ip=n,
            hp_maxjitter=param("hp_maxjitter", 2, n),
            tp_maxjitter=param("tp_maxjitter", 2, n),
            h_hold_time=param("h_hold_time",
                              lb + 2 * delta_b + param("hello_interval", 10, n) + 1,
                              n),
            t_hold_time=param("t_hold_time", tc_default, n),
            l_hold_time=param("l_hold_time", 10, n),
            hello_interval=param("hello_interval", 10, n),
            tc_interval=param("tc_interval", 30, n),
        )
        if n in scenario.offsets:
            hello_off, tc_off = scenario.offsets[n]
        else:
            rng = random.Random(f"{seed}/{n}/offset")
            hello_off = rng.randrange(cfg.hello_interval + 1)
            tc_off = rng.randrange(cfg.tc_interval + 1)
        routers[n] = init_router(
            cfg, lb, delta_b, len(nodes), seed, hello_off, tc_off,
            bug_mode=flags.get("bug_rfc7181", False),
            flood_all=flags.get("flood_all", False),
            process_tc_from_unknown=flags.get("process_tc_from_unknown",
                                              False))
    return Network(params, gt, routers, scenario.events,
                   metric_noise=param("metric_noise", 0))
