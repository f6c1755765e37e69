"""Network layer: ground truth, timed broadcast delivery, global clock.

One tick proceeds in four phases:
  1. every in-flight transmission due now is delivered into the
     recipients' queues (canonical order: by sender, then recipient);
  2. every non-busy router runs step_main, in ascending NodeId order;
     an emitted packet becomes a new in-flight transmission and the
     sender stays busy until its delivery tick;
  3. scheduled topology events for this tick are applied;
  4. the global clock and every router's local clock advance by one.

Deliveries all land before any router steps, and every random draw
comes from a per-node stream, so phase-2 iteration order is not
protocol-visible (a property the test suite checks by permuting it).

Trace events are typed: each TraceEvent holds the objects its line is
made of, and text is rendered only on output (Network.trace_lines,
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
is the same whenever it is rendered.
"""
from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Optional

from . import messages
from .engine import EngineDiagnostic, Router, RouterConfig, init_router
from .messages import INF, Metric, NodeId, Packet, TimeValue, render_packet
from .topology import render_route


class ScenarioError(ValueError):
    """Scenario content is structurally or semantically invalid."""


@dataclass(frozen=True)
class NetworkParams:
    lb: int
    delta_b: int
    node_count: int
    seed: int

    def __post_init__(self):
        if not self.lb > 0:
            raise ScenarioError("constraint violated: 0 < LB")
        if not self.delta_b >= 0:
            raise ScenarioError("constraint violated: ΔB >= 0")


@dataclass
class GroundTruth:
    """Who can hear whom, and at what directed link metric.

    b hears a exactly when (a, b) is a key of metric.
    """

    nodes: set
    metric: dict      # (NodeId, NodeId) -> Metric

    def check(self) -> None:
        for (a, b), m in self.metric.items():
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


@dataclass
class InFlight:
    sender: NodeId
    packet: Packet
    deliver_at: TimeValue
    recipients: frozenset
    # directed metrics sampled when the broadcast started; used as the
    # fallback measurement if the link vanishes mid-flight
    metric_snapshot: dict = field(default_factory=dict)


@dataclass(frozen=True, slots=True)
class TraceEvent:
    tick: TimeValue
    node: NodeId
    kind: str
    payload: object  # per kind, see the module docstring
    packet: Optional[Packet] = None  # BROADCAST and DELIVER only

    @property
    def detail(self) -> str:
        """The rendered text after the kind, for this event alone."""
        return _render_detail(self, messages.render_message, render_packet)


def _render_detail(ev: TraceEvent, message_text, packet_text) -> str:
    """Render ev's payload; messages and packets go through the two
    given renderers, so a caller can share their text between events."""
    kind, p = ev.kind, ev.payload
    if kind == "DELIVER":
        sender, m = p
        return f"from={sender} m={m} pkt={packet_text(ev.packet)}"
    if kind == "BROADCAST":
        d, recipients = p
        to = ",".join(sorted(recipients))
        return f"d={d} to={{{to}}} pkt={packet_text(ev.packet)}"
    if kind in ("HELLO_GEN", "TC_GEN", "TC_FWD"):
        return message_text(p)
    if kind == "ROUTE_CHANGE":
        return "rs=[" + "; ".join(map(render_route, p)) + "]"
    if kind == "LINK_EVENT":
        if p.kind == "linkdown":
            return f"linkdown dst={p.dst}"
        return f"{p.kind} dst={p.dst} m={p.metric}"
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
        self.params = params
        self.gt = gt
        self.routers = routers
        self.events = sorted(events, key=lambda e: (e.time, e.src, e.dst))
        self._next_event = 0  # index of the first event not yet due
        self.metric_noise = metric_noise
        self.clock: TimeValue = 0
        self.inflights: list = []
        self._busy_until: dict = {}  # node -> delivery tick of its broadcast
        self.trace: list = []
        self._dur_rng = {n: random.Random(f"{params.seed}/{n}/dur")
                         for n in routers}
        self._noise_rng = {n: random.Random(f"{params.seed}/{n}/noise")
                           for n in routers}

    # -- helpers ----------------------------------------------------------

    def busy(self, node: NodeId) -> bool:
        return self.clock < self._busy_until.get(node, 0)

    def _measured_metric(self, sender: NodeId, recipient: NodeId,
                         snapshot: dict) -> Metric:
        m = self.gt.metric.get((sender, recipient),
                               snapshot.get(recipient))
        if self.metric_noise:
            lo = max(1, m - self.metric_noise)
            hi = m + self.metric_noise
            m = self._noise_rng[recipient].randint(lo, hi)
        return m

    # -- one global tick ---------------------------------------------------

    def tick(self, step_order: Optional[list] = None) -> None:
        """Advance the whole network by one time unit.

        step_order overrides the phase-2 iteration order; it exists for
        the permutation-invariance test and must be a permutation of
        the node ids.
        """
        events: list = []

        def emit(node, kind, payload, packet=None):
            events.append(TraceEvent(self.clock, node, kind, payload, packet))

        # phase 1: deliveries due now, canonical order by sender
        due = sorted((f for f in self.inflights if f.deliver_at == self.clock),
                     key=lambda f: f.sender)
        self.inflights = [f for f in self.inflights
                          if f.deliver_at != self.clock]
        for f in due:
            for r in sorted(f.recipients):
                m = self._measured_metric(f.sender, r, f.metric_snapshot)
                self.routers[r].enqueue_delivery(f.packet, m)
                emit(r, "DELIVER", (f.sender, m), f.packet)

        # phase 2: per-router steps
        order = step_order if step_order is not None else sorted(self.routers)
        for nid in order:
            if self.busy(nid):
                continue
            router = self.routers[nid]
            router.trace = (lambda kind, payload, _n=nid:
                            emit(_n, kind, payload))
            packet = router.step_main()
            if packet is not None:
                d = self.params.lb + self._dur_rng[nid].randrange(
                    self.params.delta_b + 1)
                snapshot = {r: m for (src, r), m in self.gt.metric.items()
                            if src == nid}
                recipients = frozenset(snapshot)
                self.inflights.append(InFlight(nid, packet, self.clock + d,
                                               recipients, snapshot))
                self._busy_until[nid] = self.clock + d
                emit(nid, "BROADCAST", (d, recipients), packet)

        # phase 3: topology events scheduled for this tick; events
        # is sorted by time, so the due ones start at the cursor
        evs, i = self.events, self._next_event
        while i < len(evs) and evs[i].time <= self.clock:
            if evs[i].time == self.clock:
                self.apply_topology_event(evs[i], emit)
            i += 1
        self._next_event = i

        # phase 4: clocks advance
        self.clock += 1
        for router in self.routers.values():
            router.now += 1

        events.sort(key=lambda e: e.node)  # stable: keeps emission order
        self.trace.extend(events)

    def apply_topology_event(self, ev: TopologyEvent, emit=None) -> None:
        if ev.src not in self.gt.nodes or ev.dst not in self.gt.nodes:
            raise ScenarioError(f"topology event references unknown node: "
                                f"{ev.src}->{ev.dst}")
        if ev.kind == "linkup":
            self.gt.metric[(ev.src, ev.dst)] = ev.metric
        elif ev.kind == "linkdown":
            self.gt.metric.pop((ev.src, ev.dst), None)
        elif ev.kind == "metric":
            if (ev.src, ev.dst) not in self.gt.metric:
                raise ScenarioError(
                    f"metric event on absent link {ev.src}->{ev.dst}"
                    f" at t={ev.time}")
            self.gt.metric[(ev.src, ev.dst)] = ev.metric
        else:
            raise ScenarioError(f"unknown topology event kind: {ev.kind}")
        if emit is not None:
            emit(ev.src, "LINK_EVENT", ev)

    def run(self, ticks: int) -> None:
        for _ in range(ticks):
            self.tick()

    def trace_lines(self) -> Iterator[str]:
        """Each trace event's line with its newline, in trace order.

        Every distinct message and packet is rendered once, at its
        first line, and its text reused by later lines. The memo is
        keyed by object identity, which is stable because the trace
        holds every object while the lines are drawn.
        """
        msgs: dict = {}
        pkts: dict = {}

        def message_text(msg) -> str:
            text = msgs.get(id(msg))
            if text is None:
                text = msgs[id(msg)] = messages.render_message(msg)
            return text

        def packet_text(pkt) -> str:
            text = pkts.get(id(pkt))
            if text is None:
                text = pkts[id(pkt)] = render_packet(pkt, message_text)
            return text

        for ev in self.trace:
            yield (f"t={ev.tick} n={ev.node} ev={ev.kind}"
                   f" {_render_detail(ev, message_text, packet_text)}\n")

    def render_trace(self) -> str:
        return "".join(self.trace_lines())


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
    node_set = set(nodes)

    def param(name, default, node=None):
        if node is not None and f"{node}.{name}" in scenario.params:
            return scenario.params[f"{node}.{name}"]
        return scenario.params.get(name, default)

    lb = param("lb", 1)
    delta_b = param("delta_b", 0)
    seed = param("seed", 1)
    params = NetworkParams(lb=lb, delta_b=delta_b,
                           node_count=len(nodes), seed=seed)

    metric = {}
    for (src, dst, m) in scenario.links:
        if src not in node_set or dst not in node_set:
            raise ScenarioError(f"dangling link endpoint: {src}->{dst}")
        metric[(src, dst)] = m
    gt = GroundTruth(nodes=node_set, metric=metric)

    events = []
    for ev in scenario.events:
        if ev.src not in node_set or ev.dst not in node_set:
            raise ScenarioError(f"topology event references unknown node: "
                                f"{ev.src}->{ev.dst}")
        events.append(ev)

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
    return Network(params, gt, routers, events,
                   metric_noise=param("metric_noise", 0))
