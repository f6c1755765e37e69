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
  3. scheduled topology events for this tick are applied (a Network
     takes them all when built, none due before tick 0);
  4. the global clock and every router's local clock advance by one.

Deliveries all land before any router steps, and every random draw
comes from a per-node stream, so phase-2 iteration order is not
protocol-visible (a property the test suite checks by permuting it).

Trace events are typed: each TraceEvent holds the objects its line is
made of, and text is rendered only on output, by one loop that yields
a list of chunks per _BATCH events: Network.render_trace joins every
chunk once, and trace_batches, which the command line writes, joins
each list into one string. The payload per kind:
  HELLO_GEN, TC_GEN, TC_FWD  the generated or forwarded Message;
  ROUTE_CHANGE               the new routing set, a tuple of Route in
                             destination order;
  DELIVER                    (sender, measured metric), and the
                             delivered Packet as packet;
  BROADCAST                  (duration, frozenset of recipients), and
                             the sent Packet as packet;
  LINK_EVENT                 the TopologyEvent applied.
Messages and packets are never changed once traced, so an event's line
is the same whenever it is rendered. A TC names no sender (messages.Tc),
so its s= is the line's node on a TC_GEN or TC_FWD line, and inside a
packet the packet's broadcaster: BROADCAST's node, DELIVER's from=.
Lines share text, which the loop renders once per pass and keeps in
memos: a packet's text, with its newline, ends every DELIVER and
BROADCAST line of that packet as a chunk of its own (keyed by the
packet's id); a HELLO's text ends its line and recurs in its packets
(by id), as a TC map's does in its TC's text (by id); every line of one
TC origination shares its text before and after the sender
(messages.render_tc_parts), keyed by (originator, seq); a route's
text is keyed by the Route itself; and a BROADCAST's to= list by its
recipient frozenset, which a sender's broadcasts share, so a hit is
an identity match on a cached hash. Ids are stable and distinct, as the
trace holds every object. Each line is one f-string of its own fields
and memo hits, with no helper call per message: a TC, on its own line
or in a packet, is its origination's head, its sender and its
origination's tail, and a packet's text is built inline at its first
BROADCAST or DELIVER. Joining every chunk at once holds them all
until the join; joining per batch holds the batch strings instead, a
second copy of the text. A fresh process rendering a 10x10 grid's
300-tick trace peaked at 255 MB RSS joined once, and at 303 MB joined
per batch.

A tick records its events per node: each DELIVER in its recipient's
list (phase 1, by sender), each router's own events and its BROADCAST
in that router's list (phase 2), each LINK_EVENT in its src's list
(phase 3). At the tick's end the lists join the trace in ascending
node order, each in emission order, with no sort: a router records
only its own events, so the trace's order is the same whatever
phase 2's order. Each router's trace callback is bound once, when the
Network is built, to its node's list, and carries the router's own
clock, which phase 4 keeps equal to the network's. No router records
an event between ticks of a run; one recorded there (a test's call to
run_update_info, say) joins the next tick's trace, stamped with that
tick. Every event is built with _event, from all five fields.

Ground truth, Network.out, is held by sender, sender -> {recipient:
metric}, one row per router, so a broadcast reads its recipients and
their metrics off the sender's row in O(degree). Phase 3 is the only
writer of out. Broadcasts in flight are held by delivery tick, as
tick -> [(sender, packet, snapshot)]: snapshot is the sender's row
at send time, as (its recipients as a frozenset, its (recipient,
metric) pairs in recipient order). BROADCAST's payload holds the
frozenset, and phase 1 walks the pairs. One snapshot serves every
broadcast of a sender until phase 3 writes the sender's row, which
drops it; the next broadcast builds a new one. While a snapshot is
its sender's current one, its metrics are the row's; once dropped,
phase 1 reads each metric off the row, and the snapshot's is the
fallback measurement for a link gone mid-flight.

The cycle collector is paused while the network runs: Network.run
and checkers.run_to_convergence, whose loop allocates between ticks,
run their loops in collector_paused; a caller that ticks by hand
leaves it as set. Network.run pauses between its ticks for code that
runs there: a wrapper round tick, a tracer's say, that allocates one
object after each tick would otherwise start a collection over all
that the tick allocated (42 in 300 ticks of a 4x4 grid). Each one
restores the state it found, enabled or not, also when a step raises,
so they nest.
The pause rests on a run making no reference cycles: no router or
emitter holds the Network, so reference counting frees everything a
run drops, and the tests check that the collector finds nothing.
Left running, the collector would start over a hundred collections
per thousand ticks of a 4x4 grid, each walking the trace (NamedTuple
events and TCs stay tracked, as CPython untracks only exact tuples),
and reclaim nothing. Set-up and rendering are not paused: there a
pause would only move the one collection their allocations start.
"""
from __future__ import annotations

import gc
import random
import re
from dataclasses import dataclass
from functools import partial
from itertools import chain
from operator import itemgetter
from typing import Iterable, Iterator, NamedTuple, Optional

from . import messages, topology
from .engine import Router, RouterConfig, validate_config
from .messages import Metric, NodeId, Packet, Tc, TimeValue
# the render loop builds packets inline; bench/run.py's tracer wraps
# simnet.render_packet, so the name stays bound here
from .messages import render_packet  # noqa: F401


class ScenarioError(ValueError):
    """Scenario content is structurally or semantically invalid."""


PARAM_NAMES = frozenset({
    "lb", "delta_b", "seed", "ticks", "metric_noise",
    "hp_maxjitter", "tp_maxjitter", "hello_interval", "tc_interval",
    "h_hold_time", "t_hold_time", "l_hold_time",
})
# read once for the whole network, so never spelled <node>.<name>
NETWORK_PARAMS = frozenset({"lb", "delta_b", "seed", "ticks",
                            "metric_noise"})
FLAG_NAMES = frozenset({"bug_rfc7181", "flood_all",
                        "process_tc_from_unknown"})
EVENT_KINDS = ("linkup", "linkdown", "metric")
_ID = re.compile(r"[A-Za-z0-9_-]+\Z")


# The rules of a valid scenario, for cli.parse_scenario and the library
def check_node(nid, nodes) -> None:
    if not (isinstance(nid, str) and _ID.match(nid)):
        raise ScenarioError(f"bad node id {nid!r}")
    if nid in nodes:
        raise ScenarioError(f"duplicate node id: {nid}")


def check_declared(nid, nodes) -> None:
    if nid not in nodes:
        raise ScenarioError(f"undeclared node {nid!r}")


def check_int(value, what) -> None:
    """The parser hands over a token that is no decimal integer as its
    text; the message shows it unquoted, so both paths say the same."""
    if type(value) is not int:
        raise ScenarioError(f"{what} must be a decimal integer, got {value}")


def check_link(src, dst, metric, nodes, dsts=()) -> None:
    """dsts: the nodes src already links to."""
    check_declared(src, nodes)
    check_declared(dst, nodes)
    if src == dst:
        raise ScenarioError(f"self-loop link on {src}")
    if dst in dsts:
        raise ScenarioError(f"duplicate link {src}->{dst}")
    check_int(metric, "metric")
    if metric < 1:
        raise ScenarioError(f"metric must be >= 1, got {metric}")


def check_event(ev, nodes) -> None:
    """Each kind names a link; only a linkdown carries no metric."""
    check_int(ev.time, "event tick")
    if ev.time < 0:
        raise ScenarioError(f"event tick must be >= 0, got {ev.time}")
    if ev.kind not in EVENT_KINDS:
        raise ScenarioError(f"unknown event kind {ev.kind!r}")
    down = ev.kind == "linkdown"
    if down and ev.metric is not None:
        raise ScenarioError(f"a linkdown carries no metric, got {ev.metric}")
    check_link(ev.src, ev.dst, 1 if down else ev.metric, nodes)


def check_param(name, value, nodes) -> None:
    node, _, base = name.rpartition(".")
    if base not in PARAM_NAMES:
        raise ScenarioError(f"unknown param {base!r}")
    if node:
        check_declared(node, nodes)
        if base in NETWORK_PARAMS:
            raise ScenarioError(f"param {base} is network-wide;"
                                f" it has no per-node form {name!r}")
    check_int(value, f"param {name}")
    if base in ("ticks", "metric_noise") and value < 0:
        raise ScenarioError(f"param {name} must be >= 0, got {value}")


def check_offset(nid, ticks, nodes) -> None:
    """ticks: nid's (hello, tc) offsets."""
    check_declared(nid, nodes)
    if type(ticks) is not tuple or len(ticks) != 2:
        raise ScenarioError(f"offset {nid} must be (hello, tc), got {ticks!r}")
    check_int(ticks[0], "hello offset")
    check_int(ticks[1], "tc offset")


def check_flag(name, value) -> None:
    if name not in FLAG_NAMES:
        raise ScenarioError(f"unknown flag {name!r}")
    if type(value) is not bool:
        raise ScenarioError(f"flag {name} must be on or off, got {value!r}")


@dataclass(frozen=True)
class NetworkParams:
    """Checked by engine.validate_config, which build_network runs."""
    lb: int
    delta_b: int
    seed: int


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


# A TraceEvent from a tuple of all five fields, built in C: NamedTuple's
# generated __new__ runs Python code, once per delivery and message.
_event = partial(tuple.__new__, TraceEvent)
_SENDER = itemgetter(0)
_BATCH = 1000  # events per chunk list, and per string trace_batches yields


def _emitter(node: NodeId, append):
    """The trace(tick, kind, payload) of node's router: records a
    TraceEvent through append, node's list's. It holds no Network, so
    a network forms no reference cycle and is freed once dropped."""
    def emit(tick: TimeValue, kind: str, payload) -> None:
        append(_event((tick, node, kind, payload, None)))
    return emit


def _chunk_lists(trace: list) -> Iterator[list]:
    """The text of trace, a list of TraceEvents, as one list of chunks
    per _BATCH events; the module docstring says what is shared and
    memoised. Ids are stable and distinct, as the trace holds every
    object; no text is empty, so get() is falsy on a miss."""
    tcs: dict = {}    # (originator, seq) -> a TC's text around its sender
    texts: dict = {}  # id -> a HELLO's, TC map's or packet's text
    routes: dict = {}  # Route -> its text
    tos: dict = {}  # a BROADCAST's recipient frozenset -> its text
    get_tc, get_text, get_route, get_to = (tcs.get, texts.get, routes.get,
                                           tos.get)

    def tc_parts(msg: Tc) -> tuple:
        dests = get_text(id(msg.dests))
        if dests is None:
            dests = texts[id(msg.dests)] = messages.render_dests(msg.dests)
        parts = tcs[msg.originator, msg.seq] = messages.render_tc_parts(
            msg, dests)
        return parts

    def hello(msg) -> str:
        text = texts[id(msg)] = messages.render_message(msg, msg.originator)
        return text

    def packet(pkt: Packet, sender: NodeId) -> str:
        """pkt's text as sender broadcast it, with the line's newline."""
        msgs = []
        for msg in pkt:
            if type(msg) is Tc:
                head, tail = get_tc((msg.originator, msg.seq)) or tc_parts(msg)
                msgs.append(head + sender + tail)
            else:
                msgs.append(get_text(id(msg)) or hello(msg))
        text = texts[id(pkt)] = "[" + "; ".join(msgs) + "]\n"
        return text

    for i in range(0, len(trace), _BATCH):
        chunks: list = []
        add = chunks.append
        for tick, node, kind, p, pkt in trace[i:i + _BATCH]:
            if kind == "DELIVER":
                add(f"t={tick} n={node} ev=DELIVER from={p[0]} m={p[1]}"
                    " pkt=")
                add(get_text(id(pkt)) or packet(pkt, p[0]))
            elif kind == "TC_FWD" or kind == "TC_GEN":
                head, tail = get_tc((p.originator, p.seq)) or tc_parts(p)
                add(f"t={tick} n={node} ev={kind} {head}{node}{tail}\n")
            elif kind == "BROADCAST":
                to = get_to(p[1])
                if to is None:
                    to = tos[p[1]] = ",".join(sorted(p[1]))
                add(f"t={tick} n={node} ev=BROADCAST d={p[0]} to={{{to}}}"
                    " pkt=")
                add(get_text(id(pkt)) or packet(pkt, node))
            elif kind == "HELLO_GEN":
                add(f"t={tick} n={node} ev=HELLO_GEN"
                    f" {get_text(id(p)) or hello(p)}\n")
            elif kind == "ROUTE_CHANGE":
                rs = "; ".join([get_route(r) or routes.setdefault(
                    r, topology.render_route(r)) for r in p])
                add(f"t={tick} n={node} ev=ROUTE_CHANGE rs=[{rs}]\n")
            elif kind == "LINK_EVENT":
                m = "" if p.kind == "linkdown" else f" m={p.metric}"
                add(f"t={tick} n={node} ev=LINK_EVENT {p.kind}"
                    f" dst={p.dst}{m}\n")
            else:
                raise ValueError(f"unknown trace event kind: {kind}")
        yield chunks


def trace_batches(trace: list) -> Iterator[str]:
    """The text of trace, one string per _BATCH events, for a writer."""
    for chunks in _chunk_lists(trace):
        yield "".join(chunks)


class collector_paused:
    """Pauses the cycle collector for a with block. Each exit's last act
    restores the state found: an allocation after it could collect."""
    def __enter__(self) -> None:
        self.enabled = gc.isenabled()
        gc.disable()

    def __exit__(self, *exc) -> None:
        if self.enabled:
            gc.enable()


class Network:
    """routers, keyed by node, is the node set and out its ground truth.
    build_network checks the scenario; this only replays the events."""

    def __init__(self, params: NetworkParams, out: dict, routers: dict,
                 events: Iterable[TopologyEvent] = (), metric_noise: int = 0):
        self.out = {n: out.get(n, {}) for n in routers}  # a row per node
        self.params = params
        self.routers = routers
        self._step_order = sorted(routers)  # phase 2's order
        self.events = sorted(events, key=lambda e: (e.time, e.src, e.dst))
        # replay every event over the links that are up: a linkup needs
        # its link absent, a linkdown or metric present
        up = {(a, b) for a, row in self.out.items() for b in row}
        for ev in self.events:
            link = (ev.src, ev.dst)
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
        self._snapshots: dict = {}  # sender -> snapshot of its row now
        self._busy_until = dict.fromkeys(routers, 0)  # node -> delivery tick
        self.trace: list = []
        # node -> the node's events this tick, nodes in ascending order
        self._tick_events = {n: [] for n in sorted(routers)}
        self._adds = {n: evs.append for n, evs in self._tick_events.items()}
        for nid, router in routers.items():
            router.trace = _emitter(nid, self._adds[nid])
        self._dur_rng = {n: random.Random(f"{params.seed}/{n}/dur")
                         for n in routers}
        # only a noisy delivery draws from it (phase 1)
        self._noise_rng = {n: random.Random(f"{params.seed}/{n}/noise")
                           for n in routers} if metric_noise else {}

    # -- helpers ----------------------------------------------------------

    def busy(self, node: NodeId) -> bool:
        return self.clock < self._busy_until.get(node, 0)

    # -- one global tick ---------------------------------------------------

    def tick(self) -> None:
        """Advance the whole network by one time unit."""
        clock = self.clock
        adds, snapshots = self._adds, self._snapshots
        routers, out = self.routers, self.out

        # phase 1: deliveries due now, canonical order by sender
        noise = self.metric_noise
        due = self.inflights.pop(clock, ())
        for sender, packet, snapshot in sorted(due, key=_SENDER):
            pairs = snapshot[1]
            if snapshots.get(sender) is not snapshot:  # row written
                row = out[sender]
                pairs = [(r, row.get(r, m)) for r, m in pairs]
            for r, m in pairs:
                if noise:
                    m = self._noise_rng[r].randint(max(1, m - noise),
                                                   m + noise)
                routers[r].enqueue_delivery(packet, m, sender)
                adds[r](_event((clock, r, "DELIVER", (sender, m), packet)))

        # phase 2: per-router steps
        busy_until = self._busy_until
        for nid in self._step_order:
            if clock < busy_until[nid]:
                continue
            packet = routers[nid].step_main()
            if packet is not None:
                d = self.params.lb + self._dur_rng[nid].randrange(
                    self.params.delta_b + 1)
                snapshot = snapshots.get(nid)
                if snapshot is None:
                    row = out[nid]
                    snapshot = snapshots[nid] = (
                        frozenset(row), sorted(row.items()))
                self.inflights.setdefault(clock + d, []).append(
                    (nid, packet, snapshot))
                busy_until[nid] = clock + d
                adds[nid](_event((clock, nid, "BROADCAST",
                                  (d, snapshot[0]), packet)))

        # phase 3: this tick's topology events, checked when built;
        # sorted by time from tick 0, the due ones start at the cursor
        evs, i = self.events, self._next_event
        while i < len(evs) and evs[i].time == clock:
            ev = evs[i]
            if ev.kind == "linkdown":
                del out[ev.src][ev.dst]
            else:  # linkup or metric
                out[ev.src][ev.dst] = ev.metric
            snapshots.pop(ev.src, None)  # the row changed
            adds[ev.src](_event((clock, ev.src, "LINK_EVENT", ev, None)))
            i += 1
        self._next_event = i

        # phase 4: clocks advance
        self.clock += 1
        for router in self.routers.values():
            router.now += 1

        trace = self.trace
        for recorded in self._tick_events.values():  # in node order
            if recorded:
                trace += recorded
                recorded.clear()

    def run(self, ticks: int) -> None:
        with collector_paused():  # between ticks too
            for _ in range(ticks):
                self.tick()

    def render_trace(self) -> str:
        """The trace's text, every chunk joined once."""
        return "".join(chain.from_iterable(_chunk_lists(self.trace)))

def build_network(scenario) -> Network:
    """Instantiate routers and ground truth from a parsed scenario.

    The scenario is duck-typed (see cli.Scenario): nodes, links, events,
    offsets, flags, and a params mapping with optional per-node
    overrides spelled "<node>.<name>", checked as the parser's lines are.
    """
    nodes = list(scenario.nodes)
    if not nodes:
        raise ScenarioError("scenario declares no node")
    declared: set = set()
    for n in nodes:
        check_node(n, declared)
        declared.add(n)
    for name, value in scenario.params.items():
        check_param(name, value, declared)
    for name, value in scenario.flags.items():
        check_flag(name, value)
    out: dict = {}
    for (src, dst, m) in scenario.links:
        check_link(src, dst, m, declared, out.get(src, ()))
        out.setdefault(src, {})[dst] = m
    for n, ticks in scenario.offsets.items():
        check_offset(n, ticks, declared)
    for ev in scenario.events:
        check_event(ev, declared)

    def param(name, default, node=None):
        if node is not None and f"{node}.{name}" in scenario.params:
            return scenario.params[f"{node}.{name}"]
        return scenario.params.get(name, default)

    lb = param("lb", 1)
    delta_b = param("delta_b", 0)
    seed = param("seed", 1)
    params = NetworkParams(lb=lb, delta_b=delta_b, seed=seed)

    routers = {}
    for n in nodes:
        hello_interval = param("hello_interval", 10, n)
        tc_interval = param("tc_interval", 30, n)
        tc_default = ((2 * (lb + delta_b) + 1) * (len(nodes) - 1)
                      - (lb + 1) + tc_interval + 1)
        cfg = RouterConfig(
            ip=n,
            hp_maxjitter=param("hp_maxjitter", 2, n),
            tp_maxjitter=param("tp_maxjitter", 2, n),
            h_hold_time=param("h_hold_time",
                              lb + 2 * delta_b + hello_interval + 1, n),
            t_hold_time=param("t_hold_time", tc_default, n),
            l_hold_time=param("l_hold_time", 10, n),
            hello_interval=hello_interval,
            tc_interval=tc_interval,
        )
        validate_config(cfg, lb, delta_b, len(nodes))
        if n in scenario.offsets:
            hello_off, tc_off = scenario.offsets[n]
        else:
            rng = random.Random(f"{seed}/{n}/offset")
            hello_off = rng.randrange(cfg.hello_interval + 1)
            tc_off = rng.randrange(cfg.tc_interval + 1)
        routers[n] = Router(
            cfg, jitter_rng=random.Random(f"{seed}/{n}/jitter"),
            hello_offset=hello_off, tc_offset=tc_off,
            bug_mode=scenario.flags.get("bug_rfc7181", False),
            flood_all=scenario.flags.get("flood_all", False),
            process_tc_from_unknown=scenario.flags.get(
                "process_tc_from_unknown", False))
    return Network(params, out, routers, scenario.events,
                   metric_noise=param("metric_noise", 0))
