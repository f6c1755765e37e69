"""One router's protocol state machine.

The router advances in discrete ticks under a lock-step scheduler (see
simnet). Within a tick all intranode work is zero-time: the step makes
one pass decision, then either starts the due broadcast or drains its
queue of delivered packets message by message and possibly generates
HELLO/TC messages. Starting a broadcast is the only action that
consumes time, so such a step ends at once and the node stays
transmission-busy until the packet is delivered.

Scheduling of periodic generation deserves a note. The protocol guard
admits any tick in [deadline - maxjitter, deadline]; we draw a jitter J
per period and aim at fire = deadline - J, firing at the first tick the
guards allow at or after that (catch-up). Additionally, when a step
ends with a broadcast scheduled for the next tick and the window is
already open, the message is generated now and rides that packet
(piggyback). The catch-up handles fire ticks swallowed by a busy
window; the piggyback handles the case where a forwarded packet would
otherwise occupy the transmitter through the rest of the window. With
the parameter constraint maxjitter > LB + dB, the two rules together
guarantee the deadline is never crossed; the engine still checks the
deadline at every generation and raises if the argument ever fails.

A generated HELLO equal to the router's last one, or TC map equal to
its last map, is replaced by that object, which the trace renders once
(see simnet). Equal is key for key in order, as process_hello walks a
HELLO's names in order: make_hello fills the four maps in one walk of
the link set and statuses names every link, so equal HELLOs whose
statuses share their order share it in every map. Built messages are
never mutated.

A HELLO is built only when the view of the link set make_hello reads
may have changed since the last build: per link tuple, in ls order,
oip, status(now), the MPR flags, in_metric unless LOST and out_metric
if SYMMETRIC. Three writes mark it: process_hello creating a tuple,
or changing a tuple's status at the write or its out_metric, and any
full pass (the purge and the MPR-flag updates are the only other
writers of ls). Otherwise a status changes only when the clock
reaches a symmetric or heard time, and the first step at or after a
stored time runs the full pass before it generates (see below): the
pass is the HELLO's clock. Without a mark the last HELLO is sent
again. A receiver remembers per originator the last HELLO whose 2-hop
walk ran and the names it lists SYMMETRIC. Given that object again
over a SYMMETRIC link, it only refreshes those names' 2-hop tuples,
re-creating any purged since: messages are never mutated, only the
originator's HELLOs write its 2-hop tuples, and a walk skipped while
the link was not SYMMETRIC wrote nothing, so every other tuple the
HELLO names already holds its metrics.

Consistency is restored by a maintenance pass, and the pass is its own
check: run while nothing is pending, it changes no state (idempotence),
and after it nothing is pending. The clock enters updates_pending()
only through threshold comparisons (t <= now, t > now) against stored
times: each link tuple's symmetric, heard and validity time, and the
validity time of every 2-hop tuple and topology-set entry.
So after a pass nothing is pending until the state is written in a
way the predicate can see, or the clock reaches the smallest stored
time that was still in the future.

A write marks a pass only when it can change what a pass does. A HELLO
sets the dirty bit, which marks the full pass, when its link tuple
enters or leaves SYMMETRIC, changes its MPR-selector flags, or changes
its out_metric while SYMMETRIC; when it creates a link tuple that is
SYMMETRIC, carries a selector flag or has already expired; or when it
creates a 2-hop tuple or changes its metrics. A TC that changes the
advertised rows marks only the pass's topology half, which recomputes
routes over the rows: neither the MPR sets nor ansn read them. The
full pass purges the topology set before that half, and a
topology-only pass meets no expired row, since the clock reaching a
row's validity time makes the full pass due. Times aside, these are
the only inputs of updates_pending() the two write. Any other write
only moves stored times, and lowers the "next expiry" tick to each new
time that is in the future. A refresh can also move a time that next
expiry still points at, so when now reaches it the smallest stored
time after the last full pass is looked up again. step_main runs the
full pass when the bit is set or now has reached that time, and
otherwise the topology half alone when a TC marked it; the full pass
ends with the same half. It decides once per step: after that, a write
moves next expiry only past now, so only the two marks can make a pass
due, and the step checks them after each message. The full predicate
is the tests' oracle: they assert that a skipped pass had nothing
pending, that nothing is pending after a pass, full or topology-only,
and that a pass entered with nothing pending changes nothing.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Optional

from . import neighborhood, topology
from .messages import (INF, NEG_INF, Hello, MprRole, NodeId, Packet,
                       Status, Tc, TimeValue, make_hello, make_tc)
# unused here; bound for the benchmark's tracer, which wraps it by name
from .messages import render_message  # noqa: F401
from .neighborhood import LinkSet, LinkTuple, TwoHopSet, TwoHopTuple
from .topology import RoutingSet


class ConfigError(ValueError):
    """A parameter set violates the timing constraint chain."""


class EngineDiagnostic(RuntimeError):
    """Internal invariant broken; the simulation cannot proceed."""


@dataclass(frozen=True)
class RouterConfig:
    ip: NodeId
    hp_maxjitter: int
    tp_maxjitter: int
    h_hold_time: int
    t_hold_time: int
    l_hold_time: int
    hello_interval: int
    tc_interval: int


def validate_config(cfg: RouterConfig, lb: int, delta_b: int,
                    node_count: int) -> None:
    """Check the full constraint chain; raise naming the failed inequality.

    The chain keeps jitter windows wide enough to absorb transmission
    busy-spans and hold times long enough that information cannot
    expire between refreshes.
    """
    checks = [
        (0 < lb, "0 < LB"),
        (delta_b >= 0, "ΔB >= 0"),
        (lb + delta_b < cfg.hp_maxjitter, "LB + ΔB < hp_maxjitter"),
        (cfg.hp_maxjitter < cfg.hello_interval, "hp_maxjitter < hello_interval"),
        (lb + 2 * delta_b + cfg.hello_interval < cfg.h_hold_time,
         "LB + 2ΔB + hello_interval < h_hold_time"),
        (lb + delta_b < cfg.tp_maxjitter, "LB + ΔB < tp_maxjitter"),
        (cfg.tp_maxjitter < cfg.tc_interval, "tp_maxjitter < tc_interval"),
        ((2 * (lb + delta_b) + 1) * (node_count - 1) - (lb + 1)
         + cfg.tc_interval < cfg.t_hold_time,
         "(2(LB+ΔB)+1)(|IP|-1) - (LB+1) + tc_interval < t_hold_time"),
        (0 <= cfg.l_hold_time, "0 <= l_hold_time"),
    ]
    for ok, name in checks:
        if not ok:
            raise ConfigError(f"constraint violated: {name}")


class Router:
    """Mutable protocol state plus the step functions operating on it."""

    def __init__(self, cfg: RouterConfig, *, jitter_rng: random.Random,
                 hello_offset: int = 0, tc_offset: int = 0,
                 start_time: int = 0, bug_mode: bool = False,
                 flood_all: bool = False,
                 process_tc_from_unknown: bool = False):
        if not (0 <= hello_offset <= cfg.hello_interval):
            raise ConfigError("constraint violated: now <= hello_time <= now + hello_interval")
        if not (0 <= tc_offset <= cfg.tc_interval):
            raise ConfigError("constraint violated: now <= tc_time <= now + tc_interval")
        self.cfg = cfg
        self.ip = cfg.ip
        self.bug_mode = bug_mode
        self.flood_all = flood_all
        self.process_tc_from_unknown = process_tc_from_unknown

        # sigma: the mutable protocol variables
        self.ls: LinkSet = {}
        self.twohop_set: TwoHopSet = {}
        self.rts: dict = {}  # originator -> (validity, ansn, rows)
        self.rs: RoutingSet = {}
        self.ps: set = set()
        self.rxs: set = set()
        self.pkt: Packet = []
        self.mqueue: list = []  # QUEUE: (packet, measured in_metric)
        self.now: TimeValue = start_time
        self.hello_time: TimeValue = start_time + hello_offset
        self.tc_time: TimeValue = start_time + tc_offset
        self.send_time: TimeValue = INF
        self.sqn = 0
        self.ansn = 0
        self.advertised = frozenset()  # rmpr selectors at the last pass
        self._hello, self._tc_map = None, {}  # the last HELLO and TC map
        # a write or a full pass since the last HELLO build
        self._hello_stale = True
        # originator -> (the last HELLO whose 2-hop walk ran, the names
        # it lists SYMMETRIC)
        self._walked: dict = {}

        self._rng = jitter_rng
        self._hello_fire = self.hello_time - self._rng.randrange(cfg.hp_maxjitter)
        self._tc_fire = self.tc_time - self._rng.randrange(cfg.tp_maxjitter)
        # a write since the last maintenance pass that can change what
        # the full pass does, one that only its topology half can act
        # on, the tick of the last full pass, and a tick no later than
        # the smallest stored time after it
        self._dirty = True
        self._topology_dirty = False
        self._last_pass: TimeValue = NEG_INF
        self._next_expiry: TimeValue = NEG_INF
        # last verified-optimal (link universe, routing set) pair and the
        # universe's distances from ip, which the next pass repairs over
        # the rows that changed (topology.repair_distances). The universe
        # holds rts's row maps, which are never mutated, so a row not
        # replaced since compares by identity.
        self._opt_edges: Optional[dict] = None
        self._opt_rs: Optional[dict] = None
        self._opt_dist: Optional[dict] = None
        # trace(kind, payload): the typed event simnet records and
        # renders only on output (see simnet for each kind's payload)
        self.trace: Callable = lambda kind, payload: None

    # -- consistency ----------------------------------------------------

    def updates_pending(self) -> bool:
        """True when any information-base maintenance act would change state.

        Equivalent to disjoining "purge would shrink a set" for the three
        timed sets, "a flagged MPR set fails its distance equality",
        "ansn is stale", and "the routing set is not optimal". The
        equality-based phrasing (set != purge(set)) is what the tests
        check this against. step_main never asks it: it is the oracle
        the tests hold the maintenance pass and its scheduling to. It
        only reads the optimality memo, so asking it changes no pass.
        """
        now = self.now
        for lt in self.ls.values():
            if lt.validity_time <= now:
                return True
            if lt.status(now) != Status.SYMMETRIC and (
                    lt.fmpr or lt.rmpr or lt.fmpr_selector or lt.rmpr_selector):
                return True
        for n2 in self.twohop_set.values():
            if n2.validity_time <= now:
                return True
            anchor = self.ls.get(n2.one_hop_oip)
            if anchor is None or anchor.status(now) != Status.SYMMETRIC:
                return True
        flagged_f = frozenset(o for o, lt in self.ls.items() if lt.fmpr)
        if not neighborhood.is_valid_fmpr_set(self.ls, self.twohop_set, now,
                                              flagged_f):
            return True
        flagged_r = frozenset(o for o, lt in self.ls.items() if lt.rmpr)
        if not neighborhood.is_valid_rmpr_set(self.ls, self.twohop_set, now,
                                              flagged_r, self.bug_mode):
            return True
        if self.ansn != topology.increment_ansn(self.ls, self.advertised,
                                                self.ansn):
            return True
        for vt, _, _ in self.rts.values():
            if vt <= now:
                return True
        edges = topology.link_universe(self.ip, self.ls, self.rts, now)
        if edges == self._opt_edges and self.rs == self._opt_rs:
            return False
        return not topology.is_optimal_over(self.ip, edges, self.rs)

    def _maintenance_due(self) -> bool:
        """Is the full pass due: was state written that it can act on,
        or a stored time reached, since the last full pass?

        A HELLO that can change what the full pass does sets the dirty
        bit. A TC that changed rows does not: it marks only the topology
        half, which step_main runs on its own when this says no. A write
        that only moves stored times lowers _next_expiry to them. A
        refresh may since have moved the time _next_expiry was set for,
        so once now reaches it the smallest stored time after the last
        full pass is looked up again, and the pass runs only if now has
        reached that one too. >= because a busy router skips ticks.
        step_main asks only once the bit is set or now has reached
        _next_expiry, so without the bit this always looks it up.
        """
        if self._dirty:
            return True
        self._next_expiry = self._expiry_after(self._last_pass)
        return self.now >= self._next_expiry

    def _expiry_after(self, now: TimeValue) -> TimeValue:
        """The smallest stored time updates_pending compares that is > now."""
        nxt = INF
        for lt in self.ls.values():
            for t in (lt.symmetric_time, lt.heard_time, lt.validity_time):
                if now < t < nxt:
                    nxt = t
        for n2 in self.twohop_set.values():
            if now < n2.validity_time < nxt:
                nxt = n2.validity_time
        for vt, _, _ in self.rts.values():
            if now < vt < nxt:
                nxt = vt
        return nxt

    def run_update_info(self) -> None:
        """The full pass: purge the neighbourhood sets, reselect MPRs,
        refresh ansn, purge rts, then the topology half (in order).

        Afterwards nothing is pending until the next write or until the
        clock reaches the new _next_expiry. The pass may rewrite ls, and
        a status may have changed since the last HELLO build because the
        clock reached a stored time, so the next HELLO is built.
        """
        now = self.now
        self._hello_stale = True
        neighborhood.purge_link_set(self.ls, now)
        neighborhood.purge_2hop_set(self.ls, self.twohop_set, now)
        neighborhood.update_fmprs(self.ls, self.twohop_set, now)
        neighborhood.update_rmprs(self.ls, self.twohop_set, now,
                                  self.bug_mode)
        self.ansn = topology.increment_ansn(self.ls, self.advertised,
                                            self.ansn)
        self.advertised = topology.rmpr_selectors(self.ls)
        topology.purge_router_topology(self.rts, now)
        self.run_topology_update()
        self._dirty = False
        self._last_pass = now
        self._next_expiry = self._expiry_after(now)

    def run_topology_update(self) -> None:
        """The topology half of the pass: recompute routes over rts.

        Neither the MPR sets nor ansn read rts, so after a TC that
        changed rows, with no other write and no stored time reached,
        this half alone restores consistency. It acts only on rows: no
        row has expired, as a reached validity time runs the full pass,
        which purges rts first.
        """
        now = self.now
        self._topology_dirty = False
        ip, rs = self.ip, self.rs
        edges = topology.link_universe(ip, self.ls, self.rts, now)
        dist = None
        if self._opt_edges is not None and rs == self._opt_rs:
            dist = topology.repair_distances(self._opt_edges, edges,
                                             self._opt_dist)
            if dist is self._opt_dist:
                # the distances hold, so rs is still optimal
                self._opt_edges = edges
                return
        if dist is None:
            dist = topology._dijkstra(edges, ip)
            new_rs = topology.update_routing_set(ip, edges, rs, dist)
        else:  # a distance fell, so rs is not optimal
            new_rs = topology.choose_optimal(ip, edges, dist)
        if new_rs != rs:
            self.rs = new_rs
            self.trace("ROUTE_CHANGE",
                       tuple(new_rs[d] for d in sorted(new_rs)))
        self._opt_edges, self._opt_rs = edges, dict(self.rs)
        self._opt_dist = dist

    # -- message processing ----------------------------------------------

    def process_hello(self, msg: Hello, in_metric) -> None:
        """Apply a HELLO to the sender's link tuple, then its 2-hop tuples.

        The steps follow RFC 6130 section 12: create the link tuple if
        new, adopt the sender's measurement of us as out_metric, refresh
        or tear down the symmetric time, refresh heard and validity
        times, record MPR selection; then, if the link is symmetric,
        create, re-measure and refresh the 2-hop tuples for the
        addresses the HELLO names.
        """
        if not isinstance(msg, Hello):
            raise TypeError("process_hello requires a HELLO message")
        if in_metric == INF:
            raise EngineDiagnostic("measured in_metric must be finite")
        now, ip, vtime = self.now, self.ip, msg.validity
        htime = self.cfg.l_hold_time
        moip = msg.originator
        lt = self.ls.get(moip)
        created = lt is None
        if created:
            lt = LinkTuple(moip, NEG_INF, NEG_INF, now + vtime,
                           False, False, False, False, in_metric, INF)
        sym_time, validity = lt.symmetric_time, lt.validity_time
        st = msg.statuses.get(ip)
        if st is not None and st != Status.LOST:
            sym_time = now + vtime
        elif st == Status.LOST and sym_time > now:
            # a symmetric link the sender reports LOST is downgraded but
            # kept around for l_hold_time more ticks
            sym_time, validity = NEG_INF, now + htime
        heard_time = max(now + vtime, sym_time)
        # an MPR announcement selects us; a SYMMETRIC listing without
        # one withdraws the selection; anything else leaves it alone
        role = msg.mprs.get(ip)
        keep = st != Status.SYMMETRIC
        fsel = (role in (MprRole.FLOODING, MprRole.FLOOD_ROUTE)
                or (keep and lt.fmpr_selector))
        rsel = (role in (MprRole.ROUTING, MprRole.FLOOD_ROUTE)
                or (keep and lt.rmpr_selector))
        new = LinkTuple(
            moip, sym_time, heard_time, max(heard_time + htime, validity),
            lt.fmpr, lt.rmpr, fsel, rsel, lt.in_metric,
            msg.in_metrics.get(ip, lt.out_metric))
        self.ls[moip] = new
        # a pass reads a link's status only as "SYMMETRIC or not", and
        # its out_metric only while it is SYMMETRIC; a created tuple
        # starts out LOST with no flags and an infinite out_metric
        status = new.status(now)
        sym = status == Status.SYMMETRIC
        old_status = lt.status(now)
        dirty = (sym != (old_status == Status.SYMMETRIC)
                 or fsel != lt.fmpr_selector or rsel != lt.rmpr_selector
                 or (sym and new.out_metric != lt.out_metric)
                 or new.validity_time <= now)
        # what this router's next HELLO says of the link
        if (created or status != old_status
                or new.out_metric != lt.out_metric):
            self._hello_stale = True
        written = [sym_time, heard_time, new.validity_time]
        if sym_time > now:
            ths = self.twohop_set
            walked = self._walked.get(moip)
            if walked is not None and walked[0] is msg:
                # a repeat: the other tuples it names hold its metrics
                vt = now + vtime
                for x in walked[1]:
                    n2 = ths.get((moip, x))
                    if n2 is None:  # purged since: re-create it
                        dirty = True
                        ths[(moip, x)] = TwoHopTuple(
                            moip, x, vt, msg.in_metrics.get(x, INF),
                            msg.out_metrics.get(x, INF))
                    else:
                        ths[(moip, x)] = TwoHopTuple(
                            moip, x, vt, n2.in_metric, n2.out_metric)
                if walked[1]:
                    written.append(vt)
            else:
                listed = []
                # every address the HELLO names, in message order
                for x in {**msg.statuses, **msg.in_metrics,
                          **msg.out_metrics}:
                    listed_sym = (x != ip and msg.statuses.get(x)
                                  == Status.SYMMETRIC)
                    n2 = ths.get((moip, x))
                    if n2 is None:
                        if not listed_sym:
                            continue
                        dirty = True
                        n2 = TwoHopTuple(moip, x, NEG_INF, INF, INF)
                    if listed_sym:
                        listed.append(x)
                    new2 = TwoHopTuple(
                        moip, x,
                        now + vtime if listed_sym else n2.validity_time,
                        msg.in_metrics.get(x, n2.in_metric),
                        msg.out_metrics.get(x, n2.out_metric))
                    ths[(moip, x)] = new2
                    dirty = dirty or (new2.in_metric != n2.in_metric
                                      or new2.out_metric != n2.out_metric)
                    written.append(new2.validity_time)
                self._walked[moip] = (msg, listed)
        if dirty:
            self._dirty = True
        else:
            # only times moved: nothing is pending until one is reached
            for t in written:
                if now < t < self._next_expiry:
                    self._next_expiry = t

    def process_tc(self, msg: Tc) -> None:
        """Process a TC, then forward it; each step at most once per
        (originator, seq).

        The process step stores the rows of a TC not processed before
        (not in ps), when its sender is a SYMMETRIC neighbor or
        process_tc_from_unknown is set. The forward step records a TC
        from a SYMMETRIC sender as received (rxs) and, if that sender
        selected us as flooding MPR or flood_all is set, queues a copy.
        Both logs take the one (originator, seq) key built here, and the
        copy is built here too: msg with us as sender, sharing its dests.

        A copy already in rxs returns at once, before the sender's link
        is read, and writes nothing: rxs is a subset of ps. A key
        enters rxs only in the forward step, which is reached only with
        a SYMMETRIC sender, and with such a sender the process step has
        put the key in ps by then. So both steps would drop the copy
        anyway. Otherwise the sender's status is read once and serves
        both steps.
        """
        if not isinstance(msg, Tc):
            raise TypeError("process_tc requires a TC message")
        moip, seq = msg.originator, msg.seq
        if moip == self.ip:
            return  # own message echoed back; drop without forwarding
        key = (moip, seq)
        if key in self.rxs:
            return
        now = self.now
        sender_lt = self.ls.get(msg.sender)
        # SYMMETRIC, as LinkTuple.status reads it
        sender_sym = (sender_lt is not None
                      and sender_lt.symmetric_time > now)
        if ((sender_sym or self.process_tc_from_unknown)
                and key not in self.ps):
            self.ps.add(key)
            entry = self.rts.get(moip)
            # a known newer advertisement makes the content out of date
            if entry is None or entry[1] <= msg.ansn:
                if topology.update_router_topology(
                        self.ip, self.rts, moip, msg.ansn, msg.validity,
                        msg.dests, now):
                    self._topology_dirty = True
                # the rows' new validity time may come before every
                # stored one
                vt = now + msg.validity
                if vt < self._next_expiry:
                    self._next_expiry = vt
        if not sender_sym:
            return
        self.rxs.add(key)
        if self.flood_all or sender_lt.fmpr_selector:
            fwd = Tc(moip, self.ip, msg.validity, seq, msg.ansn, msg.dests)
            self.pkt.append(fwd)
            self.send_time = now + 1
            self.trace("TC_FWD", fwd)

    # -- per-tick step ----------------------------------------------------

    def enqueue_delivery(self, packet: Packet, in_metric) -> None:
        """QUEUE process: queue a delivered packet with its measured
        in_metric; never blocks. The only writer of mqueue."""
        self.mqueue.append((packet, in_metric))

    def step_main(self) -> Optional[Packet]:
        """Run one tick of zero-time work; return a packet if one is emitted.

        Returning a packet means the broadcast guard fired: transmission
        starts now and the caller must keep this node busy for the
        drawn duration. Nothing else happens in such a step. Otherwise
        the step drains the queue taken at its start, with a pass after
        each message that marked one, then generates. It asks
        _maintenance_due() only once the dirty bit is set or now has
        reached _next_expiry.
        """
        if ((self._dirty or self.now >= self._next_expiry)
                and self._maintenance_due()):
            self.run_update_info()
        elif self._topology_dirty:
            self.run_topology_update()
        if self.send_time == self.now:
            emitted, self.pkt, self.send_time = self.pkt, [], INF
            return emitted
        queue, self.mqueue = self.mqueue, []
        ip, rxs = self.ip, self.rxs
        for packet, metric in queue:
            for msg in packet:
                if type(msg) is Hello:
                    self.process_hello(msg, metric)
                elif msg.originator == ip or (msg.originator, msg.seq) in rxs:
                    continue  # process_tc would return at once
                else:
                    self.process_tc(msg)
                if self._dirty:
                    self.run_update_info()
                elif self._topology_dirty:
                    self.run_topology_update()
        self._maybe_generate()
        return None

    def _maybe_generate(self) -> None:
        cfg = self.cfg
        while True:
            pending_bcast = self.send_time == self.now + 1
            if (self.now >= self._hello_fire
                    or (pending_bcast
                        and self.now >= self.hello_time - cfg.hp_maxjitter)):
                if self.now > self.hello_time:
                    raise EngineDiagnostic(
                        f"router {self.ip}: HELLO deadline missed at t={self.now}")
                if self._hello_stale:
                    msg = make_hello(self.ip, cfg.h_hold_time,
                                     self.ls.values(), self.now)
                    if msg != self._hello or (
                            list(msg.statuses) != list(self._hello.statuses)):
                        self._hello = msg
                    self._hello_stale = False
                msg = self._hello
                self.pkt.append(msg)
                self.trace("HELLO_GEN", msg)
                self.hello_time = self.now + cfg.hello_interval
                self._hello_fire = (self.hello_time
                                    - self._rng.randrange(cfg.hp_maxjitter))
                self.send_time = self.now + 1
                continue
            if (self.now >= self._tc_fire
                    or (pending_bcast
                        and self.now >= self.tc_time - cfg.tp_maxjitter)):
                if self.now > self.tc_time:
                    raise EngineDiagnostic(
                        f"router {self.ip}: TC deadline missed at t={self.now}")
                msg = make_tc(self.ip, cfg.t_hold_time, self.sqn, self.ansn,
                              self.ls.values(), self.now)
                if msg.dests == self._tc_map and (
                        list(msg.dests) == list(self._tc_map)):
                    msg = msg._replace(dests=self._tc_map)
                self._tc_map = msg.dests
                self.pkt.append(msg)
                self.trace("TC_GEN", msg)
                self.sqn += 1
                self.tc_time = self.now + cfg.tc_interval
                self._tc_fire = (self.tc_time
                                 - self._rng.randrange(cfg.tp_maxjitter))
                self.send_time = self.now + 1
                continue
            break


def init_router(cfg: RouterConfig, lb: int, delta_b: int, node_count: int,
                seed, hello_offset: int, tc_offset: int,
                start_time: int = 0, **flags) -> Router:
    """Validated router construction with a seeded per-router jitter stream."""
    validate_config(cfg, lb, delta_b, node_count)
    rng = random.Random(f"{seed}/{cfg.ip}/jitter")
    return Router(cfg, jitter_rng=rng, hello_offset=hello_offset,
                  tc_offset=tc_offset, start_time=start_time, **flags)
