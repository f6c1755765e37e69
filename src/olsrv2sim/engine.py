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
The step enters generation only when it generates: now has reached a
fire tick, or a broadcast is scheduled for the next tick while a
generation window is open (the piggyback). A fire tick never passes
its deadline, so a step that skips generation skips no deadline check
either.

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
if SYMMETRIC. Three writes mark it: process_hello creating a tuple, or
changing a tuple's status at the write, its out_metric, or its
in_metric while not LOST, and any full pass (the purge and the
MPR-flag updates are the only other writers of ls). Otherwise a status
changes only when the clock reaches a symmetric or heard time, and the
first step at or after a stored time runs the full pass before it
generates (see below): the pass is the HELLO's clock. Without a mark
the last HELLO is sent again. A receiver remembers per originator the
last HELLO whose 2-hop walk ran and the names it lists SYMMETRIC.
Given that object again over a SYMMETRIC link, it only refreshes those
names' 2-hop tuples, re-creating any purged since: messages are never
mutated, only the originator's HELLOs write its 2-hop tuples, and a
walk skipped while the link was not SYMMETRIC wrote nothing, so every
other tuple the HELLO names already holds its metrics.

Consistency is restored by a maintenance pass, and the pass is its own
check: run while nothing is pending, it changes no state (idempotence),
and after it nothing is pending. The clock enters updates_pending()
only through threshold comparisons (t <= now, t > now) against stored
times: each link tuple's symmetric, heard and validity time, and the
validity time of every 2-hop tuple and topology-set entry.
So after a pass nothing is pending until the state is written in a
way the predicate can see, or the clock reaches the smallest stored
time that was still in the future. The full pass walks each of the
three sets once (run_update_info): each purge also returns the
smallest time it kept, so the pass learns that time without a scan
of its own, and _expiry_after's scan serves only the lookup below.

A write marks a pass only when it can change what a pass does. A HELLO
sets the dirty bit, which marks the full pass, when its link tuple
enters or leaves SYMMETRIC, changes its MPR-selector flags, or changes
its out_metric while SYMMETRIC; when it creates a link tuple that is
SYMMETRIC, carries a selector flag or has already expired; or when it
creates a 2-hop tuple or changes its metrics. A TC that changes the
advertised rows marks only the pass's topology half, which recomputes
routes over the rows: neither the MPR sets nor ansn read them. It
records every changed row: that half alone decides what a row moves,
and it keeps the distances and routes over a row of an originator
they do not reach (topology.repair_distances). The full pass purges
the topology set and rebuilds the router's own row before that half.
A topology-only pass meets no expired row and no changed own row:
the clock reaching a row's validity time or a symmetric time makes
the full pass due, and so does a HELLO that moves a status or an
out_metric the own row reads. Times aside, these are the only inputs
of updates_pending() the two write. Any other write only moves
stored times, and lowers the "next expiry" tick to each new
time that is in the future. Most receipts in a converged network are
such writes: a HELLO that moves its tuples' times, and a TC that
carries its originator's stored row map again, which process_tc stores
inline as a new validity time and ansn, with no comparison of rows. A
refresh can also move a time that next expiry still points at, so
when now reaches it the smallest stored time after the last full pass
is looked up again.
step_main runs the full pass when the bit is set or now has reached
that time, and the topology half alone right after each TC that marks
it, so no step starts with that mark set; the full pass ends with the
same half. It decides once per step: after that, a write moves next
expiry only past now, so only the two marks can make a pass due, and
the step checks them after each message. The full predicate is the
tests' oracle: they assert that a skipped pass had nothing pending,
that nothing is pending after a pass, full or topology-only, and that
a pass entered with nothing pending changes nothing.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from functools import partial
from typing import Callable, Optional

from . import neighborhood, topology
from .messages import (FLOOD_ROUTE, FLOODING, INF, LOST, NEG_INF, ROUTING,
                       SYMMETRIC, Hello, NodeId, Packet, Tc, TimeValue,
                       make_hello, make_tc)
# unused here; bound for the benchmark's tracer, which wraps it by name
from .messages import render_message  # noqa: F401
from .neighborhood import LinkSet, LinkTuple, TwoHopSet, TwoHopTuple
from .topology import RoutingSet

# A Tc from a tuple of all five fields, built in C: NamedTuple's
# generated __new__ and _replace run Python code, once per TC that
# carries the last map.
_tc = partial(tuple.__new__, Tc)
# the same for the link and 2-hop tuples a HELLO writes
_link = partial(tuple.__new__, LinkTuple)
_two_hop = partial(tuple.__new__, TwoHopTuple)
# the roles that select a neighbour as each kind of MPR
_FLOODING = (FLOODING, FLOOD_ROUTE)
_ROUTING = (ROUTING, FLOOD_ROUTE)


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
                 bug_mode: bool = False, flood_all: bool = False,
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
        # originator -> (validity, ansn, the accepted TC's map)
        self.rts: dict = {}
        self.rs: RoutingSet = {}
        self.ps: set = set()
        self.rxs: set = set()
        self.pkt: Packet = []
        # QUEUE: (packet, measured in_metric, the packet's sender)
        self.mqueue: list = []
        self.now: TimeValue = 0
        self.hello_time: TimeValue = hello_offset
        self.tc_time: TimeValue = tc_offset
        self.send_time: TimeValue = INF
        self.sqn = 0
        self.ansn = 0
        self.last_route_change = NEG_INF  # the last ROUTE_CHANGE's tick
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
        # the link universe, kept live (topology.link_universe): rts's
        # row maps by originator, and ip's own row as the last full
        # pass built it. Every accepted TC stores its map here too, and
        # a TC that changes a row, like the purge, records in _changed
        # the row as it stood at the last pass, or None, whether or not
        # that pass reached its originator.
        # The memo (topology.RouteMemo) holds what the last pass proved,
        # and the next carries it over _changed (topology.update_routes).
        # A new router has no memo: its first pass computes routes in
        # full.
        self._edges: dict = {}
        self._changed: dict = {}
        self._opt: Optional[topology.RouteMemo] = None
        # trace(tick, kind, payload), tick = now: the typed event simnet
        # records and renders only on output (see simnet for each kind)
        self.trace: Callable = lambda tick, kind, payload: None

    # -- consistency ----------------------------------------------------

    def updates_pending(self) -> bool:
        """True when any information-base maintenance act would change state.

        Equivalent to disjoining "purge would shrink a set" for the three
        timed sets, "a flagged MPR set fails its distance equality",
        "ansn is stale", and "the routing set is not optimal". The
        equality-based phrasing (set != purge(set)) is what the tests
        check this against. step_main never asks it: it is the oracle
        the tests hold the maintenance pass and its scheduling to. It
        reads live state only, not the route memo or the changed rows, so
        it can catch a memo gone wrong, and asking it changes no pass.
        """
        now = self.now
        for lt in self.ls.values():
            if lt.validity_time <= now:
                return True
            if lt.status(now) is not SYMMETRIC and (
                    lt.fmpr or lt.rmpr or lt.fmpr_selector or lt.rmpr_selector):
                return True
        for n2 in self.twohop_set.values():
            if n2.validity_time <= now:
                return True
            anchor = self.ls.get(n2.one_hop_oip)
            if anchor is None or anchor.status(now) is not SYMMETRIC:
                return True
        # both flavours' tables from one walk of each set
        n1, fcov, rcov = neighborhood.covering_tables(
            self.ls, self.twohop_set, now, self.bug_mode)
        for field, coverers in (("fmpr", fcov), ("rmpr", rcov)):
            flagged = frozenset(o for o, lt in self.ls.items()
                                if getattr(lt, field))
            if not neighborhood.is_valid_mpr_set(flagged, n1, coverers):
                return True
        if self.ansn != topology.increment_ansn(self.ls, self.advertised,
                                                self.ansn):
            return True
        for vt, _, _ in self.rts.values():
            if vt <= now:
                return True
        edges = topology.link_universe(self.ip, self.ls, self.rts, now)
        return not topology.is_optimal_over(
            self.ip, edges, self.rs, topology._dijkstra(edges, self.ip))

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
        refresh ansn, purge rts, rebuild ip's own row and record it when
        it differs, then the topology half (in order).

        It walks each information base once. The link set's purge also
        reads off N1, the flagged MPR sets, the routing-MPR selectors
        (so ansn moves inline) and the own row; the 2-hop set's purge
        builds both covering tables, which the MPR updates then apply.
        Each purge also returns the smallest time it kept after now, so
        the new _next_expiry is _expiry_after(now) without a scan of its
        own. Afterwards nothing is pending until the next write or until
        the clock reaches it. The pass may rewrite ls, and a status may
        have changed since the last HELLO build because the clock
        reached a stored time, so the next HELLO is built.
        """
        now, ls = self.now, self.ls
        self._hello_stale = True
        links = neighborhood.purge_link_set(ls, now)
        n1 = links.n1
        fcov, rcov, two_hop_next = neighborhood.purge_2hop_set(
            n1, self.twohop_set, now, self.bug_mode)
        neighborhood.update_fmprs(ls, links.fmprs, n1, fcov)
        neighborhood.update_rmprs(ls, links.rmprs, n1, rcov)
        if links.selectors != self.advertised:
            self.ansn += 1
        self.advertised = links.selectors
        ip, edges, changed = self.ip, self._edges, self._changed
        gone, rts_next = topology.purge_router_topology(self.rts, now)
        for oip in gone:
            changed.setdefault(oip, edges.pop(oip, None))
        own = links.own_row
        if own != edges.get(ip):
            changed[ip] = edges.get(ip)
            edges[ip] = own
        self.run_topology_update()
        self._dirty = False
        self._last_pass = now
        self._next_expiry = min(links.next_time, two_hop_next, rts_next)

    def run_topology_update(self) -> None:
        """The topology half of the pass: recompute routes over rts.

        Neither the MPR sets nor ansn read rts, so after a TC that
        changed rows, with no other write and no stored time reached,
        this half alone restores consistency. It acts only on rows: no
        row has expired, as a reached validity time runs the full pass,
        which purges rts first, and the own row has not changed, as
        only the full pass can meet a change to it.

        The routes are carried over the rows written since the last
        pass (topology.update_routes).
        """
        self._topology_dirty = False
        rs, changed = self.rs, self._changed
        self._changed = {}
        new_rs, self._opt = topology.update_routes(self.ip, self._edges,
                                                   changed, rs, self._opt)
        if new_rs is not rs and new_rs != rs:
            self.rs = new_rs
            self.last_route_change = self.now
            self.trace(self.now, "ROUTE_CHANGE",
                       tuple(map(new_rs.__getitem__, sorted(new_rs))))

    # -- message processing ----------------------------------------------

    def process_hello(self, msg: Hello, in_metric) -> None:
        """Apply a HELLO to the sender's link tuple, then its 2-hop tuples.

        The steps follow RFC 6130 section 12: create the link tuple if
        new, adopt the delivered measurement as in_metric and the
        sender's measurement of us as out_metric, refresh or tear down
        the symmetric time, refresh heard and validity times, record MPR
        selection; then, if the link is symmetric, create, re-measure
        and refresh the 2-hop tuples for the addresses the HELLO names.
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
            lt = _link((moip, NEG_INF, NEG_INF, now + vtime,
                        False, False, False, False, in_metric, INF))
        (_, old_sym, old_heard, validity, fmpr, rmpr, old_fsel, old_rsel,
         lt_in, old_out) = lt
        sym_time = old_sym
        st = msg.statuses.get(ip)
        if st is not None and st is not LOST:
            sym_time = now + vtime
        elif st is LOST and sym_time > now:
            # a symmetric link the sender reports LOST is downgraded but
            # kept around for l_hold_time more ticks
            sym_time, validity = NEG_INF, now + htime
        heard_time = max(now + vtime, sym_time)
        validity = max(heard_time + htime, validity)
        # an MPR announcement selects us; a SYMMETRIC listing without
        # one withdraws the selection; anything else leaves it alone
        role = msg.mprs.get(ip)
        keep = st is not SYMMETRIC
        fsel = role in _FLOODING or (keep and old_fsel)
        rsel = role in _ROUTING or (keep and old_rsel)
        out = msg.in_metrics.get(ip, old_out)
        self.ls[moip] = _link((moip, sym_time, heard_time, validity,
                               fmpr, rmpr, fsel, rsel, in_metric, out))
        # a pass reads a link's status only as "SYMMETRIC or not", and
        # its metrics only while it is SYMMETRIC; a created tuple
        # starts out LOST with no flags and an infinite out_metric.
        # Statuses as LinkTuple.status reads them.
        sym, was_sym = sym_time > now, old_sym > now
        dirty = (sym != was_sym or fsel != old_fsel or rsel != old_rsel
                 or (sym and (out != old_out or in_metric != lt_in))
                 or validity <= now)
        # what this router's next HELLO says of the link: heard_time >
        # now is "not LOST", as sym_time <= heard_time
        if (created or sym != was_sym or out != old_out
                or (heard_time > now and in_metric != lt_in)
                or (not sym and (heard_time > now) != (old_heard > now))):
            self._hello_stale = True
        # the smallest written time still ahead; sym_time <= heard_time
        nxt = self._next_expiry
        t = sym_time if sym else heard_time
        if now < t < nxt:
            nxt = t
        if now < validity < nxt:
            nxt = validity
        if sym:
            # a 2-hop tuple is read by index: n2[2:] is its validity
            # time, in_metric and out_metric
            ths = self.twohop_set
            vt = now + vtime
            walked = self._walked.get(moip)
            if walked is not None and walked[0] is msg:
                # a repeat: the other tuples it names hold its metrics
                for x in walked[1]:
                    key = (moip, x)
                    n2 = ths.get(key)
                    if n2 is None:  # purged since: re-create it
                        dirty = True
                        ths[key] = _two_hop((
                            moip, x, vt, msg.in_metrics.get(x, INF),
                            msg.out_metrics.get(x, INF)))
                    else:
                        ths[key] = _two_hop((moip, x, vt, n2[3], n2[4]))
                if walked[1] and now < vt < nxt:
                    nxt = vt
            else:
                listed = []
                statuses, ins, outs = (msg.statuses, msg.in_metrics,
                                       msg.out_metrics)
                # every address the HELLO names, in message order
                for x in {**statuses, **ins, **outs}:
                    listed_sym = x != ip and statuses.get(x) is SYMMETRIC
                    key = (moip, x)
                    n2 = ths.get(key)
                    if n2 is None:
                        if not listed_sym:
                            continue
                        dirty = True
                        n2 = (moip, x, NEG_INF, INF, INF)
                    if listed_sym:
                        listed.append(x)
                        t = vt
                    else:
                        t = n2[2]
                    m_in, m_out = ins.get(x, n2[3]), outs.get(x, n2[4])
                    ths[key] = _two_hop((moip, x, t, m_in, m_out))
                    dirty = dirty or m_in != n2[3] or m_out != n2[4]
                    if now < t < nxt:
                        nxt = t
                self._walked[moip] = (msg, listed)
        if dirty:
            self._dirty = True
        else:
            # only times moved: nothing is pending until one is reached
            self._next_expiry = nxt

    def process_tc(self, msg: Tc, sender: NodeId) -> None:
        """Process a TC that sender broadcast, then forward it; each
        step at most once per (originator, seq).

        The caller has filtered: msg is a TC, not our own, and its key
        is not in rxs (step_main drops such copies). A copy in rxs would
        reach neither step anyway, since rxs is a subset of ps: a key
        enters rxs only in the forward step, which is reached only with
        a SYMMETRIC sender, and with such a sender the process step has
        put the key in ps by then.

        The process step stores the rows of a TC not processed before
        (not in ps), when its sender is a SYMMETRIC neighbor or
        process_tc_from_unknown is set. The forward step records a TC
        from a SYMMETRIC sender as received (rxs) and, if that sender
        selected us as flooding MPR or flood_all is set, queues msg
        itself: our packet's receivers read us as its sender (see Tc).
        Both logs take the one (originator, seq) key built here, and the
        sender's status is read once and serves both steps.

        A TC whose dests is the stored row map itself is a refresh: it
        is stored inline as the new validity time and ansn, as
        update_router_topology would store it, and it marks nothing.
        Any other accepted TC goes through update_router_topology, and
        its map enters the live universe: a row that changed is
        recorded and marks the topology half, whether or not the last
        pass reached moip. A row that names ip is stored as it came,
        like any other.
        """
        moip, validity, seq, ansn, dests = msg
        key = (moip, seq)
        now = self.now
        sender_lt = self.ls.get(sender)
        # SYMMETRIC, as LinkTuple.status reads it
        sender_sym = (sender_lt is not None
                      and sender_lt.symmetric_time > now)
        if ((sender_sym or self.process_tc_from_unknown)
                and key not in self.ps):
            self.ps.add(key)
            rts = self.rts
            entry = rts.get(moip)
            # a known newer advertisement makes the content out of date
            if entry is None or entry[1] <= ansn:
                vt = now + validity
                if entry is not None and entry[2] is dests:
                    # the stored row map again: a refresh, stored as
                    # update_router_topology would store it
                    rts[moip] = (vt, ansn, dests)
                else:
                    # the stored row enters the live universe, and a
                    # changed one is recorded as it stood at the last pass
                    if topology.update_router_topology(
                            rts, moip, ansn, validity, dests, now):
                        self._changed.setdefault(moip, self._edges.get(moip))
                        self._topology_dirty = True
                    self._edges[moip] = dests
                # the rows' new validity time may come before every
                # stored one
                if vt < self._next_expiry:
                    self._next_expiry = vt
        if not sender_sym:
            return
        self.rxs.add(key)
        if self.flood_all or sender_lt.fmpr_selector:
            self.pkt.append(msg)
            self.send_time = now + 1
            self.trace(now, "TC_FWD", msg)

    # -- per-tick step ----------------------------------------------------

    def enqueue_delivery(self, packet: Packet, in_metric,
                         sender: NodeId) -> None:
        """QUEUE process: queue a delivered packet with its measured
        in_metric and the node that broadcast it; never blocks. The
        only writer of mqueue."""
        self.mqueue.append((packet, in_metric, sender))

    def step_main(self) -> Optional[Packet]:
        """Run one tick of zero-time work; return a packet if one is emitted.

        Returning a packet means the broadcast guard fired: transmission
        starts now and the caller must keep this node busy for the
        drawn duration. Nothing else happens in such a step. Otherwise
        the step drains the queue taken at its start, with a pass after
        each message that marked one, then generates. Draining drops our
        own TCs and copies already received (in rxs), and hands every
        other TC to process_tc with its packet's sender. It asks
        _maintenance_due() only once the dirty bit is set or now has
        reached _next_expiry, and it calls _maybe_generate() only when
        the first round of its loop generates: now has reached
        _hello_fire or _tc_fire, or a broadcast is due at now + 1 and a
        generation window is open (now >= hello_time - hp_maxjitter or
        now >= tc_time - tp_maxjitter: the piggyback). That is the
        condition of its two branches, so the skip is exact: a step that
        skips it would have generated nothing.
        """
        if ((self._dirty or self.now >= self._next_expiry)
                and self._maintenance_due()):
            self.run_update_info()
        if self.send_time == self.now:
            emitted, self.pkt, self.send_time = self.pkt, [], INF
            return emitted
        queue, self.mqueue = self.mqueue, []
        ip, rxs = self.ip, self.rxs
        for packet, metric, sender in queue:
            for msg in packet:
                if type(msg) is Hello:
                    self.process_hello(msg, metric)
                elif msg.originator == ip or (msg.originator, msg.seq) in rxs:
                    continue  # our own, or a copy already received
                else:
                    self.process_tc(msg, sender)
                if self._dirty:
                    self.run_update_info()
                elif self._topology_dirty:
                    self.run_topology_update()
        now, cfg = self.now, self.cfg
        if (now >= self._hello_fire or now >= self._tc_fire
                or (self.send_time == now + 1
                    and (now >= self.hello_time - cfg.hp_maxjitter
                         or now >= self.tc_time - cfg.tp_maxjitter))):
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
                msg, kind = self._hello, "HELLO_GEN"
                self.hello_time = self.now + cfg.hello_interval
                self._hello_fire = (self.hello_time
                                    - self._rng.randrange(cfg.hp_maxjitter))
            elif (self.now >= self._tc_fire
                    or (pending_bcast
                        and self.now >= self.tc_time - cfg.tp_maxjitter)):
                if self.now > self.tc_time:
                    raise EngineDiagnostic(
                        f"router {self.ip}: TC deadline missed at t={self.now}")
                msg = make_tc(self.ip, cfg.t_hold_time, self.sqn, self.ansn,
                              self.ls.values(), self.now)
                if msg.dests == self._tc_map and (
                        list(msg.dests) == list(self._tc_map)):
                    msg = _tc((*msg[:4], self._tc_map))
                self._tc_map, kind = msg.dests, "TC_GEN"
                self.sqn += 1
                self.tc_time = self.now + cfg.tc_interval
                self._tc_fire = (self.tc_time
                                 - self._rng.randrange(cfg.tp_maxjitter))
            else:
                return
            self.pkt.append(msg)
            self.trace(self.now, kind, msg)
            self.send_time = self.now + 1

