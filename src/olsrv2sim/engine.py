"""One router's protocol state machine.

The router advances in discrete ticks under a lock-step scheduler (see
simnet). Within a tick all intranode work is zero-time: the step drains
delivered packets, restores information-base consistency, processes
messages, and possibly generates HELLO/TC messages. Starting a
broadcast is the only action that consumes time, so a step that reaches
the broadcast guard ends immediately and the node stays transmission-
busy until the packet is delivered.

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

Consistency is restored by a maintenance pass, and the pass is its own
check: run while nothing is pending, it changes no state (idempotence),
and after it nothing is pending. The clock enters updates_pending()
only through threshold comparisons (t <= now, t > now) against stored
times: each link tuple's symmetric, heard and validity time, and the
validity time of every 2-hop, advertising-router and topology tuple.
So after a pass nothing is pending until the state is written in a
way the predicate can see, or the clock reaches the smallest stored
time that was still in the future.

A write marks a pass only when it can change what a pass does. A
HELLO sets the dirty bit, which marks the full pass, when its link
tuple enters or leaves SYMMETRIC, changes its MPR-selector flags, or
changes its out_metric while SYMMETRIC; when it creates a link tuple
that is SYMMETRIC, carries a selector flag or has already expired; or
when it creates a 2-hop tuple or changes its metrics. A TC that changes
the advertised rows marks only the pass's topology half (purge the
advertising-router and topology sets, then recompute routes): neither
the MPR sets nor ansn read those sets. Times aside, these are the only
inputs of updates_pending() the two write. Any other write only moves
stored times, and lowers the "next expiry" tick to each new time that
is in the future. A refresh can also move a time that next expiry
still points at, so when now reaches it the smallest stored time after
the last full pass is looked up again. step_main runs the full pass
when the bit is set or now has reached that time, and otherwise the
topology half alone when a TC marked it; the full pass ends with the
same half. The full predicate is the tests' oracle: they assert that a
skipped pass had nothing pending, that nothing is pending after a
pass, full or topology-only, and that a pass entered with nothing
pending changes nothing.
"""
from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass
from typing import Callable, Optional

from . import message_logs, neighborhood, topology
from .messages import (INF, NEG_INF, Hello, MprRole, NodeId, Packet,
                       Status, Tc, TimeValue, forward_tc_message, make_hello,
                       make_tc)
# unused here; bound for the benchmark's tracer, which wraps it by name
from .messages import render_message  # noqa: F401
from .neighborhood import LinkSet, LinkTuple, TwoHopSet, TwoHopTuple
from .topology import RoutingSet

MICRO_STEP_CAP = 10 ** 6


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
        self.arrs: dict = {}
        self.rts: dict = {}
        self.rs: RoutingSet = {}
        self.ps: set = set()
        self.rxs: set = set()
        self.pkt: Packet = []
        self.mqueue: deque = deque()  # (message, measured in_metric)
        self.now: TimeValue = start_time
        self.hello_time: TimeValue = start_time + hello_offset
        self.tc_time: TimeValue = start_time + tc_offset
        self.send_time: TimeValue = INF
        self.sqn = 0
        self.ansn = 0
        self.advertised = frozenset()  # rmpr selectors at the last pass

        self.inbox: list = []  # QUEUE process: delivered (packet, metric)
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
        # last verified-optimal (edge universe, routing set) pair: while
        # both are unchanged the routing set needs no optimality test
        self._opt_edges: Optional[dict] = None
        self._opt_rs: Optional[dict] = None
        # trace(kind, payload): the typed event simnet records and
        # renders only on output (see simnet for each kind's payload)
        self.trace: Callable = lambda kind, payload: None

    # -- consistency ----------------------------------------------------

    def updates_pending(self) -> bool:
        """True when any information-base maintenance act would change state.

        Equivalent to disjoining "purge would shrink a set" for the four
        timed sets, "a flagged MPR set fails its distance equality",
        "ansn is stale", and "the routing set is not optimal". The
        equality-based phrasing (set != purge(set)) is what the tests
        check this against. step_main never asks it: it is the oracle
        the tests hold the maintenance pass and its scheduling to.
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
        for ar in self.arrs.values():
            if ar.validity_time <= now:
                return True
        for vt, _ in self.rts.values():
            if vt <= now:
                return True
        edges = topology.link_universe(self.ip, self.ls, self.rts, now)
        if edges == self._opt_edges and self.rs == self._opt_rs:
            return False
        ok = topology.is_optimal_over(self.ip, edges, self.rs)
        if ok:
            self._opt_edges, self._opt_rs = edges, dict(self.rs)
        return not ok

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
        """
        if self._dirty:
            return True
        if self.now < self._next_expiry:
            return False
        self._next_expiry = self._expiry_after(self._last_pass)
        return self.now >= self._next_expiry

    def _expiry_after(self, now: TimeValue) -> TimeValue:
        """The smallest stored time updates_pending compares that is > now."""
        nxt = INF
        for lt in self.ls.values():
            for t in (lt.symmetric_time, lt.heard_time, lt.validity_time):
                if now < t < nxt:
                    nxt = t
        for tuples in (self.twohop_set, self.arrs):
            for tup in tuples.values():
                if now < tup.validity_time < nxt:
                    nxt = tup.validity_time
        for vt, _ in self.rts.values():
            if now < vt < nxt:
                nxt = vt
        return nxt

    def run_update_info(self) -> None:
        """The full pass: purge, reselect MPRs, refresh ansn, then the
        topology half (in order).

        Afterwards nothing is pending until the next write or until the
        clock reaches the new _next_expiry.
        """
        now = self.now
        neighborhood.purge_link_set(self.ls, now)
        neighborhood.purge_2hop_set(self.ls, self.twohop_set, now)
        neighborhood.update_fmprs(self.ls, self.twohop_set, now)
        neighborhood.update_rmprs(self.ls, self.twohop_set, now,
                                  self.bug_mode)
        self.ansn = topology.increment_ansn(self.ls, self.advertised,
                                            self.ansn)
        self.advertised = topology.rmpr_selectors(self.ls)
        self.run_topology_update()
        self._dirty = False
        self._last_pass = now
        self._next_expiry = self._expiry_after(now)

    def run_topology_update(self) -> None:
        """The topology half of the pass: purge arrs/rts, recompute routes.

        Neither the MPR sets nor ansn read arrs or rts, so after a TC
        that changed rows, with no other write and no stored time
        reached, this half alone restores consistency.
        """
        now = self.now
        topology.purge_advertising_routers(self.arrs, now)
        topology.purge_router_topology(self.rts, now)
        edges = topology.link_universe(self.ip, self.ls, self.rts, now)
        if edges != self._opt_edges or self.rs != self._opt_rs:
            new_rs = topology.update_routing_set(self.ip, edges, self.rs)
            if new_rs != self.rs:
                self.rs = new_rs
                self.trace("ROUTE_CHANGE",
                           tuple(new_rs[d] for d in sorted(new_rs)))
            self._opt_edges, self._opt_rs = edges, dict(self.rs)
        self._topology_dirty = False

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
        sym = new.status(now) == Status.SYMMETRIC
        dirty = (sym != (lt.status(now) == Status.SYMMETRIC)
                 or fsel != lt.fmpr_selector or rsel != lt.rmpr_selector
                 or (sym and new.out_metric != lt.out_metric)
                 or new.validity_time <= now)
        written = [sym_time, heard_time, new.validity_time]
        if sym_time > now:
            ths = self.twohop_set
            # every address the HELLO names, in message order
            for x in {**msg.statuses, **msg.in_metrics, **msg.out_metrics}:
                listed_sym = (x != ip
                              and msg.statuses.get(x) == Status.SYMMETRIC)
                n2 = ths.get((moip, x))
                if n2 is None:
                    if not listed_sym:
                        continue
                    dirty = True
                    n2 = TwoHopTuple(moip, x, NEG_INF, INF, INF)
                new2 = TwoHopTuple(
                    moip, x, now + vtime if listed_sym else n2.validity_time,
                    msg.in_metrics.get(x, n2.in_metric),
                    msg.out_metrics.get(x, n2.out_metric))
                ths[(moip, x)] = new2
                dirty = dirty or (new2.in_metric != n2.in_metric
                                  or new2.out_metric != n2.out_metric)
                written.append(new2.validity_time)
        if dirty:
            self._dirty = True
        else:
            # only times moved: nothing is pending until one is reached
            for t in written:
                if now < t < self._next_expiry:
                    self._next_expiry = t

    def process_tc(self, msg: Tc) -> None:
        if not isinstance(msg, Tc):
            raise TypeError("process_tc requires a TC message")
        if msg.originator == self.ip:
            return  # own message echoed back; drop without forwarding
        sender_lt = self.ls.get(msg.sender)
        sender_sym = (sender_lt is not None
                      and sender_lt.status(self.now) == Status.SYMMETRIC)
        if not sender_sym and not self.process_tc_from_unknown:
            self._forward_tc(msg)
            return
        key = (msg.originator, msg.seq)
        if key in self.ps:
            self._forward_tc(msg)
            return
        message_logs.add_processed_tuple(self.ps, msg.originator, msg.seq)
        ar = self.arrs.get(msg.originator)
        if ar is not None and ar.ansn > msg.ansn:
            # known newer advertisement; message content is out of date
            self._forward_tc(msg)
            return
        topology.update_advertising_routers(
            self.arrs, msg.originator, msg.ansn, msg.validity, self.now)
        if topology.update_router_topology(
                self.ip, self.rts, msg.originator, msg.validity, msg.dests,
                self.now):
            self._topology_dirty = True
        # the rows' new validity time may come before every stored one
        self._next_expiry = min(self._next_expiry, self.now + msg.validity)
        self._forward_tc(msg)

    def _forward_tc(self, msg: Tc) -> None:
        sender_lt = self.ls.get(msg.sender)
        if sender_lt is None or sender_lt.status(self.now) != Status.SYMMETRIC:
            return
        key = (msg.originator, msg.seq)
        if key in self.rxs:
            return
        message_logs.add_received_tuple(self.rxs, msg.originator, msg.seq)
        if self.flood_all or sender_lt.fmpr_selector:
            fwd = forward_tc_message(self.ip, msg)
            self.pkt.append(fwd)
            self.send_time = self.now + 1
            self.trace("TC_FWD", fwd)

    # -- per-tick step ----------------------------------------------------

    def enqueue_delivery(self, packet: Packet, in_metric) -> None:
        """QUEUE process: accept a delivered packet; never blocks."""
        self.inbox.append((packet, in_metric))

    def step_main(self) -> Optional[Packet]:
        """Run one tick of zero-time work; return a packet if one is emitted.

        Returning a packet means the broadcast guard fired: transmission
        starts now and the caller must keep this node busy for the
        drawn duration. Nothing else happens in such a step.
        """
        for packet, metric in self.inbox:
            for m in packet:
                self.mqueue.append((m, metric))
        self.inbox.clear()

        steps = 0
        while True:
            steps += 1
            if steps > MICRO_STEP_CAP:
                raise EngineDiagnostic(
                    f"router {self.ip}: micro-step cap exceeded at t={self.now}")
            if self._maintenance_due():
                self.run_update_info()
            elif self._topology_dirty:
                self.run_topology_update()
            if self.send_time == self.now:
                emitted = self.pkt
                self.pkt = []
                self.send_time = INF
                return emitted
            if self.mqueue:
                msg, metric = self.mqueue.popleft()
                if isinstance(msg, Hello):
                    self.process_hello(msg, metric)
                else:
                    self.process_tc(msg)
                continue
            break

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
                msg = make_hello(self.ip, cfg.h_hold_time, self.ls.values(),
                                 self.now)
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
