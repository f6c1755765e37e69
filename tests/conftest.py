"""Suite-wide oracle mode for the router's maintenance passes.

Router.step_main decides once, at its start, whether to run the full
pass run_update_info(): Router._maintenance_due() says state was
written in a way the full pass can act on, or a stored time was
reached, since the last full pass. After each queued message it runs
the full pass if the dirty bit is set, else, after a TC that changed
the advertised rows, only the pass's topology half,
run_topology_update(), so no step starts with that half marked (each
step asserts it). It never evaluates the full updates_pending()
predicate. A HELLO that only moves times later marks no pass, and an
expiry tick a refresh has since moved is looked up again before a pass
runs for it.
Every test runs with the step, both passes and the message handlers
wrapped, so that each step is held to that predicate:

- a pass (full or topology-only) is skipped only when nothing is
  pending: within a step, nothing is pending on entry to
  process_hello() or process_tc(), nor when the step returns;
- nothing is pending after a pass, and what the pass leaves for the
  next one to carry over equals the full computation: the live
  universe (Router._edges) is link_universe over rts with no row left
  recorded as changed, and the memo (Router._opt, which
  updates_pending() never reads) holds that universe's full Dijkstra
  distances, the predecessors a full scan picks (the smallest tight
  in-neighbour, oracles.ref_predecessors), their exact inverse as the
  children index (empty sets aside) and a copy of the routing set,
  which is optimal by the oracle's own one-Dijkstra-per-first-hop
  test. After a pass that lowered distances that set is the one read
  off those predecessors (oracles.ref_routes, which walks each
  destination's predecessor chain to the router on its own, not
  topology.routes), in the memo's order of distances, and no node is
  left stale; after any other pass that leaves stale nodes listed, it
  is so outside their subtrees;
- a pass entered while nothing was pending changes no state;
- a topology-only pass meets no expired topology-set entry: only the
  full pass purges rts, and a reached validity time makes it due.

The third one is why running a pass that is not needed leaves every
trace unchanged. The topology half the full pass calls is checked as
part of that pass. Only the passes carry the memo over the rows
written since (topology.update_routes and repair_distances).
updates_pending() reads none of that bookkeeping (Router._edges,
_changed, _opt): it builds link_universe from rts and tests the
routing set against one full Dijkstra over it, so a row stored with
no record of its change still shows as pending.

process_tc() is handed only what the step lets through: a TC that is
not the router's own and whose (originator, seq) is not in its
received log. A row it stores in the live universe without recording
it as changed is of an originator that the last pass reached by no
path, while that pass's memo proves the routing set: the pass checks
above hold the memo's distances to a full Dijkstra, so no path
crosses such a row. Every copy it forwards is the object it was handed, and
leaves its (originator, seq) in the received log, so that no copy of
it is forwarded again.

A step that returns no packet leaves nothing to generate, whether or
not it entered generation (Router.step_main enters it only when one of
its guards can hold): now has reached neither fire tick, and if a
broadcast is due at the next tick, neither generation window is open
for a piggyback.

The two HELLO shortcuts are held to the full computation too:

- whenever generation (Router._maybe_generate()) sends the last HELLO
  again without building one, because no write and no full pass
  marked it stale since the last build, make_hello builds a HELLO
  equal to it whose statuses list the same names in the same order;
- whenever a HELLO arrives that is the object its originator's last
  2-hop walk ran on, the receipt leaves the link set, the 2-hop set
  (key order included), the dirty bit and the next expiry exactly as
  the full walk does on a copy (oracles.full_hello_receipt).
"""
from collections import Counter

import pytest

from olsrv2sim import topology
from olsrv2sim.engine import Router
from olsrv2sim.messages import Tc, make_hello

from oracles import (full_hello_receipt, hello_receipt_state, pass_state,
                     ref_is_optimal_over, ref_predecessors, ref_routes)


@pytest.fixture(autouse=True)
def oracle_mode(monkeypatch):
    """Assert the facts above at every step.

    Yields a Counter a test can read to see the oracle exercised: True
    for full passes run by a step, False for steps that ran none,
    "idle" for full passes run while nothing was pending, "topology"
    for topology-only passes and "topology idle" for those run while
    nothing was pending, "keep", "repair" and "fall back" for what
    repair_distances decided, "hello reused" for HELLOs sent again
    without a build and "hello repeat" for repeat receipts that took
    the shortcut.
    """
    seen = Counter()
    step = Router.step_main
    generate, process_hello = Router._maybe_generate, Router.process_hello
    process_tc = Router.process_tc
    run, run_topology = Router.run_update_info, Router.run_topology_update
    repair = topology.repair_distances
    pending = Router.updates_pending
    in_step, in_full_pass, in_pending = [], [], []

    def assert_consistent(self, where):
        assert not self.updates_pending(), (
            f"router {self.ip} at t={self.now}: pass skipped while"
            f" updates_pending() holds, {where}")

    def assert_nothing_to_generate(self):
        now, cfg = self.now, self.cfg
        where = f"router {self.ip} at t={now}: a step left"
        assert now < self._hello_fire and now < self._tc_fire, (
            f"{where} a fire tick reached")
        if self.send_time == now + 1:
            assert (now < self.hello_time - cfg.hp_maxjitter
                    and now < self.tc_time - cfg.tp_maxjitter), (
                f"{where} a generation window open with a broadcast due"
                " at the next tick")

    def checked_step(self):
        assert not self._topology_dirty, (
            f"router {self.ip} at t={self.now}: a step starts with the"
            " topology half marked, which the drain runs after each TC")
        in_step.append(self)
        full = seen[True]
        try:
            out = step(self)
        finally:
            in_step.pop()
        if seen[True] == full:
            seen[False] += 1
        if out is None:
            assert_nothing_to_generate(self)
        # generation writes nothing the predicate reads, so this is
        # also the check on entry to _maybe_generate()
        assert_consistent(self, "at the end of the step")
        return out

    def checked_process_tc(self, msg, sender):
        key = (msg.originator, msg.seq)
        assert (type(msg) is Tc and msg.originator != self.ip
                and key not in self.rxs), (
            f"router {self.ip} at t={self.now}: handed {msg}, which the"
            " caller must filter out")
        if in_step:
            assert_consistent(self, "before a TC")
        sent, row = len(self.pkt), self._edges.get(msg.originator)
        process_tc(self, msg, sender)
        if (self._edges.get(msg.originator) is not row
                and msg.originator not in self._changed):
            memo = self._opt
            assert (memo is not None and msg.originator not in memo.dist
                    and self.rs == memo.rs), (
                f"router {self.ip} at t={self.now}: stored"
                f" {msg.originator}'s row with no pass to read it, though"
                " the last pass reached it or proved no routing set")
        assert len(self.pkt) == sent or (
            key in self.rxs and self.pkt[-1] is msg), (
            f"router {self.ip} at t={self.now}: forwarded"
            f" {msg.originator}'s TC {msg.seq} without logging it as"
            " received, so its next copy is forwarded again, or"
            " forwarded another object than the one it received")

    def checked_generate(self):
        # a call sends at most one HELLO, and sending one moves
        # hello_time; generation writes nothing make_hello reads
        reused, deadline = not self._hello_stale, self.hello_time
        generate(self)
        if reused and self.hello_time != deadline:
            built = make_hello(self.ip, self.cfg.h_hold_time,
                               self.ls.values(), self.now)
            assert built == self._hello and (
                list(built.statuses) == list(self._hello.statuses)), (
                f"router {self.ip} at t={self.now}: the last HELLO was"
                f" sent again, but make_hello builds {built}")
            seen["hello reused"] += 1

    def checked_process_hello(self, msg, in_metric):
        if in_step:
            assert_consistent(self, "before a HELLO")
        walked = self._walked.get(getattr(msg, "originator", None))
        if walked is None or walked[0] is not msg:
            return process_hello(self, msg, in_metric)
        want = full_hello_receipt(self, process_hello, msg, in_metric)
        process_hello(self, msg, in_metric)
        assert hello_receipt_state(self) == want, (
            f"router {self.ip} at t={self.now}: a repeat of"
            f" {msg.originator}'s HELLO differs from the full walk")
        if self.ls[msg.originator].symmetric_time > self.now:
            seen["hello repeat"] += 1

    def checked(self, pass_fn, kind):
        idle = not self.updates_pending()
        before = pass_state(self) if idle else None
        lowered = seen["repair"]
        pass_fn(self)
        lowered = seen["repair"] > lowered
        where = f"router {self.ip} at t={self.now}: the {kind}"
        universe = topology.link_universe(self.ip, self.ls, self.rts,
                                          self.now)
        assert self._edges == universe and not self._changed, (
            f"{where} left a live universe that is not rts's")
        dist = topology._dijkstra(universe, self.ip)
        memo = self._opt
        assert memo.dist == dist, (
            f"{where} kept distances that are not the universe's")
        pred = ref_predecessors(universe, dist)
        assert memo.pred == pred, (
            f"{where} kept predecessors that are not a full scan's")
        children = {}
        for v, u in pred.items():
            children.setdefault(u, set()).add(v)
        assert {u: vs for u, vs in memo.children.items() if vs} == children, (
            f"{where} kept a children index that is not pred's inverse")
        # in the memo's order of distances, equal to dist's values
        want = ref_routes(self.ip, memo.dist, pred)
        if lowered:
            assert memo.stale == set() and (
                list(memo.rs.items()) == list(want.items())), (
                f"{where} lowered distances but left routes that are not"
                " read off the predecessors, in its distances' order")
        elif memo.stale is not None:
            # off the stale nodes' subtrees, the routes read off pred: a
            # node is under a stale one when its predecessor is, and a
            # predecessor is nearer than its node
            under = set(memo.stale)
            for v in sorted(dist, key=dist.get):
                if pred.get(v) in under:
                    under.add(v)
            assert list(memo.rs) == list(want) and all(
                memo.rs[d] == r for d, r in want.items() if d not in under), (
                f"{where} left a route that is not read off the"
                " predecessors outside the stale nodes' subtrees")
        assert memo.rs == self.rs and ref_is_optimal_over(
            self.ip, universe, self.rs), (
            f"{where} recorded a routing set that is not optimal")
        assert not self.updates_pending(), (
            f"router {self.ip} at t={self.now}: updates_pending() holds"
            f" after a {kind}")
        if idle:
            assert pass_state(self) == before, (
                f"{where} with nothing pending changed state")
        return idle

    def checked_run(self):
        in_full_pass.append(self)
        try:
            idle = checked(self, run, "pass")
        finally:
            in_full_pass.pop()
        if idle:
            seen["idle"] += 1
        if in_step:
            seen[True] += 1

    def checked_run_topology(self):
        if in_full_pass:
            run_topology(self)
            return
        expired = sorted(o for o, (vt, _, _) in self.rts.items()
                         if vt <= self.now)
        assert not expired, (
            f"router {self.ip} at t={self.now}: a topology-only pass"
            f" met the expired entries of {expired}")
        if checked(self, run_topology, "topology-only pass"):
            seen["topology idle"] += 1
        seen["topology"] += 1

    def checked_pending(self):
        in_pending.append(self)
        try:
            return pending(self)
        finally:
            in_pending.pop()

    def checked_repair(edges, changed, dist):
        assert not in_pending, "updates_pending() repaired distances"
        fell = repair(edges, changed, dist)
        seen["fall back" if fell is None else
             "repair" if fell else "keep"] += 1
        return fell

    monkeypatch.setattr(Router, "step_main", checked_step)
    monkeypatch.setattr(Router, "_maybe_generate", checked_generate)
    monkeypatch.setattr(Router, "process_hello", checked_process_hello)
    monkeypatch.setattr(Router, "process_tc", checked_process_tc)
    monkeypatch.setattr(Router, "run_update_info", checked_run)
    monkeypatch.setattr(Router, "run_topology_update", checked_run_topology)
    monkeypatch.setattr(Router, "updates_pending", checked_pending)
    monkeypatch.setattr(topology, "repair_distances", checked_repair)
    yield seen
