"""Independent reference implementations used as test oracles.

Everything in this module is written from the definitions, in a
different shape than the library code: straight nested loops, no
shared helpers, no reuse of the library's intermediate tables. When a
library function and its oracle agree on randomized inputs, that is
evidence the library computes the intended quantity rather than
merely agreeing with itself.
"""
from __future__ import annotations

import copy
import itertools
import random

from olsrv2sim import messages, topology
from olsrv2sim.cli import Scenario
from olsrv2sim.messages import INF, NEG_INF, MprRole, Status
from olsrv2sim.neighborhood import LinkTuple, TwoHopTuple
from olsrv2sim.simnet import TraceEvent


# ---------------------------------------------------------------------------
# MPR validity from scratch
# ---------------------------------------------------------------------------

def ref_symmetric_neighbors(ls, now):
    out = set()
    for oip, lt in ls.items():
        if lt.symmetric_time > now:
            out.add(oip)
    return out


def ref_targets(ls, twohop_set, now):
    """Every two-hop address reachable through a symmetric neighbor."""
    n1 = ref_symmetric_neighbors(ls, now)
    out = set()
    for n2 in twohop_set.values():
        if n2.one_hop_oip in n1:
            out.add(n2.two_hop_oip)
    return out


def ref_distance(ls, twohop_set, now, flavour, bug_mode, members, target):
    """d(target, members): cheapest way to reach target via the set.

    Hop flavour counts 1 per hop; metric flavour adds directed link
    metrics, reading the two-hop leg from the inward metric unless
    bug_mode asks for the outward one.
    """
    n1 = ref_symmetric_neighbors(ls, now)
    best = INF
    for x in members:
        if x not in n1:
            continue
        if x == target:
            cand = 1 if flavour == "fmpr" else ls[x].in_metric
            best = min(best, cand)
        for n2 in twohop_set.values():
            if n2.one_hop_oip != x or n2.two_hop_oip != target:
                continue
            if flavour == "fmpr":
                cand = 2
            elif bug_mode:
                cand = ls[x].in_metric + n2.out_metric
            else:
                cand = ls[x].in_metric + n2.in_metric
            best = min(best, cand)
    return best


def ref_mpr_valid(ls, twohop_set, now, flavour, bug_mode, members):
    """Distance-preservation validity, recomputed from the definition."""
    n1 = ref_symmetric_neighbors(ls, now)
    if not set(members) <= n1:
        return False
    for t in ref_targets(ls, twohop_set, now):
        d_all = ref_distance(ls, twohop_set, now, flavour, bug_mode, n1, t)
        d_m = ref_distance(ls, twohop_set, now, flavour, bug_mode,
                           members, t)
        if d_m != d_all:
            return False
    return True


def ref_all_valid(ls, twohop_set, now, flavour, bug_mode=False):
    n1 = sorted(ref_symmetric_neighbors(ls, now))
    out = set()
    for r in range(len(n1) + 1):
        for combo in itertools.combinations(n1, r):
            if ref_mpr_valid(ls, twohop_set, now, flavour, bug_mode,
                             frozenset(combo)):
                out.add(frozenset(combo))
    return out


def ref_greedy_choice(ls, twohop_set, now, flavour, bug_mode=False):
    """The greedy MPR pick, from the distances.

    First every neighbor that alone preserves some target's distance
    where no other one does. Then, while some target's distance is not
    preserved, the neighbor that alone preserves it for the most such
    targets, ties to the smallest id.
    """
    n1 = sorted(ref_symmetric_neighbors(ls, now))
    targets = sorted(ref_targets(ls, twohop_set, now))

    def d(members, t):
        return ref_distance(ls, twohop_set, now, flavour, bug_mode,
                            members, t)

    chosen = set()
    for t in targets:
        if d(n1, t) == INF:
            continue
        alone = [x for x in n1 if d([x], t) == d(n1, t)]
        if len(alone) == 1:
            chosen.add(alone[0])
    while True:
        unpreserved = [t for t in targets if d(chosen, t) != d(n1, t)]
        if not unpreserved:
            return frozenset(chosen)
        best, best_gain = None, 0
        for x in n1:
            if x in chosen:
                continue
            gain = 0
            for t in unpreserved:
                if d([x], t) == d(n1, t):
                    gain += 1
            if gain > best_gain:
                best, best_gain = x, gain
        chosen.add(best)


# ---------------------------------------------------------------------------
# Random neighborhood states
# ---------------------------------------------------------------------------

def random_neighborhood(rng: random.Random, max_n1: int = 6, now: int = 100):
    """A random (ls, twohop_set) pair with mixed statuses and metrics."""
    n_sym = rng.randint(1, max_n1)
    n_other = rng.randint(0, 2)
    ls = {}
    names = [f"n{i}" for i in range(n_sym + n_other)]
    for i, name in enumerate(names):
        if i < n_sym:
            sym, heard = now + rng.randint(1, 50), now + rng.randint(1, 50)
        elif rng.random() < 0.5:
            sym, heard = now - 5, now + rng.randint(1, 50)   # HEARD
        else:
            sym, heard = now - 5, now - 5                    # LOST
        ls[name] = LinkTuple(
            oip=name, symmetric_time=sym, heard_time=heard,
            validity_time=now + rng.randint(1, 60),
            fmpr=rng.random() < 0.3, rmpr=rng.random() < 0.3,
            fmpr_selector=rng.random() < 0.3,
            rmpr_selector=rng.random() < 0.3,
            in_metric=rng.randint(1, 8),
            out_metric=rng.choice([INF, rng.randint(1, 8)]))
    twohop = {}
    n_targets = rng.randint(0, 5)
    target_names = [f"t{i}" for i in range(n_targets)]
    for name in names:
        for t in target_names:
            if rng.random() < 0.5:
                continue
            twohop[(name, t)] = TwoHopTuple(
                one_hop_oip=name, two_hop_oip=t,
                validity_time=now + rng.randint(1, 60),
                in_metric=rng.choice([INF, rng.randint(1, 8)]),
                out_metric=rng.choice([INF, rng.randint(1, 8)]))
    # occasionally a neighbor is also someone's two-hop address
    if names and rng.random() < 0.3:
        a, b = rng.choice(names), rng.choice(names)
        if a != b:
            twohop[(a, b)] = TwoHopTuple(
                one_hop_oip=a, two_hop_oip=b,
                validity_time=now + rng.randint(1, 60),
                in_metric=rng.randint(1, 8),
                out_metric=rng.randint(1, 8))
    return ls, twohop


# ---------------------------------------------------------------------------
# Shortest paths by exhaustive simple-path enumeration
# ---------------------------------------------------------------------------

def simple_path_dists(edges: dict, source) -> dict:
    """Min-cost simple path to every node of the adjacency map edges
    (src -> {dst: metric}), by trying all of them."""
    nodes = set(edges)
    for row in edges.values():
        nodes.update(row)
    best = {source: 0}

    def walk(u, cost, seen):
        for v, w in edges.get(u, {}).items():
            if v in seen:
                continue
            c = cost + w
            if c < best.get(v, INF):
                best[v] = c
            # keep exploring even when not improving: a pricier prefix
            # can still lead to a cheaper suffix elsewhere
            walk(v, c, seen | {v})

    walk(source, 0, {source})
    return {n: best.get(n, INF) for n in nodes}


# ---------------------------------------------------------------------------
# Routing-set optimality, one Dijkstra per first hop
# ---------------------------------------------------------------------------

def ref_is_optimal_over(ip, edges: dict, rs: dict) -> bool:
    """Is rs one shortest route per reachable destination over edges,
    an adjacency map src -> {dst: metric}?

    Each route's first hop h is judged by a Dijkstra run from h itself:
    the route is optimal when the metric of (ip, h) plus h's own
    distance to the destination equals ip's distance to it. The library
    reads the same verdict off the one Dijkstra from ip.
    """
    dist = topology._dijkstra(edges, ip)
    reachable = {d for d in dist if d != ip}
    if set(rs.keys()) != reachable:
        return False
    via_cache = {}
    for dest, route in rs.items():
        if route.dest != dest or route.metric != dist[dest]:
            return False
        w = edges.get(ip, {}).get(route.next_hop)
        if w is None:
            return False
        if route.next_hop not in via_cache:
            via_cache[route.next_hop] = topology._dijkstra(edges,
                                                           route.next_hop)
        if w + via_cache[route.next_hop].get(dest, INF) != route.metric:
            return False
    return True


def ref_predecessors(edges: dict, dist: dict) -> dict:
    """For every node v of dist with a tight in-edge, the smallest u
    that has one: an edge (u, v) of metric w with dist[u] + w ==
    dist[v]. Collects every tight in-neighbour first, then takes the
    minimum."""
    tight = {}
    for u, row in edges.items():
        if u not in dist:
            continue
        for v, w in row.items():
            if v in dist and dist[u] + w == dist[v]:
                tight.setdefault(v, []).append(u)
    return {v: min(us) for v, us in tight.items()}


def ref_routes(ip, dist: dict, pred: dict) -> dict:
    """The routing set read off the predecessor map pred over dist, one
    destination at a time: each destination's chain of predecessors is
    walked back to ip, and its next hop is the last node before ip.
    Routes are listed in dist's key order; nothing is shared between
    destinations or assumed about the order of their distances."""
    out = {}
    for dest in dist:
        if dest == ip:
            continue
        hop, steps = dest, 0
        while pred[hop] != ip:
            hop, steps = pred[hop], steps + 1
            assert steps < len(dist), f"a predecessor cycle through {dest}"
        out[dest] = topology.Route(dest, hop, dist[dest])
    return out


# ---------------------------------------------------------------------------
# The consistency-check predicate, composed literally
# ---------------------------------------------------------------------------

def ref_purged_link_set(ls, now):
    """Unexpired link tuples, MPR flags cleared unless still symmetric."""
    out = {}
    for oip, lt in ls.items():
        if lt.validity_time <= now:
            continue
        if lt.symmetric_time <= now:
            lt = lt._replace(fmpr=False, rmpr=False,
                             fmpr_selector=False, rmpr_selector=False)
        out[oip] = lt
    return out


def ref_purged_2hop_set(ls, twohop_set, now):
    """Unexpired 2-hop tuples whose anchor is a symmetric neighbor."""
    n1 = ref_symmetric_neighbors(ls, now)
    return {key: n2 for key, n2 in twohop_set.items()
            if n2.validity_time > now and n2.one_hop_oip in n1}


def ref_unexpired_topology(rts, now):
    """The router topology set without originators whose entry expired."""
    return {oip: entry for oip, entry in rts.items() if entry[0] > now}


def ref_updates_pending(router) -> bool:
    """Disjunction of the seven maintenance conditions, one by one."""
    now = router.now
    if ref_purged_link_set(router.ls, now) != router.ls:
        return True
    if ref_purged_2hop_set(router.ls, router.twohop_set,
                           now) != router.twohop_set:
        return True
    if ref_unexpired_topology(router.rts, now) != router.rts:
        return True
    flagged_f = frozenset(o for o, lt in router.ls.items() if lt.fmpr)
    if flagged_f not in ref_all_valid(router.ls, router.twohop_set, now,
                                      "fmpr"):
        return True
    flagged_r = frozenset(o for o, lt in router.ls.items() if lt.rmpr)
    if flagged_r not in ref_all_valid(router.ls, router.twohop_set, now,
                                      "rmpr", router.bug_mode):
        return True
    selectors = {o for o, lt in router.ls.items() if lt.rmpr_selector}
    if selectors != router.advertised:
        return True
    edges = topology.link_universe(router.ip, router.ls, router.rts, now)
    return not ref_is_optimal_over(router.ip, edges, router.rs)


def pass_state(router):
    """The state a maintenance pass may write, in iteration order."""
    return (list(router.ls.items()), list(router.twohop_set.items()),
            list(router.rts.items()),
            list(router.rs.items()), router.last_route_change, router.ansn,
            router.advertised)


# ---------------------------------------------------------------------------
# A repeated HELLO, walked in full
# ---------------------------------------------------------------------------

def hello_receipt_state(router):
    """The state a HELLO receipt may write, in iteration order."""
    return (list(router.ls.items()), list(router.twohop_set.items()),
            router._dirty, router._next_expiry)


def full_hello_receipt(router, process_hello, msg, in_metric):
    """hello_receipt_state after process_hello(msg, in_metric) walks
    msg's names in full, run on a copy of router that has forgotten
    which HELLOs it walked. Unlike the rest of this module this is the
    library's own full walk: it is what a repeat receipt's shortcut
    must equal."""
    ref = copy.copy(router)
    ref.ls, ref.twohop_set = dict(router.ls), dict(router.twohop_set)
    ref._walked = {}
    process_hello(ref, msg, in_metric)
    return hello_receipt_state(ref)


# ---------------------------------------------------------------------------
# A HELLO receipt, as the library wrote it before its fast path
# ---------------------------------------------------------------------------

def ref_hello_receipt(router, msg, in_metric):
    """Apply msg to router as Router.process_hello did before it read
    statuses off the stored times and folded the written times into
    one running minimum: through LinkTuple.status and the NamedTuple
    constructors, with the written times collected in a list. Unlike
    the rest of this module this is the library's earlier code, kept
    whole, repeat walk included, so that a defect in the receipt's
    shared link-tuple part shows as a difference from it. It adopts
    the delivered in_metric, as the library does since links follow
    metric changes."""
    now, ip, vtime = router.now, router.ip, msg.validity
    htime = router.cfg.l_hold_time
    moip = msg.originator
    lt = router.ls.get(moip)
    created = lt is None
    if created:
        lt = LinkTuple(moip, NEG_INF, NEG_INF, now + vtime,
                       False, False, False, False, in_metric, INF)
    sym_time, validity = lt.symmetric_time, lt.validity_time
    st = msg.statuses.get(ip)
    if st is not None and st != Status.LOST:
        sym_time = now + vtime
    elif st == Status.LOST and sym_time > now:
        sym_time, validity = NEG_INF, now + htime
    heard_time = max(now + vtime, sym_time)
    role = msg.mprs.get(ip)
    keep = st != Status.SYMMETRIC
    fsel = (role in (MprRole.FLOODING, MprRole.FLOOD_ROUTE)
            or (keep and lt.fmpr_selector))
    rsel = (role in (MprRole.ROUTING, MprRole.FLOOD_ROUTE)
            or (keep and lt.rmpr_selector))
    new = LinkTuple(
        moip, sym_time, heard_time, max(heard_time + htime, validity),
        lt.fmpr, lt.rmpr, fsel, rsel, in_metric,
        msg.in_metrics.get(ip, lt.out_metric))
    router.ls[moip] = new
    status = new.status(now)
    sym = status == Status.SYMMETRIC
    old_status = lt.status(now)
    dirty = (sym != (old_status == Status.SYMMETRIC)
             or fsel != lt.fmpr_selector or rsel != lt.rmpr_selector
             or (sym and (new.out_metric != lt.out_metric
                          or new.in_metric != lt.in_metric))
             or new.validity_time <= now)
    if (created or status != old_status
            or new.out_metric != lt.out_metric
            or (status != Status.LOST and new.in_metric != lt.in_metric)):
        router._hello_stale = True
    written = [sym_time, heard_time, new.validity_time]
    if sym_time > now:
        ths = router.twohop_set
        walked = router._walked.get(moip)
        if walked is not None and walked[0] is msg:
            vt = now + vtime
            for x in walked[1]:
                n2 = ths.get((moip, x))
                if n2 is None:
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
            router._walked[moip] = (msg, listed)
    if dirty:
        router._dirty = True
    else:
        for t in written:
            if now < t < router._next_expiry:
                router._next_expiry = t


# ---------------------------------------------------------------------------
# RFC 7181's two topology sets, held apart
# ---------------------------------------------------------------------------

class RefTopologySets:
    """The Advertising Remote Router Set and the Router Topology Set as
    two maps, as RFC 7181 and the T-AWN model keep them.

    arrs maps an originator to (ansn, validity time). rts maps it to
    (validity time, rows): a copy of the TC's map without the receiver
    ip, and an originator with no rows has no entry there.
    """

    def __init__(self, ip):
        self.ip, self.arrs, self.rts = ip, {}, {}

    def purge(self, now):
        for oip in list(self.arrs):
            if self.arrs[oip][1] <= now:
                del self.arrs[oip]
        for oip in list(self.rts):
            if self.rts[oip][0] <= now:
                del self.rts[oip]

    def receive(self, moip, ansn, vtime, dests, now):
        """Apply one TC; return (accepted, rows changed)."""
        if moip in self.arrs and self.arrs[moip][0] > ansn:
            return False, False
        self.arrs[moip] = (ansn, now + vtime)
        before = self.rts.pop(moip, (None, {}))[1]
        rows = {}
        for dest, metric in dests.items():
            if dest != self.ip:
                rows[dest] = metric
        if rows:
            self.rts[moip] = (now + vtime, rows)
        return True, rows != before

    def edges(self, own_row):
        """The link universe: every stored row plus ip's own."""
        out = {oip: dict(rows) for oip, (_, rows) in self.rts.items()}
        out[self.ip] = dict(own_row)
        return out


# ---------------------------------------------------------------------------
# A network tick, as the library ran it with one event list
# ---------------------------------------------------------------------------

def ref_tick(net) -> None:
    """Run one tick of net as Network.tick did before it recorded events
    per node and shared a snapshot per sender row: every event in one
    list, sorted stably by node at the tick's end, and each broadcast
    in flight with its own copy of the sender's row, whose recipients
    its delivery sorts. Each router's trace is rebound to this tick's
    list, stamping with the network's clock where the library takes the
    router's own, and in-flight entries hold a bare row copy, so a
    network ticked by this is ticked by nothing else."""
    clock, out, routers = net.clock, net.out, net.routers
    events = []
    for nid, router in routers.items():
        router.trace = (lambda tick, kind, payload, nid=nid:
                        events.append(TraceEvent(clock, nid, kind, payload)))

    for sender, packet, snapshot in sorted(net.inflights.pop(clock, ()),
                                           key=lambda f: f[0]):
        for r in sorted(snapshot):
            m = out[sender].get(r, snapshot[r])
            if net.metric_noise:
                m = net._noise_rng[r].randint(max(1, m - net.metric_noise),
                                              m + net.metric_noise)
            routers[r].enqueue_delivery(packet, m, sender)
            events.append(TraceEvent(clock, r, "DELIVER", (sender, m),
                                     packet))

    for nid in net._step_order:
        if clock < net._busy_until[nid]:
            continue
        packet = routers[nid].step_main()
        if packet is not None:
            d = net.params.lb + net._dur_rng[nid].randrange(
                net.params.delta_b + 1)
            snapshot = dict(out[nid])
            net.inflights.setdefault(clock + d, []).append(
                (nid, packet, snapshot))
            net._busy_until[nid] = clock + d
            events.append(TraceEvent(clock, nid, "BROADCAST",
                                     (d, frozenset(snapshot)), packet))

    for ev in net.events:
        if ev.time == clock:
            if ev.kind == "linkdown":
                del out[ev.src][ev.dst]
            else:
                out[ev.src][ev.dst] = ev.metric
            events.append(TraceEvent(clock, ev.src, "LINK_EVENT", ev))

    net.clock += 1
    for router in routers.values():
        router.now += 1
    events.sort(key=lambda e: e.node)
    net.trace.extend(events)


# ---------------------------------------------------------------------------
# Trace lines, one event at a time
# ---------------------------------------------------------------------------

def render_event_detail(ev) -> str:
    """ev's text after its kind, rendered from ev alone: no memo, and
    each message through messages.render_message, with the sender the
    event names: a packet's broadcaster (DELIVER's from=, BROADCAST's
    node), or the node that generated or forwarded a message."""
    kind, p = ev.kind, ev.payload
    if kind == "DELIVER":
        pkt = messages.render_packet(ev.packet, p[0])
        return f"from={p[0]} m={p[1]} pkt={pkt}"
    if kind == "BROADCAST":
        to = ",".join(sorted(p[1]))
        pkt = messages.render_packet(ev.packet, ev.node)
        return f"d={p[0]} to={{{to}}} pkt={pkt}"
    if kind in ("HELLO_GEN", "TC_GEN", "TC_FWD"):
        return messages.render_message(p, ev.node)
    if kind == "ROUTE_CHANGE":
        return "rs=[" + "; ".join(topology.render_route(r) for r in p) + "]"
    if kind == "LINK_EVENT":
        if p.kind == "linkdown":
            return f"linkdown dst={p.dst}"
        return f"{p.kind} dst={p.dst} m={p.metric}"
    raise ValueError(f"unknown trace event kind: {kind}")


def render_trace_event(ev) -> str:
    """ev's trace line, without its newline."""
    return f"t={ev.tick} n={ev.node} ev={ev.kind} {render_event_detail(ev)}"


# ---------------------------------------------------------------------------
# Random connected scenarios
# ---------------------------------------------------------------------------

def random_connected_scenario(rng: random.Random, n_nodes: int,
                              seed: int, ticks: int = 400,
                              max_metric: int = 8) -> Scenario:
    """Random spanning tree plus chords, independent directed metrics."""
    names = [chr(ord("a") + i) for i in range(n_nodes)]
    undirected = []
    for i in range(1, n_nodes):
        undirected.append((names[i], names[rng.randrange(i)]))
    have = {frozenset(e) for e in undirected}
    for _ in range(rng.randrange(n_nodes)):
        u, v = rng.sample(names, 2)
        if frozenset((u, v)) in have:
            continue
        have.add(frozenset((u, v)))
        undirected.append((u, v))
    links = []
    for u, v in undirected:
        links.append((u, v, rng.randint(1, max_metric)))
        links.append((v, u, rng.randint(1, max_metric)))
    params = {
        "lb": 1, "delta_b": 1, "hp_maxjitter": 3, "hello_interval": 8,
        "tp_maxjitter": 3, "tc_interval": 12, "seed": seed, "ticks": ticks,
    }
    return Scenario(nodes=tuple(names), params=params, links=tuple(links))


# ---------------------------------------------------------------------------
# Reconvergence bounds, one per event kind
# ---------------------------------------------------------------------------

def reconvergence_bounds(net) -> dict:
    """Ticks after an event of each kind within which every router's
    routes stop changing, unless a later event moves them again,
    derived from net's constraint chain with every router's largest
    parameters. Two latencies, in ticks:

    - a hop, H = 2(LB + ΔB) + 1. A message queued in a step at g is
      broadcast at g + 1 and delivered at most LB + ΔB later. A
      receiver that broadcasts at that tick does nothing else in its
      step and is busy for at most LB + ΔB more, so every receiver has
      processed the message by g + H;
    - a HELLO round, R = hello_interval + H - 1. State written in a step
      at t is in a HELLO built at t, or else by t - 1 + hello_interval,
      as no HELLO deadline is missed, so every neighbour has processed
      it by t + R. A TC carries it by t - 1 + tc_interval, and its flood
      reaches every router over at most n - 1 hops, one H each.

    "linkup", and "metric" in either direction, on u->v at T: v takes
    up the link or its new in_metric from u's first HELLO over it
    (T + R). u reads v's SYMMETRIC status and v's new in_metric of it
    from v's next HELLO (2R). From u's and v's next ones their
    neighbours' 2-hop sets take the link (3R). The MPR selections made
    over those sets reach the selected routers in the HELLO after that
    (4R). Each router's next TC then carries its final selectors and
    metrics, and its flood ends the route changes:
    4R + tc_interval - 1 + (n - 1)H. A raise waits for the same chain
    as a lowering: its metric reaches u, the end that advertises it,
    only through v's HELLO.

    "linkdown" of u->v at T: u's last HELLO over it was processed by
    T + 2(LB + ΔB), so v's link tuple lapses by
    A = T + 2(LB + ΔB) + h_hold_time. A fact that stops being true is
    no longer sent, and what a HELLO stored lapses h_hold_time after
    the last HELLO that carried it, processed at most H - 1 after the
    fact's last HELLO was built. So u's SYMMETRIC link to v lapses by
    B = A + H - 1 + h_hold_time, and the 2-hop tuples of u's neighbours
    through u to v by C = B + H - 1 + h_hold_time: a HELLO that lists
    v as not SYMMETRIC neither refreshes nor removes them. The MPR
    selections made then are announced within R, and the TCs follow:
    C + R + tc_interval - 1 + (n - 1)H. If no other link joins u's side
    to v's, rows from across stop coming once u drops v (B), the last
    one stored at most n - 2 hops later, and lapse t_hold_time after:
    B + (n - 2)H + t_hold_time.
    """
    cfgs = [router.cfg for router in net.routers.values()]
    lb_db = net.params.lb + net.params.delta_b
    h_hold = max(c.h_hold_time for c in cfgs)
    hop = 2 * lb_db + 1
    hello_round = max(c.hello_interval for c in cfgs) + hop - 1
    tc_flood = (max(c.tc_interval for c in cfgs) - 1
                + (len(cfgs) - 1) * hop)
    change = 4 * hello_round + tc_flood
    lapsed = 2 * lb_db + h_hold + hop - 1 + h_hold
    down = max(lapsed + hop - 1 + h_hold + hello_round + tc_flood,
               lapsed + (len(cfgs) - 2) * hop
               + max(c.t_hold_time for c in cfgs))
    return {"linkup": change, "metric": change, "linkdown": down}


def last_change_bound(net) -> int:
    """The tick by which net's last route change comes: the largest,
    over its events, of the event's tick plus its kind's bound."""
    bounds = reconvergence_bounds(net)
    return max(ev.time + bounds[ev.kind] for ev in net.events)
