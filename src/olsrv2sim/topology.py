"""Topology information base and routing-set computation.

Routing sets are maps dest -> Route. A router topology set is a map
from_oip -> (validity_time, ansn, {dest_oip: metric}): it holds both
RFC 7181 sets, the advertising remote routers and their topology rows,
since a TC replaces all of its originator's rows and its ansn at once
and gives them one validity time. The row map is the accepted TC's own
map. A row may name the receiver; no positive edge reaches its
distance 0, so such a row never shortens a path. Messages' maps are
never mutated, so an accepted TC that carries the stored map again only
refreshes, which a router stores in O(1) (Router.process_tc); any other
costs O(|advertised set|), and a purge O(#originators). The update and
purge functions change the set they are given in place; a stored row
map is never mutated. Route is an immutable NamedTuple.

Optimality of a routing set is defined over the link universe known to
one router: its own symmetric links plus every advertised topology row.
Every graph here is an adjacency map src -> {dst: metric}, and the link
universe is the topology set's own row maps plus the router's own row.
The underlying model quantifies over all paths in that universe; here
membership testing and construction run Dijkstra, and the brute-force
path enumeration lives in the test suite as an oracle.

A router keeps its universe live from one pass to the next, with the
rows replaced since the last pass recorded as they stood then, and a
RouteMemo of that pass: the distances, choose_optimal's predecessors
with each node's children, and the routing set proved optimal.
update_routes carries the memo over the recorded rows only. Every
changed row is recorded, and the pass alone decides what it moves: a
row whose source the memo's distances do not reach moves no distance,
predecessor or route, and a pass that reaches its source lowers that
distance and reads the row live.
repair_distances keeps the distances unless a tight edge was lost or
lengthened, lowering in place only what fell (Ramalingam & Reps, J.
Algorithms, 1996); predecessors then rescans the out-edges of the
nodes whose distance fell and of the changed rows, the only sources of
a tight edge that was not tight before. routes extends the repair to
the next hops: only the subtrees of the nodes whose distance fell or
whose predecessor moved are read again. Every metric is at least 1
(simnet rejects any other), so a node's predecessor is strictly nearer
to ip than the node, and routes reads the nodes in order of distance:
each next hop is then one lookup of the predecessor's. A pass that
keeps the distances keeps the routing set, even where a predecessor
moved on an equal-cost tie, so the memo carries such nodes as stale to
the next read, which must give choose_optimal's set exactly.
"""
from __future__ import annotations

import heapq
from itertools import chain, islice
from typing import AbstractSet, FrozenSet, NamedTuple, Optional

from .messages import (INF, Metric, NodeId, Sqn, TimeValue,
                       render_metric)

# dict[NodeId, tuple[TimeValue, Sqn, dict[NodeId, Metric]]]
TrSet = dict
RoutingSet = dict  # dict[NodeId, Route]


class Route(NamedTuple):
    dest: NodeId
    next_hop: NodeId
    metric: Metric


def update_router_topology(rts: TrSet, moip: NodeId, mansn: Sqn,
                           vtime: TimeValue, dests: dict,
                           now: TimeValue) -> bool:
    """Replace moip's ansn and every advertised row with the new ones.

    dests itself becomes the stored row map. Returns whether moip's
    (dest, metric) rows changed; False means the message only refreshed
    their validity time and ansn. Given the stored map again this
    compares it with itself; Router.process_tc stores such a TC itself,
    as the refresh this would find.
    """
    entry = rts.get(moip)
    old = {} if entry is None else entry[2]
    rts[moip] = (now + vtime, mansn, dests)
    return old != dests


def purge_router_topology(rts: TrSet, now: TimeValue) -> tuple:
    """Drop every originator whose entry expired. One walk: returns
    them, and the smallest validity time left, or INF."""
    gone, nxt = [], INF
    for oip, (vt, _, _) in rts.items():
        if vt <= now:
            gone.append(oip)
        elif vt < nxt:
            nxt = vt
    for oip in gone:
        del rts[oip]
    return gone, nxt


def rmpr_selectors(ls: dict) -> FrozenSet[NodeId]:
    """The neighbors a TC advertises: those that chose us as routing MPR."""
    return frozenset(oip for oip, lt in ls.items() if lt.rmpr_selector)


def increment_ansn(ls: dict, advertised: AbstractSet[NodeId],
                   ansn: Sqn) -> Sqn:
    """Bump ansn when the rmpr-selector set differs from the advertised one."""
    return ansn + 1 if rmpr_selectors(ls) != advertised else ansn


# --- shortest paths over the known link universe -----------------------

def own_row(ls: dict, now: TimeValue) -> dict:
    """The router's own row of its link universe: its symmetric links
    of finite metric, in O(degree). symmetric_time > now is SYMMETRIC,
    as LinkTuple.status reads it."""
    return {lt.oip: lt.out_metric for lt in ls.values()
            if lt.out_metric != INF and lt.symmetric_time > now}


def link_universe(ip: NodeId, ls: dict, rts: TrSet,
                  now: TimeValue) -> dict:
    """Known out-edges as an adjacency map src -> {dst: metric}.

    Every originator's rows are rts's own maps, shared and not copied;
    ip's row is own_row. Rows may keep infinite, self-loop or ip
    entries, and a row may be empty: none of these ever shortens a
    path, so a destination whose every path crosses an infinite one is
    unreachable. rts never holds rows of ip itself (Router.step_main
    drops own TCs). Only the full predicate, Router.updates_pending, builds
    this; a router's passes keep the same map live (Router._edges).
    """
    edges = {src: entry[2] for src, entry in rts.items()}
    edges[ip] = own_row(ls, now)
    return edges


def _dijkstra(edges: dict, source: NodeId) -> dict:
    dist = {source: 0}
    _lower(edges, dist, [(0, source)])
    return dist


def _lower(edges: dict, dist: dict, heap: list) -> list:
    """Dijkstra's loop: heap holds (dist[u], u) for each u whose edges
    are still to be relaxed. Lowers dist in place to the end and
    returns the nodes it settled, each once: a node is pushed only as
    its distance falls, so only its last push settles it."""
    settled = []
    while heap:
        d, u = heapq.heappop(heap)
        if d > dist[u]:
            continue
        settled.append(u)
        for v, w in edges.get(u, {}).items():
            nd = d + w
            if nd < dist.get(v, INF):
                dist[v] = nd
                heapq.heappush(heap, (nd, v))
    return settled


def is_optimal_over(ip: NodeId, edges: dict, rs: RoutingSet,
                    dist: dict) -> bool:
    """Membership test for the set of optimal routing sets over edges.

    edges is a link universe (see link_universe) and dist its
    _dijkstra distances from ip. rs must hold exactly one shortest
    route per reachable destination (destinations other than ip with
    finite distance), with a first hop that actually starts a
    witnessing shortest path. Metrics are positive, so (ip, h) starts a
    shortest path to d exactly when dist[h] is the metric of (ip, h)
    and d is reachable from h over tight edges, those (u, v) with
    dist[u] + w == dist[v]: one Dijkstra answers every route.
    """
    if rs.keys() != dist.keys() - {ip}:
        return False
    own = edges.get(ip, {})
    reach: dict = {}   # first hop -> nodes its tight paths reach
    for dest, route in rs.items():
        hop = route.next_hop
        if route.dest != dest or route.metric != dist[dest]:
            return False
        seen = reach.get(hop)
        if seen is None:
            w = own.get(hop)
            if w is None or w != dist.get(hop):
                return False
            seen = reach[hop] = {hop}
            todo = [hop]
            while todo:
                u = todo.pop()
                du = dist[u]
                for v, w in edges.get(u, {}).items():
                    if v not in seen and du + w == dist.get(v):
                        seen.add(v)
                        todo.append(v)
        if dest not in seen:
            return False
    return True


def predecessors(edges: dict, dist: dict, pred: dict, children: dict,
                 sources) -> set:
    """Fold the tight edges out of sources into pred and children, and
    return the nodes whose predecessor this set.

    pred is choose_optimal's predecessor map over dist: for each node v
    of dist but the source, the lexicographically smallest u with
    dist[u] + w == dist[v] for an edge (u, v) of weight w. children is
    its inverse, u -> the nodes whose predecessor is u; a set may be
    left empty. Given empty maps and every node of dist as sources,
    this is the full scan; given the last pass's maps, the sources must
    hold every node whose tight out-edges may be new (see
    update_routes).
    """
    moved = set()
    for u in sources:
        du = dist.get(u)
        if du is None:
            continue
        for v, w in edges.get(u, {}).items():
            if du + w == dist.get(v):
                p = pred.get(v)
                if p is None or u < p:
                    if p is not None:
                        children[p].discard(v)
                    pred[v] = u
                    children.setdefault(u, set()).add(v)
                    moved.add(v)
    return moved


def routes(ip: NodeId, dist: dict, pred: dict, rs: RoutingSet,
           stale: Optional[set] = None,
           children: Optional[dict] = None) -> RoutingSet:
    """choose_optimal's routing set, read off its predecessors pred.

    A destination's next hop is the first node after ip on its
    predecessor chain. Metrics are at least 1, so a predecessor is
    strictly nearer to ip than its node: the nodes are read in order of
    distance, and a node's next hop is the node itself when its
    predecessor is ip, else its predecessor's, read before it or kept.
    Routes follow dist's key order, and a route of rs with the same
    next hop and metric is reused.

    Given stale and pred's children index, only the nodes of stale and
    their descendants are read: rs must hold every other node of dist
    with the metric and the next hop that pred gives it, and in dist's
    order, and those routes are kept.
    """
    if stale is None:
        # every destination, in dist's order, each filled in below
        todo = out = {v: None for v in dist if v != ip}
    else:
        todo, out = set(stale), dict(rs)
        # new destinations come last in dist: they take their places in
        # its order now, and are read below like any stale node
        out.update(dict.fromkeys(islice(dist, len(rs) + 1, None)))
        below = list(todo)
        while below:
            for v in children.get(below.pop(), ()):
                if v not in todo:
                    todo.add(v)
                    below.append(v)
    for dest in sorted(todo, key=dist.__getitem__):
        u = pred[dest]
        h = dest if u == ip else out[u].next_hop
        m = dist[dest]
        r = rs.get(dest)
        if r is None or r.next_hop != h or r.metric != m:
            r = Route(dest, h, m)
        out[dest] = r
    return out


def choose_optimal(ip: NodeId, edges: dict, dist: dict,
                   pred: Optional[dict] = None) -> RoutingSet:
    """Canonical optimal routing set over a link universe, given its
    _dijkstra distances from ip as dist.

    Picks, for every node, the lexicographically smallest predecessor
    consistent with dist; the route's next hop is read off the
    resulting predecessor chain. Deterministic, so repeated runs give
    identical traces. pred, if given, is that predecessor map, from a
    full predecessors scan over dist, and is not scanned again.
    """
    if pred is None:
        pred = {}
        predecessors(edges, dist, pred, {}, dist)
    return routes(ip, dist, pred, {})


def repair_distances(edges: dict, changed: dict,
                     dist: dict) -> Optional[list]:
    """Carry dist over the rows in changed to edges, or say no.

    dist is the _dijkstra distances of the universe as it stood before
    the rows in changed were replaced: changed maps each such source to
    its row then, or None if it had none, and a source edges no longer
    holds was purged, every edge of its row removed. A row compares by
    identity, then by value.

    None, before dist is written: an edge (u, v) of an old row with u
    reachable was tight, dist[u] + w == dist[v], and is gone or longer
    in edges, so a distance may grow. Else the nodes whose distance
    fell: the changed edges out of reachable nodes that shorten a
    distance seed a Dijkstra that lowers dist in place, and a routing
    set optimal before is then not optimal. With no such edge, no node:
    the distances hold and the tight edges only grew, so such a set
    stays optimal.
    """
    seeds: dict = {}
    for src, before in changed.items():
        row = edges.get(src, {})
        if row is before or row == before or src not in dist:
            continue
        du = dist[src]
        if before and any(du + w == dist.get(v) and row.get(v, INF) > w
                          for v, w in before.items()):
            return None
        for v, w in row.items():
            if du + w < seeds.get(v, dist.get(v, INF)):
                seeds[v] = du + w
    if not seeds:
        return []
    heap = [(d, v) for v, d in seeds.items()]
    heapq.heapify(heap)
    dist.update(seeds)
    return _lower(edges, dist, heap)


def update_routing_set(ip: NodeId, edges: dict, rs: RoutingSet,
                       dist: dict, pred: Optional[dict] = None) -> RoutingSet:
    """Keep rs when it is still optimal, otherwise choose_optimal's set.

    dist, the universe's _dijkstra distances from ip, serves both the
    test and the choice, as does pred, if given, in choose_optimal.
    """
    if is_optimal_over(ip, edges, rs, dist):
        return rs
    return choose_optimal(ip, edges, dist, pred)


class RouteMemo(NamedTuple):
    """What a pass proved, for the next one to carry over: the
    universe's distances from ip, choose_optimal's predecessors over
    them and their children index, a copy of the routing set, optimal
    over that universe, and the nodes under which that set's next hops
    may not be the ones read off the predecessors (None: any node)."""
    dist: dict
    pred: dict
    children: dict
    rs: RoutingSet
    stale: Optional[set]


def update_routes(ip: NodeId, edges: dict, changed: dict, rs: RoutingSet,
                  memo: Optional[RouteMemo]) -> tuple:
    """(The routing set over edges, the memo for the next pass).

    edges is the live universe and changed its rows replaced since the
    last pass, as repair_distances takes them. A memo whose routing set
    is rs is carried over changed, and its distances, predecessors and
    children are moved in place:
    - if the distances hold, rs and the memo stay; the only new tight
      edges leave changed rows, and they may move a predecessor. rs
      keeps its next hops, so the memo's stale nodes gain those moved;
    - if some fell, in the memo's own distances, a node whose distance
      fell takes its predecessor from the nodes that fell and the
      changed rows, and every other node keeps the smaller of its old
      one and theirs: its old tight in-edges stay tight. The routes are
      read off the predecessors under the nodes that fell, those whose
      predecessor moved and the memo's stale ones (routes): no other
      next hop or metric moved.
    Otherwise (no memo, rs is not the memo's, or a tight edge was lost
    or lengthened) a full Dijkstra and one full predecessor scan, which
    serves the memo and update_routing_set. A set that test kept may not
    be the one read off the predecessors, so every node is then stale.
    """
    if memo is not None and rs == memo.rs:
        fell = repair_distances(edges, changed, memo.dist)
        if fell is not None:
            dist, pred, children, _, stale = memo
            for v in fell:
                if v in pred:
                    children[pred.pop(v)].discard(v)
            moved = predecessors(edges, dist, pred, children,
                                 chain(fell, changed))
            if stale is not None:
                stale |= moved
            if not fell:
                return rs, memo
            rs = routes(ip, dist, pred, memo.rs, stale, children)
            return rs, RouteMemo(dist, pred, children, dict(rs), set())
    dist = _dijkstra(edges, ip)
    pred: dict = {}
    children: dict = {}
    predecessors(edges, dist, pred, children, dist)
    new_rs = update_routing_set(ip, edges, rs, dist, pred)
    return new_rs, RouteMemo(dist, pred, children, dict(new_rs),
                             None if new_rs is rs else set())


# --- trace rendering ---------------------------------------------------

def render_route(r: Route) -> str:
    return f"ROUTE {r.dest} via {r.next_hop} m={render_metric(r.metric)}"
