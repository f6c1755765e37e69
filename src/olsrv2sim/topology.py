"""Topology information base and routing-set computation.

Routing sets are maps dest -> Route. A router topology set is a map
from_oip -> (validity_time, ansn, {dest_oip: metric}): it holds both
RFC 7181 sets, the advertising remote routers and their topology rows,
since a TC replaces all of its originator's rows and its ansn at once
and gives them one validity time. So the set is held by originator, an
accepted TC that carries the stored map again costs O(1), any other
O(|advertised set|), and a purge O(#originators). An
originator that advertises nothing but the receiver still has an
entry, with an empty row map, so its ansn is remembered. The update
and purge functions change the set they are given in place; a stored
row map is never mutated, and it is the TC's own map unless that map
names the receiver. Route is an immutable NamedTuple.

Optimality of a routing set is defined over the link universe known to
one router: its own symmetric links plus every advertised topology row.
Every graph here is an adjacency map src -> {dst: metric}, and the link
universe is the topology set's own row maps plus the router's own row,
so two universes whose rows were not replaced compare by identity. The
underlying model quantifies over all paths in that universe; here
membership testing and construction run Dijkstra, and the brute-force
path enumeration lives in the test suite as an oracle.

repair_distances carries one universe's distances to the next unless
a tight edge was lost or lengthened, lowering only what fell
(Ramalingam & Reps, J. Algorithms, 1996).
"""
from __future__ import annotations

import heapq
from itertools import chain
from typing import AbstractSet, FrozenSet, NamedTuple, Optional

from .messages import (INF, Metric, NodeId, Sqn, Status, TimeValue,
                       render_metric)

TrSet = dict      # dict[NodeId, tuple[TimeValue, Sqn, dict[NodeId, Metric]]]
RoutingSet = dict  # dict[NodeId, Route]


class Route(NamedTuple):
    dest: NodeId
    next_hop: NodeId
    metric: Metric


def update_router_topology(ip: NodeId, rts: TrSet, moip: NodeId,
                           mansn: Sqn, vtime: TimeValue, dests: dict,
                           now: TimeValue) -> bool:
    """Replace moip's ansn and every advertised row with the new ones.

    Entries about ip itself are dropped. Returns whether moip's (dest,
    metric) rows changed; False means the message only refreshed their
    validity time and ansn. Messages' maps are never mutated, so dests
    itself becomes the stored row unless it names ip: then a refresh
    keeps the stored row and a change stores a copy without ip.
    """
    entry = rts.get(moip)
    old = {} if entry is None else entry[2]
    row = dests
    if old is dests:
        changed = False
    elif ip not in dests:
        changed = old != dests
    else:
        # a stored row never holds ip, so it equals dests minus ip
        # exactly when it is as large and each of its rows is in dests
        changed = (len(dests) - 1 != len(old)
                   or not old.items() <= dests.items())
        row = ({d: m for d, m in dests.items() if d != ip} if changed
               else old)
    rts[moip] = (now + vtime, mansn, row)
    return changed


def purge_router_topology(rts: TrSet, now: TimeValue) -> None:
    for oip in [oip for oip, (vt, _, _) in rts.items() if vt <= now]:
        del rts[oip]


def rmpr_selectors(ls: dict) -> FrozenSet[NodeId]:
    """The neighbors a TC advertises: those that chose us as routing MPR."""
    return frozenset(oip for oip, lt in ls.items() if lt.rmpr_selector)


def increment_ansn(ls: dict, advertised: AbstractSet[NodeId],
                   ansn: Sqn) -> Sqn:
    """Bump ansn when the rmpr-selector set differs from the advertised one."""
    return ansn + 1 if rmpr_selectors(ls) != advertised else ansn


# --- shortest paths over the known link universe -----------------------

def link_universe(ip: NodeId, ls: dict, rts: TrSet,
                  now: TimeValue) -> dict:
    """Known out-edges as an adjacency map src -> {dst: metric}.

    Every originator's rows are rts's own maps, shared and not copied;
    ip's row holds its symmetric links of finite metric. Rows may keep
    infinite or self-loop entries, and a row may be empty: none of
    these ever shortens a path, so a destination whose every path
    crosses an infinite one is unreachable. rts never holds rows of ip
    itself (process_tc drops own TCs).
    """
    edges = {src: dests for src, (_, _, dests) in rts.items()}
    edges[ip] = {lt.oip: lt.out_metric for lt in ls.values()
                 if lt.out_metric != INF
                 and lt.status(now) == Status.SYMMETRIC}
    return edges


def _dijkstra(edges: dict, source: NodeId) -> dict:
    return _lower(edges, {source: 0}, [(0, source)])


def _lower(edges: dict, dist: dict, heap: list) -> dict:
    """Dijkstra's loop: heap holds (dist[u], u) for each u whose edges
    are still to be relaxed; returns dist, lowered to the end."""
    while heap:
        d, u = heapq.heappop(heap)
        if d > dist[u]:
            continue
        for v, w in edges.get(u, {}).items():
            nd = d + w
            if nd < dist.get(v, INF):
                dist[v] = nd
                heapq.heappush(heap, (nd, v))
    return dist


def is_optimal_over(ip: NodeId, edges: dict, rs: RoutingSet,
                    dist: Optional[dict] = None) -> bool:
    """Membership test for the set of optimal routing sets over edges.

    edges is a link universe (see link_universe) and dist, if given,
    its _dijkstra distances from ip. rs must hold exactly one shortest
    route per reachable destination (destinations other than ip with
    finite distance), with a first hop that actually starts a
    witnessing shortest path. Metrics are positive, so (ip, h) starts a
    shortest path to d exactly when dist[h] is the metric of (ip, h)
    and d is reachable from h over tight edges, those (u, v) with
    dist[u] + w == dist[v]: one Dijkstra answers every route.
    """
    if dist is None:
        dist = _dijkstra(edges, ip)
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
            if w is None or w != dist[hop]:
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


def choose_optimal(ip: NodeId, edges: dict,
                   dist: Optional[dict] = None) -> RoutingSet:
    """Canonical optimal routing set over a link universe.

    Runs Dijkstra from ip, unless its distances come in as dist, and
    then picks, for every node, the lexicographically smallest
    predecessor consistent with the final distances; the route's next
    hop is read off the resulting predecessor chain. Deterministic, so
    repeated runs give identical traces.
    """
    if dist is None:
        dist = _dijkstra(edges, ip)
    pred: dict = {}
    for u, du in dist.items():
        for v, w in edges.get(u, {}).items():
            if du + w == dist.get(v) and (v not in pred or u < pred[v]):
                pred[v] = u
    rs: RoutingSet = {}
    for dest in dist:
        if dest == ip:
            continue
        hop = dest
        while pred[hop] != ip:
            hop = pred[hop]
        rs[dest] = Route(dest=dest, next_hop=hop, metric=dist[dest])
    return rs


def repair_distances(old: dict, edges: dict, dist: dict) -> Optional[dict]:
    """Carry dist, old's _dijkstra distances, over to edges, or say no.

    None: an edge (u, v) of old with u reachable was tight, dist[u] + w
    == dist[v], and is gone or longer in edges, so a distance may grow.
    Else the changed edges out of reachable nodes that shorten a
    distance seed a Dijkstra that only lowers distances, and its new
    dict is returned: a routing set optimal over old is then not
    optimal over edges. With no such edge, dist itself: the distances
    hold and the tight edges only grew, so such a set stays optimal.
    A row compares by identity, then by value; a purged row counts as
    every edge of it removed.
    """
    seeds: dict = {}
    purged = dict.fromkeys(old.keys() - edges.keys(), {})
    for src, row in chain(edges.items(), purged.items()):
        before = old.get(src)
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
        return dist
    heap = [(d, v) for v, d in seeds.items()]
    heapq.heapify(heap)
    return _lower(edges, {**dist, **seeds}, heap)


def update_routing_set(ip: NodeId, edges: dict, rs: RoutingSet,
                       dist: Optional[dict] = None) -> RoutingSet:
    """Keep rs when it is still optimal, otherwise choose_optimal's set.

    One Dijkstra from ip, unless its distances come in as dist, serves
    both the test and the choice.
    """
    if dist is None:
        dist = _dijkstra(edges, ip)
    if is_optimal_over(ip, edges, rs, dist):
        return rs
    return choose_optimal(ip, edges, dist)


# --- trace rendering ---------------------------------------------------

def render_route(r: Route) -> str:
    return f"ROUTE {r.dest} via {r.next_hop} m={render_metric(r.metric)}"
