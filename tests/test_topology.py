"""Topology base, shortest paths, and routing-set optimality.

The optimality predicate is cross-checked against a brute-force
enumeration of simple paths (no Dijkstra, no shared code) and against
the oracles' one-Dijkstra-per-first-hop test, both on optimal routing
sets and on randomly mutated ones.
"""
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from olsrv2sim.engine import Router, RouterConfig
from olsrv2sim.messages import INF, Tc
from olsrv2sim.neighborhood import LinkTuple
from olsrv2sim.topology import (Route, _dijkstra, choose_optimal,
                                increment_ansn, is_optimal_over,
                                link_universe, predecessors,
                                purge_router_topology, render_route,
                                repair_distances, update_router_topology,
                                update_routes, update_routing_set)

import oracles

NOW = 100


def sym_link(oip, out_m, sym_time=NOW + 10):
    return LinkTuple(oip, sym_time, NOW + 10, NOW + 20, False, False,
                     False, False, 1, out_m)


def rows(dests, vt=NOW + 50, ansn=0):
    """One originator's entry in a router topology set: its TC's map."""
    return (vt, ansn, dict(dests))


# --- information-base updates ----------------------------------------------

def test_update_router_topology_replaces_ansn_and_validity():
    rts = {}
    update_router_topology(rts, "b", mansn=3, vtime=40, dests={}, now=NOW)
    assert rts == {"b": rows({}, NOW + 40, ansn=3)}
    update_router_topology(rts, "b", mansn=4, vtime=10, dests={}, now=NOW)
    assert rts == {"b": rows({}, NOW + 10, ansn=4)}


def test_update_router_topology_replaces_all_rows_of_originator():
    rts = {"b": rows({"x": 1}), "c": rows({"x": 2})}
    assert update_router_topology(rts, "b", mansn=0, vtime=30,
                                  dests={"y": 5, "me": 1}, now=NOW)
    # b's old rows are gone; a row about the receiver is kept as it came
    assert rts == {"b": rows({"y": 5, "me": 1}, NOW + 30),
                   "c": rows({"x": 2})}
    # the same rows again only refresh the validity time
    assert not update_router_topology(rts, "b", mansn=0, vtime=10,
                                      dests={"y": 5, "me": 1}, now=NOW + 1)
    assert rts["b"] == rows({"y": 5, "me": 1}, NOW + 11)
    assert update_router_topology(rts, "b", mansn=0, vtime=10,
                                  dests={"y": 5}, now=NOW + 1)
    assert update_router_topology(rts, "b", mansn=0, vtime=10,
                                  dests={}, now=NOW + 1)
    # an originator with no rows left keeps its entry, and so its ansn
    assert rts == {"b": rows({}, NOW + 11), "c": rows({"x": 2})}


VERDICTS = [
    # (stored row map or None, dests, changed, the rows RFC 7181's
    # Router Topology Set holds after, dests without me, or None for none)
    ({"x": 1, "me": 4}, {"me": 4, "x": 1}, False, {"x": 1}),
    ({"x": 1, "y": 2}, {"x": 1, "z": 2}, True, {"x": 1, "z": 2}),
    ({"x": 1, "y": 2}, {"x": 1, "y": 3}, True, {"x": 1, "y": 3}),
    ({"x": 1}, {"x": 1, "me": 1, "y": 1}, True, {"x": 1, "y": 1}),
    ({"x": 1}, {"me": 1}, True, None),
    (None, {}, False, None),
    (None, {"me": 2}, True, None),
    (None, {"x": INF}, True, {"x": INF}),
    ({"x": 1, "y": 2}, {"y": 2, "x": 1}, False, {"x": 1, "y": 2}),
    # a change to the receiver's row alone is a change of the map
    ({"x": 1, "me": 4}, {"x": 1, "me": 5}, True, {"x": 1}),
    ({"x": 1, "y": 2}, {"y": 2, "me": 4, "x": 1}, True, {"x": 1, "y": 2}),
]


@pytest.mark.parametrize("stored,dests,changed,after", VERDICTS)
def test_update_router_topology_verdict(stored, dests, changed, after):
    rts = {"c": rows({"x": 2})}
    if stored is not None:
        rts["b"] = rows(stored)
    old = rts.get("b")
    got = update_router_topology(rts, "b", mansn=7, vtime=30, dests=dests,
                                 now=NOW)
    assert got is changed
    # the stored row is the message's own map, whatever the verdict
    assert rts["b"] == (NOW + 30, 7, dests) and rts["b"][2] is dests
    assert {d: m for d, m in dests.items() if d != "me"} == (after or {})
    assert rts["c"] == rows({"x": 2})
    if old is not None:
        assert old[2] == stored   # the old map is left as it was


def test_purges():
    rts = {"a": rows({"x": 1, "y": 1}, vt=NOW),
           "b": rows({"y": 1}, vt=NOW + 1),
           "c": rows({}, vt=NOW, ansn=1),
           "d": rows({}, vt=NOW + 1, ansn=1)}
    assert purge_router_topology(rts, NOW) == ["a", "c"]
    assert rts == {"b": rows({"y": 1}, vt=NOW + 1),
                   "d": rows({}, vt=NOW + 1, ansn=1)}


def test_increment_ansn_tracks_selector_set():
    def with_sel(oip, sel):
        return LinkTuple(oip, NOW + 10, NOW + 10, NOW + 20, False, False,
                         False, sel, 1, 1)
    advertised = frozenset({"a"})
    same = {"a": with_sel("a", True), "b": with_sel("b", False)}
    grew = {"a": with_sel("a", True), "b": with_sel("b", True)}
    assert increment_ansn(same, advertised, 7) == 7
    assert increment_ansn(grew, advertised, 7) == 8
    assert increment_ansn({}, advertised, 7) == 8


# --- the link universe -------------------------------------------------------

def test_link_universe_rules():
    ls = {"b": sym_link("b", 9),
          "h": sym_link("h", 2, sym_time=NOW),   # only heard: excluded
          "i": sym_link("i", INF)}               # infinite: excluded
    rts = {"b": rows({"x": 4, "w": INF, "me": 3}),  # infinite row and
                                                    # one to me: kept
           "x": rows({"x": 1}),                  # self loop: kept
           "z": rows({"z": 1}),                  # unreachable self loop
           "q": rows({"w": INF}),                # unreachable infinite row
           "e": rows({})}                        # no rows: kept empty
    edges = link_universe("me", ls, rts, NOW)
    assert edges == {"me": {"b": 9}, "b": {"x": 4, "w": INF, "me": 3},
                     "x": {"x": 1}, "z": {"z": 1}, "q": {"w": INF}, "e": {}}
    # the rows are rts's own maps, shared and not copied
    assert all(edges[o] is dests for o, (_, _, dests) in rts.items())
    # infinite rows, self loops, rows to me and the excluded own links
    # yield no route
    dist = _dijkstra(edges, "me")
    assert dist == {"me": 0, "b": 9, "x": 13}
    rs = choose_optimal("me", edges, dist)
    assert rs == {"b": Route("b", "b", 9), "x": Route("x", "b", 13)}
    assert is_optimal_over("me", edges, rs, dist)
    assert oracles.ref_is_optimal_over("me", edges, rs)
    for bad in ({**rs, "w": Route("w", "b", INF)},
                {**rs, "x": Route("x", "i", 13)},
                {**rs, "h": Route("h", "h", 2)}):
        assert not is_optimal_over("me", edges, bad, dist)
        assert not oracles.ref_is_optimal_over("me", edges, bad)


def test_topology_rows_are_replaced_never_mutated():
    rts = {}
    first = {"x": 1, "me": 1}
    assert update_router_topology(rts, "b", mansn=0, vtime=30, dests=first,
                                  now=NOW)
    edges = link_universe("me", {}, rts, NOW)
    assert edges["b"] is first
    # a change of the receiver's metric alone installs the new map too
    second = {"x": 1, "me": 2}
    assert update_router_topology(rts, "b", mansn=0, vtime=30,
                                  dests=second, now=NOW + 1)
    assert rts["b"][2] is second
    # a change installs a new map and leaves the old one as it was
    third = {"x": 2, "y": 1}
    assert update_router_topology(rts, "b", mansn=0, vtime=30,
                                  dests=third, now=NOW + 2)
    assert rts["b"][2] is third
    assert first == {"x": 1, "me": 1} and second == {"x": 1, "me": 2}
    assert edges == {"b": first, "me": {}}
    assert link_universe("me", {}, rts, NOW)["b"] is third
    # the same map again is a refresh that keeps it
    assert not update_router_topology(rts, "b", mansn=0, vtime=30,
                                      dests=third, now=NOW + 3)
    assert rts["b"] == (NOW + 33, 0, third) and rts["b"][2] is third
    assert third == {"x": 2, "y": 1}


def random_digraph(rng, n=None, max_metric=9, density=0.4):
    n = n or rng.randint(2, 6)
    names = [chr(ord("a") + i) for i in range(n)]
    edges = {}
    for u in names:
        for v in names:
            if u != v and rng.random() < density:
                edges.setdefault(u, {})[v] = rng.randint(1, max_metric)
    return names, edges


def tie_heavy_digraph(rng):
    """Metrics 1 and 2 on dense edges: many equally short first hops."""
    return random_digraph(rng, rng.randint(3, 6), max_metric=2, density=0.7)


def odd_rows_digraph(rng):
    """random_digraph's universe with the rows a link universe may also
    hold: a row that names every node (itself and ip among them), an
    edge of infinite metric and an empty row. Metrics are at least 1,
    so none of these edges is ever tight: the self-loop and the edge
    into ip end at a node no farther from ip than their start, and an
    infinite one shortens no path."""
    names, edges = random_digraph(rng, rng.randint(3, 6))
    every, infinite, empty = rng.sample(names, 3)
    edges[every] = {v: rng.randint(1, 9) for v in names}
    edges[infinite] = {**edges.get(infinite, {}), rng.choice(names): INF}
    edges[empty] = {}
    return names, edges


def test_dijkstra_matches_path_enumeration():
    rng = random.Random(0xD1)
    for _ in range(300):
        names, edges = random_digraph(rng)
        src = rng.choice(names)
        got = _dijkstra(edges, src)
        want = oracles.simple_path_dists(edges, src)
        for node, d in want.items():
            if d == INF:
                assert node not in got
            else:
                assert got[node] == d
        assert got.get(src) == 0


def test_choose_optimal_excludes_self():
    ls = {"b": sym_link("b", 2)}
    rts = {"b": rows({"me": 1, "c": 5})}
    edges = link_universe("me", ls, rts, NOW)
    rs = choose_optimal("me", edges, _dijkstra(edges, "me"))
    assert rs == {"b": Route("b", "b", 2), "c": Route("c", "b", 7)}


# --- optimality: library vs simple-path oracle ------------------------------

def _first_hop_dists(edges, source):
    """(best cost per node, best cost per (node, first hop)) by brute force."""
    best, best_via = {}, {}

    def walk(u, cost, seen, first):
        for v, w in edges.get(u, {}).items():
            if v in seen:
                continue
            c = cost + w
            f = v if first is None else first
            if c < best.get(v, INF):
                best[v] = c
            if c < best_via.get((v, f), INF):
                best_via[(v, f)] = c
            walk(v, c, seen | {v}, f)

    walk(source, 0, {source}, None)
    return best, best_via


def ref_is_optimal(ip, edges, rs):
    best, best_via = _first_hop_dists(edges, ip)
    if set(rs) != set(best):
        return False
    for dest, route in rs.items():
        if route.dest != dest or route.metric != best[dest]:
            return False
        if best_via.get((dest, route.next_hop), INF) != best[dest]:
            return False
    return True


def mutate_routing_set(rng, rs, names, edges, ip):
    out = dict(rs)
    kind = rng.randrange(5)
    if kind == 0 and out:
        out.pop(rng.choice(sorted(out)))
    elif kind == 1:
        out["ghost"] = Route("ghost", rng.choice(names), 1)
    elif kind == 2 and out:
        d = rng.choice(sorted(out))
        r = out[d]
        out[d] = Route(d, r.next_hop, r.metric + rng.choice([-1, 1]))
    elif kind == 3 and out:
        d = rng.choice(sorted(out))
        r = out[d]
        out[d] = Route(d, rng.choice(names), r.metric)
    elif out:
        # another neighbour of ip at the same metric: optimal exactly
        # when it also starts a shortest path to d, which is likeliest
        # for the farthest destinations
        far = max(r.metric for r in out.values())
        d = rng.choice(sorted(d for d, r in out.items() if r.metric == far))
        r = out[d]
        others = sorted(v for v in edges.get(ip, {}) if v != r.next_hop)
        if others:
            out[d] = Route(d, rng.choice(others), r.metric)
    return out


def test_optimality_verdicts_match_oracle():
    rng = random.Random(0x0517)
    verdicts = Counter()
    for draw in (random_digraph, tie_heavy_digraph, odd_rows_digraph):
        for _ in range(250):
            names, edges = draw(rng)
            ip = rng.choice(names)
            dist = _dijkstra(edges, ip)
            rs = choose_optimal(ip, edges, dist)
            assert list(rs.items()) == list(oracles.ref_routes(
                ip, dist, oracles.ref_predecessors(edges, dist)).items())
            assert is_optimal_over(ip, edges, rs, _dijkstra(edges, ip))
            assert ref_is_optimal(ip, edges, rs)
            mutated = mutate_routing_set(rng, rs, names, edges, ip)
            want = ref_is_optimal(ip, edges, mutated)
            assert is_optimal_over(ip, edges, mutated,
                                   _dijkstra(edges, ip)) == want
            assert oracles.ref_is_optimal_over(ip, edges, mutated) == want
            verdicts[want, mutated == rs] += 1
    # the mutations hit both verdicts, and some changed routing sets
    # stay optimal: a next hop swapped for a tied one
    assert verdicts[False, False] > 100 and verdicts[True, True] > 100
    assert verdicts[True, False] >= 5


def test_choose_optimal_canonical_tiebreak():
    # two equally cheap first hops toward c: the canonical choice walks
    # the lexicographically smallest predecessor chain, hence via a
    edges = {"s": {"a": 1, "b": 1}, "a": {"c": 1}, "b": {"c": 1}}
    rs = choose_optimal("s", edges, _dijkstra(edges, "s"))
    assert rs["c"] == Route("c", "a", 2)
    assert rs["a"] == Route("a", "a", 1)
    assert rs["b"] == Route("b", "b", 1)


def test_is_optimal_rejects_wrong_first_hop():
    edges = {"s": {"a": 1, "b": 5}, "a": {"b": 1}}
    good = {"a": Route("a", "a", 1), "b": Route("b", "a", 2)}
    bad = {"a": Route("a", "a", 1), "b": Route("b", "b", 2)}
    dist = _dijkstra(edges, "s")
    assert is_optimal_over("s", edges, good, dist)
    # (s,b) is a real edge but costs 5, so it cannot witness metric 2
    assert not is_optimal_over("s", edges, bad, dist)


def test_is_optimal_rejects_mislabeled_route():
    edges = {"s": {"a": 1}}
    assert not is_optimal_over("s", edges, {"a": Route("x", "a", 1)},
                               _dijkstra(edges, "s"))


def test_update_routing_set_keeps_any_optimal_current():
    ls = {"a": sym_link("a", 1), "b": sym_link("b", 1)}
    rts = {"a": rows({"c": 1}), "b": rows({"c": 1})}
    edges = link_universe("s", ls, rts, NOW)
    dist = _dijkstra(edges, "s")
    cand = choose_optimal("s", edges, dist)
    # current uses the other (equally optimal) witness; it must be kept
    current = {"a": Route("a", "a", 1), "b": Route("b", "b", 1),
               "c": Route("c", "b", 2)}
    assert current != cand
    assert update_routing_set("s", edges, current, dist) is current
    stale = {"a": Route("a", "a", 1)}
    assert update_routing_set("s", edges, stale, dist) == cand


def test_a_full_pass_scans_predecessors_once(monkeypatch):
    """update_routes' full path hands its one scan to update_routing_set,
    which rechooses a rejected set from it without scanning again."""
    from olsrv2sim import topology
    ls = {"a": sym_link("a", 1), "b": sym_link("b", 1)}
    edges = link_universe("s", ls, {"a": rows({"c": 1})}, NOW)
    want = choose_optimal("s", edges, _dijkstra(edges, "s"))
    calls = Counter()

    def counted(name):
        real = getattr(topology, name)

        def wrapper(*args):
            calls[name] += 1
            return real(*args)
        monkeypatch.setattr(topology, name, wrapper)

    for name in ("predecessors", "update_routing_set", "choose_optimal"):
        counted(name)
    rs, memo = update_routes("s", edges, {}, {"a": Route("a", "a", 1)}, None)
    assert calls == {"predecessors": 1, "update_routing_set": 1,
                     "choose_optimal": 1}
    assert rs == want
    assert memo.pred == oracles.ref_predecessors(edges, memo.dist)


def test_empty_universe():
    assert choose_optimal("s", {}, _dijkstra({}, "s")) == {}
    assert is_optimal_over("s", {}, {}, {"s": 0})
    assert not is_optimal_over("s", {}, {"a": Route("a", "a", 1)}, {"s": 0})


# --- distances and routes carried across passes -----------------------------

def changes(old, new):
    """The rows of new replaced since old, as a router records them for
    repair_distances: each source whose row is not old's own map, with
    old's row, or None where old had none."""
    return {src: old.get(src)
            for src in [*old, *(src for src in new if src not in old)]
            if new.get(src) is not old.get(src)}


def test_repair_distances_outcomes():
    old = {"s": {"a": 1, "b": 1}, "a": {"c": 2}, "b": {"c": 4}}
    dist = _dijkstra(old, "s")
    assert dist == {"s": 0, "a": 1, "b": 1, "c": 3}

    def repair(new, changed=None):
        """(repair_distances's answer, the distances it left) on a
        copy of dist."""
        got = dict(dist)
        if changed is None:
            changed = changes(old, new)
        return repair_distances(new, changed, got), got

    def kept(out):
        return out == ([], dist)

    # the own row rebuilt with the same rows, and a slack edge longer
    assert kept(repair({**old, "s": {"a": 1, "b": 1}, "b": {"c": 5}}))
    # a slack edge that now ties becomes tight: the distances hold
    assert kept(repair({**old, "b": {"c": 2}}))
    # a row replaced twice since the pass, recorded as it stood then:
    # back to equal rows, nothing changed
    assert kept(repair({**old, "a": {"c": 2}}, {"a": old["a"]}))
    # rows to the router itself, and a change of their metric alone
    to_s = {**old, "a": {"c": 2, "s": 1}}
    assert kept(repair(to_s))
    assert kept(repair({**old, "a": {"c": 2, "s": 5}}, {"a": to_s["a"]}))
    # a tight edge or a slack one made shorter: c falls to 2, in place
    for new in ({**old, "a": {"c": 1}}, {**old, "b": {"c": 1}}):
        fell, got = repair(new)
        assert got == _dijkstra(new, "s") and got["c"] == 2
        assert fell == ["c"]
    # a new row out of a reachable node reaches a new destination
    new = {**old, "b": {"c": 4, "d": 1}, "d": {"c": 1}}
    fell, got = repair(new)
    assert got == _dijkstra(new, "s") == {**dist, "d": 2} and fell == ["d"]
    # a tight edge lengthened, or its row purged: start again, with
    # nothing written
    assert repair({**old, "a": {"c": 3}}) == (None, dist)
    assert repair({"s": old["s"], "b": old["b"]}) == (None, dist)
    # rows out of an unreachable node count for nothing
    far = {**old, "x": {"c": 1}}
    assert kept(repair(far))
    assert kept(repair(old, changes(far, old)))


NODES = "sabcdx"   # s is the router; x is often unreachable
WEIGHTS = st.sampled_from([1, 2, 3, 4, INF])
ROWS = st.dictionaries(st.sampled_from(NODES), WEIGHTS, max_size=4)


def tight_reach(edges, dist, hop):
    """Nodes reached from hop over tight edges under dist."""
    seen, todo = {hop}, [hop]
    while todo:
        u = todo.pop()
        for v, w in edges.get(u, {}).items():
            if v not in seen and dist[u] + w == dist.get(v):
                seen.add(v)
                todo.append(v)
    return seen


@st.composite
def universe_edits(draw):
    """(old universe, new universe, an optimal routing set over old).

    The new universe shares old's row maps except where an edit
    replaced or dropped a row or added one; the own row s is always a
    new map, as a pass rebuilds it. The routing set picks a random
    optimal first hop per destination, not choose_optimal's.
    """
    old = draw(st.dictionaries(st.sampled_from(NODES), ROWS, min_size=2,
                               max_size=6))
    old["s"] = dict(old.get("s", {}))
    new = dict(old)
    for src in draw(st.lists(st.sampled_from(NODES), min_size=1,
                             max_size=4)):
        row = new.get(src, {})
        edit = draw(st.sampled_from(["drop", "replace", "set", "lower"]))
        if edit == "drop":
            new.pop(src, None)
        elif edit == "replace":
            new[src] = draw(ROWS)
        elif edit == "set" or not row:
            new[src] = {**row, draw(st.sampled_from(NODES)): draw(WEIGHTS)}
        else:  # one of the row's own edges made shorter
            dst = draw(st.sampled_from(sorted(row)))
            new[src] = {**row, dst: draw(st.integers(1, min(row[dst], 4)))}
    new["s"] = dict(new.get("s", {}))
    dist = _dijkstra(old, "s")
    own = old["s"]
    hops = sorted(h for h, w in own.items() if h != "s" and w == dist.get(h))
    reach = {h: tight_reach(old, dist, h) for h in hops}
    rs = {d: Route(d, draw(st.sampled_from(
              [h for h in hops if d in reach[h]])), m)
          for d, m in sorted(dist.items()) if d != "s"}
    return old, new, rs


@settings(max_examples=400, deadline=None)
@given(universe_edits())
def test_repaired_distances_are_dijkstras(case):
    old, new, rs = case
    assert oracles.ref_is_optimal_over("s", old, rs)
    dist = _dijkstra(old, "s")
    before = dict(dist)
    fell = repair_distances(new, changes(old, new), dist)
    if fell is None:
        assert dist == before   # nothing written
        return
    assert dist == _dijkstra(new, "s")
    # the nodes that fell, each once
    assert sorted(fell) == sorted(v for v, d in dist.items()
                                  if d < before.get(v, INF))
    # kept distances keep every optimal routing set optimal; repaired
    # ones leave none of them optimal
    assert oracles.ref_is_optimal_over("s", new, rs) == (not fell)


EDITS = st.tuples(
    st.sampled_from(["add", "tie", "lower", "drop slack", "purge", "own",
                     "row", "odd"]),
    st.sampled_from(NODES), st.sampled_from(NODES), WEIGHTS,
    st.integers(0, 7), ROWS)


@st.composite
def route_passes(draw):
    """(a universe, passes): each pass is a list of row edits, and
    whether the routing set it is given was mutated since the last."""
    start = draw(st.dictionaries(st.sampled_from(NODES), ROWS, min_size=2,
                                 max_size=6))
    start["s"] = dict(start.get("s", {}))
    passes = draw(st.lists(st.tuples(st.lists(EDITS, max_size=4),
                                     st.integers(0, 9)),
                           min_size=1, max_size=6))
    return start, passes


def edit_row(edges, dist, edit):
    """(source, its new row or None) for one edit, drawn against the
    universe edges and the last pass's distances dist; None for no
    edit. Rows are never mutated."""
    kind, src, dst, w, i, new_row = edit
    row = edges.get(src, {})
    if kind == "add":
        return src, {**row, dst: w}
    if kind == "tie" and dist:
        # an edge out of a reachable node, tight at equal distance: no
        # distance falls, and the edge may move a predecessor
        if src not in dist:
            src = sorted(dist)[i % len(dist)]
        farther = sorted(v for v in dist if dist[v] > dist[src])
        if farther:
            dst = farther[i % len(farther)]
            return src, {**edges.get(src, {}), dst: dist[dst] - dist[src]}
    if kind == "lower" and row:
        dst = sorted(row)[i % len(row)]
        return src, {**row, dst: 1 if row[dst] == INF else
                     max(1, row[dst] - 1)}
    if kind == "drop slack":
        slack = sorted(v for v, wv in row.items()
                       if src not in dist or dist[src] + wv != dist.get(v))
        if slack:
            drop = slack[i % len(slack)]
            return src, {v: wv for v, wv in row.items() if v != drop}
    if kind == "purge" and src != "s":
        return src, None
    if kind == "own":
        own = edges["s"]
        if dst in own and i % 2:
            return "s", {v: wv for v, wv in own.items() if v != dst}
        return "s", {**own, dst: w}
    if kind == "row" and src != "s":
        return src, new_row
    if kind == "odd":
        # an infinite metric, a self-loop, an edge into s or an empty
        # row: rows no shortest path uses
        return src, ({**row, dst: INF}, {**row, src: w}, {**row, "s": w},
                     {})[i % 4]
    return None


@settings(max_examples=400, deadline=None)
@given(route_passes())
def test_routes_carried_over_changed_rows_equal_the_full_computation(case):
    """update_routes over a live universe and the rows a sequence of
    edits replaced (edges added, made tight, lowered, slack ones dropped, rows
    purged or replaced, the own row changed, rows no shortest path uses
    added) keeps the distances, predecessors and routing set the full
    computation gives: _dijkstra, a full predecessor scan, and
    choose_optimal's routing set where a distance fell,
    update_routing_set's where a tight edge was lost, the routing set
    itself where the distances held. A set read off the predecessors
    is oracles.ref_routes', in the memo's order of distances."""
    start, passes = case
    edges, changed = dict(start), {}
    rs, memo = {}, None
    for edits, mutate in passes:
        for edit in edits:
            out = edit_row(edges, memo.dist if memo else {}, edit)
            if out is None:
                continue
            src, row = out
            changed.setdefault(src, edges.get(src))
            if row is None:
                edges.pop(src, None)
            else:
                edges[src] = row
        if rs and mutate == 0:   # a routing set no pass proved
            d = sorted(rs)[0]
            rs = {**rs, d: rs[d]._replace(metric=rs[d].metric + 1)}
        given_rs, last = rs, memo
        # what repair_distances decides, on a copy: the pass lowers
        # last.dist itself
        outcome = (repair_distances(edges, changed, dict(last.dist))
                   if last is not None and rs == last.rs else None)
        rs, memo = update_routes("s", edges, changed, rs, memo)
        changed = {}
        dist = _dijkstra(edges, "s")
        assert memo.dist == dist
        assert memo.pred == oracles.ref_predecessors(edges, dist)
        pred, children = {}, {}
        predecessors(edges, dist, pred, children, dist)
        assert memo.pred == pred
        assert memo.rs == rs and oracles.ref_is_optimal_over("s", edges, rs)
        if outcome is None:
            want = update_routing_set("s", edges, given_rs, dist)
        elif not outcome:
            assert memo is last
            want = given_rs
        else:
            want = choose_optimal("s", edges, memo.dist)
        assert list(rs.items()) == list(want.items())
        if rs is not given_rs:   # read off the predecessors
            assert list(rs.items()) == list(oracles.ref_routes(
                "s", memo.dist, oracles.ref_predecessors(edges, dist)).items())


def test_routes_carried_over_a_predecessor_moved_on_a_tie():
    """A pass that keeps the distances keeps rs, though a new tight
    edge moves a predecessor on an equal-cost tie: d's route stays via
    c while the predecessors read b. The next pass that lowers a
    distance, elsewhere, re-reads d too: it returns choose_optimal's
    set, in the order of the memo's distances."""
    edges = {"s": {"b": 1, "c": 1}, "c": {"d": 1}}
    rs, memo = update_routes("s", edges, {}, {}, None)
    assert rs["d"] == Route("d", "c", 2)
    edges["b"] = {"d": 1}
    rs, kept = update_routes("s", edges, {"b": None}, rs, memo)
    assert kept is memo and memo.pred["d"] == "b"
    assert rs["d"] == Route("d", "c", 2)
    own = edges["s"]
    edges["s"] = {**own, "e": 1}
    rs, memo = update_routes("s", edges, {"s": own}, rs, memo)
    assert list(memo.dist) == ["s", "b", "c", "d", "e"]
    assert memo.dist == _dijkstra(edges, "s")
    assert list(rs.items()) == list(
        choose_optimal("s", edges, memo.dist).items())
    assert rs["d"] == Route("d", "b", 2)


def test_routes_carried_over_a_kept_noncanonical_set():
    """A full pass that keeps an optimal routing set which is not
    choose_optimal's leaves every route to be re-read: the next pass
    that lowers a distance, elsewhere, returns choose_optimal's set."""
    edges = {"s": {"b": 1, "c": 1}, "b": {"d": 1}, "c": {"d": 1}}
    given_rs = {"b": Route("b", "b", 1), "c": Route("c", "c", 1),
                "d": Route("d", "c", 2)}
    rs, memo = update_routes("s", edges, {}, given_rs, None)
    assert rs is given_rs and memo.pred["d"] == "b"
    own = edges["s"]
    edges["s"] = {**own, "e": 1}
    rs, memo = update_routes("s", edges, {"s": own}, rs, memo)
    assert memo.dist == _dijkstra(edges, "s")
    assert list(rs.items()) == list(
        choose_optimal("s", edges, memo.dist).items())
    assert rs["d"] == Route("d", "b", 2)


# --- one topology set against RFC 7181's two ---------------------------------

TC_DESTS = st.dictionaries(st.sampled_from(["me", "b", "x", "y", "z"]),
                           st.integers(1, 9), max_size=4)


@st.composite
def tc_sequences(draw):
    """TCs in time order, as (originator, ansn, dests, now, validity).

    A TC may carry its originator's previous map object again, as an
    originator does while its advertisement is unchanged, or a copy of
    it that changes only the receiver me's metric; a map may name me.
    """
    now, last, out = NOW, {}, []
    for _ in range(draw(st.integers(1, 14))):
        moip = draw(st.sampled_from("bxy"))
        how = draw(st.sampled_from(["again", "receiver", "new"]))
        if moip in last and how == "again":
            dests = last[moip]
        elif moip in last and how == "receiver":
            dests = last[moip] = {**last[moip],
                                  "me": draw(st.integers(1, 9))}
        else:
            dests = last[moip] = draw(TC_DESTS)
        now += draw(st.integers(0, 12))
        out.append((moip, draw(st.integers(0, 3)), dests, now,
                    draw(st.integers(1, 30))))
    return out


@settings(max_examples=300, deadline=None)
@given(tc_sequences())
def test_one_topology_set_matches_the_two_sets(tcs):
    """Router.process_tc over the one originator-keyed set, which stores
    each TC's own map, agrees with oracles.RefTopologySets, an
    Advertising Remote Router Set and a Router Topology Set of
    receiver-free copies: on every verdict, originator, ansn and
    validity time, row without the receiver, distance and
    choose_optimal's routing set."""
    r = Router(RouterConfig("me", hp_maxjitter=3, tp_maxjitter=3,
                            h_hold_time=14, t_hold_time=40, l_hold_time=10,
                            hello_interval=10, tc_interval=20),
               jitter_rng=random.Random(0))
    far = NOW + 10**6
    own = {"b": 2, "y": 5}
    r.ls = {oip: LinkTuple(oip, far, far, far, False, False, False, False,
                           1, m) for oip, m in own.items()}
    ref = oracles.RefTopologySets("me")
    for seq, (moip, ansn, dests, now, vtime) in enumerate(tcs):
        r.now = now
        purge_router_topology(r.rts, now)
        ref.purge(now)
        r._topology_dirty, r._next_expiry = False, INF
        stored = r.rts.get(moip, (None, None, {}))[2]
        r.process_tc(Tc(moip, vtime, seq, ansn, dests), "b")
        accepted, changed = ref.receive(moip, ansn, vtime, dests, now)
        # an accepted TC lowers the next expiry to its validity time
        assert (r._next_expiry == now + vtime) is accepted
        # it marks the topology half when its map differs from the
        # stored one, so always when the rows without me changed
        assert r._topology_dirty is (accepted and dests != stored)
        assert changed <= r._topology_dirty
        if accepted:
            assert r.rts[moip][2] is dests
        assert r.rts.keys() == ref.arrs.keys()
        for oip, (vt, stored_ansn, row) in r.rts.items():
            assert (stored_ansn, vt) == ref.arrs[oip]
            without_me = {d: m for d, m in row.items() if d != "me"}
            assert (vt, without_me) == ref.rts.get(oip, (vt, {}))
        edges, ref_edges = link_universe("me", r.ls, r.rts, now), ref.edges(own)
        got = _dijkstra(edges, "me")
        assert got == _dijkstra(ref_edges, "me")
        want = oracles.simple_path_dists(ref_edges, "me")
        assert got == {n: d for n, d in want.items() if d < INF}
        assert list(choose_optimal("me", edges, got).items()) == list(
            choose_optimal("me", ref_edges, got).items())


# --- renders ----------------------------------------------------------------

def test_renders_frozen():
    assert render_route(Route("d", "b", 12)) == "ROUTE d via b m=12"
