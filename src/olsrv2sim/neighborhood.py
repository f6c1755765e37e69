"""Interface information base: link set, 2-hop set, MPR selection.

Link sets are maps oip -> LinkTuple; 2-hop sets are maps
(one_hop_oip, two_hop_oip) -> TwoHopTuple. The underlying model works
with sets of tuples, but both key spaces are unique by construction, so
the map form is equivalent and keeps uniqueness structural.

The purge and MPR-flag updates change the sets they are given in
place; Router.process_hello writes the HELLO's rows directly. The
tuples themselves are immutable NamedTuples, so a changed row is a new
tuple (built with _replace), and tuples compare as plain tuples.
"""
from __future__ import annotations

from typing import AbstractSet, FrozenSet, NamedTuple

from .messages import (HEARD, INF, LOST, SYMMETRIC, Metric, NodeId, Status,
                       TimeValue)

LinkSet = dict  # dict[NodeId, LinkTuple]
TwoHopSet = dict  # dict[tuple[NodeId, NodeId], TwoHopTuple]


class LinkTuple(NamedTuple):
    """One row of the link set, fields in wire order lt1..lt10."""

    oip: NodeId
    symmetric_time: TimeValue
    heard_time: TimeValue
    validity_time: TimeValue
    fmpr: bool
    rmpr: bool
    fmpr_selector: bool
    rmpr_selector: bool
    in_metric: Metric
    out_metric: Metric

    def status(self, now: TimeValue) -> Status:
        if self.symmetric_time > now:
            return SYMMETRIC
        if self.heard_time > now:
            return HEARD
        return LOST


class TwoHopTuple(NamedTuple):
    one_hop_oip: NodeId
    two_hop_oip: NodeId
    validity_time: TimeValue
    in_metric: Metric
    out_metric: Metric


def purge_link_set(ls: LinkSet, now: TimeValue) -> None:
    """Drop expired tuples; strip MPR flags from non-symmetric survivors."""
    for oip in [oip for oip, lt in ls.items() if lt.validity_time <= now]:
        del ls[oip]
    stale = [lt for lt in ls.values()
             if lt.status(now) is not SYMMETRIC
             and (lt.fmpr or lt.rmpr or lt.fmpr_selector or lt.rmpr_selector)]
    for lt in stale:
        ls[lt.oip] = lt._replace(fmpr=False, rmpr=False,
                                 fmpr_selector=False, rmpr_selector=False)


def purge_2hop_set(ls: LinkSet, twohop_set: TwoHopSet,
                   now: TimeValue) -> None:
    """Drop expired tuples and those whose anchor is not symmetric."""
    n1 = _n1_oips(ls, now)
    for key in [key for key, n2 in twohop_set.items()
                if n2.validity_time <= now or n2.one_hop_oip not in n1]:
        del twohop_set[key]


# --- MPR validity and selection -----------------------------------------
#
# Both MPR flavours share one covering table and differ only in its
# weights. N1 is the set of symmetric 1-hop neighbors, N2 the 2-hop
# tuples anchored at N1 members, and a candidate subset M <= N1 is
# valid when it preserves the distance d(t, .) from this router to
# every 2-hop target t. A path is a 1-hop leg into a neighbor x,
# followed for t != x by a 2-hop leg from x to t:
#
#   flooding: each leg weighs 1, so preserved distances are 1 or 2;
#   routing:  the 1-hop leg weighs x's in_metric, the 2-hop leg the
#             tuple's in_metric (its out_metric under bug_mode).
#
# Since d(t, S) = min over x in S of d(t, {x}), validity reduces to a
# covering condition: every target with finite d(t, N1) needs some
# member achieving that minimum, one of its coverers. The table holds
# those coverer lists and nothing else; a target at infinite distance
# constrains nothing and has none. The greedy pick exploits this for a
# polynomial choice; the test suite checks it against an exhaustive
# enumeration (practical for |N1| <= 6) and a greedy written from the
# distances. A pass builds the table once per flavour and chooses anew
# only when the flagged set is invalid.

def _n1_oips(ls: LinkSet, now: TimeValue) -> FrozenSet[NodeId]:
    return frozenset(oip for oip, lt in ls.items()
                     if lt.status(now) is SYMMETRIC)


def _covering_table(ls: LinkSet, twohop_set: TwoHopSet, now: TimeValue,
                    routing: bool, bug_mode: bool = False):
    """N1 and, per target at finite distance, its coverers under the
    routing weights or, when routing is false, the flooding ones.

    Returns (n1, coverers) where coverers[t] lists the x in N1, in any
    order, whose d(t, {x}) is d(t, N1). One pass over the 2-hop set.
    """
    n1 = _n1_oips(ls, now)
    dist = {}  # (x, t) -> d(t, {x}), for the pairs some leg gives
    for n2 in twohop_set.values():
        x = n2.one_hop_oip
        if x not in n1:
            continue
        if routing:
            d = ls[x].in_metric + (n2.out_metric if bug_mode
                                   else n2.in_metric)
        else:
            d = 2  # two legs of weight 1
        dist[x, n2.two_hop_oip] = d
    for x in n1.intersection([t for _, t in dist]):
        direct = ls[x].in_metric if routing else 1
        dist[x, x] = min(direct, dist.get((x, x), INF))
    best, coverers = {}, {}
    for (x, t), d in dist.items():
        if d < best.get(t, INF):
            best[t], coverers[t] = d, [x]
        elif d == best.get(t, INF) != INF:
            coverers[t].append(x)
    return n1, coverers


def _is_valid(member_oips: AbstractSet[NodeId], n1, coverers) -> bool:
    return member_oips <= n1 and all(not member_oips.isdisjoint(xs)
                                     for xs in coverers.values())


def is_valid_fmpr_set(ls: LinkSet, twohop_set: TwoHopSet, now: TimeValue,
                      member_oips: AbstractSet[NodeId]) -> bool:
    return _is_valid(member_oips, *_covering_table(ls, twohop_set, now, False))


def is_valid_rmpr_set(ls: LinkSet, twohop_set: TwoHopSet, now: TimeValue,
                      member_oips: AbstractSet[NodeId],
                      bug_mode: bool = False) -> bool:
    return _is_valid(member_oips, *_covering_table(ls, twohop_set, now, True,
                                                   bug_mode))


def _greedy_choose(n1, coverers) -> FrozenSet[NodeId]:
    # Mandatory members: sole coverers of some target.
    chosen = {xs[0] for xs in coverers.values() if len(xs) == 1}
    uncovered = [xs for xs in coverers.values() if chosen.isdisjoint(xs)]
    candidates = sorted(n1)
    while uncovered:
        # the most uncovered targets; max keeps the first, smallest id
        best_x = max(candidates,
                     key=lambda x: sum(x in xs for xs in uncovered))
        chosen.add(best_x)
        uncovered = [xs for xs in uncovered if best_x not in xs]
    return frozenset(chosen)


def choose_fmprs(ls: LinkSet, twohop_set: TwoHopSet,
                 now: TimeValue) -> FrozenSet[NodeId]:
    """Deterministic small valid flooding-MPR set (greedy cover)."""
    return _greedy_choose(*_covering_table(ls, twohop_set, now, False))


def choose_rmprs(ls: LinkSet, twohop_set: TwoHopSet, now: TimeValue,
                 bug_mode: bool = False) -> FrozenSet[NodeId]:
    return _greedy_choose(*_covering_table(ls, twohop_set, now, True,
                                           bug_mode))


def _update_flags(ls: LinkSet, field: str, table) -> None:
    """Keep the flags in field while they form a valid set under the
    covering table, else flag the greedy pick instead."""
    if _is_valid({oip for oip, lt in ls.items() if getattr(lt, field)},
                 *table):
        return
    chosen = _greedy_choose(*table)
    for lt in [lt for lt in ls.values()
               if getattr(lt, field) != (lt.oip in chosen)]:
        ls[lt.oip] = lt._replace(**{field: lt.oip in chosen})


def update_fmprs(ls: LinkSet, twohop_set: TwoHopSet, now: TimeValue) -> None:
    """Keep the flooding-MPR flags while valid, else flag choose_fmprs."""
    _update_flags(ls, "fmpr", _covering_table(ls, twohop_set, now, False))


def update_rmprs(ls: LinkSet, twohop_set: TwoHopSet, now: TimeValue,
                 bug_mode: bool = False) -> None:
    """Keep the routing-MPR flags while valid, else flag choose_rmprs."""
    _update_flags(ls, "rmpr", _covering_table(ls, twohop_set, now, True,
                                              bug_mode))
