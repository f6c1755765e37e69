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

from .messages import INF, Metric, NodeId, Status, TimeValue

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
            return Status.SYMMETRIC
        if self.heard_time > now:
            return Status.HEARD
        return Status.LOST


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
             if lt.status(now) != Status.SYMMETRIC
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
# Both MPR flavours share one distance table and differ only in its
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
# member achieving that minimum. The greedy pick exploits this for a
# polynomial choice; the test suite checks it against an exhaustive
# enumeration (practical for |N1| <= 6). A pass builds the table once
# per flavour and chooses anew only when the flagged set is invalid.

def _n1_oips(ls: LinkSet, now: TimeValue) -> FrozenSet[NodeId]:
    return frozenset(oip for oip, lt in ls.items()
                     if lt.status(now) == Status.SYMMETRIC)


def _distance_table(ls: LinkSet, twohop_set: TwoHopSet, now: TimeValue,
                    routing: bool, bug_mode: bool = False):
    """Per-target single-neighbor distances plus the N1-wide minimum,
    under the routing weights or, when routing is false, the flooding
    ones.

    Returns (n1, targets, dist, full) where dist[(x, t)] is d(t, {x})
    and full[t] is d(t, N1). One pass over the 2-hop set.
    """
    n1 = _n1_oips(ls, now)
    n2s = [n2 for n2 in twohop_set.values() if n2.one_hop_oip in n1]
    targets = sorted({n2.two_hop_oip for n2 in n2s})
    dist = {(x, t): INF for t in targets for x in n1}
    for x in n1.intersection(targets):
        dist[(x, x)] = ls[x].in_metric if routing else 1
    for n2 in n2s:
        x = n2.one_hop_oip
        if routing:
            d = ls[x].in_metric + (n2.out_metric if bug_mode
                                   else n2.in_metric)
        else:
            d = 2  # two legs of weight 1
        key = (x, n2.two_hop_oip)
        dist[key] = min(dist[key], d)
    full = {}
    for t in targets:
        full[t] = min([INF] + [dist[(x, t)] for x in n1])
    return n1, targets, dist, full


def _is_valid(member_oips: AbstractSet[NodeId], n1, targets, dist, full) -> bool:
    if not frozenset(member_oips) <= n1:
        return False
    for t in targets:
        d_m = min([INF] + [dist[(x, t)] for x in member_oips])
        if d_m != full[t]:
            return False
    return True


def is_valid_fmpr_set(ls: LinkSet, twohop_set: TwoHopSet, now: TimeValue,
                      member_oips: AbstractSet[NodeId]) -> bool:
    return _is_valid(member_oips, *_distance_table(ls, twohop_set, now, False))


def is_valid_rmpr_set(ls: LinkSet, twohop_set: TwoHopSet, now: TimeValue,
                      member_oips: AbstractSet[NodeId],
                      bug_mode: bool = False) -> bool:
    return _is_valid(member_oips, *_distance_table(ls, twohop_set, now, True,
                                                   bug_mode))


def _greedy_choose(n1, targets, dist, full) -> FrozenSet[NodeId]:
    # x covers t when x alone achieves the N1-wide minimum. Targets at
    # infinite distance constrain nothing.
    coverers = {t: sorted(x for x in n1 if dist[(x, t)] == full[t])
                for t in targets if full[t] != INF}
    chosen = set()
    # Mandatory members: sole achievers of some target's minimum.
    for t, xs in coverers.items():
        if len(xs) == 1:
            chosen.add(xs[0])
    uncovered = {t for t, xs in coverers.items()
                 if not (set(xs) & chosen)}
    while uncovered:
        best_x = None
        best_gain = -1
        for x in sorted(n1):
            if x in chosen:
                continue
            gain = sum(1 for t in uncovered if x in coverers[t])
            if gain > best_gain:
                best_x, best_gain = x, gain
        chosen.add(best_x)
        uncovered = {t for t in uncovered if best_x not in coverers[t]}
    return frozenset(chosen)


def choose_fmprs(ls: LinkSet, twohop_set: TwoHopSet,
                 now: TimeValue) -> FrozenSet[NodeId]:
    """Deterministic small valid flooding-MPR set (greedy cover)."""
    return _greedy_choose(*_distance_table(ls, twohop_set, now, False))


def choose_rmprs(ls: LinkSet, twohop_set: TwoHopSet, now: TimeValue,
                 bug_mode: bool = False) -> FrozenSet[NodeId]:
    return _greedy_choose(*_distance_table(ls, twohop_set, now, True,
                                           bug_mode))


def _update_flags(ls: LinkSet, field: str, table) -> None:
    """Keep the flags in field while they form a valid set under the
    distance table, else flag the greedy pick instead."""
    if _is_valid({oip for oip, lt in ls.items() if getattr(lt, field)},
                 *table):
        return
    chosen = _greedy_choose(*table)
    for lt in [lt for lt in ls.values()
               if getattr(lt, field) != (lt.oip in chosen)]:
        ls[lt.oip] = lt._replace(**{field: lt.oip in chosen})


def update_fmprs(ls: LinkSet, twohop_set: TwoHopSet, now: TimeValue) -> None:
    """Keep the flooding-MPR flags while valid, else flag choose_fmprs."""
    _update_flags(ls, "fmpr", _distance_table(ls, twohop_set, now, False))


def update_rmprs(ls: LinkSet, twohop_set: TwoHopSet, now: TimeValue,
                 bug_mode: bool = False) -> None:
    """Keep the routing-MPR flags while valid, else flag choose_rmprs."""
    _update_flags(ls, "rmpr", _distance_table(ls, twohop_set, now, True,
                                              bug_mode))
