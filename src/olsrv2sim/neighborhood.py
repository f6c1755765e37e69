"""Interface information base: link set, 2-hop set, MPR selection.

Link sets are maps oip -> LinkTuple; 2-hop sets are maps
(one_hop_oip, two_hop_oip) -> TwoHopTuple. The underlying model works
with sets of tuples, but both key spaces are unique by construction, so
the map form is equivalent and keeps uniqueness structural.

The purge and MPR-flag updates change the sets they are given in
place; Router.process_hello writes the HELLO's rows directly. The
tuples themselves are immutable NamedTuples, so a changed row is a new
tuple (built with _replace), and tuples compare as plain tuples.

A maintenance pass walks each set once. The link set's purge returns
what the rest of the pass reads of its survivors (LinkWalk), N1 among
it; the 2-hop set's purge, given N1, builds both flavours' covering
tables as it goes; the MPR updates apply those tables. Each purge also
returns the smallest time it kept after now, for the router's next
expiry.
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


class LinkWalk(NamedTuple):
    """What the pass's one walk of the link set reads off its survivors.

    n1 maps each symmetric neighbour to its in_metric, and own_row to
    its out_metric where that is finite (topology.own_row), both in ls
    order; fmprs and rmprs are the neighbours flagged as MPRs, and
    selectors those that chose this router as routing MPR
    (topology.rmpr_selectors). next_time is the smallest symmetric,
    heard or validity time of a survivor that is after now, or INF.
    """
    n1: dict
    fmprs: set
    rmprs: set
    selectors: FrozenSet[NodeId]
    own_row: dict
    next_time: TimeValue


def purge_link_set(ls: LinkSet, now: TimeValue) -> LinkWalk:
    """Drop expired tuples; strip MPR flags from non-symmetric survivors.

    One walk: it also returns what the rest of the pass reads of the
    survivors. A symmetric survivor keeps its flags, so the flagged
    sets are those of the purged set.
    """
    gone, stale = [], []
    n1, own, fmprs, rmprs, selectors = {}, {}, set(), set(), []
    nxt = INF
    for oip, lt in ls.items():
        _, sym, heard, vt, fmpr, rmpr, fsel, rsel, m_in, m_out = lt
        if vt <= now:
            gone.append(oip)
            continue
        if vt < nxt:
            nxt = vt
        if now < heard < nxt:
            nxt = heard
        if sym > now:  # SYMMETRIC, as LinkTuple.status reads it
            if sym < nxt:
                nxt = sym
            n1[oip] = m_in
            if m_out != INF:
                own[oip] = m_out
            if fmpr:
                fmprs.add(oip)
            if rmpr:
                rmprs.add(oip)
            if rsel:
                selectors.append(oip)
        elif fmpr or rmpr or fsel or rsel:
            stale.append(lt)
    for oip in gone:
        del ls[oip]
    for lt in stale:
        ls[lt.oip] = lt._replace(fmpr=False, rmpr=False,
                                 fmpr_selector=False, rmpr_selector=False)
    return LinkWalk(n1, fmprs, rmprs, frozenset(selectors), own, nxt)


def purge_2hop_set(n1: dict, twohop_set: TwoHopSet, now: TimeValue,
                   bug_mode: bool = False) -> tuple:
    """Drop expired tuples and those whose anchor is not in n1, the
    symmetric neighbours of the purged link set (LinkWalk.n1).

    One walk: returns the covering tables of the survivors, flooding
    and then routing ones (covering_tables), and the smallest validity
    time among them, or INF.
    """
    fcov, rcov, gone, nxt = _tables(n1, twohop_set, now, bug_mode)
    for key in gone:
        del twohop_set[key]
    return fcov, rcov, nxt


# --- MPR validity and selection -----------------------------------------
#
# Both MPR flavours share one covering table and differ only in its
# weights. N1 is the set of symmetric 1-hop neighbors, N2 the unexpired
# 2-hop tuples anchored at N1 members, and a candidate subset M <= N1 is
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
# distances. One walk of the 2-hop set builds both flavours' tables: a
# pass builds them as it purges the set (purge_2hop_set), and chooses
# anew only when a flagged set is invalid.

def _tables(n1: dict, twohop_set: TwoHopSet, now: TimeValue,
            bug_mode: bool) -> tuple:
    """(flooding coverers, routing coverers, the keys of the tuples
    N2 leaves out, the smallest validity time in N2 or INF), from one
    walk of the 2-hop set. n1 maps N1 to the in_metrics."""
    fcov, rcov, rbest, gone, nxt = {}, {}, {}, [], INF
    for key, (x, t, vt, m_in, m_out) in twohop_set.items():
        m = n1.get(x)
        if m is None or vt <= now:
            gone.append(key)
            continue
        if vt < nxt:
            nxt = vt
        # flooding: every leg pair weighs 2; a direct leg is set below
        xs = fcov.get(t)
        if xs is None:
            fcov[t] = [x]
        else:
            xs.append(x)
        d = m + (m_out if bug_mode else m_in)
        best = rbest.get(t, INF)
        if d < best:
            rbest[t], rcov[t] = d, [x]
        elif d == best != INF:
            rcov[t].append(x)
    # a target in N1 also has its direct leg, which weighs 1 when
    # flooding and its (finite) in_metric under the routing weights:
    # less than any 2-hop leg from the target itself, so no list names
    # the target twice
    for t in n1.keys() & fcov.keys():
        fcov[t] = [t]
        d, best = n1[t], rbest.get(t, INF)
        if d < best:
            rcov[t] = [t]
        elif d == best:
            rcov[t].append(t)
    return fcov, rcov, gone, nxt


def covering_tables(ls: LinkSet, twohop_set: TwoHopSet, now: TimeValue,
                    bug_mode: bool = False) -> tuple:
    """(N1, flooding coverers, routing coverers), from one walk of each set.

    coverers[t] lists the x in N1, in any order, whose d(t, {x}) is
    d(t, N1), for each target t at finite distance under that
    flavour's weights. N1 maps each neighbour to its in_metric.
    """
    n1 = {oip: lt.in_metric for oip, lt in ls.items()
          if lt.symmetric_time > now}
    fcov, rcov, _, _ = _tables(n1, twohop_set, now, bug_mode)
    return n1, fcov, rcov


def is_valid_mpr_set(member_oips: AbstractSet[NodeId], n1: dict,
                     coverers: dict) -> bool:
    """Does member_oips, a subset of N1, cover every target?"""
    return member_oips <= n1.keys() and all(
        not member_oips.isdisjoint(xs) for xs in coverers.values())


def is_valid_fmpr_set(ls: LinkSet, twohop_set: TwoHopSet, now: TimeValue,
                      member_oips: AbstractSet[NodeId]) -> bool:
    n1, fcov, _ = covering_tables(ls, twohop_set, now)
    return is_valid_mpr_set(member_oips, n1, fcov)


def is_valid_rmpr_set(ls: LinkSet, twohop_set: TwoHopSet, now: TimeValue,
                      member_oips: AbstractSet[NodeId],
                      bug_mode: bool = False) -> bool:
    n1, _, rcov = covering_tables(ls, twohop_set, now, bug_mode)
    return is_valid_mpr_set(member_oips, n1, rcov)


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
    n1, fcov, _ = covering_tables(ls, twohop_set, now)
    return _greedy_choose(n1, fcov)


def choose_rmprs(ls: LinkSet, twohop_set: TwoHopSet, now: TimeValue,
                 bug_mode: bool = False) -> FrozenSet[NodeId]:
    n1, _, rcov = covering_tables(ls, twohop_set, now, bug_mode)
    return _greedy_choose(n1, rcov)


def _update_flags(ls: LinkSet, field: str, flagged: AbstractSet[NodeId],
                  n1: dict, coverers: dict) -> None:
    """Keep the flags in field, those of flagged, while they form a
    valid set under the covering table, else flag the greedy pick."""
    if is_valid_mpr_set(flagged, n1, coverers):
        return
    chosen = _greedy_choose(n1, coverers)
    for oip in chosen.symmetric_difference(flagged):
        ls[oip] = ls[oip]._replace(**{field: oip in chosen})


def update_fmprs(ls: LinkSet, flagged: AbstractSet[NodeId], n1: dict,
                 coverers: dict) -> None:
    """Keep the flooding-MPR flags, flagged, while valid under the
    flooding table (n1, coverers), else flag its greedy pick."""
    _update_flags(ls, "fmpr", flagged, n1, coverers)


def update_rmprs(ls: LinkSet, flagged: AbstractSet[NodeId], n1: dict,
                 coverers: dict) -> None:
    """Keep the routing-MPR flags, flagged, while valid under the
    routing table (n1, coverers), else flag its greedy pick."""
    _update_flags(ls, "rmpr", flagged, n1, coverers)
