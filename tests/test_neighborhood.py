"""Link set, 2-hop set, and MPR selection.

HELLO processing is driven through Router.process_hello, one fixture
per step of the RFC 6130 section 12 order. MPR correctness is checked
three ways: the subsets of N1 the library's validity test accepts
against an independently written enumeration (oracles.ref_all_valid),
the greedy choice against that family and against a greedy written
from the distances (oracles.ref_greedy_choice), and hand-computed
fixed points (a unit-metric grid center, an asymmetric-metric diamond,
a neighbor reached only by its direct leg).
"""
import itertools
import random

from olsrv2sim.engine import Router, RouterConfig
from olsrv2sim.messages import INF, NEG_INF, Hello, MprRole, Status
from olsrv2sim.neighborhood import (LinkTuple, TwoHopTuple, choose_fmprs,
                                    choose_rmprs, is_valid_fmpr_set,
                                    is_valid_rmpr_set, purge_2hop_set,
                                    purge_link_set, update_fmprs,
                                    update_rmprs)

import oracles

NOW = 100


def sym(oip, in_m=1, out_m=1, **kw):
    base = dict(oip=oip, symmetric_time=NOW + 10, heard_time=NOW + 10,
                validity_time=NOW + 20, fmpr=False, rmpr=False,
                fmpr_selector=False, rmpr_selector=False,
                in_metric=in_m, out_metric=out_m)
    base.update(kw)
    return LinkTuple(**base)


def n2(one, two, in_m=1, out_m=1, vt=NOW + 20):
    return TwoHopTuple(one, two, vt, in_m, out_m)


def receiver(ls, ths=None, htime=5):
    """Router "me" at NOW, holding copies of ls and ths."""
    cfg = RouterConfig(ip="me", hp_maxjitter=3, tp_maxjitter=3,
                       h_hold_time=14, t_hold_time=40, l_hold_time=htime,
                       hello_interval=10, tc_interval=20)
    r = Router(cfg, jitter_rng=random.Random(0))
    # as if built at NOW: the clock and each deadline moved by NOW
    r.now, r.hello_time, r.tc_time = NOW, r.hello_time + NOW, r.tc_time + NOW
    r._hello_fire, r._tc_fire = r._hello_fire + NOW, r._tc_fire + NOW
    r.ls, r.twohop_set = dict(ls), dict(ths or {})
    return r


def receive(ls, ths=None, *, sender="b", vt=8, htime=5, in_metric=1,
            statuses=None, mprs=None, in_metrics=None, out_metrics=None):
    """Copies of (ls, ths) after router "me" processes one HELLO at NOW."""
    r = receiver(ls, ths, htime)
    r.process_hello(Hello(sender, vt, statuses or {}, mprs or {},
                          in_metrics or {}, out_metrics or {}), in_metric)
    return r.ls, r.twohop_set


def valid_family(is_valid, ls, ths, *args):
    """{S <= N1 : is_valid(S)}: every subset the library predicate accepts."""
    n1 = sorted(oip for oip, lt in ls.items()
                if lt.status(NOW) == Status.SYMMETRIC)
    return {frozenset(combo)
            for r in range(len(n1) + 1)
            for combo in itertools.combinations(n1, r)
            if is_valid(ls, ths, NOW, frozenset(combo), *args)}


# --- tuple lifecycle ------------------------------------------------------

def test_status_thresholds_are_strict():
    lt = sym("a", symmetric_time=NOW, heard_time=NOW + 1)
    assert lt.status(NOW) == Status.HEARD
    lt = sym("a", symmetric_time=NOW, heard_time=NOW)
    assert lt.status(NOW) == Status.LOST
    assert sym("a").status(NOW) == Status.SYMMETRIC


def test_add_link_tuple():
    ls, _ = receive({}, vt=6, htime=5, in_metric=4)
    lt = ls["b"]
    # a fresh tuple, made HEARD by the same HELLO's heard-time refresh
    assert lt.status(NOW) == Status.HEARD
    assert lt.symmetric_time == NEG_INF and lt.heard_time == NOW + 6
    assert lt.validity_time == NOW + 6 + 5
    assert lt.in_metric == 4 and lt.out_metric == INF
    assert not (lt.fmpr or lt.rmpr or lt.fmpr_selector or lt.rmpr_selector)
    # an existing tuple is not re-created, but adopts the delivered
    # in_metric: the link follows a metric change
    again, _ = receive(ls, vt=99, in_metric=9)
    assert again["b"].in_metric == 9


def test_in_metric_change_marks_the_pass_and_the_hello():
    """A changed in_metric on a SYMMETRIC link sets the dirty bit, as the
    routing-MPR table reads it, and marks the next HELLO, which lists
    it; on a HEARD link it marks only the HELLO. An unchanged one marks
    neither."""
    heard = sym("b", symmetric_time=NEG_INF)
    for lt, in_metric, marks in ((sym("b", in_m=2), 5, (True, True)),
                                 (sym("b", in_m=2), 2, (False, False)),
                                 (heard, 5, (False, True)),
                                 (heard, 1, (False, False))):
        r = receiver({"b": lt})
        r._dirty = r._hello_stale = False
        # b lists us as it did: the status stays, as does out_metric
        st = Status.SYMMETRIC if lt is not heard else Status.LOST
        r.process_hello(Hello("b", 8, {"me": st}, {}, {"me": 1}, {}),
                        in_metric)
        assert r.ls["b"].in_metric == in_metric
        assert (r._dirty, r._hello_stale) == marks, (lt, in_metric)


def test_update_link_out_metrics():
    ls = {"b": sym("b", out_m=INF)}
    out, _ = receive(ls, in_metrics={"me": 7, "zz": 1})
    assert out["b"].out_metric == 7
    out, _ = receive(ls, in_metrics={"zz": 1})
    assert out["b"].out_metric == INF
    out, _ = receive(ls, sender="nope", in_metrics={"me": 7})
    assert out["b"] == ls["b"] and out["nope"].out_metric == 7


def test_update_symmetric_time_refresh_and_teardown():
    ls = {"b": sym("b")}
    out, _ = receive(ls, vt=8, htime=5, statuses={"me": Status.HEARD})
    assert out["b"].symmetric_time == NOW + 8
    # a LOST claim about us tears the symmetric side down, and the
    # teardown's now + l_hold_time replaces the old, later validity
    out, _ = receive(ls, vt=8, htime=5, statuses={"me": Status.LOST})
    assert out["b"].symmetric_time == NEG_INF
    assert out["b"].validity_time == NOW + 8 + 5 < ls["b"].validity_time
    # but only if the link currently is symmetric
    heard = {"b": sym("b", symmetric_time=NEG_INF)}
    out, _ = receive(heard, vt=8, htime=5, statuses={"me": Status.LOST})
    assert out["b"].symmetric_time == NEG_INF
    assert out["b"].validity_time == heard["b"].validity_time
    # no mention of us: the symmetric time stays
    out, _ = receive(ls, vt=8, htime=5)
    assert out["b"].symmetric_time == ls["b"].symmetric_time


def test_update_heard_time_floors_at_symmetric_time():
    ls = {"b": sym("b", symmetric_time=NOW + 50)}
    out, _ = receive(ls, vt=3)
    assert out["b"].heard_time == NOW + 50
    ls = {"b": sym("b", symmetric_time=NEG_INF)}
    out, _ = receive(ls, vt=3)
    assert out["b"].heard_time == NOW + 3


def test_update_validity_time_never_shrinks():
    ls = {"b": sym("b", heard_time=NOW + 4, validity_time=NOW + 50)}
    out, _ = receive(ls, vt=3, htime=2)
    assert out["b"].validity_time == NOW + 50
    ls = {"b": sym("b", heard_time=NOW + 4, validity_time=NOW + 5)}
    out, _ = receive(ls, vt=40, htime=2)
    assert out["b"].validity_time == NOW + 42


def test_selector_updates():
    ls = {"b": sym("b")}
    got, _ = receive(ls, mprs={"me": MprRole.FLOODING})
    assert got["b"].fmpr_selector and not got["b"].rmpr_selector
    got, _ = receive(got, mprs={"me": MprRole.FLOOD_ROUTE})
    assert got["b"].fmpr_selector and got["b"].rmpr_selector
    # a SYMMETRIC listing withdraws each role it does not announce
    got, _ = receive(got, statuses={"me": Status.SYMMETRIC},
                     mprs={"me": MprRole.ROUTING})
    assert not got["b"].fmpr_selector
    assert got["b"].rmpr_selector
    swapped, _ = receive(got, statuses={"me": Status.SYMMETRIC},
                         mprs={"me": MprRole.FLOODING})
    assert swapped["b"].fmpr_selector and not swapped["b"].rmpr_selector
    # a HEARD listing without a role leaves the flags alone
    flagged, _ = receive(got, statuses={"me": Status.HEARD})
    assert flagged["b"].rmpr_selector and not flagged["b"].fmpr_selector


def test_add_2hop_tuples_placeholders():
    ls = {"b": sym("b"), "h": sym("h", symmetric_time=NEG_INF)}
    _, ths = receive(ls, vt=8, statuses={"x": Status.SYMMETRIC,
                                         "me": Status.SYMMETRIC,
                                         "y": Status.HEARD})
    assert set(ths) == {("b", "x")}
    assert ths[("b", "x")] == TwoHopTuple("b", "x", NOW + 8, INF, INF)
    # heard anchor contributes nothing
    _, ths = receive(ls, sender="h", statuses={"x": Status.SYMMETRIC})
    assert ths == {}
    # existing rows are preserved, not reset
    seeded = {("b", "x"): n2("b", "x", in_m=3)}
    _, ths = receive(ls, seeded, vt=8, statuses={"x": Status.SYMMETRIC})
    assert ths == {("b", "x"): n2("b", "x", in_m=3, vt=NOW + 8)}


def test_2hop_metric_and_time_updates():
    ls = {"b": sym("b")}
    ths = {("b", "x"): n2("b", "x", in_m=INF, out_m=INF, vt=NEG_INF),
           ("c", "x"): n2("c", "x", in_m=INF, out_m=INF, vt=NEG_INF)}
    _, got = receive(ls, ths, vt=12, statuses={"x": Status.SYMMETRIC},
                     in_metrics={"x": 4, "other": 9}, out_metrics={"x": 6})
    assert got[("b", "x")] == n2("b", "x", in_m=4, out_m=6, vt=NOW + 12)
    assert got[("c", "x")] == ths[("c", "x")]
    assert set(got) == set(ths)
    # a target now only HEARD by the anchor is re-measured, not refreshed
    _, got2 = receive(ls, got, vt=99, statuses={"x": Status.HEARD},
                      in_metrics={"x": 5})
    assert got2[("b", "x")] == n2("b", "x", in_m=5, out_m=6, vt=NOW + 12)


def test_purge_link_set_drops_and_strips():
    ls = {
        "gone": sym("gone", validity_time=NOW),
        "ok": sym("ok", fmpr=True, rmpr=True),
        "stale": sym("stale", symmetric_time=NOW, fmpr=True, rmpr=True,
                     fmpr_selector=True, rmpr_selector=True),
    }
    out = dict(ls)
    purge_link_set(out, NOW)
    assert set(out) == {"ok", "stale"}
    assert out["ok"] == ls["ok"]
    st = out["stale"]
    assert not (st.fmpr or st.rmpr or st.fmpr_selector or st.rmpr_selector)
    again = dict(out)
    purge_link_set(again, NOW)
    assert again == out


def test_purge_2hop_set_follows_anchor_status():
    ls = {"b": sym("b"), "h": sym("h", symmetric_time=NOW)}
    ths = {("b", "x"): n2("b", "x"),
           ("b", "y"): n2("b", "y", vt=NOW),
           ("h", "x"): n2("h", "x")}
    purge_2hop_set(ls, ths, NOW)
    assert ths == {("b", "x"): n2("b", "x")}
    purge_2hop_set(ls, ths, NOW)
    assert ths == {("b", "x"): n2("b", "x")}


# --- MPR selection against the oracle -------------------------------------

def test_valid_sets_match_reference_enumeration():
    rng = random.Random(0xA11CE)
    for _ in range(300):
        ls, ths = oracles.random_neighborhood(rng)
        assert valid_family(is_valid_fmpr_set, ls, ths) == \
            oracles.ref_all_valid(ls, ths, NOW, "fmpr")
        for bug in (False, True):
            assert valid_family(is_valid_rmpr_set, ls, ths, bug) == \
                oracles.ref_all_valid(ls, ths, NOW, "rmpr", bug)


def test_choose_is_always_a_valid_member():
    """The choice is valid, and it is the set the greedy written from
    the distances picks (oracles.ref_greedy_choice)."""
    rng = random.Random(0xBEEF)
    for _ in range(300):
        ls, ths = oracles.random_neighborhood(rng)
        picked = choose_fmprs(ls, ths, NOW)
        assert is_valid_fmpr_set(ls, ths, NOW, picked)
        assert picked == oracles.ref_greedy_choice(ls, ths, NOW, "fmpr")
        for bug in (False, True):
            picked = choose_rmprs(ls, ths, NOW, bug)
            assert is_valid_rmpr_set(ls, ths, NOW, picked, bug)
            assert picked == oracles.ref_greedy_choice(ls, ths, NOW,
                                                       "rmpr", bug)


def test_choose_is_deterministic():
    """The covering table lists coverers in no set order, so the link
    set and the 2-hop set rebuilt in a shuffled insertion order give
    the same choices, in both bug modes, and the same flags written."""
    rng = random.Random(7)
    for _ in range(300):
        ls, ths = oracles.random_neighborhood(rng)
        ls2 = dict(rng.sample(list(ls.items()), len(ls)))
        ths2 = dict(rng.sample(list(ths.items()), len(ths)))
        for choose, update, bug in ((choose_fmprs, update_fmprs, ()),
                                    (choose_rmprs, update_rmprs, (False,)),
                                    (choose_rmprs, update_rmprs, (True,))):
            assert choose(ls, ths, NOW, *bug) == choose(ls2, ths2, NOW, *bug)
            flagged, flagged2 = dict(ls), dict(ls2)
            update(flagged, ths, NOW, *bug)
            update(flagged2, ths2, NOW, *bug)
            assert flagged == flagged2


def grid_center_state():
    """Center of a 3x3 unit grid: neighbors b,d,f,h; corners behind them."""
    ls = {x: sym(x) for x in "bdfh"}
    ths = {}
    for anchor, corners in (("b", "ac"), ("d", "ag"), ("f", "ci"),
                            ("h", "gi")):
        for c in corners:
            ths[(anchor, c)] = n2(anchor, c)
    return ls, ths


def test_grid_center_picks_two_opposite_neighbors():
    ls, ths = grid_center_state()
    picked = choose_fmprs(ls, ths, NOW)
    assert picked == frozenset({"b", "h"})
    assert is_valid_fmpr_set(ls, ths, NOW, picked)
    # every 1-member set misses a corner
    for x in "bdfh":
        assert not is_valid_fmpr_set(ls, ths, NOW, {x})


def test_grid_center_valid_pairs_exactly():
    # only the two opposite pairs cover all four corners; adjacent pairs
    # (say b,f) leave the far corner g reachable through d or h alone
    ls, ths = grid_center_state()
    twos = {s for s in valid_family(is_valid_fmpr_set, ls, ths)
            if len(s) == 2}
    assert twos == {frozenset({"b", "h"}), frozenset({"d", "f"})}


def asymmetric_diamond_state():
    """Two routes to one target whose cheap direction differs per metric.

    Neighbors b (in 4) and c (in 1); both reach a. Inward legs: via b
    costs 4+1=5, via c costs 1+5=6. Outward legs: via b 4+3=7, via c
    1+5=6. So the correct pick is {b}, the outward-metric pick is {c}.
    """
    ls = {"b": sym("b", in_m=4, out_m=1), "c": sym("c", in_m=1, out_m=6)}
    ths = {("b", "a"): n2("b", "a", in_m=1, out_m=3),
           ("c", "a"): n2("c", "a", in_m=5, out_m=5)}
    return ls, ths


def test_asymmetric_diamond_flips_under_bug_mode():
    ls, ths = asymmetric_diamond_state()
    assert choose_rmprs(ls, ths, NOW, bug_mode=False) == frozenset({"b"})
    assert choose_rmprs(ls, ths, NOW, bug_mode=True) == frozenset({"c"})
    assert not is_valid_rmpr_set(ls, ths, NOW, {"c"}, bug_mode=False)
    assert not is_valid_rmpr_set(ls, ths, NOW, {"b"}, bug_mode=True)
    # flooding ignores metrics entirely: either single neighbor suffices
    assert is_valid_fmpr_set(ls, ths, NOW, {"b"})
    assert is_valid_fmpr_set(ls, ths, NOW, {"c"})


def test_neighbor_behind_unmeasured_tuples_is_mandatory_by_its_direct_leg():
    # b is a 2-hop target only through c, and that leg's metric is not
    # known yet. The direct leg still reaches b, and only b has it, so
    # b is a routing MPR in both bug modes and a flooding MPR too
    ls = {"b": sym("b", in_m=3), "c": sym("c", in_m=1)}
    ths = {("c", "b"): n2("c", "b", in_m=INF, out_m=INF)}
    for bug in (False, True):
        assert choose_rmprs(ls, ths, NOW, bug) == frozenset({"b"})
        assert not is_valid_rmpr_set(ls, ths, NOW, {"c"}, bug)
        assert oracles.ref_greedy_choice(ls, ths, NOW, "rmpr", bug) == {"b"}
    assert choose_fmprs(ls, ths, NOW) == frozenset({"b"})
    assert not is_valid_fmpr_set(ls, ths, NOW, {"c"})


def test_empty_neighborhood():
    assert choose_fmprs({}, {}, NOW) == frozenset()
    assert valid_family(is_valid_fmpr_set, {}, {}) == {frozenset()}
    assert is_valid_rmpr_set({}, {}, NOW, set())
    assert not is_valid_rmpr_set({}, {}, NOW, {"ghost"})


def test_update_mprs_keeps_valid_current_flags():
    ls, ths = grid_center_state()
    flagged = dict(ls)
    for x in ("d", "f"):
        flagged[x] = sym(x, fmpr=True)
    # {d,f} is valid, so it is kept although choose_fmprs picks {b,h}
    assert choose_fmprs(flagged, ths, NOW) == {"b", "h"}
    kept = dict(flagged)
    update_fmprs(kept, ths, NOW)
    assert kept == flagged
    # invalidate the current flags: now choose_fmprs's set is flagged
    flagged["f"] = sym("f")  # only d flagged -> invalid
    update_fmprs(flagged, ths, NOW)
    assert {o for o, t in flagged.items() if t.fmpr} == {"b", "h"}


def test_update_rmprs_respects_bug_mode():
    ls, ths = asymmetric_diamond_state()
    update_rmprs(ls, ths, NOW, bug_mode=True)
    assert {o for o, t in ls.items() if t.rmpr} == {"c"}
    # {c} is invalid in the corrected reading, so it is replaced
    update_rmprs(ls, ths, NOW, bug_mode=False)
    assert {o for o, t in ls.items() if t.rmpr} == {"b"}


def test_update_mprs_against_the_references():
    """On random neighborhoods, in both bug modes: the update keeps the
    flagged set when the reference finds it valid and flags choose_*'s
    set otherwise, the result is valid by the reference enumeration, and
    no other field of a link tuple changes."""
    rng = random.Random(0x0FF1CE)
    for _ in range(200):
        ls, ths = oracles.random_neighborhood(rng)
        for bug in (False, True):
            for field, update, chosen in (
                    ("fmpr", lambda x: update_fmprs(x, ths, NOW),
                     choose_fmprs(ls, ths, NOW)),
                    ("rmpr", lambda x: update_rmprs(x, ths, NOW, bug),
                     choose_rmprs(ls, ths, NOW, bug))):
                before = {o for o, t in ls.items() if getattr(t, field)}
                updated = dict(ls)
                update(updated)
                after = {o for o, t in updated.items() if getattr(t, field)}
                valid = oracles.ref_mpr_valid(ls, ths, NOW, field, bug,
                                              before)
                assert after == (before if valid else chosen)
                assert after in oracles.ref_all_valid(ls, ths, NOW, field,
                                                      bug)
                assert {o: t._replace(**{field: False})
                        for o, t in updated.items()} == \
                    {o: t._replace(**{field: False})
                     for o, t in ls.items()}
