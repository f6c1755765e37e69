"""Router state machine: consistency predicate, message pipelines,
step scheduling, periodic generation.

The central test here checks updates_pending() against a literal
re-composition of its seven conditions (oracles.ref_updates_pending)
on several hundred randomized router states.
"""
import dataclasses
import random
from collections import Counter

import pytest

from olsrv2sim import neighborhood
from olsrv2sim.engine import (ConfigError, EngineDiagnostic, Router,
                              RouterConfig, init_router, validate_config)
from olsrv2sim.messages import (INF, NEG_INF, Hello, MprRole, Status, Tc,
                                make_hello)
from olsrv2sim.neighborhood import LinkTuple, TwoHopTuple
from olsrv2sim.simnet import TopologyEvent, TraceEvent, build_network
from olsrv2sim.topology import (Route, _dijkstra, choose_optimal,
                                link_universe, rmpr_selectors)

import oracles


def cfg(ip="a", **kw):
    base = dict(ip=ip, hp_maxjitter=3, tp_maxjitter=3, h_hold_time=14,
                t_hold_time=40, l_hold_time=10, hello_interval=10,
                tc_interval=20)
    base.update(kw)
    return RouterConfig(**base)


def mk_router(ip="a", seed=0, start_time=0, **flags):
    return Router(cfg(ip), jitter_rng=random.Random(seed),
                  start_time=start_time, **flags)


def sym(oip, in_m=1, out_m=1, now=0, fsel=False):
    return LinkTuple(oip, now + 30, now + 30, now + 60, False, False,
                     fsel, False, in_m, out_m)


# --- configuration validation ------------------------------------------------

VIOLATIONS = [
    (dict(lb=0), "0 < LB"),
    (dict(delta_b=-1), "ΔB >= 0"),
    (dict(hp_maxjitter=2), "LB + ΔB < hp_maxjitter"),
    (dict(hello_interval=3), "hp_maxjitter < hello_interval"),
    (dict(h_hold_time=13), "LB + 2ΔB + hello_interval < h_hold_time"),
    (dict(tp_maxjitter=2), "LB + ΔB < tp_maxjitter"),
    (dict(tc_interval=3, t_hold_time=40),
     "tp_maxjitter < tc_interval"),
    (dict(t_hold_time=28),
     "(2(LB+ΔB)+1)(|IP|-1) - (LB+1) + tc_interval < t_hold_time"),
    (dict(l_hold_time=-1), "0 <= l_hold_time"),
]


def test_validate_config_accepts_baseline():
    validate_config(cfg(), lb=1, delta_b=1, node_count=3)


@pytest.mark.parametrize("overrides,name", VIOLATIONS)
def test_validate_config_names_failed_constraint(overrides, name):
    lb = overrides.pop("lb", 1)
    db = overrides.pop("delta_b", 1)
    with pytest.raises(ConfigError) as e:
        validate_config(cfg(**overrides), lb=lb, delta_b=db, node_count=3)
    assert str(e.value) == f"constraint violated: {name}"


def test_offset_bounds():
    with pytest.raises(ConfigError, match="hello_time"):
        Router(cfg(), jitter_rng=random.Random(0), hello_offset=11)
    with pytest.raises(ConfigError, match="tc_time"):
        Router(cfg(), jitter_rng=random.Random(0), tc_offset=-1)
    Router(cfg(), jitter_rng=random.Random(0), hello_offset=10, tc_offset=20)


def test_init_router_seeding_is_stable():
    a = init_router(cfg(), 1, 1, 3, seed=42, hello_offset=5, tc_offset=7)
    b = init_router(cfg(), 1, 1, 3, seed=42, hello_offset=5, tc_offset=7)
    assert (a._hello_fire, a._tc_fire) == (b._hello_fire, b._tc_fire)
    with pytest.raises(ConfigError):
        init_router(cfg(hello_interval=2), 1, 1, 3, seed=1,
                    hello_offset=0, tc_offset=0)


# --- updates_pending vs the literal composition ------------------------------

def scramble(rng, r):
    """Install a random protocol state on router r (now stays 100)."""
    now = r.now
    r.ls, r.twohop_set = oracles.random_neighborhood(rng, now=now)
    # sprinkle MPR flags over symmetric and non-symmetric rows alike
    for oip in list(r.ls):
        lt = r.ls[oip]
        if rng.random() < 0.5:
            r.ls[oip] = LinkTuple(lt.oip, lt.symmetric_time, lt.heard_time,
                                  lt.validity_time, rng.random() < 0.5,
                                  rng.random() < 0.5, lt.fmpr_selector,
                                  lt.rmpr_selector, lt.in_metric,
                                  lt.out_metric)
    r.advertised = rng.choice([rmpr_selectors(r.ls), frozenset()])
    r.rts = {}
    names = sorted(r.ls) + ["far1", "far2"]
    for oip in names:
        ansn = rng.randrange(3)
        dests = {dst: rng.randint(1, 9) for dst in names
                 if dst != oip and rng.random() < 0.2}
        # an originator may also be known with no rows at all
        if dests or rng.random() < 0.4:
            r.rts[oip] = (now + rng.randint(-5, 40), ansn, dests)
    pick = rng.random()
    if pick < 0.4:
        r.rs = choose_optimal(r.ip, link_universe(r.ip, r.ls, r.rts, now))
        if r.rs and pick < 0.2:
            d = rng.choice(sorted(r.rs))
            old = r.rs[d]
            r.rs[d] = Route(d, old.next_hop, old.metric + 1)
    elif pick < 0.7:
        r.rs = {}
    else:
        r.rs = {n: Route(n, rng.choice(names), rng.randint(1, 9))
                for n in names if rng.random() < 0.3}
    r.ansn = rng.randrange(3)
    r._opt_edges = r._opt_rs = None


def test_updates_pending_equals_reference_composition():
    rng = random.Random(0x5EED)
    for i in range(250):
        r = mk_router(bug_mode=(i % 2 == 1), start_time=100)
        scramble(rng, r)
        want = oracles.ref_updates_pending(r)
        assert r.updates_pending() == want
        # the optimality memo must not change the verdict on a re-ask
        assert r.updates_pending() == want


def test_run_update_info_reaches_fixpoint():
    rng = random.Random(0xF17)
    for i in range(80):
        r = mk_router(bug_mode=(i % 3 == 0), start_time=100)
        scramble(rng, r)
        r.run_update_info()
        assert not r.updates_pending()
        assert not oracles.ref_updates_pending(r)


def test_memo_does_not_mask_mutations():
    r = mk_router(start_time=100)
    r.ls = {"b": sym("b", now=100)}
    r.run_update_info()
    assert not r.updates_pending()
    r.rs["b"] = Route("b", "b", 5)  # wrong metric
    assert r.updates_pending()
    r.run_update_info()
    assert r.rs == {"b": Route("b", "b", 1)}


def test_updates_pending_leaves_the_memo_untouched():
    """The oracle only reads the memo: a memo it wrote would spare the
    next pass the optimality test that a run never asking it makes."""
    r = mk_router(start_time=100)
    r.ls = {"b": sym("b", now=100)}
    r.run_update_info()
    edges, rs = r._opt_edges, r._opt_rs
    assert not r.updates_pending()
    assert r._opt_edges is edges and r._opt_rs is rs
    # without a memo it proves the routing set optimal, and records nothing
    r._opt_edges = r._opt_rs = None
    assert not r.updates_pending()
    assert r._opt_edges is None and r._opt_rs is None


def slack_router():
    """a, symmetric with b and c at metric 1, after a pass over rows
    b -> d (1) and c -> d (5): the route to d runs via b, so c -> d is
    slack."""
    r = mk_router(start_time=100)
    r.ls = {"b": sym("b", now=100), "c": sym("c", now=100)}
    r.rts = {"b": (140, 0, {"d": 1}), "c": (140, 0, {"d": 5})}
    r.run_update_info()
    assert r.rs["d"] == Route("d", "b", 2)
    return r


def test_routing_set_mutated_after_a_pass_is_rechosen():
    """Only a routing set the memo proved optimal may keep the memo's
    distances: a change to slack rows alone would keep any other."""
    r = slack_router()
    r.rs["d"] = Route("d", "b", 7)  # wrong metric
    r.rts["c"] = (140, 0, {"d": 6})    # a new map: rows are never mutated
    r.run_topology_update()
    assert r.rs == choose_optimal("a", link_universe("a", r.ls, r.rts, 100))
    assert r.rs["d"] == Route("d", "b", 2)


def test_reset_memo_never_pairs_stale_distances_with_new_rows():
    r = slack_router()
    stale = r._opt_dist
    r._opt_edges = r._opt_rs = None   # as scramble() leaves a router
    # b -> d is gone: under the stale distances it was tight
    r.rts["b"] = (140, 0, {"e": 1})
    r.run_topology_update()
    assert r._opt_dist is not stale
    assert r._opt_dist == _dijkstra(r._opt_edges, "a")
    assert r.rs["d"] == Route("d", "c", 6) and r.rs["e"].metric == 2


def test_run_update_info_traces_route_changes_once():
    r = mk_router(start_time=100)
    events = []
    r.trace = lambda kind, payload: events.append(
        TraceEvent(r.now, r.ip, kind, payload))
    r.ls = {"b": sym("b", in_m=2, out_m=3, now=100)}
    r.run_update_info()
    assert [(ev.kind, ev.detail) for ev in events] == [
        ("ROUTE_CHANGE", "rs=[ROUTE b via b m=3]")]
    events.clear()
    r.run_update_info()
    assert events == []


def test_ansn_bumps_on_selector_changes():
    r = mk_router(start_time=100)
    r.ls = {"b": sym("b", now=100, fsel=False)}
    r.ls["b"] = LinkTuple("b", 130, 130, 160, False, False, False, True,
                          1, 1)
    r.run_update_info()
    first = r.ansn
    assert first == 1  # selector set went {} -> {b}
    r.run_update_info()
    assert r.ansn == first
    # expire the symmetric side; the purge strips the selector flag
    r.ls["b"] = LinkTuple("b", NEG_INF, 130, 160, False, False, False, True,
                          1, 1)
    r.run_update_info()
    assert r.ansn == first + 1


# --- HELLO pipeline -----------------------------------------------------------

def hello(originator="b", vt=14, statuses=None, mprs=None, in_metrics=None,
          out_metrics=None):
    return Hello(originator, vt, statuses or {}, mprs or {},
                 in_metrics or {}, out_metrics or {})


def test_hello_three_way_handshake():
    r = mk_router("a")
    r.process_hello(hello(), 5)           # b heard us not yet
    lt = r.ls["b"]
    assert lt.status(0) == Status.HEARD
    assert lt.in_metric == 5 and lt.out_metric == INF
    r.process_hello(hello(statuses={"a": Status.HEARD},
                          in_metrics={"a": 3}), 5)
    lt = r.ls["b"]
    assert lt.status(0) == Status.SYMMETRIC
    assert lt.out_metric == 3


def test_hello_builds_twohop_rows():
    r = mk_router("a")
    r.process_hello(hello(statuses={"a": Status.HEARD}), 4)
    r.process_hello(hello(statuses={"a": Status.SYMMETRIC,
                                    "c": Status.SYMMETRIC,
                                    "q": Status.HEARD},
                          in_metrics={"a": 4, "c": 2},
                          out_metrics={"a": 7, "c": 6}), 4)
    assert set(r.twohop_set) == {("b", "c")}
    n2 = r.twohop_set[("b", "c")]
    assert (n2.in_metric, n2.out_metric) == (2, 6)
    assert n2.validity_time == r.now + 14
    # the sender's own row never appears as a 2-hop target
    assert ("b", "a") not in r.twohop_set


def test_hello_lost_teardown():
    r = mk_router("a")
    r.process_hello(hello(statuses={"a": Status.HEARD}), 4)
    r.process_hello(hello(statuses={"a": Status.SYMMETRIC},
                          in_metrics={"a": 4}), 4)
    assert r.ls["b"].status(r.now) == Status.SYMMETRIC
    r.process_hello(hello(statuses={"a": Status.LOST}), 4)
    lt = r.ls["b"]
    assert lt.symmetric_time == NEG_INF
    assert lt.status(r.now) == Status.HEARD
    # the later heard-time refresh re-extends validity past the
    # teardown's now + l_hold_time floor
    assert lt.validity_time == lt.heard_time + r.cfg.l_hold_time


def test_hello_selector_flags_follow_mpr_announcements():
    r = mk_router("a")
    r.process_hello(hello(statuses={"a": Status.HEARD}), 4)
    r.process_hello(hello(statuses={"a": Status.SYMMETRIC},
                          mprs={"a": MprRole.FLOOD_ROUTE},
                          in_metrics={"a": 4}), 4)
    assert r.ls["b"].fmpr_selector and r.ls["b"].rmpr_selector
    r.process_hello(hello(statuses={"a": Status.SYMMETRIC},
                          mprs={"a": MprRole.ROUTING},
                          in_metrics={"a": 4}), 4)
    assert not r.ls["b"].fmpr_selector
    assert r.ls["b"].rmpr_selector


def test_hello_rejects_bad_arguments():
    r = mk_router("a")
    with pytest.raises(EngineDiagnostic):
        r.process_hello(hello(), INF)
    with pytest.raises(TypeError):
        r.process_hello(Tc("b", "b", 1, 0, 0, {}), 1)


# --- TC pipeline ---------------------------------------------------------------

def tc(originator="x", sender="b", vt=40, seq=0, ansn=0, dests=None):
    return Tc(originator, sender, vt, seq, ansn,
              dests if dests is not None else {"y": 3})


def rows(r):
    """The (originator, destination) pairs of r's router topology set."""
    return {(oip, d) for oip, (_, _, dests) in r.rts.items() for d in dests}


def symmetric_selector_router(ip="a"):
    r = mk_router(ip)
    r.ls = {"b": sym("b", fsel=True), "c": sym("c")}
    return r


def test_tc_fresh_message_stored_and_forwarded():
    r = symmetric_selector_router()
    r.process_tc(tc(dests={"y": 3, "a": 9}))
    assert r.rts == {"x": (r.now + 40, 0, {"y": 3})}   # rows about self skipped
    assert r.ps == {("x", 0)} and r.rxs == {("x", 0)}
    assert len(r.pkt) == 1
    fwd = r.pkt[0]
    assert fwd.sender == "a" and fwd.originator == "x"
    assert r.send_time == r.now + 1


def test_tc_forward_replaces_sender_only():
    r = symmetric_selector_router()
    t = tc(originator="x", sender="b", vt=1, seq=5, ansn=6, dests={"y": 2})
    r.process_tc(t)
    (f,) = r.pkt
    assert type(f) is Tc and f.sender == "a"
    assert (f.originator, f.validity, f.seq, f.ansn, f.dests) == \
        ("x", 1, 5, 6, {"y": 2})
    # the trace renders a TC's advertised map once per origination,
    # keyed by the identity of the dests dict its copies share
    assert f.dests is t.dests
    assert t.sender == "b"


def test_tc_own_originator_dropped_silently():
    r = symmetric_selector_router()
    r.process_tc(tc(originator="a"))
    assert not r.rts and not r.pkt
    assert not r.ps and not r.rxs


def test_tc_from_nonsymmetric_sender_not_processed():
    r = symmetric_selector_router()
    r.process_tc(tc(sender="stranger"))
    assert not r.rts and not r.pkt and not r.ps
    # opting in to promiscuous processing stores it, but forwarding
    # still requires a symmetric sender
    r2 = mk_router("a", process_tc_from_unknown=True)
    r2.process_tc(tc(sender="stranger"))
    assert "x" in r2.rts and rows(r2) == {("x", "y")}
    assert not r2.pkt


def test_tc_duplicate_forwarded_once_never_reprocessed():
    r = symmetric_selector_router()
    r.process_tc(tc(seq=4, dests={"y": 3}))
    assert len(r.pkt) == 1
    # same (originator, seq) again via another symmetric neighbor:
    # content ignored, and rxs suppresses the second forward
    r.process_tc(tc(sender="c", seq=4, dests={"zzz": 1}))
    assert rows(r) == {("x", "y")}
    assert len(r.pkt) == 1


def tc_state(r):
    """Everything process_tc may write, the trace aside."""
    return (oracles.pass_state(r), set(r.ps), set(r.rxs), list(r.pkt),
            r.send_time, r._dirty, r._topology_dirty, r._next_expiry)


@pytest.mark.parametrize("from_unknown", [False, True])
def test_tc_copy_already_received_changes_nothing(from_unknown):
    """A copy whose key is in rxs is dropped whole: it would reach the
    process step only with its key in ps, and rxs stops the forward."""
    r = mk_router("a", process_tc_from_unknown=from_unknown)
    r.ls = {"b": sym("b", fsel=True), "c": sym("c", fsel=True)}
    r.process_tc(tc(seq=4, ansn=1, dests={"y": 3}))
    assert ("x", 4) in r.rxs and len(r.pkt) == 1
    traced = []
    r.trace = lambda kind, payload: traced.append(kind)
    before = tc_state(r)
    senders = ["c", "stranger"] if from_unknown else ["c"]
    for sender in senders:
        # newer ansn and other rows: taken, they would show
        r.process_tc(tc(sender=sender, seq=4, ansn=2, vt=90,
                        dests={"zzz": 1}))
        assert tc_state(r) == before
    assert traced == []


def test_tc_stale_ansn_ignored_but_forwarded():
    r = symmetric_selector_router()
    r.process_tc(tc(seq=1, ansn=5, dests={"y": 3}))
    r.process_tc(tc(seq=2, ansn=4, dests={"zzz": 1}))
    assert r.rts["x"][1] == 5
    assert rows(r) == {("x", "y")}
    assert len(r.pkt) == 2          # both were forwardable
    assert r.ps == {("x", 1), ("x", 2)}


def test_tc_equal_ansn_refreshes_content():
    r = symmetric_selector_router()
    r.process_tc(tc(seq=1, ansn=5, dests={"y": 3}))
    r.process_tc(tc(seq=2, ansn=5, dests={"z": 8}))
    assert rows(r) == {("x", "z")}


def test_tc_forwarding_gates():
    # no selector flag and no flood_all: do not forward
    r = mk_router("a")
    r.ls = {"b": sym("b", fsel=False)}
    r.process_tc(tc())
    assert "x" in r.rts and not r.pkt
    # flood_all overrides the selector gate
    r = mk_router("a", flood_all=True)
    r.ls = {"b": sym("b", fsel=False)}
    r.process_tc(tc())
    assert len(r.pkt) == 1


def test_tc_type_check():
    r = mk_router("a")
    with pytest.raises(TypeError):
        r.process_tc(hello())


# --- step_main: one pass decision, then emit or drain ------------------------

def quiet(r):
    """Push periodic generation far into the future."""
    r.hello_time = r.now + r.cfg.hello_interval
    r._hello_fire = r.hello_time
    r.tc_time = r.now + r.cfg.tc_interval
    r._tc_fire = r.tc_time


def test_step_drains_queue_and_processes():
    r = mk_router("a")
    quiet(r)
    r.ls = {"b": sym("b", fsel=True), "c": sym("c")}
    # two packets delivered in one tick: a HELLO and a fresh TC from
    # MPR selector b, then a second copy of that TC (via c) and a's own
    r.enqueue_delivery([hello("d"), tc(seq=3)], 5)
    r.enqueue_delivery([tc(sender="c", seq=3), tc(originator="a", seq=9)],
                       5)
    assert r.step_main() is None
    assert not r.mqueue and "d" in r.ls
    assert "x" in r.rts and r.ps == r.rxs == {("x", 3)}
    # the fresh TC is forwarded exactly once, its copy and a's own not
    assert r.pkt == [tc(sender="a", seq=3)] and r.send_time == r.now + 1


def test_step_broadcast_preempts_processing():
    r = mk_router("a")
    quiet(r)
    r.pkt = [tc(originator="q", sender="a")]
    r.send_time = r.now
    queued = [([hello()], 5), ([hello("c"), tc()], 3)]
    for packet, metric in queued:
        r.enqueue_delivery(packet, metric)
    out = r.step_main()
    assert out is not None and out[0].originator == "q"
    assert r.send_time == INF and r.pkt == []
    # both delivered packets are still queued for the next step
    assert r.mqueue == queued
    assert "b" not in r.ls and "c" not in r.ls


def test_step_piggyback_generates_early():
    r = mk_router("a")
    quiet(r)
    # a forward is scheduled for next tick and the TC window is open
    r.pkt = [tc(originator="q", sender="a")]
    r.send_time = r.now + 1
    r.tc_time = r.now + 2          # window: now >= tc_time - tp_maxjitter
    r._tc_fire = r.now + 1         # the jitter draw alone would wait
    assert r.step_main() is None
    kinds = [type(m).__name__ for m in r.pkt]
    assert kinds == ["Tc", "Tc"]
    assert r.pkt[1].originator == "a"
    assert r.sqn == 1 and r.tc_time == r.now + r.cfg.tc_interval


def test_step_deadline_miss_raises():
    r = mk_router("a")
    quiet(r)
    r.hello_time = r.now - 1
    r._hello_fire = r.now - 1
    with pytest.raises(EngineDiagnostic, match="HELLO deadline"):
        r.step_main()


def test_generation_spacing_single_router():
    """Gaps between periodic generations stay within the jitter window."""
    r = init_router(cfg(), 1, 1, 1, seed=9, hello_offset=4, tc_offset=11)
    events = []
    r.trace = lambda kind, payload: events.append((r.now, kind))
    for _ in range(400):
        r.step_main()
        r.now += 1
    for kind, interval, mj in (("HELLO_GEN", 10, 3), ("TC_GEN", 20, 3)):
        times = [t for t, k in events if k == kind]
        assert len(times) >= (30 if kind == "HELLO_GEN" else 15)
        gaps = [b - a for a, b in zip(times, times[1:])]
        # jitter or piggybacking may pull a generation up to maxjitter
        # ticks early; the deadline check forbids anything late
        assert gaps and all(
            interval - mj <= g <= interval for g in gaps), (kind, gaps)


def test_generated_tc_sequence_numbers_increase_by_one():
    r = init_router(cfg(), 1, 1, 1, seed=3, hello_offset=0, tc_offset=0)
    seqs = []
    r.trace = (lambda kind, payload:
               seqs.append(payload.seq) if kind == "TC_GEN" else None)
    for _ in range(150):
        r.step_main()
        r.now += 1
    assert seqs == list(range(len(seqs))) and len(seqs) >= 5


def test_generation_reuses_only_content_equal_in_order():
    """An unchanged HELLO is the last HELLO object and an unchanged TC
    map the last map; the same names in another order are new objects,
    since process_hello walks a HELLO's names in message order."""
    r = mk_router("a")

    def generate():
        """A HELLO and a TC generated now."""
        out = []
        r.trace = lambda kind, payload: out.append(payload)
        r.hello_time = r._hello_fire = r.tc_time = r._tc_fire = r.now
        r._maybe_generate()
        r.now += 1
        return out

    def selector(oip):
        return LinkTuple(oip, 30, 30, 60, False, False, False, True, 1, 1)

    # ls is replaced wholesale here, which none of the router's writers
    # does, so each replacement marks the HELLO's view as a writer would
    r.ls = {"b": selector("b"), "c": selector("c")}
    r._hello_stale = True
    hello, tc = generate()
    again, tc_again = generate()
    assert again is hello and tc_again.dests is tc.dests
    assert tc_again is not tc and tc_again.seq == tc.seq + 1
    r.ls = {"c": r.ls["c"], "b": r.ls["b"]}
    r._hello_stale = True
    reordered, tc_reordered = generate()
    assert reordered == hello and reordered is not hello
    assert tc_reordered.dests == tc.dests
    assert tc_reordered.dests is not tc.dests


def generated_hello(r):
    """The HELLO r's step generates now, with TC generation off and
    the last generation's broadcast taken as sent."""
    out = []
    r.trace = (lambda kind, payload:
               out.append(payload) if kind == "HELLO_GEN" else None)
    r.pkt, r.send_time = [], INF
    r.tc_time = r._tc_fire = INF
    r.hello_time = r._hello_fire = r.now
    assert r.step_main() is None
    (msg,) = out
    return msg


def test_hello_rebuilt_when_a_symmetric_time_passes(oracle_mode):
    """With no message in between, b's symmetric time passing still
    changes what a's HELLO says of b: the full pass the clock makes due
    at that tick forces a build."""
    r = mk_router("a")
    r.process_hello(hello(statuses={"a": Status.HEARD}), 4)
    r.now = 2
    r.process_hello(hello(), 4)  # heard until 16, SYMMETRIC until 14
    r.now = 3
    first = generated_hello(r)
    assert first.statuses == {"b": Status.SYMMETRIC}
    r.now = 13
    assert generated_hello(r) is first
    assert oracle_mode["hello reused"] == 1
    r.now = 14
    heard = generated_hello(r)
    assert heard is not first
    assert heard.statuses == {"b": Status.HEARD} and not heard.out_metrics


def test_repeated_hello_recreates_a_purged_2hop_tuple(oracle_mode):
    """The same HELLO object again, after a pass purged one of the 2-hop
    tuples it lists, re-creates that tuple and marks a pass."""
    r = mk_router("a", start_time=100)
    silent(r)
    r.process_hello(hello(statuses={"a": Status.HEARD}), 4)
    msg = linked_hello()
    r.process_hello(msg, 4)
    r.run_update_info()
    # c's tuple expires early and is purged while b stays SYMMETRIC
    r.now = 101
    r.twohop_set[("b", "c")] = r.twohop_set[("b", "c")]._replace(
        validity_time=101)
    r.run_update_info()
    assert ("b", "c") not in r.twohop_set and not r._dirty
    r.now = 102
    r.process_hello(msg, 4)
    assert oracle_mode["hello repeat"] == 1
    assert r.twohop_set == {("b", "c"): TwoHopTuple("b", "c", 116, 2, 6)}
    assert r._dirty and r.ls["b"].status(102) == Status.SYMMETRIC


def test_hello_first_heard_before_the_link_is_symmetric_is_walked_later(
        oracle_mode):
    """A HELLO received while the link is not SYMMETRIC writes no 2-hop
    tuple; the same object received once the link is writes them."""
    r = mk_router("a", start_time=100)
    silent(r)
    msg = hello(statuses={"c": Status.SYMMETRIC}, in_metrics={"c": 2},
                out_metrics={"c": 6})
    r.process_hello(msg, 4)
    assert r.ls["b"].status(100) == Status.HEARD and not r.twohop_set
    r.now = 101
    r.process_hello(hello(statuses={"a": Status.HEARD}), 4)
    r.now = 102
    r.process_hello(msg, 4)
    assert r.twohop_set == {("b", "c"): TwoHopTuple("b", "c", 116, 2, 6)}
    r.now = 103
    r.process_hello(msg, 4)
    assert oracle_mode["hello repeat"] == 1
    assert r.twohop_set == {("b", "c"): TwoHopTuple("b", "c", 117, 2, 6)}


# --- incremental consistency: when the maintenance pass runs -----------------
#
# conftest.oracle_mode holds every step to updates_pending(); the
# tests below also assert the protocol effect itself, so they fail on a
# broken schedule without that mode too.

def silent(r):
    """Switch periodic generation off, so a step only does maintenance."""
    r.hello_time = r._hello_fire = r.tc_time = r._tc_fire = INF


def mpr_router():
    """a whose only symmetric neighbour b (symmetric until 105, heard
    until 115) is its only way to 2-hop c; after the first step b is
    both kinds of MPR and a has a route to it."""
    r = mk_router("a", start_time=100)
    silent(r)
    r.ls = {"b": LinkTuple("b", 105, 115, 125, False, False, False, False,
                           1, 1)}
    r.twohop_set = {("b", "c"): TwoHopTuple("b", "c", 135, 1, 1)}
    r.step_main()
    assert r.ls["b"].fmpr and r.ls["b"].rmpr and set(r.rs) == {"b"}
    return r


def test_symmetric_timeout_drops_mprs_and_route_at_that_tick():
    r = mpr_router()
    for now in range(101, 110):
        r.now = now
        r.step_main()      # no message arrives in between
        lt = r.ls["b"]
        still = now < 105
        assert (lt.fmpr, lt.rmpr, "b" in r.rs) == (still, still, still), now
        assert (("b", "c") in r.twohop_set) == still, now


def test_busy_router_purges_on_first_step_after_its_next_expiry():
    r = mpr_router()
    r.now = 104
    r.step_main()
    assert r.ls["b"].fmpr
    r.now = 106            # busy at 105, when b stopped being symmetric
    r.step_main()
    assert not r.ls["b"].fmpr and not r.ls["b"].rmpr and not r.rs


def test_tc_refresh_with_shorter_validity_purges_on_time():
    r = mk_router("a", start_time=100)
    silent(r)
    r.ls = {"b": LinkTuple("b", 300, 300, 400, False, False, False, False,
                           1, 1)}
    r.enqueue_delivery([Tc("b", "b", 40, 0, 0, {"c": 3})], 1)
    r.step_main()
    assert r.rts["b"] == (140, 0, {"c": 3}) and "c" in r.rs
    # identical rows, shorter validity: nothing to recompute, but the
    # rows now expire at 120 instead of 140
    r.now = 110
    r.enqueue_delivery([Tc("b", "b", 10, 1, 0, {"c": 3})], 1)
    r.step_main()
    assert r.rts["b"] == (120, 0, {"c": 3})
    for now in range(111, 125):
        r.now = now
        r.step_main()
        assert ("b" in r.rts) == (now < 120), now
        assert ("c" in r.rs) == (now < 120), now


def test_tc_naming_only_the_receiver_keeps_its_ansn_until_expiry():
    """An originator that advertises only the receiver keeps an entry
    with no rows: its ansn rejects older content until the entry
    expires at now + validity, and then a lower ansn is taken."""
    r = mk_router("a", start_time=100)
    silent(r)
    r.ls = {"b": LinkTuple("b", 300, 300, 400, False, False, False, False,
                           1, 1)}
    r.enqueue_delivery([Tc("b", "b", 40, 0, 5, {"a": 2})], 1)
    r.step_main()
    assert r.rts == {"b": (140, 5, {})}
    assert r._expiry_after(r.now) == 140
    r.now = 139
    r.enqueue_delivery([Tc("b", "b", 40, 1, 4, {"c": 3})], 1)
    r.step_main()
    assert r.rts == {"b": (140, 5, {})} and "c" not in r.rs
    r.now = 140
    r.enqueue_delivery([Tc("b", "b", 40, 2, 4, {"c": 3})], 1)
    r.step_main()
    assert r.rts == {"b": (180, 4, {"c": 3})} and "c" in r.rs
    assert r.ps == {("b", 0), ("b", 1), ("b", 2)}


def linked_hello(originator="b", vt=14, **kw):
    """b's HELLO once the link is symmetric: it lists a and 2-hop c."""
    fields = dict(statuses={"a": Status.SYMMETRIC, "c": Status.SYMMETRIC},
                  in_metrics={"a": 4, "c": 2}, out_metrics={"a": 4, "c": 6})
    fields.update(kw)
    return hello(originator, vt, **fields)


def linked_router():
    """a at t=100, symmetric with b (which lists c) and hearing e, right
    after a pass: every stored time is 114 or later."""
    r = mk_router("a", start_time=100)
    silent(r)
    r.process_hello(hello(statuses={"a": Status.HEARD}), 4)
    r.process_hello(linked_hello(), 4)
    r.process_hello(hello("e"), 4)
    r.run_update_info()
    assert not r._dirty and r._next_expiry == 114
    assert ("b", "c") in r.twohop_set and r.ls["e"].status(100) == Status.HEARD
    return r


def refresh(r):
    """The HELLOs b and e send next: they only move times later."""
    r.process_hello(linked_hello(), 4)
    r.process_hello(hello("e"), 4)


def stored_times(r):
    lts = [(lt.symmetric_time, lt.heard_time, lt.validity_time)
           for lt in r.ls.values()]
    return [t for ts in lts for t in ts] + [
        n2.validity_time for n2 in r.twohop_set.values()]


def test_refresh_only_hello_moves_times_not_the_dirty_bit():
    r = linked_router()
    r.now = 103
    refresh(r)
    assert not r._dirty
    assert r.ls["b"].symmetric_time == r.twohop_set[("b", "c")].validity_time
    assert r.ls["b"].symmetric_time == 117 and r.ls["e"].heard_time == 117
    assert r._next_expiry <= min(t for t in stored_times(r) if t > r.now)
    # a shorter validity moves b's symmetric time and c's row earlier
    # than any time stored before; still nothing to do until then
    r.now = 104
    r.process_hello(linked_hello(vt=5), 4)
    assert not r._dirty and r._next_expiry == 109
    for now in range(105, 112):
        r.now = now
        r.step_main()
        assert (("b", "c") in r.twohop_set) == (now < 109), now
        assert (r.ls["b"].status(now) == Status.SYMMETRIC) == (now < 109)


# Each write a pass can act on, applied at t=103 to linked_router()
# with no link hold time. A created link tuple marks a pass only when
# it is SYMMETRIC, selects a as MPR or has already expired, as the one
# a zero-validity HELLO creates does when there is no hold time.
HELLO_TRIGGERS = {
    "creates the link tuple": hello("d", vt=0),
    "creates a SYMMETRIC link tuple": hello("d",
                                            statuses={"a": Status.HEARD}),
    "creates a link tuple that selects a": hello(
        "d", mprs={"a": MprRole.FLOODING}),
    "HEARD becomes SYMMETRIC": hello("e", statuses={"a": Status.HEARD}),
    "LOST downgrade": linked_hello(statuses={"a": Status.LOST}),
    "selects a as flooding MPR": linked_hello(mprs={"a": MprRole.FLOODING}),
    "selects a as routing MPR": linked_hello(mprs={"a": MprRole.ROUTING}),
    "changes out_metric": linked_hello(in_metrics={"a": 9, "c": 2}),
    "creates a 2-hop tuple": linked_hello(statuses={"a": Status.SYMMETRIC,
                                                    "c": Status.SYMMETRIC,
                                                    "d": Status.SYMMETRIC}),
    "changes a 2-hop in_metric": linked_hello(in_metrics={"a": 4, "c": 3}),
    "changes a 2-hop out_metric": linked_hello(out_metrics={"a": 4, "c": 7}),
}


@pytest.mark.parametrize("trigger", HELLO_TRIGGERS)
def test_hello_that_a_pass_can_act_on_sets_the_dirty_bit(trigger):
    r = linked_router()
    r.now = 103
    r.cfg = dataclasses.replace(r.cfg, l_hold_time=0)
    before = oracles.pass_state(r)
    r.process_hello(HELLO_TRIGGERS[trigger], 4)
    assert r._dirty and oracles.pass_state(r) != before


# Writes a pass cannot act on, each at the tick given, right after a
# pass: a pass reads a link's status only as SYMMETRIC or not, so a
# created tuple that is neither SYMMETRIC nor selects a nor has expired
# (zero validity, but the default hold time keeps it) only stores
# times, and so does a LOST link heard again.
HELLO_NON_TRIGGERS = {
    "creates a HEARD link tuple": (103, hello("d")),
    "creates a LOST link tuple": (103, hello("d", vt=0)),
    "LOST becomes HEARD": (115, hello("e")),
}


@pytest.mark.parametrize("case", HELLO_NON_TRIGGERS)
def test_hello_a_pass_cannot_act_on_only_moves_times(case):
    now, msg = HELLO_NON_TRIGGERS[case]
    r = linked_router()
    r.now = now
    r.run_update_info()
    before = oracles.pass_state(r)
    r.process_hello(msg, 4)
    assert not r._dirty and oracles.pass_state(r) != before
    assert not r.updates_pending()
    assert r._next_expiry <= min(t for t in stored_times(r) if t > now)


# Each HELLO write that changes what a's next HELLO says, applied to
# linked_router() at the first tick, and the tick of the step that
# generates a's next HELLO: the HELLO a generated at the first tick can
# no longer be sent again. A tuple created LOST changes no status at
# the write, and neither it nor LOST becoming HEARD marks a pass; a
# shorter validity changes b's status only when the clock reaches the
# time it stored, which runs the full pass.
HELLO_VIEW_WRITES = {
    "creates a LOST link tuple": (103, 103, hello("d", vt=0)),
    "LOST becomes HEARD": (115, 115, hello("e")),
    "HEARD becomes SYMMETRIC": (103, 103,
                                hello("e", statuses={"a": Status.HEARD})),
    "changes out_metric": (103, 103,
                           linked_hello(in_metrics={"a": 9, "c": 2})),
    "shortens a symmetric time": (103, 108, linked_hello(vt=5)),
}


@pytest.mark.parametrize("case", HELLO_VIEW_WRITES)
def test_hello_rebuilt_after_a_write_it_reads(case, oracle_mode):
    now, then, msg = HELLO_VIEW_WRITES[case]
    r = linked_router()
    r.now = now
    last = generated_hello(r)
    assert generated_hello(r) is last
    r.process_hello(msg, 4)
    r.now = then
    new = generated_hello(r)
    assert new != last and new == make_hello("a", 14, r.ls.values(), then)


def test_stale_expiry_runs_no_pass_until_the_refreshed_time(oracle_mode):
    r = linked_router()
    passes = []
    run = r.run_update_info
    r.run_update_info = lambda: (passes.append(r.now), run())
    r.now = 103
    refresh(r)
    for now in range(104, 117):
        r.now = now
        skipped = oracle_mode[False]
        r.step_main()
        assert oracle_mode[False] == skipped + 1, now
    # the tick the first pass set _next_expiry to has passed; the times
    # the refresh stored, 117 and later, were looked up instead
    assert passes == [] and r._next_expiry == 117
    r.now = 117
    r.step_main()
    assert passes == [117]
    assert ("b", "c") not in r.twohop_set and "c" not in r.rs


def test_pass_with_nothing_pending_changes_nothing(oracle_mode):
    r = linked_router()
    r.process_tc(tc(originator="b", dests={"c": 2, "x": 5}))
    r.run_update_info()
    assert set(r.rs) == {"b", "c", "x"} and r.ls["b"].fmpr
    before = oracles.pass_state(r)
    assert not r.updates_pending()
    idle = oracle_mode["idle"]
    r.run_update_info()
    assert oracle_mode["idle"] == idle + 1
    assert oracles.pass_state(r) == before


def count_pass_calls(monkeypatch, names):
    """Count calls of neighborhood.<name>, except those the oracle's
    updates_pending() makes."""
    calls, in_oracle = Counter(), []
    pending = Router.updates_pending

    def oracle(self):
        in_oracle.append(self)
        try:
            return pending(self)
        finally:
            in_oracle.pop()

    monkeypatch.setattr(Router, "updates_pending", oracle)
    for name in names:
        def counted(*args, fn=getattr(neighborhood, name), name=name):
            if not in_oracle:
                calls[name] += 1
            return fn(*args)
        monkeypatch.setattr(neighborhood, name, counted)
    return calls


def test_changed_rows_tc_runs_only_the_topology_half(oracle_mode,
                                                     monkeypatch):
    r = linked_router()
    r.now = 103
    calls = count_pass_calls(monkeypatch, ("update_fmprs", "update_rmprs"))
    ls, ansn, advertised = dict(r.ls), r.ansn, r.advertised
    r.enqueue_delivery([tc(originator="b", dests={"c": 2, "x": 5})], 4)
    r.step_main()
    assert set(r.rs) == {"b", "c", "x"}
    assert oracle_mode["topology"] == 1 and oracle_mode[True] == 0
    assert not calls
    assert (r.ls, r.ansn, r.advertised) == (ls, ansn, advertised)
    # in the same tick, a HELLO that sets the bit: the full pass runs,
    # reselects MPRs and bumps ansn, and routes follow the new rows
    r.process_tc(tc(originator="b", seq=1, dests={"c": 2, "y": 5}))
    r.process_hello(linked_hello(mprs={"a": MprRole.ROUTING}), 4)
    r.step_main()
    assert oracle_mode[True] == 1 and oracle_mode["topology"] == 1
    assert calls == {"update_fmprs": 1, "update_rmprs": 1}
    assert set(r.rs) == {"b", "c", "y"} and r.ansn == ansn + 1
    # a stored time reached in the same tick (e's heard time, 114) also
    # runs the full pass
    r.now = 114
    r.process_tc(tc(originator="b", seq=2, dests={"c": 2, "z": 5}))
    r.step_main()
    assert oracle_mode[True] == 2 and oracle_mode["topology"] == 1
    assert calls == {"update_fmprs": 2, "update_rmprs": 2}
    assert set(r.rs) == {"b", "c", "z"}


def churn_events(rng, links, ticks):
    """Down/up cycles on some directed links, metric changes on others."""
    links = list(links)
    rng.shuffle(links)
    events = []
    for u, v in links[:3]:
        t = rng.randrange(30, ticks - 80)
        events += [TopologyEvent(t, "linkdown", u, v),
                   TopologyEvent(t + rng.randrange(5, 50), "linkup", u, v,
                                 rng.randint(1, 8))]
    for u, v in links[3:5]:
        events.append(TopologyEvent(rng.randrange(30, ticks - 30), "metric",
                                    u, v, rng.randint(1, 8)))
    return tuple(events)


@pytest.mark.parametrize("flood_all", [False, True])
@pytest.mark.parametrize("from_unknown", [False, True])
def test_received_log_within_processed_log(flood_all, from_unknown):
    """rxs <= ps at every router after every tick, the fact process_tc's
    early drop of an already received copy rests on."""
    rng = random.Random(f"rxs/{flood_all}/{from_unknown}")
    for i in range(3):
        s = oracles.random_connected_scenario(rng, rng.randint(4, 8),
                                              seed=800 + i)
        s.flags.update(flood_all=flood_all,
                       process_tc_from_unknown=from_unknown)
        if i:  # the first runs without churn
            s.events = churn_events(rng, [(u, v) for u, v, _ in s.links],
                                    200)
        net = build_network(s)
        for _ in range(200):
            net.tick()
            for r in net.routers.values():
                assert r.rxs <= r.ps, (
                    f"router {r.ip} at t={net.clock}:"
                    f" {sorted(r.rxs - r.ps)} received, not processed")
        assert any(r.rxs for r in net.routers.values())


@pytest.mark.parametrize("flags", [
    {}, {"bug_rfc7181": True}, {"flood_all": True},
    {"process_tc_from_unknown": True},
])
def test_fast_check_agrees_with_full_predicate_under_churn(oracle_mode,
                                                           flags):
    """Noisy random networks with link churn, with the oracle watching.

    Between them the runs write state through every path: HELLOs, TCs
    that change rows and TCs that only refresh them, maintenance passes,
    expiries crossed while busy, and TCs stored from unknown senders.
    Some passes run while nothing is pending and must change nothing.
    """
    rng = random.Random(repr(flags))
    for i in range(2):
        s = oracles.random_connected_scenario(rng, 6, seed=700 + i)
        s.params["metric_noise"] = 2
        s.flags.update(flags)
        s.events = churn_events(rng, [(u, v) for u, v, _ in s.links], 240)
        build_network(s).run(240)
    # passes that had work, passes that had none, skipped passes and
    # topology-only passes after TCs that changed rows
    assert oracle_mode[True] - oracle_mode["idle"] > 50
    assert oracle_mode["idle"] > 0 and oracle_mode[False] > 1000
    assert oracle_mode["topology"] > 0
    # passes that kept the distances, repaired them and recomputed them
    assert min(oracle_mode[k] for k in ("keep", "repair", "fall back")) > 0
    # HELLOs sent again without a build, and repeat receipts
    assert oracle_mode["hello reused"] > 0 and oracle_mode["hello repeat"] > 0
