"""Message constructors and the frozen one-line render formats."""
import pytest
from hypothesis import given
from hypothesis import strategies as st

from olsrv2sim.messages import (INF, NEG_INF, Hello, MprRole, Status, Tc,
                                make_hello, make_tc, render_message,
                                render_metric, render_packet, render_time)
from olsrv2sim.neighborhood import LinkTuple, TwoHopTuple
from olsrv2sim.topology import Route


def lt(oip, sym, heard, fmpr=False, rmpr=False, fsel=False, rsel=False,
       in_m=1, out_m=1, validity=1000):
    return LinkTuple(oip, sym, heard, validity, fmpr, rmpr, fsel, rsel,
                     in_m, out_m)


def test_render_time_and_metric():
    assert render_time(5) == "5"
    assert render_time(INF) == "inf"
    assert render_time(NEG_INF) == "-inf"
    assert render_metric(3) == "3"
    assert render_metric(INF) == "inf"


def test_render_hello_frozen_format():
    h = Hello(originator="b", validity=6,
              statuses={"c": Status.HEARD, "a": Status.SYMMETRIC},
              mprs={"a": MprRole.FLOOD_ROUTE},
              in_metrics={"c": 2, "a": 1},
              out_metrics={"a": INF})
    assert render_message(h) == (
        "HELLO o=b vt=6 st={a:SYMMETRIC,c:HEARD} mpr={a:FLOOD_ROUTE}"
        " in={a:1,c:2} out={a:inf}")


def test_render_tc_frozen_format():
    t = Tc(originator="a", validity=20, seq=3, ansn=7,
           dests={"d": 4, "c": 1})
    # the sender is the node that broadcast it, its originator unless
    # given: a TC names no sender of its own
    assert render_message(t, "b") == (
        "TC o=a s=b vt=20 sqn=3 ansn=7 d={c:1,d:4}")
    assert render_message(t) == "TC o=a s=a vt=20 sqn=3 ansn=7 d={c:1,d:4}"


def test_render_packet_joins_messages():
    t = Tc(originator="a", validity=1, seq=0, ansn=0, dests={})
    # every message of a packet names the packet's sender
    assert render_packet([t, t], "b", render_message) == (
        "[TC o=a s=b vt=1 sqn=0 ansn=0 d={}; "
        "TC o=a s=b vt=1 sqn=0 ansn=0 d={}]")
    assert render_packet([], "b", render_message) == "[]"


def test_make_hello_field_selection():
    """LOST rows appear only in statuses; out_metrics needs SYMMETRIC."""
    now = 100
    rows = [
        lt("sym", now + 10, now + 10, fmpr=True, in_m=3, out_m=5),
        lt("heard", NEG_INF, now + 10, rmpr=True, in_m=2, out_m=7),
        lt("lost", NEG_INF, NEG_INF, fmpr=True, rmpr=True, in_m=9, out_m=9),
    ]
    h = make_hello("me", 12, rows, now)
    assert h.originator == "me" and h.validity == 12
    assert h.statuses == {"sym": Status.SYMMETRIC, "heard": Status.HEARD,
                          "lost": Status.LOST}
    assert h.mprs == {"sym": MprRole.FLOODING, "heard": MprRole.ROUTING,
                      "lost": MprRole.FLOOD_ROUTE}
    assert h.in_metrics == {"sym": 3, "heard": 2}
    assert h.out_metrics == {"sym": 5}


def test_make_tc_advertises_symmetric_selectors_only():
    now = 100
    rows = [
        lt("a", now + 10, now + 10, rsel=True, out_m=4),
        lt("b", now + 10, now + 10, rsel=False, out_m=2),   # not a selector
        lt("c", NEG_INF, now + 10, rsel=True, out_m=3),     # only HEARD
    ]
    t = make_tc("me", 50, sqn=9, ansn=2, ls=rows, now=now)
    assert t.dests == {"a": 4}
    assert (t.originator, t.validity, t.seq, t.ansn) == ("me", 50, 9, 2)


@pytest.mark.parametrize("record", [
    Hello(originator="a", validity=6, statuses={"b": Status.HEARD},
          mprs={}, in_metrics={"b": 1}, out_metrics={}),
    Tc(originator="a", validity=1, seq=5, ansn=6, dests={"x": 2}),
    lt("b", 10, 10),
    TwoHopTuple("b", "c", 10, 1, 2),
    Route("c", "b", 2),
], ids=lambda r: type(r).__name__)
def test_records_are_immutable(record):
    field = record._fields[0]
    old = tuple(record)
    with pytest.raises(AttributeError):
        setattr(record, field, "z")
    new = record._replace(**{field: "z"})
    assert type(new) is type(record) and new is not record
    assert getattr(new, field) == "z" and new != record
    assert tuple(record) == old


@given(st.dictionaries(st.sampled_from("abcdefgh"),
                       st.integers(min_value=1, max_value=9), max_size=8))
def test_render_map_keys_sorted(dests):
    line = render_message(Tc(originator="z", validity=1, seq=0, ansn=0,
                             dests=dests))
    body = line.split("d={")[1].rstrip("}")
    keys = [p.split(":")[0] for p in body.split(",") if p]
    assert keys == sorted(dests)
