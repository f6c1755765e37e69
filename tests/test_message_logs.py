"""Duplicate-suppression logs are grow-only sets of (originator, sqn)."""
from hypothesis import given
from hypothesis import strategies as st

from olsrv2sim.message_logs import add_processed_tuple, add_received_tuple


def test_add_is_union():
    ps = set()
    add_processed_tuple(ps, "a", 0)
    add_processed_tuple(ps, "a", 1)
    assert ps == {("a", 0), ("a", 1)}
    add_processed_tuple(ps, "a", 0)  # idempotent
    assert ps == {("a", 0), ("a", 1)}
    rxs = set()
    add_received_tuple(rxs, "b", 5)
    assert rxs == {("b", 5)}


@given(st.sets(st.tuples(st.sampled_from("abc"),
                         st.integers(0, 5))),
       st.sampled_from("abc"), st.integers(0, 5))
def test_add_never_removes(base, oip, sqn):
    out = set(base)
    add_received_tuple(out, oip, sqn)
    assert base <= out and (oip, sqn) in out
    assert out - base <= {(oip, sqn)}
