"""Protocol messages: the HELLO/TC union and its constructors.

Node identifiers are opaque ordered strings. Times and metrics are plain
ints extended with float("inf") / float("-inf"), which gives us correct
extended-integer comparison and addition without a custom numeric type.
"""
from __future__ import annotations

import enum
from typing import TYPE_CHECKING, Iterable, NamedTuple, Optional, Union

if TYPE_CHECKING:
    from .neighborhood import LinkTuple

NodeId = str
TimeValue = Union[int, float]  # int plus +-inf
Metric = Union[int, float]     # int >= 1 plus +inf
Sqn = int

INF: TimeValue = float("inf")
NEG_INF: TimeValue = float("-inf")


class Status(enum.Enum):
    """Link status as seen by one endpoint."""

    SYMMETRIC = "SYMMETRIC"
    HEARD = "HEARD"
    LOST = "LOST"


class MprRole(enum.Enum):
    """Role a neighbor was selected for, as announced in HELLOs."""

    FLOODING = "FLOODING"
    ROUTING = "ROUTING"
    FLOOD_ROUTE = "FLOOD_ROUTE"


# The members, bound once for the hot paths: reading a member off its
# Enum class runs Python code.
SYMMETRIC, HEARD, LOST = Status.SYMMETRIC, Status.HEARD, Status.LOST
FLOODING, ROUTING, FLOOD_ROUTE = (MprRole.FLOODING, MprRole.ROUTING,
                                  MprRole.FLOOD_ROUTE)


class Hello(NamedTuple):
    """1-hop broadcast carrying the sender's neighborhood view.

    The four maps are keyed by neighbor NodeId; the underlying sets of
    pairs never hold two entries for one key, so maps are a faithful
    representation and make the uniqueness invariant structural.
    """

    originator: NodeId
    validity: TimeValue
    statuses: dict[NodeId, Status]
    mprs: dict[NodeId, MprRole]
    in_metrics: dict[NodeId, Metric]
    out_metrics: dict[NodeId, Metric]


class Tc(NamedTuple):
    """Topology control message: advertised links, flooded network-wide.

    As in RFC 5444 framing, a forward keeps originator and seq and the
    sender is the packet's source, so every forward carries one object."""

    originator: NodeId
    validity: TimeValue
    seq: Sqn
    ansn: Sqn
    dests: dict[NodeId, Metric]


Message = Union[Hello, Tc]
Packet = list  # list[Message]; preserves append order


def make_hello(ip: NodeId, vtime: TimeValue, ls: Iterable[LinkTuple],
               now: TimeValue) -> Hello:
    """Build a HELLO advertising the current link set.

    statuses covers every tuple (including LOST ones, so the neighbor can
    tear down its own symmetric record); in_metrics covers non-LOST
    tuples; out_metrics only SYMMETRIC ones. mprs announces flooding
    and/or routing selection per flagged neighbor. All four maps are
    filled in one walk of ls, so each lists its names in ls's order.
    """
    statuses: dict[NodeId, Status] = {}
    mprs: dict[NodeId, MprRole] = {}
    in_metrics: dict[NodeId, Metric] = {}
    out_metrics: dict[NodeId, Metric] = {}
    for lt in ls:
        st = lt.status(now)
        statuses[lt.oip] = st
        if lt.fmpr and lt.rmpr:
            mprs[lt.oip] = FLOOD_ROUTE
        elif lt.fmpr:
            mprs[lt.oip] = FLOODING
        elif lt.rmpr:
            mprs[lt.oip] = ROUTING
        if st is not LOST:
            in_metrics[lt.oip] = lt.in_metric
        if st is SYMMETRIC:
            out_metrics[lt.oip] = lt.out_metric
    return Hello(originator=ip, validity=vtime, statuses=statuses,
                 mprs=mprs, in_metrics=in_metrics, out_metrics=out_metrics)


def make_tc(ip: NodeId, vtime: TimeValue, sqn: Sqn, ansn: Sqn,
            ls: Iterable[LinkTuple], now: TimeValue) -> Tc:
    """Build a TC advertising out-metrics to symmetric routing-MPR selectors."""
    dests = {lt.oip: lt.out_metric for lt in ls
             if lt.rmpr_selector and lt.status(now) is SYMMETRIC}
    return Tc(originator=ip, validity=vtime, seq=sqn, ansn=ansn,
              dests=dests)


# --- trace rendering ---------------------------------------------------

def render_time(t: TimeValue) -> str:
    if t == INF:
        return "inf"
    if t == NEG_INF:
        return "-inf"
    return str(int(t))


def render_metric(m: Metric) -> str:
    return "inf" if m == INF else str(int(m))


def _render_map(d: dict, value) -> str:
    """d's entries in key order, each value rendered by value."""
    return "{" + ",".join(f"{k}:{value(d[k])}" for k in sorted(d)) + "}"


def _enum_value(v: enum.Enum) -> str:
    return v.value


def render_message(msg: Message, sender: Optional[NodeId] = None) -> str:
    """One-line stable rendering; key sets appear in NodeId order. A TC's
    s= is sender, the node that broadcast it (by default its originator)."""
    if isinstance(msg, Hello):
        return (f"HELLO o={msg.originator} vt={render_time(msg.validity)}"
                f" st={_render_map(msg.statuses, _enum_value)}"
                f" mpr={_render_map(msg.mprs, _enum_value)}"
                f" in={_render_map(msg.in_metrics, render_metric)}"
                f" out={_render_map(msg.out_metrics, render_metric)}")
    return (render_tc_head(msg, sender or msg.originator)
            + render_tc_tail(msg, render_dests(msg.dests)))


def render_tc_head(msg: Tc, sender: NodeId) -> str:
    """A TC's text up to its sender, the part each broadcast changes."""
    return f"TC o={msg.originator} s={sender}"


def render_tc_tail(msg: Tc, dests_text: str) -> str:
    """A TC's text after its sender: one origination's lines share it."""
    return (f" vt={render_time(msg.validity)} sqn={msg.seq}"
            f" ansn={msg.ansn} d={dests_text}")


def render_dests(dests: dict) -> str:
    """A TC's advertised map; forwards and unchanged originations share
    one map object, so a caller can render it once per object."""
    return _render_map(dests, render_metric)


def render_packet(pkt: Packet, sender: NodeId, message_text) -> str:
    """pkt as sender broadcast it. message_text(msg, sender) renders each
    message, render_message or a caller's that reuses its text."""
    return "[" + "; ".join([message_text(msg, sender) for msg in pkt]) + "]"
