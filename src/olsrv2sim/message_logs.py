"""Received message information base: duplicate suppression for TCs.

Processed and received sets are plain sets of (originator, sqn) pairs,
added to in place. Neither set expires entries; the model defines no
expiry, and at desk scale the unbounded growth is an accepted
fidelity-over-practicality trade (documented in the README).
"""
from __future__ import annotations

from typing import Set, Tuple

from .messages import NodeId, Sqn

LogEntry = Tuple[NodeId, Sqn]


def add_processed_tuple(ps: Set[LogEntry], moip: NodeId, msqn: Sqn) -> None:
    ps.add((moip, msqn))


def add_received_tuple(rxs: Set[LogEntry], moip: NodeId, msqn: Sqn) -> None:
    rxs.add((moip, msqn))
