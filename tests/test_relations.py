"""Relations between runs: checks that need no ground truth.

Each property runs two related scenarios and compares what they
produce. Ground truth judges only a converged, noiseless run's routes;
a relation between two runs also covers the flooding layer, the two
metric readings and whole traces.
"""
import random

from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from olsrv2sim.simnet import build_network

import oracles


def with_symmetric_metrics(s):
    """s with each link's two directions at the metric of the direction
    listed first."""
    first = {}
    for u, v, m in s.links:
        first.setdefault(frozenset((u, v)), m)
    s.links = tuple((u, v, first[frozenset((u, v))]) for u, v, _ in s.links)
    return s


# no shrinking: a smaller seed is no simpler network, and each example
# runs a whole scenario twice
@settings(max_examples=15, deadline=None,
          phases=(Phase.explicit, Phase.reuse, Phase.generate))
@given(seed=st.integers(0, 2**32 - 1), n_nodes=st.integers(3, 8))
def test_metric_readings_agree_on_symmetric_metrics(seed, n_nodes):
    """With every link's two directions at one metric, the RFC 7181
    reading (bug_rfc7181) and the corrected one give byte-identical
    traces: the two differ only in which direction of a 2-hop link
    they weigh, so their divergence (demo fig3) needs asymmetry."""
    texts = []
    for bug in (False, True):
        s = with_symmetric_metrics(oracles.random_connected_scenario(
            random.Random(seed), n_nodes, seed=seed, ticks=300))
        s.flags["bug_rfc7181"] = bug
        net = build_network(s)
        assert all(r.bug_mode is bug for r in net.routers.values())
        net.run(s.params["ticks"])
        texts.append(net.render_trace())
    assert texts[0] == texts[1]
