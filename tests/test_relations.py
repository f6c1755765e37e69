"""Relations between runs: checks that need no ground truth.

Each property runs two related scenarios and compares what they
produce. Ground truth judges only a converged, noiseless run's routes;
a relation between two runs also covers the flooding layer, the two
metric readings and whole traces.
"""
import random
import re

from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from olsrv2sim.simnet import build_network

import oracles


def scenario(seed, n_nodes):
    """A random connected scenario of n_nodes routers, run for 300 ticks."""
    return oracles.random_connected_scenario(random.Random(seed), n_nodes,
                                             seed=seed, ticks=300)


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
        s = with_symmetric_metrics(scenario(seed, n_nodes))
        s.flags["bug_rfc7181"] = bug
        net = build_network(s)
        assert all(r.bug_mode is bug for r in net.routers.values())
        net.run(s.params["ticks"])
        texts.append(net.render_trace())
    assert texts[0] == texts[1]


def scaled_text(text, c):
    """text with every metric multiplied by c: DELIVER's and a route's
    m=, and each value of a HELLO's in= and out= and a TC's d=."""
    def times_c(match):
        return str(int(match.group()) * c)

    def scale_map(match):
        return match.group(1) + re.sub(r"(?<=:)\d+", times_c, match.group(2))
    text = re.sub(r"(?<=\bm=)\d+", times_c, text)
    return re.sub(r"(\b(?:in|out|d)=)(\{[^}]*\})", scale_map, text)


@settings(max_examples=10, deadline=None,
          phases=(Phase.explicit, Phase.reuse, Phase.generate))
@given(seed=st.integers(0, 2**32 - 1), n_nodes=st.integers(3, 8),
       c=st.integers(2, 5))
def test_metric_scale_scales_every_metric_of_the_trace(seed, n_nodes, c):
    """Multiplying every link metric by c leaves every next hop, MPR
    choice and timing, and multiplies every metric in the trace by c:
    the routing weights are sums of metrics and compare only with one
    another, and the flooding weights ignore metrics."""
    texts = []
    for scale in (1, c):
        s = scenario(seed, n_nodes)
        s.links = tuple((u, v, m * scale) for u, v, m in s.links)
        net = build_network(s)
        net.run(s.params["ticks"])
        texts.append(net.render_trace())
    assert "ROUTE_CHANGE" in texts[0]
    assert scaled_text(texts[0], c) == texts[1]


@settings(max_examples=10, deadline=None,
          phases=(Phase.explicit, Phase.reuse, Phase.generate))
@given(seed=st.integers(0, 2**32 - 1), n_nodes=st.integers(3, 8))
def test_selective_flooding_loses_no_route(seed, n_nodes):
    """flood_all and selective flooding give every router the same
    route metrics at t=300. Next hops may differ on equal-cost ties: a
    kept routing set need not be the canonical one."""
    metrics = []
    for flood_all in (False, True):
        s = scenario(seed, n_nodes)
        s.flags["flood_all"] = flood_all
        net = build_network(s)
        assert all(r.flood_all is flood_all for r in net.routers.values())
        net.run(s.params["ticks"])
        metrics.append({ip: {d: r.metric for d, r in router.rs.items()}
                        for ip, router in net.routers.items()})
    # every router routes to every other: the scenario is connected
    assert all(len(rs) == n_nodes - 1 for rs in metrics[0].values())
    assert metrics[0] == metrics[1]
