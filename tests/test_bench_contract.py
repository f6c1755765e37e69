"""What the benchmark harness reads of the simulator.

bench/run.py wraps simulator functions and methods at the names their
callers use (tracer.Tracer looks each one up with owner.__dict__[attr])
and reads len(r.ps) + len(r.rxs) of every router after a run. The
suite collects tests/ only, so without this a change that deletes or
renames one of those names would first fail in the benchmark's own
traced run.
"""
import sys
from pathlib import Path

from olsrv2sim import engine
from olsrv2sim.checkers import FIG1_SCENARIO
from olsrv2sim.cli import parse_scenario
from olsrv2sim.simnet import build_network
from test_acceptance import EVENTFUL_SCENARIO

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

import run  # noqa: E402  (bench/run.py)


def fig1_network():
    """Figure 1's network, run for its whole tick budget."""
    s = parse_scenario(FIG1_SCENARIO)
    net = build_network(s)
    return net, s.params["ticks"]


def test_layer_tracer_finds_every_wrapped_name():
    before = engine.Router.__dict__["step_main"]
    tracer = run.layer_tracer()
    net, ticks = fig1_network()
    with tracer.installed():
        assert engine.Router.__dict__["step_main"] is not before
        net.run(ticks)
    assert engine.Router.__dict__["step_main"] is before
    assert tracer.stats["engine.Router.step_main"].calls > 0
    assert tracer.stats["engine.Router.process_tc"].calls > 0


def test_traced_call_counts_repeat():
    """bench/run.py fails every operation of a traced pass whose call
    counts differ from the first traced pass's. Generation skips
    make_hello while the last HELLO still holds, so its count depends on
    router state; two runs of one scenario must still count alike."""
    counts = []
    for _ in range(2):
        tracer = run.layer_tracer()
        with tracer.installed():
            s = parse_scenario(EVENTFUL_SCENARIO)
            net = build_network(s)
            net.run(s.params["ticks"])
        counts.append({label: stat.calls
                       for label, stat in tracer.stats.items()})
    assert counts[0] == counts[1]
    hellos = sum(e.kind == "HELLO_GEN" for e in net.trace)
    assert 0 < counts[0]["engine.make_hello"] < hellos


def test_routers_hold_sized_message_logs():
    net, ticks = fig1_network()
    net.run(ticks)
    assert sum(len(r.ps) + len(r.rxs) for r in net.routers.values()) > 0
