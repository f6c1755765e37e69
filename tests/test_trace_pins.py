"""Byte-level regression pins on rendered traces.

Each case runs one scenario for its tick budget and hashes
render_trace(). The cases reach what the benchmark's own pins do not:
classical flooding, the RFC 7181 metric reading, link churn with a
metric event, measurement noise, and TCs stored from senders that are
not SYMMETRIC neighbours. A change that keeps behaviour
keeps every hash; a change that alters a trace on purpose must say why
and update the hash here.
"""
import hashlib
import random

import pytest

from olsrv2sim.checkers import FIG1_SCENARIO, FIG2_SCENARIO, FIG3_SCENARIO
from olsrv2sim.cli import parse_scenario
from olsrv2sim.simnet import build_network

import oracles
from test_acceptance import EVENTFUL_SCENARIO
from test_engine import churn_events


def noisy_random_scenario():
    s = oracles.random_connected_scenario(random.Random(2024), 7, seed=77,
                                          ticks=250)
    s.params["metric_noise"] = 2
    return s


def unknown_sender_churn_scenario():
    rng = random.Random(2025)
    s = oracles.random_connected_scenario(rng, 7, seed=78, ticks=250)
    s.flags["process_tc_from_unknown"] = True
    s.events = churn_events(rng, [(u, v) for u, v, _ in s.links], 250)
    return s


def fixed(text, **flags):
    def make():
        s = parse_scenario(text)
        s.flags.update(flags)
        return s
    return make


CASES = {
    "fig1-selective": (
        fixed(FIG1_SCENARIO),
        "91ba27e2ad024ec4de3cc58d4dc692742a5e00870874ad09d0f6c28fb88cd5cb"),
    "fig1-flood-all": (
        fixed(FIG1_SCENARIO, flood_all=True),
        "4b486fd8336191371a2c64fdba03b0ec8e1492f322bfffcf000bc953df97b0f0"),
    "fig2": (
        fixed(FIG2_SCENARIO),
        "8e623fba9c4dd30e64063f8b11e6f0d70bbe23082749b099e6c914cf20494f58"),
    "fig3-corrected": (
        fixed(FIG3_SCENARIO, bug_rfc7181=False),
        "d049ed080e931deb8ebc4fa78fa6b349a2afcf463918fb4f24d102aaa1a03b84"),
    "fig3-rfc7181": (
        fixed(FIG3_SCENARIO, bug_rfc7181=True),
        "fffb9e6477feb4198352096ba2e0694a010d20d67c812f627338cc276b682914"),
    "eventful": (
        fixed(EVENTFUL_SCENARIO),
        "1bfe11582813e92f44c09c3151d857ff5244eba5d7707523522b006d8910cf0b"),
    "random-noise2": (
        noisy_random_scenario,
        "85c626d530bf3c38920b51e58d01dbf62bebb2e01fe0dd191bc720a957474ec5"),
    "random-churn-from-unknown": (
        unknown_sender_churn_scenario,
        "52c1e5e56ba7f10cec3110e598d2ca484d7073ee68dcdc4e63342aeb4a11bbf5"),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_trace_sha256_pinned(name):
    make, want = CASES[name]
    s = make()
    net = build_network(s)
    net.run(s.params["ticks"])
    got = hashlib.sha256(net.render_trace().encode()).hexdigest()
    assert got == want, f"{name}: trace sha256 {got}"
