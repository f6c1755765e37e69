"""Byte-level regression pins on rendered traces.

Each case runs one scenario for its tick budget and hashes
render_trace(). The cases reach what the benchmark's own pins do not:
classical flooding, the RFC 7181 metric reading, link churn with a
metric event, and measurement noise. A change that keeps behaviour
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


def noisy_random_scenario():
    s = oracles.random_connected_scenario(random.Random(2024), 7, seed=77,
                                          ticks=250)
    s.params["metric_noise"] = 2
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
        "bcdeda7bd75f9c341ea765e00bbdde864d1c73d032683834b88ce26225de3410"),
    "random-noise2": (
        noisy_random_scenario,
        "1cc4ff106e3b0806b0a2c1730012f6dd01ece50140b7b6ed01067709cc7cd334"),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_trace_sha256_pinned(name):
    make, want = CASES[name]
    s = make()
    net = build_network(s)
    net.run(s.params["ticks"])
    got = hashlib.sha256(net.render_trace().encode()).hexdigest()
    assert got == want, f"{name}: trace sha256 {got}"
