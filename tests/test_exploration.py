"""Small-scope exploration: the demos' claims over every resolution of
the first jitter and duration draws.

A seed fixes one resolution of the model's nondeterminism: each
router's jitter draws and each broadcast's duration. The chooser here
replays a choice vector in place of the first draws, so that a test
can run every setting of them, with no hook in the library: it stands
in for simnet's random.Random.
"""
import random

import pytest

from olsrv2sim import simnet
from olsrv2sim.cli import main

_Random = random.Random


class _Replayed(_Random):
    """A /jitter or /dur stream whose draws come from a shared choice
    vector while it lasts, then from its own seed."""

    def __init__(self, seed, choices, ranges):
        super().__init__(seed)
        self._choices, self._ranges = choices, ranges

    def randrange(self, n):
        ranges = self._ranges
        if len(ranges) == len(self._choices):
            return super().randrange(n)
        ranges.append(n)
        return self._choices[len(ranges) - 1]


def replaying(choices, ranges):
    """A stand-in for random.Random: the first len(choices) draws of
    the /jitter and /dur streams, taken together in the order the run
    makes them, are choices; ranges gets each such draw's range."""
    def build(seed):
        if seed.endswith(("/jitter", "/dur")):
            return _Replayed(seed, choices, ranges)
        return _Random(seed)
    return build


def every_prefix(monkeypatch, depth, run):
    """Call run() once for every setting of the first depth draws, with
    later draws seeded, and return the number of runs.

    The draws up to the i-th are fixed by the choices before it, so the
    i-th draw's range is known once a run has made it: the next vector
    raises the last choice still below its range and zeroes those
    after it. A run that makes fewer draws leaves the rest unused."""
    choices, runs = [0] * depth, 0
    while True:
        ranges = []
        monkeypatch.setattr(simnet.random, "Random",
                            replaying(choices, ranges))
        run(choices)
        runs += 1
        i = len(ranges) - 1
        while i >= 0 and choices[i] + 1 >= ranges[i]:
            i -= 1
        if i < 0:
            return runs
        choices[i] += 1
        choices[i + 1:] = [0] * (depth - i - 1)


def test_every_prefix_runs_each_setting_once(monkeypatch):
    """Draws of ranges 2, 1 and 3, then a seeded one: every setting of
    the first three draws is run once, and the fourth is the seed's."""
    seen = []

    def run(choices):
        streams = [simnet.random.Random(f"1/{n}/jitter") for n in "abc"]
        draws = [rng.randrange(n) for rng, n in zip(streams, (2, 1, 3))]
        seen.append((tuple(draws), streams[0].randrange(10**9)))
        assert simnet.random.Random("1/a/offset").randrange(10**9) == (
            _Random("1/a/offset").randrange(10**9))
    assert every_prefix(monkeypatch, 3, run) == 6
    assert [d for d, _ in seen] == [(0, 0, 0), (0, 0, 1), (0, 0, 2),
                                    (1, 0, 0), (1, 0, 1), (1, 0, 2)]
    assert {s for _, s in seen} == {_Random("1/a/jitter").randrange(10**9)}


# Depths sized so that the two figures add about 3 s to the suite. Each
# router draws its HELLO jitter, then its TC jitter, when built, in node
# order; a run then draws a duration per broadcast and a jitter per
# generation. So fig1's 6 draws (of 2 values each) are A's, B's and
# C's set-up jitters, and fig2's 5 (of 3 values) every router's first
# HELLO jitter and A's and B's TC jitter, which lands past the horizon.
@pytest.mark.parametrize("figure,depth,runs", [
    ("fig1", 6, 64),
    ("fig2", 5, 243),
])
def test_demo_claims_hold_for_every_jitter_prefix(monkeypatch, capsys,
                                                  figure, depth, runs):
    """demo fig1's three broadcasts reaching all nine routers "for every
    seed", and demo fig2's four panels "regardless of jitter draws", as
    checkers.FIG1_SCENARIO's and FIG2_SCENARIO's comments claim, under
    every setting of the first depth draws."""
    failed = []

    def run(choices):
        if main(["demo", figure]) != 0:
            failed.append((tuple(choices), capsys.readouterr().out))
        capsys.readouterr()
    assert every_prefix(monkeypatch, depth, run) == runs
    assert not failed, failed[:3]
