"""A trace does not depend on Python's string hash seed.

A set or frozenset of node ids iterated into a rendered line would
make the trace differ between interpreters started with different
PYTHONHASHSEED values, while the in-process pins, run under one seed,
still pass. So one pinned case of test_trace_pins runs here in fresh
interpreters under two fixed seeds, and each must give the pin.
"""
import os
import subprocess
import sys
from pathlib import Path

import pytest

import olsrv2sim
from test_trace_pins import CASES

CASE = "eventful"
PROBE = """\
import hashlib
import sys

from olsrv2sim.simnet import build_network
from test_trace_pins import CASES

s = CASES[sys.argv[1]][0]()
net = build_network(s)
net.run(s.params["ticks"])
print(hashlib.sha256(net.render_trace().encode()).hexdigest())
"""


@pytest.mark.parametrize("hash_seed", ["0", "31337"])
def test_pinned_trace_under_hash_seed(hash_seed):
    src = Path(olsrv2sim.__file__).resolve().parents[1]
    tests = Path(__file__).resolve().parent
    env = {**os.environ, "PYTHONHASHSEED": hash_seed,
           "PYTHONPATH": os.pathsep.join([str(src), str(tests)])}
    r = subprocess.run([sys.executable, "-c", PROBE, CASE],
                       capture_output=True, text=True, env=env, timeout=300)
    assert r.returncode == 0, r.stderr
    assert r.stdout.strip() == CASES[CASE][1]
