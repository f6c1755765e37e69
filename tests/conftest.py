"""Suite-wide oracle mode for the router's incremental consistency check.

Router.step_main asks Router._update_due() before every micro-step, and
that fast check re-evaluates the full updates_pending() predicate only
after a write or when the clock reaches a stored expiry. Every test
runs with the fast check wrapped so that each call also evaluates the
full predicate and fails on the first disagreement.
"""
from collections import Counter

import pytest

from olsrv2sim.engine import Router


@pytest.fixture(autouse=True)
def oracle_mode(monkeypatch):
    """Assert _update_due() == updates_pending() at every micro-step.

    Yields a Counter of the verdicts seen, keyed True/False, so a test
    can check that the oracle was exercised.
    """
    verdicts = Counter()
    fast = Router._update_due

    def checked(self):
        got = fast(self)
        want = self.updates_pending()
        assert got == want, (
            f"router {self.ip} at t={self.now}: fast check says {got},"
            f" updates_pending() says {want}")
        verdicts[got] += 1
        return got

    monkeypatch.setattr(Router, "_update_due", checked)
    yield verdicts
