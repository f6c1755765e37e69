"""Suite-wide oracle mode for the router's maintenance pass.

Router.step_main runs the pass run_update_info() when
Router._maintenance_due() says state was written in a way a pass can
act on, or a stored time was reached, since the last pass; it never
evaluates the full updates_pending() predicate. A HELLO that only moves
times later sets no dirty bit, and an expiry tick a refresh has since
moved is looked up again before a pass runs for it. Every test runs
with both wrapped, so that each micro-step is held to that predicate:

- a pass is skipped only when nothing is pending;
- nothing is pending after a pass, and a routing set the pass records
  as optimal (the memo both share) is optimal;
- a pass entered while nothing was pending changes no state.

The last one is why running a pass that is not needed leaves every
trace unchanged.
"""
from collections import Counter

import pytest

from olsrv2sim import topology
from olsrv2sim.engine import Router

from oracles import pass_state


@pytest.fixture(autouse=True)
def oracle_mode(monkeypatch):
    """Assert the three facts above at every micro-step.

    Yields a Counter a test can read to see the oracle exercised: True
    for passes run, False for passes skipped, "idle" for passes run
    while nothing was pending.
    """
    seen = Counter()
    due, run = Router._maintenance_due, Router.run_update_info

    def checked_due(self):
        got = due(self)
        if not got:
            assert not self.updates_pending(), (
                f"router {self.ip} at t={self.now}: pass skipped while"
                " updates_pending() holds")
        seen[got] += 1
        return got

    def checked_run(self):
        idle = not self.updates_pending()
        before = pass_state(self) if idle else None
        memo = self._opt_edges
        run(self)
        if self._opt_edges is not memo:
            assert topology.is_optimal_over(self.ip, self._opt_edges,
                                            self._opt_rs), (
                f"router {self.ip} at t={self.now}: the pass recorded a"
                " routing set that is not optimal")
        assert not self.updates_pending(), (
            f"router {self.ip} at t={self.now}: updates_pending() holds"
            " after a pass")
        if idle:
            assert pass_state(self) == before, (
                f"router {self.ip} at t={self.now}: a pass with nothing"
                " pending changed state")
            seen["idle"] += 1

    monkeypatch.setattr(Router, "_maintenance_due", checked_due)
    monkeypatch.setattr(Router, "run_update_info", checked_run)
    yield seen
