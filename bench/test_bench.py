"""Self-tests of the benchmark harness: python3 -m pytest bench -q"""
from __future__ import annotations

import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import hostspeed  # noqa: E402
import run  # noqa: E402  (puts src/ and scripts/ on sys.path)
import workloads  # noqa: E402
from olsrv2sim import cli  # noqa: E402
from olsrv2sim.checkers import OptimalityReport  # noqa: E402
from tracer import Tracer  # noqa: E402


def _fake_layers():
    now = [0.0]
    ns = SimpleNamespace()

    def inner():
        now[0] += 2.0
        return True

    def outer():
        now[0] += 1.0
        ns.inner()
        ns.inner()
        now[0] += 3.0

    ns.inner, ns.outer = inner, outer
    return ns, (lambda: now[0])


def test_self_time_excludes_nested_wrapped_calls():
    ns, clock = _fake_layers()
    t = Tracer(clock=clock)
    t.add(ns, "outer", "outer")
    t.add(ns, "inner", "inner", useful=lambda args, result, before: result)
    with t.installed():
        ns.outer()
    outer, inner = t.stats["outer"], t.stats["inner"]
    assert (outer.calls, outer.total, outer.self_time) == (1, 8.0, 4.0)
    assert (inner.calls, inner.total, inner.self_time) == (2, 4.0, 4.0)
    assert inner.useful == 2


def test_installed_restores_originals_and_reset_zeroes():
    ns, clock = _fake_layers()
    original = ns.inner
    t = Tracer(clock=clock)
    t.add(ns, "inner", "inner")
    with t.installed():
        assert ns.inner is not original
        ns.inner()
    assert ns.inner is original
    ns.inner()  # untraced: not counted
    assert t.stats["inner"].calls == 1
    t.reset()
    assert t.stats["inner"].calls == 0 and t.stats["inner"].total == 0.0


def test_pre_state_feeds_useful():
    ns = SimpleNamespace(items=[])
    ns.grow = lambda box, n: box.extend(range(n))
    t = Tracer()
    t.add(ns, "grow", "grow", pre=lambda args: len(args[0]),
          useful=lambda args, result, before: len(args[0]) > before)
    with t.installed():
        ns.grow(ns.items, 2)
        ns.grow(ns.items, 0)
    assert (t.stats["grow"].calls, t.stats["grow"].useful) == (2, 1)


def test_generators_are_deterministic_per_seed():
    for make in workloads.WORKLOADS.values():
        first, again, other = make(3), make(3), make(4)
        assert first == again
        assert [op.text for op in first] != [op.text for op in other]


@pytest.mark.parametrize("metric,expected", [
    (False, ["linkdown"] * 4 + ["linkup"] * 4),
    (True, ["linkdown"] * 2 + ["linkup"] * 2 + ["metric"] * 2)])
def test_churn_events_touch_only_present_links(metric, expected):
    for op in workloads.churn_ops(5, metric):
        scenario = cli.parse_scenario(op.text)
        present = {(s, d) for s, d, _ in scenario.links}
        kinds = [ev.kind for ev in scenario.events]
        assert sorted(kinds) == expected
        for ev in sorted(scenario.events, key=lambda e: e.time):
            assert ev.time >= workloads.CHURN_START
            if ev.kind == "linkdown":
                present.remove((ev.src, ev.dst))
            elif ev.kind == "linkup":
                present.add((ev.src, ev.dst))
            else:
                assert (ev.src, ev.dst) in present
        assert op.ticks == max(ev.time for ev in scenario.events)


def test_churn_events_are_a_function_of_seed_and_scenario():
    scenario = cli.parse_scenario(workloads.churn_ops(1)[0].text)
    assert (workloads.churn_events(scenario, 9)
            == workloads.churn_events(scenario, 9))


def _report(node, ok):
    return OptimalityReport(node=node, verdict=ok, missing=(),
                            suboptimal=() if ok else (("x", 3, 2),))


def test_judge_holds_only_the_corrected_reading_to_ground_truth():
    bad = {"a": _report("a", True), "b": _report("b", False)}
    corrected = workloads.Op("c", "", 0, check=True, bug=False)
    rfc = workloads.Op("r", "", 0, check=True, bug=True)
    assert run.judge(rfc, True, bad, "h", None) == []
    assert run.judge(corrected, True, bad, "h", None) == [
        "routes differ from ground truth at b"]
    assert run.judge(rfc, False, bad, "h", None) == ["no convergence"]
    assert len(run.judge(rfc, True, bad, "h", "other")) == 1


def _pass(shas, failures=(), traced=False, calls=None):
    p = run.Pass(traced=traced)
    p.shas = dict(shas)
    p.failures = {name: ["x"] for name in failures}
    if calls is not None:
        p.layers = {"f": (calls, 0.0, 0.0, 0)}
    return p


def test_failures_count_operations_once_across_passes():
    passes = [_pass({"a": "1", "b": "2"}, failures=["a"]),
              _pass({"a": "1", "b": "2"}, failures=["a"]),
              _pass({"a": "1", "b": "9"})]
    assert sorted(run.op_failures(passes)) == ["a", "b"]
    traced = [_pass({"a": "1"}, traced=True, calls=5),
              _pass({"a": "1"}, traced=True, calls=6)]
    assert list(run.op_failures(traced)) == ["a"]


def test_tail_percentile_leaves_ten_samples_beyond():
    assert run.tail_pct(300) == 90.0       # 600 ticks in two passes
    assert run.tail_pct(2000) == 99.0      # 4000 ticks
    assert run.tail(list(range(100)), 90.0) == (89, 10)


def test_normalisation_divides_by_the_following_sample():
    timing = run.OpTiming()
    timing.lat = [1.0, 1.0, 3.0]
    timing.run_s = 6.0                      # 1 s outside the ticks
    ref = hostspeed.REF_S
    timing.cal = [(0, ref), (2, ref), (3, 2 * ref), (3, 2 * ref)]
    lat, run_s = timing.normalised()
    assert lat == [1.0, 1.0, 1.5]
    assert run_s == 3.5 + 1.0 / 1.5         # rest: median factor 1.5
