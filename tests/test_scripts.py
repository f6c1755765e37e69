"""The scripts under scripts/: the two surveys, pinned to their outputs,
the grid probe's counts and the benchmark recorder, checked for the keys
of what they return or write."""
import gc
import importlib.util
import json
from pathlib import Path

import pytest

from olsrv2sim import engine, topology

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def load(name):
    spec = importlib.util.spec_from_file_location(name,
                                                  SCRIPTS / f"{name}.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


@pytest.mark.parametrize("k, seed, selective, flood_all", [
    (3, 0, (7, 9), (9, 9)),
    (3, 1, (4, 9), (9, 9)),
    (4, 0, (12, 16), (16, 16)),
    (4, 1, (10, 16), (16, 16)),
])
def test_flooding_sweep_measure(k, seed, selective, flood_all):
    sweep = load("flooding_sweep")
    assert sweep.measure(k, seed, flood_all=False) == selective
    assert sweep.measure(k, seed, flood_all=True) == flood_all


def test_bug_impact_survey_summary(capsys):
    survey = load("bug_impact_survey")
    assert survey.main(["--scenarios", "5", "--seed", "1"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[:3] == [
        "5 scenarios converged in both modes",
        "corrected mode optimal everywhere: 5/5",
        "bugged mode degraded routes in 1/5 scenarios,"
        " 4/142 source-destination pairs",
    ]


def test_bench_record_writes_every_key(tmp_path):
    """The recorder's file has its sections and one workload's entries;
    the numbers themselves are not checked."""
    out = tmp_path / "bench.json"
    record = load("bench_record")
    assert record.main(["--out", str(out), "--workloads", "grid",
                        "--repeats", "2", "--seconds", "0"]) == 0
    data = json.loads(out.read_text())
    assert set(data) == {"settings", "end_to_end", "layers", "shas",
                         "counts", "lines", "host"}
    e2e = data["end_to_end"]["grid"]
    assert {"run_s", "tick_ms_p50", "peak_rss_mb",
            "correct_share"} <= set(e2e["metrics"])
    assert set(e2e["metrics"]["run_s"]) == {"median", "q1", "q3", "values"}
    assert len(e2e["attempted"]) == len(e2e["failed"]) == 4
    assert set(data["layers"]["grid"]["simnet.Network.render_trace"]) == {
        "calls", "self_s"}
    assert sorted(data["shas"]["grid"]) == ["grid0", "grid1", "grid2"]
    assert set(data["counts"]) == PROBE_KEYS | {"grid7_sha256"}
    assert set(data["lines"]) == {"src", "src_code", "tests", "scripts"}
    assert 0 < data["lines"]["src_code"] < data["lines"]["src"]
    assert set(data["host"]) == {"commit", "changed", "python", "nproc"}
    assert data["settings"]["seed"] == 1


def test_code_lines_skip_blanks_comments_and_docstrings(tmp_path):
    """Only lines holding code count: a string that is no docstring and
    a line with code and a comment do, a docstring's lines do not."""
    path = tmp_path / "sample.py"
    path.write_text('''"""Module
docstring."""
# a comment

def f(x):  # code with a comment
    """One line."""
    text = """two
lines"""
    return (x,
            text)


class C:
    """Class
    docstring."""
    y = 1
''')
    assert load("bench_record").code_line_count([path]) == 7


PROBE_KEYS = {"hello_builds", "hellos", "passes", "passes_kept",
              "passes_lowered", "passes_full", "passes_fell_back",
              "tc_accepted", "tc_inline", "tc_compared", "tc_new",
              "rows_unreached", "routes_full_reads", "routes_full_nodes",
              "routes_partial_reads", "routes_partial_nodes", "collections"}


def probed_names():
    """The objects at each name grid_probe.counts patches."""
    return [engine.make_hello, topology.repair_distances,
            topology.update_router_topology, topology.routes,
            engine.Router.run_topology_update, engine.Router.process_tc,
            list(gc.callbacks)]


def test_grid_probe_counts(monkeypatch):
    """The counts add up, and every name counts() patches is restored,
    also when the run raises; no count is pinned."""
    monkeypatch.syspath_prepend(str(SCRIPTS))
    probe, before = load("grid_probe"), probed_names()
    c, net = probe.counts(3, 60)
    assert probed_names() == before and set(c) == PROBE_KEYS
    assert (c["passes_kept"] + c["passes_lowered"] + c["passes_full"]
            == c["passes"] > 0)
    assert (c["tc_inline"] + c["tc_compared"] + c["tc_new"]
            == c["tc_accepted"] > 0)
    assert c["collections"] == 0 and net.clock == 60

    def broken(*args):
        raise RuntimeError("routes() failed")

    monkeypatch.setattr(topology, "routes", broken)
    before = probed_names()
    with pytest.raises(RuntimeError, match="routes"):
        probe.counts(3, 60)
    assert probed_names() == before
