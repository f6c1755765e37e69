"""The scripts under scripts/: the two surveys, pinned to their outputs,
and the benchmark recorder, checked for the keys of what it writes."""
import importlib.util
import json
from pathlib import Path

import pytest

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
                         "lines", "host"}
    e2e = data["end_to_end"]["grid"]
    assert {"run_s", "tick_ms_p50", "peak_rss_mb",
            "correct_share"} <= set(e2e["metrics"])
    assert set(e2e["metrics"]["run_s"]) == {"median", "q1", "q3", "values"}
    assert len(e2e["attempted"]) == len(e2e["failed"]) == 4
    assert set(data["layers"]["grid"]["simnet.Network.render_trace"]) == {
        "calls", "self_s"}
    assert sorted(data["shas"]["grid"]) == ["grid0", "grid1", "grid2"]
    assert set(data["lines"]) == {"src", "tests", "scripts"}
    assert set(data["host"]) == {"commit", "changed", "python", "nproc"}
    assert data["settings"]["seed"] == 1
