"""The two survey scripts under scripts/, pinned to their outputs."""
import importlib.util
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
