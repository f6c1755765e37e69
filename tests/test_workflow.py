"""Each Python file the CI workflow runs exists; what its grid step runs,
scripts/grid_probe.py, tests/test_scripts.py imports and runs."""
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_workflow_runs_files_that_exist():
    text = (ROOT / ".github" / "workflows" / "tier1.yml").read_text()
    paths = set(re.findall(r"\b(?:bench|scripts|src|tests)/[\w/]+\.py\b",
                           text))
    assert {"scripts/grid_probe.py", "bench/run.py"} <= paths
    assert sorted(p for p in paths if not (ROOT / p).is_file()) == []
