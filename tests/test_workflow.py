"""The Python that the CI workflow's informational steps run inline.

Those steps import names from the library and the scripts, and patch
some of them to count calls. A rename that missed them would fail only
on a hosted runner, so each body is compiled here and every dotted name
it reads, imports or patches is resolved against the current code.
"""
import ast
import importlib
import re
import textwrap
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKFLOW = ROOT / ".github" / "workflows" / "tier1.yml"

# the names the steps patch or import from this repository
PATCHED_OR_IMPORTED = {
    "engine.make_hello", "topology.repair_distances",
    "topology.update_router_topology", "topology.routes",
    "engine.Router.run_topology_update",
    "engine.Router.process_tc", "grid_text", "parse_scenario",
    "build_network",
}


def heredoc_bodies():
    """The body of each `python3 - <<'EOF'` step, dedented."""
    return [textwrap.dedent(body) for body in re.findall(
        r"<<'EOF'\n(.*?)\n[ \t]*EOF\n", WORKFLOW.read_text(), re.S)]


def imported(tree):
    """name -> the object each import statement of tree binds to it."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                top = alias.name.split(".")[0]
                bound[alias.asname or top] = importlib.import_module(top)
        elif isinstance(node, ast.ImportFrom):
            module = importlib.import_module(node.module)
            for alias in node.names:
                if not hasattr(module, alias.name):
                    importlib.import_module(f"{node.module}.{alias.name}")
                bound[alias.asname or alias.name] = getattr(module,
                                                            alias.name)
    return bound


def dotted_names(tree, roots):
    """Each a.b.c in tree whose first part is one of roots."""
    for node in ast.walk(tree):
        parts = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if isinstance(node, ast.Name) and node.id in roots:
            yield ".".join([node.id, *reversed(parts)])


def test_workflow_python_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "scripts"))
    bodies = heredoc_bodies()
    assert len(bodies) == 2
    seen = set()
    for i, body in enumerate(bodies):
        tree = ast.parse(body)
        compile(tree, f"{WORKFLOW.name} step {i}", "exec")
        bound = imported(tree)
        seen |= set(bound)
        for name in dotted_names(tree, bound):
            first, *rest = name.split(".")
            obj = bound[first]
            for attr in rest:
                assert hasattr(obj, attr), f"{name} does not resolve"
                obj = getattr(obj, attr)
            seen.add(name)
    assert PATCHED_OR_IMPORTED <= seen
