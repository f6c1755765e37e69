"""Scenario grammar, render/parse round-trips, and command exit codes."""
import os
import subprocess
import sys
from argparse import Namespace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import olsrv2sim
from olsrv2sim.checkers import FIG3_SCENARIO
from olsrv2sim.cli import (FLAG_NAMES, PARAM_NAMES, Scenario,
                           _apply_cli_overrides, main, parse_scenario,
                           render_scenario)
from olsrv2sim.simnet import ScenarioError, TopologyEvent, build_network

from test_acceptance import EVENTFUL_SCENARIO

MINIMAL = """\
node a
node b
link a b 1 bidi 1
"""

FULL = """\
# exercise every directive
node a
node b
node c-3
param hello_interval 12   # trailing comment
param b.hello_interval 14
param b.h_hold_time 30
flag flood_all on
flag bug_rfc7181 off
link a b 2
link b a 4
link b c-3 1 bidi 9
offset a hello 3 tc 20
at 40 linkdown b c-3
at 55 linkup b c-3 7
at 60 metric a b 3
"""


def test_parse_full_scenario():
    s = parse_scenario(FULL)
    assert s.nodes == ("a", "b", "c-3")
    assert s.params == {"hello_interval": 12, "b.hello_interval": 14,
                        "b.h_hold_time": 30}
    assert s.flags == {"flood_all": True, "bug_rfc7181": False}
    assert s.links == (("a", "b", 2), ("b", "a", 4),
                       ("b", "c-3", 1), ("c-3", "b", 9))
    assert s.offsets == {"a": (3, 20)}
    assert s.events == (TopologyEvent(40, "linkdown", "b", "c-3"),
                        TopologyEvent(55, "linkup", "b", "c-3", 7),
                        TopologyEvent(60, "metric", "a", "b", 3))


def test_round_trip_fixed_texts():
    for text in (MINIMAL, FULL, FIG3_SCENARIO):
        s = parse_scenario(text)
        assert parse_scenario(render_scenario(s)) == s


def test_fig3_link_metrics_in_literal_order():
    s = parse_scenario(FIG3_SCENARIO)
    assert tuple(m for (_, _, m) in s.links) == (1, 1, 1, 3, 1, 6, 5, 5, 1, 4)
    assert s.nodes == ("A", "B", "C", "D", "S")


BAD_LINES = [
    ("node a\nnode a\n", 2, "duplicate node id"),
    ("node a!\n", 1, "bad node id"),
    ("node a\nlink a b 1\n", 2, "undeclared node 'b'"),
    ("node a\nlink a a 1\n", 2, "self-loop"),
    ("node a\nnode b\nlink a b 0\n", 3, "metric must be >= 1"),
    ("param bogus 3\n", 1, "unknown param"),
    ("node a\nparam b.lb 3\n", 2, "undeclared node 'b'"),
    ("flag bogus on\n", 1, "unknown flag"),
    ("node a\nflag flood_all maybe\n", 2, "usage: flag"),
    ("node a\noffset a hello 3\n", 2, "usage: offset"),
    ("node a\nnode b\nat 5 explode a b\n", 3, "unknown event kind"),
    ("node a\nnode b\nat x linkdown a b\n", 3, "decimal integer"),
    ("teleport a b\n", 1, "unknown directive"),
    ("node a\nnode b\nlink a b 1 oops 2\n", 3, "usage: link"),
    ("node a\nnode b\nat -5 linkdown a b\n", 3, "event tick must be >= 0"),
    ("param ticks -3\n", 1, "param ticks must be >= 0"),
    ("param metric_noise -1\n", 1, "param metric_noise must be >= 0"),
    ("node a\nnode b\nlink a b 1\nlink b a 2 bidi 3\n", 4,
     "duplicate link a->b"),
]


@pytest.mark.parametrize("text,lineno,fragment", BAD_LINES)
def test_parse_errors_carry_line_numbers(text, lineno, fragment):
    with pytest.raises(ScenarioError) as e:
        parse_scenario(text)
    msg = str(e.value)
    assert msg.startswith(f"line {lineno}: ")
    assert fragment in msg


NAME_POOL = ("n1", "n2", "x", "y_z", "A-1")


@st.composite
def scenarios(draw):
    names = tuple(draw(st.lists(st.sampled_from(NAME_POOL), unique=True,
                                min_size=1, max_size=4)))
    params = {}
    for p in draw(st.lists(st.sampled_from(sorted(PARAM_NAMES)),
                           unique=True, max_size=3)):
        params[p] = draw(st.integers(0, 500))
    if draw(st.booleans()):
        node = draw(st.sampled_from(names))
        p = draw(st.sampled_from(sorted(PARAM_NAMES)))
        params[f"{node}.{p}"] = draw(st.integers(0, 500))
    links = []
    events = []
    if len(names) >= 2:
        pairs = [(u, v) for u in names for v in names if u != v]
        for u, v in draw(st.lists(st.sampled_from(pairs), unique=True,
                                  max_size=3)):
            links.append((u, v, draw(st.integers(1, 9))))
        for _ in range(draw(st.integers(0, 2))):
            u, v = draw(st.sampled_from(pairs))
            kind = draw(st.sampled_from(["linkup", "linkdown", "metric"]))
            m = None if kind == "linkdown" else draw(st.integers(1, 9))
            events.append(TopologyEvent(draw(st.integers(0, 200)),
                                        kind, u, v, m))
    flags = {f: draw(st.booleans())
             for f in draw(st.lists(st.sampled_from(sorted(FLAG_NAMES)),
                                    unique=True, max_size=2))}
    offsets = {n: (draw(st.integers(0, 30)), draw(st.integers(0, 50)))
               for n in names if draw(st.booleans())}
    return Scenario(nodes=names, params=params, links=tuple(links),
                    events=tuple(events), flags=flags, offsets=offsets)


@settings(max_examples=200)
@given(scenarios())
def test_round_trip_generated(s):
    assert parse_scenario(render_scenario(s)) == s


def test_cli_overrides():
    s = parse_scenario(FULL)
    args = Namespace(seed=77, ticks=9, bug_rfc7181=True, flood_all=False)
    out = _apply_cli_overrides(s, args)
    assert out.params["seed"] == 77 and out.params["ticks"] == 9
    assert out.flags["bug_rfc7181"] is True
    # flood-all was already on in the text and --flood-all absent: stays
    assert out.flags["flood_all"] is True
    args.ticks = -3
    with pytest.raises(ScenarioError, match="--ticks must be >= 0"):
        _apply_cli_overrides(s, args)


# --- exit codes through main() ------------------------------------------------

def write(tmp_path, text, name="scenario.txt"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def test_run_exit_zero_and_trace_on_stdout(tmp_path, capsys):
    rc = main(["run", "--scenario", write(tmp_path, MINIMAL), "--ticks", "6"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "ev=HELLO_GEN" in out and "ev=BROADCAST" in out
    assert all(line.startswith("t=") for line in out.splitlines())


def test_run_zero_ticks(tmp_path, capsys):
    rc = main(["run", "--scenario", write(tmp_path, MINIMAL), "--ticks", "0"])
    assert rc == 0 and capsys.readouterr().out == ""


def test_run_trace_file(tmp_path, capsys):
    trace = tmp_path / "out.trace"
    rc = main(["run", "--scenario", write(tmp_path, MINIMAL),
               "--ticks", "6", "--trace", str(trace)])
    assert rc == 0
    assert capsys.readouterr().out == ""
    assert "ev=BROADCAST" in trace.read_text()


def test_run_streams_the_rendered_trace(tmp_path, capsys):
    """stdout and --trace FILE both hold exactly render_trace()."""
    s = parse_scenario(EVENTFUL_SCENARIO)
    net = build_network(s)
    net.run(s.params["ticks"])
    want = net.render_trace().encode()
    path = write(tmp_path, EVENTFUL_SCENARIO)
    assert main(["run", "--scenario", path]) == 0
    assert capsys.readouterr().out.encode() == want
    trace = tmp_path / "out.trace"
    assert main(["run", "--scenario", path, "--trace", str(trace)]) == 0
    assert capsys.readouterr().out == ""
    assert trace.read_bytes() == want


def test_parse_error_exit_two(tmp_path, capsys):
    rc = main(["run", "--scenario", write(tmp_path, "node a\nlink a b 1\n")])
    err = capsys.readouterr().err
    assert rc == 2
    assert "error: line 2: undeclared node 'b'" in err
    rc = main(["run", "--scenario", write(tmp_path, MINIMAL), "--ticks", "-3"])
    assert rc == 2
    assert "error: --ticks must be >= 0, got -3" in capsys.readouterr().err


def test_config_error_exit_two(tmp_path, capsys):
    text = MINIMAL + "param lb 2\nparam delta_b 1\nparam hp_maxjitter 2\n"
    rc = main(["run", "--scenario", write(tmp_path, text)])
    err = capsys.readouterr().err
    assert rc == 2
    assert "constraint violated: LB + ΔB < hp_maxjitter" in err


def test_missing_scenario_file_exit_two(tmp_path, capsys):
    rc = main(["run", "--scenario", str(tmp_path / "nope.txt")])
    assert rc == 2
    assert "cannot read scenario" in capsys.readouterr().err


def test_check_converges_on_minimal(tmp_path, capsys):
    rc = main(["check", "--scenario", write(tmp_path, MINIMAL)])
    cap = capsys.readouterr()
    assert rc == 0
    assert "# converged t=" in cap.err
    assert "OPT n=a verdict=true" in cap.out
    assert "OPT n=b verdict=true" in cap.out


def test_check_nonconvergence_exit_three(tmp_path, capsys):
    rc = main(["check", "--scenario", write(tmp_path, MINIMAL),
               "--ticks", "10", "--window", "50"])
    cap = capsys.readouterr()
    assert rc == 3
    assert "no convergence within 10 ticks (window 50)" in cap.err


def test_check_refuses_metric_noise(tmp_path, capsys):
    # noisy measured routes against noiseless ground truth would read as
    # suboptimal (subopt={(b,3,2)} here), so check refuses the scenario
    path = write(tmp_path, MINIMAL.replace("1 bidi 1", "2 bidi 2")
                 + "param metric_noise 3\n")
    rc = main(["check", "--scenario", path])
    cap = capsys.readouterr()
    assert rc == 2 and cap.out == ""
    assert "cannot judge a run with metric_noise 3" in cap.err


@pytest.mark.parametrize("window", ["-5", "0"])
def test_window_below_one_exit_two(tmp_path, capsys, window):
    # a window under one tick declares convergence at the first route
    # change and judges routes that are still settling
    for argv in (["check", "--scenario", write(tmp_path, MINIMAL)],
                 ["demo", "fig3"]):
        rc = main(argv + ["--window", window])
        cap = capsys.readouterr()
        assert rc == 2 and cap.out == ""
        assert f"error: --window must be >= 1, got {window}" in cap.err


@pytest.mark.parametrize("command,budget", [("run", 6), ("check", 400)])
def test_events_past_the_budget_warn(tmp_path, capsys, command, budget):
    # the last tick run is budget - 1, so an event at the budget or later
    # is never applied: it is named on stderr, and stdout and the exit
    # code are those of the scenario without it
    early = MINIMAL + f"at {budget - 1} metric a b 2\n"
    late = early + (f"at {budget} linkdown a b\n"
                    f"at {budget + 3} linkup b a 4\n")
    argv = [command, "--ticks", str(budget), "--scenario"]
    rc_early = main(argv + [write(tmp_path, early, "early.txt")])
    cap_early = capsys.readouterr()
    rc_late = main(argv + [write(tmp_path, late, "late.txt")])
    cap_late = capsys.readouterr()
    assert (rc_late, cap_late.out) == (rc_early, cap_early.out)
    assert "warning" not in cap_early.err
    warnings = [line for line in cap_late.err.splitlines()
                if line.startswith("warning:")]
    assert warnings == [
        f"warning: event at t={budget} (linkdown a b) is at or after the"
        f" tick budget {budget} and is never applied",
        f"warning: event at t={budget + 3} (linkup b a) is at or after the"
        f" tick budget {budget} and is never applied"]


def test_check_fig3_verdicts(tmp_path, capsys):
    path = write(tmp_path, FIG3_SCENARIO)
    assert main(["check", "--scenario", path]) == 0
    capsys.readouterr()
    rc = main(["check", "--scenario", path, "--bug-rfc7181"])
    out = capsys.readouterr().out
    assert rc == 1
    assert "OPT n=S verdict=false" in out
    assert "(D,7,6)" in out


def test_no_arguments_usage_error():
    with pytest.raises(SystemExit) as e:
        main([])
    assert e.value.code == 2


def test_demo_fig1_counts(capsys):
    assert main(["demo", "fig1"]) == 0
    out = capsys.readouterr().out
    assert "broadcasts carrying the TC: 3 (expected 3)" in out
    assert "delivered to 9/9 nodes" in out
    assert main(["demo", "fig1", "--flood-all"]) == 0
    out = capsys.readouterr().out
    assert "broadcasts carrying the TC: 9 (expected 9)" in out


def test_demo_fig2_panels(capsys):
    assert main(["demo", "fig2"]) == 0
    out = capsys.readouterr().out
    assert out.count("[ok]") == 4 and "[FAIL]" not in out


def test_demo_fig3_modes(capsys):
    assert main(["demo", "fig3"]) == 0
    out = capsys.readouterr().out
    assert "corrected" in out and "rfc7181" in out
    assert main(["demo", "fig3", "--bug-rfc7181"]) == 1


def test_python_m_smoke(tmp_path):
    """`python -m olsrv2sim` runs the same command line as main()."""
    env = {**os.environ,
           "PYTHONPATH": str(Path(olsrv2sim.__file__).resolve().parents[1])}
    p = tmp_path / "s.txt"
    p.write_text(MINIMAL)
    r = subprocess.run([sys.executable, "-m", "olsrv2sim", "run",
                        "--scenario", str(p), "--ticks", "5"],
                       capture_output=True, text=True, env=env)
    assert r.returncode == 0 and "ev=BROADCAST" in r.stdout
    r = subprocess.run([sys.executable, "-m", "olsrv2sim"],
                       capture_output=True, text=True, env=env)
    assert r.returncode == 2


def test_console_script_smoke(tmp_path):
    """The installed entry point behaves like main()."""
    p = tmp_path / "s.txt"
    p.write_text(MINIMAL)
    r = subprocess.run(["olsrv2-sim", "run", "--scenario", str(p),
                        "--ticks", "5"], capture_output=True, text=True)
    assert r.returncode == 0 and "ev=BROADCAST" in r.stdout
    r = subprocess.run(["olsrv2-sim"], capture_output=True, text=True)
    assert r.returncode == 2
