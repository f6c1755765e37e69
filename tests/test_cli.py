"""Scenario grammar, render/parse round-trips, and command exit codes."""
import contextlib
import io
import os
import random
import subprocess
import sys
from argparse import Namespace
from pathlib import Path

import pytest
from hypothesis import Phase, assume, given, settings
from hypothesis import strategies as st

import olsrv2sim
from olsrv2sim.checkers import FIG3_SCENARIO
from olsrv2sim.cli import (Scenario, _apply_cli_overrides, main,
                           parse_scenario, render_scenario)
from olsrv2sim.simnet import (FLAG_NAMES, NETWORK_PARAMS, PARAM_NAMES,
                              Network, ScenarioError, TopologyEvent,
                              build_network)

import oracles
from oracles import render_trace_event
from test_acceptance import EVENTFUL_SCENARIO
from test_engine import churn_events

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
    ("node a\nat 3 linkup a a 1\n", 2, "self-loop link on a"),
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
    # network-wide params have no per-node form
    ("node a\nparam a.lb 50\n", 2, "param lb is network-wide"),
    ("node a\nparam a.delta_b 1\n", 2, "param delta_b is network-wide"),
    ("node a\nparam a.seed 9\n", 2, "param seed is network-wide"),
    ("node a\nparam a.ticks 7\n", 2, "param ticks is network-wide"),
    ("node a\nnode b\nparam b.metric_noise 3\n", 3,
     "param metric_noise is network-wide"),
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
        p = draw(st.sampled_from(sorted(PARAM_NAMES - NETWORK_PARAMS)))
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


def break_one_rule(s, rule, u, v):
    """A copy of s, whose nodes include u != v, that breaks rule, and
    the words that name the break."""
    links, events = list(s.links), list(s.events)
    params, flags, offsets = dict(s.params), dict(s.flags), dict(s.offsets)
    nodes = s.nodes
    if rule in ("link metric 0", "link metric None"):
        m = 0 if rule.endswith("0") else None
        if links:
            links[0] = (*links[0][:2], m)
        else:
            links.append((u, v, m))
        said = f"got {m}"
    elif rule in ("event metric 0", "event metric None"):
        m = 0 if rule.endswith("0") else None
        events.append(TopologyEvent(5, "metric", u, v, m))
        said = f"got {m}"
    elif rule == "unknown param":
        params["hello_intervall"] = 10
        said = "unknown param 'hello_intervall'"
    elif rule == "unknown flag":
        flags["flood_al"] = True
        said = "unknown flag 'flood_al'"
    elif rule == "per-node network param":
        params[f"{u}.seed"] = 1
        said = "param seed is network-wide"
    elif rule == "bad node id":
        nodes += ("a!",)
        said = "bad node id 'a!'"
    elif rule == "negative event tick":
        events.append(TopologyEvent(-1, "linkdown", u, v))
        said = "event tick must be >= 0, got -1"
    elif rule == "duplicate link":
        links += links[:1] or [(u, v, 1), (u, v, 2)]
        said = "duplicate link"
    else:  # an undeclared node in a link, event, param or offset
        where = rule.rsplit(" ", 1)[1]
        if where == "link":
            links.append(("zz", u, 1))
        elif where == "event":
            events.append(TopologyEvent(5, "linkdown", u, "zz"))
        elif where == "param":
            params["zz.tc_interval"] = 30
        else:
            offsets["zz"] = (0, 0)
        said = "undeclared node 'zz'"
    return Scenario(nodes=nodes, params=params, links=tuple(links),
                    events=tuple(events), flags=flags,
                    offsets=offsets), said


RULES = ["link metric 0", "link metric None", "event metric 0",
         "event metric None", "unknown param", "unknown flag",
         "per-node network param", "bad node id", "negative event tick",
         "duplicate link", "undeclared node in link",
         "undeclared node in event", "undeclared node in param",
         "undeclared node in offset"]


@settings(max_examples=300, deadline=None)
@given(s=scenarios(), rule=st.sampled_from(RULES), data=st.data())
def test_parser_and_library_reject_alike(s, rule, data):
    """A valid scenario with one rule broken is refused by the parser,
    reading its text, and by build_network, given it, in the same
    words: the parser's message is the library's after "line N: "."""
    assume(len(s.nodes) >= 2)
    u, v = data.draw(st.permutations(s.nodes))[:2]
    broken, said = break_one_rule(s, rule, u, v)
    with pytest.raises(ScenarioError) as parsed:
        parse_scenario(render_scenario(broken))
    with pytest.raises(ScenarioError) as built:
        build_network(broken)
    lineno, message = str(parsed.value).split(": ", 1)
    assert lineno.startswith("line ") and message == str(built.value)
    assert said in message


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


@pytest.mark.parametrize("argv", [
    ["check"], ["demo", "fig1"], ["demo", "fig2"], ["demo", "fig3"],
    ["demo", "fig3", "--bug-rfc7181"],
], ids=" ".join)
def test_check_and_demos_write_the_rendered_trace(tmp_path, monkeypatch,
                                                  argv):
    """check --trace FILE and demo --trace FILE hold exactly
    render_trace() of the network the command judged."""
    built = []

    def recording(scenario):
        built.append(build_network(scenario))
        return built[-1]

    monkeypatch.setattr(olsrv2sim.cli, "build_network", recording)
    if argv == ["check"]:
        argv = argv + ["--scenario", write(tmp_path, EVENTFUL_SCENARIO)]
    trace = tmp_path / "out.trace"
    assert main(argv + ["--trace", str(trace)]) in (0, 1)
    # fig3 builds the corrected network first, then the RFC 7181 one
    net = built[-1] if "--bug-rfc7181" in argv else built[0]
    want = net.render_trace().encode()
    assert want and trace.read_bytes() == want


@pytest.mark.parametrize("mode", [
    {"flood_all": True}, {"bug_rfc7181": True},
    {"process_tc_from_unknown": True}, {"metric_noise": 2},
], ids=lambda mode: "-".join(map(str, next(iter(mode.items())))))
# no shrinking: a smaller seed is no simpler network, and each example
# runs a whole scenario twice
@settings(max_examples=3, deadline=None,
          phases=(Phase.explicit, Phase.reuse, Phase.generate))
@given(seed=st.integers(0, 2**32 - 1))
def test_rendered_trace_is_each_events_line(tmp_path_factory, mode, seed):
    """On random networks with link churn, render_trace() is every
    event's own line in order, and `run` writes exactly that text."""
    rng = random.Random(seed)
    s = oracles.random_connected_scenario(rng, rng.randint(4, 7), seed=seed,
                                          ticks=240)
    s.events = churn_events(rng, [(u, v) for u, v, _ in s.links], 240)
    for name, value in mode.items():
        (s.params if name == "metric_noise" else s.flags)[name] = value
    net = build_network(s)
    net.run(s.params["ticks"])
    text = net.render_trace()
    assert text == "".join(render_trace_event(ev) + "\n" for ev in net.trace)
    path = write(tmp_path_factory.mktemp("oracle"), render_scenario(s))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["run", "--scenario", path]) == 0
    assert out.getvalue().encode() == text.encode()


@pytest.mark.parametrize("argv", [
    ["run", "--scenario", "SCENARIO"], ["check", "--scenario", "SCENARIO"],
    ["demo", "fig1"],
])
def test_unwritable_trace_file_exit_two_before_any_tick(tmp_path, capsys,
                                                        monkeypatch, argv):
    """An unwritable --trace path is refused at once: one error line,
    exit 2, and not a single tick run."""
    ticks = []
    monkeypatch.setattr(Network, "tick", lambda self, *a: ticks.append(1))
    scenario = write(tmp_path, MINIMAL)
    bad = tmp_path / "no" / "such" / "dir" / "x.trace"
    argv = [scenario if a == "SCENARIO" else a for a in argv]
    assert main(argv + ["--trace", str(bad)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and ticks == []
    assert err.startswith(f"error: cannot write trace {bad}: ")
    assert err.count("\n") == 1


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


@pytest.mark.parametrize("param", ["hello_interval", "tc_interval"])
def test_negative_interval_exit_two(tmp_path, capsys, param):
    """Each router's configuration is checked before its offsets are
    drawn from its intervals, an empty range when one is negative."""
    text = MINIMAL + f"param {param} -1\n"
    rc = main(["run", "--scenario", write(tmp_path, text)])
    assert rc == 2
    assert "constraint violated: " in capsys.readouterr().err


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


def test_check_judges_the_network_after_its_events(tmp_path, capsys):
    """EVENTFUL_SCENARIO quiets down by t=34, well before its events
    (the last, a metric change, at t=200): check runs past them, and
    every router's routes are optimal over the final links."""
    rc = main(["check", "--scenario", write(tmp_path, EVENTFUL_SCENARIO)])
    cap = capsys.readouterr()
    assert rc == 0
    tick = int(cap.err.split("# converged t=")[1].split()[0])
    assert tick >= 200
    assert cap.out.count("verdict=true") == 4


def test_check_nonconvergence_exit_three(tmp_path, capsys):
    # the second scenario's links come up at t=390 and no route changes
    # by the budget, but that last event leaves less than a window
    linkless = "node a\nnode b\nat 390 linkup a b 1\nat 390 linkup b a 1\n"
    for text, ticks, window in ((MINIMAL, 10, 50), (linkless, 400, 20)):
        rc = main(["check", "--scenario", write(tmp_path, text),
                   "--ticks", str(ticks), "--window", str(window)])
        cap = capsys.readouterr()
        assert rc == 3 and cap.out == ""
        assert (f"error: no convergence within {ticks} ticks"
                f" (window {window})") in cap.err


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


@pytest.mark.parametrize("argv", [
    ["run", "--scenario", "SCENARIO"], ["demo", "fig1"], ["demo", "fig2"],
])
def test_window_where_nothing_reads_it_exit_two(tmp_path, capsys, argv):
    # only check and demo fig3 run to convergence; elsewhere a window
    # would be ignored silently
    argv = [write(tmp_path, MINIMAL) if a == "SCENARIO" else a for a in argv]
    with pytest.raises(SystemExit) as e:
        main(argv + ["--window", "7"])
    cap = capsys.readouterr()
    assert e.value.code == 2 and cap.out == ""
    assert "unrecognized arguments: --window 7" in cap.err


@pytest.mark.parametrize("command,budget,early_at", [
    pytest.param("run", 6, 5, id="run-6"),
    pytest.param("check", 400, 300, id="check-400"),
    pytest.param("check", 400, 399, id="check-400-no-quiet-window"),
])
def test_events_past_the_budget_warn(tmp_path, capsys, command, budget,
                                     early_at):
    # the last tick run is budget - 1, so an event at the budget or later
    # is never applied: it is named on stderr, and stdout and the exit
    # code are those of the scenario without it. check judges a run
    # from its last applied event, so an early event leaves a window
    # before the budget or is named as the reason check exits 3
    early = MINIMAL + f"at {early_at} metric a b 2\n"
    late = early + (f"at {budget} linkdown a b\n"
                    f"at {budget + 3} linkup a b 4\n")
    argv = [command, "--ticks", str(budget), "--scenario"]
    rc_early = main(argv + [write(tmp_path, early, "early.txt")])
    cap_early = capsys.readouterr()
    rc_late = main(argv + [write(tmp_path, late, "late.txt")])
    cap_late = capsys.readouterr()
    assert (rc_late, cap_late.out) == (rc_early, cap_early.out)
    in_window = command == "check" and early_at == budget - 1
    assert rc_early == (3 if in_window else 0)
    window_warnings = [  # MINIMAL's default window is 32 ticks
        f"warning: event at t={early_at} (metric a b) leaves fewer than 32"
        f" quiet ticks before the tick budget {budget}"] if in_window else []
    assert [line for line in cap_early.err.splitlines()
            if line.startswith("warning:")] == window_warnings
    warnings = [line for line in cap_late.err.splitlines()
                if line.startswith("warning:")]
    assert warnings == window_warnings + [
        f"warning: event at t={budget} (linkdown a b) is at or after the"
        f" tick budget {budget} and is never applied",
        f"warning: event at t={budget + 3} (linkup a b) is at or after the"
        f" tick budget {budget} and is never applied"]


@pytest.mark.parametrize("command", ["run", "check"])
@pytest.mark.parametrize("events,message", [
    ("at 3 linkdown a b\nat 5 linkdown a b\n",
     "linkdown event on absent link a->b at t=5"),
    ("at 3 linkup a b 2\n", "linkup event on present link a->b at t=3"),
    ("at 3 linkdown b a\nat 4 metric b a 2\n",
     "metric event on absent link b->a at t=4"),
    # checked at set-up, so past the tick budget too
    ("at 900 linkup b a 2\n", "linkup event on present link b->a at t=900"),
])
def test_redundant_link_event_exit_two(tmp_path, capsys, command, events,
                                       message):
    rc = main([command, "--ticks", "20", "--scenario",
               write(tmp_path, MINIMAL + events)])
    cap = capsys.readouterr()
    assert rc == 2 and cap.out == ""
    assert cap.err == f"error: {message}\n"


@pytest.mark.parametrize("command", ["run", "check"])
def test_scenario_without_nodes_exit_two(tmp_path, capsys, command):
    # check used to raise ValueError here, taking the maximum window
    # over no router
    rc = main([command, "--scenario", write(tmp_path, "# empty\n")])
    cap = capsys.readouterr()
    assert rc == 2 and cap.out == ""
    assert cap.err == "error: scenario declares no node\n"


WORDS = st.sampled_from(
    ["node", "link", "param", "flag", "at", "offset", "bidi", "hello", "tc",
     "on", "off", "linkup", "linkdown", "metric", "#", "a", "b", "c", "zz",
     "a!", "0", "1", "-1", "2", "7", "40", "999999", "inf", "1.5", "0x10"]
    + sorted(PARAM_NAMES) + sorted(FLAG_NAMES))


@st.composite
def mutated_scenario_texts(draw):
    """A valid scenario's text after a few line and word edits: words
    replaced, lines cut short, deleted, repeated or made up."""
    base = draw(st.sampled_from([MINIMAL, FULL, EVENTFUL_SCENARIO,
                                 FIG3_SCENARIO]))
    lines = base.splitlines()
    for _ in range(draw(st.integers(1, 4))):
        edit = draw(st.sampled_from(["word", "cut", "delete", "repeat",
                                     "insert"]))
        i = draw(st.integers(0, len(lines)))
        words = lines[i].split() if i < len(lines) else []
        if edit == "insert" or not words:
            lines.insert(i, " ".join(draw(st.lists(WORDS, max_size=6))))
        elif edit == "word":
            words[draw(st.integers(0, len(words) - 1))] = draw(WORDS)
            lines[i] = " ".join(words)
        elif edit == "cut":
            lines[i] = " ".join(words[:draw(st.integers(0, len(words)))])
        elif edit == "delete":
            del lines[i]
        else:
            lines.insert(i, lines[i])
    return "\n".join(lines) + "\n"


@settings(max_examples=200, deadline=None)
@given(text=mutated_scenario_texts(), command=st.sampled_from(["run",
                                                               "check"]))
def test_mutated_scenarios_exit_with_a_documented_code(tmp_path_factory,
                                                       text, command):
    """Whatever a scenario file says, run and check exit with 0, 1
    (check: a route is not optimal), 2 (a scenario or configuration
    error) or 3 (no convergence, or a broken engine invariant), and
    raise nothing."""
    path = write(tmp_path_factory.mktemp("mutated"), text)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main([command, "--scenario", path, "--ticks", "60"])
    assert rc in (0, 1, 2, 3), err.getvalue()
    if rc == 2:
        assert err.getvalue().startswith("error: ")


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
    # a checkpoint whose delivery does not land within the budget fails
    # with no tick: in 8 ticks only A's first HELLO reaches B
    assert main(["demo", "fig2", "--ticks", "8"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 5 and lines[1].startswith("  [ok] t=5: after A's")
    assert all(line.startswith("  [FAIL] t=None: after B's")
               for line in lines[2:])


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


def test_reader_closing_early_stops_the_run_quietly(tmp_path):
    """`run | head -c 100`: once the reader closes the pipe, the run
    stops with exit 4 and writes no traceback."""
    env = {**os.environ,
           "PYTHONPATH": str(Path(olsrv2sim.__file__).resolve().parents[1])}
    # about 200 kB of trace, more than a pipe and stdout's buffer hold
    proc = subprocess.Popen(
        [sys.executable, "-m", "olsrv2sim", "run", "--ticks", "400",
         "--scenario", write(tmp_path, EVENTFUL_SCENARIO)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    head = proc.stdout.read(100)
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 4
    assert head.startswith(b"t=0 n=") and err == b""


def test_console_script_smoke(tmp_path):
    """The installed entry point behaves like main()."""
    p = tmp_path / "s.txt"
    p.write_text(MINIMAL)
    r = subprocess.run(["olsrv2-sim", "run", "--scenario", str(p),
                        "--ticks", "5"], capture_output=True, text=True)
    assert r.returncode == 0 and "ev=BROADCAST" in r.stdout
    r = subprocess.run(["olsrv2-sim"], capture_output=True, text=True)
    assert r.returncode == 2
