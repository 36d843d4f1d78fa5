import argparse
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import ghkit
from ghkit import capgraph, cli
from ghkit.cli import main
from ghkit.dot import embedding_dot, tree_dot
from ghkit.generators import gen_onesum, gen_outerplanar
from ghkit.ghtree import build_gh_tree
from ghkit.graph import GraphError
from ghkit.io import format_instance, parse_instance
from ghkit.minors import detect_terminal_minor, k23
from ghkit.multiflow import MultiflowInstance, feasible, flow_cut_gap, max_concurrent_flow
from ghkit.suite import SuiteResult

from conftest import unit_k23


@pytest.fixture
def k23_file(tmp_path):
    p = tmp_path / "k23.txt"
    p.write_text(format_instance(unit_k23()))
    return str(p)


def test_ghtree_output(k23_file, capsys):
    assert main(["ghtree", k23_file]) == 0
    out = capsys.readouterr().out.splitlines()
    edge_lines = [ln for ln in out if ":" not in ln]
    bag_lines = [ln for ln in out if ":" in ln]
    assert len(edge_lines) == 4 and len(bag_lines) == 5
    caps = sorted(ln.split()[2] for ln in edge_lines)
    assert caps == ["2", "2", "2", "3"]


def test_verify_embed_exit_codes(k23_file):
    assert main(["verify-embed", k23_file, "--mode", "subgraph"]) == 1
    assert main(["verify-embed", k23_file, "--mode", "bag"]) == 1
    assert main(["verify-embed", k23_file, "--mode", "weak"]) == 1


def test_detect_minor_exit_codes(k23_file, tmp_path, capsys):
    assert main(["detect-minor", k23_file, "--pattern", "k23"]) == 0
    assert main(["detect-minor", k23_file, "--pattern", "k4"]) == 1
    assert main(["detect-minor", k23_file, "--pattern", "bogus"]) == 3
    assert main(["detect-minor", k23_file, "--pattern", "k23", "--bound-n", "2"]) == 2
    capsys.readouterr()


def test_detect_minor_cycle_longer_than_terminals(k23_file, monkeypatch, capsys):
    assert main(["detect-minor", k23_file, "--pattern", "cycle:4"]) == 0
    assert main(["detect-minor", k23_file, "--pattern", "cycle:2"]) == 3
    capsys.readouterr()

    def refuse(k):
        raise AssertionError(f"cycle({k}) built for a 5-terminal instance")

    monkeypatch.setattr("ghkit.cli.cycle", refuse)
    assert main(["detect-minor", k23_file, "--pattern", "cycle:6"]) == 1
    assert main(["detect-minor", k23_file, "--pattern", f"cycle:{10**12}"]) == 1
    assert capsys.readouterr().out == "none\nnone\n"


def test_usage_errors(tmp_path):
    assert main(["ghtree", str(tmp_path / "missing.txt")]) == 3
    assert main(["no-such-command"]) == 3
    bad = tmp_path / "bad.txt"
    bad.write_text("gibberish\n")
    assert main(["ghtree", str(bad)]) == 3


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["gen", "onesum", "--blocks", ",4"], "--blocks"),
        (["gen", "zweb", "--attach", "2,x"], "--attach"),
        (["detect-minor", "{f}", "--pattern", "cycle:x"], "--pattern"),
        (["detect-minor", "{f}", "--pattern", "k23", "--bound-n", "-1"], "--bound-n"),
    ],
    ids=["blocks", "attach", "pattern", "bound-n"],
)
def test_malformed_flag_values_name_the_flag(k23_file, capsys, argv, flag):
    assert main([a.format(f=k23_file) for a in argv]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: ghkit {argv[0]}")
    assert f"argument {flag}: expected " in captured.err


@pytest.mark.parametrize(
    "text",
    ["3 2 0\n0 1 1\n", "2 1 0\n0 1 1/0\n", "2 1 0\n0 1 1\nD 0 1\n"],
    ids=["truncated-edges", "zero-denominator", "demand-without-value"],
)
def test_malformed_input_exits_3(tmp_path, capsys, text):
    bad = tmp_path / "bad.txt"
    bad.write_text(text)
    assert main(["ghtree", str(bad)]) == 3
    assert capsys.readouterr().err.startswith("error: line ")


def test_gen_and_flowcheck_pipeline(k23_file, tmp_path, capsys):
    adv = tmp_path / "adv.txt"
    assert main(["gen", "adversarial", "--input", k23_file, "--out", str(adv)]) == 0
    assert main(["flowcheck", str(adv)]) == 0
    out = capsys.readouterr().out
    assert "max_concurrent_flow: 3/4" in out
    assert "flow_cut_gap: 4/3" in out
    assert "cut_condition: holds" in out
    assert "feasible: no" in out


def test_flowcheck_reports_violated_star(tmp_path, capsys):
    star = tmp_path / "star.txt"
    star.write_text("4 3 4\n0 1 2 3\n0 1 9\n0 2 9\n0 3 9\nD 0 1 10\nD 0 2 10\nD 0 3 10\n")
    assert main(["flowcheck", str(star)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert "cut_condition: violated" in out
    assert "max_concurrent_flow: 9/10" in out
    assert any(ln.startswith("violated_shore: ") for ln in out)


def test_flowcheck_and_feasible_report_one_violated_cut_on_a_19_vertex_path(tmp_path, capsys):
    """Both enumerate cuts up to one bound, so on 19 vertices ``feasible``
    returns the violated cut that ``flowcheck`` prints."""
    demands = ((0, 18, Fraction(2)),)
    g = capgraph(19, [(i, i + 1, 1) for i in range(18)], (0, 18))
    cert = feasible(MultiflowInstance(g, demands))
    assert not cert.feasible and not cert.violated_cut.holds
    path = tmp_path / "path.txt"
    path.write_text(format_instance(g, demands=demands))
    assert main(["flowcheck", str(path)]) == 0
    shore = " ".join(str(v) for v in sorted(cert.violated_cut.shore))
    assert f"violated_shore: {shore}" in capsys.readouterr().out.splitlines()


def test_python_dash_m_runs_flowcheck(tmp_path):
    star = tmp_path / "star.txt"
    star.write_text("4 3 4\n0 1 2 3\n0 1 9\n0 2 9\n0 3 9\nD 0 1 10\nD 0 2 10\nD 0 3 10\n")
    src = str(Path(ghkit.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "ghkit", "flowcheck", str(star)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "max_concurrent_flow: 9/10" in proc.stdout.splitlines()


def test_gen_zweb_and_reduce(tmp_path, capsys):
    web = tmp_path / "web.txt"
    assert main(["gen", "zweb", "--k", "5", "--interior", "1", "--attach", "2",
                 "--seed", "9", "--out", str(web)]) == 0
    assert main(["reduce", str(web)]) == 0
    capsys.readouterr()
    # deterministic: same seed gives identical output
    web2 = tmp_path / "web2.txt"
    assert main(["gen", "zweb", "--k", "5", "--interior", "1", "--attach", "2",
                 "--seed", "9", "--out", str(web2)]) == 0
    assert web.read_text() == web2.read_text()


def test_dot_output(k23_file, capsys):
    assert main(["dot", k23_file]) == 0
    out = capsys.readouterr().out
    assert out.startswith("graph G {") and out.rstrip().endswith("}")
    assert main(["ghtree", k23_file, "--format", "dot"]) == 0
    tree_out = capsys.readouterr().out
    assert "cluster" in tree_out
    assert tree_out == tree_dot(build_gh_tree(unit_k23()))


@pytest.mark.parametrize(
    "argv",
    [
        ["flowcheck", "{f}", "--format", "dot", "--out", "{o}"],
        ["suite", "--suites", "gh-oracle", "--trials", "1", "--out", "{o}"],
        ["reduce", "{f}", "--seed", "1", "--out", "{o}"],
        ["ghtree", "{f}", "--bound-n", "3", "--out", "{o}"],
        ["dot", "{f}", "--tree", "--out", "{o}"],
        ["verify-embed", "{f}", "--mode", "bag", "--dot"],
        ["--format", "dot", "ghtree", "{f}", "--out", "{o}"],
        ["gen", "outerplanar", "--k", "7", "--out", "{o}"],
        ["gen", "adversarial", "--input", "{f}", "--seed", "2", "--out", "{o}"],
    ],
    ids=lambda argv: " ".join(a for a in argv if not a.startswith("{")),
)
def test_flags_the_subcommand_does_not_read_are_usage_errors(k23_file, tmp_path, capsys, argv):
    out = tmp_path / "out.txt"
    assert main([a.format(f=k23_file, o=out) for a in argv]) == 3
    assert not out.exists()
    assert capsys.readouterr().out == ""


def test_suite_command(capsys):
    assert main(["suite", "--suites", "gh-oracle", "--trials", "2", "--seed", "5"]) == 0
    out = capsys.readouterr().out
    assert "gh-oracle: pass (2/2)" in out


def test_suite_defaults_run_every_suite_on_seed_1(capsys):
    """Without --suites and --seed, every suite of ``SUITES`` runs, in
    order, on seed 1."""
    assert main(["suite", "--trials", "1"]) == 0
    assert capsys.readouterr().out == (
        "gh-oracle: pass (1/1)\n"
        "gh-subtrees: pass (2/2)\n"
        "bag-minors: pass (2/2)\n"
        "minors: pass (2/2)\n"
        "reduction: pass (1/1)\n"
        "flows: pass (1/1)\n"
    )


def test_suite_rejects_nonpositive_trials(capsys):
    assert main(["suite", "--suites", "gh-oracle", "--trials", "-1"]) == 3
    assert main(["suite", "--suites", "gh-oracle", "--trials", "0"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: trials must be at least 1")


def test_gen_zweb_rejects_negative_interior(tmp_path, capsys):
    out = tmp_path / "web.txt"
    assert main(["gen", "zweb", "--interior", "-1", "--out", str(out)]) == 3
    assert capsys.readouterr().err.startswith("error: interior vertex count")
    assert not out.exists()


def test_gen_adversarial_without_input_is_a_usage_error():
    src = str(Path(ghkit.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "ghkit", "gen", "adversarial"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 3, proc.stderr
    assert proc.stderr.startswith("error: ")
    assert "Traceback" not in proc.stderr + proc.stdout


def test_gen_adversarial_above_bound_is_inconclusive(k23_file):
    src = str(Path(ghkit.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "ghkit", "gen", "adversarial", "--input", k23_file, "--bound-n", "2"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout.startswith("inconclusive: ")
    assert "Traceback" not in proc.stderr + proc.stdout


PATH_0_TO_4 = "5 4 1\n0\n0 1 1\n1 2 1\n2 3 1\n3 4 1\n"


@pytest.mark.parametrize(
    "trailer",
    ["F: 0 1 2 : 99", "F: 0 1 9 : 3", "F: 0 1 2 : -1", "F: 0 0 2 : 3", "F: 0 1 2 : 3",
     "D 3 1 1\nF: 0 1 2 : 3 4"],
    ids=["interior-out-of-range", "attachment-out-of-range", "negative-vertex",
         "repeated-attachment", "edge-leaves-the-set", "demand-in-interior"],
)
def test_reduce_rejects_a_bad_declaration(tmp_path, trailer):
    bad = tmp_path / "bad.txt"
    bad.write_text(PATH_0_TO_4 + trailer + "\n")
    src = str(Path(ghkit.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "ghkit", "reduce", str(bad)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 3, proc.stderr
    assert proc.stderr.startswith("error: ") and proc.stdout == ""
    assert "Traceback" not in proc.stderr


TRIANGLE_WITH_APEX = "4 6 3\n0 1 2\n0 1 1\n1 2 1\n0 2 1\n0 3 1\n1 3 1\n2 3 1\n"


@pytest.mark.parametrize(
    "text, message",
    [
        ("2 1 2\n0 1\n0 1 1\nD 0 1 -1\n", "demand values must be positive"),
        ("2 1 2\n0 1\n0 1 1\nD 0 1 0\n", "demand values must be positive"),
        ("2 1 1\n0\n0 1 1\nD 0 1 1\n", "demand endpoint 0-1 is not a terminal"),
        (TRIANGLE_WITH_APEX + "D 0 3 1\nF: 0 1 2 : 3\n", "demand endpoint 0-3 is not a terminal"),
        (TRIANGLE_WITH_APEX + "D 0 9 1\nF: 0 1 2 : 3\n", "demand endpoint 0-9 is not a terminal"),
        ("2 1 2\n0 1\n0 1 1\nD 0 0 5\n", "demand 0-0 has both ends at one vertex"),
    ],
    ids=["negative", "zero", "non-terminal", "interior-endpoint", "out-of-range-endpoint", "one-vertex"],
)
def test_reduce_rejects_the_demands_flowcheck_rejects(tmp_path, capsys, text, message):
    bad = tmp_path / "bad.txt"
    bad.write_text(text)
    out = tmp_path / "out.txt"
    for command in ("reduce", "flowcheck"):
        assert main([command, str(bad), "--out", str(out)]) == 3
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n" and captured.out == ""
    assert not out.exists()


def test_consecutive_calls_keep_no_options(k23_file, tmp_path, monkeypatch, capsys):
    out = tmp_path / "tree.txt"
    assert main(["ghtree", k23_file, "--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    # --bound-n 2 makes this search inconclusive; the next call is back at the default
    assert main(["detect-minor", k23_file, "--pattern", "k23", "--bound-n", "2"]) == 2
    assert main(["detect-minor", k23_file, "--pattern", "k23"]) == 0
    assert capsys.readouterr().out.splitlines()[-1].startswith("4: ")
    # no --out: the tree goes to stdout, not to the first call's file
    assert main(["ghtree", k23_file]) == 0
    assert capsys.readouterr().out == out.read_text()
    # the command is looked up at call time, so a wrapper on the module is reached
    monkeypatch.setattr("ghkit.cli.cmd_ghtree", lambda args: (7, ""))
    assert main(["ghtree", k23_file]) == 7


def test_flowcheck_with_demands_joined_by_infinite_edges(tmp_path):
    inst = tmp_path / "inf.txt"
    inst.write_text("2 1 2\n0 1\n0 1 inf\nD 0 1 5\n")
    src = str(Path(ghkit.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "ghkit", "flowcheck", str(inst)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "cut_condition: holds", "max_concurrent_flow: inf", "feasible: yes",
    ]
    assert proc.stderr == ""


@pytest.mark.parametrize(
    "text, argv, code, message",
    [
        ("4 2 0\n\n0 1 1\n2 3 1\n", ["ghtree", "{f}"], 3, "error: graph must be connected"),
        ("3 2 0\n\n0 1 1\n1 5 1\n", ["ghtree", "{f}"], 3, "error: edge 1-5 out of range"),
        ("3 2 0\n\n0 1 1\n1 2 0\n", ["ghtree", "{f}"], 3, "error: non-positive capacity on edge 1-2"),
        ("", ["gen", "outerplanar", "--n", "2"], 3, "error: need n >= 3"),
        ("", ["gen", "zweb", "--attach", "5"], 3, "error: attachment clique sizes must be in 1..4"),
        ("", ["gen", "zweb", "--k", "3", "--attach", "1,1"], 3, "error: more attachments than inner faces"),
        ("", ["suite", "--suites", "bogus", "--trials", "1"], 3, "error: unknown suite 'bogus'"),
        ("4 3 0\n\n0 1 1\n1 2 1\n2 3 1\n", ["gen", "adversarial", "--input", "{f}"], 1,
         "no terminal-K2,3 minor; nothing to build"),
        ("2 1 2\n0 1\n0 1 1\n", ["flowcheck", "{f}"], 3, "error: no demands in input"),
        ("2 1 1\n0\n0 1 1\n", ["ghtree", "{f}"], 3, "error: need at least two terminals"),
    ],
    ids=["disconnected", "edge-out-of-range", "zero-capacity", "outerplanar-n-2", "clique-of-5",
         "more-cliques-than-faces", "unknown-suite", "adversarial-without-k23", "flowcheck-without-demands",
         "ghtree-one-terminal"],
)
def test_bad_inputs_exit_with_one_message_and_no_output(tmp_path, capsys, text, argv, code, message):
    f = tmp_path / "in.txt"
    f.write_text(text)
    assert main([a.format(f=f) for a in argv]) == code
    assert capsys.readouterr() == ("", message + "\n")


# every demand pair joined by infinite edges: lambda* is infinite
INFINITE_PATH = "3 2 3\n0 1 2\n0 1 inf\n1 2 inf\nD 0 2 1\n"
# a demand between two components: lambda* is 0
TWO_COMPONENTS = "4 2 4\n0 1 2 3\n0 1 1\n2 3 1\nD 0 2 1\n"


def test_an_infinite_concurrent_flow_is_reported_and_raised(tmp_path, capsys):
    f = tmp_path / "inf.txt"
    f.write_text(INFINITE_PATH)
    assert main(["flowcheck", str(f)]) == 0
    assert capsys.readouterr() == ("cut_condition: holds\nmax_concurrent_flow: inf\nfeasible: yes\n", "")
    parsed = parse_instance(INFINITE_PATH)
    inst = MultiflowInstance(parsed.graph, parsed.demands)
    for fn in (max_concurrent_flow, flow_cut_gap):
        with pytest.raises(GraphError, match="unbounded"):
            fn(inst)


def test_a_zero_concurrent_flow_is_reported_and_raised(tmp_path, capsys):
    f = tmp_path / "zero.txt"
    f.write_text(TWO_COMPONENTS)
    assert main(["flowcheck", str(f)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out == ["cut_condition: violated", "max_concurrent_flow: 0", "feasible: no", "violated_shore: 0 1"]
    parsed = parse_instance(TWO_COMPONENTS)
    with pytest.raises(GraphError, match="zero concurrent flow"):
        flow_cut_gap(MultiflowInstance(parsed.graph, parsed.demands))


@pytest.mark.parametrize(
    "argv, graph",
    [
        (["gen", "outerplanar", "--n", "7", "--seed", "4"], lambda: gen_outerplanar(7, 4)),
        (["gen", "onesum", "--blocks", "5,k4", "--seed", "4"],
         lambda: gen_onesum([("outerplanar", 5), ("k4",)], 4)),
    ],
    ids=lambda x: " ".join(x[:2]) if isinstance(x, list) else "",
)
def test_gen_writes_the_generated_graph(tmp_path, argv, graph):
    out = tmp_path / "g.txt"
    assert main(argv + ["--out", str(out)]) == 0
    assert out.read_text() == format_instance(graph())


def test_detect_minor_dot_draws_the_found_model(k23_file, capsys):
    assert main(["detect-minor", k23_file, "--pattern", "k23", "--format", "dot"]) == 0
    emb = detect_terminal_minor(unit_k23(), tuple(range(5)), k23())
    out = capsys.readouterr().out
    assert out == embedding_dot(unit_k23(), emb.branch_sets)
    assert out.count("subgraph cluster_b") == 5


def test_embedding_dot_draws_vertices_in_no_branch_set_dotted():
    out = embedding_dot(unit_k23(), (frozenset({0, 2}), frozenset({1})))
    lines = out.splitlines()
    assert [ln for ln in lines if "dotted" in ln] == ["  3 [style=dotted];", "  4 [style=dotted];"]


def test_ghtree_dot_lists_the_non_terminals_of_each_bag(tmp_path, capsys):
    g = unit_k23(terminals=(0, 1, 2, 3))
    path = tmp_path / "g.txt"
    path.write_text(format_instance(g))
    assert main(["ghtree", str(path), "--format", "dot"]) == 0
    out = capsys.readouterr().out
    assert out == tree_dot(build_gh_tree(g))
    assert "    4;" in out.splitlines()  # the one non-terminal, inside a cluster


def test_verify_embed_weak_prints_the_deleted_vertices(tmp_path, capsys):
    # The GH tree over 4, 1, 2, 0 is a star whose centre's bag {2, 5} is
    # disconnected; deleting 5 leaves a bag minor.
    caps = {(0, 1): "2/3", (0, 2): "3/4", (0, 3): "9/2", (0, 5): "11/8", (1, 2): "8",
            (1, 5): "11/4", (2, 4): "15/2", (3, 4): "1/3", (4, 5): "17/7"}
    g = capgraph(6, [(u, v, Fraction(c)) for (u, v), c in caps.items()], (4, 1, 2, 0))
    path = tmp_path / "g.txt"
    path.write_text(format_instance(g))
    assert main(["verify-embed", str(path), "--mode", "bag"]) == 1
    assert main(["verify-embed", str(path), "--mode", "weak"]) == 0
    assert capsys.readouterr().out == "no\ndeleted: 5\nyes\n"


def test_suite_prints_each_counterexample(monkeypatch, capsys):
    def planted(seed, trials):
        res = SuiteResult("gh-oracle", trials, 0)
        res.record(False, f"planted failure (seed {seed})", unit_k23())
        return res

    monkeypatch.setitem(ghkit.suite.SUITES, "gh-oracle", planted)
    assert main(["suite", "--suites", "gh-oracle", "--trials", "1", "--seed", "3"]) == 1
    instance = "".join(f"    {ln}\n" for ln in format_instance(unit_k23()).splitlines())
    assert capsys.readouterr().out == (
        "gh-oracle: FAIL (0/1)\n  counterexample: planted failure (seed 3)\n" + instance
    )


def test_reduce_without_declared_sets_echoes_its_input(tmp_path, capsys):
    text = format_instance(unit_k23(), demands=((0, 1, Fraction(1)), (2, 3, Fraction(1, 2))))
    path = tmp_path / "g.txt"
    path.write_text(text)
    assert main(["reduce", str(path)]) == 0
    assert capsys.readouterr().out == text


STAR_DEMANDS = "4 3 4\n0 1 2 3\n0 1 9\n0 2 9\n0 3 9\nD 0 1 10\nD 0 2 10\nD 0 3 10\n"


@pytest.mark.parametrize(
    "argv, code",
    [
        (["ghtree", "{k23}"], 0),
        (["ghtree", "{k23}", "--format", "dot"], 0),
        (["detect-minor", "{k23}", "--pattern", "k23"], 0),
        (["detect-minor", "{k23}", "--pattern", "k23", "--format", "dot"], 0),
        (["detect-minor", "{k23}", "--pattern", "k4"], 1),
        (["gen", "outerplanar", "--n", "6"], 0),
        (["gen", "onesum", "--blocks", "4,k4"], 0),
        (["gen", "zweb", "--k", "5", "--interior", "1", "--attach", "2"], 0),
        (["gen", "adversarial", "--input", "{k23}"], 0),
        (["reduce", "{star}"], 0),
        (["flowcheck", "{star}"], 0),
        (["dot", "{k23}"], 0),
    ],
    ids=lambda x: " ".join(a for a in x if not a.startswith("{")) if isinstance(x, list) else "",
)
def test_out_gets_exactly_what_stdout_would_get(k23_file, tmp_path, capsys, argv, code):
    star = tmp_path / "star.txt"
    star.write_text(STAR_DEMANDS)
    argv = [a.format(k23=k23_file, star=star) for a in argv]
    assert main(argv) == code
    stdout = capsys.readouterr().out
    assert stdout
    out = tmp_path / "out.txt"
    assert main(argv + ["--out", str(out)]) == code
    assert capsys.readouterr() == ("", "")
    assert out.read_bytes() == stdout.encode()


@pytest.mark.parametrize(
    "text, argv, code, stdout, stderr",
    [
        ("4 3 0\n\n0 1 1\n1 2 1\n2 3 1\n", ["gen", "adversarial", "--input", "{f}", "--out", "{o}"], 1,
         "", "no terminal-K2,3 minor; nothing to build\n"),
        (None, ["gen", "adversarial", "--input", "{f}", "--bound-n", "2", "--out", "{o}"], 2,
         "inconclusive: ", ""),
        (None, ["ghtree", "{f}", "--out", "{o}/tree.txt"], 3, "", "error: "),
    ],
    ids=["no-minor", "inconclusive", "missing-directory"],
)
def test_no_file_is_written_without_an_answer(tmp_path, capsys, text, argv, code, stdout, stderr):
    f = tmp_path / "in.txt"
    f.write_text(format_instance(unit_k23()) if text is None else text)
    out = tmp_path / "missing"
    assert main([a.format(f=f, o=out) for a in argv]) == code
    captured = capsys.readouterr()
    assert captured.out.startswith(stdout) and captured.out.count("\n") == (stdout != "")
    assert captured.err.startswith(stderr) and captured.err.count("\n") == (stderr != "")
    assert not out.exists()


def test_every_subcommand_has_one_cmd_function():
    """``main`` looks up ``cmd_<subcommand>``: a subcommand without one
    would escape as a KeyError."""
    parser = cli.build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    commands = {"cmd_" + name.replace("-", "_") for name in sub.choices}
    assert commands == {name for name in vars(cli) if name.startswith("cmd_")}
