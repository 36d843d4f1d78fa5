import os
import subprocess
import sys
from pathlib import Path

import pytest

import ghkit
from ghkit.cli import main
from ghkit.dot import tree_dot
from ghkit.ghtree import build_gh_tree
from ghkit.io import dump

from conftest import unit_k23, unit_k33


@pytest.fixture
def k23_file(tmp_path):
    p = tmp_path / "k23.txt"
    dump(p, unit_k23())
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
    monkeypatch.setattr("ghkit.cli.cmd_ghtree", lambda args: 7)
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
