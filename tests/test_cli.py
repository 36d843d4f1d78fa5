import pytest

from ghkit.cli import main
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
    assert main(["dot", k23_file, "--tree"]) == 0
    tree_out = capsys.readouterr().out
    assert "cluster" in tree_out
    assert main(["--format", "dot", "ghtree", k23_file]) == 0
    assert capsys.readouterr().out == tree_out


def test_suite_command(capsys):
    assert main(["suite", "--suites", "gh-oracle", "--trials", "2", "--seed", "5"]) == 0
    out = capsys.readouterr().out
    assert "gh-oracle: pass (2/2)" in out
