"""Command-line interface: formats, exit codes, and output contracts."""

import json
import re

import pytest

from weylalt import cli, kostant
from weylalt.altset import from_json as altset_from_json
from weylalt.altset import to_json as altset_to_json
from weylalt.reporting import Report
from weylalt.rootsys import RootSystemSpec, build_root_system


def _run(capsys, *argv):
    code = cli.run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_unknown_command_is_usage_error(capsys):
    code, _, _ = _run(capsys, "frobnicate")
    assert code == 2


def test_bad_weight_is_usage_error(capsys):
    code, out, err = _run(
        capsys, "altset", "--family", "A", "--rank", "3",
        "--lambda", "highest-root", "--mu", "nonsense",
    )
    assert code == 2
    assert "error:" in err
    code, _, err = _run(
        capsys, "altset", "--family", "A", "--rank", "3",
        "--lambda", "highest-root", "--mu", "1,2",
    )
    assert code == 2
    assert "expected 3 coordinates" in err
    code, _, err = _run(
        capsys, "altset", "--family", "A", "--rank", "3",
        "--lambda", "highest-root", "--mu", "neg-root:5:9",
    )
    assert code == 2


def test_partition_weights_are_type_a_only(capsys):
    code, _, err = _run(
        capsys, "mult", "--family", "B", "--rank", "3",
        "--lambda", "partition:2,1", "--mu", "zero",
    )
    assert code == 2
    assert "specific to family A" in err


def test_bad_rank_is_usage_error(capsys):
    code, _, err = _run(
        capsys, "mult", "--family", "D", "--rank", "2",
        "--lambda", "zero", "--mu", "zero",
    )
    assert code == 2


def test_altset_text_output(capsys):
    code, out, _ = _run(
        capsys, "altset", "--family", "A", "--rank", "4",
        "--lambda", "highest-root", "--mu", "neg-root:1:4",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "A_4 alternation set: 11 elements"
    assert lines[1] == "  0  e"
    assert lines[2] == "  1  s1"
    assert lines[-1] == "  3  s2 s3 s2"
    assert len(lines) == 12


def test_bas_text_output(capsys):
    code, out, _ = _run(
        capsys, "bas", "--family", "A", "--rank", "4",
        "--lambda", "highest-root", "--mu", "neg-root:1:4",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "A_4 basic allowable subwords: 7"
    assert lines[-1] == "dependence edges: 18"


def test_qmult_text_output(capsys):
    code, out, _ = _run(
        capsys, "qmult", "--family", "A", "--rank", "3",
        "--lambda", "highest-root", "--mu=-1,0,0",
    )
    assert code == 0
    assert out.strip() == "q^4 + q^3 - q"


def test_mult_json_output(capsys):
    code, out, _ = _run(
        capsys, "mult", "--family", "A", "--rank", "3",
        "--lambda", "highest-root", "--mu", "zero", "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload == {
        "family": "A",
        "rank": 3,
        "lambda": ["1", "1", "1"],
        "mu": ["0", "0", "0"],
        "multiplicity": 3,
    }


def test_qmult_json_coefficients(capsys):
    code, out, _ = _run(
        capsys, "qmult", "--family", "A", "--rank", "3",
        "--lambda", "highest-root", "--mu", "zero", "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["q_multiplicity"] == "q^3 + q^2 + q"
    assert payload["coefficients"] == [0, 1, 1, 1]


def test_altset_json_round_trip(capsys):
    code, out, _ = _run(
        capsys, "altset", "--family", "A", "--rank", "4",
        "--lambda", "highest-root", "--mu", "neg-root:1:4",
        "--format", "json",
    )
    assert code == 0
    rs = build_root_system(RootSystemSpec("A", 4))
    assert altset_to_json(rs, altset_from_json(rs, out)) == out


# The full rank-3 cover diagram, frozen as one-line permutations obtained
# by applying each reduced word left to right as adjacent position swaps.
_FULL_GROUP_COVERS = {
    ("1234", "1243"), ("1234", "1324"), ("1234", "2134"),
    ("1243", "1423"), ("1243", "2143"), ("1324", "1342"),
    ("1324", "3124"), ("2134", "2314"), ("2134", "2143"),
    ("1423", "1432"), ("1423", "4123"), ("1342", "1432"),
    ("1342", "3142"), ("2143", "2413"), ("3124", "3142"),
    ("3124", "3214"), ("2314", "3214"), ("2314", "2341"),
    ("1432", "4132"), ("4123", "4132"), ("4123", "4213"),
    ("2413", "4213"), ("2413", "2431"), ("3142", "3412"),
    ("3214", "3241"), ("2341", "3241"), ("2341", "2431"),
    ("4132", "4312"), ("4213", "4231"), ("3412", "4312"),
    ("3412", "3421"), ("2431", "4231"), ("3241", "3421"),
    ("4312", "4321"), ("4231", "4321"), ("3421", "4321"),
}


def _one_line(label: str) -> str:
    line = [1, 2, 3, 4]
    if label != "e":
        for token in label.split():
            i = int(token[1:])
            line[i - 1], line[i] = line[i], line[i - 1]
    return "".join(str(v) for v in line)


def test_hasse_full_group_matches_frozen_diagram(capsys):
    # mu low enough that every group element is accepted.
    code, out, _ = _run(
        capsys, "hasse", "--family", "A", "--rank", "3",
        "--lambda", "highest-root", "--mu=-4,-5,-4",
    )
    assert code == 0
    nodes = re.findall(r'^  "([^"]+)";$', out, flags=re.M)
    assert len(nodes) == 24
    edges = re.findall(r'"([^"]+)" -> "([^"]+)";', out)
    assert len(edges) == 36
    rendered = {(_one_line(a), _one_line(b)) for a, b in edges}
    assert rendered == _FULL_GROUP_COVERS


def test_depgraph_edge_count(capsys):
    code, out, _ = _run(
        capsys, "depgraph", "--family", "A", "--rank", "4",
        "--lambda", "highest-root", "--mu", "neg-root:1:4",
    )
    assert code == 0
    assert out.count("--") == 18
    assert out.startswith("graph basic_subword_dependence {")


def test_catalog_text_output(capsys):
    code, out, _ = _run(capsys, "catalog", "--rank", "5", "--i", "2", "--j", "4")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "catalog for A_5, root 2..4: 10 entries"
    assert lines[1] == "(a)  s2, s3, s4"
    assert lines[2] == "(b)  s3 s2, s4 s3"
    assert lines[3] == "(c)  s2 s3, s3 s4"
    assert lines[4] == "(d)  s2 s3 s2, s3 s4 s3"
    assert lines[5] == "(e)  s4 s2 s3"
    code, out, _ = _run(capsys, "catalog", "--rank", "1", "--i", "1", "--j", "1")
    assert code == 0
    assert "(none)" in out
    code, _, err = _run(capsys, "catalog", "--rank", "4", "--i", "3", "--j", "2")
    assert code == 2


def test_catalog_json_output(capsys):
    code, out, _ = _run(
        capsys, "catalog", "--rank", "4", "--i", "1", "--j", "4",
        "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["entries"][0] == {"shape": "a", "k": 1, "word": [1]}
    assert len(payload["entries"]) == 7


def test_counts_csv(capsys):
    code, out, _ = _run(capsys, "counts", "--max-rank", "4")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "r,i,j,count,formula_value,match"
    assert len(lines) == 1 + 20
    assert all(line.endswith(",true") for line in lines[1:])
    assert "4,1,4,11,11,true" in lines


def test_counts_jobs_do_not_change_output(capsys):
    _, serial, _ = _run(capsys, "counts", "--max-rank", "4")
    _, parallel, _ = _run(capsys, "counts", "--max-rank", "4", "--jobs", "2")
    assert serial == parallel
    code, _, _ = _run(capsys, "counts", "--jobs", "0")
    assert code == 2


def test_gf_text_output(capsys):
    code, out, _ = _run(
        capsys, "gf", "--series", "p", "--i", "1", "--max-degree", "5"
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "x^1: 1"
    assert lines[1] == "x^2: 2"
    assert lines[2] == "x^3: 3"
    assert lines[3] == "x^4: 8"
    code, _, err = _run(capsys, "gf", "--series", "p")
    assert code == 2
    assert "--i is required" in err
    code, _, _ = _run(capsys, "gf", "--series", "h", "--i", "7")
    assert code == 2


def test_gf_grand_json(capsys):
    code, out, _ = _run(
        capsys, "gf", "--series", "grand", "--max-rank", "4", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["variables"] == ["x", "s", "t"]
    cells = {tuple(t["exponents"]): t["value"] for t in payload["terms"]}
    assert cells[(4, 1, 4)] == 11
    assert cells[(1, 1, 1)] == 1


@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "ideal", "--pairs", "2"),
        ("verify", "bijection", "--pairs", "2"),
        ("verify", "catalog", "--max-rank", "5"),
        ("verify", "recurrences", "--max-rank", "6"),
        ("verify", "genfunc", "--max-rank", "5"),
        ("verify", "conjecture", "--max-rank", "3"),
        ("verify", "appendix", "--max-rank", "5"),
        ("verify", "xbij", "--max-rank", "5"),
    ],
)
def test_verify_suites_pass(capsys, argv):
    code, out, _ = _run(capsys, *argv)
    assert code == 0
    assert re.search(r"^ok ", out, flags=re.M)


def test_verify_conjecture_banner(capsys):
    code, out, _ = _run(capsys, "verify", "conjecture", "--max-rank", "2")
    assert code == 0
    assert "do not constitute a proof" in out
    code, out, _ = _run(
        capsys, "verify", "conjecture", "--max-rank", "2", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] is True
    assert "banner" in payload


def test_verify_failure_exits_one(capsys, monkeypatch):
    def forced_failure(max_r):
        report = Report(title="forced")
        report.fail("intentional test failure")
        return report

    monkeypatch.setattr(cli, "verify_recurrences", forced_failure)
    code, out, _ = _run(capsys, "verify", "recurrences")
    assert code == 1
    payload = json.loads(out.splitlines()[-1])
    assert payload["ok"] is False
    assert payload["suite"] == "recurrences"


def test_out_flag_writes_file(capsys, tmp_path):
    target = tmp_path / "value.txt"
    code, out, _ = _run(
        capsys, "qmult", "--family", "A", "--rank", "3",
        "--lambda", "highest-root", "--mu=-1,0,0", "--out", str(target),
    )
    assert code == 0
    assert out == ""
    assert target.read_text(encoding="utf-8") == "q^4 + q^3 - q\n"


def test_out_flag_unwritable_exits_one(capsys, tmp_path):
    code, out, err = _run(
        capsys, "mult", "--family", "A", "--rank", "2",
        "--lambda", "1,1", "--mu", "zero",
        "--out", str(tmp_path / "missing" / "x.txt"),
    )
    assert code == 1
    assert err == ""
    (line,) = out.splitlines()
    assert json.loads(line)["ok"] is False


@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "xbij", "--max-rank", "0"),
        ("verify", "xbij", "--max-rank", "-3"),
        ("verify", "conjecture", "--max-rank", "-1"),
        ("verify", "ideal", "--pairs", "-1"),
        ("gf", "--series", "h", "--i", "1", "--max-degree", "-1"),
        ("gf", "--series", "grand", "--max-rank", "0"),
        ("counts", "--max-rank", "0"),
    ],
)
def test_size_flags_out_of_range_are_usage_errors(capsys, argv):
    code, out, err = _run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "must be at least" in err


_LARGE_WEIGHT = (
    "--family", "A", "--rank", "2", "--lambda", "1000,1000", "--mu", "zero",
)


def test_mult_large_weight_needs_no_recursion(capsys):
    # Weight 0 has multiplicity min(a, b) + 1 = 1001 in V(1000 (w1 + w2)).
    code, out, err = _run(capsys, "mult", *_LARGE_WEIGHT)
    assert code == 0
    assert out == "1001\n"
    assert err == ""


@pytest.mark.parametrize(
    "rank, lam, expected",
    [
        # Kostka-Foulkes K_{(60), (15^4)}(q) = q^90: zero weight of V(60 w1).
        (3, "45,30,15", "q^90"),
        # Zero weight of V(100 (w1 + w2)): q^200 + q^199 + ... + q^100.
        (2, "100,100", " + ".join(f"q^{k}" for k in range(200, 99, -1))),
    ],
)
def test_qmult_large_weights_within_table_budget(capsys, rank, lam, expected):
    code, out, err = _run(
        capsys, "qmult", "--family", "A", "--rank", str(rank),
        "--lambda", lam, "--mu", "zero",
    )
    assert code == 0
    assert out == expected + "\n"
    assert err == ""


def test_qmult_over_table_budget_exits_one(capsys, monkeypatch):
    def no_table(*args):
        raise AssertionError("the table was built despite the budget")

    monkeypatch.setattr(kostant, "_table", no_table)
    code, out, err = _run(capsys, "qmult", *_LARGE_WEIGHT)
    assert code == 1
    assert err == ""
    (line,) = out.splitlines()
    payload = json.loads(line)
    assert payload["ok"] is False
    assert "budget" in payload["error"]


def test_ideal_over_element_budget_exits_one(capsys):
    # The A_40 set at (highest root, -highest root) is far too large to hold;
    # the search stops at altset.MAX_SET_BYTES instead of exhausting memory.
    code, out, err = _run(
        capsys, "altset", "--family", "A", "--rank", "40",
        "--lambda", "highest-root", "--mu", "neg-root:1:40",
    )
    assert code == 1
    assert err == ""
    (line,) = out.splitlines()
    payload = json.loads(line)
    assert payload["ok"] is False
    assert "budget" in payload["error"]


def test_library_warning_is_one_plain_stderr_line(capsys):
    code, out, err = _run(
        capsys, "mult", "--family", "C", "--rank", "3",
        "--lambda", "3,4,5", "--mu", "1,1,1",
    )
    assert code == 0
    assert out == "26\n"
    assert err == (
        "warning: lambda is not dominant integral; falling back to full enumeration\n"
    )
    assert "altset.py" not in err
    assert "UserWarning" not in err


def test_version_flag(capsys):
    code, out, _ = _run(capsys, "--version")
    assert code == 0
    assert out.strip().startswith("weylalt ")
