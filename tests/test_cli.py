"""End-to-end tests of the command line interface (run in-process)."""

import gc
import hashlib
import json
import re
import warnings
from pathlib import Path

import pytest

from kahlerlab.cli import _load_corpus, main
from kahlerlab.parser import parse_presentation_doc

CUSP_TEXT = """\
vars = [x, y];
weights = [2, 3];
ideal = [y^2 - x^3];
assume_domain = true;
"""

PLANE_TEXT = """\
vars = [x, y];
ideal = [];
"""


@pytest.fixture()
def cusp_file(tmp_path):
    path = tmp_path / "cusp.ring"
    path.write_text(CUSP_TEXT)
    return str(path)


@pytest.fixture()
def plane_file(tmp_path):
    path = tmp_path / "poly2.ring"
    path.write_text(PLANE_TEXT)
    return str(path)


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_omega_text_output(capsys, cusp_file):
    code, out, err = run(capsys, ["omega", "--ring", cusp_file, "-q", "1"])
    assert code == 0
    assert "generators = [d1(x), d1(y)];" in out
    assert "[-3*x^2, 2*y]" in out
    # the text payload is itself a parseable presentation document
    parse_presentation_doc(out)
    # timing goes to stderr only
    assert re.search(r"elapsed: [0-9.]+s", err)
    assert "elapsed" not in out


def test_same_request_twice_is_byte_identical(capsys, cusp_file):
    code1, out1, _ = run(capsys, ["omega", "--ring", cusp_file, "-q", "2"])
    code2, out2, _ = run(capsys, ["omega", "--ring", cusp_file, "-q", "2"])
    assert code1 == code2 == 0
    assert out1 == out2


def test_structured_envelope(capsys, cusp_file):
    code, out, _ = run(capsys, [
        "omega", "--ring", cusp_file, "-q", "1", "--format", "structured"])
    assert code == 0
    report = json.loads(out)
    assert report["command"] == "omega"
    assert report["seed"] == 0
    assert report["request"]["q"] == 1
    assert report["request"]["ring"].endswith("cusp.ring")
    assert report["result"]["generators"] == ["d1(x)", "d1(y)"]
    assert report["result"]["relations"] == [["-3*x^2", "2*y"]]


def test_omega_with_basis_override(capsys, cusp_file):
    code, out, _ = run(capsys, [
        "omega", "--ring", cusp_file, "-q", "2",
        "--basis", "x^2,y^2,x*y,x,y", "--format", "structured"])
    assert code == 0
    result = json.loads(out)["result"]
    assert result["generators"] == \
        ["d2(x^2)", "d2(y^2)", "d2(x*y)", "d2(x)", "d2(y)"]
    assert result["relations"] == [
        ["-3*x", "1", "0", "3*x^2", "0"],
        ["-6*x^2", "x", "2*y", "7*x^3", "-2*x*y"],
        ["-3*x*y", "3*y", "-3*x^2", "6*x^2*y", "-x^3"],
    ]


def test_bad_basis_is_input_error(capsys, cusp_file):
    code, _, err = run(capsys, [
        "omega", "--ring", cusp_file, "-q", "2", "--basis", "x^2,y^2"])
    assert code == 2
    assert err.strip()


def test_missing_ring_file_is_input_error(capsys, tmp_path):
    code, _, err = run(capsys, [
        "omega", "--ring", str(tmp_path / "missing.ring"), "-q", "1"])
    assert code == 2
    assert "missing.ring" in err


def test_malformed_ring_file_is_input_error(capsys, tmp_path):
    path = tmp_path / "broken.ring"
    path.write_text("vars = [x;\n")
    code, _, err = run(capsys, ["omega", "--ring", str(path)])
    assert code == 2
    assert err.strip()


def test_q_must_be_positive(capsys, cusp_file):
    code, _, _ = run(capsys, ["omega", "--ring", cusp_file, "-q", "0"])
    assert code == 2


def test_jets_command(capsys, cusp_file):
    code, out, _ = run(capsys, [
        "jets", "--ring", cusp_file, "-q", "1", "--format", "structured"])
    assert code == 0
    result = json.loads(out)["result"]
    assert result["generators"] == ["D1[e](1)", "D1[e](x)", "D1[e](y)"]
    assert result["relations"] == [["x^3", "-3*x^2", "2*y"]]
    code, out, _ = run(capsys, [
        "jets", "--ring", cusp_file, "-q", "1", "--module", "omega",
        "--format", "structured"])
    assert code == 0
    assert len(json.loads(out)["result"]["generators"]) == 6


def test_sym2_command(capsys, plane_file):
    code, out, _ = run(capsys, [
        "sym2", "--ring", plane_file, "-q", "1", "--format", "structured"])
    assert code == 0
    result = json.loads(out)["result"]
    assert result["generators"] == \
        ["s(d1(x),d1(x))", "s(d1(x),d1(y))", "s(d1(y),d1(y))"]
    assert result["relations"] == []


def test_theta_and_iota_commands(capsys, plane_file):
    code, out, _ = run(capsys, [
        "theta", "--ring", plane_file, "-q", "2", "--format", "structured"])
    assert code == 0
    result = json.loads(out)["result"]
    assert result["matrix"] == [
        ["1", "0", "2*x", "y", "0"],
        ["0", "1", "0", "x", "2*y"],
    ]
    code, out, _ = run(capsys, ["iota", "--ring", plane_file])
    assert code == 0
    assert "s(d1(x),d1(x))" in out
    code, out, _ = run(capsys, [
        "theta", "--ring", plane_file, "-q", "1", "--target", "jets",
        "--format", "structured"])
    assert code == 0
    assert len(json.loads(out)["result"]["matrix"]) == 6


def test_split_command(capsys, plane_file):
    code, out, _ = run(capsys, ["split", "--ring", plane_file])
    assert code == 0
    assert "derivation_found = true;" in out
    assert "exact = [true, true, true];" in out
    assert "splitting = true;" in out


def test_symderiv_command(capsys, plane_file, cusp_file):
    code, out, _ = run(capsys, [
        "symderiv", "--ring", plane_file, "--format", "structured"])
    assert code == 0
    result = json.loads(out)["result"]
    assert result["verdict"] == "found"
    assert result["oracle_agrees"] is True
    code, out, _ = run(capsys, ["symderiv", "--ring", cusp_file])
    assert code == 0
    assert "oracle_agrees = true;" in out


def test_resolve_pd_rank_regular(capsys, cusp_file):
    code, out, _ = run(capsys, [
        "resolve", "--ring", cusp_file, "-q", "1", "--module", "omega",
        "--cutoff", "6", "--format", "structured"])
    assert code == 0
    result = json.loads(out)["result"]
    assert result["betti"] == [2, 1]
    assert result["terminated"] is True

    code, out, _ = run(capsys, [
        "pd", "--ring", cusp_file, "-q", "1", "--module", "omega"])
    assert code == 0
    assert out == "pd = 1\n"

    code, out, _ = run(capsys, [
        "rank", "--ring", cusp_file, "-q", "1", "--module", "omega"])
    assert code == 0
    assert out == "rank = 1\n"

    code, out, _ = run(capsys, ["regular", "--ring", cusp_file])
    assert code == 0
    assert out == "regular = false\n"


def test_rank_needs_domain(capsys, tmp_path):
    path = tmp_path / "sq.ring"
    path.write_text("vars = [x];\nideal = [x^2];\n")
    code, _, err = run(capsys, ["rank", "--ring", str(path), "-q", "1"])
    assert code == 2
    assert err.strip()


def test_origin_off_the_variety_has_no_minimal_chain(capsys, tmp_path):
    # On the circle the relation row (2x, 2y) of Omega^1 is unimodular
    # (x*2x + y*2y = 2 in R), so Omega^1 is free: pd 1 would be false.
    path = tmp_path / "circle.ring"
    path.write_text("vars = [x, y];\nideal = [x^2 + y^2 - 1];\n"
                    "assume_domain = true;\n")
    code, out, err = run(capsys, [
        "pd", "--ring", str(path), "-q", "1", "--module", "omega"])
    assert code == 2 and out == ""
    assert "origin is not on V(I)" in err
    code, out, _ = run(capsys, [
        "resolve", "--ring", str(path), "-q", "1", "--module", "omega"])
    assert code == 0
    assert "graded = false;" in out


@pytest.mark.parametrize("ideal, column", [
    ("x^2000000000", 12),
    ("x^999999999*x^999999999", 21),
])
def test_exponent_overflow_is_a_parse_error(capsys, tmp_path, ideal, column):
    path = tmp_path / "big.ring"
    path.write_text("vars = [x];\nideal = [%s];\n" % ideal)
    code, out, err = run(capsys, ["regular", "--ring", str(path)])
    assert code == 2 and out == ""
    assert "exceeds limit (line 2, column %d)" % column in err


def test_corpus_files_are_closed(tmp_path):
    (tmp_path / "poly1.ring").write_text("vars = [x];\nideal = [];\n")
    (tmp_path / "poly2.ring").write_text(PLANE_TEXT)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rings = _load_corpus(str(tmp_path))
        gc.collect()
    assert sorted(rings) == ["poly1", "poly2"]
    assert [w for w in caught if issubclass(w.category, ResourceWarning)] == []


def test_unknown_module_selector(capsys, cusp_file):
    code, _, _ = run(capsys, [
        "pd", "--ring", cusp_file, "--module", "mystery:omega"])
    assert code == 2


def test_verify_paper_on_partial_corpus(capsys, tmp_path):
    (tmp_path / "poly1.ring").write_text("vars = [x];\nideal = [];\n")
    (tmp_path / "poly2.ring").write_text(PLANE_TEXT)
    code, out, _ = run(capsys, [
        "verify-paper", "--corpus", str(tmp_path), "--cases", "20"])
    assert code == 0
    assert "FAIL" not in out
    assert "SKIP" in out  # items needing cusp/ex316 are skipped with a note


def test_verify_paper_detects_perturbed_ring(capsys, tmp_path):
    (tmp_path / "cusp.ring").write_text(
        "vars = [x, y];\nweights = [2, 3];\nideal = [y^2 - x^3 + x];\n"
        "assume_domain = true;\n")
    code, out, _ = run(capsys, [
        "verify-paper", "--corpus", str(tmp_path), "--cases", "5"])
    assert code == 1
    assert "FAIL" in out


def test_verify_paper_structured_on_shipped_corpus(capsys):
    code, out, _ = run(capsys, [
        "verify-paper", "--cases", "25", "--format", "structured"])
    assert code == 0
    report = json.loads(out)
    assert report["command"] == "verify-paper"
    assert report["result"]["failed"] == 0
    assert report["result"]["skipped"] == 0
    names = [item["name"] for item in report["result"]["items"]]
    assert len(names) == len(set(names)) and len(names) >= 10


REPO = Path(__file__).resolve().parents[1]

# Every benchmark request: each takes at most about 1.5 s, and between them
# they reach kernel, solve_linear, syzygies_over_ring, prune_rows, the
# minimal chain behind projective_dimension, the rank elimination, the
# Jacobian minors and, through verify-paper at its default 200 cases, the
# property suites.
FAST_BENCHMARK_REQUESTS = (
    "omega -q 3 --ring src/kahlerlab/corpus/ex316.ring",
    "pd -q 1 --module jets:omega --cutoff 2 --ring src/kahlerlab/corpus/ex316.ring",
    "pd -q 2 --module omega --ring src/kahlerlab/corpus/ex316.ring",
    "split --ring src/kahlerlab/corpus/cusp.ring",
    "resolve -q 2 --module sym2:omega --ring src/kahlerlab/corpus/cusp.ring",
    "symderiv --ring src/kahlerlab/corpus/ex316.ring",
    "regular --ring src/kahlerlab/corpus/ex316.ring",
    "regular --ring src/kahlerlab/corpus/cusp.ring",
    "rank -q 2 --module sym2:omega --ring src/kahlerlab/corpus/cusp.ring",
    "rank -q 2 --module jets:ring --ring src/kahlerlab/corpus/ex316.ring",
    "rank -q 2 --module omega --ring src/kahlerlab/corpus/ex316.ring",
    "rank -q 1 --module jets:omega --ring src/kahlerlab/corpus/cusp.ring",
    "rank -q 1 --module sym2:omega --ring src/kahlerlab/corpus/ex316.ring",
    "verify-paper",
)


def test_fast_benchmark_requests_match_recorded_stdout(capsys, monkeypatch):
    expected = json.loads((REPO / "perfbench" / "expected.json").read_text())
    monkeypatch.chdir(REPO)
    got = {}
    for request in FAST_BENCHMARK_REQUESTS:
        code, out, _ = run(capsys, request.split())
        got[request] = {"exit": code,
                        "sha256": hashlib.sha256(out.encode()).hexdigest()}
    assert got == {r: expected[r] for r in FAST_BENCHMARK_REQUESTS}


def test_split_on_ex316(capsys):
    code, out, _ = run(capsys, [
        "split", "--ring", str(REPO / "src" / "kahlerlab" / "corpus" / "ex316.ring")])
    assert code == 0
    assert "derivation_found = false;" in out
    assert "exact = [true, true, true];" in out
    assert "splitting = false;" in out


def test_rank_of_jets_of_omega_on_ex316(capsys):
    code, out, _ = run(capsys, [
        "rank", "-q", "1", "--module", "jets:omega",
        "--ring", str(REPO / "src" / "kahlerlab" / "corpus" / "ex316.ring")])
    assert code == 0
    assert out == "rank = 2\n"


def test_jets_of_omega_q2_on_ex316_matches_recorded_stdout(capsys):
    code, out, _ = run(capsys, [
        "jets", "-q", "2", "--module", "omega",
        "--ring", str(REPO / "src" / "kahlerlab" / "corpus" / "ex316.ring")])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "85fb86542e7ed3e089d6371d26cb1e267ca438b47dbecab8c264d6618b7557bb")
