"""End-to-end tests of the command line interface (run in-process)."""

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import random
import re
import shutil
import subprocess
import sys
import time
import warnings
from pathlib import Path

import pytest

from kahlerlab.cli import COMMANDS, _parse_args, main
from kahlerlab.parser import parse_presentation_doc
from kahlerlab.verify import _load_corpus

REPO = Path(__file__).resolve().parents[1]

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


def test_startup_imports_no_verify_only_modules():
    # every request starts a cold interpreter.  It pays for the layers it
    # reaches (test below) and for every standard module that `import
    # kahlerlab.cli` loads: dataclasses (with inspect) costs milliseconds,
    # only structured output uses json, and argparse (with gettext and
    # locale) is not used at all.  Under -S no .pth hook of `site` preloads
    # importlib.resources or pathlib, which only verify-paper reads the
    # shipped corpus with.
    ring = str(REPO / "src" / "kahlerlab" / "corpus" / "cusp.ring")
    script = ("import sys; before = set(sys.modules); import kahlerlab.cli\n"
              "loaded = set(sys.modules)\n"
              "code = kahlerlab.cli.main(['regular', '--ring', %r])\n"
              "print(code, *sorted(loaded - before))\n"
              "print(*sorted(set(sys.modules) - before))\n" % ring)
    for flags, never in (([], set()),
                         (["-S"], {"importlib.resources", "pathlib"})):
        done = subprocess.run(
            [sys.executable] + flags + ["-c", script], capture_output=True,
            text=True, env=dict(os.environ, PYTHONPATH=str(REPO / "src")))
        assert done.returncode == 0, done.stderr
        out, imported, requested = done.stdout.splitlines()
        code, *imported = imported.split()
        assert out == "regular = false" and code == "0"
        assert "kahlerlab.cli" in imported
        assert not set(imported) & {"dataclasses", "inspect", "json"}
        assert not set(requested.split()) & (
            never | {"argparse", "gettext", "locale"}), flags


# The layers each request runs; a cold request compiles these and no more.
_BASE_LAYERS = ("poly", "parser", "groebner", "presentations")
_MAP_LAYERS = _BASE_LAYERS + ("diffmod", "maps", "derivations")
LAYERS_RUN = {
    ("rank", "-q", "1", "--module", "omega"): _BASE_LAYERS + ("diffmod",),
    ("omega",): _BASE_LAYERS + ("diffmod",),
    ("pd", "-q", "1"): _BASE_LAYERS + ("diffmod", "resolution"),
    ("resolve",): _BASE_LAYERS + ("diffmod", "resolution"),
    ("regular",): _BASE_LAYERS + ("resolution",),
    ("theta",): _MAP_LAYERS,
    ("split",): _MAP_LAYERS,
    ("symderiv",): _MAP_LAYERS,
}

# Imported by `site` before the request, this reports at exit which
# kahlerlab modules are registered and which of them ran, without reading
# an attribute of any: a LazyLoader module that has not run is not a plain
# types.ModuleType.
LAYER_REPORT = """\
import atexit, sys, types

@atexit.register
def report():
    names = sorted(n for n in sys.modules if n.startswith("kahlerlab."))
    print("registered:", *names, file=sys.stderr)
    print("ran:", *[n for n in names
                    if type(sys.modules[n]) is types.ModuleType],
          file=sys.stderr)
"""


def test_cold_request_runs_only_its_layers(tmp_path):
    (tmp_path / "sitecustomize.py").write_text(LAYER_REPORT)
    ring = str(REPO / "src" / "kahlerlab" / "corpus" / "cusp.ring")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(tmp_path), str(REPO / "src")]))
    registered = " ".join("kahlerlab." + name for name in sorted(
        _MAP_LAYERS + ("resolution", "properties", "verify")))
    for argv, layers in LAYERS_RUN.items():
        # -W error: runpy warns when kahlerlab.cli is in sys.modules before
        # it runs as __main__, that is, when it would be compiled twice
        done = subprocess.run(
            [sys.executable, "-W", "error", "-m", "kahlerlab.cli", *argv,
             "--ring", ring], capture_output=True, text=True, env=env)
        assert done.returncode == 0, done.stderr
        report = done.stderr.splitlines()[-2:]
        assert report == [
            "registered: " + registered,
            "ran: " + " ".join("kahlerlab." + n for n in sorted(layers))], argv


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
    for basis, message in (
            ("x^2,y^2", "basis must be a permutation"),
            # entries that are not monomials with coefficient 1
            ("x+y,x", "(line 1, column 1)"),
            ("2*x,y", "(line 1, column 1)"),
            ("x,,y", "(line 1, column 3)")):
        code, out, err = run(capsys, [
            "omega", "--ring", cusp_file, "-q", "2", "--basis", basis])
        assert code == 2 and out == ""
        assert message in err


def test_missing_ring_file_is_input_error(capsys, tmp_path):
    code, _, err = run(capsys, [
        "omega", "--ring", str(tmp_path / "missing.ring"), "-q", "1"])
    assert code == 2
    assert "missing.ring" in err


def test_malformed_ring_file_is_input_error(capsys, tmp_path):
    path = tmp_path / "broken.ring"
    # a Unicode digit is not a number: x^\u0663 is not read as x^3
    for text in ("vars = [x;\n", "vars = [x];\nideal = [x^\u0663];\n"):
        path.write_text(text, encoding="utf-8")
        code, out, err = run(capsys, ["omega", "--ring", str(path)])
        assert code == 2 and out == ""
        assert "(line " in err


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


def test_split_and_symderiv_on_the_circle(capsys, tmp_path):
    path = tmp_path / "circle.ring"
    path.write_text("vars = [x, y];\nideal = [x^2 + y^2 - 1];\n")
    code, out, _ = run(capsys, ["split", "--ring", str(path)])
    assert code == 0
    assert "derivation_found = true;" in out
    assert "exact = [true, true, true];" in out
    assert "splitting = true;" in out
    code, out, _ = run(capsys, [
        "symderiv", "--ring", str(path), "--degree-bound", "1"])
    assert code == 0
    assert "oracle_agrees = true;" in out


def test_symderiv_at_q2_on_the_circle_stays_within_budget(capsys, tmp_path):
    # an ungraded ring, so the oracle's ansatz is every monomial up to the
    # default bound 6: a 2,025 x 4,452 sparse system, which dense
    # Gauss-Jordan elimination over Q took minutes to decide
    path = tmp_path / "circle.ring"
    path.write_text("vars = [x, y];\nideal = [x^2 + y^2 - 1];\n")
    start = time.perf_counter()
    code, out, _ = run(capsys, ["symderiv", "--ring", str(path), "-q", "2"])
    assert time.perf_counter() - start < 15
    assert code == 0
    assert out == "verdict = found;\noracle_agrees = true;\n"


@pytest.mark.parametrize("ideal, column, exponent", [
    pytest.param("x^2000000000", 12, 2000000000, id="x^2000000000-12"),
    pytest.param("x^999999999*x^999999999", 21, 1999999998,
                 id="x^999999999*x^999999999-21"),
])
def test_exponent_overflow_is_a_parse_error(capsys, tmp_path, ideal, column,
                                            exponent):
    path = tmp_path / "big.ring"
    path.write_text("vars = [x];\nideal = [%s];\n" % ideal)
    code, out, err = run(capsys, ["regular", "--ring", str(path)])
    assert code == 2 and out == ""
    assert ("exponent %d exceeds limit (line 2, column %d)"
            % (exponent, column)) in err


def test_exponent_overflow_during_a_request_is_an_input_error(capsys,
                                                              tmp_path):
    # the ring parses, but Omega^(2) multiplies x^1000000000 - y by x
    path = tmp_path / "big.ring"
    path.write_text("vars = [x, y];\nideal = [x^1000000000 - y];\n")
    code, out, err = run(capsys, ["omega", "--ring", str(path), "-q", "2"])
    assert code == 2 and out == ""
    assert "error: exponent 1000000001 exceeds limit\n" in err


def test_deep_nesting_is_an_input_error(capsys, tmp_path, cusp_file):
    path = tmp_path / "deep.ring"
    path.write_text("vars = [x];\nideal = [%sx%s];\n" % ("(" * 250, ")" * 250))
    deep_basis = "(" * 300 + "x" + ")" * 300 + ",y"
    for argv in (["regular", "--ring", str(path)],
                 ["omega", "--ring", cusp_file, "--basis", deep_basis]):
        code, out, err = run(capsys, argv)
        assert code == 2 and out == ""
        assert "nesting" in err


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


def test_verify_paper_corpus_must_be_a_directory(capsys, tmp_path, cusp_file):
    for corpus in (str(tmp_path / "missing"), cusp_file):
        code, out, err = run(capsys, [
            "verify-paper", "--corpus", corpus, "--cases", "5"])
        assert code == 2 and out == ""
        assert err.startswith("error: ") and corpus in err


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


def test_symderiv_q2_on_ex316_finishes(capsys):
    # 360 equations in 405 unknowns: no result in 300 s before solve_linear
    # completed only up to the degree of its right-hand side
    code, out, _ = run(capsys, [
        "symderiv", "-q", "2",
        "--ring", str(REPO / "src" / "kahlerlab" / "corpus" / "ex316.ring")])
    assert code == 0
    assert "verdict = not_found;" in out
    assert "oracle_agrees = true;" in out


@pytest.mark.parametrize("q", ["1", "2"])
def test_symderiv_on_k_t3_t4_t5(capsys, tmp_path, q):
    # a curve that is not a complete intersection: three quadrics cut it out
    path = tmp_path / "t345.ring"
    path.write_text("vars = [x, y, z]; weights = [3, 4, 5]; assume_domain = "
                    "true; ideal = [y^2 - x*z, x^3 - y*z, z^2 - x^2*y];\n")
    code, out, _ = run(capsys, ["symderiv", "--ring", str(path), "-q", q])
    assert (code, out) == (0, "verdict = not_found;\noracle_agrees = true;\n")


# Requests outside perfbench/expected.json whose stdout the symmetric
# square, the derivation solver and the split sequence decide, then one
# request for each statement writer path no other digest covers.
RECORDED_STDOUT = {
    "iota --ring poly2":
        "348de8607ef1d00128b0ef1ded54d0e5ad755960307fa2f8a75aa301f43735a7",
    "iota --ring poly3":
        "f54e36fffcd15ecdda80baad842d895d572133ed430e4d97f5731e64fccfc491",
    "iota --ring cusp":
        "8336bd717724a09dfc933fdceff2d2fcd08b5906f9cbab2ca1e491b538505047",
    "iota --ring ex316":
        "f8f9f166b993a71e2c07d1332f9efb409366487d59f432f797922552c03662f7",
    "split --ring poly2":
        "2384541444c45c4e5ff376617ec5d0053c2b5ccd8b95f3968423441a088bc885",
    "symderiv --ring poly2":
        "7e0db3f81ae44987ce293aee5788b666f9ed8d4deb95fd0f1fdb7e37c74de096",
    "theta -q 1 --ring poly2":
        "a2659194e98951cae6c7ae8c1a876baab306be8d3d1ff99c1fb1d7c499f077d8",
    "theta -q 1 --target jets --ring cusp":
        "1a0fa4184c7cb532e5b00ad7d98a34854dbf35629e3d2db45b9e26dcdbe0c356",
    "resolve -q 1 --module omega --cutoff 3 --ring ex316":
        "e75bbc80d639db357219636f8314d82138b39704b2bf83853e93816f0887bddf",
    "resolve -q 1 --module jets:ring --ring poly2":
        "4ac6ac8e2f8dea3c62baf05d760434d68d7540ffd2ad2093ea1f0f3f123a1c0c",
    # an empty relation matrix
    "omega -q 2 --ring poly1":
        "7fbe4fad2ea95d6352557b37347a3e96d36b821b9e8337eb38813ccf91dd58dd",
    "regular --ring poly2":
        "45ac64cb4d2b7c5be0d3b409d6ea96a09e1527730b50f4ccf4bfa5d3631aa9d1",
    # symmetric pairs ordered by multi-character labels (d2(x*y), d2(x^2))
    "sym2 -q 2 --ring cusp":
        "068fe888affa5057ae9d34f6a83e0d7839a141abe8e194a4342c4cc8ea3bb8f3",
    # jet generators D2[e](...) over R itself
    "jets -q 2 --module ring --ring cusp":
        "0ba75ac0d6903eb550ce284b10860dea7b326e5ba4fc5fd18756a2cb08eda51f",
    # builds J_2(Omega^(2)) over ex316 with graded row pruning
    "theta -q 2 --target jets --ring ex316":
        "6d68907d06510944edf673eb3a622272bff203da12fabcb721b466fda947f0c2",
}


@pytest.mark.parametrize("request_", sorted(RECORDED_STDOUT))
def test_split_layer_requests_match_recorded_stdout(capsys, request_):
    *argv, name = request_.split()
    code, out, _ = run(capsys, argv + [
        str(REPO / "src" / "kahlerlab" / "corpus" / (name + ".ring"))])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == RECORDED_STDOUT[request_]


# Structured envelopes recorded when each command still wrote its request
# echo by hand; run from the repository root, so the echoed paths are
# relative.
RECORDED_ENVELOPES = {
    "omega -q 1 --ring src/kahlerlab/corpus/cusp.ring":
        "2b18227c0992f8661002e813f4fe5864703924163119bcc96826872a94c92924",
    "omega -q 2 --basis x^2,y^2,x*y,x,y --ring src/kahlerlab/corpus/cusp.ring":
        "fcbf9f6f4def614b2e311a92aa1230928099fa6f448be0162731ba4f18647361",
    "jets -q 1 --module omega --ring src/kahlerlab/corpus/cusp.ring":
        "21820b7e509771846784ae87cc1fe690ced2bcb03de6c336fd86a0dd20e2ed7b",
    "sym2 -q 1 --ring src/kahlerlab/corpus/ex316.ring":
        "c3e0601b58d415906a1b764bb8aba011c8f896a99f78ce98e3f53c5666d4ef15",
    "theta -q 1 --target jets --ring src/kahlerlab/corpus/poly2.ring":
        "54d46ce2a92fe6fb9682184568a63fcf236ddd6125f1e04980a0fa646db26cf7",
    "iota --ring src/kahlerlab/corpus/cusp.ring":
        "7aa07db4ab4782f5f79021cae4fc51bd31e6bb5a8c4cd73441b62e22f1783b09",
    "split --ring src/kahlerlab/corpus/cusp.ring":
        "f6ce36691a5f50354dbeda7eb4de763eb54c64311116edda8db4a211bd551035",
    "symderiv --ring src/kahlerlab/corpus/ex316.ring":
        "9595b299bc4d44a0f1bf24dbc470d1a76a449113594444241d220fdac51d707d",
    "resolve -q 1 --module omega --ring src/kahlerlab/corpus/cusp.ring":
        "24bae1915c401c818c7309d26161449f0990810709af8b0f59de318aa1cfb1e1",
    "pd -q 2 --module omega --ring src/kahlerlab/corpus/ex316.ring":
        "4a7fc70903f4dc3b81de7225d6cec71ef2e78af4ef84c1b846301f703a07b0bb",
    "rank -q 1 --module sym2:omega --ring src/kahlerlab/corpus/ex316.ring":
        "94dbee899610ae4349596e28eada71b77fba9543ff9fcbd8d6c999385d12463c",
    "regular --ring src/kahlerlab/corpus/cusp.ring":
        "cd8e9ff37e076a2ad3c196429650c5cf0596154540786fd1e55bb87939b612b9",
    "verify-paper --cases 5":
        "8fec57b4bb4a921a01af10406e2ebc04eb38b36a511a2fac4f8e38ecb00357bc",
}


@pytest.mark.parametrize("request_", sorted(RECORDED_ENVELOPES))
def test_structured_envelope_matches_recording(capsys, monkeypatch, request_):
    monkeypatch.chdir(REPO)
    code, out, _ = run(capsys, request_.split() + ["--format", "structured"])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == \
        RECORDED_ENVELOPES[request_]


def test_every_command_has_a_recorded_envelope():
    assert {r.split()[0] for r in RECORDED_ENVELOPES} == set(COMMANDS)


@pytest.mark.parametrize("request_, keys", [
    ("omega", {"ring", "q"}),
    ("omega --basis y,x", {"ring", "q", "basis"}),
    ("jets", {"ring", "q", "module"}),
    ("sym2", {"ring", "q"}),
    ("theta", {"ring", "q", "target"}),
    ("iota", {"ring"}),
    ("split", {"ring"}),
    ("regular", {"ring"}),
    ("symderiv", {"ring", "q", "degree_bound"}),
    ("resolve", {"ring", "q", "module", "cutoff"}),
    ("pd", {"ring", "q", "module", "cutoff"}),
    ("rank", {"ring", "q", "module"}),
])
def test_request_echo_names_the_parsed_options(capsys, plane_file, request_,
                                               keys):
    code, out, _ = run(capsys, request_.split() + [
        "--ring", plane_file, "--format", "structured"])
    assert code == 0
    request = json.loads(out)["request"]
    assert set(request) == keys
    assert request["ring"] == plane_file


def test_verify_paper_request_echo(capsys, tmp_path):
    (tmp_path / "poly1.ring").write_text("vars = [x];\nideal = [];\n")
    for extra, corpus in ((["--corpus", str(tmp_path)], str(tmp_path)),
                          ([], "shipped")):
        code, out, _ = run(capsys, ["verify-paper", "--cases", "1",
                                    "--format", "structured"] + extra)
        assert code == 0
        assert json.loads(out)["request"] == {"corpus": corpus, "cases": 1}

def test_malformed_corpus_file_is_named(capsys, tmp_path):
    corpus = tmp_path / "corpus"
    shutil.copytree(REPO / "src" / "kahlerlab" / "corpus", corpus)
    for name, data in (("cusp.ring", b"vars = [x;\n"),
                       ("ex316.ring", b"vars = [x];\nideal = [\xff];\n")):
        path = corpus / name
        saved = path.read_bytes()
        path.write_bytes(data)
        code, out, err = run(capsys, ["verify-paper", "--corpus", str(corpus)])
        assert code == 2 and out == ""
        assert err.startswith("error: %s: " % path)
        path.write_bytes(saved)


# ---------------------------------------------------------------------------
# the command table against the argparse parser it replaced, kept verbatim
# here as the reference


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError("expected an integer, got %r" % text)
    if value < 1:
        raise argparse.ArgumentTypeError("expected a positive integer, got %d"
                                         % value)
    return value


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="kahlerlab",
        description="exact workbench for differential modules over "
                    "Q[x_1..x_s]/I")
    sub = top.add_subparsers(dest="command", required=True)

    def add(name, help_text, q=False, module=None, cutoff=False,
            basis=False, target=False, bound=False):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--ring", required=True, metavar="FILE",
                       help="ring file (vars/weights/ideal statements)")
        if q:
            p.add_argument("-q", type=_positive_int, default=1,
                           help="differential order (default 1)")
        if module is not None:
            p.add_argument("--module", default=module[0], choices=module,
                           help="which module to build (default %s)" % module[0])
        if cutoff:
            p.add_argument("--cutoff", type=_positive_int, default=6,
                           help="resolution cutoff (default 6)")
        if basis:
            p.add_argument("--basis", default=None, metavar="MONOMIALS",
                           help="comma-separated symbol order, e.g. "
                                "\"x^2,y^2,x*y,x,y\"")
        if target:
            p.add_argument("--target", default="first",
                           choices=("first", "jets"),
                           help="contract to Omega^1 or embed into jets")
        if bound:
            p.add_argument("--degree-bound", type=_positive_int, default=6,
                           help="oracle ansatz degree for rings that are "
                                "not homogeneous")
        p.add_argument("--format", default="text",
                       choices=("text", "structured"))
        return p

    add("omega", "presentation of Omega^(q)", q=True, basis=True)
    add("jets", "presentation of J_q of the ring or of Omega^(q)",
        q=True, module=("ring", "omega"))
    add("sym2", "presentation of S^2(Omega^(q))", q=True)
    add("theta", "the map Omega^(2q) -> Omega^(q) targets, or into jets",
        q=True, target=True)
    add("iota", "the inclusion S^2(Omega^1) -> Omega^2")
    add("split", "exactness and splitting of the symmetric-square sequence")
    add("symderiv", "symmetric-derivation solver cross-checked by an oracle",
        q=True, bound=True)
    # the selector mini-syntax composes constructions: jets:omega is J_q
    # applied to Omega^(q), sym2:omega the symmetric square, jets:ring J_q(R)
    selectors = ("omega", "jets:omega", "sym2:omega", "jets:ring")
    add("resolve", "free resolution of a module", q=True, module=selectors,
        cutoff=True)
    add("pd", "projective-dimension verdict", q=True, module=selectors,
        cutoff=True)
    add("rank", "generic rank of a module (domain rings)", q=True,
        module=selectors)
    add("regular", "Jacobian regularity of the ring")

    vp = sub.add_parser("verify-paper",
                        help="run the full verification table over a corpus")
    vp.add_argument("--corpus", default=None, metavar="DIR",
                    help="directory of .ring files (default: shipped corpus)")
    vp.add_argument("--cases", type=_positive_int, default=200,
                    help="randomized cases per property suite (default 200)")
    vp.add_argument("--format", default="text",
                    choices=("text", "structured"))
    return top


ORACLE = _build_parser()


def _outcome(parse, argv):
    """vars() of the parsed request, or the exit code of help or an error."""
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        try:
            parsed = parse(argv)
        except SystemExit as e:
            return 0 if not e.code else 2
    return parsed if isinstance(parsed, int) else vars(parsed)


def _both(argv):
    return _outcome(ORACLE.parse_args, argv), _outcome(_parse_args, argv)


def _oracle_commands():
    """Each command of the reference parser with its option actions."""
    sub, = (a for a in ORACLE._actions
            if isinstance(a, argparse._SubParsersAction))
    return {name: [a for a in parser._actions
                   if not isinstance(a, argparse._HelpAction)]
            for name, parser in sub.choices.items()}


def _accepted_forms():
    """Every command with each option given as --opt V, --opt=V, the
    shortest unique prefix with either, -qN and -q=N, and repeated."""
    for command, actions in _oracle_commands().items():
        base = [command] + (["--ring", "f"] if command != "verify-paper"
                            else [])
        longs = [s for a in actions for s in a.option_strings] + ["--help"]
        for action in actions:
            values = list(action.choices or ()) or (
                ["2", "17"] if action.type else ["x", "y,x"])
            flag = action.option_strings[0]
            if flag.startswith("--"):
                prefix = next(flag[:k] for k in range(3, len(flag) + 1)
                              if sum(s.startswith(flag[:k])
                                     for s in longs) == 1)
                forms = [[flag, "%s"], [flag + "=%s"], [prefix, "%s"],
                         [prefix + "=%s"]]
            else:
                forms = [[flag, "%s"], [flag + "%s"], [flag + "=%s"]]
            for form in forms:
                for value in values:
                    given = [part.replace("%s", value) for part in form]
                    yield base + given
                    yield [command] + given + base[1:]
                given = [part.replace("%s", values[0]) for part in form]
                yield base + given + [part.replace("%s", values[-1])
                                      for part in form]


def test_accepted_forms_parse_as_argparse_did():
    seen = 0
    for argv in _accepted_forms():
        want, got = _both(argv)
        assert isinstance(want, dict) and got == want, argv
        seen += 1
    assert seen > 400


@pytest.mark.parametrize("argv", [
    ["omega"],
    ["omega", "--ring"],
    ["omega", "--ring", "f", "-q", "0"],
    ["omega", "--ring", "f", "-q", "x"],
    ["pd", "--ring", "f", "--module", "mystery"],
    ["theta", "--ring", "f", "--target", "nowhere"],
    ["omega", "--ring", "f", "--format", "xml"],
    ["omega", "--ring", "f", "--bogus"],
    ["omega", "--ring", "f", "stray"],
    [],
    ["bogus", "--ring", "f"],
    ["verify-paper", "--c", "5"],
], ids=lambda argv: " ".join(argv) or "no-command")
def test_usage_errors_exit_2_as_argparse_did(capsys, argv):
    want, got = _both(argv)
    assert want == got == 2
    code, out, err = run(capsys, argv)
    assert code == 2 and out == ""
    usage, error = err.splitlines()
    # an error before a known command is the program's, not a command's
    prog = " ".join(["kahlerlab"] + argv[:1 if argv[:1] != ["bogus"] else 0])
    assert usage.startswith("usage: ") and error.startswith(prog + ": error: ")


@pytest.mark.parametrize("command", [None] + list(COMMANDS))
def test_help_lists_every_option(capsys, command):
    for flag in ("-h", "--help", "--he"):
        argv = ([command] if command else []) + [flag]
        assert _both(argv) == (0, 0)
        code, out, err = run(capsys, argv)
        assert code == 0 and err == "" and out.startswith("usage: kahlerlab")
        for name in ([o[0] for o in COMMANDS[command][1]] if command
                     else list(COMMANDS)):
            assert "  " + name + " " in out


def test_random_argv_parse_as_argparse_did():
    # besides the forms above: prefixes that are ambiguous or name no
    # option, a negative number or a token with a space as a value, "--"
    # (every later token is positional), letters after -h read as more
    # short flags, unknown options and strays before a later -h
    words = list(COMMANDS) + [
        "bogus", "--ring", "--ring=f", "--ri", "f", "-q", "-q3", "-q=2", "-q0",
        "-qx", "3", "0", "-1", "-5.", "-.5", "-x y", "--module", "--mod=omega",
        "--m", "omega", "jets:omega", "sym2:omega", "jets:ring", "ring",
        "mystery", "--format", "--form=structured", "--f", "structured",
        "text", "--cutoff", "--cut=4", "--c", "--basis", "--bas=x,y", "--b",
        "--target", "--tar", "first", "jets", "--degree-bound", "--deg=2",
        "--d", "--corpus", "--cor=d", "--cases", "--cas", "--ca=7", "-h",
        "--help", "--he", "-hh", "-hq3", "-hq", "-hx", "-h=q", "--help=x",
        "-", "--", "---ring", "--=x", "-q ", "-r", "--bogus", "-q 3", "-h=",
        "--ring=", "-q=", "-qq"]
    rng = random.Random(2026)
    for _ in range(3000):
        argv = [rng.choice(words[:len(COMMANDS) + 1])] + \
            ["--ring", "f"] * (rng.random() < 0.8) + \
            [rng.choice(words) for _ in range(rng.randrange(6))]
        if rng.random() < 0.1:
            rng.shuffle(argv)
        want, got = _both(argv)
        assert got == want, argv
