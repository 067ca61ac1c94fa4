"""Tests of the benchmark itself: span arithmetic, patching, the output gate.

Run from the repository root:  python3 -m pytest perfbench/tests -q
"""

import hashlib
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import run  # noqa: E402
import spans  # noqa: E402
from spans import Recorder, layer_metrics, self_times  # noqa: E402

CUSP = ["--ring", os.path.join(ROOT, run.CORPUS, "cusp.ring")]


def test_self_time_subtracts_direct_children_only():
    tree = [["root", -1, 0.0, 10.0],
            ["a", 0, 1.0, 4.0],
            ["a.inner", 1, 2.0, 3.0],
            ["b", 0, 5.0, 9.0]]
    assert self_times(tree) == [3.0, 2.0, 1.0, 4.0]
    m = layer_metrics(tree)
    assert m["root.incl_s"] == 10.0 and m["root.self_s"] == 3.0
    assert m["a.calls"] == 1 and m["a.inner.calls"] == 1


def test_grouped_spans_count_one_call_per_entry():
    # a - b runs a + (-b): one add-group call, timed once
    tree = [["poly.Polynomial.__sub__", -1, 0.0, 4.0],
            ["poly.Polynomial.__add__", 0, 1.0, 2.0],
            ["poly.Polynomial.__add__", -1, 5.0, 6.0]]
    m = layer_metrics(tree)
    assert m["poly.Polynomial.add.calls"] == 2
    assert m["poly.Polynomial.add.incl_s"] == 5.0
    assert m["poly.Polynomial.add.self_s"] == 5.0
    assert m["layer.poly.self_s"] == 5.0


def test_reference_seconds_scale_by_neighbouring_calibrations():
    ref = run.CALIBRATION_REF_S
    cal = [ref, 2 * ref, ref]
    assert run.reference_seconds([3.0, 6.0], cal) == pytest.approx([2.0, 4.0])
    assert run.reference_seconds([1.5], [ref, ref]) == pytest.approx([1.5])


def _bindings():
    """Every attribute of every kahlerlab module and patched class."""
    import kahlerlab.cli  # noqa: F401
    seen = {}
    for _, mod in spans.kahlerlab_modules():
        seen.update({(mod, k): v for k, v in vars(mod).items()})
        short = mod.__name__.rsplit(".", 1)[-1]
        for cls_name in spans.METHODS.get(short, {}):
            cls = vars(mod)[cls_name]
            seen.update({(cls, k): v for k, v in vars(cls).items()})
    return seen


def test_every_binding_is_patched_then_restored(capsys):
    import kahlerlab.cli
    import kahlerlab.groebner as groebner
    import kahlerlab.presentations as presentations
    import kahlerlab.properties as properties
    before = _bindings()
    rec = Recorder()
    with rec:
        assert groebner.prune_rows is not before[(groebner, "prune_rows")]
        assert presentations.prune_rows is groebner.prune_rows
        assert all(s.__wrapped__ is o for s, o in zip(
            properties.ALL_SUITES, before[(properties, "ALL_SUITES")]))
        assert kahlerlab.cli.main(["rank", "-q", "1", "--module",
                                   "sym2:omega"] + CUSP) == 0
    assert "rank = " in capsys.readouterr().out
    names = {s[0] for s in rec.spans}
    assert {"cli.main", "presentations.rank", "groebner.nf_poly",
            "poly.Polynomial.__mul__"} <= names
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is v for k, v in before.items())


def test_originals_restored_when_the_run_raises():
    before = _bindings()
    try:
        with Recorder():
            raise KeyError("boom")
    except KeyError:
        pass
    after = _bindings()
    assert all(after[k] is v for k, v in before.items())


def test_tampered_digest_counts_as_failed(monkeypatch):
    request = ["regular", "--ring", "%s/cusp.ring" % run.CORPUS]
    monkeypatch.chdir(ROOT)
    with open(run.EXPECTED) as fh:
        expected = json.load(fh)
    good = run.run_pass([request], expected, deadline=1e18, traced=False)
    assert (good.attempted, good.failed) == (1, 0)
    key = run._key(request)
    tampered = dict(expected, **{key: dict(expected[key], sha256="0" * 64)})
    bad = run.run_pass([request], tampered, deadline=1e18, traced=False)
    assert (bad.attempted, bad.failed) == (1, 1)
    wrong_exit = dict(expected, **{key: dict(expected[key], exit=1)})
    assert run.run_pass([request], wrong_exit, 1e18, False).failed == 1


def test_request_past_the_ceiling_is_killed():
    got = run.run_process([sys.executable, "-c",
                           "import time; time.sleep(30)"], ceiling=0.5)
    assert got.code < 0 and got.wall_s < 10


def _traced_counts(hash_seed: str, tmp_path):
    out = tmp_path / ("spans-%s.json" % hash_seed)
    env = dict(os.environ, PYTHONHASHSEED=hash_seed,
               PYTHONPATH=os.path.join(ROOT, "src"))
    request = ["pd", "-q", "2", "--module", "omega", "--ring",
               "%s/ex316.ring" % run.CORPUS]
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "traced.py"), "--spans",
         str(out), "--"] + request,
        cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        timeout=120)
    with open(run.EXPECTED) as fh:
        want = json.load(fh)[run._key(request)]
    assert proc.returncode == want["exit"]
    assert hashlib.sha256(proc.stdout).hexdigest() == want["sha256"]
    doc = json.loads(out.read_text())
    named = [[doc["names"][s[0]]] + s[1:] for s in doc["spans"]]
    metrics = layer_metrics(named, doc["counts"])
    counts = {k: v for k, v in metrics.items() if not k.endswith("_s")}
    return counts, doc["caches"]


def test_layer_counts_repeat_across_runs_and_hash_seeds(tmp_path):
    first = _traced_counts("0", tmp_path)
    second = _traced_counts("3", tmp_path)
    assert first == second
    assert first[0]["groebner.prune_rows.calls"] > 0


def test_without_sources_the_benchmark_fails(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cold-rank",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        timeout=60)
    assert proc.returncode != 0 and proc.stdout == b""


def test_benchmark_json_matches_the_runner():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    with open(run.EXPECTED) as fh:
        expected = json.load(fh)
    assert sorted(expected) == sorted(
        run._key(r) for reqs in run.WORKLOADS.values() for r in reqs)
