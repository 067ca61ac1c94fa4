"""The byte-identity sweep in tools/stdout_sweep.py: its request list
parses, and it reports a difference exactly where stdout differs."""

import importlib.util
import shutil
from pathlib import Path
from types import SimpleNamespace

from kahlerlab.cli import _parse_args

REPO = Path(__file__).resolve().parents[1]
SRC = REPO / "src"
_SPEC = importlib.util.spec_from_file_location(
    "stdout_sweep", REPO / "tools" / "stdout_sweep.py")
sweep = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(sweep)

CHEAP = [("regular", "--ring", "cusp.ring", "--format", "text"),
         ("omega", "--ring", "poly2.ring", "--format", "structured")]


def test_every_request_parses():
    assert len(set(sweep.REQUESTS)) == len(sweep.REQUESTS) > 500
    for argv in sweep.REQUESTS:
        assert isinstance(_parse_args(argv), SimpleNamespace), argv


def test_the_tree_matches_itself(tmp_path):
    sweep.write_rings(tmp_path, SRC)
    assert sweep.compare(SRC, SRC, CHEAP, tmp_path) == {
        "differ": [], "timed out": []}


def test_the_sweep_sees_a_changed_stdout(tmp_path):
    changed = tmp_path / "changed"
    shutil.copytree(SRC / "kahlerlab", changed / "kahlerlab",
                    ignore=shutil.ignore_patterns("__pycache__"))
    cli = changed / "kahlerlab" / "cli.py"
    cli.write_text(cli.read_text().replace('"regular = %s\\n"',
                                           '"regular: %s\\n"'))
    sweep.write_rings(tmp_path, SRC)
    assert sweep.compare(SRC, changed, CHEAP, tmp_path) == {
        "differ": [CHEAP[0]], "timed out": []}
