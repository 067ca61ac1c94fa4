"""Byte-identity sweep: a fixed list of CLI requests run on two trees.

    python3 tools/stdout_sweep.py PARENT_SRC CHANGE_SRC

Each argument is a directory that holds the `kahlerlab` package, such as
a checkout's `src`.  Every request in REQUESTS runs once on each tree, as
its own `python -m kahlerlab.cli` process with that directory on
PYTHONPATH, two processes at a time, each stopped after TIMEOUT_S
seconds.  The rings are files in a temporary directory, which is the
working directory of every request, so both trees read the same input
and echo the same paths: the corpus rings copied from PARENT_SRC, and
the extra rings below.

A request differs when its exit code or the SHA-256 of its stdout is
not the same on both trees (stderr holds timings and is not compared).
Each request that differs or that timed out on either tree is printed,
then a summary; the exit code is 1 when a request differs, else 0.
"""

from __future__ import annotations

import hashlib
import os
import shutil
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

TIMEOUT_S = 60
WORKERS = 2

CORPUS = ("poly1", "poly2", "poly3", "cusp", "ex316")
EXTRA_RINGS = {
    "circle": "vars = [x, y];\nideal = [x^2 + y^2 - 1];\n"
              "assume_domain = true;\n",
    "xy": "vars = [x, y];\nideal = [x*y];\n",
    "weighted": "vars = [x, y, z];\nweights = [1, 2, 3];\n"
                "ideal = [x*z - y^2];\nassume_domain = true;\n",
    # the scalar sweep clears every generator: pd = 0, rank = 0
    "point": "vars = [x];\nideal = [x];\nassume_domain = true;\n",
    # k[t^3, t^4, t^5], a curve that is not a complete intersection
    "t345": "vars = [x, y, z];\nweights = [3, 4, 5];\n"
            "ideal = [y^2 - x*z, x^3 - y*z, z^2 - x^2*y];\n"
            "assume_domain = true;\n",
}
# rings swept at q = 1 alone; EXTRA_Q2 adds five ex316 requests and one
# t345 request at q = 2
Q1_ONLY = ("ex316", "weighted", "point", "t345")
SELECTORS = ("omega", "jets:omega", "sym2:omega", "jets:ring")
EXTRA_Q2 = (
    ("omega", "--ring", "ex316.ring", "-q", "2"),
    ("sym2", "--ring", "ex316.ring", "-q", "2"),
    ("theta", "--ring", "ex316.ring", "-q", "2", "--target", "first"),
    ("symderiv", "--ring", "ex316.ring", "-q", "2"),
    ("pd", "--ring", "ex316.ring", "-q", "2", "--module", "omega",
     "--cutoff", "3"),
    ("symderiv", "--ring", "t345.ring", "-q", "2"),
)


def _requests() -> List[Tuple[str, ...]]:
    out: List[Tuple[str, ...]] = []
    for name in (*CORPUS, *EXTRA_RINGS):
        ring = ("--ring", name + ".ring")
        for q in range(1, 2 if name in Q1_ONLY else 3):
            args = (*ring, "-q", str(q))
            out += [("omega", *args), ("sym2", *args), ("symderiv", *args)]
            out += [("jets", *args, "--module", m) for m in ("ring", "omega")]
            out += [("theta", *args, "--target", t) for t in ("first", "jets")]
            out += [(command, *args, "--module", s, "--cutoff", "3")
                    for command in ("resolve", "pd") for s in SELECTORS]
            out += [("rank", *args, "--module", s) for s in SELECTORS]
        out += [(command, *ring) for command in ("iota", "split", "regular")]
    out += [*EXTRA_Q2, ("verify-paper",)]
    return [(*argv, "--format", f) for argv in out
            for f in ("text", "structured")]


REQUESTS = _requests()


def write_rings(directory: Path, corpus_src: Path) -> None:
    """The corpus rings of the tree at corpus_src and the extra rings, as
    NAME.ring files in directory."""
    for name in CORPUS:
        shutil.copy(corpus_src / "kahlerlab" / "corpus" / (name + ".ring"),
                    directory)
    for name, text in EXTRA_RINGS.items():
        (directory / (name + ".ring")).write_text(text)


def run(src: Path, argv: Sequence[str],
        cwd: Path) -> Optional[Tuple[int, str]]:
    """The exit code and stdout SHA-256 of one request, or None when it
    ran past TIMEOUT_S."""
    env = dict(os.environ, PYTHONPATH=str(src))
    try:
        done = subprocess.run([sys.executable, "-m", "kahlerlab.cli", *argv],
                              cwd=cwd, env=env, capture_output=True,
                              timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None
    return done.returncode, hashlib.sha256(done.stdout).hexdigest()


def compare(parent: Path, change: Path, requests: Sequence[Sequence[str]],
            cwd: Path) -> Dict[str, List[Sequence[str]]]:
    """The requests that differ and those that timed out on either tree."""
    jobs = [(src, argv) for argv in requests for src in (parent, change)]
    with ThreadPoolExecutor(WORKERS) as pool:
        results = list(pool.map(lambda job: run(job[0], job[1], cwd), jobs))
    found: Dict[str, List[Sequence[str]]] = {"differ": [], "timed out": []}
    for argv, before, after in zip(requests, results[::2], results[1::2]):
        if before is None or after is None:
            found["timed out"].append(argv)
        elif before != after:
            found["differ"].append(argv)
    return found


def main(argv: Sequence[str]) -> int:
    if len(argv) != 2:
        sys.stderr.write("usage: python3 tools/stdout_sweep.py "
                         "PARENT_SRC CHANGE_SRC\n")
        return 2
    parent, change = (Path(a).resolve() for a in argv)
    with tempfile.TemporaryDirectory() as tmp:
        write_rings(Path(tmp), parent)
        found = compare(parent, change, REQUESTS, Path(tmp))
    for verdict, requests in found.items():
        for request in requests:
            print("%s: %s" % (verdict, " ".join(request)))
    print("summary: %d requests, %d differ, %d timed out"
          % (len(REQUESTS), len(found["differ"]), len(found["timed out"])))
    return 1 if found["differ"] else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
