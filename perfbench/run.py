"""kahlerlab benchmark: fixed CLI request mixes timed from outside the program.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  One client runs a closed loop: each request
is its own ``python -m kahlerlab.cli`` process, started when the previous
one has ended.  A pass runs the workload's requests once, in an order
shuffled by ``--seed``; passes repeat while the next one still fits in
``--seconds``.  Every request's exit code and stdout SHA-256 are checked
against ``perfbench/expected.json`` (recorded outputs); a mismatch, crash
or a request killed at the ceiling counts in ``failed``.

``--trace 0`` reports the end-to-end metrics, medians over the passes.
Times are reference seconds: each pass, and the set-up block, is scaled
by the run time of a fixed calibration program measured just before and
just after it (see CALIBRATION_CODE), which takes out the machine's speed
drift but none of the program's own cost.
``--trace 1`` alternates untraced passes with traced ones, whose requests
run through ``perfbench/traced.py`` (the CLI in-process with timing
wrappers around every public layer function) and reports the per-layer
metrics.  The last line of stdout is one JSON object.

``--workload all`` runs every workload in turn and prints a table.
``--record`` rewrites ``expected.json`` from the current program.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import select
import signal
import statistics
import sys
import time
from typing import Dict, List, NamedTuple, Optional

from spans import layer_metrics, merge

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".perfbench")
EXPECTED = os.path.join(HERE, "expected.json")
CORPUS = "src/kahlerlab/corpus"


def _ring(name: str) -> List[str]:
    return ["--ring", "%s/%s.ring" % (CORPUS, name)]


WORKLOADS: Dict[str, List[List[str]]] = {
    # the Groebner layer: prune_rows, syzygies, resolutions; no rank.  The
    # jets pd stops at cutoff 2: at the default 6 it alone takes 7-9 s,
    # leaving room for only two passes in a 40 s run.
    "cold-engine": [
        ["pd", "-q", "1", "--module", "jets:omega", "--cutoff", "2"]
        + _ring("ex316"),
        ["omega", "-q", "3"] + _ring("ex316"),
        ["pd", "-q", "2", "--module", "omega"] + _ring("ex316"),
        ["split"] + _ring("cusp"),
        ["resolve", "-q", "2", "--module", "sym2:omega"] + _ring("cusp"),
        ["symderiv"] + _ring("ex316"),
    ],
    # generic rank by minors: polynomial arithmetic and nf_poly
    "cold-rank": [
        ["rank", "-q", "2", "--module", "sym2:omega"] + _ring("cusp"),
        ["rank", "-q", "2", "--module", "jets:ring"] + _ring("ex316"),
        ["rank", "-q", "2", "--module", "omega"] + _ring("ex316"),
        ["rank", "-q", "1", "--module", "jets:omega"] + _ring("cusp"),
        ["rank", "-q", "1", "--module", "sym2:omega"] + _ring("ex316"),
        ["regular"] + _ring("ex316"),
        ["regular"] + _ring("cusp"),
    ],
    # the paper's headline command: eleven checks sharing warm caches
    "verify-session": [["verify-paper"]],
}
VERIFY_SUMMARY = b"summary: 11 passed, 0 failed, 0 skipped\n"

# A request running this long is killed and counted as failed (the
# slowest request takes about 4 s).  No request starts, and a running
# one is killed, once a run has lasted RUN_DEADLINE seconds.
REQUEST_CEILING = 60.0
RUN_DEADLINE = 150.0
SETUP_REPEATS = 9
SETUP_CODE = ("import glob, kahlerlab.cli\n"
              "from kahlerlab.parser import parse_ringspec\n"
              "for p in sorted(glob.glob(%r)):\n"
              "    parse_ringspec(open(p).read())\n" % (CORPUS + "/*.ring"))

# The speed of a shared virtual machine drifts by a third and more over
# minutes (steal time, contended cores), far beyond any bound a change
# could be held to.  A fixed stdlib-only program, exact rational sums in a
# dict like kahlerlab's inner loops but sharing no code with it, runs
# before and after every timed block; each block's seconds are scaled to
# the speed at which this program takes CALIBRATION_REF_S.
CALIBRATION_CODE = (
    "import random\n"
    "from fractions import Fraction\n"
    "r = random.Random(1)\n"
    "d = {}\n"
    "for i in range(40000):\n"
    "    k = (r.randrange(8), r.randrange(8))\n"
    "    d[k] = d.get(k, Fraction(0)) + "
    "Fraction(r.randrange(-9, 10), r.randrange(1, 5))\n")
CALIBRATION_REF_S = 0.3

END_TO_END = {"setup_s": "s", "wall_s": "s", "cpu_s": "s",
              "max_request_s": "s", "peak_rss_mb": "MB"}

_SPAN_FIELDS = (
    ("groebner.prune_rows",
     ("calls", "incl_s", "self_s", "rows_in", "rows_out", "kept_ratio")),
    ("groebner.submodule_over_ring", ("calls",)),
    ("groebner.SubmoduleBasis.groebner", ("calls", "self_s")),
    ("groebner.SubmoduleBasis.contains", ("calls", "incl_s")),
    ("groebner.syzygies_over_ring", ("calls", "self_s", "rows_out")),
    ("groebner.nf_poly", ("calls", "incl_s")),
    ("groebner.solve_linear", ("calls", "self_s")),
    ("resolution.free_resolution", ("incl_s",)),
    ("resolution.minimalize", ("incl_s",)),
    ("resolution.projective_dimension", ("incl_s",)),
    ("resolution.jacobian_regular", ("incl_s",)),
    ("presentations.kernel", ("calls", "incl_s")),
    ("presentations.check_exact", ("incl_s",)),
    ("presentations.element_is_zero", ("calls",)),
    ("presentations.rank", ("calls", "incl_s", "self_s")),
    ("presentations.symmetric_square", ("incl_s",)),
    ("poly.Polynomial.mul", ("calls", "self_s")),
    ("poly.Polynomial.add", ("calls", "self_s")),
    ("diffmod.delta_expand", ("calls", "self_s")),
    ("diffmod.jet_expand", ("calls", "self_s")),
    ("diffmod.omega_presentation", ("incl_s",)),
    ("diffmod.jq_presentation", ("incl_s",)),
    ("diffmod.symmetric_derivation_solve", ("incl_s",)),
    ("diffmod.symmetric_derivation_oracle", ("incl_s",)),
    ("properties.suites", ("incl_s",)),
    ("parser.parse_ringspec", ("incl_s",)),
    ("parser.presentation_text", ("incl_s",)),
    ("parser.resolution_text", ("incl_s",)),
)
CACHES = ("diffmod._expansion_coords", "diffmod._omega_default",
          "diffmod.jq_presentation", "diffmod.iota_sym_to_omega2",
          "diffmod.symmetric_derivation_solve", "groebner.ring_groebner",
          "presentations.relation_basis", "resolution.free_resolution",
          "resolution.minimalize")
LAYER_NAMES = ("cli", "parser", "poly", "groebner", "presentations",
               "diffmod", "resolution", "properties")


def _unit(field: str) -> str:
    if field.endswith("_s"):
        return "s"
    return "ratio" if field.endswith("ratio") else "count"


PER_LAYER: Dict[str, str] = {}
for _name, _fields in _SPAN_FIELDS:
    for _field in _fields:
        PER_LAYER["%s.%s" % (_name, _field)] = _unit(_field)
for _layer in LAYER_NAMES:
    PER_LAYER["layer.%s.self_s" % _layer] = "s"
for _cache in CACHES:
    PER_LAYER["cache.%s.hits" % _cache] = "count"
    PER_LAYER["cache.%s.misses" % _cache] = "count"
PER_LAYER["cache.hit_ratio"] = "ratio"
PER_LAYER["trace.overhead_ratio"] = "ratio"


# ---------------------------------------------------------------------------
# running one process


class Outcome(NamedTuple):
    wall_s: float
    cpu_s: float
    rss_mb: float
    code: int          # exit code; negative: killed by that signal
    stdout: bytes


def _env() -> Dict[str, str]:
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] \
        if env.get("PYTHONPATH") else src
    return env


def run_process(argv: List[str], ceiling: float) -> Outcome:
    """Run argv with stdout to a file; kill it after `ceiling` seconds."""
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, "stdout")
    actions = [(os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
               (os.POSIX_SPAWN_OPEN, 1, path,
                os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
               (os.POSIX_SPAWN_OPEN, 2, os.devnull, os.O_WRONLY, 0)]
    start = time.perf_counter()
    pid = os.posix_spawn(argv[0], argv, _env(), file_actions=actions)
    try:
        _wait_exit(pid, ceiling)
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        os.wait4(pid, 0)
        raise
    _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - start
    with open(path, "rb") as fh:
        stdout = fh.read()
    return Outcome(wall, usage.ru_utime + usage.ru_stime,
                   usage.ru_maxrss / 1024.0,
                   os.waitstatus_to_exitcode(status), stdout)


def _wait_exit(pid: int, ceiling: float) -> None:
    """Return once pid has exited (not reaped), killing it at the ceiling."""
    fd = os.pidfd_open(pid)
    try:
        if not select.select([fd], [], [], max(ceiling, 0.0))[0]:
            os.kill(pid, signal.SIGKILL)
    finally:
        os.close(fd)


def _cli(request: List[str]) -> List[str]:
    return [sys.executable, "-m", "kahlerlab.cli"] + request


def _traced(request: List[str], spans_path: str) -> List[str]:
    return [sys.executable, os.path.join(HERE, "traced.py"),
            "--spans", spans_path, "--"] + request


def _key(request: List[str]) -> str:
    return " ".join(request)


def _is_correct(request: List[str], got: Outcome, expected: dict) -> bool:
    want = expected.get(_key(request))
    if want is None or got.code != want["exit"]:
        return False
    if hashlib.sha256(got.stdout).hexdigest() != want["sha256"]:
        return False
    return request[0] != "verify-paper" or got.stdout.endswith(VERIFY_SUMMARY)


# ---------------------------------------------------------------------------
# passes


class Pass(NamedTuple):
    wall_s: float
    cpu_s: float
    max_request_s: float
    peak_rss_mb: float
    attempted: int
    failed: int
    layers: Optional[Dict[str, float]]   # traced passes only
    spans: list      # traced: (request, traced.py's JSON text) pairs


def run_pass(requests: List[List[str]], expected: dict, deadline: float,
             traced: bool) -> Pass:
    outcomes, failed, layers, spans = [], 0, [], []
    spans_path = os.path.join(OUT, "spans.json")
    for request in requests:
        left = min(REQUEST_CEILING, deadline - time.perf_counter())
        if left <= 0:
            failed += 1
            continue
        argv = _traced(request, spans_path) if traced else _cli(request)
        got = run_process(argv, left)
        outcomes.append(got)
        if not _is_correct(request, got, expected):
            failed += 1
        elif traced:
            with open(spans_path) as fh:
                text = fh.read()
            doc = json.loads(text)
            named = [[doc["names"][s[0]]] + s[1:] for s in doc["spans"]]
            part = layer_metrics(named, doc["counts"])
            for cache, (hits, misses) in doc["caches"].items():
                part["cache.%s.hits" % cache] = hits
                part["cache.%s.misses" % cache] = misses
            layers.append(part)
            spans.append((_key(request), text))
    return Pass(sum(o.wall_s for o in outcomes),
                sum(o.cpu_s for o in outcomes),
                max((o.wall_s for o in outcomes), default=0.0),
                max((o.rss_mb for o in outcomes), default=0.0),
                len(requests), failed, merge(layers) if traced else None,
                spans)


def _time_code(code: str, repeats: int) -> List[float]:
    """Wall times of `repeats` fresh interpreters running `code`."""
    times = []
    for _ in range(repeats):
        got = run_process([sys.executable, "-c", code], REQUEST_CEILING)
        if got.code != 0:
            raise RuntimeError("%r exited with code %d" % (code[:40], got.code))
        times.append(got.wall_s)
    return times


def measure_setup(repeats: int) -> float:
    """Median wall time of a fresh interpreter importing the CLI and
    parsing the corpus ring files."""
    return statistics.median(_time_code(SETUP_CODE, repeats))


def calibrate() -> float:
    return _time_code(CALIBRATION_CODE, 1)[0]


def reference_seconds(seconds: List[float],
                      calibration: List[float]) -> List[float]:
    """Scale block i's seconds by CALIBRATION_REF_S over the mean of the
    calibration runs just before (calibration[i]) and after it."""
    return [t * 2 * CALIBRATION_REF_S / (a + b)
            for t, a, b in zip(seconds, calibration, calibration[1:])]


def _layer_values(traced: List[Pass], untraced: List[Pass]) -> Dict[str, float]:
    values = {}
    for name in PER_LAYER:
        values[name] = statistics.median(p.layers.get(name, 0) for p in traced)
    rows_in = values["groebner.prune_rows.rows_in"]
    values["groebner.prune_rows.kept_ratio"] = \
        values["groebner.prune_rows.rows_out"] / rows_in if rows_in else 0.0
    hits = sum(values["cache.%s.hits" % c] for c in CACHES)
    lookups = hits + sum(values["cache.%s.misses" % c] for c in CACHES)
    values["cache.hit_ratio"] = hits / lookups if lookups else 0.0
    values["trace.overhead_ratio"] = (
        statistics.median(p.wall_s for p in traced)
        / statistics.median(p.wall_s for p in untraced))
    return values


def _write_spans(workload: str, traced: List[Pass]) -> None:
    """All spans of the run's traced passes: one JSON line per request,
    whose line number is its request id.  Replaces the workload's last file."""
    path = os.path.join(OUT, "spans-%s.jsonl" % workload)
    with open(path, "w") as fh:
        for k, p in enumerate(traced):
            for label, doc in p.spans:
                fh.write('{"pass": %d, "request": %s, "trace": %s}\n'
                         % (k, json.dumps(label), doc))


def run_workload(workload: str, seed: int, seconds: float,
                 trace: bool) -> dict:
    with open(EXPECTED) as fh:
        expected = json.load(fh)
    rng = random.Random(seed)
    start = time.perf_counter()
    deadline = start + RUN_DEADLINE
    measure_setup(1)  # warm-up: bytecode and file caches
    if not trace:
        before = calibrate()
        setup = measure_setup(SETUP_REPEATS)
        calibration = [calibrate()]
        setup = reference_seconds([setup], [before, calibration[0]])[0]
    untraced: List[Pass] = []
    traced: List[Pass] = []
    while True:
        cycle = time.perf_counter()
        for is_traced in ((False, True) if trace else (False,)):
            order = WORKLOADS[workload][:]
            rng.shuffle(order)
            p = run_pass(order, expected, deadline, is_traced)
            (traced if is_traced else untraced).append(p)
            note = ""
            if not trace:
                calibration.append(calibrate())
                note = "; calibration %.3fs" % calibration[-1]
            print("%s pass: wall %.3fs cpu %.3fs, %d of %d failed%s"
                  % ("traced" if is_traced else "untraced", p.wall_s,
                     p.cpu_s, p.failed, p.attempted, note), file=sys.stderr)
        now = time.perf_counter()
        failed = sum(p.failed for p in untraced + traced)
        if failed or now + (now - cycle) > start + seconds:
            break
    attempted = sum(p.attempted for p in untraced + traced)
    if trace:
        if not failed:
            _write_spans(workload, traced)
            values = _layer_values(traced, untraced)
        else:
            values = dict.fromkeys(PER_LAYER, 0.0)
        units = PER_LAYER
    else:
        values = {"setup_s": setup}
        for field in ("wall_s", "cpu_s", "max_request_s"):
            values[field] = statistics.median(reference_seconds(
                [getattr(p, field) for p in untraced], calibration))
        values["peak_rss_mb"] = statistics.median(p.peak_rss_mb
                                                  for p in untraced)
        units = END_TO_END
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": values[name], "unit": unit}
                        for name, unit in units.items()}}


def record() -> None:
    """Write every request's exit code and stdout digest to expected.json."""
    expected = {}
    for requests in WORKLOADS.values():
        for request in requests:
            got = run_process(_cli(request), REQUEST_CEILING)
            expected[_key(request)] = {
                "exit": got.code,
                "sha256": hashlib.sha256(got.stdout).hexdigest()}
            print("%-50s exit %d  %.2fs" % (_key(request), got.code,
                                           got.wall_s), file=sys.stderr)
    with open(EXPECTED, "w") as fh:
        json.dump(expected, fh, indent=1, sort_keys=True)
        fh.write("\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="rewrite expected.json from the current program")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "kahlerlab", "cli.py")):
        print("error: no kahlerlab sources under %s" % ROOT, file=sys.stderr)
        return 2
    os.chdir(ROOT)
    if args.record:
        record()
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if args.workload != "all":
        result = run_workload(args.workload, args.seed, args.seconds,
                              bool(args.trace))
        print(json.dumps(result))
        return 0
    results = {}
    for name in WORKLOADS:
        results[name] = run_workload(name, args.seed, args.seconds,
                                     bool(args.trace))
        for metric, m in results[name]["metrics"].items():
            print("%-16s %-44s %14.6f %s" % (name, metric, m["value"],
                                             m["unit"]))
    print(json.dumps(results))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
