"""Command-line workbench.

Subcommands build presentations and maps from a ring file, run the
canonical checks, and emit deterministic reports::

    omega | jets | sym2        presentations of the differential modules
    theta | iota | split       canonical maps and the split exact sequence
    symderiv                   derivation solver vs. independent oracle
    resolve | pd | rank        homological invariants of a chosen module
    regular                    Jacobian regularity of the ring itself
    verify-paper               the full verification table over a corpus

The table COMMANDS drives both argv parsing, which reads argv as argparse
did (`--opt V`, `--opt=V`, unique prefixes, `-qN`, `-q=N`; the last repeat
wins), and -h/--help, which prints to stdout and exits 0.

Exit codes: 0 success, 1 mathematical check failure (verify-paper
mismatch, solver/oracle disagreement), 2 a usage error (usage and error
on stderr) or an input error, such as a ring file or --basis nested more
than parser.NESTING_LIMIT brackets deep.  Timing goes to stderr so stdout
stays byte-identical across repeated runs.
"""

from __future__ import annotations

import random
import re
import sys
import time
from fractions import Fraction
from types import SimpleNamespace
from typing import Dict, List, Optional, Sequence, Tuple, Union

from .poly import format_polynomial
from .parser import (
    RingParseError,
    RingSpec,
    map_document,
    map_text,
    parse_monomials,
    parse_poly,
    parse_ringspec,
    presentation_document,
    presentation_text,
    resolution_document,
    resolution_text,
    statements_text,
)
from .groebner import submodule_over_ring
from .presentations import (
    Presentation,
    check_exact,
    check_well_defined,
    cokernel,
    kernel,
    presentation_is_zero,
    rank,
    ring_as_module,
    symmetric_square,
    verify_splitting,
    zero_map,
    zero_presentation,
)
from .diffmod import (
    SymmetricDerivation,
    delta_expand,
    iota_sym_to_omega2,
    jets_of_ring,
    jq_presentation,
    omega_presentation,
    splitting_t,
    symmetric_derivation_oracle,
    symmetric_derivation_solve,
    theta_to_first,
    theta_to_jets,
)
from .resolution import (
    AtLeast,
    Finite,
    free_resolution,
    jacobian_regular,
    minimal_resolution,
    projective_dimension,
)
from . import properties


# ---------------------------------------------------------------------------
# the command table: it parses argv and prints -h/--help alike


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise ValueError("expected an integer, got %r" % text) from None
    if value < 1:
        raise ValueError("expected a positive integer, got %d" % value)
    return value


# An option is (flag, type or tuple of choices, default, metavar, help); a
# default of ... marks the option required.
_RING = ("--ring", str, ..., "FILE",
         "ring file (vars/weights/ideal statements)")
_Q = ("-q", _positive_int, 1, "Q", "differential order (default 1)")
_FORMAT = ("--format", ("text", "structured"), "text", None,
           "a report, or a JSON envelope echoing the request (default text)")
_CUTOFF = ("--cutoff", _positive_int, 6, "CUTOFF",
           "resolution cutoff (default 6)")
# the selector mini-syntax composes constructions: jets:omega is J_q
# applied to Omega^(q), sym2:omega the symmetric square, jets:ring J_q(R)
_MODULE = ("--module", ("omega", "jets:omega", "sym2:omega", "jets:ring"),
           "omega", "MODULE",
           "omega (default), jets:omega, sym2:omega or jets:ring")

COMMANDS = {
    "omega": ("presentation of Omega^(q)", (_RING, _Q, (
        "--basis", str, None, "MONOMIALS",
        "comma-separated symbol order, e.g. \"x^2,y^2,x*y,x,y\""), _FORMAT)),
    "jets": ("presentation of J_q of the ring or of Omega^(q)", (
        _RING, _Q, ("--module", ("ring", "omega"), "ring", None,
                    "which module to build (default ring)"), _FORMAT)),
    "sym2": ("presentation of S^2(Omega^(q))", (_RING, _Q, _FORMAT)),
    "theta": ("the map Omega^(2q) -> Omega^(q) targets, or into jets", (
        _RING, _Q, ("--target", ("first", "jets"), "first", None,
                    "contract to Omega^1 or embed into jets"), _FORMAT)),
    "iota": ("the inclusion S^2(Omega^1) -> Omega^2", (_RING, _FORMAT)),
    "split": ("exactness and splitting of the symmetric-square sequence",
              (_RING, _FORMAT)),
    "symderiv": ("symmetric-derivation solver cross-checked by an oracle", (
        _RING, _Q, ("--degree-bound", _positive_int, 6, "DEGREE_BOUND",
                    "oracle ansatz degree for rings that are not "
                    "homogeneous"), _FORMAT)),
    "resolve": ("free resolution of a module",
                (_RING, _Q, _MODULE, _CUTOFF, _FORMAT)),
    "pd": ("projective-dimension verdict",
           (_RING, _Q, _MODULE, _CUTOFF, _FORMAT)),
    "rank": ("generic rank of a module (domain rings)",
             (_RING, _Q, _MODULE, _FORMAT)),
    "regular": ("Jacobian regularity of the ring", (_RING, _FORMAT)),
    "verify-paper": ("run the full verification table over a corpus", (
        ("--corpus", str, None, "DIR",
         "directory of .ring files (default: shipped corpus)"),
        ("--cases", _positive_int, 200, "CASES",
         "randomized cases per property suite (default 200)"), _FORMAT)),
}
_HELP = ("-h", "--help")
_NUMBER = re.compile(r"^-\d+$|^-\d*\.\d+$")


def _usage(command: Optional[str], full: bool = False) -> str:
    """The usage line of the program or of one command; with full, the
    whole -h/--help text."""
    options = COMMANDS[command][1] if command else ()
    spelt = ["%s %s" % (o[0], o[3] or "{%s}" % ",".join(o[1]))
             for o in options]
    text = "usage: kahlerlab %s\n" % (" ".join([command, "[-h]"] + [
        s if o[2] is ... else "[%s]" % s for s, o in zip(spelt, options)])
        if command else "[-h] COMMAND ...")
    if not full:
        return text
    if command is None:
        about = ("exact workbench for differential modules over "
                 "Q[x_1..x_s]/I; COMMAND -h lists its options")
        rows = [(name, entry[0]) for name, entry in COMMANDS.items()]
    else:
        about, rows = COMMANDS[command][0], zip(spelt, (o[4] for o in options))
    return "%s\n%s\n\n%s" % (text, about, "".join(
        "  %-29s%s\n" % row for row in rows))


def _classify(tokens: Sequence[str], flags) -> list:
    """How argparse reads each token: None for a positional, else the flag
    it names (None for an unknown option) and the value attached to it."""
    kinds, rest = [], False
    for token in tokens:
        kind = None if rest or token[:1] != "-" or token == "-" \
            else (None, None)
        if kind and token[:2] == "--" and token != "--":  # or a prefix
            name, eq, value = token.partition("=")
            hits = [f for f in flags if f == name] or \
                [f for f in flags if f.startswith(name)]
            if len(hits) > 1:
                raise ValueError("ambiguous option: %s could match %s"
                                 % (token, ", ".join(hits)))
            kind = (hits[0], value if eq else None) if hits else kind
        elif kind and token[:2] in flags:  # -q, -qN and -q=N
            value = token[2:]
            kind = token[:2], value[value[:1] == "=":] if value else None
        if kind == (None, None) and token != "--" and (
                _NUMBER.match(token) or " " in token):
            kind = None
        kinds.append(kind)
        rest = rest or token == "--"  # every later token is positional
    return kinds


def _parse_args(argv: Sequence[str]) -> Union[SimpleNamespace, int]:
    """The request argv names, read with argparse's syntax, or the exit
    code once -h/--help (0) or a usage error (2) has been printed."""
    command, options, values, strays = None, {}, {}, []
    try:
        kinds, i = _classify(argv, _HELP), 0
        while i < len(argv):
            kind, token, i = kinds[i], argv[i], i + 1
            if command is None and (kind is None or token == "--"):
                if token not in COMMANDS:
                    raise ValueError("argument command: invalid choice: %r "
                                     "(choose from %s)"
                                     % (token, ", ".join(COMMANDS)))
                command, options = token, {o[0]: o for o in COMMANDS[token][1]}
                values = {flag: o[2] for flag, o in options.items()}
                kinds[i:] = _classify(argv[i:], _HELP + tuple(options))
            elif kind is None or kind[0] is None:
                strays.append(token)
            elif kind[0] in _HELP:
                # argparse reads the letters after -h as more short flags
                chain = kind[1].lstrip("h") if kind[0] == "-h" and kind[1] \
                    else "?"
                if kind[1] is not None and chain and not (
                        "-" + chain[0] in options and (
                            chain[1:] or i < len(argv) and kinds[i] is None)):
                    raise ValueError("argument -h/--help: ignored explicit "
                                     "argument %r" % kind[1])
                sys.stdout.write(_usage(command, full=True))
                return 0
            else:
                flag, value = kind
                if value is None:
                    if i == len(argv) or kinds[i] is not None:
                        raise ValueError("argument %s: expected one argument"
                                         % flag)
                    value, i = argv[i], i + 1
                convert = options[flag][1]
                try:
                    if isinstance(convert, tuple) and value not in convert:
                        raise ValueError("invalid choice: %r (choose from %s)"
                                         % (value, ", ".join(convert)))
                    values[flag] = value if isinstance(convert, tuple) \
                        else convert(value)
                except ValueError as e:
                    raise ValueError("argument %s: %s" % (flag, e)) from None
        missing = [f for f, v in values.items() if v is ...] if command \
            else ["command"]
        if missing or strays:
            raise ValueError(
                "the following arguments are required: " + ", ".join(missing)
                if missing else "unrecognized arguments: " + " ".join(strays))
    except ValueError as e:
        sys.stderr.write("%skahlerlab%s: error: %s\n" % (
            _usage(command), " " + command if command else "", e))
        return 2
    return SimpleNamespace(command=command, **{
        flag.lstrip("-").replace("-", "_"): v for flag, v in values.items()})


def _load_ring(path) -> RingSpec:
    """The ring in a file; a parse or decode error names the file."""
    try:
        with open(path) as fh:
            return parse_ringspec(fh.read())
    except (RingParseError, UnicodeDecodeError) as e:
        raise RingParseError("%s: %s" % (path, e)) from None


def _select_module(ring: RingSpec, q: int, selector: str) -> Presentation:
    if selector == "omega":
        return omega_presentation(ring, q)
    if selector == "jets:omega":
        return jq_presentation(omega_presentation(ring, q), q)
    if selector == "sym2:omega":
        return symmetric_square(omega_presentation(ring, q))
    if selector == "jets:ring":
        return jq_presentation(ring_as_module(ring), q)
    raise ValueError("unknown module selector %r" % selector)


# ---------------------------------------------------------------------------
# the split sequence and the solver/oracle pair (shared with verify-paper)


def _split_sequence(ring: RingSpec, derivation) -> Tuple[List[bool], bool]:
    """Exactness verdicts for 0 -> S^2(O^1) -> O^2 -> O^1 -> 0 and whether
    the derivation-built retraction halves back to the identity."""
    iota = iota_sym_to_omega2(ring)
    theta = theta_to_first(ring, 2)
    left = zero_map(zero_presentation(ring), iota.source)
    right = zero_map(theta.target, zero_presentation(ring))
    exact = check_exact([left, iota, theta, right])
    splitting = False
    if derivation is not None:
        t = splitting_t(derivation)
        splitting = check_well_defined(t) and \
            verify_splitting(iota, t, Fraction(1, 2))
    return exact, splitting


def _kernel_matches_image(ring: RingSpec) -> bool:
    """kernel(theta) == image(iota) as submodules of Omega^2."""
    iota = iota_sym_to_omega2(ring)
    theta = theta_to_first(ring, 2)
    ker, incl = kernel(theta)
    image = submodule_over_ring(list(iota.columns), iota.target.ngens, ring)
    if not all(image.contains(col) for col in incl.columns):
        return False
    span = submodule_over_ring(
        list(incl.columns) + list(theta.source.relations),
        theta.source.ngens, ring)
    return all(span.contains(col) for col in iota.columns)


# ---------------------------------------------------------------------------
# verification table


class VerifyFailure(Exception):
    pass


def _expect(cond: bool, detail: str) -> None:
    if not cond:
        raise VerifyFailure(detail)


_CORPUS_NAMES = ("poly1", "poly2", "poly3", "cusp", "ex316")

_CUSP_BASIS = ((2, 0), (0, 2), (1, 1), (1, 0), (0, 1))
_CUSP_MATRIX = (
    ("-3*x", "1", "0", "3*x^2", "0"),
    ("-6*x^2", "x", "2*y", "7*x^3", "-2*x*y"),
    ("-3*x*y", "3*y", "-3*x^2", "6*x^2*y", "-x^3"),
)
_CUSP_SHIFTS = ("1", "x", "y")


def _check_rank_formula(rings, cases):
    from math import comb
    for name, orders in (("poly1", (1, 2)), ("poly2", (1, 2)),
                         ("poly3", (2,))):
        ring = rings[name]
        s = len(ring.variables)
        for q in orders:
            m = omega_presentation(ring, q)
            _expect(m.relations == (),
                    "%s: Omega^(%d) should be free" % (name, q))
            got, want = rank(m), comb(q + s, s) - 1
            _expect(got == want, "%s: rank(Omega^(%d)) = %d, expected %d"
                    % (name, q, got, want))


def _check_rank_table(rings, cases):
    ring = rings["poly2"]
    omega1 = omega_presentation(ring, 1)
    omega2 = omega_presentation(ring, 2)
    table = (
        ("Omega^1", omega1, 2),
        ("Omega^2", omega2, 5),
        ("J_1(Omega^1)", jq_presentation(omega1, 1), 6),
        ("J_2(Omega^2)", jq_presentation(omega2, 2), 30),
        ("S^2(Omega^1)", symmetric_square(omega1), 3),
    )
    for label, module, want in table:
        got = rank(module)
        _expect(got == want, "rank(%s) = %d, expected %d" % (label, got, want))


def _check_cusp_matrix(rings, cases):
    ring = rings["cusp"]
    _expect(len(ring.ideal) == 1, "cusp ring must be a hypersurface")
    f = ring.ideal[0]
    order = ring.order()
    for shift_text, want in zip(_CUSP_SHIFTS, _CUSP_MATRIX):
        g = parse_poly(shift_text, ring)
        row = delta_expand(g * f, ring, 2, _CUSP_BASIS)
        got = tuple(format_polynomial(c, order) for c in row)
        _expect(got == want, "expansion of %s*f: got [%s], expected [%s]"
                % (shift_text, ", ".join(got), ", ".join(want)))
    m = omega_presentation(ring, 2, basis=_CUSP_BASIS)
    got = tuple(tuple(format_polynomial(c, order) for c in row)
                for row in m.relations)
    _expect(got == _CUSP_MATRIX,
            "Omega^2 relation matrix: got %r, expected %r"
            % (got, _CUSP_MATRIX))


def _check_split_plane(rings, cases):
    ring = rings["poly2"]
    out = symmetric_derivation_solve(ring, 1)
    _expect(isinstance(out, SymmetricDerivation),
            "no symmetric derivation on the plane")
    _expect(all(all(c.is_zero() for c in img) for img in out.images),
            "plane derivation should have zero generator images")
    exact, splitting = _split_sequence(ring, out)
    _expect(exact == [True, True, True], "sequence not exact: %r" % exact)
    _expect(_kernel_matches_image(ring), "kernel(theta) != image(iota)")
    _expect(splitting, "retraction is not a splitting")


def _check_theta_jets(rings, cases):
    for name in ("poly1", "poly2"):
        for q in (1, 2):
            theta = theta_to_jets(rings[name], q)
            k, _ = kernel(theta)
            _expect(k.ngens == 0,
                    "theta into jets has kernel on %s at q=%d" % (name, q))
    _expect(presentation_is_zero(cokernel(theta_to_jets(rings["poly1"], 1))),
            "theta into jets is not onto for one variable at q=1")
    _expect(not presentation_is_zero(cokernel(theta_to_jets(rings["poly2"], 1))),
            "theta into jets should miss a generator on the plane")


def _check_cusp_resolutions(rings, cases):
    ring = rings["cusp"]
    omega1 = omega_presentation(ring, 1)
    omega2 = omega_presentation(ring, 2)
    sym = symmetric_square(omega1)
    for label, module, want in (("Omega^1", omega1, (2, 1)),
                                ("Omega^2", omega2, (5, 3)),
                                ("S^2(Omega^1)", sym, (3, 2))):
        r = free_resolution(module, cutoff=6)
        _expect(r.betti == want, "%s: betti %r, expected %r"
                % (label, r.betti, want))
        _expect(r.terminated, "%s: resolution did not terminate" % label)
        verdict = projective_dimension(module)
        _expect(verdict == Finite(1), "%s: %s, expected pd = 1"
                % (label, verdict))
    # J_1(Omega^1) has a fourth independent minimal relation (the reduction
    # of D(y*r)), so its minimal resolution does not stop at (5, 3): it
    # continues with the periodic matrix-factorization pair of f.
    jets = jq_presentation(omega1, 1)
    _expect(jets.ngens == 6, "J_1(Omega^1): %d generators, expected six"
            % jets.ngens)
    mr = minimal_resolution(jets, 6)
    _expect(mr.betti == (5, 4, 2, 2, 2, 2, 2),
            "J_1(Omega^1): minimal betti %r, expected (5, 4, 2, 2, 2, 2, 2)"
            % (mr.betti,))
    _expect(not mr.terminated,
            "J_1(Omega^1): resolution terminated unexpectedly")
    verdict = projective_dimension(jets)
    _expect(verdict == AtLeast(6), "J_1(Omega^1): %s, expected pd >= 6"
            % verdict)


def _check_jets_of_ring(rings, cases):
    for name in ("poly1", "poly2", "cusp"):
        for n in (1, 2):
            phi = jets_of_ring(rings[name], n)
            _expect(check_well_defined(phi),
                    "jet decomposition ill-defined on %s at n=%d" % (name, n))
            k, _ = kernel(phi)
            _expect(k.ngens == 0,
                    "jet decomposition has kernel on %s at n=%d" % (name, n))
            _expect(presentation_is_zero(cokernel(phi)),
                    "jet decomposition not onto on %s at n=%d" % (name, n))


def _check_weighted_pd(rings, cases):
    ring = rings["ex316"]
    pd1 = projective_dimension(omega_presentation(ring, 1), cutoff=6)
    _expect(pd1 == Finite(1), "pd(Omega^1) = %s, expected pd = 1" % pd1)
    r = minimal_resolution(omega_presentation(ring, 2), 5)
    _expect(not r.terminated, "Omega^2 resolution terminated unexpectedly")
    _expect(len(r.betti) == 6 and all(b > 0 for b in r.betti),
            "Omega^2 betti %r should be positive through the cutoff"
            % (r.betti,))
    pd2 = projective_dimension(omega_presentation(ring, 2), cutoff=5)
    _expect(pd2 == AtLeast(5), "pd(Omega^2) = %s, expected pd >= 5" % pd2)


def _check_symderiv_consistency(rings, cases):
    for name in ("cusp", "ex316"):
        found = isinstance(symmetric_derivation_solve(rings[name], 1),
                           SymmetricDerivation)
        oracle = symmetric_derivation_oracle(rings[name], 1)
        _expect(found == oracle,
                "%s: solver says %s, oracle says %s"
                % (name, found, oracle))
    for name in sorted(rings):
        got = symmetric_derivation_solve(rings[name], 1)
        if isinstance(got, SymmetricDerivation):
            exact, splitting = _split_sequence(rings[name], got)
            _expect(exact == [True, True, True],
                    "%s: sequence not exact: %r" % (name, exact))
            _expect(_kernel_matches_image(rings[name]),
                    "%s: kernel(theta) != image(iota)" % name)
            _expect(splitting, "%s: retraction is not a splitting" % name)


def _check_pd_sweep(rings, cases):
    for name in sorted(rings):
        cutoff2 = 5 if name == "ex316" else 6
        pd1 = projective_dimension(omega_presentation(rings[name], 1),
                                   cutoff=6)
        pd2 = projective_dimension(omega_presentation(rings[name], 2),
                                   cutoff=cutoff2)
        _expect(not (isinstance(pd2, Finite) and isinstance(pd1, AtLeast)),
                "%s: pd(Omega^2) finite while pd(Omega^1) exceeds the cutoff"
                % name)


def _check_property_suites(rings, cases):
    for i, suite in enumerate(properties.ALL_SUITES):
        rng = random.Random(7000 + i)
        ran = suite(rng, cases)
        _expect(ran >= cases, "%s ran %d of %d cases"
                % (suite.__name__, ran, cases))


_VERIFY_ITEMS = (
    ("rank-formula-free-rings", ("poly1", "poly2", "poly3"),
     _check_rank_formula),
    ("rank-table-plane", ("poly2",), _check_rank_table),
    ("cusp-relation-matrix", ("cusp",), _check_cusp_matrix),
    ("split-exact-sequence-plane", ("poly2",), _check_split_plane),
    ("theta-into-jets", ("poly1", "poly2"), _check_theta_jets),
    ("cusp-resolutions", ("cusp",), _check_cusp_resolutions),
    ("jet-decomposition-of-the-ring", ("poly1", "poly2", "cusp"),
     _check_jets_of_ring),
    ("weighted-ring-pd", ("ex316",), _check_weighted_pd),
    ("symmetric-derivation-consistency", ("poly2", "cusp", "ex316"),
     _check_symderiv_consistency),
    ("pd-consistency-sweep", (), _check_pd_sweep),
    ("property-suites", (), _check_property_suites),
)


def _load_corpus(corpus_dir: Optional[str]) -> Dict[str, RingSpec]:
    from importlib import resources  # only verify-paper reads a corpus
    from pathlib import Path
    root = resources.files("kahlerlab").joinpath("corpus") \
        if corpus_dir is None else Path(corpus_dir)
    if not root.is_dir():
        raise NotADirectoryError("corpus is not a directory: %s" % root)
    rings: Dict[str, RingSpec] = {}
    for name in _CORPUS_NAMES:
        path = root.joinpath(name + ".ring")
        if path.is_file():
            rings[name] = _load_ring(path)
    return rings


def _run_verify(corpus_dir: Optional[str], cases: int):
    rings = _load_corpus(corpus_dir)
    warnings = []
    if not rings:
        warnings.append("corpus is empty; every ring-dependent check "
                        "was skipped")
    items = []
    counts = {"PASS": 0, "FAIL": 0, "SKIP": 0}
    for name, needs, check in _VERIFY_ITEMS:
        missing = [n for n in needs if n not in rings]
        if missing:
            detail = "missing %s" % ", ".join(m + ".ring" for m in missing)
            items.append({"name": name, "status": "SKIP", "detail": detail})
            counts["SKIP"] += 1
            continue
        try:
            check(rings, cases)
        except Exception as e:
            detail = str(e) or type(e).__name__
            items.append({"name": name, "status": "FAIL", "detail": detail})
            counts["FAIL"] += 1
            break  # report the first mismatch and stop
        items.append({"name": name, "status": "PASS", "detail": ""})
        counts["PASS"] += 1
    return items, counts, warnings


def _verify_text(items, counts, warnings) -> str:
    lines = ["warning: %s" % w for w in warnings]
    for item in items:
        line = "%-4s  %s" % (item["status"], item["name"])
        if item["detail"]:
            line += " (%s)" % item["detail"]
        lines.append(line)
    lines.append("summary: %d passed, %d failed, %d skipped"
                 % (counts["PASS"], counts["FAIL"], counts["SKIP"]))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# dispatch


def _dispatch(args) -> Tuple[str, object, int]:
    """The text payload, the structured result and the exit code."""
    command = args.command
    if command == "verify-paper":
        items, counts, warnings = _run_verify(args.corpus, args.cases)
        result = {"items": items, "passed": counts["PASS"],
                  "failed": counts["FAIL"], "skipped": counts["SKIP"],
                  "warnings": warnings}
        return (_verify_text(items, counts, warnings), result,
                1 if counts["FAIL"] else 0)

    ring = _load_ring(args.ring)

    if command in ("omega", "jets", "sym2"):
        if command == "omega":
            basis = None if args.basis is None \
                else parse_monomials(args.basis, ring)
            m = omega_presentation(ring, args.q, basis)
        else:
            selector = "jets:" + args.module if command == "jets" \
                else "sym2:omega"
            m = _select_module(ring, args.q, selector)
        return presentation_text(m), presentation_document(m), 0

    if command in ("theta", "iota"):
        if command == "iota":
            phi = iota_sym_to_omega2(ring)
        elif args.target == "first":
            phi = theta_to_first(ring, args.q)
        else:
            phi = theta_to_jets(ring, args.q)
        return map_text(phi), map_document(phi), 0

    if command == "split":
        out = symmetric_derivation_solve(ring, 1)
        derivation = out if isinstance(out, SymmetricDerivation) else None
        exact, splitting = _split_sequence(ring, derivation)
        result = {"derivation_found": derivation is not None,
                  "exact": exact, "splitting": splitting}
        return statements_text(result.items(), ring.order()), result, 0

    if command == "symderiv":
        found = isinstance(symmetric_derivation_solve(ring, args.q),
                           SymmetricDerivation)
        agrees = found == symmetric_derivation_oracle(ring, args.q,
                                                      args.degree_bound)
        result = {"verdict": "found" if found else "not_found",
                  "oracle_agrees": agrees}
        return (statements_text(result.items(), ring.order()), result,
                0 if agrees else 1)

    if command == "regular":
        value = jacobian_regular(ring)
        return "regular = %s\n" % str(value).lower(), {"regular": value}, 0

    if command in ("resolve", "pd", "rank"):
        m = _select_module(ring, args.q, args.module)
        if command == "resolve":
            r = free_resolution(m, args.cutoff)
            return resolution_text(r), resolution_document(r), 0
        if command == "pd":
            verdict = projective_dimension(m, args.cutoff)
            result = {"pd": str(verdict), "value": verdict.value,
                      "finite": isinstance(verdict, Finite)}
            return str(verdict) + "\n", result, 0
        value = rank(m)
        return "rank = %d\n" % value, {"rank": value}, 0

    raise ValueError("unknown command %r" % command)


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _parse_args(sys.argv[1:] if argv is None else argv)
    if isinstance(args, int):
        return args
    start = time.perf_counter()
    try:
        text, result, code = _dispatch(args)
    except (RingParseError, ValueError, OSError) as e:
        print("error: %s" % e, file=sys.stderr)
        return 2
    finally:
        print("elapsed: %.3fs" % (time.perf_counter() - start),
              file=sys.stderr)
    if args.format == "structured":
        # the request echoes every parsed option that has a value
        request = {key: value for key, value in vars(args).items()
                   if key not in ("command", "format") and value is not None}
        if args.command == "verify-paper":
            request["corpus"] = args.corpus or "shipped"
        import json
        text = json.dumps({"command": args.command, "request": request,
                           "result": result, "seed": 0},
                          indent=2, sort_keys=True) + "\n"
    sys.stdout.write(text)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
