"""Command-line workbench.

Subcommands build presentations and maps from a ring file, run the
canonical checks, and emit deterministic reports::

    omega | jets | sym2        presentations of the differential modules
    theta | iota | split       canonical maps and the split exact sequence
    symderiv                   derivation solver vs. independent oracle
    resolve | pd | rank        homological invariants of a chosen module
    regular                    Jacobian regularity of the ring itself
    verify-paper               the full verification table over a corpus

Exit codes: 0 success, 1 mathematical check failure (verify-paper
mismatch, solver/oracle disagreement), 2 input error.  Timing goes to
stderr so stdout stays byte-identical across repeated runs.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
import time
from fractions import Fraction
from importlib import resources
from typing import Dict, List, Optional, Sequence, Tuple

from .poly import format_polynomial
from .parser import (
    RingParseError,
    RingSpec,
    map_document,
    map_text,
    parse_poly,
    parse_ringspec,
    presentation_document,
    presentation_text,
    resolution_document,
    resolution_text,
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
    DeltaBasis,
    Found,
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

    def add(name, help_text, ring=True, q=False, module=None, cutoff=False,
            basis=False, target=False, bound=False):
        p = sub.add_parser(name, help=help_text)
        if ring:
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
                           help="oracle ansatz degree for ungraded rings")
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


def _load_ring(path: str) -> RingSpec:
    with open(path) as fh:
        return parse_ringspec(fh.read())


def _parse_basis(text: str, ring: RingSpec) -> tuple:
    monomials = []
    for part in text.split(","):
        p = parse_poly(part.strip(), ring)
        if len(p.terms) != 1:
            raise ValueError("basis entry %r is not a monomial" % part.strip())
        (exps, coeff), = p.terms.items()
        if coeff != 1:
            raise ValueError("basis entry %r has a coefficient" % part.strip())
        monomials.append(exps)
    return tuple(monomials)


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


def _bool_text(value: bool) -> str:
    return "true" if value else "false"


def _envelope(command: str, request: dict, result) -> str:
    doc = {"command": command, "request": request, "result": result,
           "seed": 0}
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _emit(args, request: dict, text: str, document) -> str:
    if args.format == "text":
        return text
    return _envelope(args.command, request, document)


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
        t = splitting_t(ring, derivation)
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
    basis = DeltaBasis(ring, 2, _CUSP_BASIS)
    for shift_text, want in zip(_CUSP_SHIFTS, _CUSP_MATRIX):
        g = parse_poly(shift_text, ring)
        row = delta_expand(g * f, ring, 2, basis)
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
    _expect(isinstance(out, Found), "no symmetric derivation on the plane")
    _expect(all(all(c.is_zero() for c in img)
                for img in out.derivation.images),
            "plane derivation should have zero generator images")
    exact, splitting = _split_sequence(ring, out.derivation)
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
        found = isinstance(symmetric_derivation_solve(rings[name], 1), Found)
        oracle = symmetric_derivation_oracle(rings[name], 1)
        _expect(found == oracle,
                "%s: solver says %s, oracle says %s"
                % (name, found, oracle))
    for name in sorted(rings):
        got = symmetric_derivation_solve(rings[name], 1)
        if isinstance(got, Found):
            exact, splitting = _split_sequence(rings[name], got.derivation)
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
    rings: Dict[str, RingSpec] = {}
    for name in _CORPUS_NAMES:
        if corpus_dir is None:
            res = resources.files("kahlerlab").joinpath(
                "corpus/%s.ring" % name)
            if res.is_file():
                rings[name] = parse_ringspec(res.read_text())
        else:
            path = os.path.join(corpus_dir, name + ".ring")
            if os.path.exists(path):
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


def _dispatch(args) -> Tuple[str, int]:
    command = args.command
    if command == "verify-paper":
        items, counts, warnings = _run_verify(args.corpus, args.cases)
        request = {"corpus": args.corpus or "shipped", "cases": args.cases}
        result = {"items": items, "passed": counts["PASS"],
                  "failed": counts["FAIL"], "skipped": counts["SKIP"],
                  "warnings": warnings}
        text = _verify_text(items, counts, warnings)
        return (_emit(args, request, text, result),
                1 if counts["FAIL"] else 0)

    ring = _load_ring(args.ring)
    request = {"ring": args.ring}

    if command == "omega":
        request["q"] = args.q
        basis = None
        if args.basis is not None:
            request["basis"] = args.basis
            basis = _parse_basis(args.basis, ring)
        m = omega_presentation(ring, args.q, basis=basis)
        return _emit(args, request, presentation_text(m),
                     presentation_document(m)), 0

    if command == "jets":
        request.update(q=args.q, module=args.module)
        m = _select_module(ring, args.q, "jets:" + args.module)
        return _emit(args, request, presentation_text(m),
                     presentation_document(m)), 0

    if command == "sym2":
        request["q"] = args.q
        m = symmetric_square(omega_presentation(ring, args.q))
        return _emit(args, request, presentation_text(m),
                     presentation_document(m)), 0

    if command == "theta":
        request.update(q=args.q, target=args.target)
        phi = theta_to_first(ring, args.q) if args.target == "first" \
            else theta_to_jets(ring, args.q)
        return _emit(args, request, map_text(phi), map_document(phi)), 0

    if command == "iota":
        phi = iota_sym_to_omega2(ring)
        return _emit(args, request, map_text(phi), map_document(phi)), 0

    if command == "split":
        out = symmetric_derivation_solve(ring, 1)
        derivation = out.derivation if isinstance(out, Found) else None
        exact, splitting = _split_sequence(ring, derivation)
        result = {"derivation_found": derivation is not None,
                  "exact": exact, "splitting": splitting}
        text = ("derivation_found = %s;\nexact = [%s];\nsplitting = %s;\n"
                % (_bool_text(result["derivation_found"]),
                   ", ".join(_bool_text(v) for v in exact),
                   _bool_text(splitting)))
        return _emit(args, request, text, result), 0

    if command == "symderiv":
        request.update(q=args.q, degree_bound=args.degree_bound)
        out = symmetric_derivation_solve(ring, args.q)
        found = isinstance(out, Found)
        oracle = symmetric_derivation_oracle(ring, args.q,
                                             args.degree_bound)
        agrees = found == oracle
        result = {"verdict": "found" if found else "not_found",
                  "oracle_agrees": agrees}
        text = ("verdict = %s;\noracle_agrees = %s;\n"
                % (result["verdict"], _bool_text(agrees)))
        return _emit(args, request, text, result), 0 if agrees else 1

    if command in ("resolve", "pd", "rank"):
        request.update(q=args.q, module=args.module)
        m = _select_module(ring, args.q, args.module)
        if command == "resolve":
            request["cutoff"] = args.cutoff
            r = free_resolution(m, args.cutoff)
            return _emit(args, request, resolution_text(r),
                         resolution_document(r)), 0
        if command == "pd":
            request["cutoff"] = args.cutoff
            verdict = projective_dimension(m, args.cutoff)
            result = {"pd": str(verdict), "value": verdict.value,
                      "finite": isinstance(verdict, Finite)}
            return _emit(args, request, str(verdict) + "\n", result), 0
        value = rank(m)
        return _emit(args, request, "rank = %d\n" % value,
                     {"rank": value}), 0

    if command == "regular":
        value = jacobian_regular(ring)
        return _emit(args, request, "regular = %s\n" % _bool_text(value),
                     {"regular": value}), 0

    raise ValueError("unknown command %r" % command)


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as e:
        return 0 if not e.code else 2
    start = time.perf_counter()
    try:
        payload, code = _dispatch(args)
    except (RingParseError, ValueError, OSError) as e:
        print("error: %s" % e, file=sys.stderr)
        return 2
    finally:
        print("elapsed: %.3fs" % (time.perf_counter() - start),
              file=sys.stderr)
    sys.stdout.write(payload)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
