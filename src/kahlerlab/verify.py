"""The verify-paper table: eleven checks of the paper's claims on a corpus.

Each check takes the corpus rings (by name) and the number of randomized
cases per property suite, and raises VerifyFailure on the first value
that differs from the one the paper states.  `_run_verify` runs the
table in order and stops at the first failure; `_verify_text` renders the
report the CLI prints.
"""

from __future__ import annotations

import random
from typing import Dict, Optional

from .poly import format_polynomial
from .parser import RingSpec, _load_ring, parse_poly
from .groebner import submodule_over_ring
from .presentations import (
    check_well_defined,
    cokernel,
    kernel,
    presentation_is_zero,
    rank,
    symmetric_square,
)
from .diffmod import (
    SymmetricDerivation,
    _split_sequence,
    delta_expand,
    iota_sym_to_omega2,
    jets_of_ring,
    jq_presentation,
    omega_presentation,
    symmetric_derivation_oracle,
    symmetric_derivation_solve,
    theta_to_first,
    theta_to_jets,
)
from .resolution import (
    AtLeast,
    Finite,
    free_resolution,
    minimal_resolution,
    projective_dimension,
)
from . import properties


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


class VerifyFailure(Exception):
    pass


def _expect(cond: bool, detail: str) -> None:
    if not cond:
        raise VerifyFailure(detail)


def _expect_split(ring: RingSpec, derivation, prefix: str) -> None:
    """The split sequence over ring is exact, kernel(theta) == image(iota)
    and the derivation's retraction splits it; each detail starts with
    prefix."""
    exact, splitting = _split_sequence(ring, derivation)
    _expect(exact == [True, True, True],
            "%ssequence not exact: %r" % (prefix, exact))
    _expect(_kernel_matches_image(ring),
            prefix + "kernel(theta) != image(iota)")
    _expect(splitting, prefix + "retraction is not a splitting")


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
    _expect_split(ring, out, "")


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
            _expect_split(rings[name], got, "%s: " % name)


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
