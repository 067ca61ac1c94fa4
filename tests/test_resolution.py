"""Tests for free resolutions, betti numbers and projective dimension."""

import random
from functools import lru_cache
from itertools import product

import pytest

from kahlerlab.parser import make_ringspec, parse_poly, parse_ringspec
from kahlerlab.presentations import (
    Presentation,
    free_presentation,
    ring_as_module,
    symmetric_square,
)
from kahlerlab.diffmod import jq_presentation, omega_presentation
from kahlerlab.resolution import (
    AtLeast,
    Finite,
    free_resolution,
    jacobian_regular,
    minimal_presentation,
    minimal_resolution,
    projective_dimension,
)
from kahlerlab import groebner
from kahlerlab.groebner import _grading, nf_poly
from kahlerlab.poly import Polynomial

PLANE = make_ringspec(("x", "y"))
LINE = make_ringspec(("x",))
CUSP = parse_ringspec(
    "vars = [x, y]; weights = [2, 3]; ideal = [y^2 - x^3]; assume_domain = true;")
SQUARE = parse_ringspec("vars = [x]; ideal = [x^2];")
CIRCLE = parse_ringspec(
    "vars = [x, y]; ideal = [x^2 + y^2 - 1]; assume_domain = true;")
EX316 = parse_ringspec(
    "vars = [x, y, z]; weights = [4, 5, 6];"
    " ideal = [y^2 - x*z, z^2 - x^3]; assume_domain = true;")


def p(text, ring=PLANE):
    return parse_poly(text, ring)


def test_free_module_resolution_is_trivial():
    m = free_presentation(PLANE, ("a", "b"))
    r = free_resolution(m, cutoff=4)
    assert r.betti == (2,)
    assert r.steps == ()
    assert r.terminated
    assert projective_dimension(m) == Finite(0)


def test_cusp_omega1_resolution():
    m = omega_presentation(CUSP, 1)
    r = free_resolution(m, cutoff=6)
    assert r.betti == (2, 1)
    assert r.terminated
    assert r.graded
    assert projective_dimension(m) == Finite(1)


def test_cusp_omega2_resolution():
    m = omega_presentation(CUSP, 2)
    r = free_resolution(m, cutoff=6)
    assert r.betti == (5, 3)
    assert r.terminated
    assert projective_dimension(m) == Finite(1)


def test_cusp_jets_of_omega1_minimal_resolution():
    m = jq_presentation(omega_presentation(CUSP, 1), 1)
    raw = free_resolution(m, cutoff=6)
    assert raw.betti[0] == 6  # one generator per pair (x^beta, d1-symbol)
    r = minimal_resolution(m, 6)
    # the graded relation module needs four generators: two in degree 8 and
    # two in degree 9, while products of the degree-8 ones start in degree 10
    assert r.betti == (5, 4, 2, 2, 2, 2, 2)
    assert not r.terminated
    # the tail repeats the matrix factorization (y, -x^2 | x, -y) of f
    assert r.steps[-1] == r.steps[-2]
    assert projective_dimension(m) == AtLeast(6)


def test_cusp_symmetric_square_resolution():
    m = symmetric_square(omega_presentation(CUSP, 1))
    r = free_resolution(m, cutoff=6)
    assert r.betti == (3, 2)
    assert r.terminated
    assert projective_dimension(m) == Finite(1)


def test_resolution_steps_compose_to_zero():
    m = Presentation(SQUARE, ("g",), ((parse_poly("x", SQUARE),),))
    r = free_resolution(m, cutoff=4)
    assert len(r.steps) >= 2
    for upper, lower in zip(r.steps[1:], r.steps):
        for row in upper:
            for c in range(len(lower[0])):
                acc = SQUARE.zero()
                for t, coeff in enumerate(row):
                    acc = acc + coeff * lower[t][c]
                assert nf_poly(acc, SQUARE).is_zero()


def test_non_terminating_resolution_reports_at_least():
    # over Q[x]/(x^2) the module R/(x) has an infinite periodic resolution
    m = Presentation(SQUARE, ("g",), ((parse_poly("x", SQUARE),),))
    r = free_resolution(m, cutoff=3)
    assert not r.terminated
    assert r.betti == (1, 1, 1, 1)
    assert projective_dimension(m, cutoff=3) == AtLeast(3)


def test_minimal_presentation_sweeps_constants():
    m = Presentation(PLANE, ("a", "b"),
                     ((p("x"), p("2")), (p("x*y"), p("2*y"))))
    mp = minimal_presentation(m)
    assert mp.ngens == 1
    assert mp.relations == ()


def test_minimal_presentation_keeps_needed_relations():
    m = Presentation(PLANE, ("a",), ((p("x"),),))
    mp = minimal_presentation(m)
    assert mp.ngens == 1 and len(mp.relations) == 1


def test_minimal_resolution_sweeps_a_unit_pivot():
    m = Presentation(PLANE, ("a", "b"),
                     ((p("x"), p("2")),))
    raw = free_resolution(m, cutoff=3)
    assert raw.betti == (2, 1)
    minimal = minimal_resolution(m, 3)
    assert minimal.betti == (1,)
    assert minimal.terminated
    assert projective_dimension(m, cutoff=3) == Finite(0)


def test_projective_dimension_builds_only_the_minimal_chain(monkeypatch):
    import kahlerlab.resolution as resolution

    def forbidden(*args, **kwargs):
        raise AssertionError("projective_dimension built the raw resolution")
    monkeypatch.setattr(resolution, "free_resolution", forbidden)
    assert projective_dimension(omega_presentation(CUSP, 1)) == Finite(1)
    # k = R/(x) over Q[x]/(x^2) has the periodic resolution ... -> R -x-> R
    residue = Presentation(SQUARE, ("a",), ((p("x", SQUARE),),))
    assert projective_dimension(residue, cutoff=4) == AtLeast(4)


def test_pd_verdict_types():
    assert Finite(1) == Finite(1)
    assert hash(Finite(1)) == hash(Finite(value=1))
    assert Finite(1) != AtLeast(1)
    assert str(Finite(2)) == "pd = 2"
    assert str(AtLeast(5)) == "pd >= 5"
    assert repr(Finite(2)) == "Finite(value=2)"
    verdict = Finite(2)
    with pytest.raises(AttributeError):
        verdict.value = 3
    with pytest.raises(AttributeError):
        del verdict.value
    assert verdict.value == 2


def test_jacobian_regular():
    assert jacobian_regular(PLANE)
    assert jacobian_regular(LINE)
    assert jacobian_regular(make_ringspec(("x", "y", "z")))
    assert not jacobian_regular(CUSP)
    assert not jacobian_regular(EX316)


def test_jacobian_regular_caches_only_the_ring_basis():
    groebner._span_basis.cache_clear()
    assert not jacobian_regular(CUSP)
    # the ring's own basis and the span of I and the minors, both over the
    # cusp: no throwaway ring's basis
    info = groebner._span_basis.cache_info()
    assert info.currsize == 2
    groebner.ring_groebner(CUSP)
    assert groebner._span_basis.cache_info().misses == info.misses


def _row_degrees(rows, degrees, ring):
    """The row-degree rule that `groebner._grading` replaced, kept as its
    reference: the degree of every row when column i has degree
    degrees[i]; None when the degrees are missing, the ring is not
    homogeneous, or a row is not homogeneous (zero rows included)."""
    if degrees is None or not ring.homogeneous:
        return None
    out = []
    for row in rows:
        found = set()
        for entry, d in zip(row, degrees):
            if not entry.is_zero():
                h = entry.homogeneous_degree(ring.weights)
                if h is None:
                    return None
                found.add(h + d)
        if len(found) != 1:
            return None
        out.append(found.pop())
    return out


def _declared_row_degrees(rows, degrees, ring):
    """_grading on the declared degrees, read as the reference reads it:
    None when it is None or a row has no degree."""
    grading = _grading(rows, len(degrees), ring, degrees)
    return None if grading is None or None in grading[1] else grading[1]


def _selected_modules():
    for ring, orders in ((CUSP, (1, 2)), (PLANE, (1, 2)), (CIRCLE, (1, 2)),
                         (EX316, (1,))):
        for q in orders:
            omega = omega_presentation(ring, q)
            yield omega
            yield symmetric_square(omega)
            yield jq_presentation(omega, q)
            yield jq_presentation(ring_as_module(ring), q)


def test_grading_gives_the_reference_row_degrees_on_modules_and_chains():
    """On the relations of omega, sym2:omega, jets:omega and jets:ring and
    on every step of their resolutions, _grading gives each row the
    degree the reference gives, and no degree where it gives none."""
    seen = {True: 0, False: 0}
    for m in _selected_modules():
        want = _row_degrees(m.relations, m.degrees, m.ring)
        assert _declared_row_degrees(m.relations, m.degrees, m.ring) == want
        seen[want is None] += 1
        # step 0 is the pruned relation matrix, on the generators
        degrees = m.degrees
        for step in free_resolution(m, cutoff=3).steps:
            want = _row_degrees(step, degrees, m.ring)
            assert _declared_row_degrees(step, degrees, m.ring) == want
            seen[want is None] += 1
            if want is None:
                break
            degrees = want
    assert seen[False] > 20 and seen[True] > 10


def _seeded_entry(rng, ring, degree):
    """0, a term of the given weighted degree, a sum of two terms of
    different degrees, or a term one degree off."""
    kind = rng.choice(("zero", "degree", "degree", "mixed", "off"))
    targets = {"zero": (), "degree": (degree,), "mixed": (degree, degree + 1),
               "off": (degree + 1,)}[kind]
    terms = {}
    for d in targets:
        monos = _of_degree(ring, d)
        if monos:
            terms[rng.choice(monos)] = rng.choice((-2, 1, 3))
    return Polynomial(ring.variables, terms)


@lru_cache(maxsize=64)
def _of_degree(ring, degree):
    order = ring.order()
    return [e for e in product(range(max(degree, 0) + 1),
                               repeat=len(ring.variables))
            if order.degree(e) == degree]


@pytest.mark.parametrize("ring", [CUSP, EX316, PLANE],
                         ids=["cusp", "ex316", "plane"])
def test_grading_gives_the_reference_row_degrees_on_seeded_rows(ring):
    """Seeded rows with zero rows, non-homogeneous entries and entries of
    conflicting degrees: the same degrees as the reference, None where it
    gives None."""
    rng = random.Random(2800 + len(ring.variables) + len(ring.ideal))
    outcomes = {True: 0, False: 0}
    for _ in range(300):
        degrees = [rng.randrange(0, 4) for _ in range(rng.randrange(1, 4))]
        rows = []
        for _ in range(rng.randrange(1, 4)):
            d = rng.randrange(4, 10)
            rows.append(tuple(_seeded_entry(rng, ring, d - s) if
                              rng.random() < 0.9 else ring.zero()
                              for s in degrees))
        want = _row_degrees(rows, degrees, ring)
        assert _declared_row_degrees(rows, degrees, ring) == want
        outcomes[want is None] += 1
    assert min(outcomes.values()) > 30


def test_graded_reads_the_declared_degrees():
    """The relation (x, y) over the cusp is homogeneous when the second
    generator sits one degree below the first, but not for the declared
    degrees (0, 0): the resolution is not graded, although shifts that fit
    exist."""
    m = Presentation(CUSP, ("a", "b"), ((p("x", CUSP), p("y", CUSP)),),
                     (0, 0))
    assert _grading(m.relations, m.ngens, CUSP) is not None
    assert not free_resolution(m).graded
