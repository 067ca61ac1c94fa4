"""Tests for free resolutions, betti numbers and projective dimension."""

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
from kahlerlab.groebner import nf_poly

PLANE = make_ringspec(("x", "y"))
LINE = make_ringspec(("x",))
CUSP = parse_ringspec(
    "vars = [x, y]; weights = [2, 3]; ideal = [y^2 - x^3]; assume_domain = true;")
SQUARE = parse_ringspec("vars = [x]; ideal = [x^2];")


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
    ex316 = parse_ringspec(
        "vars = [x, y, z]; weights = [4, 5, 6];"
        " ideal = [y^2 - x*z, z^2 - x^3]; assume_domain = true;")
    assert not jacobian_regular(ex316)


def test_jacobian_regular_caches_only_the_ring_basis():
    groebner._span_basis.cache_clear()
    assert not jacobian_regular(CUSP)
    # the ring's own basis and the span of I and the minors, both over the
    # cusp: no throwaway ring's basis
    info = groebner._span_basis.cache_info()
    assert info.currsize == 2
    groebner.ring_groebner(CUSP)
    assert groebner._span_basis.cache_info().misses == info.misses
