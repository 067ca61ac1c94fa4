"""Randomized property suites.

Each run_* function draws `cases` independent randomized inputs from the
given Random instance and returns the number of cases it counted.  A check
whose input equals one already checked in the same run is counted and not
recomputed: the draws, and so every later input, stay the same.  They are
shared between the regular test run (small case counts), the
acceptance gate (hundreds of cases per suite), and the CLI verification
command.
"""

from fractions import Fraction
import random

from .poly import Polynomial, format_polynomial, partial_derivative
from .parser import (make_ringspec, parse_poly, parse_ringspec, ring_statements,
                     statements_text)
from .groebner import nf_poly, submodule_over_ring, syzygies_over_ring
from .diffmod import (_exponent_vectors, _ideal_rows, _omega_rows,
                      delta_expand, delta_monomials)
from .derivations import delta_expand_via_products

XY = ("x", "y")
PLANE = make_ringspec(XY)
CUSP = parse_ringspec(
    "vars = [x, y]; weights = [2, 3]; ideal = [y^2 - x^3]; assume_domain = true;")
SQUARE = parse_ringspec("vars = [x]; ideal = [x^2];")
LINE = make_ringspec(("x",))


def _random_poly(rng: random.Random, nvars=2, max_deg=3, max_terms=3,
                 variables=XY) -> Polynomial:
    terms = {}
    for _ in range(rng.randrange(0, max_terms + 1)):
        exps = tuple(rng.randrange(0, max_deg + 1) for _ in range(nvars))
        terms[exps] = Fraction(rng.randrange(-6, 7), rng.randrange(1, 4))
    return Polynomial(variables, terms)


def run_poly_canonical(rng: random.Random, cases: int) -> int:
    """Arithmetic is exact and the term dict is a canonical form."""
    done = 0
    for _ in range(cases):
        a = _random_poly(rng)
        b = _random_poly(rng)
        c = _random_poly(rng)
        assert a + b == b + a
        assert (a + b) - b == a
        assert a * (b + c) == a * b + a * c
        assert not any(v == 0 for v in (a * b).terms.values())
        if a == b:
            assert hash(a) == hash(b)
        # canonical text representation identifies equal values
        assert (format_polynomial(a) == format_polynomial(b)) == (a == b)
        done += 1
    return done


def run_groebner_properties(rng: random.Random, cases: int) -> int:
    """GB idempotence, membership soundness and syzygy exactness."""
    done = 0
    while done < cases:
        gens = [g for g in (_random_poly(rng, max_deg=2, max_terms=2)
                            for _ in range(rng.randrange(1, 4)))
                if not g.is_zero()]
        if not gens:
            continue
        basis = submodule_over_ring([(g,) for g in gens], 1, PLANE)
        rows = basis.groebner_rows()
        again = submodule_over_ring(rows, 1, PLANE)
        assert again.groebner_rows() == rows
        # random combinations of the generators are members
        combo = Polynomial.zero(XY)
        for g in gens:
            combo = combo + _random_poly(rng, max_deg=1, max_terms=2) * g
        assert basis.contains((combo,))
        nf = basis.normal_form((_random_poly(rng),))
        assert basis.normal_form(nf) == nf
        # recorded syzygies vanish against the generators
        for sig in syzygies_over_ring([(g,) for g in gens], 1, PLANE):
            acc = Polynomial.zero(XY)
            for coeff, g in zip(sig, gens):
                acc = acc + coeff * g
            assert acc.is_zero()
        done += 1
    return done


def run_parser_round_trips(rng: random.Random, cases: int) -> int:
    """format -> parse is the identity on polynomials and ring documents.

    The two ring documents are fixed, so each is round-tripped once; every
    case still draws which of the two rings its polynomial lives in.
    """
    for ring in (PLANE, CUSP):
        text = statements_text(ring_statements(ring), ring.order())
        assert parse_ringspec(text) == ring
    done = 0
    for _ in range(cases):
        p = _random_poly(rng, max_deg=4, max_terms=4)
        assert parse_poly(format_polynomial(p), PLANE) == p
        weighted = rng.random() < 0.5
        ring = CUSP if weighted else PLANE
        order = ring.order()
        q = parse_poly(format_polynomial(_random_poly(rng), order), ring)
        text = format_polynomial(q, order)
        assert text == format_polynomial(parse_poly(text, ring), order)
        done += 1
    return done


def run_leibniz_identity(rng: random.Random, cases: int) -> int:
    """delta-expansion satisfies the product/chain rules.

    First order: the expansion is the reduced gradient.  Higher order: the
    coordinates agree with an independent route through truncated two-sided
    products.
    """
    done = 0
    rings = (PLANE, CUSP, LINE, SQUARE)
    while done < cases:
        ring = rings[rng.randrange(len(rings))]
        nv = len(ring.variables)
        h = _random_poly(rng, nvars=nv, max_deg=3, max_terms=2,
                         variables=ring.variables)
        if h.is_zero():
            continue
        grad = delta_expand(h, ring, 1)
        for i in range(nv):
            assert grad[i] == nf_poly(partial_derivative(h, i), ring)
        q = rng.choice((1, 2))
        assert delta_expand(h, ring, q) == delta_expand_via_products(h, ring, q)
        # additivity in the argument
        g = _random_poly(rng, nvars=nv, max_deg=3, max_terms=2,
                         variables=ring.variables)
        lhs = delta_expand(h + g, ring, q)
        rhs = tuple(a + b for a, b in zip(delta_expand(h, ring, q),
                                          delta_expand(g, ring, q)))
        assert lhs == tuple(nf_poly(c, ring) for c in rhs)
        done += 1
    return done


def run_relation_set_equivalence(rng: random.Random, cases: int) -> int:
    """Shifted relation rows with |beta| = q add nothing beyond |beta| < q.

    A drawn `(ring, q)` equal to one already checked is counted, and its
    span is not rebuilt.
    """
    done = 0
    pool = [CUSP, SQUARE]
    seen = set()
    while done < cases:
        which = rng.randrange(len(pool) + 1)
        if which < len(pool):
            ring = pool[which]
        else:
            f = _random_poly(rng, max_deg=3, max_terms=2)
            if f.is_zero() or f.is_constant():
                continue
            ring = make_ringspec(XY, ideal=(f,))
        q = rng.choice((1, 2))
        done += 1
        if (ring, q) in seen:
            continue
        seen.add((ring, q))
        monomials = delta_monomials(ring, q)
        span = submodule_over_ring(_omega_rows(ring, q, monomials),
                                   len(monomials), ring)
        top = _exponent_vectors(len(ring.variables), q, q)
        for (g,) in _ideal_rows(1, top, ring):
            assert span.contains(delta_expand(g, ring, q))
    return done


ALL_SUITES = (
    run_poly_canonical,
    run_groebner_properties,
    run_parser_round_trips,
    run_leibniz_identity,
    run_relation_set_equivalence,
)
