"""Acceptance gate: headline checks with wall-clock budgets.

Each test pins one expected result exactly and asserts it completes within
its budget.  Rings are loaded from the shipped corpus so the gate also
covers the packaged .ring files.
"""

import math
import random
import time
from contextlib import contextmanager
from fractions import Fraction
from importlib import resources

from kahlerlab.parser import parse_poly, parse_ringspec
from kahlerlab.poly import format_polynomial
from kahlerlab.presentations import (
    presentation_is_zero,
    rank,
    ring_as_module,
    symmetric_square,
    zero_presentation,
)
from kahlerlab.maps import (
    apply_map,
    check_exact,
    check_well_defined,
    cokernel,
    kernel,
    verify_splitting,
    zero_map,
)
from kahlerlab.diffmod import delta_expand, jq_presentation, omega_presentation
from kahlerlab.derivations import (
    SymmetricDerivation,
    iota_sym_to_omega2,
    jets_of_ring,
    splitting_t,
    symmetric_derivation_oracle,
    symmetric_derivation_solve,
    theta_to_first,
    theta_to_jets,
)
from kahlerlab.groebner import submodule_over_ring
from kahlerlab.resolution import (
    AtLeast,
    Finite,
    free_resolution,
    minimal_resolution,
    projective_dimension,
)

from kahlerlab import properties as property_suites


def _load(name):
    text = resources.files("kahlerlab").joinpath("corpus/%s.ring" % name) \
        .read_text()
    return parse_ringspec(text)


CORPUS = {name: _load(name)
          for name in ("poly1", "poly2", "poly3", "cusp", "ex316")}
LINE = CORPUS["poly1"]
PLANE = CORPUS["poly2"]
SPACE = CORPUS["poly3"]
CUSP = CORPUS["cusp"]
EX316 = CORPUS["ex316"]

_PD = {}  # (ring name, q) -> verdict, shared across criteria


@contextmanager
def budget(seconds):
    t0 = time.perf_counter()
    yield
    elapsed = time.perf_counter() - t0
    assert elapsed < seconds, "took %.1fs, budget %ss" % (elapsed, seconds)


def _pd(name, q, cutoff=6):
    key = (name, q, cutoff)
    if key not in _PD:
        _PD[key] = projective_dimension(
            omega_presentation(CORPUS[name], q), cutoff=cutoff)
    return _PD[key]


def test_criterion_01_rank_formula():
    rings = {1: LINE, 2: PLANE, 3: SPACE}
    with budget(10):
        for s, q in ((1, 1), (1, 2), (2, 1), (2, 2), (3, 2)):
            m = omega_presentation(rings[s], q)
            assert m.relations == ()
            assert rank(m) == math.comb(q + s, s) - 1


def test_criterion_02_rank_table_plane():
    with budget(60):
        omega1 = omega_presentation(PLANE, 1)
        omega2 = omega_presentation(PLANE, 2)
        assert rank(omega1) == 2
        assert rank(omega2) == 5
        assert rank(jq_presentation(omega1, 1)) == 6
        assert rank(jq_presentation(omega2, 2)) == 30
        assert rank(symmetric_square(omega1)) == 3


PAPER_BASIS = ((2, 0), (0, 2), (1, 1), (1, 0), (0, 1))
PAPER_MATRIX = (
    ("-3*x", "1", "0", "3*x^2", "0"),
    ("-6*x^2", "x", "2*y", "7*x^3", "-2*x*y"),
    ("-3*x*y", "3*y", "-3*x^2", "6*x^2*y", "-x^3"),
)


def test_criterion_03_cusp_relation_matrix():
    with budget(10):
        f = CUSP.ideal[0]
        order = CUSP.order()
        shifts = (parse_poly("1", CUSP), parse_poly("x", CUSP),
                  parse_poly("y", CUSP))
        for expected, g in zip(PAPER_MATRIX, shifts):
            row = delta_expand(g * f, CUSP, 2, PAPER_BASIS)
            assert tuple(format_polynomial(c, order) for c in row) == expected
        m = omega_presentation(CUSP, 2, basis=PAPER_BASIS)
        got = tuple(tuple(format_polynomial(c, order) for c in row)
                    for row in m.relations)
        assert got == PAPER_MATRIX  # the |beta| = 2 shift rows were pruned
        assert len(omega_presentation(CUSP, 2).relations) == 3


def _exact_split_bundle(ring, derivation):
    """Criterion-4 checks: 0 -> S^2(O^1) -> O^2 -> O^1 -> 0 exact + split."""
    iota = iota_sym_to_omega2(ring)
    theta = theta_to_first(ring, 2)
    left = zero_map(zero_presentation(ring), iota.source)
    right = zero_map(theta.target, zero_presentation(ring))
    assert check_exact([left, iota, theta, right]) == [True, True, True]
    # kernel(theta) and image(iota) agree as submodules of Omega^2
    ker, incl = kernel(theta)
    image = submodule_over_ring(list(iota.columns), iota.target.ngens, ring)
    assert all(image.contains(col) for col in incl.columns)
    span = submodule_over_ring(
        list(incl.columns) + list(theta.source.relations),
        theta.source.ngens, ring)
    assert all(span.contains(col) for col in iota.columns)
    t = splitting_t(derivation)
    assert check_well_defined(t)
    assert verify_splitting(iota, t, Fraction(1, 2))


def test_criterion_04_exact_sequence_and_splitting():
    with budget(10):
        out = symmetric_derivation_solve(PLANE, 1)
        assert isinstance(out, SymmetricDerivation)
        assert all(all(c.is_zero() for c in img) for img in out.images)
        _exact_split_bundle(PLANE, out)


def test_criterion_05_theta_into_jets():
    with budget(30):
        for ring in (LINE, PLANE):
            for q in (1, 2):
                theta = theta_to_jets(ring, q)
                k, _ = kernel(theta)
                assert k.ngens == 0
        assert presentation_is_zero(cokernel(theta_to_jets(LINE, 1)))
        assert not presentation_is_zero(cokernel(theta_to_jets(PLANE, 1)))


def test_criterion_06_cusp_resolutions():
    with budget(30):
        omega1 = omega_presentation(CUSP, 1)
        omega2 = omega_presentation(CUSP, 2)
        for module, betti in ((omega1, (2, 1)), (omega2, (5, 3)),
                              (symmetric_square(omega1), (3, 2))):
            r = free_resolution(module, cutoff=6)
            assert r.betti == betti
            assert r.terminated
            verdict = projective_dimension(module)
            assert isinstance(verdict, Finite) and verdict.value <= 1
        _PD[("cusp", 1, 6)] = projective_dimension(omega1)
        _PD[("cusp", 2, 6)] = projective_dimension(omega2)


def test_criterion_06_cusp_jet_module_resolution():
    # J = J_1(Omega^1) = J_1(R) (x)_R Omega has no finite resolution, so its
    # minimal resolution runs (5, 4, 2, 2, ...) and never stops.  With
    # Omega = Omega^1, rho = -3x^2 dx + 2y dy and tau = 3y dx - 2x dy:
    # 1. 0 -> R --rho--> R^2 -> Omega -> 0, so pd Omega = 1.
    # 2. tau, x*tau != 0: the relations vanish in degrees 5 and 7 (R_1 = 0).
    # 3. y*tau = -x*rho, x^2*tau = -y*rho, and the torsion of Omega is
    #    span(tau, x*tau) (compare Hilbert series with t*Q[t]dt), so
    #    Tor_1(Omega, Omega) = {m : x^2 m = y m = 0} = R*tau = R/(x^2, y)(-5).
    # 4. (x^2, y) = (t^4, t^3) is not principal at the origin, so
    #    pd R/(x^2, y) is infinite.
    # 5. 0 -> Tor_1 -> Omega -> Omega^2 -> Omega (x) Omega -> 0, so
    #    pd(Omega (x) Omega) is infinite.
    # 6. 0 -> Omega -> J_1(R) -> R -> 0 splits on the right; tensored with
    #    Omega it gives 0 -> Omega (x) Omega -> J -> Omega -> 0, so pd J is
    #    infinite.
    # The tail is the matrix factorisation (y, -x^2 | x, -y) of f.  The next
    # test certifies the first Betti numbers, the tail and steps 2-3 without
    # the Groebner engine.
    with budget(30):
        jets = jq_presentation(omega_presentation(CUSP, 1), 1)
        mr = minimal_resolution(jets, 6)
        assert mr.betti == (5, 4, 2, 2, 2, 2, 2)
        assert not mr.terminated
        assert projective_dimension(jets) == AtLeast(6)


# Criterion-6 certificate, in the style of symmetric_derivation_oracle: exact
# Q-linear algebra on single weighted-degree pieces over the cusp, x of
# weight 2 and y of weight 3.  A polynomial is a dict {(a, b): coefficient of
# x^a y^b}; _nf rewrites y^2 -> x^3, leaving the monomial basis x^a, x^a y of
# R.  Module elements are tuples of polynomials.


def _poly(*terms):
    out = {}
    for c, a, b in terms:
        out[(a, b)] = out.get((a, b), 0) + Fraction(c)
    return {e: c for e, c in out.items() if c}


def _nf(p):
    return _poly(*((c, a + 3 * (b // 2), b % 2) for (a, b), c in p.items()))


def _add(*ps):
    return _poly(*((c, a, b) for p in ps for (a, b), c in p.items()))


def _mul(p, q):
    return _poly(*((c * d, a + e, b + g)
                   for (a, b), c in p.items() for (e, g), d in q.items()))


def _lin(*pairs):
    """The sum of h * v over the (polynomial h, module element v) pairs."""
    return tuple(_add(*(_mul(h, v[i]) for h, v in pairs))
                 for i in range(len(pairs[0][1])))


def _jet(h, t):
    """j(h e_t) on the symbols D[g_s](x^beta), beta-major over (1, x, y) as
    in jq_presentation: h(x+u, y+v) = c_1 + c_x (x+u) + c_y (y+v) modulo
    (u, v)^2 gives c_x = h_x, c_y = h_y, c_1 = h - x h_x - y h_y."""
    hx = _poly(*((c * a, a - 1, b) for (a, b), c in h.items() if a))
    hy = _poly(*((c * b, a, b - 1) for (a, b), c in h.items() if b))
    c1 = _poly(*((c * (1 - a - b), a, b) for (a, b), c in h.items()))
    out = [{} for _ in range(6)]
    for pos, c in enumerate((c1, hx, hy)):
        out[2 * pos + t] = c
    return tuple(out)


def _rank(vectors):
    """Rank over Q of module elements read in the monomial basis of R."""
    pivots = []
    for v in vectors:
        row = {(i, e): c for i, p in enumerate(v) for e, c in _nf(p).items()}
        for key, prow in pivots:
            c = row.get(key)
            if c:
                for k, d in prow.items():
                    row[k] = row.get(k, 0) - c * d
        row = {k: d for k, d in row.items() if d}
        if row:
            key = min(row)
            pivots.append((key, {k: d / row[key] for k, d in row.items()}))
    return len(pivots)


def _piece(rows, d, positive=False):
    """Every m * v of weighted degree d for the (v, degree) pairs in rows, m a
    monomial of R, of positive degree when positive is set."""
    return [_lin(({(a, b): 1}, v)) for v, e in rows
            for b in (0, 1) for a in range((d - e) // 2 + 1)
            if 2 * a + 3 * b == d - e and (a + b or not positive)]


def _in_span(v, rows, d):
    span = _piece(rows, d)
    return _rank(span + [v]) == _rank(span)


def test_criterion_06_cusp_jet_module_certificate():
    one, x, y = _poly((1, 0, 0)), _poly((1, 1, 0)), _poly((1, 0, 1))
    f = _poly((1, 0, 2), (-1, 3, 0))
    rho = (_poly((-3, 2, 0)), _poly((2, 0, 1)))  # d(f), weighted degree 6

    # the relation rows of jq_presentation, with their weighted degrees: the
    # jets of x^gamma * rho and of x^gamma * f * e_t for |gamma| <= 1
    def jet_rho(g):
        return _lin((one, _jet(_mul(g, rho[0]), 0)),
                    (one, _jet(_mul(g, rho[1]), 1)))

    jr, jxr, jyr = jet_rho(one), jet_rho(x), jet_rho(y)
    jf = [_jet(f, 0), _jet(f, 1)]
    rows = [(jr, 6), (jxr, 8), (jyr, 9)]
    rows += [(_jet(_mul(g, f), t), 6 + w + (2, 3)[t])
             for t in (0, 1) for g, w in ((one, 0), (x, 2), (y, 3))]
    # minimal generators of the relation module N in degree d number
    # dim N_d - dim (mN)_d: five in all
    fresh = {d: _rank(_piece(rows, d)) - _rank(_piece(rows, d, True))
             for d in range(6, 13)}
    assert {d: n for d, n in fresh.items() if n} == {6: 1, 8: 2, 9: 2}
    # N mod m spans one line of Q^6 (the unit 2 of jet(rho) at D[dy](y)), so
    # one generator drops out: the minimal betti numbers start (6-1, 5-1)
    units = [tuple({(0, 0): p[(0, 0)]} if (0, 0) in p else {} for p in v)
             for v, _ in rows]
    assert _rank(units) == 1

    # eliminating D[dy](y) with jet(rho): the reduction of D(y * rho) is
    # 6xy D[dx](x) - 2x^3 D[dy](1) - 3x^2 D[dx](y), outside the span of the
    # other three minimal relations in degree 9
    fourth = _lin((one, jyr), (_poly((-2, 0, 1)), jr))
    assert tuple(map(_nf, fourth)) == (
        {}, _poly((-2, 3, 0)), _poly((6, 1, 1)), {}, _poly((-3, 2, 0)), {})
    others = [(_lin((one, jxr), (_poly((-1, 1, 0)), jr)), 8), (jf[0], 8),
              (_lin((one, jf[1]), (_poly((-1, 0, 1)), jr)), 9)]
    assert all(not _nf(v[5]) for v, _ in others)
    assert not _in_span(fourth, others, 9)

    # the periodic tail: (y, -x^2 | x, -y) squared is f times the identity
    m = ((y, _poly((-1, 2, 0))), (x, _poly((-1, 0, 1))))
    square = tuple(tuple(_add(_mul(m[i][0], m[0][j]), _mul(m[i][1], m[1][j]))
                         for j in (0, 1)) for i in (0, 1))
    assert square == ((f, {}), ({}, f))

    # torsion of Omega = R^2 / R*rho: tau and x*tau are nonzero, while
    # y * tau = -x * rho and x^2 * tau = -y * rho
    tau = (_poly((3, 0, 1)), _poly((-2, 1, 0)))  # weighted degree 5
    assert not _in_span(tau, [(rho, 6)], 5)
    assert not _in_span(_lin((x, tau)), [(rho, 6)], 7)
    assert tuple(map(_nf, _lin((y, tau), (x, rho)))) == ({}, {})
    assert tuple(map(_nf, _lin((_mul(x, x), tau), (y, rho)))) == ({}, {})


def test_criterion_07_jets_of_ring_decompose():
    with budget(30):
        for ring in (LINE, PLANE, CUSP):
            for n in (1, 2):
                phi = jets_of_ring(ring, n)
                assert check_well_defined(phi)
                k, _ = kernel(phi)
                assert k.ngens == 0
                assert presentation_is_zero(cokernel(phi))


def test_criterion_08_weighted_ring_pd():
    with budget(120):
        assert _pd("ex316", 1, 6) == Finite(1)
        r = minimal_resolution(omega_presentation(EX316, 2), 5)
        assert not r.terminated
        assert len(r.betti) == 6
        assert all(b > 0 for b in r.betti)
        verdict = projective_dimension(omega_presentation(EX316, 2), cutoff=5)
        assert verdict == AtLeast(5)
        _PD[("ex316", 2, 5)] = verdict


def test_criterion_09_symmetric_derivation_consistency():
    with budget(120):
        out = symmetric_derivation_solve(PLANE, 1)
        assert isinstance(out, SymmetricDerivation)
        assert all(all(c.is_zero() for c in img) for img in out.images)
        for name in ("cusp", "ex316"):
            found = isinstance(symmetric_derivation_solve(CORPUS[name], 1),
                               SymmetricDerivation)
            assert found == symmetric_derivation_oracle(CORPUS[name], 1)
        for name, ring in CORPUS.items():
            got = symmetric_derivation_solve(ring, 1)
            if isinstance(got, SymmetricDerivation):
                _exact_split_bundle(ring, got)


def test_criterion_09_unweighted_graded_rings_at_q2():
    # no weights declared: the oracle grades by weight 1 per variable
    with budget(10):
        for text in ("vars = [x, y]; ideal = [x*y];",
                     "vars = [x, y, z]; ideal = [x*y - z^2];"):
            ring = parse_ringspec(text)
            found = isinstance(symmetric_derivation_solve(ring, 2),
                               SymmetricDerivation)
            assert found == symmetric_derivation_oracle(ring, 2)


def test_criterion_10_pd_consistency_sweep():
    with budget(10):
        for name, ring in CORPUS.items():
            if name == "ex316":
                pd1, pd2 = _pd("ex316", 1, 6), _PD.get(("ex316", 2, 5))
                if pd2 is None:
                    pd2 = projective_dimension(
                        omega_presentation(EX316, 2), cutoff=5)
            else:
                pd1, pd2 = _pd(name, 1), _pd(name, 2)
            assert not (isinstance(pd2, Finite) and isinstance(pd1, AtLeast)), \
                "%s: pd(Omega^2) finite but pd(Omega^1) unresolved" % name


def test_criterion_11_property_suites():
    with budget(120):
        for i, suite in enumerate(property_suites.ALL_SUITES):
            rng = random.Random(777 + i)
            assert suite(rng, 200) >= 200
