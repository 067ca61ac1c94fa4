"""Tests for differential module presentations, canonical maps and
symmetric derivations.  Expected matrices/rows below were computed by hand
from the defining expansions and serve as frozen references."""

import random
from fractions import Fraction
from itertools import product
from math import comb, factorial, prod

import pytest

from kahlerlab.parser import (
    make_ringspec,
    parse_poly,
    parse_ringspec,
)
from kahlerlab.groebner import NoSolution, nf_poly
from kahlerlab.poly import Polynomial, partial_derivative
from kahlerlab.presentations import (
    element_is_zero,
    presentation_is_zero,
    relation_basis,
    ring_as_module,
    symmetric_square,
)
from kahlerlab.maps import (
    apply_map,
    check_well_defined,
    cokernel,
    compose,
    kernel,
    verify_splitting,
)
from kahlerlab.diffmod import (
    _expansion_coords,
    _exponent_vectors,
    delta_expand,
    delta_monomials,
    jet_expand,
    jq_presentation,
    omega_presentation,
)
from kahlerlab.derivations import (
    SymmetricDerivation,
    _back_substitute,
    _rational_system_solvable,
    apply_derivation,
    beta_to_sym,
    delta_expand_via_products,
    iota_sym_to_omega2,
    jets_of_ring,
    operator_is_order_at_most,
    splitting_t,
    symmetric_derivation_oracle,
    symmetric_derivation_solve,
    theta_to_first,
    theta_to_jets,
    validate_symmetric_derivation,
)

PLANE = make_ringspec(("x", "y"))
LINE = make_ringspec(("x",))
CUSP = parse_ringspec(
    "vars = [x, y]; weights = [2, 3]; ideal = [y^2 - x^3]; assume_domain = true;")
# homogeneous for the grading of weight 1 per variable, no weights declared
CROSS = parse_ringspec("vars = [x, y]; ideal = [x*y];")
CONE = parse_ringspec("vars = [x, y, z]; ideal = [x*y - z^2];")
EX316 = parse_ringspec(
    "vars = [x, y, z]; weights = [4, 5, 6]; "
    "ideal = [y^2 - x*z, z^2 - x^3]; assume_domain = true;")
# not homogeneous, and its symmetric derivation has nonzero images
CIRCLE = parse_ringspec("vars = [x, y]; ideal = [x^2 + y^2 - 1];")


def p(text, ring=PLANE):
    return parse_poly(text, ring)


def row(texts, ring=PLANE):
    return tuple(parse_poly(t, ring) for t in texts)


# ---------------------------------------------------------------------------
# bases and expansions


def test_delta_basis_default_order():
    assert delta_monomials(PLANE, 2) == ((1, 0), (0, 1), (2, 0), (1, 1), (0, 2))
    assert omega_presentation(PLANE, 2).generators == \
        ("d2(x)", "d2(y)", "d2(x^2)", "d2(x*y)", "d2(y^2)")


def test_exponent_vectors_are_one_shared_tuple_in_a_bounded_cache():
    vecs = _exponent_vectors(2, 2, 1)
    assert vecs == ((1, 0), (0, 1), (2, 0), (1, 1), (0, 2))
    assert type(vecs) is tuple and _exponent_vectors(2, 2, 1) is vecs
    assert _exponent_vectors.cache_info().maxsize is not None


def test_delta_basis_override_must_be_permutation():
    order = ((2, 0), (0, 2), (1, 1), (1, 0), (0, 1))
    assert delta_monomials(PLANE, 2, list(order)) == order
    for bad in (((2, 0), (0, 2)), ((2, 0), (0, 2), (1, 1), (1, 0), (3, 0))):
        with pytest.raises(ValueError, match="basis must be a permutation "
                           "of the 5 monomials with 1 <= |alpha| <= 2"):
            delta_monomials(PLANE, 2, bad)
    # a non-integral exponent is refused, not truncated into the permutation
    with pytest.raises(TypeError):
        delta_monomials(PLANE, 2, ((2.5, 0),) + order[1:])


def test_delta_expand_fixes_basis_monomials():
    for i, mono in enumerate(delta_monomials(PLANE, 2)):
        out = delta_expand(Polynomial.monomial(PLANE.variables, mono), PLANE, 2)
        assert list(out) == [p("1") if j == i else p("0") for j in range(5)]


def test_delta_expand_reference_value_one_variable():
    # delta^(2)(x^4) = 6x^2 * d2(x^2) - 8x^3 * d2(x) over Q[x]
    out = delta_expand(parse_poly("x^4", LINE), LINE, 2)
    assert delta_monomials(LINE, 2) == ((1,), (2,))
    assert out == (parse_poly("-8*x^3", LINE), parse_poly("6*x^2", LINE))


def test_delta_expand_first_order_is_gradient():
    out = delta_expand(p("x^3*y + y^2"), PLANE, 1)
    assert out == row(["3*x^2*y", "x^3 + 2*y"])


def _random_poly(rng, ring, max_deg=4, max_terms=4):
    n = len(ring.variables)
    return Polynomial(ring.variables, {
        tuple(rng.randrange(max_deg) for _ in range(n)):
            Fraction(rng.randrange(-5, 6), rng.randrange(1, 3))
        for _ in range(rng.randrange(1, max_terms + 1))})


def test_delta_expand_agrees_with_product_rule_route():
    rng = random.Random(5)
    for ring in (PLANE, CUSP, LINE, EX316):
        for q in (1, 2, 3):
            for _ in range(8):
                h = _random_poly(rng, ring)
                assert delta_expand(h, ring, q) == \
                    delta_expand_via_products(h, ring, q), (h, q)


def _taylor_table(h, q):
    """{eta: d^eta h / eta!} for every |eta| <= q."""
    table = {}
    for eta in product(range(q + 1), repeat=len(h.variables)):
        if sum(eta) <= q:
            d = h
            for i, e in enumerate(eta):
                if e:
                    d = partial_derivative(d, i, e)
            table[eta] = d.scale(Fraction(1, prod(map(factorial, eta))))
    return table


@pytest.mark.parametrize("ring", [PLANE, CUSP, EX316],
                         ids=["plane", "cusp", "ex316"])
@pytest.mark.parametrize("q", [1, 2])
def test_back_substitute_inverts_the_taylor_table(ring, q):
    # re-expanding coordinates c, sum over gamma >= eta of
    # C(gamma,eta) x^(gamma-eta) c_gamma, gives the Taylor table back modulo
    # I at every slot |eta| <= q, for the closed form and the triangular solve
    rng = random.Random(8800 + 10 * q + len(ring.variables))
    n = len(ring.variables)
    for _ in range(20):
        h = _random_poly(rng, ring)
        table = _taylor_table(h, q)
        closed = dict(_expansion_coords(h, ring, q))
        solved = _back_substitute(dict(table), ring, q)
        for coords in (closed, solved):
            assert set(coords) == set(table)
            for eta, want in table.items():
                acc = -want
                for gamma, c in coords.items():
                    if all(g >= e for g, e in zip(gamma, eta)):
                        mult = prod(comb(g, e) for g, e in zip(gamma, eta))
                        shift = tuple(g - e for g, e in zip(gamma, eta))
                        acc += Polynomial.monomial(ring.variables, shift,
                                                   mult) * c
                assert nf_poly(acc, ring).is_zero(), (h, eta)
        # the constant slot feeds no other in the triangular solve
        table[(0,) * n] = Polynomial.monomial(
            ring.variables, tuple(rng.randrange(4) for _ in range(n)),
            rng.randrange(1, 9))
        moved = _back_substitute(table, ring, q)
        assert all(moved[g] == solved[g] for g in table if any(g)), h


def test_delta_expand_is_order_q():
    assert operator_is_order_at_most(
        lambda h: delta_expand(h, PLANE, 1), omega_presentation(PLANE, 1), 1,
        max_degree=3)
    assert operator_is_order_at_most(
        lambda h: delta_expand(h, CUSP, 2), omega_presentation(CUSP, 2), 2,
        max_degree=4)
    # and it genuinely is not of lower order
    assert not operator_is_order_at_most(
        lambda h: delta_expand(h, PLANE, 2), omega_presentation(PLANE, 2), 1,
        max_degree=3)


# ---------------------------------------------------------------------------
# presentations of Omega^q and jets


def test_omega_presentation_polynomial_ring_is_free():
    m = omega_presentation(PLANE, 2)
    assert m.ngens == 5 and m.relations == ()
    assert m.degrees == (1, 1, 2, 2, 2)


def test_omega_presentation_cusp_q1():
    m = omega_presentation(CUSP, 1)
    assert m.generators == ("d1(x)", "d1(y)")
    assert m.relations == ((p("-3*x^2", CUSP), p("2*y", CUSP)),)
    assert m.degrees == (2, 3)


PAPER_BASIS = ((2, 0), (0, 2), (1, 1), (1, 0), (0, 1))  # x^2, y^2, x*y, x, y


def test_cusp_second_order_relation_matrix():
    """Reference relation matrix of Omega^(2) of the cusp, columns ordered
    x^2, y^2, x*y, x, y.  Rows come from f, x*f, y*f; the last entry of the
    third row equals -y^2 = -x^3 in the quotient and the canonical form
    printed by the engine is -x^3."""
    m = omega_presentation(CUSP, 2, basis=PAPER_BASIS)
    assert len(m.relations) == 3
    matrix = [[_fmt(c) for c in r] for r in m.relations]
    assert matrix[0] == ["-3*x", "1", "0", "3*x^2", "0"]
    assert matrix[1] == ["-6*x^2", "x", "2*y", "7*x^3", "-2*x*y"]
    assert matrix[2][:4] == ["-3*x*y", "3*y", "-3*x^2", "6*x^2*y"]
    assert matrix[2][4] == "-x^3"
    # in R the canonical form agrees with the quoted representative -y^2
    from kahlerlab.groebner import nf_poly
    diff = m.relations[2][4] - p("-y^2", CUSP)
    assert nf_poly(diff, CUSP).is_zero()


def test_omega_presentation_is_cached_per_basis():
    m = omega_presentation(CUSP, 2, basis=PAPER_BASIS)
    assert omega_presentation(CUSP, 2, basis=tuple(list(PAPER_BASIS))) is m
    assert omega_presentation(CUSP, 2) != m


def _fmt(c):
    from kahlerlab.poly import format_polynomial
    return format_polynomial(c, CUSP.order())


def test_cusp_higher_shift_rows_are_redundant():
    # relation rows from |beta| = q shifts lie in the span of lower ones
    m = omega_presentation(CUSP, 2)
    from kahlerlab.groebner import submodule_over_ring
    basis = submodule_over_ring(m.relations, m.ngens, CUSP)
    for beta in ((2, 0), (1, 1), (0, 2)):
        shifted = Polynomial.monomial(CUSP.variables, beta) * CUSP.ideal[0]
        assert basis.contains(delta_expand(shifted, CUSP, 2))
    # the same holds for the jet rows of x^gamma * f * e_t with |gamma| = q,
    # which jq_presentation leaves out
    for q in (1, 2):
        for inner in (ring_as_module(CUSP), omega_presentation(CUSP, q)):
            jets = jq_presentation(inner, q)
            basis = relation_basis(jets)
            k = inner.ngens
            for gamma in ((a, q - a) for a in range(q + 1)):
                shifted = Polynomial.monomial(CUSP.variables, gamma) * CUSP.ideal[0]
                for t in range(k):
                    element = tuple(shifted if s == t else CUSP.zero()
                                    for s in range(k))
                    assert basis.contains(jet_expand(element, CUSP, q))


def test_jets_of_cusp_ring_presentation():
    m = jq_presentation(ring_as_module(CUSP), 1)
    assert m.generators == ("D1[e](1)", "D1[e](x)", "D1[e](y)")
    assert m.relations == ((p("x^3", CUSP), p("-3*x^2", CUSP), p("2*y", CUSP)),)
    assert m.degrees == (0, 2, 3)


def test_jet_expand_of_plain_generator():
    out = jet_expand((p("1", CUSP),), CUSP, 1)
    assert out == (p("1", CUSP), p("0", CUSP), p("0", CUSP))
    # Delta(x * e) is exactly the generator at beta = x
    out = jet_expand((p("x", CUSP),), CUSP, 1)
    assert out == (p("0", CUSP), p("1", CUSP), p("0", CUSP))


def test_jets_of_omega1_cusp():
    omega = omega_presentation(CUSP, 1)
    jm = jq_presentation(omega, 1)
    assert jm.generators == (
        "D1[d1(x)](1)", "D1[d1(y)](1)",
        "D1[d1(x)](x)", "D1[d1(y)](x)",
        "D1[d1(x)](y)", "D1[d1(y)](y)",
    )
    first = tuple(p(t, CUSP) for t in ("3*x^2", "0", "-6*x", "0", "0", "2"))
    assert jm.relations[0] == first
    assert jm.degrees == (2, 3, 4, 5, 5, 6)


def test_jq_presentation_of_free_modules_is_free():
    m = jq_presentation(omega_presentation(PLANE, 2), 2)
    assert m.ngens == 30 and m.relations == ()
    n = jq_presentation(omega_presentation(PLANE, 1), 1)
    assert n.ngens == 6 and n.relations == ()


def test_jet_module_needs_shifted_module_relations():
    # M = Q[x]/(x): J_1(M) is Q[x]/(x^2) on the single surviving generator
    # Delta(g); the x^2-relation only appears through the gamma = x shift
    # of the module relation.
    from kahlerlab.presentations import Presentation, relation_basis
    m = Presentation(LINE, ("g",),
                     ((parse_poly("x", LINE),),), (0,))
    jm = jq_presentation(m, 1)
    assert jm.ngens == 2  # Delta(g), Delta(x*g)
    assert not presentation_is_zero(jm)
    basis = relation_basis(jm)
    x2 = parse_poly("x^2", LINE)
    zero = parse_poly("0", LINE)
    one = parse_poly("1", LINE)
    assert basis.contains((x2, zero))          # x^2 * Delta(g) = 0
    assert basis.contains((zero, one))         # Delta(x*g) collapses
    assert not basis.contains((one, zero))     # but Delta(g) survives
    assert not basis.contains((parse_poly("x", LINE), zero))


# ---------------------------------------------------------------------------
# canonical maps


def test_theta_to_first_columns():
    theta = theta_to_first(PLANE, 2)
    cols = [tuple(_pf(c) for c in col) for col in theta.columns]
    assert cols == [
        ("1", "0"), ("0", "1"), ("2*x", "0"), ("y", "x"), ("0", "2*y")]
    assert check_well_defined(theta)


def _pf(c):
    from kahlerlab.poly import format_polynomial
    return format_polynomial(c)


def test_iota_columns():
    iota = iota_sym_to_omega2(PLANE)
    assert iota.source.generators == \
        ("s(d1(x),d1(x))", "s(d1(x),d1(y))", "s(d1(y),d1(y))")
    cols = [tuple(_pf(c) for c in col) for col in iota.columns]
    assert cols == [
        ("-2*x", "0", "1", "0", "0"),
        ("-y", "-x", "0", "1", "0"),
        ("0", "-2*y", "0", "0", "1"),
    ]
    assert check_well_defined(iota)


def test_theta_after_iota_vanishes():
    iota = iota_sym_to_omega2(PLANE)
    theta = theta_to_first(PLANE, 2)
    comp = compose(theta, iota)
    assert all(all(c.is_zero() for c in col) for col in comp.columns)


def test_splitting_t_retracts_iota():
    iota = iota_sym_to_omega2(PLANE)
    t = splitting_t(symmetric_derivation_solve(PLANE, 1))
    assert check_well_defined(t)
    assert verify_splitting(iota, t, Fraction(1, 2))


def test_theta_to_jets_line():
    theta = theta_to_jets(LINE, 1)
    cols = [tuple(_pf(c) for c in col) for col in theta.columns]
    assert cols == [("1", "0"), ("0", "2")]
    k, _ = kernel(theta)
    assert k.ngens == 0
    assert presentation_is_zero(cokernel(theta))


def test_theta_to_jets_plane_has_cokernel():
    theta = theta_to_jets(PLANE, 1)
    assert theta.source.ngens == 5 and theta.target.ngens == 6
    k, _ = kernel(theta)
    assert k.ngens == 0
    assert not presentation_is_zero(cokernel(theta))


def test_jets_of_ring_isomorphism_cusp():
    phi = jets_of_ring(CUSP, 1)
    assert check_well_defined(phi)
    k, _ = kernel(phi)
    assert k.ngens == 0
    assert presentation_is_zero(cokernel(phi))


# ---------------------------------------------------------------------------
# symmetric derivations


def test_symmetric_derivation_free_case():
    d = symmetric_derivation_solve(PLANE, 1)
    assert isinstance(d, SymmetricDerivation)
    assert all(all(c.is_zero() for c in img) for img in d.images)
    assert validate_symmetric_derivation(d) == []


def test_apply_derivation_leibniz_value():
    d = symmetric_derivation_solve(PLANE, 1)
    # D(x * d1(x)) = s(d1(x), d1(x)) when D kills the generators
    value = apply_derivation(d, (p("x"), p("0")))
    assert value == row(["1", "0", "0"])
    # D(y^2 * d1(y)) = 2y * s(d1(y), d1(y))
    value = apply_derivation(d, (p("0"), p("y^2")))
    assert value == row(["0", "0", "2*y"])


def test_symmetric_derivation_verdicts_agree_with_oracle():
    for ring in (PLANE, LINE, CUSP, CROSS, CONE):
        found = isinstance(symmetric_derivation_solve(ring, 1),
                           SymmetricDerivation)
        assert found == symmetric_derivation_oracle(ring, 1)


def test_validator_flags_broken_derivation():
    out = symmetric_derivation_solve(CUSP, 1)
    assert out == NoSolution(row(["6*x", "0", "-2"], CUSP))
    # fabricate a wrong derivation: zero images cannot satisfy the
    # constraint forced by the cusp relation
    omega = omega_presentation(CUSP, 1)
    sym = symmetric_square(omega)
    fake = SymmetricDerivation(
        CUSP, 1, omega, sym,
        tuple(sym.zero_row() for _ in range(omega.ngens)))
    assert validate_symmetric_derivation(fake) != []


def test_circle_derivation_has_images_and_validates_clean():
    d = symmetric_derivation_solve(CIRCLE, 1)
    assert d.images == (row(["-x", "0", "-x"], CIRCLE),
                        row(["-y", "0", "-y"], CIRCLE))
    # D(x d1(x)) = s(d1(x), d1(x)) + x D(d1(x))
    assert apply_derivation(d, row(["x", "0"], CIRCLE)) == \
        row(["1 - x^2", "0", "-x^2"], CIRCLE)
    # the order check's commutators are zero in S^2(Omega^1), though not
    # entry by entry modulo I
    assert validate_symmetric_derivation(d) == []


@pytest.mark.parametrize("degree_bound", [1, 2, 3])
def test_circle_oracle_agrees_with_the_solver(degree_bound):
    # an ungraded ring: the oracle searches all monomials up to the bound
    assert not CIRCLE.homogeneous
    assert isinstance(symmetric_derivation_solve(CIRCLE, 1),
                      SymmetricDerivation)
    assert symmetric_derivation_oracle(CIRCLE, 1, degree_bound)


def _dense_system_solvable(rows, rhs, ncols):
    """Dense Gauss-Jordan elimination over Q, the oracle's former solver,
    kept as the reference for the sparse one."""
    m = [[Fraction(row.get(c, 0)) for c in range(ncols)] + [Fraction(b)]
         for row, b in zip(rows, rhs)]
    r = 0
    for col in range(ncols):
        pivot = next((i for i in range(r, len(m)) if m[i][col] != 0), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        pv = m[r][col]
        m[r] = [a / pv for a in m[r]]
        for i in range(len(m)):
            if i != r and m[i][col] != 0:
                f = m[i][col]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        r += 1
        if r == len(m):
            break
    return not any(all(a == 0 for a in row[:-1]) and row[-1] != 0
                   for row in m)


def _seeded_system(rng, consistent):
    """A sparse system with small int entries whose right-hand side is A
    times a seeded solution; an inconsistent one gains a combination of
    its rows whose right-hand side is off by one."""
    ncols = rng.randrange(1, 12)
    rows = [{c: rng.choice((-3, -1, 1, 2, Fraction(1, 2)))
             for c in rng.sample(range(ncols), rng.randrange(1, ncols + 1))}
            for _ in range(rng.randrange(1, 12))]
    x = [rng.randrange(-3, 4) for _ in range(ncols)]
    rhs = [sum(v * x[c] for c, v in row.items()) for row in rows]
    if not consistent:
        combo = {}
        b = 1
        for row, value in zip(rows, rhs):
            f = rng.randrange(-2, 3)
            for c, v in row.items():
                combo[c] = combo.get(c, 0) + f * v
            b += f * value
        at = rng.randrange(len(rows) + 1)
        rows.insert(at, combo)
        rhs.insert(at, b)
    return rows, rhs, ncols


def test_sparse_system_solver_matches_the_dense_reference():
    """Seeded consistent and inconsistent systems, and systems with a
    random right-hand side: the verdict of the dense reference."""
    rng = random.Random(2801)
    verdicts = []
    for i in range(400):
        if i % 3 < 2:
            rows, rhs, ncols = _seeded_system(rng, consistent=i % 3 == 0)
            want = i % 3 == 0
        else:
            rows, _, ncols = _seeded_system(rng, consistent=True)
            rhs = [rng.randrange(-2, 3) for _ in rows]
            want = _dense_system_solvable(rows, rhs, ncols)
        assert _dense_system_solvable(rows, rhs, ncols) == want
        assert _rational_system_solvable(rows, rhs) == want
        verdicts.append(want)
    assert 100 < sum(verdicts) < 300


def test_solver_certificate_on_ex316():
    residual = ["0"] * 12
    residual[2], residual[3], residual[6], residual[11] = "2", "-2", "6*x", "-2"
    assert symmetric_derivation_solve(EX316, 1) == \
        NoSolution(row(residual, EX316))


def test_beta_to_sym_factors_through_jets():
    d = symmetric_derivation_solve(PLANE, 1)
    beta = beta_to_sym(d)
    assert beta.source.ngens == 6  # J_1(Omega^1) over the plane
    assert check_well_defined(beta)
    # beta composed with the jet of a generator recovers D + Leibniz part
    value = apply_map(beta, jet_expand((p("x"), p("0")), PLANE, 1))
    assert value == apply_derivation(d, (p("x"), p("0")))
