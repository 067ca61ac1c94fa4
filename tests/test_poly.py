"""Unit tests for exact polynomial arithmetic and monomial orders."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from kahlerlab.derivations import doubled_variables
from kahlerlab.groebner import _vec_to_row
from kahlerlab.poly import (
    KEY_MEMO_LIMIT,
    ExponentOverflowError,
    MonomialOrder,
    Polynomial,
    format_polynomial,
    monomial_text,
    partial_derivative,
)

XY = ("x", "y")


def P(text_terms):
    """Tiny builder: dict {(a, b): coeff} -> Polynomial in x, y."""
    return Polynomial(XY, {k: Fraction(v) for k, v in text_terms.items()})


def test_zero_and_constants():
    z = Polynomial.zero(XY)
    assert z.is_zero() and z.is_constant()
    one = Polynomial.const(XY, 1)
    assert one.constant_term() == 1
    assert (one - one).is_zero()
    assert Polynomial.const(XY, 0) == z


def test_float_coefficients_are_refused():
    with pytest.raises(TypeError):
        Polynomial(("x",), {(1,): 0.5})
    with pytest.raises(TypeError):
        Polynomial.const(XY, 0.5)
    with pytest.raises(TypeError):
        P({(1, 0): 1}).scale(1 / 3)


def test_normalization_drops_zero_coefficients():
    p = Polynomial(XY, {(1, 0): Fraction(0), (0, 1): Fraction(2)})
    assert (1, 0) not in p.terms
    assert p == P({(0, 1): 2})
    # each exponent vector is checked before its zero coefficient is dropped
    for exps in ((-1, 0), (1,)):
        with pytest.raises(ValueError):
            Polynomial(XY, {exps: 0})


def test_non_integral_exponents_and_weights_are_refused():
    for build in (lambda: Polynomial(XY, {(1.7, 0): 1}),
                  lambda: Polynomial.monomial(XY, (1.0, 0)),
                  lambda: MonomialOrder((2.5, 3))):
        with pytest.raises(TypeError):
            build()
    assert Polynomial(XY, {(True, 0): 1}) == Polynomial.variable(XY, "x")


def test_arithmetic_matches_naive_model():
    import random

    rng = random.Random(7)

    def random_poly():
        terms = {}
        for _ in range(rng.randrange(0, 5)):
            k = (rng.randrange(0, 4), rng.randrange(0, 4))
            terms[k] = Fraction(rng.randrange(-5, 6), rng.randrange(1, 4))
        return Polynomial(XY, terms)

    def naive_mul(a, b):
        out = {}
        for ka, ca in a.terms.items():
            for kb, cb in b.terms.items():
                k = (ka[0] + kb[0], ka[1] + kb[1])
                out[k] = out.get(k, Fraction(0)) + ca * cb
        return Polynomial(XY, out)

    for _ in range(120):
        a, b = random_poly(), random_poly()
        assert a * b == naive_mul(a, b)
        assert a + b - b == a
        assert (a - a).is_zero()
        assert a * (b + b) == a * b + a * b


def test_pow_and_scale():
    x = Polynomial.variable(XY, "x")
    y = Polynomial.variable(XY, "y")
    p = x + y
    assert p ** 2 == x * x + x * y * 2 + y * y
    assert p.scale(Fraction(1, 2)) + p.scale(Fraction(1, 2)) == p


def test_exponent_overflow_guard():
    with pytest.raises(ExponentOverflowError):
        Polynomial(("x",), {(10 ** 9 + 1,): Fraction(1)})
    big = Polynomial(("x",), {(10 ** 9 - 1,): Fraction(1)})
    with pytest.raises(ExponentOverflowError):
        big * big
    # the engine's rows come back through the same per-monomial check
    with pytest.raises(ExponentOverflowError):
        _vec_to_row({(0, (1, 10 ** 9 + 1)): 3}, 1, XY)
    (at_limit,) = _vec_to_row({(0, (10 ** 9, 0)): 3, (1, (1, 1)): 2}, 1, XY)
    assert at_limit.terms == {(10 ** 9, 0): 3}
    # a ring without variables has nothing to check
    assert (Polynomial((), {(): 2}) * Polynomial((), {(): 3})).terms == {(): 6}


def _power_by_products(p, n):
    out = Polynomial.const(p.variables, 1)
    for _ in range(n):
        out = out * p
    return out


def test_named_constructors_and_one_term_powers_store_ints():
    x = Polynomial.variable(XY, "x")
    half_x = x.scale(Fraction(1, 2))
    two = Polynomial.const(XY, Fraction(4, 2))
    assert two.terms == {(0, 0): 2} and type(two.terms[(0, 0)]) is int
    assert Polynomial.const(XY, 0).terms == {}
    unit = half_x ** 0
    assert unit.terms == {(0, 0): 1} and type(unit.terms[(0, 0)]) is int
    assert half_x ** 3 == (x * x * x).scale(Fraction(1, 8))
    three_quarters = Polynomial.monomial(XY, (2, 1), Fraction(-3, 4))
    for p in (half_x, -x, three_quarters, two, Polynomial.zero(XY)):
        for n in range(5):
            got = p ** n
            assert got == _power_by_products(p, n)
            _assert_stored(got, public=True)
    # the check before the fast path names the final exponent
    with pytest.raises(ExponentOverflowError,
                       match="exponent 1000000002 exceeds limit"):
        Polynomial.monomial(XY, (2, 1)) ** (5 * 10 ** 8 + 1)


def test_named_constructors_check_their_arguments():
    with pytest.raises(ValueError):
        Polynomial.variable(XY, "z")
    with pytest.raises(TypeError):
        Polynomial.const(XY, 0.5)
    with pytest.raises(ValueError):
        Polynomial.monomial(XY, (-1, 0))
    with pytest.raises(ValueError):
        Polynomial.monomial(XY, (1,))
    with pytest.raises(ExponentOverflowError):
        Polynomial.monomial(XY, (10 ** 9 + 1, 0))


# A dict-of-Fraction reference for the arithmetic, which builds its results
# without the public constructor: each result is compared by value and its
# stored coefficients are checked.

def _ref(p):
    return {e: Fraction(c) for e, c in p.terms.items()}


def _ref_sum(*parts):
    out = {}
    for part in parts:
        for e, c in part.items():
            out[e] = out.get(e, Fraction(0)) + c
    return {e: c for e, c in out.items() if c}


def _ref_mul(a, b):
    return _ref_sum(*({(ea[0] + eb[0], ea[1] + eb[1]): ca * cb}
                      for ea, ca in a.items() for eb, cb in b.items()))


def _ref_derivative(a, i, order):
    out = {}
    for e, c in a.items():
        for _ in range(order):
            c *= e[i]
            e = e[:i] + (e[i] - 1,) + e[i + 1:]
        if c:
            out[e] = c
    return out


def _assert_stored(p, public=False):
    """No zero is stored, and every coefficient is an int or a Fraction;
    the public constructor stores no integral Fraction."""
    for c in p.terms.values():
        assert type(c) in (int, Fraction) and c != 0
        assert not (public and type(c) is Fraction and c.denominator == 1)


def _mixed_poly(rng):
    terms = {}
    for _ in range(rng.randrange(5)):
        e = (rng.randrange(4), rng.randrange(4))
        num = rng.randrange(-4, 5)
        kind = rng.randrange(3)
        terms[e] = (num if kind == 0 else Fraction(num) if kind == 1
                    else Fraction(num, rng.randrange(1, 4)))
    return Polynomial(XY, terms)


def test_fast_path_matches_the_fraction_reference():
    rng = random.Random(2024)
    for _ in range(300):
        a, b = _mixed_poly(rng), _mixed_poly(rng)
        _assert_stored(a, public=True)
        ra, rb = _ref(a), _ref(b)
        c = Fraction(rng.randrange(-3, 4), rng.randrange(1, 3))
        n = rng.randrange(4)
        power = {(0, 0): Fraction(1)}
        for _ in range(n):
            power = _ref_mul(power, ra)
        checks = [
            (a + b, _ref_sum(ra, rb)),
            (a - b, _ref_sum(ra, {e: -v for e, v in rb.items()})),
            (a - a, {}),
            (-a, {e: -v for e, v in ra.items()}),
            (a * b, _ref_mul(ra, rb)),
            (a.scale(c), {e: v * c for e, v in ra.items() if v * c}),
            (a * 2, {e: 2 * v for e, v in ra.items()}),
            (a ** n, power),
            (partial_derivative(a, 0), _ref_derivative(ra, 0, 1)),
            (partial_derivative(a, 1, 2), _ref_derivative(ra, 1, 2)),
        ]
        for got, want in checks:
            assert got.terms == want
            _assert_stored(got)
            _assert_stored(Polynomial(XY, got.terms), public=True)


def test_immutability():
    p = P({(1, 0): 1})
    with pytest.raises(AttributeError):
        p.terms = {}


def test_partial_derivative_and_taylor():
    # h = x^3*y + 2y^2
    h = P({(3, 1): 1, (0, 2): 2})
    assert partial_derivative(h, 0) == P({(2, 1): 3})
    assert partial_derivative(h, 1, 2) == P({(0, 0): 4})
    # taylor gamma=(2,1): d^3 h / (dx^2 dy) / (2! * 1!) = 3x
    taylor = partial_derivative(partial_derivative(h, 0, 2), 1)
    assert taylor.scale(Fraction(1, 2)) == P({(1, 0): 3})


def test_doubled_variables_avoid_collisions():
    assert doubled_variables(("x", "y")) == ("x", "y", "u", "v")
    full = doubled_variables(("u", "v"))
    assert full[:2] == ("u", "v")
    assert len(set(full)) == 4


def test_weighted_order_tie_break():
    # under weights (2, 3): y^2 and x^3 share degree 6 and y^2 wins
    order = MonomialOrder((2, 3))
    assert order.key((0, 2)) > order.key((3, 0))
    p = P({(0, 2): 1, (3, 0): -1})
    assert order.sort_terms(p)[0] == ((0, 2), 1)


def test_degrevlex_reads_from_first_variable():
    order = MonomialOrder()
    # same total degree: the monomial with smaller first exponent is larger
    assert order.key((0, 2)) > order.key((1, 1)) > order.key((2, 0))


_ORDERS = [MonomialOrder(), MonomialOrder((2, 3))]
_EXPS = st.tuples(st.integers(0, 6), st.integers(0, 6))


@settings(max_examples=200, deadline=None)
@given(_EXPS, _EXPS, st.sampled_from(_ORDERS))
def test_low_key_sorts_in_reverse(a, b, order):
    assert (order.key(a) < order.key(b)) == (order.low_key(a) > order.low_key(b))
    assert (a == b) == (order.low_key(a) == order.low_key(b))


def test_low_key_memo_stays_bounded():
    order = MonomialOrder()
    for i in range(KEY_MEMO_LIMIT + 10):
        assert order.low_key((i, 1)) == (-i - 1, (i, 1))
    assert 0 < len(order._low_keys) <= KEY_MEMO_LIMIT


def test_homogeneous_degree():
    w = (2, 3)
    f = P({(0, 2): 1, (3, 0): -1})
    assert f.homogeneous_degree(w) == 6
    assert (f + P({(1, 0): 1})).homogeneous_degree(w) is None
    assert Polynomial.zero(XY).homogeneous_degree(w) is None


def test_format_polynomial_canonical_text():
    f = P({(0, 2): 1, (3, 0): -1})
    order = MonomialOrder((2, 3))
    assert format_polynomial(f, order) == "y^2 - x^3"
    assert format_polynomial(P({(2, 1): -3, (0, 1): 2})) == "-3*x^2*y + 2*y"
    assert format_polynomial(Polynomial.zero(XY)) == "0"
    assert format_polynomial(P({(0, 0): -1})) == "-1"
    assert monomial_text((0, 0), XY) == "1"
    assert monomial_text((2, 1), XY) == "x^2*y"


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5),
                          st.integers(-9, 9)), max_size=6))
def test_multiplication_commutes(triples):
    a = Polynomial(XY, {(i, j): Fraction(c) for i, j, c in triples[:3]})
    b = Polynomial(XY, {(i, j): Fraction(c) for i, j, c in triples[3:]})
    assert a * b == b * a
    assert a * Polynomial.const(XY, 1) == a
