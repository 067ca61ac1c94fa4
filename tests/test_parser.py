"""Tests for .ring documents, polynomial/label parsing and rendering."""

import random
from fractions import Fraction

import pytest

from kahlerlab.parser import (
    NESTING_LIMIT,
    RingParseError,
    delta_label,
    jet_label,
    make_ringspec,
    parse_label,
    parse_monomials,
    parse_poly,
    parse_presentation_doc,
    parse_ringspec,
    ring_statements,
    statements_text,
    sym_label,
)
from kahlerlab.poly import Polynomial, format_polynomial

CUSP_TEXT = """
# plane curve with a cusp at the origin
vars = [x, y];
weights = [2, 3];
ideal = [y^2 - x^3];
assume_domain = true;
"""


def test_parse_cusp_ring():
    ring = parse_ringspec(CUSP_TEXT)
    assert ring.variables == ("x", "y")
    assert ring.weights == (2, 3)
    assert len(ring.ideal) == 1
    assert ring.assume_domain and ring.is_domain()
    assert ring.homogeneous is True
    f = ring.ideal[0]
    assert f.coefficient((0, 2)) == 1 and f.coefficient((3, 0)) == -1


def test_homogeneous_for_the_default_grading():
    assert parse_ringspec("vars = [x, y]; ideal = [x*y];").homogeneous is True
    circle = parse_ringspec("vars = [x, y]; ideal = [x^2 + y^2 - 1];")
    assert circle.homogeneous is False


def test_parse_polynomial_ring():
    ring = parse_ringspec("vars = [x];\nideal = [];\n")
    assert ring.variables == ("x",)
    assert ring.weights is None
    assert ring.ideal == ()
    assert ring.is_domain()  # no ideal, domain without assuming anything


def test_ring_round_trip():
    ring = parse_ringspec(CUSP_TEXT)
    text = statements_text(ring_statements(ring), ring.order())
    assert parse_ringspec(text) == ring


STATEMENT_ERRORS = {
    "semicolon-in-list": ("vars = [x; y];", 1, 10),
    "duplicate-statement": ("vars = [x]; vars = [y];", 1, 13),
    "missing-semicolon": ("vars = [x]", 1, 11),
    "unknown-statement": ("vars = [x]; mystery = [1];", 1, 13),
    "missing-vars": ("ideal = [x];", 1, 13),          # at the end of input
    "duplicate-variable": ("vars = [x, x];", 1, 1),   # at the statement name
    "weight-count": ("vars = [x, y]; weights = [1];", 1, 16),
    "weight-sign": ("vars = [x]; weights = [0];", 1, 13),
    "weight-sign-line-2": ("vars = [x];\nweights = [0];\n", 2, 1),
    "zero-ideal-generator": ("vars = [x]; ideal = [x - x];", 1, 13),
}


@pytest.mark.parametrize("text, line, col", list(STATEMENT_ERRORS.values()),
                         ids=list(STATEMENT_ERRORS))
def test_statement_grammar_errors(text, line, col):
    with pytest.raises(RingParseError) as err:
        parse_ringspec(text)
    assert (err.value.line, err.value.col) == (line, col)


def test_non_integral_weights_are_refused():
    with pytest.raises(RingParseError, match="weights must be integers"):
        make_ringspec(("x", "y"), weights=(2.5, 3))


def test_parse_error_carries_position():
    try:
        parse_ringspec("vars = [x];\nideal = [x^^2];\n")
    except RingParseError as err:
        assert err.line == 2
        assert err.col > 0
    else:
        raise AssertionError("expected a parse error")


@pytest.mark.parametrize("text, col", [
    ("vars = [x]; ideal = [x^\u00b2];", 24),  # superscript two
    ("vars = [x]; ideal = [x^\u0663];", 24),  # Arabic-Indic digit three
    ("vars = [\u00e9];", 9),                  # e with acute accent
])
def test_non_ascii_digits_and_letters_are_input_errors(text, col):
    with pytest.raises(RingParseError, match="unexpected character") as err:
        parse_ringspec(text)
    assert (err.value.line, err.value.col) == (1, col)


def test_parse_poly_basics():
    ring = make_ringspec(("x", "y"))
    p = parse_poly("-3*x^2*y + 2*y", ring)
    assert p.coefficient((2, 1)) == -3 and p.coefficient((0, 1)) == 2
    assert parse_poly("1/2*x - 1/2*x", ring).is_zero()
    assert parse_poly("(x + y)^2", ring) == parse_poly("x^2 + 2*x*y + y^2", ring)
    assert parse_poly("-x", ring) == -parse_poly("x", ring)
    assert parse_poly("7", ring).constant_term() == 7
    assert parse_poly("x - - y", ring) == parse_poly("x + y", ring)


def test_parse_poly_rejects_malformed_input():
    ring = make_ringspec(("x", "y"))
    for bad in ("x^^2", "x +", "2x", "x*", "(x", "x)", "z", "x^y", "", "x//2"):
        with pytest.raises(RingParseError):
            parse_poly(bad, ring)


def test_nesting_limit_is_an_input_error():
    # the [ of "ideal = [" is one level, so NESTING_LIMIT - 1 parentheses
    # fill the limit exactly and one more goes past it
    def ring_text(parens):
        return "vars = [x];\nideal = [%sx%s];\n" % ("(" * parens,
                                                   ")" * parens)
    ring = parse_ringspec(ring_text(NESTING_LIMIT - 1))
    assert ring.ideal == (parse_poly("x", ring),)
    with pytest.raises(RingParseError, match="nesting") as err:
        parse_ringspec(ring_text(NESTING_LIMIT))
    assert (err.value.line, err.value.col) == (2, 9 + NESTING_LIMIT)


def test_poly_format_round_trip():
    ring = make_ringspec(("x", "y"))
    rng = random.Random(11)
    for _ in range(80):
        terms = {}
        for _ in range(rng.randrange(0, 6)):
            k = (rng.randrange(0, 5), rng.randrange(0, 5))
            terms[k] = Fraction(rng.randrange(-8, 9), rng.randrange(1, 5))
        p = Polynomial(("x", "y"), terms)
        assert parse_poly(format_polynomial(p), ring) == p


def test_labels_render_and_parse():
    ring = make_ringspec(("x", "y"))
    d = delta_label(2, (2, 0), ring.variables)
    assert d == "d2(x^2)"
    assert parse_label("d2(x^2)", ring) == d
    # parsing gives the canonical text of the monomial
    assert parse_label("d2(x*x)", ring) == d

    j = jet_label(1, delta_label(1, (1, 0), ring.variables), (0, 1),
                  ring.variables)
    assert j == "D1[d1(x)](y)"
    assert parse_label("D1[d1(x)](y)", ring) == j
    assert parse_label("D1[d1(x^1)](1*y)", ring) == j

    base = jet_label(1, "e", (0, 0), ring.variables)
    assert base == "D1[e](1)"
    assert parse_label("D1[e](1)", ring) == base
    # a plain label is the identifier itself
    assert parse_label("k0", ring) == "k0"


def test_sym_label_is_unordered():
    ring = make_ringspec(("x", "y"))
    a = delta_label(1, (1, 0), ring.variables)
    b = delta_label(1, (0, 1), ring.variables)
    assert sym_label(a, b) == sym_label(b, a) == "s(d1(x),d1(y))"
    assert parse_label("s(d1(y),d1(x))", ring) == "s(d1(x),d1(y))"
    # factors are ordered as whole labels: "*" sorts before "^"
    assert sym_label("d2(x^2)", "d2(x*y)") == "s(d2(x*y),d2(x^2))"


def test_label_parse_errors():
    ring = make_ringspec(("x", "y"))
    for bad in ("d2(2*x)", "d2(x+y)", "s(d1(x))", "D1[d1(x)]", "d2()", "3"):
        with pytest.raises(RingParseError):
            parse_label(bad, ring)


def test_bad_monomial_is_reported_at_its_first_token():
    ring = make_ringspec(("x", "y"))
    for parse, text, col in ((parse_label, "d2(x+y)", 4),
                             (parse_monomials, "x+y,x", 1),
                             (parse_monomials, "2*x,y", 1),
                             (parse_monomials, "1/2*x", 1),
                             (parse_monomials, "x,x*y-y", 3)):
        with pytest.raises(RingParseError, match="expected a monomial") as err:
            parse(text, ring)
        assert (err.value.line, err.value.col) == (1, col), text


def test_presentation_document_parses():
    text = CUSP_TEXT + """
generators = [d1(x), d1(y)];
relations = [[-3*x^2, 2*y]];
"""
    ring, labels, rows = parse_presentation_doc(text)
    assert labels == ("d1(x)", "d1(y)")
    assert len(rows) == 1 and len(rows[0]) == 2
    assert rows[0][0] == parse_poly("-3*x^2", ring)


def test_presentation_document_row_length_checked():
    text = CUSP_TEXT + """
generators = [d1(x), d1(y)];
relations = [[x]];
"""
    with pytest.raises(RingParseError):
        parse_presentation_doc(text)


def test_comments_and_whitespace_ignored():
    ring = parse_ringspec("vars = [x];  # trailing comment\nideal = [\n  # inner\n];")
    assert ring.variables == ("x",)


def _random_tree(rng, depth):
    """An expression tree: a list of (sign, term), a term a run of unary
    minus signs and a list of (atom, exponent or None) factors, an atom a
    number (numerator, denominator or None), a variable or a group."""
    def atom():
        roll = rng.random()
        if depth and roll < 0.25:
            return ("group", _random_tree(rng, depth - 1))
        if roll < 0.55:
            return ("number", rng.choice((0, 1, 2, 3, 5)),
                    rng.choice((None, None, 1, 2, 3)))
        return ("var", rng.choice(("x", "y")))

    def term():
        factors = [(atom(), rng.choice((None, None, 0, 1, 2, 3)))
                   for _ in range(rng.randrange(1, 4))]
        return rng.choice((0, 0, 1, 2, 3)), factors

    return [(rng.choice("+-"), term()) for _ in range(rng.randrange(1, 4))]


def _tree_text(tree):
    def atom_text(a):
        if a[0] == "group":
            return "(%s)" % _tree_text(a[1])
        if a[0] == "number":
            return str(a[1]) if a[2] is None else "%d/%d" % a[1:]
        return a[1]

    parts = []
    for i, (sign, (minus, factors)) in enumerate(tree):
        body = "-" * minus + "*".join(
            atom_text(a) + ("" if n is None else "^%d" % n) for a, n in factors)
        parts.append(body if i == 0 else " %s %s" % (sign, body))
    return "".join(parts)


def _tree_value(tree, ring):
    """The tree built by Polynomial arithmetic, factor by factor."""
    def atom_value(a):
        if a[0] == "group":
            return _tree_value(a[1], ring)
        if a[0] == "number":
            return Polynomial.const(ring.variables, Fraction(a[1], a[2] or 1))
        return Polynomial.variable(ring.variables, a[1])

    total = ring.zero()
    for i, (sign, (minus, factors)) in enumerate(tree):
        value = ring.one()
        for a, n in factors:
            value = value * (atom_value(a) ** (1 if n is None else n))
        if minus % 2:
            value = -value
        total = total - value if i and sign == "-" else total + value
    return total


def test_random_expression_trees_parse_to_their_arithmetic():
    # nested parentheses, runs of unary minus, ^ on numbers, variables and
    # groups (so 1/2^2 is a quarter), n/d coefficients
    ring = make_ringspec(("x", "y"))
    rng = random.Random(2500)
    zero = 0
    for _ in range(300):
        tree = _random_tree(rng, rng.randrange(4))
        got = parse_poly(_tree_text(tree), ring)
        assert got == _tree_value(tree, ring), _tree_text(tree)
        assert all(type(c) is int or c.denominator > 1
                   for c in got.terms.values())
        zero += got.is_zero()
    assert 0 < zero < 300


@pytest.mark.parametrize("text, col, exponent", [
    ("(x^999999999)^2", 15, 1999999998),           # a group's power
    ("x^999999999*(x^999999999)", 12, 1999999998),  # the parent's *
    ("(x^999999999*x)*x^999999999", 16, 1999999999),
    ("x*(x^999999999*x^999999999)", 15, 1999999998),  # inside the group
])
def test_parenthesised_factor_overflow_is_reported_where_it_arises(
        text, col, exponent):
    ring = make_ringspec(("x",))
    with pytest.raises(RingParseError,
                       match="exponent %d exceeds limit" % exponent) as err:
        parse_poly(text, ring)
    assert (err.value.line, err.value.col) == (1, col)


def test_a_zero_product_never_overflows():
    ring = make_ringspec(("x",))
    for text in ("0*x^999999999*x^999999999", "x^999999999*(x - x)*x^999999999",
                 "(x - x)^2*(x^999999999 + 1)*(x^999999999 + 1)"):
        assert parse_poly(text, ring).is_zero()
    assert parse_poly("(x - x)^0 + 0^0", ring) == parse_poly("2", ring)
