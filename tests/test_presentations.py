"""Tests for finitely presented modules and maps between them."""

import random
from fractions import Fraction
from importlib import resources
from itertools import combinations

import pytest

from kahlerlab.derivations import _rational_rank
from kahlerlab.diffmod import jq_presentation, omega_presentation
from kahlerlab.parser import (
    make_ringspec,
    parse_poly,
    parse_ringspec,
    presentation_text,
)
from kahlerlab.presentations import (
    Presentation,
    element_is_zero,
    free_presentation,
    parse_presentation,
    presentation_is_zero,
    rank,
    ring_as_module,
    symmetric_square,
    zero_presentation,
)
from kahlerlab.maps import (
    ModuleMap,
    apply_map,
    check_exact,
    check_well_defined,
    cokernel,
    compose,
    direct_sum,
    identity_map,
    kernel,
    verify_splitting,
    zero_map,
)
from kahlerlab.resolution import (_minor, free_resolution, minimal_presentation,
                                  minimal_resolution)

PLANE = make_ringspec(("x", "y"))
CUSP = parse_ringspec(
    "vars = [x, y]; weights = [2, 3]; ideal = [y^2 - x^3]; assume_domain = true;")
EX316 = parse_ringspec(
    "vars = [x, y, z]; weights = [4, 5, 6]; "
    "ideal = [y^2 - x*z, z^2 - x^3]; assume_domain = true;")


def p(text, ring=PLANE):
    return parse_poly(text, ring)


def test_free_module_basics():
    m = free_presentation(PLANE, ("a", "b"))
    assert m.ngens == 2 and m.relations == ()
    assert rank(m) == 2
    assert minimal_presentation(m).ngens == 2
    assert not presentation_is_zero(m)
    assert presentation_is_zero(zero_presentation(PLANE))


@pytest.mark.parametrize("labels", [
    ("a b", "c"), ("d1(x)", "d1(x*x)"), ("s(d1(y),d1(x))",), ("",), ("x y",)])
def test_free_presentation_refuses_label_text_that_does_not_read_back(labels):
    """A label that parse_label rejects or rewrites would write a document
    that does not parse back to the same presentation."""
    with pytest.raises(ValueError, match="not canonical label text"):
        free_presentation(PLANE, labels)


def test_free_presentation_document_round_trips():
    m = free_presentation(PLANE, ("a", "d1(x)", "s(d1(x),d1(y))", "D1[e](y)"))
    assert parse_presentation(presentation_text(m)) == m


def test_presentation_is_a_frozen_record():
    rows = ((p("x"), p("y")),)
    m = Presentation(PLANE, ("a", "b"), rows)
    assert m.degrees is None
    same = Presentation(ring=PLANE, generators=("a", "b"), relations=rows)
    assert m == same and hash(m) == hash(same)
    assert m != Presentation(PLANE, ("a", "b"), rows, (0, 0))
    with pytest.raises(AttributeError):
        m.relations = ()
    with pytest.raises(AttributeError):
        del m.degrees
    with pytest.raises(ValueError):
        Presentation(PLANE, ("a",), rows)


def test_record_fields_follow_declaration_order():
    # the fields come from each class's annotations, read at class creation
    from kahlerlab.derivations import SymmetricDerivation
    from kahlerlab.groebner import NoSolution, Solution
    from kahlerlab.parser import RingSpec
    from kahlerlab.resolution import AtLeast, Finite, ResolutionReport
    assert {cls: cls._fields for cls in (
        RingSpec, Presentation, ModuleMap, Solution, NoSolution,
        SymmetricDerivation, ResolutionReport, Finite, AtLeast)} == {
        RingSpec: ("variables", "weights", "ideal", "assume_domain",
                   "homogeneous"),
        Presentation: ("ring", "generators", "relations", "degrees"),
        ModuleMap: ("source", "target", "columns"),
        Solution: ("column",),
        NoSolution: ("residual",),
        SymmetricDerivation: ("ring", "q", "omega", "sym", "images"),
        ResolutionReport: ("module", "steps", "betti", "terminated",
                           "cutoff", "graded"),
        Finite: ("value",),
        AtLeast: ("value",),
    }


def test_ring_as_module():
    r = ring_as_module(CUSP)
    assert r.ngens == 1
    assert r.generators == ("e",)
    # the ideal acts invisibly: y^2 - x^3 kills the generator
    assert element_is_zero(r, (p("y^2 - x^3", CUSP),))
    assert not element_is_zero(r, (p("y", CUSP),))


def test_kernel_of_multiplication_map():
    # R^2 -> R, (a, b) |-> a*x + b*y; kernel generated by (y, -x), free
    src = free_presentation(PLANE, ("a", "b"))
    tgt = ring_as_module(PLANE)
    f = ModuleMap(src, tgt, ((p("x"),), (p("y"),)))
    k, incl = kernel(f)
    assert k.ngens == 1
    assert incl.columns[0] == (p("y"), p("-x"))
    assert k.relations == ()
    # kernel elements map to zero
    assert apply_map(f, incl.columns[0])[0].is_zero()


def test_kernel_of_injective_map_is_zero():
    src = free_presentation(PLANE, ("a",))
    tgt = ring_as_module(PLANE)
    f = ModuleMap(src, tgt, ((p("x"),),))
    k, _ = kernel(f)
    assert k.ngens == 0


def test_kernel_into_the_zero_module_is_the_whole_source():
    # a column of rank 0 is all tag, so it comes back as its unit syzygy
    x, zero = p("x", CUSP), p("0", CUSP)
    m = Presentation(CUSP, ("a", "b"), ((x, zero),))
    k, incl = kernel(zero_map(m, zero_presentation(CUSP)))
    assert incl.columns == (m.unit_row(0), m.unit_row(1))
    # relations pruned in ascending-lead order: no redundant (x^4, 0)
    assert k.relations == ((x, zero),)
    assert element_is_zero(k, (x, zero))
    assert all(element_is_zero(m, row) for row in k.relations)


def test_cokernel_and_zero_detection():
    src = free_presentation(PLANE, ("a", "b"))
    tgt = free_presentation(PLANE, ("u", "v"))
    f = ModuleMap(src, tgt, ((p("1"), p("0")), (p("x"), p("2"))))
    cok = cokernel(f)
    assert presentation_is_zero(cok)
    g = ModuleMap(src, tgt, ((p("x"), p("0")), (p("0"), p("y"))))
    assert not presentation_is_zero(cokernel(g))


def test_well_definedness_detects_bad_map():
    # M = R/(x); sending the generator to 1 in R is not well defined
    m = Presentation(PLANE, ("g",), ((p("x"),),))
    bad = ModuleMap(m, ring_as_module(PLANE), ((p("1"),),))
    assert not check_well_defined(bad)
    good = ModuleMap(m, Presentation(PLANE, ("h",), ((p("x"),),)), ((p("1"),),))
    assert check_well_defined(good)


def test_koszul_complex_is_exact():
    # 0 -> R -(y,-x)-> R^2 -(x,y)-> R: exact at R^2 (not at the right end)
    left = free_presentation(PLANE, ("w",))
    mid = free_presentation(PLANE, ("a", "b"))
    right = ring_as_module(PLANE)
    f = ModuleMap(left, mid, ((p("y"), p("-x")),))
    g = ModuleMap(mid, right, ((p("x"),), (p("y"),)))
    z = zero_presentation(PLANE)
    verdicts = check_exact([zero_map(z, left), f, g])
    assert verdicts == [True, True]


def test_check_exact_with_a_zero_map():
    # ker(id) = 0 = im(0): the zero column adds nothing to the image
    source = free_presentation(CUSP, ("w",))
    omega = omega_presentation(CUSP, 1)
    assert check_exact([zero_map(source, omega), identity_map(omega)]) == [True]


def test_check_exact_flags_failure():
    left = free_presentation(PLANE, ("w",))
    mid = free_presentation(PLANE, ("a", "b"))
    right = ring_as_module(PLANE)
    f = ModuleMap(left, mid, ((p("y^2"), p("-x*y")),))  # image strictly smaller
    g = ModuleMap(mid, right, ((p("x"),), (p("y"),)))
    assert check_exact([f, g]) == [False]
    # the zero module covers no kernel generator
    assert check_exact([ModuleMap(zero_presentation(PLANE), mid, ()), g]) \
        == [False]


def test_compose_and_identity():
    m = free_presentation(PLANE, ("a", "b"))
    f = identity_map(m)
    assert compose(f, f).columns == f.columns
    z = zero_map(m, m)
    assert all(all(c.is_zero() for c in col) for col in compose(f, z).columns)


def test_verify_splitting_identity():
    m = free_presentation(PLANE, ("a", "b"))
    assert verify_splitting(identity_map(m), identity_map(m))
    doubled = ModuleMap(m, m, tuple(
        tuple(c + c for c in col) for col in identity_map(m).columns))
    assert verify_splitting(identity_map(m), doubled, Fraction(1, 2))
    assert not verify_splitting(identity_map(m), doubled, Fraction(1, 3))


def test_direct_sum_shapes():
    a = Presentation(PLANE, ("a",), ((p("x"),),))
    b = Presentation(PLANE, ("b", "c"), ((p("y"), p("0")),))
    total, ia, ib = direct_sum(a, b)
    assert total.ngens == 3
    assert len(total.relations) == 2
    assert total.relations[0] == (p("x"), p("0"), p("0"))
    assert total.relations[1] == (p("0"), p("y"), p("0"))
    assert apply_map(ia, a.unit_row(0)) == (p("1"), p("0"), p("0"))
    assert apply_map(ib, b.unit_row(1)) == (p("0"), p("0"), p("1"))


def test_symmetric_square_of_free_module():
    m = free_presentation(PLANE, ("a", "b"))
    s = symmetric_square(m)
    assert s.generators == ("s(a,a)", "s(a,b)", "s(b,b)")
    assert s.relations == ()


def test_symmetric_square_relations():
    m = Presentation(PLANE, ("a", "b"), ((p("x"), p("y")),))
    s = symmetric_square(m)
    assert s.ngens == 3
    # x*s(a,a) + y*s(a,b) and x*s(a,b) + y*s(b,b)
    assert (p("x"), p("y"), p("0")) in s.relations
    assert (p("0"), p("x"), p("y")) in s.relations
    assert len(s.relations) == 2


def test_rank_with_relations():
    m = Presentation(PLANE, ("a", "b"), ((p("x"), p("y")),))
    assert rank(m) == 1
    n = Presentation(PLANE, ("a", "b"),
                     ((p("x"), p("0")), (p("0"), p("y"))))
    assert rank(n) == 0
    torsion = Presentation(CUSP, ("t",), ((p("x", CUSP),),))
    assert rank(torsion) == 0


def _minor_rank(m):
    """Reference rank: ngens minus the size of the largest minor of the
    relation matrix that is nonzero in R, searched from the largest down."""
    rows, cache = m.relations, {}
    for size in range(min(len(rows), m.ngens), 0, -1):
        for ridx in combinations(range(len(rows)), size):
            for cidx in combinations(range(m.ngens), size):
                if not _minor(rows, ridx, cidx, m.ring, cache).is_zero():
                    return m.ngens - size
    return m.ngens


def _evaluate(poly, point):
    total = Fraction(0)
    for exps, coeff in poly.terms.items():
        term = coeff
        for v, e in zip(point, exps):
            term *= Fraction(v) ** e
        total += term
    return total


def _random_presentation(ring, rng):
    """A small random relation matrix; some rows are R-combinations of
    earlier ones, some are multiples of an ideal generator (zero in R)."""
    x = [parse_poly(v, ring) for v in ring.variables]
    monomials = [parse_poly("1", ring)] + x + [a * b for a in x for b in x]

    def entry():
        if rng.random() < 0.4:
            return ring.zero()
        return sum((m.scale(rng.randint(-2, 2))
                    for m in rng.sample(monomials, rng.randint(1, 2))),
                   ring.zero())

    ngens = rng.randint(1, 4)
    rows = []
    for _ in range(rng.randint(1, 4)):
        kind = rng.random()
        if rows and kind < 0.3:
            a, b = rng.choice(rows), rng.choice(rows)
            ca, cb = entry(), entry()
            rows.append(tuple(ca * u + cb * v for u, v in zip(a, b)))
        elif ring.ideal and kind < 0.4:
            f = rng.choice(ring.ideal)
            rows.append(tuple(f * entry() for _ in range(ngens)))
        else:
            rows.append(tuple(entry() for _ in range(ngens)))
    return Presentation(ring, tuple("g%d" % i for i in range(ngens)),
                        tuple(rows))


@pytest.mark.parametrize("ring,seed", [(PLANE, 11), (CUSP, 12), (EX316, 13)],
                         ids=["plane", "cusp", "ex316"])
def test_rank_matches_minor_search(ring, seed):
    rng = random.Random(seed)
    for _ in range(40):
        m = _random_presentation(ring, rng)
        assert rank(m) == _minor_rank(m), m.relations


@pytest.mark.parametrize("ring,point,seed",
                         [(CUSP, (1, 1), 21), (EX316, (1, 1, 1), 22)],
                         ids=["cusp", "ex316"])
def test_rank_is_bounded_by_a_point_of_the_variety(ring, point, seed):
    # a minor nonzero at p in V(I) is nonzero in R: rank M <= n - rank A(p)
    assert all(_evaluate(f, point) == 0 for f in ring.ideal)
    rng = random.Random(seed)
    for _ in range(40):
        m = _random_presentation(ring, rng)
        at_p = [dict(enumerate(_evaluate(e, point) for e in row))
                for row in m.relations]
        assert rank(m) <= m.ngens - _rational_rank(at_p, [0] * len(at_p))


def test_ex316_ranks_beyond_the_minor_search():
    jets = jq_presentation(omega_presentation(EX316, 1), 1)
    sym = symmetric_square(omega_presentation(EX316, 2))
    for m, expected in ((jets, 2), (sym, 3)):
        assert rank(m) == expected
        at_p = [dict(enumerate(_evaluate(e, (1, 1, 1)) for e in row))
                for row in m.relations]
        assert expected <= m.ngens - _rational_rank(at_p, [0] * len(at_p))


def test_rank_requires_domain():
    square = parse_ringspec("vars = [x]; ideal = [x^2];")
    m = ring_as_module(square)
    with pytest.raises(ValueError):
        rank(m)


def test_minimal_presentation_drops_a_redundant_generator():
    # one generator is redundant: b = -x*a after the constant pivot
    m = Presentation(PLANE, ("a", "b"), ((p("x"), p("1")),))
    assert minimal_presentation(m).ngens == 1


def test_minimal_chain_rejects_a_unit_that_is_not_constant():
    # x + 1 is a unit at the origin but not a constant: no count is read off
    m = Presentation(CUSP, ("a",), ((p("x + 1", CUSP),),), degrees=(2,))
    with pytest.raises(ValueError):
        minimal_resolution(m, 1)
    ok = Presentation(CUSP, ("a", "b"),
                      ((p("y", CUSP), p("x", CUSP)),), degrees=(2, 3))
    assert minimal_presentation(ok).ngens == 2


def _corpus_ring(name):
    return parse_ringspec(resources.files("kahlerlab").joinpath(
        "corpus", name + ".ring").read_text())


SWEEP_CHECK_MODULES = {
    "omega": lambda ring, q: omega_presentation(ring, q),
    "sym2:omega": lambda ring, q: symmetric_square(omega_presentation(ring, q)),
    "jets:omega": lambda ring, q: jq_presentation(omega_presentation(ring, q), q),
}


@pytest.mark.parametrize("module", sorted(SWEEP_CHECK_MODULES))
@pytest.mark.parametrize("name, q", [
    ("cusp", 1), ("cusp", 2), ("poly2", 1), ("poly2", 2),
    ("poly1", 1), ("poly3", 1), ("ex316", 1)])
def test_minimal_betti_numbers_match_the_constant_ranks(name, q, module):
    # The origin lies on V(I), so evaluation there is a ring map R -> Q, and
    # for any free resolution F of M, beta_i = rank F_i - rank_Q d_i(0) -
    # rank_Q d_(i+1)(0) (Eisenbud, The Geometry of Syzygies, ch. 1).  Read
    # off the raw chain, this checks the scalar sweep without running it;
    # the Q-ranks come from the oracle's elimination, not from _eliminate.
    c = 3
    m = SWEEP_CHECK_MODULES[module](_corpus_ring(name), q)
    raw = free_resolution(m, c + 1)
    at_0 = [[dict(enumerate(x.constant_term() for x in row)) for row in step]
            for step in raw.steps]
    ranks = [0] + [_rational_rank(step, [0] * len(step)) for step in at_0]
    ranks += [0] * (c + 2 - len(ranks))
    free = list(raw.betti) + [0] * (c + 1 - len(raw.betti))
    betti = list(minimal_resolution(m, c).betti)
    assert betti + [0] * (c + 1 - len(betti)) == [
        free[i] - ranks[i] - ranks[i + 1] for i in range(c + 1)]


def test_parse_presentation_round_trip():
    text = """
vars = [x, y];
ideal = [];
generators = [a, b];
relations = [[x, y]];
"""
    m = parse_presentation(text)
    assert m.ngens == 2
    assert m.relations == ((p("x"), p("y")),)


ROUND_TRIP_MODULES = {
    "omega1": lambda ring: omega_presentation(ring, 1),
    "omega2": lambda ring: omega_presentation(ring, 2),
    "jets1:omega1": lambda ring: jq_presentation(omega_presentation(ring, 1), 1),
    "sym2:omega1": lambda ring: symmetric_square(omega_presentation(ring, 1)),
    "jets2:ring": lambda ring: jq_presentation(ring_as_module(ring), 2),
}


@pytest.mark.parametrize("module", sorted(ROUND_TRIP_MODULES))
@pytest.mark.parametrize("name", ["poly2", "cusp", "ex316"])
def test_presentation_text_parses_back(name, module):
    # the d, D[...]() and s(,) labels and relation matrices parse back
    m = ROUND_TRIP_MODULES[module](_corpus_ring(name))
    back = parse_presentation(presentation_text(m))
    assert (back.ring, back.generators, back.relations) == \
        (m.ring, m.generators, m.relations)
