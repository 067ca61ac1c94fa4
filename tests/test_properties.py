"""Smoke runs of the randomized suites; the acceptance gate runs them at
full case counts."""

import random

import pytest

from kahlerlab import properties as ps
from kahlerlab.poly import Polynomial


@pytest.mark.parametrize("suite", ps.ALL_SUITES, ids=lambda f: f.__name__)
def test_suite_smoke(suite):
    rng = random.Random(20240 + ps.ALL_SUITES.index(suite))
    assert suite(rng, 25) >= 25


# the next 64 random bits after verify-paper's run of each suite
# (Random(7000 + i), 200 cases), on Python 3.11.7: a suite that skips a
# repeated input must still make every draw
NEXT_BITS = {
    "run_poly_canonical": 15402051381604622226,
    "run_groebner_properties": 3293834405684305004,
    "run_parser_round_trips": 10335088919846325032,
    "run_leibniz_identity": 7552549229757000519,
    "run_relation_set_equivalence": 8540437041955156501,
}


@pytest.mark.parametrize("suite", ps.ALL_SUITES, ids=lambda f: f.__name__)
def test_suites_draw_the_same_random_inputs(suite):
    rng = random.Random(7000 + ps.ALL_SUITES.index(suite))
    assert suite(rng, 200) == 200
    assert rng.getrandbits(64) == NEXT_BITS[suite.__name__]


def test_parser_suite_fails_on_a_wrong_ring_document(monkeypatch):
    cusp_text = ps.statements_text(ps.ring_statements(ps.CUSP), ps.CUSP.order())
    real = ps.parse_ringspec

    def parse(text):
        return ps.PLANE if text == cusp_text else real(text)

    monkeypatch.setattr(ps, "parse_ringspec", parse)
    with pytest.raises(AssertionError):
        ps.run_parser_round_trips(random.Random(7002), 200)


def test_relation_set_suite_fails_at_the_first_bad_pair(monkeypatch):
    real = ps.delta_expand
    built = []
    real_monomials = ps.delta_monomials

    def monomials(ring, q):
        built.append((ring, q))
        return real_monomials(ring, q)

    def expand(h, ring, q):
        if (ring, q) != (ps.CUSP, 2):
            return real(h, ring, q)
        # delta_x is a generator of the jet module, not a relation
        n = len(real_monomials(ring, q))
        return tuple(Polynomial.const(ring.variables, int(i == 0))
                     for i in range(n))

    monkeypatch.setattr(ps, "delta_monomials", monomials)
    monkeypatch.setattr(ps, "delta_expand", expand)
    with pytest.raises(AssertionError):
        ps.run_relation_set_equivalence(random.Random(7004), 200)
    # the suite stopped on the first case that drew (CUSP, 2)
    assert built[-1] == (ps.CUSP, 2)
    assert built.count((ps.CUSP, 2)) == 1
