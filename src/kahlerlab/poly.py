"""Exact sparse multivariate polynomial arithmetic over the rationals.

A polynomial is an immutable map from exponent vectors to nonzero int or
`fractions.Fraction` coefficients, tagged with an ordered variable list.
The public constructor checks its input and stores an integral value as an
int.  The named constructors (`zero`, `const`, `variable`, `monomial`)
check only the arguments their caller supplies, and arithmetic on valid
polynomials builds its results unchecked: what the program built itself
is trusted, not validated again.
Everything downstream (Groebner bases, module presentations, differential
expansions) is built on three things provided here:

* exact ring arithmetic in canonical form,
* graded reverse-lex monomial orders, by total or weighted degree,
* iterated partial derivatives.

The canonical text rendering (descending terms under the active order,
explicit ``*`` and ``^``, e.g. ``-3*x^2*y + 2*y``) is the interchange
format used by the parser, the CLI and the test corpus.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from math import perm
from operator import add, index
from typing import Dict, List, Optional, Sequence, Tuple, Union

ExpVec = Tuple[int, ...]
Coeff = Union[int, Fraction]

# Exponents are checked, not silently wrapped: anything this large is a bug
# in the caller, never a legitimate desk-scale computation.
EXPONENT_LIMIT = 10 ** 9

# Entries an order keeps in its low-key memo before it starts the memo afresh,
# so a long-lived order (a cached ring basis) stays bounded.
KEY_MEMO_LIMIT = 1 << 14


_set = object.__setattr__


class Record:
    """Immutable value whose fields are the annotated names of its class and
    bases, in declaration order, given by position or keyword; a class-level
    value is a default.  ``__post_init__`` runs after the fields are set.
    A record equals only a record of its own class with equal fields and
    hashes as the tuple of its field values."""

    _fields: Tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields += tuple(cls.__annotations__)

    def __init__(self, *args, **kwargs):
        cls, names, values = type(self), self._fields, self.__dict__
        if len(args) > len(names):
            raise TypeError("%s takes %d fields" % (cls.__name__, len(names)))
        values.update(zip(names, args))
        for name in names[len(args):]:
            if name in kwargs:
                values[name] = kwargs.pop(name)
            elif hasattr(cls, name):
                values[name] = getattr(cls, name)
            else:
                raise TypeError("%s needs field %r" % (cls.__name__, name))
        if kwargs:
            raise TypeError("%s has no free field %s"
                            % (cls.__name__, ", ".join(kwargs)))
        self.__post_init__()

    def __post_init__(self):
        pass

    def __setattr__(self, name, value):
        raise AttributeError("%s is immutable" % type(self).__name__)

    def __delattr__(self, name):
        raise AttributeError("%s is immutable" % type(self).__name__)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self.__dict__ == other.__dict__

    def __hash__(self):
        return hash(tuple(self.__dict__.values()))

    def __repr__(self):
        return "%s(%s)" % (type(self).__name__, ", ".join(
            "%s=%r" % item for item in self.__dict__.items()))


class ExponentOverflowError(OverflowError):
    """A monomial exponent exceeded EXPONENT_LIMIT."""


def _check_exponents(exps: ExpVec) -> None:
    for e in exps:
        if e < 0:
            raise ValueError("negative exponent %r" % (exps,))
        if e > EXPONENT_LIMIT:
            raise ExponentOverflowError("exponent %d exceeds limit" % e)


class MonomialOrder:
    """The graded reverse-lex order of a weight vector, compatible with
    multiplication.

    Degree is the weighted degree sum(w_i * e_i) for positive weights, or
    the total degree when no weights are given (every weight 1).  Degree
    ties are broken reverse-lexicographically reading exponent differences
    from the first listed variable: among monomials of equal degree, the
    one with the smaller exponent on the earliest differing variable is the
    larger.  (With variables [x, y] this makes y^2 > x*y > x^2.)

    ``key`` maps an exponent vector to a tuple that sorts in order
    (bigger key = bigger monomial), so it can be fed straight to ``sorted``.
    ``low_key`` is its reverse (smaller low key = bigger monomial), the
    form a min-heap of pending terms wants.  It is memoised per order
    instance, up to ``KEY_MEMO_LIMIT`` entries.
    """

    __slots__ = ("weights", "_low_keys")

    def __init__(self, weights: Optional[Sequence[int]] = None):
        if weights is not None:
            weights = tuple(map(index, weights))
            if any(w < 1 for w in weights):
                raise ValueError("weights must be >= 1")
        self.weights = weights
        self._low_keys: Dict[ExpVec, tuple] = {}

    def degree(self, exps: ExpVec) -> int:
        if self.weights is None:
            return sum(exps)
        return sum(w * e for w, e in zip(self.weights, exps))

    def key(self, exps: ExpVec):
        return (self.degree(exps), tuple(-e for e in exps))

    def low_key(self, exps: ExpVec):
        """``(-degree, exps)``: sorts in reverse order."""
        k = self._low_keys.get(exps)
        if k is None:
            if len(self._low_keys) >= KEY_MEMO_LIMIT:
                self._low_keys.clear()
            k = (-self.degree(exps), exps)
            self._low_keys[exps] = k
        return k

    def sort_terms(self, poly: "Polynomial") -> List[Tuple[ExpVec, Coeff]]:
        """Terms of ``poly`` in descending order (leading term first)."""
        return sorted(poly.terms.items(), key=lambda t: self.key(t[0]), reverse=True)

    def __eq__(self, other):
        return (isinstance(other, MonomialOrder)
                and self.weights == other.weights)

    def __hash__(self):
        return hash(self.weights)

    def __repr__(self):
        return "MonomialOrder(weights=%r)" % (self.weights,)


def _coefficient(value) -> Coeff:
    """An exact coefficient, int if integral; no float: Fraction(1/3) != 1/3."""
    if type(value) is int:
        return value
    if type(value) is not Fraction:
        if isinstance(value, float):
            raise TypeError("float coefficient %r: use int or Fraction" % (value,))
        value = Fraction(value)
    return value.numerator if value.denominator == 1 else value


def _trusted(variables: Tuple[str, ...], terms: Dict[ExpVec, Coeff]) -> "Polynomial":
    """A polynomial on terms already known valid: nonzero int or Fraction
    coefficients on exponent tuples of the right length, within the limit."""
    p = object.__new__(Polynomial)
    _set(p, "variables", variables)
    _set(p, "terms", terms)
    return p


def _grown(variables: Tuple[str, ...], terms: Dict[ExpVec, Coeff]) -> "Polynomial":
    """`_trusted` for exponents that are sums, so each may pass the limit."""
    top = max(map(max, terms)) if terms and variables else 0
    if top > EXPONENT_LIMIT:
        raise ExponentOverflowError("exponent %d exceeds limit" % top)
    return _trusted(variables, terms)


class Polynomial:
    """Immutable exact polynomial; ``terms`` maps ExpVec -> nonzero int or Fraction."""

    __slots__ = ("variables", "terms", "_hash")

    def __init__(self, variables: Sequence[str], terms: Dict[ExpVec, Coeff]):
        variables = tuple(variables)
        clean: Dict[ExpVec, Coeff] = {}
        n = len(variables)
        for exps, coeff in terms.items():
            exps = tuple(map(index, exps))
            if len(exps) != n:
                raise ValueError("exponent vector %r has wrong length" % (exps,))
            _check_exponents(exps)
            if type(coeff) is not int:
                coeff = _coefficient(coeff)
            if coeff:
                clean[exps] = coeff
        _set(self, "variables", variables)
        _set(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, variables: Sequence[str]) -> "Polynomial":
        return _trusted(tuple(variables), {})

    @classmethod
    def const(cls, variables: Sequence[str], value) -> "Polynomial":
        variables = tuple(variables)
        value = _coefficient(value)
        return _trusted(variables, {(0,) * len(variables): value} if value else {})

    @classmethod
    def variable(cls, variables: Sequence[str], name: str) -> "Polynomial":
        variables = tuple(variables)
        idx = list(variables).index(name)
        exps = tuple(1 if i == idx else 0 for i in range(len(variables)))
        return _trusted(variables, {exps: 1})

    @classmethod
    def monomial(cls, variables: Sequence[str], exps: ExpVec, coeff=1) -> "Polynomial":
        variables = tuple(variables)
        exps = tuple(map(index, exps))
        if len(exps) != len(variables):
            raise ValueError("exponent vector %r has wrong length" % (exps,))
        _check_exponents(exps)
        coeff = _coefficient(coeff)
        return _trusted(variables, {exps: coeff} if coeff else {})

    # -- predicates and views -----------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(not any(e) for e in self.terms)

    def constant_term(self) -> Coeff:
        return self.terms.get((0,) * len(self.variables), 0)

    def coefficient(self, exps: ExpVec) -> Coeff:
        return self.terms.get(tuple(exps), 0)

    def total_degree(self) -> int:
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def homogeneous_degree(self, weights: Optional[Sequence[int]]) -> Optional[int]:
        """The common (weighted) degree of all terms, or None if mixed/zero."""
        degs = set()
        for e in self.terms:
            if weights is None:
                degs.add(sum(e))
            else:
                degs.add(sum(w * x for w, x in zip(weights, e)))
        if len(degs) == 1:
            return degs.pop()
        return None

    # -- arithmetic ----------------------------------------------------

    def _coerce(self, other) -> "Polynomial":
        if isinstance(other, Polynomial):
            if other.variables != self.variables:
                raise ValueError("variable-list mismatch: %r vs %r"
                                 % (self.variables, other.variables))
            return other
        if isinstance(other, (int, Fraction)):
            return Polynomial.const(self.variables, other)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out = dict(self.terms)
        for exps, coeff in other.terms.items():
            acc = out.get(exps, 0) + coeff
            if acc:
                out[exps] = acc
            else:
                del out[exps]
        return _trusted(self.variables, out)

    __radd__ = __add__

    def __neg__(self):
        return _trusted(self.variables, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out: Dict[ExpVec, Coeff] = {}
        for ea, ca in self.terms.items():
            for eb, cb in other.terms.items():
                exps = tuple(map(add, ea, eb))
                acc = out.get(exps, 0) + ca * cb
                if acc:
                    out[exps] = acc
                else:
                    del out[exps]
        return _grown(self.variables, out)

    __rmul__ = __mul__

    def scale(self, c) -> "Polynomial":
        c = _coefficient(c)
        if not c:
            return _trusted(self.variables, {})
        return _trusted(self.variables, {e: k * c for e, k in self.terms.items()})

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError("polynomial powers take a non-negative integer")
        # the largest exponent of self**n is n times that of self; checking
        # it first names it, not an intermediate of the squaring
        top = n * max(chain.from_iterable(self.terms), default=0)
        if top > EXPONENT_LIMIT:
            raise ExponentOverflowError("exponent %d exceeds limit" % top)
        if len(self.terms) == 1:
            # (c x^e)^n = c^n x^(n e); Fraction(1, 2) ** 0 is Fraction(1, 1)
            (exps, c), = self.terms.items()
            return _trusted(self.variables,
                            {tuple(n * e for e in exps): _coefficient(c ** n)})
        out = Polynomial.const(self.variables, 1)
        base = self
        while n:
            if n & 1:
                out = out * base
            n >>= 1
            if n:
                base = base * base
        return out

    # -- equality ------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            if isinstance(other, (int, Fraction)):
                return self.variables is not None and self == Polynomial.const(self.variables, other)
            return NotImplemented
        return self.variables == other.variables and self.terms == other.terms

    def __hash__(self):
        try:
            return self._hash
        except AttributeError:
            _set(self, "_hash", hash((self.variables, frozenset(self.terms.items()))))
            return self._hash

    def __bool__(self):
        return bool(self.terms)

    def __repr__(self):
        return "Polynomial(%s)" % format_polynomial(self)


def partial_derivative(h: Polynomial, var_index: int, order: int = 1) -> Polynomial:
    """Exact iterated partial derivative d^order h / d x_{var_index}^order."""
    if not 0 <= var_index < len(h.variables):
        raise ValueError("variable index out of range")
    if order < 1:
        raise ValueError("derivative order must be >= 1")
    out: Dict[ExpVec, Coeff] = {}
    for exps, coeff in h.terms.items():
        e = exps[var_index]
        if e < order:
            continue
        new = list(exps)
        new[var_index] = e - order
        out[tuple(new)] = coeff * perm(e, order)
    return _trusted(h.variables, out)


def monomial_text(exps: ExpVec, variables: Sequence[str]) -> str:
    """Render x^alpha ('1' for the empty monomial), explicit * and ^."""
    parts = []
    for name, e in zip(variables, exps):
        if e == 0:
            continue
        parts.append(name if e == 1 else "%s^%d" % (name, e))
    return "*".join(parts) if parts else "1"


def format_polynomial(p: Polynomial, order: Optional[MonomialOrder] = None) -> str:
    """Canonical text: descending terms, explicit * and ^, e.g. -3*x^2*y + 2*y."""
    if p.is_zero():
        return "0"
    if order is None:
        order = MonomialOrder()
    pieces: List[str] = []
    for exps, coeff in order.sort_terms(p):
        mono = monomial_text(exps, p.variables)
        mag = abs(coeff)
        if mono == "1":
            body = str(mag)
        elif mag == 1:
            body = mono
        else:
            body = "%s*%s" % (mag, mono)
        if not pieces:
            pieces.append("-" + body if coeff < 0 else body)
        else:
            pieces.append((" - " if coeff < 0 else " + ") + body)
    return "".join(pieces)
