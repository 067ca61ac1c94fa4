"""Parse and render ring files, polynomials, labels and result documents.

One small grammar serves files and CLI arguments alike:

    vars = [x, y];
    weights = [2, 3];            # optional, positive integers
    ideal = [y^2 - x^3];         # optional, defaults to []
    assume_domain = true;        # optional, defaults to false

Polynomial expressions allow +, -, *, ^, parentheses and rational literals
like 3/2 -- nothing else.  Presentation documents reuse the same statement
grammar with two more keys (`generators`, `relations`), so every text
rendering produced here parses back.

Generator labels follow a fixed grammar so bases are typeable in tests:
``d2(x^2)`` (order-2 differential generator), ``D1[d1(x)](y)`` (jet
generator: inner label in brackets, multiplier monomial in parens),
``s(d1(x),d1(y))`` (unordered symmetric pair, stored canonically), and
plain identifiers.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from .poly import (Coeff, ExpVec, ExponentOverflowError, MonomialOrder,
                   Polynomial, format_polynomial, monomial_text)

_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_DELTA_RE = re.compile(r"^d([0-9]+)$")
_JET_RE = re.compile(r"^D([0-9]+)$")


class RingParseError(ValueError):
    """Syntax or validation error, carrying 1-based line/column."""

    def __init__(self, message: str, line: int = 0, col: int = 0):
        self.line = line
        self.col = col
        if line:
            message = "%s (line %d, column %d)" % (message, line, col)
        super().__init__(message)


# ---------------------------------------------------------------------------
# ring specification


@dataclass(frozen=True)
class RingSpec:
    """An affine algebra R = Q[x_1..x_s]/(f_1..f_m) with optional weights.

    `homogeneous` records (when weights are declared) whether every ideal
    generator is weighted-homogeneous; it is informational, not required.
    """

    variables: Tuple[str, ...]
    weights: Optional[Tuple[int, ...]]
    ideal: Tuple[Polynomial, ...]
    assume_domain: bool
    homogeneous: Optional[bool]

    def order(self) -> MonomialOrder:
        if self.weights is not None:
            return MonomialOrder("weighted", self.weights)
        return MonomialOrder("degrevlex")

    def is_domain(self) -> bool:
        # A polynomial ring (empty ideal) over Q is always a domain.
        return self.assume_domain or not self.ideal

    def zero(self) -> Polynomial:
        return Polynomial.zero(self.variables)

    def one(self) -> Polynomial:
        return Polynomial.const(self.variables, 1)


def make_ringspec(variables: Sequence[str],
                  weights: Optional[Sequence[int]] = None,
                  ideal: Sequence[Polynomial] = (),
                  assume_domain: bool = False) -> RingSpec:
    variables = tuple(variables)
    if not variables:
        raise RingParseError("at least one variable is required")
    seen = set()
    for name in variables:
        if not _IDENT_RE.fullmatch(name):
            raise RingParseError("invalid variable name %r" % name)
        if name in seen:
            raise RingParseError("duplicate variable %r" % name)
        seen.add(name)
    if weights is not None:
        weights = tuple(int(w) for w in weights)
        if len(weights) != len(variables):
            raise RingParseError("expected %d weights, got %d"
                                 % (len(variables), len(weights)))
        if any(w < 1 for w in weights):
            raise RingParseError("weights must be positive")
    ideal = tuple(ideal)
    for f in ideal:
        if f.variables != variables:
            raise RingParseError("ideal generator uses a different variable list")
        if f.is_zero():
            raise RingParseError("zero polynomial in ideal list")
    homogeneous: Optional[bool] = None
    if weights is not None:
        homogeneous = all(f.homogeneous_degree(weights) is not None for f in ideal)
    return RingSpec(variables, weights, ideal, bool(assume_domain), homogeneous)


# ---------------------------------------------------------------------------
# generator labels


class Label:
    """Base class for generator labels; subclasses are immutable."""

    __slots__ = ()

    def render(self) -> str:
        raise NotImplementedError

    def __repr__(self):
        return self.render()

    def __eq__(self, other):
        return type(self) is type(other) and self._key() == other._key()

    def __hash__(self):
        return hash((type(self).__name__, self._key()))

    def _key(self):
        raise NotImplementedError


class PlainLabel(Label):
    __slots__ = ("name",)

    def __init__(self, name: str):
        if not _IDENT_RE.fullmatch(name):
            raise ValueError("plain label must be an identifier: %r" % name)
        object.__setattr__(self, "name", name)

    def __setattr__(self, *a):
        raise AttributeError("immutable")

    def render(self) -> str:
        return self.name

    def _key(self):
        return self.name


class DeltaLabel(Label):
    """delta^(q)(x^alpha): rendered d{q}(monomial)."""

    __slots__ = ("q", "exps", "variables")

    def __init__(self, q: int, exps: ExpVec, variables: Tuple[str, ...]):
        object.__setattr__(self, "q", int(q))
        object.__setattr__(self, "exps", tuple(exps))
        object.__setattr__(self, "variables", tuple(variables))

    def __setattr__(self, *a):
        raise AttributeError("immutable")

    def render(self) -> str:
        return "d%d(%s)" % (self.q, monomial_text(self.exps, self.variables))

    def _key(self):
        return (self.q, self.exps, self.variables)


class JetLabel(Label):
    """Jet generator Delta_q(x^beta * inner): rendered D{q}[inner](monomial)."""

    __slots__ = ("q", "inner", "exps", "variables")

    def __init__(self, q: int, inner: Label, exps: ExpVec, variables: Tuple[str, ...]):
        object.__setattr__(self, "q", int(q))
        object.__setattr__(self, "inner", inner)
        object.__setattr__(self, "exps", tuple(exps))
        object.__setattr__(self, "variables", tuple(variables))

    def __setattr__(self, *a):
        raise AttributeError("immutable")

    def render(self) -> str:
        return "D%d[%s](%s)" % (self.q, self.inner.render(),
                                monomial_text(self.exps, self.variables))

    def _key(self):
        return (self.q, self.inner, self.exps, self.variables)


class SymLabel(Label):
    """Unordered symmetric pair: rendered s(a,b) with a fixed factor order."""

    __slots__ = ("a", "b")

    def __init__(self, a: Label, b: Label):
        if b.render() < a.render():
            a, b = b, a
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    def __setattr__(self, *a):
        raise AttributeError("immutable")

    def render(self) -> str:
        return "s(%s,%s)" % (self.a.render(), self.b.render())

    def _key(self):
        return (self.a, self.b)


# ---------------------------------------------------------------------------
# tokenizer

_SYMBOLS = "=;,[]()+-*^/"


def _tokenize(text: str) -> List[Tuple[str, str, int, int]]:
    tokens = []
    line, col = 1, 1
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            tokens.append(("number", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("ident", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch in _SYMBOLS:
            tokens.append((ch, ch, line, col))
            i += 1
            col += 1
            continue
        raise RingParseError("unexpected character %r" % ch, line, col)
    tokens.append(("eof", "", line, col))
    return tokens


class _Stream:
    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def next(self):
        tok = self.tokens[self.pos]
        if tok[0] != "eof":
            self.pos += 1
        return tok

    def expect(self, kind: str, what: Optional[str] = None):
        tok = self.peek()
        if tok[0] != kind:
            self.error("expected %s, found %r" % (what or repr(kind), tok[1] or "end of input"))
        return self.next()

    def at(self, kind: str) -> bool:
        return self.peek()[0] == kind

    def error(self, message: str):
        tok = self.peek()
        raise RingParseError(message, tok[2], tok[3])


# ---------------------------------------------------------------------------
# polynomial expressions


def _parse_number(ts: _Stream) -> Coeff:
    tok = ts.expect("number", "an integer")
    value = int(tok[1])
    if ts.at("/"):
        ts.next()
        den = ts.expect("number", "a denominator")
        if int(den[1]) == 0:
            ts.error("zero denominator")
        value = Fraction(value, int(den[1]))
    return value


def _parse_atom(ts: _Stream, ring: RingSpec) -> Polynomial:
    tok = ts.peek()
    if tok[0] == "number":
        return Polynomial.const(ring.variables, _parse_number(ts))
    if tok[0] == "ident":
        if tok[1] not in ring.variables:
            ts.error("unknown variable %r" % tok[1])
        ts.next()
        return Polynomial.variable(ring.variables, tok[1])
    if tok[0] == "(":
        ts.next()
        value = _parse_expr(ts, ring)
        ts.expect(")", "a closing parenthesis")
        return value
    ts.error("expected a term, found %r" % (tok[1] or "end of input"))


def _parse_factor(ts: _Stream, ring: RingSpec) -> Polynomial:
    base = _parse_atom(ts, ring)
    if ts.at("^"):
        ts.next()
        tok = ts.expect("number", "an integer exponent")
        try:
            return base ** int(tok[1])
        except ExponentOverflowError as e:
            raise RingParseError(str(e), tok[2], tok[3]) from None
    return base


def _parse_term(ts: _Stream, ring: RingSpec) -> Polynomial:
    sign = 1
    while ts.at("-"):
        ts.next()
        sign = -sign
    value = _parse_factor(ts, ring)
    while ts.at("*"):
        tok = ts.next()
        try:
            value = value * _parse_factor(ts, ring)
        except ExponentOverflowError as e:
            raise RingParseError(str(e), tok[2], tok[3]) from None
    return value if sign > 0 else -value


def _parse_expr(ts: _Stream, ring: RingSpec) -> Polynomial:
    value = _parse_term(ts, ring)
    while ts.at("+") or ts.at("-"):
        op = ts.next()[0]
        rhs = _parse_term(ts, ring)
        value = value + rhs if op == "+" else value - rhs
    return value


def parse_poly(text: str, ring: RingSpec) -> Polynomial:
    """Parse one polynomial expression over the ring's variables."""
    ts = _Stream(_tokenize(text))
    value = _parse_expr(ts, ring)
    if not ts.at("eof"):
        ts.error("unexpected trailing input %r" % ts.peek()[1])
    return value


# ---------------------------------------------------------------------------
# labels


def _parse_monomial(ts: _Stream, ring: RingSpec) -> ExpVec:
    poly = _parse_expr(ts, ring)
    terms = list(poly.terms.items())
    if len(terms) != 1 or terms[0][1] != 1:
        ts.error("expected a monomial with coefficient 1")
    return terms[0][0]


def _parse_label(ts: _Stream, ring: RingSpec) -> Label:
    tok = ts.expect("ident", "a generator label")
    name = tok[1]
    if name == "s" and ts.at("("):
        ts.next()
        a = _parse_label(ts, ring)
        ts.expect(",", "a comma")
        b = _parse_label(ts, ring)
        ts.expect(")", "a closing parenthesis")
        return SymLabel(a, b)
    m = _DELTA_RE.match(name)
    if m and ts.at("("):
        ts.next()
        exps = _parse_monomial(ts, ring)
        ts.expect(")", "a closing parenthesis")
        return DeltaLabel(int(m.group(1)), exps, ring.variables)
    m = _JET_RE.match(name)
    if m and ts.at("["):
        ts.next()
        inner = _parse_label(ts, ring)
        ts.expect("]", "a closing bracket")
        ts.expect("(", "an opening parenthesis")
        exps = _parse_monomial(ts, ring)
        ts.expect(")", "a closing parenthesis")
        return JetLabel(int(m.group(1)), inner, exps, ring.variables)
    return PlainLabel(name)


def parse_label(text: str, ring: RingSpec) -> Label:
    ts = _Stream(_tokenize(text))
    label = _parse_label(ts, ring)
    if not ts.at("eof"):
        ts.error("unexpected trailing input %r" % ts.peek()[1])
    return label


# ---------------------------------------------------------------------------
# statement documents (ring files and presentation documents)


def _split_statements(text: str) -> Dict[str, _Stream]:
    ts = _Stream(_tokenize(text))
    chunks: Dict[str, List[Tuple[str, str, int, int]]] = {}
    while not ts.at("eof"):
        key_tok = ts.expect("ident", "a statement name")
        ts.expect("=", "'='")
        body: List[Tuple[str, str, int, int]] = []
        depth = 0
        while True:
            tok = ts.peek()
            if tok[0] == "eof":
                ts.error("missing ';' after %r statement" % key_tok[1])
            if tok[0] == ";" and depth == 0:
                ts.next()
                break
            if tok[0] in "([":
                depth += 1
            elif tok[0] in ")]":
                depth -= 1
            body.append(ts.next())
        if key_tok[1] in chunks:
            raise RingParseError("duplicate statement %r" % key_tok[1],
                                 key_tok[2], key_tok[3])
        body.append(("eof", "", key_tok[2], key_tok[3]))
        chunks[key_tok[1]] = _Stream(body)
    return chunks


def _parse_list(ts: _Stream, item_parser) -> list:
    ts.expect("[", "'['")
    items = []
    if not ts.at("]"):
        items.append(item_parser(ts))
        while ts.at(","):
            ts.next()
            items.append(item_parser(ts))
    ts.expect("]", "']'")
    return items


def _parse_bool(ts: _Stream) -> bool:
    tok = ts.expect("ident", "true or false")
    if tok[1] == "true":
        return True
    if tok[1] == "false":
        return False
    ts.error("expected true or false, found %r" % tok[1])


def _finish(ts: _Stream):
    if not ts.at("eof"):
        ts.error("unexpected trailing input %r" % ts.peek()[1])


def _ringspec_from_chunks(chunks: Dict[str, _Stream]) -> RingSpec:
    if "vars" not in chunks:
        raise RingParseError("missing 'vars' statement")
    ts = chunks["vars"]
    names = _parse_list(ts, lambda s: s.expect("ident", "a variable name")[1])
    _finish(ts)

    weights = None
    if "weights" in chunks:
        ts = chunks["weights"]
        weights = _parse_list(ts, lambda s: int(s.expect("number", "a weight")[1]))
        _finish(ts)

    # validate names/weights before polynomials are parsed against them
    ring0 = make_ringspec(names, weights)

    ideal: List[Polynomial] = []
    if "ideal" in chunks:
        ts = chunks["ideal"]
        ideal = _parse_list(ts, lambda s: _parse_expr(s, ring0))
        _finish(ts)

    assume_domain = False
    if "assume_domain" in chunks:
        ts = chunks["assume_domain"]
        assume_domain = _parse_bool(ts)
        _finish(ts)

    return make_ringspec(names, weights, ideal, assume_domain)


_RING_KEYS = {"vars", "weights", "ideal", "assume_domain"}
_PRESENTATION_KEYS = _RING_KEYS | {"generators", "relations"}


def parse_ringspec(text: str) -> RingSpec:
    """Parse a .ring document into a validated RingSpec."""
    chunks = _split_statements(text)
    for key in chunks:
        if key not in _RING_KEYS:
            raise RingParseError("unknown statement %r in ring file" % key)
    return _ringspec_from_chunks(chunks)


def parse_presentation_doc(text: str):
    """Parse a presentation document: (RingSpec, labels, relation rows)."""
    chunks = _split_statements(text)
    for key in chunks:
        if key not in _PRESENTATION_KEYS:
            raise RingParseError("unknown statement %r in presentation" % key)
    ring = _ringspec_from_chunks(chunks)
    if "generators" not in chunks:
        raise RingParseError("missing 'generators' statement")
    ts = chunks["generators"]
    labels = _parse_list(ts, lambda s: _parse_label(s, ring))
    _finish(ts)
    rows: List[List[Polynomial]] = []
    if "relations" in chunks:
        ts = chunks["relations"]
        rows = _parse_list(ts, lambda s: _parse_list(s, lambda t: _parse_expr(t, ring)))
        _finish(ts)
    for row in rows:
        if len(row) != len(labels):
            raise RingParseError("relation row of length %d, expected %d"
                                 % (len(row), len(labels)))
    return ring, tuple(labels), rows


# ---------------------------------------------------------------------------
# rendering


def ring_statements(ring: RingSpec) -> List[str]:
    order = ring.order()
    out = ["vars = [%s];" % ", ".join(ring.variables)]
    if ring.weights is not None:
        out.append("weights = [%s];" % ", ".join(str(w) for w in ring.weights))
    out.append("ideal = [%s];" % ", ".join(format_polynomial(f, order)
                                           for f in ring.ideal))
    if ring.assume_domain:
        out.append("assume_domain = true;")
    return out


def ring_document(ring: RingSpec) -> dict:
    order = ring.order()
    return {
        "vars": list(ring.variables),
        "weights": list(ring.weights) if ring.weights is not None else None,
        "ideal": [format_polynomial(f, order) for f in ring.ideal],
        "assume_domain": ring.assume_domain,
    }


def _poly_matrix(rows, order) -> List[List[str]]:
    return [[format_polynomial(p, order) for p in row] for row in rows]


def _matrix_statement(name: str, rows, order) -> str:
    """`name = [...];` with one bracketed row per line, or `name = [];`."""
    if not rows:
        return "%s = [];" % name
    body = ",\n".join("  [%s]" % ", ".join(format_polynomial(c, order) for c in row)
                      for row in rows)
    return "%s = [\n%s\n];" % (name, body)


def presentation_text(p) -> str:
    order = p.ring.order()
    lines = ring_statements(p.ring)
    lines.append("generators = [%s];" % ", ".join(g.render() for g in p.generators))
    lines.append(_matrix_statement("relations", p.relations, order))
    return "\n".join(lines) + "\n"


def presentation_document(p) -> dict:
    order = p.ring.order()
    return {
        "ring": ring_document(p.ring),
        "generators": [g.render() for g in p.generators],
        "relations": _poly_matrix(p.relations, order),
    }


def map_matrix_rows(m) -> List[List["Polynomial"]]:
    """Matrix in the documented shape: target generators x source generators."""
    n_t = len(m.target.generators)
    return [[m.columns[s][t] for s in range(len(m.source.generators))]
            for t in range(n_t)]


def map_text(m) -> str:
    order = m.source.ring.order()
    lines = ring_statements(m.source.ring)
    lines.append("source_generators = [%s];"
                 % ", ".join(g.render() for g in m.source.generators))
    lines.append("target_generators = [%s];"
                 % ", ".join(g.render() for g in m.target.generators))
    lines.append(_matrix_statement("matrix", map_matrix_rows(m), order))
    return "\n".join(lines) + "\n"


def map_document(m) -> dict:
    order = m.source.ring.order()
    return {
        "ring": ring_document(m.source.ring),
        "source": presentation_document(m.source),
        "target": presentation_document(m.target),
        "matrix": _poly_matrix(map_matrix_rows(m), order),
    }


def resolution_text(r) -> str:
    order = r.module.ring.order()
    lines = ring_statements(r.module.ring)
    lines.append("betti = [%s];" % ", ".join(str(b) for b in r.betti))
    lines.append("terminated = %s;" % ("true" if r.terminated else "false"))
    lines.append("cutoff = %d;" % r.cutoff)
    lines.append("graded = %s;" % ("true" if r.graded else "false"))
    for i, step in enumerate(r.steps):
        lines.append(_matrix_statement("step%d" % i, step, order))
    return "\n".join(lines) + "\n"


def resolution_document(r) -> dict:
    order = r.module.ring.order()
    return {
        "ring": ring_document(r.module.ring),
        "module": presentation_document(r.module),
        "betti": list(r.betti),
        "terminated": r.terminated,
        "cutoff": r.cutoff,
        "graded": r.graded,
        "steps": [_poly_matrix(step, order) for step in r.steps],
    }
