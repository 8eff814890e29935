"""Sparse multivariate polynomials with exact rational coefficients.

A polynomial is stored as a dictionary mapping exponent tuples to nonzero
`Fraction` coefficients, relative to an ordered tuple of ambient variable
names.  The zero polynomial is the empty dictionary.  All arithmetic is
exact; no floating point is used anywhere.

`Fraction`s are the boundary form.  Inside products and exact division a
polynomial is in integer form (`_integer_form`): integer coefficients over
one positive common denominator, so the inner loops multiply and add plain
integers and one `Fraction` is formed per output term.  `__init__` validates
everything built from outside (the parser, `const`, `var`, tests); results of
the arithmetic already satisfy its invariants and are wrapped without
re-checking by `Polynomial._from_clean`.  The univariate gcd is a primitive
remainder sequence over the integers, made monic only at the end.

The module also provides the text grammar for polynomial expressions:

    expr     := ['-'] term (('+'|'-') term)*
    term     := factor ('*' factor)*
    factor   := base ('^' nonneg-int)?
    base     := rational | var | '(' expr ')'
    rational := int ('/' posint)?

Whitespace is insignificant.  A leading '-' (also directly after '(') is
accepted so that every string produced by `format_canonical` parses back.
Parentheses may nest at most `MAX_NESTING` deep.
"""

from __future__ import annotations

import math
from fractions import Fraction
from heapq import heapify, heappop, heappush
from operator import add
from typing import Iterable, Iterator

Exponents = tuple[int, ...]

# Exact rational scalar used throughout; arbitrary precision, always reduced.
Rational = Fraction

_ZERO = Fraction(0)


class PolyError(Exception):
    """Base class for polynomial errors."""


class ParseError(PolyError):
    """Raised on malformed polynomial text; carries the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class UnknownVariableError(ParseError):
    pass


class NotDivisibleError(PolyError):
    """Raised by divide_exact when the division leaves a remainder."""


class NotUnivariateError(PolyError):
    """Raised when a univariate-only operation receives multivariate input."""


class Polynomial:
    """Immutable sparse polynomial over the rationals."""

    __slots__ = ("variables", "_terms")

    def __init__(self, terms: dict[Exponents, Fraction] | None, variables: Iterable[str]):
        variables = tuple(variables)
        if len(set(variables)) != len(variables):
            raise PolyError(f"duplicate variable in {variables!r}")
        clean: dict[Exponents, Fraction] = {}
        if terms:
            nvars = len(variables)
            for exps, coeff in terms.items():
                c = Fraction(coeff)
                if c == 0:
                    continue
                exps = tuple(exps)
                if len(exps) != nvars or any(e < 0 for e in exps):
                    raise PolyError(f"bad exponent vector {exps!r} for variables {variables!r}")
                clean[exps] = c
        object.__setattr__(self, "variables", variables)
        object.__setattr__(self, "_terms", clean)

    def __setattr__(self, name, value):  # pragma: no cover - guard only
        raise AttributeError("Polynomial is immutable")

    @staticmethod
    def _from_clean(terms: dict[Exponents, Fraction], variables: tuple[str, ...]) -> "Polynomial":
        """Wrap terms that already satisfy the invariants, without re-checking them.

        For internal results only: `terms` maps valid exponent tuples to
        nonzero `Fraction`s over the distinct `variables`, and is not copied.
        """
        p = object.__new__(Polynomial)
        object.__setattr__(p, "variables", variables)
        object.__setattr__(p, "_terms", terms)
        return p

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(variables: Iterable[str] = ()) -> "Polynomial":
        return Polynomial({}, variables)

    @staticmethod
    def const(value, variables: Iterable[str] = ()) -> "Polynomial":
        variables = tuple(variables)
        return Polynomial({(0,) * len(variables): Fraction(value)}, variables)

    @staticmethod
    def one(variables: Iterable[str] = ()) -> "Polynomial":
        return Polynomial.const(1, variables)

    @staticmethod
    def var(name: str, variables: Iterable[str]) -> "Polynomial":
        variables = tuple(variables)
        if name not in variables:
            raise PolyError(f"variable {name!r} not among {variables!r}")
        exps = tuple(1 if v == name else 0 for v in variables)
        return Polynomial({exps: Fraction(1)}, variables)

    # -- basic structure ---------------------------------------------------

    def items(self) -> Iterator[tuple[Exponents, Fraction]]:
        return iter(self._terms.items())

    def is_zero(self) -> bool:
        return not self._terms

    def is_constant(self) -> bool:
        return all(all(e == 0 for e in exps) for exps in self._terms)

    def constant_coeff(self) -> Fraction:
        return self._terms.get((0,) * len(self.variables), _ZERO)

    def total_degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self._terms:
            return -1
        return max(sum(exps) for exps in self._terms)

    def used_variables(self) -> tuple[str, ...]:
        used = set()
        for exps in self._terms:
            for v, e in zip(self.variables, exps):
                if e:
                    used.add(v)
        return tuple(v for v in self.variables if v in used)

    def coeff(self, exps: Exponents) -> Fraction:
        return self._terms.get(tuple(exps), _ZERO)

    def _signature(self):
        return frozenset(
            (tuple((v, e) for v, e in zip(self.variables, exps) if e), coeff)
            for exps, coeff in self._terms.items()
        )

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        if self.variables == other.variables:
            return self._terms == other._terms
        return self._signature() == other._signature()

    def __hash__(self):
        return hash(self._signature())

    def __bool__(self):
        return bool(self._terms)

    def __repr__(self):
        return f"Polynomial({format_canonical(self)!r}, vars={self.variables!r})"

    def __str__(self):
        return format_canonical(self)

    # -- variable alignment ------------------------------------------------

    def with_variables(self, variables: Iterable[str]) -> "Polynomial":
        """Re-express over `variables` (a superset of the used variables)."""
        variables = tuple(variables)
        if variables == self.variables:
            return self
        if len(set(variables)) != len(variables):
            raise PolyError(f"duplicate variable in {variables!r}")
        pos = {v: i for i, v in enumerate(variables)}
        missing = [v for v in self.used_variables() if v not in pos]
        if missing:
            raise PolyError(f"cannot drop used variables {missing!r}")
        old_idx = [pos.get(v) for v in self.variables]
        terms: dict[Exponents, Fraction] = {}
        for exps, coeff in self._terms.items():
            new = [0] * len(variables)
            for i, e in enumerate(exps):
                if e:
                    new[old_idx[i]] = e
            terms[tuple(new)] = coeff
        return Polynomial._from_clean(terms, variables)

    @staticmethod
    def merge_variables(a: "Polynomial", b: "Polynomial") -> tuple[str, ...]:
        merged = list(a.variables)
        for v in b.variables:
            if v not in merged:
                merged.append(v)
        return tuple(merged)

    def _aligned(self, other: "Polynomial") -> tuple["Polynomial", "Polynomial"]:
        if self.variables == other.variables:
            return self, other
        merged = Polynomial.merge_variables(self, other)
        return self.with_variables(merged), other.with_variables(merged)

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        other = _coerce(other, self.variables)
        if other is NotImplemented:
            return NotImplemented
        return _add_terms(*self._aligned(other), subtract=False)

    __radd__ = __add__

    def __neg__(self):
        return Polynomial._from_clean({e: -c for e, c in self._terms.items()}, self.variables)

    def __sub__(self, other):
        other = _coerce(other, self.variables)
        if other is NotImplemented:
            return NotImplemented
        return _add_terms(*self._aligned(other), subtract=True)

    def __rsub__(self, other):
        other = _coerce(other, self.variables)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        a, b = self._aligned(other)
        if len(a._terms) < len(b._terms):
            a, b = b, a
        ta, da = _integer_form(a)
        tb, db = _integer_form(b)
        acc: dict[Exponents, int] = {}
        get = acc.get
        for e1, c1 in ta.items():
            for e2, c2 in tb.items():
                e = tuple(map(add, e1, e2))
                acc[e] = get(e, 0) + c1 * c2
        den = da * db
        return Polynomial._from_clean(
            {e: Fraction(v, den) for e, v in acc.items() if v}, a.variables)

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return NotImplemented

    def scale(self, c) -> "Polynomial":
        c = Fraction(c)
        if c == 0:
            return Polynomial.zero(self.variables)
        return Polynomial._from_clean({e: k * c for e, k in self._terms.items()},
                                      self.variables)

    def __pow__(self, n: int):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            raise PolyError("negative polynomial exponent")
        result = Polynomial.one(self.variables)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    # scalar protocol shared with the fraction scalar kind
    def zero_like(self) -> "Polynomial":
        return Polynomial.zero(self.variables)

    def one_like(self) -> "Polynomial":
        return Polynomial.one(self.variables)

    # -- evaluation --------------------------------------------------------

    def evaluate(self, point: dict[str, Fraction]) -> Fraction:
        missing = [v for v in self.used_variables() if v not in point]
        if missing:
            raise PolyError(f"no value for {missing!r}")
        total = Fraction(0)
        for exps, coeff in self._terms.items():
            val = coeff
            for v, e in zip(self.variables, exps):
                if e:
                    val *= Fraction(point[v]) ** e
            total += val
        return total

    # -- univariate views ----------------------------------------------------

    def univar_coeffs(self) -> list[Fraction]:
        """Dense ascending coefficient list; requires at most one used variable."""
        used = self.used_variables()
        if len(used) > 1:
            raise NotUnivariateError(f"polynomial uses {used!r}")
        if not self._terms:
            return []
        if not used:
            return [self.constant_coeff()]
        idx = self.variables.index(used[0])
        deg = max(exps[idx] for exps in self._terms)
        out = [Fraction(0)] * (deg + 1)
        for exps, coeff in self._terms.items():
            out[exps[idx]] = coeff
        return out

    @staticmethod
    def from_univar_coeffs(coeffs: list[Fraction], var: str,
                           variables: Iterable[str] | None = None) -> "Polynomial":
        variables = tuple(variables) if variables is not None else (var,)
        idx = variables.index(var)
        terms = {}
        for k, c in enumerate(coeffs):
            if c:
                exps = [0] * len(variables)
                exps[idx] = k
                terms[tuple(exps)] = Fraction(c)
        return Polynomial(terms, variables)


def _coerce(value, variables) -> "Polynomial":
    if isinstance(value, Polynomial):
        return value
    if isinstance(value, (int, Fraction)):
        return Polynomial.const(value, variables)
    return NotImplemented


def _add_terms(a: Polynomial, b: Polynomial, subtract: bool) -> Polynomial:
    """a + b, or a - b with `subtract`, for polynomials over the same variables."""
    terms = dict(a._terms)
    for exps, coeff in b._terms.items():
        old = terms.get(exps)
        if old is None:
            terms[exps] = -coeff if subtract else coeff
            continue
        s = old - coeff if subtract else old + coeff
        if s:
            terms[exps] = s
        else:
            del terms[exps]
    return Polynomial._from_clean(terms, a.variables)


def _integer_form(p: Polynomial) -> tuple[dict[Exponents, int], int]:
    """(terms, scale) with integer terms and p = sum terms[e] / scale * x^e.

    `scale` is the positive lcm of the coefficient denominators.
    """
    scale = math.lcm(*(c.denominator for c in p._terms.values()))
    if scale == 1:
        return {e: c.numerator for e, c in p._terms.items()}, 1
    return {e: c.numerator * (scale // c.denominator) for e, c in p._terms.items()}, scale


def _from_integer_form(terms: dict[Exponents, int], scale: int,
                       variables: tuple[str, ...]) -> Polynomial:
    """The polynomial sum terms[e] / scale * x^e; every term must be nonzero."""
    return Polynomial._from_clean({e: Fraction(a, scale) for e, a in terms.items()},
                                  variables)


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------


def _grevlex_key(exps: Exponents):
    return (sum(exps), tuple(-e for e in reversed(exps)))


def _grevlex_descending_key(exps: Exponents) -> tuple[int, ...]:
    """Flat tuple that sorts ascending exactly when monomials sort grevlex-descending."""
    return (-sum(exps),) + exps[::-1]


def divide_exact(p: Polynomial, q: Polynomial) -> Polynomial:
    """Return h with p = h*q, or raise NotDivisibleError.

    Single-divisor multivariate division in grevlex order: a singleton
    divisor set is a Groebner basis, so a zero remainder is equivalent to
    divisibility.  The pending polynomial is in integer form over one scale,
    with its monomials in a heap; the first lead that the divisor's lead does
    not divide can never cancel later, so the division stops there.
    """
    if q.is_zero():
        raise PolyError("division by the zero polynomial")
    if p.is_zero():
        return Polynomial.zero(p.variables)
    a, b = p._aligned(q)
    if b.is_constant():
        return a.scale(1 / b.constant_coeff())
    key = _grevlex_descending_key
    # b = (cq * x^lead_q + sum tail) / dq, with cq > 0
    terms_q, dq = _integer_form(b)
    lead_q = min(terms_q, key=key)
    cq = terms_q.pop(lead_q)
    if cq < 0:
        cq, dq = -cq, -dq
        terms_q = {e: -c for e, c in terms_q.items()}
    tail = list(terms_q.items())
    work, scale = _integer_form(a)  # a = work / scale
    heap = [(key(e), e) for e in work]
    heapify(heap)
    quot: dict[Exponents, Fraction] = {}
    while heap:
        lead = heappop(heap)[1]
        w = work.pop(lead, None)
        if w is None:
            continue  # cancelled after it was pushed
        diff = tuple(x - y for x, y in zip(lead, lead_q))
        if any(e < 0 for e in diff):
            raise NotDivisibleError(
                f"{format_canonical(p)} is not divisible by {format_canonical(q)}")
        # leads only decrease, so each quotient monomial is set once
        quot[diff] = Fraction(w * dq, scale * cq)
        # work/scale - w/(scale*cq) * tail == (work*m - (w/g)*tail) / (scale*m)
        g = math.gcd(w, cq)
        factor, m = w // g, cq // g
        if m != 1:
            scale *= m
            for e in work:
                work[e] *= m
        for e2, c2 in tail:
            e = tuple(map(add, diff, e2))
            old = work.get(e)
            if old is None:
                work[e] = -factor * c2
                heappush(heap, (key(e), e))
                continue
            s = old - factor * c2
            if s:
                work[e] = s
            else:
                del work[e]
    return Polynomial._from_clean(quot, a.variables)


def _primitive(coeffs: list[int]) -> list[int]:
    """The dense integer coefficients divided by their content; [] stays []."""
    g = math.gcd(*coeffs)
    return coeffs if g <= 1 else [c // g for c in coeffs]


def _primitive_coeffs(p: Polynomial) -> list[int]:
    """Dense ascending integer coefficients of the primitive part of a univariate p."""
    if p.is_zero():
        return []
    coeffs = p.univar_coeffs()
    scale = math.lcm(*(c.denominator for c in coeffs))
    return _primitive([c.numerator * (scale // c.denominator) for c in coeffs])


def _pseudo_remainder(u: list[int], v: list[int]) -> list[int]:
    """An integer multiple of the remainder of u by v, dense ascending.

    Each step cancels the lead of u with the least integer multiples of u and
    of the shifted v, so the result is an integer multiple of the Euclidean
    remainder; the caller takes its primitive part.
    """
    u = list(u)
    dv, lv = len(v) - 1, v[-1]
    while len(u) > dv:
        lu = u[-1]
        g = math.gcd(lu, lv)
        factor, m = lu // g, lv // g
        shift = len(u) - 1 - dv
        if m != 1:
            u = [c * m for c in u]
        for i, cv in enumerate(v):
            u[shift + i] -= factor * cv
        while u and u[-1] == 0:
            u.pop()
    return u


def gcd_univariate(p: Polynomial, q: Polynomial) -> Polynomial:
    """Monic greatest common divisor of two univariate polynomials.

    A primitive remainder sequence over the integers: each input is cleared
    to its integer primitive part once, each pseudo-remainder is divided by
    its content, and only the last nonzero remainder is made monic.  The
    monic gcd is unique, so this is the polynomial a rational Euclid gives.
    """
    used = set(p.used_variables()) | set(q.used_variables())
    if len(used) > 1:
        raise NotUnivariateError(f"gcd_univariate over multiple variables {sorted(used)!r}")
    if p.is_zero() and q.is_zero():
        raise PolyError("gcd of two zero polynomials")
    var = next(iter(used)) if used else (p.variables[0] if p.variables else
                                         (q.variables[0] if q.variables else "x"))
    a, b = _primitive_coeffs(p), _primitive_coeffs(q)
    if len(a) < len(b):
        a, b = b, a
    while b:
        a, b = b, _primitive(_pseudo_remainder(a, b))
    ambient = p.variables if var in p.variables else q.variables
    if var not in ambient:
        ambient = (var,)
    return Polynomial.from_univar_coeffs([Fraction(c, a[-1]) for c in a], var, ambient)


def lcm_univariate(p: Polynomial, q: Polynomial) -> Polynomial:
    """p*q/gcd, keeping the scaling of the given arguments."""
    g = gcd_univariate(p, q)
    return p * divide_exact(q, g)


def common_denominator(dens: Iterable[Polynomial], variables: Iterable[str]) -> Polynomial:
    """One common multiple of the given denominators.

    Over one variable it is their running lcm, which keeps the scaling of the
    first denominator; otherwise it is the product of the distinct
    denominators.
    """
    variables = tuple(variables)
    c = Polynomial.one(variables)
    if len(variables) == 1:
        for den in dens:
            c = lcm_univariate(c, den)
        return c
    distinct: list[Polynomial] = []
    for den in dens:
        if den not in distinct:
            distinct.append(den)
            c = c * den
    return c


# ---------------------------------------------------------------------------
# formatting
# ---------------------------------------------------------------------------


def _term_order_key(item: tuple[Exponents, Fraction]):
    exps, _ = item
    return (sum(exps), tuple(-e for e in exps))


def format_canonical(p: Polynomial) -> str:
    """Deterministic string form: ascending total degree, constant term first."""
    if p.is_zero():
        return "0"
    pieces = []
    for exps, coeff in sorted(p._terms.items(), key=_term_order_key):
        mono = "*".join(
            v if e == 1 else f"{v}^{e}"
            for v, e in zip(p.variables, exps) if e
        )
        mag = abs(coeff)
        if not mono:
            body = _fmt_rational(mag)
        elif mag == 1:
            body = mono
        else:
            body = f"{_fmt_rational(mag)}*{mono}"
        if not pieces:
            pieces.append(body if coeff > 0 else f"-{body}")
        else:
            pieces.append(f"{'+' if coeff > 0 else '-'} {body}")
    return " ".join(pieces)


def _fmt_rational(c: Fraction) -> str:
    return str(c.numerator) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------


# Deepest parenthesis nesting the parser accepts; each level takes four
# stack frames, so deeper input would otherwise end in a RecursionError.
MAX_NESTING = 100


class _Parser:
    def __init__(self, text: str, variables: tuple[str, ...]):
        self.text = text
        self.pos = 0
        self.depth = 0
        self.variables = variables
        # positions of the '/' of rationals read outside all parentheses
        self.rational_bars: list[int] = []

    def error(self, message: str, cls=ParseError):
        raise cls(message, self.pos)

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take(self, ch: str) -> bool:
        if self.peek() == ch:
            self.pos += 1
            return True
        return False

    def expect(self, ch: str):
        if not self.take(ch):
            self.error(f"expected {ch!r}")

    def integer(self) -> int:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start:
            self.error("expected an integer")
        return int(self.text[start:self.pos])

    def name(self) -> str:
        self.skip_ws()
        start = self.pos
        ch = self.text[self.pos]
        if not (ch.isalpha() or ch == "_"):
            self.error("expected a variable name")
        while self.pos < len(self.text) and (self.text[self.pos].isalnum()
                                             or self.text[self.pos] == "_"):
            self.pos += 1
        return self.text[start:self.pos]

    def expr(self) -> Polynomial:
        negate = self.take("-")
        value = self.term()
        if negate:
            value = -value
        while True:
            if self.take("+"):
                value = value + self.term()
            elif self.take("-"):
                value = value - self.term()
            else:
                return value

    def term(self) -> Polynomial:
        value = self.factor()
        while self.take("*"):
            value = value * self.factor()
        return value

    def factor(self) -> Polynomial:
        value = self.base()
        if self.take("^"):
            value = value ** self.integer()
        return value

    def base(self) -> Polynomial:
        ch = self.peek()
        if ch == "(":
            if self.depth == MAX_NESTING:
                self.error(f"parentheses nested deeper than {MAX_NESTING}")
            self.pos += 1
            self.depth += 1
            value = self.expr()
            self.expect(")")
            self.depth -= 1
            return value
        if ch.isdigit():
            num = self.integer()
            save = self.pos
            if self.take("/"):
                bar = self.pos - 1
                nxt = self.peek()
                if nxt.isdigit():
                    if self.depth == 0:
                        self.rational_bars.append(bar)
                    den = self.integer()
                    if den == 0:
                        self.error("zero denominator in rational")
                    return Polynomial.const(Fraction(num, den), self.variables)
                self.pos = save
            return Polynomial.const(num, self.variables)
        if ch.isalpha() or ch == "_":
            start = self.pos
            var = self.name()
            if var not in self.variables:
                self.pos = start
                self.error(f"unknown variable {var!r}", UnknownVariableError)
            return Polynomial.var(var, self.variables)
        self.error("expected a number, variable, or '('")


def parse_poly(text: str, variables: Iterable[str]) -> Polynomial:
    """Parse an expression into expanded canonical form."""
    parser = _Parser(text, tuple(variables))
    value = parser.expr()
    parser.skip_ws()
    if parser.pos != len(parser.text):
        parser.error("unexpected trailing input")
    return value


def parse_fraction(text: str, variables: Iterable[str]) -> tuple[Polynomial, Polynomial]:
    """Parse "num" or "num/den" into (num, den); den is 1 for a polynomial.

    A text that parses whole is a polynomial, even when it holds a '/' as in
    the rational 1/2.  Otherwise the fraction bar is the first '/' outside
    all parentheses at which both sides parse.  The text is parsed once, up
    to the first '/' the grammar cannot read, and that '/' is a candidate
    bar.  The only other '/' after which a numerator can end are those of
    rationals read outside parentheses (the first '/' of "1/2/3"); they are
    earlier candidates, and when one of them is the bar its numerator is
    parsed again.
    """
    variables = tuple(variables)
    parser = _Parser(text, variables)
    try:
        num = parser.expr()
        parser.skip_ws()
    except ParseError:
        num = None
    else:
        if parser.pos == len(text):
            return num, Polynomial.one(variables)
    candidates = [(pos, None) for pos in parser.rational_bars]
    if num is not None and text[parser.pos] == "/":
        candidates.append((parser.pos, num))
    for pos, num in candidates:
        try:
            den = parse_poly(text[pos + 1:], variables)
        except ParseError:
            continue
        if num is None:
            num = parse_poly(text[:pos], variables)
        return num, den
    raise ParseError("no polynomial or quotient of polynomials", 0)
