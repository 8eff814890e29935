"""Sparse multivariate polynomials with exact rational coefficients.

A polynomial over an ordered tuple of ambient variable names is stored in one
canonical form: `_terms` maps exponent tuples to nonzero integer numerators
over one positive denominator `_den`, and no factor divides `_den` and all
numerators.  The zero polynomial is the empty dictionary over 1.  The
arithmetic is exact and multiplies and adds plain integers; coefficients
leave the class as reduced `Fraction`s (`items`, `coeff`).  `__init__`
validates terms given from outside (tests, `from_univar_coeffs`); `const`,
`var`, the parser's sums and the results of the arithmetic go through
`Polynomial._from_clean`, which only divides out the common factor.

Over one ambient variable, products and exact division work on dense
ascending integer lists.  `_pseudo_divide` is the one univariate division
loop: each step cancels the lead with the least integer multiples, and it
returns the remainder, the scale and, on request, the quotient.
`divide_exact` takes its quotient, and `gcd_univariate`, a primitive
remainder sequence over the integers made monic only at the end, its
remainder.

Over two or more variables, `_reduce_full` is the reduction kernel: the
full normal form of integer numerators over a scale modulo monic divisors
(`_Divisor`) in any monomial order, given by its flat descending key, with
the quotients on request.  `divide_exact` runs it with one grevlex divisor,
and the Groebner engine with the basis.

The module also provides the text grammar for polynomial expressions:

    expr     := term (('+'|'-') term)*
    term     := factor ('*' factor)*
    factor   := '-'* base ('^' nonneg-int)?
    base     := rational | var | '(' expr ')'
    rational := int ('/' posint)?

Whitespace is insignificant.  A '-' sign binds looser than '^', so "-z^2" is
-(z^2); every string produced by `format_canonical` parses back, and so does
"1 + -3*z^2".  Parentheses may nest at most `MAX_NESTING` deep, no exponent
and no total degree of a power or product may pass `MAX_DEGREE`, no power or
product that could have more than `MAX_TERMS` terms is expanded, and an
integer longer than Python converts (`sys.get_int_max_str_digits`) is a
`ParseError`.  A rational past that limit is a `DigitLimitError` when it
is formatted.  A digit is one that int() reads (`str.isdecimal`), so '٣' is
3 and a superscript '²' is no integer.

The parser carries each term as plain integers (num, den, exps), the
monomial num/den * x^exps, while its factors are numbers, rationals,
variables, or their powers and products.  A term becomes a `Polynomial`
only when it meets a parenthesized factor.  Each expression is summed in
one pass over integer numerators put over the lcm of the denominators
(`_sum_terms`), so the result is canonical without an intermediate
`Polynomial` per number, variable, power or product.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from heapq import heapify, heappop, heappush
from operator import add, le, sub
from typing import Iterable, Iterator

Exponents = tuple[int, ...]

# Exact rational scalar used throughout; arbitrary precision, always reduced.
Rational = Fraction


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


class DigitLimitError(PolyError):
    """Raised when a rational number has more digits than Python converts to text."""


class Polynomial:
    """Immutable sparse polynomial over the rationals."""

    __slots__ = ("variables", "_terms", "_den")

    def __init__(self, terms: dict[Exponents, Fraction] | None, variables: Iterable[str]):
        variables = _distinct(variables)
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
        # the lcm of reduced denominators shares no factor with all the numerators
        den = math.lcm(*[c.denominator for c in clean.values()])
        object.__setattr__(self, "variables", variables)
        object.__setattr__(self, "_terms", {e: c.numerator * (den // c.denominator)
                                            for e, c in clean.items()})
        object.__setattr__(self, "_den", den)

    def __setattr__(self, name, value):  # pragma: no cover - guard only
        raise AttributeError("Polynomial is immutable")

    @staticmethod
    def _from_clean(terms: dict[Exponents, int], den: int,
                    variables: tuple[str, ...]) -> "Polynomial":
        """The polynomial sum terms[e] / den * x^e, in canonical form.

        For internal results only: `terms` maps valid exponent tuples to
        nonzero integers over the distinct `variables`, `den` is positive, and
        `terms` is kept when nothing divides out.
        """
        g = math.gcd(den, *terms.values())
        if g != 1:
            terms = {e: c // g for e, c in terms.items()}
            den //= g
        p = object.__new__(Polynomial)
        object.__setattr__(p, "variables", variables)
        object.__setattr__(p, "_terms", terms)
        object.__setattr__(p, "_den", den)
        return p

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(variables: Iterable[str] = ()) -> "Polynomial":
        return Polynomial({}, variables)

    @staticmethod
    def const(value, variables: Iterable[str] = ()) -> "Polynomial":
        variables = _distinct(variables)
        c = Fraction(value)
        terms = {(0,) * len(variables): c.numerator} if c else {}
        return Polynomial._from_clean(terms, c.denominator, variables)

    @staticmethod
    def one(variables: Iterable[str] = ()) -> "Polynomial":
        return Polynomial.const(1, variables)

    @staticmethod
    def var(name: str, variables: Iterable[str]) -> "Polynomial":
        variables = _distinct(variables)
        if name not in variables:
            raise PolyError(f"variable {name!r} not among {variables!r}")
        exps = tuple(1 if v == name else 0 for v in variables)
        return Polynomial._from_clean({exps: 1}, 1, variables)

    # -- basic structure ---------------------------------------------------

    def items(self) -> Iterator[tuple[Exponents, Fraction]]:
        return ((e, Fraction(c, self._den)) for e, c in self._terms.items())

    def is_zero(self) -> bool:
        return not self._terms

    def is_constant(self) -> bool:
        return all(all(e == 0 for e in exps) for exps in self._terms)

    def constant_coeff(self) -> Fraction:
        return self.coeff((0,) * len(self.variables))

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
        return Fraction(self._terms.get(tuple(exps), 0), self._den)

    def _signature(self):
        """The form compared across variable tuples; it ignores their order."""
        return self._den, frozenset(
            (frozenset((v, e) for v, e in zip(self.variables, exps) if e), coeff)
            for exps, coeff in self._terms.items()
        )

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        if self.variables == other.variables:
            return self._den == other._den and self._terms == other._terms
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
        _distinct(variables)
        pos = {v: i for i, v in enumerate(variables)}
        missing = [v for v in self.used_variables() if v not in pos]
        if missing:
            raise PolyError(f"cannot drop used variables {missing!r}")
        old_idx = [pos.get(v) for v in self.variables]
        terms: dict[Exponents, int] = {}
        for exps, coeff in self._terms.items():
            new = [0] * len(variables)
            for i, e in enumerate(exps):
                if e:
                    new[old_idx[i]] = e
            terms[tuple(new)] = coeff
        return Polynomial._from_clean(terms, self._den, variables)

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
        return Polynomial._from_clean({e: -c for e, c in self._terms.items()}, self._den,
                                      self.variables)

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
        if len(a.variables) == 1:
            return _mul_univariate(a, b)
        acc: dict[Exponents, int] = {}
        get = acc.get
        for e1, c1 in a._terms.items():
            for e2, c2 in b._terms.items():
                e = tuple(map(add, e1, e2))
                acc[e] = get(e, 0) + c1 * c2
        return Polynomial._from_clean({e: v for e, v in acc.items() if v},
                                      a._den * b._den, a.variables)

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return NotImplemented

    def scale(self, c) -> "Polynomial":
        c = Fraction(c)
        if c == 0:
            return Polynomial.zero(self.variables)
        return Polynomial._from_clean({e: k * c.numerator for e, k in self._terms.items()},
                                      self._den * c.denominator, self.variables)

    def __pow__(self, n: int):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            raise PolyError("negative polynomial exponent")
        if len(self._terms) == 1:
            # (c x^e)^n = c^n x^(n e); c and _den share no factor, nor do their powers
            ((exps, c),) = self._terms.items()
            return Polynomial._from_clean({tuple(n * e for e in exps): c ** n},
                                          self._den ** n, self.variables)
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
        for exps, coeff in self.items():
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


def _distinct(variables: Iterable[str]) -> tuple[str, ...]:
    """The variable names as a tuple; PolyError if a name repeats."""
    variables = tuple(variables)
    if len(set(variables)) != len(variables):
        raise PolyError(f"duplicate variable in {variables!r}")
    return variables


def _coerce(value, variables) -> "Polynomial":
    if isinstance(value, Polynomial):
        return value
    if isinstance(value, (int, Fraction)):
        return Polynomial.const(value, variables)
    return NotImplemented


def _add_terms(a: Polynomial, b: Polynomial, subtract: bool) -> Polynomial:
    """a + b, or a - b with `subtract`, for polynomials over the same variables."""
    den = math.lcm(a._den, b._den)
    ma, mb = den // a._den, (-1 if subtract else 1) * (den // b._den)
    terms = {e: c * ma for e, c in a._terms.items()} if ma != 1 else dict(a._terms)
    for exps, coeff in b._terms.items():
        s = terms.get(exps, 0) + coeff * mb
        if s:
            terms[exps] = s
        else:
            del terms[exps]
    return Polynomial._from_clean(terms, den, a.variables)


def _mul_univariate(a: Polynomial, b: Polynomial) -> Polynomial:
    """a * b for polynomials over the same single variable, by convolution into
    a dense ascending integer list."""
    if not b._terms:
        return b
    out = [0] * (max(a._terms)[0] + max(b._terms)[0] + 1)
    low = [(j, c) for (j,), c in b._terms.items()]
    for (i,), c1 in a._terms.items():
        for j, c2 in low:
            out[i + j] += c1 * c2
    return Polynomial._from_clean(_sparse(out), a._den * b._den, a.variables)


def _dense(p: Polynomial) -> list[int]:
    """Dense ascending integer numerators of p over one variable; [] for zero."""
    coeffs = [0] * (max(p._terms)[0] + 1 if p._terms else 0)
    for (k,), c in p._terms.items():
        coeffs[k] = c
    return coeffs


def _sparse(coeffs: list[int]) -> dict[Exponents, int]:
    """The terms of a dense ascending list over one variable."""
    return {(k,): c for k, c in enumerate(coeffs) if c}


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------


def _grevlex_descending_key(exps: Exponents) -> tuple[int, ...]:
    """Flat tuple that sorts ascending exactly when monomials sort grevlex-descending."""
    return (-sum(exps),) + exps[::-1]


class _Divisor:
    """A monic polynomial prepared for division: lead monomial and integer tail.

    The polynomial is x^lead + sum a / den * x^e over (e, a) in `tail`.
    """

    __slots__ = ("lead", "den", "tail")

    def __init__(self, terms: dict[Exponents, int], lead: Exponents):
        """The monic multiple of the nonzero integer form `terms`, whose lead is `lead`."""
        g = math.gcd(*terms.values())
        if terms[lead] < 0:
            g = -g
        self.lead = lead
        self.den = terms[lead] // g
        self.tail = [(e, a // g) for e, a in terms.items() if e != lead]

    @staticmethod
    def of(p: Polynomial, key) -> "_Divisor":
        """The monic multiple of the nonzero p, its lead taken in the order of `key`."""
        return _Divisor(p._terms, min(p._terms, key=key))

    def terms(self) -> tuple[dict[Exponents, int], int]:
        terms = {self.lead: self.den}
        terms.update(self.tail)
        return terms, self.den


def _reduce_full(work: dict[Exponents, int], scale: int, divisors: list[_Divisor],
                 key, want_quotients: bool = False):
    """Full normal form of work / scale modulo the divisors.

    `work` maps monomials to nonzero integers over the positive `scale`, and
    `key` is the flat descending key of the monomial order
    (`_grevlex_descending_key`, `groebner._elimination_descending_key`).
    Returns (remainder, scale, quotients): integers over the returned scale,
    the remainder in descending monomial order and with want_quotients one
    dict per divisor (else None).  `work` is consumed.

    Each step takes the greatest pending term and reduces it by the first
    divisor whose lead divides it, else moves it to the remainder.  Pending
    monomials wait in a heap on the descending `key`; a monomial that
    cancelled after it was pushed leaves a stale entry, skipped on pop.
    """
    heap = [(key(e), e) for e in work]
    heapify(heap)
    remainder: dict[Exponents, int] = {}
    quotients = [dict() for _ in divisors] if want_quotients else None
    while heap:
        exps = heappop(heap)[1]
        w = work.pop(exps, None)
        if w is None:
            continue
        for idx, d in enumerate(divisors):
            if all(map(le, d.lead, exps)):
                shift = tuple(map(sub, exps, d.lead))
                if quotients is not None:
                    # exps only decreases, so no shift repeats for one idx;
                    # the scale only grows by factors, so it is rescaled below
                    quotients[idx][shift] = (w, scale)
                # work/scale - (w/scale)*(a/den) == (work*m - (w/g)*a) / (scale*m)
                g = math.gcd(w, d.den)
                factor, m = w // g, d.den // g
                if m != 1:
                    scale *= m
                    for e in work:
                        work[e] *= m
                    for e in remainder:
                        remainder[e] *= m
                for e2, a in d.tail:
                    e = tuple(map(add, e2, shift))
                    old = work.get(e)
                    if old is None:
                        # terms added are below exps, so e was never popped
                        work[e] = -factor * a
                        heappush(heap, (key(e), e))
                        continue
                    s = old - factor * a
                    if s:
                        work[e] = s
                    else:
                        del work[e]
                break
        else:
            remainder[exps] = w
    if quotients is not None:
        quotients = [{e: w if s == scale else w * (scale // s) for e, (w, s) in q.items()}
                     for q in quotients]
    return remainder, scale, quotients


def divide_exact(p: Polynomial, q: Polynomial) -> Polynomial:
    """Return h with p = h*q, or raise NotDivisibleError.

    Over one variable it is the long division of `_pseudo_divide`.  Over more,
    it is single-divisor reduction in grevlex order: a singleton divisor set
    is a Groebner basis, so a zero remainder is equivalent to divisibility.
    """
    if q.is_zero():
        raise PolyError("division by the zero polynomial")
    if p.is_zero():
        return Polynomial.zero(p.variables)
    a, b = p._aligned(q)
    if b.is_constant():
        return a.scale(1 / b.constant_coeff())
    if len(a.variables) == 1:
        # scale * A == quot * B for the numerators A, B of a, b, so
        # a / b == quot * b._den / (scale * a._den)
        rem, scale, quot = _pseudo_divide(_dense(a), _dense(b), want_quotient=True)
        if rem:
            raise NotDivisibleError(
                f"{format_canonical(p)} is not divisible by {format_canonical(q)}")
        return Polynomial._from_clean(_sparse([c * b._den for c in quot]),
                                      scale * a._den, a.variables)
    divisor = _Divisor.of(b, _grevlex_descending_key)
    # the kernel divides by the monic b / lc(b), so it is handed a / lc(b):
    # lc(b) = num / b._den, and the sign of num moves into the numerators
    num, den = b._terms[divisor.lead], b._den
    if num < 0:
        num, den = -num, -den
    work = {e: c * den for e, c in a._terms.items()}
    rem, scale, (quot,) = _reduce_full(work, a._den * num, [divisor],
                                       _grevlex_descending_key, want_quotients=True)
    if rem:
        raise NotDivisibleError(
            f"{format_canonical(p)} is not divisible by {format_canonical(q)}")
    return Polynomial._from_clean(quot, scale, a.variables)


def _primitive(coeffs: list[int]) -> list[int]:
    """The dense integer coefficients divided by their content; [] stays []."""
    g = math.gcd(*coeffs)
    return coeffs if g <= 1 else [c // g for c in coeffs]


def _pseudo_divide(u: list[int], v: list[int], want_quotient: bool = False):
    """Long division of dense ascending integer lists, without trailing zeros.

    Returns (r, s, q) with s*u == q*v + r, deg r < deg v and s > 0, all dense
    ascending; q is None unless `want_quotient`.  `u` is consumed.

    Each step cancels the lead of u with the least integer multiples of u and
    of the shifted v, the multiple of u positive, so r is a positive integer
    multiple of the Euclidean remainder.
    """
    dv, lv = len(v) - 1, v[-1]
    low = [(i, c) for i, c in enumerate(v[:-1]) if c]
    scale = 1
    steps = [] if want_quotient else None
    while len(u) > dv:
        lu = u.pop()
        g = math.gcd(lu, lv)
        if lv < 0:
            g = -g
        factor, m = lu // g, lv // g
        shift = len(u) - dv
        if m != 1:
            scale *= m
            u = [c * m for c in u]
        if steps is not None:
            # the scale only grows by factors, so it is rescaled below
            steps.append((shift, factor, scale))
        for i, c in low:
            u[shift + i] -= factor * c
        while u and u[-1] == 0:
            u.pop()
    quotient = None
    if steps is not None:
        quotient = [0] * (steps[0][0] + 1 if steps else 0)
        for shift, factor, s in steps:
            quotient[shift] = factor if s == scale else factor * (scale // s)
    return u, scale, quotient


def gcd_univariate(p: Polynomial, q: Polynomial) -> Polynomial:
    """Monic greatest common divisor of two univariate polynomials.

    A primitive remainder sequence over the integers: each input is cleared
    to its integer primitive part once, each remainder of `_pseudo_divide`
    is divided by its content, and only the last nonzero remainder is made
    monic.  The monic gcd is unique, so this is the polynomial a rational
    Euclid gives.
    """
    used = set(p.used_variables()) | set(q.used_variables())
    if len(used) > 1:
        raise NotUnivariateError(f"gcd_univariate over multiple variables {sorted(used)!r}")
    if p.is_zero() and q.is_zero():
        raise PolyError("gcd of two zero polynomials")
    var = next(iter(used)) if used else (p.variables[0] if p.variables else
                                         (q.variables[0] if q.variables else "x"))
    a, b = (_primitive(_dense(f.with_variables((var,)))) for f in (p, q))
    if len(a) < len(b):
        a, b = b, a
    while b:
        a, b = b, _primitive(_pseudo_divide(a, b)[0])
    if a[-1] < 0:
        a = [-c for c in a]
    ambient = p.variables if var in p.variables else q.variables
    if var not in ambient:
        ambient = (var,)
    return Polynomial._from_clean(_sparse(a), a[-1], (var,)).with_variables(ambient)


def lcm_univariate(p: Polynomial, q: Polynomial) -> Polynomial:
    """p*q/gcd, keeping the scaling of the given arguments."""
    g = gcd_univariate(p, q)
    return p * divide_exact(q, g)


def common_denominator(pairs: Iterable[tuple[Polynomial, Polynomial]],
                       variables: Iterable[str]) -> tuple[list[Polynomial], Polynomial]:
    """The fractions num/den over one common denominator c: ([num * c/den], c).

    Over one variable c is the running `lcm_univariate` of the denominators,
    from 1 on; otherwise it is the product of the distinct denominators.
    """
    variables = tuple(variables)
    pairs = list(pairs)
    c = Polynomial.one(variables)
    if len(variables) == 1:
        for _, den in pairs:
            c = lcm_univariate(c, den)
    else:
        distinct: list[Polynomial] = []
        for _, den in pairs:
            if den not in distinct:
                distinct.append(den)
                c = c * den
    return [num * divide_exact(c, den) for num, den in pairs], c


# ---------------------------------------------------------------------------
# formatting
# ---------------------------------------------------------------------------


def _term_order_key(item: tuple[Exponents, int]):
    exps, _ = item
    return (sum(exps), tuple(-e for e in exps))


def format_canonical(p: Polynomial) -> str:
    """Deterministic string form: ascending total degree, constant term first."""
    if p.is_zero():
        return "0"
    den = p._den
    pieces = []
    for exps, c in sorted(p._terms.items(), key=_term_order_key):
        mono = "*".join(
            v if e == 1 else f"{v}^{e}"
            for v, e in zip(p.variables, exps) if e
        )
        g = math.gcd(c, den)
        num, q = abs(c) // g, den // g
        if not mono:
            body = _fmt_rational(num, q)
        elif num == 1 and q == 1:
            body = mono
        else:
            body = f"{_fmt_rational(num, q)}*{mono}"
        if not pieces:
            pieces.append(body if c > 0 else f"-{body}")
        else:
            pieces.append(f"{'+' if c > 0 else '-'} {body}")
    return " ".join(pieces)


def _fmt_rational(num: int, den: int) -> str:
    """num/den as text, with den > 0 and the two coprime; "num" when den is 1."""
    try:
        return str(num) if den == 1 else f"{num}/{den}"
    except ValueError as exc:  # past the interpreter's digit limit
        raise DigitLimitError(f"cannot print a number: {exc}")


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------


# Deepest parenthesis nesting the parser accepts; each level takes four
# stack frames, so deeper input would otherwise end in a RecursionError.
MAX_NESTING = 100

# Largest exponent, and largest total degree of a power or product, the parser
# expands: (1 + z)^100000 would otherwise be expanded in full.
MAX_DEGREE = 1000

# Most terms a power or product the parser expands may have: under the degree
# bound (x + y + 1)^1000 still has 501501 terms, and expanding it takes hours.
MAX_TERMS = 2000


# What the parser reads by one `match` at its position: whitespace, then
# whitespace and the digits int() converts (str.isdecimal), and the rest of
# a name after its first character (str.isalnum or '_').
_SPACE = re.compile(r"\s*")
_INTEGER = re.compile(r"\s*(\d*)")
_NAME_REST = re.compile(r"\w*")

# A parsed term while its factors are numbers, rationals and variables:
# (num, den, exps) is num / den * x^exps, den > 0.
_Monomial = tuple[int, int, Exponents]


class _Parser:
    """Recursive descent over the module's grammar.  A term is a `_Monomial`,
    or a `Polynomial` once it has met a parenthesized factor; `expr` returns
    a `Polynomial`."""

    def __init__(self, text: str, variables: tuple[str, ...]):
        self.text = text
        self.pos = 0
        self.depth = 0
        self.variables = variables
        self.origin = (0,) * len(variables)
        self.units = {v: tuple(int(w == v) for w in variables) for v in variables}
        # positions of the '/' of rationals read outside all parentheses
        self.rational_bars: list[int] = []

    def error(self, message: str, cls=ParseError):
        raise cls(message, self.pos)

    def skip_ws(self):
        self.pos = _SPACE.match(self.text, self.pos).end()

    def peek(self) -> str:
        ch = self.text[self.pos:self.pos + 1]
        if ch.isspace():
            self.pos = _SPACE.match(self.text, self.pos).end()
            ch = self.text[self.pos:self.pos + 1]
        return ch

    def take(self, ch: str) -> bool:
        if self.peek() == ch:
            self.pos += 1
            return True
        return False

    def expect(self, ch: str):
        if not self.take(ch):
            self.error(f"expected {ch!r}")

    def integer(self) -> int:
        start, end = _INTEGER.match(self.text, self.pos).span(1)
        self.pos = start
        if end == start:
            self.error("expected an integer")
        try:
            value = int(self.text[start:end])
        except ValueError:  # past the interpreter's digit limit
            self.error(f"integer of {end - start} digits is too long")
        self.pos = end
        return value

    def expr(self) -> Polynomial:
        terms = [(1, self.term())]
        while True:
            ch = self.peek()
            if ch == "+":
                self.pos += 1
                terms.append((1, self.term()))
            elif ch == "-":
                self.pos += 1
                terms.append((-1, self.term()))
            else:
                return _sum_terms(terms, self.variables)

    def term(self) -> _Monomial | Polynomial:
        value = self.factor()
        while self.take("*"):
            other = self.factor()
            degree = _degree(value) + _degree(other)
            if degree > MAX_DEGREE:
                self.error(f"product of degree past {MAX_DEGREE}")
            if type(value) is tuple and type(other) is tuple:
                value = (value[0] * other[0], value[1] * other[1],
                         tuple(map(add, value[2], other[2])))
                continue
            value, other = self.polynomial(value), self.polynomial(other)
            self.bound_terms("product", len(value._terms) * len(other._terms), degree,
                             value, other)
            value = value * other
        return value

    def factor(self) -> _Monomial | Polynomial:
        negate = False
        while self.take("-"):  # a loop, so a long run of signs takes no stack
            negate = not negate
        value = self.base()
        if self.take("^"):
            exponent = self.integer()
            degree = _degree(value)
            if exponent * max(degree, 1) > MAX_DEGREE:
                self.error(f"power of exponent or degree past {MAX_DEGREE}")
            if type(value) is tuple:
                num, den, exps = value
                value = (num ** exponent, den ** exponent, tuple(exponent * e for e in exps))
            else:
                self.bound_terms("power", len(value._terms) ** exponent, exponent * degree,
                                 value)
                value = value ** exponent
        if not negate:
            return value
        return (-value[0], value[1], value[2]) if type(value) is tuple else -value

    def polynomial(self, value: _Monomial | Polynomial) -> Polynomial:
        """The term as a `Polynomial`."""
        if type(value) is not tuple:
            return value
        num, den, exps = value
        return Polynomial._from_clean({exps: num} if num else {}, den, self.variables)

    def bound_terms(self, what: str, count: int, degree: int, *operands: Polynomial):
        """Refuse a result of at most `count` terms and total `degree` that could
        have more than `MAX_TERMS`: in v variables it has at most C(degree + v, v)."""
        if count <= MAX_TERMS:
            return
        v = len(set().union(*[p.used_variables() for p in operands]))
        if math.comb(degree + v, v) > MAX_TERMS:
            self.error(f"{what} of more than {MAX_TERMS} terms")

    def base(self) -> _Monomial | Polynomial:
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
        if ch.isdecimal():
            num = self.integer()
            save = self.pos
            if self.take("/"):
                bar = self.pos - 1
                if self.peek().isdecimal():
                    if self.depth == 0:
                        self.rational_bars.append(bar)
                    den = self.integer()
                    if den == 0:
                        self.error("zero denominator in rational")
                    return num, den, self.origin
                self.pos = save
            return num, 1, self.origin
        if ch.isalpha() or ch == "_":
            start = self.pos
            self.pos = _NAME_REST.match(self.text, start + 1).end()
            unit = self.units.get(self.text[start:self.pos])
            if unit is None:
                var, self.pos = self.text[start:self.pos], start
                self.error(f"unknown variable {var!r}", UnknownVariableError)
            return 1, 1, unit
        self.error("expected a number, variable, or '('")


def _degree(value: _Monomial | Polynomial) -> int:
    """Total degree of a parsed term; -1 for zero."""
    if type(value) is tuple:
        return sum(value[2]) if value[0] else -1
    return value.total_degree()


def _sum_terms(terms: list[tuple[int, _Monomial | Polynomial]],
               variables: tuple[str, ...]) -> Polynomial:
    """The sum of sign * t over the terms, each a `_Monomial` or a
    `Polynomial` over `variables`, in one pass over their integer numerators
    put over the lcm of their denominators."""
    if len(terms) == 1 and type(terms[0][1]) is Polynomial:  # the first sign is 1
        return terms[0][1]
    den = math.lcm(*[t[1] if type(t) is tuple else t._den for _, t in terms])
    acc: dict[Exponents, int] = {}
    get = acc.get
    for sign, t in terms:
        if type(t) is tuple:
            num, d, e = t
            if num:
                acc[e] = get(e, 0) + sign * num * (den // d)
            continue
        m = sign * (den // t._den)
        for e, c in t._terms.items():
            acc[e] = get(e, 0) + c * m
    return Polynomial._from_clean({e: c for e, c in acc.items() if c}, den, variables)


def _parse_rest(parser: _Parser) -> Polynomial:
    """The expression from the parser's position to the end of its text."""
    value = parser.expr()
    parser.skip_ws()
    if parser.pos != len(parser.text):
        parser.error("unexpected trailing input")
    return value


def parse_poly(text: str, variables: Iterable[str]) -> Polynomial:
    """Parse an expression into expanded canonical form."""
    return _parse_rest(_Parser(text, tuple(variables)))


def parse_fraction(text: str, variables: Iterable[str]) -> tuple[Polynomial, Polynomial]:
    """Parse "num" or "num/den" into (num, den); den is 1 for a polynomial.

    A text that parses whole is a polynomial, even when it holds a '/' as in
    the rational 1/2.  Otherwise the fraction bar is the first '/' outside
    all parentheses at which both sides parse.  The text is parsed once, up
    to the first '/' the grammar cannot read, and that '/' is a candidate
    bar.  The only other '/' after which a numerator can end are those of
    rationals read outside parentheses (the first '/' of "1/2/3"); they are
    earlier candidates, and when one of them is the bar its numerator is
    parsed again.  When no split parses, the error is that of the last
    candidate's denominator, else that of the whole text, with its position
    in the whole text.
    """
    variables = tuple(variables)
    parser = _Parser(text, variables)
    num = None
    try:
        num = parser.expr()
        parser.skip_ws()
        if parser.pos == len(text):
            return num, Polynomial.one(variables)
        parser.error("unexpected trailing input")
    except ParseError as exc:
        # without its traceback the kept error holds no frame of this call
        error = exc.with_traceback(None)
    candidates = [(pos, None) for pos in parser.rational_bars]
    if num is not None and text[parser.pos] == "/":
        candidates.append((parser.pos, num))
    for pos, num in candidates:
        den_parser = _Parser(text, variables)
        den_parser.pos = pos + 1
        try:
            den = _parse_rest(den_parser)
        except ParseError as exc:
            error = exc.with_traceback(None)
            continue
        if num is None:
            num = parse_poly(text[:pos], variables)
        return num, den
    raise error
