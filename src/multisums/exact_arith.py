"""Exact scalar arithmetic: rationals, combinatorial tables, pi-polynomials.

Every verdict-bearing value in this package is exact. Rationals are
``fractions.Fraction`` (arbitrary precision, canonical lowest terms with a
positive denominator). Decimal arithmetic appears only inside
:func:`pi_poly_numeric`, which renders a :class:`PiPolynomial` as a decimal
string for display and trend checks, never for an equality verdict.
"""

from __future__ import annotations

import math
from decimal import ROUND_HALF_EVEN, Context, Decimal
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Mapping, Union

__all__ = [
    "RationalLike",
    "rational_to_str",
    "rational_from_str",
    "factorial",
    "binomial",
    "bernoulli",
    "stirling_first_unsigned",
    "PiPolynomial",
    "pi_poly_numeric",
    "NUMERIC_MAX_DIGITS",
]

NUMERIC_MAX_DIGITS = 1000  # longest pi_poly_numeric rendering; pi is summed at digits + 25
_GUARD_DIGITS = 25

# Anything Fraction() accepts exactly (floats are deliberately excluded).
RationalLike = Union[Fraction, int, str]


def rational_to_str(value: Fraction) -> str:
    """Serialize a rational as ``"num/den"`` in canonical form.

    The denominator is always written, so integers read ``"7/1"``; the sign
    sits on the numerator.
    """
    value = Fraction(value)
    return f"{value.numerator}/{value.denominator}"


def rational_from_str(text: str) -> Fraction:
    """Parse ``"num/den"`` or a bare integer string into a rational."""
    body = text.strip()
    if "/" in body:
        num_text, den_text = body.split("/", 1)
        return Fraction(int(num_text), int(den_text))
    return Fraction(int(body))


def factorial(n: int) -> int:
    """n! for n >= 0."""
    return math.factorial(n)


def binomial(n: int, k: int) -> int:
    """C(n, k) for n >= 0, with C(n, k) = 0 whenever k < 0 or k > n."""
    if n < 0:
        raise ValueError("binomial requires n >= 0")
    if k < 0 or k > n:
        return 0
    return math.comb(n, k)


@lru_cache(maxsize=None)
def bernoulli(j: int) -> Fraction:
    """Bernoulli number B_j with the B_1 = -1/2 convention.

    Computed from the defining recurrence sum_{k=0}^{m} C(m+1, k) B_k = 0,
    memoized, so repeated identity sweeps pay the quadratic fill once.
    """
    if j < 0:
        raise ValueError("bernoulli requires j >= 0")
    if j == 0:
        return Fraction(1)
    total = Fraction(0)
    for k in range(j):
        total += binomial(j + 1, k) * bernoulli(k)
    return -total / (j + 1)


# The row [m, 0..m] built last, a tuple of length m + 1. A call for an order
# at or above it continues from it, so an ascending sweep builds each row once.
_stirling_row: tuple[int, ...] = (1,)


def stirling_first_unsigned(m: int, r: int) -> int:
    """Unsigned Stirling number of the first kind [m, r].

    Counts permutations of m elements with r cycles. Triangular recurrence
    [m, r] = (m-1) [m-1, r] + [m-1, r-1] with [0, 0] = 1, applied row by
    row from the bottom up, so no recursion deepens with m; out-of-range r
    gives 0.
    """
    global _stirling_row
    if m < 0:
        raise ValueError("stirling_first_unsigned requires m >= 0")
    if r < 0 or r > m:
        return 0
    row = _stirling_row
    if len(row) > m + 1:
        row = (1,)
    for k in range(len(row) - 1, m):
        row = tuple([k * a + b for a, b in zip(row + (0,), (0,) + row)])
    _stirling_row = row
    return row[r]


class PiPolynomial:
    """Exact finite sum  c_0 + c_1 pi + c_2 pi^2 + ...  with rational c_k.

    Closed under addition, subtraction, multiplication, and small integer
    powers. Zero coefficients are never stored, so structural equality of
    the term maps is exact value equality. JSON form maps the exponent
    (as a decimal string) to the coefficient as ``"num/den"``.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Union[Mapping[int, RationalLike], Iterable[tuple[int, RationalLike]]] = ()):
        items = terms.items() if isinstance(terms, Mapping) else terms
        acc: dict[int, Fraction] = {}
        for exponent, coeff in items:
            exponent = int(exponent)
            if exponent < 0:
                raise ValueError("pi exponent must be >= 0")
            value = acc.get(exponent, Fraction(0)) + Fraction(coeff)
            if value:
                acc[exponent] = value
            else:
                acc.pop(exponent, None)
        self._terms = {k: acc[k] for k in sorted(acc)}

    @classmethod
    def from_rational(cls, value: RationalLike) -> "PiPolynomial":
        return cls({0: Fraction(value)})

    @property
    def terms(self) -> dict[int, Fraction]:
        """Exponent -> coefficient map (copy), ascending exponents."""
        return dict(self._terms)

    def is_zero(self) -> bool:
        return not self._terms

    def coefficient(self, exponent: int) -> Fraction:
        return self._terms.get(exponent, Fraction(0))

    def __eq__(self, other: object) -> bool:
        if isinstance(other, PiPolynomial):
            return self._terms == other._terms
        return NotImplemented

    def __hash__(self) -> int:
        return hash(tuple(self._terms.items()))

    def __add__(self, other: "PiPolynomial") -> "PiPolynomial":
        if not isinstance(other, PiPolynomial):
            return NotImplemented
        merged = dict(self._terms)
        for k, c in other._terms.items():
            merged[k] = merged.get(k, Fraction(0)) + c
        return PiPolynomial(merged)

    def __sub__(self, other: "PiPolynomial") -> "PiPolynomial":
        if not isinstance(other, PiPolynomial):
            return NotImplemented
        return self + (-other)

    def __neg__(self) -> "PiPolynomial":
        return PiPolynomial({k: -c for k, c in self._terms.items()})

    def __mul__(self, other: Union["PiPolynomial", RationalLike]) -> "PiPolynomial":
        if isinstance(other, PiPolynomial):
            acc: dict[int, Fraction] = {}
            for ka, ca in self._terms.items():
                for kb, cb in other._terms.items():
                    k = ka + kb
                    acc[k] = acc.get(k, Fraction(0)) + ca * cb
            return PiPolynomial(acc)
        scalar = Fraction(other)
        return PiPolynomial({k: c * scalar for k, c in self._terms.items()})

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "PiPolynomial":
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("PiPolynomial powers must be nonnegative integers")
        result = PiPolynomial.from_rational(1)
        for _ in range(exponent):
            result = result * self
        return result

    def __repr__(self) -> str:
        if not self._terms:
            return "PiPolynomial()"
        body = ", ".join(f"{k}: {rational_to_str(c)!r}" for k, c in self._terms.items())
        return f"PiPolynomial({{{body}}})"

    def to_json_dict(self) -> dict[str, str]:
        return {str(k): rational_to_str(c) for k, c in self._terms.items()}

    @classmethod
    def from_json_dict(cls, data: Mapping[str, str]) -> "PiPolynomial":
        return cls({int(k): rational_from_str(v) for k, v in data.items()})


def _pi(ctx: Context) -> Decimal:
    # The series recipe of the decimal module's documentation, two extra digits.
    work = Context(prec=ctx.prec + 2)
    lasts, t, s, n, na, d, da = 0, Decimal(3), Decimal(3), 1, 0, 0, 24
    while s != lasts:
        lasts = s
        n, na = n + na, na + 8
        d, da = d + da, da + 32
        t = work.divide(work.multiply(t, n), d)
        s = work.add(s, t)
    return ctx.plus(s)


def pi_poly_numeric(value: PiPolynomial, digits: int) -> str:
    """Render a PiPolynomial as a decimal string to ``digits`` significant digits.

    Fixed-point notation, trailing zeros stripped down to one fractional
    digit; the zero polynomial reads ``"0"``. The terms are summed with a
    25-digit guard on top of the request and rounded once, half to even.
    Display and trend checks only; 1 <= digits <= NUMERIC_MAX_DIGITS.
    """
    if not 1 <= digits <= NUMERIC_MAX_DIGITS:
        raise ValueError(f"numeric digits must be in [1, {NUMERIC_MAX_DIGITS}], got {digits}")
    if value.is_zero():
        return "0"
    ctx = Context(prec=digits + _GUARD_DIGITS, rounding=ROUND_HALF_EVEN)
    pi = _pi(ctx)
    total = Decimal(0)
    for exponent, coeff in value.terms.items():
        term = ctx.divide(coeff.numerator, coeff.denominator)
        total = ctx.add(total, ctx.multiply(term, ctx.power(pi, exponent)))
    text = format(Context(prec=digits, rounding=ROUND_HALF_EVEN).plus(total), "f")
    whole, _, fraction = text.partition(".")
    return f"{whole}.{fraction.rstrip('0') or '0'}"
