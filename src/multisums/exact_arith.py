"""Exact scalar arithmetic: rationals, combinatorial tables, pi monomials.

Every verdict-bearing value in this package is exact. Rationals are
``fractions.Fraction`` (arbitrary precision, canonical lowest terms with a
positive denominator), and inputs become rationals only from ``Fraction``,
``int`` or string values: a float or a bool is refused with ValueError
rather than read as the binary fraction it stores. Strings have one grammar,
that of :func:`rational_from_str` (``"num/den"`` or an integer), so a
decimal string such as ``"0.1"`` is refused too. Sums over index tuples
of products of table entries (brute-force multiple sums and set-partition
blocks) share one integer kernel here; partition sums have their own walk
in :mod:`multisums.partitions`. Decimal arithmetic
appears only inside :func:`pi_poly_numeric`, which renders a
:class:`PiPolynomial` as a decimal string for display and trend checks,
never for an equality verdict.
"""

from __future__ import annotations

import math
from decimal import ROUND_HALF_EVEN, Context, Decimal
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Mapping, Sequence, Union

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
_TUPLE_SUM_FOLD = 4096  # distinct denominators _tuple_sum holds before folding into the total

# What _as_rational takes exactly; floats and bools are refused.
RationalLike = Union[Fraction, int, str]


def _is_int(value: object) -> bool:
    """An int and not a bool: True and False (JSON true/false) are not numbers here."""
    return isinstance(value, int) and not isinstance(value, bool)


def _as_rational(value: RationalLike) -> Fraction:
    """value as a Fraction. Only Fraction, int and str are taken.

    A Fraction is returned as it is (Fractions are immutable). A string is
    read by rational_from_str. A float is a binary approximation, and taking
    it exactly would invent a rational; a bool is not a number here. Both
    raise ValueError.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, str):
        return rational_from_str(value)
    if not _is_int(value):
        raise ValueError(f'expected a Fraction, an int or a "num/den" string, got {value!r}')
    return Fraction(value)


def _tuple_sum(combos: Iterable[Sequence[int]], tables: Sequence[Sequence[Fraction | int]]) -> Fraction:
    """Sum over the index tuples of prod_j tables[j][combo[j]], exact.

    Each product is one int numerator over one int denominator; numerators
    are summed per denominator in a dict, which is folded into the Fraction
    total whenever it holds _TUPLE_SUM_FOLD denominators, so Fraction
    arithmetic runs once per distinct denominator and fold, not once per
    factor of every tuple. Entries may be Fractions or ints.
    """
    nums = [[v.numerator for v in table] for table in tables]
    dens = [[v.denominator for v in table] for table in tables]
    total = Fraction(0)
    pending: dict[int, int] = {}
    for combo in combos:
        num = den = 1
        for row_nums, row_dens, i in zip(nums, dens, combo):
            num *= row_nums[i]
            den *= row_dens[i]
        pending[den] = pending.get(den, 0) + num
        if len(pending) >= _TUPLE_SUM_FOLD:
            total += _fold(pending)
            pending.clear()
    return total + _fold(pending)


def _fold(pending: dict[int, int]) -> Fraction:
    return sum((Fraction(num, den) for den, num in pending.items()), Fraction(0))


def rational_to_str(value: Fraction) -> str:
    """Serialize a rational as ``"num/den"`` in canonical form.

    The denominator is always written, so integers read ``"7/1"``; the sign
    sits on the numerator.
    """
    value = _as_rational(value)
    return f"{value.numerator}/{value.denominator}"


def rational_from_str(text: str) -> Fraction:
    """Parse ``"num/den"`` or a bare integer string into a rational.

    The one string grammar of the package: decimals (``"0.1"``), exponents
    (``"1e3"``), ``"nan"`` and a zero denominator raise ValueError.
    """
    num_text, slash, den_text = text.partition("/")
    try:
        return Fraction(int(num_text), int(den_text) if slash else 1)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f'expected an integer or "num/den" with den != 0, got {text!r}') from None


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
    """The exact single term c pi^e, rational c and integer e >= 0.

    Every even zeta value and every depth reduction of repeated even
    arguments has this form. Built from a map {e: c} of at most one term;
    a zero coefficient is not stored, so the empty map is zero and
    structural equality is exact value equality. Rational scalars multiply
    it. JSON form maps the exponent (as a decimal string) to the coefficient
    as ``"num/den"``.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[int, RationalLike] | None = None):
        terms = terms or {}
        if len(terms) > 1:
            raise ValueError(f"a PiPolynomial holds one term c pi^e, got {len(terms)}")
        self._terms: dict[int, Fraction] = {}
        for exponent, coeff in terms.items():
            if not _is_int(exponent) or exponent < 0:
                raise ValueError(f"pi exponent must be an integer >= 0, got {exponent!r}")
            value = _as_rational(coeff)
            if value:
                self._terms[exponent] = value

    @classmethod
    def from_rational(cls, value: RationalLike) -> "PiPolynomial":
        return cls({0: value})

    @property
    def terms(self) -> dict[int, Fraction]:
        """Exponent -> coefficient map (copy): one entry, or none for zero."""
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

    def __mul__(self, other: RationalLike) -> "PiPolynomial":
        if isinstance(other, PiPolynomial):
            return NotImplemented
        scalar = _as_rational(other)
        return PiPolynomial({k: c * scalar for k, c in self._terms.items()})

    __rmul__ = __mul__

    def __repr__(self) -> str:
        if not self._terms:
            return "PiPolynomial()"
        body = ", ".join(f"{k}: {rational_to_str(c)!r}" for k, c in self._terms.items())
        return f"PiPolynomial({{{body}}})"

    def to_json_dict(self) -> dict[str, str]:
        return {str(k): rational_to_str(c) for k, c in self._terms.items()}


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
    """Render c pi^e as a decimal string to ``digits`` significant digits.

    Fixed-point notation, trailing zeros stripped down to one fractional
    digit; zero reads ``"0"``. The term is computed with a 25-digit guard on
    top of the request and rounded once, half to even. Display and trend
    checks only; 1 <= digits <= NUMERIC_MAX_DIGITS.
    """
    if not 1 <= digits <= NUMERIC_MAX_DIGITS:
        raise ValueError(f"numeric digits must be in [1, {NUMERIC_MAX_DIGITS}], got {digits}")
    if value.is_zero():
        return "0"
    ((exponent, coeff),) = value.terms.items()
    ctx = Context(prec=digits + _GUARD_DIGITS, rounding=ROUND_HALF_EVEN)
    total = ctx.multiply(ctx.divide(coeff.numerator, coeff.denominator), ctx.power(_pi(ctx), exponent))
    text = format(Context(prec=digits, rounding=ROUND_HALF_EVEN).plus(total), "f")
    whole, _, fraction = text.partition(".")
    return f"{whole}.{fraction.rstrip('0') or '0'}"
