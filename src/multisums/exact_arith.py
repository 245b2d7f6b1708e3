"""Exact scalar arithmetic: rationals, combinatorial tables, pi monomials.

Every verdict-bearing value in this package is exact. Rationals are
``fractions.Fraction`` (arbitrary precision, canonical lowest terms with a
positive denominator), and inputs become rationals only from ``Fraction``,
``int`` or string values: a float or a bool is refused with ValueError
rather than read as the binary fraction it stores. Strings have one grammar,
that of :func:`rational_from_str` (``"num/den"`` or an integer), so a
decimal string such as ``"0.1"`` is refused too. One block kernel here sums
many rationals exactly: the power sums of a window, the tuple products of
brute-force multiple sums and the set-partition block sums all run on it;
partition sums have their own walk in :mod:`multisums.partitions`. Decimal
arithmetic appears only inside :func:`pi_poly_numeric`, which renders a
:class:`PiPolynomial` as a decimal string for display and trend checks,
never for an equality verdict.
"""

from __future__ import annotations

import math
from decimal import ROUND_HALF_EVEN, Context, Decimal
from fractions import Fraction
from functools import lru_cache
from itertools import islice
from typing import Iterable, Iterator, Mapping, Sequence, Union

__all__ = [
    "RationalLike",
    "rational_to_str",
    "rational_from_str",
    "bernoulli",
    "stirling_first_unsigned",
    "PiPolynomial",
    "pi_poly_numeric",
    "NUMERIC_MAX_DIGITS",
]

NUMERIC_MAX_DIGITS = 1000  # longest pi_poly_numeric rendering; pi is summed at digits + 25
_GUARD_DIGITS = 25
_SUM_BLOCK = 32  # terms per integer block in _pair_power_sums

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


def _pair_power_sums(pairs: Iterable[tuple[int, int]], m: int) -> list[Fraction]:
    """S_i = sum of (num / den) ** i over (num, den) int pairs, den > 0, for i = 1..m.

    The pairs are taken in blocks of _SUM_BLOCK. With L the lcm of a block's
    denominators, each term is the integer num L / den over L, so the
    block's S_i is an integer power sum over L ** i: the inner loop
    multiplies and adds integers only. Each block is then merged into the
    running sums at the lcm of the two scales, and m rationals are built at
    the end. Blocks keep the integers at the size of a block's lcm: over a
    long window of distinct denominators, such as N ** -2 on [1, 2000], the
    lcm of the whole window would make every term thousands of bits long.
    The whole stream is consumed, also when m = 0.
    """
    sums, scale = [0] * m, 1
    pairs = iter(pairs)
    while block := list(islice(pairs, _SUM_BLOCK)):
        block_scale = math.lcm(*(den for _, den in block))
        block_sums = [0] * m
        for num, den in block:
            numerator = num * (block_scale // den)
            power = 1
            for i in range(m):
                power *= numerator
                block_sums[i] += power
        merged = math.lcm(scale, block_scale)
        up, block_up = merged // scale, merged // block_scale
        factor = block_factor = 1
        for i in range(m):
            factor *= up
            block_factor *= block_up
            sums[i] = sums[i] * factor + block_sums[i] * block_factor
        scale = merged
    out = []
    denominator = 1
    for total in sums:
        denominator *= scale
        out.append(Fraction(total, denominator))
    return out


def _tuple_sum(combos: Iterable[Sequence[int]], tables: Sequence[Sequence[Fraction | int]]) -> Fraction:
    """Sum over the index tuples of prod_j tables[j][combo[j]], exact.

    Each product is one int numerator over one int denominator, and the
    pairs are summed by _pair_power_sums as their S_1, so no Fraction is
    built per tuple. Entries may be Fractions or ints.
    """
    nums = [[v.numerator for v in table] for table in tables]
    dens = [[v.denominator for v in table] for table in tables]

    def products() -> Iterator[tuple[int, int]]:
        for combo in combos:
            num = den = 1
            for row_nums, row_dens, i in zip(nums, dens, combo):
                num *= row_nums[i]
                den *= row_dens[i]
            yield num, den

    return _pair_power_sums(products(), 1)[0]


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
        total += math.comb(j + 1, k) * bernoulli(k)
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
