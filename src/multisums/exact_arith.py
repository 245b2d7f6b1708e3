"""Exact scalar arithmetic: rationals, combinatorial tables, pi monomials.

Every verdict-bearing value in this package is exact. Rationals are
``fractions.Fraction`` (arbitrary precision, canonical lowest terms with a
positive denominator), and inputs become rationals only from ``Fraction``,
``int`` or string values: a float or a bool is refused with ValueError
rather than read as the binary fraction it stores. Strings have one grammar,
that of :func:`rational_from_str` (``"num/den"`` or an integer), so a
decimal string such as ``"0.1"`` is refused too. One block kernel here sums
many rationals exactly, as integer power sums over one scale, with no
Fraction built per term: the power sums of a window, the tuple products of
brute-force multiple sums and the set-partition block sums all run on it;
partition sums have their own walk in :mod:`multisums.partitions`.
Bernoulli numbers come from a table of tangent numbers, integers built by
additions only. Decimal
arithmetic appears only inside :func:`pi_poly_numeric`, which renders a
:class:`PiPolynomial` as a decimal string for display and trend checks,
never for an equality verdict.
"""

from __future__ import annotations

import math
from decimal import ROUND_HALF_EVEN, Context, Decimal
from fractions import Fraction
from itertools import accumulate, islice
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


def _as_exact(value: RationalLike) -> Fraction | int:
    """value as an exact number: an int stays an int, the rest is read by _as_rational."""
    return value if _is_int(value) else _as_rational(value)


def _pair_power_sums(pairs: Iterable[tuple[int, int]], m: int) -> tuple[list[int], int]:
    """(T, L): the power sums S_i = sum of (num / den) ** i over (num, den) int
    pairs, den > 0, are S_i = T[i - 1] / L ** i for i = 1..m, with L the lcm
    of the denominators.

    Every term is the integer num L / den, so T_i is an integer power sum and
    no Fraction is built. The pairs are taken in blocks of _SUM_BLOCK, each
    summed over the lcm of its own denominators, and the blocks are merged
    as a binary counter: at most one pending node per level, and two nodes
    of equal level merge, at the lcm of their scales, into one of the next.
    Every merge then joins sums of similar size, and the stream is consumed
    once with O(log(blocks)) nodes live; folding each block into one running
    sum would rescale that sum, whose lcm grows with every block over a
    window of distinct denominators such as N ** -1 on [1, 50000], once per
    block. The whole stream is consumed, also when m = 0.
    """
    levels: list[tuple[list[int], int] | None] = []  # levels[i]: the sums of 2 ** i blocks
    pairs = iter(pairs)
    while block := list(islice(pairs, _SUM_BLOCK)):
        scale = math.lcm(*(den for _, den in block))
        sums = [0] * m
        for num, den in block:
            numerator = num * (scale // den)
            power = 1
            for i in range(m):
                power *= numerator
                sums[i] += power
        node = (sums, scale)
        level = 0
        while level < len(levels) and levels[level] is not None:
            node = _merge_scaled(levels[level], node)
            levels[level] = None
            level += 1
        if level == len(levels):
            levels.append(node)
        else:
            levels[level] = node
    total = None
    for node in levels:
        if node is not None:
            total = node if total is None else _merge_scaled(node, total)
    return total or ([0] * m, 1)


def _merge_scaled(a: tuple[list[int], int], b: tuple[list[int], int]) -> tuple[list[int], int]:
    """The sum of two (T, L) power-sum nodes, over the lcm of their scales."""
    (sums_a, scale_a), (sums_b, scale_b) = a, b
    scale = math.lcm(scale_a, scale_b)
    up_a, up_b = scale // scale_a, scale // scale_b
    factor_a = factor_b = 1
    merged = []
    for x, y in zip(sums_a, sums_b):
        factor_a *= up_a
        factor_b *= up_b
        merged.append(x * factor_a + y * factor_b)
    return merged, scale


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

    (total,), scale = _pair_power_sums(products(), 1)
    return Fraction(total, scale)


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


# (E_0..E_n, row n): the zigzag numbers found so far and the Seidel-Entringer
# row of the last of them. A call past the table continues from that row, and
# the pair is replaced as one object, so concurrent callers (selftest --jobs)
# each read a table and a row that belong together.
_zigzag: tuple[tuple[int, ...], list[int]] = ((1,), [1])


def bernoulli(j: int) -> Fraction:
    """Bernoulli number B_j with the B_1 = -1/2 convention.

    B_0 = 1, B_1 = -1/2 and B_j = 0 at odd j >= 3. An even B_{2k} comes from
    the tangent number T_k = E_{2k-1}, the zigzag number counting the
    alternating permutations of 2k - 1 elements:
    B_{2k} = (-1)^(k-1) 2k T_k / (4^k (4^k - 1)) (Brent and Harvey, "Fast
    computation of Bernoulli, Tangent and Secant numbers", arXiv:1108.0286).
    The zigzag numbers are the last entries of the Seidel-Entringer rows,
    row n being the running sums of row n - 1 read backwards after a leading
    0. Those rows are integer additions only; they are built once, on
    demand, and kept in a table.
    """
    global _zigzag
    if j < 0:
        raise ValueError("bernoulli requires j >= 0")
    if j < 2:
        return Fraction(1) if j == 0 else Fraction(-1, 2)
    if j % 2:
        return Fraction(0)
    table, row = _zigzag
    if len(table) < j:  # extend up to E_{j-1} = T_{j/2}
        grown = list(table)
        while len(grown) < j:
            row = [0, *accumulate(reversed(row))]
            grown.append(row[-1])
        table = tuple(grown)
        _zigzag = table, row
    k = j // 2
    numerator = j * table[j - 1]
    return Fraction(numerator if k % 2 else -numerator, 4**k * (4**k - 1))


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
