"""Integer partitions in multiplicity encoding, and set partitions.

A partition of m is a plain tuple, the multiplicity vector
y = (y_1, ..., y_m) where y_i counts the parts equal to i, so
sum(i * y_i) == m and the vector always has length exactly m; its number
of parts is sum(y), and its parity that of sum(y). That encoding lines up
one slot per possible part size, which is what the partition-weighted
product formulas consume. :func:`enumerate_partitions` is the one
enumerator. It keeps no cache: the partition sums below do not list
partitions, and its callers (``partitions list``, the phi expansion of
identity sweeps and the one walk per order that serves it, the
coefficient tables of the acceptance suite) list few.

Sums over all partitions of m of a product of per-part weights have two
routes here. :func:`partition_sum` (and its even/odd split
:func:`parity_partition_sums`) is the paper's formula written out term by
term over every partition; it is the readable oracle, and its sums are
rational. It does not list the partitions: a depth-first walk over the
multiplicities, largest part first, shares each prefix product among the
partitions below it. The walk reads integer rows, R_i[k] = D_i w(i, k)
with one denominator D_i per part size i, and returns integer totals over
den = prod_i D_i, one per number of parts: t_p sums the terms of the
partitions with p parts, so the full sum is sum_p t_p, the even/odd split
that of the even and odd p, and a weight that carries a further factor x
per part gives sum_p x^p t_p from the same walk. It forms all p(m)
terms, one partition at a time, a zero factor included; a sum that only
some partitions reach is the caller's to write over those partitions, as
:mod:`multisums.identities` walks the partitions z of m - r for the
terms y = phi + z its binomial-filtered weights leave nonzero. The
public functions read each per-entry weight w(i, k) as a rational and put
its row over the lcm of the row's denominators;
:mod:`multisums.identities` writes its closed-form weights as integer
rows and hands them to the walk directly.
:func:`newton_coefficients` gets every such sum up to m at once from
Newton's recurrence in O(m^2) exact steps; the production reductions use
it, the window reductions of :mod:`multisums.core` on integers alone. On
rational inputs each step sums its dot product as integers over the lcm
of its terms' denominators and normalises once, building one Fraction,
where a Fraction per multiply and add would pay a gcd for each.

A set partition of {1, ..., m} is a tuple of block tuples in canonical
form: each block ascending, blocks ordered by (size, smallest element).
:func:`enumerate_set_partitions` lists them in ascending order of those
tuples.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate, repeat
from math import lcm
from operator import mul
from typing import Callable, Sequence

from .exact_arith import RationalLike, _as_exact, _as_rational, _int_text, _integer, _is_int, _rationals

__all__ = [
    "enumerate_partitions",
    "partition_count",
    "partition_sum",
    "parity_partition_sums",
    "newton_coefficients",
    "enumerate_set_partitions",
    "SET_PARTITION_MAX_M",
    "PARTITION_LIST_MAX_M",
    "PARTITION_COUNT_MAX_M",
]

SET_PARTITION_MAX_M = 8  # Bell(8) = 4140 set partitions; enumeration stays cheap
PARTITION_LIST_MAX_M = 50  # p(50) = 204 226 partitions; the largest order listed or summed over
# the largest m whose p(m) partition_count computes: the pentagonal recurrence
# takes O(m^1.5) big-integer steps, 0.3 s at 10^4, 1.2 s at 2 * 10^4 and about
# 16 s at 10^5 (2-vCPU VM)
PARTITION_COUNT_MAX_M = 10_000


def _check_order(m: int) -> None:
    """Refuses an order no partition enumeration or walk takes."""
    if _integer("m", m) > PARTITION_LIST_MAX_M:
        raise ValueError(f"m={_int_text(m)} exceeds the partition enumeration cap {PARTITION_LIST_MAX_M}")


def enumerate_partitions(m: int) -> tuple[tuple[int, ...], ...]:
    """The multiplicity vectors of all partitions of m, all-ones first, single part m last.

    The order is ascending lexicographic on the descending part tuples and
    is part of the contract (golden CLI output depends on it). m = 0 yields
    the single empty vector. Each call lists the order afresh. Orders above
    PARTITION_LIST_MAX_M are refused with ValueError; partition_count counts
    without listing.
    """
    _check_order(m)
    if m == 0:
        return ((),)
    y = [0] * m
    out: list[tuple[int, ...]] = []

    def fill(rest: int, largest: int) -> None:
        # Completes y with parts <= largest weighing rest, largest part
        # ascending: all ones first, then each larger part in turn.
        y[0] = rest
        out.append(tuple(y))
        for part in range(2, min(rest, largest) + 1):
            y[part - 1] += 1
            fill(rest - part, part)
            y[part - 1] -= 1

    fill(m, m)
    del fill  # the closure refers to itself through its cell; emptying the cell frees it without gc
    return tuple(out)


Weight = Callable[[int, int], RationalLike]


def _read_rows(m: int, weight: Weight) -> tuple[list[list[int]], int]:
    """(rows, den): rows[i][k] = D_i * weight(i, k) for k <= m // i, as ints, and den = prod_i D_i.

    Each row weight(i, 0..m // i) is read once as rationals and put over its
    own common denominator D_i, the lcm of its entries' denominators.
    rows[0] is empty. Orders above PARTITION_LIST_MAX_M are refused before
    any weight is read.
    """
    _check_order(m)
    rows: list[list[int]] = [[]]
    den = 1
    for i in range(1, m + 1):
        row = [_as_rational(weight(i, k)) for k in range(m // i + 1)]
        scale = lcm(*(v.denominator for v in row))
        rows.append([v.numerator * (scale // v.denominator) for v in row])
        den *= scale
    return rows, den


def _walk_rows(rows: Sequence[Sequence[int]]) -> list[int]:
    """t[0..m]: t[p] sums prod_{i=1}^{m} rows[i][y_i] over the partitions y
    of m = len(rows) - 1 with p = sum(y) parts.

    rows[i] holds the integer entries for y_i = 0..m // i; a zero entry is
    multiplied in like any other, so every one of the p(m) terms is formed.
    A depth-first walk fixes y_m, y_{m-1}, ..., y_2 in turn and gives y_1
    the rest, multiplying one row entry into a running product per step, so
    terms that share their larger parts share that prefix product. Once the
    rest is smaller than the next part size, the rows in between can only
    take y_i = 0, and their product comes from a table.
    """
    m = len(rows) - 1
    if not m:
        return [1]  # the empty partition's empty product
    totals = [0] * (m + 1)
    # zeros[j][r] = prod_{l=r+1}^{j} rows[l][0]: the factor of y_{r+1} = ... = y_j = 0
    zeros = [[1]]
    for j in range(1, m + 1):
        zeros.append([z * rows[j][0] for z in zeros[-1]] + [1])

    def walk(i: int, rest: int, product: int, parts: int) -> None:
        # y_m .. y_{i+1} are fixed, with `parts` parts so far, and 1 <= i <= rest
        if i == 1:
            totals[parts + rest] += product * rows[1][rest]
            return
        row = rows[i]
        for k in range(rest // i + 1):
            left = rest - i * k
            term = product * row[k]
            if left >= i - 1:
                walk(i - 1, left, term, parts + k)
            elif left:
                walk(left, left, term * zeros[i - 1][left], parts + k)
            else:
                totals[parts + k] += term * zeros[i - 1][0]

    walk(m, m, 1, 0)
    del walk  # as in enumerate_partitions: no reference cycle is left for gc
    return totals


def _class_sums(totals: Sequence[int], den: int, x: int) -> tuple[Fraction, Fraction]:
    """(even, odd): sum_p x^p t_p / den over the even and over the odd part counts p.

    A weight that carries a further factor x per part, such as a sign or
    the n of the identities' weights, multiplies to x^p over a partition
    with p parts, and applies to each class at once: the j-th entry of
    either class takes (x^2)^j, and the odd class one more x. At x = +-1 no
    power is formed.
    """
    even, odd = totals[0::2], totals[1::2]
    if x * x != 1:
        even, odd = (map(mul, side, accumulate(repeat(x * x), mul, initial=1)) for side in (even, odd))
    return Fraction(sum(even), den), Fraction(x * sum(odd), den)


def partition_sum(m: int, weight: Weight) -> Fraction:
    """sum over partitions y of m of prod_{i=1}^{m} weight(i, y_i): the oracle.

    A zero multiplicity is a factor too: weight(i, 0) is 1 for the usual
    weights and 0 where a missing part must remove the term. Each weight(i, k),
    k <= m // i, is evaluated once and read as a rational (a Fraction, an int
    or a "num/den" string; a float or a bool raises ValueError). Each of the
    p(m) terms is formed and added one partition at a time, zero or not, in
    integers over one common denominator; production code uses
    :func:`newton_coefficients` where it applies. Orders above
    PARTITION_LIST_MAX_M are refused with ValueError.
    """
    rows, den = _read_rows(m, weight)
    return Fraction(sum(_walk_rows(rows)), den)


def parity_partition_sums(m: int, weight: Weight) -> tuple[Fraction, Fraction]:
    """The paper's partition formula, split by parity.

    Returns (even, odd): the sums over partitions y of m with an even (odd)
    number of parts, sum(y), of prod_{i=1}^{m} weight(i, y_i); the weight
    conventions are those of :func:`partition_sum`.
    """
    rows, den = _read_rows(m, weight)
    return _class_sums(_walk_rows(rows), den, 1)


def newton_coefficients(p: Sequence[RationalLike], m: int) -> list[Fraction | int]:
    """c_0..c_m of exp(sum_i p_i t^i / i), by Newton's recurrence.

    c_0 = 1 and k c_k = sum_{i=1}^{k} p_i c_{k-i}: O(m^2) exact steps. c_k is
    the partition sum over y of k of prod_i (p_i / i)^(y_i) / y_i!, the
    weight :func:`partition_sum` evaluates term by term (Macdonald,
    Symmetric Functions and Hall Polynomials, ch. I, eqs. 2.11 and 2.14').
    Uses p_1..p_m; extra trailing values are ignored.

    Inputs are read as rationals (a float or a bool raises ValueError, and
    so does a str, a set or a dict in place of the sequence), and
    Fraction inputs give Fractions. Integer inputs stay integers and no
    Fraction is built per step while k divides the dot product, as it does
    at every step when the p_i are signed power sums (-1)^(i-1) T_i of some
    integers: then c_k is their elementary symmetric function e_k, an
    integer. A remainder is never truncated: that c_k becomes the exact
    Fraction, and every step after it is rational.

    A rational step reads p_i = a_i / b_i and c_j = u_j / v_j in lowest
    terms and forms k c_k as the integer sum of a_i u_{k-i} L / (b_i v_{k-i})
    over the lcm L of the b_i v_{k-i}: one lcm and one gcd, in the one
    Fraction it builds for c_k, against a gcd per multiply and add of a
    Fraction dot product.
    """
    _check_newton(m, len(p))
    return _newton(_rationals("p", p, _as_exact, m))


def _check_newton(m: int, count: int) -> None:
    """Refuses an order that is not an integer >= 0, or fewer than m values."""
    if count < _integer("m", m):
        raise ValueError(f"need at least {_int_text(m)} values, got {count}")


def _newton(p: list[Fraction | int]) -> list[Fraction | int]:
    """newton_coefficients on m = len(p) values already read, each an int or a Fraction."""
    m = len(p)
    coeffs: list[Fraction | int] = [Fraction(1)]
    for k in range(1, m + 1):  # integer steps, up to the first Fraction input or remainder
        acc = p[k - 1]  # p_k c_0, so c_0 = Fraction(1) leaves integer inputs integers
        for i in range(k - 1):
            acc += p[i] * coeffs[k - 1 - i]
        if isinstance(acc, int) and not acc % k:
            coeffs.append(acc // k)
        else:
            coeffs.append(Fraction(acc, k))
            break
    if len(coeffs) > m:
        return coeffs
    # rational steps, each over the lcm of its term denominators
    nums = [v.numerator for v in p]
    dens = [v.denominator for v in p]
    cnums = [c.numerator for c in coeffs]
    cdens = [c.denominator for c in coeffs]
    for k in range(len(coeffs), m + 1):
        # p_1..p_k against c_{k-1}..c_0
        scales = [b * v for b, v in zip(dens[:k], cdens[k - 1 :: -1])]
        common = lcm(*scales)
        acc = sum(a * u * (common // s) for a, u, s in zip(nums, cnums[k - 1 :: -1], scales))
        c = Fraction(acc, k * common)
        coeffs.append(c)
        cnums.append(c.numerator)
        cdens.append(c.denominator)
    return coeffs


# p(0), p(1), ...: a call past the end extends a copy and publishes it by one
# assignment, never the shared list in place, so concurrent callers each read
# a list whose every entry was computed from its own predecessors.
_pcounts = [1]


def partition_count(m: int) -> int:
    """p(m) via Euler's pentagonal-number recurrence (no enumeration).

    The values p(0..m) are kept for later calls. Orders above
    PARTITION_COUNT_MAX_M are refused with ValueError before any is computed.
    """
    global _pcounts
    if _integer("m", m) > PARTITION_COUNT_MAX_M:
        raise ValueError(f"m={_int_text(m)} exceeds the partition count cap {PARTITION_COUNT_MAX_M}")
    counts = _pcounts
    if len(counts) <= m:
        counts = list(counts)
        while len(counts) <= m:
            n = len(counts)
            total = 0
            k = 1
            while True:
                g1 = k * (3 * k - 1) // 2
                if g1 > n:
                    break
                sign = 1 if k % 2 else -1
                total += sign * counts[n - g1]
                g2 = k * (3 * k + 1) // 2
                if g2 <= n:
                    total += sign * counts[n - g2]
                k += 1
            counts.append(total)
        _pcounts = counts
    return counts[m]


def enumerate_set_partitions(m: int) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """All Bell(m) set partitions of {1, ..., m}, 1 <= m <= 8, as block tuples in canonical order."""
    if not _is_int(m) or not 1 <= m <= SET_PARTITION_MAX_M:
        raise ValueError(f"m must be in [1, {SET_PARTITION_MAX_M}]")
    partitions: list[list[list[int]]] = [[[1]]]
    for element in range(2, m + 1):
        grown: list[list[list[int]]] = []
        for blocks in partitions:
            for i in range(len(blocks)):
                grown.append([b + [element] if j == i else list(b) for j, b in enumerate(blocks)])
            grown.append([list(b) for b in blocks] + [[element]])
        partitions = grown
    # Elements are added in increasing order, so each block is already ascending.
    canonical = (tuple(sorted(map(tuple, blocks), key=lambda b: (len(b), b))) for blocks in partitions)
    return tuple(sorted(canonical))
