"""Exact power-sum formulas and even-argument zeta machinery.

Power sums of integers come from the Bernoulli closed form; multiple power
sums reuse the reduction from :mod:`multisums.core`. Even zeta values are
exact single terms c pi^e (:class:`PiPolynomial`, the record of e and c),
and so is every depth reduction of repeated even arguments: each term of its
partition sum carries the same power of pi, so the sum runs over rational
coefficients alone. That
rational sum is the Bernoulli weight sum :func:`bernoulli_partition_sum`
scaled by ((-1)^(p+1) 4^p)^m, so both are one partition sum, evaluated by
Newton's recurrence, :func:`multisums.partitions.newton_coefficients`; the
term-by-term partition formula over zeta values is its oracle in the tests
and the acceptance suite.
The exponent-4 and exponent-6 closed forms are classical evaluations,
implemented exactly and exercised against the partition route.

Only :func:`mzv_limit_trend` touches floating point, and only to display a
convergence trend; it never feeds a verdict.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from typing import Sequence

from .core import IndexPower, elementary_from_power_sums
from .exact_arith import PiPolynomial, _int_text, bernoulli
from .partitions import newton_coefficients
from .polynomials import sum_of_multiple_sums

__all__ = [
    "faulhaber",
    "multiple_power_sum",
    "stirling_via_multiple_sum",
    "zeta_even",
    "mzv_even_reduced",
    "mzv_closed_form",
    "bernoulli_partition_sum",
    "mzv_partial_identity",
    "mzv_limit_trend",
    "load_zeta_golden_table",
    "MZV_PARTIAL_MAX_N",
    "BERNOULLI_MAX_INDEX",
]

MZV_PARTIAL_MAX_N = 60  # n^2 Newton steps on power sums of N^-p, rationals of thousands of bits
# Largest index j of the B_j one call here requests: p for faulhaber, mp for
# multiple_power_sum, 2mp for bernoulli_partition_sum and mzv_even_reduced.
# The dearest call it admits, mzv_even_reduced(256, 1), takes about 0.6 s in
# process and 0.8 s as `special mzv --m 256 --p 1` on a 2-vCPU VM, nearly all
# in Newton's recurrence on rationals of many thousand bits; faulhaber(10, 512)
# takes 0.03 s.
BERNOULLI_MAX_INDEX = 512


def _check_bernoulli_index(j: int, **inputs: int) -> None:
    """Refuses a call that needs B_j past BERNOULLI_MAX_INDEX, before the tangent table grows.

    The message names the call's inputs, given by keyword in their order.
    """
    if j > BERNOULLI_MAX_INDEX:
        what = ", ".join(f"{name}={_int_text(value)}" for name, value in inputs.items())
        raise ValueError(f"{what} needs B_{_int_text(j)}, past the Bernoulli index cap {BERNOULLI_MAX_INDEX}")


def faulhaber(n: int, p: int) -> Fraction:
    """sum_{N=1}^{n} N**p, closed form with Bernoulli numbers (B_1 = -1/2).

    (1/(p+1)) sum_{j=0}^{p} (-1)^j C(p+1, j) B_j n^(p+1-j), on integers:
    B_0..B_p over the lcm D of their denominators, the sum evaluated by
    Horner in n, and the one Fraction total n / (D (p+1)). p above
    BERNOULLI_MAX_INDEX is refused with ValueError.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if p < 0:
        raise ValueError("p must be >= 0")
    _check_bernoulli_index(p, p=p)
    numbers = [bernoulli(j) for j in range(p + 1)]
    den = math.lcm(*(b.denominator for b in numbers))
    total, binomial = 0, 1  # binomial = C(p+1, j)
    for j, b in enumerate(numbers):
        term = binomial * b.numerator * (den // b.denominator)
        total = total * n + (-term if j % 2 else term)
        binomial = binomial * (p + 1 - j) // (j + 1)
    return Fraction(total * n, den * (p + 1))


def multiple_power_sum(m: int, n: int, p: int) -> Fraction:
    """The order-m multiple sum of N**p over [1, n], via the reduction.

    S_i = faulhaber(n, i p), an integer, feeds the integer reduction at
    scale 1 (e_m of the integers N^p); no tuples are enumerated.
    Requires 0 <= m <= n and m p <= BERNOULLI_MAX_INDEX.
    """
    if m < 0:
        raise ValueError("m must be >= 0")
    if n < m:
        raise ValueError("need n >= m")
    if p < 0:
        raise ValueError("p must be >= 0")
    _check_bernoulli_index(m * p, m=m, p=p)
    return Fraction(elementary_from_power_sums([faulhaber(n, i * p).numerator for i in range(1, m + 1)], m)[m])


def stirling_via_multiple_sum(m: int, n: int) -> int:
    """[n+1, n+1-m] computed as the order-m multiple sum of N over [1, n].

    Cross-route for the recurrence table; always an exact integer.
    """
    if not 0 <= m <= n:
        raise ValueError("need 0 <= m <= n")
    value = multiple_power_sum(m, n, 1)
    if value.denominator != 1:
        raise AssertionError("multiple sum of integers must be an integer")
    return value.numerator


def zeta_even(p: int) -> PiPolynomial:
    """zeta(2p) as an exact rational multiple of pi**(2p).

    (-1)^(p+1) (2 pi)^(2p) B_{2p} / (2 (2p)!).
    """
    if p < 1:
        raise ValueError("p must be >= 1")
    coeff = Fraction(2) ** (2 * p) * bernoulli(2 * p) / (2 * math.factorial(2 * p))
    if p % 2 == 0:
        coeff = -coeff
    return PiPolynomial(2 * p, coeff)


def mzv_even_reduced(m: int, p: int) -> PiPolynomial:
    """Depth-m repeated even zeta value zeta(2p, ..., 2p), by reduction.

    (-1)^m sum over partitions y of m of
      prod_i [(-1)^(y_i) / (y_i! i^(y_i))] zeta(2 i p)^(y_i)

    Each zeta(2ip) is the single monomial z_i pi^(2ip), so the sum is
    c pi^(2pm) with c the order-m coefficient of exp(sum_i (-1)^(i-1) z_i t^i / i).
    That input is lam^i B_{2ip} / (2 (2ip)!) with lam = (-1)^(p+1) 4^p, and
    scaling the i-th input by lam^i scales the order-m coefficient by lam^m,
    so c = lam^m bernoulli_partition_sum(m, p).
    """
    c = bernoulli_partition_sum(m, p)  # refuses m < 0, p < 1 and 2mp > BERNOULLI_MAX_INDEX
    lam = 4**p if p % 2 else -(4**p)
    return PiPolynomial(2 * p * m, c * lam**m)


def mzv_closed_form(m: int, p: int) -> PiPolynomial:
    """Closed forms for the depth-m repeated even zeta values, p in {1, 2, 3}.

    p=1: pi^(2m) / (2m+1)!
    p=2: 2 * 2^(2m) * pi^(4m) / (4m+2)!
    p=3: 6 * (2 pi)^(6m) / (6m+3)!
    """
    if m < 0:
        raise ValueError("m must be >= 0")
    if p == 1:
        return PiPolynomial(2 * m, Fraction(1, math.factorial(2 * m + 1)))
    if p == 2:
        return PiPolynomial(4 * m, Fraction(2 * 2 ** (2 * m), math.factorial(4 * m + 2)))
    if p == 3:
        return PiPolynomial(6 * m, Fraction(6 * 2 ** (6 * m), math.factorial(6 * m + 3)))
    raise ValueError("closed form available for p in {1, 2, 3} only")


def bernoulli_partition_sum(m: int, p: int) -> Fraction:
    """Partition-weighted Bernoulli products.

    sum over partitions y of m of prod_i (1/y_i!) (B_{2ip} / ((2i) (2ip)!))^(y_i),
    evaluated by newton_coefficients fed B_{2ip} / (2 (2ip)!) for i = 1..m.
    Collapses to 1/(2^(2m) (2m+1)!) at p=1, 2 (-1)^m / (2^(2m) (4m+2)!) at
    p=2, and 6/(6m+3)! at p=3; callers check those forms. 2mp above
    BERNOULLI_MAX_INDEX is refused with ValueError.
    """
    if m < 0:
        raise ValueError("m must be >= 0")
    if p < 1:
        raise ValueError("p must be >= 1")
    _check_bernoulli_index(2 * m * p, m=m, p=p)
    weights = [bernoulli(2 * i * p) / (2 * math.factorial(2 * i * p)) for i in range(1, m + 1)]
    return newton_coefficients(weights, m)[m]


def mzv_partial_identity(n: int, p: int) -> tuple[Fraction, Fraction]:
    """Both sides of the finite product identity for partial zeta sums.

    lhs = sum over m = 0..n of the order-m multiple sum of N**(-p) on [1, n],
    all orders from one Newton pass over the power sums
    (sum_of_multiple_sums, O(n^2) exact steps, no tuples); rhs =
    prod_{N=1}^{n} (1 + N**(-p)), multiplied out directly as the one
    Fraction prod (N^p + 1) / prod N^p. Exact rationals; equality is the
    caller's check.
    """
    if not 1 <= n <= MZV_PARTIAL_MAX_N:
        raise ValueError(f"n must be in [1, {MZV_PARTIAL_MAX_N}]")
    if p < 1:
        raise ValueError("p must be >= 1")
    lhs = sum_of_multiple_sums(IndexPower(-p), 1, n)
    powers = [N**p for N in range(1, n + 1)]
    return lhs, Fraction(math.prod(power + 1 for power in powers), math.prod(powers))


def mzv_limit_trend(exponents: Sequence[int], n: int) -> list[str]:
    """|prod_{N=1}^{n} (1 + N**(-p)) - 2| per exponent, as decimal strings.

    Floating point by design (denominators explode otherwise); trend
    display only. Computed stably as 2 |expm1(sum log1p(N**-p))| over
    N >= 2, since the N = 1 factor is exactly 2.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    out = []
    for p in exponents:
        if p < 2:
            raise ValueError("exponents below 2 have no finite product limit")
        log_tail = 0.0
        for N in range(2, n + 1):
            log_tail += math.log1p(float(N) ** (-p))
        gap = 2.0 * abs(math.expm1(log_tail))
        out.append(repr(gap))
    return out


def load_zeta_golden_table() -> dict[int, Fraction]:
    """The shipped zeta(2)..zeta(16) coefficient table (argument -> rational).

    Read from the packaged data file, independent of zeta_even's formula,
    so the two can check each other.
    """
    from importlib import resources  # here, not at the top: it loads pathlib, zipfile and tempfile

    text = resources.files("multisums").joinpath("data/zeta_even.json").read_text(encoding="utf-8")
    raw = json.loads(text)
    return {int(arg): Fraction(coeff) for arg, coeff in raw.items()}
