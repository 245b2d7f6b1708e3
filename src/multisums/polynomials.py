"""Dense univariate polynomials over exact rationals, and root identities.

Coefficients are stored ascending: coeffs[i] multiplies x**i. Trailing
zeros are stripped, so the leading coefficient is nonzero; the zero
polynomial keeps a single zero coefficient and has degree 0. Coefficients,
roots and points are Fractions, ints or strings; floats and bools raise
ValueError.

The expansions and direct products run on integers over one denominator
and build one Fraction per value: a product of roots p/q expands as the
integer product prod (q x - p) over prod q, by Viete's loop of
:mod:`multisums.exact_arith`, a derivative multiplies each
coefficient once by a falling factorial, and prod (r - x) and
prod (a_i + b_i) multiply integer numerators and denominators. The sides
checked against them read the elementary symmetric functions of the roots
from the integer reduction of :mod:`multisums.core`, as E_k / L^k.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Sequence

from .core import ExplicitSequence, SequenceSpec, _check_window, _scaled_elementary, _terms
from .exact_arith import RationalLike, _as_rational, _integer, _is_int, _rationals, _Record, _set, _viete

__all__ = [
    "Polynomial",
    "poly_from_roots",
    "coeff_ratio_from_roots",
    "poly_derivative",
    "mean_root_ratio",
    "eval_factored_sum",
    "sum_of_multiple_sums",
    "generalized_binomial",
]


class Polynomial(_Record):
    """coeffs[i] is the coefficient of x**i; the zero polynomial is (0,).

    ``coeffs`` is stored as a tuple of Fractions, trailing zeros dropped.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[RationalLike]) -> None:
        coeffs = _rationals("coeffs", coeffs)
        while len(coeffs) > 1 and coeffs[-1] == 0:
            coeffs.pop()
        if not coeffs:
            coeffs = [Fraction(0)]
        _set(self, "coeffs", tuple(coeffs))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1


def poly_from_roots(roots: Iterable[RationalLike]) -> Polynomial:
    """prod (x - r) expanded to dense coefficients.

    With each root r = p / q in lowest terms, prod (q x - p) is x^n times
    Viete's integer product prod (q - p t) of exact_arith, untruncated: its
    coefficient c_k of t^k is that of x^(n-k), and c_0 = prod q. Each is
    divided by c_0 at the end, one Fraction per coefficient.
    """
    coeffs = _viete((-r.numerator, r.denominator, 1) for r in _rationals("roots", roots))
    return Polynomial(Fraction(c, coeffs[0]) for c in reversed(coeffs))


def coeff_ratio_from_roots(roots: Sequence[RationalLike], m: int) -> Fraction:
    """a_{n-m} / a_n of the monic-or-not polynomial with these roots.

    Computed without expanding the polynomial, as the signed reduction of
    the root power sums, on integers over their scale L; equals
    (-1)^m e_m(roots) = (-1)^m E_m / L^m.
    """
    roots = _rationals("roots", roots)
    if not _is_int(m) or not 0 <= m <= len(roots):
        raise ValueError("m must be in [0, number of roots]")
    elementary, scale = _scaled_elementary(((r.numerator, r.denominator, 1) for r in roots), m)
    return Fraction(-elementary[m] if m % 2 else elementary[m], scale**m)


def poly_derivative(poly: Polynomial, k: int = 1) -> Polynomial:
    """k-th formal derivative; the zero polynomial once k exceeds the degree.

    One pass: coefficient i >= k times the falling factorial i!/(i-k)!
    becomes coefficient i - k.
    """
    k = _integer("derivative order", k)
    return Polynomial([c * math.perm(i, k) for i, c in enumerate(poly.coeffs[k:], start=k)])


def mean_root_ratio(poly: Polynomial) -> Fraction:
    """-a_{n-1} / (n a_n): the average of the roots of a degree-n polynomial.

    Invariant under differentiation, which callers verify.
    """
    n = poly.degree
    if n < 1:
        raise ValueError("mean root ratio needs degree >= 1")
    return -poly.coeffs[n - 1] / (n * poly.coeffs[n])


def eval_factored_sum(roots: Sequence[RationalLike], x: RationalLike) -> tuple[Fraction, Fraction]:
    """Both sides of the alternating expansion of a factored polynomial.

    lhs = sum_{m=0}^{n} (-1)^m x^(n-m) e_m(roots), with e_m = E_m / L^m from
    one reduction of the root power sums; rhs = (-1)^n prod (r - x). Equal
    for every x. With x = u / v, lhs is the integer
    sum_m E_m (-v)^m (u L)^(n-m), by Horner in u L, over (v L)^n, and rhs
    is (-1)^n prod (p v - u q) over prod q v for the roots p / q.
    """
    terms = [(r.numerator, r.denominator, 1) for r in _rationals("roots", roots)]
    x = _as_rational(x)
    u, v = x.numerator, x.denominator
    n = len(terms)
    elementary, scale = _scaled_elementary(terms, n)
    step, total, power = u * scale, 0, 1
    for e_m in elementary:
        total = total * step + e_m * power
        power *= -v
    lhs = Fraction(total, (v * scale) ** n)
    product = math.prod(p * v - u * q for p, q, _ in terms)
    rhs = Fraction(-product if n % 2 else product, math.prod(q * v for _, q, _ in terms))
    return lhs, rhs


def sum_of_multiple_sums(spec: SequenceSpec, q: int, n: int) -> Fraction:
    """Sum of the order-m multiple sums over every order m = 0 .. n-q+1.

    The order-m sum is e_m of the window's values, so all of them come from
    one Newton pass over the power sums S_1..S_top (O(top^2) integer steps,
    no tuples), which read each distinct value of the window once with its
    count: e_m = E_m / L^m over the window's scale L, and the total is
    the one Fraction (sum_m E_m L^(top-m)) / L^top. Telescopes to
    prod_{N=q}^{n} (a_N + 1); with a_N = N and q = 1 that is (n+1)!.
    Callers check the product form.
    """
    _check_window(0, q, n)  # the orders 0..top all follow from the window
    top = max(n - q + 1, 0)
    elementary, scale = _scaled_elementary(_terms(spec, q, n), top)
    total = 0
    for e_m in elementary:  # Horner in the scale
        total = total * scale + e_m
    return Fraction(total, scale**top)


def generalized_binomial(
    a_values: Sequence[RationalLike], b_values: Sequence[RationalLike]
) -> tuple[Fraction, Fraction]:
    """prod (a_i + b_i) two ways: directly, and via multiple sums of a_i/b_i.

    Returns (direct product, prod(b) * sum over all orders of the multiple
    sums of the ratio sequence). The b values must be nonzero.
    """
    a = _rationals("a_values", a_values)
    b = _rationals("b_values", b_values)
    if len(a) != len(b):
        raise ValueError("a and b must have the same length")
    if any(v == 0 for v in b):
        raise ValueError("b values must be nonzero")
    direct = Fraction(
        math.prod(x.numerator * y.denominator + y.numerator * x.denominator for x, y in zip(a, b)),
        math.prod(x.denominator * y.denominator for x, y in zip(a, b)),
    )
    ratios = ExplicitSequence(tuple(x / y for x, y in zip(a, b)), base=1)
    reconstructed = sum_of_multiple_sums(ratios, 1, len(a))
    for y in b:
        reconstructed *= y
    return direct, reconstructed
