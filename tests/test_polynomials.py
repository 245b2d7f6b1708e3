import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from multisums.core import ExplicitSequence, IndexPower
from multisums.polynomials import (
    Polynomial,
    coeff_ratio_from_roots,
    eval_factored_sum,
    generalized_binomial,
    mean_root_ratio,
    poly_derivative,
    poly_from_roots,
    sum_of_multiple_sums,
)


def test_poly_from_roots_expansion():
    poly = poly_from_roots([1, 2, 3])
    assert poly.coeffs == (Fraction(-6), Fraction(11), Fraction(-6), Fraction(1))
    assert poly.degree == 3
    assert poly_from_roots([]).coeffs == (Fraction(1),)
    assert poly_from_roots(["1/2", Fraction(-1, 2)]).coeffs == (Fraction(-1, 4), Fraction(0), Fraction(1))


def test_polynomial_trailing_zeros_and_degree():
    assert Polynomial((1, 2, 0, 0)).coeffs == (Fraction(1), Fraction(2))
    assert Polynomial((0,)).degree == 0
    assert Polynomial((3, 0, 2)).coeffs == (3, 0, 2)


def test_coeff_ratio_matches_expanded_coefficients():
    roots = [Fraction(1), Fraction(2), Fraction(3)]
    assert coeff_ratio_from_roots(roots, 0) == 1
    assert coeff_ratio_from_roots(roots, 1) == -6
    assert coeff_ratio_from_roots(roots, 2) == 11
    assert coeff_ratio_from_roots(roots, 3) == -6
    with pytest.raises(ValueError):
        coeff_ratio_from_roots(roots, 4)


def test_mean_root_ratio_invariance():
    poly = poly_from_roots([1, 2, 3])
    assert mean_root_ratio(poly) == 2
    assert mean_root_ratio(poly_derivative(poly)) == 2
    assert mean_root_ratio(poly_derivative(poly, 2)) == 2
    assert mean_root_ratio(Polynomial((0, 0, 1))) == 0  # x^2
    with pytest.raises(ValueError):
        mean_root_ratio(Polynomial((5,)))


def test_poly_derivative_orders():
    poly = Polynomial((1, 1, 1, 1))
    assert poly_derivative(poly, 0) == poly
    assert poly_derivative(poly).coeffs == (Fraction(1), Fraction(2), Fraction(3))
    assert poly_derivative(poly, 3).coeffs == (Fraction(6),)
    assert poly_derivative(poly, 9).coeffs == (Fraction(0),)
    with pytest.raises(ValueError):
        poly_derivative(poly, -1)


def test_eval_factored_sum_frozen():
    assert eval_factored_sum([1, 2, 3], Fraction(1)) == (0, 0)
    assert eval_factored_sum([1, 2, 3], Fraction(-1)) == (-24, -24)
    assert eval_factored_sum([2], Fraction(5)) == (3, 3)


def test_sum_of_multiple_sums_factorial_case():
    index = IndexPower(1)
    # summing every order of the window [1, n] of a_N = N gives (n+1)!
    for n in range(9):
        assert sum_of_multiple_sums(index, 1, n) == math.factorial(n + 1)
    seq = ExplicitSequence([Fraction(1, 2), Fraction(3)], base=1)
    assert sum_of_multiple_sums(seq, 1, 2) == Fraction(3, 2) * 4


def test_generalized_binomial_cases():
    direct, rebuilt = generalized_binomial([1, 2, 3], [1, 1, 1])
    assert direct == rebuilt == 24
    direct, rebuilt = generalized_binomial([1, 1, 1], [1, 1, 1])
    assert direct == rebuilt == 8
    direct, rebuilt = generalized_binomial(
        [Fraction(1, 2), Fraction(-2, 3)], [Fraction(3), Fraction(1, 5)]
    )
    assert direct == rebuilt
    with pytest.raises(ValueError):
        generalized_binomial([1, 2], [1])
    with pytest.raises(ValueError):
        generalized_binomial([1], [0])


# 0-12 roots with numerators -9..9 and denominators 1..9: repeats, zeros and integers included
_ROOTS = st.lists(st.builds(Fraction, st.integers(-9, 9), st.integers(1, 9)), max_size=12)


def _schoolbook_from_roots(roots):
    # the reference expansion: one Fraction product per coefficient and root
    coeffs = [Fraction(1)]
    for r in roots:
        grown = [Fraction(0)] * (len(coeffs) + 1)
        for i, c in enumerate(coeffs):
            grown[i] -= r * c
            grown[i + 1] += c
        coeffs = grown
    return Polynomial(coeffs)


def _first_derivative(poly):
    return Polynomial([i * c for i, c in enumerate(poly.coeffs)][1:])


@settings(deadline=None)  # the first example imports sympy
@given(_ROOTS)
@example([Fraction(1, 3), Fraction(1, 3), Fraction(0), Fraction(-4), Fraction(6, 3), Fraction(-7, 9)])
def test_poly_from_roots_matches_sympy_and_the_schoolbook_loop(roots):
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    expanded = sympy.Poly(sympy.expand(sympy.Mul(*[x - sympy.Rational(r.numerator, r.denominator) for r in roots])), x)
    expected = tuple(Fraction(int(c.p), int(c.q)) for c in reversed(expanded.all_coeffs()))
    poly = poly_from_roots(roots)
    assert poly.coeffs == expected
    assert poly == _schoolbook_from_roots(roots)
    assert all(type(c) is Fraction for c in poly.coeffs)


@given(_ROOTS)
def test_poly_derivative_is_k_first_derivatives(roots):
    poly = poly_from_roots(roots)
    repeated = poly
    for k in range(poly.degree + 3):
        assert poly_derivative(poly, k) == repeated
        repeated = _first_derivative(repeated)


@given(_ROOTS, st.one_of(st.just(Fraction(0)), st.builds(Fraction, st.integers(-9, 9), st.integers(1, 9))))
def test_eval_factored_sum_rhs_matches_the_fraction_loop(roots, x):
    rhs = Fraction(1)
    for r in roots:
        rhs *= r - x
    if len(roots) % 2:
        rhs = -rhs
    assert eval_factored_sum(roots, x) == (rhs, rhs)


def test_eval_factored_sum_edges():
    assert eval_factored_sum([], 0) == (1, 1)
    assert eval_factored_sum([], "7/3") == (1, 1)
    # x = 0 leaves (-1)^n e_n = prod (-r) on both sides
    assert eval_factored_sum(["1/2", -3, "2/5"], 0) == (Fraction(3, 5), Fraction(3, 5))
    assert eval_factored_sum([0, 4], 0) == (0, 0)


@given(_ROOTS, st.data())
def test_generalized_binomial_direct_matches_the_fraction_loop(a, data):
    nonzero = st.builds(Fraction, st.integers(-9, 9).filter(bool), st.integers(1, 9))
    b = data.draw(st.lists(nonzero, min_size=len(a), max_size=len(a)))
    direct = Fraction(1)
    for x, y in zip(a, b):
        direct *= x + y
    assert generalized_binomial(a, b) == (direct, direct)
