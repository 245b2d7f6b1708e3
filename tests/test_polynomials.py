import math
from fractions import Fraction

import pytest

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
