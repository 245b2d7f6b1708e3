import math
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given
from hypothesis import strategies as st

from multisums import exact_arith
from multisums.exact_arith import (
    NUMERIC_MAX_DIGITS,
    PiPolynomial,
    bernoulli,
    pi_poly_numeric,
    rational_from_str,
    rational_to_str,
    stirling_first_unsigned,
)
from multisums.core import ExplicitSequence
from multisums.polynomials import (
    Polynomial,
    coeff_ratio_from_roots,
    eval_factored_sum,
    generalized_binomial,
    poly_from_roots,
)
from multisums.special_sums import mzv_even_reduced

rationals = st.fractions(min_value=-(10**6), max_value=10**6, max_denominator=10**6)


def test_bernoulli_values():
    assert bernoulli(0) == 1
    assert bernoulli(1) == Fraction(-1, 2)
    assert bernoulli(2) == Fraction(1, 6)
    assert bernoulli(12) == Fraction(-691, 2730)
    for j in range(3, 50, 2):
        assert bernoulli(j) == 0


def _fraction_bernoulli(top: int) -> list[Fraction]:
    """B_0..B_top from sum_{k=0}^{j} C(j+1, k) B_k = 0, in Fractions: the recurrence
    the package used before its tangent-number table, kept as an oracle."""
    values = [Fraction(1)]
    for j in range(1, top + 1):
        total = sum((math.comb(j + 1, k) * b for k, b in enumerate(values)), Fraction(0))
        values.append(-total / (j + 1))
    return values


def test_bernoulli_matches_fraction_recurrence(monkeypatch):
    monkeypatch.setattr(exact_arith, "_zigzag", ((1,), [1]))  # built from a cold table
    expected = _fraction_bernoulli(300)
    assert [bernoulli(j) for j in range(301)] == expected
    assert [bernoulli(j) for j in range(300, -1, -1)] == expected[::-1]  # read back from the table


def test_bernoulli_matches_sympy_past_the_acceptance_ranges():
    sympy = pytest.importorskip("sympy")
    # sympy 1.14 reads B_1 = +1/2, so the comparison starts at j = 2
    for j in (2, 51, 302, 601, 998, 1500, 2000):
        expected = sympy.bernoulli(j)
        assert bernoulli(j) == Fraction(int(expected.p), int(expected.q)), j


def test_bernoulli_table_speed(monkeypatch):
    # every even B_j up to B_800 from a cold table; the Fraction recurrence took seconds
    monkeypatch.setattr(exact_arith, "_zigzag", ((1,), [1]))
    started = time.perf_counter()
    bernoulli(800)
    assert time.perf_counter() - started < 2.0
    assert len(exact_arith._zigzag[0]) == 800  # E_0..E_799: the tangent number T_400 is E_799


def test_bernoulli_table_grows_consistently_under_threads(monkeypatch):
    # selftest --jobs runs criteria in threads. Callers race to extend a cold
    # table; each must read a table and a row that belong together, or the
    # numbers it appends land at the wrong index
    monkeypatch.setattr(exact_arith, "_zigzag", ((1,), [1]))
    orders = [2 * k for k in range(150, 0, -7)] * 4
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            futures = [pool.submit(bernoulli, j) for j in orders]
            values = [future.result(timeout=60) for future in futures]
    finally:
        sys.setswitchinterval(interval)
    expected = _fraction_bernoulli(300)
    assert values == [expected[j] for j in orders]
    table, row = exact_arith._zigzag
    assert len(row) == len(table) and row[-1] == table[-1]


def test_stirling_first_values():
    assert stirling_first_unsigned(0, 0) == 1
    assert stirling_first_unsigned(5, 2) == 50
    assert stirling_first_unsigned(4, 2) == 11
    assert stirling_first_unsigned(6, 6) == 1
    assert stirling_first_unsigned(3, 0) == 0
    assert stirling_first_unsigned(2, 5) == 0
    assert stirling_first_unsigned(2, -1) == 0


def test_stirling_matches_rising_factorial_coefficients():
    # x(x+1)...(x+m-1) expanded; coefficient of x^r is the unsigned number
    for m in range(9):
        poly = poly_from_roots([Fraction(-j) for j in range(m)])
        for r in range(m + 1):
            assert poly.coeffs[r] == stirling_first_unsigned(m, r)


def test_stirling_triangular_recurrence():
    # [m+1, r] = m [m, r] + [m, r-1] across the whole triangle
    for m in range(13):
        for r in range(m + 2):
            lhs = stirling_first_unsigned(m + 1, r)
            rhs = m * stirling_first_unsigned(m, r) + stirling_first_unsigned(m, r - 1)
            assert lhs == rhs


def test_stirling_matches_sympy_past_the_acceptance_ranges():
    numbers = pytest.importorskip("sympy.functions.combinatorial.numbers")
    # every row up to m = 60, read from the top down, so each row below the first is rebuilt from row 0
    for m in range(60, -1, -1):
        row = [stirling_first_unsigned(m, r) for r in range(m + 1)]
        assert row == [numbers.stirling(m, r, kind=1, signed=False) for r in range(m + 1)], m


def test_stirling_high_row_from_cold_cache(monkeypatch):
    # Row 1200 lies far past the interpreter's recursion limit; it is built bottom-up from row 0.
    monkeypatch.setattr(exact_arith, "_stirling_row", (1,))
    row = [stirling_first_unsigned(1200, r) for r in range(1201)]
    assert sum(v if r % 2 == 0 else -v for r, v in enumerate(row)) == 0
    assert sum(row) == factorial(1200)


def test_stirling_row_under_threads(monkeypatch):
    # 4 threads on a cold row, orders rising and falling, so callers race to
    # continue the kept row and to restart it; each must build on a whole row
    orders = [m for k in range(4) for m in (range(3, 240, 9) if k % 2 else range(240, 0, -11))]
    monkeypatch.setattr(exact_arith, "_stirling_row", (1,))
    expected = [stirling_first_unsigned(m, m // 3) for m in orders]  # one thread
    monkeypatch.setattr(exact_arith, "_stirling_row", (1,))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            values = list(pool.map(lambda m: stirling_first_unsigned(m, m // 3), orders, timeout=60))
    finally:
        sys.setswitchinterval(interval)
    assert values == expected
    row = exact_arith._stirling_row
    assert sum(row) == factorial(len(row) - 1)


@given(rationals, rationals, rationals)
def test_rational_field_laws(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a + b == b + a
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c


def test_rational_strings():
    assert rational_to_str(Fraction(7)) == "7/1"
    assert rational_to_str(Fraction(-3, 4)) == "-3/4"
    assert rational_from_str("35/1") == 35
    assert rational_from_str("-3/4") == Fraction(-3, 4)
    assert rational_from_str("5") == 5
    value = Fraction(-3, 4)
    assert exact_arith._as_rational(value) is value  # taken as it is, not copied


@pytest.mark.parametrize("text", ["0.1", "1e3", "nan", "1/2/3", "", "3/", "1/0"])
def test_rational_strings_outside_the_grammar_are_refused(text):
    with pytest.raises(ValueError, match="num/den"):
        rational_from_str(text)


@given(rationals)
def test_rational_string_round_trip(value):
    assert rational_from_str(rational_to_str(value)) == value


def test_pi_polynomial_basics():
    zero = PiPolynomial()
    assert not zero.coefficient
    assert PiPolynomial(4, 0) == zero  # a zero coefficient sets the exponent to 0
    p = PiPolynomial(2, Fraction(1, 6))
    assert p.exponent == 2 and p.coefficient == Fraction(1, 6)
    assert PiPolynomial(2, "1/6") == p
    assert p.terms == {2: Fraction(1, 6)}
    assert zero.terms == {}
    assert p * 6 == 6 * p == PiPolynomial(2, 1)
    assert p * 0 == zero
    with pytest.raises(ValueError):
        PiPolynomial(-2, 1)
    for exponent in (True, 2.0, "2"):
        with pytest.raises(ValueError, match="pi exponent"):
            PiPolynomial(exponent, 1)


def test_pi_poly_numeric_display():
    assert pi_poly_numeric(PiPolynomial(), 5) == "0"
    assert pi_poly_numeric(PiPolynomial(2, Fraction(1, 6)), 6) == "1.64493"
    # plain rational part renders without pi involvement
    assert pi_poly_numeric(PiPolynomial(0, Fraction(1, 4)), 3) == "0.25"
    assert pi_poly_numeric(PiPolynomial(0, 1), 5) == "1.0"
    assert pi_poly_numeric(PiPolynomial(0, 123456), 3) == "123000.0"
    assert pi_poly_numeric(PiPolynomial(0, Fraction(-1, 3)), 4) == "-0.3333"
    assert pi_poly_numeric(PiPolynomial(0, Fraction(1, 10**7)), 2) == "0.0000001"
    # exact decimal ties round half to even
    assert pi_poly_numeric(PiPolynomial(0, Fraction(3, 20)), 1) == "0.2"
    assert pi_poly_numeric(PiPolynomial(0, Fraction(1, 8)), 2) == "0.12"
    for digits in (0, NUMERIC_MAX_DIGITS + 1):
        with pytest.raises(ValueError):
            pi_poly_numeric(PiPolynomial(0, 1), digits)


def _mpmath_numeric(value: PiPolynomial, digits: int) -> str:
    # The renderer this package used to carry, kept as an independent oracle.
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(digits + 25):
        coeff = value.coefficient
        total = mpmath.mpf(coeff.numerator) / coeff.denominator * mpmath.pi ** value.exponent
        return mpmath.nstr(total, digits, min_fixed=-mpmath.inf, max_fixed=mpmath.inf)


def test_pi_poly_numeric_matches_mpmath_on_zeta_values():
    for m in range(9):
        for p in (1, 2, 3):
            value = mzv_even_reduced(m, p)
            for digits in range(1, 41):
                assert pi_poly_numeric(value, digits) == _mpmath_numeric(value, digits), (m, p, digits)


@given(
    st.fractions(min_value=-(10**9), max_value=10**9, max_denominator=10**9).filter(bool),
    st.integers(min_value=1, max_value=60),
    st.integers(min_value=1, max_value=60),
)
def test_pi_poly_numeric_matches_mpmath_on_monomials(coeff, exponent, digits):
    value = PiPolynomial(exponent, coeff)
    assert pi_poly_numeric(value, digits) == _mpmath_numeric(value, digits)


def test_pi_poly_json_round_trip():
    assert PiPolynomial(8, Fraction(-3, 7)).to_json_dict() == {"8": "-3/7"}
    assert PiPolynomial(0, 2).to_json_dict() == {"0": "2/1"}
    assert PiPolynomial().to_json_dict() == {}


@pytest.mark.parametrize("entry", [
    lambda v: ExplicitSequence((v,)),
    lambda v: PiPolynomial(2, v),
    lambda v: Polynomial((1, v)),
    lambda v: poly_from_roots([v]),
    lambda v: coeff_ratio_from_roots([v, 2], 1),
    lambda v: generalized_binomial([Fraction(1, 2)], [v]),
    lambda v: eval_factored_sum([v], 3),
    lambda v: eval_factored_sum([1], v),
    lambda v: rational_to_str(v),
], ids=["ExplicitSequence", "PiPolynomial", "Polynomial", "poly_from_roots", "coeff_ratio_from_roots",
        "generalized_binomial", "eval_factored_sum_roots", "eval_factored_sum_x", "rational_to_str"])
def test_floats_and_bools_are_refused(entry):
    # 0.1 would otherwise become 3602879701896397/36028797018963968, and True would read 1
    for value in (0.1, 0.5, True):
        with pytest.raises(ValueError):
            entry(value)
    entry(Fraction(1, 10))
    entry(1)
    entry("1/10")
