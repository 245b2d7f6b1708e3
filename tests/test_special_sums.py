from fractions import Fraction
from math import factorial

import pytest

from multisums.core import IndexPower, SumProblem, brute_multiple_sum, reduce_multiple_sum
from multisums.exact_arith import PiPolynomial, bernoulli, stirling_first_unsigned
from multisums.partitions import partition_sum
from multisums.polynomials import sum_of_multiple_sums
from multisums import exact_arith
from multisums.special_sums import (
    BERNOULLI_MAX_INDEX,
    MZV_PARTIAL_MAX_N,
    bernoulli_partition_sum,
    faulhaber,
    load_zeta_golden_table,
    multiple_power_sum,
    mzv_closed_form,
    mzv_even_reduced,
    mzv_limit_trend,
    mzv_partial_identity,
    stirling_via_multiple_sum,
    zeta_even,
)


def test_faulhaber_values():
    assert faulhaber(4, 1) == 10
    assert faulhaber(3, 2) == 14
    assert faulhaber(10, 3) == 3025
    assert faulhaber(0, 5) == 0
    assert faulhaber(7, 0) == 7
    with pytest.raises(ValueError):
        faulhaber(-1, 2)
    with pytest.raises(ValueError):
        faulhaber(3, -1)


def test_faulhaber_matches_direct_sums():
    for p in range(7):
        running = Fraction(0)
        for n in range(31):
            if n:
                running += Fraction(n) ** p
            assert faulhaber(n, p) == running


def test_faulhaber_matches_sympy_past_the_acceptance_ranges():
    sympy = pytest.importorskip("sympy")
    k, n = sympy.symbols("k n", integer=True)
    for p in (41, 60, 77):
        closed = sympy.summation(k**p, (k, 1, n))  # sympy's own Bernoulli-polynomial form
        for value in (0, 1, 2, 37, 1000):
            expected = closed.subs(n, value)
            assert faulhaber(value, p) == Fraction(int(expected.p), int(expected.q)), (p, value)


def test_multiple_power_sum_matches_the_window_reduction():
    # Faulhaber sums at scale 1 against the window's power sums, both reduced on integers
    for m, n, p in ((12, 40, 3), (20, 25, 1), (7, 60, 5), (30, 30, 2)):
        assert multiple_power_sum(m, n, p) == reduce_multiple_sum(IndexPower(p), m, 1, n)


def test_multiple_power_sum_printed_values():
    assert multiple_power_sum(2, 4, 1) == 35
    assert multiple_power_sum(2, 3, 2) == 49
    assert multiple_power_sum(3, 4, 1) == 50
    assert multiple_power_sum(0, 4, 2) == 1
    with pytest.raises(ValueError):
        multiple_power_sum(5, 4, 1)


def test_multiple_power_sum_matches_brute():
    for p in range(4):
        spec = IndexPower(p)
        for n in range(9):
            for m in range(min(3, n) + 1):
                brute = brute_multiple_sum(SumProblem((spec,) * m, 1, n))
                assert multiple_power_sum(m, n, p) == brute


def test_stirling_bridge():
    assert stirling_via_multiple_sum(2, 3) == 11
    assert stirling_via_multiple_sum(3, 3) == 6
    for n in range(10):
        for m in range(n + 1):
            assert stirling_via_multiple_sum(m, n) == stirling_first_unsigned(n + 1, n + 1 - m)


def test_zeta_even_values():
    assert zeta_even(1) == PiPolynomial(2, Fraction(1, 6))
    assert zeta_even(2) == PiPolynomial(4, Fraction(1, 90))
    assert zeta_even(6) == PiPolynomial(12, Fraction(691, 638512875))
    assert zeta_even(7) == PiPolynomial(14, Fraction(2, 18243225))
    assert zeta_even(8) == PiPolynomial(16, Fraction(3617, 325641566250))
    with pytest.raises(ValueError):
        zeta_even(0)


def test_zeta_even_matches_sympy_past_the_golden_table():
    sympy = pytest.importorskip("sympy")
    for p in (9, 10, 17, 40, 63, 150, 300):
        coeff, power = sympy.zeta(2 * p).as_coeff_Mul()
        assert power == sympy.pi ** (2 * p)
        assert zeta_even(p) == PiPolynomial(2 * p, Fraction(int(coeff.p), int(coeff.q))), p


def test_zeta_golden_table_matches():
    golden = load_zeta_golden_table()
    assert sorted(golden) == [2, 4, 6, 8, 10, 12, 14, 16]
    for argument, coeff in golden.items():
        assert zeta_even(argument // 2) == PiPolynomial(argument, coeff)


def test_mzv_even_reduced_examples():
    assert mzv_even_reduced(0, 1) == PiPolynomial(0, 1)
    assert mzv_even_reduced(1, 1) == zeta_even(1)
    assert mzv_even_reduced(2, 1) == PiPolynomial(4, Fraction(1, 120))


@pytest.mark.parametrize("p,max_m", [(1, 6), (2, 4), (3, 3)])
def test_mzv_reduced_equals_closed_form(p, max_m):
    for m in range(max_m + 1):
        assert mzv_even_reduced(m, p) == mzv_closed_form(m, p)


@pytest.mark.parametrize("m,p", [(150, 1), (100, 2), (60, 3), (256, 1)])
def test_mzv_reduced_equals_closed_form_at_high_depth(m, p):
    # Bernoulli numbers up to B_512, the cap, from the tangent-number table
    assert mzv_even_reduced(m, p) == mzv_closed_form(m, p)


def test_mzv_closed_form_domain():
    assert mzv_closed_form(0, 2) == PiPolynomial(0, 1)
    with pytest.raises(ValueError):
        mzv_closed_form(2, 4)


def test_bernoulli_partition_sum_values():
    assert bernoulli_partition_sum(1, 1) == Fraction(1, 24)
    assert bernoulli_partition_sum(2, 1) == Fraction(1, 1920)
    assert bernoulli_partition_sum(1, 3) == Fraction(1, 60480)
    assert bernoulli_partition_sum(0, 2) == 1


def test_mzv_partial_identity_values():
    assert mzv_partial_identity(3, 1) == (4, 4)
    assert mzv_partial_identity(2, 2) == (Fraction(5, 2), Fraction(5, 2))
    for p in range(1, 4):
        assert mzv_partial_identity(1, p) == (2, 2)
    for p in range(1, 5):
        for n in range(1, 13):
            lhs, rhs = mzv_partial_identity(n, p)
            assert lhs == rhs
    # prod (1 + 1/N) telescopes to n + 1
    assert mzv_partial_identity(MZV_PARTIAL_MAX_N, 1) == (MZV_PARTIAL_MAX_N + 1, MZV_PARTIAL_MAX_N + 1)
    with pytest.raises(ValueError):
        mzv_partial_identity(MZV_PARTIAL_MAX_N + 1, 2)
    with pytest.raises(ValueError):
        mzv_partial_identity(0, 2)


def test_all_orders_sums_match_brute():
    # the Newton pass against the sum of brute-forced orders, 2^n tuples in all
    for p in range(1, 5):
        spec = IndexPower(-p)
        for q in (1, 2):
            for n in range(q - 1, 11):
                brute = sum(brute_multiple_sum(SumProblem((spec,) * m, q, n)) for m in range(n - q + 2))
                assert sum_of_multiple_sums(spec, q, n) == brute
                if q == 1 and n >= 1:
                    assert mzv_partial_identity(n, p)[0] == brute


def test_mzv_limit_trend():
    gaps = [float(g) for g in mzv_limit_trend([4, 6, 8], 1000)]
    assert gaps[0] > gaps[1] > gaps[2]
    assert all(float(g) == 0.0 for g in mzv_limit_trend([5, 9], 1))
    with pytest.raises(ValueError):
        mzv_limit_trend([1], 100)
    with pytest.raises(ValueError):
        mzv_limit_trend([4], 0)


@pytest.mark.parametrize("m", range(15))
def test_mzv_reduction_matches_partition_formula(m):
    # each zeta(2ip)^(y_i) is z_i^(y_i) pi^(2ip y_i), so every term carries pi^(2pm);
    # p = 4 has no closed form, so only this oracle checks the reduction there
    for p in (1, 2, 4):
        value = partition_sum(
            m,
            lambda i, k: zeta_even(i * p).coefficient ** k * Fraction((-1) ** k, factorial(k) * i**k),
        )
        assert mzv_even_reduced(m, p) == PiPolynomial(2 * p * m, -value if m % 2 else value)


@pytest.mark.parametrize("m", range(15))
def test_bernoulli_sum_matches_partition_formula(m):
    for p in (1, 2, 4):
        base = [bernoulli(2 * i * p) / (2 * i * factorial(2 * i * p)) for i in range(1, m + 1)]
        value = partition_sum(m, lambda i, k: base[i - 1] ** k / factorial(k))
        assert bernoulli_partition_sum(m, p) == value


@pytest.mark.parametrize(
    ("call", "index"),
    [
        (lambda: faulhaber(10, BERNOULLI_MAX_INDEX + 1), BERNOULLI_MAX_INDEX + 1),
        (lambda: faulhaber(10, 10**9), 10**9),
        (lambda: multiple_power_sum(3, 10, BERNOULLI_MAX_INDEX // 3 + 1), 3 * (BERNOULLI_MAX_INDEX // 3 + 1)),
        (lambda: bernoulli_partition_sum(BERNOULLI_MAX_INDEX // 2 + 1, 1), BERNOULLI_MAX_INDEX + 2),
        (lambda: mzv_even_reduced(1, BERNOULLI_MAX_INDEX // 2 + 1), BERNOULLI_MAX_INDEX + 2),
        (lambda: mzv_even_reduced(10**6, 3), 6 * 10**6),
    ],
    ids=["faulhaber", "faulhaber_huge", "multiple_power_sum", "bernoulli_partition_sum", "mzv_p", "mzv_m"],
)
def test_bernoulli_index_cap_refuses_before_the_table_grows(monkeypatch, call, index):
    cold = ((1,), [1])
    monkeypatch.setattr(exact_arith, "_zigzag", cold)
    with pytest.raises(ValueError, match=f"needs B_{index}, past the Bernoulli index cap {BERNOULLI_MAX_INDEX}"):
        call()
    assert exact_arith._zigzag is cold


def test_bernoulli_index_cap_admits_its_edge():
    # faulhaber's whole table up to B_cap against the direct sum; bernoulli_partition_sum at
    # 2mp = cap reads B_cap once, at m = 1
    assert faulhaber(3, BERNOULLI_MAX_INDEX) == 1 + 2**BERNOULLI_MAX_INDEX + 3**BERNOULLI_MAX_INDEX
    cap = BERNOULLI_MAX_INDEX
    assert bernoulli_partition_sum(1, cap // 2) == bernoulli(cap) / (2 * factorial(cap))
