import random
import re
import sys
import time
from fractions import Fraction
from itertools import combinations, combinations_with_replacement
from math import comb, factorial

import pytest
from hypothesis import given
from hypothesis import strategies as st

from multisums import core, exact_arith, polynomials
from multisums.core import (
    ExplicitSequence,
    IndexPower,
    SumProblem,
    brute_multiple_sum,
    brute_recurrent_sum,
    eval_sequence,
    elementary_from_power_sums,
    power_sums,
    reduce_multiple_sum,
    reduce_symmetrized,
    sequence_spec_from_json,
    sequence_spec_to_json,
    symmetrized_multiple_sum,
    variation_expand,
    variation_recursive,
)
from multisums.identities import IdentityId, verify
from multisums.partitions import newton_coefficients, partition_sum
from multisums.polynomials import coeff_ratio_from_roots, eval_factored_sum, sum_of_multiple_sums

N = IndexPower(1)


def test_brute_frozen_values():
    assert brute_multiple_sum(SumProblem((N, N), 1, 4)) == 35
    assert brute_multiple_sum(SumProblem((N, N, N), 1, 4)) == 50
    assert brute_multiple_sum(SumProblem((N,), 1, 4)) == 10
    # order 0 is 1, impossible windows are 0
    assert brute_multiple_sum(SumProblem((), 1, 4)) == 1
    assert brute_multiple_sum(SumProblem((), 5, 2)) == 1
    assert brute_multiple_sum(SumProblem((N, N, N), 1, 2)) == 0


def test_brute_reads_each_position_on_its_own_range():
    # position 1 of a pair on [1, 3] is N_1 in [1, 2], position 2 is N_2 in [2, 3]:
    # 1*3 + 1*5 + 2*5, although neither spec is defined on the whole window
    a = ExplicitSequence([1, 2], base=1)
    b = ExplicitSequence([3, 5], base=2)
    assert brute_multiple_sum(SumProblem((a, b), 1, 3)) == 18
    # N_2 >= 1 never meets index 0, where N^-1 is undefined: 0/1 + 0/2 + 0/3 + 1/2 + 1/3 + 2/3
    assert brute_multiple_sum(SumProblem((N, IndexPower(-1)), 0, 3)) == Fraction(3, 2)
    # a single spec still reads the whole window, and a position range it misses is still refused
    with pytest.raises(ValueError, match=r"index 0 is not valid"):
        brute_multiple_sum(SumProblem((IndexPower(-1), N), 0, 3))
    with pytest.raises(ValueError, match=r"index 3 outside explicit range \[1, 2\]"):
        brute_multiple_sum(SumProblem((a, a), 1, 3))
    with pytest.raises(ValueError, match=r"index 0 outside explicit range \[1, 2\]"):
        brute_multiple_sum(SumProblem((a, b), 0, 3))


def _fraction_reference(combos, specs) -> Fraction:
    """Term by term in Fraction: one exact product per index tuple."""
    total = Fraction(0)
    for combo in combos:
        term = Fraction(1)
        for spec, index in zip(specs, combo):
            term *= eval_sequence(spec, index)
        total += term
    return total


# mixed signs, zeros and denominators 1..30
brute_values = st.one_of(st.just(Fraction(0)), st.fractions(min_value=-30, max_value=30, max_denominator=30))


@given(st.data(), st.integers(min_value=0, max_value=2), st.integers(min_value=0, max_value=7),
       st.integers(min_value=0, max_value=4))
def test_brute_routes_match_fraction_reference(data, q, width, m):
    # width 0 is an empty window and width < m a short one; q = 0 is allowed
    n = q + width - 1
    window = st.lists(brute_values, min_size=width, max_size=width)
    specs = tuple(ExplicitSequence(data.draw(window), base=q) for _ in range(m))
    strict = combinations(range(q, n + 1), m)
    assert brute_multiple_sum(SumProblem(specs, q, n)) == _fraction_reference(strict, specs)
    spec = ExplicitSequence(data.draw(window), base=q)
    weak = combinations_with_replacement(range(q, n + 1), m)
    assert brute_recurrent_sum(spec, m, q, n) == _fraction_reference(weak, (spec,) * m)


@given(st.data(), st.integers(min_value=0, max_value=2), st.integers(min_value=0, max_value=7),
       st.integers(min_value=0, max_value=4))
def test_brute_multiple_sum_on_specs_covering_only_their_positions(data, q, width, m):
    # spec j (from 0) holds values on [q + j, n - m + 1 + j] alone, the indices
    # position j can take; empty when the window is shorter than m
    n = q + width - 1
    span = max(width - m + 1, 0)
    window = st.lists(brute_values, min_size=span, max_size=span)
    specs = tuple(ExplicitSequence(data.draw(window), base=q + j) for j in range(m))
    strict = combinations(range(q, n + 1), m)
    assert brute_multiple_sum(SumProblem(specs, q, n)) == _fraction_reference(strict, specs)


def test_brute_routes_fold_many_denominators():
    # the C(200, 2) tuples over [1, 200] span many blocks of the summing kernel
    assert comb(200, 2) > 100 * exact_arith._SUM_BLOCK
    inverse, inverse_square = IndexPower(-1), IndexPower(-2)
    specs = (inverse, inverse_square)
    assert brute_multiple_sum(SumProblem(specs, 1, 200)) == _fraction_reference(
        combinations(range(1, 201), 2), specs)
    assert brute_recurrent_sum(inverse, 2, 1, 200) == _fraction_reference(
        combinations_with_replacement(range(1, 201), 2), (inverse, inverse))
    assert brute_multiple_sum(SumProblem((inverse, inverse), 1, 200)) == reduce_multiple_sum(inverse, 2, 1, 200)


def test_brute_tuple_guard(monkeypatch):
    # refused before any tuple is enumerated: C(300, 6) is about 1.3e12
    with pytest.raises(ValueError, match=r"C\(300, 6\) tuples"):
        brute_multiple_sum(SumProblem((N,) * 6, 1, 300))
    with pytest.raises(ValueError, match=r"C\(305, 6\) tuples"):
        brute_recurrent_sum(N, 6, 1, 300)
    # the cap is inclusive: C(5, 2) = 10 tuples pass at a cap of 10, C(6, 2) = 15 do not
    monkeypatch.setattr(core, "BRUTE_MAX_TUPLES", 10)
    assert brute_multiple_sum(SumProblem((N, N), 1, 5)) == 85
    with pytest.raises(ValueError):
        brute_multiple_sum(SumProblem((N, N), 1, 6))
    assert brute_recurrent_sum(N, 3, 1, 3) == 90  # C(5, 3) = 10 weak tuples
    with pytest.raises(ValueError):
        brute_recurrent_sum(N, 2, 1, 5)  # C(6, 2) = 15


def test_brute_tuple_guard_stops_counting_at_the_cap():
    # C(1999999, 1000000) has about 600 000 digits; the count stops at the
    # first partial product past the cap instead of forming it
    started = time.perf_counter()
    with pytest.raises(ValueError, match=r"C\(1999999, 1000000\) tuples exceeds the cap"):
        brute_recurrent_sum(N, 10**6, 1, 10**6)
    with pytest.raises(ValueError, match=r"C\(1999999, 1000000\) tuples exceeds the cap"):
        verify(IdentityId.RECURRENT_BRIDGE, {"spec": N, "m": 10**6, "q": 1, "n": 10**6})
    assert time.perf_counter() - started < 1.0


def test_brute_tuple_guard_counts_the_smaller_side():
    # C(width, m) is counted as C(width, min(m, width - m)): a single tuple at width = m takes no
    # step, so an order of 10**7 reaches the order cap at once; the refusal still prints C(width, m)
    started = time.perf_counter()
    with pytest.raises(ValueError, match=r"^m=10000000 exceeds brute-force cap 6$"):
        verify(IdentityId.RECURRENT_BRIDGE, {"spec": N, "m": 10**7, "q": 1, "n": 1})
    with pytest.raises(ValueError, match=r"^brute force over C\(1000001, 1000000\) tuples exceeds the cap"):
        core._check_tuple_count(10**6 + 1, 10**6)
    core._check_tuple_count(10**6, 10**6 - 1)  # C(10**6, 1) is the cap itself
    core._check_tuple_count(9, 8, factorial(8))  # 8! x C(9, 1) orderings and tuples
    with pytest.raises(ValueError, match=r"^brute force over 362880 x C\(10, 9\) tuples exceeds the cap"):
        core._check_tuple_count(10, 9, factorial(9))
    assert time.perf_counter() - started < 1.0


def test_recurrent_frozen_values():
    assert brute_recurrent_sum(N, 2, 1, 3) == 25
    assert brute_recurrent_sum(N, 0, 1, 3) == 1
    assert brute_recurrent_sum(N, 2, 3, 2) == 0


def test_reduce_from_power_sums_examples():
    sums = [Fraction(6), Fraction(14), Fraction(36)]
    assert elementary_from_power_sums(sums, 2)[2] == 11
    assert elementary_from_power_sums(sums, 3)[3] == 6
    assert elementary_from_power_sums(sums, 0)[0] == 1
    # extra trailing sums are allowed, short lists are not
    with pytest.raises(ValueError):
        elementary_from_power_sums(sums[:1], 2)


def test_reduce_matches_brute_frozen():
    assert reduce_multiple_sum(N, 2, 1, 4) == 35
    assert reduce_multiple_sum(N, 3, 1, 4) == 50
    assert reduce_multiple_sum(N, 1, 1, 4) == 10
    assert reduce_multiple_sum(N, 0, 1, 4) == 1
    assert reduce_multiple_sum(N, 4, 1, 3) == 0


def test_sum_problem_validation():
    with pytest.raises(ValueError):
        SumProblem((N,), -1, 4)
    problem = SumProblem((N, N), 0, 3)
    assert problem.m == 2
    assert brute_multiple_sum(problem) == brute_multiple_sum(SumProblem((N, N), 0, 3))


def test_index_power_domain():
    assert eval_sequence(IndexPower(2), 3) == 9
    assert eval_sequence(IndexPower(0), 0) == 1
    with pytest.raises(ValueError):
        eval_sequence(IndexPower(-1), 0)


def test_explicit_sequence_domain():
    seq = ExplicitSequence(["1/2", "2/3"], base=3)
    assert eval_sequence(seq, 3) == Fraction(1, 2)
    assert eval_sequence(seq, 4) == Fraction(2, 3)
    with pytest.raises(ValueError):
        eval_sequence(seq, 5)


def test_sequence_spec_json_round_trip():
    for spec in (IndexPower(2), ExplicitSequence([1, Fraction(1, 2)], base=0)):
        assert sequence_spec_from_json(sequence_spec_to_json(spec)) == spec
    assert sequence_spec_to_json(IndexPower(1)) == {"kind": "index_power", "exponent": 1}
    with pytest.raises(ValueError):
        sequence_spec_from_json({"kind": "mystery"})


def test_variation_lemma_example():
    # P_{2,1,4} = P_{2,1,3} + a_4 P_{1,1,3}, all brute forced
    new = brute_multiple_sum(SumProblem((N, N), 1, 4))
    old = brute_multiple_sum(SumProblem((N, N), 1, 3))
    lower = brute_multiple_sum(SumProblem((N,), 1, 3))
    assert (new, old, lower) == (35, 11, 6)
    assert new == old + eval_sequence(N, 4) * lower


def test_variation_expand_examples():
    assert variation_expand(SumProblem((N, N), 1, 3), 0) == 35
    assert variation_recursive(SumProblem((N, N), 1, 3), 0) == 35
    # cutoff m is the identity case
    problem = SumProblem((N, N, N), 1, 4)
    target = brute_multiple_sum(SumProblem((N, N, N), 1, 5))
    assert target == 225
    for cutoff in range(4):
        assert variation_expand(problem, cutoff) == 225
        assert variation_recursive(problem, cutoff) == 225
    with pytest.raises(ValueError):
        variation_expand(problem, 4)
    with pytest.raises(ValueError):
        variation_recursive(problem, -1)


def test_symmetrized_example():
    a = ExplicitSequence([1, 2, 3], base=1)
    b = ExplicitSequence([1, 1, 2], base=1)
    assert symmetrized_multiple_sum((a, b), 1, 3) == 15
    # (sum a)(sum b) - sum of pointwise products = 24 - 9
    assert reduce_symmetrized((a, b), 1, 3) == 24 - 9
    assert symmetrized_multiple_sum((a,), 1, 3) == 6
    assert reduce_symmetrized((), 1, 3) == 1


def test_symmetrized_identical_specs_scale():
    assert symmetrized_multiple_sum((N, N), 1, 4) == 2 * brute_multiple_sum(SumProblem((N, N), 1, 4))
    assert symmetrized_multiple_sum((N, N, N), 1, 5) == 6 * reduce_multiple_sum(N, 3, 1, 5)


def test_reduce_symmetrized_matches_brute_at_order_5():
    # five distinct sequences on [1, 10]: 5! orderings of C(10, 5) tuples against 52 set partitions
    rng = random.Random(7)
    specs = tuple(ExplicitSequence([Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(10)])
                  for _ in range(5))
    assert reduce_symmetrized(specs, 1, 10) == symmetrized_multiple_sum(specs, 1, 10)


def test_symmetrized_caps():
    # the tuple cap alone bounds the order: m! C(m, m) = m! tuples on an m-wide window
    rng = random.Random(9)
    for m, n in ((7, 8), (8, 8)):
        specs = tuple(ExplicitSequence([Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(n)])
                      for _ in range(m))
        assert symmetrized_multiple_sum(specs, 1, n) == reduce_symmetrized(specs, 1, n)
    same = ExplicitSequence([Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(9)])
    assert symmetrized_multiple_sum((same,) * 9, 1, 9) == factorial(9) * reduce_multiple_sum(same, 9, 1, 9)
    with pytest.raises(ValueError, match=r"3628800 x C\(10, 10\) tuples"):
        symmetrized_multiple_sum((N,) * 10, 1, 10)
    with pytest.raises(ValueError):
        reduce_symmetrized((N,) * 9, 1, 10)


def test_symmetrized_tuple_guard_names_a_large_factorial():
    # 2000! has 5736 digits, past the default limit on printing an int; the message writes it 2000!
    with pytest.raises(ValueError, match=r"^brute force over 2000! x C\(2000, 2000\) tuples exceeds the cap"):
        symmetrized_multiple_sum((N,) * 2000, 1, 2000)


def _unreachable_read(spec, q, n):
    raise AssertionError("a value was read past the tuple cap")


def test_brute_tuple_guard_runs_before_any_value_is_read(monkeypatch):
    # C(6, 3) = 20 strict and C(7, 3) = 35 weak tuples over a cap of 10; the
    # window reader, the only way to a value, must not be reached
    monkeypatch.setattr(core, "BRUTE_MAX_TUPLES", 10)
    read = core._read
    monkeypatch.setattr(core, "_read", _unreachable_read)
    with pytest.raises(ValueError, match=r"C\(6, 3\) tuples"):
        brute_multiple_sum(SumProblem((N, IndexPower(-1), N), 1, 6))
    with pytest.raises(ValueError, match=r"C\(7, 3\) tuples"):
        brute_recurrent_sum(N, 3, 1, 5)
    monkeypatch.setattr(core, "_read", read)
    # under the cap the same reader gives the values: C(5, 3) = 10 tuples each way
    assert brute_multiple_sum(SumProblem((N, N, N), 1, 5)) == reduce_multiple_sum(N, 3, 1, 5)
    assert brute_recurrent_sum(N, 3, 1, 3) == 90


def test_symmetrized_tuple_guard_counts_all_orderings(monkeypatch):
    # 3! orderings of C(6, 3) = 20 tuples each: 120 in all, over a cap of 100
    # that each ordering alone stays under, refused before any value is evaluated
    monkeypatch.setattr(core, "BRUTE_MAX_TUPLES", 100)
    specs = tuple(ExplicitSequence([Fraction(k * j - 4, j) for j in range(1, 7)]) for k in range(1, 4))
    read = core._read
    monkeypatch.setattr(core, "_read", _unreachable_read)
    with pytest.raises(ValueError, match=r"6 x C\(6, 3\) tuples"):
        symmetrized_multiple_sum(specs, 1, 6)
    monkeypatch.setattr(core, "_read", read)
    # 3! orderings of C(5, 3) = 10 tuples each: 60 in all, under the cap
    assert symmetrized_multiple_sum(specs, 1, 5) == reduce_symmetrized(specs, 1, 5)


def test_three_sequence_set_partition_expansion():
    # order 3 mixed reduction, including the +2 coefficient on the triple term
    a = ExplicitSequence([1, 2, 1], base=1)
    b = ExplicitSequence([2, 1, 1], base=1)
    c = ExplicitSequence([1, 1, 3], base=1)
    sa = sum(a.values)
    sb = sum(b.values)
    sc = sum(c.values)
    sab = sum(x * y for x, y in zip(a.values, b.values))
    sac = sum(x * y for x, y in zip(a.values, c.values))
    sbc = sum(x * y for x, y in zip(b.values, c.values))
    sabc = sum(x * y * z for x, y, z in zip(a.values, b.values, c.values))
    expected = sa * sb * sc - sa * sbc - sb * sac - sc * sab + 2 * sabc
    assert reduce_symmetrized((a, b, c), 1, 3) == expected
    assert symmetrized_multiple_sum((a, b, c), 1, 3) == expected


explicit_values = st.lists(
    st.fractions(min_value=-9, max_value=9, max_denominator=9),
    min_size=1,
    max_size=8,
)


@given(explicit_values, st.integers(min_value=0, max_value=5))
def test_reduce_equals_brute_property(values, m):
    spec = ExplicitSequence(values, base=1)
    n = len(values)
    assert reduce_multiple_sum(spec, m, 1, n) == brute_multiple_sum(SumProblem((spec,) * m, 1, n))


@given(st.one_of(st.integers(min_value=-3, max_value=3).map(IndexPower),
                 st.builds(ExplicitSequence, explicit_values, st.integers(min_value=-2, max_value=4))),
       st.integers(min_value=0, max_value=4), st.integers(min_value=-3, max_value=6),
       st.integers(min_value=1, max_value=6))
def test_reduce_past_the_window_is_zero_as_brute_force(spec, q, width, excess):
    # an order past the window reads no value, as brute force reads none: index 0 of a
    # negative power and indices outside an explicit range are not refused there
    n = q + width - 1
    m = max(width, 0) + excess
    assert reduce_multiple_sum(spec, m, q, n) == brute_multiple_sum(SumProblem((spec,) * m, q, n)) == 0
    assert reduce_multiple_sum(spec, m + 10**20, q, n) == 0


@given(explicit_values)
def test_full_window_reduction_is_plain_product(values):
    spec = ExplicitSequence(values, base=1)
    n = len(values)
    product = Fraction(1)
    for v in values:
        product *= v
    assert reduce_multiple_sum(spec, n, 1, n) == product


def test_reduction_speed_large_window():
    # the point of the reduction: m=5 over ten thousand terms, well under a second
    started = time.perf_counter()
    value = reduce_multiple_sum(N, 5, 1, 10_000)
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    # independent check: elementary symmetric DP over the same window
    e = [Fraction(1)] + [Fraction(0)] * 5
    for a in range(1, 10_001):
        for k in range(5, 0, -1):
            e[k] += a * e[k - 1]
    assert value == e[5]


def _per_term_power_sums(spec, q, n, m):
    sums = [Fraction(0)] * m
    for N in range(q, n + 1):
        value = eval_sequence(spec, N)
        for i in range(m):
            sums[i] += value ** (i + 1)
    return sums


@pytest.mark.parametrize(
    "spec,q,n,m",
    [
        (ExplicitSequence(["1/2", "-2/3", "5/7", "0", "9/4", "-1/6"], base=1), 1, 6, 7),  # mixed denominators
        (IndexPower(-2), 1, 12, 5),
        (IndexPower(-1), 1, 75, 4),  # several integer blocks, each with its own lcm
        (ExplicitSequence([Fraction(k % 7 - 3, k % 5 + 1) for k in range(70)], base=0), 0, 69, 3),
        (IndexPower(-1), 3, 9, 4),
        (IndexPower(0), 0, 4, 3),  # q = 0, 0 ** 0 = 1
        (IndexPower(3), 0, 6, 4),
        (IndexPower(-1), 5, 4, 3),  # empty window: no index evaluated
        (ExplicitSequence(["1/3"], base=2), 5, 1, 2),
        (ExplicitSequence(["1/3", "4"], base=2), 2, 3, 0),  # m = 0
    ],
)
def test_power_sums_match_per_term_sum(spec, q, n, m):
    assert power_sums(spec, q, n, m) == _per_term_power_sums(spec, q, n, m)


def test_power_sums_domain_errors_hold_at_every_order():
    explicit = ExplicitSequence(["1/3", "4"], base=2)
    long = ExplicitSequence(list(range(1, 42)), base=1)
    for m in (0, 3):
        with pytest.raises(ValueError):
            power_sums(explicit, 2, 4, m)  # index 4 outside [2, 3]
        with pytest.raises(ValueError):
            power_sums(long, 1, 42, m)  # index 42 streams in after a whole block of valid values
        with pytest.raises(ValueError):
            power_sums(explicit, 1, 3, m)
        with pytest.raises(ValueError):
            power_sums(IndexPower(-1), 0, 3, m)  # index 0, negative exponent
    with pytest.raises(ValueError):
        power_sums(IndexPower(1), 1, 3, -1)
    assert power_sums(ExplicitSequence([]), 1, 0, 2) == [0, 0]
    assert power_sums(ExplicitSequence([2, Fraction(1, 2)]), 1, 2, 2) == [Fraction(5, 2), Fraction(17, 4)]


@given(st.integers(min_value=-3, max_value=3), st.integers(min_value=0, max_value=3),
       st.integers(min_value=0, max_value=7), st.integers(min_value=0, max_value=4))
def test_index_power_windows_match_brute(exponent, q, width, m):
    # IndexPower windows reach the kernel as the int pairs (N^e, 1) or (1, N^-e)
    spec = IndexPower(exponent)
    n = q + width - 1
    if exponent < 0 and q == 0 <= n:
        with pytest.raises(ValueError):
            reduce_multiple_sum(spec, m, q, n)
        with pytest.raises(ValueError):
            sum_of_multiple_sums(spec, q, n)
        return
    assert reduce_multiple_sum(spec, m, q, n) == brute_multiple_sum(SumProblem((spec,) * m, q, n))
    assert power_sums(spec, q, n, m) == _per_term_power_sums(spec, q, n, m)
    product = Fraction(1)
    for N in range(q, n + 1):
        product *= eval_sequence(spec, N) + 1
    assert sum_of_multiple_sums(spec, q, n) == product


def test_elementary_from_power_sums_follows_the_exactness_policy():
    # integer sums stay integers: the power sums 6, 14 of 1, 2, 3 give e_1 = 6, e_2 = 11
    assert elementary_from_power_sums([6, 14], 2) == [1, 6, 11]
    assert all(type(e) is int for e in elementary_from_power_sums([6, 14], 2)[1:])
    assert elementary_from_power_sums(["3/2", "5/4"], 2) == [1, Fraction(3, 2), Fraction(1, 2)]
    for bad in (0.5, True):
        with pytest.raises(ValueError):
            elementary_from_power_sums([1, bad], 2)


BLOCK = exact_arith._SUM_BLOCK


@pytest.mark.parametrize("length", [0, 1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK, 2 * BLOCK + 1])
def test_summing_kernel_block_edges(length):
    # streams that end short of, on and just past a block edge: ints and
    # Fractions with negative and zero numerators, against a plain Fraction loop
    values = [Fraction(k % 5 - 2, k % 7 + 1) if k % 3 else k % 4 - 1 for k in range(length)]
    for m in (0, 1, 5):
        expected = [sum((Fraction(v) ** i for v in values), Fraction(0)) for i in range(1, m + 1)]
        assert power_sums(ExplicitSequence(values), 1, len(values), m) == expected
        stream = iter(values)
        sums, scale = exact_arith._pair_power_sums(((v.numerator, v.denominator) for v in stream), m)
        assert [Fraction(t, scale**i) for i, t in enumerate(sums, start=1)] == expected
        assert next(stream, None) is None  # consumed to the end, also at m = 0
        pairs = [(Fraction(v).numerator, Fraction(v).denominator) for v in values]
        assert exact_arith._pair_power_sums((), m, exact_arith._scale_tree(pairs)) == (sums, scale)
    table = [(Fraction(v).numerator, Fraction(v).denominator) for v in values]  # the int pairs core reads
    assert exact_arith._tuple_sum(((k,) for k in range(length)), [table]) == sum(values, Fraction(0))
    pairs = ((k, length - 1 - k) for k in range(length))
    assert exact_arith._tuple_sum(pairs, [table, table]) == sum(
        (Fraction(a) * b for a, b in zip(values, reversed(values))), Fraction(0))


def test_summing_kernel_merges_many_distinct_denominators():
    # 1/N on [1, 4000]: 125 blocks, each with its own lcm, merged as a binary
    # counter; the plain Fraction loop folds the same terms one at a time
    n, m = 4000, 3
    assert n // BLOCK > 100
    expected = [Fraction(0)] * m
    for N in range(1, n + 1):
        term = Fraction(1, N)
        for i in range(m):
            expected[i] += term ** (i + 1)
    assert power_sums(IndexPower(-1), 1, n, m) == expected
    sums, scale = exact_arith._pair_power_sums(((1, N) for N in range(1, n + 1)), m)
    assert [Fraction(t, scale**i) for i, t in enumerate(sums, start=1)] == expected
    # the same merges over the scales of a _scale_tree, which the rule of reduce_multiple_sum reads
    tree = exact_arith._scale_tree([(1, N) for N in range(1, n + 1)])
    assert tree[2] == scale and len(tree[1]) == len(tree[0]) - 1
    assert exact_arith._pair_power_sums((), m, tree) == (sums, scale)


# windows of 0 to 70 values: zeros, negatives and denominators 1..40
window_values = st.lists(
    st.one_of(st.just(Fraction(0)), st.integers(min_value=-20, max_value=20).map(Fraction),
              st.fractions(min_value=-20, max_value=20, max_denominator=40)),
    max_size=70,
)


@given(window_values, st.integers(min_value=0, max_value=8))
def test_integer_window_route_matches_fraction_newton_and_partition_formula(values, m):
    # The window reductions run Newton's recurrence on integer power sums over
    # one scale; the oracles run it on the Fraction power sums, and the
    # partition formula term by term
    n = len(values)
    spec = ExplicitSequence(values, base=1)
    sums = power_sums(spec, 1, n, n)
    fraction_route = newton_coefficients([-s if i % 2 else s for i, s in enumerate(sums)], n)
    m = min(m, n)
    formula = partition_sum(m, lambda i, k: (-sums[i - 1] / i) ** k / factorial(k))
    e_m = -formula if m % 2 else formula
    assert fraction_route[m] == e_m
    assert reduce_multiple_sum(spec, m, 1, n) == e_m
    assert coeff_ratio_from_roots(values, m) == (-e_m if m % 2 else e_m)
    assert sum_of_multiple_sums(spec, 1, n) == sum(fraction_route, Fraction(0))


@pytest.mark.parametrize("m", range(15))
def test_reduction_matches_partition_formula(m):
    rng = random.Random(m)
    sums = [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(m)]
    value = partition_sum(m, lambda i, k: (-sums[i - 1] / i) ** k / factorial(k))
    assert elementary_from_power_sums(sums, m)[m] == (-value if m % 2 else value)


def test_reduction_matches_sympy_at_order_30():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(30)
    values = [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(40)]
    x = sympy.Symbol("x")
    poly = sympy.Poly(sympy.Mul(*[x - sympy.Rational(v.numerator, v.denominator) for v in values]), x)
    e_30 = poly.coeff_monomial(x**10)  # (-1)^30 e_30
    expected = Fraction(int(e_30.p), int(e_30.q))
    assert reduce_multiple_sum(ExplicitSequence(values, base=1), 30, 1, 40) == expected


def _newton_route(spec, m, q, n):
    elementary, scale = core._scaled_elementary(core._read(spec, q, n), m)
    return Fraction(elementary[m], scale**m)


# windows of 0 to 12 values, every denominator 1 or mixed with zeros, negatives and denominators up to 12
straddle_values = st.one_of(
    st.lists(st.integers(min_value=-12, max_value=12).map(Fraction), max_size=12),
    st.lists(st.one_of(st.just(Fraction(0)), st.fractions(min_value=-12, max_value=12, max_denominator=12)),
             max_size=12),
)


@given(st.one_of(st.integers(min_value=-3, max_value=3).map(IndexPower),
                 st.builds(ExplicitSequence, straddle_values, st.integers(min_value=0, max_value=2))),
       st.integers(min_value=0, max_value=2), st.integers(min_value=0, max_value=12), st.integers(min_value=0, max_value=5))
def test_reduction_routes_agree_on_both_sides_of_the_rule(spec, q, width, excess):
    # each window is reduced by the route its rule picks, by the Newton route and by
    # Viete's product alone, against brute force; an explicit window is its own values
    if isinstance(spec, ExplicitSequence):
        q, width = spec.base, len(spec.values)
    n = q + width - 1
    m = max(width - excess, 0)
    if isinstance(spec, IndexPower) and spec.exponent < 0 and q == 0 <= n:
        with pytest.raises(ValueError, match="index 0 is not valid"):
            reduce_multiple_sum(spec, m, q, n)
        with pytest.raises(ValueError, match="index 0 is not valid"):
            _newton_route(spec, m, q, n)
        return
    expected = brute_multiple_sum(SumProblem((spec,) * m, q, n))
    coeffs = exact_arith._viete(core._read(spec, q, n), m)
    assert reduce_multiple_sum(spec, m, q, n) == _newton_route(spec, m, q, n) == expected
    assert Fraction(coeffs[m], coeffs[0]) == expected


def test_reduction_rule_picks_the_product_or_newton():
    # bits(prod den) < m bits(L): 1/N on [1, 200] counts 1 345 product bits against
    # 200 x 298 Newton bits; on [1, 10^5] at m = 2, 1 568 929 against 2 x 144 344
    def takes_product(spec, m, q, n):
        return core._takes_product(exact_arith._scale_tree(core._read(spec, q, n)), m)

    assert takes_product(IndexPower(-1), 200, 1, 200)
    assert not takes_product(IndexPower(-1), 2, 1, 10**5)
    # a denominator of 1 counts 0 bits, so an integer window takes the product at every order but 0
    assert takes_product(N, 1000, 1, 1000)
    assert takes_product(N, 1, 1, 1000)
    assert not takes_product(N, 0, 1, 1000)


def test_reduction_refuses_an_order_past_maxsize_before_any_value_is_read(monkeypatch):
    monkeypatch.setattr(core, "_read", _unreachable_read)
    message = rf"^m={2**63} exceeds sys.maxsize \({sys.maxsize}\)$"
    with pytest.raises(ValueError, match=message):
        reduce_multiple_sum(N, 2**63, 1, 2**64)
    for n in (5, 0):  # also on an empty window, where the m sums are zeros
        with pytest.raises(ValueError, match=message):
            power_sums(N, 1, n, 2**63)
    assert reduce_multiple_sum(N, 2**63, 1, 5) == 0  # an order past its window reads no value


@pytest.mark.parametrize("m", [0, 1, 2])
def test_window_cap_refuses_before_any_value_is_read(monkeypatch, m):
    # every order that reads the window, m = 0 included, is admitted on its width first; the
    # edge, n - q + 1 = the cap, reads its values
    monkeypatch.setattr(core, "WINDOW_MAX_TERMS", 6)
    read = core._read
    monkeypatch.setattr(core, "_read", _unreachable_read)
    for q, n in ((1, 7), (0, 6), (3, 10**11), (1, 10**4299)):  # 4300 digits print by default
        message = rf"^window of {n - q + 1} terms exceeds the cap 6$"
        with pytest.raises(ValueError, match=message):
            reduce_multiple_sum(N, m, q, n)
        with pytest.raises(ValueError, match=message):
            power_sums(N, q, n, m)
        if m:
            with pytest.raises(ValueError, match=message):
                reduce_symmetrized((N,) * m, q, n)
    monkeypatch.setattr(core, "_read", read)
    assert reduce_multiple_sum(N, m, 1, 6) == brute_multiple_sum(SumProblem((N,) * m, 1, 6))
    assert power_sums(N, 2, 7, m) == [Fraction(sum(k**i for k in range(2, 8))) for i in range(1, m + 1)]
    assert reduce_symmetrized((N,) * m, 1, 6) == symmetrized_multiple_sum((N,) * m, 1, 6)


def test_window_cap_comes_after_the_order_checks(monkeypatch):
    # an order past sys.maxsize keeps its message, and an order past its window still reads nothing
    monkeypatch.setattr(core, "_read", _unreachable_read)
    with pytest.raises(ValueError, match=rf"^m={2**63} exceeds sys.maxsize"):
        reduce_multiple_sum(N, 2**63, 1, 2**64)
    with pytest.raises(ValueError, match=rf"^m={2**63} exceeds sys.maxsize"):
        power_sums(N, 1, 2**64, 2**63)
    assert reduce_multiple_sum(N, 2**63, 1, core.WINDOW_MAX_TERMS + 1) == 0


def test_checked_sides_never_take_the_product(monkeypatch):
    # each of these sides is checked against a direct product, so it must reduce by Newton
    def product(*args):
        raise AssertionError("Viete's product")

    for module in (core, exact_arith, polynomials):
        monkeypatch.setattr(module, "_viete", product)
    inverse = IndexPower(-1)
    with pytest.raises(AssertionError):
        reduce_multiple_sum(inverse, 30, 1, 30)  # the rule takes the product here
    assert verify(IdentityId.PRODUCT_IDENTITY, {"spec": inverse, "q": 1, "n": 30}).equal
    roots = [Fraction(1, k) for k in range(1, 31)]
    assert coeff_ratio_from_roots(roots, 30) == Fraction(1, factorial(30))
    lhs, rhs = eval_factored_sum(roots, Fraction(1, 2))
    assert lhs == rhs
    assert sum_of_multiple_sums(inverse, 1, 30) == 31


def _variation_target(problem):
    return brute_multiple_sum(SumProblem(problem.specs, problem.q, problem.n + 1))


@given(st.data(), st.integers(min_value=0, max_value=2), st.integers(min_value=-2, max_value=7),
       st.integers(min_value=0, max_value=4))
def test_variation_table_matches_brute_force_on_specs_covering_only_their_positions(data, q, width, m):
    # spec j (from 0) holds values on [q + j, n - m + 2 + j] alone, the indices position j takes in
    # P_{m,q,n+1}; a window [q, n + 1] shorter than m gives 0, as brute force does
    n = q + width - 2
    span = max(width - m + 1, 0)
    window = st.lists(brute_values, min_size=span, max_size=span)
    specs = tuple(ExplicitSequence(data.draw(window), base=q + j) for j in range(m))
    problem = SumProblem(specs, q, n)
    target = _variation_target(problem)
    for cutoff in range(m + 1):
        assert variation_expand(problem, cutoff) == variation_recursive(problem, cutoff) == target


def test_variation_expansions_make_no_brute_force_call(monkeypatch):
    specs = tuple(ExplicitSequence([Fraction(k - j, k % 5 + 1) for k in range(1, 21)]) for j in range(6))
    problem = SumProblem(specs, 1, 19)
    target = _variation_target(problem)

    def brute(problem):
        raise AssertionError("brute force")

    monkeypatch.setattr(core, "brute_multiple_sum", brute)
    for cutoff in range(7):
        assert variation_expand(problem, cutoff) == variation_recursive(problem, cutoff) == target


@pytest.mark.parametrize(
    "data",
    [
        [1],
        "index_power",
        {"kind": "index_power"},
        {"kind": "index_power", "exponent": 1.7},
        {"kind": "index_power", "exponent": 2.0},
        {"kind": "index_power", "exponent": True},
        {"kind": "index_power", "exponent": "2"},
        {"kind": "explicit", "values": [0.1]},
        {"kind": "explicit", "values": [True]},
        {"kind": "explicit", "values": "1/2"},
        {"kind": "explicit"},
        {"kind": "explicit", "base": 1.5, "values": ["1/2"]},
    ],
)
def test_sequence_spec_from_json_rejects_malformed(data):
    with pytest.raises(ValueError):
        sequence_spec_from_json(data)


def test_sequence_spec_from_json_accepts_integers_and_strings():
    spec = sequence_spec_from_json({"kind": "explicit", "base": 0, "values": [3, "-1/2", " 4 "]})
    assert spec == ExplicitSequence([3, Fraction(-1, 2), 4], base=0)
    assert sequence_spec_from_json({"kind": "explicit", "values": []}) == ExplicitSequence([], base=1)
    assert sequence_spec_from_json({"kind": "index_power", "exponent": -3}) == IndexPower(-3)


@pytest.mark.parametrize(
    ("make", "message"),
    [
        (lambda: IndexPower(True), "sequence 'exponent' must be an integer, got True"),
        (lambda: IndexPower(2.0), "sequence 'exponent' must be an integer, got 2.0"),
        (lambda: IndexPower(0.5), "sequence 'exponent' must be an integer, got 0.5"),
        (lambda: ExplicitSequence([1], base=True), "sequence 'base' must be an integer, got True"),
        (lambda: ExplicitSequence([1], base=1.0), "sequence 'base' must be an integer, got 1.0"),
        # base is checked before any value is read
        (lambda: ExplicitSequence([0.1], base=1.0), "sequence 'base' must be an integer, got 1.0"),
    ],
    ids=["exponent_true", "exponent_2.0", "exponent_0.5", "base_true", "base_1.0", "base_first"],
)
def test_spec_records_refuse_non_integer_fields(make, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        make()
