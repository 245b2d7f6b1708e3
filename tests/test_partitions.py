import gc
import sys
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from math import factorial, prod

import pytest
from hypothesis import given
from hypothesis import strategies as st

from multisums import partitions
from multisums.partitions import (
    PARTITION_COUNT_MAX_M,
    _walk_rows,
    enumerate_partitions,
    enumerate_set_partitions,
    newton_coefficients,
    parity_partition_sums,
    partition_count,
    partition_sum,
)


def _set_partition_type(m: int, blocks: tuple[tuple[int, ...], ...]) -> tuple[int, ...]:
    """The multiplicity vector of the integer partition of m recording the block sizes."""
    y = [0] * m
    for block in blocks:
        y[len(block) - 1] += 1
    return tuple(y)


def _count_set_partitions_of_type(y: tuple[int, ...]) -> int:
    """m! / prod_i ((i!)^(y_i) y_i!): set partitions of {1..m} with the given block sizes."""
    denom = 1
    for i, mult in enumerate(y, start=1):
        denom *= factorial(i) ** mult * factorial(mult)
    count, rem = divmod(factorial(len(y)), denom)
    assert rem == 0, "type count must divide m! exactly"
    return count


def _descending_parts(y: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(i for i in range(len(y), 0, -1) for _ in range(y[i - 1]))


def test_enumeration_order():
    assert enumerate_partitions(4) == ((4, 0, 0, 0), (2, 1, 0, 0), (0, 2, 0, 0), (1, 0, 1, 0), (0, 0, 0, 1))
    # The partitions list contract, checked through the descending part
    # tuples: strictly ascending lexicographic, each weighing m, p(m) of them.
    for m in range(26):
        vectors = enumerate_partitions(m)
        parts = [_descending_parts(y) for y in vectors]
        assert all(len(y) == m and min(y, default=0) >= 0 for y in vectors)
        assert all(sum(p) == m for p in parts)
        assert all(a < b for a, b in zip(parts, parts[1:]))
        assert len(parts) == partition_count(m)


def test_enumeration_edge_cases():
    assert enumerate_partitions(0) == ((),)
    assert enumerate_partitions(1) == ((1,),)
    with pytest.raises(ValueError):
        list(enumerate_partitions(-1))


def test_counts_match_pentagonal_recurrence():
    for m in range(26):
        assert len(list(enumerate_partitions(m))) == partition_count(m)
    assert partition_count(10) == 42
    assert partition_count(25) == 1958


def test_partition_count_at_its_cap():
    sympy = pytest.importorskip("sympy")
    assert PARTITION_COUNT_MAX_M == 10_000
    assert partition_count(PARTITION_COUNT_MAX_M) == sympy.partition(PARTITION_COUNT_MAX_M)


def test_partition_count_past_its_cap_refuses_before_any_work(monkeypatch):
    cold = [1]
    monkeypatch.setattr(partitions, "_pcounts", cold)
    with pytest.raises(ValueError, match="m=10001 exceeds the partition count cap 10000"):
        partition_count(PARTITION_COUNT_MAX_M + 1)
    assert cold == [1]


def test_partition_count_under_threads(monkeypatch):
    # 4 threads race to extend a cold cache; each must extend a list whose
    # entries belong together, or p(m) lands computed from the wrong index
    orders = list(range(0, 2997, 7))
    monkeypatch.setattr(partitions, "_pcounts", [1])
    expected = [partition_count(m) for m in orders]  # one thread, from cold
    reference = partitions._pcounts
    monkeypatch.setattr(partitions, "_pcounts", [1])
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            values = list(pool.map(partition_count, orders, timeout=120))
    finally:
        sys.setswitchinterval(interval)
    assert values == expected
    assert partitions._pcounts == reference[:len(partitions._pcounts)]
    assert partition_count(2996) == reference[2996]
    assert partition_count(100) == 190569292


def test_partition_parity_split():
    # the two classes are nonempty from m = 2 on
    for m in range(2, 10):
        parities = Counter(sum(y) % 2 for y in enumerate_partitions(m))
        assert parities[0] >= 1 and parities[1] >= 1
        assert parities[0] + parities[1] == partition_count(m)


def test_bell_counts():
    bell = [1, 1, 2, 5, 15, 52, 203, 877, 4140]
    for m in range(1, 9):
        assert len(list(enumerate_set_partitions(m))) == bell[m]
    with pytest.raises(ValueError):
        list(enumerate_set_partitions(9))
    with pytest.raises(ValueError):
        list(enumerate_set_partitions(0))


def test_set_partition_canonical_blocks():
    # each block ascending, blocks ordered by (size, smallest element),
    # set partitions ascending as tuples of blocks
    assert enumerate_set_partitions(3) == (
        ((1,), (2,), (3,)),
        ((1,), (2, 3)),
        ((1, 2, 3),),
        ((2,), (1, 3)),
        ((3,), (1, 2)),
    )


def test_type_counts_match_enumeration():
    for m in range(1, 9):
        by_type = Counter(_set_partition_type(m, blocks) for blocks in enumerate_set_partitions(m))
        for y in enumerate_partitions(m):
            assert by_type[y] == _count_set_partitions_of_type(y)
        assert sum(by_type.values()) == len(list(enumerate_set_partitions(m)))


def test_type_count_values():
    # 3 ways to split {1,2,3} into a pair and a singleton
    assert _count_set_partitions_of_type((1, 1, 0)) == 3
    assert _count_set_partitions_of_type((0, 2, 0, 0)) == 3
    assert _count_set_partitions_of_type((5, 0, 0, 0, 0)) == 1


def test_partition_sum_counts_and_parity():
    for m in range(12):
        parities = Counter(sum(y) % 2 for y in enumerate_partitions(m))
        assert partition_sum(m, lambda i, k: 1) == partition_count(m)
        assert parity_partition_sums(m, lambda i, k: 1) == (parities[0], parities[1])
    # a zero-multiplicity factor of 0 removes every partition lacking that part
    assert partition_sum(4, lambda i, k: 0 if (i, k) == (2, 0) else 1) == 2  # (2,1,1), (2,2)
    assert parity_partition_sums(4, lambda i, k: 0 if (i, k) == (2, 0) else 1) == (1, 1)


def test_partition_sums_at_orders_0_and_1():
    # m = 0: the empty partition, with zero parts and the empty product 1, whatever the weight
    assert partition_sum(0, lambda i, k: Fraction(7, 3)) == 1
    assert parity_partition_sums(0, lambda i, k: Fraction(7, 3)) == (1, 0)
    # m = 1: the single partition y = (1,), one part, weighed by weight(1, 1) alone
    assert partition_sum(1, lambda i, k: Fraction(5, 3) if k else Fraction(9)) == Fraction(5, 3)
    assert parity_partition_sums(1, lambda i, k: Fraction(5, 3) if k else Fraction(9)) == (0, Fraction(5, 3))


def test_partition_sums_zero_row_at_no_parts():
    # weight(3, 0) = 0 keeps only the partitions of 7 with a part 3: (3,3,1), (3,2,2), (3,2,1,1),
    # (3,1,1,1,1), (4,3); each other factor is 1/2 at y_i = 0 and 1/(i + 1) otherwise
    def weight(i: int, k: int) -> Fraction:
        if k == 0:
            return Fraction(0) if i == 3 else Fraction(1, 2)
        return Fraction(1, i + 1)

    kept = [y for y in enumerate_partitions(7) if y[2]]
    assert len(kept) == 5
    terms = [prod(weight(i, k) for i, k in enumerate(y, start=1)) for y in kept]
    even = sum(t for t, y in zip(terms, kept) if sum(y) % 2 == 0)
    odd = sum(t for t, y in zip(terms, kept) if sum(y) % 2)
    assert parity_partition_sums(7, weight) == (even, odd)
    assert partition_sum(7, weight) == even + odd != 0


def test_partition_sum_weights_follow_the_exactness_policy():
    # a "num/den" string reads as its Fraction; a float or a bool is refused, never taken as a number
    assert partition_sum(6, lambda i, k: "1/2") == partition_sum(6, lambda i, k: Fraction(1, 2))
    assert parity_partition_sums(6, lambda i, k: f"{k}/{i}") == parity_partition_sums(6, lambda i, k: Fraction(k, i))
    for bad in (0.5, True):
        with pytest.raises(ValueError):
            partition_sum(3, lambda i, k: bad)
        with pytest.raises(ValueError):
            parity_partition_sums(3, lambda i, k: bad)


def test_partition_sums_refuse_orders_out_of_range():
    with pytest.raises(ValueError, match="m must be >= 0"):
        partition_sum(-1, lambda i, k: 1)
    with pytest.raises(ValueError, match="enumeration cap 50"):
        parity_partition_sums(51, lambda i, k: 1)


def _fraction_partition_sums(m: int, weight) -> tuple[Fraction, Fraction]:
    """(even, odd) term by term in Fraction, every factor weight(i, y_i) multiplied in."""
    sums = [Fraction(0), Fraction(0)]
    for y in enumerate_partitions(m):
        term = Fraction(1)
        for i, k in enumerate(y, start=1):
            term *= weight(i, k)
        sums[sum(y) % 2] += term
    return sums[0], sums[1]


# zeros, negative and positive ints, and rationals; weight(i, 0) is drawn like any other
weight_values = st.one_of(
    st.just(0),
    st.integers(min_value=-5, max_value=5),
    st.fractions(min_value=-9, max_value=9, max_denominator=9),
)


@given(st.data(), st.integers(min_value=0, max_value=20))
def test_partition_sums_match_fraction_loop(data, m):
    table = {(i, k): data.draw(weight_values) for i in range(1, m + 1) for k in range(m // i + 1)}

    def weight(i: int, k: int):
        return table[i, k]

    even, odd = _fraction_partition_sums(m, weight)
    assert parity_partition_sums(m, weight) == (even, odd)
    assert partition_sum(m, weight) == even + odd


@given(st.data(), st.integers(min_value=0, max_value=12))
def test_walk_rows_match_the_term_by_term_sum(data, m):
    # integer rows with leading zeros (the walk starts each y_i past them), interior
    # zeros and, when drawn, one all-zero row, against every term written out
    rows = [[]]
    for i in range(1, m + 1):
        size = m // i + 1
        lead = data.draw(st.one_of(st.just(0), st.integers(0, size - 1)))
        rows.append([0] * lead + data.draw(st.lists(st.integers(-9, 9), min_size=size - lead, max_size=size - lead)))
    if m and data.draw(st.booleans()):
        zero = data.draw(st.integers(1, m))
        rows[zero] = [0] * len(rows[zero])
    totals = [0, 0]
    for y in enumerate_partitions(m):
        totals[sum(y) % 2] += prod(rows[i][k] for i, k in enumerate(y, start=1))
    assert _walk_rows(rows) == tuple(totals)


def test_partition_sums_fold_many_denominators():
    # weight(i, k) = 1 / prime_i^k gives each of the p(38) = 26015 partitions
    # its own denominator, more than 8192 of them in each parity. Partition
    # sums do not run on the brute-force summing kernel: the partition walk
    # sums them over one common denominator, checked here against the
    # generating function
    m = 38
    primes = [n for n in range(2, 200) if all(n % d for d in range(2, n))][:m]

    def weight(i: int, k: int) -> Fraction:
        return Fraction(1, primes[i - 1] ** k)

    denominators = {prod(primes[i] ** k for i, k in enumerate(y)) for y in enumerate_partitions(m)}
    assert len(denominators) == partition_count(m) == 26015
    parities = Counter(sum(y) % 2 for y in enumerate_partitions(m))
    assert min(parities.values()) > 8192

    def generating(sign: int) -> Fraction:
        # [t^m] prod_i 1 / (1 - sign t^i / prime_i): sign = -1 weighs each part by -1
        coeffs = [Fraction(1)] + [Fraction(0)] * m
        for i in range(1, m + 1):
            x = Fraction(sign, primes[i - 1])
            for n in range(i, m + 1):
                coeffs[n] += x * coeffs[n - i]
        return coeffs[m]

    total, signed = generating(1), generating(-1)
    assert partition_sum(m, weight) == total
    assert parity_partition_sums(m, weight) == ((total + signed) / 2, (total - signed) / 2)


def test_newton_coefficients_edge_cases():
    assert newton_coefficients([], 0) == [1]
    assert newton_coefficients([Fraction(3)], 1) == [1, 3]
    # all p_i = 1: exp(sum t^i / i) = 1 / (1 - t)
    assert newton_coefficients([Fraction(1)] * 9, 9) == [1] * 10
    with pytest.raises(ValueError):
        newton_coefficients([Fraction(1)], 2)
    with pytest.raises(ValueError):
        newton_coefficients([], -1)


def test_newton_coefficients_on_integers():
    # an integer input is never truncated: 2 c_2 = 1 gives the Fraction 1/2
    assert newton_coefficients([1, 0], 2) == [1, 1, Fraction(1, 2)]
    # signed power sums of the integers 1..6 give their elementary functions, as ints
    values = range(1, 7)
    signed = [(-1) ** i * sum(v ** (i + 1) for v in values) for i in range(6)]
    coeffs = newton_coefficients(signed, 6)
    assert coeffs == [1, 21, 175, 735, 1624, 1764, 720]
    assert all(type(c) is int for c in coeffs[1:])
    # Fraction inputs keep Fraction outputs
    assert all(type(c) is Fraction for c in newton_coefficients([Fraction(2), Fraction(4)], 2))


def test_newton_coefficients_follow_the_exactness_policy():
    # a "num/den" string reads as its Fraction; a float or a bool is refused, never taken as a number
    assert newton_coefficients(["1/2", "-1/4"], 2) == [1, Fraction(1, 2), 0]
    for bad in (0.5, True):
        with pytest.raises(ValueError):
            newton_coefficients([bad], 1)


def test_partition_walks_leave_no_cyclic_garbage():
    # the recursive walks are closures over their own cells; they are freed by
    # reference counting alone, so nothing is left for the cycle collector
    gc.collect()
    gc.disable()
    try:
        for _ in range(5):
            partition_sum(10, lambda i, k: Fraction(1, i + k))
            parity_partition_sums(9, lambda i, k: k + 1)
            enumerate_partitions(8)
        assert gc.collect() == 0
    finally:
        gc.enable()


def _newton_by_operation(p, m):
    """Newton's recurrence with one exact operation at a time, the reference for its rational steps.

    Integer inputs stay integers while k divides the dot product; the first
    remainder gives the exact Fraction, and every later step runs in Fractions.
    """
    p = [v if type(v) is int else Fraction(v) for v in p[:m]]
    coeffs = [Fraction(1)]
    for k in range(1, m + 1):
        acc = p[k - 1]
        for i in range(k - 1):
            acc += p[i] * coeffs[k - 1 - i]
        coeffs.append(acc // k if isinstance(acc, int) and not acc % k else Fraction(acc, k))
    return coeffs


_BIG_FRACTIONS = st.fractions(min_value=-(10**6), max_value=10**6, max_denominator=10**6)
_RATIONAL_STRINGS = st.builds("{}/{}".format, st.integers(-(10**6), 10**6), st.integers(1, 10**6))


@st.composite
def _newton_inputs(draw):
    """(p, m, kind): m <= 12 inputs, all ints, all Fractions or mixed with "num/den" strings."""
    m = draw(st.integers(0, 12))
    kind = draw(st.sampled_from(["int", "power_sums", "fraction", "mixed"]))
    if kind == "int":
        p = draw(st.lists(st.integers(-50, 50), min_size=m, max_size=m))
    elif kind == "power_sums":
        # signed power sums of integers, where every step divides, then one entry
        # moved by less than its index: the first remainder comes at step j
        values = draw(st.lists(st.integers(-6, 6), max_size=8))
        p = [(-1) ** i * sum(v ** (i + 1) for v in values) for i in range(m)]
        if m >= 2:
            j = draw(st.integers(2, m))
            p[j - 1] += draw(st.integers(1, j - 1))
    elif kind == "fraction":
        p = draw(st.lists(st.one_of(_BIG_FRACTIONS, st.just(Fraction(0))), min_size=m, max_size=m))
    else:
        entry = st.one_of(st.integers(-(10**6), 10**6), _BIG_FRACTIONS, _RATIONAL_STRINGS, st.just(0))
        p = draw(st.lists(entry, min_size=m, max_size=m))
    return p, m, kind


@given(_newton_inputs())
def test_newton_coefficients_equal_the_operation_by_operation_loop(case):
    p, m, kind = case
    expected = _newton_by_operation(p, m)
    coeffs = newton_coefficients(p, m)
    assert coeffs == expected
    if kind != "mixed":
        assert [type(c) for c in coeffs] == [type(c) for c in expected]


@given(st.lists(st.fractions(min_value=-9, max_value=9, max_denominator=9), min_size=9, max_size=9))
def test_newton_coefficients_match_partition_formula(p):
    coeffs = newton_coefficients(p, 9)
    for m in range(10):
        assert coeffs[m] == partition_sum(m, lambda i, k: (p[i - 1] / i) ** k / factorial(k))
