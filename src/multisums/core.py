"""Evaluators for ordered multiple sums.

A multiple sum of order m runs over strictly increasing index tuples
q <= N_1 < N_2 < ... < N_m <= n and multiplies one factor per position,
the innermost position N_1 drawn from ``specs[0]`` and the outermost N_m
from ``specs[-1]``. Conventions, applied uniformly: order 0 gives 1, and
an index window shorter than m gives 0.

Every route reads sequence values through one private reader, ``_read``,
the only code that knows where a spec is defined (index 0 has no negative
power; an explicit sequence covers its own index range). It gives a window's
values as (numerator, denominator) int pairs, and ``eval_sequence`` is its
one-index read. An ordered sum reads each position only where a tuple can
put it: position j of ``brute_multiple_sum`` (from 0) on [q + j, n - m + 1 + j],
so specs that are each defined on their own position's range sum as well.

Routes come in independent pairs so each can act as the other's oracle:

* ``brute_multiple_sum``        direct tuple enumeration, as weakly increasing offsets
* ``reduce_multiple_sum``       power sums reduced by Newton's recurrence,
                                O(m^2) (single sequence); the paper's partition
                                formula, ``partitions.partition_sum``, is its
                                oracle in the tests and the acceptance suite
* ``brute_recurrent_sum``       weakly increasing tuples, the same enumeration
* ``symmetrized_multiple_sum``  all m! spec orderings, one enumeration
* ``reduce_symmetrized``        set-partition reduction of the same total
* ``variation_*``               window-extension expansions of P `(m, q, n+1)`

One block kernel of :mod:`multisums.exact_arith` sums the window's power
sums, the brute routes' tuple products and the block sums of
``reduce_symmetrized``: terms are int pairs, summed as integers over the lcm
of each block's denominators, and the blocks merge into integer power sums
T_1..T_m over one scale L, S_i = T_i / L^i. The window reductions
(``reduce_multiple_sum`` here, and the root and all-order sums of
:mod:`multisums.polynomials`) keep those integers: they are the power sums
of the integers num L / den, so Newton's recurrence runs on integers alone
and e_k of the window is E_k / L^k, one ``Fraction`` per value read. One
private helper, ``_scaled_elementary``, runs the kernel and the one signed
Newton wrapper, ``elementary_from_power_sums``, for all of them.
``power_sums`` returns the m ``Fraction``s S_i. The partition
formula does not use the kernel (it sums over one common denominator, see
:mod:`multisums.partitions`). The brute routes refuse, with ValueError and
before any value is read, more than ``BRUTE_MAX_TUPLES`` tuples: for a
symmetrized sum, m! C(n-q+1, m) tuples of distinct indices, so m <= 9.
Where outside input sets the order of a brute-force sum (``multisum eval
--method brute|both`` and the admission of ``RECURRENT_BRIDGE``), it is
also capped at ``BRUTE_MAX_M``.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations_with_replacement, permutations
from math import factorial
from typing import Callable, Iterable, Iterator, Sequence, Union

from .exact_arith import (
    RationalLike,
    _as_exact,
    _as_rational,
    _int_text,
    _is_int,
    _pair_power_sums,
    _Record,
    _set,
    _tuple_sum,
    rational_to_str,
)
from .partitions import SET_PARTITION_MAX_M, _check_newton, _newton, enumerate_set_partitions

__all__ = [
    "ExplicitSequence",
    "IndexPower",
    "SequenceSpec",
    "SumProblem",
    "eval_sequence",
    "sequence_spec_to_json",
    "sequence_spec_from_json",
    "power_sums",
    "brute_multiple_sum",
    "brute_recurrent_sum",
    "reduce_multiple_sum",
    "elementary_from_power_sums",
    "variation_expand",
    "variation_recursive",
    "symmetrized_multiple_sum",
    "reduce_symmetrized",
    "BRUTE_MAX_TUPLES",
    "BRUTE_MAX_M",
]

BRUTE_MAX_TUPLES = 10**6  # tuples one brute-force call may enumerate
# largest order brute force runs at where outside input sets the order: `multisum eval --method
# brute|both` and RECURRENT_BRIDGE's admission; the tuple cap alone admits high orders on windows
# little wider than m, slow per tuple and, for the bridge, on its partition side
BRUTE_MAX_M = 6


def _spec_int(name: str, value: object) -> int:
    """value, if it is an int and not a bool; ValueError naming the spec field otherwise."""
    if not _is_int(value):
        raise ValueError(f"sequence {name!r} must be an integer, got {value!r}")
    return value


class ExplicitSequence(_Record):
    """A finite sequence of rationals; values[k] sits at index base + k.

    ``values`` is stored as a tuple of Fractions. Values are Fractions, ints
    or ``"num/den"`` / integer strings; floats, bools and decimal strings
    raise ValueError. ``base`` must be an int, not a bool; it is checked
    before any value is read.
    """

    __slots__ = ("values", "base")

    def __init__(self, values: Iterable[RationalLike], base: int = 1) -> None:
        base = _spec_int("base", base)
        _set(self, "values", tuple([_as_rational(v) for v in values]))
        _set(self, "base", base)


class IndexPower(_Record):
    """The sequence a_N = N ** exponent; exponent may be negative, and must be an int, not a bool."""

    __slots__ = ("exponent",)

    def __init__(self, exponent: int) -> None:
        _set(self, "exponent", _spec_int("exponent", exponent))


SequenceSpec = Union[ExplicitSequence, IndexPower]


def _read(spec: SequenceSpec, q: int, n: int) -> Iterator[tuple[int, int]]:
    """The values a_q..a_n as (numerator, denominator) int pairs, den > 0.

    The one place that knows where a spec is defined. Index 0 is refused for
    a negative power, and a window reaching outside an explicit sequence's
    values raises ValueError for its first index outside; both are checked
    before any pair is read, and an empty window (n < q) reads nothing. N ** e
    is the pair (N ** e, 1), or (1, N ** -e) for e < 0, with no Fraction
    built; an explicit window is read as one slice of its values.
    """
    if isinstance(spec, IndexPower):
        e = spec.exponent
        if e >= 0:
            return ((N**e, 1) for N in range(q, n + 1))
        if q <= 0 <= n:
            raise ValueError("index 0 is not valid for a negative exponent")
        return ((1, N**-e) for N in range(q, n + 1))
    start, stop, count = q - spec.base, n - spec.base + 1, len(spec.values)
    if start >= stop:
        return iter(())
    if start < 0 or stop > count:
        index = q if not 0 <= start < count else spec.base + count
        low, high = _int_text(spec.base), _int_text(spec.base + count - 1)
        raise ValueError(f"index {_int_text(index)} outside explicit range [{low}, {high}]")
    return ((v.numerator, v.denominator) for v in spec.values[start:stop])


def eval_sequence(spec: SequenceSpec, index: int) -> Fraction:
    """The sequence value at an index, exact: the one-index read of the window reader.

    Raises ValueError outside an explicit sequence's range and at index 0
    for a negative power.
    """
    return Fraction(*next(_read(spec, index, index)))


def sequence_spec_to_json(spec: SequenceSpec) -> dict:
    if isinstance(spec, IndexPower):
        return {"kind": "index_power", "exponent": spec.exponent}
    return {
        "kind": "explicit",
        "base": spec.base,
        "values": [rational_to_str(v) for v in spec.values],
    }


def sequence_spec_from_json(data: object) -> SequenceSpec:
    """Parse a spec written by sequence_spec_to_json; ValueError on anything else."""
    if not isinstance(data, dict):
        raise ValueError(f"sequence spec must be a JSON object, got {data!r}")
    kind = data.get("kind")
    if kind == "index_power":
        if "exponent" not in data:
            raise ValueError("index_power spec needs an 'exponent'")
        return IndexPower(data["exponent"])
    if kind == "explicit":
        values = data.get("values")
        if not isinstance(values, list):
            raise ValueError("explicit spec needs a 'values' list")
        return ExplicitSequence(tuple(values), data.get("base", 1))
    raise ValueError(f"unknown sequence kind: {kind!r}")


def _check_window(m: int, q: int) -> None:
    if m < 0:
        raise ValueError("m must be >= 0")
    if q < 0:
        raise ValueError("q must be >= 0")


class SumProblem(_Record):
    """An order-m multiple sum: one spec per position, window [q, n].

    The order m is len(specs); ``specs`` is stored as a tuple. q must be
    >= 0; a negative q is rejected outright rather than silently summed over.
    """

    __slots__ = ("specs", "q", "n")

    def __init__(self, specs: Iterable[SequenceSpec], q: int, n: int) -> None:
        _set(self, "specs", tuple(specs))
        _set(self, "q", q)
        _set(self, "n", n)
        _check_window(self.m, q)

    @property
    def m(self) -> int:
        return len(self.specs)


def _check_tuple_count(width: int, m: int, orderings: int = 1) -> None:
    # orderings * comb(width, m) tuples, counted before anything is evaluated as
    # the running product orderings * C(width - m + i, i), i = 0..m. It never
    # decreases, so the count stops at the first partial product past the cap.
    if width < m:
        return  # comb(width, m) = 0
    count = orderings
    for i in range(1, m + 1):
        if count > BRUTE_MAX_TUPLES:
            break
        count = count * (width - m + i) // i
    if count > BRUTE_MAX_TUPLES:
        # orderings is m! for a symmetrized sum; past 20! it reads {m}!, as its digits
        # soon pass the default limit on printing an int
        factor = orderings if m <= 20 else f"{_int_text(m)}!"
        times = f"{factor} x " if orderings > 1 else ""
        tuples = f"C({_int_text(width)}, {_int_text(m)})"
        raise ValueError(f"brute force over {times}{tuples} tuples exceeds the cap of {BRUTE_MAX_TUPLES}")


def _check_brute_order(m: int) -> None:
    if m > BRUTE_MAX_M:
        raise ValueError(f"m={_int_text(m)} exceeds brute-force cap {BRUTE_MAX_M}")


def _offset_sum(m: int, width: int, read_tables: Callable[[], list[list[tuple[int, int]]]]) -> Fraction:
    # sum over offsets 0 <= c_0 <= ... <= c_{m-1} < width of prod_j tables[j][c_j], m, width >= 1:
    # the C(width + m - 1, m) offset tuples are counted before read_tables reads any value
    _check_tuple_count(width + m - 1, m)
    return _tuple_sum(combinations_with_replacement(range(width), m), read_tables())


def brute_multiple_sum(problem: SumProblem) -> Fraction:
    """Direct enumeration over strictly increasing index tuples. The oracle.

    N_j = q + j + c_j (positions counted from 0) over weakly increasing
    offsets 0 <= c_0 <= ... <= c_{m-1} < w, w = n - q + 2 - m, so position j
    reads its spec only on [q + j, n - m + 1 + j], the indices a tuple can
    put there; specs defined there alone sum as well. Refuses windows
    of more than BRUTE_MAX_TUPLES tuples (C(n-q+1, m)) before any value is
    read.
    """
    specs, m, q, n = problem.specs, problem.m, problem.q, problem.n
    if m == 0:
        return Fraction(1)
    width = n - q + 2 - m
    if width < 1:
        return Fraction(0)
    return _offset_sum(m, width, lambda: [list(_read(s, q + j, q + j + width - 1)) for j, s in enumerate(specs)])


def brute_recurrent_sum(spec: SequenceSpec, m: int, q: int, n: int) -> Fraction:
    """Weakly increasing counterpart: q <= N_1 <= ... <= N_m <= n, one sequence.

    The same offset enumeration as brute_multiple_sum, every position reading
    one table of [q, n]. Refuses windows of more than BRUTE_MAX_TUPLES tuples
    (C(n-q+m, m)) before any value is read.
    """
    _check_window(m, q)
    if m == 0:
        return Fraction(1)
    if n < q:
        return Fraction(0)
    return _offset_sum(m, n - q + 1, lambda: [list(_read(spec, q, n))] * m)


def power_sums(spec: SequenceSpec, q: int, n: int, m: int) -> list[Fraction]:
    """S_i = sum_{N=q}^{n} a_N ** i for i = 1..m.

    Each sequence value is evaluated once, all of them even when m = 0, so
    an index outside the sequence's domain raises either way; an empty
    window gives zeros.
    """
    _check_window(m, q)
    sums, scale = _pair_power_sums(_read(spec, q, n), m)
    return [Fraction(t, scale**i) for i, t in enumerate(sums, start=1)]


def elementary_from_power_sums(sums: Sequence[RationalLike], m: int) -> list[Fraction | int]:
    """e_0..e_m of the underlying values from S_1..S_m, by Newton's identities.

    k e_k = sum_{i=1}^{k} (-1)^(i-1) S_i e_{k-i}: newton_coefficients on the
    signed sums, O(m^2) exact steps, each sum read once. Integer sums stay
    integers, the route of the window reductions; other sums are read as
    rationals (a float or a bool raises ValueError). Extra trailing sums
    beyond S_m are ignored.
    """
    _check_newton(m, len(sums))
    return _newton([-s if i % 2 else s for i, s in enumerate(map(_as_exact, sums[:m]))])


def _scaled_elementary(pairs: Iterable[tuple[int, int]], m: int) -> tuple[list[int], int]:
    """(E, L): e_k of the values num / den of the int pairs is E[k] / L ** k for k = 0..m.

    The block kernel of exact_arith gives the power sums as integers over one
    scale L, and Newton's recurrence runs on those integers alone.
    """
    sums, scale = _pair_power_sums(pairs, m)
    return elementary_from_power_sums(sums, m), scale


def reduce_multiple_sum(spec: SequenceSpec, m: int, q: int, n: int) -> Fraction:
    """Order-m multiple sum of one sequence via power sums, no enumeration.

    O(n - q + 1) window terms and O(m^2) recurrence steps, all on integers:
    the window's power sums stay integers over one scale L, Newton's
    recurrence gives e_m of the window as the integer E_m, and the one
    Fraction built is E_m / L ** m. Agrees with brute_multiple_sum on
    identical specs and with elementary_from_power_sums on power_sums,
    including the degenerate window cases (m = 0 gives 1, and a window
    shorter than m gives 0 before any value is read, as brute force does).
    """
    _check_window(m, q)
    if m > max(n - q + 1, 0):
        return Fraction(0)
    elementary, scale = _scaled_elementary(_read(spec, q, n), m)
    return Fraction(elementary[m], scale**m)


def variation_expand(problem: SumProblem, cutoff: int) -> Fraction:
    """P_{m,q,n+1} expanded down to order ``cutoff``, inner sums brute forced.

    sum_{k=cutoff+1}^{m} (leading product to order k) * P_{k,q,n-m+k}
      + (leading product to order cutoff) * P_{cutoff,q,n-m+cutoff+1}

    The leading product to order k is prod_{j=k+1}^{m} a_{(j); n-m+j+1},
    empty at k = m; k walks from m down to the cutoff, and each step
    multiplies the running product by one factor. cutoff = m collapses to
    P_{m,q,n+1} itself. Meaningful for windows satisfying n >= q + m - 1;
    explicit sequences must cover [q, n+1].
    """
    m, q, n = problem.m, problem.q, problem.n
    if not 0 <= cutoff <= m:
        raise ValueError("cutoff must be in [0, m]")
    specs = problem.specs
    total, leading = Fraction(0), Fraction(1)
    for k in range(m, cutoff, -1):
        total += leading * brute_multiple_sum(SumProblem(specs[:k], q, n - m + k))
        leading *= eval_sequence(specs[k - 1], n - m + k + 1)
    return total + leading * brute_multiple_sum(SumProblem(specs[:cutoff], q, n - m + cutoff + 1))


def variation_recursive(problem: SumProblem, cutoff: int) -> Fraction:
    """Horner form of variation_expand: same value, nested products.

    X_cutoff = P_{cutoff,q,n-m+cutoff+1};
    X_k = a_{(k); n-m+k+1} * X_{k-1} + P_{k,q,n-m+k};  answer X_m.
    """
    m, q, n = problem.m, problem.q, problem.n
    if not 0 <= cutoff <= m:
        raise ValueError("cutoff must be in [0, m]")
    specs = problem.specs
    acc = brute_multiple_sum(SumProblem(specs[:cutoff], q, n - m + cutoff + 1))
    for k in range(cutoff + 1, m + 1):
        inner = brute_multiple_sum(SumProblem(specs[:k], q, n - m + k))
        acc = eval_sequence(specs[k - 1], n - m + k + 1) * acc + inner
    return acc


def symmetrized_multiple_sum(specs: Sequence[SequenceSpec], q: int, n: int) -> Fraction:
    """Sum of the order-m multiple sum over all m! orderings of the specs.

    Brute force over the m! C(n-q+1, m) tuples of distinct indices, position
    h reading spec h (an ordering on an increasing tuple), in one pass over
    int-pair tables of the whole window, built once: every index in it is
    reached by some tuple. More than BRUTE_MAX_TUPLES are refused before
    any value is evaluated, so m <= 9: 10! alone exceeds the cap.
    """
    specs = tuple(specs)
    m = len(specs)
    _check_window(m, q)
    if m == 0:
        return Fraction(1)
    if n - q + 1 < m:
        return Fraction(0)
    _check_tuple_count(n - q + 1, m, factorial(m))
    return _tuple_sum(permutations(range(n - q + 1), m), [list(_read(spec, q, n)) for spec in specs])


def reduce_symmetrized(specs: Sequence[SequenceSpec], q: int, n: int) -> Fraction:
    """Set-partition reduction of the symmetrized sum; no permutations.

    sum over set partitions P of {1..m} of
      (-1)^(m - |P|) * prod_{blocks B} (|B| - 1)! * sum_{N=q}^{n} prod_{h in B} a_{(h); N}

    With all specs identical this equals m! times reduce_multiple_sum.
    """
    specs = tuple(specs)
    m = len(specs)
    _check_window(m, q)
    if m > SET_PARTITION_MAX_M:
        raise ValueError(f"set-partition reduction capped at m = {SET_PARTITION_MAX_M}")
    if m == 0:
        return Fraction(1)
    tables = [list(_read(spec, q, n)) for spec in specs]
    block_sums: dict[tuple[int, ...], Fraction] = {}

    def block_sum(block: tuple[int, ...]) -> Fraction:
        # sum over N of prod_{h in B} a_{(h); N}: every factor at the same index
        cached = block_sums.get(block)
        if cached is None:
            diagonal = ((k,) * len(block) for k in range(n - q + 1))
            cached = block_sums[block] = _tuple_sum(diagonal, [tables[h - 1] for h in block])
        return cached

    total = Fraction(0)
    for blocks in enumerate_set_partitions(m):
        term = Fraction(1)
        for block in blocks:
            term *= factorial(len(block) - 1) * block_sum(block)
        if (m - len(blocks)) % 2:
            term = -term
        total += term
    return total
