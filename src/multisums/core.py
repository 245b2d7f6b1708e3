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
Orders, window bounds and indices are read once per call by the integer
reader of :mod:`multisums.exact_arith`: m and q must be ints >= 0 and n
an int (an empty window, n < q, is allowed), none of them a bool.

Routes come in independent pairs so each can act as the other's oracle:

* ``brute_multiple_sum``        direct tuple enumeration, as weakly increasing offsets
* ``reduce_multiple_sum``       e_m of one sequence's window by Viete's truncated
                                product, O(n m), or by power sums reduced with
                                Newton's recurrence, O(m^2), one written rule
                                (``_takes_product``) picking; brute force and the
                                paper's partition formula, ``partitions.partition_sum``,
                                are its oracles in the tests and the acceptance suite
* ``brute_recurrent_sum``       weakly increasing tuples, the same enumeration
* ``symmetrized_multiple_sum``  all m! spec orderings, one enumeration
* ``reduce_symmetrized``        set-partition reduction of the same total
* ``variation_*``               window-extension expansions of P `(m, q, n+1)`, their
                                inner sums from one table of the variation lemma,
                                O(m n); brute force is their oracle

One block kernel of :mod:`multisums.exact_arith` sums the window's power
sums, the brute routes' tuple products and the block sums of
``reduce_symmetrized``: terms are int pairs, summed as integers over the lcm
of each block's denominators, and the blocks merge into integer power sums
T_1..T_m over one scale L, S_i = T_i / L^i. The Newton route of the
window reductions keeps those integers: they are the power sums of the
integers num L / den, so Newton's recurrence runs on integers alone and
e_k of the window is E_k / L^k, one ``Fraction`` per value read. One
private helper, ``_scaled_elementary``, runs the kernel and the one signed
Newton wrapper, ``elementary_from_power_sums``, for ``reduce_multiple_sum``,
``PRODUCT_IDENTITY``'s left side and the root and all-order sums of
:mod:`multisums.polynomials`. ``reduce_multiple_sum`` takes Viete's product
of exact_arith instead, prod (den + num t) truncated at degree m, when
bits(prod den) < m bits(L): its integers grow to about bits(prod den), while
Newton's grow to m bits(L). The rule reads L off the kernel's tree of block
scales, which the Newton route then takes, so no lcm is computed twice. The
other callers of ``_scaled_elementary`` are checked against a direct
product, so they never take the product route.
``power_sums`` returns the m ``Fraction``s S_i. The partition
formula does not use the kernel (it sums over one common denominator, see
:mod:`multisums.partitions`). The brute routes refuse, with ValueError and
before any value is read, more than ``BRUTE_MAX_TUPLES`` tuples: for a
symmetrized sum, m! C(n-q+1, m) tuples of distinct indices, so m <= 9.
Where outside input sets the order of a brute-force sum (``multisum eval
--method brute|both`` and the admission of ``RECURRENT_BRIDGE``), it is
also capped at ``BRUTE_MAX_M``. The routes that read a whole window as a
list or a stream, ``reduce_multiple_sum``, ``power_sums`` and
``reduce_symmetrized``, refuse a window of more than ``WINDOW_MAX_TERMS``
terms, also before any value is read.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from itertools import accumulate, combinations_with_replacement, permutations
from math import factorial, lcm
from typing import Callable, Iterable, Iterator, Sequence, Union

from .exact_arith import (
    RationalLike,
    _as_exact,
    _int_text,
    _integer,
    _is_int,
    _pair_power_sums,
    _rationals,
    _Record,
    _scale_tree,
    _set,
    _Tree,
    _tuple_sum,
    _viete,
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
    "WINDOW_MAX_TERMS",
]

BRUTE_MAX_TUPLES = 10**6  # tuples one brute-force call may enumerate
# largest order brute force runs at where outside input sets the order: `multisum eval --method
# brute|both` and RECURRENT_BRIDGE's admission; the tuple cap alone admits high orders on windows
# little wider than m, slow per tuple and, for the bridge, on its partition side
BRUTE_MAX_M = 6
# terms n - q + 1 of a window that reduce_multiple_sum, power_sums and reduce_symmetrized read in
# full, at every order that reads it, refused before any value is read: N over [1, 10^5] at
# m = 2 takes 0.08 s and N^-1 0.7 s, over [1, 10^6] 1.4 s and 126 MB for N (in process, 2-vCPU VM)
WINDOW_MAX_TERMS = 10**5


class ExplicitSequence(_Record):
    """A finite sequence of rationals; values[k] sits at index base + k.

    ``values`` is stored as a tuple of Fractions. Values are Fractions, ints
    or ``"num/den"`` / integer strings; floats, bools and decimal strings
    raise ValueError. ``base`` must be an int, not a bool; it is checked
    before any value is read.
    """

    __slots__ = ("values", "base")

    def __init__(self, values: Iterable[RationalLike], base: int = 1) -> None:
        base = _integer("sequence 'base'", base, None)
        _set(self, "values", tuple(_rationals("sequence 'values'", values)))
        _set(self, "base", base)


class IndexPower(_Record):
    """The sequence a_N = N ** exponent; exponent may be negative, and must be an int, not a bool."""

    __slots__ = ("exponent",)

    def __init__(self, exponent: int) -> None:
        _set(self, "exponent", _integer("sequence 'exponent'", exponent, None))


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
    index = _integer("index", index, None)
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


def _check_window(m: int, q: int, n: int) -> None:
    """Reads an order m >= 0 and a window [q, n], q >= 0; an empty window (n < q) is allowed."""
    _integer("m", m)
    _integer("q", q)
    _integer("n", n, None)


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
        _check_window(self.m, q, n)

    @property
    def m(self) -> int:
        return len(self.specs)


def _check_tuple_count(width: int, m: int, orderings: int = 1) -> None:
    # orderings * comb(width, m) tuples, counted before anything is evaluated as
    # the running product orderings * C(width - k + i, i), i = 0..k, over the
    # smaller side k = min(m, width - m), as C(width, m) = C(width, k). It never
    # decreases, so the count stops at the first partial product past the cap,
    # and at most k steps are taken: none for a single tuple at width = m.
    if width < m:
        return  # comb(width, m) = 0
    k = min(m, width - m)
    count = orderings
    for i in range(1, k + 1):
        if count > BRUTE_MAX_TUPLES:
            break
        count = count * (width - k + i) // i
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
    _check_window(m, q, n)
    if m == 0:
        return Fraction(1)
    if n < q:
        return Fraction(0)
    return _offset_sum(m, n - q + 1, lambda: [list(_read(spec, q, n))] * m)


def power_sums(spec: SequenceSpec, q: int, n: int, m: int) -> list[Fraction]:
    """S_i = sum_{N=q}^{n} a_N ** i for i = 1..m.

    Each sequence value is evaluated once, all of them even when m = 0, so
    an index outside the sequence's domain raises either way; an empty
    window gives zeros. After the order, a window of more than
    WINDOW_MAX_TERMS terms is refused before any value is read.
    """
    _check_window(m, q, n)
    _check_list_order(m)
    _check_width(q, n)
    sums, scale = _pair_power_sums(_read(spec, q, n), m)
    return [Fraction(t, scale**i) for i, t in enumerate(sums, start=1)]


def elementary_from_power_sums(sums: Sequence[RationalLike], m: int) -> list[Fraction | int]:
    """e_0..e_m of the underlying values from S_1..S_m, by Newton's identities.

    k e_k = sum_{i=1}^{k} (-1)^(i-1) S_i e_{k-i}: newton_coefficients on the
    signed sums, O(m^2) exact steps, each sum read once. Integer sums stay
    integers, the route of the window reductions; other sums are read as
    rationals (a float or a bool raises ValueError, and so does a str, a
    set or a dict in place of the sequence). Extra trailing sums
    beyond S_m are ignored.
    """
    _check_newton(m, len(sums))
    return _newton([-s if i % 2 else s for i, s in enumerate(_rationals("sums", sums, _as_exact, m))])


def _scaled_elementary(pairs: Iterable[tuple[int, int]], m: int, tree: _Tree | None = None) -> tuple[list[int], int]:
    """(E, L): e_k of the values num / den of the int pairs is E[k] / L ** k for k = 0..m.

    The Newton route: the block kernel of exact_arith gives the power sums
    as integers over one scale L, and Newton's recurrence runs on those
    integers alone. ``tree``, the pairs' _scale_tree, is handed to the
    kernel in their place, so no lcm is computed twice.
    """
    sums, scale = _pair_power_sums(pairs, m, tree)
    return elementary_from_power_sums(sums, m), scale


def _takes_product(tree: _Tree, m: int) -> bool:
    """The rule of reduce_multiple_sum: Viete's product when bits(prod den) < m bits(L).

    The product's integers grow to about bits(prod den), Newton's to
    m bits(L), L the lcm of the denominators; both are read off the window's
    _scale_tree, the one Newton's kernel takes, and a denominator counts
    ceil(log2 den) bits, so 0 for 1. The count stops at Newton's bits.
    """
    blocks, _, scale = tree
    bits, newton_bits = 0, m * scale.bit_length()
    for block, _ in blocks:
        bits += sum([(den - 1).bit_length() for _, den in block])
        if bits >= newton_bits:
            return False
    return True


def _check_list_order(m: int) -> None:
    # the order of a route that holds a list of m or m + 1 entries, refused before any value is read
    if m > sys.maxsize:
        raise ValueError(f"m={_int_text(m)} exceeds sys.maxsize ({sys.maxsize})")


def _check_width(q: int, n: int) -> None:
    # a window read in full, refused before any value is read
    if n - q + 1 > WINDOW_MAX_TERMS:
        raise ValueError(f"window of {_int_text(n - q + 1)} terms exceeds the cap {WINDOW_MAX_TERMS}")


def reduce_multiple_sum(spec: SequenceSpec, m: int, q: int, n: int) -> Fraction:
    """Order-m multiple sum of one sequence, e_m of its window, with no enumeration.

    On the window's int pairs, by one of two integer routes picked by
    ``_takes_product``: Viete's product prod (den + num t) truncated at
    degree m, O((n - q + 1) m) steps, whose coefficient c_m over c_0 =
    prod den is e_m; or the power sums over one scale L reduced by Newton's
    recurrence, O(n - q + 1) window terms and O(m^2) steps, e_m = E_m / L^m.
    One Fraction is built. Agrees with brute_multiple_sum on identical specs
    and with elementary_from_power_sums on power_sums, including the
    degenerate window cases (m = 0 gives 1, and a window shorter than m
    gives 0 before any value is read, as brute force does). An order past
    sys.maxsize on a window wider than it, and then a window of more than
    WINDOW_MAX_TERMS terms at any order that reads it, m = 0 included, are
    refused before any value is read. The window is read once and held as
    a list of pairs, which the rule and either route read.
    """
    _check_window(m, q, n)
    if m > max(n - q + 1, 0):
        return Fraction(0)
    _check_list_order(m)
    _check_width(q, n)
    pairs = list(_read(spec, q, n))
    tree = _scale_tree(pairs)
    if _takes_product(tree, m):
        coeffs = _viete(pairs, m)
        return Fraction(coeffs[m], coeffs[0])
    elementary, scale = _scaled_elementary((), m, tree)
    return Fraction(elementary[m], scale**m)


def _variation_table(problem: SumProblem, cutoff: int) -> tuple[list[Fraction], list[Fraction], Fraction]:
    """(inner, outer, base) for the expansions of P_{m,q,n+1} down to order cutoff.

    inner[k - 1] = P_{k,q,n-m+k} and outer[k - 1] = a_{(k); n-m+k+1} for
    k = 1..m, and base = P_{cutoff,q,n-m+cutoff+1}, all from one table of the
    variation lemma: with w = n - m - q + 2, T_j[c] = P_{j+1,q,q+j+c} for
    c = 0..w, and T_j[c] = T_j[c-1] + a_{(j+1); q+j+c} T_{j-1}[c],
    T_{-1} = 1. Position j (from 0) is read once, on [q + j, q + j + w],
    inside [q, n + 1]; each row is kept as int numerators over the lcm of
    its values' denominators times the row below's. O(m w) integer steps.
    """
    m, q, n = problem.m, problem.q, problem.n
    if not _is_int(cutoff) or not 0 <= cutoff <= m:
        raise ValueError("cutoff must be in [0, m]")
    w = n - m - q + 2
    if w < 0 < m:  # [q, n + 1] is shorter than m: no value is read, and zeros give P_{m,q,n+1} = 0
        return [Fraction(0)] * m, [Fraction(0)] * m, Fraction(0)
    row, scale = [1] * (w + 1), 1  # T_{-1}
    inner, outer, base = [], [], Fraction(1)
    for j, spec in enumerate(problem.specs):
        values = list(_read(spec, q + j, q + j + w))
        up = lcm(*(den for _, den in values))
        row = list(accumulate(num * (up // den) * below for (num, den), below in zip(values, row)))
        scale *= up
        inner.append(Fraction(row[w - 1], scale) if w else Fraction(0))
        outer.append(Fraction(*values[w]))
        if j + 1 == cutoff:
            base = Fraction(row[w], scale)
    return inner, outer, base


def variation_expand(problem: SumProblem, cutoff: int) -> Fraction:
    """P_{m,q,n+1} expanded down to order ``cutoff``.

    sum_{k=cutoff+1}^{m} (leading product to order k) * P_{k,q,n-m+k}
      + (leading product to order cutoff) * P_{cutoff,q,n-m+cutoff+1}

    The leading product to order k is prod_{j=k+1}^{m} a_{(j); n-m+j+1},
    empty at k = m; k walks from m down to the cutoff, and each step
    multiplies the running product by one factor. The inner sums come from
    one table of the variation lemma (``_variation_table``), not from brute
    force. cutoff = m collapses to P_{m,q,n+1} itself. Meaningful for
    windows satisfying n >= q + m - 2; a window [q, n+1] shorter than m
    gives 0 before any value is read, as brute force does. Position j
    (from 0) reads its spec on [q + j, n - m + 2 + j], inside [q, n+1].
    """
    inner, outer, base = _variation_table(problem, cutoff)
    total, leading = Fraction(0), Fraction(1)
    for k in range(problem.m, cutoff, -1):
        total += leading * inner[k - 1]
        leading *= outer[k - 1]
    return total + leading * base


def variation_recursive(problem: SumProblem, cutoff: int) -> Fraction:
    """Horner form of variation_expand: same value, nested products, the same table.

    X_cutoff = P_{cutoff,q,n-m+cutoff+1};
    X_k = a_{(k); n-m+k+1} * X_{k-1} + P_{k,q,n-m+k};  answer X_m.
    """
    inner, outer, acc = _variation_table(problem, cutoff)
    for k in range(cutoff + 1, problem.m + 1):
        acc = outer[k - 1] * acc + inner[k - 1]
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
    _check_window(m, q, n)
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

    With all specs identical this equals m! times reduce_multiple_sum. A
    window of more than WINDOW_MAX_TERMS terms is refused before any value
    is read.
    """
    specs = tuple(specs)
    m = len(specs)
    _check_window(m, q, n)
    if m > SET_PARTITION_MAX_M:
        raise ValueError(f"set-partition reduction capped at m = {SET_PARTITION_MAX_M}")
    if m == 0:
        return Fraction(1)
    _check_width(q, n)
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
