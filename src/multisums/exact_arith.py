"""Exact scalar arithmetic: rationals, combinatorial tables, pi monomials.

Every verdict-bearing value in this package is exact. Rationals are
``fractions.Fraction`` (arbitrary precision, canonical lowest terms with a
positive denominator), and inputs become rationals only from ``Fraction``,
``int`` or string values: a float or a bool is refused with ValueError
rather than read as the binary fraction it stores. Strings have one grammar,
that of :func:`rational_from_str` (``"num/den"`` or an integer), so a
decimal string such as ``"0.1"`` is refused too. Integer arguments have one
reader, the private ``_integer``: every public entry point of the package
reads its orders, window bounds, exponents and indices through it once per
call, so a bool, a float or a string is refused with ValueError naming the
argument, never read as a number or left to fail in a kernel. A sequence
of rational arguments has one reader too, the private ``_rationals``,
which refuses a str or a bytes rather than read its characters or byte
codes as values, and a set or a frozenset, whose order changes with the
hash seed, and a dict, which would be read as its keys.

One block kernel here sums many rationals exactly, as integer power sums
over one scale, with no Fraction built per term. Its terms are weighted,
(num, den, count) int triples, and a count multiplies the term's powers, so
a window read as its d distinct values with their multiplicities costs O(d
m) products for m powers, not one per value and power. The power sums of a
window run on it. The tuple products of brute-force multiple sums and the
set-partition block sums (over tables of int pairs, as core's positional
window reader gives them) are summed in its blocks and merges, their
products formed by column: a block's tuples are read off as one column of
indices per position, which picks that position's numerators and
denominators into the block's running product columns, one ``map`` per
position and column, with no Python step per tuple. Partition sums have
their own walk in :mod:`multisums.partitions`. Viete's integer product prod
(den + num t) ** count over the same terms, truncated at a degree, is
written once here too: the window reduction of core and the root expansion
of polynomials both run it. Bernoulli numbers come from a table of tangent
numbers, integers built by additions only. A :class:`PiPolynomial` is the
record of one term c pi^e, and zero is 0 pi^0. Decimal arithmetic appears
only inside :func:`pi_poly_numeric`, which renders a :class:`PiPolynomial`
as a decimal string for display and trend checks, never for an equality
verdict. The private ``_Record`` gives the package's value records,
``PiPolynomial`` among them, their equality, hash, immutability and repr.
"""

from __future__ import annotations

import math
from decimal import ROUND_HALF_EVEN, Context, Decimal
from fractions import Fraction
from itertools import accumulate, islice, repeat
from operator import floordiv, mul
from typing import Callable, Iterable, Iterator, Sequence, Union

__all__ = [
    "RationalLike",
    "rational_to_str",
    "rational_from_str",
    "bernoulli",
    "stirling_first_unsigned",
    "PiPolynomial",
    "pi_poly_numeric",
    "NUMERIC_MAX_DIGITS",
]

NUMERIC_MAX_DIGITS = 1000  # longest pi_poly_numeric rendering; pi is summed at digits + 25
_GUARD_DIGITS = 25
_SUM_BLOCK = 32  # terms per integer block in _weighted_power_sums, tuples per block in _tuple_sum

# What _as_rational takes exactly; floats and bools are refused.
RationalLike = Union[Fraction, int, str]

# How a record's __init__ sets its fields past _Record's refusal to assign.
_set = object.__setattr__


class _Record:
    """Base of the package's immutable value records.

    A subclass names its fields in ``__slots__``, in constructor order, and
    sets them in its ``__init__`` through ``_set``. Two records are then
    equal when they are of the same class with equal fields, the hash is the
    field tuple's, assigning or deleting a field raises AttributeError, and
    the repr reads ``Name(field=value, ...)``. Written once here instead of
    ``@dataclass(frozen=True)``, whose module loads ``inspect`` on import and
    whose decorator compiles every class's methods, at each process start.
    """

    __slots__ = ()

    def _fields(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._fields() == other._fields()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._fields())

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self) -> tuple:
        # copy and pickle rebuild a record through its __init__, not by assignment
        return self.__class__, self._fields()

    def __repr__(self) -> str:
        body = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{self.__class__.__qualname__}({body})"


def _is_int(value: object) -> bool:
    """An int and not a bool: True and False (JSON true/false) are not numbers here."""
    return isinstance(value, int) and not isinstance(value, bool)


def _integer(name: str, value: object, low: int | None = 0) -> int:
    """value, if it is an int, not a bool, and at least low (None: no bound); ValueError naming it otherwise.

    The one reader of an integer argument at the package's public entry
    points, run once per call before any work. A plain int is let through
    on its class alone, which halves the reader's cost on the common path.
    """
    if value.__class__ is not int and not _is_int(value):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if low is not None and value < low:
        raise ValueError(f"{name} must be >= {low}")
    return value


def _int_text(value: int) -> str:
    """repr(value) for a refusal message, or "<b-bit integer>" where the interpreter's limit on
    int-to-string conversion refuses to print it (4300 digits by default), so the refusal is raised."""
    try:
        return repr(value)
    except ValueError:
        return f"<{value.bit_length()}-bit integer>"


def _as_rational(value: RationalLike) -> Fraction:
    """value as a Fraction. Only Fraction, int and str are taken.

    A Fraction is returned as it is (Fractions are immutable). A string is
    read by rational_from_str. A float is a binary approximation, and taking
    it exactly would invent a rational; a bool is not a number here. Both
    raise ValueError.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, str):
        return rational_from_str(value)
    if not _is_int(value):
        raise ValueError(f'expected a Fraction, an int or a "num/den" string, got {value!r}')
    return Fraction(value)


def _as_exact(value: RationalLike) -> Fraction | int:
    """value as an exact number: an int stays an int, the rest is read by _as_rational."""
    return value if _is_int(value) else _as_rational(value)


def _rationals(
    name: str, values: Iterable[RationalLike], read: Callable = _as_rational, stop: int | None = None
) -> list:
    """[read(v) for v in values], the one reader of a sequence of rational arguments; the first ``stop`` if given.

    A str or a bytes is one value, never a sequence of characters or of
    byte codes, a set or a frozenset is iterated in an order that changes
    with the hash seed, and a dict would be read as its keys: each is
    refused with ValueError naming the argument. Any other iterable, a
    generator included, is read in its own order, and no value past
    ``stop``.
    """
    if isinstance(values, (str, bytes, set, frozenset, dict)):
        raise ValueError(f"{name} must be a sequence of rationals, got {type(values).__name__}")
    return [read(v) for v in islice(values, stop)]


_Term = tuple[int, int, int]  # (num, den, count): the rational num / den, den > 0, taken count >= 1 times
_Block = tuple[list[_Term], int]  # up to _SUM_BLOCK terms and the lcm of their denominators
_Tree = tuple[list[_Block], list[int], int]  # a _scale_tree


def _blocks(terms: Iterable[_Term]) -> Iterator[_Block]:
    """The terms in blocks of _SUM_BLOCK, each with the lcm of its own denominators."""
    terms = iter(terms)
    while block := list(islice(terms, _SUM_BLOCK)):
        yield block, math.lcm(*[den for _, den, _ in block])


def _fold(nodes: Iterable, merge: Callable) -> object:
    """The nodes merged as a binary counter; None when there are none.

    At most one pending node per level, and two nodes of equal level merge
    into one of the next; the pending nodes then merge from the lowest
    level up. Which nodes merge, and in what order, depends only on how
    many there are.
    """
    levels: list = []  # levels[i]: the merge of 2 ** i nodes, or None
    for node in nodes:
        level = 0
        while level < len(levels) and levels[level] is not None:
            node = merge(levels[level], node)
            levels[level] = None
            level += 1
        if level == len(levels):
            levels.append(node)
        else:
            levels[level] = node
    total = None
    for node in levels:
        if node is not None:
            total = node if total is None else merge(node, total)
    return total


def _scale_tree(terms: Sequence[_Term]) -> _Tree:
    """(blocks, merges, L): the terms in blocks as _weighted_power_sums takes them,
    the scale of each merge its binary counter makes over them, in its order,
    and the lcm L of all the denominators (1 for no terms).

    Given to _weighted_power_sums, the tree spares it every lcm.
    """
    blocks = list(_blocks(terms))
    merges: list[int] = []

    def merge(a: int, b: int) -> int:
        merges.append(math.lcm(a, b))
        return merges[-1]

    return blocks, merges, _fold([scale for _, scale in blocks], merge) or 1


def _block_sums(block: _Block, m: int) -> tuple[list[int], int]:
    """(T, L) of one block: the power sums 1..m of the integers num L / den, each count times, over its scale L.

    The running power starts at the term's count, so a term taken count
    times costs the m products of one.
    """
    terms, scale = block
    sums = [0] * m
    for num, den, count in terms:
        numerator = num * (scale // den)
        power = count
        for i in range(m):
            power *= numerator
            sums[i] += power
    return sums, scale


def _merge_sums(a: tuple[list[int], int], b: tuple[list[int], int], scale: int | None = None) -> tuple[list[int], int]:
    """The sum of two (T, L) power-sum nodes over the lcm of their scales, or over ``scale``, that lcm."""
    (sums_a, scale_a), (sums_b, scale_b) = a, b
    if scale is None:
        scale = math.lcm(scale_a, scale_b)
    up_a, up_b = scale // scale_a, scale // scale_b
    factor_a = factor_b = 1
    merged = []
    for x, y in zip(sums_a, sums_b):
        factor_a *= up_a
        factor_b *= up_b
        merged.append(x * factor_a + y * factor_b)
    return merged, scale


def _weighted_power_sums(terms: Iterable[_Term], m: int, tree: _Tree | None = None) -> tuple[list[int], int]:
    """(T, L): the power sums S_i = sum of count (num / den) ** i over
    (num, den, count) int terms, den > 0, are S_i = T[i - 1] / L ** i for
    i = 1..m, with L the lcm of the denominators.

    Every term is the integer num L / den, so T_i is an integer power sum and
    no Fraction is built; a term's count multiplies its powers, so a window
    read as its d distinct values costs O(d m) products, not one per value
    and power. The terms are taken in blocks of _SUM_BLOCK, each summed over
    the lcm of its own denominators, and the blocks are merged as a binary
    counter (_fold), two nodes at the lcm of their scales. Every merge then
    joins sums of similar size, and the stream is consumed once with
    O(log(blocks)) nodes live; folding each block into one running sum would
    rescale that sum, whose lcm grows with every block over a window of
    distinct denominators such as N ** -1 on [1, 50000], once per block. The
    whole stream is consumed, also when m = 0. With the _scale_tree of the
    terms as ``tree`` (and ``terms`` unread), its blocks are summed and its
    scales taken, so no lcm is computed again.
    """
    if tree is None:
        blocks, merge = _blocks(terms), _merge_sums
    else:
        blocks, scales = tree[0], iter(tree[1])

        def merge(a: tuple[list[int], int], b: tuple[list[int], int]) -> tuple[list[int], int]:
            return _merge_sums(a, b, next(scales))

    return _fold(map(_block_sums, blocks, repeat(m)), merge) or ([0] * m, 1)


def _viete(terms: Iterable[_Term], m: int | None = None) -> list[int]:
    """c_0..c_top of prod (den + num t) ** count over the (num, den, count) int terms, truncated at degree m.

    Viete's expansion, one factor at a time, each term's factor count times:
    c_k <- c_k den + c_{k-1} num for k = 0..top, each old c_{k-1} carried up
    (c_{-1} = 0), and c_{top+1} = c_top num appended while top < m (None: no
    truncation). So c_0 = prod den ** count, and e_k of the values num / den,
    each taken count times, is c_k / c_0 for k <= m: integers alone,
    O(values x m) steps. The count is stepped down in place rather than by a
    range, which would cost a term of count 1 a third more.
    """
    coeffs = [1]
    for num, den, count in terms:
        while count:
            count -= 1
            below = 0
            for k, c in enumerate(coeffs):
                coeffs[k] = c * den + below * num
                below = c
            if m is None or len(coeffs) <= m:
                coeffs.append(below * num)
    return coeffs


def _tuple_sum(combos: Iterable[Sequence[int]], tables: Sequence[Sequence[tuple[int, int]]]) -> Fraction:
    """Sum over the index tuples of prod_j tables[j][combo[j]], exact; one table or more.

    Table entries are (numerator, denominator) int pairs, den > 0, as the
    window reader of core gives them. The tuples are taken _SUM_BLOCK at a
    time, and a block's products are formed by column: position j's
    indices, read off the block at once, pick its numerators and
    denominators, which multiply into the block's running numerator and
    denominator columns, one map per position and column. The block is
    summed over the lcm of its denominators, as _weighted_power_sums sums a
    block of count-1 terms at m = 1, and the blocks merge as its blocks do,
    so no Fraction is built per entry or per tuple.
    """
    # per position, the readers of its numerators and of its denominators by index
    (first_num, first_den), *rest = [
        ([num for num, _ in table].__getitem__, [den for _, den in table].__getitem__) for table in tables
    ]
    combos = iter(combos)

    def block_sums() -> Iterator[tuple[list[int], int]]:
        while block := list(islice(combos, _SUM_BLOCK)):
            columns = zip(*block)
            column = next(columns)
            block_nums, block_dens = list(map(first_num, column)), list(map(first_den, column))
            for (num_at, den_at), column in zip(rest, columns):
                block_nums = list(map(mul, block_nums, map(num_at, column)))
                block_dens = list(map(mul, block_dens, map(den_at, column)))
            scale = math.lcm(*block_dens)
            yield [sum(map(mul, block_nums, map(floordiv, repeat(scale), block_dens)))], scale

    (total,), scale = _fold(block_sums(), _merge_sums) or ([0], 1)
    return Fraction(total, scale)


def rational_to_str(value: Fraction) -> str:
    """Serialize a rational as ``"num/den"`` in canonical form.

    The denominator is always written, so integers read ``"7/1"``; the sign
    sits on the numerator. Integers past the interpreter's limit on
    int-to-string conversion are written too, without changing the limit.
    """
    value = _as_rational(value)
    return f"{_decimal(value.numerator)}/{_decimal(value.denominator)}"


def _decimal(value: int) -> str:
    """str(value), also past the interpreter's limit on int-to-string conversion (4300 digits by default).

    A value the limit admits takes one str(). Past it, the value is split
    at a power of ten into two halves of about equal length, each written
    the same way, the lower one padded with zeros, so the process-wide
    limit is read and never changed.
    """
    try:
        return str(value)
    except ValueError:
        pass
    digits = value.bit_length() * 3 // 20  # about half its decimal digits, log10(2) being 0.30103
    high, low = divmod(abs(value), 10**digits)
    return ("-" if value < 0 else "") + _decimal(high) + _decimal(low).zfill(digits)


def rational_from_str(text: str) -> Fraction:
    """Parse ``"num/den"`` or a bare integer string into a rational.

    The one string grammar of the package: decimals (``"0.1"``), exponents
    (``"1e3"``), ``"nan"`` and a zero denominator raise ValueError.
    """
    num_text, slash, den_text = text.partition("/")
    try:
        return Fraction(int(num_text), int(den_text) if slash else 1)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f'expected an integer or "num/den" with den != 0, got {text!r}') from None


# (E_0..E_n, row n): the zigzag numbers found so far and the Seidel-Entringer
# row of the last of them. A call past the table continues from that row, and
# the pair is replaced as one object, so concurrent callers (selftest --jobs)
# each read a table and a row that belong together.
_zigzag: tuple[tuple[int, ...], list[int]] = ((1,), [1])


def bernoulli(j: int) -> Fraction:
    """Bernoulli number B_j with the B_1 = -1/2 convention.

    B_0 = 1, B_1 = -1/2 and B_j = 0 at odd j >= 3. An even B_{2k} comes from
    the tangent number T_k = E_{2k-1}, the zigzag number counting the
    alternating permutations of 2k - 1 elements:
    B_{2k} = (-1)^(k-1) 2k T_k / (4^k (4^k - 1)) (Brent and Harvey, "Fast
    computation of Bernoulli, Tangent and Secant numbers", arXiv:1108.0286).
    The zigzag numbers are the last entries of the Seidel-Entringer rows,
    row n being the running sums of row n - 1 read backwards after a leading
    0. Those rows are integer additions only; they are built once, on
    demand, and kept in a table.
    """
    global _zigzag
    if _integer("j", j) < 2:
        return Fraction(1) if j == 0 else Fraction(-1, 2)
    if j % 2:
        return Fraction(0)
    table, row = _zigzag
    if len(table) < j:  # extend up to E_{j-1} = T_{j/2}
        grown = list(table)
        while len(grown) < j:
            row = [0, *accumulate(reversed(row))]
            grown.append(row[-1])
        table = tuple(grown)
        _zigzag = table, row
    k = j // 2
    numerator = j * table[j - 1]
    return Fraction(numerator if k % 2 else -numerator, 4**k * (4**k - 1))


# The row [m, 0..m] built last, a tuple of length m + 1. A call for an order
# at or above it continues from it, so an ascending sweep builds each row once.
_stirling_row: tuple[int, ...] = (1,)


def _stirling(m: int) -> tuple[int, ...]:
    """The row [m, 0..m] of the unsigned first-kind triangle, m >= 0 already read.

    Triangular recurrence [m, r] = (m-1) [m-1, r] + [m-1, r-1] with
    [0, 0] = 1, applied row by row from the bottom up, so no recursion
    deepens with m.
    """
    global _stirling_row
    row = _stirling_row
    if len(row) > m + 1:
        row = (1,)
    for k in range(len(row) - 1, m):
        row = tuple([k * a + b for a, b in zip(row + (0,), (0,) + row)])
    _stirling_row = row
    return row


def stirling_first_unsigned(m: int, r: int) -> int:
    """Unsigned Stirling number of the first kind [m, r].

    Counts permutations of m elements with r cycles: entry r of the
    triangle's row m, built by recurrence; out-of-range r gives 0.
    """
    m, r = _integer("m", m), _integer("r", r, None)
    return _stirling(m)[r] if 0 <= r <= m else 0


class PiPolynomial(_Record):
    """The exact single term c pi^e, rational c and integer e >= 0.

    Every even zeta value and every depth reduction of repeated even
    arguments has this form. The coefficient is read like any rational
    input, and a zero coefficient sets the exponent to 0, so zero is
    0 pi^0 and field equality is exact value equality. Rational scalars
    multiply it. JSON form maps the exponent (as a decimal string) to the
    coefficient as ``"num/den"``, and zero to ``{}``.
    """

    __slots__ = ("exponent", "coefficient")  # perfbench's tracer finds the class by coefficient and terms

    def __init__(self, exponent: int = 0, coefficient: RationalLike = 0):
        if not _is_int(exponent) or exponent < 0:
            raise ValueError(f"pi exponent must be an integer >= 0, got {exponent!r}")
        coefficient = _as_rational(coefficient)
        _set(self, "exponent", exponent if coefficient else 0)
        _set(self, "coefficient", coefficient)

    # Kept for perfbench's tracer, whose bit_length reads the coefficients here.
    @property
    def terms(self) -> dict[int, Fraction]:
        """{exponent: coefficient}, or {} for zero."""
        return {self.exponent: self.coefficient} if self.coefficient else {}

    # Kept for perfbench's tracer, which wraps __mul__ and __rmul__ by name to count pi_poly_muls.
    def __mul__(self, other: RationalLike) -> "PiPolynomial":
        if isinstance(other, PiPolynomial):
            return NotImplemented
        return PiPolynomial(self.exponent, self.coefficient * _as_rational(other))

    __rmul__ = __mul__

    def to_json_dict(self) -> dict[str, str]:
        return {str(self.exponent): rational_to_str(self.coefficient)} if self.coefficient else {}


def _pi(ctx: Context) -> Decimal:
    # The series recipe of the decimal module's documentation, two extra digits.
    work = Context(prec=ctx.prec + 2)
    lasts, t, s, n, na, d, da = 0, Decimal(3), Decimal(3), 1, 0, 0, 24
    while s != lasts:
        lasts = s
        n, na = n + na, na + 8
        d, da = d + da, da + 32
        t = work.divide(work.multiply(t, n), d)
        s = work.add(s, t)
    return ctx.plus(s)


def pi_poly_numeric(value: PiPolynomial, digits: int) -> str:
    """Render c pi^e as a decimal string to ``digits`` significant digits.

    Fixed-point notation, trailing zeros stripped down to one fractional
    digit; zero reads ``"0"``. The term is computed with a 25-digit guard on
    top of the request and rounded once, half to even. Display and trend
    checks only; 1 <= digits <= NUMERIC_MAX_DIGITS.
    """
    if not _is_int(digits) or not 1 <= digits <= NUMERIC_MAX_DIGITS:
        raise ValueError(f"numeric digits must be in [1, {NUMERIC_MAX_DIGITS}], got {_int_text(digits)}")
    exponent, coeff = value.exponent, value.coefficient
    if not coeff:
        return "0"
    ctx = Context(prec=digits + _GUARD_DIGITS, rounding=ROUND_HALF_EVEN)
    total = ctx.multiply(ctx.divide(coeff.numerator, coeff.denominator), ctx.power(_pi(ctx), exponent))
    text = format(Context(prec=digits, rounding=ROUND_HALF_EVEN).plus(total), "f")
    whole, _, fraction = text.partition(".")
    return f"{whole}.{fraction.rstrip('0') or '0'}"
