"""Registry of partition identities with exact machine-checkable verdicts.

Each identity computes its left side and right side by genuinely different
routes and reports structural equality of exact values. Identities whose
statement is a pair of equations carry both sides as ordered pairs, so
``equal`` is still literally ``lhs == rhs``.

Registry keys are opaque stable strings (the CLI wire format). The registry
is one table: per identity, a check returning (params, lhs, rhs, note), the
parameter names it takes, and its admission. The admission reads and checks
every parameter that bounds the check's work, refusing one past a cap with
ValueError, and returns the number of partitions the report's sides sum
over, which the sweep budget counts. :func:`verify` and
:func:`verify_sweep` admit every report before any check runs, so a check
reads its parameters as admitted. The identities taking "phi" are those
whose parameter names include it.
Lemma 3.1 and EVEN_ODD_WEIGHTS are the phi = 0 cases of LEMMA_3_2 and
EVEN_ODD_BINOM, so each pair shares one closed form, and all five
partition-weighted identities but RECURRENT_BRIDGE share one weight,
(+-1)^k C(k, phi_i) n^k / (i^k k!) with n = 1 except for EVEN_ODD_N. That
weight is written once, as integer rows over D_i = i^K K! (K = m // i),
built by running products with no Fraction per entry. The phi = 0, n = 1
rows of an order are built once, as tuples, and kept; each phi or n
derives its own rows from them, new only where phi_i > 0 or n != 1, and
shares the denominators and their product.

Here the partition sum is the left side under test, so it is evaluated term
by term by the walk of :mod:`multisums.partitions` (over those rows, or
through :func:`multisums.partitions.parity_partition_sums` for the bridge's
rational weights), never by the recurrence that the reductions use. The
walk skips the terms that C(y_i, phi_i) = 0 removes, those with some
y_i < phi_i, so a report at order m with phi a partition of r forms
p(m - r) terms, one partition at a time.
"""

from __future__ import annotations

import enum
import functools
import math
from fractions import Fraction
from itertools import accumulate, repeat
from itertools import product as cartesian_product
from operator import mul
from typing import Callable, Mapping, Sequence, Union

from .core import (
    SequenceSpec,
    SumProblem,
    _check_tuple_count,
    brute_multiple_sum,
    brute_recurrent_sum,
    elementary_from_power_sums,
    eval_sequence,
    power_sums,
    reduce_multiple_sum,
    sequence_spec_from_json,
    sequence_spec_to_json,
)
from .exact_arith import _is_int, _Record, _set, rational_to_str, stirling_first_unsigned
from .partitions import _check_order, _walk_rows, enumerate_partitions, parity_partition_sums, partition_count

__all__ = [
    "IdentityId",
    "VerificationReport",
    "verify",
    "verify_sweep",
    "SWEEP_MAX_POINTS",
    "SWEEP_MAX_PARTITIONS",
    "BINOMIAL_MAX",
    "PRODUCT_MAX_WINDOW",
]

SWEEP_MAX_POINTS = 10_000  # grid points, and reports after phi expansion, of one verify_sweep
# partitions summed over by the reports of one verify_sweep, as their admissions count them before
# any report runs: p(m) per report at order m, and p(m - r) more on LEMMA_3_2's restricted side;
# an upper bound on the terms walked, as a report with phi a partition of r walks only the p(m - r)
# terms of its full side that C(y_i, phi_i) leaves nonzero
SWEEP_MAX_PARTITIONS = 2_000_000
# n and m of BINOMIAL_PARTITION, admitted before any report of a sweep runs: O(m^2) Newton
# steps on integers growing with n and m, 0.9 s at n = m = 2000 and 3.8 s at n = 10^6,
# m = 2000 (2-vCPU VM)
BINOMIAL_MAX = 2000
# terms n - q + 1 of PRODUCT_IDENTITY's window, reduced in full and admitted before any report
# of a sweep runs: N^-6 on [1, 100] takes 2.7 s, on [1, 150] 21 s (2-vCPU VM)
PRODUCT_MAX_WINDOW = 100


class IdentityId(str, enum.Enum):
    """Stable registry keys; values double as the CLI spelling."""

    LEMMA_3_1 = "LEMMA_3_1"
    LEMMA_3_2 = "LEMMA_3_2"
    STIRLING_ALTERNATING = "STIRLING_ALTERNATING"
    BINOMIAL_PARTITION = "BINOMIAL_PARTITION"
    PRODUCT_IDENTITY = "PRODUCT_IDENTITY"
    RECURRENT_BRIDGE = "RECURRENT_BRIDGE"
    EVEN_ODD_WEIGHTS = "EVEN_ODD_WEIGHTS"
    EVEN_ODD_BINOM = "EVEN_ODD_BINOM"
    EVEN_ODD_N = "EVEN_ODD_N"


Side = Union[Fraction, tuple]
Checked = tuple[dict, Side, Side, str]  # what a check returns: (params as reported, lhs, rhs, note)


class VerificationReport(_Record):
    """One identity check: both sides exactly, and whether they agree."""

    __slots__ = ("identity", "params", "lhs", "rhs", "equal", "note")

    def __init__(self, identity: IdentityId, params: dict, lhs: Side, rhs: Side, equal: bool, note: str = "") -> None:
        _set(self, "identity", identity)
        _set(self, "params", params)
        _set(self, "lhs", lhs)
        _set(self, "rhs", rhs)
        _set(self, "equal", equal)
        _set(self, "note", note)

    def to_json_dict(self) -> dict:
        return {
            "identity": self.identity.value,
            "params": _params_to_json(self.params),
            "lhs": _side_to_json(self.lhs),
            "rhs": _side_to_json(self.rhs),
            "equal": self.equal,
            "note": self.note,
        }


def _side_to_json(side: Side):
    if isinstance(side, tuple):
        return [_side_to_json(v) for v in side]
    return rational_to_str(side)


def _params_to_json(params: Mapping) -> dict:
    out = {}
    for key, value in params.items():
        if key == "spec" and not isinstance(value, (int, str)):
            out[key] = sequence_spec_to_json(value)
        elif isinstance(value, tuple):
            out[key] = list(value)
        else:
            out[key] = value
    return out


def _normalize_phi(phi: Sequence[int], m: int) -> tuple[int, ...]:
    """Multiplicity vector for the sub-partition, padded with zeros to length m."""
    phi = tuple(phi)
    if not all(_is_int(v) for v in phi):
        raise ValueError(f"phi multiplicities must be integers, got {list(phi)!r}")
    if any(v < 0 for v in phi):
        raise ValueError("phi multiplicities must be >= 0")
    if len(phi) > m:
        if any(phi[m:]):
            raise ValueError("phi has parts larger than m")
        phi = phi[:m]
    else:
        phi = phi + (0,) * (m - len(phi))
    r = sum(i * v for i, v in enumerate(phi, start=1))
    if r > m:
        raise ValueError("phi must be a partition of r <= m")
    return phi


def _require_int(params: Mapping, key: str, minimum: int) -> int:
    if key not in params:
        raise ValueError(f"missing parameter {key!r}")
    value = params[key]
    if not _is_int(value):
        raise ValueError(f"parameter {key!r} must be an integer, got {value!r}")
    if value < minimum:
        raise ValueError(f"parameter {key!r} must be >= {minimum}")
    return value


def _require_spec(params: Mapping) -> SequenceSpec:
    spec = params.get("spec")
    if spec is None:
        raise ValueError("missing parameter 'spec'")
    return spec if isinstance(spec, SequenceSpec) else sequence_spec_from_json(spec)


@functools.cache
def _unit_rows(m: int, signed: bool, /) -> tuple[tuple[tuple[int, ...], ...], tuple[int, ...], int]:
    """(rows, dens, den) of the weight (+-1)^k / (i^k k!) of y_i = k, built once per order.

    Row i over D_i = dens[i] = i^K K!, K = m // i, has the integer entries
    rows[i][k] = (+-1)^k i^(K-k) K!/k!, built by running products, and
    den = prod_i D_i; rows[0] is empty and dens[0] = 1. Everything is a
    tuple, so the cached rows are shared safely, also across the threads of
    ``selftest --jobs``. Orders above the partition enumeration cap are
    refused before any row is built and are not cached, so the cache holds
    at most 2 (PARTITION_LIST_MAX_M + 1) entries.
    """
    _check_order(m)
    rows: list[tuple[int, ...]] = [()]
    dens = [1]
    for i in range(1, m + 1):
        top = m // i
        # i^(top-k) top!/k! for k = top, top - 1, ..., 0
        row = list(accumulate(range(i * top, 0, -i), mul, initial=1))
        row.reverse()
        dens.append(row[0])
        if signed:
            row[1::2] = [-entry for entry in row[1::2]]
        rows.append(tuple(row))
    return tuple(rows), tuple(dens), math.prod(dens)


def _weight_rows(m: int, phi: Sequence[int], signed: bool, n: int = 1) -> tuple[list[Sequence[int]], tuple[int, ...]]:
    """(rows, dens) of the weight (+-1)^k C(k, phi_i) n^k / (i^k k!) of y_i = k.

    The rows of :func:`_unit_rows` at this order, with rows[i][k] multiplied
    by n^k where n != 1 (EVEN_ODD_N) and by C(k, phi_i) where phi_i > 0, the
    form :func:`multisums.partitions._walk_rows` reads. Only those rows are
    new lists: the others and dens are the shared tuples, and rows[0] is
    empty. Entries of phi past its end are 0. At phi = 0 and n = 1 it is
    Lemma 3.1's weight (signed) and EVEN_ODD_WEIGHTS' (unsigned). At
    k < phi_i it is 0, which removes partitions lacking a part that phi
    has; the walk skips those terms.
    """
    unit, dens, _ = _unit_rows(m, signed)
    rows: list[Sequence[int]] = [[], *unit[1:]]
    if n != 1:
        rows[1:] = [list(map(mul, row, accumulate(repeat(n, len(row) - 1), mul, initial=1))) for row in unit[1:]]
    for i, least in enumerate(phi[:m], start=1):
        if least:
            row = rows[i]
            rows[i] = [0] * least + [math.comb(k, least) * row[k] for k in range(least, len(row))]
    return rows, dens


def _full_sum(rows: Sequence[Sequence[int]], den: int) -> Fraction:
    """The partition sum of integer rows over their common denominator."""
    even, odd = _walk_rows(rows)
    return Fraction(even + odd, den)


def _parity_sums(rows: Sequence[Sequence[int]], den: int) -> tuple[Fraction, Fraction]:
    """The (even, odd) partition sums of integer rows over their common denominator."""
    even, odd = _walk_rows(rows)
    return Fraction(even, den), Fraction(odd, den)


def _filtered(params: Mapping, signed: bool) -> tuple[int, tuple[int, ...], tuple, tuple[int, int], int]:
    """(m, phi, (rows, den), (top, bottom), d) of a binomial-filtered partition sum.

    m is admitted, and phi, if given, is a vector of length m that
    :func:`verify` or :func:`verify_sweep` has checked; it defaults to 0.
    The weight's product over phi's nonzero entries, where C(phi_i, phi_i)
    = 1, is top / bottom, read from the rows as one integer product over
    one denominator, and d = m - r with phi a partition of r.
    """
    m = params["m"]
    phi = params.get("phi", ())
    rows, dens = _weight_rows(m, phi, signed)
    parts = [(i, k) for i, k in enumerate(phi, start=1) if k]
    base = math.prod(rows[i][k] for i, k in parts), math.prod(dens[i] for i, _ in parts)
    return m, phi, (rows, _unit_rows(m, signed)[2]), base, m - sum(i * k for i, k in parts)


def _alternating_closed(base: tuple[int, int], d: int) -> Fraction:
    """Lemma 3.2's closed form, base (-1)^d for d <= 1 and 0 above; Lemma 3.1's at phi = 0."""
    if d > 1:
        return Fraction(0)
    top, bottom = base
    return Fraction(-top if d else top, bottom)


def _parity_closed(base: tuple[int, int], d: int, parts: int) -> tuple[Fraction, Fraction]:
    """EVEN_ODD_BINOM's three-case closed form (even, odd); EVEN_ODD_WEIGHTS' at phi = 0.

    For d <= 1 all of base lands on the side of the parity of phi's part
    count plus d; above, it splits in halves.
    """
    top, bottom = base
    if d > 1:
        half = Fraction(top, 2 * bottom)
        return half, half
    zero = Fraction(0)
    return (zero, Fraction(top, bottom)) if (parts + d) % 2 else (Fraction(top, bottom), zero)


_PARITY_NOTE = "lhs = (even-partition sum, odd-partition sum)"


def _lemma_3_1(params: Mapping) -> Checked:
    """Alternating partition weights collapse: sum = (-1)^m for m <= 1, else 0."""
    m, _, rows, base, d = _filtered(params, signed=True)
    return {"m": m}, _full_sum(*rows), _alternating_closed(base, d), ""


def _lemma_3_2(params: Mapping) -> Checked:
    """Binomial-filtered alternating weights; full and restricted sums agree."""
    m, phi, rows, base, d = _filtered(params, signed=True)
    # Only y >= phi contributes; writing y = phi + z with z a partition of d,
    # C(y_i, phi_i) / y_i! = 1 / (phi_i! z_i!) splits each term in two.
    unit, _, den = _unit_rows(d, True)
    even, odd = _walk_rows(unit)
    restricted = Fraction(base[0] * (even + odd), base[1] * den)
    closed = _alternating_closed(base, d)
    note = "lhs = (full sum, sum restricted to y_i >= phi_i)"
    return {"m": m, "phi": phi}, (_full_sum(*rows), restricted), (closed, closed), note


def _stirling_alternating(params: Mapping) -> Checked:
    """Alternating row sums of the first-kind triangle vanish past m = 1."""
    m = params["m"]
    lhs = Fraction(0)
    for k in range(m + 1):
        term = Fraction(stirling_first_unsigned(m, k))
        lhs += -term if k % 2 else term
    rhs = Fraction((-1 if m % 2 else 1) * math.factorial(m)) if m <= 1 else Fraction(0)
    return {"m": m}, lhs, rhs, ""


def _binomial_partition(params: Mapping) -> Checked:
    """Partition reduction with every power sum set to n equals C(n, m)."""
    n, m = params["n"], params["m"]
    return {"n": n, "m": m}, Fraction(elementary_from_power_sums([n] * m, m)[m]), Fraction(math.comb(n, m)), ""


def _product_identity(params: Mapping) -> Checked:
    """Full-window reduction (m = n - q + 1) collapses to the plain product."""
    spec = _require_spec(params)
    q, n = params["q"], params["n"]
    m = n - q + 1
    rhs = Fraction(1)
    for j in range(q, n + 1):
        rhs *= eval_sequence(spec, j)
    return {"spec": spec, "q": q, "n": n, "m": m}, reduce_multiple_sum(spec, m, q, n), rhs, ""


def _recurrent_bridge(params: Mapping) -> Checked:
    """Recurrent and multiple sums meet the even/odd partition split.

    recurrent + (-1)^m multiple = 2 * even-partition sum
    recurrent - (-1)^m multiple = 2 * odd-partition sum
    """
    spec = _require_spec(params)
    m, q, n = params["m"], params["q"], params["n"]
    recurrent = brute_recurrent_sum(spec, m, q, n)
    multiple = brute_multiple_sum(SumProblem((spec,) * m, q, n))
    signed_multiple = -multiple if m % 2 else multiple
    sums = power_sums(spec, q, n, m)

    def weight(i: int, mult: int) -> Fraction:
        return (sums[i - 1] / i) ** mult / math.factorial(mult)

    even_sum, odd_sum = parity_partition_sums(m, weight)
    lhs = (recurrent + signed_multiple, recurrent - signed_multiple)
    rhs = (2 * even_sum, 2 * odd_sum)
    note = (
        f"recurrent={rational_to_str(recurrent)} multiple={rational_to_str(multiple)} "
        f"even_sum={rational_to_str(even_sum)} odd_sum={rational_to_str(odd_sum)}"
    )
    return {"spec": spec, "m": m, "q": q, "n": n}, lhs, rhs, note


def _even_odd_weights(params: Mapping) -> Checked:
    """Even and odd partition weight totals: (1,0), (0,1), then (1/2, 1/2)."""
    m, _, rows, base, d = _filtered(params, signed=False)
    return {"m": m}, _parity_sums(*rows), _parity_closed(base, d, 0), _PARITY_NOTE


def _even_odd_binom(params: Mapping) -> Checked:
    """Binomial-filtered even/odd weight totals against the three-case closed form."""
    m, phi, rows, base, d = _filtered(params, signed=False)
    return {"m": m, "phi": phi}, _parity_sums(*rows), _parity_closed(base, d, sum(phi)), _PARITY_NOTE


def _even_odd_n(params: Mapping) -> Checked:
    """Even/odd split of the (n/i)-weighted partition sum, binomial closed form.

    Uses C(n+m-1, m) +/- (-1)^m C(n, m) over 2. A sometimes-printed variant
    with C(n-m+1, m) in the first slot fails direct evaluation (already at
    n=3, m=2) and is deliberately not implemented; the note records that.
    """
    m, n = params["m"], params["n"]
    rows, _ = _weight_rows(m, (), signed=False, n=n)
    lhs = _parity_sums(rows, _unit_rows(m, False)[2])
    # n = m = 0 gives C(-1, 0) = 1 (empty choice); math.comb wants n >= 0
    main = Fraction(1) if n + m - 1 < 0 else Fraction(math.comb(n + m - 1, m))
    correction = Fraction(math.comb(n, m))
    if m % 2:
        correction = -correction
    rhs = ((main + correction) / 2, (main - correction) / 2)
    note = (
        "closed form uses C(n+m-1, m); the printed variant C(n-m+1, m) "
        "disagrees with direct evaluation and is corrected here"
    )
    return {"n": n, "m": m}, lhs, rhs, note


def _admit_order(params: Mapping) -> int:
    """p(m), the partitions of m that a report's full side sums over; m within the order cap."""
    m = _require_int(params, "m", 0)
    _check_order(m)
    return partition_count(m)


def _admit_lemma_3_2(params: Mapping) -> int:
    """p(m) on the full side and p(m - r) on the restricted one, phi padded and a partition of r."""
    r = sum(i * k for i, k in enumerate(params["phi"], start=1))
    return _admit_order(params) + partition_count(params["m"] - r)


def _admit_stirling(params: Mapping) -> int:
    """m; no side sums over partitions."""
    _require_int(params, "m", 0)
    return 0


def _admit_binomial(params: Mapping) -> int:
    """m and n up to BINOMIAL_MAX; no side sums over partitions."""
    m = _require_int(params, "m", 0)
    n = _require_int(params, "n", 0)
    if max(n, m) > BINOMIAL_MAX:
        raise ValueError(f"n={n}, m={m}: BINOMIAL_PARTITION takes n and m up to {BINOMIAL_MAX}")
    return 0


def _admit_product(params: Mapping) -> int:
    """q <= n and a window of at most PRODUCT_MAX_WINDOW terms; no side sums over partitions."""
    q = _require_int(params, "q", 0)
    n = _require_int(params, "n", 0)
    if n < q:
        raise ValueError("need n >= q")
    if n - q + 1 > PRODUCT_MAX_WINDOW:
        raise ValueError(f"window of {n - q + 1} terms exceeds the PRODUCT_IDENTITY cap {PRODUCT_MAX_WINDOW}")
    return 0


def _admit_bridge(params: Mapping) -> int:
    """The brute-force tuples, then p(m) as for the full sides.

    The recurrent side's C(n - q + m, m) tuples are never fewer than the
    multiple side's C(n - q + 1, m), and none are counted at m = 0 or
    n < q, so this refuses what the first brute-force sum would.
    """
    m = _require_int(params, "m", 0)
    q = _require_int(params, "q", 0)
    n = _require_int(params, "n", 0)
    _check_tuple_count(max(n - q + m, 0), m)
    return _admit_order(params)


def _admit_even_odd_n(params: Mapping) -> int:
    """m and n, read in the order the check reads them, then p(m) as for the full sides."""
    _require_int(params, "m", 0)
    _require_int(params, "n", 0)
    return _admit_order(params)


# identity -> (check, parameter names, admission); the identities taking
# "phi" expand it in verify_sweep
_REGISTRY: dict[IdentityId, tuple[Callable[[Mapping], Checked], tuple[str, ...], Callable[[Mapping], int]]] = {
    IdentityId.LEMMA_3_1: (_lemma_3_1, ("m",), _admit_order),
    IdentityId.LEMMA_3_2: (_lemma_3_2, ("m", "phi"), _admit_lemma_3_2),
    IdentityId.STIRLING_ALTERNATING: (_stirling_alternating, ("m",), _admit_stirling),
    IdentityId.BINOMIAL_PARTITION: (_binomial_partition, ("n", "m"), _admit_binomial),
    IdentityId.PRODUCT_IDENTITY: (_product_identity, ("spec", "q", "n"), _admit_product),
    IdentityId.RECURRENT_BRIDGE: (_recurrent_bridge, ("spec", "m", "q", "n"), _admit_bridge),
    IdentityId.EVEN_ODD_WEIGHTS: (_even_odd_weights, ("m",), _admit_order),
    IdentityId.EVEN_ODD_BINOM: (_even_odd_binom, ("m", "phi"), _admit_order),
    IdentityId.EVEN_ODD_N: (_even_odd_n, ("n", "m"), _admit_even_odd_n),
}


def verify(identity: IdentityId, params: Mapping) -> VerificationReport:
    """Run one identity check with the given parameters.

    A parameter the identity does not take, or one past the identity's caps,
    raises ValueError before the check runs rather than being ignored.
    """
    identity = IdentityId(identity)
    _check_names(identity, params)
    params = _with_phi(identity, params)
    _REGISTRY[identity][2](params)
    return _report(identity, params)


def _check_names(identity: IdentityId, params: Mapping) -> None:
    """Refuses a parameter the identity does not take."""
    parameters = _REGISTRY[identity][1]
    unknown = sorted(set(params) - set(parameters))
    if unknown:
        raise ValueError(f"{identity.value} takes only {sorted(parameters)}, not {unknown}")


def _with_phi(identity: IdentityId, params: Mapping) -> Mapping:
    """params with phi checked and padded to length m, for the identities taking phi."""
    if "phi" not in _REGISTRY[identity][1]:
        return params
    m = _require_int(params, "m", 0)
    _check_order(m)  # before phi is padded to length m
    return dict(params, phi=_normalize_phi(params.get("phi", ()), m))


def _report(identity: IdentityId, params: Mapping) -> VerificationReport:
    """The identity's check on parameters already admitted, and its verdict."""
    checked, lhs, rhs, note = _REGISTRY[identity][0](params)
    return VerificationReport(identity, checked, lhs, rhs, lhs == rhs, note)


def verify_sweep(
    identity: IdentityId,
    ranges: Mapping[str, Sequence[int]],
    base: Mapping | None = None,
) -> list[VerificationReport]:
    """Cartesian sweep over integer parameter ranges, deterministic order.

    Only the identity's integer parameters can be swept. For the phi-bearing
    identities, when no explicit phi is supplied every sub-partition phi of
    every r <= m is checked at each swept m, so one point at m stands for
    sum_{r<=m} p(r) reports. At most SWEEP_MAX_POINTS grid points and
    SWEEP_MAX_POINTS reports are allowed. The parameters of every report are
    built and admitted before any check runs, so a parameter past a cap at
    the last point is refused, with the message :func:`verify` gives,
    before any report runs; pass ``range`` objects so a refused grid costs
    nothing either.
    The admissions' partitions may sum to at most SWEEP_MAX_PARTITIONS:
    p(m) per report at order m, and for LEMMA_3_2 p(m - r) more on its
    restricted side, phi being a partition of r. The full side of a report
    with phi walks only the p(m - r) terms that C(y_i, phi_i) leaves
    nonzero, so the count is an upper bound on the terms walked; it stays
    p(m), and so does the set of refused sweeps. Every report then runs
    through the one check path of :func:`verify`.
    """
    identity = IdentityId(identity)
    _, parameters, admit = _REGISTRY[identity]
    swept = set(parameters) - {"phi", "spec"}
    unknown = sorted(set(ranges) - swept)
    if unknown:
        raise ValueError(f"{identity.value} sweeps only {sorted(swept)}, not {unknown}")
    points = math.prod(len(values) for values in ranges.values())
    if points > SWEEP_MAX_POINTS:
        raise ValueError(f"sweep of {points} points exceeds the cap {SWEEP_MAX_POINTS}")
    base = dict(base or {})
    grid = [dict(base, **dict(zip(ranges, combo))) for combo in cartesian_product(*ranges.values())]
    if grid:
        _check_names(identity, grid[0])  # every point has the same names
    if "phi" in parameters and "phi" not in base:
        reports = []
        for params in grid:
            # each phi is a partition of r <= m padded to length m, as verify pads it; they are
            # counted first, as the count stops at the cap long before a large m is padded
            m = _require_int(params, "m", 0)
            sizes = accumulate(map(partition_count, range(m + 1)), initial=len(reports))
            if any(size > SWEEP_MAX_POINTS for size in sizes):
                raise ValueError(f"sweep's phi expansion exceeds the cap of {SWEEP_MAX_POINTS} reports")
            reports += [dict(params, phi=sub + (0,) * (m - r)) for r in range(m + 1) for sub in enumerate_partitions(r)]
    else:
        reports = [_with_phi(identity, params) for params in grid]
    visited = sum(map(admit, reports))
    if visited > SWEEP_MAX_PARTITIONS:
        raise ValueError(f"sweep visits {visited} partitions, more than the cap of {SWEEP_MAX_PARTITIONS}")
    return [_report(identity, params) for params in reports]
