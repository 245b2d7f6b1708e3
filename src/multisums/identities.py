"""Registry of partition identities with exact machine-checkable verdicts.

Each identity computes its left side and right side by genuinely different
routes and reports structural equality of exact values. Identities whose
statement is a pair of equations carry both sides as ordered pairs, so
``equal`` is still literally ``lhs == rhs``.

Registry keys are opaque stable strings (the CLI wire format). The registry
is one table: per identity, a check returning (params, lhs, rhs, note), the
parameter names it takes, and its admission. Every rule on an identity's
parameters lives here, the caps included, so the CLI applies none of its
own. One reader, ``_admit``, checks that each integer parameter (every name
but "spec" and "phi") is an integer >= 0, in the order the names are
listed, and then runs the admission. The admission checks every parameter
that bounds the check's work, refusing one past a cap with ValueError, and
returns the number of partition terms the report walks itself, which the
sweep budget counts; a side that reads its order's kept walk counts 0, as
the order cap bounds those walks per process. :func:`verify_sweep` admits
every report before any check runs, so a check reads its parameters as
admitted, and :func:`verify` is its sweep of one point. The identities
taking "phi" are those whose parameter names include it.
Lemma 3.1 and EVEN_ODD_WEIGHTS are the phi = 0 cases of LEMMA_3_2 and
EVEN_ODD_BINOM, so each pair shares one closed form, and all five
partition-weighted identities but RECURRENT_BRIDGE share one weight,
(+-1)^k C(k, phi_i) n^k / (i^k k!) with n = 1 except for EVEN_ODD_N. Its
sign and n are factors per part, so over a partition y they multiply to
(+-n)^sum(y): every walk runs on the unsigned rows at n = 1, and a side is
sum_p (+-n)^p t_p / den over the walk's totals t_p by number of parts p.
Those rows are written once, as integer rows over D_i = i^K K!
(K = m // i), built by running products with no Fraction per entry. One
unsigned row set per order is built, as tuples, and kept, and so is its
walk: Lemma 3.1, EVEN_ODD_WEIGHTS, EVEN_ODD_N at every n, LEMMA_3_2's
restricted side and the phi = 0 reports read that walk, so each order is
walked once per process. A phi != 0 side derives its own rows, new only
where phi_i > 0, and walks them once per report.

Here the partition sum is the left side under test, so it is evaluated term
by term by the walk of :mod:`multisums.partitions` (over those rows, or
through :func:`multisums.partitions.parity_partition_sums` for the bridge's
rational weights), never by the recurrence that the reductions use; only
the walk of an order is shared. The walk skips the terms that
C(y_i, phi_i) = 0 removes, those with some y_i < phi_i, so a report at
order m with phi a partition of r forms p(m - r) terms, one partition at a
time.
"""

from __future__ import annotations

import enum
import functools
import math
from fractions import Fraction
from itertools import accumulate, count, repeat
from itertools import product as cartesian_product
from operator import mul
from typing import Callable, Mapping, Sequence, Union

from .core import (
    SequenceSpec,
    SumProblem,
    _check_brute_order,
    _check_tuple_count,
    _read,
    brute_multiple_sum,
    brute_recurrent_sum,
    elementary_from_power_sums,
    power_sums,
    reduce_multiple_sum,
    sequence_spec_from_json,
    sequence_spec_to_json,
)
from .exact_arith import _int_text, _is_int, _Record, _set, rational_to_str, stirling_first_unsigned
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
    "STIRLING_MAX_M",
]

SWEEP_MAX_POINTS = 10_000  # grid points, and reports after phi expansion, of one verify_sweep
# partition terms walked by the reports of one verify_sweep, as their admissions count them before
# any report runs: p(m - r) per report whose phi != 0 is a partition of r, p(m) per RECURRENT_BRIDGE
# report, and 0 for a side that reads its order's kept walk (at most 51 walks per process); no
# command-line sweep reaches it (at most 1 091 745, LEMMA_3_2 --phi 1 over m = 1..50), a library
# sweep repeating an order at a fixed phi != 0 can
SWEEP_MAX_PARTITIONS = 2_000_000
# n and m of BINOMIAL_PARTITION, admitted before any report of a sweep runs: O(m^2) Newton
# steps on integers growing with n and m, 0.9 s at n = m = 2000 and 3.8 s at n = 10^6,
# m = 2000 (2-vCPU VM); also n of EVEN_ODD_N, whose sides and output grow with the digits
# of n (4.8 s at n = 10^20000, m = 50, in process)
BINOMIAL_MAX = 2000
# terms n - q + 1 of PRODUCT_IDENTITY's window, reduced in full and admitted before any report
# of a sweep runs: N^-6 on [1, 100] takes 2.7 s, on [1, 150] 21 s (2-vCPU VM)
PRODUCT_MAX_WINDOW = 100
# m of STIRLING_ALTERNATING, admitted before any report of a sweep runs: row m of the Stirling
# triangle is built from the rows below it, 2.1 to 2.35 s at m = 2000 and 6.4 to 7.5 s at m = 3000
# as a command (2-vCPU VM)
STIRLING_MAX_M = 2000


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
        if key == "spec":
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


def _require_int(params: Mapping, key: str) -> int:
    if key not in params:
        raise ValueError(f"missing parameter {key!r}")
    value = params[key]
    if not _is_int(value):
        raise ValueError(f"parameter {key!r} must be an integer, got {value!r}")
    if value < 0:
        raise ValueError(f"parameter {key!r} must be >= 0")
    return value


def _require_spec(params: Mapping) -> SequenceSpec:
    spec = params.get("spec")
    if spec is None:
        raise ValueError("missing parameter 'spec'")
    return spec if isinstance(spec, SequenceSpec) else sequence_spec_from_json(spec)


@functools.cache
def _unit_rows(m: int, /) -> tuple[tuple[tuple[int, ...], ...], tuple[int, ...], int]:
    """(rows, dens, den) of the weight 1 / (i^k k!) of y_i = k, built once per order.

    Row i over D_i = dens[i] = i^K K!, K = m // i, has the integer entries
    rows[i][k] = i^(K-k) K!/k!, built by running products, and
    den = prod_i D_i; rows[0] is empty and dens[0] = 1. Everything is a
    tuple, so the cached rows are shared safely, also across the threads of
    ``selftest --jobs``. Orders above the partition enumeration cap are
    refused before any row is built and are not cached, so the cache holds
    at most PARTITION_LIST_MAX_M + 1 entries.
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
        rows.append(tuple(row))
    return tuple(rows), tuple(dens), math.prod(dens)


@functools.cache
def _unit_totals(m: int, /) -> tuple[tuple[int, ...], int]:
    """(t, den): the walk of the unit rows at order m, t[p] over den for the partitions with p parts.

    Walked once per order and kept, for every sign and n and for every
    report at phi = 0; an order past the cap is refused by
    :func:`_unit_rows` before anything is walked or cached.
    """
    rows, _, den = _unit_rows(m)
    return tuple(_walk_rows(rows)), den


def _weight_rows(m: int, phi: Sequence[int]) -> list[Sequence[int]]:
    """The rows of the weight C(k, phi_i) / (i^k k!) of y_i = k, over the dens of :func:`_unit_rows`.

    The unit rows at this order, with rows[i][k] multiplied by C(k, phi_i)
    where phi_i > 0, the form :func:`multisums.partitions._walk_rows`
    reads. Only those rows are new lists: the others are the shared
    tuples, and rows[0] is empty. Entries of phi past its end are 0. At
    k < phi_i the weight is 0, which removes partitions lacking a part
    that phi has; the walk skips those terms.
    """
    rows: list[Sequence[int]] = [[], *_unit_rows(m)[0][1:]]
    for i, least in enumerate(phi[:m], start=1):
        if least:
            row = rows[i]
            rows[i] = [0] * least + [math.comb(k, least) * row[k] for k in range(least, len(row))]
    return rows


def _class_sums(totals: Sequence[int], den: int, x: int) -> tuple[Fraction, Fraction]:
    """(even, odd): sum_p x^p t_p / den over the even and over the odd part counts p.

    The weights' sign and n are factors per part, so over a partition with
    p parts they multiply to x^p, x = +-n, and apply to each class at once:
    the j-th entry of either class takes (x^2)^j, and the odd class one more
    x. At x = +-1 no power is formed.
    """
    even, odd = totals[0::2], totals[1::2]
    if x * x != 1:
        even, odd = (map(mul, side, accumulate(repeat(x * x), mul, initial=1)) for side in (even, odd))
    return Fraction(sum(even), den), Fraction(x * sum(odd), den)


def _filtered(params: Mapping, sign: int) -> tuple[int, tuple[int, ...], tuple, tuple[int, int], int]:
    """(m, phi, (even, odd), (top, bottom), d) of a binomial-filtered partition sum, sign = +-1 per part.

    m is admitted, and phi, if given, is a vector of length m that
    :func:`verify_sweep` has checked; it defaults to 0.
    (even, odd) are the sums over the partitions with an even and an odd
    number of parts, read from the order's kept walk at phi = 0 and from
    a walk of phi's own rows otherwise. The weight's product over phi's
    nonzero entries, where C(phi_i, phi_i) = 1, is top / bottom, read from
    the unit rows as one integer product over one denominator and signed
    by sign^|phi|, and d = m - r with phi a partition of r.
    """
    m = params["m"]
    phi = params.get("phi", ())
    unit, dens, den = _unit_rows(m)
    parts = [(i, k) for i, k in enumerate(phi, start=1) if k]
    totals = _walk_rows(_weight_rows(m, phi)) if parts else _unit_totals(m)[0]
    top = sign ** sum(phi) * math.prod(unit[i][k] for i, k in parts)
    base = top, math.prod(dens[i] for i, _ in parts)
    return m, phi, _class_sums(totals, den, sign), base, m - sum(i * k for i, k in parts)


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
    m, _, sides, base, d = _filtered(params, -1)
    return {"m": m}, sum(sides), _alternating_closed(base, d), ""


def _lemma_3_2(params: Mapping) -> Checked:
    """Binomial-filtered alternating weights; full and restricted sums agree."""
    m, phi, sides, base, d = _filtered(params, -1)
    # Only y >= phi contributes; writing y = phi + z with z a partition of d,
    # C(y_i, phi_i) / y_i! = 1 / (phi_i! z_i!) splits each term in two.
    restricted = Fraction(*base) * sum(_class_sums(*_unit_totals(d), -1))
    closed = _alternating_closed(base, d)
    note = "lhs = (full sum, sum restricted to y_i >= phi_i)"
    return {"m": m, "phi": phi}, (sum(sides), restricted), (closed, closed), note


def _stirling_alternating(params: Mapping) -> Checked:
    """Alternating row sums of the first-kind triangle vanish past m = 1."""
    m = params["m"]
    row = [stirling_first_unsigned(m, k) for k in range(m + 1)]
    lhs = Fraction(sum(row[0::2]) - sum(row[1::2]))
    rhs = Fraction((-1 if m % 2 else 1) * math.factorial(m)) if m <= 1 else Fraction(0)
    return {"m": m}, lhs, rhs, ""


def _binomial_partition(params: Mapping) -> Checked:
    """Partition reduction with every power sum set to n equals C(n, m)."""
    n, m = params["n"], params["m"]
    return {"n": n, "m": m}, Fraction(elementary_from_power_sums([n] * m, m)[m]), Fraction(math.comb(n, m)), ""


def _product_identity(params: Mapping) -> Checked:
    """Full-window reduction (m = n - q + 1) collapses to the plain product.

    The product is the one Fraction prod num / prod den over the window's
    int pairs; the reader refuses index 0 of a negative power and a window
    outside an explicit sequence before any pair is read.
    """
    spec = _require_spec(params)
    q, n = params["q"], params["n"]
    m = n - q + 1
    values = list(_read(spec, q, n))
    rhs = Fraction(math.prod(num for num, _ in values), math.prod(den for _, den in values))
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
    m, _, sides, base, d = _filtered(params, 1)
    return {"m": m}, sides, _parity_closed(base, d, 0), _PARITY_NOTE


def _even_odd_binom(params: Mapping) -> Checked:
    """Binomial-filtered even/odd weight totals against the three-case closed form."""
    m, phi, sides, base, d = _filtered(params, 1)
    return {"m": m, "phi": phi}, sides, _parity_closed(base, d, sum(phi)), _PARITY_NOTE


def _even_odd_n(params: Mapping) -> Checked:
    """Even/odd split of the (n/i)-weighted partition sum, binomial closed form.

    Uses C(n+m-1, m) +/- (-1)^m C(n, m) over 2. A sometimes-printed variant
    with C(n-m+1, m) in the first slot fails direct evaluation (already at
    n=3, m=2) and is deliberately not implemented; the note records that.
    """
    m, n = params["m"], params["n"]
    lhs = _class_sums(*_unit_totals(m), n)
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


def _admit_walk(params: Mapping) -> int:
    """m within the order cap, then the partition terms the report walks itself.

    That is p(m - r) for a phi != 0 full side, phi a partition of r: the
    terms y = phi + z over the partitions z of m - r. Every other side,
    phi = 0 and LEMMA_3_2's restricted side included, reads the kept walk
    of its order, which the order cap bounds per process, and counts 0.
    """
    m = params["m"]
    _check_order(m)
    r = sum(map(mul, params.get("phi", ()), count(1)))
    return partition_count(m - r) if r else 0


def _admit_even_odd_n(params: Mapping) -> int:
    """n up to BINOMIAL_MAX, as the output grows with its digits; then the walk's admission."""
    n = params["n"]
    if n > BINOMIAL_MAX:
        raise ValueError(f"n={_int_text(n)} exceeds the EVEN_ODD_N cap {BINOMIAL_MAX}")
    return _admit_walk(params)


def _admit_stirling(params: Mapping) -> int:
    """m up to STIRLING_MAX_M; no side sums over partitions."""
    m = params["m"]
    if m > STIRLING_MAX_M:
        raise ValueError(f"m={_int_text(m)} exceeds the STIRLING_ALTERNATING cap {STIRLING_MAX_M}")
    return 0


def _admit_binomial(params: Mapping) -> int:
    """m and n up to BINOMIAL_MAX; no side sums over partitions."""
    m, n = params["m"], params["n"]
    if max(n, m) > BINOMIAL_MAX:
        text = f"n={_int_text(n)}, m={_int_text(m)}"
        raise ValueError(f"{text}: BINOMIAL_PARTITION takes n and m up to {BINOMIAL_MAX}")
    return 0


def _admit_product(params: Mapping) -> int:
    """q <= n and a window of at most PRODUCT_MAX_WINDOW terms; no side sums over partitions."""
    q, n = params["q"], params["n"]
    if n < q:
        raise ValueError("need n >= q")
    if n - q + 1 > PRODUCT_MAX_WINDOW:
        window = _int_text(n - q + 1)
        raise ValueError(f"window of {window} terms exceeds the PRODUCT_IDENTITY cap {PRODUCT_MAX_WINDOW}")
    return 0


def _admit_bridge(params: Mapping) -> int:
    """The brute-force tuples and order, then p(m), the terms of its own walk over rational rows.

    The recurrent side's C(n - q + m, m) tuples are never fewer than the
    multiple side's C(n - q + 1, m), and none are counted at m = 0 or
    n < q, so this refuses what the first brute-force sum would. The order
    is then capped at core.BRUTE_MAX_M, which bounds the brute sides at
    high orders on few tuples and the partition side over rational weights.
    """
    m, q, n = params["m"], params["q"], params["n"]
    _check_tuple_count(max(n - q + m, 0), m)
    _check_brute_order(m)
    return partition_count(m)


# identity -> (check, parameter names, admission); _admit reads the integer
# names, all but "spec" and "phi", in this order before the admission runs,
# and the identities taking "phi" expand it in verify_sweep
_REGISTRY: dict[IdentityId, tuple[Callable[[Mapping], Checked], tuple[str, ...], Callable[[Mapping], int]]] = {
    IdentityId.LEMMA_3_1: (_lemma_3_1, ("m",), _admit_walk),
    IdentityId.LEMMA_3_2: (_lemma_3_2, ("m", "phi"), _admit_walk),
    IdentityId.STIRLING_ALTERNATING: (_stirling_alternating, ("m",), _admit_stirling),
    IdentityId.BINOMIAL_PARTITION: (_binomial_partition, ("m", "n"), _admit_binomial),
    IdentityId.PRODUCT_IDENTITY: (_product_identity, ("spec", "q", "n"), _admit_product),
    IdentityId.RECURRENT_BRIDGE: (_recurrent_bridge, ("spec", "m", "q", "n"), _admit_bridge),
    IdentityId.EVEN_ODD_WEIGHTS: (_even_odd_weights, ("m",), _admit_walk),
    IdentityId.EVEN_ODD_BINOM: (_even_odd_binom, ("m", "phi"), _admit_walk),
    IdentityId.EVEN_ODD_N: (_even_odd_n, ("m", "n"), _admit_even_odd_n),
}


def verify(identity: IdentityId, params: Mapping) -> VerificationReport:
    """Run one identity check with the given parameters: the one-point :func:`verify_sweep`.

    For the identities taking phi, phi defaults to () and so is checked at
    0, where a sweep without phi would expand every phi. A parameter the
    identity does not take, or one past the identity's caps, raises
    ValueError before the check runs rather than being ignored.
    """
    identity = IdentityId(identity)
    if "phi" in _REGISTRY[identity][1]:
        params = {"phi": (), **params}
    return verify_sweep(identity, {}, params)[0]


def _with_phi(identity: IdentityId, params: Mapping) -> Mapping:
    """params with phi checked and padded to length m, for the identities taking phi."""
    if "phi" not in _REGISTRY[identity][1]:
        return params
    m = _require_int(params, "m")
    _check_order(m)  # before phi is padded to length m
    return dict(params, phi=_normalize_phi(params.get("phi", ()), m))


def _admit(identity: IdentityId, params: Mapping) -> int:
    """The identity's admission, once each integer parameter is read as an integer >= 0."""
    _, parameters, admit = _REGISTRY[identity]
    for name in parameters:
        if name not in ("spec", "phi"):
            _require_int(params, name)
    return admit(params)


def _report(identity: IdentityId, params: Mapping) -> VerificationReport:
    """The identity's check on parameters already admitted, and its verdict."""
    checked, lhs, rhs, note = _REGISTRY[identity][0](params)
    return VerificationReport(identity, checked, lhs, rhs, lhs == rhs, note)


def _count_values(values: Sequence[int]) -> int:
    """len(values), counted by arithmetic for a range, whose len() raises OverflowError past sys.maxsize."""
    if isinstance(values, range):
        return max(0, -((values.start - values.stop) // values.step))
    return len(values)


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
    the last point is refused before any report runs; pass ``range``
    objects so a refused grid costs nothing either. A range's points are
    counted by arithmetic, so one longer than sys.maxsize is refused too.
    The partition terms the reports walk themselves, as their admissions
    count them, may sum to at most SWEEP_MAX_PARTITIONS: p(m - r) for a
    report at order m whose phi != 0 is a partition of r, p(m) for a
    RECURRENT_BRIDGE report, and 0 for the sides that read the one kept
    walk of their order (phi = 0, LEMMA_3_2's restricted side,
    LEMMA_3_1, EVEN_ODD_WEIGHTS and EVEN_ODD_N). Every report then runs
    through one check path; :func:`verify` is the sweep of one point.
    """
    identity = IdentityId(identity)
    parameters = _REGISTRY[identity][1]
    swept = set(parameters) - {"phi", "spec"}
    unknown = sorted(set(ranges) - swept)
    if unknown:
        raise ValueError(f"{identity.value} sweeps only {sorted(swept)}, not {unknown}")
    points = math.prod(map(_count_values, ranges.values()))
    if points > SWEEP_MAX_POINTS:
        raise ValueError(f"sweep of {_int_text(points)} points exceeds the cap {SWEEP_MAX_POINTS}")
    base = dict(base or {})
    grid = [dict(base, **dict(zip(ranges, combo))) for combo in cartesian_product(*ranges.values())]
    unknown = sorted(set(grid[0]) - set(parameters)) if grid else []  # every point has the same names
    if unknown:
        raise ValueError(f"{identity.value} takes only {sorted(parameters)}, not {unknown}")
    if "phi" in parameters and "phi" not in base:
        reports = []
        for params in grid:
            # each phi is a partition of r <= m padded to length m, as _with_phi pads it; they are
            # counted first, as the count stops at the cap long before a large m is padded
            m = _require_int(params, "m")
            sizes = accumulate(map(partition_count, range(m + 1)), initial=len(reports))
            if any(size > SWEEP_MAX_POINTS for size in sizes):
                raise ValueError(f"sweep's phi expansion exceeds the cap of {SWEEP_MAX_POINTS} reports")
            reports += [dict(params, phi=sub + (0,) * (m - r)) for r in range(m + 1) for sub in enumerate_partitions(r)]
    else:
        reports = [_with_phi(identity, params) for params in grid]
    visited = sum(_admit(identity, params) for params in reports)
    if visited > SWEEP_MAX_PARTITIONS:
        raise ValueError(f"sweep visits {visited} partitions, more than the cap of {SWEEP_MAX_PARTITIONS}")
    return [_report(identity, params) for params in reports]
