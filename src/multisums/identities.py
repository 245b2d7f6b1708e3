"""Registry of partition identities with exact machine-checkable verdicts.

Each identity computes its left side and right side by genuinely different
routes and reports structural equality of exact values. Identities whose
statement is a pair of equations carry both sides as ordered pairs, so
``equal`` is still literally ``lhs == rhs``.

Registry keys are opaque stable strings (the CLI wire format). The registry
is one table: per identity, a check returning (params, lhs, rhs, note), the
parameter names it takes, and whether its left side sums over the partitions
of m (which the sweep budget counts). The identities taking "phi" are those
whose parameter names include it. Lemma 3.1 and EVEN_ODD_WEIGHTS are the
phi = 0 cases of LEMMA_3_2 and EVEN_ODD_BINOM, so each pair shares one
weight, (+-1)^k C(k, phi_i) / (i^k k!), and one closed form.

Here the partition sum is the left side under test, so it is evaluated term
by term with :func:`multisums.partitions.partition_sum` (or its even/odd
split), never by the recurrence that the reductions use.
"""

from __future__ import annotations

import enum
import math
from fractions import Fraction
from itertools import product as cartesian_product
from typing import Callable, Mapping, Sequence, Union

from .core import (
    SequenceSpec,
    SumProblem,
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
from .partitions import _check_order, enumerate_partitions, parity_partition_sums, partition_count, partition_sum

__all__ = ["IdentityId", "VerificationReport", "verify", "verify_sweep", "SWEEP_MAX_POINTS", "SWEEP_MAX_PARTITIONS"]

SWEEP_MAX_POINTS = 10_000  # grid points, and reports after phi expansion, of one verify_sweep
# p(m) summed over the reports of one verify_sweep, a report at order m summing over p(m) partitions
SWEEP_MAX_PARTITIONS = 2_000_000


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


def _weight(phi: tuple[int, ...], signed: bool) -> Callable[[int, int], Fraction]:
    """(+-1)^k C(k, phi_i) / (i^k k!), the weight of y_i = k.

    At phi = 0 it is Lemma 3.1's weight (signed) and EVEN_ODD_WEIGHTS'
    (unsigned). At k = 0 it is 0 when phi_i > 0, which removes partitions
    lacking a part that phi has.
    """

    def weight(i: int, k: int) -> Fraction:
        value = Fraction(math.comb(k, phi[i - 1]), i**k * math.factorial(k))
        return -value if signed and k % 2 else value

    return weight


def _filtered(params: Mapping, signed: bool) -> tuple[int, tuple[int, ...], Callable, Fraction, int]:
    """(m, phi, weight, base, d) of a binomial-filtered partition sum.

    phi defaults to 0. base is the weight's product over phi's nonzero
    entries, where C(phi_i, phi_i) = 1, and d = m - r with phi a partition of r.
    """
    m = _require_int(params, "m", 0)
    phi = _normalize_phi(params.get("phi", ()), m)
    weight = _weight(phi, signed)
    base = math.prod((weight(i, k) for i, k in enumerate(phi, start=1) if k), start=Fraction(1))
    return m, phi, weight, base, m - sum(i * k for i, k in enumerate(phi, start=1))


def _alternating_closed(base: Fraction, d: int) -> Fraction:
    """Lemma 3.2's closed form, base (-1)^d for d <= 1 and 0 above; Lemma 3.1's at phi = 0."""
    if d > 1:
        return Fraction(0)
    return -base if d else base


def _parity_closed(base: Fraction, d: int, parts: int) -> tuple[Fraction, Fraction]:
    """EVEN_ODD_BINOM's three-case closed form (even, odd); EVEN_ODD_WEIGHTS' at phi = 0.

    For d <= 1 all of base lands on the side of the parity of phi's part
    count plus d; above, it splits in halves.
    """
    if d > 1:
        return base / 2, base / 2
    sides = [Fraction(0), Fraction(0)]
    sides[(parts + d) % 2] = base
    return sides[0], sides[1]


_PARITY_NOTE = "lhs = (even-partition sum, odd-partition sum)"


def _lemma_3_1(params: Mapping) -> Checked:
    """Alternating partition weights collapse: sum = (-1)^m for m <= 1, else 0."""
    m, _, weight, base, d = _filtered(params, signed=True)
    return {"m": m}, partition_sum(m, weight), _alternating_closed(base, d), ""


def _lemma_3_2(params: Mapping) -> Checked:
    """Binomial-filtered alternating weights; full and restricted sums agree."""
    m, phi, weight, base, d = _filtered(params, signed=True)
    # Only y >= phi contributes; writing y = phi + z with z a partition of d,
    # C(y_i, phi_i) / y_i! = 1 / (phi_i! z_i!) splits each term in two.
    restricted = base * partition_sum(d, _weight((0,) * d, signed=True))
    closed = _alternating_closed(base, d)
    note = "lhs = (full sum, sum restricted to y_i >= phi_i)"
    return {"m": m, "phi": phi}, (partition_sum(m, weight), restricted), (closed, closed), note


def _stirling_alternating(params: Mapping) -> Checked:
    """Alternating row sums of the first-kind triangle vanish past m = 1."""
    m = _require_int(params, "m", 0)
    lhs = Fraction(0)
    for k in range(m + 1):
        term = Fraction(stirling_first_unsigned(m, k))
        lhs += -term if k % 2 else term
    rhs = Fraction((-1 if m % 2 else 1) * math.factorial(m)) if m <= 1 else Fraction(0)
    return {"m": m}, lhs, rhs, ""


def _binomial_partition(params: Mapping) -> Checked:
    """Partition reduction with every power sum set to n equals C(n, m)."""
    m = _require_int(params, "m", 0)
    n = _require_int(params, "n", 0)
    return {"n": n, "m": m}, Fraction(elementary_from_power_sums([n] * m, m)[m]), Fraction(math.comb(n, m)), ""


def _product_identity(params: Mapping) -> Checked:
    """Full-window reduction (m = n - q + 1) collapses to the plain product."""
    spec = _require_spec(params)
    q = _require_int(params, "q", 0)
    n = _require_int(params, "n", 0)
    if n < q:
        raise ValueError("need n >= q")
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
    m = _require_int(params, "m", 0)
    q = _require_int(params, "q", 0)
    n = _require_int(params, "n", 0)
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
    m, _, weight, base, d = _filtered(params, signed=False)
    return {"m": m}, parity_partition_sums(m, weight), _parity_closed(base, d, 0), _PARITY_NOTE


def _even_odd_binom(params: Mapping) -> Checked:
    """Binomial-filtered even/odd weight totals against the three-case closed form."""
    m, phi, weight, base, d = _filtered(params, signed=False)
    return {"m": m, "phi": phi}, parity_partition_sums(m, weight), _parity_closed(base, d, sum(phi)), _PARITY_NOTE


def _even_odd_n(params: Mapping) -> Checked:
    """Even/odd split of the (n/i)-weighted partition sum, binomial closed form.

    Uses C(n+m-1, m) +/- (-1)^m C(n, m) over 2. A sometimes-printed variant
    with C(n-m+1, m) in the first slot fails direct evaluation (already at
    n=3, m=2) and is deliberately not implemented; the note records that.
    """
    m = _require_int(params, "m", 0)
    n = _require_int(params, "n", 0)

    def weight(i: int, mult: int) -> Fraction:
        return Fraction(n, i) ** mult / math.factorial(mult)

    lhs = parity_partition_sums(m, weight)
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


# identity -> (check, parameter names, whether the left side sums over the
# partitions of m); the identities taking "phi" expand it in verify_sweep
_REGISTRY: dict[IdentityId, tuple[Callable[[Mapping], Checked], tuple[str, ...], bool]] = {
    IdentityId.LEMMA_3_1: (_lemma_3_1, ("m",), True),
    IdentityId.LEMMA_3_2: (_lemma_3_2, ("m", "phi"), True),
    IdentityId.STIRLING_ALTERNATING: (_stirling_alternating, ("m",), False),
    IdentityId.BINOMIAL_PARTITION: (_binomial_partition, ("n", "m"), False),
    IdentityId.PRODUCT_IDENTITY: (_product_identity, ("spec", "q", "n"), False),
    IdentityId.RECURRENT_BRIDGE: (_recurrent_bridge, ("spec", "m", "q", "n"), True),
    IdentityId.EVEN_ODD_WEIGHTS: (_even_odd_weights, ("m",), True),
    IdentityId.EVEN_ODD_BINOM: (_even_odd_binom, ("m", "phi"), True),
    IdentityId.EVEN_ODD_N: (_even_odd_n, ("n", "m"), True),
}


def verify(identity: IdentityId, params: Mapping) -> VerificationReport:
    """Run one identity check with the given parameters.

    A parameter the identity does not take raises ValueError rather than
    being ignored.
    """
    identity = IdentityId(identity)
    check, parameters, _ = _REGISTRY[identity]
    unknown = sorted(set(params) - set(parameters))
    if unknown:
        raise ValueError(f"{identity.value} takes only {sorted(parameters)}, not {unknown}")
    checked, lhs, rhs, note = check(params)
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
    SWEEP_MAX_POINTS reports are allowed, and for the identities whose left
    side sums over the partitions of m, at most SWEEP_MAX_PARTITIONS
    partitions: p(m) per report at order m. All are counted before any check
    runs; pass ``range`` objects so a refused sweep costs nothing.
    """
    identity = IdentityId(identity)
    _, parameters, sums_partitions = _REGISTRY[identity]
    swept = set(parameters) - {"phi", "spec"}
    unknown = sorted(set(ranges) - swept)
    if unknown:
        raise ValueError(f"{identity.value} sweeps only {sorted(swept)}, not {unknown}")
    points = math.prod(len(values) for values in ranges.values())
    if points > SWEEP_MAX_POINTS:
        raise ValueError(f"sweep of {points} points exceeds the cap {SWEEP_MAX_POINTS}")
    base = dict(base or {})
    names = list(ranges.keys())
    grid = [dict(base, **dict(zip(names, combo))) for combo in cartesian_product(*ranges.values())]
    expand_phi = "phi" in parameters and "phi" not in base
    size = visited = 0
    for params in grid if sums_partitions else ():
        m = _require_int(params, "m", 0)
        at_m = 1
        if expand_phi:
            at_m = r = 0
            while r <= m and size + at_m <= SWEEP_MAX_POINTS:
                at_m += partition_count(r)
                r += 1
            if size + at_m > SWEEP_MAX_POINTS:
                raise ValueError(f"sweep's phi expansion exceeds the cap of {SWEEP_MAX_POINTS} reports")
        _check_order(m)
        size += at_m
        visited += at_m * partition_count(m)
    if visited > SWEEP_MAX_PARTITIONS:
        raise ValueError(f"sweep visits {visited} partitions, more than the cap of {SWEEP_MAX_PARTITIONS}")
    reports: list[VerificationReport] = []
    for params in grid:
        if expand_phi:
            m = params["m"]
            for r in range(m + 1):
                for sub in enumerate_partitions(r):
                    reports.append(verify(identity, dict(params, phi=sub + (0,) * (m - r))))
        else:
            reports.append(verify(identity, params))
    return reports
