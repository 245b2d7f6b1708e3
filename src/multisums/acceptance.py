"""Self-contained acceptance suite: ten numbered criteria, all exact.

Each criterion is a pure function returning pass/fail plus a short detail
string; `run_all` is what the CLI `selftest` subcommand executes. Random
grids use fixed seeds so every run checks the same cases; nothing here is
tolerance-based except the two wall-clock budgets, which are part of the
published contract.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction
from math import comb, factorial
from typing import Callable, Iterable, Sequence

from .core import (
    ExplicitSequence,
    IndexPower,
    SumProblem,
    brute_multiple_sum,
    power_sums,
    reduce_multiple_sum,
    reduce_symmetrized,
    symmetrized_multiple_sum,
    variation_expand,
    variation_recursive,
)
from .exact_arith import (
    PiPolynomial,
    _Record,
    _set,
    bernoulli,
    pi_poly_numeric,
    stirling_first_unsigned,
)
from .identities import IdentityId, verify_sweep
from .partitions import enumerate_partitions, partition_sum
from .polynomials import (
    coeff_ratio_from_roots,
    eval_factored_sum,
    generalized_binomial,
    mean_root_ratio,
    poly_derivative,
    poly_from_roots,
    sum_of_multiple_sums,
)
from .special_sums import (
    bernoulli_partition_sum,
    load_zeta_golden_table,
    multiple_power_sum,
    mzv_closed_form,
    mzv_even_reduced,
    mzv_limit_trend,
    mzv_partial_identity,
    stirling_via_multiple_sum,
    zeta_even,
)

__all__ = ["CriterionResult", "run_criterion", "run_all"]


class CriterionResult(_Record):
    """One acceptance criterion's verdict, its detail line and its run time."""

    __slots__ = ("number", "title", "passed", "detail", "seconds")

    def __init__(self, number: int, title: str, passed: bool, detail: str, seconds: float) -> None:
        _set(self, "number", number)
        _set(self, "title", title)
        _set(self, "passed", passed)
        _set(self, "detail", detail)
        _set(self, "seconds", seconds)

    def to_json_dict(self) -> dict:
        return {
            "criterion": self.number,
            "title": self.title,
            "passed": self.passed,
            "detail": self.detail,
        }


def _random_fraction(rng: random.Random, nonzero: bool = False) -> Fraction:
    num = rng.randint(-9, 9)
    while nonzero and num == 0:
        num = rng.randint(-9, 9)
    return Fraction(num, rng.randint(1, 9))


def _random_explicit(rng: random.Random, lo: int, hi: int, nonzero: bool = False) -> ExplicitSequence:
    return ExplicitSequence([_random_fraction(rng, nonzero) for _ in range(hi - lo + 1)], base=lo)


def _reduction_oracle(sums: Sequence[Fraction], m: int) -> Fraction:
    """The paper's formula term by term: (-1)^m sum_y prod_i (-S_i / i)^(y_i) / y_i!."""
    value = partition_sum(m, lambda i, k: (-sums[i - 1] / i) ** k / factorial(k))
    return -value if m % 2 else value


def _criterion_1() -> tuple[bool, str]:
    """Reduction equals brute enumeration and the partition formula across a seeded grid."""
    rng = random.Random(1001)
    started = time.perf_counter()
    checks = 0
    for _ in range(20):
        spec = _random_explicit(rng, 1, 9)
        for m in range(6):
            for q in (1, 2):
                for n in range(q - 1, 10):
                    lhs = reduce_multiple_sum(spec, m, q, n)
                    rhs = brute_multiple_sum(SumProblem((spec,) * m, q, n))
                    if lhs != rhs:
                        return False, f"mismatch at m={m} q={q} n={n}: {lhs} != {rhs}"
                    checks += 1
                oracle = _reduction_oracle(power_sums(spec, q, 9, m), m)
                if oracle != lhs:
                    return False, f"partition formula at m={m} q={q} n=9: {oracle} != {lhs}"
    elapsed = time.perf_counter() - started
    if elapsed >= 5.0:
        return False, f"{checks} checks exact but took {elapsed:.2f}s (budget 5s)"
    # no timing in the detail: selftest stdout must be byte-stable across runs
    return True, f"{checks} grid points exact within the 5s budget"


# Hand-expanded low-order reduction coefficients, keyed by multiplicity
# vector; value multiplies prod_i S_i^(y_i).
_GOLDEN_COEFFS = {
    1: {(1,): Fraction(1)},
    2: {(2, 0): Fraction(1, 2), (0, 1): Fraction(-1, 2)},
    3: {(3, 0, 0): Fraction(1, 6), (1, 1, 0): Fraction(-1, 2), (0, 0, 1): Fraction(1, 3)},
    4: {
        (4, 0, 0, 0): Fraction(1, 24),
        (2, 1, 0, 0): Fraction(-1, 4),
        (1, 0, 1, 0): Fraction(1, 3),
        (0, 2, 0, 0): Fraction(1, 8),
        (0, 0, 0, 1): Fraction(-1, 4),
    },
}


def _criterion_2() -> tuple[bool, str]:
    """Regenerated order-1..4 coefficient tables match the golden ones."""
    for m, golden in _GOLDEN_COEFFS.items():
        regenerated = {}
        for y in enumerate_partitions(m):
            # Weight every other multiplicity pattern 0, so the partition
            # formula keeps the coefficient of prod_i S_i^(y_i) alone.
            def weight(i: int, k: int, y=y) -> Fraction:
                return Fraction((-1) ** k, i**k * factorial(k)) if k == y[i - 1] else Fraction(0)

            coeff = partition_sum(m, weight)
            regenerated[y] = -coeff if m % 2 else coeff
        if regenerated != golden:
            return False, f"order {m} table differs: {regenerated} != {golden}"
    total = sum(len(g) for g in _GOLDEN_COEFFS.values())
    return True, f"{total} coefficients across orders 1..4 match"


def _criterion_3() -> tuple[bool, str]:
    """Window-extension expansion and its recursive form equal brute force."""
    rng = random.Random(1002)
    checks = 0
    for m in range(1, 5):
        # expansion terms reference indices down to n-m+2, so keep n >= m-1
        for n in range(max(1, m - 1), 9):
            specs = tuple(_random_explicit(rng, 1, 9) for _ in range(m))
            problem = SumProblem(specs, 1, n)
            target = brute_multiple_sum(SumProblem(specs, 1, n + 1))
            for cutoff in range(m + 1):
                expanded = variation_expand(problem, cutoff)
                recursive = variation_recursive(problem, cutoff)
                if expanded != target or recursive != target:
                    return False, (
                        f"m={m} n={n} cutoff={cutoff}: "
                        f"expand {expanded}, recursive {recursive}, brute {target}"
                    )
                checks += 1
    return True, f"{checks} cutoff evaluations exact"


def _criterion_4() -> tuple[bool, str]:
    """Symmetrized brute equals set-partition reduction; identical case scales by m!."""
    rng = random.Random(1003)
    checks = 0
    for m in range(5):
        for n in range(1, 7):
            specs = tuple(_random_explicit(rng, 1, 6) for _ in range(m))
            lhs = symmetrized_multiple_sum(specs, 1, n)
            rhs = reduce_symmetrized(specs, 1, n)
            if lhs != rhs:
                return False, f"distinct specs m={m} n={n}: {lhs} != {rhs}"
            checks += 1
            same = _random_explicit(rng, 1, 6)
            sym = symmetrized_multiple_sum((same,) * m, 1, n)
            scaled = factorial(m) * reduce_multiple_sum(same, m, 1, n)
            if sym != scaled:
                return False, f"identical specs m={m} n={n}: {sym} != {scaled}"
            checks += 1
    return True, f"{checks} symmetrized evaluations exact"


def _criterion_5() -> tuple[bool, str]:
    """Coefficient ratios from partitions match expanded products; mean ratio is derivative-invariant."""
    rng = random.Random(1004)
    ratio_checks = 0
    mean_checks = 0
    for _ in range(200):
        degree = rng.randint(1, 6)
        roots = [_random_fraction(rng) for _ in range(degree)]
        poly = poly_from_roots(roots)
        lead = poly.coeffs[degree]
        for m in range(degree + 1):
            lhs = coeff_ratio_from_roots(roots, m)
            rhs = poly.coeffs[degree - m] / lead
            if lhs != rhs:
                return False, f"roots={roots} m={m}: {lhs} != {rhs}"
            ratio_checks += 1
        base_mean = mean_root_ratio(poly)
        for k in range(degree):
            mean = mean_root_ratio(poly_derivative(poly, k))
            if mean != base_mean:
                return False, f"roots={roots} derivative order {k}: {mean} != {base_mean}"
            mean_checks += 1
    return True, f"{ratio_checks} ratio checks, {mean_checks} mean checks, all exact"


def _criterion_6() -> tuple[bool, str]:
    """Generalized binomial and the product corollaries, plus the (n+1)! case."""
    rng = random.Random(1005)
    checks = 0
    for length in range(1, 9):
        for _ in range(5):
            a_values = [_random_fraction(rng) for _ in range(length)]
            b_values = [_random_fraction(rng, nonzero=True) for _ in range(length)]
            direct, rebuilt = generalized_binomial(a_values, b_values)
            if direct != rebuilt:
                return False, f"length {length}: {direct} != {rebuilt}"
            checks += 1
    for _ in range(40):
        degree = rng.randint(1, 6)
        roots = [_random_fraction(rng) for _ in range(degree)]
        x = _random_fraction(rng)
        lhs, rhs = eval_factored_sum(roots, x)
        if lhs != rhs:
            return False, f"factored sum roots={roots} x={x}: {lhs} != {rhs}"
        checks += 1
    index = IndexPower(1)
    for n in range(9):
        total = sum_of_multiple_sums(index, 1, n)
        if total != factorial(n + 1):
            return False, f"n={n}: sum of multiple sums {total} != {factorial(n + 1)}"
        checks += 1
    for _ in range(10):
        n = rng.randint(1, 6)
        seq = _random_explicit(rng, 1, n)
        total = sum_of_multiple_sums(seq, 1, n)
        product = Fraction(1)
        for j in range(1, n + 1):
            product *= 1 + seq.values[j - 1]
        if total != product:
            return False, f"random product case n={n}: {total} != {product}"
        checks += 1
    return True, f"{checks} equalities exact"


def _criterion_7() -> tuple[bool, str]:
    """Multiple power sums: brute agreement, printed values, Stirling bridge."""
    checks = 0
    for p in range(4):
        index = IndexPower(p)
        for n in range(9):
            for m in range(min(3, n) + 1):
                lhs = multiple_power_sum(m, n, p)
                rhs = brute_multiple_sum(SumProblem((index,) * m, 1, n))
                if lhs != rhs:
                    return False, f"m={m} n={n} p={p}: {lhs} != {rhs}"
                checks += 1
    frozen = [((2, 4, 1), Fraction(35)), ((2, 3, 2), Fraction(49)), ((3, 4, 1), Fraction(50))]
    for (m, n, p), expected in frozen:
        got = multiple_power_sum(m, n, p)
        if got != expected:
            return False, f"printed case m={m} n={n} p={p}: {got} != {expected}"
        checks += 1
    for n in range(10):
        for m in range(n + 1):
            lhs = stirling_via_multiple_sum(m, n)
            rhs = stirling_first_unsigned(n + 1, n + 1 - m)
            if lhs != rhs:
                return False, f"Stirling bridge m={m} n={n}: {lhs} != {rhs}"
            checks += 1
    return True, f"{checks} power-sum checks exact"


_MZV_GRID = [(1, 6), (2, 4), (3, 3)]  # (p, max m)

_ANCHORS = [
    # (m, p, printed 10-digit string, 9-digit rounding)
    (4, 1, "0.02614784782", "0.0261478478"),
    (3, 2, "0.001357063251", "0.00135706325"),
    (3, 3, "0.00002735551966", "0.0000273555197"),
]


def _bernoulli_closed_form(m: int, p: int) -> Fraction:
    if p == 1:
        return Fraction(1, 2 ** (2 * m) * factorial(2 * m + 1))
    if p == 2:
        value = Fraction(2, 2 ** (2 * m) * factorial(4 * m + 2))
        return -value if m % 2 else value
    if p == 3:
        return Fraction(6, factorial(6 * m + 3))
    raise ValueError("closed form known for p in {1, 2, 3} only")


def _mzv_oracle(m: int, p: int) -> PiPolynomial:
    """(-1)^m sum_y prod_i [(-1)^(y_i) / (y_i! i^(y_i))] zeta(2ip)^(y_i), term by term.

    zeta(2ip)^(y_i) is z_i^(y_i) pi^(2ip y_i), so every term carries
    pi^(2pm): the sum runs over the rational coefficients z_i alone.
    """
    value = partition_sum(
        m,
        lambda i, k: zeta_even(i * p).coefficient ** k * Fraction((-1) ** k, factorial(k) * i**k),
    )
    return PiPolynomial(2 * p * m, -value if m % 2 else value)


def _bernoulli_oracle(m: int, p: int) -> Fraction:
    """sum_y prod_i (1/y_i!) (B_{2ip} / ((2i) (2ip)!))^(y_i), term by term."""
    return partition_sum(m, lambda i, k: (bernoulli(2 * i * p) / (2 * i * factorial(2 * i * p))) ** k
                         / factorial(k))


def _criterion_8() -> tuple[bool, str]:
    """Even zeta table, depth reductions vs closed forms, decimal anchors."""
    checks = 0
    golden = load_zeta_golden_table()
    if sorted(golden) != [2, 4, 6, 8, 10, 12, 14, 16]:
        return False, f"golden table arguments unexpected: {sorted(golden)}"
    for arg, coeff in golden.items():
        value = zeta_even(arg // 2)
        if value != PiPolynomial(arg, coeff):
            return False, f"zeta({arg}) = {value} != {coeff} * pi^{arg}"
        checks += 1
    for p, max_m in _MZV_GRID:
        for m in range(max_m + 1):
            reduced = mzv_even_reduced(m, p)
            closed = mzv_closed_form(m, p)
            if reduced != closed:
                return False, f"depth reduction m={m} p={p}: {reduced} != {closed}"
            oracle = _mzv_oracle(m, p)
            if reduced != oracle:
                return False, f"depth reduction m={m} p={p}: {reduced} != partition formula {oracle}"
            checks += 1
            bps = bernoulli_partition_sum(m, p)
            expected = _bernoulli_closed_form(m, p)
            if bps != expected:
                return False, f"weight sum m={m} p={p}: {bps} != {expected}"
            oracle = _bernoulli_oracle(m, p)
            if bps != oracle:
                return False, f"weight sum m={m} p={p}: {bps} != partition formula {oracle}"
            checks += 1
    if bernoulli_partition_sum(1, 1) != Fraction(1, 24):
        return False, "printed value 1/24 not reproduced"
    if bernoulli_partition_sum(2, 1) != Fraction(1, 1920):
        return False, "printed value 1/1920 not reproduced"
    checks += 2
    # second route for depth 2: binomial-Bernoulli bracket, any p <= 4
    for p in range(1, 5):
        coeff = Fraction(2 ** (4 * p), 4 * factorial(4 * p)) * (
            Fraction(comb(4 * p, 2 * p)) * bernoulli(2 * p) ** 2 / 2 + bernoulli(4 * p)
        )
        if mzv_even_reduced(2, p) != PiPolynomial(4 * p, coeff):
            return False, f"depth-2 bracket route p={p} disagrees"
        checks += 1
    for m, p, printed, nine in _ANCHORS:
        value = mzv_even_reduced(m, p)
        if pi_poly_numeric(value, 10) != printed:
            return False, f"anchor m={m} p={p}: {pi_poly_numeric(value, 10)} != {printed}"
        if pi_poly_numeric(value, 9) != nine:
            return False, f"anchor m={m} p={p} at 9 digits: {pi_poly_numeric(value, 9)} != {nine}"
        checks += 2
    return True, f"{checks} zeta-layer checks exact (anchors to 9 significant digits)"


def _criterion_9() -> tuple[bool, str]:
    """Finite product identity exactly; tail gap strictly shrinking in the exponent."""
    checks = 0
    for p in range(1, 5):
        for n in range(1, 13):
            lhs, rhs = mzv_partial_identity(n, p)
            if lhs != rhs:
                return False, f"partial identity n={n} p={p}: {lhs} != {rhs}"
            checks += 1
    exponents = [4, 6, 8, 10, 12]
    gaps = [float(g) for g in mzv_limit_trend(exponents, 10_000)]
    for earlier, later in zip(gaps, gaps[1:]):
        if not later < earlier:
            return False, f"gaps not strictly decreasing: {gaps}"
    if not gaps[-1] < 1e-3:
        return False, f"final gap {gaps[-1]} not below 1e-3"
    checks += len(gaps)
    return True, f"{checks} checks; gaps {gaps[0]:.2e} down to {gaps[-1]:.2e}"


def _criterion_10() -> tuple[bool, str]:
    """Registry sweeps across every identity at contract ranges."""
    rng = random.Random(1006)  # read in table order: 35 bridge specs, then 21 product specs
    # (identity, swept ranges, fixed parameters); no ranges is the one point of the fixed ones
    sweeps = [
        (IdentityId.LEMMA_3_1, {"m": range(13)}, {}),
        (IdentityId.STIRLING_ALTERNATING, {"m": range(13)}, {}),
        (IdentityId.LEMMA_3_2, {"m": range(7)}, {}),
        (IdentityId.EVEN_ODD_BINOM, {"m": range(7)}, {}),
        (IdentityId.EVEN_ODD_WEIGHTS, {"m": range(13)}, {}),
        *(
            (IdentityId.RECURRENT_BRIDGE, {}, {"spec": _random_explicit(rng, 1, 7), "m": m, "q": 1, "n": n})
            for m in range(5)
            for n in range(1, 8)
        ),
        (IdentityId.BINOMIAL_PARTITION, {"n": range(13), "m": range(13)}, {}),
        *(
            (
                IdentityId.PRODUCT_IDENTITY,
                {},
                {"spec": _random_explicit(rng, q, q + width, nonzero=True), "q": q, "n": q + width},
            )
            for q in (0, 1, 2)
            for width in range(7)
        ),
        *((IdentityId.EVEN_ODD_N, {"m": range(n + 1)}, {"n": n}) for n in range(11)),
    ]
    counts: dict[str, int] = {}
    bad = []
    for identity, ranges, base in sweeps:
        reports = verify_sweep(identity, ranges, base)
        counts[identity.value] = counts.get(identity.value, 0) + len(reports)
        bad += [r for r in reports if not r.equal]
        unflagged = [r for r in reports if identity is IdentityId.EVEN_ODD_N and "C(n-m+1, m)" not in r.note]
        if unflagged:
            n, m = unflagged[0].params["n"], unflagged[0].params["m"]
            return False, f"EVEN_ODD_N n={n} m={m} report does not flag the printed variant"
    if bad:
        worst = bad[0]
        return False, f"{len(bad)} failing reports, first {worst.identity.value} {worst.params}"
    total = sum(counts.values())
    summary = ", ".join(f"{name} {count}" for name, count in counts.items())
    return True, f"{total} reports all equal ({summary})"


_CRITERIA: list[tuple[int, str, Callable[[], tuple[bool, str]]]] = [
    (1, "reduction equals brute enumeration", _criterion_1),
    (2, "low-order coefficient tables", _criterion_2),
    (3, "window-extension expansions", _criterion_3),
    (4, "symmetrized sums via set partitions", _criterion_4),
    (5, "coefficient ratios and derivative means", _criterion_5),
    (6, "generalized binomial and product forms", _criterion_6),
    (7, "integer power sums and Stirling bridge", _criterion_7),
    (8, "even zeta reductions and decimal anchors", _criterion_8),
    (9, "partial products and tail trend", _criterion_9),
    (10, "identity registry sweeps", _criterion_10),
]


def run_criterion(number: int) -> CriterionResult:
    for num, title, func in _CRITERIA:
        if num == number:
            started = time.perf_counter()
            try:
                passed, detail = func()
            except Exception as exc:  # surface, never hide
                passed, detail = False, f"raised {type(exc).__name__}: {exc}"
            elapsed = time.perf_counter() - started
            return CriterionResult(num, title, passed, detail, elapsed)
    raise ValueError(f"no criterion numbered {number}")


def run_all(numbers: Iterable[int] | None = None, jobs: int | None = None) -> list[CriterionResult]:
    wanted = list(numbers) if numbers is not None else [num for num, _, _ in _CRITERIA]
    for number in wanted:
        if number not in {num for num, _, _ in _CRITERIA}:
            raise ValueError(f"no criterion numbered {number}")
    if jobs and jobs > 1:
        from concurrent.futures import ThreadPoolExecutor  # only --jobs pays for the import

        with ThreadPoolExecutor(max_workers=jobs) as pool:
            return list(pool.map(run_criterion, wanted))
    return [run_criterion(number) for number in wanted]
