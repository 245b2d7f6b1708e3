import itertools
import math
import sys
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from multisums.core import ExplicitSequence, IndexPower, eval_sequence
from multisums import identities
from multisums.identities import IdentityId, verify, verify_sweep
from multisums.partitions import _walk_rows, enumerate_partitions, parity_partition_sums, partition_sum

N = IndexPower(1)


def test_lemma_3_1_values():
    assert verify(IdentityId.LEMMA_3_1, {"m": 0}).lhs == 1
    assert verify(IdentityId.LEMMA_3_1, {"m": 1}).lhs == -1
    report = verify(IdentityId.LEMMA_3_1, {"m": 2})
    assert report.equal and report.lhs == 0
    for m in range(13):
        assert verify(IdentityId.LEMMA_3_1, {"m": m}).equal


def test_lemma_3_2_cases():
    # phi a partition of r=2 as one part 2, checked at m=3 (m-r=1 case)
    report = verify(IdentityId.LEMMA_3_2, {"m": 3, "phi": (0, 1, 0)})
    assert report.equal
    full, restricted = report.lhs
    assert full == restricted == Fraction(1, 2)
    # m-r >= 2 collapses to zero
    report = verify(IdentityId.LEMMA_3_2, {"m": 4, "phi": (0, 1, 0, 0)})
    assert report.equal and report.lhs == (0, 0)
    # phi = 0 reduces to the unfiltered alternating sum
    report = verify(IdentityId.LEMMA_3_2, {"m": 1, "phi": ()})
    assert report.equal and report.rhs == (-1, -1)
    with pytest.raises(ValueError):
        verify(IdentityId.LEMMA_3_2, {"m": 1, "phi": (0, 1)})  # r=2 > m
    with pytest.raises(ValueError):
        verify(IdentityId.LEMMA_3_2, {"m": 2, "phi": (-1, 0)})


def test_stirling_alternating():
    for m in range(13):
        report = verify(IdentityId.STIRLING_ALTERNATING, {"m": m})
        assert report.equal
    assert verify(IdentityId.STIRLING_ALTERNATING, {"m": 1}).rhs == -1


def test_binomial_partition():
    report = verify(IdentityId.BINOMIAL_PARTITION, {"n": 3, "m": 2})
    assert report.equal and report.lhs == 3
    # the printed special cases: n=1, n=2, n=m
    for m in range(7):
        assert verify(IdentityId.BINOMIAL_PARTITION, {"n": 1, "m": m}).equal
        assert verify(IdentityId.BINOMIAL_PARTITION, {"n": 2, "m": m}).equal
        assert verify(IdentityId.BINOMIAL_PARTITION, {"n": m, "m": m}).lhs == 1


@pytest.mark.parametrize("n, m", [(7, 300), (300, 150), (0, 200)])
def test_binomial_partition_beyond_the_acceptance_orders(n, m):
    # Newton's recurrence on the integer sums [n] * m, far past the sweep's m <= 12
    report = verify(IdentityId.BINOMIAL_PARTITION, {"n": n, "m": m})
    assert report.equal
    assert report.lhs == math.comb(n, m)
    assert type(report.lhs) is Fraction


def test_binomial_partition_cap():
    cap = identities.BINOMIAL_MAX
    assert verify(IdentityId.BINOMIAL_PARTITION, {"n": cap, "m": 3}).equal
    assert verify(IdentityId.BINOMIAL_PARTITION, {"n": 5, "m": cap}).equal
    for n, m in ((cap + 1, 3), (5, cap + 1), (10**100, 2)):
        with pytest.raises(ValueError, match=f"BINOMIAL_PARTITION takes n and m up to {cap}"):
            verify(IdentityId.BINOMIAL_PARTITION, {"n": n, "m": m})


def test_even_odd_n_cap():
    cap = identities.BINOMIAL_MAX
    assert verify(IdentityId.EVEN_ODD_N, {"n": cap, "m": 7}).equal
    for n, m in ((cap + 1, 3), (10**100, 0)):
        with pytest.raises(ValueError, match=f"^n={n} exceeds the EVEN_ODD_N cap {cap}$"):
            verify(IdentityId.EVEN_ODD_N, {"n": n, "m": m})
    # n is refused before the order cap is read
    with pytest.raises(ValueError, match="EVEN_ODD_N cap"):
        verify(IdentityId.EVEN_ODD_N, {"n": cap + 1, "m": 51})


def test_product_identity_window_cap():
    cap = identities.PRODUCT_MAX_WINDOW
    assert verify(IdentityId.PRODUCT_IDENTITY, {"spec": N, "q": 1, "n": cap}).equal
    assert verify(IdentityId.PRODUCT_IDENTITY, {"spec": N, "q": 7, "n": cap + 6}).equal
    for q, n in ((1, cap + 1), (7, cap + 7), (0, 10**12)):
        with pytest.raises(ValueError, match=f"window of {n - q + 1} terms exceeds the PRODUCT_IDENTITY cap {cap}"):
            verify(IdentityId.PRODUCT_IDENTITY, {"spec": N, "q": q, "n": n})


def test_product_identity():
    report = verify(IdentityId.PRODUCT_IDENTITY, {"spec": N, "q": 2, "n": 5})
    assert report.equal and report.lhs == 2 * 3 * 4 * 5
    seq = ExplicitSequence([Fraction(1, 2), Fraction(-3), Fraction(2, 7)], base=0)
    report = verify(IdentityId.PRODUCT_IDENTITY, {"spec": seq, "q": 0, "n": 2})
    assert report.equal and report.lhs == Fraction(1, 2) * -3 * Fraction(2, 7)
    with pytest.raises(ValueError):
        verify(IdentityId.PRODUCT_IDENTITY, {"spec": N, "q": 3, "n": 2})


@pytest.mark.parametrize(
    ("spec", "q", "n", "outside", "message"),
    [
        (IndexPower(-1), 0, 4, 0, "index 0 is not valid for a negative exponent"),
        (ExplicitSequence([2, 3, 5], base=1), 0, 2, 0, r"index 0 outside explicit range \[1, 3\]"),
        (ExplicitSequence([2, 3, 5], base=1), 2, 5, 4, r"index 4 outside explicit range \[1, 3\]"),
    ],
    ids=["index_zero", "below_explicit", "past_explicit"],
)
def test_product_identity_refuses_a_window_outside_the_sequence(spec, q, n, outside, message):
    # the message eval_sequence gives at the window's first index outside the sequence
    with pytest.raises(ValueError, match=f"^{message}$"):
        eval_sequence(spec, outside)
    with pytest.raises(ValueError, match=f"^{message}$"):
        verify(IdentityId.PRODUCT_IDENTITY, {"spec": spec, "q": q, "n": n})


def test_recurrent_bridge_order_cap():
    # few tuples at a high order are still slow on both brute sides and on the partition side
    # over rational weights, so the order is capped where the tuple count is not
    with pytest.raises(ValueError, match="^m=7 exceeds brute-force cap 6$"):
        verify(IdentityId.RECURRENT_BRIDGE, {"spec": N, "m": 7, "q": 1, "n": 7})
    spec = ExplicitSequence(["-997/991", "983/977", "-971/967", "1/2"])
    with pytest.raises(ValueError, match="^m=50 exceeds brute-force cap 6$"):
        verify(IdentityId.RECURRENT_BRIDGE, {"spec": spec, "m": 50, "q": 1, "n": 3})
    assert verify(IdentityId.RECURRENT_BRIDGE, {"spec": N, "m": 6, "q": 1, "n": 7}).equal


def test_recurrent_bridge_empty_window():
    # n < q: no tuple on either brute side and zero power sums, so both sides are zero
    report = verify(IdentityId.RECURRENT_BRIDGE, {"spec": N, "m": 3, "q": 5, "n": 2})
    assert report.equal
    assert report.lhs == report.rhs == (0, 0)


def test_recurrent_bridge_example():
    report = verify(IdentityId.RECURRENT_BRIDGE, {"spec": N, "m": 2, "q": 1, "n": 3})
    assert report.equal
    # recurrent 25 and multiple 11 split into (sum a)^2 = 36 and sum a^2 = 14
    assert report.lhs == (36, 14)
    assert "recurrent=25/1" in report.note
    assert "multiple=11/1" in report.note


def test_even_odd_weights():
    assert verify(IdentityId.EVEN_ODD_WEIGHTS, {"m": 0}).lhs == (1, 0)
    assert verify(IdentityId.EVEN_ODD_WEIGHTS, {"m": 1}).lhs == (0, 1)
    for m in range(2, 13):
        report = verify(IdentityId.EVEN_ODD_WEIGHTS, {"m": m})
        assert report.equal
        assert report.lhs == (Fraction(1, 2), Fraction(1, 2))


def test_even_odd_binom_three_cases():
    # m = r with odd part count: everything lands on the odd side
    report = verify(IdentityId.EVEN_ODD_BINOM, {"m": 2, "phi": (0, 1)})
    assert report.equal and report.lhs == (0, Fraction(1, 2))
    # m - r = 1 flips the split
    report = verify(IdentityId.EVEN_ODD_BINOM, {"m": 3, "phi": (0, 1, 0)})
    assert report.equal and report.lhs == (Fraction(1, 2), 0)
    # m - r >= 2 halves the product
    report = verify(IdentityId.EVEN_ODD_BINOM, {"m": 4, "phi": (0, 1, 0, 0)})
    assert report.equal and report.lhs == (Fraction(1, 4), Fraction(1, 4))


def test_even_odd_n_example_and_note():
    report = verify(IdentityId.EVEN_ODD_N, {"n": 3, "m": 2})
    assert report.equal
    assert report.lhs == (Fraction(9, 2), Fraction(3, 2))
    assert "C(n-m+1, m)" in report.note
    assert verify(IdentityId.EVEN_ODD_N, {"n": 0, "m": 0}).equal


def test_report_json_shape():
    report = verify(IdentityId.RECURRENT_BRIDGE, {"spec": N, "m": 2, "q": 1, "n": 3})
    doc = report.to_json_dict()
    assert doc["identity"] == "RECURRENT_BRIDGE"
    assert doc["lhs"] == ["36/1", "14/1"]
    assert doc["rhs"] == ["36/1", "14/1"]
    assert doc["equal"] is True
    assert doc["params"]["spec"] == {"kind": "index_power", "exponent": 1}
    single = verify(IdentityId.LEMMA_3_1, {"m": 3}).to_json_dict()
    assert single["lhs"] == "0/1"


def test_verify_accepts_json_spec():
    report = verify(
        IdentityId.PRODUCT_IDENTITY,
        {"spec": {"kind": "index_power", "exponent": 1}, "q": 1, "n": 4},
    )
    assert report.equal and report.lhs == 24


def test_verify_rejects_missing_params():
    with pytest.raises(ValueError):
        verify(IdentityId.LEMMA_3_1, {})
    with pytest.raises(ValueError):
        verify(IdentityId.EVEN_ODD_N, {"n": 3})
    with pytest.raises(ValueError):
        verify(IdentityId.PRODUCT_IDENTITY, {"q": 1, "n": 4})


@pytest.mark.parametrize(
    "identity, params",
    [
        (IdentityId.LEMMA_3_1, {"m": 2.7}),
        (IdentityId.EVEN_ODD_N, {"n": True, "m": 2}),
        (IdentityId.LEMMA_3_2, {"m": 3, "phi": (0, 1.5, 0)}),
    ],
    ids=["float", "bool", "fractional_phi"],
)
def test_verify_rejects_non_integer_params(identity, params):
    with pytest.raises(ValueError, match="integer"):
        verify(identity, params)


def test_sweep_order_and_size():
    reports = verify_sweep(IdentityId.LEMMA_3_1, {"m": range(13)})
    assert len(reports) == 13
    assert [r.params["m"] for r in reports] == list(range(13))
    assert all(r.equal for r in reports)


def test_sweep_expands_phi():
    # at each m, every partition of every r <= m is generated
    reports = verify_sweep(IdentityId.LEMMA_3_2, {"m": [3]})
    phis = [r.params["phi"] for r in reports]
    assert len(phis) == 1 + 1 + 2 + 3  # r = 0, 1, 2, 3
    assert all(r.equal for r in reports)


def test_vanishing_binomial_sum_holds_through_m7():
    # full and restricted forms agree with the closed form for every
    # partition phi of every r <= m, up to m = 7
    reports = verify_sweep(IdentityId.LEMMA_3_2, {"m": range(8)})
    assert len(reports) == 120
    assert all(r.equal for r in reports)


def _clear_caches():
    """Empties the kept rows and walks of every order."""
    identities._unit_rows.cache_clear()
    identities._unit_totals.cache_clear()


@pytest.mark.parametrize(
    "identity", [IdentityId.EVEN_ODD_BINOM, IdentityId.LEMMA_3_2], ids=["even_odd_binom", "lemma_3_2"]
)
@pytest.mark.parametrize("alone_first", [True, False], ids=["alone_first", "sweep_first"])
def test_swept_phi_reports_equal_lone_calls(identity, alone_first):
    # the phis of one order share its cached rows, and LEMMA_3_2's restricted sides
    # read those of lower orders: no phi's rows may leak into another report
    m = 8
    phis = [sub + (0,) * (m - r) for r in range(m + 1) for sub in enumerate_partitions(r)]
    _clear_caches()
    assert all(r.equal for r in verify_sweep(identity, {"m": [m - 2]}))  # another order first

    def lone():
        return [verify(identity, {"m": m, "phi": phi}) for phi in reversed(phis)][::-1]

    if alone_first:
        alone = lone()
        swept = verify_sweep(identity, {"m": [m]})
    else:
        swept = verify_sweep(identity, {"m": [m]})
        alone = lone()
    assert [r.params["phi"] for r in swept] == phis
    assert swept == alone
    assert all(r.equal for r in swept)


def test_shared_rows_under_threads():
    # selftest --jobs runs criteria in threads; from cold caches they race to build
    # and read the rows and the kept walk of each order, and every report must equal
    # its lone call
    calls = [(IdentityId.EVEN_ODD_N, {"n": n, "m": m}) for n in range(4) for m in range(5, 9)]
    for identity in (IdentityId.LEMMA_3_1, IdentityId.EVEN_ODD_WEIGHTS):
        calls += [(identity, {"m": m}) for m in range(5, 9)]
    for identity in (IdentityId.EVEN_ODD_BINOM, IdentityId.LEMMA_3_2):
        calls += [(identity, {"m": m, "phi": sub}) for m in range(5, 9) for sub in enumerate_partitions(4)]
    _clear_caches()
    expected = [verify(identity, params) for identity, params in calls]
    _clear_caches()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            futures = [pool.submit(verify, identity, params) for identity, params in calls * 3]
            reports = [future.result(timeout=60) for future in futures]
    finally:
        sys.setswitchinterval(interval)
    assert reports == expected * 3
    assert all(r.equal for r in reports)


def test_sweep_cartesian_grid():
    reports = verify_sweep(IdentityId.BINOMIAL_PARTITION, {"n": range(3), "m": range(2)})
    grid = [(r.params["n"], r.params["m"]) for r in reports]
    assert grid == [(0, 0), (0, 1), (1, 0), (1, 1), (2, 0), (2, 1)]


def test_sweep_cap_counts_grid_points():
    # each range alone is under the cap; their 40 000-point grid is not
    with pytest.raises(ValueError, match="exceeds the cap"):
        verify_sweep(IdentityId.BINOMIAL_PARTITION, {"n": range(200), "m": range(200)})


@pytest.mark.parametrize("values", [range(10**20 + 1), range(10**20, -1, -1), range(0, 2 * 10**20 + 1, 2)],
                         ids=["ascending", "descending", "step_2"])
def test_sweep_cap_counts_ranges_longer_than_maxsize(values):
    # len() of such a range raises OverflowError; its points are counted by arithmetic
    with pytest.raises(ValueError, match=r"^sweep of 100000000000000000001 points exceeds the cap 10000$"):
        verify_sweep(IdentityId.LEMMA_3_1, {"m": values})
    with pytest.raises(ValueError, match=r"^sweep of 100000000000000000001 points exceeds the cap 10000$"):
        verify_sweep(IdentityId.BINOMIAL_PARTITION, {"m": range(1), "n": values})


@pytest.mark.parametrize("values", [range(5), range(2, 9, 3), range(9, 2, -3), range(7, 0, -1), range(3, 4, 5)])
def test_sweep_cap_counts_range_points_as_len(values, monkeypatch):
    monkeypatch.setattr(identities, "SWEEP_MAX_POINTS", 0)
    with pytest.raises(ValueError, match=rf"^sweep of {len(values)} points exceeds the cap 0$"):
        verify_sweep(IdentityId.LEMMA_3_1, {"m": values})


@pytest.mark.parametrize("identity", [IdentityId.LEMMA_3_2, IdentityId.EVEN_ODD_BINOM])
def test_sweep_cap_counts_phi_reports(identity, monkeypatch):
    # one point at m expands into sum_{r<=m} p(r) reports: 9296 at m = 25,
    # 11 732 at m = 26; the second grid has 3 points but 10 076 reports
    monkeypatch.setattr(identities, "_report", lambda ident, params: params["phi"])
    # 9296 reports of p(25) partitions each are over the partition budget, tested on its own below;
    # LEMMA_3_2's restricted sides add fewer again
    monkeypatch.setattr(identities, "SWEEP_MAX_PARTITIONS", 2 * 9296 * 1958)
    assert len(verify_sweep(identity, {"m": [25]})) == 9296
    for ranges in ({"m": [26]}, {"m": [25, 12, 14]}, {"m": range(10**9, 10**9 + 1)}):
        with pytest.raises(ValueError, match="phi expansion exceeds the cap"):
            verify_sweep(identity, ranges)
    assert len(verify_sweep(identity, {"m": [3]}, base={"phi": (1, 0, 0)})) == 1


def _refuse_checks(ident, params):
    raise AssertionError("a check ran before the sweep's budget was counted")


@pytest.mark.parametrize(
    ("identity", "ranges", "base", "visited"),
    [
        # 1 + 1 + 2 + 3 = 7 phi reports at m = 3; a phi != 0 partition of r walks p(3 - r)
        # terms on its full side: 1 * 2 + 2 * 1 + 3 * 1 = 7, and phi = 0 reads the kept walk
        (IdentityId.LEMMA_3_2, {"m": [3]}, None, 7),
        # the same 7 reports walk the same terms on EVEN_ODD_BINOM's one side
        (IdentityId.EVEN_ODD_BINOM, {"m": [3]}, None, 7),
        # the bridge walks its own rational rows: p(4) = 5 at each of two values of n
        (IdentityId.RECURRENT_BRIDGE, {"n": [5, 6]}, {"spec": N, "m": 4, "q": 1}, 10),
    ],
    ids=["lemma_3_2_phi", "even_odd_binom_phi", "bridge"],
)
def test_sweep_partition_budget_is_inclusive(identity, ranges, base, visited, monkeypatch):
    monkeypatch.setattr(identities, "SWEEP_MAX_PARTITIONS", visited)
    assert all(r.equal for r in verify_sweep(identity, ranges, base=base))
    monkeypatch.setattr(identities, "SWEEP_MAX_PARTITIONS", visited - 1)
    monkeypatch.setattr(identities, "_report", _refuse_checks)
    with pytest.raises(ValueError, match=f"sweep visits {visited} partitions, more than the cap of {visited - 1}"):
        verify_sweep(identity, ranges, base=base)


@pytest.mark.parametrize(
    ("identity", "ranges"),
    [
        (IdentityId.LEMMA_3_1, {"m": range(51)}),
        (IdentityId.EVEN_ODD_WEIGHTS, {"m": range(51)}),
        (IdentityId.EVEN_ODD_N, {"n": [0, 1, identities.BINOMIAL_MAX], "m": range(51)}),
    ],
    ids=["lemma_3_1", "even_odd_weights", "even_odd_n"],
)
def test_sweep_partition_budget_counts_no_kept_walk(identity, ranges, monkeypatch):
    # each order's walk is kept, and the order cap bounds those walks, so these count nothing
    monkeypatch.setattr(identities, "_report", lambda ident, params: params)
    monkeypatch.setattr(identities, "SWEEP_MAX_PARTITIONS", 0)
    assert len(verify_sweep(identity, ranges)) == math.prod(map(len, ranges.values()))


def test_sweep_partition_budget_skips_the_restricted_side(monkeypatch):
    monkeypatch.setattr(identities, "_report", _refuse_checks)
    # an explicit phi of r = 2 at m = 4 and 5 walks p(2) + p(3) = 5 terms on the full sides; the
    # restricted sides read the kept walks of orders 2 and 3
    monkeypatch.setattr(identities, "SWEEP_MAX_PARTITIONS", 4)
    with pytest.raises(ValueError, match="sweep visits 5 partitions, more than the cap of 4"):
        verify_sweep(IdentityId.LEMMA_3_2, {"m": [4, 5]}, base={"phi": (0, 1)})
    monkeypatch.undo()  # let the checks run
    monkeypatch.setattr(identities, "SWEEP_MAX_PARTITIONS", 5)
    assert all(r.equal for r in verify_sweep(IdentityId.LEMMA_3_2, {"m": [4, 5]}, base={"phi": (0, 1)}))


def test_sweep_partition_budget_skips_identities_without_partition_sums(monkeypatch):
    monkeypatch.setattr(identities, "SWEEP_MAX_PARTITIONS", 0)
    assert len(verify_sweep(IdentityId.STIRLING_ALTERNATING, {"m": range(60)})) == 60
    assert len(verify_sweep(IdentityId.BINOMIAL_PARTITION, {"n": [5], "m": range(60)})) == 60


def test_sweep_partition_budget_refuses_before_any_check(monkeypatch):
    monkeypatch.setattr(identities, "_report", _refuse_checks)
    # an order repeated at a fixed phi != 0: 12 reports of p(49) = 173 525 terms each
    with pytest.raises(ValueError, match="sweep visits 2082300 partitions, more than the cap of 2000000"):
        verify_sweep(IdentityId.LEMMA_3_2, {"m": [50] * 12}, base={"phi": (1,)})
    monkeypatch.setattr(identities, "_report", lambda ident, params: params)
    assert len(verify_sweep(IdentityId.LEMMA_3_2, {"m": [50] * 11}, base={"phi": (1,)})) == 11  # 1 908 775
    # one report at m = 0 and 3506 phi reports at m = 21, whose phi != 0 full sides walk
    # sum_{r=1..21} p(r) p(21 - r) = 34 210 terms
    assert len(verify_sweep(IdentityId.LEMMA_3_2, {"m": [0, 21]})) == 3507
    monkeypatch.setattr(identities, "_report", _refuse_checks)
    monkeypatch.setattr(identities, "SWEEP_MAX_PARTITIONS", 34_209)
    with pytest.raises(ValueError, match="sweep visits 34210 partitions"):
        verify_sweep(IdentityId.LEMMA_3_2, {"m": [0, 21]})
    # an order past the enumeration cap is refused up front, not after the orders below it
    with pytest.raises(ValueError, match="partition enumeration cap 50"):
        verify_sweep(IdentityId.LEMMA_3_1, {"m": range(52)})


def test_admission_counts_the_terms_the_walk_forms():
    # against the oracle enumeration: a phi != 0 report walks the partitions y of m with
    # y_i >= phi_i for every i, a phi = 0 report none, and the bridge all p(m) of its own walk
    for m in range(13):
        partitions = list(enumerate_partitions(m))
        for r in range(m + 1):
            for sub in enumerate_partitions(r):
                phi = sub + (0,) * (m - r)
                covering = sum(all(map(int.__ge__, y, phi)) for y in partitions) if r else 0
                for identity in (IdentityId.LEMMA_3_2, IdentityId.EVEN_ODD_BINOM):
                    assert identities._admit(identity, {"m": m, "phi": phi}) == covering
        if m <= 6:
            bridge = {"spec": N, "m": m, "q": 1, "n": 8}
            assert identities._admit(IdentityId.RECURRENT_BRIDGE, bridge) == len(partitions)


@pytest.mark.parametrize(
    ("identity", "ranges", "base", "message"),
    [
        (IdentityId.BINOMIAL_PARTITION, {"n": range(1999, 2002), "m": [2000]}, {}, "n=2001, m=2000: BINOMIAL"),
        (IdentityId.PRODUCT_IDENTITY, {"n": range(98, 102)}, {"spec": IndexPower(-1), "q": 1}, "window of 101 terms"),
        (IdentityId.RECURRENT_BRIDGE, {"n": range(26, 29)}, {"spec": N, "m": 6, "q": 1}, r"C\(33, 6\) tuples"),
        (IdentityId.RECURRENT_BRIDGE, {"m": range(8), "n": [8]}, {"spec": N, "q": 1}, "m=7 exceeds brute-force cap 6"),
        (IdentityId.STIRLING_ALTERNATING, {"m": range(1998, 2002)}, {}, "m=2001 exceeds the STIRLING_ALTERNATING"),
        (IdentityId.EVEN_ODD_N, {"n": range(1999, 2002), "m": [50]}, {}, "^n=2001 exceeds the EVEN_ODD_N cap 2000$"),
    ],
    ids=["binomial_max", "product_window", "bridge_tuples", "bridge_order", "stirling_max", "even_odd_n_max"],
)
def test_sweep_refuses_its_last_point_before_any_check(identity, ranges, base, message, monkeypatch):
    # every earlier point is admitted, and would run for seconds if its check ran first
    monkeypatch.setattr(identities, "_report", _refuse_checks)
    with pytest.raises(ValueError, match=message):
        verify_sweep(identity, ranges, base=base)


BRIDGE = ExplicitSequence([1, Fraction(-1, 2), 3, Fraction(2, 5), -2, Fraction(7, 3)])
PRODUCT = ExplicitSequence([2, Fraction(-1, 3), 3, Fraction(5, 7), -2, Fraction(1, 2)], base=0)


@pytest.mark.parametrize(
    ("identity", "ranges", "base"),
    [
        (IdentityId.LEMMA_3_1, {"m": range(8)}, {}),
        (IdentityId.LEMMA_3_2, {"m": range(3, 8)}, {"phi": (1, 1)}),
        (IdentityId.STIRLING_ALTERNATING, {"m": range(8)}, {}),
        (IdentityId.BINOMIAL_PARTITION, {"n": range(4), "m": range(5)}, {}),
        (IdentityId.PRODUCT_IDENTITY, {"q": range(3), "n": range(2, 6)}, {"spec": PRODUCT}),
        (IdentityId.RECURRENT_BRIDGE, {"m": range(4), "n": range(1, 6)}, {"spec": BRIDGE, "q": 1}),
        (IdentityId.EVEN_ODD_WEIGHTS, {"m": range(8)}, {}),
        (IdentityId.EVEN_ODD_BINOM, {"m": range(2, 8)}, {"phi": (0, 1, 0, 0, 0, 0, 0, 0, 0)}),
        (IdentityId.EVEN_ODD_N, {"n": range(4), "m": range(6)}, {}),
    ],
    ids=lambda value: value.value.lower() if isinstance(value, IdentityId) else None,
)
def test_sweep_reports_equal_lone_calls(identity, ranges, base):
    # a sweep that expands no phi runs, point by point, what verify runs on that point alone
    names = list(ranges)
    points = [dict(base, **dict(zip(names, combo))) for combo in itertools.product(*ranges.values())]
    swept = verify_sweep(identity, ranges, base=base)
    assert swept == [verify(identity, params) for params in points]
    assert all(r.equal for r in swept)


@pytest.mark.parametrize(
    ("identity", "params"),
    [
        (IdentityId.LEMMA_3_1, {"m": 10**12}),
        (IdentityId.LEMMA_3_2, {"m": 10**12, "phi": (1,)}),
        (IdentityId.EVEN_ODD_BINOM, {"m": 10**12}),
        (IdentityId.EVEN_ODD_N, {"n": 3, "m": 10**12}),
    ],
    ids=["lemma_3_1", "lemma_3_2", "even_odd_binom", "even_odd_n"],
)
def test_order_cap_comes_before_any_row_or_phi_padding(identity, params):
    # phi is padded to length m and each row has m // i + 1 entries: at m = 10**12 either
    # would exhaust memory, so the order is refused first
    with pytest.raises(ValueError, match="exceeds the partition enumeration cap 50"):
        verify(identity, params)


def _unit_weight(phi, sign, n):
    """(+-1)^k C(k, phi_i) n^k / (i^k k!) of y_i = k, written out in Fractions."""

    def weight(i, k):
        return Fraction(math.comb(k, phi[i - 1]) * (sign * n) ** k, i**k * math.factorial(k))

    return weight


@given(st.data(), st.integers(0, 16), st.booleans(), st.integers(0, 30))
def test_weight_rows_match_the_fraction_weight(data, m, signed, n):
    # the identities' unsigned integer rows at n = 1 against their weight written out in
    # Fractions, entry by entry, and the sign and n applied per class of part count
    # against the public sums of the signed, n-scaled weight
    sub = data.draw(st.sampled_from(enumerate_partitions(data.draw(st.integers(0, m)))))
    phi = identities._normalize_phi(sub + (0,) * data.draw(st.integers(0, 3)), m)
    sign = -1 if signed else 1
    rows = identities._weight_rows(m, phi)
    _, dens, den = identities._unit_rows(m)
    assert rows[0] == [] and dens[0] == 1 and len(rows) == len(dens) == m + 1 and den == math.prod(dens)
    unit = _unit_weight(phi, 1, 1)
    for i in range(1, m + 1):
        assert len(rows[i]) == m // i + 1
        assert [Fraction(entry, dens[i]) for entry in rows[i]] == [unit(i, k) for k in range(m // i + 1)]
    even, odd = identities._class_sums(_walk_rows(rows), den, sign * n)
    weight = _unit_weight(phi, sign, n)
    assert (even, odd) == parity_partition_sums(m, weight)
    assert even + odd == partition_sum(m, weight)


def test_each_order_is_walked_once(monkeypatch):
    # the unit-weight sides of every sign and n read one kept walk per order: an
    # EVEN_ODD_N sweep over five n, then LEMMA_3_1 and EVEN_ODD_WEIGHTS at the same
    # orders, walk each of the 13 orders once, where a walk per report would be 91
    walked = []

    def counting_walk(rows):
        walked.append(len(rows) - 1)
        return _walk_rows(rows)

    monkeypatch.setattr(identities, "_walk_rows", counting_walk)
    _clear_caches()
    reports = verify_sweep(IdentityId.EVEN_ODD_N, {"n": range(5), "m": range(13)})
    reports += verify_sweep(IdentityId.LEMMA_3_1, {"m": range(13)})
    reports += verify_sweep(IdentityId.EVEN_ODD_WEIGHTS, {"m": range(13)})
    assert len(reports) == 91 and all(r.equal for r in reports)
    assert sorted(walked) == list(range(13))


_SHARED_SIDES = [IdentityId.LEMMA_3_1, IdentityId.EVEN_ODD_WEIGHTS, IdentityId.EVEN_ODD_N, IdentityId.LEMMA_3_2]


@given(st.sampled_from(_SHARED_SIDES), st.integers(0, 14), st.integers(0, 30), st.data())
def test_shared_sides_match_the_public_oracle(identity, m, n, data):
    # every side read from an order's kept walk against the public partition sums of its
    # weight written out in Fractions; LEMMA_3_2's restricted side at order d = m - r is
    # phi's own factor times the alternating sum at d. The same report on cleared caches
    # equals the one on the caches it left warm.
    params = {"m": m}
    if identity is IdentityId.EVEN_ODD_N:
        params["n"] = n
    if identity is IdentityId.LEMMA_3_2:
        r = data.draw(st.integers(0, m))
        params["phi"] = data.draw(st.sampled_from(enumerate_partitions(r)))
    _clear_caches()
    cold = verify(identity, params)
    warm = verify(identity, params)
    assert warm == cold
    if identity is IdentityId.EVEN_ODD_WEIGHTS:
        assert warm.lhs == parity_partition_sums(m, _unit_weight((0,) * m, 1, 1))
    elif identity is IdentityId.EVEN_ODD_N:
        assert warm.lhs == parity_partition_sums(m, _unit_weight((0,) * m, 1, n))
    elif identity is IdentityId.LEMMA_3_1:
        assert warm.lhs == partition_sum(m, _unit_weight((0,) * m, -1, 1))
    else:
        phi = warm.params["phi"]
        r = sum(i * k for i, k in enumerate(phi, start=1))
        factor = math.prod(_unit_weight(phi, -1, 1)(i, k) for i, k in enumerate(phi, start=1) if k)
        full = partition_sum(m, _unit_weight(phi, -1, 1))
        assert warm.lhs == (full, factor * partition_sum(m - r, _unit_weight((0,) * (m - r), -1, 1)))
