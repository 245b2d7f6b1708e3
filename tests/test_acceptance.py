"""Acceptance gate: every published criterion, one pass/fail line each."""

import json
import os
import subprocess
import sys
from fractions import Fraction
from math import factorial
from pathlib import Path

import pytest

import multisums
from multisums import acceptance
from multisums.acceptance import run_all
from multisums.exact_arith import bernoulli
from multisums.special_sums import zeta_even

NUMBERS = list(range(1, 11))
# `multisums selftest` stdout, byte for byte, as the contract fixes it
GOLDEN_STDOUT = Path(__file__).parent / "data" / "selftest_stdout.json"


@pytest.fixture(scope="session")
def all_results():
    return run_all()


@pytest.mark.parametrize("number", NUMBERS)
def test_criterion(all_results, number):
    result = next(r for r in all_results if r.number == number)
    assert result.passed, f"criterion {number} ({result.title}): {result.detail}"


def test_whole_suite_under_a_minute(all_results):
    total = sum(r.seconds for r in all_results)
    assert total < 60.0, f"acceptance suite took {total:.1f}s"


def test_every_criterion_present(all_results):
    assert [r.number for r in all_results] == NUMBERS


def test_criteria_match_golden_stdout(all_results):
    golden = json.loads(GOLDEN_STDOUT.read_text(encoding="utf-8"))
    assert [r.to_json_dict() for r in all_results] == golden["criteria"]


def test_selftest_stdout_matches_golden_bytes_in_fresh_interpreter():
    # the whole document: criteria, passed/total/all_passed and the JSON separators
    env = {**os.environ, "PYTHONPATH": str(Path(multisums.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-m", "multisums", "selftest"], capture_output=True, env=env, timeout=300)
    assert done.returncode == 0, done.stderr.decode()
    assert done.stdout == GOLDEN_STDOUT.read_bytes()


def _recorded_weights(monkeypatch, oracle, *args):
    """The weights an oracle hands to partition_sum, recorded as it runs."""
    weights = []

    def recording(m, weight):
        weights.append(weight)
        return partition_sum(m, weight)

    partition_sum = acceptance.partition_sum
    monkeypatch.setattr(acceptance, "partition_sum", recording)
    oracle(*args)
    return weights


def test_oracle_weights_equal_their_fraction_expressions(monkeypatch):
    # each weight x^k / k! is built as one Fraction; at every entry the walk reads, k = 0
    # included, it equals the expression written with Fraction operations, for S_i = 0,
    # negative and positive S_i and the alternating signs of the Bernoulli numbers
    sums = [Fraction(0), Fraction(-3, 4), Fraction(5, 2), Fraction(-7), Fraction(0), Fraction(9, 8)]
    m = len(sums)
    (weight,) = _recorded_weights(monkeypatch, acceptance._reduction_oracle, sums, m)
    for i in range(1, m + 1):
        for k in range(m // i + 1):
            assert weight(i, k) == (-sums[i - 1] / i) ** k / factorial(k)
    for p, m in ((1, 6), (2, 4), (3, 3)):
        (mzv,) = _recorded_weights(monkeypatch, acceptance._mzv_oracle, m, p)
        (bern,) = _recorded_weights(monkeypatch, acceptance._bernoulli_oracle, m, p)
        for i in range(1, m + 1):
            for k in range(m // i + 1):
                z = zeta_even(i * p).coefficient
                assert mzv(i, k) == z**k * Fraction((-1) ** k, factorial(k) * i**k)
                b = bernoulli(2 * i * p) / (2 * i * factorial(2 * i * p))
                assert bern(i, k) == b**k / factorial(k)
