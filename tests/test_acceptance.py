"""Acceptance gate: every published criterion, one pass/fail line each."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import multisums
from multisums.acceptance import run_all

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
