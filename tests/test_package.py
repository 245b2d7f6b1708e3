import os
import subprocess
import sys
from pathlib import Path

import pytest

import multisums
from multisums import core, exact_arith, identities, partitions, polynomials, special_sums
from multisums.cli import run
from multisums.core import IndexPower
from multisums.identities import IdentityId, verify

N = IndexPower(1)


def test_package_api_is_the_union_of_module_apis():
    modules = (core, exact_arith, identities, partitions, polynomials, special_sums)
    expected = ["__version__"] + [name for module in modules for name in module.__all__]
    assert multisums.__all__ == expected
    assert len(set(expected)) == len(expected)
    assert all(hasattr(multisums, name) for name in expected)


def _cli_error(*argv: str) -> None:
    outcome = run(argv)
    assert outcome.exit_code == 2
    raise ValueError(outcome.payload["error"])


@pytest.mark.parametrize("call,message", [
    (lambda: core.brute_recurrent_sum(N, -1, 1, 3), "m must be >= 0"),
    (lambda: core.brute_recurrent_sum(N, 2, -1, 3), "q must be >= 0"),
    (lambda: core.reduce_multiple_sum(N, 2, -1, 3), "q must be >= 0"),
    (lambda: core.power_sums(N, -1, 3, 2), "q must be >= 0"),
    (lambda: core.symmetrized_multiple_sum((N, N), -1, 3), "q must be >= 0"),
    (lambda: core.reduce_symmetrized((N, N), -1, 3), "q must be >= 0"),
    (lambda: verify(IdentityId.LEMMA_3_1, {"m": -1}), "parameter 'm' must be >= 0"),
    (lambda: verify(IdentityId.EVEN_ODD_N, {"m": 2, "n": -1}), "parameter 'n' must be >= 0"),
    (lambda: verify(IdentityId.LEMMA_3_2, {"m": 3, "phi": (2, 1)}), "phi must be a partition of r <= m"),
    (lambda: special_sums.multiple_power_sum(-1, 3, 1), "m must be >= 0"),
    (lambda: special_sums.multiple_power_sum(1, 3, -1), "p must be >= 0"),
    (lambda: special_sums.stirling_via_multiple_sum(4, 3), "need 0 <= m <= n"),
    (lambda: special_sums.mzv_closed_form(-1, 1), "m must be >= 0"),
    (lambda: special_sums.mzv_partial_identity(3, 0), "p must be >= 1"),
    (lambda: exact_arith.bernoulli(-1), "bernoulli requires j >= 0"),
    (lambda: exact_arith.stirling_first_unsigned(-1, 0), "stirling_first_unsigned requires m >= 0"),
    (lambda: _cli_error("selftest", "--jobs", "0"), "--jobs must be >= 1"),
    (lambda: _cli_error("verify", "LEMMA_3_1", "--sweep", ","), "sweep string is empty"),
    (lambda: _cli_error("multisum", "eval", "--spec", '{"kind":"index_power","exponent":1}', "--m", "2",
                        "--q", "-1", "--n", "3", "--method", "reduce"), "q must be >= 0"),
], ids=["brute_recurrent_sum-m", "brute_recurrent_sum-q", "reduce_multiple_sum-q", "power_sums-q",
        "symmetrized_multiple_sum-q", "reduce_symmetrized-q", "LEMMA_3_1-m", "EVEN_ODD_N-n", "LEMMA_3_2-phi",
        "multiple_power_sum-m", "multiple_power_sum-p", "stirling_via_multiple_sum", "mzv_closed_form-m",
        "mzv_partial_identity-p", "bernoulli-j", "stirling_first_unsigned-m", "cli-selftest-jobs", "cli-verify-sweep",
        "cli-multisum-q"])
def test_out_of_domain_inputs_are_refused_with_their_message(call, message):
    with pytest.raises(ValueError) as refused:
        call()
    assert str(refused.value) == message


BIG = 10**5000  # 16 610 bits, more than the 4300 digits Python prints by default
TOO_LONG = "<16610-bit integer>"


@pytest.fixture
def default_int_digits():
    """Python's default limit on printing an int, which cli.main lifts for the rest of its process."""
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("no int-to-string limit before Python 3.10.7")
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(sys.int_info.default_max_str_digits)
    yield
    sys.set_int_max_str_digits(limit)


@pytest.mark.parametrize("call,message", [
    (lambda: verify(IdentityId.EVEN_ODD_N, {"n": BIG, "m": 50}), f"n={TOO_LONG} exceeds the EVEN_ODD_N cap 2000"),
    (lambda: verify(IdentityId.BINOMIAL_PARTITION, {"n": BIG, "m": 5}),
     f"n={TOO_LONG}, m=5: BINOMIAL_PARTITION takes n and m up to 2000"),
    (lambda: verify(IdentityId.STIRLING_ALTERNATING, {"m": BIG}), f"m={TOO_LONG} exceeds the STIRLING_ALTERNATING cap 2000"),
    (lambda: verify(IdentityId.LEMMA_3_1, {"m": BIG}), f"m={TOO_LONG} exceeds the partition enumeration cap 50"),
    (lambda: verify(IdentityId.LEMMA_3_2, {"m": BIG}), f"m={TOO_LONG} exceeds the partition enumeration cap 50"),
    (lambda: verify(IdentityId.PRODUCT_IDENTITY, {"spec": N, "q": 1, "n": BIG}),
     f"window of {TOO_LONG} terms exceeds the PRODUCT_IDENTITY cap 100"),
    (lambda: verify(IdentityId.RECURRENT_BRIDGE, {"spec": N, "m": 2, "q": 0, "n": BIG}),
     f"brute force over C({TOO_LONG}, 2) tuples exceeds the cap of 1000000"),
    (lambda: identities.verify_sweep(IdentityId.LEMMA_3_1, {"m": range(BIG)}),
     f"sweep of {TOO_LONG} points exceeds the cap 10000"),
    (lambda: partitions.partition_count(BIG), f"m={TOO_LONG} exceeds the partition count cap 10000"),
    (lambda: partitions.newton_coefficients([], BIG), f"need at least {TOO_LONG} values, got 0"),
    (lambda: core._check_brute_order(BIG), f"m={TOO_LONG} exceeds brute-force cap 6"),
    (lambda: core.symmetrized_multiple_sum((N, N), 0, BIG),
     f"brute force over 2 x C({TOO_LONG}, 2) tuples exceeds the cap of 1000000"),
    (lambda: core.eval_sequence(core.ExplicitSequence([1]), BIG), f"index {TOO_LONG} outside explicit range [1, 1]"),
    (lambda: core.eval_sequence(core.ExplicitSequence([1], BIG), 0),
     f"index 0 outside explicit range [{TOO_LONG}, {TOO_LONG}]"),
    (lambda: special_sums.faulhaber(1, BIG), f"p={TOO_LONG} needs B_{TOO_LONG}, past the Bernoulli index cap 512"),
    (lambda: special_sums.mzv_even_reduced(1, BIG),
     f"m=1, p={TOO_LONG} needs B_<16611-bit integer>, past the Bernoulli index cap 512"),
    (lambda: exact_arith.pi_poly_numeric(exact_arith.PiPolynomial(2, 1), BIG),
     f"numeric digits must be in [1, 1000], got {TOO_LONG}"),
], ids=["EVEN_ODD_N-n", "BINOMIAL_PARTITION-n", "STIRLING_ALTERNATING-m", "LEMMA_3_1-m", "LEMMA_3_2-m",
        "PRODUCT_IDENTITY-window", "RECURRENT_BRIDGE-width", "verify_sweep-points", "partition_count-m",
        "newton_coefficients-m", "brute-order", "symmetrized-width", "explicit-index", "explicit-base",
        "faulhaber-p", "mzv_even_reduced-p", "pi_poly_numeric-digits"])
def test_refusals_of_unprintable_inputs_keep_their_message(default_int_digits, call, message):
    with pytest.raises(ValueError) as refused:
        call()
    assert str(refused.value) == message


def test_readme_caps_table_names_every_public_cap():
    readme = Path(__file__).parents[1] / "README.md"
    rows = [line for line in readme.read_text(encoding="utf-8").splitlines() if line.startswith("|")]
    modules = (core, exact_arith, identities, partitions, polynomials, special_sums)
    caps = [f"`{module.__name__.rpartition('.')[2]}.{name}`" for module in modules for name in module.__all__
            if "MAX" in name]
    assert caps
    assert [cap for cap in caps if not any(cap in row for row in rows)] == []


def _modules_after_cli_import(*flags: str) -> set[str]:
    probe = "import sys, multisums.cli; print('\\n'.join(sys.modules))"
    env = {**os.environ, "PYTHONPATH": str(Path(multisums.__file__).parents[1])}
    argv = [sys.executable, *flags, "-c", probe]
    out = subprocess.run(argv, capture_output=True, text=True, check=True, env=env).stdout
    return set(out.split())


def test_cli_import_loads_no_mpmath():
    assert not {m for m in _modules_after_cli_import() if m.split(".")[0] == "mpmath"}


def test_cli_import_is_lazy():
    # only selftest needs the acceptance suite, and only --jobs a thread pool
    # the records are slotted classes, so no dataclasses and no inspect at start-up
    loaded = _modules_after_cli_import()
    assert "multisums.acceptance" not in loaded
    assert "concurrent.futures" not in loaded
    assert not {"dataclasses", "inspect"} & loaded


def test_cli_import_without_site_loads_no_resource_reader():
    # -S: no site-packages .pth file can load importlib.resources first and mask it;
    # only the zeta table reads package data, and it imports the reader itself
    loaded = _modules_after_cli_import("-S")
    assert not {"importlib.resources", "dataclasses", "inspect"} & loaded
