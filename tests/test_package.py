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
