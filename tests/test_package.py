import inspect
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import multisums
from multisums import core, exact_arith, identities, partitions, polynomials, special_sums
from multisums.cli import main, run
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
    (lambda: special_sums.mzv_partial_identity(60, 21), "p=21 exceeds the mzv_partial_identity cap 20"),
    (lambda: exact_arith.bernoulli(-1), "j must be >= 0"),
    (lambda: exact_arith.stirling_first_unsigned(-1, 0), "m must be >= 0"),
    (lambda: _cli_error("selftest", "--jobs", "0"), "--jobs must be >= 1"),
    (lambda: _cli_error("verify", "LEMMA_3_1", "--sweep", ","), "sweep string is empty"),
    (lambda: _cli_error("multisum", "eval", "--spec", '{"kind":"index_power","exponent":1}', "--m", "2",
                        "--q", "-1", "--n", "3", "--method", "reduce"), "q must be >= 0"),
    (lambda: special_sums.mzv_limit_trend([2.5], 3), "exponent must be an integer, got 2.5"),
    (lambda: special_sums.mzv_limit_trend([2.0], 3), "exponent must be an integer, got 2.0"),
    (lambda: special_sums.mzv_limit_trend([3, "2"], 3), "exponent must be an integer, got '2'"),
    (lambda: special_sums.mzv_limit_trend([True], 3), "exponent must be an integer, got True"),
    (lambda: special_sums.mzv_limit_trend([4, 1], 3), "exponents below 2 have no finite product limit"),
    (lambda: identities.verify_sweep(IdentityId.LEMMA_3_1, {"m": 5}),
     "sweep range of 'm' must be a range, a list or a tuple, got int"),
    (lambda: identities.verify_sweep(IdentityId.LEMMA_3_1, {"m": "12"}),
     "sweep range of 'm' must be a range, a list or a tuple, got str"),
    (lambda: verify(IdentityId.LEMMA_3_2, {"m": 5, "phi": 1}), "phi must be a list or a tuple, got int"),
    (lambda: verify(IdentityId.EVEN_ODD_BINOM, {"m": 5, "phi": "1"}), "phi must be a list or a tuple, got str"),
    *((call, f"{name} must be a sequence of rationals, got {type(text).__name__}")
      for text in ("12", b"12", {"1", "2"}, frozenset({"1", "2"}), {"1": 0, "2": 0})
      for call, name in (
          (lambda text=text: core.ExplicitSequence(text), "sequence 'values'"),
          (lambda text=text: polynomials.Polynomial(text), "coeffs"),
          (lambda text=text: polynomials.poly_from_roots(text), "roots"),
          (lambda text=text: polynomials.coeff_ratio_from_roots(text, 1), "roots"),
          (lambda text=text: polynomials.eval_factored_sum(text, 1), "roots"),
          (lambda text=text: polynomials.generalized_binomial(text, [1, 2]), "a_values"),
          (lambda text=text: polynomials.generalized_binomial([1, 2], text), "b_values"),
          (lambda text=text: partitions.newton_coefficients(text, 2), "p"),
          (lambda text=text: core.elementary_from_power_sums(text, 2), "sums"),
      )),
], ids=["brute_recurrent_sum-m", "brute_recurrent_sum-q", "reduce_multiple_sum-q", "power_sums-q",
        "symmetrized_multiple_sum-q", "reduce_symmetrized-q", "LEMMA_3_1-m", "EVEN_ODD_N-n", "LEMMA_3_2-phi",
        "multiple_power_sum-m", "multiple_power_sum-p", "stirling_via_multiple_sum", "mzv_closed_form-m",
        "mzv_partial_identity-p", "mzv_partial_identity-p-cap", "bernoulli-j", "stirling_first_unsigned-m",
        "cli-selftest-jobs", "cli-verify-sweep",
        "cli-multisum-q", "mzv_limit_trend-float", "mzv_limit_trend-integral-float", "mzv_limit_trend-string",
        "mzv_limit_trend-bool", "mzv_limit_trend-below-2", "verify_sweep-int-range", "verify_sweep-string-range",
        "LEMMA_3_2-phi-int", "EVEN_ODD_BINOM-phi-str",
        *(f"{name}-{kind}" for kind in ("str", "bytes", "set", "frozenset", "dict")
          for name in ("ExplicitSequence", "Polynomial", "poly_from_roots", "coeff_ratio_from_roots",
                       "eval_factored_sum", "generalized_binomial-a", "generalized_binomial-b",
                       "newton_coefficients", "elementary_from_power_sums"))])
def test_out_of_domain_inputs_are_refused_with_their_message(call, message):
    with pytest.raises(ValueError) as refused:
        call()
    assert str(refused.value) == message


def test_generators_are_read_in_their_own_order():
    # unordered collections are refused above; an iterator has one order, so it is read
    assert core.ExplicitSequence(str(k) for k in (3, 1, 2)).values == (3, 1, 2)
    assert polynomials.Polynomial(iter(["1/2", 2])).coeffs == (Fraction(1, 2), 2)
    assert polynomials.poly_from_roots(r for r in (1, 2)) == polynomials.poly_from_roots([1, 2])
    assert partitions.newton_coefficients(range(1, 9), 2) == partitions.newton_coefficients([1, 2], 2)


# Valid keyword arguments of every public callable with an int-annotated parameter; the boundary
# table below replaces one of those integers at a time.
_P = core.SumProblem((N, N), 1, 3)
VALID = {
    "ExplicitSequence": {"values": [1, 2], "base": 1},
    "IndexPower": {"exponent": 1},
    "SumProblem": {"specs": (N, N), "q": 1, "n": 3},
    "eval_sequence": {"spec": N, "index": 2},
    "brute_recurrent_sum": {"spec": N, "m": 2, "q": 1, "n": 3},
    "power_sums": {"spec": N, "q": 1, "n": 3, "m": 2},
    "reduce_multiple_sum": {"spec": N, "m": 2, "q": 1, "n": 3},
    "elementary_from_power_sums": {"sums": [6, 14, 36], "m": 2},
    "variation_expand": {"problem": _P, "cutoff": 1},
    "variation_recursive": {"problem": _P, "cutoff": 1},
    "symmetrized_multiple_sum": {"specs": (N, N), "q": 1, "n": 3},
    "reduce_symmetrized": {"specs": (N, N), "q": 1, "n": 3},
    "bernoulli": {"j": 2},
    "stirling_first_unsigned": {"m": 3, "r": 2},
    "PiPolynomial": {"exponent": 2, "coefficient": 1},
    "pi_poly_numeric": {"value": exact_arith.PiPolynomial(2, 1), "digits": 5},
    "enumerate_partitions": {"m": 3},
    "partition_sum": {"m": 3, "weight": lambda i, k: 1},
    "parity_partition_sums": {"m": 3, "weight": lambda i, k: 1},
    "newton_coefficients": {"p": [1, 2, 3], "m": 2},
    "partition_count": {"m": 3},
    "enumerate_set_partitions": {"m": 2},
    "coeff_ratio_from_roots": {"roots": [1, 2], "m": 1},
    "poly_derivative": {"poly": polynomials.Polynomial([1, 2, 3]), "k": 1},
    "sum_of_multiple_sums": {"spec": N, "q": 1, "n": 3},
    "faulhaber": {"n": 3, "p": 2},
    "multiple_power_sum": {"m": 2, "n": 3, "p": 1},
    "stirling_via_multiple_sum": {"m": 2, "n": 3},
    "zeta_even": {"p": 1},
    "mzv_even_reduced": {"m": 2, "p": 1},
    "mzv_closed_form": {"m": 2, "p": 1},
    "bernoulli_partition_sum": {"m": 2, "p": 1},
    "mzv_partial_identity": {"n": 3, "p": 2},
    "mzv_limit_trend": {"exponents": [2], "n": 3},
}
# the name the integer reader gives a parameter, where it is not the parameter's own
READER_NAMES = {
    ("ExplicitSequence", "base"): "sequence 'base'",
    ("IndexPower", "exponent"): "sequence 'exponent'",
    ("poly_derivative", "k"): "derivative order",
}
# parameters refused with their own range message instead of the reader's
RANGE_MESSAGES = {
    ("variation_expand", "cutoff"): "cutoff must be in [0, m]",
    ("variation_recursive", "cutoff"): "cutoff must be in [0, m]",
    ("PiPolynomial", "exponent"): "pi exponent must be an integer >= 0, got {value!r}",
    ("pi_poly_numeric", "digits"): "numeric digits must be in [1, 1000], got {value!r}",
    ("enumerate_set_partitions", "m"): "m must be in [1, 8]",
    ("coeff_ratio_from_roots", "m"): "m must be in [0, number of roots]",
    ("stirling_via_multiple_sum", "m"): "need 0 <= m <= n",
    ("stirling_via_multiple_sum", "n"): "need 0 <= m <= n",
    ("mzv_partial_identity", "n"): "n must be in [1, 60]",
}
BAD_INTEGERS = (True, 2.0, "2")


def _int_parameters() -> list[tuple[str, str]]:
    """(callable, parameter) for every parameter annotated int of every public callable."""
    pairs = []
    for name in multisums.__all__:
        obj = getattr(multisums, name)
        if inspect.isfunction(obj) or inspect.isclass(obj):
            pairs += [(name, p.name) for p in inspect.signature(obj).parameters.values() if p.annotation == "int"]
    return pairs


def test_every_public_integer_parameter_is_in_the_boundary_table():
    table = {(name, parameter) for name, arguments in VALID.items() for parameter in arguments}
    missing = [pair for pair in _int_parameters() if pair not in table]
    assert missing == []


@pytest.mark.parametrize("value", BAD_INTEGERS, ids=repr)
@pytest.mark.parametrize("name,parameter", _int_parameters(), ids=lambda v: v)
def test_a_public_integer_parameter_refuses_a_bool_a_float_and_a_string(name, parameter, value):
    assert getattr(multisums, name)(**VALID[name]) is not None  # the valid call returns a value
    message = RANGE_MESSAGES.get((name, parameter))
    if message is None:
        message = f"{READER_NAMES.get((name, parameter), parameter)} must be an integer, got {{value!r}}"
    with pytest.raises(ValueError) as refused:
        getattr(multisums, name)(**dict(VALID[name], **{parameter: value}))
    assert str(refused.value) == message.format(value=value)


IDENTITY_PARAMS = {
    IdentityId.LEMMA_3_1: {"m": 2},
    IdentityId.LEMMA_3_2: {"m": 2},
    IdentityId.STIRLING_ALTERNATING: {"m": 2},
    IdentityId.BINOMIAL_PARTITION: {"m": 2, "n": 3},
    IdentityId.PRODUCT_IDENTITY: {"spec": N, "q": 1, "n": 3},
    IdentityId.RECURRENT_BRIDGE: {"spec": N, "m": 2, "q": 1, "n": 3},
    IdentityId.EVEN_ODD_WEIGHTS: {"m": 2},
    IdentityId.EVEN_ODD_BINOM: {"m": 2},
    IdentityId.EVEN_ODD_N: {"m": 2, "n": 3},
}


def test_every_identity_and_integer_parameter_is_in_the_boundary_table():
    assert set(IDENTITY_PARAMS) == set(IdentityId)
    for identity, params in IDENTITY_PARAMS.items():
        assert set(params) == set(identities._REGISTRY[identity][1]) - {"phi"}
        assert verify(identity, params).equal


@pytest.mark.parametrize("value", BAD_INTEGERS, ids=repr)
@pytest.mark.parametrize("identity,key", [
    (identity, key) for identity, params in IDENTITY_PARAMS.items() for key in params if key != "spec"
], ids=lambda v: getattr(v, "value", v))
def test_an_identity_integer_parameter_refuses_a_bool_a_float_and_a_string(identity, key, value):
    message = f"parameter {key!r} must be an integer, got {value!r}"
    with pytest.raises(ValueError) as refused:
        verify(identity, dict(IDENTITY_PARAMS[identity], **{key: value}))
    assert str(refused.value) == message
    with pytest.raises(ValueError) as refused:
        identities.verify_sweep(identity, {key: [value]}, {k: v for k, v in IDENTITY_PARAMS[identity].items() if k != key})
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


@pytest.mark.parametrize("digits", [4300, 4301, 5000, 9000, 30_000])
def test_rational_to_str_writes_past_the_digit_limit(default_int_digits, digits):
    # each side read back digit by digit, as int() reads at most 4300 digits
    for value in (Fraction(10**digits - 1, 7), Fraction(-(10 ** (digits - 1)) - 3, 10**digits + 1)):
        num, den = exact_arith.rational_to_str(value).split("/")
        assert sys.get_int_max_str_digits() == sys.int_info.default_max_str_digits
        for text, part in ((num, value.numerator), (den, value.denominator)):
            assert text.lstrip("-") and text.lstrip("-")[0] != "0"
            read = sum(int(digit) * 10**i for i, digit in enumerate(reversed(text.lstrip("-"))))
            assert (-read if text.startswith("-") else read) == part


def test_library_report_past_the_digit_limit_equals_the_cli_line(default_int_digits, capsys):
    # both sides are 10^6000, 6001 digits; each value fits the limit, so the spec prints as JSON
    spec = core.ExplicitSequence([10**3000, 10**3000])
    library = verify(IdentityId.PRODUCT_IDENTITY, {"spec": spec, "q": 1, "n": 2}).to_json_dict()
    assert library["lhs"] == library["rhs"] == "1" + "0" * 6000 + "/1"
    spec_text = json.dumps(core.sequence_spec_to_json(spec) | {"values": [10**3000, 10**3000]})
    assert main(["verify", "PRODUCT_IDENTITY", "--spec", spec_text, "--q", "1", "--n", "2", "--json"]) == 0
    assert json.loads(capsys.readouterr().out) == [library]


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
