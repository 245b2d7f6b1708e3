import contextlib
import io
import json
import math
import os
import subprocess
import sys
from datetime import timedelta
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import multisums
from multisums.acceptance import run_all
from multisums.cli import CommandOutcome, main, run
from multisums.core import BRUTE_MAX_M, ExplicitSequence, sequence_spec_from_json
from multisums.exact_arith import rational_to_str
from multisums.identities import _REGISTRY, IdentityId, verify
from multisums.polynomials import coeff_ratio_from_roots, mean_root_ratio, poly_derivative, poly_from_roots


def run_main(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_partitions_list_golden(capsys):
    code, out, _ = run_main(capsys, ["partitions", "list", "4"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines == [
        '{"m":4,"y":[4,0,0,0],"length":4,"parity":"even"}',
        '{"m":4,"y":[2,1,0,0],"length":3,"parity":"odd"}',
        '{"m":4,"y":[0,2,0,0],"length":2,"parity":"even"}',
        '{"m":4,"y":[1,0,1,0],"length":2,"parity":"even"}',
        '{"m":4,"y":[0,0,0,1],"length":1,"parity":"odd"}',
    ]


def test_partitions_count(capsys):
    code, out, _ = run_main(capsys, ["partitions", "count", "10"])
    assert code == 0
    assert json.loads(out) == {"m": 10, "count": 42}


@pytest.mark.parametrize("action", ["count", "list"])
def test_partitions_negative_m_exits_2(capsys, action):
    code, out, _ = run_main(capsys, ["partitions", action, "-3"])
    assert code == 2
    assert out == '{"error":"m must be >= 0"}\n'


def test_multisum_eval_both(capsys):
    code, out, _ = run_main(
        capsys,
        [
            "multisum", "eval",
            "--spec", '{"kind":"index_power","exponent":1}',
            "--m", "2", "--q", "1", "--n", "4",
            "--method", "both",
        ],
    )
    assert code == 0
    assert out.strip() == '{"brute":"35/1","reduced":"35/1","equal":true}'


def test_multisum_eval_explicit_spec(capsys):
    code, out, _ = run_main(
        capsys,
        [
            "multisum", "eval",
            "--spec", '{"kind":"explicit","base":1,"values":["1/2","2/3","3/4"]}',
            "--m", "2", "--q", "1", "--n", "3",
            "--method", "reduce",
        ],
    )
    assert code == 0
    payload = json.loads(out)
    # e2 of 1/2, 2/3, 3/4 = 1/3 + 3/8 + 1/2
    assert payload == {"reduced": "29/24"}


def test_multisum_eval_negative_m_rejected(capsys):
    code, out, err = run_main(
        capsys,
        [
            "multisum", "eval",
            "--spec", '{"kind":"index_power","exponent":1}',
            "--m", "-1", "--q", "1", "--n", "4",
        ],
    )
    assert code == 2
    assert json.loads(out) == {"error": "m must be >= 0"}
    assert "error" in err


def test_multisum_brute_cap_env(capsys, monkeypatch):
    # The order cap is the constant BRUTE_MAX_M; the retired MULTISUM_MAX_M variable moves nothing.
    assert BRUTE_MAX_M == 6
    argv = ["multisum", "eval", "--spec", '{"kind":"index_power","exponent":1}', "--q", "1", "--n", "9"]
    for env in (None, "3", "abc"):
        if env is None:
            monkeypatch.delenv("MULTISUM_MAX_M", raising=False)
        else:
            monkeypatch.setenv("MULTISUM_MAX_M", env)
        code, out, _ = run_main(capsys, argv + ["--m", "7", "--method", "brute"])
        assert code == 2
        assert json.loads(out) == {"error": "m=7 exceeds brute-force cap 6"}
        code, out, _ = run_main(capsys, argv + ["--m", "6", "--method", "both"])
        assert code == 0
        assert json.loads(out)["equal"] is True
        # the reduction path is not brute force and stays available past the cap
        code, out, _ = run_main(capsys, argv + ["--m", "7", "--method", "reduce"])
        assert code == 0


@pytest.mark.parametrize(
    "spec",
    [
        "[1]",  # not an object
        '{"kind":"index_power"}',  # no exponent
        '{"kind":"explicit","base":1,"values":[0.1]}',  # JSON float
        '{"kind":"explicit","base":1,"values":[true]}',  # JSON bool
        '{"kind":"index_power","exponent":1.7}',  # non-integral exponent
        '{"kind":"explicit","base":1.5,"values":["1/2"]}',  # non-integral base
    ],
    ids=["non_object", "missing_exponent", "float_value", "bool_value", "fractional_exponent", "fractional_base"],
)
def test_multisum_eval_malformed_spec_exits_2(capsys, spec):
    argv = ["multisum", "eval", "--spec", spec, "--m", "1", "--q", "1", "--n", "1"]
    code, out, err = run_main(capsys, argv)
    assert code == 2
    assert set(json.loads(out)) == {"error"}
    assert "Traceback" not in err


def test_unknown_subcommand_exits_2(capsys):
    code, out, _ = run_main(capsys, ["frobnicate"])
    assert code == 2
    assert json.loads(out) == {"error": "bad usage (see stderr)"}


def test_poly_vieta(capsys):
    code, out, _ = run_main(capsys, ["poly", "vieta", "--roots", "1,2,3", "--m", "2"])
    assert code == 0
    assert out.strip() == '{"lhs":"11/1","rhs":"11/1","equal":true}'


def test_poly_derivative_mean(capsys):
    code, out, _ = run_main(capsys, ["poly", "check-derivative-mean", "--roots", "1,2,3", "--k", "2"])
    assert code == 0
    assert json.loads(out) == {"lhs": "2/1", "rhs": "2/1", "equal": True}
    code, _, _ = run_main(capsys, ["poly", "check-derivative-mean", "--roots", "1,2,3", "--k", "3"])
    assert code == 2


def test_special_faulhaber(capsys):
    code, out, _ = run_main(capsys, ["special", "faulhaber", "--n", "10", "--p", "3"])
    assert code == 0
    assert json.loads(out) == {"n": 10, "p": 3, "value": "3025/1"}


def test_special_mzv(capsys):
    code, out, _ = run_main(capsys, ["special", "mzv", "--m", "2", "--p", "1", "--numeric", "10"])
    assert code == 0
    payload = json.loads(out)
    assert payload["value"] == {"4": "1/120"}
    assert payload["closed_form"] == {"4": "1/120"}
    assert payload["equal"] is True
    assert payload["numeric"] == "0.8117424253"


def test_special_zeta_table(capsys):
    code, out, _ = run_main(capsys, ["special", "zeta-table"])
    assert code == 0
    payload = json.loads(out)
    assert payload["all_match"] is True
    assert len(payload["entries"]) == 8
    assert payload["entries"][0] == {
        "argument": 2,
        "computed": {"2": "1/6"},
        "golden": "1/6",
        "match": True,
    }


def test_verify_single_and_sweep(capsys):
    code, out, _ = run_main(capsys, ["verify", "LEMMA_3_1", "--m", "4"])
    assert code == 0
    assert json.loads(out) == {"identity": "LEMMA_3_1", "reports": 1, "passed": 1, "all_equal": True}
    code, out, _ = run_main(capsys, ["verify", "LEMMA_3_1", "--sweep", "m=0..12"])
    assert code == 0
    assert json.loads(out)["reports"] == 13


@pytest.mark.parametrize(
    ("identity", "sweep"),
    [("LEMMA_3_1", "m=0..2,m=5"), ("LEMMA_3_1", "m=0..2,k=5"), ("LEMMA_3_2", "m=2,phi=1"),
     ("LEMMA_3_1", "m=0..1000000000"), ("LEMMA_3_2", "m=40"), ("EVEN_ODD_BINOM", "m=1000000000")],
    ids=["duplicate_key", "unknown_key", "phi_key", "too_many_points", "too_many_phi_reports",
         "huge_phi_order"],
)
def test_verify_malformed_sweep_exits_2(capsys, identity, sweep):
    code, out, err = run_main(capsys, ["verify", identity, "--sweep", sweep])
    assert code == 2
    assert set(json.loads(out)) == {"error"}
    assert "Traceback" not in err


@pytest.mark.parametrize("identity,sweep", [("LEMMA_3_1", "m=0..100000000000000000000"),
                                            ("BINOMIAL_PARTITION", "n=0..100000000000000000000,m=1")],
                         ids=["LEMMA_3_1-m", "BINOMIAL_PARTITION-n"])
def test_verify_sweep_longer_than_maxsize_exits_2(capsys, identity, sweep):
    code, out, err = run_main(capsys, ["verify", identity, "--sweep", sweep])
    assert code == 2
    assert json.loads(out) == {"error": "sweep of 100000000000000000001 points exceeds the cap 10000"}
    assert "Traceback" not in err


@pytest.mark.parametrize("exponent,m,q,n,method", [(-1, 5, 0, 2, "reduce"), (-1, 5, 0, 2, "both"),
                                                   (1, 10**20, 1, 3, "reduce")],
                         ids=["index_0-reduce", "index_0-both", "huge_order"])
def test_multisum_order_past_the_window_is_zero(capsys, exponent, m, q, n, method):
    spec = json.dumps({"kind": "index_power", "exponent": exponent})
    argv = ["multisum", "eval", "--spec", spec, "--m", str(m), "--q", str(q), "--n", str(n), "--method", method]
    code, out, _ = run_main(capsys, argv)
    assert code == 0
    expected = {"reduced": "0/1"} if method == "reduce" else {"brute": "0/1", "reduced": "0/1", "equal": True}
    assert json.loads(out) == expected


BRIDGE = ["verify", "RECURRENT_BRIDGE", "--spec", '{"kind":"index_power","exponent":1}', "--q", "1", "--n", "8"]


@pytest.mark.parametrize("order", [["--m", "7"], ["--sweep", "m=7"], ["--sweep", "m=0..7"]],
                         ids=["m", "sweep_one", "sweep_range"])
def test_verify_bridge_brute_cap_holds_on_sweeps(capsys, order):
    code, out, _ = run_main(capsys, BRIDGE + order)
    assert code == 2
    assert "brute-force cap 6" in json.loads(out)["error"]


@pytest.mark.parametrize(
    "argv",
    [["special", "mzv", "--m", "2", "--p", "1", "--numeric", "1001"], ["partitions", "list", "51"]],
    ids=["numeric_digits", "partitions_list"],
)
def test_output_caps_exit_2(capsys, argv):
    code, out, _ = run_main(capsys, argv)
    assert code == 2
    assert set(json.loads(out)) == {"error"}


@pytest.mark.parametrize(
    "argv",
    [
        # C(300, 6), about 1.3e12 tuples, within the order cap of 6
        ["multisum", "eval", "--spec", '{"kind":"index_power","exponent":1}',
         "--m", "6", "--q", "1", "--n", "300", "--method", "brute"],
        # C(45, 6), about 8.1e6 weakly increasing tuples
        BRIDGE[:-1] + ["40", "--m", "6"],
    ],
    ids=["multisum_eval", "recurrent_bridge"],
)
def test_brute_tuple_guard_exits_2(capsys, argv):
    code, out, err = run_main(capsys, argv)
    assert code == 2
    assert "exceeds the cap of 1000000" in json.loads(out)["error"]
    assert "Traceback" not in err


def test_verify_partition_order_cap(capsys):
    code, out, _ = run_main(capsys, ["verify", "LEMMA_3_1", "--m", "60"])
    assert code == 2
    assert "partition enumeration cap 50" in json.loads(out)["error"]
    code, out, _ = run_main(capsys, ["verify", "LEMMA_3_1", "--m", "20"])
    assert code == 0
    assert json.loads(out)["all_equal"] is True


def test_verify_stirling_high_order_in_fresh_process():
    # A fresh interpreter starts with an empty Stirling cache, so row 1200 is built from row 0.
    env = {**os.environ, "PYTHONPATH": str(Path(multisums.__file__).parents[1])}
    argv = [sys.executable, "-m", "multisums", "verify", "STIRLING_ALTERNATING", "--m", "1200"]
    done = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0
    assert json.loads(done.stdout) == {"identity": "STIRLING_ALTERNATING", "reports": 1, "passed": 1, "all_equal": True}
    assert "Traceback" not in done.stderr


def test_verify_lemma_3_1_at_the_order_cap_in_fresh_process():
    # p(50) = 204 226 partitions, the largest order a partition sum takes
    env = {**os.environ, "PYTHONPATH": str(Path(multisums.__file__).parents[1])}
    argv = [sys.executable, "-m", "multisums", "verify", "LEMMA_3_1", "--m", "50"]
    done = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0
    assert json.loads(done.stdout) == {"identity": "LEMMA_3_1", "reports": 1, "passed": 1, "all_equal": True}
    assert "Traceback" not in done.stderr


@pytest.mark.parametrize(
    ("argv", "reports"),
    [
        # 3506 phi reports, whose phi != 0 full sides walk 34 210 terms
        (["verify", "LEMMA_3_2", "--sweep", "m=21"], 3506),
        # ten values of n, all reading the one kept walk of order 50
        (["verify", "EVEN_ODD_N", "--sweep", "n=0..9,m=50"], 10),
    ],
    ids=["lemma_3_2_phi", "even_odd_n"],
)
def test_verify_sweep_within_the_partition_budget_exits_0(capsys, argv, reports):
    code, out, err = run_main(capsys, argv)
    assert code == 0
    assert json.loads(out) == {"identity": argv[1], "reports": reports, "passed": reports, "all_equal": True}
    assert "Traceback" not in err


@pytest.mark.parametrize(
    ("argv", "error"),
    [
        (["special", "faulhaber", "--n", "10", "--p", "513"], "p=513 needs B_513, past the Bernoulli index cap 512"),
        (["special", "mzv", "--m", "257", "--p", "1"], "m=257, p=1 needs B_514, past the Bernoulli index cap 512"),
        (["special", "mzv", "--m", "200", "--p", "3", "--numeric", "10"],
         "m=200, p=3 needs B_1200, past the Bernoulli index cap 512"),
        (["verify", "BINOMIAL_PARTITION", "--n", "5", "--m", "4000"],
         "n=5, m=4000: BINOMIAL_PARTITION takes n and m up to 2000"),
        (["verify", "PRODUCT_IDENTITY", "--spec", '{"kind":"index_power","exponent":1}', "--q", "1", "--n", "1000"],
         "window of 1000 terms exceeds the PRODUCT_IDENTITY cap 100"),
        (["partitions", "count", "10001"], "m=10001 exceeds the partition count cap 10000"),
        (["verify", "STIRLING_ALTERNATING", "--m", "2001"], "m=2001 exceeds the STIRLING_ALTERNATING cap 2000"),
    ],
    ids=["faulhaber", "mzv", "mzv_numeric", "binomial_partition", "product_identity", "partitions_count",
         "stirling_alternating"],
)
def test_capped_calls_exit_2_before_any_work(capsys, monkeypatch, argv, error):
    cold = ((1,), [1])
    monkeypatch.setattr(multisums.exact_arith, "_zigzag", cold)
    code, out, err = run_main(capsys, argv)
    assert code == 2
    assert json.loads(out) == {"error": error}
    assert "Traceback" not in err
    assert multisums.exact_arith._zigzag is cold


def test_help_prints_usage_and_no_json(capsys):
    code, out, _ = run_main(capsys, ["--help"])
    assert code == 0
    assert out.startswith("usage: multisums")
    assert "selftest" in out
    assert not any(line.startswith("{") for line in out.splitlines())
    # the description is the module docstring's first paragraph, naming no private cap constant
    assert "_MAX" not in out


def test_exact_results_print_in_full(capsys):
    # H_10000 has a denominator of about 4300 digits, past Python's default int-to-string limit
    code, out, _ = run_main(capsys, [
        "multisum", "eval", "--spec", '{"kind":"index_power","exponent":-1}',
        "--m", "1", "--q", "1", "--n", "10000", "--method", "reduce",
    ])
    assert code == 0
    common = math.lcm(*range(1, 10_001))
    harmonic = Fraction(sum(common // k for k in range(1, 10_001)), common)
    assert len(str(harmonic.denominator)) > 4300
    assert json.loads(out) == {"reduced": rational_to_str(harmonic)}


def test_verify_json_reports(capsys):
    code, out, _ = run_main(capsys, ["verify", "EVEN_ODD_N", "--n", "3", "--m", "2", "--json"])
    assert code == 0
    reports = json.loads(out)
    assert len(reports) == 1
    assert reports[0]["lhs"] == ["9/2", "3/2"]
    assert "C(n-m+1, m)" in reports[0]["note"]


def test_verify_phi_and_r(capsys):
    code, out, _ = run_main(capsys, ["verify", "LEMMA_3_2", "--m", "3", "--phi", "0,1,0", "--r", "2"])
    assert code == 0
    code, out, _ = run_main(capsys, ["verify", "LEMMA_3_2", "--m", "3", "--phi", "0,1,0", "--r", "3"])
    assert code == 2
    assert "not a partition of r=3" in json.loads(out)["error"]


def test_verify_with_spec_json(capsys):
    code, out, _ = run_main(
        capsys,
        ["verify", "PRODUCT_IDENTITY", "--spec", '{"kind":"index_power","exponent":1}', "--q", "2", "--n", "5"],
    )
    assert code == 0
    assert json.loads(out)["all_equal"] is True


def test_verify_bad_identity_exits_2(capsys):
    code, _, _ = run_main(capsys, ["verify", "NOT_AN_IDENTITY", "--m", "1"])
    assert code == 2


def test_stdout_byte_identical_across_runs(capsys):
    argv = ["verify", "EVEN_ODD_BINOM", "--sweep", "m=0..5", "--json"]
    _, first, _ = run_main(capsys, argv)
    _, second, _ = run_main(capsys, argv)
    assert first == second


def test_selftest_single_criterion(capsys):
    code, out, err = run_main(capsys, ["selftest", "--criterion", "2"])
    assert code == 0
    payload = json.loads(out)
    assert payload["all_passed"] is True
    assert payload["criteria"][0]["criterion"] == 2
    # timing lives on stderr only, stdout stays run-to-run stable
    assert "seconds" not in out
    assert "PASS" in err


def test_selftest_jobs_keeps_stdout_stable(capsys):
    # parallel run buffers results in criterion order, so stdout cannot drift
    code_a, out_a, _ = run_main(capsys, ["selftest", "--criterion", "2"])
    code_b, out_b, _ = run_main(capsys, ["selftest", "--criterion", "2", "--jobs", "2"])
    assert (code_a, out_a) == (code_b, out_b)


def test_selftest_unknown_criterion(capsys):
    code, out, _ = run_main(capsys, ["selftest", "--criterion", "11"])
    assert code == 2


def test_outcome_invariant():
    assert run(["partitions", "count", "3"]) == CommandOutcome(0, {"m": 3, "count": 3})


def _library_error(call) -> str:
    with pytest.raises(ValueError) as caught:
        call()
    return str(caught.value)


@pytest.mark.parametrize(
    ("argv", "call"),
    [
        (["poly", "vieta", "--roots", "1,2,3", "--m", "4"], lambda: coeff_ratio_from_roots([1, 2, 3], 4)),
        (["poly", "check-derivative-mean", "--roots", "1,2,3", "--k", "-1"],
         lambda: poly_derivative(poly_from_roots([1, 2, 3]), -1)),
        (["poly", "check-derivative-mean", "--roots", "1,2,3", "--k", "3"],
         lambda: mean_root_ratio(poly_derivative(poly_from_roots([1, 2, 3]), 3))),
        # a huge order stops at the zero polynomial instead of differentiating a billion times
        (["poly", "check-derivative-mean", "--roots", "1,2,3", "--k", "1000000000"],
         lambda: mean_root_ratio(poly_derivative(poly_from_roots([1, 2, 3]), 10**9))),
        (["selftest", "--criterion", "11"], lambda: run_all([11])),
        # a parameter the identity does not take is refused, not ignored
        (["verify", "LEMMA_3_1", "--m", "3", "--n", "5"], lambda: verify(IdentityId.LEMMA_3_1, {"m": 3, "n": 5})),
        (["verify", "LEMMA_3_1", "--m", "3", "--phi", "1"],
         lambda: verify(IdentityId.LEMMA_3_1, {"m": 3, "phi": (1,)})),
        (["verify", "EVEN_ODD_WEIGHTS", "--m", "4", "--spec", "{}"],
         lambda: verify(IdentityId.EVEN_ODD_WEIGHTS, {"m": 4, "spec": {}})),
        # a spec that is JSON but not an object is refused by the spec parser
        (["verify", "PRODUCT_IDENTITY", "--q", "1", "--n", "2", "--spec", "[1]"],
         lambda: verify(IdentityId.PRODUCT_IDENTITY, {"q": 1, "n": 2, "spec": [1]})),
    ],
    ids=["vieta_m_range", "negative_k", "degree_left", "huge_k", "criterion_number", "verify_extra_n",
         "verify_extra_phi", "verify_extra_spec", "verify_spec_not_an_object"],
)
def test_library_rules_exit_2_with_library_text(capsys, argv, call):
    code, out, err = run_main(capsys, argv)
    assert code == 2
    assert json.loads(out) == {"error": _library_error(call)}
    assert "Traceback" not in err


def _explicit_spec(token: str) -> str:
    return '{"kind":"explicit","base":1,"values":[' + token + "]}"


@pytest.mark.parametrize(("text", "value"), [("3/4", Fraction(3, 4)), ("-2", Fraction(-2)), ("7", Fraction(7))])
def test_rational_grammar_is_shared(capsys, text, value):
    # ExplicitSequence, spec JSON and --roots read a string by one grammar
    assert ExplicitSequence((text,)).values == (value,)
    assert sequence_spec_from_json(json.loads(_explicit_spec(json.dumps(text)))).values == (value,)
    argv = ["multisum", "eval", "--spec", _explicit_spec(json.dumps(text)), "--m", "1", "--q", "1", "--n", "1"]
    code, out, _ = run_main(capsys, argv + ["--method", "reduce"])
    assert code == 0
    assert json.loads(out) == {"reduced": rational_to_str(value)}
    # vieta at m = 1 is -e_1, the negated root
    code, out, _ = run_main(capsys, ["poly", "vieta", f"--roots={text}", "--m", "1"])
    assert code == 0
    assert json.loads(out)["lhs"] == rational_to_str(-value)


@pytest.mark.parametrize("token", ['"0.1"', '"1e3"', '"nan"', "0.1", "true"])
def test_rational_grammar_refusals_agree(capsys, token):
    # JSON tokens: three strings outside the grammar, a float and a bool
    value = json.loads(token)
    with pytest.raises(ValueError):
        ExplicitSequence((value,))
    with pytest.raises(ValueError):
        poly_from_roots([value])
    roots = value if isinstance(value, str) else token
    for argv in (
        ["multisum", "eval", "--spec", _explicit_spec(token), "--m", "1", "--q", "1", "--n", "1"],
        ["poly", "vieta", f"--roots={roots}", "--m", "1"],
    ):
        code, out, err = run_main(capsys, argv)
        assert code == 2
        assert set(json.loads(out)) == {"error"}
        assert "Traceback" not in err



@pytest.mark.parametrize(
    "argv",
    [
        ["multisum", "eval", "--m", "1", "--q", "1", "--n", "2", "--spec"],
        ["verify", "PRODUCT_IDENTITY", "--q", "1", "--n", "2", "--spec"],
    ],
    ids=["multisum_eval", "verify"],
)
def test_spec_nested_too_deeply_exits_2(capsys, argv):
    code, out, err = run_main(capsys, argv + ["[" * 100_000])
    assert code == 2
    assert json.loads(out) == {"error": "--spec JSON is nested too deeply to parse"}
    assert "Traceback" not in err


# Every subcommand but selftest, on small integers and on well-formed and
# malformed spec, roots, phi and sweep strings. Orders, windows and powers
# stay small: the reduce routes have no cap on them yet (ROADMAP, "Caps"),
# so a large one is slow, not refused, and the caps of PRODUCT_IDENTITY's
# window and of faulhaber's p still admit calls of a few seconds.
@st.composite
def _mostly(draw, good, bad, tenths=8):
    """A draw from good `tenths` times in ten, else from bad."""
    return draw(good if draw(st.integers(1, 10)) <= tenths else bad)


@st.composite
def _option(draw, name, values, tenths=9):
    """[name, value] `tenths` times in ten, else no option."""
    return [name, draw(values)] if draw(st.integers(1, 10)) <= tenths else []


def _csv(tokens) -> st.SearchStrategy:
    return st.lists(tokens, min_size=1, max_size=5).map(",".join)


_ints = _mostly(st.integers(0, 8), st.integers(-2, -1)).map(str)
_value_tokens = _mostly(st.one_of(st.integers(-3, 3), st.sampled_from(["1/2", "-3/4"])),
                        st.sampled_from(["0.1", "1/0", "x", 0.5, True, None]), tenths=9)
_specs = _mostly(
    st.one_of(
        st.builds(lambda e: json.dumps({"kind": "index_power", "exponent": e}), st.integers(-2, 3)),
        st.builds(lambda base, values: json.dumps({"kind": "explicit", "base": base, "values": values}),
                  st.integers(-1, 2), st.lists(_value_tokens, max_size=10)),
    ),
    st.one_of(
        st.sampled_from(["[1]", "5", "null", "{}", "{", '"x"', '{"kind":"index_power"}', '{"kind":"other"}',
                         '{"kind":"index_power","exponent":1.5}', "[" * 5000]),
        st.text(max_size=6),
    ),
)
_roots = _csv(_mostly(st.sampled_from(["1", "-2", "3/4", "0", " 5 "]), st.sampled_from(["0.1", "1/0", "x", ""])))
_phis = _csv(_mostly(st.sampled_from(["0", "1", "2"]), st.sampled_from(["-1", "a", ""])))
_sweeps = _mostly(
    _csv(st.builds(lambda name, lo, hi: f"{name}={lo}..{hi}", st.sampled_from(["m", "n", "q"]),
                   st.integers(-1, 3), st.integers(-1, 6))),
    st.sampled_from(["m=", "=3", "m=3..1", "m=a", "m=0..4,m=1", "m=2,phi=1", ",", "m=1..2..3", "x=1"]),
)
_VERIFY_OPTIONS = {"--m": _ints, "--n": _ints, "--q": _ints, "--r": _ints, "--phi": _phis, "--spec": _specs}


@st.composite
def _verify_argv(draw):
    identity = draw(st.sampled_from([i.value for i in IdentityId] + ["NOT_AN_IDENTITY"]))
    taken = {f"--{p}" for p in _REGISTRY[identity][1]} if identity in _REGISTRY else set()
    argv = ["verify", identity]
    for name, values in _VERIFY_OPTIONS.items():
        argv += draw(_option(name, values, 8 if name in taken else 1))
    return argv + draw(_option("--sweep", _sweeps, 3)) + draw(st.sampled_from([[], ["--json"]]))


def _argv(*parts) -> st.SearchStrategy:
    return st.tuples(*(st.just([p]) if isinstance(p, str) else p for p in parts)).map(lambda ps: sum(ps, []))


_COMMANDS = {
    "partitions": _argv("partitions", st.sampled_from([["list"], ["count"]]), _ints.map(lambda v: [v])),
    "multisum": _argv("multisum", "eval", _option("--spec", _specs), _option("--m", _ints), _option("--q", _ints),
                      _option("--n", _ints), _option("--method", st.sampled_from(["brute", "reduce", "both", "x"]))),
    "poly": st.one_of(
        _argv("poly", "vieta", _option("--roots", _roots), _option("--m", _ints)),
        _argv("poly", "check-derivative-mean", _option("--roots", _roots), _option("--k", _ints)),
    ),
    "special": st.one_of(
        _argv("special", "faulhaber", _option("--n", st.integers(-2, 10**6).map(str)), _option("--p", _ints)),
        _argv("special", "mzv", _option("--m", _ints), _option("--p", st.integers(-1, 4).map(str)),
              _option("--numeric", st.integers(-1, 40).map(str), 3)),
        st.just(["special", "zeta-table"]),
    ),
    "verify": _verify_argv(),
}


@pytest.mark.parametrize("command", sorted(_COMMANDS))
def test_every_outcome_is_an_exit_code_with_json_on_stdout(command):
    @settings(deadline=timedelta(seconds=5))
    @given(_COMMANDS[command])
    def check(argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        assert code in (0, 1, 2)
        assert "Traceback" not in err.getvalue()
        lines = out.getvalue().splitlines()
        if argv[:2] == ["partitions", "list"] and code == 0:
            assert all(json.loads(line)["m"] == int(argv[2]) for line in lines)
        else:
            assert len(lines) == 1
            payload = json.loads(lines[0])
            if code == 2:
                assert list(payload) == ["error"] and isinstance(payload["error"], str)

    check()
