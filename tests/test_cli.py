import json
import math
from fractions import Fraction

import pytest

from heckediv import cli, curve as C, forms as F, pairing as P
from heckediv.errors import InvalidInput
from heckediv.niebur import EvalParams


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_qexp_round_trip(capsys):
    code, out = run_cli(capsys, "qexp", "--form", "E4", "--prec", "6")
    assert code == 0
    assert json.loads(out) == F.eisenstein(4, 6).to_json()


def test_algebra_mul_example(capsys):
    code, out = run_cli(capsys, "algebra-mul", "--N", "1", "--u", "T2", "--v", "T2")
    assert code == 0
    assert json.loads(out) == {"N": 1, "terms": [{"a": 1, "d": 4, "mult": 1},
                                                 {"a": 2, "d": 2, "mult": 3}]}


def test_hecke_mult_emits_the_series_json(capsys):
    code, out = run_cli(capsys, "hecke-mult", "--form", "E4", "--n", "2",
                        "--prec", "25")
    assert code == 0
    # the payload is the series JSON itself, plus the weight and the level
    rhs = F.eisenstein(12, 25) - Fraction(36882000, 691) * F.delta(25)
    assert json.loads(out) == {**rhs.to_json(), "weight": 12, "level": 1}


def test_hecke_add_normalizations(capsys):
    _, out_p = run_cli(capsys, "hecke-add", "--form", "Delta", "--n", "2",
                       "--prec", "10")
    _, out_c = run_cli(capsys, "hecke-add", "--form", "Delta", "--n", "2",
                       "--prec", "10", "--normalization", "classical")
    # T(2) Delta = tau(2) Delta = -24 Delta, times 2^(1 - k) = 2^-11 normalized
    assert json.loads(out_p) == (Fraction(-3, 4) * F.delta(10)).to_json()
    assert json.loads(out_c) == (-24 * F.delta(10)).to_json()


def test_divisor_and_hecke_div(capsys):
    code, out = run_cli(capsys, "divisor", "--form", "jminus:1728")
    D = C.divisor_of_form(F.expression_by_name("jminus:1728"), 1)
    assert code == 0 and json.loads(out) == D.to_json()
    assert D.degree == 0
    code2, out2 = run_cli(capsys, "hecke-div", "--form", "jminus:1728", "--n", "2")
    TD = C.hecke_divisor(2, D)
    assert code2 == 0 and json.loads(out2) == TD.to_json()
    assert TD.cusp_coefficient(1, 0) == -3 and len(TD.interior) == 2


def test_bko_verb(capsys):
    code, out = run_cli(capsys, "bko", "--n", "1", "--form", "E4", "--digits", "35")
    assert code == 0
    data = json.loads(out)
    assert data["exact_s1"] == "-240"
    assert data["value"][0].startswith("-240.0")
    assert data["digits"] == 35
    code, out = run_cli(capsys, "bko", "--n", "1", "--form", "E4")
    assert code == 0 and json.loads(out)["digits"] == 30
    # the printed value keeps its 40 digits: it used to pass through a
    # double, 22804995243537595070333059072.0 here
    code, out = run_cli(capsys, "bko", "--n", "12", "--form", "E4", "--digits", "40")
    data = json.loads(out)
    assert code == 0 and data["exact_s1"] == "22804995243537595828606337280"
    assert data["value"][0] == data["exact_s1"] + ".0"


def test_rohrlich_exact_and_numeric(capsys):
    code, out = run_cli(capsys, "rohrlich", "--m", "2", "--form", "E4")
    data = json.loads(out)
    assert code == 0 and data["exact"] and data["value"] == "53280"
    code2, out2 = run_cli(capsys, "rohrlich", "--m", "1", "--form", "E4",
                          "--s", "1.5", "--C", "80")
    data2 = json.loads(out2)
    assert code2 == 0 and data2["exact"] is False
    assert float(data2["value"][0]) != 0.0


def test_niebur_verb_schema(capsys):
    code, out = run_cli(capsys, "niebur", "--N", "1", "--m", "1", "--s", "1.5",
                        "--tau", "0,1", "--C", "40")
    assert code == 0
    data = json.loads(out)
    assert set(data) == {"value", "error", "C"}
    assert data["C"] == 40
    assert float(data["error"]) >= 0


def test_verify_exit_codes(capsys):
    code, out = run_cli(capsys, "verify", "--suite", "algebra")
    assert code == 0
    reports = json.loads(out)
    assert all(r["passed"] for r in reports)


def test_table_format(capsys):
    code, out = run_cli(capsys, "--format", "table", "verify", "--suite", "algebra")
    assert code == 0
    assert out.count("PASS") == 3


def test_table_format_of_a_record(capsys):
    # one "key: value" line per field; strings bare, everything else as JSON
    code, out = run_cli(capsys, "--format", "table", "rohrlich", "--m", "2", "--form", "E4")
    assert code == 0
    assert out == "N: 1\nm: 2\ns: 1\nexact: true\nvalue: 53280\n"


def test_computation_error_exit_code(capsys):
    # composite n sharing a factor with the level -> module error, exit 1
    code, out = run_cli(capsys, "hecke-mult", "--form", "E4", "--n", "4",
                        "--level", "2")
    assert code == 1
    data = json.loads(out)
    assert data["error"] == "UnsupportedParameter"


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        cli.main(["qexp", "--no-such-flag"])
    assert exc.value.code == 2


def test_unknown_suite_rejected():
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "--suite", "nope"])
    assert exc.value.code == 2


def test_niebur_verb_has_no_digits_flag():
    # the Poincare sum runs in doubles; the verb prints 17 digits
    with pytest.raises(SystemExit) as exc:
        cli.main(["niebur", "--m", "1", "--s", "1.5", "--tau", "0,1", "--C", "4",
                  "--digits", "20"])
    assert exc.value.code == 2


def test_rohrlich_numeric_accepts_high_digits(capsys):
    code, out = run_cli(capsys, "rohrlich", "--m", "1", "--form", "E4",
                        "--s", "1.5", "--C", "20", "--digits", "40")
    data = json.loads(out)
    assert code == 0 and data["exact"] is False
    assert float(data["value"][0]) != 0.0


@pytest.mark.parametrize("bad", ("0", "-3", "abc", "2.5"))
def test_digits_must_be_a_positive_integer(capsys, bad):
    for verb in (("bko", "--n", "1"), ("rohrlich", "--m", "2")):
        with pytest.raises(SystemExit) as exc:
            cli.main([*verb, "--form", "E4", "--digits", bad])
        assert exc.value.code == 2
        assert repr(bad) in capsys.readouterr().err


@pytest.mark.parametrize("argv,bad", [
    (("niebur", "--m", "1", "--s", "0.5", "--tau", "0,1", "--C", "10"), "0.5"),
    (("niebur", "--m", "1", "--s", "1", "--tau", "0,1"), "1"),
    (("niebur", "--m", "1", "--s", "inf", "--tau", "0,1"), "inf"),
    (("niebur", "--m", "1", "--s", "1.5", "--tau", "0,1", "--C", "0"), "0"),
    (("rohrlich", "--m", "1", "--form", "E4", "--s", "0.99"), "0.99"),
    (("rohrlich", "--m", "1", "--form", "E4", "--s", "nan"), "nan"),
    (("rohrlich", "--m", "1", "--form", "E4", "--s", "1.5", "--C", "0"), "0"),
    (("niebur", "--m", "1", "--s", "1.5", "--tau", "0,-1"), "0,-1"),
    (("niebur", "--m", "1", "--s", "1.5", "--tau", "0,0"), "0,0"),
    (("niebur", "--m", "1", "--s", "1.5", "--tau", "0"), "0"),
    (("niebur", "--m", "1", "--s", "1.5", "--tau", "inf,1"), "inf,1"),
    (("niebur", "--m", "1", "--s", "1.5", "--tau", "0,nan"), "0,nan"),
])
def test_poincare_parameters_are_usage_errors(capsys, argv, bad):
    with pytest.raises(SystemExit) as exc:
        cli.main(list(argv))
    assert exc.value.code == 2
    assert repr(bad) in capsys.readouterr().err


def test_rohrlich_accepts_s_exactly_one(capsys):
    code, out = run_cli(capsys, "rohrlich", "--m", "2", "--form", "E4", "--s", "1")
    assert code == 0 and json.loads(out) == {"N": 1, "m": 2, "s": "1", "exact": True,
                                             "value": "53280"}


def test_rohrlich_numeric_prints_what_the_double_sum_carries(capsys):
    code, out = run_cli(capsys, "rohrlich", "--m", "1", "--form", "E4",
                        "--s", "1.5", "--C", "40", "--digits", "40")
    data = json.loads(out)
    assert code == 0
    for part in data["value"]:
        mantissa = part.split("e")[0].lstrip("-").replace(".", "").lstrip("0")
        assert len(mantissa) <= 17, part
    res = P.r_numeric(1, 1, 1.5, F.expression_by_name("E4"), EvalParams(truncation=40))
    assert data["error"] == f"{res.error_estimate:.6g}"
    assert res.error_estimate > 0


@pytest.mark.parametrize("argv,bad", [
    (("bko", "--n", "0", "--form", "E4"), "0"),
    (("hecke-add", "--form", "Delta", "--n", "0"), "0"),
    (("hecke-add", "--form", "Delta", "--n", "-2"), "-2"),
    (("hecke-add", "--form", "E4", "--n", "3", "--level", "0"), "0"),
    (("hecke-add", "--form", "E4", "--n", "2", "--prec", "-1"), "-1"),
    (("hecke-mult", "--form", "E4", "--n", "0"), "0"),
    (("hecke-mult", "--form", "E4", "--n", "2", "--level", "-2"), "-2"),
    (("hecke-mult", "--form", "E4", "--n", "2", "--prec", "0"), "0"),
    (("divisor", "--form", "E4", "--level", "0"), "0"),
    (("divisor", "--form", "E4", "--level", "-5"), "-5"),
    (("hecke-div", "--form", "E4", "--n", "0"), "0"),
    (("hecke-div", "--form", "E4", "--n", "2", "--level", "0"), "0"),
    (("algebra-mul", "--N", "0", "--u", "T2", "--v", "T2"), "0"),
    (("qexp", "--form", "E4", "--prec", "0"), "0"),
    (("qexp", "--form", "Delta", "--prec", "0"), "0"),
    (("qexp", "--form", "E4", "--prec", "x"), "x"),
    (("rohrlich", "--N", "0", "--m", "1", "--form", "E4"), "0"),
    (("niebur", "--N", "0", "--m", "1", "--s", "1.5", "--tau", "0,1"), "0"),
])
def test_integer_parameters_are_usage_errors(capsys, argv, bad):
    with pytest.raises(SystemExit) as exc:
        cli.main(list(argv))
    assert exc.value.code == 2
    assert f"not a positive integer: {bad!r}" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ("divisor", "--form", "eta:2:-1=24", "--level", "2"),
    ("hecke-div", "--form", "eta:2:-1=24", "--n", "3", "--level", "2"),
])
def test_negative_eta_arguments_are_typed_errors(capsys, argv):
    # -1 divides every level, yet eta(-tau) is no form
    code, out = run_cli(capsys, *argv)
    assert code == 1 and json.loads(out)["error"] == "UnsupportedParameter"


@pytest.mark.parametrize("argv", [
    ("hecke-mult", "--form", "eta:3:1=12,3=-12", "--n", "3", "--level", "1"),
    ("hecke-add", "--form", "eta:3:1=12,3=-12", "--n", "3", "--level", "1"),
    ("rohrlich", "--m", "1", "--form", "eta:2:1=24,2=-24", "--N", "1"),
])
def test_forms_off_their_level_are_refused(capsys, argv):
    code, out = run_cli(capsys, *argv)
    assert code == 1 and json.loads(out)["error"] == "UnsupportedParameter"


@pytest.mark.parametrize("name", ("nosuch", "eta:2:3=24", "eta:2:1=1x", "eta:4:1=x", "eta:4",
                                  "eta:x:1=2", "eta:4:1=2,,", "jminus:abc"))
def test_malformed_form_names_are_usage_errors(capsys, name):
    # InvalidInput in the library, and so a usage error (exit 2) on the CLI
    with pytest.raises(InvalidInput):
        F.expression_by_name(name)
    with pytest.raises(SystemExit) as exc:
        cli.main(["qexp", "--form", name])
    assert exc.value.code == 2
    assert f"invalid form name {name!r}" in capsys.readouterr().err


@pytest.mark.parametrize("name,code", [
    ("jminus:1/0", 2),       # a zero denominator
    ("eta:2:1=24,1=2", 2),   # a repeated eta argument, not the last one kept
    ("eta:0:1=24", 1),       # level 0: every check_level would divide by it
    ("eta:-2:1=24", 1),
])
def test_degenerate_form_names_are_refused_by_every_verb(capsys, name, code):
    for verb in (("qexp",), ("divisor",), ("hecke-mult", "--n", "2"),
                 ("rohrlich", "--m", "1")):
        argv = [*verb, "--form", name]
        if code == 2:
            with pytest.raises(SystemExit) as exc:
                cli.main(argv)
            assert exc.value.code == 2
            assert f"invalid form name {name!r}" in capsys.readouterr().err
        else:
            got, out = run_cli(capsys, *argv)
            assert got == 1 and json.loads(out)["error"] == "UnsupportedParameter"


@pytest.mark.parametrize("argv", [
    ("divisor", "--form", "jminus:5"),
    ("hecke-div", "--form", "jminus:5", "--n", "2"),
    ("rohrlich", "--m", "1", "--form", "jminus:5", "--s", "1.5"),
    ("bko", "--n", "1", "--form", "jminus:5/3"),
])
def test_j_minus_a_generic_constant_has_no_divisor(capsys, argv):
    # 5 and 5/3 are no class-number-one j-invariants: no point keys, at every level
    code, out = run_cli(capsys, *argv)
    assert code == 1 and json.loads(out)["error"] == "UnknownDivisor"


@pytest.mark.parametrize("argv,error", [
    (("hecke-mult", "--form", "eta:1:1=1", "--n", "2"), "UnsupportedWeight"),
    (("hecke-add", "--form", "eta:1:1=1", "--n", "2"), "UnsupportedWeight"),
    (("bko", "--n", "1", "--form", "eta:2:1=24,2=-24"), "UnsupportedParameter"),
])
def test_half_integral_weight_and_bko_level_are_typed_errors(capsys, argv, error):
    code, out = run_cli(capsys, *argv)
    assert code == 1 and json.loads(out)["error"] == error


def test_hecke_add_refuses_a_fractional_grid_at_every_level(capsys):
    # the level-1 formula and the level-3 coset sum used to disagree here
    for level in ("1", "3"):
        code, out = run_cli(capsys, "hecke-add", "--form", "eta:3:1=8", "--n", "2",
                            "--level", level)
        assert code == 1 and json.loads(out)["error"] == "UnsupportedParameter"


def test_niebur_refuses_a_negative_m(capsys):
    code, out = run_cli(capsys, "niebur", "--m", "-1", "--s", "1.5", "--tau", "0,1")
    assert code == 1 and json.loads(out)["error"] == "UnsupportedParameter"


@pytest.mark.parametrize("text,code", [
    ("xyz", 2), ("T(2,x)", 2), ("T()", 2), ("T(1,2,3)", 2), ("Tx", 2), ("2", 2),
    ("T(2,3)", 1), ("T0", 1), ("T(1,-2)", 1),
    ("T2", 0), ("T(2)", 0), ("T(1,2)", 0), (" T(3, 3) ", 0),
])
def test_algebra_mul_parses_its_elements(capsys, text, code):
    # malformed text is a usage error; a well-formed label that is no
    # element at level 2 is a typed error
    if code == 2:
        with pytest.raises(SystemExit) as exc:
            cli.main(["algebra-mul", "--N", "2", "--u", text, "--v", "T2"])
        assert exc.value.code == 2
        assert f"not a Hecke element Tn, T(n) or T(a,d): {text!r}" in capsys.readouterr().err
        return
    got, out = run_cli(capsys, "algebra-mul", "--N", "2", "--u", text, "--v", "T2")
    assert got == code
    if code == 1:
        assert json.loads(out)["error"] == "UnsupportedParameter"
    else:
        assert json.loads(out)["N"] == 2


def test_niebur_refuses_a_point_past_the_window_bound(capsys, monkeypatch):
    # Im tau = 1e6 runs in closed form; sent to the d-window rows, its
    # window is refused as a typed error before any row is summed
    from heckediv import niebur

    def no_row(*args):
        raise AssertionError("a row was summed for a point past the window bound")

    monkeypatch.setattr(niebur, "_eisenstein_rows_cost", lambda *args: (math.inf, 0.0))
    monkeypatch.setattr(niebur, "_window_rows", no_row)
    code, out = run_cli(capsys, "niebur", "--m", "0", "--s", "1.5", "--tau", "0,1e6")
    data = json.loads(out)
    assert code == 1 and data["error"] == "UnsupportedParameter"
    assert "d-window" in data["message"]


def test_niebur_answers_far_up_and_refuses_an_overflow(capsys):
    code, out = run_cli(capsys, "niebur", "--m", "0", "--s", "1.5", "--C", "2",
                        "--tau", "0,1e6")
    assert code == 0 and abs(float(json.loads(out)["value"][0]) - 1e9) < 1e-2
    code, out = run_cli(capsys, "niebur", "--m", "0", "--s", "1.5", "--tau", "0,1e300")
    data = json.loads(out)
    assert code == 1 and data["error"] == "UnsupportedParameter"
    assert "overflows a double" in data["message"]


@pytest.mark.parametrize("argv", [("--m", "0", "--s", "50", "--tau", "1e20,1"),
                                  ("--m", "1", "--s", "1.5", "--tau", "1e20,1"),
                                  ("--m", "1", "--s", "1.5", "--tau", "1e300,1")])
def test_niebur_at_a_huge_re_tau_answers_the_value_at_i(capsys, argv):
    # F is 1-periodic and a double this large is an integer, so the point
    # is i + k and the answer is F(i); summed at the raw Re tau, the
    # d-window bounds -c Re tau would pass an int64
    code, out = run_cli(capsys, "niebur", "--N", "1", "--C", "30", *argv)
    want = run_cli(capsys, "niebur", "--N", "1", "--C", "30", *argv[:-1], "0,1")[1]
    assert code == 0 and out == want


def test_niebur_takes_a_negative_re_tau_after_a_space(capsys):
    # argparse reads "-0.25,1" as an option unless it is attached to --tau;
    # F is 1-periodic, so -0.25 + i answers as 0.75 + i
    argv = ("niebur", "--N", "1", "--m", "1", "--s", "1.5", "--C", "30")
    code, out = run_cli(capsys, *argv, "--tau", "-0.25,1")
    assert code == 0
    assert out == run_cli(capsys, *argv, "--tau=-0.25,1")[1]
    assert out == run_cli(capsys, *argv, "--tau", "0.75,1")[1]


def test_niebur_sweep_answers_or_refuses_with_a_typed_error(capsys):
    # every call prints a value (exit 0) or a typed JSON error (exit 1); an
    # uncaught exception would also exit 1, so the printed JSON is checked
    from heckediv import errors
    taus = ("0.3,1e-9", "0.3,1e-4", "0.25,1", "0,50", "0.1,1000", "0.4,1e290")
    for m in (0, 1, 3):
        for s in ("1.0001", "1.5", "40", "171.2", "300"):
            for tau in taus:
                for C in ("1", "3"):
                    for N in ("1", "4"):
                        argv = ("niebur", "--m", str(m), "--s", s, "--tau", tau,
                                "--C", C, "--N", N)
                        code, out = run_cli(capsys, *argv)
                        data = json.loads(out)
                        if code == 0:
                            assert all(math.isfinite(float(x)) for x in data["value"]), argv
                        else:
                            assert code == 1, argv
                            assert issubclass(getattr(errors, data["error"]),
                                              errors.HeckeDivError), argv
