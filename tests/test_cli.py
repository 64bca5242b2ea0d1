import json
import random
import time

import pytest

from cartierv.cli import main, parse_fraction, parse_polynomial, parse_range
from cartierv.errors import ParseError
from cartierv.field_poly import Ring
from cartierv.frobenius import level_cap

from conftest import random_poly


def test_parse_polynomial_known():
    R = Ring(5, ("x", "y"))
    x, y = R.gens()
    assert parse_polynomial("x^2*y + 3*x", R) == x ** 2 * y + x.scale(3)
    R3 = Ring(3, ("x", "y"))
    x3, y3 = R3.gens()
    assert parse_polynomial("y^2 - x^3", R3) == y3 ** 2 + (x3 ** 3).scale(2)
    assert parse_polynomial("7", R3) == R3.one()
    assert parse_polynomial("0", R3).is_zero()
    assert parse_polynomial("2*x*y + x", R3) == (x3 * y3).scale(2) + x3


def test_parse_polynomial_errors():
    R = Ring(5, ("x", "y"))
    with pytest.raises(ParseError) as err:
        parse_polynomial("x^2*z", R)
    assert "unknown identifier z at column 5" in str(err.value)
    with pytest.raises(ParseError):
        parse_polynomial("", R)
    with pytest.raises(ParseError):
        parse_polynomial("x^", R)
    with pytest.raises(ParseError) as err:
        parse_polynomial("3x", R)
    assert "column 2" in str(err.value)
    with pytest.raises(ParseError):
        parse_polynomial("x + ", R)
    with pytest.raises(ParseError):
        parse_polynomial("x y", R)
    with pytest.raises(ParseError):
        parse_polynomial("x @ y", R)
    with pytest.raises(ParseError):
        parse_polynomial("2*3", R)


def test_parse_roundtrip_random():
    rng = random.Random(7)
    for p in (2, 5):
        ring = Ring(p, ("x", "y"))
        for _ in range(50):
            f = random_poly(rng, ring, 5)
            assert parse_polynomial(f.to_str(), ring) == f


def test_parse_fraction():
    from fractions import Fraction
    assert parse_fraction("1/2") == Fraction(1, 2)
    assert parse_fraction("3") == Fraction(3)
    assert parse_range("0..3/2") == (Fraction(0), Fraction(3, 2))
    for bad in ("0.5", "-1", "1/0", "a/b", "1/2/3"):
        with pytest.raises(ParseError):
            parse_fraction(bad)
    with pytest.raises(ParseError):
        parse_range("1")


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_tau_json(capsys):
    code, out, _ = run_cli(capsys, "tau", "--p", "3", "--vars", "x",
                           "--twist", "x", "--f", "x", "--t", "1/2", "--json")
    assert code == 0
    report = json.loads(out)
    assert list(report) == ["p", "vars", "query", "result", "certified",
                            "stabilized_at_e", "timings_ms"]
    assert report["result"] == {"generators": ["x"]}
    assert report["certified"] is True
    assert report["timings_ms"] == {}


def test_jumps_monomial_json(capsys):
    code, out, _ = run_cli(capsys, "jumps", "--p", "3", "--vars", "x,y",
                           "--f", "x^2*y", "--range", "0..1",
                           "--max-denominator", "12", "--json")
    assert code == 0
    report = json.loads(out)
    assert report["result"]["jumps"] == ["1/2", "1"]
    assert report["result"]["baseline"] == ["1"]


def test_zero_ideal_generators(capsys):
    code, out, _ = run_cli(capsys, "tau", "--p", "3", "--vars", "x",
                           "--twist", "0", "--f", "x", "--t", "1",
                           "--c", "x", "--json")
    assert code == 0
    assert json.loads(out)["result"]["generators"] == []


def test_byte_identical_runs(capsys):
    argv = ("vfilt", "--p", "3", "--vars", "x", "--twist", "x", "--f", "x",
            "--t-max", "2", "--max-denominator", "6", "--json")
    _, out1, _ = run_cli(capsys, *argv)
    _, out2, _ = run_cli(capsys, *argv)
    assert out1.encode() == out2.encode()


def test_vfilt_report(capsys):
    code, out, _ = run_cli(capsys, "vfilt", "--p", "3", "--vars", "x",
                           "--twist", "x", "--f", "x", "--t-max", "2",
                           "--max-denominator", "6", "--json")
    assert code == 0
    res = json.loads(out)["result"]
    assert res["jumps"] == ["1/2", "3/2"]
    assert res["values"] == [["x"], ["x^2"]]
    assert res["left_limits"] == [["1"], ["x"]]
    assert res["axioms"]["ok"] is True


def test_gr_conventions(capsys):
    code, out, _ = run_cli(capsys, "gr", "--p", "3", "--vars", "x",
                           "--twist", "x", "--f", "x", "--range", "0..1",
                           "--max-denominator", "4", "--convention", "b",
                           "--json")
    assert code == 0
    piece = json.loads(out)["result"]["pieces"][0]
    assert piece["t"] == "1/2"
    assert piece["crystal_zero"] is True
    code, out, _ = run_cli(capsys, "gr", "--p", "3", "--vars", "x",
                           "--twist", "x", "--f", "x", "--range", "0..1",
                           "--max-denominator", "4", "--json")
    piece = json.loads(out)["result"]["pieces"][0]
    assert piece["crystal_zero"] is False


def test_rank_two_twist_matrix(capsys):
    code, out, _ = run_cli(capsys, "tau", "--p", "3", "--vars", "x",
                           "--twist", "0,1;1,0", "--f", "x", "--t", "1",
                           "--c", "x", "--json")
    assert code == 0
    gens = json.loads(out)["result"]["generators"]
    assert gens == [["x", "0"], ["0", "x"]]


def test_fpt_human(capsys):
    code, out, _ = run_cli(capsys, "fpt", "--p", "3", "--vars", "x,y",
                           "--f", "x^2+y^3")
    assert code == 0
    assert "fpt: 2/3" in out


def test_exit_codes(capsys):
    code, _, err = run_cli(capsys, "tau", "--p", "5", "--vars", "x,y",
                           "--f", "x^2*z", "--t", "1/2")
    assert code == 3
    assert "unknown identifier z at column 5" in err
    code, _, err = run_cli(capsys, "tau", "--p", "4", "--vars", "x",
                           "--f", "x", "--t", "1")
    assert code == 3
    code, _, err = run_cli(capsys, "fpt", "--p", "2", "--vars", "x,y",
                           "--f", "x^5*y^7", "--max-denominator", "4")
    assert code == 4
    assert "fpt-divergence" in err
    code, _, err = run_cli(capsys, "vfilt", "--p", "3", "--vars", "x",
                           "--twist", "x^2", "--f", "x", "--t-max", "1")
    assert code == 3
    assert "not-f-regular" in err
    with pytest.raises(SystemExit) as exc:
        main(["repro", "nosuch"])
    assert exc.value.code == 3


def test_repro_verdicts(capsys):
    code, out, _ = run_cli(capsys, "repro", "ex621")
    assert code == 0
    assert "f^! R not F-pure: PASS" in out
    assert "scenario ex621: PASS" in out
    code, out, _ = run_cli(capsys, "repro", "cor79", "--json")
    assert code == 0
    report = json.loads(out)
    assert report["result"]["ok"] is True
    assert report["certified"] is True


def test_check_subcommand(capsys):
    code, out, _ = run_cli(capsys, "check", "roots", "prop38", "--cases", "5",
                           "--seed", "1", "--json")
    assert code == 0
    res = json.loads(out)["result"]
    assert [s["name"] for s in res["suites"]] == ["roots", "prop38"]
    assert res["ok"] is True
    code, _, err = run_cli(capsys, "check", "nosuchsuite")
    assert code == 3


def test_human_mode_table(capsys):
    code, out, _ = run_cli(capsys, "jumps", "--p", "3", "--vars", "x",
                           "--twist", "x", "--f", "x", "--range", "0..2",
                           "--max-denominator", "6")
    assert code == 0
    assert "jumps: [1/2, 3/2]" in out
    assert "certified: yes" in out


def test_timings_flag(capsys):
    code, out, _ = run_cli(capsys, "tau", "--p", "3", "--vars", "x",
                           "--f", "x", "--t", "1", "--timings", "--json")
    assert code == 0
    timings = json.loads(out)["timings_ms"]
    assert "compute" in timings and "parse" in timings


@pytest.mark.parametrize("argv", [
    ("jumps", "--p", "3", "--vars", "x", "--f", "x", "--range", "0..1",
     "--max-denominator", "0", "--json"),
    ("gr", "--p", "3", "--vars", "x", "--twist", "x", "--f", "x",
     "--max-denominator", "-1", "--json"),
    ("vfilt", "--p", "3", "--vars", "x", "--twist", "x", "--f", "x", "--t-max", "2",
     "--max-denominator", "0"),
    ("fpt", "--p", "3", "--vars", "x,y", "--f", "x^2+y^3", "--e-nu", "-1"),
    ("gr", "--p", "3", "--vars", "x", "--twist", "x", "--f", "x",
     "--range", "1..1/2", "--json"),
    ("gr", "--p", "3", "--vars", "x", "--twist", "x", "--f", "x",
     "--range", "1..1", "--json"),
])
def test_invalid_scan_parameters_are_rejected(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 3
    assert out == ""
    assert "error [value]" in err


def test_e_nu_beyond_the_budget_is_a_cap(capsys):
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "fpt", "--p", "2", "--vars", "x,y",
                             "--f", "x^2+y^3", "--e-nu", "15")
    assert time.perf_counter() - start < 1.0
    assert code == 4
    assert out == ""
    assert "error [level-cap-exceeded]" in err


def test_max_e_stays_with_its_call(capsys):
    jumps = ("jumps", "--p", "2", "--vars", "x,y", "--f", "x^2*y^21",
             "--range", "0..1/2", "--max-denominator", "12", "--json")
    before = run_cli(capsys, *jumps)
    series = ("tau", "--p", "2", "--vars", "x,y", "--f", "x^2*y^3", "--t", "3/4",
              "--convention", "ceil_pe_minus_1", "--json")
    code, _, err = run_cli(capsys, *series, "--max-e", "2")
    assert code == 4
    assert "level cap 2" in err
    assert level_cap() == 6
    assert run_cli(capsys, *series)[0] == 0
    assert run_cli(capsys, *jumps) == before
