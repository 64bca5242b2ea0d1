import json
import random
import time
from pathlib import Path

import pytest

from cartierv import cartier_mod, groebner
from cartierv.cli import main, parse_fraction, parse_polynomial, parse_range
from cartierv.errors import ParseError
from cartierv.field_poly import Ring
from cartierv.frobenius import level_cap

from conftest import budget, random_poly, reference_parse_polynomial


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


def _parse_outcome(parse, text, ring):
    """The terms in insertion order, or the ParseError message."""
    try:
        return list(parse(text, ring).terms.items())
    except ParseError as exc:
        return str(exc)


# Fragments the random strings are drawn from: the rings' variables, an
# unknown identifier, naturals (0 and multiples of p among them), the
# operators, spaces and a stray character.  Adjacent fragments run together,
# as in "x" "1" -> "x1" or "2" "5" -> "25".
_FRAGMENTS = ("x", "y", "x1", "_a", "w", "0", "1", "2", "3", "5", "7", "10", "14",
              "25", "123", "+", "-", "*", "^", " ", "  ", "$")
_RINGS = (Ring(2, ("x", "y")), Ring(5, ("x", "y", "x1")), Ring(7, ("_a", "y")), Ring(3, ()))


def _random_expression(rng, ring):
    """A well-formed sum of few small terms, so that terms repeat, cancel
    and come back, with one fragment spliced in at random half the time."""
    def term():
        factors = [f"{v}^{rng.randint(0, 2)}" if rng.random() < 0.5 else v
                   for v in rng.choices(ring.names, k=rng.randint(0, 2))]
        if not factors or rng.random() < 0.5:
            factors.insert(0, str(rng.randint(0, 2 * ring.p)))
        return "*".join(factors)

    text = term()
    for _ in range(rng.randint(0, 6)):
        text += rng.choice((" + ", "-", " - ", "+")) + term()
    if rng.random() < 0.5:
        cut = rng.randint(0, len(text))
        text = text[:cut] + rng.choice(_FRAGMENTS) + text[cut + rng.randint(0, 1):]
    return text


def test_parse_polynomial_matches_the_reference_parser():
    # same terms in the same insertion order, or the same message and column
    rng = random.Random(28)
    parsed = 0
    for i in range(12000):
        ring = rng.choice(_RINGS)
        if i % 2 and ring.n:
            text = _random_expression(rng, ring)
        else:
            text = "".join(rng.choices(_FRAGMENTS, k=rng.randint(0, 14)))
        want = _parse_outcome(reference_parse_polynomial, text, ring)
        assert _parse_outcome(parse_polynomial, text, ring) == want, text
        parsed += isinstance(want, list)
    assert parsed > 3000


def test_parse_polynomial_on_unicode_matches_the_reference_parser():
    # Unicode letters, decimal digits and spaces act as their ASCII kin.  A
    # digit that is not decimal ('²') starting a natural or following its
    # digits is refused as a stray character; the reference made it part of
    # a natural and then failed in int() or reported the whole token.
    ring = Ring(5, ("x", "α"))
    fragments = ("x", "α", "é", "x²", "٣", "1", "\u00a0", "\u3000", " ", "½", "²",
                 "+", "-", "*", "^")
    rng = random.Random(28)
    for _ in range(3000):
        text = "".join(rng.choices(fragments, k=rng.randint(1, 8)))
        try:
            want = _parse_outcome(reference_parse_polynomial, text, ring)
        except ValueError:
            want = None
        got = _parse_outcome(parse_polynomial, text, ring)
        if got != want:
            assert isinstance(got, str) and got.startswith("unexpected character '²'"), text
    assert parse_polynomial("٣*α^٢", ring) == parse_polynomial("3*α^2", ring)
    with pytest.raises(ParseError, match="unexpected character '²' at column 2"):
        parse_polynomial("3²", ring)


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


# the exact --json stdout of ten scan calls (the four vfilt pairs of
# acceptance test_03 at p = 3, two jumps, the cusp fpt at p = 2 and 3, gr on
# the twisted line in both conventions), twelve tau calls (both
# conventions, t > 1, an explicit --c, twisted modules), whose bytes carry
# stabilized_at_e, and `check --seed 0/1/2` and the six repro scenarios; a
# change to how the scans, the orbit solver, the suites or the functors
# compute must keep these bytes
SCAN_GOLDEN = json.loads((Path(__file__).parent / "scan_golden.json").read_text("utf-8"))


@pytest.mark.parametrize("row", SCAN_GOLDEN)
def test_scan_json_bytes_are_pinned(capsys, row):
    code, out, err = run_cli(capsys, *row["argv"].split())
    assert (code, err) == (row["exit"], "")
    assert out.encode() == row["stdout"].encode()


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


def parse_failure(capsys, *argv):
    code, out, err = run_cli(capsys, "tau", "--p", "3", "--vars", "x,y", "--f", "x",
                             "--t", "1/2", *argv)
    assert (code, out) == (3, "")
    return err


def test_twist_errors_name_the_option_and_count_from_its_start(capsys):
    # the '$' is character 8 of the option's text, 2 of its entry
    assert parse_failure(capsys, "--twist", "x,0;0,y$") == (
        "cartierv: error [parse] --twist: unexpected character '$' at column 8\n")
    assert parse_failure(capsys, "--twist", "x,0;y ^ 2,x+*y") == (
        "cartierv: error [parse] --twist: expected identifier at column 13\n")
    # a ragged row is reported at its start, before the polynomials are read
    assert parse_failure(capsys, "--twist", "x$,0;0") == (
        "cartierv: error [parse] --twist: twist matrix must be square at column 6\n")


def test_gens_errors_name_the_option_and_count_from_its_start(capsys):
    assert parse_failure(capsys, "--gens", "x;y;x*z") == (
        "cartierv: error [parse] --gens: unknown identifier z at column 7\n")
    assert parse_failure(capsys, "--twist", "x,0;0,1", "--gens", "x,1;y") == (
        "cartierv: error [parse] --gens: vector needs 2 entries at column 5\n")


def test_rels_errors_name_the_option_and_count_from_its_start(capsys):
    assert parse_failure(capsys, "--rels", "x^2;x^") == (
        "cartierv: error [parse] --rels: malformed exponent at column 7\n")
    assert parse_failure(capsys, "--twist", "1,0;0,1", "--rels", "x,0;,y") == (
        "cartierv: error [parse] --rels: empty input at column 5\n")


def test_an_exponent_past_the_groebner_range_exits_4(capsys):
    # packed Groebner terms hold exponents below 2^63; such an input is
    # refused, never wrapped, in f and in the module generators alike, and
    # so is a twisted generator U v past the range, when the module is built
    big = "x^9223372036854775808"
    for argv in (("--p", "2", "--vars", "x", "--f", big, "--t", "1/2"),
                 ("--p", "3", "--vars", "x,y", "--f", "x", "--t", "0", "--gens", big),
                 ("--p", "3", "--vars", "x", "--twist", "x", "--gens", "x^9223372036854775807",
                  "--f", "x", "--t", "1/2")):
        code, out, err = run_cli(capsys, "tau", *argv, "--json")
        assert (code, out) == (4, "")
        assert err == ("cartierv: error [exponent-overflow] exponent 9223372036854775808 "
                       "is above 2^63 - 1, the largest a Groebner term holds\n")


def test_an_f_whose_square_overflows_exits_4(capsys):
    for p in ("2", "3", "5"):
        code, out, err = run_cli(capsys, "tau", "--p", p, "--vars", "x,y",
                                 "--f", f"x^{2 ** 62}", "--t", "1/2", "--json")
        assert (code, out) == (4, "")
        assert err.startswith("cartierv: error [exponent-overflow] exponent ")
        assert err.endswith(" is above 2^63 - 1, the largest a Groebner term holds\n")


def test_a_t_whose_power_overflows_exits_4(capsys):
    # tau(x^t) at t = 2^63 is x times f^(2^63 - 1): the power itself fits,
    # the product with the value at 1 does not
    code, out, err = run_cli(capsys, "tau", "--p", "2", "--vars", "x", "--f", "x",
                             "--t", str(2 ** 63), "--json")
    assert (code, out) == (4, "")
    assert err == ("cartierv: error [exponent-overflow] exponent 9223372036854775808 "
                   "is above 2^63 - 1, the largest a Groebner term holds\n")


def test_a_reduction_past_the_step_cap_exits_4(capsys, monkeypatch):
    # x^a + 2 reduces by x^3 - 2 in about a/3 steps, here while the module is built
    monkeypatch.setattr(groebner, "MAX_REDUCTION_STEPS", 2**12)
    a = 2**62
    code, out, err = run_cli(capsys, "tau", "--p", "5", "--vars", "x,y", "--gens",
                             f"3*x^{a}+1;x^{a}+x^3", "--f", "x", "--t", "1/2", "--json")
    assert (code, out) == (4, "")
    assert err == ("cartierv: error [stabilization-cap-exceeded] "
                   "reduction ran past 4096 steps\n")


def test_a_groebner_run_past_its_work_budget_exits_4(capsys, monkeypatch):
    # each Groebner run keeps adding elements whose reductions take a step or
    # two (see test_a_run_past_its_work_budget_is_refused); the rank-2 one,
    # the quickest to reach it, runs at the real bound, the others under a
    # lowered one (CI runs the first at the real bound)
    a = 2**62
    pair = ("--f", "x", "--t", "1/2", "--c", "1", "--json")
    cap = ("cartierv: error [stabilization-cap-exceeded] "
           "Groebner run ran past {} steps and reducers\n")
    rank2 = ("--twist", "1,0;0,1", "--gens", f"4*x^{a + 1}*y^3 + 4*y^2 + 1, 2*x; x^2*y^3 + 2, 2")
    with budget(10):
        code, out, err = run_cli(capsys, "tau", "--p", "5", "--vars", "x,y", *rank2, *pair)
    assert (code, out, err) == (4, "", cap.format(2**18))
    monkeypatch.setattr(groebner, "MAX_RUN_WORK", 2**12)
    for module in (("--gens", f"x^{a}*y + x^3*y^{a + 1}; x^2*y^3 + 4; 3*x^{a + 3}*y^3"),
                   ("--gens", f"x^{a + 1} + 3*x^3*y^{a + 2} + 2; 4*x^{a}*y^3 + 2*x*y^2; "
                              "2*x^2*y^2 + 2"),
                   rank2):
        with budget(2):
            code, out, err = run_cli(capsys, "tau", "--p", "5", "--vars", "x,y", *module, *pair)
        assert (code, out, err) == (4, "", cap.format(2**12))


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
    ("check", "prop32", "--cases", "-1", "--json"),
    ("check", "prop32", "--cases", "0", "--json"),
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


def test_fpt_refuses_an_oversized_ring_at_once(capsys):
    # the digit basis needs p^n <= 2^16; nu's loop would take seconds first
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "fpt", "--p", "2053", "--vars", "x,y", "--f", "x+y")
    assert time.perf_counter() - start < 1.0
    assert code == 3
    assert out == ""
    assert "error [value] digit basis of size 2053^2 is too large" in err


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


@pytest.mark.parametrize("argv", [
    ("tau", "--vars", "x", "--f", "x", "--t", "1/2"),
    ("tau", "--vars", "x", "--f", "x", "--t", "1/2", "--convention", "ceil_pe_minus_1"),
    ("jumps", "--vars", "x", "--f", "x", "--range", "0..2"),
    ("vfilt", "--vars", "x", "--f", "x", "--t-max", "2"),
    ("gr", "--vars", "x", "--f", "x", "--range", "0..2"),
    ("fpt", "--vars", "x,y", "--f", "x^2+y^3"),
])
def test_an_invalid_level_cap_exits_3(capsys, argv):
    code, out, err = run_cli(capsys, argv[0], "--p", "3", *argv[1:], "--max-e", "0", "--json")
    assert (code, out) == (3, "")
    assert err == "cartierv: error [value] level cap must be >= 1\n"


def test_a_module_without_gens_or_rels_runs_no_stability_check(capsys, monkeypatch):
    # R^r and 0 are stable under any twist, so the CLI builds them unchecked
    calls = []
    real = cartier_mod._stability_failure

    def counted(structure, sub):
        calls.append(sub)
        return real(structure, sub)
    monkeypatch.setattr(cartier_mod, "_stability_failure", counted)
    for twist in ((), ("--twist", "1,y;0,x")):
        code, _, _ = run_cli(capsys, "tau", "--p", "3", "--vars", "x,y", *twist,
                             "--f", "x", "--c", "x", "--t", "1/2", "--json")
        assert code == 0
    assert calls == []
    # given generators are checked, and so is the zero module beside them
    code, _, _ = run_cli(capsys, "tau", "--p", "3", "--vars", "x,y", "--twist", "x^2",
                         "--gens", "x", "--f", "y", "--c", "x", "--t", "1/2", "--json")
    assert code == 0
    assert len(calls) == 2


def test_a_numerator_the_twist_does_not_preserve_is_rejected(capsys):
    code, out, err = run_cli(capsys, "tau", "--p", "3", "--vars", "x,y", "--twist", "1,y;0,x",
                             "--gens", "x*y,y^2;0,x^2", "--f", "x", "--c", "x", "--t", "1/2")
    assert (code, out) == (3, "")
    assert err == ("cartierv: error [non-degenerate] module rejected: structure does not "
                   "preserve the numerator: kappa of (x*y, y^2) times x^(1, 0) escapes\n")


def test_left_limit_below_the_old_probe_ladder(capsys):
    # the jump at 1/300 sits below every probe 1/300 - 1/2^k, k <= 8
    code, out, _ = run_cli(capsys, "jumps", "--p", "2", "--vars", "x", "--f", "x^300",
                           "--range", "0..1/150", "--max-denominator", "300", "--json")
    assert code == 0
    res = json.loads(out)["result"]
    assert res["jumps"] == ["1/300", "1/150"]
    assert res["values"] == [["x"], ["x^2"]]


def test_jump_between_grid_points_is_refused(capsys):
    # the jumps of x^2 y^21 are k/21 (k <= 10) and 1/2; none but 1/2 is on this grid
    code, out, err = run_cli(capsys, "jumps", "--p", "2", "--vars", "x,y",
                             "--f", "x^2*y^21", "--range", "0..1/2",
                             "--max-denominator", "12", "--json")
    assert code == 2
    assert out == ""
    assert "jump between grid points" in err


def test_threshold_below_the_grid_is_refused(capsys):
    # fpt(x^5) = 1/5 is not on the default grid at p = 2
    code, out, err = run_cli(capsys, "fpt", "--p", "2", "--vars", "x,y", "--f", "x^5",
                             "--json")
    assert code == 4
    assert out == ""
    assert "error [fpt-divergence]" in err


X7_AT_THE_TOP = ("jumps", "--p", "2", "--vars", "x", "--f", "x^7", "--range", "2/3..5/7",
                 "--json")


def test_jump_at_an_off_grid_top_is_refused(capsys):
    # tau(x^{7t}) = (x^floor(7t)) is (x^4) at 2/3 and (x^5) at 5/7; no candidate
    # of denominator <= 6 or 8 lies in (2/3, 5/7]
    code, out, err = run_cli(capsys, *X7_AT_THE_TOP, "--max-denominator", "6")
    assert code == 2
    assert out == ""
    assert "jump between grid points below t=5/7" in err


def test_jump_at_the_top_on_the_grid(capsys):
    code, out, _ = run_cli(capsys, *X7_AT_THE_TOP, "--max-denominator", "7")
    assert code == 0
    res = json.loads(out)["result"]
    assert res["jumps"] == ["5/7"]
    assert res["values"] == [["x^5"]]
    assert res["baseline"] == ["x^4"]


def test_jumps_of_x3y2_off_the_ladder(capsys):
    code, out, _ = run_cli(capsys, "jumps", "--p", "2", "--vars", "x,y", "--f", "x^3*y^2",
                           "--range", "0..1", "--max-denominator", "6", "--json")
    assert code == 0
    res = json.loads(out)["result"]
    assert res["jumps"] == ["1/3", "1/2", "2/3", "1"]
    assert res["values"] == [["x"], ["x*y"], ["x^2*y"], ["x^3*y^2"]]


def run_cli_or_usage_error(capsys, *argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    out = capsys.readouterr()
    return code, out.out, out.err


def test_main_repeats_in_one_process(capsys):
    # the parser is built once per process; a usage error in between must
    # not leave state behind for the next call
    good = ("jumps", "--p", "3", "--vars", "x,y", "--f", "x^2*y", "--range", "0..1",
            "--max-denominator", "6", "--json")
    bad = ("jumps", "--p", "3", "--vars", "x,y", "--range", "0..1", "--json")
    runs = [run_cli_or_usage_error(capsys, *argv) for argv in (good, bad, good, bad)]
    assert runs[0][0] == 0 and runs[0][2] == ""
    assert runs[1][0] == 3 and runs[1][1] == ""
    assert "error [usage]" in runs[1][2] and "--f" in runs[1][2]
    assert runs[2] == runs[0]
    assert runs[3] == runs[1]
