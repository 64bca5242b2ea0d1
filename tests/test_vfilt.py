import functools
import random
from fractions import Fraction

import pytest

from cartierv import vfilt
from cartierv.cartier_mod import CartierModule, CartierMorphism, CartierStructure
from cartierv.errors import NonDegenerateError, NotFRegularError
from cartierv.field_poly import Ring
from cartierv.groebner import FreeSubmodule, QuotientPresentation, full_module, ideal
from cartierv.testmod import Pair, is_F_regular, jumping_numbers
from cartierv.vfilt import (
    AxiomFailure,
    compare_with_ishriek,
    compute_vfiltration,
    gr_is_crystal_zero,
    gr_of_morphism,
    gr_piece,
    gr_range,
    gr_twist_exponent,
    kappa_gr_surjection_check,
    mu_f_check,
    verify_axioms,
)

from conftest import random_poly, replace_value, stable_hull


def twisted_line():
    R = Ring(3, ("x",))
    x = R.gens()[0]
    return R, x, CartierModule.over_ring(R, x)


@functools.cache
def twisted_line_table():
    R, x, M = twisted_line()
    table = compute_vfiltration(M, x, 2, 6)
    return R, x, M, table


def test_table_twisted_line():
    R, x, M, table = twisted_line_table()
    assert table.jumps == (Fraction(1, 2), Fraction(3, 2))
    assert table.v0 == full_module(R, 1)
    assert table.values == (ideal(R, x), ideal(R, x ** 2))
    assert table.left_limits == (full_module(R, 1), ideal(R, x))


def test_value_lookup_piecewise():
    R, x, M, table = twisted_line_table()
    assert table.value_at(0) == full_module(R, 1)
    assert table.value_at(Fraction(1, 3)) == full_module(R, 1)
    assert table.value_at(Fraction(1, 2)) == ideal(R, x)
    assert table.value_at(1) == ideal(R, x)
    assert table.value_at(2) == ideal(R, x ** 2)
    assert table.left_value_at(Fraction(1, 2)) == full_module(R, 1)
    assert table.left_value_at(1) == ideal(R, x)
    assert table.left_value_at(Fraction(3, 2)) == ideal(R, x)
    with pytest.raises(ValueError):
        table.value_at(Fraction(5, 2))
    with pytest.raises(ValueError):
        table.left_value_at(0)


def test_axioms_pass_twisted_line():
    R, x, M, table = twisted_line_table()
    report = verify_axioms(M, table)
    assert report.ok, report.failures


def test_axioms_pass_monomial_pair():
    R = Ring(2, ("x", "y"))
    x, y = R.gens()
    M = CartierModule.over_ring(R)
    f = x ** 2 * y
    table = compute_vfiltration(M, f, 1, 4)
    assert table.jumps == (Fraction(1, 2), Fraction(1))
    assert table.values == (ideal(R, x), ideal(R, f))
    report = verify_axioms(M, table)
    assert report.ok, report.failures


def test_corrupted_table_pinpoints_failure():
    R, x, M, table = twisted_line_table()
    bad = replace_value(table, 0, ideal(R, x ** 2))
    report = verify_axioms(M, bad)
    assert not report.ok
    assert any(fl.axiom == "frobenius" and fl.t == Fraction(1, 2)
               for fl in report.failures)
    assert any(fl.axiom == "shift" and fl.t == Fraction(3, 2)
               for fl in report.failures)


def test_axioms_on_table_starting_above_zero():
    """A table on [1/3, 2] is checked on the range it has: V^{1/3} against
    tau at 1/3, and no check reads a value below 1/3."""
    R, x, M = twisted_line()
    table = jumping_numbers(M, x, Fraction(1, 3), 2, 6)
    assert table.jumps == (Fraction(1, 2), Fraction(3, 2))
    report = verify_axioms(M, table)
    assert report.ok, report.failures
    bad = replace_value(table, 0, ideal(R, x ** 2))
    report = verify_axioms(M, bad)
    assert any(fl.axiom == "frobenius" and fl.t == Fraction(1, 2)
               for fl in report.failures)
    assert any(fl.axiom == "shift" and fl.t == Fraction(3, 2)
               for fl in report.failures)
    wrong_start = table._replace(v0=ideal(R, x))
    assert verify_axioms(M, wrong_start).failures[0] == AxiomFailure(
        "zero-value", Fraction(1, 3), "tabulated V^0 differs from tau at 0")


def test_orbit_closure_flags_a_removed_jump():
    # x^2 y at p = 2 jumps at 1/2 and 1, and T(1/2) = 2/2 - 1 + 1 = 1
    R = Ring(2, ("x", "y"))
    x, y = R.gens()
    M = CartierModule.over_ring(R)
    table = compute_vfiltration(M, x ** 2 * y, 1, 4)
    assert table.jumps == (Fraction(1, 2), Fraction(1))
    assert verify_axioms(M, table).ok
    bad = table._replace(jumps=table.jumps[:1], values=table.values[:1],
                         left_limits=table.left_limits[:1])
    failures = verify_axioms(M, bad).failures
    assert failures[-1] == AxiomFailure("orbit-closure", Fraction(1),
                                        "the jump 1/2 maps to 1, which is not a jump")
    assert [fl.axiom for fl in failures].count("orbit-closure") == 1
    # T(1) = 1 lies above the range of a table on [0, 3/4]
    short = compute_vfiltration(M, x ** 2 * y, Fraction(3, 4), 4)
    assert short.jumps == (Fraction(1, 2),) and verify_axioms(M, short).ok


def test_corrupted_table_pinpoints_injectivity_failure():
    # (x)/(xy) under C o (xy)^2: x is regular on it, but not on R/(xy),
    # where x kills y; a V^1 raised to R breaks axiom (ii) on [1, 2)
    R = Ring(3, ("x", "y"))
    x, y = R.gens()
    M = CartierModule(QuotientPresentation(ideal(R, x), ideal(R, x * y)),
                      CartierStructure.scalar(R, (x * y) ** 2))
    table = compute_vfiltration(M, x, 2, 6, c=x)
    assert table.jumps == (1, 2)
    assert verify_axioms(M, table, x).ok
    bad = replace_value(table, 0, full_module(R, 1))
    failures = verify_axioms(M, bad, x).failures
    assert [fl.t for fl in failures if fl.axiom == "injectivity"] == [1, Fraction(3, 2)]


def test_injectivity_is_checked_once_per_value(monkeypatch):
    # grid 0, 1/2, 1, 3/2, 2 holds three values: each midpoint shares the
    # value of the jump to its left
    R = Ring(3, ("x", "y"))
    x, y = R.gens()
    M = CartierModule(QuotientPresentation(ideal(R, x), ideal(R, x * y)),
                      CartierStructure.scalar(R, (x * y) ** 2))
    bad = replace_value(compute_vfiltration(M, x, 2, 6, c=x), 0, full_module(R, 1))
    checked = []
    real = vfilt.injective_on

    def counted(f, W, N):
        checked.append(W)
        return real(f, W, N)
    monkeypatch.setattr(vfilt, "injective_on", counted)
    verify_axioms(M, bad, x)
    assert checked == [bad.v0, full_module(R, 1), bad.values[1]]


def test_refuses_non_f_regular():
    R = Ring(3, ("x",))
    x = R.gens()[0]
    M = CartierModule.over_ring(R, x ** 2)
    with pytest.raises(NotFRegularError):
        compute_vfiltration(M, x, 1, 4)


def test_refuses_zerodivisor():
    R = Ring(3, ("x",))
    x = R.gens()[0]
    pres = QuotientPresentation(full_module(R, 1), ideal(R, x))
    M = CartierModule(pres, CartierModule.over_ring(R, x ** 2).structure)
    with pytest.raises(NonDegenerateError):
        compute_vfiltration(M, x, 1, 4)


def _random_module(rng: random.Random, R: Ring, rank: int) -> CartierModule:
    """A free module, or W/gW for a stable W with the structure twisted by
    g^{p-1}, which keeps gW stable: kappa(g^{p-1} g w) = g kappa(w)."""
    U = [[random_poly(rng, R, 2, max_terms=2) for _ in range(rank)] for _ in range(rank)]
    structure = CartierStructure(R, rank, U)
    if rng.random() < 0.3:
        return CartierModule.free(R, structure)
    W = full_module(R, rank)
    if rng.random() < 0.5:
        W = stable_hull(structure, FreeSubmodule(R, rank, [
            tuple(random_poly(rng, R, 2, max_terms=2) for _ in range(rank))]))
    g = random_poly(rng, R, 2, max_terms=2, nonzero=True)
    return CartierModule(QuotientPresentation(W, W.scaled(g)),
                         structure.twisted(g ** (R.p - 1)))


def test_f_regularity_read_off_the_value_at_zero():
    # compute_vfiltration's F-regularity check: the sum over cD contains W
    # exactly when the sum over cW does
    rng = random.Random(53)
    verdicts = []
    for _ in range(60):
        R = Ring(rng.choice((2, 3, 5)), rng.choice((("x",), ("x", "y"))))
        M = _random_module(rng, R, rng.randint(1, 2))
        c = random_poly(rng, R, 2, max_terms=2, nonzero=True)
        expected = is_F_regular(M, c)
        assert Pair(M, R.var("x"), c).tau(0).value.contains(M.pres.W) == expected
        verdicts.append(expected)
    assert any(verdicts) and not all(verdicts)


def test_gr_twist_exponent():
    assert gr_twist_exponent(Fraction(1, 2), 3, "a") == 1
    assert gr_twist_exponent(Fraction(1, 2), 3, "b") == 2
    assert gr_twist_exponent(Fraction(3, 4), 5, "a") == 3
    assert gr_twist_exponent(Fraction(3, 4), 5, "b") == 4
    assert gr_twist_exponent(Fraction(2, 3), 5, "b") == 3


def test_gr_conventions_disagree_at_jump():
    # at t = 1/2 the twisted-line piece is R/(x); convention a twists by
    # f^1 giving the operator g -> C(x^2 g) which fixes 1, convention b
    # twists by f^2 and the operator is nilpotent
    R, x, M, table = twisted_line_table()
    pa = gr_piece(M, table, Fraction(1, 2), "a")
    pb = gr_piece(M, table, Fraction(1, 2), "b")
    assert pa.twist_exponent == 1 and pb.twist_exponent == 2
    assert not gr_is_crystal_zero(pa)
    assert gr_is_crystal_zero(pb)
    with pytest.raises(ValueError):
        gr_piece(M, table, Fraction(1, 2), "c")


def test_gr_zero_piece_off_jumps():
    R, x, M, table = twisted_line_table()
    piece = gr_piece(M, table, 1, "a")
    assert piece.is_zero_piece()
    assert gr_is_crystal_zero(piece)


def test_gr_range_covers_jumps():
    R, x, M, table = twisted_line_table()
    pieces = gr_range(M, table)
    assert tuple(p.t for p in pieces) == table.jumps
    assert not any(p.is_zero_piece() for p in pieces)


def test_mu_f_is_structure_map():
    R, x, M, table = twisted_line_table()
    assert mu_f_check(M, table, Fraction(1, 2), "a")
    assert mu_f_check(M, table, Fraction(1, 2), "b")
    assert mu_f_check(M, table, 1, "a")


def test_kappa_gr_surjection():
    R, x, M, table = twisted_line_table()
    assert kappa_gr_surjection_check(M, table, Fraction(1, 2))
    assert kappa_gr_surjection_check(M, table, Fraction(1, 6))
    with pytest.raises(ValueError):
        kappa_gr_surjection_check(M, table, 1)


def test_compare_with_ishriek():
    R, x, M, table = twisted_line_table()
    assert compare_with_ishriek(M, table).status == "pass"
    assert compare_with_ishriek(M, table, "b").status == "inapplicable"
    short = compute_vfiltration(M, x, Fraction(1, 4), 4)
    assert compare_with_ishriek(M, short).status == "inapplicable"


def test_gr_of_morphism_identity():
    R, x, M, table = twisted_line_table()
    phi = CartierMorphism(M, M, ((R.one(),),))
    induced, ok = gr_of_morphism(phi, table, table, Fraction(1, 2))
    assert ok
    assert induced.source.pres.W == table.left_value_at(Fraction(1, 2))
