import random
from fractions import Fraction

import pytest

from cartierv.cartier_mod import (
    CartierModule,
    CartierStructure,
    graph_embed,
    kappa_span,
    make_extension,
    reduce_from_graph,
    shriek_finite,
)
from cartierv.errors import FptDivergenceError, NonDegenerateError
from cartierv.field_poly import Ring
from cartierv.groebner import QuotientPresentation, full_module, ideal
from cartierv.testmod import (
    FiltrationTable,
    Pair,
    exponent_at,
    fpt,
    is_F_regular,
    is_regular_element,
    jumping_numbers,
    module_test_submodule,
    nu_interval,
    suggest_test_element,
    tau,
    tau_left_limit,
    verify_test_element,
)
from cartierv.vfilt import compute_vfiltration

from conftest import random_poly


def monomial_tau_oracle(ring, exps, t):
    """tau((x^a y^b ..)^t) = (x^floor(t a) y^floor(t b) ..)."""
    mon = tuple((t * a).__floor__() for a in exps)
    return ideal(ring, ring.monomial(mon))


def test_exponent_at():
    t = Fraction(1, 2)
    assert exponent_at(t, 3, 1) == 2
    assert exponent_at(t, 3, 2) == 5
    assert exponent_at(t, 3, 2, "ceil_pe_minus_1") == 4
    assert exponent_at(Fraction(0), 3, 4) == 0


def test_monomial_tau_grid():
    for p in (2, 3):
        R = Ring(p, ("x", "y"))
        x, y = R.gens()
        f = x ** 2 * y
        for t in (Fraction(1, 3), Fraction(1, 2), Fraction(4, 9),
                  Fraction(1), Fraction(5, 4)):
            got = tau(CartierModule.over_ring(R), f, t)
            assert got.certified
            assert got.value == monomial_tau_oracle(R, (2, 1), t), f"p={p} t={t}"


def test_twisted_line_values():
    # (F_3[x], C o x, f = x): jumps at 1/2 and 3/2
    R = Ring(3, ("x",))
    x = R.var("x")
    M = CartierModule.over_ring(R, x)
    assert suggest_test_element(M, x) == x ** 2
    expect = {
        Fraction(1, 3): full_module(R, 1),
        Fraction(4, 9): full_module(R, 1),
        Fraction(1, 2): ideal(R, x),
        Fraction(1): ideal(R, x),
        Fraction(7, 5): ideal(R, x),
        Fraction(3, 2): ideal(R, x ** 2),
        Fraction(2): ideal(R, x ** 2),
    }
    for t, want in expect.items():
        got = tau(M, x, t)
        assert got.certified
        assert got.value == want, f"t={t}"


def test_fresh_tau_sweep_counts():
    # counts of the fixed-point iteration over the whole orbit of t; 1/4 and
    # 3/4 sweep twice although their cycle {1} starts at its fixed point
    R = Ring(2, ("x",))
    x = R.var("x")
    M = CartierModule.over_ring(R)
    expect = {Fraction(1, 4): 2, Fraction(1, 3): 3, Fraction(1, 2): 2,
              Fraction(2, 3): 2, Fraction(3, 4): 2, Fraction(1): 1, Fraction(7, 4): 2}
    assert {t: tau(M, x, t).stabilized_at_e for t in expect} == expect


def test_twisted_line_p5():
    R = Ring(5, ("x",))
    x = R.var("x")
    M = CartierModule.over_ring(R, x)
    assert tau(M, x, Fraction(7, 10)).value == full_module(R, 1)
    assert tau(M, x, Fraction(3, 4)).value == ideal(R, x)


def test_frobenius_recursion_random():
    rng = random.Random(31)
    for p in (2, 3):
        R = Ring(p, ("x",))
        x = R.var("x")
        for _ in range(6):
            u = random_poly(rng, R, 2, nonzero=True)
            f = x * (random_poly(rng, R, 2) + R.one())
            M = CartierModule.over_ring(R, u)
            c = u * f
            if c.is_zero():
                continue
            for t in (Fraction(1, 2), Fraction(2, 3), Fraction(1)):
                low = tau(M, f, t, c).value
                high = tau(M, f, t * p, c).value
                assert kappa_span(M.structure, high) == low, f"p={p} t={t}"


def test_convention_equivalence_random():
    rng = random.Random(37)
    for p in (2, 3):
        R = Ring(p, ("x", "y"))
        for _ in range(4):
            u = random_poly(rng, R, 1, nonzero=True)
            f = R.var("x") * (random_poly(rng, R, 1) + R.one())
            M = CartierModule.over_ring(R, u)
            c = u * f
            if c.is_zero():
                continue
            for t in (Fraction(1, 2), Fraction(1)):
                a = tau(M, f, t, c)
                b = tau(M, f, t, c, convention="ceil_pe_minus_1")
                assert b.certified
                assert a.value == b.value


def test_tau_at_zero_is_module_test_ideal():
    R = Ring(3, ("x",))
    x = R.var("x")
    M = CartierModule.over_ring(R, x ** 2)
    got = tau(M, x, Fraction(0))
    assert got.value == ideal(R, x)
    direct, _ = module_test_submodule(M, x ** 2 * x)
    assert direct == got.value


def test_is_F_regular():
    R = Ring(3, ("x",))
    x = R.var("x")
    assert is_F_regular(CartierModule.over_ring(R))
    assert not is_F_regular(CartierModule.over_ring(R, x ** 2))


def test_verify_test_element():
    R = Ring(3, ("x",))
    x = R.var("x")
    M = CartierModule.over_ring(R, x)
    assert verify_test_element(M, x, Fraction(1, 2), x ** 2)


def test_zerodivisor_rejected():
    R = Ring(3, ("x",))
    x = R.var("x")
    u = x ** 4 * (x + R.one()) ** 2
    N = ideal(R, x ** 2 * (x + R.one()))
    from cartierv.cartier_mod import CartierStructure
    M = CartierModule(QuotientPresentation(full_module(R, 1), N),
                      CartierStructure.scalar(R, u))
    assert not is_regular_element(M, x)
    with pytest.raises(NonDegenerateError):
        tau(M, x, Fraction(1, 2), c=x)


def test_suggest_rejects_subquotient():
    R = Ring(3, ("x",))
    x = R.var("x")
    M = CartierModule(
        QuotientPresentation(ideal(R, x), ideal(R, x ** 2)),
        CartierModule.over_ring(R, x ** 5).structure)
    with pytest.raises(NonDegenerateError):
        suggest_test_element(M, x)


def test_nu_interval_frozen():
    R = Ring(3, ("x", "y"))
    x, y = R.gens()
    f = x ** 2 * y
    assert nu_interval(R, f, 1) == (Fraction(1, 3), Fraction(2, 3))
    assert nu_interval(R, f, 2) == (Fraction(4, 9), Fraction(5, 9))
    with pytest.raises(NonDegenerateError):
        nu_interval(R, f + R.one(), 1)


def test_fpt_known_values():
    R1 = Ring(2, ("x",))
    assert fpt(R1, R1.var("x")).value == 1
    R2 = Ring(3, ("x",))
    assert fpt(R2, R2.var("x") ** 2).value == Fraction(1, 2)
    R = Ring(3, ("x", "y"))
    x, y = R.gens()
    res = fpt(R, x ** 2 * y)
    assert res.value == Fraction(1, 2)
    assert res.nu_lower <= res.value <= res.nu_upper


def test_fpt_cusp_p3():
    # Mustata-Takagi-Watanabe: fpt(x^2 + y^3) is 1/2 at p = 2 and 2/3 at p = 3
    for p, threshold in ((2, Fraction(1, 2)), (3, Fraction(2, 3))):
        R = Ring(p, ("x", "y"))
        x, y = R.gens()
        res = fpt(R, x ** 2 + y ** 3)
        assert res.value == threshold
        M = CartierModule.over_ring(R)
        at_jump = tau(M, x ** 2 + y ** 3, threshold).value
        assert at_jump == ideal(R, x, y)


def test_fpt_divergence_on_coarse_grid():
    R = Ring(2, ("x", "y"))
    x, y = R.gens()
    f = x ** 5 * y ** 7
    with pytest.raises(FptDivergenceError):
        fpt(R, f, max_denominator=4)
    assert fpt(R, f, max_denominator=7).value == Fraction(1, 7)


def test_jumping_numbers_twisted_line():
    R = Ring(3, ("x",))
    x = R.var("x")
    M = CartierModule.over_ring(R, x)
    scan = jumping_numbers(M, x, Fraction(0), Fraction(2), max_denominator=6)
    assert scan.jumps == (Fraction(1, 2), Fraction(3, 2))
    assert scan.v0 == full_module(R, 1)
    assert scan.values[0] == ideal(R, x)
    assert scan.values[1] == ideal(R, x ** 2)


def test_table_from_a_scan_above_zero():
    R = Ring(3, ("x",))
    x = R.var("x")
    M = CartierModule.over_ring(R, x)
    table = jumping_numbers(M, x, Fraction(1, 3), Fraction(2), max_denominator=6)
    assert isinstance(table, FiltrationTable)
    assert table.t_min == Fraction(1, 3)
    grid = sorted({Fraction(a, d) for d in range(1, 7) for a in range(2 * d + 1)
                   if Fraction(1, 3) <= Fraction(a, d)})
    for t in grid:
        assert table.value_at(t) == tau(M, x, t).value
    with pytest.raises(ValueError):
        table.value_at(Fraction(1, 4))
    with pytest.raises(ValueError):
        table.left_value_at(Fraction(1, 3))
    assert compute_vfiltration(M, x, 2, 6) == jumping_numbers(M, x, 0, 2, 6)


def test_tau_left_limit_known():
    R = Ring(3, ("x",))
    x = R.var("x")
    M = CartierModule.over_ring(R, x)
    assert tau_left_limit(M, x, Fraction(1, 2)).value == full_module(R, 1)
    assert tau_left_limit(M, x, Fraction(3, 2)).value == ideal(R, x)
    with pytest.raises(ValueError):
        tau_left_limit(M, x, Fraction(0))


def test_graph_pair_matches_base_tau():
    for p in (2, 3):
        R = Ring(p, ("x",))
        x = R.var("x")
        M = CartierModule.over_ring(R)
        G = graph_embed(M, x)
        s = G.ring.var("s")
        for t, want in ((Fraction(1, 2), full_module(R, 1)),
                        (Fraction(1), ideal(R, x))):
            got = tau(G, s, t, c=s)
            reduced = reduce_from_graph(got.value, R, x)
            assert reduced == want, f"p={p} t={t}"


def test_pair_spec_validation():
    R = Ring(3, ("x",))
    x = R.var("x")
    pair = Pair(CartierModule.over_ring(R), x)
    with pytest.raises(ValueError):
        pair.tau(Fraction(-1, 2))
    with pytest.raises(ValueError):
        pair.tau(Fraction(1, 2), convention="floor")
    assert pair.tau(Fraction(1, 2)).value == full_module(R, 1)


MEMO_GRID = tuple(sorted({Fraction(0), Fraction(2), Fraction(7, 3)}
                         | {Fraction(k, d) for d in (1, 2, 3, 4, 6) for k in range(1, 2 * d)}))


def assert_pair_matches_fresh(M, f, c, rng, left_probes=3):
    """One shared Pair answers a shuffled grid (t = 0, t > 1 and left limits
    included) exactly as fresh calls do."""
    pair = Pair(M, f, c)
    grid = list(MEMO_GRID)
    rng.shuffle(grid)
    for t in grid:
        got, want = pair.tau(t), tau(M, f, t, c)
        assert (got.value, got.certified, got.path) == (want.value, want.certified,
                                                       want.path), t
    for t in rng.sample([t for t in grid if t > 0], left_probes):
        assert pair.left_limit(t) == tau_left_limit(M, f, t, c), t
    assert Fraction(1, 2) in pair._solved


def test_pair_memo_random_twisted():
    rng = random.Random(41)
    for p in (2, 3):
        for names in (("x",), ("x", "y")):
            R = Ring(p, names)
            x = R.var("x")
            u = random_poly(rng, R, 2, nonzero=True)
            f = x * (random_poly(rng, R, 1) + R.one())
            c = u * f
            if not c.is_zero():
                assert_pair_matches_fresh(CartierModule.over_ring(R, u), f, c, rng)


def test_pair_memo_rank_two_permutation():
    R = Ring(3, ("x",))
    x = R.var("x")
    swap = CartierStructure(R, 2, ((R.zero(), R.one()), (R.one(), R.zero())))
    assert_pair_matches_fresh(CartierModule.free(R, swap), x, x, random.Random(43))


def test_pair_memo_cusp_cover_shriek():
    P = Ring(3, ("x", "y"))
    x, y = P.gens()
    ext = make_extension(P, y ** 2 - x ** 3)
    xb = ext.base.gens()[0]
    sh = shriek_finite(ext, CartierModule.over_ring(ext.base))
    assert_pair_matches_fresh(sh, xb, xb, random.Random(47), left_probes=1)


def test_pair_back_substitution():
    # p = 3: 1/2 is a 1-cycle (3/2 - 1 = 1/2) and the orbit of 1/6 runs into it
    R = Ring(3, ("x", "y"))
    x, y = R.gens()
    M = CartierModule.over_ring(R, x + y)
    f = x ** 2 * y
    pair = Pair(M, f)
    assert pair.tau(Fraction(1, 2)) == tau(M, f, Fraction(1, 2))
    assert set(pair._solved) == {Fraction(1, 2)}
    assert pair.tau(Fraction(1, 6)) == tau(M, f, Fraction(1, 6))
    assert set(pair._solved) == {Fraction(1, 6), Fraction(1, 2)}
    assert pair.tau(Fraction(7, 6)) == tau(M, f, Fraction(7, 6))
