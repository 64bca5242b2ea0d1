import math
import random
from fractions import Fraction

import pytest

from cartierv import groebner, testmod
from cartierv.cartier_mod import (
    CartierModule,
    CartierStructure,
    graph_embed,
    kappa_span,
    make_extension,
    pullback_etale,
    pushforward_finite,
    pushforward_submodule,
    reduce_from_graph,
    shriek_finite,
)
from cartierv.errors import (
    CartierError,
    ExponentOverflowError,
    FptDivergenceError,
    NonDegenerateError,
    StabilizationCapExceededError,
)
from cartierv.cli import parse_polynomial
from cartierv.field_poly import Ring
from cartierv.frobenius import level_cap
from cartierv.groebner import (
    FreeSubmodule,
    QuotientPresentation,
    eliminate,
    full_module,
    ideal,
    pack_matrix,
    pack_scalar,
    zero_module,
)
from cartierv.suites import _root_oracle
from cartierv.testmod import (
    FiltrationTable,
    Pair,
    fpt,
    is_F_regular,
    is_regular_element,
    jumping_numbers,
    module_test_submodule,
    nu_interval,
    suggest_test_element,
    tau,
    tau_left_limit,
)
from cartierv.vfilt import compute_vfiltration

from conftest import (
    SeededPair,
    TwoPassPair,
    budget,
    colon_by_elimination,
    exponent_at,
    intersect_by_elimination,
    random_poly,
    verify_test_element,
)


def monomial_tau_oracle(ring, exps, t):
    """tau((x^a y^b ..)^t) = (x^floor(t a) y^floor(t b) ..)."""
    mon = tuple((t * a).__floor__() for a in exps)
    return ideal(ring, ring.monomial(mon))


def monomial_left_limit_oracle(ring, exps, t):
    """tau((x^a y^b ..)^{t - eps}) = (x^(ceil(t a) - 1) y^(ceil(t b) - 1) ..)
    for t > 0 (Hara-Yoshida; Howald)."""
    mon = tuple(max((t * a).__ceil__() - 1, 0) for a in exps)
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
        assert got.value == want, f"t={t}"


def test_tau_at_zero_stops_at_the_numerator(monkeypatch):
    """tau(0) stops at the first partial sum that is W, with the step
    count of the sum that runs on until a partial sum repeats: on
    C over F_3[x, y] with f = x the first sum kappa(xR) is R, and on C o x
    over F_3[x] the second; on C o x over F_2[x, y] with f = xy the sum
    stops at (x) below W, where the next kappa repeats it."""
    spans = []
    real = testmod.kappa_span
    monkeypatch.setattr(testmod, "kappa_span", lambda S, W: spans.append(W) or real(S, W))
    for p, names, u, f, value, steps, taken in (
            (3, ("x", "y"), "1", "x", "1", 1, 1), (3, ("x",), "x", "x", "1", 2, 2),
            (2, ("x", "y"), "x", "x*y", "x", 1, 2)):
        R = Ring(p, names)
        M = CartierModule.over_ring(R, parse_polynomial(u, R))
        spans.clear()
        got = tau(M, parse_polynomial(f, R), 0)
        assert got.value == ideal(R, parse_polynomial(value, R))
        assert (got.stabilized_at_e, got.path, len(spans)) == (steps, "fixed-sum", taken), (u, f)


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


def test_f_is_regular_on_a_free_module_without_elimination(monkeypatch):
    # N = 0: a twisted line, R^2 with its components swapped, and the ideal
    # (x) under C o x^p
    R = Ring(3, ("x", "y"))
    x, y = R.gens()
    swap = CartierStructure(R, 2, ((R.zero(), R.one()), (R.one(), R.zero())))
    W = QuotientPresentation(ideal(R, x), zero_module(R, 1))
    modules = [CartierModule.over_ring(R, x), CartierModule.free(R, swap),
               CartierModule(W, CartierStructure.scalar(R, x ** 3))]
    calls = []
    real = FreeSubmodule.intersect
    real_preimage = groebner.preimage_within

    def counted(self, other):
        calls.append(other)
        return real(self, other)

    def counted_preimage(W, images, N):
        calls.append(N)
        return real_preimage(W, images, N)
    monkeypatch.setattr(FreeSubmodule, "intersect", counted)
    monkeypatch.setattr(groebner, "preimage_within", counted_preimage)
    for M in modules:
        assert Pair(M, x + y ** 2).is_regular
    assert calls == []


def test_regularity_on_free_modules_agrees_with_elimination():
    # W/0 sits in a free module over a domain: (0 : f) cap W is 0 for f != 0
    rng = random.Random(67)
    for p in (2, 3):
        R = Ring(p, ("x", "y"))
        for _ in range(3):
            u, g, h = (random_poly(rng, R, 2, nonzero=True) for _ in range(3))
            U = [[random_poly(rng, R, 2) for _ in range(2)] for _ in range(2)]
            P = QuotientPresentation(ideal(R, g, h), zero_module(R, 1))
            modules = [CartierModule.over_ring(R, u),
                       CartierModule.free(R, CartierStructure(R, 2, U)),
                       CartierModule(P, CartierStructure.scalar(R, g ** p))]
            for M in modules:
                f = random_poly(rng, R, 2, nonzero=True)
                N, W = M.pres.N, M.pres.W
                bad = intersect_by_elimination(colon_by_elimination(N, f), W)
                assert is_regular_element(M, f) == N.contains(bad)


def test_regularity_agrees_with_elimination():
    # W/N with N != 0 at rank 1-3; every other case has f*v in N for some v
    # of W outside N, so f is usually a zerodivisor there
    rng = random.Random(71)
    seen = set()
    for p in (2, 3, 5):
        R = Ring(p, ("x", "y"))
        for rank in (1, 2, 3):
            for k in range(4):
                vec = lambda: tuple(random_poly(rng, R, 2, max_terms=2) for _ in range(rank))  # noqa: E731
                f = random_poly(rng, R, 2, max_terms=2, nonzero=True)
                N = FreeSubmodule(R, rank, [vec(), vec()])
                v = vec()
                if k % 2:
                    N = N.add_vectors([tuple(f * g for g in v)])
                W = N.add_vectors([vec(), v])
                U = [[random_poly(rng, R, 1) for _ in range(rank)] for _ in range(rank)]
                M = CartierModule(QuotientPresentation(W, N), CartierStructure(R, rank, U),
                                  check=False)
                bad = intersect_by_elimination(colon_by_elimination(N, f), W)
                regular = is_regular_element(M, f)
                assert regular == N.contains(bad)
                seen.add(regular)
    assert seen == {True, False}


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
    # Mustata-Takagi-Watanabe: fpt(x^2 + y^3) is 1/2 at p = 2, 2/3 at p = 3,
    # 5/6 for p = 1 mod 6 and (5p - 1)/(6p) for p = 5 mod 6
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23):
        if p < 5:
            threshold = Fraction(1, 2) if p == 2 else Fraction(2, 3)
        else:
            threshold = Fraction(5, 6) if p % 6 == 1 else Fraction(5 * p - 1, 6 * p)
        R = Ring(p, ("x", "y"))
        x, y = R.gens()
        res = fpt(R, x ** 2 + y ** 3)
        assert res.value == threshold, p
        assert res.nu_lower <= threshold <= res.nu_upper, p
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


def test_candidates_reach_the_top_rung_of_the_ladder():
    # p = 2, N = 12: the jumps ladder runs to 16 <= 2 N, fpt's to (p-1) p^6 = 64
    R = Ring(2, ("x", "y"))
    x, y = R.gens()
    plain = CartierModule.over_ring(R)
    assert jumping_numbers(plain, x ** 16, 0, Fraction(1, 16), 12).jumps == (Fraction(1, 16),)
    with pytest.raises(CartierError, match="below t=1/16;"):
        jumping_numbers(plain, x ** 32, 0, Fraction(1, 16), 12)
    assert fpt(R, x ** 64, max_denominator=1).value == Fraction(1, 64)
    with pytest.raises(FptDivergenceError, match="no jump found"):
        fpt(R, x ** 128, max_denominator=1)
    with pytest.raises(FptDivergenceError, match="below candidate 13/64;"):
        fpt(R, x ** 5)


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


def test_left_limit_monomial_oracle():
    # jumps k/21 sit off the probes t - 1/(p^k (p-1)): at p = 2 the left limit
    # of x^2 y^21 at 1/2 is (y^10), not the (y^9) of 1/2 - 1/16 and 1/2 - 1/32
    grid = sorted({Fraction(k, d) for d in (1, 2, 3, 4, 5, 6, 7, 8, 10, 12, 21)
                   for k in range(1, 2 * d + 1)})
    for p in (2, 3, 5):
        R = Ring(p, ("x", "y"))
        x, y = R.gens()
        for exps in ((2, 21), (3, 2), (4, 7), (5, 0)):
            pair = Pair(CartierModule.over_ring(R), x ** exps[0] * y ** exps[1])
            for t in grid:
                got = pair.left_limit(t)
                assert got.path == "left-limit"
                assert got.value == monomial_left_limit_oracle(R, exps, t), (p, exps, t)


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


def test_an_invalid_level_cap_is_refused():
    R = Ring(3, ("x",))
    x = R.var("x")
    M = CartierModule.over_ring(R)
    for e_cap in (0, -1):
        for convention in ("ceil_pe", "ceil_pe_minus_1"):
            with pytest.raises(ValueError, match="level cap must be >= 1"):
                tau(M, x, Fraction(1, 2), convention=convention, e_cap=e_cap)
        with pytest.raises(ValueError, match="level cap must be >= 1"):
            jumping_numbers(M, x, 0, 2, 6, e_cap=e_cap)
        with pytest.raises(ValueError, match="level cap must be >= 1"):
            fpt(R, x, e_cap=e_cap)
    assert Pair(M, x).cap == level_cap() and Pair(M, x, e_cap=2).cap == 2


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
        assert (got.value, got.path) == (want.value, want.path), t
    for t in rng.sample([t for t in grid if t > 0], left_probes):
        assert pair.left_limit(t) == tau_left_limit(M, f, t, c), t
    assert (1, 2) in pair._solved  # points are kept as int pairs in lowest terms


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


def test_orbit_runs_into_a_solved_1_cycle():
    # p = 3: 1/2 is a 1-cycle (3/2 - 1 = 1/2) and the orbit of 1/6 runs into it
    R = Ring(3, ("x", "y"))
    x, y = R.gens()
    M = CartierModule.over_ring(R, x + y)
    f = x ** 2 * y
    pair = Pair(M, f)
    assert pair.tau(Fraction(1, 2)) == tau(M, f, Fraction(1, 2))
    assert set(pair._solved) == {(1, 2)}
    assert pair.tau(Fraction(1, 6)) == tau(M, f, Fraction(1, 6))
    assert set(pair._solved) == {(1, 6), (1, 2)}
    assert pair.tau(Fraction(7, 6)) == tau(M, f, Fraction(7, 6))


def counted_steps(monkeypatch):
    """Record the shift of every orbit step any Pair takes."""
    shifts = []
    real = Pair._step

    def step(self, m, X):
        shifts.append(m)
        return real(self, m, X)
    monkeypatch.setattr(Pair, "_step", step)
    return shifts


def test_pair_keeps_one_seed_per_shift():
    # the seed of shift m < p is the step kept under (m + 1, cD); the one of
    # shift p - 1 is f times the step (0, cD)
    R = Ring(3, ("x", "y"))
    x, y = R.gens()
    pair = Pair(CartierModule.over_ring(R, x + y), x ** 2 * y)

    def seeds():
        return {m for m, X in pair._steps if X == pair.cD}
    for t in MEMO_GRID:
        pair.tau(t)
        if t > 0:
            pair.left_limit(t)
        assert seeds() <= {0, 1, 2, 3}
    assert seeds() == {0, 1, 2, 3}
    for m in range(3):
        want = kappa_span(pair.M.structure, pair.cD.scaled(pair.f ** (m + 1)))
        assert pair._steps[m + 1, pair.cD] == want


def packed_pairs(rng):
    """(M, f) over p = 2, 3, 5, with scalar twists on the ring and free
    rank-2 modules with a random twist matrix, and f in the maximal ideal."""
    for p in (2, 3, 5):
        R = Ring(p, ("x", "y"))
        x, y = R.gens()
        for _ in range(2):
            f = x * (R.one() + x * random_poly(rng, R, 2)) + y * random_poly(rng, R, 2)
            yield CartierModule.over_ring(R, random_poly(rng, R, 3, nonzero=True)), f
            U = [[random_poly(rng, R, 2) for _ in range(2)] for _ in range(2)]
            yield CartierModule.free(R, CartierStructure(R, 2, U)), f


def test_packed_powers_match_poly_powers():
    rng = random.Random(97)
    for M, f in packed_pairs(rng):
        p = M.ring.p
        pair = Pair(M, f)
        assert dict(pair._power(3 * p)) == dict(pack_scalar(f ** (3 * p)))
        for m in range(3 * p + 1):
            assert dict(pair._power(m)) == dict(pack_scalar(f ** m)), (f, m)
        pair = Pair(M, f)
        for m in reversed(range(3 * p + 1)):
            assert dict(pair._power(m)) == dict(pack_scalar(f ** m)), (f, m)


def test_a_large_power_takes_a_product_per_bit():
    # square-and-multiply: f^m for m near 10^8 keeps the squares and the
    # low-bit products on the way, two per bit of m, not every power below m
    R = Ring(2, ("x", "y"))
    x, y = R.gens()
    m = 10 ** 8 + 7
    pair = Pair(CartierModule.over_ring(R), x)
    with budget(2):
        assert pair._power(m) == pack_scalar(x ** m)
    assert len(pair._powers) <= 2 * m.bit_length()
    pair = Pair(CartierModule.over_ring(R), x ** 3 * y)
    with budget(2):
        assert pair.tau(10 ** 6).value == ideal(R, x ** (3 * 10 ** 6) * y ** (10 ** 6))
        assert pair.tau(Fraction(10 ** 8 + 1, 3)).value == \
            ideal(R, x ** (10 ** 8 + 1) * y ** 33333333)


def test_kept_shift_twists_match_poly_products():
    # each shift m < p keeps U f^m packed as pack_matrix packs it
    rng = random.Random(101)
    for M, f in packed_pairs(rng):
        R, p, r = M.ring, M.ring.p, M.rank
        pair = Pair(M, f)
        for m in range(p):
            want = tuple(tuple(e * f ** m for e in row) for row in M.structure.U)
            got = pair._shift(m)
            assert [dict(col) for col in got.packed()] == \
                [dict(col) for col in pack_matrix(R, r, want)], (f, m)
        assert len(pair._shifts) == p


def test_one_pass_step_matches_the_two_pass_reference():
    # kappa(U f^m X) + N in one pass equals kappa(U (f^m X)) + N, for the
    # shifts below p and, through kappa(f^p Y) = f kappa(Y), above
    rng = random.Random(103)
    grid = [Fraction(k, d) for d in (1, 2, 3, 4, 6) for k in range(1, 2 * d + 1)]
    for M, f in packed_pairs(rng):
        R, p, r = M.ring, M.ring.p, M.rank
        pair, ref = Pair(M, f), TwoPassPair(M, f)
        for _ in range(3):
            X = FreeSubmodule(R, r, [tuple(random_poly(rng, R, 3) for _ in range(r))
                                     for _ in range(rng.randint(1, 3))])
            for m in range(2 * p + 1):
                assert pair._step(m, X) == ref._step(m, X), (f, m, X)
        if r == 1:
            for t in rng.sample(grid, 4):
                assert Pair(M, f).tau(t) == TwoPassPair(M, f).tau(t), (f, t)
                assert pair.tau(t).value == ref.tau(t).value, (f, t)


def test_an_f_whose_square_overflows_raises():
    # f fits a packed term, f^2 does not: the packed products refuse it
    for p in (2, 3, 5):
        R = Ring(p, ("x", "y"))
        x, y = R.gens()
        f = R.monomial((2 ** 62, 0))
        for M in (CartierModule.over_ring(R), CartierModule.over_ring(R, x + y)):
            for t in (Fraction(1, 2), Fraction(1), Fraction(3, 2)):
                with pytest.raises(ExponentOverflowError, match="is above 2"):
                    tau(M, f, t)
        pair = Pair(CartierModule.over_ring(R), f)
        with pytest.raises(ExponentOverflowError):
            pair._power(2)
        if p > 2:
            with pytest.raises(ExponentOverflowError):
                pair._shift(2)


def test_confirming_sweep_takes_no_step(monkeypatch):
    # p = 2: 1/3 -> 2/3 -> 1/3 is a 2-cycle of shifts 0 and 1 solved in 3
    # sweeps; after the seeds (steps 1 and 2 at cD, where step 2 = p takes
    # step 0 at cD), the first and second sweeps step both points, the third
    # (confirming) one steps neither
    R = Ring(2, ("x",))
    x = R.var("x")
    shifts = counted_steps(monkeypatch)
    got = Pair(CartierModule.over_ring(R), x).tau(Fraction(1, 3))
    assert got.stabilized_at_e == 3
    assert shifts == [1, 2, 0, 1, 0, 1, 0]
    # a point whose orbit runs into a solved one is stepped once, after its
    # seed
    R3 = Ring(3, ("x", "y"))
    x, y = R3.gens()
    M, f = CartierModule.over_ring(R3, x + y), x ** 2 * y
    want = tau(M, f, Fraction(1, 6))
    pair = Pair(M, f)
    pair.tau(Fraction(1, 2))
    shifts.clear()
    assert pair.tau(Fraction(1, 6)) == want
    assert shifts == [1, 0]


def test_shared_pair_serves_points_of_a_solved_orbit(monkeypatch):
    # p = 2: the orbit 1/12 -> 1/6 -> 1/3 -> 2/3 -> 1/3 has a pre-period
    # {1/12, 1/6} and a cycle {1/3, 2/3}; solving it from 1/12 answers the rest
    R = Ring(2, ("x", "y"))
    x, y = R.gens()
    M, f = CartierModule.over_ring(R, x + y), x ** 3 * y ** 2
    pair = Pair(M, f)
    first = pair.tau(Fraction(1, 12))
    assert first == tau(M, f, Fraction(1, 12))
    assert set(pair._solved) == {(1, 12), (1, 6), (1, 3), (2, 3)}
    fresh = {t: tau(M, f, t) for t in (Fraction(1, 6), Fraction(2, 3))}
    shifts = counted_steps(monkeypatch)
    for t, want in fresh.items():
        got = pair.tau(t)
        assert (got.value, got.path) == (want.value, want.path), t
        # every point the loop solved stores that loop's whole-orbit count
        assert got.stabilized_at_e == first.stabilized_at_e, t
    assert shifts == []
    # 1/28 -> 1/14 -> 1/7 -> 2/7 -> 4/7 -> 1/7: the cycle point 4/7 keeps the
    # count of the 1/28 loop, which differs from a fresh call's
    pair = Pair(M, f)
    first = pair.tau(Fraction(1, 28))
    got, want = pair.tau(Fraction(4, 7)), tau(M, f, Fraction(4, 7))
    assert got.value == want.value
    assert (got.stabilized_at_e, want.stabilized_at_e) == (first.stabilized_at_e, 4)
    assert first.stabilized_at_e == 3


def test_each_value_is_checked_once(monkeypatch):
    # the left limit and a repeated tau read the kept answer at t
    R = Ring(3, ("x",))
    x = R.var("x")
    checked = []
    real = Pair._checked

    def counted(self, t, convention):
        checked.append(t)
        return real(self, t, convention)
    monkeypatch.setattr(Pair, "_checked", counted)
    pair = Pair(CartierModule.over_ring(R, x), x)
    first = pair.tau(Fraction(1, 2))
    assert pair.left_limit(Fraction(1, 2)).value == full_module(R, 1)
    assert pair.tau(Fraction(1, 2)) is first
    assert checked == [(1, 2)]


def spans_in_steps(monkeypatch):
    """Record, for every kappa_span that an orbit step computes, the step's
    shift and the reduced basis of its successor value."""
    inside, spanned = [], []
    real_step, real_span = Pair._step, testmod.kappa_span

    def step(self, m, X):
        inside.append((m, X.groebner()))
        try:
            return real_step(self, m, X)
        finally:
            inside.pop()

    def span(S, Z):
        if inside:
            spanned.append(inside[-1])
        return real_span(S, Z)
    monkeypatch.setattr(Pair, "_step", step)
    monkeypatch.setattr(testmod, "kappa_span", span)
    return spanned


def test_scan_spans_each_orbit_step_once(monkeypatch):
    # the orbits of a scan's tau values and left limits keep meeting the same
    # (shift, value), and the seeds the same (m + 1, cD); each is spanned
    # once per Pair
    R = Ring(3, ("x", "y"))
    x, y = R.gens()
    M, f = CartierModule.over_ring(R, x + y), x ** 2 * y
    want = jumping_numbers(M, f, 0, 2, 18)
    pair = Pair(M, f)
    shifts = counted_steps(monkeypatch)
    spanned = spans_in_steps(monkeypatch)
    assert pair.jumping_numbers(0, 2, 18) == want
    assert len(spanned) == len(set(spanned))
    assert len(shifts) > len(spanned)  # the scan repeats steps
    # a step of shift p = 3, the seed of shift 2, spans nothing of its own
    assert len(pair._steps) == len(spanned) + 1
    assert {(m, pair.cD.groebner()) for m in (0, 1, 2)} <= set(spanned)
    assert (3, pair.cD) in pair._steps


def test_equal_value_in_another_object_hits_the_step_memo(monkeypatch):
    R = Ring(3, ("x", "y"))
    x, y = R.gens()
    pair = Pair(CartierModule.over_ring(R, x + y), x ** 2 * y)
    X = pair._step(1, pair.cD)  # the seed of shift 0
    first = {m: pair._step(m, X) for m in range(3)}
    # the memo must tell the shifts apart, and the values
    assert first[0] != first[2]
    assert pair._step(2, full_module(R, 1)) != first[2]
    spanned = spans_in_steps(monkeypatch)
    same = FreeSubmodule(R, 1, X.gens + ((x * X.gens[0][0],),))
    assert same is not X and same.gens != X.gens
    assert all(pair._step(m, same) is first[m] for m in range(3))
    # and a cD in another object finds the seed
    cD = FreeSubmodule(R, 1, pair.cD.gens + ((x * pair.cD.gens[0][0],),))
    assert cD is not pair.cD and pair._step(1, cD) is X
    assert spanned == []


def test_left_limit_reuses_the_steps_of_tau(monkeypatch):
    # p = 3: 1/4 -> 3/4 -> 1/4 is no jump; the left-limit system sweeps down
    # from tau(0) onto the pairs (shift, value) that the tau system stepped
    R = Ring(3, ("x", "y"))
    x, y = R.gens()
    M, f = CartierModule.over_ring(R, x + y), x ** 2 * y
    t = Fraction(1, 4)
    want = tau_left_limit(M, f, t).value
    pair = Pair(M, f)
    value = pair.tau(t).value
    kept = len(pair._steps)
    shifts = counted_steps(monkeypatch)
    spanned = spans_in_steps(monkeypatch)
    assert pair.left_limit(t).value == value == want
    assert len(shifts) == 2 and spanned == []
    assert len(pair._steps) == kept


def lemma_cases(rng):
    """(M, f, c) for the seed lemma and the seeded reference: twisted rank 1
    with an arbitrary test element, the rank-2 permutation, three modules
    with relations N != 0 (the quotient modules of Artin-Schreier covers and
    of the cusp cover) and the shriek of the cusp cover."""
    for p in (2, 3, 5):
        for names in (("x",), ("x", "y")):
            R = Ring(p, names)
            x = R.var("x")
            u = random_poly(rng, R, 2, nonzero=True)
            f = x * (random_poly(rng, R, 1) + R.one())
            yield CartierModule.over_ring(R, u), f, random_poly(rng, R, 2, nonzero=True)
    R = Ring(3, ("x",))
    x = R.var("x")
    swap = CartierStructure(R, 2, ((R.zero(), R.one()), (R.one(), R.zero())))
    yield CartierModule.free(R, swap), x, x + R.one()
    for p in (2, 3):
        P = Ring(p, ("x", "y"))
        x, y = P.gens()
        yield make_extension(P, y ** p - y - x).quotient_module(), x, x
    P = Ring(3, ("x", "y"))
    x, y = P.gens()
    ext = make_extension(P, y ** 2 - x ** 3)
    yield ext.quotient_module(), x, x
    xb = ext.base.gens()[0]
    yield shriek_finite(ext, CartierModule.over_ring(ext.base)), xb, xb


def test_orbit_step_contains_the_seed():
    # the lemma behind the seedless `Pair._step`: for X containing
    # seed(m') = kappa(f^(m'+1) cD) + N, m' < p, every seed(m) lies in
    # kappa(f^m X) + N; spans are taken here, not through the Pair's memos
    rng = random.Random(83)
    with_relations = 0
    for M, f, c in lemma_cases(rng):
        pair, S, N = Pair(M, f, c), M.structure, M.pres.N
        if not pair.is_regular:
            continue
        with_relations += not N.is_zero()
        p, R = M.ring.p, M.ring
        seeds = [kappa_span(S, pair.cD.scaled(f ** (m + 1))).add(N) for m in range(p)]
        for seed in seeds:
            for _ in range(2):
                extra = [tuple(random_poly(rng, R, 2) for _ in range(M.rank))
                         for _ in range(rng.randrange(3))]
                X = seed.add(FreeSubmodule(R, M.rank, extra))
                for m in range(p):
                    stepped = kappa_span(S, X.scaled(f ** m)).add(N)
                    assert stepped.contains(seeds[m]), (M, f, c, m)
    assert with_relations == 3


def test_seedless_step_matches_the_seeded_reference():
    # the step without its seed gives every value and sweep count of the
    # step of the series, on a shared Pair and on fresh ones
    rng = random.Random(89)
    grid = [Fraction(k, d) for d in (1, 2, 3, 4, 5, 6, 9) for k in range(1, 2 * d + 1)]
    for M, f, c in lemma_cases(rng):
        if not is_regular_element(M, f):
            continue
        shared, seeded = Pair(M, f, c), SeededPair(M, f, c)
        for t in rng.sample(grid, 6):
            for convention in ("ceil_pe", "ceil_pe_minus_1"):
                try:
                    want = seeded.tau(t, convention)
                except StabilizationCapExceededError:
                    with pytest.raises(StabilizationCapExceededError):
                        shared.tau(t, convention)
                    continue
                assert shared.tau(t, convention) == want, (M, f, c, t)
                assert Pair(M, f, c).tau(t, convention) == SeededPair(M, f, c).tau(t, convention)
            assert shared.left_limit(t) == seeded.left_limit(t), (M, f, c, t)
            assert Pair(M, f, c).left_limit(t) == SeededPair(M, f, c).left_limit(t)


def test_integer_orbit_walk():
    # the orbit walk on int pairs: s' = p s - ceil(p s) + 1 in lowest terms,
    # shift ceil(p s) - 1, also where p s is an integer
    rng = random.Random(97)
    for p in (2, 3, 5, 7):
        points = [Fraction(rng.randint(1, d), d) for d in (rng.randint(1, 60) for _ in range(40))]
        points += [Fraction(1), Fraction(1, p), Fraction(p - 1, p), Fraction(2, p * p)]
        for s in points:
            m, (a, b) = testmod._next_point(p, (s.numerator, s.denominator))
            assert m == math.ceil(p * s) - 1, (p, s)
            assert Fraction(a, b) == p * s - math.ceil(p * s) + 1, (p, s)
            assert b > 0 and math.gcd(a, b) == 1, (p, s, a, b)


def test_ceil_pe_minus_1_levels():
    # stabilized_at_e is the last level at which the series' partial sum changed
    R = Ring(3, ("x", "y"))
    x, y = R.gens()
    plain, twisted, sum_twist = (CartierModule.over_ring(R), CartierModule.over_ring(R, x),
                                 CartierModule.over_ring(R, x + y))
    cases = [(plain, x ** 2 * y, Fraction(4, 9), 4), (plain, x ** 2 * y, Fraction(2), 1),
             (twisted, x, Fraction(1, 2), 1), (twisted, x, Fraction(7, 5), 4),
             (sum_twist, x * y, Fraction(1, 2), 3)]
    for M, f, t, level in cases:
        got = tau(M, f, t, convention="ceil_pe_minus_1")
        assert (got.stabilized_at_e, got.path) == (level, "series+orbit"), t
        assert got.value == tau(M, f, t).value


def candidate_grid(p, lo, hi, max_denominator, ladder_limit=None, e_cap=None):
    """Reference for the scans' candidates: the fractions in [lo, hi] with a
    denominator up to the bound or on the ladder p^k (p-1), k at most the
    level cap and p^k (p-1) at most ladder_limit."""
    dens = set(range(1, max_denominator + 1))
    d = p - 1
    for _ in range(level_cap(e_cap) + 1):
        if ladder_limit is not None and d > ladder_limit:
            break
        dens.add(d)
        d *= p
    return sorted({Fraction(a, den) for den in dens
                   for a in range(max(math.floor(lo * den) - 1, 0), math.ceil(hi * den) + 2)
                   if lo <= Fraction(a, den) <= hi})


def linear_scan(M, f, lo, hi, max_denominator, c=None):
    """Reference for `jumping_numbers`: tau and the left limit at every grid
    point in turn, then tau at hi.  Returns (v0, jumps, values, left limits),
    or the message of the first jump that falls between grid points."""
    pair = Pair(M, f, c)
    p = M.ring.p
    grid = [q for q in candidate_grid(p, lo, hi, max_denominator,
                                      ladder_limit=p * max_denominator) if q > lo]
    v0 = prev = pair.tau(lo).value
    jumps, values, limits = [], [], []
    for q in grid:
        cur, left = pair.tau(q).value, pair.left_limit(q).value
        assert prev.contains(cur), q
        if cur != prev:
            if left != prev:
                return f"jump between grid points below t={q}"
            jumps.append(q)
            values.append(cur)
            limits.append(left)
        prev = cur
    if pair.tau(hi).value != prev:
        return f"jump between grid points below t={hi}"
    return v0, tuple(jumps), tuple(values), tuple(limits)


def assert_search_matches_linear_scan(M, f, lo, hi, max_denominator, c=None):
    want = linear_scan(M, f, lo, hi, max_denominator, c)
    if isinstance(want, str):
        with pytest.raises(CartierError, match=want):
            jumping_numbers(M, f, lo, hi, max_denominator, c)
        return
    table = jumping_numbers(M, f, lo, hi, max_denominator, c)
    assert (table.v0, table.jumps, table.values, table.left_limits) == want


def test_jumping_numbers_match_a_linear_scan():
    rng = random.Random(59)
    for p in (2, 3):
        for names in (("x",), ("x", "y")):
            R = Ring(p, names)
            x = R.var("x")
            for _ in range(2):
                u = random_poly(rng, R, 2, nonzero=True)
                f = x * (random_poly(rng, R, 1) + R.one())
                if not (u * f).is_zero():
                    assert_search_matches_linear_scan(CartierModule.over_ring(R, u), f,
                                                      Fraction(0), Fraction(2), 6)
        R = Ring(p, ("x", "y"))
        x, y = R.gens()
        plain = CartierModule.over_ring(R)
        for a, b, lo, hi, md in ((2, 3, 0, 1, 6), (3, 2, 0, 1, 6), (1, 4, 0, 2, 4),
                                 (5, 1, Fraction(1, 3), Fraction(3, 2), 6),
                                 (2, 21, 0, Fraction(1, 2), 12),
                                 (7, 0, Fraction(2, 3), Fraction(5, 7), 6),
                                 (7, 0, Fraction(2, 3), Fraction(5, 7), 7)):
            assert_search_matches_linear_scan(plain, x ** a * y ** b,
                                              Fraction(lo), Fraction(hi), md)


def test_scan_skips_stretches_with_equal_ends(monkeypatch):
    # tau((F_3[x], C), x^t) = (x^floor(t)): two jumps among 276 candidates above 0
    R = Ring(3, ("x",))
    x = R.var("x")
    grid = [q for q in candidate_grid(3, Fraction(0), Fraction(2), 18, ladder_limit=54)
            if q > 0]
    calls = []
    real = Pair.tau

    def counted(self, t, *args, **kwargs):
        calls.append(t)
        return real(self, t, *args, **kwargs)
    monkeypatch.setattr(Pair, "tau", counted)
    table = compute_vfiltration(CartierModule.over_ring(R), x, 2, 18)
    assert table.jumps == (Fraction(1), Fraction(2))
    assert len(grid) == 276
    assert 10 * len(calls) < len(grid)


def test_root_path_summands_lie_in_tau():
    # tau(M, f^t) is the stable sum of (c u^{s_e} f^{ceil(t p^e)})^{[1/p^e]},
    # s_e = 1 + p + .. + p^{e-1}, for the classical shape; the roots come
    # from the trace oracle, independent of the packed digit split.  Levels
    # with p^{e n} above 125 are left out: the oracle takes p^{e n} traces.
    rng = random.Random(67)
    for p in (2, 3, 5):
        for names in (("x",), ("x", "y")):
            R = Ring(p, names)
            x = R.var("x")
            levels = [e for e in (1, 2, 3) if p ** (e * len(names)) <= 125]
            for _ in range(3):
                u = random_poly(rng, R, 2, nonzero=True)
                f = x * (random_poly(rng, R, 1) + R.one())
                c = u * f
                if c.is_zero():
                    continue
                pair = Pair(CartierModule.over_ring(R, u), f, c)
                for t in (Fraction(1, 3), Fraction(1, 2), Fraction(5, 6), Fraction(7, 4)):
                    value = pair.tau(t).value
                    for e in levels:
                        s_e = (p ** e - 1) // (p - 1)
                        summand = c * u ** s_e * f ** exponent_at(t, p, e)
                        assert value.contains(_root_oracle(ideal(R, summand), e)), \
                            (p, names, t, e)


def test_pushforward_of_a_root_cover_has_the_cover_jumps():
    # S = F_p[x, y]/(y^n - x) pushed down to F_p[x], f = c = x: x is y^n on
    # S = F_p[y], whose tau(y^{n t}) = (y^floor(n t)) jumps at k/n
    for p, n in ((3, 2), (5, 2), (2, 3), (5, 3), (7, 3), (3, 4), (3, 10), (7, 11), (5, 12)):
        P = Ring(p, ("x", "y"))
        x, y = P.gens()
        ext = make_extension(P, y ** n - x)
        push = pushforward_finite(ext, ext.quotient_module())
        f = ext.base.var("x")
        table = Pair(push, f, c=f).jumping_numbers(0, 2, 4 * n)
        assert table.jumps == tuple(Fraction(k, n) for k in range(1, 2 * n + 1)), (p, n)


@pytest.mark.parametrize("p, names, g, f", [
    (5, "x,y", "y^2 - x^3", "x"), (7, "x,y", "y^2 - x^3", "x"),
    (2, "x,y", "y^3 - x^2", "x"), (5, "x,y", "y^3 - x^2", "x"),
    (3, "x,z,y", "y^2 - x*z", "x"), (3, "x,z,y", "y^2 - x*z", "x*z"),
    (2, "x,y", "y^3 - y - x", "x^2"), (5, "x,y", "y^3 - y - x", "x^2"),
    (3, "x,y", "y^2 + x*y + x", "x"), (5, "x,y", "y^2 + x*y + x", "x"),
    (7, "x,y", "y^7 - y - x", "x"), (7, "x,y", "y^7 - y - x", "x^2"),
    (11, "x,y", "y^11 - y - x", "x"), (11, "x,y", "y^11 - y - x", "x^2"),
    (13, "x,y", "y^13 - y - x", "x"), (13, "x,y", "y^13 - y - x", "x^2"),
])
def test_pushforward_carries_the_whole_table(p, names, g, f):
    # the tables of the cover S = P/(g) and of its pushforward to the base,
    # both with c = f: the same jumps on [0, 2], and pushforward_submodule
    # sends v0, each value and each left limit of the cover to the base's
    P = Ring(p, tuple(names.split(",")))
    ext = make_extension(P, parse_polynomial(g, P))
    MS = ext.quotient_module()
    f = parse_polynomial(f, P)
    fb = f.map_ring(ext.base)
    cover = Pair(MS, f, c=f).jumping_numbers(0, 2, 12)
    base = Pair(pushforward_finite(ext, MS), fb, c=fb).jumping_numbers(0, 2, 12)
    assert cover.jumps and base.jumps == cover.jumps
    pushed = [pushforward_submodule(ext, V, 1)
              for V in (cover.v0, *cover.values, *cover.left_limits)]
    assert pushed == [base.v0, *base.values, *base.left_limits]


def test_pullback_carries_the_whole_table():
    # the etale pullback of (F_p[x], C) to S = F_p[x, y]/(y^p - y - x) and the
    # base, both with c = f = x^k: the same jumps on [0, 2], which are j/k by
    # the monomial formula, and eliminating y sends v0, each value and each
    # left limit of the pullback to the base's
    for p in (2, 3, 5, 7, 11):
        P = Ring(p, ("x", "y"))
        x, y = P.gens()
        ext = make_extension(P, y ** p - y - x)
        R = ext.base
        M = CartierModule.over_ring(R)
        pull = pullback_etale(ext, M)
        for k in (1, 2, 3):
            f, fb = x ** k, R.var("x") ** k
            cover = Pair(pull, f, c=f).jumping_numbers(0, 2, 12)
            base = Pair(M, fb, c=fb).jumping_numbers(0, 2, 12)
            assert base.jumps == tuple(Fraction(j, k) for j in range(1, 2 * k + 1)), (p, k)
            assert cover.jumps == base.jumps, (p, k)
            down = [eliminate(V, {1}).map_ring(R)
                    for V in (cover.v0, *cover.values, *cover.left_limits)]
            assert down == [base.v0, *base.values, *base.left_limits], (p, k)


def test_kappa_power_matches_direct_powers():
    # kappa^e(f^B cD) modulo N, one step per base-p digit of B: level k is
    # one step memo entry, shared by every e and B that agree in B mod p^k
    rng = random.Random(71)
    cases = []
    for p in (2, 3, 5):
        for names in (("x",), ("x", "y")):
            R = Ring(p, names)
            x = R.var("x")
            u = random_poly(rng, R, 2, nonzero=True)
            f = x * (random_poly(rng, R, 1) + R.one())
            if not (u * f).is_zero():
                cases.append((CartierModule.over_ring(R, u), f, None))
    for p in (2, 3):
        P = Ring(p, ("x", "y"))
        x, y = P.gens()
        cases.append((make_extension(P, y ** p - y - x).quotient_module(), x, x))
    with_relations = 0
    for M, f, c in cases:
        pair, p, N = Pair(M, f, c), M.ring.p, M.pres.N
        with_relations += not N.is_zero()
        levels = set()
        for e in (1, 2, 3):
            for B in [0, p ** e - 1, p ** e] + [rng.randrange(p ** 3) for _ in range(3)]:
                want = pair.cD.scaled(f ** B)
                for _ in range(e):
                    want = kappa_span(M.structure, want)
                assert pair._kappa_power(e, B).add(N) == want.add(N), (M, f, e, B)
                levels |= {(k, B % p ** k) for k in range(1, e + 1)}
        assert len(pair._steps) <= len(levels)
    assert with_relations == 2


def test_series_levels_share_their_digits(monkeypatch):
    # ceil_pe_minus_1 at t = 1/2, p = 3 reads kappa^e(f^{b_e} cD) for
    # b_e = (3^e + 1)/2 = 2, 5, 14, ...: each extends the digits of the last
    # (2, then 1s), so level e is the step of shift 1 from level e - 1.  The
    # orbit of 1/2 = 3/2 - 1 is a 1-cycle of shift 1 seeded at level 1, so
    # its sweeps step the same (shift, value) as the series.  The series
    # stops at the first level whose sum is tau.
    calls = []
    real = testmod.kappa_span

    def counted(structure, W):
        calls.append(W)
        return real(structure, W)
    monkeypatch.setattr(testmod, "kappa_span", counted)
    # on the twisted line tau(1/2) = (x) is the first level: one kappa for
    # it, which is also the seed of 1/2, and one orbit step
    R = Ring(3, ("x",))
    x = R.var("x")
    pair = Pair(CartierModule.over_ring(R, x), x)
    got = pair.tau(Fraction(1, 2), convention="ceil_pe_minus_1")
    assert (got.value, got.stabilized_at_e, got.path) == (ideal(R, x), 1, "series+orbit")
    assert len(pair._steps) == len(calls) == 2
    # with twist x + y and f = xy the sum reaches tau at level 3 and the
    # orbit converges in 3 sweeps: the seed and the first two sweeps' steps
    # are the three levels, so the series takes no kappa of its own and the
    # four are the seed and the orbit's three steps
    R = Ring(3, ("x", "y"))
    x, y = R.gens()
    pair = Pair(CartierModule.over_ring(R, x + y), x * y)
    calls.clear()
    got = pair.tau(Fraction(1, 2), convention="ceil_pe_minus_1")
    assert (got.stabilized_at_e, got.path) == (3, "series+orbit")
    assert pair.tau(Fraction(1, 2)).stabilized_at_e == 3
    assert len(pair._steps) == len(calls) == 4
