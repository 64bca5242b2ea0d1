"""Acceptance gate: one test per release criterion.

Every check is exact (reduced Groebner bases compared for equality) and
carries the agreed wall-clock budget, asserted alongside the result.
"""

import functools
import random
from fractions import Fraction

import pytest

from cartierv import (
    CartierModule,
    CartierStructure,
    FreeSubmodule,
    NotFRegularError,
    Ring,
    compare_with_ishriek,
    compute_vfiltration,
    eliminate,
    gr_piece,
    gr_range,
    ideal,
    is_F_regular,
    kappa_span,
    localize_presentation,
    make_extension,
    pullback_etale,
    pushforward_finite,
    pushforward_submodule,
    run_repro,
    run_suites,
    tau,
    tau_left_limit,
    trace_kappa_commutes,
    verify_axioms,
)

from conftest import budget, random_poly, replace_value


def failed(result):
    return [(c.name, c.detail) for c in result.checks if not c.ok]


def test_01_smooth_principal_pair_floor_formula():
    with budget(2):
        result = run_repro("cor79")
    assert result.ok, failed(result)


def test_02_twisted_line_jump_and_graded_piece():
    with budget(5):
        result = run_repro("ex712")
        assert result.ok, failed(result)
        for p in (3, 5, 7):
            R = Ring(p, ("x",))
            x = R.gens()[0]
            M = CartierModule.over_ring(R, x)
            table = compute_vfiltration(M, x, 1, p - 1)
            pieces = gr_range(M, table, "a")
            nonzero = [pc for pc in pieces if not pc.is_zero_piece()]
            assert len(nonzero) == 1
            assert nonzero[0].t == Fraction(p - 2, p - 1)
    notes = [c.detail for c in result.checks if "disagree" in c.detail]
    assert notes, "expected the convention disagreement to be recorded"
    print("note:", notes[0])


def test_03_filtration_axioms_on_four_pairs():
    p = 3
    den = p * p * (p - 1)
    R1 = Ring(p, ("x",))
    x1 = R1.gens()[0]
    R2 = Ring(p, ("x", "y"))
    x2, y2 = R2.gens()
    pairs = [
        (CartierModule.over_ring(R1), x1),
        (CartierModule.over_ring(R1, x1), x1),
        (CartierModule.over_ring(R2), x2 ** 2 * y2),
        (CartierModule.over_ring(R2), x2 ** 2 + y2 ** 3),
    ]
    with budget(60):
        for M, f in pairs:
            table = compute_vfiltration(M, f, 2, den)
            report = verify_axioms(M, table)
            assert report.ok, (f.to_str(), report.failures)


@functools.cache
def _random_instances():
    rng = random.Random("acceptance")
    out = []
    for _ in range(20):
        p = rng.choice((2, 3, 5))
        n = rng.randint(1, 2)
        ring = Ring(p, ("x", "y")[:n])
        x = ring.gens()[0]
        u = random_poly(rng, ring, 4, nonzero=True)
        f = x * (ring.one() + x * random_poly(rng, ring, 2))
        t = Fraction(rng.randint(0, 24), rng.randint(1, 12))
        out.append((ring, CartierModule.over_ring(ring, u), f, t))
    return out


def test_04_structure_map_carries_tau_down_the_scale():
    with budget(60):
        for ring, M, f, t in _random_instances():
            high = tau(M, f, ring.p * t).value
            low = tau(M, f, t).value
            assert kappa_span(M.structure, high) == low, (ring.p, f.to_str(), t)


def test_05_exponent_conventions_agree():
    with budget(30):
        for ring, M, f, t in _random_instances():
            a = tau(M, f, t, convention="ceil_pe").value
            b = tau(M, f, t, convention="ceil_pe_minus_1").value
            assert a == b, (ring.p, f.to_str(), t)


def test_06_frobenius_root_oracle_and_adjunction():
    with budget(30):
        (result,) = run_suites(["roots"], seed=0, cases=50)
    assert result.ok, result.failures


def test_07_graph_embedding_recovers_tau():
    with budget(20):
        result = run_repro("prop38")
    assert result.ok, failed(result)


def test_08_cusp_cover_shriek_module():
    with budget(5):
        result = run_repro("ex621")
    assert result.ok, failed(result)


def test_09_degree_p_cover_functoriality():
    with budget(90):
        for p in (2, 3):
            P = Ring(p, ("x", "y"))
            x, y = P.gens()
            ext = make_extension(P, y ** p - y - x)
            R = ext.base
            xb = R.gens()[0]
            MS = ext.quotient_module()
            push = pushforward_finite(ext, MS)

            # (a) pushing the filtration forward = filtering the pushforward
            grid = sorted({Fraction(k, d) for d in range(1, 7)
                           for k in range(3 * d // 2 + 1)})
            for t in grid:
                assert (pushforward_submodule(ext, tau(MS, x, t, c=x).value, 1)
                        == tau(push, xb, t, c=xb).value), (p, t)

            # (b) eliminating the cover variable from the pullback's tau
            M = CartierModule.over_ring(R)
            pull = pullback_etale(ext, M)
            for t in (Fraction(1, 4), Fraction(1, 2), Fraction(1), Fraction(3, 2)):
                assert (eliminate(tau(pull, x, t, c=x).value, {1}).map_ring(R)
                        == tau(M, xb, t).value), (p, t)

            # (c) field trace commutes with the structures
            rng = random.Random(f"trace:{p}")
            samples = [random_poly(rng, P, 4, nonzero=True) for _ in range(25)]
            assert trace_kappa_commutes(ext, samples)

            # (d) graded pieces of the pushforward are pushforwards of the
            # graded pieces: same presentation pair, same twist matrix
            table = compute_vfiltration(push, xb, Fraction(3, 2), 6, c=xb)
            assert table.jumps, "expected a jump below 3/2"
            for t in table.jumps:
                piece = gr_piece(push, table, t, "a")
                left_S = tau_left_limit(MS, x, t, c=x).value
                value_S = tau(MS, x, t, c=x).value
                assert pushforward_submodule(ext, left_S, 1) == piece.module.pres.W
                assert pushforward_submodule(ext, value_S, 1) == piece.module.pres.N
                MS_tw = CartierModule(
                    MS.pres, MS.structure.twisted(x ** piece.twist_exponent))
                push_tw = pushforward_finite(ext, MS_tw)
                assert push_tw.structure.U == piece.module.structure.U


def test_10_rank_two_permutation_twist():
    with budget(10):
        R = Ring(3, ("x",))
        x = R.gens()[0]
        swap = CartierStructure(R, 2, ((R.zero(), R.one()),
                                       (R.one(), R.zero())))
        M = CartierModule.free(R, swap)
        for t in (Fraction(0), Fraction(1, 4), Fraction(1, 2), Fraction(3, 4),
                  Fraction(1), Fraction(3, 2), Fraction(2)):
            k = int(t)
            expected = FreeSubmodule(R, 2, [(x ** k, R.zero()),
                                            (R.zero(), x ** k)])
            assert tau(M, x, t, c=x).value == expected, t
        table = compute_vfiltration(M, x, 2, 4, c=x)
        report = compare_with_ishriek(M, table)
        assert report.status == "pass", report.detail


def test_11_localization_commutes_with_the_filtration():
    with budget(10):
        R = Ring(3, ("x",))
        x = R.gens()[0]
        M = CartierModule.over_ring(R, x)
        h = x + R.one()
        Mh = localize_presentation(M, h)
        table = compute_vfiltration(M, x, 2, 6)
        table_h = compute_vfiltration(Mh, x, 2, 6)
        assert table_h.jumps == table.jumps
        grid = sorted({Fraction(k, d) for d in (1, 2, 3, 4, 6)
                       for k in range(2 * d + 1)})
        for t in grid:
            assert (table.value_at(t).saturate_element(h)
                    == table_h.value_at(t)), t


def test_12_negative_controls():
    with budget(5):
        R = Ring(3, ("x",))
        x = R.gens()[0]
        bad = CartierModule.over_ring(R, x ** 2)
        assert not is_F_regular(bad, x ** 3)
        with pytest.raises(NotFRegularError):
            compute_vfiltration(bad, x, 1, 4)
        good = CartierModule.over_ring(R, x)
        table = compute_vfiltration(good, x, 2, 6)
        corrupted = replace_value(table, 0, ideal(R, x ** 2))
        report = verify_axioms(good, corrupted)
        assert not report.ok
        assert any(f.t == Fraction(1, 2) for f in report.failures), \
            report.failures
