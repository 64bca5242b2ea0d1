from __future__ import annotations

import random
from itertools import product

import pytest

from cartierv import groebner
from cartierv.cli import parse_polynomial
from cartierv.errors import ExponentOverflowError, RankMismatchError, RingMismatchError
from cartierv.field_poly import Poly, Ring
from cartierv.groebner import (
    GREVLEX,
    LEX,
    FreeSubmodule,
    QuotientPresentation,
    TermOrder,
    _BlockOrder,
    _Code,
    eliminate,
    full_module,
    ideal,
    preimage,
    syzygies,
    zero_module,
)
from conftest import (
    colon_by_elimination,
    intersect_by_elimination,
    random_poly,
    reference_key,
    total_degree,
)


# -- independent oracles -------------------------------------------------------


def sympy_reduced_gb(ring: Ring, polys, order="grevlex"):
    """Reduced Groebner basis via sympy, converted back to Poly set."""
    import sympy

    syms = sympy.symbols(ring.names)
    if ring.n == 1:
        syms = (syms,)

    def to_sympy(f: Poly):
        expr = sympy.Integer(0)
        for m, c in f.terms.items():
            t = sympy.Integer(c)
            for s, e in zip(syms, m):
                t *= s**e
            expr += t
        return expr

    gb = sympy.groebner([to_sympy(f) for f in polys if not f.is_zero()],
                        *syms, modulus=ring.p, order=order)
    out = []
    for expr in gb.exprs:
        poly = sympy.Poly(expr, *syms, modulus=ring.p)
        f = ring.zero()
        for mon, coeff in poly.terms():
            f = f + ring.monomial(tuple(mon), int(coeff) % ring.p)
        out.append(f)
    return out


def span_membership_oracle(ring: Ring, gens, target: Poly, max_deg: int) -> bool:
    """Degree-bounded brute force: is target an R-combination of gens with all
    products of degree <= max_deg?  Plain F_p Gaussian elimination via numpy."""
    import numpy as np

    monomials = [m for m in product(range(max_deg + 1), repeat=ring.n) if sum(m) <= max_deg]
    index = {m: i for i, m in enumerate(monomials)}
    rows = []
    for g in gens:
        if g.is_zero():
            continue
        d = total_degree(g)
        for mult in monomials:
            if sum(mult) + d > max_deg:
                continue
            h = g.mul_monomial(mult)
            row = np.zeros(len(monomials), dtype=np.int64)
            for m, c in h.terms.items():
                row[index[m]] = c
            rows.append(row)
    tgt = np.zeros(len(monomials), dtype=np.int64)
    for m, c in target.terms.items():
        if m not in index:
            return False
        tgt[index[m]] = c
    if not rows:
        return not target.terms
    A = np.array(rows) % ring.p
    b = tgt % ring.p
    # eliminate: reduce b against the row space of A
    A = A.copy()
    nrows, ncols = A.shape
    pivot_row = 0
    for col in range(ncols):
        piv = None
        for r in range(pivot_row, nrows):
            if A[r, col] % ring.p:
                piv = r
                break
        if piv is None:
            continue
        A[[pivot_row, piv]] = A[[piv, pivot_row]]
        inv = pow(int(A[pivot_row, col]), ring.p - 2, ring.p)
        A[pivot_row] = (A[pivot_row] * inv) % ring.p
        mask = (A[:, col] % ring.p) != 0
        mask[pivot_row] = False
        A[mask] = (A[mask] - np.outer(A[mask, col], A[pivot_row])) % ring.p
        if b[col] % ring.p:
            b = (b - b[col] * A[pivot_row]) % ring.p
        pivot_row += 1
        if pivot_row == nrows:
            break
    # after full sweep, use remaining pivots for any untouched coordinates
    for col in range(ncols):
        if b[col] % ring.p:
            hit = None
            for r in range(nrows):
                row = A[r] % ring.p
                nz = np.nonzero(row)[0]
                if len(nz) and nz[0] == col:
                    hit = r
                    break
            if hit is None:
                return False
            b = (b - b[col] * A[hit]) % ring.p
    return not b.any()


# -- polynomial-side tests ----------------------------------------------------


def test_reduced_gb_matches_sympy_random():
    rng = random.Random(101)
    for p in (2, 3, 5):
        R = Ring(p, ("x", "y"))
        for _ in range(12):
            gens = [random_poly(rng, R, 3, max_terms=3) for _ in range(rng.randint(1, 3))]
            I = ideal(R, *gens)
            mine = sorted(v[0].to_str() for v in I.groebner())
            ref = sorted(f.to_str() for f in sympy_reduced_gb(R, gens))
            assert mine == ref


def test_reduced_gb_matches_sympy_lex():
    R = Ring(3, ("x", "y"))
    x, y = R.gens()
    I = ideal(R, y**2 - x**3, x * y)
    mine = sorted(v[0].to_str() for v in I.groebner(LEX))
    ref = sorted(f.to_str() for f in sympy_reduced_gb(R, [y**2 - x**3, x * y], order="lex"))
    assert mine == ref


def _module_lex_oracle(ring: Ring, rank: int, gens):
    """LEX module basis (component 0 strongest) via sympy: encode v as
    sum v_i e_i over (e_0, .., e_{r-1}, x, y) and keep the e-degree-1 part of
    the reduced lex basis of the encoded generators plus all e_i e_j."""
    names = tuple(f"e{i}" for i in range(rank))
    big = Ring(ring.p, names + ring.names)
    e = big.gens()[:rank]
    polys = [sum((f.map_ring(big) * e[i] for i, f in enumerate(v)), big.zero()) for v in gens]
    polys += [e[i] * e[j] for i in range(rank) for j in range(i, rank)]
    out = []
    for g in sympy_reduced_gb(big, polys, order="lex"):
        comps = [{} for _ in range(rank)]
        for m, c in g.terms.items():
            if sum(m[:rank]) != 1:
                break
            comps[m[:rank].index(1)][m[rank:]] = c
        else:
            out.append(tuple(Poly(ring, t).to_str() for t in comps))
    return sorted(out)


def test_module_lex_basis_matches_sympy_encoding():
    rng = random.Random(29)
    for p in (2, 3, 5):
        R = Ring(p, ("x", "y"))
        for rank in (2, 3):
            for _ in range(4):
                gens = [tuple(random_poly(rng, R, 2, max_terms=2) for _ in range(rank))
                        for _ in range(rank + 1)]
                W = FreeSubmodule(R, rank, gens)
                mine = sorted(tuple(f.to_str() for f in v) for v in W.groebner(LEX))
                assert mine == _module_lex_oracle(R, rank, W.gens)


def _cyclic(R: Ring) -> list[Poly]:
    xs, n = R.gens(), R.n
    polys = []
    for k in range(1, n):
        f = R.zero()
        for i in range(n):
            term = R.one()
            for j in range(k):
                term = term * xs[(i + j) % n]
            f = f + term
        polys.append(f)
    last = R.one()
    for x in xs:
        last = last * x
    return polys + [last - R.one()]


def _katsura(R: Ring) -> list[Poly]:
    n = R.n - 1

    def u(i: int) -> Poly:
        return R.gens()[abs(i)] if abs(i) <= n else R.zero()

    polys = [sum((u(i) for i in range(-n, n + 1)), R.zero()) - R.one()]
    for m in range(n):
        polys.append(sum((u(i) * u(m - i) for i in range(-n, n + 1)), R.zero()) - u(m))
    return polys


def test_reduced_gb_matches_sympy_where_pair_criteria_fire():
    """Ideals whose bases drop many pairs by the chain criterion."""
    cases = [_cyclic(Ring(101, ("a", "b", "c", "d"))), _katsura(Ring(101, ("a", "b", "c", "d")))]
    rng = random.Random(61)
    quad = [m for m in product(range(3), repeat=4) if sum(m) <= 2]
    for p in (5, 7, 5, 7):
        R = Ring(p, ("x", "y", "z", "w"))
        cases.append([sum((R.monomial(m, rng.randint(1, p - 1)) for m in quad), R.zero())
                      for _ in range(4)])
    for gens in cases:
        R = gens[0].ring
        mine = sorted(v[0].to_str() for v in ideal(R, *gens).groebner())
        assert mine == sorted(f.to_str() for f in sympy_reduced_gb(R, gens))


def test_gb_is_reduced_and_idempotent():
    rng = random.Random(7)
    R = Ring(3, ("x", "y", "z"))
    for _ in range(8):
        gens = [random_poly(rng, R, 2, max_terms=3) for _ in range(2)]
        I = ideal(R, *gens)
        gb = I.groebner()
        J = FreeSubmodule(R, 1, gb)
        assert J.groebner() == gb
        # no term of one element divisible by the lead of another
        for i, v in enumerate(gb):
            for j, w in enumerate(gb):
                if i == j:
                    continue
                lead, _ = w[0].leading()
                for m in v[0].terms:
                    assert not all(a >= b for a, b in zip(m, lead))


def test_minimal_gens_keeps_its_basis(monkeypatch):
    # the reduced basis comes along, so comparing the result runs no Buchberger
    R = Ring(5, ("x", "y"))
    x, y = R.gens()
    for S in (ideal(R, x ** 2 * y + y ** 3, x * y ** 2 - x, x ** 3),
              FreeSubmodule(R, 2, [(x, y), (y * y, x * y + x), (x * x, R.zero())])):
        basis = S.groebner()
        small = S.minimal_gens()
        runs = []
        real = groebner._buchberger
        monkeypatch.setattr(groebner, "_buchberger", lambda *a: runs.append(a) or real(*a))
        assert small == S and S.contains(small) and small.contains(S)
        assert small.gens == basis and small.groebner() == basis
        assert runs == []
        monkeypatch.undo()
        assert FreeSubmodule(R, S.rank, basis).groebner() == basis


def test_membership_against_linear_oracle():
    rng = random.Random(23)
    for p in (2, 3):
        R = Ring(p, ("x", "y"))
        for _ in range(10):
            gens = [random_poly(rng, R, 3, max_terms=3, nonzero=True) for _ in range(2)]
            I = ideal(R, *gens)
            for _ in range(4):
                if rng.random() < 0.5:
                    probe = random_poly(rng, R, 4)
                else:
                    probe = gens[0] * random_poly(rng, R, 3) + gens[1] * random_poly(rng, R, 2)
                got = I.contains_vector((probe,))
                want = span_membership_oracle(R, gens, probe, 12)
                assert got == want, f"p={p} gens={gens} probe={probe}"


def test_normal_form_properties():
    rng = random.Random(31)
    R = Ring(3, ("x", "y"))
    gens = [random_poly(rng, R, 3, max_terms=3, nonzero=True) for _ in range(2)]
    I = ideal(R, *gens)
    for _ in range(20):
        f = random_poly(rng, R, 5)
        nf = I.normal_form((f,))[0]
        assert I.contains_vector((f - nf,))
        assert I.normal_form((nf,))[0] == nf
    for g in gens:
        assert I.normal_form((g,))[0].is_zero()


def test_equality_of_presentations():
    R = Ring(5, ("x", "y"))
    x, y = R.gens()
    assert ideal(R, x, y) == ideal(R, x + y, y)
    assert ideal(R, x * y + x) == ideal(R, (x * y + x).scale(3))
    assert ideal(R, x) != ideal(R, y)
    assert zero_module(R, 1).is_zero()
    assert ideal(R, R.zero()).is_zero()


def test_equal_submodules_hash_equal():
    R = Ring(5, ("x", "y"))
    x, y = R.gens()
    zero = R.zero()
    A = FreeSubmodule(R, 2, [(x, y), (y, zero)])
    B = FreeSubmodule(R, 2, [(x + y, y), (y.scale(3), zero), (x * y, y * y)])
    assert A.gens != B.gens
    assert A == B and hash(A) == hash(B)
    memo = {(1, A): "a"}
    assert memo[1, B] == "a" and (1, B) in memo and (2, B) not in memo
    assert {A: 0, B: 1} == {A: 1}
    assert A != FreeSubmodule(R, 2, [(x, y)])
    # one reduced basis {(1)} at rank 1 and {(1, 0)} at rank 2, or in another ring
    assert ideal(R, R.one()) != FreeSubmodule(R, 2, [(R.one(), zero)])
    S = Ring(7, ("x", "y"))
    assert ideal(R, x) != ideal(S, S.var("x"))
    assert full_module(R, 1) != full_module(Ring(5, ("x", "z")), 1)


def test_eliminate_known():
    R = Ring(3, ("x", "y"))
    x, y = R.gens()
    I = ideal(R, y**2 - x**3, y * x)
    E = eliminate(I, {1})
    assert E == ideal(R, x**4)
    # independent confirmation of the frozen value
    assert span_membership_oracle(R, [y**2 - x**3, y * x], x**4, 10)
    assert not span_membership_oracle(R, [y**2 - x**3, y * x], x**3, 10)
    # eliminating nothing is the identity
    assert eliminate(I, set()) is I
    assert eliminate(ideal(R, x), {1}) == ideal(R, x)


def test_saturate_known():
    R = Ring(3, ("x", "y"))
    x, y = R.gens()
    assert ideal(R, x * x * y + y * y).saturate_element(y) == ideal(R, x * x + y)
    assert ideal(R, x ** 3).saturate_element(x) == ideal(R, R.one())
    assert ideal(R, x * y).saturate_element(x + R.one()) == ideal(R, x * y)


def _saturate_by_iterated_colon(S: FreeSubmodule, h: Poly) -> FreeSubmodule:
    cur = S
    while True:
        nxt = cur.colon_element(h)
        if nxt == cur:
            return cur
        cur = nxt


def test_module_saturation_agrees_with_ideal_path():
    """saturate_element eliminates at every rank; the iterated colon is the
    reference, for ideals and for submodules of rank 2 and 3."""
    rng = random.Random(43)
    R = Ring(3, ("x", "y"))
    for _ in range(6):
        gens = [random_poly(rng, R, 3, max_terms=2, nonzero=True) for _ in range(2)]
        h = random_poly(rng, R, 2, max_terms=2, nonzero=True)
        I = ideal(R, *gens)
        assert I.saturate_element(h) == _saturate_by_iterated_colon(I, h)
    grew = 0
    for p, rank in ((2, 2), (3, 2), (5, 2), (2, 3), (3, 3)):
        R = Ring(p, ("x", "y"))
        x, y = R.gens()
        for _ in range(4):
            h = rng.choice([x, y, x + y, x * y])
            gens = [tuple(random_poly(rng, R, 2, max_terms=2) for _ in range(rank))
                    for _ in range(rank)]
            # h^2 v in S puts v in the saturation, so it usually grows
            v = tuple(random_poly(rng, R, 1, max_terms=2) for _ in range(rank))
            gens.append(tuple(h * h * c for c in v))
            S = FreeSubmodule(R, rank, gens)
            sat = S.saturate_element(h)
            assert sat == _saturate_by_iterated_colon(S, h)
            assert sat.contains(S) and sat.contains_vector(v)
            grew += not S.contains(sat)
    assert grew >= 10


def test_intersect_known_and_random():
    R = Ring(3, ("x", "y"))
    x, y = R.gens()
    assert ideal(R, x).intersect(ideal(R, y)) == ideal(R, x * y)
    rng = random.Random(5)
    for _ in range(6):
        f = random_poly(rng, R, 2, max_terms=2, nonzero=True)
        g = random_poly(rng, R, 2, max_terms=2, nonzero=True)
        meet = ideal(R, f).intersect(ideal(R, g))
        assert ideal(R, f).contains(meet)
        assert ideal(R, g).contains(meet)
        assert meet.contains_vector((f * g,))


def test_colon_element():
    R = Ring(3, ("x", "y"))
    x, y = R.gens()
    assert ideal(R, x**2).colon_element(x) == ideal(R, x)
    assert ideal(R, x * y).colon_element(x) == ideal(R, y)
    W = FreeSubmodule(R, 2, [(x**2, R.zero()), (R.zero(), x * y)])
    C = W.colon_element(x)
    assert C == FreeSubmodule(R, 2, [(x, R.zero()), (R.zero(), y)])


def test_intersect_and_colon_agree_with_elimination():
    # two generators each: at rank 3 with three, the reference alone can take
    # 50 s (the swelling of ROADMAP item 4); a planted a*z in W and b*z in V
    # keeps most intersections nonzero
    rng = random.Random(29)
    met = grew = 0
    for p in (2, 3, 5, 7):
        R = Ring(p, ("x", "y"))
        for rank in (1, 2, 3):
            for _ in range(3):
                vec = lambda: tuple(random_poly(rng, R, 2, max_terms=3) for _ in range(rank))  # noqa: E731
                z = vec()
                a, b, h = (random_poly(rng, R, 1, max_terms=2, nonzero=True) for _ in range(3))
                W = FreeSubmodule(R, rank, [vec(), tuple(a * c for c in z)])
                V = FreeSubmodule(R, rank, [vec(), tuple(b * c for c in z)])
                meet = W.intersect(V)
                assert meet == intersect_by_elimination(W, V)
                colon = V.colon_element(h)
                assert colon == colon_by_elimination(V, h)
                met += not meet.is_zero()
                grew += not V.contains(colon)
    assert met >= 20 and grew >= 5


RANK3_CASES = (
    # ROADMAP item 4: the t-elimination took 3-7 s for 7 generators
    ((("x^3+5*y", "6*x^2+x+2", "x^3+x^2*y"), ("0", "5*x*y^2+6*y^3", "0"),
      ("5*x^3+6*x^2", "0", "2*x^3")),
     (("5*x^3+4*x^2+3*y", "3*x^3+6*x^2*y+5*y^3", "5*x^3"), ("3*y^3", "6*x^3+3*x^2*y+6*x^2", "0")),
     7),
    # a random draw where the t-elimination took 50 s for 13 generators
    ((("2*x*y", "5*x^2+6*x*y+6", "0"), ("1", "6*x^2+3*y^2", "3*x^2+3*x+5*y"),
      ("4*x^2", "2*x^2", "2*x^2")),
     (("x^2+4*y^2", "y", "6*y"), ("0", "y^2", "6*y^2"), ("4*x^2+3*x*y", "2*x+4*y", "5*x*y")),
     13),
)


@pytest.mark.parametrize("w_rows, v_rows, size", RANK3_CASES)
def test_rank3_intersection_is_symmetric_and_inside_both(w_rows, v_rows, size):
    R = Ring(7, ("x", "y"))
    W, V = (FreeSubmodule(R, 3, [tuple(parse_polynomial(e, R) for e in row) for row in rows])
            for rows in (w_rows, v_rows))
    meet = W.intersect(V)
    assert meet == V.intersect(W)
    assert W.contains(meet) and V.contains(meet)
    assert len(meet.groebner()) == size


def test_module_groebner_and_pot_order():
    R = Ring(3, ("x", "y"))
    x, y = R.gens()
    W = FreeSubmodule(R, 2, [(x, y), (R.zero(), x * y)])
    assert W.contains_vector((x * y, y * y + x * y))
    assert not W.contains_vector((R.one(), R.zero()))
    F = full_module(R, 2)
    assert F.contains(W)
    nf = W.normal_form((x * y, y * y))
    assert W.contains_vector((x * y - nf[0], y * y - nf[1]))


def test_syzygies_koszul():
    R = Ring(3, ("x", "y"))
    x, y = R.gens()
    S = syzygies(R, 1, [(x,), (y,)])
    assert S.rank == 2
    # Koszul relation (y, -x) spans
    assert S == FreeSubmodule(R, 2, [(y, -x)])


def test_syzygies_annihilate_random():
    rng = random.Random(17)
    R = Ring(3, ("x", "y"))
    for _ in range(5):
        vecs = [(random_poly(rng, R, 2), random_poly(rng, R, 2)) for _ in range(3)]
        S = syzygies(R, 2, vecs)
        for a in S.gens:
            acc0 = R.zero()
            acc1 = R.zero()
            for coef, v in zip(a, vecs):
                acc0 = acc0 + coef * v[0]
                acc1 = acc1 + coef * v[1]
            assert acc0.is_zero() and acc1.is_zero()


def test_preimage():
    R = Ring(3, ("x",))
    x = R.var("x")
    # multiplication by x into (x^2): preimage is (x)
    P = preimage(R, 1, [(x,)], ideal(R, x**2))
    assert P == ideal(R, x)
    # map R^2 -> R, (a,b) -> a*x + b*x^2, preimage of (x^3)
    P2 = preimage(R, 1, [(x,), (x**2,)], ideal(R, x**3))
    assert P2.contains_vector((x**2, R.zero()))
    assert P2.contains_vector((x, -R.one()))
    assert not P2.contains_vector((R.one(), R.zero()))


def test_quotient_presentation_checks():
    R = Ring(3, ("x",))
    x = R.var("x")
    W = ideal(R, x)
    N = ideal(R, x**2)
    QP = QuotientPresentation(W, N)
    assert not QP.is_zero_module()
    assert QP.N.contains_vector((x**2,))
    assert not QP.N.contains_vector((x,))
    with pytest.raises(ValueError):
        QuotientPresentation(N, W)
    assert QuotientPresentation(W, W).is_zero_module()


def test_rank_checks():
    R = Ring(3, ("x",))
    x = R.var("x")
    W = FreeSubmodule(R, 2, [(x, x)])
    with pytest.raises(RankMismatchError):
        W.normal_form((x,))
    with pytest.raises(RankMismatchError, match="vector of length 1, rank 2"):
        W.contains_vector((x,))
    with pytest.raises(RankMismatchError, match="rank 2 vs 1"):
        W.contains(ideal(R, x))
    with pytest.raises(RingMismatchError, match=r"F_3\[x\] vs F_5\[x\]"):
        W.contains(FreeSubmodule(Ring(5, ("x",)), 2, []))
    with pytest.raises(RankMismatchError):
        FreeSubmodule(R, 2, [(x,)])


def test_zero_variable_ring_modules():
    R = Ring(3, ())
    one = R.one()
    two = R.constant(2)
    W = FreeSubmodule(R, 2, [(one, two)])
    assert W.contains_vector((two, one))
    assert not W.contains_vector((one, one))
    F = full_module(R, 2)
    assert F.contains(W) and not W.contains(F)


# -- packed terms -------------------------------------------------------------

BIG = 2**63 - 1  # the largest exponent a packed term holds


def _code_cases(rng):
    """(n, rank, order) for n = 1..6 and rank 1..3 under grevlex, lex,
    elimination and block orders."""
    for n in range(1, 7):
        for rank in (1, 2, 3):
            elim = rng.sample(range(n), rng.randint(1, n))
            yield from ((n, rank, order) for order in (
                GREVLEX, LEX, TermOrder("grevlex", elim), TermOrder("lex", elim),
                _BlockOrder(rng.randint(1, rank))))


def _exponent(rng, top=BIG):
    """Mostly small, sometimes near top, where a carry or a borrow between
    fields would show."""
    return rng.choice((0, 0, 1, 1, 2, 3, 5, top // 2, top - 1, top))


def _term(rng, n, rank, top=BIG):
    return rng.randrange(rank), tuple(_exponent(rng, top) for _ in range(n))


def test_packed_order_matches_the_reference_key():
    rng = random.Random(71)
    for n, rank, order in _code_cases(rng):
        code = _Code(n, rank, order)
        terms = list({_term(rng, n, rank) for _ in range(40)})
        # many terms share a degree, a component or a block, so ties in the
        # leading fields are common and the later fields decide
        terms += [(c, m[::-1]) for c, m in terms[:10]] + [(rank - 1 - c, m) for c, m in terms[:10]]
        terms = list(set(terms))
        by_code = sorted(terms, key=lambda t: code.encode(*t), reverse=True)
        assert by_code == sorted(terms, key=lambda t: reference_key(order, t)), (n, rank, order)
        assert len({code.encode(*t) for t in terms}) == len(terms)


def test_packed_product_adds_codes():
    rng = random.Random(73)
    half = BIG // 2  # two exponents up to half sum to at most BIG
    for n, rank, order in _code_cases(rng):
        code = _Code(n, rank, order)
        one = code.encode(0, (0,) * n)
        for _ in range(30):
            c, m = _term(rng, n, rank, half)
            _, q = _term(rng, n, 1, half)
            mq = tuple(a + b for a, b in zip(m, q))
            assert code.encode(c, mq) == code.encode(c, m) + code.encode(0, q) - one, order


def test_packed_divisibility_is_one_mask_test():
    rng = random.Random(79)
    seen = {True: 0, False: 0}
    for n, rank, order in _code_cases(rng):
        code = _Code(n, rank, order)
        for _ in range(30):
            b = _term(rng, n, rank)
            kind = rng.randrange(3)
            if kind == 0:  # a multiple of b, in its component or another
                comp = b[0] if rng.random() < 0.7 else rng.randrange(rank)
                t = (comp, tuple(e + rng.randint(0, BIG - e) * rng.randint(0, 1) for e in b[1]))
            elif kind == 1:  # one exponent one short of a multiple
                i = rng.randrange(n)
                t = (b[0], tuple(e - (j == i and e > 0) for j, e in enumerate(b[1])))
            else:
                t = _term(rng, n, rank)
            want = t[0] == b[0] and all(x <= y for x, y in zip(b[1], t[1]))
            assert code.divides(code.encode(*b), code.encode(*t)) == want, (order, b, t)
            seen[want] += 1
    assert min(seen.values()) >= 200


def test_packed_decode_inverts_encode():
    rng = random.Random(83)
    for n, rank, order in _code_cases(rng):
        code = _Code(n, rank, order)
        for _ in range(20):
            t = _term(rng, n, rank)
            u = code.encode(*t)
            assert code.decode(u) == t
            # a code of the same layout that has not seen t reads it off the bits
            assert _Code(n, rank, order).decode(u) == t


def test_an_exponent_past_the_packed_range_is_refused():
    R = Ring(5, ("x", "y"))
    x, y = R.gens()
    assert ideal(R, R.monomial((BIG, 1)) - y).groebner()
    for f in (R.monomial((BIG + 1, 0)), x + R.monomial((0, 2**64))):
        with pytest.raises(ExponentOverflowError, match="above 2\\^63 - 1"):
            ideal(R, f).groebner()
        with pytest.raises(ExponentOverflowError):
            ideal(R, x).contains_vector((f,))


def test_a_product_past_the_packed_range_is_refused():
    R = Ring(5, ("x", "y"))
    x, y = R.gens()
    a = 2**62
    # in a reduction: x^a y^a -> y^a * y^a by the lead x^a of x^a - y^a
    I = ideal(R, R.monomial((a, 0)) - R.monomial((0, a)))
    assert I.contains_vector((R.monomial((a, a - 1)) - R.monomial((0, 2 * a - 1)),))
    with pytest.raises(ExponentOverflowError, match=f"exponent {2 * a} is above"):
        I.contains_vector((R.monomial((a, a)),))
    # in an S-vector: lcm(x^2, x y^a) / x^2 = y^a times the tail y^a of x^2 - y^a
    J = ideal(R, x * x - R.monomial((0, a)), x * R.monomial((0, a)))
    with pytest.raises(ExponentOverflowError, match=f"exponent {2 * a} is above"):
        J.groebner(LEX)
    # in a product with a polynomial: x^a (x^(a - 1) + y) fits, x^a (x^a + y) does not
    W = FreeSubmodule(R, 2, [(R.monomial((a, 0)), y)])
    assert W.scaled(R.monomial((a - 1, 0))).gens == (
        (R.monomial((2 * a - 1, 0)), R.monomial((a - 1, 1))),)
    for S in (W, W.minimal_gens()):
        with pytest.raises(ExponentOverflowError, match=f"exponent {2 * a} is above"):
            S.scaled(R.monomial((a, 0)) + y)


def test_packed_built_submodules_decode_their_generators():
    """A sum, a product, a root and a minimal generating set hold packed
    generators; `gens` decodes them into what the Poly forms would give."""
    R = Ring(5, ("x", "y"))
    x, y = R.gens()
    S = FreeSubmodule(R, 2, [(x, y), (y * y, x * y + x), (x * x, R.zero())])
    T = FreeSubmodule(R, 2, [(y, x), (x, y)])
    assert S.add(T).gens == S.gens + ((y, x),)
    assert S.scaled(x + y).gens == tuple(tuple((x + y) * f for f in v) for v in S.gens)
    assert S.scaled(R.zero()).is_zero() and S.scaled(R.zero()).gens == ()
    for sub in (S.minimal_gens(), S.level1_root(), S.scaled(x ** 6 + y).level1_root(),
                S.add(T).minimal_gens()):
        assert sub.gens == sub.groebner()
    with pytest.raises(RingMismatchError):
        S.scaled(Ring(5, ("x",)).one())
