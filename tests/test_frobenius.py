from __future__ import annotations

import random
from itertools import product

import pytest

from cartierv.errors import LevelCapExceededError
from cartierv.field_poly import Ring, frobenius_digits
from cartierv.frobenius import (
    bracket_power,
    frobenius_root,
    level_cap,
    scaled_root,
)
from cartierv.groebner import FreeSubmodule, ideal, pack_matrix, twist_digits
from conftest import random_poly, total_degree


def brute_force_root(ring: Ring, gens, max_deg: int) -> FreeSubmodule:
    """Independent level-1 root: digits of *every* bounded element of the
    ideal, not just of the given generators."""
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
    digit_polys = []
    if rows:
        A = np.array(rows, dtype=np.int64) % ring.p
        # row reduce to get a basis of the bounded slice
        pivot = 0
        for col in range(A.shape[1]):
            r = None
            for i in range(pivot, A.shape[0]):
                if A[i, col]:
                    r = i
                    break
            if r is None:
                continue
            A[[pivot, r]] = A[[r, pivot]]
            A[pivot] = (A[pivot] * pow(int(A[pivot, col]), ring.p - 2, ring.p)) % ring.p
            mask = A[:, col] != 0
            mask[pivot] = False
            A[mask] = (A[mask] - np.outer(A[mask, col], A[pivot])) % ring.p
            pivot += 1
            if pivot == A.shape[0]:
                break
        for i in range(pivot):
            f = ring.zero()
            for j, m in enumerate(monomials):
                if A[i, j]:
                    f = f + ring.monomial(m, int(A[i, j]))
            if not f.is_zero():
                digit_polys.extend(frobenius_digits(f, 1).values())
    return ideal(ring, *digit_polys) if digit_polys else ideal(ring)


def test_bracket_power_known():
    R = Ring(2, ("x", "y"))
    x, y = R.gens()
    assert bracket_power(ideal(R, x + y), 1) == ideal(R, x**2 + y**2)
    assert bracket_power(ideal(R, x), 3) == ideal(R, x**8)
    I = ideal(R, x, y)
    assert bracket_power(I, 0) == I


def test_frobenius_root_known():
    R = Ring(3, ("x", "y"))
    x, y = R.gens()
    W = ideal(R, x**2 * y**5, x**7)
    assert frobenius_root(W, 1) == ideal(R, y, x**2)
    # triple: (x^2 y^5) alone -> digit (2,2) quotient (0,1) = y
    assert frobenius_root(ideal(R, x**2 * y**5), 1) == ideal(R, y)
    assert frobenius_root(ideal(R, R.one()), 2) == ideal(R, R.one())
    assert frobenius_root(ideal(R), 2).is_zero()


def test_root_against_brute_force_oracle():
    rng = random.Random(59)
    for p in (2, 3, 5):
        R = Ring(p, ("x", "y"))
        for _ in range(25):
            gens = [random_poly(rng, R, 3, max_terms=3, nonzero=True)
                    for _ in range(rng.randint(1, 2))]
            W = ideal(R, *gens)
            assert frobenius_root(W, 1) == brute_force_root(R, gens, 9)
            # scaled_root multiplies the packed generators before the split
            u = random_poly(rng, R, 1, max_terms=2, nonzero=True)
            f = random_poly(rng, R, 2, max_terms=2, nonzero=True)
            A, B = rng.randrange(p), rng.randrange(p)
            scaled = [(u ** A) * (f ** B) * g for g in gens]
            assert scaled_root(W, 1, u, A, f, B) == brute_force_root(
                R, scaled, max(map(total_degree, scaled))), p


def test_adjunction_random():
    rng = random.Random(61)
    for p in (2, 3):
        R = Ring(p, ("x", "y"))
        for _ in range(25):
            W = ideal(R, *[random_poly(rng, R, 4, max_terms=2, nonzero=True)
                           for _ in range(rng.randint(1, 2))])
            J = ideal(R, *[random_poly(rng, R, 2, max_terms=2, nonzero=True)
                           for _ in range(rng.randint(1, 2))])
            e = rng.randint(1, 2)
            lhs = bracket_power(J, e).contains(W)
            rhs = J.contains(frobenius_root(W, e))
            assert lhs == rhs


def test_root_minimality_witness():
    # W <= root(W)^{[p^e]} always holds
    rng = random.Random(67)
    R = Ring(3, ("x", "y"))
    for _ in range(10):
        W = ideal(R, random_poly(rng, R, 5, max_terms=3, nonzero=True))
        for e in (1, 2):
            J = frobenius_root(W, e)
            assert bracket_power(J, e).contains(W)


def test_tower_law():
    rng = random.Random(71)
    R = Ring(3, ("x", "y"))
    for _ in range(10):
        W = ideal(R, *[random_poly(rng, R, 6, max_terms=3) for _ in range(2)])
        assert frobenius_root(frobenius_root(W, 1), 1) == frobenius_root(W, 2)


def test_vector_digits_module_root():
    R = Ring(3, ("x",))
    x = R.var("x")
    v = (x**4, x**2)
    identity = pack_matrix(R, 2, ((R.one(), R.zero()), (R.zero(), R.one())))
    assert twist_digits(R, identity, v, (2, 1, 0)) == [(R.zero(), R.one()), (x, R.zero()),
                                                       (R.zero(), R.zero())]
    W = FreeSubmodule(R, 2, [v])
    J = frobenius_root(W, 1)
    assert J == FreeSubmodule(R, 2, [(x, R.zero()), (R.zero(), R.one())])


def test_scaled_root_matches_direct():
    rng = random.Random(73)
    for p in (2, 3):
        R = Ring(p, ("x", "y"))
        for _ in range(12):
            u = random_poly(rng, R, 1, max_terms=2, nonzero=True)
            f = random_poly(rng, R, 2, max_terms=2, nonzero=True)
            W = ideal(R, random_poly(rng, R, 2, max_terms=2, nonzero=True))
            A = rng.randint(0, 7)
            B = rng.randint(0, 7)
            e = rng.randint(1, 2)
            direct = frobenius_root(W.scaled((u**A) * (f**B)), e)
            assert scaled_root(W, e, u, A, f, B) == direct


def test_scaled_root_handles_huge_exponents():
    R = Ring(3, ("x",))
    x = R.var("x")
    # (x^{2*3^6+1})^{[1/3^6]} = (x^2)
    e = 6
    B = 2 * 3**e + 1
    assert scaled_root(ideal(R, R.one()), e, f=x, B=B) == ideal(R, x**2)


def test_level_cap_enforced():
    R = Ring(3, ("x",))
    W = ideal(R, R.var("x"))
    with pytest.raises(LevelCapExceededError):
        frobenius_root(W, 7)
    assert level_cap() == 6
    with pytest.raises(LevelCapExceededError):
        scaled_root(W, 7)
    with pytest.raises(ValueError):
        level_cap(0)
