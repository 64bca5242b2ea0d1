from __future__ import annotations

import random

import pytest

from cartierv.errors import NotPrimeError, RingMismatchError
from cartierv.field_poly import (
    PrimeField,
    Ring,
    cartier_trace,
    frobenius_digits,
    grevlex_key,
)
from conftest import random_poly, recompose, twisted_power


def test_prime_field_rejects_non_primes():
    for bad in (0, 1, 4, 9, 15, 2**20 + 7 * 0 + 1):
        with pytest.raises(NotPrimeError):
            PrimeField(bad)
    with pytest.raises(NotPrimeError):
        PrimeField(2**21 - 9)  # prime but above the cap? ensure cap enforced
    assert PrimeField(2).p == 2
    assert PrimeField(7).inv(3) == 5


def test_ring_basics():
    R = Ring(3, ("x", "y"))
    x, y = R.gens()
    assert (x + y).to_str() == "x + y"
    assert (x * x * y).to_str() == "x^2*y"
    assert R.constant(5).to_str() == "2"
    assert R.zero().to_str() == "0"
    assert (x.scale(2) + R.one()).to_str() == "2*x + 1"
    with pytest.raises(ValueError):
        Ring(3, ("x", "x"))
    with pytest.raises(RingMismatchError):
        x + Ring(5, ("x", "y")).var("x")


def test_arithmetic_random_identities():
    rng = random.Random(11)
    for p in (2, 3, 5):
        R = Ring(p, ("x", "y"))
        for _ in range(40):
            f = random_poly(rng, R, 4)
            g = random_poly(rng, R, 4)
            h = random_poly(rng, R, 4)
            assert (f + g) * h == f * h + g * h
            assert f * g == g * f
            assert f - f == R.zero()
            assert f * R.one() == f


def test_pow_and_frobenius_power():
    R = Ring(3, ("x", "y"))
    x, y = R.gens()
    f = x + y.scale(2)
    assert f**3 == f * f * f
    assert f**3 == f.frobenius_power(1)
    assert f**9 == f.frobenius_power(2)
    assert (x**4).terms == {(4, 0): 1}
    assert f**0 == R.one()


def test_div_exact():
    R = Ring(5, ("x", "y"))
    x, y = R.gens()
    f = (x + y) * (x * x + y.scale(3))
    assert f.div_exact(x + y) == x * x + y.scale(3)
    assert f.div_exact(x + y) is not None
    assert f.div_exact(x + y.scale(2)) is None
    assert R.zero().div_exact(x) == R.zero()


def test_leading_grevlex():
    R = Ring(3, ("x", "y"))
    x, y = R.gens()
    f = x * y + y**2 + x
    # grevlex with x > y: x*y and y^2 have degree 2, x*y wins
    assert f.leading() == ((1, 1), 1)
    assert grevlex_key((1, 0)) > grevlex_key((0, 1))


def test_cartier_trace_known_values():
    R = Ring(3, ("x",))
    x = R.var("x")
    # C(2x^2 + x^3) = 2 over F_3
    f = (x**2).scale(2) + x**3
    assert cartier_trace(f, 1) == R.constant(2)
    assert cartier_trace(x**2, 1) == R.one()
    assert cartier_trace(x**5, 1) == x
    assert cartier_trace(x**3, 1) == R.zero()
    assert cartier_trace(R.one(), 1) == R.zero()


def test_frobenius_digits_known():
    R = Ring(3, ("x",))
    x = R.var("x")
    f = (x**2).scale(2) + x**3
    d = frobenius_digits(f, 1)
    assert d[(2,)] == R.constant(2)
    assert d[(0,)] == x
    assert set(d) == {(2,), (0,)}


def test_frobenius_digits_recompose_random():
    rng = random.Random(7)
    for p in (2, 3, 5):
        R = Ring(p, ("x", "y"))
        for e in (1, 2):
            for _ in range(25):
                f = random_poly(rng, R, 9)
                d = frobenius_digits(f, e)
                assert recompose(d, e, R) == f
                q = p**e
                for a in d:
                    assert all(0 <= ai < q for ai in a)


def test_cartier_trace_semilinearity():
    rng = random.Random(3)
    for p in (2, 3, 5):
        R = Ring(p, ("x", "y"))
        for e in (1, 2):
            for _ in range(25):
                f = random_poly(rng, R, 6)
                g = random_poly(rng, R, 3)
                lhs = cartier_trace(g.frobenius_power(e) * f, e)
                assert lhs == g * cartier_trace(f, e)
                # surjectivity witness: C_e(x^{(q-1)1} g^{q}) = g
                q = p**e
                top = R.monomial((q - 1, q - 1))
                assert cartier_trace(top * g.frobenius_power(e), e) == g


def test_trace_tower():
    rng = random.Random(5)
    R = Ring(3, ("x", "y"))
    for _ in range(20):
        f = random_poly(rng, R, 14)
        assert cartier_trace(cartier_trace(f, 1), 1) == cartier_trace(f, 2)


def test_twisted_power_known_values():
    R = Ring(3, ("x",))
    x = R.var("x")
    assert twisted_power(x, x**14, 2) == R.zero()
    assert twisted_power(x, x**13, 2) == x
    # untwisted: matches the plain trace
    rng = random.Random(9)
    for _ in range(10):
        f = random_poly(rng, R, 12)
        assert twisted_power(R.one(), f, 2) == cartier_trace(f, 2)


def test_twisted_power_closed_form():
    rng = random.Random(13)
    for p in (2, 3, 5):
        R = Ring(p, ("x", "y"))
        for e in (1, 2, 3):
            k = (p**e - 1) // (p - 1)
            for _ in range(10):
                u = random_poly(rng, R, 2, max_terms=2, nonzero=True)
                f = random_poly(rng, R, 8)
                assert twisted_power(u, f, e) == cartier_trace(u**k * f, e)


def test_zero_variable_ring():
    R = Ring(3, ())
    one = R.one()
    assert one.to_str() == "1"
    assert cartier_trace(R.constant(2), 1) == R.constant(2)
    assert cartier_trace(R.constant(2), 3) == R.constant(2)
    d = frobenius_digits(R.constant(2), 1)
    assert d == {(): R.constant(2)}


def test_substitute_and_map_ring():
    R = Ring(3, ("x", "s"))
    x, s = R.gens()
    f = s**2 + x * s + R.one()
    g = f.substitute("s", x**2)
    assert g == x**4 + x**3 + R.one()
    T = Ring(3, ("x",))
    assert g.map_ring(T) == T.var("x") ** 4 + T.var("x") ** 3 + T.one()
    with pytest.raises(ValueError):
        f.map_ring(T)  # s has no image


def test_coeffs_in_var():
    R = Ring(3, ("x", "y"))
    x, y = R.gens()
    f = y**2 + x * y + x**2
    cs = f.coeffs_in_var(1)
    assert cs[2] == R.one()
    assert cs[1] == x
    assert cs[0] == x**2
    assert f.degree_in_var(1) == 2


def test_to_str_canonical_order():
    R = Ring(5, ("x", "y"))
    x, y = R.gens()
    f = y + x**2 + x * y.scale(3)
    # descending lex on exponent tuples: (2,0) > (1,1) > (0,1)
    assert f.to_str() == "x^2 + 3*x*y + y"
