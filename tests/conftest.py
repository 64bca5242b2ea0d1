"""Helpers shared by the test modules: random polynomials, and reference
forms the tests compare the library against."""

from dataclasses import replace

from cartierv.field_poly import cartier_trace
from cartierv.suites import random_poly  # noqa: F401  (shared by the test modules)


def total_degree(g) -> int:
    """Max total degree of a polynomial; -1 for zero."""
    return max((sum(m) for m in g.terms), default=-1)


def recompose(digits, e: int, ring):
    """sum_a digits[a]^{p^e} x^a: the polynomial whose level-e digits these are."""
    out = ring.zero()
    for a, g in digits.items():
        out = out + g.frobenius_power(e).mul_monomial(a)
    return out


def twisted_power(u, f, e: int):
    """e-fold composite of (C o u) applied to f.  Equals
    C_e(u^{(p^e-1)/(p-1)} f) by the telescoping of the twists through the
    trace; the tests check the closed form and `CartierStructure.apply_iter`
    against it."""
    v = f
    for _ in range(e):
        v = cartier_trace(u * v, 1)
    return v


def replace_value(table, index: int, value):
    """Copy of a `FiltrationTable` with one stored value swapped out."""
    values = list(table.values)
    values[index] = value
    return replace(table, values=tuple(values))
