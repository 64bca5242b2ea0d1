"""Helpers shared by the test modules: random polynomials, and reference
forms the tests compare the library against."""

import time
from contextlib import contextmanager
from dataclasses import replace

from cartierv.field_poly import cartier_trace
from cartierv.groebner import FreeSubmodule, eliminate, ideal, unit_vector
from cartierv.suites import random_poly  # noqa: F401  (shared by the test modules)
from cartierv.testmod import tau


@contextmanager
def budget(seconds):
    """Fails the test when the block takes `seconds` of wall-clock time or more."""
    start = time.monotonic()
    yield
    elapsed = time.monotonic() - start
    assert elapsed < seconds, f"budget {seconds}s exceeded: {elapsed:.1f}s"


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
    trace; the tests check the closed form and `apply_iter` against it."""
    v = f
    for _ in range(e):
        v = cartier_trace(u * v, 1)
    return v


def apply_iter(structure, v, e: int):
    """The structure applied e times to the vector v."""
    for _ in range(e):
        v = structure.apply(v)
    return v


def trace_surjective(ext) -> bool:
    """Is Tr: S -> base surjective?  True iff the trace values of the
    `FiniteExtension` generate the unit ideal."""
    I = ideal(ext.base, *ext.trace_values)
    return I.contains_vector((ext.base.one(),))


def verify_test_element(M, f, t, c) -> bool:
    """Necessary consistency check: c, c^2 and c*f must give the same tau."""
    base = tau(M, f, t, c).value
    for other in (c * c, c * f):
        if other.is_zero():
            return False
        if tau(M, f, t, other).value != base:
            return False
    return True


def replace_value(table, index: int, value):
    """Copy of a `FiltrationTable` with one stored value swapped out."""
    values = list(table.values)
    values[index] = value
    return replace(table, values=tuple(values))


def intersect_by_elimination(W, V):
    """W cap V by eliminating t from t*W + (1-t)*V over R[t] with the public
    `eliminate`: a route independent of the syzygies behind
    `FreeSubmodule.intersect`, kept as the reference for module relations."""
    ext = W.ring.extend("@t")
    t = ext.var("@t")
    gens = [tuple(t * f.map_ring(ext) for f in w) for w in W.gens]
    gens += [tuple((ext.one() - t) * f.map_ring(ext) for f in v) for v in V.gens]
    return eliminate(FreeSubmodule(ext, W.rank, gens), {ext.n - 1}).map_ring(W.ring)


def colon_by_elimination(N, h):
    """(N : h) = (N cap h*R^r) / h, the meet from `intersect_by_elimination`
    and the division exact."""
    hR = FreeSubmodule(N.ring, N.rank, [unit_vector(N.ring, N.rank, i, h) for i in range(N.rank)])
    meet = intersect_by_elimination(N, hR)
    quot = [tuple(f.div_exact(h) for f in v) for v in meet.gens]
    assert all(f is not None for v in quot for f in v), "meet not inside h*R^r"
    return FreeSubmodule(N.ring, N.rank, quot)


def reference_key(order, term) -> tuple:
    """Sort key of a term (component, monomial) under a `groebner` term order,
    as a tuple: a smaller key is a bigger term.  The tuple keys the packed
    codes of `groebner._Code` replaced, kept as their reference."""
    comp, mon = term
    if order.kind == "lex":
        kind = tuple(-e for e in mon)
    else:
        kind = (-sum(mon),) + mon[::-1]
    if not (order.elim or order.split):
        return (comp,) + kind
    block = sum(mon[i] for i in order.elim) + (comp < order.split)
    return (-block,) + kind[:1] + (comp,) + kind[1:]
