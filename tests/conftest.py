"""Helpers shared by the test modules: random polynomials, and reference
forms the tests compare the library against."""

import heapq
import math
import signal
import time
from contextlib import contextmanager
from dataclasses import replace
from fractions import Fraction
from itertools import count, islice
from operator import itemgetter, le
from typing import Sequence

import pytest

from cartierv.cartier_mod import CartierStructure, kappa_span
from cartierv.errors import CartierError, RankMismatchError
from cartierv.field_poly import Monomial, Poly, Ring, cartier_trace
from cartierv.groebner import (
    FreeSubmodule,
    _Code,
    _Elem,
    _monic,
    _reduce,
    eliminate,
    ideal,
    unit_vector,
)
from cartierv.suites import random_poly  # noqa: F401  (shared by the test modules)
from cartierv.testmod import Pair, tau


@contextmanager
def budget(seconds):
    """Fails the test when the block takes `seconds` of wall-clock time or more.

    Where there is SIGALRM, a real-time timer raises at the deadline, so a
    block that never returns fails instead of hanging the suite; a timer armed
    before (an enclosing budget) is restored on exit with what is left of it.
    The assert after the block is the check where there is no SIGALRM."""
    start = time.monotonic()
    armed = hasattr(signal, "SIGALRM")
    expired = False
    if armed:
        def expire(signum, frame):
            nonlocal expired
            expired = True
            raise AssertionError(f"budget {seconds}s exceeded: interrupted at the deadline")

        handler = signal.signal(signal.SIGALRM, expire)
        outer, _ = signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        elapsed = time.monotonic() - start
        if armed:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, handler)
            if outer:
                # an outer deadline already passed fires at once
                signal.setitimer(signal.ITIMER_REAL, max(outer - elapsed, 1e-6))
    # a deadline that fired has failed the test already
    assert expired or elapsed < seconds, f"budget {seconds}s exceeded: {elapsed:.1f}s"


@pytest.fixture(autouse=True)
def deadline():
    """Every test runs under a budget of 30 s, more than ten times the slowest
    test's time, so a test that never ends fails instead of hanging the suite.
    The tighter budgets inside tests nest under it."""
    with budget(30):
        yield


def exponent_at(t: Fraction, p: int, e: int, convention: str = "ceil_pe") -> int:
    """The exponent of f at level e for t: ceil(t p^e), or ceil(t (p^e - 1))
    under ceil_pe_minus_1, never below 0."""
    scale = p ** e if convention == "ceil_pe" else p ** e - 1
    return max(0, math.ceil(t * scale))


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


def unsplit(ext, w, r: int):
    """Inverse of `FiniteExtension.split`: base^{d r} -> P^r."""
    if len(w) != ext.degree * r:
        raise RankMismatchError("unsplit length mismatch")
    out = [ext.P.zero()] * r
    for j in range(ext.degree):
        yj = ext.y_power(j)
        for i in range(r):
            out[i] = out[i] + w[j * r + i].map_ring(ext.P) * yj
    return tuple(out)


def semilinear_structure(ring, rank: int, action) -> CartierStructure:
    """Reconstruct the twist matrix of a p^{-1}-linear action: the reference
    for the closed-form twist of `pushforward_finite`.

    A p^{-1}-linear map psi is psi(v) = C(G v) with
    G = sum_a psi(x^{(p-1)(1,..,1)-a})^p x^a over digit monomials a; the
    result is verified against the action on every digit monomial.
    """
    p = ring.p
    top = tuple(p - 1 for _ in range(ring.n))
    rows = [[ring.zero() for _ in range(rank)] for _ in range(rank)]
    for j in range(rank):
        for a in ring.digit_monomials(1):
            comp = tuple(t - ai for t, ai in zip(top, a))
            w = action(unit_vector(ring, rank, j, ring.monomial(comp)))
            for i in range(rank):
                rows[i][j] = rows[i][j] + w[i].frobenius_power(1).mul_monomial(a)
    structure = CartierStructure(ring, rank, rows)
    # a map defined only on digit monomials always looks semilinear, so the
    # consistency probes go up to exponent 2p-2 in every variable
    probes = sorted({tuple(ai + bi for ai, bi in zip(a, b))
                     for a in ring.digit_monomials(1)
                     for b in ring.digit_monomials(1)})
    for j in range(rank):
        for mon in probes:
            probe = unit_vector(ring, rank, j, ring.monomial(mon))
            if structure.apply(probe) != tuple(action(probe)):
                raise CartierError("action is not p^{-1}-linear over the ring")
    return structure


def sympy_symbols(ring: Ring):
    import sympy

    syms = sympy.symbols(ring.names)
    return (syms,) if ring.n == 1 else syms


def to_sympy(f: Poly, syms):
    import sympy

    expr = sympy.Integer(0)
    for m, c in f.terms.items():
        t = sympy.Integer(c)
        for s, e in zip(syms, m):
            t *= s**e
        expr += t
    return expr


def from_sympy(ring: Ring, expr, syms) -> Poly:
    """A sympy expression over F_p back as a Poly; sympy's symmetric
    coefficients are taken mod p."""
    import sympy

    poly = sympy.Poly(expr, *syms, modulus=ring.p)
    f = ring.zero()
    for mon, coeff in poly.terms():
        f = f + ring.monomial(tuple(mon), int(coeff) % ring.p)
    return f


def verify_test_element(M, f, t, c) -> bool:
    """Necessary consistency check: c, c^2 and c*f must give the same tau."""
    base = tau(M, f, t, c).value
    for other in (c * c, c * f):
        if other.is_zero():
            return False
        if tau(M, f, t, other).value != base:
            return False
    return True


class SeededPair(Pair):
    """A `Pair` whose step is the relation of the defining series as
    written, seed(m) + kappa(f^m X) with seed(m) = kappa(f^(m+1) cD) + N
    spanned here, unkept: the reference for the seedless step of
    `Pair._step`.  Its seeds and first series levels are steps at X = cD,
    where seed(m) lies in kappa(f^m cD) and adds nothing."""

    def _step(self, m, X):
        S, f = self.M.structure, self.f
        seed = kappa_span(S, self.cD.scaled(f ** (m + 1))).add(self.M.pres.N)
        return seed.add(kappa_span(S, X.scaled(f ** m))).minimal_gens()


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


def mon_lcm(a: Monomial, b: Monomial) -> Monomial:
    return tuple(max(x, y) for x, y in zip(a, b))


def _divides(a: Monomial, b: Monomial) -> bool:
    return all(map(le, a, b))


def _s_vector(a: _Elem, b: _Elem, lcm: int, code: _Code, p: int) -> dict[int, int]:
    """lcm/lead(a) * a - lcm/lead(b) * b; the leads cancel and are left out."""
    s: dict[int, int] = {}
    for (d, lead), sign in ((a, 1), (b, -1)):
        q = lcm - lead
        for m, c in islice(d.items(), 1, None):
            u = m + q
            if u & code.guard:
                raise code.overflow(u)
            v = (s.get(u, 0) + sign * c) % p
            if v:
                s[u] = v
            else:
                del s[u]
    return s


def reference_buchberger(code: _Code, p: int, gens: Sequence[dict[int, int]]) -> list[_Elem]:
    """Returns the reduced basis as monic (dict, lead) pairs, sorted by
    decreasing lead: Buchberger's algorithm with normal pair selection and
    the Gebauer-Moeller pair update (Gebauer and Moeller, J. Symb. Comput.
    1988), the engine the signature-based `groebner._buchberger` replaced,
    kept as its reference."""
    basis: list[_Elem] = []
    leads: list[tuple[int, Monomial]] = []  # the leads as (component, monomial), for the lcms
    pairs: list[tuple[int, int, Monomial, int, int]] = []  # (deg lcm, n, lcm, i, j)
    tick = count()

    def update(h: _Elem):
        """Gebauer-Moeller update of the pair queue for the new element h."""
        nonlocal pairs
        j = len(basis)
        ch, mh = code.decode(h[1])
        # criterion B: h's lead divides lcm(i, k) and neither lcm with h equals it
        kept = []
        for pr in pairs:
            _, _, lcm, i, k = pr
            if (leads[i][0] != ch or not _divides(mh, lcm)
                    or mon_lcm(leads[i][1], mh) == lcm or mon_lcm(leads[k][1], mh) == lcm):
                kept.append(pr)
        # criteria M and F on the new pairs: keep one pair per minimal lcm,
        # and none for an lcm shared with a pair of coprime leads (ideals only)
        new = []
        for i, (ci, mi) in enumerate(leads):
            if ci == ch:
                lcm = mon_lcm(mi, mh)
                new.append((lcm, i, code.rank == 1 and sum(lcm) == sum(mi) + sum(mh)))
        chosen = []
        for n, (lcm, i, coprime) in enumerate(new):
            if coprime or not any(_divides(l2, lcm) for l2, _, _ in new[n + 1:]) \
                    and not any(_divides(l2, lcm) for l2, _, _ in chosen):
                chosen.append((lcm, i, coprime))
        kept.extend((sum(lcm), next(tick), lcm, i, j) for lcm, i, coprime in chosen if not coprime)
        heapq.heapify(kept)
        pairs = kept
        basis.append(h)
        leads.append((ch, mh))

    for g in gens:
        g = _reduce(dict(g), basis, code, p)
        if g:
            update(_monic(g, p))
    while pairs:
        _, _, lcm, i, j = heapq.heappop(pairs)
        s = _s_vector(basis[i], basis[j], code.encode(leads[i][0], lcm), code, p)
        r = _reduce(s, basis, code, p)
        if r:
            update(_monic(r, p))

    # every element is reduced against the earlier ones, so it is redundant
    # exactly when a later lead divides its lead
    minimal = [b for n, b in enumerate(basis)
               if not any(code.divides(c, b[1]) for _, c in basis[n + 1:])]
    # tail-reduce each against the others
    reduced = []
    for n, (d, _) in enumerate(minimal):
        reduced.append(_monic(_reduce(dict(d), minimal[:n] + minimal[n + 1:], code, p), p))
    reduced.sort(key=itemgetter(1), reverse=True)
    return reduced
