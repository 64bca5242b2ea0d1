"""Test-module filtrations tau(M, f^t) for principal pairs.

The value at t is the smallest fixed point of the finite system of
relations walked out by the multiply-by-p orbit of t in (0, 1]:

    tau(s) = kappa(f^m tau(s'))      where  p s = m + s',  s' in (0, 1],
    tau(t + 1) = f tau(t)            for t > 0,

seeded with the first summand kappa(f^{ceil(s p)} c D) at every orbit
point, D being the image-stable part of M.  One sweep of the system turns
the level-e summand of the defining series into the level-(e+1) summand,
so the iteration converges to the exact infinite sum; no stabilization
heuristics are involved.  All exponents handled along the way stay below
p, which keeps everything sparse.

A `Pair` solves one (M, f, c) for many t: the checks that do not depend on
t run once, and the converged value at every orbit point is kept, so a
later orbit that runs into a solved point is finished by back-substitution
instead of a fresh fixed-point iteration.  The scans build one `Pair` per
call and drop it when they return.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import NamedTuple

from .cartier_mod import CartierModule, kappa_span, underline
from .errors import (
    CartierError,
    FptDivergenceError,
    LevelCapExceededError,
    NonDegenerateError,
    RingMismatchError,
    StabilizationCapExceededError,
)
from .field_poly import Poly, Ring
from .frobenius import level_cap, scaled_root
from .groebner import FreeSubmodule, full_module, ideal

CONVENTIONS = ("ceil_pe", "ceil_pe_minus_1")
MAX_SWEEPS = 64
LEFT_LIMIT_REFINEMENTS = 8
MAX_ORBIT = 4096
MAX_MODULE_SUM_STEPS = 256
NU_BUDGET = 2 ** 14


@dataclass(frozen=True)
class TauResult:
    value: FreeSubmodule
    certified: bool
    stabilized_at_e: int
    path: str


def exponent_at(t: Fraction, p: int, e: int, convention: str = "ceil_pe") -> int:
    scale = p ** e if convention == "ceil_pe" else p ** e - 1
    return max(0, math.ceil(t * scale))


def is_regular_element(M: CartierModule, f: Poly) -> bool:
    """Is multiplication by f injective on W/N?"""
    if f.is_zero():
        return M.pres.is_zero_module()
    bad = M.pres.N.colon_element(f).intersect(M.pres.W)
    return M.pres.N.contains(bad)


def suggest_test_element(M: CartierModule, f: Poly) -> Poly:
    """Default test element u*f for a full free rank-1 module with scalar
    twist u; anything presented as a proper subquotient needs an explicit
    choice, since u*f may vanish on its support."""
    if M.rank != 1 or not M.is_full_free():
        raise NonDegenerateError(
            "no default test element for a subquotient presentation; pass c=")
    c = M.structure.scalar_twist() * f
    if c.is_zero():
        raise NonDegenerateError("u*f vanishes; the pair is degenerate")
    return c


def module_test_submodule(M: CartierModule, c: Poly) -> tuple[FreeSubmodule, int]:
    """tau of the module itself: sum of kappa^e(c W) + N over e >= 1.

    Each summand is kappa of the previous one, so the first repeat of the
    partial sums certifies the limit exactly.
    """
    if c.ring != M.ring:
        raise RingMismatchError("test element over wrong ring")
    return module_test_submodule_from(M, M.pres.W.scaled(c))


def is_F_regular(M: CartierModule, c: Poly | None = None) -> bool:
    """Does the test submodule recover all of M?"""
    if c is None:
        if M.rank != 1 or not M.is_full_free():
            raise NonDegenerateError("pass a test element for subquotient input")
        c = M.structure.scalar_twist()
        if c.is_zero():
            return M.pres.is_zero_module()
    value, _ = module_test_submodule(M, c)
    return value.contains(M.pres.W)


def module_test_submodule_from(M: CartierModule, cW: FreeSubmodule) -> tuple[FreeSubmodule, int]:
    N = M.pres.N
    term = kappa_span(M.structure, cW)
    acc = N.add(term).minimal_gens()
    for step in range(1, MAX_MODULE_SUM_STEPS):
        term = kappa_span(M.structure, term)
        nxt = acc.add(term).minimal_gens()
        if nxt == acc:
            return acc, step
        acc = nxt
    raise CartierError("module test submodule failed to stabilize")


class _Solved(NamedTuple):
    """Converged orbit value at a point s in (0, 1]; `sweeps` is what the
    fixed-point iteration over the orbit of s reports, `length` the number
    of distinct points on that orbit."""

    value: FreeSubmodule
    sweeps: int
    length: int


class Pair:
    """A principal pair (M, f) with test element c, solved for many t.

    What does not depend on t is done at most once, on first use: the test
    element (`suggest_test_element` when c is None), regularity of f, the
    image-stable part D = underline(M), cD and the value at 0.  Two memos
    fill as values are asked for: the converged value at every orbit point
    in (0, 1], and the root-path ideals of the cross-check per (e, B).
    Every returned value still passes `D.contains` and, for the classical
    shape, the root cross-check.

    The memos live as long as the Pair; the scans build one per call.
    A Pair gives the values, certificates and paths of fresh `tau` calls.
    The sweep count in `stabilized_at_e` can differ from a fresh call's
    when the cycle of t was solved earlier from another entry point, since
    the count depends on where the sweeps start.
    """

    def __init__(self, M: CartierModule, f: Poly, c: Poly | None = None,
                 e_cap: int | None = None):
        if f.ring != M.ring:
            raise RingMismatchError("f over wrong ring")
        self.M = M
        self.f = f
        self._c = c
        self.e_cap = e_cap
        self._solved: dict[Fraction, _Solved] = {}
        self._roots: dict[tuple[int, int], FreeSubmodule] = {}
        self._powers: dict[int, Poly] = {}

    # -- what does not depend on t ----------------------------------------------

    @cached_property
    def c(self) -> Poly:
        c = suggest_test_element(self.M, self.f) if self._c is None else self._c
        if c.ring != self.M.ring:
            raise RingMismatchError("test element over wrong ring")
        if c.is_zero():
            raise NonDegenerateError("zero test element")
        return c

    @cached_property
    def is_regular(self) -> bool:
        return is_regular_element(self.M, self.f)

    def require_regular(self):
        if not self.is_regular:
            raise NonDegenerateError("f is a zerodivisor on the module")

    @cached_property
    def D(self) -> FreeSubmodule:
        return underline(self.M)[0]

    @cached_property
    def cD(self) -> FreeSubmodule:
        c = self.c
        return self.D.scaled(c)

    @cached_property
    def cap(self) -> int:
        return level_cap(self.e_cap)

    @cached_property
    def _at_zero(self) -> TauResult:
        value, steps = module_test_submodule_from(self.M, self.cD)
        return TauResult(value, True, steps, "fixed-sum")

    @cached_property
    def _classical_twist(self) -> Poly | None:
        """The scalar twist u when M is free of rank 1, else None."""
        M = self.M
        if M.rank != 1 or not M.is_full_free():
            return None
        return M.structure.scalar_twist()

    def _power(self, m: int) -> Poly:
        if m not in self._powers:
            self._powers[m] = self.f ** m
        return self._powers[m]

    # -- values ---------------------------------------------------------------

    def tau(self, t, convention: str = "ceil_pe") -> TauResult:
        """tau(M, f^t), exact.

        The default convention uses exponents ceil(t p^e) and is computed by
        the orbit fixed point; ceil_pe_minus_1 accumulates its own series up
        to the level cap and is certified by agreement with the default.
        """
        t = Fraction(t)
        if t < 0:
            raise ValueError("exponent t must be nonnegative")
        if convention not in CONVENTIONS:
            raise ValueError(f"unknown convention {convention!r}")
        if t == 0:
            return self._at_zero
        self.c  # a refused test element is reported before a zerodivisor f
        self.require_regular()

        m0 = math.ceil(t) - 1
        exact, sweeps = self._solve(t - m0)
        if m0:
            exact = exact.scaled(self._power(m0)).add(self.M.pres.N).minimal_gens()
        if not self.D.contains(exact):
            raise CartierError("tau escaped the image-stable part; test element invalid")

        if convention == "ceil_pe_minus_1":
            # the smaller exponents need the test element deepened by
            # f^ceil(t), otherwise the series overshoots tau for t > 1
            deep = self.cD.scaled(self._power(math.ceil(t)))
            value, stable = _tau_series_capped(self.M, self.f, t, deep, convention,
                                               self.cap)
            if value == exact:
                return TauResult(value, True, stable, "series+orbit")
            raise StabilizationCapExceededError(
                f"ceil_pe_minus_1 series not stable within level cap {self.cap}",
                partial=TauResult(value, False, self.cap, "series"))

        self._root_cross_check(t, exact)
        return TauResult(exact, True, sweeps, "orbit")

    def _solve(self, t0: Fraction) -> tuple[FreeSubmodule, int]:
        """Converged value at t0 in (0, 1], with its sweep count.

        Walks the orbit of t0 until it reaches a solved point or closes a new
        cycle.  A new cycle is iterated to its least fixed point, sweeping in
        the order of the orbit reversed; the points before it are then exact
        after one back-substitution each, X_k = seed_k + kappa(f^{m_k} X_{k+1}).
        The sweep count is the one an iteration over the whole orbit reports:
        the cycle's own count, or 2 when the cycle started at its fixed point
        but a point before it grew past its seed.
        """
        solved = self._solved
        if t0 in solved:
            return solved[t0].value, solved[t0].sweeps
        p = self.M.ring.p
        points: list[Fraction] = []
        shifts: list[int] = []
        index: dict[Fraction, int] = {}
        s = t0
        while s not in solved and s not in index:
            index[s] = len(points)
            points.append(s)
            m = math.ceil(p * s) - 1
            shifts.append(m)
            s = p * s - m
            if len(points) > MAX_ORBIT:
                raise StabilizationCapExceededError("orbit of t did not close")
        if s in solved and len(points) + solved[s].length > MAX_ORBIT:
            raise StabilizationCapExceededError("orbit of t did not close")

        structure = self.M.structure
        N = self.M.pres.N
        seeds = [kappa_span(structure, self.cD.scaled(self._power(exponent_at(x, p, 1))))
                 .add(N).minimal_gens() for x in points]
        tail = len(points)
        if s not in solved:
            tail = index[s]
            values, sweeps = self._iterate_cycle(seeds[tail:], shifts[tail:])
            length = len(points) - tail
            for x, value in zip(points[tail:], values):
                solved[x] = _Solved(value, sweeps, length)
        after = solved[s]
        for k in reversed(range(tail)):
            incoming = kappa_span(structure, after.value.scaled(self._power(shifts[k])))
            value = seeds[k].add(incoming).minimal_gens()
            grown = 2 if value != seeds[k] else 1
            after = _Solved(value, max(after.sweeps, grown), after.length + 1)
            solved[points[k]] = after
        return solved[t0].value, solved[t0].sweeps

    def _iterate_cycle(self, X: list[FreeSubmodule],
                       shifts: list[int]) -> tuple[list[FreeSubmodule], int]:
        """Least fixed point of X_k = X_k + kappa(f^{m_k} X_{k+1}) around a
        cycle (indices mod its length), from the seeds up."""
        structure = self.M.structure
        K = len(X)
        sweeps = 0
        changed = True
        while changed:
            sweeps += 1
            if sweeps > MAX_SWEEPS:
                raise StabilizationCapExceededError("orbit iteration exceeded sweep cap")
            changed = False
            for k in reversed(range(K)):
                incoming = kappa_span(structure,
                                      X[(k + 1) % K].scaled(self._power(shifts[k])))
                upd = X[k].add(incoming).minimal_gens()
                if upd != X[k]:
                    X[k] = upd
                    changed = True
        return X, sweeps

    def _root_cross_check(self, t: Fraction, exact: FreeSubmodule):
        """For the classical shape, the root-path partial sums
        sum_{e <= depth} (c u^{s_e} f^{B_e})^{[1/p^e]}, s_e = 1 + p + .. + p^{e-1},
        must sit inside the exact value.  A sum sits inside exactly when each
        summand does; the summands depend on t only through B_e and are kept
        per (e, B_e)."""
        u = self._classical_twist
        if u is None:
            return
        ring = self.M.ring
        p = ring.p
        for e in range(1, min(3, self.cap) + 1):
            B = exponent_at(t, p, e)
            J = self._roots.get((e, B))
            if J is None:
                J = scaled_root(ideal(ring, self.c), e, u=u, A=(p ** e - 1) // (p - 1),
                                f=self.f, B=B, e_cap=self.e_cap)
                self._roots[(e, B)] = J
            if not exact.contains(J):
                raise CartierError("root-path sum escapes the exact tau value")

    def left_limit(self, t) -> TauResult:
        """Value of tau just below t, found once two refinements agree.

        Jumping numbers have denominators of the form p^k (p - 1), so two
        consecutive agreeing refinements t - 1/(p^k (p - 1)) on that ladder
        pin the left limit.  Raises StabilizationCapExceededError when none
        agree for k up to LEFT_LIMIT_REFINEMENTS.
        """
        t = Fraction(t)
        if t <= 0:
            raise ValueError("left limit needs t > 0")
        p = self.M.ring.p
        prev = None
        for k in range(1, LEFT_LIMIT_REFINEMENTS + 1):
            delta = Fraction(1, p ** k * (p - 1))
            if t - delta < 0:
                continue
            cur = self.tau(t - delta)
            if prev is not None and cur.value == prev.value:
                return TauResult(cur.value, True, k, "left-limit")
            prev = cur
        raise StabilizationCapExceededError(
            f"left limit at {t} unsettled after {LEFT_LIMIT_REFINEMENTS} refinements",
            partial=prev)

    def jumping_numbers(self, t_min, t_max, max_denominator: int) -> "JumpScan":
        """Jumping numbers of t -> tau(M, f^t) in (t_min, t_max].

        Scans the candidate grid (all denominators up to the bound, plus the
        p^k (p-1) ladder just past it), locates value changes, and confirms
        each jump sits exactly at its candidate via the left limit.  A jump
        falling between grid points is detected by that confirmation and
        raises, so the ladder depth only affects which jumps are found, not
        whether a miss goes unnoticed.  Monotonicity of the scanned values is
        asserted along the way.
        """
        lo, hi = Fraction(t_min), Fraction(t_max)
        if lo < 0 or hi <= lo:
            raise ValueError("need 0 <= t_min < t_max")
        if max_denominator < 1:
            raise ValueError("max_denominator must be >= 1")
        p = self.M.ring.p
        grid = [q for q in _candidate_grid(p, lo, hi, max_denominator,
                                           ladder_limit=p * max_denominator,
                                           e_cap=self.e_cap)
                if q > lo]
        baseline = self.tau(lo).value
        jumps: list[Fraction] = []
        values: list[FreeSubmodule] = []
        limits: list[FreeSubmodule] = []
        prev = baseline
        for q in grid:
            cur = self.tau(q).value
            if cur == prev:
                continue
            if not prev.contains(cur):
                raise CartierError(f"tau not monotone at t={q}")
            left = self.left_limit(q).value
            if left != prev:
                raise CartierError(
                    f"jump between grid points below t={q}; raise max_denominator")
            jumps.append(q)
            values.append(cur)
            limits.append(left)
            prev = cur
        return JumpScan(tuple(jumps), tuple(values), baseline, lo, hi, tuple(limits))


def tau(M: CartierModule, f: Poly, t, c: Poly | None = None,
        convention: str = "ceil_pe", e_cap: int | None = None) -> TauResult:
    """tau(M, f^t), exact; see `Pair.tau`.  e_cap overrides the level cap
    (default `frobenius.DEFAULT_LEVEL_CAP`, 6)."""
    return Pair(M, f, c, e_cap).tau(t, convention)


def _tau_series_capped(M: CartierModule, f: Poly, t: Fraction, cD: FreeSubmodule,
                       convention: str, cap: int) -> tuple[FreeSubmodule, int]:
    p = M.ring.p
    acc = M.pres.N
    stable_from = None
    prev = None
    for e in range(1, cap + 1):
        term = _kappa_power_scaled(M, f, exponent_at(t, p, e, convention), e, cD)
        acc = acc.add(term).minimal_gens()
        if prev is not None and acc == prev:
            if stable_from is None:
                stable_from = e - 1
        else:
            stable_from = None
        prev = acc
    return acc, cap if stable_from is None else stable_from


def _kappa_power_scaled(M: CartierModule, f: Poly, b: int, e: int,
                        Z: FreeSubmodule) -> FreeSubmodule:
    """Span of kappa^e(f^b Z), peeling one base-p digit of b per level."""
    p = M.ring.p
    for _ in range(e):
        Z = kappa_span(M.structure, Z.scaled(f ** (b % p)))
        b //= p
    return Z.scaled(f ** b)


def verify_test_element(M: CartierModule, f: Poly, t, c: Poly) -> bool:
    """Necessary consistency check: c, c^2 and c*f must give the same tau."""
    base = tau(M, f, t, c).value
    for other in (c * c, c * f):
        if other.is_zero():
            return False
        if tau(M, f, t, other).value != base:
            return False
    return True


def tau_left_limit(M: CartierModule, f: Poly, t, c: Poly | None = None) -> TauResult:
    """Value of tau just below t; see `Pair.left_limit`."""
    return Pair(M, f, c).left_limit(t)


@dataclass(frozen=True)
class JumpScan:
    jumps: tuple[Fraction, ...]
    values: tuple[FreeSubmodule, ...]
    baseline: FreeSubmodule
    t_min: Fraction
    t_max: Fraction
    left_limits: tuple[FreeSubmodule, ...]


def _candidate_grid(p: int, lo: Fraction, hi: Fraction, max_denominator: int,
                    ladder_limit: int | None = None,
                    e_cap: int | None = None) -> list[Fraction]:
    dens = set(range(1, max_denominator + 1))
    d = p - 1
    for _ in range(level_cap(e_cap) + 1):
        if ladder_limit is not None and d > ladder_limit:
            break
        dens.add(d)
        d *= p
    out = set()
    for den in dens:
        a_lo = math.floor(lo * den) - 1
        a_hi = math.ceil(hi * den) + 1
        for a in range(max(a_lo, 0), a_hi + 1):
            q = Fraction(a, den)
            if lo <= q <= hi:
                out.add(q)
    return sorted(out)


def jumping_numbers(M: CartierModule, f: Poly, t_min, t_max,
                    max_denominator: int, c: Poly | None = None,
                    e_cap: int | None = None) -> JumpScan:
    """Jumping numbers of t -> tau(M, f^t) in (t_min, t_max], with the left
    limit confirmed at each; see `Pair.jumping_numbers`."""
    return Pair(M, f, c, e_cap).jumping_numbers(t_min, t_max, max_denominator)


@dataclass(frozen=True)
class FptResult:
    value: Fraction
    nu_lower: Fraction
    nu_upper: Fraction
    nu_level: int


def nu_interval(ring: Ring, f: Poly, e: int) -> tuple[Fraction, Fraction]:
    """[nu/p^e, (nu+1)/p^e] where nu is the largest r with f^r outside the
    e-th Frobenius power of the maximal ideal; brackets the F-threshold.
    The work grows with p^e, so a level e > 1 with p^e above NU_BUDGET
    raises LevelCapExceededError."""
    if e < 0:
        raise ValueError("Frobenius level must be >= 0")
    q = ring.p ** e
    if e > 1 and q > NU_BUDGET:
        raise LevelCapExceededError(
            f"Frobenius level {e} too large: p^e = {q} exceeds {NU_BUDGET}")
    nu = _nu_value(ring, f, e)
    return Fraction(nu, q), Fraction(nu + 1, q)


def _nu_value(ring: Ring, f: Poly, e: int) -> int:
    if f.is_zero():
        raise ValueError("nu needs a nonzero f")
    if f.terms.get(tuple(0 for _ in range(ring.n))) is not None:
        raise NonDegenerateError("nu needs f in the maximal ideal")
    q = ring.p ** e

    def truncate(g: Poly) -> Poly:
        return Poly(ring, {m: coef for m, coef in g.terms.items()
                           if all(x < q for x in m)})

    g = ring.one()
    r = 0
    bound = ring.n * (q - 1) + 1
    while True:
        g = truncate(g * f)
        if g.is_zero():
            return r
        r += 1
        if r > bound:
            raise CartierError("nu computation exceeded the degree bound")


def _default_nu_level(ring: Ring) -> int:
    e = 1
    while ring.p ** ((e + 1) * max(ring.n, 1)) <= NU_BUDGET:
        e += 1
    return e


def fpt(ring: Ring, f: Poly, max_denominator: int | None = None,
        e_nu: int | None = None, e_cap: int | None = None) -> FptResult:
    """F-pure threshold of f: the first jump of t -> tau(R, f^t).

    The candidate scan is restricted to the Frobenius interval
    [nu/p^e, (nu+1)/p^e] and the winner must look like a jump from both
    sides; anything else raises FptDivergenceError instead of guessing.
    """
    if f.ring != ring:
        raise RingMismatchError("f over wrong ring")
    p = ring.p
    if max_denominator is None:
        max_denominator = p * p * (p - 1)
    if max_denominator < 1:
        raise ValueError("max_denominator must be >= 1")
    level = _default_nu_level(ring) if e_nu is None else e_nu
    lo, hi = nu_interval(ring, f, level)
    pair = Pair(CartierModule.over_ring(ring), f, e_cap=e_cap)
    full = full_module(ring, 1)
    for q in _candidate_grid(p, lo, hi, max_denominator, e_cap=e_cap):
        if q == 0:
            continue
        if pair.tau(q).value != full:
            left = pair.left_limit(q).value
            if left != full:
                raise FptDivergenceError(
                    f"threshold lies below candidate {q}; grid too coarse")
            return FptResult(q, lo, hi, level)
    raise FptDivergenceError(
        f"no jump found in the Frobenius window [{lo}, {hi}]")
