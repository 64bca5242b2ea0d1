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

The left limit tau(t - eps) solves the same system (each of its orbit
points has the seed and shift of the one of t just above it) as the
greatest fixed point below tau(0).  The sweeps down from tau(0) stop since
F-jumping numbers are discrete (Blickle-Schwede-Takagi-Zhang).

A `Pair` solves one (M, f, c) for many t: the checks that do not depend on
t run once, the seeds are kept per shift m < p, and the converged value at
every orbit point is kept, so a later orbit that runs into a solved point
sweeps only its new points, with the solved one as a constant successor.
Each step seed(m) + kappa(f^m X) is kept per (m, X), shared by the systems
of tau and of the left limit: tau takes finitely many values in a
decreasing chain (Blickle-Mustata-Smith), so the orbits of many t meet the
same few.
The scans build one `Pair` per call and drop it when they return.  The
seeds, the ceil_pe_minus_1 series and the root cross-check take one base-p
digit of their exponent B per level (`Pair._levels`), and share every level
k among the exponents that agree in B mod p^k.

The scans (`jumping_numbers`, `fpt`) find each jump c above a point a by a
Stern-Brocot descent on "tau(q) != tau(a)", which holds exactly for q >= c
since tau decreases in t (Blickle-Mustata-Smith); q = c exactly when also
the left limit at q is tau(a).  Jumps are rational, so the descent ends, in
O(log den c) tau calls when it gallops (Kwek-Mehlhorn).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property
from itertools import chain
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
from .groebner import FreeSubmodule, full_module, ideal, preimage_within

CONVENTIONS = ("ceil_pe", "ceil_pe_minus_1")
MAX_SWEEPS = 64
MAX_ORBIT = 4096
MAX_MODULE_SUM_STEPS = 256
NU_BUDGET = 2 ** 14


@dataclass(frozen=True)
class TauResult:
    value: FreeSubmodule
    stabilized_at_e: int
    path: str


@dataclass(frozen=True)
class FiltrationTable:
    """The jumps of t -> tau(M, f^t) on [t_min, t_max], with the value v0
    at t_min and the value and left limit at each jump, so lookups are
    piecewise constant and right continuous."""

    f: Poly
    t_min: Fraction
    t_max: Fraction
    v0: FreeSubmodule
    jumps: tuple[Fraction, ...]
    values: tuple[FreeSubmodule, ...]
    left_limits: tuple[FreeSubmodule, ...]

    def _check_range(self, t: Fraction):
        if t < self.t_min or t > self.t_max:
            raise ValueError(
                f"t={t} outside the tabulated range [{self.t_min}, {self.t_max}]")

    def value_at(self, t) -> FreeSubmodule:
        """V^t: the value at the last jump <= t."""
        t = Fraction(t)
        self._check_range(t)
        out = self.v0
        for j, v in zip(self.jumps, self.values):
            if j <= t:
                out = v
            else:
                break
        return out

    def left_value_at(self, t) -> FreeSubmodule:
        """V^{t-}: the common value just below t; the value just below
        t_min was never scanned."""
        t = Fraction(t)
        if t <= self.t_min:
            raise ValueError(f"left value needs t > {self.t_min}")
        self._check_range(t)
        for j, lim in zip(self.jumps, self.left_limits):
            if j == t:
                return lim
        return self.value_at(t)


def exponent_at(t: Fraction, p: int, e: int, convention: str = "ceil_pe") -> int:
    scale = p ** e if convention == "ceil_pe" else p ** e - 1
    return max(0, math.ceil(t * scale))


def is_regular_element(M: CartierModule, f: Poly) -> bool:
    """Is multiplication by f injective on W/N?"""
    if f.is_zero():
        return M.pres.is_zero_module()
    if M.pres.N.is_zero():
        return True  # W sits in a free module over a domain
    W, N = M.pres.W, M.pres.N
    return N.contains(preimage_within(W, [tuple(f * g for g in w) for w in W.gens], N))


def classical_twist(M: CartierModule) -> Poly | None:
    """The scalar twist u when M is free of rank 1 (the classical shape),
    else None."""
    if M.rank != 1 or not M.is_full_free():
        return None
    return M.structure.scalar_twist()


def suggest_test_element(M: CartierModule, f: Poly) -> Poly:
    """Default test element u*f for a full free rank-1 module with scalar
    twist u; anything presented as a proper subquotient needs an explicit
    choice, since u*f may vanish on its support."""
    u = classical_twist(M)
    if u is None:
        raise NonDegenerateError(
            "no default test element for a subquotient presentation; pass c=")
    c = u * f
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
        c = classical_twist(M)
        if c is None:
            raise NonDegenerateError("pass a test element for subquotient input")
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
    """Converged orbit value at a point s in (0, 1]; `sweeps` is the count
    the loop that solved s reported, `length` the number of distinct points
    on the orbit of s."""

    value: FreeSubmodule
    sweeps: int
    length: int


class Pair:
    """A principal pair (M, f) with test element c, solved for many t.

    What does not depend on t is done at most once, on first use: the test
    element (`suggest_test_element` when c is None), regularity of f, the
    image-stable part D = underline(M), cD and the value at 0.  Memos fill
    as values are asked for: the seed of every shift m < p, the orbit step
    per (shift, successor value), the converged value at and just below
    every orbit point in (0, 1], the levels of kappa^e(f^B cD) and of the
    cross-check's roots, each per (k, B mod p^k), and every `tau` answer
    per (t, convention).  Every value passes `D.contains` and, for the
    classical shape, the root cross-check once, before its answer is kept.

    The memos live as long as the Pair; the scans build one per call.
    A Pair gives the values and paths of fresh calls.  The sweep count in
    `stabilized_at_e` can differ from a fresh call's when t was solved as
    part of another point's orbit: every point a loop solves stores the
    count of that loop's whole orbit.
    """

    def __init__(self, M: CartierModule, f: Poly, c: Poly | None = None,
                 e_cap: int | None = None):
        if f.ring != M.ring:
            raise RingMismatchError("f over wrong ring")
        self.M = M
        self.f = f
        self._c = c
        self.e_cap = e_cap
        self._results: dict[tuple[Fraction, str], TauResult] = {}
        self._solved: dict[Fraction, _Solved] = {}
        self._below: dict[Fraction, _Solved] = {}
        self._roots: dict[tuple[int, int], FreeSubmodule] = {}
        self._kappas: dict[tuple[int, int], FreeSubmodule] = {}
        self._seeds: dict[int, FreeSubmodule] = {}
        self._steps: dict[tuple[int, FreeSubmodule], FreeSubmodule] = {}
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
        return TauResult(value, steps, "fixed-sum")

    @cached_property
    def _classical_twist(self) -> Poly | None:
        return classical_twist(self.M)

    def _power(self, m: int) -> Poly:
        if m not in self._powers:
            self._powers[m] = self.f ** m
        return self._powers[m]

    # -- values ---------------------------------------------------------------

    def tau(self, t, convention: str = "ceil_pe") -> TauResult:
        """tau(M, f^t), exact.

        The default convention uses exponents ceil(t p^e) and is computed by
        the orbit fixed point; ceil_pe_minus_1 accumulates its own series up
        to the level cap and raises unless it equals the default's value.
        """
        t = Fraction(t)
        if t < 0:
            raise ValueError("exponent t must be nonnegative")
        if convention not in CONVENTIONS:
            raise ValueError(f"unknown convention {convention!r}")
        if (t, convention) not in self._results:
            self._results[t, convention] = self._checked(t, convention)
        return self._results[t, convention]

    def _checked(self, t: Fraction, convention: str) -> TauResult:
        if t == 0:
            return self._at_zero
        exact, sweeps = self._value(t, below=False)

        if convention == "ceil_pe_minus_1":
            # the series to the level cap, and the last level (at least 1) it
            # changed at; the smaller exponents need the test element deepened
            # by f^ceil(t), otherwise the series overshoots tau for t > 1
            value, stable = self.M.pres.N, 1
            for e in range(1, self.cap + 1):
                b = exponent_at(t, self.M.ring.p, e, convention) + math.ceil(t)
                nxt = value.add(self._kappa_power(e, b)).minimal_gens()
                if e > 1 and nxt != value:
                    stable = e
                value = nxt
            if value == exact:
                return TauResult(value, stable, "series+orbit")
            raise StabilizationCapExceededError(
                f"ceil_pe_minus_1 series not stable within level cap {self.cap}")

        self._root_cross_check(t, exact)
        return TauResult(exact, sweeps, "orbit")

    def left_limit(self, t) -> TauResult:
        """tau(M, f^{t - eps}) for all small eps > 0, exact: the orbit system
        of `tau` solved down from tau(0).  It must contain tau(t)."""
        t = Fraction(t)
        if t <= 0:
            raise ValueError("left limit needs t > 0")
        value, sweeps = self._value(t, below=True)
        if not value.contains(self.tau(t).value):
            raise CartierError(f"left limit at {t} does not contain tau({t})")
        return TauResult(value, sweeps, "left-limit")

    def _value(self, t: Fraction, below: bool) -> tuple[FreeSubmodule, int]:
        """tau at, or just below, t > 0 and its sweep count."""
        self.c  # a refused test element is reported before a zerodivisor f
        self.require_regular()
        m0 = math.ceil(t) - 1
        value, sweeps = self._solve(t - m0, below)
        if m0:
            value = value.scaled(self._power(m0)).add(self.M.pres.N).minimal_gens()
        if not self.D.contains(value):
            raise CartierError("tau escaped the image-stable part; test element invalid")
        return value, sweeps

    def _seed(self, m: int) -> FreeSubmodule:
        """kappa(f^{m+1} cD) + N: the first summand at every orbit point of
        shift m, kept per shift."""
        if m not in self._seeds:
            self._seeds[m] = self._kappa_power(1, m + 1).add(self.M.pres.N).minimal_gens()
        return self._seeds[m]

    def _step(self, m: int, X: FreeSubmodule) -> FreeSubmodule:
        """The orbit relation at a point of shift m whose successor holds X,
        kept per (m, X); the systems of tau and of the left limit share it."""
        out = self._steps.get((m, X))
        if out is None:
            incoming = kappa_span(self.M.structure, X.scaled(self._power(m)))
            out = self._steps[m, X] = self._seed(m).add(incoming).minimal_gens()
        return out

    def _solve(self, t0: Fraction, below: bool = False) -> tuple[FreeSubmodule, int]:
        """Converged value at (or, when `below`, just below) t0 in (0, 1] and
        its sweep count.

        Walks the orbit of t0 until it reaches a solved point, which is then a
        constant successor, or closes a new cycle.  The new points start at
        their seeds (at tau(0) when `below`) and are swept in reverse order
        until a sweep changes nothing; a point is stepped again only when its
        successor changed since its last step.  The count is that of one
        iteration over the whole orbit: the loop's own, or the solved
        successor's when that is larger.  Every new point stores it.
        """
        solved = self._below if below else self._solved
        if t0 in solved:
            return solved[t0].value, solved[t0].sweeps
        p = self.M.ring.p
        index: dict[Fraction, int] = {}  # the new orbit points, in order
        s = t0
        while s not in solved and s not in index:
            if len(index) == MAX_ORBIT:
                raise StabilizationCapExceededError("orbit of t did not close")
            index[s] = len(index)
            s = p * s - math.ceil(p * s) + 1
        shifts = [math.ceil(p * x) - 1 for x in index]
        n = len(shifts)
        after = solved.get(s)
        ahead = 0 if after is None else after.length
        if n + ahead > MAX_ORBIT:
            raise StabilizationCapExceededError("orbit of t did not close")
        X = [self._at_zero.value if below else self._seed(m) for m in shifts]
        if after is not None:
            X.append(after.value)
        last = index.get(s, n)  # where the last new point leads: X[n] when s is solved
        used: list[FreeSubmodule | None] = [None] * n  # successor at the last step
        for sweeps in range(1, MAX_SWEEPS + 1):
            changed = False
            for k in reversed(range(n)):
                nxt = X[k + 1 if k + 1 < n else last]
                if nxt is not used[k]:
                    used[k] = nxt
                    upd = self._step(shifts[k], nxt)
                    if upd != X[k]:
                        X[k], changed = upd, True
            if not changed:
                break
        else:
            raise StabilizationCapExceededError("orbit iteration exceeded sweep cap")
        if after is not None:
            sweeps = max(sweeps, after.sweeps)
        for x, k in index.items():
            solved[x] = _Solved(X[k], sweeps, n - min(k, last) + ahead)
        return X[0], sweeps

    def _root_cross_check(self, t: Fraction, exact: FreeSubmodule):
        """For the classical shape, the root-path partial sums
        sum_{e <= depth} (c u^{s_e} f^{B_e})^{[1/p^e]}, s_e = 1 + p + .. + p^{e-1},
        must sit inside the exact value.  A sum sits inside exactly when each
        summand does."""
        if self._classical_twist is None:
            return
        p = self.M.ring.p
        for e in range(1, min(3, self.cap) + 1):
            if not exact.contains(self._root(e, exponent_at(t, p, e))):
                raise CartierError("root-path sum escapes the exact tau value")

    def _levels(self, memo: dict, start: FreeSubmodule, e: int, B: int,
                level) -> FreeSubmodule:
        """`level` applied e times from `start`, the k-th time with digit k-1
        of B.  The value after level k depends on B only through B mod p^k,
        so it is kept in `memo` per (k, B mod p^k), shared by every e and B.
        The part B // p^e of f^B pulls out at the end."""
        p = self.M.ring.p
        Z = start
        for k in range(1, e + 1):
            key = (k, B % p ** k)
            if key not in memo:
                memo[key] = level(Z, B // p ** (k - 1) % p)
            Z = memo[key]
        b = B // p ** e
        return Z.scaled(self._power(b)) if b else Z

    def _kappa_power(self, e: int, B: int) -> FreeSubmodule:
        """kappa^e(f^B cD): each level is kappa of f^digit times the last."""
        return self._levels(self._kappas, self.cD, e, B, lambda Z, d: kappa_span(
            self.M.structure, Z.scaled(self._power(d))))

    def _root(self, e: int, B: int) -> FreeSubmodule:
        """(c u^{s_e} f^B)^{[1/p^e]}, s_e = 1 + p + .. + p^{e-1}: each level is
        the root of u f^digit times the last, independent of `kappa_span`."""
        return self._levels(self._roots, ideal(self.M.ring, self.c), e, B, lambda J, d:
                            scaled_root(J, 1, u=self._classical_twist, A=1, f=self.f, B=d))

    def _first_jump(self, a: Fraction, va: FreeSubmodule, b: Fraction,
                    vb: FreeSubmodule, N: int, ladder: int):
        """The first jump c of tau in (a, b], given va = tau(a) != tau(b) = vb:
        (c, tau(c), the left limit at c) when c is a candidate, a fraction
        whose denominator divides some n <= N or `ladder`; else (the next
        candidate, None, None).

        "q >= c" holds exactly when tau(q) != va, and "q = c" exactly when
        also the left limit at q is va.  A Stern-Brocot descent keeps Farey
        neighbours L < c <= R, galloping along each run of equal turns; nodes
        <= a and >= b need no tau, and every value must lie between va and
        vb.  Every node on the path to c has a denominator of at most den c,
        so none above max(N, ladder) is evaluated: reaching that bound shows
        c is no candidate, and that none lies strictly between L and R.
        """
        @cache
        def at_or_above(q: Fraction) -> bool:
            if q <= a or q >= b:
                return q >= b
            v = self.tau(q).value
            if not (va.contains(v) and v.contains(vb)):
                raise CartierError(f"tau not monotone at t={q}")
            return v != va

        def run(base, step, side: bool) -> tuple[int, int]:
            # the last node base + k step on `side` of c within the bound, galloping
            def stays(k: int) -> bool:
                h, d = base[0] + k * step[0], base[1] + k * step[1]
                return d <= top and at_or_above(Fraction(h, d)) == side
            k, gap = 0, 1
            while stays(k + gap):
                k, gap = k + gap, 2 * gap
            while gap > 1:
                gap //= 2
                k += gap if stays(k + gap) else 0
            return base[0] + k * step[0], base[1] + k * step[1]

        top = max(N, ladder)
        L, R = (0, 1), (1, 0)
        while L[1] + R[1] <= top:
            L = run(L, R, False)
            if L[1] + R[1] <= top:
                R = run(R, L, True)
                c = Fraction(*R)
                if c <= b and (left := self.left_limit(c).value) == va:
                    if c.denominator <= N or ladder % c.denominator == 0:
                        return c, self.tau(c).value, left
                    break
        q = min(Fraction(math.ceil(Fraction(*R) * d), d) for d in chain(range(1, N + 1), [ladder]))
        return q, None, None

    def jumping_numbers(self, t_min, t_max, max_denominator: int) -> FiltrationTable:
        """Table of t -> tau(M, f^t) on [t_min, t_max]: its jumping numbers
        in (t_min, t_max], with the value and left limit at each, found one
        after the other by `_first_jump` until the value is tau(t_max).  A
        jump is answered when its denominator divides some n <=
        max_denominator or a ladder denominator p^k (p-1) <= p max_denominator
        within the level cap; any other raises, naming the smallest such
        candidate above it, or t_max.
        """
        lo, hi = Fraction(t_min), Fraction(t_max)
        if lo < 0 or hi <= lo:
            raise ValueError("need 0 <= t_min < t_max")
        if max_denominator < 1:
            raise ValueError("max_denominator must be >= 1")
        ladder = _ladder(self.M.ring.p, self.e_cap, self.M.ring.p * max_denominator)
        v0 = self.tau(lo).value
        end = self.tau(hi).value
        if not v0.contains(end):
            raise CartierError(f"tau not monotone at t={hi}")
        jumps, values, limits = [], [], []
        a, va = lo, v0
        while va != end:
            c, vc, left = self._first_jump(a, va, hi, end, max_denominator, ladder)
            if vc is None:
                raise CartierError(
                    f"jump between grid points below t={min(c, hi)}; raise max_denominator")
            jumps.append(c)
            values.append(vc)
            limits.append(left)
            a, va = c, vc
        return FiltrationTable(self.f, lo, hi, v0, tuple(jumps), tuple(values),
                               tuple(limits))


def _ladder(p: int, e_cap: int | None, limit: float = math.inf) -> int:
    """The top rung (p-1) p^k <= limit, k at most the level cap, of the
    ladder of candidate denominators; every lower rung divides it."""
    d = p - 1
    for _ in range(level_cap(e_cap)):
        if d * p > limit:
            break
        d *= p
    return d


def tau(M: CartierModule, f: Poly, t, c: Poly | None = None,
        convention: str = "ceil_pe", e_cap: int | None = None) -> TauResult:
    """tau(M, f^t), exact; see `Pair.tau`.  e_cap overrides the level cap
    (default `frobenius.DEFAULT_LEVEL_CAP`, 6)."""
    return Pair(M, f, c, e_cap).tau(t, convention)


def tau_left_limit(M: CartierModule, f: Poly, t, c: Poly | None = None) -> TauResult:
    """tau just below t, exact; see `Pair.left_limit`."""
    return Pair(M, f, c).left_limit(t)


def jumping_numbers(M: CartierModule, f: Poly, t_min, t_max,
                    max_denominator: int, c: Poly | None = None,
                    e_cap: int | None = None) -> FiltrationTable:
    """Table of t -> tau(M, f^t) on [t_min, t_max], with the left limit
    confirmed at each jump; see `Pair.jumping_numbers`."""
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
    """F-pure threshold of f: the first jump of t -> tau(R, f^t), found by
    `Pair._first_jump` in the Frobenius window (nu/p^e, (nu+1)/p^e], at whose
    lower end tau is R.  It is answered when its denominator divides some
    n <= max_denominator (default p^2 (p-1)) or a ladder denominator
    p^k (p-1) within the level cap; otherwise FptDivergenceError names the
    smallest such candidate above it, or says the window holds none.
    """
    if f.ring != ring:
        raise RingMismatchError("f over wrong ring")
    p = ring.p
    if max_denominator is None:
        max_denominator = p * p * (p - 1)
    if max_denominator < 1:
        raise ValueError("max_denominator must be >= 1")
    ring.digit_monomials(1)  # refuse an oversized ring before nu's loop
    level = _default_nu_level(ring) if e_nu is None else e_nu
    lo, hi = nu_interval(ring, f, level)
    pair = Pair(CartierModule.over_ring(ring), f, e_cap=e_cap)
    full = full_module(ring, 1)
    ladder = _ladder(p, e_cap)
    end = pair.tau(hi).value
    if end != full:
        q, value, _ = pair._first_jump(lo, full, hi, end, max_denominator, ladder)
        if value is not None:
            return FptResult(q, lo, hi, level)
        if q <= hi:
            raise FptDivergenceError(f"threshold lies below candidate {q}; grid too coarse")
    raise FptDivergenceError(f"no jump found in the Frobenius window [{lo}, {hi}]")
