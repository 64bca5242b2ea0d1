"""Test-module filtrations tau(M, f^t) for principal pairs.

The value at t is the smallest fixed point of the finite system of
relations walked out by the multiply-by-p orbit of t in (0, 1]:

    tau(s) = kappa(f^m tau(s'))      where  p s = m + s',  s' in (0, 1],
    tau(t + 1) = f tau(t)            for t > 0,

seeded with the first summand kappa(f^{ceil(s p)} c D) + N at every orbit
point, D being the image-stable part of M and N the relations: the seed of
shift m is the step kappa(f^(m+1) X) + N at X = cD.  Each value
the system meets contains the seed at its point (see `Pair._step`), so one
sweep, kappa(f^m X) + N at every point, turns the level-e summand of the
defining series into the level-(e+1) summand and the iteration converges to
the exact infinite sum; no stabilization heuristics are involved.  All
exponents handled along the way stay below p, which keeps everything
sparse.  Orbit points are held as (numerator, denominator) int pairs in
lowest terms; Fractions are built only for the caller.

The left limit tau(t - eps) solves the same system (each of its orbit
points has the seed and shift of the one of t just above it) as the
greatest fixed point below tau(0).  The sweeps down from tau(0) stop since
F-jumping numbers are discrete (Blickle-Schwede-Takagi-Zhang).

A `Pair` solves one (M, f, c) for many t: the checks that do not depend on
t run once, and the converged value at every orbit point is kept, so a
later orbit that runs into a solved point sweeps only its new points, with
the solved one as a constant successor.  Each step kappa(f^m X) + N is kept
per (m, X), the one memo of kappa in a `Pair`, shared by the seeds, the
systems of tau and of the left limit, and the ceil_pe_minus_1 series: tau
takes finitely many values in a decreasing chain (Blickle-Mustata-Smith),
so the orbits of many t meet the same few.  The series takes one base-p
digit of its exponent B per level (`Pair._kappa_power`), each level a step
from the last, so levels of exponents that agree in B mod p^k are one entry.
A step spans kappa o f^m in one pass: per shift m < p the `Pair` keeps the
twist U f^m packed, each one packed product with f from the shift before,
and it keeps the packed powers f^m that scale its values, made by
square-and-multiply on packed polynomials.
The scans build one `Pair` per call and drop it when they return; the
`repro` scenarios build one per (M, f, c) and ask it every t, while the
`check` suites that compare two solves (`prop32`, `lemma31`, `prop38`)
build a fresh one per tau, so that no comparison reads a memo against
itself.

The scans (`jumping_numbers`, `fpt`) find each jump c above a point a by a
Stern-Brocot descent on "tau(q) != tau(a)", which holds exactly for q >= c
since tau decreases in t (Blickle-Mustata-Smith); q = c exactly when also
the left limit at q is tau(a).  Jumps are rational, so the descent ends, in
O(log den c) tau calls when it gallops (Kwek-Mehlhorn).
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cache, cached_property
from itertools import chain
from typing import NamedTuple

from .cartier_mod import CartierModule, CartierStructure, kappa_span, underline
from .errors import (
    CartierError,
    FptDivergenceError,
    LevelCapExceededError,
    NonDegenerateError,
    RingMismatchError,
    StabilizationCapExceededError,
)
from .field_poly import Poly, Ring
from .frobenius import level_cap
from .groebner import (FreeSubmodule, Scalar, Twist, full_module, injective_on,
                       pack_scalar, twist_times)

CONVENTIONS = ("ceil_pe", "ceil_pe_minus_1")
MAX_SWEEPS = 64
MAX_ORBIT = 4096
MAX_MODULE_SUM_STEPS = 256
NU_BUDGET = 2 ** 14

Point = tuple[int, int]  # a rational t >= 0 as (numerator, denominator), in lowest terms


class TauResult(NamedTuple):
    value: FreeSubmodule
    stabilized_at_e: int
    path: str


class FiltrationTable(NamedTuple):
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


def is_regular_element(M: CartierModule, f: Poly) -> bool:
    """Is multiplication by f injective on W/N?"""
    return injective_on(f, M.pres.W, M.pres.N)


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
    """The sum of kappa^e(cW) + N over e >= 1, for cW inside W, and the
    first step whose partial sum the next one repeats.  A partial sum that
    is W itself is that sum: W is kappa-stable, so the next step stays in
    it, and no kappa is taken to show it."""
    N, W = M.pres.N, M.pres.W
    term = kappa_span(M.structure, cW)
    acc = N.add(term).minimal_gens()
    for step in range(1, MAX_MODULE_SUM_STEPS):
        if acc == W:
            return acc, step
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


class _Shift(NamedTuple):
    """kappa o f^m for a shift 0 < m < p, as `kappa_span` reads a structure:
    the ring, the rank and the twist U f^m packed (`pack_matrix`)."""

    ring: Ring
    rank: int
    twist: Twist

    def packed(self) -> Twist:
        return self.twist


class Pair:
    """A principal pair (M, f) with test element c, solved for many t.

    What does not depend on t is done at most once, on first use: the test
    element (`suggest_test_element` when c is None), regularity of f, the
    image-stable part D = underline(M), cD and the value at 0.  Memos fill
    as values are asked for: per shift m < p the structure kappa o f^m,
    that is U f^m packed (`_shift`); the packed powers of f (`_power`); the
    step kappa(f^m X) + N per (m, X), which serves the orbit steps, the
    seeds (X = cD) and the levels of the ceil_pe_minus_1 series; the
    converged value at and just below every orbit point in (0, 1]; and
    every `tau` answer per (t, convention).
    Points are keyed as (numerator, denominator) int pairs in lowest terms.
    Every value passes `D.contains` once, before its answer is kept.

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
        self.cap = level_cap(e_cap)
        self._results: dict[tuple[Point, str], TauResult] = {}
        self._solved: dict[Point, _Solved] = {}
        self._below: dict[Point, _Solved] = {}
        self._steps: dict[tuple[int, FreeSubmodule], FreeSubmodule] = {}
        self._shifts: list[CartierStructure | _Shift] = [M.structure]
        self._powers: dict[int, Scalar] = {}

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
    def _at_zero(self) -> TauResult:
        value, steps = module_test_submodule_from(self.M, self.cD)
        return TauResult(value, steps, "fixed-sum")

    def _power(self, m: int) -> Scalar:
        """f^m packed for `FreeSubmodule.scaled`, by square-and-multiply on
        packed polynomials (`twist_times` at rank 1) in a loop.  The powers
        made on the way, f^(2^k) and f^(the low bits of m), are kept with
        f^m, so a new m costs at most two products per bit and keeps
        O(log m) entries.  A product with an exponent past 2^63 - 1 raises
        ExponentOverflowError, as `pack_scalar` does."""
        powers = self._powers
        if m not in powers:
            ring = self.M.ring
            if not powers:
                powers[0], powers[1] = pack_scalar(ring.one()), pack_scalar(self.f)
            done, out, k, square = 0, powers[0], 1, powers[1]  # out = f^done, square = f^k
            while True:
                if m & k:
                    done += k
                    if done not in powers:
                        powers[done] = twist_times(ring, (out,), square)[0]
                    out = powers[done]
                if done == m:
                    break
                k *= 2
                if k not in powers:
                    powers[k] = twist_times(ring, (square,), square)[0]
                square = powers[k]
        return powers[m]

    def _shift(self, m: int) -> CartierStructure | _Shift:
        """kappa o f^m for a shift m < p, kept per m: for m > 0 its twist
        U f^m packed, each one packed product with f from the shift before."""
        shifts = self._shifts
        while len(shifts) <= m:
            last = shifts[-1]
            shifts.append(_Shift(last.ring, last.rank,
                                 twist_times(last.ring, last.packed(), self._power(1))))
        return shifts[m]

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
        return self._tau((t.numerator, t.denominator), convention)

    def _tau(self, t: Point, convention: str = "ceil_pe") -> TauResult:
        """`tau` at t >= 0 in lowest terms, kept per (t, convention)."""
        key = (t, convention)
        if key not in self._results:
            self._results[key] = self._checked(t, convention)
        return self._results[key]

    def _checked(self, t: Point, convention: str) -> TauResult:
        a, b = t
        if a == 0:
            return self._at_zero
        exact, sweeps = self._value(t, below=False)

        if convention == "ceil_pe_minus_1":
            # the series up to the level cap, and the last level (at least 1)
            # it changed at; the smaller exponents need the test element
            # deepened by f^ceil(t), otherwise the series overshoots tau for
            # t > 1.  Level e adds kappa^e(f^B cD) with
            # B = ceil(t(p^e - 1)) + ceil(t) >= ceil(t p^e), a summand of
            # tau(t) itself, so once the sum reaches tau(t) nothing changes.
            p, value, stable = self.M.ring.p, self.M.pres.N, 1
            for e in range(1, self.cap + 1):
                B = -(-a * (p ** e - 1) // b) - (-a // b)  # ceil(t(p^e - 1)) + ceil(t)
                nxt = value.add(self._kappa_power(e, B)).minimal_gens()
                if e > 1 and nxt != value:
                    stable = e
                value = nxt
                if value == exact:
                    break
            if value == exact:
                return TauResult(value, stable, "series+orbit")
            raise StabilizationCapExceededError(
                f"ceil_pe_minus_1 series not stable within level cap {self.cap}")

        return TauResult(exact, sweeps, "orbit")

    def left_limit(self, t) -> TauResult:
        """tau(M, f^{t - eps}) for all small eps > 0, exact: the orbit system
        of `tau` solved down from tau(0).  It must contain tau(t)."""
        t = Fraction(t)
        if t <= 0:
            raise ValueError("left limit needs t > 0")
        return self._left_limit((t.numerator, t.denominator))

    def _left_limit(self, t: Point) -> TauResult:
        value, sweeps = self._value(t, below=True)
        if not value.contains(self._tau(t).value):
            q = Fraction(*t)
            raise CartierError(f"left limit at {q} does not contain tau({q})")
        return TauResult(value, sweeps, "left-limit")

    def _value(self, t: Point, below: bool) -> tuple[FreeSubmodule, int]:
        """tau at, or just below, t > 0 and its sweep count."""
        self.c  # a refused test element is reported before a zerodivisor f
        self.require_regular()
        a, b = t
        m0 = (a - 1) // b
        value, sweeps = self._solve((a - m0 * b, b), below)
        if m0:
            value = value.scaled(self._power(m0)).add(self.M.pres.N).minimal_gens()
        if not self.D.contains(value):
            raise CartierError("tau escaped the image-stable part; test element invalid")
        return value, sweeps

    def _step(self, m: int, X: FreeSubmodule) -> FreeSubmodule:
        """The orbit relation kappa(f^m X) + N at a point of shift m whose
        successor holds X, kept per (m, X); the systems of tau and of the
        left limit share it.  The seed of shift m is `_step(m + 1, cD)`, and
        each level of the ceil_pe_minus_1 series is a step from the last.  A
        shift m < p spans kappa(f^m X) in one pass, as the root of U f^m X
        with the twist U f^m of `_shift(m)`.  A shift m >= p, the seed of
        shift p - 1, is f times the step of shift m - p, as
        kappa(f^p Y) = f kappa(Y): the span of f^p X directly takes f^p and
        a larger basis.

        The relation of the series is seed(m) + kappa(f^m X); the seed adds
        nothing to it.  Every X that `_solve` steps contains the seed
        kappa(f^(m'+1) cD) + N of its own shift m' <= p - 1: the start values
        are seeds or tau(0), which contains kappa(cD); a solved successor is
        a tau value or a left limit, which contains one; and each step keeps
        this, since from X containing kappa(f^(m'+1) cD),

            kappa(f^m X) contains kappa^2(f^(mp + m' + 1) cD),
            which contains kappa^2(f^((m+1)p) c^p D) = kappa(f^(m+1) c kappa(D)),

        and D = kappa(D) + N with kappa(N) in N gives
        seed(m) = kappa(f^(m+1) cD) + N in kappa(f^m X) + N.
        """
        out = self._steps.get((m, X))
        if out is None:
            p = self.M.ring.p
            if m >= p:
                incoming = self._step(m - p, X).scaled(self._power(1))
            else:
                incoming = kappa_span(self._shift(m), X)
            out = self._steps[m, X] = incoming.add(self.M.pres.N).minimal_gens()
        return out

    def _solve(self, t0: Point, below: bool = False) -> tuple[FreeSubmodule, int]:
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
        index: dict[Point, int] = {}  # the new orbit points, in order
        shifts: list[int] = []
        s = t0
        while s not in solved and s not in index:
            if len(index) == MAX_ORBIT:
                raise StabilizationCapExceededError("orbit of t did not close")
            index[s] = len(index)
            m, s = _next_point(p, s)
            shifts.append(m)
        n = len(shifts)
        after = solved.get(s)
        ahead = 0 if after is None else after.length
        if n + ahead > MAX_ORBIT:
            raise StabilizationCapExceededError("orbit of t did not close")
        X = [self._at_zero.value if below else self._step(m + 1, self.cD) for m in shifts]
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

    def _kappa_power(self, e: int, B: int) -> FreeSubmodule:
        """kappa^e(f^B cD) up to N, for the series, whose sum holds N: one
        base-p digit of B per level, level k the step `_step(digit k-1,
        level k-1)`, so exponents that agree in B mod p^k share level k.
        The part B // p^e of f^B pulls out at the end."""
        p = self.M.ring.p
        Z = self.cD
        for k in range(e):
            Z = self._step(B // p ** k % p, Z)
        b = B // p ** e
        return Z.scaled(self._power(b)) if b else Z

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
        an, ad, bn, bd = a.numerator, a.denominator, b.numerator, b.denominator

        @cache
        def at_or_above(h: int, d: int) -> bool:
            # h/d is a Stern-Brocot node, so in lowest terms
            if h * ad <= an * d or h * bd >= bn * d:
                return h * bd >= bn * d
            v = self._tau((h, d)).value
            if not (va.contains(v) and v.contains(vb)):
                raise CartierError(f"tau not monotone at t={Fraction(h, d)}")
            return v != va

        def run(base, step, side: bool) -> tuple[int, int]:
            # the last node base + k step on `side` of c within the bound, galloping
            def stays(k: int) -> bool:
                h, d = base[0] + k * step[0], base[1] + k * step[1]
                return d <= top and at_or_above(h, d) == side
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
                if R[0] * bd <= bn * R[1] and (left := self._left_limit(R).value) == va:
                    if R[1] <= N or ladder % R[1] == 0:
                        return Fraction(*R), self._tau(R).value, left
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
        ladder = _ladder(self.M.ring.p, self.cap, self.M.ring.p * max_denominator)
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


def _next_point(p: int, s: Point) -> tuple[int, Point]:
    """The shift m and the next point s' of the orbit of s = a/b in (0, 1]:
    p s = m + s' with s' in (0, 1], in lowest terms."""
    a, b = s
    m = (p * a - 1) // b
    a = p * a - m * b
    g = math.gcd(a, b)
    return m, (a // g, b // g)


def _ladder(p: int, cap: int, limit: float = math.inf) -> int:
    """The top rung (p-1) p^k <= limit, k at most the level cap, of the
    ladder of candidate denominators; every lower rung divides it."""
    d = p - 1
    for _ in range(cap):
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


class FptResult(NamedTuple):
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
    ladder = _ladder(p, pair.cap)
    end = pair.tau(hi).value
    if end != full:
        q, value, _ = pair._first_jump(lo, full, hi, end, max_denominator, ladder)
        if value is not None:
            return FptResult(q, lo, hi, level)
        if q <= hi:
            raise FptDivergenceError(f"threshold lies below candidate {q}; grid too coarse")
    raise FptDivergenceError(f"no jump found in the Frobenius window [{lo}, {hi}]")
