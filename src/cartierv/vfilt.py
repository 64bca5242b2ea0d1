"""V-filtrations along a principal element and their graded pieces.

A V-filtration is the `FiltrationTable` of t -> tau(M, f^t) on [0, t_max]:
its jumps together with the values and left limits, so V^t lookups are
piecewise constant and right continuous.  The axioms checked against a
table:

  (i)   the value at 0 is the module test submodule and the filtration is
        continuous at 0,
  (ii)  f stays injective on every piece,
  (iii) V^t = f V^{t-1} for t > 1,
  (iv)  kappa(V^{pt}) = V^t,
  (BS)  f V^t <= V^{t+1},
  (orbit-closure) every jump c in (0, 1] has T(c) = p c - ceil(p c) + 1
        as a jump too, since tau(c) = kappa(f^m tau(T(c))) with
        p c = m + T(c): constant just below T(c) means constant just below
        c.  For test ideals this is the fact that p alpha is an F-jumping
        number whenever alpha is one (Blickle-Mustata-Smith).

Graded pieces carry the structure twisted by f^ceil(t(p-1)) (convention
"a") or f^(floor(t(p-1))+1) (convention "b"); the two differ exactly when
t(p-1) is an integer, which is also where only convention "a" matches the
quotient structure of the embedded zero locus.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

from .cartier_mod import (
    CartierModule,
    CartierMorphism,
    is_nilpotent,
    kappa_span,
    kernel_presentation,
    morphism_check,
)
from .errors import NotFRegularError
from .field_poly import Poly
from .groebner import QuotientPresentation, injective_on, unit_vector
from .testmod import FiltrationTable, Pair, tau

GR_CONVENTIONS = ("a", "b")


def compute_vfiltration(M: CartierModule, f: Poly, t_max, max_denominator: int,
                        c: Poly | None = None, e_cap: int | None = None) -> FiltrationTable:
    """Tabulate V^t = tau(M, f^t) on [0, t_max]; see `vfiltration`."""
    return vfiltration(Pair(M, f, c, e_cap), t_max, max_denominator)


def vfiltration(pair: Pair, t_max, max_denominator: int) -> FiltrationTable:
    """The V-filtration of a pair on [0, t_max], from the pair's memos.

    Refuses pairs where f is a zerodivisor and modules that are not
    F-regular for the chosen test element, since the filtration axioms are
    only guaranteed from that position.  F-regularity is read off the
    pair's value at 0, the sum over cD: when the sum over cW contains W,
    W is image-stable, so D = W and the two sums coincide.  The table is
    the pair's scan of [0, t_max].
    """
    pair.require_regular()
    if not pair.tau(0).value.contains(pair.M.pres.W):
        raise NotFRegularError("module is not F-regular; filtration not tabulated")
    return pair.jumping_numbers(0, t_max, max_denominator)


class AxiomFailure(NamedTuple):
    axiom: str
    t: Fraction
    detail: str


class AxiomReport(NamedTuple):
    failures: tuple[AxiomFailure, ...]

    @property
    def ok(self) -> bool:
        return not self.failures


def _axiom_grid(table: FiltrationTable) -> list[Fraction]:
    points = {table.t_min, table.t_max}
    points.update(table.jumps)
    ordered = sorted(points)
    mids = [(a + b) / 2 for a, b in zip(ordered, ordered[1:])]
    return sorted(set(ordered) | set(mids))


def verify_axioms(M: CartierModule, table: FiltrationTable,
                  c: Poly | None = None) -> AxiomReport:
    """Check the filtration axioms for every tabulated piece, pinpointing
    the parameter values where a claim fails.  The table may start at any
    t_min: V^{t_min} is compared with tau there, and each axiom is checked
    only where every value it reads lies in [t_min, t_max]."""
    f = table.f
    p = M.ring.p
    N = M.pres.N
    failures: list[AxiomFailure] = []
    grid = _axiom_grid(table)

    # a fresh pair: the scan's own would compare V^{t_min} with its memo
    base = tau(M, f, table.t_min, c).value
    if base != table.v0:
        failures.append(AxiomFailure("zero-value", table.t_min,
                                     "tabulated V^0 differs from tau at 0"))
    if table.jumps:
        first = table.jumps[0]
        if table.left_value_at(first) != table.v0:
            failures.append(AxiomFailure("continuity-at-0", first,
                                         "filtration not constant near 0"))

    injective = {}  # per value: a midpoint shares the value of the jump to its left
    for t in grid:
        V = table.value_at(t)
        if V not in injective:
            injective[V] = injective_on(f, V, N)
        if not injective[V]:
            failures.append(AxiomFailure("injectivity", t,
                                         "f kills a nonzero element of V^t"))

    for t in grid:
        if t <= 1 or t - 1 < table.t_min:
            continue
        expect = table.value_at(t - 1).scaled(f).add(N)
        if table.value_at(t) != expect:
            failures.append(AxiomFailure("shift", t, "V^t != f V^{t-1}"))

    for t in grid:
        if p * t > table.t_max:
            continue
        img = kappa_span(M.structure, table.value_at(p * t)).add(N)
        if img != table.value_at(t):
            failures.append(AxiomFailure("frobenius", t,
                                         "kappa(V^{pt}) != V^t"))

    for t in grid:
        if t + 1 > table.t_max:
            continue
        if not table.value_at(t + 1).contains(table.value_at(t).scaled(f)):
            failures.append(AxiomFailure("briancon-skoda", t,
                                         "f V^t not inside V^{t+1}"))

    for c in table.jumps:
        s = p * c - math.ceil(p * c) + 1
        if c <= 1 and table.t_min < s <= table.t_max and s not in table.jumps:
            failures.append(AxiomFailure("orbit-closure", s,
                                         f"the jump {c} maps to {s}, which is not a jump"))

    return AxiomReport(tuple(failures))


class GrPiece(NamedTuple):
    t: Fraction
    convention: str
    twist_exponent: int
    module: CartierModule

    def is_zero_piece(self) -> bool:
        return self.module.pres.is_zero_module()


def gr_twist_exponent(t: Fraction, p: int, convention: str) -> int:
    scaled = t * (p - 1)
    if convention == "a":
        return max(0, math.ceil(scaled))
    return max(0, math.floor(scaled) + 1)


def gr_piece(M: CartierModule, table: FiltrationTable, t,
             convention: str = "a") -> GrPiece:
    """Gr^t = V^{t-}/V^t with the structure twisted by a power of f."""
    if convention not in GR_CONVENTIONS:
        raise ValueError(f"unknown convention {convention!r}")
    t = Fraction(t)
    exp = gr_twist_exponent(t, M.ring.p, convention)
    num = table.left_value_at(t)
    den = table.value_at(t)
    structure = M.structure.twisted(table.f ** exp)
    module = CartierModule(QuotientPresentation(num, den), structure)
    return GrPiece(t, convention, exp, module)


def gr_range(M: CartierModule, table: FiltrationTable,
             convention: str = "a") -> tuple[GrPiece, ...]:
    return tuple(gr_piece(M, table, j, convention) for j in table.jumps)


def gr_is_crystal_zero(piece: GrPiece) -> bool:
    """A piece is zero as a crystal exactly when its structure is nilpotent."""
    return is_nilpotent(piece.module)


def mu_f_check(M: CartierModule, table: FiltrationTable, t,
               convention: str = "a") -> bool:
    """Multiplication by f as a structure-compatible map Gr^t -> Gr^{t+1}.

    The twists differ by f^{p-1}, which is exactly what commutes
    multiplication by f past kappa, so this must come out True.
    """
    t = Fraction(t)
    src = gr_piece(M, table, t, convention)
    tgt = gr_piece(M, table, t + 1, convention)
    matrix = [unit_vector(M.ring, M.rank, i, table.f) for i in range(M.rank)]
    phi = CartierMorphism(src.module, tgt.module, matrix)
    ok, _ = morphism_check(phi)
    return ok


def kappa_gr_surjection_check(M: CartierModule, table: FiltrationTable, t) -> bool:
    """kappa carries the pieces at pt onto the pieces at t (both the value
    and its left limit)."""
    t = Fraction(t)
    p = M.ring.p
    if p * t > table.t_max:
        raise ValueError("pt outside the tabulated range")
    N = M.pres.N
    top = kappa_span(M.structure, table.left_value_at(p * t)).add(N)
    bot = kappa_span(M.structure, table.value_at(p * t)).add(N)
    return top == table.left_value_at(t) and bot == table.value_at(t)


class ComparisonReport(NamedTuple):
    status: str  # "pass" | "fail" | "inapplicable"
    detail: str


def compare_with_ishriek(M: CartierModule, table: FiltrationTable,
                         convention: str = "a") -> ComparisonReport:
    """Match Gr^1 against the zero locus of f inside M.

    The closed-immersion structure on W/(N + fW) is kappa twisted by
    f^{p-1}; convention "a" at t = 1 produces the same twist, so the
    inclusion of pieces must be a structure map with nilpotent kernel.
    Convention "b" twists by f^p and the comparison does not apply.
    """
    if convention != "a":
        return ComparisonReport(
            "inapplicable", "only convention a matches the quotient twist f^{p-1}")
    if table.t_max < 1:
        return ComparisonReport("inapplicable", "table does not reach t = 1")
    piece = gr_piece(M, table, Fraction(1), "a")
    f = table.f
    quotient = CartierModule(
        QuotientPresentation(M.pres.W, M.pres.N.add(M.pres.W.scaled(f))),
        M.structure.twisted(f ** (M.ring.p - 1)))
    identity = [unit_vector(M.ring, M.rank, i) for i in range(M.rank)]
    phi = CartierMorphism(piece.module, quotient, identity)
    ok, why = morphism_check(phi)
    if not ok:
        return ComparisonReport("fail", why)
    if not is_nilpotent(kernel_presentation(phi)):
        return ComparisonReport("fail", "kernel of Gr^1 -> zero-locus piece "
                                        "is not nilpotent")
    return ComparisonReport("pass", "Gr^1 embeds into the zero-locus piece "
                                    "up to nilpotents")


def gr_of_morphism(phi: CartierMorphism, table_src: FiltrationTable,
                   table_tgt: FiltrationTable, t,
                   convention: str = "a") -> tuple[CartierMorphism, bool]:
    """Induced map on graded pieces, with its compatibility verdict."""
    t = Fraction(t)
    src = gr_piece(phi.source, table_src, t, convention)
    tgt = gr_piece(phi.target, table_tgt, t, convention)
    induced = CartierMorphism(src.module, tgt.module, phi.matrix)
    ok, _ = morphism_check(induced)
    return induced, ok
