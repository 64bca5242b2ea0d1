"""Named property suites and end-to-end reproduction scenarios.

The suites are randomized checks of the structural identities the rest of
the package relies on; the CLI `check` subcommand and the test suite both
run them.  Reproduction scenarios are fixed worked examples with
hard-coded expected outcomes.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import NamedTuple

from .cartier_mod import (
    CartierModule,
    graph_embed,
    is_F_pure,
    kappa_span,
    make_extension,
    nilpotence_order,
    pullback_etale,
    pushforward_finite,
    pushforward_submodule,
    reduce_from_graph,
    shriek_finite,
    trace_kappa_commutes,
)
from .errors import StabilizationCapExceededError
from .field_poly import Poly, Ring, cartier_trace
from .frobenius import bracket_power, frobenius_root
from .groebner import FreeSubmodule, eliminate, full_module, ideal
from .testmod import Pair, tau
from .vfilt import compute_vfiltration, gr_is_crystal_zero, gr_piece, verify_axioms, vfiltration


class SuiteResult(NamedTuple):
    name: str
    cases: int
    failures: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.failures


def random_poly(rng: random.Random, ring: Ring, max_deg: int,
                max_terms: int = 5, nonzero: bool = False) -> Poly:
    out = ring.zero()
    for _ in range(rng.randint(1 if nonzero else 0, max_terms)):
        exps = []
        left = max_deg
        for _ in range(ring.n):
            e = rng.randint(0, left)
            exps.append(e)
            left -= e
        out = out + ring.monomial(tuple(exps), rng.randint(1, ring.p - 1))
    if nonzero and out.is_zero():
        return ring.one()
    return out


def _random_pair(rng: random.Random, ps=(2, 3, 5)):
    """A twisted polynomial line/plane with f in the maximal ideal."""
    p = rng.choice(ps)
    n = rng.randint(1, 2)
    ring = Ring(p, ("x", "y")[:n])
    x = ring.gens()[0]
    u = random_poly(rng, ring, 3, nonzero=True)
    f = x * (ring.one() + x * random_poly(rng, ring, 2))
    t = Fraction(rng.randint(0, 2 * 12), rng.randint(1, 12))
    return ring, CartierModule.over_ring(ring, u), f, t


def suite_frobenius_recursion(rng: random.Random, cases: int) -> SuiteResult:
    """kappa carries tau at tp onto tau at t."""
    failures = []
    for i in range(cases):
        ring, M, f, t = _random_pair(rng)
        high = tau(M, f, ring.p * t).value
        low = tau(M, f, t).value
        if kappa_span(M.structure, high) != low:
            failures.append(f"case {i}: p={ring.p} f={f.to_str()} t={t}")
    return SuiteResult("prop32", cases, tuple(failures))


def suite_convention_equivalence(rng: random.Random, cases: int) -> SuiteResult:
    """Both exponent conventions compute the same test module."""
    failures = []
    for i in range(cases):
        ring, M, f, t = _random_pair(rng)
        a = tau(M, f, t, convention="ceil_pe").value
        try:
            b = tau(M, f, t, convention="ceil_pe_minus_1").value
        except StabilizationCapExceededError as exc:
            failures.append(f"case {i}: p={ring.p} f={f.to_str()} t={t}: {exc}")
            continue
        if a != b:
            failures.append(f"case {i}: p={ring.p} f={f.to_str()} t={t}")
    return SuiteResult("lemma31", cases, tuple(failures))


def _root_oracle(W: FreeSubmodule, e: int) -> FreeSubmodule:
    """Frobenius root by brute force: the trace of x^{(q-1) - a} g picks out
    the a-th digit of g, so spanning over all digits gives the root."""
    ring = W.ring
    q = ring.p ** e
    gens = []
    for (g,) in W.gens:
        for a in ring.digit_monomials(e):
            mon = ring.monomial(tuple(q - 1 - ai for ai in a))
            h = cartier_trace(mon * g, e)
            if not h.is_zero():
                gens.append(h)
    return ideal(ring, *gens) if gens else ideal(ring, ring.zero())


def suite_root_oracle(rng: random.Random, cases: int) -> SuiteResult:
    """frobenius_root against the digit-trace oracle, plus the adjunction
    W <= J^{[q]} iff W^{[1/q]} <= J."""
    failures = []
    for i in range(cases):
        p = rng.choice((2, 3))
        ring = Ring(p, ("x", "y"))
        e = rng.randint(1, 2)
        W = ideal(ring, *[random_poly(rng, ring, 3, nonzero=True)
                          for _ in range(rng.randint(1, 3))])
        got = frobenius_root(W, e)
        if got != _root_oracle(W, e):
            failures.append(f"case {i}: p={p} e={e} root mismatch")
            continue
        J = ideal(ring, *[random_poly(rng, ring, 3, nonzero=True)
                          for _ in range(rng.randint(1, 2))])
        lhs = bracket_power(J, e).contains(W)
        rhs = J.contains(got)
        if lhs != rhs:
            failures.append(f"case {i}: p={p} e={e} adjunction mismatch")
    return SuiteResult("roots", cases, tuple(failures))


def suite_graph(rng: random.Random, cases: int) -> SuiteResult:
    """tau along (s) of the graph embedding matches tau along (f)."""
    failures = []
    for i in range(cases):
        ring, M, f, t = _random_pair(rng, ps=(2, 3))
        G = graph_embed(M, f)
        s = G.ring.gens()[-1]
        u = M.structure.scalar_twist().map_ring(G.ring)
        got = reduce_from_graph(tau(G, s, t, c=s * u).value, ring, f)
        if got != tau(M, f, t).value:
            failures.append(f"case {i}: p={ring.p} f={f.to_str()} t={t}")
    return SuiteResult("prop38", cases, tuple(failures))


def suite_skoda(rng: random.Random, cases: int) -> SuiteResult:
    """Filtration axioms, including f V^t <= V^{t+1} and the shift
    V^t = f V^{t-1} for t > 1, on random monomial pairs."""
    failures = []
    for i in range(cases):
        p = rng.choice((2, 3))
        n = rng.randint(1, 2)
        ring = Ring(p, ("x", "y")[:n])
        exps = tuple(rng.randint(1, 3) for _ in range(n))
        f = ring.monomial(exps)
        M = CartierModule.over_ring(ring)
        table = compute_vfiltration(M, f, 2, 6)
        report = verify_axioms(M, table)
        for fl in report.failures:
            failures.append(f"case {i}: f={f.to_str()} {fl.axiom} at t={fl.t}")
    return SuiteResult("skoda", cases, tuple(failures))


def suite_trace_commutes(rng: random.Random, cases: int) -> SuiteResult:
    """Field trace commutes with the structures of an etale cover."""
    failures = []
    for p in (2, 3):
        P = Ring(p, ("x", "y"))
        x, y = P.gens()
        ext = make_extension(P, y ** p - y - x)
        samples = [random_poly(rng, P, 4, nonzero=True)
                   for _ in range(max(1, cases // 2))]
        if not trace_kappa_commutes(ext, samples):
            failures.append(f"p={p}: trace does not commute")
    return SuiteResult("lemma72", cases, tuple(failures))


SUITES = {
    "prop32": (suite_frobenius_recursion, 20),
    "lemma31": (suite_convention_equivalence, 20),
    "roots": (suite_root_oracle, 50),
    "prop38": (suite_graph, 8),
    "skoda": (suite_skoda, 4),
    "lemma72": (suite_trace_commutes, 50),
}


def run_suites(names=None, seed: int = 0,
               cases: int | None = None) -> list[SuiteResult]:
    if cases is not None and cases < 1:
        raise ValueError("cases must be >= 1")
    if names is None:
        names = list(SUITES)
    results = []
    for name in names:
        if name not in SUITES:
            raise ValueError(f"unknown suite {name!r}; choose from "
                             f"{', '.join(SUITES)}")
        func, default_cases = SUITES[name]
        rng = random.Random(f"{seed}:{name}")
        results.append(func(rng, cases if cases is not None else default_cases))
    return results


class ReproCheck(NamedTuple):
    name: str
    ok: bool
    detail: str = ""


class ReproResult(NamedTuple):
    scenario: str
    checks: tuple[ReproCheck, ...]

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)


def repro_ex712() -> ReproResult:
    """Twisted line (F_p[x], C o x, f = x): jump at (p-2)/(p-1), value (x)
    up to t = 1, and the graded piece at the jump that is non-nilpotent
    under convention a but nilpotent under convention b."""
    checks = []
    for p in (3, 5, 7):
        R = Ring(p, ("x",))
        x = R.gens()[0]
        M = CartierModule.over_ring(R, x)
        pair = Pair(M, x)
        t0 = Fraction(p - 2, p - 1)
        full = full_module(R, 1)
        checks.append(ReproCheck(
            f"p={p}: tau below the jump is the whole ring",
            pair.tau(t0 / 2).value == full))
        checks.append(ReproCheck(
            f"p={p}: tau equals (x) on [({p - 2})/({p - 1}), 1]",
            pair.tau(t0).value == ideal(R, x)
            and pair.tau(1).value == ideal(R, x)))
        table = vfiltration(pair, 1, p - 1)
        checks.append(ReproCheck(
            f"p={p}: jump set on (0, 1] is {{{t0}}}",
            table.jumps == (t0,)))
        pa = gr_piece(M, table, t0, "a")
        one = (R.one(),)
        fixed = pa.module.pres.reduce(pa.module.structure.apply(one)) == pa.module.pres.reduce(one)
        checks.append(ReproCheck(
            f"p={p}: graded piece at the jump, convention a: generator is fixed",
            fixed and not gr_is_crystal_zero(pa),
            "operator stays the identity on the piece, so it is not nilpotent"))
        pb = gr_piece(M, table, t0, "b")
        checks.append(ReproCheck(
            f"p={p}: graded piece at the jump, convention b: nilpotent in one step",
            nilpotence_order(pb.module) == 1,
            "conventions a and b disagree at this jump"))
    return ReproResult("ex712", tuple(checks))


def repro_ex621() -> ReproResult:
    """Cusp cover of the line (p = 3, y^2 = x^3): the shriek module is not
    F-pure, and the test-module containments through it hold."""
    P = Ring(3, ("x", "y"))
    x, y = P.gens()
    ext = make_extension(P, y ** 2 - x ** 3)
    R = ext.base
    xb = R.gens()[0]
    M = CartierModule.over_ring(R)
    sh = shriek_finite(ext, M)
    shriek_pair, base_pair = Pair(sh, xb, xb), Pair(M, xb)
    checks = [ReproCheck("f^! R not F-pure", not is_F_pure(sh))]
    checks.append(ReproCheck(
        "dual basis element phi_y escapes the structure image",
        not shriek_pair.D.contains_vector((R.zero(), R.one()))))
    incl_ok = True
    trace_ok = True
    for t in (Fraction(0), Fraction(1, 2), Fraction(1), Fraction(3, 2)):
        ts = shriek_pair.tau(t).value
        k = int(t)
        shriek_of_tau = FreeSubmodule(R, 2, [(xb ** k, R.zero()),
                                             (R.zero(), xb ** k)])
        incl_ok = incl_ok and shriek_of_tau.contains(ts)
        ev = ideal(R, *[g[0] for g in ts.gens])
        trace_ok = trace_ok and base_pair.tau(t).value.contains(ev)
    checks.append(ReproCheck(
        "test module of f^! R sits inside f^! of the test module", incl_ok))
    checks.append(ReproCheck(
        "trace carries the shriek test module into the base test module",
        trace_ok))
    return ReproResult("ex621", tuple(checks))


def repro_cor79() -> ReproResult:
    """Smooth principal case: tau(F_p[x], x^t) = (x^floor(t))."""
    checks = []
    ts = (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4),
          Fraction(1), Fraction(3, 2), Fraction(2))
    for p in (2, 3, 5, 7):
        R = Ring(p, ("x",))
        x = R.gens()[0]
        pair = Pair(CartierModule.over_ring(R), x)
        ok = all(pair.tau(t).value == ideal(R, x ** int(t)) for t in ts)
        checks.append(ReproCheck(f"p={p}: tau(x^t) = (x^floor(t)) on the grid", ok))
    return ReproResult("cor79", tuple(checks))


def repro_prop38() -> ReproResult:
    """Graph embedding over R[s]: tau along (s) reduces to tau along (f)."""
    R = Ring(3, ("x",))
    x = R.gens()[0]
    M = CartierModule.over_ring(R)
    checks = []
    for f in (x, x ** 2):
        G = graph_embed(M, f)
        s = G.ring.gens()[-1]
        graph, direct = Pair(G, s, s), Pair(M, f)
        for t in (Fraction(1, 2), Fraction(1)):
            got = reduce_from_graph(graph.tau(t).value, R, f)
            checks.append(ReproCheck(
                f"f={f.to_str()}, t={t}: graph tau reduces to the direct tau",
                got == direct.tau(t).value))
    return ReproResult("prop38", tuple(checks))


def _artin_schreier(p: int):
    P = Ring(p, ("x", "y"))
    x, y = P.gens()
    return make_extension(P, y ** p - y - x), x


def repro_thm75() -> ReproResult:
    """Artin-Schreier cover: pushing the pullback's test module down by
    eliminating y recovers the base test module."""
    checks = []
    ts = (Fraction(1, 4), Fraction(1, 2), Fraction(1), Fraction(3, 2))
    for p in (2, 3):
        ext, x = _artin_schreier(p)
        R = ext.base
        xb = R.gens()[0]
        M = CartierModule.over_ring(R)
        pull, base = Pair(pullback_etale(ext, M), x, x), Pair(M, xb)
        ok = all(
            eliminate(pull.tau(t).value, {1}).map_ring(R) == base.tau(t).value
            for t in ts)
        checks.append(ReproCheck(
            f"p={p}: eliminating y from the pulled-back test module", ok))
    return ReproResult("thm75", tuple(checks))


def repro_lemma62() -> ReproResult:
    """Artin-Schreier cover: the pushforward of the extension-side
    filtration equals the filtration of the pushforward."""
    checks = []
    ts = (Fraction(1, 4), Fraction(1, 2), Fraction(1), Fraction(3, 2))
    for p in (2, 3):
        ext, x = _artin_schreier(p)
        R = ext.base
        xb = R.gens()[0]
        MS = ext.quotient_module()
        up, down = Pair(MS, x, x), Pair(pushforward_finite(ext, MS), xb, xb)
        ok = all(
            pushforward_submodule(ext, up.tau(t).value, 1) == down.tau(t).value
            for t in ts)
        checks.append(ReproCheck(
            f"p={p}: pushforward commutes with the filtration on the grid", ok))
    return ReproResult("lemma62", tuple(checks))


REPROS = {
    "ex712": repro_ex712,
    "ex621": repro_ex621,
    "cor79": repro_cor79,
    "prop38": repro_prop38,
    "thm75": repro_thm75,
    "lemma62": repro_lemma62,
}


def run_repro(name: str) -> ReproResult:
    if name not in REPROS:
        raise ValueError(f"unknown scenario {name!r}; choose from "
                         f"{', '.join(REPROS)}")
    return REPROS[name]()
