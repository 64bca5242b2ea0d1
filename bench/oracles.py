"""Answer checks that do not use cartierv.

Polynomials are parsed from the answer strings into {exponents: coeff}
dicts; ideal comparisons go through sympy's reduced Groebner bases
(grevlex, same variable order, so a reduced basis must match exactly);
submodule membership for rank 2 encodes (f, g) as f e1 + g e2 in an ideal
that also holds e1^2, e1 e2, e2^2.  The Cartier map is recomputed here:
kappa(v) = C(U v), C keeping the terms whose exponents are all = p-1 mod p.

Only answer fields are compared, never `certified` or provenance fields.
`check_all` gives one verdict per query: None when the answer is right,
otherwise a one-line reason.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import sympy

Terms = dict  # {exponent tuple: coeff mod p}


# -- polynomial plumbing -------------------------------------------------------


def parse(text: str, names: tuple[str, ...], p: int) -> Terms:
    out: Terms = {}
    for term in text.replace(" ", "").replace("-", "+-").split("+"):
        if not term:
            continue
        coeff = 1
        exps = [0] * len(names)
        for factor in term.split("*"):
            if factor.lstrip("-").isdigit():
                coeff *= int(factor)
                continue
            name, _, power = factor.partition("^")
            exps[names.index(name)] += int(power) if power else 1
        key = tuple(exps)
        out[key] = (out.get(key, 0) + coeff) % p
    return {m: c for m, c in out.items() if c}


def mul(a: Terms, b: Terms, p: int) -> Terms:
    out: Terms = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            m = tuple(x + y for x, y in zip(ma, mb))
            out[m] = (out.get(m, 0) + ca * cb) % p
    return {m: c for m, c in out.items() if c}


def add(a: Terms, b: Terms, p: int) -> Terms:
    out = dict(a)
    for m, c in b.items():
        out[m] = (out.get(m, 0) + c) % p
    return {m: c for m, c in out.items() if c}


def monomial(exps) -> Terms:
    return {tuple(exps): 1}


def cartier(a: Terms, p: int) -> Terms:
    return {tuple((e - (p - 1)) // p for e in m): c for m, c in a.items()
            if all(e % p == p - 1 for e in m)}


def kappa_span(gens: list[list[Terms]], U: list[list[Terms]], p: int, n: int) -> list[list[Terms]]:
    """Generators of the span of kappa(x^a v), a over the digit monomials."""
    out = []
    for v in gens:
        for a in itertools.product(range(p), repeat=n):
            shifted = [mul(comp, monomial(a), p) for comp in v]
            img = []
            for row in U:
                acc: Terms = {}
                for entry, comp in zip(row, shifted):
                    acc = add(acc, mul(entry, comp, p), p)
                img.append(cartier(acc, p))
            if any(img):
                out.append(img)
    return out


def _expr(terms: Terms, syms) -> sympy.Expr:
    return sympy.Add(*[c * sympy.Mul(*[s ** e for s, e in zip(syms, m)])
                       for m, c in terms.items()])


def _canon(terms: Terms, p: int) -> frozenset:
    return frozenset((m, c % p) for m, c in terms.items() if c % p)


def reduced_basis(polys: list[Terms], n: int, p: int) -> frozenset:
    """sympy's reduced grevlex basis, as a set of canonical term sets."""
    polys = [t for t in polys if t]
    if not polys:
        return frozenset()
    syms = sympy.symbols(f"v0:{n}")
    G = sympy.groebner([_expr(t, syms) for t in polys], *syms, modulus=p, order="grevlex")
    return frozenset(_canon(sympy.Poly(g, *syms, modulus=p).as_dict(), p) for g in G.exprs)


def answer_basis(answer: list, names, p) -> frozenset:
    """A rank-1 answer (list of one-entry generator lists) as canonical sets."""
    return frozenset(_canon(parse(v[0], names, p), p) for v in answer)


def same_ideal(answer: list, polys: list[Terms], names, p) -> bool:
    return answer_basis(answer, names, p) == reduced_basis(polys, len(names), p)


def in_module(vectors: list[list[Terms]], module: list[list[Terms]], n: int, p: int) -> bool:
    """Is every vector in the span of `module` (any rank), via the e-encoding."""
    vectors = [v for v in vectors if any(v)]
    if not vectors:
        return True
    if not module:
        return False
    rank = len(module[0])
    N = n + rank
    syms = sympy.symbols(f"v0:{N}")

    def enc(v):
        acc: Terms = {}
        for i, comp in enumerate(v):
            e = [0] * rank
            e[i] = 1
            acc = add(acc, {m + tuple(e): c for m, c in comp.items()}, p)
        return acc

    gens = [enc(v) for v in module]
    for i in range(rank):
        for j in range(i, rank):
            e = [0] * N
            e[n + i] += 1
            e[n + j] += 1
            gens.append(monomial(e))
    G = sympy.groebner([_expr(g, syms) for g in gens if g], *syms,
                       modulus=p, order="grevlex")
    return all(G.contains(_expr(enc(v), syms)) for v in vectors)


# -- per-query checks ----------------------------------------------------------


def _floor_monomial(t: Fraction, a: int, b: int) -> Terms:
    return monomial((math.floor(t * a), math.floor(t * b)))


def _on_grid(q: Fraction, p: int, md: int, ladder_limit: int | None) -> bool:
    """Is q among cartierv's documented candidates: denominators up to md,
    plus the (p-1) p^k ladder (k <= 6, optionally capped)."""
    ladder = [(p - 1) * p ** k for k in range(7)]
    if ladder_limit is not None:
        ladder = [d for d in ladder if d <= ladder_limit]
    return any((q * d).denominator == 1 for d in list(range(1, md + 1)) + ladder)


def _monomial_jumps(o, ans) -> str | None:
    p, a, b, md = o["p"], o["a"], o["b"], o["md"]
    lo, hi = Fraction(o["lo"]), Fraction(o["hi"])
    names = ("x", "y")
    truth = sorted({Fraction(k, d) for d in (a, b) if d
                    for k in range(math.floor(lo * d) + 1, math.floor(hi * d) + 1)})
    if not all(_on_grid(j, p, md, p * md) for j in truth):
        # a jump off the candidate grid must be refused, never guessed
        return None if ans.get("rc") else "answered although a jump is off the grid"
    if ans.get("rc") != 0:
        return f"exit {ans.get('rc')}"
    res = ans["result"]
    if [Fraction(j) for j in res["jumps"]] != truth:
        return f"jumps {res['jumps']} != {[str(j) for j in truth]}"
    if answer_basis([[g] for g in res["baseline"]], names, p) != {_canon(_floor_monomial(lo, a, b), p)}:
        return "baseline differs from the monomial formula"
    for j, value in zip(truth, res["values"]):
        if answer_basis([[g] for g in value], names, p) != {_canon(_floor_monomial(j, a, b), p)}:
            return f"value at {j} differs from the monomial formula"
    return None


def _fpt(o, ans) -> str | None:
    value = Fraction(o["fpt"])
    if not _on_grid(value, o["p"], o["md"], None):
        return None if ans.get("rc") else "answered although the threshold is off the grid"
    if ans.get("rc") != 0:
        return f"exit {ans.get('rc')}"
    res = ans["result"]
    if Fraction(res["fpt"]) != value:
        return f"fpt {res['fpt']} != {value}"
    lo, hi = (Fraction(x) for x in res["nu_interval"])
    if not lo <= value <= hi:
        return "nu interval does not bracket the threshold"
    return None


def _vfilt(o, ans) -> str | None:
    if ans.get("rc") != 0:
        return f"exit {ans.get('rc')}"
    p = o["p"]
    names = tuple(o["vars"].split(","))
    n = len(names)
    res = ans["result"]
    f = parse(o["f"], names, p)
    u = parse(o["twist"], names, p) if o["twist"] else monomial((0,) * n)
    wrap = lambda gens: [[g] for g in gens]  # noqa: E731
    jumps = [Fraction(j) for j in res["jumps"]]
    v0 = wrap(res["v0"])
    values = [wrap(v) for v in res["values"]]
    if not res["axioms"]["ok"]:
        return "axioms reported failing"
    if answer_basis(v0, names, p) != {_canon(monomial((0,) * n), p)}:
        return "V^0 is not the whole ring"
    for i, lim in enumerate(res["left_limits"]):
        prev = v0 if i == 0 else values[i - 1]
        if answer_basis(wrap(lim), names, p) != answer_basis(prev, names, p):
            return f"left limit at {jumps[i]} is not the previous value"

    def value_at(t):
        out = v0
        for j, v in zip(jumps, values):
            if j <= t:
                out = v
        return out

    def as_terms(v):
        return [parse(g[0], names, p) for g in v]

    # closed forms V^t = prod x_i^floor(alpha_i t + beta_i), as (alpha, beta) pairs
    closed = {("x", None, "x"): [(1, 0)],
              ("x", "x", "x"): [(1, Fraction(1, p - 1))],
              ("x,y", None, "x^2*y"): [(2, 0), (1, 0)]}
    t_max = Fraction(o["t_max"])
    points = sorted({Fraction(0), t_max, *jumps,
                     *((a + b) / 2 for a, b in zip([Fraction(0), *jumps], [*jumps, t_max]))})
    form = closed.get((o["vars"], o["twist"], o["f"]))
    if form is not None:
        truth = sorted({Fraction(k) / al - Fraction(be) / al for al, be in form
                        for k in range(1, math.floor(al * t_max + be) + 1)
                        if 0 < (k - Fraction(be)) / al <= t_max})
        if jumps != truth:
            return f"jumps {res['jumps']} != {[str(j) for j in truth]}"
        for t in points:
            want = monomial(tuple(math.floor(al * t + be) for al, be in form))
            if answer_basis(value_at(t), names, p) != {_canon(want, p)}:
                return f"V^{t} differs from the closed form"
    elif not jumps or jumps[0] != Fraction(2, 3):  # the cusp at p = 3
        return "first jump is not the F-pure threshold 2/3"
    for t in points:
        if p * t <= t_max:
            img = kappa_span([[g] for g in as_terms(value_at(p * t))], [[u]], p, n)
            if not same_ideal(value_at(t), [v[0] for v in img], names, p):
                return f"kappa(V^{p * t}) != V^{t}"
        if t > 1:
            shifted = [mul(f, g, p) for g in as_terms(value_at(t - 1))]
            if not same_ideal(value_at(t), shifted, names, p):
                return f"V^{t} != f V^{t - 1}"
    return None


def _gr_twisted_line(o, ans) -> str | None:
    if ans.get("rc") != 0:
        return f"exit {ans.get('rc')}"
    p, convention = o["p"], o["convention"]
    expect = [{"t": str(Fraction(p - 2, p - 1)),
               "twist_exponent": p - 2 if convention == "a" else p - 1,
               "zero_piece": False, "crystal_zero": convention == "b",
               "numerator": ["1"], "denominator": ["x"]}]
    got = ans["result"]["pieces"]
    return None if got == expect else f"pieces {got} != {expect}"


SCAN_CHECKS = {"monomial_jumps": _monomial_jumps, "fpt": _fpt, "vfilt": _vfilt,
               "gr_twisted_line": _gr_twisted_line}


def _module_vectors(answer, names, p) -> list[list[Terms]]:
    return [[parse(e, names, p) for e in v] for v in answer]


def _points_check(q, ans, partner) -> str | None:
    o = q["oracle"]
    if isinstance(ans, dict) and "error" in ans:
        return f"raised {ans['error']}: {ans['detail']}"
    kind = o["type"]
    if kind == "repro":
        return None if ans["ok"] and all(ok for _, ok in ans["checks"]) else "repro verdict failed"
    spec = q["module"]
    p = spec["p"]
    t = Fraction(q["t"])
    k = math.floor(t)
    if kind == "kappa_high":
        return None  # checked from its partner, the low query
    if kind == "kappa_low":
        names = tuple(spec["vars"].split(","))
        n = len(names)
        u = parse(spec["u"], names, p)
        high = _module_vectors(partner, names, p)
        img = kappa_span(high, [[u]], p, n)
        ok = same_ideal(ans, [v[0] for v in img], names, p)
        return None if ok else f"kappa(tau({p * t})) != tau({t})"
    if kind == "floor_free":
        names = ("x",)
        rank = o["rank"]
        want = {tuple(_canon(monomial((k,)) if i == j else {}, p) for j in range(rank))
                for i in range(rank)}
        got = {tuple(_canon(c, p) for c in v) for v in _module_vectors(ans, names, p)}
        return None if got == want else f"tau differs from x^{k} times the free module"
    if kind == "floor_plus_g":
        names = ("x", "y")
        g = parse(f"y^{p} + {p - 1}*y + {p - 1}*x", names, p)
        ok = same_ideal(ans, [monomial((k, 0)), g], names, p)
        return None if ok else f"tau differs from (x^{k}, y^p - y - x)"
    if kind == "shriek_containment":
        vecs = _module_vectors(ans, ("x",), p)
        ok = all(m[0] >= k for v in vecs for comp in v for m in comp)
        return None if ok else f"tau not inside x^{k} f^!R"
    return f"no oracle for {kind}"


def _groebner_check(q, ans) -> str | None:
    if isinstance(ans, dict) and "error" in ans:
        return f"raised {ans['error']}: {ans['detail']}"
    p = q["p"]
    names = tuple(q["vars"].split(","))
    n = len(names)
    if q["kind"] == "basis":
        ok = same_ideal(ans, [parse(g, names, p) for g in q["gens"]], names, p)
        return None if ok else "reduced basis differs from sympy's"
    got = _module_vectors(ans, names, p)
    vecs = lambda rows: [[parse(e, names, p) for e in r] for r in rows]  # noqa: E731
    if q["kind"] == "intersect":
        ok = in_module(got, vecs(q["W"]), n, p) and in_module(got, vecs(q["V"]), n, p)
        return None if ok else "intersection not inside both inputs"
    if q["kind"] == "colon":
        h = parse(q["h"], names, p)
        N = vecs(q["N"])
        ok = (in_module([[mul(h, c, p) for c in v] for v in got], N, n, p)
              and in_module(N, got, n, p))
        return None if ok else "colon fails h (N:h) <= N <= (N:h)"
    if q["kind"] == "eliminate":
        free = all(m[i] == 0 for v in got for c in v for m in c for i in q["elim"])
        ok = free and in_module(got, vecs(q["S"]), n, p)
        return None if ok else "elimination result not inside the input, or not free of the variables"
    if q["kind"] == "syzygies":
        vs = vecs(q["vectors"])
        for s in got:
            for comp in range(2):
                acc: Terms = {}
                for coeff, v in zip(s, vs):
                    acc = add(acc, mul(coeff, v[comp], p), p)
                if acc:
                    return "a returned syzygy does not vanish"

        def minor(a, b):
            return add(mul(a[0], b[1], p), {m: -c % p for m, c in mul(a[1], b[0], p).items()}, p)

        # three vectors in rank 2: the signed 2x2 minors form a syzygy (Cramer)
        v1, v2, v3 = vs
        cramer = [minor(v2, v3), {m: -c % p for m, c in minor(v1, v3).items()}, minor(v1, v2)]
        return None if in_module([cramer], got, n, p) else "the Cramer syzygy is missing"
    return f"no oracle for {q['kind']}"


def check_all(workload: str, queries: list[dict], answers: list) -> list[str | None]:
    """One verdict per query: None when right, else the reason."""
    if workload == "scan":
        return [SCAN_CHECKS[q["oracle"]["type"]](q["oracle"], a) for q, a in zip(queries, answers)]
    if workload == "points":
        highs = {q["oracle"]["pair"]: a for q, a in zip(queries, answers)
                 if q["oracle"]["type"] == "kappa_high"}
        out = []
        for q, a in zip(queries, answers):
            partner = highs.get(q["oracle"].get("pair"))
            if q["oracle"]["type"] == "kappa_low" and isinstance(partner, dict):
                out.append(f"partner query raised {partner.get('error')}")
                continue
            out.append(_points_check(q, a, partner))
        return out
    return [_groebner_check(q, a) for q, a in zip(queries, answers)]
