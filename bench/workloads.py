"""Seeded query lists for the three benchmark workloads.

Pure data: nothing here imports cartierv.  A query is a JSON-able dict;
the worker turns it into library or CLI calls, the oracles read the same
dict to know what the right answer is.  The same (workload, seed) always
gives the same list, and `digest` fingerprints it.

  scan      in-process `cli.main([...], --json)` calls that scan t on one
            pair: vfilt, jumps, fpt, gr, plus the known-defect cases
  points    independent single tau queries (and the six repro scenarios)
  groebner  reduced bases, intersections, colons, eliminations, syzygies
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
from fractions import Fraction

WORKLOADS = ("scan", "points", "groebner")

# ROADMAP item 4: the left-limit certificate trusts two agreeing probes on
# the p^k (p-1) ladder.  These three queries hit that defect on the seed
# (a wrong certified answer, a wrong certified threshold, a spurious
# raise).  They run in every scan pass and are checked like every other
# query, but a mismatch is reported as `known_wrong` instead of failing
# the run.  The other jumps/fpt inputs stay where the ladder is sound (one
# exponent divides the other; thresholds on the default grid), so that any
# new wrong answer there fails the run.
KNOWN_DEFECTS = (
    {"kind": "cli", "known_defect": True,
     "argv": ["jumps", "--p", "2", "--vars", "x,y", "--f", "x^2*y^21",
              "--range", "0..1/2", "--max-denominator", "12", "--json"],
     "oracle": {"type": "monomial_jumps", "p": 2, "a": 2, "b": 21,
                "lo": "0", "hi": "1/2", "md": 12}},
    {"kind": "cli", "known_defect": True,
     "argv": ["fpt", "--p", "2", "--vars", "x,y", "--f", "x^5", "--json"],
     "oracle": {"type": "fpt", "fpt": "1/5", "p": 2, "md": 4}},
    {"kind": "cli", "known_defect": True,
     "argv": ["jumps", "--p", "2", "--vars", "x,y", "--f", "x^3*y^2",
              "--range", "0..1", "--max-denominator", "6", "--json"],
     "oracle": {"type": "monomial_jumps", "p": 2, "a": 3, "b": 2,
                "lo": "0", "hi": "1", "md": 6}},
)

# test_03's four pairs: (vars, twist, f)
VFILT_PAIRS = (("x", None, "x"), ("x", "x", "x"),
               ("x,y", None, "x^2*y"), ("x,y", None, "x^2+y^3"))


def poly_str(terms: dict[tuple[int, ...], int], names: tuple[str, ...]) -> str:
    """Render {exponents: coeff} in the CLI grammar (natural coefficients)."""
    out = []
    for exps, c in sorted(terms.items(), reverse=True):
        factors = [] if c == 1 else [str(c)]
        for nm, e in zip(names, exps):
            if e:
                factors.append(nm if e == 1 else f"{nm}^{e}")
        out.append("*".join(factors) or str(c))
    return " + ".join(out) or "0"


def monomial_str(a: int, b: int) -> str:
    return poly_str({(a, b): 1}, ("x", "y"))


def _random_terms(rng: random.Random, p: int, n: int, max_deg: int,
                  max_terms: int, nonzero: bool = False) -> dict:
    """Same shape as the test suite's random_poly, as a term dict."""
    terms: dict[tuple[int, ...], int] = {}
    for _ in range(rng.randint(1 if nonzero else 0, max_terms)):
        exps = []
        left = max_deg
        for _ in range(n):
            e = rng.randint(0, left)
            exps.append(e)
            left -= e
        key = tuple(exps)
        terms[key] = (terms.get(key, 0) + rng.randint(1, p - 1)) % p
        if not terms[key]:
            del terms[key]
    if nonzero and not terms:
        terms[(0,) * n] = 1
    return terms


def _add_terms(a: dict, b: dict, p: int) -> dict:
    out = dict(a)
    for m, c in b.items():
        out[m] = (out.get(m, 0) + c) % p
    return {m: c for m, c in out.items() if c}


def _mul_terms(a: dict, b: dict, p: int) -> dict:
    out: dict = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            m = tuple(x + y for x, y in zip(ma, mb))
            out[m] = (out.get(m, 0) + ca * cb) % p
    return {m: c for m, c in out.items() if c}


# -- scan --------------------------------------------------------------------


# Fixed slots; the seed swaps x and y, flips which of two grid sizes each
# convention gets, and shuffles the order.  The inputs (and their digest)
# change with the seed while the work per pass stays put, so a pass's
# timings do not depend on which seed drew it.
# jumps slots (a, b, max_denominator, hi): one exponent divides the other
JUMP_SLOTS = ((0, 1, 2, "3/2"), (0, 3, 3, "1"), (0, 4, 6, "3/2"), (1, 1, 2, "1"),
              (1, 2, 2, "3/2"), (1, 3, 6, "1"), (1, 4, 4, "1"), (1, 6, 6, "3/2"),
              (2, 2, 6, "1"), (2, 4, 4, "3/2"), (2, 6, 6, "1"), (3, 3, 3, "3/2"),
              (3, 6, 6, "3/2"), (4, 4, 4, "1"), (0, 5, 5, "1"), (1, 5, 5, "3/2"),
              (5, 5, 6, "1"), (6, 6, 6, "1"))
FPT_SLOTS = {2: (1, 2, 3, 4, 3, 2), 3: (2, 4, 5, 7, 9, 13)}  # 1/a on the default grid


def scan_queries(rng: random.Random) -> list[dict]:
    qs: list[dict] = []
    for vars_, twist, f in VFILT_PAIRS:
        argv = ["vfilt", "--p", "3", "--vars", vars_, "--f", f,
                "--t-max", "2", "--max-denominator", "18", "--json"]
        if twist:
            argv += ["--twist", twist]
        qs.append({"kind": "cli", "argv": argv,
                   "oracle": {"type": "vfilt", "p": 3, "vars": vars_,
                              "twist": twist, "f": f, "t_max": "2"}})
    for p in (2, 3):
        for a, b, md, hi in JUMP_SLOTS:
            if rng.random() < 0.5:
                a, b = b, a
            qs.append({"kind": "cli",
                       "argv": ["jumps", "--p", str(p), "--vars", "x,y",
                                "--f", monomial_str(a, b), "--range", f"0..{hi}",
                                "--max-denominator", str(md), "--json"],
                       "oracle": {"type": "monomial_jumps", "p": p, "a": a, "b": b,
                                  "lo": "0", "hi": hi, "md": md}})
    for p, value in ((2, "1/2"), (3, "2/3")):
        qs.append({"kind": "cli",
                   "argv": ["fpt", "--p", str(p), "--vars", "x,y",
                            "--f", "x^2+y^3", "--json"],
                   "oracle": {"type": "fpt", "fpt": value, "p": p,
                              "md": p * p * (p - 1)}})
    for p, exponents in FPT_SLOTS.items():
        for a in exponents:
            var = rng.choice(("x", "y"))
            qs.append({"kind": "cli",
                       "argv": ["fpt", "--p", str(p), "--vars", "x,y",
                                "--f", f"{var}^{a}", "--json"],
                       "oracle": {"type": "fpt", "fpt": str(Fraction(1, a)), "p": p,
                                  "md": p * p * (p - 1)}})
    for p in (3, 5, 7):
        sizes = [p - 1, 2 * (p - 1)]
        rng.shuffle(sizes)
        for convention, md in zip(("a", "b"), sizes):
            qs.append({"kind": "cli",
                       "argv": ["gr", "--p", str(p), "--vars", "x", "--twist", "x",
                                "--f", "x", "--range", "0..1", "--max-denominator",
                                str(md), "--convention", convention, "--json"],
                       "oracle": {"type": "gr_twisted_line", "p": p,
                                  "convention": convention}})
    qs.extend(dict(q) for q in KNOWN_DEFECTS)
    rng.shuffle(qs)
    return qs


# -- points ------------------------------------------------------------------


def _twisted_slots() -> list[tuple]:
    """100 fixed (p, n, t, u, f) draws in the style of the test_04/test_05
    generators; slot i has p = (2,3,5)[i % 3], one or two variables, and
    denominators 1..12 in turn."""
    rng = random.Random("points-slots")
    slots = []
    for i in range(100):
        p = (2, 3, 5)[i % 3]
        n = 1 + (i // 3) % 2
        den = 1 + (i // 6) % 12
        t = Fraction(rng.randint(1, 2 * den), den)
        u = _random_terms(rng, p, n, 4, 5, nonzero=True)
        x = {tuple(1 if j == 0 else 0 for j in range(n)): 1}
        # f = x (1 + x g), in the maximal ideal and regular
        f = _mul_terms(x, _add_terms(
            {(0,) * n: 1}, _mul_terms(x, _random_terms(rng, p, n, 2, 5), p), p), p)
        slots.append((p, n, t, u, f))
    return slots


def _scaled(terms: dict, c: int, p: int, swap: bool) -> dict:
    return {(m[::-1] if swap else m): c * v % p for m, v in terms.items()}


def points_queries(rng: random.Random) -> list[dict]:
    """Every tau query gets its own module object in the worker, so nothing
    is shared between queries except the code.  The seed swaps x and y and
    rescales u and f by units (same test modules, same work) and shuffles
    the order."""
    qs: list[dict] = []
    for i, (p, n, t, u, f) in enumerate(_twisted_slots()):
        names = ("x", "y")[:n]
        swap = n == 2 and rng.random() < 0.5
        u = _scaled(u, rng.randint(1, p - 1), p, swap)
        f = _scaled(f, rng.randint(1, p - 1), p, swap)
        module = {"type": "twisted", "p": p, "vars": ",".join(names),
                  "u": poly_str(u, names)}
        convention = ("ceil_pe", "ceil_pe_minus_1")[(i // 2) % 2]
        base = {"kind": "tau", "module": module, "f": poly_str(f, names), "c": None}
        # the pair (t, p t) is tied together by kappa(tau(p t)) = tau(t)
        qs.append({**base, "t": str(t), "convention": convention,
                   "oracle": {"type": "kappa_low", "pair": i}})
        qs.append({**base, "t": str(p * t), "convention": "ceil_pe",
                   "oracle": {"type": "kappa_high", "pair": i}})
    for _ in range(8):
        t = Fraction(rng.randint(0, 12), rng.choice((1, 2, 3, 4)))
        qs.append({"kind": "tau", "module": {"type": "perm2", "p": 3}, "f": "x",
                   "c": "x", "t": str(t), "convention": "ceil_pe",
                   "oracle": {"type": "floor_free", "rank": 2}})
    for p in (2, 3):
        for kind, oracle in (("as_ext", "floor_plus_g"), ("as_pull", "floor_plus_g"),
                             ("as_push", "floor_free")):
            for _ in range(3):
                t = Fraction(rng.randint(0, 10), rng.choice((1, 2, 3, 4, 6)))
                qs.append({"kind": "tau", "module": {"type": kind, "p": p},
                           "f": "x", "c": "x", "t": str(t), "convention": "ceil_pe",
                           "oracle": {"type": oracle, "rank": p}})
    for _ in range(6):
        t = Fraction(rng.randint(0, 10), rng.choice((1, 2, 3, 4)))
        qs.append({"kind": "tau", "module": {"type": "cusp_shriek", "p": 3},
                   "f": "x", "c": "x", "t": str(t), "convention": "ceil_pe",
                   "oracle": {"type": "shriek_containment"}})
    for name in ("ex712", "ex621", "cor79", "prop38", "thm75", "lemma62"):
        qs.append({"kind": "repro", "name": name, "oracle": {"type": "repro"}})
    rng.shuffle(qs)
    return qs


# -- groebner ----------------------------------------------------------------


def _cyclic(n: int) -> list[dict]:
    polys = []
    for k in range(1, n):
        terms: dict = {}
        for i in range(n):
            exps = [0] * n
            for j in range(k):
                exps[(i + j) % n] += 1
            terms[tuple(exps)] = 1
        polys.append(terms)
    polys.append({(1,) * n: 1, (0,) * n: 100})
    return polys


def _katsura(n: int) -> list[dict]:
    nv = n + 1

    def var(i):
        i = abs(i)
        return {tuple(1 if j == i else 0 for j in range(nv)): 1} if i <= n else {}

    polys = []
    lin: dict = {(0,) * nv: 100}
    for i in range(-n, n + 1):
        lin = _add_terms(lin, var(i), 101)
    polys.append(lin)
    for m in range(n):
        acc: dict = {}
        for i in range(-n, n + 1):
            acc = _add_terms(acc, _mul_terms(var(i), var(m - i), 101), 101)
        acc = _add_terms(acc, {k: 100 * c % 101 for k, c in var(m).items()}, 101)
        polys.append(acc)
    return polys


def _names(n: int) -> tuple[str, ...]:
    return tuple(f"x{i}" for i in range(n))


def _basis_query(p: int, names: tuple[str, ...], polys: list[dict], label: str) -> dict:
    return {"kind": "basis", "label": label, "p": p, "vars": ",".join(names),
            "gens": [poly_str(t, names) for t in polys], "oracle": {"type": "sympy_gb"}}


def _units_changed(terms: dict, scales: list[int], unit: int, p: int) -> dict:
    """`terms` under x_i -> scales[i] x_i, times `unit`.  The change of
    variables keeps every monomial and only rescales coefficients, so
    Buchberger takes the same steps on the result."""
    out = {}
    for m, c in terms.items():
        for s, e in zip(scales, m):
            c = c * pow(s, e, p)
        out[m] = c * unit % p
    return out


def groebner_queries(rng: random.Random) -> list[dict]:
    qs = [_basis_query(101, _names(5), _cyclic(5), "cyclic5"),
          _basis_query(101, _names(5), _katsura(4), "katsura4"),
          _basis_query(101, _names(6), _katsura(5), "katsura5")]
    # Dense quadrics and module operations on fixed random draws: the cost
    # of a basis varies from draw to draw (several-fold for the module
    # operations), so the seed only rescales variables and generators by
    # units.
    fixed = random.Random("groebner-slots")
    quad = [m for m in itertools.product(range(3), repeat=4) if sum(m) <= 2]
    for i in range(48):
        p = (5, 7, 11)[i % 3]
        scales = [rng.randint(1, p - 1) for _ in range(4)]
        polys = [_units_changed({m: fixed.randint(1, p - 1) for m in quad}, scales,
                                rng.randint(1, p - 1), p) for _ in range(4)]
        qs.append(_basis_query(p, ("x", "y", "z", "w"), polys, "dense4"))

    def vectors(p: int, names: tuple[str, ...], count: int, scales: list[int]) -> list:
        out = []
        for _ in range(count):
            unit = rng.randint(1, p - 1)
            out.append([poly_str(_units_changed(_random_terms(fixed, p, len(names), 2, 3),
                                                scales, unit, p), names)
                        for _ in range(2)])
        return out

    xy, xyz = ("x", "y"), ("x", "y", "z")
    for i in range(4):
        p = (3, 5)[i % 2]
        scales = [rng.randint(1, p - 1) for _ in xy]
        qs.append({"kind": "intersect", "p": p, "vars": "x,y",
                   "W": vectors(p, xy, 2, scales), "V": vectors(p, xy, 2, scales),
                   "oracle": {"type": "module_relation"}})
    for i in range(4):
        p = (3, 5)[i % 2]
        scales = [rng.randint(1, p - 1) for _ in xy]
        N = vectors(p, xy, 2, scales)
        h = _units_changed(_random_terms(fixed, p, 2, 1, 2, nonzero=True), scales,
                           rng.randint(1, p - 1), p)
        qs.append({"kind": "colon", "p": p, "vars": "x,y", "N": N, "h": poly_str(h, xy),
                   "oracle": {"type": "module_relation"}})
    for i in range(4):
        p = (3, 5)[i % 2]
        scales = [rng.randint(1, p - 1) for _ in xyz]
        qs.append({"kind": "eliminate", "p": p, "vars": "x,y,z",
                   "S": vectors(p, xyz, 3, scales), "elim": [2],
                   "oracle": {"type": "module_relation"}})
    for i in range(4):
        p = (3, 5)[i % 2]
        scales = [rng.randint(1, p - 1) for _ in xy]
        qs.append({"kind": "syzygies", "p": p, "vars": "x,y",
                   "vectors": vectors(p, xy, 3, scales),
                   "oracle": {"type": "module_relation"}})
    rng.shuffle(qs)
    return qs


GENERATORS = {"scan": scan_queries, "points": points_queries,
              "groebner": groebner_queries}


def generate(workload: str, seed: int) -> list[dict]:
    if workload not in GENERATORS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    return GENERATORS[workload](random.Random(f"{workload}:{seed}"))


def digest(queries: list[dict]) -> str:
    blob = json.dumps(queries, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]
