"""Groebner bases for ideals and submodules of free modules over F_p[x_1..x_n].

Plain Buchberger with normal pair selection and the product criterion (the
latter only for ideals, where it is valid), full tail reduction, and unique
reduced bases used as canonical forms everywhere.  Module terms (component,
monomial) are compared position-over-term with component 0 strongest; when an
elimination block is present the block degree dominates everything including
the component, which is what makes elimination work for submodules too.

Vectors are tuples of Poly.  The engine itself works on flat dicts keyed by
(component, monomial).
"""

from __future__ import annotations

import heapq
from typing import Iterable, Sequence

from .errors import RankMismatchError, RingMismatchError
from .field_poly import Monomial, Poly, Ring, grevlex_key, mon_div, mon_lcm, mon_mul

Vec = tuple[Poly, ...]
_Term = tuple[int, Monomial]


class TermOrder:
    """grevlex or lex, optionally with a leading elimination block."""

    __slots__ = ("kind", "elim")

    def __init__(self, kind: str = "grevlex", elim: Iterable[int] = ()):
        if kind not in ("grevlex", "lex"):
            raise ValueError(f"unknown order kind {kind!r}")
        self.kind = kind
        self.elim = frozenset(elim)

    def signature(self):
        return (self.kind, tuple(sorted(self.elim)))

    def _base(self, mon: Monomial):
        return mon if self.kind == "lex" else grevlex_key(mon)

    def module_key(self, comp: int, mon: Monomial):
        if self.elim:
            return (sum(mon[i] for i in self.elim), -comp, self._base(mon))
        return (-comp, self._base(mon))

    def __repr__(self):
        return f"TermOrder({self.kind!r}, elim={sorted(self.elim)})"


GREVLEX = TermOrder("grevlex")
LEX = TermOrder("lex")


# -- flat dict plumbing ------------------------------------------------------


def _vec_to_dict(v: Vec) -> dict[_Term, int]:
    out: dict[_Term, int] = {}
    for i, f in enumerate(v):
        for m, c in f.terms.items():
            out[(i, m)] = c
    return out


def _dict_to_vec(ring: Ring, rank: int, d: dict[_Term, int]) -> Vec:
    comps: list[dict[Monomial, int]] = [dict() for _ in range(rank)]
    for (i, m), c in d.items():
        comps[i][m] = c
    return tuple(Poly(ring, t) for t in comps)


def _lead(d: dict[_Term, int], mk) -> tuple[_Term, int]:
    t = max(d, key=lambda cm: mk(*cm))
    return t, d[t]


def _sub_scaled(target: dict[_Term, int], src: dict[_Term, int], mon: Monomial,
                coeff: int, p: int) -> None:
    for (i, m), c in src.items():
        t = (i, mon_mul(m, mon))
        v = (target.get(t, 0) - coeff * c) % p
        if v:
            target[t] = v
        else:
            target.pop(t, None)


def _normal_form_dict(d: dict[_Term, int], basis: list[tuple[dict[_Term, int], _Term, int]],
                      mk, p: int) -> dict[_Term, int]:
    """Full reduction: every term of the result is outside the leading ideal."""
    rem: dict[_Term, int] = {}
    work = dict(d)
    while work:
        (comp, mon), c = _lead(work, mk)
        hit = None
        for bd, (bcomp, bmon), bcoeff in basis:
            if bcomp != comp:
                continue
            q = mon_div(mon, bmon)
            if q is not None:
                hit = (bd, q, (c * pow(bcoeff, p - 2, p)) % p)
                break
        if hit is None:
            rem[(comp, mon)] = c
            del work[(comp, mon)]
        else:
            bd, q, factor = hit
            _sub_scaled(work, bd, q, factor, p)
    return rem


def _buchberger(ring: Ring, rank: int, gens: Sequence[dict[_Term, int]],
                order: TermOrder) -> list[tuple[dict[_Term, int], _Term, int]]:
    """Returns the reduced basis as (dict, lead term, lead coeff) triples,
    sorted by decreasing lead key with monic leads."""
    p = ring.p
    mk = order.module_key
    basis: list[tuple[dict[_Term, int], _Term, int]] = []
    for g in gens:
        g = _normal_form_dict(g, basis, mk, p)
        if g:
            lt, lc = _lead(g, mk)
            basis.append((g, lt, lc))

    pairs: list[tuple[int, int, int, int]] = []
    counter = 0

    def push_pairs(j: int):
        nonlocal counter
        _, (cj, mj), _ = basis[j]
        for i in range(j):
            _, (ci, mi), _ = basis[i]
            if ci != cj:
                continue
            lcm = mon_lcm(mi, mj)
            if rank == 1 and lcm == mon_mul(mi, mj):
                continue  # product criterion, ideals only
            heapq.heappush(pairs, (sum(lcm), counter, i, j))
            counter += 1

    for j in range(len(basis)):
        push_pairs(j)

    while pairs:
        _, _, i, j = heapq.heappop(pairs)
        di, (ci, mi), lci = basis[i]
        dj, (cj, mj), lcj = basis[j]
        lcm = mon_lcm(mi, mj)
        s: dict[_Term, int] = {}
        _sub_scaled(s, di, mon_div(lcm, mi), pow(lci, p - 2, p), p)
        _sub_scaled(s, dj, mon_div(lcm, mj), -pow(lcj, p - 2, p) % p, p)
        r = _normal_form_dict(s, basis, mk, p)
        if r:
            lt, lc = _lead(r, mk)
            basis.append((r, lt, lc))
            push_pairs(len(basis) - 1)

    # minimalize: drop elements whose lead is divisible by another kept lead;
    # for equal leads the earliest element wins
    minimal: list[tuple[dict[_Term, int], _Term, int]] = []
    for i, bi in enumerate(basis):
        _, (ci, mi), _ = bi
        dominated = False
        for j, bj in enumerate(basis):
            if i == j:
                continue
            _, (cj, mj), _ = bj
            if cj == ci and mon_div(mi, mj) is not None and (mi != mj or j < i):
                dominated = True
                break
        if not dominated:
            minimal.append(bi)

    # tail-reduce each against the others and make leads monic
    reduced: list[tuple[dict[_Term, int], _Term, int]] = []
    for i, (d, lt, lc) in enumerate(minimal):
        others = [minimal[j] for j in range(len(minimal)) if j != i]
        r = _normal_form_dict(d, others, mk, p)
        if not r:
            continue
        lt2, lc2 = _lead(r, mk)
        inv = pow(lc2, p - 2, p)
        r = {t: (c * inv) % p for t, c in r.items()}
        reduced.append((r, lt2, 1))
    reduced.sort(key=lambda b: mk(*b[1]), reverse=True)
    return reduced


# -- public wrapper ----------------------------------------------------------


class FreeSubmodule:
    """Finitely generated submodule of R^rank, with cached reduced bases.

    The basis cache is written once per term order and treated as immutable
    afterwards.
    """

    __slots__ = ("ring", "rank", "gens", "_gb")

    def __init__(self, ring: Ring, rank: int, gens: Iterable[Vec]):
        if rank < 1:
            raise RankMismatchError("rank must be >= 1")
        clean: list[Vec] = []
        for v in gens:
            v = tuple(v)
            if len(v) != rank:
                raise RankMismatchError(f"vector of length {len(v)}, rank {rank}")
            for f in v:
                if not isinstance(f, Poly) or f.ring != ring:
                    raise RingMismatchError("generator component over wrong ring")
            if any(f.terms for f in v) and v not in clean:
                clean.append(v)
        self.ring = ring
        self.rank = rank
        self.gens = tuple(clean)
        self._gb: dict[tuple, list] = {}

    # -- bases -------------------------------------------------------------

    def _basis(self, order: TermOrder = GREVLEX) -> list[tuple[dict, _Term, int]]:
        sig = order.signature()
        if sig not in self._gb:
            self._gb[sig] = _buchberger(self.ring, self.rank,
                                        [_vec_to_dict(v) for v in self.gens], order)
        return self._gb[sig]

    def groebner(self, order: TermOrder = GREVLEX) -> tuple[Vec, ...]:
        return tuple(_dict_to_vec(self.ring, self.rank, d) for d, _, _ in self._basis(order))

    def normal_form(self, v: Vec, order: TermOrder = GREVLEX) -> Vec:
        v = tuple(v)
        if len(v) != self.rank:
            raise RankMismatchError(f"vector of length {len(v)}, rank {self.rank}")
        r = _normal_form_dict(_vec_to_dict(v), self._basis(order), order.module_key, self.ring.p)
        return _dict_to_vec(self.ring, self.rank, r)

    # -- predicates ----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.gens

    def contains_vector(self, v: Vec) -> bool:
        return all(f.is_zero() for f in self.normal_form(v))

    def contains(self, other: "FreeSubmodule") -> bool:
        self._compat(other)
        return all(self.contains_vector(v) for v in other.gens)

    def __eq__(self, other):
        if not isinstance(other, FreeSubmodule):
            return NotImplemented
        return (self.ring == other.ring and self.rank == other.rank
                and self.groebner() == other.groebner())

    def __hash__(self):
        raise TypeError("FreeSubmodule is not hashable")

    def _compat(self, other: "FreeSubmodule"):
        if self.ring != other.ring:
            raise RingMismatchError(f"{self.ring} vs {other.ring}")
        if self.rank != other.rank:
            raise RankMismatchError(f"rank {self.rank} vs {other.rank}")

    # -- constructions ---------------------------------------------------------

    def add(self, other: "FreeSubmodule") -> "FreeSubmodule":
        self._compat(other)
        return FreeSubmodule(self.ring, self.rank, self.gens + other.gens)

    def add_vectors(self, vecs: Iterable[Vec]) -> "FreeSubmodule":
        return FreeSubmodule(self.ring, self.rank, self.gens + tuple(vecs))

    def scaled(self, g: Poly) -> "FreeSubmodule":
        """The submodule g * self."""
        return FreeSubmodule(self.ring, self.rank,
                             [tuple(g * f for f in v) for v in self.gens])

    def minimal_gens(self) -> "FreeSubmodule":
        """Same submodule, generated by its reduced basis."""
        return FreeSubmodule(self.ring, self.rank, self.groebner())

    def map_ring(self, target: Ring) -> "FreeSubmodule":
        """The same generators in target, variables matched by name."""
        return FreeSubmodule(target, self.rank,
                             [tuple(f.map_ring(target) for f in v) for v in self.gens])

    def intersect(self, other: "FreeSubmodule") -> "FreeSubmodule":
        """W cap V, by eliminating t from t*W + (1-t)*V over R[t]."""
        self._compat(other)
        one, zero = self.ring.one(), self.ring.zero()
        return _eliminate_fresh(self.ring, self.rank,
                                [(zero, one, self.gens), (one, -one, other.gens)])

    def colon_element(self, h: Poly) -> "FreeSubmodule":
        """(self : h) = {v : h v in self}."""
        if h.is_zero():
            raise ValueError("colon by zero")
        free_h = FreeSubmodule(self.ring, self.rank,
                               [unit_vector(self.ring, self.rank, i, h) for i in range(self.rank)])
        meet = self.intersect(free_h)
        quot = []
        for v in meet.gens:
            comps = tuple(f.div_exact(h) for f in v)
            if any(c is None for c in comps):
                raise ArithmeticError("colon division failed; intersection not in h*R^r")
            quot.append(comps)
        return FreeSubmodule(self.ring, self.rank, quot)

    def saturate_element(self, h: Poly) -> "FreeSubmodule":
        """(self : h^inf), at every rank by the Rabinowitsch trick: eliminate
        t from self*R[t] + (1 - t h)*R[t]^rank."""
        if h.is_zero():
            raise ValueError("saturation by zero")
        one = self.ring.one()
        return _eliminate_fresh(self.ring, self.rank,
                                [(one, self.ring.zero(), self.gens),
                                 (one, -h, full_module(self.ring, self.rank).gens)])

    def __repr__(self):
        gens = ", ".join("(" + ", ".join(f.to_str() for f in v) + ")" for v in self.gens[:4])
        more = "..." if len(self.gens) > 4 else ""
        return f"<submodule of {self.ring}^{self.rank}: {gens}{more}>"


def unit_vector(ring: Ring, rank: int, i: int, f: Poly | None = None) -> Vec:
    f = ring.one() if f is None else f
    return tuple(f if j == i else ring.zero() for j in range(rank))


def full_module(ring: Ring, rank: int) -> FreeSubmodule:
    return FreeSubmodule(ring, rank,
                         [unit_vector(ring, rank, i) for i in range(rank)])


def zero_module(ring: Ring, rank: int) -> FreeSubmodule:
    return FreeSubmodule(ring, rank, [])


def ideal(ring: Ring, *polys: Poly) -> FreeSubmodule:
    return FreeSubmodule(ring, 1, [(f,) for f in polys])


def eliminate(sub: FreeSubmodule, var_indices: Iterable[int]) -> FreeSubmodule:
    """Intersection with the subring avoiding the given variables.

    Returns a submodule over the same ring whose generators do not involve
    the eliminated variables.
    """
    var_indices = frozenset(var_indices)
    if not var_indices:
        return sub
    order = TermOrder("grevlex", var_indices)
    kept: list[Vec] = []
    for v in sub.groebner(order):
        if all(all(m[i] == 0 for i in var_indices for m in f.terms) for f in v):
            kept.append(v)
    return FreeSubmodule(sub.ring, sub.rank, kept)


def _eliminate_fresh(ring: Ring, rank: int,
                     parts: Sequence[tuple[Poly, Poly, Sequence[Vec]]]) -> FreeSubmodule:
    """The part inside R^rank of the R[t]-module generated by (a + b t) v
    for every (a, b, gens) in parts and v in gens, t a fresh variable."""
    i = 0
    while f"@t{i}" in ring.names:
        i += 1
    ext = ring.extend(f"@t{i}")
    t = ext.var(ext.names[-1])
    lifted: list[Vec] = []
    for a, b, gens in parts:
        m = a.map_ring(ext) + b.map_ring(ext) * t
        lifted.extend(tuple(m * f.map_ring(ext) for f in v) for v in gens)
    big = FreeSubmodule(ext, rank, lifted)
    return eliminate(big, {ext.n - 1}).map_ring(ring)


def syzygies(ring: Ring, rank: int, vectors: Sequence[Vec]) -> FreeSubmodule:
    """Syzygy module of the given vectors: {(a_i) : sum a_i v_i = 0} in R^k.

    Computed from a position-over-term basis of the augmented module
    (v_i | e_i): basis elements whose first block vanishes generate all
    syzygies.
    """
    k = len(vectors)
    if k == 0:
        return zero_module(ring, 1)
    aug_rank = rank + k
    aug: list[Vec] = []
    for i, v in enumerate(vectors):
        if len(v) != rank:
            raise RankMismatchError("syzygy input rank mismatch")
        aug.append(tuple(v) + unit_vector(ring, k, i))
    big = FreeSubmodule(ring, aug_rank, aug)
    out: list[Vec] = []
    for w in big.groebner():
        if all(f.is_zero() for f in w[:rank]):
            out.append(w[rank:])
    return FreeSubmodule(ring, k, out)


def preimage(ring: Ring, rank: int, images: Sequence[Vec], N: FreeSubmodule) -> FreeSubmodule:
    """{a in R^s : sum a_j images[j] in N} for the map R^s -> R^rank."""
    s = len(images)
    combined = list(images) + list(N.gens)
    syz = syzygies(ring, rank, combined)
    return FreeSubmodule(ring, s, [v[:s] for v in syz.gens])


class QuotientPresentation:
    """A subquotient W/N of a free module, with N <= W checked up front."""

    __slots__ = ("W", "N")

    def __init__(self, W: FreeSubmodule, N: FreeSubmodule):
        W._compat(N)
        if not W.contains(N):
            raise ValueError("denominator is not contained in the numerator")
        self.W = W
        self.N = N

    @property
    def ring(self) -> Ring:
        return self.W.ring

    @property
    def rank(self) -> int:
        return self.W.rank

    def reduce(self, v: Vec) -> Vec:
        return self.N.normal_form(v)

    def is_zero_module(self) -> bool:
        return self.N.contains(self.W)

    def __repr__(self):
        return f"<presentation W/N in {self.ring}^{self.rank}>"
