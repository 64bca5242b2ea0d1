"""Groebner bases for ideals and submodules of free modules over F_p[x_1..x_n].

Buchberger's algorithm with normal pair selection, the Gebauer-Moeller pair
update (Gebauer and Moeller, J. Symb. Comput. 1988), full tail reduction,
and unique reduced bases used as canonical forms everywhere.  Adding a basis
element drops the old pairs its lead makes redundant (criterion B) and keeps
one new pair per minimal lcm (criteria M and F).  The product criterion
applies to ideals only, where it is valid; every criterion compares leads
within one component.  Normal forms pop the terms of the work vector from a
heap, so each term's order key is computed once and the remainder comes out
in descending order.

Module terms (component, monomial) are compared position-over-term with
component 0 strongest; when an elimination block is present the block degree
dominates everything including the component, which is what makes
elimination work for submodules too.

Vectors are tuples of Poly.  The engine itself works on flat dicts keyed by
(component, monomial) that list their lead term first.
"""

from __future__ import annotations

import heapq
from itertools import count, islice
from operator import le, sub
from typing import Iterable, Sequence

from .errors import RankMismatchError, RingMismatchError
from .field_poly import Monomial, Poly, Ring, mon_lcm, mon_mul

Vec = tuple[Poly, ...]
_Term = tuple[int, Monomial]
_Elem = tuple[dict[_Term, int], _Term]  # monic element, its lead term


class TermOrder:
    """grevlex or lex, optionally with a leading elimination block."""

    __slots__ = ("kind", "elim")

    def __init__(self, kind: str = "grevlex", elim: Iterable[int] = ()):
        if kind not in ("grevlex", "lex"):
            raise ValueError(f"unknown order kind {kind!r}")
        self.kind = kind
        self.elim = tuple(sorted(set(elim)))

    def signature(self):
        return (self.kind, self.elim)

    def key(self, term: _Term) -> tuple:
        """Sort key of a term (component, monomial): a smaller key is a bigger term."""
        comp, mon = term
        if self.kind == "lex":
            k = (comp,) + tuple([-e for e in mon])
        else:
            k = (comp, -sum(mon)) + mon[::-1]
        if self.elim:
            return (-sum([mon[i] for i in self.elim]),) + k
        return k

    def __repr__(self):
        return f"TermOrder({self.kind!r}, elim={list(self.elim)})"


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


def _divides(a: Monomial, b: Monomial) -> bool:
    return all(map(le, a, b))


def _normal_form_dict(d: dict[_Term, int], basis: Sequence[_Elem], order: TermOrder,
                      p: int) -> dict[_Term, int]:
    """Full reduction: every term of the result is outside the leading ideal.

    The result lists its terms in descending order, so its lead is its first
    key.  Each term's key is computed once, when it first enters the work
    vector; a term cancelled after it was queued is skipped when popped.
    Terms only ever enter below the term being reduced, so a popped term never
    comes back.
    """
    key = order.key
    work = dict(d)
    heap = [(key(t), t) for t in work]
    heapq.heapify(heap)
    queued = set(work)
    rem: dict[_Term, int] = {}
    while heap:
        t = heapq.heappop(heap)[1]
        c = work.pop(t, None)
        if c is None:
            continue
        comp, mon = t
        for bd, (bcomp, bmon) in basis:
            if bcomp == comp and all(map(le, bmon, mon)):
                break
        else:
            rem[t] = c
            continue
        q = tuple(map(sub, mon, bmon))
        # the reducer is monic and its lead cancels t exactly
        for (i, m), bc in islice(bd.items(), 1, None):
            u = (i, mon_mul(m, q))
            v = (work.get(u, 0) - c * bc) % p
            if v:
                work[u] = v
                if u not in queued:
                    queued.add(u)
                    heapq.heappush(heap, (key(u), u))
            else:
                del work[u]
    return rem


def _monic(d: dict[_Term, int], p: int) -> _Elem:
    lt = next(iter(d))
    inv = pow(d[lt], p - 2, p)
    if inv != 1:
        d = {t: c * inv % p for t, c in d.items()}
    return d, lt


def _s_vector(a: _Elem, b: _Elem, lcm: Monomial, p: int) -> dict[_Term, int]:
    """lcm/lead(a) * a - lcm/lead(b) * b; the leads cancel and are left out."""
    s: dict[_Term, int] = {}
    for (d, (_, lm)), sign in ((a, 1), (b, -1)):
        q = tuple(map(sub, lcm, lm))
        for (i, m), c in islice(d.items(), 1, None):
            u = (i, mon_mul(m, q))
            v = (s.get(u, 0) + sign * c) % p
            if v:
                s[u] = v
            else:
                del s[u]
    return s


def _buchberger(ring: Ring, rank: int, gens: Sequence[dict[_Term, int]],
                order: TermOrder) -> list[_Elem]:
    """Returns the reduced basis as monic (dict, lead term) pairs, sorted by
    decreasing lead."""
    p = ring.p
    basis: list[_Elem] = []
    pairs: list[tuple[int, int, Monomial, int, int]] = []  # (deg lcm, n, lcm, i, j)
    tick = count()

    def update(h: _Elem):
        """Gebauer-Moeller update of the pair queue for the new element h."""
        nonlocal pairs
        j = len(basis)
        ch, mh = h[1]
        # criterion B: h's lead divides lcm(i, k) and neither lcm with h equals it
        kept = []
        for pr in pairs:
            _, _, lcm, i, k = pr
            if (basis[i][1][0] != ch or not _divides(mh, lcm)
                    or mon_lcm(basis[i][1][1], mh) == lcm or mon_lcm(basis[k][1][1], mh) == lcm):
                kept.append(pr)
        # criteria M and F on the new pairs: keep one pair per minimal lcm,
        # and none for an lcm shared with a pair of coprime leads (ideals only)
        new = []
        for i, (_, (ci, mi)) in enumerate(basis):
            if ci == ch:
                lcm = mon_lcm(mi, mh)
                new.append((lcm, i, rank == 1 and sum(lcm) == sum(mi) + sum(mh)))
        chosen = []
        for n, (lcm, i, coprime) in enumerate(new):
            if coprime or not any(_divides(l2, lcm) for l2, _, _ in new[n + 1:]) \
                    and not any(_divides(l2, lcm) for l2, _, _ in chosen):
                chosen.append((lcm, i, coprime))
        kept.extend((sum(lcm), next(tick), lcm, i, j) for lcm, i, coprime in chosen if not coprime)
        heapq.heapify(kept)
        pairs = kept
        basis.append(h)

    for g in gens:
        g = _normal_form_dict(g, basis, order, p)
        if g:
            update(_monic(g, p))
    while pairs:
        _, _, lcm, i, j = heapq.heappop(pairs)
        r = _normal_form_dict(_s_vector(basis[i], basis[j], lcm, p), basis, order, p)
        if r:
            update(_monic(r, p))

    # every element is reduced against the earlier ones, so it is redundant
    # exactly when a later lead divides its lead
    minimal = [b for n, b in enumerate(basis)
               if not any(c == b[1][0] and _divides(m, b[1][1]) for _, (c, m) in basis[n + 1:])]
    # tail-reduce each against the others
    reduced = []
    for n, (d, _) in enumerate(minimal):
        reduced.append(_monic(_normal_form_dict(d, minimal[:n] + minimal[n + 1:], order, p), p))
    reduced.sort(key=lambda b: order.key(b[1]))
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

    def _basis(self, order: TermOrder = GREVLEX) -> list[_Elem]:
        sig = order.signature()
        if sig not in self._gb:
            self._gb[sig] = _buchberger(self.ring, self.rank,
                                        [_vec_to_dict(v) for v in self.gens], order)
        return self._gb[sig]

    def groebner(self, order: TermOrder = GREVLEX) -> tuple[Vec, ...]:
        return tuple(_dict_to_vec(self.ring, self.rank, d) for d, _ in self._basis(order))

    def normal_form(self, v: Vec, order: TermOrder = GREVLEX) -> Vec:
        v = tuple(v)
        if len(v) != self.rank:
            raise RankMismatchError(f"vector of length {len(v)}, rank {self.rank}")
        r = _normal_form_dict(_vec_to_dict(v), self._basis(order), order, self.ring.p)
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
