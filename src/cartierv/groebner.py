"""Groebner bases for ideals and submodules of free modules over F_p[x_1..x_n].

Buchberger's algorithm with normal pair selection, the Gebauer-Moeller pair
update (Gebauer and Moeller, J. Symb. Comput. 1988), full tail reduction,
and unique reduced bases used as canonical forms everywhere.  Adding a basis
element drops the old pairs its lead makes redundant (criterion B) and keeps
one new pair per minimal lcm (criteria M and F).  The product criterion
applies to ideals only, where it is valid; every criterion compares leads
within one component.  Normal forms pop the terms of the work vector from a
heap, so the remainder comes out in descending order.

Module terms (component, monomial) are compared position-over-term with
component 0 strongest; when an elimination block is present the block degree
dominates everything including the component, which is what makes
elimination work for submodules too.

One computation answers every module relation: `preimage_within(W, images,
N)`, the part of W that a map sends into N, reads its answer off one basis
in an order that puts the image block above the W block, and gives
intersections, colons, preimages, syzygies and kernels.  Elimination serves
only `eliminate` and `saturate_element`, whose answers are eliminations.

Each term (component, monomial) is packed into one int for a fixed ring,
rank and order (`_Code`, after Bachmann and Schoenemann, "Monomial
representations for Groebner bases computations", ISSAC 1998).  The low
fields hold the exponents and the component, each with a guard bit on top;
the high fields hold the order's key, which is linear in the exponents.  So
the term is its own sort key (a bigger int is a bigger term), a product with
a monomial is an addition, "lead b divides t in its component" is one mask
test, and the level-1 digit split of a term reads its exponent fields.  A
vector is a flat dict keyed by these ints; a work vector lists its lead
term first.  A `FreeSubmodule` keeps its generators in this form between
operations, so sums, products, digit splits and containment never leave it;
tuples of Poly are made only where a caller reads them.  An exponent of
2^63 or more, on input or formed by a product, raises
`ExponentOverflowError` rather than wrap.
"""

from __future__ import annotations

import heapq
import struct
from itertools import count, islice
from operator import itemgetter, le, mul
from typing import Iterable, Sequence

from .errors import ExponentOverflowError, RankMismatchError, RingMismatchError
from .field_poly import Monomial, Poly, Ring, mon_lcm

Vec = tuple[Poly, ...]
_Elem = tuple[dict[int, int], int]  # monic element keyed by packed terms, its packed lead
# a key field of an order: its value in each component, its weight on each variable
_Field = tuple[tuple[int, ...], tuple[int, ...]]

_FIELD = 64  # bits per exponent or component field; the top bit is a guard bit
_LIMIT = 1 << (_FIELD - 1)  # every exponent stays below this


def _degree_fields(n: int, rank: int) -> list[_Field]:
    """deg, s_{n-1}, .., s_1 with s_k = e_1 + .. + e_k: at a fixed degree, a
    smaller last exponent is a bigger grevlex term."""
    return [((0,) * rank, (1,) * k + (0,) * (n - k)) for k in range(n, 0, -1)]


def _position_field(n: int, rank: int) -> _Field:
    """rank - 1 - component: component 0 strongest."""
    return tuple(rank - 1 - c for c in range(rank)), (0,) * n


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

    def key_fields(self, n: int, rank: int) -> list[_Field]:
        """The key of a term, most significant field first; a bigger key is a
        bigger term, and no two terms share a key."""
        if self.kind == "lex":
            tail = [((0,) * rank, tuple(int(i == k) for i in range(n))) for k in range(n)]
        else:
            tail = _degree_fields(n, rank)
        fields = [_position_field(n, rank)] + tail
        if self.elim:
            fields.insert(0, ((0,) * rank, tuple(int(i in self.elim) for i in range(n))))
        return fields

    def __repr__(self):
        return f"TermOrder({self.kind!r}, elim={list(self.elim)})"


GREVLEX = TermOrder("grevlex")
LEX = TermOrder("lex")
_GREVLEX_SIG = GREVLEX.signature()


class _BlockOrder(TermOrder):
    """Every term in a component < split is above every term in a component
    >= split; within a block, degree comes before the component, since
    position-over-term there makes bases swell (a rank-3 intersection over
    F_7[x, y]: 1.7 s instead of 0.12 s)."""

    __slots__ = ("split",)

    def __init__(self, split: int):
        super().__init__("grevlex")
        self.split = split

    def signature(self):
        return ("block", self.split)

    def key_fields(self, n: int, rank: int) -> list[_Field]:
        block = (tuple(int(c < self.split) for c in range(rank)), (0,) * n)
        degrees = _degree_fields(n, rank)
        return [block] + degrees[:1] + [_position_field(n, rank)] + degrees[1:]


# -- packed terms ------------------------------------------------------------


def _overflow(e: int) -> ExponentOverflowError:
    return ExponentOverflowError(
        f"exponent {e} is above 2^63 - 1, the largest a Groebner term holds")


class _Code:
    """The terms (component, monomial) of R^rank under one order, packed into ints.

    Low fields: e_1 .. e_n, then the component, _FIELD bits each.  High
    fields: the order's key fields, most significant on top, each wide enough
    that no sum of n exponents below 2^_FIELD carries out of it.  The key
    decides every comparison, so a bigger int is a bigger term; the code of
    x^q times a term is the term's code plus `shift(q)`, which does not
    depend on the component; and lead b divides t in its component exactly
    when ((t | guard) - b) & mask == guard.  Nothing is memoised: a term is
    read back off the bits of its code.
    """

    __slots__ = ("n", "rank", "guard", "mask", "_comps", "_vars", "_low", "_words")

    def __init__(self, n: int, rank: int, order: TermOrder):
        fields = order.key_fields(n, rank)
        low, width = _FIELD * (n + 1), _FIELD + n.bit_length()
        shifts = [low + width * k for k in reversed(range(len(fields)))]
        self._vars = tuple((1 << _FIELD * i) + sum(w[i] << s for (_, w), s in zip(fields, shifts))
                           for i in range(n))
        self._comps = tuple((c << _FIELD * n) + sum(v[c] << s for (v, _), s in zip(fields, shifts))
                            for c in range(rank))
        self.guard = sum(_LIMIT << _FIELD * i for i in range(n + 1))
        self.mask = self.guard | (_LIMIT - 1) << _FIELD * n
        self.n, self.rank = n, rank
        self._low = (1 << low) - 1
        self._words = struct.Struct(f"<{n + 1}Q")  # the low fields, as _FIELD = 64-bit words

    def shift(self, mon: Monomial) -> int:
        """What x^mon adds to the code of a term it multiplies."""
        if mon and max(mon) >= _LIMIT:
            raise _overflow(max(mon))
        return sum(map(mul, mon, self._vars))

    def encode(self, comp: int, mon: Monomial) -> int:
        return self._comps[comp] + self.shift(mon)

    def decode(self, u: int) -> tuple[int, Monomial]:
        t = self._words.unpack((u & self._low).to_bytes(self._words.size, "little"))
        return t[-1], t[:-1]

    def divides(self, b: int, t: int) -> bool:
        """Whether the term b divides the term t, in the same component."""
        return ((t | self.guard) - b) & self.mask == self.guard

    def overflow(self, u: int) -> ExponentOverflowError:
        """The error for u, a code plus a monomial's code that set a guard bit."""
        return _overflow(max((u >> _FIELD * i) & ((1 << _FIELD) - 1) for i in range(self.n)))


def _code(ring: Ring, rank: int, order: TermOrder) -> _Code:
    """The ring's code for (rank, order), made on first use."""
    key = (rank, order.signature())
    code = ring._codes.get(key)
    if code is None:
        code = ring._codes[key] = _Code(ring.n, rank, order)
    return code


def _vec_to_dict(code: _Code, v: Vec) -> dict[int, int]:
    out: dict[int, int] = {}
    for i, f in enumerate(v):
        for m, c in f.terms.items():
            out[code.encode(i, m)] = c
    return out


def _dict_to_vec(ring: Ring, code: _Code, d: dict[int, int]) -> Vec:
    comps: list[dict[Monomial, int]] = [dict() for _ in range(code.rank)]
    for u, c in d.items():
        i, m = code.decode(u)
        comps[i][m] = c
    return tuple(Poly(ring, t) for t in comps)


# a packed matrix: per source component j, the (offset, coefficient) pairs
# that carry a term in component j to its products with column j
Twist = tuple[tuple[tuple[int, int], ...], ...]


def _times(d: dict[int, int], twist: Twist, code: _Code, p: int) -> dict[int, int]:
    """The product of a packed matrix and a packed vector."""
    guard, comp, low = code.guard, _FIELD * code.n, _LIMIT - 1
    out: dict[int, int] = {}
    for t, c in d.items():
        for off, a in twist[(t >> comp) & low]:
            u = t + off
            if u & guard:
                raise code.overflow(u)
            v = (out.get(u, 0) + c * a) % p
            if v:
                out[u] = v
            else:
                del out[u]
    return out


def _digits(d: dict[int, int], code: _Code, p: int) -> list[dict[int, int]]:
    """The nonzero level-1 digits v_a of d = sum_a x^a v_a^{[p]}, 0 <= a < p.

    A term x^e in component i lands in digit e mod p as x^(e // p) in
    component i; its code drops (e_k - e_k // p) * shift(x_k) per variable,
    with e_k read off the code's field k.
    """
    low = _LIMIT - 1
    fields = [(_FIELD * k, x) for k, x in enumerate(code._vars)]
    out: dict[int, dict[int, int]] = {}
    for u, c in d.items():
        a, q = 0, u
        for s, x in fields:
            e = (u >> s) & low
            a = a * p + e % p
            q -= (e - e // p) * x
        digit = out.get(a)
        if digit is None:
            out[a] = {q: c}
        else:
            digit[q] = c
    return list(out.values())


def _divides(a: Monomial, b: Monomial) -> bool:
    return all(map(le, a, b))


def _normal_form_dict(d: dict[int, int], basis: Sequence[_Elem], code: _Code,
                      p: int) -> dict[int, int]:
    """Full reduction: every term of the result is outside the leading ideal.

    The result lists its terms in descending order, so its lead is its first
    key.  A term enters the heap each time it enters the work vector; one
    cancelled in between is skipped when popped.  Terms only ever enter below
    the term being reduced, so a popped term never comes back.
    """
    guard, mask = code.guard, code.mask
    work = dict(d)
    heap = [-t for t in work]
    heapq.heapify(heap)
    rem: dict[int, int] = {}
    while heap:
        t = -heapq.heappop(heap)
        c = work.pop(t, None)
        if c is None:
            continue
        tg = t | guard
        for bd, b in basis:
            if (tg - b) & mask == guard:
                break
        else:
            rem[t] = c
            continue
        q = t - b
        # the reducer is monic and its lead cancels t exactly
        for m, bc in islice(bd.items(), 1, None):
            u = m + q
            if u & guard:
                raise code.overflow(u)
            v = work.get(u)
            if v is None:
                work[u] = -c * bc % p
                heapq.heappush(heap, -u)
            else:
                v = (v - c * bc) % p
                if v:
                    work[u] = v
                else:
                    del work[u]
    return rem


def _monic(d: dict[int, int], p: int) -> _Elem:
    lt = next(iter(d))
    inv = pow(d[lt], p - 2, p)
    if inv != 1:
        d = {t: c * inv % p for t, c in d.items()}
    return d, lt


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


def _buchberger(code: _Code, p: int, gens: Sequence[dict[int, int]]) -> list[_Elem]:
    """Returns the reduced basis as monic (dict, lead) pairs, sorted by
    decreasing lead."""
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
        g = _normal_form_dict(g, basis, code, p)
        if g:
            update(_monic(g, p))
    while pairs:
        _, _, lcm, i, j = heapq.heappop(pairs)
        s = _s_vector(basis[i], basis[j], code.encode(leads[i][0], lcm), code, p)
        r = _normal_form_dict(s, basis, code, p)
        if r:
            update(_monic(r, p))

    # every element is reduced against the earlier ones, so it is redundant
    # exactly when a later lead divides its lead
    minimal = [b for n, b in enumerate(basis)
               if not any(code.divides(c, b[1]) for _, c in basis[n + 1:])]
    # tail-reduce each against the others
    reduced = []
    for n, (d, _) in enumerate(minimal):
        reduced.append(_monic(_normal_form_dict(d, minimal[:n] + minimal[n + 1:], code, p), p))
    reduced.sort(key=itemgetter(1), reverse=True)
    return reduced


# -- public wrapper ----------------------------------------------------------


class FreeSubmodule:
    """Finitely generated submodule of R^rank, with cached reduced bases.

    The generators are held as Poly vectors, as packed GREVLEX dicts, or
    both, and each form is made from the other on first use.  One built
    from Poly vectors checks them and packs them when a basis or a
    containment first needs it.  One built by an operation (`add`,
    `scaled`, `minimal_gens`, `level1_root`) holds packed dicts, which it
    passes on to the next operation, and decodes `gens` only when a caller
    reads them.  The basis cache is written once per term order and treated
    as immutable afterwards.  Equality and the hash both read the reduced
    GREVLEX basis, so two generating sets of one submodule are one dict key.
    """

    __slots__ = ("ring", "rank", "_vecs", "_dicts", "_gb")

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
        self._vecs: tuple[Vec, ...] | None = tuple(clean)
        self._dicts: list[dict[int, int]] | None = None
        self._gb: dict[tuple, list] = {}

    @classmethod
    def _of(cls, ring: Ring, rank: int, dicts: list[dict[int, int]]) -> "FreeSubmodule":
        """The submodule generated by nonzero packed GREVLEX vectors, taken
        as they are."""
        out = cls.__new__(cls)
        out.ring, out.rank, out._vecs, out._dicts, out._gb = ring, rank, None, dicts, {}
        return out

    @property
    def gens(self) -> tuple[Vec, ...]:
        if self._vecs is None:
            code = _code(self.ring, self.rank, GREVLEX)
            self._vecs = tuple(_dict_to_vec(self.ring, code, d) for d in self._dicts)
        return self._vecs

    def _packed(self) -> list[dict[int, int]]:
        """The generators as packed GREVLEX dicts."""
        if self._dicts is None:
            code = _code(self.ring, self.rank, GREVLEX)
            self._dicts = [_vec_to_dict(code, v) for v in self._vecs]
        return self._dicts

    # -- bases -------------------------------------------------------------

    def _basis(self, order: TermOrder = GREVLEX) -> list[_Elem]:
        sig = order.signature()
        if sig not in self._gb:
            code = _code(self.ring, self.rank, order)
            gens = (self._packed() if sig == _GREVLEX_SIG
                    else [_vec_to_dict(code, v) for v in self.gens])
            self._gb[sig] = _buchberger(code, self.ring.p, gens)
        return self._gb[sig]

    def groebner(self, order: TermOrder = GREVLEX) -> tuple[Vec, ...]:
        code = _code(self.ring, self.rank, order)
        return tuple(_dict_to_vec(self.ring, code, d) for d, _ in self._basis(order))

    def _remainder(self, v: Vec) -> dict[int, int]:
        v = tuple(v)
        if len(v) != self.rank:
            raise RankMismatchError(f"vector of length {len(v)}, rank {self.rank}")
        code = _code(self.ring, self.rank, GREVLEX)
        return _normal_form_dict(_vec_to_dict(code, v), self._basis(), code, self.ring.p)

    def normal_form(self, v: Vec) -> Vec:
        return _dict_to_vec(self.ring, _code(self.ring, self.rank, GREVLEX), self._remainder(v))

    # -- predicates ----------------------------------------------------------

    def is_zero(self) -> bool:
        return not (self._dicts if self._vecs is None else self._vecs)

    def contains_vector(self, v: Vec) -> bool:
        return not self._remainder(v)

    def contains(self, other: "FreeSubmodule") -> bool:
        self._compat(other)
        if other.is_zero():
            return True
        basis, code = self._basis(), _code(self.ring, self.rank, GREVLEX)
        return not any(_normal_form_dict(d, basis, code, self.ring.p) for d in other._packed())

    def __eq__(self, other):
        if not isinstance(other, FreeSubmodule):
            return NotImplemented
        return (self.ring == other.ring and self.rank == other.rank
                and self._basis() == other._basis())

    def __hash__(self):
        return hash((self.rank, tuple(frozenset(d.items()) for d, _ in self._basis())))

    def _compat(self, other: "FreeSubmodule"):
        if self.ring != other.ring:
            raise RingMismatchError(f"{self.ring} vs {other.ring}")
        if self.rank != other.rank:
            raise RankMismatchError(f"rank {self.rank} vs {other.rank}")

    # -- constructions ---------------------------------------------------------

    def add(self, other: "FreeSubmodule") -> "FreeSubmodule":
        self._compat(other)
        mine = self._packed()
        return FreeSubmodule._of(self.ring, self.rank,
                                 mine + [d for d in other._packed() if d not in mine])

    def add_vectors(self, vecs: Iterable[Vec]) -> "FreeSubmodule":
        return FreeSubmodule(self.ring, self.rank, self.gens + tuple(vecs))

    def scaled(self, g: Poly) -> "FreeSubmodule":
        """The submodule g * self."""
        if g.ring != self.ring:
            raise RingMismatchError(f"{g.ring} vs {self.ring}")
        if g.is_zero():
            return FreeSubmodule._of(self.ring, self.rank, [])
        code = _code(self.ring, self.rank, GREVLEX)
        twist = (tuple((code.shift(m), c) for m, c in g.terms.items()),) * self.rank
        return FreeSubmodule._of(self.ring, self.rank,
                                 [_times(d, twist, code, self.ring.p) for d in self._packed()])

    def level1_root(self, twist: Twist | None = None) -> "FreeSubmodule":
        """(U self)^{[1/p]} by its reduced basis, for U given by `twist`
        (`pack_matrix`; the identity when None).

        It is generated by the level-1 digits of the generators of U self,
        since v = sum_a x^a v_a^{[p]} lies in J^{[p]} exactly when every
        digit v_a lies in J.
        """
        code, p = _code(self.ring, self.rank, GREVLEX), self.ring.p
        gens = self._packed()
        if twist is not None:
            gens = [_times(d, twist, code, p) for d in gens]
        digits = [v for d in gens for v in _digits(d, code, p)]
        return FreeSubmodule._of(self.ring, self.rank, digits).minimal_gens()

    def minimal_gens(self) -> "FreeSubmodule":
        """Same submodule, generated by its reduced basis, which it keeps as
        its own basis."""
        basis = self._basis()
        out = FreeSubmodule._of(self.ring, self.rank, [d for d, _ in basis])
        out._gb[_GREVLEX_SIG] = basis
        return out

    def map_ring(self, target: Ring) -> "FreeSubmodule":
        """The same generators in target, variables matched by name."""
        return FreeSubmodule(target, self.rank,
                             [tuple(f.map_ring(target) for f in v) for v in self.gens])

    def intersect(self, other: "FreeSubmodule") -> "FreeSubmodule":
        """W cap V: the part of W that the inclusion sends into V."""
        self._compat(other)
        return preimage_within(self, self.gens, other)

    def colon_element(self, h: Poly) -> "FreeSubmodule":
        """(self : h) = {v : h v in self}."""
        if h.is_zero():
            raise ValueError("colon by zero")
        return preimage(self.ring, self.rank,
                        [unit_vector(self.ring, self.rank, i, h) for i in range(self.rank)], self)

    def saturate_element(self, h: Poly) -> "FreeSubmodule":
        """(self : h^inf), at every rank by the Rabinowitsch trick: eliminate
        t from self*R[t] + (1 - t h)*R[t]^rank."""
        if h.is_zero():
            raise ValueError("saturation by zero")
        t = next(f"@t{i}" for i in count() if f"@t{i}" not in self.ring.names)
        ext = self.ring.extend(t)
        g = ext.one() - ext.var(t) * h.map_ring(ext)
        lifted = [tuple(f.map_ring(ext) for f in v) for v in self.gens]
        lifted += [unit_vector(ext, self.rank, j, g) for j in range(self.rank)]
        return eliminate(FreeSubmodule(ext, self.rank, lifted), {ext.n - 1}).map_ring(self.ring)

    def __repr__(self):
        gens = ", ".join("(" + ", ".join(f.to_str() for f in v) + ")" for v in self.gens[:4])
        more = "..." if len(self.gens) > 4 else ""
        return f"<submodule of {self.ring}^{self.rank}: {gens}{more}>"


def unit_vector(ring: Ring, rank: int, i: int, f: Poly | None = None) -> Vec:
    f = ring.one() if f is None else f
    return tuple(f if j == i else ring.zero() for j in range(rank))


def pack_matrix(ring: Ring, rank: int, rows: Sequence[Sequence[Poly]]) -> Twist:
    """The rank x rank matrix `rows` as a `Twist` for `FreeSubmodule.level1_root`."""
    code = _code(ring, rank, GREVLEX)
    comps = code._comps
    return tuple(tuple((comps[i] - comps[j] + code.shift(m), c)
                       for i in range(rank) for m, c in rows[i][j].terms.items())
                 for j in range(rank))


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


def preimage_within(W: FreeSubmodule, images: Sequence[Vec], N: FreeSubmodule) -> FreeSubmodule:
    """{sum a_j W.gens[j] : sum a_j images[j] in N}: the part of W that the
    map W.gens[j] -> images[j] sends into N.

    The basis elements with a zero image block, in a basis of the module
    generated by (images[j] | W.gens[j]) and (n | 0) for n in N.gens with the
    image block above the W block, generate its elements with image block 0.
    """
    if len(images) != len(W.gens):
        raise RankMismatchError(f"{len(images)} images for {len(W.gens)} generators")
    r, pad = N.rank, (W.ring.zero(),) * W.rank
    aug = [tuple(v) + w for v, w in zip(images, W.gens)] + [n + pad for n in N.gens]
    big = FreeSubmodule(W.ring, r + W.rank, aug)
    return FreeSubmodule(W.ring, W.rank,
                         [w[r:] for w in big.groebner(_BlockOrder(r))
                          if all(f.is_zero() for f in w[:r])])


def syzygies(ring: Ring, rank: int, vectors: Sequence[Vec]) -> FreeSubmodule:
    """Syzygy module of the given vectors: {(a_i) : sum a_i v_i = 0} in R^k."""
    if not vectors:
        return zero_module(ring, 1)
    return preimage_within(full_module(ring, len(vectors)), vectors, zero_module(ring, rank))


def preimage(ring: Ring, rank: int, images: Sequence[Vec], N: FreeSubmodule) -> FreeSubmodule:
    """{a in R^s : sum a_j images[j] in N} for the map R^s -> R^rank."""
    if N.rank != rank:
        raise RankMismatchError(f"rank {rank} vs {N.rank}")
    return preimage_within(full_module(ring, len(images)), images, N)


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
