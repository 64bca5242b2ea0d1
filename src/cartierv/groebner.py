"""Groebner bases for ideals and submodules of free modules over F_p[x_1..x_n].

A signature-based Buchberger algorithm (`_buchberger`: RB with the "add"
rewrite order, Eder and Roune, ISSAC 2013, over Schreyer-ordered signatures,
Roune and Stillman, ISSAC 2012), full tail reduction, and unique reduced
bases used as canonical forms everywhere.  Each element carries a signature
in the free module over the generators; S-pairs are taken in increasing
signature order, and one whose signature a known syzygy or a newer element
divides is dropped before it is reduced, so few reductions end in zero.
Koszul syzygies apply to ideals only; every S-pair pairs leads within one
component.  One loop, `_reduce`, does every reduction: the engine's under
a signature bound, normal forms without one.  It pops terms from a heap,
so a remainder comes out in descending order, and it raises past
MAX_REDUCTION_STEPS steps rather than run on.  It reduces a coefficient
mod p once, when its term is popped.  Its callers list the reducers by
decreasing lead, so it cuts from the front those whose lead lies above the
popped term, which divide no later term.

Module terms (component, monomial) are compared position-over-term with
component 0 strongest.  An order with a block (the variables to eliminate,
or the components of an image block) compares the block's weight first, then
the degree, and the component only after both: the block on top makes
eliminations and module relations work, and the degree before the component
keeps their bases from swelling.

One computation answers every module relation: `preimage_within(W, images,
N)`, the part of W that a map sends into N, reads its answer off one basis
in an order that puts the image block above the W block, and gives
intersections, colons, preimages, syzygies and kernels.  Elimination serves
only `eliminate` and `saturate_element`, whose answers are eliminations.

Each term (component, monomial) is packed into one int for a fixed number
of variables, rank and order (`_Code`, after Bachmann and Schoenemann,
"Monomial representations for Groebner bases computations", ISSAC 1998),
one code per three, which all rings share.  The low
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
`ExponentOverflowError` rather than wrap; so does an S-pair left to reduce
whose signature has one.
"""

from __future__ import annotations

import bisect
import heapq
import struct
from functools import cache
from itertools import chain, count, islice
from operator import itemgetter, le, mul
from typing import Iterable, Sequence

from .errors import (ExponentOverflowError, RankMismatchError, RingMismatchError,
                     StabilizationCapExceededError)
from .field_poly import Monomial, Poly, Ring

Vec = tuple[Poly, ...]
_Elem = tuple[dict[int, int], int]  # monic element keyed by packed terms, its packed lead
# a key field of an order: its value in each component, its weight on each variable
_Field = tuple[tuple[int, ...], tuple[int, ...]]

_FIELD = 64  # bits per exponent or component field; the top bit is a guard bit
_LIMIT = 1 << (_FIELD - 1)  # every exponent stays below this
MAX_REDUCTION_STEPS = 1 << 20  # per `_reduce`; the tests and benchmarks take at most 266


class TermOrder:
    """grevlex or lex on the terms (component, monomial), optionally under a
    leading block field.

    The block field weighs the variables in `elim` and the components below
    `split`, so every term with more of the block is bigger: eliminations
    put the variables to eliminate there, module relations their image
    block.  Without a block the key is position over term, component 0
    strongest.  With one, the key is the block, then the kind's first field
    (the degree under grevlex), then the component, then the rest: position
    over term inside a block makes bases swell (a rank-3 t-elimination over
    F_7[x, y]: 48 s instead of 0.1 s).
    """

    __slots__ = ("kind", "elim", "split", "_sig")

    def __init__(self, kind: str = "grevlex", elim: Iterable[int] = (), split: int = 0):
        if kind not in ("grevlex", "lex"):
            raise ValueError(f"unknown order kind {kind!r}")
        self.kind = kind
        self.elim = tuple(sorted(set(elim)))
        self.split = split
        self._sig = (kind, self.elim, split) if split else (kind, self.elim)

    def signature(self):
        """The order as a tuple that equal orders share: the key of its
        codes and bases."""
        return self._sig

    def key_fields(self, n: int, rank: int) -> list[_Field]:
        """The key of a term, most significant field first; a bigger key is a
        bigger term, and no two terms share a key."""
        if self.kind == "lex":
            kind = [((0,) * rank, tuple(int(i == k) for i in range(n))) for k in range(n)]
        else:
            # deg, s_{n-1}, .., s_1 with s_k = e_1 + .. + e_k: at a fixed
            # degree, a smaller last exponent is a bigger grevlex term
            kind = [((0,) * rank, (1,) * k + (0,) * (n - k)) for k in range(n, 0, -1)]
        position = (tuple(rank - 1 - c for c in range(rank)), (0,) * n)
        if not (self.elim or self.split):
            return [position] + kind
        block = (tuple(int(c < self.split) for c in range(rank)),
                 tuple(int(i in self.elim) for i in range(n)))
        return [block] + kind[:1] + [position] + kind[1:]

    def __repr__(self):
        return f"TermOrder({self.kind!r}, elim={list(self.elim)}, split={self.split})"


GREVLEX = TermOrder("grevlex")
LEX = TermOrder("lex")
_GREVLEX_SIG = GREVLEX._sig


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
    x^q times a term is the term's code plus `shift(q)`, which depends on
    neither the component nor the rank; and lead b divides t in its
    component exactly when ((t | guard) - b) & mask == guard.  Nothing is
    memoised: a term is read back off the bits of its code.
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
    """The code of the terms of ring^rank under order, made once per number of
    variables, rank and order: every ring and every equal order share it."""
    return _code_of(ring.n, rank, order._sig)


@cache
def _code_of(n: int, rank: int, sig: tuple) -> _Code:
    return _Code(n, rank, TermOrder(*sig))


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
# a packed polynomial: (shift of the monomial, coefficient) per term; shifts
# do not depend on the rank, so one serves submodules of every rank
Scalar = tuple[tuple[int, int], ...]


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


def _digits(d: dict[int, int], code: _Code, p: int) -> dict[int, dict[int, int]]:
    """The nonzero level-1 digits v_a of d = sum_a x^a v_a^{[p]}, 0 <= a < p,
    keyed by a read as a base-p number with a_1 most significant.

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
    return out


def _monic(d: dict[int, int], p: int) -> _Elem:
    lt = next(iter(d))
    inv = pow(d[lt], p - 2, p)
    if inv != 1:
        d = {t: c * inv % p for t, c in d.items()}
    return d, lt


def _minus_lead(e: tuple) -> int:
    return -e[1]


def _reduce(work: dict[int, int], elems: Sequence[tuple], code: _Code, p: int,
            sig: int | None = None, bits: int = 0) -> dict[int, int]:
    """Reduces `work` by the monic elements `elems`, each (dict, lead) or
    (dict, lead, off), and returns the remainder with its terms in
    descending order and its coefficients in 1..p-1; `work` is consumed.
    A term is reduced by the first element in `elems` that divides it
    (regularly, when `sig` is given).

    Without `sig` every element may reduce, so no term of the result lies in
    the leading ideal: the normal form.  With `sig`, the signature of
    `work`, an element reduces a term t only if its multiplied signature
    (t << bits) + off lies below `sig` (off is its signature minus its lead
    shifted up by `bits`), so the result keeps the signature.  Terms enter
    the heap only below the term being reduced, so a popped term never comes
    back, and its coefficient, summed without reducing mod p, is reduced
    once when it is popped.  An element whose lead lies above a popped term
    divides no later term, so the elements in front of the first one at or
    below it are cut; pass `elems` by decreasing lead and every element
    above the term is.  More than MAX_REDUCTION_STEPS steps raise
    StabilizationCapExceededError.
    """
    guard, mask = code.guard, code.mask
    heap = [-t for t in work]
    heapq.heapify(heap)
    rem: dict[int, int] = {}
    steps = MAX_REDUCTION_STEPS
    while heap:
        t = -heapq.heappop(heap)
        c = work.pop(t) % p
        if not c:
            continue
        while elems and elems[0][1] > t:
            elems = elems[1:]
        tg = t | guard
        for e in elems:
            if (tg - e[1]) & mask == guard and (sig is None or e[2] < sig - (t << bits)):
                break
        else:
            rem[t] = c
            continue
        if not steps:
            raise StabilizationCapExceededError(f"reduction ran past {MAX_REDUCTION_STEPS} steps")
        steps -= 1
        q = t - e[1]
        # the reducer is monic and its lead cancels t exactly
        for m, bc in islice(e[0].items(), 1, None):
            u = m + q
            if u & guard:
                raise code.overflow(u)
            v = work.get(u)
            if v is None:
                work[u] = -c * bc
                heapq.heappush(heap, -u)
            else:
                work[u] = v - c * bc
    return rem


def _buchberger(code: _Code, p: int, gens: Sequence[dict[int, int]]) -> list[_Elem]:
    """Returns the reduced basis of the submodule that `gens` generate, as
    monic (dict, lead) pairs sorted by decreasing lead.

    Signature-based: RB with the "add" rewrite order (Eder and Roune,
    "Signature rewriting in Groebner basis computation", ISSAC 2013), with
    Schreyer-ordered signatures (Roune and Stillman, "Practical Groebner
    basis computation", ISSAC 2012).  An element's signature is the leading
    term m e_i of one way of writing it over the generators g_i, which are
    numbered by increasing lead; it is held as the int
    (code of m lm(g_i)) << bits | i, so comparing ints is the Schreyer order
    under every `TermOrder`, and multiplying by a monomial q adds
    shift(q) << bits.  Generators and S-pairs are taken in increasing
    signature order, one per signature.  An S-pair is dropped before any
    reduction when its signature is divisible by that of a syzygy (a
    reduction to zero, or at rank 1 a Koszul syzygy lm(a) sig(b) -
    lm(b) sig(a)), or by that of an element added after the one whose
    multiple it is (the rewrite criterion).  Reduction is regular only
    (`_reduce` under the signature bound), and every nonzero result is kept,
    also one whose lead is singular top-reducible: it is the newest rewriter
    of its signature's multiples, and without it a multiple that only it
    would queue is lost (a rank-3 case of the tests' reference comparison
    ends with no Groebner basis).  `_reduce` gets the elements by
    decreasing lead (`by_lead`); `elems` keeps signature order for the
    criteria.  Which element reduces a term does not change the lead or the
    signature of the result, so the criteria fire on the same pairs under
    either order.  The elements form a Groebner basis, which is minimalised
    and tail-reduced by `_reduce` without a bound in one pass by increasing
    lead: each element against the smaller ones, reduced already, since a
    bigger lead divides no term below its own lead.
    """
    inputs = sorted(((max(g), g) for g in gens if g), key=itemgetter(0))
    if len(inputs) < 2:
        return [_monic(dict(sorted(g.items(), reverse=True)), p) for _, g in inputs]
    bits = (len(inputs) - 1).bit_length()
    ones = (1 << bits) - 1
    guard, sguard, smask = code.guard, code.guard << bits, code.mask << bits | ones
    shifts, comps, koszul = code._vars, code._comps, code.rank == 1
    elems: list[tuple[dict[int, int], int, int]] = []  # (monic dict, lead, off)
    by_lead: list[tuple[dict[int, int], int, int]] = []  # elems by decreasing lead
    sigs: list[int] = []
    heads: list[tuple[int, Monomial]] = []  # each lead as (component, exponents), for the lcms
    # per generator index: its elements' signatures, oldest first
    rules: list[list[int]] = [[] for _ in inputs]
    slots: list[int] = []  # where each element's signature sits in its rules list
    syz: list[list[int]] = [[] for _ in inputs]  # per generator: known syzygy signatures
    queue: list[int] = []  # pending signatures
    source: dict[int, int] = {}  # pending signature -> newest element it is a multiple of
    nxt = 0
    while queue or nxt < len(inputs):
        if queue and (nxt == len(inputs) or queue[0] < inputs[nxt][0] << bits | nxt):
            sig = heapq.heappop(queue)
            j = source.pop(sig)
            i, sg = sig & ones, sig | sguard
            newer = rules[i][slots[j] + 1:]
            if (any((sg - z) & smask == sguard for z in syz[i])
                    or any((sg - s) & smask == sguard for s in newer)):
                continue
            if (sig >> bits) & guard:
                # an exponent in [2^63, 2^64): the mask tests miss divisors,
                # so test the exponents; one that survives cannot be kept
                top = code.decode(sig >> bits)[1]
                if any(all(map(le, code.decode(s >> bits)[1], top))
                       for s in chain(syz[i], newer)):
                    continue
                raise code.overflow(sig >> bits)
            u = (sig - sigs[j]) >> bits
            d = {}
            for m, c in elems[j][0].items():
                m += u
                if m & guard:
                    raise code.overflow(m)
                d[m] = c
        else:
            i = nxt
            lead, g = inputs[i]
            sig, d = lead << bits | i, dict(g)
            nxt += 1
        r = _reduce(d, by_lead, code, p, sig, bits)
        if not r:
            syz[i].append(sig)
            continue
        h, lead = _monic(r, p)
        ch, eh = head = code.decode(lead)
        k = len(elems)
        for a, ((_, la, _), sa, (ca, ea)) in enumerate(zip(elems, sigs, heads)):
            if ca != ch:
                continue
            if koszul:
                ka, kh = sa + (lead << bits), sig + (la << bits)
                z = max(ka, kh)
                if ka != kh and not (z >> bits) & guard:
                    syz[z & ones].append(z)
            lcm = comps[ch] + sum(map(mul, map(max, ea, eh), shifts))
            if koszul and lcm == la + lead:
                continue  # coprime leads: the pair's signature is the Koszul one
            ta, th = sa + (lcm - la << bits), sig + (lcm - lead << bits)
            if ta == th:
                continue  # both halves have one signature: a singular S-pair
            t, src = (ta, a) if ta > th else (th, k)
            if t not in source:
                heapq.heappush(queue, t)
            source[t] = max(source.get(t, src), src)
        elem = (h, lead, sig - (lead << bits))
        elems.append(elem)
        bisect.insort(by_lead, elem, key=_minus_lead)
        sigs.append(sig)
        heads.append(head)
        slots.append(len(rules[i]))
        rules[i].append(sig)

    # by increasing lead: keep one element per minimal lead, tail-reduced
    # against the smaller ones kept, which are reduced already; a bigger lead
    # divides no term below its own lead
    reduced: list[_Elem] = []
    for d, lead, _ in reversed(by_lead):
        if not any(code.divides(b, lead) for _, b in reduced):
            reduced.insert(0, _monic(_reduce(dict(d), reduced, code, p), p))
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
        sig = order._sig
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
        return _reduce(_vec_to_dict(code, v), self._basis(), code, self.ring.p)

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
        return not any(_reduce(dict(d), basis, code, self.ring.p) for d in other._packed())

    def __eq__(self, other):
        if not isinstance(other, FreeSubmodule):
            return NotImplemented
        return (self.ring == other.ring and self.rank == other.rank
                and self._basis() == other._basis())

    def __hash__(self):
        """The leads of the reduced basis, which equal submodules share."""
        return hash((self.rank, tuple(lead for _, lead in self._basis())))

    def _compat(self, other: "FreeSubmodule"):
        if self.ring != other.ring:
            raise RingMismatchError(f"{self.ring} vs {other.ring}")
        if self.rank != other.rank:
            raise RankMismatchError(f"rank {self.rank} vs {other.rank}")

    # -- constructions ---------------------------------------------------------

    def add(self, other: "FreeSubmodule") -> "FreeSubmodule":
        """self + other; self itself, with the bases it keeps, when other
        brings no new generator."""
        self._compat(other)
        mine = self._packed()
        new = [d for d in other._packed() if d not in mine]
        return FreeSubmodule._of(self.ring, self.rank, mine + new) if new else self

    def add_vectors(self, vecs: Iterable[Vec]) -> "FreeSubmodule":
        return FreeSubmodule(self.ring, self.rank, self.gens + tuple(vecs))

    def scaled(self, g: Poly | Scalar) -> "FreeSubmodule":
        """The submodule g * self, for a polynomial g or one packed by
        `pack_scalar`."""
        if isinstance(g, Poly):
            if g.ring != self.ring:
                raise RingMismatchError(f"{g.ring} vs {self.ring}")
            g = pack_scalar(g)
        code = _code(self.ring, self.rank, GREVLEX)
        twist = (g,) * self.rank
        return FreeSubmodule._of(self.ring, self.rank,
                                 [v for v in (_times(d, twist, code, self.ring.p)
                                              for d in self._packed()) if v])

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
        digits = [v for d in gens for v in _digits(d, code, p).values()]
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


def pack_scalar(g: Poly) -> Scalar:
    """The polynomial g as a `Scalar` for `FreeSubmodule.scaled`, at every rank."""
    code = _code(g.ring, 1, GREVLEX)
    return tuple((code.shift(m), c) for m, c in g.terms.items())


def pack_matrix(ring: Ring, rank: int, rows: Sequence[Sequence[Poly]]) -> Twist:
    """The rank x rank matrix `rows` as a `Twist` for `level1_root` and `twist_digits`."""
    code = _code(ring, rank, GREVLEX)
    comps = code._comps
    return tuple(tuple((comps[i] - comps[j] + code.shift(m), c)
                       for i in range(rank) for m, c in rows[i][j].terms.items())
                 for j in range(rank))


def twist_times(ring: Ring, twist: Twist, g: Scalar) -> Twist:
    """The packed matrix U g, for U packed by `pack_matrix` and g by `pack_scalar`:
    column j, read as the packed vector of its terms, times g.  A `Scalar` is the
    column of a rank-1 `Twist`, so `twist_times(ring, (a,), b)[0]` is the product a b."""
    code, p = _code(ring, len(twist), GREVLEX), ring.p
    gs = (g,) * len(twist)
    return tuple(tuple((u - base, c) for u, c in
                       _times({base + off: a for off, a in col}, gs, code, p).items())
                 for base, col in zip(code._comps, twist))


def twist_digits(ring: Ring, twist: Twist, v: Vec, keys: Iterable[int]) -> list[Vec]:
    """The level-1 digits of U v at the digit indices `keys`, numbered as by
    `_digits`, for U packed by `pack_matrix`: the split of
    `FreeSubmodule.level1_root` on one vector.  Only those digits are decoded."""
    rank = len(twist)
    if len(v) != rank:
        raise RankMismatchError(f"vector of length {len(v)}, rank {rank}")
    if any(f.ring != ring for f in v):
        raise RingMismatchError("vector component over wrong ring")
    code, p = _code(ring, rank, GREVLEX), ring.p
    digits = _digits(_times(_vec_to_dict(code, v), twist, code, p), code, p)
    zero = (ring.zero(),) * rank
    return [_dict_to_vec(ring, code, digits[a]) if a in digits else zero for a in keys]


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
    the eliminated variables.  Raises ValueError for an index outside
    range(sub.ring.n).
    """
    var_indices = frozenset(var_indices)
    outside = sorted(var_indices - set(range(sub.ring.n)))
    if outside:
        raise ValueError(f"variable indices {outside} outside range({sub.ring.n})")
    if not var_indices:
        return sub
    return FreeSubmodule(sub.ring, sub.rank,
                         [v for v in sub.groebner(TermOrder("grevlex", var_indices))
                          if not any(m[i] for f in v for m in f.terms for i in var_indices)])


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
                         [w[r:] for w in big.groebner(TermOrder(split=r))
                          if all(f.is_zero() for f in w[:r])])


def injective_on(f: Poly, W: FreeSubmodule, N: FreeSubmodule) -> bool:
    """Whether multiplication by f is injective on W/N, for N inside W: the
    part of W that f sends into N lies in N."""
    if N.is_zero() and not f.is_zero():
        return True  # W sits in a free module over a domain
    return N.contains(preimage_within(W, [tuple(f * g for g in w) for w in W.gens], N))


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
