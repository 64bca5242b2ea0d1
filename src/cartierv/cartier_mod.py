"""Cartier modules: presentations with a p^{-1}-linear structure.

A level-1 Cartier structure on R^r is kappa(v) = C(U v) applied entrywise,
for an r x r twist matrix U.  Since kappa(x^a v) for 0 <= a < p spans the
R-module generated by kappa(R v), every stability or image computation only
ever touches the p^n digit monomials.  The trace C keeps the top digit
top = (p-1, .., p-1), so C(x^a g) = g_{top-a}, the level-1 digit of g at
top - a: one product U v and one digit split give all p^n images
kappa(x^a v) at once, and kappa(v) is the top digit.  So the R-span of
kappa(W) is the level-1 Frobenius root (U W)^{[1/p]}.  One packed split,
with U packed once per structure, serves both: `kappa_span` splits U W,
`CartierStructure.apply` and `digit_images` split U v (`twist_digits`).

Quotients are never first-class: a module supported on a closed subscheme
is presented as a subquotient W/N of a free module over the ambient ring,
with both W and N kappa-stable.  The image-stable part, nilpotence and the
test module sum are reads of one kappa-chain V -> kappa(V) + base
(`kappa_chain`).  Both finite functors write their twist in closed form,
from U and the coordinates of y-powers mod g, which each `FiniteExtension`
reduces once, one step from the last, and keeps.  Its discriminant is
computed only when read, by the etale pullback's guard and the trace
comparison.
"""

from __future__ import annotations

from functools import cached_property
from typing import Iterable, Iterator, NamedTuple, Sequence

from .errors import (CartierError, RankMismatchError, RingMismatchError,
                     StabilizationCapExceededError)
from .field_poly import Poly, Ring, cartier_trace
from .groebner import (
    FreeSubmodule,
    QuotientPresentation,
    Twist,
    Vec,
    full_module,
    ideal,
    pack_matrix,
    preimage_within,
    twist_digits,
    zero_module,
)

MAX_IMAGE_ITERATIONS = 256
GRAPH_VAR = "s"


# -- structures ---------------------------------------------------------------


class CartierStructure:
    """kappa(v) = C(U v) entrywise, level 1."""

    __slots__ = ("ring", "rank", "U", "_twist")

    def __init__(self, ring: Ring, rank: int, U: Sequence[Sequence[Poly]]):
        rows = tuple(tuple(row) for row in U)
        if len(rows) != rank or any(len(r) != rank for r in rows):
            raise RankMismatchError(f"twist matrix must be {rank}x{rank}")
        for row in rows:
            for entry in row:
                if entry.ring != ring:
                    raise RingMismatchError("twist entry over wrong ring")
        self.ring = ring
        self.rank = rank
        self.U = rows
        self._twist: Twist | None = None

    @staticmethod
    def scalar(ring: Ring, u: Poly | None = None) -> "CartierStructure":
        u = ring.one() if u is None else u
        return CartierStructure(ring, 1, ((u,),))

    def scalar_twist(self) -> Poly:
        if self.rank != 1:
            raise RankMismatchError("not a rank-1 structure")
        return self.U[0][0]

    def apply(self, v: Vec) -> Vec:
        """kappa(v) = C(U v), the top digit of U v."""
        top = self.ring.p ** self.ring.n - 1
        return twist_digits(self.ring, self.packed(), v, (top,))[0]

    def digit_images(self, v: Vec) -> list[Vec]:
        """kappa(x^a v) for each a in ring.digit_monomials(1), in that order.

        C(x^a g) is the level-1 digit g_{top-a}, so the images are the digits
        of the one product U v, split on packed terms as in `kappa_span`.
        digit_monomials lists a by increasing digit index k, so the image at
        k is the digit at index top - k.
        """
        top = len(self.ring.digit_monomials(1)) - 1
        return twist_digits(self.ring, self.packed(), v, range(top, -1, -1))

    def packed(self) -> Twist:
        """U packed for `level1_root` and `twist_digits`, on first use."""
        if self._twist is None:
            self._twist = pack_matrix(self.ring, self.rank, self.U)
        return self._twist

    def twisted(self, g: Poly) -> "CartierStructure":
        """The structure kappa composed with multiplication by g."""
        if g.ring != self.ring:
            raise RingMismatchError("twist over wrong ring")
        return CartierStructure(self.ring, self.rank,
                                tuple(tuple(g * e for e in row) for row in self.U))

    def map_ring(self, target: Ring) -> "CartierStructure":
        return CartierStructure(target, self.rank,
                                tuple(tuple(e.map_ring(target) for e in row) for row in self.U))

    def __repr__(self):
        if self.rank == 1:
            return f"<C o ({self.U[0][0].to_str()}) on {self.ring}>"
        return f"<Cartier structure rank {self.rank} on {self.ring}>"


def kappa_span(structure: CartierStructure, sub: FreeSubmodule) -> FreeSubmodule:
    """The R-span of kappa(sub), generated by kappa(x^a w) for digit a.

    Since C(x^a g) = g_{top-a}, the p^n images of one generator w are the
    level-1 digits of the single product U w, so the span is the level-1
    root (U sub)^{[1/p]}, computed on packed terms.
    """
    if sub.ring != structure.ring:
        raise RingMismatchError(f"{sub.ring} vs {structure.ring}")
    if sub.rank != structure.rank:
        raise RankMismatchError(f"rank {sub.rank} vs {structure.rank}")
    return sub.level1_root(structure.packed())


# -- modules ------------------------------------------------------------------


class CartierModule:
    """A subquotient presentation W/N together with a stable structure."""

    __slots__ = ("pres", "structure")

    def __init__(self, pres: QuotientPresentation, structure: CartierStructure,
                 check: bool = True):
        if pres.ring != structure.ring:
            raise RingMismatchError("presentation and structure over different rings")
        if pres.rank != structure.rank:
            raise RankMismatchError("presentation and structure rank differ")
        if check:
            for label, sub in (("numerator", pres.W), ("denominator", pres.N)):
                bad = _stability_failure(structure, sub)
                if bad is not None:
                    raise CartierError(
                        f"structure does not preserve the {label}: kappa of "
                        f"{_vec_str(bad[0])} times x^{bad[1]} escapes")
        self.pres = pres
        self.structure = structure

    @staticmethod
    def over_ring(ring: Ring, u: Poly | None = None) -> "CartierModule":
        """(R, C o u): full free rank-1 module with a scalar twist."""
        return CartierModule.free(ring, CartierStructure.scalar(ring, u))

    @staticmethod
    def free(ring: Ring, structure: CartierStructure) -> "CartierModule":
        pres = QuotientPresentation(full_module(ring, structure.rank),
                                    zero_module(ring, structure.rank))
        return CartierModule(pres, structure, check=False)

    @property
    def ring(self) -> Ring:
        return self.pres.ring

    @property
    def rank(self) -> int:
        return self.pres.rank

    def is_full_free(self) -> bool:
        """Whether W/N is R^rank itself: N is zero and W is all of R^rank,
        read off the reduced basis of W."""
        return self.pres.N.is_zero() and self.pres.W.is_full()

    def __repr__(self):
        return f"<Cartier module {self.structure!r} on W/N in {self.ring}^{self.rank}>"


def _vec_str(v: Vec) -> str:
    return "(" + ", ".join(f.to_str() for f in v) + ")"


def _stability_failure(structure: CartierStructure, sub: FreeSubmodule):
    digits = structure.ring.digit_monomials(1)
    for w in sub.gens:
        for a, img in zip(digits, structure.digit_images(w)):
            if not sub.contains_vector(img):
                return (w, a)
    return None


def kappa_chain(structure: CartierStructure, start: FreeSubmodule,
                base: FreeSubmodule) -> Iterator[FreeSubmodule]:
    """V_0 = start, V_(e+1) = kappa(V_e) + base, each by its reduced basis,
    up to the first repeat.  A descent from W over N stops by
    Hartshorne-Speiser-Gabber stabilization (Blickle-Boeckle), an ascent
    since R is noetherian; past MAX_IMAGE_ITERATIONS steps a chain raises
    StabilizationCapExceededError."""
    V = start.minimal_gens()
    for _ in range(MAX_IMAGE_ITERATIONS):
        yield V
        nxt = kappa_span(structure, V).add(base).minimal_gens()
        if nxt == V:
            return
        V = nxt
    raise StabilizationCapExceededError(
        f"kappa chain did not stabilize within {MAX_IMAGE_ITERATIONS} steps")


def underline(M: CartierModule) -> tuple[FreeSubmodule, int]:
    """Image-stable part, the largest V = kappa(V) + N inside W: the last
    element of the kappa-chain from W over N, and its number of strict descents."""
    *descents, V = kappa_chain(M.structure, M.pres.W, M.pres.N)
    return V, len(descents)


def is_F_pure(M: CartierModule) -> bool:
    return kappa_span(M.structure, M.pres.W).add(M.pres.N) == M.pres.W


def nilpotence_order(M: CartierModule) -> int | None:
    """Smallest e with kappa^e(M) = 0: the index of the first element of the
    kappa-chain from W over N that lies in N, or None when the chain fixes
    above N.  The verdict is exact either way."""
    N = M.pres.N
    chain = kappa_chain(M.structure, M.pres.W, N)
    return next((e for e, Y in enumerate(chain) if N.contains(Y)), None)


def is_nilpotent(M: CartierModule) -> bool:
    return nilpotence_order(M) is not None


# -- morphisms ----------------------------------------------------------------


class CartierMorphism:
    """R-linear map R^{r_src} -> R^{r_tgt} given by a matrix, intended to
    intertwine the structures of two modules."""

    __slots__ = ("source", "target", "matrix")

    def __init__(self, source: CartierModule, target: CartierModule,
                 matrix: Sequence[Sequence[Poly]]):
        if source.ring != target.ring:
            raise RingMismatchError("morphism across different rings")
        rows = tuple(tuple(r) for r in matrix)
        if len(rows) != target.rank or any(len(r) != source.rank for r in rows):
            raise RankMismatchError("morphism matrix shape mismatch")
        self.source = source
        self.target = target
        self.matrix = rows

    def apply(self, v: Vec) -> Vec:
        """matrix * v, skipping zero entries."""
        zero = self.source.ring.zero()
        return tuple(sum((e * c for e, c in zip(row, v) if e.terms and c.terms), zero)
                     for row in self.matrix)


def morphism_check(phi: CartierMorphism) -> tuple[bool, str]:
    """Verify phi maps W->W, N->N and intertwines the structures.

    Checking the intertwining on generators times digit monomials suffices
    because both sides are p^{-1}-linear in the scalar argument.  phi is
    R-linear, so kappa_tgt(phi(x^a w)) is the digit image of phi(w) at a.
    """
    src, tgt = phi.source, phi.target
    for w in src.pres.W.gens:
        if not tgt.pres.W.contains_vector(phi.apply(w)):
            return False, f"image of numerator generator {_vec_str(w)} escapes"
    for n in src.pres.N.gens:
        if not tgt.pres.N.contains_vector(phi.apply(n)):
            return False, f"image of denominator generator {_vec_str(n)} escapes"
    digits = src.ring.digit_monomials(1)
    for w in src.pres.W.gens:
        images = zip(digits, src.structure.digit_images(w),
                     tgt.structure.digit_images(phi.apply(w)))
        for a, lhs, rhs in images:
            diff = tuple(s - t for s, t in zip(phi.apply(lhs), rhs))
            if not tgt.pres.N.contains_vector(diff):
                return False, f"structures do not intertwine on x^{a} * {_vec_str(w)}"
    return True, "ok"


def kernel_presentation(phi: CartierMorphism) -> CartierModule:
    """The kernel {v in W_src : phi(v) in N_tgt} as a Cartier module."""
    src, tgt = phi.source, phi.target
    W = src.pres.W
    K = preimage_within(W, [phi.apply(w) for w in W.gens], tgt.pres.N).add(src.pres.N)
    return CartierModule(QuotientPresentation(K, src.pres.N), src.structure, check=False)


def cokernel_presentation(phi: CartierMorphism) -> CartierModule:
    tgt = phi.target
    image = FreeSubmodule(tgt.ring, tgt.rank,
                          [phi.apply(w) for w in phi.source.pres.W.gens])
    D = image.add(tgt.pres.N)
    return CartierModule(QuotientPresentation(tgt.pres.W, D), tgt.structure, check=False)


class NilIsoReport(NamedTuple):
    is_morphism: bool
    kernel_nilpotent: bool
    cokernel_nilpotent: bool
    detail: str

    @property
    def is_nil_isomorphism(self) -> bool:
        return self.is_morphism and self.kernel_nilpotent and self.cokernel_nilpotent


def nil_isomorphism_check(phi: CartierMorphism) -> NilIsoReport:
    """Kernel and cokernel nilpotence; both are exact fixed-point verdicts."""
    ok, why = morphism_check(phi)
    if not ok:
        return NilIsoReport(False, False, False, why)
    kern = is_nilpotent(kernel_presentation(phi))
    coker = is_nilpotent(cokernel_presentation(phi))
    return NilIsoReport(True, kern, coker, "ok")


# -- graph embedding -----------------------------------------------------------


def graph_embed(M: CartierModule, f: Poly) -> CartierModule:
    """Push M forward along the graph of f: same module over R[s], s acts
    as f.  The twist picks up the factor (s - f)^{p-1}; reducing s -> f
    recovers the original action on representatives.  s is GRAPH_VAR; a
    ring that already has it raises ValueError."""
    ring = M.ring
    if f.ring != ring:
        raise RingMismatchError("graph element over wrong ring")
    ext = ring.extend(GRAPH_VAR)
    s = ext.var(GRAPH_VAR)
    f_ext = f.map_ring(ext)
    W = M.pres.W.map_ring(ext)
    relations = [tuple((s - f_ext) * c.map_ring(ext) for c in w) for w in M.pres.W.gens]
    N = M.pres.N.map_ring(ext).add_vectors(relations)
    twist = (s - f_ext) ** (ext.p - 1)
    structure = M.structure.map_ring(ext).twisted(twist)
    return CartierModule(QuotientPresentation(W, N), structure)


def reduce_from_graph(sub: FreeSubmodule, base: Ring, f: Poly) -> FreeSubmodule:
    """Substitute s -> f in every generator and land back in the base ring."""
    f_ext = f.map_ring(sub.ring)
    gens = []
    for v in sub.gens:
        gens.append(tuple(c.substitute(GRAPH_VAR, f_ext).map_ring(base) for c in v))
    return FreeSubmodule(base, sub.rank, gens)


# -- finite extensions ---------------------------------------------------------


class FiniteExtension:
    """S = P/(g) finite free over the base ring, g monic in the last variable.

    Elements are held by their coordinates over the base in the basis 1, .., y^{d-1}.
    One step, `_step`, maps the coordinates of h to those of y h + a.  `_coords` walks it
    by Horner's rule to reduce any h in P, for `split`, `reduce` and `trace`; `power`
    grows a table of the coordinates of y^m, one step per entry, for the Frobenius rows
    y^{jp}, the traces Tr(y^k) = sum_j (y^{k+j})_j and the pushforward's twist.  The
    discriminant det Tr(y^{i+j}) is computed when it is first read.
    """

    def __init__(self, P: Ring, g: Poly):
        if g.ring != P:
            raise RingMismatchError("extension polynomial over wrong ring")
        if P.n < 1:
            raise ValueError("extension needs at least one variable")
        yidx = P.n - 1
        d = g.degree_in_var(yidx)
        if d < 1:
            raise ValueError("extension polynomial must involve the last variable")
        if not g.coeffs_in_var(yidx)[d].is_one():
            raise ValueError("extension polynomial must be monic in the last variable")
        self.P = P
        self.base = P.drop_last()
        self.g = g
        self.yidx = yidx
        self.degree = d
        self._tail = self._coords(g - self.y_power(d))  # below degree d: takes no step
        self._powers = [self._coords(P.one())]
        self.frob_rows = tuple(self.power(j * P.p) for j in range(d))
        self.trace_values = tuple(self._power_trace(k) for k in range(d))

    @cached_property
    def discriminant(self) -> Poly:
        """det Tr(y^{i+j}), by Bareiss elimination."""
        traces = [self._power_trace(k) for k in range(2 * self.degree - 1)]
        return _det([traces[i:i + self.degree] for i in range(self.degree)])

    def y_power(self, k: int) -> Poly:
        exps = [0] * self.P.n
        exps[self.yidx] = k
        return self.P.monomial(tuple(exps))

    def power(self, m: int) -> tuple[Poly, ...]:
        """Coordinates of y^m mod g, from a table grown one `_step` at a time."""
        while len(self._powers) <= m:
            self._powers.append(self._step(self._powers[-1], self.base.zero()))
        return self._powers[m]

    def _power_trace(self, k: int) -> Poly:
        """Tr(y^k), the sum of the diagonal coordinates (y^{k+j})_j."""
        return sum((self.power(k + j)[j] for j in range(self.degree)), self.base.zero())

    def _step(self, c: tuple[Poly, ...], low: Poly) -> tuple[Poly, ...]:
        """Coordinates of y h + low from those of h:
        y (c_0, .., c_{d-1}) = (0, c_0, .., c_{d-2}) - c_{d-1} (g - y^d)."""
        top = c[-1]
        return tuple(a - top * t if t.terms else a
                     for a, t in zip((low,) + c[:-1], self._tail))

    def _coords(self, h: Poly) -> tuple[Poly, ...]:
        """Coordinates of h mod g over base, by Horner's rule from the top d coefficients
        down, one `_step` per lower coefficient."""
        coeffs = {k: c.map_ring(self.base) for k, c in h.coeffs_in_var(self.yidx).items()}
        zero, low = self.base.zero(), max(max(coeffs, default=0) - self.degree + 1, 0)
        out = tuple(coeffs.get(k, zero) for k in range(low, low + self.degree))
        for k in range(low - 1, -1, -1):
            out = self._step(out, coeffs.get(k, zero))
        return out

    def reduce(self, h: Poly) -> Poly:
        """Normal form of h mod g, of y-degree below d."""
        return sum((c.map_ring(self.P) * self.y_power(k) for k, c in enumerate(self._coords(h))),
                   self.P.zero())

    def trace(self, s: Poly) -> Poly:
        """Field trace S -> base ring, sum_k s_k Tr(y^k) over the coordinates s_k."""
        return sum((c * t for c, t in zip(self._coords(s), self.trace_values)), self.base.zero())

    def split(self, v: Vec) -> Vec:
        """P^r vector -> base^{d r}, coordinates mod g in blocks indexed by y-power."""
        coords = [self._coords(c) for c in v]
        return tuple(cs[j] for j in range(self.degree) for cs in coords)

    def quotient_structure(self, u: Poly | None = None) -> CartierStructure:
        """The Cartier structure C_P o g^{p-1} (times an optional base twist)
        on S presented as P/(g); for etale g this is the canonical lift."""
        tw = self.g ** (self.P.p - 1)
        if u is not None:
            tw = tw * u
        return CartierStructure.scalar(self.P, tw)

    def quotient_module(self, u: Poly | None = None) -> CartierModule:
        W = full_module(self.P, 1)
        N = ideal(self.P, self.g)
        return CartierModule(QuotientPresentation(W, N), self.quotient_structure(u))

    def __repr__(self):
        return f"<extension {self.P}/({self.g.to_str()}) of degree {self.degree}>"


def _det(matrix: list[list[Poly]]) -> Poly:
    """Determinant by Bareiss elimination: each division by the last pivot is exact
    in the domain, and a row swap negates the row it moves down."""
    a = [list(row) for row in matrix]
    n = len(a)
    prev = a[0][0].ring.one()
    for k in range(n - 1):
        if a[k][k].is_zero():
            swap = next((i for i in range(k + 1, n) if a[i][k].terms), None)
            if swap is None:
                return prev.ring.zero()
            a[k], a[swap] = a[swap], [-e for e in a[k]]
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]).div_exact(prev)
        prev = a[k][k]
    return a[-1][-1]


def make_extension(P: Ring, g: Poly) -> FiniteExtension:
    return FiniteExtension(P, g)


def pushforward_finite(ext: FiniteExtension, M: CartierModule) -> CartierModule:
    """View a module over P = base[y] annihilated by g as a module over the
    base ring, rank d*r, with the transported structure.

    Slot (j, i) holds the y^j coordinate of component i, as in `split`.  For
    a in base, C_P(a y^k) = C(a) y^{(k-p+1)/p} when k = p-1 mod p and 0
    otherwise, so with U y^j = sum_k y^k U_{jk} block (l, j) of the twist is
    sum_{k = p-1 mod p} (coordinate l of y^{(k-p+1)/p} mod g)^p U_{jk}.
    """
    if M.ring != ext.P:
        raise RingMismatchError("module not presented over the extension ring")
    g_full = full_module(ext.P, M.rank).scaled(ext.g)
    if not M.pres.N.contains(g_full):
        raise CartierError("denominator must absorb g times the free module")
    r, d, p = M.rank, ext.degree, ext.P.p
    W = pushforward_submodule(ext, M.pres.W, r)
    N = pushforward_submodule(ext, M.pres.N, r)
    U = M.structure.U
    top = max(e.degree_in_var(ext.yidx) for row in U for e in row) + d - 1
    # (coordinates of y^m mod g)^p, for each m that C_P reaches
    lifts = [tuple(c.frobenius_power(1) for c in ext.power(m)) for m in range(top // p + 1)]
    rows: list[list[Poly]] = [[ext.base.zero()] * (d * r) for _ in range(d * r)]
    for i in range(r):
        for i2 in range(r):
            for e, c in U[i][i2].coeffs_in_var(ext.yidx).items():
                c = c.map_ring(ext.base)
                # c y^e in U is c in U_{jk} for k = e + j; those k = p-1 mod p
                # go to y^{(k-p+1)/p} = y^{k // p}
                for j in range((p - 1 - e) % p, d, p):
                    for l, a in enumerate(lifts[(e + j) // p]):
                        if a.terms:
                            rows[l * r + i][j * r + i2] += a * c
    structure = CartierStructure(ext.base, d * r, rows)
    return CartierModule(QuotientPresentation(W, N), structure)


def pushforward_submodule(ext: FiniteExtension, sub: FreeSubmodule, r: int) -> FreeSubmodule:
    """Pushforward of a submodule of P^r that absorbs g, as a base submodule."""
    gens = []
    for w in sub.gens:
        for j in range(ext.degree):
            yj = ext.y_power(j)
            gens.append(ext.split(tuple(yj * c for c in w)))
    return FreeSubmodule(ext.base, ext.degree * r, gens).minimal_gens()


def shriek_finite(ext: FiniteExtension, M: CartierModule) -> CartierModule:
    """f^! M = Hom_base(S, M) with (kappa phi)(y^j) = kappa_M(phi(y^{jp} mod g)).

    Presented over the base ring with rank d*r; slot (j, i) holds component
    i of phi(y^j)."""
    if M.ring != ext.base:
        raise RingMismatchError("shriek input must live over the base ring")
    r = M.rank
    d = ext.degree
    rank = d * r
    U = M.structure.U
    rows: list[list[Poly]] = [[ext.base.zero() for _ in range(rank)] for _ in range(rank)]
    for j in range(d):
        for l in range(d):
            c = ext.frob_rows[j][l]
            if c.is_zero():
                continue
            for i in range(r):
                for i2 in range(r):
                    rows[j * r + i][l * r + i2] = rows[j * r + i][l * r + i2] + c * U[i][i2]
    structure = CartierStructure(ext.base, rank, rows)

    def block_sub(sub: FreeSubmodule) -> FreeSubmodule:
        gens = []
        for j in range(d):
            for w in sub.gens:
                v = [ext.base.zero()] * rank
                for i in range(r):
                    v[j * r + i] = w[i]
                gens.append(tuple(v))
        return FreeSubmodule(ext.base, rank, gens)

    W = block_sub(M.pres.W)
    N = block_sub(M.pres.N)
    return CartierModule(QuotientPresentation(W, N), structure)


def pullback_etale(ext: FiniteExtension, M: CartierModule) -> CartierModule:
    """M tensored up to S = P/(g), with the g^{p-1}-lifted structure.

    S is etale over the base exactly when the discriminant of g is a unit, and
    over a polynomial base the units are the nonzero constants; any other cover
    raises CartierError.  That refuses covers etale only away from a closed
    set, such as y^2 - x - 1 off x = -1: localizing the base first is the
    caller's job.  Only full free numerators are supported, which covers
    structures on the ring itself.
    """
    if M.ring != ext.base:
        raise RingMismatchError("pullback input must live over the base ring")
    if not M.is_full_free():
        raise CartierError("pullback implemented for full free modules only")
    disc = ext.discriminant
    if disc.is_zero() or any(any(m) for m in disc.terms):
        raise CartierError(f"cover is not etale: discriminant {disc.to_str()} is not a unit")
    r = M.rank
    W = full_module(ext.P, r)
    N = full_module(ext.P, r).scaled(ext.g)
    lift_U = M.structure.map_ring(ext.P)
    structure = lift_U.twisted(ext.g ** (ext.P.p - 1))
    return CartierModule(QuotientPresentation(W, N), structure)


def trace_kappa_commutes(ext: FiniteExtension, samples: Iterable[Poly],
                         u: Poly | None = None) -> bool:
    """Does Tr o kappa_S = kappa_base o Tr on the given samples?

    kappa_S is the quotient structure (canonical lift when g is etale);
    kappa_base is C o u on the base ring.  Meaningful when the discriminant
    is not identically zero.
    """
    if ext.discriminant.is_zero():
        raise CartierError("extension is nowhere etale; trace comparison is void")
    kS = ext.quotient_structure(u.map_ring(ext.P) if u is not None else None)
    base_u = u if u is not None else ext.base.one()
    for s in samples:
        if s.ring != ext.P:
            raise RingMismatchError("sample over wrong ring")
        lhs = ext.trace(kS.apply((s,))[0])
        rhs = cartier_trace(base_u * ext.trace(s), 1)
        if lhs != rhs:
            return False
    return True


# -- localization ---------------------------------------------------------------


def localize_presentation(M: CartierModule, h: Poly) -> CartierModule:
    """Saturate numerator and denominator at h; the structure is unchanged
    because kappa(h^{-pk} v) = h^{-k} kappa(v) keeps stability."""
    if h.is_zero():
        raise ValueError("cannot localize at zero")
    W = M.pres.W.saturate_element(h)
    N = M.pres.N.saturate_element(h)
    return CartierModule(QuotientPresentation(W, N), M.structure)
