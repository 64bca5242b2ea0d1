"""Sparse polynomials over prime fields with Frobenius digit operations.

A polynomial over F_p[x_1..x_n] is a dict mapping exponent tuples to nonzero
coefficients in [1, p).  The Frobenius-specific operations all rest on the
digit decomposition at level e: every f splits uniquely as

    f = sum_a f_a^{p^e} x^a,    0 <= a < p^e componentwise,

and since c^p = c in F_p the coefficient roots are the coefficients
themselves.  The Cartier trace C_e keeps the top digit a = (p^e-1, .., p^e-1)
and satisfies C_e(g^{p^e} f) = g C_e(f).
"""

from __future__ import annotations

import heapq
import operator
from itertools import product

from .errors import NotPrimeError, RingMismatchError

Monomial = tuple[int, ...]

MAX_CHAR = 2**20


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    if p % 2 == 0:
        return p == 2
    d = 3
    while d * d <= p:
        if p % d == 0:
            return False
        d += 2
    return True


class PrimeField:
    """The field F_p for a prime p <= 2^20."""

    __slots__ = ("p",)

    def __init__(self, p: int):
        if not isinstance(p, int) or not _is_prime(p) or p > MAX_CHAR:
            raise NotPrimeError(f"characteristic must be a prime <= 2^20, got {p!r}")
        self.p = p

    def inv(self, c: int) -> int:
        c %= self.p
        if c == 0:
            raise ZeroDivisionError("inverse of 0 in F_p")
        return pow(c, self.p - 2, self.p)

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("PrimeField", self.p))

    def __repr__(self):
        return f"F_{self.p}"


def mon_mul(a: Monomial, b: Monomial) -> Monomial:
    return tuple(map(operator.add, a, b))


def mon_div(a: Monomial, b: Monomial) -> Monomial | None:
    """a / b, or None when b does not divide a."""
    out = []
    for x, y in zip(a, b):
        if x < y:
            return None
        out.append(x - y)
    return tuple(out)


def grevlex_key(mon: Monomial):
    """Sort key: bigger key = bigger monomial in graded reverse lex."""
    return (sum(mon), tuple(-e for e in reversed(mon)))


class Ring:
    """Context object for F_p[names]; n = 0 variables is allowed."""

    __slots__ = ("field", "p", "names", "n", "_digit_cache", "_codes")

    def __init__(self, p: int, names: tuple[str, ...] | list[str]):
        self.field = PrimeField(p)
        self.p = p
        names = tuple(names)
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate variable names in {names}")
        self.names = names
        self.n = len(names)
        self._digit_cache: dict[int, list[Monomial]] = {}
        self._codes: dict[tuple, object] = {}  # packed-term codes of the Groebner engine

    def __eq__(self, other):
        return isinstance(other, Ring) and other.p == self.p and other.names == self.names

    def __hash__(self):
        return hash((self.p, self.names))

    def __repr__(self):
        return f"F_{self.p}[{','.join(self.names)}]"

    def zero(self) -> "Poly":
        return Poly(self, {})

    def one(self) -> "Poly":
        return self.constant(1)

    def constant(self, c: int) -> "Poly":
        c %= self.p
        if c == 0:
            return Poly(self, {})
        return Poly(self, {(0,) * self.n: c})

    def var(self, name: str) -> "Poly":
        i = self.names.index(name)
        exp = [0] * self.n
        exp[i] = 1
        return Poly(self, {tuple(exp): 1})

    def monomial(self, exps: Monomial, coeff: int = 1) -> "Poly":
        coeff %= self.p
        if len(exps) != self.n:
            raise ValueError(f"expected {self.n} exponents, got {exps}")
        if any(e < 0 for e in exps):
            raise ValueError(f"negative exponent in {exps}")
        if coeff == 0:
            return self.zero()
        return Poly(self, {tuple(exps): coeff})

    def gens(self) -> tuple["Poly", ...]:
        return tuple(self.var(nm) for nm in self.names)

    def extend(self, name: str) -> "Ring":
        """Ring with one extra variable appended."""
        if name in self.names:
            raise ValueError(f"variable name {name!r} already in use")
        return Ring(self.p, self.names + (name,))

    def drop_last(self) -> "Ring":
        if self.n == 0:
            raise ValueError("no variable to drop")
        return Ring(self.p, self.names[:-1])

    def digit_monomials(self, e: int = 1) -> list[Monomial]:
        """All exponent tuples a with 0 <= a_i < p^e; spans F_* over p^e-th powers."""
        if e not in self._digit_cache:
            q = self.p**e
            if q**self.n > 2**16:
                raise ValueError(f"digit basis of size {q}^{self.n} is too large")
            self._digit_cache[e] = [tuple(a) for a in product(range(q), repeat=self.n)]
        return self._digit_cache[e]


class Poly:
    """Immutable sparse polynomial; do not mutate .terms."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring: Ring, terms: dict[Monomial, int]):
        self.ring = ring
        self.terms = terms

    # -- basic predicates -------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_one(self) -> bool:
        return self.terms == {(0,) * self.ring.n: 1}

    def __bool__(self):
        return bool(self.terms)

    # -- arithmetic --------------------------------------------------------

    def _check(self, other: "Poly"):
        if self.ring != other.ring:
            raise RingMismatchError(f"{self.ring} vs {other.ring}")

    def __add__(self, other: "Poly") -> "Poly":
        self._check(other)
        p = self.ring.p
        out = dict(self.terms)
        for m, c in other.terms.items():
            v = (out.get(m, 0) + c) % p
            if v:
                out[m] = v
            else:
                out.pop(m, None)
        return Poly(self.ring, out)

    def __neg__(self) -> "Poly":
        p = self.ring.p
        return Poly(self.ring, {m: p - c for m, c in self.terms.items()})

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other: "Poly") -> "Poly":
        self._check(other)
        p = self.ring.p
        a, b = self.terms, other.terms
        if len(a) > len(b):
            a, b = b, a
        out: dict[Monomial, int] = {}
        for m1, c1 in a.items():
            for m2, c2 in b.items():
                m = mon_mul(m1, m2)
                v = (out.get(m, 0) + c1 * c2) % p
                if v:
                    out[m] = v
                else:
                    out.pop(m, None)
        return Poly(self.ring, out)

    def scale(self, c: int) -> "Poly":
        c %= self.ring.p
        if c == 0:
            return self.ring.zero()
        p = self.ring.p
        return Poly(self.ring, {m: (v * c) % p for m, v in self.terms.items()})

    def mul_monomial(self, mon: Monomial, coeff: int = 1) -> "Poly":
        coeff %= self.ring.p
        if coeff == 0:
            return self.ring.zero()
        p = self.ring.p
        return Poly(self.ring, {mon_mul(m, mon): (c * coeff) % p for m, c in self.terms.items()})

    def __pow__(self, k: int) -> "Poly":
        if k < 0:
            raise ValueError("negative power")
        if k == 0:
            return self.ring.one()
        if len(self.terms) == 1:
            ((m, c),) = self.terms.items()
            return Poly(self.ring, {tuple(e * k for e in m): pow(c, k, self.ring.p)})
        base, out = self, None
        while k:
            if k & 1:
                out = base if out is None else out * base
            k >>= 1
            if k:
                base = base * base
        return out

    def frobenius_power(self, e: int) -> "Poly":
        """f^{p^e} via the freshman's dream: exponents scale, coefficients fixed."""
        q = self.ring.p**e
        return Poly(self.ring, {tuple(x * q for x in m): c for m, c in self.terms.items()})

    def __eq__(self, other):
        return isinstance(other, Poly) and other.ring == self.ring and other.terms == self.terms

    def __hash__(self):
        return hash((self.ring, tuple(sorted(self.terms.items()))))

    # -- leading data and division ----------------------------------------

    def leading(self) -> tuple[Monomial, int]:
        """Leading monomial and coefficient in grevlex."""
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        m = max(self.terms, key=grevlex_key)
        return m, self.terms[m]

    def div_exact(self, g: "Poly") -> "Poly | None":
        """Quotient self/g when g divides exactly, else None."""
        self._check(g)
        if g.is_zero():
            return None if self.terms else self.ring.zero()
        p = self.ring.p
        gm, gc = g.leading()
        gc_inv = pow(gc, p - 2, p)
        rem = dict(self.terms)
        # the remainder's terms, grevlex-largest on top: (-degree, reversed exponents)
        heap = [(-sum(m), m[::-1]) for m in rem]
        heapq.heapify(heap)
        quot: dict[Monomial, int] = {}
        while heap:
            m = heapq.heappop(heap)[1][::-1]
            if m not in rem:
                continue  # cancelled after it was pushed
            q = mon_div(m, gm)
            if q is None:
                return None
            c = (rem[m] * gc_inv) % p
            quot[q] = c
            for m2, c2 in g.terms.items():
                mm = mon_mul(q, m2)
                v = (rem.get(mm, 0) - c * c2) % p
                if not v:
                    rem.pop(mm, None)
                    continue
                if mm not in rem:
                    heapq.heappush(heap, (-sum(mm), mm[::-1]))
                rem[mm] = v
        return Poly(self.ring, quot)

    # -- structural maps ----------------------------------------------------

    def map_ring(self, target: Ring) -> "Poly":
        """Reinterpret in target ring, each variable sent to the target
        variable of the same name.  A variable that occurs must have one."""
        if target.p != self.ring.p:
            raise RingMismatchError("characteristic mismatch")
        var_map = {i: target.names.index(nm) for i, nm in enumerate(self.ring.names)
                   if nm in target.names}
        out: dict[Monomial, int] = {}
        for m, c in self.terms.items():
            exp = [0] * target.n
            for i, e in enumerate(m):
                if e == 0:
                    continue
                if i not in var_map:
                    raise ValueError(f"variable {self.ring.names[i]!r} has no image")
                exp[var_map[i]] += e
            mt = tuple(exp)
            v = (out.get(mt, 0) + c) % target.p
            if v:
                out[mt] = v
            else:
                out.pop(mt, None)
        return Poly(target, out)

    def substitute(self, var_name: str, value: "Poly") -> "Poly":
        """Replace one variable by a polynomial of the same ring."""
        self._check(value)
        idx = self.ring.names.index(var_name)
        out = self.ring.zero()
        powers: dict[int, Poly] = {0: self.ring.one()}

        def val_pow(k: int) -> Poly:
            if k not in powers:
                powers[k] = val_pow(k - 1) * value
            return powers[k]

        for m, c in self.terms.items():
            rest = list(m)
            k = rest[idx]
            rest[idx] = 0
            out = out + val_pow(k).mul_monomial(tuple(rest), c)
        return out

    def coeffs_in_var(self, idx: int) -> dict[int, "Poly"]:
        """Split as sum_k x_idx^k * c_k with c_k free of x_idx."""
        buckets: dict[int, dict[Monomial, int]] = {}
        for m, c in self.terms.items():
            k = m[idx]
            rest = list(m)
            rest[idx] = 0
            buckets.setdefault(k, {})[tuple(rest)] = c
        return {k: Poly(self.ring, t) for k, t in buckets.items()}

    def degree_in_var(self, idx: int) -> int:
        if not self.terms:
            return -1
        return max(m[idx] for m in self.terms)

    # -- text form -----------------------------------------------------------

    def to_str(self) -> str:
        """Canonical text: terms in descending lex order of exponent tuples."""
        if not self.terms:
            return "0"
        parts = []
        for m in sorted(self.terms, reverse=True):
            c = self.terms[m]
            factors = []
            if c != 1 or all(e == 0 for e in m):
                factors.append(str(c))
            for nm, e in zip(self.ring.names, m):
                if e == 1:
                    factors.append(nm)
                elif e > 1:
                    factors.append(f"{nm}^{e}")
            parts.append("*".join(factors))
        return " + ".join(parts)

    def __repr__(self):
        return f"<{self.to_str()} over {self.ring}>"


def frobenius_digits(f: Poly, e: int) -> dict[Monomial, Poly]:
    """All level-e digits of f, indexed by exponent tuples a below p^e:
    f = sum_a digits[a]^{p^e} x^a."""
    if e < 1:
        raise ValueError("level must be >= 1")
    q = f.ring.p**e
    buckets: dict[Monomial, dict[Monomial, int]] = {}
    for m, c in f.terms.items():
        a = tuple(x % q for x in m)
        g = tuple(x // q for x in m)
        buckets.setdefault(a, {})[g] = c
    return {a: Poly(f.ring, t) for a, t in buckets.items()}


def cartier_trace(f: Poly, e: int = 1) -> Poly:
    """The level-e Cartier trace: projection onto the digit (p^e-1, .., p^e-1).

    Satisfies C_e(g^{p^e} f) = g C_e(f) and C_e(x^{(p^e-1)(1,..,1)} g^{p^e}) = g.
    For the zero-variable ring this is the identity.
    """
    if e < 1:
        raise ValueError("level must be >= 1")
    q = f.ring.p**e
    top = q - 1
    out: dict[Monomial, int] = {}
    for m, c in f.terms.items():
        if all(x % q == top for x in m):
            out[tuple((x - top) // q for x in m)] = c
    return Poly(f.ring, out)

