"""Bracket powers and Frobenius roots of submodules.

W^{[p^e]} is generated by componentwise p^e-th powers of generators;
W^{[1/p^e]} is the smallest J with W <= J^{[p^e]} and is generated by all
level-e digits of any generating set.  Roots are computed one level at a
time (tower law), each by `FreeSubmodule.level1_root`, which splits the
packed generators into their digits; p-th power factors pull out of a
level-1 root:

    (g^p W)^{[1/p]} = g W^{[1/p]}.

That identity powers scaled_root, which takes roots of u^A f^B W for huge A,
B without ever expanding the big powers: each level only multiplies by
u^{A mod p} f^{B mod p}.
"""

from __future__ import annotations

from .errors import LevelCapExceededError
from .field_poly import Monomial, Poly, frobenius_digits
from .groebner import FreeSubmodule, Vec

DEFAULT_LEVEL_CAP = 6


def level_cap(e_cap: int | None = None) -> int:
    """Max Frobenius level e: e_cap when given, else DEFAULT_LEVEL_CAP."""
    if e_cap is None:
        return DEFAULT_LEVEL_CAP
    if e_cap < 1:
        raise ValueError("level cap must be >= 1")
    return e_cap


def _check_level(e: int, e_cap: int | None = None):
    if e < 0:
        raise ValueError("level must be >= 0")
    cap = level_cap(e_cap)
    if e > cap:
        raise LevelCapExceededError(f"level {e} exceeds cap {cap}")


def bracket_power(W: FreeSubmodule, e: int) -> FreeSubmodule:
    """W^{[p^e]}: generated by componentwise p^e-th powers."""
    if e < 0:
        raise ValueError("level must be >= 0")
    if e == 0:
        return W
    return FreeSubmodule(W.ring, W.rank,
                         [tuple(f.frobenius_power(e) for f in v) for v in W.gens])


def vector_digits(v: Vec, e: int) -> dict[Monomial, Vec]:
    """Componentwise level-e digits, indexed by the digit exponent."""
    ring = v[0].ring
    rank = len(v)
    per_comp = [frobenius_digits(f, e) for f in v]
    out: dict[Monomial, list[Poly]] = {}
    for i in range(rank):
        for a, g in per_comp[i].items():
            if a not in out:
                out[a] = [ring.zero()] * rank
            out[a][i] = g
    return {a: tuple(w) for a, w in out.items()}


def frobenius_root(W: FreeSubmodule, e: int) -> FreeSubmodule:
    """W^{[1/p^e]}, the smallest J with W <= J^{[p^e]}."""
    _check_level(e)
    J = W
    for _ in range(e):
        J = J.level1_root()
    return J


def scaled_root(W: FreeSubmodule, e: int, u: Poly | None = None, A: int = 0,
                f: Poly | None = None, B: int = 0,
                e_cap: int | None = None) -> FreeSubmodule:
    """(u^A f^B W)^{[1/p^e]} without expanding the big powers.

    Per level, u^A f^B = (u^{A//p} f^{B//p})^p * u^{A%p} f^{B%p}, and the
    p-th power factor pulls out of the level-1 root.
    """
    _check_level(e, e_cap)
    ring = W.ring
    p = ring.p
    if u is None:
        u = ring.one()
    if f is None:
        f = ring.one()
    J = W
    for _ in range(e):
        scale = (u ** (A % p)) * (f ** (B % p))
        J = J.scaled(scale).level1_root()
        A //= p
        B //= p
    if A or B:
        J = J.scaled((u**A) * (f**B))
    return J
