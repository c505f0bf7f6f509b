"""Multiplicative characters mod p and their lifts through field norms.

A character is pinned down by an index t against the canonical (smallest)
primitive root g: it sends g^j to the root of unity of index t*j mod (p-1),
and 0 to 0. Values are tracked as exact root-of-unity indices; complex
floats appear only when a caller asks for the numeric value.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

from . import field_core as fc
from . import linalg

DLOG_CAP = 10**5

_dlog_cache: dict[tuple[int, int], list] = {}


def primitive_root(p: int) -> int:
    """Smallest primitive root mod p."""
    linalg.check_prime(p)
    if p == 2:
        return 1
    order = p - 1
    prime_factors = fc.prime_divisors(order)
    for g in range(2, p):
        if all(pow(g, order // q, p) != 1 for q in prime_factors):
            return g
    raise AssertionError("unreachable: primitive roots exist for every prime")


def _dlog_table(p: int, g: int) -> list:
    """dlog[a] = j with g^j = a mod p; dlog[0] = None."""
    key = (p, g)
    if key not in _dlog_cache:
        if p > DLOG_CAP:
            raise ValueError(f"discrete log table supports p <= {DLOG_CAP}")
        table: list = [None] * p
        acc = 1
        for j in range(p - 1):
            if table[acc] is not None:
                raise ValueError(f"{g} is not a primitive root mod {p}")
            table[acc] = j
            acc = (acc * g) % p
        _dlog_cache[key] = table
    return _dlog_cache[key]


def root_of_unity(index: int, order: int) -> complex:
    """exp(2 pi i index/order), exact where the value is rational or +-i."""
    index %= order
    g = math.gcd(index, order)
    num, den = index // g, order // g
    if den == 1:
        return complex(1, 0)
    if den == 2:
        return complex(-1, 0)
    if den == 4:
        return complex(0, 1) if num == 1 else complex(0, -1)
    return cmath.exp(2j * cmath.pi * index / order)


@dataclass(frozen=True)
class DirichletChar:
    """Multiplicative character mod p: index t against a fixed primitive root."""

    p: int
    index: int
    generator: int = field(default=0)

    def __post_init__(self):
        linalg.check_prime(self.p)
        gen = self.generator or primitive_root(self.p)
        object.__setattr__(self, "generator", gen)
        object.__setattr__(self, "index", self.index % max(1, self.p - 1))
        _dlog_table(self.p, gen)  # validates the generator


def char_index(chi: DirichletChar, a: int):
    """Root-of-unity index of chi(a) mod (p-1), or None when a = 0 mod p."""
    a %= chi.p
    if a == 0:
        return None
    j = _dlog_table(chi.p, chi.generator)[a]
    return (chi.index * j) % (chi.p - 1) if chi.p > 2 else 0


def char_eval(chi: DirichletChar, a: int) -> complex:
    idx = char_index(chi, a)
    if idx is None:
        return complex(0, 0)
    return root_of_unity(idx, chi.p - 1)


def char_order(chi: DirichletChar) -> int:
    if chi.p == 2:
        return 1
    return (chi.p - 1) // math.gcd(chi.index, chi.p - 1)


def is_principal(chi: DirichletChar) -> bool:
    return chi.index == 0 or chi.p == 2


@dataclass(frozen=True)
class LiftedCharacter:
    """psi = chi o N: the norm pullback of chi to an extension field."""

    base: DirichletChar
    ctx: fc.ExtFieldCtx

    def __post_init__(self):
        if self.base.p != self.ctx.p:
            raise ValueError("character modulus and field characteristic differ")


def lift_character(chi: DirichletChar, ctx: fc.ExtFieldCtx) -> LiftedCharacter:
    return LiftedCharacter(chi, ctx)


def lifted_index(psi: LiftedCharacter, a: fc.ExtFieldElement):
    """Root-of-unity index of psi(a) mod (p-1), or None when a = 0."""
    if a.ctx != psi.ctx:
        raise ValueError("element does not live in the lift's field")
    if a.is_zero():
        return None
    return char_index(psi.base, fc.norm(a))


def lifted_eval(psi: LiftedCharacter, a: fc.ExtFieldElement) -> complex:
    idx = lifted_index(psi, a)
    if idx is None:
        return complex(0, 0)
    return root_of_unity(idx, psi.base.p - 1)


def lifted_order(psi: LiftedCharacter) -> int:
    """Order of the lift; the norm is onto, so it equals the base order."""
    return char_order(psi.base)
