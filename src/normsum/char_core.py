"""Multiplicative characters mod p and their lifts through field norms.

A character is pinned down by an index t against the canonical (smallest)
primitive root g, which is fc.primitive_element of F_p: it sends g^j to the
root of unity of index t*j mod (p-1), and 0 to 0. Values are tracked as
exact root-of-unity indices; complex floats appear only when a caller asks
for the numeric value.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from . import field_core as fc


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
    """Multiplicative character mod p: index t against F_p's primitive element.

    The character holds F_p's discrete-log table (fc.log_table at degree 1)
    from construction, so chi(a) is one lookup.
    """

    p: int
    index: int

    def __post_init__(self):
        object.__setattr__(self, "index", self.index % max(1, self.p - 1))
        object.__setattr__(self, "_logs", fc.log_table(fc.ext_field_ctx(self.p, 1)))


def char_index(chi: DirichletChar, a: int):
    """Root-of-unity index of chi(a) mod (p-1), or None when a = 0 mod p."""
    a %= chi.p
    if a == 0:
        return None
    return chi.index * chi._logs[a] % (chi.p - 1)


def char_order(chi: DirichletChar) -> int:
    if chi.p == 2:
        return 1
    return (chi.p - 1) // math.gcd(chi.index, chi.p - 1)


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


def lifted_index(psi: LiftedCharacter, a):
    """Root-of-unity index of psi(a) mod (p-1) for a coefficient tuple a of
    the lift's field, or None when a = 0 (whose norm is 0)."""
    ctx = psi.ctx
    if len(a) != ctx.m:
        raise ValueError(f"element of length {len(a)} for a field of degree {ctx.m}")
    return char_index(psi.base, fc.norm(ctx, a))


def lifted_order(psi: LiftedCharacter) -> int:
    """Order of the lift; the norm is onto, so it equals the base order."""
    return char_order(psi.base)
