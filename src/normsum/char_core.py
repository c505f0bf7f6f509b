"""Multiplicative characters mod p, their lifts through field norms, and
the weight vectors that hold their sums.

A character is pinned down by an index t against the canonical (smallest)
primitive root g, which is fc.primitive_element of F_p: it sends g^j to the
root of unity of index t*j mod (p-1), and 0 to 0. Its lift psi = chi o N
to F_{p^m} is no object of its own: callers pass chi beside the field's
ctx, and the norm is onto, so psi has chi's order. Values are tracked as
exact root-of-unity indices: a sum is the int tuple w of length N = max(1,
p - 1) standing for sum_e w[e] zeta_N^e, whose loops skip zero entries.
Complex floats appear only when a caller asks for the numeric value.
"""

from __future__ import annotations

import cmath
import itertools
import math
from collections import Counter
from dataclasses import dataclass

from . import field_core as fc
from . import linalg as la


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


def lifted_index(chi: DirichletChar, ctx: fc.ExtFieldCtx, a):
    """Root-of-unity index of chi(N(a)) mod (p-1) for a coefficient tuple a of
    F_{p^m}, the lift of chi through the norm, or None when a = 0."""
    if ctx.p != chi.p:
        raise ValueError("character modulus and field characteristic differ")
    if len(a) != ctx.m:
        raise ValueError(f"element of length {len(a)} for a field of degree {ctx.m}")
    return char_index(chi, fc.norm(ctx, a))


def index_list(chi: DirichletChar) -> list[int]:
    """chi's root-of-unity index of each residue a in [0, p), read from the
    log table chi holds; at a = 0 the zero marker N = max(1, p - 1), which
    lies outside the indices [0, N)."""
    N, t = max(1, chi.p - 1), chi.index
    return [N] + [t * e % N for e in chi._logs[1 : chi.p]]


def index_weights(N: int, counts) -> tuple[tuple[int, ...], int]:
    """The weight vector of length N holding each (index, count) pair of
    counts, and the count at the zero marker N."""
    weights = [0] * (N + 1)
    for e, c in counts:
        weights[e] += c
    zeros = weights.pop()
    return tuple(weights), zeros


def index_histogram(chi: DirichletChar, residues) -> tuple[tuple[int, ...], int]:
    """Weight vector of chi over the residues, and the zero count.

    Every sum is chi at one residue per term: a product of lifted values
    psi_i(lambda_i) is chi at the product of the norms.  Each distinct
    residue reads the log table once; one outside [0, p) raises.
    """
    counts = Counter(residues)
    N = max(1, chi.p - 1)
    logs, t = chi._logs, chi.index
    for a in counts:
        if not 0 <= a < chi.p:
            raise ValueError(f"residue {a} outside [0, {chi.p})")
    return index_weights(N, ((t * logs[a] % N if a else N, c) for a, c in counts.items()))


def weights_value(w) -> complex:
    """sum_e w[e] zeta_N^e as a complex float, summed by ascending e."""
    N = len(w)
    total = complex(0, 0)
    for e in itertools.compress(range(N), w):
        total += w[e] * root_of_unity(e, N)
    return total


def convolve(a, b) -> tuple[int, ...]:
    """Weight vector of the product of the sums that a and b stand for."""
    N = len(a)
    if len(b) != N:
        raise ValueError(f"weight vectors of lengths {N} and {len(b)}")
    out = [0] * N
    b_terms = [(e, b[e]) for e in itertools.compress(range(N), b)]
    for e1 in itertools.compress(range(N), a):
        w1 = a[e1]
        for e2, w2 in b_terms:
            out[(e1 + e2) % N] += w1 * w2
    return tuple(out)


def modulus(w) -> tuple[int, ...]:
    """|S|^2 = S conj(S): the cyclic autocorrelation of w."""
    return convolve(w, w[:1] + w[:0:-1])


def power(w, r: int) -> tuple[int, ...]:
    """S^r by fc.power_by_squaring with convolve: r.bit_length() - 1 + popcount(r) products."""
    return fc.power_by_squaring(convolve, (1,) + (0,) * (len(w) - 1), w, r)


def real_value(w) -> float:
    """The value of w, real because conjugation fixes w: w[e] == w[-e mod N]."""
    if w[1:] != w[:0:-1]:
        raise la.CheckFailed("weights are not symmetric, so their value is not real")
    return weights_value(w).real
