"""Exact linear algebra helpers: residue arithmetic mod p and integer matrices.

Everything here is exact. Matrices are lists (or tuples) of rows unless a
function says otherwise; no floats anywhere.
"""

from __future__ import annotations

import math

PRIMALITY_CAP = 10**6


class CheckFailed(AssertionError):
    """A checked identity or bound did not hold.

    Raised explicitly, so `python -O` cannot strip the check; it derives
    from AssertionError so callers that map assertion failures to a failed
    check keep working.
    """


def is_prime(n: int) -> bool:
    """Trial-division primality test, capped so cost stays bounded."""
    if n > PRIMALITY_CAP**2:
        raise ValueError(f"primality check supports n <= {PRIMALITY_CAP**2}, got {n}")
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def check_prime(p: int) -> int:
    if not is_prime(p):
        raise ValueError(f"modulus must be prime, got {p}")
    return p


def inv_mod(a: int, p: int) -> int:
    a %= p
    if a == 0:
        raise ZeroDivisionError(f"no inverse of 0 mod {p}")
    return pow(a, -1, p)


def identity(n: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_mul(A, B, p: int) -> list[list[int]]:
    rows, inner, cols = len(A), len(B), len(B[0])
    if len(A[0]) != inner:
        raise ValueError(f"cannot multiply a {rows} x {len(A[0])} by a {inner} x {cols} matrix")
    return [
        [sum(A[i][t] * B[t][j] for t in range(inner)) % p for j in range(cols)]
        for i in range(rows)
    ]


def mat_vec(A, x, p: int) -> list[int]:
    if len(A[0]) != len(x):
        raise ValueError(f"matrix has {len(A[0])} columns, vector has {len(x)} entries")
    return [sum(row[j] * x[j] for j in range(len(x))) % p for row in A]


def transpose(A) -> list[list[int]]:
    return [list(col) for col in zip(*A)]


def mat_neg(A, p: int) -> list[list[int]]:
    return [[(-v) % p for v in row] for row in A]


def _row_reduce(A, p: int):
    """Gauss-Jordan elimination mod p. Returns (reduced matrix, pivot columns)."""
    M = [[v % p for v in row] for row in A]
    rows = len(M)
    cols = len(M[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(cols):
        pr = next((i for i in range(r, rows) if M[i][c] != 0), None)
        if pr is None:
            continue
        M[r], M[pr] = M[pr], M[r]
        inv = inv_mod(M[r][c], p)
        M[r] = [(v * inv) % p for v in M[r]]
        for i in range(rows):
            if i != r and M[i][c] != 0:
                f = M[i][c]
                M[i] = [(M[i][j] - f * M[r][j]) % p for j in range(cols)]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return M, pivots


def mat_rank(A, p: int) -> int:
    if not A:
        return 0
    return len(_row_reduce(A, p)[1])


def extend_to_basis(cols, p: int) -> list[tuple[int, ...]]:
    """The columns, then each unit vector e_1, e_2, ... that raises their
    rank, appended until they span F_p^k; raises CheckFailed if they do not."""
    cols = [tuple(col) for col in cols]
    k = len(cols[0])
    for j in range(k):
        if len(cols) == k:
            break
        unit = tuple(1 if i == j else 0 for i in range(k))
        if mat_rank(cols + [unit], p) == len(cols) + 1:
            cols.append(unit)
    if len(cols) != k:
        raise CheckFailed(f"{len(cols)} columns, not {k}, after extending to a basis")
    return cols


def mat_det(A, p: int) -> int:
    return det_int(A) % p


def mat_inv(A, p: int) -> list[list[int]]:
    n = len(A)
    aug = [[A[i][j] % p for j in range(n)] + identity(n)[i] for i in range(n)]
    red, pivots = _row_reduce(aug, p)
    if pivots[:n] != list(range(n)):
        raise ValueError(f"matrix singular mod {p}")
    return [row[n:] for row in red]


def solve_mod(A, b, p: int):
    """One solution of A x = b mod p, or None if the system is inconsistent."""
    rows = len(A)
    cols = len(A[0])
    aug = [[A[i][j] % p for j in range(cols)] + [b[i] % p] for i in range(rows)]
    red, pivots = _row_reduce(aug, p)
    if cols in pivots:
        return None
    x = [0] * cols
    for r, c in enumerate(pivots):
        x[c] = red[r][cols]
    return x


def det_int(A) -> int:
    """Exact integer determinant via fraction-free (Bareiss) elimination."""
    n = len(A)
    if n == 0:
        return 1
    M = [[int(v) for v in row] for row in A]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if M[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if M[i][k] != 0), None)
            if swap is None:
                return 0
            M[k], M[swap] = M[swap], M[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                M[i][j] = (M[i][j] * M[k][k] - M[i][k] * M[k][j]) // prev
            M[i][k] = 0
        prev = M[k][k]
    return sign * M[n - 1][n - 1]


def hnf_columns(vectors, dim: int) -> list[tuple[int, ...]]:
    """Canonical basis of the integer lattice generated by `vectors`.

    Input vectors are length-`dim` integer tuples; they must span full rank.
    Returns the column-style Hermite normal form: a list of `dim` columns,
    lower triangular with positive diagonal and, in each pivot row, entries of
    the earlier columns reduced into [0, pivot). The output is unique for a
    given lattice, so equal lattices compare equal.
    """
    cols = [list(v) for v in vectors]
    if any(len(c) != dim for c in cols):
        raise ValueError("vector length does not match lattice dimension")
    pivot_cols: list[list[int]] = []
    for row in range(dim):
        live = [c for c in cols if any(c[r] != 0 for r in range(row, dim))]
        # gcd loop: shrink entries in this row until one nonzero column remains
        while True:
            nz = [c for c in live if c[row] != 0]
            if len(nz) <= 1:
                break
            nz.sort(key=lambda c: abs(c[row]))
            base = nz[0]
            for c in nz[1:]:
                q = c[row] // base[row]
                for r in range(dim):
                    c[r] -= q * base[r]
        nz = [c for c in live if c[row] != 0]
        if not nz:
            raise ValueError("generators do not span full rank")
        pivot = nz[0]
        if pivot[row] < 0:
            pivot = [-v for v in pivot]
        pivot_cols.append(pivot)
        cols = [c for c in live if c is not nz[0]]
    for i in range(dim):
        pi = pivot_cols[i]
        for j in range(i):
            pj = pivot_cols[j]
            q = pj[i] // pi[i]
            if q:
                for r in range(dim):
                    pj[r] -= q * pi[r]
    return [tuple(c) for c in pivot_cols]


class IntegerEchelon:
    """Integer row echelon form over Q, grown one vector at a time.

    Fraction-free: a vector is reduced against each stored row by an
    integer combination that clears the row's pivot column, and a row is
    kept divided by the gcd of its entries so coefficients stay small.
    """

    def __init__(self):
        self.rows: list[tuple[int, list[int]]] = []  # (pivot column, row)

    def add(self, vec) -> bool:
        """Store vec if it is outside the span of the stored rows; say whether it was."""
        r = list(vec)
        for c, row in self.rows:
            a = r[c]
            if a:
                b = row[c]
                r = [b * x - a * y for x, y in zip(r, row)]
        piv = next((c for c, x in enumerate(r) if x), None)
        if piv is None:
            return False
        g = math.gcd(*r)
        self.rows.append((piv, [x // g for x in r]))
        return True
