"""Reduced simplicial homology over Q and F_p via boundary-matrix ranks.

Ranks over F_p run as dense vectorized elimination (boundary matrices at
our scales fit comfortably in memory).  Ranks over Q use fraction-free
sparse elimination over Z with gcd row reduction.  For Betti tables in
characteristic zero a one-sided mod-p certificate is tried first: since
rank_p <= rank_Q entrywise and reduced Betti numbers are nonnegative,
vanishing of H_i mod p pins the rational ranks of both adjacent boundary
maps exactly; only uncertified indices fall back to exact elimination.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, isqrt

import numpy as np

from .complexes import SimplicialComplex, component_count

# prime of the characteristic-zero certificates (Betti tables and h.s.o.p.
# regularity): mod-p ranks only underestimate rational ones
CERT_PRIME = 1000003


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    for q in range(2, isqrt(p) + 1):
        if p % q == 0:
            return False
    return True


@dataclass(frozen=True)
class FieldSpec:
    """Coefficient field: characteristic 0 (exact rationals) or a prime p."""

    characteristic: int

    def __post_init__(self):
        c = self.characteristic
        if c == 0:
            return
        if not (2 <= c < 2**31) or not _is_prime(c):
            raise ValueError(f"characteristic must be 0 or a prime < 2^31, got {c}")

    def __str__(self):
        return "QQ" if self.characteristic == 0 else f"GF({self.characteristic})"


QQ = FieldSpec(0)


@dataclass
class SparseMatrix:
    """Sparse matrix as (row, col, value) triples; values are integers
    interpreted in the working field."""

    row_count: int
    col_count: int
    entries: tuple[tuple[int, int, int], ...]

    def __post_init__(self):
        seen = set()
        for r, c, v in self.entries:
            if not (0 <= r < self.row_count and 0 <= c < self.col_count):
                raise ValueError(f"entry ({r},{c}) out of range")
            if v == 0:
                raise ValueError("explicit zero entry")
            if (r, c) in seen:
                raise ValueError(f"duplicate entry at ({r},{c})")
            seen.add((r, c))

    def to_dense(self, p: int | None = None) -> np.ndarray:
        a = np.zeros((self.row_count, self.col_count), dtype=np.int64)
        for r, c, v in self.entries:
            a[r, c] = v % p if p else v
        return a

    def rows(self) -> list[dict[int, int]]:
        out: list[dict[int, int]] = [dict() for _ in range(self.row_count)]
        for r, c, v in self.entries:
            out[r][c] = v
        return out


@dataclass(frozen=True)
class BettiTable:
    """dim H~_i for -1 <= i <= dim of the complex."""

    field: FieldSpec
    dims: tuple[int, ...]


def boundary_matrix(c: SimplicialComplex, i: int, field: FieldSpec) -> SparseMatrix:
    """Matrix of d_i : C_i -> C_{i-1} in the reduced chain complex.

    C_{-1} has rank 1 and d_0 is the augmentation; faces are written with
    increasing vertices and removing the k-th vertex carries sign (-1)^k.
    Out-of-range i gives a zero-dimensional matrix.
    """
    if c.is_void:
        raise ValueError("void complex has no chain complex")
    counts = c.face_counts()

    def chain_rank(j: int) -> int:
        if j == -1:
            return 1
        if 0 <= j < len(counts):
            return counts[j]
        return 0

    rows, cols = chain_rank(i - 1), chain_rank(i)
    if i < 0 or i > len(counts):
        return SparseMatrix(rows, cols, ())
    if i == 0:
        entries = tuple((0, j, 1) for j in range(cols))
        return SparseMatrix(rows, cols, entries)
    if i == len(counts):  # boundary from the zero module above the top
        return SparseMatrix(rows, 0, ())
    lower_index = {f: k for k, f in enumerate(c.faces_by_dim[i - 1])}
    entries = []
    for j, f in enumerate(c.faces_by_dim[i]):
        for k in range(len(f)):
            sub = f[:k] + f[k + 1 :]
            entries.append((lower_index[sub], j, (-1) ** k))
    return SparseMatrix(rows, cols, tuple(entries))


def _rank_dense_mod_p(a: np.ndarray, p: int) -> int:
    """Gaussian elimination over F_p, vectorized row updates."""
    a = a % p
    m, n = a.shape
    r = 0
    for c in range(n):
        if r == m:
            break
        nz = np.nonzero(a[r:, c])[0]
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            a[[r, i]] = a[[i, r]]
        inv = pow(int(a[r, c]), p - 2, p)
        a[r, c:] = (a[r, c:] * inv) % p
        col = a[r + 1 :, c]
        nzrows = np.nonzero(col)[0]
        if nzrows.size:
            block = a[r + 1 :, c:]
            block[nzrows] = (block[nzrows] - np.outer(col[nzrows], a[r, c:])) % p
        r += 1
    return r


def _rank_sparse_exact(rows: list[dict[int, int]]) -> int:
    """Fraction-free sparse elimination over Z with gcd row reduction.

    Pivot choice: sparsest available row, then its column with fewest
    occurrences elsewhere (Markowitz-style), to limit fill-in.
    """
    rows = [dict(r) for r in rows if r]
    rank = 0
    while rows:
        pi = min(range(len(rows)), key=lambda k: len(rows[k]))
        prow = rows.pop(pi)
        rank += 1
        col_use = {}
        for r in rows:
            for c in r:
                if c in prow:
                    col_use[c] = col_use.get(c, 0) + 1
        pc = min(prow, key=lambda c: (col_use.get(c, 0), c))
        pv = prow[pc]
        nxt = []
        for r in rows:
            f = r.get(pc)
            if f is None:
                nxt.append(r)
                continue
            new = {}
            for c, v in r.items():
                new[c] = pv * v
            for c, v in prow.items():
                w = new.get(c, 0) - f * v
                if w:
                    new[c] = w
                else:
                    new.pop(c, None)
            if new:
                g = 0
                for v in new.values():
                    g = gcd(g, v)
                if g > 1:
                    new = {c: v // g for c, v in new.items()}
                nxt.append(new)
        rows = nxt
    return rank


def rank(m: SparseMatrix, field: FieldSpec = QQ) -> int:
    """Exact rank over the given field."""
    if m.row_count == 0 or m.col_count == 0 or not m.entries:
        return 0
    p = field.characteristic
    if p == 0:
        return _rank_sparse_exact(m.rows())
    density = len(m.entries) / (m.row_count * m.col_count)
    cells = m.row_count * m.col_count
    if density > 0.2 or cells <= 8_000_000:
        return _rank_dense_mod_p(m.to_dense(p), p)
    return _rank_sparse_mod_p(m.rows(), p)


def _rank_sparse_mod_p(rows: list[dict[int, int]], p: int) -> int:
    rows = [{c: v % p for c, v in r.items() if v % p} for r in rows]
    rows = [r for r in rows if r]
    rank = 0
    while rows:
        pi = min(range(len(rows)), key=lambda k: len(rows[k]))
        prow = rows.pop(pi)
        rank += 1
        pc = min(prow)
        inv = pow(prow[pc], p - 2, p)
        prow = {c: v * inv % p for c, v in prow.items()}
        nxt = []
        for r in rows:
            f = r.get(pc)
            if f is None:
                nxt.append(r)
                continue
            new = dict(r)
            for c, v in prow.items():
                w = (new.get(c, 0) - f * v) % p
                if w:
                    new[c] = w
                else:
                    new.pop(c, None)
            if new:
                nxt.append(new)
        rows = nxt
    return rank


def _betti_from_ranks(counts, ranks) -> tuple[int, ...]:
    # counts[i] = f_i for i >= 0; chain rank of C_{-1} is 1
    dims = []
    chain = [1] + list(counts)
    for i in range(-1, len(counts)):
        fi = chain[i + 1]
        ri = ranks[i + 1]  # rank of d_i
        ri1 = ranks[i + 2] if i + 2 < len(ranks) else 0
        dims.append(fi - ri - ri1)
    return tuple(dims)


def reduced_betti_table(c: SimplicialComplex, field: FieldSpec) -> BettiTable:
    """Reduced Betti numbers dim H~_i(c; field) for -1 <= i <= dim c.

    The void complex yields an all-zero (empty) table by convention.
    """
    if c.is_void:
        return BettiTable(field, ())
    d = c.dim
    if d == -1:  # the complex {∅}: H~_{-1} = field
        return BettiTable(field, (1,))
    counts = c.face_counts()

    if d == 1:
        # connectivity fast path: homology of a graph is field-independent
        comps = component_count(c)
        h0 = comps - 1
        h1 = counts[1] - (counts[0] - comps)
        return BettiTable(field, (0, h0, h1))

    # ranks[j] = rank of d_{j-1}; d_{-1} is the zero map
    matrices = {i: boundary_matrix(c, i, field) for i in range(0, d + 2)}
    if field.characteristic != 0:
        ranks = [0] + [rank(matrices[i], field) for i in range(0, d + 2)]
        return BettiTable(field, _betti_from_ranks(counts, ranks))

    # characteristic 0: try the mod-p certificate first
    fp = FieldSpec(CERT_PRIME)
    modp = [0] + [rank(matrices[i], fp) for i in range(0, d + 2)]
    betti_p = _betti_from_ranks(counts, modp)
    certified = [False] * (d + 3)  # certified[j]: rank of d_{j-1} exact
    certified[0] = certified[d + 2] = True  # zero maps
    for i, b in enumerate(betti_p, start=-1):
        if b == 0:
            # f_i = rank_p(d_i) + rank_p(d_{i+1}) forces both rational
            # ranks down onto the mod-p values
            certified[i + 1] = certified[i + 2] = True
    ranks = list(modp)
    for j in range(1, d + 2):
        if not certified[j]:
            ranks[j] = rank(matrices[j - 1], QQ)
    return BettiTable(field, _betti_from_ranks(counts, ranks))
