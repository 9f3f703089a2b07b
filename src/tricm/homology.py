"""Reduced simplicial homology over Q and F_p via boundary-matrix ranks.

Every rank runs through one sparse elimination (`_eliminate`): over Z
for Q, fraction-free with gcd row reduction at non-unit pivots, and over
F_p with modular arithmetic.  Pivots are chosen Markowitz-style from a
column-to-rows index, so a pivot touches only the rows that hold its
column.  A Betti table over a list of fields builds each of d_1 .. d_dim
once; the ranks of d_0 and d_{dim+1} are known without a matrix.  With Q
in the list it eliminates each matrix once over Z, and that rank is also
the rank over F_p for every prime p that the elimination does not flag
(see `_eliminate`); only a flagged prime gets an elimination mod p.
The prime of the h.s.o.p. certificate, `CERT_PRIME`, lives in `ideals`.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from math import gcd, lcm

from .complexes import SimplicialComplex


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin with bases 2, 3, 5, 7: exact for
    n < 3,215,031,751, which covers every characteristic < 2^31."""
    if n < 2:
        return False
    for a in (2, 3, 5, 7):
        if n % a == 0:
            return n == a
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in (2, 3, 5, 7):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
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


QQ = FieldSpec(0)


@dataclass
class SparseMatrix:
    """Sparse matrix as (row, col, value) triples; values are integers
    interpreted in the working field."""

    row_count: int
    col_count: int
    entries: tuple[tuple[int, int, int], ...]

    def __post_init__(self):
        rows, cols = self.row_count, self.col_count
        seen = set()
        for r, c, v in self.entries:
            if not (0 <= r < rows and 0 <= c < cols):
                raise ValueError(f"entry ({r},{c}) out of range")
            if v == 0:
                raise ValueError("explicit zero entry")
            # the position as one int: no (row, col) tuple to allocate,
            # hash and leave to the garbage collector, which took about
            # half of this loop on matrices of 10^5 entries
            key = r * cols + c
            if key in seen:
                raise ValueError(f"duplicate entry at ({r},{c})")
            seen.add(key)

@dataclass(frozen=True)
class BettiTable:
    """dim H~_i for -1 <= i <= dim of the complex."""

    field: FieldSpec
    dims: tuple[int, ...]


def boundary_matrix(c: SimplicialComplex, i: int) -> SparseMatrix:
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


def _eliminate(rows: dict[int, dict[int, int]], p: int) -> tuple[int, int]:
    """(rank, bad) of the matrix whose nonzero rows are given as {row:
    {column: value}}, over F_p, or over Z (the rank over Q) when p is 0.

    Sparse elimination with a column-to-rows index, so a pivot touches
    only the rows that hold its column.  The pivot row is the shortest row
    left, from a min-heap of (length, row) whose stale entries are
    skipped; its pivot column is the one held by the fewest other rows
    (Markowitz), over Z preferring a unit entry, which needs no scaling.
    A non-unit pivot takes a fraction-free step and then divides the row
    by the gcd of its entries.  The rows are consumed.

    Over Z, bad is the lcm of every pivot value pv with |pv| != 1 and of
    every gcd d > 1 that a row was divided by; mod p it is 1.  For a prime
    p not dividing bad the rank over Z is the rank over F_p.  Proof: read
    mod p, every step is an invertible row operation.  R_t -= g R_i is;
    the fraction-free scale pv/gcd(pv, f) divides pv, so it is a unit;
    so is the division by d.  Hence the final rows span the row space of
    the matrix mod p.  The rows that vanish over Z vanish mod p.  Each
    pivot row is zero in the pivot columns chosen after it, so the pivot
    rows are triangular on their pivot columns with diagonal pv, a unit
    mod p: they are independent mod p, and rank_p = rank_Q.
    """
    cols: dict[int, set[int]] = {}
    for i, row in rows.items():
        for c in row:
            if c in cols:
                cols[c].add(i)
            else:
                cols[c] = {i}
    heap = [(len(row), i) for i, row in rows.items()]
    heapq.heapify(heap)
    rank, bad = 0, 1
    while rows:
        n, i = heapq.heappop(heap)
        if len(rows.get(i, ())) != n:
            continue  # pivoted, emptied or changed since it was pushed
        prow = rows.pop(i)
        rank += 1
        for c in prow:
            cols[c].discard(i)
        if p:
            pc = min(prow, key=lambda c: len(cols[c]))
        else:
            pc = min(prow, key=lambda c: (abs(prow[c]) != 1, len(cols[c])))
        pv = prow.pop(pc)
        inv = pow(pv, p - 2, p) if p else 0
        if not p and abs(pv) != 1:
            bad = lcm(bad, pv)
        pivot_terms = list(prow.items())
        for t in cols.pop(pc):
            trow = rows[t]
            f = trow.pop(pc)
            scale = 1
            if p:
                g = f * inv % p
            elif f % pv == 0:
                g = f // pv
            else:  # fraction-free: trow <- (pv/d) trow - (f/d) prow
                d = gcd(pv, f)
                scale, g = pv // d, f // d
                for c in trow:
                    trow[c] *= scale
            _subtract(trow, t, pivot_terms, g, p, cols)
            if scale != 1 and trow:
                d = 0
                for v in trow.values():
                    d = gcd(d, v)
                if d > 1:
                    bad = lcm(bad, d)
                    for c in trow:
                        trow[c] //= d
            if trow:
                heapq.heappush(heap, (len(trow), t))
            else:
                del rows[t]
        for c in prow:  # the only columns whose row sets changed
            if not cols[c]:
                del cols[c]
    return rank, bad


def _subtract(trow: dict[int, int], t: int, terms, g: int, p: int, cols) -> None:
    """trow -= g * terms (mod p if p), keeping the column index of row t.

    One loop for both arithmetics: testing p per entry measured the same
    as a loop per arithmetic."""
    for c, v in terms:
        w = trow.get(c)
        if w is None:  # g, v != 0, so g * v != 0, also mod the prime p
            trow[c] = -g * v % p if p else -g * v
            cols[c].add(t)
        else:
            w -= g * v
            if p:
                w %= p
            if w:
                trow[c] = w
            else:
                del trow[c]
                cols[c].discard(t)


def _rows(m: SparseMatrix, p: int) -> dict[int, dict[int, int]]:
    """The nonzero rows {row: {column: value}} of m, mod p if p, for
    `_eliminate`.  A matrix with more columns than rows is given as its
    transpose: on the wide h.s.o.p. multiplication matrices the
    shortest-row pivots then fill in far less (the whiskered 5-vertex path
    verifies about 4x faster), and elsewhere it measured the same."""
    rows: dict[int, dict[int, int]] = {}
    entries = m.entries
    if m.row_count < m.col_count:
        entries = ((c, r, v) for r, c, v in entries)
    for r, c, v in entries:
        if p:
            v %= p
        if v:
            if r in rows:
                rows[r][c] = v
            else:
                rows[r] = {c: v}
    return rows


def rank(m: SparseMatrix, field: FieldSpec = QQ) -> int:
    """Exact rank over the given field."""
    p = field.characteristic
    return _eliminate(_rows(m, p), p)[0]


def reduced_betti_table(c: SimplicialComplex, fields: list[FieldSpec]) -> list[BettiTable]:
    """Reduced Betti numbers dim H~_i(c; field) for -1 <= i <= dim c, one
    table per field, in order: H~_i = f_i - rank d_i - rank d_{i+1}.

    Only d_1 .. d_dim are built and ranked.  d_{dim+1} is the zero map, and
    the augmentation d_0 is one all-ones row, of rank 1 over every field
    when c has a vertex.  Each matrix is built once.  With Q among the
    fields it is eliminated once over Z, and a prime that elimination does
    not flag takes the same rank; every other prime is eliminated mod p.
    The void complex yields an all-zero (empty) table by convention.
    """
    if c.is_void:
        return [BettiTable(f, ()) for f in fields]
    ranks = {f: [] for f in fields}  # ranks[f][i - 1] = rank of d_i over f
    over_z = QQ in ranks
    for i in range(1, c.dim + 1):
        m = boundary_matrix(c, i)
        if over_z:
            rq, bad = _eliminate(_rows(m, 0), 0)
        for f, r in ranks.items():
            p = f.characteristic
            r.append(rq if over_z and (p == 0 or bad % p) else rank(m, f))
    chain = (1, *c.face_counts())  # f_{-1} .. f_dim
    tables = []
    for f in fields:
        r = (0, min(1, c.dim + 1), *ranks[f], 0)  # rank d_{-1} .. d_{dim+1}
        tables.append(BettiTable(f, tuple(n - a - b for n, a, b in zip(chain, r, r[1:]))))
    return tables
