"""Reduced simplicial homology over Q and F_p via boundary-matrix ranks.

Every rank runs through one sparse elimination (`_eliminate`): over Z
for Q, fraction-free with gcd row reduction at non-unit pivots, and over
F_p with modular arithmetic.  Pivots are chosen Markowitz-style from a
column-to-rows index, so a pivot touches only the rows that hold its
column.  A Betti table over a list of fields ranks each of its matrices
once per field (`_betti_tables`).  With Q in the list it eliminates each
matrix once over Z, and that rank is also the rank over F_p for every
prime p that the elimination does not flag (see `_eliminate`); only a
flagged prime gets an elimination mod p.

A complex's table (`reduced_betti_table`) ranks its boundary matrices
d_1 .. d_dim.  The table of an independence complex Ind(g)
(`independence_betti_table`) ranks the far smaller matrices of a Morse
complex built from g alone, with no face list: the matching tree of
Bousquet-Melou, Linusson & Nevo (J. Algebraic Combin., 2008) read
through Forman's discrete Morse theory (Adv. Math., 1998).

A node of the tree is the family of independent sets I with A ⊆ I ⊆ A
∪ free, where A is independent and no free vertex is adjacent to A.  The
root has A = ∅ and every vertex free.  At a node, in order:
  1. if a free vertex has no free neighbour, the lowest such v toggles:
     I <-> I ^ {v} matches the whole family, and the node is a leaf;
  2. else if a free vertex has exactly one free neighbour, split on that
     neighbour p, for the lowest such vertex;
  3. else split on the free vertex p with the most free neighbours,
     lowest first.
A split has two children: p leaves free (p ∉ I), or p joins A and its
neighbours leave free (p ∈ I).  A node with no free vertex is a leaf
holding the one set A, a critical cell.  The matching is acyclic: within
a toggle leaf it moves one fixed vertex, and for I ⊆ J the walks of I
and J from the root part, if at all, at a split on some p ∈ J ∖ I, where
I goes to the child without p.  So ordering the leaves by that first
split orders the leaf of I at or below the leaf of J, and a union of
acyclic matchings over such an order-preserving map is acyclic (the
cluster lemma; Jonsson, Simplicial Complexes of Graphs, 2008).  The
empty set is one of the cells, so the critical cells, with the Morse
boundary below, form a chain complex with the reduced homology of Ind(g)
over Z.

The Morse boundary of a critical s is the sum of [s : t] Phi(t) over its
facets t, where Phi follows the gradient paths:
  Phi(t) = t if t is critical;
  Phi(t) = 0 if t is paired with a face below it;
  Phi(t) = -[u : t] * sum of [u : t'] Phi(t') over the facets t' != t of
           u, if t is paired with u = t + x above it;
with [u : u ∖ {y}] = (-1)^k for y the k-th lowest vertex of u.  Phi is
memoised on face masks.  The tree is kept one node per free mask, as the
rule depends on nothing else, and each mask's rule is computed once, the
first time a walk reaches it.  A face finds its partner by walking the
tree from the root, one node per level, so no table of faces is kept.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from math import gcd, lcm

from . import graphs
from .complexes import SimplicialComplex
from .graphs import Graph


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


def _betti_tables(
    fields: list[FieldSpec], chain: tuple[int, ...], matrices, known: tuple[int, ...] = ()
) -> list[BettiTable]:
    """One table per field, in order: H~_i = c_i - rank d_i - rank d_{i+1}
    for the chain ranks c_{-1}, c_0, ... and the maps d_0, d_1, ...  The
    ranks of the first maps are `known`; each of the rest comes from one
    matrix of `matrices`, built when it is ranked; d_{-1} and the map
    above the last chain group are zero.

    With Q among the fields a matrix is eliminated once over Z, and a prime
    that elimination does not flag takes the same rank; every other prime
    is eliminated mod p (see `_eliminate`)."""
    ranks = {f: list(known) for f in fields}
    over_z = QQ in ranks
    for m in matrices:
        if over_z:
            rq, bad = _eliminate(_rows(m, 0), 0)
        for f, r in ranks.items():
            p = f.characteristic
            r.append(rq if over_z and (p == 0 or bad % p) else rank(m, f))
    tables = []
    for f in fields:
        r = (0, *ranks[f], 0)
        tables.append(BettiTable(f, tuple(n - a - b for n, a, b in zip(chain, r, r[1:]))))
    return tables


def reduced_betti_table(c: SimplicialComplex, fields: list[FieldSpec]) -> list[BettiTable]:
    """Reduced Betti numbers dim H~_i(c; field) for -1 <= i <= dim c, one
    table per field, in order: H~_i = f_i - rank d_i - rank d_{i+1}.

    Only d_1 .. d_dim are built and ranked, each once.  d_{dim+1} is the
    zero map, and the augmentation d_0 is one all-ones row, of rank 1 over
    every field when c has a vertex.  The void complex yields an all-zero
    (empty) table by convention.
    """
    if c.is_void:
        return [BettiTable(f, ()) for f in fields]
    matrices = (boundary_matrix(c, i) for i in range(1, c.dim + 1))
    return _betti_tables(fields, (1, *c.face_counts()), matrices, (min(1, c.dim + 1),))


def _move(neighbor_masks: tuple[int, ...], free: int) -> tuple[int, int, int]:
    """The node of the matching tree at free vertex mask `free` (not 0):
    (~v, 0, 0) to toggle v, the lowest free vertex with no free neighbour;
    else (p, out, into) to split on p, the free neighbour of the lowest
    free vertex with exactly one, or else the free vertex with the most
    free neighbours, lowest first.  out and into are the free masks of the
    children with p left out of I and with p put in A."""
    forced = top = best = -1
    rest = free
    while rest:
        low = rest & -rest
        rest ^= low
        v = low.bit_length() - 1
        around = neighbor_masks[v] & free
        if not around:
            return ~v, 0, 0
        degree = around.bit_count()
        if degree == 1 and forced < 0:
            forced = around.bit_length() - 1
        if degree > top:
            top, best = degree, v
    p = forced if forced >= 0 else best
    return p, free ^ 1 << p, free & ~(neighbor_masks[p] | 1 << p)


class _MatchingTree(dict[int, tuple[int, int, int]]):
    """The matching tree of Ind(g), kept one node per free mask: the rule
    at a node depends on its free mask alone, so `_move` computes it the
    first time a walk looks that mask up, and never again."""

    def __init__(self, g: Graph):
        super().__init__()
        self.neighbors = g.neighbor_masks
        self.root = (1 << g.vertex_count) - 1

    def __missing__(self, free: int) -> tuple[int, int, int]:
        node = self[free] = _move(self.neighbors, free)
        return node

    def critical_cells(self, alpha: int) -> list[list[int]]:
        """The critical cells by size 0..alpha, each size in increasing
        mask order: the set A of every leaf with no free vertex."""
        cells: list[list[int]] = [[] for _ in range(alpha + 1)]
        stack = [(0, self.root)]  # (A, free) of the nodes still to visit
        while stack:
            a, free = stack.pop()
            if not free:
                cells[a.bit_count()].append(a)
                continue
            p, out, into = self[free]
            if p >= 0:
                stack += (a, out), (a | 1 << p, into)
        for level in cells:
            level.sort()
        return cells

    def partner(self, face: int) -> int | None:
        """The vertex x that pairs face with face ^ {x}, or None if face is
        critical: the walk from the root to the node that holds face, into
        the child with p in A at each split on a vertex p of face."""
        free = self.root
        while free:
            p, out, into = self[free]
            if p < 0:
                return ~p
            free = into if face >> p & 1 else out
        return None


def _facets(face: int):
    """(sign, facet) for each facet of the face mask, the facet without the
    k-th lowest vertex carrying (-1)^k as in `boundary_matrix`."""
    sign, rest = 1, face
    while rest:
        low = rest & -rest
        rest ^= low
        yield sign, face ^ low
        sign = -sign


def _flow(
    face: int, flow: dict[int, dict[int, int]], index: dict[int, int], tree: _MatchingTree
) -> dict[int, int]:
    """Phi(face) as {index of a critical cell: coefficient}, memoised in
    `flow`.  An explicit stack, not recursion: the gradient paths below a
    face can be longer than the interpreter's recursion limit.  A face
    paired with up = face + x waits on the stack, with its terms, until
    the Phi of every other facet of up is known."""
    stack: list[tuple[int, list[tuple[int, int]] | None]] = [(face, None)]
    while stack:
        t, terms = stack.pop()
        if t in flow:
            continue
        if terms is None:
            x = tree.partner(t)
            if x is None:
                flow[t] = {index[t]: 1}
                continue
            if t >> x & 1:  # the upper face of its pair
                flow[t] = {}
                continue
            facets = list(_facets(t | 1 << x))  # of up = t + x
            s = next(sign for sign, f in facets if f == t)  # [up : t]
            terms = [(-s * sign, f) for sign, f in facets if f != t]
            todo = [(f, None) for _, f in terms if f not in flow]
            if todo:
                stack.append((t, terms))
                stack += todo
                continue
        phi: dict[int, int] = {}
        for sign, f in terms:
            for r, v in flow[f].items():
                phi[r] = phi.get(r, 0) + sign * v
        flow[t] = {r: v for r, v in phi.items() if v}
    return flow[face]


def _morse_boundary(tree: _MatchingTree, rows: list[int], cols: list[int]) -> SparseMatrix:
    """The Morse boundary from the critical cells `cols` to the critical
    cells `rows`, one size lower: column j is the sum of [s : t] Phi(t)
    over the facets t of s = cols[j]."""
    entries = []
    if rows and cols:
        index = {t: r for r, t in enumerate(rows)}
        flow: dict[int, dict[int, int]] = {}
        for j, cell in enumerate(cols):
            column: dict[int, int] = {}
            for sign, t in _facets(cell):
                for r, v in _flow(t, flow, index, tree).items():
                    column[r] = column.get(r, 0) + sign * v
            entries.extend((r, j, v) for r, v in column.items() if v)
    return SparseMatrix(len(rows), len(cols), tuple(entries))


def _morse_complex(g: Graph) -> tuple[tuple[int, ...], list[SparseMatrix]]:
    """(c, d): c[k] critical cells of size k, that is of dimension k - 1,
    for 0 <= k <= alpha(g), and d[k - 1] the Morse boundary from size k to
    size k - 1, for the matching tree of g."""
    tree = _MatchingTree(g)
    cells = tree.critical_cells(graphs.independence_number(g))
    matrices = [_morse_boundary(tree, low, high) for low, high in zip(cells, cells[1:])]
    return tuple(map(len, cells)), matrices


def independence_betti_table(g: Graph, fields: list[FieldSpec]) -> list[BettiTable]:
    """Reduced Betti numbers of Ind(g) for -1 <= i < alpha(g), one table per
    field, in order, as `reduced_betti_table(independence_complex(g),
    fields)` gives them, from the Morse complex of the matching tree: no
    face list and no boundary matrix of Ind(g) is built."""
    chain, matrices = _morse_complex(g)
    return _betti_tables(fields, chain, matrices)
