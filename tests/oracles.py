"""Reference code the tests compare the library against: D(n) with all of
its faces, the canonical identification of the links of D(n), complete
graphs, vertex relabelling, subset closure, connected components, the
acyclicity of a matching on face masks, the Hilbert function of R/I(G),
dense boundary matrices, and the writers of the two text formats the CLI
reads."""

import itertools
import math

import numpy as np

from tricm import graphs
from tricm.complexes import VOID, SimplicialComplex, from_faces, independence_complex
from tricm.graphs import Graph
from tricm.homology import SparseMatrix


def triangular_complex(n: int) -> SimplicialComplex:
    """D(n), the independence complex of T_n, with every face listed; void
    for n < 2."""
    if n < 2:
        return VOID
    return independence_complex(graphs.triangular(n))


def pair_rank(i: int, j: int, n: int) -> int:
    """Index of the pair (i, j), 1 <= i < j <= n, in lexicographic order."""
    if not (1 <= i < j <= n):
        raise ValueError(f"bad pair ({i},{j}) for n={n}")
    return (i - 1) * n - i * (i - 1) // 2 + (j - i - 1)


def rank_pair(r: int, n: int) -> tuple[int, int]:
    """Inverse of pair_rank."""
    for i in range(1, n):
        block = n - i
        if r < block:
            return i, i + 1 + r
        r -= block
    raise ValueError("rank out of range")


def link_triangular_witness(n: int, f) -> dict[int, int]:
    """Explicit vertex bijection from link_{D(n)}(f) onto D(n - 2|f|).

    The face f kills 2|f| symbols; surviving symbols are re-indexed
    order-preservingly and each surviving pair is mapped to its rank in
    the smaller triangular graph.  Under this map the link's face set
    equals the face set of D(n - 2|f|) exactly.
    """
    f = tuple(sorted(f))
    c = triangular_complex(n)
    if not c.has_face(f):
        raise ValueError(f"{f} is not a face of D({n})")
    used = set()
    for v in f:
        used.update(rank_pair(v, n))
    survivors = [s for s in range(1, n + 1) if s not in used]
    srank = {s: k + 1 for k, s in enumerate(survivors)}
    m = len(survivors)
    mapping = {}
    for a in range(len(survivors)):
        for b in range(a + 1, len(survivors)):
            i, j = survivors[a], survivors[b]
            old = pair_rank(i, j, n)
            mapping[old] = pair_rank(srank[i], srank[j], m)
    return mapping


def complete(n: int) -> Graph:
    """The complete graph K_n."""
    if n < 1:
        raise ValueError("complete graph requires N >= 1")
    return Graph(n, tuple(itertools.combinations(range(n), 2)))


def relabel(c: SimplicialComplex, mapping: dict[int, int], vertex_count: int) -> SimplicialComplex:
    """Apply a vertex relabeling map to every face."""
    faces = [tuple(sorted(mapping[v] for v in f)) for f in c.all_faces()]
    if not faces:
        return VOID
    return from_faces(vertex_count, faces)


def closure(faces) -> set[tuple[int, ...]]:
    """Every subset of every face, as sorted tuples; empty for no faces."""
    out = set()
    for f in faces:
        f = tuple(sorted(f))
        for k in range(len(f) + 1):
            out.update(itertools.combinations(f, k))
    return out


def component_count(c: SimplicialComplex) -> int:
    """Connected components of the 1-skeleton (on the complex's vertices)."""
    if c.is_void:
        raise ValueError("void complex")
    if not c.faces_by_dim:
        return 0
    verts = [f[0] for f in c.faces_by_dim[0]]
    parent = {v: v for v in verts}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    if len(c.faces_by_dim) > 1:
        for u, v in c.faces_by_dim[1]:
            ru, rv = find(u), find(v)
            if ru != rv:
                parent[ru] = rv
    return len({find(v) for v in verts})


def acyclic_matching(faces, up: dict[int, int]) -> bool:
    """Whether the modified Hasse diagram of the face masks `faces` has no
    directed cycle, for the matching `up` from each matched lower face to
    its upper face.  Every edge runs from a face down to a facet, except
    that the edge of a matched pair runs up.  Kahn's algorithm: remove
    faces with no incoming edge until every face is gone or a cycle is
    left."""
    edges: dict[int, list[int]] = {f: [] for f in faces}
    incoming = dict.fromkeys(faces, 0)
    for f in faces:
        for v in range(f.bit_length()):
            t = f & ~(1 << v)
            if t == f:
                continue
            tail, head = (t, f) if up.get(t) == f else (f, t)
            edges[tail].append(head)
            incoming[head] += 1
    ready = [f for f, n in incoming.items() if n == 0]
    removed = 0
    while ready:
        f = ready.pop()
        removed += 1
        for h in edges[f]:
            incoming[h] -= 1
            if incoming[h] == 0:
                ready.append(h)
    return removed == len(incoming)


def hilbert_function(g: Graph, d: int) -> int:
    """dim_K (R/I(G))_d: monomials of degree d with independent support."""
    if d < 0:
        raise ValueError("degree must be >= 0")
    if d == 0:
        return 1
    f = graphs.independence_profile(g)[0]
    return sum(f[k] * math.comb(d - 1, k - 1) for k in range(1, len(f)))


def to_dense(m: SparseMatrix) -> np.ndarray:
    a = np.zeros((m.row_count, m.col_count), dtype=np.int64)
    for r, c, v in m.entries:
        a[r, c] = v
    return a


def rank_mod_p(m: SparseMatrix, p: int) -> int:
    """Rank of m over F_p by dense row reduction, column by column with the
    first nonzero row as pivot; it shares no code with the sparse
    elimination of `homology`.  Entries stay below p, so their products
    fit in int32 for p < 2^15 and in int64 for p < 2^31."""
    a = (to_dense(m) % p).astype(np.int32 if p < 2**15 else np.int64)
    r = 0
    for c in range(a.shape[1]):
        nz = np.flatnonzero(a[r:, c])
        if not nz.size:
            continue
        a[[r, r + nz[0]]] = a[[r + nz[0], r]]
        a[r, c:] = a[r, c:] * pow(int(a[r, c]), p - 2, p) % p
        below = r + 1 + np.flatnonzero(a[r + 1 :, c])
        a[below, c:] = (a[below, c:] - np.outer(a[below, c], a[r, c:])) % p
        r += 1
        if r == a.shape[0]:
            break
    return r


def serialize(c: SimplicialComplex) -> str:
    """Complex file text, the inverse of complexes.deserialize: header
    "dim <d> vertices <N>", then one face per line as sorted
    space-separated indices (the empty face is implicit)."""
    if c.is_void:
        return "dim -2 vertices 0\n"
    lines = [f"dim {c.dim} vertices {c.vertex_count}"]
    for level in c.faces_by_dim:
        for f in level:
            lines.append(" ".join(str(v) for v in f))
    return "\n".join(lines) + "\n"


def format_edge_list(g: Graph) -> str:
    """Edge-list text, the inverse of graphs.parse_edge_list."""
    labels = g.labels or tuple(str(v) for v in range(g.vertex_count))
    if any(len(lab.split()) != 1 for lab in labels):
        # labels with internal whitespace cannot survive the line format
        labels = tuple(str(v) for v in range(g.vertex_count))
    lines = [f"# {g.vertex_count} vertices, {len(g.edges)} edges"]
    covered = set()
    for u, v in g.edges:
        lines.append(f"{labels[u]} {labels[v]}")
        covered.update((u, v))
    for v in range(g.vertex_count):
        if v not in covered:
            lines.append(labels[v])
    return "\n".join(lines) + "\n"
