"""Simplicial complexes: independence complexes, f/h-vectors, links.

A complex stores its faces grouped by dimension.  Two degenerate cases are
distinguished: the void complex (no faces at all) and the complex {∅}
(only the empty face, dimension -1).  D(n) denotes the independence
complex of the triangular graph T_n.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

from . import graphs
from .graphs import Graph, set_to_mask


@dataclass(frozen=True)
class SimplicialComplex:
    """Faces grouped by dimension, each level sorted, each face an
    increasing tuple of vertices in 0..vertex_count-1.  The constructor
    trusts its arguments: faces from outside come in through
    `from_faces`, which checks them.  Frozen, so what it derives in
    cached properties matches its fields."""

    vertex_count: int
    faces_by_dim: tuple[tuple[tuple[int, ...], ...], ...]
    has_empty_face: bool = True

    @property
    def is_void(self) -> bool:
        return not self.has_empty_face

    @property
    def dim(self) -> int:
        """Dimension; -1 for {∅}.  Raises on the void complex."""
        if self.is_void:
            raise ValueError("void complex has no dimension")
        return len(self.faces_by_dim) - 1

    def face_counts(self) -> tuple[int, ...]:
        return tuple(len(level) for level in self.faces_by_dim)

    def all_faces(self) -> list[tuple[int, ...]]:
        out: list[tuple[int, ...]] = [()] if self.has_empty_face else []
        for level in self.faces_by_dim:
            out.extend(level)
        return out

    @functools.cached_property
    def face_masks(self) -> dict[int, tuple[int, ...]]:
        """Every face keyed by its bit mask, in all_faces() order; built on
        first use and kept."""
        return {set_to_mask(f): f for f in self.all_faces()}

    def has_face(self, f) -> bool:
        f = tuple(f)
        vertices = set(f)
        if len(vertices) != len(f) or min(vertices, default=0) < 0:
            return False
        return set_to_mask(vertices) in self.face_masks


VOID = SimplicialComplex(0, (), has_empty_face=False)
EMPTY_ONLY = SimplicialComplex(0, (), has_empty_face=True)


def from_faces(vertex_count: int, faces) -> SimplicialComplex:
    """Build a complex from a face list, in any order and with repeats;
    the list must be closed under subsets.  Raises ValueError for a vertex
    outside 0..vertex_count-1 or repeated within a face."""
    face_set = {tuple(sorted(f)) for f in faces}
    if not face_set:
        return SimplicialComplex(vertex_count, (), has_empty_face=False)
    if () not in face_set:
        raise ValueError("nonvoid complex must contain the empty face")
    maxdim = max(len(f) for f in face_set) - 1
    levels = [[] for _ in range(maxdim + 1)]
    for f in face_set:
        if f:
            levels[len(f) - 1].append(f)
    c = SimplicialComplex(vertex_count, tuple(tuple(sorted(l)) for l in levels))
    for level in c.faces_by_dim:
        for f in level:
            if f[0] < 0 or f[-1] >= vertex_count:
                raise ValueError(f"face {f} out of range")
            if len(set(f)) != len(f):
                raise ValueError(f"face {f} repeats a vertex")
    _check_closed(c)
    return c


def _check_closed(c: SimplicialComplex):
    seen = {()}
    for level in c.faces_by_dim:
        seen.update(level)
    for level in c.faces_by_dim[1:]:
        for f in level:
            for k in range(len(f)):
                if f[:k] + f[k + 1 :] not in seen:
                    raise ValueError(f"complex not closed: missing subset of {f}")


def independence_complex(g: Graph) -> SimplicialComplex:
    """Complex whose faces are the independent sets of g."""
    levels = graphs.independent_sets(g)
    return SimplicialComplex(g.vertex_count, tuple(map(tuple, levels[1:])))


@dataclass(frozen=True)
class FVector:
    """Face counts (f_{-1}, f_0, ..., f_d), exact integers, f_{-1} = 1."""

    entries: tuple[int, ...]

    def __post_init__(self):
        if not self.entries or self.entries[0] != 1:
            raise ValueError("f-vector must start with f_{-1} = 1")

    @property
    def dim(self) -> int:
        return len(self.entries) - 2


@dataclass(frozen=True)
class HVector:
    """h-vector (h_0, ..., h_{d+1}); entries may be negative, h_0 = 1."""

    entries: tuple[int, ...]

    def __post_init__(self):
        if not self.entries or self.entries[0] != 1:
            raise ValueError("h-vector must start with h_0 = 1")


def f_vector(c: SimplicialComplex) -> FVector:
    if c.is_void:
        raise ValueError("f-vector of the void complex is undefined")
    return FVector((1,) + c.face_counts())


def h_vector(f: FVector) -> HVector:
    """Binomial transform h_k = sum_i (-1)^{k-i} C(d+1-i, k-i) f_{i-1}."""
    d = f.dim
    entries = []
    for k in range(d + 2):
        h = 0
        for i in range(k + 1):
            h += (-1) ** (k - i) * math.comb(d + 1 - i, k - i) * f.entries[i]
        entries.append(h)
    return HVector(tuple(entries))


def triangular_f_closed(n: int) -> FVector:
    """Closed-form f-vector of D(n): f_i = n! / (2^{i+1} (i+1)! (n-2i-2)!),
    the number of (i+1)-edge matchings of K_n."""
    if n < 2:
        raise ValueError("requires n >= 2")
    return FVector(graphs.matching_counts(n))


def link(c: SimplicialComplex, f) -> SimplicialComplex:
    """Link of the face f: all H with H ∩ f = ∅ and H ∪ f ∈ c.

    One pass over the face masks of c: each face containing f, minus f.
    Since c is closed, that is a face of c and the link is closed; removing
    a common subset keeps the lexicographic order within a dimension, so
    the faces come out sorted.
    """
    if not c.has_face(f):
        raise ValueError(f"{tuple(sorted(f))} is not a face of the complex")
    fm = set_to_mask(f)
    index = c.face_masks
    faces = [index[h ^ fm] for h in index if h & fm == fm]
    levels = [[] for _ in faces[-1]]
    for g in faces[1:]:
        levels[len(g) - 1].append(g)
    return SimplicialComplex(c.vertex_count, tuple(map(tuple, levels)))


def restrict_relabel(c: SimplicialComplex) -> tuple[SimplicialComplex, dict[int, int]]:
    """Restrict a complex to its occupied vertices, relabeled
    order-preservingly to 0..k-1.  Returns (complex, old->new map)."""
    if c.is_void:
        return c, {}
    verts = sorted({v for f in c.all_faces() for v in f})
    remap = {v: i for i, v in enumerate(verts)}
    faces = [tuple(remap[v] for v in f) for f in c.all_faces()]
    return from_faces(len(verts), faces), remap


def deserialize(text: str) -> SimplicialComplex:
    lines = [l for l in map(str.strip, text.splitlines()) if l and not l.startswith("#")]
    if not lines:
        raise ValueError("empty complex file")
    head = lines[0].split()
    if len(head) != 4 or head[0] != "dim" or head[2] != "vertices":
        raise ValueError("bad complex header")
    d, n = int(head[1]), int(head[3])
    if n < 0:
        raise ValueError(f"negative vertex count {n}")
    faces = [tuple(int(t) for t in line.split()) for line in lines[1:]]
    if d == -2 and not faces:
        return VOID
    c = from_faces(n, faces + [()])
    if c.dim != d:
        raise ValueError(f"header dim {d} != actual dim {c.dim}")
    return c
