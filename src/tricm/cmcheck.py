"""Cohen-Macaulay decisions: h-vector screening, the Reisner criterion,
and the parity-reduced check specialized to triangular graphs.

Check ordering follows cost: the h-vector screen needs no linear algebra,
and only then is link homology computed, once for each class of links
that could fail (for a 1-dimensional complex that is the complex itself,
whose Betti table counts components).
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

from . import complexes, graphs, homology
from .complexes import SimplicialComplex
from .graphs import Graph
from .homology import FieldSpec

CM = "CM"
NOT_CM = "NOT_CM"
# (witness id, complex) pairs for the Reisner loop, pulled lazily
Candidates = Iterable[tuple[str, SimplicialComplex]]


@dataclass(frozen=True)
class Witness:
    """A reason for a NOT_CM verdict: either a nonvanishing link homology
    group (kind "homology", index i, value dim H~_i) or a negative h-vector
    entry (kind "h-vector", index k, value h_k)."""

    complex_id: str
    kind: str
    index: int
    value: int


@dataclass(frozen=True)
class CmVerdict:
    status: str
    field: FieldSpec
    witnesses: tuple[Witness, ...]
    method: str

    def __post_init__(self):
        if self.status == NOT_CM and not self.witnesses:
            raise ValueError("NOT_CM verdict requires a witness")
        if self.status == CM and self.method not in (
            "connectivity",
            "reisner-full",
            "reisner-parity",
            "fast-path-theorem",
        ):
            raise ValueError(f"CM verdict with method {self.method!r}")


def _h_witness(f: complexes.FVector, name: str) -> Witness | None:
    """The first negative entry of the h-vector of f, or None if all are
    nonnegative.  A negative entry rules out CM over every field."""
    for k, v in enumerate(complexes.h_vector(f).entries):
        if v < 0:
            return Witness(name, "h-vector", k, v)
    return None


def h_screen(c: SimplicialComplex) -> int | None:
    """Index of the first negative h-vector entry, or None if all are
    nonnegative."""
    if c.is_void:
        raise ValueError("void complex")
    w = _h_witness(complexes.f_vector(c), "")
    return None if w is None else w.index


def _h_screen_verdicts(g: Graph, fields: list[FieldSpec], name: str) -> list[CmVerdict] | None:
    """NOT_CM over every field with the first negative h-vector entry of
    Ind(g) as witness, or None if the h-screen passes.  The f-vector is
    the graph's kept independence profile, so no face is enumerated."""
    w = _h_witness(complexes.FVector(graphs.independence_profile(g)[0]), name)
    return None if w is None else [CmVerdict(NOT_CM, f, (w,), "h-screen") for f in fields]


def classify_graph(g: Graph, fields: list[FieldSpec], name: str = "complex") -> list[CmVerdict]:
    """Classification of Ind(g) for an arbitrary graph, one verdict per
    field in order: the h-screen first, then the generic Reisner check."""
    return _h_screen_verdicts(g, fields, name) or reisner_check(g, fields, name=name)


def _link_class(neighbor_masks: tuple[int, ...], m: int) -> tuple[tuple[int, int], ...] | None:
    """Class key of the link Ind(G[m]): the edges of G[m] relabelled
    order-preservingly onto 0..|m|-1.  Two masks get the same key iff
    their links are the same complex up to that relabelling, and so have
    the same Betti numbers.  (No vertex of a keyed G[m] is isolated, so
    the edges also fix |m|.)

    None when the link cannot fail Reisner's criterion: G[m] complete
    (the link has dimension <= 0) or with an isolated vertex v (the link
    is a cone with apex v, acyclic over Z)."""
    verts = graphs.mask_to_set(m)
    index = {v: i for i, v in enumerate(verts)}
    edges = []
    for v in verts:
        nb = neighbor_masks[v] & m
        if not nb:
            return None
        i = index[v]
        edges.extend((i, index[u]) for u in graphs.mask_to_set(nb >> (v + 1) << (v + 1)))
    k = len(verts)
    return None if len(edges) == k * (k - 1) // 2 else tuple(edges)


def _reisner(candidates: Candidates, fields: list[FieldSpec], method: str) -> list[CmVerdict]:
    """One verdict per field, in order: NOT_CM with the first candidate
    (witness id, complex) that has H~_i != 0 over that field for some
    i < its dimension, CM if none has.  A candidate gets a Betti table over
    each field not yet failed; none is pulled once every field has failed."""
    failed: dict[FieldSpec, Witness] = {}
    pending = list(fields)
    for wid, c in candidates:
        for field in pending:
            dims = homology.reduced_betti_table(c, field).dims
            hit = next(((i, b) for i, b in enumerate(dims[: c.dim + 1], start=-1) if b), None)
            if hit is not None:
                failed[field] = Witness(wid, "homology", *hit)
        pending = [field for field in pending if field not in failed]
        if not pending:
            break
    return [
        CmVerdict(NOT_CM, f, (failed[f],), method) if f in failed else CmVerdict(CM, f, (), method)
        for f in fields
    ]


def _class_links(g: Graph, c: SimplicialComplex, name: str) -> Candidates:
    """(witness id, link) for the first face, in all_faces() order, of each
    link class that could fail.  lk(S) = Ind(G[m]) with m the vertices
    outside the closed neighbourhoods of S; a mask seen before is skipped,
    and so is one whose class key (see _link_class) was seen before or
    cannot fail.  A skipped link cannot fail or has the Betti numbers of an
    earlier one, so the first failing face is that of the plain scan."""
    neighbors = g.neighbor_masks
    outside = [~(nb | 1 << v) for v, nb in enumerate(neighbors)]
    everything = (1 << g.vertex_count) - 1
    masks: set[int] = set()
    keys: set[tuple[tuple[int, int], ...]] = set()
    for f in c.all_faces():
        m = everything
        for v in f:
            m &= outside[v]
        if m in masks:
            continue
        masks.add(m)
        key = _link_class(neighbors, m)
        if key is None or key in keys:
            continue
        keys.add(key)
        yield f"lk({name}, {f})", complexes.link(c, f)


def reisner_check(g: Graph, fields: list[FieldSpec], name: str = "complex") -> list[CmVerdict]:
    """Full Reisner criterion on c = Ind(g), one verdict per field: CM iff
    H~_i(lk(S); field) = 0 for every face S (including the empty one) and
    every i < dim lk(S).  Ind(g) is built and scanned once; each link class
    gets one Betti table per field still undecided."""
    c = complexes.independence_complex(g)
    # in dimension 1 only lk(∅) = c can fail, and its Betti table counts
    # components, so the criterion is connectivity
    method = "connectivity" if c.dim == 1 else "reisner-full"
    return _reisner(_class_links(g, c, name), fields, method)


def reisner_triangular(n: int, field: FieldSpec) -> CmVerdict:
    """Parity-reduced Reisner check for T_n: every link of D(n) is a copy
    of D(l) for some l <= n of the same parity, so only those complexes
    are examined."""
    if n < 2:
        raise ValueError("requires n >= 2")
    candidates = (
        (f"delta({l})", complexes.triangular_complex(l)) for l in range(2 + n % 2, n + 1, 2)
    )
    return _reisner(candidates, [field], "reisner-parity")[0]


def classify_triangular(
    n: int, field: FieldSpec, force_full: bool = False, g: Graph | None = None
) -> CmVerdict:
    """Classification of T_n over the given field.

    Fast paths: n in {2,3,5} are CM; even n >= 4 are not (D(4) is
    disconnected and failure propagates up by parity); odd n >= 11 are not
    (negative h-vector entry of D(11) plus parity monotonicity); n in
    {7,9} require the field-dependent homology check.  The full route's
    h-screen reads the independence profile that g = T_n keeps; T_n is
    built here unless the caller passes the one it holds.
    """
    if n < 2:
        raise ValueError("requires n >= 2")
    fast = _classify_fast(n, field)
    if not force_full:
        return fast
    # full route: h-screen first (it refutes D(11) with no linear algebra),
    # then the parity-reduced homology check, which for n in {7, 9} is
    # the fast route itself
    if g is None:
        g = graphs.triangular(n)
    [full] = _h_screen_verdicts(g, [field], f"delta({n})") or [
        fast if fast.method == "reisner-parity" else reisner_triangular(n, field)
    ]
    if full.status != fast.status:
        raise AssertionError(
            f"full Reisner check disagrees with fast path for n={n}: "
            f"{full.status} vs {fast.status}"
        )
    return full


def _classify_fast(n: int, field: FieldSpec) -> CmVerdict:
    if n in (2, 3, 5):
        return CmVerdict(CM, field, (), "fast-path-theorem")
    if n % 2 == 0:
        # D(4) is 1-dimensional with 3 components; same-parity monotonicity
        return CmVerdict(
            NOT_CM, field, (Witness("delta(4)", "homology", 0, 2),), "fast-path-theorem"
        )
    if n >= 11:
        w = _h_witness(complexes.triangular_f_closed(11), "delta(11)")
        return CmVerdict(NOT_CM, field, (w,), "fast-path-theorem")
    return reisner_triangular(n, field)
