"""Cohen-Macaulay decisions: h-vector screening, the Reisner criterion,
and the parity-reduced check specialized to triangular graphs, each
taking a list of fields and giving one verdict per field, in order.

Check ordering follows cost: the h-vector screen needs no linear algebra,
and only then is link homology computed, once for each class of links
that could fail (for a 1-dimensional complex that is the complex itself,
whose Betti table counts components).

The generic scan works on the graph: lk(S) = Ind(G[m]) with m the
vertices outside the closed neighbourhoods of S.  A link whose G[m] is
complete or has an isolated vertex cannot fail and is dropped.  The rest
are folded by Engström's lemma (Independence complexes of claw-free
graphs, 2008): if N(u) ⊆ N(v), then Ind(G) ≃ Ind(G - v), so deleting such
v keeps every reduced homology group over Z, and with it every Betti
number over every field.  A link that folds to a graph with an isolated
vertex is a cone and is dropped too.  The others are keyed by the edges of
the folded graph, with one Betti table per key and field, and each link
is tested against its own dimension α(G[m]) - 1, since links with one key
can differ in dimension.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable
from dataclasses import dataclass

from . import complexes, graphs, homology
from .complexes import SimplicialComplex
from .graphs import Graph
from .homology import FieldSpec

CM = "CM"
NOT_CM = "NOT_CM"
# the reduced Betti numbers of one complex over each of a list of fields
Tables = Callable[[list[FieldSpec]], list[tuple[int, ...]]]
# (witness id, dimension, Betti numbers) for the Reisner loop, pulled
# lazily; dimension None is that of the complex the numbers belong to
Candidates = Iterable[tuple[str, int | None, Tables]]


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


def _fold(neighbor_masks: tuple[int, ...], m: int) -> int | None:
    """Engström's fold of G[m]: while some vertex u has N(u) ⊆ N(v) for
    another vertex v of G[m], delete v.  Each step keeps Ind(G[m]) up to
    homotopy (Engström 2008), so the folded mask has the same reduced
    homology over Z.  Every v != u adjacent to all of N(u) is such a
    vertex, and deleting one keeps N(u), so u deletes them together.

    None when a vertex is or becomes isolated: the link is then a cone
    with that apex, acyclic over Z."""
    changed = True
    while changed:
        changed = False
        rest = m
        while rest:
            u = rest & -rest
            rest ^= u
            nu = neighbor_masks[u.bit_length() - 1] & m
            if not nu:
                return None
            dominated = m ^ u
            while nu:
                w = nu & -nu
                nu ^= w
                dominated &= neighbor_masks[w.bit_length() - 1]
            if dominated:
                m ^= dominated
                rest &= m
                changed = True
    return m


def _link_class(
    neighbor_masks: tuple[int, ...], m: int
) -> tuple[tuple[tuple[int, int], ...], int] | None:
    """(class key, folded mask) of the link Ind(G[m]).  The folded mask is
    _fold(m) and the key is the edges of G[folded], each vertex relabelled
    by the number of folded vertices below it.  Two masks with the same
    key have links with the same Betti numbers.  (No vertex of a folded
    G[m] is isolated, so the edges also fix the vertex count.)

    None when the link cannot fail Reisner's criterion: G[m] complete (the
    link has dimension <= 0; this screen must come before the fold, which
    can end on a complete graph from a link of any dimension) or a cone,
    with a vertex isolated before or after the fold."""
    rest = m
    while rest:
        v = rest & -rest
        rest ^= v
        if neighbor_masks[v.bit_length() - 1] & m != m ^ v:
            break
    else:
        return None
    m = _fold(neighbor_masks, m)
    if m is None:
        return None
    edges = []
    rest = m
    while rest:
        v = rest & -rest
        rest ^= v
        i = (m & v - 1).bit_count()
        above = neighbor_masks[v.bit_length() - 1] & rest
        while above:
            u = above & -above
            above ^= u
            edges.append((i, (m & u - 1).bit_count()))
    return tuple(edges), m


def _alpha(neighbor_masks: tuple[int, ...], m: int, memo: dict[int, int]) -> int:
    """α(G[m]), by branching on the lowest vertex of m; memo keeps the
    value of every mask solved."""
    if not m:
        return 0
    if m not in memo:
        v = (m & -m).bit_length() - 1
        rest = m ^ 1 << v
        a = 1 + _alpha(neighbor_masks, rest & ~neighbor_masks[v], memo)
        if neighbor_masks[v] & m:
            a = max(a, _alpha(neighbor_masks, rest, memo))
        memo[m] = a
    return memo[m]


def _restrict(c: SimplicialComplex, m: int) -> SimplicialComplex:
    """The faces of c inside the vertex mask m, on the same vertex labels."""
    levels = [
        tuple(f for f in level if not graphs.set_to_mask(f) & ~m) for level in c.faces_by_dim
    ]
    while levels and not levels[-1]:
        levels.pop()
    return SimplicialComplex(c.vertex_count, tuple(levels))


def _tables(betti_table, x) -> Tables:
    """The reduced Betti numbers of x over each field asked for, in order,
    from betti_table(x, fields): `homology.reduced_betti_table` for a
    complex, `homology.independence_betti_table` for a graph.  Each
    field's table is kept, and the missing fields are computed in one
    call."""
    known: dict[FieldSpec, tuple[int, ...]] = {}

    def tables(fields: list[FieldSpec]) -> list[tuple[int, ...]]:
        missing = [f for f in fields if f not in known]
        if missing:
            for t in betti_table(x, missing):
                known[t.field] = t.dims
        return [known[f] for f in fields]

    return tables


def _reisner(candidates: Candidates, fields: list[FieldSpec], method: str) -> list[CmVerdict]:
    """One verdict per field, in order: NOT_CM with the first candidate
    (witness id, dimension d, Betti numbers) that has H~_i != 0 over that
    field for some i < d, CM if none has; d = None is the dimension of the
    candidate's own complex, len(table) - 2.  A candidate is asked once for
    the Betti numbers over all the fields not yet failed; none is pulled
    once every field has failed."""
    failed: dict[FieldSpec, Witness] = {}
    pending = list(fields)
    for wid, dim, tables in candidates:
        for field, dims in zip(pending, tables(pending)):
            top = len(dims) - 1 if dim is None else dim + 1
            hit = next(((i, b) for i, b in enumerate(dims[:top], start=-1) if b), None)
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
    """(witness id, dimension, Betti numbers) of lk(S) for each face S, in
    all_faces() order, whose link could fail.  lk(S) = Ind(G[m]) with m the
    vertices outside the closed neighbourhoods of S; a mask seen before is
    skipped, and so is one that _link_class screens out.  The links of one
    class key share one Betti table per field, that of lk(S) restricted to
    the folded mask for the first S of the class.  Each link is tested
    against its own dimension α(G[m]) - 1: links of one key can differ in
    dimension.  A skipped link cannot fail, so the first failing face is
    that of the plain scan."""
    neighbors = g.neighbor_masks
    outside = [~(nb | 1 << v) for v, nb in enumerate(neighbors)]
    everything = (1 << g.vertex_count) - 1
    masks: set[int] = set()
    classes: dict[tuple[tuple[int, int], ...], Tables] = {}
    alphas: dict[int, int] = {}
    for f in c.all_faces():
        m = everything
        for v in f:
            m &= outside[v]
        if m in masks:
            continue
        masks.add(m)
        link_class = _link_class(neighbors, m)
        if link_class is None:
            continue
        key, folded = link_class
        if key not in classes:
            link = _restrict(complexes.link(c, f), folded)
            classes[key] = _tables(homology.reduced_betti_table, link)
        yield f"lk({name}, {f})", _alpha(neighbors, m, alphas) - 1, classes[key]


def reisner_check(g: Graph, fields: list[FieldSpec], name: str = "complex") -> list[CmVerdict]:
    """Full Reisner criterion on c = Ind(g), one verdict per field: CM iff
    H~_i(lk(S); field) = 0 for every face S (including the empty one) and
    every i < dim lk(S).  Ind(g) is built and scanned once; each folded
    link class gets one Betti table per field still undecided."""
    c = complexes.independence_complex(g)
    # in dimension 1 only lk(∅) = c can fail, and its Betti table counts
    # components, so the criterion is connectivity
    method = "connectivity" if c.dim == 1 else "reisner-full"
    return _reisner(_class_links(g, c, name), fields, method)


def reisner_triangular(n: int, fields: list[FieldSpec]) -> list[CmVerdict]:
    """Parity-reduced Reisner check for T_n, one verdict per field: every
    link of D(n) is a copy of D(l) for some l <= n of the same parity, so
    only those complexes are examined, each asked once for the Betti
    tables of all the fields still pending.  The tables come from the
    Morse complex of T_l's matching tree, so no face of D(l) is built."""
    if n < 2:
        raise ValueError("requires n >= 2")

    def candidates() -> Candidates:
        for l in range(2 + n % 2, n + 1, 2):
            tables = _tables(homology.independence_betti_table, graphs.triangular(l))
            yield f"delta({l})", None, tables

    return _reisner(candidates(), fields, "reisner-parity")


def classify_triangular(
    n: int, fields: list[FieldSpec], force_full: bool = False, g: Graph | None = None
) -> list[CmVerdict]:
    """Classification of T_n, one verdict per field in order.

    Fast paths: n in {2,3,5} are CM; even n >= 4 are not (D(4) is
    disconnected and failure propagates up by parity); odd n >= 11 are not
    (negative h-vector entry of D(11) plus parity monotonicity); n in
    {7,9} require the field-dependent homology check.  The full route's
    h-screen reads the independence profile that g = T_n keeps; T_n is
    built here unless the caller passes the one it holds.
    """
    if n < 2:
        raise ValueError("requires n >= 2")
    fast = _classify_fast(n, fields)
    if not force_full:
        return fast
    # full route: h-screen first (it refutes D(11) with no linear algebra),
    # then the parity-reduced homology check, which for n in {7, 9} is
    # the fast route itself
    if g is None:
        g = graphs.triangular(n)
    full = _h_screen_verdicts(g, fields, f"delta({n})") or (
        fast if n in (7, 9) else reisner_triangular(n, fields)
    )
    if [v.status for v in full] != [v.status for v in fast]:
        raise AssertionError(
            f"full Reisner check disagrees with fast path for n={n}: "
            f"{[v.status for v in full]} vs {[v.status for v in fast]}"
        )
    return full


def _classify_fast(n: int, fields: list[FieldSpec]) -> list[CmVerdict]:
    if n in (2, 3, 5):
        return [CmVerdict(CM, f, (), "fast-path-theorem") for f in fields]
    if n % 2 == 0:
        # D(4) is 1-dimensional with 3 components; same-parity monotonicity
        w = Witness("delta(4)", "homology", 0, 2)
    elif n >= 11:
        w = _h_witness(complexes.triangular_f_closed(11), "delta(11)")
    else:
        return reisner_triangular(n, fields)
    return [CmVerdict(NOT_CM, f, (w,), "fast-path-theorem") for f in fields]
