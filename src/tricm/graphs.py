"""Simple undirected graphs: triangular graphs, independent sets, edge lists.

Vertices are integers 0..vertex_count-1.  Vertex sets are handled as bit
masks internally and exposed as sorted index tuples.  The triangular graph
T_n lives on the 2-subsets of {1..n}; the vertex index of the pair (i, j)
is its rank in lexicographic order over 1 <= i < j <= n.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field


@dataclass
class Graph:
    """A simple undirected graph with a canonical sorted edge list."""

    vertex_count: int
    edges: tuple[tuple[int, int], ...]
    labels: tuple[str, ...] | None = None
    _neighbor_masks: tuple[int, ...] | None = field(
        default=None, repr=False, compare=False
    )
    _independence_profile: tuple[tuple[int, ...], frozenset[int]] | None = field(
        default=None, repr=False, compare=False
    )

    def __post_init__(self):
        if self.vertex_count < 0:
            raise ValueError("vertex_count must be nonnegative")
        edges = tuple(sorted((min(u, v), max(u, v)) for u, v in self.edges))
        for u, v in edges:
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if not (0 <= u < self.vertex_count and 0 <= v < self.vertex_count):
                raise ValueError(f"edge ({u},{v}) out of range")
        if len(set(edges)) != len(edges):
            raise ValueError("duplicate edges")
        self.edges = edges
        if self.labels is not None:
            self.labels = tuple(self.labels)
            if len(self.labels) != self.vertex_count:
                raise ValueError("label count != vertex count")

    @property
    def neighbor_masks(self) -> tuple[int, ...]:
        if self._neighbor_masks is None:
            masks = [0] * self.vertex_count
            for u, v in self.edges:
                masks[u] |= 1 << v
                masks[v] |= 1 << u
            self._neighbor_masks = tuple(masks)
        return self._neighbor_masks


def set_to_mask(vertices) -> int:
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def pair_label(i: int, j: int) -> str:
    return f"({i} {j})"


def triangular(n: int) -> Graph:
    """Triangular graph T_n: vertices are 2-subsets of {1..n}, adjacent iff
    they intersect."""
    if n < 2:
        raise ValueError("triangular graph requires n >= 2")
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    labels = tuple(pair_label(i, j) for i, j in pairs)
    # the pairs holding one symbol form a clique, and two pairs share at
    # most one symbol, so every edge comes from exactly one clique
    holders: list[list[int]] = [[] for _ in range(n + 1)]
    for v, (i, j) in enumerate(pairs):
        holders[i].append(v)
        holders[j].append(v)
    edges = [e for clique in holders for e in itertools.combinations(clique, 2)]
    return Graph(len(pairs), tuple(edges), labels)


def independent_sets(g: Graph) -> list[list[tuple[int, ...]]]:
    """The independent sets of g grouped by size: levels[k] lists those of
    size k in lexicographic order, for k = 0..alpha(g).  One level walk
    over (set, candidates) pairs, where the candidates are the vertices
    above max S adjacent to none of S; taking the lowest candidate first
    keeps every level lexicographic.  It lists every set, so it merges
    none, unlike the walk of `independence_profile`."""
    non_neighbors = [~m for m in g.neighbor_masks]
    levels = [[()]]
    frontier = [((), (1 << g.vertex_count) - 1)] if g.vertex_count else []
    while frontier:
        level, next_frontier = [], []
        for s, cand in frontier:
            while cand:
                low = cand & -cand
                cand ^= low
                v = low.bit_length() - 1
                child, child_cand = s + (v,), cand & non_neighbors[v]
                level.append(child)
                if child_cand:
                    next_frontier.append((child, child_cand))
        levels.append(level)
        frontier = next_frontier
    return levels


def maximal_independent_sets(g: Graph) -> list[tuple[int, ...]]:
    """Inclusion-maximal independent sets, in level order: by size, then
    lexicographic."""
    # a set is maximal iff the closed neighbourhoods of its vertices
    # cover the graph
    closed = [m | 1 << v for v, m in enumerate(g.neighbor_masks)]
    full = (1 << g.vertex_count) - 1
    out = []
    for level in independent_sets(g):
        for s in level:
            covered = 0
            for v in s:
                covered |= closed[v]
            if covered == full:
                out.append(s)
    return out


def independence_profile(g: Graph) -> tuple[tuple[int, ...], frozenset[int]]:
    """(counts, sizes): counts[k] is the number of independent sets of size
    k for k = 0..alpha(g), and sizes holds the sizes of the maximal ones.
    Built on first use and kept on the graph.

    One level-by-level pass over the search tree of independent sets in
    increasing vertex order, with no tuples.  A set S is known only by its
    state: its candidates (the vertices above max S adjacent to none of S)
    and its blocked mask (the union of the closed neighbourhoods of S).
    Each level is a map from state to the number of sets of that size in
    it, and sets that reach one state are merged by adding their numbers.

    The merge is exact.  The children of S are S + v for v among its
    candidates; S + v has the candidates of S above v minus N(v), and
    blocked | N[v].  Both depend on S only through its state, so two sets
    in one state have subtrees with the same states, level by level.  And
    S + T is maximal iff blocked | N[T] covers the graph, which again
    depends on S only through its state.  (Equal candidates alone do not
    give equal blocked masks, so the key holds both.)  A set with a
    candidate left is never maximal, so only the leaves are tested.  Each
    set has one child per candidate, so counts[k + 1] is the sum over the
    states of level k of their number of sets times their candidate count.
    """
    if g._independence_profile is not None:
        return g._independence_profile
    n = g.vertex_count
    full = (1 << n) - 1
    non_neighbors = [~m for m in g.neighbor_masks]
    closed = [m | 1 << v for v, m in enumerate(g.neighbor_masks)]
    counts = [1]
    sizes = set() if n else {0}  # the empty set is maximal only in the empty graph
    states = {(full, 0): 1} if n else {}
    while states:
        next_states: dict[tuple[int, int], int] = {}
        children = 0
        for (cand, blocked), sets in states.items():
            children += sets * cand.bit_count()
            while cand:
                low = cand & -cand
                cand ^= low
                v = low.bit_length() - 1
                child = cand & non_neighbors[v]
                child_blocked = blocked | closed[v]
                if child:
                    key = (child, child_blocked)
                    next_states[key] = next_states.get(key, 0) + sets
                elif child_blocked == full:
                    sizes.add(len(counts))
        counts.append(children)
        states = next_states
    g._independence_profile = (tuple(counts), frozenset(sizes))
    return g._independence_profile


def independence_number(g: Graph) -> int:
    return len(independence_profile(g)[0]) - 1


def is_unmixed(g: Graph) -> bool:
    """True iff all maximal independent sets have the same cardinality."""
    return len(independence_profile(g)[1]) <= 1


def parse_edge_list(text: str) -> Graph:
    """Parse the edge-list text format: one edge "u v" per line with
    arbitrary string labels; a single label on a line declares an isolated
    vertex.  A token starting with '#' comments out the rest of its line.
    Labels map to indices in first-appearance order."""
    index: dict[str, int] = {}
    labels: list[str] = []

    def vid(label: str) -> int:
        if label not in index:
            index[label] = len(labels)
            labels.append(label)
        return index[label]

    edges = set()
    for lineno, raw in enumerate(text.splitlines(), 1):
        parts = list(itertools.takewhile(lambda t: not t.startswith("#"), raw.split()))
        if not parts:
            continue
        if len(parts) == 1:
            vid(parts[0])
        elif len(parts) == 2:
            u, v = vid(parts[0]), vid(parts[1])
            if u == v:
                raise ValueError(f"line {lineno}: self-loop on {parts[0]!r}")
            edges.add((min(u, v), max(u, v)))
        else:
            raise ValueError(f"line {lineno}: expected 1 or 2 labels")
    return Graph(len(labels), tuple(sorted(edges)), tuple(labels))
