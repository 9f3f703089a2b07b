"""Simple undirected graphs: triangular graphs, complements, independent sets.

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

    def edge_count(self) -> int:
        return len(self.edges)

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.neighbor_masks[u] >> v & 1)


def mask_to_set(mask: int) -> tuple[int, ...]:
    out = []
    v = 0
    while mask:
        if mask & 1:
            out.append(v)
        mask >>= 1
        v += 1
    return tuple(out)


def set_to_mask(vertices) -> int:
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


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


def pair_label(i: int, j: int) -> str:
    return f"({i} {j})"


def triangular(n: int) -> Graph:
    """Triangular graph T_n: vertices are 2-subsets of {1..n}, adjacent iff
    they intersect."""
    if n < 2:
        raise ValueError("triangular graph requires n >= 2")
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    labels = tuple(pair_label(i, j) for i, j in pairs)
    edges = []
    for a in range(len(pairs)):
        ia, ja = pairs[a]
        for b in range(a + 1, len(pairs)):
            ib, jb = pairs[b]
            if {ia, ja} & {ib, jb}:
                edges.append((a, b))
    return Graph(len(pairs), tuple(edges), labels)


def complete(n: int) -> Graph:
    if n < 1:
        raise ValueError("complete graph requires N >= 1")
    edges = tuple(itertools.combinations(range(n), 2))
    return Graph(n, edges)


def complement(g: Graph) -> Graph:
    edges = tuple(
        (u, v)
        for u, v in itertools.combinations(range(g.vertex_count), 2)
        if not g.has_edge(u, v)
    )
    return Graph(g.vertex_count, edges, g.labels)


def independent_sets(g: Graph, max_size: int | None = None) -> list[tuple[int, ...]]:
    """All independent sets of g up to max_size, in lexicographic order
    (empty set first)."""
    n = g.vertex_count
    masks = g.neighbor_masks
    cap = n if max_size is None else max_size
    out: list[tuple[int, ...]] = []
    stack: list[int] = []

    def extend(start: int, forbidden: int):
        out.append(tuple(stack))
        if len(stack) >= cap:
            return
        for v in range(start, n):
            if forbidden >> v & 1:
                continue
            stack.append(v)
            extend(v + 1, forbidden | masks[v])
            stack.pop()

    extend(0, 0)
    return out


def maximal_independent_sets(g: Graph) -> list[tuple[int, ...]]:
    """Inclusion-maximal independent sets, in lexicographic order."""
    masks = g.neighbor_masks
    out = []
    for s in independent_sets(g):
        smask = set_to_mask(s)
        if all(
            (smask >> v & 1) or (masks[v] & smask)
            for v in range(g.vertex_count)
        ):
            out.append(s)
    return out


def independence_number(g: Graph) -> int:
    return max(len(s) for s in maximal_independent_sets(g)) if g.vertex_count else 0


def is_unmixed(g: Graph) -> bool:
    """True iff all maximal independent sets have the same cardinality."""
    sizes = {len(s) for s in maximal_independent_sets(g)}
    return len(sizes) <= 1


def minimal_vertex_covers(g: Graph) -> list[tuple[int, ...]]:
    """Minimal vertex covers = complements of maximal independent sets."""
    full = (1 << g.vertex_count) - 1
    covers = [
        mask_to_set(full & ~set_to_mask(s)) for s in maximal_independent_sets(g)
    ]
    return sorted(covers)


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


def format_edge_list(g: Graph) -> str:
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
