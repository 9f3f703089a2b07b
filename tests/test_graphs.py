import itertools
import random

import pytest

from tricm.complexes import triangular_f_closed
from tricm.graphs import (
    Graph,
    independence_number,
    independence_profile,
    independent_sets,
    is_unmixed,
    maximal_independent_sets,
    pair_label,
    parse_edge_list,
    triangular,
)

from oracles import complete, format_edge_list, pair_rank, rank_pair


def triangular_recursive(n: int) -> Graph:
    """T_n built recursively: T_{n-1} plus a clique on (1 n)..(n-1 n),
    joining each old vertex (i j) to (i n) and (j n)."""
    if n < 2:
        raise ValueError("triangular graph requires n >= 2")
    # work with label pairs, re-rank at the end
    edge_pairs: set[tuple[tuple[int, int], tuple[int, int]]] = set()
    for m in range(3, n + 1):
        new = [(i, m) for i in range(1, m)]
        for a in range(len(new)):
            for b in range(a + 1, len(new)):
                edge_pairs.add((new[a], new[b]))
        for i, j in itertools.combinations(range(1, m), 2):
            edge_pairs.add(((i, j), (i, m)))
            edge_pairs.add(((i, j), (j, m)))
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    labels = tuple(pair_label(i, j) for i, j in pairs)
    edges = tuple(
        (pair_rank(*p, n), pair_rank(*q, n)) for p, q in edge_pairs
    )
    return Graph(len(pairs), edges, labels)


def brute_independent_sets(g):
    """Oracle: check all 2^n subsets directly against the edge list."""
    out = []
    for r in range(g.vertex_count + 1):
        for s in itertools.combinations(range(g.vertex_count), r):
            if not any(u in s and v in s for u, v in g.edges):
                out.append(s)
    return out


def path3():
    return Graph(3, ((0, 1), (1, 2)), ("a", "b", "c"))


class TestConstruction:
    def test_validation(self):
        with pytest.raises(ValueError):
            Graph(2, ((0, 0),))
        with pytest.raises(ValueError):
            Graph(2, ((0, 2),))
        with pytest.raises(ValueError):
            Graph(3, ((0, 1), (1, 0)))
        with pytest.raises(ValueError):
            Graph(2, (), labels=("a",))

    def test_edges_normalized(self):
        g = Graph(3, ((2, 1), (1, 0)))
        assert g.edges == ((0, 1), (1, 2))

    def test_pair_rank_bijection(self):
        for n in range(2, 10):
            pairs = list(itertools.combinations(range(1, n + 1), 2))
            for k, (i, j) in enumerate(pairs):
                assert pair_rank(i, j, n) == k
                assert rank_pair(k, n) == (i, j)

    def test_pair_rank_errors(self):
        with pytest.raises(ValueError):
            pair_rank(2, 2, 4)
        with pytest.raises(ValueError):
            rank_pair(6, 4)


class TestTriangular:
    def test_t2(self):
        g = triangular(2)
        assert g.vertex_count == 1 and g.edges == ()

    def test_t3_is_complete(self):
        g = triangular(3)
        assert g.vertex_count == 3
        assert g.edges == complete(3).edges

    def test_t4_brute_force(self):
        # oracle: count intersecting pairs of 2-subsets of {1..4} directly
        subs = list(itertools.combinations(range(1, 5), 2))
        expected = sum(
            1
            for a, b in itertools.combinations(subs, 2)
            if set(a) & set(b)
        )
        g = triangular(4)
        assert g.vertex_count == 6
        assert len(g.edges) == expected == 12

    def test_edge_count_formula(self):
        for n in range(2, 10):
            assert len(triangular(n).edges) == n * (n - 1) * (n - 2) // 2

    def test_labels(self):
        g = triangular(4)
        assert g.labels[0] == "(1 2)"
        assert g.labels[-1] == "(3 4)"

    def test_invalid_n(self):
        with pytest.raises(ValueError):
            triangular(1)
        with pytest.raises(ValueError):
            triangular_recursive(1)


class TestTriangularRecursive:
    @pytest.mark.parametrize("n", range(2, 10))
    def test_equals_direct(self, n):
        a, b = triangular(n), triangular_recursive(n)
        assert a.vertex_count == b.vertex_count
        assert a.labels == b.labels
        assert a.edges == b.edges

    def test_t4_edge_count(self):
        assert len(triangular_recursive(4).edges) == 12


class TestComplete:
    def test_single_vertex(self):
        g = complete(1)
        assert g.vertex_count == 1 and g.edges == ()

    def test_k5(self):
        assert len(complete(5).edges) == 10

    def test_invalid(self):
        with pytest.raises(ValueError):
            complete(0)


class TestIndependentSets:
    def test_edgeless(self):
        g = Graph(3, ())
        assert [len(level) for level in independent_sets(g)] == [1, 3, 3, 1]

    def test_matches_brute_force(self):
        for g in (triangular(4), triangular(5), path3(), complete(4)):
            flat = [s for level in independent_sets(g) for s in level]
            assert flat == brute_independent_sets(g)  # by size, then lexicographic

    def test_t5_counts(self):
        levels = independent_sets(triangular(5))
        assert [len(level) for level in levels] == [1, 10, 15]

    def test_complete4(self):
        assert independent_sets(complete(4)) == [[()], [(0,), (1,), (2,), (3,)]]

    def test_lexicographic_order(self):
        levels = independent_sets(triangular(5))
        assert levels[0] == [()]
        for k, level in enumerate(levels):
            assert level == sorted(level)
            assert all(len(s) == k for s in level)

    def test_levels_match_brute_force_and_profile(self):
        """On seeded random graphs the levels are the brute-force sets
        grouped by size and sorted, and their lengths are the counts of
        the state-merging walk in independence_profile."""
        rng = random.Random(22)
        for _ in range(240):
            n = rng.randint(0, 12)
            p = rng.random()
            pairs = itertools.combinations(range(n), 2)
            g = Graph(n, tuple(e for e in pairs if rng.random() < p))
            brute = brute_independent_sets(g)
            alpha = max(map(len, brute))
            expected = [sorted(s for s in brute if len(s) == k) for k in range(alpha + 1)]
            levels = independent_sets(g)
            assert levels == expected
            assert [len(level) for level in levels] == list(independence_profile(g)[0])


class TestMaximalIndependentSets:
    def test_complete(self):
        assert maximal_independent_sets(complete(4)) == [(0,), (1,), (2,), (3,)]

    def test_path(self):
        assert sorted(maximal_independent_sets(path3())) == [(0, 2), (1,)]

    def test_t5(self):
        mis = maximal_independent_sets(triangular(5))
        assert len(mis) == 15
        assert all(len(s) == 2 for s in mis)

    def test_matches_brute_force(self):
        rng = random.Random(5)
        graphs_ = [
            triangular(4),
            path3(),
            Graph(4, ((0, 1), (2, 3))),
            Graph(0, ()),
            Graph(5, ((1, 3),)),  # isolated vertices 0, 2 and 4
        ]
        for _ in range(20):
            n = rng.randint(1, 8)
            pairs = list(itertools.combinations(range(n), 2))
            graphs_.append(Graph(n, tuple(p for p in pairs if rng.random() < 0.4)))
        for g in graphs_:
            all_sets = set(brute_independent_sets(g))
            expected = sorted(
                s
                for s in all_sets
                if not any(set(s) < set(t) for t in all_sets)
            )
            assert sorted(maximal_independent_sets(g)) == expected
            assert independence_number(g) == max(map(len, expected))


def brute_profile(g):
    """Oracle for independence_profile: the size counts of all independent
    sets and the sizes of the inclusion-maximal ones."""
    sets = [set(s) for s in brute_independent_sets(g)]
    counts = [0] * (max(map(len, sets)) + 1)
    for s in sets:
        counts[len(s)] += 1
    sizes = {len(s) for s in sets if not any(s < t for t in sets)}
    return tuple(counts), frozenset(sizes)


class TestIndependenceProfile:
    def test_small_graphs(self):
        assert independence_profile(Graph(0, ())) == ((1,), frozenset({0}))
        # isolated vertices 0, 2 and 4 lie in every maximal set
        assert independence_profile(Graph(5, ((1, 3),))) == ((1, 5, 9, 7, 2), frozenset({4}))
        assert independence_profile(path3()) == ((1, 3, 1), frozenset({1, 2}))
        assert independence_profile(complete(4)) == ((1, 4), frozenset({1}))
        # {1} and {2} both have candidates {4} but different blocked masks:
        # {2, 4} is maximal and {1, 4} is not
        g = Graph(5, ((0, 2), (1, 2), (1, 3), (2, 3)))
        assert independence_profile(g) == brute_profile(g) == ((1, 5, 6, 2), frozenset({2, 3}))

    def test_matches_brute_force(self):
        rng = random.Random(11)
        graphs_ = [Graph(0, ()), Graph(5, ((1, 3),)), path3(), triangular(4)]
        for _ in range(50):
            n = rng.randint(0, 10)
            p = rng.random()
            pairs = itertools.combinations(range(n), 2)
            graphs_.append(Graph(n, tuple(e for e in pairs if rng.random() < p)))
        for g in graphs_:
            assert independence_profile(g) == brute_profile(g), g.edges
            counts, sizes = independence_profile(g)
            assert independence_number(g) == len(counts) - 1
            assert is_unmixed(g) == (len(sizes) <= 1)

    def test_triangular_counts_are_closed_form(self):
        for n in range(2, 15):
            counts, sizes = independence_profile(triangular(n))
            assert counts == triangular_f_closed(n).entries
            assert sizes == {n // 2}

    def test_agrees_with_the_listed_sets(self):
        """The merged walk against the unmerged one on seeded graphs with
        0-16 vertices: whiskered graphs, where few states merge, dense
        graphs, where many do, and graphs of any density."""
        rng = random.Random(24)
        graphs_ = []
        for kind in ("whiskered", "dense", "any") * 110:
            if kind == "whiskered":
                b, p = rng.randint(0, 8), rng.random()
                pairs = itertools.combinations(range(b), 2)
                base = [e for e in pairs if rng.random() < p]
                graphs_.append(Graph(2 * b, tuple(base) + tuple((v, b + v) for v in range(b))))
            else:
                n = rng.randint(0, 16)
                p = rng.uniform(0.5, 0.95) if kind == "dense" else rng.random()
                pairs = itertools.combinations(range(n), 2)
                graphs_.append(Graph(n, tuple(e for e in pairs if rng.random() < p)))
        for g in graphs_:
            counts, sizes = independence_profile(g)
            assert counts == tuple(map(len, independent_sets(g))), g.edges
            assert sizes == {len(s) for s in maximal_independent_sets(g)}, g.edges

    def test_kept_on_the_graph(self):
        g = triangular(6)
        assert independence_profile(g) is independence_profile(g)
        assert g == triangular(6) and "profile" not in repr(g)


class TestDerivedInvariants:
    def test_independence_number(self):
        assert independence_number(triangular(9)) == 4
        assert independence_number(triangular(11)) == 5
        assert independence_number(complete(7)) == 1

    def test_unmixed_triangular(self):
        for n in range(2, 11):
            assert is_unmixed(triangular(n))

    def test_unmixed_other(self):
        assert not is_unmixed(path3())
        assert is_unmixed(complete(6))


class TestEdgeListFormat:
    def test_parse_basic(self):
        g = parse_edge_list("# comment\na b\nb c\n\nd\n")
        assert g.vertex_count == 4
        assert g.labels == ("a", "b", "c", "d")
        assert g.edges == ((0, 1), (1, 2))

    def test_parse_trailing_comment(self):
        # a token starting with '#' ends the line; '#' inside a label does not
        g = parse_edge_list("a b # note\nx#1 c\n  # indented\nd #\n")
        assert g.labels == ("a", "b", "x#1", "c", "d")
        assert g.edges == ((0, 1), (2, 3))

    def test_parse_errors(self):
        with pytest.raises(ValueError):
            parse_edge_list("a a\n")
        with pytest.raises(ValueError):
            parse_edge_list("a b c\n")

    def test_round_trip(self):
        g = parse_edge_list("a b\nb c\nd\n")
        g2 = parse_edge_list(format_edge_list(g))
        assert g2.edges == g.edges
        assert g2.labels == g.labels

    def test_round_trip_whitespace_labels(self):
        g = triangular(4)
        g2 = parse_edge_list(format_edge_list(g))
        assert g2.vertex_count == g.vertex_count
        assert g2.edges == g.edges
