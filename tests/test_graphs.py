import itertools

import pytest

from tricm import graphs
from tricm.graphs import (
    Graph,
    complement,
    complete,
    independence_number,
    independent_sets,
    is_unmixed,
    maximal_independent_sets,
    minimal_vertex_covers,
    pair_label,
    pair_rank,
    parse_edge_list,
    rank_pair,
    triangular,
)


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


class TestComplement:
    def test_complete_to_edgeless(self):
        assert complement(complete(5)).edges == ()

    def test_t4_perfect_matching(self):
        g = complement(triangular(4))
        assert len(g.edges) == 3
        seen = [v for e in g.edges for v in e]
        assert sorted(seen) == list(range(6))  # three disjoint edges

    def test_t5_petersen_shape(self):
        g = complement(triangular(5))
        assert g.vertex_count == 10
        assert len(g.edges) == 15
        degs = [bin(m).count("1") for m in g.neighbor_masks]
        assert degs == [3] * 10

    def test_involution(self):
        for g in (triangular(5), path3(), complete(4), Graph(4, ())):
            gg = complement(complement(g))
            assert gg.edges == g.edges and gg.vertex_count == g.vertex_count


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
        assert len(independent_sets(g)) == 8

    def test_matches_brute_force(self):
        for g in (triangular(4), triangular(5), path3(), complete(4)):
            assert sorted(independent_sets(g)) == sorted(brute_independent_sets(g))

    def test_t5_counts(self):
        sets = independent_sets(triangular(5))
        by_size = {}
        for s in sets:
            by_size[len(s)] = by_size.get(len(s), 0) + 1
        assert by_size == {0: 1, 1: 10, 2: 15}

    def test_complete4(self):
        assert independent_sets(complete(4)) == [(), (0,), (1,), (2,), (3,)]

    def test_max_size(self):
        sets = independent_sets(triangular(5), max_size=1)
        assert all(len(s) <= 1 for s in sets)
        assert len(sets) == 11

    def test_lexicographic_order(self):
        sets = independent_sets(triangular(5))
        assert sets == sorted(sets, key=lambda s: (s,))
        assert sets[0] == ()


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
        for g in (triangular(4), path3(), Graph(4, ((0, 1), (2, 3)))):
            all_sets = set(brute_independent_sets(g))
            expected = sorted(
                s
                for s in all_sets
                if not any(set(s) < set(t) for t in all_sets)
            )
            assert sorted(maximal_independent_sets(g)) == expected


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

    def test_minimal_vertex_covers_complete(self):
        covers = minimal_vertex_covers(complete(4))
        assert covers == sorted(itertools.combinations(range(4), 3))

    def test_minimal_vertex_covers_t4(self):
        # D(4) is three disjoint edges, so T_4 has exactly 3 maximal
        # independent sets and hence 3 minimal covers of size 4
        covers = minimal_vertex_covers(triangular(4))
        assert len(covers) == 3
        assert all(len(c) == 4 for c in covers)

    def test_minimal_vertex_covers_edgeless(self):
        assert minimal_vertex_covers(Graph(3, ())) == [()]

    def test_cover_property(self):
        for g in (triangular(4), path3(), triangular(5)):
            n = g.vertex_count
            for c in minimal_vertex_covers(g):
                cset = set(c)
                assert all(u in cset or v in cset for u, v in g.edges)
                for drop in c:
                    smaller = cset - {drop}
                    assert not all(
                        u in smaller or v in smaller for u, v in g.edges
                    )

    def test_cover_mis_duality(self):
        for g in (triangular(5), path3(), complete(3)):
            full = set(range(g.vertex_count))
            from_covers = sorted(
                tuple(sorted(full - set(c))) for c in minimal_vertex_covers(g)
            )
            assert from_covers == sorted(maximal_independent_sets(g))


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
        g2 = parse_edge_list(graphs.format_edge_list(g))
        assert g2.edges == g.edges
        assert g2.labels == g.labels

    def test_round_trip_whitespace_labels(self):
        g = triangular(4)
        g2 = parse_edge_list(graphs.format_edge_list(g))
        assert g2.vertex_count == g.vertex_count
        assert g2.edges == g.edges
