import itertools
import random

import pytest

from tricm import cmcheck, complexes, graphs, homology
from tricm.cmcheck import (
    CM,
    NOT_CM,
    CmVerdict,
    Witness,
    classify_graph,
    classify_triangular,
    h_screen,
    reisner_check,
    reisner_triangular,
)
from tricm.complexes import from_faces
from tricm.homology import QQ, FieldSpec

from oracles import complete, triangular_complex

F2, F3, F5 = FieldSpec(2), FieldSpec(3), FieldSpec(5)


def naive_reisner(g, field, name="complex"):
    """Oracle: (status, witnesses) of Reisner's criterion on Ind(g), with
    every link built from its definition and its Betti table computed, in
    all_faces() order, without deduplication or cone shortcuts."""
    c = complexes.independence_complex(g)
    faces = c.all_faces()
    face_sets = {frozenset(h) for h in faces}
    for f in faces:
        lk = [g for g in faces if not set(f) & set(g) and frozenset(f + g) in face_sets]
        lk = from_faces(c.vertex_count, lk)
        dims = homology.reduced_betti_table(lk, [field])[0].dims
        for i, b in enumerate(dims[: lk.dim + 1], start=-1):
            if b:
                return NOT_CM, (Witness(f"lk({name}, {f})", "homology", i, b),)
    return CM, ()


def assert_matches_naive(g, fields):
    """The verdicts of one reisner_check over all the fields, each checked
    against the oracle for its field."""
    verdicts = reisner_check(g, fields, name="delta_G")
    assert [v.field for v in verdicts] == fields
    for field, v in zip(fields, verdicts):
        assert (v.status, v.witnesses) == naive_reisner(g, field, name="delta_G")
    return verdicts


def random_graph(rng):
    n = rng.randint(5, 8)
    pairs = list(itertools.combinations(range(n), 2))
    return graphs.Graph(n, tuple(p for p in pairs if rng.random() < 0.35))


def whiskered(base_vertices, base_edges):
    """W(G): the graph G on 0..b-1 with a pendant vertex b + v on every
    vertex v.  Villarreal (1990): Ind(W(G)) is CM over every field."""
    b = base_vertices
    return graphs.Graph(2 * b, tuple(base_edges) + tuple((v, b + v) for v in range(b)))


def random_with_folds(rng):
    """A random graph on 3..5 vertices with pendant vertices and twins
    added: a pendant u on v has N(u) = {v}, a subset of the neighbourhood
    of every other neighbour of v, and twins have equal neighbourhoods,
    so both give Engström folds."""
    n = rng.randint(3, 5)
    edges = [p for p in itertools.combinations(range(n), 2) if rng.random() < 0.4]
    k = n
    for v in range(n):
        r = rng.random()
        if r < 0.4:
            edges.append((v, k))
            k += 1
        elif r < 0.6:
            edges.extend((u, k) for u in range(n) if (min(u, v), max(u, v)) in edges)
            k += 1
    return graphs.Graph(k, tuple(edges))


def random_one_dimensional(rng):
    """The complement g of a random triangle-free graph h with an edge:
    Ind(g) is the clique complex of h, which is h itself, a 1-dimensional
    complex, connected or not."""
    n = rng.randint(3, 9)
    pairs = list(itertools.combinations(range(n), 2))
    rng.shuffle(pairs)
    nbrs = [set() for _ in range(n)]
    for u, v in pairs[: rng.randint(1, len(pairs))]:
        if not nbrs[u] & nbrs[v]:
            nbrs[u].add(v)
            nbrs[v].add(u)
    pairs = itertools.combinations(range(n), 2)
    return graphs.Graph(n, tuple((u, v) for u, v in pairs if v not in nbrs[u]))


class TestVerdictType:
    def test_not_cm_needs_witness(self):
        with pytest.raises(ValueError):
            CmVerdict(NOT_CM, QQ, (), "reisner-full")

    def test_cm_needs_known_method(self):
        with pytest.raises(ValueError):
            CmVerdict(CM, QQ, (), "guess")


class TestHScreen:
    def test_t11(self):
        # h(D(11)) = (1, 50, 780, 4280, 6220, -936)
        assert h_screen(triangular_complex(11)) == 5

    def test_t6(self):
        # h(D(6)) = (1, 12, 18, -16)
        assert h_screen(triangular_complex(6)) == 3

    def test_t4(self):
        # h(D(4)) = (1, 4, -2)
        assert h_screen(triangular_complex(4)) == 2

    @pytest.mark.parametrize("n", [2, 3, 5, 7, 9])
    def test_nonnegative_cases(self, n):
        assert h_screen(triangular_complex(n)) is None

    def test_void_rejected(self):
        with pytest.raises(ValueError):
            h_screen(complexes.VOID)


class TestReisnerCheck:
    def test_zero_dim(self):
        # Ind(K_4) is four points
        [v] = reisner_check(complete(4), [QQ])
        assert v.status == CM

    def test_t4_disconnected(self):
        [v] = reisner_check(graphs.triangular(4), [QQ])
        assert v.status == NOT_CM
        w = v.witnesses[0]
        assert (w.kind, w.index, w.value) == ("homology", 0, 2)

    def test_t5_cm(self):
        [v] = reisner_check(graphs.triangular(5), [QQ])
        assert v.status == CM
        assert v.method == "connectivity"

    def test_t7_char0(self):
        [v] = reisner_check(graphs.triangular(7), [QQ])
        assert v.status == CM

    def test_t7_char3(self):
        [v] = reisner_check(graphs.triangular(7), [F3])
        assert v.status == NOT_CM
        w = v.witnesses[0]
        assert (w.kind, w.index, w.value) == ("homology", 1, 1)

    def test_t9_char0(self):
        [v] = reisner_check(graphs.triangular(9), [QQ])
        assert v.status == NOT_CM
        w = v.witnesses[0]
        assert (w.kind, w.index, w.value) == ("homology", 2, 42)

    def test_empty_graph(self):
        # Ind of the graph with no vertices is {∅}: never void, and CM
        [v] = reisner_check(graphs.Graph(0, ()), [QQ])
        assert (v.status, v.method) == (CM, "reisner-full")

    def test_cone_over_disjoint_edges(self):
        # Ind(g) has facets 014 and 234: the whole complex is a cone with
        # apex 4 (isolated in g), its apex link is not
        g = graphs.Graph(5, ((0, 2), (0, 3), (1, 2), (1, 3)))
        [v] = reisner_check(g, [QQ])
        assert v.status == NOT_CM
        assert v.witnesses == (Witness("lk(complex, (4,))", "homology", 0, 1),)

    def test_seven_face_link_is_not_a_cone(self):
        # Ind(g) has facets 014, 124 and 34; lk((4,)) is the path 0-1-2
        # plus the vertex 3: 7 faces, vertex 1 in 3 = 7 // 2 of them, and
        # no vertex of g - N[4] is isolated, so no cone
        g = graphs.Graph(5, ((0, 2), (0, 3), (1, 3), (2, 3)))
        [v] = reisner_check(g, [QQ])
        assert v.witnesses == (Witness("lk(complex, (4,))", "homology", 0, 1),)

    def test_links_with_equal_f_vectors_are_not_merged(self):
        # lk((0,)) is the tree with edges 1-4, 1-5, 1-7, 6-7 and lk((7,))
        # the 4-cycle 0-1-3-6 plus the vertex 2: both have f = (1, 5, 4),
        # only the second is disconnected
        g = graphs.Graph(8, ((0, 2), (0, 3), (1, 2), (1, 6), (2, 3), (2, 4), (2, 5),
                             (2, 6), (4, 5), (4, 6), (4, 7), (5, 6), (5, 7)))
        c = complexes.independence_complex(g)
        lk0, lk7 = complexes.link(c, (0,)), complexes.link(c, (7,))
        assert complexes.f_vector(lk0) == complexes.f_vector(lk7)
        [v] = reisner_check(g, [QQ])
        assert v.witnesses == (Witness("lk(complex, (7,))", "homology", 0, 1),)

    def test_first_link_that_is_not_a_cone(self):
        # every link of positive dimension before lk((4, 5)) is a cone;
        # lk((4, 5)) is not, and it has two components
        g = graphs.Graph(7, ((0, 1), (0, 2), (0, 3), (0, 6), (1, 6), (2, 3)))
        [v] = classify_graph(g, [QQ], name="delta_G")
        assert v.status == NOT_CM
        assert v.witnesses == (Witness("lk(delta_G, (4, 5))", "homology", 0, 1),)

    def test_links_of_one_folded_key_keep_their_own_dimensions(self):
        # g is the path 4-1-2-0-3-6-5.  lk((0,)) is Ind of the edges 1-4
        # and 5-6, a circle of dimension 1: H~_1 = 1 is at the top, so it
        # passes.  lk((4,)) is Ind of the path 2-0-3-6-5, of dimension 2;
        # N(2) = {0} lies in N(3), so it folds to the edges 0-2 and 5-6,
        # the key of lk((0,)), and its H~_1 = 1 is below the top
        g = graphs.Graph(7, ((0, 2), (0, 3), (1, 2), (1, 4), (3, 6), (5, 6)))
        nb = g.neighbor_masks
        m0 = graphs.set_to_mask((1, 4, 5, 6))
        m4 = graphs.set_to_mask((0, 2, 3, 5, 6))
        assert cmcheck._link_class(nb, m0) == (((0, 1), (2, 3)), m0)
        assert cmcheck._link_class(nb, m4)[0] == ((0, 1), (2, 3))
        c = complexes.independence_complex(g)
        assert (complexes.link(c, (0,)).dim, complexes.link(c, (4,)).dim) == (1, 2)
        verdicts = assert_matches_naive(g, [QQ, F2, F3])
        witness = Witness("lk(delta_G, (4,))", "homology", 1, 1)
        assert {v.witnesses for v in verdicts} == {(witness,)}

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_link_that_folds_to_a_complete_graph(self, k):
        # K_k plus a twin k of vertex 0: Ind is the edge {0, k} and the
        # points 1..k-1, of dimension 1 with k components.  The twins fold
        # to K_k, which is screened out only before folding
        g = graphs.Graph(k + 1, complete(k).edges + tuple((u, k) for u in range(1, k)))
        full = (1 << (k + 1)) - 1
        assert cmcheck._link_class(g.neighbor_masks, full) == (complete(k).edges, full >> 1)
        verdicts = assert_matches_naive(g, [QQ, F2, F3])
        witness = Witness("lk(delta_G, ())", "homology", 0, k - 1)
        assert {v.witnesses for v in verdicts} == {(witness,)}

    @pytest.mark.parametrize("seed", range(3))
    def test_fold_heavy_graphs_match_naive_check(self, seed):
        # whiskered graphs, whose every link folds to disjoint edges or a
        # cone, and random graphs with pendant vertices and twins
        rng = random.Random(seed)
        cases = []
        for _ in range(4):
            b = rng.randint(2, 4)
            pairs = list(itertools.combinations(range(b), 2))
            cases.append(whiskered(b, rng.sample(pairs, rng.randint(1, len(pairs)))))
        cases += [random_with_folds(rng) for _ in range(20)]
        for g in cases:
            assert_matches_naive(g, [QQ, F2, F3])

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_naive_check(self, seed):
        rng = random.Random(seed)
        for _ in range(25):
            g = random_graph(rng)
            assert_matches_naive(g, [QQ, F2])

    @pytest.mark.parametrize("seed", range(4))
    def test_one_dimensional_matches_naive_check(self, seed):
        # Ind(T_4) has three components, Ind(C_5) is a 5-cycle, and the
        # random cases are connected or not
        rng = random.Random(seed)
        c5 = graphs.Graph(5, ((0, 2), (0, 3), (1, 3), (1, 4), (2, 4)))
        cases = [graphs.triangular(4), c5] + [random_one_dimensional(rng) for _ in range(20)]
        for g in cases:
            assert complexes.independence_complex(g).dim == 1
            verdicts = assert_matches_naive(g, [QQ, F2, F3])
            assert {v.method for v in verdicts} == {"connectivity"}

    def test_t7_fields_scan_past_a_failed_field(self, monkeypatch):
        # over F_3 lk(∅) = D(7) already fails; Q and F_2 go on through
        # both link classes and answer CM
        tables = []
        real = homology.reduced_betti_table

        def spy(c, fields):
            tables.append(list(fields))
            return real(c, fields)

        monkeypatch.setattr(homology, "reduced_betti_table", spy)
        verdicts = reisner_check(graphs.triangular(7), [F3, QQ, F2], name="delta_G")
        assert [v.status for v in verdicts] == [NOT_CM, CM, CM]
        assert tables == [[F3, QQ, F2], [QQ, F2]]
        monkeypatch.undo()
        assert_matches_naive(graphs.triangular(7), [F3, QQ, F2])

    @pytest.mark.parametrize("fields", [[QQ], [QQ, F3]])
    def test_one_scan_for_all_fields(self, monkeypatch, fields):
        # the link classes of Ind(T_7) are built once, whatever the fields
        links = []
        real_link = complexes.link
        monkeypatch.setattr(complexes, "link", lambda c, f: links.append(f) or real_link(c, f))
        reisner_check(graphs.triangular(7), fields)
        assert len(links) == 2

    @pytest.mark.parametrize("k", range(1, 7))
    def test_one_link_per_class_on_disjoint_cliques(self, monkeypatch, k):
        # Ind(k x K_4) is the join of k four-point sets: 5^k faces, but a
        # link is Ind(j x K_4) for one of the k + 1 values of j, and CM
        links = []
        real_link = complexes.link
        monkeypatch.setattr(complexes, "link", lambda c, f: links.append(f) or real_link(c, f))
        edges = [e for b in range(k) for e in itertools.combinations(range(4 * b, 4 * b + 4), 2)]
        [v] = reisner_check(graphs.Graph(4 * k, tuple(edges)), [QQ])
        assert v.status == CM
        assert len(links) <= k + 1


    @pytest.mark.parametrize("b", range(2, 9))
    def test_whiskered_path_links_fold(self, monkeypatch, b):
        # a link of W(G) that is not a cone is W(H) for H induced by G; an
        # edge of H folds W(H) to a cone, so the rest are j disjoint edges,
        # j <= b, and j = 1 is screened out as complete
        links = []
        real_link = complexes.link
        monkeypatch.setattr(complexes, "link", lambda c, f: links.append(f) or real_link(c, f))
        [v] = reisner_check(whiskered(b, [(i, i + 1) for i in range(b - 1)]), [QQ])
        assert v.status == CM
        assert len(links) <= b + 1


class TestReisnerTriangular:
    @pytest.mark.parametrize(
        "n,field,status",
        [
            (2, QQ, CM),
            (3, QQ, CM),
            (4, QQ, NOT_CM),
            (5, QQ, CM),
            (6, QQ, NOT_CM),
            (7, QQ, CM),
            (7, F2, CM),
            (7, F5, CM),
            (7, F3, NOT_CM),
            (8, QQ, NOT_CM),
            (9, QQ, NOT_CM),
            (9, F2, NOT_CM),
            (9, F3, NOT_CM),
        ],
    )
    def test_statuses(self, n, field, status):
        assert [v.status for v in reisner_triangular(n, [field])] == [status]

    def test_t9_witness(self):
        [v] = reisner_triangular(9, [QQ])
        assert v.witnesses == (Witness("delta(9)", "homology", 2, 42),)

    def test_t7_char3_witness(self):
        [v] = reisner_triangular(7, [F3])
        assert v.witnesses == (Witness("delta(7)", "homology", 1, 1),)

    @pytest.fixture
    def no_faces(self, monkeypatch):
        """Fails the test if a complex or a face list is built."""

        def refuse(*args):
            raise AssertionError("built the faces of a complex")

        monkeypatch.setattr(complexes, "independence_complex", refuse)
        monkeypatch.setattr(graphs, "independent_sets", refuse)

    def test_scans_past_a_failed_field(self, monkeypatch, no_faces):
        # F_3 fails at D(7); the scan goes on to D(9) over Q alone
        seen = []
        real = homology.independence_betti_table
        monkeypatch.setattr(
            homology,
            "independence_betti_table",
            lambda g, fields: seen.append(list(fields)) or real(g, fields),
        )
        assert reisner_triangular(9, [F3, QQ]) == [
            CmVerdict(NOT_CM, F3, (Witness("delta(7)", "homology", 1, 1),), "reisner-parity"),
            CmVerdict(NOT_CM, QQ, (Witness("delta(9)", "homology", 2, 42),), "reisner-parity"),
        ]
        assert seen == [[F3, QQ]] * 3 + [[QQ]]

    @pytest.mark.parametrize("p,calls", [(1000003, 0), (2, 1), (3, 1)])
    def test_mod_p_ranks_only_where_z_flags(self, monkeypatch, no_faces, p, calls):
        # next to Q a prime reuses the rank over Z of every Morse matrix
        # whose elimination over Z it does not flag, and is eliminated mod
        # p once for each matrix it does flag: over F_3 that is the one
        # Morse matrix of D(7) (bad 3), over F_2 the one of D(9) (bad 6)
        field = FieldSpec(p)
        asked, mod_p = [], []
        real_table, real_rank = homology.independence_betti_table, homology.rank

        def spy_table(g, fields):
            asked.append((g, list(fields)))
            return real_table(g, fields)

        def spy_rank(m, f=QQ):
            if f.characteristic:
                mod_p.append((f, m.row_count, m.col_count))
            return real_rank(m, f)

        monkeypatch.setattr(homology, "independence_betti_table", spy_table)
        monkeypatch.setattr(homology, "rank", spy_rank)
        verdicts = reisner_triangular(9, [QQ, field])
        assert [(g.vertex_count, fields) for g, fields in asked] == [
            (3, [QQ, field]),
            (10, [QQ, field]),
            (21, [QQ, field]),
            (36, [QQ] if p == 3 else [QQ, field]),
        ]
        monkeypatch.setattr(homology, "rank", real_rank)
        flagged, bads = [], []
        for g, fields in asked:
            for m in homology._morse_complex(g)[1]:
                bad = homology._eliminate(homology._rows(m, 0), 0)[1]
                bads.append(bad)
                if field in fields and bad % p == 0:
                    flagged.append((field, m.row_count, m.col_count))
        assert [b for b in bads if b > 1] == [3, 6]
        assert mod_p == flagged
        assert len(mod_p) == calls
        monkeypatch.undo()
        assert verdicts == reisner_triangular(9, [QQ]) + reisner_triangular(9, [field])

    @pytest.mark.parametrize("n", range(2, 10))
    def test_agrees_with_full_check(self, n):
        g = graphs.triangular(n)
        verdicts = reisner_check(g, [QQ, F3], f"delta({n})")
        assert [(v.field, v.status) for v in verdicts] == [
            (v.field, v.status) for v in reisner_triangular(n, [QQ, F3])
        ]

    def test_same_parity_monotone(self):
        # once NOT_CM at some n, all larger same-parity n stay NOT_CM
        for parity_start in (2, 3):
            failed = False
            for n in range(parity_start, 12, 2):
                [v] = reisner_triangular(n, [QQ])
                s = v.status
                if failed:
                    assert s == NOT_CM
                failed = failed or s == NOT_CM

    def test_invalid(self):
        with pytest.raises(ValueError):
            reisner_triangular(1, [QQ])


class TestClassify:
    @pytest.mark.parametrize(
        "n,status",
        [(2, CM), (3, CM), (4, NOT_CM), (5, CM), (6, NOT_CM), (7, CM),
         (8, NOT_CM), (9, NOT_CM), (10, NOT_CM), (11, NOT_CM), (12, NOT_CM)],
    )
    def test_char0(self, n, status):
        assert [v.status for v in classify_triangular(n, [QQ])] == [status]

    @pytest.mark.parametrize("n", range(2, 12))
    def test_full_agrees_with_fast(self, n):
        [fast] = classify_triangular(n, [QQ])
        [full] = classify_triangular(n, [QQ], force_full=True)
        assert fast.status == full.status

    @pytest.mark.parametrize("force_full", [False, True], ids=["fast", "full"])
    @pytest.mark.parametrize("n", range(2, 13))
    def test_field_list_equals_per_field_calls(self, n, force_full):
        fields = [QQ, F2, F3]
        assert classify_triangular(n, fields, force_full=force_full) == [
            v for f in fields for v in classify_triangular(n, [f], force_full=force_full)
        ]

    @pytest.mark.parametrize(
        "n, field, most, method, witness",
        [
            (9, QQ, 4, "reisner-parity", Witness("delta(9)", "homology", 2, 42)),
            (9, F3, 4, "reisner-parity", Witness("delta(7)", "homology", 1, 1)),
            (12, QQ, 0, "h-screen", Witness("delta(12)", "h-vector", 5, -5616)),
        ],
    )
    def test_full_route_builds_few_complexes(self, monkeypatch, n, field, most, method, witness):
        # the full route's h-screen reads the graph's independence profile,
        # and for n in {7, 9} it reuses the fast route's parity check
        builds = []
        real = complexes.independence_complex
        monkeypatch.setattr(complexes, "independence_complex", lambda g: builds.append(g) or real(g))
        v = classify_triangular(n, [field], force_full=True)
        assert v == [CmVerdict(NOT_CM, field, (witness,), method)]
        assert len(builds) <= most

    def test_t11_full_method(self):
        [v] = classify_triangular(11, [QQ], force_full=True)
        assert v.method == "h-screen"
        assert v.witnesses[0].index == 5
        assert v.witnesses[0].value == -936

    def test_t7_field_dependence(self):
        assert [v.status for v in classify_triangular(7, [F2, F5, F3])] == [CM, CM, NOT_CM]

    def test_even_witness(self):
        [v] = classify_triangular(8, [QQ])
        assert v.witnesses == (Witness("delta(4)", "homology", 0, 2),)

    def test_invalid(self):
        with pytest.raises(ValueError):
            classify_triangular(1, [QQ])


class TestKrullDimension:
    @pytest.mark.parametrize(
        "n,d", [(2, 1), (3, 1), (4, 2), (5, 2), (7, 3), (9, 4), (11, 5)]
    )
    def test_triangular(self, n, d):
        assert graphs.independence_number(graphs.triangular(n)) == d

    def test_matches_complex_dim(self):
        for n in range(2, 10):
            c = triangular_complex(n)
            assert graphs.independence_number(graphs.triangular(n)) == c.dim + 1
