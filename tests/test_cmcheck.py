import itertools
import random

import pytest

from tricm import cmcheck, complexes, graphs, homology
from tricm.cmcheck import (
    CM,
    NOT_CM,
    CmVerdict,
    Witness,
    classify_complex,
    classify_triangular,
    h_screen,
    krull_dimension,
    reisner_check,
    reisner_triangular,
)
from tricm.complexes import from_faces, triangular_complex
from tricm.homology import QQ, FieldSpec

F2, F3, F5 = FieldSpec(2), FieldSpec(3), FieldSpec(5)


def naive_reisner(c, field, name="complex"):
    """Oracle: (status, witnesses) of Reisner's criterion, with every link
    built from its definition and its Betti table computed, in
    all_faces() order, without deduplication or cone shortcuts."""
    faces = c.all_faces()
    face_sets = {frozenset(h) for h in faces}
    for f in faces:
        lk = [g for g in faces if not set(f) & set(g) and frozenset(f + g) in face_sets]
        lk = from_faces(c.vertex_count, lk)
        dims = homology.reduced_betti_table(lk, field).dims
        for i, b in enumerate(dims[: lk.dim + 1], start=-1):
            if b:
                return NOT_CM, (Witness(f"lk({name}, {f})", "homology", i, b),)
    return CM, ()


def random_graph(rng):
    n = rng.randint(5, 8)
    pairs = list(itertools.combinations(range(n), 2))
    return graphs.Graph(n, tuple(p for p in pairs if rng.random() < 0.35))


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
        c = from_faces(4, [(0,), (1,), (2,), (3,)], close=True)
        assert reisner_check(c, QQ).status == CM

    def test_t4_disconnected(self):
        v = reisner_check(triangular_complex(4), QQ)
        assert v.status == NOT_CM
        w = v.witnesses[0]
        assert (w.kind, w.index, w.value) == ("homology", 0, 2)

    def test_t5_cm(self):
        v = reisner_check(triangular_complex(5), QQ)
        assert v.status == CM
        assert v.method == "connectivity"

    def test_t7_char0(self):
        assert reisner_check(triangular_complex(7), QQ).status == CM

    def test_t7_char3(self):
        v = reisner_check(triangular_complex(7), F3)
        assert v.status == NOT_CM
        w = v.witnesses[0]
        assert (w.kind, w.index, w.value) == ("homology", 1, 1)

    def test_t9_char0(self):
        v = reisner_check(triangular_complex(9), QQ)
        assert v.status == NOT_CM
        w = v.witnesses[0]
        assert (w.kind, w.index, w.value) == ("homology", 2, 42)

    def test_void_rejected(self):
        with pytest.raises(ValueError):
            reisner_check(complexes.VOID, QQ)

    def test_cone_over_disjoint_edges(self):
        # the whole complex is a cone with apex 4, its apex link is not
        c = from_faces(5, [(0, 1, 4), (2, 3, 4)], close=True)
        v = reisner_check(c, QQ)
        assert v.status == NOT_CM
        assert v.witnesses == (Witness("lk(complex, (4,))", "homology", 0, 1),)

    def test_seven_face_link_is_not_a_cone(self):
        # lk((4,)) is the path 0-1-2 plus the vertex 3: 7 faces, vertex 1
        # in 3 = 7 // 2 of them, and no cone
        c = from_faces(5, [(0, 1, 4), (1, 2, 4), (3, 4)], close=True)
        v = reisner_check(c, QQ)
        assert v.witnesses == (Witness("lk(complex, (4,))", "homology", 0, 1),)

    def test_links_with_equal_f_vectors_are_not_merged(self):
        # lk((0,)) is the path 1-4-5-3 and lk((5,)) the cycle 0-3-4 plus the
        # vertex 2: both have f = (1, 4, 3), only the second is disconnected
        c = from_faces(6, [(0, 1, 4), (0, 3, 5), (0, 4, 5), (2, 5), (3, 4, 5)], close=True)
        v = reisner_check(c, QQ)
        assert v.witnesses == (Witness("lk(complex, (5,))", "homology", 0, 1),)

    def test_first_link_that_is_not_a_cone(self):
        # every link of positive dimension before lk((4, 5)) is a cone;
        # lk((4, 5)) is not, and it has two components
        g = graphs.Graph(7, ((0, 1), (0, 2), (0, 3), (0, 6), (1, 6), (2, 3)))
        v = classify_complex(complexes.independence_complex(g), QQ, name="delta_G")
        assert v.status == NOT_CM
        assert v.witnesses == (Witness("lk(delta_G, (4, 5))", "homology", 0, 1),)

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_naive_check(self, seed):
        rng = random.Random(seed)
        for _ in range(25):
            c = complexes.independence_complex(random_graph(rng))
            for field in (QQ, F2):
                v = reisner_check(c, field, name="delta_G")
                assert (v.status, v.witnesses) == naive_reisner(c, field, name="delta_G")


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
        assert reisner_triangular(n, field).status == status

    def test_t9_witness(self):
        v = reisner_triangular(9, QQ)
        assert v.witnesses == (Witness("delta(9)", "homology", 2, 42),)

    def test_t7_char3_witness(self):
        v = reisner_triangular(7, F3)
        assert v.witnesses == (Witness("delta(7)", "homology", 1, 1),)

    @pytest.mark.parametrize("n", range(2, 10))
    def test_agrees_with_full_check(self, n):
        c = triangular_complex(n)
        for field in (QQ, F3):
            assert (
                reisner_triangular(n, field).status
                == reisner_check(c, field, f"delta({n})").status
            )

    def test_same_parity_monotone(self):
        # once NOT_CM at some n, all larger same-parity n stay NOT_CM
        for parity_start in (2, 3):
            failed = False
            for n in range(parity_start, 12, 2):
                s = reisner_triangular(n, QQ).status
                if failed:
                    assert s == NOT_CM
                failed = failed or s == NOT_CM

    def test_invalid(self):
        with pytest.raises(ValueError):
            reisner_triangular(1, QQ)


class TestClassify:
    @pytest.mark.parametrize(
        "n,status",
        [(2, CM), (3, CM), (4, NOT_CM), (5, CM), (6, NOT_CM), (7, CM),
         (8, NOT_CM), (9, NOT_CM), (10, NOT_CM), (11, NOT_CM), (12, NOT_CM)],
    )
    def test_char0(self, n, status):
        assert classify_triangular(n, QQ).status == status

    @pytest.mark.parametrize("n", range(2, 12))
    def test_full_agrees_with_fast(self, n):
        fast = classify_triangular(n, QQ)
        full = classify_triangular(n, QQ, force_full=True)
        assert fast.status == full.status

    def test_t11_full_method(self):
        v = classify_triangular(11, QQ, force_full=True)
        assert v.method == "h-screen"
        assert v.witnesses[0].index == 5
        assert v.witnesses[0].value == -936

    def test_t7_field_dependence(self):
        assert classify_triangular(7, F2).status == CM
        assert classify_triangular(7, F5).status == CM
        assert classify_triangular(7, F3).status == NOT_CM

    def test_even_witness(self):
        v = classify_triangular(8, QQ)
        assert v.witnesses == (Witness("delta(4)", "homology", 0, 2),)

    def test_invalid(self):
        with pytest.raises(ValueError):
            classify_triangular(1, QQ)


class TestKrullDimension:
    @pytest.mark.parametrize(
        "n,d", [(2, 1), (3, 1), (4, 2), (5, 2), (7, 3), (9, 4), (11, 5)]
    )
    def test_triangular(self, n, d):
        assert krull_dimension(graphs.triangular(n)).value == d

    def test_matches_complex_dim(self):
        for n in range(2, 10):
            c = triangular_complex(n)
            assert krull_dimension(graphs.triangular(n)).value == c.dim + 1
