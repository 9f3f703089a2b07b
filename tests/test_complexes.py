import itertools
import math

import pytest

from tricm import complexes, graphs
from tricm.complexes import (
    FVector,
    SimplicialComplex,
    VOID,
    deserialize,
    f_vector,
    from_faces,
    h_vector,
    independence_complex,
    link,
    restrict_relabel,
    triangular_f_closed,
)

from oracles import (
    closure,
    complete,
    component_count,
    link_triangular_witness,
    relabel,
    serialize,
    triangular_complex,
)


def brute_h(f_entries):
    """Oracle: evaluate the binomial transform definition directly."""
    d = len(f_entries) - 2
    return tuple(
        sum(
            (-1) ** (k - i) * math.comb(d + 1 - i, k - i) * f_entries[i]
            for i in range(k + 1)
        )
        for k in range(d + 2)
    )


def brute_matching_counts(n):
    """Oracle: count matchings of K_n per size by depth-first search over
    the pair list, independent of the graphs module."""
    pairs = list(itertools.combinations(range(n), 2))
    out = [0] * (n // 2 + 1)
    out[0] = 1

    def walk(start, used, size):
        for k in range(start, len(pairs)):
            a, b = pairs[k]
            if not (used >> a & 1) and not (used >> b & 1):
                out[size + 1] += 1
                walk(k + 1, used | 1 << a | 1 << b, size + 1)

    walk(0, 0, 0)
    return out


def brute_link(c, f):
    """Oracle: the link by its definition, an O(F^2) loop over pairs of
    faces; faces in all_faces() order."""
    f = set(f)
    faces = c.all_faces()
    return [g for g in faces if not f & set(g) and any(set(h) == f | set(g) for h in faces)]


# the boundary of a tetrahedron plus a pendant edge: not a flag complex
TETRA_BOUNDARY_PLUS_EDGE = from_faces(
    5, closure([(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3), (3, 4)])
)
# a triangle, an edge on one of its vertices and an isolated vertex
NON_PURE = from_faces(5, closure([(0, 1, 2), (2, 3), (4,)]))


class TestComplexType:
    def test_void_vs_empty(self):
        assert VOID.is_void
        assert not complexes.EMPTY_ONLY.is_void
        assert complexes.EMPTY_ONLY.dim == -1
        with pytest.raises(ValueError):
            VOID.dim

    def test_face_masks_built_on_first_use(self):
        c = triangular_complex(6)
        assert "face_masks" not in vars(c)
        assert list(c.face_masks.values()) == c.all_faces()
        assert c.face_masks is c.face_masks

    def test_closure_validation(self):
        with pytest.raises(ValueError):
            from_faces(3, [(), (0, 1)])  # missing vertices

    @pytest.mark.parametrize("faces", [
        [(), (0,), (3,)],  # vertex == vertex_count
        [(), (0,), (7,), (0, 7)],
        [(), (-1,), (0,), (-1, 0)],
    ])
    def test_vertex_out_of_range(self, faces):
        with pytest.raises(ValueError, match="out of range"):
            from_faces(3, faces)
        with pytest.raises(ValueError, match="out of range"):
            from_faces(3, closure(faces[-1:]))

    def test_repeated_vertex(self):
        with pytest.raises(ValueError, match="repeats a vertex"):
            from_faces(3, [(), (0,), (1,), (0, 0)])

    def test_faces_sorted_whatever_the_input_order(self):
        c = from_faces(4, [(), (3,), (1,), (0,), (2,), (3, 1), (2, 0), (1, 0)])
        assert c.faces_by_dim == (((0,), (1,), (2,), (3,)), ((0, 1), (0, 2), (1, 3)))

    def test_closure_generation(self):
        c = from_faces(3, closure([(0, 1, 2)]))
        assert c.face_counts() == (3, 3, 1)

    def test_has_face(self):
        c = from_faces(3, closure([(0, 1)]))
        assert c.has_face(())
        assert c.has_face((1, 0))
        assert not c.has_face((2,))
        assert not c.has_face((0, 0))
        assert not c.has_face((-1,))


class TestIndependenceComplex:
    def test_t4(self):
        c = independence_complex(graphs.triangular(4))
        assert c.dim == 1
        assert c.face_counts() == (6, 3)

    def test_complete(self):
        c = independence_complex(complete(5))
        assert c.dim == 0
        assert c.face_counts() == (5,)

    def test_t11_face_counts(self):
        c = triangular_complex(11)
        assert c.face_counts() == (55, 990, 6930, 17325, 10395)

    def test_void_below_2(self):
        assert triangular_complex(1).is_void
        assert triangular_complex(0).is_void


class TestFVector:
    def test_t11(self):
        c = triangular_complex(11)
        assert f_vector(c).entries == (1, 55, 990, 6930, 17325, 10395)

    def test_t4(self):
        assert f_vector(triangular_complex(4)).entries == (1, 6, 3)

    def test_point(self):
        c = from_faces(1, closure([(0,)]))
        assert f_vector(c).entries == (1, 1)

    def test_void_rejected(self):
        with pytest.raises(ValueError):
            f_vector(VOID)


class TestHVector:
    def test_t11(self):
        h = h_vector(f_vector(triangular_complex(11)))
        assert h.entries == (1, 50, 780, 4280, 6220, -936)

    def test_t5(self):
        f = FVector((1, 10, 15))
        assert h_vector(f).entries == (1, 8, 6)

    def test_point(self):
        assert h_vector(FVector((1, 1))).entries == (1, 0)

    def test_matches_binomial_oracle(self):
        for n in range(2, 10):
            f = triangular_f_closed(n)
            assert h_vector(f).entries == brute_h(f.entries)

    def test_sum_is_top_face_count(self):
        for n in range(2, 10):
            f = triangular_f_closed(n)
            assert sum(h_vector(f).entries) == f.entries[-1]


class TestClosedForm:
    def test_known_values(self):
        assert triangular_f_closed(11).entries == (1, 55, 990, 6930, 17325, 10395)
        assert triangular_f_closed(9).entries == (1, 36, 378, 1260, 945)
        assert triangular_f_closed(2).entries == (1, 1)

    @pytest.mark.parametrize("n", range(2, 10))
    def test_matches_enumeration(self, n):
        assert triangular_f_closed(n).entries == f_vector(triangular_complex(n)).entries

    @pytest.mark.parametrize("n", range(2, 9))
    def test_matches_matching_oracle(self, n):
        counts = brute_matching_counts(n)
        assert tuple(counts) == triangular_f_closed(n).entries

    def test_invalid(self):
        with pytest.raises(ValueError):
            triangular_f_closed(1)


class TestLink:
    def test_link_of_empty_is_identity(self):
        c = triangular_complex(5)
        assert link(c, ()).faces_by_dim == c.faces_by_dim

    def test_link_vertex_of_t7(self):
        c = triangular_complex(7)
        lk = link(c, (0,))
        assert f_vector(lk).entries[1:] == (10, 15)  # the D(5) profile

    def test_link_of_facet(self):
        c = triangular_complex(4)
        facet = c.faces_by_dim[1][0]
        lk = link(c, facet)
        assert lk.dim == -1 and lk.has_empty_face

    def test_nonface_rejected(self):
        c = triangular_complex(4)
        with pytest.raises(ValueError):
            link(c, (0, 1))  # (12) and (13) intersect

    @pytest.mark.parametrize("f", [(0, 0), (1, 1)])
    def test_repeated_vertex_rejected(self, f):
        with pytest.raises(ValueError):
            link(triangular_complex(4), f)

    def test_void_rejected(self):
        with pytest.raises(ValueError):
            link(VOID, ())

    def test_link_is_closed(self):
        c = triangular_complex(6)
        for f in c.all_faces():
            faces = set(link(c, f).all_faces())
            for g in faces:
                for k in range(len(g)):
                    assert g[:k] + g[k + 1 :] in faces

    @pytest.mark.parametrize(
        "c",
        [triangular_complex(6), TETRA_BOUNDARY_PLUS_EDGE, NON_PURE, complexes.EMPTY_ONLY],
        ids=["D(6)", "non-flag", "non-pure", "empty-face-only"],
    )
    def test_matches_definition(self, c):
        for f in c.all_faces():
            lk = link(c, f)
            assert lk.vertex_count == c.vertex_count
            assert lk.all_faces() == brute_link(c, f)


class TestLinkWitness:
    def test_t5_vertex(self):
        mapping = link_triangular_witness(5, (0,))
        c = triangular_complex(5)
        lk, _ = restrict_relabel(link(c, (0,)))
        target = triangular_complex(3)
        assert lk.face_counts() == target.face_counts() == (3,)
        relabeled = relabel(link(c, (0,)), mapping, 3)
        assert relabeled.faces_by_dim == target.faces_by_dim

    def test_t9_two_face(self):
        c = triangular_complex(9)
        f = c.faces_by_dim[1][0]
        mapping = link_triangular_witness(9, f)
        relabeled = relabel(link(c, f), mapping, 10)
        target = triangular_complex(5)
        assert relabeled.faces_by_dim == target.faces_by_dim

    def test_facet_gives_empty_complex(self):
        c = triangular_complex(4)
        facet = c.faces_by_dim[1][0]
        mapping = link_triangular_witness(4, facet)
        assert mapping == {}
        lk = link(c, facet)
        assert lk.dim == -1

    @pytest.mark.parametrize("n", range(2, 8))
    def test_all_faces(self, n):
        c = triangular_complex(n)
        for f in c.all_faces():
            m = len(f)
            mapping = link_triangular_witness(n, f)
            lk = link(c, f)
            target = triangular_complex(n - 2 * m)
            if target.is_void:
                # a facet (or near-facet) link is just {∅}
                assert lk.dim == -1
                continue
            relabeled = relabel(lk, mapping, target.vertex_count)
            assert relabeled.faces_by_dim == target.faces_by_dim

    def test_nonface_rejected(self):
        with pytest.raises(ValueError):
            link_triangular_witness(4, (0, 1))


class TestConnectivity:
    def test_t5_connected(self):
        assert component_count(triangular_complex(5)) == 1

    def test_t5_hamiltonian_path_witness(self):
        # an explicit path through all ten vertices: consecutive pairs
        # must be disjoint 2-subsets, i.e. edges of the complex
        path = [(1, 2), (3, 4), (2, 5), (1, 4), (3, 5),
                (2, 4), (1, 3), (4, 5), (2, 3), (1, 5)]
        assert sorted(path) == list(itertools.combinations(range(1, 6), 2))
        for a, b in zip(path, path[1:]):
            assert not set(a) & set(b)

    def test_t4_disconnected(self):
        c = triangular_complex(4)
        assert component_count(c) != 1
        assert component_count(c) == 3

    def test_point(self):
        assert component_count(from_faces(1, closure([(0,)]))) == 1

    def test_void_rejected(self):
        with pytest.raises(ValueError):
            component_count(VOID)


class TestSerialization:
    def test_round_trip(self):
        for c in (
            triangular_complex(4),
            triangular_complex(5),
            complexes.EMPTY_ONLY,
            from_faces(3, closure([(0, 1, 2)])),
        ):
            c2 = deserialize(serialize(c))
            assert c2.faces_by_dim == c.faces_by_dim
            assert c2.has_empty_face == c.has_empty_face

    def test_void(self):
        assert deserialize(serialize(VOID)).is_void

    def test_indented_comment(self):
        c = deserialize("  # edge\ndim 1 vertices 2\n0\n1\n\t# the edge\n0 1\n")
        assert c.faces_by_dim == (((0,), (1,)), ((0, 1),))

    def test_bad_header(self):
        with pytest.raises(ValueError):
            deserialize("vertices 3 dim 1\n")

    def test_dim_mismatch(self):
        with pytest.raises(ValueError):
            deserialize("dim 2 vertices 3\n0 1\n")

    def test_faces_under_void_header(self):
        # the void complex has no faces, so a face line contradicts dim -2
        with pytest.raises(ValueError, match="header dim -2 != actual dim 0"):
            deserialize("dim -2 vertices 4\n0\n")

    def test_negative_vertex_count(self):
        with pytest.raises(ValueError, match="negative vertex count"):
            deserialize("dim -1 vertices -3\n")
