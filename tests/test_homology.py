import inspect
import itertools
import random
import sys
from fractions import Fraction
from math import isqrt

import numpy as np
import pytest

from tricm import complexes, graphs, homology
from tricm.complexes import from_faces
from tricm.homology import (
    QQ,
    FieldSpec,
    SparseMatrix,
    boundary_matrix,
    independence_betti_table,
    rank,
    reduced_betti_table,
)

from oracles import (
    acyclic_matching,
    closure,
    component_count,
    rank_mod_p,
    relabel,
    to_dense,
    triangular_complex,
)


def fraction_rank(dense):
    """Oracle: plain Gaussian elimination with exact fractions."""
    a = [[Fraction(x) for x in row] for row in dense]
    m = len(a)
    n = len(a[0]) if m else 0
    r = 0
    for c in range(n):
        piv = next((i for i in range(r, m) if a[i][c] != 0), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        a[r] = [x / a[r][c] for x in a[r]]
        for i in range(m):
            if i != r and a[i][c] != 0:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        r += 1
    return r


def naive_rank_mod_p(dense, p):
    """Oracle: textbook elimination over F_p, scalar loops."""
    a = [[x % p for x in row] for row in dense]
    m = len(a)
    n = len(a[0]) if m else 0
    r = 0
    for c in range(n):
        piv = next((i for i in range(r, m) if a[i][c]), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        inv = pow(a[r][c], p - 2, p)
        a[r] = [x * inv % p for x in a[r]]
        for i in range(m):
            if i != r and a[i][c]:
                f = a[i][c]
                a[i] = [(x - f * y) % p for x, y in zip(a[i], a[r])]
        r += 1
    return r


def random_dense(rng, rows, cols, density, values=(-3, -2, -1, 1, 2, 3)):
    return [
        [rng.choice(values) if rng.random() < density else 0 for _ in range(cols)]
        for _ in range(rows)
    ]


def dependent_dense(rng, rows, cols, rank, density):
    """Rows a*u + b*v of `rank` random sparse +-1 rows u, v, with a = +-1
    and b = +-2, so entries stay in -3..3 and the rank over Q is at most
    `rank`: a pivot whose multiplier is wrong leaves a row that should
    have cancelled."""
    base = random_dense(rng, rank, cols, density, values=(-1, 1))
    out = []
    for _ in range(rows):
        u, v = rng.sample(base, 2)
        a, b = rng.choice((-1, 1)), rng.choice((-2, 2))
        out.append([a * x + b * y for x, y in zip(u, v)])
    return out


def sparse_of(dense):
    entries = tuple((r, c, v) for r, row in enumerate(dense) for c, v in enumerate(row) if v)
    return SparseMatrix(len(dense), len(dense[0]), entries)


def transpose(m):
    return SparseMatrix(m.col_count, m.row_count, tuple((c, r, v) for r, c, v in m.entries))


def whiskered(g):
    """g plus a pendant vertex v + n on each vertex v."""
    n = g.vertex_count
    return graphs.Graph(2 * n, g.edges + tuple((v, v + n) for v in range(n)))


def euler_characteristic(c):
    f = complexes.f_vector(c).entries
    return sum((-1) ** i * f[i + 1] for i in range(-1, len(f) - 1))


class TestFieldSpec:
    def test_valid(self):
        FieldSpec(0)
        FieldSpec(2)
        FieldSpec(1000003)

    @pytest.mark.parametrize("bad", [1, 4, -3, 9, 2**31])
    def test_invalid(self, bad):
        with pytest.raises(ValueError):
            FieldSpec(bad)

    def test_primality_matches_a_sieve(self):
        n = 10**5
        sieve = bytearray([0, 0]) + bytearray([1]) * (n - 2)
        for q in range(2, isqrt(n) + 1):
            if sieve[q]:
                sieve[q * q :: q] = bytes(len(range(q * q, n, q)))
        assert [k for k in range(n) if homology._is_prime(k)] == [k for k in range(n) if sieve[k]]

    def test_largest_characteristic(self):
        assert homology._is_prime(2**31 - 1)
        assert FieldSpec(2**31 - 1).characteristic == 2**31 - 1

    # strong pseudoprimes to the bases 2; 2 and 3; 2, 3 and 5
    @pytest.mark.parametrize("n", [2047, 1_373_653, 25_326_001])
    def test_strong_pseudoprimes(self, n):
        assert not homology._is_prime(n)
        message = rf"^characteristic must be 0 or a prime < 2\^31, got {n}$"
        with pytest.raises(ValueError, match=message):
            FieldSpec(n)


class TestSparseMatrix:
    def test_validation(self):
        with pytest.raises(ValueError):
            SparseMatrix(1, 1, ((0, 0, 1), (0, 0, 2)))
        with pytest.raises(ValueError):
            SparseMatrix(1, 1, ((0, 0, 0),))
        with pytest.raises(ValueError):
            SparseMatrix(1, 1, ((1, 0, 1),))

    def test_out_of_range(self):
        for r, c in ((2, 0), (0, 3), (-1, 0), (0, -1)):
            with pytest.raises(ValueError, match=rf"^entry \({r},{c}\) out of range$"):
                SparseMatrix(2, 3, ((0, 0, 1), (r, c, 1), (1, 2, 1)))

    def test_explicit_zero(self):
        with pytest.raises(ValueError, match="^explicit zero entry$"):
            SparseMatrix(2, 3, ((0, 0, 1), (1, 2, 0)))

    def test_duplicate(self):
        with pytest.raises(ValueError, match=r"^duplicate entry at \(1,2\)$"):
            SparseMatrix(2, 3, ((1, 2, 1), (0, 0, 1), (1, 2, -1)))

    def test_names_the_first_offending_entry(self):
        # an explicit zero before a duplicate and an out-of-range entry
        with pytest.raises(ValueError, match="^explicit zero entry$"):
            SparseMatrix(2, 3, ((0, 0, 1), (0, 1, 0), (0, 0, 1), (5, 5, 1)))
        # a duplicate before an out-of-range entry
        with pytest.raises(ValueError, match=r"^duplicate entry at \(0,0\)$"):
            SparseMatrix(2, 3, ((0, 0, 1), (0, 0, 1), (5, 5, 1)))

    def test_every_cell_in_any_order(self):
        # every position of a non-square matrix: no two share a key
        cells = [(r, c) for r in range(4) for c in range(5)]
        random.Random(3).shuffle(cells)
        m = SparseMatrix(4, 5, tuple((r, c, 1) for r, c in cells))
        assert len(m.entries) == 20
        assert SparseMatrix(4, 5, ()).entries == ()


class TestBoundaryMatrix:
    def test_augmentation(self):
        c = from_faces(3, [(0,), (1,), (2,), ()])
        m = boundary_matrix(c, 0)
        assert (m.row_count, m.col_count) == (1, 3)
        assert all(v == 1 for _, _, v in m.entries)

    def test_d1_of_t4(self):
        c = triangular_complex(4)
        m = boundary_matrix(c, 1)
        assert (m.row_count, m.col_count) == (6, 3)
        cols = {}
        for r, cc, v in m.entries:
            cols.setdefault(cc, []).append(v)
        assert all(sorted(vs) == [-1, 1] for vs in cols.values())

    def test_d2_of_t7_shape(self):
        c = triangular_complex(7)
        m = boundary_matrix(c, 2)
        assert (m.row_count, m.col_count) == (105, 105)

    def test_out_of_range(self):
        c = triangular_complex(4)
        m = boundary_matrix(c, 5)
        assert m.col_count == 0 and not m.entries
        m = boundary_matrix(c, -1)
        assert (m.row_count, m.col_count) == (0, 1)

    def test_void_rejected(self):
        with pytest.raises(ValueError):
            boundary_matrix(complexes.VOID, 0)

    @pytest.mark.parametrize("n", range(2, 9))
    def test_dd_zero(self, n):
        c = triangular_complex(n)
        for i in range(0, c.dim + 1):
            a = to_dense(boundary_matrix(c, i))
            b = to_dense(boundary_matrix(c, i + 1))
            if a.size and b.size:
                assert np.abs(a @ b).max() == 0


class TestRank:
    def test_zero_matrix(self):
        assert rank(SparseMatrix(4, 5, ()), QQ) == 0

    def test_d1_t4(self):
        m = boundary_matrix(triangular_complex(4), 1)
        assert rank(m, QQ) == 3
        assert rank(m, FieldSpec(2)) == 3

    def test_augmentation(self):
        m = boundary_matrix(triangular_complex(5), 0)
        assert rank(m, QQ) == 1

    def test_random_against_oracles(self):
        rng = random.Random(7)
        for _ in range(25):
            rows = rng.randint(1, 8)
            cols = rng.randint(1, 8)
            dense = [
                [rng.randint(-4, 4) for _ in range(cols)] for _ in range(rows)
            ]
            entries = tuple(
                (r, c, v)
                for r, row in enumerate(dense)
                for c, v in enumerate(row)
                if v
            )
            m = SparseMatrix(rows, cols, entries)
            assert rank(m, QQ) == fraction_rank(dense)
            for p in (2, 3, 97):
                assert rank(m, FieldSpec(p)) == naive_rank_mod_p(dense, p)

    def test_modp_le_rational(self):
        for n in range(4, 9):
            c = triangular_complex(n)
            for i in range(0, c.dim + 2):
                m = boundary_matrix(c, i)
                rq = rank(m, QQ)
                for p in (2, 3, 5):
                    assert rank(m, FieldSpec(p)) <= rq


class TestBettiTables:
    def test_t4(self):
        t = reduced_betti_table(triangular_complex(4), [QQ])[0]
        assert t.dims == (0, 2, 0)

    def test_t5(self):
        t = reduced_betti_table(triangular_complex(5), [QQ])[0]
        assert t.dims == (0, 0, 6)

    def test_t7_char0(self):
        t = reduced_betti_table(triangular_complex(7), [QQ])[0]
        assert t.dims == (0, 0, 0, 20)

    def test_t7_top_equals_h(self):
        # top homology of a connected-below complex matches the last
        # h-vector entry
        h = complexes.h_vector(complexes.triangular_f_closed(7))
        t = reduced_betti_table(triangular_complex(7), [QQ])[0]
        assert t.dims[-1] == h.entries[-1] == 20
        h5 = complexes.h_vector(complexes.triangular_f_closed(5))
        t5 = reduced_betti_table(triangular_complex(5), [QQ])[0]
        assert t5.dims[-1] == h5.entries[-1] == 6

    def test_t7_torsion_prime(self):
        # the matching complex on 7 symbols has 3-torsion in degree 1
        assert reduced_betti_table(triangular_complex(7), [FieldSpec(2)])[0].dims == (0, 0, 0, 20)
        assert reduced_betti_table(triangular_complex(7), [FieldSpec(5)])[0].dims == (0, 0, 0, 20)
        assert reduced_betti_table(triangular_complex(7), [FieldSpec(3)])[0].dims == (0, 0, 1, 21)

    def test_t9_char0(self):
        t = reduced_betti_table(triangular_complex(9), [QQ])[0]
        assert t.dims == (0, 0, 0, 42, 70)

    def test_t10_char0(self):
        # Bouc's prediction, `bouc_betti(10)` in test_acceptance
        t = reduced_betti_table(triangular_complex(10), [QQ])[0]
        assert t.dims == (0, 0, 0, 0, 1216, 0)

    def test_empty_only(self):
        t = reduced_betti_table(complexes.EMPTY_ONLY, [QQ])[0]
        assert t.dims == (1,)

    def test_void_convention(self):
        assert reduced_betti_table(complexes.VOID, [QQ])[0].dims == ()

    @pytest.mark.parametrize("char", [0, 2, 3])
    @pytest.mark.parametrize("n", range(2, 9))
    def test_euler_identity(self, n, char):
        c = triangular_complex(n)
        t = reduced_betti_table(c, [FieldSpec(char)])[0]
        alt = sum((-1) ** i * b for i, b in enumerate(t.dims, start=-1))
        assert alt == euler_characteristic(c)
        assert t.dims == _table_from_every_boundary(c, char)

    def test_relabel_invariance(self):
        rng = random.Random(11)
        c = triangular_complex(6)
        base = reduced_betti_table(c, [QQ])[0].dims
        for _ in range(3):
            perm = list(range(c.vertex_count))
            rng.shuffle(perm)
            mapping = dict(enumerate(perm))
            c2 = relabel(c, mapping, c.vertex_count)
            assert reduced_betti_table(c2, [QQ])[0].dims == base
            f3 = [FieldSpec(3)]
            assert reduced_betti_table(c2, f3)[0].dims == reduced_betti_table(c, f3)[0].dims

    @pytest.mark.parametrize("c", [
        triangular_complex(7),
        triangular_complex(9),
        complexes.independence_complex(
            whiskered(graphs.Graph(5, ((0, 1), (1, 2), (2, 3), (3, 4), (0, 4))))
        ),
        complexes.EMPTY_ONLY,
        from_faces(3, [(), (0,), (1,), (2,)]),
    ], ids=["delta7", "delta9", "whiskered-c5", "empty-only", "three-points"])
    def test_ranks_only_over_q(self, monkeypatch, c):
        # over Q every boundary rank is computed once, exactly: one
        # elimination over Z for each of d_1 .. d_dim, and no rank modulo
        # a prime is taken along the way.  The ranks of the augmentation
        # d_0 and of the zero map d_{dim+1} need no matrix, so a complex
        # of dimension <= 0 builds none.
        primes, eliminated, built = [], [], []
        real_rank, real_eliminate = homology.rank, homology._eliminate
        real_boundary = homology.boundary_matrix

        def spy_rank(m, field=QQ):
            if field.characteristic:
                primes.append(field)
            return real_rank(m, field)

        def spy_eliminate(rows, p):
            eliminated.append(p)
            return real_eliminate(rows, p)

        def spy_boundary(c, i):
            built.append(i)
            return real_boundary(c, i)

        monkeypatch.setattr(homology, "rank", spy_rank)
        monkeypatch.setattr(homology, "_eliminate", spy_eliminate)
        monkeypatch.setattr(homology, "boundary_matrix", spy_boundary)
        [t] = reduced_betti_table(c, [QQ])
        assert primes == []
        assert eliminated == [0] * c.dim
        assert built == list(range(1, c.dim + 1))
        alt = sum((-1) ** i * b for i, b in enumerate(t.dims, start=-1))
        assert alt == euler_characteristic(c)

    def test_flagged_prime_takes_the_mod_p_path(self, monkeypatch):
        # d_2 of D(7) has bad 3 over Z, so F_3 eliminates that map mod 3
        # and reuses the rank over Z of the others; F_2 reuses them all
        assert homology._eliminate({0: {0: 3}}, 0) == (1, 3)
        c = triangular_complex(7)
        bads = [_z_rank(boundary_matrix(c, i))[1] for i in range(c.dim + 2)]
        calls = []
        real = homology.rank

        def spy(m, field=QQ):
            calls.append((field, m.row_count, m.col_count))
            return real(m, field)

        monkeypatch.setattr(homology, "rank", spy)
        f2, f3 = FieldSpec(2), FieldSpec(3)
        tables = reduced_betti_table(c, [QQ, f2, f3])
        assert [(t.field, t.dims) for t in tables] == [
            (QQ, (0, 0, 0, 20)),
            (f2, (0, 0, 0, 20)),
            (f3, (0, 0, 1, 21)),
        ]
        flagged = [i for i, bad in enumerate(bads) if bad % 3 == 0]
        assert flagged == [2]
        assert calls == [(f3, 105, 105)]

    def test_sphere(self):
        # boundary of the 3-simplex: a 2-sphere
        faces = [f for f in closure([(0, 1, 2, 3)]) if len(f) < 4]
        c = from_faces(4, faces)
        assert reduced_betti_table(c, [QQ])[0].dims == (0, 0, 0, 1)
        assert reduced_betti_table(c, [FieldSpec(2)])[0].dims == (0, 0, 0, 1)


def one_dimensional_complexes():
    """D(4), D(5), Ind(C_5) and 30 seeded random graphs' Ind(g) of
    dimension 1 (independence number 2)."""
    cycle = graphs.Graph(5, ((0, 1), (1, 2), (2, 3), (3, 4), (0, 4)))
    out = [triangular_complex(4), triangular_complex(5), complexes.independence_complex(cycle)]
    rng = random.Random(5)
    while len(out) < 33:
        n = rng.randint(3, 9)
        edges = tuple(e for e in itertools.combinations(range(n), 2) if rng.random() < 0.6)
        g = graphs.Graph(n, edges)
        if graphs.independence_number(g) == 2:
            out.append(complexes.independence_complex(g))
    return out


@pytest.mark.parametrize("fields", [
    [QQ], [FieldSpec(2)], [FieldSpec(3), QQ, FieldSpec(3)],
], ids=["q", "f2", "f3-q-f3"])
def test_tables_of_dimension_at_most_zero(fields):
    # the rank of d_0 is known, 1 when there is a vertex, and d_{dim+1}
    # is zero: {∅} has H~_{-1} = 1 and k points have H~_0 = k - 1, over
    # every field.  A repeated field still gets its own table, in order.
    cases = [(complexes.EMPTY_ONLY, (1,))]
    for k in range(1, 5):
        cases.append((from_faces(k, [(), *((v,) for v in range(k))]), (0, k - 1)))
    for c, dims in cases:
        tables = reduced_betti_table(c, fields)
        assert [(t.field, t.dims) for t in tables] == [(f, dims) for f in fields]


@pytest.mark.parametrize("char", [0, 2, 3])
def test_h0_counts_components(char):
    # the union-find oracle against the boundary ranks: H~_0 + 1 is the
    # number of components, and H~_1 the cycle rank f_1 - f_0 + components;
    # alone the field is eliminated mod p, beside Q it reuses the Z rank
    f = FieldSpec(char)
    for c in one_dimensional_complexes():
        assert c.dim == 1
        k = component_count(c)
        f0, f1 = c.face_counts()
        dims = (0, k - 1, f1 - f0 + k)
        assert reduced_betti_table(c, [f])[0].dims == dims
        tables = reduced_betti_table(c, [f, QQ, f])
        assert [(t.field, t.dims) for t in tables] == [(f, dims), (QQ, dims), (f, dims)]


def union(*ns):
    """The disjoint union of T_n for n in ns, each relabelled after the
    ones before it; its independence complex is the join of the D(n)."""
    edges, shift = [], 0
    for n in ns:
        t = graphs.triangular(n)
        edges += [(u + shift, v + shift) for u, v in t.edges]
        shift += t.vertex_count
    return graphs.Graph(shift, tuple(edges))


def random_graph(rng, n, p):
    edges = tuple(e for e in itertools.combinations(range(n), 2) if rng.random() < p)
    return graphs.Graph(n, edges)


def join_dims(a, b):
    """Reduced Betti numbers of the join of two complexes over a field,
    from theirs (each indexed from -1): b~_{r+1}(A * B) is the sum of
    b~_i(A) b~_j(B) over i + j = r."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return tuple(out)


MORSE_FIELDS = [QQ, FieldSpec(2), FieldSpec(3), FieldSpec(5)]


class TestMorseTables:
    """`independence_betti_table`, from the Morse complex of the matching
    tree, against the tables of the boundary matrices and against theory."""

    @pytest.mark.parametrize("n", range(2, 11))
    def test_triangular(self, n):
        g = graphs.triangular(n)
        expected = reduced_betti_table(triangular_complex(n), MORSE_FIELDS)
        assert independence_betti_table(g, MORSE_FIELDS) == expected

    def test_random_graphs(self):
        rng = random.Random(26)
        for _ in range(1000):
            g = random_graph(rng, rng.randint(1, 13), rng.random())
            expected = reduced_betti_table(complexes.independence_complex(g), MORSE_FIELDS)
            assert independence_betti_table(g, MORSE_FIELDS) == expected, g

    def test_empty_graph(self):
        # Ind of the graph on no vertex is {∅}; its one cell ∅ is critical
        assert independence_betti_table(graphs.Graph(0, ()), [QQ])[0].dims == (1,)

    def test_join(self):
        # T_7 + T_7 has critical cells in three consecutive dimensions,
        # and its table is the join product of two tables of D(7)
        g = union(7, 7)
        assert homology._morse_complex(g)[0] == (0, 0, 0, 0, 9, 138, 529)
        for t, d7 in zip(independence_betti_table(g, MORSE_FIELDS),
                         independence_betti_table(graphs.triangular(7), MORSE_FIELDS)):
            assert t.dims == join_dims(d7.dims, d7.dims)

    def test_repeated_fields_keep_their_order(self):
        fields = [FieldSpec(3), QQ, FieldSpec(3)]
        tables = independence_betti_table(graphs.triangular(7), fields)
        assert [(t.field, t.dims) for t in tables] == [
            (fields[0], (0, 0, 1, 21)),
            (QQ, (0, 0, 0, 20)),
            (fields[2], (0, 0, 1, 21)),
        ]

    @pytest.fixture(scope="class")
    def morse_complexes(self):
        """(graph, its Morse complex) for D(2..10), three joins of D(n)s
        and 300 seeded random graphs."""
        rng = random.Random(27)
        gs = [graphs.triangular(n) for n in range(2, 11)]
        gs += [union(7, 7), union(7, 7, 3), union(7, 8)]
        gs += [random_graph(rng, rng.randint(1, 13), rng.random()) for _ in range(300)]
        return [(g, homology._morse_complex(g)) for g in gs]

    def test_boundary_of_boundary(self, morse_complexes):
        nonzero = 0
        for g, (cells, matrices) in morse_complexes:
            assert [(m.row_count, m.col_count) for m in matrices] == list(zip(cells, cells[1:]))
            for low, high in zip(matrices, matrices[1:]):
                assert not (to_dense(low) @ to_dense(high)).any(), g
                nonzero += bool(low.entries and high.entries)
        # the matching tree leaves critical cells in at most two adjacent
        # dimensions on each D(n) and random graph here; the joins have three
        assert nonzero == 3

    def test_euler_characteristic(self, morse_complexes):
        # sum (-1)^i c_i over the critical cells is the reduced Euler
        # characteristic sum (-1)^i f_i over the faces
        def alternating(xs):
            return sum((-1) ** k * x for k, x in enumerate(xs))

        for g, (cells, _) in morse_complexes:
            faces = graphs.independence_profile(g)[0]
            assert len(cells) == len(faces)
            assert alternating(cells) == alternating(faces), g

    def test_rows_that_vanish_mod_p_are_dropped(self):
        # the Morse matrix of D(10), 43 x 1259, goes to the elimination as
        # its transpose; 17 of those rows vanish mod 2 and 8 mod 3 but not
        # over Z, and `_eliminate` takes only nonzero rows, so they must
        # be dropped
        (m,) = [m for m in homology._morse_complex(graphs.triangular(10))[1] if m.entries]
        over_z = len(homology._rows(m, 0))
        assert [over_z - len(homology._rows(m, p)) for p in (2, 3, 5)] == [17, 8, 0]
        expected = reduced_betti_table(triangular_complex(10), [FieldSpec(2)])
        assert independence_betti_table(graphs.triangular(10), [FieldSpec(2)]) == expected

    def test_flow_needs_no_recursion(self):
        # the gradient paths of D(10) run deeper than 25 frames; Phi is
        # computed with an explicit stack, so a tight recursion limit holds
        g = graphs.triangular(10)
        expected = reduced_betti_table(triangular_complex(10), [QQ])
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(len(inspect.stack()) + 25)
        try:
            tables = independence_betti_table(g, [QQ])
        finally:
            sys.setrecursionlimit(limit)
        assert tables == expected


def face_masks(g):
    """The independent sets of g as bit masks, by size."""
    return [[sum(1 << v for v in s) for s in level] for level in graphs.independent_sets(g)]


class TestMatchingTree:
    """The matching of `_MatchingTree` against the faces of Ind(g)."""

    @pytest.fixture(scope="class")
    def trees(self):
        """(faces by size, tree) for T_2..T_6 and 200 seeded random graphs
        on at most 10 vertices."""
        rng = random.Random(28)
        gs = [graphs.triangular(n) for n in range(2, 7)]
        gs += [random_graph(rng, rng.randint(1, 10), rng.random()) for _ in range(200)]
        return [(face_masks(g), homology._MatchingTree(g)) for g in gs]

    def test_partner_is_an_involution(self, trees):
        for levels, tree in trees:
            faces = {f for level in levels for f in level}
            for f in faces:
                x = tree.partner(f)
                if x is not None:
                    assert f ^ 1 << x in faces
                    assert tree.partner(f ^ 1 << x) == x

    def test_critical_cells_are_the_unmatched_faces(self, trees):
        for levels, tree in trees:
            unmatched = [sorted(f for f in level if tree.partner(f) is None) for level in levels]
            assert tree.critical_cells(len(levels) - 1) == unmatched

    def test_matching_is_acyclic(self, trees):
        for levels, tree in trees:
            faces = [f for level in levels for f in level]
            up = {}
            for f in faces:
                x = tree.partner(f)
                if x is not None and not f >> x & 1:
                    up[f] = f | 1 << x
            assert acyclic_matching(faces, up)

    def test_acyclicity_oracle(self):
        # on the faces of the triangle {0, 1, 2}, pairing each vertex with
        # the next edge around it closes the gradient path 0 → 01 → 1 →
        # 12 → 2 → 02 → 0; leaving vertex 2 unpaired opens it
        faces = range(8)
        assert not acyclic_matching(faces, {0b001: 0b011, 0b010: 0b110, 0b100: 0b101})
        assert acyclic_matching(faces, {0b001: 0b011, 0b010: 0b110})

    @pytest.mark.parametrize("n, masks", [(9, 831), (11, 6848)])
    def test_each_rule_is_computed_once(self, monkeypatch, n, masks):
        # the tree keeps one node per free mask, so building the Morse
        # complex computes the rule of each free mask it reaches once
        seen = []
        move = homology._move

        def spy(neighbor_masks, free):
            seen.append(free)
            return move(neighbor_masks, free)

        monkeypatch.setattr(homology, "_move", spy)
        homology._morse_complex(graphs.triangular(n))
        assert len(seen) == len(set(seen)) == masks


def _table_from_every_boundary(c, char):
    """The reduced Betti numbers from the ranks of every d_i, 0 <= i <=
    dim + 1, each built as a matrix: over Q by `homology.rank`, over F_p
    by the dense oracle."""
    ranks = [0]  # d_{-1}
    for i in range(c.dim + 2):
        m = boundary_matrix(c, i)
        ranks.append(rank_mod_p(m, char) if char else rank(m, QQ))
    chain = (1, *c.face_counts())
    return tuple(chain[j] - ranks[j] - ranks[j + 1] for j in range(c.dim + 2))


def _z_rank(m):
    """(rank, bad) of the elimination over Z of m."""
    return homology._eliminate(homology._rows(m, 0), 0)


REUSE_PRIMES = (2, 3, 5, 7, 11, 13, 1000003)


class TestZRankReuse:
    """The rank over Z is the rank over F_p for every prime p that its
    elimination does not flag (bad % p != 0), against the dense oracle."""

    @staticmethod
    def reused(m) -> int:
        r, bad = _z_rank(m)
        primes = [p for p in REUSE_PRIMES if bad % p]
        for p in primes:
            assert r == rank_mod_p(m, p), (m, p, bad)
        return len(primes)

    def test_random_matrices(self):
        rng = random.Random(23)
        values = [v for v in range(-6, 7) if v]
        reused = flagged = 0
        for _ in range(2000):
            rows, cols = rng.randint(1, 9), rng.randint(1, 9)
            m = sparse_of(random_dense(rng, rows, cols, rng.random(), values))
            reused += self.reused(m)
            flagged += _z_rank(m)[1] > 1
        # neither side of the rule is vacuous
        assert reused > 7000 and flagged > 500

    @pytest.mark.parametrize("n", range(2, 11))
    def test_boundary_matrices(self, n):
        c = triangular_complex(n)
        assert sum(self.reused(boundary_matrix(c, i)) for i in range(c.dim + 2)) > 0

    @pytest.mark.parametrize("g", [graphs.triangular(n) for n in (7, 9, 10)] + [union(7, 7)],
                             ids=["delta7", "delta9", "delta10", "delta7*delta7"])
    def test_morse_matrices(self, g):
        # entries up to 45 in absolute value on D(10)
        assert sum(self.reused(m) for m in homology._morse_complex(g)[1]) > 0


PRIMES = (2, 3, 97, 2**31 - 1)  # 2^31 - 1: products of two entries near 2^62


class TestEliminationKernel:
    """The one sparse elimination against the oracles, on seeded random
    matrices with entries in -3..3, so that non-unit pivots occur."""

    @pytest.mark.parametrize(
        "seed,rows,cols,density",
        [
            (1, 20, 30, 0.3),
            (2, 40, 25, 0.6),
            (3, 60, 80, 0.1),
            (4, 100, 150, 0.03),
            (5, 150, 120, 0.01),
            (6, 150, 130, 0.02),
        ],
    )
    def test_stays_sparse(self, seed, rows, cols, density):
        dense = random_dense(random.Random(seed), rows, cols, density)
        m = sparse_of(dense)
        assert rank(m, QQ) == rank(transpose(m), QQ) == fraction_rank(dense)
        for p in PRIMES:
            expected = naive_rank_mod_p(dense, p)
            assert rank(m, FieldSpec(p)) == rank(transpose(m), FieldSpec(p)) == expected

    @pytest.mark.parametrize(
        "seed,rows,cols,density",
        [(7, 150, 150, 0.6), (10, 120, 250, 0.06), (12, 150, 200, 0.07)],
    )
    def test_dense_matrices_mod_p(self, seed, rows, cols, density):
        # dense from the start, or after some pivots fill the Schur
        # complement in (mod 2 and 3 less so: entries +-2 and +-3 vanish)
        dense = random_dense(random.Random(seed), rows, cols, density)
        m = sparse_of(dense)
        for p in PRIMES:
            expected = naive_rank_mod_p(dense, p)
            assert rank(m, FieldSpec(p)) == rank(transpose(m), FieldSpec(p)) == expected

    @pytest.mark.parametrize(
        "seed,rows,cols,rank_bound,density",
        [(13, 40, 30, 12, 0.2), (14, 80, 100, 30, 0.08), (15, 150, 120, 40, 0.04)],
    )
    def test_dependent_rows(self, seed, rows, cols, rank_bound, density):
        dense = dependent_dense(random.Random(seed), rows, cols, rank_bound, density)
        m = sparse_of(dense)
        r = fraction_rank(dense)
        assert r <= rank_bound
        assert rank(m, QQ) == rank(transpose(m), QQ) == r
        for p in PRIMES:
            expected = naive_rank_mod_p(dense, p)
            assert rank(m, FieldSpec(p)) == rank(transpose(m), FieldSpec(p)) == expected

    @pytest.mark.parametrize("seed", range(3))
    def test_fraction_free_steps(self, monkeypatch, seed):
        # no unit entries, so every pivot over Z is a fraction-free step
        # and the rows are divided by the gcd of their entries
        gcds = []
        real = homology.gcd

        def spy(a, b):
            gcds.append((a, b))
            return real(a, b)

        monkeypatch.setattr(homology, "gcd", spy)
        dense = random_dense(random.Random(seed), 40, 50, 0.15, values=(-3, -2, 2, 3))
        m = sparse_of(dense)
        assert rank(m, QQ) == rank(transpose(m), QQ) == fraction_rank(dense)
        assert gcds
        for p in (2, 3, 97):
            assert rank(m, FieldSpec(p)) == naive_rank_mod_p(dense, p)
