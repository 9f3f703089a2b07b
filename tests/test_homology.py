import itertools
import random
from fractions import Fraction
from math import isqrt

import numpy as np
import pytest

from tricm import complexes, graphs, homology
from tricm.complexes import from_faces, triangular_complex
from tricm.homology import (
    QQ,
    FieldSpec,
    SparseMatrix,
    boundary_matrix,
    rank,
    reduced_betti_table,
)

from oracles import closure, component_count, rank_mod_p, relabel, to_dense


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
    ], ids=["delta7", "delta9", "whiskered-c5"])
    def test_ranks_only_over_q(self, monkeypatch, c):
        # over Q every boundary rank is computed once, exactly: one
        # elimination over Z per boundary map, and no rank modulo a prime
        # is taken along the way
        primes, eliminated = [], []
        real_rank, real_eliminate = homology.rank, homology._eliminate

        def spy_rank(m, field=QQ):
            if field.characteristic:
                primes.append(field)
            return real_rank(m, field)

        def spy_eliminate(rows, p):
            eliminated.append(p)
            return real_eliminate(rows, p)

        monkeypatch.setattr(homology, "rank", spy_rank)
        monkeypatch.setattr(homology, "_eliminate", spy_eliminate)
        [t] = reduced_betti_table(c, [QQ])
        assert primes == []
        assert eliminated == [0] * (c.dim + 2)
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


@pytest.mark.parametrize("char", [0, 2, 3])
def test_h0_counts_components(char):
    # the union-find oracle against the boundary ranks: H~_0 + 1 is the
    # number of components, and H~_1 the cycle rank f_1 - f_0 + components
    for c in one_dimensional_complexes():
        assert c.dim == 1
        k = component_count(c)
        f0, f1 = c.face_counts()
        assert reduced_betti_table(c, [FieldSpec(char)])[0].dims == (0, k - 1, f1 - f0 + k)


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
