"""Acceptance suite: one test per acceptance criterion, each printing a
single "[acceptance] N: PASS/FAIL" line.  All integer comparisons are
exact; every criterion also enforces its runtime budget.

Criteria 2, 4 and 5 assert the classification that follows from the
literature, not the paper's T_9 claim.  Bouc's theorem on the rational
homology of matching complexes (Bouc, J. Algebra 1992) gives
H~_2(D(9); Q) = S^(3,3,3), of dimension 42, so T_9 is CM over no field,
although the paper states that it is CM in characteristic 0.  The paper
makes no claim in positive characteristic; H_1(D(7); Z) = Z/3 (Shareshian
& Wachs, Adv. Math. 2007) makes T_7 NOT_CM over F_3.  The expected Betti
numbers come from `bouc_betti`, which does not use the library's
elimination code.
"""

import itertools
import math
import os
import time

import pytest

from tricm import cli, cmcheck, complexes, graphs, homology, ideals
from tricm.complexes import triangular_f_closed
from tricm.homology import QQ, FieldSpec

from oracles import (
    component_count,
    link_triangular_witness,
    relabel,
    to_dense,
    triangular_complex,
)
from test_ideals import telescoping_check


class Criterion:
    """Context manager that prints the PASS/FAIL line and enforces the
    runtime budget."""

    def __init__(self, number, budget_s):
        self.number = number
        self.budget_s = budget_s

    def __enter__(self):
        self.t0 = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.monotonic() - self.t0
        status = "PASS" if exc_type is None and elapsed < self.budget_s else "FAIL"
        print(f"[acceptance] {self.number}: {status} ({elapsed:.2f}s)")
        if exc_type is None:
            assert elapsed < self.budget_s, (
                f"criterion {self.number} exceeded {self.budget_s}s budget "
                f"({elapsed:.2f}s)"
            )
        return False


def partitions(n, largest=None):
    """All partitions of n into parts <= largest, as weakly decreasing
    tuples."""
    if n == 0:
        yield ()
        return
    for k in range(min(n, largest or n), 0, -1):
        for rest in partitions(n - k, k):
            yield (k,) + rest


def bouc_betti(n):
    """Rational reduced Betti numbers of D(n), dim H~_i for
    -1 <= i <= n//2 - 1, predicted by Bouc's theorem: H~_r(D(n); Q) is the
    sum of the Specht modules S^lam over self-conjugate lam |- n with
    r = (n - d(lam))/2 - 1, d(lam) the Durfee-square size; dim S^lam comes
    from the hook-length formula.  Checks itself against the reduced Euler
    characteristic of the closed-form f-vector."""
    dims = [0] * (n // 2 + 1)
    for lam in partitions(n):
        conj = tuple(sum(1 for p in lam if p > j) for j in range(lam[0]))
        if conj != lam:
            continue
        durfee = sum(1 for i, p in enumerate(lam) if p > i)
        hooks = math.prod(
            lam[i] - j + conj[j] - i - 1
            for i in range(len(lam))
            for j in range(lam[i])
        )
        dims[(n - durfee) // 2] += math.factorial(n) // hooks
    f = triangular_f_closed(n).entries
    assert sum((-1) ** k * b for k, b in enumerate(dims)) == sum(
        (-1) ** k * x for k, x in enumerate(f)
    ), f"Bouc prediction {dims} for D({n}) contradicts the Euler characteristic"
    return tuple(dims)


def test_criterion_1_vectors_regression(capsys, tmp_path):
    """f- and h-vector of T_11 via the CLI, with the closed-form
    cross-check against full enumeration; < 5 s."""
    with Criterion(1, 5.0):
        rc = cli.main(
            ["vectors", "--triangular", "11", "--closed-form"]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "f = (1,55,990,6930,17325,10395)" in out
        assert "h = (1,50,780,4280,6220,-936)" in out


def test_criterion_2_main_classification():
    """Characteristic-0 classification for n = 2..12: CM exactly for
    n in {2,3,5,7}.  The paper also claims T_9; by Bouc's theorem
    dim H~_2(D(9); Q) = dim S^(3,3,3) = 42, so the T_9 verdict is NOT_CM
    with that witness.  The CM set is also derived from `bouc_betti` by
    Reisner's criterion (the links of D(n) are the D(n - 2k)).
    Budget < 600 s."""
    with Criterion(2, 600.0):
        expected_cm = {2, 3, 5, 7}
        predicted_cm = {
            n
            for n in range(2, 13)
            if not any(any(bouc_betti(m)[:-1]) for m in range(n, 1, -2))
        }
        assert predicted_cm == expected_cm
        got = {n: v for n in range(2, 13) for v in cmcheck.classify_triangular(n, [QQ])}
        for n in range(2, 13):
            expected = cmcheck.CM if n in expected_cm else cmcheck.NOT_CM
            assert got[n].status == expected, (
                f"T_{n}: computed {got[n].status}, expected {expected}"
            )
        assert got[9].witnesses == (
            cmcheck.Witness("delta(9)", "homology", 2, bouc_betti(9)[3]),
        )


def test_criterion_3_connectivity():
    """D(5) connected; D(4) has exactly 3 components and
    dim H~_0(D(4); Q) = 2; < 1 s."""
    with Criterion(3, 1.0):
        assert component_count(triangular_complex(5)) == 1
        c4 = triangular_complex(4)
        assert component_count(c4) != 1
        assert component_count(c4) == 3
        table = homology.reduced_betti_table(c4, [QQ])[0]
        assert table.dims[1] == 2  # index 0 entry


def test_criterion_4_char0_reisner():
    """Rational homology of D(7) and D(9) equals the Bouc prediction.
    D(7) vanishes below its top dimension 2.  D(9) does not: its first
    non-vanishing degree is i = 2 (dim 42), below its top dimension 3, so
    the paper's characteristic-0 claim for T_9 fails.  Budget < 60 s per
    complex."""
    with Criterion(4, 120.0):
        t7 = homology.reduced_betti_table(triangular_complex(7), [QQ])[0]
        assert all(t7.dims[i + 1] == 0 for i in range(-1, 2))
        assert t7.dims == bouc_betti(7)
        c9 = triangular_complex(9)
        t9 = homology.reduced_betti_table(c9, [QQ])[0]
        assert t9.dims == bouc_betti(9)
        first = next(i for i in range(-1, c9.dim + 1) if t9.dims[i + 1])
        assert first == 2 and c9.dim == 3


def test_criterion_5_positive_characteristic():
    """reisner_triangular(7, [F_2, F_3, F_5]): CM over F_2 and F_5,
    NOT_CM over F_3 with dim H~_1(D(7); F_3) = 1, the Z/3 torsion of
    H_1(D(7); Z) read mod 3 by the universal coefficient theorem.  The
    paper claims nothing in positive characteristic.  T_9 is NOT_CM over
    all three primes, since dim H~_2(D(9); F_p) >= 42.  Budget < 60 s."""
    with Criterion(5, 60.0):
        fields = [FieldSpec(p) for p in (2, 3, 5)]
        for v9 in cmcheck.reisner_triangular(9, fields):
            assert v9.status == cmcheck.NOT_CM, (
                f"T_9 over F_{v9.field.characteristic}: computed {v9.status}, expected NOT_CM"
            )
        v7_2, v7_3, v7_5 = cmcheck.reisner_triangular(7, fields)
        for v7 in (v7_2, v7_5):
            assert v7.status == cmcheck.CM, (
                f"T_7 over F_{v7.field.characteristic}: computed {v7.status}, expected CM"
            )
        assert v7_3.status == cmcheck.NOT_CM
        assert v7_3.witnesses == (cmcheck.Witness("delta(7)", "homology", 1, 1),)


def test_criterion_6_regular_sequence():
    """verify_regular(T_7, power sums) over Q via the prime certificate
    route is REGULAR; < 60 s."""
    with Criterion(6, 60.0):
        g = graphs.triangular(7)
        seq = ideals.hsop(g, ideals.KIND_POWER_SUMS)
        v = ideals.verify_regular(g, seq, QQ)
        assert v.status == ideals.REGULAR


@pytest.mark.skipif(
    os.environ.get("TRICM_NIGHTLY") != "1",
    reason="extended T_9 verification; set TRICM_NIGHTLY=1 to run",
)
def test_criterion_6_nightly_t9():
    """Extended test: verify_regular(T_9, power sums).  Given the T_9
    homology obstruction no regular verdict is expected; the test asserts
    only that a definite verdict is produced."""
    g = graphs.triangular(9)
    seq = ideals.hsop(g, ideals.KIND_POWER_SUMS)
    v = ideals.verify_regular(g, seq, FieldSpec(1000003))
    assert v.status in (
        ideals.REGULAR,
        ideals.NOT_REGULAR,
        ideals.NOT_HSOP_WITHIN_CAP,
    )


def test_d11_char0_from_the_matching_tree():
    """H~(D(11); Q) from the Morse complex of T_11's matching tree, whose
    one nonzero matrix is eliminated over Z, equals Bouc's prediction."""
    t = homology.independence_betti_table(graphs.triangular(11), [QQ])[0]
    assert t.dims == bouc_betti(11)


@pytest.mark.skipif(
    os.environ.get("TRICM_NIGHTLY") != "1",
    reason="exact rational Betti table of D(11); set TRICM_NIGHTLY=1 to run",
)
def test_nightly_d11_char0():
    """Extended test of the exact route at scale: H~(D(11); Q), every
    boundary rank by elimination over Z, equals Bouc's prediction;
    < 60 s."""
    t0 = time.monotonic()
    t = homology.reduced_betti_table(triangular_complex(11), [QQ])[0]
    elapsed = time.monotonic() - t0
    assert t.dims == bouc_betti(11) == (0, 0, 0, 0, 1188, 252)
    assert elapsed < 60.0, f"D(11) over Q took {elapsed:.1f}s"


def test_criterion_7_unmixedness():
    """T_n unmixed for 2 <= n <= 10, all maximal independent sets of size
    floor(n/2); < 60 s."""
    with Criterion(7, 60.0):
        for n in range(2, 11):
            g = graphs.triangular(n)
            assert graphs.is_unmixed(g)
            mis = graphs.maximal_independent_sets(g)
            assert all(len(s) == n // 2 for s in mis)


def test_criterion_8_property_suites():
    """Derived-oracle property suites (a)-(i); < 600 s total."""
    import numpy as np

    with Criterion(8, 600.0):
        # (a) boundary-of-boundary vanishes on D(n), n <= 8, all dims
        for n in range(2, 9):
            c = triangular_complex(n)
            for i in range(0, c.dim + 1):
                a = to_dense(homology.boundary_matrix(c, i))
                b = to_dense(homology.boundary_matrix(c, i + 1))
                if a.size and b.size:
                    assert np.abs(a @ b).max() == 0

        # (b) reduced Euler characteristic = alternating Betti sum,
        # n <= 8, over Q, F_2, F_3
        for n in range(2, 9):
            c = triangular_complex(n)
            f = complexes.f_vector(c).entries
            chi = sum((-1) ** i * f[i + 1] for i in range(-1, len(f) - 1))
            for ch in (0, 2, 3):
                t = homology.reduced_betti_table(c, [FieldSpec(ch)])[0]
                alt = sum((-1) ** i * b for i, b in enumerate(t.dims, start=-1))
                assert alt == chi

        # (c) link identification lk(D(n), F) ~ D(n - 2|F|) as exact
        # face-set equality after the canonical relabeling, n <= 8
        for n in range(2, 9):
            c = triangular_complex(n)
            for face in c.all_faces():
                mapping = link_triangular_witness(n, face)
                lk = complexes.link(c, face)
                target = triangular_complex(n - 2 * len(face))
                if target.is_void:
                    assert lk.dim == -1
                    continue
                relabeled = relabel(lk, mapping, target.vertex_count)
                assert relabeled.faces_by_dim == target.faces_by_dim

        # (d) brute-force independent-set enumeration matches the closed
        # form, n <= 9
        for n in range(2, 10):
            g = graphs.triangular(n)
            counts = [len(level) for level in graphs.independent_sets(g)]
            assert tuple(counts) == triangular_f_closed(n).entries

        # (e) h-vector screen refutes D(6) and D(4)
        c6, c4 = triangular_complex(6), triangular_complex(4)
        h6 = complexes.h_vector(complexes.f_vector(c6)).entries
        h4 = complexes.h_vector(complexes.f_vector(c4)).entries
        assert h6 == (1, 12, 18, -16) and cmcheck.h_screen(c6) == 3
        assert h4 == (1, 4, -2) and cmcheck.h_screen(c4) == 2

        # (f) T_5, independent-set sums, Q: REGULAR with Artinian Hilbert
        # function (1,9,14,6,0)
        g5 = graphs.triangular(5)
        v5 = ideals.verify_regular(
            g5, ideals.hsop(g5, ideals.KIND_INDEPENDENT_SET_SUMS), QQ
        )
        assert v5.status == ideals.REGULAR
        assert tuple(a for _, _, a in v5.per_degree) == (1, 9, 14, 6, 0)

        # (g) T_4, independent-set sums, Q: NOT_REGULAR
        g4 = graphs.triangular(4)
        v4 = ideals.verify_regular(
            g4, ideals.hsop(g4, ideals.KIND_INDEPENDENT_SET_SUMS), QQ
        )
        assert v4.status == ideals.NOT_REGULAR

        # (h) power sums over F_2 never verify REGULAR once d >= 2
        # (p_2 = p_1^2 in characteristic 2)
        for n in (4, 5, 6, 7):
            g = graphs.triangular(n)
            seq = ideals.hsop(g, ideals.KIND_POWER_SUMS)
            assert seq.d >= 2
            v = ideals.verify_regular(g, seq, FieldSpec(2))
            assert v.status != ideals.REGULAR

        # (i) telescoping identity for m <= 6
        for m in range(1, 7):
            assert telescoping_check(m)
