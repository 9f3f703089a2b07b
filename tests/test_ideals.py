import itertools
import math
import random

import pytest

from tricm import complexes, graphs, homology, ideals
from tricm.complexes import HVector
from tricm.graphs import Graph, triangular
from tricm.homology import QQ, FieldSpec, SparseMatrix
from tricm.ideals import (
    KIND_INDEPENDENT_SET_SUMS,
    KIND_POWER_SUMS,
    NOT_HSOP_WITHIN_CAP,
    NOT_REGULAR,
    REGULAR,
    HsopSequence,
    expected_artinian_hilbert,
    hsop,
    verify_regular,
)

from oracles import complete, hilbert_function

F2, F3, F5 = FieldSpec(2), FieldSpec(3), FieldSpec(5)
KINDS = (KIND_INDEPENDENT_SET_SUMS, KIND_POWER_SUMS)


def brute_hilbert(g, d):
    """Oracle: enumerate all degree-d monomials in n variables and keep
    those whose support is an independent set."""
    return sum(
        1
        for e in dense_monomials(g.vertex_count, d)
        if not any(e[u] and e[v] for u, v in g.edges)
    )


def dense_monomials(n, d):
    """All exponent tuples of degree d in n variables (none if d < 0)."""
    if d < 0 or n == 0:
        return [()] if d == 0 else []
    return [
        tuple(b - a - 1 for a, b in zip((-1, *bars), (*bars, d + n - 1)))
        for bars in itertools.combinations(range(d + n - 1), n - 1)
    ]


def naive_graded_dims(g, seq, field, degrees):
    """Oracle: dim_K of R/(I(G) + seq) in each degree, from dense exponent
    tuples, supports checked against the edge list, rank by homology.rank."""
    n = g.vertex_count

    def survives(e):
        return not any(e[u] and e[v] for u, v in g.edges)

    forms = []
    for form in seq.forms:
        terms = []
        for mono in form:
            e = [0] * n
            for v, p in mono:
                e[v] += p
            terms.append(tuple(e))
        forms.append(terms)
    dims = []
    for delta in degrees:
        rows = {m: i for i, m in enumerate(m for m in dense_monomials(n, delta) if survives(m))}
        entries, col = [], 0
        for k, terms in enumerate(forms):
            # form k + 1 has degree k + 1
            for m in dense_monomials(n, delta - (k + 1)):
                if not survives(m):
                    continue
                for t in terms:
                    prod = tuple(a + b for a, b in zip(m, t))
                    if survives(prod):
                        entries.append((rows[prod], col, 1))
                col += 1
        dims.append(len(rows) - homology.rank(SparseMatrix(len(rows), col, tuple(entries)), field))
    return dims


def random_graph(rng, max_vertices=5):
    n = rng.randint(1, max_vertices)
    edges = tuple(e for e in itertools.combinations(range(n), 2) if rng.random() < 0.4)
    return Graph(n, edges)


def sigma_equals_form(g, k: int) -> bool:
    """Check that the k-th elementary symmetric polynomial equals the
    degree-k independent-set sum modulo the edge ideal: every discarded
    squarefree monomial must be divisible by an edge generator."""
    levels = graphs.independent_sets(g)
    kept = set(levels[k]) if k < len(levels) else set()
    for s in itertools.combinations(range(g.vertex_count), k):
        if s in kept:
            continue
        if not any(u in s and v in s for u, v in g.edges):
            return False
    return True


def telescoping_check(m: int) -> bool:
    """Verify z_i^m = z_i^{m-1} s_1 - z_i^{m-2} s_2 + ... + (-1)^{m+1} s_m
    as an exact polynomial identity in m variables, for every i, where s_k
    is the k-th elementary symmetric polynomial."""
    if not (1 <= m <= 8):
        raise ValueError("m must be in 1..8")

    def poly_add(p, q, c=1):
        out = dict(p)
        for mono, coeff in q.items():
            out[mono] = out.get(mono, 0) + c * coeff
            if out[mono] == 0:
                del out[mono]
        return out

    def poly_mul(p, q):
        out: dict[tuple[int, ...], int] = {}
        for m1, c1 in p.items():
            for m2, c2 in q.items():
                mono = tuple(a + b for a, b in zip(m1, m2))
                out[mono] = out.get(mono, 0) + c1 * c2
                if out[mono] == 0:
                    del out[mono]
        return out

    def var(i, power=1):
        e = [0] * m
        e[i] = power
        return {tuple(e): 1}

    def sigma(k):
        out: dict[tuple[int, ...], int] = {}
        for s in itertools.combinations(range(m), k):
            e = [0] * m
            for v in s:
                e[v] = 1
            out[tuple(e)] = 1
        return out

    for i in range(m):
        lhs = var(i, m)
        rhs: dict[tuple[int, ...], int] = {}
        for k in range(1, m + 1):
            term = sigma(k)
            if m - k > 0:
                term = poly_mul(var(i, m - k), term)
            rhs = poly_add(rhs, term, (-1) ** (k + 1))
        if lhs != rhs:
            return False
    return True


class TestHsop:
    def test_t4_elementary(self):
        seq = hsop(triangular(4), KIND_INDEPENDENT_SET_SUMS)
        assert seq.d == 2
        assert [{sum(p for _, p in m) for m in f} for f in seq.forms] == [{1}, {2}]
        assert len(seq.forms[0]) == 6  # all six variables
        # F_2 sums the three 2-element independent sets (disjoint pairs)
        f2 = {tuple(v for v, _ in mono) for mono in seq.forms[1]}
        assert f2 == {(0, 5), (1, 4), (2, 3)}

    def test_t7_elementary_sizes(self):
        seq = hsop(triangular(7), KIND_INDEPENDENT_SET_SUMS)
        assert seq.d == 3
        assert [len(f) for f in seq.forms] == [21, 105, 105]

    def test_power_sums(self):
        seq = hsop(triangular(5), KIND_POWER_SUMS)
        assert seq.d == 2
        assert seq.forms[1] == tuple(((v, 2),) for v in range(10))

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            hsop(triangular(4), "newton")


class TestHilbertFunction:
    def test_degree_zero(self):
        assert hilbert_function(triangular(4), 0) == 1

    def test_t4_degree2(self):
        # 6 squares + 3 squarefree independent products
        assert hilbert_function(triangular(4), 2) == 9

    @pytest.mark.parametrize("n", [4, 5])
    @pytest.mark.parametrize("d", range(0, 5))
    def test_matches_brute_force(self, n, d):
        g = triangular(n)
        assert hilbert_function(g, d) == brute_hilbert(g, d)

    def test_complete_graph(self):
        # quotient by all edges leaves one variable power per variable
        for d in range(1, 5):
            assert hilbert_function(complete(6), d) == 6

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            hilbert_function(triangular(4), -1)


class TestExpectedArtinianHilbert:
    def test_trivial(self):
        assert expected_artinian_hilbert(HVector((1,)), ()) == (1,)

    def test_t5(self):
        # h = (1, 8, 6), degrees (1, 2): multiply by (1 + t)
        assert expected_artinian_hilbert(HVector((1, 8, 6)), (2,)) == (1, 9, 14, 6)

    def test_t4_goes_negative(self):
        # h = (1, 4, -2): a negative coefficient survives
        out = expected_artinian_hilbert(HVector((1, 4, -2)), (2,))
        assert out == (1, 5, 2, -2)
        assert min(out) < 0

    def test_degree_one_is_identity(self):
        h = HVector((1, 8, 6))
        assert expected_artinian_hilbert(h, (1, 1)) == h.entries

    def test_invalid_degree(self):
        with pytest.raises(ValueError):
            expected_artinian_hilbert(HVector((1,)), (0,))


class TestVerifyRegular:
    def test_t5_elementary_q(self):
        g = triangular(5)
        v = verify_regular(g, hsop(g, KIND_INDEPENDENT_SET_SUMS), QQ)
        assert v.status == REGULAR
        assert tuple(e for _, e, _ in v.per_degree) == (1, 9, 14, 6, 0)
        assert all(e == a for _, e, a in v.per_degree)

    @pytest.mark.parametrize("n,status", [(5, REGULAR), (4, NOT_REGULAR)])
    def test_q_route_certificate_then_exact(self, monkeypatch, n, status):
        # over Q every degree is ranked once mod CERT_PRIME; only a degree
        # whose dimension mod p differs from the expected one is ranked
        # again over Q: on T_4 that is the failing degree 3
        chars = []
        real = homology.rank

        def spy(m, field=QQ):
            chars.append(field.characteristic)
            return real(m, field)

        monkeypatch.setattr(homology, "rank", spy)
        g = triangular(n)
        v = verify_regular(g, hsop(g, KIND_INDEPENDENT_SET_SUMS), QQ)
        assert v.status == status and v.field == QQ
        p = ideals.CERT_PRIME
        assert chars == ([p] * 5 if status == REGULAR else [p, p, p, p, 0])
        assert len(v.per_degree) == chars.count(p)

    def test_q_shortcut_never_changes_a_verdict(self, monkeypatch):
        # the reference ranks every CERT_PRIME matrix over Q instead
        rng = random.Random(28)
        gs = [triangular(n) for n in range(4, 8)] + [
            random_graph(rng, max_vertices=8) for _ in range(30)
        ]
        cases = [(g, hsop(g, kind)) for g in gs for kind in KINDS]
        # x + y and x^2 + xy = x(x + y): not an h.s.o.p. of K[x, y]
        forms = ((((0, 1),), ((1, 1),)), (((0, 2),), ((0, 1), (1, 1))))
        cases.append((Graph(2, ()), HsopSequence("custom", 2, forms)))

        def verdicts():
            return [
                (v.status, v.failing_degree, v.per_degree)
                for v in (verify_regular(g, seq, QQ) for g, seq in cases)
            ]

        fast = verdicts()
        real = homology.rank

        def exact(m, field=QQ):
            return real(m, QQ if field.characteristic == ideals.CERT_PRIME else field)

        monkeypatch.setattr(homology, "rank", exact)
        assert fast == verdicts()
        assert {s for s, _, _ in fast} == {REGULAR, NOT_REGULAR, NOT_HSOP_WITHIN_CAP}
        assert fast[-1][:2] == (NOT_HSOP_WITHIN_CAP, 2)

    def test_t4_not_regular(self):
        # T_4 is not CM, so no h.s.o.p. is regular; degree 3 exposes it
        g = triangular(4)
        v = verify_regular(g, hsop(g, KIND_INDEPENDENT_SET_SUMS), QQ)
        assert v.status == NOT_REGULAR
        assert v.failing_degree == 3
        assert v.per_degree == ((0, 1, 1), (1, 5, 5), (2, 2, 2), (3, -2, 0))

    def test_t7_power_sums_q(self):
        g = triangular(7)
        v = verify_regular(g, hsop(g, KIND_POWER_SUMS), QQ)
        assert v.status == REGULAR
        assert tuple(e for _, e, _ in v.per_degree) == (
            1, 20, 104, 189, 190, 106, 20, 0,
        )

    def test_t7_elementary_by_characteristic(self):
        g = triangular(7)
        seq = hsop(g, KIND_INDEPENDENT_SET_SUMS)
        assert verify_regular(g, seq, QQ).status == REGULAR
        assert verify_regular(g, seq, F2).status == REGULAR
        assert verify_regular(g, seq, F5).status == REGULAR
        v3 = verify_regular(g, seq, F3)
        assert v3.status == NOT_REGULAR
        assert v3.failing_degree == 6

    def test_t5_power_sums_char2(self):
        # p_2 = p_1^2 over F_2, so the sequence is not even an h.s.o.p.
        g = triangular(5)
        v = verify_regular(g, hsop(g, KIND_POWER_SUMS), F2)
        assert v.status in (NOT_REGULAR, NOT_HSOP_WITHIN_CAP)
        assert v.failing_degree == 2

    @pytest.mark.parametrize("field", [QQ, F2, F3])
    def test_k5(self, field):
        # R/I(K_5) is one-dimensional; x_1+...+x_5 is always regular
        g = complete(5)
        v = verify_regular(g, hsop(g, KIND_INDEPENDENT_SET_SUMS), field)
        assert v.status == REGULAR

    def test_cap_too_small(self):
        g = triangular(5)
        with pytest.raises(ValueError):
            verify_regular(g, hsop(g, KIND_INDEPENDENT_SET_SUMS), QQ, degree_cap=1)

    def test_variable_count_mismatch(self):
        with pytest.raises(ValueError):
            verify_regular(
                triangular(5), hsop(triangular(4), KIND_INDEPENDENT_SET_SUMS), QQ
            )

    def test_actual_never_below_expected(self):
        # one-sided bound: quotient dimensions dominate the expected series
        g = triangular(6)
        v = verify_regular(g, hsop(g, KIND_INDEPENDENT_SET_SUMS), QQ)
        for _, e, a in v.per_degree:
            if e >= 0:
                assert a >= e

    def test_more_forms_than_krull_dimension(self, monkeypatch):
        # past alpha(G) forms, h(t) * prod [d_k] bounds no graded dimension
        # from below, so such a sequence is refused before any matrix
        def built(*args):
            raise AssertionError("built a multiplication matrix")

        monkeypatch.setattr(ideals, "SparseMatrix", built)
        x0, x0_squared = (((0, 1),),), (((0, 2),),)
        cases = [
            (Graph(1, ()), (x0, x0_squared)),
            (Graph(2, ((0, 1),)), ((((0, 1),), ((1, 1),)), x0_squared)),
        ]
        for g, forms in cases:
            seq = HsopSequence("custom", g.vertex_count, forms)
            with pytest.raises(ValueError, match="Krull dimension"):
                verify_regular(g, seq, QQ)

    def test_empty_form_is_zero(self):
        # x + y and the zero polynomial: K[x, y]/(x + y) never vanishes
        g = Graph(2, ())
        seq = HsopSequence("custom", 2, ((((0, 1),), ((1, 1),)), ()))
        v = verify_regular(g, seq, F3)
        assert v.status == NOT_HSOP_WITHIN_CAP
        assert v.failing_degree == 2

    def test_wide_exponents_do_not_carry(self):
        # over F_2, x^2 + y^2 = (x + y)^2, so the quotient is K[y]: one
        # monomial y^40 in degree 40 needs a six-bit exponent field
        g = Graph(2, ())
        v = verify_regular(g, hsop(g, KIND_POWER_SUMS), F2, degree_cap=40)
        assert v.status == NOT_HSOP_WITHIN_CAP
        assert v.failing_degree == 2
        assert len(v.per_degree) == 41
        assert all(a == 1 for _, _, a in v.per_degree)
        # two variables cannot collide under any width (degree is fixed);
        # three can: R/(0) = K[x, y, z] keeps all C(d + 2, 2) monomials
        g = Graph(3, ())
        v = verify_regular(g, HsopSequence("custom", 3, ((),)), F2, degree_cap=40)
        assert v.status == NOT_HSOP_WITHIN_CAP
        assert v.failing_degree == 1
        assert [a for _, _, a in v.per_degree] == [math.comb(d + 2, 2) for d in range(41)]

    def test_inhomogeneous_form_rejected(self):
        g = Graph(2, ())
        seq = HsopSequence("custom", 2, ((((0, 1),), ((1, 2),)), (((0, 2),),)))
        with pytest.raises(ValueError):
            verify_regular(g, seq, F3)

    @pytest.mark.parametrize("kind", [KIND_INDEPENDENT_SET_SUMS, KIND_POWER_SUMS])
    @pytest.mark.parametrize("char", [0, 2, 3, 7])
    def test_matches_naive_assembler(self, kind, char):
        rng = random.Random(1)
        field = FieldSpec(char)
        for g in [triangular(4), triangular(5)] + [random_graph(rng) for _ in range(40)]:
            seq = hsop(g, kind)
            v = verify_regular(g, seq, field)
            degrees = [d for d, _, _ in v.per_degree]
            assert [a for _, _, a in v.per_degree] == naive_graded_dims(g, seq, field, degrees)


class TestSigmaEqualsForm:
    def test_triangular(self):
        for n in (4, 5, 6):
            g = triangular(n)
            d = graphs.independence_number(g)
            for k in range(1, d + 1):
                assert sigma_equals_form(g, k)

    def test_complete(self):
        assert sigma_equals_form(complete(4), 2)


class TestTelescoping:
    @pytest.mark.parametrize("m", range(1, 7))
    def test_identity(self, m):
        assert telescoping_check(m)

    def test_range(self):
        with pytest.raises(ValueError):
            telescoping_check(0)
        with pytest.raises(ValueError):
            telescoping_check(9)
