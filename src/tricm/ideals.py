"""Edge ideals, explicit homogeneous systems of parameters, and regular
sequence verification by graded Hilbert-function comparison.

The quotient R/I(G) has the squarefree Stanley-Reisner structure: a
monomial survives iff its support is an independent set of G.  Quotienting
further by candidate parameter forms theta_1..theta_d, the sequence is
regular exactly when the graded dimensions match the polynomial
h(t) * prod_k (1 + t + ... + t^{deg theta_k - 1}) degree by degree, down
to a zero graded piece.  This is a complete decision procedure: a standard
graded algebra with one zero graded piece vanishes above it.

In characteristic zero the default route certifies through a large prime:
ranks mod p only underestimate rational ranks while actual graded
dimensions never drop below the expected ones, so a REGULAR verdict mod p
pins the rational answer.  Direct rational elimination is available via
exact=True.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from . import complexes, graphs, homology
from .graphs import Graph
from .homology import CERT_PRIME, FieldSpec, SparseMatrix

KIND_INDEPENDENT_SET_SUMS = "independent-set-sums"
KIND_POWER_SUMS = "power-sums"

REGULAR = "REGULAR"
NOT_REGULAR = "NOT_REGULAR"
NOT_HSOP_WITHIN_CAP = "NOT_HSOP_WITHIN_CAP"
CAP_REACHED = "CAP_REACHED"

# monomial: tuple of (variable index, exponent), sorted by variable
Monomial = tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class EdgeIdeal:
    variable_count: int
    generators: tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class HsopSequence:
    """d homogeneous forms, form k of degree k, all coefficients 1."""

    kind: str
    variable_count: int
    forms: tuple[tuple[Monomial, ...], ...]

    @property
    def d(self) -> int:
        return len(self.forms)

    def degrees(self) -> tuple[int, ...]:
        return tuple(range(1, self.d + 1))


@dataclass(frozen=True)
class RegularityVerdict:
    status: str
    field: FieldSpec
    per_degree: tuple[tuple[int, int, int], ...]  # (degree, expected, actual)
    failing_degree: int | None = None


def edge_ideal(g: Graph) -> EdgeIdeal:
    """One squarefree degree-2 generator x_u x_v per edge."""
    return EdgeIdeal(g.vertex_count, g.edges)


def hsop(g: Graph, kind: str) -> HsopSequence:
    """Explicit h.s.o.p. for the edge subring of g.

    independent-set-sums: form k sums the squarefree monomials over all
    independent sets of size k (the nonzero images of the elementary
    symmetric polynomials).  power-sums: form k = sum_i x_i^k.
    """
    d = graphs.independence_number(g)
    if d < 1:
        raise ValueError("graph has no vertices")
    forms = []
    if kind == KIND_INDEPENDENT_SET_SUMS:
        by_size: dict[int, list[Monomial]] = {k: [] for k in range(1, d + 1)}
        for s in graphs.independent_sets(g, max_size=d):
            if s:
                by_size[len(s)].append(tuple((v, 1) for v in s))
        for k in range(1, d + 1):
            forms.append(tuple(by_size[k]))
    elif kind == KIND_POWER_SUMS:
        for k in range(1, d + 1):
            forms.append(tuple(((v, k),) for v in range(g.vertex_count)))
    else:
        raise ValueError(f"unknown h.s.o.p. kind {kind!r}")
    return HsopSequence(kind, g.vertex_count, tuple(forms))


def hilbert_function(g: Graph, d: int) -> int:
    """dim_K (R/I(G))_d: monomials of degree d with independent support."""
    if d < 0:
        raise ValueError("degree must be >= 0")
    if d == 0:
        return 1
    f = complexes.f_vector(complexes.independence_complex(g)).entries
    return sum(f[k] * math.comb(d - 1, k - 1) for k in range(1, len(f)))


def expected_artinian_hilbert(h: complexes.HVector, degrees) -> tuple[int, ...]:
    """Coefficients of h(t) * prod_{k in degrees} (1 + t + ... + t^{k-1}).

    Negative coefficients are reported as-is: a negative entry certifies
    that no regular sequence of these degrees exists.
    """
    poly = list(h.entries)
    for k in degrees:
        if k < 1:
            raise ValueError("degrees must be >= 1")
        step = [1] * k
        out = [0] * (len(poly) + k - 1)
        for i, a in enumerate(poly):
            for j, b in enumerate(step):
                out[i + j] += a * b
        poly = out
    return tuple(poly)


def _monomial_mask(m: Monomial) -> int:
    mask = 0
    for v, _ in m:
        mask |= 1 << v
    return mask


def _independent_support_monomials(g: Graph, degree: int, ind_sets) -> list[Monomial]:
    """Monomials of the given degree whose support is independent, ordered
    lexicographically on their dense exponent lists."""
    if degree == 0:
        return [()]
    out = []
    for s in ind_sets:
        k = len(s)
        if k == 0 or k > degree:
            continue
        # compositions of `degree` into k positive parts
        for cuts in itertools.combinations(range(1, degree), k - 1):
            parts = []
            prev = 0
            for c in cuts:
                parts.append(c - prev)
                prev = c
            parts.append(degree - prev)
            out.append(tuple(zip(s, parts)))

    def dense(m: Monomial) -> tuple[int, ...]:
        e = [0] * g.vertex_count
        for v, p in m:
            e[v] = p
        return tuple(e)

    out.sort(key=dense)
    return out


def _multiply(m: Monomial, t: Monomial) -> Monomial:
    e: dict[int, int] = dict(m)
    for v, p in t:
        e[v] = e.get(v, 0) + p
    return tuple(sorted(e.items()))


def _support_independent(mask: int, masks) -> bool:
    rest = mask
    v = 0
    while rest:
        if rest & 1 and masks[v] & mask:
            return False
        rest >>= 1
        v += 1
    return True


def verify_regular(
    g: Graph,
    seq: HsopSequence,
    field: FieldSpec,
    degree_cap: int | None = None,
    exact: bool = False,
) -> RegularityVerdict:
    """Decide whether seq is a regular sequence on R/I(G) over the field.

    For each degree the actual dimension of R/(I(G) + seq) is the number
    of independent-support monomials minus the rank of the multiplication
    matrix of the forms; it is compared against the expected Artinian
    Hilbert function.  REGULAR requires agreement through the first degree
    where both vanish.
    """
    if seq.variable_count != g.vertex_count:
        raise ValueError("variable count of the sequence does not match the graph")
    form_degrees = tuple(
        sum(p for _, p in f[0]) if f else k + 1 for k, f in enumerate(seq.forms)
    )
    h = complexes.h_vector(complexes.f_vector(complexes.independence_complex(g)))
    expected = expected_artinian_hilbert(h, form_degrees)
    exp_deg = len(expected) - 1
    while exp_deg > 0 and expected[exp_deg] == 0:
        exp_deg -= 1
    cap = degree_cap if degree_cap is not None else exp_deg + 2
    if cap < exp_deg + 1:
        raise ValueError(f"degree cap {cap} below expected polynomial degree {exp_deg}")

    if field.characteristic == 0 and not exact:
        v = _verify_over(g, seq, FieldSpec(CERT_PRIME), expected, cap)
        if v.status == REGULAR:
            return RegularityVerdict(REGULAR, field, v.per_degree, None)
        # a prime does not certify a negative outcome over Q; fall back to
        # exact rational elimination
    return _verify_over(g, seq, field, expected, cap)


def _verify_over(g, seq, field, expected, cap) -> RegularityVerdict:
    masks = g.neighbor_masks
    ind_sets = graphs.independent_sets(g)
    bases = {0: [()]}

    def basis(d: int) -> list[Monomial]:
        if d not in bases:
            bases[d] = _independent_support_monomials(g, d, ind_sets)
        return bases[d]

    per_degree = []
    first_mismatch = None
    for delta in range(cap + 1):
        e = expected[delta] if delta < len(expected) else 0
        b = basis(delta)
        index = {m: i for i, m in enumerate(b)}
        entries = []  # (row, col)
        col = 0
        for form in seq.forms:
            fdeg = sum(p for _, p in form[0])
            if fdeg > delta:
                continue
            for m in basis(delta - fdeg):
                mmask = _monomial_mask(m)
                for t in form:
                    prod_mask = mmask | _monomial_mask(t)
                    if not _support_independent(prod_mask, masks):
                        continue  # lands in the edge ideal, drops to zero
                    entries.append((index[_multiply(m, t)], col))
                col += 1
        r = _rank01(entries, len(b), col, field)
        actual = len(b) - r
        per_degree.append((delta, e, actual))
        if e >= 0 and actual < e:
            raise AssertionError(
                f"graded dimension {actual} below expected {e} at degree {delta}; "
                "this indicates an implementation bug"
            )
        if actual > e:
            if e != 0:
                return RegularityVerdict(
                    NOT_REGULAR, field, tuple(per_degree), failing_degree=delta
                )
            # expected has hit zero but the quotient has not; keep scanning
            # to tell "h.s.o.p. but irregular" from "not an h.s.o.p."
            if first_mismatch is None:
                first_mismatch = delta
            continue
        if actual == 0 and e == 0:
            if first_mismatch is None:
                return RegularityVerdict(REGULAR, field, tuple(per_degree))
            return RegularityVerdict(
                NOT_REGULAR, field, tuple(per_degree), failing_degree=first_mismatch
            )
    # never reached a zero graded piece by the cap
    if first_mismatch is not None:
        return RegularityVerdict(
            NOT_HSOP_WITHIN_CAP, field, tuple(per_degree), failing_degree=first_mismatch
        )
    return RegularityVerdict(CAP_REACHED, field, tuple(per_degree))


def _rank01(entries, rows, cols, field: FieldSpec) -> int:
    """Rank of a 0/1 incidence matrix given as distinct (row, col) pairs."""
    return homology.rank(SparseMatrix(rows, cols, tuple((r, c, 1) for r, c in entries)), field)


def sigma_equals_form(g: Graph, k: int) -> bool:
    """Check that the k-th elementary symmetric polynomial equals the
    degree-k independent-set sum modulo the edge ideal: every discarded
    squarefree monomial must be divisible by an edge generator."""
    masks = g.neighbor_masks
    for s in itertools.combinations(range(g.vertex_count), k):
        mask = graphs.set_to_mask(s)
        if _support_independent(mask, masks):
            continue
        if not any(
            (mask >> u & 1) and (mask >> v & 1) for u, v in g.edges
        ):
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
