"""Edge ideals, explicit homogeneous systems of parameters, and regular
sequence verification by graded Hilbert-function comparison.

The quotient R/I(G) has the squarefree Stanley-Reisner structure: a
monomial survives iff its support is an independent set of G.  Quotienting
further by candidate parameter forms theta_1..theta_d, the sequence is
regular exactly when the graded dimensions match the polynomial
h(t) * prod_k (1 + t + ... + t^{deg theta_k - 1}) degree by degree, down
to a zero graded piece.  This is a complete decision procedure: a standard
graded algebra with one zero graded piece vanishes above it.

Inside the verifier a monomial is its dense exponent vector packed into
one integer: variable v owns a field of w bits, variable 0 the most
significant, and 2^w exceeds the degree cap.  Monomials of degree at most
the cap then multiply by integer addition without carries, and integer
order is lexicographic order on exponent vectors.  A product of degree
delta survives in R/I(G) iff its support is independent, which is to say
iff it is one of the degree-delta basis monomials; so one dictionary
lookup both decides survival and gives the product's row.

In characteristic zero the default route certifies through a large prime:
ranks mod p only underestimate rational ranks while actual graded
dimensions never drop below the expected ones, so a REGULAR verdict mod p
pins the rational answer.  Direct rational elimination is available via
exact=True.
"""

from __future__ import annotations

import functools
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


def _basis(ind_sets, unit, degree: int) -> dict[int, int]:
    """The packed monomials of the given degree whose support is an
    independent set, in increasing order, each mapped to its position.

    A monomial with support s is the product of s with a multiset of
    degree - |s| further variables from s."""
    out = []
    for s in ind_sets:
        if len(s) <= degree:
            units = [unit[v] for v in s]
            base = sum(units)
            out.extend(
                base + sum(extra)
                for extra in itertools.combinations_with_replacement(units, degree - len(s))
            )
    return {m: i for i, m in enumerate(sorted(out))}


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
    n = g.vertex_count
    if seq.variable_count != n:
        raise ValueError("variable count of the sequence does not match the graph")
    # an empty form is the zero polynomial, of its nominal degree
    form_degrees = tuple(
        sum(p for _, p in f[0]) if f else k + 1 for k, f in enumerate(seq.forms)
    )
    for k, (f, fdeg) in enumerate(zip(seq.forms, form_degrees), 1):
        for t in f:
            if sum(p for _, p in t) != fdeg or any(p < 1 or not 0 <= v < n for v, p in t):
                raise ValueError(f"form {k} is not homogeneous in the graph's variables")
    h = complexes.h_vector(complexes.f_vector(complexes.independence_complex(g)))
    expected = expected_artinian_hilbert(h, form_degrees)
    exp_deg = len(expected) - 1
    while exp_deg > 0 and expected[exp_deg] == 0:
        exp_deg -= 1
    cap = degree_cap if degree_cap is not None else exp_deg + 2
    if cap < exp_deg + 1:
        raise ValueError(f"degree cap {cap} below expected polynomial degree {exp_deg}")

    # exponent of variable v in bits [w(n-1-v), w(n-v)): exponents stay
    # below 2^w up to the cap, so packed monomials multiply by addition
    w = max(cap, 1).bit_length()
    unit = [1 << w * (n - 1 - v) for v in range(n)]
    forms = [
        (fdeg, [sum(p * unit[v] for v, p in t) for t in f])
        for f, fdeg in zip(seq.forms, form_degrees)
    ]
    ind_sets = graphs.independent_sets(g)
    basis = functools.cache(lambda d: _basis(ind_sets, unit, d))
    if field.characteristic == 0 and not exact:
        v = _verify_over(FieldSpec(CERT_PRIME), forms, basis, expected, cap)
        if v.status == REGULAR:
            return RegularityVerdict(REGULAR, field, v.per_degree, None)
        # a prime does not certify a negative outcome over Q; fall back to
        # exact rational elimination
    return _verify_over(field, forms, basis, expected, cap)


def _verify_over(field, forms, basis, expected, cap) -> RegularityVerdict:
    per_degree = []
    first_mismatch = None
    for delta in range(cap + 1):
        e = expected[delta] if delta < len(expected) else 0
        index = basis(delta)
        entries = []  # (row, col, 1)
        col = 0
        for fdeg, terms in forms:
            if fdeg > delta:
                continue
            for m in basis(delta - fdeg):
                for t in terms:
                    row = index.get(m + t)
                    if row is not None:  # else m*t lies in the edge ideal
                        entries.append((row, col, 1))
                col += 1
        actual = len(index) - _rank01(entries, len(index), col, field)
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
    """Rank of a 0/1 incidence matrix given as (row, col, 1) triples."""
    return homology.rank(SparseMatrix(rows, cols, tuple(entries)), field)
