"""Explicit homogeneous systems of parameters for R/I(G), the quotient by
the edge ideal of G, and regular sequence verification by graded
Hilbert-function comparison.

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

In characteristic zero each degree's matrix is ranked first mod the large
prime `CERT_PRIME`.  Ranks mod p only underestimate rational ones, so the
rational dimension is at most the mod-p one, and it never drops below the
expected one; a mod-p dimension equal to the expected one is therefore
exact.  Only a degree where they differ is ranked again, over Q.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

from . import complexes, graphs, homology
from .graphs import Graph
from .homology import FieldSpec, SparseMatrix

KIND_INDEPENDENT_SET_SUMS = "independent-set-sums"
KIND_POWER_SUMS = "power-sums"

REGULAR = "REGULAR"
NOT_REGULAR = "NOT_REGULAR"
NOT_HSOP_WITHIN_CAP = "NOT_HSOP_WITHIN_CAP"

# prime of the characteristic-zero regularity certificate: mod-p ranks only
# underestimate rational ones
CERT_PRIME = 1000003

# monomial: tuple of (variable index, exponent), sorted by variable
Monomial = tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class HsopSequence:
    """d homogeneous forms, form k of degree k, all coefficients 1."""

    kind: str
    variable_count: int
    forms: tuple[tuple[Monomial, ...], ...]

    @property
    def d(self) -> int:
        return len(self.forms)


@dataclass(frozen=True)
class RegularityVerdict:
    status: str
    field: FieldSpec
    per_degree: tuple[tuple[int, int, int], ...]  # (degree, expected, actual)
    failing_degree: int | None = None


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
        for level in graphs.independent_sets(g)[1:]:
            forms.append(tuple(tuple((v, 1) for v in s) for s in level))
    elif kind == KIND_POWER_SUMS:
        for k in range(1, d + 1):
            forms.append(tuple(((v, k),) for v in range(g.vertex_count)))
    else:
        raise ValueError(f"unknown h.s.o.p. kind {kind!r}")
    return HsopSequence(kind, g.vertex_count, tuple(forms))


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


def _basis(levels, unit, degree: int) -> dict[int, int]:
    """The packed monomials of the given degree whose support is an
    independent set, in increasing order, each mapped to its position.

    `levels` are the independent sets grouped by size, as
    `graphs.independent_sets` gives them; only the sets of size at most
    the degree are read.  A monomial with support s is the product of s
    with a multiset of degree - |s| further variables from s."""
    out = []
    for size, level in enumerate(levels[: degree + 1]):
        for s in level:
            units = [unit[v] for v in s]
            base = sum(units)
            out.extend(
                base + sum(extra)
                for extra in itertools.combinations_with_replacement(units, degree - size)
            )
    return {m: i for i, m in enumerate(sorted(out))}


def verify_regular(
    g: Graph,
    seq: HsopSequence,
    field: FieldSpec,
    degree_cap: int | None = None,
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
    h = complexes.h_vector(complexes.FVector(graphs.independence_profile(g)[0]))
    expected = expected_artinian_hilbert(h, form_degrees)
    exp_deg = len(expected) - 1
    while exp_deg > 0 and expected[exp_deg] == 0:
        exp_deg -= 1
    cap = degree_cap if degree_cap is not None else exp_deg + 2
    if cap < exp_deg + 1:
        raise ValueError(f"degree cap {cap} below expected polynomial degree + 1 = {exp_deg + 1}")

    # exponent of variable v in bits [w(n-1-v), w(n-v)): exponents stay
    # below 2^w up to the cap, so packed monomials multiply by addition
    w = max(cap, 1).bit_length()
    unit = [1 << w * (n - 1 - v) for v in range(n)]
    forms = [
        (fdeg, [sum(p * unit[v] for v, p in t) for t in f])
        for f, fdeg in zip(seq.forms, form_degrees)
    ]
    levels = graphs.independent_sets(g)
    basis = functools.cache(lambda d: _basis(levels, unit, d))
    # over Q each degree is ranked mod CERT_PRIME first (see the module docstring)
    cert = FieldSpec(CERT_PRIME) if field.characteristic == 0 else field
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
        mult = SparseMatrix(len(index), col, tuple(entries))
        actual = len(index) - homology.rank(mult, cert)
        if actual != e and field.characteristic == 0:
            actual = len(index) - homology.rank(mult, field)
        del mult  # freed before the next degree's matrix is built
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
    # never reached a zero graded piece by the cap; the cap is past the
    # expected degree, and there e = 0 < actual, so first_mismatch is set
    return RegularityVerdict(
        NOT_HSOP_WITHIN_CAP, field, tuple(per_degree), failing_degree=first_mismatch
    )

