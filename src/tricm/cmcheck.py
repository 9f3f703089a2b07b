"""Cohen-Macaulay decisions: h-vector screening, the Reisner criterion,
and the parity-reduced check specialized to triangular graphs.

Check ordering follows cost: the h-vector screen needs no linear algebra,
1-dimensional complexes reduce to connectivity, and only then is link
homology computed, once for each distinct link that is not a cone.
"""

from __future__ import annotations

import hashlib
import itertools
from collections import Counter
from dataclasses import dataclass

from . import complexes, graphs, homology
from .complexes import SimplicialComplex
from .homology import FieldSpec

CM = "CM"
NOT_CM = "NOT_CM"
UNKNOWN = "UNKNOWN"


@dataclass(frozen=True)
class Witness:
    """A reason for a NOT_CM verdict: either a nonvanishing link homology
    group (kind "homology", index i, value dim H~_i) or a negative h-vector
    entry (kind "h-vector", index k, value h_k)."""

    complex_id: str
    kind: str
    index: int
    value: int


@dataclass(frozen=True)
class CmVerdict:
    status: str
    field: FieldSpec
    witnesses: tuple[Witness, ...]
    method: str

    def __post_init__(self):
        if self.status == NOT_CM and not self.witnesses:
            raise ValueError("NOT_CM verdict requires a witness")
        if self.status == CM and self.method not in (
            "connectivity",
            "reisner-full",
            "reisner-parity",
            "fast-path-theorem",
        ):
            raise ValueError(f"CM verdict with method {self.method!r}")


@dataclass(frozen=True)
class KrullDimension:
    value: int


def _h_witness(f: complexes.FVector, name: str) -> Witness | None:
    """The first negative entry of the h-vector of f, or None if all are
    nonnegative.  A negative entry rules out CM over every field."""
    for k, v in enumerate(complexes.h_vector(f).entries):
        if v < 0:
            return Witness(name, "h-vector", k, v)
    return None


def h_screen(c: SimplicialComplex) -> int | None:
    """Index of the first negative h-vector entry, or None if all are
    nonnegative."""
    if c.is_void:
        raise ValueError("void complex")
    w = _h_witness(complexes.f_vector(c), "")
    return None if w is None else w.index


def _h_screen_verdict(c: SimplicialComplex, field: FieldSpec, name: str) -> CmVerdict | None:
    """NOT_CM with the first negative h-vector entry of c as witness, or
    None if the h-screen passes."""
    w = _h_witness(complexes.f_vector(c), name)
    return None if w is None else CmVerdict(NOT_CM, field, (w,), "h-screen")


def classify_complex(c: SimplicialComplex, field: FieldSpec, name: str = "complex") -> CmVerdict:
    """Classification of an arbitrary complex: the h-screen first, then
    the generic Reisner check."""
    return _h_screen_verdict(c, field, name) or reisner_check(c, field, name=name)


def _link_digest(link: SimplicialComplex) -> bytes:
    """SHA-256 over the face masks of the link, relabelled
    order-preservingly onto its occupied vertices: two links share a
    digest iff they are equal up to that relabelling."""
    bit = {v: 1 << i for i, (v,) in enumerate(link.faces_by_dim[0])}
    width = (len(bit) + 7) // 8
    payload = [len(bit).to_bytes(8, "little")]
    payload += [sum(map(bit.__getitem__, g)).to_bytes(width, "little") for g in link.all_faces()]
    return hashlib.sha256(b"".join(payload)).digest()


def _is_cone(link: SimplicialComplex) -> bool:
    """Whether some vertex v lies in exactly half of the faces (the empty
    face counted).  Then g -> g ∪ {v} maps the faces without v onto those
    with v, so the link is a cone with apex v: acyclic over Z, with every
    reduced Betti number 0 over every field."""
    faces = link.all_faces()
    counts = Counter(itertools.chain.from_iterable(faces))
    return any(2 * n == len(faces) for n in counts.values())


def _betti_violation(table: homology.BettiTable, dim: int) -> tuple[int, int] | None:
    """First index i < dim with dim H~_i != 0, as (i, value)."""
    for i, b in enumerate(table.dims, start=-1):
        if i >= dim:
            break
        if b != 0:
            return i, b
    return None


def reisner_check(c: SimplicialComplex, field: FieldSpec, name: str = "complex") -> CmVerdict:
    """Full Reisner criterion: CM iff H~_i(lk(F); field) = 0 for every face
    F (including the empty one) and every i < dim lk(F)."""
    if c.is_void:
        raise ValueError("void complex")
    if c.dim <= 0:
        return CmVerdict(CM, field, (), "reisner-full")
    if c.dim == 1:
        # 1-dimensional: links of vertices/edges are vacuous, so CM iff
        # the complex is connected
        if complexes.is_connected(c):
            return CmVerdict(CM, field, (), "connectivity")
        table = homology.reduced_betti_table(c, field)
        i, b = _betti_violation(table, c.dim)
        return CmVerdict(
            NOT_CM, field, (Witness(f"lk({name}, ())", "homology", i, b),), "connectivity"
        )
    seen: set[bytes] = set()
    for f in c.all_faces():
        lk = complexes.link(c, f)
        if lk.dim <= 0:
            continue
        digest = _link_digest(lk)
        if digest in seen:
            continue
        seen.add(digest)
        if _is_cone(lk):
            continue
        table = homology.reduced_betti_table(lk, field)
        hit = _betti_violation(table, lk.dim)
        if hit is not None:
            i, b = hit
            wid = f"lk({name}, {f})"
            return CmVerdict(NOT_CM, field, (Witness(wid, "homology", i, b),), "reisner-full")
    return CmVerdict(CM, field, (), "reisner-full")


def reisner_triangular(n: int, field: FieldSpec) -> CmVerdict:
    """Parity-reduced Reisner check for T_n: every link of D(n) is a copy
    of D(l) for some l <= n of the same parity, so only those complexes
    are examined."""
    if n < 2:
        raise ValueError("requires n >= 2")
    start = 2 if n % 2 == 0 else 3
    for l in range(start, n + 1, 2):
        c = complexes.triangular_complex(l)
        if c.is_void or c.dim <= 0:
            continue
        table = homology.reduced_betti_table(c, field)
        hit = _betti_violation(table, c.dim)
        if hit is not None:
            i, b = hit
            return CmVerdict(
                NOT_CM, field, (Witness(f"delta({l})", "homology", i, b),), "reisner-parity"
            )
    return CmVerdict(CM, field, (), "reisner-parity")


def classify_triangular(n: int, field: FieldSpec, force_full: bool = False) -> CmVerdict:
    """Classification of T_n over the given field.

    Fast paths: n in {2,3,5} are CM; even n >= 4 are not (D(4) is
    disconnected and failure propagates up by parity); odd n >= 11 are not
    (negative h-vector entry of D(11) plus parity monotonicity); n in
    {7,9} require the field-dependent homology check.
    """
    if n < 2:
        raise ValueError("requires n >= 2")
    fast = _classify_fast(n, field)
    if not force_full:
        return fast
    # full route: h-screen first (it refutes D(11) with no linear algebra),
    # then the parity-reduced homology check
    full = _h_screen_verdict(
        complexes.triangular_complex(n), field, f"delta({n})"
    ) or reisner_triangular(n, field)
    if full.status != fast.status:
        raise AssertionError(
            f"full Reisner check disagrees with fast path for n={n}: "
            f"{full.status} vs {fast.status}"
        )
    return full


def _classify_fast(n: int, field: FieldSpec) -> CmVerdict:
    if n in (2, 3, 5):
        return CmVerdict(CM, field, (), "fast-path-theorem")
    if n % 2 == 0:
        # D(4) is 1-dimensional with 3 components; same-parity monotonicity
        return CmVerdict(
            NOT_CM, field, (Witness("delta(4)", "homology", 0, 2),), "fast-path-theorem"
        )
    if n >= 11:
        w = _h_witness(complexes.triangular_f_closed(11), "delta(11)")
        return CmVerdict(NOT_CM, field, (w,), "fast-path-theorem")
    return reisner_triangular(n, field)


def krull_dimension(g: graphs.Graph) -> KrullDimension:
    """Krull dimension of the edge subring = independence number."""
    return KrullDimension(graphs.independence_number(g))
