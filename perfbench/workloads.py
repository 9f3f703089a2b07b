"""Seeded job lists for the benchmark, and the reports they must produce.

Every expected report is derived here from theory (closed-form face
counts, the h-vector transform, known classifications) or from the
values the README records as verified.  Nothing in this file calls
tricm, so a wrong answer from the program cannot become its own
reference.

A workload is one cycle of jobs.  The seed fixes the cycle; `run.py`
runs it in whole cycles, so the job mix is the same in every run.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, field
from pathlib import Path

# Seeded primes come from this range.  Dense elimination mod a small prime
# meets more accidental zeros and so runs measurably faster (about 25 % on
# hsop-t7 powersum mod 5), which would make job cost depend on the seed.
PRIME_RANGE = (1_000_003, 2**31 - 1)


@dataclass(frozen=True)
class Job:
    """One `tricm` command line and the digest of the report it must write.

    `run.py` appends `--json PATH`, and `--cache-dir DIR` (a fresh empty
    directory) when `cache` is set.
    """

    name: str
    argv: tuple[str, ...]
    expected: dict = field(compare=False)
    cache: bool = False


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact for n < 3,215,031,751."""
    if n < 2:
        return False
    for p in (2, 3, 5, 7):
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in (2, 3, 5, 7):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def seeded_prime(rng: random.Random) -> int:
    n = rng.randrange(*PRIME_RANGE)
    while not is_prime(n):
        n += 1
    return n


# ---- theory ---------------------------------------------------------------


def matching_f_vector(n: int) -> list[int]:
    """f-vector of D(n), the matching complex of K_n: the number of
    k-matchings is n! / (k! 2^k (n-2k)!), for k = 0 .. n//2."""
    return [
        math.factorial(n) // (math.factorial(k) * 2**k * math.factorial(n - 2 * k))
        for k in range(n // 2 + 1)
    ]


def h_from_f(f: list[int]) -> list[int]:
    """h_k = sum_i (-1)^(k-i) C(d-i, k-i) f_(i-1), with d = len(f) - 1."""
    d = len(f) - 1
    return [
        sum((-1) ** (k - i) * math.comb(d - i, k - i) * f[i] for i in range(k + 1))
        for k in range(d + 1)
    ]


def poly_mul(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _strs(values) -> list[str]:
    return [str(v) for v in values]


def triangular_graph_digest(n: int) -> dict:
    """T_n has C(n,2) vertices; two pairs meet in one symbol, so each symbol
    contributes C(n-1,2) edges.  Every maximal matching of K_n has n//2
    edges, so T_n is unmixed with independence number n//2."""
    return {
        "input_kind": "triangular",
        "vertices": str(math.comb(n, 2)),
        "edges": str(n * math.comb(n - 1, 2)),
        "independence_number": str(n // 2),
        "unmixed": True,
    }


def triangular_verdict(n: int, char: int) -> dict:
    """Known classification of T_n, with the route the CLI reports.

    n in {2,3,5}: CM (theorem).  Even n >= 4: D(4) has three components,
    so H~_0 = 2 refutes CM.  n = 7: CM except in characteristic 3.
    n = 9: NOT_CM with dim H~_2(D(9)) = 42, the computed value the README
    records under "Known discrepancies" (there is no 42-dimensional class
    mod p for the large primes used here: Delta(9) has only 3-torsion).
    """
    if n in (2, 3, 5):
        return {"char": char, "status": "CM", "method": "fast-path-theorem", "witnesses": []}
    if n % 2 == 0 and n >= 4:
        w = {"complex": "delta(4)", "kind": "homology", "index": 0, "value": "2"}
        return {"char": char, "status": "NOT_CM", "method": "fast-path-theorem", "witnesses": [w]}
    if n == 7 and char != 3:
        return {"char": char, "status": "CM", "method": "reisner-parity", "witnesses": []}
    if n == 9 and (char == 0 or char > 3):
        w = {"complex": "delta(9)", "kind": "homology", "index": 2, "value": "42"}
        return {"char": char, "status": "NOT_CM", "method": "reisner-parity", "witnesses": [w]}
    raise ValueError(f"no stored verdict for T_{n} in characteristic {char}")


def triangular_vectors(n: int) -> dict:
    f = matching_f_vector(n)
    return {"f_vector": _strs(f), "h_vector": _strs(h_from_f(f))}


# ---- job builders ---------------------------------------------------------


def classify_triangular_job(n: int, chars: list[int], cache: bool = False) -> Job:
    argv = ["classify", "--triangular", str(n)]
    for c in chars:
        argv += ["--char", str(c)]
    expected = {
        **triangular_graph_digest(n),
        **triangular_vectors(n),
        "verdicts": [triangular_verdict(n, c) for c in sorted(set(chars))],
    }
    return Job(f"classify T_{n} char {','.join(map(str, chars))}", tuple(argv), expected, cache)


def vectors_triangular_job(n: int, closed_form: bool, cache: bool) -> Job:
    argv = ["vectors", "--triangular", str(n)] + (["--closed-form"] if closed_form else [])
    expected = {**triangular_graph_digest(n), **triangular_vectors(n)}
    name = f"vectors T_{n}" + (" closed-form" if closed_form else "")
    return Job(name, tuple(argv), expected, cache)


HSOP_KINDS = {"elementary": "independent-set-sums", "powersum": "power-sums"}


def hsop_triangular_job(n: int, kind: str, char: int) -> Job:
    """`hsop --verify` on T_n, which must come out REGULAR.

    REGULAR holds iff D(n) is CM over the field and the forms are an
    h.s.o.p.  Independent-set sums always are one; power sums are one iff
    the characteristic is 0 or exceeds d = n//2 (Newton's identities).
    The per-degree dimensions then equal the coefficients of
    h(t) * prod_{k=1..d} (1 + t + ... + t^(k-1)), through the first zero.
    """
    if triangular_verdict(n, char)["status"] != "CM":
        raise ValueError(f"T_{n} is not CM in characteristic {char}")
    d = n // 2
    if kind == "powersum" and 0 < char <= d:
        raise ValueError(f"power sums are no h.s.o.p. in characteristic {char}")
    f = matching_f_vector(n)
    series = h_from_f(f)
    for k in range(1, d + 1):
        series = poly_mul(series, [1] * k)
    while series[-1] == 0:
        series.pop()
    series.append(0)  # the verifier stops at the first zero graded piece
    form_sizes = f[1:] if kind == "elementary" else [f[1]] * d
    verify = {
        "status": "REGULAR",
        "char": char,
        "failing_degree": None,
        "per_degree": [
            {"degree": deg, "expected": str(e), "actual": str(e)} for deg, e in enumerate(series)
        ],
    }
    expected = {
        **triangular_graph_digest(n),
        "hsop_kind": HSOP_KINDS[kind],
        "form_sizes": form_sizes,
        "verify": verify,
    }
    argv = ("hsop", "--triangular", str(n), "--kind", kind, "--verify", "--char", str(char))
    return Job(f"hsop T_{n} {kind} char {char}", argv, expected)


def independent_set_counts(n: int, edges) -> list[int]:
    """Number of independent sets of each size 0..n, by brute force."""
    adj = [0] * n
    for u, v in edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    counts = [0] * (n + 1)
    for s in range(1 << n):
        if all(not (adj[v] & s) for v in range(n) if s >> v & 1):
            counts[bin(s).count("1")] += 1
    return counts


def whiskered_job(path: Path, base_vertices: int, base_edges) -> Job:
    """`classify --graph` on the whiskered graph W(G): G plus a pendant
    vertex on every vertex of G.

    Villarreal (1990): W(G) is CM over every field, so the generic Reisner
    scan visits every link and answers CM.  An independent set of W(G) is
    an independent set S of G plus any whiskers of vertices outside S, so
    f_k = sum_S C(b - |S|, k - |S|); and the h-vector of Ind(W(G)) is the
    independent-set count vector of G.
    """
    b = base_vertices
    g_counts = independent_set_counts(b, base_edges)
    f = [sum(g_counts[s] * math.comb(b - s, k - s) for s in range(k + 1)) for k in range(b + 1)]
    if h_from_f(f) != g_counts:
        raise AssertionError("whiskered-graph h-vector identity failed")
    expected = {
        "input_kind": "file",
        "vertices": str(2 * b),
        "edges": str(len(base_edges) + b),
        "independence_number": str(b),
        "unmixed": True,
        "f_vector": _strs(f),
        "h_vector": _strs(g_counts),
        "verdicts": [{"char": 0, "status": "CM", "method": "reisner-full", "witnesses": []}],
    }
    return Job(f"classify {path.name}", ("classify", "--graph", str(path), "--char", "0"), expected)


def write_whiskered(path: Path, base_vertices: int, base_edges):
    lines = [f"b{u} b{v}" for u, v in base_edges]
    lines += [f"b{u} w{u}" for u in range(base_vertices)]
    path.write_text("# whiskered graph: base b*, pendant w*\n" + "\n".join(lines) + "\n")


def whiskered_jobs(rng: random.Random, inputs: Path, count: int, base_vertices: int, base_edge_count: int):
    pairs = list(itertools.combinations(range(base_vertices), 2))
    jobs = []
    for i in range(count):
        edges = sorted(rng.sample(pairs, base_edge_count))
        path = inputs / f"whiskered-{i}.txt"
        write_whiskered(path, base_vertices, edges)
        jobs.append(whiskered_job(path, base_vertices, edges))
    return jobs


# ---- the workloads --------------------------------------------------------


def _classify_t9(rng, inputs):
    return [classify_triangular_job(9, [0, seeded_prime(rng)]) for _ in range(2)]


def _reisner_whiskered(rng, inputs):
    return whiskered_jobs(rng, inputs, count=3, base_vertices=7, base_edge_count=8)


def _hsop_t7(rng, inputs):
    # one job of each kind per cycle: the kinds differ in cost, the fields do not
    return [
        hsop_triangular_job(7, kind, rng.choice([0, seeded_prime(rng)]))
        for kind in ("elementary", "powersum")
    ]


def _report_t12(rng, inputs):
    jobs = [
        classify_triangular_job(12, [rng.choice([0, seeded_prime(rng)])], cache=True),
        vectors_triangular_job(12, closed_form=False, cache=True),
        vectors_triangular_job(12, closed_form=True, cache=True),
    ]
    rng.shuffle(jobs)
    return jobs


WORKLOADS = {
    "classify-t9": _classify_t9,
    "reisner-whiskered": _reisner_whiskered,
    "hsop-t7": _hsop_t7,
    "report-t12": _report_t12,
}


def build(workload: str, seed: int, inputs: Path) -> list[Job]:
    """The job cycle of a workload for a seed; input files go to `inputs`."""
    inputs.mkdir(parents=True, exist_ok=True)
    return WORKLOADS[workload](random.Random(seed), inputs)


def report_digest(report: dict) -> dict:
    """The fields of a `--json` report that the expected digests cover."""
    out = {
        "input_kind": report["input"]["kind"],
        "vertices": report["graph"]["vertices"],
        "edges": report["graph"]["edges"],
        "independence_number": report["independence_number"],
        "unmixed": report["unmixed"],
    }
    for key in ("f_vector", "h_vector", "verdicts"):
        if key in report:
            out[key] = report[key]
    if "hsop" in report:
        h = report["hsop"]
        out["hsop_kind"] = h["kind"]
        out["form_sizes"] = [len(form["monomials"]) for form in h["forms"]]
        out["verify"] = h.get("verify")
    return out
