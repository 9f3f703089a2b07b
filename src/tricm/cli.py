"""Command-line front end: classify, vectors, hsop, homology.

Reports are emitted human-readable on stdout and, with --json, as a JSON
document in which every potentially large integer is a decimal string.
Completed computations can be cached under --cache-dir (or
$TRICM_CACHE_DIR); cache keys are digests over the package sources, the
normalized edge list, the operation and its parameters, so hits are
bit-identical to a rerun.

Exit codes: 0 completed, 2 usage error, 3 input error.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import json
import os
import sys
import time

from . import cmcheck, complexes, graphs, homology, ideals
from .homology import QQ, FieldSpec

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_INPUT = 3


class InputError(Exception):
    pass


def _parse_char(value: str) -> FieldSpec:
    try:
        return FieldSpec(int(value))
    except ValueError as e:
        raise argparse.ArgumentTypeError(str(e))


def _load_input(args) -> tuple[dict, graphs.Graph | None, complexes.SimplicialComplex | None]:
    """(input description, graph, complex): the graph for --triangular and
    --graph, the complex for --complex."""
    if args.triangular is not None:
        n = args.triangular
        if n < 2:
            raise InputError(f"triangular graph requires n >= 2, got {n}")
        return {"kind": "triangular", "n": n}, graphs.triangular(n), None
    path = args.graph if args.graph is not None else args.complex
    try:  # UTF-8 whatever the locale: the digest below hashes UTF-8 bytes
        with open(path, encoding="utf-8") as f:
            text = f.read()
    except (OSError, UnicodeDecodeError) as e:
        raise InputError(f"cannot read {path}: {e}")
    digest = hashlib.sha256(text.encode()).hexdigest()
    if args.graph is not None:
        try:
            g = graphs.parse_edge_list(text)
        except ValueError as e:
            raise InputError(f"malformed edge list {path}: {e}")
        return {"kind": "file", "path": path, "sha256": digest}, g, None
    try:
        c = complexes.deserialize(text)
    except ValueError as e:
        raise InputError(f"malformed complex file: {e}")
    return {"kind": "complex-file", "path": path, "sha256": digest}, None, c


def _graph_section(g: graphs.Graph) -> dict:
    section = {
        "vertices": str(g.vertex_count),
        "edges": str(len(g.edges)),
    }
    if g.labels is not None:
        section["labels"] = list(g.labels)
    return section


def _vec(entries) -> list[str]:
    return [str(v) for v in entries]


def _verdict_json(v: cmcheck.CmVerdict) -> dict:
    return {
        "char": v.field.characteristic,
        "status": v.status,
        "method": v.method,
        "witnesses": [
            {"complex": w.complex_id, "kind": w.kind, "index": w.index, "value": str(w.value)}
            for w in v.witnesses
        ],
    }


def _cache_dir(args) -> str | None:
    return args.cache_dir or os.environ.get("TRICM_CACHE_DIR")


@functools.cache
def _source_digest() -> str:
    """Digest of the package sources: any change to the code that produced
    a cached result invalidates it."""
    here = os.path.dirname(__file__)
    h = hashlib.sha256()
    for name in sorted(n for n in os.listdir(here) if n.endswith(".py")):
        with open(os.path.join(here, name), "rb") as fh:
            h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()


# parsed options that select the input or the output, not the computation
_NOT_PARAMS = ("triangular", "graph", "complex", "json", "cache_dir")


def _cache_key(input_desc: dict, g: graphs.Graph | None, args) -> str:
    payload = {
        "source": _source_digest(),
        "params": {k: v for k, v in vars(args).items() if k not in _NOT_PARAMS},
        "input": input_desc,
        "edges": list(g.edges) if g is not None else None,
        "vertices": g.vertex_count if g is not None else None,
    }
    blob = json.dumps(payload, sort_keys=True, default=vars).encode()
    return hashlib.sha256(blob).hexdigest()


def _body_digest(key: str, body) -> str:
    return hashlib.sha256((key + json.dumps(body, sort_keys=True)).encode()).hexdigest()


def _cache_get(cachedir: str | None, key: str | None) -> dict | None:
    """The cached report, or None on a miss.  An entry is the report body
    with a digest over the key and the body; an unreadable file, or one
    whose digest is missing or does not match, is a miss and gets
    overwritten."""
    if not cachedir:
        return None
    try:
        with open(os.path.join(cachedir, key + ".json")) as fh:
            entry = json.load(fh)
    except (OSError, ValueError):
        return None
    if not isinstance(entry, dict) or entry.get("sha256") != _body_digest(key, entry.get("body")):
        return None
    return entry["body"]


def _cache_put(cachedir: str | None, key: str | None, report: dict):
    if not cachedir:
        return
    body = {k: v for k, v in report.items() if k != "timings"}
    path = os.path.join(cachedir, key + ".json")
    tmp = path + f".tmp.{os.getpid()}"
    try:
        with open(tmp, "w") as fh:
            json.dump({"sha256": _body_digest(key, body), "body": body}, fh, sort_keys=True)
        os.replace(tmp, path)
    except OSError as e:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise InputError(f"cannot write cache entry in {cachedir}: {e}")


def dump_report(report: dict, args):
    if getattr(args, "json", None):
        text = json.dumps(report, sort_keys=True, indent=2) + "\n"
        if args.json == "-":
            sys.stdout.write(text)
            return
        try:
            with open(args.json, "w") as fh:
                fh.write(text)
        except OSError as e:
            raise InputError(f"cannot write {args.json}: {e}")


def _base_report(input_desc: dict, g: graphs.Graph) -> dict:
    return {
        "input": input_desc,
        "graph": _graph_section(g),
        "independence_number": str(graphs.independence_number(g)),
        "unmixed": graphs.is_unmixed(g),
    }


def _vectors_json(f: complexes.FVector) -> dict:
    return {"f_vector": _vec(f.entries), "h_vector": _vec(complexes.h_vector(f).entries)}


def _classify(args, input_desc, g, c, report):
    report.update(_vectors_json(complexes.FVector(graphs.independence_profile(g)[0])))
    if input_desc["kind"] == "triangular":
        verdicts = cmcheck.classify_triangular(input_desc["n"], args.char, force_full=args.full)
    else:
        verdicts = cmcheck.classify_graph(g, args.char, name="delta_G")
    report["verdicts"] = [_verdict_json(v) for v in verdicts]


def _classify_text(args, report):
    lines = []
    for v in report["verdicts"]:
        lines.append(f"char {v['char']}: {v['status']} (method: {v['method']})")
        for w in v["witnesses"]:
            lines.append(f"  witness: {w['complex']} {w['kind']} index {w['index']} value {w['value']}")
    return lines


def _vectors(args, input_desc, g, c, report):
    if args.closed_form and input_desc["kind"] != "triangular":
        raise InputError("--closed-form applies to triangular graphs only")
    profile = graphs.independence_profile(g)
    if args.closed_form:
        # T_n's profile comes from the matching counts (graphs.triangular);
        # walk Ind(T_n) to check them and the maximal size of the header
        walked = graphs._profile_walk(g)
        if walked != profile:
            raise AssertionError(
                f"closed-form profile {profile} disagrees with enumeration {walked}"
            )
    report.update(_vectors_json(complexes.FVector(profile[0])))


def _vectors_text(args, report):
    return [
        "f = (" + ",".join(report["f_vector"]) + ")",
        "h = (" + ",".join(report["h_vector"]) + ")",
    ]


_KIND_MAP = {
    "elementary": ideals.KIND_INDEPENDENT_SET_SUMS,
    "powersum": ideals.KIND_POWER_SUMS,
}


def _render_monomial(m, labels) -> str:
    if not m:
        return "1"

    def var(v):
        if labels is not None:
            lab = labels[v]
            if lab.startswith("(") and lab.endswith(")"):
                return "x(" + ",".join(lab[1:-1].split()) + ")"
            return f"x{lab}"
        return f"x{v}"

    parts = []
    for v, p in m:
        parts.append(var(v) if p == 1 else f"{var(v)}^{p}")
    return "*".join(parts)


def _hsop(args, input_desc, g, c, report):
    kind = _KIND_MAP[args.kind]
    try:
        seq = ideals.hsop(g, kind)
        if args.verify:
            verdict = ideals.verify_regular(g, seq, args.char, degree_cap=args.degree_cap)
    except ValueError as e:
        raise InputError(str(e))
    forms_json = []
    for form in seq.forms:
        forms_json.append(
            {
                "monomials": [[[v, p] for v, p in m] for m in form],
                "rendered": " + ".join(_render_monomial(m, g.labels) for m in form),
            }
        )
    report["hsop"] = {"kind": kind, "forms": forms_json}
    if args.verify:
        report["hsop"]["verify"] = {
            "status": verdict.status,
            "char": args.char.characteristic,
            "failing_degree": verdict.failing_degree,
            "per_degree": [
                {"degree": d, "expected": str(e), "actual": str(a)}
                for d, e, a in verdict.per_degree
            ],
        }


def _hsop_text(args, report):
    lines = [f"F_{k} = {form['rendered']}" for k, form in enumerate(report["hsop"]["forms"], 1)]
    if "verify" in report["hsop"]:
        lines.append("regularity over char {char}: {status}".format(**report["hsop"]["verify"]))
    return lines


def _homology(args, input_desc, g, c, report):
    # a graph's tables come from its matching tree, a complex file's from
    # its boundary matrices
    if c is None:
        tables = homology.independence_betti_table(g, args.char)
    else:
        tables = homology.reduced_betti_table(c, args.char)
    report["betti"] = [{"char": t.field.characteristic, "dims": _vec(t.dims)} for t in tables]


def _homology_text(args, report):
    return [
        f"char {entry['char']}: reduced Betti dims (i = -1..dim) = ({','.join(entry['dims'])})"
        for entry in report["betti"]
    ]


# subcommand -> (compute body, text lines)
_COMMANDS = {
    "classify": (_classify, _classify_text),
    "vectors": (_vectors, _vectors_text),
    "hsop": (_hsop, _hsop_text),
    "homology": (_homology, _homology_text),
}


def run(args) -> int:
    """Load the input, then take the report from the cache or compute and
    cache it, print its text lines and dump it."""
    compute, text = _COMMANDS[args.command]
    input_desc, g, c = _load_input(args)
    cachedir = _cache_dir(args)
    key = None
    if cachedir:
        try:
            os.makedirs(cachedir, exist_ok=True)
        except OSError as e:
            raise InputError(f"cannot create cache directory {cachedir}: {e}")
        key = _cache_key(input_desc, g, args)
    t0 = time.monotonic()
    report = _cache_get(cachedir, key)
    if report is None:
        report = _base_report(input_desc, g) if g is not None else {"input": input_desc}
        compute(args, input_desc, g, c, report)
        _cache_put(cachedir, key, report)
    report["timings"] = {"total_ms": round((time.monotonic() - t0) * 1000, 3)}
    for line in text(args, report):
        print(line)
    dump_report(report, args)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tricm",
        description="Cohen-Macaulayness of graph independence complexes",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_input(p, with_complex=False):
        grp = p.add_mutually_exclusive_group(required=True)
        grp.add_argument("--triangular", type=int, metavar="N")
        grp.add_argument("--graph", metavar="FILE")
        if with_complex:
            grp.add_argument("--complex", metavar="FILE")
        p.add_argument("--json", metavar="PATH", help="write JSON report (- for stdout)")
        p.add_argument("--cache-dir", metavar="DIR", default=None)

    p = sub.add_parser("classify", help="decide the Cohen-Macaulay property")
    add_input(p)
    p.add_argument("--char", type=_parse_char, action="append")
    p.add_argument("--full", action="store_true", help="force the full Reisner check")

    p = sub.add_parser("vectors", help="f- and h-vector of the independence complex")
    add_input(p)
    p.add_argument("--closed-form", action="store_true")

    p = sub.add_parser("hsop", help="homogeneous system of parameters")
    add_input(p)
    p.add_argument("--kind", choices=sorted(_KIND_MAP), required=True)
    p.add_argument("--verify", action="store_true")
    p.add_argument("--char", type=_parse_char, default=QQ)
    p.add_argument("--degree-cap", type=int, default=None)

    p = sub.add_parser("homology", help="reduced Betti table")
    add_input(p, with_complex=True)
    p.add_argument("--char", type=_parse_char, action="append")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command in ("classify", "homology"):
        args.char = sorted(set(args.char or [QQ]), key=lambda f: f.characteristic)
    try:
        rc = run(args)
    except InputError as e:
        print(f"error: {e}", file=sys.stderr)
        rc = EXIT_INPUT
    if argv is None:
        sys.exit(rc)
    return rc


if __name__ == "__main__":
    main()
