import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from tricm import cli, complexes, graphs, homology, ideals
from tricm.cli import main
from tricm.homology import QQ, FieldSpec

from oracles import serialize, triangular_complex


def run(capsys, argv):
    rc = main(argv)
    out = capsys.readouterr()
    return rc, out.out, out.err


def load_json(path):
    with open(path) as fh:
        return json.load(fh)


class TestClassify:
    def test_t5(self, capsys):
        rc, out, _ = run(capsys, ["classify", "--triangular", "5"])
        assert rc == 0
        assert "char 0: CM" in out

    def test_t4_witness_line(self, capsys):
        rc, out, _ = run(capsys, ["classify", "--triangular", "4"])
        assert rc == 0
        assert "char 0: NOT_CM" in out
        assert "witness:" in out

    def test_t7_multi_char(self, capsys):
        rc, out, _ = run(
            capsys,
            ["classify", "--triangular", "7", "--char", "0", "--char", "3"],
        )
        assert rc == 0
        assert "char 0: CM" in out
        assert "char 3: NOT_CM" in out

    def test_json_report(self, capsys, tmp_path):
        report_path = tmp_path / "r.json"
        rc, _, _ = run(
            capsys,
            ["classify", "--triangular", "5", "--json", str(report_path)],
        )
        assert rc == 0
        report = load_json(report_path)
        assert report["graph"]["vertices"] == "10"
        assert report["f_vector"] == ["1", "10", "15"]
        assert report["h_vector"] == ["1", "8", "6"]
        assert report["verdicts"][0]["status"] == "CM"
        assert report["unmixed"] is True
        # large-integer policy: counts are decimal strings
        assert isinstance(report["independence_number"], str)

    def test_json_stdout(self, capsys):
        rc, out, _ = run(
            capsys, ["classify", "--triangular", "4", "--json", "-"]
        )
        assert rc == 0
        payload = out[out.index("{"):]
        report = json.loads(payload)
        assert report["verdicts"][0]["status"] == "NOT_CM"

    def test_graph_file(self, capsys, tmp_path):
        gpath = tmp_path / "g.edges"
        gpath.write_text("a b\nb c\nc a\n")
        rc, out, _ = run(capsys, ["classify", "--graph", str(gpath)])
        assert rc == 0
        assert "char 0: CM" in out

    def test_graph_file_full_route(self, capsys, tmp_path):
        # K_{2,2}: its independence complex is two disjoint edges
        gpath = tmp_path / "g.edges"
        gpath.write_text("a c\na d\nb c\nb d\n")
        rc, out, _ = run(capsys, ["classify", "--graph", str(gpath)])
        assert rc == 0
        assert "NOT_CM" in out


class TestVectors:
    def test_t11(self, capsys):
        rc, out, _ = run(capsys, ["vectors", "--triangular", "11"])
        assert rc == 0
        assert "f = (1,55,990,6930,17325,10395)" in out
        assert "h = (1,50,780,4280,6220,-936)" in out

    def test_closed_form_cross_check(self, capsys):
        rc, out, _ = run(
            capsys, ["vectors", "--triangular", "9", "--closed-form"]
        )
        assert rc == 0
        assert "f = (1,36,378,1260,945)" in out

    def test_closed_form_requires_triangular(self, capsys, tmp_path):
        gpath = tmp_path / "g.edges"
        gpath.write_text("a b\n")
        rc, _, err = run(
            capsys, ["vectors", "--graph", str(gpath), "--closed-form"]
        )
        assert rc == cli.EXIT_INPUT
        assert "closed-form" in err


class TestFaceEnumeration:
    """The report header, `vectors` and the triangular `classify` take
    their counts from the graph's independence profile; only the generic
    route of `classify --graph` builds the complex."""

    @pytest.fixture
    def calls(self, monkeypatch):
        monkeypatch.delenv("TRICM_CACHE_DIR", raising=False)
        counts = Counter()
        for module, name in ((graphs, "independent_sets"), (complexes, "independence_complex")):
            def counted(*args, _fn=getattr(module, name), _name=name, **kwargs):
                counts[_name] += 1
                return _fn(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)
        return counts

    @pytest.mark.parametrize(
        "argv, line",
        [
            (["vectors", "--triangular", "8"], "f = (1,28,210,420,105)"),
            (["classify", "--triangular", "8"], "char 0: NOT_CM (method: fast-path-theorem)"),
        ],
        ids=["vectors", "classify"],
    )
    def test_triangular_builds_no_faces(self, capsys, calls, argv, line):
        rc, out, _ = run(capsys, argv)
        assert rc == 0 and line in out
        assert calls == {}

    def test_graph_classify_builds_the_complex_once(self, capsys, calls, tmp_path):
        # the path a-b-c-d passes the h-screen, so the Reisner scan runs,
        # once for all the fields asked for
        path = tmp_path / "p4.txt"
        path.write_text("a b\nb c\nc d\n")
        for chars in ([], ["--char", "0", "--char", "2", "--char", "3"]):
            calls.clear()
            rc, out, _ = run(capsys, ["classify", "--graph", str(path)] + chars)
            assert rc == 0 and "char 0: CM (method: connectivity)" in out
            assert calls == {"independence_complex": 1, "independent_sets": 1}

    @pytest.mark.parametrize("p", ["3", "5"])
    def test_triangular_classify_builds_each_complex_once(self, capsys, calls, monkeypatch, p):
        # D(3), D(5), D(7) and D(9) each get one table call for every field
        # still pending, from the matching tree of T_l, so no complex and
        # no face is built; over F_3 the scan stops at D(7), but Q still
        # needs D(9)
        asked = []
        real = homology.independence_betti_table
        monkeypatch.setattr(
            homology,
            "independence_betti_table",
            lambda g, fields: asked.append((g.vertex_count, list(fields))) or real(g, fields),
        )
        rc, out, _ = run(capsys, ["classify", "--triangular", "9", "--char", "0", "--char", p])
        assert rc == 0 and f"char {p}: NOT_CM (method: reisner-parity)" in out
        assert calls == {}
        both = [QQ, FieldSpec(int(p))]
        last = [QQ] if p == "3" else both
        assert asked == [(3, both), (10, both), (21, both), (36, last)]

    def test_full_triangular_route_computes_one_profile(self, capsys, monkeypatch):
        # the full route's h-screen reads the profile that the CLI's T_12
        # keeps, however many fields are asked for
        monkeypatch.delenv("TRICM_CACHE_DIR", raising=False)
        fresh = []
        real = graphs.independence_profile

        def counted(g):
            if g._independence_profile is None:
                fresh.append(g)
            return real(g)

        monkeypatch.setattr(graphs, "independence_profile", counted)
        argv = ["classify", "--triangular", "12", "--full", "--char", "0", "--char", "2"]
        rc, out, _ = run(capsys, argv)
        assert rc == 0 and "char 2: NOT_CM (method: h-screen)" in out
        assert len(fresh) == 1

    def test_h_screen_refutes_without_faces(self, capsys, calls, tmp_path):
        # Ind(K_{2,2}) is two disjoint edges, h = (1, 2, -1)
        rc, out, _ = run(capsys, ["classify", "--graph", _k22_file(tmp_path)])
        assert rc == 0 and "char 0: NOT_CM (method: h-screen)" in out
        assert calls == {}


class TestHsop:
    def test_t4_forms(self, capsys):
        rc, out, _ = run(
            capsys, ["hsop", "--triangular", "4", "--kind", "elementary"]
        )
        assert rc == 0
        assert "F_1 =" in out and "F_2 =" in out
        assert "x(1,2)*x(3,4)" in out

    def test_t5_verify(self, capsys):
        rc, out, _ = run(
            capsys,
            ["hsop", "--triangular", "5", "--kind", "elementary", "--verify"],
        )
        assert rc == 0
        assert "regularity over char 0: REGULAR" in out

    def test_t7_verify_char3(self, capsys):
        rc, out, _ = run(
            capsys,
            [
                "hsop", "--triangular", "7", "--kind", "elementary",
                "--verify", "--char", "3",
            ],
        )
        assert rc == 0
        assert "regularity over char 3: NOT_REGULAR" in out

    def test_powersum_char2_fails(self, capsys):
        rc, out, _ = run(
            capsys,
            [
                "hsop", "--triangular", "5", "--kind", "powersum",
                "--verify", "--char", "2",
            ],
        )
        assert rc == 0
        assert "NOT_" in out

    def test_smallest_degree_cap(self, capsys, tmp_path):
        # the smallest accepted cap is the expected degree + 1, where the
        # expected series is 0, so it still ends in a verdict
        h = complexes.h_vector(complexes.triangular_f_closed(5))
        expected = ideals.expected_artinian_hilbert(h, (1, 2))
        cap = max(k for k, e in enumerate(expected) if e) + 1
        out_json = tmp_path / "r.json"
        rc, out, _ = run(
            capsys,
            [
                "hsop", "--triangular", "5", "--kind", "elementary",
                "--verify", "--degree-cap", str(cap), "--json", str(out_json),
            ],
        )
        assert rc == 0
        assert "regularity over char 0: REGULAR" in out
        verify = load_json(out_json)["hsop"]["verify"]
        assert [d["degree"] for d in verify["per_degree"]] == list(range(cap + 1))
        rc, _, err = run(
            capsys,
            [
                "hsop", "--triangular", "5", "--kind", "elementary",
                "--verify", "--degree-cap", str(cap - 1),
            ],
        )
        assert rc == cli.EXIT_INPUT
        assert err == f"error: degree cap {cap - 1} below expected polynomial degree + 1 = {cap}\n"

    def test_degree_cap_too_small(self, capsys):
        rc, _, err = run(
            capsys,
            [
                "hsop", "--triangular", "5", "--kind", "elementary",
                "--verify", "--degree-cap", "1",
            ],
        )
        assert rc == cli.EXIT_INPUT
        assert "cap" in err

    def test_empty_graph_is_input_error(self, capsys, tmp_path):
        gpath = tmp_path / "empty.edges"
        gpath.write_text("")
        rc, out, err = run(capsys, ["hsop", "--graph", str(gpath), "--kind", "elementary"])
        assert rc == cli.EXIT_INPUT
        assert out == ""
        assert err.startswith("error:")

    def test_verify_json(self, capsys, tmp_path):
        report_path = tmp_path / "r.json"
        rc, _, _ = run(
            capsys,
            [
                "hsop", "--triangular", "5", "--kind", "elementary",
                "--verify", "--json", str(report_path),
            ],
        )
        assert rc == 0
        report = load_json(report_path)
        verify = report["hsop"]["verify"]
        assert verify["status"] == "REGULAR"
        assert [row["expected"] for row in verify["per_degree"]] == [
            "1", "9", "14", "6", "0",
        ]


class TestHomology:
    def test_t7(self, capsys):
        rc, out, _ = run(
            capsys,
            ["homology", "--triangular", "7", "--char", "0", "--char", "3"],
        )
        assert rc == 0
        assert "char 0: reduced Betti dims (i = -1..dim) = (0,0,0,20)" in out
        assert "char 3: reduced Betti dims (i = -1..dim) = (0,0,1,21)" in out

    def test_complex_file(self, capsys, tmp_path):
        cpath = tmp_path / "c.cplx"
        cpath.write_text(serialize(triangular_complex(5)))
        rc, out, _ = run(capsys, ["homology", "--complex", str(cpath)])
        assert rc == 0
        assert "(0,0,6)" in out

    def test_bad_complex_file(self, capsys, tmp_path):
        cpath = tmp_path / "c.cplx"
        cpath.write_text("not a complex\n")
        rc, _, err = run(capsys, ["homology", "--complex", str(cpath)])
        assert rc == cli.EXIT_INPUT
        assert "malformed" in err

    @pytest.mark.parametrize("text,face", [
        ("dim 1 vertices 3\n0\n1\n3\n0 1\n", "(3,)"),
        ("dim 0 vertices 3\n-1\n0\n", "(-1,)"),
        ("dim 1 vertices 3\n0\n1\n0 0\n", "(0, 0)"),
    ], ids=["too-large", "negative", "repeated"])
    def test_complex_file_bad_vertex(self, capsys, tmp_path, text, face):
        cpath = tmp_path / "c.cplx"
        cpath.write_text(text)
        rc, out, err = run(capsys, ["homology", "--complex", str(cpath)])
        assert rc == cli.EXIT_INPUT
        assert out == ""
        assert err.startswith(f"error: malformed complex file: face {face} ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("text,error", [
        ("dim -2 vertices 4\n0\n", "header dim -2 != actual dim 0"),
        ("dim -1 vertices -3\n", "negative vertex count -3"),
    ], ids=["faces-under-void-header", "negative-vertex-count"])
    def test_complex_file_bad_header(self, capsys, tmp_path, text, error):
        cpath = tmp_path / "c.cplx"
        cpath.write_text(text)
        rc, out, err = run(capsys, ["homology", "--complex", str(cpath)])
        assert (rc, out) == (cli.EXIT_INPUT, "")
        assert err == f"error: malformed complex file: {error}\n"


def test_cli_import_leaves_numpy_unloaded():
    # the library needs only the standard library, even for the ranks mod
    # p of T_9 and of the T_7 verify, whose Schur complements fill in most
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = (
        "import sys, tricm.cli\n"
        "for argv in (['classify', '--triangular', '9', '--char', '0', '--char', '1000003'],\n"
        "             ['hsop', '--triangular', '7', '--kind', 'powersum', '--verify']):\n"
        "    assert tricm.cli.main(argv) == 0\n"
        "assert 'numpy' not in sys.modules, 'numpy was loaded'\n"
    )
    env.pop("TRICM_CACHE_DIR", None)  # a cache hit would rank nothing
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr


def test_module_entry_point():
    # `python -m tricm` runs the CLI from a source checkout
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    env.pop("TRICM_CACHE_DIR", None)
    argv = [sys.executable, "-m", "tricm", "classify", "--triangular", "5"]
    done = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert "char 0: CM (method: fast-path-theorem)" in done.stdout


def test_input_files_are_closed(tmp_path):
    # a leaked handle shows as a ResourceWarning under `-X dev`; the run
    # must still exit 0 with none on stderr
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    env.pop("TRICM_CACHE_DIR", None)
    for argv in (["classify", "--graph", _k22_file(tmp_path)],
                 ["homology", "--complex", _complex_file(tmp_path)]):
        python = [sys.executable, "-X", "dev", "-W", "error::ResourceWarning", "-m", "tricm"]
        done = subprocess.run(python + argv, env=env, capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        assert "ResourceWarning" not in done.stderr


class TestErrorsAndExitCodes:
    def test_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["classify"])
        assert exc.value.code == cli.EXIT_USAGE
        capsys.readouterr()

    def test_unknown_kind_is_usage(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["hsop", "--triangular", "4", "--kind", "newton"])
        assert exc.value.code == cli.EXIT_USAGE
        capsys.readouterr()

    def test_bad_char_is_usage(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["classify", "--triangular", "5", "--char", "4"])
        assert exc.value.code == cli.EXIT_USAGE
        capsys.readouterr()

    def test_missing_file(self, capsys):
        rc, _, err = run(capsys, ["classify", "--graph", "/no/such/file"])
        assert rc == cli.EXIT_INPUT
        assert "cannot read" in err

    @pytest.mark.parametrize("command,flag", [
        ("classify", "--graph"),
        ("vectors", "--graph"),
        ("homology", "--graph"),
        ("homology", "--complex"),
    ])
    def test_non_utf8_file(self, capsys, tmp_path, command, flag):
        path = tmp_path / "input"
        path.write_bytes(b"\xff\xfe0 1\n")
        rc, out, err = run(capsys, [command, flag, str(path)])
        assert (rc, out) == (cli.EXIT_INPUT, "")
        assert err.startswith(f"error: cannot read {path}: ") and len(err.splitlines()) == 1

    def test_malformed_edge_list(self, capsys, tmp_path):
        gpath = tmp_path / "g.edges"
        gpath.write_text("a a\n")
        rc, _, err = run(capsys, ["classify", "--graph", str(gpath)])
        assert rc == cli.EXIT_INPUT

    def test_triangular_below_two(self, capsys):
        rc, _, err = run(capsys, ["classify", "--triangular", "1"])
        assert rc == cli.EXIT_INPUT
        assert "n >= 2" in err

    def test_cache_dir_is_a_file(self, capsys, tmp_path, monkeypatch):
        path = tmp_path / "plain"
        path.write_text("")

        def compute(*args, **kwargs):
            raise AssertionError("an unusable cache directory must stop the run before computing")

        monkeypatch.setattr(graphs, "independence_profile", compute)
        rc, _, err = run(capsys, ["vectors", "--triangular", "4", "--cache-dir", str(path)])
        assert rc == cli.EXIT_INPUT
        assert err.startswith("error:") and len(err.splitlines()) == 1

    def test_cache_entry_is_a_directory(self, capsys, tmp_path):
        # the entry cannot replace a directory; the temporary file must go
        cache = tmp_path / "cache"
        argv = ["vectors", "--triangular", "4", "--cache-dir", str(cache)]
        run(capsys, argv)
        (entry,) = cache.iterdir()
        entry.unlink()
        entry.mkdir()
        rc, _, err = run(capsys, argv)
        assert rc == cli.EXIT_INPUT
        assert err.startswith("error:") and len(err.splitlines()) == 1
        assert [p.name for p in cache.iterdir()] == [entry.name]

    def test_json_in_missing_directory(self, capsys, tmp_path):
        path = tmp_path / "no" / "such" / "report.json"
        rc, _, err = run(capsys, ["vectors", "--triangular", "4", "--json", str(path)])
        assert rc == cli.EXIT_INPUT
        assert err.startswith("error:") and len(err.splitlines()) == 1


def _complex_file(tmp_path):
    cpath = tmp_path / "c.cplx"
    cpath.write_text(serialize(triangular_complex(5)))
    return str(cpath)


def _k22_file(tmp_path):
    gpath = tmp_path / "g.edges"
    gpath.write_text("a c\na d\nb c\nb d\n")
    return str(gpath)


class TestCache:
    def strip_timings(self, report):
        return {k: v for k, v in report.items() if k != "timings"}

    def run_twice(self, capsys, tmp_path, argv):
        """Run argv twice on one cache; both runs' (exit code, stdout, report
        without timings)."""
        cache = tmp_path / "cache"
        argv = argv + ["--cache-dir", str(cache)]
        results = []
        for name in ("a.json", "b.json"):
            out = tmp_path / name
            rc, text, _ = run(capsys, argv + ["--json", str(out)])
            results.append((rc, text, self.strip_timings(load_json(out))))
            assert len(list(cache.iterdir())) == 1
        return results

    @pytest.mark.parametrize(
        "argv",
        [
            "classify --triangular 7 --char 0 --char 3",
            "vectors --triangular 9",
            "hsop --triangular 5 --kind powersum --verify",
            "homology --graph {k22} --char 2",
            "homology --complex {d5}",
        ],
        ids=["classify", "vectors", "hsop", "homology-graph", "homology-complex"],
    )
    def test_cache_transparent(self, capsys, tmp_path, argv):
        files = {"k22": _k22_file(tmp_path), "d5": _complex_file(tmp_path)}
        miss, hit = self.run_twice(capsys, tmp_path, argv.format(**files).split())
        assert miss[0] == 0
        assert hit == miss  # exit code, text and report identical

    def test_corrupt_cache_is_a_miss(self, capsys, tmp_path):
        argv = ["vectors", "--triangular", "6"]
        self.run_twice(capsys, tmp_path, argv)
        (entry,) = (tmp_path / "cache").iterdir()
        entry.write_text(entry.read_text()[:10])  # truncated JSON
        miss, hit = self.run_twice(capsys, tmp_path, argv)
        assert miss == hit
        assert miss[1].startswith("f = (1,15,45,15)")
        assert load_json(entry)["body"] == miss[2]  # rewritten by the miss

    @pytest.mark.parametrize(
        "body",
        ["[]", "{}", '"x"', "3", '{"input": {"kind": "triangular", "n": 5}, "f_vector": []}',
         '{"input": {"kind": "triangular", "n": 6}}'],
        ids=["list", "empty-dict", "string", "number", "other-input", "no-result"],
    )
    def test_non_report_cache_is_a_miss(self, capsys, tmp_path, body):
        argv = ["vectors", "--triangular", "6"]
        expected, _ = self.run_twice(capsys, tmp_path, argv)
        (entry,) = (tmp_path / "cache").iterdir()
        entry.write_text(body)
        miss, hit = self.run_twice(capsys, tmp_path, argv)
        assert miss == hit == expected
        assert load_json(entry)["body"] == expected[2]  # rewritten by the miss

    @pytest.mark.parametrize(
        "tamper", ["verdicts-number", "no-status", "no-f-vector", "h-vector-digit"]
    )
    def test_tampered_body_is_a_miss(self, capsys, tmp_path, tamper):
        """A stored body edited so that it still parses as JSON fails its
        digest: the run recomputes the uncached report and rewrites it."""
        argv = ["classify", "--triangular", "5"]
        expected, _ = self.run_twice(capsys, tmp_path, argv)
        (entry,) = (tmp_path / "cache").iterdir()
        stored = load_json(entry)
        body = stored["body"]
        if tamper == "verdicts-number":
            body["verdicts"] = 5
        elif tamper == "no-status":
            del body["verdicts"][0]["status"]
        elif tamper == "no-f-vector":
            del body["f_vector"]
        else:
            body["h_vector"][1] = str(int(body["h_vector"][1]) + 1)
        entry.write_text(json.dumps(stored))
        miss, hit = self.run_twice(capsys, tmp_path, argv)
        assert miss == hit == expected
        assert load_json(entry)["body"] == expected[2]  # rewritten by the miss

    def test_source_change_changes_key(self, capsys, tmp_path, monkeypatch):
        cache = tmp_path / "cache"
        argv = ["vectors", "--triangular", "5", "--cache-dir", str(cache)]
        run(capsys, argv)
        monkeypatch.setattr(cli, "_source_digest", lambda: "other sources")
        run(capsys, argv)
        assert len(list(cache.iterdir())) == 2

    def test_cache_keys_distinguish_params(self, capsys, tmp_path):
        cache = tmp_path / "cache"
        run(capsys, ["vectors", "--triangular", "5", "--cache-dir", str(cache)])
        run(capsys, ["vectors", "--triangular", "6", "--cache-dir", str(cache)])
        run(
            capsys,
            [
                "vectors", "--triangular", "5", "--closed-form",
                "--cache-dir", str(cache),
            ],
        )
        assert len(list(cache.iterdir())) == 3

    def test_cache_keys_distinguish_characteristics(self, capsys, tmp_path):
        cache = tmp_path / "cache"
        for char in ("2", "3"):
            argv = ["classify", "--triangular", "5", "--char", char, "--cache-dir", str(cache)]
            run(capsys, argv)
        assert len(list(cache.iterdir())) == 2

    def test_cache_env_var(self, capsys, tmp_path, monkeypatch):
        cache = tmp_path / "envcache"
        monkeypatch.setenv("TRICM_CACHE_DIR", str(cache))
        rc, _, _ = run(capsys, ["vectors", "--triangular", "5"])
        assert rc == 0
        assert len(list(cache.iterdir())) == 1
