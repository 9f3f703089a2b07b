import json
import os

import pytest

from tricm import cli, complexes
from tricm.cli import main


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
        cpath.write_text(complexes.serialize(complexes.triangular_complex(5)))
        rc, out, _ = run(capsys, ["homology", "--complex", str(cpath)])
        assert rc == 0
        assert "(0,0,6)" in out

    def test_bad_complex_file(self, capsys, tmp_path):
        cpath = tmp_path / "c.cplx"
        cpath.write_text("not a complex\n")
        rc, _, err = run(capsys, ["homology", "--complex", str(cpath)])
        assert rc == cli.EXIT_INPUT
        assert "malformed" in err


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

        monkeypatch.setattr(complexes, "independence_complex", compute)
        rc, _, err = run(capsys, ["vectors", "--triangular", "4", "--cache-dir", str(path)])
        assert rc == cli.EXIT_INPUT
        assert err.startswith("error:") and len(err.splitlines()) == 1

    def test_json_in_missing_directory(self, capsys, tmp_path):
        path = tmp_path / "no" / "such" / "report.json"
        rc, _, err = run(capsys, ["vectors", "--triangular", "4", "--json", str(path)])
        assert rc == cli.EXIT_INPUT
        assert err.startswith("error:") and len(err.splitlines()) == 1


def _complex_file(tmp_path):
    cpath = tmp_path / "c.cplx"
    cpath.write_text(complexes.serialize(complexes.triangular_complex(5)))
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
        assert load_json(entry) == miss[2]  # rewritten by the miss

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
        assert load_json(entry) == expected[2]  # rewritten by the miss

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

    def test_cache_env_var(self, capsys, tmp_path, monkeypatch):
        cache = tmp_path / "envcache"
        monkeypatch.setenv("TRICM_CACHE_DIR", str(cache))
        rc, _, _ = run(capsys, ["vectors", "--triangular", "5"])
        assert rc == 0
        assert len(list(cache.iterdir())) == 1
