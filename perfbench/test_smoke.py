"""Smoke checks of `run.py` on tiny inputs (T_5 and a whiskered
graph on 3 base vertices).  Run with `python3 -m pytest perfbench`."""

import json
import shutil
import subprocess
import sys

import pytest

import layers
import run
import workloads

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _tiny(rng, inputs):
    return [
        workloads.classify_triangular_job(5, [0, workloads.seeded_prime(rng)]),
        workloads.vectors_triangular_job(5, closed_form=True, cache=True),
        workloads.hsop_triangular_job(5, "powersum", 0),
        workloads.hsop_triangular_job(5, "elementary", 7),
        *workloads.whiskered_jobs(rng, inputs, count=1, base_vertices=3, base_edge_count=2),
    ]


@pytest.fixture
def tiny(monkeypatch):
    monkeypatch.setitem(workloads.WORKLOADS, "tiny", _tiny)
    monkeypatch.setattr(run, "time_setups", lambda args: [0.25, 0.5, 0.75])


def _result(capsys, argv):
    assert run.main(argv) == 0
    return json.loads(capsys.readouterr().out.splitlines()[-1])


def test_untraced_run_reports_end_to_end_metrics(tiny, capsys):
    out = _result(capsys, ["--workload", "tiny", "--seed", "3", "--seconds", "0.01", "--trace", "0"])
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 6
    assert sorted(out["metrics"]) == sorted(m["name"] for m in BENCHMARK["end_to_end"])
    assert out["metrics"]["setup_s"]["value"] == 0.5
    assert all(m["value"] > 0 for m in out["metrics"].values())


def test_traced_run_reports_every_layer(tiny, capsys):
    out = _result(capsys, ["--workload", "tiny", "--seed", "3", "--seconds", "0.01", "--trace", "1"])
    assert out["correct"] and out["failed"] == 0
    metrics = out["metrics"]
    assert sorted(metrics) == sorted(m["name"] for m in BENCHMARK["per_layer"])
    assert metrics["cli.main.calls"]["value"] == 1
    assert metrics["complexes.link.calls"]["value"] > 0
    assert metrics["ideals.verify_regular.degrees"]["value"] > 0
    assert metrics["cli.cache.files_written"]["value"] > 0
    assert not any(m.get("absent") for m in metrics.values())


def test_self_times_add_up_to_the_job(tmp_path):
    jobs = _tiny(workloads.random.Random(1), tmp_path)
    loop = run.Loop(run.load_cli(), jobs, tmp_path)
    tracer = layers.Tracer()
    tracer.install()
    try:
        results, _ = loop.cycles(count=1)
    finally:
        tracer.remove()
    assert loop.failed == 0
    job_time = sum(r.seconds for r in results)
    assert 0.9 * job_time < tracer.self_seconds() <= job_time


def test_wrong_expected_constant_is_a_failure(tmp_path, capsys):
    good = workloads.classify_triangular_job(5, [0])
    bad = workloads.Job(good.name, good.argv, {**good.expected, "h_vector": ["1", "8", "7"]})
    loop = run.Loop(run.load_cli(), [good, bad], tmp_path)
    loop.cycles(count=1)
    assert (loop.attempted, loop.failed) == (2, 1)
    assert "h_vector" in capsys.readouterr().out


def test_missing_wrap_point_is_absent(monkeypatch):
    run.load_cli()
    from tricm import complexes

    monkeypatch.delattr(complexes, "link")
    tracer = layers.Tracer()
    tracer.install()
    tracer.remove()
    metrics = tracer.metrics(jobs=1)
    assert metrics["complexes.link.calls"] == {"value": None, "unit": "count", "absent": True}
    assert metrics["cmcheck.link_distinct_ratio"]["absent"]
    assert metrics["homology.rank.p.calls"]["value"] == 0


def test_seed_fixes_the_job_cycle(tmp_path):
    for name in workloads.WORKLOADS:
        first = [j.argv for j in workloads.build(name, 5, tmp_path / "a")]
        again = [j.argv for j in workloads.build(name, 5, tmp_path / "a")]
        assert first == again
    assert workloads.build("classify-t9", 5, tmp_path) != workloads.build("classify-t9", 6, tmp_path)


def test_fails_without_the_program(tmp_path):
    shutil.copytree(run.HERE, tmp_path / run.HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    argv = [*BENCHMARK["command"], "--workload", "hsop-t7", "--seed", "1", "--seconds", "1",
            "--trace", "0"]
    argv[0] = sys.executable
    done = subprocess.run(argv, cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
