"""Golden CLI matrix: every run's exit code, text output and --json report
must stay byte-identical, apart from `timings` and input paths.

The pinned values in golden_cli.json were recorded from the program, not
derived from theory; they guard refactors that must not change any
output.  `PYTHONPATH=src python tests/test_cli_golden.py`, with no
arguments, records them again from the checked-out program; do that only
at a commit whose outputs are trusted.
"""

import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

from tricm.cli import main

GOLDEN = Path(__file__).with_name("golden_cli.json")
SPEC = json.loads(GOLDEN.read_text())


def observe(argv: list[str], files: dict[str, str], tmp: Path) -> tuple[int, str, dict]:
    """(exit code, stdout, report without `timings` and input path) of one
    CLI run.  An argv entry "@name" becomes the path of input file `name`,
    written to tmp from `files`."""
    for name, text in files.items():
        (tmp / name).write_text(text)
    argv = [str(tmp / a[1:]) if a.startswith("@") else a for a in argv]
    report_path = tmp / "report.json"
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = main(argv + ["--json", str(report_path)])
    report = json.loads(report_path.read_text())
    del report["timings"]
    report["input"].pop("path", None)
    return rc, out.getvalue(), report


@pytest.mark.parametrize("run", SPEC["runs"], ids=[" ".join(r["argv"]) for r in SPEC["runs"]])
def test_cli_output_is_pinned(run, tmp_path, monkeypatch):
    monkeypatch.delenv("TRICM_CACHE_DIR", raising=False)
    got = observe(run["argv"], SPEC["files"], tmp_path)
    assert got == (run["exit"], run["stdout"], run["report"])


def test_recorder_writes_nothing_given_arguments(tmp_path):
    # a copy of this script beside a tampered golden file, run with --help
    script = tmp_path / Path(__file__).name
    script.write_text(Path(__file__).read_text())
    golden = tmp_path / GOLDEN.name
    tampered = GOLDEN.read_bytes().replace(b'"exit": 0', b'"exit": 9', 1)
    golden.write_bytes(tampered)
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run(
        [sys.executable, str(script), "--help"], cwd=tmp_path, env=env, capture_output=True
    )
    assert proc.returncode == 2
    assert b"usage:" in proc.stderr
    assert golden.read_bytes() == tampered


if __name__ == "__main__":
    if sys.argv[1:]:
        print(f"usage: PYTHONPATH=src python {sys.argv[0]}  (records {GOLDEN.name})", file=sys.stderr)
        sys.exit(2)
    os.environ.pop("TRICM_CACHE_DIR", None)
    with tempfile.TemporaryDirectory() as tmp:
        for run in SPEC["runs"]:
            run["exit"], run["stdout"], run["report"] = observe(run["argv"], SPEC["files"], Path(tmp))
    GOLDEN.write_text(json.dumps(SPEC, indent=1, sort_keys=True, ensure_ascii=False) + "\n")
    print(f"recorded {len(SPEC['runs'])} runs in {GOLDEN}")
