"""`vmcheck check` on benchmark scripts gives the pinned output.

Twelve seed-1 scripts of the benchmark's ``multispace_text`` generator
(``perfbench/multispace.py``, imported as it stands), the first five
known-bad ones, one of each kind, and the first seven accepted ones, are
written as program, precondition and state files and checked through
``cli.main`` with text and JSON reports in both modes.  The sha256 of
each run's standard output and standard error and of its exit code are
pinned in ``multispace_reports.json``, so any change to how these files
are read or reported shows here.

Regenerate the pinned digests (only for an intended output change) with
``PYTHONPATH=src python3 tests/test_multispace_reports.py``.
"""

import hashlib
import importlib.util
import io
import json
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from vmcheck import cli
from vmcheck.machine import synth_tables

HERE = Path(__file__).resolve().parent
_SPEC = importlib.util.spec_from_file_location(
    "perfbench_multispace", HERE.parent / "perfbench" / "multispace.py")
multispace = sys.modules[_SPEC.name] = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(multispace)

PINNED = HERE / "multispace_reports.json"
SEED = 1
SCRIPTS = multispace.generate(SEED, 48)
PICKED = ([i for i, s in enumerate(SCRIPTS) if not s.expect["ok"]][:5]
          + [i for i, s in enumerate(SCRIPTS) if s.expect["ok"]][:7])
RUNS = [(mode, report) for mode in ("coexec", "resource")
        for report in ("text", "json")]


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _outputs(outdir: Path) -> dict:
    """{script: {"mode/report": {stdout, stderr, exit}}}, each a digest."""
    tables = multispace.build_tables(synth_tables)
    got = {}
    for index in PICKED:
        prog, pre, state = multispace.write(
            SCRIPTS[index], outdir / f"s{index:03d}", tables)
        runs = got[f"s{index:03d}"] = {}
        for mode, report in RUNS:
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                code = cli.main(["check", prog, "--state", state, "--pre", pre,
                                 "--root", f"{multispace.ROOT_A:#x}",
                                 "--mode", mode, "--report", report])
            runs[f"{mode}/{report}"] = {
                "stdout": _digest(out.getvalue()),
                "stderr": _digest(err.getvalue()),
                "exit": _digest(str(code)),
            }
    return got


def test_the_picked_scripts_cover_every_verdict():
    kinds = {SCRIPTS[i].expect.get("kind") for i in PICKED}
    assert kinds == {None, *multispace.BAD_VERDICT.values()}
    assert len(PICKED) == 12


def test_check_output_matches_the_pinned_digests(tmp_path):
    pinned = json.loads(PINNED.read_text())
    got = _outputs(tmp_path)
    assert sorted(got) == sorted(pinned)
    for name, runs in pinned.items():
        assert got[name] == runs, name


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as outdir:
        PINNED.write_text(json.dumps(_outputs(Path(outdir)), indent=1,
                                     sort_keys=True) + "\n")
    print(f"wrote {PINNED}")
