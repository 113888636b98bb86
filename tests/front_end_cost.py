"""The front end's share of ``vmcheck check``, phase by phase, on the
seed-1 ``multispace_text`` files.

The 48 seed-1 scripts of the benchmark's generator
(``perfbench/multispace.py``, imported as it stands) are written as
program, precondition and state files twice: once as the generator
writes them, every zero word spelled out ("dense"), and once with each
state re-spelled by ``dump_config`` ("dumped", which gives every full
frame's common word as ``"*"``).  For each spelling the table gives the
microseconds per check of each phase, best of the passes: reading the
three files, ``load_config`` and the ``json`` decode inside it, the
program and precondition parsers, ``check_double`` in co-execution mode,
and the text and JSON renders of its report; then the whole check
through ``cli.main``, text and JSON reports alternating as the benchmark
runs them.  Run ``python tests/front_end_cost.py [passes]`` with the
package importable (CI prints it in its step summary).
"""

from __future__ import annotations

import importlib.util
import io
import json
import sys
import tempfile
import time
from contextlib import redirect_stdout
from pathlib import Path

from vmcheck import cli
from vmcheck.cases import STUB_LIBRARY
from vmcheck.checker import check_double, frame_audit
from vmcheck.config import dump_config, load_config
from vmcheck.machine import synth_tables
from vmcheck.parsing import parse_assertion, parse_program

HERE = Path(__file__).resolve().parent
_SPEC = importlib.util.spec_from_file_location(
    "perfbench_multispace", HERE.parent / "perfbench" / "multispace.py")
multispace = sys.modules[_SPEC.name] = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(multispace)

SEED, SCRIPTS = 1, 48


def write_files(outdir: Path) -> dict:
    """{spelling: [(prog, pre, state) paths]} for the seed-1 scripts."""
    tables = multispace.build_tables(synth_tables)
    dense = [multispace.write(script, outdir / f"s{index:03d}", tables)
             for index, script in
             enumerate(multispace.generate(SEED, SCRIPTS))]
    dumped = []
    for prog, pre, state in dense:
        path = state.replace(".state.json", ".dumped.json")
        Path(path).write_text(dump_config(load_config(
            Path(state).read_text())))
        dumped.append((prog, pre, path))
    return {"dense": dense, "dumped": dumped}


def _best(passes: int, run, items) -> float:
    """Microseconds per item of `run`, best of `passes` passes."""
    best = float("inf")
    for _ in range(passes):
        start = time.perf_counter()
        for item in items:
            run(item)
        best = min(best, time.perf_counter() - start)
    return best / len(items) * 1e6


def phases(files: list, passes: int) -> dict:
    """{phase: microseconds per check} over `files`."""
    texts = [tuple(map(cli._read, paths)) for paths in files]
    root = multispace.ROOT_A
    inputs = [(load_config(state), parse_program(prog),
               parse_assertion(pre.strip())) for prog, pre, state in texts]
    reports = [(check_double(pre, root, script, stubs=STUB_LIBRARY,
                             init=cfg.to_machine_state(),
                             registry=cfg.registry,
                             free_list=cfg.free_list), pre)
               for cfg, script, pre in inputs]
    argvs = [["check", prog, "--state", state, "--pre", pre,
              "--root", f"{root:#x}", "--report", ("text", "json")[i % 2]]
             for i, (prog, pre, state) in enumerate(files)]

    def check(item):
        cfg, script, pre = item
        check_double(pre, root, script, stubs=STUB_LIBRARY,
                     init=cfg.to_machine_state(), registry=cfg.registry,
                     free_list=cfg.free_list)

    def main(argv):
        with redirect_stdout(io.StringIO()):
            cli.main(argv)

    return {
        "read": _best(passes, lambda paths: [cli._read(p) for p in paths],
                      files),
        "load_config": _best(passes, lambda t: load_config(t[2]), texts),
        "  json decode": _best(passes, lambda t: json.loads(t[2]), texts),
        "program text": _best(passes, lambda t: parse_program(t[0]), texts),
        "precondition text": _best(
            passes, lambda t: parse_assertion(t[1].strip()), texts),
        "check_double": _best(passes, check, inputs),
        "text render": _best(passes, lambda rp: (rp[0].to_text(), [
            f"audit: {w}\n" for w in frame_audit(rp[1], rp[0])]), reports),
        "JSON render": _best(passes, lambda rp: rp[0].to_json(), reports),
        "cli.main": _best(passes, main, argvs),
    }


def table(passes: int = 5, out=sys.stdout) -> None:
    with tempfile.TemporaryDirectory() as tmp:
        files = write_files(Path(tmp))
        got = {spelling: phases(paths, passes)
               for spelling, paths in files.items()}
        sizes = {spelling: sum(Path(p[2]).stat().st_size for p in paths)
                 // len(paths) for spelling, paths in files.items()}
    print(f"us per check, best of {passes} passes over the {SCRIPTS} "
          f"seed-{SEED} multispace scripts", file=out)
    print(f"{'phase':20}" + "".join(f"{s:>10}" for s in got), file=out)
    for phase in got["dense"]:
        print(f"{phase:20}" + "".join(f"{got[s][phase]:10.1f}" for s in got),
              file=out)
    print(f"{'checks/s':20}" + "".join(
        f"{1e6 / got[s]['cli.main']:10.0f}" for s in got), file=out)
    print(f"{'state bytes':20}" + "".join(f"{sizes[s]:10}" for s in got),
          file=out)


if __name__ == "__main__":
    table(int(sys.argv[1]) if len(sys.argv) > 1 else 5)
