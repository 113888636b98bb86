"""Self-test of the benchmark, in well under a minute:

    python3 perfbench/selftest.py

1. every workload runs at a tiny size, untraced and traced, through the
   same command the full benchmark uses, and prints a well-formed result;
2. a planted wrong expected verdict, a wrong expected post and a wrong
   golden report are each counted as failed checks, so the gate can fail;
3. two traced runs with the same seed give identical per-layer counts;
4. the command fails, printing no result, where the program's sources
   are absent.
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys

import multispace
import run
import workloads

SEED = 7
PROBLEMS = []


def check(ok: bool, what: str) -> None:
    print(("ok    " if ok else "FAIL  ") + what)
    if not ok:
        PROBLEMS.append(what)


def command(args, cwd) -> tuple:
    proc = subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=300)
    return proc.returncode, proc.stdout.splitlines()


def tiny_runs() -> None:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    for name in workloads.WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            code, lines = command(["--workload", name, "--seed", str(SEED),
                                   "--seconds", "1", "--trace", str(trace),
                                   "--tiny"], run.ROOT)
            result = json.loads(lines[-1]) if code == 0 and lines else {}
            wanted = {m["name"] for m in spec[key]}
            check(code == 0 and result.get("correct") is True
                  and result.get("failed") == 0
                  and set(result.get("metrics", ())) == wanted,
                  f"{name} --trace {trace} --tiny: exit {code}, "
                  f"correct and every {key} metric reported")


def planted_failures() -> None:
    vm = run.import_vmcheck()
    scripts = multispace.generate(SEED, workloads.TINY_SCRIPTS)
    bad = next(s for s in scripts if not s.expect["ok"])
    good = next(s for s in scripts if s.expect["ok"])
    bad.expect["step"] += 1
    good.expect = {"ok": False, "kind": "MissingResource", "step": 0,
                   "location": None}
    jobs = workloads.script_jobs(vm, scripts,
                                 workloads.WORKDIR / "selftest")
    result = run.new_result()
    run.run_pass(jobs, 0, result)
    check(len(result["failures"]) == 2,
          f"multispace_text: 2 planted wrong verdicts counted as failed "
          f"({len(result['failures'])}/{len(jobs)})")

    case = vm.cases.case_study("map_new_page")
    wrong_post = dataclasses.replace(
        case, expected_post=vm.assertions.VirtPt(
            vm.cases.MAP_VA, vm.assertions.FULL, 1))
    jobs = [workloads.case_job(vm, wrong_post, "coexec", "map_new_page"),
            workloads.case_job(vm, case, "coexec", "unmap_page")]
    result = run.new_result()
    run.run_pass(jobs, 0, result)
    check(len(result["failures"]) == 2,
          "cases_coexec: a wrong expected post and a wrong golden report "
          "counted as failed")


def repeatable_counts() -> None:
    for name in workloads.WORKLOADS:
        counts = []
        for _ in range(2):
            _result, metrics = run.traced(run.import_vmcheck(), name, SEED,
                                          True, 0.5)
            counts.append({k: v for k, (v, unit) in metrics.items()
                           if unit in ("count", "bytes")})
        check(counts[0] == counts[1] and counts[0],
              f"{name}: two traced runs, same seed, identical "
              f"{len(counts[0])} per-layer counts")


def stripped_directory() -> None:
    where = workloads.WORKDIR.resolve() / "stripped"
    shutil.rmtree(where, ignore_errors=True)
    where.mkdir(parents=True)
    shutil.copy(run.ROOT / "BENCHMARK.json", where)
    shutil.copytree(run.HERE, where / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    try:
        code, lines = command(["--workload", "map_wide", "--seed", "1",
                               "--seconds", "1", "--trace", "0"], where)
    finally:
        shutil.rmtree(where)
    check(code != 0 and not lines,
          f"without src/: exit {code}, nothing printed")


if __name__ == "__main__":
    os.chdir(run.ROOT)
    sys.path.insert(0, str(run.SRC))
    tiny_runs()
    planted_failures()
    repeatable_counts()
    stripped_directory()
    print("self-test " + ("passed" if not PROBLEMS else
                          f"FAILED: {len(PROBLEMS)} problem(s)"))
    sys.exit(1 if PROBLEMS else 0)
