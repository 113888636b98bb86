"""The three workloads: their inputs, the timed call, and the output
checks run outside the timed region.

* ``map_wide``: ``map_page_case(128)`` in resource mode from Python
  objects.  The ledger grows to 264 claims, so ledger rebuilds and the
  per-step ledger diff dominate; the machine only runs two stub walks
  and the text front end is unused.  At 256 words one check takes about
  a second, too long for the host-speed probes around it to follow the
  host's load (see ``run.probe``).
* ``cases_coexec``: ``swtch``, ``map_new_page`` and ``unmap_page`` in a
  fixed rotation, co-executed.  Memory holds about 4k words and the
  ledger under 50 claims; the per-step audit (``translate`` and
  ``ias_check``) and whole-memory copies dominate.
* ``multispace_text``: seeded scripts over a three-space fixture, each
  written as files and checked through ``vmcheck.cli.main`` in-process,
  text and JSON reports alternating.  The front end (state JSON, program
  and assertion text) is a quarter of each check, and the ledger is
  small and re-keyed rather than grown.

Inputs of the first two are fixed; only ``multispace_text`` draws on the
seed.
"""

from __future__ import annotations

import gzip
import io
import json
import re
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import multispace

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "golden"
WORKDIR = Path(".perfbench_work")

MAP_WIDE_WORDS = 128
MAP_WIDE_TINY_WORDS = 16
CASE_ROTATION = ("swtch", "map_new_page", "unmap_page")
SCRIPTS = 48
TINY_SCRIPTS = 20


@dataclass
class Job:
    """One check: the timed call and the untimed check of its output,
    which returns a description of what disagrees, or None."""

    label: str
    run: Callable[[], object]
    verify: Callable[[object], Optional[str]]


def golden(name: str) -> tuple:
    """(text report, JSON report) captured from the parent program."""
    with gzip.open(GOLDEN / f"{name}.txt.gz", "rt") as f:
        text = f.read()
    with gzip.open(GOLDEN / f"{name}.json.gz", "rt") as f:
        body = f.read()
    return text, body


def final_registry(case, checker) -> dict:
    """Walk maps after the script: the case's registry with its ghost
    inserts and removals applied (every shipped case makes them under
    its initial root)."""
    registry = {r: dict(t) for r, t in case.registry.items()}
    for step in case.script:
        if isinstance(step, checker.GhostInsertWalk):
            registry[case.root][step.va] = step.pa
        elif isinstance(step, checker.GhostRemoveWalk):
            del registry[case.root][step.va]
    return registry


def case_job(vm, case, mode: str, golden_name: str) -> Job:
    checker = vm.checker
    text, body = golden(golden_name)
    registry = final_registry(case, checker)

    def run():
        return checker.check_double(
            case.pre, case.root, case.script, stubs=case.stubs, mode=mode,
            init=case.state, registry=case.registry,
            free_list=case.free_list)

    def verify(report) -> Optional[str]:
        if not report.ok:
            return f"rejected: {report.violation}"
        expected = vm.assertions.lower(case.expected_post, report.final_root,
                                       registry)
        gap = report.final_ledger.contains(expected)
        if gap is not None:
            return f"final ledger lacks the expected post: {gap}"
        if report.to_text() != text:
            return "text report differs from the golden copy"
        if report.to_json() != body:
            return "JSON report differs from the golden copy"
        return None

    return Job(golden_name, run, verify)


def map_wide(vm, seed: int, tiny: bool) -> list:
    words = MAP_WIDE_TINY_WORDS if tiny else MAP_WIDE_WORDS
    case = vm.cases.map_page_case(words)
    return [case_job(vm, case, "resource", f"map_wide_{words}")]


def cases_coexec(vm, seed: int, tiny: bool) -> list:
    return [case_job(vm, vm.cases.case_study(name), "coexec", name)
            for name in CASE_ROTATION]


# --------------------------------------------------------------------------
# multispace_text


def walk_pa(root: int, mem: dict, va: int) -> Optional[int]:
    """Independent 4-level walk: the physical byte address va resolves
    to, or None when an entry is absent or not present."""
    table = root >> 12
    for shift in (39, 30, 21, 12):
        entry = mem.get(table, {}).get(((va >> shift) & 0x1FF) * 8)
        if entry is None or not entry & 1:
            return None
        table = (entry >> 12) & ((1 << 40) - 1)
    return (table << 12) | (va & 0xFFF)


_FAIL_RE = re.compile(r"^result: FAIL step (-?\d+): (\w+)(?: at (\S+))?: ",
                      re.M)


def _verdict(out: str, as_json: bool):
    """(ok, (kind, step, location) or None, final root, final claims)
    read back from a report the command printed."""
    if as_json:
        body = json.loads(out)
        vio = body["violation"]
        if vio is not None:
            return False, (vio["kind"], vio["step"], vio["location"]), None, None
        claims = [(c["location"], c["value"]) for c in body["final_claims"]]
        return True, None, int(body["final_root"], 16), claims
    m = _FAIL_RE.search(out)
    if m:
        return False, (m.group(2), int(m.group(1)), m.group(3)), None, None
    lines = out.splitlines()
    root = next(int(l.split()[-1], 16) for l in lines
                if l.startswith("final root: "))
    start = lines.index("final claims:") + 1
    end = lines.index("result: ok")
    claims = [(l.split()[0], l.split()[-1]) for l in lines[start:end]]
    return True, None, root, claims


def _claim_problem(loc: str, value: int, final, theta: dict,
                   reg_type) -> Optional[str]:
    """Check one reported final claim on the independently replayed
    machine state."""
    kind, *fields = loc.split(":")
    if kind == "reg":
        got = final.regs.get(reg_type(fields[0]), 0)
    elif kind == "phys":
        frame, off = (int(x, 16) for x in fields)
        got = final.mem.get(frame, {}).get(off)
    elif kind == "walk":
        root, va = (int(x, 16) for x in fields)
        got = walk_pa(root, final.mem, va)
    elif kind == "space":
        root = int(fields[0], 16)
        broken = [va for va, pa in theta[root].items()
                  if walk_pa(root, final.mem, va) != pa]
        if broken:
            return f"{loc}: walk-map entries {broken} do not resolve"
        got = root
    else:
        return f"unknown claim location {loc}"
    return None if got == value else f"{loc}: report {value:#x}, machine {got}"


def multispace_text(vm, seed: int, tiny: bool) -> list:
    scripts = multispace.generate(seed, TINY_SCRIPTS if tiny else SCRIPTS)
    return script_jobs(vm, scripts, WORKDIR / "multispace" / f"seed{seed}")


def script_jobs(vm, scripts: list, outdir: Path) -> list:
    """Write each script's files under `outdir`; one job per script."""
    tables = multispace.build_tables(vm.machine.synth_tables)
    outdir.mkdir(parents=True, exist_ok=True)
    return [_script_job(vm, script, i, outdir, tables)
            for i, script in enumerate(scripts)]


def _script_job(vm, script, index: int, outdir: Path, tables: dict) -> Job:
    prog, pre, state = multispace.write(script, outdir / f"s{index:03d}",
                                        tables)
    as_json = index % 2 == 1
    argv = ["check", prog, "--state", state, "--pre", pre,
            "--root", f"{multispace.ROOT_A:#x}",
            "--report", "json" if as_json else "text"]
    expect = script.expect

    def run():
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = vm.cli.main(argv)
        return code, out.getvalue(), err.getvalue()

    def verify(result) -> Optional[str]:
        code, out, err = result
        if err:
            return f"stderr: {err.strip()}"
        ok, violation, root, claims = _verdict(out, as_json)
        if not expect["ok"]:
            want = (expect["kind"], expect["step"], expect["location"])
            if code != 1 or violation != want:
                return f"want {want} exit 1, got {violation} exit {code}"
            return None
        if code != 0 or not ok:
            return f"want acceptance, got {violation} exit {code}"
        if root != expect["root"]:
            return f"final root {root:#x}, want {expect['root']:#x}"
        return _replay_problem(vm, script, tables, claims)

    return Job(f"script{index:03d}", run, verify)


def _replay_problem(vm, script, tables, claims) -> Optional[str]:
    """Run the script's instructions on the machine alone and check every
    reported final claim there with the independent walker."""
    machine = vm.machine
    regs = {machine.Reg(n): v for n, v in script.regs.items()}
    regs[machine.Reg.CR3] = multispace.ROOT_A
    mem = multispace.initial_memory(script, tables)
    final = machine.run(machine.MachineState(regs=regs, mem=mem),
                        multispace.to_instrs(script.ops, machine),
                        vm.checker.CHECK_OPTS)
    if isinstance(final, tuple):
        return f"machine alone faults at pc {final[0]}: {final[1]!r}"
    for loc, value in claims:
        problem = _claim_problem(loc, int(value, 16), final, script.theta,
                                 machine.Reg)
        if problem:
            return problem
    return None


WORKLOADS = {
    "map_wide": map_wide,
    "cases_coexec": cases_coexec,
    "multispace_text": multispace_text,
}
