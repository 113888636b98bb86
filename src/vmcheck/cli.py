"""Command-line front end.

Subcommands:
    run PROG --state CFG [--trace] [--no-accessed] [--no-rw]
    check PROG --state CFG --pre FILE --root HEX [--mode coexec|resource]
          [--report json|text]
    walk --state CFG --root HEX --va HEX
    case NAME --emit DIR

Exit codes: 0 success, 1 fault or violation, 2 usage or parse error.
Output is deterministic: identical invocations print identical bytes.
"""

from __future__ import annotations

import argparse
import functools
import sys
from dataclasses import asdict
from pathlib import Path

from .machine import (
    Instr,
    MachineState,
    PAGE_SIZE,
    Reg,
    StepOpts,
    execute,
    is_canonical,
    walk,
    walk_text,
)
from .checker import (
    COEXEC,
    RESOURCE_ONLY,
    check_double,
    frame_audit,
    json_text,
)
from .cases import CASE_NAMES, STUB_LIBRARY, UnknownCase, case_study
from .config import ConfigError, StateConfig, dump_config, load_config
from .parsing import (
    ParseError,
    parse_assertion,
    parse_program,
    print_assertion,
    print_instr,
    print_program,
    signed_number,
)


class UsageError(ValueError):
    pass


def _read(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as err:
        raise UsageError(f"cannot read {path}: {err.strerror}") from None
    except UnicodeDecodeError as err:
        raise UsageError(f"cannot read {path}: byte {err.start} is not "
                         "UTF-8 text") from None


def _parse_word(text: str, what: str, align: int = 1) -> int:
    """A 64-bit word given as 0x-hex or decimal on the command line, which
    `align` (1 or PAGE_SIZE) divides."""
    value = signed_number(text)
    if value is None:
        raise UsageError(f"bad {what}: {text!r}")
    if not (0 <= value < (1 << 64)):
        raise UsageError(f"{what} {value:#x} is not a 64-bit word")
    if value % align:
        raise UsageError(f"{what} {value:#x} is not page aligned")
    return value


def _load_state(path: str) -> StateConfig:
    try:
        return load_config(_read(path))
    except ConfigError as err:
        raise UsageError(f"{path}: {err}") from None


# --------------------------------------------------------------------------
# run


def cmd_run(args) -> int:
    cfg = _load_state(args.state)
    instrs = parse_program(_read(args.prog))
    if not all(isinstance(s, Instr) for s in instrs):
        raise UsageError(
            "program contains checker-only steps (@ghost/@assert/call); "
            "use the check subcommand")

    opts = StepOpts(enforce_rw=not args.no_rw,
                    set_accessed=not args.no_accessed)
    state, out = cfg.to_machine_state(), []
    written = state.mem.journal = []
    while state.pc < len(instrs):
        pc, instr, start = state.pc, instrs[state.pc], len(written)
        regs = dict(state.regs)
        fault = execute(state, instr, opts)
        if args.trace:
            out.append(f"{pc:4d} | {print_instr(instr):<24} | "
                       f"{state.reg(Reg.CR3):#x} | " +
                       (f"fault: {fault!r}" if fault is not None
                        else _delta_text(regs, state, written[start:])))
        if fault is not None:
            out.append(f"fault at pc {pc}: {fault!r}")
            print("\n".join(out))
            return 1

    out.append("registers:")
    for reg in sorted(state.regs, key=lambda r: r.value):
        val = state.reg(reg)
        if val:
            out.append(f"  {reg.value}={val:#x}")
    out.append("memory:")
    out.extend(f"  {frame:#x}:{off:#x}={word:#x}"
               for frame, off, word in _changed_words(state, written))
    print("\n".join(out))
    return 0


def _changed_words(state: MachineState, writes: list) -> list:
    """(frame, offset, word now) for each word of `writes` (a memory
    journal of ``execute``'s word writes) that differs from the first
    word it replaced there, in address order."""
    old = {(frame, off): word for frame, off, word in reversed(writes)}
    return [(frame, off, state.mem[frame][off])
            for (frame, off), word in sorted(old.items())
            if state.mem[frame][off] != word]


def _delta_text(regs: dict, state: MachineState, writes: list) -> str:
    """What one step changed: each register that differs from `regs`, as
    they were before it, then each word it wrote that changed."""
    deltas = [f"{reg.value}={state.reg(reg):#x}" for reg in
              sorted(set(regs) | set(state.regs), key=lambda r: r.value)
              if regs.get(reg, 0) != state.reg(reg)]
    deltas.extend(f"mem[{frame:#x}:{off:#x}]={word:#x}"
                  for frame, off, word in _changed_words(state, writes))
    return " ".join(deltas) if deltas else "-"


# --------------------------------------------------------------------------
# check


def cmd_check(args) -> int:
    cfg = _load_state(args.state)
    script = parse_program(_read(args.prog))
    pre = parse_assertion(_read(args.pre).strip())
    root = _parse_word(args.root, "--root")
    mode = COEXEC if args.mode == "coexec" else RESOURCE_ONLY

    report = check_double(pre, root, script, stubs=STUB_LIBRARY, mode=mode,
                          init=cfg.to_machine_state(), registry=cfg.registry,
                          free_list=cfg.free_list)
    warnings = frame_audit(pre, report)
    if args.report == "json":
        sys.stdout.write(json_text({**report.payload(), "frame_audit": [
            asdict(w) for w in warnings]}) + "\n")
    else:
        sys.stdout.write(report.to_text())
        for w in warnings:
            sys.stdout.write(f"audit: {w}\n")
    return 0 if report.ok else 1


# --------------------------------------------------------------------------
# walk


def cmd_walk(args) -> int:
    cfg = _load_state(args.state)
    root = _parse_word(args.root, "--root", PAGE_SIZE)
    va = _parse_word(args.va, "--va")
    if not is_canonical(va):
        raise UsageError(f"--va {va:#x} is not canonical")
    steps, result = walk(root, cfg.memory, va)
    *lines, outcome = walk_text(result, steps)
    ok = isinstance(result, int)
    lines.append(f"pa {outcome}" if ok else f"fault: {outcome}")
    print("\n".join(lines))
    return 0 if ok else 1


# --------------------------------------------------------------------------
# case


def cmd_case(args) -> int:
    try:
        case = case_study(args.name)
    except UnknownCase as err:
        raise UsageError(str(err)) from None
    outdir = Path(args.emit)
    prog_path = outdir / f"{case.name}.prog"
    state_path = outdir / f"{case.name}.state.json"
    pre_path = outdir / f"{case.name}.pre"
    try:
        outdir.mkdir(parents=True, exist_ok=True)
        prog_path.write_text(print_program(case.script))
        state_path.write_text(dump_config(
            StateConfig.of(case.state, case.registry, case.free_list)))
        pre_path.write_text(print_assertion(case.pre) + "\n")
    except OSError as err:
        raise UsageError(f"cannot write {err.filename}: {err.strerror}") \
            from None
    print(f"wrote {prog_path}")
    print(f"wrote {state_path}")
    print(f"wrote {pre_path}")
    print(f"check with: vmcheck check {prog_path} --state {state_path} "
          f"--pre {pre_path} --root {case.root:#x}")
    return 0


# --------------------------------------------------------------------------


@functools.lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: `main` only reads it."""
    parser = argparse.ArgumentParser(
        prog="vmcheck",
        description="emulate a paged x86-64 fragment and check resource "
                    "specifications over instruction scripts")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a program")
    p_run.add_argument("prog")
    p_run.add_argument("--state", required=True)
    p_run.add_argument("--trace", action="store_true")
    p_run.add_argument("--no-accessed", action="store_true",
                       help="do not set accessed bits during walks")
    p_run.add_argument("--no-rw", action="store_true",
                       help="do not enforce the read-write bit on writes")
    p_run.set_defaults(func=cmd_run)

    p_check = sub.add_parser("check", help="check a script against a "
                                           "precondition")
    p_check.add_argument("prog")
    p_check.add_argument("--state", required=True)
    p_check.add_argument("--pre", required=True)
    p_check.add_argument("--root", required=True)
    p_check.add_argument("--mode", choices=["coexec", "resource"],
                         default="coexec")
    p_check.add_argument("--report", choices=["text", "json"],
                         default="text")
    p_check.set_defaults(func=cmd_check)

    p_walk = sub.add_parser("walk", help="print one address translation")
    p_walk.add_argument("--state", required=True)
    p_walk.add_argument("--root", required=True)
    p_walk.add_argument("--va", required=True)
    p_walk.set_defaults(func=cmd_walk)

    p_case = sub.add_parser("case", help="emit a case-study fixture")
    p_case.add_argument("name", choices=list(CASE_NAMES))
    p_case.add_argument("--emit", required=True)
    p_case.set_defaults(func=cmd_case)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as err:
        return 2 if err.code not in (0, None) else 0
    try:
        return args.func(args)
    except (UsageError, ParseError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
