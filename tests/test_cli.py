import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vmcheck import cli, config, parsing
from vmcheck.cli import main
from vmcheck.cases import CASE_NAMES, case_study
from vmcheck.config import StateConfig, dump_config

from gen import multi_space_fixture


def invoke(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def workdir(tmp_path):
    state, registry, roots = multi_space_fixture()
    cfg = dump_config(StateConfig.of(state, registry))
    state_path = tmp_path / "state.json"
    state_path.write_text(cfg)
    return tmp_path, state_path, roots


def test_run_simple_program(capsys, workdir):
    tmp, state_path, roots = workdir
    prog = tmp / "prog.s"
    prog.write_text("mov rax, 0x2a\nmov rbx, rax\n")
    code, out, _ = invoke(capsys, "run", str(prog), "--state",
                          str(state_path))
    assert code == 0
    assert "rax=0x2a" in out
    assert "rbx=0x2a" in out


def test_run_trace_and_fault_exit(capsys, workdir):
    tmp, state_path, roots = workdir
    prog = tmp / "prog.s"
    prog.write_text("mov rsi, 0x10000000000\nmov rax, [rsi]\n")
    code, out, _ = invoke(capsys, "run", str(prog), "--state",
                          str(state_path), "--trace")
    assert code == 1
    assert "NotPresent" in out
    assert "level=4" in out


RUN_PINS = Path(__file__).parent / "run_pins"


@pytest.mark.parametrize("flags, pin", [
    ((), "swtch.txt"),
    (("--trace",), "swtch.trace.txt"),
    (("--trace", "--no-accessed"), "swtch.trace-no-accessed.txt"),
], ids=["plain", "trace", "trace-no-accessed"])
def test_run_of_the_emitted_swtch_prints_its_pinned_output(capsys, tmp_path,
                                                           flags, pin):
    # the registers, the memory: block and each traced step's deltas of
    # swtch's instructions (its @ lines stripped), byte for byte
    assert main(["case", "swtch", "--emit", str(tmp_path)]) == 0
    capsys.readouterr()
    prog = tmp_path / "swtch.instrs.prog"
    prog.write_text("".join(
        line for line in (tmp_path / "swtch.prog").read_text()
        .splitlines(keepends=True) if not line.startswith("@")))
    code, out, err = invoke(capsys, "run", str(prog), "--state",
                            str(tmp_path / "swtch.state.json"), *flags)
    assert (code, err) == (0, "")
    assert out == (RUN_PINS / pin).read_text()


def test_run_rejects_checker_steps(capsys, workdir):
    tmp, state_path, roots = workdir
    prog = tmp / "prog.s"
    prog.write_text("@ghost remove_walk va=0x200000\n")
    code, _out, err = invoke(capsys, "run", str(prog), "--state",
                             str(state_path))
    assert code == 2
    assert "check" in err


def test_run_parse_error_exit_code(capsys, workdir):
    tmp, state_path, roots = workdir
    prog = tmp / "prog.s"
    prog.write_text("mov rax, [rdi+4]\n")
    code, _out, err = invoke(capsys, "run", str(prog), "--state",
                             str(state_path))
    assert code == 2
    assert "error" in err


def test_walk_resolves(capsys, workdir):
    tmp, state_path, roots = workdir
    code, out, _ = invoke(capsys, "walk", "--state", str(state_path),
                          "--root", f"{roots[0]:#x}", "--va", "0x200000")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 5  # four levels plus the result
    assert all(f"l{lvl} slot" in line
               for lvl, line in zip((4, 3, 2, 1), lines))
    assert "present" in lines[0]
    assert lines[-1] == "pa 0x5000"


def test_walk_reports_fault_level(capsys, workdir):
    tmp, state_path, roots = workdir
    code, out, _ = invoke(capsys, "walk", "--state", str(state_path),
                          "--root", f"{roots[2]:#x}", "--va", "0x200000")
    assert code == 1
    assert "fault" in out
    assert "NotPresent" in out


@pytest.mark.parametrize("va", ["0xffff000000200000", "0x4000000200000",
                                "0x800000000000"])
def test_walk_refuses_a_non_canonical_alias_of_a_mapped_va(capsys, workdir,
                                                           va):
    # 0x200000 resolves (test_walk_resolves); its aliases are refused as
    # --va is read, unwalked
    tmp, state_path, roots = workdir
    code, out, err = invoke(capsys, "walk", "--state", str(state_path),
                            "--root", f"{roots[0]:#x}", "--va", va)
    assert (code, out, err) == (2, "", f"error: --va {va} is not canonical\n")


def test_walk_refuses_a_root_off_a_page_as_it_reads_it(capsys, workdir):
    # the root is refused before --va is read
    tmp, state_path, roots = workdir
    code, out, err = invoke(capsys, "walk", "--state", str(state_path),
                            "--root", "0x100008", "--va", "junk")
    assert (code, out, err) == \
        (2, "", "error: --root 0x100008 is not page aligned\n")


@pytest.mark.parametrize("name", CASE_NAMES)
def test_case_emit_then_check(capsys, tmp_path, name):
    code, out, _ = invoke(capsys, "case", name, "--emit", str(tmp_path))
    assert code == 0
    case = case_study(name)
    prog = tmp_path / f"{name}.prog"
    state = tmp_path / f"{name}.state.json"
    pre = tmp_path / f"{name}.pre"
    assert prog.exists() and state.exists() and pre.exists()

    code, out, _ = invoke(capsys, "check", str(prog), "--state", str(state),
                          "--pre", str(pre), "--root", f"{case.root:#x}")
    assert code == 0
    assert "result: ok" in out


def test_check_json_report_and_determinism(capsys, tmp_path):
    invoke(capsys, "case", "swtch", "--emit", str(tmp_path))
    case = case_study("swtch")
    argv = ["check", str(tmp_path / "swtch.prog"),
            "--state", str(tmp_path / "swtch.state.json"),
            "--pre", str(tmp_path / "swtch.pre"),
            "--root", f"{case.root:#x}", "--report", "json"]
    code1, out1, _ = invoke(capsys, *argv)
    code2, out2, _ = invoke(capsys, *argv)
    assert code1 == code2 == 0
    assert out1 == out2
    payload = json.loads(out1)
    assert payload["ok"] is True
    assert payload["final_root"] == f"{case.state.mem[0x211][56]:#x}"
    assert len(payload["frame_audit"]) == 1


def test_check_violation_exit_code(capsys, tmp_path):
    invoke(capsys, "case", "map_new_page", "--emit", str(tmp_path))
    case = case_study("map_new_page")
    prog = tmp_path / "map_new_page.prog"
    # sabotage: demand a claim that is never established
    bad = prog.read_text() + "@assert { 0x500000 |->v 0x0 }\n"
    prog.write_text(bad)
    code, out, _ = invoke(capsys, "check", str(prog),
                          "--state", str(tmp_path / "map_new_page.state.json"),
                          "--pre", str(tmp_path / "map_new_page.pre"),
                          "--root", f"{case.root:#x}")
    assert code == 1
    assert "FAIL" in out


def test_check_refuses_a_ghost_address_that_is_not_a_word_address(
        capsys, tmp_path):
    invoke(capsys, "case", "map_new_page", "--emit", str(tmp_path))
    case = case_study("map_new_page")
    prog = tmp_path / "map_new_page.prog"
    text = prog.read_text()
    line = "@ghost insert_walk va=0x400000 pa=0x200000"
    assert text.splitlines()[4] == line
    prog.write_text(text.replace(
        line, "@ghost insert_walk va=0x400003 pa=0x200003"))
    code, out, err = invoke(capsys, "check", str(prog),
                            "--state",
                            str(tmp_path / "map_new_page.state.json"),
                            "--pre", str(tmp_path / "map_new_page.pre"),
                            "--root", f"{case.root:#x}")
    assert code == 2
    assert out == ""
    assert err.startswith("error: line 5, column 1: ghost va=0x400003 is "
                          "not word aligned")


def test_check_refuses_ghost_arguments_other_than_each_field_once(
        capsys, tmp_path):
    invoke(capsys, "case", "unmap_page", "--emit", str(tmp_path))
    case = case_study("unmap_page")
    prog = tmp_path / "unmap_page.prog"
    lines = prog.read_text().splitlines()
    index = next(i for i, line in enumerate(lines)
                 if line.startswith("@ghost remove_walk va="))
    lines[index] += " va=0x2000 pa=0x7 junk!! xx=1"
    prog.write_text("\n".join(lines) + "\n")
    code, out, err = invoke(capsys, "check", str(prog),
                            "--state", str(tmp_path / "unmap_page.state.json"),
                            "--pre", str(tmp_path / "unmap_page.pre"),
                            "--root", f"{case.root:#x}")
    assert (code, out) == (2, "")
    assert err == (f"error: line {index + 1}, column 1: ghost remove_walk "
                   "repeats va=\n")


def test_case_emission_is_deterministic(capsys, tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    invoke(capsys, "case", "unmap_page", "--emit", str(a))
    invoke(capsys, "case", "unmap_page", "--emit", str(b))
    for name in ("unmap_page.prog", "unmap_page.state.json",
                 "unmap_page.pre"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_usage_error_exit_code(capsys, tmp_path):
    code, _out, _err = invoke(capsys, "case", "map_new_page", "--emit")
    assert code == 2
    code, _out, err = invoke(capsys, "walk", "--state",
                             str(tmp_path / "missing.json"),
                             "--root", "0x1000", "--va", "0x0")
    assert code == 2


_WRAPPERS_330_DEEP = b"[0x100000](" * 330 + b"emp" + b")" * 330
_CHECK = ("check", "prog.s", "--state", "state.json", "--pre", "pre.txt",
          "--root", "0x100000")
_WALK = ("walk", "--state", "state.json", "--root", "0x100000", "--va", "0x0")
# a decimal past Python's limit on the digits int() reads (4,300)
_LONG = "7" * 5000


@pytest.mark.parametrize("files, argv, message", [
    # a file that is not UTF-8 text
    ({"pre.txt": b"\xff\xfe bad"}, _CHECK,
     "cannot read pre.txt: byte 0 is not UTF-8 text"),
    ({"prog.s": b"\xff\xfe bad"}, _CHECK,
     "cannot read prog.s: byte 0 is not UTF-8 text"),
    # an --emit directory that is a file, or lies under one
    ({"out": b""}, ("case", "swtch", "--emit", "out"),
     "cannot write out: "),
    ({"out": b""}, ("case", "swtch", "--emit", "out/sub"),
     "cannot write out/sub: "),
    # a state file nested deeper than the JSON decoder recurses
    ({"state.json": b'{"registers": ' + b"[" * 1000 + b"]" * 1000 + b"}"},
     _WALK, "state.json: not valid JSON: "),
    # one memory frame spelled two ways, which would drop a frame's words
    ({"state.json": b'{"memory": {"0x5": {"0x0": "0x1"}, '
                    b'"5": {"0x8": "0x2"}}}'},
     _WALK, "state.json: memory frame 0x5 spelled '0x5' and '5'\n"),
    # other-space wrappers nested deeper than the grammar's bound, refused
    # at the first wrapper past it
    ({"pre.txt": _WRAPPERS_330_DEEP}, _CHECK,
     "line 1, column 705: wrappers nested more than 64 deep\n"),
    ({"prog.s": b"skip\n@assert {" + _WRAPPERS_330_DEEP + b"}\n"}, _CHECK,
     "line 2, column 705: wrappers nested more than 64 deep\n"),
    # a 5,000-digit decimal at each number reader
    ({"pre.txt": f"rax |->r {_LONG}".encode()}, _CHECK,
     "line 1, column 9: cannot read '7777777777'\n"),
    ({"prog.s": f"mov rax, {_LONG}".encode()}, _CHECK,
     f"line 1, column 1: bad number '{_LONG}'"),
    ({"prog.s": f"mov rax, [rbx + {_LONG}]".encode()}, _CHECK,
     f"line 1, column 1: bad number '[rbx + {_LONG}]'"),
    ({"prog.s": f"@ghost insert_walk va={_LONG} pa=0x0".encode()}, _CHECK,
     f"line 1, column 1: bad number '{_LONG}'"),
    ({"state.json": f'{{"registers": {{"rax": "{_LONG}"}}}}'.encode()},
     _WALK, f"state.json: bad number '{_LONG}' for register rax\n"),
    ({"state.json": f'{{"memory": {{"{_LONG}": {{}}}}}}'.encode()}, _WALK,
     f"state.json: bad number '{_LONG}' for memory frame\n"),
    ({"state.json": f'{{"registers": {{"rax": {_LONG}}}}}'.encode()}, _WALK,
     f"state.json: register rax must be a 0x-hex string, got {_LONG}\n"),
    ({}, _CHECK[:-1] + (_LONG,), f"bad --root: '{_LONG}'\n"),
    ({}, _WALK[:-1] + (_LONG,), f"bad --va: '{_LONG}'\n"),
    # a 4,000-digit hex displacement, whose decimal passes that limit:
    # one not a multiple of 8, one that is
    ({"prog.s": f"mov rax, [rbx + 0x{'f' * 4000}]".encode()}, _CHECK,
     f"line 1, column 1: displacement 0x{'f' * 4000} is not a multiple of "
     "8\n"),
    ({"prog.s": f"mov rax, [rbx + 0x{'8' * 4000}]".encode()}, _CHECK,
     f"line 1, column 1: displacement 0x{'8' * 4000} out of range\n"),
    # a frame's "*" word that is no word
    ({"state.json": b'{"memory": {"0x5": {"0x0": "0x1", "*": "0xg"}}}'},
     _WALK, "state.json: bad number '0xg' for memory word 0x5:*\n"),
    # a va that is not canonical (bits 63..48 differ from bit 47), at each
    # reader of a va
    ({"state.json": b'{"registry": {"0x100000": '
                    b'{"0xffff000000200000": "0x5000"}}}'}, _WALK,
     "state.json: walk map 0x100000 key 0xffff000000200000 is not "
     "canonical\n"),
    ({"pre.txt": b"emp * 0xffff000000200000 |->v 0x0"}, _CHECK,
     "line 1, column 7: va 0xffff000000200000 is not canonical\n"),
    ({"prog.s": b"skip\n@assert { 0x800000000000 |->vpte 0x5000 0x0 }\n"},
     _CHECK, "line 2, column 2: va 0x800000000000 is not canonical\n"),
    ({"prog.s": b"@ghost remove_walk va=0x4000000200000\n"}, _CHECK,
     "line 1, column 1: ghost va=0x4000000200000 is not canonical\n"),
    ({}, _WALK[:-1] + ("0xffff000000600000",),
     "--va 0xffff000000600000 is not canonical\n"),
], ids=["pre-not-utf8", "prog-not-utf8", "emit-onto-a-file",
        "emit-under-a-file", "state-nested-1000-deep",
        "state-frame-spelled-twice", "pre-wrappers-330-deep",
        "assert-wrappers-330-deep", "assertion-word-5000-digits",
        "immediate-5000-digits", "displacement-5000-digits",
        "ghost-argument-5000-digits", "state-word-5000-digits",
        "state-key-5000-digits", "state-json-number-5000-digits",
        "root-5000-digits", "va-5000-digits",
        "displacement-4000-hex-f-digits", "displacement-4000-hex-8-digits",
        "state-star-word-bad", "state-walk-map-key-non-canonical",
        "pre-va-non-canonical", "assert-pte-va-non-canonical",
        "ghost-va-non-canonical", "va-non-canonical"])
def test_hostile_input_ends_in_one_error_line(capsys, workdir, monkeypatch,
                                              files, argv, message):
    # an exception escaping main() fails the test, as a traceback would
    tmp, _state_path, _roots = workdir
    monkeypatch.chdir(tmp)
    (tmp / "prog.s").write_text("skip\n")
    (tmp / "pre.txt").write_text("emp\n")
    for name, data in files.items():
        (tmp / name).write_bytes(data)
    code, out, err = invoke(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith(f"error: {message}")
    assert err.count("\n") == 1


def test_add_with_a_negative_immediate_is_a_parse_error(capsys, workdir):
    tmp, state_path, roots = workdir
    prog = tmp / "prog.s"
    prog.write_text("mov rax, 0x1\n\nadd rax, -1\n")
    code, _out, err = invoke(capsys, "run", str(prog), "--state",
                             str(state_path))
    assert code == 2
    assert err == "error: line 3, column 1: immediate -0x1 is not a " \
                  "64-bit word\n"


@pytest.mark.parametrize("state, field", [
    ('{"registers": {"rax": "0x10000000000000000"}}', "register rax"),
    ('{"registers": {"cr3": "-4096"}}', "register cr3"),
    ('{"memory": {"0x100": {"0x8": "0x1ffffffffffffffff"}}}',
     "memory word 0x100:0x8"),
])
def test_state_words_wider_than_64_bits_are_rejected(capsys, tmp_path,
                                                     state, field):
    # the walk kernel masks entries instead of range-checking them, so a
    # wide table entry must not get past the loader
    state_path = tmp_path / "state.json"
    state_path.write_text(state)
    prog = tmp_path / "prog.s"
    prog.write_text("skip\n")
    code, out, err = invoke(capsys, "run", str(prog), "--state",
                            str(state_path))
    assert code == 2 and out == ""
    assert err.startswith(f"error: {state_path}: {field} ")
    assert err.endswith(" is not a 64-bit word\n")
    code, _out, err = invoke(capsys, "walk", "--state", str(state_path),
                             "--root", "0x100000", "--va", "0x0")
    assert code == 2 and field in err


@pytest.mark.parametrize("pre, message", [
    ("cr3 |->r 0x0", "column 1: cr3 is tracked by the checker root"),
    ("0x3 |->v 0x0", "column 1: va 0x3 is not word aligned"),
    ("rax |->r {1/0} 0", "column 10: share has denominator 0"),
    ("rax |->r {3/2} 0", "column 1: share 3/2 outside (0, 1]"),
    ("rax |->r {0/1} 0", "column 1: share 0 outside (0, 1]"),
    ("[0x1001](emp)", "column 1: space root 0x1001 is not page aligned"),
    ("phys 0x1:0x3 |->a 0", "column 1: offset 0x3 is not a word slot"),
    ("rax |->r 0x1ffffffffffffffff",
     "column 10: 0x1ffffffffffffffff is not a 64-bit word"),
])
def test_hostile_precondition_is_a_parse_error(capsys, workdir, pre, message):
    tmp, state_path, roots = workdir
    prog = tmp / "prog.s"
    prog.write_text("skip\n")
    pre_path = tmp / "pre.txt"
    pre_path.write_text(pre + "\n")
    code, out, err = invoke(capsys, "check", str(prog), "--state",
                            str(state_path), "--pre", str(pre_path),
                            "--root", f"{roots[0]:#x}")
    assert code == 2 and out == ""
    assert err.startswith(f"error: line 1, {message}")
    assert err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize("command, flag, value, shown", [
    ("walk", "--va", "0x10000000000000000", "0x10000000000000000"),
    ("walk", "--va", "-8", "-0x8"),
    ("walk", "--root", "-4096", "-0x1000"),
    ("check", "--root", "-4096", "-0x1000"),
])
def test_address_arguments_outside_a_word_are_usage_errors(
        capsys, workdir, command, flag, value, shown):
    tmp, state_path, roots = workdir
    prog = tmp / "prog.s"
    prog.write_text("skip\n")
    pre = tmp / "pre.txt"
    pre.write_text("emp\n")
    args = {"--root": f"{roots[0]:#x}", "--va": "0x200000", flag: value}
    argv = ([command, "--state", str(state_path), "--root", args["--root"]]
            + (["--va", args["--va"]] if command == "walk" else
               [str(prog), "--pre", str(pre)]))
    code, out, err = invoke(capsys, *argv)
    assert code == 2 and out == ""
    assert err == f"error: {flag} {shown} is not a 64-bit word\n"


@pytest.mark.parametrize("section, value, field", [
    ("free_list", ["-4096"], "free-list entry -0x1000"),
    ("free_list", ["0x100000000000000000"],
     "free-list entry 0x100000000000000000"),
    ("registry", {"-4096": {}}, "space root -0x1000"),
])
def test_free_list_and_space_roots_outside_a_word_are_usage_errors(
        capsys, tmp_path, section, value, field):
    # a negative free-list entry used to reach the alloc_page stub and end
    # in a traceback from PhysPt
    invoke(capsys, "case", "map_new_page", "--emit", str(tmp_path))
    state = tmp_path / "map_new_page.state.json"
    body = json.loads(state.read_text())
    body[section] = value
    state.write_text(json.dumps(body))
    code, out, err = invoke(capsys, "check",
                            str(tmp_path / "map_new_page.prog"),
                            "--state", str(state),
                            "--pre", str(tmp_path / "map_new_page.pre"),
                            "--root", f"{case_study('map_new_page').root:#x}")
    assert code == 2 and out == ""
    assert err == f"error: {state}: {field} is not a 64-bit word\n"


# --------------------------------------------------------------------------
# One number grammar: command-line words and state files read numbers as
# program and assertion text do


@pytest.mark.parametrize("command, flag, value", [
    ("check", "--root", "1_048_576"),
    ("walk", "--va", "\u0664\u0661\u0669\u0664\u0663\u0660\u0664"),
    ("walk", "--va", "0X400000"),
    ("walk", "--root", " 0x100000"),
    ("walk", "--va", "-0"),
])
def test_address_arguments_are_ascii_hex_or_decimal(capsys, workdir, command,
                                                    flag, value):
    tmp, state_path, roots = workdir
    prog = tmp / "prog.s"
    prog.write_text("skip\n")
    pre = tmp / "pre.txt"
    pre.write_text("emp\n")
    args = {"--root": f"{roots[0]:#x}", "--va": "0x200000", flag: value}
    argv = ([command, "--state", str(state_path), "--root", args["--root"]]
            + (["--va", args["--va"]] if command == "walk" else
               [str(prog), "--pre", str(pre)]))
    code, out, err = invoke(capsys, *argv)
    assert code == 2 and out == ""
    assert err == f"error: bad {flag}: {value!r}\n"


def _check_map_new_page_with(capsys, tmp_path, free_list):
    invoke(capsys, "case", "map_new_page", "--emit", str(tmp_path))
    state = tmp_path / "map_new_page.state.json"
    body = json.loads(state.read_text())
    body["free_list"] = free_list
    state.write_text(json.dumps(body))
    code, out, err = invoke(capsys, "check",
                            str(tmp_path / "map_new_page.prog"),
                            "--state", str(state),
                            "--pre", str(tmp_path / "map_new_page.pre"),
                            "--root", f"{case_study('map_new_page').root:#x}")
    return code, out, err.replace(str(state), "STATE")


@pytest.mark.parametrize("entry, message", [
    ("1_0_0_0", "bad number '1_0_0_0' for free-list entry"),
    ("0X200000", "bad number '0X200000' for free-list entry"),
    ("\u0662", "bad number '\u0662' for free-list entry"),
    ("0x200008", "free-list entry 0x200008 is not page aligned"),
    ("2097160", "free-list entry 0x200008 is not page aligned"),
])
def test_free_list_entries_are_page_addresses_in_the_number_grammar(
        capsys, tmp_path, entry, message):
    code, out, err = _check_map_new_page_with(capsys, tmp_path, [entry])
    assert code == 2 and out == ""
    assert err == f"error: STATE: {message}\n"


def test_free_list_entries_spelled_as_before_still_load(capsys, tmp_path):
    for entry in ("0x200000", "2097152", "0x0200000"):
        code, out, _err = _check_map_new_page_with(capsys, tmp_path, [entry])
        assert code == 0 and out.endswith("result: ok\n")


def _reader_outcomes(text: str) -> list:
    """What each of the five number readers makes of `text`: its value,
    or None when it refuses the text."""
    def outcome(read, errors):
        try:
            return read()
        except errors:
            return None

    def program():
        (step,) = parsing.parse_program(f"mov rax, {text}")
        return step.imm

    def assertion():
        return parsing.parse_assertion(f"rax |->r {text}").val

    return [outcome(lambda: parsing._parse_int(text, 1, 1),
                    parsing.ParseError),
            outcome(program, parsing.ParseError),
            outcome(assertion, parsing.ParseError),
            outcome(lambda: config._word(text, "word"), config.ConfigError),
            outcome(lambda: cli._parse_word(text, "--va"), cli.UsageError)]


# ASCII digits and hex letters, the spellings the grammar refuses (0X, _,
# +, -), and digits from other scripts; at most 16 characters, so that
# every number the grammar reads fits in 64 bits
_NUMBER_TEXT = st.text(
    st.sampled_from("0123456789abcdefABCDEFxX_+-"
                    "\u0663\uff18\u09e7\u00b2"), min_size=1, max_size=16)


# digit strings of up to 6,000 characters, past the 4,300 decimal digits
# int() reads: a word after leading zeros, or a decimal with more digits
# after its leading zeros than the 640 the grammar reads, which no reader
# takes
_LONG_DIGITS = st.one_of(
    st.builds(lambda zeros, word: "0" * zeros + str(word),
              st.integers(0, 5980), st.integers(0, (1 << 64) - 1)),
    st.integers(641, 6000).flatmap(lambda size: st.builds(
        lambda zeros, run: "0" * zeros + (run * size)[:size - zeros],
        st.integers(0, size - 641),
        st.text(st.sampled_from("0123456789"), min_size=1, max_size=8)
        .map(lambda run: "1" + run))))


@settings(max_examples=500, deadline=None)
@given(st.one_of(_NUMBER_TEXT,
                 st.integers(0, (1 << 64) - 1).map(hex),
                 st.integers(0, 10 ** 19 - 1).map(str),
                 _LONG_DIGITS))
def test_the_five_number_readers_agree(text):
    outcomes = _reader_outcomes(text)
    assert outcomes == [outcomes[0]] * 5, (text, outcomes)


def test_the_five_number_readers_read_the_grammar():
    assert _reader_outcomes("0x1f") == [0x1F] * 5
    assert _reader_outcomes("0010") == [10] * 5
    assert _reader_outcomes("0xAb") == [0xAB] * 5
    assert _reader_outcomes("0" * 5000 + "8") == [8] * 5
    # 640 digits after the leading zeros are read (all but _parse_int
    # refuse a value past 64 bits), and 641 are not
    assert _reader_outcomes("0" * 5000 + "7" * 640) == \
        [int("7" * 640)] + [None] * 4
    assert _reader_outcomes("7" * 641) == [None] * 5
    for text in ("1_000", "+5", "-5", "-0", "0X10", "0x", "\u0663"):
        assert _reader_outcomes(text) == [None] * 5, text
