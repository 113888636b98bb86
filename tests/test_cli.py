import json

import pytest

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
