"""Acceptance suite: the ten gate criteria, one test each, at full scale.

Each test prints a `criterion NN <name>: PASS/FAIL` line (visible with
pytest -s or in captured output).
"""

import json
import random
import time
from contextlib import contextmanager
from fractions import Fraction

import pytest

from vmcheck.machine import (
    FrameUnmapped,
    MachineState,
    MovRegFromMem,
    MovRegImm,
    MovMemFromReg,
    MovToCr3FromMem,
    MovToCr3FromReg,
    MovRegReg,
    AddRegImm,
    MovRegFromCr3,
    MovMemFromCr3,
    NonCanonical,
    NotPresent,
    Reg,
    StepOpts,
    run,
    split_va,
    synth_tables,
    translate,
    walk,
)
from vmcheck.assertions import (
    FULL,
    IASpace,
    Ledger,
    OtherSpace,
    PhysLoc,
    PhysPt,
    RegLoc,
    RegPt,
    Sep,
    SpaceLoc,
    SumExceedsOne,
    VirtPt,
    WalkLoc,
    lower,
    machine_sat,
    sep,
)
from vmcheck.ghost import ias_check
from vmcheck.checker import (
    AssertStep,
    COEXEC,
    CheckState,
    GhostRemoveWalk,
    InstrStep,
    UNSOUND_FRAME,
    Violation,
    apply_rule,
    check_double,
    frame_audit,
)
from vmcheck.cases import MAP_FPADDR, MAP_VA, SWTCH_OLD_REGS, case_study
from vmcheck.cli import main as cli_main
from vmcheck.config import dump_config, load_config
from vmcheck.parsing import parse_assertion, parse_program, print_assertion, print_program

import oracle
from gen import build, join, leaf_pool, multi_space_fixture, random_assertion
from oracle import is_fact, normalize

CHECK_OPTS = StepOpts(enforce_rw=True, set_accessed=False)


@contextmanager
def criterion(num, name):
    try:
        yield
    except BaseException:
        print(f"criterion {num:02d} {name}: FAIL")
        raise
    print(f"criterion {num:02d} {name}: PASS")


def adapt(result):
    if isinstance(result, int):
        return ("ok", result)
    if isinstance(result, NotPresent):
        return ("not-present", result.level)
    if isinstance(result, FrameUnmapped):
        return ("frame-unmapped", result.phys)
    if isinstance(result, NonCanonical):
        return ("non-canonical", result.va)
    raise AssertionError(f"unexpected result {result!r}")


# --------------------------------------------------------------------------


def test_criterion_1_translation_oracle_equivalence():
    with criterion(1, "translation-oracle-equivalence"):
        started = time.monotonic()
        rng = random.Random(2024)
        compared = 0
        for _ in range(1000):
            root, mem, vas = oracle.random_table_config(rng)
            vas = (vas * 3)[:10]
            for va in vas:
                got = adapt(translate(root, mem, va))
                want = oracle.naive_walk(root, mem, va)
                assert got == want, f"va {va:#x}: {got} != {want}"
                compared += 1
        elapsed = time.monotonic() - started
        assert compared == 10_000
        assert elapsed < 10.0, f"took {elapsed:.1f}s"


def test_criterion_2_fraction_conservation():
    with criterion(2, "fraction-conservation"):
        root = 0x1000
        slot = PhysLoc(0x103, 0x0)
        slice_ledger = build(root, {slot: (Fraction(1, 512), 0x5003)})
        total = Ledger(root)
        for _ in range(512):
            total = join(total, slice_ledger)
        assert total.get(slot) == (Fraction(1), 0x5003)
        with pytest.raises(SumExceedsOne):
            join(total, slice_ledger)
        # randomized split/join stress never exceeds the full share
        rng = random.Random(99)
        walk = WalkLoc(root, 0x20_0000)
        for _ in range(300):
            ledger = build(root, {walk: (FULL, 0x5000)})
            outstanding = []
            for _ in range(rng.randrange(1, 40)):
                if outstanding and rng.random() < 0.5:
                    q = outstanding.pop()
                    ledger = ledger.add(walk, ledger.share(q), 0x5000)
                else:
                    held = ledger.get(walk)[0]
                    q = held / rng.choice([2, 3, 5, 512])
                    ledger = ledger.consume(walk, ledger.share(q), 0x5000)
                    outstanding.append(q)
                assert 0 < ledger.get(walk)[0] <= 1
            for q in outstanding:
                ledger = ledger.add(walk, ledger.share(q), 0x5000)
            assert ledger.get(walk) == (FULL, 0x5000)


def _no_pushable_wrapper(a):
    """After normalize, no other-space wrapper sits directly on a Sep,
    Emp, nested wrapper, or fact."""
    if isinstance(a, OtherSpace):
        assert not isinstance(a.body, (Sep, OtherSpace))
        assert not isinstance(a.body, type(None))
        assert not is_fact(a.body)
        _no_pushable_wrapper(a.body)
    elif isinstance(a, Sep):
        for p in a.parts:
            _no_pushable_wrapper(p)


def test_criterion_3_modality_laws():
    with criterion(3, "modality-laws"):
        state, registry, roots = multi_space_fixture()
        pool = leaf_pool(state, registry, roots)
        rng = random.Random(31)
        fact_count = 0
        for _ in range(500):
            tree = random_assertion(rng, pool, roots)
            flat = normalize(tree)
            # distribution over separating conjunction, unit elimination,
            # wrapper collapse, and fact intro/elim are all realized
            _no_pushable_wrapper(flat)
            assert normalize(flat) == flat
            # truth is preserved under every root
            for r in roots:
                before = machine_sat(tree, r, state, registry) is None
                after = machine_sat(flat, r, state, registry) is None
                assert before == after
            if is_fact(tree):
                fact_count += 1
                verdicts = {machine_sat(tree, r, state, registry) is None
                            for r in roots}
                assert len(verdicts) == 1
        assert fact_count >= 50  # the generator produces plenty of facts


def test_criterion_4_iaspace_sensitivity():
    with criterion(4, "iaspace-sensitivity"):
        mappings = [
            (0x20_0000, 0x5000, True),
            (0x20_1000, 0x6000, True),
            (0x60_0000, 0x7000, True),
            ((1 << 30) | 0x1000, 0x8000, True),
            ((2 << 30) | 0x2000, 0x9000, True),
            ((1 << 39) | 0x3000, 0xA000, True),
            ((1 << 39) | (1 << 30) | 0x4000, 0xB000, True),
        ]
        mem, root = synth_tables(mappings, alloc_base=0x100)
        theta = {va: pa for va, pa, _ in mappings}
        registry = {root: theta}
        state = MachineState(regs={Reg.CR3: root}, mem=mem)
        assert ias_check(state, root, registry) == []

        prefix_len = {4: 1, 3: 2, 2: 3, 1: 4}
        for target_va, _pa, _w in mappings:
            for level in (4, 3, 2, 1):
                steps, _pa = walk(root, state.mem, target_va)
                slot, entry = steps[4 - level]
                frame, off = slot >> 12, slot & 0xFFF
                state.mem[frame][off] = entry & ~1

                def prefix(va, n):
                    return split_va(va)[:n]

                n = prefix_len[level]
                expected = {va for va in theta
                            if prefix(va, n) == prefix(target_va, n)}
                failures = ias_check(state, root, registry)
                assert {va for va, _ in failures} == expected
                assert all(fault == NotPresent(level, va)
                           for va, fault in failures)
                state.mem[frame][off] = entry  # restore


def test_criterion_5_map_new_page_end_to_end():
    with criterion(5, "map-new-page-end-to-end"):
        case = case_study("map_new_page")
        report = check_double(case.pre, case.root, case.script,
                              stubs=case.stubs, mode=COEXEC, init=case.state,
                              registry=case.registry,
                              free_list=case.free_list)
        assert report.ok, report.violation
        # the final ledger carries the fresh virtual points-to in full
        assert report.final_ledger.get(WalkLoc(case.root, MAP_VA)) == \
            (FULL, MAP_FPADDR)
        assert report.final_ledger.get(
            PhysLoc(MAP_FPADDR >> 12, 0)) == (FULL, 0)
        # and the machine really translates there, to a zeroed word
        assert translate(case.root, report.final_machine.mem,
                         MAP_VA) == MAP_FPADDR
        assert report.final_machine.mem[MAP_FPADDR >> 12][0] == 0


def test_criterion_6_swtch_end_to_end():
    with criterion(6, "swtch-end-to-end"):
        case = case_study("swtch")
        report = check_double(case.pre, case.root, case.script,
                              stubs=case.stubs, mode=COEXEC, init=case.state,
                              registry=case.registry,
                              free_list=case.free_list)
        assert report.ok, report.violation
        machine = report.final_machine
        # the new root is the restore block's word at offset 56
        assert report.final_root == case.state.mem[0x211][56]
        assert machine.reg(Reg.CR3) == report.final_root
        # save block: seven callee-save values at 0..48, old root at 56
        for k, val in enumerate(SWTCH_OLD_REGS):
            assert machine.mem[0x210][8 * k] == val
        assert machine.mem[0x210][56] == case.root
        # pre-switch root-relative claims survive, wrapped to the old root
        wrapped = lower(OtherSpace(case.root, sep(
            IASpace(),
            VirtPt(0x60_0000, FULL, SWTCH_OLD_REGS[0]),
            VirtPt(0x60_0038, FULL, case.root))),
            report.final_root, case.registry)
        assert report.final_ledger.contains(wrapped) is None


def test_criterion_7_frame_rule_unsoundness():
    with criterion(7, "frame-rule-unsoundness"):
        state, registry, roots = multi_space_fixture()
        state.regs[Reg.RBX] = roots[1]
        framed = VirtPt(0x20_0000, FULL, 0x1111)
        base = (IASpace(), RegPt(Reg.RBX, FULL, roots[1]),
                OtherSpace(roots[1], IASpace()))

        bare_pre = sep(*base, framed)
        script = [InstrStep(MovToCr3FromReg(Reg.RBX)), AssertStep(framed)]
        report = check_double(bare_pre, roots[0], script, init=state,
                              registry=registry)
        assert not report.ok
        assert report.violation.kind == UNSOUND_FRAME
        audit = frame_audit(bare_pre, report)
        assert [w.kind for w in audit] == [UNSOUND_FRAME]

        wrapped_pre = sep(*base, OtherSpace(roots[0], framed))
        wrapped_script = [InstrStep(MovToCr3FromReg(Reg.RBX)),
                          AssertStep(OtherSpace(roots[0], framed))]
        report = check_double(wrapped_pre, roots[0], wrapped_script,
                              init=state, registry=registry)
        assert report.ok, report.violation
        assert frame_audit(wrapped_pre, report) == []


# --------------------------------------------------------------------------
# criterion 8: randomized rule-generated scripts


def _coexec_fixture():
    state, registry, roots = multi_space_fixture()
    claims = [IASpace(), OtherSpace(roots[1], IASpace()),
              OtherSpace(roots[2], IASpace()),
              VirtPt(0x20_0000, FULL, 0x1111),
              VirtPt(0x20_1000, Fraction(1, 2), 0x3333),
              OtherSpace(roots[1], VirtPt(0x20_0000, Fraction(1, 2), 0x3333)),
              PhysPt(0x5, 0x8, FULL, 0x2222)]
    for reg in Reg:
        if reg.is_data:
            claims.append(RegPt(reg, FULL, state.reg(reg)))
    return state, registry, roots, sep(*claims)


def _claim_assertion(loc, q, v, ctx):
    if isinstance(loc, RegLoc):
        return RegPt(loc.reg, q, v)
    if isinstance(loc, PhysLoc):
        return PhysPt(loc.frame, loc.off, q, v)
    if isinstance(loc, SpaceLoc):
        node = IASpace()
        return node if loc.root == ctx.root else OtherSpace(loc.root, node)
    if isinstance(loc, WalkLoc):
        data = ctx.ledger.get(PhysLoc(v >> 12, v & 0xFFF))
        if data is None:
            return None
        node = VirtPt(loc.va, min(q, data[0]), data[1])
        return node if loc.root == ctx.root else OtherSpace(loc.root, node)
    return None


def _candidate_steps(rng, ctx, roots):
    """Propose a batch of steps the current ledger might accept."""
    regs = [r for r in Reg if r.is_data]
    pick_reg = lambda: rng.choice(regs)
    walk_claims = [(loc, q, v) for loc, q, v in ctx.ledger.sorted_claims()
                   if isinstance(loc, WalkLoc) and loc.root == ctx.root]
    imm_pool = [0, 8, 0x7, 0x20_0000, 0x20_1000, *roots]
    roll = rng.random()
    if roll < 0.18:
        return [InstrStep(MovRegImm(pick_reg(), rng.choice(imm_pool)))]
    if roll < 0.3:
        return [InstrStep(MovRegReg(pick_reg(), pick_reg()))]
    if roll < 0.38:
        return [InstrStep(AddRegImm(pick_reg(), rng.choice([8, 16, 0x1000])))]
    if roll < 0.46:
        return [InstrStep(MovRegFromCr3(pick_reg()))]
    if roll < 0.62 and walk_claims:
        loc, _q, _v = rng.choice(walk_claims)
        base = pick_reg()
        return [InstrStep(MovRegImm(base, loc.va)),
                InstrStep(MovRegFromMem(pick_reg(), base, 0))]
    if roll < 0.74 and walk_claims:
        loc, _q, pa = rng.choice(walk_claims)
        data = ctx.ledger.get(PhysLoc(pa >> 12, pa & 0xFFF))
        if data is None or data[0] != FULL:
            return []
        base, src = pick_reg(), pick_reg()
        value = rng.choice(imm_pool)
        return [InstrStep(MovRegImm(src, value)),
                InstrStep(MovRegImm(base, loc.va)),
                InstrStep(MovMemFromReg(base, 0, src))
                if rng.random() < 0.8 else InstrStep(MovMemFromCr3(base, 0))]
    if roll < 0.84:
        target = rng.choice(roots)
        if ctx.ledger.get(SpaceLoc(target)) is None:
            return []
        reg = pick_reg()
        if rng.random() < 0.7:
            return [InstrStep(MovRegImm(reg, target)),
                    InstrStep(MovToCr3FromReg(reg))]
        # switch through memory: store the root somewhere readable first
        stores = [(loc, q, v) for loc, q, v in walk_claims
                  if (d := ctx.ledger.get(PhysLoc(v >> 12, v & 0xFFF)))
                  and d[0] == FULL]
        if not stores:
            return []
        loc, _q, _pa = rng.choice(stores)
        base, src = pick_reg(), pick_reg()
        return [InstrStep(MovRegImm(src, target)),
                InstrStep(MovRegImm(base, loc.va)),
                InstrStep(MovMemFromReg(base, 0, src)),
                InstrStep(MovToCr3FromMem(base, 0))]
    if roll < 0.92 and walk_claims:
        loc, q, _v = rng.choice(walk_claims)
        if q == FULL:
            return [GhostRemoveWalk(loc.va)]
        return []
    # assert something currently held
    loc, q, v = rng.choice(ctx.ledger.sorted_claims())
    node = _claim_assertion(loc, q, v, ctx)
    return [AssertStep(node)] if node is not None else []


def _generate_script(rng, target_len=18):
    state, registry, roots, pre = _coexec_fixture()
    ledger = lower(pre, roots[0], registry)
    ctx = CheckState(ledger, {r: dict(t) for r, t in registry.items()},
                     state.copy(), COEXEC)
    script = []
    attempts = 0
    while len(script) < target_len and attempts < 150:
        attempts += 1
        for step in _candidate_steps(rng, ctx, roots):
            if isinstance(apply_rule(ctx, step, len(script)), Violation):
                break
            script.append(step)
    return state, registry, roots, pre, script, ctx


def test_criterion_8_coexecution_soundness():
    with criterion(8, "coexecution-soundness"):
        rng = random.Random(808)
        switches = 0
        for round_no in range(200):
            state, registry, roots, pre, script, final_ctx = \
                _generate_script(rng)
            report = check_double(pre, roots[0], script, init=state,
                                  registry=registry)
            assert report.ok, (round_no, report.violation)
            switches += sum(1 for r in report.records
                            if r.root_before != r.root_after)

            # the machine runs the instruction part without faulting
            instrs = [s.instr for s in script if isinstance(s, InstrStep)]
            outcome = run(state.copy(), instrs, CHECK_OPTS)
            assert isinstance(outcome, MachineState), (round_no, outcome)
            assert outcome.regs == report.final_machine.regs
            assert outcome.mem == report.final_machine.mem

            # every final claim holds in the independently-run final state
            registry_after = final_ctx.registry
            for loc, _q, v in report.final_ledger.sorted_claims():
                if isinstance(loc, RegLoc):
                    assert outcome.reg(loc.reg) == v
                elif isinstance(loc, PhysLoc):
                    assert outcome.mem[loc.frame][loc.off] == v
                elif isinstance(loc, WalkLoc):
                    assert translate(loc.root, outcome.mem, loc.va) == v
                elif isinstance(loc, SpaceLoc):
                    assert ias_check(outcome, loc.root, registry_after) == []
        assert switches >= 20  # the generator does exercise cr3 writes


def test_criterion_9_unmap_roundtrip():
    with criterion(9, "unmap-roundtrip"):
        case = case_study("map_new_page")
        combined = list(case.script) + list(case_study("unmap_page").script)
        report = check_double(case.pre, case.root, combined,
                              stubs=case.stubs, init=case.state,
                              registry=case.registry,
                              free_list=case.free_list)
        assert report.ok, report.violation
        # the walk map is back to its original domain
        assert report.final_ledger.get(WalkLoc(case.root, MAP_VA)) is None
        # a full claim on the freed physical word was released
        assert report.final_ledger.get(PhysLoc(MAP_FPADDR >> 12, 0)) == \
            (FULL, 0)
        # asserting the torn-down mapping is now rejected
        rejected = check_double(
            case.pre, case.root,
            combined + [AssertStep(VirtPt(MAP_VA, FULL, 0))],
            stubs=case.stubs, init=case.state, registry=case.registry,
            free_list=case.free_list)
        assert not rejected.ok


def test_criterion_10_determinism_and_roundtrip(tmp_path, capsys):
    with criterion(10, "determinism-and-roundtrip"):
        outputs = {}
        for run_no in ("a", "b"):
            outdir = tmp_path / run_no
            per_run = []
            for name in ("map_new_page", "unmap_page", "swtch"):
                code = cli_main(["case", name, "--emit", str(outdir)])
                assert code == 0
                capsys.readouterr()  # drain: emit echoes run-specific paths
                case = case_study(name)
                for report_kind in ("text", "json"):
                    code = cli_main([
                        "check", str(outdir / f"{name}.prog"),
                        "--state", str(outdir / f"{name}.state.json"),
                        "--pre", str(outdir / f"{name}.pre"),
                        "--root", f"{case.root:#x}",
                        "--report", report_kind])
                    assert code == 0
                    per_run.append(capsys.readouterr().out)
                code = cli_main([
                    "walk", "--state", str(outdir / f"{name}.state.json"),
                    "--root", f"{case.root:#x}", "--va", f"{MAP_VA:#x}"])
                per_run.append(capsys.readouterr().out)
                per_run.append(
                    (outdir / f"{name}.prog").read_text())
                per_run.append(
                    (outdir / f"{name}.state.json").read_text())
                per_run.append((outdir / f"{name}.pre").read_text())
            # a plain executable program exercises `run` determinism
            prog_lines = [
                line for line in
                (outdir / "swtch.prog").read_text().splitlines()
                if not line.startswith("@")]
            runnable = outdir / "runnable.prog"
            runnable.write_text("\n".join(prog_lines) + "\n")
            code = cli_main([
                "run", str(runnable), "--trace",
                "--state", str(outdir / "swtch.state.json")])
            assert code == 0
            per_run.append(capsys.readouterr().out)
            outputs[run_no] = per_run
        assert outputs["a"] == outputs["b"]

        # parse/print round-trips on every shipped fixture
        outdir = tmp_path / "a"
        for name in ("map_new_page", "unmap_page", "swtch"):
            prog_text = (outdir / f"{name}.prog").read_text()
            script = parse_program(prog_text)
            assert parse_program(print_program(script)) == script
            assert print_program(script) == prog_text
            pre_text = (outdir / f"{name}.pre").read_text().strip()
            pre = parse_assertion(pre_text)
            assert parse_assertion(print_assertion(pre)) == pre
            cfg_text = (outdir / f"{name}.state.json").read_text()
            assert dump_config(load_config(cfg_text)) == cfg_text
