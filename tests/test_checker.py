import ast
import gc
import random
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from vmcheck.machine import (
    AddRegImm,
    MachineState,
    MovMemFromReg,
    MovRegFromMem,
    MovRegImm,
    MovRegReg,
    MovToCr3FromReg,
    Reg,
    ZERO_FRAME,
    chain_slots,
    mem_set,
    put_frame,
    walk,
)
from vmcheck import assertions, checker
from vmcheck import machine as machine_module
from vmcheck.assertions import (
    Emp,
    FULL,
    IASpace,
    L1_SHARE,
    L2_SHARE,
    L3_SHARE,
    L4_SHARE,
    L4L1PointsTo,
    Ledger,
    LedgerError,
    OtherSpace,
    PhysLoc,
    PhysPt,
    PredAligned,
    PredEq,
    PredUnmapped,
    PtePt,
    Pure,
    RegLoc,
    RegPt,
    Sep,
    SpaceLoc,
    VirtPt,
    WalkLoc,
    lower,
    phys_loc,
    sep,
)
from vmcheck.checker import (
    AssertStep,
    CallStep,
    COEXEC,
    GhostInsertWalk,
    GhostPteToVirt,
    GhostRemoveWalk,
    GhostVirtToPte,
    INSUFFICIENT_FRACTION,
    MACHINE_DISAGREE,
    MISSING_RESOURCE,
    RESOURCE_ONLY,
    STUB_PRE_FAILED,
    StubError,
    StubSpec,
    UNKNOWN_ROOT,
    UNSOUND_FRAME,
    VALUE_DISAGREEMENT,
    Report,
    StepRecord,
    Violation,
    _step_claims,
    check_double,
    frame_audit,
)
from vmcheck.cases import (CASE_NAMES, MAP_FPADDR, MAP_VA, _map_fixture,
                           case_study, map_page_case, swtch_case)
from vmcheck.parsing import parse_assertion, parse_program

import oracle
from test_audit import ALIAS_B_VA, DATA_VA, _alias_fixture
from test_caches import _caches
from gen import (MIXED_SHARES, build, edit, fraction_claims, leaf_pool,
                 multi_space_fixture, random_assertion)
from oracle import normalize


def fixture():
    return multi_space_fixture()


def basic_pre(roots):
    return sep(
        IASpace(),
        RegPt(Reg.RAX, FULL, 0x7),
        RegPt(Reg.RDI, FULL, 0x20_0000),
        VirtPt(0x20_0000, FULL, 0x1111),
    )


def test_empty_script_yields_lowered_pre():
    state, registry, roots = fixture()
    pre = basic_pre(roots)
    report = check_double(pre, roots[0], [], init=state, registry=registry)
    assert report.ok
    assert report.final_ledger == lower(pre, roots[0], registry)
    assert report.final_root == roots[0]


def test_reg_move_needs_full_destination():
    state, registry, roots = fixture()
    pre = sep(RegPt(Reg.RAX, Fraction(1, 2), 0x7),
              RegPt(Reg.RBX, FULL, 0x0))
    report = check_double(pre, roots[0],
                          [MovRegReg(Reg.RAX, Reg.RBX)],
                          init=state, registry=registry)
    assert not report.ok
    assert report.violation.kind == INSUFFICIENT_FRACTION


def test_reg_move_reads_any_fraction():
    state, registry, roots = fixture()
    pre = sep(RegPt(Reg.RAX, Fraction(1, 2), 0x7),
              RegPt(Reg.RBX, FULL, 0x0))
    report = check_double(pre, roots[0],
                          [MovRegReg(Reg.RBX, Reg.RAX)],
                          init=state, registry=registry)
    assert report.ok
    assert report.final_ledger.get(RegLoc(Reg.RBX)) == (FULL, 0x7)


def test_load_updates_register_claim():
    state, registry, roots = fixture()
    pre = sep(IASpace(), RegPt(Reg.RAX, FULL, 0x7),
              RegPt(Reg.RDI, FULL, 0x20_0000),
              VirtPt(0x20_0000, Fraction(1, 2), 0x1111))
    report = check_double(pre, roots[0],
                          [MovRegFromMem(Reg.RAX, Reg.RDI, 0)],
                          init=state, registry=registry)
    assert report.ok
    assert report.final_ledger.get(RegLoc(Reg.RAX)) == (FULL, 0x1111)
    assert report.final_machine.reg(Reg.RAX) == 0x1111


def test_load_requires_space_witness():
    state, registry, roots = fixture()
    pre = sep(RegPt(Reg.RAX, FULL, 0x7), RegPt(Reg.RDI, FULL, 0x20_0000),
              VirtPt(0x20_0000, FULL, 0x1111))
    report = check_double(pre, roots[0],
                          [MovRegFromMem(Reg.RAX, Reg.RDI, 0)],
                          init=state, registry=registry)
    assert not report.ok
    assert report.violation.kind == MISSING_RESOURCE
    assert "space" in report.violation.location


def test_store_requires_full_data_claim():
    state, registry, roots = fixture()
    pre = sep(IASpace(), RegPt(Reg.RAX, FULL, 0x7),
              RegPt(Reg.RDI, FULL, 0x20_0000),
              VirtPt(0x20_0000, Fraction(1, 2), 0x1111))
    report = check_double(pre, roots[0],
                          [MovMemFromReg(Reg.RDI, 0, Reg.RAX)],
                          init=state, registry=registry)
    assert not report.ok
    assert report.violation.kind == INSUFFICIENT_FRACTION


def test_store_updates_value_and_machine():
    state, registry, roots = fixture()
    pre = sep(IASpace(), RegPt(Reg.RAX, Fraction(1, 4), 0x7),
              RegPt(Reg.RDI, FULL, 0x20_0000),
              VirtPt(0x20_0000, FULL, 0x1111))
    report = check_double(pre, roots[0],
                          [MovMemFromReg(Reg.RDI, 0, Reg.RAX)],
                          init=state, registry=registry)
    assert report.ok
    assert report.final_ledger.get(PhysLoc(0x5, 0x0)) == (FULL, 0x7)
    assert report.final_machine.mem[0x5][0x0] == 0x7


def switch_pre(roots, extra=()):
    return sep(IASpace(), RegPt(Reg.RBX, FULL, roots[1]),
               OtherSpace(roots[1], IASpace()), *extra)


def test_cr3_switch_moves_root_and_keeps_facts():
    state, registry, roots = fixture()
    state.regs[Reg.RBX] = roots[1]
    pre = switch_pre(roots, (RegPt(Reg.RAX, FULL, 0x7),))
    report = check_double(pre, roots[0],
                          [MovToCr3FromReg(Reg.RBX)],
                          init=state, registry=registry)
    assert report.ok
    assert report.final_root == roots[1]
    # register facts pass through the switch verbatim
    assert report.final_ledger.get(RegLoc(Reg.RAX)) == (FULL, 0x7)
    assert report.final_machine.reg(Reg.CR3) == roots[1]


def test_cr3_switch_requires_target_witness():
    state, registry, roots = fixture()
    state.regs[Reg.RBX] = roots[1]
    pre = sep(IASpace(), RegPt(Reg.RBX, FULL, roots[1]))
    report = check_double(pre, roots[0],
                          [MovToCr3FromReg(Reg.RBX)],
                          init=state, registry=registry)
    assert not report.ok
    assert report.violation.kind == MISSING_RESOURCE


def test_cr3_switch_to_unregistered_root():
    state, registry, roots = fixture()
    state.regs[Reg.RBX] = 0xFE000
    pre = sep(IASpace(), RegPt(Reg.RBX, FULL, 0xFE000))
    report = check_double(pre, roots[0],
                          [MovToCr3FromReg(Reg.RBX)],
                          init=state, registry=registry)
    assert not report.ok
    assert report.violation.kind == UNKNOWN_ROOT


def test_framed_virtpt_across_switch_is_unsound():
    state, registry, roots = fixture()
    state.regs[Reg.RBX] = roots[1]
    claim = VirtPt(0x20_0000, FULL, 0x1111)
    pre = switch_pre(roots, (claim,))
    script = [MovToCr3FromReg(Reg.RBX), AssertStep(claim)]
    report = check_double(pre, roots[0], script, init=state,
                          registry=registry)
    assert not report.ok
    assert report.violation.kind == UNSOUND_FRAME
    warnings = frame_audit(pre, report)
    assert len(warnings) == 1
    assert warnings[0].kind == UNSOUND_FRAME
    assert f"{0x20_0000:#x}" in warnings[0].narrative


def test_wrapped_claim_across_switch_passes():
    state, registry, roots = fixture()
    state.regs[Reg.RBX] = roots[1]
    claim = VirtPt(0x20_0000, FULL, 0x1111)
    pre = switch_pre(roots, (OtherSpace(roots[0], claim),))
    script = [MovToCr3FromReg(Reg.RBX),
              AssertStep(OtherSpace(roots[0], claim))]
    report = check_double(pre, roots[0], script, init=state,
                          registry=registry)
    assert report.ok
    assert frame_audit(pre, report) == []


def audited(pre, script, stubs=None, root=None):
    """(report, frame_audit warnings as (kind, step, location)) of a
    co-execution check on the fixture, with rbx holding space B's root
    and rsi space A's."""
    state, registry, roots = fixture()
    state.regs[Reg.RBX], state.regs[Reg.RSI] = roots[1], roots[0]
    report = check_double(pre, roots[0] if root is None else root, script,
                          stubs=stubs, init=state, registry=registry)
    return report, [(w.kind, w.step, w.location)
                    for w in frame_audit(pre, report)]


def test_frame_audit_silent_without_switch():
    _state, _registry, roots = fixture()
    report, warnings = audited(basic_pre(roots),
                               [MovRegImm(Reg.RAX, 1)])
    assert report.ok and warnings == []


def test_frame_audit_skips_touched_claims():
    _state, _registry, roots = fixture()
    claim = VirtPt(0x20_0000, FULL, 0x1111)
    pre = switch_pre(roots, (claim, RegPt(Reg.RDI, FULL, 0x20_0000),
                             RegPt(Reg.RAX, FULL, 0x7)))
    script = [MovRegFromMem(Reg.RAX, Reg.RDI, 0),
              MovToCr3FromReg(Reg.RBX)]
    report, warnings = audited(pre, script)
    assert report.ok and warnings == []


def test_frame_audit_forgets_registers_at_a_call():
    # the lint reads the checked run, so at a call it knows what the
    # checker knows: the stub consumes rdi and produces it at 0x201000, so
    # the load after the call touches that claim and not the one at
    # 0x200000
    _state, _registry, roots = fixture()

    def apply(state):
        state.machine.regs[Reg.RDI] = 0x20_1000
        return lower(RegPt(Reg.RDI, FULL, 0x20_1000), state.root,
                     state.registry)

    stub = StubSpec(consumes=(RegPt(Reg.RDI, FULL, None),), apply=apply)
    pre = switch_pre(roots, (VirtPt(0x20_0000, FULL, 0x1111),
                             VirtPt(0x20_1000, FULL, 0x3333),
                             RegPt(Reg.RDI, FULL, 0x20_0000),
                             RegPt(Reg.RAX, FULL, 0x7)))
    script = [CallStep("next_page"),
              MovRegFromMem(Reg.RAX, Reg.RDI, 0),
              MovToCr3FromReg(Reg.RBX)]
    report, warnings = audited(pre, script, stubs={"next_page": stub})
    assert report.ok, report.violation
    assert warnings == [(UNSOUND_FRAME, 2, f"walk:{roots[0]:#x}:0x200000")]


@pytest.mark.parametrize("first, refused, untouched", [
    pytest.param("mov rax, rcx", None, ["0x201000"], id="mov rax, rcx"),
    pytest.param("mov rax, [rdi]", None, [], id="mov rax, [rdi]"),
    # rax = cr3 = 0x100000, a va the script holds no walk claim for
    pytest.param("mov rax, cr3", (MISSING_RESOURCE, 1), [],
                 id="mov rax, cr3"),
])
def test_frame_audit_forgets_a_register_it_cannot_follow(first, refused,
                                                         untouched):
    # the checker follows every register it holds a claim on: the first
    # instruction sets rax to 0x200000 (from rcx, or the word at 0x201000)
    # or to the root, and the load through rax reads that va's walk claim.
    # The cr3 row is refused at the load, so its switch is never taken.
    state, registry, roots = fixture()
    mem_set(state.mem, 0x6, 0x0, 0x20_0000)  # the word at 0x201000 in A
    state.regs[Reg.RCX], state.regs[Reg.RDI] = 0x20_0000, 0x20_1000
    state.regs[Reg.RSI] = roots[1]
    pre = parse_assertion(
        f"iaspace * [{roots[1]:#x}](iaspace) * rax |->r 0x7 * rbx |->r 0x0 "
        f"* rcx |->r 0x200000 * rdi |->r 0x201000 * rsi |->r {roots[1]:#x} "
        "* 0x200000 |->v 0x1111 * 0x201000 |->v 0x200000")
    script = parse_program(f"{first}\nmov rbx, [rax]\nmov cr3, rsi\n")
    report = check_double(pre, roots[0], script, init=state,
                          registry=registry)
    assert (None if report.ok else
            (report.violation.kind, report.violation.step)) == refused
    assert [(w.kind, w.step, w.location)
            for w in frame_audit(pre, report)] == \
        [(UNSOUND_FRAME, 2, f"walk:{roots[0]:#x}:{va}") for va in untouched]


@pytest.mark.parametrize("touch", ["mov rax, [rdi]",
                                   "@ghost remove_walk va=0x200000"])
@pytest.mark.parametrize("order", ["before", "after"])
def test_frame_audit_reads_each_walk_under_its_root(touch, order):
    # A and B both map va 0x200000.  Reading or removing A's walk before
    # the switch touches A's claim; doing so after the switch reads B's
    # walk, which leaves A's claim framed, untouched, across the switch
    _state, _registry, roots = fixture()
    pre = switch_pre(roots, (
        VirtPt(0x20_0000, FULL, 0x1111),
        OtherSpace(roots[1], VirtPt(0x20_0000, FULL, 0x3333)),
        RegPt(Reg.RDI, FULL, 0x20_0000), RegPt(Reg.RAX, FULL, 0x7)))
    switch = "mov cr3, rbx"
    lines = [touch, switch] if order == "before" else [switch, touch]
    report, warnings = audited(pre, parse_program("\n".join(lines) + "\n"))
    assert report.ok, report.violation
    root = roots[0] if order == "before" else roots[1]
    assert report.touched == {WalkLoc(root, 0x20_0000)}
    assert warnings == ([] if order == "before" else
                        [(UNSOUND_FRAME, 0, f"walk:{roots[0]:#x}:0x200000")])


def test_frame_audit_takes_the_claims_normalize_leaves_unwrapped():
    # the candidates are the |->v and |->pte claims reached through * with
    # no other-space wrapper on the way: what normalize leaves at the top
    state, registry, roots = fixture()
    pool = leaf_pool(state, registry, roots)
    rng = random.Random(12)
    switch = StepRecord(0, "cr3-switch-reg", (), (), roots[0], roots[1])
    report = Report(root=roots[0], mode=COEXEC, records=(switch,),
                    final_ledger=None, final_machine=None, final_root=None,
                    violation=None)
    for _ in range(300):
        pre = sep(*(random_assertion(rng, pool, roots)
                    for _ in range(rng.randrange(5))))
        flat = normalize(pre)
        parts = flat.parts if isinstance(flat, Sep) else (flat,)
        want = sorted({WalkLoc(roots[0], p.va) for p in parts
                       if isinstance(p, (VirtPt, PtePt))})
        assert [w.location for w in frame_audit(pre, report)] == \
            [str(loc) for loc in want]


# what frame_audit reports of a refused run, which stops at the refusal


def test_frame_audit_of_a_run_refused_before_its_first_step():
    # the declared root is not page aligned: refused at step -1, with no
    # records, so no cr3 write was taken
    _state, _registry, roots = fixture()
    pre = switch_pre(roots, (VirtPt(0x20_0000, FULL, 0x1111),))
    report, warnings = audited(pre, [MovToCr3FromReg(Reg.RBX)],
                               root=roots[0] + 8)
    assert (report.violation.kind, report.violation.step) == \
        (UNKNOWN_ROOT, -1)
    assert report.records == () and warnings == []


def test_frame_audit_ignores_a_cr3_write_after_the_refused_step():
    # the load has no claim on rcx, so the run stops at step 0 and the
    # switch at step 1 is never taken
    _state, _registry, roots = fixture()
    pre = switch_pre(roots, (VirtPt(0x20_0000, FULL, 0x1111),
                             RegPt(Reg.RAX, FULL, 0x7)))
    report, warnings = audited(pre, [
        MovRegFromMem(Reg.RAX, Reg.RCX, 0),
        MovToCr3FromReg(Reg.RBX)])
    assert (report.violation.kind, report.violation.step) == \
        (MISSING_RESOURCE, 0)
    assert warnings == []


def test_frame_audit_counts_the_walk_a_refused_step_read():
    # to B and back to A, then a view naming the wrong pa: the view reads
    # A's walk claim for 0x200000 before it is refused, so that claim
    # counts as touched.  Without the refused step it is untouched.
    _state, _registry, roots = fixture()
    pre = switch_pre(roots, (VirtPt(0x20_0000, FULL, 0x1111),
                             RegPt(Reg.RSI, FULL, roots[0])))
    script = parse_program("mov cr3, rbx\nmov cr3, rsi\n"
                           "@ghost virt_to_pte va=0x200000 pa=0x6000\n")
    report, warnings = audited(pre, script)
    assert (report.violation.kind, report.violation.step) == \
        (VALUE_DISAGREEMENT, 2)
    assert warnings == []
    report, warnings = audited(pre, script[:2])
    assert report.ok
    assert warnings == [(UNSOUND_FRAME, 0, f"walk:{roots[0]:#x}:0x200000")]


@pytest.mark.parametrize("form, args, message", [
    (GhostInsertWalk, (0x40_0003, 0x20_0000), "va=0x400003 is not word"),
    (GhostInsertWalk, (0x40_0000, 0x20_0003), "pa=0x200003 is not word"),
    (GhostRemoveWalk, (0x4,), "va=0x4 is not word"),
    (GhostPteToVirt, (12,), "va=0xc is not word"),
    (GhostVirtToPte, (0x40_0000, 0x7), "pa=0x7 is not word"),
    (GhostInsertWalk, (1 << 64, 0x20_0000), "va=0x10000000000000000 is not a"),
    (GhostInsertWalk, (0x40_0000, -8), "pa=-0x8 is not a 64-bit"),
    (GhostRemoveWalk, (-8,), "va=-0x8 is not a 64-bit"),
    (GhostPteToVirt, (1 << 64,), "va=0x10000000000000000 is not a"),
    (GhostVirtToPte, (0x40_0000, 1 << 64), "pa=0x10000000000000000 is not"),
], ids=lambda v: getattr(v, "__name__", None))
def test_ghost_steps_take_only_word_addresses(form, args, message):
    with pytest.raises(ValueError, match=f"^ghost {message}"):
        form(*args)


def chain_claim(state, root, va, pa):
    steps, result = walk(root, state.mem, va)
    assert isinstance(result, int)
    l4, l3, l2, l1 = (entry for _slot, entry in steps)
    return L4L1PointsTo(va, l4, l3, l2, l1, pa)


def test_ghost_insert_consumes_chain_and_grants_token():
    state, registry, roots = fixture()
    root = roots[0]
    registry = {r: dict(t) for r, t in registry.items()}
    del registry[root][0x20_1000]  # known to the tables, not to the map
    node = chain_claim(state, root, 0x20_1000, 0x6000)
    # the data word claim is held separately; insert only grants the token
    pre = sep(IASpace(), node, PhysPt(0x6, 0x0, FULL, 0x3333),
              Pure(PredUnmapped(0x20_1000)))
    script = [GhostInsertWalk(0x20_1000, 0x6000),
              AssertStep(VirtPt(0x20_1000, FULL, 0x3333))]
    report = check_double(pre, root, script, init=state, registry=registry)
    assert report.ok
    assert report.final_ledger.get(WalkLoc(root, 0x20_1000)) == (FULL, 0x6000)
    # chain shares moved into the invariant
    lowered = lower(node, root, registry)
    for loc in lowered.claims:
        assert report.final_ledger.get(loc) is None


def test_ghost_insert_needs_chain_shares():
    state, registry, roots = fixture()
    root = roots[0]
    registry = {r: dict(t) for r, t in registry.items()}
    del registry[root][0x20_1000]
    pre = sep(IASpace(), Pure(PredUnmapped(0x20_1000)))
    report = check_double(pre, root, [GhostInsertWalk(0x20_1000, 0x6000)],
                          init=state, registry=registry)
    assert not report.ok
    assert report.violation.kind == INSUFFICIENT_FRACTION


@pytest.mark.parametrize("mode", [COEXEC, RESOURCE_ONLY])
def test_a_ghost_insert_of_a_non_canonical_alias_is_refused(mode):
    # map_page_case(2) with its second insert moved to an alias of
    # MAP_VA + 8 that differs in bits 48..63: the machine would fault on
    # any access through it, so no walk may be published there
    alias = 0xFFFF_0000_0000_0000 | (MAP_VA + 8)
    case = map_page_case(2)
    index = next(i for i, s in enumerate(case.script)
                 if s == GhostInsertWalk(MAP_VA + 8, MAP_FPADDR + 8))
    script = list(case.script)
    script[index] = GhostInsertWalk(alias, MAP_FPADDR + 8)
    report = check_double(case.pre, case.root, script, case.stubs, mode,
                          case.state, case.registry, case.free_list)
    assert str(report.violation) == (
        f"step {index}: MissingResource at walk:{case.root:#x}:{alias:#x}: "
        f"va {alias:#x} is not canonical: the machine faults before it walks")


@pytest.mark.parametrize("mode", [COEXEC, RESOURCE_ONLY])
def test_a_va_made_non_canonical_at_run_time_is_refused_by_the_ledger(mode):
    # text takes only canonical vas, but `add` can make one: rdi holds the
    # last word of the lower half, and a load through rdi + 8 finds no walk
    # claim, so the ledger refuses it before the machine faults
    state, registry, roots = fixture()
    state.regs[Reg.RDI] = 0x7FFF_FFFF_FFF8
    pre = sep(IASpace(), RegPt(Reg.RAX, FULL, 0x7),
              RegPt(Reg.RDI, FULL, 0x7FFF_FFFF_FFF8))
    report = check_double(pre, roots[0],
                          parse_program("add rdi, 8\nmov rax, [rdi]\n"),
                          mode=mode, init=state, registry=registry)
    assert str(report.violation) == (
        f"step 1: MissingResource at walk:{roots[0]:#x}:0x800000000000: no "
        "walk claim for va 0x800000000000 in the current space")


@pytest.mark.parametrize("level", [4, 3, 2, 1])
def test_ghost_insert_rejects_not_present_chain_in_resource_mode(level):
    # an entry without its present bit does not justify a walk: the
    # machine's entry at `level` is cleared, the chain is held as shares
    # of its four slots with the machine's values (a not-present
    # walk-chain claim does not even lower), and both modes refuse alike
    state, registry, roots = fixture()
    root = roots[0]
    registry = {r: dict(t) for r, t in registry.items()}
    registry[root] = {}  # no other walk-map entry reads the cleared slot
    field = f"l{level}e"
    good = chain_claim(state, root, 0x20_1000, 0x6000)
    entries = [good.l4e, good.l3e, good.l2e, good.l1e]
    entries[4 - level] &= ~1
    node = L4L1PointsTo(good.va, *entries, good.pa)
    slots = chain_slots(root, node.va, *entries[:3])
    shares = (L4_SHARE, L3_SHARE, L2_SHARE, L1_SHARE)
    frame, off = slots[4 - level] >> 12, slots[4 - level] & 0xFFF
    pre = sep(IASpace(), Pure(PredUnmapped(0x20_1000)),
              *(PhysPt(slot >> 12, slot & 0xFFF, q, entry) for slot, q, entry
                in zip(slots, shares, entries)))
    script = [GhostInsertWalk(0x20_1000, 0x6000)]
    cleared = state.copy()
    mem_set(cleared.mem, frame, off, getattr(node, field))
    if level == 1:
        # a complete walk: the chain's own check names the entry
        want = Violation(VALUE_DISAGREEMENT, 0, None,
                         f"table entry is not present for {node!r} "
                         f"(observed {getattr(node, field)!r})")
    else:
        want = Violation(MISSING_RESOURCE, 0, f"phys:{frame:#x}:{off:#x}",
                         "table slot for va 0x201000 holds no present "
                         "entry in the machine")
    reports = {mode: check_double(pre, root, script, mode=mode, init=cleared,
                                  registry=registry)
               for mode in (RESOURCE_ONLY, COEXEC)}
    assert reports[RESOURCE_ONLY].violation == want
    assert reports[COEXEC].violation == want
    assert reports[RESOURCE_ONLY].to_json().replace(
        '"mode": "resource"', '"mode": "coexec"', 1) == \
        reports[COEXEC].to_json()
    with pytest.raises(assertions.BrokenChain):
        lower(node, root, registry)
    # resource mode with a ledger that contradicts the intact machine: the
    # chain is taken from the machine, and the ledger's claim at the
    # cleared slot disagrees with it
    report = check_double(pre, root, script, mode=RESOURCE_ONLY, init=state,
                          registry=registry)
    assert report.violation == Violation(
        VALUE_DISAGREEMENT, 0, f"phys:{frame:#x}:{off:#x}",
        f"claims disagree on the value at phys:{frame:#x}:{off:#x}")


def test_not_present_insert_reports_alike_in_both_modes():
    # map_new_page, with the L1 entry written one less: 0x200002 is
    # writable but not present, so publishing the walk must fail
    case = map_page_case(1)
    script = list(case.script)
    assert script[2] == CallStep("alloc_phys_page_or_panic")
    script.insert(3, AddRegImm(Reg.RAX, (1 << 64) - 1))
    reports = {mode: check_double(case.pre, case.root, script, case.stubs,
                                  mode=mode, init=case.state,
                                  registry=case.registry,
                                  free_list=case.free_list)
               for mode in (RESOURCE_ONLY, COEXEC)}
    text = reports[RESOURCE_ONLY].to_text()
    assert text.endswith(
        "result: FAIL step 5: ValueDisagreement: table entry is not present "
        "for L4L1PointsTo(va=4194304, l4e=1052675, l3e=1056771, "
        "l2e=1060867, l1e=2097154, pa=2097152) (observed 2097154)\n")
    assert text.replace("mode: resource", "mode: coexec", 1) == \
        reports[COEXEC].to_text()
    assert reports[RESOURCE_ONLY].to_json().replace(
        '"mode": "resource"', '"mode": "coexec"', 1) == \
        reports[COEXEC].to_json()


def test_ghost_remove_roundtrip_restores_ledger():
    state, registry, roots = fixture()
    root = roots[0]
    registry = {r: dict(t) for r, t in registry.items()}
    del registry[root][0x20_1000]
    node = chain_claim(state, root, 0x20_1000, 0x6000)
    pre = sep(IASpace(), node)
    script = [GhostInsertWalk(0x20_1000, 0x6000),
              GhostRemoveWalk(0x20_1000)]
    report = check_double(pre, root, script, init=state, registry=registry)
    assert report.ok
    assert report.final_ledger == lower(pre, root, registry)
    assert report.final_ledger.get(WalkLoc(root, 0x20_1000)) is None


def test_ghost_remove_needs_full_token():
    state, registry, roots = fixture()
    root = roots[0]
    pre = sep(IASpace(), VirtPt(0x20_0000, Fraction(1, 2), 0x1111))
    report = check_double(pre, root, [GhostRemoveWalk(0x20_0000)],
                          init=state, registry=registry)
    assert not report.ok
    assert report.violation.kind == INSUFFICIENT_FRACTION


def make_alloc_stub():
    def apply(state):
        frame_base = state.free_list[state.free_cursor]
        state.free_cursor += 1
        machine = state.machine
        for off in range(0, 4096, 8):
            mem_set(machine.mem, frame_base >> 12, off, 0)
        machine.regs[Reg.RAX] = frame_base + 3
        return lower(sep(RegPt(Reg.RAX, FULL, frame_base + 3),
                         PhysPt(frame_base >> 12, 0, FULL, 0)),
                     state.root, state.registry)

    return StubSpec(consumes=(RegPt(Reg.RAX, FULL, None),), apply=apply)


def test_call_consumes_and_produces():
    state, registry, roots = fixture()
    pre = sep(IASpace(), RegPt(Reg.RAX, FULL, 0x7))
    report = check_double(pre, roots[0], [CallStep("alloc_page")],
                          stubs={"alloc_page": make_alloc_stub()},
                          init=state, registry=registry,
                          free_list=(0x30_0000,))
    assert report.ok
    assert report.final_ledger.get(RegLoc(Reg.RAX)) == (FULL, 0x30_0003)
    assert report.final_ledger.get(PhysLoc(0x300, 0)) == (FULL, 0)
    assert report.final_machine.mem[0x300][0] == 0


def test_call_unknown_stub():
    state, registry, roots = fixture()
    report = check_double(sep(IASpace()), roots[0], [CallStep("nope")],
                          init=state, registry=registry)
    assert not report.ok
    assert report.violation.kind == "StubPreFailed"


def test_lying_stub_is_caught_by_audit():
    # A stub that corrupts a claimed memory word without saying so.
    def apply(state):
        assert state.machine.write_word(0x5, 0x0, 0xBAD) is None
        return lower(sep(), state.root)

    stub = StubSpec(consumes=(), apply=apply)
    state, registry, roots = fixture()
    pre = sep(IASpace(), VirtPt(0x20_0000, FULL, 0x1111))
    report = check_double(pre, roots[0], [CallStep("evil")],
                          stubs={"evil": stub}, init=state, registry=registry)
    assert not report.ok
    assert report.violation.kind == MACHINE_DISAGREE
    assert state.mem[0x5][0x0] == 0x1111


def test_stub_promise_is_audited():
    # a stub that promises a register value its effect did not set: the
    # audit of just the produced claims names the broken one
    def apply(state):
        return lower(RegPt(Reg.RAX, FULL, 0x42), state.root, state.registry)

    stub = StubSpec(consumes=(RegPt(Reg.RAX, FULL, None),), apply=apply)
    state, registry, roots = fixture()
    pre = sep(IASpace(), RegPt(Reg.RAX, FULL, 0x7))
    report = check_double(pre, roots[0], [CallStep("liar")],
                          stubs={"liar": stub}, init=state, registry=registry)
    assert report.violation == Violation(
        STUB_PRE_FAILED, 0, "liar", "stub liar promised claims the machine "
        "does not satisfy: reg:rax: ledger 0x42, machine 0x7")


@pytest.mark.parametrize("mode", [COEXEC, RESOURCE_ONLY])
def test_stub_false_pure_predicate_is_rejected(mode):
    # a stub that promises a mapped va is unmapped: the claim is not about
    # the machine, so only the pure check can catch it
    def apply(state):
        return lower(Pure(PredUnmapped(0x20_0000)), state.root,
                     state.registry)

    stub = StubSpec(consumes=(), apply=apply)
    state, registry, roots = fixture()
    report = check_double(sep(IASpace()), roots[0], [CallStep("liar")],
                          stubs={"liar": stub}, mode=mode, init=state,
                          registry=registry)
    assert report.violation == Violation(
        STUB_PRE_FAILED, 0, "liar",
        "stub liar promised a false pure predicate: unmapped 0x200000")


def test_coexec_refuses_a_stub_that_moves_cr3_to_another_root():
    # the effect loads cr3 with the other registered root and promises
    # nothing, so only the audit's cr3 comparison can see it
    def apply(state):
        state.machine.regs[Reg.CR3] = 0x14_0000
        return lower(sep(), state.root)

    case = swtch_case()
    stub = StubSpec(consumes=(), apply=apply)
    report = check_double(case.pre, case.root, [CallStep("hop")],
                          stubs={"hop": stub}, init=case.state,
                          registry=case.registry)
    assert report.violation == Violation(
        STUB_PRE_FAILED, 0, "hop", "stub hop promised claims the machine "
        "does not satisfy: machine cr3 0x140000 differs from checker root "
        "0x100000")


def test_a_stub_that_hands_back_half_a_claim_records_the_net_loss():
    def apply(state):
        return lower(PhysPt(0x210, 0, Fraction(1, 2), 0), state.root,
                     state.registry)

    case = swtch_case()
    stub = StubSpec(consumes=(PhysPt(0x210, 0, FULL, 0),), apply=apply)
    report = check_double(case.pre, case.root, [CallStep("half")],
                          stubs={"half": stub}, init=case.state,
                          registry=case.registry)
    assert report.ok
    (record,) = report.records
    assert (record.consumed, record.produced) == \
        (("phys:0x210:0x0 1/2 0x0",), ())


@pytest.mark.parametrize("mode", [COEXEC, RESOURCE_ONLY])
def test_a_stub_product_conflict_is_refused_at_its_least_location(mode):
    # the precondition holds half of the PTE walk claim and of the L1 slot
    # behind it, and ensure_L1_page hands over both in full: the call joins
    # its product in location order, so the refusal names the slot, the
    # least of the two, not the walk claim its product lowered first
    case = map_page_case(1)
    _state, _registry, _root, pte_addr, slot = _map_fixture()
    pre = sep(case.pre, PtePt(pte_addr, Fraction(1, 2), slot, 0))
    report = check_double(pre, case.root, [CallStep("ensure_L1_page")],
                          stubs=case.stubs, mode=mode, init=case.state,
                          registry=case.registry, free_list=case.free_list)
    assert str(report.violation) == (
        "step 0: InsufficientFraction at phys:0x103:0x0: share sum exceeds "
        "1 at phys:0x103:0x0")


@pytest.mark.parametrize("mode", [COEXEC, RESOURCE_ONLY])
def test_a_stub_that_re_promises_a_held_pure_gone_false_is_refused(mode):
    # the precondition's pure "unmapped MAP_VA" held when it entered; the
    # ghost insert has since mapped MAP_VA, so a stub promising it again
    # is refused
    case = map_page_case(1)
    assert (case.root, PredUnmapped(MAP_VA)) in \
        lower(case.pre, case.root, case.registry).pures
    view = next(index for index, step in enumerate(case.script)
                if isinstance(step, GhostPteToVirt))

    def apply(state):
        return lower(Pure(PredUnmapped(MAP_VA)), state.root, state.registry)

    stubs = dict(case.stubs,
                 liar=StubSpec(consumes=(), apply=apply))
    report = check_double(case.pre, case.root,
                          case.script[:view] + [CallStep("liar")],
                          stubs=stubs, mode=mode, init=case.state,
                          registry=case.registry, free_list=case.free_list)
    assert str(report.violation) == (
        "step 5: StubPreFailed at liar: stub liar promised a false pure "
        "predicate: unmapped 0x400000")


@pytest.mark.parametrize("mode", [COEXEC, RESOURCE_ONLY])
@pytest.mark.parametrize("promise", [Pure(PredEq(0x1, 0x2)), Emp()],
                         ids=("false-pure", "emp"))
def test_a_stub_that_writes_a_walk_map_is_refused_and_undone(mode, promise):
    # walk maps are the checker's ghost state, which a stub only reads: a
    # call whose stub writes 0x500000 -> 0x9000 into one is refused before
    # its promise is looked at, in both modes, and the refusal leaves the
    # walk map as it was
    case = map_page_case(1)
    seen = []

    def apply(state):
        seen.append(state)
        state.registry[state.root][0x50_0000] = 0x9000
        return lower(promise, state.root, state.registry)

    stubs = dict(case.stubs, meddle=StubSpec(consumes=(), apply=apply))
    report = check_double(case.pre, case.root, [CallStep("meddle")],
                          stubs=stubs, mode=mode, init=case.state,
                          registry=case.registry, free_list=case.free_list)
    assert report.violation == Violation(
        STUB_PRE_FAILED, 0, "meddle", "stub meddle changed a walk map")
    (state,) = seen
    assert state.registry == case.registry
    assert 0x50_0000 not in state.registry[case.root]


def test_the_alloc_stub_refuses_a_free_list_entry_off_a_page():
    # load_config refuses this list; only the Python API can pass it
    case = map_page_case()
    report = check_double(case.pre, case.root, case.script, stubs=case.stubs,
                          init=case.state, registry=case.registry,
                          free_list=(0x20_0008,))
    assert str(report.violation) == (
        "step 2: StubPreFailed at alloc_phys_page_or_panic: free-list entry "
        "0x200008 is not page aligned")


def test_rule_locality_in_step_records():
    # a register move's record names exactly the claims it touched
    state, registry, roots = fixture()
    pre = sep(IASpace(), RegPt(Reg.RAX, FULL, 0x7), RegPt(Reg.RBX, FULL, 0))
    report = check_double(pre, roots[0],
                          [MovRegReg(Reg.RBX, Reg.RAX)],
                          init=state, registry=registry)
    assert report.ok
    (record,) = report.records
    assert record.rule == "reg-from-reg"
    assert record.consumed == ("reg:rbx 1 0x0",)
    assert record.produced == ("reg:rbx 1 0x7",)
    assert record.root_before == record.root_after == roots[0]


def test_assert_is_subledger_not_equality():
    state, registry, roots = fixture()
    pre = basic_pre(roots)
    script = [AssertStep(VirtPt(0x20_0000, Fraction(1, 2), 0x1111))]
    report = check_double(pre, roots[0], script, init=state,
                          registry=registry)
    assert report.ok


def test_assert_value_disagreement():
    state, registry, roots = fixture()
    pre = basic_pre(roots)
    script = [AssertStep(RegPt(Reg.RAX, FULL, 0x8))]
    report = check_double(pre, roots[0], script, init=state,
                          registry=registry)
    assert not report.ok
    assert report.violation.kind == VALUE_DISAGREEMENT


def test_precondition_must_hold_on_machine():
    state, registry, roots = fixture()
    pre = sep(IASpace(), RegPt(Reg.RAX, FULL, 0x9999))
    report = check_double(pre, roots[0], [], init=state, registry=registry)
    assert not report.ok
    assert report.violation.kind == MACHINE_DISAGREE
    assert report.violation.step == -1


def test_resource_mode_ignores_machine():
    _state, registry, roots = fixture()
    # a state with only cr3 set satisfies no claim: resource mode steps
    # it but never compares claims with it
    pre = sep(RegPt(Reg.RAX, FULL, 0x9999), RegPt(Reg.RBX, FULL, 0))
    report = check_double(pre, roots[0],
                          [MovRegReg(Reg.RBX, Reg.RAX)],
                          mode=RESOURCE_ONLY,
                          init=MachineState(regs={Reg.CR3: roots[0]}),
                          registry=registry)
    assert report.ok
    assert report.final_ledger.get(RegLoc(Reg.RBX)) == (FULL, 0x9999)


def test_reports_are_deterministic():
    state, registry, roots = fixture()
    pre = basic_pre(roots)
    script = [MovRegFromMem(Reg.RAX, Reg.RDI, 0),
              AssertStep(RegPt(Reg.RAX, FULL, 0x1111))]

    def render():
        s, r, _ = fixture()
        report = check_double(pre, roots[0], script, init=s, registry=r)
        return report.to_json(), report.to_text()

    assert render() == render()


# --------------------------------------------------------------------------
# The claim ledger: operations in place, records from its journal


_LOCS = (RegLoc(Reg.RAX), RegLoc(Reg.RBX), PhysLoc(1, 0), PhysLoc(1, 8),
         WalkLoc(0x1000, 0x20_0000), WalkLoc(0x2000, 0x20_0000),
         SpaceLoc(0x1000), SpaceLoc(0x2000))


def _try(ledger, op):
    """Apply op to the ledger in place: the type of error it raised, or
    None."""
    kind, loc, q, val = op
    try:
        if kind == "add":
            ledger.add(loc, ledger.share(q), val or 0)
        elif kind == "consume":
            ledger.consume(loc, ledger.share(q), val)
        else:
            ledger.set_value(loc, val or 0)
    except (LedgerError, ValueError) as err:
        return type(err)
    return None


mixed_ops = st.tuples(
    st.sampled_from(("add", "consume", "set_value")), st.sampled_from(_LOCS),
    st.sampled_from((Fraction(-1, 2), *MIXED_SHARES)),
    st.sampled_from((0, 1, None)))


def _shares(ledger) -> tuple:
    """A ledger's claims, pures and journal, shares as Fractions."""
    journal = {loc: held and (Fraction(held[0], ledger.den), held[1])
               for loc, held in ledger.journal.items()}
    return fraction_claims(ledger), ledger.pures, journal


@settings(max_examples=200, deadline=None)
@given(st.lists(mixed_ops, max_size=8), st.lists(mixed_ops, max_size=20))
def test_a_refused_ledger_operation_changes_nothing_but_den(setup, ops):
    # refused ops (negative shares, missing claims, disagreeing values,
    # sums past 1) among accepted ones; a 1/3, 2/7 or 5/6 share may grow
    # den, and with it every numerator, but no share
    ledger = Ledger(0x1000)
    for op in setup:
        _try(ledger, op)
    ledger.journal = {}
    for op in ops:
        before = _shares(ledger)
        if _try(ledger, op) is not None:
            assert _shares(ledger) == before


@settings(max_examples=300, deadline=None)
@given(st.lists(mixed_ops, max_size=8), st.lists(mixed_ops, max_size=20))
def test_step_records_from_the_journal_match_the_full_diff(setup, ops):
    # ops repeat locations (8 of them), include refused ones (negative
    # shares, missing claims, disagreeing values), and draw 1/3, 2/7 and
    # 5/6 shares, which rescale the ledger, often after it has journaled
    ledger = Ledger(0x1000)
    for op in setup:
        _try(ledger, op)
    old = fraction_claims(ledger)
    ledger.journal = {}
    for op in ops:
        _try(ledger, op)
    new = fraction_claims(ledger)
    changed = {loc for loc in old.keys() | new.keys()
               if old.get(loc) != new.get(loc)}
    assert changed <= set(ledger.journal)  # the journal names every change
    assert _step_claims(ledger.journal, ledger) == \
        oracle.ledger_delta(old, new)


def test_a_location_changed_once_renders_its_operation_without_arithmetic(
        monkeypatch):
    after = edit(build(0x1000, {RegLoc(Reg.RAX): (FULL, 7),
                                PhysLoc(1, 0): (Fraction(1, 2), 5)}))
    quarter = after.share(Fraction(1, 4))
    (after.consume(RegLoc(Reg.RAX), quarter)
     .add(PhysLoc(1, 0), quarter, 5)
     .add(WalkLoc(0x1000, 0x20_0000), after.share(FULL), 0x3000))
    texts = []

    def share_text(n, den):
        texts.append((n, den))
        return assertions.share_text(n, den)

    monkeypatch.setattr(checker, "share_text", share_text)
    assert _step_claims(after.journal, after) == (
        ("reg:rax 1/4 0x7",),
        ("phys:0x1:0x0 1/4 0x5", "walk:0x1000:0x200000 1 0x3000"))
    # one share text per rendered claim, from its int numerator, in
    # location order
    assert quarter == after.den // 4
    assert texts == [(quarter, after.den), (quarter, after.den),
                     (after.den, after.den)]


def test_a_location_changed_twice_renders_its_net_change():
    # a stub consumes rax and produces it with a new value; a join adds
    # shares of one slot twice
    after = edit(build(0x1000, {RegLoc(Reg.RAX): (FULL, 0),
                                PhysLoc(1, 0): (L1_SHARE, 5)}))
    full, slice_ = after.share(FULL), after.share(L1_SHARE)
    (after.consume(RegLoc(Reg.RAX), full)
     .add(RegLoc(Reg.RAX), full, 0x9003)
     .add(PhysLoc(1, 0), slice_, 5).add(PhysLoc(1, 0), slice_, 5))
    assert _step_claims(after.journal, after) == (
        ("reg:rax 1 0x0",), ("phys:0x1:0x0 1/256 0x5", "reg:rax 1 0x9003"))


def _count_rescales(monkeypatch) -> list:
    """Note, from here on, each ``Ledger.widen`` call that grows its
    ledger's ``den`` (a rescale of every claim), as (old den, d)."""
    rescales = []
    real = assertions.Ledger.widen

    def widen(ledger, d):
        before = ledger.den
        k = real(ledger, d)
        if ledger.den != before:
            rescales.append((before, d))
        return k

    monkeypatch.setattr(assertions.Ledger, "widen", widen)
    return rescales


def test_a_ghost_insert_step_pays_only_for_its_consumes(monkeypatch):
    case = map_page_case(128)
    first = next(i for i, s in enumerate(case.script)
                 if isinstance(s, GhostInsertWalk))
    rescales = _count_rescales(monkeypatch)
    check = _case_state(case, RESOURCE_ONLY)
    for index, step in enumerate(case.script[:first]):
        checker.apply_rule(check, step, index)
    for index in range(first, first + 3):
        record = checker.apply_rule(check, case.script[index], index)
        assert record.rule == "ghost-insert-walk"
        assert len(record.consumed) == 4 and len(record.produced) == 1
    # the chain shares divide the first denominator: no claim is rescaled,
    # from the lowered precondition on
    assert rescales == []


THIRD = Fraction(1, 3)


def _case_state(case, mode):
    """A check state at the start of `case`, on copies of its fixture."""
    return checker.CheckState(
        lower(case.pre, case.root, case.registry),
        {r: dict(t) for r, t in case.registry.items()}, case.state.copy(),
        mode, case.stubs, case.free_list)


def _widened_ctx(state, registry, root, *claims):
    """A resource-mode context whose ledger is lowered from `claims` after
    a third of an unrelated word, so each of them enters a ledger whose
    den was widened to 3 * 512**4; and the oracle's ledger of the same."""
    ledger = lower(Sep((PhysPt(0x5, 0, THIRD, 0x1111), *claims)), root,
                   registry)
    assert ledger.den == 3 * 512 ** 4
    check = checker.CheckState(ledger, registry, state.copy(), RESOURCE_ONLY)
    return check, oracle.FractionLedger().add(PhysLoc(0x5, 0), THIRD, 0x1111)


def _chain_of(state, root, va, pa):
    """The walk-chain claim of va and its four (location, share, entry)."""
    node = chain_claim(state, root, va, pa)
    slots = chain_slots(root, va, node.l4e, node.l3e, node.l2e)
    return node, list(zip(
        map(phys_loc, slots),
        (L4_SHARE, L3_SHARE, L2_SHARE, L1_SHARE),
        (node.l4e, node.l3e, node.l2e, node.l1e)))


def test_ghost_insert_and_remove_after_a_third_widened_the_ledger():
    # lower, insert and remove state the chain shares as numerators over
    # the first den; each must scale them to the widened one
    state, registry, roots = fixture()
    root, va, pa = roots[0], 0x20_1000, 0x6000
    registry = {r: dict(t) for r, t in registry.items()}
    del registry[root][va]
    node, chain = _chain_of(state, root, va, pa)
    ctx, want = _widened_ctx(state, registry, root, IASpace(), node)
    want = want.add(SpaceLoc(root), FULL, root)
    for loc, q, entry in chain:
        want = want.add(loc, q, entry)
    assert fraction_claims(ctx.ledger) == want.claims
    record = checker.apply_rule(ctx, GhostInsertWalk(va, pa), 0)
    for loc, q, entry in chain:
        want = want.consume(loc, q, entry)
    want = want.add(WalkLoc(root, va), FULL, pa)
    assert fraction_claims(ctx.ledger) == want.claims
    assert record.produced == (f"walk:{root:#x}:{va:#x} 1 {pa:#x}",)
    record = checker.apply_rule(ctx, GhostRemoveWalk(va), 1)
    want = want.consume(WalkLoc(root, va), FULL)
    for loc, q, entry in chain:
        want = want.add(loc, q, entry)
    assert fraction_claims(ctx.ledger) == want.claims
    assert va not in ctx.registry[root]


def test_ghost_refusals_after_a_third_widened_the_ledger_are_the_oracles():
    state, registry, roots = fixture()
    root, va, pa = roots[0], 0x20_1000, 0x6000
    walk_maps = {r: dict(t) for r, t in registry.items()}
    del walk_maps[root][va]
    node, chain = _chain_of(state, root, va, pa)
    # insert: half the L1 entry's share is held
    (l1, l1_share, l1e) = chain[3]
    held = [PhysPt(loc[1], loc[2], q, entry) for loc, q, entry in chain[:3]]
    ctx, want = _widened_ctx(state, walk_maps, root, IASpace(), *held,
                             PhysPt(l1[1], l1[2], l1_share / 2, l1e))
    want = want.add(l1, l1_share / 2, l1e)
    for loc, q, entry in chain[:3]:
        want = want.add(loc, q, entry)
    with pytest.raises(oracle.Refusal) as refusal:
        for loc, q, entry in chain:
            want = want.consume(loc, q, entry)
    violation = _refused_leaving_the_ledger(ctx, GhostInsertWalk(va, pa))
    assert (violation.kind, violation.narrative) == \
        (refusal.value.kind, refusal.value.narrative) == \
        (INSUFFICIENT_FRACTION, f"need 1/512 of {l1}, hold 1/1024")
    # remove: a third of the walk token is held
    ctx, want = _widened_ctx(state, registry, root, IASpace(),
                             PtePt(va, THIRD, pa, 0x3333))
    want = want.add(WalkLoc(root, va), THIRD, pa)
    with pytest.raises(oracle.Refusal) as refusal:
        want.consume(WalkLoc(root, va), FULL)
    violation = _refused_leaving_the_ledger(ctx, GhostRemoveWalk(va))
    assert (violation.kind, violation.narrative) == \
        (refusal.value.kind, refusal.value.narrative) == \
        (INSUFFICIENT_FRACTION, f"need 1 of walk:{root:#x}:{va:#x}, hold 1/3")


def test_the_ghost_rules_turn_no_share_into_a_numerator(monkeypatch):
    # insert and remove take FULL and the chain shares as numerators
    # computed once, not through Ledger.share at each step
    calls = []
    real = assertions.Ledger.share
    monkeypatch.setattr(assertions.Ledger, "share",
                        lambda ledger, q: calls.append(q) or real(ledger, q))
    ghost_steps = 0
    for case in (map_page_case(16), case_study("unmap_page")):
        check = _case_state(case, RESOURCE_ONLY)
        for index, step in enumerate(case.script):
            calls.clear()
            checker.apply_rule(check, step, index)
            if isinstance(step, (GhostInsertWalk, GhostRemoveWalk)):
                assert calls == [], step
                ghost_steps += 1
    assert ghost_steps == 17
    assert calls  # the final assertion's shares still go through share


def test_an_accepted_map_page_check_builds_no_walk_chain_claim(monkeypatch):
    # ghost insert checks the chain's ints; an L4L1PointsTo is built only
    # to word a not-present refusal
    built = []
    real = L4L1PointsTo.__new__
    monkeypatch.setattr(L4L1PointsTo, "__new__",
                        lambda cls, *args: built.append(args)
                        or real(cls, *args))
    case = map_page_case(16)
    for mode in (RESOURCE_ONLY, COEXEC):
        report = check_double(case.pre, case.root, case.script, case.stubs,
                              mode=mode, init=case.state,
                              registry=case.registry,
                              free_list=case.free_list)
        assert report.ok, report.violation
    assert built == []
    L4L1PointsTo(0x40_0000, 1, 1, 1, 1, 0)  # the counter counts
    assert len(built) == 1


@pytest.mark.parametrize("mode", (RESOURCE_ONLY, COEXEC))
def test_an_accepted_map_page_check_builds_no_physical_points_to(
        monkeypatch, mode):
    # the stubs hand over ledgers: no PhysPt is built once the case is
    case = map_page_case(64)
    built = []
    real = PhysPt.__new__
    monkeypatch.setattr(PhysPt, "__new__", lambda cls, *args:
                        built.append(args) or real(cls, *args))
    report = check_double(case.pre, case.root, case.script, case.stubs,
                          mode=mode, init=case.state, registry=case.registry,
                          free_list=case.free_list)
    assert report.ok, report.violation
    assert built == []
    PhysPt(0x300, 0, FULL, 0)  # the counter counts
    assert len(built) == 1


@pytest.mark.parametrize("mode", (RESOURCE_ONLY, COEXEC))
def test_the_ghost_inserts_build_each_chain_slot_location_once(
        monkeypatch, mode):
    # with the caches cleared before the check, the 64 inserts of one page
    # share their four chain slots' locations (built at most once in the
    # check), and each insert builds its walk location once, which
    # co-execution's audit then takes from the step's journal
    case = map_page_case(64)
    built, inside = {PhysLoc: 0, WalkLoc: 0}, [False]
    for cls in built:
        def counted(kind, *args, real=cls.__new__):
            built[kind] += inside[0]
            return real(kind, *args)
        monkeypatch.setattr(cls, "__new__", counted)
    apply_rule = checker.apply_rule

    def applying(ctx, script_step, index):
        inside[0] = isinstance(script_step, GhostInsertWalk)
        try:
            return apply_rule(ctx, script_step, index)
        finally:
            inside[0] = False

    monkeypatch.setattr(checker, "apply_rule", applying)
    for cache in _caches():
        cache.cache_clear()
    report = check_double(case.pre, case.root, case.script, case.stubs,
                          mode=mode, init=case.state, registry=case.registry,
                          free_list=case.free_list)
    assert report.ok, report.violation
    assert built[PhysLoc] <= 4
    assert built[WalkLoc] == 64


def _machine_words(machine):
    """A machine's registers, pc and every memory word, as plain values."""
    return (dict(machine.regs), machine.pc,
            {frame: dict(words) for frame, words in machine.mem.items()})


def _refused_leaving_the_ledger(check, script_step, index=0):
    """The refusal of `script_step`, which must leave the state as it was:
    claims, den, walk maps, root, free-list cursor, and the same machine
    with the same registers, pc and memory words."""
    claims, den = dict(check.ledger.claims), check.ledger.den
    held = fraction_claims(check.ledger)
    walk_maps = {root: dict(theta) for root, theta in check.registry.items()}
    root, machine, cursor = check.root, check.machine, check.free_cursor
    words = _machine_words(machine)
    outcome = checker.apply_rule(check, script_step, index)
    assert isinstance(outcome, Violation)
    assert fraction_claims(check.ledger) == held
    assert (check.ledger.claims, check.ledger.den) == (claims, den)
    assert (check.registry, check.root) == (walk_maps, root)
    assert check.free_cursor == cursor
    assert check.machine is machine
    assert _machine_words(machine) == words
    return outcome


def test_a_refused_alloc_call_puts_the_free_list_cursor_back():
    # the precondition holds the free page's first word in full, so the
    # alloc stub's product conflicts with it after the stub has drawn the
    # page: the refusal must hand the page back to the free list
    case = map_page_case(1)
    pre = sep(case.pre, PhysPt(0x200, 0, FULL, 0))
    check = _case_state(replace(case, pre=pre), RESOURCE_ONLY)
    for index in (0, 1):
        assert isinstance(
            checker.apply_rule(check, case.script[index], index), StepRecord)
    assert isinstance(case.script[2], CallStep) and check.free_cursor == 0
    violation = _refused_leaving_the_ledger(check, case.script[2], 2)
    assert str(violation) == (
        "step 2: InsufficientFraction at phys:0x200:0x0: share sum exceeds "
        "1 at phys:0x200:0x0")
    assert check.free_cursor == 0


@pytest.mark.parametrize("mode", [COEXEC, RESOURCE_ONLY])
def test_a_stub_refused_for_a_false_pure_leaves_the_pures_as_they_were(mode):
    # the check state keeps no pure fact: not the precondition's, which
    # lowering hands over, nor the false one the stub's product promises
    def apply(state):
        return lower(Pure(PredEq(0x1, 0x2)), state.root, state.registry)

    state, registry, roots = fixture()
    root = roots[0]
    ledger = lower(sep(IASpace(), Pure(PredAligned(0x20_0000))), root,
                   registry)
    assert ledger.pures == ((root, PredAligned(0x20_0000)),)
    check = checker.CheckState(
        ledger, {r: dict(t) for r, t in registry.items()}, state.copy(), mode,
        {"liar": StubSpec(consumes=(), apply=apply)})
    assert check.pures == ()
    violation = _refused_leaving_the_ledger(check, CallStep("liar"))
    assert str(violation) == ("step 0: StubPreFailed at liar: stub liar "
                              "promised a false pure predicate: 0x1 == 0x2")
    assert check.pures == ()


@pytest.mark.parametrize("mode", [COEXEC, RESOURCE_ONLY])
def test_an_accepted_map_page_check_keeps_no_pure_facts(mode):
    # "unmapped MAP_VA" held when the precondition entered; the ghost
    # insert maps MAP_VA, so a state that kept the fact would end false
    case = map_page_case(1)
    report = check_double(case.pre, case.root, case.script, case.stubs,
                          mode=mode, init=case.state, registry=case.registry,
                          free_list=case.free_list)
    assert report.ok, report.violation
    assert report.final_ledger.pures == ()


# four false facts, which a set of them iterates out of printed order
_FALSE_FACTS = ("pure(0x1 == 0x65) * pure(0x3 == 0x67) * pure(0x5 == 0x69) "
                "* pure(0x7 == 0x6b)")


@pytest.mark.parametrize("mode", [COEXEC, RESOURCE_ONLY])
@pytest.mark.parametrize("site, refusal", [
    ("precondition", "step -1: ValueDisagreement at 0x1 == 0x65: "
                     "precondition pure predicate is false"),
    ("assert", "step 0: ValueDisagreement at 0x1 == 0x65: pure predicate "
               "is false"),
    ("call", "step 0: StubPreFailed at liar: stub liar promised a false "
             "pure predicate: 0x1 == 0x65"),
])
def test_a_check_names_the_first_false_pure_fact_as_printed(site, refusal,
                                                            mode):
    facts = parse_assertion(_FALSE_FACTS)
    lowered = lower(facts, 0x1000)
    assert [str(pred) for _g, pred in lowered.pures] == \
        [part.strip()[5:-1] for part in _FALSE_FACTS.split("*")]
    case = map_page_case(1)
    pre, script, stubs = case.pre, [], dict(case.stubs)
    if site == "precondition":
        pre = sep(pre, facts)
    elif site == "assert":
        script = [AssertStep(facts)]
    else:
        stubs["liar"] = StubSpec((), lambda state: lower(
            facts, state.root, state.registry))
        script = [CallStep("liar")]
    report = check_double(pre, case.root, script, stubs, mode, case.state,
                          case.registry, case.free_list)
    assert str(report.violation) == refusal


# the ways a call is refused after its stub wrote the machine; the last
# two are co-execution's audits of the product and of every claim
_STUB_REFUSALS = ("stub-error", "conflict", "false-pure", "product-audit",
                  "full-audit")


@settings(max_examples=25, deadline=None)
@given(rax=st.integers(0, (1 << 64) - 1), held=st.booleans(),
       value=st.integers(0, (1 << 64) - 1))
@pytest.mark.parametrize("mode, way", [
    (mode, way) for mode in (COEXEC, RESOURCE_ONLY) for way in _STUB_REFUSALS
    if mode == COEXEC or not way.endswith("audit")])
def test_a_call_refused_after_its_stub_wrote_in_place_is_undone(
        mode, way, rax, held, value):
    # the stub sets rax and one word, held (phys:0x5:0x0) or free (a
    # fresh frame), in place on the machine the call handed it; each
    # refusal leaves the check's machine object and every word as before
    word = (0x5, 0x0) if held else (0x300, 0x0)
    if way == "full-audit":
        # only a changed held word is left for the full audit to see
        assume(held and value != 0x1111)

    def apply(state):
        state.machine.regs[Reg.RAX] = rax
        mem_set(state.machine.mem, *word, value)
        if way == "stub-error":
            raise StubError("gave up after writing")
        promised = rax + (way == "product-audit")
        parts = [RegPt(Reg.RAX, FULL, promised % (1 << 64))]
        if way == "conflict":
            parts.append(RegPt(Reg.RBX, FULL, 0))
        if way == "false-pure":
            parts.append(Pure(PredEq(0x1, 0x2)))
        return lower(sep(*parts), state.root, state.registry)

    state, registry, roots = fixture()
    pre = sep(IASpace(), RegPt(Reg.RAX, FULL, 0x7), RegPt(Reg.RBX, FULL, 0),
              VirtPt(0x20_0000, FULL, 0x1111))
    walk_maps = {r: dict(t) for r, t in registry.items()}
    check = checker.CheckState(
        lower(pre, roots[0], walk_maps), walk_maps, state.copy(), mode,
        {"writer": StubSpec(consumes=(RegPt(Reg.RAX, FULL, None),),
                            apply=apply)})
    if mode == COEXEC:
        _audited(check)
    violation = _refused_leaving_the_ledger(check, CallStep("writer"))
    assert (violation.kind, violation.location) == {
        "stub-error": (STUB_PRE_FAILED, "writer"),
        "conflict": (INSUFFICIENT_FRACTION, "reg:rbx"),
        "false-pure": (STUB_PRE_FAILED, "writer"),
        "product-audit": (STUB_PRE_FAILED, "writer"),
        "full-audit": (MACHINE_DISAGREE, None),
    }[way]
    assert check.machine.reg(Reg.RAX) == 0x7
    assert check.machine.read_word(0x5, 0x0) == 0x1111
    assert 0x300 not in check.machine.mem


def _takes_the_next_step_after_refusing(make_state, refused, accepted):
    """The refusal of `refused` on a state from `make_state`, after which
    that state takes `accepted` as a fresh one does: the same record and
    the same claims, walk maps, root and machine after it."""
    want_state = make_state()
    want = checker.apply_rule(want_state, accepted, 1)
    check = make_state()
    violation = _refused_leaving_the_ledger(check, refused)
    got = checker.apply_rule(check, accepted, 1)
    assert got == want
    assert fraction_claims(check.ledger) == fraction_claims(want_state.ledger)
    assert (check.registry, check.root) == \
        (want_state.registry, want_state.root)
    assert _machine_words(check.machine) == _machine_words(want_state.machine)
    return violation, got


def test_an_insert_refused_partway_leaves_the_ledger_before_it():
    state, registry, roots = fixture()
    root = roots[0]
    registry = {r: dict(t) for r, t in registry.items()}
    del registry[root][0x20_1000]
    node = chain_claim(state, root, 0x20_1000, 0x6000)
    slots = [phys_loc(slot) for slot in chain_slots(
        root, node.va, node.l4e, node.l3e, node.l2e)]
    # the L4, L3 and L2 shares are held, the L1 share is not: three
    # consumes succeed before the fourth fails
    held = zip(slots[:3], (L4_SHARE, L3_SHARE, L2_SHARE),
               (node.l4e, node.l3e, node.l2e))
    ledger = build(root, {SpaceLoc(root): (FULL, root),
                          **{loc: (q, v) for loc, q, v in held}})
    check = checker.CheckState(ledger, registry, state.copy(), RESOURCE_ONLY)
    violation = _refused_leaving_the_ledger(
        check, GhostInsertWalk(0x20_1000, 0x6000))
    assert (violation.kind, violation.location) == \
        (INSUFFICIENT_FRACTION, str(slots[3]))


@pytest.mark.parametrize("inserted", (True, False), ids=("insert", "remove"))
def test_a_ghost_step_refused_by_the_audit_is_undone(inserted):
    # before the first full audit (reads is None) the ledger's rax claim
    # disagrees with the machine: the ghost step passes its rule, writes
    # the walk map, and the full audit after it refuses the step
    state, registry, roots = fixture()
    root, va = roots[0], 0x20_1000
    if inserted:
        step, claim = GhostInsertWalk(va, 0x6000), chain_claim(
            state, root, va, 0x6000)
    else:
        step, claim = GhostRemoveWalk(va), VirtPt(va, FULL, 0x3333)

    def make_ctx():
        walk_maps = {r: dict(t) for r, t in registry.items()}
        if inserted:
            del walk_maps[root][va]
        return checker.CheckState(
            lower(sep(IASpace(), claim, RegPt(Reg.RAX, FULL, 0x99)), root,
                  walk_maps), walk_maps, state.copy(), COEXEC)

    violation, record = _takes_the_next_step_after_refusing(
        make_ctx, step, MovRegImm(Reg.RAX, 7))
    assert violation == Violation(MACHINE_DISAGREE, 0, None,
                                  "reg:rax: ledger 0x99, machine 0x7")
    assert (record.rule, record.consumed, record.produced) == \
        ("reg-imm", ("reg:rax 1 0x99",), ("reg:rax 1 0x7",))


def test_a_remove_refused_after_its_consume_is_undone():
    # the walk token comes from a |->pte claim; the walk map lacks the
    # entry, which remove finds only after consuming the token
    state, registry, roots = fixture()
    root, va = roots[0], 0x20_1000
    pre = sep(IASpace(), RegPt(Reg.RAX, FULL, 7), RegPt(Reg.RDI, FULL, va),
              PtePt(va, FULL, 0x6000, 0x3333))

    def make_ctx():
        walk_maps = {r: dict(t) for r, t in registry.items()}
        del walk_maps[root][va]
        return checker.CheckState(lower(pre, root, walk_maps), walk_maps,
                                  state.copy(), RESOURCE_ONLY)

    violation, record = _takes_the_next_step_after_refusing(
        make_ctx, GhostRemoveWalk(va),
        MovMemFromReg(Reg.RDI, 0, Reg.RAX))
    assert violation == Violation(VALUE_DISAGREEMENT, 0, None,
                                  "walk map has no entry for 0x201000")
    assert (record.rule, record.consumed, record.produced) == \
        ("store-virt", ("phys:0x6:0x0 1 0x3333",), ("phys:0x6:0x0 1 0x7",))


def test_a_step_refused_after_a_rescale_is_undone():
    # the stub's first consume takes a third, which rescales the ledger;
    # its second finds nothing
    state, registry, roots = fixture()
    third = Fraction(1, 3)
    stubs = {
        "two": StubSpec(consumes=(PhysPt(0x5, 0, third, 0x1111),
                                  PhysPt(0x300, 0, FULL, 0)),
                        apply=lambda state: pytest.fail("the stub ran")),
        "one": StubSpec(consumes=(PhysPt(0x5, 0, third, 0x1111),),
                        apply=lambda state: lower(Emp(), state.root)),
    }

    def make_ctx():
        return checker.CheckState(
            lower(sep(IASpace(), PhysPt(0x5, 0, FULL, 0x1111)), roots[0],
                  registry), registry, state.copy(), RESOURCE_ONLY, stubs)

    violation, record = _takes_the_next_step_after_refusing(
        make_ctx, CallStep("two"), CallStep("one"))
    assert (violation.kind, violation.location) == \
        (STUB_PRE_FAILED, "phys:0x300:0x0")
    assert (record.rule, record.consumed, record.produced) == \
        ("call:one", ("phys:0x5:0x0 1/3 0x1111",), ())


def test_an_error_raised_through_a_step_is_undone():
    # a stub effect that fails with something other than a StubError is
    # not a refusal: the error propagates, and the ledger is as it was
    state, registry, roots = fixture()

    def broken(env):
        raise KeyError("effect")

    stub = StubSpec(consumes=(RegPt(Reg.RAX, FULL, None),), apply=broken)
    check = checker.CheckState(
        lower(sep(IASpace(), RegPt(Reg.RAX, FULL, 7)), roots[0], registry),
        registry, state.copy(), RESOURCE_ONLY, {"broken": stub})
    held = dict(check.ledger.claims)
    with pytest.raises(KeyError, match="effect"):
        checker.apply_rule(check, CallStep("broken"), 0)
    assert check.ledger.claims == held


def test_an_accepted_insert_writes_the_claims_and_walk_map_in_place():
    state, registry, roots = fixture()
    root = roots[0]
    registry = {r: dict(t) for r, t in registry.items()}
    del registry[root][0x20_1000]
    node = chain_claim(state, root, 0x20_1000, 0x6000)
    check = checker.CheckState(lower(sep(IASpace(), node), root, registry),
                               registry, state.copy(), RESOURCE_ONLY)
    claims, theta = check.claims, check.registry[root]
    record = checker.apply_rule(check, GhostInsertWalk(0x20_1000, 0x6000), 0)
    assert record.rule == "ghost-insert-walk"
    assert check.ledger.claims is claims
    assert check.registry[root] is theta
    assert theta[0x20_1000] == 0x6000
    assert claims[WalkLoc(root, 0x20_1000)][1] == 0x6000


def _case_inputs(case):
    """What a check of `case` must leave as it found: its walk maps, its
    machine's registers and memory, and its lowered precondition."""
    return ({r: dict(t) for r, t in case.registry.items()},
            dict(case.state.regs), {f: dict(w) for f, w in case.state.mem.items()},
            fraction_claims(lower(case.pre, case.root, case.registry)))


@pytest.mark.parametrize("mode", (COEXEC, RESOURCE_ONLY))
@pytest.mark.parametrize("make", (lambda: map_page_case(16), swtch_case,
                                  lambda: case_study("unmap_page")),
                         ids=("map_page_16", "swtch", "unmap_page"))
def test_a_check_writes_none_of_its_arguments(make, mode):
    case = make()
    before = _case_inputs(case)
    reports = [check_double(case.pre, case.root, case.script,
                            stubs=case.stubs, mode=mode, init=case.state,
                            registry=case.registry, free_list=case.free_list)
               for _ in range(2)]
    assert reports[0].ok, reports[0].violation
    assert _case_inputs(case) == before
    assert reports[0].to_text() == reports[1].to_text()
    assert reports[0].to_json() == reports[1].to_json()


def test_a_call_refused_partway_leaves_the_ledger_before_it():
    state, registry, roots = fixture()
    # the stub's first consumed claim is held, its second is missing
    stub = StubSpec(consumes=(RegPt(Reg.RAX, FULL, None),
                              PhysPt(0x300, 0, FULL, 0)),
                    apply=lambda env: pytest.fail("the stub ran"))
    check = checker.CheckState(
        lower(sep(IASpace(), RegPt(Reg.RAX, FULL, 7)), roots[0], registry),
        registry, state.copy(), RESOURCE_ONLY, {"two": stub})
    violation = _refused_leaving_the_ledger(check, CallStep("two"))
    assert (violation.kind, violation.location) == \
        (STUB_PRE_FAILED, "phys:0x300:0x0")


def _audited(check):
    """`check` after the full audit that starts a co-execution check."""
    check.reads = {}
    assert checker.audit_ledger(check) is None
    return check


def _swtch_refusal(read_only):
    """A swtch start, with the save page's L1 entry read-only if asked."""
    case = swtch_case()

    def make_state():
        check = _audited(_case_state(case, COEXEC))
        if read_only:
            mem_set(check.machine.mem, 0x103, 0x0, 0x21_0001)
        return check

    return make_state, case.script


def _alias_store_refusal():
    """A store through an alias into space B's L1 table, which breaks the
    held walk claim of DATA_VA in space B."""
    state, registry, root, root_b, _l1_a, l1_b = _alias_fixture()
    state.regs[Reg.RDI] = ALIAS_B_VA
    entry = state.mem[l1_b >> 12][l1_b & 0xFFF]
    pre = sep(IASpace(), RegPt(Reg.RAX, FULL, 0),
              RegPt(Reg.RDI, FULL, ALIAS_B_VA),
              VirtPt(ALIAS_B_VA, FULL, entry),
              OtherSpace(root_b, VirtPt(DATA_VA, FULL, 0x3333)))

    def make_state():
        walk_maps = {r: dict(t) for r, t in registry.items()}
        return _audited(checker.CheckState(lower(pre, root, walk_maps),
                                           walk_maps, state.copy(), COEXEC))

    return make_state, root_b


def _lying_call_refusal():
    """A stub that sets rax = 9 but promises rax = 8: the call is refused
    after the stub wrote the call's machine copy."""
    state, registry, roots = fixture()

    def apply(state):
        state.machine.regs[Reg.RAX] = 9
        return lower(RegPt(Reg.RAX, FULL, 8), state.root)

    stub = StubSpec(consumes=(RegPt(Reg.RAX, FULL, None),), apply=apply)

    def make_state():
        walk_maps = {r: dict(t) for r, t in registry.items()}
        return _audited(checker.CheckState(
            lower(sep(IASpace(), RegPt(Reg.RAX, FULL, 0x7),
                      RegPt(Reg.RBX, FULL, 0)), roots[0], walk_maps),
            walk_maps, state.copy(), COEXEC, {"lie": stub}))

    return make_state


@pytest.mark.parametrize("by", ("ledger", "machine", "audit", "call"))
def test_a_refused_step_leaves_the_state_and_machine_as_they_were(by):
    # an instruction refused by the ledger, by a machine fault or by the
    # audit after it wrote a word, and a call refused after its stub
    # wrote the machine: each leaves the registers, pc, every memory
    # word, the machine reference, claims, den and walk maps as they were,
    # and the state then takes its next step as a fresh one does
    if by == "ledger":
        make_state, script = _swtch_refusal(read_only=False)
        refused, accepted = MovMemFromReg(Reg.RDI, 64, Reg.RBX), \
            script[8]
        want = Violation(MISSING_RESOURCE, 0, "walk:0x100000:0x600040",
                         "no walk claim for va 0x600040 in the current space")
    elif by == "machine":
        make_state, script = _swtch_refusal(read_only=True)
        refused, accepted = script[0], script[8]
        want = Violation(MACHINE_DISAGREE, 0, None,
                         "ledger accepts pc 0 but the machine faults: "
                         "ReadOnly(level=1, va=6291456)")
    elif by == "audit":
        # the audit sees the broken walk: the store wrote the word first
        make_state, root_b = _alias_store_refusal()
        refused = MovMemFromReg(Reg.RDI, 0, Reg.RAX)
        accepted = MovRegImm(Reg.RAX, 5)
        want = Violation(MACHINE_DISAGREE, 0, None,
                         f"walk:{root_b:#x}:{DATA_VA:#x}: ledger 0x6000, "
                         f"machine walk NotPresent(level=1, va={DATA_VA})")
    else:
        make_state, refused = _lying_call_refusal(), CallStep("lie")
        accepted = MovRegImm(Reg.RBX, 5)
        want = Violation(STUB_PRE_FAILED, 0, "lie",
                         "stub lie promised claims the machine does not "
                         "satisfy: reg:rax: ledger 0x8, machine 0x9")
    violation, record = _takes_the_next_step_after_refusing(
        make_state, refused, accepted)
    assert violation == want
    assert record.rule == ("load-virt" if by in ("ledger", "machine")
                           else "reg-imm")


def test_a_call_refused_by_the_full_audit_keeps_the_audit_index():
    # the full audit after a call indexes the walks afresh and stops at
    # its first complaint, here before any walk: the refusal puts the
    # index from before the call back, and a store that breaks a walk is
    # still caught by the per-step audit after it
    make_state, root_b = _alias_store_refusal()

    def apply(state):
        state.machine.regs[Reg.RAX] = 1
        return lower(Emp(), state.root)

    check = make_state()
    check.stubs["clobber"] = StubSpec(consumes=(), apply=apply)
    violation = _refused_leaving_the_ledger(check, CallStep("clobber"))
    assert violation.narrative == "reg:rax: ledger 0x0, machine 0x1"
    assert checker.apply_rule(
        check, MovMemFromReg(Reg.RDI, 0, Reg.RAX), 1) == \
        Violation(MACHINE_DISAGREE, 1, None,
                  f"walk:{root_b:#x}:{DATA_VA:#x}: ledger 0x6000, machine "
                  f"walk NotPresent(level=1, va={DATA_VA})")


# the memo tests repoint MAP_VA's L1 entry from the allocated page to this
# one, present and writable
NEW_PA = 0x30_0000


def _repoint(held, whole=False):
    """A stub that takes `held` of the L1 slot holding MAP_FPADDR's entry,
    points the slot at NEW_PA (with `whole`, by writing the slot's table
    frame whole through the frame writer) and hands back the slot in full
    if it took it in full, else nothing."""
    slot = _map_fixture()[4]
    frame, off = slot >> 12, slot & 0xFFF

    def apply(state):
        mem = state.machine.mem
        if whole:
            put_frame(mem, frame, {**mem[frame], off: NEW_PA | 3})
        else:
            assert state.machine.write_word(frame, off, NEW_PA | 3) is None
        return lower(PhysPt(frame, off, FULL, NEW_PA | 3) if held == FULL
                     else Emp(), state.root)

    return StubSpec((PhysPt(frame, off, held, MAP_FPADDR | 3),), apply)


def _memo_outcomes(script, mode, forget):
    """Each step's outcome on one check state of map_page_case(1) with
    the repointing stubs, going on past refusals; with `forget` the
    page-walk memo is emptied before every step.  Also whether MAP_VA's
    page walk was memoized when the first insert (step 4) was taken."""
    case = map_page_case(1)
    check = _case_state(replace(case, stubs={
        **case.stubs, "repoint": _repoint(FULL),
        "repoint_frame": _repoint(FULL, whole=True),
        "repoint_held": _repoint(FULL - L1_SHARE)}), mode)
    outcomes, memoized = [], None
    for index, script_step in enumerate(script):
        if forget:
            check.machine.mem.walks.clear()
        outcomes.append(checker.apply_rule(check, script_step, index))
        if index == 4:
            memoized = (check.root, MAP_VA >> 12) in check.machine.mem.walks
    return outcomes, memoized


@pytest.mark.parametrize("mode", [COEXEC, RESOURCE_ONLY])
@pytest.mark.parametrize("change, last", [
    # remove, store a new L1 entry, insert again: the store empties it
    ((GhostRemoveWalk(MAP_VA), MovRegImm(Reg.RAX, NEW_PA | 3),
      MovMemFromReg(Reg.R14, 0, Reg.RAX)),
     GhostInsertWalk(MAP_VA, NEW_PA)),
    # a stub writes the L1 entry: the word writer empties it
    ((GhostRemoveWalk(MAP_VA), CallStep("repoint")),
     GhostInsertWalk(MAP_VA, NEW_PA)),
    # a stub writes the L1 entry's table frame whole: the frame writer
    # empties it
    ((GhostRemoveWalk(MAP_VA), CallStep("repoint_frame")),
     GhostInsertWalk(MAP_VA, NEW_PA)),
    # a stub writes the L1 entry that the invariant holds a share of; in
    # co-execution the audit walks the new entry, fills the memo and
    # refuses the call: the undo of its writes empties the memo
    ((CallStep("repoint_held"),), GhostRemoveWalk(MAP_VA)),
], ids=["store", "stub", "frame-stub", "refused-stub"])
def test_the_page_walk_memo_never_outlives_the_machine_it_read(
        mode, change, last):
    # each script maps MAP_VA (whose page walk enters the memo), changes
    # the L1 entry and ends in a ghost step on the same page: every step
    # has the outcome it has when no walk is remembered across steps
    script = [*map_page_case(1).script[:5], *change, last]
    got, memoized = _memo_outcomes(script, mode, forget=False)
    want, _ = _memo_outcomes(script, mode, forget=True)
    assert memoized
    assert got == want
    assert isinstance(got[-1], StepRecord), got[-1]
    refused = [outcome.step for outcome in got
               if isinstance(outcome, Violation)]
    assert refused == ([5] if mode == COEXEC and len(change) == 1 else [])


def test_an_accepted_coexec_swtch_check_copies_init_once_and_a_frame_once(
        monkeypatch):
    # the check steps one machine in place: the only machine copy is of
    # init, and each frame the stores write is copied once, on its first
    # write, away from the frames init shares
    case = swtch_case()
    copies, frames = [], []
    real_copy, real_own = MachineState.copy, machine_module.own_frame

    def own_frame(mem, frame):
        words = real_own(mem, frame)
        if mem is not case.state.mem and words is case.state.mem.get(frame):
            pytest.fail("a write reached a frame init holds")
        frames.append((id(mem), frame, id(words)))
        return words

    monkeypatch.setattr(MachineState, "copy",
                        lambda machine: copies.append(machine)
                        or real_copy(machine))
    monkeypatch.setattr(machine_module, "own_frame", own_frame)
    report = check_double(case.pre, case.root, case.script, case.stubs,
                          mode=COEXEC, init=case.state, registry=case.registry)
    assert report.ok, report.violation
    assert len(copies) == 1 and copies[0] is case.state
    # eight stores into the save page, all into one copy of its frame
    assert len(frames) == 8
    assert {(mem, frame) for mem, frame, _words in frames} == \
        {(id(report.final_machine.mem), 0x210)}
    assert len({words for _mem, _frame, words in frames}) == 1
    assert report.final_machine.mem[0x210] is not case.state.mem[0x210]


@pytest.mark.parametrize("mode", [COEXEC, RESOURCE_ONLY])
def test_a_refused_call_that_wrote_a_frame_whole_leaves_it_shared(mode):
    # the undo of a frame written whole puts back the word map the check
    # shares with init: the store after it must copy that map again, not
    # write init's
    case = swtch_case()
    init = {frame: dict(words) for frame, words in case.state.mem.items()}

    def wipe(state):
        put_frame(state.machine.mem, 0x210, ZERO_FRAME)
        return lower(Pure(PredEq(0x1, 0x2)), state.root)

    state = checker.CheckState(
        lower(case.pre, case.root, case.registry),
        {r: dict(t) for r, t in case.registry.items()}, case.state.copy(),
        mode, {"wipe": StubSpec((), wipe)})
    refused = checker.apply_rule(state, CallStep("wipe"), 0)
    assert refused.kind == STUB_PRE_FAILED, refused
    assert state.machine.mem[0x210] is case.state.mem[0x210]
    store = case.script[0]
    assert isinstance(store, MovMemFromReg)
    assert isinstance(checker.apply_rule(state, store, 0), StepRecord)
    assert state.machine.mem[0x210] is not case.state.mem[0x210]
    assert case.state.mem == init


def test_a_check_copies_no_claims_dict(monkeypatch):
    # every step writes the check's one ledger in place: the final claims
    # are the dict the precondition was lowered into
    case = map_page_case(64)
    lowered = []
    real_lower = checker.lower

    def lower(*args):
        lowered.append(real_lower(*args))
        return lowered[-1]

    monkeypatch.setattr(checker, "lower", lower)
    report = check_double(case.pre, case.root, case.script, stubs=case.stubs,
                          mode=RESOURCE_ONLY, init=case.state,
                          registry=case.registry, free_list=case.free_list)
    assert report.ok
    assert report.final_ledger.claims is lowered[0].claims


def test_equal_ledgers_render_alike_whatever_the_insertion_order():
    claims = [(SpaceLoc(0x2000), FULL, 0x2000),
              (WalkLoc(0x2000, 0x20_0000), FULL, 0x5000),
              (SpaceLoc(0x1000), FULL, 0x1000),
              (WalkLoc(0x1000, 0x20_0000), Fraction(1, 2), 0x6000),
              (RegLoc(Reg.RAX), FULL, 7),
              (PhysLoc(5, 0), FULL, 0x1111)]
    ledgers = []
    for order in (claims, claims[::-1]):
        ledger = Ledger(0x1000)
        for loc, q, v in order:
            ledger = ledger.add(loc, ledger.share(q), v)
        ledgers.append(ledger)
    a, b = ledgers
    assert a == b
    assert a.sorted_claims() == b.sorted_claims()
    assert [loc for loc, _q, _v in a.sorted_claims()][-2:] == \
        [SpaceLoc(0x1000), SpaceLoc(0x2000)]
    reports = [Report(root=0x1000, mode=RESOURCE_ONLY, records=(),
                      final_ledger=ledger, final_machine=None,
                      final_root=0x1000, violation=None)
               for ledger in ledgers]
    assert reports[0].to_text() == reports[1].to_text()
    assert reports[0].to_json() == reports[1].to_json()


@pytest.mark.parametrize("name", CASE_NAMES)
def test_a_coexec_check_leaves_no_cyclic_garbage(name):
    # garbage in cycles waits for a collection, which then lands in some
    # later check and moves its time to verdict
    case = case_study(name)

    def check():
        return check_double(case.pre, case.root, case.script,
                            stubs=case.stubs, mode=COEXEC, init=case.state,
                            registry=case.registry, free_list=case.free_list)

    assert check().ok
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        for _ in range(100):
            check()
        gc.collect()
        garbage = [type(obj).__name__ for obj in gc.garbage]
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
    assert garbage == []


def _ordering_calls(monkeypatch, words):
    """(location comparisons, location renderings) while checking
    map_page_case(words) in resource mode, on cleared caches."""
    case = map_page_case(words)
    calls = {"__lt__": 0, "__str__": 0}
    for cache in _caches():
        cache.cache_clear()

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    # every sort of locations compares with <, which the kinds inherit
    monkeypatch.setattr(assertions.Location, "__lt__",
                        counted("__lt__", tuple.__lt__))
    monkeypatch.setattr(assertions.Location, "__str__",
                        counted("__str__", assertions.Location.__str__))
    report = check_double(case.pre, case.root, case.script, stubs=case.stubs,
                          mode=RESOURCE_ONLY, init=case.state,
                          registry=case.registry, free_list=case.free_list)
    monkeypatch.undo()
    assert report.ok, report.violation
    return calls["__lt__"], calls["__str__"]


def test_ordering_work_grows_linearly_with_mapping_width(monkeypatch):
    # sorting or rendering the whole ledger on every step would make the
    # counts quadratic in the width: a 4x wider mapping would cost ~16x.
    # Sorting what one step made is n log n: at most 4 * log(1024)/log(256)
    small = _ordering_calls(monkeypatch, 64)
    large = _ordering_calls(monkeypatch, 256)
    assert all(s > 0 for s in small), small
    assert large[0] / small[0] <= 5.0, (small, large)
    assert large[1] / small[1] <= 4.5, (small, large)


def test_checker_does_not_use_the_reference_checks():
    # the checker compares claims with the machine only through its own
    # audit: it neither imports the ghost module nor names the reference
    # checks machine_sat and ias_check; and it walks tables only through
    # machine.walk, never naming the walk kernel translate
    modules = set()
    names = set()
    for node in ast.walk(ast.parse(Path(checker.__file__).read_text())):
        if isinstance(node, ast.ImportFrom):
            modules.add(node.module or "")
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            modules.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    assert "machine" in modules
    assert not {"ghost", "vmcheck.ghost"} & modules
    assert not {"ghost", "machine_sat", "ias_check"} & names
    assert "walk" in names and "translate" not in names


def test_only_the_machine_knows_how_a_memory_write_is_recorded():
    # every module writes memory through the machine's writers and reads
    # a step's writes from its journal: none but machine.py names the
    # frame copy, a snapshot of word maps or the walk memo the writers
    # empty, and the machine has no undo but Mem.undo
    banned = {"own_frame", "log", "keep", "restore", "replaced", "walks"}
    for path in sorted(Path(machine_module.__file__).parent.glob("*.py")):
        if path.name == "machine.py":
            continue
        names = set()
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom):
                names.update(alias.name for alias in node.names)
            elif isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
        assert not banned & names, (path.name, banned & names)
    assert not {"log", "keep", "restore", "replaced"} & set(
        dir(machine_module.Mem))


@settings(max_examples=200, deadline=None)
@given(pas=st.lists(st.sampled_from(range(0x1000, 0x9000, 0x1000)),
                    min_size=1, max_size=40),
       order=st.randoms(use_true_random=False))
def test_the_index_by_pa_groups_every_va_of_a_pa(pas, order):
    # against a naive grouping, compared as sets: the first pa is mapped
    # by three vas or more, in any order of the walk map
    pas = [pas[0]] * 2 + pas
    vas = list(range(0x40_0000, 0x40_0000 + 8 * len(pas), 8))
    order.shuffle(vas)
    theta = dict(zip(vas, pas))
    naive = {}
    for va, pa in theta.items():
        naive.setdefault(pa, set()).add(va)
    index = checker._vas_by_pa(theta)
    assert all(type(held) is int or len(held) == len(set(held)) > 1
               for held in index.values())
    assert {pa: {held} if type(held) is int else set(held)
            for pa, held in index.items()} == naive
