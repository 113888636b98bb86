from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vmcheck.machine import (
    MachineState,
    MovMemFromReg,
    MovRegFromMem,
    MovRegImm,
    MovRegReg,
    MovToCr3FromReg,
    Reg,
    walk,
)
from vmcheck import assertions
from vmcheck.assertions import (
    FULL,
    IASpace,
    L4L1PointsTo,
    Ledger,
    LedgerError,
    OtherSpace,
    PhysLoc,
    PhysPt,
    PredUnmapped,
    Pure,
    RegLoc,
    RegPt,
    SpaceLoc,
    VirtPt,
    WalkLoc,
    lower,
    sep,
)
from vmcheck.checker import (
    AssertStep,
    CallStep,
    GhostInsertWalk,
    GhostRemoveWalk,
    InstrStep,
    INSUFFICIENT_FRACTION,
    MACHINE_DISAGREE,
    MISSING_RESOURCE,
    RESOURCE_ONLY,
    StubEnv,
    StubResult,
    StubSpec,
    UNKNOWN_ROOT,
    UNSOUND_FRAME,
    VALUE_DISAGREEMENT,
    Report,
    _ledger_delta,
    check_double,
    frame_audit,
)
from vmcheck.cases import map_page_case

import oracle
from gen import multi_space_fixture


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
                          [InstrStep(MovRegReg(Reg.RAX, Reg.RBX))],
                          init=state, registry=registry)
    assert not report.ok
    assert report.violation.kind == INSUFFICIENT_FRACTION


def test_reg_move_reads_any_fraction():
    state, registry, roots = fixture()
    pre = sep(RegPt(Reg.RAX, Fraction(1, 2), 0x7),
              RegPt(Reg.RBX, FULL, 0x0))
    report = check_double(pre, roots[0],
                          [InstrStep(MovRegReg(Reg.RBX, Reg.RAX))],
                          init=state, registry=registry)
    assert report.ok
    assert report.final_ledger.get(RegLoc(Reg.RBX)) == (FULL, 0x7)


def test_load_updates_register_claim():
    state, registry, roots = fixture()
    pre = sep(IASpace(), RegPt(Reg.RAX, FULL, 0x7),
              RegPt(Reg.RDI, FULL, 0x20_0000),
              VirtPt(0x20_0000, Fraction(1, 2), 0x1111))
    report = check_double(pre, roots[0],
                          [InstrStep(MovRegFromMem(Reg.RAX, Reg.RDI, 0))],
                          init=state, registry=registry)
    assert report.ok
    assert report.final_ledger.get(RegLoc(Reg.RAX)) == (FULL, 0x1111)
    assert report.final_machine.reg(Reg.RAX) == 0x1111


def test_load_requires_space_witness():
    state, registry, roots = fixture()
    pre = sep(RegPt(Reg.RAX, FULL, 0x7), RegPt(Reg.RDI, FULL, 0x20_0000),
              VirtPt(0x20_0000, FULL, 0x1111))
    report = check_double(pre, roots[0],
                          [InstrStep(MovRegFromMem(Reg.RAX, Reg.RDI, 0))],
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
                          [InstrStep(MovMemFromReg(Reg.RDI, 0, Reg.RAX))],
                          init=state, registry=registry)
    assert not report.ok
    assert report.violation.kind == INSUFFICIENT_FRACTION


def test_store_updates_value_and_machine():
    state, registry, roots = fixture()
    pre = sep(IASpace(), RegPt(Reg.RAX, Fraction(1, 4), 0x7),
              RegPt(Reg.RDI, FULL, 0x20_0000),
              VirtPt(0x20_0000, FULL, 0x1111))
    report = check_double(pre, roots[0],
                          [InstrStep(MovMemFromReg(Reg.RDI, 0, Reg.RAX))],
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
                          [InstrStep(MovToCr3FromReg(Reg.RBX))],
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
                          [InstrStep(MovToCr3FromReg(Reg.RBX))],
                          init=state, registry=registry)
    assert not report.ok
    assert report.violation.kind == MISSING_RESOURCE


def test_cr3_switch_to_unregistered_root():
    state, registry, roots = fixture()
    state.regs[Reg.RBX] = 0xFE000
    pre = sep(IASpace(), RegPt(Reg.RBX, FULL, 0xFE000))
    report = check_double(pre, roots[0],
                          [InstrStep(MovToCr3FromReg(Reg.RBX))],
                          init=state, registry=registry)
    assert not report.ok
    assert report.violation.kind == UNKNOWN_ROOT


def test_framed_virtpt_across_switch_is_unsound():
    state, registry, roots = fixture()
    state.regs[Reg.RBX] = roots[1]
    claim = VirtPt(0x20_0000, FULL, 0x1111)
    pre = switch_pre(roots, (claim,))
    script = [InstrStep(MovToCr3FromReg(Reg.RBX)), AssertStep(claim)]
    report = check_double(pre, roots[0], script, init=state,
                          registry=registry)
    assert not report.ok
    assert report.violation.kind == UNSOUND_FRAME
    warnings = frame_audit(pre, roots[0], script)
    assert len(warnings) == 1
    assert warnings[0].kind == UNSOUND_FRAME
    assert f"{0x20_0000:#x}" in warnings[0].narrative


def test_wrapped_claim_across_switch_passes():
    state, registry, roots = fixture()
    state.regs[Reg.RBX] = roots[1]
    claim = VirtPt(0x20_0000, FULL, 0x1111)
    pre = switch_pre(roots, (OtherSpace(roots[0], claim),))
    script = [InstrStep(MovToCr3FromReg(Reg.RBX)),
              AssertStep(OtherSpace(roots[0], claim))]
    report = check_double(pre, roots[0], script, init=state,
                          registry=registry)
    assert report.ok
    assert frame_audit(pre, roots[0], script) == []


def test_frame_audit_silent_without_switch():
    state, registry, roots = fixture()
    pre = basic_pre(roots)
    assert frame_audit(pre, roots[0], [InstrStep(MovRegImm(Reg.RAX, 1))]) == []


def test_frame_audit_skips_touched_claims():
    state, registry, roots = fixture()
    claim = VirtPt(0x20_0000, FULL, 0x1111)
    pre = switch_pre(roots, (claim, RegPt(Reg.RDI, FULL, 0x20_0000),
                             RegPt(Reg.RAX, FULL, 0x7)))
    script = [InstrStep(MovRegFromMem(Reg.RAX, Reg.RDI, 0)),
              InstrStep(MovToCr3FromReg(Reg.RBX))]
    assert frame_audit(pre, roots[0], script) == []


def chain_claim(state, root, va, pa):
    trace = walk(root, state.mem, va)
    assert trace.ok
    l4, l3, l2, l1 = (s[3].raw for s in trace.steps)
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
    def apply(env: StubEnv) -> StubResult:
        frame_base = env.free_list[env.free_cursor]
        machine = env.machine.copy()
        for off in range(0, 4096, 8):
            machine.mem.setdefault(frame_base >> 12, {})[off] = 0
        machine.regs[Reg.RAX] = frame_base + 3
        produces = sep(RegPt(Reg.RAX, FULL, frame_base + 3),
                       PhysPt(frame_base >> 12, 0, FULL, 0))
        return StubResult(produces=produces, machine=machine,
                          free_cursor=env.free_cursor + 1)

    return StubSpec(name="alloc_page", consumes=(RegPt(Reg.RAX, FULL, None),),
                    apply=apply)


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
    def apply(env: StubEnv) -> StubResult:
        machine = env.machine.copy()
        machine.mem[0x5][0x0] = 0xBAD
        return StubResult(produces=sep(), machine=machine,
                          free_cursor=env.free_cursor)

    stub = StubSpec(name="evil", consumes=(), apply=apply)
    state, registry, roots = fixture()
    pre = sep(IASpace(), VirtPt(0x20_0000, FULL, 0x1111))
    report = check_double(pre, roots[0], [CallStep("evil")],
                          stubs={"evil": stub}, init=state, registry=registry)
    assert not report.ok
    assert report.violation.kind == MACHINE_DISAGREE


def test_rule_locality_in_step_records():
    # a register move's record names exactly the claims it touched
    state, registry, roots = fixture()
    pre = sep(IASpace(), RegPt(Reg.RAX, FULL, 0x7), RegPt(Reg.RBX, FULL, 0))
    report = check_double(pre, roots[0],
                          [InstrStep(MovRegReg(Reg.RBX, Reg.RAX))],
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
    # a bare state that satisfies nothing; resource mode never looks
    pre = sep(RegPt(Reg.RAX, FULL, 0x9999), RegPt(Reg.RBX, FULL, 0))
    report = check_double(pre, roots[0],
                          [InstrStep(MovRegReg(Reg.RBX, Reg.RAX))],
                          mode=RESOURCE_ONLY, init=MachineState(),
                          registry=registry)
    assert report.ok
    assert report.final_ledger.get(RegLoc(Reg.RBX)) == (FULL, 0x9999)


def test_reports_are_deterministic():
    state, registry, roots = fixture()
    pre = basic_pre(roots)
    script = [InstrStep(MovRegFromMem(Reg.RAX, Reg.RDI, 0)),
              AssertStep(RegPt(Reg.RAX, FULL, 0x1111))]

    def render():
        s, r, _ = fixture()
        report = check_double(pre, roots[0], script, init=s, registry=r)
        return report.to_json(), report.to_text()

    assert render() == render()


# --------------------------------------------------------------------------
# The claim ledger: persistent operations, records from touched locations


_LOCS = (RegLoc(Reg.RAX), RegLoc(Reg.RBX), PhysLoc(1, 0), PhysLoc(1, 8),
         WalkLoc(0x1000, 0x20_0000), WalkLoc(0x2000, 0x20_0000),
         SpaceLoc(0x1000), SpaceLoc(0x2000))

ledger_ops = st.tuples(
    st.sampled_from(("add", "consume", "set_value")), st.sampled_from(_LOCS),
    st.sampled_from((Fraction(1, 512), Fraction(1, 4), Fraction(1, 2), FULL)),
    st.sampled_from((0, 1, None)))


def _apply_op(ledger, op):
    kind, loc, q, val = op
    if kind == "add":
        return ledger.add(loc, q, val or 0)
    if kind == "consume":
        return ledger.consume(loc, q, val)
    return ledger.set_value(loc, val or 0)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.lists(ledger_ops, max_size=5), max_size=10))
def test_step_record_from_touched_locations_matches_full_diff(steps):
    ledger = Ledger(0x1000)
    for ops in steps:
        before = ledger
        for op in ops:
            prior, prior_claims = ledger, dict(ledger.claims)
            try:
                ledger = _apply_op(ledger, op)
            except LedgerError:
                pass
            assert prior.claims == prior_claims  # the receiver is unchanged
        touched = [loc for _kind, loc, _q, _v in ops]
        assert _ledger_delta(before, ledger, touched) == \
            oracle.ledger_delta(before.claims, ledger.claims)


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
            ledger = ledger.add(loc, q, v)
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


def _ordering_calls(monkeypatch, words):
    """Calls of loc_sort_key and of Location.__str__ while checking
    map_page_case(words) in resource mode."""
    case = map_page_case(words)
    calls = [0]

    def counted(fn):
        def wrapper(*args):
            calls[0] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(assertions, "loc_sort_key",
                        counted(assertions.loc_sort_key))
    for cls in (RegLoc, PhysLoc, WalkLoc, SpaceLoc):
        monkeypatch.setattr(cls, "__str__", counted(cls.__str__))
    report = check_double(case.pre, case.root, case.script, stubs=case.stubs,
                          mode=RESOURCE_ONLY, init=case.state,
                          registry=case.registry, free_list=case.free_list)
    monkeypatch.undo()
    assert report.ok, report.violation
    return calls[0]


def test_ordering_work_grows_linearly_with_mapping_width(monkeypatch):
    # sorting or rendering the whole ledger on every step would make the
    # count quadratic in the width: a 4x wider mapping would cost ~16x
    small = _ordering_calls(monkeypatch, 64)
    large = _ordering_calls(monkeypatch, 256)
    assert large / small <= 4.5, (small, large)
