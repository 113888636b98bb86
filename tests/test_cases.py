import time
from fractions import Fraction

import pytest

from vmcheck import assertions, checker, ghost, machine
from vmcheck.machine import Reg, translate
from vmcheck.assertions import (
    FULL,
    Ledger,
    PhysLoc,
    PhysPt,
    PredAligned,
    Pure,
    RegLoc,
    RegPt,
    SpaceLoc,
    VirtPt,
    WalkLoc,
    lower,
    machine_sat,
    sep,
)
from vmcheck.checker import (
    AssertStep,
    COEXEC,
    CheckState,
    GhostInsertWalk,
    GhostRemoveWalk,
    RESOURCE_ONLY,
    Reject,
    StepRecord,
    UNSOUND_FRAME,
    VALUE_DISAGREEMENT,
    Violation,
    apply_rule,
    check_double,
    frame_audit,
)
from vmcheck.cases import (
    CASE_NAMES,
    MAP_FPADDR,
    MAP_SIBLING_VA,
    MAP_VA,
    SWTCH_NEW_REGS,
    SWTCH_NEW_STACK_VA,
    SWTCH_OLD_REGS,
    SWTCH_OLD_STACK_VA,
    SWTCH_SAVE_VA,
    SWTCH_SLOTS,
    UnknownCase,
    _pte_page_tables,
    case_study,
    map_page_case,
)
from gen import fraction_claims
from test_checker import chain_claim
import oracle


def run_case(case, mode=COEXEC):
    return check_double(case.pre, case.root, case.script, stubs=case.stubs,
                        mode=mode, init=case.state, registry=case.registry,
                        free_list=case.free_list)


def test_unknown_case():
    with pytest.raises(UnknownCase):
        case_study("nope")


@pytest.mark.parametrize("name", CASE_NAMES)
def test_fixture_satisfies_pre(name):
    case = case_study(name)
    assert machine_sat(case.pre, case.root, case.state, case.registry) is None


@pytest.mark.parametrize("name", CASE_NAMES)
def test_case_passes_coexec(name):
    case = case_study(name)
    report = run_case(case)
    assert report.ok, report.violation
    # the expected final claims are all present (the walk map may have
    # changed during the run, so lower against its final shape)
    expected = lower(case.expected_post, report.final_root,
                     _final_registry(report, case))
    assert report.final_ledger.contains(expected) is None


def _final_registry(report, case):
    # reconstruct: reports do not carry the registry, so re-run is cheap
    # for map_new_page the inserted walk is the only change
    registry = {r: dict(t) for r, t in case.registry.items()}
    if case.name == "map_new_page":
        registry[case.root][MAP_VA] = MAP_FPADDR
    if case.name == "unmap_page":
        registry[case.root].pop(MAP_VA, None)
    return registry


@pytest.mark.parametrize("name", CASE_NAMES)
def test_case_passes_resource_mode(name):
    case = case_study(name)
    report = run_case(case, mode=RESOURCE_ONLY)
    assert report.ok, report.violation


def test_map_new_page_machine_outcome():
    case = case_study("map_new_page")
    report = run_case(case)
    assert report.ok
    machine = report.final_machine
    assert translate(case.root, machine.mem, MAP_VA) == MAP_FPADDR
    assert machine.mem[MAP_FPADDR >> 12][0] == 0
    assert report.final_ledger.get(WalkLoc(case.root, MAP_VA)) == \
        (FULL, MAP_FPADDR)
    assert report.final_ledger.get(PhysLoc(MAP_FPADDR >> 12, 0)) == (FULL, 0)


def test_map_page_case_sizes_are_bounded_by_a_page():
    # a page holds 512 words; outside 1..512 the case is not built at all
    # (513 used to fail later, inside a stub, as a ValueError)
    for words in (1, 512):
        assert map_page_case(words).free_list == (MAP_FPADDR,)
    for words in (0, 513):
        with pytest.raises(ValueError, match="1 to 512 words"):
            map_page_case(words)


def _walk_slots(root, mem, va):
    """((slot byte address, entry), ...) of the four levels of va's walk,
    by the oracle's field decoding."""
    fields, table, slots = oracle.va_fields(va), root // 4096, []
    for index in ("i4", "i3", "i2", "i1"):
        slot = table * 4096 + fields[index] * 8
        slots.append((slot, mem[table][fields[index] * 8]))
        table = oracle.entry_fields(slots[-1][1])["frame"]
    return slots


def _stub_state(case):
    """A check state at the start of `case`, for a stub to run on: a
    stub writes the state's machine, so it gets a copy of the fixture's."""
    return CheckState(Ledger(case.root), case.registry, case.state.copy(),
                      free_list=case.free_list)


@pytest.mark.parametrize("words", (1, 2, 128, 512))
def test_the_l1_stub_hands_over_words_walks_of_interior_shares(words):
    # the stub states each interior entry's share once, summed over the
    # `words` walks; it lowers to the ledger of `words` separate copies
    case = map_page_case(words)
    state, root = case.state, case.root
    product = case.stubs["ensure_L1_page"].apply(_stub_state(case))
    slots = _walk_slots(root, state.mem, MAP_VA)
    l1_slot, l1e = slots[3]
    pte_addr = min(va for va, pa in case.registry[root].items()
                   if pa == l1_slot)
    want = (oracle.FractionLedger()
            .add(RegLoc(Reg.RAX), Fraction(1), pte_addr)
            .add(WalkLoc(root, pte_addr), Fraction(1), l1_slot)
            .add(PhysLoc(l1_slot >> 12, l1_slot & 0xFFF), Fraction(1), l1e))
    for _ in range(words):
        for (slot, entry), level in zip(slots[:3], (4, 3, 2)):
            want = want.add(PhysLoc(slot >> 12, slot & 0xFFF),
                            Fraction(1, 512 ** level), entry)
    assert fraction_claims(product) == want.claims


ALIAS_PAGE_VA = 0x70_0000  # maps the L1 table page below MAP_PTE_PAGE_VA


def _l1_slot_aliased():
    """map_page_case(1)'s fixture with the L1 table page mapped a second
    time, at ALIAS_PAGE_VA: (state, registry, root, the walk map's va of
    MAP_VA's L1 slot, the alias's va of it, the slot)."""
    _mem, _root, pte_addr, slot = _pte_page_tables([])
    mem, root, again, _slot = _pte_page_tables(
        [(ALIAS_PAGE_VA, slot & ~0xFFF, True)])
    assert (again, _slot) == (pte_addr, slot)
    state = map_page_case(1).state
    state = machine.MachineState(dict(state.regs), mem)
    registry = {root: {MAP_SIBLING_VA: 0x9000, pte_addr: slot}}
    alias = ALIAS_PAGE_VA + (slot & 0xFFF)
    return state, registry, root, pte_addr, alias, slot


def test_the_l1_stub_takes_the_least_va_of_the_slot_from_the_index(
        monkeypatch):
    # two vas map the L1 slot once the alias is inserted: the stub hands
    # over the smaller, as a scan of the walk map would, after an insert,
    # a remove, and a refused remove's undo
    state, registry, root, pte_addr, alias, slot = _l1_slot_aliased()
    pre = sep(RegPt(Reg.RAX, FULL, 0), RegPt(Reg.RDI, FULL, MAP_VA),
              chain_claim(state, root, alias, slot))
    stub = map_page_case(1).stubs["ensure_L1_page"]
    check = CheckState(lower(pre, root, registry), registry, state.copy(),
                       RESOURCE_ONLY, {"ensure_L1_page": stub})

    def handed_over():
        theta = check.registry[root]
        assert check.least_va(slot) == min(
            va for va, pa in theta.items() if pa == slot)
        stub.apply(check)
        return check.machine.reg(Reg.RAX)

    assert handed_over() == pte_addr
    assert isinstance(apply_rule(check, GhostInsertWalk(alias, slot), 0),
                      StepRecord)
    assert alias < pte_addr and handed_over() == alias

    def refused(state, step):
        del state.registry[state.root][step.va]
        raise Reject(VALUE_DISAGREEMENT, None, "refused after the write")

    with monkeypatch.context() as patch:
        patch.setitem(checker._RULES, GhostRemoveWalk, refused)
        assert isinstance(apply_rule(check, GhostRemoveWalk(alias), 1),
                          Violation)
    assert handed_over() == alias
    assert isinstance(apply_rule(check, GhostRemoveWalk(alias), 1),
                      StepRecord)
    assert handed_over() == pte_addr
    # both vas in the walk map as the check starts: the index holds both
    registry[root][alias] = slot
    check = CheckState(Ledger(root), registry, state.copy())
    assert check.vas[root] == {0x9000: MAP_SIBLING_VA,
                               slot: (pte_addr, alias)}
    assert check.least_va(slot) == alias
    assert check.least_va(slot + 8) is None


@pytest.mark.parametrize("words", (1, 2, 128, 512))
def test_the_alloc_stub_product_lowers_as_its_canonical_sep(words):
    # the stub hands over the ledger of its spec-level product, rax with
    # the page's present and writable bits, the page's alignment and
    # `words` zeroed words, adding the words without building assertions
    case = map_page_case(words)
    product = case.stubs["alloc_phys_page_or_panic"].apply(_stub_state(case))
    assert product == lower(sep(
        RegPt(Reg.RAX, FULL, MAP_FPADDR + 3), Pure(PredAligned(MAP_FPADDR)),
        *(PhysPt(MAP_FPADDR >> 12, 8 * w, FULL, 0) for w in range(words))),
        case.root, case.registry)
    assert fraction_claims(product) == {
        RegLoc(Reg.RAX): (FULL, MAP_FPADDR + 3),
        **{PhysLoc(MAP_FPADDR >> 12, 8 * w): (FULL, 0) for w in range(words)}}


def test_map_page_iterated_variant_resource():
    # full-page variant: 512 published walks drain the L1 entry claim
    case = map_page_case(words=512)
    report = run_case(case, mode=RESOURCE_ONLY)
    assert report.ok, report.violation
    for w in (0, 17, 511):
        assert report.final_ledger.get(
            WalkLoc(case.root, MAP_VA + 8 * w)) == (FULL, MAP_FPADDR + 8 * w)


def test_map_page_iterated_variant_coexec():
    # the same full page co-executed: each step re-checks only what it
    # could change, so 512 published walks stay well under a second
    case = map_page_case(words=512)
    start = time.perf_counter()
    report = run_case(case)
    elapsed = time.perf_counter() - start
    assert report.ok, report.violation
    assert elapsed <= 1.0, elapsed
    resource = run_case(case, mode=RESOURCE_ONLY)
    assert report.final_ledger == resource.final_ledger


def _kernel_walks(monkeypatch, words, mode=COEXEC):
    """Walks done by the machine's walk kernel while checking
    map_page_case(words) in `mode`."""
    case = map_page_case(words)
    calls = [0]
    kernel = machine.translate

    def counted(*args, **kwargs):
        calls[0] += 1
        return kernel(*args, **kwargs)

    for module in (machine, assertions, ghost, checker):
        monkeypatch.setattr(module, "translate", counted)
    report = run_case(case, mode)
    monkeypatch.undo()
    assert report.ok, report.violation
    return calls[0]


def test_published_walks_cost_the_same_kernel_walks_at_every_width(
        monkeypatch):
    # every word published at MAP_VA lies in one page, whose walk the
    # checker memoizes: the first ghost insert walks it and the rest (and
    # in co-execution, their audits) read the memo, so the case costs the
    # same kernel walks at every width in both modes
    for mode in (RESOURCE_ONLY, COEXEC):
        counts = {_kernel_walks(monkeypatch, words, mode)
                  for words in (1, 16, 128)}
        assert len(counts) == 1, (mode, counts)


def test_coexec_walks_grow_linearly_with_mapping_width(monkeypatch):
    # re-walking every claim and walk-map entry after every step would
    # make the count quadratic: a 4x wider mapping would cost ~16x
    small = _kernel_walks(monkeypatch, 64)
    large = _kernel_walks(monkeypatch, 256)
    assert large / small <= 4.5, (small, large)


def test_coexec_swtch_walks_each_audited_walk_once(monkeypatch):
    # the audit walks each (root, page) it reads once: a held walk claim,
    # the walk-map entries of a held space and every other va in the same
    # page share one translate, and swtch writes no table, so no walk is
    # redone (18 when each (root, va) was walked once per pass)
    case = case_study("swtch")
    claims = lower(case.pre, case.root, case.registry).claims
    pages = {(loc.root, loc.va >> 12) for loc in claims
             if isinstance(loc, WalkLoc)}
    pages.update((loc.root, va >> 12) for loc in claims
                 if isinstance(loc, SpaceLoc)
                 for va in case.registry[loc.root])
    calls = [0]
    kernel = machine.translate

    def counted(*args, **kwargs):
        calls[0] += 1
        return kernel(*args, **kwargs)

    for module in (assertions, ghost, checker):
        monkeypatch.setattr(module, "translate", counted)
    report = run_case(case)
    monkeypatch.undo()
    assert report.ok, report.violation
    assert calls[0] == len(pages)


def test_map_page_iterated_variant_coexec_small():
    case = map_page_case(words=8)
    report = run_case(case)
    assert report.ok, report.violation
    machine = report.final_machine
    for w in range(8):
        assert translate(case.root, machine.mem,
                         MAP_VA + 8 * w) == MAP_FPADDR + 8 * w


def test_unmap_page_machine_outcome():
    case = case_study("unmap_page")
    report = run_case(case)
    assert report.ok, report.violation
    machine = report.final_machine
    from vmcheck.machine import NotPresent
    assert translate(case.root, machine.mem, MAP_VA) == NotPresent(1, MAP_VA)
    # freed word reclaimed in full
    assert report.final_ledger.get(PhysLoc(MAP_FPADDR >> 12, 0)) == (FULL, 0)


def test_map_then_unmap_roundtrip():
    case = case_study("map_new_page")
    # compose: run the map script followed by the unmap script
    combined = list(case.script) + list(case_study("unmap_page").script)
    report = check_double(case.pre, case.root, combined, stubs=case.stubs,
                          init=case.state, registry=case.registry,
                          free_list=case.free_list)
    assert report.ok, report.violation
    # the walk map is back to its original domain
    assert report.final_ledger.get(WalkLoc(case.root, MAP_VA)) is None
    assert report.final_ledger.get(PhysLoc(MAP_FPADDR >> 12, 0)) == (FULL, 0)
    # a fresh claim on the torn-down va is rejected
    follow_up = combined + [AssertStep(VirtPt(MAP_VA, FULL, 0))]
    report2 = check_double(case.pre, case.root, follow_up, stubs=case.stubs,
                           init=case.state, registry=case.registry,
                           free_list=case.free_list)
    assert not report2.ok


def test_swtch_final_state():
    case = case_study("swtch")
    report = run_case(case)
    assert report.ok, report.violation
    machine = report.final_machine
    root_b = report.final_root
    # new root came from the restore block's last word
    restore_word = case.state.mem[0x211][56]
    assert machine.reg(Reg.CR3) == restore_word == root_b
    # save block holds the seven pre-call callee-save values plus old cr3
    for k, val in enumerate(SWTCH_OLD_REGS):
        assert machine.mem[0x210][8 * k] == val
    assert machine.mem[0x210][56] == case.root
    # callee-save registers hold the restored values
    for reg, val in zip(SWTCH_SLOTS, SWTCH_NEW_REGS):
        assert machine.reg(reg) == val
        assert report.final_ledger.get(RegLoc(reg)) == (FULL, val)
    # old-space claims survive, keyed to the old root
    assert report.final_ledger.get(
        WalkLoc(case.root, SWTCH_SAVE_VA)) is not None
    assert report.final_ledger.get(
        WalkLoc(root_b, SWTCH_NEW_STACK_VA)) is not None


def test_swtch_machine_run_alone():
    # the listing also runs as plain machine code, no checker involved
    from vmcheck.machine import MachineState, StepOpts, run
    from vmcheck.checker import InstrStep

    case = case_study("swtch")
    instrs = [s.instr for s in case.script if isinstance(s, InstrStep)]
    out = run(case.state.copy(), instrs, StepOpts(set_accessed=False))
    assert isinstance(out, MachineState)
    assert out.reg(Reg.CR3) == case.state.mem[0x211][56]
    for reg, val in zip(SWTCH_SLOTS, SWTCH_NEW_REGS):
        assert out.reg(reg) == val
    for k, val in enumerate(SWTCH_OLD_REGS):
        assert out.mem[0x210][8 * k] == val
    assert out.mem[0x210][56] == case.root


def test_swtch_audit_names_the_stack_contract():
    # the untouched stack-contract claim is the one the audit warns about:
    # it silently becomes old-space-relative at the switch
    case = case_study("swtch")
    warnings = frame_audit(case.pre, run_case(case))
    assert [(w.kind, w.step, w.location) for w in warnings] == \
        [(UNSOUND_FRAME, 15, f"walk:{case.root:#x}:{SWTCH_OLD_STACK_VA:#x}")]
    assert f"{SWTCH_OLD_STACK_VA:#x}" in warnings[0].narrative
