"""Resource mode and co-execution run one checker path.

Both modes apply the same rules and step the same machine; co-execution
only adds the audit that compares claims with the machine.  So wherever
the audit does not object, the two reports are the same apart from the
mode, and resource mode never depends on a machine it has not advanced.
"""

import random
from dataclasses import replace
from fractions import Fraction

import pytest

from vmcheck.machine import MovRegFromMem, MovRegImm, Reg, walk
from vmcheck.assertions import (
    FULL,
    IASpace,
    L4L1PointsTo,
    PhysPt,
    RegPt,
    VirtPt,
    sep,
)
from vmcheck.checker import (
    AssertStep,
    COEXEC,
    GhostRemoveWalk,
    MACHINE_DISAGREE,
    RESOURCE_ONLY,
    STUB_PRE_FAILED,
    VALUE_DISAGREEMENT,
    Violation,
    check_double,
)
from vmcheck.cases import CASE_NAMES, MAP_VA, case_study, map_page_case

from gen import multi_space_fixture
from test_acceptance import _generate_script
from test_audit import _alias_script, _mutants

MODES = (COEXEC, RESOURCE_ONLY)


def _run_case(case, script, mode):
    return check_double(case.pre, case.root, script, stubs=case.stubs,
                        mode=mode, init=case.state, registry=case.registry,
                        free_list=case.free_list)


def _check_agreement(*args, **kwargs):
    """Check a script in both modes: unless the audit objects (a coexec
    MachineDisagree), the reports match byte for byte apart from the
    mode; where it objects, the steps before it match.  Returns the
    coexec violation kind, or None."""
    resource = check_double(*args, mode=RESOURCE_ONLY, **kwargs)
    coexec = check_double(*args, mode=COEXEC, **kwargs)
    kind = None if coexec.ok else coexec.violation.kind
    if kind == MACHINE_DISAGREE:
        assert resource.records[:len(coexec.records)] == coexec.records
    else:
        relabelled = replace(resource, mode=COEXEC)
        assert relabelled.to_text() == coexec.to_text()
        assert relabelled.to_json() == coexec.to_json()
    return kind


# --------------------------------------------------------------------------
# Differential: generated scripts, their mutants, and the cases


def test_modes_agree_on_criterion_8_scripts_and_mutants():
    rng = random.Random(505)
    kinds = []
    for _round in range(30):
        state, registry, roots, pre, script, _ctx = _generate_script(rng)
        for variant in [script, *_mutants(rng, script)]:
            kinds.append(_check_agreement(pre, roots[0], variant,
                                          init=state, registry=registry))
    assert kinds.count(None) >= 30
    assert len(kinds) - kinds.count(None) - kinds.count(MACHINE_DISAGREE) \
        >= 20, kinds


def test_modes_agree_on_alias_store_scripts():
    rng = random.Random(606)
    kinds = []
    for _round in range(40):
        state, registry, root, pre, script = _alias_script(rng)
        for cut in (len(script), rng.randrange(len(script) + 1)):
            kinds.append(_check_agreement(pre, root, script[:cut],
                                          init=state, registry=registry))
    assert kinds.count(MACHINE_DISAGREE) >= 10, kinds
    assert kinds.count(None) >= 10, kinds


@pytest.mark.parametrize("name", [*CASE_NAMES, "map_page_case(8)"])
def test_modes_agree_on_dropped_step_variants(name):
    case = map_page_case(8) if name == "map_page_case(8)" \
        else case_study(name)
    failing = 0
    for i in range(len(case.script) + 1):
        script = case.script[:i] + case.script[i + 1:]
        kind = _check_agreement(case.pre, case.root, script,
                                stubs=case.stubs, init=case.state,
                                registry=case.registry,
                                free_list=case.free_list)
        failing += kind is not None
    assert failing >= 1


# --------------------------------------------------------------------------
# Resource mode reads the machine the script has reached


def test_remove_returns_the_chain_the_script_wrote_in_resource_mode():
    # 512 inserts drain the L1 slot's claim, so the remove re-reads the
    # slot from the machine: it must be the entry the script stored
    # there, not the initial (empty) one
    case = map_page_case(1)
    frame, off = divmod(walk(case.root, case.state.mem, MAP_VA)[0][3][0],
                        0x1000)
    tail = [GhostRemoveWalk(MAP_VA),
            AssertStep(PhysPt(frame, off, Fraction(1, 512), 0))]
    for words, mode in ((512, RESOURCE_ONLY), (8, COEXEC)):
        case = map_page_case(words)
        report = _run_case(case, case.script + tail, mode)
        assert report.violation == Violation(
            VALUE_DISAGREEMENT, len(case.script) + 1,
            f"phys:{frame:#x}:{off:#x}", "ledger holds value 0x200003")


def test_stubs_read_the_registers_the_script_set_in_resource_mode():
    case = map_page_case(1)
    script = [MovRegImm(Reg.RDI, MAP_VA + 0x1000), *case.script]
    reports = {mode: _run_case(case, script, mode) for mode in MODES}
    assert reports[COEXEC].violation == Violation(
        STUB_PRE_FAILED, 1, "ensure_L1_page",
        "the L1 slot 0x103008 is not virtually mapped")
    relabelled = replace(reports[RESOURCE_ONLY], mode=COEXEC)
    assert relabelled.to_text() == reports[COEXEC].to_text()
    assert relabelled.to_json() == reports[COEXEC].to_json()


def test_a_step_the_machine_faults_on_fails_in_resource_mode():
    # the precondition claims a mapping whose L1 entry the machine lacks:
    # coexec's initial audit objects, and resource mode, which takes the
    # precondition on trust, still cannot run a load the machine faults on
    state, registry, roots = multi_space_fixture()
    root = roots[0]
    frame, off = divmod(walk(root, state.mem, 0x20_0000)[0][3][0], 0x1000)
    state.mem[frame][off] = 0
    pre = sep(IASpace(), RegPt(Reg.RAX, FULL, 0x7),
              RegPt(Reg.RDI, FULL, 0x20_0000),
              VirtPt(0x20_0000, FULL, 0x1111))
    script = [MovRegFromMem(Reg.RAX, Reg.RDI, 0)]
    reports = {mode: check_double(pre, root, script, mode=mode, init=state,
                                  registry=registry) for mode in MODES}
    assert reports[COEXEC].violation.step == -1
    assert reports[RESOURCE_ONLY].violation == Violation(
        MACHINE_DISAGREE, 0, None, "ledger accepts pc 0 but the machine "
        "faults: NotPresent(level=1, va=2097152)")


def test_initial_cr3_must_be_the_root_in_both_modes():
    # both modes step the machine, so a machine in another space would
    # translate there while the checker and its stubs walk under the root
    state, registry, (root_a, _root_b, root_c) = multi_space_fixture()
    state.regs[Reg.CR3] = root_c
    pre = sep(IASpace(), RegPt(Reg.RAX, FULL, 0x7),
              RegPt(Reg.RDI, FULL, 0x20_0000),
              VirtPt(0x20_0000, FULL, 0x1111))
    script = [MovRegFromMem(Reg.RAX, Reg.RDI, 0)]
    for mode in MODES:
        report = check_double(pre, root_a, script, mode=mode, init=state,
                              registry=registry)
        assert report.violation == Violation(
            MACHINE_DISAGREE, -1, None,
            f"initial machine cr3 {root_c:#x} differs from declared root "
            f"{root_a:#x}")


@pytest.mark.parametrize("broken, narrative", [
    (lambda chain: L4L1PointsTo(*chain[1:-1], 0x7000),
     "chain for 0x201000 does not resolve to 0x7000"),
    (lambda chain: L4L1PointsTo(chain.va, chain.l4e, chain.l3e,
                                chain.l2e & ~1, chain.l1e, chain.pa),
     "table entry is not present for {chain!r} (observed {entry!r})"),
])
def test_broken_chain_precondition_is_rejected_in_both_modes(broken,
                                                             narrative):
    state, registry, roots = multi_space_fixture()
    root = roots[0]
    steps, _pa = walk(root, state.mem, 0x20_1000)
    chain = broken(L4L1PointsTo(0x20_1000, *(entry for _slot, entry in steps),
                                0x6000))
    for mode in MODES:
        report = check_double(sep(IASpace(), chain), root, [], mode=mode,
                              init=state, registry=registry)
        assert report.violation == Violation(
            VALUE_DISAGREEMENT, -1, None,
            narrative.format(chain=chain, entry=chain.l2e))


# --------------------------------------------------------------------------
# The caller's machine is never written


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("name", [*CASE_NAMES, "map_page_case(8)"])
def test_check_leaves_the_initial_machine_unchanged(name, mode):
    case = map_page_case(8) if name == "map_page_case(8)" \
        else case_study(name)
    regs = dict(case.state.regs)
    frames = {frame: dict(words) for frame, words in case.state.mem.items()}
    report = _run_case(case, case.script, mode)
    assert report.ok
    assert report.final_machine.mem != frames  # the script did write
    assert case.state.regs == regs
    assert {frame: dict(words)
            for frame, words in case.state.mem.items()} == frames
