"""Failing reports, pinned byte for byte in both modes.

Each entry below is a small check aimed at one place where the checker
refuses a step or a precondition: every kind and narrative a rule can
give, and ``check_double``'s own step -1 checks.  Its text and JSON
reports, in co-execution and in resource mode, are pinned in
``rejection_reports.json``; a change to how a rejection is found or
rendered shows up as a diff there.  Each entry also names the kind and
a fragment of the narrative it is aimed at, and at least one mode must
fail with them, so an entry cannot drift away from its site unnoticed.

Regenerate the pinned reports (only for an intended report change) with
``PYTHONPATH=src python3 tests/test_rejections.py``.
"""

import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from vmcheck.machine import (
    AddRegImm,
    MovMemFromCr3,
    MovMemFromReg,
    MovRegFromCr3,
    MovRegFromMem,
    MovRegImm,
    MovRegReg,
    MovToCr3FromMem,
    MovToCr3FromReg,
    Reg,
    walk,
)
from vmcheck.assertions import (
    FULL,
    IASpace,
    L4L1PointsTo,
    OtherSpace,
    PhysPt,
    PredEq,
    PtePt,
    Pure,
    RegPt,
    VirtPt,
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
    InstrStep,
    MACHINE_DISAGREE,
    MISSING_RESOURCE,
    RESOURCE_ONLY,
    STUB_PRE_FAILED,
    StubError,
    StubResult,
    StubSpec,
    UNKNOWN_ROOT,
    UNSOUND_FRAME,
    VALUE_DISAGREEMENT,
    check_double,
)
from vmcheck.cases import STUB_LIBRARY

from gen import multi_space_fixture
from test_audit import ALIAS_VA, _alias_fixture

PINNED = Path(__file__).resolve().parent / "rejection_reports.json"

HALF = Fraction(1, 2)
VA = 0x20_0000          # A: -> 0x5000 (0x1111), B: -> 0x6000 (0x3333)
SIBLING = 0x20_1000     # A: -> 0x6000
NEXT = VA + 8           # A: its chain exists, the walk map has no entry
UNMAPPED = 0x40_0000
MODES = (COEXEC, RESOURCE_ONLY)


def _check(pre, script, root=None, regs=None, registry=None, stubs=None):
    """A check over the three-space fixture (space A current unless
    `root` says otherwise; `regs` and `registry` adjust the fixture)."""
    state, fixture_registry, _ = multi_space_fixture()
    state.regs.update(regs or {})
    if root is not None:
        state.regs[Reg.CR3] = root
    return dict(pre=pre, root=state.regs[Reg.CR3], script=script,
                stubs=stubs or {}, init=state,
                registry=fixture_registry if registry is None else registry,
                free_list=())


def _roots():
    return multi_space_fixture()[2]


def _chain(va):
    """The L4L1PointsTo of `va` as space A's tables hold it."""
    state, _registry, (root_a, _b, _c) = multi_space_fixture()
    steps, pa = walk(root_a, state.mem, va)
    return L4L1PointsTo(va, *(entry for _slot, entry in steps), pa)


def _stub(name, consumes=(), produces=None, write=None, fail=None):
    """A stub that consumes `consumes`, produces `produces`, and writes
    the (frame, offset, value) `write` to memory or raises `fail`."""

    def apply(env):
        if fail is not None:
            raise StubError(fail)
        machine = env.machine.copy()
        if write is not None:
            machine.write_word(*write)
        return StubResult(produces=produces or sep(), machine=machine,
                          free_cursor=env.free_cursor)

    return {name: StubSpec(name=name, consumes=consumes, apply=apply)}


# --------------------------------------------------------------------------
# The four memory forms, each refused at every check it makes, in order.

def _mem_form(form, regs_held, claims):
    """A one-instruction check of a memory form through VA (rdi) with
    the register claims in `regs_held` and the other claims `claims`."""
    instr = {
        "load": MovRegFromMem(Reg.RAX, Reg.RDI, 0),
        "store": MovMemFromReg(Reg.RDI, 0, Reg.RAX),
        "cr3-store": MovMemFromCr3(Reg.RDI, 0),
        "switch": MovToCr3FromMem(Reg.RDI, 0),
    }[form]
    regs = {Reg.RAX: (FULL, 0x7), Reg.RDI: (FULL, VA), **regs_held}
    pre = sep(*(RegPt(r, q, v) for r, (q, v) in regs.items() if q),
              *claims)
    return _check(pre, [InstrStep(instr)])


def _memory_cases():
    _a, root_b, _c = _roots()
    data = VirtPt(VA, FULL, 0x1111)
    cases = {}
    for form in ("load", "store", "cr3-store", "switch"):
        cases[f"{form}-no-witness"] = (
            MISSING_RESOURCE, "no invariant witness for space",
            lambda f=form: _mem_form(f, {}, [data]))
        cases[f"{form}-no-base"] = (
            MISSING_RESOURCE, "no claim on register rdi",
            lambda f=form: _mem_form(f, {Reg.RDI: (0, 0)}, [IASpace(), data]))
        cases[f"{form}-no-walk-claim"] = (
            MISSING_RESOURCE, "no walk claim for va 0x200000",
            lambda f=form: _mem_form(f, {}, [IASpace()]))
        cases[f"{form}-walk-claim-in-another-space"] = (
            UNSOUND_FRAME, "is governed by space 0x180000",
            lambda f=form: _mem_form(
                f, {}, [IASpace(), OtherSpace(root_b, VirtPt(VA, FULL,
                                                             0x3333))]))
    cases["store-no-source"] = (
        MISSING_RESOURCE, "no claim on register rax",
        lambda: _mem_form("store", {Reg.RAX: (0, 0)}, [IASpace(), data]))
    # two claims missing at once: the first check in that order refuses
    cases["store-no-witness-nor-base"] = (
        MISSING_RESOURCE, "no invariant witness for space",
        lambda: _mem_form("store", {Reg.RDI: (0, 0)}, [data]))
    cases["store-no-base-nor-source"] = (
        MISSING_RESOURCE, "no claim on register rdi",
        lambda: _mem_form("store", {Reg.RDI: (0, 0), Reg.RAX: (0, 0)},
                          [IASpace(), data]))
    cases["store-no-source-nor-walk-claim"] = (
        MISSING_RESOURCE, "no claim on register rax",
        lambda: _mem_form("store", {Reg.RAX: (0, 0)}, [IASpace()]))
    for form in ("load", "switch"):
        # a walk claim with no data claim behind it: the ghost insert
        # grants the walk claim alone
        cases[f"{form}-no-data-claim"] = (
            MISSING_RESOURCE, "no data claim behind va 0x200008",
            lambda f=form: _check(
                sep(IASpace(), RegPt(Reg.RAX, FULL, 0x7),
                    RegPt(Reg.RDI, FULL, NEXT), _chain(NEXT)),
                [GhostInsertWalk(NEXT, 0x5008),
                 InstrStep(MovRegFromMem(Reg.RAX, Reg.RDI, 0) if f == "load"
                           else MovToCr3FromMem(Reg.RDI, 0))],
                regs={Reg.RDI: NEXT}))
    cases["load-partial-destination"] = (
        INSUFFICIENT_FRACTION, "reg:rax",
        lambda: _mem_form("load", {Reg.RAX: (HALF, 0x7)}, [IASpace(), data]))
    cases["store-partial-data"] = (
        INSUFFICIENT_FRACTION, "phys:0x5:0x0",
        lambda: _mem_form("store", {}, [IASpace(),
                                        VirtPt(VA, HALF, 0x1111)]))
    cases["cr3-store-partial-data"] = (
        INSUFFICIENT_FRACTION, "phys:0x5:0x0",
        lambda: _mem_form("cr3-store", {}, [IASpace(),
                                            VirtPt(VA, HALF, 0x1111)]))
    cases["switch-to-unaligned-word"] = (
        UNKNOWN_ROOT, "target root is not page aligned",
        lambda: _mem_form("switch", {}, [IASpace(), data]))
    return cases


# --------------------------------------------------------------------------
# Register moves and register switches.

def _switch(target, claims):
    return _check(sep(RegPt(Reg.RBX, FULL, target), *claims),
                  [InstrStep(MovToCr3FromReg(Reg.RBX))],
                  regs={Reg.RBX: target})


def _register_cases():
    _a, root_b, _c = _roots()
    return {
        "move-no-source": (
            MISSING_RESOURCE, "no claim on register rbx",
            lambda: _check(RegPt(Reg.RAX, FULL, 0x7),
                           [InstrStep(MovRegReg(Reg.RAX, Reg.RBX))])),
        "move-partial-destination": (
            INSUFFICIENT_FRACTION, "reg:rax",
            lambda: _check(sep(RegPt(Reg.RAX, HALF, 0x7),
                               RegPt(Reg.RBX, FULL, 0)),
                           [InstrStep(MovRegReg(Reg.RAX, Reg.RBX))])),
        "immediate-no-destination": (
            INSUFFICIENT_FRACTION, "reg:rbx",
            lambda: _check(sep(), [InstrStep(MovRegImm(Reg.RBX, 0x5))])),
        "add-no-destination": (
            MISSING_RESOURCE, "no claim on register rbx",
            lambda: _check(sep(), [InstrStep(AddRegImm(Reg.RBX, 0x1))])),
        "add-partial-destination": (
            INSUFFICIENT_FRACTION, "reg:rax",
            lambda: _check(RegPt(Reg.RAX, HALF, 0x7),
                           [InstrStep(AddRegImm(Reg.RAX, 0x1))])),
        "cr3-read-partial-destination": (
            INSUFFICIENT_FRACTION, "reg:rax",
            lambda: _check(RegPt(Reg.RAX, HALF, 0x7),
                           [InstrStep(MovRegFromCr3(Reg.RAX))])),
        "switch-no-source": (
            MISSING_RESOURCE, "no claim on register rbx",
            lambda: _check(IASpace(), [InstrStep(MovToCr3FromReg(Reg.RBX))])),
        "switch-unaligned": (
            UNKNOWN_ROOT, "target root is not page aligned",
            lambda: _switch(root_b + 8, [IASpace()])),
        "switch-unregistered": (
            UNKNOWN_ROOT, "target root is not a registered space",
            lambda: _switch(0xFE000, [IASpace()])),
        "switch-no-current-witness": (
            MISSING_RESOURCE, "no invariant witness for space 0x100000",
            lambda: _switch(root_b, [OtherSpace(root_b, IASpace())])),
        "switch-no-target-witness": (
            MISSING_RESOURCE, "no invariant witness for space 0x180000",
            lambda: _switch(root_b, [IASpace()])),
        "machine-faults": (
            MACHINE_DISAGREE, "but the machine faults",
            # the ledger holds a walk the tables do not have
            lambda: _check(sep(IASpace(), RegPt(Reg.RAX, FULL, 0x7),
                               RegPt(Reg.RDI, FULL, UNMAPPED),
                               PtePt(UNMAPPED, FULL, 0x5000, 0x1111)),
                           [InstrStep(MovRegFromMem(Reg.RAX, Reg.RDI, 0))],
                           regs={Reg.RDI: UNMAPPED})),
        "step-breaks-a-walk-map-entry": (
            MACHINE_DISAGREE, "walk-map entry 0x201000 broken: 0x7000",
            _store_through_alias),
    }


def _store_through_alias():
    """A store rewriting the L1 entry behind space A's walk-map entry for
    SIBLING through ALIAS_VA, which maps A's L1 table page."""
    state, registry, root, _root_b, l1_a, _l1_b = _alias_fixture()
    entry = state.mem[l1_a >> 12][8]
    return dict(pre=sep(IASpace(), RegPt(Reg.RAX, FULL, 0),
                        RegPt(Reg.RDI, FULL, ALIAS_VA + 8),
                        VirtPt(ALIAS_VA + 8, FULL, entry)),
                root=root, init=state, registry=registry, stubs={},
                script=[InstrStep(MovRegImm(Reg.RAX, 0x7003)),
                        InstrStep(MovMemFromReg(Reg.RDI, 0, Reg.RAX))])


# --------------------------------------------------------------------------
# Ghost steps.

def _ghost_cases():
    root_a, _b, root_c = _roots()
    no_a = {r: t for r, t in multi_space_fixture()[1].items() if r != root_a}
    c_maps_va = {**multi_space_fixture()[1], root_c: {VA: 0x6000}}
    return {
        "insert-slot-absent": (
            MISSING_RESOURCE, "is neither claimed nor present",
            lambda: _check(IASpace(), [GhostInsertWalk(VA, 0x6000)],
                           root=root_c)),
        "insert-unregistered-space": (
            UNKNOWN_ROOT, "current root is not a registered space",
            lambda: _check(_chain(NEXT), [GhostInsertWalk(NEXT, 0x5008)],
                           registry=no_a)),
        "insert-already-mapped": (
            VALUE_DISAGREEMENT, "walk map already holds",
            lambda: _check(sep(IASpace(), _chain(VA)),
                           [GhostInsertWalk(VA, 0x5000)])),
        "insert-wrong-pa": (
            VALUE_DISAGREEMENT, "does not resolve to 0x9008",
            lambda: _check(sep(IASpace(), _chain(NEXT)),
                           [GhostInsertWalk(NEXT, 0x9008)])),
        "insert-no-chain-shares": (
            INSUFFICIENT_FRACTION, "phys:0x100:0x0",
            lambda: _check(IASpace(), [GhostInsertWalk(NEXT, 0x5008)])),
        "insert-walk-claim-held": (
            INSUFFICIENT_FRACTION, "share sum exceeds 1",
            lambda: _check(sep(IASpace(), _chain(NEXT),
                               PtePt(NEXT, HALF, 0x5008, 0x2222)),
                           [GhostInsertWalk(NEXT, 0x5008)])),
        "remove-no-token": (
            INSUFFICIENT_FRACTION, "no walk token held for va 0x200000",
            lambda: _check(IASpace(), [GhostRemoveWalk(VA)])),
        "remove-unregistered-space": (
            UNKNOWN_ROOT, "current root is not a registered space",
            lambda: _check(PtePt(VA, FULL, 0x5000, 0x1111),
                           [GhostRemoveWalk(VA)], registry=no_a)),
        "remove-partial-token": (
            INSUFFICIENT_FRACTION, "walk:0x100000:0x200000",
            lambda: _check(sep(IASpace(), VirtPt(VA, HALF, 0x1111)),
                           [GhostRemoveWalk(VA)])),
        "remove-not-in-walk-map": (
            VALUE_DISAGREEMENT, "walk map has no entry for 0x200008",
            lambda: _check(sep(IASpace(), PtePt(NEXT, FULL, 0x5008, 0x2222)),
                           [GhostRemoveWalk(NEXT)])),
        "remove-slot-absent": (
            MISSING_RESOURCE, "is neither claimed nor present",
            lambda: _check(sep(IASpace(), PtePt(VA, FULL, 0x6000, 0x3333)),
                           [GhostRemoveWalk(VA)], root=root_c,
                           registry=c_maps_va)),
        "remove-slot-fully-held": (
            INSUFFICIENT_FRACTION, "share sum exceeds 1 at phys:0x100:0x0",
            lambda: _check(sep(IASpace(), VirtPt(VA, FULL, 0x1111),
                               PhysPt(0x100, 0x0, FULL,
                                      _chain(VA).l4e)),
                           [GhostRemoveWalk(VA)])),
        "pte-to-virt-no-walk-claim": (
            MISSING_RESOURCE, "no walk claim for va 0x200000",
            lambda: _check(IASpace(), [GhostPteToVirt(VA)])),
        "virt-to-pte-other-pa": (
            VALUE_DISAGREEMENT, "walk resolves to 0x5000, not 0x6000",
            lambda: _check(VirtPt(VA, FULL, 0x1111),
                           [GhostVirtToPte(VA, 0x6000)])),
        "virt-to-pte-after-switch": (
            UNSOUND_FRAME, "is governed by space 0x100000",
            lambda: _after_switch(VirtPt(VA, FULL, 0x1111),
                                  GhostVirtToPte(VA, 0x6000))),
    }


# --------------------------------------------------------------------------
# Stub calls.

def _call(stubs, pre=None, name="stub", **kw):
    return _check(RegPt(Reg.RAX, FULL, 0x7) if pre is None else pre,
                  [CallStep(name)], stubs=stubs, **kw)


def _call_cases():
    any_rax = (RegPt(Reg.RAX, FULL, None),)
    return {
        "call-unknown-stub": (
            STUB_PRE_FAILED, "no stub named 'nope'",
            lambda: _call({}, name="nope")),
        "call-register-missing": (
            STUB_PRE_FAILED, "needs a claim on rax",
            lambda: _call(_stub("stub", any_rax), pre=sep())),
        "call-register-value": (
            STUB_PRE_FAILED, "needs rax = 0x5, ledger holds 0x7",
            lambda: _call(_stub("stub", (RegPt(Reg.RAX, FULL, 0x5),)))),
        "call-register-partial": (
            STUB_PRE_FAILED, "need 1 of reg:rax, hold 1/2",
            lambda: _call(_stub("stub", any_rax),
                          pre=RegPt(Reg.RAX, HALF, 0x7))),
        "call-claim-missing": (
            STUB_PRE_FAILED, "phys:0x5:0x0",
            lambda: _call(_stub("stub", (PhysPt(0x5, 0x0, FULL, 0x1111),)))),
        "call-claim-unlowerable": (
            STUB_PRE_FAILED, "walk:0x100000:0x400000",
            lambda: _call(_stub("stub", (VirtPt(UNMAPPED, FULL, 0),)))),
        "call-precondition-false": (
            STUB_PRE_FAILED, "free list is exhausted",
            lambda: _call(STUB_LIBRARY, name="alloc_phys_page_or_panic")),
        "call-stub-error": (
            STUB_PRE_FAILED, "refused",
            lambda: _call(_stub("stub", fail="refused"))),
        "call-produces-too-much": (
            INSUFFICIENT_FRACTION, "share sum exceeds 1 at reg:rax",
            lambda: _call(_stub("stub", produces=RegPt(Reg.RAX, FULL,
                                                       0x7)))),
        "call-produces-other-value": (
            VALUE_DISAGREEMENT, "claims disagree on the value at reg:rax",
            lambda: _call(_stub("stub", produces=RegPt(Reg.RAX, HALF,
                                                       0x8)),
                          pre=RegPt(Reg.RAX, HALF, 0x7))),
        "call-produces-false-pure": (
            STUB_PRE_FAILED, "promised a false pure predicate",
            lambda: _call(_stub("stub", produces=Pure(PredEq(4, 5))))),
        "call-produces-unsatisfied-claim": (
            STUB_PRE_FAILED, "promised claims the machine does not satisfy",
            lambda: _call(_stub("stub", any_rax,
                                produces=RegPt(Reg.RAX, FULL, 0x42)))),
        "call-breaks-a-held-claim": (
            MACHINE_DISAGREE, "phys:0x5:0x0: ledger 0x1111, machine 0x9",
            lambda: _call(_stub("stub", write=(0x5, 0x0, 0x9)),
                          pre=sep(IASpace(), VirtPt(VA, FULL, 0x1111)))),
    }


# --------------------------------------------------------------------------
# Assertions.

def _after_switch(claim, step):
    """Switch from space A to B, holding `claim` under A, then `step`."""
    _a, root_b, _c = _roots()
    return _check(sep(IASpace(), RegPt(Reg.RBX, FULL, root_b),
                      OtherSpace(root_b, IASpace()), claim),
                  [InstrStep(MovToCr3FromReg(Reg.RBX)), step],
                  regs={Reg.RBX: root_b})


def _assert(held, wanted):
    return _check(held, [AssertStep(wanted)])


def _assert_cases():
    rax = RegPt(Reg.RAX, FULL, 0x7)
    broken = _chain(VA)
    broken = L4L1PointsTo(VA, broken.l4e, broken.l3e, broken.l2e,
                          broken.l1e & ~1, broken.pa)
    return {
        "assert-witness-only-in-old-space": (
            UNSOUND_FRAME, "only holds in space 0x100000",
            lambda: _after_switch(VirtPt(SIBLING, FULL, 0x3333),
                                  AssertStep(VirtPt(SIBLING, FULL, 0x3333)))),
        "assert-governed-by-old-space": (
            UNSOUND_FRAME, "asserted claim for va 0x200000 is governed by",
            lambda: _after_switch(VirtPt(VA, FULL, 0x1111),
                                  AssertStep(VirtPt(VA, FULL, 0x3333)))),
        "assert-no-witness": (
            MISSING_RESOURCE, "walk:0x100000:0x400000",
            lambda: _assert(rax, VirtPt(UNMAPPED, FULL, 0))),
        "assert-broken-chain": (
            VALUE_DISAGREEMENT, "not present",
            lambda: _assert(rax, broken)),
        "assert-shares-exceed-one": (
            INSUFFICIENT_FRACTION, "share sum exceeds 1 at reg:rax",
            lambda: _assert(rax, sep(rax, rax))),
        "assert-values-disagree": (
            VALUE_DISAGREEMENT, "claims disagree on the value at reg:rax",
            lambda: _assert(rax, sep(RegPt(Reg.RAX, HALF, 0x7),
                                     RegPt(Reg.RAX, HALF, 0x8)))),
        "assert-missing": (
            MISSING_RESOURCE, "asserted claim is not in the ledger",
            lambda: _assert(rax, RegPt(Reg.RBX, FULL, 0))),
        "assert-fraction": (
            INSUFFICIENT_FRACTION, "ledger holds only 1/2",
            lambda: _assert(RegPt(Reg.RAX, HALF, 0x7), rax)),
        "assert-value": (
            VALUE_DISAGREEMENT, "ledger holds value 0x7",
            lambda: _assert(rax, RegPt(Reg.RAX, FULL, 0x8))),
        "assert-pure-false": (
            VALUE_DISAGREEMENT, "pure predicate is false",
            lambda: _assert(rax, Pure(PredEq(4, 5)))),
    }


# --------------------------------------------------------------------------
# check_double's precondition checks, reported at step -1.

def _precondition_cases():
    root_a, root_b, _c = _roots()
    rax = RegPt(Reg.RAX, FULL, 0x7)
    return {
        "pre-root-unaligned": (
            UNKNOWN_ROOT, "initial root is not page aligned",
            lambda: {**_check(rax, []), "root": root_a + 8}),
        "pre-unlowerable": (
            MISSING_RESOURCE, "walk:0x100000:0x400000",
            lambda: _check(VirtPt(UNMAPPED, FULL, 0), [])),
        "pre-pure-false": (
            VALUE_DISAGREEMENT, "precondition pure predicate is false",
            lambda: _check(sep(rax, Pure(PredEq(4, 5))), [])),
        "pre-cr3-differs": (
            MACHINE_DISAGREE, "differs from declared root 0x180000",
            lambda: {**_check(rax, []), "root": root_b}),
        "pre-machine-disagrees": (
            MACHINE_DISAGREE, "reg:rax: ledger 0x8, machine 0x7",
            lambda: _check(RegPt(Reg.RAX, FULL, 0x8),
                           [InstrStep(MovRegImm(Reg.RAX, 0x9))])),
    }


CASES = {**_memory_cases(), **_register_cases(), **_ghost_cases(),
         **_call_cases(), **_assert_cases(), **_precondition_cases()}


def _reports(name):
    """{mode: {"text": ..., "json": ...}} for one entry."""
    out = {}
    for mode in MODES:
        report = check_double(mode=mode, **CASES[name][2]())
        out[mode] = {"text": report.to_text(), "json": report.to_json()}
    return out


def _pinned():
    return json.loads(PINNED.read_text())


def test_every_entry_is_pinned():
    assert sorted(_pinned()) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_rejection_report_is_pinned(name):
    assert _reports(name) == _pinned()[name]


@pytest.mark.parametrize("name", sorted(CASES))
def test_entry_reaches_its_site(name):
    kind, fragment, build = CASES[name]
    hits = []
    for mode in MODES:
        violation = check_double(mode=mode, **build()).violation
        assert violation is not None or mode == RESOURCE_ONLY
        if violation is not None and violation.kind == kind and (
                fragment in violation.narrative
                or fragment in (violation.location or "")):
            hits.append(mode)
    assert hits, name


if __name__ == "__main__":
    PINNED.write_text(json.dumps({name: _reports(name)
                                  for name in sorted(CASES)},
                                 indent=1, sort_keys=True) + "\n")
    sys.exit(0)
