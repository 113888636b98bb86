"""Executable distillations of three virtual-memory-manager concerns:
installing a fresh mapping, tearing one down, and switching address
spaces.  Each case bundles a concrete fixture (machine + registry), a
precondition, a script, stubs, and the expected final claims, ready to
feed to the checker.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .machine import (
    MachineState,
    MovMemFromCr3,
    MovMemFromReg,
    MovRegFromMem,
    MovRegImm,
    MovRegReg,
    MovToCr3FromMem,
    Reg,
    ZERO_FRAME,
    mem_set,
    put_frame,
    synth_tables,
    walk,
)
from .assertions import (
    Assertion,
    CHAIN_SHARES,
    FULL,
    IASpace,
    Ledger,
    OtherSpace,
    PhysPt,
    PredAligned,
    PredUnmapped,
    PtePt,
    Pure,
    RegPt,
    Registry,
    Sep,
    VirtPt,
    lower,
    phys_loc,
    sep,
)
from .checker import (
    AssertStep,
    CallStep,
    GhostInsertWalk,
    GhostPteToVirt,
    GhostRemoveWalk,
    CheckState,
    Script,
    StubError,
    StubSpec,
)

PAGE = 4096


class UnknownCase(ValueError):
    pass


@dataclass(frozen=True)
class CaseStudy:
    name: str
    description: str
    root: int
    pre: Assertion
    script: Script
    stubs: dict
    expected_post: Assertion
    state: MachineState
    registry: Registry
    free_list: tuple


# --------------------------------------------------------------------------
# Stub library (resolvable by name, including from the command line)


def _library(words: int = 1) -> dict:
    """The library stubs by name, for `words` mapped words (1 unless a
    case maps more).  Each consumes rax, whatever its value."""

    def ensure_l1(state: CheckState) -> Ledger:
        """Hands over the page-table plumbing for the address in rdi:
        shares of the three interior entries plus a full PTE points-to for
        the L1 slot, whose own virtual address (the least va that the
        current walk map maps to the slot, ``CheckState.least_va``) lands
        in rax.  The fixture must have built the interior tables and
        mapped the L1 table page somewhere.  Each interior entry's share is
        stated once, as `words` times one walk's share: each of the `words`
        walks to be published consumes one walk's share (p |->{q} v *
        p |->{q} v is p |->{2q} v)."""
        va = state.machine.reg(Reg.RDI)
        steps, _ = walk(state.root, state.machine.mem, va)
        if len(steps) < 4:
            raise StubError(
                f"interior tables for va {va:#x} are not all present")
        (slot_pa, l1e) = steps[3]
        pte_addr = state.least_va(slot_pa)
        if pte_addr is None:
            raise StubError(
                f"the L1 slot {slot_pa:#x} is not virtually mapped")
        state.machine.regs[Reg.RAX] = pte_addr
        product = lower(Sep((RegPt(Reg.RAX, FULL, pte_addr),
                             PtePt(pte_addr, FULL, slot_pa, l1e))),
                        state.root, state.registry)
        # `words` mapped words' shares of the L4, L3 and L2 entries
        for (slot, entry), share in zip(steps[:3], CHAIN_SHARES):
            product.add(phys_loc(slot), product.share(share * words), entry)
        return product

    def alloc(state: CheckState) -> Ledger:
        """Draws the next page off the configured free list, zeroes it,
        and returns its base address plus the present and writable bits
        in rax.  Claims the first `words` zeroed words of the page."""
        if state.free_cursor >= len(state.free_list):
            raise StubError("physical page free list is exhausted")
        fpaddr = state.free_list[state.free_cursor]
        if fpaddr % PAGE:
            raise StubError(f"free-list entry {fpaddr:#x} is not page aligned")
        state.free_cursor += 1
        machine = state.machine
        put_frame(machine.mem, fpaddr >> 12, ZERO_FRAME)
        machine.regs[Reg.RAX] = fpaddr + 3
        product = lower(Sep((RegPt(Reg.RAX, FULL, fpaddr + 3),
                             Pure(PredAligned(fpaddr)))),
                        state.root, state.registry)
        assert len(product.claims) == 1  # rax: no zero word can clash
        product.claims.update(dict.fromkeys(map(
            phys_loc, range(fpaddr, fpaddr + 8 * words, 8)), (product.den, 0)))
        return product

    rax = (RegPt(Reg.RAX, FULL, None),)
    return {"ensure_L1_page": StubSpec(rax, ensure_l1),
            "alloc_phys_page_or_panic": StubSpec(rax, alloc)}


STUB_LIBRARY = _library()


# --------------------------------------------------------------------------
# map_new_page

MAP_VA = 0x40_0000
MAP_SIBLING_VA = 0x40_1000
MAP_PTE_PAGE_VA = 0x80_0000
MAP_FPADDR = 0x20_0000


def _pte_page_tables(extra: list) -> tuple:
    """Tables mapping the sibling page, the L1 table that holds MAP_VA's
    entry at MAP_PTE_PAGE_VA (so the entry can be written through a
    virtual address), and the `extra` mappings: (mem, root, the entry's
    virtual address, its physical slot)."""
    mem, root = synth_tables(
        [(MAP_SIBLING_VA, 0x9000, True)], alloc_base=0x100)
    l1_table_pa = walk(root, mem, MAP_SIBLING_VA)[0][3][0] & ~(PAGE - 1)
    mem, root = synth_tables(
        [(MAP_SIBLING_VA, 0x9000, True),
         (MAP_PTE_PAGE_VA, l1_table_pa, True), *extra], alloc_base=0x100)
    pte_slot_pa = walk(root, mem, MAP_VA)[0][3][0]
    pte_addr = MAP_PTE_PAGE_VA + (pte_slot_pa - l1_table_pa)
    return mem, root, pte_addr, pte_slot_pa


def _map_fixture():
    """Tables where MAP_VA's interior chain exists but its L1 entry is
    empty: the sibling page forces the L1 table."""
    mem, root, pte_addr, pte_slot_pa = _pte_page_tables([])
    registry = {root: {MAP_SIBLING_VA: 0x9000, pte_addr: pte_slot_pa}}
    state = MachineState(
        regs={Reg.CR3: root, Reg.RDI: MAP_VA, Reg.RAX: 0, Reg.R14: 0},
        mem=mem)
    return state, registry, root, pte_addr, pte_slot_pa


def map_page_case(words: int = 1) -> CaseStudy:
    """Map `words` fresh words at MAP_VA (1 is the canonical case; 512
    maps the whole page through the same L1 entry)."""
    if not 1 <= words <= PAGE // 8:
        raise ValueError(f"a page holds 1 to {PAGE // 8} words, not {words}")
    state, registry, root, _pte_addr, _slot = _map_fixture()
    pre = sep(
        IASpace(),
        RegPt(Reg.R14, FULL, 0),
        RegPt(Reg.RDI, FULL, MAP_VA),
        RegPt(Reg.RAX, FULL, 0),
        Pure(PredAligned(MAP_VA)),
        Pure(PredUnmapped(MAP_VA)),
    )
    script = [
        CallStep("ensure_L1_page"),
        MovRegReg(Reg.R14, Reg.RAX),
        CallStep("alloc_phys_page_or_panic"),
        MovMemFromReg(Reg.R14, 0, Reg.RAX),
    ]
    for w in range(words):
        script.append(GhostInsertWalk(MAP_VA + 8 * w, MAP_FPADDR + 8 * w))
    script.append(GhostPteToVirt(MAP_VA))
    post = sep(*(VirtPt(MAP_VA + 8 * w, FULL, 0) for w in range(words)))
    script.append(AssertStep(post))
    return CaseStudy(
        name="map_new_page",
        description="install a fresh page mapping by writing its L1 entry "
                    "through a virtual address, then publish the walk",
        root=root, pre=pre, script=script, stubs=_library(words),
        expected_post=post, state=state, registry=registry,
        free_list=(MAP_FPADDR,))


# --------------------------------------------------------------------------
# unmap_page


def _unmap_fixture():
    """The state map_new_page leaves behind, built directly: MAP_VA is
    mapped to MAP_FPADDR and registered in the walk map."""
    mem, root, pte_addr, pte_slot_pa = _pte_page_tables(
        [(MAP_VA, MAP_FPADDR, True)])
    frame = MAP_FPADDR >> 12
    mem[frame] = dict(ZERO_FRAME)
    registry = {root: {MAP_SIBLING_VA: 0x9000, pte_addr: pte_slot_pa,
                       MAP_VA: MAP_FPADDR}}
    state = MachineState(
        regs={Reg.CR3: root, Reg.RDI: MAP_VA, Reg.RAX: MAP_FPADDR + 3,
              Reg.R14: pte_addr},
        mem=mem)
    return state, registry, root, pte_addr, pte_slot_pa


def unmap_page_case() -> CaseStudy:
    state, registry, root, pte_addr, pte_slot_pa = _unmap_fixture()
    l1e = MAP_FPADDR + 3
    pre = sep(
        IASpace(),
        VirtPt(MAP_VA, FULL, 0),
        PtePt(pte_addr, FULL - Fraction(1, 512), pte_slot_pa, l1e),
        RegPt(Reg.R14, FULL, pte_addr),
        RegPt(Reg.RAX, FULL, l1e),
        RegPt(Reg.RDI, FULL, MAP_VA),
    )
    post = sep(
        PhysPt(MAP_FPADDR >> 12, 0, FULL, 0),
        Pure(PredUnmapped(MAP_VA)),
    )
    script = [
        AssertStep(VirtPt(MAP_VA, FULL, 0)),
        GhostRemoveWalk(MAP_VA),
        MovRegImm(Reg.RAX, 0),
        MovMemFromReg(Reg.R14, 0, Reg.RAX),
        AssertStep(sep(
            PhysPt(pte_slot_pa >> 12, pte_slot_pa & (PAGE - 1), FULL, 0),
            PhysPt(MAP_FPADDR >> 12, 0, FULL, 0),
            Pure(PredUnmapped(MAP_VA)),
        )),
    ]
    return CaseStudy(
        name="unmap_page",
        description="retire a mapping: give the walk token back, zero the "
                    "L1 entry, reclaim the backing word",
        root=root, pre=pre, script=script,
        stubs=dict(STUB_LIBRARY), expected_post=post, state=state,
        registry=registry, free_list=())


# --------------------------------------------------------------------------
# swtch

SWTCH_SAVE_VA = 0x60_0000
SWTCH_RESTORE_VA = 0x60_1000
SWTCH_OLD_STACK_VA = 0x7F_0E00
SWTCH_NEW_STACK_VA = 0x7F_0F00
SWTCH_OLD_RET = 0xAA10
SWTCH_NEW_RET = 0xAA20

# callee-save context block layout: one word per register, cr3 last
SWTCH_SLOTS = (Reg.RBX, Reg.RSP, Reg.RBP, Reg.R12, Reg.R13, Reg.R14, Reg.R15)
SWTCH_OLD_REGS = (0xC0, 0xC1, 0xC2, 0xC3, 0xC4, 0xC5, 0xC6)
SWTCH_NEW_REGS = (0xB0, 0xB1, 0xB2, 0xB3, 0xB4, 0xB5, 0xB6)


def _swtch_fixture():
    mem_a, root_a = synth_tables(
        [(SWTCH_SAVE_VA, 0x21_0000, True),
         (SWTCH_RESTORE_VA, 0x21_1000, True),
         (SWTCH_OLD_STACK_VA & ~(PAGE - 1), 0x21_2000, True)],
        alloc_base=0x100)
    mem_b, root_b = synth_tables(
        [(SWTCH_NEW_STACK_VA & ~(PAGE - 1), 0x21_3000, True)],
        alloc_base=0x140)
    mem = dict(mem_a)
    mem.update(mem_b)
    for k in range(8):
        mem_set(mem, 0x210, 8 * k, 0)
    for k, val in enumerate(SWTCH_NEW_REGS):
        mem_set(mem, 0x211, 8 * k, val)
    mem_set(mem, 0x211, 56, root_b)
    mem_set(mem, 0x212, SWTCH_OLD_STACK_VA & (PAGE - 1), SWTCH_OLD_RET)
    mem_set(mem, 0x213, SWTCH_NEW_STACK_VA & (PAGE - 1), SWTCH_NEW_RET)

    theta_a = {SWTCH_OLD_STACK_VA: 0x21_2000 | (SWTCH_OLD_STACK_VA & (PAGE - 1))}
    for k in range(8):
        theta_a[SWTCH_SAVE_VA + 8 * k] = 0x21_0000 + 8 * k
        theta_a[SWTCH_RESTORE_VA + 8 * k] = 0x21_1000 + 8 * k
    theta_b = {SWTCH_NEW_STACK_VA: 0x21_3000 | (SWTCH_NEW_STACK_VA & (PAGE - 1))}
    registry = {root_a: theta_a, root_b: theta_b}

    regs = {Reg.CR3: root_a, Reg.RDI: SWTCH_SAVE_VA, Reg.RSI: SWTCH_RESTORE_VA}
    for reg, val in zip(SWTCH_SLOTS, SWTCH_OLD_REGS):
        regs[reg] = val
    state = MachineState(regs=regs, mem=mem)
    return state, registry, root_a, root_b


def swtch_case() -> CaseStudy:
    state, registry, root_a, root_b = _swtch_fixture()

    save_claims = [VirtPt(SWTCH_SAVE_VA + 8 * k, FULL, 0) for k in range(8)]
    restore_claims = [VirtPt(SWTCH_RESTORE_VA + 8 * k, FULL, val)
                      for k, val in enumerate(SWTCH_NEW_REGS)]
    restore_claims.append(VirtPt(SWTCH_RESTORE_VA + 56, FULL, root_b))
    reg_claims = [RegPt(reg, FULL, val)
                  for reg, val in zip(SWTCH_SLOTS, SWTCH_OLD_REGS)]
    pre = sep(
        IASpace(),
        RegPt(Reg.RDI, FULL, SWTCH_SAVE_VA),
        RegPt(Reg.RSI, FULL, SWTCH_RESTORE_VA),
        *reg_claims,
        *save_claims,
        *restore_claims,
        # the current thread's stack contract, valid only in this space
        VirtPt(SWTCH_OLD_STACK_VA, FULL, SWTCH_OLD_RET),
        # the target thread's contract lives in the target space
        OtherSpace(root_b, sep(IASpace(),
                               VirtPt(SWTCH_NEW_STACK_VA, FULL, SWTCH_NEW_RET))),
    )

    script: Script = []
    for k, reg in enumerate(SWTCH_SLOTS):
        script.append(MovMemFromReg(Reg.RDI, 8 * k, reg))
    script.append(MovMemFromCr3(Reg.RDI, 56))
    for k, reg in enumerate(SWTCH_SLOTS):
        script.append(MovRegFromMem(reg, Reg.RSI, 8 * k))
    script.append(MovToCr3FromMem(Reg.RSI, 56))

    saved = [VirtPt(SWTCH_SAVE_VA + 8 * k, FULL, val)
             for k, val in enumerate(SWTCH_OLD_REGS)]
    saved.append(VirtPt(SWTCH_SAVE_VA + 56, FULL, root_a))
    post = sep(
        # everything about the old space is now contingent on it
        OtherSpace(root_a, sep(
            IASpace(), *saved,
            VirtPt(SWTCH_OLD_STACK_VA, FULL, SWTCH_OLD_RET))),
        # the target space's resources became current
        IASpace(),
        VirtPt(SWTCH_NEW_STACK_VA, FULL, SWTCH_NEW_RET),
        *(RegPt(reg, FULL, val)
          for reg, val in zip(SWTCH_SLOTS, SWTCH_NEW_REGS)),
    )
    script.append(AssertStep(post))

    return CaseStudy(
        name="swtch",
        description="save the yielding context, restore the target "
                    "context, and switch page-table roots",
        root=root_a, pre=pre, script=script, stubs=dict(STUB_LIBRARY),
        expected_post=post, state=state, registry=registry, free_list=())


# --------------------------------------------------------------------------


CASES = {"map_new_page": map_page_case, "unmap_page": unmap_page_case,
         "swtch": swtch_case}
CASE_NAMES = tuple(CASES)


def case_study(name: str) -> CaseStudy:
    """Assemble a named case, or raise UnknownCase."""
    if name not in CASES:
        raise UnknownCase(f"no case study named {name!r}")
    return CASES[name]()
