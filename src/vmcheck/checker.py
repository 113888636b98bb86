"""Resource checker for instruction scripts against a claim ledger.

A script is checked one step at a time: every instruction must find the
claims it needs in the ledger (with enough of a share, and agreeing on
values) and consumes and reissues them per its rule.  The concrete
machine is stepped alongside in both modes, so stubs and walk chains
read the state the script has reached and a step the machine faults on
is rejected.  Only co-execution mode compares the two: it audits every
claim before the first step and after each stub call, and after any
other step what that step could change.  That audit is the checker's
only comparison of claims with the machine; resource mode skips it.

Writing cr3 is the special case: it is *physically* a register update
but it reinterprets every root-relative claim.  The ledger keys such
claims by their governing root, so the switch itself only has to move
the evaluation root and demand the invariant witness for the target
space; claims of the old space remain, reachable only through an
other-space wrapper from now on.  There is deliberately no local frame
rule; the ledger is the one global precondition threaded through.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Callable, Optional, Union

from .machine import (
    AddRegImm,
    Fault,
    Instr,
    MachineState,
    MovMemFromCr3,
    MovMemFromReg,
    MovRegFromCr3,
    MovRegFromMem,
    MovRegImm,
    MovRegReg,
    MovToCr3FromMem,
    MovToCr3FromReg,
    PAGE_SIZE,
    Reg,
    Skip,
    StepOpts,
    pte_frame,
    step as machine_step,
    translate,
    walk_text,
)
from .assertions import (
    Assertion,
    CHAIN_SHARES,
    FULL,
    L4L1PointsTo,
    Ledger,
    LedgerError,
    Location,
    PhysLoc,
    PtePt,
    RegLoc,
    RegPt,
    Registry,
    Sep,
    SpaceLoc,
    SumExceedsOne,
    ValueDisagreement as LedgerValueDisagreement,
    VirtPt,
    WalkLoc,
    WitnessUnavailable,
    InsufficientFraction as LedgerInsufficientFraction,
    ledger_join,
    loc_sort_key,
    lower,
    normalize,
    pure_holds,
)
from . import ghost as ghost_ops
from .ghost import GhostError

COEXEC = "coexec"
RESOURCE_ONLY = "resource"

CHECK_OPTS = StepOpts(enforce_rw=True, set_accessed=False)

# Violation kinds
MISSING_RESOURCE = "MissingResource"
INSUFFICIENT_FRACTION = "InsufficientFraction"
VALUE_DISAGREEMENT = "ValueDisagreement"
UNSOUND_FRAME = "UnsoundFrame"
UNKNOWN_ROOT = "UnknownRoot"
STUB_PRE_FAILED = "StubPreFailed"
MACHINE_DISAGREE = "MachineDisagree"


@dataclass(frozen=True)
class Violation:
    kind: str
    step: int  # index of the failing step; -1 for precondition failures
    location: Optional[str] = None
    narrative: str = ""

    def __str__(self) -> str:
        where = f" at {self.location}" if self.location else ""
        return f"step {self.step}: {self.kind}{where}: {self.narrative}"


# --------------------------------------------------------------------------
# Script steps


class ScriptStep:
    pass


@dataclass(frozen=True)
class InstrStep(ScriptStep):
    instr: Instr


@dataclass(frozen=True)
class GhostInsertWalk(ScriptStep):
    va: int
    pa: int


@dataclass(frozen=True)
class GhostRemoveWalk(ScriptStep):
    va: int


@dataclass(frozen=True)
class GhostPteToVirt(ScriptStep):
    va: int


@dataclass(frozen=True)
class GhostVirtToPte(ScriptStep):
    va: int
    pa: int


@dataclass(frozen=True)
class CallStep(ScriptStep):
    name: str


@dataclass(frozen=True)
class AssertStep(ScriptStep):
    assertion: Assertion


Script = list  # [ScriptStep]


# --------------------------------------------------------------------------
# Stubs


class StubError(Exception):
    """Raised by a stub whose (axiomatic) precondition does not hold."""


@dataclass(frozen=True)
class StubEnv:
    """What a stub's effect may look at when it runs."""

    machine: MachineState
    root: int
    registry: Registry
    free_list: tuple
    free_cursor: int


@dataclass(frozen=True)
class StubResult:
    produces: Assertion
    machine: MachineState
    free_cursor: int


@dataclass(frozen=True)
class StubSpec:
    """Axiomatized procedure: claims it consumes, a deterministic state
    effect, and the claims it produces (in co-execution, audited against
    the machine after the effect runs).  A RegPt pattern with val=None consumes the
    register claim whatever its value.  The effect must write memory only
    through ``write_word``/``mem_set``/``own_frame`` on a copy: frames are
    shared copy-on-write with the checker's machine."""

    name: str
    consumes: tuple
    apply: Callable[[StubEnv], StubResult]


# --------------------------------------------------------------------------
# Checker context


@dataclass(frozen=True)
class CheckerCtx:
    ledger: Ledger
    root: int
    registry: Registry
    machine: MachineState
    mode: str
    stubs: dict
    free_list: tuple = ()
    free_cursor: int = 0
    # co-execution audit index, {table frame: {(root, va), ...}}: the walks
    # (walk claims and walk-map entries) a check has read that frame for.
    # None until a full audit has passed; then it only grows, so successor
    # contexts share it (stale entries cost a re-check, never a miss).
    reads: Optional[dict] = None


@dataclass(frozen=True)
class StepRecord:
    index: int
    rule: str
    consumed: tuple
    produced: tuple
    root_before: int
    root_after: int


def _claim_text(loc: Location, q: Fraction, v: int) -> str:
    return f"{loc} {q} {v:#x}"


_NO_CLAIM = (Fraction(0), None)


def _ledger_delta(before: Ledger, after: Ledger, touched) -> tuple:
    """(consumed, produced) rendered claim deltas between two ledgers at
    the touched locations, the only ones a step's ledger operations can
    have changed."""
    consumed = []
    produced = []
    for loc in sorted(set(touched), key=str):
        oq, ov = before.claims.get(loc, _NO_CLAIM)
        nq, nv = after.claims.get(loc, _NO_CLAIM)
        if ov == nv:
            if nq > oq:
                produced.append(_claim_text(loc, nq - oq, nv))
            elif oq > nq:
                consumed.append(_claim_text(loc, oq - nq, ov))
        else:
            if ov is not None:
                consumed.append(_claim_text(loc, oq, ov))
            if nv is not None:
                produced.append(_claim_text(loc, nq, nv))
    return tuple(consumed), tuple(produced)


def _ledger_violation(err: LedgerError, index: int) -> Violation:
    if isinstance(err, SumExceedsOne):
        return Violation(INSUFFICIENT_FRACTION, index,
                         str(err.location) if err.location else None, str(err))
    if isinstance(err, LedgerValueDisagreement):
        return Violation(VALUE_DISAGREEMENT, index, str(err.location), str(err))
    if isinstance(err, LedgerInsufficientFraction):
        return Violation(INSUFFICIENT_FRACTION, index, str(err.location), str(err))
    if isinstance(err, WitnessUnavailable):
        return Violation(MISSING_RESOURCE, index,
                         str(WalkLoc(err.root, err.va)), str(err))
    return Violation(VALUE_DISAGREEMENT, index, None, str(err))


def _stranded_root(ledger: Ledger, va: int, root: int) -> Optional[int]:
    """The lowest root other than `root` under which the ledger holds a
    walk claim for `va` (a claim stranded there by an address-space
    switch), or None."""
    return min((loc.root for loc in ledger.claims
                if isinstance(loc, WalkLoc) and loc.va == va
                and loc.root != root), default=None)


def _walk_claim(ctx: CheckerCtx, va: int, index: int):
    """Find the current space's walk claim for va, or explain its absence
    (distinguishing a claim stranded under another root)."""
    loc = WalkLoc(ctx.root, va)
    claim = ctx.ledger.get(loc)
    if claim is not None:
        return loc, claim
    other = _stranded_root(ctx.ledger, va, ctx.root)
    if other is not None:
        return Violation(
            UNSOUND_FRAME, index, str(loc),
            f"claim for va {va:#x} is governed by space "
            f"{other:#x}; it was framed across an address-space "
            "switch and cannot be used here"), None
    return Violation(MISSING_RESOURCE, index, str(loc),
                     f"no walk claim for va {va:#x} in the current space"), None


def _reg_value(ctx: CheckerCtx, reg: Reg, index: int):
    claim = ctx.ledger.get(RegLoc(reg))
    if claim is None:
        return Violation(MISSING_RESOURCE, index, str(RegLoc(reg)),
                         f"no claim on register {reg.value}"), None
    return None, claim


def _set_value(ctx: CheckerCtx, loc: Location, value: int, index: int,
               rule: str):
    """Overwrite a fully held claim: a rule's outcome (see apply_rule)."""
    try:
        ledger = ctx.ledger.set_value(loc, value)
    except LedgerError as err:
        return _ledger_violation(err, index)
    return replace(ctx, ledger=ledger), rule, (loc,)


def _phys_loc_of(pa: int) -> PhysLoc:
    return PhysLoc(pa >> 12, pa & (PAGE_SIZE - 1))


def _chain_entries(ctx: CheckerCtx, va: int, index: int):
    """Resolve the four table slots and entry values a walk of `va` under
    the current root reads.  Values come from ledger claims when present,
    falling back to the current machine's tables."""
    table_frame = ctx.root >> 12
    slots = []
    entries = []
    for shift in (39, 30, 21, 12):
        off = ((va >> shift) & 0x1FF) * 8
        loc = PhysLoc(table_frame, off)
        claim = ctx.ledger.get(loc)
        if claim is not None:
            entry = claim[1]
        else:
            got = ctx.machine.read_word(table_frame, off)
            if isinstance(got, Fault):
                return Violation(
                    MISSING_RESOURCE, index, str(loc),
                    f"table slot for va {va:#x} is neither claimed nor "
                    "present in the machine"), None, None
            entry = got
        slots.append(loc)
        entries.append(entry)
        table_frame = pte_frame(entry)
    return None, slots, entries


# --------------------------------------------------------------------------
# Per-step rules


def _space_witness(ctx: CheckerCtx, root: int, index: int) -> Optional[Violation]:
    if ctx.ledger.get(SpaceLoc(root)) is None:
        return Violation(MISSING_RESOURCE, index, str(SpaceLoc(root)),
                         f"no invariant witness for space {root:#x}")
    return None


def _rule_read_mem(ctx: CheckerCtx, base: Reg, disp: int, index: int):
    """Common ledger work for a memory read: returns (violation, va, pa,
    value, ledger-untouched ctx)."""
    fail = _space_witness(ctx, ctx.root, index)
    if fail:
        return fail, None, None, None
    fail, base_claim = _reg_value(ctx, base, index)
    if fail:
        return fail, None, None, None
    va = (base_claim[1] + disp) % (1 << 64)
    got = _walk_claim(ctx, va, index)
    if isinstance(got[0], Violation):
        return got[0], None, None, None
    _loc, (q, pa) = got
    data = ctx.ledger.get(_phys_loc_of(pa))
    if data is None:
        return Violation(MISSING_RESOURCE, index, str(_phys_loc_of(pa)),
                         f"no data claim behind va {va:#x}"), None, None, None
    return None, va, pa, data[1]


def _switch_root(ctx: CheckerCtx, new_root: int, index: int):
    """The address-space switch: keeps facts, turns the target space's
    wrapped claims into current ones, and leaves the old space's claims
    reachable only through the other-space wrapper (all by re-keying the
    evaluation root; claims are already tagged with their governing
    space)."""
    if new_root % PAGE_SIZE:
        return Violation(UNKNOWN_ROOT, index, f"{new_root:#x}",
                         "target root is not page aligned"), None
    if new_root not in ctx.registry:
        return Violation(UNKNOWN_ROOT, index, f"{new_root:#x}",
                         "target root is not a registered space"), None
    fail = _space_witness(ctx, ctx.root, index)
    if fail:
        return fail, None
    fail = _space_witness(ctx, new_root, index)
    if fail:
        return fail, None
    return None, replace(ctx, root=new_root,
                         ledger=ctx.ledger.with_root(new_root))


def _apply_instr(ctx: CheckerCtx, instr: Instr, index: int):
    if isinstance(instr, Skip):
        return ctx, "skip", ()

    if isinstance(instr, MovRegReg):
        fail, src = _reg_value(ctx, instr.src, index)
        if fail:
            return fail
        return _set_value(ctx, RegLoc(instr.dst), src[1], index,
                          "reg-from-reg")

    if isinstance(instr, MovRegImm):
        return _set_value(ctx, RegLoc(instr.dst), instr.imm, index, "reg-imm")

    if isinstance(instr, AddRegImm):
        fail, dst = _reg_value(ctx, instr.dst, index)
        if fail:
            return fail
        return _set_value(ctx, RegLoc(instr.dst),
                          (dst[1] + instr.imm) % (1 << 64), index, "reg-add")

    if isinstance(instr, MovRegFromMem):
        fail, va, pa, value = _rule_read_mem(ctx, instr.base, instr.disp, index)
        if fail:
            return fail
        return _set_value(ctx, RegLoc(instr.dst), value, index, "load-virt")

    if isinstance(instr, (MovMemFromReg, MovMemFromCr3)):
        fail = _space_witness(ctx, ctx.root, index)
        if fail:
            return fail
        fail, base_claim = _reg_value(ctx, instr.base, index)
        if fail:
            return fail
        va = (base_claim[1] + instr.disp) % (1 << 64)
        if isinstance(instr, MovMemFromCr3):
            value = ctx.root
            rule = "cr3-store"
        else:
            fail, src = _reg_value(ctx, instr.src, index)
            if fail:
                return fail
            value = src[1]
            rule = "store-virt"
        got = _walk_claim(ctx, va, index)
        if isinstance(got[0], Violation):
            return got[0]
        _loc, (_q, pa) = got
        return _set_value(ctx, _phys_loc_of(pa), value, index, rule)

    if isinstance(instr, MovToCr3FromReg):
        fail, src = _reg_value(ctx, instr.src, index)
        if fail:
            return fail
        fail, switched = _switch_root(ctx, src[1], index)
        if fail:
            return fail
        return switched, "cr3-switch-reg", ()

    if isinstance(instr, MovRegFromCr3):
        return _set_value(ctx, RegLoc(instr.dst), ctx.root, index, "cr3-read")

    if isinstance(instr, MovToCr3FromMem):
        fail, va, pa, value = _rule_read_mem(ctx, instr.base, instr.disp, index)
        if fail:
            return fail
        fail, switched = _switch_root(ctx, value, index)
        if fail:
            return fail
        return switched, "cr3-switch-mem", ()

    raise TypeError(f"unknown instruction {instr!r}")


def _apply_ghost_insert(ctx: CheckerCtx, step: GhostInsertWalk, index: int):
    fail, slots, entries = _chain_entries(ctx, step.va, index)
    if fail:
        return fail
    evidence = L4L1PointsTo(step.va, *entries, step.pa)
    theta = ctx.registry.get(ctx.root)
    if theta is None:
        return Violation(UNKNOWN_ROOT, index, f"{ctx.root:#x}",
                         "current root is not a registered space")
    try:
        new_theta = ghost_ops.ghost_insert_walk(theta, evidence)
    except GhostError as err:
        return Violation(VALUE_DISAGREEMENT, index, None, str(err))
    walk_loc = WalkLoc(ctx.root, step.va)
    ledger = ctx.ledger
    try:
        for loc, share, entry in zip(slots, CHAIN_SHARES, entries):
            ledger = ledger.consume(loc, share, entry)
        ledger = ledger.add(walk_loc, FULL, step.pa)
    except LedgerError as err:
        return _ledger_violation(err, index)
    registry = {**ctx.registry, ctx.root: new_theta}
    return (replace(ctx, ledger=ledger, registry=registry),
            "ghost-insert-walk", (*slots, walk_loc))


def _apply_ghost_remove(ctx: CheckerCtx, step: GhostRemoveWalk, index: int):
    loc = WalkLoc(ctx.root, step.va)
    if ctx.ledger.get(loc) is None:
        return Violation(INSUFFICIENT_FRACTION, index, str(loc),
                         f"no walk token held for va {step.va:#x}")
    theta = ctx.registry.get(ctx.root)
    if theta is None:
        return Violation(UNKNOWN_ROOT, index, f"{ctx.root:#x}",
                         "current root is not a registered space")
    try:
        # the walk claim is the entry's token: only the full claim retires it
        ledger = ctx.ledger.consume(loc, FULL)
        new_theta = ghost_ops.ghost_remove_walk(theta, step.va)
    except LedgerError as err:
        return _ledger_violation(err, index)
    except GhostError as err:
        return Violation(VALUE_DISAGREEMENT, index, None, str(err))
    fail, slots, entries = _chain_entries(ctx, step.va, index)
    if fail:
        return fail
    try:
        # the chain shares held inside the invariant come back out
        for slot, share, entry in zip(slots, CHAIN_SHARES, entries):
            ledger = ledger.add(slot, share, entry)
    except LedgerError as err:
        return _ledger_violation(err, index)
    registry = {**ctx.registry, ctx.root: new_theta}
    return (replace(ctx, ledger=ledger, registry=registry),
            "ghost-remove-walk", (loc, *slots))


def _apply_call(ctx: CheckerCtx, step: CallStep, index: int):
    stub = ctx.stubs.get(step.name)
    if stub is None:
        return Violation(STUB_PRE_FAILED, index, step.name,
                         f"no stub named {step.name!r}")
    ledger = ctx.ledger
    touched = []
    for pattern in stub.consumes:
        if isinstance(pattern, RegPt):
            loc = RegLoc(pattern.reg)
            claim = ledger.get(loc)
            if claim is None:
                return Violation(
                    STUB_PRE_FAILED, index, str(loc),
                    f"stub {step.name} needs a claim on {pattern.reg.value}")
            held_q, held_v = claim
            if pattern.val is not None and held_v != pattern.val:
                return Violation(
                    STUB_PRE_FAILED, index, str(loc),
                    f"stub {step.name} needs {pattern.reg.value} = "
                    f"{pattern.val:#x}, ledger holds {held_v:#x}")
            try:
                ledger = ledger.consume(loc, pattern.q)
            except LedgerError as err:
                return replace(_ledger_violation(err, index),
                               kind=STUB_PRE_FAILED)
            touched.append(loc)
        else:
            try:
                needed = lower(pattern, ctx.root, ctx.registry)
                for loc, q, v in needed.sorted_claims():
                    ledger = ledger.consume(loc, q, v)
            except LedgerError as err:
                return replace(_ledger_violation(err, index),
                               kind=STUB_PRE_FAILED)
            touched.extend(needed.claims)
    env = StubEnv(machine=ctx.machine, root=ctx.root, registry=ctx.registry,
                  free_list=ctx.free_list, free_cursor=ctx.free_cursor)
    try:
        result = stub.apply(env)
    except StubError as err:
        return Violation(STUB_PRE_FAILED, index, step.name, str(err))
    try:
        produced = lower(result.produces, ctx.root, ctx.registry)
        merged = ledger_join(ledger, produced)
    except LedgerError as err:
        return _ledger_violation(err, index)
    for g, pred in produced.pures:
        if not pure_holds(pred, g, ctx.registry):
            return Violation(
                STUB_PRE_FAILED, index, step.name,
                f"stub {step.name} promised a false pure predicate: {pred}")
    touched.extend(produced.claims)
    new_ctx = replace(ctx, ledger=merged, machine=result.machine,
                      free_cursor=result.free_cursor)
    if ctx.mode == COEXEC:
        complaint = _audit(new_ctx, produced.claims, {}, None)
        if complaint is not None:
            return Violation(
                STUB_PRE_FAILED, index, step.name,
                f"stub {step.name} promised claims the machine does not "
                f"satisfy: {complaint}")
    return new_ctx, f"call:{step.name}", touched


def _apply_assert(ctx: CheckerCtx, step: AssertStep, index: int):
    try:
        wanted = lower(step.assertion, ctx.root, ctx.registry)
    except WitnessUnavailable as err:
        other = _stranded_root(ctx.ledger, err.va, err.root)
        if other is not None:
            return Violation(
                UNSOUND_FRAME, index, str(WalkLoc(err.root, err.va)),
                f"asserted claim for va {err.va:#x} only holds in space "
                f"{other:#x}; wrap it in the other-space "
                "modality instead of framing it")
        return _ledger_violation(err, index)
    except LedgerError as err:
        return _ledger_violation(err, index)
    problem = ctx.ledger.contains(wanted)
    if problem is not None:
        # before naming the first gap, see whether the root cause is a
        # walk claim stranded under a different governing root
        for loc, _q, _v in wanted.sorted_claims():
            if isinstance(loc, WalkLoc) and loc not in ctx.ledger.claims:
                other = _stranded_root(ctx.ledger, loc.va, loc.root)
                if other is not None:
                    return Violation(
                        UNSOUND_FRAME, index, str(loc),
                        f"asserted claim for va {loc.va:#x} is governed "
                        f"by space {other:#x}; it was framed "
                        "across an address-space switch")
        reason, loc, detail = problem
        if reason == "missing":
            return Violation(MISSING_RESOURCE, index, str(loc),
                             "asserted claim is not in the ledger")
        if reason == "fraction":
            return Violation(INSUFFICIENT_FRACTION, index, str(loc),
                             f"ledger holds only {detail}")
        return Violation(VALUE_DISAGREEMENT, index, str(loc),
                         f"ledger holds value {detail:#x}")
    for g, pred in wanted.pures:
        if not pure_holds(pred, g, ctx.registry):
            return Violation(VALUE_DISAGREEMENT, index, str(pred),
                             "pure predicate is false")
    return ctx, "assert", ()


def _apply_view(ctx: CheckerCtx, step: Union[GhostPteToVirt, GhostVirtToPte],
                index: int):
    """Moving between the virtual and the PTE view of a mapping needs the
    current space's walk claim; the ledger does not change."""
    got = _walk_claim(ctx, step.va, index)
    if isinstance(got[0], Violation):
        return got[0]
    if isinstance(step, GhostPteToVirt):
        return ctx, "ghost-pte-to-virt", ()
    loc, (_q, pa) = got
    if pa != step.pa:
        return Violation(VALUE_DISAGREEMENT, index, str(loc),
                         f"walk resolves to {pa:#x}, not {step.pa:#x}")
    return ctx, "ghost-virt-to-pte", ()


# --------------------------------------------------------------------------
# Co-execution audit


def _audit(ctx: CheckerCtx, locs, entries: dict,
           reads: Optional[dict]) -> Optional[str]:
    """Validate the held claims at `locs` against the machine, plus, for
    each root in `entries` whose space claim is held, the walk-map entries
    at the vas listed there (a space claim in `locs` checks them all).
    The first complaint in ``loc_sort_key`` order is returned, None when
    clean.  Every walk is noted in `reads` (see ``ghost.note_reads``)."""
    machine = ctx.machine
    if machine.reg(Reg.CR3) != ctx.root:
        return (f"machine cr3 {machine.reg(Reg.CR3):#x} differs from "
                f"checker root {ctx.root:#x}")
    claims = ctx.ledger.claims
    todo = {loc for loc in locs if loc in claims}
    todo.update(loc for loc in map(SpaceLoc, entries) if loc in claims)
    slots = None if reads is None else []
    for loc in sorted(todo, key=loc_sort_key):
        _q, v = claims[loc]
        if isinstance(loc, RegLoc):
            got = machine.reg(loc.reg)
            if got != v:
                return f"{loc}: ledger {v:#x}, machine {got:#x}"
        elif isinstance(loc, PhysLoc):
            got = machine.read_word(loc.frame, loc.off)
            if got != v:
                return (f"{loc}: ledger {v:#x}, machine "
                        f"{walk_text(got)[0]}")
        elif isinstance(loc, WalkLoc):
            got = translate(loc.root, machine.mem, loc.va, slots=slots)
            if reads is not None:
                ghost_ops.note_reads(reads, loc.root, loc.va, slots)
                slots.clear()
            if got != v:
                return (f"{loc}: ledger {v:#x}, machine walk "
                        f"{walk_text(got)[0]}")
            theta = ctx.registry.get(loc.root)
            if theta is None or theta.get(loc.va) != v:
                return f"{loc}: walk map does not record {v:#x}"
        else:
            registry = ctx.registry
            theta = registry.get(loc.root)
            if loc not in locs and theta is not None:
                registry = {loc.root: {va: theta[va] for va in
                                       entries[loc.root] if va in theta}}
            try:
                failures = ghost_ops.ias_check(machine, loc.root, registry,
                                               reads)
            except GhostError as err:
                return f"{loc}: {err}"
            if failures:
                va, fault = failures[0]
                return (f"{loc}: walk-map entry {va:#x} broken: "
                        f"{walk_text(fault)[0]}")
    return None


def audit_ledger(ctx: CheckerCtx, reads: Optional[dict] = None
                 ) -> Optional[str]:
    """Validate every ledger claim against the machine; None when clean.
    This full audit runs before the first step and after every stub call;
    it is also the oracle the per-step audit is tested against."""
    return _audit(ctx, ctx.ledger.claims, {}, reads)


def _audit_step(ctx: CheckerCtx, touched, reg: Optional[Reg],
                frames, walk: Optional[tuple]) -> Optional[str]:
    """The audit after one step, when every claim held before it: only
    what the step could have changed can have broken.  That is the
    locations its rule touched, the data register `reg` and the memory
    `frames` the machine wrote (taken from the machine, not the rule),
    every walk that read a written frame (``ctx.reads``), and the
    walk-map entry `walk` = (root, va) a ghost step inserted or removed;
    cr3 is always compared.  Everything else still holds, so the first
    complaint is the one the full audit would give."""
    reads = ctx.reads
    locs = set(touched)
    if reg is not None:
        locs.add(RegLoc(reg))
    walks = set()
    if walk is not None:
        walks.add(walk)
    if frames:
        locs.update(loc for loc in ctx.ledger.claims
                    if isinstance(loc, PhysLoc) and loc.frame in frames)
        for frame in frames:
            walks.update(reads.get(frame, ()))
    entries = {}
    for root, va in walks:
        locs.add(WalkLoc(root, va))
        entries.setdefault(root, set()).add(va)
    return _audit(ctx, locs, entries, reads)


# --------------------------------------------------------------------------
# apply_rule / check_double


def apply_rule(ctx: CheckerCtx, script_step: ScriptStep,
               index: int) -> Union[tuple, Violation]:
    """Apply one script step to the context.  Returns (ctx', StepRecord)
    or the Violation that stops the check."""
    # each rule returns a Violation or (ctx', rule name, the locations
    # its ledger operations touched)
    if isinstance(script_step, InstrStep):
        outcome = _apply_instr(ctx, script_step.instr, index)
    elif isinstance(script_step, GhostInsertWalk):
        outcome = _apply_ghost_insert(ctx, script_step, index)
    elif isinstance(script_step, GhostRemoveWalk):
        outcome = _apply_ghost_remove(ctx, script_step, index)
    elif isinstance(script_step, (GhostPteToVirt, GhostVirtToPte)):
        outcome = _apply_view(ctx, script_step, index)
    elif isinstance(script_step, CallStep):
        outcome = _apply_call(ctx, script_step, index)
    elif isinstance(script_step, AssertStep):
        outcome = _apply_assert(ctx, script_step, index)
    else:
        raise TypeError(f"unknown script step {script_step!r}")
    if isinstance(outcome, Violation):
        return outcome
    new_ctx, rule, touched = outcome

    reg = frames = walk = None
    if isinstance(script_step, InstrStep):
        result = machine_step(new_ctx.machine, script_step.instr, CHECK_OPTS)
        if isinstance(result, Fault):
            return Violation(
                MACHINE_DISAGREE, index, None,
                f"ledger accepts pc {ctx.machine.pc} but the machine "
                f"faults: {result!r}")
        new_ctx = replace(new_ctx, machine=result)
        # the one data register an instruction writes is its dst
        reg = getattr(script_step.instr, "dst", None)
        frames = result.mem.owned
    elif isinstance(script_step, (GhostInsertWalk, GhostRemoveWalk)):
        walk = (ctx.root, script_step.va)
    if new_ctx.mode == COEXEC:
        if new_ctx.reads is None or isinstance(script_step, CallStep):
            # a stub's effect is arbitrary code: audit and index afresh
            new_ctx = replace(new_ctx, reads={})
            complaint = audit_ledger(new_ctx, new_ctx.reads)
        else:
            complaint = _audit_step(new_ctx, touched, reg, frames, walk)
        if complaint is not None:
            return Violation(MACHINE_DISAGREE, index, None, complaint)

    consumed, produced = _ledger_delta(ctx.ledger, new_ctx.ledger, touched)
    record = StepRecord(index=index, rule=rule, consumed=consumed,
                        produced=produced, root_before=ctx.root,
                        root_after=new_ctx.root)
    return new_ctx, record


@dataclass(frozen=True)
class Report:
    root: int
    mode: str
    records: tuple
    final_ledger: Optional[Ledger]
    final_machine: Optional[MachineState]
    final_root: Optional[int]
    violation: Optional[Violation]

    @property
    def ok(self) -> bool:
        return self.violation is None

    def payload(self) -> dict:
        def claims_json(ledger: Ledger) -> list:
            return [{"location": str(loc), "share": str(q),
                     "value": f"{v:#x}"}
                    for loc, q, v in ledger.sorted_claims()]

        return {
            "ok": self.ok,
            "mode": self.mode,
            "initial_root": f"{self.root:#x}",
            "final_root": None if self.final_root is None
            else f"{self.final_root:#x}",
            "steps": [
                {
                    "index": r.index,
                    "rule": r.rule,
                    "consumed": list(r.consumed),
                    "produced": list(r.produced),
                    "root_before": f"{r.root_before:#x}",
                    "root_after": f"{r.root_after:#x}",
                }
                for r in self.records
            ],
            "final_claims": claims_json(self.final_ledger)
            if self.final_ledger is not None else None,
            "violation": None if self.violation is None else {
                "kind": self.violation.kind,
                "step": self.violation.step,
                "location": self.violation.location,
                "narrative": self.violation.narrative,
            },
        }

    def to_json(self) -> str:
        return json.dumps(self.payload(), indent=2) + "\n"

    def to_text(self) -> str:
        lines = [f"mode: {self.mode}", f"initial root: {self.root:#x}"]
        for r in self.records:
            arrow = "" if r.root_before == r.root_after else \
                f"  root {r.root_before:#x} -> {r.root_after:#x}"
            lines.append(f"[{r.index:03d}] {r.rule}{arrow}")
            for c in r.consumed:
                lines.append(f"      - {c}")
            for p in r.produced:
                lines.append(f"      + {p}")
        if self.violation is None:
            lines.append(f"final root: {self.final_root:#x}")
            lines.append("final claims:")
            for loc, q, v in self.final_ledger.sorted_claims():
                lines.append(f"  {_claim_text(loc, q, v)}")
            lines.append("result: ok")
        else:
            lines.append(f"result: FAIL {self.violation}")
        return "\n".join(lines) + "\n"


def check_double(pre: Assertion, root: int, script: Script,
                 stubs: Optional[dict] = None, mode: str = COEXEC,
                 init: Optional[MachineState] = None,
                 registry: Optional[Registry] = None,
                 free_list: tuple = ()) -> Report:
    """Check a script against a precondition under an initial root.

    The precondition is lowered into the starting ledger; each step is
    then checked by :func:`apply_rule`, which steps a copy of `init`
    alongside, so `init`'s cr3 must be `root` in both modes.  The mode
    only switches the audit: in co-execution mode every claim is audited
    against the machine before the first step and kept in agreement with
    it after each step.
    """
    registry = registry or {}
    init = init if init is not None else MachineState()
    stubs = stubs or {}

    def fail(violation: Violation) -> Report:
        return Report(root=root, mode=mode, records=(), final_ledger=None,
                      final_machine=None, final_root=None,
                      violation=violation)

    if root % PAGE_SIZE:
        return fail(Violation(UNKNOWN_ROOT, -1, f"{root:#x}",
                              "initial root is not page aligned"))
    try:
        ledger = lower(pre, root, registry)
    except LedgerError as err:
        return fail(_ledger_violation(err, -1))
    for g, pred in ledger.pures:
        if not pure_holds(pred, g, registry):
            return fail(Violation(VALUE_DISAGREEMENT, -1, str(pred),
                                  "precondition pure predicate is false"))
    ctx = CheckerCtx(ledger=ledger, root=root,
                     registry={r: dict(t) for r, t in registry.items()},
                     machine=init.copy(), mode=mode, stubs=dict(stubs),
                     free_list=tuple(free_list), free_cursor=0)
    if init.reg(Reg.CR3) != root:
        return fail(Violation(
            MACHINE_DISAGREE, -1, None,
            f"initial machine cr3 {init.reg(Reg.CR3):#x} differs from "
            f"declared root {root:#x}"))
    if mode == COEXEC:
        ctx = replace(ctx, reads={})
        complaint = audit_ledger(ctx, ctx.reads)
        if complaint is not None:
            return fail(Violation(MACHINE_DISAGREE, -1, None, complaint))

    records = []
    for index, script_step in enumerate(script):
        outcome = apply_rule(ctx, script_step, index)
        if isinstance(outcome, Violation):
            return Report(root=root, mode=mode, records=tuple(records),
                          final_ledger=None, final_machine=None,
                          final_root=None, violation=outcome)
        ctx, record = outcome
        records.append(record)

    return Report(root=root, mode=mode, records=tuple(records),
                  final_ledger=ctx.ledger, final_machine=ctx.machine,
                  final_root=ctx.root, violation=None)


# --------------------------------------------------------------------------
# Frame audit


def frame_audit(pre: Assertion, root: int, script: Script) -> list:
    """Advisory lint: find root-relative claims in the precondition that
    no step touches yet a cr3 write survives past, without an other-space
    wrapper.  Such claims silently change meaning at the switch; each one
    is reported as an UnsoundFrame.  check_double fails on its own if a
    stranded claim is actually used."""
    switch_steps = [i for i, s in enumerate(script)
                    if isinstance(s, InstrStep)
                    and isinstance(s.instr, (MovToCr3FromReg, MovToCr3FromMem))]
    if not switch_steps:
        return []

    flat = normalize(pre)
    parts = flat.parts if isinstance(flat, Sep) else (flat,)
    candidates = [p for p in parts if isinstance(p, (VirtPt, PtePt))]
    if not candidates:
        return []

    # Forward-resolve register values from the precondition's claims to
    # work out which virtual addresses the instructions touch.
    reg_vals = {}
    for p in parts:
        if isinstance(p, RegPt):
            reg_vals[p.reg] = p.val
    touched = set()
    for s in script:
        if isinstance(s, (GhostInsertWalk, GhostRemoveWalk, GhostPteToVirt,
                          GhostVirtToPte)):
            touched.add(s.va)
            continue
        if not isinstance(s, InstrStep):
            continue
        instr = s.instr
        if isinstance(instr, (MovRegFromMem, MovMemFromReg, MovMemFromCr3,
                              MovToCr3FromMem)):
            base = instr.base
            if base in reg_vals:
                touched.add((reg_vals[base] + instr.disp) % (1 << 64))
        if isinstance(instr, MovRegImm):
            reg_vals[instr.dst] = instr.imm
        elif isinstance(instr, AddRegImm):
            if instr.dst in reg_vals:
                reg_vals[instr.dst] = (reg_vals[instr.dst] + instr.imm) \
                    % (1 << 64)
        elif isinstance(instr, MovRegReg):
            if instr.src in reg_vals:
                reg_vals[instr.dst] = reg_vals[instr.src]
            else:
                reg_vals.pop(instr.dst, None)
        elif isinstance(instr, (MovRegFromMem, MovRegFromCr3)):
            reg_vals.pop(instr.dst, None)

    warnings = []
    for claim in sorted(candidates, key=repr):
        if claim.va not in touched:
            warnings.append(Violation(
                UNSOUND_FRAME, switch_steps[0], str(WalkLoc(root, claim.va)),
                f"claim for va {claim.va:#x} is framed, untouched, across an "
                "address-space switch; wrap it in the other-space modality "
                "for the old root"))
    return warnings
