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

The checker takes the instruction forms from the machine (the memory
forms are ``MEM_FORMS``) and reads page tables only through its walk
kernel, ``translate``.  A ghost step takes its walk chain from the
current machine (which co-execution's audit has proved equal to every
held claim) and keeps the space's walk map in the registry itself.

``apply_rule`` is a step's one transaction: the step's rule (from
``_RULES``) writes the check's one ledger and walk map in place, through
a draft whose journal the step's record is rendered from.  A refusal by
the rule, the machine step or the audit is a raised ``Reject`` (a failed
ledger operation's ``LedgerError`` is one), which ``apply_rule`` undoes
from the journal and stamps with the step's index, as ``check_double``
does at step -1.

Writing cr3 is the special case: it is *physically* a register update
but it reinterprets every root-relative claim.  The ledger keys such
claims by their governing root, so the switch itself only has to move
the evaluation root and demand the invariant witness for the target
space; claims of the old space remain, reachable only through an
other-space wrapper from now on.  There is deliberately no local frame
rule; the ledger is the one global precondition threaded through.  The
``frame_audit`` lint reads the checked run for unwrapped claims left behind.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from functools import lru_cache
from typing import Callable, NamedTuple, Optional, Union

from .machine import (
    AddRegImm,
    Fault,
    FrameUnmapped,
    Instr,
    MEM_FORMS,
    MachineState,
    MovMemFromCr3,
    MovMemFromReg,
    MovRegFromCr3,
    MovRegFromMem,
    MovRegImm,
    MovRegReg,
    MovToCr3FromReg,
    PAGE_SIZE,
    Reg,
    Skip,
    StepOpts,
    WORD_BYTES,
    step as machine_step,
    translate,
    walk_text,
)
from .assertions import (
    Assertion,
    INSUFFICIENT_FRACTION,
    Ledger,
    LedgerDraft,
    LedgerError,
    Location,
    MISSING_RESOURCE,
    PhysLoc,
    PtePt,
    RegLoc,
    RegPt,
    Registry,
    Reject,
    Sep,
    SpaceLoc,
    VALUE_DISAGREEMENT,
    VirtPt,
    WalkLoc,
    WitnessUnavailable,
    chain_fault,
    lower,
    phys_loc,
    pure_holds,
    share_text,
)

COEXEC = "coexec"
RESOURCE_ONLY = "resource"

CHECK_OPTS = StepOpts(enforce_rw=True, set_accessed=False)

# Violation kinds (and the three of ledger errors, from assertions)
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


class GhostStep(ScriptStep):
    """A ghost step: every field is a word address, a word-aligned 64-bit
    word, as a walk-map key or value must be."""

    def __post_init__(self) -> None:
        for name, value in vars(self).items():
            if not 0 <= value < 1 << 64:
                raise ValueError(f"ghost {name}={value:#x} is not a 64-bit "
                                 "word")
            if value % WORD_BYTES:
                raise ValueError(f"ghost {name}={value:#x} is not word "
                                 "aligned")


@dataclass(frozen=True)
class GhostInsertWalk(GhostStep):
    va: int
    pa: int


@dataclass(frozen=True)
class GhostRemoveWalk(GhostStep):
    va: int


@dataclass(frozen=True)
class GhostPteToVirt(GhostStep):
    va: int


@dataclass(frozen=True)
class GhostVirtToPte(GhostStep):
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
    produces: Ledger
    machine: MachineState
    free_cursor: int


@dataclass(frozen=True)
class StubSpec:
    """Axiomatized procedure: claims it consumes, a deterministic state
    effect, and the claims it produces (in co-execution, audited against
    the machine after the effect runs).  A RegPt pattern with val=None consumes the
    register claim whatever its value.  The effect must write memory only
    through ``write_word``/``mem_set``/``own_frame`` on a copy: frames are
    shared copy-on-write with the checker's machine.  A result's
    ``produces`` is the ledger of the claims it hands over, under the
    env's root (an assertion lowered under ``env.root``/``env.registry``,
    or claims added on a draft), which the call joins in location order."""

    name: str
    consumes: tuple
    apply: Callable[[StubEnv], StubResult]


# --------------------------------------------------------------------------
# Checker context


class CheckerCtx(NamedTuple):
    """The checker's state between steps: a named tuple whose fields a step
    replaces only when they change.  Its ledger's claims and walk maps are
    written in place: an accepted step spends it, a refused one does not."""

    ledger: Ledger
    root: int
    registry: Registry
    machine: MachineState
    mode: str
    stubs: dict
    # the walk locations the run has read a claim at or changed an entry
    # of, shared by successor contexts like ``reads``
    touched: set
    free_list: tuple = ()
    free_cursor: int = 0
    # co-execution audit index, {table frame: {(root, va), ...}}: the walks
    # (walk claims and walk-map entries) a check has read that frame for.
    # None until a full audit has passed; then it only grows, so successor
    # contexts share it (stale entries cost a re-check, never a miss).
    reads: Optional[dict] = None


class StepRecord(NamedTuple):
    index: int
    rule: str
    consumed: tuple
    produced: tuple
    root_before: int
    root_after: int


@lru_cache(maxsize=1 << 13)
def _claim_text(loc: Location, n: int, value: int, den: int) -> str:
    """The text of the claim of n/den at `loc` on `value`, built once."""
    return f"{loc} {share_text(n, den)} {value:#x}"


def _step_claims(journal: dict, after: Ledger) -> tuple:
    """(consumed, produced) claim texts of a step from its draft's journal,
    in location text order: the share a location lost or gained if it
    kept its value, else its whole claims before and after."""
    consumed, produced = [], []
    claims, den = after.claims, after.den
    for loc in sorted(journal, key=str):
        before, now = journal[loc], claims.get(loc)
        if before and now and before[1] == now[1]:
            gain = now[0] - before[0]
            before = (-gain, before[1]) if gain < 0 else None
            now = (gain, now[1]) if gain > 0 else None
        if before:
            consumed.append(_claim_text(loc, *before, den))
        if now:
            produced.append(_claim_text(loc, *now, den))
    return tuple(consumed), tuple(produced)


def _stranded_root(ledger: Ledger, va: int, root: int) -> Optional[int]:
    """The lowest root other than `root` under which the ledger holds a
    walk claim for `va` (a claim stranded there by an address-space
    switch), or None."""
    return min((loc.root for loc in ledger.claims
                if isinstance(loc, WalkLoc) and loc.va == va
                and loc.root != root), default=None)


def _walk_claim(ctx: CheckerCtx, va: int) -> int:
    """The pa of the current space's walk claim for va, noted in
    ``ctx.touched`` found or not; its absence is refused, naming a claim
    stranded under another root."""
    loc = WalkLoc(ctx.root, va)
    ctx.touched.add(loc)
    claim = ctx.ledger.claims.get(loc)
    if claim is not None:
        return claim[1]
    other = _stranded_root(ctx.ledger, va, ctx.root)
    if other is not None:
        raise Reject(UNSOUND_FRAME, str(loc),
                     f"claim for va {va:#x} is governed by space "
                     f"{other:#x}; it was framed across an address-space "
                     "switch and cannot be used here")
    raise Reject(MISSING_RESOURCE, str(loc),
                 f"no walk claim for va {va:#x} in the current space")


def _reg_value(ctx: CheckerCtx, reg: Reg) -> int:
    claim = ctx.ledger.claims.get(RegLoc(reg))
    if claim is None:
        raise Reject(MISSING_RESOURCE, str(RegLoc(reg)),
                     f"no claim on register {reg.value}")
    return claim[1]


def _chain_entries(ctx: CheckerCtx, va: int):
    """The four table slots and entry values the current machine's walk
    of `va` under the current root reads.  A walk that stops before the
    L1 entry is refused at the slot where it stopped."""
    mem = ctx.machine.mem
    slots = []
    got = translate(ctx.root, mem, va, slots=slots)
    if len(slots) < 4:
        stop = got.phys if isinstance(got, FrameUnmapped) else slots[-1]
        raise Reject(MISSING_RESOURCE, str(phys_loc(stop)),
                     f"table slot for va {va:#x} holds no present entry "
                     "in the machine")
    return ([phys_loc(slot) for slot in slots],
            [mem[slot >> 12][slot & (PAGE_SIZE - 1)] for slot in slots])


def _walk_map(ctx: CheckerCtx) -> dict:
    """The current space's walk map."""
    theta = ctx.registry.get(ctx.root)
    if theta is None:
        raise Reject(UNKNOWN_ROOT, f"{ctx.root:#x}",
                     "current root is not a registered space")
    return theta


# --------------------------------------------------------------------------
# Per-step rules: each takes the step's ledger draft, which apply_rule
# opens and undoes on a refusal, and returns (ctx', rule name), or refuses
# the step by raising a Reject (a failed ledger operation's LedgerError
# is one).


def _space_witness(ctx: CheckerCtx, root: int) -> None:
    if SpaceLoc(root) not in ctx.ledger.claims:
        raise Reject(MISSING_RESOURCE, str(SpaceLoc(root)),
                     f"no invariant witness for space {root:#x}")


def _switch_root(ctx: CheckerCtx, new_root: int) -> CheckerCtx:
    """The address-space switch: keeps facts, turns the target space's
    wrapped claims into current ones, and leaves the old space's claims
    reachable only through the other-space wrapper (all by moving the
    evaluation root; claims are already tagged with their governing
    space)."""
    if new_root % PAGE_SIZE:
        raise Reject(UNKNOWN_ROOT, f"{new_root:#x}",
                     "target root is not page aligned")
    if new_root not in ctx.registry:
        raise Reject(UNKNOWN_ROOT, f"{new_root:#x}",
                     "target root is not a registered space")
    _space_witness(ctx, ctx.root)
    _space_witness(ctx, new_root)
    return ctx._replace(root=new_root)


def _set_value(ctx: CheckerCtx, draft: LedgerDraft, loc: Location,
               value: int, rule: str):
    """Overwrite a fully held claim: a rule's outcome."""
    draft.set_value(loc, value)
    return ctx, rule


def _apply_instr(ctx: CheckerCtx, draft: LedgerDraft, step: InstrStep):
    instr = step.instr
    if isinstance(instr, Skip):
        return ctx, "skip"
    if isinstance(instr, MovRegReg):
        return _set_value(ctx, draft, RegLoc(instr.dst),
                          _reg_value(ctx, instr.src), "reg-from-reg")
    if isinstance(instr, MovRegImm):
        return _set_value(ctx, draft, RegLoc(instr.dst), instr.imm,
                          "reg-imm")
    if isinstance(instr, AddRegImm):
        return _set_value(ctx, draft, RegLoc(instr.dst),
                          (_reg_value(ctx, instr.dst) + instr.imm) % (1 << 64),
                          "reg-add")
    if isinstance(instr, MovRegFromCr3):
        return _set_value(ctx, draft, RegLoc(instr.dst), ctx.root,
                          "cr3-read")
    if isinstance(instr, MovToCr3FromReg):
        return _switch_root(ctx, _reg_value(ctx, instr.src)), "cr3-switch-reg"
    if not isinstance(instr, MEM_FORMS):
        raise TypeError(f"unknown instruction {instr!r}")

    # the memory forms, checked as machine._access_memory checks them: the
    # space witness, the base register, the stored register and the walk
    # claim; then the load, store or switch itself
    _space_witness(ctx, ctx.root)
    va = (_reg_value(ctx, instr.base) + instr.disp) % (1 << 64)
    if isinstance(instr, MovMemFromReg):
        stored = _reg_value(ctx, instr.src)
    data_loc = phys_loc(_walk_claim(ctx, va))
    if isinstance(instr, MovMemFromReg):
        return _set_value(ctx, draft, data_loc, stored, "store-virt")
    if isinstance(instr, MovMemFromCr3):
        return _set_value(ctx, draft, data_loc, ctx.root, "cr3-store")
    data = ctx.ledger.claims.get(data_loc)
    if data is None:
        raise Reject(MISSING_RESOURCE, str(data_loc),
                     f"no data claim behind va {va:#x}")
    if isinstance(instr, MovRegFromMem):
        return _set_value(ctx, draft, RegLoc(instr.dst), data[1],
                          "load-virt")
    return _switch_root(ctx, data[1]), "cr3-switch-mem"


def _apply_ghost_insert(ctx: CheckerCtx, draft: LedgerDraft,
                        step: GhostInsertWalk):
    slots, entries = _chain_entries(ctx, step.va)
    theta = _walk_map(ctx)
    if step.va in theta:
        raise Reject(VALUE_DISAGREEMENT, None,
                     f"walk map already holds {step.va:#x}")
    # the chain must hold on its own: resolve va to pa, every entry present
    fault = chain_fault(step.va, entries, step.pa)
    if fault is not None:
        raise Reject(VALUE_DISAGREEMENT, None, fault)
    draft.chain(slots, entries, take=True)
    loc = WalkLoc(ctx.root, step.va)
    draft.add_full(loc, step.pa)
    theta[step.va] = step.pa
    ctx.touched.add(loc)
    return ctx, "ghost-insert-walk"


def _apply_ghost_remove(ctx: CheckerCtx, draft: LedgerDraft,
                        step: GhostRemoveWalk):
    loc = WalkLoc(ctx.root, step.va)
    if loc not in ctx.ledger.claims:
        raise Reject(INSUFFICIENT_FRACTION, str(loc),
                     f"no walk token held for va {step.va:#x}")
    theta = _walk_map(ctx)
    # the walk claim is the entry's token: only the full claim retires it
    draft.consume_full(loc)
    if step.va not in theta:
        raise Reject(VALUE_DISAGREEMENT, None,
                     f"walk map has no entry for {step.va:#x}")
    slots, entries = _chain_entries(ctx, step.va)
    # the chain shares held inside the invariant come back out
    draft.chain(slots, entries)
    del theta[step.va]
    ctx.touched.add(loc)
    return ctx, "ghost-remove-walk"


def _apply_call(ctx: CheckerCtx, draft: LedgerDraft, step: CallStep):
    stub = ctx.stubs.get(step.name)
    if stub is None:
        raise Reject(STUB_PRE_FAILED, step.name,
                     f"no stub named {step.name!r}")
    try:
        for pattern in stub.consumes:
            if isinstance(pattern, RegPt):
                loc = RegLoc(pattern.reg)
                claim = draft.claims.get(loc)
                if claim is None:
                    raise Reject(STUB_PRE_FAILED, str(loc),
                                 f"stub {step.name} needs a claim on "
                                 f"{pattern.reg.value}")
                if pattern.val is not None and claim[1] != pattern.val:
                    raise Reject(STUB_PRE_FAILED, str(loc),
                                 f"stub {step.name} needs "
                                 f"{pattern.reg.value} = {pattern.val:#x}, "
                                 f"ledger holds {claim[1]:#x}")
                draft.consume(loc, pattern.q)
            else:
                needed = lower(pattern, ctx.root, ctx.registry)
                for loc, q, v in needed.sorted_claims():
                    draft.consume(loc, q, v)
    except LedgerError as err:
        raise Reject(STUB_PRE_FAILED, err.location, err.narrative)
    env = StubEnv(machine=ctx.machine, root=ctx.root, registry=ctx.registry,
                  free_list=ctx.free_list, free_cursor=ctx.free_cursor)
    try:
        result = stub.apply(env)
    except StubError as err:
        raise Reject(STUB_PRE_FAILED, step.name, str(err))
    produced = result.produces
    draft.join(produced)
    for g, pred in produced.pures:
        if not pure_holds(pred, g, ctx.registry):
            raise Reject(STUB_PRE_FAILED, step.name,
                         f"stub {step.name} promised a false pure "
                         f"predicate: {pred}")
    new_ctx = ctx._replace(machine=result.machine,
                           free_cursor=result.free_cursor)
    if ctx.mode == COEXEC:
        complaint = _audit(new_ctx, produced.claims)
        if complaint is not None:
            raise Reject(STUB_PRE_FAILED, step.name,
                         f"stub {step.name} promised claims the machine "
                         f"does not satisfy: {complaint}")
    return new_ctx, f"call:{step.name}"


def _apply_assert(ctx: CheckerCtx, draft: LedgerDraft, step: AssertStep):
    try:
        wanted = lower(step.assertion, ctx.root, ctx.registry)
    except WitnessUnavailable as err:
        other = _stranded_root(ctx.ledger, err.va, err.root)
        if other is None:
            raise
        raise Reject(UNSOUND_FRAME, str(WalkLoc(err.root, err.va)),
                     f"asserted claim for va {err.va:#x} only holds in space "
                     f"{other:#x}; wrap it in the other-space "
                     "modality instead of framing it")
    problem = ctx.ledger.contains(wanted)
    if problem is not None:
        # before naming the first gap, see whether the root cause is a
        # walk claim stranded under a different governing root
        for loc in sorted(wanted.claims):
            if isinstance(loc, WalkLoc) and loc not in ctx.ledger.claims:
                other = _stranded_root(ctx.ledger, loc.va, loc.root)
                if other is not None:
                    raise Reject(UNSOUND_FRAME, str(loc),
                                 f"asserted claim for va {loc.va:#x} is "
                                 f"governed by space {other:#x}; it was "
                                 "framed across an address-space switch")
        raise problem
    for g, pred in wanted.pures:
        if not pure_holds(pred, g, ctx.registry):
            raise Reject(VALUE_DISAGREEMENT, str(pred),
                         "pure predicate is false")
    return ctx, "assert"


def _apply_view(ctx: CheckerCtx, draft: LedgerDraft,
                step: Union[GhostPteToVirt, GhostVirtToPte]):
    """Moving between the virtual and the PTE view of a mapping needs the
    current space's walk claim; the ledger does not change."""
    pa = _walk_claim(ctx, step.va)
    if isinstance(step, GhostPteToVirt):
        return ctx, "ghost-pte-to-virt"
    if pa != step.pa:
        raise Reject(VALUE_DISAGREEMENT, str(WalkLoc(ctx.root, step.va)),
                     f"walk resolves to {pa:#x}, not {step.pa:#x}")
    return ctx, "ghost-virt-to-pte"


# the rule of each kind of script step
_RULES = {
    InstrStep: _apply_instr,
    GhostInsertWalk: _apply_ghost_insert,
    GhostRemoveWalk: _apply_ghost_remove,
    GhostPteToVirt: _apply_view,
    GhostVirtToPte: _apply_view,
    CallStep: _apply_call,
    AssertStep: _apply_assert,
}


# --------------------------------------------------------------------------
# Co-execution audit


def _audit(ctx: CheckerCtx, locs, walks=()) -> Optional[str]:
    """Validate the held claims at `locs` against the machine, plus, for
    each (root, va) in `walks` whose root's space claim is held, its
    walk-map entry (a space claim in `locs` checks every entry).  Each
    (root, va) is walked once, and with ``ctx.reads`` each walk is noted
    there under every table frame it read.  The first complaint in
    location order is returned, None when clean."""
    machine = ctx.machine
    if machine.reg(Reg.CR3) != ctx.root:
        return (f"machine cr3 {machine.reg(Reg.CR3):#x} differs from "
                f"checker root {ctx.root:#x}")
    claims = ctx.ledger.claims
    todo = {loc for loc in locs if loc in claims}
    for root, _va in walks:
        space = SpaceLoc(root)
        if space in claims:
            todo.add(space)
    reads = ctx.reads
    walked = {}

    def translated(root: int, va: int):
        if (root, va) not in walked:
            slots = []
            walked[root, va] = translate(root, machine.mem, va, slots=slots)
            if reads is not None:
                for slot in slots:
                    reads.setdefault(slot >> 12, set()).add((root, va))
        return walked[root, va]

    for loc in sorted(todo):
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
            got = translated(loc.root, loc.va)
            if got != v:
                return (f"{loc}: ledger {v:#x}, machine walk "
                        f"{walk_text(got)[0]}")
            theta = ctx.registry.get(loc.root)
            if theta is None or theta.get(loc.va) != v:
                return f"{loc}: walk map does not record {v:#x}"
        else:
            theta = ctx.registry.get(loc.root)
            if theta is None:
                return (f"{loc}: address space {loc.root:#x} is not "
                        "registered")
            vas = theta if loc in locs else \
                {va for root, va in walks if root == loc.root and va in theta}
            for va in sorted(vas):
                got = translated(loc.root, va)
                if got != theta[va]:
                    return (f"{loc}: walk-map entry {va:#x} broken: "
                            f"{walk_text(got)[0]}")
    return None


def audit_ledger(ctx: CheckerCtx) -> Optional[str]:
    """Validate every ledger claim against the machine; None when clean.
    This full audit runs before the first step and after every stub call;
    it is also the oracle the per-step audit is tested against."""
    return _audit(ctx, ctx.ledger.claims)


def _audit_step(ctx: CheckerCtx, reg: Optional[Reg], frames,
                walk: Optional[tuple], journal) -> Optional[str]:
    """The audit after one step, when every claim held before it: only
    what the step could have changed can have broken.  That is the data
    register `reg` and the memory `frames` the machine wrote, every walk
    that read a written frame (``ctx.reads``), and the walk-map entry
    `walk` = (root, va) a ghost step inserted or removed, with the walk
    claim the step changed there: its rule's own location, found in the
    step's `journal`.  cr3 is always compared.  Rules change no claim
    outside these, since they take chain and data values from the
    machine audited before the step.  So the first complaint is the one
    the full audit would give."""
    locs = set() if reg is None else {RegLoc(reg)}
    if walk is not None:
        locs.update(loc for loc in journal if type(loc) is WalkLoc)
        return _audit(ctx, locs, (walk,))
    walks = set()
    if frames:
        locs.update(loc for loc in ctx.ledger.claims
                    if isinstance(loc, PhysLoc) and loc.frame in frames)
        for frame in frames:
            walks.update(ctx.reads.get(frame, ()))
        locs.update(WalkLoc(root, va) for root, va in walks)
    return _audit(ctx, locs, walks)


# --------------------------------------------------------------------------
# apply_rule / check_double


def apply_rule(ctx: CheckerCtx, script_step: ScriptStep,
               index: int) -> Union[tuple, Violation]:
    """Apply one script step to the context, as one transaction (see the
    module docstring): (ctx', StepRecord), `ctx` spent, or the stopping
    Violation, `ctx` as it was."""
    rule = _RULES.get(type(script_step))
    if rule is None:
        raise TypeError(f"unknown script step {script_step!r}")
    ledger, reg, frames, walk = ctx.ledger, None, None, None
    draft = LedgerDraft(ledger.root, ledger.claims, ledger.pures, ledger.den)
    if isinstance(script_step, (GhostInsertWalk, GhostRemoveWalk)):
        # the walk-map entry the step writes, as it was
        walk = (ctx.root, script_step.va)
        theta = ctx.registry.get(ctx.root, {})
        entry = theta.get(script_step.va)
    try:
        new_ctx, name = rule(ctx, draft, script_step)
        if isinstance(script_step, InstrStep):
            machine = machine_step(ctx.machine, script_step.instr, CHECK_OPTS)
            if isinstance(machine, Fault):
                raise Reject(MACHINE_DISAGREE, None,
                             f"ledger accepts pc {ctx.machine.pc} but the "
                             f"machine faults: {machine!r}")
            # the one data register an instruction writes is its dst
            reg = getattr(script_step.instr, "dst", None)
            frames = machine.mem.owned
            new_ctx = new_ctx._replace(machine=machine)
        if (new_ctx.root, draft.pures, draft.den) != \
                (ledger.root, ledger.pures, ledger.den):
            new_ctx = new_ctx._replace(ledger=Ledger(
                new_ctx.root, draft.claims, draft.pures, draft.den))
        if new_ctx.mode == COEXEC:
            if new_ctx.reads is None or isinstance(script_step, CallStep):
                # a stub's effect is arbitrary code: audit and index afresh
                new_ctx = new_ctx._replace(reads={})
                complaint = audit_ledger(new_ctx)
            else:
                complaint = _audit_step(new_ctx, reg, frames, walk,
                                        draft.journal)
            if complaint is not None:
                raise Reject(MACHINE_DISAGREE, None, complaint)
    except BaseException as err:
        # a refusal, or an error raised through the step, is undone
        draft.undo(ledger.den)
        if walk is not None:
            theta.pop(walk[1], None)
            if entry is not None:
                theta[walk[1]] = entry
        if not isinstance(err, Reject):
            raise
        return Violation(err.kind, index, err.location, err.narrative)

    consumed, produced = _step_claims(draft.journal, new_ctx.ledger)
    return new_ctx, StepRecord(index, name, consumed, produced, ctx.root,
                               new_ctx.root)


@dataclass(frozen=True)
class Report:
    root: int
    mode: str
    records: tuple
    final_ledger: Optional[Ledger]
    final_machine: Optional[MachineState]
    final_root: Optional[int]
    violation: Optional[Violation]
    touched: frozenset = frozenset()  # CheckerCtx.touched; not rendered

    @property
    def ok(self) -> bool:
        return self.violation is None

    def payload(self) -> dict:
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
            "final_claims": None if self.final_ledger is None else [
                {"location": str(loc),
                 "share": share_text(n, self.final_ledger.den),
                 "value": f"{v:#x}"}
                for loc, (n, v) in sorted(self.final_ledger.claims.items())],
            "violation": None if self.violation is None
            else asdict(self.violation),
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
            ledger = self.final_ledger
            for loc, (n, v) in sorted(ledger.claims.items()):
                lines.append(f"  {_claim_text(loc, n, v, ledger.den)}")
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

    The precondition is lowered into the check's one ledger; each step is
    then checked by :func:`apply_rule` on it and on a copy of `registry`,
    stepping a copy of `init` alongside, so `init`'s cr3 must be `root` in
    both modes; no argument is written.  The mode only switches the audit:
    in co-execution mode every claim is audited against the machine
    before the first step and kept in agreement with it after each step.
    """
    registry = registry or {}
    init = init if init is not None else MachineState()
    records, touched = [], set()
    violation = None
    try:
        if root % PAGE_SIZE:
            raise Reject(UNKNOWN_ROOT, f"{root:#x}",
                         "initial root is not page aligned")
        ledger = lower(pre, root, registry)
        for g, pred in ledger.pures:
            if not pure_holds(pred, g, registry):
                raise Reject(VALUE_DISAGREEMENT, str(pred),
                             "precondition pure predicate is false")
        if init.reg(Reg.CR3) != root:
            raise Reject(MACHINE_DISAGREE, None,
                         f"initial machine cr3 {init.reg(Reg.CR3):#x} "
                         f"differs from declared root {root:#x}")
        ctx = CheckerCtx(ledger=ledger, root=root,
                         registry={r: dict(t) for r, t in registry.items()},
                         machine=init.copy(), mode=mode,
                         stubs=dict(stubs or {}), touched=touched,
                         free_list=tuple(free_list),
                         reads={} if mode == COEXEC else None)
        complaint = audit_ledger(ctx) if mode == COEXEC else None
        if complaint is not None:
            raise Reject(MACHINE_DISAGREE, None, complaint)
    except Reject as err:
        violation = Violation(err.kind, -1, err.location, err.narrative)
    else:
        for index, script_step in enumerate(script):
            outcome = apply_rule(ctx, script_step, index)
            if isinstance(outcome, Violation):
                violation = outcome
                break
            ctx, record = outcome
            records.append(record)

    ok = violation is None
    return Report(root=root, mode=mode, records=tuple(records),
                  final_ledger=ctx.ledger if ok else None,
                  final_machine=ctx.machine if ok else None,
                  final_root=ctx.root if ok else None, violation=violation,
                  touched=frozenset(touched))


# --------------------------------------------------------------------------
# Frame audit


def frame_audit(pre: Assertion, report: Report) -> list:
    """Advisory lint: each unwrapped root-relative claim of the precondition
    whose walk the checked run never read or changed under the initial root
    (``report.touched``) silently changes meaning at the run's first
    accepted cr3 write, and is reported there once, as an UnsoundFrame, in
    location order.  A refused run counts as far as it got: nothing before
    step 0, no cr3 write after the refusing step, and the walks the
    refusing step read or changed."""
    switch = next((r.index for r in report.records
                   if r.rule.startswith("cr3-switch")), None)
    if switch is None:
        return []
    # the |->v and |->pte claims reached through * alone, no wrapper
    candidates, todo = set(), [pre]
    while todo:
        node = todo.pop()
        if isinstance(node, Sep):
            todo.extend(node.parts)
        elif isinstance(node, (VirtPt, PtePt)):
            candidates.add(WalkLoc(report.root, node.va))
    return [Violation(UNSOUND_FRAME, switch, str(loc),
                      f"claim for va {loc.va:#x} is framed, untouched, "
                      "across an address-space switch; wrap it in the "
                      "other-space modality for the old root")
            for loc in sorted(candidates - report.touched)]
