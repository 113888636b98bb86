"""Resource checker for instruction scripts against a claim ledger.

A script is checked one step at a time: every instruction must find the
claims it needs in the ledger (with enough of a share, and agreeing on
values) and consumes and reissues them per its rule.  The concrete
machine is stepped alongside in both modes, so stubs and walk chains
read the state the script has reached and a step the machine faults on
is rejected.  Only co-execution mode compares the two: it audits every
claim before the first step, and after each step only what that step
could change, a stub call included.  That audit is the checker's only
comparison of claims with the machine; resource mode skips it.

The checker takes the instruction forms from the machine (the memory
forms are ``MEM_FORMS``) and reads page tables only through the
machine's walk kernel, ``translate``, and its page-walk memo: the
audit's walks and a ghost step's walk of its chain read the current
machine (which co-execution's audit has proved equal to every held
claim), each page's walk under a root once until the tables may have
changed, as a TLB caches it; the ghost step keeps the space's walk map
in the registry itself.

``apply_rule`` is a step's one transaction on the check's one mutable
``CheckState``, a ``Ledger`` that also holds the machine, walk maps,
stubs and free list: the step's rule (from ``_RULES``) changes its
claims and walk map in place, journaling each claim, and an instruction
then runs on its machine in place.  A call's stub writes the machine in
place too and reads the walk maps through a read-only view: a call
copies neither the frame table nor a walk map.  Both run under the
memory's write journal (``Mem.journal``), which lists each word or frame
written with what it replaced; the audit reads the step's writes from
it.  The memo is emptied after an instruction or a stub that wrote
memory.  A refusal by the rule, the stub, the machine or the audit is a
raised ``Reject`` (a failed ledger operation's ``LedgerError`` is one),
which ``apply_rule`` undoes from the two journals (``CheckState.undo``
and ``Mem.undo``), putting the memo back as it was, and stamps with the
step's index, as ``check_double`` does at step -1.

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
from collections.abc import Mapping
from dataclasses import asdict, dataclass
from functools import lru_cache
from typing import Callable, NamedTuple, Optional, Union

from .machine import (
    AddRegImm,
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
    NonCanonical,
    PAGE_SIZE,
    Record,
    Reg,
    Skip,
    StepOpts,
    WORD_BYTES,
    execute,
    translate,
    walk_text,
)
from .assertions import (
    Assertion,
    INSUFFICIENT_FRACTION,
    Ledger,
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


class ScriptStep(Record):
    pass


class InstrStep(ScriptStep):
    def __new__(cls, instr: Instr) -> "InstrStep":
        return tuple.__new__(cls, (35, instr))


class GhostStep(ScriptStep):
    """A ghost step: every field is a word address, a word-aligned 64-bit
    word, as a walk-map key or value must be."""


def _ghost_word(name: str, value: int) -> int:
    if not 0 <= value < 1 << 64:
        raise ValueError(f"ghost {name}={value:#x} is not a 64-bit word")
    if value % WORD_BYTES:
        raise ValueError(f"ghost {name}={value:#x} is not word aligned")
    return value


class GhostInsertWalk(GhostStep):
    def __new__(cls, va: int, pa: int) -> "GhostInsertWalk":
        return tuple.__new__(cls, (36, _ghost_word("va", va),
                                   _ghost_word("pa", pa)))


class GhostRemoveWalk(GhostStep):
    def __new__(cls, va: int) -> "GhostRemoveWalk":
        return tuple.__new__(cls, (37, _ghost_word("va", va)))


class GhostPteToVirt(GhostStep):
    def __new__(cls, va: int) -> "GhostPteToVirt":
        return tuple.__new__(cls, (38, _ghost_word("va", va)))


class GhostVirtToPte(GhostStep):
    def __new__(cls, va: int, pa: int) -> "GhostVirtToPte":
        return tuple.__new__(cls, (39, _ghost_word("va", va),
                                   _ghost_word("pa", pa)))


class CallStep(ScriptStep):
    def __new__(cls, name: str) -> "CallStep":
        return tuple.__new__(cls, (40, name))


class AssertStep(ScriptStep):
    def __new__(cls, assertion: Assertion) -> "AssertStep":
        return tuple.__new__(cls, (41, assertion))


Script = list  # [ScriptStep]


# --------------------------------------------------------------------------
# Stubs


class StubError(Exception):
    """Raised by a stub whose (axiomatic) precondition does not hold."""


@dataclass(frozen=True)
class StubSpec:
    """Axiomatized procedure, named by its key in a check's stubs: claims
    it consumes, a deterministic state effect, and the claims it produces
    (in co-execution, audited against the machine after the effect runs).
    A RegPt pattern with val=None consumes the register claim whatever
    its value.  ``apply`` runs on the check state after the consumes: it
    reads the state's ``machine``, ``root``, ``registry``, ``free_list``
    and ``free_cursor``, and writes the machine (memory only through
    ``write_word``, ``mem_set`` or the frame writer ``put_frame``, whose
    journal lets a refused call take its writes back) and the cursor in
    place.  It changes no claim; ``registry`` is a read-only view of the
    walk maps, and a call whose stub writes one is refused.  It returns
    its product, the ledger of the claims it hands over under the state's
    root (``lower`` of an assertion, plus any claims it adds): the call
    joins its claims in location order and checks its pure facts."""

    consumes: tuple
    apply: Callable[["CheckState"], Ledger]


# --------------------------------------------------------------------------
# Check state


def _vas_by_pa(theta: dict) -> dict:
    """{pa: the va that walk map `theta` maps to pa, or the tuple of vas
    when several do}, built in one C pass, plus a pass over the vas that
    a later va to the same pa hid there when some pa has several."""
    index = dict(zip(theta.values(), theta))
    if len(index) < len(theta):
        for va in theta.keys() - index.values():
            held = index[theta[va]]
            index[theta[va]] = (va, held) if type(held) is int else (va, *held)
    return index


class _ReadOnly(Mapping):
    """Stub `name`'s read-only view of the registry, or of one walk map
    (the registry's maps are viewed read-only too), copying nothing.  A
    write refuses the call."""

    __slots__ = ("_data", "_name")

    def __init__(self, data: dict, name: str):
        self._data, self._name = data, name

    def __getitem__(self, key):
        value = self._data[key]
        return _ReadOnly(value, self._name) if isinstance(value, dict) \
            else value

    def __contains__(self, key) -> bool:
        return key in self._data

    def __iter__(self):
        return iter(self._data)

    def __len__(self) -> int:
        return len(self._data)

    def _write(self, *_args, **_kwargs):
        raise Reject(STUB_PRE_FAILED, self._name,
                     f"stub {self._name} changed a walk map")

    __setitem__ = __delitem__ = pop = popitem = clear = update = \
        setdefault = _write


class CheckState(Ledger):
    """A check's one mutable state, owning `ledger`'s claims, `registry`
    and `machine`: its ledger under the root (cr3), whose ``journal`` is
    the current step's, the machine, walk maps, stubs and free list.  It
    keeps claims, not pure facts: each fact is checked where it enters
    and dropped, since one such as ``unmapped va`` reads walk maps that
    later steps change.  ``vas`` is ``least_va``'s index of each walk map
    as the check got it, by pa (see ``_vas_by_pa``).  ``touched`` (the walk
    locations the run has read a claim at or changed an entry of) and
    ``reads`` (co-execution's audit index {table frame: {(root, va),
    ...}} of the walk claims and walk-map entries read there, from the
    first full audit on) only grow.  ``walked`` is
    the page-walk memo {(root, va >> 12): (the walk's four (slot, entry)
    steps, page base)} of the walks that resolved on the current machine;
    every checker walk reads it (see ``_walk``).  It is replaced by an
    empty one wherever the machine's memory may change, after an
    instruction or a stub that wrote, and ``undo`` puts back the one the
    step started with."""

    def __init__(self, ledger: Ledger, registry: Registry,
                 machine: MachineState, mode: str = COEXEC,
                 stubs: Optional[dict] = None, free_list: tuple = ()):
        super().__init__(ledger.root, ledger.claims, den=ledger.den)
        self.registry, self.machine, self.mode = registry, machine, mode
        self.vas = {root: _vas_by_pa(theta)
                    for root, theta in registry.items()}
        self.stubs, self.free_list = stubs or {}, tuple(free_list)
        self.free_cursor, self.touched, self.reads = 0, set(), None
        self.walked = {}

    def least_va(self, pa: int) -> Optional[int]:
        """The least va that the current space's walk map maps to `pa`, or
        None, found without a scan of the map: among the vas that mapped
        `pa` as the map entered the check and the walk locations in
        ``touched`` (every entry a ghost step has changed is there), each
        checked against the map."""
        root = self.root
        theta = self.registry.get(root)
        if theta is None:
            return None
        held = self.vas[root].get(pa, ())
        candidates = [held] if type(held) is int else list(held)
        candidates.extend(loc.va for loc in self.touched if loc.root == root)
        return min((va for va in candidates if theta.get(va) == pa),
                   default=None)

    @property
    def ledger(self) -> Ledger:
        """A ledger over the state's claims dict, root and den."""
        return Ledger(self.root, self.claims, den=self.den)

    def undo(self, saved: tuple) -> None:
        """Put back what `saved` holds from the step's start, and the
        claims from the journal, over the ``den`` saved."""
        self.root, den, self.free_cursor, self.reads, self.walked = saved
        for loc, held in self.journal.items():
            if held is None:
                self.claims.pop(loc, None)
            else:
                self.claims[loc] = held
        if self.den != den:
            k, self.den = self.den // den, den
            for loc, (n, v) in self.claims.items():
                self.claims[loc] = (n // k, v)


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


def _step_claims(journal: dict, after) -> tuple:
    """(consumed, produced) claim texts of a step from its journal and the
    ledger after it, in location text order: the share a location
    lost or gained if it kept its value, else its whole claims both ways."""
    consumed, produced = [], []
    claims, den = after.claims, after.den
    for loc in sorted(journal, key=str) if len(journal) > 1 else journal:
        before, now = journal[loc], claims.get(loc)
        if before and now and before[1] == now[1]:
            if now[0] != before[0]:
                (produced if now[0] > before[0] else consumed).append(
                    _claim_text(loc, abs(now[0] - before[0]), now[1], den))
            continue
        if before:
            consumed.append(_claim_text(loc, before[0], before[1], den))
        if now:
            produced.append(_claim_text(loc, now[0], now[1], den))
    return tuple(consumed), tuple(produced)


def _stranded_root(claims: dict, va: int, root: int) -> Optional[int]:
    """The lowest root other than `root` under which `claims` holds a
    walk claim for `va` (a claim stranded there by an address-space
    switch), or None."""
    return min((loc.root for loc in claims
                if isinstance(loc, WalkLoc) and loc.va == va
                and loc.root != root), default=None)


def _walk_claim(state: CheckState, va: int) -> int:
    """The pa of the current space's walk claim for va, noted in
    ``state.touched`` found or not; its absence is refused, naming a
    claim stranded under another root."""
    loc = WalkLoc(state.root, va)
    state.touched.add(loc)
    claim = state.claims.get(loc)
    if claim is not None:
        return claim[1]
    other = _stranded_root(state.claims, va, state.root)
    if other is not None:
        raise Reject(UNSOUND_FRAME, str(loc),
                     f"claim for va {va:#x} is governed by space "
                     f"{other:#x}; it was framed across an address-space "
                     "switch and cannot be used here")
    raise Reject(MISSING_RESOURCE, str(loc),
                 f"no walk claim for va {va:#x} in the current space")


def _reg_value(state: CheckState, reg: Reg) -> int:
    claim = state.claims.get(RegLoc(reg))
    if claim is None:
        raise Reject(MISSING_RESOURCE, str(RegLoc(reg)),
                     f"no claim on register {reg.value}")
    return claim[1]


def _walk(state: CheckState, root: int, va: int) -> tuple:
    """The current machine's walk of `va` under `root`, as ``walk`` gives
    it: from the memo when its page's walk is there, else from one
    ``translate`` pass, which enters the memo if the walk resolves."""
    key = (root, va >> 12)
    hit = state.walked.get(key)
    if hit is not None:
        return hit[0], hit[1] | (va & 0xFFF)
    steps = []
    got = translate(root, state.machine.mem, va, steps=steps)
    if isinstance(got, int):
        state.walked[key] = (steps, got & ~0xFFF)
    return steps, got


def _chain(state: CheckState, va: int) -> tuple:
    """The current machine's walk of `va` under the current root (see
    ``_walk``); one that stops before the L1 entry is refused at the slot
    where it stopped, and a va that is not canonical at its walk."""
    steps, got = _walk(state, state.root, va)
    if isinstance(got, NonCanonical):
        raise Reject(MISSING_RESOURCE, str(WalkLoc(state.root, va)),
                     f"va {va:#x} is not canonical: the machine faults "
                     "before it walks")
    if len(steps) < 4:
        stop = got.phys if isinstance(got, FrameUnmapped) else steps[-1][0]
        raise Reject(MISSING_RESOURCE, str(phys_loc(stop)),
                     f"table slot for va {va:#x} holds no present entry "
                     "in the machine")
    return steps, got


def _walk_map(state: CheckState) -> dict:
    """The current space's walk map."""
    theta = state.registry.get(state.root)
    if theta is None:
        raise Reject(UNKNOWN_ROOT, f"{state.root:#x}",
                     "current root is not a registered space")
    return theta


# --------------------------------------------------------------------------
# Per-step rules: each takes the check state and the step, changes the
# state in place and returns the rule's name, or refuses the step by
# raising a Reject (a failed ledger operation's LedgerError is one), which
# apply_rule undoes.


def _space_witness(state: CheckState, root: int) -> None:
    if SpaceLoc(root) not in state.claims:
        raise Reject(MISSING_RESOURCE, str(SpaceLoc(root)),
                     f"no invariant witness for space {root:#x}")


def _switch_root(state: CheckState, new_root: int, rule: str) -> str:
    """The address-space switch: turns the target space's wrapped claims
    into current ones, and leaves the old space's claims reachable only
    through the other-space wrapper (all by moving the evaluation root;
    claims are already tagged with their governing space).  A rule's
    outcome."""
    if new_root % PAGE_SIZE:
        raise Reject(UNKNOWN_ROOT, f"{new_root:#x}",
                     "target root is not page aligned")
    if new_root not in state.registry:
        raise Reject(UNKNOWN_ROOT, f"{new_root:#x}",
                     "target root is not a registered space")
    _space_witness(state, state.root)
    _space_witness(state, new_root)
    state.root = new_root
    return rule


def _set_value(state: CheckState, loc: Location, value: int,
               rule: str) -> str:
    """Overwrite a fully held claim: a rule's outcome."""
    state.set_value(loc, value)
    return rule


def _apply_instr(state: CheckState, step: InstrStep):
    instr = step.instr
    if isinstance(instr, Skip):
        return "skip"
    if isinstance(instr, MovRegReg):
        return _set_value(state, RegLoc(instr.dst),
                          _reg_value(state, instr.src), "reg-from-reg")
    if isinstance(instr, MovRegImm):
        return _set_value(state, RegLoc(instr.dst), instr.imm, "reg-imm")
    if isinstance(instr, AddRegImm):
        _tag, dst, imm = instr
        return _set_value(state, RegLoc(dst),
                          (_reg_value(state, dst) + imm) % (1 << 64),
                          "reg-add")
    if isinstance(instr, MovRegFromCr3):
        return _set_value(state, RegLoc(instr.dst), state.root, "cr3-read")
    if isinstance(instr, MovToCr3FromReg):
        return _switch_root(state, _reg_value(state, instr.src),
                            "cr3-switch-reg")
    if not isinstance(instr, MEM_FORMS):
        raise TypeError(f"unknown instruction {instr!r}")

    # the memory forms, checked as machine._access_memory checks them: the
    # space witness, the base register, the stored register and the walk
    # claim; then the load, store or switch itself
    _space_witness(state, state.root)
    va = (_reg_value(state, instr.base) + instr.disp) % (1 << 64)
    if isinstance(instr, MovMemFromReg):
        stored = _reg_value(state, instr.src)
    data_loc = phys_loc(_walk_claim(state, va))
    if isinstance(instr, MovMemFromReg):
        return _set_value(state, data_loc, stored, "store-virt")
    if isinstance(instr, MovMemFromCr3):
        return _set_value(state, data_loc, state.root, "cr3-store")
    data = state.claims.get(data_loc)
    if data is None:
        raise Reject(MISSING_RESOURCE, str(data_loc),
                     f"no data claim behind va {va:#x}")
    if isinstance(instr, MovRegFromMem):
        return _set_value(state, RegLoc(instr.dst), data[1], "load-virt")
    return _switch_root(state, data[1], "cr3-switch-mem")


def _apply_ghost_insert(state: CheckState, step: GhostInsertWalk):
    _tag, va, pa = step
    steps, got = _chain(state, va)
    theta = _walk_map(state)
    if va in theta:
        raise Reject(VALUE_DISAGREEMENT, None,
                     f"walk map already holds {va:#x}")
    # the chain must hold on its own, as it does when the walk gives pa
    if got != pa:
        raise Reject(VALUE_DISAGREEMENT, None, chain_fault(
            va, [entry for _slot, entry in steps], pa))
    state.chain(steps, take=True)
    loc = WalkLoc(state.root, va)
    state.add(loc, state.den, pa)
    theta[va] = pa
    state.touched.add(loc)
    return "ghost-insert-walk"


def _apply_ghost_remove(state: CheckState, step: GhostRemoveWalk):
    va = step.va
    loc = WalkLoc(state.root, va)
    if loc not in state.claims:
        raise Reject(INSUFFICIENT_FRACTION, str(loc),
                     f"no walk token held for va {va:#x}")
    theta = _walk_map(state)
    # the walk claim is the entry's token: only the full claim retires it
    state.consume(loc, state.den)
    if va not in theta:
        raise Reject(VALUE_DISAGREEMENT, None,
                     f"walk map has no entry for {va:#x}")
    # the chain shares held inside the invariant come back out
    state.chain(_chain(state, va)[0])
    del theta[va]
    state.touched.add(loc)
    return "ghost-remove-walk"


def _apply_call(state: CheckState, step: CallStep):
    name = step.name
    stub = state.stubs.get(name)
    if stub is None:
        raise Reject(STUB_PRE_FAILED, name, f"no stub named {name!r}")
    try:
        for pattern in stub.consumes:
            if isinstance(pattern, RegPt):
                _tag, reg, q, val = pattern
                loc = RegLoc(reg)
                claim = state.claims.get(loc)
                if claim is None:
                    raise Reject(STUB_PRE_FAILED, str(loc),
                                 f"stub {name} needs a claim on {reg.value}")
                if val is not None and claim[1] != val:
                    raise Reject(STUB_PRE_FAILED, str(loc),
                                 f"stub {name} needs {reg.value} = "
                                 f"{val:#x}, ledger holds {claim[1]:#x}")
                state.consume(loc, state.share(q))
            else:
                state.join(lower(pattern, state.root, state.registry),
                           take=True)
    except LedgerError as err:
        raise Reject(STUB_PRE_FAILED, err.location, err.narrative)
    # the stub writes the machine under apply_rule's journal and reads the
    # walk maps through a view; a stub that wrote memory may have written
    # a table, so the walks after it start afresh
    maps, state.registry = state.registry, _ReadOnly(state.registry, name)
    try:
        produced = stub.apply(state)
    except StubError as err:
        raise Reject(STUB_PRE_FAILED, name, str(err))
    finally:
        state.registry = maps
    if state.machine.mem.journal:
        state.walked = {}
    state.join(produced)
    for g, pred in produced.pures:
        if not pure_holds(pred, g, state.registry):
            raise Reject(STUB_PRE_FAILED, name, f"stub {name} promised a "
                         f"false pure predicate: {pred}")
    if state.mode == COEXEC:
        complaint = _audit(state, produced.claims)
        if complaint is not None:
            raise Reject(STUB_PRE_FAILED, name,
                         f"stub {name} promised claims the machine "
                         f"does not satisfy: {complaint}")
    return f"call:{name}"


def _apply_assert(state: CheckState, step: AssertStep):
    try:
        wanted = lower(step.assertion, state.root, state.registry)
    except WitnessUnavailable as err:
        other = _stranded_root(state.claims, err.va, err.root)
        if other is None:
            raise
        raise Reject(UNSOUND_FRAME, str(WalkLoc(err.root, err.va)),
                     f"asserted claim for va {err.va:#x} only holds in space "
                     f"{other:#x}; wrap it in the other-space "
                     "modality instead of framing it")
    problem = state.contains(wanted)
    if problem is not None:
        # before naming the first gap, see whether the root cause is a
        # walk claim stranded under a different governing root
        for loc in sorted(wanted.claims):
            if isinstance(loc, WalkLoc) and loc not in state.claims:
                other = _stranded_root(state.claims, loc.va, loc.root)
                if other is not None:
                    raise Reject(UNSOUND_FRAME, str(loc),
                                 f"asserted claim for va {loc.va:#x} is "
                                 f"governed by space {other:#x}; it was "
                                 "framed across an address-space switch")
        raise problem
    for g, pred in wanted.pures:
        if not pure_holds(pred, g, state.registry):
            raise Reject(VALUE_DISAGREEMENT, str(pred),
                         "pure predicate is false")
    return "assert"


def _apply_view(state: CheckState,
                step: Union[GhostPteToVirt, GhostVirtToPte]):
    """Moving between the virtual and the PTE view of a mapping needs the
    current space's walk claim; the ledger does not change."""
    va = step.va
    pa = _walk_claim(state, va)
    if isinstance(step, GhostPteToVirt):
        return "ghost-pte-to-virt"
    want = step.pa
    if pa != want:
        raise Reject(VALUE_DISAGREEMENT, str(WalkLoc(state.root, va)),
                     f"walk resolves to {pa:#x}, not {want:#x}")
    return "ghost-virt-to-pte"


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


def _audit(state: CheckState, locs, walks=()) -> Optional[str]:
    """Validate the held claims at `locs` against the machine, plus, for
    each (root, va) in `walks` whose root's space claim is held, its
    walk-map entry (a space claim in `locs` checks every entry).  Each
    walk reads the memo (``_walk``), so a page is walked once under a root
    until the machine's memory changes, and with ``state.reads`` each
    (root, va) is noted there under every table frame its walk read.  A
    walk that does not resolve is never memoized.  The complaint of the
    least location that fails (and, within a space, of its least broken
    entry) is returned, None when clean: claims are checked in no order,
    so the audit sorts nothing unless one fails."""
    machine = state.machine
    if machine.reg(Reg.CR3) != state.root:
        return (f"machine cr3 {machine.reg(Reg.CR3):#x} differs from "
                f"checker root {state.root:#x}")
    claims, registry, mem = state.claims, state.registry, machine.mem
    todo = {loc for loc in locs if loc in claims}
    for root, _va in walks:
        space = SpaceLoc(root)
        if space in claims:
            todo.add(space)
    reads = state.reads

    def translated(root: int, va: int):
        steps, got = _walk(state, root, va)
        if reads is not None:
            for slot, _entry in steps:
                reads.setdefault(slot >> 12, set()).add((root, va))
        return got

    failed = []  # (location, complaint)
    for loc in todo:
        _q, v = claims[loc]
        kind = type(loc)
        if kind is PhysLoc:
            _kind, frame, off = loc
            words = mem.get(frame)
            if words is None or words.get(off) != v:
                got = machine.read_word(frame, off)
                failed.append((loc, f"{loc}: ledger {v:#x}, machine "
                                    f"{walk_text(got)[0]}"))
        elif kind is RegLoc:
            got = machine.reg(loc.reg)
            if got != v:
                failed.append((loc, f"{loc}: ledger {v:#x}, machine "
                                    f"{got:#x}"))
        elif kind is WalkLoc:
            _kind, root, va = loc
            got = translated(root, va)
            theta = registry.get(root)
            if got != v:
                failed.append((loc, f"{loc}: ledger {v:#x}, machine walk "
                                    f"{walk_text(got)[0]}"))
            elif theta is None or theta.get(va) != v:
                failed.append((loc, f"{loc}: walk map does not record "
                                    f"{v:#x}"))
        else:
            _kind, root = loc
            theta = registry.get(root)
            if theta is None:
                failed.append((loc, f"{loc}: address space {root:#x} is "
                                    "not registered"))
                continue
            vas = theta if loc in locs else \
                {va for r, va in walks if r == root and va in theta}
            broken = [(va, got) for va in vas
                      if (got := translated(root, va)) != theta[va]]
            if broken:
                va, got = min(broken)
                failed.append((loc, f"{loc}: walk-map entry {va:#x} "
                                    f"broken: {walk_text(got)[0]}"))
    return min(failed)[1] if failed else None


def audit_ledger(state: CheckState) -> Optional[str]:
    """Validate every ledger claim against the machine; None when clean.
    This full audit runs once, before the first step; it is also the
    oracle the per-step audit is tested against."""
    return _audit(state, state.claims)


def _audit_step(state: CheckState, regs, writes,
                mapping: Optional[tuple]) -> Optional[str]:
    """The audit after one step, when every claim held before it: only
    what the step could have changed can have broken.  That is the data
    registers `regs` it wrote (an instruction's destination, or each one
    a call's stub changed) and the words the machine wrote (`writes`, the
    step's ``Mem.journal``: a frame written whole counts the words that
    differ from its old word map, and a frame created counts none, since
    no held claim could agree with a word of it and no walk that resolved
    read it), every walk that read a written frame (``state.reads``), and
    the walk-map entry `mapping` = (root, va) a ghost step inserted or
    removed, with the walk claim the step changed there: its rule's own
    location, found in the step's journal.  cr3 is always compared.  Rules
    change no claim outside these, since they take chain and data values
    from the machine audited before the step, and a call's product was
    audited as it was joined.  So the first complaint is the one the full
    audit would give."""
    locs = set(map(RegLoc, regs))
    if mapping is not None:
        locs.update(loc for loc in state.journal if type(loc) is WalkLoc)
        return _audit(state, locs, (mapping,))
    walks, last, mem = set(), None, state.machine.mem
    for frame, off, old in writes:
        if off is not None:
            locs.add(PhysLoc(frame, off))
        elif old is not None:
            locs.update(PhysLoc(frame, off) for off, _word in
                        old.items() ^ mem[frame].items())
        if frame != last:  # a frame's writes mostly come together
            walks.update(state.reads.get(frame, ()))
            last = frame
    locs.update(WalkLoc(root, va) for root, va in walks)
    return _audit(state, locs, walks)


# --------------------------------------------------------------------------
# apply_rule / check_double


def apply_rule(state: CheckState, script_step: ScriptStep,
               index: int) -> Union[StepRecord, Violation]:
    """Apply one script step to the check state in place, as one
    transaction (see the module docstring): the step's record, or the
    stopping Violation with `state` as it was before the step."""
    kind = type(script_step)
    rule = _RULES.get(kind)
    if rule is None:
        raise TypeError(f"unknown script step {script_step!r}")
    machine, root = state.machine, state.root
    saved = (root, state.den, state.free_cursor, state.reads, state.walked)
    state.journal, regs, writes, wrote, mapping = {}, None, (), (), None
    call = kind is CallStep
    if call or kind is InstrStep:
        # the machine's registers and pc, and its memory's journal
        regs, pc = dict(machine.regs), machine.pc
        writes = machine.mem.journal = []
    elif kind is GhostInsertWalk or kind is GhostRemoveWalk:
        # the walk-map entry the step writes, as it was
        mapping = (root, script_step.va)
        theta = state.registry.get(root, {})
        entry = theta.get(mapping[1])
    try:
        name = rule(state, script_step)
        if kind is InstrStep:
            instr = script_step.instr
            fault = execute(machine, instr, CHECK_OPTS)
            if writes:
                state.walked = {}
            if fault is not None:
                raise Reject(MACHINE_DISAGREE, None,
                             f"ledger accepts pc {pc} but the machine "
                             f"faults: {fault!r}")
            # the one data register an instruction writes is its dst
            wrote = (instr.dst,) if instr.dst is not None else ()
        if state.mode == COEXEC:
            if state.reads is None:
                state.reads = {}
                complaint = audit_ledger(state)
            else:
                if call:  # the registers the stub changed
                    wrote = {reg for reg, _value in
                             regs.items() ^ machine.regs.items()}
                complaint = _audit_step(state, wrote, writes, mapping)
            if complaint is not None:
                raise Reject(MACHINE_DISAGREE, None, complaint)
    except BaseException as err:
        # a refusal, or an error raised through the step, is undone
        state.undo(saved)
        if regs is not None:
            machine.regs, machine.pc = regs, pc
            machine.mem.undo(writes)
        if mapping is not None:
            theta.pop(mapping[1], None)
            if entry is not None:
                theta[mapping[1]] = entry
        if not isinstance(err, Reject):
            raise
        return Violation(err.kind, index, err.location, err.narrative)
    finally:
        machine.mem.journal = None

    consumed, produced = _step_claims(state.journal, state)
    return StepRecord(index, name, consumed, produced, root, state.root)


@dataclass(frozen=True)
class Report:
    root: int
    mode: str
    records: tuple
    final_ledger: Optional[Ledger]
    final_machine: Optional[MachineState]
    final_root: Optional[int]
    violation: Optional[Violation]
    touched: frozenset = frozenset()  # CheckState.touched; not rendered

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
    both modes.  No word, register or walk-map entry of an argument is
    written, but the copy makes `init`'s memory copy-on-write: its
    ``mem.owned`` becomes a set (see ``Mem.fork``).  The mode only
    switches the audit: in co-execution mode every claim is audited
    against the machine before the first step and kept in agreement with
    it after each step.
    """
    registry = registry or {}
    init = init if init is not None else MachineState()
    records, state, violation = [], None, None
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
        state = CheckState(ledger, {r: dict(t) for r, t in registry.items()},
                           init.copy(), mode, dict(stubs or {}), free_list)
        if mode == COEXEC:
            state.reads = {}
            complaint = audit_ledger(state)
            if complaint is not None:
                raise Reject(MACHINE_DISAGREE, None, complaint)
    except Reject as err:
        violation = Violation(err.kind, -1, err.location, err.narrative)
    else:
        for index, script_step in enumerate(script):
            outcome = apply_rule(state, script_step, index)
            if isinstance(outcome, Violation):
                violation = outcome
                break
            records.append(outcome)

    ok = violation is None
    return Report(root=root, mode=mode, records=tuple(records),
                  final_ledger=state.ledger if ok else None,
                  final_machine=state.machine if ok else None,
                  final_root=state.root if ok else None, violation=violation,
                  touched=frozenset(state.touched if state else ()))


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
