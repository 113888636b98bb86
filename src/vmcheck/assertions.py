"""Assertion AST, exact fractional shares, and the resource ledger.

Assertions are claims about a machine state: register and physical
points-to facts, virtual points-to facts that only mean something
relative to a page-table root, the per-space invariant witness, pure
predicates, separating conjunction, and the other-space wrapper
``OtherSpace(r, P)`` stating that P holds as if ``r`` were the current
root.

Two complementary readings are provided:

* ``machine_sat`` checks an assertion directly against a machine state
  (ground truth, ignores fractions).
* ``lower`` turns an assertion into a :class:`Ledger`: a dict from
  concrete locations to (share, value) claims.  Root-relative claims are
  keyed by the root that governs them, so wrapping and unwrapping the
  other-space modality is reflected purely in the keys.

Ledger operations are persistent (each returns a new ledger from a copy
of the dict) and never sort; claims are put in ``loc_sort_key`` order
only where order is visible, by :meth:`Ledger.sorted_claims`.

Shares are exact rationals in (0, 1]; ``Ledger.add`` is the one place
shares are added: it requires equal values and can never silently exceed
the full share.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping, Optional

from .machine import (
    MachineState,
    PAGE_SIZE,
    PhysAddr,
    Reg,
    WORD_BYTES,
    chain_slots,
    decode_pte,
    translate,
)

# Registry: {root: {va: pa}} per-space ghost walk maps.
Registry = dict

FULL = Fraction(1)

# Share granted per mapped word on each table entry along its walk chain.
L1_SHARE = Fraction(1, 512)
L2_SHARE = Fraction(1, 512 ** 2)
L3_SHARE = Fraction(1, 512 ** 3)
L4_SHARE = Fraction(1, 512 ** 4)


class LedgerError(Exception):
    """Base for ledger composition failures."""


class SumExceedsOne(LedgerError):
    def __init__(self, location=None):
        self.location = location
        super().__init__(f"share sum exceeds 1 at {location}")


class ValueDisagreement(LedgerError):
    def __init__(self, location):
        self.location = location
        super().__init__(f"claims disagree on the value at {location}")


class InsufficientFraction(LedgerError):
    def __init__(self, location, needed, held):
        self.location = location
        self.needed = needed
        self.held = held
        super().__init__(f"need {needed} of {location}, hold {held}")


class WitnessUnavailable(LedgerError):
    def __init__(self, root, va):
        self.root = root
        self.va = va
        super().__init__(f"no walk-map entry for va {va:#x} in space {root:#x}")


def check_share(q: Fraction) -> Fraction:
    if not isinstance(q, Fraction):
        q = Fraction(q)
    if not (0 < q <= 1):
        raise ValueError(f"share {q} outside (0, 1]")
    return q


# --------------------------------------------------------------------------
# Pure predicates (closed language)


class Pred:
    pass


@dataclass(frozen=True)
class PredEq(Pred):
    lhs: int
    rhs: int

    def __str__(self) -> str:
        return f"{self.lhs:#x} == {self.rhs:#x}"


@dataclass(frozen=True)
class PredAligned(Pred):
    """Page (4K) alignment of an address."""

    addr: int

    def __str__(self) -> str:
        return f"aligned {self.addr:#x}"


@dataclass(frozen=True)
class PredUnmapped(Pred):
    """The governing space's walk map has no entry for this address."""

    va: int

    def __str__(self) -> str:
        return f"unmapped {self.va:#x}"


# --------------------------------------------------------------------------
# Assertion AST


class Assertion:
    pass


@dataclass(frozen=True)
class Emp(Assertion):
    pass


@dataclass(frozen=True)
class Pure(Assertion):
    pred: Pred


@dataclass(frozen=True)
class RegPt(Assertion):
    reg: Reg
    q: Fraction
    val: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "q", check_share(self.q))
        if self.reg is Reg.CR3:
            raise ValueError("cr3 is tracked by the checker root, not a claim")


@dataclass(frozen=True)
class PhysPt(Assertion):
    frame: int
    off: int
    q: Fraction
    val: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "q", check_share(self.q))
        if self.off % WORD_BYTES or not (0 <= self.off < PAGE_SIZE):
            raise ValueError(f"offset {self.off:#x} is not a word slot")
        if not (0 <= self.frame < (1 << 52)):
            raise ValueError(f"frame {self.frame:#x} out of range")


@dataclass(frozen=True)
class VirtPt(Assertion):
    va: int
    q: Fraction
    val: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "q", check_share(self.q))
        if self.va % WORD_BYTES:
            raise ValueError(f"va {self.va:#x} is not word aligned")


@dataclass(frozen=True)
class PtePt(Assertion):
    """Virtual points-to with the backing physical address exposed."""

    va: int
    q: Fraction
    pa: int
    val: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "q", check_share(self.q))
        if self.va % WORD_BYTES or self.pa % WORD_BYTES:
            raise ValueError("addresses must be word aligned")


@dataclass(frozen=True)
class L4L1PointsTo(Assertion):
    """The four table entries a walk of `va` traverses, with the standard
    per-word share of each entry, resolving to data address `pa`."""

    va: int
    l4e: int
    l3e: int
    l2e: int
    l1e: int
    pa: int


@dataclass(frozen=True)
class IASpace(Assertion):
    """Witness that the governing address space is registered and every
    walk-map entry is backed by present, correctly-chained tables."""


@dataclass(frozen=True)
class OtherSpace(Assertion):
    root: int
    body: Assertion

    def __post_init__(self) -> None:
        if self.root % PAGE_SIZE:
            raise ValueError(f"space root {self.root:#x} is not page aligned")


@dataclass(frozen=True)
class Sep(Assertion):
    parts: tuple

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return " * ".join(repr(p) for p in self.parts)


def sep(*parts: Assertion) -> Assertion:
    """Canonical separating conjunction: flattened, Emp-free, sorted."""
    flat = []

    def collect(a: Assertion) -> None:
        if isinstance(a, Sep):
            for p in a.parts:
                collect(p)
        elif not isinstance(a, Emp):
            flat.append(a)

    for part in parts:
        collect(part)
    flat.sort(key=repr)
    if not flat:
        return Emp()
    if len(flat) == 1:
        return flat[0]
    return Sep(tuple(flat))


# --------------------------------------------------------------------------
# Facts and normalization


def is_fact(a: Assertion) -> bool:
    """True when the assertion's verdict cannot depend on the evaluation
    root: register, physical and arithmetic claims, and anything fully
    wrapped in an other-space modality.  Virtual/PTE points-to, the space
    invariant, walk-chain claims and walk-map absence are root-relative.
    """
    if isinstance(a, (Emp, RegPt, PhysPt)):
        return True
    if isinstance(a, Pure):
        return not isinstance(a.pred, PredUnmapped)
    if isinstance(a, (VirtPt, PtePt, IASpace, L4L1PointsTo)):
        return False
    if isinstance(a, OtherSpace):
        return True
    if isinstance(a, Sep):
        return all(is_fact(p) for p in a.parts)
    raise TypeError(f"unknown assertion {a!r}")


def normalize(a: Assertion) -> Assertion:
    """Push other-space wrappers through separating conjunction, collapse
    nested wrappers to the innermost, erase wrappers around facts, drop
    Emp units, and canonicalize Sep ordering.  Idempotent."""
    if isinstance(a, Sep):
        return sep(*(normalize(p) for p in a.parts))
    if isinstance(a, OtherSpace):
        body = normalize(a.body)
        if isinstance(body, Sep):
            return sep(*(normalize(OtherSpace(a.root, p)) for p in body.parts))
        if isinstance(body, Emp):
            return Emp()
        if isinstance(body, OtherSpace):
            return body  # inner wrapper pins the evaluation root
        if is_fact(body):
            return body
        return OtherSpace(a.root, body)
    return a


# --------------------------------------------------------------------------
# Ledger locations


class Location:
    pass


@dataclass(frozen=True)
class RegLoc(Location):
    reg: Reg

    def __str__(self) -> str:
        return f"reg:{self.reg.value}"


@dataclass(frozen=True)
class PhysLoc(Location):
    frame: int
    off: int

    def __str__(self) -> str:
        return f"phys:{self.frame:#x}:{self.off:#x}"


@dataclass(frozen=True)
class WalkLoc(Location):
    root: int
    va: int

    def __str__(self) -> str:
        return f"walk:{self.root:#x}:{self.va:#x}"


@dataclass(frozen=True)
class SpaceLoc(Location):
    root: int

    def __str__(self) -> str:
        return f"space:{self.root:#x}"


def loc_sort_key(loc: Location) -> tuple:
    """Total order on locations: registers, physical words, walks, spaces."""
    if isinstance(loc, RegLoc):
        return (0, loc.reg.value)
    if isinstance(loc, PhysLoc):
        return (1, loc.frame, loc.off)
    if isinstance(loc, WalkLoc):
        return (2, loc.root, loc.va)
    return (3, loc.root)


# --------------------------------------------------------------------------
# Resource ledger


@dataclass(frozen=True)
class Ledger:
    """Concrete multiset of fractional ownership claims, relative to one
    evaluation root (the cr3 value claims were lowered under).

    ``claims`` maps each location to its (share, value) claim.  The dict
    is never mutated once a ledger holds it: every operation copies it
    and returns a new ledger, leaving the receiver unchanged."""

    root: int
    claims: dict = field(default_factory=dict, hash=False)
    pures: frozenset = frozenset()  # {(governing_root, Pred)}

    @classmethod
    def build(cls, root: int, claims: Mapping, pures=frozenset()) -> "Ledger":
        return cls(root, dict(claims), frozenset(pures))

    def sorted_claims(self) -> tuple:
        """((Location, share, value), ...) in ``loc_sort_key`` order."""
        return tuple((loc, q, v) for loc, (q, v) in
                     sorted(self.claims.items(),
                            key=lambda c: loc_sort_key(c[0])))

    def get(self, loc: Location) -> Optional[tuple]:
        return self.claims.get(loc)

    def add(self, loc: Location, q: Fraction, val: int) -> "Ledger":
        held = self.claims.get(loc)
        claims = self.claims.copy()
        if held is not None:
            held_q, held_v = held
            if held_v != val:
                raise ValueDisagreement(loc)
            total = held_q + q
            if total > 1:
                raise SumExceedsOne(loc)
            claims[loc] = (total, val)
        else:
            claims[loc] = (check_share(q), val)
        return Ledger(self.root, claims, self.pures)

    def consume(self, loc: Location, q: Fraction,
                val: Optional[int] = None) -> "Ledger":
        held = self.claims.get(loc)
        if held is None:
            raise InsufficientFraction(loc, q, Fraction(0))
        held_q, held_v = held
        if val is not None and held_v != val:
            raise ValueDisagreement(loc)
        if held_q < q:
            raise InsufficientFraction(loc, q, held_q)
        claims = self.claims.copy()
        if held_q == q:
            del claims[loc]
        else:
            claims[loc] = (held_q - q, held_v)
        return Ledger(self.root, claims, self.pures)

    def set_value(self, loc: Location, val: int) -> "Ledger":
        held = self.claims.get(loc)
        if held is None:
            raise InsufficientFraction(loc, FULL, Fraction(0))
        if held[0] != FULL:
            raise InsufficientFraction(loc, FULL, held[0])
        claims = self.claims.copy()
        claims[loc] = (FULL, val)
        return Ledger(self.root, claims, self.pures)

    def with_root(self, root: int) -> "Ledger":
        return Ledger(root, self.claims, self.pures)

    def contains(self, sub: "Ledger") -> Optional[tuple]:
        """Sub-ledger inclusion check.  Returns None when every claim of
        `sub` is covered, else (reason, location, detail) for the first
        uncovered location in ``loc_sort_key`` order."""
        for loc, q, v in sub.sorted_claims():
            held = self.claims.get(loc)
            if held is None:
                return ("missing", loc, None)
            held_q, held_v = held
            if held_v != v:
                return ("value", loc, held_v)
            if held_q < q:
                return ("fraction", loc, held_q)
        return None


def ledger_join(a: Ledger, b: Ledger) -> Ledger:
    """Disjoint composition: shares add per location, values must agree.
    The first failing location in ``loc_sort_key`` order is reported."""
    if a.root != b.root:
        raise ValueError("ledgers joined under different evaluation roots")
    out = a
    for loc, q, v in b.sorted_claims():
        out = out.add(loc, q, v)
    return Ledger(out.root, out.claims, a.pures | b.pures)


# --------------------------------------------------------------------------
# Lowering assertions to ledgers


def _phys_loc(byte_addr: int) -> PhysLoc:
    return PhysLoc(byte_addr >> 12, byte_addr & (PAGE_SIZE - 1))


def lower(a: Assertion, root: int, registry: Optional[Registry] = None) -> Ledger:
    """Evaluate an assertion into a claim ledger under `root`.

    Root-relative claims are keyed by their innermost governing root;
    facts lower identically under any root.  Virtual points-to needs the
    governing space's walk map (from `registry`) to name its backing
    physical word.
    """
    out = Ledger(root)

    def walk_ast(node: Assertion, g: int, acc: Ledger) -> Ledger:
        if isinstance(node, Emp):
            return acc
        if isinstance(node, Pure):
            return Ledger(acc.root, acc.claims, acc.pures | {(g, node.pred)})
        if isinstance(node, RegPt):
            return acc.add(RegLoc(node.reg), node.q, node.val)
        if isinstance(node, PhysPt):
            return acc.add(PhysLoc(node.frame, node.off), node.q, node.val)
        if isinstance(node, VirtPt):
            theta = (registry or {}).get(g)
            if theta is None or node.va not in theta:
                raise WitnessUnavailable(g, node.va)
            pa = theta[node.va]
            acc = acc.add(WalkLoc(g, node.va), node.q, pa)
            return acc.add(_phys_loc(pa), node.q, node.val)
        if isinstance(node, PtePt):
            acc = acc.add(WalkLoc(g, node.va), node.q, node.pa)
            return acc.add(_phys_loc(node.pa), node.q, node.val)
        if isinstance(node, L4L1PointsTo):
            slots = chain_slots(g, node.va, decode_pte(node.l4e),
                                decode_pte(node.l3e), decode_pte(node.l2e))
            shares = (L4_SHARE, L3_SHARE, L2_SHARE, L1_SHARE)
            entries = (node.l4e, node.l3e, node.l2e, node.l1e)
            for (frame, off), share, entry in zip(slots, shares, entries):
                acc = acc.add(PhysLoc(frame, off), share, entry)
            return acc
        if isinstance(node, IASpace):
            return acc.add(SpaceLoc(g), FULL, g)
        if isinstance(node, OtherSpace):
            return walk_ast(node.body, node.root, acc)
        if isinstance(node, Sep):
            for part in node.parts:
                acc = walk_ast(part, g, acc)
            return acc
        raise TypeError(f"unknown assertion {node!r}")

    return walk_ast(a, root, out)


# --------------------------------------------------------------------------
# Ground-truth satisfaction


@dataclass(frozen=True)
class MismatchReport:
    """Names the first failing leaf and what the machine showed instead."""

    leaf: Assertion
    reason: str
    observed: object = None

    def __str__(self) -> str:
        extra = f" (observed {self.observed!r})" if self.observed is not None else ""
        return f"{self.reason} for {self.leaf!r}{extra}"


def pure_holds(pred: Pred, root: int, registry: Optional[Registry]) -> bool:
    if isinstance(pred, PredEq):
        return pred.lhs == pred.rhs
    if isinstance(pred, PredAligned):
        return pred.addr % PAGE_SIZE == 0
    if isinstance(pred, PredUnmapped):
        theta = (registry or {}).get(root)
        return theta is not None and pred.va not in theta
    raise TypeError(f"unknown predicate {pred!r}")


def machine_sat(a: Assertion, root: int, state: MachineState,
                registry: Optional[Registry] = None) -> Optional[MismatchReport]:
    """Check an assertion against concrete machine state, returning None
    on success or a report naming the first failing leaf.  Fractions are
    ignored: this is truth, not ownership accounting."""
    if isinstance(a, Emp):
        return None
    if isinstance(a, Pure):
        if pure_holds(a.pred, root, registry):
            return None
        return MismatchReport(a, "pure predicate is false")
    if isinstance(a, RegPt):
        got = state.reg(a.reg)
        if got == a.val:
            return None
        return MismatchReport(a, "register value differs", got)
    if isinstance(a, PhysPt):
        got = state.read_word(a.frame, a.off)
        if got == a.val:
            return None
        return MismatchReport(a, "physical word differs", got)
    if isinstance(a, VirtPt):
        result = translate(root, state.mem, a.va, set_accessed=False)
        if not isinstance(result, PhysAddr):
            return MismatchReport(a, "translation fails", result)
        got = state.read_word(result.frame.value, result.offset.value)
        if got == a.val:
            return None
        return MismatchReport(a, "word behind the mapping differs", got)
    if isinstance(a, PtePt):
        result = translate(root, state.mem, a.va, set_accessed=False)
        if not isinstance(result, PhysAddr):
            return MismatchReport(a, "translation fails", result)
        if result.byte != a.pa:
            return MismatchReport(a, "resolved physical address differs",
                                  result.byte)
        got = state.read_word(result.frame.value, result.offset.value)
        if got == a.val:
            return None
        return MismatchReport(a, "word behind the mapping differs", got)
    if isinstance(a, L4L1PointsTo):
        slots = chain_slots(root, a.va, decode_pte(a.l4e), decode_pte(a.l3e),
                            decode_pte(a.l2e))
        entries = (a.l4e, a.l3e, a.l2e, a.l1e)
        for (frame, off), entry in zip(slots, entries):
            got = state.read_word(frame, off)
            if got != entry:
                return MismatchReport(a, "table slot differs", got)
            if not decode_pte(entry).present:
                return MismatchReport(a, "table entry is not present", entry)
        resolved = (decode_pte(a.l1e).frame.value << 12) | (a.va & (PAGE_SIZE - 1))
        if resolved != a.pa:
            return MismatchReport(a, "chain does not resolve to pa", resolved)
        return None
    if isinstance(a, IASpace):
        from .ghost import UnknownRoot, ias_check

        try:
            failures = ias_check(state, root, registry or {})
        except UnknownRoot:
            return MismatchReport(a, "space root is not registered", root)
        if failures:
            va, fault = failures[0]
            return MismatchReport(a, f"walk-map entry {va:#x} is broken", fault)
        return None
    if isinstance(a, OtherSpace):
        return machine_sat(a.body, a.root, state, registry)
    if isinstance(a, Sep):
        for part in a.parts:
            report = machine_sat(part, root, state, registry)
            if report is not None:
                return report
        return None
    raise TypeError(f"unknown assertion {a!r}")
