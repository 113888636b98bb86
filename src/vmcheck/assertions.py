"""Assertion AST, exact fractional shares, and the resource ledger.

Assertions are claims about a machine state: register and physical
points-to facts, virtual points-to facts that only mean something
relative to a page-table root, the per-space invariant witness, pure
predicates, separating conjunction, and the other-space wrapper
``OtherSpace(r, P)`` stating that P holds as if ``r`` were the current
root.

Two complementary readings are provided:

* ``machine_sat`` checks an assertion directly against a machine state
  (ground truth, ignores fractions).  The checker never calls it: it
  audits lowered claims instead; this is the reference the tests use.
* ``lower`` turns an assertion into a :class:`Ledger`: a dict from
  concrete locations to (share, value) claims.  Root-relative claims are
  keyed by the root that governs them, the innermost wrapper's, so the
  wrapper laws hold in the keys alone: a wrapper distributes over ``*``
  and vanishes around ``emp`` and facts (a pure fact keeps a root that
  only ``unmapped`` reads).  A walk-chain claim that is false on its own
  entries (``chain_fault``) does not lower.

A ledger is changed in place (``lower``'s accumulator, a stub's product,
or a check's one ledger) and, given a journal, journals each changed
location's claim, for step records and undo.  Locations are tuples that
are their own sort key.  A refusal is a ``Reject``: a failed ledger
operation raises a ``LedgerError`` of its kind, and ``contains`` returns
the one for its first uncovered claim.

Shares are exact rationals in (0, 1]: ``Fraction``s where they enter
(checked by ``check_share``), and inside a ledger int numerators over
its one denominator ``den``; ``Ledger.share`` turns one into the other,
widening ``den`` to the lcm if it must.  Shares change only through
``add`` and ``consume`` on numerators (a full share is ``den``), which
``chain`` and ``join`` call for a walk's chain shares and for another
ledger's claims; ``add`` requires equal values and never exceeds the
full share.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from math import gcd
from typing import Optional

from .machine import (
    MachineState,
    PAGE_SIZE,
    PTE_PRESENT,
    Record,
    Reg,
    WORD_BYTES,
    chain_slots,
    pte_frame,
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
CHAIN_SHARES = (L4_SHARE, L3_SHARE, L2_SHARE, L1_SHARE)  # in walk order
DEN = 512 ** 4  # first denominator of every ledger: the chain shares divide it
# the chain shares' numerators over DEN; Ledger.chain scales them by
# widen(DEN), its den // DEN (exact: den only grows from DEN, by lcm)
_CHAIN_NS = tuple(DEN // share.denominator for share in CHAIN_SHARES)


# The kinds of refusal a ledger error stands for (see Reject).
MISSING_RESOURCE = "MissingResource"
INSUFFICIENT_FRACTION = "InsufficientFraction"
VALUE_DISAGREEMENT = "ValueDisagreement"


class Reject(Exception):
    """A refusal of a checker step: the kind, location text (or None) and
    narrative of the violation it stands for.  Its str is the narrative."""

    def __init__(self, kind: str, location: Optional[str], narrative: str):
        super().__init__(narrative)
        self.kind, self.location, self.narrative = kind, location, narrative


class LedgerError(Reject):
    """A failed ledger operation, raised with the location it failed at
    (or None) and any details: a refusal of its class's ``kind``, narrated
    by its class's ``text``, a format of those arguments."""

    kind, text = VALUE_DISAGREEMENT, "{1}"

    def __init__(self, location, *details):
        where = None if location is None else str(location)
        super().__init__(self.kind, where,
                         self.text.format(location, *details))


class SumExceedsOne(LedgerError):
    kind, text = INSUFFICIENT_FRACTION, "share sum exceeds 1 at {0}"


class ValueDisagreement(LedgerError):
    text = "claims disagree on the value at {0}"


class InsufficientFraction(LedgerError):
    """Raised with the location, the share needed and the share held."""

    kind, text = INSUFFICIENT_FRACTION, "need {1} of {0}, hold {2}"


class BrokenChain(LedgerError):
    """A walk-chain claim whose own entries do not make a walk, raised
    with no location and the reason."""


class WitnessUnavailable(LedgerError):
    kind = MISSING_RESOURCE
    text = "no walk-map entry for va {0.va:#x} in space {0.root:#x}"

    def __init__(self, root: int, va: int):
        self.root, self.va = root, va
        super().__init__(WalkLoc(root, va))


def check_share(q: Fraction) -> Fraction:
    """A share as it enters: a Fraction or an int (not a bool) in (0, 1]."""
    if isinstance(q, int) and not isinstance(q, bool):
        q = Fraction(q)
    elif not isinstance(q, Fraction):
        raise ValueError(f"share {q!r} is not a Fraction or an int")
    if not 0 < q.numerator <= q.denominator:
        raise ValueError(f"share {q} outside (0, 1]")
    return q


@lru_cache(maxsize=1 << 10)
def share_text(n: int, den: int) -> str:
    """The text of the share n/den, as ``str(Fraction(n, den))`` gives it."""
    g = gcd(n, den)
    return str(n // g) if g == den else f"{n // g}/{den // g}"


# --------------------------------------------------------------------------
# Pure predicates (closed language)


class Pred(Record):
    pass


class PredEq(Pred):
    def __new__(cls, lhs: int, rhs: int) -> "PredEq":
        return tuple.__new__(cls, (22, lhs, rhs))

    def __str__(self) -> str:
        return f"{self.lhs:#x} == {self.rhs:#x}"


class PredAligned(Pred):
    """Page (4K) alignment of an address."""

    def __new__(cls, addr: int) -> "PredAligned":
        return tuple.__new__(cls, (23, addr))

    def __str__(self) -> str:
        return f"aligned {self.addr:#x}"


class PredUnmapped(Pred):
    """The governing space's walk map has no entry for this address."""

    def __new__(cls, va: int) -> "PredUnmapped":
        return tuple.__new__(cls, (24, va))

    def __str__(self) -> str:
        return f"unmapped {self.va:#x}"


# --------------------------------------------------------------------------
# Assertion AST


class Assertion(Record):
    pass


class Emp(Assertion):
    def __new__(cls) -> "Emp":
        return tuple.__new__(cls, (25,))


class Pure(Assertion):
    def __new__(cls, pred: Pred) -> "Pure":
        return tuple.__new__(cls, (26, pred))


class RegPt(Assertion):
    def __new__(cls, reg: Reg, q: Fraction, val: int) -> "RegPt":
        q = check_share(q)
        if reg is Reg.CR3:
            raise ValueError("cr3 is tracked by the checker root, not a claim")
        return tuple.__new__(cls, (27, reg, q, val))


class PhysPt(Assertion):
    def __new__(cls, frame: int, off: int, q: Fraction, val: int) -> "PhysPt":
        q = check_share(q)
        if off % WORD_BYTES or not (0 <= off < PAGE_SIZE):
            raise ValueError(f"offset {off:#x} is not a word slot")
        if not (0 <= frame < (1 << 52)):
            raise ValueError(f"frame {frame:#x} out of range")
        return tuple.__new__(cls, (28, frame, off, q, val))


class VirtPt(Assertion):
    def __new__(cls, va: int, q: Fraction, val: int) -> "VirtPt":
        q = check_share(q)
        if va % WORD_BYTES:
            raise ValueError(f"va {va:#x} is not word aligned")
        return tuple.__new__(cls, (29, va, q, val))


class PtePt(Assertion):
    """Virtual points-to with the backing physical address exposed."""

    def __new__(cls, va: int, q: Fraction, pa: int, val: int) -> "PtePt":
        q = check_share(q)
        if va % WORD_BYTES or pa % WORD_BYTES:
            raise ValueError("addresses must be word aligned")
        return tuple.__new__(cls, (30, va, q, pa, val))


class L4L1PointsTo(Assertion):
    """The four table entries a walk of `va` traverses, with the standard
    per-word share of each entry, resolving to data address `pa`."""

    def __new__(cls, va: int, l4e: int, l3e: int, l2e: int, l1e: int,
                pa: int) -> "L4L1PointsTo":
        return tuple.__new__(cls, (31, va, l4e, l3e, l2e, l1e, pa))


class IASpace(Assertion):
    """Witness that the governing address space is registered and every
    walk-map entry is backed by present, correctly-chained tables."""

    def __new__(cls) -> "IASpace":
        return tuple.__new__(cls, (32,))


class OtherSpace(Assertion):
    def __new__(cls, root: int, body: Assertion) -> "OtherSpace":
        if root % PAGE_SIZE:
            raise ValueError(f"space root {root:#x} is not page aligned")
        return tuple.__new__(cls, (33, root, body))


class Sep(Assertion):
    def __new__(cls, parts: tuple) -> "Sep":
        return tuple.__new__(cls, (34, parts))


def sep(*parts: Assertion) -> Assertion:
    """Canonical separating conjunction: flattened, Emp-free, sorted by
    repr (built once per part: ``sort`` calls its key once each)."""
    flat = []
    todo = list(reversed(parts))
    while todo:
        a = todo.pop()
        if isinstance(a, Sep):
            todo.extend(reversed(a.parts))
        elif not isinstance(a, Emp):
            flat.append(a)
    flat.sort(key=repr)
    if not flat:
        return Emp()
    if len(flat) == 1:
        return flat[0]
    return Sep(tuple(flat))


# --------------------------------------------------------------------------
# Ledger locations


class Location(Record):
    """A ledger location: a record whose tag is its kind.  Ordering is the
    tuple's, in C, so a location is its own sort key: registers, physical
    words, walks, spaces (kinds 0 to 3), each kind in field order.  Its
    text is its class's ``text`` format, built once per location (kinds
    differ in their first field)."""

    def __init_subclass__(cls, text: str) -> None:
        super().__init_subclass__()
        cls._text = text

    @lru_cache(maxsize=1 << 14)
    def __str__(self) -> str:
        return self._text.format(*self)


class RegLoc(Location, text="reg:{1.value}"):
    def __new__(cls, reg: Reg) -> "RegLoc":
        return tuple.__new__(cls, (0, reg))


class PhysLoc(Location, text="phys:{1:#x}:{2:#x}"):
    def __new__(cls, frame: int, off: int) -> "PhysLoc":
        return tuple.__new__(cls, (1, frame, off))


class WalkLoc(Location, text="walk:{1:#x}:{2:#x}"):
    def __new__(cls, root: int, va: int) -> "WalkLoc":
        return tuple.__new__(cls, (2, root, va))


class SpaceLoc(Location, text="space:{1:#x}"):
    def __new__(cls, root: int) -> "SpaceLoc":
        return tuple.__new__(cls, (3, root))


# --------------------------------------------------------------------------
# Resource ledger


@dataclass(eq=False)
class Ledger:
    """Concrete multiset of fractional ownership claims, relative to one
    evaluation root (the cr3 value claims were lowered under), changed in
    place: ``lower``'s accumulator, a stub's product, or a check's one
    ledger.

    ``claims`` maps each location to its (n, value) claim, a share of
    n/``den`` (``get`` and ``sorted_claims`` give it as a Fraction).
    ``add`` and ``consume`` take such an int n: a ``Fraction`` enters
    through ``share`` (one passed as n is not refused, and is wrong).
    They and ``set_value`` check all before they change anything, and
    return the ledger.  ``journal``, which step records are rendered
    from and a check's undo puts back, maps each location changed to its
    claim before the first change (or None); a ledger whose ``journal``
    is None keeps none.  ``pures`` lists the pure facts in the order
    ``lower`` met them, so a check names the first false one as printed.
    Equality compares shares, whatever their ``den``, and pure facts as a
    set."""

    root: int
    claims: dict = field(default_factory=dict)
    pures: tuple = ()  # ((governing_root, Pred), ...), in lowering order
    den: int = DEN
    journal: Optional[dict] = None

    def __eq__(self, other) -> bool:
        return isinstance(other, Ledger) and (
            (self.root, frozenset(self.pures), self.sorted_claims())
            == (other.root, frozenset(other.pures), other.sorted_claims()))

    def sorted_claims(self) -> tuple:
        """((Location, share, value), ...) in location order."""
        return tuple((loc, Fraction(n, self.den), v)
                     for loc, (n, v) in sorted(self.claims.items()))

    def get(self, loc: Location) -> Optional[tuple]:
        held = self.claims.get(loc)
        return held and (Fraction(held[0], self.den), held[1])

    def with_root(self, root: int) -> "Ledger":
        return Ledger(root, self.claims, self.pures, self.den)

    def contains(self, sub: "Ledger") -> Optional[Reject]:
        """Sub-ledger inclusion check: None when every claim of `sub` is
        covered, else the refusal of an assertion of `sub` at the first
        uncovered location in location order (one unsorted pass finds the
        uncovered ones; only a refusal picks the least)."""
        claims, den, sub_den = self.claims, self.den, sub.den
        gaps = [loc for loc, (n, v) in sub.claims.items()
                if (held := claims.get(loc)) is None or held[1] != v
                or held[0] * sub_den < n * den]
        if not gaps:
            return None
        loc = min(gaps)
        held = claims.get(loc)
        if held is None:
            return Reject(MISSING_RESOURCE, str(loc),
                          "asserted claim is not in the ledger")
        if held[1] != sub.claims[loc][1]:
            return Reject(VALUE_DISAGREEMENT, str(loc),
                          f"ledger holds value {held[1]:#x}")
        return Reject(INSUFFICIENT_FRACTION, str(loc),
                      f"ledger holds only {share_text(held[0], den)}")

    def share(self, q: Fraction) -> int:
        """q's numerator over ``den``, widened to fit: the one step from a
        ``Fraction`` to a numerator.  q must be positive."""
        if q is FULL:
            return self.den
        n, d = q.as_integer_ratio()
        if n <= 0:
            raise ValueError(f"share {q} outside (0, 1]")
        return n * self.widen(d)

    def widen(self, d: int) -> int:
        """den // d, after ``den`` grows to lcm(den, d), every claim and
        journal entry scaled with it."""
        if self.den % d:
            k = d // gcd(self.den, d)
            self.den *= k
            for claims in (self.claims, self.journal or {}):
                for loc, claim in claims.items():
                    claims[loc] = claim and (claim[0] * k, claim[1])
        return self.den // d

    def add(self, loc: Location, n: int, val: int) -> "Ledger":
        held = self.claims.get(loc)
        held_n, held_v = held or (0, val)
        if held_v != val:
            raise ValueDisagreement(loc)
        if held_n + n > self.den:
            raise SumExceedsOne(loc)
        if self.journal is not None:
            self.journal.setdefault(loc, held)
        self.claims[loc] = (held_n + n, val)
        return self

    def consume(self, loc: Location, n: int,
                val: Optional[int] = None) -> "Ledger":
        held = self.claims.get(loc)
        held_n, held_v = held or (0, val)
        if val is not None and held_v != val:
            raise ValueDisagreement(loc)
        if held_n < n:
            raise InsufficientFraction(loc, share_text(n, self.den),
                                       share_text(held_n, self.den))
        if self.journal is not None:
            self.journal.setdefault(loc, held)
        self.claims[loc] = (held_n - n, held_v)
        if held_n == n:
            del self.claims[loc]
        return self

    def chain(self, steps, take: bool = False) -> "Ledger":
        """Add (or with ``take`` consume) one walk's ``CHAIN_SHARES`` of its
        table entries, given as ``walk`` lists them: (slot, entry) steps."""
        k = self.widen(DEN)
        step = self.consume if take else self.add
        for (slot, entry), n in zip(steps, _CHAIN_NS):
            step(phys_loc(slot), n * k, entry)
        return self

    def set_value(self, loc: Location, val: int) -> "Ledger":
        held = self.claims.get(loc)
        if held is None or held[0] != self.den:
            n = 0 if held is None else held[0]
            raise InsufficientFraction(loc, FULL, share_text(n, self.den))
        if held[1] != val:
            if self.journal is not None:
                self.journal.setdefault(loc, held)
            self.claims[loc] = (self.den, val)
        return self

    def join(self, other: Ledger, take: bool = False) -> "Ledger":
        """Disjoint composition: add (or with ``take`` consume) every claim
        of `other`, a ledger under the same root, in location order (the
        first failing one raises).  Its pure facts are not merged: the
        caller checks them."""
        if self.root != other.root:
            raise ValueError("ledgers joined under different evaluation roots")
        k = self.widen(other.den)
        step = self.consume if take else self.add
        for loc, (n, v) in sorted(other.claims.items()):
            step(loc, n * k, v)
        return self


# --------------------------------------------------------------------------
# Lowering assertions to ledgers


def chain_fault(va: int, entries, pa: int) -> Optional[str]:
    """Why the walk chain of `va` through the four table `entries` (L4
    first) to `pa` is false whatever the machine holds, or None: its L1
    entry must resolve va to pa, and each entry must be present."""
    resolved = (pte_frame(entries[3]) << 12) | (va & (PAGE_SIZE - 1))
    if resolved != pa:
        return f"chain for {va:#x} does not resolve to {pa:#x}"
    for entry in entries:
        if not entry & PTE_PRESENT:
            return (f"table entry is not present for "
                    f"{L4L1PointsTo(va, *entries, pa)!r} (observed {entry!r})")
    return None


@lru_cache(maxsize=1 << 14)
def phys_loc(byte_addr: int) -> PhysLoc:
    return PhysLoc(byte_addr >> 12, byte_addr & (PAGE_SIZE - 1))


def lower(a: Assertion, root: int, registry: Optional[Registry] = None) -> Ledger:
    """Evaluate an assertion into a claim ledger under `root`.

    Root-relative claims are keyed by their innermost governing root;
    facts lower identically under any root.  Virtual points-to needs the
    governing space's walk map (from `registry`) to name its backing
    physical word.
    """
    acc = Ledger(root)
    _lower_into(acc, a, root, registry or {})
    return acc


def _lower_into(acc: Ledger, node: Assertion, g: int,
                registry: Registry) -> None:
    """Add the claims of `node`, governed by `g`, to the ledger.  (A module
    function, not a closure over `acc`: a recursive closure is a cycle,
    which would keep the ledger and its claims alive until a collection.)"""
    if isinstance(node, Sep):
        for part in node.parts:
            _lower_into(acc, part, g, registry)
    elif isinstance(node, VirtPt):
        _tag, va, q, val = node
        theta = registry.get(g)
        if theta is None or va not in theta:
            raise WitnessUnavailable(g, va)
        pa, n = theta[va], acc.share(q)
        acc.add(WalkLoc(g, va), n, pa)
        acc.add(phys_loc(pa), n, val)
    elif isinstance(node, Emp):
        pass
    elif isinstance(node, Pure):
        acc.pures += ((g, node.pred),)
    elif isinstance(node, RegPt):
        _tag, reg, q, val = node
        acc.add(RegLoc(reg), acc.share(q), val)
    elif isinstance(node, PhysPt):
        _tag, frame, off, q, val = node
        acc.add(PhysLoc(frame, off), acc.share(q), val)
    elif isinstance(node, PtePt):
        _tag, va, q, pa, val = node
        n = acc.share(q)
        acc.add(WalkLoc(g, va), n, pa)
        acc.add(phys_loc(pa), n, val)
    elif isinstance(node, L4L1PointsTo):
        _tag, va, *entries, pa = node
        fault = chain_fault(va, entries, pa)
        if fault is not None:
            raise BrokenChain(None, fault)
        acc.chain(zip(chain_slots(g, va, *entries[:3]), entries))
    elif isinstance(node, IASpace):
        acc.add(SpaceLoc(g), acc.den, g)
    elif isinstance(node, OtherSpace):
        _lower_into(acc, node.body, node.root, registry)
    else:
        raise TypeError(f"unknown assertion {node!r}")


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
    if isinstance(a, (VirtPt, PtePt)):
        pa = translate(root, state.mem, a.va)
        if not isinstance(pa, int):
            return MismatchReport(a, "translation fails", pa)
        if isinstance(a, PtePt) and pa != a.pa:
            return MismatchReport(a, "resolved physical address differs", pa)
        got = state.read_word(pa >> 12, pa & (PAGE_SIZE - 1))
        if got == a.val:
            return None
        return MismatchReport(a, "word behind the mapping differs", got)
    if isinstance(a, L4L1PointsTo):
        slots = chain_slots(root, a.va, a.l4e, a.l3e, a.l2e)
        entries = (a.l4e, a.l3e, a.l2e, a.l1e)
        for slot, entry in zip(slots, entries):
            got = state.read_word(slot >> 12, slot & (PAGE_SIZE - 1))
            if got != entry:
                return MismatchReport(a, "table slot differs", got)
        fault = chain_fault(a.va, entries, a.pa)
        return None if fault is None else MismatchReport(a, fault)
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
