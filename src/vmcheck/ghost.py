"""Per-address-space ghost state: walk maps and the space registry.

Each registered address space (keyed by its page-table root) carries a
walk map: a finite map from word-aligned virtual addresses to the
physical word they translate to.  The space invariant says every entry
of that map is justified by present, correctly-chained table entries in
the machine.  The right to a walk-map entry is the full ``walk:`` claim
in the checker's ledger: inserting an entry grants it, removing the
entry requires it back.

All operations are pure: they return updated copies.
"""

from __future__ import annotations

from typing import Optional

from .machine import MachineState, translate
from .assertions import L4L1PointsTo, Registry, chain_fault

WalkMap = dict  # {va: pa}


class GhostError(Exception):
    pass


class UnknownRoot(GhostError):
    def __init__(self, root: int):
        self.root = root
        super().__init__(f"address space {root:#x} is not registered")


class AlreadyMapped(GhostError):
    def __init__(self, va: int):
        self.va = va
        super().__init__(f"walk map already holds {va:#x}")


class EvidenceInvalid(GhostError):
    pass


def ias_check(state: MachineState, root: int, registry: Registry,
              reads: Optional[dict] = None) -> list:
    """Validate the space invariant: every walk-map entry of `root`
    translates in the machine to its recorded physical word.  Returns the
    list of (va, fault-or-misresolution) failures, empty when intact.

    With ``reads``, each walk is noted there as ``{table frame: {(root,
    va), ...}}``, the frames whose writes could change its outcome."""
    if root not in registry:
        raise UnknownRoot(root)
    theta = registry[root]
    failures = []
    slots = None if reads is None else []
    for va in sorted(theta):
        got = translate(root, state.mem, va, slots=slots)
        if reads is not None:
            note_reads(reads, root, va, slots)
            slots.clear()
        if got != theta[va]:
            failures.append((va, got))
    return failures


def note_reads(reads: dict, root: int, va: int, slots: list) -> None:
    """Record under each table frame in `slots` that the walk of `va`
    under `root` read it."""
    for slot in slots:
        reads.setdefault(slot >> 12, set()).add((root, va))


def ghost_insert_walk(theta: WalkMap, evidence: L4L1PointsTo) -> WalkMap:
    """Insert evidence.va -> evidence.pa into the walk map.

    The walk-chain evidence must hold on its own (``chain_fault``): its
    L1 entry resolves va to pa and each of its four entries is present.
    """
    if evidence.va in theta:
        raise AlreadyMapped(evidence.va)
    fault = chain_fault(evidence)
    if fault is not None:
        raise EvidenceInvalid(fault)
    return {**theta, evidence.va: evidence.pa}


def ghost_remove_walk(theta: WalkMap, va: int) -> WalkMap:
    """Remove va from the walk map.  The caller retires the full walk
    claim; the backing physical claims become free again."""
    if va not in theta:
        raise GhostError(f"walk map has no entry for {va:#x}")
    new_theta = dict(theta)
    del new_theta[va]
    return new_theta
