"""The space invariant, as a reference check.

Each registered address space (keyed by its page-table root) carries a
walk map: a finite map from word-aligned virtual addresses to the
physical word they translate to.  The space invariant says every entry
of that map is justified by present, correctly-chained table entries in
the machine.  The checker keeps walk maps itself (its ghost insert and
remove rules) and validates them in its co-execution audit;
``ias_check`` states the invariant on its own, for ``machine_sat``,
tests and demos.
"""

from __future__ import annotations

from .machine import MachineState, translate
from .assertions import Registry


class UnknownRoot(Exception):
    def __init__(self, root: int):
        self.root = root
        super().__init__(f"address space {root:#x} is not registered")


def ias_check(state: MachineState, root: int, registry: Registry) -> list:
    """Validate the space invariant: every walk-map entry of `root`
    translates in the machine to its recorded physical word.  Returns the
    list of (va, fault-or-misresolution) failures, empty when intact."""
    if root not in registry:
        raise UnknownRoot(root)
    theta = registry[root]
    failures = []
    for va in sorted(theta):
        got = translate(root, state.mem, va)
        if got != theta[va]:
            failures.append((va, got))
    return failures
