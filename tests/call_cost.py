"""The work a check of ``map_page_case(1)`` does per step, counted without
timing, and the case padded with state that its script never touches.

``padded_map_case(kind, n)`` adds `n` unrelated full claims on extra
frames ("claims"), `n` walk-map entries that resolve on the machine
("walks"), or `n` one-word frames that nothing claims ("frames").
``count_work`` runs one check and counts, per step, the held claims the
audit checked, the walk-map entries copied, compared or iterated, the
frame-table entries copied and the frames copied before a write; and,
per check, the full audits and the same counts outside any step.  The
tier-1 tests and CI's step summary both use it: run
``python tests/call_cost.py`` for the table.
"""

from __future__ import annotations

import sys
import timeit
from collections import Counter
from contextlib import contextmanager
from dataclasses import replace

from vmcheck import checker, machine
from vmcheck.assertions import FULL, PhysPt, SpaceLoc, sep
from vmcheck.cases import _pte_page_tables, map_page_case
from vmcheck.checker import COEXEC, RESOURCE_ONLY, CallStep, check_double
from vmcheck.machine import ZERO_FRAME, MachineState

KINDS = ("claims", "walks", "frames")
PAD_FRAME = 0x10_0000      # the first extra frame
PAD_VA = 0x1000_0000       # the first padded walk-map entry
PAD_PA = 0x3_0000_0000     # where the padded walk-map pages map


def padded_map_case(kind: str, n: int):
    """``map_page_case(1)`` with `n` unrelated claims, walk-map entries or
    frames (see the module docstring)."""
    case = map_page_case(1)
    if not n:
        return case
    mem = dict(case.state.mem)
    if kind == "frames":
        mem.update((PAD_FRAME + i, {0: 0}) for i in range(n))
        return replace(case, state=MachineState(dict(case.state.regs), mem))
    pages = -(-n // 512)
    if kind == "claims":
        mem.update((PAD_FRAME + p, dict(ZERO_FRAME)) for p in range(pages))
        pre = sep(case.pre, *(PhysPt(PAD_FRAME + i // 512, i % 512 * 8,
                                     FULL, 0) for i in range(n)))
        return replace(case, pre=pre,
                       state=MachineState(dict(case.state.regs), mem))
    # the same tables, with `pages` more pages mapped after the case's own
    tables, root, _pte_addr, _slot = _pte_page_tables(
        [(PAD_VA + 4096 * p, PAD_PA + 4096 * p, True) for p in range(pages)])
    assert root == case.root
    mem.update(tables)
    registry = {root: dict(case.registry[root])}
    registry[root].update((PAD_VA + 8 * i, PAD_PA + 8 * i) for i in range(n))
    return replace(case, registry=registry,
                   state=MachineState(dict(case.state.regs), mem))


class _CountedMap(dict):
    """A walk map that counts its entries each time it is copied, compared
    or iterated (``dict(m)`` reads it through ``keys``)."""

    __slots__ = ()
    counts = Counter()

    def _count(self):
        self.counts["walk_map"] += len(self)

    def keys(self):
        self._count()
        return super().keys()

    def items(self):
        self._count()
        return super().items()

    def values(self):
        self._count()
        return super().values()

    def __iter__(self):
        self._count()
        return super().__iter__()

    def __eq__(self, other):
        self._count()
        return super().__eq__(other)

    def __ne__(self, other):
        self._count()
        return super().__ne__(other)

    __hash__ = None


@contextmanager
def _counted(counts: Counter, steps: list):
    """Count into `counts` while the block runs, and append to `steps`
    (index, step, Counter) for each step ``apply_rule`` takes."""
    real_audit, real_full = checker._audit, checker.audit_ledger
    real_rule, real_fork = checker.apply_rule, machine.Mem.fork
    real_init, real_own = checker.CheckState.__init__, machine.own_frame

    def audit(state, locs, walks=()):
        claims = state.claims
        held = {loc for loc in locs if loc in claims}
        held.update(space for space in (SpaceLoc(r) for r, _va in walks)
                    if space in claims)
        counts["audited"] += len(held)
        return real_audit(state, locs, walks)

    def full(state):
        counts["full_audits"] += 1
        return real_full(state)

    def fork(mem):
        counts["frames"] += len(mem)
        return real_fork(mem)

    def own_frame(mem, frame):
        words = mem.get(frame)
        private = real_own(mem, frame)
        if words is not None and private is not words:
            counts["copies"] += 1
        return private

    def init(state, *args, **kwargs):
        # the check's copy of the walk maps, and their index, as it starts
        real_init(state, *args, **kwargs)
        counts["walk_map"] += 2 * sum(map(len, state.registry.values()))
        state.registry = {root: _CountedMap(theta)
                          for root, theta in state.registry.items()}

    def rule(state, script_step, index):
        before = Counter(counts)
        outcome = real_rule(state, script_step, index)
        step_counts = Counter(counts)
        step_counts.subtract(before)
        steps.append((index, script_step, +step_counts))
        return outcome

    _CountedMap.counts = counts
    checker._audit, checker.audit_ledger = audit, full
    checker.apply_rule, machine.Mem.fork = rule, fork
    checker.CheckState.__init__, machine.own_frame = init, own_frame
    try:
        yield
    finally:
        checker._audit, checker.audit_ledger = real_audit, real_full
        checker.apply_rule, machine.Mem.fork = real_rule, real_fork
        checker.CheckState.__init__, machine.own_frame = real_init, real_own


def _check(case, mode: str):
    return check_double(case.pre, case.root, case.script, case.stubs, mode,
                        case.state, case.registry, case.free_list)


def count_work(case, mode: str) -> tuple:
    """(report, [(index, step, Counter of its work)], Counter of the whole
    check's work) for one check of `case` in `mode`."""
    counts, steps = Counter(), []
    with _counted(counts, steps):
        report = _check(case, mode)
    return report, steps, counts


def call_work(steps: list) -> list:
    """The work counts of the call steps among `steps`."""
    return [dict(work) for _index, step, work in steps
            if isinstance(step, CallStep)]


def _table(sizes=(0, 1000, 10_000), out=sys.stdout) -> None:
    print("kind    pad    mode      per call: audited walk-map frames"
          " copies  us/check (best of 5)", file=out)
    for kind in KINDS:
        for n in sizes:
            case = padded_map_case(kind, n)
            for mode in (RESOURCE_ONLY, COEXEC):
                report, steps, _counts = count_work(case, mode)
                assert report.ok, report.violation
                work = call_work(steps)
                per_call = [sum(w.get(k, 0) for w in work) / len(work)
                            for k in ("audited", "walk_map", "frames",
                                      "copies")]
                number = 3 if n < 10_000 else 1
                best = min(timeit.repeat(lambda: _check(case, mode),
                                         number=number, repeat=5)) / number
                print(f"{kind:7} {n:6} {mode:9} {per_call[0]:17g} "
                      f"{per_call[1]:8g} {per_call[2]:6g} {per_call[3]:6g} "
                      f"{best * 1e6:11.0f}", file=out)


if __name__ == "__main__":
    _table()
