"""Reports of checks whose shares are not dyadic, pinned byte for byte.

A ledger counts shares in 512**4ths until a share whose denominator does
not divide that enters; then it rescales.  These checks hold {1/3} and
{2/3} shares from the precondition on, and a stub brings in a {2/7}
share in the middle of a step that has already consumed one, so the
records, the final claims and the refusal narratives all render shares
over a rescaled denominator.  Their text and JSON reports, in both
modes, are pinned in ``nondyadic_reports.json``.

Regenerate the pinned reports (only for an intended report change) with
``PYTHONPATH=src python3 tests/test_nondyadic_reports.py``.
"""

import json
from fractions import Fraction
from pathlib import Path

import pytest

from vmcheck.machine import MachineState, Reg
from vmcheck.assertions import FULL, PhysPt, RegPt, lower, sep
from vmcheck.checker import (
    AssertStep,
    CallStep,
    COEXEC,
    RESOURCE_ONLY,
    StubSpec,
    check_double,
)

PINNED = Path(__file__).resolve().parent / "nondyadic_reports.json"

ROOT = 0x1000
THIRD, TWO_THIRDS, HALF = Fraction(1, 3), Fraction(2, 3), Fraction(1, 2)
MODES = (COEXEC, RESOURCE_ONLY)


def _stub(name, consumes=(), produces=()):
    """A stub that consumes `consumes` and produces `produces`, leaving
    the machine as it is."""

    def apply(state):
        return lower(sep(*produces), state.root, state.registry)

    return name, StubSpec(consumes=consumes, apply=apply)


STUBS = dict((
    # takes a third of the word at 0x300:0x0 and a quarter of the one at
    # 0x300:0x8, then hands back two sevenths of the first
    _stub("split", (PhysPt(0x300, 0, THIRD, 5),
                    PhysPt(0x300, 8, Fraction(1, 4), 9)),
          (PhysPt(0x300, 0, Fraction(2, 7), 5),)),
    _stub("halve", (PhysPt(0x300, 8, HALF, 9),)),
    _stub("grab_rax", (RegPt(Reg.RAX, HALF, None),)),
    _stub("grab_missing", (PhysPt(0x300, 0x10, HALF, 0),)),
    _stub("give", (), (PhysPt(0x300, 0, HALF, 5),)),
))

# (script after the precondition, the narrative a refused one ends with)
CASES = {
    "accepted": ([CallStep("split"), CallStep("halve"),
                  AssertStep(sep(RegPt(Reg.RAX, THIRD, 7),
                                 PhysPt(0x300, 0, HALF, 5)))], None),
    "need-a-half-hold-a-third": ([CallStep("split"), CallStep("grab_rax")],
                                 "need 1/2 of reg:rax, hold 1/3"),
    "need-a-half-hold-none": ([CallStep("split"), CallStep("grab_missing")],
                              "need 1/2 of phys:0x300:0x10, hold 0"),
    "share-sum-exceeds-one": ([CallStep("split"), CallStep("give")],
                              "share sum exceeds 1 at phys:0x300:0x0"),
    "assert-more-than-held": ([CallStep("split"),
                               AssertStep(PhysPt(0x300, 0, TWO_THIRDS, 5))],
                              "ledger holds only 13/21"),
}


def _report(name, mode):
    pre = sep(RegPt(Reg.RAX, THIRD, 7), PhysPt(0x300, 0, TWO_THIRDS, 5),
              PhysPt(0x300, 8, FULL, 9))
    init = MachineState(regs={Reg.CR3: ROOT, Reg.RAX: 7},
                        mem={0x300: {0: 5, 8: 9, 0x10: 0}})
    return check_double(pre, ROOT, CASES[name][0], stubs=STUBS, mode=mode,
                        init=init)


def _reports(name):
    """{mode: {"text": ..., "json": ...}} for one entry."""
    return {mode: {"text": report.to_text(), "json": report.to_json()}
            for mode in MODES for report in (_report(name, mode),)}


def test_every_entry_is_pinned():
    assert sorted(json.loads(PINNED.read_text())) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_nondyadic_report_is_pinned(name):
    assert _reports(name) == json.loads(PINNED.read_text())[name]


@pytest.mark.parametrize("name", sorted(CASES))
@pytest.mark.parametrize("mode", MODES)
def test_entry_ends_as_named(name, mode):
    report = _report(name, mode)
    narrative = CASES[name][1]
    assert report.ok == (narrative is None)
    if narrative is not None:
        assert report.violation.narrative == narrative


if __name__ == "__main__":
    PINNED.write_text(json.dumps({name: _reports(name)
                                  for name in sorted(CASES)},
                                 indent=1, sort_keys=True) + "\n")
