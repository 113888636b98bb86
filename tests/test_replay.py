"""Reports replay to their final claims.

``oracle.replay_report`` reads a rendered report back, text or JSON, and
replays its step records with plain ``Fraction`` shares from the lowered
precondition: each record gives up what it consumed and takes what it
produced, never holding less than nothing or more than the whole of a
location, and never two values at one.  An accepted report must end at
exactly its final claims.  This checks the records against the ledger
they narrate, whatever the rules that wrote them.
"""

import random
from fractions import Fraction

import pytest

from vmcheck.assertions import lower
from vmcheck.cases import case_study, map_page_case
from vmcheck.checker import COEXEC, RESOURCE_ONLY, check_double

import oracle
from test_acceptance import _generate_script
from test_golden_reports import CHECKS as GOLDEN_CHECKS, _golden

MODES = (COEXEC, RESOURCE_ONLY)


def _start(pre, root, registry):
    """The lowered precondition's claims, keyed by location text."""
    return {str(loc): (q, v)
            for loc, q, v in lower(pre, root, registry).sorted_claims()}


def _replays(report, start):
    """Replay both renderings of an accepted report; each must end at its
    final claims, the same ones."""
    assert report.ok, report.violation
    text = oracle.replay_report(report.to_text(), start)
    assert oracle.replay_report(report.to_json(), start) == text
    return text


@pytest.mark.parametrize("name", list(GOLDEN_CHECKS))
def test_golden_reports_replay_to_their_final_claims(name):
    case = GOLDEN_CHECKS[name][0]()
    start = _start(case.pre, case.root, case.registry)
    text = oracle.replay_report(_golden(name, "txt"), start)
    assert oracle.replay_report(_golden(name, "json"), start) == text


CASES = {"map_new_page": lambda: case_study("map_new_page"),
         "unmap_page": lambda: case_study("unmap_page"),
         "swtch": lambda: case_study("swtch"),
         **{f"map_page_{w}": lambda w=w: map_page_case(w) for w in (1, 16, 128)}}


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("name", list(CASES))
def test_case_reports_replay_to_their_final_claims(name, mode):
    case = CASES[name]()
    report = check_double(case.pre, case.root, case.script, stubs=case.stubs,
                          mode=mode, init=case.state, registry=case.registry,
                          free_list=case.free_list)
    _replays(report, _start(case.pre, case.root, case.registry))


def test_criterion_8_reports_replay_to_their_final_claims():
    rng = random.Random(808)
    for _ in range(20):
        state, registry, roots, pre, script, _ctx = _generate_script(rng)
        report = check_double(pre, roots[0], script, init=state,
                              registry=registry)
        _replays(report, _start(pre, roots[0], registry))


START = {"phys:0x5:0x0": (Fraction(1), 7), "reg:rax": (Fraction(1, 2), 8)}
GIVE = "phys:0x5:0x0 1/2 0x7"
TAKE = "reg:rax 1/2 0x8"
FINAL = ("phys:0x5:0x0 1/2 0x7", "reg:rax 1 0x8")


def _report(consumed, produced, final):
    return "\n".join(("mode: resource", "initial root: 0x1000",
                      "[000] call:stub",
                      *(f"      - {text}" for text in consumed),
                      *(f"      + {text}" for text in produced),
                      "final root: 0x1000", "final claims:",
                      *(f"  {text}" for text in final), "result: ok", ""))


def test_replay_ends_at_the_final_claims():
    assert oracle.replay_report(_report([GIVE], [TAKE], FINAL), START) == {
        "phys:0x5:0x0": (Fraction(1, 2), 7), "reg:rax": (Fraction(1), 8)}


@pytest.mark.parametrize("consumed, produced, final, refusal", [
    (["reg:rax 1 0x8"], [], (), "gives up"),  # below 0
    (["phys:0x5:0x0 1/2 0x6"], [], (), "gives up"),  # another value
    ([], ["phys:0x5:0x0 1/2 0x7"], (), "takes"),  # above 1
    ([GIVE], ["reg:rax 1/4 0x9"], (), "takes"),  # another value
    ([GIVE], [TAKE], FINAL[:1], "final claims"),  # ends elsewhere
])
def test_replay_refuses_records_the_ledger_cannot_take(consumed, produced,
                                                       final, refusal):
    with pytest.raises(AssertionError, match=refusal):
        oracle.replay_report(_report(consumed, produced, final), START)
