"""Reports match the benchmark's golden copies byte for byte.

``perfbench/golden`` holds the text and JSON reports of the fixed-input
benchmark checks, captured from a reference program; the benchmark
refuses to time a program whose reports differ.  Checking them here
puts the same gate in the ordinary suite.  Each check is also run in the
other mode, where only the mode line or field may differ: both modes
apply the same rules to the same stepped machine, and none of these
scripts gives the co-execution audit anything to object to.
"""

import gzip
from pathlib import Path

import pytest

from vmcheck.cases import case_study, map_page_case
from vmcheck.checker import COEXEC, RESOURCE_ONLY, check_double

GOLDEN = Path(__file__).resolve().parent.parent / "perfbench" / "golden"


def _golden(name, suffix):
    with gzip.open(GOLDEN / f"{name}.{suffix}.gz", "rt") as f:
        return f.read()


CHECKS = {
    "map_wide_16": (lambda: map_page_case(16), RESOURCE_ONLY),
    "map_wide_128": (lambda: map_page_case(128), RESOURCE_ONLY),
    "swtch": (lambda: case_study("swtch"), COEXEC),
    "map_new_page": (lambda: case_study("map_new_page"), COEXEC),
    "unmap_page": (lambda: case_study("unmap_page"), COEXEC),
}


OTHER_MODE = {COEXEC: RESOURCE_ONLY, RESOURCE_ONLY: COEXEC}


def _check(name, mode):
    case = CHECKS[name][0]()
    return check_double(case.pre, case.root, case.script, stubs=case.stubs,
                        mode=mode, init=case.state, registry=case.registry,
                        free_list=case.free_list)


@pytest.mark.parametrize("name", list(CHECKS))
def test_report_matches_golden(name):
    report = _check(name, CHECKS[name][1])
    assert report.to_text() == _golden(name, "txt")
    assert report.to_json() == _golden(name, "json")


@pytest.mark.parametrize("name", ["map_wide_16", "swtch", "map_new_page",
                                  "unmap_page"])
def test_other_mode_differs_from_golden_only_in_the_mode(name):
    mode = CHECKS[name][1]
    other = OTHER_MODE[mode]
    report = _check(name, other)
    assert report.to_text() == _golden(name, "txt").replace(
        f"mode: {mode}\n", f"mode: {other}\n", 1)
    assert report.to_json() == _golden(name, "json").replace(
        f'"mode": "{mode}"', f'"mode": "{other}"', 1)
