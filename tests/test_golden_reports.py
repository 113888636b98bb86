"""Reports match the benchmark's golden copies byte for byte.

``perfbench/golden`` holds the text and JSON reports of the fixed-input
benchmark checks, captured from a reference program; the benchmark
refuses to time a program whose reports differ.  Checking them here
puts the same gate in the ordinary suite.
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


@pytest.mark.parametrize("name", list(CHECKS))
def test_report_matches_golden(name):
    build, mode = CHECKS[name]
    case = build()
    report = check_double(case.pre, case.root, case.script, stubs=case.stubs,
                          mode=mode, init=case.state, registry=case.registry,
                          free_list=case.free_list)
    assert report.to_text() == _golden(name, "txt")
    assert report.to_json() == _golden(name, "json")
