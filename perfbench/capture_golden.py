"""Capture the golden text and JSON reports the fixed-input workloads
compare against.  Run once, from the root of a checkout, on the program
whose reports are the reference:

    python3 perfbench/capture_golden.py

Reports are stored gzip-compressed with a zero timestamp, so capturing
twice from the same program writes identical files.
"""

import gzip
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from vmcheck import cases, checker  # noqa: E402

import workloads  # noqa: E402


def capture(name: str, case, mode: str) -> None:
    report = checker.check_double(
        case.pre, case.root, case.script, stubs=case.stubs, mode=mode,
        init=case.state, registry=case.registry, free_list=case.free_list)
    if not report.ok:
        raise SystemExit(f"{name}: reference check rejected: "
                         f"{report.violation}")
    for suffix, body in (("txt", report.to_text()), ("json", report.to_json())):
        path = workloads.GOLDEN / f"{name}.{suffix}.gz"
        with open(path, "wb") as raw, \
                gzip.GzipFile(filename="", mode="wb", fileobj=raw,
                              mtime=0) as f:
            f.write(body.encode())
        print(f"wrote {path}")


if __name__ == "__main__":
    for words in (workloads.MAP_WIDE_WORDS, workloads.MAP_WIDE_TINY_WORDS):
        capture(f"map_wide_{words}", cases.map_page_case(words), "resource")
    for name in workloads.CASE_ROTATION:
        capture(name, cases.case_study(name), "coexec")
