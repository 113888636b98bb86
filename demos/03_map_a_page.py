"""Check the page-mapping case study end to end and show the step log."""

from vmcheck.machine import translate
from vmcheck.cases import MAP_FPADDR, MAP_VA, case_study
from vmcheck.checker import check_double

case = case_study("map_new_page")
print(case.description)
print()

report = check_double(case.pre, case.root, case.script, stubs=case.stubs,
                      init=case.state, registry=case.registry,
                      free_list=case.free_list)
print(report.to_text())

assert report.ok
result = translate(case.root, report.final_machine.mem, MAP_VA)
assert result == MAP_FPADDR
print(f"machine agrees: va {MAP_VA:#x} now backs onto {result:#x}, "
      f"word = {report.final_machine.mem[MAP_FPADDR >> 12][0]:#x}")
