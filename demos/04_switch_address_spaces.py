"""The context switch, and why framing breaks across cr3 writes.

A claim like `va |->v x` is only meaningful relative to the current
page-table root.  Carrying it untouched (framed) across a root change
silently reinterprets it, so the checker rejects that; wrapping the
claim in the modality for its governing root keeps it honest.
"""

from vmcheck.machine import MovToCr3FromReg, Reg
from vmcheck.assertions import FULL, IASpace, OtherSpace, RegPt, VirtPt, sep
from vmcheck.cases import case_study
from vmcheck.checker import AssertStep, check_double, frame_audit

# --- the real task switch -------------------------------------------------
case = case_study("swtch")
report = check_double(case.pre, case.root, case.script, stubs=case.stubs,
                      init=case.state, registry=case.registry)
assert report.ok
print(f"swtch: ok "
      f"(root {case.root:#x} -> {report.final_root:#x}, "
      f"{len(report.records)} steps)")
for warning in frame_audit(case.pre, report):
    print(f"  advisory: {warning.narrative}")
print()

# --- the framing counterexample --------------------------------------------
state, registry = case.state, case.registry
root_a, root_b = case.root, report.final_root
state.regs[Reg.RBX] = root_b

framed = VirtPt(0x60_0000, FULL, 0)  # save block word, valid under root_a
base = (IASpace(), RegPt(Reg.RBX, FULL, root_b),
        OtherSpace(root_b, IASpace()))
script = [MovToCr3FromReg(Reg.RBX), AssertStep(framed)]

bad = check_double(sep(*base, framed), root_a, script,
                   init=state, registry=registry)
print(f"framed claim across the switch: {bad.violation.kind}")
print(f"  {bad.violation.narrative}")

wrapped = OtherSpace(root_a, framed)
good = check_double(sep(*base, wrapped), root_a,
                    [MovToCr3FromReg(Reg.RBX), AssertStep(wrapped)],
                    init=state, registry=registry)
assert good.ok
print("same claim wrapped for its governing root: ok")
