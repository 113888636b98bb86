"""Claims, exact fractional shares, and the other-space modality."""

from fractions import Fraction

from vmcheck.machine import MachineState, Reg, mem_set, synth_tables, walk
from vmcheck.assertions import (
    IASpace, L4L1PointsTo, Ledger, OtherSpace, RegPt, Sep, SumExceedsOne,
    VirtPt, ledger_join, lower, machine_sat, normalize, sep,
)
from vmcheck.parsing import print_assertion

mem, root = synth_tables([(0x20_0000, 0x5000, True)], alloc_base=0x100)
mem_set(mem, 0x5, 0x0, 0x1111)
state = MachineState(regs={Reg.CR3: root, Reg.RAX: 7}, mem=mem)
registry = {root: {0x20_0000: 0x5000}}

# A virtual points-to means: the walk works and the word is there.
claim = VirtPt(0x20_0000, Fraction(1, 2), 0x1111)
assert machine_sat(claim, root, state, registry) is None
ledger = lower(claim, root, registry)
print("half-share virtual claim lowers to:")
for loc, q, v in ledger.sorted_claims():
    print(f"  {loc} share={q} value={v:#x}")

# Each mapped word owns a 1/512 slice of its L1 entry (and thinner
# slices of the interior entries).  512 slices reassemble exactly.
trace = walk(root, state.mem, 0x20_0000)
l4, l3, l2, l1 = (s[3].raw for s in trace.steps)
total = Ledger(root)
for w in range(512):
    node = L4L1PointsTo(0x20_0000 + 8 * w, l4, l3, l2, l1, 0x5000 + 8 * w)
    total = ledger_join(total, lower(node, root, registry))
_l1_loc, l1_share, _ = total.sorted_claims()[-1]
print(f"joining 512 per-word chains: L1 entry share = {l1_share}")
try:
    ledger_join(total, lower(
        L4L1PointsTo(0x20_0000, l4, l3, l2, l1, 0x5000), root, registry))
except SumExceedsOne as err:
    print(f"one more slice is rejected: {err}")

# The other-space wrapper changes which root a claim is judged under;
# wrappers distribute over * and evaporate around root-independent facts.
other_root = root + 0x1000  # any page-aligned name works syntactically
tree = OtherSpace(other_root, Sep((RegPt(Reg.RAX, Fraction(1), 7),
                                   VirtPt(0x20_0000, Fraction(1), 0x1111),
                                   IASpace())))
print("normalize pushes the wrapper inward:")
print(f"  {print_assertion(tree)}")
print(f"  becomes {print_assertion(normalize(tree))}")
