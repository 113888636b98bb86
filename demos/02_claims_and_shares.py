"""Claims, exact fractional shares, and the other-space modality."""

from fractions import Fraction

from vmcheck.machine import MachineState, Reg, mem_set, synth_tables, walk
from vmcheck.assertions import (
    IASpace, L4L1PointsTo, OtherSpace, RegPt, Sep, SumExceedsOne, VirtPt,
    lower, machine_sat,
)
from vmcheck.parsing import print_assertion

mem, root = synth_tables([(0x20_0000, 0x5000, True)], alloc_base=0x100)
mem_b, other_root = synth_tables([(0x20_0000, 0x6000, True)], alloc_base=0x180)
mem.update(mem_b)
mem_set(mem, 0x5, 0x0, 0x1111)
mem_set(mem, 0x6, 0x0, 0x2222)
state = MachineState(regs={Reg.CR3: root, Reg.RAX: 7}, mem=mem)
registry = {root: {0x20_0000: 0x5000}, other_root: {0x20_0000: 0x6000}}

# A virtual points-to means: the walk works and the word is there.
claim = VirtPt(0x20_0000, Fraction(1, 2), 0x1111)
assert machine_sat(claim, root, state, registry) is None
ledger = lower(claim, root, registry)
print("half-share virtual claim lowers to:")
for loc, q, v in ledger.sorted_claims():
    print(f"  {loc} share={q} value={v:#x}")

# Each mapped word owns a 1/512 slice of its L1 entry (and thinner
# slices of the interior entries).  512 slices reassemble exactly: one
# `*` of the 512 per-word chains lowers to the full L1 entry.
steps, _pa = walk(root, state.mem, 0x20_0000)
l4, l3, l2, l1 = (entry for _slot, entry in steps)
chains = tuple(L4L1PointsTo(0x20_0000 + 8 * w, l4, l3, l2, l1, 0x5000 + 8 * w)
               for w in range(512))
total = lower(Sep(chains), root, registry)
_l1_loc, l1_share, _ = total.sorted_claims()[-1]
print(f"the * of 512 per-word chains: L1 entry share = {l1_share}")
try:
    lower(Sep((*chains, chains[0])), root, registry)
except SumExceedsOne as err:
    print(f"a 513th chain is rejected: {err}")

# The other-space wrapper changes which root a claim is judged under: the
# ledger keys each claim by the root that governs it, so the wrapper
# distributes over * and vanishes around root-independent facts.
fact = RegPt(Reg.RAX, Fraction(1), 7)
virt = VirtPt(0x20_0000, Fraction(1), 0x2222)
wrapped = OtherSpace(other_root, Sep((fact, virt, IASpace())))
spread = Sep((fact, OtherSpace(other_root, virt),
              OtherSpace(other_root, IASpace())))
assert machine_sat(wrapped, root, state, registry) is None
assert lower(wrapped, root, registry) == lower(spread, root, registry)
print("the wrapper distributes, as an equality of lowered ledgers:")
print(f"  lower({print_assertion(wrapped)})")
print(f"  == lower({print_assertion(spread)})")
for loc, q, v in lower(wrapped, root, registry).sorted_claims():
    print(f"  {loc} share={q} value={v:#x}")
