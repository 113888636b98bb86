"""Walk through 4-level address translation on synthesized tables."""

from vmcheck.machine import (
    NotPresent, split_va, synth_tables, translate, walk, walk_text,
)

# Two virtual pages, one of them read-only.  Table frames are allocated
# from frame 0x100; the builder returns the root's physical address.
mem, root = synth_tables(
    [(0x20_0000, 0x5000, True), (0x60_0000, 0x6000, False)],
    alloc_base=0x100)
print(f"root table at {root:#x}, {len(mem)} table frames allocated")

va = 0x20_0008
i4, i3, i2, i1, off = split_va(va)
print(f"va {va:#x} splits into indices ({i4}, {i3}, {i2}, {i1}) "
      f"offset {off:#x}")

# walk returns the raw entries it read, level 4 first, and the address
steps, pa = walk(root, mem, va)
*entries, outcome = walk_text(pa, steps)
for line in entries:
    print(f"  {line}")
print(f"  resolves to {outcome}")

# An unmapped address reports the level whose entry was empty.
missing = translate(root, mem, 0x40_0000)
assert missing == NotPresent(2, 0x40_0000)
print(f"translate(0x400000) -> not present at level {missing.level}")

# Accessed bits are set as a side effect only when asked for.
before = {f: dict(w) for f, w in mem.items()}
translate(root, mem, va, set_accessed=False)
assert mem == before
translate(root, mem, va, set_accessed=True)
changed = sum(1 for f in mem for o in mem[f] if mem[f][o] != before[f][o])
print(f"walk with accessed-bit updates touched {changed} entries")
