"""Reference implementations used as independent oracles.

Everything here is written from first principles against the published
x86-64 paging layout, on purpose without importing anything from the
package under test.  Results are plain tuples so tests can compare the
production code against these after a small adaptation step.

Outcome encoding:
    ("ok", phys_byte_address)
    ("not-present", level)        level in 4..1, the entry that failed
    ("frame-unmapped", byte_addr) the table frame (or word) was absent

``ledger_delta`` is the reference for the checker's step records: it
diffs two whole claim maps where the checker looks only at the locations
a step touched.
"""

from fractions import Fraction

PAGE = 4096


def va_fields(va):
    """Slice a virtual address with independent mask/shift arithmetic."""
    return {
        "i4": (va // (1 << 39)) % 512,
        "i3": (va // (1 << 30)) % 512,
        "i2": (va // (1 << 21)) % 512,
        "i1": (va // (1 << 12)) % 512,
        "off": va % PAGE,
    }


def entry_fields(entry):
    """Decode a 64-bit table entry by repeated division."""
    return {
        "present": entry % 2 == 1,
        "writable": (entry // 2) % 2 == 1,
        "accessed": (entry // 32) % 2 == 1,
        "frame": (entry // PAGE) % (1 << 40),
    }


def naive_walk(root, mem, va):
    """Walk 4 levels of tables by direct dict lookups.

    `mem` is the nested map {frame: {offset: word}}; `root` is the byte
    address of the top table (must be page aligned).
    """
    assert root % PAGE == 0
    fields = va_fields(va)
    table = root // PAGE
    entry = None
    for level, index in ((4, "i4"), (3, "i3"), (2, "i2"), (1, "i1")):
        slot = fields[index] * 8
        if table not in mem or slot not in mem[table]:
            return ("frame-unmapped", table * PAGE + slot)
        entry = mem[table][slot]
        decoded = entry_fields(entry)
        if not decoded["present"]:
            return ("not-present", level)
        table = decoded["frame"]
    return ("ok", table * PAGE + fields["off"])


def naive_walk_entries(root, mem, va):
    """Like naive_walk but also collects the raw entries seen per level."""
    assert root % PAGE == 0
    fields = va_fields(va)
    table = root // PAGE
    seen = []
    for level, index in ((4, "i4"), (3, "i3"), (2, "i2"), (1, "i1")):
        slot = fields[index] * 8
        if table not in mem or slot not in mem[table]:
            return seen, ("frame-unmapped", table * PAGE + slot)
        entry = mem[table][slot]
        seen.append((level, entry))
        decoded = entry_fields(entry)
        if not decoded["present"]:
            return seen, ("not-present", level)
        table = decoded["frame"]
    return seen, ("ok", table * PAGE + fields["off"])


def frames_reachable(root, mem, vas):
    """Distinct table frames touched while walking each va (oracle for
    counting how many table pages a fixture builder must allocate)."""
    touched = set()
    for va in vas:
        fields = va_fields(va)
        table = root // PAGE
        for index in ("i4", "i3", "i2", "i1"):
            touched.add(table)
            slot = fields[index] * 8
            if table not in mem or slot not in mem[table]:
                break
            decoded = entry_fields(mem[table][slot])
            if not decoded["present"]:
                break
            table = decoded["frame"]
    return touched


def random_table_config(rng):
    """Build a random sparse page-table forest directly in nested dicts.

    Tables are deliberately messy: some entries absent, some present but
    pointing at absent frames, random flag bits, occasional chains that
    terminate early.  Returns (root_byte_addr, mem, candidate_vas) where
    candidate_vas mixes addresses likely to resolve with pure noise.
    """
    mem = {}
    next_frame = [rng.randrange(0x100, 0x4000)]

    def alloc():
        f = next_frame[0]
        next_frame[0] += rng.choice([1, 1, 2])
        mem[f] = {}
        return f

    root_frame = alloc()
    candidate_vas = []

    def fill(table, level, depth_budget):
        for _ in range(rng.randrange(1, 5)):
            idx = rng.randrange(512)
            slot = idx * 8
            roll = rng.random()
            if roll < 0.15:
                mem[table][slot] = rng.randrange(1 << 64) & ~1  # not present
            elif roll < 0.3:
                # present entry to a frame that is never allocated
                ghost = rng.randrange(0x8000, 0x9000)
                mem[table][slot] = (ghost << 12) | 1 | (rng.randrange(2) << 1)
            else:
                if level == 1 or depth_budget == 0:
                    data = rng.randrange(1 << 40)
                    mem[table][slot] = (data << 12) | 1 | (rng.randrange(2) << 1)
                else:
                    child = alloc()
                    mem[table][slot] = (child << 12) | 1 | (rng.randrange(2) << 1)
                    fill(child, level - 1, depth_budget - 1)

    fill(root_frame, 4, 3)

    # Derive some addresses that follow populated slots plus random ones.
    for _ in range(6):
        table = root_frame
        parts = []
        ok = True
        for _ in range(4):
            if table not in mem or not mem[table]:
                ok = False
                break
            slot = rng.choice(sorted(mem[table]))
            parts.append(slot // 8)
            decoded = entry_fields(mem[table][slot])
            table = decoded["frame"] if decoded["present"] else rng.randrange(1 << 20)
        if ok and len(parts) == 4:
            va = (parts[0] << 39) | (parts[1] << 30) | (parts[2] << 21) | (parts[3] << 12)
            candidate_vas.append(va | rng.randrange(PAGE))
    for _ in range(4):
        candidate_vas.append(rng.randrange(1 << 64))

    return root_frame * PAGE, mem, candidate_vas


def ledger_delta(old, new):
    """(consumed, produced) rendered claim deltas between two claim maps
    {location: (share, value)}, over every location either one holds."""
    consumed = []
    produced = []
    for loc in sorted(set(old) | set(new), key=lambda l: str(l)):
        oq, ov = old.get(loc, (Fraction(0), None))
        nq, nv = new.get(loc, (Fraction(0), None))
        if ov == nv:
            if nq > oq:
                produced.append(f"{loc} {nq - oq} {nv:#x}")
            elif oq > nq:
                consumed.append(f"{loc} {oq - nq} {ov:#x}")
        else:
            if ov is not None:
                consumed.append(f"{loc} {oq} {ov:#x}")
            if nv is not None:
                produced.append(f"{loc} {nq} {nv:#x}")
    return tuple(consumed), tuple(produced)
