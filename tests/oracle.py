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
diffs two whole claim maps where the checker reads its draft's journal.
``replay_report`` reads a rendered report back and replays its records
from the precondition's claims to the report's final claims.
``FractionLedger`` is the reference for the claim ledger: plain
``Fraction`` shares, added and compared as such.  ``naive_step`` is the
reference for the memory forms of ``step``, built on ``naive_walk``.
``tokenize`` is the reference for the assertion tokenizer: one anchored
match per token, and a refusal where no token matches.

``normalize`` and ``is_fact`` are the one exception to the rule above:
they rewrite the package's own assertion trees, so they take its AST
classes and ``sep``.  They state the wrapper laws syntactically, the
reference that ``lower``'s keys are tested against.
"""

import json
import re
from fractions import Fraction

from vmcheck.assertions import (
    Emp, IASpace, L4L1PointsTo, OtherSpace, PhysPt, PredUnmapped, PtePt,
    Pure, RegPt, Sep, VirtPt, sep,
)

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


def canonical(va):
    """A 64-bit va is canonical when its top 17 binary digits (bits 63 to
    47) are all 0 or all 1, read from its binary text."""
    return len(set(format(va, "064b")[:17])) == 1


def naive_walk(root, mem, va):
    """Walk 4 levels of tables by direct dict lookups.

    `mem` is the nested map {frame: {offset: word}}; `root` is the byte
    address of the top table (must be page aligned).  A va that is not
    canonical is ("non-canonical", va), before any lookup.
    """
    assert root % PAGE == 0
    if not canonical(va):
        return ("non-canonical", va)
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


def _claim(text):
    """(location text, share, value) of a claim text: `loc share value`."""
    loc, share, value = text.split(" ")
    return loc, Fraction(share), int(value, 16)


def _records(report):
    """([(consumed texts, produced texts), ...], final claims or None) of a
    text or JSON report."""
    if report.startswith("{"):
        data = json.loads(report)
        final = data["final_claims"]
        return ([(step["consumed"], step["produced"]) for step in data["steps"]],
                None if final is None else
                [(c["location"], Fraction(c["share"]), int(c["value"], 16))
                 for c in final])
    records, final = [], None
    for line in report.splitlines():
        if line.startswith("["):
            records.append(([], []))
        elif line.startswith("      - "):
            records[-1][0].append(line[8:])
        elif line.startswith("      + "):
            records[-1][1].append(line[8:])
        elif line == "final claims:":
            final = []
        elif final is not None and line.startswith("  "):
            final.append(_claim(line[2:]))
    return records, final


def replay_report(report, start):
    """Replay a text or JSON report's step records from the claims `start`
    ({location text: (Fraction share, value)}, the lowered precondition):
    each record gives up its consumed claims, then takes its produced
    ones.  A share that would fall below 0 or rise above 1, or a value that
    disagrees with the one held, fails an assertion, and so does a report
    with final claims that the replay does not end at exactly.  Returns
    the claims reached."""
    records, final = _records(report)
    claims = dict(start)
    for index, (consumed, produced) in enumerate(records):
        for text in consumed:
            loc, q, v = _claim(text)
            held_q, held_v = claims.get(loc, (Fraction(0), v))
            assert 0 < q <= held_q and held_v == v, \
                f"record {index} gives up {text}, holding {held_q} of {held_v:#x}"
            if held_q == q:
                del claims[loc]
            else:
                claims[loc] = (held_q - q, v)
        for text in produced:
            loc, q, v = _claim(text)
            held_q, held_v = claims.get(loc, (Fraction(0), v))
            assert 0 < q and held_q + q <= 1 and held_v == v, \
                f"record {index} takes {text}, holding {held_q} of {held_v:#x}"
            claims[loc] = (held_q + q, v)
    if final is not None:
        assert claims == {loc: (q, v) for loc, q, v in final}, \
            "the records do not end at the final claims"
    return claims


class Refusal(Exception):
    """A refused ledger operation: its violation kind and narrative."""

    def __init__(self, kind, narrative):
        super().__init__(narrative)
        self.kind, self.narrative = kind, narrative


def _positive(q):
    if q <= 0:
        raise ValueError(f"share {q} outside (0, 1]")


class FractionLedger:
    """Claims {location: (Fraction share, value)}, with the ledger's
    operations and refusals (as ``Refusal``, or ValueError for a share
    that is not positive).  Every operation returns a new ledger; a
    refused one leaves the receiver as it was.  Locations are opaque:
    only sorted and formatted."""

    def __init__(self, claims=()):
        self.claims = dict(claims)

    def add(self, loc, q, val):
        _positive(q)
        held_q, held_v = self.claims.get(loc, (0, val))
        if held_v != val:
            raise Refusal("ValueDisagreement",
                          f"claims disagree on the value at {loc}")
        if held_q + q > 1:
            raise Refusal("InsufficientFraction",
                          f"share sum exceeds 1 at {loc}")
        return FractionLedger({**self.claims, loc: (held_q + q, val)})

    def consume(self, loc, q, val=None):
        _positive(q)
        held_q, held_v = self.claims.get(loc, (Fraction(0), val))
        if loc in self.claims and val is not None and held_v != val:
            raise Refusal("ValueDisagreement",
                          f"claims disagree on the value at {loc}")
        if held_q < q:
            raise Refusal("InsufficientFraction",
                          f"need {q} of {loc}, hold {held_q}")
        rest = dict(self.claims)
        if held_q == q:
            del rest[loc]
        else:
            rest[loc] = (held_q - q, held_v)
        return FractionLedger(rest)

    def set_value(self, loc, val):
        held_q, _held_v = self.claims.get(loc, (Fraction(0), None))
        if held_q != 1:
            raise Refusal("InsufficientFraction",
                          f"need 1 of {loc}, hold {held_q}")
        return FractionLedger({**self.claims, loc: (Fraction(1), val)})

    def join(self, other, take=False):
        """Add (or with `take` consume) other's claims one by one in
        location order."""
        out = self
        for loc in sorted(other.claims):
            out = (out.consume if take else out.add)(loc, *other.claims[loc])
        return out

    def contains(self, sub):
        """None when every claim of `sub` is held, else (kind, location
        text, narrative) for the first one not held in location order."""
        for loc in sorted(sub.claims):
            q, v = sub.claims[loc]
            if loc not in self.claims:
                return ("MissingResource", str(loc),
                        "asserted claim is not in the ledger")
            held_q, held_v = self.claims[loc]
            if held_v != v:
                return ("ValueDisagreement", str(loc),
                        f"ledger holds value {held_v:#x}")
            if held_q < q:
                return ("InsufficientFraction", str(loc),
                        f"ledger holds only {held_q}")
        return None


# The four memory forms of the mov family: whether each loads or stores,
# and which of its operands must name data registers, in the order a
# fault reports them.
MEM_FORMS = {
    "MovRegFromMem": ("load", ("dst", "base")),
    "MovToCr3FromMem": ("load", ("base",)),
    "MovMemFromReg": ("store", ("src", "base")),
    "MovMemFromCr3": ("store", ("base",)),
}


def naive_step(regs, mem, form, ops, enforce_rw=True, set_accessed=True):
    """One memory-form instruction, from the paging layout alone.

    `regs` maps register names to values (absent ones read 0), `mem` is
    the nested map {frame: {offset: word}}, `form` a key of MEM_FORMS and
    `ops` its operands {"dst"/"src"/"base": name, "disp": int}; the cr3
    forms load into or store from "cr3".  Returns ("ok", regs', mem') as
    fresh copies, or a fault tuple: ("bad-register", name),
    ("misaligned", addr), a naive_walk failure, ("read-only", level) or
    ("frame-unmapped", byte_addr).
    """
    kind, data_operands = MEM_FORMS[form]
    for operand in data_operands:
        if ops[operand] == "cr3":
            return ("bad-register", ops[operand])
    va = (regs.get(ops["base"], 0) + ops["disp"]) % (1 << 64)
    if va % 8:
        return ("misaligned", va)
    root = regs.get("cr3", 0)
    if root % PAGE:
        return ("misaligned", root)
    outcome = naive_walk(root, mem, va)
    if outcome[0] != "ok":
        return outcome
    # the walk succeeded, so every slot on the chain exists and is present
    fields = va_fields(va)
    table = root // PAGE
    chain = []
    for level, index in ((4, "i4"), (3, "i3"), (2, "i2"), (1, "i1")):
        slot = fields[index] * 8
        chain.append((level, table, slot))
        table = entry_fields(mem[table][slot])["frame"]
    if kind == "store" and enforce_rw:
        for level, table, slot in chain:
            if not entry_fields(mem[table][slot])["writable"]:
                return ("read-only", level)
    new_regs = dict(regs)
    new_mem = {frame: dict(words) for frame, words in mem.items()}
    if set_accessed:
        for _level, table, slot in chain:
            new_mem[table][slot] |= 32
    frame, off = outcome[1] // PAGE, outcome[1] % PAGE
    if off not in new_mem.get(frame, {}):
        return ("frame-unmapped", outcome[1])
    if kind == "load":
        new_regs[ops.get("dst", "cr3")] = new_mem[frame][off]
    else:
        new_mem[frame][off] = regs.get(ops.get("src", "cr3"), 0)
    return ("ok", new_regs, new_mem)


# --------------------------------------------------------------------------
# Assertion tokens


class TokenRefusal(Exception):
    """A character no token starts with: (line, column, message)."""


_TOKEN_RE = re.compile(
    r"\s*(?:(?P<sym>\|->vpte|\|->r|\|->a|\|->v|==|[{}()\[\]*:/])"
    r"|(?P<num>0x[0-9a-fA-F]+|[0-9]+)"
    r"|(?P<word>[A-Za-z_][A-Za-z0-9_]*))")


def tokenize(text, line):
    """[(kind, text, column)] of assertion text, matching one token at a
    time from where the last one ended; TokenRefusal(line, column,
    message) names the end of the last token before a character no token
    starts with."""
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            rest = text[pos:].strip()
            if not rest:
                break
            raise TokenRefusal(line, pos + 1, f"cannot read {rest[:10]!r}")
        kind = m.lastgroup
        tokens.append((kind, m.group(kind), m.start(kind) + 1))
        pos = m.end()
    return tokens


# --------------------------------------------------------------------------
# The wrapper laws as a rewrite of assertion trees


def is_fact(a):
    """True when the assertion's verdict cannot depend on the evaluation
    root: register, physical and arithmetic claims, and anything fully
    wrapped in an other-space modality.  Virtual/PTE points-to, the space
    invariant, walk-chain claims and walk-map absence are root-relative.
    """
    if isinstance(a, (Emp, RegPt, PhysPt)):
        return True
    if isinstance(a, Pure):
        return not isinstance(a.pred, PredUnmapped)
    if isinstance(a, (VirtPt, PtePt, IASpace, L4L1PointsTo)):
        return False
    if isinstance(a, OtherSpace):
        return True
    if isinstance(a, Sep):
        return all(is_fact(p) for p in a.parts)
    raise TypeError(f"unknown assertion {a!r}")


def normalize(a):
    """Push other-space wrappers through separating conjunction, collapse
    nested wrappers to the innermost, erase wrappers around facts, drop
    Emp units, and canonicalize Sep ordering.  Idempotent."""
    if isinstance(a, Sep):
        return sep(*(normalize(p) for p in a.parts))
    if isinstance(a, OtherSpace):
        body = normalize(a.body)
        if isinstance(body, Sep):
            return sep(*(normalize(OtherSpace(a.root, p)) for p in body.parts))
        if isinstance(body, Emp):
            return Emp()
        if isinstance(body, OtherSpace):
            return body  # inner wrapper pins the evaluation root
        if is_fact(body):
            return body
        return OtherSpace(a.root, body)
    return a
