"""Shared fixtures and random generators for the test suite."""

from fractions import Fraction

from vmcheck.machine import MachineState, Reg, mem_set, synth_tables
from vmcheck.assertions import (
    Emp,
    IASpace,
    Ledger,
    OtherSpace,
    PhysPt,
    PredAligned,
    PredEq,
    PredUnmapped,
    PtePt,
    Pure,
    RegPt,
    Sep,
    VirtPt,
    check_share,
)

DATA_REGS = [r for r in Reg if r.is_data]

# The shares a ledger property draws: 1, 1/2, the four chain shares, and
# three whose denominators (3 and 7) do not divide a ledger's starting
# one, so that drawing one rescales a ledger, often after its journal has
# entries.
MIXED_SHARES = (Fraction(1), Fraction(1, 2),
                *(Fraction(1, 512 ** k) for k in range(1, 5)),
                Fraction(1, 3), Fraction(2, 7), Fraction(5, 6))


def fraction_claims(ledger):
    """{location: (share, value)}: a ledger's claims, shares as Fractions."""
    return {loc: (q, v) for loc, q, v in ledger.sorted_claims()}


def build(root, claims, pures=()):
    """The ledger under `root` of {location: (share, value)} claims, each
    share checked as it enters (``check_share``)."""
    ledger = Ledger(root, {}, tuple(pures))
    for loc, (q, v) in claims.items():
        ledger.claims[loc] = (ledger.share(check_share(q)), v)
    return ledger


def edit(ledger):
    """A copy of `ledger` with an empty journal: its operations change
    neither `ledger` nor its claims dict."""
    return Ledger(ledger.root, dict(ledger.claims), ledger.pures, ledger.den,
                  {})


def join(a, b):
    """Disjoint composition of two ledgers under one root: a copy of
    ``a``, with ``b``'s claims added by ``Ledger.join``, and the pure
    facts of both (``Ledger.join`` merges none)."""
    joined = edit(a).join(b)
    joined.pures = a.pures + b.pures
    return joined


def multi_space_fixture():
    """Three address spaces over one physical memory.

    Space A maps 0x20_0000 -> 0x5000 and 0x20_1000 -> 0x6000.
    Space B maps 0x20_0000 -> 0x6000 (same va, different backing).
    Space C maps nothing.
    Data words carry distinctive values.
    """
    mem_a, root_a = synth_tables(
        [(0x20_0000, 0x5000, True), (0x20_1000, 0x6000, True)], alloc_base=0x100)
    mem_b, root_b = synth_tables([(0x20_0000, 0x6000, True)], alloc_base=0x180)
    mem_c, root_c = synth_tables([], alloc_base=0x1C0)

    mem = {}
    for part in (mem_a, mem_b, mem_c):
        mem.update(part)
    mem_set(mem, 0x5, 0x0, 0x1111)
    mem_set(mem, 0x5, 0x8, 0x2222)
    mem_set(mem, 0x6, 0x0, 0x3333)

    registry = {
        root_a: {0x20_0000: 0x5000, 0x20_1000: 0x6000},
        root_b: {0x20_0000: 0x6000},
        root_c: {},
    }
    regs = {Reg.CR3: root_a, Reg.RAX: 0x7, Reg.RDI: 0x20_0000}
    state = MachineState(regs=regs, mem=mem)
    return state, registry, (root_a, root_b, root_c)


def leaf_pool(state, registry, roots):
    """Assertion leaves over the fixture: a mix of true and false claims."""
    root_a, root_b, root_c = roots
    return [
        Emp(),
        RegPt(Reg.RAX, Fraction(1), 0x7),
        RegPt(Reg.RAX, Fraction(1, 2), 0x8),  # false value
        RegPt(Reg.RBX, Fraction(1), 0x0),
        PhysPt(0x5, 0x0, Fraction(1), 0x1111),
        PhysPt(0x5, 0x8, Fraction(1, 512), 0x2222),
        PhysPt(0x6, 0x0, Fraction(1), 0x9999),  # false value
        VirtPt(0x20_0000, Fraction(1), 0x1111),
        VirtPt(0x20_0000, Fraction(1, 2), 0x3333),
        VirtPt(0x20_1000, Fraction(1), 0x3333),
        PtePt(0x20_0000, Fraction(1), 0x5000, 0x1111),
        PtePt(0x20_0000, Fraction(1), 0x6000, 0x3333),
        IASpace(),
        Pure(PredEq(4, 4)),
        Pure(PredEq(4, 5)),
        Pure(PredAligned(0x20_0000)),
        Pure(PredAligned(0x20_0008)),
        Pure(PredUnmapped(0x40_0000)),
        Pure(PredUnmapped(0x20_0000)),
    ]


def random_assertion(rng, pool, roots, depth=3):
    """A random assertion tree over the given leaf pool."""
    if depth == 0 or rng.random() < 0.4:
        return rng.choice(pool)
    if rng.random() < 0.45:
        n = rng.randrange(2, 4)
        return Sep(tuple(random_assertion(rng, pool, roots, depth - 1)
                         for _ in range(n)))
    return OtherSpace(rng.choice(roots),
                      random_assertion(rng, pool, roots, depth - 1))
