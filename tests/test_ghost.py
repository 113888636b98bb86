import random
from fractions import Fraction

import pytest

from vmcheck.machine import (
    MachineState,
    NotPresent,
    Reg,
    split_va,
    synth_tables,
    walk,
)
from vmcheck.assertions import (
    FULL,
    IASpace,
    L4L1PointsTo,
    PtePt,
    SumExceedsOne,
    VirtPt,
    WalkLoc,
    lower,
    sep,
)
from vmcheck.checker import (
    COEXEC,
    GhostInsertWalk,
    GhostPteToVirt,
    GhostRemoveWalk,
    GhostVirtToPte,
    INSUFFICIENT_FRACTION,
    MACHINE_DISAGREE,
    RESOURCE_ONLY,
    VALUE_DISAGREEMENT,
    Violation,
    check_double,
)
from vmcheck.ghost import UnknownRoot, ias_check

from gen import build, multi_space_fixture


def fixture():
    state, registry, roots = multi_space_fixture()
    return state, registry, roots[0]


def chain_for(state, root, va):
    steps, pa = walk(root, state.mem, va)
    assert isinstance(pa, int)
    l4, l3, l2, l1 = (entry for _slot, entry in steps)
    return L4L1PointsTo(va, l4, l3, l2, l1, pa)


# --------------------------------------------------------------------------
# ias_check


def test_ias_check_empty_theta():
    state, registry, roots = multi_space_fixture()
    assert ias_check(state, roots[2], registry) == []


def test_ias_check_synthesized_tables():
    state, registry, root = fixture()
    assert ias_check(state, root, registry) == []


def test_ias_check_unknown_root():
    state, registry, _root = fixture()
    with pytest.raises(UnknownRoot):
        ias_check(state, 0xFE000, registry)


def test_ias_check_reports_exact_victims():
    # Clearing one L3 entry breaks exactly the vas routed through it.
    mappings = [(0x20_0000, 0x5000, True), (0x20_1000, 0x6000, True),
                ((1 << 30) | 0x4000, 0x7000, True)]
    mem, root = synth_tables(mappings, alloc_base=0x100)
    theta = {va: pa for va, pa, _ in mappings}
    registry = {root: theta}
    state = MachineState(regs={Reg.CR3: root}, mem=mem)
    assert ias_check(state, root, registry) == []

    # find the L3 slot used by the first two mappings (they share i4, i3)
    frame, off = divmod(walk(root, state.mem, 0x20_0000)[0][1][0], 0x1000)
    state.mem[frame][off] &= ~1

    expected_broken = set()
    for va in theta:
        if split_va(va)[:2] == split_va(0x20_0000)[:2]:
            expected_broken.add(va)
    failures = ias_check(state, root, registry)
    assert {va for va, _ in failures} == expected_broken
    assert all(fault == NotPresent(3, va) for va, fault in failures)
    assert expected_broken == {0x20_0000, 0x20_1000}


def test_ias_check_matches_oracle_walker():
    # the invariant verdict coincides with an independent walker's view
    import oracle

    rng = random.Random(21)
    for _ in range(50):
        n = rng.randrange(1, 6)
        mappings = []
        for i in range(n):
            va = ((rng.randrange(4) << 39) | (rng.randrange(4) << 30)
                  | (rng.randrange(4) << 21) | (rng.randrange(8) << 12))
            mappings.append((va, (0x500 + i) << 12, True))
        try:
            mem, root = synth_tables(mappings, alloc_base=0x100)
        except ValueError:
            continue  # colliding random pages; irrelevant here
        theta = {va: pa for va, pa, _ in mappings}
        state = MachineState(regs={Reg.CR3: root}, mem=mem)
        # corrupt a few random entries
        for _ in range(rng.randrange(0, 3)):
            frame = rng.choice(sorted(mem))
            off = rng.choice(sorted(mem[frame]))
            mem[frame][off] &= ~1
        failures = ias_check(state, root, {root: theta})
        bad = {va for va, _ in failures}
        for va, pa in theta.items():
            verdict = oracle.naive_walk(root, mem, va)
            if verdict == ("ok", pa):
                assert va not in bad
            else:
                assert va in bad


def test_ias_check_detects_misresolution():
    state, registry, root = fixture()
    registry[root][0x20_0000] = 0x7000  # claim a different backing word
    failures = ias_check(state, root, registry)
    assert failures == [(0x20_0000, 0x5000)]


# --------------------------------------------------------------------------
# insert / remove


def _insert_check(script, mode, va=0x20_0000):
    """check_double of `script` from space A with `va` dropped from its
    walk map, holding the space witness and the chain of `va`.  Returns
    (report, the registry passed in, root A), so a test can see that the
    check leaves the caller's registry unchanged."""
    state, registry, root = fixture()
    registry = {r: dict(t) for r, t in registry.items()}
    del registry[root][va]
    pre = sep(IASpace(), chain_for(state, root, va))
    report = check_double(pre, root, script, init=state, registry=registry,
                          mode=mode)
    return report, registry, root


def test_insert_into_empty_theta():
    for mode in (COEXEC, RESOURCE_ONLY):
        report, registry, root = _insert_check(
            [GhostInsertWalk(0x20_0000, 0x5000)], mode)
        assert report.ok, report.violation
        assert report.final_ledger.get(WalkLoc(root, 0x20_0000)) == \
            (FULL, 0x5000)
        assert registry[root] == {0x20_1000: 0x6000}


def test_insert_rejects_double_mapping():
    insert = GhostInsertWalk(0x20_0000, 0x5000)
    for mode in (COEXEC, RESOURCE_ONLY):
        report, _registry, _root = _insert_check([insert, insert], mode)
        assert report.violation == Violation(
            VALUE_DISAGREEMENT, 1, None, "walk map already holds 0x200000")


def test_insert_validates_evidence_arithmetic():
    for mode in (COEXEC, RESOURCE_ONLY):
        report, _registry, _root = _insert_check(
            [GhostInsertWalk(0x20_0000, 0x9000)], mode)
        assert report.violation == Violation(
            VALUE_DISAGREEMENT, 0, None,
            "chain for 0x200000 does not resolve to 0x9000")


def test_insert_validates_evidence_against_machine():
    # the chain claim says the L1 entry maps the page; the machine's L1
    # entry was wiped, so co-execution's initial audit rejects the
    # precondition at that slot
    state, registry, root = fixture()
    registry = {r: dict(t) for r, t in registry.items()}
    del registry[root][0x20_0000]
    evidence = chain_for(state, root, 0x20_0000)
    frame, off = divmod(walk(root, state.mem, 0x20_0000)[0][3][0], 0x1000)
    state.mem[frame][off] = 0
    report = check_double(sep(IASpace(), evidence), root,
                          [GhostInsertWalk(0x20_0000, 0x5000)], init=state,
                          registry=registry, mode=COEXEC)
    assert report.violation == Violation(
        MACHINE_DISAGREE, -1, None,
        f"phys:{frame:#x}:{off:#x}: ledger {evidence.l1e:#x}, machine 0x0")


def test_insert_then_ias_check_holds():
    for mode in (COEXEC, RESOURCE_ONLY):
        report, registry, root = _insert_check(
            [GhostInsertWalk(0x20_1000, 0x6000)], mode, va=0x20_1000)
        assert report.ok, report.violation
        registry[root][0x20_1000] = 0x6000
        assert ias_check(report.final_machine, root, registry) == []


def test_remove_roundtrip():
    insert = GhostInsertWalk(0x20_0000, 0x5000)
    remove = GhostRemoveWalk(0x20_0000)
    state, _registry, root = fixture()
    pre = sep(IASpace(), chain_for(state, root, 0x20_0000))
    for mode in (COEXEC, RESOURCE_ONLY):
        report, registry, _root = _insert_check([insert, remove], mode)
        assert report.ok, report.violation
        # the chain shares come back out; the walk claim is retired
        assert report.final_ledger == lower(pre, root, registry)
        # invariant only quantifies over the map's domain
        assert ias_check(report.final_machine, root, registry) == []
        report, _registry, _root = _insert_check([insert, remove, remove],
                                                 mode)
        assert report.violation == Violation(
            INSUFFICIENT_FRACTION, 2, f"walk:{root:#x}:0x200000",
            "no walk token held for va 0x200000")
    # a walk claim whose entry the map lacks cannot retire it; only
    # resource mode gets this far, co-execution's audit refuses the
    # precondition
    state, registry, root = fixture()
    registry = {r: dict(t) for r, t in registry.items()}
    del registry[root][0x20_0000]
    report = check_double(sep(IASpace(), PtePt(0x20_0000, FULL, 0x5000,
                                               0x1111)),
                          root, [remove], init=state, registry=registry,
                          mode=RESOURCE_ONLY)
    assert report.violation == Violation(
        VALUE_DISAGREEMENT, 0, None, "walk map has no entry for 0x200000")


def test_remove_requires_full_token():
    # the walk claim is the token: half of it cannot retire the entry
    state, registry, root = fixture()
    pre = sep(IASpace(), VirtPt(0x20_0000, Fraction(1, 2), 0x1111))
    loc = f"walk:{root:#x}:0x200000"
    for mode in (COEXEC, RESOURCE_ONLY):
        report = check_double(pre, root, [GhostRemoveWalk(0x20_0000)],
                              init=state, registry=registry, mode=mode)
        assert report.violation == Violation(
            INSUFFICIENT_FRACTION, 0, loc, f"need 1 of {loc}, hold 1/2")


# --------------------------------------------------------------------------
# walk-claim share arithmetic


def test_token_split_join_stress():
    rng = random.Random(9)
    loc = WalkLoc(0x1000, 0x20_0000)
    for _ in range(200):
        ledger = build(0x1000, {loc: (FULL, 0x5000)})
        outstanding = []
        for _ in range(rng.randrange(1, 30)):
            if outstanding and rng.random() < 0.5:
                q = outstanding.pop()
                ledger = ledger.add(loc, ledger.share(q), 0x5000)
            else:
                held = ledger.get(loc)[0]
                q = held / rng.choice([2, 3, 4])
                ledger = ledger.consume(loc, ledger.share(q), 0x5000)
                outstanding.append(q)
            assert 0 < ledger.get(loc)[0] <= 1
        for q in outstanding:
            ledger = ledger.add(loc, ledger.share(q), 0x5000)
        assert ledger.get(loc) == (FULL, 0x5000)
        with pytest.raises(SumExceedsOne):
            ledger.add(loc, ledger.share(Fraction(1, 512)), 0x5000)


# --------------------------------------------------------------------------
# pte <-> virt


def test_pte_to_virt_forgets_pa():
    # with the walk map naming the pa, both views lower to the same claims
    registry = {0x1000: {0x20_0000: 0x5000}}
    q = Fraction(1, 2)
    assert lower(PtePt(0x20_0000, q, 0x5000, 0x1111), 0x1000, registry) == \
        lower(VirtPt(0x20_0000, q, 0x1111), 0x1000, registry)


def test_virt_to_pte_validates_and_roundtrips():
    state, registry, root = fixture()
    pre = sep(IASpace(), VirtPt(0x20_0000, FULL, 0x1111))
    for mode in (COEXEC, RESOURCE_ONLY):
        report = check_double(pre, root, [GhostVirtToPte(0x20_0000, 0x5000),
                                          GhostPteToVirt(0x20_0000)],
                              init=state, registry=registry, mode=mode)
        assert report.ok
        assert report.final_ledger == lower(pre, root, registry)
        report = check_double(pre, root, [GhostVirtToPte(0x20_0000, 0x6000)],
                              init=state, registry=registry, mode=mode)
        assert report.violation.kind == VALUE_DISAGREEMENT
        assert report.violation.step == 0
