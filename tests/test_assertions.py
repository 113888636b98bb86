import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from vmcheck.machine import NotPresent, Reg, walk
from vmcheck.assertions import (
    FULL,
    IASpace,
    L1_SHARE,
    L4L1PointsTo,
    Emp,
    Ledger,
    OtherSpace,
    PhysLoc,
    PhysPt,
    PredUnmapped,
    PtePt,
    Pure,
    RegLoc,
    RegPt,
    Sep,
    SpaceLoc,
    SumExceedsOne,
    ValueDisagreement,
    VirtPt,
    WalkLoc,
    WitnessUnavailable,
    is_fact,
    ledger_join,
    lower,
    machine_sat,
    normalize,
    sep,
)

from gen import leaf_pool, multi_space_fixture, random_assertion


# --------------------------------------------------------------------------
# Shares: Ledger.add is the one place shares are added


def test_frac_combine_halves():
    half = Ledger(0x1000).add(PhysLoc(1, 0), Fraction(1, 2), 7)
    assert half.add(PhysLoc(1, 0), Fraction(1, 2), 7).get(PhysLoc(1, 0)) \
        == (FULL, 7)


def test_frac_combine_512_slices():
    total = Fraction(0)
    for _ in range(512):
        total = total + L1_SHARE if total else L1_SHARE
    assert total == 1
    led = Ledger(0x1000)
    for _ in range(512):
        led = led.add(PhysLoc(1, 0), L1_SHARE, 7)
    assert led.get(PhysLoc(1, 0)) == (FULL, 7)


def test_frac_combine_overflow():
    full = Ledger(0x1000).add(PhysLoc(1, 0), FULL, 7)
    with pytest.raises(SumExceedsOne):
        full.add(PhysLoc(1, 0), Fraction(1, 512), 7)


@given(st.integers(1, 200), st.integers(1, 200), st.integers(1, 200),
       st.integers(1, 200))
def test_frac_combine_is_exact(n1, d1, n2, d2):
    a = Fraction(min(n1, d1), max(n1, d1))
    b = Fraction(min(n2, d2), max(n2, d2))
    held = Ledger(0x1000).add(PhysLoc(1, 0), a, 7)
    if a + b > 1:
        with pytest.raises(SumExceedsOne):
            held.add(PhysLoc(1, 0), b, 7)
    else:
        assert held.add(PhysLoc(1, 0), b, 7).get(PhysLoc(1, 0)) == (a + b, 7)


# --------------------------------------------------------------------------
# Ledger join


def L(root, claims, pures=frozenset()):
    return Ledger.build(root, claims, pures)


def test_join_with_empty_is_identity():
    a = L(0x1000, {RegLoc(Reg.RAX): (Fraction(1, 2), 7)})
    assert ledger_join(a, Ledger(0x1000)) == a
    assert ledger_join(Ledger(0x1000), a) == a


def test_join_adds_matching_claims():
    a = L(0x1000, {RegLoc(Reg.RAX): (Fraction(1, 2), 7)})
    joined = ledger_join(a, a)
    assert joined.get(RegLoc(Reg.RAX)) == (FULL, 7)


def test_join_rejects_disagreeing_values():
    a = L(0x1000, {RegLoc(Reg.RAX): (Fraction(1, 2), 7)})
    b = L(0x1000, {RegLoc(Reg.RAX): (Fraction(1, 2), 8)})
    with pytest.raises(ValueDisagreement):
        ledger_join(a, b)


def test_join_rejects_overflow():
    a = L(0x1000, {PhysLoc(1, 0): (FULL, 7)})
    b = L(0x1000, {PhysLoc(1, 0): (L1_SHARE, 7)})
    with pytest.raises(SumExceedsOne):
        ledger_join(a, b)


def test_join_requires_same_root():
    with pytest.raises(ValueError):
        ledger_join(Ledger(0x1000), Ledger(0x2000))


def test_join_commutative_associative():
    rng = random.Random(3)
    locs = [RegLoc(Reg.RAX), RegLoc(Reg.RBX), PhysLoc(1, 0), WalkLoc(0x1000, 8)]
    for _ in range(100):
        parts = []
        for _ in range(3):
            claims = {}
            for loc in rng.sample(locs, rng.randrange(1, 3)):
                claims[loc] = (Fraction(1, rng.choice([4, 8, 16])), 5)
            parts.append(L(0x1000, claims))
        a, b, c = parts

        def join_all(order):
            out = Ledger(0x1000)
            for x in order:
                out = ledger_join(out, x)
            return out

        try:
            ab_c = join_all([a, b, c])
        except SumExceedsOne:
            continue
        assert ab_c == join_all([c, b, a])
        assert ab_c == ledger_join(a, ledger_join(b, c))


# --------------------------------------------------------------------------
# Lowering


def test_lower_modal_fact_matches_bare_fact():
    state, registry, roots = multi_space_fixture()
    fact = RegPt(Reg.RAX, FULL, 5)
    assert lower(OtherSpace(roots[1], fact), roots[0], registry) == \
        lower(fact, roots[0], registry)


def test_lower_distributes_over_sep():
    state, registry, roots = multi_space_fixture()
    p = VirtPt(0x20_0000, Fraction(1, 2), 0x1111)
    q = RegPt(Reg.RBX, FULL, 0)
    r0, rb = roots[0], roots[1]
    lhs = lower(OtherSpace(rb, Sep((p, q))), r0, registry)
    rhs = ledger_join(lower(OtherSpace(rb, p), r0, registry),
                      lower(OtherSpace(rb, q), r0, registry))
    assert lhs == rhs


def test_lower_sep_is_join():
    state, registry, roots = multi_space_fixture()
    p = VirtPt(0x20_0000, Fraction(1, 2), 0x1111)
    q = PhysPt(0x6, 0x0, FULL, 0x3333)
    both = lower(Sep((p, q)), roots[0], registry)
    assert both == ledger_join(lower(p, roots[0], registry),
                               lower(q, roots[0], registry))


def test_lower_virtpt_yields_walk_claim():
    state, registry, roots = multi_space_fixture()
    led = lower(VirtPt(0x20_0000, Fraction(1, 2), 0x1111), roots[0], registry)
    assert led.get(WalkLoc(roots[0], 0x20_0000)) == (Fraction(1, 2), 0x5000)
    assert led.get(PhysLoc(0x5, 0x0)) == (Fraction(1, 2), 0x1111)
    # the claim it produces is exactly what the machine exhibits
    assert machine_sat(VirtPt(0x20_0000, Fraction(1, 2), 0x1111),
                       roots[0], state, registry) is None


def test_lower_virtpt_tagged_with_governing_root():
    state, registry, roots = multi_space_fixture()
    r0, rb = roots[0], roots[1]
    led = lower(OtherSpace(rb, VirtPt(0x20_0000, FULL, 0x3333)), r0, registry)
    assert led.get(WalkLoc(rb, 0x20_0000)) == (FULL, 0x6000)
    assert led.get(WalkLoc(r0, 0x20_0000)) is None


def test_lower_needs_walk_witness():
    state, registry, roots = multi_space_fixture()
    with pytest.raises(WitnessUnavailable):
        lower(VirtPt(0x40_0000, FULL, 0), roots[0], registry)


def test_lower_iaspace_and_pure():
    state, registry, roots = multi_space_fixture()
    led = lower(Sep((IASpace(), Pure(PredUnmapped(0x40_0000)))),
                roots[0], registry)
    assert led.get(SpaceLoc(roots[0])) == (FULL, roots[0])
    assert (roots[0], PredUnmapped(0x40_0000)) in led.pures


def test_lower_l4l1_share_schedule():
    state, registry, roots = multi_space_fixture()
    trace = walk(roots[0], state.mem, 0x20_0000)
    (l4, l3, l2, l1) = [s[3].raw for s in trace.steps]
    node = L4L1PointsTo(0x20_0000, l4, l3, l2, l1, 0x5000)
    led = lower(node, roots[0], registry)
    fracs = sorted(q for q, _ in led.claims.values())
    assert fracs == sorted([Fraction(1, 512 ** 4), Fraction(1, 512 ** 3),
                            Fraction(1, 512 ** 2), Fraction(1, 512)])
    assert machine_sat(node, roots[0], state, registry) is None


def test_lower_512_words_reassembles_l1_slot():
    # All 512 words of one page route through the same L1 entry; the
    # per-word slices of that entry must add up to exactly the full share.
    state, registry, roots = multi_space_fixture()
    trace = walk(roots[0], state.mem, 0x20_0000)
    (l4, l3, l2, l1) = [s[3].raw for s in trace.steps]
    led = Ledger(roots[0])
    for w in range(512):
        va = 0x20_0000 + 8 * w
        node = L4L1PointsTo(va, l4, l3, l2, l1, 0x5000 + 8 * w)
        led = ledger_join(led, lower(node, roots[0], registry))
    l1_frame, l1_off = trace.steps[3][1], trace.steps[3][2]
    assert led.get(PhysLoc(l1_frame, l1_off)) == (FULL, l1)
    l2_frame, l2_off = trace.steps[2][1], trace.steps[2][2]
    assert led.get(PhysLoc(l2_frame, l2_off)) == (Fraction(1, 512), l2)
    # one more slice of the L1 entry cannot exist
    extra = L(roots[0], {PhysLoc(l1_frame, l1_off): (L1_SHARE, l1)})
    with pytest.raises(SumExceedsOne):
        ledger_join(led, extra)


# --------------------------------------------------------------------------
# machine_sat


def test_sat_emp_everywhere():
    state, registry, roots = multi_space_fixture()
    for r in roots:
        assert machine_sat(Emp(), r, state, registry) is None


def test_sat_virtpt_and_broken_level():
    state, registry, roots = multi_space_fixture()
    assert machine_sat(VirtPt(0x20_0000, FULL, 0x1111), roots[0], state,
                       registry) is None
    # clear the L2 entry's present bit and re-check
    trace = walk(roots[0], state.mem, 0x20_0000)
    _, frame, off, _ = trace.steps[2]
    state.mem[frame][off] &= ~1
    report = machine_sat(VirtPt(0x20_0000, FULL, 0x1111), roots[0], state,
                         registry)
    assert report is not None
    assert report.observed == NotPresent(2, 0x20_0000)


def test_sat_ptept_checks_resolution():
    state, registry, roots = multi_space_fixture()
    assert machine_sat(PtePt(0x20_0000, FULL, 0x5000, 0x1111), roots[0],
                       state, registry) is None
    report = machine_sat(PtePt(0x20_0000, FULL, 0x6000, 0x1111), roots[0],
                         state, registry)
    assert report is not None and report.observed == 0x5000


def test_sat_other_space_switches_root():
    state, registry, roots = multi_space_fixture()
    claim = VirtPt(0x20_0000, FULL, 0x3333)
    assert machine_sat(claim, roots[0], state, registry) is not None
    assert machine_sat(claim, roots[1], state, registry) is None
    assert machine_sat(OtherSpace(roots[1], claim), roots[0], state,
                       registry) is None


def test_sat_iaspace_unregistered_root():
    state, registry, roots = multi_space_fixture()
    report = machine_sat(IASpace(), 0xFE000, state, registry)
    assert report is not None


# --------------------------------------------------------------------------
# Facts


def test_is_fact_basic():
    assert is_fact(RegPt(Reg.RAX, FULL, 5))
    assert is_fact(PhysPt(1, 0, FULL, 5))
    assert not is_fact(VirtPt(0x20_0000, FULL, 0))
    assert not is_fact(IASpace())
    assert not is_fact(Pure(PredUnmapped(8)))
    assert is_fact(OtherSpace(0x1000, VirtPt(0x20_0000, FULL, 0)))
    assert not is_fact(Sep((RegPt(Reg.RAX, FULL, 5), IASpace())))


def test_facts_are_root_independent():
    state, registry, roots = multi_space_fixture()
    pool = leaf_pool(state, registry, roots)
    rng = random.Random(11)
    checked = 0
    for _ in range(300):
        tree = random_assertion(rng, pool, roots)
        if not is_fact(tree):
            continue
        checked += 1
        verdicts = {machine_sat(tree, r, state, registry) is None
                    for r in roots}
        assert len(verdicts) == 1
    assert checked > 30


def test_wrapped_virtpt_verdict_independent_of_outer_root():
    state, registry, roots = multi_space_fixture()
    wrapped = OtherSpace(roots[0], VirtPt(0x20_0000, FULL, 0x1111))
    assert machine_sat(wrapped, roots[1], state, registry) is None
    assert machine_sat(wrapped, roots[2], state, registry) is None


# --------------------------------------------------------------------------
# normalize


def test_normalize_distributes_modality():
    p = VirtPt(0x20_0000, FULL, 0)
    q = VirtPt(0x20_1000, FULL, 0)
    out = normalize(OtherSpace(0x1000, Sep((p, q))))
    assert out == sep(OtherSpace(0x1000, p), OtherSpace(0x1000, q))


def test_normalize_drops_modal_emp():
    assert normalize(OtherSpace(0x1000, Emp())) == Emp()


def test_normalize_erases_wrapper_on_facts():
    fact = RegPt(Reg.RAX, FULL, 5)
    assert normalize(OtherSpace(0x1000, fact)) == fact


def test_normalize_collapses_nested_wrappers():
    inner = OtherSpace(0x2000, VirtPt(0x20_0000, FULL, 0))
    assert normalize(OtherSpace(0x1000, inner)) == inner


def test_normalize_idempotent_on_random_trees():
    state, registry, roots = multi_space_fixture()
    pool = leaf_pool(state, registry, roots)
    rng = random.Random(5)
    for _ in range(300):
        tree = random_assertion(rng, pool, roots)
        once = normalize(tree)
        assert normalize(once) == once


def test_normalize_preserves_verdicts():
    state, registry, roots = multi_space_fixture()
    pool = leaf_pool(state, registry, roots)
    rng = random.Random(6)
    for _ in range(300):
        tree = random_assertion(rng, pool, roots)
        for r in roots:
            before = machine_sat(tree, r, state, registry) is None
            after = machine_sat(normalize(tree), r, state, registry) is None
            assert before == after


def test_sep_is_order_insensitive():
    a = RegPt(Reg.RAX, FULL, 1)
    b = PhysPt(1, 0, FULL, 2)
    assert sep(a, b) == sep(b, a)
    assert sep(a, Emp()) == a
    assert sep() == Emp()
