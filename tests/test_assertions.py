import copy
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from vmcheck.machine import NotPresent, Reg, pte_frame, translate, walk
from vmcheck.assertions import (
    DEN,
    FULL,
    IASpace,
    L1_SHARE,
    L4L1PointsTo,
    Emp,
    Location,
    Ledger,
    LedgerError,
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
    chain_fault,
    lower,
    machine_sat,
    sep,
    share_text,
)
from vmcheck.cases import map_page_case
from vmcheck.checker import RESOURCE_ONLY, check_double

import oracle
from gen import (MIXED_SHARES, build, edit, fraction_claims, join,
                 leaf_pool, multi_space_fixture, random_assertion)
from oracle import is_fact, normalize


# --------------------------------------------------------------------------
# Shares: Ledger.add is the one place shares are added, as numerators over
# den; Ledger.share turns a Fraction into one


def _added(ledger, q, val=7, loc=PhysLoc(1, 0)):
    """`ledger` after adding share q (a Fraction) of `loc` on `val`."""
    return ledger.add(loc, ledger.share(q), val)


def test_frac_combine_halves():
    half = _added(Ledger(0x1000), Fraction(1, 2))
    assert _added(half, Fraction(1, 2)).get(PhysLoc(1, 0)) == (FULL, 7)


def test_frac_combine_512_slices():
    total = Fraction(0)
    for _ in range(512):
        total = total + L1_SHARE if total else L1_SHARE
    assert total == 1
    led = Ledger(0x1000)
    for _ in range(512):
        led = _added(led, L1_SHARE)
    assert led.get(PhysLoc(1, 0)) == (FULL, 7)


def test_frac_combine_overflow():
    full = _added(Ledger(0x1000), FULL)
    with pytest.raises(SumExceedsOne):
        _added(full, Fraction(1, 512))


@given(st.integers(1, 200), st.integers(1, 200), st.integers(1, 200),
       st.integers(1, 200))
def test_frac_combine_is_exact(n1, d1, n2, d2):
    a = Fraction(min(n1, d1), max(n1, d1))
    b = Fraction(min(n2, d2), max(n2, d2))
    held = _added(Ledger(0x1000), a)
    if a + b > 1:
        with pytest.raises(SumExceedsOne):
            _added(held, b)
    else:
        assert _added(held, b).get(PhysLoc(1, 0)) == (a + b, 7)


@pytest.mark.parametrize("share", ["1/2", True, False, 0.1, 0.5, None])
@pytest.mark.parametrize("make", [
    lambda q: RegPt(Reg.RAX, q, 0),
    lambda q: PhysPt(1, 0, q, 0),
    lambda q: VirtPt(0x1000, q, 0),
    lambda q: PtePt(0x1000, q, 0x2000, 0),
])
def test_a_share_enters_only_as_a_fraction_or_an_int(make, share):
    with pytest.raises(ValueError, match="is not a Fraction or an int"):
        make(share)


@pytest.mark.parametrize("share, held", [
    (1, Fraction(1)), (Fraction(1, 3), Fraction(1, 3)), (FULL, FULL)])
def test_a_share_that_enters_is_a_fraction(share, held):
    q = RegPt(Reg.RAX, share, 0).q
    assert (type(q), q) == (Fraction, held)


@pytest.mark.parametrize("share", [Fraction(3, 2), Fraction(0), 2, 0,
                                   Fraction(-1, 2), "1/2", True])
def test_ledger_build_checks_every_share(share):
    with pytest.raises(ValueError):
        build(0x1000, {RegLoc(Reg.RAX): (FULL, 0), PhysLoc(1, 0): (share, 0)})


def test_ledger_operations_refuse_a_share_that_is_not_positive():
    # share, the one step from a Fraction to a numerator, refuses it
    # before it widens den
    loc = PhysLoc(1, 0)
    full = _added(Ledger(0x1000), FULL, 0, loc)
    half = _added(Ledger(0x1000), Fraction(1, 2), 0, loc)
    for ledger in (full, half):
        for q, text in ((Fraction(-1, 2), "-1/2"), (Fraction(0), "0"),
                        (Fraction(-1, 3), "-1/3")):
            with pytest.raises(ValueError,
                               match=rf"share {text} outside \(0, 1\]"):
                ledger.share(q)
    assert (full.get(loc), half.get(loc)) == ((FULL, 0), (Fraction(1, 2), 0))
    assert full.den == half.den == 512 ** 4


# --------------------------------------------------------------------------
# Ledger join


def test_join_with_empty_is_identity():
    a = build(0x1000, {RegLoc(Reg.RAX): (Fraction(1, 2), 7)})
    assert join(a, Ledger(0x1000)) == a
    assert join(Ledger(0x1000), a) == a


def test_join_adds_matching_claims():
    a = build(0x1000, {RegLoc(Reg.RAX): (Fraction(1, 2), 7)})
    joined = join(a, a)
    assert joined.get(RegLoc(Reg.RAX)) == (FULL, 7)


def test_join_rejects_disagreeing_values():
    a = build(0x1000, {RegLoc(Reg.RAX): (Fraction(1, 2), 7)})
    b = build(0x1000, {RegLoc(Reg.RAX): (Fraction(1, 2), 8)})
    with pytest.raises(ValueDisagreement):
        join(a, b)


def test_join_rejects_overflow():
    a = build(0x1000, {PhysLoc(1, 0): (FULL, 7)})
    b = build(0x1000, {PhysLoc(1, 0): (L1_SHARE, 7)})
    with pytest.raises(SumExceedsOne):
        join(a, b)


def test_join_requires_same_root():
    with pytest.raises(ValueError):
        join(Ledger(0x1000), Ledger(0x2000))


def test_join_commutative_associative():
    rng = random.Random(3)
    locs = [RegLoc(Reg.RAX), RegLoc(Reg.RBX), PhysLoc(1, 0), WalkLoc(0x1000, 8)]
    for _ in range(100):
        parts = []
        for _ in range(3):
            claims = {}
            for loc in rng.sample(locs, rng.randrange(1, 3)):
                claims[loc] = (Fraction(1, rng.choice([4, 8, 16])), 5)
            parts.append(build(0x1000, claims))
        a, b, c = parts

        def join_all(order):
            out = Ledger(0x1000)
            for x in order:
                out = join(out, x)
            return out

        try:
            ab_c = join_all([a, b, c])
        except SumExceedsOne:
            continue
        assert ab_c == join_all([c, b, a])
        assert ab_c == join(a, join(b, c))


# --------------------------------------------------------------------------
# The ledger against its Fraction reference (oracle.FractionLedger)


_REF_LOCS = (RegLoc(Reg.RAX), PhysLoc(1, 0), PhysLoc(1, 8),
             WalkLoc(0x1000, 0x20_0000))
_some_locs = st.sampled_from(_REF_LOCS)
# the shares an operation is given: refused ones (not positive) too
_op_shares = st.sampled_from((Fraction(-1, 3), Fraction(0), *MIXED_SHARES))
_claim_sets = st.dictionaries(
    _some_locs,
    st.tuples(st.sampled_from(MIXED_SHARES), st.sampled_from((0, 1))),
    max_size=3)
_ref_ops = st.one_of(
    st.tuples(st.just("add"), _some_locs, _op_shares, st.sampled_from((0, 1))),
    st.tuples(st.just("consume"), _some_locs, _op_shares,
              st.sampled_from((0, 1, None))),
    st.tuples(st.just("set_value"), _some_locs, st.sampled_from((0, 1))),
    st.tuples(st.just("join"), _claim_sets),
    st.tuples(st.just("take"), _claim_sets),
    st.tuples(st.just("contains"), _claim_sets))


def _said(apply):
    """(what `apply` returned or None, and None or its refusal's kind and
    narrative; the kind is ValueError for a share that is not positive)."""
    try:
        return apply(), None
    except (LedgerError, oracle.Refusal) as err:
        return None, (err.kind, err.narrative)
    except ValueError as err:
        return None, ("ValueError", str(err))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.lists(_ref_ops, max_size=8), max_size=6))
def test_the_ledger_agrees_with_its_fraction_reference(steps):
    # each inner list is one step's ops, on a copy of the ledger; a 1/3,
    # 2/7 or 5/6 share rescales it, often after its journal has entries
    ledger, ref = Ledger(0x1000), oracle.FractionLedger()
    for ops in steps:
        work, step_ref = edit(ledger), ref
        for kind, *args in ops:
            if kind == "contains":
                got = work.contains(build(0x1000, args[0]))
                assert step_ref.contains(oracle.FractionLedger(args[0])) == (
                    got and (got.kind, got.location, got.narrative))
                continue
            before = work.sorted_claims()
            name, ref_args, kwargs = kind, args, {}
            if kind in ("join", "take"):
                # take: join's consuming form, a call's consumes
                name, kwargs = "join", {"take": kind == "take"}
                args = [build(0x1000, args[0])]
                ref_args = [oracle.FractionLedger(ref_args[0])]
            new_ref, want = _said(
                lambda: getattr(step_ref, name)(*ref_args, **kwargs))
            if kind in ("add", "consume"):
                loc, q, *rest = args
                got = _said(lambda: getattr(work, kind)(
                    loc, work.share(q), *rest))
            else:
                got = _said(lambda: getattr(work, name)(*args, **kwargs))
            assert got[1] == want
            if want is None:
                step_ref = new_ref
            elif name == "join":
                break  # a join refused partway drops the step's copy
            else:
                assert work.sorted_claims() == before
            assert fraction_claims(work) == step_ref.claims
        else:
            ledger, ref = work, step_ref
    assert ledger == build(0x1000, ref.claims)


_GAP_LOCS = (RegLoc(Reg.RAX), RegLoc(Reg.RBX), PhysLoc(1, 0), PhysLoc(1, 8),
             PhysLoc(2, 0), WalkLoc(0x1000, 0x20_0000),
             WalkLoc(0x1000, 0x20_1000), WalkLoc(0x2000, 0x20_0000),
             SpaceLoc(0x1000), SpaceLoc(0x2000))
_GAP_KINDS = ("missing", "value", "short")


@settings(max_examples=300, deadline=None)
@given(st.permutations(_GAP_LOCS),
       st.lists(st.sampled_from(_GAP_KINDS), min_size=2, max_size=6)
       .filter(lambda kinds: len(set(kinds)) > 1),
       st.integers(0, 4), st.data())
def test_contains_names_the_least_gap_as_a_sorted_scan_does(locs, gaps,
                                                             covered, data):
    # a sub-ledger with `covered` claims the ledger covers and two or more
    # gaps of mixed kinds, its claims in a random order: contains names the
    # same kind, location and narrative as the reference's sorted scan
    shares = st.sampled_from(MIXED_SHARES)
    held, wanted = {}, {}
    for loc, kind in zip(locs, ["covered"] * covered + gaps):
        share = data.draw(shares)
        if kind == "short":
            share = data.draw(shares.filter(lambda q: q < 1))
            need = data.draw(shares.filter(lambda q, held=share: q > held))
        else:
            need = data.draw(shares.filter(lambda q, held=share: q <= held))
        if kind != "missing":
            held[loc] = (share, 1)
        wanted[loc] = (need, 2 if kind == "value" else 1)
    got = build(0x1000, held).contains(build(0x1000, wanted))
    want = oracle.FractionLedger(held).contains(oracle.FractionLedger(wanted))
    assert want is not None
    assert (got.kind, got.location, got.narrative) == want


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
    rhs = join(lower(OtherSpace(rb, p), r0, registry),
               lower(OtherSpace(rb, q), r0, registry))
    assert lhs == rhs


def test_lower_sep_is_join():
    state, registry, roots = multi_space_fixture()
    p = VirtPt(0x20_0000, Fraction(1, 2), 0x1111)
    q = PhysPt(0x6, 0x0, FULL, 0x3333)
    both = lower(Sep((p, q)), roots[0], registry)
    assert both == join(lower(p, roots[0], registry),
                        lower(q, roots[0], registry))


# The wrapper laws, as properties of lower: both sides of a law lower to
# the same ledger under every root of the fixture, or both refuse alike.

_STATE, _REGISTRY, _ROOTS = multi_space_fixture()
_POOL = leaf_pool(_STATE, _REGISTRY, _ROOTS)
_trees = st.randoms(use_true_random=False).map(
    lambda rng: random_assertion(rng, _POOL, _ROOTS))
_laws = settings(max_examples=200, deadline=None)


def _lowered(tree, g):
    """What lower makes of `tree` under `g`: its ledger, or its refusal's
    class, location and narrative."""
    try:
        return lower(tree, g, _REGISTRY)
    except LedgerError as err:
        return type(err), err.location, err.narrative


def _meaning(tree, g):
    """`tree` lowered under `g` as its claims and pures, with the governing
    root of each pure fact erased (``pure_holds`` reads it only for
    ``unmapped``), or None when it refuses: which conflicting claim a
    refusal meets first follows the order of the * parts."""
    lowered = _lowered(tree, g)
    if not isinstance(lowered, Ledger):
        return None
    return lowered.sorted_claims(), frozenset(
        (r if isinstance(pred, PredUnmapped) else None, pred)
        for r, pred in lowered.pures)


@seed(2008)
@_laws
@given(_trees, _trees)
def test_lower_law_a_wrapper_distributes_over_sep(p, q):
    for r in _ROOTS:
        for g in _ROOTS:
            assert _lowered(OtherSpace(r, Sep((p, q))), g) == \
                _lowered(Sep((OtherSpace(r, p), OtherSpace(r, q))), g)


@seed(2008)
@_laws
@given(_trees)
def test_lower_law_a_wrapper_drops_around_emp(p):
    for r in _ROOTS:
        for g in _ROOTS:
            assert _lowered(OtherSpace(r, Emp()), g) == Ledger(g)
            assert _lowered(Sep((OtherSpace(r, Emp()), p)), g) == \
                _lowered(p, g)


@seed(2008)
@_laws
@given(_trees.filter(is_fact))
def test_lower_law_a_wrapper_vanishes_around_facts(p):
    # and a fact means the same under every root
    assert len({_meaning(tree, g)
                for tree in (p, *(OtherSpace(r, p) for r in _ROOTS))
                for g in _ROOTS}) == 1


@seed(2008)
@_laws
@given(_trees)
def test_lower_law_the_innermost_wrapper_wins(p):
    for outer in _ROOTS:
        for inner in _ROOTS:
            for g in _ROOTS:
                assert _lowered(OtherSpace(outer, OtherSpace(inner, p)), g) \
                    == _lowered(OtherSpace(inner, p), g)


@seed(2008)
@_laws
@given(_trees)
def test_lower_keeps_the_meaning_of_the_normal_form(tree):
    # oracle.normalize applies every law at once, and sorts the * parts
    flat = normalize(tree)
    for g in _ROOTS:
        assert _meaning(tree, g) == _meaning(flat, g)


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
    steps, _pa = walk(roots[0], state.mem, 0x20_0000)
    (l4, l3, l2, l1) = [entry for _slot, entry in steps]
    node = L4L1PointsTo(0x20_0000, l4, l3, l2, l1, 0x5000)
    led = lower(node, roots[0], registry)
    fracs = sorted(q for _loc, q, _v in led.sorted_claims())
    assert fracs == sorted([Fraction(1, 512 ** 4), Fraction(1, 512 ** 3),
                            Fraction(1, 512 ** 2), Fraction(1, 512)])
    assert machine_sat(node, roots[0], state, registry) is None


def test_lower_512_words_reassembles_l1_slot():
    # All 512 words of one page route through the same L1 entry; the
    # per-word slices of that entry must add up to exactly the full share.
    state, registry, roots = multi_space_fixture()
    steps, _pa = walk(roots[0], state.mem, 0x20_0000)
    (l4, l3, l2, l1) = [entry for _slot, entry in steps]
    led = Ledger(roots[0])
    for w in range(512):
        va = 0x20_0000 + 8 * w
        node = L4L1PointsTo(va, l4, l3, l2, l1, 0x5000 + 8 * w)
        led = join(led, lower(node, roots[0], registry))
    l1_frame, l1_off = divmod(steps[3][0], 0x1000)
    assert led.get(PhysLoc(l1_frame, l1_off)) == (FULL, l1)
    l2_frame, l2_off = divmod(steps[2][0], 0x1000)
    assert led.get(PhysLoc(l2_frame, l2_off)) == (Fraction(1, 512), l2)
    # one more slice of the L1 entry cannot exist
    extra = build(roots[0], {PhysLoc(l1_frame, l1_off): (L1_SHARE, l1)})
    with pytest.raises(SumExceedsOne):
        join(led, extra)


def test_chain_fault_reads_the_entries_as_ints():
    state, registry, roots = multi_space_fixture()
    steps, pa = walk(roots[0], state.mem, 0x20_0008)
    entries = [entry for _slot, entry in steps]
    # it resolves: the L1 entry's frame plus the va's page offset
    assert chain_fault(0x20_0008, entries, pa) is None
    # it resolves elsewhere
    assert chain_fault(0x20_0008, entries, pa + 8) == \
        f"chain for 0x200008 does not resolve to {pa + 8:#x}"
    # an entry is not present: the narrative names the chain as the
    # walk-chain claim it stands for, with the first such entry
    for level in range(4):
        gone = list(entries)
        gone[level] &= ~1
        assert chain_fault(0x20_0008, gone, pa) == (
            f"table entry is not present for "
            f"{L4L1PointsTo(0x20_0008, *gone, pa)!r} "
            f"(observed {gone[level]!r})")


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2 ** 32), st.lists(st.integers(0, (1 << 64) - 1),
                                         min_size=1, max_size=4))
def test_a_four_slot_walk_gives_pa_exactly_when_its_chain_holds(seed, words):
    # the ghost insert takes its verdict on pa from its one walk: wherever
    # translate reads four slots, it gives pa exactly when the chain of
    # the entries it read has no fault; pa is the address the L1 entry
    # resolves, a word beside it, or any word
    root, mem, vas = oracle.random_table_config(random.Random(seed))
    for va in vas + words:
        steps = []
        got = translate(root, mem, va, steps=steps)
        if len(steps) < 4:
            continue
        entries = [entry for _slot, entry in steps]
        resolved = (pte_frame(entries[3]) << 12) | (va & 0xFFF)
        for pa in (resolved, resolved ^ 8, *words):
            assert (got == pa) == (chain_fault(va, entries, pa) is None)


def test_random_tables_give_four_slot_walks_of_both_verdicts():
    # the property above is not vacuous: its tables give four-slot walks
    # that resolve and ones whose L1 entry is not present
    verdicts = set()
    for seed in range(100):
        root, mem, vas = oracle.random_table_config(random.Random(seed))
        for va in vas:
            steps = []
            got = translate(root, mem, va, steps=steps)
            if len(steps) == 4:
                verdicts.add(isinstance(got, int))
    assert verdicts == {True, False}


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
    frame, off = divmod(walk(roots[0], state.mem, 0x20_0000)[0][2][0], 0x1000)
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


def _flat_parts(a) -> list:
    """The parts of an assertion under its separating conjunctions."""
    if isinstance(a, Sep):
        return [p for part in a.parts for p in _flat_parts(part)]
    return [] if isinstance(a, Emp) else [a]


def test_sep_orders_parts_by_repr_on_random_trees():
    # random trees nest Sep directly, hold Emp units and repeat leaves
    state, registry, roots = multi_space_fixture()
    pool = leaf_pool(state, registry, roots)
    rng = random.Random(12)
    for _ in range(300):
        parts = [random_assertion(rng, pool, roots)
                 for _ in range(rng.randrange(5))]
        want = sorted((p for part in parts for p in _flat_parts(part)),
                      key=repr)
        got = sep(*parts)
        if not want:
            assert got == Emp()
        elif len(want) == 1:
            assert got is want[0]
        else:
            assert isinstance(got, Sep) and list(got.parts) == want


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_share_text_is_the_fractions_text(data):
    # numerators over the first denominator and over one widened by a
    # third: exact shares of a few denominators, and any numerator
    den = data.draw(st.sampled_from((DEN, 3 * DEN)))
    d = data.draw(st.sampled_from(
        [d for d in (1, 2, 3, 512, 512 ** 3, 6 * 512, den) if den % d == 0]))
    n = data.draw(st.one_of(st.integers(0, d).map(lambda m: m * (den // d)),
                            st.integers(0, den)))
    for _ in range(2):  # and again, from the cache
        assert share_text(n, den) == str(Fraction(n, den))
    assert share_text.cache_info().maxsize is not None


# --------------------------------------------------------------------------
# Locations: tuples that are their own sort key


def _dataclass_sort_key(loc) -> tuple:
    """The explicit sort key locations had when they were dataclasses."""
    if isinstance(loc, RegLoc):
        return (0, loc.reg.value)
    if isinstance(loc, PhysLoc):
        return (1, loc.frame, loc.off)
    if isinstance(loc, WalkLoc):
        return (2, loc.root, loc.va)
    return (3, loc.root)


_SMALL = st.integers(0, 3)
_LOCATIONS = st.one_of(
    st.sampled_from([r for r in Reg if r is not Reg.CR3]).map(RegLoc),
    st.builds(PhysLoc, _SMALL, _SMALL.map(lambda i: 8 * i)),
    st.builds(WalkLoc, _SMALL.map(lambda i: i << 12),
              _SMALL.map(lambda i: 8 * i)),
    st.builds(SpaceLoc, _SMALL.map(lambda i: i << 12)))


@given(st.lists(_LOCATIONS, max_size=40))
def test_locations_sort_as_the_dataclass_key_sorted_them(locs):
    assert sorted(locs) == sorted(locs, key=_dataclass_sort_key)
    ledger = build(0x1000, {loc: (FULL, 0) for loc in locs})
    assert [loc for loc, _q, _v in ledger.sorted_claims()] == \
        sorted(set(locs), key=_dataclass_sort_key)


def test_locations_of_different_kinds_are_distinct_keys():
    claims = {PhysLoc(1, 8): "phys", WalkLoc(1, 8): "walk",
              SpaceLoc(1): "space", RegLoc(Reg.RAX): "reg"}
    assert len(claims) == 4
    assert claims[PhysLoc(1, 8)] == "phys"
    assert claims[WalkLoc(1, 8)] == "walk"
    assert PhysLoc(1, 8) != WalkLoc(1, 8)
    assert SpaceLoc(1) != WalkLoc(1, 8)


@pytest.mark.parametrize("loc, text, shown, fields", [
    (RegLoc(Reg.RAX), "reg:rax", "RegLoc(reg=<Reg.RAX: 'rax'>)",
     {"reg": Reg.RAX}),
    (PhysLoc(0x5, 0x8), "phys:0x5:0x8", "PhysLoc(frame=5, off=8)",
     {"frame": 5, "off": 8}),
    (WalkLoc(0x1000, 0x20_0000), "walk:0x1000:0x200000",
     "WalkLoc(root=4096, va=2097152)", {"root": 0x1000, "va": 0x20_0000}),
    (SpaceLoc(0x1000), "space:0x1000", "SpaceLoc(root=4096)",
     {"root": 0x1000}),
])
def test_each_location_kind_keeps_its_text_repr_and_fields(loc, text, shown,
                                                           fields):
    assert isinstance(loc, Location)
    assert (str(loc), repr(loc)) == (text, shown)
    assert {name: getattr(loc, name) for name in fields} == fields
    assert type(loc)(**fields) == loc
    assert copy.copy(loc) == loc
    assert pickle.loads(pickle.dumps(loc)) == loc
    with pytest.raises(TypeError):
        type(loc)(*fields.values(), 0)


_WORDS = st.integers(0, (1 << 64) - 1)
locations = st.one_of(
    st.builds(RegLoc, st.sampled_from([r for r in Reg if r is not Reg.CR3])),
    st.builds(PhysLoc, st.integers(0, (1 << 52) - 1),
              st.integers(0, 511).map(lambda i: 8 * i)),
    st.builds(WalkLoc, _WORDS, _WORDS), st.builds(SpaceLoc, _WORDS))


@settings(max_examples=300, deadline=None)
@given(locations)
def test_a_location_text_is_built_once_and_kept_for_its_kind(loc):
    texts = Location.__str__
    texts.cache_clear()
    want = loc._text.format(*loc)
    assert str(loc) == want and texts.cache_info()[:2] == (0, 1)
    assert str(loc) == want and texts.cache_info()[:2] == (1, 1)
    # an equal location built apart finds the same text
    twin = type(loc)(*loc[1:])
    assert twin is not loc and str(twin) == want
    # kinds differ in their first field: a physical word and a walk with
    # the same fields keep their own texts, and a plain tuple equal to
    # the location is not a location
    if isinstance(loc, (PhysLoc, WalkLoc)):
        other = (WalkLoc if isinstance(loc, PhysLoc) else PhysLoc)(*loc[1:])
        assert other != loc
        assert str(other) == other._text.format(*other) != want
    assert str(tuple(loc)) == repr(tuple(loc)) != want
    assert str(loc) == want


def test_a_check_formats_each_location_text_once(monkeypatch):
    case = map_page_case(16)
    formats = []

    class Counted(str):
        def format(self, *fields):
            formats.append(str.format(self, *fields))
            return formats[-1]

    Location.__str__.cache_clear()
    for kind in (RegLoc, PhysLoc, WalkLoc, SpaceLoc):
        monkeypatch.setattr(kind, "_text", Counted(kind._text))
    report = check_double(case.pre, case.root, case.script, stubs=case.stubs,
                          mode=RESOURCE_ONLY, init=case.state,
                          registry=case.registry, free_list=case.free_list)
    assert report.ok, report.violation
    text = report.to_text() + report.to_json()
    # one format per distinct location, and every location the report
    # names was formatted
    assert len(formats) == len(set(formats))
    named = {claim.split()[0] for record in report.records
             for claim in record.consumed + record.produced}
    named |= {str(loc) for loc in report.final_ledger.claims}
    assert named <= set(formats) and all(t in text for t in named)
