"""The per-step co-execution audit against the full audit it replaces.

After the initial full audit, ``apply_rule`` re-validates only what a
step could have changed, a stub call included.  The full
``audit_ledger`` after every step is the oracle: both must give
byte-identical reports, passing or failing.
"""

import random
from collections import Counter
from dataclasses import replace
from fractions import Fraction

import pytest

from vmcheck import checker
from vmcheck.machine import (
    AddRegImm,
    MachineState,
    MovMemFromReg,
    MovRegFromMem,
    MovRegImm,
    MovRegReg,
    MovToCr3FromReg,
    Reg,
    ZERO_FRAME,
    mem_set,
    put_frame,
    synth_tables,
    walk,
)
from vmcheck.assertions import (
    FULL,
    IASpace,
    PhysLoc,
    WalkLoc,
    OtherSpace,
    PhysPt,
    RegPt,
    VirtPt,
    lower,
    sep,
)
from vmcheck.checker import (
    AssertStep,
    CallStep,
    COEXEC,
    CheckState,
    RESOURCE_ONLY,
    GhostInsertWalk,
    GhostRemoveWalk,
    InstrStep,
    MACHINE_DISAGREE,
    Violation,
    apply_rule,
    check_double,
)
from vmcheck.cases import CASE_NAMES, case_study, map_page_case, swtch_case

from call_cost import KINDS, call_work, count_work, padded_map_case
from test_acceptance import _generate_script


def _full_audit_report(monkeypatch, *args, **kwargs):
    """check_double with the full audit after every step: ``_audit_step``
    is the audit after an instruction, a ghost step and a call alike
    (after the call's own audit of its product)."""
    with monkeypatch.context() as patch:
        patch.setattr(checker, "_audit_step",
                      lambda ctx, *_rest: checker.audit_ledger(ctx))
        return check_double(*args, **kwargs)


def _assert_same_reports(monkeypatch, *args, **kwargs):
    got = check_double(*args, **kwargs)
    want = _full_audit_report(monkeypatch, *args, **kwargs)
    assert got.to_text() == want.to_text()
    assert got.to_json() == want.to_json()
    return got


# --------------------------------------------------------------------------
# Space A maps its own L1 table page at ALIAS_VA and space B's at
# ALIAS_B_VA, so stores can rewrite table entries that other walks read
# without touching their claims.

DATA_VA = 0x20_0000        # A: -> 0x5000, B: -> 0x6000
SIBLING_VA = 0x20_1000     # A: -> 0x6000
ALIAS_VA = 0x30_0000       # A: -> A's L1 table page
ALIAS_B_VA = 0x30_1000     # A: -> B's L1 table page


def _alias_fixture():
    """(state, registry, root A, root B, A's L1 table, B's L1 table)."""
    mem_b, root_b = synth_tables([(DATA_VA, 0x6000, True)], alloc_base=0x180)
    l1_b = walk(root_b, mem_b, DATA_VA)[0][3][0] & ~0xFFF
    data = [(DATA_VA, 0x5000, True), (SIBLING_VA, 0x6000, True)]
    mem, root = synth_tables(data, alloc_base=0x100)
    l1_a = walk(root, mem, DATA_VA)[0][3][0] & ~0xFFF
    mem, root = synth_tables(data + [(ALIAS_VA, l1_a, True),
                                     (ALIAS_B_VA, l1_b, True)],
                             alloc_base=0x100)
    mem.update(mem_b)
    mem_set(mem, 0x5, 0x0, 0x1111)
    mem_set(mem, 0x5, 0x8, 0x2222)
    mem_set(mem, 0x6, 0x0, 0x3333)
    theta = {DATA_VA: 0x5000, SIBLING_VA: 0x6000, ALIAS_B_VA: l1_b}
    for k in range(4):
        theta[ALIAS_VA + 8 * k] = l1_a + 8 * k
    registry = {root: theta, root_b: {DATA_VA: 0x6000}}
    state = MachineState(regs={Reg.CR3: root, Reg.RDI: ALIAS_VA + 8},
                         mem=mem)
    return state, registry, root, root_b, l1_a, l1_b


def _word(state, pa):
    return state.mem[pa >> 12][pa & 0xFFF]


def test_store_through_alias_breaks_a_held_walk_claim(monkeypatch):
    # the rule touches only the L1 slot's data claim; the walk claim for
    # DATA_VA in space B reads that slot, and no space claim of B is held,
    # so only the walk claim itself can notice
    state, registry, root, root_b, _l1_a, l1_b = _alias_fixture()
    state.regs[Reg.RDI] = ALIAS_B_VA
    pre = sep(IASpace(), RegPt(Reg.RAX, FULL, 0),
              RegPt(Reg.RDI, FULL, ALIAS_B_VA),
              VirtPt(ALIAS_B_VA, FULL, _word(state, l1_b)),
              OtherSpace(root_b, VirtPt(DATA_VA, FULL, 0x3333)))
    script = [InstrStep(MovMemFromReg(Reg.RDI, 0, Reg.RAX))]
    report = _assert_same_reports(monkeypatch, pre, root, script,
                                  init=state, registry=registry)
    assert report.violation == Violation(
        MACHINE_DISAGREE, 0, None,
        f"walk:{root_b:#x}:{DATA_VA:#x}: ledger 0x6000, machine walk "
        f"NotPresent(level=1, va={DATA_VA})")


def test_store_through_alias_redirects_a_held_walk_claim(monkeypatch):
    # as above, but the stored entry is present: the walk now resolves to
    # another address, printed as one
    state, registry, root, root_b, _l1_a, l1_b = _alias_fixture()
    state.regs[Reg.RDI] = ALIAS_B_VA
    pre = sep(IASpace(), RegPt(Reg.RAX, FULL, 0),
              RegPt(Reg.RDI, FULL, ALIAS_B_VA),
              VirtPt(ALIAS_B_VA, FULL, _word(state, l1_b)),
              OtherSpace(root_b, VirtPt(DATA_VA, FULL, 0x3333)))
    script = [InstrStep(MovRegImm(Reg.RAX, 0x7003)),
              InstrStep(MovMemFromReg(Reg.RDI, 0, Reg.RAX))]
    report = _assert_same_reports(monkeypatch, pre, root, script,
                                  init=state, registry=registry)
    assert report.violation == Violation(
        MACHINE_DISAGREE, 1, None,
        f"walk:{root_b:#x}:{DATA_VA:#x}: ledger 0x6000, machine walk 0x7000")


def test_store_through_alias_breaks_only_a_walk_map_entry(monkeypatch):
    # no walk claim is held for SIBLING_VA: only the space invariant's
    # walk-map entry reads the rewritten slot
    state, registry, root, _root_b, l1_a, _l1_b = _alias_fixture()
    pre = sep(IASpace(), RegPt(Reg.RAX, FULL, 0),
              RegPt(Reg.RDI, FULL, ALIAS_VA + 8),
              VirtPt(ALIAS_VA + 8, FULL, _word(state, l1_a + 8)))
    script = [InstrStep(MovRegImm(Reg.RAX, 0x7003)),
              InstrStep(MovMemFromReg(Reg.RDI, 0, Reg.RAX))]
    report = _assert_same_reports(monkeypatch, pre, root, script,
                                  init=state, registry=registry)
    assert report.violation == Violation(
        MACHINE_DISAGREE, 1, None,
        f"space:{root:#x}: walk-map entry {SIBLING_VA:#x} broken: 0x7000")


def _alias_pre(rng, state, root_b, l1_a, l1_b):
    """Space A's claim, the alias words, and a random subset of B's space
    claim and the data walks (so some walks are watched only by a walk
    claim, some only by a walk-map entry)."""
    maybe = [OtherSpace(root_b, IASpace()),
             VirtPt(DATA_VA, FULL, 0x1111),
             VirtPt(SIBLING_VA, Fraction(1, 2), 0x3333),
             OtherSpace(root_b, VirtPt(DATA_VA, Fraction(1, 2), 0x3333))]
    return sep(
        IASpace(),
        *(claim for claim in maybe if rng.random() < 0.5),
        *(VirtPt(ALIAS_VA + 8 * k, FULL, _word(state, l1_a + 8 * k))
          for k in range(4)),
        VirtPt(ALIAS_B_VA, FULL, _word(state, l1_b)),
        *(RegPt(reg, FULL, state.reg(reg)) for reg in
          (Reg.RAX, Reg.RBX, Reg.RDI, Reg.RSI)))


def _alias_candidates(rng, roots, entries):
    regs = (Reg.RAX, Reg.RBX, Reg.RDI, Reg.RSI)
    reg = rng.choice(regs)
    values = [0, 0x7003, 0x5003, 0x6003, *entries, *roots]
    roll = rng.random()
    if roll < 0.35:
        # rewrite an L1 entry through an alias, sometimes to itself
        target = rng.choice([ALIAS_VA, ALIAS_VA + 8, ALIAS_VA + 16,
                             ALIAS_B_VA])
        return [InstrStep(MovRegImm(reg, rng.choice(values))),
                InstrStep(MovRegImm(Reg.RDI, target)),
                InstrStep(MovMemFromReg(Reg.RDI, 0, reg))]
    if roll < 0.5:
        return [InstrStep(MovRegImm(Reg.RSI, rng.choice(
                    [DATA_VA, SIBLING_VA, ALIAS_VA, ALIAS_VA + 8]))),
                InstrStep(MovRegFromMem(reg, Reg.RSI, 0))]
    if roll < 0.6:
        return [InstrStep(MovRegImm(reg, rng.choice(roots))),
                InstrStep(MovToCr3FromReg(reg))]
    if roll < 0.7:
        return [InstrStep(MovRegReg(reg, rng.choice(regs)))]
    if roll < 0.75:
        return [InstrStep(AddRegImm(reg, 8))]
    if roll < 0.85:
        return [GhostRemoveWalk(rng.choice([DATA_VA, SIBLING_VA]))]
    if roll < 0.95:
        va = rng.choice([DATA_VA, DATA_VA + 8, SIBLING_VA])
        pa = {DATA_VA: 0x5000, DATA_VA + 8: 0x5008, SIBLING_VA: 0x6000}[va]
        return [GhostInsertWalk(va, pa)]
    return [AssertStep(IASpace())]


def _alias_script(rng):
    """Steps that pass, up to and including the first one the audit
    rejects (a MachineDisagree), if any."""
    state, registry, root, root_b, l1_a, l1_b = _alias_fixture()
    entries = [_word(state, pa) for pa in (l1_a, l1_a + 8, l1_a + 16, l1_b)]
    pre = _alias_pre(rng, state, root_b, l1_a, l1_b)
    check = CheckState(lower(pre, root, registry),
                       {r: dict(t) for r, t in registry.items()},
                       state.copy(), COEXEC)
    script = []
    for _attempt in range(60):
        for step in _alias_candidates(rng, (root, root_b), entries):
            outcome = apply_rule(check, step, len(script))
            if isinstance(outcome, Violation):
                if outcome.kind == MACHINE_DISAGREE:
                    script.append(step)
                    return state, registry, root, pre, script
                break
            script.append(step)
    return state, registry, root, pre, script


def test_per_step_audit_matches_full_audit_on_alias_scripts(monkeypatch):
    rng = random.Random(404)
    disagreements = 0
    for _round in range(80):
        state, registry, root, pre, script = _alias_script(rng)
        report = _assert_same_reports(monkeypatch, pre, root, script,
                                      init=state, registry=registry)
        disagreements += report.violation is not None and \
            report.violation.kind == MACHINE_DISAGREE
        # every prefix, so failures land at every depth
        cut = rng.randrange(len(script) + 1)
        _assert_same_reports(monkeypatch, pre, root, script[:cut],
                             init=state, registry=registry)
    assert disagreements >= 20, disagreements


def _mutants(rng, script):
    """Failing (and some passing) variants of a passing script."""
    out = []
    for _ in range(3 if script else 0):
        steps = list(script)
        kind = rng.randrange(3)
        i = rng.randrange(len(steps))
        if kind == 0:
            del steps[i]
        elif kind == 1:
            steps.insert(i, steps[rng.randrange(len(steps))])
        else:
            steps[i], steps[-1] = steps[-1], steps[i]
        out.append(steps)
    return out


def test_per_step_audit_matches_full_audit_on_criterion_8_scripts(
        monkeypatch):
    rng = random.Random(808)
    failing = 0
    for _round in range(30):
        state, registry, roots, pre, script, _ctx = _generate_script(rng)
        _assert_same_reports(monkeypatch, pre, roots[0], script, init=state,
                             registry=registry)
        for variant in _mutants(rng, script):
            report = _assert_same_reports(monkeypatch, pre, roots[0],
                                          variant, init=state,
                                          registry=registry)
            failing += not report.ok
        # a machine that disagrees with a claimed word from the start
        bad = state.copy()
        mem_set(bad.mem, 0x5, 0x8, 0x2223)
        _assert_same_reports(monkeypatch, pre, roots[0], script, init=bad,
                             registry=registry)
    assert failing >= 30, failing


# A stub that lies: it writes one thing the precondition or an earlier
# step made a claim or a walk depend on, or nothing does, and promises
# nothing.  The audit after the call must name what the full audit names.
LIES = ("claimed word", "held walk's entry", "walk-map entry's L1 slot",
        "unclaimed frame", "register", "cr3", "claimed word's frame")


def _lying_stub(seed: int, roots: tuple) -> checker.StubSpec:
    """The lie `seed` picks, told through ``write_word``, ``mem_set`` or
    ``put_frame`` (the frame lie zeroes a frame that holds a claimed word),
    with targets drawn from the state the stub runs on (so a check and
    its full-audit twin see the same lie)."""

    def apply(state):
        rng = random.Random(seed)
        lie, machine = rng.choice(LIES), state.machine
        claims, mem = sorted(state.claims), machine.mem

        def write(frame, off, value):
            if rng.random() < 0.5 and off in mem.get(frame, ()):
                assert machine.write_word(frame, off, value) is None
            else:
                mem_set(mem, frame, off, value)

        def slot_of(root, va, level):
            steps, _got = walk(root, mem, va)
            return steps[min(level, len(steps) - 1)]

        if lie == "claimed word":
            _kind, frame, off = rng.choice(
                [loc for loc in claims if type(loc) is PhysLoc])
            old = mem[frame][off]
            write(frame, off, rng.choice((old, old ^ 0x10, 0)))
        elif lie in ("held walk's entry", "walk-map entry's L1 slot"):
            if lie == "held walk's entry":
                _kind, root, va = rng.choice(
                    [loc for loc in claims if type(loc) is WalkLoc])
                level = rng.randrange(4)
            else:
                root = rng.choice(sorted(state.registry))
                va, level = rng.choice(sorted(state.registry[root])), 3
            slot, entry = slot_of(root, va, level)
            write(slot >> 12, slot & 0xFFF,
                  rng.choice((entry, entry ^ 1, entry ^ 0x1000, 0x7003)))
        elif lie == "unclaimed frame":
            frame = rng.choice((0x6, 0x77, 0x78))
            write(frame, 8 * rng.randrange(512), rng.randrange(1 << 16))
        elif lie == "claimed word's frame":
            _kind, frame, _off = rng.choice(
                [loc for loc in claims if type(loc) is PhysLoc])
            put_frame(mem, frame, ZERO_FRAME)
        elif lie == "register":
            reg = rng.choice((Reg.RAX, Reg.RBX, Reg.RSI, Reg.R9))
            machine.regs[reg] = rng.choice((machine.reg(reg),
                                            machine.reg(reg) + 8, 0))
        else:
            machine.regs[Reg.CR3] = rng.choice(roots)
        return lower(sep(), state.root)

    return checker.StubSpec(consumes=(), apply=apply)


def test_the_audit_after_a_call_matches_the_full_audit_on_lying_stubs(
        monkeypatch):
    rng = random.Random(3303)
    outcomes = Counter()
    for _round in range(80):
        state, registry, root, pre, script = _alias_script(rng)
        root_b = next(r for r in registry if r != root)
        calls = sorted(rng.randrange(len(script) + 1)
                       for _ in range(rng.randrange(1, 3)))
        for cut in reversed(calls):
            script.insert(cut, CallStep("lie"))
        stub = _lying_stub(rng.randrange(1 << 30), (root, root_b))
        report = _assert_same_reports(monkeypatch, pre, root, script,
                                      stubs={"lie": stub}, init=state,
                                      registry=registry)
        outcomes["accepted"] += sum(r.rule == "call:lie"
                                    for r in report.records)
        if not report.ok and isinstance(script[report.violation.step],
                                        CallStep):
            outcomes[report.violation.kind] += 1
    # lies the after-call audit catches, cr3 lies the product audit
    # catches, and lies that break nothing
    assert outcomes[MACHINE_DISAGREE] >= 10, outcomes
    assert outcomes[checker.STUB_PRE_FAILED] >= 3, outcomes
    assert outcomes["accepted"] >= 10, outcomes


def test_per_step_audit_matches_full_audit_on_the_cases(monkeypatch):
    cases = [case_study(name) for name in CASE_NAMES]
    for case in cases + [map_page_case(8)]:
        for script in (case.script, case.script[:2] + case.script[3:]):
            _assert_same_reports(monkeypatch, case.pre, case.root, script,
                                 stubs=case.stubs, init=case.state,
                                 registry=case.registry,
                                 free_list=case.free_list)


def test_a_call_audits_the_walks_that_read_a_word_its_stub_wrote():
    # a stub's effect is arbitrary: it may change words no claim or rule
    # names, so the audit after a call re-walks every walk that read a
    # frame the stub wrote, here a walk-map entry of the held space
    state, registry, root, _root_b, l1_a, _l1_b = _alias_fixture()

    def apply(state):
        assert state.machine.write_word(l1_a >> 12, 8, 0) is None
        return lower(sep(), state.root)

    stub = checker.StubSpec(consumes=(), apply=apply)
    pre = sep(IASpace(), PhysPt(0x6, 0x0, FULL, 0x3333))
    report = check_double(pre, root, [CallStep("wipe")],
                          stubs={"wipe": stub}, init=state,
                          registry=registry)
    assert report.violation == Violation(
        MACHINE_DISAGREE, 0, None,
        f"space:{root:#x}: walk-map entry {SIBLING_VA:#x} broken: "
        f"NotPresent(level=1, va={SIBLING_VA})")


def test_the_write_set_comes_from_the_machine_not_the_rule(monkeypatch):
    # a rule that forgets its own effect (ledger unchanged, nothing
    # touched) must still be caught: the audit re-checks the register
    # and the frames the machine wrote, whatever the rule says it did
    state, registry, root, _root_b, l1_a, _l1_b = _alias_fixture()
    entry = _word(state, l1_a + 8)
    pre = sep(IASpace(), RegPt(Reg.RAX, FULL, 0),
              RegPt(Reg.RDI, FULL, ALIAS_VA + 8),
              VirtPt(ALIAS_VA + 8, FULL, entry))
    real_rule = checker._RULES[InstrStep]

    def forgetful(state, step):
        # a refusal raises through; the change lands on a copy of the
        # claims, dropped here
        claims = state.claims
        state.claims = dict(claims)
        try:
            real_rule(state, step)
        finally:
            state.claims = claims
        return "nop"

    monkeypatch.setitem(checker._RULES, InstrStep, forgetful)
    report = check_double(pre, root, [InstrStep(MovRegImm(Reg.RAX, 7))],
                          init=state, registry=registry)
    assert report.violation == Violation(
        MACHINE_DISAGREE, 0, None, "reg:rax: ledger 0x0, machine 0x7")
    # the store also breaks SIBLING_VA's walk-map entry, which sorts later
    report = check_double(pre, root,
                          [InstrStep(MovMemFromReg(Reg.RDI, 0, Reg.RAX))],
                          init=state, registry=registry)
    assert report.violation == Violation(
        MACHINE_DISAGREE, 0, None,
        f"phys:{l1_a >> 12:#x}:0x8: ledger {entry:#x}, machine 0x0")


def test_a_ghost_steps_walk_map_change_is_audited(monkeypatch):
    # an insert rule that records a walk-map entry without naming any
    # claim for it: the entry the step changed is still re-walked
    state, registry, root, _root_b, _l1_a, _l1_b = _alias_fixture()

    def trusting(state, step):
        state.registry[state.root][step.va] = step.pa
        return "ghost-insert-walk"

    monkeypatch.setitem(checker._RULES, GhostInsertWalk, trusting)
    report = check_double(sep(IASpace()), root,
                          [GhostInsertWalk(DATA_VA + 8, 0x9008)],
                          init=state, registry=registry)
    assert report.violation == Violation(
        MACHINE_DISAGREE, 0, None,
        f"space:{root:#x}: walk-map entry {DATA_VA + 8:#x} broken: 0x5008")


def test_a_ghost_steps_walk_claim_is_audited(monkeypatch):
    # an insert rule that records the walk-map entry the machine agrees
    # with but claims another pa: no space claim is held, so only the
    # audit of the walk claim the step changed can object
    state, registry, root, _root_b, _l1_a, _l1_b = _alias_fixture()

    def misclaiming(state, step):
        state.registry[state.root][step.va] = step.pa
        state.add(WalkLoc(state.root, step.va), state.den, step.pa + 8)
        return "ghost-insert-walk"

    monkeypatch.setitem(checker._RULES, GhostInsertWalk, misclaiming)
    report = check_double(sep(), root, [GhostInsertWalk(DATA_VA + 8, 0x5008)],
                          init=state, registry=registry)
    assert report.violation == Violation(
        MACHINE_DISAGREE, 0, None,
        f"walk:{root:#x}:{DATA_VA + 8:#x}: ledger 0x5010, machine walk 0x5008")


@pytest.mark.parametrize("mode", [COEXEC, RESOURCE_ONLY])
@pytest.mark.parametrize("kind", KINDS)
def test_a_step_costs_the_same_with_unrelated_state_added(kind, mode):
    # counted, not timed: per step (calls included) the claims audited,
    # the walk-map entries copied, compared or iterated and the frame-table
    # entries copied do not grow with 10**4 claims, walk-map entries or
    # frames the script never touches; co-execution audits every claim once
    case = padded_map_case(kind, 10_000)
    base, base_steps, _counts = count_work(padded_map_case(kind, 0), mode)
    report, steps, counts = count_work(case, mode)
    assert report.ok and base.ok, (report.violation, base.violation)
    assert report.records == base.records
    assert steps == base_steps
    assert len(call_work(steps)) == 2
    if mode == COEXEC:
        assert all(work["audited"] for work in call_work(steps))
    assert counts["full_audits"] == (mode == COEXEC)
    # the once-per-check passes are counted: the copy of init's frame
    # table, the walk maps' copy and index, and the first full audit
    outside = counts - sum((work for _i, _s, work in steps), Counter())
    assert outside["frames"] == len(case.state.mem)
    if kind == "walks":
        assert outside["walk_map"] >= 10_000
    if kind == "claims" and mode == COEXEC:
        assert outside["audited"] >= 10_000


@pytest.mark.parametrize("mode", [COEXEC, RESOURCE_ONLY])
def test_a_call_copies_no_frame_the_check_already_owns(mode):
    # swtch's first store copies the save page's frame away from init; a
    # stub that then rewrites a word of it writes the check's own copy in
    # place, and the stores after it copy nothing either
    case = swtch_case()
    save = case.state.mem[0x210]

    def rewrite(state):
        machine = state.machine
        assert machine.write_word(0x210, 0, machine.read_word(0x210, 0)) \
            is None
        return lower(sep(), state.root)

    case = replace(case, script=[case.script[0], CallStep("rewrite"),
                                 *case.script[1:]],
                   stubs={**case.stubs,
                          "rewrite": checker.StubSpec((), rewrite)})
    report, steps, _counts = count_work(case, mode)
    assert report.ok, report.violation
    assert [work["copies"] for _index, _step, work in steps] == \
        [1] + [0] * (len(case.script) - 1)
    assert report.final_machine.mem[0x210] is not save
    assert case.state.mem[0x210] is save
