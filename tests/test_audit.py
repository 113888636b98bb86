"""The per-step co-execution audit against the full audit it replaces.

After the initial full audit, ``apply_rule`` re-validates only what a
step could have changed.  The full ``audit_ledger`` after every step is
the oracle: both must give byte-identical reports, passing or failing.
"""

import random
from dataclasses import replace
from fractions import Fraction

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
    mem_set,
    synth_tables,
    walk,
)
from vmcheck.assertions import (
    FULL,
    IASpace,
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
    CheckerCtx,
    COEXEC,
    GhostInsertWalk,
    GhostRemoveWalk,
    InstrStep,
    MACHINE_DISAGREE,
    Violation,
    apply_rule,
    check_double,
)
from vmcheck.cases import CASE_NAMES, case_study, map_page_case

from test_acceptance import _generate_script


def _full_audit_report(monkeypatch, *args, **kwargs):
    """check_double with the full audit after every step."""
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
    ctx = CheckerCtx(ledger=lower(pre, root, registry), root=root,
                     registry={r: dict(t) for r, t in registry.items()},
                     machine=state.copy(), mode=COEXEC, stubs={})
    script = []
    for _attempt in range(60):
        for step in _alias_candidates(rng, (root, root_b), entries):
            outcome = apply_rule(ctx, step, len(script))
            if isinstance(outcome, Violation):
                if outcome.kind == MACHINE_DISAGREE:
                    script.append(step)
                    return state, registry, root, pre, script
                break
            ctx, _record = outcome
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


def test_per_step_audit_matches_full_audit_on_the_cases(monkeypatch):
    cases = [case_study(name) for name in CASE_NAMES]
    for case in cases + [map_page_case(8)]:
        for script in (case.script, case.script[:2] + case.script[3:]):
            _assert_same_reports(monkeypatch, case.pre, case.root, script,
                                 stubs=case.stubs, init=case.state,
                                 registry=case.registry,
                                 free_list=case.free_list)


def test_call_steps_get_the_full_audit():
    # a stub's effect is arbitrary: it may change words no claim or rule
    # names, so the step after a call is audited in full
    state, registry, root, _root_b, l1_a, _l1_b = _alias_fixture()

    def apply(env):
        machine = env.machine.copy()
        assert machine.write_word(l1_a >> 12, 8, 0) is None
        return checker.StubResult(produces=sep(), machine=machine,
                                  free_cursor=env.free_cursor)

    stub = checker.StubSpec(name="wipe", consumes=(), apply=apply)
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
    real_rule = checker._apply_instr

    def forgetful(ctx, instr):
        real_rule(ctx, instr)  # a refusal raises through
        return ctx, "nop", ()

    monkeypatch.setattr(checker, "_apply_instr", forgetful)
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

    def trusting(ctx, step):
        theta = {**ctx.registry[ctx.root], step.va: step.pa}
        return (replace(ctx, registry={**ctx.registry, ctx.root: theta}),
                "ghost-insert-walk", ())

    monkeypatch.setattr(checker, "_apply_ghost_insert", trusting)
    report = check_double(sep(IASpace()), root,
                          [GhostInsertWalk(DATA_VA + 8, 0x9008)],
                          init=state, registry=registry)
    assert report.violation == Violation(
        MACHINE_DISAGREE, 0, None,
        f"space:{root:#x}: walk-map entry {DATA_VA + 8:#x} broken: 0x5008")
