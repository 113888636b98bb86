import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from vmcheck.machine import (
    AddRegImm,
    BadRegister,
    DATA_REGS,
    FrameUnmapped,
    MachineState,
    Misaligned,
    MovMemFromCr3,
    MovMemFromReg,
    MovRegFromCr3,
    MovRegFromMem,
    MovRegImm,
    MovRegReg,
    MovToCr3FromMem,
    MovToCr3FromReg,
    NonCanonical,
    NotPresent,
    PTE_ACCESSED,
    PTE_PRESENT,
    PTE_WRITABLE,
    ReadOnly,
    Reg,
    Skip,
    StepOpts,
    encode_pte,
    is_canonical,
    mem_set,
    pte_frame,
    put_frame,
    run,
    split_va,
    step,
    synth_tables,
    translate,
    walk,
)
from vmcheck.config import StateConfig

import oracle


def adapt(result):
    """Map a translate() result onto the oracle's outcome tuples."""
    if isinstance(result, int):
        return ("ok", result)
    if isinstance(result, NotPresent):
        return ("not-present", result.level)
    if isinstance(result, FrameUnmapped):
        return ("frame-unmapped", result.phys)
    if isinstance(result, NonCanonical):
        return ("non-canonical", result.va)
    raise AssertionError(f"unexpected result {result!r}")


# --------------------------------------------------------------------------
# split_va


def test_split_va_zero():
    assert split_va(0) == (0, 0, 0, 0, 0)


def test_split_va_pure_offset():
    assert split_va(0xFFF) == (0, 0, 0, 0, 0xFFF)


def test_split_va_distinct_fields():
    va = (1 << 39) | (2 << 30) | (3 << 21) | (4 << 12) | 5
    assert split_va(va) == (1, 2, 3, 4, 5)


def test_split_va_ignores_high_bits():
    va = (1 << 39) | (7 << 30) | (3 << 21) | (4 << 12) | 5
    assert split_va(va | (0xFFFF << 48)) == split_va(va)


# a low-half and a high-half page, mapped; vas drawn from all 64 bits,
# from each canonical half, and as aliases of the mapped pages' words
_HIGH_PAGE = (1 << 64) - (1 << 47) + 0x20_0000
_ANY_VA = st.one_of(
    st.integers(0, (1 << 64) - 1),
    st.integers(0, (1 << 47) - 1),
    st.integers((1 << 64) - (1 << 47), (1 << 64) - 1),
    st.builds(lambda high, low: (high << 47) | low,
              st.integers(0, (1 << 17) - 1),
              st.sampled_from([0x20_0000, 0x20_0ff8, 0x20_0000 + 8 * 7])))


@settings(max_examples=500, deadline=None)
@given(_ANY_VA)
@example((1 << 47) - 8)
@example(1 << 47)
@example((1 << 64) - (1 << 47))
@example((1 << 64) - (1 << 47) - 8)
@example(0xFFFF_0000_0020_0000)
def test_translate_faults_exactly_on_the_oracles_non_canonical_vas(va):
    mem, root = synth_tables([(0x20_0000, 0x5000, True),
                              (_HIGH_PAGE, 0x6000, True)], alloc_base=0x100)
    got = translate(root, mem, va)
    assert adapt(got) == oracle.naive_walk(root, mem, va)
    assert isinstance(got, NonCanonical) == (not oracle.canonical(va))
    assert is_canonical(va) == oracle.canonical(va)
    steps, result = walk(root, mem, va)
    assert result == got and (steps == ()) == isinstance(got, NonCanonical)


@given(st.integers(0, (1 << 64) - 1))
def test_split_va_matches_field_oracle(va):
    fields = oracle.va_fields(va)
    assert split_va(va) == (fields["i4"], fields["i3"], fields["i2"],
                            fields["i1"], fields["off"])


# --------------------------------------------------------------------------
# PTE decode/encode: raw ints read through pte_frame and the PTE_* bits


def decode(entry):
    return (bool(entry & PTE_PRESENT), bool(entry & PTE_WRITABLE),
            bool(entry & PTE_ACCESSED), pte_frame(entry))


def test_decode_all_zero():
    assert decode(0) == (False, False, False, 0)


def test_decode_fpaddr_plus_3():
    fpaddr = 0x201000
    assert decode(fpaddr + 3) == (True, True, False, fpaddr >> 12)


def test_decode_accessed_entry():
    raw = 0x1000 | (1 << 5) | 1
    assert decode(raw) == (True, False, True, 1)
    ref = oracle.entry_fields(raw)
    assert decode(raw) == (ref["present"], ref["writable"], ref["accessed"],
                           ref["frame"])


@given(st.integers(0, (1 << 40) - 1), st.booleans(), st.booleans(), st.booleans())
def test_pte_roundtrip(frame, present, writable, accessed):
    raw = encode_pte(frame, present=present, writable=writable,
                     accessed=accessed)
    assert decode(raw) == (present, writable, accessed, frame)


def test_encode_rejects_a_frame_wider_than_40_bits():
    encode_pte((1 << 40) - 1)
    with pytest.raises(ValueError):
        encode_pte(1 << 40)


@given(st.integers(0, (1 << 64) - 1))
def test_decode_matches_oracle(raw):
    ref = oracle.entry_fields(raw)
    assert decode(raw) == (ref["present"], ref["writable"], ref["accessed"],
                           ref["frame"])


# --------------------------------------------------------------------------
# translate


def identity_fixture():
    mem, root = synth_tables([(0x20_0000, 0x5000, True)], alloc_base=0x100)
    return mem, root


def test_translate_single_mapping():
    mem, root = identity_fixture()
    result = translate(root, mem, 0x20_0000)
    assert result == 0x5000
    assert adapt(result) == oracle.naive_walk(root, mem, 0x20_0000)


def test_translate_unpopulated_root_index():
    mem, root = identity_fixture()
    result = translate(root, mem, 1 << 39)
    assert result == NotPresent(4, 1 << 39)


def test_translate_offset_passthrough():
    mem, root = identity_fixture()
    for off in (0, 8, 0x10, 0xFF8):
        assert translate(root, mem, 0x20_0000 | off) == 0x5000 | off


def test_translate_requires_aligned_root():
    mem, _root = identity_fixture()
    with pytest.raises(ValueError):
        translate(0x1001, mem, 0)


def test_translate_reports_missing_level():
    # Build tables missing exactly level k and check the reported level.
    for k in (4, 3, 2, 1):
        mem, root = identity_fixture()
        steps, pa = walk(root, mem, 0x20_0000)
        assert pa == 0x5000
        slot, _entry = steps[4 - k]
        mem[slot >> 12][slot & 0xFFF] &= ~1  # clear the present bit
        result = translate(root, mem, 0x20_0000)
        assert result == NotPresent(k, 0x20_0000)


def test_translate_success_implies_all_present():
    mem, root = identity_fixture()
    steps, pa = walk(root, mem, 0x20_0000)
    assert pa == 0x5000
    assert len(steps) == 4
    assert all(entry & PTE_PRESENT for _slot, entry in steps)


def test_translate_oracle_equivalence_small():
    rng = random.Random(7)
    for _ in range(50):
        root, mem, vas = oracle.random_table_config(rng)
        for va in vas:
            assert adapt(translate(root, mem, va)) == oracle.naive_walk(root, mem, va)


def test_translate_pure_without_accessed_flag():
    mem, root = identity_fixture()
    snapshot = {f: dict(w) for f, w in mem.items()}
    translate(root, mem, 0x20_0000, set_accessed=False)
    assert mem == snapshot


def test_translate_sets_accessed_bits():
    mem, root = identity_fixture()
    steps, _pa = walk(root, mem, 0x20_0000)
    translate(root, mem, 0x20_0000, set_accessed=True)
    for slot, _entry in steps:
        assert mem[slot >> 12][slot & 0xFFF] & PTE_ACCESSED


# --------------------------------------------------------------------------
# the walk memo


@pytest.mark.parametrize("build", [
    lambda mem: MachineState(mem=mem),
    lambda mem: StateConfig(memory=mem).to_machine_state(),
], ids=["MachineState", "StateConfig"])
def test_a_memory_a_caller_built_is_walked_unmemoized(build):
    # a caller may write its own memory's word maps by hand: the next walk
    # reads them, since only a copy remembers its walks
    mem, root = identity_fixture()
    state = build(mem)
    steps, pa = walk(root, state.mem, 0x20_0000)
    assert pa == 0x5000 and state.mem.walks is None
    slot, entry = steps[3]
    state.mem[slot >> 12][slot & 0xFFF] = encode_pte(0x6, writable=True)
    assert walk(root, state.mem, 0x20_0008) == (
        (*steps[:3], (slot, encode_pte(0x6, writable=True))), 0x6008)


def test_a_copy_remembers_a_page_walk_until_a_write_or_an_undo():
    mem, root = identity_fixture()
    copy = MachineState(mem=mem).copy().mem
    steps, _pa = walk(root, copy, 0x20_0000)
    frame, off = steps[3][0] >> 12, steps[3][0] & 0xFFF

    def remembered():
        # a second word of the page reads the first word's walk
        got = walk(root, copy, 0x20_0000)
        assert walk(root, copy, 0x20_0ff8) == (got[0], got[1] + 0xff8)
        return bool(copy.walks)

    assert remembered()
    mem_set(copy, frame, off, encode_pte(0x6, writable=True))
    assert not copy.walks
    assert walk(root, copy, 0x20_0010)[1] == 0x6010
    assert remembered()
    put_frame(copy, frame, {**copy[frame], off: encode_pte(0x7)})
    assert not copy.walks
    assert walk(root, copy, 0x20_0010)[1] == 0x7010
    copy.journal = []
    mem_set(copy, frame, off, encode_pte(0x8))
    journal, copy.journal = copy.journal, None
    assert remembered()
    copy.undo(journal)
    assert not copy.walks
    assert walk(root, copy, 0x20_0010)[1] == 0x7010


# --------------------------------------------------------------------------
# synth_tables


def test_synth_tables_empty():
    mem, root = synth_tables([], alloc_base=0x100)
    assert set(mem) == {0x100}
    assert root == 0x100 << 12
    assert all(v == 0 for v in mem[0x100].values())


def test_synth_tables_one_mapping_allocates_four_frames():
    mem, root = synth_tables([(0x20_0000, 0x5000, True)], alloc_base=0x100)
    touched = oracle.frames_reachable(root, mem, [0x20_0000])
    assert len(touched) == 4
    assert set(mem) == touched


def test_synth_tables_shared_prefix_shares_tables():
    # Two pages differing only in the L1 index share all interior tables.
    mem, root = synth_tables(
        [(0x20_0000, 0x5000, True), (0x20_1000, 0x6000, True)], alloc_base=0x100)
    touched = oracle.frames_reachable(root, mem, [0x20_0000, 0x20_1000])
    assert len(touched) == 4
    assert set(mem) == touched
    assert adapt(translate(root, mem, 0x20_1000)) == ("ok", 0x6000)


def test_synth_tables_rejects_conflicts():
    with pytest.raises(ValueError):
        synth_tables([(0x20_0000, 0x5000, True), (0x20_0008, 0x6000, True)],
                     alloc_base=0x100)
    # identical duplicates are fine
    synth_tables([(0x20_0000, 0x5000, True), (0x20_0000, 0x5000, True)],
                 alloc_base=0x100)


def test_synth_tables_readonly_mapping():
    mem, root = synth_tables([(0x20_0000, 0x5000, False)], alloc_base=0x100)
    steps, pa = walk(root, mem, 0x20_0000)
    assert pa == 0x5000
    assert not steps[-1][1] & PTE_WRITABLE


# --------------------------------------------------------------------------
# step / run


def fresh_state():
    mem, root = synth_tables([(0x20_0000, 0x5000, True)], alloc_base=0x100)
    mem_set(mem, 0x5, 0x0, 0)
    mem_set(mem, 0x5, 0x8, 0)
    state = MachineState(regs={Reg.CR3: root, Reg.RDI: 0x20_0000}, mem=mem)
    return state


def test_step_mov_imm():
    state = step(MachineState(), MovRegImm(Reg.RAX, 7))
    assert state.reg(Reg.RAX) == 7
    assert state.pc == 1


def test_step_add_imm_wraps():
    s0 = MachineState(regs={Reg.RAX: (1 << 64) - 1})
    s1 = step(s0, AddRegImm(Reg.RAX, 1))
    assert s1.reg(Reg.RAX) == 0


def test_step_store_via_identity_mapping():
    state = fresh_state()
    state.regs[Reg.RSP] = 0xCAFE
    nxt = step(state, MovMemFromReg(Reg.RDI, 8, Reg.RSP))
    pa = translate(state.reg(Reg.CR3), state.mem, 0x20_0008)
    assert nxt.mem[pa >> 12][pa & 0xFFF] == 0xCAFE
    # untouched input state
    assert state.mem[0x5][0x8] == 0


def test_step_load_unmapped_reports_level():
    state = fresh_state()
    state.regs[Reg.RSI] = 1 << 39  # nothing mapped under this index
    fault = step(state, MovRegFromMem(Reg.RAX, Reg.RSI, 0))
    assert fault == NotPresent(4, 1 << 39)


def test_step_misaligned_va():
    state = fresh_state()
    state.regs[Reg.RSI] = 0x20_0004
    # displacement must keep alignment, so misalignment comes from the base
    assert isinstance(step(state, MovRegFromMem(Reg.RAX, Reg.RSI, 0)), Misaligned)


def test_step_readonly_write_faults():
    mem, root = synth_tables([(0x20_0000, 0x5000, False)], alloc_base=0x100)
    mem_set(mem, 0x5, 0x0, 0)
    state = MachineState(regs={Reg.CR3: root, Reg.RDI: 0x20_0000}, mem=mem)
    fault = step(state, MovMemFromReg(Reg.RDI, 0, Reg.RAX))
    assert fault == ReadOnly(1, 0x20_0000)
    # reads are allowed through a read-only mapping
    assert isinstance(step(state, MovRegFromMem(Reg.RAX, Reg.RDI, 0)), MachineState)
    # and writes succeed with enforcement off
    relaxed = step(state, MovMemFromReg(Reg.RDI, 0, Reg.RAX),
                   StepOpts(enforce_rw=False))
    assert isinstance(relaxed, MachineState)


def test_step_rejects_cr3_in_data_slot():
    assert step(MachineState(), MovRegReg(Reg.CR3, Reg.RAX)) == BadRegister(Reg.CR3)
    assert step(MachineState(), MovRegImm(Reg.RAX, 1)).reg(Reg.RAX) == 1


REGISTER_FORMS = [
    (MovRegReg(Reg.RAX, Reg.RBX), {Reg.RAX: 7}),
    (MovRegImm(Reg.RAX, 9), {Reg.RAX: 9}),
    (AddRegImm(Reg.RAX, 9), {Reg.RAX: 14}),
    (MovToCr3FromReg(Reg.RBX), {Reg.CR3: 7}),
    (MovRegFromCr3(Reg.RBX), {Reg.RBX: 0x1000}),
]


@pytest.mark.parametrize("instr, changed", REGISTER_FORMS,
                         ids=[type(i).__name__ for i, _ in REGISTER_FORMS])
def test_step_register_forms(instr, changed):
    regs = {Reg.RAX: 5, Reg.RBX: 7, Reg.CR3: 0x1000}
    state = MachineState(regs=dict(regs))
    nxt = step(state, instr)
    assert nxt.regs == {**regs, **changed}
    assert nxt.pc == 1
    assert state.regs == regs


@pytest.mark.parametrize("instr", [
    MovRegReg(Reg.CR3, Reg.RAX),
    MovRegReg(Reg.RAX, Reg.CR3),
    MovRegReg(Reg.CR3, Reg.CR3),
    MovRegImm(Reg.CR3, 9),
    AddRegImm(Reg.CR3, 9),
    MovToCr3FromReg(Reg.CR3),
    MovRegFromCr3(Reg.CR3),
])
def test_step_register_forms_refuse_cr3_in_a_data_operand(instr):
    state = MachineState(regs={Reg.RAX: 5, Reg.CR3: 0x1000})
    assert step(state, instr) == BadRegister(Reg.CR3)


def mem_diff(before, after):
    diffs = []
    for frame in set(before.mem) | set(after.mem):
        for off in set(before.mem.get(frame, {})) | set(after.mem.get(frame, {})):
            if before.mem.get(frame, {}).get(off) != \
                    after.mem.get(frame, {}).get(off):
                diffs.append((frame, off))
    return sorted(diffs)


def test_step_touches_one_word():
    state = fresh_state()
    state.regs[Reg.RSP] = 1
    nxt = step(state, MovMemFromReg(Reg.RDI, 8, Reg.RSP),
               StepOpts(set_accessed=False))
    assert mem_diff(state, nxt) == [(0x5, 0x8)]


def test_step_with_accessed_touches_word_and_entry_bits():
    state = fresh_state()
    state.regs[Reg.RSP] = 1
    nxt = step(state, MovMemFromReg(Reg.RDI, 8, Reg.RSP),
               StepOpts(set_accessed=True))
    steps, _pa = walk(state.reg(Reg.CR3), state.mem, 0x20_0008)
    slots = {(slot >> 12, slot & 0xFFF) for slot, _entry in steps}
    extra = [d for d in mem_diff(state, nxt) if d != (0x5, 0x8)]
    assert set(extra) <= slots
    for frame, off in extra:
        before = state.mem[frame][off]
        after = nxt.mem[frame][off]
        assert not before & PTE_ACCESSED
        assert after == before | PTE_ACCESSED


def test_cr3_moves():
    state = fresh_state()
    state.regs[Reg.RBX] = 0x9000
    s1 = step(state, MovToCr3FromReg(Reg.RBX))
    assert s1.reg(Reg.CR3) == 0x9000
    s2 = step(s1, MovRegFromCr3(Reg.RAX))
    assert s2.reg(Reg.RAX) == 0x9000


def test_cr3_memory_roundtrip():
    state = fresh_state()
    old_root = state.reg(Reg.CR3)
    s1 = step(state, MovMemFromCr3(Reg.RDI, 8))
    assert isinstance(s1, MachineState)
    s2 = step(s1, MovToCr3FromMem(Reg.RDI, 8))
    assert isinstance(s2, MachineState)
    assert s2.reg(Reg.CR3) == old_root


def test_run_empty_program():
    state = MachineState(regs={Reg.RAX: 3})
    out = run(state, [])
    assert isinstance(out, MachineState)
    assert out.reg(Reg.RAX) == 3


def test_run_sequencing():
    out = run(MachineState(), [MovRegImm(Reg.RAX, 1), MovRegReg(Reg.RBX, Reg.RAX)])
    assert isinstance(out, MachineState)
    assert out.reg(Reg.RBX) == 1
    assert out.pc == 2


def test_run_reports_faulting_pc():
    prog = [MovRegImm(Reg.RAX, 1), MovRegFromMem(Reg.RBX, Reg.RSI, 0), Skip()]
    state = fresh_state()
    state.regs[Reg.RSI] = 1 << 40
    out = run(state, prog)
    assert out[0] == 1
    assert isinstance(out[1], NotPresent)


def test_instruction_displacement_validation():
    with pytest.raises(ValueError):
        MovRegFromMem(Reg.RAX, Reg.RDI, 4)
    with pytest.raises(ValueError):
        MovRegFromMem(Reg.RAX, Reg.RDI, 4096)
    MovRegFromMem(Reg.RAX, Reg.RDI, -8)


# --------------------------------------------------------------------------
# The memory forms against the reference stepper


_MEM_FORM_CLASSES = {cls.__name__: cls for cls in
                     (MovRegFromMem, MovToCr3FromMem, MovMemFromReg,
                      MovMemFromCr3)}


def _mem_form_state(cr3):
    """Writable data at 0x20_0000 (frame 5, two words), read-only data at
    0x20_1000 (frame 6, one word, so +8 is unmapped) and the root table
    itself at 0x20_3000, so accesses can land on table entries."""
    mem, root = synth_tables([(0x20_0000, 0x5000, True),
                              (0x20_1000, 0x6000, False),
                              (0x20_3000, 0x10_0000, True)], alloc_base=0x100)
    assert root == 0x10_0000
    mem_set(mem, 0x5, 0x0, 0x1111)
    mem_set(mem, 0x5, 0x8, 0x2222)
    mem_set(mem, 0x6, 0x0, 0x3333)
    regs = {Reg.CR3: root if cr3 is None else cr3}
    return MachineState(regs=regs, mem=mem, pc=3)


def _adapt_step(result):
    """Map a step() result onto naive_step's outcome tuples."""
    if isinstance(result, BadRegister):
        return ("bad-register", result.reg.value)
    if isinstance(result, Misaligned):
        return ("misaligned", result.addr)
    if isinstance(result, (NotPresent, ReadOnly)):
        kind = "not-present" if isinstance(result, NotPresent) else "read-only"
        return (kind, result.level)
    if isinstance(result, FrameUnmapped):
        return ("frame-unmapped", result.phys)
    if isinstance(result, NonCanonical):
        return ("non-canonical", result.va)
    assert isinstance(result, MachineState), result
    assert result.pc == 4
    return ("ok", {r.value: result.reg(r) for r in Reg}, result.mem)


@settings(max_examples=300, deadline=None)
@given(form=st.sampled_from(sorted(_MEM_FORM_CLASSES)),
       dst=st.sampled_from(list(Reg)), src=st.sampled_from(list(Reg)),
       base=st.sampled_from(list(Reg)),
       base_va=st.sampled_from([0x20_0000, 0x20_1000, 0x20_3000, 0x20_0004,
                                0x20_2000, 1 << 39, (1 << 64) - 8]),
       disp=st.sampled_from([0, 8, -8, 0xFF8]),
       cr3=st.sampled_from([None] * 4 + [0x10_0008, 0x9000]),
       src_value=st.integers(0, (1 << 64) - 1),
       enforce_rw=st.booleans(), set_accessed=st.booleans())
@example(form="MovMemFromReg", dst=Reg.RAX, src=Reg.RAX, base=Reg.RDI,
         base_va=0x20_1000, disp=0, cr3=None, src_value=7, enforce_rw=True,
         set_accessed=True)
@example(form="MovMemFromCr3", dst=Reg.RAX, src=Reg.RAX, base=Reg.RDI,
         base_va=0x20_1000, disp=0, cr3=None, src_value=7, enforce_rw=False,
         set_accessed=False)
@example(form="MovRegFromMem", dst=Reg.RAX, src=Reg.RAX, base=Reg.RDI,
         base_va=0x20_3000, disp=0, cr3=None, src_value=7, enforce_rw=True,
         set_accessed=True)  # loads the L4 entry its own walk just marked
def test_step_memory_forms_match_reference(form, dst, src, base, base_va,
                                           disp, cr3, src_value, enforce_rw,
                                           set_accessed):
    cls = _MEM_FORM_CLASSES[form]
    ops = {"dst": dst, "src": src, "base": base, "disp": disp}
    ops = {k: v for k, v in ops.items() if k in cls._fields}
    state = _mem_form_state(cr3)
    state.regs[src] = src_value
    state.regs[base] = base_va
    before = state.copy()

    result = step(state, cls(**ops), StepOpts(enforce_rw=enforce_rw,
                                              set_accessed=set_accessed))

    expected = oracle.naive_step(
        {r.value: state.reg(r) for r in Reg}, before.mem, form,
        {k: v if k == "disp" else v.value for k, v in ops.items()},
        enforce_rw=enforce_rw, set_accessed=set_accessed)
    assert _adapt_step(result) == expected
    # step never mutates its input
    assert state.regs == before.regs and state.mem == before.mem
    assert state.pc == before.pc


# --------------------------------------------------------------------------
# Copy-on-write memory


def _snapshot(state):
    return (dict(state.regs), {f: dict(w) for f, w in state.mem.items()},
            state.pc)


_ANY_FORM = st.one_of(
    st.builds(MovRegFromMem, st.sampled_from(DATA_REGS),
              st.just(Reg.RDI), st.sampled_from([0, 8])),
    st.builds(MovMemFromReg, st.just(Reg.RDI), st.sampled_from([0, 8]),
              st.sampled_from(DATA_REGS)),
    st.builds(MovMemFromCr3, st.just(Reg.RDI), st.sampled_from([0, 8])),
    st.builds(MovRegImm, st.sampled_from(DATA_REGS),
              st.sampled_from([0, 0x20_0000, 0x20_1000, 0x20_3000])),
    st.builds(AddRegImm, st.just(Reg.RDI), st.sampled_from([8, 0x1000])),
    st.builds(MovToCr3FromMem, st.just(Reg.RDI), st.just(0)),
)


@settings(max_examples=200, deadline=None)
@given(program=st.lists(_ANY_FORM, min_size=1, max_size=4),
       base_va=st.sampled_from([0x20_0000, 0x20_1000, 0x20_3000]),
       value=st.sampled_from([0, 0x9999, 0x10_0023]),
       enforce_rw=st.booleans(), set_accessed=st.booleans())
@example(program=[MovMemFromReg(Reg.RDI, 0, Reg.RAX)], base_va=0x20_3000,
         value=0, enforce_rw=True, set_accessed=True)  # stores into the root
def test_step_and_run_leave_input_and_sibling_unchanged(
        program, base_va, value, enforce_rw, set_accessed):
    opts = StepOpts(enforce_rw=enforce_rw, set_accessed=set_accessed)
    origin = _mem_form_state(None)
    origin.pc = 0
    origin.regs[Reg.RDI] = base_va
    origin.regs[Reg.RAX] = value
    state = origin.copy()
    sibling = state.copy()
    snap = _snapshot(state)

    nxt = step(state, program[0], opts)
    outcome = run(state, program, opts)

    for other in (state, sibling, origin):
        assert _snapshot(other) == snap
    if isinstance(nxt, MachineState):
        # the frames step replaced are exactly its write set: every frame
        # it did not write is still shared with the input
        for frame, words in nxt.mem.items():
            assert (words is state.mem[frame]) == (frame not in nxt.mem.owned)
            if words != state.mem[frame]:
                assert frame in nxt.mem.owned
    if isinstance(outcome, MachineState):
        assert outcome.pc == len(program)


@settings(max_examples=30, deadline=None)
@given(words=st.sampled_from([1, 3]), rax=st.integers(0, (1 << 64) - 1),
       alloc_first=st.booleans())
def test_library_stubs_leave_input_and_sibling_unchanged(words, rax,
                                                         alloc_first):
    from vmcheck.assertions import FULL, RegPt, lower
    from vmcheck.cases import MAP_FPADDR, map_page_case
    from vmcheck.checker import (RESOURCE_ONLY, CallStep, CheckState,
                                 StepRecord, apply_rule)

    case = map_page_case(words)
    state = case.state.copy()
    state.regs[Reg.RAX] = rax
    sibling = state.copy()
    snap = _snapshot(state)
    names = ["ensure_L1_page", "alloc_phys_page_or_panic"]
    for name in names[::-1] if alloc_first else names:
        # each call's stub writes the check's own copy of `state` in
        # place, copying a frame before its first write
        machine = state.copy()
        check = CheckState(lower(RegPt(Reg.RAX, FULL, rax), case.root),
                           case.registry, machine, RESOURCE_ONLY, case.stubs,
                           case.free_list)
        record = apply_rule(check, CallStep(name), 0)
        assert isinstance(record, StepRecord), record
        assert check.machine is machine
        assert _snapshot(state) == snap
        assert _snapshot(sibling) == snap
        if name == "alloc_phys_page_or_panic":
            # it zeroed its page through the copy-before-write path
            assert check.machine.mem.owned == {MAP_FPADDR >> 12}
            assert check.machine.reg(Reg.RAX) == MAP_FPADDR + 3
            assert check.free_cursor == 1


def test_walk_with_accessed_bits_copies_a_shared_frame():
    state = _mem_form_state(None)
    sibling = state.copy()
    snap = _snapshot(sibling)
    steps, _pa = walk(state.reg(Reg.CR3), state.mem, 0x20_0000)
    assert translate(state.reg(Reg.CR3), state.mem, 0x20_0000,
                     set_accessed=True) == 0x5000
    assert not any(entry & PTE_ACCESSED for _slot, entry in steps)
    assert all(state.mem[slot >> 12][slot & 0xFFF] & PTE_ACCESSED
               for slot, _entry in steps)
    assert _snapshot(sibling) == snap
    mem_set(state.mem, 0x5, 0x0, 0xAB)
    assert state.write_word(0x5, 0x8, 0xCD) is None
    assert _snapshot(sibling) == snap
