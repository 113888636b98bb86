import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vmcheck.machine import (
    DATA_REGS,
    AddRegImm,
    Instr,
    MovMemFromCr3,
    MovMemFromReg,
    MovRegFromCr3,
    MovRegFromMem,
    MovRegImm,
    MovRegReg,
    MovToCr3FromMem,
    MovToCr3FromReg,
    Reg,
    Skip,
)
from vmcheck.assertions import (
    Emp,
    FULL,
    IASpace,
    OtherSpace,
    PhysPt,
    PredAligned,
    PredEq,
    PredUnmapped,
    PtePt,
    Pure,
    RegPt,
    VirtPt,
    sep,
)
from vmcheck.checker import (
    AssertStep,
    CallStep,
    GhostInsertWalk,
    GhostPteToVirt,
    GhostRemoveWalk,
    GhostStep,
    GhostVirtToPte,
)
from vmcheck.parsing import (
    _FORMS,
    _GHOST_FORMS,
    MAX_NESTING,
    ParseError,
    _tokenize,
    parse_assertion,
    parse_program,
    print_assertion,
    print_program,
)

import oracle
from gen import leaf_pool, multi_space_fixture, random_assertion
from oracle import normalize


# --------------------------------------------------------------------------
# programs


def test_parse_basic_movs():
    text = """
    ; a comment line
    mov rax, rbx
    mov rax, 0x10
    add rax, 8
    mov rax, [rdi+8]
    mov [rdi-8], rax   ; trailing comment
    mov rdx, [rsp]
    skip
    """
    assert parse_program(text) == [
        MovRegReg(Reg.RAX, Reg.RBX),
        MovRegImm(Reg.RAX, 0x10),
        AddRegImm(Reg.RAX, 8),
        MovRegFromMem(Reg.RAX, Reg.RDI, 8),
        MovMemFromReg(Reg.RDI, -8, Reg.RAX),
        MovRegFromMem(Reg.RDX, Reg.RSP, 0),
        Skip(),
    ]


def test_parse_cr3_forms():
    text = """
    mov cr3, rsi
    mov rax, cr3
    mov [rdi+56], cr3
    mov cr3, [rsi+56]
    """
    assert parse_program(text) == [
        MovToCr3FromReg(Reg.RSI),
        MovRegFromCr3(Reg.RAX),
        MovMemFromCr3(Reg.RDI, 56),
        MovToCr3FromMem(Reg.RSI, 56),
    ]


def test_parse_rejects_cr3_base():
    with pytest.raises(ParseError):
        parse_program("mov rax, [cr3]")


def test_parse_rejects_unknown_mnemonic():
    with pytest.raises(ParseError) as info:
        parse_program("bogus rax, rbx")
    assert info.value.line == 1
    assert "mov" in info.value.expected


def test_parse_rejects_bad_displacement():
    with pytest.raises(ParseError):
        parse_program("mov rax, [rdi+4]")


def test_parse_ghost_and_call_and_assert():
    text = """
    call ensure_L1_page
    @ghost insert_walk va=0x400000 pa=0x200000
    @ghost remove_walk va=0x400000
    @ghost pte_to_virt va=0x400000
    @ghost virt_to_pte va=0x400000 pa=0x200000
    @assert { rax |->r 0x7 * emp }
    """
    script = parse_program(text)
    assert script == [
        CallStep("ensure_L1_page"),
        GhostInsertWalk(0x400000, 0x200000),
        GhostRemoveWalk(0x400000),
        GhostPteToVirt(0x400000),
        GhostVirtToPte(0x400000, 0x200000),
        AssertStep(RegPt(Reg.RAX, FULL, 7)),
    ]


def test_parse_ghost_missing_arg():
    with pytest.raises(ParseError):
        parse_program("@ghost insert_walk va=0x400000")


def test_program_roundtrip():
    text = """
    mov rax, rbx
    mov r14, [rdi+16]
    mov [rsi-48], r15
    mov cr3, [rsi+56]
    add rbx, 0x20
    call alloc_phys_page_or_panic
    @ghost insert_walk va=0x400000 pa=0x200000
    @assert { iaspace * 0x400000 |->v {1/2} 0x0 }
    skip
    """
    script = parse_program(text)
    printed = print_program(script)
    assert parse_program(printed) == script
    # printing is a fixed point
    assert print_program(parse_program(printed)) == printed


@pytest.mark.parametrize("line, message", [
    ("add rax, rbx", "add takes a data register and an immediate"),
    ("add cr3, 8", "add takes a data register and an immediate"),
    ("add [rdi], 8", "add takes a data register and an immediate"),
    ("mov cr3, 0x1000", "cr3 cannot be loaded from an immediate"),
    ("mov [rdi], 8", "memory stores take a register source"),
    ("mov [rdi], [rsi]", "memory stores take a register source"),
    ("mov 8, rax", "an immediate cannot be a destination"),
])
def test_parse_refuses_operand_kinds_that_match_no_form(line, message):
    with pytest.raises(ParseError) as info:
        parse_program(line)
    assert str(info.value) == f"line 1, column 1: {message}"


def test_parse_reads_cr3_from_cr3_as_a_cr3_load():
    # machine.step faults on it, as on any cr3 in a data operand
    assert parse_program("mov cr3, cr3") == [MovToCr3FromReg(Reg.CR3)]


@pytest.mark.parametrize("line", [
    "@ghost insert_walk va=0x400003 pa=0x200000",
    "@ghost insert_walk va=0x400000 pa=0x200003",
    "@ghost remove_walk va=0x4",
    "@ghost pte_to_virt va=12",
    "@ghost virt_to_pte va=0x400000 pa=0x7",
])
def test_parse_refuses_ghost_addresses_that_are_not_word_addresses(line):
    with pytest.raises(ParseError) as info:
        parse_program("skip\n" + line)
    assert (info.value.line, info.value.col) == (2, 1)
    assert "is not word aligned" in str(info.value)


def test_every_form_has_exactly_one_spelling_row():
    instr_forms = set(Instr.__subclasses__()) - {Skip}
    assert Counter(form for form, _ in _FORMS.values()) == \
        Counter(instr_forms)
    assert Counter(form for form, _ in _GHOST_FORMS.values()) == \
        Counter(GhostStep.__subclasses__())
    # and each row names every field of its form once
    for form, fields in [*_FORMS.values(), *_GHOST_FORMS.values()]:
        assert sorted(f for f in fields if f) == \
            sorted(form._fields)


_WORD_ADDR = st.integers(0, (1 << 61) - 1).map(lambda k: 8 * k)
_FIELD_VALUES = {
    "dst": st.sampled_from(DATA_REGS),
    "src": st.sampled_from(DATA_REGS),
    "base": st.sampled_from(DATA_REGS),
    "disp": st.integers(-511, 511).map(lambda k: 8 * k),
    "imm": st.integers(0, (1 << 64) - 1),
    "va": _WORD_ADDR,
    "pa": _WORD_ADDR,
}


@pytest.mark.parametrize("row", [*_FORMS.values(), *_GHOST_FORMS.values()],
                         ids=lambda row: row[0].__name__)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_every_spelling_row_roundtrips(row, data):
    form, fields = row
    built = data.draw(st.builds(form, **{f: _FIELD_VALUES[f]
                                         for f in fields if f}))
    printed = print_program([built])
    assert parse_program(printed) == [built]
    # printing is a fixed point
    assert print_program(parse_program(printed)) == printed


# --------------------------------------------------------------------------
# assertions


def test_parse_assertion_leaves():
    assert parse_assertion("emp") == Emp()
    assert parse_assertion("iaspace") == IASpace()
    assert parse_assertion("rax |->r 0x7") == RegPt(Reg.RAX, FULL, 7)
    assert parse_assertion("rax |->r {1/2} 7") == \
        RegPt(Reg.RAX, Fraction(1, 2), 7)
    assert parse_assertion("phys 0x5:0x8 |->a 0x2222") == \
        PhysPt(0x5, 0x8, FULL, 0x2222)
    assert parse_assertion("0x200000 |->v {1/512} 0x0") == \
        VirtPt(0x200000, Fraction(1, 512), 0)
    assert parse_assertion("0x800000 |->vpte 0x103000 0x0") == \
        PtePt(0x800000, FULL, 0x103000, 0)
    assert parse_assertion("[0x140000](0x200000 |->v 0x1)") == \
        OtherSpace(0x140000, VirtPt(0x200000, FULL, 1))
    assert parse_assertion("pure(aligned 0x400000)") == \
        Pure(PredAligned(0x400000))
    assert parse_assertion("pure(unmapped 0x400000)") == \
        Pure(PredUnmapped(0x400000))
    assert parse_assertion("pure(0x4 == 0x4)") == Pure(PredEq(4, 4))


def test_parse_assertion_sep_and_nesting():
    got = parse_assertion(
        "rax |->r 0x1 * [0x140000](iaspace * 0x200000 |->v 0x3333)")
    want = sep(RegPt(Reg.RAX, FULL, 1),
               OtherSpace(0x140000, sep(IASpace(),
                                        VirtPt(0x200000, FULL, 0x3333))))
    assert got == want


def test_wrappers_nest_at_most_max_nesting_deep():
    def nested(depth):
        return "[0x140000](" * depth + "emp" + ")" * depth

    want = Emp()
    for _ in range(MAX_NESTING):
        want = OtherSpace(0x140000, want)
    assert parse_assertion(nested(MAX_NESTING)) == want
    with pytest.raises(ParseError) as err:
        parse_assertion(nested(MAX_NESTING + 1), line=7)
    assert str(err.value) == (f"line 7, column {MAX_NESTING * 11 + 1}: "
                              f"wrappers nested more than {MAX_NESTING} deep")


def test_parse_assertion_errors():
    with pytest.raises(ParseError):
        parse_assertion("rax |->v 0x1")  # registers take |->r
    with pytest.raises(ParseError):
        parse_assertion("0x10 |->r 0x1")
    with pytest.raises(ParseError):
        parse_assertion("rax |->r 0x1 *")
    with pytest.raises(ParseError):
        parse_assertion("rax |->r 0x1 extra")
    with pytest.raises(ParseError):
        parse_assertion("pure(bogus 4)")


def test_assertion_roundtrip_random_trees():
    state, registry, roots = multi_space_fixture()
    pool = leaf_pool(state, registry, roots)
    rng = random.Random(13)
    for _ in range(300):
        tree = normalize(random_assertion(rng, pool, roots))
        text = print_assertion(tree)
        assert parse_assertion(text) == tree
        # printing parsed output is stable
        assert print_assertion(parse_assertion(text)) == text


def test_parse_rejects_ghost_arguments_wider_than_64_bits():
    with pytest.raises(ParseError) as info:
        parse_program("skip\n@ghost insert_walk va=0x10000000000000000 "
                      "pa=0x5000")
    assert info.value.line == 2


@pytest.mark.parametrize("args, message", [
    ("va=18446744073709551616 pa=0x5000",
     "ghost va=0x10000000000000000 is not a 64-bit word"),
    ("va=0x0010000000000000000 pa=0x5000",
     "ghost va=0x10000000000000000 is not a 64-bit word"),
    # the step's constructor checks the width, after every key is read
    ("va=0x10000000000000000", "ghost insert_walk is missing pa="),
])
def test_a_ghost_argument_wider_than_64_bits_is_refused_by_the_step(
        args, message):
    with pytest.raises(ParseError) as info:
        parse_program(f"@ghost insert_walk {args}")
    assert str(info.value) == f"line 1, column 1: {message}"


@pytest.mark.parametrize("args, message", [
    ("va=0x1000 va=0x2000 pa=0x7 junk!! xx=1", "ghost remove_walk repeats va="),
    ("va=0x1000 pa=0x7", "ghost remove_walk takes no argument 'pa' "
                         "(expected va=)"),
    ("va=0x1000 xx=1", "ghost remove_walk takes no argument 'xx' "
                       "(expected va=)"),
    ("va=0x1000 junk!!", "cannot read ghost argument 'junk!!' "
                         "(expected KEY=NUMBER)"),
    ("junk!! va=0x1000", "cannot read ghost argument 'junk!!' "
                         "(expected KEY=NUMBER)"),
    ("va=0X1000", "bad number '0X1000' (expected 0x-hex, decimal)"),
])
def test_parse_refuses_ghost_arguments_other_than_each_field_once(
        args, message):
    with pytest.raises(ParseError) as info:
        parse_program(f"skip\n@ghost remove_walk {args}")
    assert str(info.value) == f"line 2, column 1: {message}"


@pytest.mark.parametrize("line, text", [
    ("mov rax, 1_000", "1_000"),
    ("mov rax, +5", "+5"),
    ("mov rax, ٣", "٣"),            # ARABIC-INDIC DIGIT THREE
    ("mov rax, 0X10", "0X10"),
    ("mov rax, 0x1_0", "0x1_0"),
    ("mov rax, [rdi+٣]", "[rdi+٣]"),
    ("@ghost remove_walk va=1_000", "1_000"),
    ("@ghost remove_walk va=８", "８"),  # FULLWIDTH DIGIT EIGHT
])
def test_program_numbers_are_ascii_hex_or_decimal(line, text):
    with pytest.raises(ParseError) as info:
        parse_program(line)
    assert str(info.value) == (f"line 1, column 1: bad number {text!r} "
                               "(expected 0x-hex, decimal)")


@pytest.mark.parametrize("text", ["rax |->r ٣",
                                  "８ |->v 0x0"])
def test_assertion_numbers_are_ascii_hex_or_decimal(text):
    with pytest.raises(ParseError, match="cannot read"):
        parse_assertion(text)


def test_program_numbers_read_as_before():
    assert parse_program(
        "mov rax, 0x1f\nmov rbx, 010\nmov rcx, [rdi-0x8]\nmov rdx, 0xAb") == [
        MovRegImm(Reg.RAX, 0x1F), MovRegImm(Reg.RBX, 10),
        MovRegFromMem(Reg.RCX, Reg.RDI, -8), MovRegImm(Reg.RDX, 0xAB)]
    with pytest.raises(ParseError, match="immediate -0x1 is not a 64-bit"):
        parse_program("mov rax, -1")


# pieces of assertion text: every token, near-numbers the grammar splits
# (0X1, 1_0, 0x), characters no token starts with, and whitespace that
# str.strip and the tokenizer's \s both skip, ASCII or not
_TOKEN_PIECES = st.sampled_from([
    "|->vpte", "|->v", "|->r", "|->a", "==", "{", "}", "(", ")", "[", "]",
    "*", ":", "/", "0x1f", "0xAb", "0x", "0X1", "1_0", "007", str(1 << 64),
    "rax", "emp", "iaspace", "_w1", "x", " ", "  ", "\t", "\n", "\u00a0",
    "\x1c", "\u3000", "!", "@", "-", "|", "|-", "->", "\u0663", "\uff18",
    "\u00e9"])


def _tokens_or_refusal(text: str):
    """(kind, text, column) of each token, or the refusal's (line,
    column, text), from the tokenizer; each number is checked against
    its text on the way."""
    try:
        tokens = _tokenize(text, 7)
    except ParseError as err:
        return ("refused", err.line, err.col, str(err))
    assert tokens[-1][0] is None
    for kind, word, _col, value in tokens[:-1]:
        assert value == (None if kind != "num" else
                         int(word, 16) if word.startswith("0x") else
                         int(word))
    return [token[:3] for token in tokens[:-1]]


def _reference_tokens(text: str):
    try:
        return oracle.tokenize(text, 7)
    except oracle.TokenRefusal as err:
        line, col, message = err.args
        return ("refused", line, col, f"line {line}, column {col}: {message}")


@settings(max_examples=600, deadline=None)
@given(st.one_of(st.lists(_TOKEN_PIECES, max_size=12).map("".join),
                 st.text(max_size=24)))
def test_the_tokenizer_matches_the_reference(text):
    assert _tokens_or_refusal(text) == _reference_tokens(text)


@pytest.mark.parametrize("text", [
    "", "   ", "emp  \t\n", "0x8 |->v 0x1   ", "emp   !x", "rax |->r  @",
    "0X1 |->v 0x0", "1_0 |->v 0x0", "rax |->r 0x\u0663", "[0x1000](emp) \u00a0!",
    "emp\x1c"])
def test_the_tokenizer_matches_the_reference_at_its_edges(text):
    assert _tokens_or_refusal(text) == _reference_tokens(text)


def test_a_refusal_names_the_end_of_the_token_before_it():
    with pytest.raises(ParseError) as info:
        _tokenize("emp    !x", 3)
    assert (info.value.line, info.value.col) == (3, 4)
    assert str(info.value) == "line 3, column 4: cannot read '!x'"


@pytest.mark.parametrize("text, expected", [
    ("", "assertion"), ("emp *", "assertion"), ("0x8", "|->v or |->vpte"),
    ("0x8 |->v", "number"), ("0x8 |->v {1/", "number"), ("pure(", "predicate"),
    ("phys 0x5:", "number"), ("[0x1000](emp", ")")])
def test_an_assertion_that_ends_early_names_what_was_expected(text, expected):
    with pytest.raises(ParseError) as info:
        parse_assertion(text)
    assert str(info.value) == ("line 1, column 0: unexpected end of assertion "
                               f"(expected {expected})")
