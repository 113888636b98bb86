"""Text formats: an Intel-operand-order assembly subset for scripts and
a grammar for assertions.

Program lines:
    mov rd, rs            mov rd, IMM           add rd, IMM
    mov rd, [ra+DISP]     mov [ra+DISP], rs     mov cr3, rs
    mov cr3, [ra+DISP]    mov [ra+DISP], cr3    skip
    call NAME
    @ghost insert_walk va=ADDR pa=ADDR
    @ghost remove_walk va=ADDR
    @ghost pte_to_virt va=ADDR
    @ghost virt_to_pte va=ADDR pa=ADDR
    @assert { ASSERTION }

``;`` starts a comment.  DISP is optional (default 0) and may be
negative.  An ADDR is a word-aligned 64-bit word, a va also canonical.
A ghost step names each of its arguments once and nothing else.  Numbers
are 0x-hex or decimal ASCII digits, ``0x[0-9a-fA-F]+`` or ``[0-9]+``.

Assertions:
    A ::= "emp" | REG "|->r" FR? WORD
        | "phys" FRAME ":" OFF "|->a" FR? WORD
        | WORD "|->v" FR? WORD
        | WORD "|->vpte" FR? WORD WORD
        | "iaspace" | "[" WORD "]" "(" A ")"
        | "pure" "(" PRED ")" | A "*" A
    FR ::= "{" INT "/" INT "}"
    PRED ::= WORD "==" WORD | "aligned" WORD | "unmapped" WORD

An absent FR means the full share, and a share must lie in (0, 1].
Every number in an assertion must fit in 64 bits, and a value a claim
refuses (a cr3 claim, a misaligned address or root, a va not canonical)
is a ParseError with its line and column.  Wrappers nest at most 64 deep
(``MAX_NESTING``); a deeper one is refused at its ``[``.  Parsing and
printing round-trip.  One split of the text finds every token; a
character no token starts with is refused where the last token ends.
"""

from __future__ import annotations

import re
from fractions import Fraction
from itertools import accumulate, islice
from typing import Optional, Union

from .machine import (
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
    is_canonical,
)
from .assertions import (
    Assertion,
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
    Sep,
    VirtPt,
    sep,
)
from .checker import (
    AssertStep,
    CallStep,
    GhostInsertWalk,
    GhostPteToVirt,
    GhostRemoveWalk,
    GhostVirtToPte,
    Script,
    ScriptStep,
)


class ParseError(ValueError):
    def __init__(self, line: int, col: int, message: str, expected=()):
        self.line = line
        self.col = col
        self.expected = tuple(expected)
        hint = f" (expected {', '.join(expected)})" if expected else ""
        super().__init__(f"line {line}, column {col}: {message}{hint}")


_REG_NAMES = {r.value: r for r in Reg}

# the deepest nesting of other-space wrappers an assertion may have
MAX_NESTING = 64


# the one number grammar of program and assertion text, state files and
# command-line arguments: 0x-hex, or decimal of at most 640 digits after
# its leading zeros.  A longer decimal is far past any word, and int()
# may refuse it (Python limits decimal digits, to no fewer than 640).
_NUM = r"0x[0-9a-fA-F]+|0*(?:[1-9][0-9]{0,639}|0)(?![0-9])"
_NUM_RE = re.compile(_NUM)


def _value(digits: str) -> int:
    """The value of text that ``_NUM`` matched."""
    if "x" in digits:
        return int(digits, 16)
    return int(digits.lstrip("0") or "0")


def signed_number(text: str) -> Optional[int]:
    """`text` read as an optional `-` and a number, or None.  No reader
    takes a negative number: the sign is read only so that a reader can
    name the value it refuses, so `-0` is no number."""
    negative = text.startswith("-")
    if not _NUM_RE.fullmatch(text, negative):
        return None
    value = _value(text[negative:])
    return (-value or None) if negative else value


def _bad_number(text: str, line: int, col: int) -> ParseError:
    return ParseError(line, col, f"bad number {text!r}", ("0x-hex", "decimal"))


def _parse_int(text: str, line: int, col: int) -> int:
    if not _NUM_RE.fullmatch(text):
        raise _bad_number(text, line, col)
    return _value(text)


# --------------------------------------------------------------------------
# Assertion tokenizer / parser

_TOKEN_RE = re.compile(
    r"(\|->vpte|\|->r|\|->a|\|->v|==|[{}()\[\]*:/]"
    rf"|{_NUM}"
    r"|[A-Za-z_][A-Za-z0-9_]*)")

# the token after the last one
_END = ("", 0)


def _tokenize(text: str, line: int) -> list:
    """Each token of `text` as (text, column), a number's text starting
    with a digit, then _END.  Only whitespace may lie between tokens: a
    character no token starts with is refused where the last token ends."""
    parts = _TOKEN_RE.split(text)
    if "".join(parts[::2]).strip():
        gap = next(i for i in range(0, len(parts), 2) if parts[i].strip())
        pos = sum(map(len, parts[:gap]))
        raise ParseError(line, pos + 1,
                         f"cannot read {text[pos:].strip()[:10]!r}")
    return [*zip(parts[1::2], islice(
        accumulate(map(len, parts), initial=1), 1, None, 2)), _END]


class _AssertionParser:
    def __init__(self, tokens, line):
        self.tokens = tokens
        self.line = line
        self.pos = 0
        self.depth = 0  # the wrappers open around the current position

    def refusal(self, token, expected, summary=None) -> ParseError:
        """The error for a `token` the parser cannot take: at _END, it
        names `summary`, else `expected`, as what was expected."""
        if token is _END:
            return ParseError(self.line, 0, "unexpected end of assertion",
                              (summary,) if summary else expected)
        return ParseError(self.line, token[1], f"got {token[0]!r}", expected)

    def expect_sym(self, sym):
        token = self.tokens[self.pos]
        if token[0] != sym:
            raise self.refusal(token, (sym,))
        self.pos += 1

    def word(self, token):
        value = _value(token[0])
        if value >= 1 << 64:
            raise ParseError(self.line, token[1],
                             f"{token[0]} is not a 64-bit word")
        return value

    def number(self):
        token = self.tokens[self.pos]
        if not token[0][:1].isdigit():
            raise self.refusal(token, ("number",))
        self.pos += 1
        return self.word(token)

    def fraction(self) -> Fraction:
        token = self.tokens[self.pos]
        if token[0] != "{":
            return FULL
        self.pos += 1
        num = self.number()
        self.expect_sym("/")
        den = self.number()
        self.expect_sym("}")
        if den == 0:
            raise ParseError(self.line, token[1], "share has denominator 0")
        return Fraction(num, den)

    def parse(self) -> Assertion:
        parts = [self.parse_one()]
        while self.tokens[self.pos][0] == "*":
            self.pos += 1
            parts.append(self.parse_one())
        if len(parts) == 1:
            return parts[0]
        return sep(*parts)

    def parse_one(self) -> Assertion:
        """One leaf or wrapper; a va that is not canonical, or a value its
        constructor refuses (a cr3 claim, a misaligned address, a share
        outside (0, 1]), is a ParseError at the leaf's first token."""
        token = self.tokens[self.pos]
        try:
            return self.parse_leaf()
        except ParseError:
            raise
        except ValueError as err:
            raise ParseError(self.line, token[1], str(err)) from None

    def parse_leaf(self) -> Assertion:
        token = self.tokens[self.pos]
        text = token[0]
        self.pos += 1
        if text[:1].isdigit():
            va = self.word(token)
            if not is_canonical(va):
                raise ValueError(f"va {va:#x} is not canonical")
            after = self.tokens[self.pos]
            self.pos += 1
            # arguments are read left to right, as they are written
            if after[0] == "|->v":
                return VirtPt(va, self.fraction(), self.number())
            if after[0] == "|->vpte":
                return PtePt(va, self.fraction(), self.number(), self.number())
            raise self.refusal(after, ("|->v", "|->vpte"), "|->v or |->vpte")
        if text in _REG_NAMES:
            self.expect_sym("|->r")
            return RegPt(_REG_NAMES[text], self.fraction(), self.number())
        if text == "[":
            if self.depth == MAX_NESTING:
                raise ParseError(self.line, token[1], "wrappers nested more "
                                 f"than {MAX_NESTING} deep")
            root = self.number()
            self.expect_sym("]")
            self.expect_sym("(")
            self.depth += 1
            body = self.parse()
            self.depth -= 1
            self.expect_sym(")")
            return OtherSpace(root, body)
        if text == "iaspace":
            return IASpace()
        if text == "emp":
            return Emp()
        if text == "pure":
            self.expect_sym("(")
            pred = self.parse_pred()
            self.expect_sym(")")
            return Pure(pred)
        if text == "phys":
            frame = self.number()
            self.expect_sym(":")
            off = self.number()
            self.expect_sym("|->a")
            return PhysPt(frame, off, self.fraction(), self.number())
        raise self.refusal(token, ("emp", "iaspace", "pure", "phys", "REG",
                                   "WORD", "["), "assertion")

    def parse_pred(self):
        token = self.tokens[self.pos]
        self.pos += 1
        if token[0] == "aligned":
            return PredAligned(self.number())
        if token[0] == "unmapped":
            return PredUnmapped(self.number())
        if token[0][:1].isdigit():
            lhs = self.word(token)
            self.expect_sym("==")
            return PredEq(lhs, self.number())
        raise self.refusal(token, ("aligned", "unmapped", "WORD == WORD"),
                           "predicate")


def parse_assertion(text: str, line: int = 1) -> Assertion:
    parser = _AssertionParser(_tokenize(text, line), line)
    node = parser.parse()
    leftover = parser.tokens[parser.pos]
    if leftover is not _END:
        raise ParseError(line, leftover[1], f"trailing {leftover[0]!r}")
    return node


def print_fraction(q: Fraction) -> str:
    return "" if q == FULL else "{" + f"{q.numerator}/{q.denominator}" + "} "


def print_assertion(a: Assertion) -> str:
    if isinstance(a, Emp):
        return "emp"
    if isinstance(a, IASpace):
        return "iaspace"
    if isinstance(a, Pure):
        return f"pure({a.pred})"
    if isinstance(a, RegPt):
        return f"{a.reg.value} |->r {print_fraction(a.q)}{a.val:#x}"
    if isinstance(a, PhysPt):
        return f"phys {a.frame:#x}:{a.off:#x} |->a {print_fraction(a.q)}{a.val:#x}"
    if isinstance(a, VirtPt):
        return f"{a.va:#x} |->v {print_fraction(a.q)}{a.val:#x}"
    if isinstance(a, PtePt):
        return (f"{a.va:#x} |->vpte {print_fraction(a.q)}{a.pa:#x} "
                f"{a.val:#x}")
    if isinstance(a, OtherSpace):
        return f"[{a.root:#x}]({print_assertion(a.body)})"
    if isinstance(a, Sep):
        return " * ".join(print_assertion(p) for p in a.parts)
    raise TypeError(f"cannot print {a!r}")


# --------------------------------------------------------------------------
# Program text: one spelling table for the instruction forms and one for
# the ghost steps, read by the parser and the printer alike

# (mnemonic, destination kind, source kind) -> (form, fields in operand
# order).  A "reg" or "cr3" operand gives one value, the register, and
# its field is None where the form has no field for it; a "mem" operand
# gives two, base and disp; an "imm" operand one.
_FORMS = {
    ("mov", "reg", "reg"): (MovRegReg, ("dst", "src")),
    ("mov", "reg", "imm"): (MovRegImm, ("dst", "imm")),
    ("add", "reg", "imm"): (AddRegImm, ("dst", "imm")),
    ("mov", "reg", "mem"): (MovRegFromMem, ("dst", "base", "disp")),
    ("mov", "mem", "reg"): (MovMemFromReg, ("base", "disp", "src")),
    ("mov", "cr3", "reg"): (MovToCr3FromReg, (None, "src")),
    ("mov", "reg", "cr3"): (MovRegFromCr3, ("dst", None)),
    ("mov", "mem", "cr3"): (MovMemFromCr3, ("base", "disp", None)),
    ("mov", "cr3", "mem"): (MovToCr3FromMem, (None, "base", "disp")),
}
_SPELLING = {form: (key, fields) for key, (form, fields) in _FORMS.items()}

# why operand kinds that match no row are refused: by mnemonic for add,
# by destination kind for mov
_REFUSALS = {
    "add": "add takes a data register and an immediate",
    "cr3": "cr3 cannot be loaded from an immediate",
    "mem": "memory stores take a register source",
    "imm": "an immediate cannot be a destination",
}

# ghost op -> (form, fields in argument order)
_GHOST_FORMS = {
    "insert_walk": (GhostInsertWalk, ("va", "pa")),
    "remove_walk": (GhostRemoveWalk, ("va",)),
    "pte_to_virt": (GhostPteToVirt, ("va",)),
    "virt_to_pte": (GhostVirtToPte, ("va", "pa")),
}
_GHOST_SPELLING = {form: (op, fields)
                   for op, (form, fields) in _GHOST_FORMS.items()}

_MEM_OPERAND_RE = re.compile(
    rf"^\[\s*(?P<reg>[a-z0-9]+)\s*(?:(?P<sign>[+-])\s*(?P<disp>{_NUM}))?\s*\]$")


def _split_operands(rest: str, line: int):
    """`rest` split at its first comma outside brackets."""
    comma = rest.find(",")
    while comma >= 0:
        if rest.count("[", 0, comma) == rest.count("]", 0, comma):
            return rest[:comma].strip(), rest[comma + 1:].strip()
        comma = rest.find(",", comma + 1)
    raise ParseError(line, 1, "expected two comma-separated operands")


def _operand(text: str, line: int):
    """Classify an operand: its kind and its values (see ``_FORMS``)."""
    if text in _REG_NAMES:
        reg = _REG_NAMES[text]
        return "reg" if reg.is_data else "cr3", (reg,)
    m = _MEM_OPERAND_RE.match(text) if text.startswith("[") else None
    if m is None:
        # the sign is read so that the form can refuse a negative immediate
        value = signed_number(text)
        if value is None:
            raise _bad_number(text, line, 1)
        return "imm", (value,)
    name, disp = m.group("reg", "disp")
    if name == "cr3":
        raise ParseError(line, 1, "cr3 cannot be used as an address base")
    if name not in _REG_NAMES:
        raise ParseError(line, 1, f"unknown register {name!r}")
    disp = 0 if disp is None else _value(disp)
    return "mem", (_REG_NAMES[name], -disp if m["sign"] == "-" else disp)


def _build(form, fields, values, line: int) -> Union[Instr, ScriptStep]:
    """The one constructor call for a step read from text; a value the
    form refuses is a ParseError."""
    try:
        return form(**{f: v for f, v in zip(fields, values) if f})
    except ValueError as err:
        raise ParseError(line, 1, str(err)) from None


def _parse_instr(head: str, rest: str, line: int) -> Instr:
    dst_text, src_text = _split_operands(rest, line)
    dst_kind, dst = _operand(dst_text, line)
    src_kind, src = _operand(src_text, line)
    row = _FORMS.get((head, dst_kind, src_kind))
    if row is None and (head, dst_kind, src_kind) == ("mov", "cr3", "cr3"):
        # cr3 also names a register: the load from one, which step faults on
        row = _FORMS["mov", "cr3", "reg"]
    if row is None:
        raise ParseError(line, 1, _REFUSALS["add" if head == "add"
                                            else dst_kind])
    return _build(*row, dst + src, line)


def _parse_ghost(rest: str, line: int) -> ScriptStep:
    """A ghost step: its op, then each of the op's fields once, as
    ``KEY=NUMBER``; anything else on the line is refused."""
    op, *words = rest.split() or [""]
    if op not in _GHOST_FORMS:
        raise ParseError(line, 1, f"unknown ghost command {op!r}",
                         tuple(_GHOST_FORMS))
    form, fields = _GHOST_FORMS[op]
    args = {}
    for word in words:
        key, eq, val = word.partition("=")
        if not eq:
            raise ParseError(line, 1, f"cannot read ghost argument {word!r}",
                             ("KEY=NUMBER",))
        if key not in fields:
            raise ParseError(line, 1, f"ghost {op} takes no argument {key!r}",
                             tuple(f"{name}=" for name in fields))
        if key in args:
            raise ParseError(line, 1, f"ghost {op} repeats {key}=")
        args[key] = _parse_int(val, line, 1)
    for name in fields:
        if name not in args:
            raise ParseError(line, 1, f"ghost {op} is missing {name}=")
    step = _build(form, fields, [args[name] for name in fields], line)
    if not is_canonical(step.va):
        raise ParseError(line, 1, f"ghost va={step.va:#x} is not canonical")
    return step


def parse_program(text: str) -> Script:
    """Parse a program listing into a checker script."""
    script: Script = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split(";", 1)[0].strip()
        if not line:
            continue
        if line.startswith("@assert"):
            rest = line[len("@assert"):].strip()
            if not (rest.startswith("{") and rest.endswith("}")):
                raise ParseError(lineno, 1, "@assert body must be braced",
                                 ("{ ASSERTION }",))
            script.append(AssertStep(parse_assertion(rest[1:-1], lineno)))
            continue
        if line.startswith("@ghost"):
            script.append(_parse_ghost(line[len("@ghost"):].strip(), lineno))
            continue
        head, _, rest = line.partition(" ")
        rest = rest.strip()
        if head in ("mov", "add"):
            script.append(_parse_instr(head, rest, lineno))
        elif head == "skip" and not rest:
            script.append(Skip())
        elif head == "call":
            if not rest or not re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*", rest):
                raise ParseError(lineno, 1, "call takes a procedure name")
            script.append(CallStep(rest))
        else:
            raise ParseError(lineno, 1, f"unknown instruction {head!r}",
                             ("mov", "add", "skip", "call", "@ghost",
                              "@assert"))
    return script


def _operand_text(kind: str, values) -> str:
    """One operand printed, taking its values from the iterator."""
    value = next(values)
    if kind == "imm":
        return f"{value:#x}"
    if kind != "mem":
        return value.value
    disp = next(values)
    if disp == 0:
        return f"[{value.value}]"
    return f"[{value.value}{'+' if disp > 0 else '-'}{abs(disp)}]"


def print_instr(instr: Instr) -> str:
    if isinstance(instr, Skip):
        return "skip"
    if type(instr) not in _SPELLING:
        raise TypeError(f"cannot print {instr!r}")
    (mnemonic, *kinds), fields = _SPELLING[type(instr)]
    values = iter([getattr(instr, f) if f else Reg.CR3 for f in fields])
    return f"{mnemonic} " + ", ".join(_operand_text(kind, values)
                                      for kind in kinds)


def print_step(script_step: Union[Instr, ScriptStep]) -> str:
    if isinstance(script_step, Instr):
        return print_instr(script_step)
    if type(script_step) in _GHOST_SPELLING:
        op, fields = _GHOST_SPELLING[type(script_step)]
        return f"@ghost {op}" + "".join(f" {f}={getattr(script_step, f):#x}"
                                        for f in fields)
    if isinstance(script_step, CallStep):
        return f"call {script_step.name}"
    if isinstance(script_step, AssertStep):
        return "@assert { " + print_assertion(script_step.assertion) + " }"
    raise TypeError(f"cannot print {script_step!r}")


def print_program(script: Script) -> str:
    return "\n".join(print_step(s) for s in script) + "\n"
