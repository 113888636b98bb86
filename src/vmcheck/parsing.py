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
negative.  Numbers are 0x-hex or decimal.

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
refuses (a cr3 claim, a misaligned address or root) is a ParseError with
its line and column.  Parsing and printing round-trip.
"""

from __future__ import annotations

import re
from fractions import Fraction

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
    InstrStep,
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


def _parse_int(text: str, line: int, col: int) -> int:
    try:
        return int(text, 16) if text.lower().startswith("0x") else int(text)
    except ValueError:
        raise ParseError(line, col, f"bad number {text!r}",
                         ("0x-hex", "decimal")) from None


# --------------------------------------------------------------------------
# Assertion tokenizer / parser

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<sym>\|->vpte|\|->r|\|->a|\|->v|==|[{}()\[\]*:/])"
    r"|(?P<num>0x[0-9a-fA-F]+|\d+)"
    r"|(?P<word>[A-Za-z_][A-Za-z0-9_]*))")


def _tokenize(text: str, line: int):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            rest = text[pos:].strip()
            if not rest:
                break
            raise ParseError(line, pos + 1, f"cannot read {rest[:10]!r}")
        # each alternative is one named group that matches non-empty text
        kind = m.lastgroup
        tokens.append((kind, m.group(kind), m.start(kind) + 1))
        pos = m.end()
    return tokens


class _AssertionParser:
    def __init__(self, tokens, line):
        self.tokens = tokens
        self.line = line
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self, expect=None):
        tok = self.peek()
        if tok is None:
            raise ParseError(self.line, 0, "unexpected end of assertion",
                             (expect,) if expect else ())
        self.pos += 1
        return tok

    def expect_sym(self, sym):
        kind, text, col = self.next(expect=sym)
        if kind != "sym" or text != sym:
            raise ParseError(self.line, col, f"got {text!r}", (sym,))

    def word(self, text, col):
        value = _parse_int(text, self.line, col)
        if value >= 1 << 64:
            raise ParseError(self.line, col, f"{text} is not a 64-bit word")
        return value

    def number(self):
        kind, text, col = self.next(expect="number")
        if kind != "num":
            raise ParseError(self.line, col, f"got {text!r}", ("number",))
        return self.word(text, col)

    def fraction(self) -> Fraction:
        tok = self.peek()
        if tok is None or tok[1] != "{":
            return FULL
        self.expect_sym("{")
        num = self.number()
        self.expect_sym("/")
        den = self.number()
        self.expect_sym("}")
        if den == 0:
            raise ParseError(self.line, tok[2], "share has denominator 0")
        return Fraction(num, den)

    def parse(self) -> Assertion:
        node = self.parse_one()
        parts = [node]
        while self.peek() is not None and self.peek()[1] == "*":
            self.expect_sym("*")
            parts.append(self.parse_one())
        if len(parts) == 1:
            return parts[0]
        return sep(*parts)

    def parse_one(self) -> Assertion:
        """One leaf or wrapper; a value its constructor refuses (a cr3
        claim, a misaligned address, a share outside (0, 1]) is a
        ParseError at the leaf's first token."""
        tok = self.peek()
        try:
            return self.parse_leaf()
        except ParseError:
            raise
        except ValueError as err:
            raise ParseError(self.line, tok[2], str(err)) from None

    def parse_leaf(self) -> Assertion:
        kind, text, col = self.next(expect="assertion")
        if kind == "word" and text == "emp":
            return Emp()
        if kind == "word" and text == "iaspace":
            return IASpace()
        if kind == "word" and text == "pure":
            self.expect_sym("(")
            pred = self.parse_pred()
            self.expect_sym(")")
            return Pure(pred)
        if kind == "word" and text == "phys":
            frame = self.number()
            self.expect_sym(":")
            off = self.number()
            self.expect_sym("|->a")
            q = self.fraction()
            val = self.number()
            return PhysPt(frame, off, q, val)
        if kind == "word" and text in _REG_NAMES:
            reg = _REG_NAMES[text]
            self.expect_sym("|->r")
            q = self.fraction()
            val = self.number()
            return RegPt(reg, q, val)
        if kind == "sym" and text == "[":
            root = self.number()
            self.expect_sym("]")
            self.expect_sym("(")
            body = self.parse()
            self.expect_sym(")")
            return OtherSpace(root, body)
        if kind == "num":
            va = self.word(text, col)
            nkind, ntext, ncol = self.next(expect="|->v or |->vpte")
            if nkind == "sym" and ntext == "|->v":
                q = self.fraction()
                val = self.number()
                return VirtPt(va, q, val)
            if nkind == "sym" and ntext == "|->vpte":
                q = self.fraction()
                pa = self.number()
                val = self.number()
                return PtePt(va, q, pa, val)
            raise ParseError(self.line, ncol, f"got {ntext!r}",
                             ("|->v", "|->vpte"))
        raise ParseError(self.line, col, f"got {text!r}",
                         ("emp", "iaspace", "pure", "phys", "REG", "WORD",
                          "["))

    def parse_pred(self):
        kind, text, col = self.next(expect="predicate")
        if kind == "word" and text == "aligned":
            return PredAligned(self.number())
        if kind == "word" and text == "unmapped":
            return PredUnmapped(self.number())
        if kind == "num":
            lhs = self.word(text, col)
            self.expect_sym("==")
            return PredEq(lhs, self.number())
        raise ParseError(self.line, col, f"got {text!r}",
                         ("aligned", "unmapped", "WORD == WORD"))


def parse_assertion(text: str, line: int = 1) -> Assertion:
    parser = _AssertionParser(_tokenize(text, line), line)
    node = parser.parse()
    leftover = parser.peek()
    if leftover is not None:
        raise ParseError(line, leftover[2], f"trailing {leftover[1]!r}")
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
# Program parsing

_MEM_OPERAND_RE = re.compile(
    r"^\[\s*(?P<reg>[a-z0-9]+)\s*(?:(?P<sign>[+-])\s*(?P<disp>0x[0-9a-fA-F]+|\d+))?\s*\]$")


def _split_operands(rest: str, line: int):
    depth = 0
    for i, ch in enumerate(rest):
        if ch == "[":
            depth += 1
        elif ch == "]":
            depth -= 1
        elif ch == "," and depth == 0:
            return rest[:i].strip(), rest[i + 1:].strip()
    raise ParseError(line, 1, "expected two comma-separated operands")


def _operand(text: str, line: int):
    """Classify an operand: ('reg', Reg) | ('mem', reg, disp) | ('imm', n)."""
    m = _MEM_OPERAND_RE.match(text)
    if m:
        name = m.group("reg")
        if name == "cr3":
            raise ParseError(line, 1,
                             "cr3 cannot be used as an address base")
        if name not in _REG_NAMES:
            raise ParseError(line, 1, f"unknown register {name!r}")
        disp = 0
        if m.group("disp"):
            disp = _parse_int(m.group("disp"), line, 1)
            if m.group("sign") == "-":
                disp = -disp
        return ("mem", _REG_NAMES[name], disp)
    if text in _REG_NAMES:
        return ("reg", _REG_NAMES[text])
    return ("imm", _parse_int(text, line, 1))


def _parse_mov(rest: str, line: int) -> Instr:
    dst_text, src_text = _split_operands(rest, line)
    dst = _operand(dst_text, line)
    src = _operand(src_text, line)
    try:
        if dst[0] == "reg" and dst[1] is Reg.CR3:
            if src[0] == "reg":
                return MovToCr3FromReg(src[1])
            if src[0] == "mem":
                return MovToCr3FromMem(src[1], src[2])
            raise ParseError(line, 1, "cr3 cannot be loaded from an immediate")
        if dst[0] == "reg":
            if src[0] == "reg" and src[1] is Reg.CR3:
                return MovRegFromCr3(dst[1])
            if src[0] == "reg":
                return MovRegReg(dst[1], src[1])
            if src[0] == "mem":
                return MovRegFromMem(dst[1], src[1], src[2])
            return MovRegImm(dst[1], src[1])
        if dst[0] == "mem":
            if src[0] == "reg" and src[1] is Reg.CR3:
                return MovMemFromCr3(dst[1], dst[2])
            if src[0] == "reg":
                return MovMemFromReg(dst[1], dst[2], src[1])
            raise ParseError(line, 1, "memory stores take a register source")
        raise ParseError(line, 1, "an immediate cannot be a destination")
    except ValueError as err:
        if isinstance(err, ParseError):
            raise
        raise ParseError(line, 1, str(err)) from None


_GHOST_ARG_RE = re.compile(r"([a-z_]+)=(0x[0-9a-fA-F]+|\d+)")


def _parse_ghost(rest: str, line: int) -> ScriptStep:
    parts = rest.split(None, 1)
    op = parts[0] if parts else ""
    args = {}
    for key, val in _GHOST_ARG_RE.findall(parts[1] if len(parts) > 1 else ""):
        args[key] = _parse_int(val, line, 1)
        if args[key] >= 1 << 64:
            raise ParseError(line, 1,
                             f"ghost {key}={val} is not a 64-bit word")
    try:
        if op == "insert_walk":
            return GhostInsertWalk(args["va"], args["pa"])
        if op == "remove_walk":
            return GhostRemoveWalk(args["va"])
        if op == "pte_to_virt":
            return GhostPteToVirt(args["va"])
        if op == "virt_to_pte":
            return GhostVirtToPte(args["va"], args["pa"])
    except KeyError as err:
        raise ParseError(line, 1, f"ghost {op} is missing {err.args[0]}=") \
            from None
    raise ParseError(line, 1, f"unknown ghost command {op!r}",
                     ("insert_walk", "remove_walk", "pte_to_virt",
                      "virt_to_pte"))


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
        if head == "mov":
            script.append(InstrStep(_parse_mov(rest, lineno)))
        elif head == "add":
            dst_text, imm_text = _split_operands(rest, lineno)
            dst = _operand(dst_text, lineno)
            imm = _operand(imm_text, lineno)
            if dst[0] != "reg" or dst[1] is Reg.CR3 or imm[0] != "imm":
                raise ParseError(lineno, 1, "add takes a data register and "
                                            "an immediate")
            try:
                script.append(InstrStep(AddRegImm(dst[1], imm[1])))
            except ValueError as err:
                raise ParseError(lineno, 1, str(err)) from None
        elif head == "skip" and not rest:
            script.append(InstrStep(Skip()))
        elif head == "call":
            if not rest or not re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*", rest):
                raise ParseError(lineno, 1, "call takes a procedure name")
            script.append(CallStep(rest))
        else:
            raise ParseError(lineno, 1, f"unknown instruction {head!r}",
                             ("mov", "add", "skip", "call", "@ghost",
                              "@assert"))
    return script


# --------------------------------------------------------------------------
# Program printing


def _mem_text(base: Reg, disp: int) -> str:
    if disp == 0:
        return f"[{base.value}]"
    sign = "+" if disp >= 0 else "-"
    return f"[{base.value}{sign}{abs(disp)}]"


def print_instr(instr: Instr) -> str:
    if isinstance(instr, Skip):
        return "skip"
    if isinstance(instr, MovRegReg):
        return f"mov {instr.dst.value}, {instr.src.value}"
    if isinstance(instr, MovRegImm):
        return f"mov {instr.dst.value}, {instr.imm:#x}"
    if isinstance(instr, AddRegImm):
        return f"add {instr.dst.value}, {instr.imm:#x}"
    if isinstance(instr, MovRegFromMem):
        return f"mov {instr.dst.value}, {_mem_text(instr.base, instr.disp)}"
    if isinstance(instr, MovMemFromReg):
        return f"mov {_mem_text(instr.base, instr.disp)}, {instr.src.value}"
    if isinstance(instr, MovToCr3FromReg):
        return f"mov cr3, {instr.src.value}"
    if isinstance(instr, MovRegFromCr3):
        return f"mov {instr.dst.value}, cr3"
    if isinstance(instr, MovMemFromCr3):
        return f"mov {_mem_text(instr.base, instr.disp)}, cr3"
    if isinstance(instr, MovToCr3FromMem):
        return f"mov cr3, {_mem_text(instr.base, instr.disp)}"
    raise TypeError(f"cannot print {instr!r}")


def print_step(script_step: ScriptStep) -> str:
    if isinstance(script_step, InstrStep):
        return print_instr(script_step.instr)
    if isinstance(script_step, GhostInsertWalk):
        return f"@ghost insert_walk va={script_step.va:#x} pa={script_step.pa:#x}"
    if isinstance(script_step, GhostRemoveWalk):
        return f"@ghost remove_walk va={script_step.va:#x}"
    if isinstance(script_step, GhostPteToVirt):
        return f"@ghost pte_to_virt va={script_step.va:#x}"
    if isinstance(script_step, GhostVirtToPte):
        return f"@ghost virt_to_pte va={script_step.va:#x} pa={script_step.pa:#x}"
    if isinstance(script_step, CallStep):
        return f"call {script_step.name}"
    if isinstance(script_step, AssertStep):
        return "@assert { " + print_assertion(script_step.assertion) + " }"
    raise TypeError(f"cannot print {script_step!r}")


def print_program(script: Script) -> str:
    return "\n".join(print_step(s) for s in script) + "\n"
