"""Bit-exact model of a small x86-64 fragment with 4-level paging.

Machine state is a register file plus a sparse two-level physical memory
map: an outer finite map from 52-bit frame numbers to inner finite maps
from 12-bit page offsets to 64-bit words.  All memory is word-granular;
inner keys are always multiples of 8.  Reads of absent words fault;
writes also require the word to exist (the memory domain is the set of
allocated words, and fixtures allocate explicitly).

Virtual addresses translate through four levels of page tables rooted at
the physical address held in ``cr3``.  A virtual address must be
canonical, bits 48..63 copies of bit 47, or its translation faults.
Uninitialized registers read as zero.  Every value is a plain int:
addresses, raw table entries (read through ``pte_frame`` and the
``PTE_*`` bits) and walk results.  One kernel, ``translate``, does every
walk and can list the (slot, entry) pairs it read in the same pass;
``walk`` returns them with the result, and ``walk_text`` renders both.
Bit widths are checked where values enter (instruction constructors,
the parser, the state loader).  ``translate`` checks its root's
alignment and its va's width on every call too, but only to refuse
misuse of the Python API: values from those entry points always pass.

The one in-place operation is the core, ``execute``: it runs an
instruction on the given state.  ``step`` and ``run`` are a copy plus
the core, so they never mutate their input.  Every in-place memory write
goes through the word writer, ``mem_set`` (``write_word``, a store and an
accessed bit all use it), or the frame writer, ``put_frame``; code that
writes a frame's word map directly breaks what follows.
``MachineState.copy`` is copy-on-write per frame: a shared frame is
copied before its first write, so a write never reaches a sibling copy.
``mem.owned`` is the frames a state has written since its last copy,
over all its steps, not one step's writes.  While ``mem.journal`` is
open, both writers list each write with what it replaced, which is how
a step's writes are read and how ``Mem.undo`` takes them back, without
a copy of the frame table or of a frame.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from operator import itemgetter
from typing import Iterable, Optional, Union

PAGE_SIZE = 4096
WORD_BYTES = 8
# the words of a zeroed frame, to copy or to update a frame from, never
# to write
ZERO_FRAME = dict.fromkeys(range(0, PAGE_SIZE, WORD_BYTES), 0)

class Reg(str, Enum):
    """Register identifiers.  cr3 is the page-table control register and
    is rejected wherever a data register is expected."""

    RAX = "rax"
    RBX = "rbx"
    RCX = "rcx"
    RDX = "rdx"
    RSI = "rsi"
    RDI = "rdi"
    RBP = "rbp"
    RSP = "rsp"
    R8 = "r8"
    R9 = "r9"
    R10 = "r10"
    R11 = "r11"
    R12 = "r12"
    R13 = "r13"
    R14 = "r14"
    R15 = "r15"
    CR3 = "cr3"

    @property
    def is_data(self) -> bool:
        return self is not Reg.CR3

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


DATA_REGS = tuple(r for r in Reg if r.is_data)


# A raw table entry: present (bit 0), read-write (bit 1), accessed (bit 5)
# and the target frame in bits 12..51.
PTE_PRESENT = 1 << 0
PTE_WRITABLE = 1 << 1
PTE_ACCESSED = 1 << 5
_FRAME_MASK = (1 << 40) - 1


def pte_frame(entry: int) -> int:
    """The frame number a raw entry points to (bits 12..51)."""
    return (entry >> 12) & _FRAME_MASK


def encode_pte(frame: int, present: bool = True, writable: bool = False,
               accessed: bool = False) -> int:
    """Build a raw entry from a 40-bit frame number plus control bits."""
    if not (0 <= frame <= _FRAME_MASK):
        raise ValueError(f"frame {frame:#x} does not fit in 40 bits")
    raw = frame << 12
    if present:
        raw |= PTE_PRESENT
    if writable:
        raw |= PTE_WRITABLE
    if accessed:
        raw |= PTE_ACCESSED
    return raw


# --------------------------------------------------------------------------
# Records


class Record(tuple):
    """An immutable value: the tuple (tag, fields...), one subclass per
    kind of value, whose ``__new__`` checks its fields and whose
    parameters name them; each field is read through an ``itemgetter``
    property.  The tag is an int written in the class's ``__new__`` and
    used by no other class, so hashing, equality and pickling are the
    tuple's, in C: records of different classes never compare equal, and
    a record of int fields hashes alike under every ``PYTHONHASHSEED``.
    Its repr is the dataclass format, ``Name(field=value, ...)``, from
    one ``%`` format per class."""

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        if "__new__" in vars(cls):
            code = cls.__new__.__code__
            cls._fields = code.co_varnames[1:code.co_argcount]
            for index, name in enumerate(cls._fields, 1):
                setattr(cls, name, property(itemgetter(index)))
            cls._repr = "{}({})".format(cls.__name__, ", ".join(
                f"{name}=%r" for name in cls._fields))

    def __getnewargs__(self) -> tuple:
        return self[1:]

    def __repr__(self) -> str:
        return self._repr % self[1:]


# --------------------------------------------------------------------------
# Faults


class Fault(Record):
    """Base for every machine-level failure value."""


class NotPresent(Fault):
    # level: 1..4, the table level whose entry failed the present check
    def __new__(cls, level: int, va: int) -> "NotPresent":
        return tuple.__new__(cls, (4, level, va))


class FrameUnmapped(Fault):
    # phys: byte address of the absent table frame or word
    def __new__(cls, phys: int) -> "FrameUnmapped":
        return tuple.__new__(cls, (5, phys))


class Misaligned(Fault):
    def __new__(cls, addr: int) -> "Misaligned":
        return tuple.__new__(cls, (6, addr))


class ReadOnly(Fault):
    def __new__(cls, level: int, va: int) -> "ReadOnly":
        return tuple.__new__(cls, (7, level, va))


class BadRegister(Fault):
    def __new__(cls, reg: Reg) -> "BadRegister":
        return tuple.__new__(cls, (8, reg))


class PcOutOfRange(Fault):
    def __new__(cls, pc: int) -> "PcOutOfRange":
        return tuple.__new__(cls, (9, pc))


class NonCanonical(Fault):
    """An access through a va that is not canonical (see ``is_canonical``),
    which faults before any table is read."""

    def __new__(cls, va: int) -> "NonCanonical":
        return tuple.__new__(cls, (10, va))


# --------------------------------------------------------------------------
# State


class Mem(dict):
    """Physical memory ``{frame: {offset: word}}`` whose word maps may be
    shared with copies.  ``owned`` holds the frames this map may write in
    place (its copies), or is None when it shares none; any other frame
    is copied before its first write.  ``journal`` is None, or the list of
    the writes made since it was opened, oldest first: (frame, off, old
    word or None) for a word, (frame, None, old word map or None) for a
    frame created or written whole; ``undo`` takes them back."""

    __slots__ = ("owned", "journal")

    def __init__(self, frames=(), owned: Optional[set] = None):
        super().__init__(frames)
        self.owned, self.journal = owned, None

    def fork(self) -> "Mem":
        """A copy sharing every frame with this map; from now on both copy
        a frame before writing it."""
        self.owned = set()
        return Mem(self, set())

    def undo(self, journal: list) -> None:
        """Take back the writes `journal` lists, the last first.  A frame
        put back leaves ``owned``, since its old word map may be shared."""
        for frame, off, old in reversed(journal):
            if off is None:
                if old is None:
                    del self[frame]
                else:
                    self[frame] = old
                if self.owned is not None:
                    self.owned.discard(frame)
            elif old is None:
                del self[frame][off]
            else:
                self[frame][off] = old


def put_frame(mem: dict, frame: int, words: dict) -> dict:
    """The frame writer: `frame` becomes a copy of `words`, private to
    `mem`, and is returned."""
    journal = getattr(mem, "journal", None)
    if journal is not None:
        journal.append((frame, None, mem.get(frame)))
    words = mem[frame] = dict(words)
    owned = getattr(mem, "owned", None)
    if owned is not None:
        owned.add(frame)
    return words


def own_frame(mem: dict, frame: int) -> dict:
    """The word map of `frame`, private to `mem`: a shared frame is copied
    first and an absent one created by ``put_frame``.  A plain dict (a
    fixture under construction) shares nothing and is written in place."""
    words = mem.get(frame)
    if words is None:
        return put_frame(mem, frame, {})
    owned = getattr(mem, "owned", None)
    if owned is not None and frame not in owned:
        words = mem[frame] = dict(words)
        owned.add(frame)
    return words


@dataclass
class MachineState:
    """Register file, sparse physical memory, and program counter."""

    regs: dict = field(default_factory=dict)  # {Reg: int}
    mem: Mem = field(default_factory=Mem)
    pc: int = 0

    def __post_init__(self) -> None:
        if not isinstance(self.mem, Mem):
            self.mem = Mem(self.mem)

    def reg(self, r: Reg) -> int:
        return self.regs.get(r, 0)

    def copy(self) -> "MachineState":
        """Copy-on-write: the copy shares every memory frame until one side
        writes it (see ``own_frame``)."""
        return MachineState(regs=dict(self.regs), mem=self.mem.fork(),
                            pc=self.pc)

    def read_word(self, frame: int, off: int) -> Union[int, FrameUnmapped]:
        if off % WORD_BYTES:
            raise ValueError(f"offset {off:#x} is not word aligned")
        words = self.mem.get(frame)
        if words is None or off not in words:
            return FrameUnmapped((frame << 12) | off)
        return words[off]

    def write_word(self, frame: int, off: int, value: int) -> Optional[FrameUnmapped]:
        if off % WORD_BYTES:
            raise ValueError(f"offset {off:#x} is not word aligned")
        if not (0 <= value < (1 << 64)):
            raise ValueError(f"value {value:#x} is not a 64-bit word")
        words = self.mem.get(frame)
        if words is None or off not in words:
            return FrameUnmapped((frame << 12) | off)
        mem_set(self.mem, frame, off, value)
        return None


def mem_set(mem: Mem, frame: int, off: int, value: int) -> None:
    """The word writer: every in-place word write goes through here, into
    a frame private to `mem`, and enters the journal if one is open.  It
    allocates an absent word, as fixtures need; ``step`` never does."""
    if off % WORD_BYTES:
        raise ValueError(f"offset {off:#x} is not word aligned")
    words = own_frame(mem, frame)
    journal = getattr(mem, "journal", None)
    if journal is not None:
        journal.append((frame, off, words.get(off)))
    words[off] = value


# --------------------------------------------------------------------------
# Instructions


class Instr(Record):
    """Base for the mov-family instruction forms.  Every form names its
    operands with the same fields: registers ``dst``, ``src`` and
    ``base`` (``step`` faults on cr3 in any of them; a form without one
    reads it as None), a displacement ``disp`` and an immediate ``imm``,
    the last two checked here."""

    dst = src = base = None


def _disp(disp: int) -> int:
    if disp % WORD_BYTES:
        raise ValueError(f"displacement {disp:#x} is not a multiple of 8")
    if not (-PAGE_SIZE < disp < PAGE_SIZE):
        raise ValueError(f"displacement {disp:#x} out of range")
    return disp


def _imm(imm: int) -> int:
    if not (0 <= imm < (1 << 64)):
        raise ValueError(f"immediate {imm:#x} is not a 64-bit word")
    return imm


class MovRegReg(Instr):
    def __new__(cls, dst: Reg, src: Reg) -> "MovRegReg":
        return tuple.__new__(cls, (11, dst, src))


class MovRegImm(Instr):
    def __new__(cls, dst: Reg, imm: int) -> "MovRegImm":
        return tuple.__new__(cls, (12, dst, _imm(imm)))


class AddRegImm(Instr):
    def __new__(cls, dst: Reg, imm: int) -> "AddRegImm":
        return tuple.__new__(cls, (13, dst, _imm(imm)))


class MovRegFromMem(Instr):
    def __new__(cls, dst: Reg, base: Reg, disp: int = 0) -> "MovRegFromMem":
        return tuple.__new__(cls, (14, dst, base, _disp(disp)))


class MovMemFromReg(Instr):
    def __new__(cls, base: Reg, disp: int, src: Reg) -> "MovMemFromReg":
        return tuple.__new__(cls, (15, base, _disp(disp), src))


class MovToCr3FromReg(Instr):
    def __new__(cls, src: Reg) -> "MovToCr3FromReg":
        return tuple.__new__(cls, (16, src))


class MovRegFromCr3(Instr):
    def __new__(cls, dst: Reg) -> "MovRegFromCr3":
        return tuple.__new__(cls, (17, dst))


class MovMemFromCr3(Instr):
    def __new__(cls, base: Reg, disp: int = 0) -> "MovMemFromCr3":
        return tuple.__new__(cls, (18, base, _disp(disp)))


class MovToCr3FromMem(Instr):
    def __new__(cls, base: Reg, disp: int = 0) -> "MovToCr3FromMem":
        return tuple.__new__(cls, (19, base, _disp(disp)))


class Skip(Instr):
    def __new__(cls) -> "Skip":
        return tuple.__new__(cls, (20,))


# --------------------------------------------------------------------------
# Address translation


def is_canonical(va: int) -> bool:
    """Whether the 64-bit `va` is canonical: bits 63..48 all equal bit 47.
    x86-64 faults on any other address before it walks (Intel SDM Vol. 1
    §3.3.7.1)."""
    return va >> 47 in (0, (1 << 17) - 1)


def split_va(va: int) -> tuple:
    """Split a virtual address into the four 9-bit table indices plus the
    12-bit page offset.  Bits 48..63 index nothing: ``translate`` faults
    on a va that is not canonical, and indexes only a canonical one."""
    if not (0 <= va < (1 << 64)):
        raise ValueError(f"virtual address {va:#x} is not a 64-bit word")
    return ((va >> 39) & 0x1FF, (va >> 30) & 0x1FF, (va >> 21) & 0x1FF,
            (va >> 12) & 0x1FF, va & 0xFFF)


_LEVEL_SHIFTS = ((4, 39), (3, 30), (2, 21), (1, 12))


def translate(root: int, mem: Mem, va: int, set_accessed: bool = False,
              steps: Optional[list] = None) -> Union[int, Fault]:
    """The walk kernel: the physical byte address `va` translates to under
    the tables rooted at `root`, or the walk's fault (``NonCanonical``,
    reading no slot, for a va that is not canonical).

    With ``steps`` (a list), each table slot read is appended to it as
    (slot byte address, raw entry), level 4 first, in one pass over
    memory.  With ``set_accessed`` each entry that passes its present
    check gets its accessed bit through the word writer, ``mem_set`` (so
    the journal lists it); ``steps`` lists the entry as it was read,
    before that bit.
    """
    if root % PAGE_SIZE:
        raise ValueError(f"table root {root:#x} is not page aligned")
    if not (0 <= va < (1 << 64)):
        raise ValueError(f"virtual address {va:#x} is not a 64-bit word")
    if not is_canonical(va):
        return NonCanonical(va)
    frame = root >> 12
    for level, shift in _LEVEL_SHIFTS:
        off = ((va >> shift) & 0x1FF) * WORD_BYTES
        words = mem.get(frame)
        if words is None or off not in words:
            return FrameUnmapped((frame << 12) | off)
        entry = words[off]
        if steps is not None:
            steps.append(((frame << 12) | off, entry))
        if not entry & PTE_PRESENT:
            return NotPresent(level, va)
        if set_accessed and not entry & PTE_ACCESSED:
            mem_set(mem, frame, off, entry | PTE_ACCESSED)
        frame = (entry >> 12) & _FRAME_MASK
    return (frame << 12) | (va & 0xFFF)


def walk(root: int, mem: Mem, va: int) -> tuple:
    """The walk of `va` from `root` with the entries it read: ``(((slot_pa,
    entry), ...), result)``, level 4 first, where the steps and the result
    are what one :func:`translate` pass lists and returns."""
    steps = []
    result = translate(root, mem, va, steps=steps)
    return tuple(steps), result


def walk_text(result: Union[int, Fault], steps: tuple = ()) -> list:
    """A walk as lines of text: one per ``(slot_pa, entry)`` in `steps`
    with the slot, the raw entry and its flags, then the result, ``0x...``
    for an address and the repr for a fault."""
    lines = []
    for level, (slot, entry) in zip((4, 3, 2, 1), steps):
        flags = ["present" if entry & PTE_PRESENT else "not-present"]
        if entry & PTE_WRITABLE:
            flags.append("rw")
        if entry & PTE_ACCESSED:
            flags.append("accessed")
        lines.append(f"l{level} slot {slot >> 12:#x}:{slot & 0xFFF:#x} "
                     f"entry {entry:#018x} {','.join(flags)}")
    lines.append(f"{result:#x}" if isinstance(result, int) else repr(result))
    return lines


def chain_slots(root: int, va: int, l4e: int, l3e: int, l2e: int) -> tuple:
    """The byte addresses of the four table slots a walk of `va` reads,
    level 4 first, as :func:`walk` lists them, computed from the root and
    the first three raw entries without touching memory."""
    return tuple((frame << 12) | ((va >> shift) & 0x1FF) * WORD_BYTES
                 for frame, (_level, shift) in
                 zip((root >> 12, pte_frame(l4e), pte_frame(l3e),
                      pte_frame(l2e)), _LEVEL_SHIFTS))


# --------------------------------------------------------------------------
# Small-step semantics


class StepOpts(Record):
    """Execution switches: read-write enforcement on writes, and hardware
    accessed-bit updates during translation.  Both independent."""

    def __new__(cls, enforce_rw: bool = True,
                set_accessed: bool = True) -> "StepOpts":
        return tuple.__new__(cls, (21, enforce_rw, set_accessed))


DEFAULT_OPTS = StepOpts()


# The forms that translate base + disp and load or store the word there.
MEM_FORMS = (MovRegFromMem, MovToCr3FromMem, MovMemFromReg, MovMemFromCr3)


def _access_memory(state: MachineState, instr: Instr, dst: Optional[Reg],
                   src: Optional[Reg], base: Reg,
                   opts: StepOpts) -> Optional[Fault]:
    """The one path of the memory forms: translate base + disp under cr3,
    load the word into a register or store a register's value, and
    advance pc, in place.  Faults, in the order they are checked: a
    misaligned va, a misaligned root, the walk's own fault, a read-only
    entry on a store, an absent word."""
    if isinstance(instr, (MovRegFromMem, MovToCr3FromMem)):
        load, store = Reg.CR3 if dst is None else dst, None
    else:
        load, store = None, Reg.CR3 if src is None else src
    va = (state.reg(base) + instr.disp) % (1 << 64)
    if va % WORD_BYTES:
        return Misaligned(va)
    root = state.reg(Reg.CR3)
    if root % PAGE_SIZE:
        return Misaligned(root)
    mem = state.mem
    check_rw = store is not None and opts.enforce_rw
    steps = [] if check_rw else None
    pa = translate(root, mem, va, opts.set_accessed, steps)
    if not isinstance(pa, int):
        return pa
    if check_rw:
        for level, (_slot, entry) in zip((4, 3, 2, 1), steps):
            if not entry & PTE_WRITABLE:
                return ReadOnly(level, va)
    frame, off = pa >> 12, pa & 0xFFF
    word = state.read_word(frame, off)
    if isinstance(word, Fault):
        return word
    if store is None:
        state.regs[load] = word
    else:
        mem_set(mem, frame, off, state.reg(store))
    state.pc += 1
    return None


def execute(state: MachineState, instr: Instr,
            opts: StepOpts = DEFAULT_OPTS) -> Optional[Fault]:
    """Execute one instruction on `state` itself; None, or the fault.

    A control register in a data operand (``dst``, ``src`` or ``base``,
    checked in that order) faults before anything else.  At most one
    memory word changes, plus accessed bits when enabled, each through
    ``mem_set``, so an open journal (``Mem.journal``) lists it.  A
    fault changes no register or pc, only the accessed bits its walk set.
    """
    dst, src, base = instr.dst, instr.src, instr.base
    for operand in (dst, src, base):
        if operand is not None and not operand.is_data:
            return BadRegister(operand)
    regs = state.regs
    if isinstance(instr, MovRegReg):
        regs[dst] = state.reg(src)
    elif isinstance(instr, MovRegImm):
        regs[dst] = instr.imm
    elif isinstance(instr, AddRegImm):
        regs[dst] = (state.reg(dst) + instr.imm) % (1 << 64)
    elif isinstance(instr, MovToCr3FromReg):
        regs[Reg.CR3] = state.reg(src)
    elif isinstance(instr, MovRegFromCr3):
        regs[dst] = state.reg(Reg.CR3)
    elif isinstance(instr, MEM_FORMS):
        return _access_memory(state, instr, dst, src, base, opts)
    elif not isinstance(instr, Skip):
        raise TypeError(f"unknown instruction {instr!r}")
    state.pc += 1
    return None


def step(state: MachineState, instr: Instr,
         opts: StepOpts = DEFAULT_OPTS) -> Union[MachineState, Fault]:
    """The successor state of one instruction, or the fault: `execute` on
    a copy, so the input state is never modified."""
    nxt = state.copy()
    fault = execute(nxt, instr, opts)
    return nxt if fault is None else fault


def run(state: MachineState, program: Iterable[Instr],
        opts: StepOpts = DEFAULT_OPTS) -> Union[MachineState, tuple]:
    """Execute the program on a copy of `state`, halting at the end of the
    list.

    Returns the final state, or (pc, fault) for the first fault.
    """
    program = list(program)
    if not (0 <= state.pc <= len(program)):
        return (state.pc, PcOutOfRange(state.pc))
    current = state.copy()
    while current.pc < len(program):
        fault = execute(current, program[current.pc], opts)
        if fault is not None:
            return (current.pc, fault)
    return current


# --------------------------------------------------------------------------
# Table synthesis


def synth_tables(mappings: Iterable[tuple], alloc_base: int) -> tuple:
    """Build page tables realizing `mappings` and return (mem, root).

    ``mappings`` is a list of (va, pa, writable) with page-aligned pa;
    table frames are allocated sequentially starting at frame number
    ``alloc_base``, each filled with 512 zero entries.  Interior entries
    are present and writable; leaf entries carry the mapping's flag.
    Conflicting duplicate mappings are rejected.
    """
    mem: Mem = {}
    next_frame = alloc_base

    def alloc() -> int:
        nonlocal next_frame
        frame = next_frame
        next_frame += 1
        mem[frame] = dict(ZERO_FRAME)
        return frame

    root_frame = alloc()
    seen: dict = {}

    for va, pa, writable in mappings:
        if pa % PAGE_SIZE:
            raise ValueError(f"target {pa:#x} is not page aligned")
        page = va & ~(PAGE_SIZE - 1) & ((1 << 64) - 1)
        key = page
        if key in seen:
            if seen[key] != (pa, bool(writable)):
                raise ValueError(f"conflicting mappings for page {page:#x}")
            continue
        seen[key] = (pa, bool(writable))

        i4, i3, i2, i1, _ = split_va(va)
        table = root_frame
        for index in (i4, i3, i2):
            slot = index * WORD_BYTES
            entry = mem[table][slot]
            if not entry & PTE_PRESENT:
                child = alloc()
                mem[table][slot] = encode_pte(child, writable=True)
                table = child
            else:
                table = pte_frame(entry)
        slot = i1 * WORD_BYTES
        if mem[table][slot] & PTE_PRESENT:
            raise ValueError(f"conflicting mappings for page {page:#x}")
        mem[table][slot] = encode_pte(pa >> 12, writable=bool(writable))

    return mem, root_frame << 12
