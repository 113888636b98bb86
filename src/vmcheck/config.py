"""On-disk machine/ghost state: registers, memory words, the space
registry, and the allocation free list.  Serialized as JSON with all
numbers as 0x-hex strings; dumping is canonical (numeric key order), so
load-then-dump is byte-stable.  Loading rejects, with a ConfigError
naming the field, any section or inner map that is not an object, a
free list that is not a list, a number outside the grammar program text
uses (``parsing.signed_number``: 0x-hex or decimal ASCII digits), and a
frame, offset, space root or walk-map key spelled two ways in one object.
One reader, ``_word``, checks a word's width and alignment where it is
read: every word in [0, 2^64), walk-map keys and values word aligned,
space roots and free-list entries page aligned; a walk-map key must also
be a canonical va (``machine.is_canonical``).

A memory frame's object may give ``"*"`` a word, held by each slot
(``0x0`` .. ``0xff8``) it does not list; the dumper writes it first in
every frame of all 512 slots, holding the frame's most common word.  A
frame that lists every slot loads as one whose ``"*"`` is ``0x0`` (the
word of 99.5% of a benchmark state), which starts as a copy of one
all-zero frame.  The words listed at slots are read at once when each is
spelled as the dumper spells it (``0x`` and 1 to 16 lower-case hex
digits): one pattern over the newline-joined texts, with one newline
fewer than texts, so ``"0x1\\n0x2"`` cannot pass as two.  Everything
else, walk maps included, is read word by word, so any grammar spelling
loads, and every error names the first bad field."""

from __future__ import annotations

import json
import re
from collections import Counter
from dataclasses import dataclass, field
from itertools import repeat

from .machine import (MachineState, Mem, PAGE_SIZE, Reg, WORD_BYTES,
                      is_canonical)
from .machine import ZERO_FRAME as _ZERO_FRAME
from .assertions import Registry
from .checker import json_text
from .parsing import signed_number


class ConfigError(ValueError):
    pass


class _JsonInt:
    """An unquoted JSON integer as its digits, which no reader takes, so
    its refusal names its field (int() refuses a long one unread)."""

    def __init__(self, digits: str):
        self.digits = digits

    def __repr__(self) -> str:
        return self.digits


_DECODER = json.JSONDecoder(parse_int=_JsonInt)


@dataclass
class StateConfig:
    registers: dict = field(default_factory=dict)  # {Reg: int}
    memory: dict = field(default_factory=dict)  # {frame: {off: word}}
    registry: Registry = field(default_factory=dict)
    free_list: tuple = ()

    def to_machine_state(self) -> MachineState:
        """A machine state sharing this config's frames copy-on-write: a
        frame is copied on the machine's first write to it."""
        return MachineState(regs=dict(self.registers),
                            mem=Mem(self.memory, set()))

    @classmethod
    def of(cls, state: MachineState, registry: Registry,
           free_list=()) -> "StateConfig":
        return cls(registers=dict(state.regs),
                   memory={f: dict(w) for f, w in state.mem.items()},
                   registry={r: dict(t) for r, t in registry.items()},
                   free_list=tuple(free_list))


def _num(value, what: str) -> int:
    if not isinstance(value, str):
        raise ConfigError(f"{what} must be a 0x-hex string, got {value!r}")
    number = signed_number(value)
    if number is None:
        raise ConfigError(f"bad number {value!r} for {what}")
    return number


_HEX_WORD = re.compile(r"0x[0-9a-f]{1,16}").fullmatch


def _word(value, what: str, align: int = 1) -> int:
    """A 64-bit word that `align` (1, WORD_BYTES or PAGE_SIZE) divides.
    The dumper's spelling, ``0x`` and 1 to 16 lower-case hex digits, is
    read by ``int`` at once; any other goes through ``_num``."""
    if isinstance(value, str) and _HEX_WORD(value):
        word = int(value, 16)
    else:
        word = _num(value, what)
        if not (0 <= word < (1 << 64)):
            raise ConfigError(f"{what} {word:#x} is not a 64-bit word")
    if word % align:
        unit = "page" if align == PAGE_SIZE else "word"
        raise ConfigError(f"{what} {word:#x} is not {unit} aligned")
    return word


def _shaped(value, kind, what: str):
    """`value`, which must be a JSON object (kind=dict) or list."""
    if not isinstance(value, kind):
        raise ConfigError(f"{what} must be a JSON "
                          f"{'list' if kind is list else 'object'}")
    return value


def _once(what: str, number: int, done: dict, keys, text: str) -> None:
    """Refuse key `text` of `keys` when `done` has its number already."""
    if number in done:
        first = next(key for key in keys if signed_number(key) == number)
        raise ConfigError(f"{what} {number:#x} spelled {first!r} and {text!r}")


_SLOTS = {f"{off:#x}": off for off in range(0, PAGE_SIZE, WORD_BYTES)}
_HEX_WORDS = re.compile(r"0x[0-9a-f]{1,16}(?:\n0x[0-9a-f]{1,16})*")


def _slot_words(words: dict, frame: int) -> dict:
    """The {offset: word} map of the offsets a frame's object lists: read at
    once when they are slots spelled as the dumper spells them."""
    texts = list(words.values())
    try:
        joined = "\n".join(texts)
    except TypeError:
        joined = ""  # a value that is no str: no pattern matches
    if words.keys() <= _SLOTS.keys() and (not texts or (
            _HEX_WORDS.fullmatch(joined)
            and joined.count("\n") == len(texts) - 1)):
        return dict(zip(map(_SLOTS.__getitem__, words),
                        map(int, texts, repeat(16))))
    inner = {}
    for off_text, val in words.items():
        off = _num(off_text, "memory offset")
        if off % WORD_BYTES or not (0 <= off < 4096):
            raise ConfigError(f"offset {off:#x} is not a word slot")
        _once(f"memory frame {frame:#x} offset", off, inner, words, off_text)
        inner[off] = _word(val, f"memory word {frame:#x}:{off:#x}")
    return inner


def _frame_words(words: dict, frame: int, slots: list) -> dict:
    """The {offset: word} map of a frame's JSON object; one that lists
    every slot is read as ``"*"`` 0x0 and its other words.  `slots[0]` is
    this load's last such key list: the decoder makes one str of each key
    text, so a dump's next full frame equals it object for object."""
    keys = list(words)
    if len(keys) == len(_ZERO_FRAME) and (
            keys == slots[0] or words.keys() <= _SLOTS.keys()):
        slots[0] = keys
        words = {"*": "0x0", **{k: v for k, v in words.items() if v != "0x0"}}
    if "*" not in words:
        return _slot_words(words, frame)
    inner = _ZERO_FRAME.copy() if words["*"] == "0x0" else dict.fromkeys(
        _ZERO_FRAME, _word(words["*"], f"memory word {frame:#x}:*"))
    inner.update(_slot_words({k: v for k, v in words.items() if k != "*"},
                             frame))
    return inner


def load_config(text: str) -> StateConfig:
    try:
        body = _DECODER.decode(text)
    except (ValueError, RecursionError) as err:
        # a RecursionError: arrays or objects nested too deeply to decode
        raise ConfigError(f"not valid JSON: {err}") from None
    if not isinstance(body, dict):
        raise ConfigError("top level must be an object")

    registers = {}
    for name, value in _shaped(body.get("registers", {}), dict,
                               "registers").items():
        try:
            reg = Reg(name)
        except ValueError:
            raise ConfigError(f"unknown register {name!r}") from None
        registers[reg] = _word(value, f"register {name}")

    memory, slots = {}, [list(_SLOTS)]
    for frame_text, words in _shaped(body.get("memory", {}), dict,
                                     "memory").items():
        frame = _num(frame_text, "memory frame")
        if not (0 <= frame < (1 << 52)):
            raise ConfigError(f"frame {frame:#x} out of range")
        _once("memory frame", frame, memory, body["memory"], frame_text)
        memory[frame] = _frame_words(
            _shaped(words, dict, f"memory frame {frame:#x}"), frame, slots)

    registry = {}
    for root_text, entries in _shaped(body.get("registry", {}), dict,
                                      "registry").items():
        root = _word(root_text, "space root", PAGE_SIZE)
        _once("space root", root, registry, body["registry"], root_text)
        theta = registry[root] = {}
        for va_text, pa_text in _shaped(entries, dict,
                                        f"walk map {root:#x}").items():
            va = _word(va_text, f"walk map {root:#x} key", WORD_BYTES)
            if not is_canonical(va):
                raise ConfigError(f"walk map {root:#x} key {va:#x} is not "
                                  "canonical")
            _once(f"walk map {root:#x} key", va, theta, entries, va_text)
            theta[va] = _word(pa_text, f"walk map {root:#x} entry {va:#x} ->",
                              WORD_BYTES)

    free_list = tuple(_word(x, "free-list entry", PAGE_SIZE) for x in
                      _shaped(body.get("free_list", []), list, "free_list"))
    return StateConfig(registers=registers, memory=memory,
                       registry=registry, free_list=free_list)


def _dumped_frame(words: dict) -> dict:
    """A frame's JSON object: for a frame of every slot, "*" holding its
    most common word (the least on a tie), then only the other words."""
    star = (Counter(sorted(words.values())).most_common(1)[0][0]
            if len(words) == len(_ZERO_FRAME) else None)
    return {**({} if star is None else {"*": f"{star:#x}"}),
            **{f"{off:#x}": f"{val:#x}" for off, val in sorted(words.items())
               if val != star}}


def dump_config(cfg: StateConfig) -> str:
    body = {
        "registers": {reg.value: f"{val:#x}"
                      for reg, val in sorted(cfg.registers.items(),
                                             key=lambda kv: kv[0].value)},
        "memory": {f"{frame:#x}": _dumped_frame(words)
                   for frame, words in sorted(cfg.memory.items())},
        "registry": {
            f"{root:#x}": {f"{va:#x}": f"{pa:#x}"
                           for va, pa in sorted(theta.items())}
            for root, theta in sorted(cfg.registry.items())
        },
        "free_list": [f"{x:#x}" for x in cfg.free_list],
    }
    return json_text(body) + "\n"
