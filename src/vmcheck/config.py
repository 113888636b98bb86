"""On-disk machine/ghost state: registers, memory words, the space
registry, and the allocation free list.  Serialized as JSON with all
numbers as 0x-hex strings; dumping is canonical (numeric key order), so
load-then-dump is byte-stable.  Loading rejects, with a ConfigError
naming the field, any section or inner map that is not an object, a
free list that is not a list, a number outside the grammar program text
uses (``parsing.signed_number``: 0x-hex or decimal ASCII digits), a word
outside [0, 2^64), a walk-map key or value that is not word aligned, a
space root or free-list entry that is not page aligned, and a frame,
offset, space root or walk-map key spelled two ways in one object.

A memory frame is decoded in bulk, each distinct word once, when every
offset is spelled as the dumper spells it (``0x0`` .. ``0xff8``) and
every distinct value is ``0x`` and 1 to 16 lower-case hex digits (one
pattern over the newline-joined distinct values, with one newline fewer
than values, so ``"0x1\\n0x2"`` cannot pass as two).  That pays because
page tables are sparse: every shipped and benchmark state is at least
99.5% ``0x0`` words.  Other frames are decoded word by word: any grammar
spelling loads, and every error names the first bad field as before."""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from itertools import repeat

from .machine import MachineState, Mem, PAGE_SIZE, Reg, WORD_BYTES
from .assertions import Registry
from .parsing import signed_number


class ConfigError(ValueError):
    pass


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


def _word(value, what: str) -> int:
    word = _num(value, what)
    if not (0 <= word < (1 << 64)):
        raise ConfigError(f"{what} {word:#x} is not a 64-bit word")
    return word


def _aligned_word(value, what: str) -> int:
    word = _word(value, what)
    if word % WORD_BYTES:
        raise ConfigError(f"{what} {word:#x} is not word aligned")
    return word


def _page_address(value, what: str) -> int:
    word = _word(value, what)
    if word % PAGE_SIZE:
        raise ConfigError(f"{what} {word:#x} is not page aligned")
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


def _frame_words(words: dict, frame: int) -> dict:
    """The {offset: word} map of one memory frame's JSON object."""
    try:
        offs = list(map(_SLOTS.__getitem__, words))
        values = list(words.values())
        distinct = set(values)
        joined = "\n".join(distinct)
    except (KeyError, TypeError):
        pass
    else:
        if (_HEX_WORDS.fullmatch(joined)
                and joined.count("\n") == len(distinct) - 1):
            table = dict(zip(distinct, map(int, distinct, repeat(16))))
            return dict(zip(offs, map(table.__getitem__, values)))
    inner = {}
    for off_text, val in words.items():
        off = _num(off_text, "memory offset")
        if off % WORD_BYTES or not (0 <= off < 4096):
            raise ConfigError(f"offset {off:#x} is not a word slot")
        _once(f"memory frame {frame:#x} offset", off, inner, words, off_text)
        inner[off] = _word(val, f"memory word {frame:#x}:{off:#x}")
    return inner


def load_config(text: str) -> StateConfig:
    try:
        body = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as err:
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

    memory = {}
    for frame_text, words in _shaped(body.get("memory", {}), dict,
                                     "memory").items():
        frame = _num(frame_text, "memory frame")
        if not (0 <= frame < (1 << 52)):
            raise ConfigError(f"frame {frame:#x} out of range")
        _once("memory frame", frame, memory, body["memory"], frame_text)
        memory[frame] = _frame_words(
            _shaped(words, dict, f"memory frame {frame:#x}"), frame)

    registry = {}
    for root_text, walks in _shaped(body.get("registry", {}), dict,
                                    "registry").items():
        root = _page_address(root_text, "space root")
        _once("space root", root, registry, body["registry"], root_text)
        theta = registry[root] = {}
        for va_text, pa_text in _shaped(walks, dict,
                                        f"walk map {root:#x}").items():
            va = _aligned_word(va_text, f"walk map {root:#x} key")
            _once(f"walk map {root:#x} key", va, theta, walks, va_text)
            theta[va] = _aligned_word(
                pa_text, f"walk map {root:#x} entry {va:#x} ->")

    free_list = tuple(_page_address(x, "free-list entry") for x in
                      _shaped(body.get("free_list", []), list, "free_list"))
    return StateConfig(registers=registers, memory=memory,
                       registry=registry, free_list=free_list)


def dump_config(cfg: StateConfig) -> str:
    body = {
        "registers": {reg.value: f"{val:#x}"
                      for reg, val in sorted(cfg.registers.items(),
                                             key=lambda kv: kv[0].value)},
        "memory": {
            f"{frame:#x}": {f"{off:#x}": f"{val:#x}"
                            for off, val in sorted(words.items())}
            for frame, words in sorted(cfg.memory.items())
        },
        "registry": {
            f"{root:#x}": {f"{va:#x}": f"{pa:#x}"
                           for va, pa in sorted(theta.items())}
            for root, theta in sorted(cfg.registry.items())
        },
        "free_list": [f"{x:#x}" for x in cfg.free_list],
    }
    return json.dumps(body, indent=2) + "\n"
