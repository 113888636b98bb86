"""Seeded script generator for the ``multispace_text`` workload.

Scripts are built by construction from this module's own model of
registers, fractional shares and address spaces; the checker is never
consulted.  Each script carries its known answer: accepted, or the
violation kind, step and location its last step must produce.

The fixture is three address spaces over one physical memory, built
with ``vmcheck.machine.synth_tables`` (about 4.6k words):

* space A maps a data page, a page it shares physically with B, and a
  context page holding the three roots (for ``mov cr3, [reg+disp]``);
* space B maps the shared page and the context page;
* space C maps nothing.

Scripts start in A with the invariant witness of every space, and mix
register moves, loads beside stores, ``cr3`` switches through a
register and through memory, assertions with ``[r](P)`` wrappers, and
walk removals.  About a quarter end in one of five known-bad steps.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from fractions import Fraction

PAGE = 4096
FULL = Fraction(1)
HALF = Fraction(1, 2)

ROOT_A = 0x100 << 12
ROOT_B = 0x180 << 12
ROOT_C = 0x1C0 << 12
ROOTS = (ROOT_A, ROOT_B, ROOT_C)

DATA_VA = 0x20_0000     # A: -> DATA_PA
SHARED_VA = 0x20_1000   # A: -> SHARED_PA;  B maps DATA_VA -> SHARED_PA
CTX_VA = 0x30_0000      # A and B: -> CTX_PA
DATA_PA = 0x5000
SHARED_PA = 0x6000
CTX_PA = 0x7000
UNMAPPED_VA = 0x40_0000
WORDS = 4               # walk-map words per mapped data page

DATA_REGS = ("rax", "rbx", "rcx", "rdx", "rsi", "rdi", "rbp", "rsp",
             "r8", "r9", "r10", "r11", "r12", "r13", "r14", "r15")

# the five rejection kinds every run must contain
BAD_KINDS = ("frame_assert", "stranded_load", "half_store", "unknown_root",
             "unclaimed_load")
BAD_VERDICT = {
    "frame_assert": "UnsoundFrame",
    "stranded_load": "UnsoundFrame",
    "half_store": "InsufficientFraction",
    "unknown_root": "UnknownRoot",
    "unclaimed_load": "MissingResource",
}


def walk_maps() -> dict:
    """The fixture's walk maps, {root: {va: pa}}, word by word."""
    theta_a, theta_b = {}, {}
    for k in range(WORDS):
        theta_a[DATA_VA + 8 * k] = DATA_PA + 8 * k
        theta_a[SHARED_VA + 8 * k] = SHARED_PA + 8 * k
        theta_b[DATA_VA + 8 * k] = SHARED_PA + 8 * k
    for k in range(4):
        theta_a[CTX_VA + 8 * k] = CTX_PA + 8 * k
        theta_b[CTX_VA + 8 * k] = CTX_PA + 8 * k
    return {ROOT_A: theta_a, ROOT_B: theta_b, ROOT_C: {}}


def build_tables(synth_tables) -> dict:
    """Page tables of the three spaces merged into one memory map."""
    mem_a, root_a = synth_tables(
        [(DATA_VA, DATA_PA, True), (SHARED_VA, SHARED_PA, True),
         (CTX_VA, CTX_PA, True)], alloc_base=ROOT_A >> 12)
    mem_b, root_b = synth_tables(
        [(DATA_VA, SHARED_PA, True), (CTX_VA, CTX_PA, True)],
        alloc_base=ROOT_B >> 12)
    mem_c, root_c = synth_tables([], alloc_base=ROOT_C >> 12)
    if (root_a, root_b, root_c) != ROOTS:
        raise RuntimeError("fixture roots moved; update ROOT_A/B/C")
    mem = {}
    for part in (mem_a, mem_b, mem_c):
        mem.update(part)
    return mem


# --------------------------------------------------------------------------
# Script model


@dataclass
class Model:
    """What the ledger and the machine hold, as this generator sees it."""

    root: int
    regs: dict                  # name -> [share, value]; claimed regs only
    walk: dict                  # (root, va) -> share
    phys: dict                  # pa -> share
    words: dict                 # pa -> value (data words of the machine)
    theta: dict                 # root -> {va: pa}
    switched: bool = False
    features: set = field(default_factory=set)

    def pa_of(self, root: int, va: int):
        return self.theta[root].get(va)

    def current_vas(self):
        """Current-space vas with both a walk and a data claim."""
        return sorted(va for (r, va) in self.walk if r == self.root
                      and self.theta[r].get(va) in self.phys)

    def stranded_vas(self):
        """Vas claimed only under some other root."""
        here = {va for (r, va) in self.walk if r == self.root}
        return sorted({va for (r, va) in self.walk
                       if r != self.root and va not in here})

    def full_regs(self):
        return sorted(r for r, (q, _v) in self.regs.items() if q == FULL)


@dataclass
class Script:
    """One generated check: files' text, instructions, known answer."""

    prog: str
    pre: str
    regs: dict                  # initial data registers, name -> value
    words: dict                 # initial data words, pa -> value
    registry: dict              # initial walk maps, root -> {va: pa}
    ops: list                   # machine-level ops, see to_instrs
    expect: dict                # {"ok": bool, kind/step/location | root}
    theta: dict                 # walk maps after the script
    features: set


class _Builder:
    def __init__(self, rng: random.Random, model: Model):
        self.rng = rng
        self.m = model
        self.lines = []
        self.ops = []

    # -- emit ------------------------------------------------------------

    def emit(self, text: str, op=None) -> int:
        self.lines.append(text)
        if op is not None:
            self.ops.append(op)
        return len(self.lines) - 1

    def set_reg(self, reg: str, value: int) -> None:
        self.m.regs[reg][1] = value

    # -- helpers ---------------------------------------------------------

    def pick_full(self, avoid=()) -> str:
        choices = [r for r in self.m.full_regs() if r not in avoid]
        return self.rng.choice(choices)

    def base_for(self, va: int, avoid=()):
        """A claimed register within displacement reach of va, loading
        one with an immediate when none is."""
        near = [r for r, (_q, v) in sorted(self.m.regs.items())
                if r not in avoid and 0 <= va - v < PAGE and (va - v) % 8 == 0]
        if near and self.rng.random() < 0.7:
            reg = self.rng.choice(near)
        else:
            reg = self.pick_full(avoid)
            base = va & ~(PAGE - 1)
            self.emit(f"mov {reg}, {base:#x}", ("imm", reg, base))
            self.set_reg(reg, base)
        return reg, va - self.m.regs[reg][1]

    @staticmethod
    def mem_text(base: str, disp: int) -> str:
        return f"[{base}+{disp}]" if disp else f"[{base}]"

    def switch_via_reg(self, target: int) -> None:
        reg = self.pick_full()
        self.emit(f"mov {reg}, {target:#x}", ("imm", reg, target))
        self.set_reg(reg, target)
        self.emit(f"mov cr3, {reg}", ("cr3_reg", reg))
        self.m.root = target
        self.m.switched = True
        self.m.features.add("cr3_reg")

    # -- valid steps -----------------------------------------------------

    def reg_op(self) -> None:
        rng = self.rng
        dst = self.pick_full()
        kind = rng.choice(("imm", "mov", "add", "cr3_read"))
        if kind == "imm":
            imm = rng.randrange(1 << 32)
            self.emit(f"mov {dst}, {imm:#x}", ("imm", dst, imm))
            self.set_reg(dst, imm)
        elif kind == "mov":
            src = rng.choice(sorted(self.m.regs))
            self.emit(f"mov {dst}, {src}", ("mov", dst, src))
            self.set_reg(dst, self.m.regs[src][1])
        elif kind == "add":
            imm = 8 * rng.randrange(1, 64)
            self.emit(f"add {dst}, {imm:#x}", ("add", dst, imm))
            self.set_reg(dst, (self.m.regs[dst][1] + imm) % (1 << 64))
        else:
            self.emit(f"mov {dst}, cr3", ("cr3_read", dst))
            self.set_reg(dst, self.m.root)
        self.m.features.add("reg")

    def load(self) -> bool:
        vas = self.m.current_vas()
        if not vas:
            return False
        va = self.rng.choice(vas)
        base, disp = self.base_for(va)
        dst = self.pick_full()
        self.emit(f"mov {dst}, {self.mem_text(base, disp)}",
                  ("load", dst, base, disp))
        self.set_reg(dst, self.m.words[self.m.pa_of(self.m.root, va)])
        self.m.features.add("load")
        return True

    def store(self) -> bool:
        vas = [va for va in self.m.current_vas()
               if self.m.phys[self.m.pa_of(self.m.root, va)] == FULL]
        if not vas:
            return False
        va = self.rng.choice(vas)
        base, disp = self.base_for(va)
        pa = self.m.pa_of(self.m.root, va)
        if self.rng.random() < 0.2:
            self.emit(f"mov {self.mem_text(base, disp)}, cr3",
                      ("store_cr3", base, disp))
            self.m.words[pa] = self.m.root
        else:
            src = self.rng.choice(sorted(self.m.regs))
            self.emit(f"mov {self.mem_text(base, disp)}, {src}",
                      ("store", base, disp, src))
            self.m.words[pa] = self.m.regs[src][1]
        self.m.features.add("store")
        return True

    def switch(self) -> None:
        targets = [r for r in ROOTS if r != self.m.root]
        via_mem = [va for va in self.m.current_vas()
                   if self.m.words[self.m.pa_of(self.m.root, va)] in targets]
        if via_mem and self.rng.random() < 0.6:
            va = self.rng.choice(via_mem)
            base, disp = self.base_for(va)
            self.emit(f"mov cr3, {self.mem_text(base, disp)}",
                      ("cr3_mem", base, disp))
            self.m.root = self.m.words[self.m.pa_of(self.m.root, va)]
            self.m.switched = True
            self.m.features.add("cr3_mem")
        else:
            self.switch_via_reg(self.rng.choice(targets))

    def assertion(self) -> None:
        rng = self.rng
        parts = []
        for reg in rng.sample(sorted(self.m.regs), 2):
            q, v = self.m.regs[reg]
            parts.append(f"{reg} |->r {_share(q)}{v:#x}")
        used_pa = set()
        claims = sorted(self.m.walk.items())
        rng.shuffle(claims)
        wrapped = False
        for (root, va), q in claims[:4]:
            pa = self.m.pa_of(root, va)
            if pa in used_pa:
                continue
            used_pa.add(pa)
            leaf = f"{va:#x} |->v {_share(q)}{self.m.words[pa]:#x}"
            if root != self.m.root:
                leaf = f"[{root:#x}]({leaf})"
                wrapped = True
            parts.append(leaf)
        if rng.random() < 0.5:
            other = rng.choice([r for r in ROOTS if r != self.m.root])
            parts.append(f"[{other:#x}](iaspace)")
            wrapped = True
        parts.append("iaspace")
        rng.shuffle(parts)
        self.emit("@assert { " + " * ".join(parts) + " }")
        self.m.features.add("assert")
        if wrapped:
            self.m.features.add("assert_wrapped")

    def remove_walk(self) -> bool:
        vas = [va for va in self.m.current_vas()
               if self.m.walk[(self.m.root, va)] == FULL
               and self.m.words[self.m.pa_of(self.m.root, va)] not in ROOTS]
        if not vas:
            return False
        va = self.rng.choice(vas)
        self.emit(f"@ghost remove_walk va={va:#x}")
        del self.m.walk[(self.m.root, va)]
        del self.m.theta[self.m.root][va]
        self.m.features.add("remove_walk")
        return True

    def valid_step(self) -> None:
        roll = self.rng.random()
        if roll < 0.25:
            self.reg_op()
        elif roll < 0.45:
            self.load() or self.reg_op()
        elif roll < 0.62:
            self.store() or self.reg_op()
        elif roll < 0.77:
            self.switch()
        elif roll < 0.93:
            self.assertion()
        else:
            self.remove_walk() or self.reg_op()

    # -- known-bad last steps --------------------------------------------

    def bad_step(self, kind: str) -> dict:
        m = self.m
        if kind in ("frame_assert", "stranded_load"):
            if not m.switched or not m.stranded_vas():
                # C claims nothing, so every claimed va is stranded there
                self.switch_via_reg(ROOT_C if m.root != ROOT_C else ROOT_A)
            va = self.rng.choice(m.stranded_vas())
            location = f"walk:{m.root:#x}:{va:#x}"
            if kind == "frame_assert":
                step = self.emit(f"@assert {{ {va:#x} |->v 0x0 }}")
            else:
                base, disp = self.base_for(va)
                dst = self.pick_full(avoid=(base,))
                step = self.emit(f"mov {dst}, {self.mem_text(base, disp)}")
        elif kind == "half_store":
            if m.root != ROOT_A:
                self.switch_via_reg(ROOT_A)
            vas = [va for va in m.current_vas()
                   if m.phys[m.pa_of(m.root, va)] < FULL]
            va = self.rng.choice(vas)
            pa = m.pa_of(m.root, va)
            base, disp = self.base_for(va)
            src = self.rng.choice(sorted(m.regs))
            step = self.emit(f"mov {self.mem_text(base, disp)}, {src}")
            location = f"phys:{pa >> 12:#x}:{pa & (PAGE - 1):#x}"
        elif kind == "unknown_root":
            target = PAGE * self.rng.randrange(0x400, 0x800)
            reg = self.pick_full()
            self.emit(f"mov {reg}, {target:#x}", ("imm", reg, target))
            self.set_reg(reg, target)
            step = self.emit(f"mov cr3, {reg}")
            location = f"{target:#x}"
        elif kind == "unclaimed_load":
            claimed = {va for (_r, va) in m.walk}
            vas = [va for va in sorted(m.theta[m.root]) if va not in claimed]
            vas.append(UNMAPPED_VA + 8 * self.rng.randrange(512))
            va = self.rng.choice(vas)
            base, disp = self.base_for(va)
            dst = self.pick_full(avoid=(base,))
            step = self.emit(f"mov {dst}, {self.mem_text(base, disp)}")
            location = f"walk:{m.root:#x}:{va:#x}"
        else:
            raise ValueError(f"unknown bad kind {kind!r}")
        self.m.features.add(kind)
        return {"ok": False, "kind": BAD_VERDICT[kind], "step": step,
                "location": location}


def _share(q: Fraction) -> str:
    return "" if q == FULL else f"{{{q.numerator}/{q.denominator}}} "


# --------------------------------------------------------------------------
# Initial state and precondition


def _initial(rng: random.Random):
    """Random register values, data words and claim split for one script.
    Returns (model, precondition text, initial data registers)."""
    theta = walk_maps()
    words = {}
    for k in range(WORDS):
        words[DATA_PA + 8 * k] = rng.randrange(1 << 32)
        words[SHARED_PA + 8 * k] = rng.randrange(1 << 32)
    words[CTX_PA] = ROOT_A
    words[CTX_PA + 8] = ROOT_B
    words[CTX_PA + 16] = ROOT_C
    words[CTX_PA + 24] = 0

    machine_regs = {r: rng.randrange(1 << 32) for r in DATA_REGS}
    regs = {}
    names = list(DATA_REGS)
    rng.shuffle(names)
    for r in names[:10]:
        regs[r] = [FULL, machine_regs[r]]
    for r in names[10:12]:
        regs[r] = [HALF, machine_regs[r]]

    walk, phys = {}, {}

    def claim(root, va, q):
        walk[(root, va)] = q
        pa = theta[root][va]
        phys[pa] = phys.get(pa, 0) + q

    for k in range(WORDS):
        # the last data word is always half-held: the half_store target
        roll = 0.7 if k == WORDS - 1 else rng.random()
        if roll < 0.6:
            claim(ROOT_A, DATA_VA + 8 * k, FULL)
        elif roll < 0.85:
            claim(ROOT_A, DATA_VA + 8 * k, HALF)
        roll = rng.random()
        if roll < 0.3:
            claim(ROOT_A, SHARED_VA + 8 * k, FULL)
        elif roll < 0.6:
            claim(ROOT_B, DATA_VA + 8 * k, FULL)
        elif roll < 0.85:
            claim(ROOT_A, SHARED_VA + 8 * k, HALF)
            claim(ROOT_B, DATA_VA + 8 * k, HALF)
    claim(ROOT_A, CTX_VA + 8, FULL)      # holds ROOT_B
    claim(ROOT_A, CTX_VA + 16, FULL)     # holds ROOT_C
    claim(ROOT_A, CTX_VA + 24, FULL)     # scratch word for cr3 stores
    claim(ROOT_B, CTX_VA, FULL)          # holds ROOT_A

    model = Model(root=ROOT_A, regs=regs, walk=walk, phys=phys,
                  words=words, theta=theta)

    parts = ["iaspace", f"[{ROOT_B:#x}](iaspace)", f"[{ROOT_C:#x}](iaspace)"]
    for r in sorted(regs):
        q, v = regs[r]
        parts.append(f"{r} |->r {_share(q)}{v:#x}")
    for (root, va), q in sorted(walk.items()):
        leaf = f"{va:#x} |->v {_share(q)}{words[theta[root][va]]:#x}"
        parts.append(leaf if root == ROOT_A else f"[{root:#x}]({leaf})")
    return model, " * ".join(parts) + "\n", machine_regs


def generate_one(rng: random.Random, steps: int, bad_kind=None) -> Script:
    model, pre, regs = _initial(rng)
    words = dict(model.words)
    registry = {r: dict(t) for r, t in model.theta.items()}
    b = _Builder(rng, model)
    prefix = steps if bad_kind is None else rng.randrange(steps // 3, steps)
    while len(b.lines) < prefix:
        b.valid_step()
    if bad_kind is None:
        expect = {"ok": True, "root": model.root}
    else:
        expect = b.bad_step(bad_kind)
    return Script(prog="\n".join(b.lines) + "\n", pre=pre, regs=regs,
                  words=words, registry=registry, ops=b.ops, expect=expect,
                  theta=model.theta, features=set(model.features))


def generate(seed: int, count: int, steps: int = 24) -> list:
    """`count` scripts from `seed`; every fourth ends in a known-bad step,
    cycling through the five kinds.  Fails loudly when the mix lacks a
    rejection kind, a cr3 switch through a register or through memory,
    or any other kind of step."""
    rng = random.Random(seed)
    scripts = []
    for i in range(count):
        bad = BAD_KINDS[(i // 4) % len(BAD_KINDS)] if i % 4 == 3 else None
        scripts.append(generate_one(rng, steps, bad))
    seen = set().union(*(s.features for s in scripts))
    missing = [f for f in BAD_KINDS + ("reg", "load", "store", "cr3_reg",
                                       "cr3_mem", "assert", "assert_wrapped",
                                       "remove_walk")
               if f not in seen]
    if missing:
        raise RuntimeError(f"seed {seed}: generated mix lacks {missing}; "
                           "raise the script count")
    return scripts


def initial_memory(script: Script, tables: dict) -> dict:
    """{frame: {offset: word}}: the shared tables plus the script's data."""
    mem = {frame: dict(words) for frame, words in tables.items()}
    for pa, val in script.words.items():
        mem.setdefault(pa >> 12, {})[pa & (PAGE - 1)] = val
    return mem


def write(script: Script, stem, tables: dict) -> tuple:
    """Write the .prog / .pre / .state.json files; returns their paths."""
    registers = {r: f"{v:#x}" for r, v in script.regs.items()}
    registers["cr3"] = f"{ROOT_A:#x}"
    state = {
        "registers": registers,
        "memory": {f"{frame:#x}": {f"{off:#x}": f"{val:#x}"
                                   for off, val in sorted(words.items())}
                   for frame, words in sorted(
                       initial_memory(script, tables).items())},
        "registry": {f"{root:#x}": {f"{va:#x}": f"{pa:#x}"
                                    for va, pa in sorted(t.items())}
                     for root, t in sorted(script.registry.items())},
        "free_list": [],
    }
    paths = (f"{stem}.prog", f"{stem}.pre", f"{stem}.state.json")
    with open(paths[0], "w") as f:
        f.write(script.prog)
    with open(paths[1], "w") as f:
        f.write(script.pre)
    with open(paths[2], "w") as f:
        json.dump(state, f, indent=2)
        f.write("\n")
    return paths


# --------------------------------------------------------------------------
# Machine-level replay of a script's instructions


def to_instrs(ops: list, machine) -> list:
    """The script's instructions as ``vmcheck.machine`` objects."""
    R = machine.Reg
    out = []
    for op in ops:
        kind = op[0]
        if kind == "imm":
            out.append(machine.MovRegImm(R(op[1]), op[2]))
        elif kind == "mov":
            out.append(machine.MovRegReg(R(op[1]), R(op[2])))
        elif kind == "add":
            out.append(machine.AddRegImm(R(op[1]), op[2]))
        elif kind == "cr3_read":
            out.append(machine.MovRegFromCr3(R(op[1])))
        elif kind == "load":
            out.append(machine.MovRegFromMem(R(op[1]), R(op[2]), op[3]))
        elif kind == "store":
            out.append(machine.MovMemFromReg(R(op[1]), op[2], R(op[3])))
        elif kind == "store_cr3":
            out.append(machine.MovMemFromCr3(R(op[1]), op[2]))
        elif kind == "cr3_reg":
            out.append(machine.MovToCr3FromReg(R(op[1])))
        elif kind == "cr3_mem":
            out.append(machine.MovToCr3FromMem(R(op[1]), op[2]))
        else:
            raise ValueError(f"unknown op {op!r}")
    return out
