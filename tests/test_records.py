"""The value types are records: tagged tuples sharing one base.

Each record keeps the repr and the constructor signature it had as a
frozen dataclass (the table below was captured from those dataclasses),
compares unequal to a record of another class with equal fields, refuses
field assignment, and survives ``copy.copy`` and ``pickle``.  Exactly the
eight mutable or ``asdict``-rendered classes stay dataclasses.
"""

import copy
import dataclasses
import importlib
import inspect
import pickle
import pkgutil
from fractions import Fraction

import pytest

import vmcheck
from vmcheck.machine import (
    AddRegImm,
    BadRegister,
    FrameUnmapped,
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
    PcOutOfRange,
    ReadOnly,
    Record,
    Reg,
    Skip,
    StepOpts,
)
from vmcheck.assertions import (
    Emp,
    IASpace,
    L4L1PointsTo,
    OtherSpace,
    PhysLoc,
    PhysPt,
    PredAligned,
    PredEq,
    PredUnmapped,
    PtePt,
    Pure,
    RegLoc,
    RegPt,
    Sep,
    SpaceLoc,
    VirtPt,
    WalkLoc,
)
from vmcheck.checker import (
    AssertStep,
    CallStep,
    GhostInsertWalk,
    GhostPteToVirt,
    GhostRemoveWalk,
    GhostVirtToPte,
    StepRecord,
)

R = Reg

# (record, its repr, its constructor's parameters as (name,) or (name,
# default)), one row per value type
VALUE_TYPES = [
    (NotPresent(2, 0x400000), "NotPresent(level=2, va=4194304)",
     (("level",), ("va",))),
    (FrameUnmapped(0x103008), "FrameUnmapped(phys=1060872)", (("phys",),)),
    (Misaligned(0x7), "Misaligned(addr=7)", (("addr",),)),
    (ReadOnly(1, 0x600000), "ReadOnly(level=1, va=6291456)",
     (("level",), ("va",))),
    (BadRegister(R.CR3), "BadRegister(reg=<Reg.CR3: 'cr3'>)", (("reg",),)),
    (PcOutOfRange(3), "PcOutOfRange(pc=3)", (("pc",),)),
    (MovRegReg(R.RAX, R.RBX),
     "MovRegReg(dst=<Reg.RAX: 'rax'>, src=<Reg.RBX: 'rbx'>)",
     (("dst",), ("src",))),
    (MovRegImm(R.RCX, 0x10), "MovRegImm(dst=<Reg.RCX: 'rcx'>, imm=16)",
     (("dst",), ("imm",))),
    (AddRegImm(R.RDX, 8), "AddRegImm(dst=<Reg.RDX: 'rdx'>, imm=8)",
     (("dst",), ("imm",))),
    (MovRegFromMem(R.RSI, R.RDI, -8),
     "MovRegFromMem(dst=<Reg.RSI: 'rsi'>, base=<Reg.RDI: 'rdi'>, disp=-8)",
     (("dst",), ("base",), ("disp", 0))),
    (MovMemFromReg(R.RDI, 16, R.R14),
     "MovMemFromReg(base=<Reg.RDI: 'rdi'>, disp=16, src=<Reg.R14: 'r14'>)",
     (("base",), ("disp",), ("src",))),
    (MovToCr3FromReg(R.R8), "MovToCr3FromReg(src=<Reg.R8: 'r8'>)",
     (("src",),)),
    (MovRegFromCr3(R.R9), "MovRegFromCr3(dst=<Reg.R9: 'r9'>)", (("dst",),)),
    (MovMemFromCr3(R.RDI, 56), "MovMemFromCr3(base=<Reg.RDI: 'rdi'>, disp=56)",
     (("base",), ("disp", 0))),
    (MovToCr3FromMem(R.RSI, 56),
     "MovToCr3FromMem(base=<Reg.RSI: 'rsi'>, disp=56)",
     (("base",), ("disp", 0))),
    (Skip(), "Skip()", ()),
    (StepOpts(True, False), "StepOpts(enforce_rw=True, set_accessed=False)",
     (("enforce_rw", True), ("set_accessed", True))),
    (PredEq(1, 0x65), "PredEq(lhs=1, rhs=101)", (("lhs",), ("rhs",))),
    (PredAligned(0x400000), "PredAligned(addr=4194304)", (("addr",),)),
    (PredUnmapped(0x400000), "PredUnmapped(va=4194304)", (("va",),)),
    (Emp(), "Emp()", ()),
    (Pure(PredEq(3, 3)), "Pure(pred=PredEq(lhs=3, rhs=3))", (("pred",),)),
    (RegPt(R.R14, Fraction(1, 2), 5),
     "RegPt(reg=<Reg.R14: 'r14'>, q=Fraction(1, 2), val=5)",
     (("reg",), ("q",), ("val",))),
    (PhysPt(0x103, 8, 1, 0xaa),
     "PhysPt(frame=259, off=8, q=Fraction(1, 1), val=170)",
     (("frame",), ("off",), ("q",), ("val",))),
    (VirtPt(0x600000, Fraction(3, 4), 7),
     "VirtPt(va=6291456, q=Fraction(3, 4), val=7)",
     (("va",), ("q",), ("val",))),
    (PtePt(0x800008, 1, 0x103008, 0x200003),
     "PtePt(va=8388616, q=Fraction(1, 1), pa=1060872, val=2097155)",
     (("va",), ("q",), ("pa",), ("val",))),
    (L4L1PointsTo(0x201000, 0x101003, 0x102003, 0x103003, 0x9003, 0x9000),
     "L4L1PointsTo(va=2101248, l4e=1052675, l3e=1056771, l2e=1060867, "
     "l1e=36867, pa=36864)",
     (("va",), ("l4e",), ("l3e",), ("l2e",), ("l1e",), ("pa",))),
    (IASpace(), "IASpace()", ()),
    (OtherSpace(0x140000, IASpace()),
     "OtherSpace(root=1310720, body=IASpace())", (("root",), ("body",))),
    (Sep((IASpace(), Pure(PredAligned(0)))),
     "Sep(parts=(IASpace(), Pure(pred=PredAligned(addr=0))))", (("parts",),)),
    (GhostInsertWalk(0x400000, 0x200000),
     "GhostInsertWalk(va=4194304, pa=2097152)", (("va",), ("pa",))),
    (GhostRemoveWalk(0x400008), "GhostRemoveWalk(va=4194312)", (("va",),)),
    (GhostPteToVirt(0x400000), "GhostPteToVirt(va=4194304)", (("va",),)),
    (GhostVirtToPte(0x400000, 0x200000),
     "GhostVirtToPte(va=4194304, pa=2097152)", (("va",), ("pa",))),
    (CallStep("ensure_L1_page"), "CallStep(name='ensure_L1_page')",
     (("name",),)),
    (AssertStep(Emp()), "AssertStep(assertion=Emp())", (("assertion",),)),
]
# value types no dataclass had, in the same format: a fault, and the step
# record, whose repr is the one it had as a NamedTuple
NEW_TYPES = [(NonCanonical(0xFFFF_0000_0060_0000),
              "NonCanonical(va=18446462598739132416)", (("va",),)),
             (StepRecord(3, "cr3-switch-reg", ("reg:rax 1/2 0x7",), (),
                         0x1000, 0x2000),
              "StepRecord(index=3, rule='cr3-switch-reg', "
              "consumed=('reg:rax 1/2 0x7',), produced=(), "
              "root_before=4096, root_after=8192)",
              (("index",), ("rule",), ("consumed",), ("produced",),
               ("root_before",), ("root_after",)))]
LOCATIONS = [RegLoc(R.RAX), PhysLoc(5, 8), WalkLoc(0x1000, 8),
             SpaceLoc(0x1000)]

KEPT_DATACLASSES = {"Ledger", "MachineState", "StateConfig", "Report",
                    "Violation", "CaseStudy", "StubSpec", "MismatchReport"}


def _classes():
    """Every class defined in a vmcheck module."""
    for info in pkgutil.iter_modules(vmcheck.__path__):
        module = importlib.import_module(f"vmcheck.{info.name}")
        for value in vars(module).values():
            if isinstance(value, type) and value.__module__ == module.__name__:
                yield value


def test_the_table_has_one_row_per_value_type():
    assert len(VALUE_TYPES) == 36
    records = {cls for cls in _classes()
               if issubclass(cls, Record) and "__new__" in vars(cls)}
    assert records == {type(r) for r, _, _ in VALUE_TYPES + NEW_TYPES} | \
        {type(loc) for loc in LOCATIONS}


def test_exactly_the_eight_kept_classes_are_dataclasses():
    # the classes that ``dataclass`` processed; CheckState is a Ledger and
    # inherits its fields, processing none of its own
    made = [cls.__name__ for cls in _classes()
            if dataclasses.is_dataclass(cls)
            and "__dataclass_fields__" in vars(cls)]
    assert sorted(made) == sorted(KEPT_DATACLASSES)


@pytest.mark.parametrize("record, shown, params", VALUE_TYPES + NEW_TYPES,
                         ids=lambda v: type(v).__name__)
def test_a_value_type_keeps_its_repr_signature_and_tuple_contract(
        record, shown, params):
    cls = type(record)
    assert isinstance(record, Record) and repr(record) == shown
    signature = inspect.signature(cls).parameters.values()
    assert tuple((p.name,) if p.default is p.empty else (p.name, p.default)
                 for p in signature) == params
    assert all(p.kind is p.POSITIONAL_OR_KEYWORD for p in signature)
    fields = {name: getattr(record, name) for name, *_ in params}
    assert cls(**fields) == record == cls(*fields.values())
    assert hash(record) == hash(tuple(record))
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(record, name, fields[name])
    for twin in (copy.copy(record), pickle.loads(pickle.dumps(record))):
        assert type(twin) is cls and twin == record and repr(twin) == shown


def test_records_of_different_classes_with_equal_fields_are_unequal():
    records = [r for r, _, _ in VALUE_TYPES + NEW_TYPES] + LOCATIONS
    tags = {type(r): r[0] for r in records}
    assert len(set(tags.values())) == len(tags)
    assert [loc[0] for loc in LOCATIONS] == [0, 1, 2, 3]
    for group in ([Emp(), IASpace(), Skip()],
                  [NotPresent(2, 8), ReadOnly(2, 8), PhysLoc(2, 8),
                   WalkLoc(2, 8), PredEq(2, 8), GhostInsertWalk(16, 8),
                   GhostVirtToPte(16, 8)],
                  [Misaligned(8), FrameUnmapped(8), PcOutOfRange(8),
                   NonCanonical(8), PredAligned(8), PredUnmapped(8),
                   SpaceLoc(8), GhostRemoveWalk(8), GhostPteToVirt(8)],
                  [BadRegister(R.RAX), RegLoc(R.RAX), MovRegFromCr3(R.RAX),
                   MovToCr3FromReg(R.RAX)]):
        assert len(set(group)) == len(group)
        assert all(a != b for a in group for b in group if a is not b)
