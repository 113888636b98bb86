"""The opt-in benchmark tracer wraps vmcheck functions by name from
outside the package, so a rename here must not leave one of its hooks
pointing at nothing (``perfbench/run.py --trace 1`` would fail)."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_tracer_hook_names_a_vmcheck_function():
    missing = []
    for mod_name, attr, _span, _count in _load_tracing().HOOKS:
        owner = importlib.import_module(f"vmcheck.{mod_name}")
        if "." in attr:
            # methods are looked up in the class's own namespace
            cls_name, meth = attr.split(".")
            cls = getattr(owner, cls_name, None)
            target = None if cls is None else vars(cls).get(meth)
        else:
            target = getattr(owner, attr, None)
        if not callable(target):
            missing.append(f"{mod_name}.{attr}")
    assert missing == []
