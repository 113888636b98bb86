"""The benchmark imports vmcheck modules and its opt-in tracer wraps
vmcheck functions, both by name from outside the package, so a rename here
must not leave a module or a hook of theirs pointing at nothing
(``perfbench/run.py`` would fail)."""

import ast
import importlib
import importlib.util
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
TRACING = PERFBENCH / "tracing.py"


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


def test_every_module_the_benchmark_imports_exists():
    # read with ast, so that none of run.py runs
    tree = ast.parse((PERFBENCH / "run.py").read_text())
    (modules,) = [ast.literal_eval(node.value) for node in tree.body
                  if isinstance(node, ast.Assign)
                  and getattr(node.targets[0], "id", None) == "MODULES"]
    assert modules
    for name in modules:
        importlib.import_module(f"vmcheck.{name}")


def test_the_tracers_ledger_rows_see_every_ledger_write():
    # each of map_page_case(16)'s sixteen ghost inserts consumes its four
    # chain shares and adds its walk claim, all through the hooked
    # Ledger.consume and Ledger.add
    from vmcheck.cases import map_page_case
    from vmcheck.checker import RESOURCE_ONLY, check_double

    tracing = _load_tracing()
    tracer = tracing.Tracer({name: importlib.import_module(f"vmcheck.{name}")
                             for name, _attr, _span, _count in tracing.HOOKS})
    case = map_page_case(16)
    tracer.install()
    try:
        tracer.check = 0
        report = check_double(case.pre, case.root, case.script, case.stubs,
                              RESOURCE_ONLY, case.state, case.registry,
                              case.free_list)
    finally:
        tracer.uninstall()
    assert report.ok, report.violation
    assert tracer.call_counts()["assertions.ledger"] >= 5 * 16
