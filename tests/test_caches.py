"""The checker's caches change no report, and every cache is bounded.

Location texts, shares, chain-slot locations and claim texts are each
built once through a ``functools.lru_cache``.  A report rendered after
every such cache in the ``vmcheck`` modules was cleared (found by
introspection, methods included) must equal, byte for byte, the report of
the same check run warm, after the other checks filled the caches.
"""

import functools
import importlib
import pkgutil
from fractions import Fraction

import vmcheck
from vmcheck.assertions import FULL, RegPt
from vmcheck.cases import case_study, map_page_case
from vmcheck.checker import COEXEC, RESOURCE_ONLY, check_double
from vmcheck.machine import MachineState, Reg

from test_nondyadic_reports import _report as nondyadic_report


def _caches():
    """Every lru_cache in a vmcheck module: its module-level functions and
    the methods of the classes it defines, each once."""
    found = {}
    for info in pkgutil.iter_modules(vmcheck.__path__):
        module = importlib.import_module(f"vmcheck.{info.name}")
        for value in list(vars(module).values()):
            members = [value]
            if isinstance(value, type) and value.__module__ == module.__name__:
                members = list(vars(value).values())
            for member in members:
                if isinstance(member, functools._lru_cache_wrapper):
                    found[id(member)] = member
    return list(found.values())


def _case_check(make, mode):
    def check():
        case = make()
        return check_double(case.pre, case.root, case.script,
                            stubs=case.stubs, mode=mode, init=case.state,
                            registry=case.registry, free_list=case.free_list)
    return check


CHECKS = {
    **{f"{name}-{mode}": _case_check(lambda name=name: case_study(name), mode)
       for name in ("map_new_page", "unmap_page", "swtch")
       for mode in (COEXEC, RESOURCE_ONLY)},
    "map_wide_16": _case_check(lambda: map_page_case(16), RESOURCE_ONLY),
    "map_wide_128": _case_check(lambda: map_page_case(128), RESOURCE_ONLY),
    "nondyadic-accepted": lambda: nondyadic_report("accepted", COEXEC),
    # a third of rax over a ledger widened by 3 has the numerator that all
    # of it has over the first denominator: the same claim, another text
    **{f"rax-{share}": lambda share=share: check_double(
        RegPt(Reg.RAX, share, 7), 0x1000, [], mode=COEXEC,
        init=MachineState(regs={Reg.CR3: 0x1000, Reg.RAX: 7}))
       for share in (FULL, Fraction(1, 3))},
}


def _rendered(check, cold):
    if cold:
        for cache in _caches():
            cache.cache_clear()
    report = check()
    return report.to_text(), report.to_json()


def test_the_caches_are_found_and_bounded():
    caches = {cache.__qualname__: cache for cache in _caches()}
    assert {"Location.__str__", "share_text", "phys_loc",
            "_claim_text"} <= set(caches)
    for name, cache in caches.items():
        maxsize = cache.cache_parameters()["maxsize"]
        assert maxsize is not None and maxsize > 0, name


def test_reports_do_not_depend_on_what_the_caches_hold():
    cold = {name: _rendered(check, cold=True)
            for name, check in CHECKS.items()}
    for _ in range(2):  # the second round runs on caches the first filled
        warm = {name: _rendered(check, cold=False)
                for name, check in CHECKS.items()}
    for name in CHECKS:
        assert warm[name] == cold[name], name
