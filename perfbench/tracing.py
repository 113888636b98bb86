"""Spans and counters around calls into vmcheck's layers.

The tracer wraps public functions and methods of the freshly imported
``vmcheck`` modules from outside the program: every module that bound a
wrapped function by name gets the wrapper (``translate`` lives in
``machine`` and is imported into ``checker``, ``ghost`` and
``assertions``; ``step`` is ``machine_step`` in ``checker``).  Nothing
under ``src/`` changes.

A span is (name, start, end, parent, check id).  Spans are kept in memory
and written out when the run ends.  Spans are recorded only inside a
check, except fixture builders, which are recorded during set-up.  A
span's self time is its duration minus its direct children's.
"""

from __future__ import annotations

import functools
import sys
from collections import Counter, defaultdict
from time import perf_counter

FIXTURE = "cases.fixture"
LEDGER = "assertions.ledger"
LEDGER_OPS = ("add", "consume", "set_value", "get", "contains", "with_root")


def _words(counts, args):
    counts["machine.copy.words"] += sum(len(w) for w in args[0].mem.values())


def _ias_entries(counts, args):
    _state, root, registry = args[:3]
    counts["ghost.ias_check.entries"] += len(registry.get(root, ()))


def _audit_claims(counts, args):
    counts["checker.audit_ledger.claims"] += len(args[0].ledger.claims)


def _config_bytes(counts, args):
    counts["config.bytes"] += len(args[0].encode())


# (module, attribute or Class.method, span name or None, counter or None)
HOOKS = (
    ("machine", "walk", "machine.walk", None),
    ("machine", "translate", "machine.translate", None),
    ("machine", "step", "machine.step", None),
    ("machine", "MachineState.copy", None, _words),
    ("machine", "synth_tables", FIXTURE, None),
    *(("assertions", f"Ledger.{op}", LEDGER, None) for op in LEDGER_OPS),
    ("assertions", "lower", "assertions.lower", None),
    ("assertions", "machine_sat", "assertions.machine_sat", None),
    ("ghost", "ias_check", "ghost.ias_check", _ias_entries),
    ("checker", "apply_rule", "checker.apply_rule", None),
    ("checker", "audit_ledger", "checker.audit_ledger", _audit_claims),
    ("checker", "check_double", "checker.check_double", None),
    ("checker", "frame_audit", "checker.frame_audit", None),
    ("checker", "Report.to_text", "checker.report.render", None),
    ("checker", "Report.to_json", "checker.report.render", None),
    ("checker", "Report.payload", "checker.report.render", None),
    ("parsing", "parse_program", "parsing.parse_program", None),
    ("parsing", "parse_assertion", "parsing.parse_assertion", None),
    ("config", "load_config", "config.load_config", _config_bytes),
    ("config", "StateConfig.to_machine_state", "config.to_machine_state",
     None),
    ("cli", "main", "cli.main", None),
    ("cases", "map_page_case", FIXTURE, None),
    ("cases", "case_study", FIXTURE, None),
    ("cases", "swtch_case", FIXTURE, None),
    ("cases", "unmap_page_case", FIXTURE, None),
)

# per-layer metrics -> the span names whose self time they sum
SELF_MS = {
    "machine.walk.self_ms": ("machine.walk", "machine.translate"),
    "machine.step.self_ms": ("machine.step",),
    "assertions.ledger.self_ms": (LEDGER,),
    "assertions.lower.self_ms": ("assertions.lower",),
    "assertions.machine_sat.self_ms": ("assertions.machine_sat",),
    "ghost.ias_check.self_ms": ("ghost.ias_check",),
    "checker.apply_rule.self_ms": ("checker.apply_rule",),
    "checker.audit_ledger.self_ms": ("checker.audit_ledger",),
    "checker.check_double.self_ms": ("checker.check_double",),
    "checker.frame_audit.self_ms": ("checker.frame_audit",),
    "checker.report.render_ms": ("checker.report.render",),
    "parsing.parse_program.self_ms": ("parsing.parse_program",),
    "parsing.parse_assertion.self_ms": ("parsing.parse_assertion",),
    "config.load_config.self_ms": ("config.load_config",),
    "config.to_machine_state.self_ms": ("config.to_machine_state",),
    "cli.main.self_ms": ("cli.main",),
}
CALLS = {
    "machine.walk.calls": "machine.walk",
    "machine.step.calls": "machine.step",
    "assertions.ledger.ops": LEDGER,
    "ghost.ias_check.calls": "ghost.ias_check",
    "checker.apply_rule.calls": "checker.apply_rule",
}
COUNTED = ("machine.copy.words", "ghost.ias_check.entries",
           "checker.audit_ledger.claims", "parsing.bytes", "config.bytes")

# layer groups for the share of traced check time each layer takes
LAYERS = {
    "machine": ("machine.walk", "machine.translate", "machine.step"),
    "assertions": (LEDGER, "assertions.lower", "assertions.machine_sat"),
    "ghost": ("ghost.ias_check",),
    "checker": ("checker.apply_rule", "checker.audit_ledger",
                "checker.check_double", "checker.frame_audit",
                "checker.report.render"),
    "front_end": ("parsing.parse_program", "parsing.parse_assertion",
                  "config.load_config", "config.to_machine_state",
                  "cli.main"),
}


class Tracer:
    """Installs wrappers on the vmcheck modules passed in and records
    spans; ``check`` is the id of the check in flight, or None."""

    def __init__(self, modules: dict):
        self.modules = modules          # short name -> module
        self.spans = []
        self.counts = Counter()
        self.peak_claims = 0
        self.check = None
        self.setup = False
        self._stack = []
        self._patches = []

    # -- installation ----------------------------------------------------

    def install(self) -> None:
        for mod_name, attr, span, count in HOOKS:
            owner = self.modules[mod_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[meth]
                self._patch(cls, meth, original,
                            self._wrap(original, span, count))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(original, span, count)
            for mod in list(sys.modules.values()):
                if not getattr(mod, "__name__", "").startswith("vmcheck"):
                    continue
                for name, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, name, original, wrapper)

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    def _patch(self, owner, name, original, wrapper) -> None:
        self._patches.append((owner, name, original))
        setattr(owner, name, wrapper)

    def _wrap(self, fn, span, count):
        tracer = self
        is_ledger_op = span == LEDGER
        is_parse = span is not None and span.startswith("parsing.")

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.check is None and not (tracer.setup and span == FIXTURE):
                return fn(*args, **kwargs)
            if count is not None:
                count(tracer.counts, args)
            if is_ledger_op:
                tracer.peak_claims = max(tracer.peak_claims,
                                         len(args[0].claims))
            if span is None:
                return fn(*args, **kwargs)
            stack = tracer._stack
            # text parsed at the front door; nested parses are not re-counted
            if is_parse and not (stack and stack[-1][1].startswith("parsing.")):
                tracer.counts["parsing.bytes"] += len(args[0].encode())
            sid = len(tracer.spans)
            tracer.spans.append(None)
            stack.append((sid, span))
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                parent = stack[-1][0] if stack else -1
                tracer.spans[sid] = (span, start, end, parent, tracer.check)

        return wrapper

    # -- results ---------------------------------------------------------

    def self_times(self) -> dict:
        """{(span name, in check): total self seconds}."""
        child = defaultdict(float)
        for name, start, end, parent, _check in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(float)
        for sid, (name, start, end, _parent, check) in enumerate(self.spans):
            out[(name, check is not None)] += end - start - child[sid]
        return out

    def call_counts(self) -> Counter:
        return Counter(name for name, _s, _e, _p, check in self.spans
                       if check is not None)

    def metrics(self, checks: int) -> dict:
        """Per-layer metrics: counts and self ms per check, fixture ms per
        set-up, and the share of traced check time per layer."""
        selfs = self.self_times()
        calls = self.call_counts()
        out = {}
        for metric, names in SELF_MS.items():
            total = sum(selfs.get((n, True), 0.0) for n in names)
            out[metric] = (1000 * total / checks, "ms")
        for metric, name in CALLS.items():
            out[metric] = (calls[name] / checks, "count")
        for metric in COUNTED:
            out[metric] = (self.counts[metric] / checks,
                           "bytes" if metric.endswith("bytes") else "count")
        out["assertions.ledger.peak_claims"] = (self.peak_claims, "count")
        out[FIXTURE + ".self_ms"] = (1000 * selfs.get((FIXTURE, False), 0.0),
                                     "ms")
        traced = sum(v for (n, in_check), v in selfs.items() if in_check)
        for layer, names in LAYERS.items():
            part = sum(selfs.get((n, True), 0.0) for n in names)
            out[f"share.{layer}"] = (100 * part / traced if traced else 0.0,
                                     "%")
        return out

    def write(self, path) -> None:
        with open(path, "w") as f:
            f.write("name\tstart\tend\tparent\tcheck\n")
            for name, start, end, parent, check in self.spans:
                f.write(f"{name}\t{start:.9f}\t{end:.9f}\t{parent}\t"
                        f"{'' if check is None else check}\n")
