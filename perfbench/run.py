"""vmcheck benchmark: time to verdict and checks per second.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ``src/``
of that checkout and nothing else.  Each workload is a closed loop with
one client: one check in flight at a time, no threads, in its own
process (``all`` starts one process per workload, one after another).

With ``--trace 0`` the run prints the end-to-end metrics, measured with
no tracing and scaled to a reference host speed (see ``probe``).  With
``--trace 1`` it alternates untraced and traced passes, with the tracer
(``tracing.py``) installed for the traced ones, and prints the per-layer
metrics plus the tracing overhead.  Every check's
output is checked against its known answer outside the timed region; a
check that disagrees or raises counts as failed.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from types import SimpleNamespace

import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

SETUP_REPEATS = 9
PROBE_KEYS = 400
# the probe's time on an unloaded 2-vCPU x86-64 host under Python 3.11.7;
# timings are reported as if the host always ran at that speed
PROBE_REFERENCE_S = 70e-6
MODULES = ("machine", "assertions", "ghost", "checker", "cases", "parsing",
           "config", "cli")


def import_vmcheck() -> SimpleNamespace:
    """A fresh import of every vmcheck module from this checkout's src/."""
    for name in [n for n in sys.modules
                 if n == "vmcheck" or n.startswith("vmcheck.")]:
        del sys.modules[name]
    mods = {m: importlib.import_module(f"vmcheck.{m}") for m in MODULES}
    where = Path(mods["machine"].__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise SystemExit(f"error: vmcheck imported from {where}, not {SRC}")
    return SimpleNamespace(**mods)


def _probe_work() -> None:
    counts = {}
    for i in range(PROBE_KEYS):
        key = (i * 7919) & 1023
        counts[key] = counts.get(key, 0) + i
    pairs = [(v, k) for k, v in counts.items()]
    pairs.sort()


def probe() -> float:
    """Seconds a fixed piece of pure-Python work takes (dict updates, a
    list built and sorted, as in the program): how fast the host is
    running this process right now.  The work runs once untimed and then
    three times, keeping the fastest, with the collector off, so that
    what the program left in the caches and heap does not show."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        _probe_work()
        best = float("inf")
        for _ in range(3):
            start = time.perf_counter()
            _probe_work()
            best = min(best, time.perf_counter() - start)
        return best
    finally:
        if was_enabled:
            gc.enable()


def set_up(workload: str, seed: int, tiny: bool):
    """Import vmcheck and build the workload's jobs; returns (modules,
    jobs, host seconds, mean probe seconds either side of it)."""
    before = probe()
    start = time.perf_counter()
    vm = import_vmcheck()
    jobs = workloads.WORKLOADS[workload](vm, seed, tiny)
    seconds = time.perf_counter() - start
    return vm, jobs, seconds, (before + probe()) / 2


def new_result() -> dict:
    return {"times": [], "probes": [], "failures": [], "setups": []}


def run_pass(jobs, first: int, result: dict, tracer=None) -> None:
    """One check of every job, in order.  Appends each check's host
    seconds, the mean of the probes either side of it, and any
    disagreement to `result`.  Only the job's call is timed; its output
    is checked afterwards."""
    for i, job in enumerate(jobs, start=first):
        before = probe()
        if tracer is not None:
            tracer.check = i
        t0 = time.perf_counter()
        try:
            out = job.run()
        except Exception:
            out, problem = None, traceback.format_exc(limit=3)
        else:
            problem = None
        t1 = time.perf_counter()
        if tracer is not None:
            tracer.check = None
        result["times"].append(t1 - t0)
        result["probes"].append((before + probe()) / 2)
        if problem is None:
            try:
                problem = job.verify(out)
            except Exception:
                problem = traceback.format_exc(limit=3)
        if problem is not None:
            result["failures"].append(f"{job.label}: {problem}")


def warm_up(jobs) -> dict:
    """One untimed pass, so that lazy set-up and first-call costs are paid
    before timing; its outputs are checked like any other."""
    result = new_result()
    run_pass(jobs, 0, result)
    gc.collect()
    return result


def measure(workload: str, seed: int, tiny: bool, seconds: float) -> dict:
    """Set up, warm up, then a closed loop of whole passes over the jobs
    until `seconds` have elapsed.  Set-up is repeated SETUP_REPEATS times
    in all, spread across the run, so that its median is not taken in one
    stretch of host load; the extra set-ups' products are discarded."""
    _vm, jobs, setup_s, setup_probe = set_up(workload, seed, tiny)
    warm = warm_up(jobs)
    result = new_result()
    result["setups"].append((setup_s, setup_probe))
    repeats = 1 if tiny else SETUP_REPEATS
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        done = len(result["setups"])
        if done < repeats and elapsed >= done * seconds / repeats:
            result["setups"].append(set_up(workload, seed, tiny)[2:])
            gc.collect()
        elif elapsed < seconds or not result["times"]:
            run_pass(jobs, len(result["times"]), result)
        else:
            break
    result["failures"] += warm["failures"]
    result["warm_up"] = len(warm["times"])
    return result


def at_reference_speed(samples, probes) -> list:
    """Each sample scaled by the reference probe time over its own probe
    time.  Other tenants of a shared host slow every process on it by up
    to 1.8 times, for seconds to minutes at a stretch; the probe slows
    with the program, so the scaled samples keep the program's own cost
    and drop the host's."""
    return [x * PROBE_REFERENCE_S / p for x, p in zip(samples, probes)]


def quantile(values, q: int) -> float:
    """The q-th percentile, interpolated (statistics.quantiles)."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(result: dict) -> tuple:
    """The end-to-end metrics at reference host speed, and a note of the
    host speed measured."""
    times = at_reference_speed(result["times"], result["probes"])
    setup = at_reference_speed(*zip(*result["setups"]))
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "checks_per_s": (len(times) / sum(times), "1/s"),
        "verdict_ms_p50": (1000 * statistics.median(times), "ms"),
        "verdict_ms_p90": (1000 * quantile(times, 90), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024, "MB"),
    }
    speed = PROBE_REFERENCE_S / statistics.median(result["probes"])
    return metrics, f"host at {speed:.2f} x reference speed; unscaled " \
        f"verdict_ms_p50 {1000 * statistics.median(result['times']):.4f}"


def traced(vm, workload, seed, tiny, seconds) -> tuple:
    """Passes alternate between untraced and traced for `seconds`, so both
    see the same host conditions; per-layer metrics come from the traced
    passes and the tracing overhead from the two throughputs."""
    tracer = tracing.Tracer(vars(vm))
    tracer.install()
    tracer.setup = True
    jobs = workloads.WORKLOADS[workload](vm, seed, tiny)
    tracer.setup = False
    tracer.uninstall()
    warm = warm_up(jobs)
    plain, result = new_result(), new_result()
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or not result["times"]:
        run_pass(jobs, len(plain["times"]), plain)
        tracer.install()
        try:
            run_pass(jobs, len(result["times"]), result, tracer)
        finally:
            tracer.uninstall()
    checks = len(result["times"])
    metrics = tracer.metrics(checks)
    plain_cps = len(plain["times"]) / sum(plain["times"])
    traced_cps = checks / sum(result["times"])
    metrics["trace.checks_per_s"] = (traced_cps, "1/s")
    metrics["trace.untraced_checks_per_s"] = (plain_cps, "1/s")
    metrics["trace.overhead"] = (plain_cps / traced_cps, "x")
    spans = workloads.WORKDIR / "spans"
    spans.mkdir(parents=True, exist_ok=True)
    tracer.write(spans / f"{workload}-seed{seed}.tsv")
    merged = {"times": plain["times"] + result["times"],
              "failures": warm["failures"] + plain["failures"]
              + result["failures"], "warm_up": len(warm["times"])}
    return merged, metrics


def run_one(args) -> int:
    if args.trace:
        result, metrics = traced(import_vmcheck(), args.workload, args.seed,
                                 args.tiny, args.seconds)
        note = f"tracing overhead {metrics['trace.overhead'][0]:.3f}x"
        wanted = SPEC["per_layer"]
    else:
        result = measure(args.workload, args.seed, args.tiny, args.seconds)
        metrics, note = end_to_end(result)
        wanted = SPEC["end_to_end"]

    attempted = len(result["times"]) + result["warm_up"]
    failed = len(result["failures"])
    print(f"workload {args.workload}  seed {args.seed}  "
          f"checks {attempted}  trace {args.trace}  {note}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:34s} {value:14.6f} {unit}")
    print(f"  {'failed_ratio':34s} {failed / attempted:14.6f} "
          f"({failed}/{attempted})")
    for problem in result["failures"][:5]:
        print(f"  FAILED {problem}")
    summary = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]][0],
                                "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(summary))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, one after another."""
    summaries = {}
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__)), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--tiny"] if args.tiny else [])
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"workload {name} exited {proc.returncode}")
            return 1
        summaries[name] = json.loads(lines[-1])
    print(json.dumps(summaries))
    return 0 if all(s["correct"] for s in summaries.values()) else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=list(workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="small inputs, one set-up, for the self-test")
    args = parser.parse_args(argv)
    if not (SRC / "vmcheck" / "__init__.py").is_file():
        print(f"error: no vmcheck sources under {SRC}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
