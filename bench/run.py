"""Benchmark of altproj: three seeded workloads, end to end or traced per layer.

    python3 bench/run.py --workload pool_battery --seed 1 --seconds 15 --trace 0

Run from anywhere inside a checkout; altproj is imported from its ``src``
directory.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  The lines before
it record the environment and the failed fraction with its failures.

``--trace 0`` measures the end-to-end metrics: ``setup_s`` (the median
import time of altproj over several fresh interpreters, plus the median
of several input generations), ``wall_s`` (time of one
pass over the workload's operations, checks included) and ``peak_rss_mb``.
Passes repeat until ``--seconds`` have elapsed, at least ``MIN_PASSES``
times, and ``wall_s`` is the fastest of them, as ``timeit`` reports: on a
shared host the same pass slows by up to 1.6x for seconds to minutes at
a time, and the fastest pass is the figure that noise disturbs least.

The run is correct when every operation succeeds or fails only as one of
the workload's known refusals; a wrong output or any other failure makes
it incorrect.  Every failure counts in ``failed``.

``--trace 1`` runs one untraced pass and one traced pass over fresh
inputs, reports the per-layer metrics of ``tracing.py`` and writes the
spans as JSON lines to ``bench/out/``.  Both modes compare every CLI CSV
with the one from the first pass of the run.

BLAS runs on one thread: the variables are set before NumPy is imported.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BLAS_THREADS = 1
_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in _THREAD_VARS:
    os.environ[_var] = str(BLAS_THREADS)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "bench" / "out"
SETUP_REPEATS = 3
IMPORT_REPEATS = 5
MIN_PASSES = 2
WORKLOAD_NAMES = ("pool_battery", "block_decay", "cli_commands")


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    return p.parse_args(argv)


_IMPORT_TIMER = """\
import sys, time
sys.path.insert(0, sys.argv[1])
t0 = time.perf_counter()
import altproj, altproj.acceptance, altproj.cli
print(time.perf_counter() - t0)
"""


def _import_altproj():
    """Import altproj from this checkout's src."""
    if not (SRC / "altproj" / "__init__.py").is_file():
        raise ImportError(f"no altproj package under {SRC}")
    sys.path.insert(0, str(SRC))
    import altproj
    import altproj.acceptance  # noqa: F401
    import altproj.cli  # noqa: F401
    if Path(altproj.__file__).resolve().parent != SRC / "altproj":
        raise ImportError(f"altproj was imported from {altproj.__file__}, not {SRC}")


def import_seconds(repeats: int = IMPORT_REPEATS) -> float:
    """Median time to import altproj in a fresh interpreter, one child at a time."""
    times = []
    for _ in range(repeats):
        out = subprocess.run([sys.executable, "-c", _IMPORT_TIMER, str(SRC)], check=True,
                             capture_output=True, text=True, timeout=60).stdout
        times.append(float(out))
    return statistics.median(times)


# glibc sysconf names _SC_LEVEL1_DCACHE_SIZE, _SC_LEVEL2_CACHE_SIZE and
# _SC_LEVEL3_CACHE_SIZE, which Python's os.sysconf_names does not list
_CACHE_SYSCONF = {"L1d": 188, "L2": 191, "L3": 194}


def _cache_bytes() -> dict:
    caches = {}
    for level, key in _CACHE_SYSCONF.items():
        try:
            caches[level] = os.sysconf(key)
        except (ValueError, OSError):
            caches[level] = None
    return caches


def environment() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": {v: os.environ[v] for v in _THREAD_VARS},
        "cpu_count": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "cache_bytes": _cache_bytes(),
    }


class PassResult:
    def __init__(self):
        self.wall = 0.0
        self.attempted = 0
        self.failures = {}  # label -> reason
        self.unexpected = 0  # failures other than known refusals


def run_pass(ops, span=None) -> PassResult:
    """Run every operation once; a failure is recorded and never aborts the pass."""
    from workloads import Refused, WrongResult

    res = PassResult()
    t0 = time.perf_counter()
    for op in ops:
        res.attempted += 1
        try:
            if span is None:
                op.run()
            else:
                with span(op.span):
                    op.run()
        except Exception as exc:  # a wrong result, refusal or crash counts as failed
            res.failures[op.label] = (f"wrong result: {exc}" if isinstance(exc, WrongResult)
                                      else f"{type(exc).__name__}: {exc}")
            if not (op.may_refuse and isinstance(exc, Refused)):
                res.unexpected += 1
    res.wall = time.perf_counter() - t0
    return res


def _metric(value, unit):
    return {"value": value, "unit": unit}


def measure(workload_name: str, seed: int, seconds: float, trace: bool, import_s: float,
            sizes=None):
    """Run one workload; return (passes, metrics, notes for the summary line)."""
    import tracing
    import workloads

    workdir = OUT / f"{workload_name}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    workload = workloads.WORKLOADS[workload_name](sizes or workloads.Sizes(), str(workdir))
    passes = []
    notes = {}
    try:
        if trace:
            passes.append(run_pass(workload.setup(seed)))
            tracer = tracing.Tracer()
            restore = tracing.instrument(tracer)
            try:
                passes.append(run_pass(workload.setup(seed), tracer.span))
            finally:
                restore()
            metrics = tracing.layer_metrics(tracer, passes[1].wall - passes[0].wall)
            trace_path = OUT / f"trace-{workload_name}-seed{seed}.jsonl"
            ws = tracer.counters["working_set_bytes"]
            tracer.write_jsonl(trace_path, {"workload": workload_name, "seed": seed,
                                            "sweep_working_set_bytes": ws,
                                            "layer_effect": tracing.LAYER_EFFECT})
            notes = {"trace_file": str(trace_path.relative_to(ROOT)),
                     "sweep_working_set_bytes": ws}
        else:
            setup_times = []
            for _ in range(SETUP_REPEATS):
                t0 = time.perf_counter()
                ops = workload.setup(seed)
                setup_times.append(time.perf_counter() - t0)
            start = time.perf_counter()
            while len(passes) < MIN_PASSES or time.perf_counter() - start < seconds:
                passes.append(run_pass(ops))
            peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            notes = {"pass_walls_s": [p.wall for p in passes]}
            metrics = {
                "setup_s": _metric(import_s + statistics.median(setup_times), "s"),
                "wall_s": _metric(min(p.wall for p in passes), "s"),
                "peak_rss_mb": _metric(peak_kib / 1024.0, "MB"),
            }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return passes, metrics, notes


def main(argv=None) -> int:
    args = _parse_args(argv)
    try:
        _import_altproj()
    except ImportError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    import_s = 0.0 if args.trace else import_seconds()
    passes, metrics, notes = measure(args.workload, args.seed, args.seconds, bool(args.trace),
                                     import_s)
    attempted = sum(p.attempted for p in passes)
    failed = sum(len(p.failures) for p in passes)
    failures = {}
    for p in passes:
        failures.update(p.failures)
    for label, reason in sorted(failures.items()):
        print(f"failed: {label}: {reason}", file=sys.stderr)
    print(json.dumps({"environment": environment()}))
    print(json.dumps({"workload": args.workload, "seed": args.seed, "passes": len(passes),
                      "fail_frac": _metric(failed / attempted, "1"),
                      "failed_ops": sorted(failures), **notes}))
    print(json.dumps({"correct": not any(p.unexpected for p in passes), "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
