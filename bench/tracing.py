"""Traced mode of the benchmark: spans and counts at altproj's layer boundaries.

``instrument`` replaces the public functions listed in ``WRAPPED`` with
wrappers that record one span per call (name, start, end, parent id, and
whether the call raised).  A function is re-bound everywhere it is
reachable: in its defining module and in every ``altproj`` module that
imported it by name (``acceptance.partial_sum_characterization``,
``cli.geometry_report``, ...).  Methods are wrapped on their class.  The
benchmark opens its own spans around each operation (``acceptance.c02``,
``cli.geometry``, ...), so they become the parents of the program spans.

Spans live in flat arrays while the run lasts and are written as JSON
lines when it ends.  Self time is a span's duration minus the durations
of its direct children.  ``layer_metrics`` turns the spans into the
per-layer metrics of ``BENCHMARK.json``; ``LAYER_EFFECT`` records which
end-to-end metric each layer should move and on which workload.
"""

import functools
import importlib
import json
import sys
import time
from array import array
from contextlib import contextmanager

import numpy as np

LAYERS = ("subspace", "linalg", "geometry", "iteration", "spectral", "fracpow",
          "models", "acceptance", "cli")

# Public functions (and methods, as Class.method) wrapped per module.
WRAPPED = {
    "linalg": ("eigh_sym", "spectral_norm", "orthonormal_columns"),
    "subspace": ("intersection", "complement_within", "Subspace.project"),
    "iteration": ("build_cyclic", "iterate", "unconditional_sum_test",
                  "sweep_diagnostic", "CyclicProduct.apply"),
    "spectral": ("numrange_boundary", "stolz_contains", "stolz_margin",
                 "ritt_power_diagnostic", "resolvent_diagnostic"),
    "geometry": ("friedrichs_number", "iota2", "ell2_direct", "friedrichs_number_sampled",
                 "minimax_inclination_estimate", "geometry_report"),
    "fracpow": ("frac_power_apply", "make_alpha_vector", "partial_sum_characterization",
                "decay_slope"),
    "models": ("block_aligned", "slow_vector", "random_instance", "convex_combination",
               "InstanceSpec.realize"),
    "acceptance": ("build_pool",),
    "cli": ("parse_instance",),
}

# (span name, statistics reported for it); calls = span count, self_s =
# summed self time, total_s = summed duration.  acceptance.cNN and
# cli.<command> are the benchmark's own operation spans.
SPAN_STATS = (
    ("acceptance.build_pool", ("total_s",)),
    ("acceptance.c02", ("total_s",)),
    ("acceptance.c04", ("total_s",)),
    ("acceptance.c05", ("total_s",)),
    ("acceptance.c06", ("total_s",)),
    ("acceptance.c07", ("total_s",)),
    ("acceptance.c08", ("total_s",)),
    ("iteration.build_cyclic", ("calls", "self_s")),
    ("iteration.CyclicProduct.apply", ("calls", "self_s")),
    ("iteration.iterate", ("self_s",)),
    ("iteration.unconditional_sum_test", ("self_s",)),
    ("iteration.sweep_diagnostic", ("self_s",)),
    ("spectral.numrange_boundary", ("calls", "self_s")),
    ("spectral.stolz_contains", ("calls", "self_s")),
    ("spectral.stolz_margin", ("self_s",)),
    ("spectral.ritt_power_diagnostic", ("self_s",)),
    ("spectral.resolvent_diagnostic", ("calls", "self_s")),
    ("linalg.eigh_sym", ("calls", "self_s")),
    ("linalg.spectral_norm", ("calls", "self_s")),
    ("linalg.orthonormal_columns", ("calls", "self_s")),
    ("subspace.intersection", ("calls", "self_s")),
    ("subspace.Subspace.project", ("calls",)),
    ("subspace.complement_within", ("calls",)),
    ("geometry.friedrichs_number", ("calls", "self_s")),
    ("geometry.iota2", ("self_s",)),
    ("geometry.ell2_direct", ("self_s",)),
    ("geometry.friedrichs_number_sampled", ("self_s",)),
    ("geometry.minimax_inclination_estimate", ("calls", "self_s")),
    ("fracpow.frac_power_apply", ("calls", "self_s")),
    ("fracpow.make_alpha_vector", ("self_s",)),
    ("fracpow.partial_sum_characterization", ("calls", "self_s")),
    ("fracpow.decay_slope", ("self_s",)),
    ("models.block_aligned", ("self_s",)),
    ("models.slow_vector", ("self_s",)),
    ("models.random_instance", ("calls",)),
    ("models.convex_combination", ("calls",)),
    ("models.InstanceSpec.realize", ("calls",)),
    ("cli.geometry", ("total_s",)),
    ("cli.iterate", ("total_s",)),
    ("cli.numrange", ("total_s",)),
    ("cli.ritt", ("total_s",)),
    ("cli.fracpow", ("total_s",)),
    ("cli.slowvec", ("total_s",)),
    ("cli.parse_instance", ("calls",)),
)

CLI_COMMANDS = ("geometry", "iterate", "numrange", "ritt", "fracpow", "slowvec")

_UNITS = {"calls": "count", "self_s": "s", "total_s": "s"}

# Metrics derived from spans and counters rather than a single span name.
DERIVED = (
    ("iteration.sweep.flops_computed", "flop"),
    ("iteration.sweep.bytes_computed", "B"),
    ("iteration.sweep.gflops", "GFLOP/s"),
    ("geometry.minimax_inclination_estimate.project_calls", "count"),
    ("fracpow.frac_power_apply.sweeps", "count"),
    ("cli.realize_per_command", "ratio"),
) + tuple((f"{layer}.failed", "count") for layer in LAYERS) + (
    ("trace.overhead_s", "s"),
)

# Which end-to-end metric each layer's metrics should move, and where.
LAYER_EFFECT = {
    "acceptance": ("setup_s, wall_s", "pool_battery"),
    "iteration": ("wall_s, setup_s", "block_decay (d = 800 sweeps), pool_battery (tiny sweeps)"),
    "spectral": ("wall_s", "pool_battery (main), cli_commands"),
    "linalg": ("wall_s", "pool_battery; block_decay (800^2 SVD in build_cyclic)"),
    "subspace": ("setup_s, wall_s", "pool_battery; block_decay"),
    "geometry": ("wall_s", "cli_commands (minimax); pool_battery (setup_s, c04)"),
    "fracpow": ("wall_s, peak_rss_mb", "block_decay (main), cli_commands"),
    "models": ("setup_s, wall_s", "block_decay; cli_commands"),
    "cli": ("wall_s", "cli_commands"),
    "failed": ("fail_frac", "all"),
    "trace": ("-", "all"),
}


def metric_specs():
    """(name, unit) of every per-layer metric, in report order."""
    specs = [(f"{name}.{stat}", _UNITS[stat]) for name, stats in SPAN_STATS for stat in stats]
    return specs + list(DERIVED)


def _sweep_work(counters, cp, x, *_):
    """Work of one CyclicProduct.apply from shapes: N dense complex d x d matvecs."""
    d = cp.matrix.shape[0]
    cols = np.size(x) // d
    n = len(cp.factors)
    counters["flops"] += 8.0 * n * d * d * cols  # 8 real flops per complex multiply-add
    counters["bytes"] += 16.0 * n * (d * d + 2 * d * cols)  # matrix + vector in + out
    counters["working_set_bytes"] = max(counters["working_set_bytes"], 16 * n * d * d)


_COUNT_HOOKS = {"iteration.CyclicProduct.apply": _sweep_work}


class Tracer:
    """Spans in flat arrays; span ids are allocation order, so parent < child."""

    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.raised = array("b")
        self.counters = {"flops": 0.0, "bytes": 0.0, "working_set_bytes": 0}
        self._stack = []

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _open(self, nid: int) -> int:
        sid = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self.raised.append(0)
        self._stack.append(sid)
        self.start.append(time.perf_counter())
        return sid

    def _close(self, sid: int, raised: bool):
        self.end[sid] = time.perf_counter()
        self._stack.pop()
        if raised:
            self.raised[sid] = 1

    @contextmanager
    def span(self, name: str):
        sid = self._open(self.name_id(name))
        raised = True
        try:
            yield
            raised = False
        finally:
            self._close(sid, raised)

    def wrap(self, name: str, fn):
        nid = self.name_id(name)
        hook = _COUNT_HOOKS.get(name)
        counters = self.counters

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if hook is not None:
                hook(counters, *args)
            sid = self._open(nid)
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                self._close(sid, True)
                raise
            self._close(sid, False)
            return out

        return traced

    def table(self):
        """Spans as arrays: name id, parent id, duration, self time, raised."""
        name = np.asarray(self.name, dtype=np.int64)
        parent = np.asarray(self.parent, dtype=np.int64)
        dur = np.asarray(self.end) - np.asarray(self.start)
        return name, parent, dur, self_times(parent, dur), np.asarray(self.raised, dtype=bool)

    def write_jsonl(self, path, header: dict):
        """A header line, then one JSON array per span in the header's column order.

        ``name`` indexes the header's ``names``; start and end are seconds
        since the first span started; the span id is the line's position.
        """
        t0 = self.start[0] if len(self.start) else 0.0
        columns = ["name", "start", "end", "parent", "raised"]
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({**header, "columns": columns, "names": self.names}) + "\n")
            for nid, start, end, parent, raised in zip(self.name, self.start, self.end,
                                                       self.parent, self.raised):
                fh.write(f"[{nid},{start - t0:.9f},{end - t0:.9f},{parent},{raised}]\n")


def self_times(parent: np.ndarray, dur: np.ndarray) -> np.ndarray:
    """Duration of each span minus the summed durations of its direct children."""
    parent = np.asarray(parent, dtype=np.int64)
    dur = np.asarray(dur, dtype=float)
    has = parent >= 0
    child = np.bincount(parent[has], weights=dur[has], minlength=len(dur))
    return dur - child


def count_under(name: np.ndarray, parent: np.ndarray, child_ids, ancestor_ids) -> int:
    """Number of spans named in child_ids with some ancestor named in ancestor_ids."""
    child_ids, ancestor_ids = set(child_ids), set(ancestor_ids)
    name, parent = list(map(int, name)), list(map(int, parent))
    under = [False] * len(name)
    total = 0
    for sid, p in enumerate(parent):
        if p >= 0 and (under[p] or name[p] in ancestor_ids):
            under[sid] = True
            total += name[sid] in child_ids
    return total


def instrument(tracer: Tracer):
    """Wrap every WRAPPED function wherever altproj binds it; return an undo callable."""
    modules = [m for n, m in sorted(sys.modules.items())
               if n == "altproj" or n.startswith("altproj.")]
    undo = []
    for layer, names in WRAPPED.items():
        module = importlib.import_module(f"altproj.{layer}")
        for qualname in names:
            owner_name, _, attr = qualname.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name)
                original = owner.__dict__[attr]
                setattr(owner, attr, tracer.wrap(f"{layer}.{qualname}", original))
                undo.append((owner, attr, original))
                continue
            original = getattr(module, attr)
            wrapped = tracer.wrap(f"{layer}.{attr}", original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapped)
                        undo.append((mod, key, original))

    def restore():
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)

    return restore


def layer_metrics(tracer: Tracer, overhead_s: float) -> dict:
    """Every per-layer metric as {name: {"value": v, "unit": u}}."""
    name, parent, dur, self_s, raised = tracer.table()
    ids = tracer._name_ids
    out = {}

    def put(metric, value, unit):
        out[metric] = {"value": value, "unit": unit}

    for span_name, stats in SPAN_STATS:
        mask = name == ids[span_name] if span_name in ids else np.zeros(len(name), bool)
        values = {"calls": int(mask.sum()), "self_s": float(self_s[mask].sum()),
                  "total_s": float(dur[mask].sum())}
        for stat in stats:
            put(f"{span_name}.{stat}", values[stat], _UNITS[stat])

    def id_set(*span_names):
        return {ids[n] for n in span_names if n in ids}

    flops = tracer.counters["flops"]
    apply_s = out["iteration.CyclicProduct.apply.self_s"]["value"]
    put("iteration.sweep.flops_computed", flops, "flop")
    put("iteration.sweep.bytes_computed", tracer.counters["bytes"], "B")
    put("iteration.sweep.gflops", flops / apply_s / 1e9 if apply_s > 0.0 else 0.0, "GFLOP/s")
    put("geometry.minimax_inclination_estimate.project_calls",
        count_under(name, parent, id_set("subspace.Subspace.project"),
                    id_set("geometry.minimax_inclination_estimate")), "count")
    put("fracpow.frac_power_apply.sweeps",
        count_under(name, parent, id_set("iteration.CyclicProduct.apply"),
                    id_set("fracpow.frac_power_apply")), "count")
    commands = id_set(*(f"cli.{c}" for c in CLI_COMMANDS))
    n_commands = int(np.isin(name, list(commands)).sum()) if commands else 0
    realized = count_under(name, parent, id_set("models.InstanceSpec.realize"), commands)
    put("cli.realize_per_command", realized / n_commands if n_commands else 0.0, "ratio")
    for layer in LAYERS:  # wrapped program calls only, not the benchmark's own op spans
        layer_ids = list(id_set(*(f"{layer}.{q}" for q in WRAPPED[layer])))
        put(f"{layer}.failed", int((raised & np.isin(name, layer_ids)).sum()), "count")
    put("trace.overhead_s", overhead_s, "s")
    return out
