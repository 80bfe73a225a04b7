"""Span recording for the traced benchmark run.

The tracer wraps hm_sim's layer functions from outside the package: every
module namespace under ``hm_sim`` that binds a listed function gets the
wrapper, because the modules import each other's functions by name
(``from .bloch import density_to_bloch``) and patching the defining module
alone would miss those call sites.  A span is (id, parent id, name, start,
end, operation id, extra); spans stay in memory and are written out once.
The current span lives in a context variable, and the sampler's thread pool
is replaced by one that runs each task in a copy of the submitting context,
so spans opened in pool threads keep the sampler call as their parent.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import importlib
import itertools
import json
import statistics
import time
from concurrent.futures import ThreadPoolExecutor

from workloads import BATCH_DIMS, MODELS

# hm_sim.harness.CHUNK_TRIALS, mirrored so that aggregation needs no hm_sim.
CHUNK_TRIALS = 8192

_CURRENT = contextvars.ContextVar("bench_span", default=0)
_OP = contextvars.ContextVar("bench_op", default="")


def _generator_bytes(args, kwargs, result):
    return {"bytes": int(result.generators.nbytes)}


def _sampler_extra(args, kwargs, result):
    names = ("state", "observable", "model", "trials", "source", "job", "workers")
    bound = dict(zip(names, args))
    bound.update(kwargs)
    return {
        "trials": int(bound["trials"]),
        "model": bound["model"].kind,
        "n": int(bound["state"].dimension),
        "workers": int(bound.get("workers", 1)),
    }


def _membranes_extra(args, kwargs, result):
    if "membrane_samples" in kwargs:
        return {"membranes": int(kwargs["membrane_samples"])}
    return {"membranes": int(args[4])}


def _text_bytes(args, kwargs, result):
    return {"bytes": len(result)}


# (span name, module, attribute path, extra-recorder or None)
TRACED = (
    ("bloch.generator_basis", "hm_sim.bloch", "build_generator_basis", _generator_bytes),
    ("bloch.density_to_bloch", "hm_sim.bloch", "density_to_bloch", None),
    ("bloch.bloch_to_density", "hm_sim.bloch", "bloch_to_density", None),
    ("geometry.build_measurement_simplex", "hm_sim.geometry", "build_measurement_simplex", None),
    ("geometry.project_onto_membrane", "hm_sim.geometry", "project_onto_membrane", None),
    ("geometry.barycentric_coordinates", "hm_sim.geometry", "barycentric_coordinates", None),
    ("geometry.born_probabilities", "hm_sim.geometry", "born_probabilities", None),
    ("dynamics.run_measurement", "hm_sim.dynamics", "run_measurement", None),
    ("dynamics.spin_machine_measure", "hm_sim.dynamics", "spin_machine_measure", None),
    ("dynamics.luders_posterior", "hm_sim.dynamics", "luders_posterior", None),
    ("dynamics.chunk_stream", "hm_sim.dynamics", "RandomSource.chunk_stream", None),
    ("harness.simulate_statistics", "hm_sim.harness", "simulate_statistics", None),
    ("harness.sample_elementary_outcomes", "hm_sim.harness", "sample_elementary_outcomes", _sampler_extra),
    ("harness.universal_average", "hm_sim.harness", "universal_average_experiment", _membranes_extra),
    ("harness.born_identity_max_gap", "hm_sim.harness", "born_identity_max_gap", None),
    ("harness.chi_square_check", "hm_sim.harness", "chi_square_check", None),
    ("serialize.validate_report_payload", "hm_sim.serialize", "validate_report_payload", None),
    ("serialize.dumps_canonical", "hm_sim.serialize", "dumps_canonical", _text_bytes),
    ("cli.main", "hm_sim.cli", "main", None),
)


class _ContextExecutor(ThreadPoolExecutor):
    """Thread pool whose tasks run in a copy of the submitting context."""

    def submit(self, fn, /, *args, **kwargs):
        return super().submit(contextvars.copy_context().run, fn, *args, **kwargs)


class Tracer:
    """Installs span-recording wrappers into hm_sim and collects the spans."""

    def __init__(self):
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._patches: list[tuple[object, str, object]] = []
        self._recording = True

    def _wrap(self, name, fn, extra):
        spans = self.spans
        ids = self._ids
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer._recording:
                return fn(*args, **kwargs)
            sid = next(ids)
            parent = _CURRENT.get()
            token = _CURRENT.set(sid)
            start = time.perf_counter_ns()
            info = None
            try:
                result = fn(*args, **kwargs)
                if extra is not None:
                    info = extra(args, kwargs, result)
                return result
            finally:
                end = time.perf_counter_ns()
                _CURRENT.reset(token)
                spans.append((sid, parent, name, start, end, _OP.get(), info))

        return wrapper

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap each listed function wherever an hm_sim module binds it."""
        import sys

        modules = [m for k, m in list(sys.modules.items())
                   if m is not None and (k == "hm_sim" or k.startswith("hm_sim."))]
        for name, module_name, path, extra in TRACED:
            module = importlib.import_module(module_name)
            if "." in path:
                cls_name, meth = path.split(".")
                cls = getattr(module, cls_name)
                self._patch(cls, meth, self._wrap(name, getattr(cls, meth), extra))
                continue
            original = getattr(module, path)
            wrapper = self._wrap(name, original, extra)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, attr, wrapper)
        harness = importlib.import_module("hm_sim.harness")
        self._patch(harness, "ThreadPoolExecutor", _ContextExecutor)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._patches):
            setattr(owner, attr, value)
        self._patches.clear()

    @contextlib.contextmanager
    def suspended(self):
        """Run benchmark-side code (digests, checks) without recording spans."""
        self._recording = False
        try:
            yield
        finally:
            self._recording = True

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.spans, handle)


@contextlib.contextmanager
def operation(op_id: str):
    """Tag every span opened inside the block with ``op_id``."""
    token = _OP.set(op_id)
    try:
        yield
    finally:
        _OP.reset(token)


# --- aggregation -------------------------------------------------------------


def _union_ns(intervals):
    total = 0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> dict[int, int]:
    """Span id -> duration minus the part of it that child spans cover (ns)."""
    children: dict[int, list[tuple[int, int]]] = {}
    for sid, parent, _name, start, end, _op, _info in spans:
        children.setdefault(parent, []).append((start, end))
    out = {}
    for sid, _parent, _name, start, end, _op, _info in spans:
        kids = [(max(s, start), min(e, end)) for s, e in children.get(sid, ())]
        out[sid] = (end - start) - _union_ns([k for k in kids if k[1] > k[0]])
    return out


def layer_metrics(spans, basis_spans=None) -> dict[str, float]:
    """Per-layer numbers from the spans of one traced pass.

    ``basis_spans`` are the generator-basis spans of the whole process
    (warm-up included); ``bloch.basis_bytes`` sums their array sizes.
    """
    spans = [tuple(s) for s in spans]
    selft = self_times(spans)
    by_name: dict[str, list[tuple]] = {}
    for span in spans:
        by_name.setdefault(span[2], []).append(span)

    def calls(name):
        return len(by_name.get(name, ()))

    def self_s(name):
        return sum(selft[s[0]] for s in by_name.get(name, ())) / 1e9

    def incl_s(name):
        return sum(s[4] - s[3] for s in by_name.get(name, ())) / 1e9

    m: dict[str, float] = {}
    m["bloch.generator_basis.s"] = self_s("bloch.generator_basis")
    basis = basis_spans if basis_spans is not None else by_name.get("bloch.generator_basis", ())
    m["bloch.basis_bytes"] = float(sum(s[6]["bytes"] for s in basis))
    for name in ("bloch.density_to_bloch", "bloch.bloch_to_density",
                 "geometry.build_measurement_simplex", "geometry.project_onto_membrane",
                 "geometry.barycentric_coordinates", "geometry.born_probabilities",
                 "dynamics.run_measurement", "dynamics.spin_machine_measure",
                 "dynamics.luders_posterior", "harness.sample_elementary_outcomes",
                 "harness.chi_square_check", "serialize.validate_report_payload"):
        m[f"{name}.calls"] = float(calls(name))
        m[f"{name}.s"] = self_s(name)
    runs = [s[4] - s[3] for s in by_name.get("dynamics.run_measurement", ())]
    m["dynamics.run_measurement.p50_us"] = statistics.median(runs) / 1e3 if runs else 0.0

    samplers = by_name.get("harness.sample_elementary_outcomes", ())
    m["harness.sample_elementary_outcomes.trials"] = float(sum(s[6]["trials"] for s in samplers))
    cells: dict[tuple, list[float]] = {}
    for s in samplers:
        key = (s[6]["model"], s[6]["n"], s[6]["workers"])
        acc = cells.setdefault(key, [0.0, 0.0])
        acc[0] += s[6]["trials"]
        acc[1] += (s[4] - s[3]) / 1e9
    for model in MODELS:
        rate = {}
        for workers in (1, 2):
            tot = [0.0, 0.0]
            for n in BATCH_DIMS:
                trials, secs = cells.get((model, n, workers), (0.0, 0.0))
                m[f"harness.mtrials_per_s.{model}.n{n}.w{workers}"] = (
                    trials / secs / 1e6 if secs > 0 else 0.0)
                tot[0] += trials
                tot[1] += secs
            rate[workers] = tot[0] / tot[1] if tot[1] > 0 else 0.0
        m[f"harness.parallel_speedup.{model}"] = rate[2] / rate[1] if rate[1] > 0 else 0.0

    chunks_of: dict[int, int] = {}
    for s in by_name.get("dynamics.chunk_stream", ()):
        chunks_of[s[1]] = chunks_of.get(s[1], 0) + 1
    filled = [(s[6]["trials"], chunks_of[s[0]]) for s in samplers if s[0] in chunks_of]
    chunk_total = sum(c for _, c in filled)
    m["harness.chunk_fill"] = (
        sum(t for t, _ in filled) / (chunk_total * CHUNK_TRIALS) if chunk_total else 0.0)

    ua = by_name.get("harness.universal_average", ())
    membranes = sum(s[6]["membranes"] for s in ua)
    m["harness.universal_average.per_membrane_ms"] = (
        incl_s("harness.universal_average") / membranes * 1e3 if membranes else 0.0)

    m["serialize.dumps_canonical.s"] = self_s("serialize.dumps_canonical")
    m["serialize.report_bytes"] = float(
        sum(s[6]["bytes"] for s in by_name.get("serialize.dumps_canonical", ())))
    m["cli.main.s"] = incl_s("cli.main")
    return m


def self_time_by_name(spans) -> dict[str, float]:
    """Total self time (s) of each span name."""
    selft = self_times(spans)
    out: dict[str, float] = {}
    for span in spans:
        out[span[2]] = out.get(span[2], 0.0) + selft[span[0]] / 1e9
    return out


def parse_importtime(text: str) -> dict[str, float]:
    """Import metrics from ``python -X importtime`` output (seconds).

    Each figure sums the cumulative time of the outermost import lines of
    one package, so it counts that package wherever hm_sim pulls it in and
    reads 0 once hm_sim no longer imports it.  scipy loads ``stats``
    lazily, which leaves no line for the package itself, only for its
    submodules; summing the outermost lines covers that case too.
    """
    prefixes = {"import.hm_sim_s": "hm_sim", "import.scipy_stats_s": "scipy.stats",
                "import.jsonschema_s": "jsonschema"}
    # importtime prints a module after its children, so a line at depth d
    # adopts the pending lines at depth d + 1.
    pending: dict[int, list] = {}
    for line in text.splitlines():
        parts = line[len("import time:"):].split("|")
        if not line.startswith("import time:") or len(parts) != 3:
            continue
        if not parts[1].strip().isdigit():
            continue
        raw = parts[2]
        depth = (len(raw) - len(raw.lstrip(" ")) - 3) // 2
        node = (raw.strip(), int(parts[1]), pending.pop(depth + 1, []))
        pending.setdefault(depth, []).append(node)
    totals = dict.fromkeys(prefixes, 0)

    def visit(node, open_keys):
        name, cumulative, children = node
        for key in open_keys:
            prefix = prefixes[key]
            if name == prefix or name.startswith(prefix + "."):
                totals[key] += cumulative
        rest = [k for k in open_keys if not (
            name == prefixes[k] or name.startswith(prefixes[k] + "."))]
        for child in children:
            visit(child, rest)

    for roots in pending.values():
        for root in roots:
            visit(root, list(prefixes))
    return {key: us / 1e6 for key, us in totals.items()}
