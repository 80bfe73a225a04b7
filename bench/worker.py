"""Child process of the benchmark: set-up probe, in-process workloads, CLI runs.

    worker.py probe [spec.json]
        Import hm_sim.cli (or do the import and warm-up of an mc-* spec) and
        print ``ready <CPU seconds> <4 kernel times>``: CPU seconds from the
        interpreter's start, less the reference kernel runs, and the times of
        the two kernel runs before and the two after the set-up.
    worker.py mc <spec.json> <result.json> <seconds> <trace 0|1> <spans.json>
        Run an in-process workload (mc-batch, mc-plans) after the same
        set-up, in passes, and write per-operation CPU times, kernel times
        and digests.
    worker.py cli <stats.json> <spans.json or ""> <hm-sim argument>...
        Run one CLI command through ``hm_sim.cli.main(argv)`` and write its CPU
        seconds.  With a spans path, install the span wrappers first; the
        parent then starts this with ``-X importtime`` to time the imports.
    worker.py facts
        Print the machine facts as one JSON line.

hm_sim is imported from the ``src`` directory of the checkout.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import json
import os
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import spans  # noqa: E402
import workloads  # noqa: E402

ORACLE_GAP = 1e-9
# Calls per timed part of the mc-plans loops, 0.3-0.5 s each on the
# reference machine: short enough that the reference kernel around a part
# sees the same machine load as the part itself.
PART_CALLS = {"pairs": 150, "spin": 400, "states": 100}


def _parts(call, count: int, size: int):
    """Split ``call(i)`` for i < count into parts of ``size`` calls each."""
    return [lambda lo=lo: [call(i) for i in range(lo, min(lo + size, count))]
            for lo in range(0, count, size)]


def machine_facts() -> dict:
    import ctypes
    import platform
    from importlib import metadata

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    blas_threads = None
    try:
        with open("/proc/self/maps", encoding="utf-8") as handle:
            libs = sorted({ln.split()[-1] for ln in handle if "openblas" in ln.lower()})
    except OSError:
        libs = []
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                blas_threads = int(fn())
                break
        if blas_threads is not None:
            break
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "jsonschema": metadata.version("jsonschema"),
        "blas_threads": blas_threads,
    }


# --- in-process workloads ---------------------------------------------------


class McWorkload:
    """The operations of one mc-* pass, built from the generated inputs."""

    def __init__(self, spec: dict):
        from hm_sim import bloch, dynamics, harness, serialize

        self.spec = spec
        self.bloch, self.dynamics, self.harness = bloch, dynamics, harness
        self.serialize = serialize
        self.names = [op["name"] for op in workloads.mc_ops(spec)]

    # mc-batch ------------------------------------------------------------
    def _batch_config(self, model: str, n: int, trials: int):
        membrane = ({"kind": "cellular", "weights": self.spec["cell_weights"]}
                    if model == "cellular" else {"kind": model})
        return self.harness.ExperimentConfig(
            n, self.spec["states"][str(n)], {"kind": "canonical"}, membrane,
            trials, self.spec["seed"])

    def batch_op(self, name: str):
        model, n, w = name.split(".")
        config = self._batch_config(model, int(n[1:]), self.spec["trials"])
        workers = int(w[1:])
        return [lambda: [self.harness.simulate_statistics(config, workers=workers)]]

    # mc-plans ------------------------------------------------------------
    def plans_op(self, name: str):
        h, d, spec = self.harness, self.dynamics, self.spec
        seed = spec["seed"]
        if name == "ua":
            ua = spec["ua"]
            return [lambda: [h.universal_average_experiment(
                3, ua["state"], {"kind": "canonical"}, workloads.CELLS,
                ua["membranes"], ua["trials"], seed)]]
        if name == "pairs":
            pairs = spec["pairs"]
            state = h.resolve_state_spec(pairs["state"], 6)
            observable = h.resolve_observable_spec(
                {"kind": "canonical", "labels": pairs["labels"]}, 6)
            model = d.MembraneModel.uniform()
            source = d.RandomSource(seed)

            def pair(i):
                _, first, posterior = d.run_measurement(
                    state, observable, model, source.trial_stream(2 * i))
                _, again, _ = d.run_measurement(
                    posterior, observable, model, source.trial_stream(2 * i + 1))
                return first, again
            return _parts(pair, pairs["count"], PART_CALLS["pairs"])
        if name == "spin":
            spin = spec["spin"]
            r = self.bloch.BlochVector(2, spin["bloch"])
            model = d.MembraneModel.uniform()
            source = d.RandomSource(seed)
            return _parts(lambda i: d.spin_machine_measure(r, spin["axis"], model,
                                                           source.trial_stream(i)),
                          spin["count"], PART_CALLS["spin"])
        states = spec["states"]
        observable = h.resolve_observable_spec({"kind": "canonical"}, 8)
        densities = [h.resolve_state_spec(s, 8) for s in states["states"]]
        configs = [h.ExperimentConfig(8, s, {"kind": "canonical"}, {"kind": "uniform"},
                                      states["trials"], seed)
                   for s in states["states"]]
        return _parts(lambda i: (h.born_identity_max_gap(densities[i], observable),
                                 h.simulate_statistics(configs[i], job=i)),
                      len(configs), PART_CALLS["states"])

    def op(self, name):
        return (self.batch_op if self.spec["workload"] == "mc-batch" else self.plans_op)(name)

    def check(self, name, result):
        """(digest, verdict, problems) of a whole operation's result."""
        check = Check(self.serialize, name)
        check.add(result)
        return check.finish()

    def warm_up(self) -> None:
        """Fill lazy caches (generator bases, simplexes, thread pools) once."""
        if self.spec["workload"] == "mc-batch":
            for model in workloads.MODELS:
                for n in workloads.BATCH_DIMS:
                    for workers in (1, 2):
                        self.harness.simulate_statistics(
                            self._batch_config(model, n, 2 * spans.CHUNK_TRIALS),
                            workers=workers)
            return
        small = json.loads(json.dumps(self.spec))
        small["ua"]["membranes"] = small["pairs"]["count"] = small["spin"]["count"] = 3
        small["states"]["states"] = small["states"]["states"][:3]
        warm = McWorkload(small)
        for name in warm.names:
            for part in warm.op(name):
                part()


class Check:
    """Digest, verdict and invariant checks of one operation, fed part by part.

    Each part's results are hashed and dropped before the next part runs,
    so a pass never holds more than one part's results: otherwise the
    first pass would grow the heap (page faults) and the later ones not.
    """

    def __init__(self, serialize, name: str):
        self.s = serialize
        self.name = name
        self.hash = hashlib.sha256()
        self.count = 0
        self.passed = 0
        self.problems: list[str] = []

    def _update(self, text: str) -> None:
        self.hash.update(text.encode())

    def _entry(self, report_id, report, **extra) -> None:
        self._update(self.s.dumps_canonical(self.s.report_entry(report_id, report, **extra)))
        self.passed += bool(report.passed)

    def add(self, chunk: list) -> None:
        name, s = self.name, self.s
        for i, item in enumerate(chunk, start=self.count):
            if name == "pairs":
                first, again = item
                if first.outcome_block != again.outcome_block:
                    self.problems.append(
                        f"pair {i}: re-measurement gave block {again.outcome_block}, "
                        f"first gave {first.outcome_block}")
                self._update(s.dumps_canonical(s.trace_to_json(first)))
                self._update(s.dumps_canonical(s.trace_to_json(again)))
            elif name == "spin":
                vec, trace = item
                self._update(s.dumps_canonical({"outcome": vec,
                                                "trace": s.trace_to_json(trace)}))
            elif name == "states":
                gap, report = item
                if not gap <= ORACLE_GAP:
                    self.problems.append(
                        f"state {i}: Born identity gap {gap:.3e} above {ORACLE_GAP}")
                self._entry(f"state-{i:03d}", report, analytic_max_gap=gap)
            else:  # one report: a batch cell (id without the worker count) or ua
                self._entry(name.rsplit(".", 1)[0] if "." in name else name, item)
        self.count += len(chunk)

    def finish(self) -> tuple[str, str, list[str]]:
        if self.name == "pairs":
            verdict = "repeatable"
        elif self.name == "spin":
            verdict = "ok"
        elif self.name == "states":
            verdict = f"{self.passed}/{self.count} pass"
        else:
            verdict = "pass" if self.passed else "fail"
        return self.hash.hexdigest(), verdict, self.problems[:5]


def run_pass(work: McWorkload, label: str, tracer=None) -> dict:
    """One timed pass; digests and checks run after each operation.

    Each operation runs as timed parts, and the reference kernel runs
    before the first part and after every part, so each part carries
    ``[cpu, kernel before, kernel after, calls]``.
    """
    import calib

    ops = {}
    suspended = tracer.suspended if tracer is not None else contextlib.nullcontext
    before = calib.kernel_samples(1)[0]
    for name in work.names:
        parts, elapsed, check = [], 0.0, Check(work.serialize, name)
        for part in work.op(name):
            with spans.operation(f"{label}:{name}"):
                cpu = time.process_time()
                start = time.perf_counter()
                chunk = part()
                elapsed += time.perf_counter() - start
                cpu = time.process_time() - cpu
            with suspended():
                check.add(chunk)
            calls = len(chunk)
            del chunk
            after = calib.kernel_cpu()
            parts.append([cpu, before, after, calls])
            before = after
        digest, verdict, problems = check.finish()
        ops[name] = {"s": elapsed, "parts": parts, "digest": digest,
                     "verdict": verdict, "problems": problems}
    return ops


def timed_setup(setup):
    """Print ``ready <cpu> <4 kernel times>`` for ``setup()`` and return its result.

    ``cpu`` is what the process has spent from its start until ``setup()``
    returns, less the reference-kernel runs just before ``setup()``; the
    kernel times are two runs before and two after it.
    """
    import calib

    start = time.process_time()
    before = calib.kernel_samples(2)
    kernels = time.process_time() - start
    result = setup()
    cpu = time.process_time() - kernels
    kernel = before + calib.kernel_samples(2)
    print(f"ready {cpu!r} " + " ".join(map(repr, kernel)), flush=True)
    return result


def _mc_setup(spec: dict):
    work = McWorkload(spec)
    work.warm_up()
    return work


def run_mc(spec_path, result_path, seconds, trace, spans_path) -> int:
    with open(spec_path, encoding="utf-8") as handle:
        spec = json.load(handle)
    passes = []
    if trace:
        # No kernel before the import here: the traced run times imports.
        import hm_sim  # noqa: F401

        tracer = spans.Tracer()
        tracer.install()
        work = McWorkload(spec)
        with spans.operation("warmup"):
            work.warm_up()
        print("ready", flush=True)
        passes.append(run_pass(work, "traced", tracer))
        tracer.uninstall()
        tracer.dump(spans_path)
        passes.append(run_pass(work, "untraced"))
    else:
        work = timed_setup(lambda: _mc_setup(spec))
        start = time.perf_counter()
        while True:
            begun = time.perf_counter()
            passes.append(run_pass(work, f"p{len(passes)}"))
            now = time.perf_counter()
            if now - start + (now - begun) > seconds:
                break
    result = {"passes": passes,
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    with open(result_path, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


def probe(spec_path: str | None) -> int:
    if spec_path is None:
        timed_setup(lambda: importlib.import_module("hm_sim.cli"))
    else:
        with open(spec_path, encoding="utf-8") as handle:
            spec = json.load(handle)
        timed_setup(lambda: _mc_setup(spec))
    return 0


def run_cli(stats_path: str, spans_path: str, argv: list[str]) -> int:
    """Run one CLI command through ``hm_sim.cli.main``; write its CPU seconds.

    The reference kernel runs twice after ``main`` and, untraced, twice
    before the import.  Traced, nothing runs before the import, so
    ``-X importtime`` sees the imports exactly as ``python -m hm_sim`` makes
    them.
    """
    kernel, kernels = [], 0.0
    if not spans_path:
        import calib

        start = time.process_time()
        kernel += calib.kernel_samples(2)
        kernels = time.process_time() - start
    import hm_sim.cli

    tracer = None
    if spans_path:
        tracer = spans.Tracer()
        tracer.install()
    try:
        code = hm_sim.cli.main(argv)
    finally:
        sys.stdout.flush()
        if tracer is not None:
            tracer.uninstall()
    cpu = time.process_time() - kernels
    import calib

    kernel += calib.kernel_samples(2)
    if tracer is not None:
        tracer.dump(spans_path)
    with open(stats_path, "w", encoding="utf-8") as handle:
        json.dump({"cpu": cpu, "kernel": kernel}, handle)
    return code


def main(argv: list[str]) -> int:
    mode = argv[0]
    if mode == "probe":
        return probe(argv[1] if len(argv) > 1 else None)
    if mode == "facts":
        import numpy  # noqa: F401  (loads the BLAS library whose threads are counted)

        print(json.dumps(machine_facts()))
        return 0
    if mode == "mc":
        return run_mc(argv[1], argv[2], float(argv[3]), argv[4] == "1", argv[5])
    if mode == "cli":
        return run_cli(argv[1], argv[2], argv[3:])
    raise SystemExit(f"unknown worker mode {mode!r}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
