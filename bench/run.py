"""hm-sim benchmark: one command for every workload, metric and check.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads (README.md in this directory maps them to layers and metrics):
  cli-readme  each README CLI command at its README size, fresh interpreter each
  mc-batch    simulate_statistics at 2e6 trials, 3 models x N in {2,6,8} x workers {1,2}
  mc-plans    many prepared measurements with few trials each, in one process
  large-n     ``measure`` at N=32 and N=64, fresh interpreter each

Load is a closed loop with one client: one operation at a time, each
started when the previous one has ended.  A run repeats whole passes over
the workload's operations until the next pass would end after ``--seconds``
(at least one pass).  Times are CPU seconds (user + system, every thread
of the process that runs the operation), scaled to a fixed reference speed
by the kernel in calib.py, which runs in the same process right before and
after each timed sample: on a shared virtual machine the wall clock also
counts the time the host runs other guests, and even CPU time swings with
their load.  ``cpu_s`` sums the operations' median cost over all samples.  Wall and raw
CPU times are printed alongside.  BLAS runs single-threaded so that only
the workers=2 cells of mc-batch use a second thread.  Every operation goes
through the correctness gate (gate.py); ``failed`` / ``attempted`` in the
result is the fail ratio.

``--trace 1`` runs one untraced and one traced pass instead and prints the
per-layer metrics; the end-to-end metrics always come from untraced passes.
``--quick`` shrinks every input for a smoke check (no digest check, not for
measurement).  The last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import calib
import gate
import spans
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORKER = BENCH / "worker.py"
SETUP_SAMPLES = 3
RUN_BUDGET_S = 170.0
SINGLE_THREADED = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def metric_units(kind: str) -> dict[str, str]:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return {m["name"]: m["unit"] for m in json.load(handle)[kind]}


class Children:
    """Every process the run starts; all are killed and reaped on exit."""

    def __init__(self, deadline: float):
        self.deadline = deadline
        self._procs: list[subprocess.Popen] = []
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else []))
        self.env.update(dict.fromkeys(SINGLE_THREADED, "1"))

    def start(self, argv, **kwargs) -> subprocess.Popen:
        proc = subprocess.Popen(argv, env=self.env, **kwargs)
        self._procs.append(proc)
        return proc

    def _left(self) -> float:
        return max(1.0, self.deadline - time.monotonic())

    def output(self, proc) -> tuple[int, bytes]:
        """Wait for ``proc`` and return (exit code, its standard output)."""
        try:
            out, _ = proc.communicate(timeout=self._left())
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise RuntimeError(f"{proc.args[:4]} ran out of time") from None
        return proc.returncode, out

    def wait(self, proc) -> tuple[int, float, float]:
        """Reap ``proc``; returns (exit code, peak RSS in MB, CPU seconds)."""
        timer = threading.Timer(self._left(), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, usage.ru_maxrss / 1024.0, usage.ru_utime + usage.ru_stime

    def close(self) -> None:
        for proc in self._procs:
            if proc.poll() is None:
                proc.kill()
                proc.wait()


def describe(name: str, values, unit: str) -> str:
    """Median, plus the highest of p90/p99/p99.9 with >= 10 samples beyond it."""
    line = f"{name}: median {statistics.median(values):.6g} {unit} over {len(values)} samples"
    tail = None
    for p in (90, 99, 99.9):
        if len(values) * (100 - p) / 100 >= 10:
            tail = (p, statistics.quantiles(values, n=1000)[int(p * 10) - 1])
    if tail is None:
        return line + ", no percentile with >= 10 samples beyond it"
    return line + f", p{tail[0]:g} {tail[1]:.6g} {unit}"


def _ready_cpu(line: bytes) -> float:
    """Set-up CPU seconds from a ``ready`` line, at the reference speed."""
    word, cpu, *kernel = line.decode().split()
    if word != "ready" or len(kernel) != 4:
        raise ValueError
    return calib.at_reference(float(cpu), [float(k) for k in kernel])


def _fail(what: str, err) -> RuntimeError:
    err.seek(0)
    return RuntimeError(f"{what} failed:\n{err.read().decode()[-3000:]}")


def probe_setup(children: Children, run_dir: Path, spec_path=None) -> float:
    """Reference-speed CPU seconds a fresh interpreter spends before it could start."""
    argv = [sys.executable, str(WORKER), "probe"]
    if spec_path is not None:
        argv.append(str(spec_path))
    with open(run_dir / "probe.err", "w+b") as err:
        proc = children.start(argv, stdout=subprocess.PIPE, stderr=err)
        code, line = children.output(proc)
        try:
            cpu = _ready_cpu(line.strip())
        except ValueError:
            cpu = None
        if cpu is None or code != 0:
            raise _fail("set-up probe", err)
    return cpu


def machine_facts(children: Children) -> dict:
    proc = children.start([sys.executable, str(WORKER), "facts"], stdout=subprocess.PIPE)
    facts = json.loads(children.output(proc)[1])
    facts["src_loc"] = sum(len(p.read_text(encoding="utf-8").splitlines())
                           for p in sorted(SRC.rglob("*.py")))
    return facts


# --- process workloads ---------------------------------------------------------


def run_cli_pass(children, run_dir, ops, check, traced, label):
    """Run every op once in its own interpreter; returns the pass record."""
    record = {"cpu": 0.0, "scaled": 0.0, "wall": 0.0, "peak": 0.0, "ops": {},
              "traces": []}
    for op in ops:
        stem = run_dir / f"{label}-{op['name']}"
        spans_path = f"{stem}.spans.json" if traced else ""
        argv = [sys.executable] + (["-X", "importtime"] if traced else [])
        argv += [str(WORKER), "cli", f"{stem}.stats.json", spans_path, *op["argv"]]
        with open(f"{stem}.out", "wb") as out, open(f"{stem}.err", "wb") as err:
            start = time.perf_counter()
            proc = children.start(argv, cwd=run_dir, stdout=out, stderr=err)
            code, rss, cpu = children.wait(proc)
            wall = time.perf_counter() - start
        check(op["name"], code, Path(f"{stem}.out").read_bytes())
        stats_path = Path(f"{stem}.stats.json")
        # A command that crashed wrote no stats; the gate has counted it.
        stats = (json.loads(stats_path.read_text(encoding="utf-8")) if stats_path.exists()
                 else {"cpu": cpu, "kernel": [calib.NOMINAL_S]})
        scaled = calib.at_reference(stats["cpu"], stats["kernel"])
        record["cpu"] += stats["cpu"]
        record["scaled"] += scaled
        record["wall"] += wall
        record["peak"] = max(record["peak"], rss)
        record["ops"][op["name"]] = [(scaled, 1)]
        if traced:
            record["traces"].append((Path(spans_path), Path(f"{stem}.err")))
    return record


def _load_spans(files):
    """Concatenate span files of separate processes with disjoint ids."""
    out = []
    for k, path in enumerate(files):
        base = (k + 1) << 40
        with open(path, encoding="utf-8") as handle:
            for sid, parent, name, start, end, op, info in json.load(handle):
                out.append((base + sid, base + parent if parent else 0,
                            name, start, end, op, info))
    return out


def process_workload(args, children, run_dir, check, result):
    ops = workloads.cli_ops(args.workload, result["pool_entry"], args.quick)
    for op in ops:
        for name, cfg in op["configs"].items():
            (run_dir / name).write_text(json.dumps(cfg), encoding="utf-8")
    result["trials"] = sum(op["trials"] for op in ops)
    result["plans"] = sum(op["plans"] for op in ops)
    if args.trace:
        plain = run_cli_pass(children, run_dir, ops, check, False, "plain")
        traced = run_cli_pass(children, run_dir, ops, check, True, "traced")
        files = traced["traces"]
        span_list = _load_spans([s for s, _ in files])
        layer = spans.layer_metrics(span_list)
        imports = [spans.parse_importtime(e.read_text(encoding="utf-8")) for _, e in files]
        for key in imports[0]:
            layer[key] = statistics.median(i[key] for i in imports)
        layer["trace.overhead"] = median_pass([traced])[0] / median_pass([plain])[0]
        result.update(layer=layer, spans=span_list, passes=[plain, traced])
        return
    result["setup"] = [probe_setup(children, run_dir) for _ in range(SETUP_SAMPLES)]
    passes = []
    start = time.perf_counter()
    while True:
        begun = time.perf_counter()
        passes.append(run_cli_pass(children, run_dir, ops, check, False, f"p{len(passes)}"))
        now = time.perf_counter()
        if args.quick or now - start + (now - begun) > args.seconds:
            break
    result.update(passes=passes, peak_rss_mb=statistics.median(p["peak"] for p in passes))


# --- in-process workloads --------------------------------------------------------


def mc_workload(args, children, run_dir, gate_, result):
    spec = workloads.mc_spec(args.workload, result["pool_entry"], args.quick)
    ops = workloads.mc_ops(spec)
    result["trials"] = sum(op["trials"] for op in ops)
    result["plans"] = sum(op["plans"] for op in ops)
    spec_path = run_dir / "spec.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    setup = [] if args.trace else [probe_setup(children, run_dir, spec_path)
                                   for _ in range(SETUP_SAMPLES - 1)]
    argv = [sys.executable] + (["-X", "importtime"] if args.trace else [])
    argv += [str(WORKER), "mc", str(spec_path), str(run_dir / "result.json"),
             str(0 if args.quick else args.seconds), str(args.trace),
             str(run_dir / "spans.json")]
    with open(run_dir / "worker.err", "w+b") as err:
        proc = children.start(argv, stdout=subprocess.PIPE, stderr=err)
        code, line = children.output(proc)
        if not args.trace and code == 0:
            try:
                setup.append(_ready_cpu(line.strip()))
            except ValueError:
                code = 1
        if code != 0:
            raise _fail("worker", err)
        err.seek(0)
        stderr_text = err.read().decode()
    with open(run_dir / "result.json", encoding="utf-8") as handle:
        out = json.load(handle)
    for p in out["passes"]:
        for name, record in p.items():
            key = name.rsplit(".", 1)[0] if spec["workload"] == "mc-batch" else name
            gate_.mc(name, key, record)
    passes = []
    for p in out["passes"]:
        samples = {name: [(calib.at_reference(cpu, [before, after]), calls)
                          for cpu, before, after, calls in op["parts"]]
                   for name, op in p.items()}
        passes.append({"cpu": sum(part[0] for op in p.values() for part in op["parts"]),
                       "scaled": sum(c for ops in samples.values() for c, _ in ops),
                       "wall": sum(op["s"] for op in p.values()), "ops": samples})
    if args.trace:
        with open(run_dir / "spans.json", encoding="utf-8") as handle:
            all_spans = [tuple(s) for s in json.load(handle)]
        timed = [s for s in all_spans if s[5] != "warmup"]
        basis = [s for s in all_spans if s[2] == "bloch.generator_basis"]
        layer = spans.layer_metrics(timed, basis_spans=basis)
        layer.update(spans.parse_importtime(stderr_text))
        layer["trace.overhead"] = median_pass(passes[:1])[0] / median_pass(passes[1:])[0]
        result.update(layer=layer, spans=timed, passes=passes)
        return
    result.update(setup=setup, passes=passes, peak_rss_mb=out["peak_rss_mb"])


# --- main --------------------------------------------------------------------------


def median_pass(passes) -> tuple[float, dict[str, float]]:
    """Reference-speed CPU seconds of one pass, robust to bursts of load.

    Per operation: the median cost per call over every timed sample of the
    run (parts of every pass), times the operation's calls per pass.
    """
    per_op = {}
    for name, samples in passes[0]["ops"].items():
        calls = sum(n for _, n in samples)
        per_op[name] = statistics.median(
            cost / n for p in passes for cost, n in p["ops"][name]) * calls
    return sum(per_op.values()), per_op


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="tiny inputs for a smoke check; not for measurement")
    return parser.parse_args(argv)


def report(args, result, gate_) -> dict:
    """Print the human-readable lines; return the metrics of the result line."""
    passes = result["passes"]
    print(f"hm-sim bench: workload={args.workload} seed={args.seed} "
          f"pool_entry={result['pool_entry']} seconds={args.seconds:g} "
          f"trace={args.trace}{' quick' if args.quick else ''}")
    print("facts: " + json.dumps(result["facts"], sort_keys=True))
    print(describe("pass wall", [p["wall"] for p in passes], "s"))
    print(describe("pass cpu", [p["cpu"] for p in passes], "s"))
    print(describe("pass cpu at reference speed", [p["scaled"] for p in passes], "s"))
    pass_cost, per_op = median_pass(passes)
    for name, cost in per_op.items():
        count = sum(len(p["ops"][name]) for p in passes)
        print(f"op {name}: {cost:.6g} s per pass at reference speed, "
              f"median of {count} timed samples")
    print(f"fail_ratio: {gate_.failed}/{gate_.attempted}")
    for problem in gate_.problems[:20]:
        print(f"FAILED {problem}")
    if args.trace:
        layer = result["layer"]
        units = metric_units("per_layer")
        missing = set(units) - set(layer)
        if missing:
            raise RuntimeError(f"per-layer metrics not computed: {sorted(missing)}")
        by_name = spans.self_time_by_name(result["spans"])
        by_module: dict[str, float] = {}
        for name, secs in by_name.items():
            module = name.split(".")[0]
            by_module[module] = by_module.get(module, 0.0) + secs
        if args.workload in workloads.PROCESS_WORKLOADS:
            base, label = layer["cli.main.s"], "time inside cli.main (after cold start)"
        else:
            base, label = passes[0]["wall"], "traced pass wall"
        print(f"self time by module, share of {label}: " + ", ".join(
            f"{k} {v / base:.1%}" for k, v in sorted(by_module.items())))
        top = sorted(by_name.items(), key=lambda kv: -kv[1])[:5]
        print("largest self times: " + ", ".join(f"{k} {v / base:.1%}" for k, v in top))
        values = layer
    else:
        units = metric_units("end_to_end")
        print(describe("setup_s", result["setup"], "s"))
        values = {
            "setup_s": statistics.median(result["setup"]),
            "cpu_s": pass_cost,
            "trials_per_cpu_s": result["trials"] / pass_cost,
            "plans_per_cpu_s": result["plans"] / pass_cost,
            "peak_rss_mb": result["peak_rss_mb"],
        }
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    for name, m in metrics.items():
        print(f"{name}: {m['value']:.6g} {m['unit']}")
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "hm_sim" / "__init__.py").is_file():
        print(f"error: no hm_sim sources under {SRC}", file=sys.stderr)
        return 2
    entry = workloads.pool_index(args.seed)
    gate_ = gate.Gate(None if args.quick else gate.load_golden()[args.workload][str(entry)])
    run_dir = ROOT / ".bench_run" / f"{args.workload}-{os.getpid()}"
    run_dir.mkdir(parents=True)
    children = Children(time.monotonic() + RUN_BUDGET_S)
    result = {"pool_entry": entry}
    try:
        if args.workload in workloads.PROCESS_WORKLOADS:
            process_workload(args, children, run_dir, gate_.cli, result)
        else:
            mc_workload(args, children, run_dir, gate_, result)
        result["facts"] = machine_facts(children)
    finally:
        children.close()
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            run_dir.parent.rmdir()
        except OSError:
            pass  # another run is still using it
    metrics = report(args, result, gate_)
    print(json.dumps({"correct": gate_.failed == 0, "attempted": gate_.attempted,
                      "failed": gate_.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
