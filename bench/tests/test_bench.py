"""Checks of the benchmark itself; not part of the project's test suite.

    python3 -m pytest bench/tests -q

The quick-mode runs shrink every input, so these tests smoke-check the
benchmark in well under a minute and measure nothing.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import gate  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402,F401  (puts src on sys.path)
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

# Layer metrics each workload is meant to load; each must read non-zero there.
EXERCISED = {
    "cli-readme": [
        "import.hm_sim_s", "import.scipy_stats_s", "import.jsonschema_s",
        "bloch.generator_basis.s", "bloch.bloch_to_density.calls",
        "geometry.born_probabilities.calls", "dynamics.run_measurement.calls",
        "harness.sample_elementary_outcomes.calls", "harness.chi_square_check.calls",
        "harness.universal_average.per_membrane_ms",
        "serialize.validate_report_payload.calls", "serialize.dumps_canonical.s",
        "serialize.report_bytes", "cli.main.s", "trace.overhead",
    ],
    "mc-batch": [
        "harness.sample_elementary_outcomes.calls", "harness.sample_elementary_outcomes.trials",
        "harness.chunk_fill", "harness.chi_square_check.calls",
        "geometry.build_measurement_simplex.calls", "bloch.basis_bytes",
        *(f"harness.mtrials_per_s.{m}.n{n}.w{w}" for m in workloads.MODELS
          for n in workloads.BATCH_DIMS for w in (1, 2)),
        *(f"harness.parallel_speedup.{m}" for m in workloads.MODELS),
    ],
    "mc-plans": [
        "bloch.density_to_bloch.calls", "bloch.bloch_to_density.calls",
        "geometry.build_measurement_simplex.calls", "geometry.project_onto_membrane.calls",
        "geometry.barycentric_coordinates.calls", "geometry.born_probabilities.calls",
        "dynamics.run_measurement.calls", "dynamics.run_measurement.p50_us",
        "dynamics.spin_machine_measure.calls", "dynamics.luders_posterior.calls",
        "harness.universal_average.per_membrane_ms", "harness.chunk_fill",
    ],
    "large-n": [
        "bloch.generator_basis.s", "bloch.basis_bytes", "bloch.density_to_bloch.calls",
        "geometry.build_measurement_simplex.calls", "dynamics.run_measurement.calls",
        "serialize.validate_report_payload.calls", "serialize.report_bytes", "cli.main.s",
    ],
}


def run_bench(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)
    return proc


def last_json(proc):
    assert proc.returncode == 0, proc.stderr[-3000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def traced():
    return {w: last_json(run_bench("--workload", w, "--seed", "0", "--seconds", "1",
                                   "--trace", "1", "--quick"))
            for w in workloads.WORKLOADS}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_run_reports_every_layer_metric(traced, workload):
    result = traced[workload]
    assert result["correct"] and result["failed"] == 0
    units = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    zero = [name for name in EXERCISED[workload] if not result["metrics"][name]["value"] > 0]
    assert zero == [], f"{workload} did not exercise {zero}"


def test_every_counted_layer_is_exercised_somewhere(traced):
    for m in SPEC["per_layer"]:
        if m["name"].endswith(".calls"):
            assert any(traced[w]["metrics"][m["name"]]["value"] > 0 for w in traced), m["name"]


def test_quick_mode_prints_every_end_to_end_metric():
    proc = run_bench("--workload", "mc-plans", "--seed", "0", "--seconds", "1",
                     "--trace", "0", "--quick")
    result = last_json(proc)
    assert result["correct"] and result["attempted"] >= 1
    assert list(result["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
    for m in SPEC["end_to_end"]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert result["metrics"][m["name"]]["value"] > 0
        assert f"\n{m['name']}: " in proc.stdout
    assert "facts: " in proc.stdout and '"src_loc"' in proc.stdout


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = run_bench("--workload", "mc-batch", "--seed", "0", "--seconds", "1",
                     "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def _cli_report(argv):
    import hm_sim.cli

    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = hm_sim.cli.main(argv)
    return code, buffer.getvalue().encode()


def test_gate_counts_corrupted_report_and_wrong_exit_code(tmp_path):
    op = next(o for o in workloads.cli_ops("cli-readme", 0) if o["name"] == "die-on-table")
    code, out = _cli_report(op["argv"])
    check = gate.Gate(gate.load_golden()["cli-readme"]["0"])
    assert check.cli(op["name"], code, out)
    assert (check.attempted, check.failed) == (1, 0)

    corrupted = out.replace(b'"pass": true', b'"pass": false', 1)
    assert corrupted != out
    assert not check.cli(op["name"], code, corrupted)
    assert not check.cli(op["name"], code, out[: len(out) // 2])
    assert not check.cli(op["name"], 2, out)
    assert (check.attempted, check.failed) == (4, 3)
    assert any("exit code 2" in p for p in check.problems)
    assert any("schema-invalid" in p or "not JSON" in p for p in check.problems)


def test_gate_counts_worker_mismatch_and_broken_invariants():
    check = gate.Gate(None)
    good = {"digest": "a", "verdict": "pass", "problems": []}
    assert check.mc("uniform.n2.w1", "uniform.n2", good)
    assert not check.mc("uniform.n2.w2", "uniform.n2", dict(good, digest="b"))
    assert not check.mc("pairs", "pairs", dict(good, problems=["not repeatable"]))
    assert (check.attempted, check.failed) == (3, 2)


def test_tracer_patches_every_binding_and_keeps_pool_parents():
    from hm_sim import bloch, harness

    original = bloch.density_to_bloch
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert harness.density_to_bloch is not original
        config = harness.ExperimentConfig(
            3, {"kind": "pure", "re": [1.0, 0.4, 0.2], "im": [0.0, 0.3, 0.1]},
            {"kind": "canonical"}, {"kind": "uniform"}, 3 * spans.CHUNK_TRIALS, 7)
        harness.simulate_statistics(config, workers=2)
    finally:
        tracer.uninstall()
    assert harness.density_to_bloch is original
    names = {s[0]: s[2] for s in tracer.spans}
    chunks = [s for s in tracer.spans if s[2] == "dynamics.chunk_stream"]
    assert len(chunks) == 3
    assert all(names[s[1]] == "harness.sample_elementary_outcomes" for s in chunks)
    callers = {names.get(s[1]) for s in tracer.spans if s[2] == "bloch.density_to_bloch"}
    assert "harness.sample_elementary_outcomes" in callers


def test_self_time_subtracts_the_union_of_overlapping_children():
    span_list = [(1, 0, "a", 0, 10, "", None), (2, 1, "b", 1, 4, "", None),
                 (3, 1, "b", 3, 6, "", None)]
    assert spans.self_times(span_list) == {1: 5, 2: 3, 3: 3}


def test_importtime_counts_lazily_loaded_scipy_stats():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       10 |         10 |         scipy.stats._a",
        "import time:       20 |         30 |       scipy.stats._b",
        "import time:        5 |          5 |       jsonschema",
        "import time:      100 |        200 |     hm_sim.harness",
        "import time:       50 |        250 |   hm_sim",
    ])
    got = spans.parse_importtime(text)
    assert got == {"import.hm_sim_s": 250e-6, "import.scipy_stats_s": 30e-6,
                   "import.jsonschema_s": 5e-6}
