"""Acceptance suite: the eight release criteria, one test per criterion.

Each test prints a single PASS/FAIL line (bypassing capture) so a plain
pytest run shows the verdict per criterion.  Tolerances are fixed here and
match the package's statistical contracts: 4-sigma frequency bands, the
0.999 chi-square quantile, 1e-9 for the analytic Born identity, 1e-12 for
the Lueders posterior identity.
"""

import contextlib
import json
import math
import sys
import time

import numpy as np
import pytest

from helpers import random_density

from hm_sim.bloch import (
    density_to_bloch,
    pure_to_density,
)
from hm_sim.cli import main as cli_main
from hm_sim.dynamics import MembraneModel, RandomSource, run_measurement
from hm_sim.geometry import (
    barycentric_coordinates,
    born_probabilities,
    build_measurement_simplex,
    canonical_observable,
    project_onto_membrane,
)
from hm_sim.harness import (
    ExperimentConfig,
    chi_square_check,
    random_pure_state,
    simulate_statistics,
    universal_average_experiment,
)

SEED = 0xB10C


@contextlib.contextmanager
def criterion(number, name):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} {name}: FAIL", file=sys.__stdout__, flush=True)
        raise
    print(f"ACCEPTANCE {number} {name}: PASS", file=sys.__stdout__, flush=True)


def test_criterion_1_spin_machine_law():
    angles = (0.0, math.pi / 6, math.pi / 4, math.pi / 3,
              math.pi / 2, 2 * math.pi / 3, math.pi)
    trials = 100000
    with criterion(1, "spin-machine law"):
        start = time.perf_counter()
        for theta in angles:
            cfg = ExperimentConfig(
                dimension=2,
                state={"kind": "bloch",
                       "coordinates": [math.sin(theta), 0.0, math.cos(theta)]},
                observable={"kind": "canonical", "labels": [0.5, -0.5]},
                membrane={"kind": "uniform"},
                trials=trials,
                master_seed=SEED,
            )
            report = simulate_statistics(cfg)
            p = math.cos(theta / 2) ** 2
            band = 4.0 * math.sqrt(p * (1 - p) / trials)
            freq_up = report.empirical_frequencies[0]
            assert report.oracle_probabilities[0] == pytest.approx(p, abs=1e-12)
            assert abs(freq_up - p) <= band
            if theta == 0.0:
                assert freq_up == 1.0  # eigenstate: exact, not statistical
            if theta == math.pi:
                assert freq_up == 0.0
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0, f"took {elapsed:.1f}s, budget 10s"


def test_criterion_2_born_geometry_analytic_identity():
    with criterion(2, "Born-geometry analytic identity"):
        start = time.perf_counter()
        worst = 0.0
        for n in range(2, 9):
            observable = canonical_observable(n)
            simplex = build_measurement_simplex(observable)
            source = RandomSource(SEED)
            for i in range(100):
                state = pure_to_density(random_pure_state(source, i, n))
                born = born_probabilities(state, observable)
                landed = project_onto_membrane(density_to_bloch(state), simplex)
                geometric = barycentric_coordinates(landed, simplex)
                worst = max(worst, float(np.max(np.abs(geometric - born))))
        assert worst <= 1e-9, f"max gap {worst:.3e}"
        elapsed = time.perf_counter() - start
        assert elapsed < 30.0, f"took {elapsed:.1f}s, budget 30s"


def test_criterion_3_monte_carlo_born_conformance():
    with criterion(3, "Monte Carlo Born conformance"):
        start = time.perf_counter()
        source = RandomSource(SEED)
        for n in (2, 3, 4, 6):
            for i in range(10):
                psi = random_pure_state(source, n * 1000 + i, n)
                cfg = ExperimentConfig(
                    dimension=n,
                    state={"kind": "pure",
                           "re": psi.amplitudes.real.tolist(),
                           "im": psi.amplitudes.imag.tolist()},
                    observable={"kind": "canonical"},
                    membrane={"kind": "uniform"},
                    trials=100000,
                    master_seed=SEED,
                )
                report = simulate_statistics(cfg, job=n * 1000 + i)
                assert report.chi_square_statistic <= report.chi_square_threshold, (
                    f"N={n} state {i}: chi2 {report.chi_square_statistic:.2f} "
                    f"> {report.chi_square_threshold:.2f}"
                )
        elapsed = time.perf_counter() - start
        assert elapsed < 60.0, f"took {elapsed:.1f}s, budget 60s"


def test_criterion_4_first_kind_repeatability():
    cases = [
        (2, (0.0, 1.0), 3400),
        (3, (1.0, 1.0, 2.0), 3300),
        (6, (1.0, 1.0, 2.0, 2.0, 3.0, 3.0), 3300),
    ]
    with criterion(4, "first-kind repeatability"):
        rng_states = np.random.default_rng(SEED)
        source = RandomSource(SEED)
        total = repeated = 0
        for n, labels, pairs in cases:
            observable = canonical_observable(n, labels)
            model = MembraneModel.uniform()
            for t in range(pairs):
                state = random_density(rng_states, n)
                stream = source.trial_stream(total)
                _, first, posterior = run_measurement(state, observable, model, stream)
                _, second, _ = run_measurement(posterior, observable, model, stream)
                total += 1
                repeated += second.outcome_block == first.outcome_block
        assert total == 10000
        assert repeated == total, f"only {repeated}/{total} repeats matched"


def test_criterion_5_luders_conformance():
    cases = [
        (3, (1.0, 1.0, 2.0)),
        (4, (1.0, 1.0, 2.0, 3.0)),
    ]
    with criterion(5, "Lueders conformance"):
        source = RandomSource(SEED)
        for n, labels in cases:
            observable = canonical_observable(n, labels)
            psi = random_pure_state(source, 17 * n, n)
            state = pure_to_density(psi)

            # posterior identity, checked on scalar trials (covering every
            # outcome block that occurs)
            seen = set()
            for t in range(300):
                _, trace, posterior = run_measurement(
                    state, observable, MembraneModel.uniform(),
                    source.trial_stream(t),
                )
                block = trace.outcome_block
                seen.add(block)
                projector = observable.projector(block)
                reference = projector @ state.matrix @ projector
                reference = reference / np.trace(reference).real
                assert np.max(np.abs(posterior.matrix - reference)) <= 1e-12
            assert len(seen) >= 2

            # block frequency vs the summed Born weights, 4 sigma at 1e5
            born = born_probabilities(state, observable)
            block_p = born[0] + born[1]
            cfg = ExperimentConfig(
                dimension=n,
                state={"kind": "pure",
                       "re": psi.amplitudes.real.tolist(),
                       "im": psi.amplitudes.imag.tolist()},
                observable={"kind": "canonical", "labels": list(labels)},
                membrane={"kind": "uniform"},
                trials=100000,
                master_seed=SEED,
            )
            report = simulate_statistics(cfg, job=50 + n)
            assert report.oracle_probabilities[0] == pytest.approx(block_p, abs=1e-9)
            band = 4.0 * math.sqrt(block_p * (1 - block_p) / 100000)
            assert abs(report.empirical_frequencies[0] - block_p) <= band


def test_criterion_6_solipsistic_laplace_regime():
    with criterion(6, "solipsistic/Laplace regime"):
        off = ExperimentConfig(
            dimension=6,
            state={"kind": "preset", "name": "maximally_mixed"},
            observable={"kind": "canonical", "labels": [1, 2, 3, 4, 5, 6]},
            membrane={"kind": "solipsistic"},
            trials=60000,
            master_seed=SEED,
        )
        report = simulate_statistics(off)
        chi = chi_square_check(report.observed_counts, np.full(6, 1 / 6))
        assert chi.passed, f"chi2 {chi.statistic:.2f} > {chi.threshold:.2f}"

        for face in range(1, 7):
            on = ExperimentConfig(
                dimension=6,
                state={"kind": "preset", "name": "basis", "index": face - 1},
                observable={"kind": "canonical", "labels": [1, 2, 3, 4, 5, 6]},
                membrane={"kind": "solipsistic"},
                trials=10000,
                master_seed=SEED,
            )
            rep = simulate_statistics(on)
            assert rep.empirical_frequencies[face - 1] == 1.0


def test_criterion_7_universal_average_surrogate():
    with criterion(7, "universal-average surrogate"):
        start = time.perf_counter()
        for n in (2, 3):
            psi = random_pure_state(RandomSource(SEED), 99 + n, n)
            state_spec = {"kind": "pure",
                          "re": psi.amplitudes.real.tolist(),
                          "im": psi.amplitudes.imag.tolist()}
            grand = universal_average_experiment(
                dimension=n,
                state=state_spec,
                observable={"kind": "canonical"},
                cell_count=50,
                membrane_samples=200,
                trials_per_membrane=2000,
                master_seed=SEED,
            )
            assert np.all(
                grand.per_block_deviation <= 4.0 * grand.sigma + 1e-15
            ), f"N={n}: grand average outside 4 sigma"
            assert grand.passed

            adversarial_weights = np.zeros(50)
            adversarial_weights[-1] = 1.0
            adversarial = universal_average_experiment(
                dimension=n,
                state=state_spec,
                observable={"kind": "canonical"},
                cell_count=50,
                membrane_samples=1,
                trials_per_membrane=2000,
                master_seed=SEED,
                fixed_cell_weights=adversarial_weights,
            )
            assert not adversarial.passed
        elapsed = time.perf_counter() - start
        assert elapsed < 120.0, f"took {elapsed:.1f}s, budget 120s"


def test_criterion_8_determinism(tmp_path):
    suite = [
        ("spin", ["spin-machine", "--angle", str(math.pi / 3),
                  "--trials", "20000"]),
        ("born", ["verify-born", "--dimension", "3", "--states", "5",
                  "--trials", "20000"]),
        ("die", ["die", "--rolls", "20000"]),
    ]
    ua_config = tmp_path / "ua.json"
    ua_config.write_text(json.dumps({
        "schema_version": "1",
        "experiment": "universal-average",
        "dimension": 2,
        "state": {"kind": "bloch",
                  "coordinates": [math.sin(1.0), 0.0, math.cos(1.0)]},
        "observable": {"kind": "canonical"},
        "cells": 20,
        "membranes": 30,
        "trials_per_membrane": 1000,
    }))
    suite.append(("ua", ["universal-average", "--config", str(ua_config)]))
    measure_config = tmp_path / "measure.json"
    measure_config.write_text(json.dumps({
        "schema_version": "1",
        "experiment": "measure",
        "dimension": 3,
        "state": {"kind": "pure", "re": [0.6, 0.8, 0.0]},
        "observable": {"kind": "canonical"},
        "membrane": {"kind": "uniform"},
    }))
    suite.append(("measure", ["measure", "--config", str(measure_config)]))

    with criterion(8, "determinism"):
        for name, argv in suite:
            runs = []
            for tag in ("first", "second"):
                out = tmp_path / f"{name}-{tag}.json"
                code = cli_main(argv + ["--seed", str(SEED), "--out", str(out)])
                assert code in (0, 1)
                runs.append(out.read_bytes())
            assert runs[0] == runs[1], f"{name}: reruns differ"
        # worker counts must not change a byte
        for workers in ("1", "4"):
            out = tmp_path / f"workers-{workers}.json"
            code = cli_main(
                ["verify-born", "--dimension", "4", "--states", "4",
                 "--trials", "30000", "--workers", workers,
                 "--seed", str(SEED), "--out", str(out)]
            )
            assert code == 0
        assert (tmp_path / "workers-1.json").read_bytes() == (
            tmp_path / "workers-4.json"
        ).read_bytes()
        # and fresh interpreter processes agree with each other too
        import subprocess
        from pathlib import Path

        import hm_sim

        # Run from the directory holding the imported package, so that the
        # child tests the same code without an install or PYTHONPATH.
        package_root = Path(hm_sim.__file__).resolve().parents[1]
        blobs = []
        for tag in ("p1", "p2"):
            out = tmp_path / f"proc-{tag}.json"
            proc = subprocess.run(
                [sys.executable, "-m", "hm_sim", "die", "--rolls", "20000",
                 "--seed", str(SEED), "--out", str(out)],
                capture_output=True, cwd=package_root,
            )
            assert proc.returncode == 0, proc.stderr.decode()
            blobs.append(out.read_bytes())
        assert blobs[0] == blobs[1]
