"""CLI exit codes, idempotence, manifest rules, env seed handling."""

import errno
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import hm_sim.cli
import hm_sim.dynamics
import hm_sim.geometry
import hm_sim.harness
from hm_sim.bloch import DensityOperator, density_to_bloch
from hm_sim.cli import DEFAULT_SEED, main, resolve_seed
from hm_sim.dynamics import RandomSource
from hm_sim.errors import ConfigError, OracleMismatchError
from hm_sim.harness import random_pure_state
from hm_sim.serialize import validate_config_payload, validate_report_payload


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_spin_machine_pass_and_schema(capsys):
    code, out, _ = run_cli(
        capsys, "spin-machine", "--angle", str(math.pi / 3), "--trials", "20000"
    )
    assert code == 0
    payload = json.loads(out)
    validate_report_payload(payload)
    assert payload["meta"]["closed_form"][0] == pytest.approx(0.75, abs=1e-9)
    assert payload["reports"][0]["expected"][0] == pytest.approx(0.75, abs=1e-9)


def test_a_command_keeps_no_plan_for_its_report(tmp_path, capsys):
    # Its plans hold the observable's simplex, so keeping them past the
    # handler would add the simplex to the report stage's peak memory.
    # Only measure fills run_measurement's memo, yet every command must leave it empty.
    for config in (_ua_config(), _measure_config()):
        (tmp_path / f"{config['experiment']}.json").write_text(json.dumps(config))
    for argv in (["spin-machine", "--angle", "1.0", "--trials", "100"],
                 ["verify-born", "--dimension", "3", "--states", "2", "--trials", "100"],
                 ["die", "--rolls", "100"],
                 ["universal-average", "--config", str(tmp_path / "universal-average.json")],
                 ["measure", "--config", str(tmp_path / "measure.json")]):
        code, _, _ = run_cli(capsys, *argv)
        assert code == 0, argv
        assert hm_sim.dynamics._held_plan.cache_info().currsize == 0, argv


@pytest.mark.parametrize("argv", [
    ["spin-machine", "--angle", "1.0", "--trials", "100"],
    ["verify-born", "--dimension", "3", "--states", "4", "--trials", "100"],
    ["die", "--rolls", "100"],
])
def test_a_batch_command_counts_once_and_takes_its_oracle_from_the_counted_plans(
        monkeypatch, capsys, argv):
    # One job list for all of a command's states, and no second oracle call:
    # each verdict reads the born array of the plan its counts ran on.
    def second_oracle(*args):
        raise AssertionError("a batch command recomputed the oracle")

    calls = []
    count_jobs = hm_sim.harness._count_jobs

    def counted(*args):
        calls.append(len(args[0]))
        return count_jobs(*args)

    for module in (hm_sim.harness, hm_sim.cli):
        for name in ("born_probabilities", "born_identity_max_gap"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, second_oracle)
    monkeypatch.setattr(hm_sim.harness, "_count_jobs", counted)
    code, _, _ = run_cli(capsys, *argv)
    assert code == 0
    assert calls == [4 if argv[0] == "verify-born" else 1]


def test_spin_machine_at_zero_angle_is_exact(capsys):
    code, out, _ = run_cli(capsys, "spin-machine", "--angle", "0", "--trials", "5000")
    assert code == 0
    report = json.loads(out)["reports"][0]
    assert report["observed"] == [1.0, 0.0]
    assert report["deviation"] == [0.0, 0.0]


def test_verify_born_high_dimension(capsys):
    code, out, _ = run_cli(
        capsys, "verify-born", "--dimension", "8", "--states", "10",
        "--trials", "10000",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["pass"] is True
    assert len(payload["reports"]) == 10


def test_spin_machine_angle_validation(capsys):
    code, _, err = run_cli(capsys, "spin-machine", "--angle", "3.5")
    assert code == 2
    assert "angle" in err


def test_spin_machine_requires_angle(capsys):
    code, _, err = run_cli(capsys, "spin-machine")
    assert code == 2


def test_config_and_inline_are_exclusive(tmp_path, capsys):
    cfg = tmp_path / "spin.json"
    cfg.write_text(
        json.dumps(
            {
                "schema_version": "1",
                "experiment": "spin-machine",
                "angle": 1.0,
                "trials": 1000,
            }
        )
    )
    code, out, _ = run_cli(capsys, "spin-machine", "--config", str(cfg))
    assert code == 0
    code, _, err = run_cli(
        capsys, "spin-machine", "--config", str(cfg), "--angle", "1.0"
    )
    assert code == 2
    assert "not both" in err


def test_config_wrong_experiment_rejected(tmp_path, capsys):
    cfg = tmp_path / "die.json"
    cfg.write_text(json.dumps({"schema_version": "1", "experiment": "die"}))
    code, _, err = run_cli(capsys, "spin-machine", "--config", str(cfg))
    assert code == 2


def test_outputs_are_idempotent(tmp_path, capsys):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    for out in (out1, out2):
        code, _, _ = run_cli(
            capsys,
            "die", "--rolls", "20000", "--seed", "99", "--out", str(out),
        )
        assert code == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_worker_count_does_not_change_bytes(tmp_path, capsys):
    out1 = tmp_path / "w1.json"
    out3 = tmp_path / "w3.json"
    for out, workers in ((out1, "1"), (out3, "3")):
        code, _, _ = run_cli(
            capsys,
            "verify-born", "--dimension", "3", "--states", "4",
            "--trials", "20000", "--workers", workers, "--out", str(out),
        )
        assert code == 0
    assert out1.read_bytes() == out3.read_bytes()


def test_env_seed_overrides_default_but_not_flag(monkeypatch):
    assert resolve_seed(None, None) == DEFAULT_SEED
    monkeypatch.setenv("HM_SIM_SEED", "123")
    assert resolve_seed(None, None) == 123
    assert resolve_seed(7, None) == 7
    assert resolve_seed(None, 55) == 55
    monkeypatch.setenv("HM_SIM_SEED", "not-a-number")
    with pytest.raises(ConfigError):
        resolve_seed(None, None)


def test_env_seed_changes_cli_output(monkeypatch, capsys):
    code, base, _ = run_cli(capsys, "die", "--rolls", "5000", "--format", "csv")
    monkeypatch.setenv("HM_SIM_SEED", "0x5eed")
    code, alt, _ = run_cli(capsys, "die", "--rolls", "5000", "--format", "csv")
    assert base != alt
    monkeypatch.delenv("HM_SIM_SEED")


def test_die_on_table_certain(capsys):
    code, out, _ = run_cli(
        capsys, "die", "--rolls", "500", "--start", "on_table:2"
    )
    assert code == 0
    payload = json.loads(out)
    report = payload["reports"][0]
    assert report["observed"][1] == 1.0
    assert sum(report["observed_counts"]) == 500


def test_die_bad_face(capsys):
    code, _, err = run_cli(capsys, "die", "--start", "on_table:7")
    assert code == 2
    assert "start" in err
    code, _, err = run_cli(capsys, "die", "--start", "on_table:9")
    assert code == 2
    code, _, err = run_cli(capsys, "die", "--start", "levitating")
    assert code == 2


def test_verify_born_dimension_cap(capsys):
    code, _, err = run_cli(capsys, "verify-born", "--dimension", "9")
    assert code == 2
    assert "dimension" in err and "8" in err


# Each case: a command and config fields holding one bad value.
BAD_VALUES = {
    "angle-nan": ("spin-machine", {"angle": math.nan}),
    "angle-inf": ("spin-machine", {"angle": math.inf}),
    "trials-nan": ("spin-machine", {"angle": 1.0, "trials": math.nan}),
    "trials-inf": ("spin-machine", {"angle": 1.0, "trials": math.inf}),
    "angle-negative": ("spin-machine", {"angle": -0.1}),
    "trials-0": ("spin-machine", {"angle": 1.0, "trials": 0}),
    "dimension-1": ("verify-born", {"dimension": 1}),
    "dimension-9": ("verify-born", {"dimension": 9}),
    "states-0": ("verify-born", {"dimension": 3, "states": 0}),
    "rolls-0": ("die", {"rolls": 0}),
    "face-7": ("die", {"start": "on_table:7"}),
    "face-with-leading-zero": ("die", {"start": "on_table:04"}),
    "face-after-a-space": ("die", {"start": "on_table: 4"}),
    "face-before-a-newline": ("die", {"start": "on_table:4\n"}),
    # Counts past int64 at a vertex, and one step over each count bound.
    "trials-beyond-int64-at-a-vertex": ("spin-machine", {"angle": 0.0, "trials": 10**29}),
    "spin-machine-trials-above-max": ("spin-machine", {"angle": 1.0, "trials": 10**8 + 1}),
    "verify-born-trials-above-max": ("verify-born", {"dimension": 3, "trials": 10**8 + 1}),
    "states-above-max": ("verify-born", {"dimension": 3, "states": 10**4 + 1}),
    "rolls-above-max": ("die", {"rolls": 10**9 + 1, "start": "on_table:4"}),
}


def _inline_argv(command, fields):
    return [command] + [arg for name, value in fields.items()
                        for arg in (f"--{name}", str(value))]


def _config_argv(tmp_path, command, fields):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"schema_version": "1", "experiment": command, **fields}))
    return [command, "--config", str(cfg)]


@pytest.mark.parametrize("case", list(BAD_VALUES))
def test_bad_values_exit_2_inline_and_in_a_config_file(tmp_path, capsys, case):
    command, fields = BAD_VALUES[case]
    for argv in (_inline_argv(command, fields), _config_argv(tmp_path, command, fields)):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == "", argv
        assert err.startswith("error: ") and err.count("\n") == 1, err


@pytest.mark.parametrize(
    "command, fields",
    [
        ("spin-machine", {"angle": 1.0471975512, "trials": 2000}),
        ("verify-born", {"dimension": 3, "states": 2, "trials": 500}),
        ("die", {"rolls": 600, "start": "on_table:4"}),
        ("die", {"rolls": 600}),
        # Integral floats, as the schema's integers admit: `--rolls 600.0`.
        ("spin-machine", {"angle": 1.0, "trials": 1e3}),
        ("verify-born", {"dimension": 3.0, "states": 2.0, "trials": 500}),
        ("die", {"rolls": 600.0}),
    ],
    ids=["spin-machine", "verify-born", "die-on-table", "die-off-table",
         "trials-1000.0", "dimension-3.0", "rolls-600.0"],
)
def test_inline_flags_and_config_file_give_identical_bytes(tmp_path, capsys, command, fields):
    code, inline, _ = run_cli(capsys, *_inline_argv(command, fields), "--seed", "5")
    assert code == 0
    code, from_file, _ = run_cli(
        capsys, *_config_argv(tmp_path, command, fields), "--seed", "5")
    assert code == 0
    assert inline == from_file


def test_integral_floats_in_a_config_run_as_integers(tmp_path, capsys):
    # The schema's "integer" admits 3.0; it runs as the inline 3 does.
    fields = {"dimension": 3.0, "states": 1.0, "trials": 100.0}
    code, from_file, err = run_cli(
        capsys, *_config_argv(tmp_path, "verify-born", fields), "--seed", "5")
    assert code == 0, err
    code, inline, _ = run_cli(capsys, "verify-born", "--dimension", "3", "--states", "1",
                              "--trials", "100", "--seed", "5")
    assert from_file == inline


def test_usage_errors_exit_2_with_one_error_line(capsys):
    for argv in (["die", "--bogus", "1"], [], ["die", "--workers", "x"],
                 ["die", "--workers", "0"], ["die", "--workers", "-5"],
                 ["die", "--seed", "x"], ["die", "--format", "xml"],
                 ["spin-machine", "--angle", "abc"]):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert err.startswith("error: ") and err.count("\n") == 1, err
    with pytest.raises(SystemExit) as exit_info:
        main(["die", "--help"])
    assert exit_info.value.code == 0 and "--rolls" in capsys.readouterr().out


@pytest.mark.parametrize(
    "command, fields",
    [
        ("spin-machine", {"angle": 1.0, "trials": 1000}),
        ("verify-born", {"dimension": 2, "states": 1, "trials": 1000}),
        ("die", {"rolls": 600}),
    ],
)
def test_config_tolerance_sigmas_reaches_the_verdict(tmp_path, capsys, command, fields):
    # A band of 1e-9 sigma fails every run whose frequencies are not exact.
    argv = _config_argv(tmp_path, command, dict(fields, tolerance_sigmas=1e-9))
    code, out, _ = run_cli(capsys, *argv)
    assert code == 1
    assert all(r["tolerance_sigmas"] == 1e-9 for r in json.loads(out)["reports"])


def test_verify_born_reports_analytic_gap(capsys):
    code, out, _ = run_cli(
        capsys, "verify-born", "--dimension", "4", "--states", "3",
        "--trials", "5000",
    )
    assert code == 0
    payload = json.loads(out)
    validate_report_payload(payload)
    assert len(payload["reports"]) == 3
    for entry in payload["reports"]:
        assert entry["analytic_max_gap"] <= 1e-9


def _patch_everywhere(monkeypatch, owner, name, replacement):
    """Replace ``owner.name`` in every hm_sim module that binds it."""
    original = getattr(owner, name)
    for module_name, module in list(sys.modules.items()):
        if module_name.split(".")[0] == "hm_sim" and getattr(module, name, None) is original:
            monkeypatch.setattr(module, name, replacement)


def test_verify_born_builds_one_simplex_for_all_its_states(monkeypatch, capsys,
                                                          no_live_simplexes):
    build = hm_sim.geometry.build_measurement_simplex
    calls = []

    def counting(observable):
        calls.append(observable)
        return build(observable)

    _patch_everywhere(monkeypatch, hm_sim.geometry, "build_measurement_simplex", counting)
    code, _, _ = run_cli(capsys, "verify-born", "--dimension", "3", "--states", "5",
                         "--trials", "1000")
    assert code == 0 and len(calls) == 1


def test_verify_born_counts_all_its_states_in_one_job_list(monkeypatch, capsys):
    # Five states of two chunks each fill ten blocks: one sampler call
    # counts them all, and two workers share one pool over the blocks.
    count_jobs = hm_sim.harness._count_jobs
    calls, pools = [], []

    def counting(plans, *args):
        calls.append(len(plans))
        return count_jobs(plans, *args)

    class CountedPool(hm_sim.harness.ThreadPoolExecutor):
        def __init__(self, *args, **kwargs):
            pools.append(self)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(hm_sim.harness, "_count_jobs", counting)
    monkeypatch.setattr(hm_sim.harness, "ThreadPoolExecutor", CountedPool)
    monkeypatch.setattr(hm_sim.harness.os, "cpu_count", lambda: 4)
    outs = []
    for workers in ("1", "2"):
        code, out, _ = run_cli(capsys, "verify-born", "--dimension", "3", "--states", "5",
                               "--trials", "10000", "--workers", workers)
        assert code == 0
        outs.append(out)
    assert calls == [5, 5] and len(pools) == 1 and outs[0] == outs[1]


@pytest.mark.parametrize("argv", [
    ("spin-machine", "--angle", "1.0", "--trials", "1000"),
    ("die", "--rolls", "600"),
    ("die", "--start", "on_table:4", "--rolls", "600"),
    ("verify-born", "--dimension", "3", "--states", "2", "--trials", "1000"),
])
def test_inline_commands_hand_the_harness_objects_not_specs(monkeypatch, capsys, argv):
    def refuse(*args):
        raise AssertionError(f"resolved a spec: {args}")

    for name in ("resolve_state_spec", "resolve_observable_spec"):
        _patch_everywhere(monkeypatch, hm_sim.harness, name, refuse)
    assert run_cli(capsys, *argv)[0] == 0


def test_universal_average_requires_config(capsys):
    code, _, err = run_cli(capsys, "universal-average")
    assert code == 2


def test_universal_average_m1_matches_verify_born_single_state(tmp_path, capsys):
    # With a single full-simplex cell every membrane is uniform, so the
    # grand average must reproduce, draw for draw, the Monte Carlo part of a
    # one-state verify-born run on the same state, seed and trial count.
    seed = 4242
    dim = 3
    psi = random_pure_state(RandomSource(seed), 0, dim)
    cfg = tmp_path / "ua.json"
    cfg.write_text(
        json.dumps(
            {
                "schema_version": "1",
                "experiment": "universal-average",
                "dimension": dim,
                "state": {
                    "kind": "pure",
                    "re": list(psi.amplitudes.real),
                    "im": list(psi.amplitudes.imag),
                },
                "observable": {"kind": "canonical"},
                "cells": 1,
                "membranes": 4,
                "trials_per_membrane": 5000,
                "seed": seed,
            }
        )
    )
    code, ua_out, _ = run_cli(capsys, "universal-average", "--config", str(cfg))
    assert code == 0
    code, vb_out, _ = run_cli(
        capsys, "verify-born", "--dimension", str(dim), "--states", "1",
        "--trials", "20000", "--seed", str(seed),
    )
    assert code == 0
    ua = json.loads(ua_out)["reports"][0]
    vb = json.loads(vb_out)["reports"][0]
    for key in ("observed_counts", "observed", "expected", "deviation",
                "sigma", "chi_square", "degrees_of_freedom", "sigma_model"):
        assert ua[key] == vb[key], key


def test_adversarial_universal_average_fails_with_exit_1(tmp_path, capsys):
    weights = [0.0] * 50
    weights[-1] = 1.0
    cfg = tmp_path / "adversarial.json"
    cfg.write_text(
        json.dumps(
            {
                "schema_version": "1",
                "experiment": "universal-average",
                "dimension": 2,
                "state": {
                    "kind": "bloch",
                    "coordinates": [math.sin(math.pi / 3), 0.0, math.cos(math.pi / 3)],
                },
                "observable": {"kind": "canonical"},
                "cells": 50,
                "membranes": 1,
                "trials_per_membrane": 3000,
                "fixed_cell_weights": weights,
            }
        )
    )
    code, out, _ = run_cli(capsys, "universal-average", "--config", str(cfg))
    assert code == 1
    payload = json.loads(out)
    assert payload["pass"] is False


def test_measure_dumps_trace_and_rejects_csv(tmp_path, capsys):
    cfg = tmp_path / "measure.json"
    cfg.write_text(
        json.dumps(
            {
                "schema_version": "1",
                "experiment": "measure",
                "dimension": 2,
                "state": {"kind": "bloch", "coordinates": [1.0, 0.0, 0.0]},
                "observable": {"kind": "canonical"},
                "membrane": {"kind": "uniform"},
            }
        )
    )
    code, out, _ = run_cli(capsys, "measure", "--config", str(cfg))
    assert code == 0
    payload = json.loads(out)
    validate_report_payload(payload)
    assert payload["trace"]["outcome_block"] in ([0], [1])
    assert payload["trace"]["polar_angle"] == pytest.approx(math.pi / 2, abs=1e-9)

    code, _, err = run_cli(capsys, "measure", "--config", str(cfg), "--format", "csv")
    assert code == 2


def test_malformed_config_gives_field_diagnostics(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text(
        json.dumps(
            {
                "schema_version": "1",
                "experiment": "universal-average",
                "dimension": 2,
                "state": {"kind": "bloch", "coordinates": [0, 0, 1]},
                "observable": {"kind": "canonical"},
                "cells": 0,
                "membranes": 1,
                "trials_per_membrane": 10,
            }
        )
    )
    code, _, err = run_cli(capsys, "universal-average", "--config", str(cfg))
    assert code == 2
    assert "cells" in err


def _measure_config(**overrides):
    cfg = {
        "schema_version": "1",
        "experiment": "measure",
        "dimension": 2,
        "state": {"kind": "bloch", "coordinates": [1.0, 0.0, 0.0]},
        "observable": {"kind": "canonical"},
        "membrane": {"kind": "uniform"},
    }
    cfg.update(overrides)
    return cfg


def _ua_config(**overrides):
    cfg = {
        "schema_version": "1",
        "experiment": "universal-average",
        "dimension": 2,
        "state": {"kind": "bloch", "coordinates": [0.6, 0.0, 0.8]},
        "observable": {"kind": "canonical"},
        "cells": 5,
        "membranes": 2,
        "trials_per_membrane": 100,
    }
    cfg.update(overrides)
    return cfg


MIXED = {"kind": "preset", "name": "maximally_mixed"}

# Number literals that json.dumps cannot write, keyed by the string that
# stands for them in a config.
LITERALS = {"FLOAT_BEYOND_RANGE": "1e400", "INT_OF_5000_DIGITS": "9" * 5000}


@pytest.mark.parametrize(
    "config, out",
    [
        (_measure_config(state={"kind": "pure", "im": [0.0, 0.0]}), None),
        (_measure_config(state={"kind": "preset", "name": "basis"}), None),
        (_measure_config(state={"kind": "preset", "name": "basis", "index": 2}), None),
        (_measure_config(membrane={"kind": "cellular"}), None),
        (_measure_config(), "missing-dir/out.json"),
        (_measure_config(state={"kind": "pure", "re": [math.nan, 0.5]}), None),
        (_ua_config(tolerance_sigmas=math.inf), None),
        (_measure_config(dimension=161, state=MIXED), None),
        (_ua_config(dimension=161, state=MIXED), None),
        (_measure_config(state={"kind": "pure", "re": ["FLOAT_BEYOND_RANGE", 1.0]}), None),
        (_ua_config(tolerance_sigmas="FLOAT_BEYOND_RANGE"), None),
        (_measure_config(seed="INT_OF_5000_DIGITS"), None),
        (_ua_config(cells=10**12), None),
        (_ua_config(membranes=10**12), None),
        (_ua_config(cells=10**6 + 1), None),
        (_ua_config(membranes=10**5 + 1), None),
        (_ua_config(trials_per_membrane=10**8 + 1), None),
        (_ua_config(cells=1, fixed_cell_weights=[0.5]), None),
        (_ua_config(cells=1, fixed_cell_weights=[0.0]), None),
        (_measure_config(membrane={"kind": "cellular",
                                   "weights": [3e292, 1.7976931348623155e308]}), None),
    ],
    ids=["pure-without-re", "basis-without-index", "basis-index-out-of-range",
         "cellular-without-weights", "out-into-missing-dir", "nan-amplitude",
         "infinite-tolerance", "measure-dimension-above-max",
         "universal-average-dimension-above-max", "amplitude-beyond-float-range",
         "tolerance-beyond-float-range", "seed-beyond-int-digit-limit",
         "cells-10**12", "membranes-10**12", "cells-above-max", "membranes-above-max",
         "trials-per-membrane-above-max", "one-cell-weight-below-1", "one-cell-weight-0",
         "cell-weights-whose-sum-overflows"],
)
def test_schema_valid_bad_inputs_exit_2_without_traceback(tmp_path, capsys, config, out):
    text = json.dumps(config)
    for name, literal in LITERALS.items():
        text = text.replace(f'"{name}"', literal)
    cfg = tmp_path / "config.json"
    cfg.write_text(text)
    argv = [config["experiment"], "--config", str(cfg)]
    if out is not None:
        argv += ["--out", str(tmp_path / out)]
    code, _, err = run_cli(capsys, *argv)
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1, err


BIG = 10**400  # an integer JSON holds and a float cannot
_EXPLICIT_BASIS = [{"re": [1.0, 0.0]}, {"re": [0.0, 1.0]}]


@pytest.mark.parametrize(
    "config, field",
    [
        (_measure_config(state={"kind": "pure", "re": [BIG, 1.0]}), "state/re/0"),
        (_measure_config(state={"kind": "pure", "re": [1.0, 0.0],
                                "im": [0.0, -BIG]}), "state/im/1"),
        (_measure_config(state={"kind": "bloch", "coordinates": [0.0, 0.0, BIG]}),
         "state/coordinates/2"),
        (_measure_config(observable={"kind": "spin_axis", "axis": [BIG, 0.0, 0.0]}),
         "observable/axis/0"),
        (_measure_config(observable={"kind": "canonical", "labels": [BIG, 0.5]}),
         "observable/labels/0"),
        (_measure_config(observable={"kind": "explicit", "eigenstates": _EXPLICIT_BASIS,
                                     "labels": [0.5, BIG]}), "observable/labels/1"),
        (_measure_config(observable={"kind": "explicit",
                                     "eigenstates": [{"re": [BIG, 0.0]}, {"re": [0.0, 1.0]}],
                                     "labels": [0.5, -0.5]}), "observable/eigenstates/0/re/0"),
        (_measure_config(membrane={"kind": "cellular", "weights": [BIG]}),
         "membrane/weights/0"),
        (_ua_config(cells=2, fixed_cell_weights=[BIG, 0.0]), "fixed_cell_weights/0"),
        (_ua_config(tolerance_sigmas=BIG), "tolerance_sigmas"),
        ({"schema_version": "1", "experiment": "spin-machine", "angle": 1.0,
          "tolerance_sigmas": BIG}, "tolerance_sigmas"),
        ({"schema_version": "1", "experiment": "verify-born", "dimension": 2,
          "tolerance_sigmas": BIG}, "tolerance_sigmas"),
        ({"schema_version": "1", "experiment": "die", "tolerance_sigmas": BIG},
         "tolerance_sigmas"),
    ],
    ids=["re", "im", "coordinates", "axis", "canonical-labels", "explicit-labels",
         "eigenstate-re", "membrane-weights", "fixed-cell-weights",
         "universal-average-tolerance", "spin-machine-tolerance", "verify-born-tolerance",
         "die-tolerance"],
)
def test_integers_beyond_the_float_range_exit_2_naming_the_field(tmp_path, capsys, config,
                                                                 field):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(config))
    assert run_cli(capsys, config["experiment"], "--config", str(cfg)) == (
        2, "", f"error: config field {field}: not a finite number\n")


def test_bloch_vector_outside_the_state_space_exits_2_naming_the_eigenvalue(
    tmp_path, capsys
):
    # A point of the N = 3 ball whose rebuilt matrix has eigenvalue -1/3.
    state = {"kind": "bloch", "coordinates": [0] * 7 + [1.0]}
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(_measure_config(dimension=3, state=state)))
    code, out, err = run_cli(capsys, "measure", "--config", str(cfg))
    assert code == 2
    assert out == ""
    assert err == (
        "error: matrix is not positive semidefinite (min eigenvalue -3.333e-01)\n"
    )


def test_a_state_at_the_edge_of_its_eigenvalue_bound_measures_on_every_seed(tmp_path,
                                                                           capsys):
    # Its eigenvalue -0.9e-10 divided by the block weight, about 1/2, would
    # reject the posterior of block (0, 1); the posterior is clipped instead.
    low, high = -0.9e-10, (1 + 0.9e-10) / 2
    state = DensityOperator(3, [[low, 0, 0], [0, high, 0], [0, 0, high]])
    coordinates = density_to_bloch(state).coordinates.tolist()
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(_measure_config(
        dimension=3, state={"kind": "bloch", "coordinates": coordinates},
        observable={"kind": "canonical", "labels": [0, 0, 1]})))
    blocks = set()
    for seed in range(10):
        code, out, err = run_cli(capsys, "measure", "--config", str(cfg), "--seed", str(seed))
        assert (code, err) == (0, ""), seed
        blocks.add(tuple(json.loads(out)["trace"]["outcome_block"]))
    assert (0, 1) in blocks


def test_a_bloch_coordinate_near_the_float_limit_exits_2_at_the_ball(tmp_path, capsys):
    # The ball's bound stops the point before bloch_to_density, where
    # c_3 * 1.7e308 would overflow into RuntimeWarnings and a non-finite matrix.
    config = _measure_config(dimension=3,
                             state={"kind": "bloch", "coordinates": [1.7e308] + [0.0] * 7})
    validate_config_payload(config)
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(config))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = run_cli(capsys, "measure", "--config", str(cfg))
    assert result == (2, "", "error: norm inf exceeds 1; not a point of the ball\n")
    assert [str(w.message) for w in caught] == []


def test_config_that_is_not_utf8_exits_2_without_traceback(tmp_path, capsys):
    cfg = tmp_path / "config.json"
    cfg.write_bytes(b'{"experiment": "measure\xff"}')
    code, _, err = run_cli(capsys, "measure", "--config", str(cfg))
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1, err


def test_a_config_that_is_not_an_object_exits_2_with_one_line(tmp_path, capsys):
    cfg = tmp_path / "config.json"
    cfg.write_text("[1, 2]")
    assert run_cli(capsys, "measure", "--config", str(cfg)) == (
        2, "", f"error: config {cfg} must hold a JSON object\n")


def test_a_spin_axis_observable_beyond_dimension_2_exits_2_with_one_line(tmp_path, capsys):
    config = _measure_config(dimension=3,
                             state={"kind": "preset", "name": "maximally_mixed"},
                             observable={"kind": "spin_axis", "axis": [0.0, 0.0, 1.0]})
    validate_config_payload(config)  # the schema accepts it; the resolver does not
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(config))
    assert run_cli(capsys, "measure", "--config", str(cfg)) == (
        2, "", "error: spin_axis observables require dimension 2\n")


def test_measure_normalizes_amplitudes_whose_squares_overflow(tmp_path, capsys):
    # |a|^2 overflows a double here, but the state is just [1, 1]/sqrt(2).
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(_measure_config(state={"kind": "pure", "re": [1e200, 1e200]})))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, out, err = run_cli(capsys, "measure", "--config", str(cfg))
    assert code == 0, err
    assert json.loads(out)["trace"]["initial_state"] == pytest.approx([1.0, 0.0, 0.0])


@pytest.mark.parametrize("axis, unit", [
    ([1e200, 1e200, 0.0], [math.sqrt(0.5), math.sqrt(0.5), 0.0]),
    ([1e-13, 0.0, 0.0], [1.0, 0.0, 0.0]),
], ids=["squares-overflow", "norm-below-1e-12"])
def test_measure_takes_a_spin_axis_of_any_finite_nonzero_size(tmp_path, capsys, axis, unit):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(_measure_config(
        state={"kind": "bloch", "coordinates": [0.0, 0.0, 1.0]},
        observable={"kind": "spin_axis", "axis": axis})))
    code, out, err = run_cli(capsys, "measure", "--config", str(cfg))
    assert (code, err) == (0, "")
    # The state lands at the centre and leaves at the vertex +-unit of the outcome.
    point = json.loads(out)["trace"]["intermediate_point"]
    assert [abs(x) for x in point] == pytest.approx(unit, abs=1e-9)


def test_fixed_cell_weights_must_match_cells(tmp_path, capsys):
    cfg = tmp_path / "ua.json"
    cfg.write_text(json.dumps(_ua_config(fixed_cell_weights=[0.5, 0.5])))
    code, _, err = run_cli(capsys, "universal-average", "--config", str(cfg))
    assert code == 2
    assert "fixed_cell_weights" in err


def test_verify_born_rejects_zero_states(capsys):
    code, _, err = run_cli(capsys, "verify-born", "--dimension", "3", "--states", "0")
    assert code == 2
    assert "states" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["die", "--rolls", "10"],
        ["verify-born", "--dimension", "3", "--states", "20", "--trials", "5",
         "--seed", "1"],
    ],
    ids=["die-10-rolls", "verify-born-5-trials"],
)
def test_runs_with_every_block_pooled_pass(capsys, argv):
    # Each chi-square here has 0 degrees of freedom and a statistic of
    # rounding noise; that is no evidence against the Born rule.
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert all(r["degrees_of_freedom"] == 0
               for r in json.loads(out)["reports"])


def test_internal_invariant_failure_exits_3_without_traceback(
    tmp_path, capsys, monkeypatch
):
    def broken(*args, **kwargs):
        raise OracleMismatchError("routes disagree by 1.0e+00")

    monkeypatch.setattr(hm_sim.dynamics, "prepare_measurement", broken)
    cfg = tmp_path / "measure.json"
    cfg.write_text(json.dumps(_measure_config()))
    code, out, err = run_cli(capsys, "measure", "--config", str(cfg))
    assert code == 3
    assert out == ""
    assert err == "internal error: routes disagree by 1.0e+00\n"


class _FailingStdout:
    """A stdout whose every write raises ``error``, as a closed pipe or a full disk does."""

    def __init__(self, error):
        self.error = error

    def write(self, text):
        raise self.error

    def flush(self):
        pass


@pytest.mark.parametrize("error", [
    BrokenPipeError(errno.EPIPE, "Broken pipe"),
    OSError(errno.ENOSPC, "No space left on device"),
], ids=["broken-pipe", "disk-full"])
def test_a_failed_stdout_write_exits_2_with_one_error_line(capsys, monkeypatch, error):
    with monkeypatch.context() as patch:
        patch.setattr(sys, "stdout", _FailingStdout(error))
        code = main(["die", "--rolls", "100"])
    assert code == 2
    assert capsys.readouterr().err == f"error: cannot write stdout: {error.strerror}\n"


def _closed_pipe():
    """The write end of a pipe whose read end is already closed."""
    read, write = os.pipe()
    os.close(read)
    return write


@pytest.mark.parametrize("stdout", [
    pytest.param(lambda: os.open("/dev/full", os.O_WRONLY), id="dev-full",
                 marks=pytest.mark.skipif(not os.path.exists("/dev/full"),
                                          reason="no /dev/full")),
    pytest.param(_closed_pipe, id="closed-pipe"),
])
def test_an_unwritable_stdout_exits_2_without_traceback(stdout):
    # The interpreter flushes a buffered stdout again at exit; bytes left
    # unwritten there would add an "Exception ignored" traceback.
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    fd = stdout()
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "hm_sim", "die", "--rolls", "100"],
            stdout=fd, stderr=subprocess.PIPE, text=True, env=env,
            cwd=Path(hm_sim.__file__).resolve().parents[1],
        )
    finally:
        os.close(fd)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("error: cannot write stdout: ")
    assert proc.stderr.count("\n") == 1, proc.stderr


_IMPORT_PROBE = """
import json, sys
from hm_sim.cli import main

def loaded(package):
    return sorted(m for m in sys.modules if m == package or m.startswith(package + "."))

measure, ua, out = sys.argv[1:]
codes = [
    main(["measure", "--config", measure, "--out", out]),
    main(["spin-machine", "--angle", "1.0471975512", "--trials", "1000", "--out", out]),
    main(["verify-born", "--dimension", "3", "--states", "3", "--trials", "1000",
          "--out", out]),
    main(["die", "--rolls", "100", "--out", out]),
    main(["die", "--start", "on_table:4", "--out", out]),
]
before_hotelling = loaded("scipy")
codes.append(main(["universal-average", "--config", ua, "--out", out]))
after_hotelling, accepted_jsonschema = loaded("scipy"), loaded("jsonschema")
codes.append(main(["die", "--rolls", "0", "--out", out]))
print(json.dumps({"codes": codes, "before_hotelling": before_hotelling,
                  "after_hotelling": after_hotelling,
                  "accepted_jsonschema": accepted_jsonschema,
                  "rejected_jsonschema": loaded("jsonschema")}))
"""


@pytest.fixture(scope="module")
def import_probe(tmp_path_factory):
    """What six accepted commands and then one rejected config load, in a fresh interpreter.

    Run from the directory holding the imported package, so that the child
    tests the same code without an install or PYTHONPATH.
    """
    tmp_path = tmp_path_factory.mktemp("import-probe")
    measure = tmp_path / "measure.json"
    measure.write_text(json.dumps(_measure_config(
        dimension=3, state={"kind": "pure", "re": [0.6, 0.8, 0.0]})))
    ua = tmp_path / "ua.json"
    ua.write_text(json.dumps(_ua_config(membranes=3)))
    proc = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE, str(measure), str(ua),
         str(tmp_path / "out.json")],
        capture_output=True, text=True,
        cwd=Path(hm_sim.__file__).resolve().parents[1],
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout), proc.stderr


def test_only_the_hotelling_verdict_loads_scipy_and_none_loads_scipy_stats(import_probe):
    # scipy is the largest import; a fresh interpreter shows what each
    # command pulls in.  The chi-square verdicts read a table, so measure,
    # spin-machine, verify-born and die load no scipy at all; universal-average
    # over random membranes takes its F quantile from scipy.special.
    loaded, _ = import_probe
    assert loaded["codes"][:6] == [0] * 6
    assert loaded["before_hotelling"] == []
    assert "scipy.special" in loaded["after_hotelling"]
    assert not [m for m in loaded["after_hotelling"] if m.startswith("scipy.stats")]


def test_no_accepted_command_loads_jsonschema_and_a_rejected_config_names_its_error(
        import_probe):
    # The in-package checker accepts a valid config and report, and names the
    # error of one it rejects; no route imports jsonschema.
    loaded, stderr = import_probe
    assert loaded["accepted_jsonschema"] == []
    assert loaded["codes"][6] == 2
    assert stderr == "error: config field rolls: 0.0 is less than the minimum of 1\n"
    assert loaded["rejected_jsonschema"] == []


_WITHOUT_JSONSCHEMA = """
import sys
sys.modules["jsonschema"] = None  # so that importing it raises ImportError
import hm_sim.cli

if sys.argv[1] == "bad-report":
    real = hm_sim.cli.envelope
    hm_sim.cli.envelope = lambda *args, **kwargs: dict(real(*args, **kwargs), meta=5)
sys.exit(hm_sim.cli.main(sys.argv[2:]))
"""


@pytest.mark.parametrize("case, argv, code, stderr", [
    ("bad-config", ["die", "--rolls", "0"], 2,
     "error: config field rolls: 0.0 is less than the minimum of 1\n"),
    ("bad-report", ["die", "--rolls", "100"], 3,
     "internal error: report field meta: 5 is not of type 'object'\n"),
], ids=["config", "report"])
def test_a_rejection_reads_the_same_where_jsonschema_cannot_be_imported(case, argv, code,
                                                                         stderr):
    proc = subprocess.run(
        [sys.executable, "-c", _WITHOUT_JSONSCHEMA, case, *argv],
        capture_output=True, text=True, cwd=Path(hm_sim.__file__).resolve().parents[1],
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, "", stderr)


def test_a_report_that_fails_its_schema_exits_3_with_one_line(capsys, monkeypatch):
    real = hm_sim.cli.envelope
    monkeypatch.setattr(hm_sim.cli, "envelope", lambda *a, **k: dict(real(*a, **k), meta=5))
    code, out, err = run_cli(capsys, "die", "--rolls", "100")
    assert (code, out) == (3, "")
    assert err == "internal error: report field meta: 5 is not of type 'object'\n"


def test_a_csv_report_that_fails_its_schema_exits_3_with_one_line(capsys, monkeypatch):
    # The report check runs before the format is chosen, so CSV writes nothing either.
    real = hm_sim.cli.envelope
    monkeypatch.setattr(hm_sim.cli, "envelope", lambda *a, **k: dict(real(*a, **k), meta=5))
    code, out, err = run_cli(capsys, "die", "--rolls", "100", "--format", "csv")
    assert (code, out) == (3, "")
    assert err == "internal error: report field meta: 5 is not of type 'object'\n"


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_a_non_finite_report_number_exits_3_with_one_line(capsys, monkeypatch, fmt):
    # JSON cannot write a NaN and CSV would print "nan": either way it is a bug.
    real = hm_sim.cli.envelope

    def with_nan(*args, **kwargs):
        doc = real(*args, **kwargs)
        doc["reports"][0]["expected"][0] = math.nan
        return doc

    monkeypatch.setattr(hm_sim.cli, "envelope", with_nan)
    code, out, err = run_cli(capsys, "die", "--rolls", "100", "--format", fmt)
    assert (code, out) == (3, "")
    assert err == "internal error: report field reports/0/expected/0: not a finite number\n"


def _nested_config(tmp_path, config, depth):
    """A config file whose "NESTED" string is a number inside ``depth`` arrays."""
    path = tmp_path / "nested.json"
    path.write_text(json.dumps(config).replace('"NESTED"', "[" * depth + "1.0" + "]" * depth))
    return str(path)


@pytest.mark.parametrize("depth", [500, 1000])
def test_a_deeply_nested_config_exits_2_with_one_error_line(tmp_path, capsys, depth):
    config = _measure_config(state={"kind": "pure", "re": "NESTED"})
    code, out, err = run_cli(capsys, "measure", "--config",
                             _nested_config(tmp_path, config, depth))
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1, err[-200:]


@pytest.mark.parametrize("depth", [60, 500])
def test_a_deeply_nested_rejected_value_prints_a_short_line(tmp_path, capsys, depth):
    # jsonschema's message holds the whole bad value; a long one is printed in outline.
    config = _measure_config(state={"kind": "pure", "re": "NESTED"})
    code, out, err = run_cli(capsys, "measure", "--config",
                             _nested_config(tmp_path, config, depth))
    assert (code, out) == (2, "")
    assert err.count("\n") == 1 and len(err) <= 201, err
    assert err.startswith("error: config field state/re/0: ")
    assert err.endswith(" is not of type 'number'\n")


@pytest.mark.parametrize("depth", [500, 1000])
def test_a_deeply_nested_unknown_root_key_runs_or_exits_2(tmp_path, capsys, depth):
    # The schema admits unknown root keys, so the run is the plain one, as long as
    # the parser can read the document; one nested deeper than its recursion
    # limit is unreadable.
    config = {"schema_version": "1", "experiment": "die", "rolls": 100, "bogus": "NESTED"}
    code, out, err = run_cli(capsys, "die", "--config", _nested_config(tmp_path, config, depth))
    if depth == 500:
        assert (code, err) == (0, "")
        assert out == run_cli(capsys, "die", "--rolls", "100")[1]
    else:
        assert (code, out) == (2, "")
        assert err.startswith("error: cannot read config ") and err.count("\n") == 1, err
        assert "maximum recursion depth exceeded" in err


# --- the exit-code contract over schema-valid configs ---------------------------

_finite = st.floats(-2.0, 2.0) | st.floats(allow_nan=False, allow_infinity=False)
# One number in 8 is an integer beyond the float range: JSON holds it, a float
# cannot.  It is drawn on 7, not 0, so that Hypothesis's simplest example stays finite.
_beyond_float = st.integers(10**309, 10**400) | st.integers(-10**400, -10**309)
_number = st.integers(0, 7).flatmap(lambda k: _beyond_float if k == 7 else _finite)
_weight = st.floats(0.0, 2.0) | st.floats(min_value=0.0, allow_infinity=False)


def _count(low, high):
    """An integer, sometimes written as an integral float such as 3.0."""
    return st.integers(low, high) | st.integers(low, high).map(float)


def _vector(n, element=_number):
    """Usually n numbers, sometimes a list of the wrong length."""
    return st.lists(element, min_size=n, max_size=n) | st.lists(element, max_size=n + 2)


def _sized_vector(n):
    """A ``_vector``, or n numbers scaled so far that |a|^2 overflows or nears 0."""
    scaled = st.builds(lambda xs, scale: [x * scale for x in xs],
                       st.lists(st.floats(-2.0, 2.0), min_size=n, max_size=n),
                       st.sampled_from([1e200, 1e-200, 1e-13]))
    return _vector(n) | scaled


# Two label values, so that repeated and all-equal labels (degenerate blocks) occur.
_labels = st.sampled_from([0.5, -0.5])


def _states(n):
    return st.one_of(
        st.fixed_dictionaries({"kind": st.just("pure"), "re": _sized_vector(n)},
                              optional={"im": _vector(n)}),
        st.fixed_dictionaries({"kind": st.just("bloch"),
                               "coordinates": _vector(n * n - 1)}),
        st.just({"kind": "preset", "name": "maximally_mixed"}),
        st.fixed_dictionaries({"kind": st.just("preset"), "name": st.just("basis"),
                               "index": _count(0, n + 1)}),
    )


def _basis_eigenstates(n):
    return st.permutations(range(n)).map(
        lambda perm: [{"re": [float(j == i) for j in range(n)]} for i in perm])


def _observables(n):
    eigenstate = st.fixed_dictionaries({"re": _vector(n)}, optional={"im": _vector(n)})
    return st.one_of(
        st.fixed_dictionaries({"kind": st.just("canonical")},
                              optional={"labels": _vector(n, _labels)}),
        st.fixed_dictionaries({
            "kind": st.just("explicit"),
            "eigenstates": _basis_eigenstates(n) | st.lists(eigenstate, max_size=n + 1),
            "labels": _vector(n),
        }),
        st.fixed_dictionaries({"kind": st.just("spin_axis"), "axis": _sized_vector(3)})
        .filter(lambda spec: len(spec["axis"]) == 3),
    )


_membranes = st.one_of(
    st.just({"kind": "uniform"}),
    st.just({"kind": "solipsistic"}),
    st.fixed_dictionaries({"kind": st.just("cellular"),
                           "weights": st.lists(_weight, max_size=6)}),
)
_common = {
    "seed": st.integers(0, 2**64),
    "tolerance_sigmas": st.floats(min_value=0.0, exclude_min=True,
                                  allow_infinity=False),
}
_dimension = st.integers(2, 4)


def _experiment(name, required=None, optional=None):
    return st.fixed_dictionaries(
        {"schema_version": st.just("1"), "experiment": st.just(name),
         **(required or {})},
        optional={**_common, **(optional or {})},
    )


def _universal_average(n):
    return st.integers(1, 20).flatmap(lambda cells: _experiment(
        "universal-average",
        {"dimension": _count(n, n), "state": _states(n),
         "observable": _observables(n), "cells": _count(cells, cells),
         "membranes": _count(1, 20), "trials_per_membrane": _count(1, 2000)},
        {"fixed_cell_weights": _vector(cells, _weight)},
    ))


_configs = st.one_of(
    _experiment("spin-machine", {"angle": st.floats(0.0, 3.14159265359)},
                {"trials": _count(1, 2000)}),
    _experiment("verify-born", {"dimension": _count(2, 4)},
                {"states": _count(1, 3), "trials": _count(1, 2000)}),
    _experiment("die", None, {
        "rolls": _count(1, 2000),
        "start": st.sampled_from(["off_table"] + [f"on_table:{k}" for k in range(1, 7)]),
    }),
    _dimension.flatmap(_universal_average),
    _dimension.flatmap(lambda n: _experiment(
        "measure",
        {"dimension": _count(n, n), "state": _states(n),
         "observable": _observables(n), "membrane": _membranes},
    )),
)


# The commands whose every config field but `tolerance_sigmas` has a flag.
INLINE_COMMANDS = ("spin-machine", "verify-born", "die")


def _csv_of(payload):
    """The CSV of a JSON report: one row per block, each number as ``.12g`` text."""
    rows = ["label,expected,observed,deviation,sigma,report"]
    for r in payload["reports"]:
        for values in zip(r["block_labels"], r["expected"], r["observed"], r["deviation"],
                          r["sigma"]):
            rows.append(",".join([*(f"{v:.12g}" for v in values), r["id"]]))
    return "\n".join(rows) + "\n"


def _beyond_the_float_range(node):
    if isinstance(node, dict):
        return any(map(_beyond_the_float_range, node.values()))
    if isinstance(node, list):
        return any(map(_beyond_the_float_range, node))
    return isinstance(node, int) and abs(node) > sys.float_info.max


@settings(max_examples=60, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(config=_configs)
# One trial per membrane, all three land in one block: the Hotelling deviation
# lies where the frequencies never vary, so the sigma bands decide alone.
@example(config=_ua_config(state={"kind": "pure", "re": [2.0, 1.0]}, cells=2,
                           membranes=3, trials_per_membrane=1))
# Equal labels merge both outcomes into one block: nothing is left to test.
@example(config=_ua_config(state=MIXED, observable={"kind": "canonical",
                                                    "labels": [0.0, 0.0]},
                           cells=2, trials_per_membrane=1))
# An eigenstate with the wrong number of amplitudes and no `im`.
@example(config=_ua_config(state=MIXED, observable={
    "kind": "explicit", "eigenstates": [{"re": []}], "labels": []}, cells=1))
# One block holds every outcome and its Born sum rounds to 1 + 2^-52, so p(1 - p) < 0.
@example(config=_ua_config(dimension=3, state={"kind": "pure", "re": [0.1, 0.4, 0.2]},
                           observable={"kind": "canonical", "labels": [1, 1, 1]},
                           cells=1, membranes=1, trials_per_membrane=100))
# A solipsistic break on the vertex of a block this state never reaches.
@example(config=_measure_config(dimension=3, state={"kind": "pure", "re": [1.0, 1.0, 0.0]},
                                membrane={"kind": "solipsistic"}))
def test_every_schema_valid_config_exits_0_1_or_2_without_traceback(
    tmp_path, capsys, config
):
    if _beyond_the_float_range(config):
        with pytest.raises(ConfigError, match="not a finite number"):
            validate_config_payload(config)
    else:
        validate_config_payload(config)
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "report.json"
    out.unlink(missing_ok=True)
    code, _, err = run_cli(capsys, config["experiment"], "--config", str(cfg),
                           "--out", str(out))
    if code in (0, 1):
        report = out.read_text()
        payload = json.loads(report)
        validate_report_payload(payload)
        assert payload["pass"] is (code == 0)
    else:
        assert code == 2, err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        report = ""
    # Every command but measure writes CSV too, with the same exit code, and
    # each CSV number is the 12-significant-digit text of the JSON number.
    if config["experiment"] != "measure":
        csv = tmp_path / "report.csv"
        csv.unlink(missing_ok=True)
        csv_code, _, csv_err = run_cli(capsys, config["experiment"], "--config", str(cfg),
                                       "--format", "csv", "--out", str(csv))
        assert (csv_code, csv_err) == (code, err)
        if code in (0, 1):
            assert csv.read_text() == _csv_of(payload)
    # The inline twin of a config that flags can spell runs the same.
    fields = {k: v for k, v in config.items() if k not in ("schema_version", "experiment")}
    if config["experiment"] in INLINE_COMMANDS and "tolerance_sigmas" not in fields:
        seed = fields.pop("seed", None)
        argv = _inline_argv(config["experiment"], fields)
        if seed is not None:
            argv += ["--seed", str(seed)]
        assert run_cli(capsys, *argv)[:2] == (code, report), argv
