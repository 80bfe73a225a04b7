"""Command-line front end for the membrane-measurement experiments.

Commands: ``spin-machine``, ``verify-born``, ``die``, ``universal-average``
and ``measure``.  Each emits a machine-readable report (JSON by default,
CSV on request) and exits 0 when every check passed, 1 when checks ran and
failed, 2 on usage or configuration errors, and 3 when an internal
invariant fails (``OracleMismatchError`` or ``ImpossibleOutcomeError``: a
bug, not a bad input), with one ``internal error:`` line on stderr.
Results depend only on the configuration and the master seed: the default
seed is the fixed constant 0xB10C (overridable through the HM_SIM_SEED
environment variable, which --seed in turn beats), never wall-clock time,
and worker counts change nothing but wall time.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

from .bloch import pure_to_density
from .dynamics import ORACLE_TOL, RandomSource, run_measurement
from .errors import ConfigError, HmSimError, ImpossibleOutcomeError, OracleMismatchError
from .harness import (
    ExperimentConfig,
    born_identity_max_gap,
    random_pure_state,
    resolve_membrane_spec,
    resolve_observable_spec,
    resolve_state_spec,
    simulate_statistics,
    universal_average_experiment,
)
from .serialize import (
    csv_from_entries,
    dumps_canonical,
    envelope,
    load_config_file,
    report_entry,
    trace_to_json,
    validate_report_payload,
)

DEFAULT_SEED = 0xB10C


def resolve_seed(cli_seed: int | None, config_seed: int | None = None) -> int:
    """--seed beats the config seed, which beats HM_SIM_SEED, then 0xB10C."""
    if cli_seed is not None:
        return cli_seed
    if config_seed is not None:
        return int(config_seed)
    env = os.environ.get("HM_SIM_SEED")
    if env is not None:
        try:
            return int(env, 0)
        except ValueError as err:
            raise ConfigError(f"HM_SIM_SEED is not an integer: {env!r}") from err
    return DEFAULT_SEED


def _require_exclusive_config(args, inline_names: list[str]) -> dict | None:
    """Enforce the run rule: a config file XOR inline parameters."""
    explicit = [n for n in inline_names if getattr(args, n.replace("-", "_")) is not None]
    if args.config is not None:
        if explicit:
            raise ConfigError(
                "give either --config or inline parameters "
                f"(--{', --'.join(explicit)}), not both"
            )
        payload = load_config_file(args.config)
        if payload.get("experiment") != args.command:
            raise ConfigError(
                f"config is for experiment {payload.get('experiment')!r}, "
                f"but the {args.command!r} command was invoked"
            )
        return payload
    return None


def _spin_machine(args) -> tuple[dict, bool]:
    cfg = _require_exclusive_config(args, ["angle", "trials"])
    angle = args.angle if cfg is None else cfg.get("angle")
    trials = args.trials if cfg is None else cfg.get("trials")
    if angle is None:
        raise ConfigError("spin-machine needs --angle (radians in [0, pi])")
    trials = 100000 if trials is None else int(trials)
    if not 0.0 <= angle <= math.pi:
        raise ConfigError(f"angle must lie in [0, pi], got {angle}")
    seed = resolve_seed(args.seed, None if cfg is None else cfg.get("seed"))

    config = ExperimentConfig(
        dimension=2,
        state={"kind": "bloch",
               "coordinates": [math.sin(angle), 0.0, math.cos(angle)]},
        observable={"kind": "canonical", "labels": [0.5, -0.5]},
        membrane={"kind": "uniform"},
        trials=trials,
        master_seed=seed,
    )
    report = simulate_statistics(config, workers=args.workers)
    entry = report_entry("spin-machine", report)
    meta = {
        "angle": angle,
        "trials": trials,
        "closed_form": [math.cos(angle / 2) ** 2, math.sin(angle / 2) ** 2],
    }
    payload = envelope("spin-machine", seed, report.passed, meta, [entry])
    return payload, report.passed


def _verify_born(args) -> tuple[dict, bool]:
    cfg = _require_exclusive_config(args, ["dimension", "states", "trials"])
    dim = args.dimension if cfg is None else cfg.get("dimension")
    states = args.states if cfg is None else cfg.get("states")
    trials = args.trials if cfg is None else cfg.get("trials")
    if dim is None:
        raise ConfigError("verify-born needs --dimension")
    if not 2 <= dim <= 8:
        raise ConfigError(f"dimension must be 2..8, got {dim}")
    states = 100 if states is None else int(states)
    trials = 10000 if trials is None else int(trials)
    if states < 1:
        raise ConfigError(f"states must be >= 1, got {states}")
    seed = resolve_seed(args.seed, None if cfg is None else cfg.get("seed"))

    source = RandomSource(seed)
    observable = resolve_observable_spec({"kind": "canonical"}, dim)
    entries = []
    all_pass = True
    for i in range(states):
        psi = random_pure_state(source, i, dim)
        state_spec = {
            "kind": "pure",
            "re": psi.amplitudes.real.tolist(),
            "im": psi.amplitudes.imag.tolist(),
        }
        gap = born_identity_max_gap(pure_to_density(psi), observable)
        config = ExperimentConfig(
            dimension=dim,
            state=state_spec,
            observable={"kind": "canonical"},
            membrane={"kind": "uniform"},
            trials=trials,
            master_seed=seed,
        )
        report = simulate_statistics(config, job=i, workers=args.workers)
        all_pass = all_pass and report.passed
        entries.append(report_entry(f"state-{i:03d}", report, analytic_max_gap=gap))
    meta = {"dimension": dim, "states": states, "trials": trials,
            "analytic_tolerance": ORACLE_TOL}
    return envelope("verify-born", seed, all_pass, meta, entries), all_pass


def _die(args) -> tuple[dict, bool]:
    cfg = _require_exclusive_config(args, ["rolls", "start"])
    rolls = args.rolls if cfg is None else cfg.get("rolls")
    start = args.start if cfg is None else cfg.get("start")
    rolls = 60000 if rolls is None else int(rolls)
    start = "off_table" if start is None else str(start)
    if rolls < 1:
        raise ConfigError("rolls must be >= 1")
    if start == "off_table":
        state_spec = {"kind": "preset", "name": "maximally_mixed"}
    elif start.startswith("on_table:"):
        try:
            face = int(start.split(":", 1)[1])
        except ValueError as err:
            raise ConfigError(f"bad die start state {start!r}") from err
        if not 1 <= face <= 6:
            raise ConfigError(f"die face must be 1..6, got {face}")
        state_spec = {"kind": "preset", "name": "basis", "index": face - 1}
    else:
        raise ConfigError(
            f"start must be 'off_table' or 'on_table:K' (K in 1..6), got {start!r}"
        )
    seed = resolve_seed(args.seed, None if cfg is None else cfg.get("seed"))

    config = ExperimentConfig(
        dimension=6,
        state=state_spec,
        observable={"kind": "canonical", "labels": [1, 2, 3, 4, 5, 6]},
        membrane={"kind": "solipsistic"},
        trials=rolls,
        master_seed=seed,
    )
    report = simulate_statistics(config, workers=args.workers)
    meta = {"rolls": rolls, "start": start}
    entry = report_entry("die", report)
    return envelope("die", seed, report.passed, meta, [entry]), report.passed


def _universal_average(args) -> tuple[dict, bool]:
    if args.config is None:
        raise ConfigError("universal-average requires --config")
    cfg = _require_exclusive_config(args, [])
    seed = resolve_seed(args.seed, cfg.get("seed"))
    report = universal_average_experiment(
        dimension=int(cfg["dimension"]),
        state=cfg["state"],
        observable=cfg["observable"],
        cell_count=int(cfg["cells"]),
        membrane_samples=int(cfg["membranes"]),
        trials_per_membrane=int(cfg["trials_per_membrane"]),
        master_seed=seed,
        tolerance_sigmas=float(cfg.get("tolerance_sigmas", 4.0)),
        fixed_cell_weights=cfg.get("fixed_cell_weights"),
        workers=args.workers,
    )
    meta = {
        "dimension": int(cfg["dimension"]),
        "cells": int(cfg["cells"]),
        "membranes": int(cfg["membranes"]),
        "trials_per_membrane": int(cfg["trials_per_membrane"]),
    }
    entry = report_entry("grand-average", report)
    payload = envelope("universal-average", seed, report.passed, meta, [entry])
    return payload, report.passed


def _measure(args) -> tuple[dict, bool]:
    if args.config is None:
        raise ConfigError("measure requires --config")
    cfg = _require_exclusive_config(args, [])
    if args.format == "csv":
        raise ConfigError("measure emits a collapse trace; only json is supported")
    seed = resolve_seed(args.seed, cfg.get("seed"))
    dim = int(cfg["dimension"])
    state = resolve_state_spec(cfg["state"], dim)
    observable = resolve_observable_spec(cfg["observable"], dim)
    membrane = resolve_membrane_spec(cfg["membrane"])
    _, trace, _ = run_measurement(
        state, observable, membrane, RandomSource(seed).trial_stream(0)
    )
    meta = {"dimension": dim}
    payload = envelope("measure", seed, True, meta, [], trace=trace_to_json(trace))
    return payload, True


_HANDLERS = {
    "spin-machine": _spin_machine,
    "verify-born": _verify_born,
    "die": _die,
    "universal-average": _universal_average,
    "measure": _measure,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hm-sim",
        description="Membrane-model quantum measurement simulator",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", type=str, default=None,
                        help="JSON experiment config (excludes inline parameters)")
    common.add_argument("--seed", type=int, default=None,
                        help="master seed (default 0xB10C, env HM_SIM_SEED)")
    common.add_argument("--format", choices=("json", "csv"), default="json")
    common.add_argument("--out", type=str, default=None,
                        help="output path (default: stdout)")
    common.add_argument("--workers", type=int, default=1,
                        help="worker hint; results never depend on it")

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("spin-machine", parents=[common],
                       help="two-outcome elastic band at a given polar angle")
    p.add_argument("--angle", type=float, default=None,
                   help="polar angle between state and axis, radians in [0, pi]")
    p.add_argument("--trials", type=int, default=None)

    p = sub.add_parser("verify-born", parents=[common],
                       help="analytic + Monte Carlo Born checks on random states")
    p.add_argument("--dimension", type=int, default=None, help="2..8")
    p.add_argument("--states", type=int, default=None)
    p.add_argument("--trials", type=int, default=None)

    p = sub.add_parser("die", parents=[common],
                       help="solipsistic six-outcome measurement (a die roll)")
    p.add_argument("--rolls", type=int, default=None)
    p.add_argument("--start", type=str, default=None,
                   help="'off_table' or 'on_table:K'")

    sub.add_parser("universal-average", parents=[common],
                   help="Born rule as an average over random cellular membranes")

    sub.add_parser("measure", parents=[common],
                   help="one measurement run, dumping the full collapse trace")
    return parser


def _emit(payload: dict, args) -> None:
    if args.format == "csv":
        text = csv_from_entries(payload["reports"])
    else:
        validate_report_payload(payload)
        text = dumps_canonical(payload)
    if args.out is None:
        sys.stdout.write(text)
        return
    try:
        with open(args.out, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)
    except OSError as err:
        raise ConfigError(f"cannot write {args.out}: {err.strerror}") from err


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        payload, passed = _HANDLERS[args.command](args)
        _emit(payload, args)
    except (OracleMismatchError, ImpossibleOutcomeError) as err:
        print(f"internal error: {err}", file=sys.stderr)
        return 3
    except HmSimError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
