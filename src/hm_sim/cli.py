"""Command-line front end for the membrane-measurement experiments.

Commands: ``spin-machine``, ``verify-born``, ``die``, ``universal-average``
and ``measure``.  Every command runs one config document, checked by the
package's own checker of the one config schema (no command imports
jsonschema): the ``--config`` file, or for the first three the
inline flags collected into the same document (the two routes exclude
each other).  Each emits a machine-readable report (JSON by default, CSV
on request) and exits 0 when every check passed, 1 when checks ran and
failed, 2 on usage or configuration errors (a config of any nesting depth
included), and 3 when an internal invariant fails (``OracleMismatchError``,
``ImpossibleOutcomeError``, or ``ReportSchemaError`` for a report that holds a
non-finite number or fails its own schema, checked before either format is
written: a bug, not a bad input), with one ``internal error:`` line on stderr.
Results depend only on the configuration and the master seed: the default
seed is the fixed constant 0xB10C (overridable through the HM_SIM_SEED
environment variable, which a config seed and then --seed in turn beat),
never wall-clock time, and worker counts change nothing but wall time.
"""

from __future__ import annotations

import argparse
import contextlib
import math
import os
import sys

from .bloch import BlochVector, DensityOperator, PureState, bloch_to_density, pure_to_density
from .dynamics import ORACLE_TOL, MembraneModel, RandomSource, _held_plan, run_measurement
from .errors import (ConfigError, HmSimError, ImpossibleOutcomeError, OracleMismatchError,
                     ReportSchemaError)
from .geometry import canonical_observable
from .harness import (
    TOLERANCE_SIGMAS,
    batch_reports,
    batch_statistics,
    born_identity_max_gap,
    random_pure_state,
    resolve_membrane_spec,
    resolve_observable_spec,
    resolve_state_spec,
    universal_average_experiment,
)
from .serialize import (
    SCHEMA_VERSION,
    csv_from_entries,
    dumps_canonical,
    envelope,
    load_config_file,
    report_entry,
    trace_to_json,
    validate_config_payload,
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


def _tolerance(cfg: dict) -> float:
    """The config's sigma band, the harness default unless it sets ``tolerance_sigmas``."""
    return float(cfg.get("tolerance_sigmas", TOLERANCE_SIGMAS))


def _spin_machine(cfg: dict, seed: int, workers: int) -> tuple[dict, list, None]:
    angle = cfg["angle"]
    trials = int(cfg.get("trials", 100000))
    state = bloch_to_density(BlochVector(2, [math.sin(angle), 0.0, math.cos(angle)]))
    report = batch_statistics(
        state, canonical_observable(2, (0.5, -0.5)), MembraneModel.uniform(), trials,
        RandomSource(seed), _tolerance(cfg), workers=workers,
    )
    meta = {
        "angle": angle,
        "trials": trials,
        "closed_form": [math.cos(angle / 2) ** 2, math.sin(angle / 2) ** 2],
    }
    return meta, [report_entry("spin-machine", report)], None


def _verify_born(cfg: dict, seed: int, workers: int) -> tuple[dict, list, None]:
    dim = int(cfg["dimension"])
    states = int(cfg.get("states", 100))
    trials = int(cfg.get("trials", 10000))

    source = RandomSource(seed)
    observable = canonical_observable(dim)
    psis = [random_pure_state(source, i, dim) for i in range(states)]
    gaps = [born_identity_max_gap(pure_to_density(psi), observable) for psi in psis]
    # Normalised twice, as the old pure-spec round trip did; a golden re-record drops it.
    twice = [pure_to_density(PureState.normalized(psi.amplitudes)) for psi in psis]
    reports = batch_reports(twice, observable, MembraneModel.uniform(), trials, source,
                            _tolerance(cfg), workers)
    entries = [report_entry(f"state-{i:03d}", report, analytic_max_gap=gap)
               for i, (report, gap) in enumerate(zip(reports, gaps))]
    meta = {"dimension": dim, "states": states, "trials": trials,
            "analytic_tolerance": ORACLE_TOL}
    return meta, entries, None


def _die(cfg: dict, seed: int, workers: int) -> tuple[dict, list, None]:
    rolls = int(cfg.get("rolls", 60000))
    start = cfg.get("start", "off_table")
    if start == "off_table":
        state = DensityOperator.maximally_mixed(6)
    else:  # on_table:K, with K in 1..6 by the schema
        face = int(start.split(":", 1)[1])
        state = pure_to_density(PureState.basis_state(6, face - 1))
    report = batch_statistics(
        state, canonical_observable(6, range(1, 7)), MembraneModel.solipsistic(),
        rolls, RandomSource(seed), _tolerance(cfg), workers=workers,
    )
    return {"rolls": rolls, "start": start}, [report_entry("die", report)], None


def _universal_average(cfg: dict, seed: int, workers: int) -> tuple[dict, list, None]:
    report = universal_average_experiment(
        dimension=int(cfg["dimension"]),
        state=cfg["state"],
        observable=cfg["observable"],
        cell_count=int(cfg["cells"]),
        membrane_samples=int(cfg["membranes"]),
        trials_per_membrane=int(cfg["trials_per_membrane"]),
        master_seed=seed,
        tolerance_sigmas=_tolerance(cfg),
        fixed_cell_weights=cfg.get("fixed_cell_weights"),
        workers=workers,
    )
    meta = {
        "dimension": int(cfg["dimension"]),
        "cells": int(cfg["cells"]),
        "membranes": int(cfg["membranes"]),
        "trials_per_membrane": int(cfg["trials_per_membrane"]),
    }
    return meta, [report_entry("grand-average", report)], None


def _measure(cfg: dict, seed: int, workers: int) -> tuple[dict, list, dict]:
    dim = int(cfg["dimension"])
    state = resolve_state_spec(cfg["state"], dim)
    observable = resolve_observable_spec(cfg["observable"], dim)
    membrane = resolve_membrane_spec(cfg["membrane"])
    _, trace, _ = run_measurement(
        state, observable, membrane, RandomSource(seed).trial_stream(0)
    )
    return {"dimension": dim}, [], trace_to_json(trace)


# Each command: its handler, its help line and its inline flags as (config
# field, type, help).  Number flags are floats, checked as a file's numbers are.
_COMMANDS = {
    "spin-machine": (_spin_machine, "two-outcome elastic band at a given polar angle", (
        ("angle", float, "polar angle between state and axis, in radians"),
        ("trials", float, None),
    )),
    "verify-born": (_verify_born, "analytic + Monte Carlo Born checks on random states", (
        ("dimension", float, None),
        ("states", float, None),
        ("trials", float, None),
    )),
    "die": (_die, "solipsistic six-outcome measurement (a die roll)", (
        ("rolls", float, None),
        ("start", str, "'off_table' or 'on_table:K'"),
    )),
    "universal-average": (_universal_average,
                          "Born rule as an average over random cellular membranes", ()),
    "measure": (_measure, "one measurement run, dumping the full collapse trace", ()),
}


def _read_config(args) -> dict:
    """The run's one config document: the --config file or the inline flags.

    Inline flags become the config fields of their names, so both routes
    meet the same schema check and accept the same values.
    """
    flags = _COMMANDS[args.command][2]
    inline = {name: getattr(args, name) for name, _, _ in flags
              if getattr(args, name) is not None}
    if args.config is not None:
        if inline:
            raise ConfigError(
                "give either --config or inline parameters "
                f"(--{', --'.join(inline)}), not both"
            )
        cfg = load_config_file(args.config)
        if cfg.get("experiment") != args.command:
            raise ConfigError(
                f"config is for experiment {cfg.get('experiment')!r}, "
                f"but the {args.command!r} command was invoked"
            )
        return cfg
    if not flags:
        raise ConfigError(f"{args.command} requires --config")
    cfg = {"schema_version": SCHEMA_VERSION, "experiment": args.command, **inline}
    validate_config_payload(cfg)
    return cfg


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as a ConfigError: one ``error:`` line, exit 2."""

    def error(self, message):
        raise ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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
    for command, (_, text, flags) in _COMMANDS.items():
        p = sub.add_parser(command, parents=[common], help=text)
        for name, kind, flag_help in flags:
            p.add_argument(f"--{name}", type=kind, default=None, help=flag_help)
    return parser


def _emit(payload: dict, args) -> None:
    validate_report_payload(payload)  # whatever the format
    text = (csv_from_entries(payload["reports"]) if args.format == "csv"
            else dumps_canonical(payload))
    try:
        with (contextlib.nullcontext(sys.stdout) if args.out is None
              else open(args.out, "w", encoding="utf-8", newline="\n")) as handle:
            handle.write(text)
            handle.flush()  # so a closed pipe or a full disk fails here
    except OSError as err:
        if args.out is None:
            # A failed flush keeps its bytes for the exit flush, whose error would print
            # a traceback; so stdout's descriptor, if it has one, goes to the null device.
            with contextlib.suppress(AttributeError, OSError, ValueError):
                fd, null = sys.stdout.fileno(), os.open(os.devnull, os.O_WRONLY)
                os.dup2(null, fd)
                os.close(null)
        where = "stdout" if args.out is None else args.out
        raise ConfigError(f"cannot write {where}: {err.strerror}") from err


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        if args.workers < 1:
            raise ConfigError(f"argument --workers: must be at least 1, not {args.workers}")
        cfg = _read_config(args)
        if args.command == "measure" and args.format == "csv":
            raise ConfigError("measure emits a collapse trace; only json is supported")
        seed = resolve_seed(args.seed, cfg.get("seed"))
        meta, reports, trace = _COMMANDS[args.command][0](cfg, seed, args.workers)
        _held_plan.cache_clear()  # the report reuses no plan; free their simplexes
        passed = all(r["pass"] for r in reports)
        _emit(envelope(args.command, seed, passed, meta, reports, trace), args)
    except (OracleMismatchError, ImpossibleOutcomeError, ReportSchemaError) as err:
        print(f"internal error: {err}", file=sys.stderr)
        return 3
    except HmSimError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
