"""JSON and CSV emission with stable, reproducible formatting.

All numeric output is rounded to 12 significant digits before emission and
JSON keys are sorted, so identical runs produce byte-identical files.  The
report and config documents are validated against versioned JSON schemas
shipped with the package.
"""

from __future__ import annotations

import json
import math
import sys
from importlib import resources

import numpy as np
from jsonschema import Draft202012Validator
from jsonschema.exceptions import best_match

from .dynamics import CollapseTrace
from .errors import ConfigError
from .harness import ConvergenceReport

SCHEMA_VERSION = "1"


def sig12(x: float) -> float:
    """Round to 12 significant digits (the CLI's numeric output contract)."""
    return float(f"{float(x):.12g}")


def _rounded(obj):
    if isinstance(obj, bool) or obj is None:
        return obj
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        return sig12(obj)
    if isinstance(obj, dict):
        return {k: _rounded(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple, np.ndarray)):
        return [_rounded(v) for v in obj]
    return obj


def dumps_canonical(payload: dict) -> str:
    """Deterministic JSON text: rounded floats, sorted keys, trailing newline."""
    return json.dumps(_rounded(payload), indent=2, sort_keys=True, allow_nan=False) + "\n"


# --- domain objects ------------------------------------------------------------


def trace_to_json(trace: CollapseTrace) -> dict:
    return {
        "dimension": trace.initial_state.dimension,
        "initial_state": trace.initial_state.coordinates.tolist(),
        "on_membrane_point": trace.on_membrane_point.coordinates.tolist(),
        "breaking_point": trace.breaking_point.coordinates.tolist(),
        "outcome_block": list(trace.outcome_block),
        "outcome_label": trace.outcome_label,
        "intermediate_point": trace.intermediate_point.coordinates.tolist(),
        "final_state": trace.final_state.coordinates.tolist(),
        "polar_angle": trace.polar_angle,
    }


def report_entry(report_id: str, report: ConvergenceReport, analytic_max_gap=None) -> dict:
    entry = {
        "id": report_id,
        "block_labels": list(report.block_labels),
        "observed_counts": list(report.observed_counts),
        "observed": report.empirical_frequencies.tolist(),
        "expected": report.oracle_probabilities.tolist(),
        "deviation": report.per_block_deviation.tolist(),
        "sigma": report.sigma.tolist(),
        "sigma_model": report.sigma_model,
        "tolerance_sigmas": report.tolerance_sigmas,
        "trials": report.trials,
        # An infinite statistic (an infinitely significant deviation) is null:
        # JSON has no infinity.
        "chi_square": (report.chi_square_statistic
                       if math.isfinite(report.chi_square_statistic) else None),
        "chi_square_threshold": report.chi_square_threshold,
        "degrees_of_freedom": report.degrees_of_freedom,
        "pass": report.passed,
    }
    if report.meta:
        entry["meta"] = dict(report.meta)
    if analytic_max_gap is not None:
        entry["analytic_max_gap"] = float(analytic_max_gap)
    return entry


def envelope(
    command: str,
    seed: int,
    passed: bool,
    meta: dict,
    reports: list[dict],
    trace: dict | None = None,
) -> dict:
    doc = {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "seed": int(seed),
        "pass": bool(passed),
        "meta": meta,
        "reports": reports,
    }
    if trace is not None:
        doc["trace"] = trace
    return doc


# --- CSV -----------------------------------------------------------------------

CSV_HEADER = "label,expected,observed,deviation,sigma,report"


def csv_from_entries(entries: list[dict]) -> str:
    """One row per outcome block; column order is fixed and documented."""
    lines = [CSV_HEADER]
    for entry in entries:
        for label, exp, obs, dev, sig in zip(
            entry["block_labels"],
            entry["expected"],
            entry["observed"],
            entry["deviation"],
            entry["sigma"],
        ):
            lines.append(
                f"{label:.12g},{exp:.12g},{obs:.12g},"
                f"{dev:.12g},{sig:.12g},{entry['id']}"
            )
    return "\n".join(lines) + "\n"


# --- schemas -------------------------------------------------------------------


def load_schema(name: str) -> dict:
    text = resources.files("hm_sim.schemas").joinpath(name).read_text("utf-8")
    return json.loads(text)


def schema_error(payload, name: str):
    """The error ``jsonschema.validate`` would raise for ``payload``, or None.

    It does not re-check the shipped schema against the metaschema on every
    run, as ``jsonschema.validate`` does; the test suite checks it once.
    """
    return best_match(Draft202012Validator(load_schema(name)).iter_errors(payload))


def validate_report_payload(payload: dict) -> None:
    error = schema_error(payload, "report.schema.json")
    if error is not None:
        raise error


def _non_finite_field(node, path=()):
    """The path of the first number that is NaN, infinite or beyond the float range."""
    if isinstance(node, (dict, list)):
        items = node.items() if isinstance(node, dict) else enumerate(node)
        return next(filter(None, (_non_finite_field(v, (*path, k)) for k, v in items)), None)
    if isinstance(node, (int, float)) and not abs(node) <= sys.float_info.max:
        return "/".join(map(str, path)) or "<root>"
    return None


def validate_config_payload(payload: dict) -> None:
    """Check a config's numbers are finite, then its schema; ConfigError names the field."""
    path = _non_finite_field(payload)
    if path is not None:
        raise ConfigError(f"config field {path}: not a finite number")
    error = schema_error(payload, "config.schema.json")
    if error is not None:
        path = "/".join(str(p) for p in error.absolute_path) or "<root>"
        raise ConfigError(f"config field {path}: {error.message}") from error


def load_config_file(path: str) -> dict:
    """Parse and schema-validate a JSON config, with line/field diagnostics."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
    except OSError as err:
        raise ConfigError(f"cannot read config {path}: {err}") from err
    except json.JSONDecodeError as err:
        raise ConfigError(
            f"config {path} is not valid JSON: line {err.lineno} "
            f"column {err.colno}: {err.msg}"
        ) from err
    except ValueError as err:
        # An integer longer than Python converts, or bytes that are not UTF-8.
        raise ConfigError(f"cannot read config {path}: {err}") from err
    if not isinstance(payload, dict):
        raise ConfigError(f"config {path} must hold a JSON object")
    validate_config_payload(payload)
    return payload
