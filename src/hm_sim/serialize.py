"""JSON and CSV emission with stable, reproducible formatting.

Every number, in JSON and in CSV alike, is printed with 12 significant
digits by one format, and JSON keys are sorted, so identical runs produce
byte-identical files.  Configs and reports pass one check: every number must
be finite, then the document must meet its versioned JSON schema, shipped
with the package.  A small checker of the keyword subset those schemas use
accepts a conforming document; jsonschema is imported only when the checker
does not accept one, to decide it and to name its error.
"""

from __future__ import annotations

import contextlib
import json
import math
import operator
import reprlib
import sys
from importlib import resources

import numpy as np

from .dynamics import CollapseTrace
from .errors import ConfigError, ReportSchemaError
from .harness import ConvergenceReport

SCHEMA_VERSION = "1"


def _g12(x) -> str:
    """``x`` with 12 significant digits: the one number format of JSON and CSV."""
    return f"{float(x):.12g}"


def sig12(x: float) -> float:
    """Round to 12 significant digits (the CLI's numeric output contract)."""
    return float(_g12(x))


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


def envelope(command: str, seed: int, passed: bool, meta: dict, reports: list[dict],
             trace: dict | None = None) -> dict:
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
        rows = zip(*(entry[key] for key in
                     ("block_labels", "expected", "observed", "deviation", "sigma")))
        lines += [",".join([*map(_g12, row), entry["id"]]) for row in rows]
    return "\n".join(lines) + "\n"


# --- schemas -------------------------------------------------------------------


def load_schema(name: str) -> dict:
    text = resources.files("hm_sim.schemas").joinpath(name).read_text("utf-8")
    return json.loads(text)


class _Undecided(Exception):
    """A value or keyword that ``_conforms`` does not decide."""


# The JSON types of each plain Python value (an integral float is an integer too).
_JSON_TYPES = {dict: {"object"}, list: {"array"}, str: {"string"}, bool: {"boolean"},
               type(None): {"null"}, int: {"integer", "number"}, float: {"number"}}
# Each bound keyword: the JSON type it applies to, and the test a value fails it by.
_BOUNDS = {"minimum": ("number", operator.lt), "maximum": ("number", operator.gt),
           "exclusiveMinimum": ("number", operator.le),
           "minItems": ("array", lambda node, n: len(node) < n),
           "maxItems": ("array", lambda node, n: len(node) > n)}


def _finite_span(items: list):
    """(min, max) of a list of ints and floats within the float range, else None.

    Each step is one pass in C.  A finite sum rules out NaN and infinity (a sum
    that overflows only sends the list to the slow path), so min and max are exact.
    """
    with contextlib.suppress(OverflowError):
        if items and set(map(type, items)) <= {int, float} and math.isfinite(sum(items)):
            low, high = min(items), max(items)
            if -sys.float_info.max <= low and high <= sys.float_info.max:
                return low, high
    return None


def _items_conform(items: list, schema: dict, root: dict) -> bool:
    # A number array passes by its span, with no call per item; any other array,
    # or one the span does not pass, is decided item by item.
    if schema.get("type") == "number" and schema.keys() <= {"type", "minimum", "maximum"}:
        span = _finite_span(items)
        if span and schema.get("minimum", span[0]) <= span[0] <= span[1] <= schema.get(
                "maximum", span[1]):
            return True
    return all(_conforms(item, schema, root) for item in items)


def _conforms(node, schema: dict, root: dict) -> bool:
    """Whether plain JSON ``node`` meets ``schema``, decided as Draft 2020-12 decides it.

    The verdict is exact, not only safe, so an ``if`` is never wrongly false and
    its ``then`` never wrongly skipped.  ``const`` and ``enum`` hold strings.  A
    value of another Python type, or a keyword outside the subset the shipped
    schemas use, raises ``_Undecided``.
    """
    if type(node) not in _JSON_TYPES:
        raise _Undecided(type(node).__name__)
    kinds = _JSON_TYPES[type(node)]
    if type(node) is float and node.is_integer():
        kinds = {"integer", "number"}
    for key, value in schema.items():
        if key == "type":
            ok = not kinds.isdisjoint([value] if isinstance(value, str) else value)
        elif key in ("const", "enum"):
            ok = node in ([value] if key == "const" else value)
        elif key in _BOUNDS:
            applies, fails = _BOUNDS[key]
            ok = applies not in kinds or not fails(node, value)
        elif key == "required":
            ok = "object" not in kinds or all(name in node for name in value)
        elif key == "properties":
            ok = "object" not in kinds or all(_conforms(node[name], sub, root)
                                              for name, sub in value.items() if name in node)
        elif key == "additionalProperties" and value is False:
            ok = "object" not in kinds or node.keys() <= schema.get("properties", {}).keys()
        elif key == "items":
            ok = "array" not in kinds or _items_conform(node, value, root)
        elif key == "$ref" and value.startswith("#/$defs/"):
            ok = _conforms(node, root["$defs"][value.removeprefix("#/$defs/")], root)
        elif key == "allOf":
            ok = all(_conforms(node, sub, root) for sub in value)
        elif key == "if":
            ok = not _conforms(node, value, root) or _conforms(node, schema.get("then", {}), root)
        elif key in ("then", "$defs", "$schema", "$id", "title"):
            continue
        else:
            raise _Undecided(key)
        if not ok:
            return False
    return True


def schema_error(payload, name: str):
    """The error ``jsonschema.validate`` would raise for ``payload``, or None.

    ``_conforms`` accepts a conforming payload of plain JSON values without
    jsonschema.  Any other payload goes to jsonschema, imported here, whose
    ``best_match`` picks the error.  It does not re-check the shipped schema
    against the metaschema on every run, as ``jsonschema.validate`` does; the
    test suite checks it once.
    """
    schema = load_schema(name)
    with contextlib.suppress(_Undecided):
        if _conforms(payload, schema, schema):
            return None
    from jsonschema import Draft202012Validator
    from jsonschema.exceptions import best_match

    return best_match(Draft202012Validator(schema).iter_errors(payload))


def _field(path) -> str:
    return "/".join(map(str, path)) or "<root>"


def _non_finite_field(payload):
    """The path of the first NaN, infinity or number beyond the float range, at any depth."""
    stack = [((), payload)]
    while stack:
        path, node = stack.pop()
        if isinstance(node, dict) or (isinstance(node, list) and not _finite_span(node)):
            items = node.items() if isinstance(node, dict) else enumerate(node)
            stack += reversed([((*path, k), v) for k, v in items])
        elif isinstance(node, (int, float)) and not abs(node) <= sys.float_info.max:
            return path
    return None


def _check(payload: dict, kind: str, error: type) -> None:
    """Raise ``error`` naming the field of a non-finite number, else of a ``kind`` schema error."""
    path = _non_finite_field(payload)
    if path is not None:
        raise error(f"{kind} field {_field(path)}: not a finite number")
    try:
        found = schema_error(payload, f"{kind}.schema.json")
    except RecursionError as err:  # from jsonschema's repr of a deeply nested value
        raise error(f"cannot check {kind}: {err}") from None
    if found is not None:
        message = found.message
        if len(message) > 160:  # jsonschema prints the whole value; print its outline
            message = message.replace(repr(found.instance), reprlib.repr(found.instance), 1)
        raise error(f"{kind} field {_field(found.absolute_path)}: {message}") from found


def validate_report_payload(payload: dict) -> None:
    """Check a report as a config is checked; one that fails is a bug, ReportSchemaError."""
    _check(payload, "report", ReportSchemaError)


def validate_config_payload(payload: dict) -> None:
    """Finite numbers, then the config schema, as for a report; ConfigError names the field."""
    _check(payload, "config", ConfigError)


def load_config_file(path: str) -> dict:
    """Parse and schema-validate a JSON config, with line/field diagnostics."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
    except OSError as err:
        raise ConfigError(f"cannot read config {path}: {err}") from err
    except json.JSONDecodeError as err:
        raise ConfigError(f"config {path} is not valid JSON: line {err.lineno} "
                          f"column {err.colno}: {err.msg}") from err
    except (ValueError, RecursionError) as err:
        # An integer longer than Python converts, bytes that are not UTF-8, or
        # arrays and objects nested deeper than the parser's recursion limit.
        raise ConfigError(f"cannot read config {path}: {err}") from err
    if not isinstance(payload, dict):
        raise ConfigError(f"config {path} must hold a JSON object")
    validate_config_payload(payload)
    return payload
