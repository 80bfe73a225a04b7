"""JSON and CSV emission with stable, reproducible formatting.

Every number, in JSON and in CSV alike, is printed with 12 significant
digits by one format, and JSON keys are sorted, so identical runs produce
byte-identical files.  Configs and reports pass one check: every number must
be finite, then the document must meet its versioned JSON schema, shipped
with the package.  A checker of the keyword subset those schemas use decides
each document as JSON Schema Draft 2020-12 does and names the error of a
rejected one as jsonschema's ``best_match`` does; no command imports jsonschema.
"""

from __future__ import annotations

import contextlib
import json
import math
import numbers
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


# Draft 2020-12's JSON types: a bool is no number, an integral float is an integer, any
# other number (numpy's too) is a number; only a list is an array, only a dict an object.
# float and int are tested before the numbers.Number ABC, whose check costs more.
_JSON_TYPES = {"object": lambda x: isinstance(x, dict), "array": lambda x: isinstance(x, list),
               "string": lambda x: isinstance(x, str), "boolean": lambda x: isinstance(x, bool),
               "null": lambda x: x is None,
               "number": lambda x: (isinstance(x, (float, int, numbers.Number))
                                    and not isinstance(x, bool)),
               "integer": lambda x: (isinstance(x, int) and not isinstance(x, bool)
                                     or isinstance(x, float) and x.is_integer())}
# Each bound keyword: its JSON type, the test a value fails it by, jsonschema's words.
_BOUNDS = {"minimum": ("number", operator.lt, lambda n: "is less than the minimum of {arg!r}"),
           "maximum": ("number", operator.gt, lambda n: "is greater than the maximum of {arg!r}"),
           "exclusiveMinimum": ("number", operator.le,
                                lambda n: "is less than or equal to the minimum of {arg!r}"),
           "minItems": ("array", lambda node, n: len(node) < n,
                        lambda n: "should be non-empty" if n == 1 else "is too short"),
           "maxItems": ("array", lambda node, n: len(node) > n,
                        lambda n: "is expected to be empty" if n == 0 else "is too long")}


def _has_type(node, types) -> bool:
    """Whether ``node`` has the JSON type ``types`` names, or one of those it lists."""
    if isinstance(types, str):
        return _JSON_TYPES[types](node)
    return any(_JSON_TYPES[kind](node) for kind in types)


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


def _span_conforms(items: list, schema: dict) -> bool:
    """Whether every item of a number array meets ``schema``, decided by the array's span."""
    span = (schema.get("type") == "number" and schema.keys() <= {"type", "minimum", "maximum"}
            and _finite_span(items))
    return bool(span) and (schema.get("minimum", span[0]) <= span[0] <= span[1]
                           <= schema.get("maximum", span[1]))


def _errors(node, schema: dict, root: dict, path: tuple = ()):
    """Each violation of ``schema`` by ``node``, decided as Draft 2020-12 decides it.

    A violation is (path, words, arg, innermost schema, value), in jsonschema 4.26's
    order; ``schema_error`` words only the one it picks.  ``const`` and ``enum`` hold strings.
    """
    for key, value in schema.items():
        if key == "type":
            if not _has_type(node, value):
                types = ", ".join(map(repr, [value] if isinstance(value, str) else value))
                yield path, "{node!r} is not of type {arg}", types, schema, node
        elif key == "const":
            if not (isinstance(node, str) and node == value):
                yield path, "{arg!r} was expected", value, schema, node
        elif key == "enum":
            if not (isinstance(node, str) and node in value):
                yield path, "{node!r} is not one of {arg!r}", value, schema, node
        elif key in _BOUNDS:
            applies, fails, says = _BOUNDS[key]
            if _JSON_TYPES[applies](node) and fails(node, value):
                yield path, "{node!r} " + says(value), value, schema, node
        elif key == "required":
            yield from ((path, "{arg!r} is a required property", name, schema, node)
                        for name in value if isinstance(node, dict) and name not in node)
        elif key == "properties":
            for name, sub in value.items() if isinstance(node, dict) else ():
                if name in node:
                    yield from _errors(node[name], sub, root, (*path, name))
        elif key == "additionalProperties" and value is False:
            extras = isinstance(node, dict) and sorted(
                node.keys() - schema.get("properties", {}).keys(), key=str)
            if extras:
                names, verb = ", ".join(map(repr, extras)), "was" if len(extras) == 1 else "were"
                yield (path, "Additional properties are not allowed ({arg} unexpected)",
                       f"{names} {verb}", schema, node)
        elif key == "items":
            if isinstance(node, list) and not _span_conforms(node, value):
                for index, item in enumerate(node):
                    yield from _errors(item, value, root, (*path, index))
        elif key == "$ref" and value.startswith("#/$defs/"):
            yield from _errors(node, root["$defs"][value.removeprefix("#/$defs/")], root, path)
        elif key == "allOf":
            for sub in value:
                yield from _errors(node, sub, root, path)
        elif key == "if":
            if _conforms(node, value, root):
                yield from _errors(node, schema.get("then", {}), root, path)
        elif key not in ("then", "$defs", "$schema", "$id", "title"):
            raise ReportSchemaError(f"schema keyword {key!r} is outside the checked subset")


def _conforms(node, schema: dict, root: dict) -> bool:
    return next(_errors(node, schema, root), None) is None  # stops at the first violation


def schema_error(payload, name: str):
    """(path, message, innermost schema, value) of the violation ``best_match`` picks, or None.

    By its ``relevance`` key less the ``anyOf``/``oneOf`` terms: the shallowest wins,
    then the greatest path, then one whose value lacks its schema's type, then the first.
    """
    schema = load_schema(name)
    found = max(_errors(payload, schema, schema), default=None, key=lambda error: (
        -len(error[0]), error[0], not _has_type(error[4], error[3].get("type", ()))))
    if found is None:
        return None
    path, words, arg, sub, node = found
    return path, words.format(node=node, arg=arg), sub, node


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
    except RecursionError as err:  # from the repr of a deeply nested value
        raise error(f"cannot check {kind}: {err}") from None
    if found is not None:
        path, message, _, value = found
        if len(message) > 160:  # a message quotes the whole value; print its outline
            message = message.replace(repr(value), reprlib.repr(value), 1)
        raise error(f"{kind} field {_field(path)}: {message}")


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
