"""Correctness gate: every benchmark operation is checked before it counts.

An operation fails when
  * its exit code is not the one recorded for its inputs,
  * its report is not valid JSON or not valid against report.schema.json,
  * its ``pass`` field disagrees with the recorded verdict or the exit code,
  * its bytes differ from the digest recorded in ``golden.json``, or
  * its bytes differ from an earlier repeat of the same inputs in the run,
    which for mc-batch also compares workers=1 with workers=2.
In-process operations carry their own invariant checks (first-kind
repeatability, the Born identity gap) as a list of problems.

``golden.json`` was recorded from the code as it stood when the benchmark
was added; a change that alters report bytes on purpose re-records it with
``record_golden.py`` and says so.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import jsonschema

ROOT = Path(__file__).resolve().parent.parent
SCHEMA = ROOT / "src" / "hm_sim" / "schemas" / "report.schema.json"
GOLDEN = Path(__file__).resolve().parent / "golden.json"


def load_golden() -> dict:
    with open(GOLDEN, encoding="utf-8") as handle:
        return json.load(handle)


class Gate:
    """Counts attempted and failed operations and keeps the reasons."""

    def __init__(self, expected: dict | None):
        """``expected`` maps op key -> recorded outcome; None skips digests."""
        self.expected = expected
        with open(SCHEMA, encoding="utf-8") as handle:
            self._validator = jsonschema.Draft202012Validator(json.load(handle))
        self._seen: dict[str, str] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def _record(self, op: str, problems: list[str]) -> bool:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(f"{op}: {p}" for p in problems)
        return not problems

    def _repeat(self, key: str, digest: str, problems: list[str]) -> None:
        previous = self._seen.setdefault(key, digest)
        if previous != digest:
            problems.append("bytes differ from an earlier run of the same inputs")

    def _golden(self, key: str, field: str, default=None):
        if self.expected is None:
            return default
        return self.expected[key][field]

    def cli(self, op: str, exit_code: int, out: bytes) -> bool:
        """Check one CLI command's exit code and stdout report."""
        problems: list[str] = []
        want_exit = self._golden(op, "exit", 0)
        if exit_code != want_exit:
            problems.append(f"exit code {exit_code}, expected {want_exit}")
        try:
            payload = json.loads(out)
        except ValueError as err:
            problems.append(f"report is not JSON: {err}")
            payload = None
        if payload is not None:
            errors = list(self._validator.iter_errors(payload))
            if errors:
                problems.append(f"report is schema-invalid: {errors[0].message}")
            elif payload["pass"] != (want_exit == 0):
                problems.append(f"report pass={payload['pass']}, expected exit {want_exit}")
        digest = hashlib.sha256(out).hexdigest()
        want = self._golden(op, "sha256")
        if want is not None and digest != want:
            problems.append("bytes differ from the recorded digest")
        self._repeat(op, digest, problems)
        return self._record(op, problems)

    def mc(self, op: str, key: str, record: dict) -> bool:
        """Check one in-process operation; ``key`` names its inputs."""
        problems = list(record["problems"])
        want = self._golden(key, "sha256")
        if want is not None and record["digest"] != want:
            problems.append("bytes differ from the recorded digest")
        verdict = self._golden(key, "verdict")
        if verdict is not None and record["verdict"] != verdict:
            problems.append(f"verdict {record['verdict']!r}, recorded {verdict!r}")
        self._repeat(key, record["digest"], problems)
        return self._record(op, problems)
