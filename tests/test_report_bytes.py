"""Report-byte guard: SHA-256 digests of small in-process CLI reports.

The CLI promises identical report bytes for a fixed seed and config.  These
digests pin that promise at test speed for one run of each command, plus
a ``measure`` of a Bloch-vector state, two fixed-weights universal-average
runs, which are expected failures (exit 1), one-cell universal-average
runs, random-weight runs on each verdict branch and a die rolled from a face;
four of the runs are pinned as CSV too.  The full byte contract is the
benchmark's ``bench/golden.json``.
A change that moves report bytes on purpose re-records these digests
together with ``golden.json`` and says so in CHANGES.md.
"""

import hashlib
import json

import pytest

from hm_sim.cli import main

MEASURE = {
    "schema_version": "1",
    "experiment": "measure",
    "dimension": 3,
    "state": {"kind": "pure", "re": [0.6, 0.48, 0.64]},
    "observable": {"kind": "canonical", "labels": [1, 1, 2]},
    "membrane": {"kind": "uniform"},
}

UNIVERSAL_AVERAGE = {
    "schema_version": "1",
    "experiment": "universal-average",
    "dimension": 3,
    "state": {"kind": "pure", "re": [0.6, 0.48, 0.64]},
    "observable": {"kind": "canonical"},
    "cells": 50,
    "membranes": 5,
    "trials_per_membrane": 100,
}

# The README's expected failure, all weight on the last of 50 cells; and a
# spread of fixed weights, whose counts move with every drawn cell.  At
# 5000 trials per membrane each chunk is long enough for the bucket lookup.
FIXED_LAST_CELL = {
    "schema_version": "1",
    "experiment": "universal-average",
    "dimension": 2,
    "state": {"kind": "bloch", "coordinates": [0.866025403784, 0.0, 0.5]},
    "observable": {"kind": "canonical"},
    "cells": 50,
    "membranes": 3,
    "trials_per_membrane": 5000,
    "fixed_cell_weights": [0] * 49 + [1],
}

FIXED_SPREAD = {
    "schema_version": "1",
    "experiment": "universal-average",
    "dimension": 3,
    "state": {"kind": "pure", "re": [0.6, 0.48, 0.64]},
    "observable": {"kind": "canonical"},
    "cells": 4,
    "membranes": 2,
    "trials_per_membrane": 5000,
    "fixed_cell_weights": [0.1, 0.2, 0.3, 0.4],
}

# A mixed state given by its Bloch vector, rebuilt into a density matrix
# before it is measured.
MEASURE_BLOCH = {
    "schema_version": "1",
    "experiment": "measure",
    "dimension": 3,
    "state": {"kind": "bloch", "coordinates": [0] * 7 + [-0.5]},
    "observable": {"kind": "canonical"},
    "membrane": {"kind": "uniform"},
}

# One cell: every membrane is the uniform one, run as a single uniform job
# of 20000 trials over three chunks, with a degenerate block.
ONE_CELL = {
    "schema_version": "1",
    "experiment": "universal-average",
    "dimension": 3,
    "state": {"kind": "pure", "re": [0.6, 0.48, 0.64]},
    "observable": {"kind": "canonical", "labels": [1, 1, 2]},
    "cells": 1,
    "membranes": 4,
    "trials_per_membrane": 5000,
}

# Random weights on one membrane take the binomial verdict; three membranes
# of one trial each leave Hotelling too few degrees of freedom, so it
# defers to the between-membrane sigma bands.
ONE_RANDOM_MEMBRANE = {**UNIVERSAL_AVERAGE, "membranes": 1, "trials_per_membrane": 2000}
ONE_TRIAL_MEMBRANES = {**UNIVERSAL_AVERAGE, "membranes": 3, "trials_per_membrane": 1}

# The one cell's weight spelled out: the same uniform job as ONE_CELL.
ONE_CELL_FULL_WEIGHT = {**ONE_CELL, "fixed_cell_weights": [1.0]}

CASES = {
    "measure": (["measure"], MEASURE,
                "b043d32b420bae2e06ac5195018d82a1abea4f77331a330af2cc17e7fd59e2a0"),
    "measure-bloch": (["measure"], MEASURE_BLOCH,
                      "316150f7e2b13fc23be79ac832e28c265328feffafc9633d990045fcbb479135"),
    "verify-born": (["verify-born", "--dimension", "3", "--states", "3",
                     "--trials", "2000"], None,
                    "6da95586ed20eee791c6847c0e4d4bc12e06d38f525350814320d146417ac144"),
    "die": (["die", "--rolls", "600"], None,
            "a5a77a15ca6bb9baa681e4f0758876a7926489aa446b8f433c4307008907d07a"),
    "spin-machine": (["spin-machine", "--angle", "1.0471975512", "--trials", "2000"], None,
                     "cfec492568c380a4d5c03d70ce864773c3c2649c337d2bfdf1ab9dfa7c34c2af"),
    "universal-average": (["universal-average"], UNIVERSAL_AVERAGE,
                          "851449f267b242317fd91253a2b7d9fcb682892f72ccfde65498fd600372c77b"),
    "fixed-last-cell": (["universal-average"], FIXED_LAST_CELL,
                        "f96191765e0bd294a3cc4d29e881c3d4f55bec73982eedff19f45502df6417f1"),
    "fixed-spread": (["universal-average"], FIXED_SPREAD,
                     "a29b09b8451c4894d6d0dd3534c15d4f3df65a3425d454c9472fb2051480da10"),
    "one-cell": (["universal-average"], ONE_CELL,
                 "f8eadc8b52d62d744ca2f59b84d0c1933cdc53d1ef325467c45eba7e27ea983c"),
    "one-random-membrane": (["universal-average"], ONE_RANDOM_MEMBRANE,
                            "c48bf0238f10e75a40542b42e71d03e8eb88847e9048920d598edee7ea2b1e44"),
    "one-trial-membranes": (["universal-average"], ONE_TRIAL_MEMBRANES,
                            "c9054c189ade94faea4987f54a971f2734c2549446f00c0e18968c8390543649"),
    "one-cell-full-weight": (["universal-average"], ONE_CELL_FULL_WEIGHT,
                             "cb5d059da8ee1cdd5f2c3ea30a36662d55b00406a33541ac4c12c5f2febc28c9"),
    "die-on-table": (["die", "--start", "on_table:4", "--rolls", "600"], None,
                     "334ffca39b27f4d152daa634f88271640dccd8f03e33a89aba23142c75243ebd"),
}

EXPECTED_EXIT = {"fixed-last-cell": 1, "fixed-spread": 1}

# The same runs printed as CSV, whose numbers share JSON's 12-digit format.
CSV_DIGESTS = {
    "spin-machine": "1f3102aba7d0336b10b7ddf99458cad515d362166c9b7662bd4baba24c7b0f86",
    "verify-born": "25f20fbf2a3ee265e5f7f630330b79640ea56834e4e6738f8cc407f7e7921394",
    "die": "707c2b4c8037470cffdee311381534518944995ac080b59b5dc56c4324b164af",
    "universal-average": "031e6398705422da39e895ee62e6e3e008c2fa196918aa0e40b71d208f82e714",
}


def _digest(tmp_path, capsys, name, *extra):
    argv, config, _ = CASES[name]
    argv = [*argv, "--seed", "11", *extra]
    if config is not None:
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        argv += ["--config", str(path)]
    code = main(argv)
    out = capsys.readouterr().out
    assert code == EXPECTED_EXIT.get(name, 0)
    return hashlib.sha256(out.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("name", list(CASES))
def test_report_bytes_are_pinned(tmp_path, capsys, name):
    assert _digest(tmp_path, capsys, name) == CASES[name][2]


@pytest.mark.parametrize("name", list(CSV_DIGESTS))
def test_csv_report_bytes_are_pinned(tmp_path, capsys, name):
    assert _digest(tmp_path, capsys, name, "--format", "csv") == CSV_DIGESTS[name]
