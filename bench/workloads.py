"""Workload inputs, generated from the benchmark seed without touching hm_sim.

Each workload has a pool of ``POOL`` input sets.  The benchmark seed picks
one entry; the entry's inputs (hm-sim seeds, states, membrane weights) are
derived from the entry index alone, so ``golden.json`` can hold the report
digests that the code at the time of recording produced for every entry.

A *plan* is one prepared measurement: a state x observable pair, a
membrane, or a single-shot measurement.  ``trials`` counts Monte Carlo
trials.  Both are counted per pass from the inputs, not from the program.
"""

from __future__ import annotations

import random

POOL = 16
WORKLOADS = ("cli-readme", "mc-batch", "mc-plans", "large-n")
PROCESS_WORKLOADS = ("cli-readme", "large-n")

MODELS = ("uniform", "cellular", "solipsistic")
BATCH_DIMS = (2, 6, 8)
CELLS = 50
README_ANGLE = "1.0471975512"
README_UA_STATE = {"kind": "bloch", "coordinates": [0.866025403784, 0.0, 0.5]}


def pool_index(seed: int) -> int:
    return random.Random(seed).randrange(POOL)


def _rng(workload: str, index: int) -> random.Random:
    return random.Random(1_000_003 * (WORKLOADS.index(workload) + 1) + index)


def _pure(rng: random.Random, n: int) -> dict:
    return {"kind": "pure",
            "re": [rng.gauss(0.0, 1.0) for _ in range(n)],
            "im": [rng.gauss(0.0, 1.0) for _ in range(n)]}


def _weights(rng: random.Random, m: int) -> list[float]:
    e = [rng.expovariate(1.0) for _ in range(m)]
    total = sum(e)
    return [x / total for x in e]


def _hm_seed(rng: random.Random) -> int:
    return rng.randrange(1, 2**31)


def cli_ops(workload: str, index: int, quick: bool = False) -> list[dict]:
    """CLI commands of one pass: name, argv, config files, trials, plans."""
    rng = _rng(workload, index)
    seed = str(_hm_seed(rng))
    if workload == "large-n":
        dims = (8, 12) if quick else (32, 64)
        ops = []
        for n in dims:
            cfg = {"schema_version": "1", "experiment": "measure", "dimension": n,
                   "state": _pure(rng, n), "observable": {"kind": "canonical"},
                   "membrane": {"kind": "uniform"}}
            name = f"measure-n{n}"
            ops.append({"name": name, "configs": {f"{name}.json": cfg},
                        "argv": ["measure", "--config", f"{name}.json", "--seed", seed],
                        "trials": 1, "plans": 1})
        return ops

    spin_trials, states, vb_trials, rolls, membranes, per_membrane = (
        (2000, 3, 2000, 2000, 20, 200) if quick else
        (100000, 100, 10000, 60000, 200, 2000))
    ua = {"schema_version": "1", "experiment": "universal-average", "dimension": 2,
          "state": README_UA_STATE, "observable": {"kind": "canonical"},
          "cells": CELLS, "membranes": membranes, "trials_per_membrane": per_membrane}
    measure = {"schema_version": "1", "experiment": "measure", "dimension": 3,
               "state": _pure(rng, 3),
               "observable": {"kind": "canonical", "labels": [1.0, 1.0, 2.0]},
               "membrane": {"kind": "uniform"}}
    return [
        {"name": "spin-machine", "configs": {}, "trials": spin_trials, "plans": 1,
         "argv": ["spin-machine", "--angle", README_ANGLE, "--trials", str(spin_trials),
                  "--seed", seed]},
        {"name": "verify-born", "configs": {}, "trials": states * vb_trials, "plans": states,
         "argv": ["verify-born", "--dimension", "3", "--states", str(states),
                  "--trials", str(vb_trials), "--seed", seed]},
        {"name": "die-roll", "configs": {}, "trials": rolls, "plans": 1,
         "argv": ["die", "--rolls", str(rolls), "--seed", seed]},
        # The on-table die keeps the CLI's default roll count, as in README.
        {"name": "die-on-table", "configs": {}, "trials": 60000, "plans": 1,
         "argv": ["die", "--start", "on_table:4", "--seed", seed]},
        {"name": "universal-average", "configs": {"universal.json": ua},
         "trials": membranes * per_membrane, "plans": membranes,
         "argv": ["universal-average", "--config", "universal.json", "--seed", seed]},
        {"name": "measure", "configs": {"measure.json": measure}, "trials": 1, "plans": 1,
         "argv": ["measure", "--config", "measure.json", "--seed", seed]},
    ]


def mc_spec(workload: str, index: int, quick: bool = False) -> dict:
    """In-process workload inputs, handed to the worker as JSON."""
    rng = _rng(workload, index)
    seed = _hm_seed(rng)
    if workload == "mc-batch":
        return {
            "workload": workload, "seed": seed,
            "trials": 20000 if quick else 2_000_000,
            "states": {str(n): _pure(rng, n) for n in BATCH_DIMS},
            "cell_weights": _weights(rng, CELLS),
        }
    ua, pairs, spins, states, state_trials = (
        (50, 50, 50, 10, 1000) if quick else (2000, 2000, 2000, 400, 1000))
    axis = [rng.gauss(0.0, 1.0) for _ in range(3)]
    direction = [rng.gauss(0.0, 1.0) for _ in range(3)]
    norm = sum(x * x for x in direction) ** 0.5
    return {
        "workload": workload, "seed": seed,
        "ua": {"state": _pure(rng, 3), "membranes": ua, "trials": 100},
        "pairs": {"state": _pure(rng, 6), "count": pairs,
                  "labels": [1.0, 1.0, 2.0, 3.0, 3.0, 4.0]},
        "spin": {"bloch": [0.9 * x / norm for x in direction], "axis": axis, "count": spins},
        "states": {"states": [_pure(rng, 8) for _ in range(states)],
                   "trials": state_trials},
    }


def mc_ops(spec: dict) -> list[dict]:
    """Operation names and their trial / plan counts for one pass."""
    if spec["workload"] == "mc-batch":
        return [{"name": f"{model}.n{n}.w{w}", "trials": spec["trials"], "plans": 1}
                for model in MODELS for n in BATCH_DIMS for w in (1, 2)]
    ua, pairs, spin, states = spec["ua"], spec["pairs"], spec["spin"], spec["states"]
    return [
        {"name": "ua", "trials": ua["membranes"] * ua["trials"], "plans": ua["membranes"]},
        {"name": "pairs", "trials": 2 * pairs["count"], "plans": 2 * pairs["count"]},
        {"name": "spin", "trials": spin["count"], "plans": spin["count"]},
        {"name": "states", "trials": len(states["states"]) * states["trials"],
         "plans": len(states["states"])},
    ]
