"""Replay the benchmark's golden digests in the package's own suite.

``bench/golden.json`` holds the exit code or verdict, and the SHA-256 of
the report bytes, of every operation of each benchmark workload's pool
entries; the benchmark's gate checks each run against it.  Replaying
them here makes a moved report byte fail the suite, not only a benchmark
run or a hand run of ``bench/record_golden.py``.  Pool entry 0 of
each workload is replayed through that script's own recorders (never its
``main``, which rewrites ``golden.json``).  Of mc-plans only the ``ua``,
``spin`` and ``states`` operations run: ``pairs`` alone takes about 2 s,
which would push the file past 5 s.

Like the pins of ``test_report_bytes.py``, the digests hold for the numpy
they were recorded with.
"""

import importlib
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture
def bench(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    record_golden = importlib.import_module("record_golden")
    golden = importlib.import_module("gate").load_golden()
    return record_golden, golden


@pytest.mark.parametrize("workload", ["cli-readme", "large-n", "mc-batch"])
def test_pool_entry_0_replays_its_golden_digests(bench, workload):
    record_golden, golden = bench
    record = record_golden.record_mc if workload == "mc-batch" else record_golden.record_cli
    assert record(workload, 0) == golden[workload]["0"]


@pytest.mark.parametrize("name", ["ua", "spin", "states"])
def test_mc_plans_entry_0_replays_its_golden_digest(bench, name):
    record_golden, golden = bench
    work = record_golden.worker.McWorkload(record_golden.workloads.mc_spec("mc-plans", 0))
    result = [r for part in work.op(name) for r in part()]
    digest, verdict, problems = work.check(name, result)
    assert problems == []
    assert {"sha256": digest, "verdict": verdict} == golden["mc-plans"]["0"][name]
