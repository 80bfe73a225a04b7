"""Record the report digests that the correctness gate checks against.

    python3 bench/record_golden.py [workload ...]

For every pool entry of each named workload (all by default), run the
entry's operations once in this process and store each exit code or
verdict with the SHA-256 of its bytes in golden.json.  Run it only when a
change alters report bytes on purpose, and say so in CHANGES.md.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile

import gate
import worker  # puts the checkout's src on sys.path
import workloads


def record_cli(workload: str, index: int) -> dict:
    import hm_sim.cli

    out = {}
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            for op in workloads.cli_ops(workload, index):
                for name, cfg in op["configs"].items():
                    with open(name, "w", encoding="utf-8") as handle:
                        handle.write(json.dumps(cfg))
                buffer = io.StringIO()
                with contextlib.redirect_stdout(buffer):
                    code = hm_sim.cli.main(op["argv"])
                out[op["name"]] = {
                    "exit": code,
                    "sha256": hashlib.sha256(buffer.getvalue().encode()).hexdigest(),
                }
        finally:
            os.chdir(cwd)
    return out


def record_mc(workload: str, index: int) -> dict:
    spec = workloads.mc_spec(workload, index)
    work = worker.McWorkload(spec)
    out = {}
    for name in work.names:
        if name.endswith(".w2"):
            continue  # must equal workers=1, which the benchmark run checks
        result = [r for part in work.op(name) for r in part()]
        digest, verdict, problems = work.check(name, result)
        if problems:
            raise SystemExit(f"{workload}[{index}] {name}: {problems}")
        key = name.rsplit(".", 1)[0] if workload == "mc-batch" else name
        out[key] = {"sha256": digest, "verdict": verdict}
    return out


def main(names: list[str]) -> int:
    golden = gate.load_golden() if gate.GOLDEN.exists() else {}
    golden["pool"] = workloads.POOL
    for workload in names or workloads.WORKLOADS:
        record = record_cli if workload in workloads.PROCESS_WORKLOADS else record_mc
        golden[workload] = {str(i): record(workload, i) for i in range(workloads.POOL)}
        print(f"recorded {workload}", file=sys.stderr)
        with open(gate.GOLDEN, "w", encoding="utf-8") as handle:
            json.dump(golden, handle, indent=1, sort_keys=True)
            handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
