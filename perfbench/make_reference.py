#!/usr/bin/env python3
"""Record the correctness gate's reference outputs for every pool seed.

    python3 perfbench/make_reference.py [WORKLOAD ...]

Run from the root of a source checkout whose outputs are trusted (the oracle
tests pass).  For each input seed of each workload's pool it records the
input digests (the input guard) and the outputs the gate compares:
``summary.json`` and ``centrality.csv`` for the pipeline workloads,
``ingest_stats.json`` and the ``edges.csv`` digest for ``ingest-large``.
"""

from __future__ import annotations

import gzip
import json
import os
import shutil
import sys

from run import SRC, THREAD_CAPS, WORK, spawn


def record(workload: str, seed: int, threads: int) -> dict:
    import workloads
    work = WORK / f"reference-{workload}-{seed}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        inputs = workloads.make_inputs(workload, seed, work / "inputs")
        out = work / "out"
        for j, args in enumerate(workloads.operation(workload, inputs, seed, threads, out)):
            result = spawn([sys.executable, "-m", "comention.cli", *args], work / f"{j}.log")
            if result["rc"] != 0:
                raise SystemExit(f"{workload} seed {seed}: {args[0]} exited {result['rc']}; "
                                 f"see {work / f'{j}.log'}")
        entry = {"inputs": {k: workloads.sha256_file(p) for k, p in inputs.items()}}
        if workload == "ingest-large":
            with open(out / "ingest_stats.json", encoding="utf-8") as fh:
                entry["ingest_stats"] = json.load(fh)
            entry["edges_sha256"] = workloads.sha256_file(out / "edges.csv")
        else:
            with open(out / "summary.json", encoding="utf-8") as fh:
                entry["summary"] = json.load(fh)
            entry["centrality_csv"] = (out / "centrality.csv").read_text(encoding="utf-8")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return entry


def main(argv: list[str]) -> int:
    os.environ.update(THREAD_CAPS)
    sys.path.insert(0, str(SRC))
    import gate
    import workloads
    threads = len(os.sched_getaffinity(0))
    for workload in argv or workloads.WORKLOADS:
        seeds = {str(s): record(workload, s, threads) for s in workloads.pool_seeds(workload)}
        path = gate.reference_path(workload)
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = json.dumps({"workload": workload, "seeds": seeds}, sort_keys=True, indent=1)
        with open(path, "wb") as raw, gzip.GzipFile(fileobj=raw, mode="wb", mtime=0) as fh:
            fh.write(payload.encode("utf-8"))
        print(f"wrote {path} ({path.stat().st_size} bytes, seeds {', '.join(seeds)})")
    try:
        WORK.rmdir()
    except OSError:
        pass
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
