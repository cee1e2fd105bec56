#!/usr/bin/env python3
"""Benchmark of the comention command-line pipeline.

    python3 perfbench/run.py --workload corpus --seed 7 --seconds 20 --trace 0

Run from the root of a source checkout.  Each operation runs the CLI as fresh
``python -m comention.cli`` subprocesses, one command at a time (a closed loop
with one client), timed from outside; peak RSS and CPU time come from
``os.wait4``.  The outputs of every operation go through the correctness gate
(``gate.py``).  With ``--trace 1`` one further operation runs in-process under
``tracer.py`` and the per-layer metrics replace the end-to-end ones.

The last line of standard output is the result, a JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
holds the details: environment, input digests, sample statistics, failures.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

# BLAS/OpenMP pools of the program stay at one thread each, so the sweep's
# --threads workers are the only parallelism and never exceed nproc.
THREAD_CAPS = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")}
SETUP_PROBES = 7
MIN_OPS = 3
END_TO_END_UNITS = {"setup_s": "s", "run_s": "s", "op_s": "s", "run_rss_mb": "MB"}
PER_LAYER_UNITS = {
    "sweep.brandes_s": "s", "sweep.brandes_sources": "count",
    "sweep.distance_s": "s", "sweep.distance_sources": "count",
    "centrality.compute_bundle_self_s": "s", "centrality.eigenvector_s": "s",
    "centrality.clustering_s": "s",
    "community.louvain_s": "s", "community.louvain_communities": "count",
    "community.modularity_s": "s", "community.tables_s": "s",
    "powerlaw.fit_s": "s",
    "typology.load_affiliations_s": "s", "typology.profiles_s": "s",
    "typology.kmeans_s": "s",
    "ingest.load_articles_s": "s", "ingest.load_aliases_s": "s",
    "ingest.apply_aliases_s": "s", "ingest.ingest_stats_s": "s",
    "ingest.articles": "count", "ingest.pair_slots": "count",
    "graph.build_graph_s": "s", "graph.write_edge_csv_s": "s",
    "graph.edges": "count", "graph.unique_pair_frac": "ratio",
    "graph.load_input_s": "s", "graph.read_edge_csv_s": "s",
    "graph.connected_components_s": "s",
    "report.exports_s": "s", "report.sha256_s": "s",
    "report.files_written": "count", "report.bytes_written": "bytes",
    "report.run_pipeline_self_s": "s", "report.audit_self_s": "s",
    "cli.self_s": "s",
    "proc.run_cpu_s": "s", "proc.run_cpu_util": "ratio",
    "proc.audit_s": "s", "proc.audit_rss_mb": "MB",
    "trace.overhead_s": "s", "trace.coverage": "ratio",
}


def child_env() -> dict[str, str]:
    return {**os.environ, **THREAD_CAPS, "PYTHONPATH": str(SRC)}


def spawn(argv: list[str], log: Path) -> dict:
    """Run one child to completion: wall time from outside, CPU and RSS from wait4."""
    with open(log, "wb") as fh:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=fh, stderr=subprocess.STDOUT,
                                env=child_env(), cwd=log.parent)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)  # reaped here, not by Popen
    return {"wall": wall, "cpu": usage.ru_utime + usage.ru_stime,
            "rss_mb": usage.ru_maxrss / 1024.0, "rc": proc.returncode}


def _log_tail(log: Path) -> str:
    lines = log.read_text(encoding="utf-8", errors="replace").strip().splitlines()
    return lines[-1] if lines else ""


def _output_size(out: Path) -> tuple[int, int]:
    files = [p for p in out.rglob("*") if p.is_file()]
    return len(files), sum(p.stat().st_size for p in files)


class Session:
    """One benchmark run: the inputs of one seed and the operations on them."""

    def __init__(self, workload: str, seed: int, work: Path, threads: int):
        import gate
        import workloads
        self.workload = workload
        self.input_seed = workloads.input_seed(workload, seed)
        self.work = work
        self.threads = threads
        start = time.perf_counter()
        self.inputs = workloads.make_inputs(workload, self.input_seed, work / "inputs")
        self.generate_s = time.perf_counter() - start
        self.digests = {k: workloads.sha256_file(p) for k, p in self.inputs.items()}
        reference = gate.load_reference(workload)["seeds"][str(self.input_seed)]
        self.input_problems = gate.check_inputs(self.digests, reference)
        self.gate = gate.Gate(workload, reference)
        self.count = 0

    def commands(self, out: Path) -> list[list[str]]:
        import workloads
        return workloads.operation(self.workload, self.inputs, self.input_seed,
                                   self.threads, out)

    def setup_probe(self) -> dict:
        return spawn([sys.executable, "-c", "import comention.cli"],
                     self.work / "probe.log")

    def operation(self) -> dict:
        """Run one operation untraced; it failed when ``problems`` is not empty."""
        self.count += 1
        out = self.work / f"out-{self.count}"
        results, problems = self.execute(out)
        shutil.rmtree(out, ignore_errors=True)
        return {"wall": sum(r["wall"] for r in results), "commands": results,
                "problems": problems}

    def execute(self, out: Path) -> tuple[list[dict], list[str]]:
        """Run the operation's commands into ``out`` and gate the outputs."""
        results = []
        problems = list(self.input_problems)
        for j, args in enumerate(self.commands(out)):
            log = self.work / f"{out.name}-{j}.log"
            result = spawn([sys.executable, "-m", "comention.cli", *args], log)
            results.append(result)
            if result["rc"] != 0:
                problems.append(f"{args[0]} exited {result['rc']}: {_log_tail(log)}")
                break
        if not problems:
            problems = self.gate.check(out)
        return results, problems

    def traced_operation(self) -> dict:
        """Run one operation in-process under the tracer and gate its outputs."""
        import tracer
        out = self.work / "out-traced"
        commands = self.commands(out)
        commands_path = self.work / "commands.json"
        commands_path.write_text(json.dumps(commands), encoding="utf-8")
        trace_path = self.work / "trace.json"
        log = self.work / "traced.log"
        trace_path.unlink(missing_ok=True)
        result = spawn([sys.executable, str(BENCH / "tracer.py"), str(trace_path),
                        str(commands_path)], log)
        problems = list(self.input_problems)
        if not trace_path.is_file():
            return {"wall": result["wall"], "metrics": {}, "missing": [], "spans": 0,
                    "problems": problems + [f"tracer exited {result['rc']}: {_log_tail(log)}"]}
        with open(trace_path, encoding="utf-8") as fh:
            trace = json.load(fh)
        problems += [f"{commands[j][0]} exited {c['rc']} under the tracer"
                     for j, c in enumerate(trace["commands"]) if c["rc"] != 0]
        if not problems:
            problems = self.gate.check(out)
        metrics, trace_problems = tracer.layer_metrics(trace)
        files, size = _output_size(out)
        metrics.update({"report.files_written": files, "report.bytes_written": size})
        shutil.rmtree(out, ignore_errors=True)
        return {"wall": result["wall"], "metrics": metrics, "missing": trace["missing"],
                "spans": len(trace["spans"]), "problems": problems + trace_problems}


def summarize(values: list[float]) -> dict:
    """Median, the highest percentile with ten samples beyond it, and the count."""
    ordered = sorted(values)
    n = len(ordered)
    tail = None
    if n > 10:
        tail = {"percentile": 100.0 * (n - 10) / n, "value": ordered[n - 11]}
    return {"median": statistics.median(ordered), "tail": tail, "n": n,
            "min": ordered[0], "max": ordered[-1]}


def environment(seed: int, input_seed: int, threads: int) -> dict:
    import numpy
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    commit = None
    try:  # the checkout may not be a git repository; never look above it
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10,
                             env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)})
        if git.returncode == 0:
            commit = git.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    return {"nproc": threads, "python": platform.python_version(),
            "numpy": numpy.__version__, "commit": commit, "src_sha256": digest.hexdigest(),
            "seed": seed, "input_seed": input_seed, "thread_caps": THREAD_CAPS}


def measure(session: Session, seconds: float, trace: bool) -> tuple[dict, dict]:
    session.setup_probe()  # warm-up: bytecode compilation is not paid on every call
    # Probes, untraced and traced operations take turns, so all of them sample
    # the same stretches of a machine whose speed drifts.
    probes, ops, traced = [], [], []
    start = time.perf_counter()
    while True:
        probes.append(session.setup_probe())
        ops.append(session.operation())
        if trace:
            traced.append(session.traced_operation())
        elapsed = time.perf_counter() - start
        turn = statistics.median(o["wall"] for o in ops + traced) * (2 if trace else 1)
        if len(ops) >= MIN_OPS and elapsed + turn > seconds:
            break
    while len(probes) < SETUP_PROBES:
        probes.append(session.setup_probe())

    complete = [o for o in ops if all(c["rc"] == 0 for c in o["commands"])] or ops
    samples = {
        "setup_s": [p["wall"] for p in probes],
        "run_s": [o["commands"][0]["wall"] for o in complete],
        "op_s": [o["wall"] for o in complete],
        "run_rss_mb": [o["commands"][0]["rss_mb"] for o in complete],
        "proc.run_cpu_s": [o["commands"][0]["cpu"] for o in complete],
        "proc.run_cpu_util": [o["commands"][0]["cpu"] / o["commands"][0]["wall"]
                              for o in complete],
    }
    audits = [o["commands"][1] for o in complete if len(o["commands"]) > 1]
    if audits:
        samples["proc.audit_s"] = [a["wall"] for a in audits]
        samples["proc.audit_rss_mb"] = [a["rss_mb"] for a in audits]
    if trace:
        setup = statistics.median(samples["setup_s"])
        # a traced operation runs all its commands in one interpreter, an
        # untraced one starts an interpreter per command
        samples["trace.overhead_s"] = [
            t["wall"] - (o["wall"] - (len(o["commands"]) - 1) * setup)
            for o, t in zip(ops, traced)]
        for t in traced:
            for name, value in t["metrics"].items():
                samples.setdefault(name, []).append(value)
    stats = {name: summarize(values) for name, values in samples.items()}
    units = PER_LAYER_UNITS if trace else END_TO_END_UNITS
    metrics = {name: {"value": stats[name]["median"] if name in stats else 0.0, "unit": unit}
               for name, unit in units.items()}

    failures = [o["problems"] for o in ops + traced if o["problems"]]
    attempted = len(ops) + len(traced)
    detail = {
        "workload": session.workload, "generate_s": session.generate_s,
        "inputs": session.digests, "samples": stats,
        "operations": [{"wall": o["wall"], "commands": o["commands"], "problems": o["problems"]}
                       for o in ops],
        "traced": [{k: t[k] for k in ("wall", "problems", "missing", "spans")} for t in traced],
        "failed_frac": len(failures) / attempted, "failures": failures,
    }
    result = {"correct": not failures, "attempted": attempted, "failed": len(failures),
              "metrics": metrics}
    return detail, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "comention" / "cli.py").is_file():
        print(f"error: {SRC} holds no comention sources; run from a source checkout",
              file=sys.stderr)
        return 2
    os.environ.update(THREAD_CAPS)  # before numpy loads in this process too
    sys.path.insert(0, str(SRC))
    import workloads
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {', '.join(workloads.WORKLOADS)}")

    threads = len(os.sched_getaffinity(0))
    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        session = Session(args.workload, args.seed, work, threads)
        detail, result = measure(session, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:  # another run still uses it
            pass
    detail["env"] = environment(args.seed, session.input_seed, threads)
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
