"""Correctness gate: an operation whose outputs fail any check counts as failed.

``comention audit`` never recomputes betweenness, closeness or eigenvector
scores, so the gate compares them with a reference stored for each input seed.
Integers must match exactly; floats within ``REL_TOL`` relative, with
``ABS_FLOOR`` absorbing round-off around exact zeros.
"""

from __future__ import annotations

import csv
import gzip
import io
import json
from pathlib import Path

from workloads import sha256_file

REL_TOL = 1e-9
ABS_FLOOR = 1e-15
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
MEASURES = ("closeness", "betweenness", "eigenvector", "clustering")


def reference_path(workload: str) -> Path:
    return REFERENCE_DIR / f"{workload}.json.gz"


def load_reference(workload: str) -> dict:
    with gzip.open(reference_path(workload), "rt", encoding="utf-8") as fh:
        return json.load(fh)


def _mismatch(path: str, got, want) -> list[str]:
    """Differences between two JSON-like values: exact ints, tolerant floats.

    Keys the reference lacks are ignored, so the program may add new fields.
    """
    if isinstance(want, dict):
        if not isinstance(got, dict) or not set(want) <= set(got):
            return [f"{path}: keys {sorted(got) if isinstance(got, dict) else got!r} "
                    f"lack some of {sorted(want)}"]
        return [p for key in sorted(want) for p in _mismatch(f"{path}.{key}", got[key], want[key])]
    if isinstance(want, (list, tuple)):
        if not isinstance(got, (list, tuple)) or len(got) != len(want):
            return [f"{path}: {got!r} vs reference {want!r}"]
        return [p for i, (a, b) in enumerate(zip(got, want)) for p in _mismatch(f"{path}[{i}]", a, b)]
    if isinstance(want, float) or isinstance(got, float):
        if (isinstance(got, (int, float)) and isinstance(want, (int, float))
                and not isinstance(got, bool)
                and abs(got - want) <= REL_TOL * max(abs(got), abs(want)) + ABS_FLOOR):
            return []
        return [f"{path}: {got!r} vs reference {want!r}"]
    return [] if got == want and type(got) is type(want) else [f"{path}: {got!r} vs reference {want!r}"]


def _centrality_rows(text: str) -> dict[str, tuple]:
    rows = {}
    for row in csv.DictReader(io.StringIO(text)):
        rows[row["name"]] = (int(row["degree"]), *(float(row[m]) for m in MEASURES))
    return rows


def check_inputs(digests: dict[str, str], reference: dict) -> list[str]:
    """Input guard: regenerated inputs must hash as they did when recorded."""
    want = reference["inputs"]
    if digests != want:
        changed = sorted(k for k in set(digests) | set(want) if digests.get(k) != want.get(k))
        return [f"generated inputs differ from the recorded ones: {', '.join(changed)}"]
    return []


class Gate:
    """Checks the outputs of each operation against one seed's reference.

    ``manifest.json`` must also stay byte-identical across every operation
    checked by the same gate.
    """

    def __init__(self, workload: str, reference: dict):
        self.workload = workload
        self.reference = reference
        self.manifest: bytes | None = None

    def check(self, out_dir: Path) -> list[str]:
        try:
            if self.workload == "ingest-large":
                return self._check_ingest(out_dir)
            return self._check_pipeline(out_dir)
        except (OSError, ValueError, KeyError, TypeError, csv.Error) as exc:  # missing or malformed output
            return [f"unreadable output: {type(exc).__name__}: {exc}"]

    def _check_ingest(self, out: Path) -> list[str]:
        with open(out / "ingest_stats.json", encoding="utf-8") as fh:
            problems = _mismatch("ingest_stats", json.load(fh), self.reference["ingest_stats"])
        if sha256_file(out / "edges.csv") != self.reference["edges_sha256"]:
            problems.append("edges.csv digest differs from the reference")
        return problems

    def _check_pipeline(self, out: Path) -> list[str]:
        problems: list[str] = []
        manifest = (out / "manifest.json").read_bytes()
        if self.manifest is None:
            self.manifest = manifest
        elif manifest != self.manifest:
            problems.append("manifest.json differs from the first operation's")
        for name, digest in json.loads(manifest)["files"].items():
            path = out / name
            if not path.is_file() or sha256_file(path) != digest:
                problems.append(f"{name}: missing or digest differs from manifest")

        with open(out / "summary.json", encoding="utf-8") as fh:
            problems += _mismatch("summary", json.load(fh), self.reference["summary"])

        got = _centrality_rows((out / "centrality.csv").read_text(encoding="utf-8"))
        want = _centrality_rows(self.reference["centrality_csv"])
        if set(got) != set(want):
            problems.append(f"centrality.csv names: {len(set(got) ^ set(want))} differ")
        bad = [name for name in sorted(set(got) & set(want))
               if _mismatch(name, got[name], want[name])]
        if bad:
            problems.append(f"centrality.csv: {len(bad)} nodes differ, first {bad[0]}: "
                            f"{got[bad[0]]} vs reference {want[bad[0]]}")

        with open(out / "partition.csv", encoding="utf-8", newline="") as fh:
            covered = {row["name"] for row in csv.DictReader(fh)}
        if covered != set(want):
            problems.append(f"partition.csv covers {len(covered)} of {len(want)} nodes")
        return problems
