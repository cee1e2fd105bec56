"""Self-test of the benchmark's correctness gate.

    python3 -m pytest -q perfbench/tests

A valid corpus output passes; the same output with one betweenness value
perturbed by 1e-6 (relative), or with one partition.csv row removed, must fail
and so count as a failed operation.  Each corruption is tried twice: as is,
and with manifest.json rewritten to match, as a wrong-but-consistent program
would write it.
"""

from __future__ import annotations

import csv
import hashlib
import json
import shutil
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))
import run  # noqa: E402

sys.path.insert(0, str(run.SRC))
import gate  # noqa: E402


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    """A session on the canonical corpus seed and one valid output of it."""
    work = tmp_path_factory.mktemp("gate")
    session = run.Session("corpus", 7, work, threads=2)
    out = work / "valid"
    results, problems = session.execute(out)
    assert [r["rc"] for r in results] == [0, 0]  # run, then audit
    assert problems == []
    return session, out


def _refresh_manifest(out: Path) -> None:
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    for name in manifest["files"]:
        manifest["files"][name] = hashlib.sha256((out / name).read_bytes()).hexdigest()
    (out / "manifest.json").write_text(json.dumps(manifest, sort_keys=True, indent=2) + "\n",
                                       encoding="utf-8")


def _rewrite_csv(path: Path, edit) -> None:
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    rows = edit(rows)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)


def _perturb_betweenness(rows):
    column = rows[0].index("betweenness")
    rows[1][column] = format(float(rows[1][column]) * (1 + 1e-6), ".12g")
    return rows


def _drop_partition_row(rows):
    return rows[:5] + rows[6:]


def test_valid_output_passes_again(corpus):
    session, out = corpus
    assert session.gate.check(out) == []


@pytest.mark.parametrize("refresh", [False, True], ids=["stale-manifest", "fresh-manifest"])
@pytest.mark.parametrize("name, edit, expect", [
    ("centrality.csv", _perturb_betweenness, "centrality.csv: 1 nodes differ"),
    ("partition.csv", _drop_partition_row, "partition.csv covers"),
])
def test_corrupted_output_fails(corpus, tmp_path, name, edit, expect, refresh):
    session, out = corpus
    bad = tmp_path / "bad"
    shutil.copytree(out, bad)
    _rewrite_csv(bad / name, edit)
    if refresh:
        _refresh_manifest(bad)
    fresh = gate.Gate("corpus", session.gate.reference)  # no manifest seen yet
    problems = fresh.check(bad)
    assert problems, "a corrupted output must count as a failed operation"
    if refresh:
        assert any(p.startswith(expect) for p in problems), problems
    else:
        assert any(p.startswith(f"{name}: missing or digest differs") for p in problems)


def test_manifest_must_repeat(corpus, tmp_path):
    session, out = corpus
    other = tmp_path / "other"
    shutil.copytree(out, other)
    manifest = other / "manifest.json"
    manifest.write_bytes(manifest.read_bytes().replace(b'"seed": 7', b'"seed": 8'))
    assert "manifest.json differs from the first operation's" in session.gate.check(other)


def test_changed_inputs_are_caught(corpus):
    session, _ = corpus
    digests = dict(session.digests, articles="0" * 64)
    assert gate.check_inputs(digests, session.gate.reference)
