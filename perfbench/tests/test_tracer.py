"""Self-check of the per-layer trace on hand-made spans.

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
import tracer  # noqa: E402


def _span(id_, parent, name, start, end, **notes):
    return {"id": id_, "parent": parent, "name": name, "command": 0, "main_thread": True,
            "start": start, "end": end, **notes}


def _trace(spans, wall=10.0):
    return {"commands": [{"rc": 0, "start": 0.0, "end": wall}], "spans": spans}


def test_self_times_subtract_children():
    metrics, problems = tracer.layer_metrics(_trace([
        _span(1, None, "report.run_pipeline", 0.0, 9.8),
        _span(2, 1, "centrality.compute_bundle", 1.0, 8.0),
        _span(3, 2, "sweep.brandes", 1.0, 7.0, sources=100),
        _span(4, 1, "graph.build_graph", 0.5, 1.0, pairs_in=10, edges=8),
    ]))
    assert problems == []
    assert metrics["sweep.brandes_s"] == 6.0
    assert metrics["sweep.brandes_sources"] == 100
    assert metrics["centrality.compute_bundle_self_s"] == 1.0
    assert metrics["report.run_pipeline_self_s"] == 9.8 - 7.0 - 0.5
    assert metrics["graph.unique_pair_frac"] == 0.8
    assert abs(metrics["trace.coverage"] - 0.98) < 1e-12


def test_missing_layer_boundary_fails():
    _, problems = tracer.layer_metrics(_trace([_span(1, None, "report.audit", 0.0, 9.0)]))
    assert any("cover 90.0%" in p for p in problems)


def test_negative_self_time_fails():
    _, problems = tracer.layer_metrics(_trace([
        _span(1, None, "report.audit", 0.0, 9.9),
        _span(2, 1, "sweep.distance", 0.0, 5.0, sources=1),
        _span(3, 1, "sweep.distance", 4.0, 9.9, sources=1),  # overlaps its sibling
    ]))
    assert any(p.startswith("negative self time") for p in problems)
