"""The sweep's output bits on the two canonical graphs at 1/8 scale.

Every array pinned here comes from integer work, ``bincount`` sums and IEEE
division only, so its bytes must not move when the BFS engine changes.  A
change that moves one on purpose updates the digest and says why.
"""

import hashlib

import numpy as np
import pytest

from comention import PipelineConfig, compute_bundle, synth
from comention._sweep import sweep
from comention.report import load_input_graph

# graph -> array -> sha256 of its bytes
PINS = {
    "corpus": {
        "closeness": "144c12e54eaeb54da482d3ca90b8a9206bae5aeaa73e2680a96ec95ffd2b065c",
        "betweenness": "9b652e10a75fc17671be7099f753df6489d721ff85d0e1bdb92aaf5596bcae17",
        "eccentricity": "10e1b8ab7a06665a02599e758f8d19860621ce29112a00904b4e33e2c768ce40",
        "distance.eccentricity": "10e1b8ab7a06665a02599e758f8d19860621ce29112a00904b4e33e2c768ce40",
        "distance.distance_sum": "f44602e0c22ee96fb1a19eac505438b5902b612e56237e24f91e22c1fce054d1",
        "distance.reachable": "08b6dac04597cfed6b683d358fbc827a063c6e02dde36f5debea072309e69826",
    },
    "bench-graph": {
        "closeness": "917f47e30373ec5d59ed24cea8c73472f1edfb294f480a735ccda51387ae824c",
        "betweenness": "8bb6299e79e2cf1ebbfe8e3795d3f4bd4224a6f845f8d437ff749fea39a4ae55",
        "eccentricity": "abd31edbaf40349c9023a6583841961f9c273471c9d71662607c88d5aa7b2e5e",
        "distance.eccentricity": "abd31edbaf40349c9023a6583841961f9c273471c9d71662607c88d5aa7b2e5e",
        "distance.distance_sum": "9824097030b7c8244adfa5e5c2ed8b4b992e4f772bfb0a5475c5133763ee4c1a",
        "distance.reachable": "3a97ad4807988a5aab83a255b75c2eb09a6e81e48ae8b6f7ba167cbe7a05e66c",
    },
}


def canonical_graph(name, directory):
    """The graph ``comention run`` builds from the 1/8 canonical input."""
    if name == "corpus":
        path = directory / "articles.jsonl"
        synth.write_articles_jsonl(synth.generate_corpus(650, 1312, 7), path)
        input_format = "articles"
    else:
        path = directory / "edges.csv"
        lines = [f"{a},{b}\n" for a, b in synth.benchmark_graph(1390, 4693, 11)]
        path.write_text("source,target\n" + "".join(lines), encoding="utf-8")
        input_format = "edges"
    config = PipelineConfig(input=str(path), seed=7, out_dir=str(directory),
                            input_format=input_format)
    return load_input_graph(config)[0]


def digest(array):
    return hashlib.sha256(np.ascontiguousarray(array).tobytes()).hexdigest()


@pytest.mark.parametrize("name", sorted(PINS))
def test_sweep_bits_pinned(name, tmp_path):
    g = canonical_graph(name, tmp_path)
    n = g.node_count
    bundle = compute_bundle(g, threads=2)
    distance = sweep(g.indptr, g.adjacency, n, np.arange(n, dtype=np.int64), threads=2)
    got = {measure: digest(getattr(bundle, measure))
           for measure in ("closeness", "betweenness", "eccentricity")}
    got.update({f"distance.{field}": digest(getattr(distance, field))
                 for field in ("eccentricity", "distance_sum", "reachable")})
    assert got == PINS[name]
