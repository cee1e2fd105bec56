"""Node centralities: degree, closeness, betweenness, eigenvector, clustering."""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np

from ._sweep import sweep
from .errors import ConvergenceError, DataError
from .graph import Graph, Partition, connected_components

logger = logging.getLogger(__name__)

MEASURES = ("degree", "closeness", "betweenness", "eigenvector")
FLOAT_FORMAT = ".12g"  # floats in every written table; rankings compare at this precision


@dataclass(frozen=True, eq=False)
class CentralityBundle:
    """All per-node scores from one pass over a graph.

    ``eccentricity`` rides along because the sweep that produces closeness
    and betweenness yields it for free; its maximum over the largest
    component is the graph diameter.
    """

    degree: np.ndarray
    closeness: np.ndarray
    betweenness: np.ndarray
    eigenvector: np.ndarray
    clustering: np.ndarray
    eccentricity: np.ndarray
    _written: dict[str, np.ndarray] = field(default_factory=dict, init=False, repr=False)

    def written(self, measure: str) -> np.ndarray:
        """A measure's scores :func:`as_written`, formatted once per bundle."""
        if measure not in self._written:
            self._written[measure] = np.array(
                [as_written(score) for score in getattr(self, measure).tolist()])
        return self._written[measure]


def degree_centrality(g: Graph) -> np.ndarray:
    """Raw degree per node."""
    return g.degrees.astype(np.int64)


def _sweep_scores(g: Graph, *, betweenness: bool, threads: int | None):
    """One all-sources sweep, normalised: (closeness, betweenness or None, result).

    Closeness is per component, (reachable - 1) / sum of distances, and 0 for
    a node alone in its component.  Betweenness counts every ordered
    source/target pair with endpoints excluded, so it is scaled by
    (n - 1)(n - 2); graphs with fewer than 3 nodes score all zero.
    """
    n = g.node_count
    result = sweep(g.indptr, g.adjacency, n, np.arange(n, dtype=np.int64),
                   betweenness=betweenness, threads=threads)
    closeness = np.zeros(n, dtype=np.float64)
    connected = result.reachable > 1
    closeness[connected] = (result.reachable[connected] - 1.0) / result.distance_sum[connected]
    between = None
    if betweenness:
        between = (np.zeros(n, dtype=np.float64) if n < 3
                   else result.betweenness_raw / ((n - 1.0) * (n - 2.0)))
    return closeness, between, result


def closeness_centrality(g: Graph) -> np.ndarray:
    """Per-component closeness; every component is handled on its own."""
    return _sweep_scores(g, betweenness=False, threads=None)[0]


def betweenness_centrality(g: Graph, *, threads: int | None = None) -> np.ndarray:
    """Shortest-path betweenness, endpoints excluded, scaled into [0, 1]."""
    return _sweep_scores(g, betweenness=True, threads=threads)[1]


def eigenvector_centrality(g: Graph, *, tol: float = 1e-10, max_iter: int = 10000,
                           mixing: float = 1.0,
                           components: Partition | None = None) -> np.ndarray:
    """Dominant-eigenvector scores on the largest component, zeros elsewhere.

    Power iteration runs on A + I, which has the same dominant eigenvector as
    the adjacency matrix A but keeps the iteration from oscillating on
    bipartite structures.  The iterate is L2-normalized each step, its norm
    an exactly rounded ``math.fsum`` (no BLAS call, so the bits do not depend
    on summation order or thread count), and deemed converged when the
    max-norm change drops below ``tol``.  ``mixing`` < 1 blends in a uniform
    vector, trading exactness for extra robustness.
    """
    if not 0.0 < mixing <= 1.0:
        raise DataError(f"mixing must be in (0, 1], got {mixing}")
    labeling = components if components is not None else connected_components(g)
    if labeling.count > 1:
        logger.warning("graph is disconnected (%d components); eigenvector scores cover "
                       "the largest component only", labeling.count)
    members = labeling.members(0)
    n = g.node_count

    inside = np.zeros(n, dtype=bool)
    inside[members] = True
    src = np.repeat(np.arange(n, dtype=np.int64), g.degrees)
    keep = inside[src]
    src = src[keep]
    dst = g.adjacency[keep].astype(np.int64)

    uniform = np.zeros(n, dtype=np.float64)
    uniform[members] = 1.0 / np.sqrt(members.size)
    vec = uniform.copy()
    for _ in range(max_iter):
        nxt = vec + np.bincount(dst, weights=vec[src], minlength=n)
        if mixing < 1.0:
            nxt = mixing * nxt + (1.0 - mixing) * uniform
        nxt /= math.sqrt(math.fsum((nxt * nxt).tolist()))
        if np.abs(nxt - vec).max() < tol:
            return nxt
        vec = nxt
    raise ConvergenceError(
        f"eigenvector power iteration did not converge in {max_iter} iterations "
        f"(tol={tol:g}); retry with mixing=0.999 to damp the iteration")


def clustering_coefficient(g: Graph) -> np.ndarray:
    """Fraction of realized links among each node's neighbors.

    2 * triangles(v) / (deg (deg - 1)); nodes of degree < 2 score 0.
    Triangles are counted once each, at their lowest corner in (degree, id)
    order (Schank & Wagner, WEA 2005): every CSR entry is oriented toward
    its higher end, each pair of a node's forward neighbours is looked up
    among the sorted ``tail * n + head`` keys of the CSR, and each hit
    counts for all three corners.  Orienting bounds a node's forward
    neighbours by sqrt(2m), so a hub lists no pairs of its leaves.
    """
    n = g.node_count
    degrees = g.degrees
    tails = np.repeat(np.arange(n, dtype=np.int64), degrees)
    heads = g.adjacency.astype(np.int64)
    position = np.empty(n, dtype=np.int64)
    position[np.argsort(degrees, kind="stable")] = np.arange(n)
    forward = position[heads] > position[tails]
    ftails, fheads = tails[forward], heads[forward]
    # entry i pairs with the later entries of its row: i+1 .. row end - 1
    row_end = np.cumsum(np.bincount(ftails, minlength=n))[ftails]
    later = row_end - np.arange(ftails.size) - 1
    first = np.repeat(np.arange(ftails.size), later)
    second = first + 1 + np.arange(first.size) - np.repeat(np.cumsum(later) - later, later)
    # rows are sorted, so the keys of the whole CSR are sorted too
    keys = tails * n + heads
    wanted = fheads[first] * n + fheads[second]
    found = np.searchsorted(keys, wanted)
    hit = keys[np.minimum(found, keys.size - 1)] == wanted
    first, second = first[hit], second[hit]
    triangles = np.bincount(np.concatenate([ftails[first], fheads[first], fheads[second]]),
                            minlength=n)
    out = np.zeros(n, dtype=np.float64)
    wedged = degrees > 1
    d = degrees[wedged]
    out[wedged] = 2 * triangles[wedged] / (d * (d - 1.0))
    return out


def compute_bundle(g: Graph, *, eigen_tol: float = 1e-10, eigen_max_iter: int = 10000,
                   eigen_mixing: float = 1.0, threads: int | None = None,
                   components: Partition | None = None) -> CentralityBundle:
    """Compute every score with one shared BFS sweep."""
    labeling = components if components is not None else connected_components(g)
    closeness, betweenness, result = _sweep_scores(g, betweenness=True, threads=threads)
    eigenvector = eigenvector_centrality(g, tol=eigen_tol, max_iter=eigen_max_iter,
                                         mixing=eigen_mixing, components=labeling)
    return CentralityBundle(
        degree=degree_centrality(g),
        closeness=closeness,
        betweenness=betweenness,
        eigenvector=eigenvector,
        clustering=clustering_coefficient(g),
        eccentricity=result.eccentricity,
    )


def pearson_correlation(x, y) -> float:
    """Sample Pearson correlation of two equal-length sequences."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1:
        raise DataError("inputs must be 1-d sequences of equal length")
    if x.size < 2:
        raise DataError(f"need at least 2 points, got {x.size}")
    dx = x - x.mean()
    dy = y - y.mean()
    sx = np.sqrt((dx * dx).sum())
    sy = np.sqrt((dy * dy).sum())
    if sx == 0.0 or sy == 0.0:
        raise DataError("correlation undefined: an input has zero variance")
    return float((dx * dy).sum() / (sx * sy))


def as_written(score) -> float:
    """A score as written to tables (:data:`FLOAT_FORMAT`); rankings compare these,
    so round-off beyond the written digits never decides an order."""
    return float(format(float(score), FLOAT_FORMAT))


def rank(g: Graph, written: np.ndarray, nodes=None) -> list[int]:
    """Node ids by written score descending, ties broken by name ascending.

    ``written`` holds every node's score :func:`as_written`, as
    :meth:`CentralityBundle.written` gives it.
    """
    nodes = np.arange(g.node_count) if nodes is None else np.asarray(nodes, dtype=np.int64)
    return nodes[np.lexsort((g.name_order[nodes], -written[nodes]))].tolist()


def top_k(g: Graph, bundle: CentralityBundle, measure: str, k: int = 10) -> list[str]:
    """Names ranked by a measure, descending, ties broken by name ascending."""
    if measure not in MEASURES:
        raise DataError(f"measure must be one of {MEASURES}, got {measure!r}")
    if k <= 0:
        raise DataError(f"k must be positive, got {k}")
    return [g.names[v] for v in rank(g, bundle.written(measure))[:k]]


@dataclass(frozen=True)
class TopTable:
    """Side-by-side leaderboards with cross-column appearance counts.

    ``appearances`` maps each listed name to how many columns carry it; a
    name is conventionally marked when that count exceeds 1.
    """

    measures: tuple[str, ...]
    columns: dict[str, list[str]]
    appearances: dict[str, int]

    def marked(self, name: str) -> bool:
        return self.appearances.get(name, 0) > 1


def top_table(g: Graph, bundle: CentralityBundle, k: int = 10,
              measures: tuple[str, ...] = MEASURES) -> TopTable:
    columns = {m: top_k(g, bundle, m, k) for m in measures}
    appearances: dict[str, int] = {}
    for m in measures:
        for name in columns[m]:
            appearances[name] = appearances.get(name, 0) + 1
    return TopTable(measures=tuple(measures), columns=columns, appearances=appearances)
