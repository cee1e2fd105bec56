"""Affiliation profiles for communities and their k-means typology."""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .errors import ConvergenceError, DataError
from .ingest import read_name_pairs

logger = logging.getLogger(__name__)

CATEGORIES = ("business", "politics", "law_enforcement", "banking",
              "government", "criminal", "press", "other")
_CATEGORY_INDEX = {name: i for i, name in enumerate(CATEGORIES)}


def canonical_category(raw: str) -> str:
    """Normalize a category spelling onto the closed 8-value set."""
    folded = raw.strip().lower().replace("-", "_").replace(" ", "_")
    if folded not in _CATEGORY_INDEX:
        raise DataError(f"unknown category {raw!r}; expected one of {', '.join(CATEGORIES)}")
    return folded


def load_affiliations(path) -> dict[str, str]:
    """Load a name,category CSV mapping each person to one category.

    Category spellings are case-insensitive and may use spaces or hyphens in
    place of underscores.  A name listed twice must agree with itself.
    """
    table: dict[str, str] = {}
    for lineno, name, raw in read_name_pairs(path, ("name", "category")):
        try:
            category = canonical_category(raw)
        except DataError as exc:
            raise DataError(f"{path}: line {lineno}: {exc}") from exc
        if name in table and table[name] != category:
            raise DataError(f"{path}: line {lineno}: {name!r} listed as both "
                            f"{table[name]!r} and {category!r}")
        table[name] = category
    if not table:
        raise DataError(f"{path}: no usable rows")
    return table


@dataclass(frozen=True, eq=False)
class CommunityProfile:
    """Category counts over one community's top members.

    ``counts`` aligns with :data:`CATEGORIES`; members missing from the
    affiliation table are tallied in ``unlabeled`` instead.
    """

    community: int
    counts: np.ndarray
    unlabeled: int


def build_profiles(top_members: Mapping[int, Sequence[str]],
                   table: Mapping[str, str]) -> list[CommunityProfile]:
    """Count each community's top members per category.

    Members absent from the table are reported with a warning and excluded
    from the vector.  Profiles come back sorted by community id.
    """
    if not table:
        raise DataError("affiliation table is empty")
    profiles = []
    for community in sorted(top_members):
        counts = np.zeros(len(CATEGORIES), dtype=np.int64)
        missing: list[str] = []
        for name in top_members[community]:
            category = table.get(name)
            if category is None:
                missing.append(name)
            else:
                counts[_CATEGORY_INDEX[category]] += 1
        if missing:
            logger.warning("community %d: %d top member(s) missing from the affiliation "
                           "table: %s", community, len(missing), ", ".join(missing))
        profiles.append(CommunityProfile(community=int(community), counts=counts,
                                         unlabeled=len(missing)))
    return profiles


@dataclass(frozen=True, eq=False)
class KMeansResult:
    """Lloyd output: 0-based labels per point, centroids, final objective."""

    labels: np.ndarray
    centroids: np.ndarray
    objective: float
    iterations: int


def _objective(points: np.ndarray, centroids: np.ndarray, labels: np.ndarray) -> float:
    """Within-cluster sum of squared distances."""
    shifted = points - centroids[labels]
    return float((shifted * shifted).sum())


def _kmeans_once(points: np.ndarray, k: int, seed: int, max_iter: int) -> KMeansResult:
    n = points.shape[0]
    rng = np.random.default_rng(seed)

    # k-means++ seeding
    centroids = np.empty((k, points.shape[1]), dtype=np.float64)
    chosen = [int(rng.integers(n))]
    centroids[0] = points[chosen[0]]
    d2 = ((points - centroids[0]) ** 2).sum(axis=1)
    for i in range(1, k):
        total = float(d2.sum())
        if total == 0.0:
            pick = next(j for j in range(n) if j not in chosen)
        else:
            pick = int(rng.choice(n, p=d2 / total))
        chosen.append(pick)
        centroids[i] = points[pick]
        d2 = np.minimum(d2, ((points - centroids[i]) ** 2).sum(axis=1))

    labels = np.full(n, -1, dtype=np.int64)
    objective = np.inf
    for iteration in range(1, max_iter + 1):
        dist2 = ((points[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
        new_labels = np.argmin(dist2, axis=1)  # ties fall to the lowest index
        own = dist2[np.arange(n), new_labels].copy()
        for empty in np.flatnonzero(np.bincount(new_labels, minlength=k) == 0):
            if own.max() <= 0.0:
                break  # duplicate-point degenerate case: leave the cluster empty
            far = int(np.argmax(own))
            new_labels[far] = empty
            own[far] = 0.0
        for c in range(k):
            members = points[new_labels == c]
            if members.size:
                centroids[c] = members.mean(axis=0)
        new_objective = _objective(points, centroids, new_labels)
        if new_objective > objective + 1e-9:
            raise ConvergenceError(f"k-means objective increased: {objective} -> {new_objective}")
        done = bool((new_labels == labels).all())
        labels = new_labels
        objective = new_objective
        if done:
            break
    return KMeansResult(labels=labels, centroids=centroids.copy(),
                        objective=objective, iterations=iteration)


def kmeans(points, k: int, seed: int, max_iter: int = 300) -> KMeansResult:
    """Euclidean k-means with k-means++ seeding and Lloyd refinement.

    Assignment ties go to the lowest centroid index; an empty cluster is
    re-seeded with the point currently farthest from its own centroid.  Stops
    once assignments repeat or ``max_iter`` passes.  Deterministic for fixed
    arguments.
    """
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2 or points.shape[0] == 0:
        raise DataError("points must be a non-empty 2-d array")
    if k < 1:
        raise DataError(f"k must be >= 1, got {k}")
    if points.shape[0] < k:
        raise DataError(f"need at least k={k} points, got {points.shape[0]}")
    if max_iter < 1:
        raise DataError(f"max_iter must be >= 1, got {max_iter}")
    return _kmeans_once(points, k, seed, max_iter)


@dataclass(frozen=True, eq=False)
class TypeTable:
    """Category-by-type count matrix in display order, and each community's type.

    Types are numbered 1..k in display order: largest category count
    descending, then community count descending, then dominant category, then
    k-means cluster index, so T1 is the most pronounced type.  Each type is
    named after its dominant category, and the per-type community counts form
    the bottom row.
    """

    categories: tuple[str, ...]
    type_names: tuple[str, ...]
    matrix: np.ndarray
    communities_per_type: tuple[int, ...]
    types: dict[int, int]


def type_table(profiles: Sequence[CommunityProfile], result: KMeansResult) -> TypeTable:
    """Sum each k-means cluster's member-category counts into one column."""
    if len(profiles) != result.labels.size:
        raise DataError(f"{len(profiles)} profiles vs {result.labels.size} labels")
    k = result.centroids.shape[0]
    clusters = result.labels.tolist()
    matrix = np.zeros((len(CATEGORIES), k), dtype=np.int64)
    for profile, t in zip(profiles, clusters):
        matrix[:, t] += profile.counts
    members = np.bincount(clusters, minlength=k)

    dominant = matrix.argmax(axis=0)  # ties pick the earlier category
    peak = matrix.max(axis=0)
    order = sorted(range(k), key=lambda t: (-peak[t], -members[t], dominant[t], t))
    display = {t: i + 1 for i, t in enumerate(order)}
    return TypeTable(
        categories=CATEGORIES,
        type_names=tuple(CATEGORIES[dominant[t]] for t in order),
        matrix=matrix[:, order],
        communities_per_type=tuple(int(members[t]) for t in order),
        types={p.community: display[t] for p, t in zip(profiles, clusters)},
    )
