"""Shared fixtures: independent oracles and random-input generators.

Every oracle here is written from the textbook definition with a different
algorithm than the library uses, so agreement is meaningful.
"""

from __future__ import annotations

import itertools
import xml.etree.ElementTree as ET

import numpy as np

from comention import DataError, Graph, InducedGraph, build_graph, top_members
from comention.report import GRAPHML_NS, fmt

INF = 1 << 20


def graph_from(pairs):
    return build_graph(pairs)


def build_graph_oracle(edges):
    """``(names, indptr, adjacency)`` of the graph ``build_graph`` must build:
    the set-based dedupe it had before its numpy one.  Ids in first appearance
    among pairs that are not self-pairs, rows sorted."""
    index = {}
    seen = set()
    us, vs = [], []
    for a, b in edges:
        if not isinstance(a, str) or not isinstance(b, str) or not a or not b:
            raise DataError(f"edge endpoint must be a non-empty string, got ({a!r}, {b!r})")
        if a == b:
            continue
        ia = index.setdefault(a, len(index))
        ib = index.setdefault(b, len(index))
        if ia > ib:
            ia, ib = ib, ia
        if (ia, ib) in seen:
            continue
        seen.add((ia, ib))
        us.append(ia)
        vs.append(ib)
    if not us:
        raise DataError("no usable edges after dropping self-pairs and duplicates")
    n = len(index)
    src = np.array(us + vs, dtype=np.int64)
    dst = np.array(vs + us, dtype=np.int64)
    order = np.lexsort((dst, src))
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=n), out=indptr[1:])
    return tuple(index), indptr, dst[order].astype(np.int32)


def labeled(g, p, bundle, communities):
    """The given communities, in order, each labelled by its top member, as a
    run labels the communities it retains."""
    return {c: names[0] for c, names in top_members(g, p, bundle, communities, k=1).items()}


def id_pairs(g):
    """Graph edges as python int id tuples, u < v."""
    us, vs = g.edge_arrays()
    return list(zip(us.tolist(), vs.tolist()))


def named_edges(g):
    """Graph edges as name tuples, in ascending (u, v) id order."""
    return [(g.names[u], g.names[v]) for u, v in id_pairs(g)]


def article_groups(articles):
    """Each kept record's persons of a parsed corpus, as a tuple of names."""
    ends = np.cumsum(articles.sizes).tolist()
    keys = articles.keys.tolist()
    return [tuple(articles.names[k] for k in keys[start:end])
            for start, end in zip([0] + ends[:-1], ends)]


def adjacency_sets(n, pairs):
    adj = [set() for _ in range(n)]
    for u, v in pairs:
        adj[u].add(v)
        adj[v].add(u)
    return adj


def csr(n, pairs):
    """``(indptr, adjacency)`` of nodes 0..n-1 and ``pairs``, rows sorted."""
    adj = adjacency_sets(n, pairs)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum([len(row) for row in adj], out=indptr[1:])
    adjacency = np.array([u for row in adj for u in sorted(row)], dtype=np.int32)
    return indptr, adjacency


def graph_on(n, pairs):
    """A :class:`Graph` on nodes 0..n-1, isolated ones included (which
    ``build_graph`` cannot make), named ``v0``, ``v1``, ..."""
    return Graph(tuple(f"v{i}" for i in range(n)), *csr(n, pairs))


def floyd_warshall(n, pairs):
    """All-pairs hop distances by the classic triple loop."""
    dist = [[0 if i == j else INF for j in range(n)] for i in range(n)]
    for u, v in pairs:
        dist[u][v] = 1
        dist[v][u] = 1
    for k in range(n):
        dk = dist[k]
        for i in range(n):
            dik = dist[i][k]
            if dik == INF:
                continue
            di = dist[i]
            for j in range(n):
                alt = dik + dk[j]
                if alt < di[j]:
                    di[j] = alt
    return dist


def closeness_oracle(n, pairs):
    dist = floyd_warshall(n, pairs)
    out = []
    for v in range(n):
        finite = [d for d in dist[v] if d < INF]
        reach = len(finite)  # includes v itself at distance 0
        total = sum(finite)
        out.append((reach - 1.0) / total if reach > 1 else 0.0)
    return np.array(out)


def diameter_oracle(n, pairs):
    """Max finite distance within the largest component (reachability closure)."""
    dist = floyd_warshall(n, pairs)
    comps = components_oracle(n, pairs)
    largest = max(comps, key=lambda c: (len(c), -min(c)))
    if len(largest) < 2:
        return 0
    return max(dist[u][v] for u in largest for v in largest)


def components_oracle(n, pairs):
    """Connected components via boolean-matrix transitive closure."""
    reach = np.eye(n, dtype=bool)
    for u, v in pairs:
        reach[u, v] = reach[v, u] = True
    for _ in range(n):
        grown = reach @ reach
        if (grown == reach).all():
            break
        reach = grown
    seen = set()
    comps = []
    for v in range(n):
        if v in seen:
            continue
        comp = set(np.flatnonzero(reach[v]).tolist())
        seen |= comp
        comps.append(comp)
    return comps


def _all_shortest_paths(adj, dist, s, t):
    if s == t:
        yield (s,)
        return
    for u in sorted(adj[s]):
        if dist[u][t] == dist[s][t] - 1:
            for rest in _all_shortest_paths(adj, dist, u, t):
                yield (s,) + rest


def _dependencies(adj, dist, s):
    raw = np.zeros(len(adj))
    for t in range(len(adj)):
        if s == t or dist[s][t] >= INF:
            continue
        paths = list(_all_shortest_paths(adj, dist, s, t))
        for path in paths:
            for v in path[1:-1]:
                raw[v] += 1.0 / len(paths)
    return raw


def dependency_oracle(n, pairs, s):
    """Pair dependencies of source ``s``: for each node, the summed share of
    shortest s-t paths it lies inside, by exhaustive path enumeration."""
    return _dependencies(adjacency_sets(n, pairs), floyd_warshall(n, pairs), s)


def betweenness_oracle(n, pairs):
    """Exhaustive enumeration of every shortest path, interior nodes tallied."""
    if n < 3:
        return np.zeros(n)
    adj = adjacency_sets(n, pairs)
    dist = floyd_warshall(n, pairs)
    raw = sum(_dependencies(adj, dist, s) for s in range(n))
    return raw / ((n - 1.0) * (n - 2.0))


def nmi_oracle(a, b):
    """Normalized mutual information of two labelings, normalised by the
    arithmetic mean of their entropies (scikit-learn's default)."""
    _, ia = np.unique(np.asarray(a), return_inverse=True)
    _, ib = np.unique(np.asarray(b), return_inverse=True)
    if ia.max() == 0 and ib.max() == 0:
        return 1.0  # both labelings put everything in one cluster
    joint = np.zeros((ia.max() + 1, ib.max() + 1))
    np.add.at(joint, (ia, ib), 1.0)
    joint /= joint.sum()
    pa = joint.sum(axis=1)
    pb = joint.sum(axis=0)
    nz = joint > 0
    mi = float((joint[nz] * np.log(joint[nz] / np.outer(pa, pb)[nz])).sum())
    ha = -float((pa * np.log(pa)).sum())
    hb = -float((pb * np.log(pb)).sum())
    return mi / max((ha + hb) / 2.0, np.finfo(np.float64).eps)


def eigenvector_oracle(n, pairs):
    """Dense symmetric eigensolver on the largest component, zeros elsewhere."""
    comps = components_oracle(n, pairs)
    largest = sorted(max(comps, key=lambda c: (len(c), -min(c))))
    index = {v: i for i, v in enumerate(largest)}
    a = np.zeros((len(largest), len(largest)))
    for u, v in pairs:
        if u in index and v in index:
            a[index[u], index[v]] = a[index[v], index[u]] = 1.0
    values, vectors = np.linalg.eigh(a)
    lead = vectors[:, np.argmax(values)]
    if lead.sum() < 0:
        lead = -lead
    out = np.zeros(n)
    for v, i in index.items():
        out[v] = lead[i]
    return out


def clustering_oracle(n, pairs):
    adj = adjacency_sets(n, pairs)
    out = np.zeros(n)
    for v in range(n):
        neighbors = sorted(adj[v])
        d = len(neighbors)
        if d < 2:
            continue
        links = sum(1 for a, b in itertools.combinations(neighbors, 2) if b in adj[a])
        out[v] = 2.0 * links / (d * (d - 1))
    return out


def graphml_oracle(obj, path):
    """GraphML of a plain or induced graph as ElementTree writes it after
    ``indent``: the writers ``export_graphml`` and ``export_induced_graphml``
    replaced, byte for byte."""
    root = ET.Element("graphml", xmlns=GRAPHML_NS)

    def key(key_id, target, name, kind):
        ET.SubElement(root, "key", attrib={
            "id": key_id, "for": target, "attr.name": name, "attr.type": kind})

    if isinstance(obj, Graph):
        key("d_name", "node", "name", "string")
        container = ET.SubElement(root, "graph", id="G", edgedefault="undirected")
        for v, name in enumerate(obj.names):
            node = ET.SubElement(container, "node", id=f"n{v}")
            ET.SubElement(node, "data", key="d_name").text = name
        us, vs = obj.edge_arrays()
        for i, (u, v) in enumerate(zip(us.tolist(), vs.tolist())):
            ET.SubElement(container, "edge", id=f"e{i}", source=f"n{u}", target=f"n{v}")
    else:
        assert isinstance(obj, InducedGraph)
        key("d_label", "node", "label", "string")
        key("d_size", "node", "size", "long")
        key("d_intra", "node", "intra_weight", "long")
        key("d_btw", "node", "mean_betweenness", "double")
        key("d_weight", "edge", "weight", "long")
        container = ET.SubElement(root, "graph", id="induced", edgedefault="undirected")
        for c in obj.community_ids:
            node = ET.SubElement(container, "node", id=f"c{c}")
            for key_id, value in (("d_label", obj.labels[c]), ("d_size", obj.sizes[c]),
                                  ("d_intra", obj.intra_weights[c]),
                                  ("d_btw", fmt(obj.mean_betweenness[c]))):
                ET.SubElement(node, "data", key=key_id).text = str(value)
        for i, (a, b, w) in enumerate(obj.edges):
            edge = ET.SubElement(container, "edge", id=f"e{i}", source=f"c{a}", target=f"c{b}")
            ET.SubElement(edge, "data", key="d_weight").text = str(w)
    tree = ET.ElementTree(root)
    ET.indent(tree)
    tree.write(path, encoding="UTF-8", xml_declaration=True)
    with open(path, "ab") as fh:
        fh.write(b"\n")


def modularity_oracle(n, pairs, labels, resolution=1.0):
    """Definition sum with explicit python loops."""
    m = len(pairs)
    communities = set(labels)
    degree = [0] * n
    for u, v in pairs:
        degree[u] += 1
        degree[v] += 1
    q = 0.0
    for c in communities:
        e_c = sum(1 for u, v in pairs if labels[u] == c and labels[v] == c)
        d_c = sum(degree[v] for v in range(n) if labels[v] == c)
        q += e_c / m - resolution * (d_c / (2.0 * m)) ** 2
    return q


def pearson_oracle(xs, ys):
    """Two-pass textbook formula."""
    n = len(xs)
    mx = sum(xs) / n
    my = sum(ys) / n
    cov = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    sx = sum((x - mx) ** 2 for x in xs) ** 0.5
    sy = sum((y - my) ** 2 for y in ys) ** 0.5
    return cov / (sx * sy)


def set_partitions(n):
    """All partitions of range(n) as dense label tuples (restricted growth)."""

    def grow(prefix, used):
        i = len(prefix)
        if i == n:
            yield tuple(prefix)
            return
        for c in range(used + 1):
            prefix.append(c)
            yield from grow(prefix, max(used, c + 1))
            prefix.pop()

    yield from grow([], 0)


def wcss(points, groups):
    total = 0.0
    for group in groups:
        if not group:
            continue
        sub = points[list(group)]
        centroid = sub.mean(axis=0)
        total += float(((sub - centroid) ** 2).sum())
    return total


def best_two_partition(points):
    """Exhaustive minimal-WCSS split into two non-empty groups."""
    n = points.shape[0]
    best = None
    best_cost = np.inf
    for mask in range(1, (1 << n) - 1):
        left = [i for i in range(n) if mask >> i & 1]
        right = [i for i in range(n) if not mask >> i & 1]
        cost = wcss(points, [left, right])
        if cost < best_cost - 1e-12:
            best_cost = cost
            best = (frozenset(left), frozenset(right))
    return frozenset(best), best_cost


def sample_discrete_powerlaw(alpha, dmin, size, seed):
    """Discrete power-law samples ≥ dmin via the inverse CDF.

    Draws from the continuous density ∝ x^alpha above dmin − 1/2 and
    rounds to the nearest integer, the standard generative model behind
    the shifted discrete MLE.
    """
    xm = dmin - 0.5
    u = np.random.default_rng(seed).random(size)
    x = xm * u ** (1.0 / (alpha + 1.0))
    return np.floor(x + 0.5).astype(np.int64)


def random_pairs(rng, n_max=9, p=0.35):
    """Random named edge list; may be disconnected, always has an edge."""
    n = int(rng.integers(2, n_max + 1))
    pairs = [(f"v{i:02d}", f"v{j:02d}")
             for i in range(n) for j in range(i + 1, n) if rng.random() < p]
    if not pairs:
        pairs = [("v00", "v01")]
    return pairs


def random_connected_pairs(rng, n, extra=0):
    """Random tree plus ``extra`` distinct shortcut edges."""
    pairs = {(int(rng.integers(v)), v) for v in range(1, n)}
    while len(pairs) < min(n - 1 + extra, n * (n - 1) // 2):
        u = int(rng.integers(n))
        v = int(rng.integers(n))
        if u == v:
            continue
        pairs.add((min(u, v), max(u, v)))
    return [(f"v{u:02d}", f"v{v:02d}") for u, v in sorted(pairs)]
