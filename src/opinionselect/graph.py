"""Weighted undirected social graphs with a stubborn/regular node partition.

A graph is stored as its edge list (see ``SocialGraph``, the one
constructor). ``load_graph`` and ``load_sigma2`` read the edge list and the
noise table and share one rule: a key given again must repeat its value.
Normalization sums the strengths over the edges and stores one form of the
DeGroot operator A = D^-1 W_RR: the eigendecomposition of the symmetric
matrix similar to it, which it scatters from the regular-regular edges.

Reachability is a breadth-first search over the edge list, O(m) per level.
``load_graph`` and ``normalize`` both call ``validate_reachability``, which
raises ``ReachabilityError``, the orphan components on the error, when a
regular node cannot reach a stubborn one.
networkx is imported only inside the two generators that draw from it
(Watts-Strogatz and random regular), so loading, normalizing and validating a
graph need numpy alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .errors import GraphError, ReachabilityError

RHO_MARGIN = 1e-10


@dataclass(frozen=True, init=False, eq=False)
class SocialGraph:
    """Undirected graph with positive edge weights and a stubborn-node subset.

    ``SocialGraph(n_nodes, i, j, weights, stubborn, labels)`` is the graph on
    nodes 0..n_nodes-1 whose edge k joins i[k] and j[k] with weight
    weights[k]. Each edge is given once, in either orientation; it is stored
    as ``edge_i[k]`` < ``edge_j[k]``, in the row-major order of
    ``np.nonzero(np.triu(weights))``. A repeated edge, a self-loop, an id
    outside the node range or a weight that is not finite and positive
    raises ``GraphError``. ``labels`` keeps the original ids from the input
    file (identity for generated graphs).
    """

    n_nodes: int
    edge_i: np.ndarray
    edge_j: np.ndarray
    edge_weights: np.ndarray
    stubborn: tuple[int, ...]
    labels: tuple[int, ...]
    regular: tuple[int, ...]

    def __init__(self, n_nodes: int, i, j, weights, stubborn: Iterable[int],
                 labels: Sequence[int] = ()):
        n = int(n_nodes)
        i, j = np.asarray(i, dtype=np.intp), np.asarray(j, dtype=np.intp)
        w = np.asarray(weights, dtype=float)
        if i.ndim != 1 or not i.shape == j.shape == w.shape:
            raise GraphError("edge arrays must be 1-D and of equal length")
        if np.any(i == j):
            raise GraphError("self-loops are not allowed")
        lo, hi = np.minimum(i, j), np.maximum(i, j)
        if lo.size and (lo.min() < 0 or hi.max() >= n):
            raise GraphError("edge endpoint out of node range")
        if not np.isfinite(w).all():
            raise GraphError("edge weights must be finite")
        if np.any(w <= 0):
            raise GraphError("edge weights must be positive")
        order = np.lexsort((hi, lo))
        lo, hi, w = lo[order], hi[order], w[order]
        if np.any((lo[1:] == lo[:-1]) & (hi[1:] == hi[:-1])):
            raise GraphError("repeated edge")
        stub = tuple(sorted(set(int(s) for s in stubborn)))
        if any(s < 0 or s >= n for s in stub):
            raise GraphError("stubborn id out of node range")
        labels = tuple(labels) or tuple(range(n))
        if len(labels) != n:
            raise GraphError("label table length must equal node count")
        for a in (lo, hi, w):
            a.setflags(write=False)
        is_stub = set(stub)
        for name, value in (("n_nodes", n), ("edge_i", lo), ("edge_j", hi),
                            ("edge_weights", w), ("stubborn", stub),
                            ("labels", labels),
                            ("regular", tuple(k for k in range(n)
                                              if k not in is_stub))):
            object.__setattr__(self, name, value)

    @property
    def n_edges(self) -> int:
        return len(self.edge_weights)

    # formed on each read, O(m), not cached: arrays cached on the graph stay
    # alive across normalize's eigh and split the free heap an n x n array
    # would reuse there (cached, peak RSS of a repeated 1,000-node `score`
    # rose from 75 to 82 MB)
    @property
    def regular_arcs(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The edges between regular nodes in both orientations, as (row,
        col, weight) with row and col positions in ``regular``: the nonzeros
        of W_RR, each once, in no particular order."""
        pos = np.full(self.n_nodes, -1)
        pos[list(self.regular)] = np.arange(len(self.regular))
        row, col = pos[self.edge_i], pos[self.edge_j]
        keep = (row >= 0) & (col >= 0)
        row, col, wgt = row[keep], col[keep], self.edge_weights[keep]
        return (np.concatenate([row, col]), np.concatenate([col, row]),
                np.tile(wgt, 2))


@dataclass(frozen=True)
class NetworkOperators:
    """The spectrum of A = D^-1 W_RR for the graph ``graph``.

    D = diag(w) holds the strengths of the regular nodes in
    ``graph.regular`` order (edges to stubborn nodes included). A is similar
    to the symmetric matrix S = D^-1/2 W_RR D^-1/2 = Q diag(eigvals) Q'.
    ``eigvals`` (ascending) and the orthonormal ``eigvecs`` Q are that
    decomposition, and ``rho`` is max |eigvals|. For a dense matrix's
    spectrum (``centrality.spectrum``), D = I and ``graph`` is None.
    """

    graph: SocialGraph | None
    w: np.ndarray
    rho: float
    eigvals: np.ndarray
    eigvecs: np.ndarray

    def __post_init__(self):
        for name in ("w", "eigvals", "eigvecs"):
            getattr(self, name).setflags(write=False)

    @property
    def n_regular(self) -> int:
        return len(self.w)


def _reach(g: SocialGraph, start: np.ndarray, unseen: np.ndarray) -> np.ndarray:
    """Breadth-first search from ``start`` along the edges of ``g``; marks and
    returns the nodes reached."""
    i, j = g.edge_i, g.edge_j
    found = [start]
    unseen[start] = False
    frontier = start
    on = np.zeros(len(unseen), dtype=bool)
    while frontier.size:
        on[frontier] = True
        reached = np.concatenate([j[on[i]], i[on[j]]])
        on[frontier] = False
        frontier = np.unique(reached[unseen[reached]])
        unseen[frontier] = False
        found.append(frontier)
    return np.concatenate(found)


def validate_reachability(g: SocialGraph) -> None:
    """Raise ``ReachabilityError`` unless every component containing a
    regular node has a stubborn node.

    One search starts from all stubborn nodes at once; each regular node it
    leaves unseen then starts an orphan component of its own, so orphans come
    ordered by their smallest member. O(m) per level of each search.
    """
    unseen = np.ones(g.n_nodes, dtype=bool)
    _reach(g, np.array(g.stubborn, dtype=np.intp), unseen)
    orphans = []
    for i in np.flatnonzero(unseen):    # regular nodes only
        if unseen[i]:
            members = np.sort(_reach(g, np.array([i]), unseen))
            orphans.append(tuple(int(m) for m in members))
    if orphans:
        raise ReachabilityError(f"{len(orphans)} component(s) contain regular "
                                "nodes but no stubborn node", orphans)


def normalize(g: SocialGraph) -> NetworkOperators:
    """The spectrum of A = W_RR / w_R.

    One symmetric eigendecomposition of D^-1/2 W_RR D^-1/2, built from the
    regular-regular edges, gives the eigenpairs stored on the result and the
    spectral radius of A; raises ``GraphError`` when a regular node's
    strength overflows to infinity, and ``ReachabilityError`` unless A is
    Schur stable.
    """
    validate_reachability(g)
    R = g.regular
    # one C pass sums each node's incident weights, so an overflowing
    # strength comes out as inf without a floating-point warning
    w = np.bincount(np.concatenate([g.edge_i, g.edge_j]),
                    np.tile(g.edge_weights, 2), g.n_nodes)[list(R)]
    if not np.isfinite(w).all():
        overflowed = [i for i, wi in zip(R, w) if not np.isfinite(wi)]
        raise GraphError(f"strength of regular node(s) {overflowed} "
                         "overflows to infinity")
    row, col, wgt = g.regular_arcs
    scale = 1.0 / np.sqrt(w)
    # D^-1/2 W_RR D^-1/2 entry by entry as (w_ij s_i) s_j, the products of
    # scaling the rows of W_RR and then its columns
    S = np.zeros((len(R), len(R)))
    S[row, col] = wgt * scale[row] * scale[col]
    eigvals, eigvecs = np.linalg.eigh(S)
    rho = float(np.max(np.abs(eigvals))) if R else 0.0
    if not rho < 1.0 - RHO_MARGIN:     # NaN fails too
        raise ReachabilityError(f"spectral radius of A is {rho:.12f}, expected < 1")
    return NetworkOperators(graph=g, w=w, rho=rho, eigvals=eigvals,
                            eigvecs=eigvecs)


EDGE_FIELDS = (("i", int), ("j", int), ("weight", float))
SIGMA2_FIELDS = (("node", int), ("sigma2", float))


def read_records(source: str | Path | Iterable[str],
                 fields: Sequence[tuple[str, type]], where: str = "line"):
    """Yield (line number, values) for each record of a line-oriented input.

    Blank lines and lines starting with '#' are skipped; fields are split on
    commas and whitespace and converted by the types in ``fields``. A path is
    opened and read; any other iterable is read as its lines. A record with
    the wrong field count or an unconvertible field raises ``GraphError``
    naming ``where`` (the line's location, e.g. "sigma2 file line") and the
    line number.
    """
    if isinstance(source, (str, Path)):
        source = Path(source).read_text(encoding="utf-8").splitlines()
    names = " ".join(name for name, _ in fields)
    kinds = [kind for _, kind in fields]
    for lineno, raw in enumerate(source, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.replace(",", " ").split()
        try:
            values = [kind(p) for kind, p in zip(kinds, parts, strict=True)]
        except ValueError:
            raise GraphError(f"{where} {lineno}: expected '{names}', "
                             f"got {line!r}") from None
        yield lineno, values


def _keep(table: dict, key, value, where: str, lineno: int, noun: str) -> None:
    """Store ``value`` under ``key``; a repeated key must repeat its value."""
    if table.setdefault(key, value) != value:
        raise GraphError(f"{where} {lineno}: conflicting duplicate {noun} "
                         f"{key}: {table[key]} vs {value}")


def load_graph(source: str | Path | Iterable[str],
               stubborn: Iterable[int]) -> SocialGraph:
    """Read a whitespace/comma separated edge list and build a SocialGraph.

    Records appearing once are mirrored; a pair appearing with two different
    weights is a hard error. Stubborn ids refer to the original node labels,
    and at least one node must be left regular.
    """
    edges: dict[tuple[int, int], float] = {}
    for lineno, (i, j, wgt) in read_records(source, EDGE_FIELDS):
        if i < 0 or j < 0:
            raise GraphError(f"line {lineno}: node ids must be nonnegative")
        if not 0 < wgt < np.inf:
            raise GraphError(f"line {lineno}: weight must be positive and "
                             f"finite, got {wgt}")
        if i == j:
            raise GraphError(f"line {lineno}: self-loop on node {i}")
        _keep(edges, (min(i, j), max(i, j)), wgt, "line", lineno, "edge")
    if not edges:
        raise GraphError("edge list is empty")
    nodes = {v for key in edges for v in key}
    stub_labels = sorted(set(int(s) for s in stubborn))
    if not stub_labels:
        raise GraphError("stubborn set empty")
    missing = [s for s in stub_labels if s not in nodes]
    if missing:
        raise GraphError(f"stubborn id(s) not in node range: {missing}")
    if len(stub_labels) == len(nodes):
        raise GraphError("every node is stubborn: no regular node to observe")
    labels = tuple(sorted(nodes))
    index = {lab: k for k, lab in enumerate(labels)}
    ends = np.array([(index[i], index[j]) for i, j in edges], dtype=np.intp)
    g = SocialGraph(len(labels), ends[:, 0], ends[:, 1], list(edges.values()),
                    stubborn=[index[s] for s in stub_labels], labels=labels)
    validate_reachability(g)
    return g


def load_sigma2(source: str | Path | Iterable[str],
                g: SocialGraph) -> np.ndarray:
    """A 'node sigma2' table's variances in ``g.regular`` order, unchecked;
    a line for another node, a conflicting repeat or a regular node left out
    (named by count and the first 10 labels) raises ``GraphError``."""
    labels = [g.labels[i] for i in g.regular]
    regular, table, where = set(labels), {}, "sigma2 file line"
    for lineno, (node, value) in read_records(source, SIGMA2_FIELDS, where):
        if node not in regular:
            raise GraphError(f"{where} {lineno}: node {node} is not a regular "
                             "node of the graph")
        _keep(table, node, value, where, lineno, "for node")
    missing = [label for label in labels if label not in table]
    if missing:
        some = ", the first 10 by label" if len(missing) > 10 else ""
        raise GraphError(f"sigma2 file misses {len(missing)} regular "
                         f"node(s){some}: {missing[:10]}")
    return np.array([table[label] for label in labels])


def save_graph(g: SocialGraph, edges_path: str | Path,
               stubborn_path: str | Path | None = None) -> None:
    """Write the canonical edge-list (original labels) and stubborn file.

    Weights are written in their shortest round-trip form (``repr``), so
    ``load_graph`` reads back the same bits.
    """
    lines = ["# i j w"]
    for i, j, wgt in zip(g.edge_i.tolist(), g.edge_j.tolist(),
                         g.edge_weights.tolist()):
        lines.append(f"{g.labels[i]} {g.labels[j]} {wgt!r}")
    Path(edges_path).write_text("\n".join(lines) + "\n", encoding="utf-8")
    if stubborn_path is not None:
        stub = "\n".join(str(g.labels[i]) for i in g.stubborn)
        Path(stubborn_path).write_text(stub + "\n", encoding="utf-8")


def _unit_weight_graph(n: int, edges, seed: int, n_stubborn: int) -> SocialGraph:
    """Unit weights on ``edges``; the stubborn nodes are drawn uniformly
    without replacement from a generator seeded with ``seed``."""
    ends = np.array(list(edges), dtype=np.intp).reshape(-1, 2)
    rng = np.random.default_rng(seed)
    stub = tuple(sorted(int(i) for i in rng.choice(n, size=n_stubborn, replace=False)))
    return SocialGraph(n, ends[:, 0], ends[:, 1], np.ones(len(ends)), stub)


def generate_watts_strogatz(n: int, k: int, beta: float, seed: int,
                            n_stubborn: int) -> SocialGraph:
    """Connected Watts-Strogatz small world with unit weights.

    Stubborn nodes are drawn uniformly without replacement from a generator
    seeded with the same seed, so the instance is fully reproducible.
    """
    if not (n > k >= 2):
        raise GraphError(f"require n > k >= 2, got n={n}, k={k}")
    if k % 2 != 0:
        raise GraphError("k must be even (ring-lattice half-degree)")
    if not (0.0 <= beta <= 1.0):
        raise GraphError("beta must lie in [0, 1]")
    if not (0 <= n_stubborn < n):
        raise GraphError("require 0 <= n_stubborn < n")
    import networkx as nx

    gnx = nx.connected_watts_strogatz_graph(n, k, beta, tries=1000, seed=int(seed))
    return _unit_weight_graph(n, gnx.edges, seed, n_stubborn)


def generate_cycle(n: int, n_stubborn: int) -> SocialGraph:
    """Ring of n nodes with unit weights; the first n_stubborn ids are stubborn."""
    if n < 3:
        raise GraphError("cycle needs n >= 3")
    if n_stubborn >= n:
        raise GraphError("require n_stubborn < n")
    i = np.arange(n)
    return SocialGraph(n, i, (i + 1) % n, np.ones(n), stubborn=range(n_stubborn))


def generate_random_reachable(n: int, n_stubborn: int,
                              seed: int) -> SocialGraph:
    """Random connected graph: a spanning tree plus n // 2 draws of an extra
    edge, weights uniform in [0.5, 2).

    Test/validation instance provisioning; connectivity plus a nonempty
    stubborn set guarantees global reachability.
    """
    if n < 2 or not (1 <= n_stubborn < n):
        raise GraphError("need n >= 2 and 1 <= n_stubborn < n")
    rng = np.random.default_rng(seed)
    edges: dict[tuple[int, int], float] = {}
    for i in range(1, n):
        j = int(rng.integers(0, i))
        edges[j, i] = rng.uniform(0.5, 2.0)
    for _ in range(n // 2):
        i, j = sorted(int(v) for v in rng.integers(0, n, size=2))
        if i != j and (i, j) not in edges:
            edges[i, j] = rng.uniform(0.5, 2.0)
    stub = tuple(sorted(int(i) for i in rng.choice(n, size=n_stubborn, replace=False)))
    ends = np.array(list(edges), dtype=np.intp)
    return SocialGraph(n, ends[:, 0], ends[:, 1], list(edges.values()), stub)


def generate_random_regular(n: int, degree: int, seed: int,
                            n_stubborn: int) -> SocialGraph:
    """Random connected degree-regular graph with unit weights.

    On these instances A = W_RR / degree is symmetric, which is the regime
    where the closed-form covariance is exact (with uniform noise).
    """
    if n_stubborn >= n:
        raise GraphError("require n_stubborn < n")
    import networkx as nx

    for attempt in range(100):
        gnx = nx.random_regular_graph(degree, n, seed=int(seed) + attempt * 7919)
        if nx.is_connected(gnx):
            break
    else:
        raise GraphError("failed to draw a connected regular graph")
    return _unit_weight_graph(n, gnx.edges, seed, n_stubborn)
