"""Weighted undirected social graphs with a stubborn/regular node partition.

A graph is stored as a dense symmetric weight matrix plus the set of stubborn
node indices. Normalization stores one form of the DeGroot operator
A = D^-1 W_RR: the eigendecomposition of the symmetric matrix similar to it.
The blocks A and B of the row-stochastic diag(w)^-1 W are formed from the
weights when read, never from the spectrum, so the oracles stay independent.

Reachability is a breadth-first search over the dense adjacency. networkx is
imported only inside the two generators that draw from it (Watts-Strogatz and
random regular), so loading, normalizing and validating a graph need numpy
alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .errors import GraphError, ReachabilityError

RHO_MARGIN = 1e-10


@dataclass(frozen=True)
class SocialGraph:
    """Symmetric nonnegative weight matrix with a stubborn-node subset.

    Node ids are dense 0-based integers; ``labels`` keeps the original ids
    from the input file (identity for generated graphs).
    """

    weights: np.ndarray
    stubborn: tuple[int, ...]
    labels: tuple[int, ...] = field(default=())

    def __post_init__(self):
        W = np.asarray(self.weights, dtype=float)
        if W.ndim != 2 or W.shape[0] != W.shape[1]:
            raise GraphError("weight matrix must be square")
        if not np.isfinite(W).all():
            raise GraphError("edge weights must be finite")
        if not np.array_equal(W, W.T):
            raise GraphError("weight matrix must be symmetric")
        if np.any(W < 0):
            raise GraphError("edge weights must be nonnegative")
        if np.any(np.diag(W) != 0):
            raise GraphError("self-loops are not allowed")
        stub = tuple(sorted(set(int(i) for i in self.stubborn)))
        if any(i < 0 or i >= W.shape[0] for i in stub):
            raise GraphError("stubborn id out of node range")
        labels = self.labels or tuple(range(W.shape[0]))
        if len(labels) != W.shape[0]:
            raise GraphError("label table length must equal node count")
        W.setflags(write=False)
        object.__setattr__(self, "weights", W)
        object.__setattr__(self, "stubborn", stub)
        object.__setattr__(self, "labels", tuple(labels))

    @property
    def n_nodes(self) -> int:
        return self.weights.shape[0]

    @property
    def regular(self) -> tuple[int, ...]:
        stub = set(self.stubborn)
        return tuple(i for i in range(self.n_nodes) if i not in stub)

    @property
    def n_edges(self) -> int:
        return int(np.count_nonzero(self.weights) // 2)


@dataclass(frozen=True)
class NetworkOperators:
    """The spectrum of A = D^-1 W_RR for the graph ``graph``.

    D = diag(w) holds the strengths of the regular nodes in ``regular`` order
    (edges to stubborn nodes included). A is similar to the symmetric matrix
    S = D^-1/2 W_RR D^-1/2 = Q diag(eigvals) Q'. ``eigvals`` (ascending) and
    the orthonormal ``eigvecs`` Q are that decomposition, and ``rho`` is
    max |eigvals|. The blocks ``A`` = D^-1 W_RR and ``B`` = D^-1 W_RS, whose
    rows together sum to one, are formed from W on each read (O(n^2)).
    """

    graph: SocialGraph
    w: np.ndarray
    regular: tuple[int, ...]
    stubborn: tuple[int, ...]
    rho: float
    eigvals: np.ndarray
    eigvecs: np.ndarray

    def __post_init__(self):
        for name in ("w", "eigvals", "eigvecs"):
            getattr(self, name).setflags(write=False)

    @property
    def n_regular(self) -> int:
        return len(self.regular)

    @property
    def A(self) -> np.ndarray:
        W, R = self.graph.weights, self.regular
        return W[np.ix_(R, R)] / self.w[:, None]

    @property
    def B(self) -> np.ndarray:
        W, R = self.graph.weights, self.regular
        return W[np.ix_(R, self.stubborn)] / self.w[:, None]


@dataclass(frozen=True)
class ReachabilityReport:
    ok: bool
    orphan_components: tuple[tuple[int, ...], ...]
    message: str


def _reach(adj: np.ndarray, start: np.ndarray, unseen: np.ndarray) -> np.ndarray:
    """Breadth-first search from ``start``; marks and returns the nodes reached."""
    found = [start]
    unseen[start] = False
    frontier = start
    while frontier.size:
        frontier = np.flatnonzero(adj[frontier].any(axis=0) & unseen)
        unseen[frontier] = False
        found.append(frontier)
    return np.concatenate(found)


def validate_reachability(g: SocialGraph) -> ReachabilityReport:
    """Check that every component containing a regular node has a stubborn node.

    One search starts from all stubborn nodes at once; each regular node it
    leaves unseen then starts an orphan component of its own, so orphans come
    ordered by their smallest member. O(n^2) on the dense adjacency.
    """
    if not g.regular:
        return ReachabilityReport(True, (), "no regular agents (vacuously reachable)")
    adj = g.weights > 0
    unseen = np.ones(g.n_nodes, dtype=bool)
    _reach(adj, np.array(g.stubborn, dtype=np.intp), unseen)
    orphans = []
    for i in g.regular:
        if unseen[i]:
            members = np.sort(_reach(adj, np.array([i]), unseen))
            orphans.append(tuple(int(m) for m in members))
    if orphans:
        msg = f"{len(orphans)} component(s) contain regular nodes but no stubborn node"
        return ReachabilityReport(False, tuple(orphans), msg)
    return ReachabilityReport(True, (), "every regular node can reach a stubborn node")


def normalize(g: SocialGraph) -> NetworkOperators:
    """The spectrum of A = W_RR / w_R.

    One symmetric eigendecomposition of D^-1/2 W_RR D^-1/2 gives the
    eigenpairs stored on the result and the spectral radius of A; raises
    ``GraphError`` when a regular node's strength overflows to infinity, and
    ``ReachabilityError`` unless A is Schur stable.
    """
    report = validate_reachability(g)
    if not report.ok:
        raise ReachabilityError(report.message)
    R = list(g.regular)
    with np.errstate(over="ignore"):
        w = g.weights.sum(axis=1)[R]
    if not np.isfinite(w).all():
        overflowed = [i for i, wi in zip(R, w) if not np.isfinite(wi)]
        raise GraphError(f"strength of regular node(s) {overflowed} "
                         "overflows to infinity")
    if np.any(w == 0):
        isolated = [i for i, wi in zip(R, w) if wi == 0]
        raise GraphError(f"isolated regular node(s): {isolated}")
    S = g.weights[np.ix_(R, R)]     # scaled in place into D^-1/2 W_RR D^-1/2
    scale = 1.0 / np.sqrt(w)
    S *= scale[:, None]
    S *= scale
    eigvals, eigvecs = np.linalg.eigh(S)
    rho = float(np.max(np.abs(eigvals))) if R else 0.0
    if not rho < 1.0 - RHO_MARGIN:     # NaN fails too
        raise ReachabilityError(f"spectral radius of A is {rho:.12f}, expected < 1")
    return NetworkOperators(graph=g, w=w, regular=tuple(R),
                            stubborn=g.stubborn, rho=rho, eigvals=eigvals,
                            eigvecs=eigvecs)


EDGE_FIELDS = (("i", int), ("j", int), ("weight", float))


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


def load_graph(source: str | Path | Iterable[str],
               stubborn: Iterable[int]) -> SocialGraph:
    """Read a whitespace/comma separated edge list and build a SocialGraph.

    Records appearing once are mirrored; a pair appearing with two different
    weights is a hard error. Stubborn ids refer to the original node labels,
    and at least one node must be left regular.
    """
    edges: dict[tuple[int, int], float] = {}
    nodes: set[int] = set()
    for lineno, (i, j, wgt) in read_records(source, EDGE_FIELDS):
        if i < 0 or j < 0:
            raise GraphError(f"line {lineno}: node ids must be nonnegative")
        if not 0 < wgt < np.inf:
            raise GraphError(f"line {lineno}: weight must be positive and "
                             f"finite, got {wgt}")
        if i == j:
            raise GraphError(f"line {lineno}: self-loop on node {i}")
        key = (min(i, j), max(i, j))
        if key in edges and edges[key] != wgt:
            raise GraphError(
                f"line {lineno}: conflicting duplicate edge {key}: "
                f"{edges[key]} vs {wgt}")
        edges[key] = wgt
        nodes.update(key)
    if not edges:
        raise GraphError("edge list is empty")
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
    W = np.zeros((len(labels), len(labels)))
    for (i, j), wgt in edges.items():
        W[index[i], index[j]] = wgt
        W[index[j], index[i]] = wgt
    g = SocialGraph(weights=W, stubborn=tuple(index[s] for s in stub_labels),
                    labels=labels)
    report = validate_reachability(g)
    if not report.ok:
        raise ReachabilityError(report.message)
    return g


def save_graph(g: SocialGraph, edges_path: str | Path,
               stubborn_path: str | Path | None = None) -> None:
    """Write the canonical edge-list (original labels) and stubborn file."""
    lines = ["# i j w"]
    for i, j in zip(*np.nonzero(np.triu(g.weights))):
        lines.append(f"{g.labels[i]} {g.labels[j]} {g.weights[i, j]:.12g}")
    Path(edges_path).write_text("\n".join(lines) + "\n", encoding="utf-8")
    if stubborn_path is not None:
        stub = "\n".join(str(g.labels[i]) for i in g.stubborn)
        Path(stubborn_path).write_text(stub + "\n", encoding="utf-8")


def _unit_weight_graph(n: int, edges, seed: int, n_stubborn: int) -> SocialGraph:
    """Unit weights on ``edges``; the stubborn nodes are drawn uniformly
    without replacement from a generator seeded with ``seed``."""
    W = np.zeros((n, n))
    for i, j in edges:
        W[i, j] = W[j, i] = 1.0
    rng = np.random.default_rng(seed)
    stub = tuple(sorted(int(i) for i in rng.choice(n, size=n_stubborn, replace=False)))
    return SocialGraph(weights=W, stubborn=stub)


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
    W = np.zeros((n, n))
    for i in range(n):
        j = (i + 1) % n
        W[i, j] = W[j, i] = 1.0
    return SocialGraph(weights=W, stubborn=tuple(range(n_stubborn)))


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
    W = np.zeros((n, n))
    for i in range(1, n):
        j = int(rng.integers(0, i))
        W[i, j] = W[j, i] = rng.uniform(0.5, 2.0)
    for _ in range(n // 2):
        i, j = rng.integers(0, n, size=2)
        if i != j and W[i, j] == 0:
            W[i, j] = W[j, i] = rng.uniform(0.5, 2.0)
    stub = tuple(sorted(int(i) for i in rng.choice(n, size=n_stubborn, replace=False)))
    return SocialGraph(weights=W, stubborn=stub)


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
