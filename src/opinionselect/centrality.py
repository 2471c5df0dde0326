"""Node scoring: single-node variance reduction, eta, Bonacich, intercentrality.

eta, Bonacich and intercentrality are walk-resolvent scores: with
M = (I - aG)^{-1}, Bonacich is b = M1 and intercentrality is b_k^2 / M_kk.
eta is intercentrality of the 2-hop operator A^2 with attenuation 1.

Both score matrices are G = D^-1/2 Q diag(lam) Q' D^1/2 with Q orthonormal:
A (``--matrix normalized``) with the spectrum ``normalize`` stores, and a
symmetric dense matrix (``--matrix adjacency``) with ``spectrum``'s, D = I.
For f(lam) = 1/(1 - a lam) (or 1/(1 - lam^2), eta), f(G) 1 =
D^-1/2 Q [f(lam) * Q' D^1/2 1] and diag f(G) = (Q*Q) f(lam), the D factors
cancelling on the diagonal: O(n^2) once the spectrum is known. The walk
series converges iff |a| rho < 1, exact because lam is real.

Rankings are compared by Kendall's tau-b (Knight 1966), counted here with
``np.unique`` and the standard library's ``bisect``, so that scoring does not
load ``scipy.stats``.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .errors import NumericalError
from .graph import NetworkOperators

MEASURES = ("var_reduction", "eta", "bonacich", "intercentrality")


@dataclass(frozen=True)
class NodeScores:
    scores: np.ndarray
    measure: str

    @property
    def normalized(self) -> np.ndarray:
        m = float(np.max(self.scores))
        return self.scores / m if m > 0 else np.zeros_like(self.scores)

    @property
    def argmax(self) -> int:
        return int(np.argmax(self.scores))


def var_reduction_scores(C) -> NodeScores:
    """Per-node F({k}) = (C1)_k^2 / C_kk.

    ``C`` is read only through ``C @ 1`` and ``C.diagonal()``, so it may be
    the dense covariance or the ``EquilibriumMoments`` operator.
    ``NumericalError`` when a score is not finite: (C1)_k^2 overflowed.
    """
    d = C.diagonal()
    v = C @ np.ones(len(d))
    with np.errstate(over="ignore"):
        scores = v * v / d
    if not np.isfinite(scores).all():
        raise NumericalError("a var_reduction score overflowed float64; "
                             "rescale C")
    return NodeScores(scores=scores, measure="var_reduction")


def spectrum(G) -> NetworkOperators:
    """The spectrum of a symmetric dense score matrix G, with D = I: unit
    strengths and no ``graph``."""
    G = np.asarray(G, float)
    if not np.array_equal(G, G.T):
        raise ValueError("a dense score matrix must be symmetric")
    lam, Q = np.linalg.eigh(G)
    return NetworkOperators(graph=None, w=np.ones(len(lam)),
                            rho=float(np.max(np.abs(lam), initial=0.0)),
                            eigvals=lam, eigvecs=Q)


def _resolvent(G, a: float, hops: int = 1, diagonal: bool = True):
    """(M1, diag M) for M = (I - a G^hops)^{-1} in O(n^2) from a spectrum: the
    one a ``NetworkOperators`` stores, or ``spectrum`` of a symmetric dense
    matrix (see the module docstring). diag M is None unless ``diagonal``."""
    if not isinstance(G, NetworkOperators):
        G = spectrum(G)
    lam, Q, sqrt_d = G.eigvals, G.eigvecs, np.sqrt(G.w)
    rho = G.rho ** hops
    if not abs(a) * rho < 1.0:     # the walk series of aG diverges
        bound = 1.0 / rho if rho > 0 else np.inf
        raise NumericalError(
            f"attenuation {a} too large: rho(G) = {rho:.6g}, so |a| must be "
            f"below 1/rho(G) = {bound:.6g}")
    f = 1.0 / (1.0 - a * lam ** hops)
    return (Q @ (f * (sqrt_d @ Q)) / sqrt_d,
            (Q * Q) @ f if diagonal else None)


def eta_scores(ops: NetworkOperators) -> NodeScores:
    """eta_k = ((I - A^2)^{-1} 1)_k^2 / ((I - A^2)^{-1})_kk."""
    b, m = _resolvent(ops, 1.0, hops=2)
    return NodeScores(scores=b * b / m, measure="eta")


def bonacich(G, a: float) -> NodeScores:
    """Walk-counting centrality b = (I - aG)^{-1} 1.

    ``G`` is a ``NetworkOperators`` or a symmetric dense matrix.
    """
    b, _ = _resolvent(G, a, diagonal=False)
    return NodeScores(scores=b, measure="bonacich")


def intercentrality(G, a: float) -> NodeScores:
    """Key-player score c_k = b_k^2 / M_kk with M = (I - aG)^{-1}.

    ``G`` is a ``NetworkOperators`` or a symmetric dense matrix.
    """
    b, m = _resolvent(G, a)
    return NodeScores(scores=b * b / m, measure="intercentrality")


def _ranks_and_ties(a: np.ndarray) -> tuple[np.ndarray, int]:
    """Dense ranks 0, 1, ... of a (equal values sharing one) and the number
    of pairs sharing a value."""
    _, ranks, counts = np.unique(a, return_inverse=True, return_counts=True)
    counts = counts.astype(np.int64)
    return ranks, int((counts * (counts - 1) // 2).sum())


def kendall_tau_b(x, y) -> float:
    """Kendall's tau-b of two equal-length vectors.

    Knight's (1966) method: count the tied pairs of x, of y and of (x, y)
    with ``np.unique``, sort the pairs by (x, y), and count the discordant
    pairs by placing each y rank among the earlier ones with ``bisect``.
    The ``list.insert`` moves up to n pointers, so a call costs about n^2/4
    pointer moves: negligible at any n where a dense n x n covariance fits
    in memory. NaN when either vector is constant, shorter than 2 or holds
    a NaN.
    """
    x = np.asarray(x, dtype=float).ravel()
    y = np.asarray(y, dtype=float).ravel()
    if x.size != y.size:
        raise ValueError("Kendall tau needs vectors of equal length")
    n = x.size
    tot = n * (n - 1) // 2
    if n < 2 or np.isnan(x).any() or np.isnan(y).any():
        return float("nan")
    rx, x_tie = _ranks_and_ties(x)
    ry, y_tie = _ranks_and_ties(y)
    if x_tie == tot or y_tie == tot:
        return float("nan")
    _, joint_tie = _ranks_and_ties(rx * (int(ry.max()) + 1) + ry)
    # in (x, y) order, an earlier pair with a larger y rank is discordant
    discordant = 0
    seen: list[int] = []
    for i, r in enumerate(ry[np.lexsort((ry, rx))].tolist()):
        k = bisect_right(seen, r)
        discordant += i - k
        seen.insert(k, r)
    con_minus_dis = tot - x_tie - y_tie + joint_tie - 2 * discordant
    tau = con_minus_dis / np.sqrt(tot - x_tie) / np.sqrt(tot - y_tie)
    return float(min(1.0, max(-1.0, tau)))


@dataclass(frozen=True)
class RankingReport:
    argmax: dict[str, int]
    kendall_tau: dict[tuple[str, str], float]


def ranking_report(scores: list[NodeScores]) -> RankingReport:
    """Per-measure argmax and pairwise Kendall tau-b (NaN for a pair where
    either vector is constant)."""
    sizes = {len(s.scores) for s in scores}
    if len(sizes) != 1:
        raise ValueError("score vectors cover different node sets")
    taus = {}
    for s1, s2 in combinations(scores, 2):
        taus[(s1.measure, s2.measure)] = kendall_tau_b(s1.scores, s2.scores)
    return RankingReport(argmax={s.measure: s.argmax for s in scores},
                         kendall_tau=taus)
