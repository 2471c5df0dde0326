"""Node scoring: single-node variance reduction, eta, Bonacich, intercentrality.

eta, Bonacich and intercentrality are walk-resolvent scores: with
M = (I - aG)^{-1}, Bonacich is b = M1 and intercentrality is b_k^2 / M_kk.
eta is intercentrality of the 2-hop operator A^2 with attenuation 1.

On the regular-block operator A (``--matrix normalized``) they come from the
spectrum ``normalize`` stores: A = D^-1/2 Q diag(lam) Q' D^1/2, so for
f(lam) = 1/(1 - a lam) (or 1/(1 - lam^2) for eta)
f(A) 1 = D^-1/2 Q [f(lam) * Q' D^1/2 1] and diag f(A) = (Q*Q) f(lam), the D
factors cancelling on the diagonal. That is O(n^2), and the walk series
converges iff |a| rho < 1, exact because lam is real. A dense matrix (the 0/1
adjacency of ``--matrix adjacency``, which is not similar to A) takes one
dense solve and a power-iteration check of rho(G).

Rankings are compared by Kendall's tau-b, computed here in O(n log n) with
numpy alone (Knight 1966), so that scoring does not load ``scipy.stats``.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from . import equilibrium
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


def var_reduction_scores(C: np.ndarray) -> NodeScores:
    """Per-node F({k}) = (C1)_k^2 / C_kk."""
    v = C @ np.ones(C.shape[0])
    return NodeScores(scores=v * v / np.diag(C), measure="var_reduction")


def _check_attenuation(a: float, rho: float) -> None:
    """Raise unless the walk series of aG converges, i.e. |a| rho(G) < 1."""
    if not abs(a) * rho < 1.0:
        bound = 1.0 / rho if rho > 0 else np.inf
        raise NumericalError(
            f"attenuation {a} too large: rho(G) = {rho:.6g}, so |a| must be "
            f"below 1/rho(G) = {bound:.6g}")


def _spectral_resolvent(ops: NetworkOperators, a: float, hops: int,
                        diag: bool):
    """(M1, diag M) for M = (I - a A^hops)^{-1} from the stored spectrum of A,
    in O(n^2) (see the module docstring); diag M is None unless asked."""
    _check_attenuation(a, ops.rho ** hops)
    f = 1.0 / (1.0 - a * ops.eigvals ** hops)
    Q = ops.eigvecs
    sqrt_d = np.sqrt(ops.w)
    b = Q @ (f * (sqrt_d @ Q)) / sqrt_d
    return b, (Q * Q) @ f if diag else None


def _resolvent(G, a: float, diag: bool = True):
    """(M1, diag M) for M = (I - aG)^{-1}; diag M is None unless asked.

    ``G`` is either the stored spectrum of A (``NetworkOperators``) or a
    dense matrix (one solve, O(n^3); it solves for 1 alone when the diagonal
    is not asked for).
    """
    if isinstance(G, NetworkOperators):
        return _spectral_resolvent(G, a, 1, diag)
    G = np.asarray(G, float)
    n = G.shape[0]
    _check_attenuation(a, equilibrium.spectral_radius(G))
    if not diag:
        return np.linalg.solve(np.eye(n) - a * G, np.ones(n)), None
    M = np.linalg.solve(np.eye(n) - a * G, np.eye(n))
    return M @ np.ones(n), np.diag(M)


def eta_scores(ops: NetworkOperators) -> NodeScores:
    """eta_k = ((I - A^2)^{-1} 1)_k^2 / ((I - A^2)^{-1})_kk."""
    b, m = _spectral_resolvent(ops, 1.0, 2, diag=True)
    return NodeScores(scores=b * b / m, measure="eta")


def bonacich(G, a: float) -> NodeScores:
    """Walk-counting centrality b = (I - aG)^{-1} 1.

    ``G`` is the ``NetworkOperators`` of A (spectral) or a dense matrix.
    """
    b, _ = _resolvent(G, a, diag=False)
    return NodeScores(scores=b, measure="bonacich")


def intercentrality(G, a: float) -> NodeScores:
    """Key-player score c_k = b_k^2 / M_kk with M = (I - aG)^{-1}.

    ``G`` is the ``NetworkOperators`` of A (spectral) or a dense matrix.
    """
    b, m = _resolvent(G, a)
    return NodeScores(scores=b * b / m, measure="intercentrality")


def _dense_ranks(a: np.ndarray) -> np.ndarray:
    """Ranks 0, 1, ... of the distinct values of a, equal values sharing one."""
    order = np.argsort(a, kind="stable")
    s = a[order]
    ranks = np.empty(a.size, dtype=np.intp)
    ranks[order] = np.cumsum(np.r_[False, s[1:] != s[:-1]])
    return ranks


def _tied_pairs(sorted_keys: np.ndarray) -> int:
    """Pairs sharing a value, given the values in sorted order."""
    bounds = np.flatnonzero(np.r_[True, sorted_keys[1:] != sorted_keys[:-1], True])
    runs = np.diff(bounds).astype(np.int64)
    return int((runs * (runs - 1) // 2).sum())


def _inversions(a: np.ndarray) -> int:
    """Pairs i < j with a[i] > a[j] in an array of nonnegative integers.

    Bottom-up merge sort: at width w the array is a run of sorted blocks of
    length w. Each block pair gets its own value range (offset p * stride), so
    one searchsorted over all left blocks counts, for every right entry, the
    left entries not above it, and gives its place in the merged block.
    """
    size = 1 << max(a.size - 1, 0).bit_length()
    stride = int(a.max()) + 2 if a.size else 1
    # padding sits at the end and above every value: it adds no inversion
    a = np.concatenate([a, np.full(size - a.size, stride - 1, dtype=a.dtype)])
    inversions = 0
    width = 1
    while width < size:
        pairs = size // (2 * width)
        offset = np.repeat(np.arange(pairs) * stride, width)
        blocks = a.reshape(pairs, 2, width)
        left = blocks[:, 0].ravel() + offset
        right = blocks[:, 1].ravel() + offset
        start = np.repeat(np.arange(pairs) * width, width)
        left_le = np.searchsorted(left, right, side="right") - start
        right_lt = np.searchsorted(right, left, side="left") - start
        inversions += int(right.size * width - left_le.sum())
        local = np.tile(np.arange(width), pairs)
        merged = np.empty_like(a)
        merged[2 * start + local + right_lt] = blocks[:, 0].ravel()
        merged[2 * start + local + left_le] = blocks[:, 1].ravel()
        a = merged
        width *= 2
    return inversions


def kendall_tau_b(x, y) -> float:
    """Kendall's tau-b of two equal-length vectors, in O(n log n).

    Knight's (1966) method: sort the pairs by (x, y), count the tied pairs
    from run lengths and the discordant pairs as the inversions of y in that
    order. NaN when either vector is constant, shorter than 2 or holds a NaN.
    """
    x = np.asarray(x, dtype=float).ravel()
    y = np.asarray(y, dtype=float).ravel()
    if x.size != y.size:
        raise ValueError("Kendall tau needs vectors of equal length")
    n = x.size
    tot = n * (n - 1) // 2
    if n < 2 or np.isnan(x).any() or np.isnan(y).any():
        return float("nan")
    rx, ry = _dense_ranks(x), _dense_ranks(y)
    order = np.lexsort((ry, rx))
    rx, ry = rx[order], ry[order]
    x_tie = _tied_pairs(rx)
    y_tie = _tied_pairs(np.sort(ry))
    if x_tie == tot or y_tie == tot:
        return float("nan")
    joint_tie = _tied_pairs(rx * (int(ry.max()) + 1) + ry)
    con_minus_dis = tot - x_tie - y_tie + joint_tie - 2 * _inversions(ry)
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
