import itertools
import math
import warnings
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np
import pytest

from opinionselect import (NoiseModel, SocialGraph, generate_random_reachable,
                           normalize)
from opinionselect.equilibrium import SYMMETRY_TOL, covariance_lyapunov
from opinionselect.errors import NumericalError
from opinionselect.objective import _check_set, _cholesky
from opinionselect.validation import blocks


# ---------------------------------------------------------------------------
# Independent oracles. These deliberately avoid the library's solve paths:
# covariance by truncated series or the guarded direct formula, objective
# values by explicit inverses or from the precision H = C^-1.
# ---------------------------------------------------------------------------

RESIDUAL_TOL = 1e-10


@dataclass(frozen=True)
class ClosedFormResult:
    """Outcome of the fast-path covariance, with its acceptance diagnostics."""

    covariance: np.ndarray      # symmetrized candidate Sigma (I - A^2)^{-1}
    asymmetry: float            # ||cand - cand'||_F / ||cand||_F
    lyapunov_residual: float    # residual of the symmetrized candidate
    symmetric: bool
    accepted: bool


def covariance_closed_form(A: np.ndarray,
                           noise: NoiseModel) -> ClosedFormResult:
    """Fast path Sigma (I - A^2)^{-1}, accepted only when provably consistent.

    Acceptance requires the candidate to be symmetric (relative asymmetry
    below ``SYMMETRY_TOL``) and, after symmetrization, to satisfy the Lyapunov
    equation (relative residual below ``RESIDUAL_TOL``). Symmetry alone is
    not sufficient: with sigma_i^2 proportional to the degree w_i the
    candidate is exactly symmetric yet differs from the true covariance
    whenever A is not symmetric. With sigma_i^2 inversely proportional to
    w_i the true covariance is (I - A^2)^{-1} Sigma, not this candidate,
    which is then asymmetric on irregular graphs and rejected.
    """
    A = np.asarray(A, dtype=float)
    n = A.shape[0]
    Sigma = np.diag(noise.sigma2)
    M = np.eye(n) - A @ A
    try:
        candidate = np.linalg.solve(M.T, Sigma).T  # Sigma (I - A^2)^{-1}
    except np.linalg.LinAlgError as exc:
        raise NumericalError("singular (I - A^2)") from exc
    norm = np.linalg.norm(candidate)
    asym = float(np.linalg.norm(candidate - candidate.T) / norm) if norm else 0.0
    sym = asym <= SYMMETRY_TOL
    C = (candidate + candidate.T) / 2.0
    residual = float(np.linalg.norm(C - A @ C @ A.T - Sigma)
                     / max(np.linalg.norm(C), 1e-300))
    return ClosedFormResult(covariance=C, asymmetry=asym,
                            lyapunov_residual=residual, symmetric=sym,
                            accepted=sym and residual <= RESIDUAL_TOL)


def graph_from_dense(W, stubborn) -> SocialGraph:
    """The graph whose symmetric weight matrix is W, from its upper triangle."""
    W = np.asarray(W, dtype=float)
    i, j = np.nonzero(np.triu(W))
    return SocialGraph(len(W), i, j, W[i, j], stubborn)


def chorded_ring(W: float) -> SocialGraph:
    """A 12-node ring with chords 0-6 (weight 1) and 3-9 (weight 2), and a
    13th node joined to node 4 by weight W and to node 5 by 1; nodes 0 and
    12 are stubborn, so node 4's strength is W + 2 and the others' 2 to 4."""
    i = [*range(12), 0, 3, 4, 12]
    j = [*((k + 1) % 12 for k in range(12)), 6, 9, 12, 5]
    return SocialGraph(13, i, j, [1.0] * 12 + [1.0, 2.0, W, 1.0], [0, 12])


def precision(C: np.ndarray) -> np.ndarray:
    """H = C^{-1} via Cholesky; raises if C is not numerically PD."""
    from scipy.linalg import cho_factor, cho_solve

    C = np.asarray(C, dtype=float)
    try:
        factor = cho_factor(C)
    except np.linalg.LinAlgError as exc:
        raise NumericalError("covariance is not positive definite") from exc
    H = cho_solve(factor, np.eye(C.shape[0]))
    return (H + H.T) / 2.0


def precision_direct(A: np.ndarray, noise: NoiseModel) -> np.ndarray:
    """Direct form (I - A^2) Sigma^{-1}; valid when the closed form is accepted."""
    A = np.asarray(A, dtype=float)
    return (np.eye(A.shape[0]) - A @ A) @ np.diag(1.0 / noise.sigma2)


def g_score(H: np.ndarray, K: Sequence[int]) -> float:
    """Residual variance 1'_{-K} (H_{-K,-K})^-1 1_{-K}, from the precision H.

    Oracle for G = var_y(C) - F(K); the library computes G that way.
    """
    n = H.shape[0]
    K = set(_check_set(K, n))
    comp = [i for i in range(n) if i not in K]
    if not comp:
        return 0.0
    L = _cholesky(H[np.ix_(comp, comp)])
    ones = np.ones(len(comp))
    return float(ones @ np.linalg.solve(L.T, np.linalg.solve(L, ones)))


def series_covariance(A, sigma2, n_terms=None):
    """Partial sum of A^l Sigma A'^l with an explicit geometric tail bound."""
    A = np.asarray(A, float)
    Sigma = np.diag(np.asarray(sigma2, float))
    rho = max(np.abs(np.linalg.eigvals(A))) if A.size else 0.0
    if n_terms is None:
        # tail after L terms is bounded by rho^(2L) / (1 - rho^2) * ||Sigma||
        n_terms = 1 if rho == 0 else int(np.ceil(np.log(1e-16) / (2 * np.log(rho)))) + 1
    C = Sigma.copy()
    Al = A.copy()
    for _ in range(n_terms):
        C = C + Al @ Sigma @ Al.T
        Al = Al @ A
    return C


def naive_f(C, K):
    """Quadratic form through an explicit inverse (oracle path)."""
    K = list(K)
    if not K:
        return 0.0
    v = (C @ np.ones(C.shape[0]))[K]
    return float(v @ np.linalg.inv(C[np.ix_(K, K)]) @ v)


def dense_resolvent(G, a):
    """M1 and diag M of M = (I - aG)^{-1} by an explicit inverse (oracle path)."""
    M = np.linalg.inv(np.eye(G.shape[0]) - a * G)
    return M @ np.ones(G.shape[0]), np.diag(M)


def dense_intercentrality(G, a):
    b, m = dense_resolvent(G, a)
    return b * b / m


def naive_best_subset(C, s):
    best, best_f = None, -np.inf
    for K in itertools.combinations(range(C.shape[0]), s):
        f = naive_f(C, K)
        if f > best_f:
            best, best_f = K, f
    return best, best_f


def random_instance(seed, n=10, n_stubborn=2, heterogeneous=True):
    """(ops, noise, C) for a random connected weighted graph."""
    rng = np.random.default_rng(seed)
    g = generate_random_reachable(n, n_stubborn, seed)
    ops = normalize(g)
    if heterogeneous:
        noise = NoiseModel(rng.uniform(0.5, 2.0, ops.n_regular))
    else:
        noise = NoiseModel.uniform(ops.n_regular, 1.0)
    C = covariance_lyapunov(blocks(ops)[0], noise)
    return ops, noise, C


# ---------------------------------------------------------------------------
# Shared fixtures
# ---------------------------------------------------------------------------

@pytest.fixture(scope="session")
def chain_instance():
    """r0 - r1 - s chain with unit weights (nodes 0, 1 regular, 2 stubborn)."""
    W = np.array([[0., 1., 0.],
                  [1., 0., 1.],
                  [0., 1., 0.]])
    g = graph_from_dense(W, (2,))
    return g, normalize(g)


@pytest.fixture(scope="session")
def ws15_instance():
    """The 15-node small-world instance with 3 stubborn nodes, seed 7."""
    from opinionselect import generate_watts_strogatz
    g = generate_watts_strogatz(15, 4, 0.3, 7, 3)
    ops = normalize(g)
    noise = NoiseModel.uniform(ops.n_regular, 1.0)
    C = covariance_lyapunov(blocks(ops)[0], noise)
    return g, ops, noise, C


class GainCall(NamedTuple):
    """One candidate's entry in a ``selector.marginal_gain`` round: its r, d
    and c_ii, and the gain computed, -inf when the candidate is degenerate."""

    r: float
    d: float
    c: float
    gain: float

    @property
    def degenerate(self) -> bool:
        return self.gain == -math.inf


@pytest.fixture
def gain_calls(monkeypatch):
    """Every ``selector.marginal_gain`` round, in call order: a dict mapping
    each candidate not yet picked, in index order, to its ``GainCall`` (see
    ``gains_by_round``). The spy asserts that a round returns one entry per
    node, -inf for each node already picked."""
    import opinionselect.selector as selector
    rounds = []
    real = selector.marginal_gain

    def spy(r, d, c_diag, taken):
        gains = real(r, d, c_diag, taken)
        assert gains.shape == taken.shape
        assert np.all(gains[taken] == -math.inf)
        rounds.append({i: GainCall(*map(float, (r[i], d[i], c_diag[i],
                                                gains[i])))
                       for i in np.flatnonzero(~taken).tolist()})
        return gains

    monkeypatch.setattr(selector, "marginal_gain", spy)
    return rounds


def gains_by_round(calls, n, chosen):
    """Check the ``gain_calls`` of one greedy run over n candidates that
    picked ``chosen`` and return them: one round per pick, round t holding
    exactly the candidates outside chosen[:t]."""
    assert len(calls) == len(chosen)    # one round function call per pick
    for t, by_candidate in enumerate(calls):
        assert list(by_candidate) == [i for i in range(n)
                                      if i not in chosen[:t]]
    return calls


def scalar_greedy(C, s):
    """Greedy with one Python call per unpicked candidate and round: the
    scalar loop ``greedy_select`` ran before its rounds became one numpy
    vector each, kept as an oracle for its picks, gains, F values, skip
    count and warnings, bit for bit. It states the tie rule itself, in
    scalars: the lowest index whose gain is at or above v - TIE_RTOL |v|,
    v the best; and the warning rule: one per round that skips any
    candidate, giving their count and the round, from 1."""
    from opinionselect.selector import TIE_RTOL, SelectionResult
    from opinionselect.objective import SCHUR_GUARD, var_y

    def gain(r_i, d_i, c_ii):
        # -inf marks a degenerate candidate, skipped
        return -math.inf if d_i <= SCHUR_GUARD * c_ii else r_i * r_i / d_i

    n = C.shape[0]
    r = C @ np.ones(n)
    d = C.diagonal().copy()
    c_diag = d.tolist()
    L = np.empty((s, n))
    taken = [False] * n
    chosen, gains, skipped = [], [], 0
    eval_count = 0
    for t in range(s):
        r_vals, d_vals = r.tolist(), d.tolist()
        eval_count += n - t
        cands = [i for i in range(n) if not taken[i]]
        round_gains = [gain(r_vals[i], d_vals[i], c_diag[i]) for i in cands]
        degenerate = round_gains.count(-math.inf)
        if degenerate:     # one warning per round that skips any
            warnings.warn(f"skipping {degenerate} candidate(s) in round "
                          f"{t + 1}: degenerate Schur complement")
            skipped += degenerate
        top = max(round_gains)
        if top == -math.inf:
            raise NumericalError("all candidates degenerate in this round")
        i, g = next((i, g) for i, g in zip(cands, round_gains)
                    if g >= top - TIE_RTOL * abs(top))
        root = math.sqrt(d_vals[i])
        L[t] = (C[i] - L[:t, i] @ L[:t]) / root
        r -= L[t] * (r_vals[i] / root)
        d -= L[t] * L[t]
        taken[i] = True
        chosen.append(i)
        gains.append(g)
    return SelectionResult(chosen=tuple(chosen), gains=tuple(gains),
                           f_values=(0.0, *itertools.accumulate(gains)),
                           var_y=var_y(C), eval_count=eval_count,
                           method="greedy", skipped=skipped)
