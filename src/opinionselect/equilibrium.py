"""Equilibrium mean and covariance of the noisy averaging dynamics.

``mean`` solves for the equilibrium mean; ``moments`` returns the covariance
alone, because the objective and every score read C and never the mean.
The covariance is defined by the discrete-time Lyapunov equation
C = A C A' + Sigma. ``moments`` is its one exact path, from the
eigendecomposition that ``normalize`` stores: A = D^-1/2 S D^1/2 with
S = Q diag(lam) Q' symmetric, so
C = D^-1/2 Q [Q' (D Sigma) Q / (1 - lam lam')] Q' D^-1/2.
It reuses its buffers and frees each temporary once read, so it holds
about 2 n^2 floats above W and Q, the returned C included (2.1 n^2 traced
on 400 regular nodes; the tests hold it to 2.5 n^2).

When A Sigma is symmetric, for example with noise inversely proportional to
degree, C also equals (I - A^2)^{-1} Sigma exactly; ``moments`` tags that
regime "closed-form", from the regular-regular edges alone, and "lyapunov"
otherwise. The tag names the regime, not a second solver: C comes from the
spectrum either way.

``covariance_lyapunov``, the squaring-doubling solver on ``ops.A`` (formed
from the weights, not from the spectrum), is an independent oracle that the
benchmark's reference set-up and the tests import; no command calls it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalError
from .graph import NetworkOperators

SYMMETRY_TOL = 1e-10


@dataclass(frozen=True)
class NoiseModel:
    """Per-regular-agent noise variances (diagonal of Sigma)."""

    sigma2: np.ndarray

    def __post_init__(self):
        s = np.asarray(self.sigma2, dtype=float)
        if s.ndim != 1:
            raise ValueError("sigma2 must be a vector")
        if not np.all(np.isfinite(s) & (s > 0)):
            raise ValueError("all noise variances must be finite and positive")
        s.setflags(write=False)
        object.__setattr__(self, "sigma2", s)

    @classmethod
    def uniform(cls, n: int, value: float = 1.0) -> "NoiseModel":
        return cls(np.full(n, float(value)))


@dataclass(frozen=True)
class EquilibriumMoments:
    """Equilibrium covariance, with the regime ``C`` falls in.

    ``method_tag`` is "closed-form" when A Sigma is symmetric (relative
    asymmetry at most ``SYMMETRY_TOL``), the regime where
    C = (I - A^2)^{-1} Sigma holds exactly, and "lyapunov" otherwise.
    ``C`` comes from the same spectral solve either way.
    """

    C: np.ndarray
    method_tag: str  # "lyapunov" or "closed-form"


def mean(ops: NetworkOperators, u: np.ndarray) -> np.ndarray:
    """Equilibrium mean of the regular agents: solve (I - A) mu = B u."""
    u = np.asarray(u, dtype=float)
    if u.shape != (len(ops.stubborn),):
        raise ValueError("u must have one entry per stubborn node")
    try:
        return np.linalg.solve(np.eye(ops.n_regular) - ops.A, ops.B @ u)
    except np.linalg.LinAlgError as exc:
        raise NumericalError("singular (I - A): reachability violated") from exc


def covariance_lyapunov(A: np.ndarray, noise: NoiseModel) -> np.ndarray:
    """Solve C = A C A' + Sigma by squaring-doubling; output is symmetrized.

    Stops once a doubling step adds at most 1e-12 of ||C||_F, and gives up
    after 200 steps.
    """
    A = np.asarray(A, dtype=float)
    C = np.diag(noise.sigma2).astype(float)
    Ak = A.copy()
    for _ in range(200):
        inc = Ak @ C @ Ak.T
        C = C + inc
        if np.linalg.norm(inc) <= 1e-12 * np.linalg.norm(C):
            return (C + C.T) / 2.0
        Ak = Ak @ Ak
    raise NumericalError(
        "Lyapunov doubling did not converge; spectral radius of A is likely ~1")


def moments(ops: NetworkOperators, noise: NoiseModel) -> EquilibriumMoments:
    """Equilibrium covariance from the spectrum of ``ops``, with its regime tag."""
    if len(noise.sigma2) != ops.n_regular:
        raise ValueError("noise model size must equal the number of regular nodes")
    lam, Q = ops.eigvals, ops.eigvecs
    # each step reuses or replaces X, so at most two n^2 arrays are alive
    X = (Q.T * (ops.w * noise.sigma2)) @ Q          # Q' (D Sigma) Q
    denom = np.multiply.outer(lam, -lam)
    denom += 1.0                                    # 1 - lam lam'
    X /= denom
    del denom
    X = Q @ X
    X = X @ Q.T
    scale = 1.0 / np.sqrt(ops.w)
    X *= scale[:, None]
    X *= scale
    C = X + X.T
    C *= 0.5
    # relative Frobenius asymmetry of A Sigma, whose entries
    # (A Sigma)_ij = W_ij / w_i * sigma_j^2 sit on the regular-regular edges
    W = ops.graph.weights
    pos = np.full(len(W), -1)
    pos[list(ops.regular)] = np.arange(ops.n_regular)
    src, dst = np.nonzero(W)
    edge = (pos[src] >= 0) & (pos[dst] >= 0)
    i, j, wgt = pos[src[edge]], pos[dst[edge]], W[src[edge], dst[edge]]
    a_sigma = wgt / ops.w[i] * noise.sigma2[j]
    asym = np.linalg.norm(a_sigma - wgt / ops.w[j] * noise.sigma2[i])
    method = ("closed-form"
              if asym <= SYMMETRY_TOL * np.linalg.norm(a_sigma)
              else "lyapunov")
    return EquilibriumMoments(C=C, method_tag=method)
