"""Equilibrium mean and covariance of the noisy averaging dynamics.

``mean`` solves for the equilibrium mean; ``moments`` returns the covariance
alone, because the objective and every score read C and never the mean.
The covariance is defined by the discrete-time Lyapunov equation
C = A C A' + Sigma. ``moments`` solves it exactly from the eigendecomposition
that ``normalize`` stores: A = D^-1/2 S D^1/2 with S = Q diag(lam) Q'
symmetric, so C = D^-1/2 Q [Q' (D Sigma) Q / (1 - lam lam')] Q' D^-1/2.
The doubling solver ``covariance_lyapunov`` and the guarded direct formula
``covariance_closed_form`` stay as independent oracles for the tests.

The direct formula Sigma (I - A^2)^{-1} is only trusted when it is both
symmetric and an actual solution of the Lyapunov equation; on graphs with
heterogeneous degrees it generally is not, even when it happens to be
symmetric (see README notes on the closed-form regime). When A Sigma is
symmetric, for example with noise inversely proportional to degree, the exact
direct form is the other ordering, (I - A^2)^{-1} Sigma; ``moments`` tags that
regime "closed-form".
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from .errors import NumericalError
from .graph import NetworkOperators

SYMMETRY_TOL = 1e-10
RESIDUAL_TOL = 1e-10


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

    @property
    def matrix(self) -> np.ndarray:
        return np.diag(self.sigma2)


@dataclass(frozen=True)
class ClosedFormResult:
    """Outcome of the fast-path covariance, with its acceptance diagnostics."""

    covariance: np.ndarray      # symmetrized candidate Sigma (I - A^2)^{-1}
    asymmetry: float            # ||cand - cand'||_F / ||cand||_F
    lyapunov_residual: float    # residual of the symmetrized candidate
    symmetric: bool
    accepted: bool


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


def spectral_radius(A: np.ndarray, max_iter: int = 5000) -> float:
    """Dominant eigenvalue modulus via power iteration, eigensolve fallback."""
    A = np.asarray(A, dtype=float)
    n = A.shape[0]
    if n == 0:
        return 0.0
    x = np.ones(n) / np.sqrt(n)
    lam = 0.0
    for _ in range(max_iter):
        y = A @ x
        lam_new = float(np.linalg.norm(y))
        if lam_new < 1e-300:
            return 0.0
        x = y / lam_new
        if abs(lam_new - lam) <= 1e-10 * max(1.0, lam_new):
            return lam_new
        lam = lam_new
    return float(np.max(np.abs(np.linalg.eigvals(A))))


def mean(ops: NetworkOperators, u: np.ndarray) -> np.ndarray:
    """Equilibrium mean of the regular agents: solve (I - A) mu = B u."""
    u = np.asarray(u, dtype=float)
    if u.shape != (len(ops.stubborn),):
        raise ValueError("u must have one entry per stubborn node")
    n = ops.A.shape[0]
    try:
        return np.linalg.solve(np.eye(n) - ops.A, ops.B @ u)
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


def precision(C: np.ndarray) -> np.ndarray:
    """H = C^{-1} via Cholesky; raises if C is not numerically PD."""
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


def moments(ops: NetworkOperators, noise: NoiseModel) -> EquilibriumMoments:
    """Equilibrium covariance from the spectrum of ``ops``, with its regime tag."""
    if len(noise.sigma2) != ops.n_regular:
        raise ValueError("noise model size must equal the number of regular nodes")
    lam, Q = ops.eigvals, ops.eigvecs
    noise_t = (Q.T * (ops.w * noise.sigma2)) @ Q    # Q' (D Sigma) Q
    X = Q @ (noise_t / (1.0 - np.outer(lam, lam))) @ Q.T
    scale = 1.0 / np.sqrt(ops.w)
    C = scale[:, None] * X * scale[None, :]
    C = (C + C.T) / 2.0
    A_sigma = ops.A * noise.sigma2[None, :]
    asym = np.linalg.norm(A_sigma - A_sigma.T)
    method = ("closed-form"
              if asym <= SYMMETRY_TOL * np.linalg.norm(A_sigma)
              else "lyapunov")
    return EquilibriumMoments(C=C, method_tag=method)
