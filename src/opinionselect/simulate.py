"""Monte Carlo simulation of the noisy dynamics, used as a statistical oracle.

Replicas start at the equilibrium mean and are stepped past a burn-in horizon
chosen from the spectral radius, so the collected final states are draws from
(numerically) the stationary distribution.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .equilibrium import NoiseModel, mean
from .graph import NetworkOperators

NOISE_FAMILIES = ("gaussian", "uniform", "rademacher")

HORIZON_CAP = 10 ** 6


@dataclass(frozen=True)
class SimConfig:
    replicas: int
    seed: int
    u: np.ndarray
    noise_family: str = "gaussian"

    def __post_init__(self):
        if self.replicas < 1:
            raise ValueError("replicas must be >= 1")
        if self.noise_family not in NOISE_FAMILIES:
            raise ValueError(f"unknown noise family {self.noise_family!r}")
        object.__setattr__(self, "u", np.asarray(self.u, dtype=float))


def horizon_for(rho: float, tol: float) -> int:
    """Smallest T with rho^T <= tol; with rho = rho(A) the transient decays
    at that rate."""
    if not (0.0 <= rho < 1.0):
        raise ValueError("need 0 <= rho < 1")
    if rho == 0.0 or tol >= 1.0:
        return 1
    T = math.ceil(math.log(tol) / math.log(rho))
    if T > HORIZON_CAP:
        warnings.warn(f"burn-in horizon {T} capped at {HORIZON_CAP}")
        return HORIZON_CAP
    return max(1, T)


def _draw_noise(rng: np.random.Generator, family: str, sigma: np.ndarray,
                shape: tuple[int, int]) -> np.ndarray:
    # each family is zero mean with per-coordinate std exactly sigma
    if family == "gaussian":
        return rng.standard_normal(shape) * sigma
    if family == "uniform":
        half = sigma * math.sqrt(3.0)
        return rng.uniform(-1.0, 1.0, shape) * half
    if family == "rademacher":
        return (2.0 * rng.integers(0, 2, shape) - 1.0) * sigma
    raise ValueError(f"unknown noise family {family!r}")


def simulate(ops: NetworkOperators, noise: NoiseModel | np.ndarray,
             cfg: SimConfig) -> np.ndarray:
    """Run independent replicas and return their final states (replicas x R).

    Accepts a raw variance vector (zeros allowed) so the noiseless fixed point
    can be exercised; NoiseModel itself requires strictly positive variances.
    """
    sigma2 = noise.sigma2 if isinstance(noise, NoiseModel) else \
        np.asarray(noise, dtype=float)
    if not np.all(np.isfinite(sigma2) & (sigma2 >= 0)):
        raise ValueError("variances must be finite and nonnegative")
    if sigma2.shape != (ops.n_regular,):
        raise ValueError("variance vector must cover the regular nodes")
    sigma = np.sqrt(sigma2)
    mu = mean(ops, cfg.u)
    T = horizon_for(ops.rho, 1e-8)
    A_T = ops.A.T
    drift = ops.B @ cfg.u
    rng = np.random.default_rng(cfg.seed)
    X = np.tile(mu, (cfg.replicas, 1))
    for _ in range(T):
        V = _draw_noise(rng, cfg.noise_family, sigma, X.shape)
        X = X @ A_T + drift + V
    return X


@dataclass(frozen=True)
class EmpiricalMoments:
    mean: np.ndarray
    cov: np.ndarray
    se_mean: np.ndarray
    se_cov: np.ndarray


def empirical_moments(samples: np.ndarray) -> EmpiricalMoments:
    """Unbiased sample mean/covariance with entrywise standard errors.

    Covariance standard errors use the Gaussian formula
    sqrt((C_ii C_jj + C_ij^2) / (m - 1)); it is conservative for the
    lighter-tailed uniform and rademacher families.
    """
    samples = np.asarray(samples, dtype=float)
    m = samples.shape[0]
    if m < 2:
        raise ValueError("need at least two replicas")
    mu = samples.mean(axis=0)
    cov = np.cov(samples, rowvar=False, ddof=1)
    cov = np.atleast_2d(cov)
    d = np.diag(cov)
    se_mean = np.sqrt(d / m)
    se_cov = np.sqrt((np.outer(d, d) + cov ** 2) / (m - 1))
    return EmpiricalMoments(mean=mu, cov=cov, se_mean=se_mean, se_cov=se_cov)
