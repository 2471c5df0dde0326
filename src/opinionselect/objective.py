"""Variance-reduction objective F, residual variance G and the linear estimator.

All quantities are carried at the unnormalized scale F(K) = (C1)_K' (C_KK)^-1
(C1)_K; dividing by |R|^2 recovers the probabilistic variances but changes no
argmax. F and G always satisfy F(K) + G(K) = 1'C1, so G is read as
``var_y(C)`` - F from C alone. Greedy sums its rounds' gains and exact
selection scores subsets by its own walk; ``f_score`` is the Cholesky oracle
that ``validation``'s suites and the tests check selection against.

``f_score`` and the estimator share ``_factor``: (C1)_K, checked finite, and
numpy's Cholesky factor L of C_KK, between a finiteness check that LAPACK
does not make and a degenerate-pivot check. F is |L^-1 (C1)_K|^2 and the
estimator solves L'(L^-1 (C1)_K / n), so no path needs scipy.
"""

from __future__ import annotations

import operator
from typing import Sequence

import numpy as np

from .errors import NumericalError

SCHUR_GUARD = 1e-12


def _check_set(K: Sequence[int], n: int) -> list[int]:
    try:
        members = list(map(operator.index, K))
    except TypeError:
        raise ValueError("observation set members must be integers") from None
    if len(set(members)) != len(members):
        raise ValueError("observation set contains duplicates")
    if members and (min(members) < 0 or max(members) >= n):
        raise ValueError("observation set member out of range")
    return members


def _require_finite(M: np.ndarray) -> None:
    # LAPACK does not check its inputs: NaN passes through a factorization
    if not np.isfinite(M).all():
        raise ValueError("array must not contain infs or NaNs")


def _cholesky(M: np.ndarray) -> np.ndarray:
    """The lower Cholesky factor of a symmetric positive definite block M.

    The squared pivot L_jj^2 is the Schur complement of the j-th index given
    those before it; as in selection, one at or below SCHUR_GUARD * M_jj
    counts as singular. Rounding leaves a tiny positive pivot on some exactly
    singular blocks, and a solve is garbage there.
    """
    _require_finite(M)
    try:
        L = np.linalg.cholesky(M)
        if (np.diagonal(L) ** 2 > SCHUR_GUARD * np.diagonal(M)).all():
            return L
    except np.linalg.LinAlgError:
        pass
    raise NumericalError("principal submatrix not positive definite")


def _factor(C: np.ndarray, K: list[int]) -> tuple[np.ndarray, np.ndarray]:
    """(C1)_K and the ``_cholesky`` factor L of C_KK, (C1)_K checked finite."""
    # (C1)_K is read from the full product, not summed from the rows C[K]:
    # BLAS sums a block of a few rows in another order, which would move F
    # in its last bits with |K| and the position of each node in K.
    v = (C @ np.ones(C.shape[0])).take(K)
    L = _cholesky(C.take(K, 0).take(K, 1))
    _require_finite(v)
    return v, L


def var_y(C: np.ndarray) -> float:
    """Total (unnormalized) variance of the mean opinion: 1'C1."""
    ones = np.ones(C.shape[0])
    return float(ones @ C @ ones)


def f_score(C: np.ndarray, K: Sequence[int]) -> float:
    """Variance reduction from observing K: (C1)_K' (C_KK)^-1 (C1)_K."""
    K = _check_set(K, C.shape[0])
    if not K:
        return 0.0
    v, L = _factor(C, K)
    w = np.linalg.solve(L, v)       # F = |L^-1 v|^2
    return float(w @ w)


def estimator_coefficients(C: np.ndarray, K: Sequence[int],
                           mu: np.ndarray | None = None
                           ) -> tuple[np.ndarray, float]:
    """Optimal linear predictor of the mean opinion from the observations X_K.

    Returns (alpha_K, intercept) with alpha solving C_KK a = (C1/n)_K and the
    intercept chosen so the predictor is unbiased when the mean mu is nonzero.
    """
    n = C.shape[0]
    K = _check_set(K, n)
    mu = np.zeros(n) if mu is None else np.asarray(mu, dtype=float)
    if mu.shape != (n,):
        raise ValueError(f"mu has shape {mu.shape}; it needs one entry per "
                         f"regular node, ({n},)")
    ybar = float(np.sum(mu)) / n
    if not K:
        return np.zeros(0), ybar
    c1, L = _factor(C, K)
    alpha = np.linalg.solve(L.T, np.linalg.solve(L, c1 / n))
    intercept = ybar - float(alpha @ mu[K])
    return alpha, intercept
