"""Variance-reduction objective F, residual variance G and the linear estimator.

All quantities are carried at the unnormalized scale F(K) = (C1)_K' (C_KK)^-1
(C1)_K; dividing by |R|^2 recovers the probabilistic variances but changes no
argmax. F and G always satisfy F(K) + G(K) = 1'C1, so the library reads G as
``var_y(C)`` - F from C alone; ``g_score``, from the precision H = C^-1, is
the oracle the tests hold that identity against.

Every F, G and estimator evaluation ends in one small symmetric positive
definite solve, a single LAPACK ``dposv`` call (Cholesky factor and both
triangular solves) between a finiteness check that LAPACK does not make and
a degenerate-pivot check. Per subset, exact selection pays that call, the
product C1 and a gather of C_KK.
"""

from __future__ import annotations

import operator
from typing import Sequence

import numpy as np
from scipy.linalg.lapack import dposv

from .errors import NumericalError

SCHUR_GUARD = 1e-12


def _check_set(K: Sequence[int], n: int) -> list[int]:
    try:
        members = [operator.index(i) for i in K]
    except TypeError:
        raise ValueError("observation set members must be integers") from None
    if len(set(members)) != len(members):
        raise ValueError("observation set contains duplicates")
    if any(i < 0 or i >= n for i in members):
        raise ValueError("observation set member out of range")
    return members


def _spd_solve(M: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """x with M x = rhs for a symmetric positive definite block M.

    The squared Cholesky pivot U_jj^2 is the Schur complement of the j-th
    index given those before it; as in greedy selection, one at or below
    SCHUR_GUARD * M_jj counts as singular. Rounding leaves a tiny positive
    pivot on some exactly singular blocks, and the solve is garbage there.
    """
    # LAPACK does not check its inputs: NaN passes through with info == 0
    if not (np.isfinite(M).all() and np.isfinite(rhs).all()):
        raise ValueError("array must not contain infs or NaNs")
    U, x, info = dposv(M, rhs)
    # a Python loop: on blocks of a few nodes it beats four NumPy calls
    if info != 0 or any(u * u <= SCHUR_GUARD * m for u, m in
                        zip(U.diagonal().tolist(), M.diagonal().tolist())):
        raise NumericalError("principal submatrix not positive definite")
    return x


def _gather(C: np.ndarray, K: list[int]) -> tuple[np.ndarray, np.ndarray]:
    """(C1)_K and C_KK."""
    # (C1)_K is read from the full product, not summed from the rows C[K]:
    # BLAS sums a block of a few rows in another order, which would move F
    # in its last bits with |K| and the position of each node in K.
    return (C @ np.ones(C.shape[0])).take(K), C.take(K, 0).take(K, 1)


def var_y(C: np.ndarray) -> float:
    """Total (unnormalized) variance of the mean opinion: 1'C1."""
    ones = np.ones(C.shape[0])
    return float(ones @ C @ ones)


def f_score(C: np.ndarray, K: Sequence[int]) -> float:
    """Variance reduction from observing K: (C1)_K' (C_KK)^-1 (C1)_K."""
    K = _check_set(K, C.shape[0])
    if not K:
        return 0.0
    v, CKK = _gather(C, K)
    return float(v @ _spd_solve(CKK, v))


def g_score(H: np.ndarray, K: Sequence[int]) -> float:
    """Residual variance 1'_{-K} (H_{-K,-K})^-1 1_{-K}, from the precision H.

    Oracle for G = var_y(C) - F(K); the library computes G that way.
    """
    n = H.shape[0]
    K = set(_check_set(K, n))
    comp = [i for i in range(n) if i not in K]
    if not comp:
        return 0.0
    Hcc = H[np.ix_(comp, comp)]
    ones = np.ones(len(comp))
    return float(ones @ _spd_solve(Hcc, ones))


def estimator_coefficients(C: np.ndarray, K: Sequence[int],
                           mu: np.ndarray | None = None
                           ) -> tuple[np.ndarray, float]:
    """Optimal linear predictor of the mean opinion from the observations X_K.

    Returns (alpha_K, intercept) with alpha solving C_KK a = (C1/n)_K and the
    intercept chosen so the predictor is unbiased when the mean mu is nonzero.
    """
    n = C.shape[0]
    K = _check_set(K, n)
    if mu is None:
        mu = np.zeros(n)
    ybar = float(np.sum(mu)) / n
    if not K:
        return np.zeros(0), ybar
    c1, CKK = _gather(C, K)
    alpha = _spd_solve(CKK, c1 / n)
    intercept = ybar - float(alpha @ np.asarray(mu)[K])
    return alpha, intercept
