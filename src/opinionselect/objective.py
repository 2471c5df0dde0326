"""Variance-reduction objective F and residual variance G.

All quantities are carried at the unnormalized scale F(K) = (C1)_K' (C_KK)^-1
(C1)_K; dividing by |R|^2 recovers the probabilistic variances but changes no
argmax. F and G always satisfy F(K) + G(K) = 1'C1, so G is read as
``var_y(C)`` - F from C alone; G(K) / |R|^2 is the mean squared error of the
best linear estimate of the mean opinion from X_K. Greedy sums its rounds'
gains and exact selection scores subsets by its own walk; ``f_score`` is the
Cholesky oracle that ``validation``'s suites and the tests check selection
against: F = |L^-1 (C1)_K|^2 for the guarded factor L of C_KK, so no path
needs scipy.
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


def var_y(C: np.ndarray) -> float:
    """Total (unnormalized) variance of the mean opinion: 1'C1."""
    ones = np.ones(C.shape[0])
    return float(ones @ C @ ones)


def f_score(C: np.ndarray, K: Sequence[int]) -> float:
    """Variance reduction from observing K: (C1)_K' (C_KK)^-1 (C1)_K."""
    K = _check_set(K, C.shape[0])
    if not K:
        return 0.0
    # (C1)_K is read from the full product, not summed from the rows C[K]:
    # BLAS sums a block of a few rows in another order, which would move F
    # in its last bits with |K| and the position of each node in K.
    v = (C @ np.ones(C.shape[0])).take(K)
    L = _cholesky(C.take(K, 0).take(K, 1))
    _require_finite(v)
    w = np.linalg.solve(L, v)       # F = |L^-1 v|^2
    return float(w @ w)
