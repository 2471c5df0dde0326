"""Equilibrium covariance of the noisy averaging dynamics.

The objective and every score read the covariance C alone, never the
mean. C solves the discrete-time Lyapunov equation C = A C A' + Sigma;
``moments`` is its one exact path, from the eigendecomposition that
``normalize`` stores: A = D^-1/2 S D^1/2 with S = Q diag(lam) Q' symmetric,
so C = D^-1/2 Q M Q' D^-1/2 with M = Q' (D Sigma) Q / (1 - lam lam').
It returns C as an operator holding P = Q M and D^-1/2: C v, diag C and
one row of C cost O(n^2), which is all that greedy selection and the
variance-reduction score read, and the dense C is formed only when read, as
P Q' scaled and symmetrized in place. That holds about 2 n^2 floats above Q,
P and C included (2.1 n^2 traced on 400 regular nodes; the tests hold
it to 2.5 n^2).

When t = D Sigma is constant bit for bit (uniform noise on degree-regular
graphs, or noise inversely proportional to strength), Q' (t0 I) Q = t0 I, so
M is diagonal and P = Q diag(t0 / (1 - lam^2)) needs no n^3 product. Any
other t takes the general path, whose C is bit-identical to the plain
formula's.

When A Sigma is symmetric, for example with noise inversely proportional to
degree, C also equals (I - A^2)^{-1} Sigma exactly; ``moments`` tags that
regime "closed-form", and "lyapunov" otherwise. A constant t is always in
that regime (A Sigma = t0 D^-1 W D^-1); otherwise the tag is read from the
regular-regular edges alone. The tag names the regime, not a second
solver: C comes from the spectrum either way.

``moments`` also checks C 1 against its own equation, in O(n^2), and
refuses a C whose relative residual exceeds ``RESIDUAL_TOL``: a wide range
of regular strengths costs the spectral C its accuracy.

``covariance_lyapunov`` (squaring-doubling on the A of ``validation.blocks``,
formed from the edge weights, not the spectrum) is an independent oracle for
the benchmark's reference set-up and the tests; no command calls it.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import NumericalError
from .graph import NetworkOperators

SYMMETRY_TOL = 1e-10
RESIDUAL_TOL = 1e-8       # of C 1 in its own Lyapunov equation, relative
SYMMETRIZE_BLOCK = 64     # rows per block of the in-place symmetrization


@dataclass(frozen=True)
class NoiseModel:
    """Per-regular-agent noise variances (diagonal of Sigma), a frozen copy."""

    sigma2: np.ndarray

    def __post_init__(self):
        s = np.array(self.sigma2, dtype=float)
        if s.ndim != 1:
            raise ValueError("sigma2 must be a vector")
        if not np.all(np.isfinite(s) & (s > 0)):
            raise ValueError("all noise variances must be finite and positive")
        s.setflags(write=False)
        object.__setattr__(self, "sigma2", s)

    @classmethod
    def uniform(cls, n: int, value: float = 1.0) -> "NoiseModel":
        return cls(np.full(n, float(value)))


@dataclass(frozen=True, eq=False)
class EquilibriumMoments:
    """Equilibrium covariance as an operator, with the regime it falls in.

    C = diag(scale) P Q' diag(scale), with P = Q M and M the middle factor of
    the spectral solve. ``mom @ v``, ``v @ mom``, ``mom.diagonal()`` and the
    row ``mom[i]`` cost O(n^2) per column of v or per row and never form C;
    ``C`` is formed once, on first read.

    ``method_tag`` is "closed-form" when A Sigma is symmetric (relative
    asymmetry at most ``SYMMETRY_TOL``), the regime where
    C = (I - A^2)^{-1} Sigma holds exactly, and "lyapunov" otherwise.
    """

    method_tag: str  # "lyapunov" or "closed-form"
    P: np.ndarray
    Q: np.ndarray
    scale: np.ndarray  # w^-1/2

    # numpy defers ``v @ mom`` to ``__rmatmul__`` instead of converting mom
    __array_ufunc__ = None

    @property
    def shape(self) -> tuple[int, int]:
        n = len(self.scale)
        return n, n

    def __matmul__(self, v: np.ndarray) -> np.ndarray:
        s = self.scale.reshape((-1,) + (1,) * (np.ndim(v) - 1))
        return s * (self.P @ (self.Q.T @ (s * v)))

    def __rmatmul__(self, v: np.ndarray) -> np.ndarray:
        return self @ v     # v' C = (C v)' since C is symmetric

    def __getitem__(self, i: int) -> np.ndarray:
        """Row i of C, scale_i (Q P_i) scale, in O(n^2); only an int is taken."""
        try:
            i = operator.index(i)
        except TypeError:
            raise TypeError("the covariance operator gives one row, indexed "
                            f"by an int, not {i!r}") from None
        return self.scale[i] * (self.Q @ self.P[i]) * self.scale

    def diagonal(self) -> np.ndarray:
        return np.einsum("ij,ij->i", self.P, self.Q) * self.scale * self.scale

    @cached_property
    def C(self) -> np.ndarray:
        return _dense_covariance(self.P, self.Q, self.scale)


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


def _dense_covariance(P: np.ndarray, Q: np.ndarray,
                      scale: np.ndarray) -> np.ndarray:
    """C = diag(scale) P Q' diag(scale), symmetrized in place: each pair of
    blocks gets (X + X')/2, the same bits as the whole-matrix sum, while
    only one block is held on top of X."""
    X = P @ Q.T
    X *= scale[:, None]
    X *= scale
    n, b = len(X), SYMMETRIZE_BLOCK
    for i in range(0, n, b):
        for j in range(i, n, b):
            blk = X[i:i + b, j:j + b] + X[j:j + b, i:i + b].T
            blk *= 0.5
            X[i:i + b, j:j + b] = blk
            X[j:j + b, i:i + b] = blk.T
    return X


def _regime_tag(ops: NetworkOperators, sigma2: np.ndarray) -> str:
    """"closed-form" when the relative Frobenius asymmetry of A Sigma, whose
    entries (A Sigma)_ij = W_ij / w_i * sigma_j^2 sit on the regular-regular
    edges, is at most ``SYMMETRY_TOL``; "lyapunov" otherwise. The ratio does
    not depend on the scale of sigma^2, so it is taken on sigma^2 / max
    sigma^2: the entries then lie in (0, 1], so the norms cannot overflow,
    nor underflow just because every sigma^2 is tiny."""
    i, j, wgt = ops.graph.regular_arcs
    rel = sigma2 / sigma2.max() if sigma2.size else sigma2
    a_sigma = wgt / ops.w[i] * rel[j]
    asym = np.linalg.norm(a_sigma - wgt / ops.w[j] * rel[i])
    return ("closed-form" if asym <= SYMMETRY_TOL * np.linalg.norm(a_sigma)
            else "lyapunov")


def moments(ops: NetworkOperators, noise: NoiseModel) -> EquilibriumMoments:
    """Equilibrium covariance operator from the spectrum of ``ops``, with its
    regime tag."""
    if len(noise.sigma2) != ops.n_regular:
        raise ValueError("noise model size must equal the number of regular nodes")
    lam, Q = ops.eigvals, ops.eigvecs
    t = ops.w * noise.sigma2                        # diagonal of D Sigma
    if t.size and np.all(t == t[0]):
        # Q' (t0 I) Q = t0 I: M is diagonal, and A Sigma = t0 D^-1 W D^-1 is
        # symmetric
        P = Q * (t[0] / (1.0 - lam * lam))
        method = "closed-form"
    else:
        # each step reuses or replaces X, so at most two n^2 arrays are alive
        X = (Q.T * t) @ Q                           # Q' (D Sigma) Q
        denom = np.multiply.outer(lam, -lam)
        denom += 1.0                                # 1 - lam lam'
        X /= denom
        del denom
        P = Q @ X
        method = _regime_tag(ops, noise.sigma2)
    mom = EquilibriumMoments(method_tag=method, P=P, Q=Q,
                             scale=1.0 / np.sqrt(ops.w))
    if ops.n_regular:
        _check_residual(ops, noise.sigma2, mom)
    return mom


def _check_residual(ops: NetworkOperators, sigma2: np.ndarray,
                    mom: EquilibriumMoments) -> None:
    """``NumericalError`` unless ||C1 - A C A'1 - Sigma 1|| is at most
    ``RESIDUAL_TOL`` ||C1||: the spectral C loses its accuracy when the
    regular strengths span too wide a range. A and A' are applied from the
    regular-regular edges in O(m), C through the operator in O(n^2)."""
    row, col, wgt = ops.graph.regular_arcs
    a = wgt / ops.w[row]                            # the nonzeros of A
    n = ops.n_regular
    c1 = mom @ np.ones(n)
    at1 = np.bincount(col, a, minlength=n)          # A' 1
    r = c1 - np.bincount(row, a * (mom @ at1)[col], minlength=n) - sigma2
    # both norms of vectors divided by max |C1|: neither over- nor underflows
    top = np.abs(c1).max()
    res = float(np.linalg.norm(r / top) / np.linalg.norm(c1 / top))
    if not res <= RESIDUAL_TOL:
        raise NumericalError(
            f"Lyapunov residual {res:.1e} of the covariance exceeds "
            f"{RESIDUAL_TOL:g}: the regular strengths span "
            f"{float(ops.w.min())!r} to {float(ops.w.max())!r}, too wide a "
            "range for the spectral solve")
