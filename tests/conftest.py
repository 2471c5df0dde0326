import itertools

import numpy as np
import pytest

from opinionselect import (NoiseModel, covariance_lyapunov,
                           generate_random_reachable, normalize)


# ---------------------------------------------------------------------------
# Independent oracles. These deliberately avoid the library's solve paths:
# covariance by truncated series, objective values by explicit inverses.
# ---------------------------------------------------------------------------

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


def naive_g(C, K):
    n = C.shape[0]
    comp = [i for i in range(n) if i not in set(K)]
    if not comp:
        return 0.0
    H = np.linalg.inv(C)
    ones = np.ones(len(comp))
    return float(ones @ np.linalg.inv(H[np.ix_(comp, comp)]) @ ones)


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
    C = covariance_lyapunov(ops.A, noise)
    return ops, noise, C


# ---------------------------------------------------------------------------
# Shared fixtures
# ---------------------------------------------------------------------------

@pytest.fixture(scope="session")
def chain_instance():
    """r0 - r1 - s chain with unit weights (nodes 0, 1 regular, 2 stubborn)."""
    from opinionselect import SocialGraph
    W = np.array([[0., 1., 0.],
                  [1., 0., 1.],
                  [0., 1., 0.]])
    g = SocialGraph(weights=W, stubborn=(2,))
    return g, normalize(g)


@pytest.fixture(scope="session")
def ws15_instance():
    """The 15-node small-world instance with 3 stubborn nodes, seed 7."""
    from opinionselect import generate_watts_strogatz
    g = generate_watts_strogatz(15, 4, 0.3, 7, 3)
    ops = normalize(g)
    noise = NoiseModel.uniform(ops.n_regular, 1.0)
    C = covariance_lyapunov(ops.A, noise)
    return g, ops, noise, C
