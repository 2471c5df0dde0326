import warnings

import numpy as np
import pytest
from scipy.stats import kendalltau

from opinionselect import (NoiseModel, bonacich, eta_scores, f_score,
                           generate_cycle, generate_random_reachable,
                           generate_watts_strogatz, intercentrality,
                           normalize, ranking_report, var_reduction_scores)
from opinionselect.centrality import kendall_tau_b
from opinionselect.equilibrium import covariance_lyapunov
from opinionselect.errors import NumericalError
from opinionselect.validation import blocks, dense_weights
from conftest import (dense_intercentrality, dense_resolvent, graph_from_dense,
                      random_instance)


def test_var_reduction_identity_matrix():
    scores = var_reduction_scores(np.eye(4))
    assert np.allclose(scores.scores, 1.0)
    assert np.allclose(scores.normalized, 1.0)


def test_var_reduction_diagonal():
    sigma2 = np.array([1.0, 3.0, 2.0])
    scores = var_reduction_scores(np.diag(sigma2))
    assert np.allclose(scores.scores, sigma2)
    assert scores.argmax == 1


def test_var_reduction_equals_f_score_single():
    _, _, C = random_instance(0, n=10)
    scores = var_reduction_scores(C)
    for k in range(C.shape[0]):
        assert scores.scores[k] == pytest.approx(f_score(C, [k]), rel=1e-12)


def test_var_reduction_overflow_is_refused_by_name():
    # finite and positive definite, but (C1)_k^2 overflows float64: once a
    # vector of inf scores behind a RuntimeWarning, every node ranked equal
    X = np.random.default_rng(0).normal(size=(8, 8))
    C = (X @ X.T + 8 * np.eye(8)) * 1e155
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalError, match="a var_reduction score "
                           "overflowed float64; rescale C"):
            var_reduction_scores(C)
        # the same C at a representable scale scores as before
        assert np.isfinite(var_reduction_scores(C * 1e-155).scores).all()


def test_eta_identity_matrix():
    # three regular nodes tied only to a stubborn hub: A = 0
    W = np.zeros((4, 4))
    W[3, :3] = W[:3, 3] = 1.0
    ops = normalize(graph_from_dense(W, (3,)))
    assert np.allclose(eta_scores(ops).scores, 1.0)


def test_eta_symmetric_instance_all_equal():
    # cycle of regulars uniformly tied to one stubborn hub: vertex transitive
    n = 6
    W = np.zeros((n + 1, n + 1))
    for i in range(n):
        j = (i + 1) % n
        W[i, j] = W[j, i] = 1.0
        W[i, n] = W[n, i] = 1.0
    ops = normalize(graph_from_dense(W, (n,)))
    eta = eta_scores(ops).scores
    assert np.allclose(eta, eta[0])


def test_eta_equals_intercentrality_of_two_hop_operator():
    for seed in range(20):
        ops, _, _ = random_instance(seed, n=10, n_stubborn=2)
        eta = eta_scores(ops).scores
        A = blocks(ops)[0]
        ic = dense_intercentrality(A @ A, 1.0)
        assert np.allclose(eta, ic, rtol=1e-10)


def test_bonacich_trivial_cases():
    assert np.allclose(bonacich(np.zeros((3, 3)), 0.7).scores, 1.0)
    G = np.array([[0., 1.], [1., 0.]])
    assert np.allclose(bonacich(G, 0.0).scores, 1.0)


def test_bonacich_regular_graph_closed_form():
    ring = generate_cycle(8, 0)
    G = dense_weights(ring)
    a = 0.3  # d = 2, a < 1/d
    b = bonacich(G, a).scores
    assert np.allclose(b, 1.0 / (1.0 - a * 2))


def test_bonacich_divergent_attenuation():
    G = np.array([[0., 1.], [1., 0.]])
    with pytest.raises(NumericalError):
        bonacich(G, 1.5)
    with pytest.raises(NumericalError):
        intercentrality(G, 1.5)


def test_intercentrality_trivial_and_symmetric():
    assert np.allclose(intercentrality(np.zeros((3, 3)), 1.0).scores, 1.0)
    ring = generate_cycle(7, 0)
    c = intercentrality(dense_weights(ring), 0.2).scores
    assert np.allclose(c, c[0])


def dense_eta(A):
    b, m = dense_resolvent(A @ A, 1.0)
    return b * b / m


def dense_bonacich(A, a):
    return dense_resolvent(A, a)[0]


def _path_off_stubborn(edges):
    """Path 0-1-...-edges with node 0 stubborn: 1 - rho is O(1/edges^2)."""
    W = np.zeros((edges + 1, edges + 1))
    for i in range(edges):
        W[i, i + 1] = W[i + 1, i] = 1.0
    return graph_from_dense(W, (0,))


def _spectral_oracle_cases():
    for seed in range(10):
        yield f"reachable40-{seed}", normalize(generate_random_reachable(40, 3, seed))
    yield "ws300", normalize(generate_watts_strogatz(300, 4, 0.3, 5, 10))
    yield "cycle12", normalize(generate_cycle(12, 1))
    yield "path60", normalize(_path_off_stubborn(60))


def _assert_rel(got, want, case):
    err = np.max(np.abs(got - want) / np.abs(want))
    assert err <= 1e-10, (case, err)


def test_spectral_scores_match_dense_oracles():
    for case, ops in _spectral_oracle_cases():
        A = blocks(ops)[0]
        attenuations = [1.0, 0.5, 0.0, -0.9]
        if case == "cycle12":
            # bipartite: the spectrum is symmetric, eigvals[0] = -rho
            assert ops.eigvals[0] == pytest.approx(-ops.rho, rel=1e-12)
            attenuations.append(-0.9 / ops.rho)
        if case == "path60":
            assert 1.0 - ops.rho < 1e-3
        _assert_rel(eta_scores(ops).scores, dense_eta(A), case)
        for a in attenuations:
            _assert_rel(bonacich(ops, a).scores, dense_bonacich(A, a), (case, a))
            _assert_rel(intercentrality(ops, a).scores,
                        dense_intercentrality(A, a), (case, a))
        # the 0/1 adjacency of the regular block (--matrix adjacency)
        R = ops.graph.regular
        G = (dense_weights(ops.graph)[np.ix_(R, R)] > 0).astype(float)
        rho = np.max(np.abs(np.linalg.eigvals(G)))
        for a in (0.0, 0.9 / rho, -0.9 / rho, 0.999 / rho):
            _assert_rel(bonacich(G, a).scores, dense_bonacich(G, a),
                        ("adjacency", case, a))
            _assert_rel(intercentrality(G, a).scores,
                        dense_intercentrality(G, a), ("adjacency", case, a))


def test_dense_score_matrix_must_be_symmetric():
    G = np.array([[0.0, 0.5], [0.2, 0.0]])
    with pytest.raises(ValueError):
        bonacich(G, 0.1)
    with pytest.raises(ValueError):
        intercentrality(G, 0.1)


def test_spectral_attenuation_bound():
    for ops in (normalize(generate_cycle(12, 1)),
                normalize(generate_random_reachable(40, 3, 0))):
        for a in (1.0001 / ops.rho, -1.0001 / ops.rho, np.inf, np.nan):
            with pytest.raises(NumericalError):
                bonacich(ops, a)
            with pytest.raises(NumericalError):
                intercentrality(ops, a)
        assert np.all(np.isfinite(bonacich(ops, 0.9999 / ops.rho).scores))
        assert np.all(np.isfinite(bonacich(ops, -0.9999 / ops.rho).scores))


def test_ranking_scale_invariance():
    _, _, C = random_instance(1, n=10)
    s = var_reduction_scores(C)
    s_scaled = var_reduction_scores(4.2 * C)
    assert s.argmax == s_scaled.argmax
    assert np.array_equal(np.argsort(s.scores), np.argsort(s_scaled.scores))
    assert np.allclose(s.normalized, s_scaled.normalized)


def test_ranking_report_identical_vectors():
    _, _, C = random_instance(2, n=8)
    s, s2 = var_reduction_scores(C), var_reduction_scores(C.copy())
    taus = ranking_report([s, s2])
    assert taus == {("var_reduction", "var_reduction"): pytest.approx(1.0)}
    assert s.argmax == s2.argmax


def test_ranking_report_mismatched_sets():
    s1 = var_reduction_scores(np.eye(4))
    s2 = var_reduction_scores(np.eye(5))
    with pytest.raises(ValueError, match="equal length"):
        ranking_report([s1, s2])


def test_ws15_var_reduction_vs_bonacich_recorded(ws15_instance):
    # instance-dependent comparison: recorded, not asserted to differ
    g, ops, noise, C = ws15_instance
    taus = ranking_report([var_reduction_scores(C), bonacich(ops, 1.0)])
    assert list(taus) == [("var_reduction", "bonacich")]
    assert -1.0 <= taus[("var_reduction", "bonacich")] <= 1.0


def _scipy_tau(x, y):
    """scipy.stats.kendalltau, the oracle; it warns on samples below 2."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return float(kendalltau(x, y)[0])


def _tau_cases():
    rng = np.random.default_rng(11)
    for n in (2, 3, 5, 17, 64, 300):
        yield rng.random(n), rng.random(n)                     # distinct
        yield (rng.integers(0, 3, n).astype(float),            # heavy ties
               rng.integers(0, 2, n).astype(float))
        x = rng.random(n)
        yield x, -x                                            # reversed
        yield x, x.copy()                                      # identical
        y = np.round(x, 1)
        yield x, y[::-1]                                       # ties in y only
    yield np.array([1.0, 2.0]), np.array([2.0, 1.0])           # n = 2
    yield np.array([1.0, 1.0]), np.array([1.0, 2.0])           # constant x
    yield np.ones(6), np.arange(6.0)
    yield np.arange(6.0), np.full(6, 3.0)
    yield np.array([1.0]), np.array([2.0])                     # n = 1
    yield np.array([]), np.array([])
    yield np.array([1.0, np.nan, 3.0]), np.array([1.0, 2.0, 3.0])
    yield np.array([0.0, -0.0, np.inf, -np.inf]), np.array([3.0, 1.0, 2.0, 0.0])
    for _ in range(100):                                       # seeded ties
        n = int(rng.integers(2, 200))
        x = rng.integers(0, int(rng.integers(1, n + 1)), n).astype(float)
        yield x, x + rng.integers(-1, 2, n) * (rng.random(n) < 0.3)
    for n in (990, 3000):                                      # long insertions
        yield np.arange(n, dtype=float), np.arange(n, 0.0, -1)  # all discordant
        x = rng.random(n)
        yield x, -x                                            # all discordant
        yield (rng.integers(0, 10, n).astype(float),           # <= 10 values
               rng.integers(0, 7, n).astype(float))
        yield x, x + 0.5 * rng.random(n)                       # correlated


def test_kendall_tau_b_matches_scipy_oracle():
    for x, y in _tau_cases():
        want, got = _scipy_tau(x, y), kendall_tau_b(x, y)
        if np.isnan(want):
            assert np.isnan(got), (x, y)
        else:
            assert abs(got - want) <= 1e-15, (x, y, got, want)
