import warnings

import numpy as np
import pytest
from scipy.stats import kendalltau

from opinionselect import (NoiseModel, bonacich, covariance_lyapunov,
                           eta_scores, f_score, generate_cycle,
                           intercentrality, kendall_tau_b, normalize,
                           ranking_report, var_reduction_scores)
from opinionselect.errors import NumericalError
from conftest import random_instance


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


def test_eta_identity_matrix():
    assert np.allclose(eta_scores(np.zeros((3, 3))).scores, 1.0)


def test_eta_symmetric_instance_all_equal():
    # cycle of regulars uniformly tied to one stubborn hub: vertex transitive
    n = 6
    W = np.zeros((n + 1, n + 1))
    for i in range(n):
        j = (i + 1) % n
        W[i, j] = W[j, i] = 1.0
        W[i, n] = W[n, i] = 1.0
    from opinionselect import SocialGraph
    ops = normalize(SocialGraph(weights=W, stubborn=(n,)))
    eta = eta_scores(ops.A).scores
    assert np.allclose(eta, eta[0])


def test_eta_equals_intercentrality_of_two_hop_operator():
    for seed in range(20):
        ops, _, _ = random_instance(seed, n=10, n_stubborn=2)
        eta = eta_scores(ops.A).scores
        ic = intercentrality(ops.A @ ops.A, 1.0).scores
        assert np.allclose(eta, ic, rtol=1e-10)


def test_bonacich_trivial_cases():
    assert np.allclose(bonacich(np.zeros((3, 3)), 0.7).scores, 1.0)
    G = np.array([[0., 1.], [1., 0.]])
    assert np.allclose(bonacich(G, 0.0).scores, 1.0)


def test_bonacich_regular_graph_closed_form():
    ring = generate_cycle(8, 0)
    G = ring.weights
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
    c = intercentrality(ring.weights, 0.2).scores
    assert np.allclose(c, c[0])


def test_ranking_scale_invariance():
    _, _, C = random_instance(1, n=10)
    s = var_reduction_scores(C)
    s_scaled = var_reduction_scores(4.2 * C)
    assert s.argmax == s_scaled.argmax
    assert np.array_equal(np.argsort(s.scores), np.argsort(s_scaled.scores))
    assert np.allclose(s.normalized, s_scaled.normalized)


def test_ranking_report_identical_vectors():
    _, _, C = random_instance(2, n=8)
    s = var_reduction_scores(C)
    rep = ranking_report([s, var_reduction_scores(C.copy())])
    assert rep.kendall_tau[("var_reduction", "var_reduction")] == pytest.approx(1.0)
    assert len(set(rep.argmax.values())) == 1


def test_ranking_report_mismatched_sets():
    s1 = var_reduction_scores(np.eye(4))
    s2 = var_reduction_scores(np.eye(5))
    with pytest.raises(ValueError):
        ranking_report([s1, s2])


def test_ws15_var_reduction_vs_bonacich_recorded(ws15_instance):
    # instance-dependent comparison: recorded, not asserted to differ
    g, ops, noise, C = ws15_instance
    rep = ranking_report([var_reduction_scores(C), bonacich(ops.A, 1.0)])
    assert set(rep.argmax) == {"var_reduction", "bonacich"}
    assert -1.0 <= rep.kendall_tau[("var_reduction", "bonacich")] <= 1.0


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


def test_kendall_tau_b_matches_scipy_oracle():
    for x, y in _tau_cases():
        want, got = _scipy_tau(x, y), kendall_tau_b(x, y)
        if np.isnan(want):
            assert np.isnan(got), (x, y)
        else:
            assert abs(got - want) <= 1e-15, (x, y, got, want)
