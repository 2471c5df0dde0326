import numpy as np
import pytest

from opinionselect import NoiseModel, normalize
from opinionselect.equilibrium import covariance_lyapunov
from opinionselect.validation import (SimConfig, blocks, empirical_moments,
                                      horizon_for, mean, simulate)
from conftest import graph_from_dense, random_instance


def test_horizon_examples():
    assert horizon_for(0.5, 1e-6) == 20
    assert horizon_for(0.0, 1e-6) == 1
    assert horizon_for(0.99, 1e-8) == 1833


def test_horizon_cap_warns():
    with pytest.warns(UserWarning, match="capped"):
        assert horizon_for(0.9999999, 1e-12) == 10 ** 6


def test_sim_config_validation():
    with pytest.raises(ValueError):
        SimConfig(replicas=0, seed=0, u=np.zeros(1))
    with pytest.raises(ValueError):
        SimConfig(replicas=10, seed=0, u=np.zeros(1), noise_family="cauchy")


def test_noiseless_fixed_point(chain_instance):
    _, ops = chain_instance
    cfg = SimConfig(replicas=4, seed=1, u=np.array([0.8]))
    samples = simulate(ops, np.zeros(2), cfg)
    mu = mean(ops, cfg.u)
    assert np.allclose(samples, mu)


def test_simulate_refuses_non_finite_variances(chain_instance):
    _, ops = chain_instance
    cfg = SimConfig(replicas=4, seed=1, u=np.array([0.8]))
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="finite and nonnegative"):
            simulate(ops, np.array([1.0, bad]), cfg)


def test_A_zero_sample_covariance_close_to_sigma():
    # star: regular leaves only touch the stubborn hub
    W = np.zeros((3, 3))
    W[0, 2] = W[2, 0] = 1.0
    W[1, 2] = W[2, 1] = 1.0
    ops = normalize(graph_from_dense(W, (2,)))
    noise = NoiseModel(np.array([1.0, 2.0]))
    cfg = SimConfig(replicas=60_000, seed=3, u=np.array([0.5]))
    emp = empirical_moments(simulate(ops, noise, cfg))
    assert np.all(np.abs(emp.cov - np.diag(noise.sigma2)) <= 3.5 * emp.se_cov)
    assert np.all(np.abs(emp.mean - blocks(ops)[1] @ cfg.u)
                  <= 3.5 * emp.se_mean)


def test_seeded_reproducibility(chain_instance):
    _, ops = chain_instance
    noise = NoiseModel(np.ones(2))
    for family in ("gaussian", "uniform", "rademacher"):
        cfg = SimConfig(replicas=50, seed=11, u=np.array([0.0]),
                        noise_family=family)
        s1 = simulate(ops, noise, cfg)
        s2 = simulate(ops, noise, cfg)
        assert np.array_equal(s1, s2)


def test_noise_families_have_exact_variance():
    from opinionselect.validation import _draw_noise
    rng = np.random.default_rng(0)
    sigma = np.array([2.0])
    v = _draw_noise(rng, "rademacher", sigma, (10_000, 1))
    assert set(np.unique(v)) == {-2.0, 2.0}
    v = _draw_noise(rng, "uniform", sigma, (200_000, 1))
    assert abs(v.var() - 4.0) < 0.1
    assert np.max(np.abs(v)) <= 2.0 * np.sqrt(3.0) + 1e-12


def test_empirical_moments_formulas():
    samples = np.array([[1.0, 2.0], [1.0, 2.0], [1.0, 2.0]])
    emp = empirical_moments(samples)
    assert np.allclose(emp.cov, 0.0)

    x, y = np.array([1.0, 0.0]), np.array([3.0, 2.0])
    emp2 = empirical_moments(np.vstack([x, y]))
    d = x - y
    assert np.allclose(emp2.cov, np.outer(d, d) / 2.0)
    with pytest.raises(ValueError):
        empirical_moments(np.array([[1.0, 2.0]]))


def test_chain_covariance_within_standard_errors(chain_instance):
    _, ops = chain_instance
    noise = NoiseModel(np.array([1.0, 0.5]))
    C = covariance_lyapunov(blocks(ops)[0], noise)
    mu = mean(ops, np.array([1.0]))
    for family in ("gaussian", "uniform", "rademacher"):
        cfg = SimConfig(replicas=40_000, seed=17, u=np.array([1.0]),
                        noise_family=family)
        emp = empirical_moments(simulate(ops, noise, cfg))
        assert np.all(np.abs(emp.mean - mu) <= 3.5 * emp.se_mean)
        assert np.all(np.abs(emp.cov - C) <= 3.5 * emp.se_cov)
