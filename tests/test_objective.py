import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opinionselect import (NoiseModel, eta_scores, f_score,
                           generate_random_regular, greedy_select, normalize,
                           var_y)
from opinionselect.errors import NumericalError
from opinionselect.validation import blocks
from conftest import (covariance_closed_form, g_score, naive_f, precision,
                      random_instance)


def test_var_y_identity_and_diagonal():
    assert var_y(np.eye(3)) == pytest.approx(3.0)
    sigma2 = np.array([1.0, 2.0, 0.5])
    assert var_y(np.diag(sigma2)) == pytest.approx(float(sigma2.sum()))


def test_var_y_matches_oracle_on_chain(chain_instance):
    _, ops = chain_instance
    from opinionselect.equilibrium import covariance_lyapunov
    C = covariance_lyapunov(blocks(ops)[0], NoiseModel(np.ones(2)))
    ones = np.ones(2)
    assert var_y(C) == pytest.approx(float(ones @ C @ ones))


def test_f_score_trivial_cases():
    _, _, C = random_instance(0, n=8)
    n = C.shape[0]
    assert f_score(C, []) == 0.0
    assert f_score(C, list(range(n))) == pytest.approx(var_y(C), rel=1e-9)
    C1 = np.array([[2.5]])
    assert f_score(C1, [0]) == pytest.approx(2.5)


def test_f_score_matches_naive_inverse_oracle():
    _, _, C = random_instance(7, n=9)
    n = C.shape[0]
    rng = np.random.default_rng(0)
    for _ in range(20):
        k = int(rng.integers(1, n + 1))
        K = sorted(rng.choice(n, size=k, replace=False).tolist())
        assert f_score(C, K) == pytest.approx(naive_f(C, K), rel=1e-9)


def test_g_score_trivial_and_identity():
    _, _, C = random_instance(1, n=8)
    H = precision(C)
    n = C.shape[0]
    assert g_score(H, list(range(n))) == 0.0
    assert g_score(H, []) == pytest.approx(var_y(C), rel=1e-9)


def test_conservation_exhaustive_small():
    for seed in range(5):
        ops, noise, C = random_instance(seed, n=8, n_stubborn=2)
        H = precision(C)
        vy = var_y(C)
        n = C.shape[0]
        for r in range(n + 1):
            for K in itertools.combinations(range(n), r):
                f, g = f_score(C, K), g_score(H, K)
                assert f >= -1e-12 and g >= -1e-12
                assert f + g == pytest.approx(vy, rel=1e-9)


def test_monotonicity_exhaustive():
    # K subset of K' implies F(K) <= F(K'); checked via all one-step extensions
    _, _, C = random_instance(2, n=9, n_stubborn=2)
    n = C.shape[0]
    F = {}
    for r in range(n + 1):
        for K in itertools.combinations(range(n), r):
            F[frozenset(K)] = f_score(C, K)
    for K, fK in F.items():
        for k in range(n):
            if k not in K:
                assert F[K | {k}] >= fK - 1e-9 * (1 + abs(fK))


def test_observation_set_validation():
    _, _, C = random_instance(3, n=6)
    with pytest.raises(ValueError, match="duplicates"):
        f_score(C, [0, 0])
    with pytest.raises(ValueError, match="out of range"):
        f_score(C, [99])
    # a non-integer member is refused, never truncated to a node id
    for K in ([1.7], np.array([0.9]), [0, 2.0]):
        with pytest.raises(ValueError, match="integers"):
            f_score(C, K)
    assert f_score(C, np.array([0, 2])) == f_score(C, [0, 2])
    with pytest.raises(NumericalError):
        f_score(np.zeros((2, 2)), [0])


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000), st.floats(0.1, 50.0))
def test_scale_equivariance(seed, t):
    _, _, C = random_instance(seed % 50, n=7)
    K = [0, 2]
    H, Ht = precision(C), precision(t * C)
    assert f_score(t * C, K) == pytest.approx(t * f_score(C, K), rel=1e-9)
    assert g_score(Ht, K) == pytest.approx(t * g_score(H, K), rel=1e-9)
    assert g_score(Ht, K) / var_y(t * C) == pytest.approx(
        g_score(H, K) / var_y(C), rel=1e-9)


def test_residual_curve_endpoints_and_monotonicity():
    ops, noise, C = random_instance(8, n=12, n_stubborn=3)
    n = C.shape[0]
    res = greedy_select(C, n)
    fractions = [g / res.var_y for g in res.g_values]
    assert fractions[0] == 1.0
    assert fractions[-1] == pytest.approx(0.0, abs=1e-9)
    assert all(fractions[i + 1] <= fractions[i] + 1e-9 for i in range(n))
    # against the precision oracle on every prefix
    H = precision(C)
    for t in range(n + 1):
        assert fractions[t] == pytest.approx(
            g_score(H, res.chosen[:t]) / var_y(C), rel=1e-9, abs=1e-9)


def test_single_node_reduction_formula_on_accepted_instances():
    # F({k}) = sigma_k^2 * eta_k when the closed form is the true covariance
    for seed in range(5):
        g = generate_random_regular(10, 3, seed, 2)
        ops = normalize(g)
        s2 = 1.7
        noise = NoiseModel.uniform(ops.n_regular, s2)
        cf = covariance_closed_form(blocks(ops)[0], noise)
        assert cf.accepted
        eta = eta_scores(ops).scores
        for k in range(ops.n_regular):
            assert f_score(cf.covariance, [k]) == pytest.approx(
                s2 * eta[k], rel=1e-10)


def _spd(seed, n):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, n))
    return X @ X.T + n * np.eye(n)


@pytest.mark.parametrize("b", range(1, 9))
def test_solve_helper_matches_explicit_inverse(b):
    # F on a b-node block B of C, G on the b-node block
    # B of H, each against an explicit inverse of that block
    n = 10
    C = _spd(b, n)
    H = np.linalg.inv(C)
    rng = np.random.default_rng(100 + b)
    for _ in range(5):
        B = sorted(rng.choice(n, size=b, replace=False).tolist())
        rest = [i for i in range(n) if i not in B]
        assert f_score(C, B) == pytest.approx(naive_f(C, B), rel=1e-12)
        ones = np.ones(b)
        g_oracle = ones @ np.linalg.inv(H[np.ix_(B, B)]) @ ones
        assert g_score(H, rest) == pytest.approx(g_oracle, rel=1e-12)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_entries_raise_value_error(bad):
    # K = [1, 3]: (3, 1) lies in the triangle the Cholesky factor never
    # reads, and (1, 0) reaches F only through (C1)_K
    K, rest = [1, 3], [0, 2, 4, 5]
    for pos in [(1, 1), (3, 1), (1, 0)]:
        M = _spd(0, 6)
        M[pos] = bad
        with pytest.raises(ValueError):
            f_score(M, K)
        if pos != (1, 0):
            with pytest.raises(ValueError):
                g_score(M, rest)


def test_twin_block_raises_numerical_error():
    # node n copies node j, so a block holding both is singular; rounding
    # can leave its last Cholesky pivot tiny but positive
    for seed in range(10):
        _, _, C0 = random_instance(seed, n=10, n_stubborn=2)
        H0 = precision(C0)
        n = C0.shape[0]
        for j in range(n):
            idx = list(range(n)) + [j]
            with pytest.raises(NumericalError):
                f_score(C0[np.ix_(idx, idx)], [j, n])
            with pytest.raises(NumericalError):
                g_score(H0[np.ix_(idx, idx)], [])
