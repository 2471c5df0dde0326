import re
import tracemalloc

import numpy as np
import pytest

from opinionselect import (NoiseModel, SocialGraph, generate_cycle,
                           generate_random_reachable, generate_random_regular,
                           generate_watts_strogatz, greedy_select, moments,
                           normalize, var_y)
from opinionselect.equilibrium import SYMMETRY_TOL, covariance_lyapunov
from opinionselect.errors import NumericalError
from opinionselect.validation import blocks, dense_weights, mean
from conftest import (chorded_ring, covariance_closed_form, graph_from_dense,
                      precision, precision_direct, random_instance,
                      series_covariance)


def test_noise_model_requires_positive_variances():
    with pytest.raises(ValueError):
        NoiseModel(np.array([1.0, 0.0]))
    with pytest.raises(ValueError):
        NoiseModel(np.array([[1.0, 2.0]]))
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError):
            NoiseModel(np.array([1.0, bad]))
        with pytest.raises(ValueError):
            NoiseModel.uniform(3, bad)


def test_noise_model_copies_the_callers_array():
    s = np.ones(4)
    noise = NoiseModel(s)
    s[0] = 2.0
    assert noise.sigma2.tolist() == [1.0] * 4
    assert not noise.sigma2.flags.writeable


def test_mean_consensus_absorption():
    # all stubborn opinions equal -> every regular agent absorbs that value
    for seed in range(5):
        g = generate_random_reachable(12, 3, seed)
        ops = normalize(g)
        u0 = 0.7
        mu = mean(ops, np.full(3, u0))
        assert np.allclose(mu, u0)


def test_mean_chain(chain_instance):
    _, ops = chain_instance
    mu = mean(ops, np.array([1.0]))
    assert np.allclose(mu, [1.0, 1.0])


def test_mean_A_zero_is_Bu():
    # star: two regular leaves attached to one stubborn hub -> A = 0
    W = np.zeros((3, 3))
    W[0, 2] = W[2, 0] = 1.0
    W[1, 2] = W[2, 1] = 2.0
    ops = normalize(graph_from_dense(W, (2,)))
    assert np.allclose(blocks(ops)[0], 0.0)
    u = np.array([0.3])
    assert np.allclose(mean(ops, u), blocks(ops)[1] @ u)


def test_lyapunov_A_zero_returns_sigma():
    noise = NoiseModel(np.array([1.0, 2.5, 0.3]))
    C = covariance_lyapunov(np.zeros((3, 3)), noise)
    assert np.allclose(C, np.diag(noise.sigma2))


def test_lyapunov_matches_series_oracle():
    A = np.array([[0., .5], [.5, 0.]])
    noise = NoiseModel(np.ones(2))
    C = covariance_lyapunov(A, noise)
    C_oracle = series_covariance(A, noise.sigma2)
    assert np.linalg.norm(C - C_oracle) / np.linalg.norm(C_oracle) < 1e-12
    # frozen oracle values: C = (I - A^2)^{-1} here (A symmetric, Sigma = I)
    assert np.allclose(C, [[4. / 3., 0.], [0., 4. / 3.]], atol=1e-12)


def test_lyapunov_residual_and_pd_random():
    for seed in range(20):
        ops, noise, C = random_instance(seed, n=12, n_stubborn=2)
        Sigma = np.diag(noise.sigma2)
        A = blocks(ops)[0]
        res = np.linalg.norm(C - A @ C @ A.T - Sigma)
        assert res <= 1e-10 * np.linalg.norm(C)
        assert np.min(np.linalg.eigvalsh(C)) > 0
        assert np.allclose(C, C.T)


def test_lyapunov_linearity_in_noise():
    ops, noise, C = random_instance(3, n=10)
    for t in (0.25, 2.0, 7.5):
        Ct = covariance_lyapunov(blocks(ops)[0], NoiseModel(t * noise.sigma2))
        assert np.linalg.norm(Ct - t * C) <= 1e-10 * np.linalg.norm(Ct)


def test_closed_form_A_zero():
    noise = NoiseModel(np.array([2.0, 0.5]))
    cf = covariance_closed_form(np.zeros((2, 2)), noise)
    assert cf.accepted
    assert np.allclose(cf.covariance, np.diag(noise.sigma2))


def test_closed_form_accepted_on_regular_graph_uniform_noise():
    for seed in range(10):
        g = generate_random_regular(10, 3, seed, 2)
        ops = normalize(g)
        noise = NoiseModel.uniform(ops.n_regular, 1.3)
        cf = covariance_closed_form(blocks(ops)[0], noise)
        assert cf.accepted
        C_ly = covariance_lyapunov(blocks(ops)[0], noise)
        rel = np.linalg.norm(cf.covariance - C_ly) / np.linalg.norm(C_ly)
        assert rel < 1e-8


def test_closed_form_sigma_proportional_to_degree_is_symmetric_but_inconsistent():
    # sigma_i^2 ~ w_i makes the candidate exactly symmetric, yet on a graph
    # with heterogeneous degrees it does not solve the Lyapunov equation
    g = generate_random_reachable(10, 2, seed=4)
    ops = normalize(g)
    noise = NoiseModel(ops.w.copy())
    cf = covariance_closed_form(blocks(ops)[0], noise)
    assert cf.symmetric
    assert cf.asymmetry < 1e-12
    assert not cf.accepted
    assert cf.lyapunov_residual > 1e-3
    C_ly = covariance_lyapunov(blocks(ops)[0], noise)
    assert np.linalg.norm(cf.covariance - C_ly) / np.linalg.norm(C_ly) > 1e-3


def test_closed_form_heterogeneous_rejected_by_asymmetry():
    ops, noise, _ = random_instance(11, n=10)
    cf = covariance_closed_form(blocks(ops)[0], noise)
    # asymmetry of the raw candidate decides the symmetry flag
    expected = cf.asymmetry <= 1e-10
    assert cf.symmetric == expected


def test_accepted_implies_lyapunov_match():
    # acceptance must never let a wrong fast path through
    for seed in range(40):
        kind = seed % 3
        if kind == 0:
            g = generate_random_regular(8, 3, seed, 1)
            ops = normalize(g)
            noise = NoiseModel.uniform(ops.n_regular, 0.8)
        elif kind == 1:
            ops, noise, _ = random_instance(seed, n=9)
        else:
            g = generate_random_reachable(9, 2, seed)
            ops = normalize(g)
            noise = NoiseModel(ops.w.copy())
        cf = covariance_closed_form(blocks(ops)[0], noise)
        C_ly = covariance_lyapunov(blocks(ops)[0], noise)
        rel = np.linalg.norm(cf.covariance - C_ly) / np.linalg.norm(C_ly)
        if cf.accepted:
            assert rel < 1e-8
        else:
            assert not cf.symmetric or rel > 1e-8


def test_precision_diag_case():
    sigma2 = np.array([2.0, 4.0, 0.5])
    H = precision(np.diag(sigma2))
    assert np.allclose(H, np.diag(1.0 / sigma2))


def test_precision_inverse_identity_random():
    for seed in range(10):
        _, _, C = random_instance(seed, n=10)
        H = precision(C)
        assert np.linalg.norm(H @ C - np.eye(C.shape[0])) < 1e-8
        assert np.allclose(H, H.T)


def test_precision_offdiagonals_nonpositive_on_accepted():
    for seed in range(10):
        g = generate_random_regular(10, 3, seed, 2)
        ops = normalize(g)
        noise = NoiseModel.uniform(ops.n_regular, 1.0)
        cf = covariance_closed_form(blocks(ops)[0], noise)
        assert cf.accepted
        H = precision(cf.covariance)
        Hd = precision_direct(blocks(ops)[0], noise)
        assert np.linalg.norm(H - Hd) / np.linalg.norm(H) < 1e-8
        off = H - np.diag(np.diag(H))
        assert np.max(off) <= 1e-12


def test_moments_convenience_method_tags():
    g = generate_random_regular(10, 3, 2, 2)
    ops = normalize(g)
    noise = NoiseModel.uniform(ops.n_regular, 1.0)
    mom = moments(ops, noise)
    assert mom.method_tag == "closed-form"

    ops2, noise2, _ = random_instance(5, n=10)
    mom2 = moments(ops2, noise2)
    assert mom2.method_tag == "lyapunov"
    assert (np.linalg.norm(precision(mom2.C) @ mom2.C - np.eye(mom2.C.shape[0]))
            < 1e-8)


def _path_instance(n):
    """Path of n unit edges with a stubborn node at one end."""
    W = np.zeros((n + 1, n + 1))
    for i in range(n):
        W[i, i + 1] = W[i + 1, i] = 1.0
    return normalize(graph_from_dense(W, (0,)))


def test_moments_spectral_solve_matches_oracles():
    cases = []
    for seed in range(10):
        ops, noise, C_ly = random_instance(seed, n=12, n_stubborn=2)
        cases.append((ops, noise, C_ly,
                      series_covariance(blocks(ops)[0], noise.sigma2)))
    # bipartite regular block: the path left by one stubborn node on a cycle
    ops = normalize(generate_cycle(12, 1))
    assert abs(ops.eigvals[0] + ops.rho) <= 1e-12  # lambda = -rho
    noise = NoiseModel(np.linspace(0.5, 2.0, ops.n_regular))
    C_ly = covariance_lyapunov(blocks(ops)[0], noise)
    cases.append((ops, noise, C_ly,
                  series_covariance(blocks(ops)[0], noise.sigma2)))
    # near-unit spectral radius: long path hanging off one stubborn node
    ops = _path_instance(60)
    assert 1.0 - ops.rho < 1e-3
    noise = NoiseModel(np.random.default_rng(0).uniform(0.5, 2.0, ops.n_regular))
    cases.append((ops, noise, covariance_lyapunov(blocks(ops)[0], noise),
                  None))

    for ops, noise, C_ly, C_series in cases:
        A = blocks(ops)[0]
        rho = np.max(np.abs(np.linalg.eigvals(A)))
        assert abs(ops.rho - rho) <= 1e-12
        C = moments(ops, noise).C
        assert np.linalg.norm(C - C_ly) <= 1e-10 * np.linalg.norm(C_ly)
        if C_series is not None:
            assert (np.linalg.norm(C - C_series)
                    <= 1e-10 * np.linalg.norm(C_series))
        res = np.linalg.norm(C - A @ C @ A.T - np.diag(noise.sigma2))
        assert res <= 1e-10 * np.linalg.norm(C)


def _dense_tag(ops, sigma2):
    """The regime tag from the dense product A Sigma (oracle path)."""
    A_sigma = blocks(ops)[0] * sigma2[None, :]
    asym = np.linalg.norm(A_sigma - A_sigma.T)
    return ("closed-form" if asym <= SYMMETRY_TOL * np.linalg.norm(A_sigma)
            else "lyapunov")


def test_regime_tag_from_edges_matches_dense_formula():
    rng = np.random.default_rng(17)
    seen = set()
    for seed in range(15):
        for g in (generate_random_reachable(14, 3, seed),
                  generate_random_regular(14, 3, seed, 3)):
            ops = normalize(g)
            m = ops.n_regular
            inverse_w = 0.7 / ops.w
            for sigma2 in (inverse_w, np.full(m, 1.3),
                           rng.uniform(0.5, 2.0, m),
                           inverse_w * (1 + 1e-11 * rng.standard_normal(m)),
                           inverse_w * (1 + 1e-9 * rng.standard_normal(m))):
                noise = NoiseModel(sigma2)
                want = _dense_tag(ops, noise.sigma2)
                assert moments(ops, noise).method_tag == want, (seed, sigma2)
                seen.add(want)
    assert seen == {"closed-form", "lyapunov"}


def test_regime_tag_does_not_depend_on_the_noise_scale():
    # uniform noise on an irregular graph is "lyapunov" and noise inversely
    # proportional to the strengths "closed-form", at every scale from one
    # where A Sigma's squares underflow to one where they overflow
    ops = normalize(generate_watts_strogatz(30, 4, 0.3, 1, 3))
    assert len(set(ops.w)) > 1
    shapes = {"lyapunov": np.ones(ops.n_regular),
              "closed-form": 0.7 / ops.w,
              None: np.random.default_rng(5).uniform(0.5, 2.0, ops.n_regular)}
    for tag, shape in shapes.items():
        unit = moments(ops, NoiseModel(shape)).method_tag
        assert tag is None or unit == tag
        for e in range(-300, 251, 50):
            noise = NoiseModel(shape * 10.0 ** e)
            assert moments(ops, noise).method_tag == unit, (tag, e)


def _traced_peak(fn):
    """(fn(), peak traced bytes above those held before the call)."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        out = fn()
        return out, tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def test_moments_bit_identical_and_lean():
    # the in-place spectral solve forms the same products in the same order
    # as the plain formula below, so C matches it bit for bit; normalize and
    # moments each hold at most ~2 n^2 floats of their own along the way
    g = generate_watts_strogatz(410, 4, 0.3, 11, 10)
    ops, normalize_peak = _traced_peak(lambda: normalize(g))
    n = ops.n_regular
    noise = NoiseModel(np.random.default_rng(11).uniform(0.5, 2.0, n))
    C, moments_peak = _traced_peak(lambda: moments(ops, noise).C)

    W_RR = dense_weights(g)[np.ix_(ops.graph.regular, ops.graph.regular)]
    scale = 1.0 / np.sqrt(ops.w)
    lam, Q = np.linalg.eigh(scale[:, None] * W_RR * scale[None, :])
    assert np.array_equal(lam, ops.eigvals) and np.array_equal(Q, ops.eigvecs)
    noise_t = (Q.T * (ops.w * noise.sigma2)) @ Q
    X = Q @ (noise_t / (1.0 - np.outer(lam, lam))) @ Q.T
    oracle = scale[:, None] * X * scale[None, :]
    oracle = (oracle + oracle.T) / 2.0
    assert np.array_equal(C, oracle)

    n2 = n * n * np.dtype(float).itemsize
    assert normalize_peak <= 2.5 * n2, normalize_peak / n2
    assert moments_peak <= 2.5 * n2, moments_peak / n2


def _rel(got, want):
    return np.linalg.norm(got - want) / np.linalg.norm(want)


def test_constant_noise_operator_matches_lyapunov():
    # w sigma^2 bitwise constant: Q' (t0 I) Q = t0 I, so the middle factor
    # is diagonal; C, C 1 and diag C still match the doubling solver
    cases = []
    for seed in range(5):
        ops = normalize(generate_random_regular(14, 3, seed, 3))
        cases.append((ops, NoiseModel.uniform(ops.n_regular, 1.3)))
    ops = normalize(generate_cycle(12, 1))
    assert abs(ops.eigvals[0] + ops.rho) <= 1e-12  # lambda = -rho
    cases.append((ops, NoiseModel.uniform(ops.n_regular, 0.7)))
    # irregular strengths, sigma^2 = 1 / w with w sigma^2 == 1 bit for bit:
    # a unit path over the regular nodes 1..8, each also tied to stubborn
    # node 0 by the integer weight that makes node k's strength 2^(k+1)
    path = np.arange(1, 8)
    degree = np.bincount(np.concatenate([path, path + 1]), minlength=9)[1:]
    to_stub = 2.0 ** np.arange(2, 10) - degree
    g = SocialGraph(9, np.concatenate([path, np.arange(1, 9)]),
                    np.concatenate([path + 1, np.zeros(8, int)]),
                    np.concatenate([np.ones(7), to_stub]), stubborn=(0,))
    ops = normalize(g)
    assert np.array_equal(ops.w, 2.0 ** np.arange(2, 10))
    cases.append((ops, NoiseModel(1.0 / ops.w)))

    for ops, noise in cases:
        t = ops.w * noise.sigma2
        assert np.all(t == t[0])
        mom = moments(ops, noise)
        assert mom.method_tag == "closed-form"
        C_ly = covariance_lyapunov(blocks(ops)[0], noise)
        ones = np.ones(ops.n_regular)
        assert _rel(mom.C, C_ly) <= 1e-10
        assert _rel(mom @ ones, C_ly @ ones) <= 1e-10
        assert _rel(mom.diagonal(), np.diag(C_ly)) <= 1e-10


def test_operator_products_match_the_dense_covariance():
    # where w sigma^2 varies, C 1 and diag C from the operator agree with
    # the dense C's to rounding
    cases = [random_instance(seed, n=12, n_stubborn=2)[:2] for seed in range(10)]
    g = generate_watts_strogatz(200, 4, 0.3, 3, 5)
    ops = normalize(g)
    cases.append((ops, NoiseModel(
        np.random.default_rng(3).uniform(0.5, 2.0, ops.n_regular))))
    for ops, noise in cases:
        t = ops.w * noise.sigma2
        assert not np.all(t == t[0])
        mom = moments(ops, noise)
        ones = np.ones(ops.n_regular)
        assert _rel(mom @ ones, mom.C @ ones) <= 1e-13
        assert _rel(mom.diagonal(), np.diag(mom.C)) <= 1e-13
        cols = np.eye(ops.n_regular)[:, :3]
        assert _rel(mom @ cols, mom.C[:, :3]) <= 1e-13


def test_operator_rows_shape_and_left_product():
    # mom[i] is row i of C in O(n^2), and v @ mom is (mom @ v)', so greedy
    # selection runs on the operator; only an int key gives a row
    cases = [random_instance(seed, n=12, n_stubborn=2)[:2] for seed in range(3)]
    ops = normalize(generate_watts_strogatz(200, 4, 0.3, 3, 5))
    cases.append((ops, NoiseModel(
        np.random.default_rng(3).uniform(0.5, 2.0, ops.n_regular))))
    ops = normalize(generate_random_regular(14, 3, 0, 3))
    cases.append((ops, NoiseModel.uniform(ops.n_regular, 1.3)))
    for ops, noise in cases:
        mom = moments(ops, noise)
        n = ops.n_regular
        assert mom.shape == (n, n)
        C = mom.C
        for i in (0, n // 2, n - 1, np.int64(1)):
            assert np.max(np.abs(mom[i] - C[i])) <= 1e-15 * np.max(np.abs(C))
        ones = np.ones(n)
        assert np.array_equal(ones @ mom, mom @ ones)
        assert var_y(mom) == pytest.approx(var_y(C), rel=1e-13)
    for key in ((0, 0), 1.0, slice(0, 2)):
        with pytest.raises(TypeError, match="int"):
            mom[key]


def _triangle_tail(W: float) -> SocialGraph:
    """Stubborn node 0 joined to node 1 by weight W, in the triangle 0-1-2
    with the tail 2-3-0 of unit weights."""
    return SocialGraph(4, [0, 1, 2, 2, 3], [1, 2, 0, 3, 0], [W, 1, 1, 1, 1],
                       [0])


@pytest.mark.parametrize("graph, W, accepted", [
    (chorded_ring, 1e16, True),     # residual 1.4e-9, C off by 2.4e-9
    (chorded_ring, 1e20, False),    # residual 2.5e-7, C off by 8.9e-7
    (chorded_ring, 1e50, False),    # residual 0.98, C off by 1e17
    (_triangle_tail, 1.45e307, True),
    (_triangle_tail, 1.5e307, False)])  # C off by 8.7%
def test_moments_refuses_a_covariance_that_misses_its_equation(graph, W,
                                                                accepted):
    # a wide range of regular strengths costs the spectral C its accuracy:
    # moments checks C 1 against its own Lyapunov equation and refuses,
    # naming the residual and the strengths, past a relative 1e-8; an
    # accepted C agrees with the doubling oracle to that order
    ops = normalize(graph(W))
    for sigma2 in (1.0, 3.0):
        noise = NoiseModel.uniform(ops.n_regular, sigma2)
        if accepted:
            C = moments(ops, noise).C
            oracle = covariance_lyapunov(blocks(ops)[0], noise)
            assert np.abs(C - oracle).max() <= 1e-8 * np.abs(oracle).max()
        else:
            with pytest.raises(NumericalError, match=(
                    r"^Lyapunov residual \S+ of the covariance exceeds 1e-08: "
                    rf"the regular strengths span 2\.0 to {re.escape(repr(W))}, "
                    r"too wide a range for the spectral solve$")):
                moments(ops, noise)


def _longdouble_covariance(g: SocialGraph, sigma2: np.ndarray) -> np.ndarray:
    """C = A C A' + Sigma by squaring-doubling in ``np.longdouble``, from the
    edge weights, until a step adds at most longdouble eps of max |C|."""
    W = dense_weights(g).astype(np.longdouble)
    R = list(g.regular)
    A = W[np.ix_(R, R)] / W.sum(axis=1)[R][:, None]
    C = np.diag(sigma2.astype(np.longdouble))
    tol = np.finfo(np.longdouble).eps
    for _ in range(200):
        inc = A @ C @ A.T
        C = C + inc
        if np.abs(inc).max() <= tol * np.abs(C).max():
            return (C + C.T) / 2
        A = A @ A
    raise AssertionError("longdouble doubling did not converge")


def _longdouble_f(C: np.ndarray, K: list[int]) -> np.longdouble:
    """F(K) = (C1)_K' C_KK^-1 (C1)_K by pivot updates in C's own dtype: the
    sum over pivots of the eliminated (C1)_j^2 / the eliminated C_jj."""
    v = C.sum(axis=1)[K]
    M = C[np.ix_(K, K)]
    F = 0
    for j in range(len(K)):
        p = M[j, j]
        F += v[j] * v[j] / p
        v[j + 1:] -= M[j + 1:, j] * (v[j] / p)
        M[j + 1:, j + 1:] -= np.outer(M[j + 1:, j], M[j, j + 1:] / p)
    return F


@pytest.mark.skipif(not np.finfo(np.longdouble).eps < 1e-18,
                    reason="np.longdouble is no wider than float64 here")
@pytest.mark.parametrize("eps_stubborn", [1e-6, 1e-7])
def test_slow_mixing_against_longdouble_oracle(eps_stubborn):
    # stubborn-incident weights scaled by eps_stubborn leave 1 - rho at
    # about 6.9e-8 and 6.9e-9. C loses digits like eps / (1 - rho), and G
    # like eps var_y / G from the cancellation in var_y - F; both are held
    # to 100 times that scale, and greedy's picks to those on the oracle C
    base = generate_watts_strogatz(64, 6, 0.2, 5, 4)
    stubborn = set(base.stubborn)
    touches = np.array([i in stubborn or j in stubborn
                        for i, j in zip(base.edge_i, base.edge_j)])
    g = SocialGraph(base.n_nodes, base.edge_i, base.edge_j,
                    np.where(touches, base.edge_weights * eps_stubborn,
                             base.edge_weights), base.stubborn)
    sigma2 = np.random.default_rng(1).uniform(0.5, 2.0, len(g.regular))
    ops = normalize(g)
    gap = 1.0 - ops.rho
    assert gap < 1e-7
    eps = np.finfo(float).eps
    C = moments(ops, NoiseModel(sigma2)).C
    X = _longdouble_covariance(g, sigma2)
    assert np.max(np.abs(C - X) / np.abs(X)) <= 100 * eps / gap
    res = greedy_select(C, 10)
    assert res.chosen == greedy_select(X.astype(float), 10).chosen
    total = X.sum()
    G = total - _longdouble_f(X, list(res.chosen))
    assert abs(res.g_values[-1] - G) / G <= 100 * eps * total / G
