"""End-to-end acceptance checks.

One test per acceptance criterion, each ending in a single PASS line (pytest
shows a FAILED line otherwise).  These exercise the library through its public
API only; tolerances and instance sizes are fixed, seeds are frozen so every
run sees the same instances.

Criterion 2 is split in two.  The first test covers the regime where the
direct covariance formula is provably valid (symmetric averaging operator,
commuting noise).  The second covers irregular graphs: with noise
proportional to degree the candidate Sigma (I - A^2)^{-1} is symmetric but
not the stationary covariance, and the test asserts that the guard rejects it
and that moments() still returns the stationary covariance; with noise
inversely proportional to degree the direct form (I - A^2)^{-1} Sigma is
exact, and the test asserts it and moments() against the stationary solver
(see test body).
"""

import itertools
import math
import time

import numpy as np
import pytest

from opinionselect import (BudgetExceededError, NoiseModel, bonacich,
                           eta_scores, exact_select, f_score,
                           generate_random_reachable,
                           generate_random_regular, generate_watts_strogatz,
                           greedy_select, moments, normalize, ranking_report,
                           var_y, var_reduction_scores)
from opinionselect.equilibrium import covariance_lyapunov
from opinionselect.validation import (blocks, empirical_moments, greedy_ratio,
                                      mean, simulate, submodularity_audit)
from conftest import (covariance_closed_form, dense_intercentrality, g_score,
                      gains_by_round, graph_from_dense, precision)

MC_SEED = 11  # frozen: worst standardized deviation 2.48 over all checks


def _hetero_instance(seed, n, n_stubborn=2):
    rng = np.random.default_rng(seed)
    g = generate_random_reachable(n, n_stubborn, seed)
    ops = normalize(g)
    noise = NoiseModel(rng.uniform(0.5, 2.0, ops.n_regular))
    return ops, noise


def test_criterion_01_lyapunov_correctness():
    t0 = time.perf_counter()
    rng = np.random.default_rng(100)
    for trial in range(100):
        n = int(rng.integers(6, 54))  # up to 50 regular nodes
        ops, noise = _hetero_instance(1000 + trial, n, 3)
        assert ops.n_regular <= 50
        A = blocks(ops)[0]
        C = covariance_lyapunov(A, noise)
        residual = C - A @ C @ A.T - np.diag(noise.sigma2)
        assert np.linalg.norm(residual) <= 1e-10 * np.linalg.norm(C)
        assert np.linalg.eigvalsh(C).min() > 0
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    print(f"PASS criterion 1: stationarity residual <= 1e-10 rel and C > 0 "
          f"on 100 graphs in {elapsed:.2f}s")


def test_criterion_02_closed_form_valid_regime_and_statistics():
    # uniform noise on degree-regular graphs: noise proportional to degree
    # holds trivially, the averaging operator is symmetric, and the direct
    # formula is the true stationary covariance
    checked = 0
    for seed in range(40):
        n, d = [(9, 2), (10, 3), (8, 3), (12, 4)][seed % 4]
        g = generate_random_regular(n, d, seed, 2)
        ops = normalize(g)
        noise = NoiseModel.uniform(ops.n_regular, 0.5 + 0.05 * seed)
        cf = covariance_closed_form(blocks(ops)[0], noise)
        assert cf.accepted, f"rejected on regular instance seed={seed}"
        C = covariance_lyapunov(blocks(ops)[0], noise)
        rel = np.linalg.norm(cf.covariance - C) / np.linalg.norm(C)
        assert rel <= 1e-8
        checked += 1
    # acceptance/rejection statistics on heterogeneous irregular instances
    accepted = rejected = 0
    for seed in range(50):
        ops, noise = _hetero_instance(seed, 12, 2)
        cf = covariance_closed_form(blocks(ops)[0], noise)
        accepted += cf.accepted
        rejected += not cf.accepted
    print(f"PASS criterion 2 (valid regime): direct formula accepted and "
          f"matches the stationary solver <= 1e-8 rel on {checked} regular "
          f"instances; heterogeneous irregular instances: {accepted} "
          f"accepted, {rejected} rejected")


def test_criterion_02_closed_form_noise_proportional_to_degree_irregular():
    # Noise proportional to degree, sigma_i^2 = c w_i: with D the node
    # strengths, A = D^{-1/2} S D^{1/2} with S symmetric, so the candidate
    # Sigma (I - A^2)^{-1} = c D^{1/2} (I - S^2)^{-1} D^{1/2} is exactly
    # symmetric, but it does not satisfy C = A C A' + Sigma unless D commutes
    # with S.  The candidate is a trap: the guard must reject it on its
    # Lyapunov residual, and moments() must tag the instance "lyapunov" and
    # return the stationary covariance, not the candidate.
    #
    # Noise inversely proportional to degree, sigma_i^2 = c / w_i (per-edge
    # transmission errors averaged over an unweighted neighbourhood): here
    # A Sigma = c D^{-1} W_RR D^{-1} is symmetric, so A Sigma A' = A^2 Sigma
    # and C = (I - A^2)^{-1} Sigma exactly; moments() tags this regime
    # "closed-form".  This is not the fast path's ordering
    # Sigma (I - A^2)^{-1}, which is asymmetric here; it may only be accepted
    # if it is right.
    min_residual = min_rel = np.inf
    worst_direct = worst_moments = 0.0
    accepted_inverse = 0
    for seed in range(20):
        g = generate_random_reachable(12, 2, seed)
        ops = normalize(g)
        w = ops.w

        noise = NoiseModel(0.7 * w)
        cf = covariance_closed_form(blocks(ops)[0], noise)
        C = covariance_lyapunov(blocks(ops)[0], noise)
        rel = np.linalg.norm(cf.covariance - C) / np.linalg.norm(C)
        assert cf.asymmetry <= 1e-10, f"candidate not symmetric (seed={seed})"
        assert not cf.accepted, (
            f"guard accepted a candidate that is not the stationary "
            f"covariance: relative error {rel:.3e} (seed={seed})")
        assert cf.lyapunov_residual > 1e-2, (
            f"residual {cf.lyapunov_residual:.3e} (seed={seed})")
        assert rel > 1e-2, f"relative error {rel:.3e} (seed={seed})"
        m = moments(ops, noise)
        assert m.method_tag == "lyapunov"
        rel_m = np.linalg.norm(m.C - C) / np.linalg.norm(C)
        assert rel_m <= 1e-12, (
            f"moments() is not the stationary covariance: relative error "
            f"{rel_m:.3e} (seed={seed})")
        worst_moments = max(worst_moments, rel_m)
        min_residual = min(min_residual, cf.lyapunov_residual)
        min_rel = min(min_rel, rel)

        noise = NoiseModel(0.7 / w)
        A = blocks(ops)[0]
        C = covariance_lyapunov(A, noise)
        direct = np.linalg.solve(np.eye(ops.n_regular) - A @ A,
                                 np.diag(noise.sigma2))  # (I - A^2)^{-1} Sigma
        rel = np.linalg.norm(direct - C) / np.linalg.norm(C)
        assert rel <= 1e-8, (
            f"(I - A^2)^-1 Sigma is not the stationary covariance under "
            f"inverse-degree noise: relative error {rel:.3e} (seed={seed})")
        worst_direct = max(worst_direct, rel)
        m = moments(ops, noise)
        assert m.method_tag == "closed-form", f"regime not tagged (seed={seed})"
        rel_m = np.linalg.norm(m.C - direct) / np.linalg.norm(direct)
        assert rel_m <= 1e-8, (
            f"moments() differs from (I - A^2)^-1 Sigma: relative error "
            f"{rel_m:.3e} (seed={seed})")
        cf = covariance_closed_form(blocks(ops)[0], noise)
        if cf.accepted:
            accepted_inverse += 1
            assert (np.linalg.norm(cf.covariance - C) / np.linalg.norm(C)
                    <= 1e-8), f"accepted a wrong candidate (seed={seed})"
    print("PASS criterion 2 (irregular): sigma^2 ~ w candidate symmetric but "
          f"rejected on 20/20 (min residual {min_residual:.2e}, min relative "
          f"error {min_rel:.2e}), moments() matches the stationary solver "
          f"<= {worst_moments:.2e} rel; sigma^2 ~ 1/w (I - A^2)^-1 Sigma "
          f"matches <= {worst_direct:.2e} rel and moments() is tagged "
          f"closed-form, fast path accepted on {accepted_inverse}/20")


def test_criterion_03_conservation():
    for seed in range(50):
        ops, noise = _hetero_instance(seed, 10, 2)
        assert ops.n_regular <= 8
        C = covariance_lyapunov(blocks(ops)[0], noise)
        H = precision(C)
        total = var_y(C)
        m = C.shape[0]
        for r in range(m + 1):
            for K in itertools.combinations(range(m), r):
                assert abs(f_score(C, K) + g_score(H, K) - total) \
                    <= 1e-9 * total
    print("PASS criterion 3: f + g = total variance <= 1e-9 rel, "
          "all subsets, 50 instances")


def test_criterion_04_submodularity_audit():
    t0 = time.perf_counter()
    configs = [(9, 2, 2), (8, 3, 2), (9, 4, 2), (7, 2, 1), (8, 2, 1)]
    n_instances = 0
    worst_f = worst_g = np.inf
    while n_instances < 200:
        n, d, n_stub = configs[n_instances % len(configs)]
        g = generate_random_regular(n, d, 5000 + n_instances, n_stub)
        ops = normalize(g)
        assert ops.n_regular <= 7
        noise = NoiseModel.uniform(ops.n_regular, 1.0)
        cf = covariance_closed_form(blocks(ops)[0], noise)
        assert cf.accepted
        rep = submodularity_audit(cf.covariance)
        assert rep.violations_f == 0, f"instance {n_instances}"
        assert rep.violations_g == 0, f"instance {n_instances}"
        worst_f = min(worst_f, rep.min_slack_f)
        worst_g = min(worst_g, rep.min_slack_g)
        n_instances += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    print(f"PASS criterion 4: zero diminishing-returns violations on "
          f"{n_instances} instances (min slack f {worst_f:.2e}, "
          f"g {worst_g:.2e}) in {elapsed:.2f}s")


def test_criterion_05_greedy_guarantee():
    bound = 1.0 - 1.0 / math.e
    ratios = []
    for seed in range(30):
        n = 6 + seed % 11  # up to 16 regular after removing stubborn
        ops, noise = _hetero_instance(seed, n + 2, 2)
        assert ops.n_regular <= 16
        C = covariance_lyapunov(blocks(ops)[0], noise)
        s = 1 + seed % 5
        ratio = greedy_ratio(C, min(s, C.shape[0]))
        assert ratio >= bound - 1e-9
        ratios.append(ratio)
    # seeded small-world reproduction, every feasible budget up to 5
    ops = normalize(generate_watts_strogatz(15, 4, 0.3, 7, 3))
    C = covariance_lyapunov(blocks(ops)[0],
                            NoiseModel.uniform(ops.n_regular, 1.0))
    for s in range(1, 6):
        ratio = greedy_ratio(C, s)
        assert ratio >= bound - 1e-9
        ratios.append(ratio)
    print(f"PASS criterion 5: greedy/exact ratio >= 1-1/e on all instances "
          f"(min {min(ratios):.6f}, mean {np.mean(ratios):.6f})")


def test_criterion_06_incremental_equals_direct(gain_calls):
    rng = np.random.default_rng(60)
    for trial in range(100):
        n = int(rng.integers(12, 204)) if trial % 10 else 203
        ops, noise = _hetero_instance(2000 + trial, n, 3)
        assert ops.n_regular <= 200
        C = covariance_lyapunov(blocks(ops)[0], noise)
        m = C.shape[0]
        s = int(min(20, m, rng.integers(2, 21)))
        gain_calls.clear()
        res = greedy_select(C, s)
        # every gain greedy computed, on every prefix, and the running F
        for t, by_candidate in enumerate(gains_by_round(gain_calls, m,
                                                        res.chosen)):
            K = list(res.chosen[:t])
            f_here = f_score(C, K)
            assert res.f_values[t] == pytest.approx(f_here, rel=1e-8,
                                                    abs=1e-10)
            for i, call in by_candidate.items():
                direct = f_score(C, K + [i]) - f_here
                assert call.gain == pytest.approx(direct, rel=1e-8, abs=1e-10)
        assert res.f_values[s] == pytest.approx(f_score(C, res.chosen),
                                                rel=1e-8, abs=1e-10)
    print("PASS criterion 6: every incremental gain and running value "
          "matches from-scratch evaluation <= 1e-8 rel on 100 greedy runs")


def test_criterion_07_evaluation_count_law():
    for seed, (n, s) in enumerate([(10, 1), (12, 4), (30, 10), (15, 13),
                                   (40, 20)]):
        ops, noise = _hetero_instance(3000 + seed, n + 2, 2)
        C = covariance_lyapunov(blocks(ops)[0], noise)
        m = C.shape[0]
        s_eff = min(s, m)
        res = greedy_select(C, s_eff)
        assert res.eval_count == m * s_eff - s_eff * (s_eff - 1) // 2
    print("PASS criterion 7: greedy performs exactly n*s - s(s-1)/2 gain "
          "evaluations")


def test_criterion_08_runtime_scaling():
    g = generate_watts_strogatz(86, 8, 0.1, 1, 3)
    ops = normalize(g)
    C = covariance_lyapunov(blocks(ops)[0],
                            NoiseModel.uniform(ops.n_regular, 1.0))

    def best_time(s, reps=5):
        best = np.inf
        for _ in range(reps):
            t0 = time.perf_counter()
            greedy_select(C, s)
            best = min(best, time.perf_counter() - t0)
        return best

    t5, t10 = best_time(5), best_time(10)
    assert t10 <= 10.0 * t5
    assert t10 < 1.0
    n_subsets = math.comb(ops.n_regular, 10)
    assert n_subsets > 10 ** 7
    with pytest.raises(BudgetExceededError):
        exact_select(C, 10)
    print(f"PASS criterion 8: doubling the budget scales greedy time "
          f"{t10 / t5:.2f}x (<= 10x), s=10 on the 86-node graph takes "
          f"{t10 * 1e3:.1f}ms (< 1s); exact enumeration of {n_subsets:.1e} "
          f"subsets correctly refused")


def test_criterion_09_monte_carlo_moments():
    W = np.array([[0., 1., 0.], [1., 0., 1.], [0., 1., 0.]])
    chain = normalize(graph_from_dense(W, (2,)))
    ws = normalize(generate_watts_strogatz(15, 4, 0.3, 7, 3))
    instances = [(chain, np.array([1.0, 0.5])),
                 (ws, np.linspace(0.5, 1.5, ws.n_regular))]
    worst = 0.0
    for ops, sigma2 in instances:
        noise = NoiseModel(sigma2)
        C = covariance_lyapunov(blocks(ops)[0], noise)
        u = np.linspace(0.0, 1.0, len(ops.graph.stubborn))
        mu = mean(ops, u)
        for family in ("gaussian", "uniform", "rademacher"):
            emp = empirical_moments(simulate(ops, noise, u, replicas=100_000,
                                             seed=MC_SEED, family=family))
            z_mean = np.max(np.abs(emp.mean - mu) / emp.se_mean)
            z_cov = np.max(np.abs(emp.cov - C) / emp.se_cov)
            worst = max(worst, z_mean, z_cov)
            assert z_mean <= 3.0, f"{family}: mean off by {z_mean:.2f} SE"
            assert z_cov <= 3.0, f"{family}: covariance off by {z_cov:.2f} SE"
    print(f"PASS criterion 9: sample moments within 3 SE of predictions for "
          f"all three noise families on both instances "
          f"(worst {worst:.2f} SE)")


def test_criterion_10_single_node_identities():
    for seed in range(100):
        g = generate_random_reachable(11, 2, 4000 + seed)
        ops = normalize(g)
        eta = eta_scores(ops).scores
        A = blocks(ops)[0]
        ic = dense_intercentrality(A @ A, 1.0)
        assert np.allclose(eta, ic, rtol=1e-10, atol=0.0)
    # single-node variance reduction on instances with an exact direct form
    for seed in range(20):
        g = generate_random_regular(10, 3, seed, 2)
        ops = normalize(g)
        sigma2 = 0.5 + 0.1 * seed
        noise = NoiseModel.uniform(ops.n_regular, sigma2)
        cf = covariance_closed_form(blocks(ops)[0], noise)
        assert cf.accepted
        eta = eta_scores(ops).scores
        for k in range(ops.n_regular):
            f_k = f_score(cf.covariance, [k])
            assert f_k == pytest.approx(sigma2 * eta[k], rel=1e-10)
    print("PASS criterion 10: eta equals the key-player score of the 2-hop "
          "operator (1e-10, 100 graphs); single-node variance reduction is "
          "sigma_k^2 * eta_k — the variance sigma_k^2 enters, not the "
          "standard deviation sigma_k")


def test_criterion_11_qualitative_curves_and_rankings():
    ops = normalize(generate_watts_strogatz(15, 4, 0.3, 7, 3))
    C = covariance_lyapunov(blocks(ops)[0],
                            NoiseModel.uniform(ops.n_regular, 1.0))
    m = C.shape[0]
    res = greedy_select(C, m)
    fracs = [g / res.var_y for g in res.g_values]
    assert fracs[0] == pytest.approx(1.0)
    assert all(fracs[t + 1] <= fracs[t] + 1e-12 for t in range(m))
    for s in range(6):
        exact = exact_select(C, s)
        frac_exact = exact.g_values[-1] / exact.var_y
        assert fracs[s] >= frac_exact - 1e-9  # greedy residual >= optimum
    scores = [var_reduction_scores(C), bonacich(ops, 1.0)]
    taus = ranking_report(scores)
    assert all(abs(max(s.normalized) - 1.0) < 1e-12 for s in scores)
    same = len({s.argmax for s in scores}) == 1
    tau = taus[("var_reduction", "bonacich")]
    print(f"PASS criterion 11: residual curves nonincreasing, greedy >= "
          f"exact pointwise; top-ranked node {'agrees' if same else 'differs'}"
          f" across the two measures (rank correlation {tau:.3f})")
