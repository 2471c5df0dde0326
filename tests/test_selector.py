import itertools
import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest

from opinionselect import (BudgetExceededError, NoiseModel, exact_curve,
                           exact_select, f_score, generate_cycle,
                           generate_random_regular, generate_watts_strogatz,
                           greedy_select, moments, normalize, var_y)
from opinionselect.equilibrium import EquilibriumMoments
from opinionselect.objective import SCHUR_GUARD
from opinionselect.selector import (EXACT_BUDGET, TIE_RTOL, _walk,
                                    check_exact_budget, marginal_gain)
from opinionselect.errors import NumericalError
from opinionselect.validation import (GREEDY_BOUND, AuditReport, blocks,
                                      check_audit_budget, greedy_ratio,
                                      submodularity_audit)
from conftest import (covariance_closed_form, g_score, gains_by_round,
                      naive_best_subset, naive_f, precision, random_instance,
                      scalar_greedy)


def test_marginal_gain_from_empty_equals_single_node_score(gain_calls):
    _, _, C = random_instance(0, n=8)
    c1 = C @ np.ones(C.shape[0])
    res = greedy_select(C, 1)
    (first,) = gains_by_round(gain_calls, C.shape[0], res.chosen)
    for i, call in first.items():
        assert call.gain == pytest.approx(c1[i] ** 2 / C[i, i], rel=1e-12)
        assert call.gain == pytest.approx(f_score(C, [i]), rel=1e-10)


def test_marginal_gain_diagonal_independent_of_state(gain_calls):
    sigma2 = np.array([1.0, 3.0, 2.0, 0.5])
    C = np.diag(sigma2)
    res = greedy_select(C, 2)
    assert res.chosen[0] == 1
    second = gains_by_round(gain_calls, 4, res.chosen)[1]
    for i, call in second.items():
        assert call.gain == pytest.approx(sigma2[i])


def _check_gains_against_direct(C, res, calls, rel, abs_):
    """Every gain greedy computed, and every running value F(K), against
    ``f_score`` on the same prefix K."""
    n = C.shape[0]
    for t, by_candidate in enumerate(gains_by_round(calls, n, res.chosen)):
        K = list(res.chosen[:t])
        f_here = f_score(C, K)
        assert res.f_values[t] == pytest.approx(f_here, rel=rel, abs=abs_)
        for i, call in by_candidate.items():
            direct = f_score(C, K + [i]) - f_here
            assert call.gain == pytest.approx(direct, rel=rel, abs=abs_)
    assert res.f_values[-1] == pytest.approx(f_score(C, res.chosen),
                                             rel=rel, abs=abs_)


def test_marginal_gain_matches_direct_evaluation_exhaustive(gain_calls):
    # every greedy prefix, every candidate, |R| <= 8
    for seed in range(10):
        _, _, C = random_instance(seed, n=8, n_stubborn=2)
        gain_calls.clear()
        res = greedy_select(C, C.shape[0])
        _check_gains_against_direct(C, res, gain_calls, 1e-8, 1e-12)


def test_marginal_gain_random_larger_instances(gain_calls):
    # the sizes of an earlier check that inserted random candidates: the
    # generator draws a size, then one candidate per insertion
    rng = np.random.default_rng(42)
    for trial in range(100):
        n = int(rng.integers(10, 40))
        _, _, C = random_instance(trial, n=n + 3, n_stubborn=3)
        m = C.shape[0]
        s = min(5, m)
        for t in range(s):
            rng.integers(0, m - t)
        gain_calls.clear()
        res = greedy_select(C, s)
        _check_gains_against_direct(C, res, gain_calls, 1e-8, 1e-12)


def test_marginal_gain_degenerate_schur(gain_calls):
    # d_i at or below SCHUR_GUARD * c_ii is degenerate and, like a picked
    # candidate, gets -inf without being divided, so no warning is raised
    gains = marginal_gain(np.array([3.0, 1.0, 1.0, 1.0, 3.0]),
                          np.array([2.0, 0.0, SCHUR_GUARD * 2.0, -1e-3, 2.0]),
                          np.array([4.0, 2.0, 2.0, 2.0, 4.0]),
                          np.array([False, False, False, False, True]))
    assert gains[0] == pytest.approx(4.5)
    assert gains[1:].tolist() == [-math.inf] * 4
    # duplicate a row/column: C stays PSD but the Schur complement vanishes,
    # so once node 0 is picked greedy skips node 2 with a warning
    base = np.array([[2.0, 1.0], [1.0, 2.0]])
    C = np.zeros((3, 3))
    C[:2, :2] = base
    C[2, :2] = base[0]
    C[:2, 2] = base[0]
    C[2, 2] = base[0, 0]
    gain_calls.clear()
    with pytest.warns(UserWarning, match=r"skipping 1 candidate\(s\) in round "
                      "2: degenerate Schur complement$") as record:
        res = greedy_select(C, 2)
    assert len(record) == 1
    assert res.chosen == (0, 1)
    second = gains_by_round(gain_calls, 3, res.chosen)[1]
    assert second[2].degenerate


def test_greedy_conditional_state_matches_explicit_inverse(gain_calls):
    # r = (C|K)1, d = diag(C|K) and F(K) on every greedy prefix K, with
    # C|K = C - C_:K C_KK^-1 C_K through an explicit inverse
    _, _, C = random_instance(2, n=9)
    n = C.shape[0]
    ones = np.ones(n)
    res = greedy_select(C, 5)
    for t, by_candidate in enumerate(gains_by_round(gain_calls, n,
                                                    res.chosen)):
        K = list(res.chosen[:t])
        cond = C - C[:, K] @ np.linalg.inv(C[np.ix_(K, K)]) @ C[K]
        rest = list(by_candidate)
        r = np.array([call.r for call in by_candidate.values()])
        d = np.array([call.d for call in by_candidate.values()])
        assert np.linalg.norm(r - (cond @ ones)[rest]) < 1e-8
        assert np.linalg.norm(d - np.diag(cond)[rest]) < 1e-8
        assert [call.c for call in by_candidate.values()] == \
            C.diagonal()[rest].tolist()
        assert res.f_values[t] == pytest.approx(f_score(C, K), rel=1e-8)
    assert res.f_values[5] == pytest.approx(f_score(C, res.chosen), rel=1e-8)


def test_greedy_diagonal_picks_largest_variances():
    C = np.diag(np.array([1.0, 5.0, 3.0, 2.0]))
    res = greedy_select(C, 2)
    assert res.chosen == (1, 2)
    assert res.gains == pytest.approx((5.0, 3.0))


def test_greedy_skips_degenerate_twin(gain_calls):
    # node n duplicates node j: once j is chosen, (C|K)_nn = 0 and greedy
    # skips the twin with a warning in every later round
    _, _, C0 = random_instance(3, n=12, n_stubborn=2)
    n = C0.shape[0]
    j = greedy_select(C0, 1).chosen[0]
    idx = list(range(n)) + [j]
    C = C0[np.ix_(idx, idx)]
    gain_calls.clear()
    with pytest.warns(UserWarning) as record:
        res = greedy_select(C, n)
    skips = [str(w.message) for w in record
             if "degenerate Schur" in str(w.message)]
    assert sorted(res.chosen) == list(range(n))   # the twin is never picked
    # one warning per round after j's pick, each skipping the twin alone
    assert skips == [f"skipping 1 candidate(s) in round {t + 1}: degenerate "
                     "Schur complement"
                     for t in range(res.chosen.index(j) + 1, n)] != []
    assert res.skipped == len(skips)
    assert res.eval_count == (n + 1) * n - n * (n - 1) // 2
    # marginal_gain evaluates every candidate, the degenerate ones included
    rounds = gains_by_round(gain_calls, n + 1, res.chosen)
    assert sum(map(len, rounds)) == res.eval_count
    degenerate = [c for rnd in rounds for c in rnd.values() if c.degenerate]
    assert len(degenerate) == len(skips)
    for t in range(n + 1):
        assert res.f_values[t] == pytest.approx(f_score(C, res.chosen[:t]),
                                                rel=1e-8, abs=1e-12)


def test_greedy_warns_once_per_round():
    # each of 200 nodes has a twin; once t nodes are picked, their t twins
    # are degenerate, so round t + 1 skips t candidates in one warning
    X = np.random.default_rng(0).normal(size=(200, 200))
    C = np.kron(np.ones((2, 2)), X @ X.T + 200 * np.eye(200))
    res, texts = _run_recording_warnings(greedy_select, C, 150)
    assert texts == [f"skipping {t} candidate(s) in round {t + 1}: "
                     "degenerate Schur complement" for t in range(1, 150)]
    assert res.skipped == 149 * 150 // 2 == 11175
    assert len({i % 200 for i in res.chosen}) == 150     # no twin picked


def test_greedy_eval_count_law(gain_calls):
    # eval_count and the candidates marginal_gain evaluates: n s - s(s-1)/2,
    # in one round function call per pick
    for seed, (n, s) in enumerate([(8, 3), (12, 5), (20, 7), (15, 15)]):
        _, _, C = random_instance(seed, n=n + 2, n_stubborn=2)
        m = C.shape[0]
        s_eff = min(s, m)
        gain_calls.clear()
        res = greedy_select(C, s_eff)
        assert res.eval_count == m * s_eff - s_eff * (s_eff - 1) // 2
        assert len(gain_calls) == s_eff
        rounds = gains_by_round(gain_calls, m, res.chosen)
        assert sum(map(len, rounds)) == res.eval_count


def _run_recording_warnings(select, C, s):
    """select(C, s) and the text of every warning it raised, in order; the
    result is the ``NumericalError`` instead when it raised one."""
    with warnings.catch_warnings(record=True) as record:
        warnings.simplefilter("always")
        try:
            res = select(C, s)
        except NumericalError as exc:
            res = exc
    return res, [str(w.message) for w in record]


def _bits(res):
    if isinstance(res, NumericalError):
        return str(res)
    assert type(res.skipped) is int and 0 <= res.skipped <= res.eval_count
    assert all(type(x) is float
               for x in (*res.gains, *res.f_values, res.var_y))
    return (res.chosen, [g.hex() for g in res.gains],
            [f.hex() for f in res.f_values], res.var_y.hex(), res.eval_count,
            res.skipped, res.method)


def _oracle_cases(form):
    """(C, s) pairs in ``form``, dense or the ``moments`` operator: random
    heterogeneous instances up to s = n, the degenerate twin, a 12-node
    cycle whose mirror nodes tie, and a C whose candidates are all
    degenerate."""
    def as_form(C):
        # a covariance operator whose C is the given one: P = C, Q = I
        n = C.shape[0]
        return C if form == "dense" else EquilibriumMoments(
            "lyapunov", C, np.eye(n), np.ones(n))

    for seed in range(6):
        ops, noise, C = random_instance(seed, n=12 + 2 * seed, n_stubborn=2)
        mom = moments(ops, noise)
        for s in (1, C.shape[0] // 2, C.shape[0]):
            yield (C, s) if form == "dense" else (mom, s)
    _, _, C0 = random_instance(3, n=12, n_stubborn=2)
    j = greedy_select(C0, 1).chosen[0]
    idx = list(range(C0.shape[0])) + [j]
    yield as_form(C0[np.ix_(idx, idx)]), len(idx) - 1
    ops = normalize(generate_cycle(12, 1))
    mom = moments(ops, NoiseModel.uniform(ops.n_regular, 1.0))
    for s in (1, 2, 5, ops.n_regular):
        yield (mom.C, s) if form == "dense" else (mom, s)
    yield as_form(np.zeros((3, 3))), 1


@pytest.mark.parametrize("form", ["dense", "operator"])
def test_greedy_equals_scalar_oracle_bit_for_bit(form):
    # the vectorised round against one scalar gain call per candidate:
    # picks, gains, F, eval_count, skips and warning texts all identical
    seen_skip = seen_raise = False
    for C, s in _oracle_cases(form):
        got, got_warnings = _run_recording_warnings(greedy_select, C, s)
        want, want_warnings = _run_recording_warnings(scalar_greedy, C, s)
        assert _bits(got) == _bits(want)
        assert got_warnings == want_warnings
        assert all(re.fullmatch(r"skipping \d+ candidate\(s\) in round \d+: "
                                "degenerate Schur complement", w)
                   for w in want_warnings)
        seen_skip |= bool(want_warnings)
        seen_raise |= isinstance(want, NumericalError)
    assert seen_skip and seen_raise


def test_greedy_gains_nonincreasing_and_consistent():
    for seed in range(10):
        _, _, C = random_instance(seed, n=14, n_stubborn=3)
        res = greedy_select(C, 6)
        gains = np.array(res.gains)
        assert np.all(gains >= -1e-12)
        assert np.all(np.diff(gains) <= 1e-9 * (1 + gains[:-1]))
        assert np.allclose(np.diff(res.f_values), gains)
        assert np.allclose(np.array(res.f_values) + np.array(res.g_values),
                           res.var_y)


def test_greedy_on_the_operator_matches_the_dense_covariance():
    # on the moments operator greedy reads C 1, diag C and one row per pick;
    # picks, count and F agree with greedy on the dense C
    cases = []
    for seed in range(3):
        ops = normalize(generate_watts_strogatz(60, 4, 0.3, seed, 4))
        rng = np.random.default_rng(seed)
        cases += [(ops, NoiseModel.uniform(ops.n_regular, 1.0)),
                  (ops, NoiseModel(rng.uniform(0.5, 2.0, ops.n_regular)))]
    ops = normalize(generate_random_regular(40, 4, 3, 4))
    cases.append((ops, NoiseModel.uniform(ops.n_regular, 1.0)))
    for ops, noise in cases:
        mom = moments(ops, noise)
        on_op, dense = greedy_select(mom, 12), greedy_select(mom.C, 12)
        assert on_op.chosen == dense.chosen
        assert on_op.eval_count == dense.eval_count
        tol = 1e-12 * dense.var_y
        assert abs(on_op.var_y - dense.var_y) <= tol
        assert np.max(np.abs(np.subtract(on_op.f_values,
                                         dense.f_values))) <= tol


def test_selection_sizes_must_be_integers():
    # True would run as s = 1, and 2.0 would raise a bare TypeError
    C = np.diag([3.0, 2.0, 1.0])
    for select in (greedy_select, exact_select):
        for bad in (True, 2.0, "2"):
            with pytest.raises(ValueError, match=re.escape(f"s={bad!r}")):
                select(C, bad)
        with pytest.raises(ValueError, match="s=4 out of range"):
            select(C, 4)
        assert select(C, np.int64(2)).chosen == (0, 1)


def test_selection_refuses_a_non_finite_covariance():
    # a NaN on the diagonal would let greedy pick past it (the near-best
    # floor never rises) and one off it would call every candidate
    # degenerate; greedy refuses all three as exact does
    C = np.array([[1.0, 0.1, 0.0], [0.1, 1.0, 0.2], [0.0, 0.2, 3.0]])
    for i, j, bad in ((0, 0, np.nan), (0, 1, np.nan), (2, 2, np.inf)):
        M = C.copy()
        M[i, j] = M[j, i] = bad
        for select in (greedy_select, exact_select):
            with pytest.raises(ValueError, match="infs or NaNs"):
                select(M, 1)


def test_greedy_deterministic():
    _, _, C = random_instance(5, n=15, n_stubborn=3)
    r1, r2 = greedy_select(C, 5), greedy_select(C, 5)
    assert r1.chosen == r2.chosen
    assert r1.gains == r2.gains
    assert r1.f_values == r2.f_values


def test_greedy_tie_break_smallest_id():
    C = np.diag([2.0, 2.0, 1.0])
    res = greedy_select(C, 2)
    assert res.chosen == (0, 1)


def test_near_ties_go_to_the_smallest_id():
    # gains or F values within TIE_RTOL of the best tie, so rounding does
    # not decide the pick
    C = np.diag([2.0, 2.0 + 4e-15, 1.0])
    assert greedy_select(C, 1).chosen == (0,)
    assert exact_select(C, 1).chosen == (0,)
    # a later, clearly better value drops the earlier near-ties
    C = np.diag([1.0, 1.0 + 4e-15, 2.0, 2.0 + 4e-15])
    assert greedy_select(C, 1).chosen == (2,)
    assert exact_select(C, 1).chosen == (2,)
    res = exact_select(C, 2)
    assert res.chosen == (2, 3) and res.eval_count == math.comb(4, 2)


def _brute_near_best(values):
    """The tie rule in scalars: the row-major positions at or above
    v - TIE_RTOL |v|, v the largest entry, none when every entry is -inf."""
    flat = [float(v) for v in np.ravel(values)]
    top = max(flat)
    if top == -math.inf:
        return []
    return [j for j, v in enumerate(flat) if v >= top - TIE_RTOL * abs(top)]


@pytest.mark.parametrize("seed", range(6))
def test_near_best_states_the_tie_rule(seed):
    # seeded vectors and matrices, some all negative, with near-ties planted
    # 0.5e-9 (inside TIE_RTOL) and 2e-9 (outside) below the best, and -inf
    # entries for skipped ones
    rng = np.random.default_rng(seed)
    shape = (int(rng.integers(1, 40)),) if seed % 2 else (3, 7)
    values = rng.normal(size=shape) - (5.0 if seed % 3 == 0 else 0.0)
    flat = values.reshape(-1)
    top = float(flat.max())
    slots = rng.permutation(flat.size)
    flat[slots[1:3]] = top - 0.5e-9 * abs(top)
    flat[slots[3:5]] = top - 2e-9 * abs(top)
    flat[slots[5:8]] = -math.inf
    flat[slots[0]] = top
    from opinionselect.selector import _near_best
    near = _near_best(values)
    assert near.tolist() == _brute_near_best(values)
    assert int(slots[0]) in near.tolist()
    assert not set(slots[3:5].tolist()) & set(near.tolist())
    assert _near_best(np.full(shape, -math.inf)).size == 0
    for bad in (math.inf, math.nan):
        flat[slots[-1]] = bad
        with pytest.raises(NumericalError, match="overflowed float64"):
            _near_best(values)


@pytest.mark.parametrize("rel, winner", [(0.0, (0, 1)), (0.5e-9, (0, 1)),
                                         (2e-9, (1, 2))])
def test_exact_tie_spans_chunks(rel, winner, monkeypatch):
    # nodes 0 and 2 mirror each other, so (0, 1) and (1, 2) tie, and with
    # WALK_FLOATS = 1 they fall in the chunks of heads 0 and 1; raising
    # F(1, 2) by rel relative keeps the first while rel is within TIE_RTOL,
    # though the later chunk then holds the largest F
    import opinionselect.selector as selector
    C = np.diag([2.0, 3.0, 2.0 * (1 + 2.5 * rel), 1.0])
    values = walk_values(C, 2)
    assert values[(1, 2)] >= values[(0, 1)]
    monkeypatch.setattr(selector, "WALK_FLOATS", 1)
    chunks = [heads[:, 0].tolist() for heads, *_ in _walk(C, range(2, 3))
              if heads.shape[1] == 1]
    assert chunks == [[0], [1], [2]]
    assert exact_select(C, 2).chosen == winner
    assert exact_curve(C, 2)[2].chosen == winner


def _overflow_case(name):
    # finite and positive definite, but r * r overflows float64
    n = 6 if name == "audit" else 8
    X = np.random.default_rng(0).normal(size=(n, n))
    C = (X @ X.T + n * np.eye(n)) * 1e155
    return {"greedy": lambda: greedy_select(C, 2),
            "exact": lambda: exact_select(C, 2),
            "audit": lambda: submodularity_audit(C)}[name]


@pytest.mark.parametrize("name", ["greedy", "exact", "audit"])
def test_overflowing_gain_or_f_is_refused_by_name(name):
    # once read as "all candidates degenerate" (greedy, exact) or as a pass
    # with min_slack_f = inf (audit), behind a RuntimeWarning
    run = _overflow_case(name)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalError, match="overflowed float64"):
            run()


def test_exact_diagonal_and_full_set():
    sigma2 = np.array([1.0, 4.0, 2.0])
    C = np.diag(sigma2)
    res = exact_select(C, 1)
    assert res.chosen == (1,)
    res_full = exact_select(C, 3)
    assert res_full.chosen == (0, 1, 2)
    assert res_full.f_values[-1] == pytest.approx(var_y(C))
    res_empty = exact_select(C, 0)
    assert res_empty.chosen == () and res_empty.f_values == (0.0,)


def test_exact_matches_independent_brute_force():
    for seed in range(8):
        _, _, C = random_instance(seed, n=8, n_stubborn=2)
        for s in (1, 2, 3):
            res = exact_select(C, s)
            K_oracle, f_oracle = naive_best_subset(C, s)
            assert res.f_values[-1] == pytest.approx(f_oracle, rel=1e-9)
            assert tuple(sorted(res.chosen)) == K_oracle


def walk_values(C, s):
    """F of every size-s subset the exact walk scores, by subset; the
    degenerate ones are left out."""
    out = {}
    for heads, _, ehead, ecol, V in _walk(C, range(s, s + 1)):
        if len(heads[0]) == s - 1:
            for k in np.flatnonzero(V > -np.inf).tolist():
                out[tuple(heads[ehead[k]].tolist()) + (int(ecol[k]),)] = \
                    float(V[k])
    return out


def twin_instance(seed, n_nodes):
    """(C, j, n): random_instance's C with node n appended as a copy of
    node j, greedy's first pick."""
    _, _, C0 = random_instance(seed, n=n_nodes, n_stubborn=2)
    n = C0.shape[0]
    j = greedy_select(C0, 1).chosen[0]
    idx = list(range(n)) + [j]
    return C0[np.ix_(idx, idx)], j, n


def pruned_early_instance():
    """random_instance's C with node 0 inserted as a copy of node 3."""
    _, _, C0 = random_instance(5, n=9, n_stubborn=2)
    idx = [2] + list(range(C0.shape[0]))
    return C0[np.ix_(idx, idx)]


def test_exact_eval_count_law():
    # eval_count is C(n, s); the F values are the walk's own values of the
    # winner's prefixes, and the winner is the best subset the walk scored
    for seed, (n, s) in enumerate([(5, 0), (6, 1), (8, 3), (9, 4), (7, 7)]):
        _, _, C = random_instance(seed, n=n + 2, n_stubborn=2)
        assert C.shape[0] == n
        res = exact_select(C, s)
        assert res.eval_count == math.comb(n, s)
        assert res.skipped == 0
        assert res.f_values[0] == 0.0
        for t in range(1, s + 1):
            prefix = res.chosen[:t]
            assert res.f_values[t] == walk_values(C, t)[prefix]
            assert res.f_values[t] == pytest.approx(f_score(C, prefix),
                                                    rel=1e-12, abs=0)
        values = walk_values(C, s) if s else {(): 0.0}
        assert sorted(values) == list(itertools.combinations(range(n), s))
        # the tie rule relies on meeting the subsets in lexicographic order
        assert list(values) == sorted(values)
        top = max(values.values())
        assert res.chosen == min(K for K, v in values.items()
                                 if v >= top - TIE_RTOL * abs(top))


@pytest.mark.parametrize("seed", range(4))
def test_walk_scores_every_subset_as_f_score(seed):
    # weighted random graphs with heterogeneous noise, and the same with a
    # twin node appended: every subset the walk scores matches f_score, and
    # it leaves out exactly the subsets f_score finds degenerate
    _, _, C = random_instance(seed, n=12 + seed % 3, n_stubborn=2)
    C_twin, j, n = twin_instance(seed, 13)
    for M in (C, C_twin):
        m = M.shape[0]
        assert m <= 12
        for s in range(1, 7):
            values = walk_values(M, s)
            for K in itertools.combinations(range(m), s):
                if M is C_twin and j in K and n in K:
                    assert K not in values
                    with pytest.raises(NumericalError):
                        f_score(M, K)
                else:
                    assert values[K] == pytest.approx(f_score(M, K),
                                                      rel=1e-12, abs=0)


def test_exact_skips_degenerate_twin():
    # the twin instance of test_greedy_skips_degenerate_twin: node n copies
    # node j, so every subset holding both is skipped, and counted in one
    # warning: the C(n - 1, s - 2) subsets that hold both twins
    C, j, n = twin_instance(3, 12)
    s = 3
    with pytest.warns(UserWarning):
        greedy = greedy_select(C, s)
    with pytest.warns(UserWarning) as record:
        res = exact_select(C, s)
    twins = [K for K in itertools.combinations(range(n + 1), s)
             if j in K and n in K]
    assert res.skipped == len(twins) == math.comb(n - 1, s - 2)
    assert [str(w.message) for w in record] == [
        f"skipping {len(twins)} subset(s) of size {s}: principal submatrix "
        "not positive definite"]
    assert res.eval_count == math.comb(n + 1, s)
    values = walk_values(C, s)
    assert sorted(values) == [K for K in itertools.combinations(range(n + 1), s)
                              if K not in twins]
    best, best_f = None, -np.inf
    for K in itertools.combinations(range(n + 1), s):
        if K in twins:
            continue
        f = naive_f(C, K)
        assert values[K] == pytest.approx(f, rel=1e-9)
        if f > best_f:
            best, best_f = K, f
    assert res.chosen == best
    assert res.f_values[-1] == pytest.approx(best_f, rel=1e-9)
    assert res.f_values[-1] >= greedy.f_values[-1]


def test_exact_counts_the_subsets_under_a_branch_pruned_early():
    # node 0 copies node 3, so the walk prunes the branch (0, 3) two levels
    # above the leaves and never visits its subsets (0, 3, x, y); the count
    # includes them, as it does the subsets (0, 1, 3, x) and (0, 2, 3, x)
    # pruned at the leaves
    C = pruned_early_instance()
    n, s = C.shape[0], 4
    with pytest.warns(UserWarning) as record:
        res = exact_select(C, s)
    twins = [K for K in itertools.combinations(range(n), s)
             if 0 in K and 3 in K]
    assert res.skipped == len(twins) == math.comb(n - 2, s - 2)
    assert res.skipped == math.comb(n, s) - len(walk_values(C, s))
    assert [str(w.message) for w in record] == [
        f"skipping {len(twins)} subset(s) of size {s}: principal submatrix "
        "not positive definite"]


def test_exact_mirror_ties_go_to_the_first_subset():
    # on a cycle with one stubborn node, regular node i mirrors node n-1-i,
    # so the best subset and its mirror image tie up to rounding; exact
    # takes the lexicographically first of the two
    ops = normalize(generate_cycle(12, 1))
    n = ops.n_regular
    C = moments(ops, NoiseModel.uniform(n, 1.0)).C
    for s in (2, 3, 4):
        res = exact_select(C, s)
        mirror = tuple(sorted(n - 1 - i for i in res.chosen))
        assert mirror != res.chosen
        assert res.chosen < mirror
        assert f_score(C, mirror) == pytest.approx(res.f_values[-1], rel=1e-12)
        best = max(naive_f(C, K) for K in itertools.combinations(range(n), s))
        near = [K for K in itertools.combinations(range(n), s)
                if naive_f(C, K) >= best - 1e-9 * best]
        assert res.chosen == near[0]


def test_exact_memory_does_not_grow_with_the_subset_count():
    # each level holds one chunk of at most WALK_FLOATS floats, or one head
    # when a head alone is larger, and the index arrays of its extensions:
    # s chunk budgets plus O(s n^2) in all, however many subsets it scores;
    # at s = 3 the bound below is under two thirds of a float per subset,
    # and s = 2 to 3 multiplies the subsets by 53. On the identity every
    # subset of a size ties exactly, and a chunk keeps only the subsets that
    # beat all those kept before them, so the ties add one per chunk
    n = 160
    X = np.random.default_rng(0).normal(size=(n, n))
    assert 8 * 5 * 3 * n * n < 8 * math.comb(n, 3) / 1.5
    for C in (X @ X.T / n + np.eye(n), np.eye(n)):
        for search in (exact_select, exact_curve):
            for s in (2, 3):
                tracemalloc.start()
                search(C, s)
                peak = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
                assert peak < 8 * 5 * s * n * n, (search.__name__, s)


@pytest.mark.parametrize("n", [20, 30])
def test_exact_memory_is_the_chunk_budget_at_small_n(n):
    # at small n the s chunk budgets, not the O(s n^2) term, set the peak:
    # s WALK_FLOATS is 164k floats at s = 5, and 5 s n^2 is 10k at n = 20
    # and 22.5k at n = 30; a walk that took each level in one chunk would
    # hold its 3,876 (n = 20) or 23,751 (n = 30) last heads at once
    import opinionselect.selector as selector
    s = 5
    X = np.random.default_rng(0).normal(size=(n, n))
    C = X @ X.T / n + np.eye(n)
    for search in (exact_select, exact_curve):
        tracemalloc.start()
        search(C, s)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert peak < 8 * (s * selector.WALK_FLOATS + 5 * s * n * n), \
            search.__name__


def test_exact_walk_takes_budget_sized_chunks():
    # a chunk of heads of u nodes, which keep rows = u rows of L, or none at
    # the last level u = s - 1, holds at most k_u = WALK_FLOATS //
    # (2 rows + 12) entries, or one head's entries when they alone are more.
    # Each chunk of the level above cuts its own extensions into chunks, and
    # each of those but its last was short of room for the next head's at
    # most n - 1 entries, so level u takes at most E_u / (k_u - n + 1) +
    # (chunks of level u - 1) chunks. On 20 nodes with no pruned branch the
    # heads of u nodes are the C(19, u) that end before the last node, as
    # the last node has no extension, and their entries are the E_u =
    # C(20, u + 1) subsets of u + 1 nodes. At 65536 floats k_u is 4681,
    # 4096, 3640 and 5461 entries for u = 1..4
    import opinionselect.selector as selector
    n, s = 20, 5
    X = np.random.default_rng(0).normal(size=(n, n))
    C = X @ X.T / n + np.eye(n)
    per_chunk = [selector.WALK_FLOATS // (2 * (u if u < s - 1 else 0) + 12)
                 for u in range(s)]
    heads, entries, chunks = [0] * s, [0] * s, [0] * s
    for group, fs, ehead, ecol, _ in _walk(C, range(s + 1)):
        u = group.shape[1]
        assert fs.shape == (len(group), u + 1) and not fs[:, 0].any(), u
        assert len(ecol) <= per_chunk[u] or len(group) == 1, u
        assert np.array_equal(ehead, np.repeat(np.arange(len(group)),
                                               n - 1 - group[:, -1])
                              if u else np.zeros(n)), u
        heads[u] += len(group)
        entries[u] += len(ecol)
        chunks[u] += 1
    assert heads == [1] + [math.comb(n - 1, u) for u in range(1, s)]
    assert entries == [math.comb(n, u + 1) for u in range(s)]
    assert chunks[0] == 1
    for u in range(1, s):
        assert chunks[u] <= entries[u] / (per_chunk[u] - n + 1) \
            + chunks[u - 1], u


@pytest.mark.parametrize("s", [28, 29, 30])
def test_exact_walk_visits_only_prefixes_of_size_s_subsets(s, monkeypatch):
    # each size-s subset has s prefixes, so exact_select(C, s) walks at most
    # s C(n, s) heads; near s = n that is a few hundred, where a walk over
    # every subset of at most s nodes would visit about 2^n
    import opinionselect.selector as selector
    n = 30
    X = np.random.default_rng(1).normal(size=(n, n))
    C = X @ X.T / n + np.eye(n)
    bound = s * math.comb(n, s)
    heads = 0
    walk = selector._walk

    def spy(*args):
        nonlocal heads
        for group in walk(*args):
            heads += len(group[0])
            assert heads <= bound, "walked past the prefixes of size-s subsets"
            yield group

    monkeypatch.setattr(selector, "_walk", spy)
    res = exact_select(C, s)
    assert len(res.chosen) == s and res.skipped == 0
    assert 0 < heads <= bound


def test_exact_all_subsets_degenerate_raises():
    C = np.ones((4, 4))           # rank one: every pair is singular
    assert exact_select(C, 1).chosen == (0,)
    with pytest.warns(UserWarning):
        with pytest.raises(NumericalError, match="all 6 subsets"):
            exact_select(C, 2)


def test_exact_reports_the_walks_f_on_a_rank_deficient_c():
    # a rank-3 C on 10 nodes has no positive-definite 4 x 4 block, but one
    # 4-subset clears the walk's guard by rounding; the walk's guard alone
    # decides, so the result keeps it, with F = var_y, and no second test
    # of its prefixes refuses it
    X = np.random.default_rng(2).normal(size=(10, 3))
    C = X @ X.T
    with pytest.warns(UserWarning) as record:
        res = exact_select(C, 4)
    assert res.chosen == (5, 6, 7, 8)
    assert res.f_values[-1] == pytest.approx(var_y(C), rel=1e-9)
    assert len(record) == 1 and res.skipped == 209
    with pytest.warns(UserWarning):
        curve = exact_curve(C, 4)
    assert _bits(curve[4]) == _bits(res)


def test_exact_counts_skips_on_a_rank_5_c_in_one_warning():
    # a rank-5 C on 24 nodes: 134,034 of the C(24, 6) 6-subsets are
    # degenerate, every one under a branch pruned at the leaves. One warning
    # gives their count, C(n, s) less the subsets the walk scored
    X = np.random.default_rng(0).normal(size=(24, 5))
    C = X @ X.T
    with warnings.catch_warnings(record=True) as record:
        warnings.simplefilter("always")
        res = exact_select(C, 6)
    assert [str(w.message) for w in record] == [
        "skipping 134034 subset(s) of size 6: principal submatrix not "
        "positive definite"]
    assert res.skipped == 134034 == math.comb(24, 6) - len(walk_values(C, 6))
    assert res.chosen == (0, 2, 4, 16, 20, 21)
    assert res.eval_count == math.comb(24, 6)


@pytest.mark.parametrize("case", ["random0", "random1", "random2", "twin",
                                  "pruned-early", "rank-one"])
def test_exact_curve_is_exact_select_per_size(case):
    # one walk to depth s gives each k <= s the result, the warnings and the
    # NumericalError that exact_select(C, k) gives, called once per k in turn:
    # the twin instances skip subsets at several sizes, and the rank-one C
    # has no nondegenerate pair, so the curve stops at size 2
    if case == "twin":
        C, s = twin_instance(3, 12)[0], 5
    elif case == "pruned-early":
        C, s = pruned_early_instance(), 5
    elif case == "rank-one":
        C, s = np.ones((4, 4)), 3
    else:
        seed = int(case[-1])
        C, s = random_instance(seed, n=12 + seed, n_stubborn=2)[2], 5
    curve, curve_warned = _run_recording_warnings(exact_curve, C, s)
    per_k, per_k_warned = [], []
    for k in range(s + 1):
        res, warned = _run_recording_warnings(exact_select, C, k)
        per_k_warned += warned
        if isinstance(res, NumericalError):
            per_k = res
            break
        per_k.append(res)
    assert curve_warned == per_k_warned
    if case == "rank-one":
        assert _bits(curve) == _bits(per_k) == \
            "all 6 subsets of size 2 degenerate"
    else:
        assert list(map(_bits, curve)) == list(map(_bits, per_k))
        assert [r.eval_count for r in curve] == [math.comb(len(C), k)
                                                 for k in range(s + 1)]
    if case in ("twin", "pruned-early"):
        # the subsets of each size k that hold both copies
        m = C.shape[0]
        assert [r.skipped for r in curve] == [
            math.comb(m - 2, k - 2) if k >= 2 else 0 for k in range(s + 1)]
        assert sum(r.skipped > 0 for r in curve) >= 3


def _walk_outcomes(C, s):
    """exact_select(C, s), exact_curve(C, s) and the audit of C, each as its
    result's bits (or the error it raised) and its warnings' text."""
    out = []
    for search in (exact_select, exact_curve,
                   lambda C, s: submodularity_audit(C)):
        res, warned = _run_recording_warnings(search, C, s)
        bits = ([_bits(r) for r in res] if isinstance(res, list) else
                res if isinstance(res, AuditReport) else _bits(res))
        out.append((bits, warned))
    return out


@pytest.mark.parametrize("case", ["twin", "mirror", "rank-deficient",
                                  "random"])
def test_exact_chunk_boundaries_move_no_tie_or_skip(case, monkeypatch):
    # WALK_FLOATS = 1 puts every head in a chunk of its own, so a chunk
    # boundary falls between every two tied or skipped subsets: the twin
    # skips every subset holding both copies, the cycle's mirror subsets
    # tie, and a rank-6 C of 10 nodes has no nondegenerate 7-subset
    import opinionselect.selector as selector
    if case == "twin":
        C, s = twin_instance(3, 12)[0], 5
    elif case == "mirror":
        ops = normalize(generate_cycle(12, 1))
        C, s = moments(ops, NoiseModel.uniform(ops.n_regular, 1.0)).C, 4
    elif case == "rank-deficient":
        X = np.random.default_rng(2).normal(size=(10, 6))
        C, s = X @ X.T, 7
    else:
        C, s = random_instance(0, n=12, n_stubborn=2)[2], 5
    default = _walk_outcomes(C, s)
    monkeypatch.setattr(selector, "WALK_FLOATS", 1)
    assert _walk_outcomes(C, s) == default
    (select, select_warned), (curve, _), (audit, _) = default
    if case in ("twin", "rank-deficient"):
        assert select_warned
        assert audit == "principal submatrix not positive definite"
    if case == "rank-deficient":
        assert select == "all 120 subsets of size 7 degenerate"
    if case in ("mirror", "random"):
        assert isinstance(audit, AuditReport) and len(curve) == s + 1


def test_exact_chunks_find_the_brute_force_optimum_at_30_nodes(monkeypatch):
    # the lexicographically first subset within TIE_RTOL of the explicit-
    # inverse optimum, with the default chunks and with one head per chunk
    import opinionselect.selector as selector
    C = random_instance(0, n=32, n_stubborn=2)[2]
    n, s = C.shape[0], 5
    assert n == 30
    subsets = list(itertools.combinations(range(n), s))
    values = [naive_f(C, K) for K in subsets]
    best = max(values)
    first = next(K for K, v in zip(subsets, values)
                 if v >= best - TIE_RTOL * abs(best))
    for walk_floats in (selector.WALK_FLOATS, 1):
        monkeypatch.setattr(selector, "WALK_FLOATS", walk_floats)
        res = exact_select(C, s)
        assert res.chosen == first, walk_floats
        assert res.f_values[-1] == pytest.approx(best, rel=1e-9)


def test_exact_budget_guard():
    C = np.eye(40)
    with pytest.raises(BudgetExceededError):
        exact_select(C, 12)
    # the budget is C(n, s) alone: every size on 25 nodes fits, 26 choose 13
    # does not
    assert max(math.comb(25, s) for s in range(26)) <= EXACT_BUDGET
    check_exact_budget(25, range(26))
    assert math.comb(26, 13) > EXACT_BUDGET
    with pytest.raises(BudgetExceededError, match=r"C\(26,13\)"):
        exact_select(np.eye(26), 13)


def test_guarantee_modular_ratio_one():
    C = np.diag(np.array([3.0, 1.0, 2.0, 0.7]))
    ratio = greedy_ratio(C, 2)
    assert ratio == pytest.approx(1.0)
    assert ratio >= GREEDY_BOUND


def test_guarantee_s_equal_one_is_exact():
    for seed in range(5):
        _, _, C = random_instance(seed, n=10)
        assert greedy_ratio(C, 1) == 1.0


def test_guarantee_random_instances():
    bound = 1 - 1 / math.e
    for seed in range(15):
        _, _, C = random_instance(seed, n=11, n_stubborn=2)
        s = 1 + seed % 4
        assert greedy_ratio(C, s) >= bound - 1e-9


def test_audit_exhaustive_budget(monkeypatch):
    # n = 6 checks 6 * 3^5 = 1458 triples; a budget one below that refuses
    # the audit before any F is evaluated
    import opinionselect.selector as selector
    _, _, C = random_instance(0, n=8, n_stubborn=2)
    n_triples = 6 * 3 ** 5
    monkeypatch.setattr(selector, "EXACT_BUDGET", n_triples)
    rep = submodularity_audit(C)
    assert rep.n_checks == n_triples

    def refuse(*args):
        raise AssertionError("F evaluated before the budget check")

    monkeypatch.setattr(selector, "EXACT_BUDGET", n_triples - 1)
    monkeypatch.setattr(selector, "_walk", refuse)
    with pytest.raises(BudgetExceededError, match="1458 triples"):
        submodularity_audit(C)


def test_empty_audit_counts_an_int_zero():
    assert type(check_audit_budget(0)) is int and check_audit_budget(0) == 0
    rep = submodularity_audit(np.zeros((0, 0)))
    assert type(rep.n_checks) is int and rep.n_checks == 0


def test_audit_diagonal_is_modular():
    C = np.diag(np.array([1.0, 2.0, 3.0, 4.0]))
    rep = submodularity_audit(C)
    assert rep.ok
    assert abs(rep.min_slack_f) < 1e-9
    assert abs(rep.min_slack_g) < 1e-9


def test_audit_accepted_closed_form_instances():
    # uniform noise on degree-regular graphs: the closed-form covariance is
    # accepted and diminishing returns holds exhaustively
    from opinionselect import (NoiseModel, generate_random_regular,
                               normalize)
    for seed in range(10):
        g = generate_random_regular(9, 2, seed, 2)
        ops = normalize(g)
        cf = covariance_closed_form(blocks(ops)[0],
                                    NoiseModel.uniform(ops.n_regular, 1.0))
        assert cf.accepted
        rep = submodularity_audit(cf.covariance)
        assert rep.violations_f == 0
        assert rep.violations_g == 0


def test_audit_heterogeneous_instances_recorded_only():
    # with heterogeneous noise the diminishing-returns property can fail;
    # the audit must report such violations faithfully rather than hide them
    seen_violation = False
    for seed in range(10):
        _, _, C = random_instance(seed, n=8, n_stubborn=2)
        rep = submodularity_audit(C)
        assert rep.violations_f == rep.violations_g  # mirrored via F+G=const
        assert rep.min_slack_f <= 1e-9
        seen_violation = seen_violation or rep.violations_f > 0
    assert seen_violation  # at least one genuine counterexample in this batch


def _audit_oracle(C, triples, tol=1e-9):
    """((min slack, violations) of F, (min slack, violations) of G, checks)
    over the triples (A, B, k): diminishing returns of F from f_score and
    increasing returns of G from the precision oracle g_score(C^-1, .)."""
    H = precision(C)
    memo = {}

    def fg(K):
        key = tuple(sorted(K))
        if key not in memo:
            memo[key] = f_score(C, key), g_score(H, key)
        return memo[key]

    checks, min_f, min_g, viol_f, viol_g = 0, np.inf, np.inf, 0, 0
    for A, B, k in triples:
        (f_A, g_A), (f_Ak, g_Ak) = fg(A), fg(A + [k])
        (f_B, g_B), (f_Bk, g_Bk) = fg(B), fg(B + [k])
        slack_f = (f_Ak - f_A) - (f_Bk - f_B)
        slack_g = (g_Bk - g_B) - (g_Ak - g_A)
        checks += 1
        min_f, min_g = min(min_f, slack_f), min(min_g, slack_g)
        viol_f += slack_f < -tol * (1.0 + abs(f_Bk))
        viol_g += slack_g < -tol * (1.0 + abs(g_Bk))
    return (min_f, viol_f), (min_g, viol_g), checks


def _all_triples(n):
    for B in itertools.chain.from_iterable(
            itertools.combinations(range(n), r) for r in range(n)):
        for r in range(len(B) + 1):
            for A in itertools.combinations(B, r):
                for k in range(n):
                    if k not in B:
                        yield list(A), list(B), k


def test_audit_g_fields_match_precision_oracle_exhaustive():
    # seeds 0, 3, 4, 7 break diminishing returns, 1 and 2 do not; the last
    # instance has 10 regular nodes, 10 * 3^9 triples
    for seed, n_nodes in [(0, 8), (1, 9), (2, 8), (3, 8), (4, 9), (7, 9),
                          (0, 12)]:
        _, _, C = random_instance(seed, n=n_nodes, n_stubborn=2)
        n = C.shape[0]
        rep = submodularity_audit(C)
        (min_f, viol_f), (min_g, viol_g), checks = _audit_oracle(
            C, _all_triples(n))
        assert rep.n_checks == checks == n * 3 ** (n - 1)
        # the walk's F values agree with f_score's to rounding
        assert abs(rep.min_slack_f - min_f) <= 1e-12 * var_y(C)
        assert rep.violations_f == viol_f
        assert abs(rep.min_slack_g - min_g) <= 1e-12 * var_y(C)
        assert rep.violations_g == viol_g
