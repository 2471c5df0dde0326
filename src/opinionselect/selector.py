"""Exact and greedy observation-subset selection.

Greedy selection is one loop. It keeps C|K = C - L'L for the chosen set K,
row t of the preallocated (s, n) array L written at pick t, so each pick is
one rank-1 downdate in O(|K| n). Each round turns r = (C|K)1 and
d = diag(C|K) into lists once and calls ``marginal_gain(r_i, d_i, c_ii)``,
r_i^2 / d_i, once per unpicked candidate. That function stays public so that
a tracer wrapping it counts the n s - s(s-1)/2 gain evaluations and the
degenerate skips. Greedy reads C only through C 1, diag C and one row per
pick, so it runs on the ``moments`` operator as well as on a dense C, never
forming C.

Exact selection enumerates all subsets of a dense C, skipping degenerate
ones as greedy skips degenerate candidates, and doubles as the oracle for
the greedy guarantee and for the incremental algebra. It runs only when
C(n, s) is at most ``EXACT_BUDGET``. Both share one tie rule: the lowest
index (greedy) or the lexicographically first subset (exact) among the
values v within ``TIE_RTOL`` |v| of the best, so that rounding, which the
BLAS thread count changes, does not decide between mirror nodes.

The submodularity audit checks diminishing returns of F on every triple
A <= B, k not in B in one vectorised pass over the 3^n pairs (A, B) of a
dense C; it too runs only when its n 3^(n-1) triples are at most
``EXACT_BUDGET``. Every path reads G as var_y(C) - F.
"""

from __future__ import annotations

import itertools
import math
import operator
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import BudgetExceededError, NumericalError
from .objective import SCHUR_GUARD, f_score, var_y

EXACT_BUDGET = 10 ** 7
GREEDY_BOUND = 1.0 - 1.0 / math.e - 1e-9   # 1 - 1/e, less rounding slack
AUDIT_TOL = 1e-9
TIE_RTOL = 1e-9     # gains or F values this close, relative, count as a tie


@dataclass(frozen=True)
class SelectionResult:
    chosen: tuple[int, ...]
    gains: tuple[float, ...]
    f_values: tuple[float, ...]   # per prefix, f_values[0] = F(empty) = 0
    var_y: float
    eval_count: int
    method: str

    @property
    def g_values(self) -> tuple[float, ...]:
        """Residual variance G = var_y - F per prefix."""
        return tuple(self.var_y - f for f in self.f_values)


def _cardinality(s, n: int) -> int:
    """s as an int in [0, n]; ``ValueError`` naming s otherwise."""
    try:
        if isinstance(s, bool):     # operator.index would take True as 1
            raise TypeError
        s = operator.index(s)
    except TypeError:
        raise ValueError(f"cardinality s={s!r} must be an integer") from None
    if not 0 <= s <= n:
        raise ValueError(f"cardinality s={s} out of range for {n} regular nodes")
    return s


def marginal_gain(r_i: float, d_i: float, c_ii: float) -> float:
    """F(K + i) - F(K) = r_i^2 / d_i, for r_i = ((C|K) 1)_i, d_i = (C|K)_ii
    and c_ii = C_ii. Raises ``NumericalError`` on a degenerate Schur
    complement, d_i <= ``SCHUR_GUARD`` * c_ii.

    ``greedy_select`` calls it once per candidate and round, degenerate
    candidates included, so wrapping it counts the n s - s(s-1)/2 gain
    evaluations and the skips."""
    if d_i <= SCHUR_GUARD * c_ii:
        raise NumericalError(f"degenerate Schur complement {d_i:.3e}")
    return r_i * r_i / d_i


def _first_near_best(pairs):
    """The first (key, value) of ``pairs`` whose value is at least
    v - ``TIE_RTOL`` |v|, v the largest value; None when ``pairs`` is empty.

    One pass that keeps the pairs within the tolerance of the running best.
    Values that straddle the tolerance edge can still flip."""
    best = floor = -math.inf
    near = []
    for key, value in pairs:
        if value >= floor:
            if value > best:
                best, floor = value, value - TIE_RTOL * abs(value)
                near = [(k, v) for k, v in near if v >= floor]
            near.append((key, value))
    return near[0] if near else None


def greedy_select(C, s: int) -> SelectionResult:
    """s rounds of best-marginal-gain insertion.

    Each round evaluates every candidate's gain in one pass and picks the
    lowest index among the gains within ``TIE_RTOL`` of the best, so mirror
    nodes whose gains differ only by rounding resolve the same way under any
    BLAS. A degenerate candidate is skipped with a warning.

    ``C`` is a dense covariance or the ``moments`` operator: only ``C @ 1``,
    ``1 @ C``, ``C.diagonal()`` and one row ``C[i]`` per pick are read, and
    the two agree to rounding.
    """
    n = C.shape[0]
    s = _cardinality(s, n)
    # C|K = C - L'L: row t of L is the pivoted-Cholesky column of pick t
    r = C @ np.ones(n)
    d = C.diagonal().copy()
    c_diag = d.tolist()
    L = np.empty((s, n))
    taken = [False] * n
    chosen: list[int] = []
    gains: list[float] = []
    eval_count = 0

    def candidate_gains():      # over the current round's r_vals, d_vals
        for i in range(n):
            if taken[i]:
                continue
            try:
                yield i, marginal_gain(r_vals[i], d_vals[i], c_diag[i])
            except NumericalError as exc:
                warnings.warn(f"skipping candidate {i}: {exc} for candidate {i}")

    for t in range(s):
        r_vals, d_vals = r.tolist(), d.tolist()
        eval_count += n - t     # one per unpicked candidate
        picked = _first_near_best(candidate_gains())
        if picked is None:
            raise NumericalError("all candidates degenerate in this round")
        i, gain = picked
        root = math.sqrt(d_vals[i])
        L[t] = (C[i] - L[:t, i] @ L[:t]) / root
        r -= L[t] * (r_vals[i] / root)
        d -= L[t] * L[t]
        taken[i] = True
        chosen.append(i)
        gains.append(gain)
    return SelectionResult(chosen=tuple(chosen), gains=tuple(gains),
                           f_values=(0.0, *itertools.accumulate(gains)),
                           var_y=var_y(C), eval_count=eval_count,
                           method="greedy")


def check_exact_budget(n: int, s: int) -> None:
    """Raise ``BudgetExceededError`` unless C(n, s) <= ``EXACT_BUDGET``."""
    n_subsets = math.comb(n, s)
    if n_subsets > EXACT_BUDGET:
        raise BudgetExceededError(
            f"C({n},{s}) = {n_subsets} subsets exceeds the budget of {EXACT_BUDGET}")


def check_audit_budget(n: int) -> int:
    """Raise ``BudgetExceededError`` unless the n 3^(n-1) triples of an
    exhaustive audit of n nodes are at most ``EXACT_BUDGET``; return them."""
    n_triples = n * 3 ** (n - 1) if n else 0
    if n_triples > EXACT_BUDGET:
        raise BudgetExceededError(
            f"exhaustive audit of {n} nodes checks {n_triples} triples, "
            f"over the budget of {EXACT_BUDGET}")
    return n_triples


def exact_select(C: np.ndarray, s: int) -> SelectionResult:
    """Enumerate all size-s subsets and return the lexicographically first
    whose F is within ``TIE_RTOL`` of the maximum, by greedy's tie rule.

    Refuses a request over budget (see ``check_exact_budget``) before any work.
    A subset whose block is degenerate is skipped with a warning, as greedy
    skips such a candidate; only when every subset is degenerate does this
    raise ``NumericalError``.
    """
    n = C.shape[0]
    s = _cardinality(s, n)
    check_exact_budget(n, s)

    def subset_values():
        for K in itertools.combinations(range(n), s):
            try:
                yield K, f_score(C, K)
            except NumericalError as exc:
                warnings.warn(f"skipping subset {K}: {exc}")

    best = _first_near_best(subset_values())
    if best is None:
        raise NumericalError(
            f"all {math.comb(n, s)} subsets of size {s} degenerate")
    best_K = best[0]
    f_values = [f_score(C, best_K[:t]) for t in range(s + 1)]
    return SelectionResult(chosen=best_K,
                           gains=tuple(np.diff(f_values)),
                           f_values=tuple(f_values),
                           var_y=var_y(C), eval_count=math.comb(n, s),
                           method="exact")


@dataclass(frozen=True)
class AuditReport:
    n_checks: int
    min_slack_f: float
    min_slack_g: float
    violations_f: int
    violations_g: int

    @property
    def ok(self) -> bool:
        return self.violations_f == 0 and self.violations_g == 0


def _all_subset_values(C: np.ndarray) -> np.ndarray:
    """F of every subset, indexed by its bit mask."""
    n = C.shape[0]
    F = np.empty(1 << n)
    for mask in range(1 << n):
        F[mask] = f_score(C, [i for i in range(n) if mask >> i & 1])
    return F


def submodularity_audit(C: np.ndarray) -> AuditReport:
    """Check diminishing returns of F (and increasing returns of G) exhaustively.

    Every triple A <= B, k not in B is checked, n 3^(n-1) in all, over 2^n
    values of F, one ``f_score`` per subset. Slack below -AUDIT_TOL*(1 + |F|)
    counts as a violation, and likewise for G = var_y(C) - F. Raises
    ``BudgetExceededError`` before any F is evaluated when the triple count
    exceeds ``EXACT_BUDGET``: 13 nodes fit, 14 do not.
    """
    n = C.shape[0]
    n_triples = check_audit_budget(n)
    F = _all_subset_values(C)
    G = var_y(C) - F
    # row r is one pair A <= B: base-3 digit i of r is 0 when node i is
    # outside B, 1 when it is in B but not A, and 2 when it is in A
    rest = np.arange(3 ** n)
    maskA = np.zeros_like(rest)
    maskB = np.zeros_like(rest)
    for i in range(n):
        rest, digit = np.divmod(rest, 3)
        maskA |= (digit == 2) << i
        maskB |= (digit > 0) << i
    min_f = min_g = np.inf
    viol_f = viol_g = 0
    for k in range(n):
        outside = (maskB >> k & 1) == 0
        A, B = maskA[outside], maskB[outside]
        Ak, Bk = A | 1 << k, B | 1 << k
        dF = (F[Ak] - F[A]) - (F[Bk] - F[B])
        dG = (G[Bk] - G[B]) - (G[Ak] - G[A])
        viol_f += int(np.count_nonzero(dF < -AUDIT_TOL * (1.0 + np.abs(F[Bk]))))
        viol_g += int(np.count_nonzero(dG < -AUDIT_TOL * (1.0 + np.abs(G[Bk]))))
        min_f = min(min_f, float(dF.min()))
        min_g = min(min_g, float(dG.min()))
    return AuditReport(n_checks=n_triples, min_slack_f=min_f, min_slack_g=min_g,
                       violations_f=viol_f, violations_g=viol_g)


@dataclass(frozen=True)
class GuaranteeReport:
    greedy: SelectionResult
    exact: SelectionResult

    @property
    def ratio(self) -> float:
        """F(greedy) / F(exact), 1 when the optimum is 0."""
        f_e = self.exact.f_values[-1]
        return 1.0 if f_e == 0 else self.greedy.f_values[-1] / f_e

    @property
    def ok(self) -> bool:
        return self.ratio >= GREEDY_BOUND


def guarantee_check(C: np.ndarray, s: int) -> GuaranteeReport:
    """Compare greedy against brute force and check the (1 - 1/e) bound."""
    return GuaranteeReport(greedy=greedy_select(C, s),
                           exact=exact_select(C, s))
