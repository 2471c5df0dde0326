"""Exact and greedy observation-subset selection.

The greedy path keeps the covariance conditioned on the chosen set K, so the
gain of candidate i is r_i^2 / d_i with r = (C|K)1, d = diag(C|K), and each
pick is one rank-1 downdate in O(|K| n). Exact selection enumerates all
subsets, skipping degenerate ones as greedy skips degenerate candidates, and
doubles as the oracle for the greedy guarantee and for the incremental
algebra. It runs only when C(n, s) is at most ``EXACT_BUDGET``.

Every path reads the covariance C alone: G = var_y(C) - F.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import BudgetExceededError, NumericalError
from .objective import SCHUR_GUARD, f_score, var_y

EXACT_BUDGET = 10 ** 7
GREEDY_BOUND = 1.0 - 1.0 / math.e - 1e-9   # 1 - 1/e, less rounding slack
AUDIT_TOL = 1e-9


@dataclass
class GreedyState:
    """C|K = C - L'L of one greedy run through r = (C|K)1 and d = diag(C|K);
    row t of L is the pivoted-Cholesky column of the t-th chosen node.
    ``members`` is ``chosen`` as a set, for O(1) membership tests."""

    chosen: list[int]
    r: np.ndarray
    d: np.ndarray
    L: np.ndarray
    f_current: float = 0.0
    eval_count: int = 0
    members: frozenset[int] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.members = frozenset(self.chosen)

    @classmethod
    def start(cls, C: np.ndarray) -> GreedyState:
        """The empty-set state: r = C1, d = diag C."""
        n = C.shape[0]
        return cls(chosen=[], r=C @ np.ones(n), d=np.diag(C).copy(),
                   L=np.zeros((0, n)))


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


def _schur(state: GreedyState, C: np.ndarray, i: int) -> float:
    """d_i = (C|K)_ii; raises when it is degenerate relative to C_ii."""
    schur = float(state.d[i])
    if schur <= SCHUR_GUARD * C[i, i]:
        raise NumericalError(
            f"degenerate Schur complement {schur:.3e} for candidate {i}")
    return schur


def marginal_gain(state: GreedyState, C: np.ndarray, i: int) -> float:
    """F(K + i) - F(K) without touching the state. Raises on degenerate Schur."""
    if i in state.members:
        raise ValueError(f"candidate {i} already chosen")
    r_i = float(state.r[i])
    return r_i * r_i / _schur(state, C, i)


def extend_inverse(state: GreedyState, C: np.ndarray, i: int) -> GreedyState:
    """Return the state with node i inserted: one rank-1 downdate of C|K."""
    schur = _schur(state, C, i)
    root = math.sqrt(schur)
    r_i = float(state.r[i])
    col = (C[i] - state.L[:, i] @ state.L) / root
    return GreedyState(chosen=state.chosen + [int(i)],
                       r=state.r - col * (r_i / root),
                       d=state.d - col * col,
                       L=np.vstack([state.L, col]),
                       f_current=state.f_current + r_i * r_i / schur,
                       eval_count=state.eval_count)


def greedy_select(C: np.ndarray, s: int) -> SelectionResult:
    """s rounds of best-marginal-gain insertion with deterministic tie-breaks."""
    n = C.shape[0]
    if not (0 <= s <= n):
        raise ValueError(f"cardinality s={s} out of range for {n} regular nodes")
    state = GreedyState.start(C)
    gains: list[float] = []
    f_values = [0.0]
    for _ in range(s):
        best_i, best_gain = -1, -np.inf
        for i in range(n):
            if i in state.members:
                continue
            state.eval_count += 1
            try:
                gain = marginal_gain(state, C, i)
            except NumericalError as exc:
                warnings.warn(f"skipping candidate {i}: {exc}")
                continue
            if gain > best_gain:
                best_gain, best_i = gain, i
        if best_i < 0:
            raise NumericalError("all candidates degenerate in this round")
        state = extend_inverse(state, C, best_i)
        gains.append(best_gain)
        f_values.append(state.f_current)
    return SelectionResult(chosen=tuple(state.chosen), gains=tuple(gains),
                           f_values=tuple(f_values),
                           var_y=var_y(C), eval_count=state.eval_count,
                           method="greedy")


def check_exact_budget(n: int, s: int) -> None:
    """Raise ``BudgetExceededError`` unless C(n, s) <= ``EXACT_BUDGET``."""
    n_subsets = math.comb(n, s)
    if n_subsets > EXACT_BUDGET:
        raise BudgetExceededError(
            f"C({n},{s}) = {n_subsets} subsets exceeds the budget of {EXACT_BUDGET}")


def exact_select(C: np.ndarray, s: int) -> SelectionResult:
    """Enumerate all size-s subsets; ties go to the lexicographically smallest.

    Refuses a request over budget (see ``check_exact_budget``) before any work.
    A subset whose block is degenerate is skipped with a warning, as greedy
    skips such a candidate; only when every subset is degenerate does this
    raise ``NumericalError``.
    """
    n = C.shape[0]
    if not (0 <= s <= n):
        raise ValueError(f"cardinality s={s} out of range for {n} regular nodes")
    check_exact_budget(n, s)
    best_K: tuple[int, ...] = ()
    best_f = 0.0 if s == 0 else -np.inf
    count = 0
    for K in itertools.combinations(range(n), s):
        count += 1
        try:
            f = f_score(C, K)
        except NumericalError as exc:
            warnings.warn(f"skipping subset {K}: {exc}")
            continue
        if f > best_f:
            best_f, best_K = f, K
    if len(best_K) < s:
        raise NumericalError(f"all {count} subsets of size {s} degenerate")
    f_values = [f_score(C, best_K[:t]) for t in range(s + 1)]
    return SelectionResult(chosen=best_K,
                           gains=tuple(np.diff(f_values)),
                           f_values=tuple(f_values),
                           var_y=var_y(C), eval_count=count, method="exact")


@dataclass(frozen=True)
class AuditReport:
    n_checks: int
    min_slack_f: float
    min_slack_g: float
    violations_f: int
    violations_g: int
    exhaustive: bool

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


def submodularity_audit(C: np.ndarray, budget: int = 8, n_samples: int = 2000,
                        seed: int = 0) -> AuditReport:
    """Check diminishing returns of F (and increasing returns of G).

    Exhaustive over all triples A <= B, k not in B when the instance fits the
    budget; otherwise a seeded random sample of triples. Slack below
    -AUDIT_TOL*(1 + |F|) counts as a violation, and likewise for
    G = var_y(C) - F.
    """
    n = C.shape[0]
    vy = var_y(C)
    if n <= budget:
        F = _all_subset_values(C)
        G = vy - F
        bits = 1 << np.arange(n)
        min_f, min_g = np.inf, np.inf
        viol_f = viol_g = checks = 0
        for maskB in range(1 << n):
            outside = np.array([k for k in range(n) if not maskB >> k & 1],
                               dtype=int)
            if outside.size == 0:
                continue
            kbits = bits[outside]
            # enumerate submasks A of B (including A == B)
            maskA = maskB
            while True:
                dF = (F[maskA | kbits] - F[maskA]) - (F[maskB | kbits] - F[maskB])
                dG = (G[maskB | kbits] - G[maskB]) - (G[maskA | kbits] - G[maskA])
                scale_f = AUDIT_TOL * (1.0 + np.abs(F[maskB | kbits]))
                scale_g = AUDIT_TOL * (1.0 + np.abs(G[maskB | kbits]))
                viol_f += int(np.sum(dF < -scale_f))
                viol_g += int(np.sum(dG < -scale_g))
                min_f = min(min_f, float(dF.min()))
                min_g = min(min_g, float(dG.min()))
                checks += outside.size
                if maskA == 0:
                    break
                maskA = (maskA - 1) & maskB
        return AuditReport(n_checks=checks, min_slack_f=min_f, min_slack_g=min_g,
                           violations_f=viol_f, violations_g=viol_g,
                           exhaustive=True)
    rng = np.random.default_rng(seed)
    min_f, min_g = np.inf, np.inf
    viol_f = viol_g = 0
    for _ in range(n_samples):
        picks = rng.random(n)
        B = [i for i in range(n) if picks[i] < 0.5]
        if len(B) == n:
            continue
        A = [i for i in B if rng.random() < 0.5]
        k = int(rng.choice([i for i in range(n) if i not in B]))
        f_A, f_Ak = f_score(C, A), f_score(C, A + [k])
        f_B, f_Bk = f_score(C, B), f_score(C, B + [k])
        g_A, g_Ak, g_B, g_Bk = vy - f_A, vy - f_Ak, vy - f_B, vy - f_Bk
        dF = (f_Ak - f_A) - (f_Bk - f_B)
        dG = (g_Bk - g_B) - (g_Ak - g_A)
        if dF < -AUDIT_TOL * (1.0 + abs(f_Bk)):
            viol_f += 1
        if dG < -AUDIT_TOL * (1.0 + abs(g_Bk)):
            viol_g += 1
        min_f = min(min_f, dF)
        min_g = min(min_g, dG)
    return AuditReport(n_checks=n_samples, min_slack_f=min_f, min_slack_g=min_g,
                       violations_f=viol_f, violations_g=viol_g, exhaustive=False)


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
