"""Exact and greedy observation-subset selection.

The greedy path keeps the covariance conditioned on the chosen set K, so the
gain of candidate i is r_i^2 / d_i with r = (C|K)1, d = diag(C|K), and each
pick is one rank-1 downdate in O(|K| n). Exact selection enumerates all
subsets, skipping degenerate ones as greedy skips degenerate candidates, and
doubles as the oracle for the greedy guarantee and for the incremental
algebra. It runs only when C(n, s) is at most ``EXACT_BUDGET``. Both break
ties to the lowest index (greedy) or the lexicographically first subset
(exact) among the values within ``TIE_RTOL`` of the best, so that rounding,
which the BLAS thread count changes, does not decide between mirror nodes.

The submodularity audit checks diminishing returns of F on every triple
A <= B, k not in B in one vectorised pass over the 3^n pairs (A, B); it too
runs only when its n 3^(n-1) triples are at most ``EXACT_BUDGET``.

Greedy selection reads the covariance only through C 1, diag C and one row
of C per pick, so it runs on the ``moments`` operator as well as on a dense
C, never forming C; each candidate costs a few reads of Python lists. Exact
selection and the audit read a dense C. Every path reads G as
var_y(C) - F.
"""

from __future__ import annotations

import itertools
import math
import operator
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import BudgetExceededError, NumericalError
from .objective import SCHUR_GUARD, f_score, var_y

EXACT_BUDGET = 10 ** 7
GREEDY_BOUND = 1.0 - 1.0 / math.e - 1e-9   # 1 - 1/e, less rounding slack
AUDIT_TOL = 1e-9
TIE_RTOL = 1e-9     # gains or F values this close, relative, count as a tie


@dataclass
class GreedyState:
    """C|K = C - L'L of one greedy run through r = (C|K)1 and d = diag(C|K);
    row t of L is the pivoted-Cholesky column of the t-th chosen node.
    ``c_diag`` is diag C, for the degenerate-Schur guard; with ``r_vals``
    and ``d_vals``, r and d as lists made once per pick, it lets each
    candidate read Python floats, not NumPy scalars. ``members`` is
    ``chosen`` as a set, for O(1) membership tests."""

    chosen: list[int]
    r: np.ndarray
    d: np.ndarray
    L: np.ndarray
    c_diag: list[float]
    f_current: float = 0.0
    eval_count: int = 0
    members: frozenset[int] = field(init=False, repr=False)
    r_vals: list[float] = field(init=False, repr=False)
    d_vals: list[float] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.members = frozenset(self.chosen)
        self.r_vals = self.r.tolist()
        self.d_vals = self.d.tolist()

    @classmethod
    def start(cls, C) -> GreedyState:
        """The empty-set state: r = C1, d = diag C. ``C`` is a dense array or
        the ``moments`` operator; only ``C @ 1`` and ``C.diagonal()`` are read."""
        n = C.shape[0]
        d = C.diagonal().copy()
        return cls(chosen=[], r=C @ np.ones(n), d=d, L=np.zeros((0, n)),
                   c_diag=d.tolist())


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


def _schur(state: GreedyState, i: int) -> float:
    """d_i = (C|K)_ii; raises when it is degenerate relative to C_ii."""
    schur = state.d_vals[i]
    if schur <= SCHUR_GUARD * state.c_diag[i]:
        raise NumericalError(
            f"degenerate Schur complement {schur:.3e} for candidate {i}")
    return schur


def marginal_gain(state: GreedyState, C, i: int) -> float:
    """F(K + i) - F(K) without touching the state. Raises on degenerate Schur.

    Reads the state alone: ``C``, the covariance it was started from, is
    not read."""
    if i in state.members:
        raise ValueError(f"candidate {i} already chosen")
    r_i = state.r_vals[i]
    return r_i * r_i / _schur(state, i)


def extend_inverse(state: GreedyState, C, i: int) -> GreedyState:
    """Return the state with node i inserted: one rank-1 downdate of C|K.

    Reads the row ``C[i]`` alone, so ``C`` may be the ``moments`` operator."""
    schur = _schur(state, i)
    root = math.sqrt(schur)
    r_i = state.r_vals[i]
    col = (C[i] - state.L[:, i] @ state.L) / root
    return GreedyState(chosen=state.chosen + [int(i)],
                       r=state.r - col * (r_i / root),
                       d=state.d - col * col,
                       L=np.vstack([state.L, col]),
                       c_diag=state.c_diag,
                       f_current=state.f_current + r_i * r_i / schur,
                       eval_count=state.eval_count)


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


def greedy_select(C, s: int) -> SelectionResult:
    """s rounds of best-marginal-gain insertion.

    Each round evaluates every candidate's gain in one pass and picks the
    lowest index whose gain is at least best * (1 - ``TIE_RTOL``), so mirror
    nodes whose gains differ only by rounding resolve the same way under any
    BLAS. Gains that straddle the tolerance edge can still flip.

    ``C`` is a dense covariance or the ``moments`` operator: only ``C @ 1``,
    ``1 @ C``, ``C.diagonal()`` and one row ``C[i]`` per pick are read, and
    the two agree to rounding.
    """
    n = C.shape[0]
    s = _cardinality(s, n)
    state = GreedyState.start(C)
    gains: list[float] = []
    f_values = [0.0]
    for _ in range(s):
        # the candidates within TIE_RTOL of the running best, in index order
        best = floor = -math.inf
        near: list[tuple[int, float]] = []
        members = state.members
        state.eval_count += n - len(members)   # one per candidate
        for i in range(n):
            if i in members:
                continue
            try:
                gain = marginal_gain(state, C, i)
            except NumericalError as exc:
                warnings.warn(f"skipping candidate {i}: {exc}")
                continue
            if gain >= floor:
                if gain > best:
                    best, floor = gain, gain * (1.0 - TIE_RTOL)
                    near = [(j, g) for j, g in near if g >= floor]
                near.append((i, gain))
        if not near:
            raise NumericalError("all candidates degenerate in this round")
        pick, gain = near[0]
        state = extend_inverse(state, C, pick)
        gains.append(gain)
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
    whose F is within ``TIE_RTOL`` of the maximum.

    The one pass keeps the subsets within ``TIE_RTOL`` of the running best.
    As in greedy, values that straddle the tolerance edge can still flip.
    Refuses a request over budget (see ``check_exact_budget``) before any work.
    A subset whose block is degenerate is skipped with a warning, as greedy
    skips such a candidate; only when every subset is degenerate does this
    raise ``NumericalError``.
    """
    n = C.shape[0]
    s = _cardinality(s, n)
    check_exact_budget(n, s)
    best_f = floor = -np.inf
    near: list[tuple[tuple[int, ...], float]] = []
    count = 0
    for K in itertools.combinations(range(n), s):
        count += 1
        try:
            f = f_score(C, K)
        except NumericalError as exc:
            warnings.warn(f"skipping subset {K}: {exc}")
            continue
        if f >= floor:
            if f > best_f:
                best_f, floor = f, f - TIE_RTOL * abs(f)
                near = [(K_, f_) for K_, f_ in near if f_ >= floor]
            near.append((K, f))
    if not near:
        raise NumericalError(f"all {count} subsets of size {s} degenerate")
    best_K = near[0][0]
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
