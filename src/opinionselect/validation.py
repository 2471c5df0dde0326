"""The ``validate`` suites and the oracles they and the tests use: Monte
Carlo, the submodularity audit and the greedy guarantee.

The Monte Carlo oracle starts its replicas at the equilibrium mean and
steps them past a burn-in horizon set by the spectral radius, so the final
states are draws from (numerically) the stationary distribution.

Its dense view lives here alone, read by no command but ``validate``:
``dense_weights`` forms W, ``blocks`` the A = D^-1 W_RR and B = D^-1 W_RS
of W (not of the spectrum), and ``mean`` solves (I - A) mu = B u.

The submodularity audit reads the 2^n values of F from the exact selection's
walk taken to every depth, then checks diminishing returns on every triple
A <= B, k not in B in one vectorised pass over the 3^n pairs (A, B) of a
dense C; it runs only when its n 3^(n-1) triples are at most
``selector.EXACT_BUDGET``.

``SUITES`` maps each suite to a function of the ``validate`` flags; all read
``--seed``. ``moments`` alone reads ``--replicas`` (at least 2) and ignores
``--trials`` and ``--max-r``. The others draw ``--trials`` instances whose
regular nodes number: at most ``--max-r``, in 3..13 (``submodularity``);
6..min(``--max-r``, 14), ``--max-r`` >= 6 (``greedy-guarantee``); and
10..max(``--max-r``, 12), so values below 12 act as 12 (``incremental``).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import selector
from .equilibrium import NoiseModel, moments
from .errors import BudgetExceededError, GraphError, NumericalError
from .graph import (NetworkOperators, SocialGraph, generate_random_reachable,
                    generate_random_regular, generate_watts_strogatz,
                    normalize)
from .objective import f_score, var_y

NOISE_FAMILIES = ("gaussian", "uniform", "rademacher")

HORIZON_CAP = 10 ** 6
MOMENTS_FWER = 1e-3   # chance that the moments suite fails correct code
GREEDY_BOUND = 1.0 - 1.0 / math.e - 1e-9   # 1 - 1/e, less rounding slack
AUDIT_TOL = 1e-9


@dataclass(frozen=True)
class SimConfig:
    replicas: int
    seed: int
    u: np.ndarray
    noise_family: str = "gaussian"

    def __post_init__(self):
        if self.replicas < 1:
            raise ValueError("replicas must be >= 1")
        if self.noise_family not in NOISE_FAMILIES:
            raise ValueError(f"unknown noise family {self.noise_family!r}")
        object.__setattr__(self, "u", np.asarray(self.u, dtype=float))


def dense_weights(g: SocialGraph) -> np.ndarray:
    """The dense symmetric weight matrix of ``g``, O(n^2) per call."""
    W = np.zeros((g.n_nodes, g.n_nodes))
    W[g.edge_i, g.edge_j] = g.edge_weights
    W[g.edge_j, g.edge_i] = g.edge_weights
    return W


def blocks(ops: NetworkOperators) -> tuple[np.ndarray, np.ndarray]:
    """A = D^-1 W_RR and B = D^-1 W_RS, whose rows together sum to one."""
    W, R = dense_weights(ops.graph), ops.graph.regular
    return (W[np.ix_(R, R)] / ops.w[:, None],
            W[np.ix_(R, ops.graph.stubborn)] / ops.w[:, None])


def _solve_mean(A: np.ndarray, B: np.ndarray, u: np.ndarray) -> np.ndarray:
    u = np.asarray(u, dtype=float)
    if u.shape != (B.shape[1],):
        raise ValueError("u must have one entry per stubborn node")
    try:
        return np.linalg.solve(np.eye(len(A)) - A, B @ u)
    except np.linalg.LinAlgError as exc:
        raise NumericalError("singular (I - A): reachability violated") from exc


def mean(ops: NetworkOperators, u: np.ndarray) -> np.ndarray:
    """Equilibrium mean of the regular agents: solve (I - A) mu = B u."""
    return _solve_mean(*blocks(ops), u)


def horizon_for(rho: float, tol: float) -> int:
    """Smallest T with rho^T <= tol; with rho = rho(A) the transient decays
    at that rate."""
    if not (0.0 <= rho < 1.0):
        raise ValueError("need 0 <= rho < 1")
    if rho == 0.0 or tol >= 1.0:
        return 1
    T = math.ceil(math.log(tol) / math.log(rho))
    if T > HORIZON_CAP:
        warnings.warn(f"burn-in horizon {T} capped at {HORIZON_CAP}")
        return HORIZON_CAP
    return max(1, T)


def _draw_noise(rng: np.random.Generator, family: str, sigma: np.ndarray,
                shape: tuple[int, int]) -> np.ndarray:
    # each family is zero mean with per-coordinate std exactly sigma
    if family == "gaussian":
        return rng.standard_normal(shape) * sigma
    if family == "uniform":
        half = sigma * math.sqrt(3.0)
        return rng.uniform(-1.0, 1.0, shape) * half
    if family == "rademacher":
        return (2.0 * rng.integers(0, 2, shape) - 1.0) * sigma
    raise ValueError(f"unknown noise family {family!r}")


def simulate(ops: NetworkOperators, noise: NoiseModel | np.ndarray,
             cfg: SimConfig) -> np.ndarray:
    """Run independent replicas and return their final states (replicas x R).

    Accepts a raw variance vector (zeros allowed) so the noiseless fixed point
    can be exercised; NoiseModel itself requires strictly positive variances.
    """
    sigma2 = noise.sigma2 if isinstance(noise, NoiseModel) else \
        np.asarray(noise, dtype=float)
    if not np.all(np.isfinite(sigma2) & (sigma2 >= 0)):
        raise ValueError("variances must be finite and nonnegative")
    if sigma2.shape != (ops.n_regular,):
        raise ValueError("variance vector must cover the regular nodes")
    sigma = np.sqrt(sigma2)
    A, B = blocks(ops)
    mu = _solve_mean(A, B, cfg.u)
    T = horizon_for(ops.rho, 1e-8)
    drift = B @ cfg.u
    rng = np.random.default_rng(cfg.seed)
    X = np.tile(mu, (cfg.replicas, 1))
    for _ in range(T):
        V = _draw_noise(rng, cfg.noise_family, sigma, X.shape)
        X = X @ A.T + drift + V
    return X


@dataclass(frozen=True)
class EmpiricalMoments:
    mean: np.ndarray
    cov: np.ndarray
    se_mean: np.ndarray
    se_cov: np.ndarray


def empirical_moments(samples: np.ndarray) -> EmpiricalMoments:
    """Unbiased sample mean/covariance with entrywise standard errors.

    Covariance standard errors use the Gaussian formula
    sqrt((C_ii C_jj + C_ij^2) / (m - 1)); it is conservative for the
    lighter-tailed uniform and rademacher families.
    """
    samples = np.asarray(samples, dtype=float)
    m = samples.shape[0]
    if m < 2:
        raise ValueError("need at least two replicas")
    mu = samples.mean(axis=0)
    cov = np.cov(samples, rowvar=False, ddof=1)
    cov = np.atleast_2d(cov)
    d = np.diag(cov)
    se_mean = np.sqrt(d / m)
    se_cov = np.sqrt((np.outer(d, d) + cov ** 2) / (m - 1))
    return EmpiricalMoments(mean=mu, cov=cov, se_mean=se_mean, se_cov=se_cov)


def _suite_moments(args) -> dict:
    # statistics loads decimal and fractions too: imported here, the other
    # commands do not pay for them at start-up
    from statistics import NormalDist

    if args.replicas < 2:
        raise GraphError(f"--replicas {args.replicas}: must be at least 2")
    g = generate_watts_strogatz(15, 4, 0.3, args.seed, 3)
    ops = normalize(g)
    noise = NoiseModel.uniform(ops.n_regular, 1.0)
    u = np.linspace(0.0, 1.0, len(g.stubborn))
    mu = mean(ops, u)
    C = moments(ops, noise).C
    # each family compares n means and the n(n+1)/2 distinct covariances;
    # the bound holds the largest of them to a family-wise level of
    # MOMENTS_FWER, by Sidak's correction
    n = ops.n_regular
    n_cmp = len(NOISE_FAMILIES) * (n + n * (n + 1) // 2)
    per_cmp = 1.0 - (1.0 - MOMENTS_FWER) ** (1.0 / n_cmp)
    bound = NormalDist().inv_cdf(1.0 - per_cmp / 2.0)
    worst = 0.0
    for family in NOISE_FAMILIES:
        cfg = SimConfig(replicas=args.replicas, seed=args.seed,
                        u=u, noise_family=family)
        emp = empirical_moments(simulate(ops, noise, cfg))
        dev_mean = np.max(np.abs(emp.mean - mu) / emp.se_mean)
        dev_cov = np.max(np.abs(emp.cov - C) / emp.se_cov)
        worst = max(worst, float(dev_mean), float(dev_cov))
    return {"suite": "moments", "ok": worst <= bound, "worst_dev_in_se": worst,
            "bound_in_se": bound, "replicas": args.replicas}


def check_audit_budget(n: int) -> int:
    """Raise ``BudgetExceededError`` unless the n 3^(n-1) triples of an
    exhaustive audit of n nodes are at most ``selector.EXACT_BUDGET``;
    return them."""
    n_triples = n * 3 ** (n - 1) if n else 0
    if n_triples > selector.EXACT_BUDGET:
        raise BudgetExceededError(
            f"exhaustive audit of {n} nodes checks {n_triples} triples, "
            f"over the budget of {selector.EXACT_BUDGET}")
    return n_triples


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


def submodularity_audit(C: np.ndarray) -> AuditReport:
    """Check diminishing returns of F (and increasing returns of G) exhaustively.

    Every triple A <= B, k not in B is checked, n 3^(n-1) in all, over the
    2^n values of F that one walk to every depth gives. Slack below
    -AUDIT_TOL*(1 + |F|) counts as a violation, and likewise for
    G = var_y(C) - F. Raises ``BudgetExceededError`` before any F is
    evaluated when the triple count exceeds ``selector.EXACT_BUDGET``: 13
    nodes fit, 14 do not, and ``NumericalError`` on a subset with a
    degenerate pivot.
    """
    n = C.shape[0]
    n_triples = check_audit_budget(n)
    F = np.zeros(1 << n)    # indexed by bit mask
    bits = 1 << np.arange(n)
    for heads, _, ehead, ecol, V in selector._walk(C, range(n + 1)):
        # a walk from size 0 keeps every extension, so -inf marks a pruned one
        if not (V > -np.inf).all():
            raise NumericalError("principal submatrix not positive definite")
        masks = (1 << heads).sum(axis=1)
        F[masks[ehead] | bits[ecol]] = V
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


def _suite_submodularity(args) -> dict:
    if args.max_r < 3:
        raise GraphError(f"--max-r {args.max_r}: the submodularity suite "
                         "needs at least 3")
    # trials draw up to --max-r regular nodes: refuse an over-budget audit
    # before the first one
    check_audit_budget(args.max_r)
    rng = np.random.default_rng(args.seed)
    reps = []
    for _ in range(args.trials):
        n = int(rng.integers(max(4, args.max_r - 2), args.max_r + 2))
        d = int(rng.choice([2, 3]))
        if (n * d) % 2:
            n += 1
        n_stub = max(1, n - args.max_r)
        g = generate_random_regular(n, d, int(rng.integers(1 << 31)), n_stub)
        ops = normalize(g)
        noise = NoiseModel.uniform(ops.n_regular, float(rng.uniform(0.5, 2.0)))
        # uniform noise on a degree-regular graph: A Sigma is symmetric, so
        # every instance is in the closed-form regime
        reps.append(submodularity_audit(moments(ops, noise).C))
    viol = sum(rep.violations_f + rep.violations_g for rep in reps)
    return {"suite": "submodularity", "ok": viol == 0, "violations": viol,
            # null, not Infinity, when no trial ran
            "min_slack_f": min((rep.min_slack_f for rep in reps), default=None),
            "min_slack_g": min((rep.min_slack_g for rep in reps), default=None),
            "trials": args.trials}


def _draw_covariance(rng, lo: int, hi: int, n_stubborn: int) -> np.ndarray:
    """The dense C of a random reachable graph with lo..hi regular nodes and
    ``n_stubborn`` stubborn ones, under noise U(0.5, 2), drawn from ``rng``."""
    n = int(rng.integers(lo, hi + 1))
    g = generate_random_reachable(n + n_stubborn, n_stubborn,
                                  int(rng.integers(1 << 31)))
    return moments(normalize(g), NoiseModel(rng.uniform(0.5, 2.0, n))).C


def greedy_ratio(C: np.ndarray, s: int) -> float:
    """F(greedy's s nodes) / F(the exact optimum of s nodes), both from
    ``f_score``, so a greedy pick of the optimum reads exactly 1; 1 when the
    optimum is 0. Nemhauser, Wolsey and Fisher (1978) bound it below by
    1 - 1/e when F is submodular."""
    greedy = selector.greedy_select(C, s)
    f_exact = f_score(C, selector.exact_select(C, s).chosen)
    return 1.0 if f_exact == 0 else f_score(C, sorted(greedy.chosen)) / f_exact


def _suite_guarantee(args) -> dict:
    if args.max_r < 6:
        raise GraphError(f"--max-r {args.max_r}: the greedy-guarantee suite "
                         "needs at least 6")
    rng = np.random.default_rng(args.seed)
    ratios = []
    for _ in range(args.trials):
        C = _draw_covariance(rng, 6, min(args.max_r, 14), 2)
        s = int(rng.integers(1, min(5, len(C)) + 1))
        ratios.append(greedy_ratio(C, s))
    return {"suite": "greedy-guarantee",
            "ok": all(r >= GREEDY_BOUND for r in ratios),
            "worst_ratio": min([1.0] + ratios),
            "bound": GREEDY_BOUND, "trials": args.trials}


def _suite_incremental(args) -> dict:
    rng = np.random.default_rng(args.seed)
    worst = 0.0
    for _ in range(args.trials):
        C = _draw_covariance(rng, 10, max(args.max_r, 12), 3)
        s = int(rng.integers(1, min(10, len(C)) + 1))
        res = selector.greedy_select(C, s)
        for t in range(1, s + 1):
            direct = f_score(C, res.chosen[:t])
            dev = abs(res.f_values[t] - direct) / max(abs(direct), 1e-300)
            worst = max(worst, dev)
    return {"suite": "incremental", "ok": worst <= 1e-8,
            "max_relative_deviation": worst, "trials": args.trials}


SUITES = {"moments": _suite_moments,
          "submodularity": _suite_submodularity,
          "greedy-guarantee": _suite_guarantee,
          "incremental": _suite_incremental}
