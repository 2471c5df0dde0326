"""Exact and greedy observation-subset selection.

Greedy selection is one loop. It keeps C|K = C - L'L for the chosen set K,
row t of the preallocated (s, n) array L written at pick t, so each pick is
one rank-1 downdate in O(|K| n). Each round scores every candidate at once:
``marginal_gain(r, d, c_diag, taken)`` returns the vector r_i^2 / d_i for
r = (C|K)1 and d = diag(C|K), with -inf for the picked and the degenerate
candidates, and the round picks the first position ``_near_best`` gives
for that vector. The round function stays public, so a wrapper sees all
n s - s(s-1)/2 gains and every degenerate candidate. Greedy reads C only
through C 1, diag C and one row per pick, so it runs on the ``moments``
operator as well as on a dense C, never forming C.

Exact selection scores the subsets of a dense C in one depth-first walk over
the combinations in lexicographic order (the all-subsets scheme of Furnival
and Wilson's "Regressions by Leaps and Bounds", 1974, as F / Var(Y) is a
regression R^2). It walks chunks of same-size subsets, the heads; a chunk
carries greedy's state only on the columns its heads can still extend to, in
at most ``WALK_FLOATS`` floats, as ``_walk`` lays out. A branch whose pivot
d_i is at or below ``SCHUR_GUARD`` c_ii is pruned, and its subsets are
skipped, as greedy skips a degenerate candidate, and counted: C(n, k) less
the size-k subsets scored, with one warning per size. A walk over the sizes
lo..s goes to depth s, skips the extensions that leave no room for lo nodes,
and keeps each chunk's near-best subsets in a list per size, so it serves
``exact_select`` (lo = s: only the at most s C(n, s) prefixes of size-s
subsets) and ``exact_curve`` (lo = 0: every size up to s) alike. It holds
one chunk per level, so its memory is s times the chunk budget plus
O(s n^2), however many subsets it scores, and its numpy calls come a few
dozen per chunk, not per subset. Each size k answered needs
C(n, k) <= ``EXACT_BUDGET``.
Greedy and exact share one tie rule, ``_near_best``: the lowest index
(greedy) or the lexicographically first subset (exact) among the values at
or above v - ``TIE_RTOL`` |v|, v the best, so that rounding, which the BLAS
thread count changes, does not decide between mirror nodes. Exact applies
it to each chunk and then to the size's kept subsets: x - ``TIE_RTOL`` |x|
rises with x, so no value below its own chunk's floor reaches the final
one. A gain or F that overflows float64 is refused with ``NumericalError``,
not read as a skip. Every path reads G as var_y(C) - F.
"""

from __future__ import annotations

import itertools
import math
import operator
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import BudgetExceededError, NumericalError
from .objective import SCHUR_GUARD, _require_finite, var_y

EXACT_BUDGET = 10 ** 7
TIE_RTOL = 1e-9     # gains or F values this close, relative, count as a tie
WALK_FLOATS = 65536  # floats per chunk of the exact walk's entries


@dataclass(frozen=True)
class SelectionResult:
    chosen: tuple[int, ...]
    gains: tuple[float, ...]
    f_values: tuple[float, ...]   # per prefix, f_values[0] = F(empty) = 0
    var_y: float
    eval_count: int
    method: str
    # how many of the eval_count evaluations were skipped as degenerate
    skipped: int = 0

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


def marginal_gain(r: np.ndarray, d: np.ndarray, c_diag: np.ndarray,
                  taken: np.ndarray) -> np.ndarray:
    """One greedy round's gains F(K + i) - F(K) = r_i^2 / d_i, for
    r = (C|K) 1, d = diag(C|K), c_diag = diag C and ``taken`` the boolean
    mask of K. Entry i is -inf when i is in K or its Schur complement is
    degenerate, d_i <= ``SCHUR_GUARD`` c_ii; only the other entries are
    divided.

    ``greedy_select`` calls it once per round, so wrapping it sees every
    gain of the n s - s(s-1)/2 evaluations and every degenerate candidate.
    Elementwise r * r / d rounds as the scalar r_i * r_i / d_i does; as with
    Python floats, an overflow gives inf and inf / inf nan, silently."""
    skip = taken | (d <= SCHUR_GUARD * c_diag)
    with np.errstate(over="ignore", invalid="ignore"):
        return np.divide(r * r, d, out=np.full(d.shape, -math.inf),
                         where=~skip)


def _near_best(values: np.ndarray) -> np.ndarray:
    """The tie rule: the row-major positions of the entries of ``values`` at
    or above v - ``TIE_RTOL`` |v|, v the largest, so the first is the winner;
    none when every entry is -inf, a skipped one. ``NumericalError`` when v
    is +inf or NaN: a gain or F that overflowed float64."""
    values = values.ravel()
    top = values.max()
    if not top < math.inf:
        raise NumericalError(f"best gain or F is {top}: it overflowed "
                             "float64; rescale C")
    if top == -math.inf:
        return np.empty(0, dtype=np.intp)
    return np.flatnonzero(values >= top - TIE_RTOL * abs(top))


def greedy_select(C, s: int) -> SelectionResult:
    """s rounds of best-marginal-gain insertion.

    Each round scores every candidate in one ``marginal_gain`` call and picks
    the lowest index among the gains within ``TIE_RTOL`` of the best, so
    mirror nodes whose gains differ only by rounding resolve the same way
    under any BLAS. A degenerate candidate is skipped and counted, with a
    warning, once per round in index order; ``NumericalError`` if all of a
    round's candidates are degenerate, or, after the warnings, if its best
    gain overflows float64. ``eval_count`` counts one gain per unpicked
    candidate and round, n s - s(s-1)/2.

    ``C`` is a dense covariance or the ``moments`` operator: only ``C @ 1``,
    ``1 @ C``, ``C.diagonal()`` and one row ``C[i]`` per pick are read, and
    the two agree to rounding.
    """
    n = C.shape[0]
    s = _cardinality(s, n)
    # C|K = C - L'L: row t of L is the pivoted-Cholesky column of pick t
    r = C @ np.ones(n)
    c_diag = C.diagonal()
    # ValueError on a NaN or inf in C, which makes its row sum non-finite
    _require_finite(r)
    _require_finite(c_diag)
    d = c_diag.copy()
    L = np.empty((s, n))
    taken = np.zeros(n, dtype=bool)
    chosen: list[int] = []
    gains: list[float] = []
    skipped = 0
    for t in range(s):
        round_gains = marginal_gain(r, d, c_diag, taken)
        # C_ii >= 0 keeps every divided gain above -inf, so -inf off K marks
        # exactly the degenerate candidates
        for i in np.flatnonzero((round_gains == -math.inf) & ~taken).tolist():
            warnings.warn(f"skipping candidate {i}: degenerate Schur "
                          f"complement {d[i]:.3e}")
            skipped += 1
        near = _near_best(round_gains)
        if not near.size:
            raise NumericalError("all candidates degenerate in this round")
        i = int(near[0])
        root = math.sqrt(d[i])
        L[t] = (C[i] - L[:t, i] @ L[:t]) / root
        r -= L[t] * (r[i] / root)
        d -= L[t] * L[t]
        taken[i] = True
        chosen.append(i)
        gains.append(float(round_gains[i]))
    return SelectionResult(chosen=tuple(chosen), gains=tuple(gains),
                           f_values=(0.0, *itertools.accumulate(gains)),
                           var_y=var_y(C),
                           eval_count=n * s - s * (s - 1) // 2,
                           method="greedy", skipped=skipped)


def check_exact_budget(n: int, sizes: range) -> None:
    """Raise ``BudgetExceededError``, naming the first k in ``sizes`` over
    it, unless C(n, k) <= ``EXACT_BUDGET`` for every k in ``sizes``."""
    for k in sizes:
        n_subsets = math.comb(n, k)
        if n_subsets > EXACT_BUDGET:
            raise BudgetExceededError(f"C({n},{k}) = {n_subsets} subsets "
                                      f"exceeds the budget of {EXACT_BUDGET}")


def _walk(C: np.ndarray, sizes: range):
    """Depth first, in lexicographic order, over the nonempty subsets of at
    most ``sizes[-1]`` nodes whose pivots all clear the guard and that still
    leave room for ``sizes[0]`` nodes, for every size in ``sizes`` at once. It
    yields (heads, fs, ehead, ecol, V) for each chunk of same-size subsets of
    fewer than ``sizes[-1]`` nodes: heads is a (B, t) int array whose rows are
    the chunk's subsets in order, fs (B, t + 1) holds F of each head's
    prefixes, F(empty) = 0 first, and the flat arrays ehead, ecol and V hold
    one entry per head and column after the head's last node, in (head,
    column) order; entry k stands for the subset heads[ehead[k]] + (ecol[k],),
    and V[k] is its F. V[k] is -inf when the extension is off the walk (so
    late that fewer than ``sizes[0]`` nodes fit) or when its pivot is at or
    below ``SCHUR_GUARD`` c_jj: such a branch is pruned, not extended
    further. The chunks of t-node heads cover the subsets of size
    t + 1 in ``sizes`` in lexicographic order. ``NumericalError`` names the
    size when a V is +inf or NaN, an F that overflows float64.

    A chunk carries greedy's state on the columns its heads can still
    extend to: fs and, per entry, r_j and d_j of r = (C|K) 1 and
    d = diag(C|K) and the head's t values L_uj of C|K = C - L'L, a (t, E)
    array; the heads of ``sizes[-1]`` - 1 nodes, which are scored but never
    extended, keep no row of L. A scored entry j, but of the last node,
    becomes a head of the next level, and its entries are the next
    n - 1 - j entries of its parent's, so one index array gathers each next
    chunk's state, and t multiply-adds give its new row of L,
    (c_jj' - sum_u L_uj L_uj') / sqrt(d_j). A chunk of heads that keep
    ``rows`` rows of L holds at most ``WALK_FLOATS`` // (2 rows + 12)
    entries, or one head's entries when they alone are more: the words an
    entry takes in the chunk's state and in the temporaries that build it.
    The budget, 65536 floats or 512 KiB, fits in an L2 cache; at 20 to 40
    nodes it measured 10-20% faster than half of it.
    """
    _require_finite(C)
    n = C.shape[0]
    c_flat = C.ravel()
    guard = SCHUR_GUARD * C.diagonal()
    lo, depth = sizes[0], sizes[-1]

    def visit(heads, fs, ehead, ecol, R, D, L):
        t = heads.shape[1]
        ok = D > guard.take(ecol)
        # after extension j, lo - t - 1 more nodes must still fit
        room = n - max(lo - t - 1, 0)
        on_walk = ecol < room if room < n else True
        with np.errstate(over="ignore", invalid="ignore"):
            V = np.divide(R * R, D, out=np.full(D.shape, -np.inf),
                          where=ok & on_walk)
            V += fs[:, -1].take(ehead)
        if not V.max() < np.inf:
            raise NumericalError(f"F of a subset of size {t + 1} overflowed "
                                 "float64; rescale C")
        yield heads, fs, ehead, ecol, V
        if t + 1 == depth:
            return
        # the scored extensions, but of the last node, which has none
        kids = np.flatnonzero((V > -np.inf) & (ecol < n - 1))
        size = n - 1 - ecol[kids]
        ends = np.cumsum(size)
        firsts = ends - size
        # kid c's entries, at firsts[c]..ends[c] - 1 of the next level, are
        # its parent's entries kids[c] + 1..kids[c] + size[c]
        shift = kids + 1 - firsts
        # the last level is only scored, so its heads keep no row of L
        rows = t + 1 if t + 2 < depth else 0
        per_chunk = WALK_FLOATS // (2 * rows + 12)
        c0 = 0
        while c0 < kids.size:
            c1 = max(int(np.searchsorted(ends, firsts[c0] + per_chunk,
                                         "right")), c0 + 1)
            p, m = kids[c0:c1], size[c0:c1]
            hp = ehead.take(p)
            kid = np.repeat(np.arange(p.size), m)
            q = np.arange(firsts[c0], ends[c1 - 1]) + shift[c0:c1].take(kid)
            piv = p.take(kid)
            jc, col = ecol.take(p), ecol.take(q)
            roots = np.sqrt(D.take(p))
            L_next = np.empty((rows, q.size))
            dot = np.zeros(q.size)
            for u in range(t):
                Lq = L[u].take(q, out=L_next[u]) if rows else L[u].take(q)
                dot += L[u].take(piv) * Lq
            Lk = ((c_flat.take((n * jc).take(kid) + col) - dot)
                  / roots.take(kid))
            if rows:
                L_next[t] = Lk
            yield from visit(np.column_stack((heads.take(hp, 0), jc)),
                             np.column_stack((fs.take(hp, 0), V.take(p))),
                             kid, col,
                             R.take(q) - Lk * (R.take(p) / roots).take(kid),
                             D.take(q) - Lk * Lk, L_next)
            c0 = c1

    if depth > 0:
        yield from visit(np.zeros((1, 0), dtype=np.intp), np.zeros((1, 1)),
                         np.zeros(n, dtype=np.intp), np.arange(n),
                         C @ np.ones(n), C.diagonal(), np.zeros((0, n)))


def _exact(C: np.ndarray, sizes: range) -> list[SelectionResult]:
    """Refuse ``sizes`` over budget, keep each chunk's near-best subsets
    with their prefix F values per size, in walk order, and build each
    size's result from the first of them within ``TIE_RTOL`` of the best.
    Every size-k subset the walk does not score is under a pruned branch."""
    n = C.shape[0]
    check_exact_budget(n, sizes)
    # per size, (subset, f_values) with f_values[-1] rising: a subset whose
    # F is no larger than one met before it can never be the first near-best
    near: list[list] = [[] for _ in range(sizes[-1] + 1)]
    near[0].append(((), (0.0,)))
    scored = [1] + [0] * sizes[-1]
    for heads, fs, ehead, ecol, V in _walk(C, sizes):
        size = heads.shape[1] + 1
        scored[size] += int(np.count_nonzero(V > -np.inf))
        kept = near[size]
        ks = _near_best(V)
        w = V.take(ks)
        last = kept[-1][1][-1] if kept else -math.inf
        ks = ks[w > np.maximum.accumulate(np.append(last, w[:-1]))]
        kept.extend(((*heads[ehead[k]].tolist(), int(ecol[k])),
                     (*fs[ehead[k]].tolist(), float(V[k])))
                    for k in ks.tolist())
    vy = var_y(C)
    results = []
    for k in sizes:
        skipped = math.comb(n, k) - scored[k]
        if skipped:
            warnings.warn(f"skipping {skipped} subset(s) of size {k}: "
                          "principal submatrix not positive definite")
        if not near[k]:
            raise NumericalError(
                f"all {math.comb(n, k)} subsets of size {k} degenerate")
        best_K, f_values = near[k][
            _near_best(np.array([f[-1] for _, f in near[k]]))[0]]
        results.append(SelectionResult(
            chosen=best_K, gains=tuple(np.diff(f_values).tolist()),
            f_values=f_values, var_y=vy,
            eval_count=math.comb(n, k), method="exact",
            skipped=skipped))
    return results


def exact_select(C: np.ndarray, s: int) -> SelectionResult:
    """Score all size-s subsets in one depth-first walk and return the
    lexicographically first whose F is within ``TIE_RTOL`` of the maximum,
    by greedy's tie rule.

    Refuses a request over budget (see ``check_exact_budget``) before any work.
    A subset with a degenerate pivot, by the walk's guard alone, is skipped,
    as greedy skips such a candidate, and counted, with one warning that
    gives the count; only when every subset is degenerate, or when an F
    overflows float64, does this raise ``NumericalError``. The winner's
    s + 1 prefix F values come from the walk.
    """
    n = C.shape[0]
    s = _cardinality(s, n)
    return _exact(C, range(s, s + 1))[0]


def exact_curve(C: np.ndarray, max_k: int) -> list[SelectionResult]:
    """``exact_select(C, k)`` for k = 0..max_k from one walk, with the same
    skip counts, warnings and ``NumericalError`` as one call per k, in
    turn; refuses before any work if a k is over budget."""
    n = C.shape[0]
    max_k = _cardinality(max_k, n)
    return _exact(C, range(max_k + 1))

