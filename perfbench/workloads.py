"""Workload definitions: seeded instance files, reference values, output checks.

Every instance is drawn from the run's ``--seed`` and written as the three
files the CLI reads (edge list, stubborn ids, per-node sigma2), so the program
sees only files. References are computed once per pooled instance, before any
timed operation: the covariance from the package's ``covariance_lyapunov``
oracle (its Lyapunov residual is checked here), objective values from
``objective.f_score`` on that covariance, and greedy picks, exact optima and
centrality vectors from this module's own NumPy code, so a change to the
program's fast paths cannot also change what its output is checked against.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import math
from dataclasses import dataclass
from pathlib import Path

import networkx as nx
import numpy as np

LYAPUNOV_RESIDUAL_TOL = 1e-10
VALUE_RTOL = 1e-8        # F, G, var_y and score vectors against the reference
TIE_RTOL = 1e-9          # greedy gains this close count as a tie
SCHUR_GUARD = 1e-12      # mirrors the program's degenerate-candidate guard


@dataclass(frozen=True)
class Workload:
    name: str
    graph: str                 # "ws", "regular" or "reachable"
    n: int
    n_stubborn: int
    hetero_noise: bool         # sigma2 ~ U(0.5, 2) per node, else all 1.0
    k: int                     # --k of select, --max-k of curve
    command: tuple[str, ...]   # CLI words after the input flags; "{k}" is k
    pool: int                  # instances generated per run, used in turn

    @property
    def methods(self) -> list[str]:
        """The selection methods of a curve workload."""
        if "--methods" not in self.command:
            return []
        return self.command[self.command.index("--methods") + 1].split(",")


# Each workload's one-line reason is its "why" in BENCHMARK.json.

WORKLOADS = {w.name: w for w in (
    Workload(
        "select-ws-large",
        "ws", 1000, 10, False, 20,
        ("select", "--method", "greedy", "--k", "{k}"), 3),
    Workload(
        "curve-greedy-long",
        "ws", 400, 4, True, 200,
        ("curve", "--methods", "greedy", "--max-k", "{k}", "--format", "csv"),
        3),
    Workload(
        "curve-exact-small",
        "reachable", 22, 2, True, 5,
        ("curve", "--methods", "greedy,exact", "--max-k", "{k}",
         "--format", "csv"), 4),
    Workload(
        "score-regular",
        "regular", 1000, 10, False, 0,
        ("score", "--measures", "var_reduction,eta,bonacich,intercentrality"),
        3),
)}


@dataclass
class Instance:
    """One generated input: its files and the arrays the references use."""

    index: int
    files: dict[str, str]
    W: np.ndarray
    stubborn: list[int]
    sigma2: np.ndarray       # per regular node, in label order

    @property
    def regular(self) -> list[int]:
        stub = set(self.stubborn)
        return [i for i in range(len(self.W)) if i not in stub]

    @property
    def A(self) -> np.ndarray:
        R = self.regular
        return self.W[np.ix_(R, R)] / self.W[R].sum(axis=1)[:, None]


def _draw_graph(w: Workload, rng: np.random.Generator) -> np.ndarray:
    nx_seed = int(rng.integers(1 << 31))
    if w.graph == "ws":
        gnx = nx.connected_watts_strogatz_graph(w.n, 6, 0.1, tries=1000,
                                                seed=nx_seed)
    elif w.graph == "regular":
        for attempt in range(100):
            gnx = nx.random_regular_graph(4, w.n, seed=nx_seed + attempt)
            if nx.is_connected(gnx):
                break
        else:
            raise RuntimeError("no connected 4-regular graph drawn")
    else:
        # spanning tree plus n/2 extra edges, weights U(0.5, 2): connected
        W = np.zeros((w.n, w.n))
        for i in range(1, w.n):
            j = int(rng.integers(0, i))
            W[i, j] = W[j, i] = rng.uniform(0.5, 2.0)
        for _ in range(w.n // 2):
            i, j = rng.integers(0, w.n, size=2)
            if i != j and W[i, j] == 0:
                W[i, j] = W[j, i] = rng.uniform(0.5, 2.0)
        return W
    W = np.zeros((w.n, w.n))
    for i, j in gnx.edges:
        W[i, j] = W[j, i] = 1.0
    return W


def make_instance(w: Workload, seed: int, index: int,
                  directory: Path) -> Instance:
    """Draw pooled instance ``index`` of the run seeded by ``seed``."""
    rng = np.random.default_rng([seed, index])
    W = _draw_graph(w, rng)
    stubborn = sorted(int(i) for i in
                      rng.choice(w.n, size=w.n_stubborn, replace=False))
    n_reg = w.n - w.n_stubborn
    sigma2 = rng.uniform(0.5, 2.0, n_reg) if w.hetero_noise \
        else np.ones(n_reg)
    stem = directory / f"inst{index}"
    inst = Instance(index, {"edges": f"{stem}.edges",
                            "stubborn": f"{stem}.stubborn",
                            "sigma2": f"{stem}.sigma2"}, W, stubborn, sigma2)
    iu, ju = np.nonzero(np.triu(W))
    Path(inst.files["edges"]).write_text("# i j w\n" + "".join(
        f"{i} {j} {float(W[i, j])!r}\n" for i, j in zip(iu, ju)))
    Path(inst.files["stubborn"]).write_text(
        "".join(f"{s}\n" for s in stubborn))
    Path(inst.files["sigma2"]).write_text("".join(
        f"{i} {float(v)!r}\n" for i, v in zip(inst.regular, sigma2)))
    return inst


def argv(w: Workload, inst: Instance, out: str) -> list[str]:
    """The CLI arguments of one operation on ``inst`` writing to ``out``."""
    return ([w.command[0], "--graph", inst.files["edges"],
             "--stubborn-file", inst.files["stubborn"],
             "--sigma2", inst.files["sigma2"]]
            + [a.format(k=w.k) for a in w.command[1:]] + ["--out", out])


# ---------------------------------------------------------------------------
# References
# ---------------------------------------------------------------------------

def greedy_walk(C: np.ndarray, s: int, picks=None):
    """Greedy in conditional-covariance form, independent of the program's.

    Without ``picks`` it returns the greedy sequence (first index wins a
    tie). With ``picks`` it follows them instead and returns None unless
    every pick's gain is within ``TIE_RTOL`` of the best gain of its round.
    """
    n = C.shape[0]
    diag = np.diag(C).copy()
    r = C.sum(axis=1)           # (C|K) 1
    d = diag.copy()             # diag(C|K)
    V = np.zeros((s, n))
    taken = np.zeros(n, dtype=bool)
    chosen = []
    for t in range(s):
        with np.errstate(divide="ignore", invalid="ignore"):
            gains = r * r / d
        gains[taken | (d <= SCHUR_GUARD * diag)] = -np.inf
        best = int(np.argmax(gains))
        if picks is None:
            i = best
        else:
            i = int(picks[t])
            if not 0 <= i < n or gains[i] < gains[best] * (1.0 - TIE_RTOL):
                return None
        root = math.sqrt(d[i])
        V[t] = (C[i] - V[:t, i] @ V[:t]) / root
        r = r - V[t] * (r[i] / root)
        d = d - V[t] * V[t]
        taken[i] = True
        chosen.append(i)
    return chosen


def exact_best(C: np.ndarray, s: int) -> tuple[float, tuple[int, ...]]:
    """Largest F over all size-s subsets, by batched solves."""
    if s == 0:
        return 0.0, ()
    combos = np.array(list(itertools.combinations(range(C.shape[0]), s)))
    v = C.sum(axis=1)[combos]
    blocks = C[combos[:, :, None], combos[:, None, :]]
    F = np.einsum("ij,ij->i", v, np.linalg.solve(blocks, v[..., None])[..., 0])
    j = int(np.argmax(F))
    return float(F[j]), tuple(int(i) for i in combos[j])


def reference(w: Workload, inst: Instance) -> dict:
    """Reference values for every check ``check_output`` makes."""
    from opinionselect.equilibrium import NoiseModel, covariance_lyapunov
    from opinionselect.objective import f_score

    A = inst.A
    Sigma = np.diag(inst.sigma2)
    C = covariance_lyapunov(A, NoiseModel(inst.sigma2))
    residual = np.linalg.norm(C - A @ C @ A.T - Sigma) / np.linalg.norm(C)
    if not residual <= LYAPUNOV_RESIDUAL_TOL:
        raise RuntimeError(f"reference covariance of instance {inst.index} "
                           f"has Lyapunov residual {residual:.3e}")
    ref = {"C": C, "var_y": float(C.sum()), "labels": inst.regular}
    if w.command[0] == "curve":
        picks = greedy_walk(C, w.k)
        ref["greedy_f"] = [f_score(C, picks[:t]) for t in range(w.k + 1)]
        if "exact" in w.methods:
            ref["exact_f"] = []
            for s in range(w.k + 1):
                best_f, best_K = exact_best(C, s)
                if not _close(f_score(C, best_K), best_f, best_f):
                    raise RuntimeError("batched exact F disagrees with f_score")
                ref["exact_f"].append(best_f)
    elif w.command[0] == "score":
        n = len(A)
        eye = np.eye(n)
        M2 = np.linalg.inv(eye - A @ A)
        M1 = np.linalg.inv(eye - A)        # matrix "normalized", attenuation 1
        c1, b2, b1 = C.sum(axis=1), M2.sum(axis=1), M1.sum(axis=1)
        ref["scores"] = {"var_reduction": c1 * c1 / np.diag(C),
                         "eta": b2 * b2 / np.diag(M2),
                         "bonacich": b1,
                         "intercentrality": b1 * b1 / np.diag(M1)}
    return ref


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------

def _close(x: float, ref: float, scale: float, rtol: float = VALUE_RTOL) -> bool:
    return abs(x - ref) <= rtol * abs(scale)


def _check_select(doc: dict, ref: dict, w: Workload) -> str | None:
    from opinionselect.objective import f_score

    sel = doc["selection"]
    labels = ref["labels"]
    idx = sel["chosen_regular_index"]
    vy = ref["var_y"]
    if doc["regular_labels"] != labels:
        return "regular_labels differ from the instance"
    if len(idx) != w.k or sel["chosen"] != [labels[i] for i in idx]:
        return "chosen labels do not match chosen_regular_index"
    if greedy_walk(ref["C"], w.k, idx) is None:
        return "a greedy pick is not a best gain of its round"
    if not _close(sel["var_y"], vy, vy):
        return "var_y differs from the reference"
    if not len(sel["f_values"]) == len(sel["g_values"]) == w.k + 1:
        return "F and G are not given for every prefix"
    for t, (f, g) in enumerate(zip(sel["f_values"], sel["g_values"])):
        if not _close(f, f_score(ref["C"], idx[:t]), vy):
            return f"F of the size-{t} prefix differs from f_score"
        if not _close(f + g, sel["var_y"], vy, 1e-12):
            return f"F + G != var_y at size {t}"
    return None


def _check_curve(text: str, ref: dict, w: Workload) -> str | None:
    rows = list(csv.reader(io.StringIO(text)))
    if rows[0] != ["k", "method", "residual_pct"]:
        return "unexpected CSV header"
    curves: dict[str, list[float]] = {}
    for k, method, pct in rows[1:]:
        curve = curves.setdefault(method, [])
        if int(k) != len(curve):
            return f"{method} curve rows out of order at k={k}"
        curve.append(float(pct))
    vy = ref["var_y"]
    expected = {"greedy": ref["greedy_f"], "exact": ref.get("exact_f")}
    for method in w.methods:
        got, want = curves.get(method, []), expected[method]
        if len(got) != w.k + 1:
            return f"{method} curve has {len(got)} rows, expected {w.k + 1}"
        for k, (pct, f) in enumerate(zip(got, want)):
            if not _close(pct / 100.0, 1.0 - f / vy, 1.0):
                return f"{method} residual at k={k} differs from the reference"
    if "exact" in curves:
        for k, (e, g) in enumerate(zip(curves["exact"], curves["greedy"])):
            if e > g + 100.0 * VALUE_RTOL:
                return f"exact residual exceeds greedy residual at k={k}"
    return None


def _check_score(doc: dict, ref: dict, w: Workload) -> str | None:
    labels = ref["labels"]
    if doc["regular_labels"] != labels:
        return "regular_labels differ from the instance"
    for measure, want in ref["scores"].items():
        got = np.asarray(doc["scores"].get(measure, []), dtype=float)
        if got.shape != want.shape:
            return f"{measure} score vector has the wrong length"
        scale = np.max(np.abs(want))
        if np.max(np.abs(got - want)) > VALUE_RTOL * scale:
            return f"{measure} scores differ from the reference"
        top = labels.index(doc["argmax"][measure])
        if want[top] < np.max(want) * (1.0 - VALUE_RTOL):
            return f"{measure} argmax is not a maximal node"
    return None


def check_output(w: Workload, ref: dict, text: str) -> str | None:
    """None when the output is correct, else the first problem found."""
    try:
        if w.command[0] == "curve":
            return _check_curve(text, ref, w)
        doc = json.loads(text)
        if w.command[0] == "select":
            return _check_select(doc, ref, w)
        return _check_score(doc, ref, w)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return f"malformed output: {type(exc).__name__}: {exc}"
