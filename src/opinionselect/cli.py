"""Command-line frontend.

Commands: generate, select, score, curve, validate. ``_write`` emits every
JSON document, so all share one header: schema, meta, then graph if any.
Every command that takes --out writes atomically (temp file + rename) so no
partial output survives a failure. select, score and curve read and check
every input before any O(n^3) step. Exit codes: 0 ok, 1 validation-suite
failure, 2 bad input, 3 exact budget exceeded or out of memory, 4 numerical
failure: an output or covariance that overflows float64, a covariance that
misses its own Lyapunov equation, an attenuation at or above 1/rho(G), found
after the eigendecomposition, a selection whose candidates or subsets are
all degenerate or whose value overflows float64, or a LAPACK failure.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import os
import sys
import tempfile
from time import perf_counter

import numpy as np

from . import __version__
from . import centrality, equilibrium, selector, validation
from .equilibrium import NoiseModel
from .errors import BudgetExceededError, GraphError, NumericalError
from .graph import (NetworkOperators, SocialGraph, generate_cycle,
                    generate_watts_strogatz, load_graph, load_sigma2,
                    normalize, read_records, save_graph)

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_AUDIT_FAIL = 1
EXIT_BAD_INPUT = 2
EXIT_BUDGET = 3
EXIT_NUMERICAL = 4

DENSE_ROWS = 8   # greedy forms C once it takes more than n / DENSE_ROWS picks
STUBBORN_FIELDS = (("node", int),)


def _atomic_write(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    umask = os.umask(0)
    os.umask(umask)
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            # mkstemp creates 0600; give the mode a plain create gives
            os.fchmod(fh.fileno(), 0o666 & ~umask)
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _emit(args, text: str) -> None:
    if getattr(args, "out", None):
        _atomic_write(args.out, text)
    else:
        sys.stdout.write(text)


def _read_inputs(args) -> tuple[SocialGraph, NoiseModel, float]:
    """Read and check every input of a graph command before any O(n^3) step:
    the graph, the noise variances on Sigma / 4^e (max entry in [1, 4)) and
    4^e. Since sqrt(4^e) is exact, what is linear in Sigma, times 4^e, has
    the bits of any unscaled run that neither over- nor underflows."""
    if args.stubborn is not None:
        ids = read_records(args.stubborn.split(","), STUBBORN_FIELDS,
                           "--stubborn item")
    elif args.stubborn_file is not None:
        ids = read_records(args.stubborn_file, STUBBORN_FIELDS,
                           "stubborn file line")
    else:
        raise GraphError("provide --stubborn or --stubborn-file")
    g = load_graph(args.graph, [node for _, (node,) in ids])
    spec = args.sigma2
    if spec.startswith("uniform:"):
        try:
            value = float(spec.removeprefix("uniform:"))
            sigma2 = NoiseModel.uniform(len(g.regular), value).sigma2
        except ValueError:
            raise GraphError(f"--sigma2 {spec!r}: expected 'uniform:VALUE' "
                             "with VALUE finite and positive") from None
    else:
        sigma2 = NoiseModel(load_sigma2(spec, g)).sigma2
    e = (math.frexp(sigma2.max())[1] - 1) // 2
    canonical = np.ldexp(sigma2, -2 * e)
    smallest = canonical.min()
    if smallest < np.finfo(float).tiny:     # 0 or a subnormal, rounded
        raise GraphError(f"--sigma2 {spec}: the noise variances span "
                         "too wide a range; the smallest underflows to "
                         f"{'0' if smallest == 0.0 else 'a subnormal'}")
    return g, NoiseModel(canonical), math.ldexp(1.0, 2 * e)


def _write(args, command: str, g: SocialGraph | None, body: dict,
           **meta) -> int:
    """Emit one JSON document: ``schema``, ``meta`` (tool, version, command,
    seed, timing_s from ``args.t0``, extras), ``graph`` if any, ``body``."""
    doc = {"schema": SCHEMA_VERSION,
           "meta": {"tool": "opinionselect", "version": __version__,
                    "command": command, "seed": getattr(args, "seed", None),
                    "timing_s": round(perf_counter() - args.t0, 6), **meta}}
    if g is not None:
        doc["graph"] = {"n": g.n_nodes, "n_stubborn": len(g.stubborn),
                        "n_regular": len(g.regular), "n_edges": g.n_edges}
    _emit(args, json.dumps(doc | body, indent=2) + "\n")
    return EXIT_OK


def _check_size(flag: str, k: int, g: SocialGraph) -> None:
    if not 0 <= k <= len(g.regular):
        raise GraphError(f"{flag} {k} is outside 0..{len(g.regular)}, "
                         "the number of regular nodes")


def _names(spec: str, known, noun: str) -> list[str]:
    """The comma-separated names in ``spec``; unknown or repeated ones are refused."""
    names = [m.strip() for m in spec.split(",")]
    unknown = [m for m in names if m not in known]
    if unknown:
        raise GraphError(f"unknown {noun}(s): {unknown}")
    repeated = sorted({m for m in names if names.count(m) > 1})
    if repeated:
        raise GraphError(f"repeated {noun}(s): {repeated}")
    return names


def _moments_for(ops: NetworkOperators, noise: NoiseModel, picks: int,
                 exact=False):
    """The regime tag and the covariance: the dense C, P dropped, for an
    exact search or more than n / ``DENSE_ROWS`` greedy ``picks``, else the
    ``moments`` operator: an operator row costs O(n^2), and forming C is one
    n^3 product."""
    with np.errstate(over="raise", invalid="raise"):
        try:
            mom = equilibrium.moments(ops, noise)
        except FloatingPointError:
            raise NumericalError(
                f"a regular strength (the largest is {float(ops.w.max())!r}) "
                "overflows float64 in the covariance; divide the edge weights "
                "by a common factor") from None
    cov = mom.C if exact or DENSE_ROWS * picks > ops.n_regular else mom
    return mom.method_tag, cov


def _rescaled(args, scale: float, values) -> list[float]:
    """``values`` times ``scale``; ``NumericalError`` if one overflows."""
    out = [float(v) * scale for v in values]
    if all(map(math.isfinite, out)):
        return out
    raise NumericalError(f"--sigma2 {args.sigma2}: an output overflows "
                         "float64; divide the noise variances by a constant")


def _check_seed(args) -> None:
    # numpy's own refusal names neither the flag nor the value
    if args.seed < 0:
        raise GraphError(f"--seed {args.seed}: must be at least 0")


def cmd_generate(args) -> int:
    _check_seed(args)
    if args.n_stubborn < 1:
        raise GraphError(f"--n-stubborn {args.n_stubborn}: every other command "
                         "needs at least 1 stubborn node")
    if args.model == "ws":
        g = generate_watts_strogatz(args.n, args.k, args.beta, args.seed,
                                    args.n_stubborn)
    else:
        g = generate_cycle(args.n, args.n_stubborn)
    prefix = args.out_prefix
    save_graph(g, f"{prefix}.edges", f"{prefix}.stubborn")
    return _write(args, "generate", g,
                  {"files": {"edges": f"{prefix}.edges",
                             "stubborn": f"{prefix}.stubborn"}})


def cmd_select(args) -> int:
    g, noise, scale = _read_inputs(args)
    _check_size("--k", args.k, g)
    exact = args.method == "exact"
    if exact:
        selector.check_exact_budget(len(g.regular), range(args.k, args.k + 1))
    method_tag, C = _moments_for(normalize(g), noise, args.k, exact)
    result = (selector.exact_select(C, args.k) if exact
              else selector.greedy_select(C, args.k))
    regular_labels = [g.labels[i] for i in g.regular]
    return _write(args, "select", g, {
        "moments_method": method_tag,
        "selection": {
            "method": result.method,
            "chosen": [regular_labels[i] for i in result.chosen],
            "chosen_regular_index": list(result.chosen),
            "gains": _rescaled(args, scale, result.gains),
            "f_values": _rescaled(args, scale, result.f_values),
            "g_values": _rescaled(args, scale, result.g_values),
            "var_y": _rescaled(args, scale, [result.var_y])[0],
            "residual_fractions": [gv / result.var_y for gv in result.g_values],
        },
        "regular_labels": regular_labels,
    }, eval_count=result.eval_count)


def _check_adjacency_attenuation(a: float, g: SocialGraph) -> None:
    """Refuse |a| at or past 1/bound, for an O(m) lower bound on rho(G) of
    the regular nodes' 0/1 adjacency G: its mean degree (the Rayleigh
    quotient at 1) and sqrt of its largest degree (the star at that node).
    The exact 1/rho(G) check follows the eigendecomposition."""
    degree = np.bincount(g.regular_arcs[0], minlength=len(g.regular))
    mean, star = float(degree.mean()), math.sqrt(degree.max())
    bound = max(mean, star)
    if abs(a) * bound >= 1.0:
        raise GraphError(
            f"--attenuation {a} too large for --matrix adjacency: rho(G) is "
            f"at least max(mean degree {mean:.6g}, sqrt(max degree) "
            f"{star:.6g}) = {bound:.6g}, so |a| must be below "
            f"{1.0 / bound:.6g}")


def cmd_score(args) -> int:
    g, noise, scale = _read_inputs(args)
    measures = _names(args.measures, centrality.MEASURES, "measure")
    if math.isnan(args.attenuation):
        raise GraphError("--attenuation must be a number, not nan")
    adjacency = (args.matrix == "adjacency"
                 and {"bonacich", "intercentrality"} & set(measures))
    if adjacency:
        _check_adjacency_attenuation(args.attenuation, g)
    ops = normalize(g)
    method_tag, mom = _moments_for(ops, noise, 0)
    G = ops
    if adjacency:
        row, col, _ = g.regular_arcs
        adj = np.zeros((ops.n_regular, ops.n_regular))
        adj[row, col] = 1.0
        G = centrality.spectrum(adj)
    score = {"var_reduction": lambda: centrality.var_reduction_scores(mom),
             "eta": lambda: centrality.eta_scores(ops),
             "bonacich": lambda: centrality.bonacich(G, args.attenuation),
             "intercentrality":
                 lambda: centrality.intercentrality(G, args.attenuation)}
    scores = [score[m]() for m in measures]
    rep = centrality.ranking_report(scores)
    regular_labels = [g.labels[i] for i in g.regular]
    return _write(args, "score", g, {
        "moments_method": method_tag,
        # var_reduction alone depends on the noise scale; ranks do not
        "scores": {s.measure: _rescaled(args, scale, s.scores)
                   if s.measure == "var_reduction" else list(s.scores)
                   for s in scores},
        "normalized_scores": {s.measure: list(s.normalized) for s in scores},
        "argmax": {m: regular_labels[i] for m, i in rep.argmax.items()},
        # null, not NaN, where tau is undefined (a constant score vector)
        "kendall_tau": {f"{a}|{b}": None if math.isnan(v) else v
                        for (a, b), v in rep.kendall_tau.items()},
        "regular_labels": regular_labels,
        "notes": ["single-node variance reduction follows the quadratic-form "
                  "objective, i.e. sigma_k^2 * eta_k on accepted closed-form "
                  "instances (not sigma_k * eta_k)"],
    })


def cmd_curve(args) -> int:
    g, noise, _ = _read_inputs(args)
    methods = _names(args.methods, ("greedy", "exact"), "method")
    _check_size("--max-k", args.max_k, g)
    if "exact" in methods:
        selector.check_exact_budget(len(g.regular), range(args.max_k + 1))
    # the rows are ratios, free of the scale
    method_tag, C = _moments_for(normalize(g), noise, args.max_k,
                                 "exact" in methods)
    rows = []
    for method in methods:
        if method == "greedy":
            result = selector.greedy_select(C, args.max_k)
            fractions = [gv / result.var_y for gv in result.g_values]
        else:
            fractions = [res.g_values[-1] / res.var_y
                         for res in selector.exact_curve(C, args.max_k)]
        for k, frac in enumerate(fractions):
            rows.append((k, method, 100.0 * frac))
    if args.format == "csv":
        buf = io.StringIO()
        csv.writer(buf).writerows([("k", "method", "residual_pct"), *rows])
        _emit(args, buf.getvalue())
        return EXIT_OK
    return _write(args, "curve", g, {
        "moments_method": method_tag,
        "curve": [{"k": k, "method": m, "residual_pct": p}
                  for k, m, p in rows]})


def cmd_validate(args) -> int:
    _check_seed(args)
    if args.trials < 0:
        raise GraphError(f"--trials {args.trials}: must be at least 0")
    report = validation.SUITES[args.suite](args)
    _write(args, "validate", None, {"validation": report})
    return EXIT_OK if report["ok"] else EXIT_AUDIT_FAIL


# built once, for every ``main`` call: a build costs about ten parses
@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="opinionselect",
        description="Observation subset selection for noisy opinion dynamics "
                    "with stubborn agents.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_graph_flags(p):
        p.add_argument("--graph", required=True, help="edge-list file")
        # not required: _read_inputs refuses neither given (exit 2)
        stub = p.add_mutually_exclusive_group()
        stub.add_argument("--stubborn", help="comma-separated stubborn ids")
        stub.add_argument("--stubborn-file", help="one stubborn id per line")
        p.add_argument("--sigma2", default="uniform:1.0",
                       help="'uniform:VALUE' or a 'node sigma2' file")
        p.add_argument("--out", help="output file (atomic write)")

    p = sub.add_parser("generate", help="write a synthetic instance")
    p.add_argument("--model", choices=["ws", "cycle"], required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, default=4, help="ws ring-lattice degree")
    p.add_argument("--beta", type=float, default=0.3, help="ws rewiring prob")
    p.add_argument("--n-stubborn", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out-prefix", required=True)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("select", help="pick the observation subset")
    add_graph_flags(p)
    p.add_argument("--k", type=int, required=True, dest="k")
    p.add_argument("--method", choices=["greedy", "exact"], default="greedy")
    p.set_defaults(func=cmd_select)

    p = sub.add_parser("score", help="node centrality/score comparison")
    add_graph_flags(p)
    p.add_argument("--measures", default="var_reduction,bonacich")
    p.add_argument("--attenuation", type=float, default=1.0)
    p.add_argument("--matrix", choices=["adjacency", "normalized"],
                   default="normalized")
    p.set_defaults(func=cmd_score)

    p = sub.add_parser("curve", help="residual-variance curve vs subset size")
    add_graph_flags(p)
    p.add_argument("--max-k", type=int, required=True)
    p.add_argument("--methods", default="greedy")
    p.add_argument("--format", choices=["json", "csv"], default="csv")
    p.set_defaults(func=cmd_curve)

    p = sub.add_parser("validate", help="run a statistical/structural audit")
    p.add_argument("--suite", required=True, choices=list(validation.SUITES))
    p.add_argument("--trials", type=int, default=50,
                   help="instances drawn; moments ignores it")
    p.add_argument("--max-r", type=int, default=7,
                   help="regular nodes: submodularity <= MAX_R in 3..13, "
                        "greedy-guarantee 6..min(MAX_R, 14) with MAX_R >= 6, "
                        "incremental 10..max(MAX_R, 12); moments ignores it")
    p.add_argument("--replicas", type=int, default=20000,
                   help="Monte Carlo replicas, at least 2 (moments only)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="output file (atomic write)")
    p.set_defaults(func=cmd_validate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    args.t0 = perf_counter()
    try:
        return args.func(args)
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (NumericalError, np.linalg.LinAlgError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (ValueError, OSError) as exc:    # GraphError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT


if __name__ == "__main__":
    sys.exit(main())
