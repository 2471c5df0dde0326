"""Command-line frontend.

Commands: generate, select, score, curve, validate. Every command that takes
--out writes atomically (temp file + rename) so no partial output survives a
failure. Exit codes: 0 ok, 1 validation-suite failure, 2 bad input, 3 exact
budget exceeded, 4 numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
import tempfile
import time

import numpy as np

from . import __version__
from . import centrality, equilibrium, objective, selector
from .simulate import (NOISE_FAMILIES, SimConfig, empirical_moments,
                       simulate as run_simulation)
from .equilibrium import NoiseModel
from .errors import BudgetExceededError, GraphError, NumericalError
from .graph import (SocialGraph, generate_cycle, generate_random_reachable,
                    generate_random_regular, generate_watts_strogatz,
                    load_graph, normalize, read_records, save_graph)

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_AUDIT_FAIL = 1
EXIT_BAD_INPUT = 2
EXIT_BUDGET = 3
EXIT_NUMERICAL = 4

STUBBORN_FIELDS = (("node", int),)
SIGMA2_FIELDS = (("node", int), ("sigma2", float))


def _atomic_write(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
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
        if not text.endswith("\n"):
            sys.stdout.write("\n")


def _load_graph_from_args(args) -> SocialGraph:
    if args.stubborn is not None:
        ids = read_records(args.stubborn.split(","), STUBBORN_FIELDS,
                           "--stubborn item")
    elif args.stubborn_file is not None:
        ids = read_records(args.stubborn_file, STUBBORN_FIELDS,
                           "stubborn file line")
    else:
        raise GraphError("provide --stubborn or --stubborn-file")
    return load_graph(args.graph, [node for _, (node,) in ids])


def _sigma2_from_args(args, g: SocialGraph) -> NoiseModel:
    spec = args.sigma2
    labels = [g.labels[i] for i in g.regular]
    if spec.startswith("uniform:"):
        return NoiseModel.uniform(len(labels), float(spec.split(":", 1)[1]))
    regular = set(labels)
    table: dict[int, float] = {}
    for lineno, (node, value) in read_records(spec, SIGMA2_FIELDS,
                                              "sigma2 file line"):
        if node not in regular:
            raise GraphError(f"sigma2 file line {lineno}: node {node} is not "
                             "a regular node of the graph")
        if node in table and table[node] != value:
            raise GraphError(f"sigma2 file line {lineno}: conflicting duplicate "
                             f"for node {node}: {table[node]} vs {value}")
        table[node] = value
    missing = [label for label in labels if label not in table]
    if missing:
        raise GraphError(f"sigma2 file misses regular node(s) {missing}")
    return NoiseModel(np.array([table[label] for label in labels]))


def _meta(args, command: str, t0: float, **extra) -> dict:
    meta = {"tool": "opinionselect", "version": __version__,
            "command": command, "seed": getattr(args, "seed", None),
            "timing_s": round(time.perf_counter() - t0, 6)}
    meta.update(extra)
    return meta


def _graph_summary(g: SocialGraph) -> dict:
    return {"n": g.n_nodes, "n_stubborn": len(g.stubborn),
            "n_regular": len(g.regular), "n_edges": g.n_edges}


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


def _moments_for(args, g: SocialGraph):
    ops = normalize(g)
    return ops, equilibrium.moments(ops, _sigma2_from_args(args, g))


def cmd_generate(args) -> int:
    t0 = time.perf_counter()
    if args.model == "ws":
        g = generate_watts_strogatz(args.n, args.k, args.beta, args.seed,
                                    args.n_stubborn)
    else:
        g = generate_cycle(args.n, args.n_stubborn)
    prefix = args.out_prefix
    save_graph(g, f"{prefix}.edges", f"{prefix}.stubborn")
    summary = {"schema": SCHEMA_VERSION,
               "meta": _meta(args, "generate", t0),
               "graph": _graph_summary(g),
               "files": {"edges": f"{prefix}.edges",
                         "stubborn": f"{prefix}.stubborn"}}
    sys.stdout.write(json.dumps(summary, indent=2) + "\n")
    return EXIT_OK


def cmd_select(args) -> int:
    t0 = time.perf_counter()
    g = _load_graph_from_args(args)
    _check_size("--k", args.k, g)
    if args.method == "exact":
        selector.check_exact_budget(len(g.regular), args.k)
    ops, mom = _moments_for(args, g)
    if args.method == "greedy":
        result = selector.greedy_select(mom.C, args.k)
    else:
        result = selector.exact_select(mom.C, args.k)
    regular_labels = [g.labels[i] for i in ops.regular]
    doc = {
        "schema": SCHEMA_VERSION,
        "meta": _meta(args, "select", t0, eval_count=result.eval_count),
        "graph": _graph_summary(g),
        "moments_method": mom.method_tag,
        "selection": {
            "method": result.method,
            "chosen": [regular_labels[i] for i in result.chosen],
            "chosen_regular_index": list(result.chosen),
            "gains": list(result.gains),
            "f_values": list(result.f_values),
            "g_values": list(result.g_values),
            "var_y": result.var_y,
            "residual_fractions": [gv / result.var_y for gv in result.g_values],
        },
        "regular_labels": regular_labels,
    }
    _emit(args, json.dumps(doc, indent=2) + "\n")
    return EXIT_OK


def cmd_score(args) -> int:
    t0 = time.perf_counter()
    g = _load_graph_from_args(args)
    measures = _names(args.measures, centrality.MEASURES, "measure")
    if math.isnan(args.attenuation):
        raise GraphError("--attenuation must be a number, not nan")
    ops, mom = _moments_for(args, g)
    if args.matrix == "normalized":
        G = ops
    else:
        G = (g.weights[np.ix_(ops.regular, ops.regular)] > 0).astype(float)
    scores = []
    for m in measures:
        if m == "var_reduction":
            scores.append(centrality.var_reduction_scores(mom.C))
        elif m == "eta":
            scores.append(centrality.eta_scores(ops))
        elif m == "bonacich":
            scores.append(centrality.bonacich(G, args.attenuation))
        else:
            scores.append(centrality.intercentrality(G, args.attenuation))
    rep = centrality.ranking_report(scores)
    regular_labels = [g.labels[i] for i in ops.regular]
    doc = {
        "schema": SCHEMA_VERSION,
        "meta": _meta(args, "score", t0),
        "graph": _graph_summary(g),
        "moments_method": mom.method_tag,
        "scores": {s.measure: list(s.scores) for s in scores},
        "normalized_scores": {s.measure: list(s.normalized) for s in scores},
        "argmax": {m: regular_labels[i] for m, i in rep.argmax.items()},
        # null, not NaN, where tau is undefined (a constant score vector)
        "kendall_tau": {f"{a}|{b}": None if math.isnan(v) else v
                        for (a, b), v in rep.kendall_tau.items()},
        "regular_labels": regular_labels,
        "notes": ["single-node variance reduction follows the quadratic-form "
                  "objective, i.e. sigma_k^2 * eta_k on accepted closed-form "
                  "instances (not sigma_k * eta_k)"],
    }
    _emit(args, json.dumps(doc, indent=2) + "\n")
    return EXIT_OK


def cmd_curve(args) -> int:
    t0 = time.perf_counter()
    g = _load_graph_from_args(args)
    methods = _names(args.methods, ("greedy", "exact"), "method")
    _check_size("--max-k", args.max_k, g)
    if "exact" in methods:
        for k in range(args.max_k + 1):
            selector.check_exact_budget(len(g.regular), k)
    _, mom = _moments_for(args, g)
    rows = []
    for method in methods:
        if method == "greedy":
            result = selector.greedy_select(mom.C, args.max_k)
            fractions = [gv / result.var_y for gv in result.g_values]
        else:
            fractions = []
            for k in range(args.max_k + 1):
                res = selector.exact_select(mom.C, k)
                fractions.append(res.g_values[-1] / res.var_y)
        for k, frac in enumerate(fractions):
            rows.append((k, method, 100.0 * frac))
    if args.format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["k", "method", "residual_pct"])
        writer.writerows(rows)
        _emit(args, buf.getvalue())
    else:
        doc = {"schema": SCHEMA_VERSION,
               "meta": _meta(args, "curve", t0),
               "graph": _graph_summary(g),
               "moments_method": mom.method_tag,
               "curve": [{"k": k, "method": m, "residual_pct": p}
                         for k, m, p in rows]}
        _emit(args, json.dumps(doc, indent=2) + "\n")
    return EXIT_OK


def _suite_moments(args) -> dict:
    g = generate_watts_strogatz(15, 4, 0.3, args.seed, 3)
    ops = normalize(g)
    noise = NoiseModel.uniform(ops.n_regular, 1.0)
    u = np.linspace(0.0, 1.0, len(ops.stubborn))
    mu = equilibrium.mean(ops, u)
    C = equilibrium.moments(ops, noise).C
    worst = 0.0
    ok = True
    for family in NOISE_FAMILIES:
        cfg = SimConfig(replicas=args.replicas, seed=args.seed,
                                 u=u, noise_family=family)
        emp = empirical_moments(run_simulation(ops, noise, cfg))
        dev_mean = np.max(np.abs(emp.mean - mu) / emp.se_mean)
        dev_cov = np.max(np.abs(emp.cov - C) / emp.se_cov)
        worst = max(worst, float(dev_mean), float(dev_cov))
        if dev_mean > 3.0 or dev_cov > 3.0:
            ok = False
    return {"suite": "moments", "ok": ok, "worst_dev_in_se": worst,
            "replicas": args.replicas}


def _suite_submodularity(args) -> dict:
    rng = np.random.default_rng(args.seed)
    slack_f, slack_g = [], []
    viol = 0
    for t in range(args.trials):
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
        C = equilibrium.moments(ops, noise).C
        rep = selector.submodularity_audit(C, budget=args.max_r)
        viol += rep.violations_f + rep.violations_g
        slack_f.append(rep.min_slack_f)
        slack_g.append(rep.min_slack_g)
    return {"suite": "submodularity", "ok": viol == 0, "violations": viol,
            # null, not Infinity, when no trial ran
            "min_slack_f": min(slack_f, default=None),
            "min_slack_g": min(slack_g, default=None),
            "trials": args.trials}


def _suite_guarantee(args) -> dict:
    rng = np.random.default_rng(args.seed)
    worst = 1.0
    ok = True
    for _ in range(args.trials):
        n = int(rng.integers(6, min(args.max_r, 14) + 1))
        g = generate_random_reachable(n + 2, 2, int(rng.integers(1 << 31)))
        ops = normalize(g)
        noise = NoiseModel(rng.uniform(0.5, 2.0, ops.n_regular))
        C = equilibrium.moments(ops, noise).C
        s = int(rng.integers(1, min(5, ops.n_regular) + 1))
        rep = selector.guarantee_check(C, s)
        worst = min(worst, rep.ratio)
        ok = ok and rep.ok
    return {"suite": "greedy-guarantee", "ok": ok, "worst_ratio": worst,
            "bound": selector.GREEDY_BOUND, "trials": args.trials}


def _suite_incremental(args) -> dict:
    rng = np.random.default_rng(args.seed)
    worst = 0.0
    for _ in range(args.trials):
        n = int(rng.integers(10, max(args.max_r, 12) + 1))
        g = generate_random_reachable(n + 3, 3, int(rng.integers(1 << 31)))
        ops = normalize(g)
        noise = NoiseModel(rng.uniform(0.5, 2.0, ops.n_regular))
        C = equilibrium.moments(ops, noise).C
        s = int(rng.integers(1, min(10, ops.n_regular) + 1))
        res = selector.greedy_select(C, s)
        for t in range(1, s + 1):
            direct = objective.f_score(C, res.chosen[:t])
            dev = abs(res.f_values[t] - direct) / max(abs(direct), 1e-300)
            worst = max(worst, dev)
    return {"suite": "incremental", "ok": worst <= 1e-8,
            "max_relative_deviation": worst, "trials": args.trials}


SUITES = {"moments": _suite_moments,
          "submodularity": _suite_submodularity,
          "greedy-guarantee": _suite_guarantee,
          "incremental": _suite_incremental}


def cmd_validate(args) -> int:
    t0 = time.perf_counter()
    report = SUITES[args.suite](args)
    doc = {"schema": SCHEMA_VERSION,
           "meta": _meta(args, "validate", t0),
           "validation": report}
    _emit(args, json.dumps(doc, indent=2) + "\n")
    return EXIT_OK if report["ok"] else EXIT_AUDIT_FAIL


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="opinionselect",
        description="Observation subset selection for noisy opinion dynamics "
                    "with stubborn agents.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_graph_flags(p):
        p.add_argument("--graph", required=True, help="edge-list file")
        p.add_argument("--stubborn", help="comma-separated stubborn ids")
        p.add_argument("--stubborn-file", help="one stubborn id per line")
        p.add_argument("--sigma2", default="uniform:1.0",
                       help="'uniform:VALUE' or a 'node sigma2' file")
        p.add_argument("--out", help="output file (atomic write)")

    p = sub.add_parser("generate", help="write a synthetic instance")
    p.add_argument("--model", choices=["ws", "cycle"], required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, default=4, help="ws ring-lattice degree")
    p.add_argument("--beta", type=float, default=0.3, help="ws rewiring prob")
    p.add_argument("--n-stubborn", type=int, default=0)
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
    p.add_argument("--suite", required=True, choices=list(SUITES))
    p.add_argument("--trials", type=int, default=50)
    p.add_argument("--max-r", type=int, default=7)
    p.add_argument("--replicas", type=int, default=20000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="output file (atomic write)")
    p.set_defaults(func=cmd_validate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (NumericalError, np.linalg.LinAlgError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (GraphError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT


if __name__ == "__main__":
    sys.exit(main())
