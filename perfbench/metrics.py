"""The benchmark's metrics: their spec, and what each per-layer metric moves.

Names, units, directions and bounds are read from ``BENCHMARK.json``, as are
the workloads' one-line reasons. ``MOVES`` adds what that file's metric
entries cannot hold: the end-to-end metric and workload each per-layer metric
should move. ``run.py`` prints the note beside the metric.

End to end (untraced run): ``ops_per_s`` counts correct operations per
second of the closed loop; ``op_s.p50`` is the median operation time;
``setup_s`` is the median time from a fresh interpreter to
``opinionselect.cli`` imported and ready; ``peak_rss_mb`` is the peak RSS
(``VmHWM``) of the workload's child process. ``fail_frac`` (failed /
attempted operations) is printed too, but not listed in ``BENCHMARK.json``:
it is 0 on a correct program, and the result's ``attempted`` and ``failed``
already carry it.

Per layer (traced run): ``.self_s`` is seconds of self time per operation
and ``.calls`` calls per operation, each the median over traced operations.
A function a workload never calls reads 0 there.
"""

from __future__ import annotations

import json
from pathlib import Path

SPEC = json.loads(
    (Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())

_GRAPH = "op_s.p50 on select-ws-large and score-regular"
_EQUILIBRIUM = ("op_s.p50, ops_per_s and peak_rss_mb on select-ws-large, "
                "op_s.p50 on score-regular; no change on curve-exact-small")
_SELECTOR = ("curve-greedy-long, less so select-ws-large; "
             "no change on score-regular")
_OBJECTIVE = "curve-exact-small; no change on select-ws-large"
_CENTRALITY = "op_s.p50 on score-regular"

MOVES = {
    "graph.load_graph.self_s": _GRAPH,
    "graph.validate_reachability.self_s": _GRAPH,
    "graph.validate_reachability.calls":
        _GRAPH + " (2 per op: load_graph and normalize)",
    "graph.normalize.self_s": _GRAPH,
    "equilibrium.spectral_radius.self_s": _EQUILIBRIUM,
    "equilibrium.spectral_radius.calls": _EQUILIBRIUM,
    "equilibrium.mean.self_s": _EQUILIBRIUM,
    "equilibrium.covariance_closed_form.self_s": _EQUILIBRIUM,
    "equilibrium.covariance_closed_form.calls":
        _EQUILIBRIUM + " (base of accept_ratio)",
    "equilibrium.closed_form.accept_ratio": _EQUILIBRIUM,
    "equilibrium.covariance_lyapunov.self_s": _EQUILIBRIUM,
    "equilibrium.covariance_lyapunov.calls": _EQUILIBRIUM,
    "equilibrium.covariance_lyapunov.self_s.threads1":
        "single-threaded BLAS baseline of the value above; threading or "
        "BLAS changes are read against it",
    "equilibrium.precision.self_s": _EQUILIBRIUM,
    "selector.marginal_gain.self_s": _SELECTOR,
    "selector.marginal_gain.calls":
        _SELECTOR + " (law: n*s - s(s-1)/2 per greedy call)",
    "selector.extend_inverse.self_s": _SELECTOR,
    "selector.greedy_select.self_s": _SELECTOR,
    "selector.exact_select.self_s": _OBJECTIVE,
    "selector.degenerate_skips": _SELECTOR,
    "selector.count_law_violations":
        "0 while greedy calls marginal_gain n*s - s(s-1)/2 times and exact "
        "calls f_score C(n,s) + s + 1 times",
    "objective.f_score.self_s": _OBJECTIVE,
    "objective.f_score.calls":
        _OBJECTIVE + " (law: C(n,s) + s + 1 per exact call)",
    "centrality.var_reduction_scores.self_s": _CENTRALITY,
    "centrality.eta_scores.self_s": _CENTRALITY,
    "centrality.bonacich.self_s": _CENTRALITY,
    "centrality.intercentrality.self_s": _CENTRALITY,
    "centrality.ranking_report.self_s": _CENTRALITY,
    "cli.self_s": "op_s.p50 on score-regular (op time minus every child span)",
    "cli.output_bytes": "op_s.p50 on score-regular (~210 KB of JSON per op)",
    "trace.overhead_frac": "none: median traced op / median untraced op - 1",
}
