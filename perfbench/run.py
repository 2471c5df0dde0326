"""End-to-end and per-layer benchmark of the opinionselect CLI.

Usage (from the repository root):

    python3 perfbench/run.py --workload select-ws-large --seed 1 \
        --seconds 20 --trace 0

The benchmark draws the workload's pool of instances from ``--seed``,
writes them as input files, computes reference values, then starts a child
process (``worker.py``) that calls ``opinionselect.cli.main`` in a closed
loop with one client for ``--seconds``. Every output is checked afterwards.
BLAS threads are pinned to the CPUs this process may use.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` splits the time
into an untraced phase, a traced phase in the same child, and a traced phase
in a second child with BLAS pinned to one thread (the single-threaded
baseline), and reports the per-layer metrics listed in ``BENCHMARK.json``.

Standard output carries one line per metric (name, value, unit, sample
count), the machine facts as JSON, and, as its last line, the result object
``{"correct", "attempted", "failed", "metrics"}``. The full report, with
every operation, is written to ``.perfbench_out/`` in the repository root.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

from metrics import MOVES, SPEC

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_PROBES = 2          # fresh interpreters timed before and again after
                          # the workers, plus each worker's own start


def blas_env(threads: int) -> dict[str, str]:
    return {var: str(threads) for var in
            ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}


def _spawn_worker(threads: int, timeout: float, *job_args: str) -> str:
    """Run worker.py with BLAS pinned to ``threads``; return its stdout."""
    env = dict(os.environ, **blas_env(threads))
    spawned = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), str(SRC), repr(spawned),
         *job_args], env=env, stdout=subprocess.PIPE, text=True,
        timeout=timeout, check=True)
    return proc.stdout


@dataclass
class Execution:
    refs: list
    records: list           # every operation of every worker, in order
    phase_seconds: dict
    setup_samples: list
    peak_rss_mb: float


def execute(w, seed: int, seconds: float, trace: bool, workdir: Path,
            threads: int, setup_probes: int = SETUP_PROBES) -> Execution:
    """Set up the workload's instances and run its phases in child processes."""
    from workloads import argv, make_instance, reference

    def probe_setup():
        return [json.loads(_spawn_worker(threads, 60))["ready_s"]
                for _ in range(setup_probes)]

    setup = probe_setup()
    instances = [make_instance(w, seed, i, workdir) for i in range(w.pool)]
    refs = [reference(w, inst) for inst in instances]
    ops = [argv(w, inst, "{out}") for inst in instances]
    if trace:
        share = seconds / 3.0
        workers = [(threads, [{"name": "plain", "seconds": share, "trace": False},
                              {"name": "traced", "seconds": share, "trace": True}]),
                   (1, [{"name": "threads1", "seconds": share, "trace": True}])]
    else:
        workers = [(threads, [{"name": "plain", "seconds": seconds,
                               "trace": False}])]
    records, phase_seconds, rss = [], {}, 0.0
    for n, (worker_threads, phases) in enumerate(workers):
        out_dir = workdir / f"worker{n}"
        out_dir.mkdir()
        job, result = workdir / f"job{n}.json", workdir / f"result{n}.json"
        job.write_text(json.dumps({"ops": ops, "out_dir": str(out_dir),
                                   "phases": phases}))
        _spawn_worker(worker_threads, seconds + 60, str(job), str(result))
        res = json.loads(result.read_text())
        records += res["records"]
        phase_seconds.update(res["phase_seconds"])
        setup.append(res["ready_s"])
        if n == 0:
            rss = res["peak_rss_mb"]
    setup += probe_setup()
    return Execution(refs, records, phase_seconds, setup, rss)


def _median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def evaluate(w, ex: Execution, trace: bool) -> dict:
    """Check every output and compute the metrics of one run."""
    from workloads import check_output

    problems = []
    for rec in ex.records:
        if rec["exit"] != 0:
            problem = f"exit code {rec['exit']}"
        else:
            problem = check_output(w, ex.refs[rec["instance"]],
                                   Path(rec["out"]).read_text())
        rec["ok"] = problem is None
        if problem:
            problems.append(f"{rec['phase']} op on instance "
                            f"{rec['instance']}: {problem}")
    attempted = len(ex.records)
    failed = attempted - sum(rec["ok"] for rec in ex.records)

    def phase(name):
        return [rec for rec in ex.records if rec["phase"] == name]

    plain = phase("plain")
    values = {}
    if not trace:
        values["ops_per_s"] = (sum(r["ok"] for r in plain)
                               / ex.phase_seconds["plain"], len(plain))
        values["op_s.p50"] = (_median([r["seconds"] for r in plain]), len(plain))
        values["setup_s"] = (_median(ex.setup_samples), len(ex.setup_samples))
        values["peak_rss_mb"] = (ex.peak_rss_mb, 1)
        values["fail_frac"] = (failed / attempted, attempted)
        spec = SPEC["end_to_end"]
    else:
        traced, single = phase("traced"), phase("threads1")

        def per_op(recs, key, name):
            return (_median([r["trace"][key].get(name, 0) for r in recs]),
                    len(recs))

        for m in SPEC["per_layer"]:
            name = m["name"]
            if name.endswith(".self_s"):
                values[name] = per_op(traced, "self_s", name[:-len(".self_s")])
            elif name.endswith(".calls"):
                values[name] = per_op(traced, "calls", name[:-len(".calls")])
        values["equilibrium.covariance_lyapunov.self_s.threads1"] = per_op(
            single, "self_s", "equilibrium.covariance_lyapunov")
        attempts = sum(r["trace"]["calls"].get(
            "equilibrium.covariance_closed_form", 0) for r in traced)
        accepted = sum(r["trace"]["closed_form_accepted"] for r in traced)
        values["equilibrium.closed_form.accept_ratio"] = (
            accepted / attempts if attempts else 0.0, attempts)
        values["selector.degenerate_skips"] = (
            _median([r["trace"]["degenerate_skips"] for r in traced]),
            len(traced))
        laws = [v for r in traced + single for v in r["trace"]["law_violations"]]
        problems += [f"count law: {v}" for v in laws]
        values["selector.count_law_violations"] = (len(laws),
                                                   len(traced + single))
        values["cli.output_bytes"] = (_median([r["bytes"] for r in traced]),
                                      len(traced))
        values["trace.overhead_frac"] = (
            _median([r["seconds"] for r in traced])
            / _median([r["seconds"] for r in plain]) - 1.0,
            len(traced))
        spec = SPEC["per_layer"]
    units = {m["name"]: m["unit"] for m in spec}
    if not trace:
        units["fail_frac"] = "frac"
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": values[name][0], "unit": units[name],
                               "samples": values[name][1]}
                        for name in units},
            "problems": problems}


def machine_facts(threads: int) -> dict:
    import networkx
    import numpy
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "cpu_model": cpu, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "networkx": networkx.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": threads, "git_commit": git_commit()}


def git_commit() -> str:
    """HEAD of the repository, read from .git; 'unknown' outside a clone."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not (SRC / "opinionselect" / "cli.py").is_file():
        print(f"error: no package source at {SRC}", file=sys.stderr)
        return 2
    threads = len(os.sched_getaffinity(0))
    os.environ.update(blas_env(threads))   # before numpy loads, here too
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS   # loads numpy, so after the pinning

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    w = WORKLOADS[args.workload]
    out_root = ROOT / ".perfbench_out"
    out_root.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=out_root) as tmp:
        ex = execute(w, args.seed, args.seconds, bool(args.trace), Path(tmp),
                     threads, setup_probes=0 if args.trace else SETUP_PROBES)
        result = evaluate(w, ex, bool(args.trace))
    facts = machine_facts(threads)
    why = next(x["why"] for x in SPEC["workloads"] if x["name"] == w.name)
    report = {"workload": w.name, "why": why, "seed": args.seed,
              "seconds": args.seconds,
              "trace": args.trace, "machine": facts, **result,
              "records": ex.records, "setup_samples": ex.setup_samples}
    (out_root / f"{w.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=1))
    for problem in result["problems"]:
        print(f"problem: {problem}", file=sys.stderr)
    print(f"{w.name}: {why}")
    for name, m in result["metrics"].items():
        moves = f"  moves: {MOVES[name]}" if name in MOVES else ""
        print(f"{name:52s} {m['value']:14.6g} {m['unit']:6s} "
              f"n={m['samples']}{moves}")
    print(json.dumps({"machine": facts}))
    print(json.dumps({
        "correct": result["correct"], "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": m["value"], "unit": m["unit"]}
                    for name, m in result["metrics"].items()
                    if name != "fail_frac"}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
