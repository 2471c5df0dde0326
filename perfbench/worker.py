"""Child process of the benchmark: one closed-loop client of the CLI.

Usage: ``python3 worker.py SRC SPAWNED [JOB RESULT]``. SRC is the package's
source directory and SPAWNED the parent's ``time.monotonic()`` just before
it started this process (the clock is system-wide on Linux), so the time to
``opinionselect.cli`` imported and ready includes interpreter start-up.
Without JOB the worker prints that time and exits: a set-up probe.

With JOB (a JSON file written by ``run.py``) it runs one untimed warm-up
operation, then each phase in turn: operations back to back, rotating over
the pooled instances, until the phase's seconds are used. Each operation
calls ``cli.main(argv)`` in-process and writes through ``--out`` to a file of
its own, which ``run.py`` checks afterwards. A traced phase installs the
``Tracer`` and records per-operation self times, call counts and the count
laws. The result goes to RESULT as JSON.
"""

from __future__ import annotations

import json
import math
import os
import sys
import time
import traceback


def _peak_rss_mb() -> float:
    """This process's peak RSS in MB, from ``VmHWM``.

    ``ru_maxrss`` would not do: exec keeps the parent's high-water mark
    there, so it can never read below the benchmark's own RSS at spawn
    time. ``VmHWM`` belongs to this process's address space alone.
    """
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def _count_laws(spans, children) -> list[str]:
    """Check the evaluation-count laws of greedy and exact selection."""
    laws = {"selector.greedy_select":
            ("selector.marginal_gain", lambda n, s: n * s - s * (s - 1) // 2),
            "selector.exact_select":
            ("objective.f_score", lambda n, s: math.comb(n, s) + s + 1)}
    broken = []
    for k, (name, _, _, _, note) in enumerate(spans):
        if name in laws and isinstance(note, tuple):
            child, law = laws[name]
            got, want = children[k][child], law(*note)
            if got != want:
                broken.append(f"{name}(n={note[0]}, s={note[1]}): "
                              f"{got} {child} calls, law says {want}")
    return broken


def _trace_record(spans) -> dict:
    from tracer import summarize

    summary = summarize(spans)
    return {
        "self_s": summary["self_s"],
        "calls": summary["calls"],
        "closed_form_accepted": sum(
            1 for name, *_, note in spans
            if name == "equilibrium.covariance_closed_form" and note is True),
        "degenerate_skips": sum(
            1 for name, *_, note in spans
            if name == "selector.marginal_gain" and note == "NumericalError"),
        "law_violations": _count_laws(spans, summary["children"]),
    }


def _run_op(main, argv, out) -> int | str:
    try:
        return main([a.replace("{out}", out) for a in argv])
    except Exception:  # an op that crashes is a failed op, not a dead run
        traceback.print_exc()
        return "exception"


def run_job(job: dict, cli) -> dict:
    from tracer import Tracer

    ops, out_dir = job["ops"], job["out_dir"]
    records = []
    main = cli.main
    tracer = None
    out = os.path.join(out_dir, "warmup.out")
    records.append({"phase": "warmup", "instance": 0, "out": out,
                    "exit": _run_op(main, ops[0], out)})
    phases = {}
    for phase in job["phases"]:
        if phase["trace"] and tracer is None:
            tracer = Tracer(notes={
                "selector.greedy_select":
                    lambda a, r: (a["C"].shape[0], a["s"]),
                "selector.exact_select":
                    lambda a, r: (a["C"].shape[0], a["s"]),
                "equilibrium.covariance_closed_form":
                    lambda a, r: bool(r.accepted)})
            tracer.install()
            main = tracer.wrap("cli", cli.main)
        count = 0
        t_start = time.perf_counter()
        while True:
            inst = count % len(ops)
            out = os.path.join(out_dir, f"{phase['name']}-{count}.out")
            t0 = time.perf_counter()
            code = _run_op(main, ops[inst], out)
            t1 = time.perf_counter()
            rec = {"phase": phase["name"], "instance": inst, "out": out,
                   "exit": code, "seconds": t1 - t0,
                   "bytes": os.path.getsize(out) if os.path.exists(out) else 0}
            if phase["trace"]:
                rec["trace"] = _trace_record(tracer.take())
            records.append(rec)
            count += 1
            if t1 - t_start >= phase["seconds"]:
                break
        phases[phase["name"]] = t1 - t_start
    return {"records": records, "phase_seconds": phases}


def main(argv: list[str]) -> int:
    src, spawned = argv[0], float(argv[1])
    sys.path.insert(0, src)
    from opinionselect import cli
    cli.build_parser()
    ready_s = time.monotonic() - spawned
    if len(argv) == 2:
        print(json.dumps({"ready_s": ready_s}))
        return 0
    with open(argv[2], encoding="utf-8") as fh:
        job = json.load(fh)
    result = run_job(job, cli)
    result["ready_s"] = ready_s
    result["peak_rss_mb"] = _peak_rss_mb()
    with open(argv[3], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
