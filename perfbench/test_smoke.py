"""Smoke test of the benchmark at toy sizes.

Run from the repository root: ``python3 -m pytest perfbench/test_smoke.py -q``.
It runs every workload shrunk to toy sizes through the real set-up, child
processes, output checks and metric computation, in both modes.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import run
from metrics import SPEC
from workloads import WORKLOADS

TOY = {"select-ws-large": dict(n=60, n_stubborn=2, k=5),
       "curve-greedy-long": dict(n=60, n_stubborn=2, k=12),
       "curve-exact-small": dict(n=10, n_stubborn=2, k=3),
       "score-regular": dict(n=60, n_stubborn=2)}
sys.path.insert(0, str(run.SRC))    # the references import the package


def toy_run(name: str, trace: bool, workdir: Path):
    w = replace(WORKLOADS[name], pool=2, **TOY[name])
    ex = run.execute(w, seed=3, seconds=0.3, trace=trace, workdir=workdir,
                     threads=1, setup_probes=1)
    return w, ex


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", list(WORKLOADS))
def test_every_metric_is_emitted_with_its_unit(name, trace, tmp_path):
    w, ex = toy_run(name, trace, tmp_path)
    result = run.evaluate(w, ex, trace)
    assert result["problems"] == []
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 2
    spec = SPEC["per_layer" if trace else "end_to_end"]
    for m in spec:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], m["name"]
        assert math.isfinite(got["value"]), m["name"]
    if trace:
        assert result["metrics"]["graph.validate_reachability.calls"][
            "value"] == 2
        assert result["metrics"]["selector.count_law_violations"][
            "value"] == 0
    else:
        assert result["metrics"]["fail_frac"]["value"] == 0.0


def _corrupt_select(text):
    doc = json.loads(text)
    chosen = doc["selection"]["chosen"]
    chosen[0] = next(lab for lab in doc["regular_labels"] if lab not in chosen)
    return json.dumps(doc)


def _corrupt_score(text):
    doc = json.loads(text)
    doc["scores"]["eta"][0] *= 1.0 + 1e-6
    return json.dumps(doc)


def _corrupt_curve(text):
    *head, last = text.splitlines()
    k, method, pct = last.split(",")
    return "\n".join(head + [f"{k},{method},{float(pct) * (1 + 1e-6)!r}"])


@pytest.mark.parametrize("name,corrupt", [
    ("select-ws-large", _corrupt_select),
    ("score-regular", _corrupt_score),
    ("curve-exact-small", _corrupt_curve),
])
def test_corrupted_output_is_a_failure(name, corrupt, tmp_path):
    w, ex = toy_run(name, False, tmp_path)
    path = Path(next(r for r in ex.records if r["phase"] == "plain")["out"])
    path.write_text(corrupt(path.read_text()))
    result = run.evaluate(w, ex, False)
    assert not result["correct"]
    assert result["failed"] == 1
    assert result["metrics"]["fail_frac"]["value"] == 1 / result["attempted"]
    ok = sum(r["ok"] for r in ex.records if r["phase"] == "plain")
    assert result["metrics"]["ops_per_s"]["value"] == pytest.approx(
        ok / ex.phase_seconds["plain"])


def test_failed_exit_code_is_a_failure(tmp_path):
    w, ex = toy_run("curve-greedy-long", False, tmp_path)
    ex.records[-1]["exit"] = 4
    result = run.evaluate(w, ex, False)
    assert result["failed"] == 1
    assert "exit code 4" in result["problems"][0]


def test_exits_nonzero_without_the_package(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "select-ws-large",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
