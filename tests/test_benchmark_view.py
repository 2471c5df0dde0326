"""The benchmark's view of the package: on a toy instance of every workload
in ``perfbench/workloads.py``, its reference set-up finds the oracles it
imports (``NoiseModel``, ``covariance_lyapunov`` and ``f_score``), its
output check passes the command's output, and the command reads the form of
the covariance, the operator or the dense C, that the full-size workload
reads."""

import importlib.util
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from opinionselect import equilibrium
from opinionselect.cli import main

WORKLOADS_PY = (Path(__file__).resolve().parents[1] / "perfbench"
                / "workloads.py")
# the toy sizes of perfbench/test_smoke.py
TOY = {"select-ws-large": dict(n=60, n_stubborn=2, k=5),
       "curve-greedy-long": dict(n=60, n_stubborn=2, k=12),
       "curve-exact-small": dict(n=10, n_stubborn=2, k=3),
       "score-regular": dict(n=60, n_stubborn=2)}
# _dense_covariance calls per op, as at full size: under cli.DENSE_ROWS = 8
# select-ws-large takes 20 picks of 990 (8 * 20 < 990) on the operator and
# curve-greedy-long 200 of 396 (8 * 200 > 396) on C. The toys sit nearer the
# threshold, so a DENSE_ROWS that moves a full-size workload moves its toy
FORMS_C = {"select-ws-large": 0, "curve-greedy-long": 1,
           "curve-exact-small": 1, "score-regular": 0}


@pytest.fixture(scope="module")
def workloads():
    spec = importlib.util.spec_from_file_location("workloads", WORKLOADS_PY)
    module = importlib.util.module_from_spec(spec)
    with pytest.MonkeyPatch.context() as mp:
        # dataclasses look the defining module up in sys.modules
        mp.setitem(sys.modules, spec.name, module)
        spec.loader.exec_module(module)
        assert set(module.WORKLOADS) == set(TOY)
        yield module


@pytest.mark.parametrize("name", sorted(TOY))
def test_benchmark_reference_and_check_pass(workloads, name, tmp_path,
                                            monkeypatch):
    w = replace(workloads.WORKLOADS[name], pool=1, **TOY[name])
    inst = workloads.make_instance(w, seed=3, index=0, directory=tmp_path)
    ref = workloads.reference(w, inst)
    dense = equilibrium._dense_covariance
    formed = []

    def spy(*args):
        formed.append(args)
        return dense(*args)

    monkeypatch.setattr(equilibrium, "_dense_covariance", spy)
    out = tmp_path / "out"
    assert main(workloads.argv(w, inst, str(out))) == 0
    assert len(formed) == FORMS_C[name]
    assert workloads.check_output(w, ref, out.read_text()) is None
