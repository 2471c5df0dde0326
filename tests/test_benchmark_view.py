"""The benchmark's view of the package: on a toy instance of every workload
in ``perfbench/workloads.py``, its reference set-up finds the oracles it
imports (``NoiseModel``, ``covariance_lyapunov`` and ``f_score``) and its
output check passes the command's output."""

import importlib.util
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from opinionselect.cli import main

WORKLOADS_PY = (Path(__file__).resolve().parents[1] / "perfbench"
                / "workloads.py")
# the toy sizes of perfbench/test_smoke.py
TOY = {"select-ws-large": dict(n=60, n_stubborn=2, k=5),
       "curve-greedy-long": dict(n=60, n_stubborn=2, k=12),
       "curve-exact-small": dict(n=10, n_stubborn=2, k=3),
       "score-regular": dict(n=60, n_stubborn=2)}


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
def test_benchmark_reference_and_check_pass(workloads, name, tmp_path):
    w = replace(workloads.WORKLOADS[name], pool=1, **TOY[name])
    inst = workloads.make_instance(w, seed=3, index=0, directory=tmp_path)
    ref = workloads.reference(w, inst)
    out = tmp_path / "out"
    assert main(workloads.argv(w, inst, str(out))) == 0
    assert workloads.check_output(w, ref, out.read_text()) is None
