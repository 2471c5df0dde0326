import argparse
import copy
import importlib
import json
import math
import os
import pkgutil
import re
import stat
import subprocess
import sys
import textwrap
from pathlib import Path
from types import ModuleType, SimpleNamespace

import numpy as np
import pytest

import opinionselect
from opinionselect import (NoiseModel, bonacich, equilibrium,
                           generate_random_reachable, generate_random_regular,
                           generate_watts_strogatz, intercentrality, load_graph,
                           moments, normalize, objective, save_graph,
                           selector, var_reduction_scores)
from opinionselect.cli import DENSE_ROWS, build_parser, main
from opinionselect.validation import dense_weights
from conftest import chorded_ring


def run_cli(args):
    return main(args)


@pytest.fixture
def ws_files(tmp_path):
    prefix = tmp_path / "ws"
    code = run_cli(["generate", "--model", "ws", "--n", "15", "--k", "4",
                    "--beta", "0.3", "--n-stubborn", "3", "--seed", "7",
                    "--out-prefix", str(prefix)])
    assert code == 0
    return str(prefix) + ".edges", str(prefix) + ".stubborn"


def test_generate_is_byte_reproducible(tmp_path):
    p1, p2 = tmp_path / "a", tmp_path / "b"
    for p in (p1, p2):
        assert run_cli(["generate", "--model", "ws", "--n", "15",
                        "--n-stubborn", "3", "--seed", "7",
                        "--out-prefix", str(p)]) == 0
    assert (tmp_path / "a.edges").read_bytes() == (tmp_path / "b.edges").read_bytes()
    assert (tmp_path / "a.stubborn").read_bytes() == \
        (tmp_path / "b.stubborn").read_bytes()


def test_generate_cycle(tmp_path):
    prefix = tmp_path / "c7"
    assert run_cli(["generate", "--model", "cycle", "--n", "7",
                    "--n-stubborn", "1", "--out-prefix", str(prefix)]) == 0
    lines = [ln for ln in (tmp_path / "c7.edges").read_text().splitlines()
             if not ln.startswith("#")]
    assert len(lines) == 7


def test_generate_bad_params():
    assert run_cli(["generate", "--model", "ws", "--n", "4", "--k", "4",
                    "--n-stubborn", "1", "--out-prefix", "/tmp/x"]) == 2


def test_generate_refuses_instances_without_stubborn_nodes(tmp_path, capsys):
    # select, score and curve refuse an empty stubborn set, so generate
    # writes none: --n-stubborn is required and at least 1
    prefix = tmp_path / "none"
    base = ["generate", "--model", "cycle", "--n", "7",
            "--out-prefix", str(prefix)]
    with pytest.raises(SystemExit) as exc:
        run_cli(base)
    assert exc.value.code == 2
    for bad in ("0", "-1"):
        capsys.readouterr()
        assert run_cli([*base, "--n-stubborn", bad]) == 2
        assert f"--n-stubborn {bad}" in capsys.readouterr().err
    assert not (tmp_path / "none.edges").exists()


def test_select_greedy_document(ws_files, tmp_path):
    edges, stub = ws_files
    out = tmp_path / "sel.json"
    code = run_cli(["select", "--graph", edges, "--stubborn-file", stub,
                    "--k", "4", "--method", "greedy", "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["schema"] == 1
    assert doc["graph"]["n"] == 15
    assert doc["moments_method"] in ("lyapunov", "closed-form")
    sel = doc["selection"]
    assert len(sel["chosen"]) == 4
    fr = sel["residual_fractions"]
    assert fr[0] == pytest.approx(1.0)
    assert all(fr[i + 1] <= fr[i] + 1e-12 for i in range(len(fr) - 1))
    assert doc["meta"]["eval_count"] == 12 * 4 - 4 * 3 // 2


def test_out_files_get_the_plain_create_mode(ws_files, tmp_path):
    # --out goes through a temp file and a rename; the result must still
    # carry the umask's mode, as the files generate writes do
    edges, stub = ws_files
    old = os.umask(0o022)
    try:
        for umask, mode in ((0o022, 0o644), (0o077, 0o600)):
            os.umask(umask)
            out = tmp_path / f"sel-{umask:o}.json"
            assert run_cli(["select", "--graph", edges, "--stubborn-file",
                            stub, "--k", "2", "--out", str(out)]) == 0
            plain = tmp_path / f"plain-{umask:o}"
            plain.write_text("")
            assert stat.S_IMODE(out.stat().st_mode) == mode
            assert stat.S_IMODE(plain.stat().st_mode) == mode
    finally:
        os.umask(old)


def test_select_k_zero(ws_files, tmp_path):
    edges, stub = ws_files
    out = tmp_path / "sel0.json"
    assert run_cli(["select", "--graph", edges, "--stubborn-file", stub,
                    "--k", "0", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["selection"]["chosen"] == []
    assert doc["selection"]["residual_fractions"] == [pytest.approx(1.0)]


def test_select_exact_budget_exceeded(tmp_path):
    prefix = tmp_path / "big"
    assert run_cli(["generate", "--model", "ws", "--n", "86", "--k", "8",
                    "--beta", "0.1", "--n-stubborn", "3", "--seed", "1",
                    "--out-prefix", str(prefix)]) == 0
    out = tmp_path / "never.json"
    code = run_cli(["select", "--graph", str(prefix) + ".edges",
                    "--stubborn-file", str(prefix) + ".stubborn",
                    "--k", "10", "--method", "exact", "--out", str(out)])
    assert code == 3
    assert not out.exists()  # no partial output on failure


def test_select_validation_errors(ws_files, tmp_path):
    edges, stub = ws_files
    # missing stubborn spec
    assert run_cli(["select", "--graph", edges, "--k", "2"]) == 2
    # k too large
    assert run_cli(["select", "--graph", edges, "--stubborn-file", stub,
                    "--k", "99"]) == 2
    # bad sigma2 file
    bad = tmp_path / "bad_sigma"
    bad.write_text("0 1.0\n")
    assert run_cli(["select", "--graph", edges, "--stubborn-file", stub,
                    "--k", "2", "--sigma2", str(bad)]) == 2


@pytest.fixture
def refuse_normalize(monkeypatch):
    """Make any call of normalize from the CLI fail the test."""
    from opinionselect import cli

    def refuse(g):
        raise AssertionError("normalize ran before the input was refused")

    monkeypatch.setattr(cli, "normalize", refuse)


def test_graph_without_regular_node_refused(tmp_path, capsys):
    edges = tmp_path / "path.edges"
    edges.write_text("0 1 1\n1 2 1\n")
    out = tmp_path / "never.json"
    graph = ["--graph", str(edges), "--stubborn", "0,1,2", "--out", str(out)]
    for argv in (["select", *graph, "--k", "0"],
                 ["curve", *graph, "--max-k", "0"],
                 ["score", *graph]):
        capsys.readouterr()
        assert run_cli(argv) == 2, argv[0]
        assert "no regular node" in capsys.readouterr().err
    assert not out.exists()


def test_repeated_measures_and_methods_refused(ws_files, tmp_path, capsys,
                                                refuse_normalize):
    edges, stub = ws_files
    out = tmp_path / "never.json"
    graph = ["--graph", edges, "--stubborn-file", stub, "--out", str(out)]
    for argv in (["score", *graph, "--measures", "eta,var_reduction,eta"],
                 ["curve", *graph, "--max-k", "2", "--methods",
                  "greedy,greedy"]):
        capsys.readouterr()
        assert run_cli(argv) == 2, argv[0]
        assert "repeated" in capsys.readouterr().err
    assert not out.exists()


def test_sigma2_file_duplicates_and_malformed_lines(ws_files, tmp_path,
                                                     capsys):
    edges, stub = ws_files
    stubborn = {int(t) for t in Path(stub).read_text().split()}
    regular = [i for i in range(15) if i not in stubborn]
    base = "".join(f"{i} {1.0 + i / 10}\n" for i in regular)
    r0 = regular[0]
    docs = {}
    for name, text in [("once", base),
                       ("repeat", base + f"{r0} {1.0 + r0 / 10}\n")]:
        table = tmp_path / name
        table.write_text(text)
        out = tmp_path / f"{name}.json"
        assert run_cli(["score", "--graph", edges, "--stubborn-file", stub,
                        "--sigma2", str(table), "--out", str(out)]) == 0
        docs[name] = json.loads(out.read_text())["scores"]
    assert docs["repeat"] == docs["once"]      # identical repeats are allowed
    n_lines = len(regular)
    s0 = min(stubborn)
    for text, message in [
            (base + f"{r0} 5.0\n", f"line {n_lines + 1}: conflicting"),
            (base + f"{s0} 9.0\n", f"line {n_lines + 1}: node {s0} is not"),
            ("77 2.0\n" + base, "line 1: node 77 is not"),
            (f"{r0} 1.0 2.0\n" + base, "line 1: expected"),
            (base + "# note\n\nx 1.0\n", f"line {n_lines + 3}: expected"),
            (base + f"{r0}\n", f"line {n_lines + 1}: expected")]:
        table = tmp_path / "bad"
        table.write_text(text)
        out = tmp_path / "never.json"
        capsys.readouterr()
        assert run_cli(["score", "--graph", edges, "--stubborn-file", stub,
                        "--sigma2", str(table), "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()


def test_nonfinite_edge_weight_refused(tmp_path, capsys):
    edges = tmp_path / "path.edges"
    out = tmp_path / "never.json"
    for value in ("inf", "nan"):
        edges.write_text(f"0 1 1\n1 2 {value}\n2 3 1\n")
        capsys.readouterr()
        assert run_cli(["select", "--graph", str(edges), "--stubborn", "0",
                        "--k", "1", "--out", str(out)]) == 2, value
        err = capsys.readouterr().err
        assert f"line 2: weight must be positive and finite, got {value}" in err
    assert not out.exists()


def test_sigma2_uniform_value_must_be_a_number(ws_files, tmp_path, capsys):
    edges, stub = ws_files
    out = tmp_path / "never.json"
    assert run_cli(["select", "--graph", edges, "--stubborn-file", stub,
                    "--k", "1", "--sigma2", "uniform:abc",
                    "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "--sigma2 'uniform:abc'" in err and "uniform:VALUE" in err
    assert not out.exists()


GRAPH_COMMANDS = (["select", "--k", "2"], ["score"], ["curve", "--max-k", "2"])


def _regular_and_stubborn(stub):
    stubborn = sorted(int(t) for t in Path(stub).read_text().split())
    return [i for i in range(15) if i not in stubborn], stubborn


@pytest.mark.parametrize("case", [
    "malformed", "field-count", "not-regular", "conflict", "missing",
    "uniform-abc", "uniform-0", "nonfinite", "underflow"])
@pytest.mark.parametrize("command", GRAPH_COMMANDS, ids=lambda c: c[0])
def test_sigma2_refused_before_normalize(ws_files, tmp_path, capsys,
                                         refuse_normalize, command, case):
    # the noise table is read with the graph, so every refusal of it exits
    # 2 with its one error line before the O(n^3) eigendecomposition
    edges, stub = ws_files
    regular, stubborn = _regular_and_stubborn(stub)
    r0, n = regular[0], len(regular)
    base = "".join(f"{i} {1.0 + i / 10}\n" for i in regular)
    table = tmp_path / "table.sigma2"
    spec, text, message = {
        "malformed": (table, base + "x 1.0\n", f"sigma2 file line {n + 1}: "
                      "expected 'node sigma2', got 'x 1.0'"),
        "field-count": (table, f"{r0} 1.0 2.0\n" + base, "sigma2 file line "
                        f"1: expected 'node sigma2', got '{r0} 1.0 2.0'"),
        "not-regular": (table, base + f"{stubborn[0]} 9.0\n",
                        f"sigma2 file line {n + 1}: node {stubborn[0]} is "
                        "not a regular node of the graph"),
        "conflict": (table, base + f"{r0} 5.0\n", f"sigma2 file line {n + 1}"
                     f": conflicting duplicate for node {r0}: "
                     f"{1.0 + r0 / 10} vs 5.0"),
        "missing": (table, base.replace(f"{r0} {1.0 + r0 / 10}\n", ""),
                    f"sigma2 file misses 1 regular node(s): [{r0}]"),
        "uniform-abc": ("uniform:abc", None, "--sigma2 'uniform:abc': "
                        "expected 'uniform:VALUE' with VALUE finite and "
                        "positive"),
        "uniform-0": ("uniform:0", None, "--sigma2 'uniform:0': expected "
                      "'uniform:VALUE' with VALUE finite and positive"),
        "nonfinite": (table, base.replace(f"{r0} {1.0 + r0 / 10}\n",
                                          f"{r0} inf\n"),
                      "all noise variances must be finite and positive"),
        "underflow": (table, "".join(f"{i} {1e-300 if i == r0 else 1e300}\n"
                                     for i in regular),
                      f"--sigma2 {table}: the noise variances span too wide "
                      "a range; the smallest underflows to 0"),
    }[case]
    if text is not None:
        table.write_text(text)
    out = tmp_path / "never.json"
    assert run_cli([*command, "--graph", edges, "--stubborn-file", stub,
                    "--sigma2", str(spec), "--out", str(out)]) == 2
    assert capsys.readouterr().err.splitlines() == [f"error: {message}"]
    assert not out.exists()


def test_missing_sigma2_nodes_named_by_count_and_first_ten(
        ws_files, tmp_path, capsys, refuse_normalize):
    # a one-line table leaves 11 of the 12 regular nodes out: the message
    # names how many and the first 10 by label, not all of them
    edges, stub = ws_files
    regular, _ = _regular_and_stubborn(stub)
    table = tmp_path / "one.sigma2"
    table.write_text(f"{regular[0]} 1.0\n")
    out = tmp_path / "never.json"
    assert run_cli(["select", "--graph", edges, "--stubborn-file", stub, "--k",
                    "2", "--sigma2", str(table), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.splitlines() == [
        f"error: sigma2 file misses {len(regular) - 1} regular node(s), the "
        f"first 10 by label: {regular[1:11]}"]
    assert len(re.search(r"\[(.*)\]", err).group(1).split(",")) == 10
    assert not out.exists()


def test_stubborn_ids_read_like_the_other_inputs(tmp_path, capsys):
    edges = tmp_path / "path.edges"
    edges.write_text("0 1 1\n1 2 1\n2 3 1\n")
    stub = tmp_path / "ids"
    out = tmp_path / "never.json"
    select = ["select", "--graph", str(edges), "--k", "1", "--out", str(out)]
    for flags, text, message in [
            (["--stubborn", "0,a"], None, "--stubborn item 2: expected 'node'"),
            (["--stubborn-file", str(stub)], "0\nx\n",
             "stubborn file line 2: expected 'node'"),
            (["--stubborn-file", str(stub)], "0 3\n",
             "stubborn file line 1: expected 'node'")]:
        if text is not None:
            stub.write_text(text)
        capsys.readouterr()
        assert run_cli([*select, *flags]) == 2, flags
        assert message in capsys.readouterr().err
    assert not out.exists()
    stub.write_text("# stubborn ids\n0\n\n3\n")
    assert run_cli([*select, "--stubborn-file", str(stub)]) == 0
    assert json.loads(out.read_text())["graph"]["n_stubborn"] == 2


def test_both_stubborn_flags_refused(ws_files, tmp_path, capsys):
    # one source of stubborn nodes: the file is not silently dropped
    edges, stub = ws_files
    out = tmp_path / "never.json"
    with pytest.raises(SystemExit) as exc:
        run_cli(["select", "--graph", edges, "--stubborn", "0",
                 "--stubborn-file", stub, "--k", "1", "--out", str(out)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "--stubborn-file" in err and "--stubborn " in err
    assert not out.exists()


def test_every_document_starts_with_the_shared_header(ws_files, tmp_path,
                                                     capsys):
    edges, stub = ws_files
    graph = ["--graph", edges, "--stubborn-file", stub]
    docs = {}
    capsys.readouterr()
    assert run_cli(["generate", "--model", "cycle", "--n", "6",
                    "--n-stubborn", "1", "--seed", "3",
                    "--out-prefix", str(tmp_path / "c")]) == 0
    docs["generate"] = json.loads(capsys.readouterr().out)
    for argv in (["select", *graph, "--k", "2"],
                 ["score", *graph],
                 ["curve", *graph, "--max-k", "2", "--format", "json"],
                 ["validate", "--suite", "incremental", "--trials", "1"]):
        out = tmp_path / f"{argv[0]}.json"
        assert run_cli([*argv, "--out", str(out)]) == 0
        docs[argv[0]] = json.loads(out.read_text())
    meta = ["tool", "version", "command", "seed", "timing_s"]
    for command, doc in docs.items():
        keys = list(doc)
        assert doc["schema"] == 1
        if command == "validate":
            assert keys[:2] == ["schema", "meta"]
        elif command == "generate":
            assert keys[:3] == ["schema", "meta", "graph"]
        else:
            assert keys[:4] == ["schema", "meta", "graph", "moments_method"]
        extra = ["eval_count"] if command == "select" else []
        assert list(doc["meta"]) == meta + extra, command
        assert doc["meta"]["command"] == command
        assert doc["meta"]["tool"] == "opinionselect"
    assert docs["generate"]["meta"]["seed"] == 3
    assert docs["validate"]["meta"]["seed"] == 0
    assert docs["select"]["meta"]["seed"] is None


def test_exact_over_budget_refused_before_work(tmp_path, capsys,
                                               refuse_normalize):
    # 150 regular nodes: C(150,3) = 551,300 fits, C(150,4) = 20,260,275 not
    prefix = tmp_path / "ring"
    save_graph(opinionselect.generate_cycle(152, 2),
               f"{prefix}.edges", f"{prefix}.stubborn")
    out = tmp_path / "never.csv"
    graph = ["--graph", f"{prefix}.edges", "--stubborn-file",
             f"{prefix}.stubborn", "--out", str(out)]
    for argv in (["curve", *graph, "--methods", "greedy,exact", "--max-k", "4"],
                 ["select", *graph, "--method", "exact", "--k", "4"]):
        capsys.readouterr()
        assert run_cli(argv) == 3, argv[0]
        assert "C(150,4) = 20260275" in capsys.readouterr().err
    assert not out.exists()


def test_graph_command_flags():
    # the whole option surface of the graph commands: a new knob must be
    # added here on purpose
    graph = {"-h", "--help", "--graph", "--stubborn", "--stubborn-file",
             "--sigma2", "--out"}
    expected = {"select": graph | {"--k", "--method"},
                "score": graph | {"--measures", "--attenuation", "--matrix"},
                "curve": graph | {"--max-k", "--methods", "--format"}}
    commands = next(a for a in build_parser()._actions
                    if isinstance(a, argparse._SubParsersAction)).choices
    for name, flags in expected.items():
        seen = {opt for a in commands[name]._actions for opt in a.option_strings}
        assert seen == flags, name


def test_main_builds_the_parser_once(tmp_path, monkeypatch, capsys):
    # the first call builds the parser and later calls reuse it: a second
    # main constructs no ArgumentParser, its subcommands' included
    argv = ["generate", "--model", "cycle", "--n", "6", "--n-stubborn", "1",
            "--out-prefix", str(tmp_path / "c")]
    assert main(argv) == 0
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    assert main(argv) == 0
    assert built == []


def test_package_root_exports_the_pipeline():
    # the root's whole public surface besides its submodules: a new export
    # must be added here on purpose
    exported = {name for name, obj in vars(opinionselect).items()
                if not name.startswith("_") and not isinstance(obj, ModuleType)}
    assert exported == {
        "BudgetExceededError", "GraphError", "NumericalError",
        "ReachabilityError", "SocialGraph", "load_graph", "save_graph",
        "normalize", "generate_cycle", "generate_random_reachable",
        "generate_random_regular", "generate_watts_strogatz", "NoiseModel",
        "moments", "f_score", "var_y", "estimator_coefficients",
        "SelectionResult", "greedy_select", "exact_select", "exact_curve",
        "var_reduction_scores", "eta_scores", "bonacich", "intercentrality",
        "ranking_report"}


def test_no_export_shadows_a_submodule():
    # an exported name equal to a submodule's would hide the module from
    # ``import opinionselect.<name> as m``
    for info in pkgutil.iter_modules(opinionselect.__path__):
        module = importlib.import_module(f"opinionselect.{info.name}")
        assert getattr(opinionselect, info.name) is module, info.name


def test_select_seeded_reproducible(ws_files, tmp_path):
    edges, stub = ws_files
    docs = []
    for name in ("r1.json", "r2.json"):
        out = tmp_path / name
        assert run_cli(["select", "--graph", edges, "--stubborn-file", stub,
                        "--k", "3", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        doc["meta"].pop("timing_s")
        docs.append(doc)
    assert docs[0] == docs[1]
    assert docs[0]["meta"]["seed"] is None    # nothing in select is random


def test_score_command(ws_files, tmp_path):
    edges, stub = ws_files
    out = tmp_path / "score.json"
    code = run_cli(["score", "--graph", edges, "--stubborn-file", stub,
                    "--measures", "var_reduction,eta,bonacich,intercentrality",
                    "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert set(doc["scores"]) == {"var_reduction", "eta", "bonacich",
                                  "intercentrality"}
    for vals in doc["normalized_scores"].values():
        assert max(vals) == pytest.approx(1.0)
        assert len(vals) == 12
    assert "argmax" in doc and "kendall_tau" in doc


def test_score_single_measure(ws_files, tmp_path):
    edges, stub = ws_files
    out = tmp_path / "score1.json"
    assert run_cli(["score", "--graph", edges, "--stubborn-file", stub,
                    "--measures", "eta", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert list(doc["scores"]) == ["eta"]
    assert doc["kendall_tau"] == {}


def test_score_unknown_measure(ws_files):
    edges, stub = ws_files
    assert run_cli(["score", "--graph", edges, "--stubborn-file", stub,
                    "--measures", "pagerank"]) == 2


def test_score_adjacency_attenuation_bound(tmp_path, capsys):
    # rho(G) >= 1 for a 0/1 adjacency, so the default attenuation 1.0 only
    # suits --matrix normalized. max(mean degree, sqrt(max degree)) is a
    # lower bound on rho(G), so it refuses the default with exit 2 before any
    # eigh; a = 0.26 lies between 1/rho(G) = 0.2485 and 1/bound = 0.2755, so
    # the exact check after eigh refuses it, stating 1/rho(G)
    prefix = tmp_path / "ws30"
    assert run_cli(["generate", "--model", "ws", "--n", "30",
                    "--n-stubborn", "3", "--seed", "1",
                    "--out-prefix", str(prefix)]) == 0
    graph = ["score", "--graph", f"{prefix}.edges", "--stubborn-file",
             f"{prefix}.stubborn", "--matrix", "adjacency",
             "--measures", "bonacich,intercentrality",
             "--out", str(tmp_path / "adj.json")]
    g = load_graph(f"{prefix}.edges",
                   [int(t) for t in Path(f"{prefix}.stubborn").read_text().split()])
    R = list(g.regular)
    adj = (dense_weights(g)[np.ix_(R, R)] > 0).astype(float)
    degree = adj.sum(axis=1)
    low = max(degree.mean(), np.sqrt(degree.max()))
    rho = np.max(np.abs(np.linalg.eigvalsh(adj)))
    assert 1.0 / rho < 0.26 < 1.0 / low
    capsys.readouterr()
    assert run_cli(graph) == 2
    err = capsys.readouterr().err
    assert float(re.search(r"\) = ([0-9.e+-]+), so", err).group(1)) \
        == pytest.approx(low, rel=1e-5)
    assert run_cli(graph + ["--attenuation", "0.26"]) == 4
    err = capsys.readouterr().err
    bound = float(re.search(r"1/rho\(G\) = ([0-9.e+-]+)", err).group(1))
    assert bound == pytest.approx(1.0 / rho, rel=1e-5)
    assert run_cli(graph + ["--attenuation", repr(bound / 2)]) == 0
    doc = json.loads((tmp_path / "adj.json").read_text())
    assert set(doc["scores"]) == {"bonacich", "intercentrality"}


def test_score_adjacency_default_attenuation_refused_before_normalize(
        ws_files, tmp_path, capsys, refuse_normalize):
    # the default a = 1.0 meets the O(m) degree bound on every adjacency
    # with a regular edge, so it is refused from the edges alone
    edges, stub = ws_files
    out = tmp_path / "never.json"
    assert run_cli(["score", "--graph", edges, "--stubborn-file", stub,
                    "--matrix", "adjacency", "--measures", "intercentrality",
                    "--out", str(out)]) == 2
    assert "too large for --matrix adjacency" in capsys.readouterr().err
    assert not out.exists()


def test_score_default_matrix_makes_no_dense_solve(ws_files, tmp_path,
                                                   monkeypatch):
    # both score matrices go through a spectrum: --matrix normalized reads
    # the one normalize stores, --matrix adjacency runs eigh on the
    # symmetric 0/1 adjacency; neither makes an O(n^3) solve or inverse
    def refuse(*args, **kwargs):
        raise AssertionError("dense call on the spectral score path")

    for name in ("solve", "inv"):
        monkeypatch.setattr(np.linalg, name, refuse)
    edges, stub = ws_files
    score = ["score", "--graph", edges, "--stubborn-file", stub,
             "--measures", "var_reduction,eta,bonacich,intercentrality",
             "--out", str(tmp_path / "score.json")]
    assert run_cli(score) == 0
    assert run_cli(score + ["--matrix", "adjacency", "--attenuation", "0.1"]) == 0


@pytest.mark.parametrize("measures, calls", [("bonacich,intercentrality", 2),
                                             ("var_reduction,eta", 1)])
def test_score_adjacency_runs_one_eigh(measures, calls, ws_files, tmp_path,
                                       monkeypatch):
    # normalize's eigh, and one of the 0/1 adjacency only when a walk score
    # reads it; its scores keep the bits of the public dense-matrix path
    edges, stub = ws_files
    g = load_graph(edges, [int(t) for t in Path(stub).read_text().split()])
    R = list(g.regular)
    adj = (dense_weights(g)[np.ix_(R, R)] > 0).astype(float)
    want = {"bonacich": bonacich(adj, 0.1).scores,
            "intercentrality": intercentrality(adj, 0.1).scores}
    eigh = np.linalg.eigh
    seen = []

    def spy(a, *args, **kwargs):
        seen.append(a.shape)
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", spy)
    out = tmp_path / "score.json"
    assert run_cli(["score", "--graph", edges, "--stubborn-file", stub,
                    "--matrix", "adjacency", "--attenuation", "0.1",
                    "--measures", measures, "--out", str(out)]) == 0
    assert len(seen) == calls
    for m, scores in json.loads(out.read_text())["scores"].items():
        if m in want:
            assert scores == want[m].tolist()


@pytest.mark.parametrize("model", ["regular", "ws"])
def test_score_never_forms_the_covariance(model, tmp_path, monkeypatch):
    # var_reduction reads C 1 and diag C from the moments operator, so score
    # runs with the dense formation refused
    if model == "regular":    # w sigma^2 constant: the diagonal middle factor
        g = generate_random_regular(40, 4, 3, 4)
    else:
        g = generate_watts_strogatz(40, 4, 0.3, 5, 4)
    prefix = tmp_path / model
    save_graph(g, f"{prefix}.edges", f"{prefix}.stubborn")
    ops = normalize(g)
    want = var_reduction_scores(
        moments(ops, NoiseModel.uniform(ops.n_regular, 1.0)).C).scores

    def refuse(*args, **kwargs):
        raise AssertionError("score formed the dense covariance")

    monkeypatch.setattr(equilibrium, "_dense_covariance", refuse)
    out = tmp_path / "score.json"
    assert run_cli(["score", "--graph", f"{prefix}.edges", "--stubborn-file",
                    f"{prefix}.stubborn", "--measures", "var_reduction,eta",
                    "--out", str(out)]) == 0
    got = np.array(json.loads(out.read_text())["scores"]["var_reduction"])
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


@pytest.mark.parametrize("command", ["select", "curve"])
@pytest.mark.parametrize("side", ["below", "above"])
def test_greedy_forms_the_covariance_only_above_the_rule(command, side,
                                                         tmp_path, monkeypatch):
    # up to n / DENSE_ROWS picks greedy reads C 1, diag C and one row per pick
    # from the moments operator, so it runs with the dense formation refused;
    # one pick more and C is formed once. Either way it picks as on the
    # operator
    g = generate_watts_strogatz(40, 4, 0.3, 5, 4)
    prefix = tmp_path / "ws"
    save_graph(g, f"{prefix}.edges", f"{prefix}.stubborn")
    ops = normalize(g)
    k = ops.n_regular // DENSE_ROWS + (side == "above")
    want = selector.greedy_select(
        moments(ops, NoiseModel.uniform(ops.n_regular, 1.0)), k)
    dense = equilibrium._dense_covariance
    formed = []

    def spy(*args):
        if side == "below":
            raise AssertionError(f"greedy {command} formed the dense covariance")
        formed.append(args)
        return dense(*args)

    monkeypatch.setattr(equilibrium, "_dense_covariance", spy)
    out = tmp_path / "out.json"
    flags = {"select": ["--k", str(k)],
             "curve": ["--max-k", str(k), "--format", "json"]}[command]
    assert run_cli([command, "--graph", f"{prefix}.edges", "--stubborn-file",
                    f"{prefix}.stubborn", *flags, "--out", str(out)]) == 0
    assert len(formed) == (side == "above")
    doc = json.loads(out.read_text())
    if command == "select":
        sel = doc["selection"]
        assert sel["chosen_regular_index"] == list(want.chosen)
        assert sel["var_y"] == pytest.approx(want.var_y, rel=1e-12)
    else:
        assert [row["residual_pct"] for row in doc["curve"]] == pytest.approx(
            [100.0 * gv / want.var_y for gv in want.g_values], rel=1e-12)


def test_commands_never_form_the_weight_matrix(tmp_path, monkeypatch):
    # every command reads the graph through its edges, so with the oracle's
    # dense weight matrix refused the documents come out unchanged
    g = generate_random_reachable(22, 2, seed=4)
    prefix = tmp_path / "g"
    save_graph(g, f"{prefix}.edges", f"{prefix}.stubborn")
    sigma2 = tmp_path / "g.sigma2"
    rng = np.random.default_rng(4)
    sigma2.write_text("".join(f"{g.labels[i]} {rng.uniform(0.5, 2.0)!r}\n"
                              for i in g.regular))
    base = ["--graph", f"{prefix}.edges", "--stubborn-file",
            f"{prefix}.stubborn", "--sigma2", str(sigma2)]
    commands = {
        "greedy": ["select", "--k", "4"],
        "exact": ["select", "--k", "3", "--method", "exact"],
        "normalized": ["score", "--measures",
                       "var_reduction,eta,bonacich,intercentrality"],
        "adjacency": ["score", "--matrix", "adjacency", "--attenuation", "0.1",
                      "--measures", "bonacich,intercentrality"],
        "curve": ["curve", "--methods", "greedy,exact", "--max-k", "3",
                  "--format", "json"],
    }

    def documents():
        docs = {}
        for name, (command, *flags) in commands.items():
            out = tmp_path / f"{name}.json"
            assert run_cli([command, *base, *flags, "--out", str(out)]) == 0
            docs[name] = re.sub(r'"timing_s": [^,\n]+', '"timing_s": null',
                                out.read_text())
        return docs

    want = documents()

    def refuse(g):
        raise AssertionError("a command formed the dense weight matrix")

    monkeypatch.setattr("opinionselect.validation.dense_weights", refuse)
    assert documents() == want


def test_select_picks_do_not_depend_on_blas_threads(tmp_path):
    # mirror nodes of a cycle tie exactly, and their gains differ only by
    # rounding, which the BLAS thread count changes; the tie rule must pick
    # the same labels either way
    prefix = tmp_path / "c600"
    assert run_cli(["generate", "--model", "cycle", "--n", "600",
                    "--n-stubborn", "3", "--out-prefix", str(prefix)]) == 0
    src = str(Path(opinionselect.__file__).resolve().parents[1])
    chosen = []
    for threads in ("1", "2"):
        out = tmp_path / f"t{threads}.json"
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(
                       [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
        proc = subprocess.run(
            [sys.executable, "-m", "opinionselect.cli", "select", "--graph",
             f"{prefix}.edges", "--stubborn-file", f"{prefix}.stubborn",
             "--k", "30", "--out", str(out)],
            env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        chosen.append(json.loads(out.read_text())["selection"]["chosen"])
    assert chosen[0] == chosen[1]


def test_score_nonfinite_attenuation(tmp_path, capsys):
    prefix = tmp_path / "ws30"
    assert run_cli(["generate", "--model", "ws", "--n", "30",
                    "--n-stubborn", "3", "--seed", "1",
                    "--out-prefix", str(prefix)]) == 0
    out = tmp_path / "att.json"
    graph = ["score", "--graph", f"{prefix}.edges", "--stubborn-file",
             f"{prefix}.stubborn", "--measures", "bonacich,intercentrality",
             "--out", str(out)]
    assert run_cli(graph + ["--attenuation=nan"]) == 2
    g = load_graph(f"{prefix}.edges",
                   [int(t) for t in Path(f"{prefix}.stubborn").read_text().split()])
    rho = normalize(g).rho
    for a in ("inf", "-inf"):
        capsys.readouterr()
        assert run_cli(graph + [f"--attenuation={a}"]) == 4
        err = capsys.readouterr().err
        seen = float(re.search(r"rho\(G\) = ([0-9.e+-]+),", err).group(1))
        assert seen == pytest.approx(rho, rel=1e-5)
    assert not out.exists()


def test_nonfinite_sigma2_refused(ws_files, tmp_path):
    edges, stub = ws_files
    stubborn = {int(t) for t in Path(stub).read_text().split()}
    regular = [i for i in range(15) if i not in stubborn]
    out = tmp_path / "never.json"
    graph = ["--graph", edges, "--stubborn-file", stub, "--out", str(out)]
    for bad in ("nan", "inf"):
        table = tmp_path / f"sigma2_{bad}"
        table.write_text("".join(f"{i} {bad if i == regular[4] else 1.0}\n"
                                 for i in regular))
        for sigma2 in (str(table), f"uniform:{bad}"):
            assert run_cli(["score", *graph, "--measures", "var_reduction",
                            "--sigma2", sigma2]) == 2
            assert run_cli(["select", *graph, "--k", "3",
                            "--sigma2", sigma2]) == 2
    assert not out.exists()


def test_score_undefined_tau_is_null(tmp_path):
    # star around the stubborn hub: every score vector is constant
    edges = tmp_path / "star.edges"
    edges.write_text("0 1 1\n0 2 1\n0 3 1\n")
    out = tmp_path / "star.json"
    assert run_cli(["score", "--graph", str(edges), "--stubborn", "0",
                    "--measures", "var_reduction,eta,bonacich",
                    "--out", str(out)]) == 0
    doc = json.loads(out.read_text(), parse_constant=_refuse_constant)
    assert doc["kendall_tau"] == {"var_reduction|eta": None,
                                  "var_reduction|bonacich": None,
                                  "eta|bonacich": None}


def _ws20_and_cycle20(tmp_path):
    ws, cycle = tmp_path / "ws20", tmp_path / "cycle20"
    assert run_cli(["generate", "--model", "ws", "--n", "20", "--n-stubborn",
                    "3", "--seed", "1", "--out-prefix", str(ws)]) == 0
    assert run_cli(["generate", "--model", "cycle", "--n", "20",
                    "--n-stubborn", "3", "--out-prefix", str(cycle)]) == 0
    return ws, cycle


SCALE_COMMANDS = (["select", "--k", "2"],
                  ["select", "--k", "2", "--method", "exact"],
                  ["score", "--measures", "var_reduction,eta,bonacich"],
                  ["curve", "--max-k", "2", "--methods", "greedy,exact",
                   "--format", "json"])


def _scale_doc(doc, scale):
    """``doc`` without its timing, and with every value that is linear in
    the noise times ``scale``, as the CLI rescales it."""
    del doc["meta"]["timing_s"]
    if "selection" in doc:
        sel = doc["selection"]
        for key in ("gains", "f_values", "g_values"):
            sel[key] = [v * scale for v in sel[key]]
        sel["var_y"] *= scale
    if "scores" in doc:
        doc["scores"]["var_reduction"] = [
            v * scale for v in doc["scores"]["var_reduction"]]
    return doc


def _run_doc(command, graph, sigma2, out):
    assert run_cli([*command, *graph, "--sigma2", sigma2]) == 0, command
    doc = json.loads(out.read_text(), parse_constant=_refuse_constant)
    out.unlink()
    return doc


def test_noise_scale_rescales_bit_for_bit(tmp_path):
    # C is linear in Sigma and sqrt(4^e) is exact: at a power of 4, every
    # document is the scale-1 document with its noise-linear values times
    # the scale, bit for bit; picks, tags, fractions, ranks and tau do not
    # move. 4^-510 puts many of those values among the subnormals.
    out = tmp_path / "doc.json"
    for prefix in _ws20_and_cycle20(tmp_path):
        graph = ["--graph", f"{prefix}.edges", "--stubborn-file",
                 f"{prefix}.stubborn", "--out", str(out)]
        for command in SCALE_COMMANDS:
            at_one = _run_doc(command, graph, "uniform:1", out)
            for e in (100, -100, -510):
                scale = math.ldexp(1.0, 2 * e)
                doc = _run_doc(command, graph, f"uniform:{scale!r}", out)
                assert _scale_doc(doc, 1.0) == \
                    _scale_doc(copy.deepcopy(at_one), scale), (command, e)


def test_overflowing_sigma2_refused(tmp_path, capsys):
    # at 1e308 the variances themselves overflow float64: select and score
    # write one error line that names the --sigma2 scale, exit 4, no
    # RuntimeWarning (warnings are errors here) and no output. curve writes
    # ratios only, so it answers with the scale-1 rows; 1e150 fits.
    out = tmp_path / "doc.json"
    for prefix in _ws20_and_cycle20(tmp_path):
        graph = ["--graph", f"{prefix}.edges", "--stubborn-file",
                 f"{prefix}.stubborn", "--out", str(out)]
        for command in SCALE_COMMANDS[:3]:
            capsys.readouterr()
            assert run_cli([*command, *graph,
                            "--sigma2", "uniform:1e308"]) == 4, command
            assert capsys.readouterr().err.splitlines() == [
                "error: --sigma2 uniform:1e308: an output overflows float64; "
                "divide the noise variances by a constant"]
            assert not out.exists()
        curve = SCALE_COMMANDS[3]
        rows = _run_doc(curve, graph, "uniform:1e308", out)["curve"]
        at_one = _run_doc(curve, graph, "uniform:1", out)["curve"]
        assert [(r["k"], r["method"]) for r in rows] == \
            [(r["k"], r["method"]) for r in at_one]
        for r, r1 in zip(rows, at_one):
            assert r["residual_pct"] == pytest.approx(r1["residual_pct"],
                                                      rel=1e-12, abs=0)
        for command in SCALE_COMMANDS:
            _run_doc(command, graph, "uniform:1e150", out)


def test_underflowing_sigma2_refused(tmp_path, capsys):
    # Tiny and huge uniform scales run at the canonical scale, so they pick
    # as scale 1 does, with values within 1e-12 of the scale-1 values times
    # the scale wherever those are normal floats (5e-324 leaves none). Only
    # a noise table whose smallest entry underflows beside its largest, to 0
    # or to a subnormal that would round it, is refused: exit 2, one line
    # naming --sigma2, no output.
    ws = _ws20_and_cycle20(tmp_path)[0]
    out = tmp_path / "select.json"
    graph = ["--graph", f"{ws}.edges", "--stubborn-file", f"{ws}.stubborn",
             "--out", str(out)]
    at_one = _run_doc(["select", "--k", "2"], graph, "uniform:1", out)
    for scale in (1e160, 1e-160, 1e300, 1e-300, 5e-324):
        doc = _run_doc(["select", "--k", "2"], graph, f"uniform:{scale!r}",
                       out)
        assert doc["moments_method"] == at_one["moments_method"]
        sel, sel1 = doc["selection"], at_one["selection"]
        assert sel["chosen"] == sel1["chosen"] == [1, 19]
        assert sel["residual_fractions"] == pytest.approx(
            sel1["residual_fractions"], rel=1e-12, abs=0)
        for key in ("gains", "f_values", "g_values", "var_y"):
            got, want = np.ravel(sel[key]), np.ravel(sel1[key]) * scale
            normal = np.abs(want) >= np.finfo(float).tiny
            assert got[normal] == pytest.approx(want[normal], rel=1e-12,
                                                abs=0), (scale, key)
    stubborn = {int(t) for t in Path(f"{ws}.stubborn").read_text().split()}
    table = tmp_path / "span.sigma2"
    # 1e-300 rescales to 0; 1e-10 to 1e-10 4^-498, about 1.5e-310
    for smallest, underflow in (("1e-300", "0"), ("1e-10", "a subnormal")):
        regular = [i for i in range(20) if i not in stubborn]
        table.write_text("".join(
            f"{i} {smallest if i == regular[0] else 1e300}\n"
            for i in regular))
        capsys.readouterr()
        assert run_cli(["select", "--k", "2", *graph, "--sigma2",
                        str(table)]) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"error: --sigma2 {table}: the noise variances span too wide a "
            f"range; the smallest underflows to {underflow}"]
        assert not out.exists()


def test_overflowing_strength_refused(tmp_path, capsys):
    # node 1's strength times sigma^2 = 3 overflows inside the covariance
    # solve, where no noise scale can help: exit 4 with one line naming the
    # strength, no RuntimeWarning and no output, for every command
    edges = tmp_path / "big.edges"
    edges.write_text("0 1 1e308\n1 2 1\n2 0 1\n2 3 1\n3 0 1\n")
    out = tmp_path / "never.json"
    graph = ["--graph", str(edges), "--stubborn", "0", "--sigma2", "uniform:3",
             "--out", str(out)]
    for command in (["select", "--k", "1"], ["score"],
                    ["curve", "--max-k", "1"]):
        capsys.readouterr()
        assert run_cli([*command, *graph]) == 4, command
        assert capsys.readouterr().err.splitlines() == [
            "error: a regular strength (the largest is 1e+308) overflows "
            "float64 in the covariance; divide the edge weights by a common "
            "factor"]
        assert not out.exists()


def test_covariance_missing_its_equation_refused(tmp_path, capsys):
    # on the chorded ring, a strength of 1e16 beside 2 leaves C within 1e-8
    # and every command runs; at 1e20 or 1e50 the covariance misses its own
    # equation, and every command exits 4 with one line naming the residual
    # and the strengths, no RuntimeWarning and no output
    out = tmp_path / "doc.json"
    for W, code in ((1e16, 0), (1e20, 4), (1e50, 4)):
        prefix = tmp_path / f"ring{W:g}"
        save_graph(chorded_ring(W), f"{prefix}.edges", f"{prefix}.stubborn")
        graph = ["--graph", f"{prefix}.edges", "--stubborn-file",
                 f"{prefix}.stubborn", "--out", str(out)]
        for command in (["select", "--k", "2"], ["score"],
                        ["curve", "--methods", "greedy,exact", "--max-k", "2"]):
            capsys.readouterr()
            assert run_cli([*command, *graph]) == code, (W, command)
            err = capsys.readouterr().err.splitlines()
            if code:
                assert len(err) == 1 and re.fullmatch(
                    r"error: Lyapunov residual \S+ of the covariance exceeds "
                    r"1e-08: the regular strengths span 2\.0 to "
                    + re.escape(repr(W))
                    + ", too wide a range for the spectral solve", err[0]), err
                assert not out.exists()
            else:
                assert err == []
                out.unlink()


def test_out_of_memory_gets_the_budget_exit_code(tmp_path, capsys,
                                                 monkeypatch):
    # the moments suite's replicas x n state array is its one large
    # allocation; make it fail as a huge --replicas would, without allocating
    def no_memory(*args, **kwargs):
        raise MemoryError("Unable to allocate 1.09 PiB for an array")

    monkeypatch.setattr(np, "tile", no_memory)
    out = tmp_path / "never.json"
    assert run_cli(["validate", "--suite", "moments", "--replicas",
                    "1000000000000", "--out", str(out)]) == 3
    assert capsys.readouterr().err == \
        "error: out of memory: Unable to allocate 1.09 PiB for an array\n"
    assert not out.exists()


def test_negative_seed_refused(tmp_path, capsys):
    prefix = tmp_path / "never"
    for argv in (["generate", "--model", "ws", "--n", "20", "--n-stubborn",
                  "3", "--seed", "-1", "--out-prefix", str(prefix)],
                 ["validate", "--suite", "moments", "--seed", "-3"]):
        capsys.readouterr()
        assert run_cli(argv) == 2
        seed = argv[argv.index("--seed") + 1]
        assert capsys.readouterr().err == \
            f"error: --seed {seed}: must be at least 0\n"
    assert not (tmp_path / "never.edges").exists()


_STARTUP_SCRIPT = textwrap.dedent("""
    import json, sys
    from opinionselect import cli
    for argv in json.loads(sys.argv[1]):
        assert cli.main(argv) == 0, argv
    def heavy():
        return sorted(m for m in sys.modules
                      if m.split(".")[0] in ("scipy", "networkx",
                                             "statistics"))
    after_ops = heavy()
    assert cli.main(json.loads(sys.argv[2])) == 0
    after_exact = heavy()
    assert cli.main(json.loads(sys.argv[3])) == 0
    print(json.dumps({"after_ops": after_ops, "after_exact": after_exact,
                      "scipy_after_generate": sorted(
                          m for m in sys.modules if m.startswith("scipy")),
                      "networkx_after_generate": "networkx" in sys.modules}))
""")


def test_commands_leave_heavy_imports_unloaded(tmp_path):
    # select, curves (exact ones included) and score need numpy alone, only
    # the graph generators import networkx, and no command imports any scipy
    # module; statistics waits for the moments suite. A fresh interpreter
    # sees what the commands load.
    prefix = tmp_path / "g"
    save_graph(generate_random_reachable(14, 3, seed=5),
               f"{prefix}.edges", f"{prefix}.stubborn")
    graph = ["--graph", f"{prefix}.edges", "--stubborn-file",
             f"{prefix}.stubborn"]
    ops = [["select", *graph, "--k", "3", "--out", str(tmp_path / "s.json")],
           ["curve", *graph, "--max-k", "2", "--methods", "greedy",
            "--out", str(tmp_path / "c.csv")],
           ["score", *graph, "--measures",
            "var_reduction,eta,bonacich,intercentrality",
            "--out", str(tmp_path / "score.json")]]
    exact = ["curve", *graph, "--max-k", "2", "--methods", "greedy,exact",
             "--out", str(tmp_path / "c.csv")]
    generate = ["generate", "--model", "ws", "--n", "15", "--n-stubborn", "3",
                "--seed", "7", "--out-prefix", str(tmp_path / "ws")]
    src = str(Path(opinionselect.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    proc = subprocess.run(
        [sys.executable, "-c", _STARTUP_SCRIPT, json.dumps(ops),
         json.dumps(exact), json.dumps(generate)], env=env,
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    seen = json.loads(proc.stdout.splitlines()[-1])
    assert seen == {"after_ops": [], "after_exact": [],
                    "scipy_after_generate": [],
                    "networkx_after_generate": True}
    assert (tmp_path / "ws.edges").stat().st_size > 0
    assert json.loads((tmp_path / "score.json").read_text())["kendall_tau"]


def test_curve_csv(ws_files, tmp_path):
    edges, stub = ws_files
    out = tmp_path / "curve.csv"
    code = run_cli(["curve", "--graph", edges, "--stubborn-file", stub,
                    "--max-k", "4", "--methods", "greedy,exact",
                    "--format", "csv", "--out", str(out)])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "k,method,residual_pct"
    rows = [ln.split(",") for ln in lines[1:]]
    assert len(rows) == 10  # (4+1) per method
    by_method = {}
    for k, method, pct in rows:
        by_method.setdefault(method, []).append((int(k), float(pct)))
    for method, pts in by_method.items():
        pcts = [p for _, p in sorted(pts)]
        assert pcts[0] == pytest.approx(100.0)
        assert all(pcts[i + 1] <= pcts[i] + 1e-9 for i in range(len(pcts) - 1))
    greedy = dict(by_method["greedy"])
    exact = dict(by_method["exact"])
    for k in range(5):
        assert greedy[k] >= exact[k] - 1e-9


def test_curve_walks_the_subset_tree_once(ws_files, tmp_path, monkeypatch):
    # every k of the exact curve comes from one walk to depth --max-k, and
    # every F it reports is the walk's: f_score is called nowhere, in any
    # module that binds it
    edges, stub = ws_files
    walks, scores = [], []
    walk, f_score = selector._walk, objective.f_score

    def spy(C, sizes, *args):
        walks.append(sizes)
        return walk(C, sizes, *args)

    def f_spy(C, K):
        scores.append(tuple(K))
        return f_score(C, K)

    monkeypatch.setattr(selector, "_walk", spy)
    for name, mod in list(sys.modules.items()):
        if name.split(".")[0] == "opinionselect" and \
                getattr(mod, "f_score", None) is f_score:
            monkeypatch.setattr(mod, "f_score", f_spy)
    out = tmp_path / "curve.csv"
    assert run_cli(["curve", "--graph", edges, "--stubborn-file", stub,
                    "--max-k", "5", "--methods", "greedy,exact",
                    "--out", str(out)]) == 0
    assert walks == [range(6)]
    assert scores == []


def test_curve_rejects_out_of_range_max_k(ws_files, tmp_path):
    edges, stub = ws_files
    out = tmp_path / "never.csv"
    for methods in ("exact", "greedy"):
        for max_k in ("-1", "13"):
            assert run_cli(["curve", "--graph", edges, "--stubborn-file", stub,
                            "--max-k", max_k, "--methods", methods,
                            "--out", str(out)]) == 2
    assert not out.exists()


def test_curve_max_k_zero(ws_files, tmp_path):
    edges, stub = ws_files
    out = tmp_path / "c0.csv"
    assert run_cli(["curve", "--graph", edges, "--stubborn-file", stub,
                    "--max-k", "0", "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 2
    assert float(lines[1].split(",")[2]) == pytest.approx(100.0)


def _refuse_constant(name):
    raise ValueError(f"{name} is not valid JSON")


def test_validate_suites_pass(tmp_path):
    for suite, extra in [("incremental", ["--trials", "5"]),
                         ("greedy-guarantee", ["--trials", "5"]),
                         ("submodularity", ["--trials", "10", "--max-r", "6"])]:
        out = tmp_path / f"{suite}.json"
        assert run_cli(["validate", "--suite", suite, *extra, "--seed", "0",
                        "--out", str(out)]) == 0
        doc = json.loads(out.read_text(), parse_constant=_refuse_constant)
        assert doc["validation"]["ok"] is True
    assert doc["validation"]["min_slack_f"] >= -1e-9


def test_validate_submodularity_refusals(tmp_path, capsys, monkeypatch):
    out = tmp_path / "never.json"
    audit = ["validate", "--suite", "submodularity", "--trials", "1",
             "--seed", "0", "--out", str(out)]
    assert run_cli([*audit, "--max-r", "2"]) == 2
    assert "--max-r 2" in capsys.readouterr().err
    guarantee = ["validate", "--suite", "greedy-guarantee", "--trials", "1",
                 "--seed", "0", "--out", str(out)]
    for max_r in ("5", "3"):
        assert run_cli([*guarantee, "--max-r", max_r]) == 2
        err = capsys.readouterr().err
        assert f"--max-r {max_r}" in err and "at least 6" in err
    # F of greedy's pick and of the optimum come from one f_score call each,
    # so a greedy pick of the optimum reads exactly 1
    assert run_cli([*guarantee, "--max-r", "6"]) == 0
    assert json.loads(out.read_text())["validation"]["worst_ratio"] == 1.0
    out.unlink()
    # a negative --trials is refused in every suite that draws trials;
    # --trials 0 runs no trial and writes null slacks
    for suite in ("submodularity", "greedy-guarantee", "incremental"):
        assert run_cli(["validate", "--suite", suite, "--trials", "-2",
                        "--seed", "0", "--out", str(out)]) == 2
        assert "--trials -2" in capsys.readouterr().err
        assert not out.exists()
    # the moments suite needs two replicas for a sample covariance
    for replicas in ("1", "0"):
        assert run_cli(["validate", "--suite", "moments", "--replicas",
                        replicas, "--out", str(out)]) == 2
        assert capsys.readouterr().err == \
            f"error: --replicas {replicas}: must be at least 2\n"
        assert not out.exists()
    assert run_cli(["validate", "--suite", "submodularity", "--trials", "0",
                    "--seed", "0", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())["validation"]
    assert doc["trials"] == 0 and doc["min_slack_f"] is None
    out.unlink()
    # trials draw up to --max-r regular nodes, and 14 nodes are over the
    # audit budget: refused before the first trial, even with --trials 0
    for max_r, code in (("14", 3), ("13", 0)):
        assert run_cli(["validate", "--suite", "submodularity", "--trials",
                        "0", "--max-r", max_r, "--seed", "0",
                        "--out", str(out)]) == code
        assert out.exists() == (code == 0)
    assert "exhaustive audit of 14 nodes" in capsys.readouterr().err
    out.unlink()
    # an exhaustive audit over EXACT_BUDGET triples is refused (exit 3)
    monkeypatch.setattr(selector, "EXACT_BUDGET", 100)
    assert run_cli([*audit, "--max-r", "6"]) == 3
    assert "over the budget of 100" in capsys.readouterr().err
    assert not out.exists()


def test_validate_moments_small(tmp_path):
    # seed 2's worst deviation, 4.26 SE on a rademacher covariance, is chance:
    # it is one of 3 * (12 + 78) comparisons, and the Sidak bound for those
    # at a family-wise level of 1e-3 is 4.63 SE
    out = tmp_path / "mom.json"
    code = run_cli(["validate", "--suite", "moments", "--replicas", "20000",
                    "--seed", "2", "--out", str(out)])
    doc = json.loads(out.read_text())["validation"]
    assert code == 0
    assert doc["suite"] == "moments" and doc["ok"]
    assert doc["bound_in_se"] == pytest.approx(4.6272, abs=1e-4)
    assert 4.0 < doc["worst_dev_in_se"] < doc["bound_in_se"]


def test_validate_moments_catches_a_scaled_covariance(tmp_path, monkeypatch):
    # a covariance 5% too large is off by more than the bound at the
    # default replicas
    from opinionselect import validation
    exact = validation.moments
    monkeypatch.setattr(validation, "moments", lambda ops, noise:
                        SimpleNamespace(C=1.05 * exact(ops, noise).C))
    out = tmp_path / "mom.json"
    code = run_cli(["validate", "--suite", "moments", "--seed", "0",
                    "--out", str(out)])
    doc = json.loads(out.read_text())["validation"]
    assert code == 1 and not doc["ok"]
    assert doc["replicas"] == 20000
    assert doc["worst_dev_in_se"] > doc["bound_in_se"]
