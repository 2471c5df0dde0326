import argparse
import json
import os
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import opinionselect
from opinionselect import (equilibrium, generate_random_reachable, load_graph,
                           normalize, save_graph)
from opinionselect.cli import build_parser, main


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
    # suits --matrix normalized; the error states the bound 1/rho(G)
    prefix = tmp_path / "ws30"
    assert run_cli(["generate", "--model", "ws", "--n", "30",
                    "--n-stubborn", "3", "--seed", "1",
                    "--out-prefix", str(prefix)]) == 0
    graph = ["score", "--graph", f"{prefix}.edges", "--stubborn-file",
             f"{prefix}.stubborn", "--matrix", "adjacency",
             "--measures", "bonacich,intercentrality",
             "--out", str(tmp_path / "adj.json")]
    capsys.readouterr()
    assert run_cli(graph) == 4
    err = capsys.readouterr().err
    bound = float(re.search(r"1/rho\(G\) = ([0-9.e+-]+)", err).group(1))
    g = load_graph(f"{prefix}.edges",
                   [int(t) for t in Path(f"{prefix}.stubborn").read_text().split()])
    R = list(g.regular)
    rho = np.max(np.abs(np.linalg.eigvalsh((g.weights[np.ix_(R, R)] > 0)
                                           .astype(float))))
    assert bound == pytest.approx(1.0 / rho, rel=1e-5)
    assert run_cli(graph + ["--attenuation", repr(bound / 2)]) == 0
    doc = json.loads((tmp_path / "adj.json").read_text())
    assert set(doc["scores"]) == {"bonacich", "intercentrality"}


def test_score_default_matrix_makes_no_dense_solve(ws_files, tmp_path,
                                                   monkeypatch):
    # --matrix normalized scores from the spectrum normalize stores: no
    # O(n^3) solve or inverse, and no power iteration for the bound
    def refuse(*args, **kwargs):
        raise AssertionError("dense call on the spectral score path")

    for name in ("solve", "inv"):
        monkeypatch.setattr(np.linalg, name, refuse)
    monkeypatch.setattr(equilibrium, "spectral_radius", refuse)
    edges, stub = ws_files
    score = ["score", "--graph", edges, "--stubborn-file", stub,
             "--measures", "var_reduction,eta,bonacich,intercentrality",
             "--out", str(tmp_path / "score.json")]
    assert run_cli(score) == 0
    # the adjacency path is dense, so the patch does reach it
    with pytest.raises(AssertionError):
        run_cli(score + ["--matrix", "adjacency", "--attenuation", "0.1"])


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


_STARTUP_SCRIPT = textwrap.dedent("""
    import json, sys
    from opinionselect import cli
    for argv in json.loads(sys.argv[1]):
        assert cli.main(argv) == 0, argv
    heavy = ("scipy.stats", "scipy.sparse", "networkx")
    after_ops = [m for m in heavy if m in sys.modules]
    assert cli.main(json.loads(sys.argv[2])) == 0
    print(json.dumps({"after_ops": after_ops,
                      "networkx_after_generate": "networkx" in sys.modules}))
""")


def test_commands_leave_heavy_imports_unloaded(tmp_path):
    # select, curve and score need numpy and scipy.linalg alone; only the
    # graph generators import networkx, and nothing imports scipy.stats or
    # scipy.sparse. A fresh interpreter sees what the commands load.
    prefix = tmp_path / "g"
    save_graph(generate_random_reachable(14, 3, seed=5),
               f"{prefix}.edges", f"{prefix}.stubborn")
    graph = ["--graph", f"{prefix}.edges", "--stubborn-file",
             f"{prefix}.stubborn"]
    ops = [["select", *graph, "--k", "3", "--out", str(tmp_path / "s.json")],
           ["curve", *graph, "--max-k", "2", "--methods", "greedy,exact",
            "--out", str(tmp_path / "c.csv")],
           ["score", *graph, "--measures",
            "var_reduction,eta,bonacich,intercentrality",
            "--out", str(tmp_path / "score.json")]]
    generate = ["generate", "--model", "ws", "--n", "15", "--n-stubborn", "3",
                "--seed", "7", "--out-prefix", str(tmp_path / "ws")]
    src = str(Path(opinionselect.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    proc = subprocess.run(
        [sys.executable, "-c", _STARTUP_SCRIPT, json.dumps(ops),
         json.dumps(generate)], env=env, capture_output=True, text=True,
        timeout=120)
    assert proc.returncode == 0, proc.stderr
    seen = json.loads(proc.stdout.splitlines()[-1])
    assert seen == {"after_ops": [], "networkx_after_generate": True}
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


def test_validate_moments_small(tmp_path):
    out = tmp_path / "mom.json"
    code = run_cli(["validate", "--suite", "moments", "--replicas", "20000",
                    "--seed", "2", "--out", str(out)])
    doc = json.loads(out.read_text())
    assert code in (0, 1)
    assert doc["validation"]["suite"] == "moments"
    assert (code == 0) == doc["validation"]["ok"]
