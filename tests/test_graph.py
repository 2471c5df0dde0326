import io
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.sparse.csgraph import connected_components

from opinionselect import (GraphError, ReachabilityError, SocialGraph,
                           generate_cycle, generate_random_reachable,
                           generate_watts_strogatz, load_graph, normalize,
                           save_graph)
from opinionselect.graph import validate_reachability
from opinionselect.validation import blocks, dense_weights
from conftest import graph_from_dense


def test_load_smallest_valid_instance():
    g = load_graph(io.StringIO("0 1 1.0\n"), stubborn={1})
    assert g.n_nodes == 2
    assert g.stubborn == (1,)
    assert g.regular == (0,)
    assert dense_weights(g)[0, 1] == dense_weights(g)[1, 0] == 1.0


def test_load_rejects_empty_stubborn():
    with pytest.raises(GraphError, match="stubborn set empty"):
        load_graph(io.StringIO("0 1 1.0\n"), stubborn=set())


def test_load_comma_separator_and_comments():
    text = "# header\n0,1,2.5\n\n1 2 1.0\n"
    g = load_graph(io.StringIO(text), stubborn={2})
    assert g.n_nodes == 3
    assert dense_weights(g)[0, 1] == 2.5


def test_load_duplicate_edge_same_weight_ok():
    g = load_graph(io.StringIO("0 1 1.5\n1 0 1.5\n0 2 1.0\n"), stubborn={2})
    assert dense_weights(g)[0, 1] == 1.5


def test_load_conflicting_duplicate_is_error():
    with pytest.raises(GraphError, match="conflicting"):
        load_graph(io.StringIO("0 1 1.5\n1 0 2.5\n"), stubborn={1})


def test_load_rejects_self_loop_and_bad_records():
    with pytest.raises(GraphError, match="self-loop"):
        load_graph(io.StringIO("3 3 1.0\n"), stubborn={3})
    with pytest.raises(GraphError, match="malformed|expected"):
        load_graph(io.StringIO("0 x 1.0\n"), stubborn={0})
    with pytest.raises(GraphError, match="weight"):
        load_graph(io.StringIO("0 1 -1.0\n"), stubborn={1})


def test_load_stubborn_out_of_range():
    with pytest.raises(GraphError, match="not in node range"):
        load_graph(io.StringIO("0 1 1.0\n"), stubborn={5})


def test_load_reachability_violation():
    # two components, stubborn only in one
    text = "0 1 1.0\n2 3 1.0\n"
    with pytest.raises(ReachabilityError):
        load_graph(io.StringIO(text), stubborn={0})


def test_load_sparse_labels_are_remapped():
    g = load_graph(io.StringIO("10 20 1.0\n20 30 1.0\n"), stubborn={30})
    assert g.labels == (10, 20, 30)
    assert g.stubborn == (2,)


def test_watts_strogatz_paper_instance():
    g = generate_watts_strogatz(15, 4, 0.3, 7, 3)
    assert g.n_nodes == 15
    assert len(g.stubborn) == 3
    assert len(g.regular) == 12
    assert validate_reachability(g).ok


def test_watts_strogatz_beta_zero_is_ring_lattice():
    g = generate_watts_strogatz(8, 2, 0.0, 0, 1)
    ring = generate_cycle(8, 0)
    assert np.array_equal(dense_weights(g), dense_weights(ring))
    assert len(g.stubborn) == 1


def test_watts_strogatz_deterministic():
    g1 = generate_watts_strogatz(20, 4, 0.5, 11, 4)
    g2 = generate_watts_strogatz(20, 4, 0.5, 11, 4)
    assert np.array_equal(dense_weights(g1), dense_weights(g2))
    assert g1.stubborn == g2.stubborn


def test_watts_strogatz_parameter_domain():
    with pytest.raises(GraphError):
        generate_watts_strogatz(4, 4, 0.3, 0, 1)   # n > k violated
    with pytest.raises(GraphError):
        generate_watts_strogatz(10, 3, 0.3, 0, 1)  # odd k
    with pytest.raises(GraphError):
        generate_watts_strogatz(10, 4, 1.5, 0, 1)  # beta out of range
    with pytest.raises(GraphError):
        generate_watts_strogatz(10, 4, 0.3, 0, 10)  # n_stubborn >= n


def test_cycle_instances():
    c7 = generate_cycle(7, 0)
    assert c7.n_nodes == 7 and c7.stubborn == ()
    tri = generate_cycle(3, 1)
    assert tri.stubborn == (0,)
    c4 = generate_cycle(4, 2)
    assert c4.stubborn == (0, 1)
    with pytest.raises(GraphError):
        generate_cycle(4, 4)
    with pytest.raises(GraphError):
        generate_cycle(2, 0)


def test_normalize_uniform_triangle(chain_instance):
    # regular 0, 1 linked to each other and each to stubborn 2
    W = np.array([[0., 1., 1.],
                  [1., 0., 1.],
                  [1., 1., 0.]])
    g = graph_from_dense(W, (2,))
    ops = normalize(g)
    assert np.allclose(blocks(ops)[0], [[0., .5], [.5, 0.]])
    assert np.allclose(blocks(ops)[1], [[.5], [.5]])


def test_normalize_star_single_regular():
    W = np.array([[0., 1.], [1., 0.]])
    g = graph_from_dense(W, (1,))
    ops = normalize(g)
    assert np.allclose(blocks(ops)[0], [[0.]])
    assert np.allclose(blocks(ops)[1], [[1.]])


def _assert_strengths(g, w):
    """w against the exact sum of each regular node's incident weights: equal
    on unit weights, else within (d - 1) eps relative for a node of degree d,
    the error bound of a sequential sum."""
    W = dense_weights(g)
    if np.all(g.edge_weights == 1.0):
        assert np.array_equal(w, W.sum(axis=1)[list(g.regular)])
    for wk, k in zip(w, g.regular):
        incident = W[k][W[k] > 0]
        exact = math.fsum(incident)
        assert abs(wk - exact) <= (len(incident) - 1) * np.finfo(float).eps * exact


def test_normalize_rows_sum_to_one():
    for seed in range(10):
        g = generate_random_reachable(12, 3, seed)
        ops = normalize(g)
        rows = np.hstack([blocks(ops)[0], blocks(ops)[1]]).sum(axis=1)
        assert np.max(np.abs(rows - 1.0)) < 1e-12
        # w holds the strengths of the regular nodes alone, in regular order
        assert ops.w.shape == (ops.n_regular,)
        _assert_strengths(g, ops.w)
        assert np.all(blocks(ops)[0] >= 0)
        assert np.all(blocks(ops)[1] >= 0)


def test_normalize_requires_reachability():
    W = np.zeros((4, 4))
    W[0, 1] = W[1, 0] = 1.0
    W[2, 3] = W[3, 2] = 1.0
    g = graph_from_dense(W, (0,))
    with pytest.raises(ReachabilityError):
        normalize(g)


def test_schur_stability_over_random_graphs():
    # rho(A) < 1 for every graph passing the reachability check
    for seed in range(100):
        g = generate_random_reachable(4 + seed % 20, 1 + seed % 3, seed)
        assert validate_reachability(g).ok
        assert normalize(g).rho < 1.0


def test_validate_reachability_reports():
    W = np.zeros((5, 5))
    W[0, 1] = W[1, 0] = 1.0
    W[2, 3] = W[3, 2] = 1.0
    g = graph_from_dense(W, (0,))
    rep = validate_reachability(g)
    assert not rep.ok
    assert (2, 3) in rep.orphan_components

    g_ok = graph_from_dense(W, (0, 2, 4))
    assert validate_reachability(g_ok).ok

    only_stub = graph_from_dense(np.zeros((2, 2)), (0, 1))
    rep2 = validate_reachability(only_stub)
    assert rep2.ok and "no regular agents" in rep2.message


def _orphans_oracle(g):
    """Components without a stubborn node, from scipy's connected components."""
    n_comp, comp = connected_components(dense_weights(g) > 0, directed=False)
    members = [tuple(int(i) for i in np.flatnonzero(comp == c))
               for c in range(n_comp)]
    stub = set(g.stubborn)
    return tuple(sorted(m for m in members if stub.isdisjoint(m)))


def _random_multicomponent_graph(rng, n):
    """Sparse random weights, so most draws split into several components."""
    density = rng.uniform(0.0, 3.0 / n)
    W = np.triu(rng.uniform(0.5, 2.0, (n, n)) * (rng.random((n, n)) < density), 1)
    return W + W.T


def test_validate_reachability_matches_csgraph_oracle():
    rng = np.random.default_rng(21)
    graphs = []
    for _ in range(150):
        n = int(rng.integers(2, 40))
        n_stub = int(rng.integers(0, n // 3 + 2))
        stub = rng.choice(n, size=min(n_stub, n - 1), replace=False)
        graphs.append(graph_from_dense(_random_multicomponent_graph(rng, n),
                                  stubborn=tuple(int(i) for i in stub)))
    # a long path cut in the middle, stubborn at one end, then at both ends
    W = np.zeros((40, 40))
    for i in range(39):
        if i != 19:
            W[i, i + 1] = W[i + 1, i] = 1.0
    graphs += [graph_from_dense(W, (0,)),
               graph_from_dense(W, (0, 39)),
               graph_from_dense(W, ())]
    n_failing = n_isolated = 0
    for g in graphs:
        rep = validate_reachability(g)
        want = _orphans_oracle(g)
        assert rep.orphan_components == want
        assert rep.ok == (not want)
        n_failing += not rep.ok
        n_isolated += sum(len(c) == 1 for c in want)
    assert 0 < n_failing < len(graphs) and n_isolated > 0
    assert validate_reachability(graphs[-3]).orphan_components == \
        (tuple(range(20, 40)),)


def test_save_load_round_trip(tmp_path):
    g = generate_random_reachable(12, 3, seed=5)
    edges = tmp_path / "g.edges"
    stub = tmp_path / "g.stubborn"
    save_graph(g, edges, stub)
    stubborn = [int(s) for s in stub.read_text().split()]
    g2 = load_graph(edges, stubborn)
    # the weights are written in their shortest round-trip form
    assert np.array_equal(dense_weights(g), dense_weights(g2))
    assert g.stubborn == g2.stubborn
    assert g.labels == g2.labels


def test_normalize_refuses_nan_spectral_radius(monkeypatch):
    # a NaN spectrum fails the stability test instead of passing it
    g = graph_from_dense(np.array([[0., 1., 1.], [1., 0., 1.], [1., 1., 0.]]),
                    stubborn=(2,))
    eigh = np.linalg.eigh

    def nan_eigh(S):
        vals, vecs = eigh(S)
        return np.full_like(vals, np.nan), vecs

    monkeypatch.setattr(np.linalg, "eigh", nan_eigh)
    with pytest.raises(ReachabilityError, match="spectral radius of A is nan"):
        normalize(g)


def test_normalize_refuses_overflowing_strength():
    # finite weights whose sum overflows: node 0's strength would be inf
    W = np.zeros((4, 4))
    for i, j, wgt in ((0, 1, 1e308), (0, 2, 1e308), (1, 3, 1.0), (2, 3, 1.0)):
        W[i, j] = W[j, i] = wgt
    g = graph_from_dense(W, (3,))
    # node 2 is the larger end of edge (1, 2) and the smaller of edge (2, 3)
    mixed = SocialGraph(4, [0, 1, 2], [1, 2, 3], [1.0, 1e308, 1e308],
                        stubborn=(0,))
    for g, node in ((g, 0), (mixed, 2)):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(GraphError,
                               match=rf"node\(s\) \[{node}\] overflows"):
                normalize(g)


def _traced_peak(fn):
    """(fn(), peak traced bytes above those held before the call)."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        out = fn()
        return out, tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def test_dense_and_edge_list_constructions_agree():
    g = generate_random_reachable(30, 4, seed=2)
    h = SocialGraph(30, g.edge_j[::-1], g.edge_i[::-1], g.edge_weights[::-1],
                    g.stubborn)
    # edges once each, i < j, in the row-major order of triu(W), whatever
    # the orientation and order they were given in
    assert np.array_equal(h.edge_i, g.edge_i)
    assert np.array_equal(h.edge_j, g.edge_j)
    assert np.array_equal(h.edge_weights, g.edge_weights)
    assert h.regular == g.regular and h.n_edges == g.n_edges
    iu, ju = np.nonzero(np.triu(dense_weights(g)))
    assert np.array_equal(iu, g.edge_i) and np.array_equal(ju, g.edge_j)
    # regular_arcs are the nonzeros of W_RR, each once, in some order
    R = list(g.regular)
    W_RR = dense_weights(g)[np.ix_(R, R)]
    r, c = np.nonzero(W_RR)
    row, col, wgt = g.regular_arcs
    arcs = set(zip(row.tolist(), col.tolist(), wgt.tolist()))
    assert len(row) == len(arcs) == len(r)
    assert arcs == set(zip(r.tolist(), c.tolist(), W_RR[r, c].tolist()))


def test_from_edges_refuses_bad_edges():
    one = np.array([1.0])
    with pytest.raises(GraphError, match="self-loops"):
        SocialGraph(3, [1], [1], one, stubborn=(0,))
    with pytest.raises(GraphError, match="out of node range"):
        SocialGraph(3, [0], [3], one, stubborn=(0,))
    with pytest.raises(GraphError, match="repeated edge"):
        SocialGraph(3, [0, 1], [1, 0], [1.0, 1.0], stubborn=(0,))
    for bad in (0.0, -1.0, np.inf, np.nan):
        with pytest.raises(GraphError, match="positive|finite"):
            SocialGraph(3, [0], [1], [bad], stubborn=(0,))
    with pytest.raises(GraphError, match="equal length"):
        SocialGraph(3, [0, 1], [1], one, stubborn=(0,))
    with pytest.raises(GraphError, match="stubborn id out of node range"):
        SocialGraph(3, [0], [1], one, stubborn=(3,))


def test_edge_list_isolated_regular_node_and_no_regular_node():
    # node 2 has no edge: its own orphan component, never normalized
    g = SocialGraph(4, [0, 1], [1, 3], [1.0, 2.0], stubborn=(0,))
    assert g.regular == (1, 2, 3) and g.n_edges == 2
    rep = validate_reachability(g)
    assert not rep.ok and rep.orphan_components == ((2,),)
    with pytest.raises(ReachabilityError):
        normalize(g)
    only_stub = SocialGraph(2, [0], [1], [1.0], stubborn=(1, 0))
    assert only_stub.regular == () and only_stub.stubborn == (0, 1)
    assert validate_reachability(only_stub).ok
    ops = normalize(only_stub)
    assert ops.n_regular == 0 and ops.rho == 0.0
    assert ops.eigvecs.shape == (0, 0)


def test_normalize_strengths_and_eigh_input_match_dense():
    # the strengths are W's row sums (to the rounding of a sequential sum
    # on weighted graphs, exactly on unit weights) and the eigh input is
    # (W_ij s_i) s_j, bit for bit
    for seed in range(3):
        for g in (generate_random_reachable(199, 5, seed),
                  generate_watts_strogatz(199, 4, 0.3, seed, 5)):
            ops = normalize(g)
            _assert_strengths(g, ops.w)
            R = list(g.regular)
            S = dense_weights(g)[np.ix_(R, R)]
            scale = 1.0 / np.sqrt(ops.w)
            S *= scale[:, None]
            S *= scale
            lam, Q = np.linalg.eigh(S)
            assert np.array_equal(lam, ops.eigvals)
            assert np.array_equal(Q, ops.eigvecs)


def test_load_and_normalize_hold_no_n_squared_array(tmp_path):
    # a 3,000-node cycle: one n x n float array would be 72 MB
    n = 3000
    n2 = n * n * np.dtype(float).itemsize
    path = tmp_path / "c.edges"
    save_graph(generate_cycle(n, 1), path)
    g, load_peak = _traced_peak(lambda: load_graph(path, [0]))
    assert g.n_edges == n
    assert load_peak <= 2000 * g.n_edges, load_peak / g.n_edges
    assert load_peak <= n2 / 20
    # 1,000 regular nodes: normalize holds O(n_r^2), not O(n^2)
    ops, normalize_peak = _traced_peak(lambda: normalize(generate_cycle(n, 2000)))
    nr2 = ops.n_regular ** 2 * np.dtype(float).itemsize
    assert normalize_peak <= 2.5 * nr2, normalize_peak / nr2
