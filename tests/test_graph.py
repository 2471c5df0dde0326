import io

import numpy as np
import pytest
from scipy.sparse.csgraph import connected_components

from opinionselect import (GraphError, ReachabilityError, SocialGraph,
                           generate_cycle, generate_random_reachable,
                           generate_watts_strogatz, load_graph, normalize,
                           save_graph, validate_reachability)


def test_load_smallest_valid_instance():
    g = load_graph(io.StringIO("0 1 1.0\n"), stubborn={1})
    assert g.n_nodes == 2
    assert g.stubborn == (1,)
    assert g.regular == (0,)
    assert g.weights[0, 1] == g.weights[1, 0] == 1.0


def test_load_rejects_empty_stubborn():
    with pytest.raises(GraphError, match="stubborn set empty"):
        load_graph(io.StringIO("0 1 1.0\n"), stubborn=set())


def test_load_comma_separator_and_comments():
    text = "# header\n0,1,2.5\n\n1 2 1.0\n"
    g = load_graph(io.StringIO(text), stubborn={2})
    assert g.n_nodes == 3
    assert g.weights[0, 1] == 2.5


def test_load_duplicate_edge_same_weight_ok():
    g = load_graph(io.StringIO("0 1 1.5\n1 0 1.5\n0 2 1.0\n"), stubborn={2})
    assert g.weights[0, 1] == 1.5


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
    assert np.array_equal(g.weights, ring.weights)
    assert len(g.stubborn) == 1


def test_watts_strogatz_deterministic():
    g1 = generate_watts_strogatz(20, 4, 0.5, 11, 4)
    g2 = generate_watts_strogatz(20, 4, 0.5, 11, 4)
    assert np.array_equal(g1.weights, g2.weights)
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
    g = SocialGraph(weights=W, stubborn=(2,))
    ops = normalize(g)
    assert np.allclose(ops.A, [[0., .5], [.5, 0.]])
    assert np.allclose(ops.B, [[.5], [.5]])


def test_normalize_star_single_regular():
    W = np.array([[0., 1.], [1., 0.]])
    g = SocialGraph(weights=W, stubborn=(1,))
    ops = normalize(g)
    assert np.allclose(ops.A, [[0.]])
    assert np.allclose(ops.B, [[1.]])


def test_normalize_rows_sum_to_one():
    for seed in range(10):
        g = generate_random_reachable(12, 3, seed)
        ops = normalize(g)
        rows = np.hstack([ops.A, ops.B]).sum(axis=1)
        assert np.max(np.abs(rows - 1.0)) < 1e-12
        # w holds the strengths of the regular nodes alone, in regular order
        assert ops.w.shape == (ops.n_regular,)
        assert np.array_equal(ops.w, g.weights[list(g.regular)].sum(axis=1))
        assert np.all(ops.A >= 0)
        assert np.all(ops.B >= 0)


def test_normalize_requires_reachability():
    W = np.zeros((4, 4))
    W[0, 1] = W[1, 0] = 1.0
    W[2, 3] = W[3, 2] = 1.0
    g = SocialGraph(weights=W, stubborn=(0,))
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
    g = SocialGraph(weights=W, stubborn=(0,))
    rep = validate_reachability(g)
    assert not rep.ok
    assert (2, 3) in rep.orphan_components

    g_ok = SocialGraph(weights=W, stubborn=(0, 2, 4))
    assert validate_reachability(g_ok).ok

    only_stub = SocialGraph(weights=np.zeros((2, 2)), stubborn=(0, 1))
    rep2 = validate_reachability(only_stub)
    assert rep2.ok and "no regular agents" in rep2.message


def _orphans_oracle(g):
    """Components without a stubborn node, from scipy's connected components."""
    n_comp, comp = connected_components(g.weights > 0, directed=False)
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
        graphs.append(SocialGraph(weights=_random_multicomponent_graph(rng, n),
                                  stubborn=tuple(int(i) for i in stub)))
    # a long path cut in the middle, stubborn at one end, then at both ends
    W = np.zeros((40, 40))
    for i in range(39):
        if i != 19:
            W[i, i + 1] = W[i + 1, i] = 1.0
    graphs += [SocialGraph(weights=W, stubborn=(0,)),
               SocialGraph(weights=W, stubborn=(0, 39)),
               SocialGraph(weights=W, stubborn=())]
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
    assert np.allclose(g.weights, g2.weights)
    assert g.stubborn == g2.stubborn
    assert g.labels == g2.labels


def test_social_graph_invariant_enforcement():
    with pytest.raises(GraphError):
        SocialGraph(weights=np.array([[0., 1.], [2., 0.]]), stubborn=(0,))
    with pytest.raises(GraphError):
        SocialGraph(weights=np.array([[1., 1.], [1., 0.]]), stubborn=(0,))
    with pytest.raises(GraphError):
        SocialGraph(weights=np.array([[0., -1.], [-1., 0.]]), stubborn=(0,))
    with pytest.raises(GraphError):
        SocialGraph(weights=np.zeros((2, 2)), stubborn=(7,))
