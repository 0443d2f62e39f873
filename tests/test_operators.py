import copy
import os
import pickle
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.sparse import csgraph

from mxspec import operators
from mxspec.core import DynamicCoupling, MultiplexNetwork
from mxspec.errors import OperatorError, ParseError
from mxspec.generators import RngSeed, gen_er_multiplex
from mxspec.operators import (
    SupraOperator,
    build_dynamic,
    build_supra,
    connected_components,
    laplacian,
    load_coupling,
    symmetrize,
)
from mxspec.spectral import eig_sym

from conftest import random_coupling, random_network, reduced_laplacian, report_physical_memory


def two_layer_example():
    a1 = np.array([[0.0, 1.0], [1.0, 0.0]])
    return MultiplexNetwork(n=2, k=2, layers=(a1, np.zeros((2, 2))))


def test_symmetrize_basics():
    sym = np.array([[0.0, 2.0], [2.0, 0.0]])
    np.testing.assert_array_equal(symmetrize(sym), sym)
    np.testing.assert_array_equal(
        symmetrize(np.array([[0.0, 2.0], [0.0, 0.0]])), np.array([[0.0, 1.0], [1.0, 0.0]])
    )
    rng = np.random.default_rng(0)
    mat = rng.random((5, 5))
    np.testing.assert_array_equal(symmetrize(symmetrize(mat)), symmetrize(mat))
    with pytest.raises(OperatorError):
        symmetrize(np.zeros((2, 3)))


def test_laplacian_single_edge():
    sym = np.array([[0.0, 1.0], [1.0, 0.0]])
    np.testing.assert_array_equal(laplacian(sym), np.array([[1.0, -1.0], [-1.0, 1.0]]))


def test_laplacian_zero_matrix():
    np.testing.assert_array_equal(laplacian(np.zeros((4, 4))), np.zeros((4, 4)))


def test_laplacian_annihilates_ones_vector():
    rng = np.random.default_rng(1)
    for _ in range(100):
        size = int(rng.integers(2, 12))
        sym = symmetrize(rng.random((size, size)))
        np.fill_diagonal(sym, 0.0)
        lap = laplacian(sym)
        assert np.abs(lap @ np.ones(size)).max() < 1e-12


def test_laplacian_rejects_asymmetric():
    with pytest.raises(OperatorError):
        laplacian(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_supra_operator_derives_its_laplacian():
    adj = symmetrize(np.random.default_rng(7).random((4, 4)))
    np.fill_diagonal(adj, 0.0)
    op = SupraOperator(model="supra", n=2, k=2, adjacency=adj, coupling=1.0)
    np.testing.assert_array_equal(op.laplacian, laplacian(adj))
    with pytest.raises(ValueError):
        op.laplacian[0, 0] = 5.0
    asymmetric = adj.copy()
    asymmetric[0, 1] += 1.0
    with pytest.raises(OperatorError):
        SupraOperator(model="supra", n=2, k=2, adjacency=asymmetric, coupling=1.0)
    with pytest.raises(TypeError):
        SupraOperator(model="supra", n=2, k=2, adjacency=adj, coupling=1.0,
                      laplacian=laplacian(adj))


@pytest.mark.parametrize("n, k", [(0, 2), (3, 0), (0, 0), (-1, -1), (2.5, 2), (3, 2.0)])
def test_operator_refuses_no_nodes_or_no_layers(n, k):
    # refused at the build, as error[operators], not later by numpy in
    # eig_sym's sign fixing; n = k = -1 would pass the 1 x 1 shape check,
    # and n = 2.5, k = 2 the 5 x 5 one
    m = int(max(n * k, 0))
    expected = fr"^operator needs n, k >= 1 and an nk x nk adjacency, got n={n}, k={k}, \({m}, {m}\)$"
    with pytest.raises(OperatorError, match=expected):
        SupraOperator(model="supra", n=n, k=k, adjacency=np.zeros((m, m)), coupling=1.0)


def test_operator_takes_numpy_integer_sizes():
    adj = np.array([[0.0, 1.0], [1.0, 0.0]])
    op = SupraOperator(model="supra", n=np.int64(1), k=np.int32(2), adjacency=adj, coupling=1.0)
    assert op.shape == (2, 2) and op.layer_split_value() == 2.0


def test_build_refuses_a_row_whose_weights_sum_past_the_float_range():
    # two finite weights of 1e308 on one node: its degree, the diagonal of
    # L and ||L||_inf overflow, and the build refuses as error[operators]
    layer = np.zeros((3, 3))
    layer[0, 1:] = layer[1:, 0] = 1e308
    net = MultiplexNetwork(n=3, k=2, layers=(layer, np.zeros((3, 3))))
    # and a unit weight that a coupling entry of 1e308 scales past it
    unit = MultiplexNetwork(n=3, k=2, layers=(np.eye(3)[[1, 2, 0]], np.eye(3)[[2, 0, 1]]))
    for build in (lambda: build_supra(net, 1.0),
                  lambda: build_dynamic(net, DynamicCoupling.identity(3, 2)),
                  lambda: build_dynamic(unit, DynamicCoupling(np.full((2, 2, 3), 1e308))),
                  lambda: SupraOperator(model="supra", n=3, k=1, adjacency=layer, coupling=1.0)):
        with pytest.raises(OperatorError, match="^operator Laplacian: the weights sum past the "
                                                "float range$") as refused:
            build()
        assert refused.value.module == "operators"


def test_build_supra_example():
    op = build_supra(two_layer_example(), 0.5)
    expected = np.array(
        [
            [0.0, 1.0, 0.5, 0.0],
            [1.0, 0.0, 0.0, 0.5],
            [0.5, 0.0, 0.0, 0.0],
            [0.0, 0.5, 0.0, 0.0],
        ]
    )
    np.testing.assert_array_equal(op.adjacency, expected)
    np.testing.assert_array_equal(np.diag(op.laplacian), [1.5, 1.5, 0.5, 0.5])
    # Laplacian blocks: per-layer Laplacian + (k-1) w I on diagonal, -w I off
    lap1 = laplacian(symmetrize(two_layer_example().layers[0]))
    np.testing.assert_allclose(op.laplacian[:2, :2], lap1 + 0.5 * np.eye(2))
    np.testing.assert_allclose(op.laplacian[:2, 2:], -0.5 * np.eye(2))


def test_build_supra_w0_block_diagonal():
    net = random_network(np.random.default_rng(3), n=4, k=3)
    op = build_supra(net, 0.0)
    for a in range(3):
        for b in range(3):
            block = op.block(a, b)
            if a == b:
                np.testing.assert_allclose(block, symmetrize(net.layers[a]))
            else:
                np.testing.assert_array_equal(block, np.zeros((4, 4)))


def test_build_supra_k1_ignores_w():
    net = random_network(np.random.default_rng(4), n=5, k=1)
    for w in (0.0, 1.0, 7.5):
        op = build_supra(net, w)
        np.testing.assert_allclose(op.adjacency, symmetrize(net.layers[0]))


def test_build_supra_rejects_negative_w():
    with pytest.raises(ParseError):
        build_supra(two_layer_example(), -1.0)


def test_build_refuses_an_operator_above_physical_memory(monkeypatch):
    # a stand-in with only the sizes: a supra operator keeps its layers,
    # and its L is refused at its first read, before np.zeros, which would
    # grant the 32 MB and then find no layer to read
    report_physical_memory(monkeypatch, 4 << 20)
    op = build_supra(SimpleNamespace(n=1000, k=2, layers=()), 1.0)
    with pytest.raises(OperatorError, match="^supra operator: cannot allocate a 2000 x 2000 "):
        op.laplacian
    net = random_network(np.random.default_rng(5), n=20, k=3)
    expected = build_supra(net, 1.0).laplacian  # fits: 28.8 kB

    def unreported(name):
        raise ValueError(f"unrecognized configuration name {name!r}")

    # where the platform reports no memory size, np.zeros alone decides
    for sysconf in (unreported, lambda name: -1):
        monkeypatch.setattr(os, "sysconf", sysconf)
        np.testing.assert_array_equal(build_supra(net, 1.0).laplacian, expected)


def test_layer_split_value_is_k_times_w_for_supra_alone():
    net = two_layer_example()
    assert build_supra(net, 0.5).layer_split_value() == 1.0
    assert build_supra(net, 0.0).layer_split_value() == 0.0
    assert build_dynamic(net, DynamicCoupling.identity(net.n, 2)).layer_split_value() is None
    one_layer = MultiplexNetwork(n=net.n, k=1, layers=net.layers[:1])
    assert build_supra(one_layer, 2.0).layer_split_value() is None


def test_supra_layer_split_eigenvalue_is_k_times_w():
    # Each layer Laplacian annihilates 1_n and the weight-w clique between
    # copies acts on layer vectors as w (k I - J), so x (x) 1_n with x
    # orthogonal to 1_k is an eigenvector with eigenvalue k*w whatever the
    # layers.  Acceptance criterion 5 places its w grid by this value.
    rng = np.random.default_rng(13)
    for k in (2, 3, 6):
        for w in (0.1, 1.0, 3.5, 20.0):
            net = random_network(rng, n=int(rng.integers(2, 9)), k=k)
            x = rng.standard_normal(k)
            x -= x.mean()
            vec = np.kron(x, np.ones(net.n))
            lap = build_supra(net, w).laplacian
            np.testing.assert_allclose(lap @ vec, k * w * vec,
                                       atol=1e-10 * np.abs(lap).max())


@pytest.mark.parametrize("n, k", [(10**5, 100), (10**7, 1000)])
def test_build_rejects_operator_too_large_to_allocate(n, k):
    # stand-ins with only the sizes (and, for the coupling, a largest
    # entry): the nk x nk allocation fails before any layer is read (10^14
    # doubles exceed the address space, 10^20 an index), at the first read
    # of either operator's L
    net = SimpleNamespace(n=n, k=k, layers=())
    shape = f"{n * k} x {n * k}"
    for model, op in (("supra", build_supra(net, 1.0)),
                      ("dynamic", build_dynamic(net, SimpleNamespace(n=n, k=k, diag=np.ones(1))))):
        with pytest.raises(OperatorError, match=f"{model} operator: cannot allocate a {shape}"):
            op.laplacian


def test_build_dynamic_example():
    op = build_dynamic(two_layer_example(), DynamicCoupling.identity(2, 2))
    expected = np.array(
        [
            [0.0, 1.0, 0.0, 0.5],
            [1.0, 0.0, 0.5, 0.0],
            [0.0, 0.5, 0.0, 0.0],
            [0.5, 0.0, 0.0, 0.0],
        ]
    )
    np.testing.assert_array_equal(op.adjacency, expected)


def test_build_dynamic_disjoint_coupling_block_diagonal():
    net = random_network(np.random.default_rng(5), n=4, k=3)
    op = build_dynamic(net, DynamicCoupling.uniform(np.eye(3), 4))
    for a in range(3):
        for b in range(3):
            if a == b:
                np.testing.assert_allclose(op.block(a, a), symmetrize(net.layers[a]))
            else:
                np.testing.assert_array_equal(op.block(a, b), np.zeros((4, 4)))


def test_build_dynamic_k1_identity_is_symmetrized_layer():
    net = random_network(np.random.default_rng(6), n=5, k=1)
    op = build_dynamic(net, DynamicCoupling.identity(5, 1))
    np.testing.assert_allclose(op.adjacency, symmetrize(net.layers[0]))


def test_build_dynamic_dimension_mismatch():
    with pytest.raises(OperatorError):
        build_dynamic(two_layer_example(), DynamicCoupling.identity(3, 2))


def test_dynamic_pairwise_weight_formula():
    # spot-check W(i on a, j on b) = (c^{ab}_i w^b(i,j) + c^{ba}_j w^a(j,i)) / 2
    rng = np.random.default_rng(7)
    net = random_network(rng, n=4, k=2)
    coupling = random_coupling(rng, 4, 2)
    op = build_dynamic(net, coupling)
    for i in range(4):
        for j in range(4):
            expected = 0.5 * (
                coupling.diag[0, 1, i] * net.layers[1][i, j]
                + coupling.diag[1, 0, j] * net.layers[0][j, i]
            )
            assert op.adjacency[i, 4 + j] == pytest.approx(expected, abs=1e-15)


def test_reduce_supra_equals_aggregate_laplacian():
    # coupling terms cancel: reduction is the Laplacian of summed symmetrized
    # layers for every w
    rng = np.random.default_rng(8)
    for _ in range(20):
        net = random_network(rng)
        w = float(rng.random() * 5)
        reduced = reduced_laplacian(build_supra(net, w))
        aggregate = sum(symmetrize(layer) for layer in net.layers)
        np.testing.assert_allclose(reduced, laplacian(aggregate), atol=1e-10)
        np.testing.assert_allclose(-reduced + np.diag(np.diag(reduced)), aggregate, atol=1e-10)


def test_reduce_supra_example_independent_of_w():
    net = two_layer_example()
    for w in (0.0, 0.7, 3.0):
        reduced = reduced_laplacian(build_supra(net, w))
        np.testing.assert_allclose(
            reduced, np.array([[1.0, -1.0], [-1.0, 1.0]]), atol=1e-12
        )


def test_reduce_dynamic_closed_form():
    # J^T L J equals the Laplacian of (1/2) sum_{a,b} (C^ab A^b + (C^ba A^a)^T)
    rng = np.random.default_rng(9)
    for _ in range(20):
        net = random_network(rng)
        coupling = random_coupling(rng, net.n, net.k)
        reduced = reduced_laplacian(build_dynamic(net, coupling))
        agg = np.zeros((net.n, net.n))
        for a in range(net.k):
            for b in range(net.k):
                term = coupling.diag[a, b][:, None] * net.layers[b]
                term_t = (coupling.diag[b, a][:, None] * net.layers[a]).T
                agg += 0.5 * (term + term_t)
        np.testing.assert_allclose(reduced, laplacian(agg), atol=1e-10)


def test_reduce_dynamic_identity_coupling_is_k_times_aggregate():
    net = two_layer_example()
    reduced = reduced_laplacian(build_dynamic(net, DynamicCoupling.identity(2, 2)))
    np.testing.assert_allclose(-reduced + np.diag(np.diag(reduced)),
                               np.array([[0.0, 2.0], [2.0, 0.0]]))


def test_reduce_zero_network_is_zero():
    net = MultiplexNetwork(n=3, k=2, layers=(np.zeros((3, 3)), np.zeros((3, 3))))
    for op in (build_supra(net, 1.0), build_dynamic(net, DynamicCoupling.identity(3, 2))):
        reduced = reduced_laplacian(op)
        np.testing.assert_allclose(reduced, np.zeros((3, 3)), atol=1e-12)


def zero_multiplicity(op):
    system = eig_sym(op.laplacian, op.num_copies)
    return system.zero_multiplicity


def test_disjoint_operator_zero_eigenvalue_per_component():
    # two connected layers -> 2 zero eigenvalues
    path = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 1.0], [0.0, 1.0, 0.0]])
    net = MultiplexNetwork(n=3, k=2, layers=(path, path))
    supra = build_supra(net, 0.0)
    dynamic = build_dynamic(net, DynamicCoupling.uniform(np.eye(2), 3))
    assert zero_multiplicity(supra) == zero_multiplicity(dynamic) == 2
    # the two zero-coupling limits are the same operator, bit for bit
    assert supra.adjacency.tobytes() == dynamic.adjacency.tobytes()
    # three empty layers on two nodes -> 6 isolated copies
    empty = MultiplexNetwork(n=2, k=3, layers=(np.zeros((2, 2)),) * 3)
    assert zero_multiplicity(build_supra(empty, 0.0)) == 6


def test_operator_invariants_random():
    rng = np.random.default_rng(10)
    for trial in range(40):
        net = random_network(rng)
        if trial % 2 == 0:
            op = build_supra(net, float(rng.random() * 3))
        else:
            op = build_dynamic(net, random_coupling(rng, net.n, net.k))
        adj, lap = op.adjacency, op.laplacian
        np.testing.assert_allclose(adj, adj.T, atol=1e-12)
        assert np.abs(lap.sum(axis=1)).max() < 1e-10 * max(1.0, np.abs(lap).max())
        offdiag = lap - np.diag(np.diag(lap))
        assert offdiag.max() <= 1e-12
        system = eig_sym(lap, lap.shape[0])
        lam_max = system.eigenvalues[-1]
        assert system.eigenvalues[0] >= -1e-9 * max(1.0, lam_max)
        components = connected_components(adj, atol=1e-12)
        assert system.zero_multiplicity == len(np.unique(components))


def test_supra_scale_equivariance_per_block():
    rng = np.random.default_rng(11)
    net = random_network(rng, n=4, k=2)
    t = 3.5
    scaled = MultiplexNetwork(n=4, k=2, layers=tuple(t * l for l in net.layers))
    op, op_t = build_supra(net, 0.8), build_supra(scaled, 0.8)
    for a in range(2):
        np.testing.assert_allclose(op_t.block(a, a), t * op.block(a, a), atol=1e-12)
    # coupling blocks unchanged
    np.testing.assert_allclose(op_t.block(0, 1), op.block(0, 1), atol=1e-12)


def test_dynamic_scale_equivariance_full():
    rng = np.random.default_rng(12)
    net = random_network(rng, n=4, k=2)
    coupling = random_coupling(rng, 4, 2)
    t = 2.25
    scaled = MultiplexNetwork(n=4, k=2, layers=tuple(t * l for l in net.layers))
    op, op_t = build_dynamic(net, coupling), build_dynamic(scaled, coupling)
    np.testing.assert_allclose(op_t.adjacency, t * op.adjacency, atol=1e-12)
    np.testing.assert_allclose(op_t.laplacian, t * op.laplacian, atol=1e-12)


def test_connected_components_labels():
    adj = np.zeros((5, 5))
    adj[0, 1] = adj[1, 0] = 1.0
    adj[3, 4] = adj[4, 3] = 1.0
    labels = connected_components(adj)
    assert labels[0] == labels[1]
    assert labels[3] == labels[4]
    assert len(np.unique(labels)) == 3


def test_connected_components_first_appearance_order():
    rng = np.random.default_rng(5)
    for _ in range(50):
        m = int(rng.integers(1, 30))
        adj = (rng.random((m, m)) < 0.08) * rng.normal(size=(m, m))
        adj = adj + adj.T
        labels = connected_components(adj)
        # reference: graph search from each unlabeled index in order
        expected = np.full(m, -1)
        count = 0
        for start in range(m):
            if expected[start] >= 0:
                continue
            expected[start] = count
            queue = [start]
            while queue:
                i = queue.pop()
                for j in np.nonzero(adj[i])[0]:
                    if expected[j] < 0:
                        expected[j] = count
                        queue.append(j)
            count += 1
        np.testing.assert_array_equal(labels, expected)


def csgraph_labels(adj, atol):
    """The reference: scipy's undirected components of |A| > atol."""
    return csgraph.connected_components(np.abs(adj) > atol, directed=False)[1]


def test_connected_components_equals_csgraph():
    rng = np.random.default_rng(14)
    for trial in range(600):
        m = int(rng.integers(0, 40))
        atol = (0.0, 1e-12, 0.5)[trial % 3]
        adj = (rng.random((m, m)) < rng.random() * 0.2) * rng.normal(size=(m, m))
        if trial % 2:
            adj = adj + adj.T
        if m:  # entries exactly at +-atol are no edges
            rows, cols = rng.integers(m, size=(2, 3))
            adj[rows, cols] = atol * rng.choice([-1.0, 1.0], size=3)
        labels = connected_components(adj, atol=atol)
        assert labels.dtype == np.int64
        np.testing.assert_array_equal(labels, csgraph_labels(adj, atol))
    for adj in (np.zeros((0, 0)), np.zeros((1, 1)), np.eye(5), np.zeros((6, 6))):
        np.testing.assert_array_equal(connected_components(adj), csgraph_labels(adj, 0.0))
    edge = np.zeros((4, 4))
    edge[3, 1] = 1e-12  # one direction only, at and above atol
    np.testing.assert_array_equal(connected_components(edge, atol=1e-12), [0, 1, 2, 3])
    np.testing.assert_array_equal(connected_components(edge), [0, 1, 2, 1])
    size = 2000
    path = np.zeros((size, size))
    path[np.arange(size - 1), np.arange(1, size)] = -1.0
    np.testing.assert_array_equal(connected_components(path), np.zeros(size, dtype=int))
    path[size // 2, size // 2 + 1] = 0.0
    np.testing.assert_array_equal(connected_components(path), csgraph_labels(path, 0.0))
    with pytest.raises(OperatorError):
        connected_components(np.zeros((2, 3)))
    with pytest.raises(OperatorError):
        connected_components(np.zeros(4))


def test_load_coupling_file(tmp_path):
    path = tmp_path / "c.cpl"
    path.write_text("% comment\n0 1 0.5\n1 0 0.25\n0 1 2 0.9\n")
    coupling = load_coupling(path, n=3, k=2)
    assert np.all(coupling.diag[0, 0] == 1.0)  # unmentioned pairs stay identity
    np.testing.assert_array_equal(coupling.diag[0, 1], [0.5, 0.5, 0.9])
    np.testing.assert_array_equal(coupling.diag[1, 0], [0.25, 0.25, 0.25])


def test_load_coupling_errors(tmp_path):
    for text, fragment in [
        ("0 5 1.0\n", "out of range"),
        ("0 1 -2.0\n", "negative"),
        ("0 1 nan\n", "line 1: non-finite weight"),
        ("0 1 inf\n", "line 1: non-finite weight"),
        ("0 1 2 -inf\n", "line 1: non-finite weight"),
        ("0 1\n", "fields"),
        ("0 1 9 1.0\n", "node 9"),
    ]:
        path = tmp_path / "bad.cpl"
        path.write_text(text)
        with pytest.raises(ParseError, match=fragment):
            load_coupling(path, n=3, k=2)
    path.write_bytes(b"0 1 0.\xff\n")
    with pytest.raises(ParseError, match=r"bad\.cpl: not UTF-8 text \(byte 0xff\)"):
        load_coupling(path, n=3, k=2)


def test_build_dynamic_holds_three_operator_sized_arrays_at_most():
    # the build keeps the layers and allocates nothing operator-sized; the
    # first read of L fills the matrix and the Laplacian: two (three while
    # the operator copied the matrix); the tighter bound is
    # test_build_allocates_each_operator_matrix_once's
    n, k = 100, 4
    net = gen_er_multiplex(n, k, 0.3, RngSeed(1))
    coupling = DynamicCoupling.identity(n, k)
    tracemalloc.start()
    try:
        op = build_dynamic(net, coupling)
        built = tracemalloc.get_traced_memory()[1]
        op.laplacian
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    m = n * k
    assert built < n * n * 8
    assert peak <= 3.2 * m * m * 8


def signed_zero_symmetric(rng, size):
    """Random symmetric matrix with 0.0 and -0.0 entries and a nonzero diagonal."""
    mat = rng.random((size, size)) * 10.0 ** int(rng.integers(-3, 4))
    draw = rng.random((size, size))
    mat[draw < 0.3] = 0.0
    mat[(draw >= 0.3) & (draw < 0.5)] = -0.0
    mat = np.triu(mat) + np.triu(mat, 1).T
    mat[np.diag_indices(size)] = rng.random(size) + 0.5
    mat[0, 0] = -0.0
    return mat


def test_laplacian_is_bitwise_diag_of_row_sums_minus_matrix():
    # assert_array_equal takes -0.0 == 0.0, so compare the bytes
    rng = np.random.default_rng(11)
    for _ in range(200):
        sym = signed_zero_symmetric(rng, int(rng.integers(1, 12)))
        expected = np.diag(sym.sum(1)) - sym
        assert laplacian(sym).tobytes() == expected.tobytes()
    # a strided view: a diagonal layer block of an operator's adjacency
    net = random_network(rng, n=5, k=3)
    for op in (build_supra(net, -0.0), build_dynamic(net, random_coupling(rng, 5, 3))):
        adj = op.adjacency
        for a in range(3):
            block = adj[a * 5:(a + 1) * 5, a * 5:(a + 1) * 5]
            assert not block.flags.c_contiguous
            expected = np.diag(block.sum(1)) - block
            assert laplacian(block).tobytes() == expected.tobytes()


def test_builders_equal_symmetrized_assembly_bitwise():
    # the reference assembles C^{a,b} A^b (or w I) block by block in a
    # second array and symmetrizes the whole of it
    rng = np.random.default_rng(13)
    for case in range(120):
        n, k = int(rng.integers(1, 7)), int(rng.integers(1, 4))
        layers = []
        for _ in range(k):
            mat = signed_zero_symmetric(rng, n)
            mat[:, -1] *= 3.0  # not symmetric
            np.fill_diagonal(mat, 0.0)
            layers.append(mat)
        net = MultiplexNetwork(n=n, k=k, layers=tuple(layers))
        diag = rng.random((k, k, n)) * (case % 4 != 0)  # every fourth coupling is zero
        diag[rng.random((k, k, n)) < 0.3] = -0.0
        w = (0.0, -0.0, 0.5)[case % 3]
        raw_supra, raw_dynamic = np.zeros((n * k, n * k)), np.zeros((n * k, n * k))
        for a in range(k):
            for b in range(k):
                rows, cols = slice(a * n, (a + 1) * n), slice(b * n, (b + 1) * n)
                raw_supra[rows, cols] = layers[a] if a == b else np.eye(n) * w
                raw_dynamic[rows, cols] = diag[a, b][:, None] * layers[b]
        built = (build_supra(net, w), build_dynamic(net, DynamicCoupling(diag)))
        for op, raw in zip(built, (raw_supra, raw_dynamic)):
            sym = symmetrize(raw)
            # read back from L = 0.0 - S, a -0.0 of S reads +0.0
            assert op.adjacency.tobytes() == (sym + 0.0).tobytes()
            assert op.laplacian.tobytes() == (np.diag(sym.sum(1)) - sym).tobytes()


@pytest.mark.parametrize("build", [
    lambda net: build_supra(net, 1.0).laplacian,
    lambda net: build_dynamic(net, DynamicCoupling.identity(net.n, net.k)).laplacian,
], ids=["supra", "dynamic"])
def test_build_allocates_each_operator_matrix_once(build):
    # the adjacency the fill writes and the Laplacian, which reuses its
    # |S| scratch; layer-sized temporaries are 1/k^2 of a matrix each, so
    # at k = 1 the builder may hold no layer-sized array beside the matrix.
    # Either operator fills them at the first read of L
    for n, k in ((100, 4), (400, 1)):
        net = gen_er_multiplex(n, k, 0.3, RngSeed(1))
        tracemalloc.start()
        try:
            build(net)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        m = n * k
        assert peak <= 2.2 * m * m * 8, (n, k, peak / (m * m * 8))


def test_build_supra_allocates_nothing_operator_sized():
    # the layers' total weights bound ||L||_inf, one number each
    net = gen_er_multiplex(100, 4, 0.3, RngSeed(1))
    tracemalloc.start()
    try:
        build_supra(net, 1.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 100 * 100 * 8


def test_supra_operator_leaves_the_callers_array_writable_and_unshared():
    expected = np.array([[0.0, 1.0], [1.0, 0.0]])
    for given in (expected.copy(), np.array([[0, 1], [1, 0]])):
        op = SupraOperator(model="supra", n=1, k=2, adjacency=given, coupling=1.0)
        assert not any(np.shares_memory(given, arr) for arr in vars(op).values()
                       if isinstance(arr, np.ndarray))
        given[0, 1] = given[1, 0] = 5  # writable, and the operator does not see it
        assert op.adjacency.dtype == np.float64
        np.testing.assert_array_equal(op.adjacency, expected)
        np.testing.assert_array_equal(op.laplacian, [[1.0, -1.0], [-1.0, 1.0]])
    # an adjacency that is rejected stays writable too
    asymmetric = np.array([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(OperatorError):
        SupraOperator(model="supra", n=1, k=2, adjacency=asymmetric, coupling=1.0)
    asymmetric[1, 0] = 1.0


def held_arrays(op):
    """The arrays an operator holds, those of its tuple fields included."""
    values = [item for value in vars(op).values()
              for item in (value if isinstance(value, tuple) else (value,))]
    return [arr for arr in values if isinstance(arr, np.ndarray)]


@pytest.mark.parametrize("model", ["supra", "dynamic"])
def test_built_operator_keeps_one_matrix(model):
    # both keep the network's own layers, by reference, and hold no nk x
    # nk array until L is read, then L alone beside them (and a dynamic
    # coupling's table).  The adjacency and its blocks are read back from
    # L, and reading them caches nothing
    net = gen_er_multiplex(20, 3, 0.3, RngSeed(1))
    if model == "supra":
        op = build_supra(net, 1.0)
        assert held_arrays(op) == list(net.layers)
    else:
        op = build_dynamic(net, DynamicCoupling.identity(net.n, net.k))
        assert held_arrays(op) == list(net.layers) and op.coupling.diag.shape == (3, 3, 20)
    assert op.layers is net.layers
    op.adjacency, op.block(0, 1)
    matrices = [arr for arr in held_arrays(op) if arr.shape == op.shape]
    assert [arr.nbytes for arr in matrices] == [op.num_copies ** 2 * 8]
    assert matrices[0] is op.laplacian and not op.laplacian.flags.writeable
    layers = [arr for arr in held_arrays(op) if arr.shape != op.shape]
    assert all(any(arr is layer for layer in net.layers) for arr in layers)


def test_supra_laplacian_is_filled_once_on_first_read(monkeypatch):
    # laplacian, norm and exact are one read: the first of them fills all
    # three, with the fill of a dense build and its one scan
    net = gen_er_multiplex(20, 3, 0.3, RngSeed(1))
    reference = SupraOperator(model="supra", n=20, k=3, coupling=1.0, adjacency=np.block(
        [[symmetrize(net.layers[a]) if a == b else np.eye(20) for b in range(3)] for a in range(3)]))
    scans = []
    real = operators._checked_laplacian
    monkeypatch.setattr(operators, "_checked_laplacian", lambda adj: scans.append(adj.shape) or real(adj))
    for first in ("laplacian", "norm", "exact"):
        op = build_supra(net, 1.0)
        assert scans == []
        getattr(op, first)
        op.laplacian, op.norm, op.exact, op.adjacency
        assert scans == [(60, 60)], first
        del scans[:]
        assert op.laplacian.tobytes() == reference.laplacian.tobytes()
        assert (op.norm, op.exact) == (reference.norm, reference.exact) == (op.norm, True)
    assert op.shape == (60, 60) and op.num_copies == 60


def test_dynamic_laplacian_is_filled_once_on_first_read(monkeypatch):
    # as a supra one's: the first read fills all three, bit for bit the
    # eager build's, which filled the symmetrized C^{a,b} A^b assembly and
    # scanned it once
    rng = np.random.default_rng(26)
    net = random_network(rng, n=20, k=3)
    coupling = random_coupling(rng, 20, 3)
    raw = np.block([[coupling.diag[a, b][:, None] * net.layers[b] for b in range(3)] for a in range(3)])
    reference = SupraOperator(model="dynamic", n=20, k=3, coupling=coupling, adjacency=symmetrize(raw))
    scans = []
    real = operators._checked_laplacian
    monkeypatch.setattr(operators, "_checked_laplacian", lambda adj: scans.append(adj.shape) or real(adj))
    for first in ("laplacian", "norm", "exact"):
        op = build_dynamic(net, coupling)
        assert scans == [] and "laplacian" not in vars(op)
        getattr(op, first)
        op.laplacian, op.norm, op.exact, op.adjacency
        assert scans == [(60, 60)], first
        del scans[:]
        assert op.laplacian.tobytes() == reference.laplacian.tobytes()
        assert not op.laplacian.flags.writeable
        assert np.float64(op.norm).tobytes() == np.float64(reference.norm).tobytes()
        assert op.exact is reference.exact is True


@pytest.mark.parametrize("model", ["supra", "dynamic"])
def test_an_unread_operator_copies_unread_and_locked(model):
    # pickle and deepcopy keep the layers and the coupling, locked, and no
    # L: the copy fills its own on its first read, the original's bits
    rng = np.random.default_rng(27)
    net = random_network(rng, n=5, k=3)
    coupling = random_coupling(rng, 5, 3)
    build = (lambda: build_supra(net, 0.5)) if model == "supra" else (lambda: build_dynamic(net, coupling))
    op = build()
    copies = [pickle.loads(pickle.dumps(op, protocol)) for protocol in range(2, pickle.HIGHEST_PROTOCOL + 1)]
    for other in copies + [copy.deepcopy(op)]:
        assert "laplacian" not in vars(other) and "laplacian" not in vars(op)
        held = held_arrays(other) + ([other.coupling.diag] if model == "dynamic" else [])
        assert len(held) == (3 if model == "supra" else 4)
        assert not any(arr.flags.writeable for arr in held)
        assert other.laplacian.tobytes() == build().laplacian.tobytes()
        assert not other.laplacian.flags.writeable


def test_unpickled_arrays_stay_locked():
    rng = np.random.default_rng(25)
    net = random_network(rng, n=5, k=3)
    coupling = random_coupling(rng, 5, 3)
    # a supra operator pickled before and after its L is first read
    read = build_supra(net, 2.0)
    read.laplacian
    for obj, arrays in ((net, lambda x: x.layers), (coupling, lambda x: (x.diag,)),
                        (build_supra(net, 0.5), lambda x: (x.laplacian, *x.layers)),
                        (read, lambda x: (x.laplacian, *x.layers)),
                        (build_dynamic(net, coupling), lambda x: (x.laplacian, x.coupling.diag))):
        copies = [pickle.loads(pickle.dumps(obj, protocol)) for protocol in range(2, pickle.HIGHEST_PROTOCOL + 1)]
        name = type(obj).__name__
        for other in copies + [copy.deepcopy(obj)]:
            for got, expected in zip(arrays(other), arrays(obj), strict=True):
                assert not got.flags.writeable, name
                assert got.tobytes() == expected.tobytes() and got.shape == expected.shape, name
