import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from mxspec.core import DynamicCoupling, MultiplexNetwork
from mxspec.errors import OperatorError, ParseError
from mxspec.generators import RngSeed, gen_er_multiplex
from mxspec.operators import (
    SupraOperator,
    build_dynamic,
    build_supra,
    connected_components,
    disjoint_operator,
    laplacian,
    load_coupling,
    reduce_indivisible,
    symmetrize,
)
from mxspec.spectral import eig_sym

from conftest import random_coupling, random_network


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
    # stand-ins with only the sizes: the nk x nk allocation fails before any
    # layer is read (10^14 doubles exceed the address space, 10^20 an index)
    net = SimpleNamespace(n=n, k=k, layers=())
    shape = f"{n * k} x {n * k}"
    with pytest.raises(OperatorError, match=f"supra operator: cannot allocate a {shape}"):
        build_supra(net, 1.0)
    with pytest.raises(OperatorError, match=f"dynamic operator: cannot allocate a {shape}"):
        build_dynamic(net, SimpleNamespace(n=n, k=k))


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
    op = build_dynamic(net, DynamicCoupling.disjoint(4, 3))
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
        reduced = reduce_indivisible(build_supra(net, w))
        aggregate = sum(symmetrize(layer) for layer in net.layers)
        np.testing.assert_allclose(reduced, laplacian(aggregate), atol=1e-10)
        np.testing.assert_allclose(-reduced + np.diag(np.diag(reduced)), aggregate, atol=1e-10)


def test_reduce_supra_example_independent_of_w():
    net = two_layer_example()
    for w in (0.0, 0.7, 3.0):
        reduced = reduce_indivisible(build_supra(net, w))
        np.testing.assert_allclose(
            reduced, np.array([[1.0, -1.0], [-1.0, 1.0]]), atol=1e-12
        )


def test_reduce_dynamic_closed_form():
    # J^T L J equals the Laplacian of (1/2) sum_{a,b} (C^ab A^b + (C^ba A^a)^T)
    rng = np.random.default_rng(9)
    for _ in range(20):
        net = random_network(rng)
        coupling = random_coupling(rng, net.n, net.k)
        reduced = reduce_indivisible(build_dynamic(net, coupling))
        agg = np.zeros((net.n, net.n))
        for a in range(net.k):
            for b in range(net.k):
                term = coupling.diag[a, b][:, None] * net.layers[b]
                term_t = (coupling.diag[b, a][:, None] * net.layers[a]).T
                agg += 0.5 * (term + term_t)
        np.testing.assert_allclose(reduced, laplacian(agg), atol=1e-10)


def test_reduce_dynamic_identity_coupling_is_k_times_aggregate():
    net = two_layer_example()
    reduced = reduce_indivisible(build_dynamic(net, DynamicCoupling.identity(2, 2)))
    np.testing.assert_allclose(-reduced + np.diag(np.diag(reduced)),
                               np.array([[0.0, 2.0], [2.0, 0.0]]))


def test_reduce_zero_network_is_zero():
    net = MultiplexNetwork(n=3, k=2, layers=(np.zeros((3, 3)), np.zeros((3, 3))))
    for op in (build_supra(net, 1.0), build_dynamic(net, DynamicCoupling.identity(3, 2))):
        reduced = reduce_indivisible(op)
        np.testing.assert_allclose(reduced, np.zeros((3, 3)), atol=1e-12)


def zero_multiplicity(op):
    system = eig_sym(op.laplacian)
    return system.zero_multiplicity


def test_disjoint_operator_zero_eigenvalue_per_component():
    # two connected layers -> 2 zero eigenvalues
    path = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 1.0], [0.0, 1.0, 0.0]])
    net = MultiplexNetwork(n=3, k=2, layers=(path, path))
    for model in ("supra", "dynamic"):
        assert zero_multiplicity(disjoint_operator(net, model)) == 2
    # three empty layers on two nodes -> 6 isolated copies
    empty = MultiplexNetwork(n=2, k=3, layers=(np.zeros((2, 2)),) * 3)
    assert zero_multiplicity(disjoint_operator(empty, "supra")) == 6
    np.testing.assert_array_equal(
        disjoint_operator(empty, "supra").adjacency, build_supra(empty, 0.0).adjacency
    )


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
        system = eig_sym(lap)
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
    # the builder's matrix, which the operator keeps, and the Laplacian:
    # two (three while the operator copied the matrix); the tighter bound
    # is test_build_allocates_each_operator_matrix_once's
    n, k = 100, 4
    net = gen_er_multiplex(n, k, 0.3, RngSeed(1))
    coupling = DynamicCoupling.identity(n, k)
    tracemalloc.start()
    try:
        build_dynamic(net, coupling)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    m = n * k
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
    # a strided view, as `decompose` passes op.block(a, a)
    net = random_network(rng, n=5, k=3)
    for op in (build_supra(net, -0.0), build_dynamic(net, random_coupling(rng, 5, 3))):
        for a in range(3):
            block = op.block(a, a)
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
            assert op.adjacency.tobytes() == sym.tobytes()
            assert op.laplacian.tobytes() == (np.diag(sym.sum(1)) - sym).tobytes()


@pytest.mark.parametrize("build", [
    lambda net: build_supra(net, 1.0),
    lambda net: build_dynamic(net, DynamicCoupling.identity(net.n, net.k)),
], ids=["supra", "dynamic"])
def test_build_allocates_each_operator_matrix_once(build):
    # the adjacency the builder fills and the Laplacian, which reuses its
    # |S| scratch; layer-sized temporaries are 1/k^2 of a matrix each
    n, k = 100, 4
    net = gen_er_multiplex(n, k, 0.3, RngSeed(1))
    tracemalloc.start()
    try:
        build(net)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    m = n * k
    assert peak <= 2.2 * m * m * 8


def test_supra_operator_keeps_a_float_adjacency_and_locks_it():
    adj = np.array([[0.0, 1.0], [1.0, 0.0]])
    op = SupraOperator(model="supra", n=1, k=2, adjacency=adj, coupling=1.0)
    assert np.shares_memory(op.adjacency, adj)
    with pytest.raises(ValueError):
        adj[0, 1] = 2.0
    integer = np.array([[0, 1], [1, 0]])
    op = SupraOperator(model="supra", n=1, k=2, adjacency=integer, coupling=1.0)
    assert op.adjacency.dtype == np.float64 and not np.shares_memory(op.adjacency, integer)
    np.testing.assert_array_equal(op.adjacency, adj)
    integer[0, 1] = 5  # the caller's array of another dtype stays writable
    # an adjacency that is rejected is not locked
    asymmetric = np.array([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(OperatorError):
        SupraOperator(model="supra", n=1, k=2, adjacency=asymmetric, coupling=1.0)
    asymmetric[1, 0] = 1.0
