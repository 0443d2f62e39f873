import numpy as np
import pytest

from conftest import random_coupling, random_network
from mxspec.core import DynamicCoupling, MultiplexNetwork
from mxspec.cuts import (
    brute_force_min_cut,
    cut_cost,
    decompose,
    decompose_dynamic,
    decompose_supra,
    quadratic_form,
)
from mxspec.errors import CutError
from mxspec.generators import RngSeed, gen_er_multiplex
from mxspec.operators import build_dynamic, build_supra
from mxspec.spectral import Partition, fiedler_bipartition


def directed_once(n, edges, weights=None):
    """Single-layer network listing each undirected edge once; the operator's
    symmetrization halves it, so classic unit-edge cut values come out."""
    mat = np.zeros((n, n))
    for idx, (j, i) in enumerate(edges):
        mat[i, j] = 1.0 if weights is None else weights[idx]
    return MultiplexNetwork(n=n, k=1, layers=(mat,))


def random_bipartition(rng, m):
    labels = rng.integers(0, 2, size=m)
    labels[0] = 0
    if labels.max() == 0:
        labels[-1] = 1
    return Partition(labels=labels, c=2)


def test_three_path_cut_after_second_node():
    net = directed_once(3, [(0, 1), (1, 2)])
    op = build_supra(net, 0.0)
    part = Partition(labels=np.array([0, 0, 1]), c=2)
    assert cut_cost(op, part) == pytest.approx(1.0, abs=1e-12)
    assert quadratic_form(op, part) == pytest.approx(1.0, abs=1e-12)


def test_empty_boundary_costs_zero():
    rng = np.random.default_rng(0)
    net = random_network(rng, n=4, k=2)
    op = build_supra(net, 1.0)
    part = Partition(labels=np.zeros(8, dtype=int), c=2)
    assert cut_cost(op, part) == 0.0


def test_cut_cost_wrong_length():
    net = directed_once(3, [(0, 1)])
    op = build_supra(net, 0.0)
    with pytest.raises(CutError):
        cut_cost(op, Partition(labels=np.array([0, 1]), c=2))


def test_cut_equals_half_quadratic_form_random():
    # the module's defining identity, both models, 100 trials
    rng = np.random.default_rng(1)
    for trial in range(100):
        net = random_network(rng, n=int(rng.integers(2, 7)), k=3)
        if trial % 2 == 0:
            op = build_supra(net, float(rng.random() * 2))
        else:
            op = build_dynamic(net, random_coupling(rng, net.n, net.k))
        part = random_bipartition(rng, op.num_copies)
        assert cut_cost(op, part) == pytest.approx(quadratic_form(op, part), abs=1e-10)


def test_cut_cost_kway_inter_cluster_sum():
    net = directed_once(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    op = build_supra(net, 0.0)
    part = Partition(labels=np.array([0, 1, 2, 3]), c=4)
    # every edge crosses: 4 edges, each contributing 1 (both matrix entries)
    assert cut_cost(op, part) == pytest.approx(4.0, abs=1e-12)


def test_decompose_supra_all_ones_indicator():
    rng = np.random.default_rng(2)
    net = random_network(rng, n=4, k=3)
    w = 0.75
    part = Partition(labels=np.zeros(12, dtype=int), c=2)
    report = decompose_supra(net, w, part)
    for a in range(3):
        assert report.term(f"intra_layer_{a}") == pytest.approx(0.0, abs=1e-12)
    assert report.term("coupling_constant") == pytest.approx(9 * 4 * w)
    assert report.term("coupling_alignment") == pytest.approx(-9 * 4 * w)
    assert report.terms_sum == pytest.approx(0.0, abs=1e-10)
    assert report.total == pytest.approx(0.0, abs=1e-12)


def test_decompose_supra_w0_disjoint_limit():
    rng = np.random.default_rng(3)
    net = random_network(rng, n=5, k=2)
    part = random_bipartition(rng, 10)
    report = decompose_supra(net, 0.0, part)
    assert report.term("coupling_constant") == 0.0
    assert report.term("coupling_alignment") == 0.0
    intra = sum(report.term(f"intra_layer_{a}") for a in range(2))
    assert report.terms_sum == pytest.approx(intra)


def test_decompose_supra_layer_split_on_empty_layers():
    # empty layers, k = 2, indicator +1 on layer 1 and -1 on layer 2:
    # terms (0, 4nw, 0) and the direct cut is 2nw = half of s^T L s
    n, w = 5, 0.6
    net = MultiplexNetwork(n=n, k=2, layers=(np.zeros((n, n)), np.zeros((n, n))))
    part = Partition(labels=np.repeat([0, 1], n), c=2)
    report = decompose_supra(net, w, part)
    assert report.term("coupling_constant") == pytest.approx(4 * n * w)
    assert report.term("coupling_alignment") == pytest.approx(0.0, abs=1e-12)
    assert report.terms_sum == pytest.approx(4 * n * w)
    assert report.total == pytest.approx(2 * n * w)
    op = build_supra(net, w)
    assert cut_cost(op, part) == pytest.approx(2 * n * w)


def test_decompose_supra_identity_random():
    rng = np.random.default_rng(4)
    for _ in range(100):
        net = random_network(rng)
        w = float(rng.random() * 3)
        part = random_bipartition(rng, net.num_copies)
        report = decompose_supra(net, w, part)
        quad = quadratic_form(build_supra(net, w), part)
        assert report.terms_sum == pytest.approx(2 * quad, abs=1e-10)
        assert report.total == pytest.approx(report.quadratic_form, abs=1e-10)


def test_decompose_dynamic_all_ones_indicator():
    rng = np.random.default_rng(5)
    net = random_network(rng, n=4, k=2)
    coupling = random_coupling(rng, 4, 2)
    part = Partition(labels=np.zeros(8, dtype=int), c=2)
    report = decompose_dynamic(net, coupling, part)
    for name, value in report.terms:
        assert value == pytest.approx(0.0, abs=1e-10), name
    assert report.total == pytest.approx(0.0, abs=1e-12)


def test_decompose_dynamic_disjoint_coupling_no_inter_terms():
    rng = np.random.default_rng(6)
    net = random_network(rng, n=4, k=3)
    part = random_bipartition(rng, 12)
    report = decompose_dynamic(net, DynamicCoupling.uniform(np.eye(3), 4), part)
    for a in range(3):
        for b in range(3):
            if a != b:
                assert report.term(f"inter_{a}_{b}") == pytest.approx(0.0, abs=1e-12)


def test_decompose_dynamic_identity_random():
    rng = np.random.default_rng(7)
    for _ in range(100):
        net = random_network(rng, n=int(rng.integers(2, 6)), k=2)
        coupling = random_coupling(rng, net.n, 2)
        part = random_bipartition(rng, net.num_copies)
        report = decompose_dynamic(net, coupling, part)
        quad = quadratic_form(build_dynamic(net, coupling), part)
        assert report.terms_sum == pytest.approx(2 * quad, abs=1e-10)
        assert report.total == pytest.approx(report.quadratic_form, abs=1e-10)


@pytest.mark.parametrize("model", ["supra", "dynamic"])
def test_decompose_reads_the_built_operator(model):
    rng = np.random.default_rng(11)
    net = random_network(rng, n=5, k=3)
    part = random_bipartition(rng, net.num_copies)
    if model == "supra":
        op, report = build_supra(net, 0.7), decompose_supra(net, 0.7, part)
    else:
        coupling = random_coupling(rng, 5, 3)
        op, report = build_dynamic(net, coupling), decompose_dynamic(net, coupling, part)
    # the wrappers build the operator and decompose it: the same floats
    assert decompose(op, part) == report
    assert report.terms_sum == pytest.approx(2 * quadratic_form(op, part), abs=1e-9)


@pytest.mark.parametrize("model", ["supra", "dynamic"])
def test_decompose_rejects_more_than_two_clusters(model):
    net = random_network(np.random.default_rng(12), n=3, k=2)
    op = build_supra(net, 1.0) if model == "supra" else build_dynamic(
        net, DynamicCoupling.identity(3, 2))
    part = Partition(labels=np.array([0, 1, 2, 0, 1, 2]), c=3)
    with pytest.raises(CutError, match="defined for 2 clusters, got c = 3"):
        decompose(op, part)


def test_brute_force_two_triangles_bridge():
    net = directed_once(
        6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 3)]
    )
    op = build_supra(net, 0.0)
    part, cost = brute_force_min_cut(op)
    assert cost == pytest.approx(1.0, abs=1e-12)
    np.testing.assert_array_equal(part.labels, [0, 0, 0, 1, 1, 1])


def test_brute_force_four_cycle():
    net = directed_once(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    op = build_supra(net, 0.0)
    part, cost = brute_force_min_cut(op)
    # 7 non-trivial bipartitions; minimum cost 2 cuts two cycle edges, and
    # the lexicographic tie-break picks the {3} singleton
    assert cost == pytest.approx(2.0, abs=1e-12)
    np.testing.assert_array_equal(part.labels, [0, 0, 0, 1])


def test_brute_force_beats_random_indicators():
    rng = np.random.default_rng(8)
    net = random_network(rng, n=4, k=2)
    op = build_dynamic(net, random_coupling(rng, 4, 2))
    _, best = brute_force_min_cut(op)
    for _ in range(1000):
        part = random_bipartition(rng, 8)
        assert best <= cut_cost(op, part) + 1e-12


def test_brute_force_spectral_never_beats_oracle():
    rng = np.random.default_rng(9)
    for trial in range(100):
        n = int(rng.integers(2, 8))
        k = int(rng.integers(1, 3))
        if n * k > 14 or n * k < 2:
            continue
        net = random_network(rng, n=n, k=k)
        if trial % 2 == 0:
            op = build_supra(net, float(rng.random()))
        else:
            op = build_dynamic(net, random_coupling(rng, n, k))
        _, best = brute_force_min_cut(op)
        assert best >= -1e-12
        spectral_part, _, _ = fiedler_bipartition(op.laplacian)
        if spectral_part.used_clusters == 2:
            assert best <= cut_cost(op, spectral_part) + 1e-10


def test_brute_force_size_limits():
    rng = np.random.default_rng(10)
    big = random_network(rng, n=11, k=2)
    with pytest.raises(CutError):
        brute_force_min_cut(build_supra(big, 1.0))
    tiny = MultiplexNetwork(n=1, k=1, layers=(np.zeros((1, 1)),))
    with pytest.raises(CutError):
        brute_force_min_cut(build_supra(tiny, 1.0))


def test_supra_cost_monotone_in_w_for_separating_partitions():
    rng = np.random.default_rng(11)
    net = random_network(rng, n=4, k=2)
    parts = [random_bipartition(rng, 8) for _ in range(20)]
    w_grid = [0.0, 0.5, 1.0, 2.0, 4.0]
    for part in parts:
        labels = part.labels.reshape(2, 4)
        separates = np.any(labels[0] != labels[1])
        costs = [cut_cost(build_supra(net, w), part) for w in w_grid]
        diffs = np.diff(costs)
        if separates:
            assert np.all(diffs >= -1e-12)
            assert costs[-1] > costs[0]
        else:
            assert np.all(np.abs(diffs) < 1e-12)


def test_disjoint_operator_zero_cost_layer_split():
    rng = np.random.default_rng(12)
    net = random_network(rng, n=3, k=2)
    part = Partition(labels=np.repeat([0, 1], 3), c=2)
    for op in (build_supra(net, 0.0), build_dynamic(net, DynamicCoupling.uniform(np.eye(2), 3))):
        assert cut_cost(op, part) == pytest.approx(0.0)


def test_empty_layers_supra_min_cut_keeps_copies_together():
    # with no layer edges the only costs are the copy cliques: the optimum is
    # 0 and never separates copies of one node
    n, k = 4, 2
    net = MultiplexNetwork(n=n, k=k, layers=(np.zeros((n, n)),) * k)
    op = build_supra(net, 1.5)
    part, cost = brute_force_min_cut(op)
    assert cost == pytest.approx(0.0, abs=1e-12)
    labels = part.labels.reshape(k, n)
    assert np.all(labels[0] == labels[1])
    assert part.used_clusters == 2


def chunked_reference_min_cut(op):
    """The chunked enumerator the oracle replaced: 16 384 indicator rows at
    a time through one einsum, cost (T - s'As) / 2, with the oracle's tie
    rule (first index within m^2 eps sum|A| of the least cost) on its costs."""
    m = op.num_copies
    adj = op.adjacency
    total_weight = float(adj.sum())
    shifts = np.arange(m - 2, -1, -1, dtype=np.uint32)
    costs = []
    for start in range(1, 1 << (m - 1), 1 << 14):
        idx = np.arange(start, min(start + (1 << 14), 1 << (m - 1)), dtype=np.uint32)
        signs = np.empty((len(idx), m))
        signs[:, 0] = 1.0
        signs[:, 1:] = 1.0 - 2.0 * ((idx[:, None] >> shifts[None, :]) & 1)
        costs.append(0.5 * (total_weight - np.einsum(
            "ij,jk,ik->i", signs, adj, signs, optimize=True)))
    costs = np.concatenate(costs)
    pos = int(np.argmax(costs <= costs.min() + tie_window(op)))
    labels = ((pos + 1) >> np.arange(m - 1, -1, -1)) & 1
    return labels, float(costs[pos])


def tie_window(op):
    m = op.num_copies
    return m * m * np.finfo(float).eps * float(np.abs(op.adjacency).sum())


def oracle_cases():
    """Seeded operators of 2 to 20 copies, both models, float weights and
    integer weights (where every sum is exact), 18 per size up to m = 18
    and 2 at m = 19 and 20."""
    rng = np.random.default_rng(20240610)
    for m in range(2, 21):
        shapes = [(m // k, k) for k in (1, 2, 3) if m % k == 0]
        for case in range(18 if m <= 18 else 2):
            n, k = shapes[case % len(shapes)]
            model = ("supra", "dynamic")[case % 2]
            integer = case % 4 >= 2
            if integer:
                net = gen_er_multiplex(n, k, float(rng.uniform(0.2, 0.7)),
                                       RngSeed(int(rng.integers(1 << 30))))
            else:
                net = random_network(rng, n=n, k=k)
            if model == "supra":
                w = float(rng.integers(0, 3)) if integer else float(rng.uniform(0.0, 2.0))
                op = build_supra(net, w)
            elif integer:
                op = build_dynamic(net, DynamicCoupling(
                    rng.integers(0, 3, size=(k, k, n)).astype(float)))
            else:
                op = build_dynamic(net, random_coupling(rng, n, k))
            yield integer, op


def test_brute_force_matches_chunked_reference():
    seen = 0
    for integer, op in oracle_cases():
        part, cost = brute_force_min_cut(op)
        ref_labels, ref_cost = chunked_reference_min_cut(op)
        np.testing.assert_array_equal(part.labels, ref_labels)
        assert cost == cut_cost(op, part)
        assert abs(cost - ref_cost) <= tie_window(op)
        if integer:
            assert cost == ref_cost
        seen += 1
    assert seen >= 300


def test_brute_force_tie_goes_to_smallest_label_vector():
    # two singleton cuts of equal degree both cost 6.6; a rounding-ordered
    # argmin picked 00000000000100000000
    net = gen_er_multiplex(10, 2, 0.45, RngSeed(5))
    op = build_supra(net, 1.3)
    part, cost = brute_force_min_cut(op)
    assert "".join(map(str, part.labels.tolist())) == "00000000000000000010"
    assert cost == cut_cost(op, part)
    assert cost == pytest.approx(6.6, abs=1e-12)


@pytest.mark.parametrize("m", range(3, 21))
def test_brute_force_exact_tie_across_the_seam(m):
    # copies h-1 (last of the high half) and h (first of the low half) have
    # identical light edges to every heavy copy, so the singleton cuts {h-1}
    # and {h} tie exactly in real arithmetic; {h} is the smaller label vector
    h = 1 + (m - 1) // 2
    rng = np.random.default_rng(m)
    mat = rng.uniform(1.0, 2.0, size=(m, m))
    mat = mat + mat.T
    light = rng.uniform(0.05, 0.1, size=m)
    mat[h - 1, :] = mat[h, :] = light
    mat[:, h - 1] = mat[:, h] = light
    mat[h - 1, h] = mat[h, h - 1] = 0.01
    np.fill_diagonal(mat, 0.0)
    op = build_supra(MultiplexNetwork(n=m, k=1, layers=(mat,)), 0.0)
    part, cost = brute_force_min_cut(op)
    expected = np.zeros(m, dtype=int)
    expected[h] = 1
    np.testing.assert_array_equal(part.labels, expected)
    assert cost == cut_cost(op, part)
