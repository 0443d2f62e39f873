import numpy as np
import pytest

from mxspec.errors import GeneratorError
from mxspec.generators import (
    RngSeed,
    SbmSpec,
    derive_key,
    gen_er_layer,
    gen_er_multiplex,
    gen_fixed_sbm_multiplex,
    gen_overlap_multiplex,
    gen_sbm_layer,
)


def seeds(base, tag, count):
    return [RngSeed(base, (tag, i)) for i in range(count)]


def test_er_p0_is_zero_matrix():
    np.testing.assert_array_equal(gen_er_layer(5, 0.0, RngSeed(1)), np.zeros((5, 5)))


def test_er_p1_is_complete_graph():
    mat = gen_er_layer(6, 1.0, RngSeed(1))
    expected = np.ones((6, 6)) - np.eye(6)
    np.testing.assert_array_equal(mat, expected)


def test_er_invalid_p():
    with pytest.raises(GeneratorError):
        gen_er_layer(5, 1.5, RngSeed(1))


def test_er_layers_symmetric_zero_diag():
    for seed in seeds(3, "sym", 10):
        mat = gen_er_layer(30, 0.4, seed)
        np.testing.assert_array_equal(mat, mat.T)
        assert np.all(np.diag(mat) == 0)
        assert set(np.unique(mat)) <= {0.0, 1.0}


def test_er_edge_count_binomial_concentration():
    # mean edge count over 100 seeds within 4 sigma / sqrt(100) of expectation
    n, p, trials = 100, 0.3, 100
    pairs = n * (n - 1) / 2
    counts = [
        np.triu(gen_er_layer(n, p, seed), 1).sum() for seed in seeds(7, "conc", trials)
    ]
    expected = p * pairs
    sigma_mean = np.sqrt(pairs * p * (1 - p) / trials)
    assert abs(np.mean(counts) - expected) < 4 * sigma_mean


def test_er_determinism():
    a = gen_er_multiplex(20, 3, 0.3, RngSeed(99, ("net",)))
    b = gen_er_multiplex(20, 3, 0.3, RngSeed(99, ("net",)))
    for la, lb in zip(a.layers, b.layers):
        np.testing.assert_array_equal(la, lb)
    c = gen_er_multiplex(20, 3, 0.3, RngSeed(100, ("net",)))
    assert any(not np.array_equal(la, lc) for la, lc in zip(a.layers, c.layers))


def test_er_multiplex_layer_independence():
    # pooled correlation of edge indicators between layers 0 and 1 across seeds
    xs, ys = [], []
    for seed in seeds(11, "indep", 100):
        net = gen_er_multiplex(20, 2, 0.3, seed)
        iu = np.triu_indices(20, 1)
        xs.append(net.layers[0][iu])
        ys.append(net.layers[1][iu])
    corr = np.corrcoef(np.concatenate(xs), np.concatenate(ys))[0, 1]
    assert abs(corr) < 0.02


def test_er_multiplex_k1_matches_single_layer():
    net = gen_er_multiplex(15, 1, 0.4, RngSeed(5, ("one",)))
    layer = gen_er_layer(15, 0.4, RngSeed(5, ("one", "layer", 0)))
    np.testing.assert_array_equal(net.layers[0], layer)


def test_sbm_disjoint_cliques():
    blocks = np.repeat([0, 1], 50)
    spec = SbmSpec(blocks, np.array([[1.0, 0.0], [0.0, 1.0]]))
    mat = gen_sbm_layer(spec, RngSeed(2))
    for i in range(100):
        for j in range(i + 1, 100):
            assert mat[i, j] == (1.0 if blocks[i] == blocks[j] else 0.0)


def test_sbm_complete():
    spec = SbmSpec(np.repeat([0, 1], 50), np.ones((2, 2)))
    mat = gen_sbm_layer(spec, RngSeed(2))
    np.testing.assert_array_equal(mat, np.ones((100, 100)) - np.eye(100))


def test_sbm_block_densities():
    blocks = np.repeat([0, 1], 50)
    spec = SbmSpec(blocks, np.array([[0.9, 0.1], [0.1, 0.9]]))
    within, across = [], []
    for seed in seeds(13, "sbm", 100):
        mat = gen_sbm_layer(spec, seed)
        within.append(np.triu(mat[:50, :50], 1).sum())
        across.append(mat[:50, 50:].sum())
    pairs_within, pairs_across = 50 * 49 / 2, 2500
    for counts, pairs, p in ((within, pairs_within, 0.9), (across, pairs_across, 0.1)):
        sigma_mean = np.sqrt(pairs * p * (1 - p) / 100)
        assert abs(np.mean(counts) - p * pairs) < 4 * sigma_mean


def test_sbm_spec_validation():
    with pytest.raises(GeneratorError):
        SbmSpec(np.array([0, 2]), np.array([[0.5, 0.5], [0.5, 0.5]]))
    with pytest.raises(GeneratorError):
        SbmSpec(np.array([0, 1]), np.array([[0.5, 1.5], [0.5, 0.5]]))
    with pytest.raises(GeneratorError):
        SbmSpec(np.array([0, 1]), np.array([[0.5, np.nan], [np.nan, 0.5]]))


@pytest.mark.parametrize("n, k", [(-4, 2), (0, 2), (4, 0), (4, -3)])
def test_generators_reject_bad_sizes_before_any_draw(monkeypatch, n, k):
    monkeypatch.setattr(RngSeed, "generator", lambda self: pytest.fail("drew"))
    with pytest.raises(GeneratorError):
        gen_er_multiplex(n, k, 0.5, RngSeed(1))
    with pytest.raises(GeneratorError):
        gen_fixed_sbm_multiplex(n, k, 0.5, RngSeed(1))
    if k > 0:
        with pytest.raises(GeneratorError):
            gen_er_layer(n, 0.5, RngSeed(1))
        with pytest.raises(GeneratorError):
            gen_overlap_multiplex(2 * n, 0.9, 0.1, RngSeed(1))


def test_fixed_sbm_planted_balance_and_structure():
    net, planted = gen_fixed_sbm_multiplex(100, 3, 0.0, RngSeed(17, ("f",)))
    assert planted.c == 2 and len(planted) == 300
    assert np.sum(planted.labels == 0) == 150
    # inter_p = 0: each layer is two 50-cliques
    clique = np.ones((50, 50)) - np.eye(50)
    for layer in net.layers:
        np.testing.assert_array_equal(layer[:50, :50], clique)
        np.testing.assert_array_equal(layer[50:, 50:], clique)
        np.testing.assert_array_equal(layer[:50, 50:], np.zeros((50, 50)))


def test_fixed_sbm_layers_resampled_independently():
    net, _ = gen_fixed_sbm_multiplex(100, 2, 0.5, RngSeed(17, ("g",)))
    assert not np.array_equal(net.layers[0], net.layers[1])


def test_fixed_sbm_rejects_odd_n():
    with pytest.raises(GeneratorError):
        gen_fixed_sbm_multiplex(99, 2, 0.1, RngSeed(1))


def test_overlap_block_boundaries_at_n100():
    net, planted1, planted2 = gen_overlap_multiplex(100, 1.0, 0.0, RngSeed(23, ("o",)))
    labels1 = planted1.labels[:100]
    labels2 = planted2.labels[:100]
    # layer 1 switches at node 50; layer 2 communities are nodes 25..74 vs rest
    assert np.all(labels1[:50] == labels1[0]) and np.all(labels1[50:] != labels1[0])
    assert np.all(labels2[25:75] == labels2[25])
    assert np.all(labels2[:25] != labels2[25]) and np.all(labels2[75:] != labels2[25])
    # copies inherit their node's block on both layers
    np.testing.assert_array_equal(planted1.labels[100:], labels1)
    np.testing.assert_array_equal(planted2.labels[100:], labels2)


def test_overlap_intra1_inter0_gives_two_cliques_per_layer():
    net, planted1, planted2 = gen_overlap_multiplex(100, 1.0, 0.0, RngSeed(23, ("p",)))
    for layer, labels in ((net.layers[0], planted1.labels[:100]),
                          (net.layers[1], planted2.labels[:100])):
        same = labels[:, None] == labels[None, :]
        expected = same.astype(float) - np.eye(100)
        np.testing.assert_array_equal(layer, expected)


def test_overlap_planted_partitions_overlap_by_half():
    _, planted1, planted2 = gen_overlap_multiplex(100, 0.9, 0.1, RngSeed(23, ("q",)))
    confusion = np.zeros((2, 2), dtype=int)
    np.add.at(confusion, (planted1.labels, planted2.labels), 1)
    # every pairing of planted clusters shares exactly n/2 copies (= 50 of 200)
    np.testing.assert_array_equal(confusion, np.full((2, 2), 50))


def test_overlap_rejects_bad_n():
    with pytest.raises(GeneratorError):
        gen_overlap_multiplex(50, 0.9, 0.1, RngSeed(1))


def test_derive_key_distinct_streams():
    keys = {
        derive_key(1, ("a",)),
        derive_key(1, ("b",)),
        derive_key(2, ("a",)),
        derive_key(1, ("a", 0)),
        derive_key(1, ("a", 0.0)),
    }
    assert len(keys) == 5
