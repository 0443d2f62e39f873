import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

import mxspec

from mxspec import operators, spectral
from mxspec.core import DynamicCoupling
from mxspec.errors import SpectralError
from mxspec.generators import RngSeed, gen_fixed_sbm_multiplex
from mxspec.operators import (
    build_dynamic,
    build_supra,
    connected_components,
    laplacian,
)
from mxspec.spectral import (
    LANCZOS_MIN,
    RESTARTS,
    EigenSystem,
    Partition,
    _kmeans_pp_init,
    _lloyd,
    _restart_rng,
    eig_sym,
    fiedler_bipartition,
    match_partitions,
    spectral_kway,
)


def block_clique_laplacian(sizes, bridges=()):
    """Laplacian of disjoint cliques plus optional unit bridge edges."""
    m = sum(sizes)
    adj = np.zeros((m, m))
    start = 0
    for size in sizes:
        adj[start : start + size, start : start + size] = 1.0
        start += size
    np.fill_diagonal(adj, 0.0)
    for i, j in bridges:
        adj[i, j] = adj[j, i] = 1.0
    return laplacian(adj), adj


def test_eig_sym_complete_graph_k3():
    lap, _ = block_clique_laplacian([3])
    system = eig_sym(lap)
    np.testing.assert_allclose(system.eigenvalues, [0.0, 3.0, 3.0], atol=1e-12)


def test_eig_sym_zero_matrix():
    system = eig_sym(np.zeros((4, 4)))
    np.testing.assert_array_equal(system.eigenvalues, np.zeros(4))
    np.testing.assert_array_equal(np.abs(system.eigenvectors), np.eye(4))


def test_eig_sym_reconstruction():
    rng = np.random.default_rng(0)
    mat = rng.standard_normal((30, 30))
    sym = 0.5 * (mat + mat.T)
    system = eig_sym(sym)
    recon = system.eigenvectors @ np.diag(system.eigenvalues) @ system.eigenvectors.T
    assert np.abs(recon - sym).max() < 1e-8
    # residual bound per pair
    scale = np.abs(system.eigenvalues).max()
    for idx in range(30):
        residual = sym @ system.eigenvectors[:, idx] - system.eigenvalues[idx] * system.eigenvectors[:, idx]
        assert np.linalg.norm(residual) <= 1e-8 * max(1.0, scale)
    # orthonormal columns
    gram = system.eigenvectors.T @ system.eigenvectors
    assert np.abs(gram - np.eye(30)).max() < 1e-8


def test_eig_sym_ascending_and_sign_normalized():
    rng = np.random.default_rng(1)
    mat = rng.standard_normal((12, 12))
    system = eig_sym(0.5 * (mat + mat.T))
    assert np.all(np.diff(system.eigenvalues) >= -1e-12)
    for col in range(12):
        v = system.eigenvectors[:, col]
        first = v[np.abs(v) > 1e-12][0]
        assert first > 0


def _eig_sym_reference(mat):
    """The decomposition eig_sym must reproduce bit for bit: always
    symmetrize, then fix signs one column at a time."""
    values, vectors = np.linalg.eigh(0.5 * (mat + mat.T))
    for col in range(vectors.shape[1]):
        v = vectors[:, col]
        nonzero = np.nonzero(np.abs(v) > 1e-12)[0]
        if nonzero.size and v[nonzero[0]] < 0:
            vectors[:, col] = -v
    return values, vectors


def _bitwise_cases():
    rng = np.random.default_rng(11)
    for m in (1, 2, 7, 60, 150):
        mat = rng.standard_normal((m, m))
        yield f"random-{m}", 0.5 * (mat + mat.T)
    lap, _ = block_clique_laplacian([4, 3, 6, 5], bridges=[(0, 4)])
    yield "block-cliques", lap
    weights = np.triu(rng.random((40, 40)) * (rng.random((40, 40)) < 0.3), 1)
    weights[:20, 20:] = 0.0  # two diagonal blocks
    yield "block-weighted", laplacian(weights + weights.T)
    yield "zero", np.zeros((5, 5))
    mat = rng.standard_normal((30, 30))
    near = 0.5 * (mat + mat.T)
    near[3, 17] += 5e-11  # inside the 1e-10 tolerance, so eig_sym symmetrizes
    yield "near-symmetric", near


def test_eig_sym_bitwise_equals_reference():
    leading_zero_columns = 0
    for name, mat in _bitwise_cases():
        values, vectors = _eig_sym_reference(mat)
        system = eig_sym(mat)
        assert np.array_equal(system.eigenvalues, values), name
        assert np.array_equal(system.eigenvectors, vectors), name
        if name.startswith("block"):
            leading_zero_columns += int(np.sum(np.abs(vectors[0]) <= 1e-12))
    # the block cases exercise columns whose first nonzero entry is not in row 0
    assert leading_zero_columns > 0


def test_eig_sym_rejects_asymmetric():
    with pytest.raises(SpectralError):
        eig_sym(np.array([[0.0, 1.0], [0.0, 0.0]]))


def _subset_cases():
    rng = np.random.default_rng(12)
    for m in (9, 40, 120):
        mat = rng.standard_normal((m, m))
        yield f"random-{m}", 0.5 * (mat + mat.T)
    weights = np.triu(rng.random((60, 60)) * (rng.random((60, 60)) < 0.2), 1)
    yield "weighted-laplacian", laplacian(weights + weights.T)
    yield "bridged-cliques", block_clique_laplacian([7, 9, 5], bridges=[(0, 7), (7, 16)])[0]
    net, _ = gen_fixed_sbm_multiplex(20, 4, 0.3, RngSeed(13))
    yield "supra", build_supra(net, 0.5).laplacian


def test_eig_sym_count_matches_full_solve():
    for name, mat in _subset_cases():
        full = eig_sym(mat)
        bound = 1e-9 * np.abs(mat).sum(axis=1).max()
        for count in (1, 2, 3, 5, 8, 9, 15):
            system = eig_sym(mat, count)
            got = len(system.eigenvalues)
            assert min(count, len(mat)) <= got <= len(mat), (name, count)
            assert system.eigenvectors.shape == (len(mat), got), (name, count)
            assert system.zero_tolerance == full.zero_tolerance, (name, count)
            np.testing.assert_allclose(system.eigenvalues, full.eigenvalues[:got],
                                       rtol=0, atol=bound, err_msg=f"{name} count={count}")
            vecs = system.eigenvectors
            assert np.abs(mat @ vecs - vecs * system.eigenvalues).max() <= bound * 10
        # a subset is solved where one fits, not the full spectrum
        assert len(eig_sym(mat, 2).eigenvalues) < len(mat), name


def test_eig_sym_count_never_ends_inside_requested_eigenvalue():
    # eigenvalues 0, 0 and 8 fourteen times, as in test_kway_every_label_used
    lap, _ = block_clique_laplacian([8, 8])
    for count in range(1, 17):
        system = eig_sym(lap, count)
        values = system.eigenvalues
        complete = len(values) == len(lap)
        assert complete or values[-1] - values[count - 1] > system.zero_tolerance, count
    # at count 2 the 8-pair subset would stop inside the 14-fold Fiedler
    # value (indices 2-15), so the full spectrum is solved and counts it whole
    system = eig_sym(lap, 2)
    assert len(system.eigenvalues) == 16 and system.zero_multiplicity == 2
    assert system.fiedler_value == pytest.approx(8.0)
    assert system.fiedler_multiplicity == eig_sym(lap).fiedler_multiplicity == 14
    assert len(eig_sym(lap, 4).eigenvalues) == 16


def test_eig_sym_rejects_non_finite_and_bad_count():
    with pytest.raises(SpectralError):
        eig_sym(np.array([[1.0, np.inf], [np.inf, 1.0]]))
    with pytest.raises(SpectralError):
        eig_sym(np.array([[1.0, np.nan], [np.nan, 1.0]]))
    with pytest.raises(SpectralError):
        eig_sym(np.eye(3), 0)


def _solver_systems(lap, rng):
    """The same operator's decomposition from four sources: numpy, the
    divide-and-conquer and MRRR LAPACK drivers, and a random orthogonal
    rotation of every repeated eigenspace."""
    tol = eig_sym(lap).zero_tolerance
    values, vectors = np.linalg.eigh(lap)
    yield "numpy", EigenSystem(values, vectors, tol)
    for driver in ("evd", "evr"):
        yield driver, EigenSystem(*scipy.linalg.eigh(lap, driver=driver), tol)
    rotated = vectors.copy()
    start = 0
    while start < len(values):
        stop = start + 1
        while stop < len(values) and values[stop] - values[start] <= tol:
            stop += 1
        if stop - start > 1:
            q, _ = np.linalg.qr(rng.standard_normal((stop - start, stop - start)))
            rotated[:, start:stop] = vectors[:, start:stop] @ q
        start = stop
    yield "rotated", EigenSystem(values, rotated, tol)


@pytest.mark.parametrize("k", [3, 6])
def test_fiedler_split_independent_of_eigenbasis(k):
    n, w = 100, 1.0
    rng = np.random.default_rng(k)
    for instance in range(4):
        net, _ = gen_fixed_sbm_multiplex(n, k, 0.2, RngSeed(instance, ("basis", k)))
        lap = build_supra(net, w).laplacian
        reference, value, degenerate = fiedler_bipartition(lap)
        # lambda_2 = k*w, repeated k-1 times: the layer-split eigenspace
        assert not degenerate and value == pytest.approx(k * w)
        for solver, system in _solver_systems(lap, rng):
            part, _, _ = fiedler_bipartition(lap, system)
            np.testing.assert_array_equal(part.labels, reference.labels,
                                          err_msg=f"{solver} instance {instance}")
        # P e_0 puts layer 0 on one side and the other layers on the other
        np.testing.assert_array_equal(reference.labels, np.repeat([0] + [1] * (k - 1), n))
        assert eig_sym(lap, 2).fiedler_multiplicity == k - 1


def test_fiedler_three_path_zero_entry_tie_break():
    lap = laplacian(np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 1.0], [0.0, 1.0, 0.0]]))
    part, lam, degenerate = fiedler_bipartition(lap)
    assert not degenerate
    assert lam == pytest.approx(1.0, abs=1e-12)
    # Fiedler vector is (1, 0, -1)/sqrt(2); the zero middle entry joins the
    # positive cluster
    np.testing.assert_array_equal(part.labels, [0, 0, 1])


def test_fiedler_disjoint_edges_degenerate():
    lap, adj = block_clique_laplacian([2, 2])
    part, lam, degenerate = fiedler_bipartition(lap)
    assert degenerate
    # partition separates components: no boundary edge
    boundary = adj[np.ix_(part.labels == 0, part.labels == 1)]
    assert boundary.sum() == 0
    assert part.labels[0] == part.labels[1] != part.labels[2]


def test_fiedler_two_cliques_bridge():
    lap, _ = block_clique_laplacian([5, 5], bridges=[(4, 5)])
    part, lam, degenerate = fiedler_bipartition(lap)
    assert not degenerate
    expected = Partition(labels=np.repeat([0, 1], 5), c=2)
    equal, agreement = match_partitions(part, expected)
    assert equal and agreement == 1.0


def test_fiedler_rejects_tiny_matrix():
    with pytest.raises(SpectralError):
        fiedler_bipartition(np.zeros((1, 1)))


def disconnected_laplacians():
    """(name, Laplacian) of operators whose pattern falls apart."""
    for k in (2, 6):
        net, _ = gen_fixed_sbm_multiplex(30, k, 0.0, RngSeed(k, ("split",)))
        yield f"supra k={k}", build_supra(net, 1.0).laplacian
        yield f"dynamic k={k}", build_dynamic(net, DynamicCoupling.identity(30, k)).laplacian
        yield f"disjoint supra k={k}", build_supra(net, 0.0).laplacian
        zero = DynamicCoupling.uniform(np.eye(k), 30)
        yield f"disjoint dynamic k={k}", build_dynamic(net, zero).laplacian
    yield "cliques", block_clique_laplacian([4, 3, 5])[0]
    # more zero eigenvalues than the subset holds: the eigensolve takes them all
    yield "nine cliques", block_clique_laplacian([3, 2, 4, 1, 3, 2, 5, 2, 3])[0]
    yield "edgeless", np.zeros((5, 5))


def counting_eig_sym(monkeypatch):
    """Route spectral.eig_sym through a wrapper; returns its list of calls."""
    calls = []
    real = spectral.eig_sym

    def counted(mat, count=None):
        calls.append(len(mat))
        return real(mat, count)

    monkeypatch.setattr(spectral, "eig_sym", counted)
    return calls


def test_disconnected_split_needs_no_eigensolve_and_matches_it(monkeypatch):
    calls = counting_eig_sym(monkeypatch)
    for name, lap in disconnected_laplacians():
        system = eig_sym(lap, 2)
        assert system.zero_multiplicity > 1, name
        solved, solved_value, solved_degenerate = fiedler_bipartition(lap, system)
        del calls[:]
        part, value, degenerate = fiedler_bipartition(lap)
        assert calls == [], name
        np.testing.assert_array_equal(part.labels, solved.labels, err_msg=name)
        assert degenerate is solved_degenerate is True, name
        assert value == solved_value == 0.0, name


@pytest.mark.parametrize("weight", [1e-13, 1e-12])
def test_split_joined_by_tiny_weights_is_solved(monkeypatch, weight):
    # connected only through weights the zero-entry tolerance ignores: the
    # pattern falls apart at 1e-12 but not at 0, so the eigensolve decides
    _, adj = block_clique_laplacian([4, 4])
    adj[3, 4] = adj[4, 3] = weight
    lap = laplacian(adj)
    assert connected_components(lap, atol=spectral.ZERO_ENTRY_TOL).any()
    assert not connected_components(lap).any()
    expected, expected_value, expected_degenerate = fiedler_bipartition(lap, eig_sym(lap, 2))
    calls = counting_eig_sym(monkeypatch)
    part, value, degenerate = fiedler_bipartition(lap)
    assert calls == [8]
    np.testing.assert_array_equal(part.labels, expected.labels)
    assert (value, degenerate) == (expected_value, expected_degenerate)


def test_block_diagonal_matrix_with_rows_off_zero_is_solved(monkeypatch):
    # falls apart, but no block has a zero eigenvalue: not a Laplacian, so
    # the pattern alone does not make the zero eigenvalue repeat
    block = np.array([[2.0, -1.0], [-1.0, 2.0]])
    mat = scipy.linalg.block_diag(block, block, 0.5 * block)
    expected, expected_value, expected_degenerate = fiedler_bipartition(mat, eig_sym(mat, 2))
    assert not expected_degenerate
    calls = counting_eig_sym(monkeypatch)
    part, value, degenerate = fiedler_bipartition(mat)
    assert calls == [6]
    np.testing.assert_array_equal(part.labels, expected.labels)
    assert (value, degenerate) == (expected_value, False)


def test_bad_disconnected_input_is_rejected_as_eig_sym_rejects_it():
    lap, _ = block_clique_laplacian([3, 3])
    asymmetric = lap.copy()
    asymmetric[0, 1] += 1e-6
    nan = lap.copy()
    nan[0, 1] = nan[1, 0] = np.nan
    infinite = lap.copy()
    infinite[0, 1] = infinite[1, 0] = np.inf
    messages = []
    for bad in (asymmetric, nan, infinite, lap[:, :5], lap[0], np.float64(1.0)):
        with pytest.raises(SpectralError) as solved:
            eig_sym(bad, 2)
        with pytest.raises(SpectralError) as split:
            fiedler_bipartition(bad)
        assert str(split.value) == str(solved.value)
        messages.append(str(split.value))
    assert messages == ["matrix is not symmetric within 1e-10"] + [
        "matrix has a non-finite entry or row sum"] * 2 + [
        "expected a square matrix, got shape (6, 5)", "expected a square matrix, got shape (6,)",
        "expected a square matrix, got shape ()"]


def test_fiedler_value_is_zero_whenever_degenerate():
    # connected at 1e-12, but lambda_2 (about 4e-10) is below the zero tolerance
    _, weak = block_clique_laplacian([5, 5])
    weak[4, 5] = weak[5, 4] = 1e-9
    cases = list(disconnected_laplacians()) + [
        ("tiny bridge", laplacian(block_clique_laplacian([3, 3], bridges=[(2, 3)])[1] * 1e-13)),
        ("bridge", block_clique_laplacian([5, 5], bridges=[(4, 5)])[0]),
        ("weak bridge", laplacian(weak)),
    ]
    for name, lap in cases:
        system = eig_sym(lap, 2)
        for _, value, degenerate in (fiedler_bipartition(lap), fiedler_bipartition(lap, system)):
            assert degenerate == (system.zero_multiplicity > 1), name
            if degenerate:
                assert value == 0.0, name
            else:
                assert value == system.fiedler_value > 0.0, name


def test_kway_agrees_with_fiedler_on_two_cliques():
    lap, _ = block_clique_laplacian([5, 5], bridges=[(4, 5)])
    fiedler_part, _, _ = fiedler_bipartition(lap)
    kway_part = spectral_kway(lap, 2, RngSeed(3))
    equal, _ = match_partitions(fiedler_part, kway_part)
    assert equal


def test_kway_recovers_components_exactly():
    lap, _ = block_clique_laplacian([4, 3, 5])
    part = spectral_kway(lap, 3, RngSeed(4))
    expected = Partition(labels=np.repeat([0, 1, 2], [4, 3, 5]), c=3)
    equal, _ = match_partitions(part, expected)
    assert equal


def test_kway_recovers_four_planted_cliques():
    lap, _ = block_clique_laplacian([6, 6, 6, 6],
                                    bridges=[(0, 6), (6, 12), (12, 18)])
    part = spectral_kway(lap, 4, RngSeed(5))
    expected = Partition(labels=np.repeat([0, 1, 2, 3], 6), c=4)
    equal, _ = match_partitions(part, expected)
    assert equal


def test_kway_deterministic():
    rng = np.random.default_rng(6)
    mat = rng.random((12, 12))
    adj = 0.5 * (mat + mat.T)
    np.fill_diagonal(adj, 0.0)
    lap = laplacian(adj)
    a = spectral_kway(lap, 3, RngSeed(7))
    b = spectral_kway(lap, 3, RngSeed(7))
    np.testing.assert_array_equal(a.labels, b.labels)


def test_kway_argument_validation():
    lap, _ = block_clique_laplacian([3])
    with pytest.raises(SpectralError):
        spectral_kway(lap, 5, RngSeed(1))
    with pytest.raises(SpectralError):
        spectral_kway(lap, 1, RngSeed(1))


def test_kway_every_label_used():
    # duplicate embedding rows force empty-cluster repair paths
    lap, _ = block_clique_laplacian([8, 8])
    part = spectral_kway(lap, 4, RngSeed(8))
    assert part.used_clusters == 4


def _one_run_kmeans_pp_init(points, c, rng, hits):
    """Reference k-means++ seeding of one run, as spectral_kway seeded each
    restart before the restarts were batched."""
    m = points.shape[0]
    centers = np.empty((c, points.shape[1]))
    first = int(rng.integers(m))
    centers[0] = points[first]
    dist_sq = ((points - centers[0]) ** 2).sum(axis=1)
    for idx in range(1, c):
        total = dist_sq.sum()
        if total <= 0:
            hits["coincident draw"] += 1
            pick = int(rng.integers(m))
        else:
            r = rng.random() * total
            pick = int(np.searchsorted(np.cumsum(dist_sq), r, side="right"))
            pick = min(pick, m - 1)
        centers[idx] = points[pick]
        dist_sq = np.minimum(dist_sq, ((points - centers[idx]) ** 2).sum(axis=1))
    return centers


def _one_run_lloyd(points, centers, hits):
    """Reference Lloyd loop of one run, with its empty-cluster repair; a run
    that returns to an earlier assignment stops on it and its means."""
    m, c = points.shape[0], centers.shape[0]
    labels = np.full(m, -1)
    seen = set()
    for _ in range(300):
        dists = ((points[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        new_labels = dists.argmin(axis=1)
        for cluster in range(c):
            if not np.any(new_labels == cluster):
                hits["empty-cluster repair"] += 1
                own = dists[np.arange(m), new_labels]
                farthest = int(own.argmax())
                new_labels[farthest] = cluster
                dists[farthest] = np.inf
                dists[farthest, cluster] = 0.0
        if np.array_equal(new_labels, labels):
            break
        labels = new_labels
        for cluster in range(c):
            members = points[labels == cluster]
            if len(members):
                centers[cluster] = members.mean(axis=0)
        if labels.tobytes() in seen:
            hits["cycle"] += 1
            break
        seen.add(labels.tobytes())
    wcss = float(((points - centers[labels]) ** 2).sum())
    return labels, wcss


def test_batched_kmeans_equals_one_run_at_a_time():
    rng = np.random.default_rng(31)
    hits = {"coincident draw": 0, "empty-cluster repair": 0, "cycle": 0}
    for trial in range(120):
        c = 2 + trial % 5
        m = int(rng.integers(c, 301))
        # c planted groups whose spread makes them overlap, as in a noisy
        # spectral embedding
        means = rng.standard_normal((c, c))
        points = means[rng.integers(0, c, m)] + 0.5 * rng.standard_normal((m, c))
        if trial % 3 == 0:
            # fewer distinct rows than clusters: some k-means++ totals are
            # zero, some assignments leave a cluster empty, and some runs
            # return to an earlier assignment
            points = points[rng.integers(0, int(rng.integers(1, c)), m)]
        seed = RngSeed(trial)
        rngs = [_restart_rng(seed, restart) for restart in range(RESTARTS)]
        centers = _kmeans_pp_init(points, c, rngs)
        labels, wcss = _lloyd(points, centers)
        best, best_wcss = None, np.inf
        for restart in range(RESTARTS):
            expected_centers = _one_run_kmeans_pp_init(
                points, c, _restart_rng(seed, restart), hits)
            expected_labels, expected_wcss = _one_run_lloyd(points, expected_centers, hits)
            np.testing.assert_array_equal(labels[restart], expected_labels)
            assert centers[restart].tobytes() == expected_centers.tobytes()
            assert wcss[restart].tobytes() == np.float64(expected_wcss).tobytes()
            if expected_wcss < best_wcss:
                best, best_wcss = restart, expected_wcss
        # spectral_kway keeps the first restart with the least WCSS
        assert int(wcss.argmin()) == best
    assert min(hits.values()) > 0, hits


def test_lloyd_result_does_not_depend_on_max_iter_parity():
    # exactly duplicated rows: the mean of many copies can miss the row in
    # its last bit, and runs then swap two assignments every pass; they stop
    # on the first repeat, so one more allowed iteration changes nothing
    rng = np.random.default_rng(5)
    for trial in range(40):
        c = 2 + trial % 5
        m = int(rng.integers(c, 301))
        means = rng.standard_normal((c, c))
        points = means[rng.integers(0, c, m)] + 0.5 * rng.standard_normal((m, c))
        points = points[rng.integers(0, int(rng.integers(1, c)), m)]
        rngs = [_restart_rng(RngSeed(trial), restart) for restart in range(RESTARTS)]
        centers = _kmeans_pp_init(points, c, rngs)
        labels, wcss = _lloyd(points, centers.copy(), 300)
        labels_more, wcss_more = _lloyd(points, centers, 301)
        np.testing.assert_array_equal(labels, labels_more)
        assert wcss.tobytes() == wcss_more.tobytes()


def test_match_partitions_identical_and_swapped():
    a = Partition(labels=np.array([0, 0, 1, 1]), c=2)
    b = Partition(labels=np.array([1, 1, 0, 0]), c=2)
    assert match_partitions(a, a) == (True, 1.0)
    assert match_partitions(a, b) == (True, 1.0)


def test_match_partitions_one_moved_of_100():
    labels = np.repeat([0, 1], 50)
    moved = labels.copy()
    moved[0] = 1
    equal, agreement = match_partitions(
        Partition(labels=labels, c=2), Partition(labels=moved, c=2)
    )
    assert not equal
    assert agreement == pytest.approx(0.99)


def test_match_partitions_different_cluster_counts():
    a = Partition(labels=np.array([0, 0, 1, 1]), c=2)
    b = Partition(labels=np.array([0, 1, 2, 2]), c=3)
    equal, agreement = match_partitions(a, b)
    assert not equal
    assert agreement == pytest.approx(0.75)


def test_match_partitions_length_mismatch():
    with pytest.raises(SpectralError):
        match_partitions(
            Partition(labels=np.zeros(3, dtype=int), c=1),
            Partition(labels=np.zeros(4, dtype=int), c=1),
        )


def test_partition_validation():
    with pytest.raises(SpectralError):
        Partition(labels=np.array([0, 2]), c=2)
    part = Partition(labels=np.array([0, 1, 0]), c=2)
    np.testing.assert_array_equal(part.indicator(), [1.0, -1.0, 1.0])
    with pytest.raises(SpectralError):
        Partition(labels=np.array([0, 1, 2]), c=3).indicator()


def test_import_leaves_scipy_optimize_unloaded():
    """scipy.optimize loads on the first match_partitions call, not with
    the package."""
    code = ("import sys, numpy as np, mxspec\n"
            "print('scipy.optimize' in sys.modules)\n"
            "part = mxspec.Partition(labels=np.array([0, 1]), c=2)\n"
            "mxspec.match_partitions(part, part)\n"
            "print('scipy.optimize' in sys.modules)\n")
    src = str(Path(mxspec.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", code], cwd=src, capture_output=True,
                         text=True, check=True).stdout
    assert out.split() == ["False", "True"]


def test_import_leaves_scipy_sparse_csgraph_unloaded():
    """Connectivity is a search in `operators`; no scipy module for it."""
    code = "import sys, mxspec\nprint('scipy.sparse.csgraph' in sys.modules)\n"
    src = str(Path(mxspec.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", code], cwd=src, capture_output=True,
                         text=True, check=True).stdout
    assert out.split() == ["False"]


# --- the certified Lanczos path, from LANCZOS_MIN rows on --------------------

# m = 1500, at LANCZOS_MIN: supra at w = 5 puts k*w = 50 above the
# community eigenvalue (about 15), so the Fiedler value is simple
LANCZOS_NETS = {"supra": (150, 10), "dynamic": (300, 5)}


def lanczos_net_laplacian(model, seed):
    n, k = LANCZOS_NETS[model]
    assert LANCZOS_MIN <= n * k < LANCZOS_MIN + 100
    net, _ = gen_fixed_sbm_multiplex(n, k, 0.1, RngSeed(seed, ("lanczos",)))
    if model == "supra":
        return build_supra(net, 5.0).laplacian
    return build_dynamic(net, DynamicCoupling.identity(n, k)).laplacian


def dense_eig_sym(monkeypatch, mat, count):
    """eig_sym with the Lanczos path out of reach: the subset solve alone."""
    with monkeypatch.context() as patch:
        patch.setattr(spectral, "LANCZOS_MIN", sys.maxsize)
        return eig_sym(mat, count)


def assert_same_system(got, expected):
    assert got.eigenvalues.tobytes() == expected.eigenvalues.tobytes()
    assert got.eigenvectors.tobytes() == expected.eigenvectors.tobytes()
    assert got.zero_tolerance == expected.zero_tolerance


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("model", ["supra", "dynamic"])
def test_lanczos_path_decides_as_the_dense_path(monkeypatch, model, seed):
    lap = lanczos_net_laplacian(model, seed)
    m = len(lap)
    system = eig_sym(lap, 2)
    assert len(system.eigenvalues) == 3  # the Lanczos path; the subset solve returns 8
    dense = dense_eig_sym(monkeypatch, lap, 2)
    part, value, degenerate = fiedler_bipartition(lap, system)
    dense_part, dense_value, dense_degenerate = fiedler_bipartition(lap, dense)
    np.testing.assert_array_equal(part.labels, dense_part.labels)
    assert degenerate is dense_degenerate is False
    assert system.zero_multiplicity == dense.zero_multiplicity == 1
    assert system.fiedler_multiplicity == dense.fiedler_multiplicity == 1
    np.testing.assert_array_equal(system.fiedler_mask(), dense.fiedler_mask()[:3])
    assert system.zero_tolerance == dense.zero_tolerance
    # the exact eigenvalue lies within the residual (plus rounding) of the
    # Ritz value, and the dense one within rounding of the exact one
    vec = system.eigenvectors[:, 1]
    residual = np.linalg.norm(lap @ vec - value * vec)
    rounding = m * np.finfo(float).eps * np.abs(lap).sum(axis=1).max()
    assert abs(value - dense_value) <= residual + 2 * rounding
    # a fixed start vector: the same answer, bit for bit
    assert_same_system(eig_sym(lap, 2), system)


def test_lanczos_kway_labels_equal_the_dense_path(monkeypatch):
    lap = lanczos_net_laplacian("dynamic", 1)
    assert len(eig_sym(lap, 3).eigenvalues) == 4
    part = spectral_kway(lap, 3, RngSeed(5))
    with monkeypatch.context() as patch:
        patch.setattr(spectral, "LANCZOS_MIN", sys.maxsize)
        dense = spectral_kway(lap, 3, RngSeed(5))
    np.testing.assert_array_equal(part.labels, dense.labels)


def mirrored_blocks_laplacian(size=750, seed=3):
    """Two copies of one random graph joined only through a middle node
    that has the same edges into both: the swap of the copies maps the
    Fiedler vector to minus itself, so its middle entry is exactly 0."""
    rng = np.random.default_rng(seed)
    block = np.triu((rng.random((size, size)) < 0.3).astype(float), 1)
    block += block.T
    m = 2 * size + 1
    adj = np.zeros((m, m))
    adj[:size, :size] = adj[size + 1:, size + 1:] = block
    for node in (0, 1, 2):
        adj[size, node] = adj[node, size] = 1.0
        adj[size, size + 1 + node] = adj[size + 1 + node, size] = 1.0
    return laplacian(adj)


def _raise_no_convergence(*args, **kwargs):
    raise spectral.ArpackNoConvergence("no convergence", np.empty(0), np.empty((0, 0)))


def test_lanczos_falls_back_to_the_dense_path_bitwise(monkeypatch):
    net, _ = gen_fixed_sbm_multiplex(300, 5, 0.1, RngSeed(1, ("lanczos",)))
    cases = {
        # k*w = 25 lies below the community eigenvalue: a 4-fold Fiedler value
        "repeated-fiedler": build_supra(net, 5.0).laplacian,
        # one component per layer: a 5-fold zero eigenvalue, which the
        # certificates refuse
        "disconnected": build_dynamic(net, DynamicCoupling.uniform(np.eye(5), 300)).laplacian,
        "zero-entry": mirrored_blocks_laplacian(),
        "no-convergence": lanczos_net_laplacian("dynamic", 1),
    }
    real_eigsh = spectral.eigsh
    for name, lap in cases.items():
        assert len(lap) >= LANCZOS_MIN, name
        attempts = []

        def eigsh(*args, **kwargs):
            attempts.append(name)
            if name == "no-convergence":
                _raise_no_convergence()
            return real_eigsh(*args, **kwargs)

        with monkeypatch.context() as patch:
            patch.setattr(spectral, "eigsh", eigsh)
            system = eig_sym(lap, 2)
        dense = dense_eig_sym(monkeypatch, lap, 2)
        assert len(system.eigenvalues) > 3, name
        assert_same_system(system, dense)
        assert len(attempts) == 1, name
        if name == "repeated-fiedler":
            assert dense.fiedler_multiplicity == 4
        if name == "disconnected":
            assert dense.zero_multiplicity == 5
        if name == "zero-entry":
            assert abs(dense.eigenvectors[750, 1]) <= spectral.ZERO_ENTRY_TOL


def test_lanczos_gate_finds_every_disconnected_pattern(monkeypatch):
    size = 40
    path = np.zeros((size, size))
    path[np.arange(size - 1), np.arange(1, size)] = path[np.arange(1, size), np.arange(size - 1)] = -1e-300
    assert not connected_components(path).any()
    split = path.copy()
    split[4, 5] = split[5, 4] = 0.0
    assert connected_components(split).any()
    # a split 34 steps from row 0 is found too
    far = path.copy()
    far[size - 6, size - 5] = far[size - 5, size - 6] = 0.0
    assert connected_components(far).any()
    assert not connected_components(block_clique_laplacian([3, 4], bridges=[(2, 3)])[0]).any()
    assert connected_components(block_clique_laplacian([3, 4])[0]).any()
    # at LANCZOS_MIN rows: a path of 30 rows from row 0 (its split lies 29
    # steps out), apart from a connected random graph, makes one eigsh call
    # that the certificates refuse, and the dense answer follows
    lap = path_beside_random_graph_laplacian()
    attempts = []
    real_eigsh = spectral.eigsh
    with monkeypatch.context() as patch:
        patch.setattr(spectral, "eigsh", lambda *args, **kwargs: (
            attempts.append(1) or real_eigsh(*args, **kwargs)))
        system = eig_sym(lap, 2)
    assert attempts == [1]
    assert system.zero_multiplicity == 2
    assert_same_system(system, dense_eig_sym(monkeypatch, lap, 2))


def path_beside_random_graph_laplacian():
    """Laplacian of LANCZOS_MIN rows: a path over the first 30 beside a
    connected random graph on the rest, two components."""
    m, tail = LANCZOS_MIN, 30
    rng = np.random.default_rng(2)
    adj = np.triu((rng.random((m, m)) < 0.01).astype(float), 1)
    adj[:tail] = 0.0
    adj[np.arange(tail - 1), np.arange(1, tail)] = 1.0
    adj += adj.T
    return laplacian(adj)


@pytest.mark.parametrize("connected", [True, False])
def test_eig_sym_searches_no_components(monkeypatch, connected):
    # the certificates alone decide whether the Lanczos answer is used:
    # only fiedler_bipartition searches the components
    if connected:
        lap = lanczos_net_laplacian("dynamic", 1)
    else:
        lap = path_beside_random_graph_laplacian()
    assert len(lap) == LANCZOS_MIN
    searches = []

    def search(*args, **kwargs):
        searches.append(args)
        return connected_components(*args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(operators, "connected_components", search)
        system = eig_sym(lap, 2)
    assert searches == []
    assert len(system.eigenvalues) == (3 if connected else spectral.SUBSET_MIN)
    assert system.zero_multiplicity == (1 if connected else 2)


def test_lanczos_count_certificate_rejects_a_missed_eigenvalue(monkeypatch):
    # exact eigenpairs 0, 2 and 3, as a Lanczos run that never saw
    # eigenvalue 1 would return them: only the Cholesky count can tell
    lap = lanczos_net_laplacian("dynamic", 1)
    dense = dense_eig_sym(monkeypatch, lap, 4)
    keep = [0, 2, 3]
    factorizations = []
    real_potrf = spectral.lapack.dpotrf

    def potrf(*args, **kwargs):
        factorizations.append(real_potrf(*args, **kwargs)[1])
        return None, factorizations[-1]

    with monkeypatch.context() as patch:
        patch.setattr(spectral, "eigsh", lambda *args, **kwargs: (
            dense.eigenvalues[keep], dense.eigenvectors[:, keep].copy()))
        patch.setattr(spectral.lapack, "dpotrf", potrf)
        system = eig_sym(lap, 2)
    assert len(factorizations) == 1 and factorizations[0] > 0
    assert_same_system(system, dense_eig_sym(monkeypatch, lap, 2))


def test_eig_sym_lanczos_path_allocates_only_its_certificate_buffer(monkeypatch):
    lap = lanczos_net_laplacian("dynamic", 1)
    m = len(lap)
    real_eigsh = spectral.eigsh
    before_eigsh = []  # the call's peak up to eigsh, which resets it
    lanczos = []  # bytes allocated at the most while eigsh ran

    def eigsh(*args, **kwargs):
        current, peak = tracemalloc.get_traced_memory()
        before_eigsh.append(peak)
        tracemalloc.reset_peak()
        result = real_eigsh(*args, **kwargs)
        lanczos.append(tracemalloc.get_traced_memory()[1] - current)
        return result

    monkeypatch.setattr(spectral, "eigsh", eigsh)
    for mat in (lap, np.asfortranarray(lap)):
        tracemalloc.start()
        try:
            system = eig_sym(mat, 2)
            peak = max(tracemalloc.get_traced_memory()[1], before_eigsh[-1])
        finally:
            tracemalloc.stop()
        assert len(system.eigenvalues) == 3
        assert peak <= 1.1 * m * m * 8, peak / (m * m * 8)
        # in either memory order the products read the matrix in place
        assert lanczos[-1] <= 0.1 * m * m * 8, lanczos[-1] / (m * m * 8)
