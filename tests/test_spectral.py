import copy
import pickle
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

import mxspec

from mxspec import operators, spectral
from mxspec.core import DynamicCoupling, MultiplexNetwork
from mxspec.errors import OperatorError, SpectralError
from mxspec.experiments import overlap_coupling
from mxspec.generators import (
    RngSeed,
    gen_er_multiplex,
    gen_fixed_sbm_multiplex,
    gen_overlap_multiplex,
)
from mxspec.operators import (
    build_dynamic,
    build_supra,
    connected_components,
    laplacian,
)
from mxspec.spectral import (
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

from conftest import random_network, report_physical_memory


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
    system = eig_sym(lap, 3)
    np.testing.assert_allclose(system.eigenvalues, [0.0, 3.0, 3.0], atol=1e-12)


def test_eig_sym_zero_matrix():
    system = eig_sym(np.zeros((4, 4)), 4)
    np.testing.assert_array_equal(system.eigenvalues, np.zeros(4))
    np.testing.assert_array_equal(np.abs(system.eigenvectors), np.eye(4))


def test_eig_sym_reconstruction():
    rng = np.random.default_rng(0)
    mat = rng.standard_normal((30, 30))
    sym = 0.5 * (mat + mat.T)
    system = eig_sym(sym, 30)
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
    system = eig_sym(0.5 * (mat + mat.T), 12)
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
        system = eig_sym(mat, mat.shape[0])
        assert np.array_equal(system.eigenvalues, values), name
        assert np.array_equal(system.eigenvectors, vectors), name
        if name.startswith("block"):
            leading_zero_columns += int(np.sum(np.abs(vectors[0]) <= 1e-12))
    # the block cases exercise columns whose first nonzero entry is not in row 0
    assert leading_zero_columns > 0


def test_eig_sym_rejects_asymmetric():
    # a bare matrix is validated by eig_sym itself, as error[spectral-engine]
    with pytest.raises(SpectralError, match=r"^matrix is not symmetric within 1e-10$") as refused:
        eig_sym(np.array([[0.0, 1.0], [0.0, 0.0]]), 2)
    assert refused.value.module == "spectral-engine"


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
        full = eig_sym(mat, mat.shape[0])
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
    assert system.fiedler_multiplicity == eig_sym(lap, lap.shape[0]).fiedler_multiplicity == 14
    assert len(eig_sym(lap, 4).eigenvalues) == 16


def test_eig_sym_rejects_non_finite_and_bad_count():
    with pytest.raises(SpectralError):
        eig_sym(np.array([[1.0, np.inf], [np.inf, 1.0]]), 2)
    with pytest.raises(SpectralError):
        eig_sym(np.array([[1.0, np.nan], [np.nan, 1.0]]), 2)
    with pytest.raises(SpectralError):
        eig_sym(np.eye(3), 0)
    # not numpy's error from the sign fixing
    with pytest.raises(SpectralError, match=r"size >= 1, got shape \(0, 0\)"):
        eig_sym(np.zeros((0, 0)), 1)


def _solver_systems(lap, rng):
    """The same operator's decomposition from four sources: numpy, the
    divide-and-conquer and MRRR LAPACK drivers, and a random orthogonal
    rotation of every repeated eigenspace."""
    tol = eig_sym(lap, lap.shape[0]).zero_tolerance
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


@pytest.mark.parametrize("model", ["supra", "dynamic"])
def test_rotation_inside_the_repeated_fiedler_eigenspace_keeps_the_labels(monkeypatch, model):
    # desk-shaped nets at k = 6: supra with k w = 6 below the community
    # eigenvalue (5-fold), and dynamic at p = 1.0, where all layers are one
    # graph and the Fiedler value is 500-fold
    n, k = 100, 6
    if model == "supra":
        net, _ = gen_fixed_sbm_multiplex(n, k, 0.3, RngSeed(k, ("rotation", model)))
        op = build_supra(net, 1.0)
    else:
        net, _ = gen_fixed_sbm_multiplex(n, k, 1.0, RngSeed(k, ("rotation", model)))
        op = build_dynamic(net, DynamicCoupling.identity(n, k))
    system = eig_sym(op.laplacian, 2)
    fiedler = system.fiedler_mask()
    assert fiedler.sum() == (k - 1 if model == "supra" else (k - 1) * n)
    expected, _, expected_degenerate = fiedler_bipartition(op.laplacian, system)
    rng = np.random.default_rng(k)
    for trial in range(3):
        q, _ = np.linalg.qr(rng.standard_normal((fiedler.sum(), fiedler.sum())))
        vectors = system.eigenvectors.copy()
        vectors[:, fiedler] = vectors[:, fiedler] @ q
        rotated = EigenSystem(system.eigenvalues, vectors, system.zero_tolerance)
        part, _, degenerate = fiedler_bipartition(op.laplacian, rotated)
        np.testing.assert_array_equal(part.labels, expected.labels, err_msg=str(trial))
        assert degenerate is expected_degenerate is False
    if model == "supra":
        answers = certificate_spy(monkeypatch)
        certified, _, degenerate = fiedler_bipartition(op)
        assert answers == [True] and degenerate is False
        np.testing.assert_array_equal(certified.labels, expected.labels)


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

    def counted(mat, count):
        calls.append(mat.shape[0])
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
    # between the two cliques, where the pattern at 1e-12 does not see them
    nan_between, inf_between = lap.copy(), lap.copy()
    nan_between[0, 5] = nan_between[5, 0] = np.nan
    inf_between[0, 5] = inf_between[5, 0] = -np.inf
    messages = []
    for bad in (asymmetric, nan, infinite, nan_between, inf_between, lap[:, :5], lap[0],
                np.float64(1.0)):
        with pytest.raises(SpectralError) as solved:
            eig_sym(bad, 2)
        with pytest.raises(SpectralError) as split:
            fiedler_bipartition(bad)
        with pytest.raises(SpectralError) as reference:
            reference_bipartition(bad)
        assert str(split.value) == str(solved.value) == str(reference.value)
        messages.append(str(split.value))
    assert messages == ["matrix is not symmetric within 1e-10"] + [
        "matrix has a non-finite entry or row sum"] * 4 + [
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


def test_cliques_joined_below_the_zero_tolerance_split_apart():
    # one component at 1e-12, but lambda_2 (about 4e-10) lies below the
    # zero tolerance: the zero eigenspace beside the constant vector splits
    # the cliques, with degenerate True and the value 0.0, as the
    # disconnected pair keeps its component split
    _, adj = block_clique_laplacian([5, 5])
    adj[4, 5] = adj[5, 4] = 1e-9
    for name, lap in (("joined", laplacian(adj)), ("apart", block_clique_laplacian([5, 5])[0])):
        system = eig_sym(lap, 2)
        assert system.zero_multiplicity == 2, name
        for part, value, degenerate in (fiedler_bipartition(lap), fiedler_bipartition(lap, system)):
            np.testing.assert_array_equal(part.labels, [0] * 5 + [1] * 5)
            assert (value, degenerate) == (0.0, True), name
    # what the zero eigenspace holds beyond the components decides only
    # when it is not empty: on the disconnected pair it is
    disconnected = block_clique_laplacian([5, 5])[0]
    comp = connected_components(disconnected, atol=spectral.ZERO_ENTRY_TOL)
    assert spectral._beside_components(eig_sym(disconnected, 2), comp).shape == (10, 0)


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
    # a scalar has no rows to count: eig_sym's message, as fiedler_bipartition gives
    with pytest.raises(SpectralError, match=r"expected a square matrix, got shape \(\)"):
        spectral_kway(np.float64(1.0), 2, RngSeed(1))


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
    # a label that is not a whole number is refused, not truncated
    with pytest.raises(SpectralError, match="integers"):
        Partition(labels=np.array([0.5, 1.0]), c=2)
    for labels in (np.array([1.0, 0.0]), np.array([False, True])):
        assert Partition(labels=labels, c=2).labels.tolist() == labels.astype(int).tolist()


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1e300])
def test_partition_refuses_a_label_the_cast_cannot_hold(bad):
    # with RuntimeWarning an error, the cast's own warning would be raised
    with pytest.raises(SpectralError, match=r"^labels must be integers in \[0, 2\)$"):
        Partition(labels=np.array([bad, 1.0]), c=2)


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


# --- the certified Lanczos path, from the order its count reads -----------

def lanczos_boundary(count):
    """The spectral constant that sets the order from which
    eig_sym(mat, count) tries the Lanczos path."""
    return "FIEDLER_LANCZOS_MIN" if count <= 2 else "LANCZOS_MIN"


# (n, k) of fixed-SBM nets (p = 0.1) just above the boundary of the count:
# supra at w = 5 puts k*w = 50 above the community eigenvalue (about 5 at
# n = 52, 15 at n = 150), so the Fiedler value is simple
LANCZOS_NETS = {2: {"supra": (52, 10), "dynamic": (104, 5)},
                3: {"supra": (150, 10), "dynamic": (300, 5)}}


def lanczos_net_laplacian(model, seed, count=2):
    n, k = LANCZOS_NETS[min(count, 3)][model]
    boundary = getattr(spectral, lanczos_boundary(count))
    assert boundary <= n * k < boundary + 100
    net, _ = gen_fixed_sbm_multiplex(n, k, 0.1, RngSeed(seed, ("lanczos",)))
    if model == "supra":
        return build_supra(net, 5.0).laplacian
    return build_dynamic(net, DynamicCoupling.identity(n, k)).laplacian


def dense_eig_sym(monkeypatch, mat, count):
    """eig_sym with the Lanczos path out of reach: the subset solve alone."""
    with monkeypatch.context() as patch:
        patch.setattr(spectral, lanczos_boundary(count), sys.maxsize)
        system = eig_sym(mat, count)
    assert len(system.eigenvalues) >= spectral.SUBSET_MIN
    return system


def eigsh_spy(monkeypatch):
    """Route spectral.eigsh through a wrapper; returns the list of its
    calls' eigenpair counts."""
    calls = []
    real = spectral.eigsh

    def spied(*args, **kwargs):
        calls.append(kwargs["k"])
        return real(*args, **kwargs)

    monkeypatch.setattr(spectral, "eigsh", spied)
    return calls


def assert_same_system(got, expected):
    assert got.eigenvalues.tobytes() == expected.eigenvalues.tobytes()
    assert got.eigenvectors.tobytes() == expected.eigenvectors.tobytes()
    assert got.zero_tolerance == expected.zero_tolerance


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("model", ["supra", "dynamic"])
def test_lanczos_path_decides_as_the_dense_path(monkeypatch, model, seed):
    lap = lanczos_net_laplacian(model, seed)
    m = len(lap)
    calls = eigsh_spy(monkeypatch)
    system = eig_sym(lap, 2)
    assert calls == [3]
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
    lap = lanczos_net_laplacian("dynamic", 1, count=3)
    calls = eigsh_spy(monkeypatch)
    assert len(eig_sym(lap, 3).eigenvalues) == 4
    part = spectral_kway(lap, 3, RngSeed(5))
    assert calls == [4, 4]
    with monkeypatch.context() as patch:
        patch.setattr(spectral, lanczos_boundary(3), sys.maxsize)
        dense = spectral_kway(lap, 3, RngSeed(5))
    assert calls == [4, 4]  # the dense path
    np.testing.assert_array_equal(part.labels, dense.labels)


def test_lanczos_order_follows_the_count(monkeypatch):
    # between the two orders only a count of at most 2 tries Lanczos:
    # spectral_kway with c >= 3 keeps the dense path, whose labels are the
    # ones a test checks, and c = 2 asks for the Fiedler pair's count
    lap = lanczos_net_laplacian("dynamic", 1)
    assert spectral.FIEDLER_LANCZOS_MIN <= len(lap) < spectral.LANCZOS_MIN
    calls = eigsh_spy(monkeypatch)
    for count in (1, 2, 3, 4):
        del calls[:]
        eig_sym(lap, count)
        assert calls == ([count + 1] if count <= 2 else []), count
    for c in (2, 3, 4):
        del calls[:]
        spectral_kway(lap, c, RngSeed(5))
        assert calls == ([c + 1] if c == 2 else []), c


def mirrored_blocks_laplacian(size=260, seed=3):
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
    net, _ = gen_fixed_sbm_multiplex(104, 5, 0.1, RngSeed(1, ("lanczos",)))
    cases = {
        # k*w = 5 lies below the community eigenvalue: a 4-fold Fiedler value
        "repeated-fiedler": build_supra(net, 1.0).laplacian,
        # one component per layer: a 5-fold zero eigenvalue, which the
        # certificates refuse
        "disconnected": build_dynamic(net, DynamicCoupling.uniform(np.eye(5), 104)).laplacian,
        "zero-entry": mirrored_blocks_laplacian(),
        "no-convergence": lanczos_net_laplacian("dynamic", 1),
    }
    real_eigsh = spectral.eigsh
    for name, lap in cases.items():
        assert len(lap) >= spectral.FIEDLER_LANCZOS_MIN, name
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
            assert abs(dense.eigenvectors[260, 1]) <= spectral.ZERO_ENTRY_TOL


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
    # at FIEDLER_LANCZOS_MIN rows: a path of 30 rows from row 0 (its split
    # lies 29 steps out), apart from a connected random graph, makes one
    # eigsh call that the certificates refuse, and the dense answer follows
    lap = path_beside_random_graph_laplacian()
    attempts = eigsh_spy(monkeypatch)
    system = eig_sym(lap, 2)
    assert attempts == [3]
    assert system.zero_multiplicity == 2
    assert_same_system(system, dense_eig_sym(monkeypatch, lap, 2))


def path_beside_random_graph_laplacian():
    """Laplacian of FIEDLER_LANCZOS_MIN rows: a path over the first 30
    beside a random graph on the rest, two components (at 2 % density the
    random graph is connected; at 1 % it fell apart at 500 rows)."""
    m, tail = spectral.FIEDLER_LANCZOS_MIN, 30
    rng = np.random.default_rng(2)
    adj = np.triu((rng.random((m, m)) < 0.02).astype(float), 1)
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
    assert len(lap) >= spectral.FIEDLER_LANCZOS_MIN
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
    # eigenvalue 1 would return them, of the operator it runs on, A +
    # ||A||_inf I: only the Cholesky count can tell
    lap = lanczos_net_laplacian("dynamic", 1)
    dense = dense_eig_sym(monkeypatch, lap, 4)
    shift = np.abs(lap).sum(axis=1).max()
    keep = [0, 2, 3]
    factorizations = []
    real_potrf = spectral.lapack.dpotrf

    def potrf(*args, **kwargs):
        factorizations.append(real_potrf(*args, **kwargs)[1])
        return None, factorizations[-1]

    with monkeypatch.context() as patch:
        patch.setattr(spectral, "eigsh", lambda *args, **kwargs: (
            dense.eigenvalues[keep] + shift, dense.eigenvectors[:, keep].copy()))
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


# --- the certified supra layer split, before any eigensolve -----------------

def desk_supra_operators():
    """(name, operator) of desk-shaped supra nets (n = 100) whose k w lies
    below the community eigenvalue, as at most desk points."""
    for k in (2, 6):
        for p, w in ((0.3, 1.0), (0.9, 0.1), (1.0, 5.0)):
            net, _ = gen_fixed_sbm_multiplex(100, k, p, RngSeed(k, ("certified", p)))
            yield f"fixed-sbm k={k} p={p} w={w}", build_supra(net, w)
        net = gen_er_multiplex(100, k, 0.25, RngSeed(k, ("certified", "er")))
        yield f"er k={k}", build_supra(net, 1.0)
    for w in (0.5, 5.0):
        net, _, _ = gen_overlap_multiplex(100, 0.9, 0.1, RngSeed(2, ("certified", w)))
        yield f"overlap-supra w={w}", build_supra(net, w)


def certificate_spy(monkeypatch):
    """Route spectral._certifies_layer_split through a wrapper; returns the
    list of its answers."""
    answers = []
    real = spectral._certifies_layer_split

    def spied(*args):
        answers.append(real(*args))
        return answers[-1]

    monkeypatch.setattr(spectral, "_certifies_layer_split", spied)
    return answers


def factorization_spy(monkeypatch):
    """Route spectral.lapack.dpotrf through a wrapper; returns the order of
    each matrix it factors."""
    sizes = []
    real = spectral.lapack.dpotrf

    def spied(mat, *args, **kwargs):
        sizes.append(mat.shape[0])
        return real(mat, *args, **kwargs)

    monkeypatch.setattr(spectral.lapack, "dpotrf", spied)
    return sizes


def test_certified_layer_split_equals_the_dense_path(monkeypatch):
    calls = counting_eig_sym(monkeypatch)
    answers = certificate_spy(monkeypatch)
    for name, op in desk_supra_operators():
        expected, expected_value, expected_degenerate = fiedler_bipartition(op.laplacian)
        assert calls == [op.num_copies] and answers == [], name
        del calls[:]
        part, value, degenerate = fiedler_bipartition(op)
        if name == "overlap-supra w=5.0":
            # a layer refuses, so the eigensolve decides, on the same split
            # (test_a_refusing_layer_falls_through_to_the_eigensolve)
            assert (calls, answers) == ([op.num_copies], [False]), name
            assert value == expected_value, name
        else:
            assert (calls, answers) == ([], [True]), name
            assert value == op.layer_split_value() == op.k * op.coupling, name
        del calls[:], answers[:]
        np.testing.assert_array_equal(part.labels, expected.labels, err_msg=name)
        assert degenerate is expected_degenerate is False, name
        np.testing.assert_array_equal(part.labels, np.arange(op.num_copies) >= op.n)


def transformed_net(net, perm=None, scale=1.0):
    """`net` with every layer's nodes relabeled by the same permutation and
    every weight scaled."""
    perm = np.arange(net.n) if perm is None else perm
    layers = tuple(scale * layer[np.ix_(perm, perm)] for layer in net.layers)
    return MultiplexNetwork(n=net.n, k=net.k, layers=layers)


@pytest.mark.parametrize("k", [2, 6])
def test_certified_split_survives_relabeling_and_scaling(monkeypatch, k):
    rng = np.random.default_rng(k)
    net, _ = gen_fixed_sbm_multiplex(100, k, 0.3, RngSeed(k, ("metamorphic",)))
    answers = certificate_spy(monkeypatch)
    reference, value, _ = fiedler_bipartition(build_supra(net, 1.0))
    perm = rng.permutation(net.n)
    copies = (np.arange(k)[:, None] * net.n + perm).ravel()  # copy j of the new net
    for name, other, w in (("relabeled", transformed_net(net, perm=perm), 1.0),
                           ("scaled by 3", transformed_net(net, scale=3.0), 3.0),
                           ("scaled by 0.25", transformed_net(net, scale=0.25), 0.25)):
        part, other_value, degenerate = fiedler_bipartition(build_supra(other, w))
        assert not degenerate and other_value == k * w, name
        labels = reference.labels[copies] if name == "relabeled" else reference.labels
        np.testing.assert_array_equal(part.labels, labels, err_msg=name)
    assert answers == [True] * 4


def hand_built_supra(net, w, coupling):
    """A SupraOperator(model="supra") that claims weight w but has the
    symmetric n x n `coupling` as every off-diagonal block."""
    n, k = net.n, net.k
    adj = np.zeros((n * k, n * k))
    for a in range(k):
        for b in range(k):
            block = adj[a * n:(a + 1) * n, b * n:(b + 1) * n]
            block[...] = operators.symmetrize(net.layers[a]) if a == b else coupling
    return operators.SupraOperator(model="supra", n=n, k=k, adjacency=adj, coupling=w)


def refused_supra_operators():
    """(name, operator, whether the certificate is reached, whether its
    Cholesky runs) of supra operators the certificate must refuse.  The
    hand-built ones, given their adjacency, have no layers and go to the
    eigensolve without reaching it."""
    net, _ = gen_fixed_sbm_multiplex(30, 6, 0.0, RngSeed(1, ("refused",)))
    yield "p = 0", build_supra(net, 1.0), False, False
    net, _ = gen_fixed_sbm_multiplex(30, 2, 0.3, RngSeed(1, ("refused",)))
    yield "w = 0", build_supra(net, 0.0), False, False
    # connected at atol 0, but k w is far below the zero tolerance
    yield "k w below the zero tolerance", build_supra(net, 1e-13), True, False
    one = MultiplexNetwork(n=30, k=1, layers=net.layers[:1])
    yield "k = 1", build_supra(one, 1.0), True, False
    # the cluster-large shape (p = 0.1, k = 10, w = 5) at n = 30: k w = 50
    # lies above the community eigenvalue, about 3
    large, _ = gen_fixed_sbm_multiplex(30, 10, 0.1, RngSeed(1, ("refused",)))
    yield "k w above the community eigenvalue", build_supra(large, 5.0), True, True
    diag = np.full(30, 1.0)
    diag[7] = 1.5
    yield "coupling not w I", hand_built_supra(net, 1.0, np.diag(diag)), False, False
    adj = build_supra(net, 1.0).adjacency.copy()
    adj[0, 1] += 1e-14  # within laplacian's symmetry tolerance, not exact
    inexact = operators.SupraOperator(model="supra", n=30, k=2, adjacency=adj, coupling=1.0)
    yield "not exactly symmetric", inexact, False, False


def test_refused_layer_split_falls_through_bitwise(monkeypatch):
    answers = certificate_spy(monkeypatch)
    sizes = factorization_spy(monkeypatch)
    for name, op, reached, factored in refused_supra_operators():
        expected, expected_value, expected_degenerate = fiedler_bipartition(op.laplacian)
        del answers[:], sizes[:]
        part, value, degenerate = fiedler_bipartition(op)
        assert answers == ([False] if reached else []), name
        # the layers' n x n blocks, up to the first that refuses, and no
        # m x m one: m is below the Lanczos order, so eig_sym factors none
        if factored:
            assert 1 <= len(sizes) <= op.k and sizes == [op.n] * len(sizes), name
        else:
            assert sizes == [], name
        assert part.labels.tobytes() == expected.labels.tobytes(), name
        assert (value, degenerate) == (expected_value, expected_degenerate), name
        assert np.float64(value).tobytes() == np.float64(expected_value).tobytes(), name


def test_layer_split_refusals_are_the_ones_named():
    # each refusal above is for its stated reason: k w is not the Fiedler
    # value, or the operator is not the supra Laplacian the proof is about
    cases = {name: op for name, op, _, _ in refused_supra_operators()}
    for name in ("p = 0", "w = 0", "k w below the zero tolerance"):
        assert eig_sym(cases[name].laplacian, 2).zero_multiplicity > 1, name
    assert cases["k = 1"].layer_split_value() is None
    above = cases["k w above the community eigenvalue"]
    assert eig_sym(above.laplacian, 2).fiedler_value < above.layer_split_value() - 40
    assert not scipy.linalg.issymmetric(cases["not exactly symmetric"].laplacian)
    # a hand-built operator has no layers, so it is refused even where its
    # coupling is w I and its L is that of build_supra, whose layers certify
    net, _ = gen_fixed_sbm_multiplex(30, 2, 0.3, RngSeed(1, ("refused",)))
    op, built = hand_built_supra(net, 1.0, np.eye(30)), build_supra(net, 1.0)
    assert op.layers is None and built.layers is net.layers
    assert spectral._certifies_layer_split(built) and not spectral._certifies_layer_split(op)
    np.testing.assert_array_equal(op.laplacian, built.laplacian)


def test_an_operator_keeps_the_facts_eig_sym_would_scan():
    # the build's one scan finds the ||L||_inf and exactness that
    # _validated finds in L, bit for bit, and pickle and deepcopy keep them
    net, _ = gen_fixed_sbm_multiplex(30, 2, 0.3, RngSeed(1, ("refused",)))
    ops = [*desk_supra_operators(), *forced_path_operators(),
           *((name, op) for name, op, _, _ in refused_supra_operators()),
           ("hand-built w I", hand_built_supra(net, 1.0, np.eye(30)))]
    for name, op in ops:
        norm, _, exact = spectral._validated(op.laplacian)
        for other in (op, pickle.loads(pickle.dumps(op)), copy.deepcopy(op)):
            assert np.float64(other.norm).tobytes() == np.float64(norm).tobytes(), name
            assert other.exact is exact, name
            assert other.shape == op.laplacian.shape == (op.num_copies,) * 2, name
    assert [name for name, op in ops if not op.exact] == ["not exactly symmetric"]
    assert {op.model for _, op in ops} == {"supra", "dynamic"} and {op.k for _, op in ops} >= {1, 6}


def test_layer_split_window_covers_a_residual_beside_the_tolerance(monkeypatch):
    # the radius r is at least 3 m eps ||L||_inf, which at m = 4000 puts
    # r / (tol + r) above 1 / (k n): a window of tol + r alone would refuse
    # every operator from m of about 3900 on, and 2 k n r makes r / gap
    # 1 / (2 k n).  This one certifies from its layers, with no L built
    net, _ = gen_fixed_sbm_multiplex(40, 100, 0.3, RngSeed(1, ("window",)))
    op = build_supra(net, 0.01)
    form = spectral._LayerForm(op)
    least = 3 * op.num_copies * np.finfo(float).eps * form.norm_lo
    assert least / (form.tol_hi + least) > 1.0 / op.num_copies
    answers = certificate_spy(monkeypatch)
    calls = counting_eig_sym(monkeypatch)
    part, value, degenerate = fiedler_bipartition(op)
    assert (answers, calls) == ([True], []) and "laplacian" not in vars(op)
    np.testing.assert_array_equal(part.labels, np.arange(op.num_copies) >= op.n)
    assert (value, degenerate) == (op.layer_split_value(), False)
    # coupling node 7 by w (1 + 3e-8) leaves a block-sum residual of about
    # 1e-8; such an operator is hand-built, has no layers, and takes the
    # eigensolve, with its bare Laplacian's answer bit for bit
    net, _ = gen_fixed_sbm_multiplex(30, 2, 0.3, RngSeed(1, ("refused",)))
    diag = np.full(30, 1.0)
    diag[7] = 1.0 + 3e-8
    op = hand_built_supra(net, 1.0, np.diag(diag))
    expected = fiedler_bipartition(op.laplacian)
    del answers[:], calls[:]
    got = fiedler_bipartition(op)
    assert (answers, calls) == ([], [60])
    assert_bitwise_equal(got, expected, "residual")
    np.testing.assert_array_equal(got[0].labels, np.arange(60) >= 30)


def test_certified_layer_split_factors_each_layer_alone(monkeypatch):
    # k factorizations of n x n and none of the m x m Laplacian
    sizes = factorization_spy(monkeypatch)
    answers = certificate_spy(monkeypatch)
    for name, op in desk_supra_operators():
        if name.startswith("fixed-sbm"):
            del sizes[:], answers[:]
            fiedler_bipartition(op)
            assert (answers, sizes) == ([True], [op.n] * op.k), name


def test_a_refusing_layer_falls_through_to_the_eigensolve(monkeypatch):
    # k w = 10 lies below every eigenvalue outside S, as the one m x m
    # count shows, but not below layer 0's lambda_2 less the window, as
    # the per-layer test needs: the eigensolve decides, on the same split
    net, _, _ = gen_overlap_multiplex(100, 0.9, 0.1, RngSeed(2, ("certified", 5.0)))
    op = build_supra(net, 5.0)
    assert reference_certifies_layer_split(op.laplacian, op.n, op.k, op.layer_split_value())
    expected, expected_value, _ = fiedler_bipartition(op.laplacian)
    sizes = factorization_spy(monkeypatch)
    answers = certificate_spy(monkeypatch)
    part, value, degenerate = fiedler_bipartition(op)
    # m = 200 is below the Lanczos order, so eig_sym factors none either
    assert answers == [False] and sizes == [op.n] * len(sizes) and 1 <= len(sizes) <= op.k
    np.testing.assert_array_equal(part.labels, expected.labels)
    np.testing.assert_array_equal(part.labels, np.arange(op.num_copies) >= op.n)
    assert (value, degenerate) == (expected_value, False)


def reference_certifies_layer_split(arr, n, k, value):
    """`_certifies_layer_split` as it decided with one m x m Cholesky
    count, before it factored the layers' diagonal blocks instead: the
    sound reference, which certifies every operator the per-layer count
    does and more."""
    if value is None:
        return False
    norm, tol, exact = spectral._validated(arr)
    if not exact:
        return False
    m = n * k
    slack = m * np.finfo(float).eps * norm
    block_sums = arr.reshape(m, k, n).sum(axis=2)
    block_sums -= np.repeat(value * (np.eye(k) - 1.0 / k), n, axis=0)
    radius = float(np.linalg.norm(block_sums)) / np.sqrt(n) + 3 * slack
    if not (2 * radius <= tol and value - radius > tol):
        return False
    window = max(tol + radius, 2 * k * n * radius)
    if not 1.0 / (k * n) > radius / min(value - radius, window) + spectral.ZERO_ENTRY_TOL:
        return False
    layers = np.repeat(np.eye(k), n, axis=0) / np.sqrt(n)
    return spectral._cholesky_certifies(arr, norm, value + window + slack, layers)


def layer_split_sample():
    """(name, operator) of a seeded sample of desk-shaped supra nets at
    k in {2, 3, 5, 6}, and of hand-built ones whose off-diagonal blocks
    have the block sums of w I but not its entries."""
    rng = np.random.default_rng(25)
    for k in (2, 3, 5, 6):
        for p, w in zip(rng.choice(np.round(0.1 * np.arange(11), 1), 3), rng.choice([0.1, 1.0, 2.0, 5.0], 3)):
            net, _ = gen_fixed_sbm_multiplex(100, k, p, RngSeed(k, ("sample", p, w)))
            yield f"fixed-sbm k={k} p={p} w={w}", build_supra(net, w)
        for p in rng.choice([0.05, 0.15, 0.25, 0.35, 0.45], 2):
            yield f"er k={k} p={p}", build_supra(gen_er_multiplex(100, k, p, RngSeed(k, ("sample", p))), 1.0)
    for w in (0.5, 1.0, 2.0, 3.0, 5.0):
        net, _, _ = gen_overlap_multiplex(100, 0.9, 0.1, RngSeed(3, ("sample", w)))
        yield f"overlap-supra w={w}", build_supra(net, w)
    for k in (2, 3):
        net, _ = gen_fixed_sbm_multiplex(30, k, 0.3, RngSeed(1, ("refused",)))
        for w in (1.0, 3.0, 4.0):
            yield f"w J / n k={k} w={w}", hand_built_supra(net, w, np.full((30, 30), w / 30))
    # -8 I + 10 (a symmetric permutation) has the block sums of w I at
    # w = 2 but |row| sums of 18.  An eigenvalue off S lies near 2.0, below
    # k w = 4; each layer's lambda_2 is above 9, so a bound on ||O||_inf
    # read from the coupling, (k - 1) w, would pass every layer.  Built
    # from its adjacency, it has no layers, and takes the eigensolve
    net, _ = gen_fixed_sbm_multiplex(30, 2, 0.3, RngSeed(1, ("refused",)))
    swap = np.eye(30)[np.arange(30) ^ 1]
    yield "signed coupling", hand_built_supra(net, 2.0, 10.0 * swap - 8.0 * np.eye(30))


def test_layer_by_layer_certificate_implies_the_full_one(monkeypatch):
    sizes = factorization_spy(monkeypatch)
    paths = []
    for name, op in layer_split_sample():
        del sizes[:]
        got = spectral._certifies_layer_split(op)
        assert sizes == [op.n] * len(sizes), name  # no m x m factorization
        reference = reference_certifies_layer_split(op.laplacian, op.n, op.k, op.layer_split_value())
        assert reference or not got, name
        paths.append((got, reference))
        if name == "signed coupling":
            expected, expected_value, _ = fiedler_bipartition(op.laplacian)
            part, value, _ = fiedler_bipartition(op)
            np.testing.assert_array_equal(part.labels, expected.labels)
            assert value == expected_value < op.layer_split_value()
    # certified by both, refused by both, and certified by the reference alone
    assert {(True, True), (False, False), (False, True)} <= set(paths)


def forced_path_operators():
    """(name, operator) of small desk-shaped nets of every bipartition
    sweep, in both models, the p = 0 fixed-SBM ones included."""
    for k in (2, 3):
        for family, p in (("er", 0.25), ("fixed-sbm", 0.0), ("fixed-sbm", 0.3)):
            seed = RngSeed(k, ("paths", family, p))
            if family == "er":
                net = gen_er_multiplex(30, k, p, seed)
            else:
                net, _ = gen_fixed_sbm_multiplex(30, k, p, seed)
            yield f"{family} p={p} k={k} supra", build_supra(net, 1.0)
            yield f"{family} p={p} k={k} dynamic", build_dynamic(net, DynamicCoupling.identity(30, k))
    net, _, _ = gen_overlap_multiplex(40, 0.9, 0.1, RngSeed(2, ("paths", "overlap")))
    for p, q in ((0.1, 0.1), (0.5, 0.9)):
        yield f"overlap p={p} q={q}", build_dynamic(net, overlap_coupling(p, q, 40))
    for w in (0.5, 5.0):
        yield f"overlap-supra w={w}", build_supra(net, w)


def test_forcing_each_solver_path_keeps_the_labels(monkeypatch):
    attempts = eigsh_spy(monkeypatch)
    for name, op in forced_path_operators():
        part, _, degenerate = fiedler_bipartition(op)
        lap, m = op.laplacian, op.num_copies
        forced = {"system": fiedler_bipartition(lap, eig_sym(lap, 2)),
                  "matrix": fiedler_bipartition(lap)}
        with monkeypatch.context() as patch:
            patch.setattr(spectral, "SUBSET_MIN", m)
            forced["full solve"] = fiedler_bipartition(lap, eig_sym(lap, 2))
        with monkeypatch.context() as patch:
            patch.setattr(spectral, lanczos_boundary(2), m - 1)
            del attempts[:]
            forced["lanczos"] = fiedler_bipartition(lap, eig_sym(lap, 2))
            assert attempts == [3], name
        for path, (other, _, other_degenerate) in forced.items():
            np.testing.assert_array_equal(other.labels, part.labels, err_msg=f"{name}, {path}")
            assert other_degenerate is degenerate, f"{name}, {path}"


def test_an_operator_decides_as_its_bare_laplacian_bitwise(monkeypatch):
    # eig_sym, spectral_kway and fiedler_bipartition read an operator's
    # ||L||_inf and exactness from its build and scan L no more; its bare
    # Laplacian is scanned once a call (none with a system given), and the
    # results agree bit for bit, but for the Fiedler value k w that a
    # certified layer split returns where a bare matrix is solved
    answers = certificate_spy(monkeypatch)
    scans = []
    real = spectral._validated
    monkeypatch.setattr(spectral, "_validated", lambda arr: scans.append(arr.shape) or real(arr))

    def scanned(call, *args):
        del scans[:]
        return call(*args), len(scans)

    cases = [*desk_supra_operators(), *forced_path_operators(),
             *((name, op) for name, op, _, _ in refused_supra_operators())]
    decisions = set()
    for name, op in cases:
        results = []
        for mat, scan in ((op, 0), (op.laplacian, 1)):
            del answers[:]
            system, solved = scanned(eig_sym, mat, 3)
            part, clustered = scanned(spectral_kway, mat, 3, RngSeed(5))
            split, bipartitioned = scanned(fiedler_bipartition, mat)
            given, _ = scanned(fiedler_bipartition, mat, eig_sym(mat, 2))
            assert (solved, clustered, bipartitioned, len(scans)) == (scan, scan, scan, 0), name
            results.append((system.eigenvalues.tobytes(), part.labels.tobytes(), split, given, answers[:]))
        (values, labels, split, given, certified), expected = results
        decisions.add(tuple(certified))
        assert (values, labels) == expected[:2] and expected[4] == [], name
        if certified == [True]:
            assert split[1] == op.layer_split_value(), name
            split = split[0], expected[2][1], split[2]
        assert_bitwise_equal(split, expected[2], name)
        assert_bitwise_equal(given, expected[3], f"{name}, system given")
    # certified, refused, and never reached (dynamic, or fallen apart)
    assert decisions == {(True,), (False,), ()}


def laplacian_build_spy(monkeypatch):
    """Route operators._checked_laplacian, the scan every L is made by,
    through a wrapper; returns the order of each L it makes."""
    builds = []
    real = operators._checked_laplacian

    def spied(adj):
        builds.append(adj.shape[0])
        return real(adj)

    monkeypatch.setattr(operators, "_checked_laplacian", spied)
    return builds


def lazy_path_operators():
    """(name, operator) of every supra and dynamic fixture above, fresh."""
    yield from desk_supra_operators()
    yield from forced_path_operators()
    yield from ((name, op) for name, op, _, _ in refused_supra_operators())
    yield from layer_split_sample()


def layered_lanczos_spy(monkeypatch):
    """Route spectral._certified_lanczos through a wrapper; returns the
    list of its answers (whether it certified) on a layer form."""
    answers = []
    real = spectral._certified_lanczos

    def spied(form, count):
        values, vectors = real(form, count)
        if isinstance(form, spectral._LayerForm):
            answers.append(values is not None)
        return values, vectors

    monkeypatch.setattr(spectral, "_certified_lanczos", spied)
    return answers


def test_a_fresh_operator_decides_as_its_laplacian_does(monkeypatch):
    # decided from the layers, a built operator builds no L on the
    # component and certified split paths, nor on an eigensolve that the
    # certified Lanczos path settles from the layers, and one L on any
    # other eigensolve; a dynamic one, whose components are searched on L,
    # builds it once, and a hand-built one holds it from its construction.
    # Its answer is the one after L is read, bit for bit, and that of its
    # bare L, but for the Fiedler value k w of a certified split and the
    # Ritz value of a layered Lanczos solve, within the zero tolerance
    builds = laplacian_build_spy(monkeypatch)
    calls = counting_eig_sym(monkeypatch)
    layered = layered_lanczos_spy(monkeypatch)
    paths = set()
    for (name, fresh), (_, read) in zip(lazy_path_operators(), lazy_path_operators(), strict=True):
        bare = fiedler_bipartition(read.laplacian)
        after = fiedler_bipartition(read)
        del builds[:], calls[:], layered[:]
        lazy = fiedler_bipartition(fresh)
        solved, degenerate = bool(calls), lazy[2]
        path = ("lanczos" if layered == [True] else "eigensolve") if solved else \
            "components" if degenerate else "certified"
        if fresh.layers is None:
            assert builds == [], name
        elif fresh.model == "supra":
            assert builds == ([fresh.num_copies] if path == "eigensolve" else []), name
        else:
            assert builds == [fresh.num_copies], name
        paths.add((fresh.model, path))
        assert_bitwise_equal(lazy, after, name)
        assert lazy[0].labels.tobytes() == bare[0].labels.tobytes(), name
        assert lazy[2] is bare[2], name
        if path == "lanczos":
            assert abs(lazy[1] - bare[1]) <= 1e-8 * max(1.0, read.norm), name
        elif path != "certified":
            assert np.float64(lazy[1]).tobytes() == np.float64(bare[1]).tobytes(), name
    assert {path for model, path in paths if model == "supra"} == {
        "components", "certified", "eigensolve", "lanczos"}


def test_a_certified_split_allocates_less_than_one_operator_matrix():
    net, _ = gen_fixed_sbm_multiplex(100, 10, 0.3, RngSeed(1, ("memory",)))
    tracemalloc.start()
    try:
        part, value, degenerate = fiedler_bipartition(build_supra(net, 1.0))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    np.testing.assert_array_equal(part.labels, np.arange(1000) >= 100)
    assert (value, degenerate) == (10.0, False)
    assert peak < 1000 * 1000 * 8, peak / (1000 * 1000 * 8)


def test_a_split_past_memory_is_certified_or_refused_as_an_operator_error(monkeypatch):
    # k = 100 layers of n = 100: L would be 763 MiB, above the 64 MiB the
    # platform is made to report.  k w = 1 certifies from the layers; at
    # k w = 500 a layer refuses, and the certified Lanczos path decides the
    # eigensolve from the layers, with no L either.  A refused Lanczos
    # certificate needs the L of the subset solve, which is refused
    net, _ = gen_fixed_sbm_multiplex(100, 100, 0.3, RngSeed(1, ("memory",)))
    report_physical_memory(monkeypatch, 64 << 20)
    part, value, degenerate = fiedler_bipartition(build_supra(net, 0.01))
    np.testing.assert_array_equal(part.labels, np.arange(10**4) >= 100)
    assert (value, degenerate) == (100 * 0.01, False)
    builds = laplacian_build_spy(monkeypatch)
    answers = certificate_spy(monkeypatch)
    part, value, degenerate = fiedler_bipartition(build_supra(net, 5.0))
    assert (answers, builds) == ([False], [])
    assert not degenerate and 0 < value < 100 * 5.0 and part.used_clusters == 2
    monkeypatch.setattr(spectral, "_count_certifies", lambda *args: False)
    with pytest.raises(OperatorError, match=r"^supra operator: cannot allocate a 10000 x 10000 "
                                            r"float64 array \(0\.745 GiB\)$"):
        fiedler_bipartition(build_supra(net, 5.0))


def test_a_bare_matrix_is_scanned_once_a_bipartition(monkeypatch):
    # whether the components or eig_sym read its facts first
    block = np.array([[2.0, -1.0], [-1.0, 2.0]])
    _, tiny = block_clique_laplacian([4, 4])
    tiny[3, 4] = tiny[4, 3] = 1e-13
    cases = [("rows off zero", scipy.linalg.block_diag(block, block, 0.5 * block) + 1e-3 * np.eye(6), 1),
             ("cliques", block_clique_laplacian([4, 3, 5])[0], 0),
             ("tiny bridge", laplacian(tiny), 1),
             ("bridged", block_clique_laplacian([5, 5], bridges=[(4, 5)])[0], 1)]
    expected = [fiedler_bipartition(mat, eig_sym(mat, 2)) for _, mat, _ in cases]
    scans = []
    real = spectral._validated
    monkeypatch.setattr(spectral, "_validated", lambda arr: scans.append(arr.shape) or real(arr))
    calls = counting_eig_sym(monkeypatch)
    for (name, mat, solves), reference in zip(cases, expected):
        del scans[:], calls[:]
        got = fiedler_bipartition(mat)
        assert (len(scans), len(calls)) == (1, solves), name
        assert_bitwise_equal(got, reference, name)


def metamorphic_nets():
    """(name, net, model, w, path, moves) of desk-shaped nets (k = 5) on
    both sides of FIEDLER_LANCZOS_MIN, with the path eig_sym(lap, 2) takes
    on each: "dense" below the order, and above it one Lanczos attempt,
    "refused" on a repeated Fiedler value (the supra layer split k w below
    the community eigenvalue, and every net at p = 1.0) and "certified"
    on the rest.  `moves` marks the one known net whose partition a node
    relabeling moves: dynamic at p = 1.0, where complete layers repeat
    the Fiedler value 4 n times and the anchor of P e_a, the first copy,
    moves with the relabeling."""
    for n in (98, 102):
        above = n * 5 >= spectral.FIEDLER_LANCZOS_MIN
        assert above == (n == 102)  # m = 490 and 510
        for family, p in (("fixed-sbm", 0.3), ("er", 0.25), ("fixed-sbm", 1.0)):
            seed = RngSeed(n, ("metamorphic", family, p))
            if family == "er":
                net = gen_er_multiplex(n, 5, p, seed)
            else:
                net, _ = gen_fixed_sbm_multiplex(n, 5, p, seed)
            for model, w in (("dynamic", None), ("supra", 1.0), ("supra", 10.0)):
                path = ("refused" if p == 1.0 or w == 1.0 else "certified") if above else "dense"
                moves = model == "dynamic" and p == 1.0
                yield f"{family} p={p} m={5 * n} {model} w={w}", net, model, w, path, moves


def test_bipartition_survives_relabeling_and_scaling_across_the_lanczos_order(monkeypatch):
    # bare Laplacians, so that the layer-split certificate does not take the
    # supra nets first; the nets whose partition the relabeling moves are
    # an expected case, asserted to move
    paths = []
    real = spectral._certified_lanczos

    def spied(*args):
        values, vectors = real(*args)
        paths.append("refused" if values is None else "certified")
        return values, vectors

    monkeypatch.setattr(spectral, "_certified_lanczos", spied)
    rng = np.random.default_rng(5)
    for name, net, model, w, path, moves in metamorphic_nets():
        perm = rng.permutation(net.n)
        copies = (np.arange(net.k)[:, None] * net.n + perm).ravel()  # copy j of the new net
        parts = {}
        for key, other, scale in (("plain", net, 1.0), ("relabeled", transformed_net(net, perm=perm), 1.0),
                                  ("scaled by 3", transformed_net(net, scale=3.0), 3.0)):
            if model == "supra":
                op = build_supra(other, scale * w)
            else:
                op = build_dynamic(other, DynamicCoupling.identity(net.n, net.k))
            del paths[:]
            parts[key], _, degenerate = fiedler_bipartition(op.laplacian)
            assert not degenerate, f"{name}, {key}"
            assert paths == ([] if path == "dense" else [path]), f"{name}, {key}"
        assert match_partitions(parts["scaled by 3"], parts["plain"])[0], name
        permuted = Partition(labels=parts["plain"].labels[copies], c=2)
        assert match_partitions(parts["relabeled"], permuted)[0] is not moves, name


def components_spy(monkeypatch):
    """Route operators.connected_components through a wrapper; returns the
    atol of each call."""
    atols = []
    real = operators.connected_components

    def spied(arr, atol=0.0):
        atols.append(atol)
        return real(arr, atol)

    monkeypatch.setattr(operators, "connected_components", spied)
    return atols


def test_bipartition_searches_the_pattern_once_at_1e_12(monkeypatch):
    plain, _ = block_clique_laplacian([3, 3, 3])
    _, adj = block_clique_laplacian([3, 3, 3])
    adj[2, 3] = adj[3, 2] = 1e-13  # joins the first two cliques at atol 0 only
    tiny = laplacian(adj)
    bridged, _ = block_clique_laplacian([3, 3, 3], bridges=[(2, 3), (5, 6)])
    net, _ = gen_fixed_sbm_multiplex(30, 2, 0.3, RngSeed(1, ("refused",)))
    certified = build_supra(net, 1.0)
    atols = components_spy(monkeypatch)
    for name, lap in (("plain", plain), ("tiny", tiny), ("bridged", bridged),
                      ("certified", certified)):
        del atols[:]
        part, value, degenerate = fiedler_bipartition(lap)
        assert atols == [spectral.ZERO_ENTRY_TOL], name
        assert degenerate is (name in ("plain", "tiny")), name
        if degenerate:
            comp = connected_components(lap, atol=spectral.ZERO_ENTRY_TOL)
            np.testing.assert_array_equal(part.labels, comp != comp[0], err_msg=name)
            assert value == 0.0, name
    # at 1e-12 the tiny edge is no edge: the first clique against the rest
    part, _, _ = fiedler_bipartition(tiny)
    np.testing.assert_array_equal(part.labels, np.repeat([0, 1, 1], 3))
    # a given system: a search only when its zero eigenvalue repeats
    for name, lap, searches in (("plain", plain, [spectral.ZERO_ENTRY_TOL]),
                                ("tiny", tiny, [spectral.ZERO_ENTRY_TOL]),
                                ("bridged", bridged, []),
                                ("certified", certified.laplacian, [])):
        system = eig_sym(lap, 2)
        del atols[:]
        fiedler_bipartition(lap, system)
        assert atols == searches, name
        assert (system.zero_multiplicity > 1) is bool(searches), name


def reference_bipartition(lap, system=None):
    """fiedler_bipartition's decision with its components searched as they
    were before the one search at 1e-12: at atol 0 to split, with no
    eigensolve, a square matrix whose pattern falls apart there and whose
    rows vanish, then again at 1e-12 when an entry lies in (0, 1e-12] or
    when a solve finds the zero eigenvalue repeated.  A repeated zero
    eigenvalue that a solve finds, or would find after the search at
    1e-12, which such an entry keeps from falling apart, is split by the
    zero eigenspace beside the components (`beside_components_row`),
    unless no nonzero entry lies between the components at 1e-12."""
    op = None
    if isinstance(lap, operators.SupraOperator):
        op, lap = lap, lap.laplacian
    arr = np.asarray(lap, dtype=float)
    if arr.ndim == 2 and arr.shape[0] < 2:
        raise SpectralError("bipartition needs a matrix of size >= 2")
    comp = None
    if system is None:
        if arr.ndim == 2 and arr.shape[0] == arr.shape[1] and connected_components(arr).any():
            _, tol, _ = spectral._validated(arr)
            rows = 0.5 * (arr.sum(axis=0) + arr.sum(axis=1))
            if np.abs(rows).max() <= 0.5 * tol:
                comp = connected_components(arr)
        if comp is None:
            if op is not None and spectral._certifies_layer_split(op):
                return Partition(labels=np.arange(len(arr)) >= op.n, c=2), op.layer_split_value(), False
            system = eig_sym(arr, 2)
    if comp is not None or system.zero_multiplicity > 1:
        tiny = ((arr != 0) & (np.abs(arr) <= spectral.ZERO_ENTRY_TOL)).any()
        if comp is None or tiny:
            comp = connected_components(arr, atol=spectral.ZERO_ENTRY_TOL)
        if system is None and tiny:  # where the search at 1e-12 does not fall apart
            system = eig_sym(arr, 2)
        apart = comp.any() and not ((arr != 0) & (comp[:, None] != comp)).any()
        row = None if system is None or apart else beside_components_row(system, comp)
        labels = comp != comp[0] if row is None else row < -spectral.ZERO_ENTRY_TOL
        return Partition(labels=labels, c=2), 0.0, True
    return fiedler_bipartition(arr, system)  # the Fiedler vector's signs


def beside_components_row(system, comp):
    """Row a of P_Z - P_C, P_Z the projector onto the zero eigenspace of
    `system` and P_C the one onto the indicator vectors of the components
    `comp`, for the first row a of norm above 1e-12; None when no row
    reaches it, or when the zero eigenvalue repeats no more often than
    there are components."""
    zero = system.eigenvectors[:, system.eigenvalues <= system.zero_tolerance]
    if zero.shape[1] <= comp.max() + 1:
        return None
    indicators = (comp[:, None] == np.arange(comp.max() + 1)).astype(float)
    indicators /= np.linalg.norm(indicators, axis=0)
    projector = zero @ zero.T - indicators @ indicators.T
    reached = np.linalg.norm(projector, axis=1) > spectral.ZERO_ENTRY_TOL
    return projector[int(np.argmax(reached))] if reached.any() else None


def linked_block_laplacian(rng, inside, between):
    """Laplacian of three random connected blocks of unit weights, rows
    shuffled, where the last node of each block hangs on by one link of
    weight `inside`, and blocks 0 and 1 are joined by one of `between`."""
    sizes = rng.integers(3, 7, size=3)
    m = int(sizes.sum())
    adj = np.zeros((m, m))
    starts = np.concatenate([[0], np.cumsum(sizes)])
    for start, stop in zip(starts[:-1], starts[1:]):
        for i in range(start + 1, stop - 1):  # a random tree over all but the last
            adj[i, rng.integers(start, i)] = 1.0
        adj[stop - 1, stop - 2] = inside
    adj[starts[1] - 2, starts[1]] = between
    adj += adj.T
    perm = rng.permutation(m)
    return laplacian(adj[np.ix_(perm, perm)])


def reference_cases():
    """(name, matrix or operator) of the reference family."""
    rng = np.random.default_rng(22)
    links = (0.0, 1e-13, 1e-12, 2e-12, 1.0)
    for inside in links:
        for between in links:
            yield f"blocks inside={inside} between={between}", linked_block_laplacian(rng, inside, between)
    block = np.array([[2.0, -1.0], [-1.0, 2.0]])
    yield "block diagonal, rows off zero", scipy.linalg.block_diag(block, block, 0.5 * block)
    cliques, _ = block_clique_laplacian([4, 3, 5])
    for shift in (1e-9, 1e-7, 1e-3):
        yield f"cliques shifted by {shift}", cliques + shift * np.eye(12)
    one_row = cliques.copy()
    one_row[0, 0] += 1e-7
    yield "cliques shifted at one row", one_row
    for sizes in ([3, 4], [5, 2, 4], [2, 2, 2, 2]):
        bridges = [(sum(sizes[:i]) - 1, sum(sizes[:i])) for i in range(1, len(sizes))]
        lap, adj = block_clique_laplacian(sizes, bridges=bridges)
        yield f"bridged cliques {sizes}", lap
        adj[bridges[0]] = adj[bridges[0][::-1]] = 1e-13
        yield f"cliques {sizes}, first bridge 1e-13", laplacian(adj)
    for k in (2, 3):
        net, _ = gen_fixed_sbm_multiplex(20, k, 0.0, RngSeed(k, ("reference",)))
        yield f"p = 0 supra k={k}", build_supra(net, 1.0)
        yield f"p = 0 supra w = 0 k={k}", build_supra(net, 0.0)
        yield f"p = 0 dynamic k={k}", build_dynamic(net, DynamicCoupling.identity(20, k))
        net, _ = gen_fixed_sbm_multiplex(20, k, 0.3, RngSeed(k, ("reference",)))
        yield f"p = 0.3 supra k={k}", build_supra(net, 1.0)
        yield f"p = 0.3 dynamic k={k}", build_dynamic(net, DynamicCoupling.identity(20, k))


def assert_bitwise_equal(got, expected, name):
    (part, value, degenerate), (ref, ref_value, ref_degenerate) = got, expected
    assert part.labels.tobytes() == ref.labels.tobytes(), name
    assert np.float64(value).tobytes() == np.float64(ref_value).tobytes(), name
    assert degenerate is ref_degenerate, name


def test_one_search_decides_as_the_two_did():
    for name, lap in reference_cases():
        assert_bitwise_equal(fiedler_bipartition(lap), reference_bipartition(lap), name)
        matrix = lap.laplacian if isinstance(lap, operators.SupraOperator) else lap
        system = eig_sym(matrix, 2)
        assert_bitwise_equal(fiedler_bipartition(lap, system), reference_bipartition(lap, system),
                             f"{name}, system given")


# --- the count of a layered operator, through its n x n Schur complement ----

def count_spy(monkeypatch):
    """Route spectral._count_certifies through a wrapper; returns the list
    of (form, floor, basis, answer) of its calls."""
    calls = []
    real = spectral._count_certifies

    def spied(form, floor, basis):
        calls.append((form, floor, basis.copy(), real(form, floor, basis)))
        return calls[-1][-1]

    monkeypatch.setattr(spectral, "_count_certifies", spied)
    return calls


def lemma_spy(monkeypatch):
    """Route spectral._cholesky_certifies through a wrapper; returns the
    order of each matrix it counts."""
    orders = []
    real = spectral._cholesky_certifies

    def spied(mat, *args):
        orders.append(mat.shape[0])
        return real(mat, *args)

    monkeypatch.setattr(spectral, "_cholesky_certifies", spied)
    return orders


def near_tie_supra():
    """Fixed-SBM supra n = 100, k = 6, p = 0.3, w = 5: lambda_2 = 29.19
    beside the layer split's 30, and a T whose lowest eigenvalue is
    -||T||_inf to nine digits."""
    net, _ = gen_fixed_sbm_multiplex(100, 6, 0.3, RngSeed(3))
    return build_supra(net, 5.0)


def schur_sample():
    """(name, operator) of desk-shaped nets whose certified Lanczos solve
    reaches its count, at m from 200: supra at k = 3, 6, 10 above the
    community eigenvalue, dynamic with C = I at k = 2, 5, 6, the near tie,
    and a directed weighted net in both models."""
    for k in (3, 6, 10):
        net, _ = gen_fixed_sbm_multiplex(100, k, 0.1, RngSeed(3, ("agree", k, 0.1)))
        yield f"fixed-sbm supra k={k}", build_supra(net, 5.0)
        net = gen_er_multiplex(100, k, 0.1, RngSeed(3, ("agree-er", k, 0.1)))
        yield f"er supra k={k}", build_supra(net, 5.0)
    for k in (2, 5, 6):
        net, _ = gen_fixed_sbm_multiplex(100, k, 0.3, RngSeed(3, ("agree-d", k, 0.3)))
        yield f"fixed-sbm dynamic k={k}", build_dynamic(net, DynamicCoupling.identity(100, k))
    yield "near tie", near_tie_supra()
    net = random_network(np.random.default_rng(11), n=40, k=4)
    yield "directed supra", build_supra(net, 20.0)
    yield "directed dynamic", build_dynamic(net, DynamicCoupling.identity(40, 4))


def test_structured_count_answers_as_the_dense_count(monkeypatch):
    # the m x m count is the reference: on every net of the sample the n x
    # n count proves what it proves, and both refuse to put one eigenvalue
    # below a floor that two lie below
    monkeypatch.setattr(spectral, "FIEDLER_LANCZOS_MIN", 0)
    calls = count_spy(monkeypatch)
    for name, op in schur_sample():
        del calls[:]
        eig_sym(op, 2)
        assert len(calls) == 1, name
        form, floor, basis, answer = calls[0]
        assert isinstance(form, spectral._LayerForm) and form.op is op, name
        lap, norm = op.laplacian, op.norm
        assert spectral._schur_complement(form, floor, 2) is not None, name
        assert answer is spectral._cholesky_certifies(lap, norm, floor, basis) is True, name
        values, vectors = scipy.linalg.eigh(lap, subset_by_index=[0, 2])
        above, lowest = 0.5 * (values[1] + values[2]), vectors[:, :1]
        assert spectral._schur_complement(form, above, 1) is not None, name
        assert spectral._count_certifies(form, above, lowest) is False, name
        assert spectral._cholesky_certifies(lap, norm, above, lowest) is False, name


def test_structured_count_factors_nothing_of_the_operator_order(monkeypatch):
    monkeypatch.setattr(spectral, "FIEDLER_LANCZOS_MIN", 0)
    orders = lemma_spy(monkeypatch)
    sizes = factorization_spy(monkeypatch)
    for name, op in schur_sample():
        op.laplacian
        del orders[:], sizes[:]
        system = eig_sym(op, 2)
        assert len(system.eigenvalues) == 3, name
        assert orders == [op.n], name
        # supra factors each G_a and the lemma's matrix, dynamic the lemma's
        assert sizes == [op.n] * (op.k + 1 if op.model == "supra" else 1), name


def test_count_is_dense_where_the_layered_form_does_not_hold(monkeypatch):
    monkeypatch.setattr(spectral, "FIEDLER_LANCZOS_MIN", 0)
    net, _ = gen_fixed_sbm_multiplex(100, 2, 0.3, RngSeed(1, ("dispatch",)))
    supra = build_supra(net, 1.0)  # k w = 2, simple, is the Fiedler value
    cases = {
        "supra k=2, floor >= k w": supra,
        "dynamic, overlap coupling": build_dynamic(net, overlap_coupling(0.5, 0.9, 100)),
        "given its adjacency": hand_built_supra(net, 1.0, np.eye(100)),
        "bare": supra.laplacian,
    }
    calls = count_spy(monkeypatch)
    orders = lemma_spy(monkeypatch)
    sizes = factorization_spy(monkeypatch)
    for name, mat in cases.items():
        del calls[:], orders[:], sizes[:]
        system = eig_sym(mat, 2)
        assert len(system.eigenvalues) == 3 and [call[-1] for call in calls] == [True], name
        assert orders == sizes == [200], name
        if name.startswith("supra"):
            assert calls[0][1] >= supra.layer_split_value(), name


def lanczos_peak(monkeypatch, mat):
    """The bytes that eig_sym(mat, 2) allocates at the most beyond what it
    is handed, L read."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        system = eig_sym(mat, 2)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert len(system.eigenvalues) == 3
    return peak


def test_structured_count_allocates_a_few_layer_sized_arrays(monkeypatch):
    # the dense count copies L: m^2 floats.  The structured one, with L
    # read, holds a few n x n arrays, and eigsh its Lanczos basis
    nets = {"supra": (100, 10), "dynamic": (100, 6)}
    for model, (n, k) in nets.items():
        net, _ = gen_fixed_sbm_multiplex(n, k, 0.1 if model == "supra" else 0.3, RngSeed(3, ("memory",)))
        op = build_supra(net, 5.0) if model == "supra" else build_dynamic(net, DynamicCoupling.identity(n, k))
        m = op.num_copies
        assert m >= spectral.FIEDLER_LANCZOS_MIN
        op.laplacian
        structured = lanczos_peak(monkeypatch, op)
        dense = lanczos_peak(monkeypatch, op.laplacian)
        assert structured < 0.2 * m * m * 8, (model, structured / (m * m * 8))
        assert dense > m * m * 8, (model, dense / (m * m * 8))


def longdouble_inverse(mat):
    """The inverse of a small nonsingular matrix by Gauss-Jordan
    elimination with partial pivoting in numpy's long double."""
    n = len(mat)
    aug = np.hstack([np.asarray(mat, dtype=np.longdouble), np.eye(n, dtype=np.longdouble)])
    for col in range(n):
        pivot = col + int(np.argmax(np.abs(aug[col:, col])))
        aug[[col, pivot]] = aug[[pivot, col]]
        aug[col] /= aug[col, col]
        others = np.arange(n) != col
        aug[others] -= aug[others, col, None] * aug[col]
    return aug[:, n:]


LONG_DOUBLE = pytest.mark.skipif(np.finfo(np.longdouble).eps > 1e-18,
                                 reason="long double is no wider than double here")


@LONG_DOUBLE
def test_supra_schur_bound_covers_its_inverses():
    # floor just below k w makes each G_a nearly singular, so the error of
    # its inverse, which the residuals bound, outweighs that of summing T
    net, _ = gen_fixed_sbm_multiplex(12, 3, 0.5, RngSeed(4, ("inverse",)))
    op = build_supra(net, 1.0)
    n, k, w = op.n, op.k, op.coupling
    form = spectral._LayerForm(op)
    floor = k * w - 1e-7
    schur, error = spectral._schur_complement(form, floor, 1)
    shift = spectral._schur_shift(form, floor) - w
    exact = np.eye(n, dtype=np.longdouble) / w
    sizes = 0.0
    for a in range(k):
        block = form.block(a, shift)
        inverse = longdouble_inverse(block)
        exact -= inverse
        sizes += float(np.abs(inverse).sum(axis=1).max())
    actual = np.linalg.norm((schur - exact).astype(float), 2)
    eps = np.finfo(float).eps
    assert actual > 1e3 * (k + 1) * eps * (1 / w + sizes)
    assert actual <= error


@LONG_DOUBLE
def test_dynamic_schur_bound_covers_its_forming():
    net = random_network(np.random.default_rng(5), n=12, k=3)
    op = build_dynamic(net, DynamicCoupling.identity(12, 3))
    n, k = op.n, op.k
    form = spectral._LayerForm(op)
    floor = 0.5 * float(form.degrees.min())
    schur, error = spectral._schur_complement(form, floor, 1)
    delta = form.degrees - spectral._schur_shift(form, floor)
    inv = 1 / delta.astype(np.longdouble)
    layers = [layer.astype(np.longdouble) for layer in op.layers]
    outer = 2 * np.eye(n, dtype=np.longdouble) - sum(inv[a][:, None] * layers[a].T for a in range(k))
    exact = outer.T @ (outer / inv.sum(axis=0)[:, None])
    exact -= sum(layers[a] @ (inv[a][:, None] * layers[a].T) for a in range(k))
    assert np.linalg.norm((schur - exact).astype(float), 2) <= error


@LONG_DOUBLE
def test_schur_shift_covers_the_diagonal_and_the_dynamic_fill():
    # L holds the rounded degrees d, and a dynamic one its fill's sums
    # fl(A_b + A_a^T) / 2; rho max D^ bounds its distance from the L' the
    # layers form (exact in long double, the degrees D^ on its diagonal),
    # and mu - floor pays for it beside the diagonal that the count forms
    eps = np.finfo(float).eps
    net = random_network(np.random.default_rng(6), n=12, k=3)
    for op in (build_supra(net, 2.0), build_dynamic(net, DynamicCoupling.identity(12, 3))):
        form = spectral._LayerForm(op)
        n, k = op.n, op.k
        floor = 0.25 * form.norm_hi
        mu = spectral._schur_shift(form, floor)
        layers = [layer.astype(np.longdouble) for layer in op.layers]
        if op.model == "supra":
            exact = np.block([[form.syms[a].astype(np.longdouble) if a == b else op.coupling * np.eye(n)
                               for b in range(k)] for a in range(k)])
        else:
            exact = np.block([[(layers[b] + layers[a].T) / 2 for b in range(k)] for a in range(k)])
        formed = np.diag(form.degrees.reshape(-1).astype(np.longdouble)) - exact
        distance = np.linalg.norm((op.laplacian - formed).astype(float), 2)
        assert distance <= form.spread * form.top, op.model
        diagonal = 2 * eps * (form.norm_hi + abs(floor) + form.w)
        # mu, as rounded, within half an eps of mu of the exact sum
        assert (mu - floor) + 0.5 * eps * abs(mu) >= diagonal + distance, op.model


# --- the certified Lanczos path on the layers --------------------------------

def product_sample():
    """(name, operator) of supra at w = 0 and w > 0 and of dynamic with C =
    I and with random couplings, on a planted and on a directed weighted
    net."""
    rng = np.random.default_rng(30)
    planted, _ = gen_fixed_sbm_multiplex(30, 4, 0.3, RngSeed(30, ("product",)))
    directed = random_network(rng, n=25, k=3)
    for label, net in (("planted", planted), ("directed", directed)):
        yield f"{label} supra w=0", build_supra(net, 0.0)
        yield f"{label} supra w=2", build_supra(net, 2.0)
        yield f"{label} dynamic C=I", build_dynamic(net, DynamicCoupling.identity(net.n, net.k))
        yield f"{label} dynamic random C", build_dynamic(net, DynamicCoupling(rng.random((net.k, net.k, net.n)) * 3))


def exact_layer_laplacian(op, form):
    """The L' of `form` in long double: the degrees D^ summed from the
    layers on the diagonal, less the supra S (w I between layers) or the
    dynamic S', (C^{a,b} A_b + (C^{b,a} A_a)^T) / 2 in block (a, b), both
    exact."""
    n, k = op.n, op.k
    layers = [layer.astype(np.longdouble) for layer in op.layers]
    if op.model == "supra":
        blocks = [[(layers[a] + layers[a].T) / 2 if a == b else op.coupling * np.eye(n, dtype=np.longdouble)
                   for b in range(k)] for a in range(k)]
    else:
        c = op.coupling.diag.astype(np.longdouble)
        blocks = [[(c[a, b][:, None] * layers[b] + (c[b, a][:, None] * layers[a]).T) / 2
                   for b in range(k)] for a in range(k)]
    return np.diag(form.degrees.reshape(-1).astype(np.longdouble)) - np.block(blocks)


@LONG_DOUBLE
def test_layered_product_is_the_laplacian_product_within_its_bound(monkeypatch):
    # formed from the layers alone, with no scan of L: within `offset`
    # ||x|| of L x, which bounds ||L - L'||_2 and the product's rounding,
    # and ||L||_inf, which the scan finds, within [norm_lo, norm_hi]
    builds = laplacian_build_spy(monkeypatch)
    rng = np.random.default_rng(31)
    for name, op in product_sample():
        form = spectral._LayerForm(op)
        block = rng.standard_normal((op.num_copies, 3))
        vector = rng.standard_normal(op.num_copies)
        products = form.product(block), form.product(vector)
        assert builds == [], name
        assert products[0].shape == block.shape and products[1].shape == vector.shape, name
        lap = op.laplacian.astype(np.longdouble)
        for got, x in zip(products, (block, vector)):
            error = np.linalg.norm((got - lap @ x).astype(float), axis=0)
            assert (error <= form.offset * np.linalg.norm(x, axis=0)).all(), name
        distance = np.linalg.norm((op.laplacian - exact_layer_laplacian(op, form)).astype(float), 2)
        assert distance <= form.spread * form.top, name
        assert form.norm_lo <= op.norm <= form.norm_hi, name
        del builds[:]


def missed_ritz_set(op, keep):
    """The exact eigenpairs of the operator's L at the indices `keep`, as a
    Lanczos run that never saw the others would return them, and the floor
    between the last two."""
    values, vectors = scipy.linalg.eigh(op.laplacian, subset_by_index=[0, max(keep)])
    ritz, basis = values[keep], vectors[:, keep]
    return ritz, basis[:, :-1], 0.5 * (ritz[-2] + ritz[-1])


def test_count_refuses_a_ritz_set_that_missed_an_eigenvalue():
    # on fixed-SBM supra n = 100, k = 2, p = 0.3, w = 1 (eigenvalues 0, 2 =
    # k w, 28.1, 31.4) ARPACK once returned 0, 28.1 and 31.4: with the floor
    # between 28.1 and 31.4 three eigenvalues lie below it, and the count
    # of two refuses.  There the floor is above k w, so the layered form
    # forms no Schur complement and counts its L m x m, as the bare matrix
    # does.  At w = 20 (0, 29.0, 40 = k w) a set that missed 0 puts the
    # floor below k w, and the n x n Schur count refuses it
    net, _ = gen_fixed_sbm_multiplex(100, 2, 0.3, RngSeed(2, ("dispatch",)))
    for w, keep, schur in ((1.0, [0, 2, 3], False), (20.0, [1, 2], True)):
        op = build_supra(net, w)
        ritz, basis, floor = missed_ritz_set(op, keep)
        if w == 1.0:
            assert 28.0 < ritz[1] < 28.2 < 31.3 < ritz[2] < 31.5
        assert ritz[-2] < op.layer_split_value() <= ritz[-1] if schur else floor > op.layer_split_value()
        form = spectral._LayerForm(op)
        assert (spectral._schur_complement(form, floor, basis.shape[1]) is not None) is schur, w
        assert spectral._count_certifies(form, floor, basis) is False, w
        dense = spectral._Dense(op.laplacian, op.norm, 1e-8 * op.norm)
        assert spectral._count_certifies(dense, floor, basis) is False, w


# (n, k) of the m = 10^4 nets: supra (w = 5) and dynamic with C = I
SCALE_NETS = {"supra": (200, 50), "dynamic": (400, 25)}
# (n, k) of cluster-large's m = 2000 nets
CLUSTER_NETS = {"supra": (200, 10), "dynamic": (400, 5)}


def scale_operator(model, n, k):
    net, _ = gen_fixed_sbm_multiplex(n, k, 0.1, RngSeed(1, ("scale", model, n, k)))
    return build_supra(net, 5.0) if model == "supra" else build_dynamic(net, DynamicCoupling.identity(n, k))


@pytest.mark.parametrize("model", ["supra", "dynamic"])
def test_a_layered_operator_past_dense_certifies_in_less_than_one_matrix(monkeypatch, model):
    # m = 10^4: L would be 800 MB.  The certified Lanczos path and the
    # bipartition from its system read nothing of it
    n, k = SCALE_NETS[model]
    op = scale_operator(model, n, k)
    m = op.num_copies
    builds = laplacian_build_spy(monkeypatch)
    tracemalloc.start()
    try:
        system = eig_sym(op, 2)
        part, value, degenerate = fiedler_bipartition(op, system)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert builds == [] and len(system.eigenvalues) == 3
    assert (system.zero_multiplicity, system.fiedler_multiplicity, degenerate) == (1, 1, False)
    assert value == system.fiedler_value > 0 and part.used_clusters == 2
    assert peak < m * m * 8, peak / (m * m * 8)


def residual_radius(lap, system):
    """||L v - theta v|| of the Fiedler pair of `system`, plus twice the
    m eps ||L||_inf of rounding and a dense solver's error."""
    vec = system.eigenvectors[:, system.fiedler_mask()][:, 0]
    slack = len(lap) * np.finfo(float).eps * np.abs(lap).sum(axis=1).max()
    return np.linalg.norm(lap @ vec - system.fiedler_value * vec) + 2 * slack


@pytest.mark.parametrize("model", ["supra", "dynamic"])
def test_a_layered_solve_decides_as_the_bare_matrix(monkeypatch, model):
    # cluster-large's shapes: the certified path decides from the layers
    # what it decides from the bare L, and the two Ritz values lie within
    # their radii of the one exact eigenvalue.  spectral_kway's count-4
    # solve gives the same labels, which at c >= 3 are not certified
    n, k = CLUSTER_NETS[model]
    op = scale_operator(model, n, k)
    builds = laplacian_build_spy(monkeypatch)
    layered = layered_lanczos_spy(monkeypatch)
    system = eig_sym(op, 2)
    split = fiedler_bipartition(op, system)
    assert (builds, layered) == ([], [True])
    lap = op.laplacian
    bare = eig_sym(lap, 2)
    bare_split = fiedler_bipartition(lap, bare)
    assert len(bare.eigenvalues) == len(system.eigenvalues) == 3
    np.testing.assert_array_equal(split[0].labels, bare_split[0].labels)
    assert split[2] is bare_split[2] is False
    assert system.zero_multiplicity == bare.zero_multiplicity == 1
    assert system.fiedler_multiplicity == bare.fiedler_multiplicity == 1
    assert abs(system.fiedler_value - bare.fiedler_value) <= (
        residual_radius(lap, system) + residual_radius(lap, bare))
    assert op.num_copies >= spectral.LANCZOS_MIN
    np.testing.assert_array_equal(spectral_kway(op, 4, RngSeed(7)).labels,
                                  spectral_kway(lap, 4, RngSeed(7)).labels)
