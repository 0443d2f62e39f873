"""Symmetric eigendecomposition and spectral clustering.

Bipartitions come from the sign pattern of the eigenvector attached to the
smallest eigenvalue above a relative zero threshold (the Fiedler vector);
c-way clustering embeds each row into the first c eigenvectors (trivial one
included) and runs seeded Lloyd k-means with k-means++ initialization.

Both read only the lowest eigenpairs, which `eig_sym(mat, count)` computes
without the rest of the spectrum: by a subset solve, or from LANCZOS_MIN
rows on by a Lanczos solve whose decisions it proves to be the exact
matrix's before it uses them.  Its certificates alone decide: a solve
they refuse, such as one of a disconnected matrix, whose zero eigenvalue
repeats, falls through to the subset solve.

Disconnected operators are degenerate for the relaxation: the zero
eigenvalue is multiple and any eigenbasis of the nullspace is
solver-arbitrary, so the bipartition falls back to connected components
(component of index 0 vs the rest), which is deterministic and cuts no
edges.  A Laplacian whose pattern falls apart is split from its
components alone, before any eigensolve, since the solve could only
report the zero eigenvalue repeated; its Fiedler value is 0.0.  A
repeated Fiedler eigenvalue (the supra layer-split value k*w has
multiplicity k-1) is solver-arbitrary in the same way, so the split then
follows the projection P e_a of the first copy a onto that eigenspace,
which does not depend on the basis LAPACK returns.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import linalg
from scipy.linalg import blas, lapack
from scipy.sparse.linalg import ArpackError, ArpackNoConvergence, LinearOperator, eigsh

from . import operators
from .errors import SpectralError

ZERO_ENTRY_TOL = 1e-12
# eigenpairs a subset solve computes at the least, so that a repeated
# Fiedler eigenvalue of a few-layer supra operator fits without a full solve
SUBSET_MIN = 8
# k-means++ starts of spectral_kway, each on its own seed
RESTARTS = 10
# order from which eig_sym(mat, count) tries the certified Lanczos path
# first: above every desk sweep (m = n k <= 1000 at the default n = 100),
# whose CSVs stay on the dense path.  An attempt that does not certify is
# paid before the subset solve; on fixed-SBM supra Laplacians with a
# repeated Fiedler value it cost +34 % of the subset solve at m = 1040 and
# +13-19 % from m = 1500 on, where a certified one saves about 60 %
LANCZOS_MIN = 1500
# ARPACK restarts before the Lanczos path gives up.  Certified runs on
# fixed-SBM and ER Laplacians at m = 1500-2000 took 1-21, sparse ER (mean
# degree 5-20) the most.  Runs that did not certify stopped by convergence
# after 48-205 products; a run that reaches the cap makes about 340
LANCZOS_MAXITER = 20
# ARPACK's relative residual target: the certificates need residuals far
# below the gaps, not at rounding level, and a run takes about a third
# fewer products than at tol = 0 (machine precision)
LANCZOS_TOL = 1e-10


@dataclass(frozen=True)
class EigenSystem:
    """The lowest eigenpairs (all of them after a full solve): ascending
    eigenvalues, orthonormal eigenvector columns, and the threshold below
    which an eigenvalue counts as zero.  Two eigenvalues within that
    threshold of each other count as one repeated eigenvalue."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    zero_tolerance: float

    @property
    def zero_multiplicity(self) -> int:
        return int(np.sum(self.eigenvalues <= self.zero_tolerance))

    @property
    def fiedler_value(self) -> float:
        """The smallest eigenvalue above zero, or 0.0 when there is none."""
        above = self.eigenvalues[self.eigenvalues > self.zero_tolerance]
        return float(above[0]) if above.size else 0.0

    def fiedler_mask(self) -> np.ndarray:
        """Which of the eigenvalues equal the Fiedler value; none when no
        eigenvalue is above zero."""
        if not (self.eigenvalues > self.zero_tolerance).any():
            return np.zeros(self.eigenvalues.shape, dtype=bool)
        with np.errstate(over="ignore"):  # a difference past the float range is no match
            return np.abs(self.eigenvalues - self.fiedler_value) <= self.zero_tolerance

    @property
    def fiedler_multiplicity(self) -> int:
        """Multiplicity of the Fiedler value (0 when there is none); whole,
        as `eig_sym` returns no subset that ends inside its eigenspace."""
        return int(self.fiedler_mask().sum())


@dataclass(frozen=True)
class Partition:
    """Cluster labels in {0..c-1} over node copies (or nodes, for reduced
    problems)."""

    labels: np.ndarray
    c: int

    def __post_init__(self):
        labels = np.asarray(self.labels, dtype=int)
        if labels.ndim != 1:
            raise SpectralError("labels must be a 1-d vector")
        if labels.size and (labels.min() < 0 or labels.max() >= self.c):
            raise SpectralError(f"labels must lie in [0, {self.c})")
        labels = labels.copy()
        labels.flags.writeable = False
        object.__setattr__(self, "labels", labels)

    def __len__(self) -> int:
        return len(self.labels)

    @property
    def used_clusters(self) -> int:
        return len(np.unique(self.labels))

    def indicator(self) -> np.ndarray:
        """+-1 indicator vector for a bipartition (label 0 -> +1)."""
        if self.c != 2:
            raise SpectralError("indicator vector is defined for bipartitions only")
        return np.where(self.labels == 0, 1.0, -1.0)


def eig_sym(mat: np.ndarray, count: int | None = None) -> EigenSystem:
    """Dense symmetric eigendecomposition with deterministic sign fixing:
    each eigenvector is flipped so its first entry of magnitude > 1e-12 is
    positive (a column with no such entry is left as it is).

    With `count` None, the full spectrum (`np.linalg.eigh`).  With a
    `count`, only the lowest max(count, SUBSET_MIN) eigenpairs, from one
    subset solve (LAPACK's MRRR driver); when the last of them still
    equals eigenvalue count-1 or the Fiedler value, the subset may end
    inside that eigenspace, and the full spectrum is solved instead.  So
    the eigenspace of every returned eigenvalue up to index count-1, and
    of the Fiedler value, is always returned whole.

    From LANCZOS_MIN rows on, a `count` below m - 1 is first tried by the
    certified Lanczos path (`_certified_lanczos`), with no connectivity
    search: it returns count + 1 pairs when it proves that their zero,
    repeat and sign decisions are those of the exact matrix, and the
    subset solve above runs only when it cannot, as on a disconnected M,
    whose repeated zero eigenvalue fails the separation check or the
    count certificate.  That proof covers what `fiedler_bipartition`
    reads.  `spectral_kway` also reads the vectors' values, which are the
    exact ones only to within the residuals, so its labels on this path
    are not certified.

    An eigenvalue counts as zero up to 1e-8 max(1, ||M||_inf), which
    bounds every eigenvalue's magnitude (Gershgorin).  An exactly
    symmetric input goes to LAPACK as it is; one that is symmetric only
    within 1e-10 is replaced by (M + M^T) / 2 first.  A LAPACK failure
    raises SpectralError."""
    arr = np.asarray(mat, dtype=float)
    if count is not None and count < 1:
        raise SpectralError(f"eigenpair count must be >= 1, got {count}")
    norm, tol, exact = _validated(arr)
    m = arr.shape[0]
    sym = arr if exact else 0.5 * (arr + arr.T)
    values = None
    if count is not None and LANCZOS_MIN <= m and count + 1 < m:
        values, vectors = _certified_lanczos(sym, count, norm, tol)
    size = max(count or 1, SUBSET_MIN)
    try:
        if values is None and count is not None and size < m:
            values, vectors = linalg.eigh(
                sym, driver="evr", subset_by_index=[0, size - 1], check_finite=False)
            # eigenvalue count-1, or the Fiedler value, may repeat past the subset
            last_is_fiedler = EigenSystem(values, vectors, tol).fiedler_mask()[-1]
            if values[-1] - values[count - 1] <= tol or last_is_fiedler:
                values = None
        if values is None:
            values, vectors = np.linalg.eigh(sym)
    except np.linalg.LinAlgError as exc:
        # LAPACK can fail on finite matrices of norm near the float range
        raise SpectralError(f"eigensolver failed on a matrix of norm {norm:.3g}: {exc}") from exc
    if not (np.isfinite(values).all() and np.isfinite(vectors).all()):
        raise SpectralError(f"eigensolver returned non-finite eigenpairs (norm {norm:.3g})")
    first = ((vectors > ZERO_ENTRY_TOL) | (vectors < -ZERO_ENTRY_TOL)).argmax(axis=0)
    # argmax is row 0 in a column with no such entry, and |v_0| <= 1e-12 there
    leading = vectors[first, np.arange(vectors.shape[1])]
    vectors *= np.where(leading < -ZERO_ENTRY_TOL, -1.0, 1.0)
    return EigenSystem(eigenvalues=values, eigenvectors=vectors, zero_tolerance=tol)


def _validated(arr: np.ndarray) -> tuple[float, float, bool]:
    """(||M||_inf, the zero tolerance, whether M is exactly symmetric) of a
    square float matrix M with finite row sums that is symmetric within
    1e-10 max(1, max |M_ij|); any other input raises SpectralError."""
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise SpectralError(f"expected a square matrix, got shape {arr.shape}")
    magnitude = np.abs(arr)
    scale = max(1.0, float(magnitude.max(initial=0.0)))
    norm = float(magnitude.sum(axis=1).max(initial=0.0))
    if not np.isfinite(norm):
        raise SpectralError("matrix has a non-finite entry or row sum")
    del magnitude
    exact = linalg.issymmetric(arr)
    if not (exact or linalg.issymmetric(arr, atol=1e-10 * scale)):
        raise SpectralError("matrix is not symmetric within 1e-10")
    return norm, 1e-8 * max(1.0, norm), exact


def _certified_lanczos(sym: np.ndarray, count: int, norm: float, tol: float) -> tuple:
    """The lowest count + 1 Ritz pairs of the symmetric `sym` (m x m, with
    ||sym||_inf = `norm`), as (ascending values, vector columns), when
    they are proved to decide the zero count, the Fiedler multiplicity and
    every sign that `fiedler_bipartition` reads as the exact eigenpairs
    do; else (None, None).

    1. ARPACK's implicitly restarted Lanczos (`eigsh`, which="SA") from
       a fixed start vector, m standard normal draws of numpy's default
       generator seeded 0, with at most LANCZOS_MAXITER restarts and a
       relative residual target of LANCZOS_TOL, each product a BLAS
       `dsymv` that reads one triangle of A, gives Ritz pairs
       (theta_j, v_j) and their residual norms
       r_j = ||A v_j - theta_j v_j||.  The same input gives the same bits.
    2. Count certificate: with mu = (theta_{count-1} + theta_count) / 2
       and tau = ||A||_inf + |mu|, a Cholesky factorization of
       A - mu I + tau V V^T (V the first count vectors) that succeeds
       makes A - mu I positive definite on the complement of span V, so
       at most count eigenvalues lie below mu (Courant-Fischer), less the
       factorization's backward error.
    3. The first count Ritz values, each within r_j (plus rounding) of an
       eigenvalue, must lie more than the zero tolerance plus their
       residuals apart from each other, from mu, and from the zero
       threshold.  Then each of them pins exactly one eigenvalue, the
       count lowest are all accounted for, and the zero count, the
       Fiedler value's index and its multiplicity of 1 are what a
       backward-stable dense solver decides.
    4. Sign certificate (Davis-Kahan sin theta): with delta_j the
       distance from theta_j to every other possible eigenvalue, the unit
       eigenvector lies within beta_j = sqrt2 (r_j + m eps ||A||_inf) /
       delta_j of +-v_j.  Every entry must satisfy ||v_ij| - 1e-12| >
       beta_j, so each one's side of the +-1e-12 thresholds that sign
       fixing and `fiedler_bipartition` read is that of the exact vector.

    The last pair only witnesses the gap above mu; its vector is a Ritz
    vector and is not certified.  The checks run cheapest first, and the
    Cholesky factors one m x m buffer in place."""
    m = sym.shape[0]
    eps = np.finfo(float).eps
    # sym is exactly symmetric, so sym.T is the same matrix: whichever of the
    # two is Fortran-ordered reaches dsymv without a copy
    upper = sym.T if sym.flags.c_contiguous else np.asfortranarray(sym)
    product = LinearOperator((m, m), matvec=lambda x: blas.dsymv(1.0, upper, x), dtype=float)
    try:
        values, vectors = eigsh(product, k=count + 1, which="SA", tol=LANCZOS_TOL,
                                maxiter=LANCZOS_MAXITER, v0=np.random.default_rng(0).standard_normal(m))
    except (ArpackNoConvergence, ArpackError):
        return None, None
    order = np.argsort(values)
    values, vectors = values[order], vectors[:, order]
    if not (np.isfinite(values).all() and np.isfinite(vectors).all()):
        return None, None
    residuals = np.linalg.norm(sym @ vectors - vectors * values, axis=0)
    slack = m * eps * norm  # rounding in a residual, and a dense solver's eigenvalue error
    mu = 0.5 * (values[count - 1] + values[count])
    tau = norm + abs(mu)
    # a Cholesky that succeeds in floating point factors H + E with
    # ||E||_2 <= (m + 1) m eps ||H||_2 (Higham, Accuracy and Stability of
    # Numerical Algorithms, thm 10.3), and ||H||_2 <= ||A|| + |mu| + tau
    floor = mu - (m + 1) * m * eps * (norm + abs(mu) + tau)
    theta, radius = values[:count], residuals[:count] + slack
    apart = np.abs(theta[:, None] - theta) - radius  # [j, i]: theta_j to eigenvalue i
    np.fill_diagonal(apart, np.inf)
    gap = np.minimum(apart.min(axis=1), floor - theta)
    # the dense eigenvalue j lies within radius_j + slack of theta_j
    if not ((gap - radius - 2 * slack > tol).all()
            and (np.abs(theta - tol) > radius + slack).all() and theta[-1] > tol):
        return None, None
    beta = np.sqrt(2.0) * radius / gap
    if not (np.abs(np.abs(vectors[:, :count]) - ZERO_ENTRY_TOL) > beta).all():
        return None, None
    shifted = sym.copy()  # C order: shifted.T is the Fortran array LAPACK overwrites
    shifted.reshape(-1)[:: m + 1] -= mu
    blas.dsyrk(tau, vectors[:, :count], beta=1.0, c=shifted.T, overwrite_c=True)
    _, info = lapack.dpotrf(shifted.T, clean=False, overwrite_a=True)
    return (values, vectors) if info == 0 else (None, None)


def fiedler_bipartition(
    lap: np.ndarray, system: EigenSystem | None = None
) -> tuple[Partition, float, bool]:
    """Bipartition by the eigenvector of the smallest above-zero eigenvalue.

    Returns (partition, fiedler_value, degenerate).  Entries with
    |v_i| <= 1e-12 join the positive cluster (label 0).  When the zero
    eigenvalue is multiple, at eig_sym's zero tolerance, degenerate is
    True, the Fiedler value (the algebraic connectivity) is 0.0, and the
    partition separates the components of the pattern |L_ij| > 1e-12, the
    one of index 0 against the rest, instead of relying on an arbitrary
    nullspace basis.  A disconnected operator always takes this exit, but
    so does a connected one whose second eigenvalue is below the
    tolerance, such as two blocks joined by weights far below ||L||_inf:
    when those weights pass 1e-12 it is one component, and every entry
    gets label 0.  When the Fiedler value is repeated, v is P e_a: the
    projection onto its eigenspace of the first index a that the
    eigenspace reaches, which is the same for every basis of it.

    `system` is an already computed `eig_sym(lap, 2)` (or a larger count),
    for a caller that also reads the spectrum; it is trusted to belong to
    `lap`.  When omitted, the components are searched first
    (`_splits_exactly`), and a Laplacian that falls apart is split with no
    eigensolve; any other matrix is decomposed here.
    """
    arr = np.asarray(lap, dtype=float)
    if arr.ndim == 2 and arr.shape[0] < 2:  # any other shape eig_sym rejects
        raise SpectralError("bipartition needs a matrix of size >= 2")
    if system is None and not _splits_exactly(arr):
        system = eig_sym(arr, 2)
    if system is None or system.zero_multiplicity > 1:
        # edges are the off-diagonal entries; the diagonal adds only self-loops
        comp = operators.connected_components(arr, atol=ZERO_ENTRY_TOL)
        return Partition(labels=comp != comp[0], c=2), 0.0, True
    basis = system.eigenvectors[:, system.fiedler_mask()]
    if basis.shape[1] == 1:
        vec = basis[:, 0]
    else:
        anchor = int(np.argmax(np.linalg.norm(basis, axis=1) > ZERO_ENTRY_TOL))
        vec = basis @ basis[anchor]
    labels = (vec < -ZERO_ENTRY_TOL).astype(int)
    return Partition(labels=labels, c=2), system.fiedler_value, False


def _splits_exactly(arr: np.ndarray) -> bool:
    """Whether `eig_sym(arr)` is bound to count more than one zero
    eigenvalue, decided with no eigensolve: `arr` is square, its
    off-diagonal pattern has more than one component even at atol 0, so the
    matrix that eig_sym solves, (M + M^T) / 2, is block diagonal, and every
    row of it sums to within half the zero tolerance of 0.  Then each
    block B has an eigenvalue within half the tolerance of 0, as its
    all-ones vector 1_B has ||B 1_B|| <= max |row sum| ||1_B||, and a
    backward-stable solver moves it by m eps ||M||, far less than the
    other half.  A Laplacian's rows sum to 0, so it qualifies whenever
    its pattern falls apart.  Input that does is validated here, with the
    messages of eig_sym; a matrix that is not square is left to it."""
    square = arr.ndim == 2 and arr.shape[0] == arr.shape[1]
    if not (square and operators.connected_components(arr).any()):
        return False
    _, tol, _ = _validated(arr)
    rows = 0.5 * (arr.sum(axis=0) + arr.sum(axis=1))
    return bool(np.abs(rows).max() <= 0.5 * tol)


def _kmeans_pp_init(points: np.ndarray, c: int, rngs: list) -> np.ndarray:
    """k-means++ seeding of one (c, d) center set per generator, stacked
    (runs, c, d): first center uniform, the rest D^2-sampled, every run
    drawing from its own generator."""
    m = points.shape[0]
    centers = np.empty((len(rngs), c, points.shape[1]))
    picks = np.array([int(rng.integers(m)) for rng in rngs])
    centers[:, 0] = points[picks]
    dist_sq = ((points - centers[:, :1]) ** 2).sum(axis=2)
    for idx in range(1, c):
        totals = dist_sq.sum(axis=1)
        cumulative = np.cumsum(dist_sq, axis=1)
        for run, rng in enumerate(rngs):
            if totals[run] <= 0:
                # all points coincide with chosen centers; any choice works
                picks[run] = int(rng.integers(m))
            else:
                r = rng.random() * totals[run]
                pick = int(np.searchsorted(cumulative[run], r, side="right"))
                picks[run] = min(pick, m - 1)
        centers[:, idx] = points[picks]
        dist_sq = np.minimum(dist_sq, ((points - centers[:, idx, None]) ** 2).sum(axis=2))
    return centers


def _repair_empty(dists: np.ndarray, labels: np.ndarray) -> None:
    """Hand every empty cluster, in order, the point currently farthest from
    its own center (one run's (m, c) distances and labels, both updated)."""
    m, c = dists.shape
    for cluster in range(c):
        if not np.any(labels == cluster):
            own = dists[np.arange(m), labels]
            farthest = int(own.argmax())
            labels[farthest] = cluster
            dists[farthest] = np.inf
            dists[farthest, cluster] = 0.0


def _lloyd(points: np.ndarray, centers: np.ndarray, max_iter: int = 300) -> tuple[np.ndarray, np.ndarray]:
    """Lloyd iterations of every run's centers (runs, c, d), updated in place;
    a run leaves the loop once its assignment repeats one it had before, the
    last (a fixed point) or an earlier one (a cycle), with the centers that
    assignment gives, so its result does not depend on `max_iter`.
    Returns each run's labels (runs, m) and within-cluster sum of squares.
    Each run computes what it would alone: a center is the sequential sum of
    its members over their count, as `members.mean(axis=0)` computes it."""
    (m, d), (runs, c) = points.shape, centers.shape[:2]
    labels = np.full((runs, m), -1)
    live = np.arange(runs)
    seen = [set() for _ in range(runs)]
    for _ in range(max_iter):
        if not live.size:
            break
        dists = ((points[None, :, None, :] - centers[live, None]) ** 2).sum(axis=3)
        new_labels = dists.argmin(axis=2)
        slots = np.arange(live.size)[:, None] * c + new_labels
        counts = np.bincount(slots.ravel(), minlength=live.size * c).reshape(-1, c)
        for row in np.flatnonzero((counts == 0).any(axis=1)):
            _repair_empty(dists[row], new_labels[row])
        labels[live] = new_labels
        slots = np.arange(live.size)[:, None] * c + new_labels
        counts = np.bincount(slots.ravel(), minlength=live.size * c).reshape(-1, c, 1)
        sums = np.bincount((slots[:, :, None] * d + np.arange(d)).ravel(),
                           weights=np.broadcast_to(points, (live.size, m, d)).ravel(),
                           minlength=live.size * c * d).reshape(-1, c, d)
        centers[live] = np.where(counts > 0, sums / np.maximum(counts, 1), centers[live])
        fresh = np.ones(live.size, dtype=bool)
        for row, run in enumerate(live):
            key = new_labels[row].tobytes()
            fresh[row] = key not in seen[run]
            seen[run].add(key)
        live = live[fresh]
    members = centers[np.arange(runs)[:, None], labels]
    wcss = ((points - members) ** 2).reshape(runs, -1).sum(axis=1)
    return labels, wcss


def spectral_kway(lap: np.ndarray, c: int, seed) -> Partition:
    """Unnormalized c-way spectral clustering: rows embedded into the first
    c eigenvectors (ascending, trivial included), then Lloyd k-means with
    k-means++ starts.  Runs RESTARTS restarts, batched in one Lloyd loop, on
    seeds derived deterministically from the RngSeed `seed`, and keeps the
    first with the lowest within-cluster sum of squares."""
    arr = np.asarray(lap, dtype=float)
    m = arr.shape[0]
    if c < 2:
        raise SpectralError(f"cluster count must be >= 2, got {c}")
    if c > m:
        raise SpectralError(f"cannot form {c} clusters from {m} elements")
    system = eig_sym(arr, c)
    points = np.ascontiguousarray(system.eigenvectors[:, :c])
    rngs = [_restart_rng(seed, restart) for restart in range(RESTARTS)]
    labels, wcss = _lloyd(points, _kmeans_pp_init(points, c, rngs))
    return Partition(labels=labels[int(wcss.argmin())], c=c)


def _restart_rng(seed, restart: int) -> np.random.Generator:
    return seed.spawn("kmeans", restart).generator()


def match_partitions(a: Partition, b: Partition) -> tuple[bool, float]:
    """Best-bijection comparison of two partitions of the same elements.

    Builds the confusion matrix and solves the assignment problem for the
    label bijection maximizing agreement.  Returns (equal_up_to_relabel,
    agreement fraction); equality holds iff the best bijection matches
    every element.
    """
    if len(a) != len(b):
        raise SpectralError(f"partition lengths differ: {len(a)} vs {len(b)}")
    m = len(a)
    if m == 0:
        return True, 1.0
    # imported here: scipy.optimize is 17 MB that only scoring needs
    from scipy.optimize import linear_sum_assignment

    size = max(a.c, b.c)
    confusion = np.zeros((size, size), dtype=np.int64)
    np.add.at(confusion, (a.labels, b.labels), 1)
    rows, cols = linear_sum_assignment(-confusion)
    matched = int(confusion[rows, cols].sum())
    agreement = matched / m
    return matched == m, agreement
