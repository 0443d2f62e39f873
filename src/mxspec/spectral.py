"""Symmetric eigendecomposition and spectral clustering.

Bipartitions come from the sign pattern of the eigenvector attached to the
smallest eigenvalue above a relative zero threshold (the Fiedler vector);
c-way clustering embeds each row into the first c eigenvectors (trivial one
included) and runs seeded Lloyd k-means with k-means++ initialization.

Each takes a matrix or a built `SupraOperator`.  An operator is
validated once, by the scan that makes its L (at its first read of L,
or at the build of one given its adjacency), and its ||L||_inf and
exactness are read from it (`_facts`); a bare matrix is checked by
`_validated`, with eig_sym's messages, once a call, where it first
needs those facts.  Both read only the lowest eigenpairs, which
`eig_sym(mat, count)` computes without the rest of the spectrum: by a
subset solve, or by a Lanczos solve whose decisions it proves to be the
exact matrix's before it uses them, from FIEDLER_LANCZOS_MIN rows on for
count <= 2 and from LANCZOS_MIN rows on for more.  Its certificates
alone decide: a solve they refuse, such as one of a disconnected
matrix, whose zero eigenvalue repeats, falls through to the subset
solve.  Its eigenvalue count and the supra layer
split's below are proved by Cholesky factorizations through one helper
(`_cholesky_certifies`), which states the lemma and its error budget.
An operator that keeps its layers (`build_supra`, `build_dynamic`)
takes the Lanczos path from them (`_LayerForm`): each product
multiplies through its k n x n layers, and the count runs on an n x n
Schur complement (`_schur_complement`; supra, and dynamic with C = I),
with the same exactness and O(k n^3) flops, so a certified solve fills
no nk x nk L.

Disconnected operators are degenerate for the relaxation: the zero
eigenvalue is multiple and any eigenbasis of the nullspace is
solver-arbitrary, so the bipartition falls back to connected components
(component of index 0 vs the rest), which is deterministic and cuts no
edges.  The pattern |L_ij| > 1e-12 is searched once per bipartition.  A
Laplacian whose pattern falls apart there, and is exactly block diagonal
(no nonzero entry between two components), is split from its components
alone, before any eigensolve, since the solve could only report the zero
eigenvalue repeated; its Fiedler value is 0.0.  Any other matrix whose
zero eigenvalue the solve finds repeated reuses the same components.  A
repeated Fiedler eigenvalue (the supra layer-split value k*w has
multiplicity k-1) is solver-arbitrary in the same way, so the split then
follows the projection P e_a of the first copy a onto that eigenspace,
which does not depend on the basis LAPACK returns.

Below a transition weight the supra Fiedler eigenspace is that layer
split, and its P e_0 is known in closed form: layer 0 against the rest.
`fiedler_bipartition` handed a `build_supra` operator decides it from
its k n x n layers first (`_LayerForm`), and builds its nk x nk L only
when they do not decide it.  Its components come from n x n searches
(`_falls_apart` reads the layers' row sums), and a connected one is
proved split with Cholesky factorizations instead of an eigensolve
(`_certifies_layer_split`): the layers' row sums bound how far the
layer-constant vectors are from invariant under the L that eig_sym would
read, whose diagonal the scan rounds; a Cholesky of each layer's n x n
block L_a + (k - 1) w I shows that no other eigenvalue lies within a
window above k*w (the zero tolerance, or 2 k n times the residual when
that is wider), which it can for k*w up to about min_a lambda_2(L_a)
less the window; and a Davis-Kahan bound keeps every sign of P e_0 on
its side of 1e-12.  The margins cover the zero tolerance, the residual,
the dense solver's error, the rounding of L's diagonal, and the rounding
of forming and factoring the Cholesky's matrix, so a certified split is
the one the dense path returns.  The dynamic model, a bare matrix, an
operator constructed from its adjacency, k = 1, and any failed check go
to `eig_sym` unchanged.  On fixed-SBM nets at n = 100 over the desk
grid (p = 0.1-1.0, w in {0.1, 1, 2, 5}, one net a point; BLAS at one
thread, a shared 2-core host, best of 5, two runs) the build and the
bipartition take a median of 0.28-0.29 ms on the 39 certified points at
k = 2, 0.63-0.64 ms on the 36 at k = 6 (m = 600) and 1.05 ms on the 32
at k = 10 (m = 1000), where building L first and deciding from it took
0.52-0.58, 5.1-6.9 and 10.9-11.3 ms.  A refused point goes to
`eig_sym`, whose Lanczos path also reads the layers: 4.2-4.4 ms at k =
6 (4 points) and 5.9-6.2 ms at k = 10 (8 points), where filling L and
solving it took 10.4 and 25.1-27.6 ms.
"""

from __future__ import annotations

import functools
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
# first when count >= 3.  spectral_kway reads the vectors' values, which
# the certificates do not cover, so its labels stay on the dense path up
# to here.  An attempt that does not certify is paid before the subset
# solve; on fixed-SBM supra Laplacians with a repeated Fiedler value it
# cost +13-19 % of the subset solve from m = 1500 on, where a certified
# one saves about 60 %
LANCZOS_MIN = 1500
# the same order when count <= 2, the Fiedler pair, set at the measured
# crossover.  On fixed-SBM and ER nets (n = 100, both models, BLAS at one
# thread) a certified solve took a median 0.69 of the subset solve's time
# at m = 500 (0.50-1.02) and 0.47-0.94 at m = 600, but up to 1.28 at
# m = 400 (supra at k w = 80-120).  A refused attempt, as on a repeated
# Fiedler value, adds 5-45 % at m = 500-600 and up to 21 % at m = 1000
FIEDLER_LANCZOS_MIN = 500
# ARPACK restarts before the Lanczos path gives up.  Certified runs on
# fixed-SBM and ER Laplacians at m = 1500-2000 took 1-21, sparse ER (mean
# degree 5-20) the most, and count-2 runs at m = 400-1000 took 2-10.
# Runs that did not certify stopped by convergence after 48-205 products;
# a run that reaches the cap makes about 340
LANCZOS_MAXITER = 20
# ARPACK's relative residual target, on the operator shifted by a bound
# on its norm, so about this times ||A||_inf: the certificates need
# residuals far below the gaps, not at rounding level
LANCZOS_TOL = 1e-10


@dataclass(frozen=True)
class EigenSystem:
    """The lowest eigenpairs that `eig_sym(mat, count)` returns, at least
    min(count, m) of them and all m after a full solve: ascending
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
        with np.errstate(invalid="ignore"):  # a NaN, inf or 1e300 the cast cannot hold
            labels = np.asarray(self.labels).astype(int)  # a copy; a label it changes is refused below
        if labels.ndim != 1:
            raise SpectralError("labels must be a 1-d vector")
        if labels.size and (labels.min() < 0 or labels.max() >= self.c
                            or not np.array_equal(labels, self.labels)):
            raise SpectralError(f"labels must be integers in [0, {self.c})")
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


def eig_sym(mat, count: int) -> EigenSystem:
    """Dense symmetric eigendecomposition with deterministic sign fixing:
    each eigenvector is flipped so its first entry of magnitude > 1e-12 is
    positive (a column with no such entry is left as it is).

    The lowest max(count, SUBSET_MIN) eigenpairs, from one subset solve
    (LAPACK's MRRR driver), or the full spectrum (`np.linalg.eigh`) when
    that is at least the order m, as for `count` = m; when the last of
    the subset still equals eigenvalue count-1 or the Fiedler value, the
    subset may end inside that eigenspace, and the full spectrum is
    solved instead.  So the eigenspace of every returned eigenvalue up to
    index count-1, and of the Fiedler value, is always returned whole.

    From FIEDLER_LANCZOS_MIN rows on for a `count` of at most 2, and from
    LANCZOS_MIN rows on for a larger one, a `count` below m - 1 is first
    tried by the certified Lanczos path (`_certified_lanczos`), with no
    connectivity search: it returns count + 1 pairs when it proves that
    their zero, repeat and sign decisions are those of the exact matrix,
    and the subset solve above runs only when it cannot, as on a
    disconnected M, whose repeated zero eigenvalue fails the separation
    check or the count certificate, or on a repeated Fiedler value.  That
    proof covers what `fiedler_bipartition` reads, so its labels, the
    zero and Fiedler multiplicities and `degenerate` are the subset
    solve's; the Fiedler value is the Ritz value, within its residual of
    the exact one.  An operator that keeps its layers (`build_supra`,
    `build_dynamic`) takes the path from its layers (`_LayerForm`), whose
    products multiply through the k layers: a certified solve reads
    nothing of L, and its zero tolerance is the upper bound `tol_hi`,
    which decides as the exact one does.  Only a refusal reads L, for the
    subset solve.  `spectral_kway` also reads the vectors' values, which
    are the exact ones only to within the residuals, so its labels on this
    path are not certified: for c >= 3 it keeps the higher order, and c =
    2 follows the Fiedler pair's.

    `mat` is a matrix M or a `SupraOperator`, whose Laplacian is M.  An
    eigenvalue counts as zero up to 1e-8 max(1, ||M||_inf), which bounds
    every eigenvalue's magnitude (Gershgorin).  An exactly symmetric input
    goes to LAPACK as it is; one that is symmetric only within 1e-10 is
    replaced by (M + M^T) / 2 first.  An operator's ||M||_inf and
    exactness are the ones the scan making its L found; a bare matrix is
    checked here (`_validated`).  A LAPACK failure raises SpectralError."""
    if count < 1:
        raise SpectralError(f"eigenpair count must be >= 1, got {count}")
    layered = isinstance(mat, operators.SupraOperator) and mat.layers is not None
    values = None
    if layered and _tries_lanczos(mat.num_copies, count):
        form = _LayerForm(mat)
        values, vectors = _certified_lanczos(form, count)
        tol = form.tol_hi
    if values is None:
        arr, norm, tol, exact = _facts(mat)
        m = arr.shape[0]
        sym = arr if exact else 0.5 * (arr + arr.T)
        if not layered and _tries_lanczos(m, count):
            values, vectors = _certified_lanczos(_Dense(sym, norm, tol), count)
    size = max(count, SUBSET_MIN)
    try:
        if values is None and size < m:
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


def _tries_lanczos(m: int, count: int) -> bool:
    """Whether `eig_sym(mat, count)` of order m tries the certified
    Lanczos path first."""
    return count + 1 < m and m >= (FIEDLER_LANCZOS_MIN if count <= 2 else LANCZOS_MIN)


def _facts(mat) -> tuple[np.ndarray, float, float, bool]:
    """(M, ||M||_inf, the zero tolerance, whether M is exactly symmetric)
    of an operator's Laplacian or of a `_Scanned` matrix, as the scan that
    made or checked it found them, or of any other input by `_validated`."""
    if isinstance(mat, (operators.SupraOperator, _Scanned)):
        return mat.laplacian, mat.norm, 1e-8 * max(1.0, mat.norm), mat.exact
    arr = np.asarray(mat, dtype=float)
    return (arr, *_validated(arr))


@dataclass(frozen=True)
class _Scanned:
    """A bare matrix with the ||M||_inf and exactness `_validated` found in
    it, for a call that scanned it to hand `eig_sym`, which reads them
    instead of scanning it again."""

    laplacian: np.ndarray
    norm: float
    exact: bool

    shape = property(lambda self: self.laplacian.shape)


def _validated(arr: np.ndarray) -> tuple[float, float, bool]:
    """(||M||_inf, the zero tolerance, whether M is exactly symmetric) of a
    square float matrix M with finite row sums that is symmetric within
    1e-10 max(1, max |M_ij|); any other input raises SpectralError."""
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise SpectralError(f"expected a square matrix, got shape {arr.shape}")
    if not arr.size:
        raise SpectralError("expected a matrix of size >= 1, got shape (0, 0)")
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


class _Dense:
    """The certified Lanczos path's view of an exactly symmetric m x m
    matrix A, with ||A||_inf = `norm` and zero tolerance `tol`: products
    by BLAS `dsymv`, which reads one triangle of A, residuals by one
    matrix product, and the count m x m."""

    offset = 0.0

    def __init__(self, sym: np.ndarray, norm: float, tol: float):
        self.sym, self.m = sym, sym.shape[0]
        self.norm_hi, self.tol_lo, self.tol_hi = norm, tol, tol
        # sym is exactly symmetric, so sym.T is the same matrix: whichever
        # of the two is Fortran-ordered reaches dsymv without a copy
        self.upper = sym.T if sym.flags.c_contiguous else np.asfortranarray(sym)

    def product(self, x: np.ndarray) -> np.ndarray:
        return blas.dsymv(1.0, self.upper, x) if x.ndim == 1 else self.sym @ x

    def matrix(self) -> tuple[np.ndarray, float]:
        return self.sym, self.norm_hi


def _certified_lanczos(form, count: int) -> tuple:
    """The lowest count + 1 Ritz pairs of the exactly symmetric m x m
    matrix A of `form`, as (ascending values, vector columns), when they
    are proved to decide the zero count, the Fiedler multiplicity and
    every sign that `fiedler_bipartition` reads as the exact eigenpairs
    do; else (None, None).  `form` is a `_Dense` matrix, or the
    `_LayerForm` of an operator that keeps its layers, whose A is the L
    that its first read would fill: either gives the products, a bound
    norm_hi >= ||A||_inf, an interval [tol_lo, tol_hi] that holds eig_sym's
    zero tolerance, and the count of step 2.

    1. ARPACK's implicitly restarted Lanczos (`eigsh`, which="SA") on
       A' + norm_hi I, from a fixed start vector, m standard normal draws
       of numpy's default generator seeded 0, with at most
       LANCZOS_MAXITER restarts and a relative residual target of
       LANCZOS_TOL, gives Ritz pairs (theta_j + norm_hi, v_j), and the
       same products the residual norms r_j = ||A' v_j - theta_j v_j||.
       For a matrix A' is A, each product a BLAS `dsymv` that reads one
       triangle of it; for a layered form A' is the matrix that its
       layer-wise product applies, within the form's `offset` of A in
       2-norm, with the product's rounding, so that r_j + offset bounds
       ||A v_j - theta_j v_j||.  The shift leaves the Krylov spaces as
       they are and lifts every eigenvalue to at least 0, so ARPACK's
       stopping test, a residual within LANCZOS_TOL of the Ritz value (of
       eps^(2/3) at 0), asks about LANCZOS_TOL ||A||_inf of each pair: a
       zero eigenvalue, which unshifted must reach 1e-21, can meet it,
       and a run no longer stops with the pairs above it converged and
       that one left out.  The same input gives the same bits.
    2. Count certificate: a Cholesky factorization of A - mu I +
       tau V V^T (V the first count vectors, tau = ||A||_inf + |floor|)
       that succeeds, with mu just above floor = (theta_{count-1} +
       theta_count) / 2, proves that at most count eigenvalues lie at or
       below floor (`_cholesky_certifies`, which states the lemma).  On a
       layered form the same count is proved n x n instead, from the
       layers, through a Schur complement (`_schur_complement`); where it
       forms none, A is counted m x m, and a layered form fills L for it
       (`_count_certifies`).
    3. The first count Ritz values, each within r_j + offset (plus
       rounding) of an eigenvalue, must lie more than tol_hi plus their
       radii apart from each other and from floor, and beyond their radii
       on one side of the whole interval [tol_lo, tol_hi].  Then each of
       them pins exactly one eigenvalue, the count lowest are all
       accounted for, and the zero count, the Fiedler value's index and
       its multiplicity of 1 are what a backward-stable dense solver
       decides, at every zero tolerance in the interval.
    4. Sign certificate (Davis-Kahan sin theta): with delta_j the
       distance from theta_j to every other possible eigenvalue, the unit
       eigenvector lies within beta_j = sqrt2 (r_j + offset + m eps
       norm_hi) / delta_j of +-v_j.  Every entry must satisfy ||v_ij| -
       1e-12| > beta_j, so each one's side of the +-1e-12 thresholds that
       sign fixing and `fiedler_bipartition` read is that of the exact
       vector.

    The last pair only witnesses the gap above floor; its vector is a Ritz
    vector and is not certified.  The checks run cheapest first."""
    m, shift = form.m, form.norm_hi
    product = LinearOperator((m, m), matvec=lambda x: form.product(x) + shift * x, dtype=float)
    try:
        values, vectors = eigsh(product, k=count + 1, which="SA", tol=LANCZOS_TOL,
                                maxiter=LANCZOS_MAXITER, v0=np.random.default_rng(0).standard_normal(m))
    except (ArpackNoConvergence, ArpackError):
        return None, None
    order = np.argsort(values)
    values, vectors = values[order] - shift, vectors[:, order]
    if not (np.isfinite(values).all() and np.isfinite(vectors).all()):
        return None, None
    residuals = np.linalg.norm(form.product(vectors) - vectors * values, axis=0)
    # rounding in a residual, and a dense solver's eigenvalue error
    slack = m * np.finfo(float).eps * form.norm_hi
    floor = 0.5 * (values[count - 1] + values[count])
    theta, radius = values[:count], residuals[:count] + form.offset + slack
    apart = np.abs(theta[:, None] - theta) - radius  # [j, i]: theta_j to eigenvalue i
    np.fill_diagonal(apart, np.inf)
    gap = np.minimum(apart.min(axis=1), floor - theta)
    # the dense eigenvalue j lies within radius_j + slack of theta_j
    beyond = radius + slack
    if not ((gap - radius - 2 * slack > form.tol_hi).all()
            and ((theta - form.tol_hi > beyond) | (form.tol_lo - theta > beyond)).all()
            and theta[-1] > form.tol_hi):
        return None, None
    beta = np.sqrt(2.0) * radius / gap
    if not (np.abs(np.abs(vectors[:, :count]) - ZERO_ENTRY_TOL) > beta).all():
        return None, None
    certified = _count_certifies(form, floor, vectors[:, :count])
    return (values, vectors) if certified else (None, None)


def _count_certifies(form, floor: float, basis: np.ndarray) -> bool:
    """Whether at most r eigenvalues of the m x m matrix of `form` (a
    `_Dense` matrix or a `_LayerForm`, as for `_certified_lanczos`) lie at
    or below `floor`, r the number of columns of `basis`: by
    `_schur_complement`'s n x n matrix when a layered form forms one,
    whose r lowest eigenvectors (one subset solve) are the basis of
    `_cholesky_certifies`, and else by `_cholesky_certifies` on the m x m
    matrix with `basis`, which a layered form fills (its operator's L).

    The n x n call takes twice ||X||_inf as its norm.  Its sigma then
    lifts the r lowest eigenvalues of X, which can reach -||X||_inf,
    above the floor by about ||X||_inf, where ||X||_inf itself would
    leave them within rounding of it; the norm only widens the helper's
    margins, so any bound at least ||X||_inf is sound."""
    r = basis.shape[1]
    schur = _schur_complement(form, floor, r) if isinstance(form, _LayerForm) else None
    if schur is None:
        return _cholesky_certifies(*form.matrix(), floor, basis)
    schur, error = schur
    try:
        lowest = linalg.eigh(schur, driver="evr", subset_by_index=[0, r - 1], check_finite=False)[1]
    except np.linalg.LinAlgError:
        return False
    return _cholesky_certifies(schur, 2 * float(np.abs(schur).sum(axis=1).max()), error, lowest)


def _cholesky_certifies(mat: np.ndarray, norm: float, floor: float, basis: np.ndarray) -> bool:
    """Whether one Cholesky factorization proves that at most r eigenvalues
    of the exactly symmetric m x m `mat` A, with ||A||_inf = `norm`, lie at
    or below `floor`, given the m x r `basis` V.  Every spectral
    certificate counts eigenvalues by this lemma and its one error budget:
    the Lanczos count, m x m or on an n x n Schur complement, and each
    layer of the supra split.

    It forms H = A - mu I + sigma V V^T, sigma = ||A||_inf + |floor|, in
    one m x m buffer, a copy of A with mu taken from its diagonal and
    sigma V V^T added to one triangle by BLAS `dsyrk`, and factors it
    there in place by LAPACK's `dpotrf`.  With u = eps / 2, gamma_j =
    j u / (1 - j u) (Higham, Accuracy and Stability of Numerical
    Algorithms, ch. 3), s the largest row sum of |V|^T |V|, which bounds
    || |V| ||_2^2 (at most r for unit columns, 1 for orthonormal columns
    of entries >= 0), and rho = ||A||_inf + |mu| + s sigma, which bounds
    ||H||_2 as ||V V^T||_2 <= s:

    - Forming.  An entry of H sums a_ij - mu [i = j], one rounding, and
      r products sigma v_il v_jl, two roundings each, by r additions, so
      the buffer holds H + F with |F| <= gamma_{r+2} (|A| + |mu| I +
      sigma |V| |V|^T), and ||F||_2 <= gamma_{r+2} rho, as || |A| ||_2
      <= ||A||_inf for a symmetric A.
    - Factoring (Higham thm 10.3).  A `dpotrf` that succeeds factors
      H + F + E = R^T R, positive definite, with ||E||_2 <= m gamma_{m+1}
      ||H + F||_2 / (1 - m gamma_{m+1}).  To first order ||F + E||_2 is
      below ((m + 1) m + r + 2) u rho, so e = c rho with c = ((m + 1) m +
      r + 2) eps covers the higher orders too: H + e I is positive
      definite.
    - Counting (Courant-Fischer).  Then every x orthogonal to span V has
      x^T A x = x^T H x + mu ||x||^2 > (mu - e) ||x||^2, and every
      subspace of dimension r + 1 holds such an x, so eigenvalue r + 1 of
      A (from the lowest) lies above mu - e.  With mu = floor +
      c (||A||_inf + |floor| + s sigma) / (1 - c), |mu| <= |floor| +
      mu - floor gives mu - e >= floor."""
    m, r = basis.shape
    s = (np.abs(basis).T @ np.abs(basis)).sum(axis=1).max()  # >= || |V| ||_2^2
    sigma = norm + abs(floor)
    c = ((m + 1) * m + r + 2) * np.finfo(float).eps
    mu = floor + c * (1 + s) * sigma / (1 - c)
    shifted = mat.copy()  # C order: shifted.T is the Fortran array LAPACK overwrites
    shifted.reshape(-1)[:: m + 1] -= mu
    blas.dsyrk(sigma, basis, beta=1.0, c=shifted.T, overwrite_c=True)
    _, info = lapack.dpotrf(shifted.T, clean=False, overwrite_a=True)
    return info == 0


def _schur_complement(form: _LayerForm, floor: float, r: int) -> tuple[np.ndarray, float] | None:
    """(the n x n matrix X, e) such that, when at most r eigenvalues of X
    lie at or below e, at most r eigenvalues of the L of an operator that
    keeps its layers (n x n, k >= 2 of them) lie at or below `floor`; or
    None, for the m x m count.  It reads the layers alone, through `form`
    (`_LayerForm`), whose L' lies within rho max D^ of the L that the
    operator's first read would fill.  O(k n^3) flops and a few n x n
    arrays.

    With mu just above floor, L' - mu I = G - U W U^T, G positive definite
    and U W U^T of rank at most 2n.  Haynsworth's inertia additivity
    (Linear Algebra Appl. 1, 1968) applied to [[G, U], [U^T, W^-1]] both
    ways equates the number of eigenvalues <= 0 of L' - mu I and of an n x
    n Schur complement X, every G, W and X exactly the matrices named:

    - Supra: G = blockdiag(G_a), G_a = B_a - (mu - w) I with B_a =
      diag(D^_a) - S_a formed from the layers (`_LayerForm.block`), and
      U W U^T = w J J^T, J = 1_k (x) I_n, as every off-diagonal block of
      L' is exactly -w I.  X = T = I / w - sum_a G_a^-1.  B_a is about
      L_a + (k - 1) w I, whose lowest eigenvalue is (k - 1) w, so G_a is
      positive only when floor < k w.
    - Dynamic with C = I: S' = (J F^T + F J^T) / 2 with F the stack of
      the A_a^T (each >= 0 with a zero diagonal), G = Delta = D^ - mu,
      diagonal, and X = P = (2I - Z)^T D^-1 (2I - Z) - sum_a A_a
      Delta_a^-1 A_a^T, with Z = sum_a Delta_a^-1 A_a^T (its diagonal 0)
      and D = sum_a Delta_a^-1.

    The budget, with u = eps / 2 and gamma_j = j u / (1 - j u) <= j eps
    (Higham, Accuracy and Stability of Numerical Algorithms, ch. 3; no
    underflow):

    - The layers.  ||L - L'||_2 <= rho max D^ (`_LayerForm`: the rounding
      of L's diagonal, and for dynamic that of its fill), which mu -
      floor adds (`_schur_shift`).
    - The diagonal.  G_a = fl(B_a - fl(mu - w)) (w = 0 for Delta) is G_a
      exactly at a mu' within u |mu - w| of mu, plus a diagonal of norm u
      max |D^_i - mu'|: L' - mu I lies within u (2 |mu - w| + norm_hi) of
      the G - U W U^T formed, which 2 eps (norm_hi + |floor| + w) in mu -
      floor covers, with the rounding of mu itself.
    - The inverses.  Each G_a is factored by `dpotrf`, inverted by
      `dpotri` into X_a, and its residual R = fl(X_a G_a - I) taken,
      within gamma_{n+1} (|X_a| |G_a| + I) of the exact one: ||X_a G_a -
      I||_2 <= rho = ||R||_F + (n + 1) eps (||X_a||_inf ||G_a||_inf + 1).
      With rho < 1, G_a^-1 = (I + X_a G_a - I)^-1 X_a has 2-norm at most
      g = ||X_a||_inf / (1 - rho), and X_a - G_a^-1 = (X_a G_a - I)
      G_a^-1 at most rho g.  The factorization puts every eigenvalue of
      G_a above -(n + 1) n eps ||G_a||_inf (Higham thm 10.3, as in
      `_cholesky_certifies`), and each has magnitude at least 1 / g, so
      G_a is positive definite when (n + 1) n eps ||G_a||_inf g < 1.
      Delta's inverses are reciprocals, inside the next item.
    - Forming X.  T sums I / w and the k matrices -X_a: within (k + 1)
      eps (1 / w + sum_a ||X_a||_inf).  P is one BLAS `dsyrk` of W =
      D^-1/2 (2I - Z) and one with beta = 1 for each B_a = A_a
      Delta_a^-1/2, all of them entries within gamma_{2k+4} (W) and
      gamma_3 (B_a) of the exact ones, as are the reciprocals, square
      roots and sums of positive terms that make them; each entry of P
      sums (k + 1) n products through k + 1 more roundings, so P lies
      within gamma_K (|W|^T |W| + sum_a B_a B_a^T), K = (k + 1) n + 5 k +
      10, of 2-norm at most gamma_K (||W||_F^2 + sum_a ||B_a||_F^2);
      K eps, twice K u, covers the higher orders and the rounding of the
      norms.

    e = sum_a rho g + (k + 1) eps (1 / w + sum_a ||X_a||_inf) for T, and
    K eps (||W||_F^2 + sum_a ||B_a||_F^2) for P, bounds the distance of
    the computed X from the exact one.  When at most r eigenvalues of X
    lie at or below e, at most r of the exact X lie at or below 0 (Weyl),
    as many of G - U W U^T, so eigenvalue r + 1 of L' lies above mu less
    the diagonal's rounding, and that of L above mu less the first two
    items, at least floor.

    None when the count is not this: k = 1, r >= n, a dynamic coupling
    other than C = I, supra at w = 0 or with floor >= k w, or a G_a or
    Delta that is not proved positive definite."""
    n, k = form.n, form.k
    if k < 2 or r >= n:
        return None
    eps = np.finfo(float).eps
    # the strict lower triangle, where the Fortran-ordered inverses and
    # `dsyrk` leave no result
    lower = np.tri(n, k=-1, dtype=bool)
    if form.model == "supra":
        w = form.w
        if not (w > 0 and floor < k * w):
            return None
        shift = _schur_shift(form, floor) - w
        schur = np.zeros((n, n))
        error, sizes = 0.0, 0.0
        for a in range(k):
            block = form.block(a, shift)
            inverse, info = lapack.dpotrf(block.T, clean=False)  # a copy: block stays G_a
            if info == 0:
                inverse, info = lapack.dpotri(inverse, overwrite_c=True)
            if info != 0:
                return None
            np.copyto(inverse, inverse.T, where=lower)
            residual = inverse @ block
            residual.reshape(-1)[:: n + 1] -= 1.0
            residual = float(np.linalg.norm(residual))
            size, spread = (float(np.abs(mat).sum(axis=1).max()) for mat in (inverse, block))
            rho = residual + (n + 1) * eps * (size * spread + 1)
            bound = size / (1 - rho) if rho < 1 else np.inf
            if not (n + 1) * n * eps * spread * bound < 1:
                return None
            error += rho * bound
            sizes += size
            schur -= inverse
        schur.reshape(-1)[:: n + 1] += 1.0 / w
        return schur, error + (k + 1) * eps * (1.0 / w + sizes)
    if not (form.coupling == 1.0).all():
        return None
    delta = form.degrees - _schur_shift(form, floor)
    if not (delta > 0).all():
        return None
    inv = 1.0 / delta
    outer = np.zeros((n, n))  # Z, then W
    for a, layer in enumerate(form.layers):
        outer += inv[a][:, None] * layer.T
    np.negative(outer, out=outer)
    outer.reshape(-1)[:: n + 1] += 2.0
    outer *= np.sqrt(1.0 / inv.sum(axis=0))[:, None]
    squares = float(np.dot(outer.reshape(-1), outer.reshape(-1)))
    schur = blas.dsyrk(1.0, outer.T)  # W^T W, upper triangle, Fortran order
    del outer
    for a, layer in enumerate(form.layers):
        scaled = layer * np.sqrt(inv[a])
        squares += float(np.dot(scaled.reshape(-1), scaled.reshape(-1)))
        schur = blas.dsyrk(-1.0, scaled.T, beta=1.0, c=schur, trans=1, overwrite_c=True)
    np.copyto(schur, schur.T, where=lower)
    return schur, ((k + 1) * n + 5 * k + 10) * eps * squares


def _schur_shift(form: _LayerForm, floor: float) -> float:
    """The mu of `_schur_complement`: floor + 2 eps (norm_hi + |floor| +
    w), for the rounding of the diagonal it forms (w = 0 for dynamic),
    plus rho max D^, the distance of L from the L' of the layers."""
    return floor + 2 * np.finfo(float).eps * (form.norm_hi + abs(floor) + form.w) + form.spread * form.top


class _LayerForm:
    """What the layer-form proofs and the layer-wise product read of an
    operator that keeps its layers (`build_supra`, `build_dynamic`), with
    n nodes and k layers, from its layers alone, with nothing of size nk
    x nk.

    The L that the operator's first read would fill is exactly symmetric,
    diag(d) - S, each diagonal entry d the sum of the m entries of its row
    of S as the scan rounds it.  Beside it stands L' = diag(D^) - S', of
    the layers: `degrees` holds D^, the degrees summed from the layers,
    and S' the exact S of the model.  With u = eps / 2 and gamma_j = j u /
    (1 - j u), every term being >= 0:

    - Supra (weight w): S holds S_a = symmetrize(A_a), non-negative with a
      zero diagonal, in its diagonal block a and w I in every other, and
      S' = S bit for bit.  The exact degree is D = s + (k - 1) w, s the
      row sums of S_a, D^ = fl(s) + fl((k - 1) w) lies within gamma_{n+1}
      D of it and d within gamma_{m-1} D, so `spread` rho = (m + n) eps
      bounds both |d - D| and |d - D^| by rho D^, with room for the higher
      orders.
    - Dynamic (coupling C): S' holds (C^{a,b} A_b + (C^{b,a} A_a)^T) / 2
      in block (a, b) exactly, and L each entry rounded through two
      products and a sum, within gamma_2 S'.  D^ = (sum_b c^{a,b} r_b +
      A_a^T sum_b c^{b,a}) / 2, r_b the row sums of A_b, lies within
      gamma_{n+k} of the exact degree D and d within gamma_{m-1} +
      gamma_2, and ||S - S'||_2 <= ||S - S'||_inf <= gamma_2 max D: S is
      rounded once more than supra's, and rho = (m + n + k + 3) eps bounds
      |d - D^| plus that by rho max D^, with room for the higher orders.

    Either way ||L - L'||_2 <= rho max D^.  The scan's ||L||_inf sums d
    and a row of S with m - 1 roundings more, so it lies within 2 max D^
    (1 -+ 2 rho), `norm_lo` and `norm_hi`, and eig_sym's zero tolerance
    1e-8 max(1, ||L||_inf), monotone in it as rounded, within `tol_lo`
    and `tol_hi`."""

    def __init__(self, op: operators.SupraOperator):
        n, k = op.n, op.k
        self.op, self.n, self.k, self.m, self.model = op, n, k, n * k, op.model
        eps = np.finfo(float).eps
        if op.model == "supra":
            self.w = op.coupling
            self.syms = np.empty((k, n, n))
            for sym, layer in zip(self.syms, op.layers):
                np.add(layer, layer.T, out=sym)
            self.syms *= 0.5  # symmetrize(A_a), bit for bit, in one stack
            self.sums = np.array([sym.sum(axis=1) for sym in self.syms])
            self.degrees = self.sums + (k - 1) * self.w
            self.spread = (self.m + n) * eps
            # whether a -w links the copies of a node in L's pattern at 1e-12
            self.tiled = k == 1 or self.w > ZERO_ENTRY_TOL
        else:
            self.w = 0.0  # no clique between the copies
            self.layers, self.coupling = op.layers, op.coupling.diag  # [a, b, i]: c^{a,b}_i
            into = np.einsum("abi,bi->ai", self.coupling, [layer.sum(axis=1) for layer in self.layers])
            self.degrees = 0.5 * (into + self._transposed(self.coupling.sum(axis=0)))
            self.spread = (self.m + n + k + 3) * eps
        self.top = float(self.degrees.max())
        self.norm_lo = 2 * self.top * (1 - 2 * self.spread)
        self.norm_hi = 2 * self.top * (1 + 2 * self.spread)
        self.tol_lo, self.tol_hi = (1e-8 * max(1.0, norm) for norm in (self.norm_lo, self.norm_hi))
        # ||L - L'||_2, and the rounding of `product`: each entry sums at
        # most n + k + 3 rounded terms, of magnitude (D^ + S') |x| in all,
        # whose 2-norm is at most 2 max D^ ||x||
        self.offset = (self.spread + (n + k + 3) * eps) * self.top

    def _transposed(self, stack: np.ndarray) -> np.ndarray:
        """A_a^T x_a for every layer a of a dynamic form, x stacked k x n
        (x p)."""
        return np.array([layer.T @ part for layer, part in zip(self.layers, stack)])

    def block(self, a: int, shift: float = 0.0) -> np.ndarray:
        """B_a - shift I, in a new array, B_a = diag(D^_a) - S_a the
        diagonal block a of a supra L', whose off-diagonal entries are L's
        bit for bit."""
        block = np.subtract(0.0, self.syms[a])  # -S_a, its zero diagonal +0.0
        np.fill_diagonal(block, self.degrees[a] - shift)
        return block

    def product(self, x: np.ndarray) -> np.ndarray:
        """L' x, for x of m rows, multiplied through the k layers.  Supra:
        y_a = B_a x_a - w (sum_b x_b - x_a), B_a x_a = D^_a o x_a - S_a x_a
        one batched matmul over the stacked S_a.  Dynamic, any coupling:
        y_a = D^_a o x_a - [sum_b c^{a,b} o (A_b x_b) + A_a^T (sum_b c^{b,a}
        o x_b)] / 2, two matrix products a layer."""
        stack = x.reshape(self.k, self.n, -1)
        if self.model == "supra":
            out = self.degrees[:, :, None] * stack - self.syms @ stack
            out -= self.w * (stack.sum(axis=0) - stack)
        else:
            applied = np.array([layer @ part for layer, part in zip(self.layers, stack)])
            mixed = np.einsum("abi,bip->aip", self.coupling, applied)
            mixed += self._transposed(np.einsum("bai,bip->aip", self.coupling, stack))
            out = self.degrees[:, :, None] * stack - 0.5 * mixed
        return out.reshape(x.shape)

    def matrix(self) -> tuple[np.ndarray, float]:
        """The operator's L and ||L||_inf, filled on the first read."""
        return self.op.laplacian, self.op.norm

    def components(self) -> np.ndarray:
        """The labels `operators.connected_components` gives L's pattern
        |L_ij| > 1e-12, from n x n searches.  Where -w links the copies of
        each node, a component holds every copy of each node of one
        component of the union pattern, max_a S_a > 1e-12, and label order
        follows layer 0, which has a copy of every node: the union's labels
        tiled over the layers.  Elsewhere each layer's pattern S_a
        > 1e-12 falls into its own components, labeled layer by layer."""
        if self.tiled:
            union = functools.reduce(np.maximum, self.syms)
            return np.tile(operators.connected_components(union, atol=ZERO_ENTRY_TOL), self.k)
        labels, count = [], 0
        for sym in self.syms:
            labels.append(operators.connected_components(sym, atol=ZERO_ENTRY_TOL) + count)
            count = labels[-1].max() + 1
        return np.concatenate(labels)


def _certifies_layer_split(op: operators.SupraOperator, form: _LayerForm | None = None) -> bool:
    """Whether `eig_sym(op, 2)` on the connected `build_supra` operator
    `op`, with n nodes, k layers and Laplacian L, is proved, with no
    eigensolve, to lead `fiedler_bipartition` to layer 0 against the rest,
    with `degenerate` False.  It reads only the layers, through `form`
    (`_LayerForm`, made here when not given), and builds no L; an operator
    given its adjacency has no layers, and is refused.

    On a supra Laplacian L = blockdiag(L_a) + w (k I - J_k) (x) I_n the
    layer-constant vectors S = {x (x) 1_n} are invariant: L Y = Y B with
    Y = I_k (x) 1_n / sqrt n and B = w (k I - J_k), whose eigenvalues are
    0 and v = k w, k - 1 times (Gomez et al., PRL 110, 2013; Radicchi &
    Arenas, Nat. Phys. 9, 2013).  The L that eig_sym reads holds the
    rounded degrees d, not the exact D (`_LayerForm`).  The proof, with
    eps the machine epsilon and rho, D^, tol_lo, tol_hi and ||L||_inf
    <= norm_hi as `_LayerForm` bounds them:

    1. Residual.  R = L Y - Y B is (d_i - D_i) / sqrt n in row (a, i),
       column a, and 0 elsewhere, as every other block sum of L is exact:
       so ||R||_F <= rho ||D^||_2 / sqrt n, read from the layers' row sums.
       By Kahan's residual theorem (Parlett, The Symmetric Eigenvalue
       Problem, thm 11.5.1) k eigenvalues of L lie within ||R||_F of 0,
       v, ..., v.  A backward-stable dense solve puts them within r =
       rho ||D^||_2 / sqrt n + 3 m eps norm_hi: the solver's own error,
       with the margin it had when the residual was summed from L.  With
       2 r <= tol_lo and v - r > tol_hi, one of them counts as zero under
       eig_sym's tolerance tol and the other k - 1 as one repeated
       Fiedler value.
    2. Count.  Let the window be max(tol_hi + r, 2 k n r) and floor = v +
       window + m eps norm_hi.  When x^T L x > floor ||x||^2 for every x
       orthogonal to span Y, at most k eigenvalues of L lie at or below
       floor (Courant-Fischer).  Every other one, as a dense solve
       computes it, lies more than tol above the Fiedler value: the
       Fiedler eigenspace is the k - 1 pairs near v and no more.

       It is shown one layer at a time.  Write L = blockdiag(L_aa) + O,
       O the off-diagonal blocks, -w I each, so ||O||_inf = (k - 1) w;
       off = fl((k - 1) w) + m eps norm_hi covers its rounding.  Such an x
       has each layer part x_a orthogonal to 1_n, and x^T O x >= -||O||_2
       ||x||^2 >= -||O||_inf ||x||^2, as O is symmetric.  L_aa = L_a +
       (k - 1) w I is formed n x n from the layers as diag(D^_a) - S_a,
       which differs from L's block by diag(d_a - D^_a), of 2-norm at
       most rho max D^.  So it suffices that each formed block passes
       `_cholesky_certifies(block, ||block||_inf, floor + off + rho max D^,
       1_n / sqrt n)`: then x_a^T L_aa x_a > (floor + off) ||x_a||^2 for
       every a, and the sum over a gives the bound.  The rounding of
       ||block||_inf and of the sum in the floor lies far inside the
       factor two by which the helper's margin exceeds its first-order
       budget.  These k factorizations of n x n cost k^2 fewer flops
       than one of m x m.

       Each layer must absorb the whole bound off, so the test holds on
       fewer operators than the claim does: for k w up to about min_a
       lambda_2(L_a) less the window.  The first block that refuses stops
       it, and the call goes to the eigensolve.
    3. Signs (Davis & Kahan's sin theta theorem).  That eigenspace's
       projector lies within beta = r / delta of the projector onto
       Z = {x (x) 1_n : x orthogonal to 1_k}, with delta = min(v - r,
       window) its distance to the rest of the spectrum.  P_Z e_0 is
       (k - 1) / (k n) on layer 0 and -1 / (k n) elsewhere.  So with
       1 / (k n) > beta + 1e-12, row 0 is the anchor a, and the signs of
       P e_0 split layer 0 from the rest, whatever basis the solve
       returns.  The window keeps beta at most 1 / (2 k n) when v - r
       exceeds it, however small tol is beside r.  r is at least 3 m eps
       ||L||_inf, and the window is tol + r up to m of about 2700; tol +
       r alone would leave beta above 1 / (k n), and refuse every
       operator, from m of about 3900 on.

    It refuses: no layers; no layer split value (dynamic, or k = 1); k w
    within r of the zero tolerance; a gap too small for the signs; or a
    layer whose n x n Cholesky fails, as when lambda_2(L_a) lies below
    k w plus the window.  The checks run cheapest first."""
    value = op.layer_split_value()
    if value is None or op.layers is None:
        return False
    form = _LayerForm(op) if form is None else form
    n, k, m = op.n, op.k, op.num_copies
    slack = m * np.finfo(float).eps * form.norm_hi
    radius = form.spread * float(np.linalg.norm(form.degrees)) / np.sqrt(n) + 3 * slack
    if not (2 * radius <= form.tol_lo and value - radius > form.tol_hi):
        return False
    window = max(form.tol_hi + radius, 2 * k * n * radius)
    if not 1.0 / (k * n) > radius / min(value - radius, window) + ZERO_ENTRY_TOL:
        return False
    # floor + off, and the rounding of the diagonal that L holds
    bound = (value + window + slack) + ((k - 1) * form.w + slack) + form.spread * form.top
    unit = np.full((n, 1), 1.0 / np.sqrt(n))
    for a, (sums, degrees) in enumerate(zip(form.sums, form.degrees)):
        if not _cholesky_certifies(form.block(a), float((degrees + sums).max()), bound, unit):
            return False
    return True


def fiedler_bipartition(
    lap, system: EigenSystem | None = None
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
    tolerance, such as two blocks joined by weights far below ||L||_inf.
    When those weights pass 1e-12, the zero eigenvalue repeats more often
    than there are components, and v is P e_a for the projector P onto
    what the zero eigenspace holds beyond the components' indicator
    vectors (`_beside_components`), so the blocks are split apart.  The
    components decide where no row of P exceeds 1e-12, and where no
    nonzero entry lies between them, as when the matrix falls apart
    (below).  When the Fiedler value is repeated, v is P e_a for the
    projector onto its eigenspace.  Either way a is the first index that
    the projection reaches, and P e_a is the same for every basis of the
    eigenspace.

    `lap` is a Laplacian matrix or a `SupraOperator`, whose Laplacian is
    split with the ||L||_inf and exactness its scan found, as `eig_sym`
    reads them.  `system` is an already computed `eig_sym(lap, 2)` (or a
    larger count), for a caller that also reads the spectrum; it is
    trusted to belong to `lap`, and the components are searched only when
    its zero eigenvalue repeats.  When omitted, the pattern |L_ij| > 1e-12
    is searched first, once, and a Laplacian that falls apart there and is
    exactly block diagonal is split with no eigensolve (`_falls_apart`).
    A `build_supra` operator is decided from its layers, whether or not
    its L has been read: the pattern is searched on n x n layers, and a
    connected one is tried by `_certifies_layer_split`, which, when it
    proves the split that the eigensolve would lead to, returns layer 0
    against the rest with Fiedler value k w (the dense solve's is within
    its rounding of k w) and no eigensolve.  A refusal goes to `eig_sym`,
    whose certified Lanczos path also reads the layers, and reads L only
    when that refuses too.  Any other input is decomposed by `eig_sym`,
    and a degenerate eigensolve reuses the components; a `build_dynamic`
    operator's pattern is searched on its L, which that fills, and a bare
    matrix is scanned once, by `_validated`, whichever of the two reads it
    first.
    """
    supra = isinstance(lap, operators.SupraOperator)
    arr = None if supra else np.asarray(lap, dtype=float)
    shape = lap.shape if supra else arr.shape
    if len(shape) == 2 and shape[0] < 2:  # any other shape eig_sym rejects
        raise SpectralError("bipartition needs a matrix of size >= 2")
    comp = None
    if system is None:
        if supra and lap.model == "supra" and lap.layers is not None:
            form = _LayerForm(lap)
            comp = form.components()
            if _falls_apart(lap, comp, form):
                return Partition(labels=comp != comp[0], c=2), 0.0, True
            if _certifies_layer_split(lap, form):
                return Partition(labels=np.arange(lap.num_copies) >= lap.n, c=2), lap.layer_split_value(), False
        elif len(shape) == 2 and shape[0] == shape[1]:  # else eig_sym raises its message
            comp = operators.connected_components(lap.laplacian if supra else arr, atol=ZERO_ENTRY_TOL)
            if comp.any():
                if not supra:  # scanned once, here, for eig_sym too
                    norm, _, exact = _validated(arr)
                    lap = _Scanned(arr, norm, exact)
                if _falls_apart(lap, comp):
                    return Partition(labels=comp != comp[0], c=2), 0.0, True
        system = eig_sym(lap, 2)
    if system.zero_multiplicity > 1:
        # edges are the off-diagonal entries; the diagonal adds only self-loops
        matrix = lap.laplacian if supra else arr
        if comp is None:
            comp = operators.connected_components(matrix, atol=ZERO_ENTRY_TOL)
        # a block diagonal matrix splits by its components, as one that
        # falls apart does with no eigensolve
        apart = comp.any() and not _joins(matrix, comp)
        vec = None if apart else _anchored_projection(_beside_components(system, comp))
        labels = comp != comp[0] if vec is None else vec < -ZERO_ENTRY_TOL
        return Partition(labels=labels, c=2), 0.0, True
    basis = system.eigenvectors[:, system.fiedler_mask()]
    vec = basis[:, 0] if basis.shape[1] == 1 else _anchored_projection(basis)
    labels = (vec < -ZERO_ENTRY_TOL).astype(int)
    return Partition(labels=labels, c=2), system.fiedler_value, False


def _anchored_projection(basis: np.ndarray) -> np.ndarray | None:
    """P e_a, P the projector onto the span of the orthonormal columns of
    `basis` and a the first index whose row of it exceeds 1e-12 in norm,
    which is the same for every orthonormal basis of that span; None when
    no row does."""
    reached = np.linalg.norm(basis, axis=1) > ZERO_ENTRY_TOL
    if not reached.any():
        return None
    return basis @ basis[int(np.argmax(reached))]


def _beside_components(system: EigenSystem, comp: np.ndarray) -> np.ndarray:
    """An orthonormal basis of what the zero eigenspace of `system` holds
    beyond the components' indicator vectors (`comp` labels the c
    components): the d - c leading left singular vectors of the zero
    eigenvectors less their projection onto the indicators, when the zero
    eigenvalue repeats d > c times, as on a connected operator whose
    second eigenvalue lies below the zero tolerance.  No columns when d
    <= c, as on a disconnected Laplacian."""
    zero = system.eigenvectors[:, system.eigenvalues <= system.zero_tolerance]
    count = int(comp.max()) + 1
    if zero.shape[1] <= count:
        return zero[:, :0]
    means = np.zeros((count, zero.shape[1]))
    np.add.at(means, comp, zero)
    means /= np.bincount(comp, minlength=count)[:, None]
    return np.linalg.svd(zero - means[comp], full_matrices=False)[0][:, : zero.shape[1] - count]


def _falls_apart(lap, comp: np.ndarray, form: _LayerForm | None = None) -> bool:
    """Whether `eig_sym(lap, 2)` is bound to count more than one zero
    eigenvalue, decided with no eigensolve from `comp`, the components of
    the pattern |M_ij| > 1e-12 of the matrix M of `lap` (its Laplacian
    when `lap` is an operator).  That holds when there is more than one,
    no nonzero entry lies between two of them, so the matrix that eig_sym
    solves, (M + M^T) / 2, is exactly block diagonal, and every row of it
    sums to within half the zero tolerance of 0.  Then each block B has an
    eigenvalue within half the tolerance of 0, as its all-ones vector 1_B
    has ||B 1_B|| <= max |row sum| ||1_B||, and a backward-stable solver
    moves it by m eps ||M||, far less than the other half.  A Laplacian's
    rows sum to 0 up to rounding, so it qualifies whenever its pattern
    falls apart at 1e-12 with no entry in (0, 1e-12] between the parts.

    In matrix form M is read, with the zero tolerance eig_sym uses
    (`_facts`: an operator's, from the ||L||_inf its scan found, or a
    `_Scanned` matrix's, with no scan here).  In layer form, `form` of a
    `build_supra` operator, no M is read.  An entry of M between two of
    the components is, inside a layer, one of S_a, and, when each layer
    falls apart on its own, the -w between the copies of a node, which is
    nonzero unless w = 0.  M is exactly symmetric, and its row sums are
    exactly d_i - D_i, within rho D^_i of 0 (`_LayerForm`), so the rows
    qualify when rho max D^ <= tol_lo / 2."""
    if not comp.any():
        return False
    if form is not None:
        if not form.tiled and form.w != 0:
            return False
        n = form.n
        for a, sym in enumerate(form.syms):
            part = comp[a * n:(a + 1) * n]
            if ((sym != 0) & (part[:, None] != part)).any():
                return False
        return bool(form.spread * form.top <= 0.5 * form.tol_lo)
    arr, _, tol, _ = _facts(lap)
    if _joins(arr, comp):
        return False
    rows = 0.5 * (arr.sum(axis=0) + arr.sum(axis=1))
    return bool(np.abs(rows).max() <= 0.5 * tol)


def _joins(arr: np.ndarray, comp: np.ndarray) -> bool:
    """Whether a nonzero entry of `arr` lies between two of the components
    that `comp` labels."""
    return bool(((arr != 0) & (comp[:, None] != comp)).any())


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


def spectral_kway(lap, c: int, seed) -> Partition:
    """Unnormalized c-way spectral clustering: rows embedded into the first
    c eigenvectors (ascending, trivial included), then Lloyd k-means with
    k-means++ starts.  Runs RESTARTS restarts, batched in one Lloyd loop, on
    seeds derived deterministically from the RngSeed `seed`, and keeps the
    first with the lowest within-cluster sum of squares.  `lap` is a
    Laplacian matrix or a `SupraOperator`, as for `eig_sym`."""
    shape = lap.shape if isinstance(lap, operators.SupraOperator) else np.shape(lap)
    if c < 2:
        raise SpectralError(f"cluster count must be >= 2, got {c}")
    if len(shape) == 2 and c > shape[0]:  # any other shape eig_sym rejects
        raise SpectralError(f"cannot form {c} clusters from {shape[0]} elements")
    system = eig_sym(lap, c)
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
