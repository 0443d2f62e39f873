"""Construction of the two nk x nk multiplex operators and their reductions.

Both operators share the node-copy index space (layer-major).  The supra
model couples the k copies of each node into a clique of fixed weight w;
the dynamical model mirrors each layer's neighborhoods across layers
through per-pair diagonal coupling matrices.  Either way the symmetric
matrix `adjacency` and its graph Laplacian `laplacian` (degree diagonal
minus adjacency) are what spectral clustering and cut analysis consume.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np
from scipy import linalg
from scipy.sparse import csgraph

from .core import DynamicCoupling, MultiplexNetwork, check_weights, read_lines, zeros
from .errors import OperatorError, ParseError


def symmetrize(mat: np.ndarray) -> np.ndarray:
    """Return (M + M^T) / 2.  A sum past the float range is left as inf,
    for `laplacian` or `reduce_indivisible` to reject."""
    arr = np.asarray(mat, dtype=float)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise OperatorError(f"cannot symmetrize non-square matrix of shape {arr.shape}")
    with np.errstate(over="ignore"):
        return 0.5 * (arr + arr.T)


def _check_bounded(row_sums: np.ndarray, what: str) -> None:
    """OperatorError unless every row of |L| sums (`row_sums`, or a bound
    on them) within the float range.  Then every entry of L is finite, and
    so is the Gershgorin bound on its eigenvalues that eig_sym takes its
    zero tolerance from."""
    if not np.isfinite(row_sums).all():
        raise OperatorError(f"{what}: the weights sum past the float range")


def laplacian(sym: np.ndarray) -> np.ndarray:
    """Graph Laplacian L = D - S of a symmetric matrix, D = diag(row sums).
    Every operator's Laplacian is made here, and rejected here when a
    weight or a sum of weights is past the float range."""
    arr = np.asarray(sym, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        magnitude = np.abs(arr)
        scale = max(1.0, float(magnitude.max(initial=0.0)))
        degree = arr.sum(axis=1)
        # |D - S| sums to at most |degree| + sum |S| along each row
        _check_bounded(np.abs(degree) + magnitude.sum(axis=1), "operator Laplacian")
        if not (linalg.issymmetric(arr) or linalg.issymmetric(arr, atol=1e-12 * scale)):
            raise OperatorError("laplacian requires a symmetric matrix")
    np.subtract(0.0, arr, out=magnitude)  # |S| becomes L: 0.0 - S, as -S gives -0.0
    np.fill_diagonal(magnitude, degree - arr.diagonal())  # bit for bit diag(degree) - S
    return magnitude


@dataclass(frozen=True)
class SupraOperator:
    """An nk x nk symmetric operator with its Laplacian and provenance.

    model is "supra" or "dynamic"; coupling holds the weight w or the
    DynamicCoupling it was built from.  The Laplacian is derived here, where
    `laplacian` rejects a non-symmetric adjacency.  Copies are indexed
    layer-major: copy of node i on layer a sits at a*n + i.
    """

    model: str
    n: int
    k: int
    adjacency: np.ndarray
    coupling: object
    laplacian: np.ndarray = field(init=False)

    def __post_init__(self):
        adj = np.asarray(self.adjacency, dtype=float)  # kept and locked if float64
        m = self.n * self.k
        if adj.shape != (m, m):
            raise OperatorError(f"operator must be {m} x {m}, got {adj.shape}")
        if np.any(adj.diagonal() != 0):
            raise OperatorError("operator matrix must have zero diagonal")
        lap = laplacian(adj)
        adj.flags.writeable = False
        lap.flags.writeable = False
        object.__setattr__(self, "adjacency", adj)
        object.__setattr__(self, "laplacian", lap)

    @property
    def num_copies(self) -> int:
        return self.n * self.k

    def block(self, a: int, b: int) -> np.ndarray:
        """The (a, b) layer block of the symmetric adjacency."""
        n = self.n
        return self.adjacency[a * n : (a + 1) * n, b * n : (b + 1) * n]


def build_supra(net: MultiplexNetwork, w: float) -> SupraOperator:
    """Supra-adjacency operator: symmetrized layers on the diagonal blocks,
    w * I between every pair of distinct layers."""
    w = float(check_weights(w, "supra inter-layer weight w"))
    n, k = net.n, net.k
    adj = zeros((n * k, n * k), "supra operator", OperatorError)
    blocks = adj.reshape(k, n, k, n)  # blocks[a, :, b] is layer block (a, b)
    eye = np.eye(n) * w
    for a in range(k):
        for b in range(k):
            blocks[a, :, b] = symmetrize(net.layers[a]) if a == b else eye
    return SupraOperator(model="supra", n=n, k=k, adjacency=adj, coupling=w)


def build_dynamic(net: MultiplexNetwork, coupling: DynamicCoupling) -> SupraOperator:
    """Dynamical-coupling operator: block (a, b) = (C^{a,b} A^b + (C^{b,a} A^a)^T) / 2,
    so the copy pair (i on a, j on b) carries half of c^{a,b}_i w^b(i,j) +
    c^{b,a}_j w^a(j,i).  Summed once per pair a <= b, bit for bit `symmetrize`."""
    n, k = net.n, net.k
    if coupling.k != k or coupling.n != n:
        raise OperatorError(f"coupling shaped {coupling.diag.shape} does not match "
                            f"network (k={k}, n={n})")
    adj = zeros((n * k, n * k), "dynamic operator", OperatorError)
    blocks = adj.reshape(k, n, k, n)
    with np.errstate(over="ignore"):  # a sum past the float range stays inf, for `laplacian`
        for a in range(k):
            for b in range(a, k):
                # diagonal C^{a,b} times A^b scales rows of A^b
                half = 0.5 * (coupling.diag[a, b][:, None] * net.layers[b]
                              + (coupling.diag[b, a][:, None] * net.layers[a]).T)
                blocks[a, :, b], blocks[b, :, a] = half, half.T
    return SupraOperator(model="dynamic", n=n, k=k, adjacency=adj, coupling=coupling)


def disjoint_operator(net: MultiplexNetwork, model: str) -> SupraOperator:
    """The zero-coupling limit: block-diagonal operator whose Laplacian has
    one zero eigenvalue per connected layer component."""
    if model == "supra":
        return build_supra(net, 0.0)
    if model == "dynamic":
        return build_dynamic(net, DynamicCoupling.disjoint(net.n, net.k))
    raise OperatorError(f"unknown model {model!r}")


def reduce_indivisible(op: SupraOperator) -> np.ndarray:
    """Bind all copies of each node together: the n x n Laplacian J^T L J,
    with J the stack of k identities.  For the supra model it equals the
    Laplacian of the summed symmetrized layers for every w (the coupling
    cliques cancel), for the dynamic model the Laplacian of the
    coupling-weighted aggregate."""
    n, k = op.n, op.k
    with np.errstate(over="ignore", invalid="ignore"):
        reduced = symmetrize(op.laplacian.reshape(k, n, k, n).sum(axis=(0, 2)))
        _check_bounded(np.abs(reduced).sum(axis=1), "aggregate Laplacian")
    return reduced


def connected_components(adjacency: np.ndarray, atol: float = 0.0) -> np.ndarray:
    """Component label per index of the graph with edges where |A_ij| > atol.
    Labels are 0-based in order of first appearance."""
    _, labels = csgraph.connected_components(np.abs(adjacency) > atol, directed=False)
    return labels.astype(int)


def load_coupling(path: str | os.PathLike, n: int, k: int) -> DynamicCoupling:
    """Parse a .cpl coupling file.

    Lines are either ``<a> <b> <value>`` (C^{a,b} = value * I) or
    ``<a> <b> <node> <value>`` (one diagonal entry); later lines override
    earlier ones.  Pairs never mentioned default to the identity coupling.
    Comment lines start with ``%``.
    """
    diag = np.ones((k, k, n))
    for lineno, raw in enumerate(read_lines(path), start=1):
        line = raw.strip()
        if not line or line.startswith("%"):
            continue
        parts = line.split()
        if len(parts) not in (3, 4):
            raise ParseError(f"line {lineno}: expected 3 or 4 fields, got {len(parts)}")
        try:
            a, b = int(parts[0]), int(parts[1])
            if len(parts) == 3:
                node, value = None, float(parts[2])
            else:
                node, value = int(parts[2]), float(parts[3])
        except ValueError:
            raise ParseError(f"line {lineno}: cannot parse coupling line {line!r}")
        if not (0 <= a < k and 0 <= b < k):
            raise ParseError(f"line {lineno}: layer pair ({a}, {b}) out of range [0, {k})")
        check_weights(value, f"line {lineno}")
        if node is None:
            diag[a, b, :] = value
        else:
            if not 0 <= node < n:
                raise ParseError(f"line {lineno}: node {node} out of range [0, {n})")
            diag[a, b, node] = value
    return DynamicCoupling(diag)
