"""Construction of the two nk x nk multiplex operators and their Laplacians.

Both operators share the node-copy index space (layer-major).  The supra
model couples the k copies of each node into a clique of fixed weight w;
the dynamical model mirrors each layer's neighborhoods across layers
through per-pair diagonal coupling matrices.  Either way the symmetric
matrix S is filled and the operator keeps only its graph Laplacian
`laplacian` (degree diagonal minus S), one nk x nk array, from which it
reads `adjacency` back on demand, and the ||L||_inf and exactness that
the scan checking S found.  Both builders keep the network's layers, by
reference, and the coupling, and fill S on the first read of L, so that
a bipartition or an eigensolve their layers decide builds no nk x nk
array.  Spectral clustering reads the layers, and L and those two facts
only where the layers do not decide; cut analysis reads L and S.
"""

from __future__ import annotations

import numbers
import os
from dataclasses import dataclass

import numpy as np
from scipy import linalg

from .core import DynamicCoupling, Locked, MultiplexNetwork, check_weights, read_lines, zeros
from .errors import OperatorError, ParseError

_EPS = np.finfo(float).eps


def symmetrize(mat: np.ndarray) -> np.ndarray:
    """Return (M + M^T) / 2.  A sum past the float range is left as inf,
    for `laplacian` to reject."""
    arr = np.asarray(mat, dtype=float)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise OperatorError(f"cannot symmetrize non-square matrix of shape {arr.shape}")
    with np.errstate(over="ignore"):
        return 0.5 * (arr + arr.T)


def laplacian(sym: np.ndarray) -> np.ndarray:
    """Graph Laplacian L = D - S of a symmetric matrix, D = diag(row sums).
    Every operator's Laplacian is made by this one scan
    (`_checked_laplacian`), and rejected there when a weight or a sum of
    weights is past the float range."""
    return _checked_laplacian(sym)[0]


def _checked_laplacian(sym: np.ndarray) -> tuple[np.ndarray, float, bool]:
    """(L, ||L||_inf, whether L is exactly symmetric) of `laplacian(sym)`,
    all from its one scan of |S|."""
    arr = np.asarray(sym, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        magnitude = np.abs(arr)
        scale = max(1.0, float(magnitude.max(initial=0.0)))
        diag = arr.sum(axis=1) - arr.diagonal()
        # |S| is |L| off the diagonal.  With |L_ii| on it, its largest row
        # sum is ||L||_inf, bit for bit as summed over |L| itself: the
        # Gershgorin bound on L's eigenvalues that eig_sym takes its zero
        # tolerance from, finite only when every entry of L is
        np.fill_diagonal(magnitude, np.abs(diag))
        norm = float(magnitude.sum(axis=1).max(initial=0.0))
        if not np.isfinite(norm):
            raise OperatorError("operator Laplacian: the weights sum past the float range")
        # S and L = 0.0 - S off the diagonal are symmetric alike
        exact = linalg.issymmetric(arr)
        if not (exact or linalg.issymmetric(arr, atol=1e-12 * scale)):
            raise OperatorError("laplacian requires a symmetric matrix")
    np.subtract(0.0, arr, out=magnitude)  # |S| becomes L: 0.0 - S, as -S gives -0.0
    np.fill_diagonal(magnitude, diag)  # bit for bit diag(degree) - S
    return magnitude, norm, exact


class _Filled:
    """`laplacian`, `norm` or `exact` of an operator kept as its layers:
    the first read of any of them fills the instance's dictionary with all
    three (`SupraOperator._fill`), which then shadows this descriptor, so
    a later read is a plain attribute read."""

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, op, owner=None):
        if op is None:
            return self
        op._fill()
        return op.__dict__[self.name]


@dataclass(frozen=True, init=False)
class SupraOperator(Locked):
    """An nk x nk symmetric operator, kept as its Laplacian, with provenance.

    model is "supra" or "dynamic"; coupling holds the weight w or the
    DynamicCoupling it was built from.  The constructor takes the
    symmetric `adjacency` S, from which `laplacian` derives L = D - S,
    rejecting an S that is not symmetric.  Only L is kept: S is read back
    from it, and the caller's array is neither kept nor locked.  Copies
    are indexed layer-major: copy of node i on layer a sits at a*n + i.

    The scan that checks S also gives `norm`, ||L||_inf, and `exact`,
    whether L is exactly symmetric, which the spectral functions read
    instead of scanning L again: an operator is validated once.

    `build_supra` and `build_dynamic` make the other kind: it keeps
    `layers`, the network's own locked n x n layers, by reference, and the
    coupling, and builds L, `norm` and `exact` on their first read, by the
    fill and the scan above.  Until then it holds no nk x nk array, and
    `eig_sym` and `fiedler_bipartition` can decide it from the layers
    alone.  `layers` is None on an operator given its adjacency.
    """

    model: str
    n: int
    k: int
    coupling: object
    layers: tuple | None

    laplacian = _Filled()
    norm = _Filled()
    exact = _Filled()

    # a hand-written __init__: `adjacency` is a constructor argument but not
    # a field, since a property of that name reads it back
    def __init__(self, model: str, n: int, k: int, adjacency, coupling):
        adj = np.asarray(adjacency, dtype=float)
        sizes = all(isinstance(size, numbers.Integral) and size >= 1 for size in (n, k))
        if not sizes or adj.shape != (n * k, n * k):
            raise OperatorError(f"operator needs n, k >= 1 and an nk x nk adjacency, "
                                f"got n={n}, k={k}, {adj.shape}")
        if np.any(adj.diagonal() != 0):
            raise OperatorError("operator matrix must have zero diagonal")
        # frozen: the fields are set past the dataclass's __setattr__
        self.__dict__.update(model=model, n=n, k=k, coupling=coupling, layers=None)
        self._fill(adj)

    def _fill(self, adj: np.ndarray | None = None) -> None:
        """Keep L, `norm` and `exact` from `_checked_laplacian`'s one scan
        of S: the given adjacency, or that of an operator kept as its
        layers, filled here.  Supra puts the symmetrized layers on the
        diagonal blocks and w I between every pair of distinct layers;
        dynamic puts (C^{a,b} A^b + (C^{b,a} A^a)^T) / 2 in block (a, b),
        summed once per pair a <= b, bit for bit `symmetrize`."""
        if adj is None:
            n, k, layers = self.n, self.k, self.layers
            adj = zeros((n * k, n * k), f"{self.model} operator", OperatorError)
            blocks = adj.reshape(k, n, k, n)  # blocks[a, :, b] is layer block (a, b)
            with np.errstate(over="ignore"):  # a sum past the float range stays inf, for the scan
                if self.model == "supra":
                    eye = np.eye(n) * self.coupling if k > 1 else None  # at k = 1 it would be operator-sized
                    for a in range(k):
                        for b in range(k):
                            if a != b:
                                blocks[a, :, b] = eye
                        # symmetrize(A^a) formed in its block: (A + A^T), then * 0.5
                        diag = blocks[a, :, a]
                        np.add(layers[a], layers[a].T, out=diag)
                        diag *= 0.5
                else:
                    coupling = self.coupling.diag
                    for a in range(k):
                        for b in range(a, k):
                            # diagonal C^{a,b} times A^b scales rows of A^b; the half
                            # sum is formed in its block, in the order 0.5 * (P + Q^T)
                            half = blocks[a, :, b]
                            np.multiply(coupling[a, b][:, None], layers[b], out=half)
                            half += (coupling[b, a][:, None] * layers[a]).T
                            half *= 0.5
                            if a != b:
                                blocks[b, :, a] = half.T
        lap, norm, exact = _checked_laplacian(adj)
        lap.flags.writeable = False
        self.__dict__.update(laplacian=lap, norm=norm, exact=exact)

    @property
    def num_copies(self) -> int:
        return self.n * self.k

    # (nk, nk), read where a function takes an operator or a matrix
    shape = property(lambda self: (self.num_copies,) * 2)

    @property
    def adjacency(self) -> np.ndarray:
        """The symmetric adjacency S, in a new array: 0.0 - L off the
        diagonal, where L = 0.0 - S, and 0.0 on it.  These are S's bits,
        except that a -0.0 entry reads +0.0."""
        adj = np.subtract(0.0, self.laplacian)
        np.fill_diagonal(adj, 0.0)
        return adj

    def layer_split_value(self) -> float | None:
        """k w: the eigenvalue, k - 1 times repeated, of a supra Laplacian
        on the layer split {x (x) 1_n : x orthogonal to 1_k}, whose
        vectors are constant on each layer.  None for the dynamic model
        and for k = 1, which have no such eigenspace."""
        if self.model != "supra" or self.k < 2:
            return None
        return self.k * float(self.coupling)

    def block(self, a: int, b: int) -> np.ndarray:
        """The (a, b) layer block of `adjacency`, read back the same way
        from L's block, in a new array."""
        block = np.subtract(0.0, self.laplacian.reshape(self.k, self.n, self.k, self.n)[a, :, b])
        if a == b:
            np.fill_diagonal(block, 0.0)
        return block


def build_supra(net: MultiplexNetwork, w: float) -> SupraOperator:
    """Supra-adjacency operator of a network, whose layers are finite,
    non-negative and zero on the diagonal: symmetrized layers on the
    diagonal blocks, w * I between every pair of distinct layers.

    It keeps the network's layers and w, and fills L on its first read
    (`SupraOperator`), where an L too large for memory is refused.  A
    weight sum past the float range is refused here: the layers' total
    weights bound ||L||_inf, and where that bound is not finite L is built
    now, and refused, or kept, as it would be on its first read."""
    w = float(check_weights(w, "supra inter-layer weight w"))
    # every weight is >= 0, so the degree D_i of a copy is at most its
    # layer's total weight plus (k - 1) w
    return _layered(net, "supra", w, lambda total: total + (net.k - 1) * w)


def build_dynamic(net: MultiplexNetwork, coupling: DynamicCoupling) -> SupraOperator:
    """Dynamical-coupling operator: block (a, b) = (C^{a,b} A^b + (C^{b,a} A^a)^T) / 2,
    so the copy pair (i on a, j on b) carries half of c^{a,b}_i w^b(i,j) +
    c^{b,a}_j w^a(j,i).

    It keeps the network's layers and the coupling, and fills L on its
    first read, as `build_supra` does, with the same refusals: here the
    layers' total weights and the coupling's largest entry bound
    ||L||_inf."""
    n, k = net.n, net.k
    if coupling.k != k or coupling.n != n:
        raise OperatorError(f"coupling shaped {coupling.diag.shape} does not match "
                            f"network (k={k}, n={n})")
    # the degree of copy (a, i), half of sum_b c^{a,b}_i r_b(i) plus
    # sum_b (c^{b,a} A^a)'s column i, is at most k c_max times the largest
    # layer total
    top = float(coupling.diag.max())
    return _layered(net, "dynamic", coupling, lambda total: k * top * total)


def _layered(net: MultiplexNetwork, model: str, coupling, degree) -> SupraOperator:
    """An operator of `model` kept as the network's layers, whose L is
    filled on its first read; `degree` maps the largest layer total weight
    to a bound on every copy's degree D_i.  Every weight is >= 0, so
    ||L||_inf, as the scan sums it, is at most 2 D_i (1 + 2 (nk + n) eps)
    and every partial sum of the fill at most 2 D_i, up to the (n^2 + 1) u
    of the layer total and the few roundings of forming an entry; 4 (nk +
    n^2) eps covers them all.  Where that bound is not finite, L is filled
    now, and refused, or kept."""
    n, k = net.n, net.k
    op = object.__new__(SupraOperator)
    op.__dict__.update(model=model, n=n, k=k, coupling=coupling, layers=net.layers)
    with np.errstate(over="ignore", invalid="ignore"):  # 0 * inf is nan: not finite, so filled
        total = max((float(layer.sum()) for layer in net.layers), default=0.0)
        bound = 2 * degree(total) * (1 + 4 * (n * k + n * n) * _EPS)
    if not np.isfinite(bound):
        op._fill()
    return op


def connected_components(adjacency: np.ndarray, atol: float = 0.0) -> np.ndarray:
    """Component label per index of the undirected graph with an edge {i, j}
    where |A_ij| > atol or |A_ji| > atol, 0-based in order of first
    appearance.  A breadth-first search, level by level, reads each row of
    the boolean edge mask once (m^2 bytes, no m x m float array)."""
    arr = np.asarray(adjacency)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise OperatorError(f"connected_components needs a square matrix, got shape {arr.shape}")
    edges = (arr > atol) | (arr < -atol)
    edges |= edges.T
    labels = np.full(arr.shape[0], -1)
    count = 0
    for start in range(arr.shape[0]):
        if labels[start] >= 0:
            continue
        frontier = np.array([start])
        while frontier.size:
            labels[frontier] = count
            frontier = np.flatnonzero(edges[frontier].any(axis=0) & (labels < 0))
        count += 1
    return labels


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
