"""Exact cut costs, quadratic-form decompositions, and a brute-force oracle.

Convention fixed once for the whole package: the cut cost of a bipartition
is the total weight of operator matrix entries crossing the boundary,
counting both (p, q) and (q, p).  For the symmetric operator matrix with
+-1 indicator s this equals (1/2) s^T L s exactly, which is the identity
every routine here is tested against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import DynamicCoupling, MultiplexNetwork
from .errors import CutError
from .operators import SupraOperator, build_dynamic, build_supra, laplacian
from .spectral import Partition

BRUTE_FORCE_LIMIT = 20
_ENUM_CHUNK = 1 << 14


@dataclass(frozen=True)
class CutReport:
    """A cut value with its quadratic-form cross-check and the named terms
    of the layer/coupling decomposition.  `terms` sums to s^T L s (twice
    the cut value, which carries the 1/2)."""

    total: float
    quadratic_form: float
    terms: tuple  # of (name, value)

    def term(self, name: str) -> float:
        for key, value in self.terms:
            if key == name:
                return value
        raise KeyError(name)

    @property
    def terms_sum(self) -> float:
        return float(sum(value for _, value in self.terms))


def _check_partition(op: SupraOperator, part: Partition) -> None:
    if len(part) != op.num_copies:
        raise CutError(
            f"partition covers {len(part)} elements, operator has {op.num_copies} copies"
        )


def cut_cost(op: SupraOperator, part: Partition) -> float:
    """Total boundary weight of the partition on the operator matrix.

    For two clusters this is sum_{p in B, q in C} (A_pq + A_qp)
    = (1/2) s^T L s; for more clusters, the sum over all inter-cluster
    ordered pairs.
    """
    _check_partition(op, part)
    adj = op.adjacency
    labels = part.labels
    total = float(adj.sum())
    intra = 0.0
    for cluster in range(part.c):
        mask = labels == cluster
        if mask.any():
            intra += float(adj[np.ix_(mask, mask)].sum())
    return total - intra


def quadratic_form(op: SupraOperator, part: Partition) -> float:
    """(1/2) s^T L s for the +-1 indicator of a bipartition."""
    s = part.indicator()
    return 0.5 * float(s @ op.laplacian @ s)


def _layer_indicators(part: Partition, n: int, k: int) -> np.ndarray:
    return part.indicator().reshape(k, n)


def decompose_supra(net: MultiplexNetwork, w: float, part: Partition) -> CutReport:
    """Split s^T L s for the supra operator into the per-layer Laplacian
    terms, the constant coupling term k^2 n w, and the alignment term
    -w sum_{a,b} s_a^T s_b.  The three groups sum to s^T L s exactly."""
    op = build_supra(net, w)
    _check_partition(op, part)
    n, k, w = net.n, net.k, op.coupling
    s = _layer_indicators(part, n, k)
    terms = []
    for a in range(k):
        terms.append((f"intra_layer_{a}", float(s[a] @ laplacian(op.block(a, a)) @ s[a])))
    terms.append(("coupling_constant", float(k * k * n * w)))
    alignment = float(sum(s[a] @ s[b] for a in range(k) for b in range(k)))
    terms.append(("coupling_alignment", -w * alignment))
    total = cut_cost(op, part)
    return CutReport(total=total, quadratic_form=quadratic_form(op, part), terms=tuple(terms))


def decompose_dynamic(
    net: MultiplexNetwork, coupling: DynamicCoupling, part: Partition
) -> CutReport:
    """Split s^T L s for the dynamical operator into per-layer Laplacian
    terms over the diagonal blocks and, per ordered layer pair (a, b),
    the inter term  M^{a,b} - s_a^T S^{a,b} s_b,  where S^{a,b} is the
    (a, b) block of the symmetrized operator and M^{a,b} its total weight.

    Term normalization uses the symmetrized operator's blocks (each block
    carries the 1/2 of symmetrization), which is the normalization under
    which the sum-to-s^T L s identity is exact.
    """
    op = build_dynamic(net, coupling)
    _check_partition(op, part)
    n, k = net.n, net.k
    s = _layer_indicators(part, n, k)
    terms = []
    for a in range(k):
        block = op.block(a, a)
        terms.append((f"intra_layer_{a}", float(s[a] @ laplacian(block) @ s[a])))
    for a in range(k):
        for b in range(k):
            if a == b:
                continue
            block = op.block(a, b)
            total_weight = float(block.sum())
            terms.append(
                (f"inter_{a}_{b}", total_weight - float(s[a] @ block @ s[b]))
            )
    total = cut_cost(op, part)
    return CutReport(total=total, quadratic_form=quadratic_form(op, part), terms=tuple(terms))


def brute_force_min_cut(op: SupraOperator) -> tuple[Partition, float]:
    """Exhaustive minimum bipartition by enumerating all 2^(m-1) - 1
    non-trivial indicator vectors (index 0 pinned to cluster 0).

    Ties break toward the lexicographically smallest label vector.  Hard
    size cap m <= 20 keeps this a desk-scale oracle.
    """
    m = op.num_copies
    if m > BRUTE_FORCE_LIMIT:
        raise CutError(f"brute force capped at {BRUTE_FORCE_LIMIT} copies, got {m}")
    if m < 2:
        raise CutError("brute force needs at least 2 copies")
    # boundary weight straight from the adjacency, independent of the
    # Laplacian route: cost(s) = (T - s^T A s) / 2 with T the total weight
    adj = op.adjacency
    total_weight = float(adj.sum())
    best_cost = np.inf
    best_index = None
    # bit j of the enumeration index is the label of position j+1,
    # most-significant bit first, so index order == lex order on labels
    shifts = np.arange(m - 2, -1, -1, dtype=np.uint32)
    for start in range(1, 1 << (m - 1), _ENUM_CHUNK):
        stop = min(start + _ENUM_CHUNK, 1 << (m - 1))
        idx = np.arange(start, stop, dtype=np.uint32)
        bits = (idx[:, None] >> shifts[None, :]) & 1
        signs = np.empty((len(idx), m))
        signs[:, 0] = 1.0
        signs[:, 1:] = 1.0 - 2.0 * bits
        costs = 0.5 * (total_weight - np.einsum("ij,jk,ik->i", signs, adj, signs, optimize=True))
        pos = int(costs.argmin())
        if costs[pos] < best_cost:
            best_cost = float(costs[pos])
            best_index = int(idx[pos])
    labels = np.zeros(m, dtype=int)
    for j in range(1, m):
        labels[j] = (best_index >> (m - 1 - j)) & 1
    return Partition(labels=labels, c=2), best_cost
