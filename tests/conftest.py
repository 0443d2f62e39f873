import os

import numpy as np

from mxspec.core import DynamicCoupling, MultiplexNetwork


def random_network(rng, n=None, k=None):
    """Small random weighted directed multiplex for identity/oracle tests."""
    n = n or int(rng.integers(1, 7))
    k = k or int(rng.integers(1, 4))
    layers = []
    for _ in range(k):
        mat = rng.random((n, n)) * 10
        mat[rng.random((n, n)) < 0.5] = 0.0
        np.fill_diagonal(mat, 0.0)
        layers.append(mat)
    return MultiplexNetwork(n=n, k=k, layers=tuple(layers))


def report_physical_memory(monkeypatch, nbytes):
    """Make os.sysconf report `nbytes` of physical memory, in 4 KiB pages."""
    real = os.sysconf
    pages = {"SC_PHYS_PAGES": nbytes // 4096, "SC_PAGE_SIZE": 4096}
    monkeypatch.setattr(os, "sysconf", lambda name: pages[name] if name in pages else real(name))


def random_coupling(rng, n, k):
    return DynamicCoupling(rng.random((k, k, n)) * 2)


def reduced_laplacian(op):
    """J^T L J of an operator, with J the stack of k n x n identities: the
    n x n Laplacian with all copies of each node bound together."""
    n, k = op.n, op.k
    return op.laplacian.reshape(k, n, k, n).sum(axis=(0, 2))
