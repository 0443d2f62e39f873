"""Seeded random generators for the synthetic benchmark networks.

All randomness flows through :class:`RngSeed`, a (64-bit master seed,
stream path) pair.  The stream path is a tuple of strings/numbers naming
the experiment, parameter point, and instance; it is hashed with SHA-256
into a Philox counter-based key, so

* identical (seed, stream) always regenerate the identical network, and
* adding grid points or instances never perturbs existing streams.

Philox4x64 is a named, documented counter-based PRNG, so a sweep is
reproducible from (seed, stream) alone by any implementation that speaks
the same hashing convention.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from .core import MultiplexNetwork
from .errors import GeneratorError
from .spectral import Partition


def canon(part) -> str:
    """Canonical text form of a stream-path component or a CSV value."""
    if isinstance(part, bool):
        return "1" if part else "0"
    if isinstance(part, (int, np.integer)):
        return str(int(part))
    if isinstance(part, (float, np.floating)):
        return repr(float(part))
    return str(part)


def derive_key(seed: int, stream: tuple) -> int:
    """SHA-256((seed, stream path)) -> 128-bit Philox key."""
    text = str(int(seed)) + "/" + "|".join(canon(p) for p in stream)
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:16], "little")


@dataclass(frozen=True)
class RngSeed:
    """A 64-bit master seed plus a stream path identifying one draw."""

    seed: int
    stream: tuple = ()

    def spawn(self, *parts) -> "RngSeed":
        return RngSeed(self.seed, self.stream + parts)

    def generator(self) -> np.random.Generator:
        return np.random.Generator(np.random.Philox(key=derive_key(self.seed, self.stream)))


@dataclass(frozen=True)
class SbmSpec:
    """Stochastic block model: per-node block labels and a block-pair
    connection probability matrix."""

    blocks: np.ndarray
    probs: np.ndarray

    def __post_init__(self):
        blocks = np.asarray(self.blocks, dtype=int)
        probs = np.asarray(self.probs, dtype=float)
        if blocks.ndim != 1:
            raise GeneratorError("block assignment must be a 1-d label vector")
        if probs.ndim != 2 or probs.shape[0] != probs.shape[1]:
            raise GeneratorError("connection matrix must be square")
        if blocks.min(initial=0) < 0 or blocks.max(initial=0) >= probs.shape[0]:
            raise GeneratorError("block labels must index the connection matrix")
        if not ((probs >= 0) & (probs <= 1)).all():  # NaN fails both tests
            raise GeneratorError("connection probabilities must lie in [0, 1]")
        object.__setattr__(self, "blocks", blocks)
        object.__setattr__(self, "probs", probs)

    @property
    def n(self) -> int:
        return len(self.blocks)


def _check_sizes(n: int, k: int = 1) -> None:
    """GeneratorError unless n >= 1 and k >= 1; called before any draw."""
    if n < 1 or k < 1:
        raise GeneratorError(f"need n >= 1 nodes and k >= 1 layers, got n={n}, k={k}")


def _symmetric_bernoulli(pair_probs: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Draw each unordered pair {i, j} once with probability pair_probs[i, j];
    set both directions.  Zero diagonal, symmetric 0/1 matrix."""
    n = pair_probs.shape[0]
    u = rng.random((n, n))
    upper = np.triu(u < pair_probs, k=1)
    return (upper | upper.T).astype(float)


def gen_er_layer(n: int, p: float, seed: RngSeed) -> np.ndarray:
    """One Erdos-Renyi layer: each unordered pair is an edge with probability p."""
    _check_sizes(n)
    if not 0.0 <= p <= 1.0:
        raise GeneratorError(f"wiring probability must lie in [0, 1], got {p}")
    return _symmetric_bernoulli(np.full((n, n), p), seed.generator())


def gen_sbm_layer(spec: SbmSpec, seed: RngSeed) -> np.ndarray:
    """One SBM layer: pair {i, j} is an edge with probability
    probs[block(i), block(j)]."""
    pair_probs = spec.probs[spec.blocks[:, None], spec.blocks[None, :]]
    return _symmetric_bernoulli(pair_probs, seed.generator())


def gen_er_multiplex(n: int, k: int, p: float, seed: RngSeed) -> MultiplexNetwork:
    """k independent ER layers with the same wiring probability."""
    _check_sizes(n, k)
    layers = [gen_er_layer(n, p, seed.spawn("layer", a)) for a in range(k)]
    return MultiplexNetwork(n=n, k=k, layers=tuple(layers))


def gen_fixed_sbm_multiplex(
    n: int, k: int, inter_p: float, seed: RngSeed
) -> tuple[MultiplexNetwork, Partition]:
    """Every layer drawn independently from one two-block SBM: blocks are the
    first n/2 vs the last n/2 nodes, intra-block probability 1, inter-block
    probability inter_p.  Returns the network and the planted partition over
    node copies (each copy inherits its node's block).
    """
    _check_sizes(n, k)
    if n % 2 != 0:
        raise GeneratorError(f"fixed-SBM generator needs even n, got {n}")
    blocks = np.repeat([0, 1], n // 2)
    spec = SbmSpec(blocks=blocks, probs=np.array([[1.0, inter_p], [inter_p, 1.0]]))
    layers = [gen_sbm_layer(spec, seed.spawn("layer", a)) for a in range(k)]
    net = MultiplexNetwork(n=n, k=k, layers=tuple(layers))
    planted = Partition(labels=np.tile(blocks, k), c=2)
    return net, planted


def overlap_block_labels(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Node block labels of the two overlapping community structures:
    layer 1 splits first half vs last half, layer 2 splits the middle half
    vs the outer quarters.  Requires n divisible by 4."""
    _check_sizes(n)
    if n % 4 != 0:
        raise GeneratorError(f"overlap generator needs n divisible by 4, got {n}")
    blocks1 = np.repeat([0, 1], n // 2)
    blocks2 = np.zeros(n, dtype=int)
    blocks2[n // 4 : 3 * n // 4] = 1
    return blocks1, blocks2


def gen_overlap_multiplex(
    n: int, intra_p: float, inter_p: float, seed: RngSeed
) -> tuple[MultiplexNetwork, Partition, Partition]:
    """Two layers with different planted bipartitions: layer 1 on the
    half-half split, layer 2 on the middle-vs-outer split, both drawn from
    an SBM with probabilities (intra_p within, inter_p across).

    Returns the network plus each layer's planted partition lifted to all
    2n node copies.
    """
    blocks1, blocks2 = overlap_block_labels(n)
    probs = np.array([[intra_p, inter_p], [inter_p, intra_p]])
    layer1 = gen_sbm_layer(SbmSpec(blocks1, probs), seed.spawn("layer", 0))
    layer2 = gen_sbm_layer(SbmSpec(blocks2, probs), seed.spawn("layer", 1))
    net = MultiplexNetwork(n=n, k=2, layers=(layer1, layer2))
    planted1 = Partition(labels=np.tile(blocks1, 2), c=2)
    planted2 = Partition(labels=np.tile(blocks2, 2), c=2)
    return net, planted1, planted2
