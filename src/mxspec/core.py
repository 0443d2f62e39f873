"""Multiplex network data model, node-copy indexing, and .mpx file I/O.

A multiplex network is a fixed set of n nodes carrying k layers, each layer
an n x n weighted directed adjacency matrix.  Entry A[i][j] holds the weight
of the directed edge from node j to node i.  Node copies are addressed
layer-major: the copy of node i on layer a has flat index a*n + i, with both
a and i 0-based everywhere in code and files (1-based only in prose).

The .mpx on-disk format is UTF-8 text: header lines ``#nodes <n>`` and
``#layers <k>``, each once, comment lines starting with ``%``, then one
edge per line, whitespace-separated::

    <layer> <src j> <dst i> <weight>

All indices 0-based.  Unlisted entries are zero; weights are finite and
>= 0, and each (layer, src, dst) appears at most once.
"""

from __future__ import annotations

import contextlib
import math
import os
import re
import stat
from dataclasses import dataclass
from itertools import compress
from typing import Sequence

import numpy as np

from .errors import ParseError


def check_weights(values, what: str) -> np.ndarray:
    """`values` as a float array; ParseError unless every entry is finite
    and >= 0 (NaN compares false, so a bare `< 0` test lets it through)."""
    arr = np.asarray(values, dtype=float)
    if not np.isfinite(arr).all():
        raise ParseError(f"{what}: non-finite weight {arr[~np.isfinite(arr)].flat[0]}")
    if (arr < 0).any():
        raise ParseError(f"{what}: negative weight {arr[arr < 0].flat[0]}")
    return arr


def zeros(shape: tuple, what: str, error=ParseError) -> np.ndarray:
    """np.zeros(shape); `error` stating the shape when the array cannot be
    allocated (a size from a file header can exceed any memory).  An array
    of more bytes than the physical memory the platform reports is refused
    before the call: np.zeros only reserves its pages, so the refusal would
    otherwise come when they are first written, far from the header."""
    nbytes = 8 * math.prod(shape)
    memory = 0  # bytes of physical memory; 0 where the platform does not report them
    with contextlib.suppress(AttributeError, OSError, ValueError):
        memory = max(os.sysconf("SC_PHYS_PAGES"), 0) * os.sysconf("SC_PAGE_SIZE")
    try:
        if nbytes > memory > 0:
            raise MemoryError(f"{nbytes} bytes exceed the {memory} bytes of physical memory")
        return np.zeros(shape)
    except (MemoryError, ValueError) as exc:  # ValueError: more bytes than an index can address
        dims = " x ".join(str(d) for d in shape)
        raise error(f"{what}: cannot allocate a {dims} float64 array ({nbytes / 2**30:.3g} GiB)") from exc


@contextlib.contextmanager
def _reading(path):
    """ParseError naming the file at `path` for an error in reading or
    decoding it inside the block."""
    try:
        yield
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        byte = exc.object[exc.start]
        raise ParseError(f"cannot read {path}: not UTF-8 text (byte 0x{byte:02x})") from exc


def read_lines(path) -> list:
    """Lines of a UTF-8 text file; ParseError naming the file when it cannot
    be read or decoded."""
    with _reading(path), open(path, "r", encoding="utf-8") as fh:
        return fh.readlines()


def _read_text(path) -> tuple[str, os.stat_result]:
    """(the text of a UTF-8 file, os.fstat of the file read), read in
    pieces: one whole-file read holds the bytes and the text at once."""
    with _reading(path), open(path, "r", encoding="utf-8") as fh:
        text = "".join(iter(lambda: fh.read(1 << 16), ""))
        return text, os.fstat(fh.fileno())


def _names_regular_file(name: str, read: os.stat_result) -> bool:
    """Whether `name` names the regular file whose os.fstat is `read`."""
    try:
        return stat.S_ISREG(read.st_mode) and os.path.samestat(read, os.stat(name))
    except OSError:
        return False


class Locked:
    """Base of the immutable data classes, whose arrays are locked
    read-only.  Pickle and copy.deepcopy rebuild an array writeable, so
    unpickling locks each array field, and each array in a tuple field,
    again."""

    def __setstate__(self, state: dict) -> None:
        for value in state.values():
            for arr in value if isinstance(value, tuple) else (value,):
                if isinstance(arr, np.ndarray):
                    arr.flags.writeable = False
        self.__dict__.update(state)


@dataclass(frozen=True)
class MultiplexNetwork(Locked):
    """Immutable multiplex network: n nodes, k layers of n x n adjacency.

    Layer matrices are non-negative with zero diagonal (no self-loops).
    Arrays are locked read-only so instances can be shared across workers.
    """

    n: int
    k: int
    layers: tuple

    def __post_init__(self):
        if self.n < 1 or self.k < 1:
            raise ParseError(f"need n >= 1 and k >= 1, got n={self.n}, k={self.k}")
        if len(self.layers) != self.k:
            raise ParseError(f"expected {self.k} layers, got {len(self.layers)}")
        frozen = []
        for a, mat in enumerate(self.layers):
            arr = np.asarray(mat, dtype=float)
            if arr.shape != (self.n, self.n):
                raise ParseError(
                    f"layer {a} has shape {arr.shape}, expected {(self.n, self.n)}"
                )
            check_weights(arr, f"layer {a}")
            if np.any(np.diag(arr) != 0):
                raise ParseError(f"layer {a} has non-zero diagonal (self-loop)")
            arr = arr.copy()
            arr.flags.writeable = False
            frozen.append(arr)
        object.__setattr__(self, "layers", tuple(frozen))

    @property
    def num_copies(self) -> int:
        return self.n * self.k


@dataclass(frozen=True)
class DynamicCoupling(Locked):
    """Coupling for the dynamical model: per layer pair (a, b) a diagonal
    matrix, stored as a length-n vector of its diagonal.

    `diag[a][b][i]` is the single coefficient multiplying layer b's
    adjacency row i when mirrored into layer a's block row.  The underlying
    model has two factors per pair (a mixing weight and a rate); only their
    product ever enters the operator, so only the product is stored.
    """

    diag: np.ndarray  # shape (k, k, n)

    def __post_init__(self):
        arr = np.asarray(self.diag, dtype=float)
        if arr.ndim != 3 or arr.shape[0] != arr.shape[1]:
            raise ParseError(f"coupling must have shape (k, k, n), got {arr.shape}")
        check_weights(arr, "coupling")
        arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "diag", arr)

    @property
    def k(self) -> int:
        return self.diag.shape[0]

    @property
    def n(self) -> int:
        return self.diag.shape[2]

    @classmethod
    def identity(cls, n: int, k: int) -> "DynamicCoupling":
        """C = I for every layer pair (the all-layers-mirrored default)."""
        return cls(np.ones((k, k, n)))

    @classmethod
    def uniform(cls, values: Sequence[Sequence[float]], n: int) -> "DynamicCoupling":
        """Each pair (a, b) gets values[a][b] * I."""
        vals = np.asarray(values, dtype=float)
        # a table that is not k x k gives a shape other than (k, k, n), rejected below
        return cls(np.repeat(vals[..., None], n, axis=-1))


def load_network(path: str | os.PathLike) -> MultiplexNetwork:
    """Parse a .mpx file into a MultiplexNetwork.

    Raises ParseError naming the offending line for malformed lines,
    out-of-range indices, self-loops, negative or non-finite weights, and
    repeated edges or headers.
    """
    # copy the layers once _read_layers' per-edge temporaries are freed, to reuse their memory
    n, k, mats = _read_layers(path)
    return MultiplexNetwork(n=n, k=k, layers=tuple(mats))


# one .mpx edge line; loadtxt parses what int() and float() parse, except
# where it refuses (1_0, non-ASCII digits, integers past int64)
_EDGE_DTYPE = np.dtype([("layer", np.int64), ("src", np.int64), ("dst", np.int64),
                        ("weight", np.float64)])
_ASCII_DIGITS = frozenset("0123456789")
# a line after the first that does not start with an ASCII digit
_OTHER_LINE = re.compile(r"\n[^0-9]")
# np.loadtxt opens a path with one of these suffixes as a compressed file
_COMPRESSED = (".bz2", ".gz", ".lzma", ".xz")


def _read_layers(path) -> tuple[int, int, np.ndarray]:
    """(n, k, the (k, n, n) layer stack) of a .mpx file, validated as load_network says."""
    n, k, keep, columns = _read_edges(path)
    mats = zeros((k, n, n), f"{path}: layer stack (#layers x #nodes x #nodes)")
    if columns is None:
        return n, k, mats
    # messages quote the parsed values, because np.asarray can turn a list of
    # ints that runs past int64 into floats
    layers, srcs, dsts, weights = columns
    layer, src, dst, weight = (np.asarray(col) for col in columns)
    inside = (layer >= 0) & (layer < k) & (src >= 0) & (src < n) & (dst >= 0) & (dst < n)
    bad = ~inside | (src == dst) | ~np.isfinite(weight) | (weight < 0)
    # an edge whose (layer, dst, src) entry an earlier line already set: the
    # edge numbers, shifted below the stack's zeros, go to their entries
    # through a minimum, so that each entry keeps the number of its first line
    entry = ((layer * n + dst) * n + src)[inside].astype(np.intp, copy=False)
    number = np.arange(-float(len(weight)), 0.0)[inside]
    flat = mats.reshape(-1)
    np.minimum.at(flat, entry, number)
    bad[inside] |= flat[entry] != number
    if bad.any():
        first = int(bad.argmax())
        a, j, i, w = layers[first], srcs[first], dsts[first], weights[first]
        linenos = np.flatnonzero(np.frombuffer(keep, dtype=bool)) + 1  # of each edge
        lineno = linenos[first]
        if not 0 <= a < k:
            raise ParseError(f"line {lineno}: layer {a} out of range [0, {k})")
        if not (0 <= j < n and 0 <= i < n):
            raise ParseError(f"line {lineno}: node index out of range [0, {n})")
        if j == i:
            raise ParseError(f"line {lineno}: self-loop on node {j}")
        check_weights(w, f"line {lineno}")
        earlier = linenos[int(flat[(int(a) * n + int(i)) * n + int(j)]) + len(weight)]
        raise ParseError(
            f"line {lineno}: duplicate edge {a} {j} {i}, first given on line {earlier}")
    mats[layer, dst, src] = weight
    return n, k, mats


def _read_edges(path) -> tuple:
    """(n, k, keep, columns) of a .mpx file.  `keep` holds a 1 byte for each
    edge line and a 0 byte for every other line; `columns` is what
    _edge_columns makes of the edge lines.  The first malformed line raises
    ParseError, header and edge lines alike."""
    text, read = _read_text(path)
    # one byte a line; the last line may lack its "\n"
    keep = bytearray(b"\x01") * (text.count("\n") + (text[-1:] not in ("", "\n")))
    headers = {}  # "nodes"/"layers" -> (value, line number)
    index = counted = 0  # the line index of text position `counted`
    for start in _other_line_starts(text):
        index += text.count("\n", counted, start)
        counted = start
        end = text.find("\n", start)
        line = text[start:end if end >= 0 else len(text)].strip()
        if line and line[0] not in "%#":
            continue
        keep[index] = 0
        if line.startswith("#"):
            try:
                name, value = _header(line, index + 1, headers)
            except ParseError:
                _edge_columns(keep[:index], text[:start])  # an edge line above it fails first
                raise
            headers[name] = (value, index + 1)
    # numpy's chunked file reader parses the edge lines by path when the
    # file is a regular one whose other lines all come first.  The path is
    # absolute, so that loadtxt cannot take it for a URL, has its symlinks
    # resolved before any "..", and must name the file just read.  The text
    # is let go first: kept through the parse, it grew the heap that the
    # m = 2000 benchmark's eigensolves reuse, and their peak RSS by 6 %
    name = os.path.realpath(path)
    if (keep.find(0, keep.find(1)) < 0 and not name.endswith(_COMPRESSED)
            and _names_regular_file(name, read)):
        text = None
        with _reading(path):
            columns = _edge_columns(keep, path=name)
    else:
        columns = _edge_columns(keep, text)
    if "nodes" not in headers or "layers" not in headers:
        raise ParseError("missing #nodes or #layers header")
    return headers["nodes"][0], headers["layers"][0], keep, columns


def _other_line_starts(text: str):
    """The start of every line of `text` that does not begin with an ASCII
    digit: a line that does is an edge line."""
    if text and text[0] not in _ASCII_DIGITS:
        yield 0
    match = _OTHER_LINE.search(text)
    while match:
        yield match.start() + 1
        match = _OTHER_LINE.search(text, match.start() + 1)


def _header(line: str, lineno: int, headers: dict) -> tuple[str, int]:
    """(name, value) of a `#nodes <n>` or `#layers <k>` line given once."""
    parts = line[1:].split()
    if len(parts) != 2 or parts[0] not in ("nodes", "layers"):
        raise ParseError(f"line {lineno}: bad header {line!r}")
    try:
        value = int(parts[1])
    except ValueError:
        raise ParseError(f"line {lineno}: non-integer header value {parts[1]!r}")
    if value < 1:
        raise ParseError(f"line {lineno}: #{parts[0]} must be >= 1, got {value}")
    if parts[0] in headers:
        raise ParseError(f"line {lineno}: repeated #{parts[0]} header, "
                         f"first given on line {headers[parts[0]][1]}")
    return parts[0], value


def _edge_columns(keep: bytearray, text: str | None = None, path: str | None = None):
    """(layer, src, dst, weight) columns of the lines whose `keep` byte is
    1, as arrays or as lists of Python numbers; None when there are none.
    numpy's tokenizer parses them in one call: from the lines of `text`,
    split a piece at a time so that no list of all of them is held, or from
    the file at `path`, whose 0 bytes' lines all come before its first edge
    line.  When it refuses one, the int()/float() loop below decides what
    is accepted and names the first malformed line; it reads the text of
    `path` once more."""
    skip = keep.find(1)
    if skip < 0:
        return None  # loadtxt warns on no data
    try:
        lines = path or _kept_lines(text, keep)
        table = np.loadtxt(lines, dtype=_EDGE_DTYPE, comments=None, ndmin=1,
                           skiprows=skip if path else 0, encoding="utf-8")
        return table["layer"], table["src"], table["dst"], table["weight"]
    except ValueError:
        pass
    if text is None:
        text, _ = _read_text(path)
    layers, srcs, dsts, weights = [], [], [], []  # untracked by the GC, unlike tuples
    for lineno, raw in compress(enumerate(text.split("\n"), start=1), keep):
        line = raw.strip()
        parts = line.split()
        if len(parts) != 4:
            raise ParseError(f"line {lineno}: expected 4 fields, got {len(parts)}")
        try:
            layer, src, dst = int(parts[0]), int(parts[1]), int(parts[2])
            weight = float(parts[3])
        except ValueError:
            raise ParseError(f"line {lineno}: cannot parse edge {line!r}")
        layers.append(layer)
        srcs.append(src)
        dsts.append(dst)
        weights.append(weight)
    return layers, srcs, dsts, weights


def _kept_lines(text: str, keep: bytearray):
    """The lines of `text` whose `keep` byte is 1, split from 16 KiB of
    text at a time: a list of all of them would add about 50 bytes an
    edge, and one a line cut by a Python loop takes twice the time."""
    start = index = 0
    while True:
        end = text.find("\n", start + (1 << 14))
        lines = text[start:end if end >= 0 else len(text)].split("\n")
        yield from compress(lines, keep[index:index + len(lines)])
        if end < 0:
            return
        index += len(lines)
        start = end + 1


def save_network(net: MultiplexNetwork, path: str | os.PathLike) -> None:
    """Write a .mpx file; load_network inverts it exactly (weights are
    emitted with repr, which round-trips IEEE doubles)."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"#nodes {net.n}\n")
        fh.write(f"#layers {net.k}\n")
        for a, mat in enumerate(net.layers):
            dst_idx, src_idx = np.nonzero(mat)
            edges = zip(src_idx.tolist(), dst_idx.tolist(), mat[dst_idx, src_idx].tolist())
            fh.write("".join(f"{a} {j} {i} {w!r}\n" for j, i, w in edges))
