import os
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mxspec.core import (
    DynamicCoupling,
    MultiplexNetwork,
    load_network,
    read_lines,
    save_network,
    zeros,
)
from mxspec.core import check_weights
from mxspec.errors import ParseError
from mxspec.generators import RngSeed, gen_fixed_sbm_multiplex

from conftest import random_network


def write(tmp_path, text):
    path = tmp_path / "net.mpx"
    path.write_text(text)
    return path


def test_load_single_edge(tmp_path):
    path = write(tmp_path, "#nodes 2\n#layers 1\n0 0 1 1.0\n")
    net = load_network(path)
    assert net.n == 2 and net.k == 1
    # edge from node 0 to node 1 lands in A[1][0]
    np.testing.assert_array_equal(net.layers[0], [[0.0, 0.0], [1.0, 0.0]])


def test_load_empty_edge_list(tmp_path):
    path = write(tmp_path, "#nodes 3\n#layers 2\n% no edges\n")
    net = load_network(path)
    assert net.n == 3 and net.k == 2
    for layer in net.layers:
        np.testing.assert_array_equal(layer, np.zeros((3, 3)))


def test_save_zero_network_header_only(tmp_path):
    net = MultiplexNetwork(n=3, k=2, layers=(np.zeros((3, 3)), np.zeros((3, 3))))
    path = tmp_path / "zero.mpx"
    save_network(net, path)
    lines = path.read_text().strip().splitlines()
    assert lines == ["#nodes 3", "#layers 2"]


def test_save_one_edge_one_line(tmp_path):
    layer = np.zeros((2, 2))
    layer[1, 0] = 0.25
    net = MultiplexNetwork(n=2, k=1, layers=(layer,))
    path = tmp_path / "one.mpx"
    save_network(net, path)
    lines = [l for l in path.read_text().splitlines() if not l.startswith("#")]
    assert lines == ["0 0 1 0.25"]


def _edge_by_edge_writer(net, path):
    """Reference .mpx writer: one write per edge, in np.nonzero order."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"#nodes {net.n}\n")
        fh.write(f"#layers {net.k}\n")
        for a in range(net.k):
            mat = net.layers[a]
            dst_idx, src_idx = np.nonzero(mat)
            for i, j in zip(dst_idx.tolist(), src_idx.tolist()):
                fh.write(f"{a} {j} {i} {float(mat[i, j])!r}\n")


def test_save_matches_edge_by_edge_reference(tmp_path):
    rng = np.random.default_rng(23)
    extremes = np.array([5e-324, 1.7976931348623157e308, 2.2250738585072014e-308, 0.1, 1.0])
    written = set()
    for _ in range(60):
        net = random_network(rng)
        layers = [np.array(layer) for layer in net.layers]
        for layer in layers:
            nonzero = layer != 0
            swap = nonzero & (rng.random(layer.shape) < 0.3)
            layer[swap] = rng.choice(extremes, size=int(swap.sum()))
        net = MultiplexNetwork(n=net.n, k=net.k, layers=tuple(layers))
        save_network(net, tmp_path / "bulk.mpx")
        _edge_by_edge_writer(net, tmp_path / "reference.mpx")
        text = (tmp_path / "bulk.mpx").read_bytes()
        assert text == (tmp_path / "reference.mpx").read_bytes()
        written.update(token for token in (b"5e-324", b"1.7976931348623157e+308") if token in text)
        loaded = load_network(tmp_path / "bulk.mpx")
        for a in range(net.k):
            np.testing.assert_array_equal(loaded.layers[a], net.layers[a])
    assert written == {b"5e-324", b"1.7976931348623157e+308"}


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("#nodes 2\n#layers 1\n0 0 1\n", "line 3"),
        ("#nodes 2\n#layers 1\n1 0 1 1.0\n", "layer 1 out of range"),
        ("#nodes 2\n#layers 1\n0 3 1 1.0\n", "out of range"),
        ("#nodes 2\n#layers 1\n0 1 1 1.0\n", "self-loop"),
        ("#nodes 2\n#layers 1\n0 0 1 -2.0\n", "negative weight"),
        ("#nodes 2\n0 0 1 1.0\n", "missing"),
        ("#nodes 2\n#layers 1\n0 0 1 abc\n", "cannot parse"),
        ("#nodes 2\n#layers 1\n0 0 1 nan\n", "line 3: non-finite weight"),
        ("#nodes 2\n#layers 1\n0 0 1 inf\n", "line 3: non-finite weight"),
        ("#nodes 2\n#layers 1\n0 0 1 -inf\n", "line 3: non-finite weight"),
        ("#nodes 2\n#layers 1\n0 0 1 1.0\n0 1 0 1.0\n0 0 1 2.0\n",
         "line 5: duplicate edge 0 0 1, first given on line 3"),
    ],
)
def test_load_errors_name_the_line(tmp_path, text, fragment):
    path = write(tmp_path, text)
    with pytest.raises(ParseError, match=fragment):
        load_network(path)


def _line_by_line(edges, n, k):
    """Reference parser: check each edge line in file order; return the
    first error message, or the layers when every line is valid."""
    mats = np.zeros((k, n, n))
    first_line = {}
    for lineno, (a, j, i, w) in enumerate(edges, start=3):
        if not 0 <= a < k:
            return f"line {lineno}: layer {a} out of range [0, {k})"
        if not (0 <= j < n and 0 <= i < n):
            return f"line {lineno}: node index out of range [0, {n})"
        if j == i:
            return f"line {lineno}: self-loop on node {j}"
        if not np.isfinite(w):
            return f"line {lineno}: non-finite weight {w}"
        if w < 0:
            return f"line {lineno}: negative weight {w}"
        if (a, j, i) in first_line:
            return (f"line {lineno}: duplicate edge {a} {j} {i}, "
                    f"first given on line {first_line[a, j, i]}")
        first_line[a, j, i] = lineno
        mats[a, i, j] = w
    return mats


def test_load_matches_line_by_line_reference(tmp_path):
    rng = np.random.default_rng(11)
    path = tmp_path / "net.mpx"
    outcomes = set()
    for _ in range(300):
        n, k = int(rng.integers(2, 4)), int(rng.integers(1, 3))
        edges = []
        for _ in range(int(rng.integers(1, 6))):
            # mostly valid indices; now and then one pushed out of range
            a, j, i = rng.integers(0, [k, n, n]) + (rng.random(3) < 0.05) * [k, n, n]
            w = rng.choice([1.0, 2.5, -1.0, np.nan, np.inf, -np.inf],
                           p=[0.45, 0.45, 0.025, 0.025, 0.025, 0.025])
            edges.append((int(a), int(j), int(i), float(w)))
        path.write_text(f"#nodes {n}\n#layers {k}\n"
                        + "".join(f"{a} {j} {i} {w!r}\n" for a, j, i, w in edges))
        expected = _line_by_line(edges, n, k)
        if isinstance(expected, str):
            with pytest.raises(ParseError) as exc:
                load_network(path)
            assert exc.value.message == expected
            outcomes.add(expected.split(": ", 1)[1].split()[0])
        else:
            np.testing.assert_array_equal(np.stack(load_network(path).layers), expected)
            outcomes.add("valid")
    assert outcomes == {"layer", "node", "self-loop", "non-finite", "negative",
                        "duplicate", "valid"}


def _reference_read_layers(path):
    """The per-line parser that numpy's tokenizer replaced, kept as the
    reference: each line stripped, split and converted with int()/float()
    in file order, then the vectorized checks; a repeated header overrides
    the earlier one."""
    n = None
    k = None
    layers, srcs, dsts, weights, linenos = [], [], [], [], []
    for lineno, raw in enumerate(read_lines(path), start=1):
        line = raw.strip()
        if not line or line.startswith("%"):
            continue
        if line.startswith("#"):
            parts = line[1:].split()
            if len(parts) != 2 or parts[0] not in ("nodes", "layers"):
                raise ParseError(f"line {lineno}: bad header {line!r}")
            try:
                value = int(parts[1])
            except ValueError:
                raise ParseError(f"line {lineno}: non-integer header value {parts[1]!r}")
            if value < 1:
                raise ParseError(f"line {lineno}: #{parts[0]} must be >= 1, got {value}")
            if parts[0] == "nodes":
                n = value
            else:
                k = value
            continue
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
        linenos.append(lineno)

    if n is None or k is None:
        raise ParseError("missing #nodes or #layers header")

    mats = zeros((k, n, n), f"{path}: layer stack (#layers x #nodes x #nodes)")
    if not linenos:
        return n, k, mats
    layer, src, dst, weight = (np.array(col) for col in (layers, srcs, dsts, weights))
    bad = ((layer < 0) | (layer >= k) | (src < 0) | (src >= n) | (dst < 0) | (dst >= n)
           | (src == dst) | ~np.isfinite(weight) | (weight < 0))
    key = (layer * n + dst) * n + src
    order = np.argsort(key, kind="stable")
    bad[order[1:]] |= key[order[1:]] == key[order[:-1]]
    if bad.any():
        first = int(bad.argmax())
        a, j, i, w = layers[first], srcs[first], dsts[first], weights[first]
        lineno = linenos[first]
        if not 0 <= a < k:
            raise ParseError(f"line {lineno}: layer {a} out of range [0, {k})")
        if not (0 <= j < n and 0 <= i < n):
            raise ParseError(f"line {lineno}: node index out of range [0, {n})")
        if j == i:
            raise ParseError(f"line {lineno}: self-loop on node {j}")
        check_weights(w, f"line {lineno}")
        earlier = linenos[int(np.flatnonzero(key[:first] == key[first])[0])]
        raise ParseError(
            f"line {lineno}: duplicate edge {a} {j} {i}, first given on line {earlier}")
    mats[layer, dst, src] = weight
    return n, k, mats


# index-field spellings: int() reads all but 1.0, 0x1, 1e1 and x; of those it
# reads, numpy's tokenizer refuses 1_0, the Arabic-Indic digit and the two
# past int64, which leaves them to the per-line path
INDEX_TOKENS = ["+1", "-0", "007", "1_0", "\u0661", "9223372036854775808",
                "-9223372036854775809", "1.0", "0x1", "1e1", "-1", "x"]
# weight spellings: float() accepts all but the last three; 1e400 is inf
WEIGHT_TOKENS = ["+1", "-0.0", "1_0", "\u0661", "1e1", ".5", "5.", "1e400", "nan",
                 "infinity", "-inf", "-1.5", "0", "0x1", "1.0#x", "abc"]
BLANKS = [" ", "  ", "\t", " \t ", "\x0c", "\u3000"]


def _random_mpx(rng) -> str:
    """Text of a small random .mpx file in mixed spellings."""
    def pick(options):
        return options[int(rng.integers(len(options)))]

    n, k = int(rng.integers(2, 7)), int(rng.integers(1, 3))
    body = []
    for _ in range(int(rng.integers(0, 9))):
        roll = rng.random()
        if roll < 0.08:
            body.append(pick(["% comment 1 2", "", "   ", "\t", "%0 1 2 3.0"]))
            continue
        fields = [str(int(rng.integers(k))), str(int(rng.integers(n))),
                  str(int(rng.integers(n))), pick(["1.0", "2.5", "0.25", "3"])]
        if roll < 0.45:  # one field in an unusual spelling
            col = int(rng.integers(4))
            fields[col] = pick(WEIGHT_TOKENS if col == 3 else INDEX_TOKENS)
        if rng.random() < 0.05:
            fields = fields[:3] if rng.random() < 0.5 else fields + ["7"]
        line = fields[0] + "".join(pick(BLANKS) + field for field in fields[1:])
        if rng.random() < 0.2:
            line = pick(BLANKS) + line + pick(BLANKS)
        body.append(line)
    headers = [f"#nodes {n}", f"#layers {k}"]
    if rng.random() < 0.05:
        headers[int(rng.integers(2))] = pick(["#nodes x", "#edges 3", "#layers 0"])
    if rng.random() < 0.05:
        headers.pop(int(rng.integers(2)))
    for header in headers:  # each header once, anywhere in the file
        body.insert(int(rng.integers(len(body) + 1)), header)
    eol = "\r\n" if rng.random() < 0.2 else "\n"
    return eol.join(body) + (eol if rng.random() < 0.9 else "")


def test_load_matches_per_line_reference_parser(tmp_path):
    rng = np.random.default_rng(9)
    path = tmp_path / "net.mpx"
    outcomes = set()
    for _ in range(800):
        text = _random_mpx(rng)
        path.write_bytes(text.encode("utf-8"))
        try:
            expected = _reference_read_layers(path)
        except ParseError as exc:
            with pytest.raises(ParseError) as got:
                load_network(path)
            assert got.value.message == exc.message, text
            outcomes.add(exc.message.split(": ", 1)[-1].split()[0])
            continue
        net = load_network(path)
        assert (net.n, net.k) == expected[:2]
        # bitwise, so that -0.0 and 0.0 count as different
        assert np.stack(net.layers).tobytes() == expected[2].tobytes(), text
        outcomes.add("loaded")
    assert outcomes >= {"loaded", "expected", "cannot", "layer", "node", "self-loop",
                        "non-finite", "negative", "duplicate", "bad", "non-integer",
                        "#layers", "missing"}


@pytest.mark.parametrize("text, layers", [
    ("#nodes 12\n#layers 1\n0 1_0 \u0661 \u0662.\u0665\n", {(0, 1, 10): 2.5}),
    ("#nodes 2\n#layers 1\n+0 -0 +1 1e1\r\n\u30000\u30001 0 .5\u3000\n",
     {(0, 1, 0): 10.0, (0, 0, 1): 0.5}),
    ("#nodes 2\n#layers 1\n0 1 0 -0.0\n", {(0, 0, 1): -0.0}),
])
def test_load_accepts_what_int_and_float_accept(tmp_path, text, layers):
    net = load_network(write(tmp_path, text))
    expected = np.zeros((net.k, net.n, net.n))
    for (a, i, j), w in layers.items():
        expected[a, i, j] = w
    assert np.stack(net.layers).tobytes() == expected.tobytes()


@pytest.mark.parametrize("text", [
    "#nodes 3\n#layers 2\n",
    "% only comments\n#nodes 3\n\n%0 1 2 1.0\n   \n#layers 2\n% end",
])
def test_header_only_and_comment_only_files_load_without_warnings(tmp_path, text):
    path = write(tmp_path, text)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        net = load_network(path)
    assert (net.n, net.k) == (3, 2)
    assert not np.stack(net.layers).any()


@pytest.mark.parametrize("text, message", [
    ("#nodes 3\n#layers 1\n#nodes 4\n",
     "line 3: repeated #nodes header, first given on line 1"),
    ("% c\n#layers 2\n#nodes 3\n0 0 1 1.0\n#layers 2\n",
     "line 5: repeated #layers header, first given on line 2"),
    # an edge line above the repeated header fails first, as any bad line does
    ("#nodes 3\n#layers 1\n0 0 1\n#nodes 3\n", "line 3: expected 4 fields, got 3"),
    # a malformed repeat keeps its own message
    ("#nodes 3\n#layers 1\n#nodes x\n", "line 3: non-integer header value 'x'"),
])
def test_repeated_header_rejected(tmp_path, text, message):
    path = write(tmp_path, text)
    with pytest.raises(ParseError) as exc:
        load_network(path)
    assert exc.value.message == message


def test_round_trip_exact_over_random_networks(tmp_path):
    rng = np.random.default_rng(42)
    for trial in range(100):
        net = random_network(rng)
        path = tmp_path / f"rt{trial}.mpx"
        save_network(net, path)
        loaded = load_network(path)
        assert loaded.n == net.n and loaded.k == net.k
        for a in range(net.k):
            np.testing.assert_array_equal(loaded.layers[a], net.layers[a])


@settings(max_examples=50, deadline=None)
@given(
    n=st.integers(1, 5),
    k=st.integers(1, 3),
    seed=st.integers(0, 2**32 - 1),
)
def test_round_trip_property(tmp_path_factory, n, k, seed):
    rng = np.random.default_rng(seed)
    net = random_network(rng, n=n, k=k)
    path = tmp_path_factory.mktemp("rt") / "net.mpx"
    save_network(net, path)
    loaded = load_network(path)
    for a in range(k):
        np.testing.assert_array_equal(loaded.layers[a], net.layers[a])


def test_comments_at_the_top_or_between_edges_load_the_same_bytes(tmp_path, monkeypatch):
    # with every comment above the edge lines numpy reads the edges by path;
    # with one between them, or with a name loadtxt would open as compressed,
    # it parses the lines of the text already read
    net = random_network(np.random.default_rng(5), n=30, k=3)
    path = tmp_path / "net.mpx"
    save_network(net, path)
    lines = path.read_text().splitlines()
    header, edges = lines[:2], lines[2:]
    half = len(edges) // 2
    comments = ["% a comment", "", "   ", "\t% indented"]
    layouts = {
        "top": header + comments + edges,
        "between": header + edges[:half] + comments + edges[half:],
        "top.gz": header + comments + edges,
    }
    by_path = []
    loadtxt = np.loadtxt

    def spy(source, *args, **kwargs):
        by_path.append(isinstance(source, str))
        return loadtxt(source, *args, **kwargs)

    monkeypatch.setattr(np, "loadtxt", spy)
    expected = np.stack(net.layers).tobytes()
    for name, lines in layouts.items():
        target = tmp_path / f"{name}.mpx" if name != "top.gz" else tmp_path / "net.mpx.gz"
        target.write_text("\n".join(lines) + "\n")
        assert np.stack(load_network(target).layers).tobytes() == expected, name
    assert by_path == [True, False, False]


def test_path_route_reads_the_file_the_text_came_from(tmp_path, monkeypatch):
    # link/.. is the directory that holds link's target, not tmp_path: a
    # path that collapsed ".." by text would parse the decoy's edges
    (tmp_path / "real" / "sub").mkdir(parents=True)
    try:
        os.symlink(tmp_path / "real" / "sub", tmp_path / "link")
    except OSError:
        pytest.skip("cannot make a symlink")
    net = random_network(np.random.default_rng(6), n=12, k=2)
    save_network(net, tmp_path / "real" / "net.mpx")
    save_network(MultiplexNetwork(net.n, net.k, tuple(2 * layer for layer in net.layers)),
                 tmp_path / "net.mpx")
    name = str(tmp_path / "link" / ".." / "net.mpx")
    assert np.stack(load_network(name).layers).tobytes() == np.stack(net.layers).tobytes()
    # a file that is gone when numpy opens it is a ParseError naming it
    loadtxt = np.loadtxt

    def removed(source, *args, **kwargs):
        os.remove(source)
        return loadtxt(source, *args, **kwargs)

    monkeypatch.setattr(np, "loadtxt", removed)
    with pytest.raises(ParseError, match=f"^cannot read {re.escape(name)}: "):
        load_network(name)


def test_load_peak_memory_holds_no_per_line_objects(tmp_path):
    net, _ = gen_fixed_sbm_multiplex(200, 4, 0.3, RngSeed(3))
    path = tmp_path / "net.mpx"
    save_network(net, path)
    edges = sum(int(np.count_nonzero(layer)) for layer in net.layers)
    tracemalloc.start()
    try:
        load_network(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the layer stack and its frozen copy, plus 56 bytes an edge for the text,
    # the parsed table and the index arrays (about 49 are used); a list of the
    # lines would add about 60 more, a str object and its pointer for each
    stack = 8 * net.k * net.n * net.n
    assert peak <= 2 * stack + 56 * edges, (peak - 2 * stack) / edges


def test_line_route_peak_memory_stays_near_the_path_route(tmp_path, monkeypatch):
    # a comment between two edge lines sends the text's lines to numpy; they
    # are split a piece of text at a time, so the route holds no list of all
    # of them (one added about 46 bytes an edge)
    net, _ = gen_fixed_sbm_multiplex(200, 4, 0.3, RngSeed(3))
    path = tmp_path / "net.mpx"
    save_network(net, path)
    lines = path.read_text().splitlines()
    between = tmp_path / "between.mpx"
    between.write_text("\n".join(lines[:len(lines) // 2] + ["% a comment"]
                                 + lines[len(lines) // 2:]) + "\n")
    edges = sum(int(np.count_nonzero(layer)) for layer in net.layers)
    stack = 8 * net.k * net.n * net.n
    by_path = []
    loadtxt = np.loadtxt

    def spy(source, *args, **kwargs):
        by_path.append(isinstance(source, str))
        return loadtxt(source, *args, **kwargs)

    monkeypatch.setattr(np, "loadtxt", spy)
    per_edge, loaded = {}, []
    for name in (path, between):
        tracemalloc.start()
        try:
            loaded.append(np.stack(load_network(name).layers).tobytes())
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        per_edge[name.stem] = (peak - 2 * stack) / edges
    assert by_path == [True, False]
    assert loaded[0] == loaded[1]
    assert per_edge["between"] <= per_edge["net"] + 8, per_edge


def test_network_rejects_bad_matrices():
    with pytest.raises(ParseError, match="negative"):
        MultiplexNetwork(n=2, k=1, layers=(np.array([[0.0, -1.0], [0.0, 0.0]]),))
    with pytest.raises(ParseError, match="diagonal"):
        MultiplexNetwork(n=2, k=1, layers=(np.array([[1.0, 0.0], [0.0, 0.0]]),))
    with pytest.raises(ParseError, match="shape"):
        MultiplexNetwork(n=3, k=1, layers=(np.zeros((2, 2)),))


def test_network_is_immutable():
    net = MultiplexNetwork(n=2, k=1, layers=(np.zeros((2, 2)),))
    with pytest.raises(ValueError):
        net.layers[0][0, 1] = 5.0


def test_coupling_config_validation():
    with pytest.raises(ParseError):
        DynamicCoupling(-np.ones((2, 2, 3)))
    coupling = DynamicCoupling.identity(3, 2)
    assert coupling.k == 2 and coupling.n == 3
    assert np.all(coupling.diag == 1.0)
    disjoint = DynamicCoupling.uniform(np.eye(2), 3)
    assert np.all(disjoint.diag[0, 0] == 1.0) and np.all(disjoint.diag[0, 1] == 0.0)
    # a table that is not k x k, not numpy's broadcast error
    for table in ([[1.0, 2.0]], [1.0, 2.0], 1.0):
        with pytest.raises(ParseError, match="shape"):
            DynamicCoupling.uniform(table, 3)
