import contextlib
import csv
import errno
import hashlib
import io
import os
import subprocess
import sys
import tempfile
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mxspec import cli, cuts, experiments, spectral
from mxspec.cli import main
from mxspec.core import DynamicCoupling, MultiplexNetwork, load_network, save_network
from mxspec.generators import RngSeed, gen_fixed_sbm_multiplex
from mxspec.operators import build_dynamic, build_supra

from conftest import reduced_laplacian


def run(*argv):
    return main(list(argv))


def supra_weight(model, weight):
    """The --supra-weight flag, which only the supra model reads."""
    return ["--supra-weight", weight] if model == "supra" else []


def test_missing_input_exits_2_with_module_prefix(tmp_path, capsys):
    code = run("cluster", "--input", str(tmp_path / "missing.mpx"),
               "--model", "supra", "--out", str(tmp_path / "a.csv"))
    assert code == 2
    assert "error[multiplex-core]:" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["generate", "cluster", "experiment", "heatmap"])
def test_unwritable_out_exits_2_naming_the_file(tmp_path, capsys, command):
    net, results = tmp_path / "net.mpx", tmp_path / "r.csv"
    sweep = ["experiment", "er", "--instances", "1", "--n", "6", "--p-grid", "0.3",
             "--k-grid", "2", "--jobs", "1"]
    assert run("generate", "--type", "er", "--n", "6", "--out", str(net)) == 0
    assert run(*sweep, "--out", str(results)) == 0
    argv = {
        "generate": ["generate", "--type", "er", "--n", "6"],
        "cluster": ["cluster", "--input", str(net), "--model", "supra"],
        "experiment": sweep,
        "heatmap": ["heatmap", str(results), "--x", "p", "--y", "k", "--metric", "frac_copies"],
    }[command]
    out = tmp_path / "missing" / "out.csv"
    capsys.readouterr()
    assert run(*argv, "--out", str(out)) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error[cli]: cannot write {out}: {os.strerror(errno.ENOENT)}\n"
    assert captured.out == ""


def test_usage_error_exits_1(capsys):
    assert run("cluster", "--model", "supra") == 1
    assert "error[cli]:" in capsys.readouterr().err
    assert run("frobnicate") == 1


def test_help_exits_zero_and_lists_flags(capsys):
    assert run("--help") == 0
    out = capsys.readouterr().out
    for sub in ("generate", "cluster", "cut", "experiment", "heatmap"):
        assert sub in out
    assert run("experiment", "--help") == 0
    out = capsys.readouterr().out
    for flag in ("--seed", "--instances", "--jobs", "--out", "--aggregate",
                 "--p-grid", "--q-grid", "--w-grid", "--k-grid", "--full",
                 "--model", "--n", "--intra", "--inter"):
        assert flag in out


def test_generate_deterministic(tmp_path):
    out1, out2 = tmp_path / "a.mpx", tmp_path / "b.mpx"
    argv = ["generate", "--type", "er", "--n", "10", "--k", "2",
            "--p", "0.5", "--seed", "7"]
    assert run(*argv, "--out", str(out1)) == 0
    assert run(*argv, "--out", str(out2)) == 0
    assert out1.read_bytes() == out2.read_bytes()
    net = load_network(out1)
    assert net.n == 10 and net.k == 2


def test_generate_planted_sidecars(tmp_path):
    out = tmp_path / "net.mpx"
    assert run("generate", "--type", "sbm-overlap", "--n", "8",
               "--seed", "3", "--out", str(out)) == 0
    planted1 = (tmp_path / "net.planted.csv").read_text().splitlines()
    planted2 = (tmp_path / "net.planted2.csv").read_text().splitlines()
    assert planted1[0] == "copy_index,cluster"
    assert len(planted1) == len(planted2) == 17  # header + 2n copies
    assert run("generate", "--type", "sbm-fixed", "--n", "8", "--k", "2",
               "--p", "0.2", "--seed", "3", "--out", str(tmp_path / "f.mpx")) == 0
    assert (tmp_path / "f.planted.csv").exists()


def test_env_seed_override(tmp_path, monkeypatch):
    out_env, out_default, out_flag = (tmp_path / n for n in ("e.mpx", "d.mpx", "f.mpx"))
    argv = ["generate", "--type", "er", "--n", "10", "--k", "2", "--p", "0.5"]
    monkeypatch.setenv("MXSPEC_SEED", "99")
    assert run(*argv, "--out", str(out_env)) == 0
    # explicit --seed wins over the environment
    assert run(*argv, "--seed", "99", "--out", str(out_flag)) == 0
    monkeypatch.delenv("MXSPEC_SEED")
    assert run(*argv, "--out", str(out_default)) == 0
    assert out_env.read_bytes() == out_flag.read_bytes()
    assert out_env.read_bytes() != out_default.read_bytes()


@pytest.mark.parametrize("command", ["generate", "cluster", "experiment"])
def test_env_seed_that_is_not_an_integer_exits_2(tmp_path, capsys, monkeypatch, command):
    net = tmp_path / "net.mpx"
    net.write_text("#nodes 2\n#layers 1\n0 0 1 1.0\n")
    argv = {"generate": ["generate", "--type", "er", "--n", "4"],
            "cluster": ["cluster", "--input", str(net), "--model", "supra"],
            "experiment": ["experiment", "er", "--instances", "1", "--jobs", "1"]}[command]
    out = tmp_path / "out"
    monkeypatch.setenv("MXSPEC_SEED", "abc")
    assert run(*argv, "--out", str(out)) == 2
    assert capsys.readouterr().err == (
        "error[multiplex-core]: MXSPEC_SEED is not an integer: 'abc'\n")
    assert not out.exists()


def test_cluster_and_cut_pipeline(tmp_path, capsys):
    net_path = tmp_path / "net.mpx"
    assert run("generate", "--type", "sbm-fixed", "--n", "10", "--k", "2",
               "--p", "0.1", "--seed", "4", "--out", str(net_path)) == 0
    assign = tmp_path / "assign.csv"
    assert run("cluster", "--input", str(net_path), "--model", "supra",
               "--supra-weight", "2.0", "--clusters", "2",
               "--seed", "4", "--out", str(assign)) == 0
    lines = [l for l in assign.read_text().splitlines() if not l.startswith("%")]
    assert lines[0] == "copy_index,layer,node,cluster"
    assert len(lines) == 21
    for row in csv.reader(lines[1:]):  # copies are indexed layer-major
        copy_index, layer, node, _ = map(int, row)
        assert (layer, node) == divmod(copy_index, 10)
    capsys.readouterr()
    assert run("cut", "--input", str(net_path), "--model", "supra",
               "--supra-weight", "2.0", "--partition", str(assign),
               "--decompose") == 0
    out = capsys.readouterr().out.splitlines()
    report = dict(csv.reader(out[1:]))
    assert float(report["total"]) == pytest.approx(float(report["quadratic_form"]), abs=1e-10)
    term_sum = sum(float(v) for k, v in report.items()
                   if k.startswith(("intra_", "coupling_")))
    assert term_sum == pytest.approx(2 * float(report["total"]), abs=1e-10)


def test_cluster_kway_and_aggregate_model(tmp_path):
    net_path = tmp_path / "net.mpx"
    assert run("generate", "--type", "er", "--n", "12", "--k", "2",
               "--p", "0.4", "--seed", "6", "--out", str(net_path)) == 0
    out = tmp_path / "k.csv"
    assert run("cluster", "--input", str(net_path), "--model", "dynamic",
               "--clusters", "3", "--seed", "6", "--out", str(out)) == 0
    rows = [l for l in out.read_text().splitlines() if not l.startswith("%")][1:]
    assert len(rows) == 24
    clusters = {int(r.split(",")[-1]) for r in rows}
    assert clusters == {0, 1, 2}
    agg = tmp_path / "agg.csv"
    assert run("cluster", "--input", str(net_path), "--model", "aggregate",
               "--seed", "6", "--out", str(agg)) == 0
    rows = [l for l in agg.read_text().splitlines() if not l.startswith("%")][1:]
    # aggregate clusters nodes, lifted to every copy
    by_copy = {int(r.split(",")[0]): int(r.split(",")[-1]) for r in rows}
    for node in range(12):
        assert by_copy[node] == by_copy[node + 12]


def test_experiment_row_count_contract(tmp_path):
    out = tmp_path / "r.csv"
    assert run("experiment", "fixed-sbm", "--seed", "1", "--instances", "5",
               "--n", "8", "--p-grid", "0.2", "--w-grid", "1.0",
               "--k-grid", "2", "--out", str(out)) == 0
    with open(out) as fh:
        rows = list(csv.DictReader(fh))
    # per grid point and metric: exactly 5 instance rows
    points = {}
    for row in rows:
        key = (row["param:model"], row["param:w"], row["metric"])
        points.setdefault(key, []).append(row["instance"])
    for key, instances in points.items():
        assert sorted(instances) == ["0", "1", "2", "3", "4"], key


def test_experiment_rerun_and_jobs_byte_identical(tmp_path):
    outs = [tmp_path / f"r{i}.csv" for i in range(3)]
    argv = ["experiment", "er", "--seed", "2", "--instances", "3", "--n", "10",
            "--p-grid", "0.3", "--k-grid", "2", "--model", "supra"]
    assert run(*argv, "--out", str(outs[0])) == 0
    assert run(*argv, "--out", str(outs[1])) == 0
    assert run(*argv, "--jobs", "2", "--out", str(outs[2])) == 0
    assert outs[0].read_bytes() == outs[1].read_bytes() == outs[2].read_bytes()


def test_heatmap_from_results(tmp_path, capsys):
    results = tmp_path / "r.csv"
    assert run("experiment", "overlap", "--seed", "3", "--instances", "2",
               "--n", "8", "--p-grid", "0.1,0.9", "--q-grid", "0.1",
               "--out", str(results)) == 0
    heat = tmp_path / "h.csv"
    assert run("heatmap", str(results), "--x", "p", "--y", "q",
               "--metric", "regime", "--out", str(heat)) == 0
    lines = heat.read_text().splitlines()
    assert lines[0] == "q\\p,0.1,0.9"
    assert len(lines) == 2
    capsys.readouterr()
    assert run("heatmap", str(results), "--x", "p", "--y", "q",
               "--metric", "degenerate") == 0
    assert "q\\p" in capsys.readouterr().out


RESULTS_HEADER = b"experiment,param:p,param:q,instance,seed,metric,value\r\n"


@pytest.mark.parametrize("content, message", [
    (None, "cannot read {path}: [Errno 2] No such file or directory"),
    (b"", "{path}: empty file, expected a results CSV header"),
    (RESULTS_HEADER + b"overlap,0.1,0.1,0,7,regime,layer1\xff\r\n",
     "cannot read {path}: not UTF-8 text (byte 0xff)"),
    (RESULTS_HEADER + b"overlap,0.1,0.1,0,7,regime,layer1\r\noverlap,0.1,0.1,x,7,regime,other\r\n",
     "{path}: line 3: malformed results row: invalid literal for int() with base 10: 'x'"),
    (RESULTS_HEADER + b"overlap,0.1,0.1,0\r\n",
     "{path}: line 2: malformed results row: no 'seed' field"),
], ids=["missing", "empty", "not-utf8", "bad-value", "short-row"])
def test_heatmap_rejects_unreadable_results(tmp_path, capsys, content, message):
    path = tmp_path / "r.csv"
    if content is not None:
        path.write_bytes(content)
    assert run("heatmap", str(path), "--x", "p", "--y", "q", "--metric", "regime") == 2
    assert capsys.readouterr().err.startswith(
        "error[multiplex-core]: " + message.format(path=path))


def test_cluster_with_coupling_file(tmp_path):
    net_path = tmp_path / "net.mpx"
    run("generate", "--type", "er", "--n", "8", "--k", "2", "--p", "0.4",
        "--seed", "2", "--out", str(net_path))
    cpl = tmp_path / "c.cpl"
    cpl.write_text("0 1 0.0\n1 0 0.0\n")  # decoupled layers
    out = tmp_path / "a.csv"
    assert run("cluster", "--input", str(net_path), "--model", "dynamic",
               "--coupling", str(cpl), "--seed", "2", "--out", str(out)) == 0
    meta = out.read_text().splitlines()[0]
    assert "degenerate=1" in meta  # block-diagonal operator is disconnected


def test_cluster_rejects_non_finite_supra_weight(tmp_path, capsys):
    net_path = tmp_path / "net.mpx"
    run("generate", "--type", "er", "--n", "6", "--k", "2", "--p", "0.5",
        "--seed", "1", "--out", str(net_path))
    code = run("cluster", "--input", str(net_path), "--model", "supra",
               "--supra-weight", "nan", "--out", str(tmp_path / "a.csv"))
    assert code == 2
    assert "error[multiplex-core]:" in capsys.readouterr().err


@pytest.mark.parametrize("model", ["supra", "dynamic", "aggregate"])
def test_cluster_bipartition_makes_one_eigensolve(tmp_path, monkeypatch, model):
    sbm_path, cliques_path = tmp_path / "sbm.mpx", tmp_path / "cliques.mpx"
    assert run("generate", "--type", "sbm-fixed", "--n", "10", "--k", "3",
               "--p", "0.2", "--seed", "3", "--out", str(sbm_path)) == 0
    # two disjoint 8-cliques on one layer: eigenvalues 0, 0 and 8 fourteen
    # times, a Fiedler eigenspace that runs past the 8-pair subset
    cliques = np.kron(np.eye(2), np.ones((8, 8))) - np.eye(16)
    save_network(MultiplexNetwork(n=16, k=1, layers=(cliques,)), cliques_path)
    calls = []

    def counted(fn):
        def wrapper(*args, **kwargs):
            calls.append(args[0])
            return fn(*args, **kwargs)
        return wrapper

    def no_supra(*args):
        raise AssertionError("the aggregate Laplacian is built from the layers")

    for net_path in (sbm_path, cliques_path):
        net = load_network(net_path)
        if model == "supra":
            lap = build_supra(net, 1.5).laplacian
        elif model == "dynamic":
            lap = build_dynamic(net, DynamicCoupling.identity(net.n, net.k)).laplacian
        else:
            # the reference: J^T L J of the nk x nk supra operator
            lap = reduced_laplacian(build_supra(net, 0.0))
        # the metadata line as built from separate decompositions
        part, _, degenerate = spectral.fiedler_bipartition(lap)
        fiedler_value = spectral.eig_sym(lap, 2).fiedler_value
        system = spectral.eig_sym(lap)
        multiplicity = int(np.sum(
            np.abs(system.eigenvalues - fiedler_value) <= system.zero_tolerance))
        expected = (f"% fiedler_value={fiedler_value!r} degenerate={int(degenerate)} "
                    f"fiedler_multiplicity={multiplicity}")
        del calls[:]
        out = tmp_path / "a.csv"
        with monkeypatch.context() as patch:
            patch.setattr(spectral, "eig_sym", counted(spectral.eig_sym))
            patch.setattr(cli, "eig_sym", counted(cli.eig_sym))
            if model == "aggregate":
                patch.setattr(cli, "build_supra", no_supra)
            assert run("cluster", "--input", str(net_path), "--model", model,
                       *supra_weight(model, "1.5"), "--clusters", "2", "--seed", "3",
                       "--out", str(out)) == 0
        assert len(calls) == 1, net_path
        assert calls[0].tobytes() == lap.tobytes()
        lines = out.read_text().splitlines()
        assert lines[0] == expected
        if net_path == cliques_path:
            assert lines[0].endswith(" degenerate=1 fiedler_multiplicity=14")
        labels = [int(row.split(",")[-1]) for row in lines[2:]]
        lifted = np.tile(part.labels, net.k) if model == "aggregate" else part.labels
        assert labels == lifted.tolist()


@pytest.mark.parametrize("model", ["supra", "dynamic"])
def test_cluster_on_a_disconnected_operator_prints_its_fiedler_eigenvalue(tmp_path, model):
    # p = 0: every layer falls apart into the same blocks.  The metadata
    # line keeps the solved smallest eigenvalue above zero, where
    # fiedler_bipartition reports 0.0, the algebraic connectivity
    net_path = tmp_path / "net.mpx"
    assert run("generate", "--type", "sbm-fixed", "--n", "10", "--k", "3",
               "--p", "0", "--seed", "3", "--out", str(net_path)) == 0
    net = load_network(net_path)
    if model == "supra":
        lap = build_supra(net, 1.5).laplacian
    else:
        lap = build_dynamic(net, DynamicCoupling.identity(net.n, net.k)).laplacian
    system = spectral.eig_sym(lap)
    part, value, degenerate = spectral.fiedler_bipartition(lap)
    assert degenerate and value == 0.0 < system.fiedler_value
    out = tmp_path / "a.csv"
    assert run("cluster", "--input", str(net_path), "--model", model,
               *supra_weight(model, "1.5"), "--clusters", "2", "--out", str(out)) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == (f"% fiedler_value={system.fiedler_value!r} degenerate=1 "
                        f"fiedler_multiplicity={system.fiedler_multiplicity}")
    assert [int(row.split(",")[-1]) for row in lines[2:]] == part.labels.tolist()


def test_cluster_rejects_undecodable_input(tmp_path, capsys):
    net_path = tmp_path / "net.mpx"
    net_path.write_bytes(b"#nodes 3\n#layers 1\n0 0 1 1.\xff\n")
    code = run("cluster", "--input", str(net_path), "--model", "supra",
               "--out", str(tmp_path / "a.csv"))
    assert code == 2
    assert capsys.readouterr().err == (
        f"error[multiplex-core]: cannot read {net_path}: not UTF-8 text (byte 0xff)\n")


def piped(data: bytes, read):
    """read(name) of a /dev/fd name of a pipe that a thread fills with `data`."""
    fd_in, fd_out = os.pipe()

    def feed():
        with contextlib.suppress(BrokenPipeError), os.fdopen(fd_out, "wb") as fh:
            fh.write(data)

    feeder = threading.Thread(target=feed)
    feeder.start()
    try:
        return read(f"/dev/fd/{fd_in}")
    finally:
        os.close(fd_in)
        feeder.join(timeout=60)
        assert not feeder.is_alive()


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="no /dev/fd")
def test_piped_network_loads_as_the_file_does(tmp_path, capsys):
    net, _ = gen_fixed_sbm_multiplex(60, 3, 0.3, RngSeed(4))
    net_path = tmp_path / "net.mpx"
    save_network(net, net_path)
    data = net_path.read_bytes()
    assert len(data) > 1 << 16  # more than one pipe buffer
    layers = piped(data, lambda name: np.stack(load_network(name).layers))
    assert layers.tobytes() == np.stack(load_network(net_path).layers).tobytes()
    for bad in (b"#nodes 3\n#layers 1\n0 0 1 abc\n", b"#nodes 3\n0 0 1 1.0\n",
                b"#nodes 3\n#layers 1\n0 0 1 1.0\n% c\n0 0 1 2.0\n"):
        net_path.write_bytes(bad)
        errors = []
        for source in (str(net_path), None):
            argv = ["cluster", "--model", "supra", "--out", str(tmp_path / "a.csv"), "--input"]
            code = run(*argv, source) if source else piped(bad, lambda name: run(*argv, name))
            assert code == 2
            errors.append(capsys.readouterr().err)
        assert errors[0].startswith("error[multiplex-core]: ") and errors[0] == errors[1]


def test_cluster_rejects_header_too_large_to_allocate(tmp_path, capsys):
    net_path = tmp_path / "net.mpx"
    net_path.write_text("#nodes 10000000\n#layers 1000\n")
    code = run("cluster", "--input", str(net_path), "--model", "supra",
               "--out", str(tmp_path / "a.csv"))
    assert code == 2
    # 8 * 1000 * 10^7 * 10^7 bytes exceeds any address space, so the
    # allocation fails at once
    err = capsys.readouterr().err
    assert err.startswith(f"error[multiplex-core]: {net_path}: layer stack")
    assert "cannot allocate a 1000 x 10000000 x 10000000 float64 array" in err


def test_cluster_without_fiedler_eigenvalue_reports_multiplicity_zero(tmp_path):
    # no edges and no coupling: every eigenvalue is zero, so there is no
    # Fiedler eigenvalue to count
    net_path = tmp_path / "net.mpx"
    net_path.write_text("#nodes 4\n#layers 2\n")
    out = tmp_path / "a.csv"
    assert run("cluster", "--input", str(net_path), "--model", "supra",
               "--supra-weight", "0", "--out", str(out)) == 0
    assert out.read_text().splitlines()[0] == (
        "% fiedler_value=0.0 degenerate=1 fiedler_multiplicity=0")


def test_cut_rejects_aggregate_model(tmp_path, capsys):
    net_path = tmp_path / "net.mpx"
    run("generate", "--type", "er", "--n", "6", "--k", "2", "--p", "0.5",
        "--seed", "1", "--out", str(net_path))
    code = run("cut", "--input", str(net_path), "--model", "aggregate",
               "--partition", str(net_path))
    assert code == 2
    assert "error[multiplex-core]:" in capsys.readouterr().err


@pytest.mark.parametrize("content, message", [
    (b"copy_index,cluster\n0,0\n1,\xff\n", "not UTF-8 text (byte 0xff)"),
    (b"copy_index,cluster\n0,0\n0,1\n1,1\n", "copy_index 0 assigned more than once"),
    (b"copy_index,cluster\n0,-1\n1,0\n", "negative cluster -1 for copy_index 0"),
    (b"copy_index,cluster\n0,0\n1,99999999999999999999\n",
     "cluster 99999999999999999999 for copy_index 1 is past int64"),
    (b"copy_index,cluster\n1,0\n", "no cluster assigned to copy_index 0"),
    (b"copy_index,cluster\n0,0\n", "no cluster assigned to copy_index 1"),
    (b"copy_index,label\n0,0\n1,1\n", "expected columns copy_index, cluster"),
    (b"", "expected columns copy_index, cluster"),
    (b"copy_index,cluster\n0,0\n1,x\n",
     "bad assignment row {'copy_index': '1', 'cluster': 'x'}"),
    (b"copy_index,cluster\n0,0\n1\n", "bad assignment row {'copy_index': '1', 'cluster': None}"),
    (b"copy_index,cluster\n0,0\n2,1\n", "copy_index 2 out of range [0, 2)"),
    (b"copy_index,cluster\n-1,0\n", "copy_index -1 out of range [0, 2)"),
])
def test_cut_rejects_undecodable_or_repeated_partition(tmp_path, capsys, content, message):
    net_path = tmp_path / "net.mpx"
    net_path.write_text("#nodes 2\n#layers 1\n0 0 1 1.0\n")
    partition = tmp_path / "part.csv"
    partition.write_bytes(content)
    code = run("cut", "--input", str(net_path), "--model", "supra",
               "--partition", str(partition))
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error[multiplex-core]:") and message in err


def test_cut_with_a_large_cluster_label_finishes(tmp_path, capsys):
    # the cut sums over the labels in use, not over every value below c;
    # a subprocess, so that a loop over range(c) fails by timeout, not hangs
    net_path = tmp_path / "net.mpx"
    net_path.write_text("#nodes 4\n#layers 2\n0 0 1 1.0\n0 2 3 2.0\n1 1 2 4.0\n")

    def argv(label):  # copies 1 and 5 in cluster `label`, the rest in 0
        partition = tmp_path / f"part{label}.csv"
        partition.write_text("copy_index,cluster\n" + "".join(
            f"{idx},{label if idx in (1, 5) else 0}\n" for idx in range(8)))
        return ["cut", "--input", str(net_path), "--model", "dynamic",
                "--partition", str(partition)]

    assert run(*argv(2)) == 0  # c = 3, so `total` alone, as for c = 10**9 + 1
    expected = capsys.readouterr().out
    src = str(Path(cli.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-m", "mxspec.cli", *argv(10**9)], cwd=src,
                         capture_output=True, text=True, check=True, timeout=60).stdout
    assert out.splitlines() == expected.splitlines() == ["term,value", "total,10.0"]


@pytest.mark.parametrize("model", ["supra", "dynamic"])
def test_cut_decompose_builds_the_operator_once(tmp_path, monkeypatch, capsys, model):
    net_path = tmp_path / "net.mpx"
    assert run("generate", "--type", "er", "--n", "8", "--k", "3", "--p", "0.5",
               "--seed", "2", "--out", str(net_path)) == 0
    assign = tmp_path / "assign.csv"
    assert run("cluster", "--input", str(net_path), "--model", model,
               *supra_weight(model, "1.5"), "--out", str(assign)) == 0
    net = load_network(net_path)
    rows = [l.split(",") for l in assign.read_text().splitlines()[2:]]
    part = spectral.Partition(labels=np.array([int(r[-1]) for r in rows]), c=2)
    if model == "supra":
        report = cuts.decompose_supra(net, 1.5, part)
    else:
        report = cuts.decompose_dynamic(net, DynamicCoupling.identity(net.n, net.k), part)
    expected = ["term,value", f"total,{report.total!r}",
                f"quadratic_form,{report.quadratic_form!r}"]
    expected += [f"{name},{value!r}" for name, value in report.terms]

    builds = []

    def counted(fn):
        def wrapper(*args):
            builds.append(fn.__name__)
            return fn(*args)
        return wrapper

    for module in (cli, cuts):
        for name in ("build_supra", "build_dynamic"):
            monkeypatch.setattr(module, name, counted(getattr(module, name)))
    capsys.readouterr()
    assert run("cut", "--input", str(net_path), "--model", model, *supra_weight(model, "1.5"),
               "--partition", str(assign), "--decompose") == 0
    assert builds == [f"build_{model}"]
    assert capsys.readouterr().out.splitlines() == expected


@pytest.mark.parametrize("model", ["supra", "dynamic"])
def test_cut_of_a_bipartition_prints_total_and_quadratic_form(tmp_path, capsys, model):
    net_path, assign = tmp_path / "net.mpx", tmp_path / "assign.csv"
    assert run("generate", "--type", "sbm-fixed", "--n", "10", "--k", "2",
               "--p", "0.1", "--seed", "4", "--out", str(net_path)) == 0
    assert run("cluster", "--input", str(net_path), "--model", model,
               *supra_weight(model, "2.0"), "--out", str(assign)) == 0
    net = load_network(net_path)
    if model == "supra":
        op = build_supra(net, 2.0)
    else:
        op = build_dynamic(net, DynamicCoupling.identity(net.n, net.k))
    rows = [l.split(",") for l in assign.read_text().splitlines()[2:]]
    part = spectral.Partition(labels=np.array([int(r[-1]) for r in rows]), c=2)
    assert 0 < part.labels.sum() < len(part)
    capsys.readouterr()
    assert run("cut", "--input", str(net_path), "--model", model, *supra_weight(model, "2.0"),
               "--partition", str(assign)) == 0
    out = capsys.readouterr().out.splitlines()
    assert out == ["term,value", f"total,{cuts.cut_cost(op, part)!r}",
                   f"quadratic_form,{cuts.quadratic_form(op, part)!r}"]
    report = dict(csv.reader(out[1:]))
    assert float(report["total"]) == pytest.approx(float(report["quadratic_form"]), abs=1e-9)


def test_cut_decompose_rejects_more_than_two_clusters(tmp_path, capsys):
    net_path = tmp_path / "net.mpx"
    net_path.write_text("#nodes 2\n#layers 2\n0 0 1 1.0\n1 1 0 2.0\n")
    partition = tmp_path / "part.csv"
    partition.write_text("copy_index,cluster\n0,0\n1,1\n2,2\n3,0\n")
    argv = ("cut", "--input", str(net_path), "--model", "dynamic",
            "--partition", str(partition))
    assert run(*argv) == 0
    assert capsys.readouterr().out.splitlines()[1:] == ["total,3.0"]
    assert run(*argv, "--decompose") == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error[cut-analysis]: the decomposition is defined for 2 clusters, got c = 3\n")


def test_experiment_rejects_negative_instances(tmp_path, capsys):
    out = tmp_path / "r.csv"
    assert run("experiment", "er", "--instances", "-3", "--k-grid", "2", "--p-grid", "0.1",
               "--jobs", "1", "--out", str(out)) == 2
    assert capsys.readouterr().err == "error[experiments]: instances must be >= 0, got -3\n"
    assert not out.exists()


@pytest.mark.parametrize("name, flag", [
    ("er", "--k-grid"),
    ("fixed-sbm", "--p-grid"),
    ("overlap", "--q-grid"),
    ("overlap-supra", "--w-grid"),
    ("overlap-kway", "--w-grid"),
])
def test_experiment_rejects_empty_grid(tmp_path, capsys, name, flag):
    out = tmp_path / "r.csv"
    assert run("experiment", name, flag, ",", "--instances", "1", "--jobs", "1",
               "--out", str(out)) == 2
    assert "error[experiments]:" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv, module", [
    (("generate", "--type", "er", "--n", "-4"), "generators"),
    (("generate", "--type", "sbm-fixed", "--n", "-4"), "generators"),
    (("generate", "--type", "sbm-overlap", "--n", "-4"), "generators"),
    (("generate", "--type", "er", "--n", "8", "--k", "-4"), "generators"),
    (("generate", "--type", "sbm-fixed", "--n", "8", "--p", "nan"), "generators"),
    (("generate", "--type", "sbm-overlap", "--n", "8", "--intra", "nan"), "generators"),
    (("experiment", "er", "--n", "-4", "--jobs", "1"), "generators"),
    (("experiment", "fixed-sbm", "--n", "-4", "--jobs", "1"), "generators"),
    (("experiment", "overlap", "--n", "-8", "--jobs", "1"), "generators"),
    (("experiment", "fixed-sbm", "--n", "8", "--p-grid", "nan", "--jobs", "1"), "generators"),
    (("experiment", "er", "--n", "8", "--jobs", "0"), "experiments"),
    (("experiment", "er", "--n", "8", "--jobs", "-2"), "experiments"),
], ids=lambda value: " ".join(value) if isinstance(value, tuple) else value)
def test_bad_size_probability_or_jobs_exits_2_with_module_error(tmp_path, capsys, argv, module):
    out = tmp_path / ("net.mpx" if argv[0] == "generate" else "r.csv")
    flags = ("--instances", "1") if argv[0] == "experiment" else ()
    assert run(*argv, *flags, "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error[{module}]:") and "unexpected" not in err, err
    assert not out.exists()


def test_heatmap_lists_a_blank_value_first_then_numbers_in_numeric_order(tmp_path, capsys,
                                                                         monkeypatch):
    # the dynamic rows leave w blank: the axis mixes text and numbers, and
    # each model leaves the other's cells empty
    monkeypatch.delenv("MXSPEC_SEED", raising=False)
    results = tmp_path / "r.csv"
    assert run("experiment", "fixed-sbm", "--instances", "1", "--n", "10", "--k-grid", "2",
               "--p-grid", "0.3", "--w-grid", "2,10,30", "--jobs", "1",
               "--out", str(results)) == 0
    capsys.readouterr()
    assert run("heatmap", str(results), "--x", "w", "--y", "model", "--metric", "recovered") == 0
    assert capsys.readouterr().out.splitlines() == [
        "model\\w,,2.0,10.0,30.0", "dynamic,1.0,,,", "supra,,1.0,1.0,1.0"]


def test_experiment_aggregate_fractions_of_each_regime_sum_to_one(tmp_path, monkeypatch):
    monkeypatch.delenv("MXSPEC_SEED", raising=False)
    results, means = tmp_path / "r.csv", tmp_path / "a.csv"
    assert run("experiment", "overlap", "--instances", "3", "--n", "8", "--p-grid", "0.1,0.9",
               "--q-grid", "0.5", "--jobs", "1", "--out", str(results),
               "--aggregate", str(means)) == 0
    point = "overlap,{},0.5,8,0.9,0.1,"
    assert means.read_text().splitlines() == [
        "experiment,param:p,param:q,param:n,param:intra,param:inter,metric,value",
        point.format(0.1) + "frac:layers_split,0.0",
        point.format(0.1) + "frac:layer1,0.0",
        point.format(0.1) + "frac:layer2,0.3333333333333333",
        point.format(0.1) + "frac:other,0.6666666666666666",
        point.format(0.1) + "mean:degenerate,0.0",
        point.format(0.9) + "frac:layers_split,0.0",
        point.format(0.9) + "frac:layer1,1.0",
        point.format(0.9) + "frac:layer2,0.0",
        point.format(0.9) + "frac:other,0.0",
        point.format(0.9) + "mean:degenerate,0.0",
    ]
    with open(means, newline="") as fh:
        rows = list(csv.DictReader(fh))
    for p in ("0.1", "0.9"):
        fractions = [float(row["value"]) for row in rows
                     if row["param:p"] == p and row["metric"].startswith("frac:")]
        assert len(fractions) == len(experiments.REGIME_LABELS)
        assert sum(fractions) == pytest.approx(1.0, abs=1e-12)


def test_experiment_er_reads_w_from_the_w_grid(tmp_path):
    out = tmp_path / "r.csv"
    assert run("experiment", "er", "--model", "supra", "--p-grid", "0.3", "--k-grid", "2",
               "--n", "10", "--w-grid", "7", "--instances", "1", "--jobs", "1",
               "--out", str(out)) == 0
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert rows and {row["param:w"] for row in rows} == {"7.0"}


@pytest.mark.parametrize("argv, message", [
    (("experiment", "er", "--q-grid", "0.3"), "error[experiments]: er has no parameter q"),
    (("experiment", "overlap", "--w-grid", "1"), "error[experiments]: overlap has no parameter w"),
    (("experiment", "overlap-supra", "--k-grid", "2"),
     "error[experiments]: overlap-supra has no parameter k"),
    (("experiment", "er", "--intra", "0.5"), "error[experiments]: er has no parameter intra"),
    (("experiment", "er", "--p-grid", "0.3,0.30"),
     "error[experiments]: er sweep needs a non-empty p grid with no repeated value, "
     "got [0.3, 0.3]"),
    (("generate", "--type", "sbm-overlap", "--n", "8", "--k", "5"),
     "error[cli]: generate --type sbm-overlap reads no --k"),
    (("experiment", "fixed-sbm", "--model", "dynamic", "--w-grid", "7", "--p-grid", "0.3"),
     "error[experiments]: fixed-sbm --model dynamic reads no w grid"),
    (("experiment", "overlap-kway", "--p-grid", "0.3", "--n", "8"),
     "error[experiments]: overlap-kway --model both reads no p grid"),
    (("experiment", "overlap-kway", "--model", "dynamic", "--w-grid", "2"),
     "error[experiments]: overlap-kway --model dynamic reads no w grid"),
    (("cluster", "--model", "supra", "--coupling", "does-not-exist.cpl"),
     "error[cli]: cluster --model supra reads no --coupling"),
    (("cluster", "--model", "dynamic", "--supra-weight", "7"),
     "error[cli]: cluster --model dynamic reads no --supra-weight"),
    (("cluster", "--model", "aggregate", "--supra-weight", "7", "--coupling", "nope.cpl"),
     "error[cli]: cluster --model aggregate reads no --coupling"),
    (("cut", "--model", "supra", "--coupling", "nope.cpl"),
     "error[cli]: cut --model supra reads no --coupling"),
    (("cut", "--model", "aggregate", "--supra-weight", "1"),
     "error[cli]: cut --model aggregate reads no --supra-weight"),
], ids=lambda value: " ".join(value) if isinstance(value, tuple) else None)
def test_a_parameter_flag_the_command_does_not_read_exits_2(tmp_path, capsys, monkeypatch,
                                                            argv, message):
    # refused before any instance runs or any file is read, and nothing is
    # written: the named input files do not exist
    monkeypatch.setattr(experiments, "compute_instance", lambda *task: pytest.fail(str(task)))
    missing, out = str(tmp_path / "missing"), str(tmp_path / "out")
    flags = {"experiment": ("--instances", "1", "--jobs", "1", "--out", out),
             "generate": ("--out", out),
             "cluster": ("--input", missing, "--out", out),
             "cut": ("--input", missing, "--partition", missing)}[argv[0]]
    assert run(*argv, *flags) == 2
    captured = capsys.readouterr()
    assert (captured.err, captured.out) == (message + "\n", "")
    assert list(tmp_path.iterdir()) == []


MODELS = ("both", "supra", "dynamic")
# grid points per --model value of the default grids
DESK_POINTS = {
    "er": {"both": 30, "supra": 15, "dynamic": 15},
    "fixed-sbm": {"both": 110, "supra": 88, "dynamic": 22},
    "overlap": dict.fromkeys(MODELS, 16),
    "overlap-supra": dict.fromkeys(MODELS, 5),
    "overlap-kway": {"both": 3, "supra": 3, "dynamic": 9},
}
FULL_POINTS = {
    "er": {"both": 828, "supra": 414, "dynamic": 414},
    "fixed-sbm": {"both": 5148, "supra": 5049, "dynamic": 99},
    "overlap": dict.fromkeys(MODELS, 361),
    "overlap-supra": dict.fromkeys(MODELS, 50),
    "overlap-kway": {"both": 60, "supra": 60, "dynamic": 9},
}


# SHA-256 of the stubbed task lists (experiment, sorted parameters, instance
# seed) at --instances 1 and --seed unset, over the models in MODELS order
TASK_DIGESTS = {
    ("er", False): "c5d5e4ff834730310048be2ec86e1f478f8fa80aaaaafd3350d75481ef787eac",
    ("fixed-sbm", False): "53a2625b8f8b5f8dab58e5a359c478edbe076fab11b180788220c987ad79bc6f",
    ("overlap", False): "057a3047ef19d5b03b53a21d124ce1813da504e6d91e45f16f4439e18babfb7f",
    ("overlap-kway", False): "30ae70afe51a7e48e52bcffef3c2d571d715d092674eaaccb3ed294a4c7c36f1",
    ("overlap-supra", False): "1ac439ae5a4d7ca013f809cb611c1795d73c23ab01740c9f81f18c123bee41e5",
    ("er", True): "d791dfec21410e6cb6951b48440767a32e2ab4df7a94da99737acc6ee58cc06f",
    ("fixed-sbm", True): "647133e526ed93040e3234f79374e38557f19aade8b2e26e7b699eb0a382ed9b",
    ("overlap", True): "3b6c9d5091df3996346c851b6558a82fc87d4563d819ccecd71742d4172f67e7",
    ("overlap-kway", True): "53f44001d1e611ee3482afe32c9ec25573e8272451f8b46b04bbb3f93e0bab1e",
    ("overlap-supra", True): "9d338c5b642eb0970ed1634e7e76543e5a05dcd4fd1887ac23b54e40ad8805d3",
}


@pytest.mark.parametrize("full", [False, True])
@pytest.mark.parametrize("name", sorted(DESK_POINTS))
def test_experiment_grids_and_dispatch(tmp_path, monkeypatch, name, full):
    # sweeps reach compute_instance through the module attribute, which is
    # what tracing and profiling wrap
    calls = []

    def stub(experiment, params, seed):
        calls.append((experiment, tuple(sorted(params.items())), seed))
        return []

    monkeypatch.setattr(experiments, "compute_instance", stub)
    monkeypatch.delenv("MXSPEC_SEED", raising=False)
    digest = hashlib.sha256()
    for model, points in (FULL_POINTS if full else DESK_POINTS)[name].items():
        calls.clear()
        argv = ["experiment", name, "--instances", "1", "--model", model,
                "--jobs", "1", "--out", str(tmp_path / "r.csv")]
        assert run(*argv, *(["--full"] if full else [])) == 0
        assert len(calls) == len(set(calls)) == points, model
        assert {experiment for experiment, _, _ in calls} == {name}
        digest.update(repr(calls).encode())
    # the sweep points and their seeds, for every --model value, need no BLAS
    assert digest.hexdigest() == TASK_DIGESTS[name, full]


@pytest.mark.parametrize("flags, instances", [
    ([], 20),
    (["--full"], 100),
    (["--full", "--instances", "20"], 20),
    (["--instances", "3"], 3),
    (["--full", "--instances", "0"], 0),
])
def test_experiment_instances_default_and_override(tmp_path, monkeypatch, flags, instances):
    calls = []
    monkeypatch.setattr(experiments, "compute_instance",
                        lambda experiment, params, seed: calls.append(seed) or [])
    assert run("experiment", "er", "--model", "supra", "--p-grid", "0.1", "--k-grid", "2",
               "--jobs", "1", "--out", str(tmp_path / "r.csv"), *flags) == 0
    assert len(set(calls)) == len(calls) == instances


MAX_FLOAT = 1.7976931348623157e308
finite_weights = st.one_of(
    st.floats(min_value=0.0, max_value=MAX_FLOAT, allow_subnormal=True),
    st.sampled_from([5e-324, 2.2250738585072014e-308, 1e308, MAX_FLOAT]),
)


def _cluster_stderr(net_path, out_path, *argv):
    """Exit code and stderr of one in-process `mxspec cluster` call."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = run("cluster", "--input", str(net_path), "--out", str(out_path), *argv)
    return code, err.getvalue()


@settings(max_examples=60, deadline=None)
@given(st.dictionaries(st.tuples(st.integers(0, 1), st.integers(0, 3), st.integers(0, 3))
                       .filter(lambda e: e[1] != e[2]),
                       finite_weights, max_size=12))
@example({(0, 0, 1): MAX_FLOAT, (0, 1, 0): MAX_FLOAT})  # overflows when symmetrized
@example({(0, 0, 1): MAX_FLOAT, (1, 0, 1): MAX_FLOAT, (0, 2, 3): 1.0})  # and when aggregated
@example({(0, 0, 1): 5e-324, (1, 2, 3): 5e-324})
@example({(0, 0, 1): 3.711372869091581e16, (0, 1, 3): 4.029622389133728e307,
          (0, 2, 0): 4.029622389133728e307})  # finite, but LAPACK does not converge
def test_cluster_extreme_finite_weights_round_trip_and_never_crash(edges):
    layers = np.zeros((2, 4, 4))
    for (a, src, dst), weight in edges.items():
        layers[a, dst, src] = weight
    with tempfile.TemporaryDirectory() as tmp:
        net_path, out = Path(tmp) / "net.mpx", Path(tmp) / "a.csv"
        save_network(MultiplexNetwork(n=4, k=2, layers=tuple(layers)), net_path)
        loaded = load_network(net_path)
        assert np.array_equal(np.stack(loaded.layers), layers)  # exact, subnormals too
        for model in ("supra", "dynamic", "aggregate"):
            for clusters in ("2", "3"):
                code, err = _cluster_stderr(net_path, out, "--model", model,
                                            "--clusters", clusters)
                # a weight sum past the float range is rejected where the operator
                # is built, and a LAPACK failure on a huge norm where it is solved
                assert (code, err) == (0, "") or (code == 2 and err.startswith(
                    ("error[operators]:", "error[spectral-engine]:"))), (model, err)


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(["nan", "NaN", "inf", "-inf", "Infinity", "1e309", "-1e400"]),
       st.integers(1, 2))
def test_non_finite_weight_rejected_when_parsed(token, line):
    edges = ["0 0 1 1.0", "1 2 3 2.5"]
    edges[line - 1] = edges[line - 1].rsplit(" ", 1)[0] + " " + token
    with tempfile.TemporaryDirectory() as tmp:
        net_path = Path(tmp) / "net.mpx"
        net_path.write_text("#nodes 4\n#layers 2\n" + "\n".join(edges) + "\n")
        code, err = _cluster_stderr(net_path, Path(tmp) / "a.csv", "--model", "supra")
    assert code == 2
    assert err.startswith(f"error[multiplex-core]: line {line + 2}: non-finite weight"), err
