import ctypes
import os
import subprocess
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np
import pytest
import scipy

from mxspec import experiments, spectral
from mxspec.errors import ExperimentError
from mxspec.experiments import (
    InstanceRow,
    classify_regime,
    compute_instance,
    fraction_copies_together,
    heatmap_grid,
    kway_target_partition,
    layer_split_partition,
    overlap_coupling,
    read_results_csv,
    run_experiment,
    run_fixed_sbm_experiment,
    run_overlap_kway,
    write_aggregate_csv,
    write_results_csv,
)
from mxspec.generators import RngSeed, gen_overlap_multiplex
from mxspec.spectral import Partition


def make_part(labels):
    labels = np.asarray(labels)
    return Partition(labels=labels, c=int(labels.max()) + 1)


def test_fraction_all_copies_together():
    part = make_part([0, 1, 0, 1])  # n=2, k=2, copies aligned
    assert fraction_copies_together(part, 2, 2) == 1.0


def test_fraction_layer_split_is_zero():
    part = layer_split_partition(4)
    assert fraction_copies_together(part, 4, 2) == 0.0
    assert fraction_copies_together(part, 4, 2, "pairwise") == 0.0


def test_fraction_one_node_split_of_four():
    labels = [0, 0, 0, 0, 0, 0, 0, 1]  # node 3's copies disagree
    assert fraction_copies_together(make_part(labels), 4, 2) == pytest.approx(0.75)


def test_fraction_pairwise_counts_pairs():
    # n=1, k=3: copies labeled (0, 0, 1) match on 1 of 3 pairs
    part = make_part([0, 0, 1])
    assert fraction_copies_together(part, 1, 3, "pairwise") == pytest.approx(1 / 3)
    assert fraction_copies_together(part, 1, 3, "all") == 0.0


def test_fraction_k1_trivially_one():
    assert fraction_copies_together(make_part([0, 1, 0]), 3, 1) == 1.0


def test_fraction_validates():
    with pytest.raises(ExperimentError):
        fraction_copies_together(make_part([0, 1]), 2, 2)
    with pytest.raises(ExperimentError):
        fraction_copies_together(make_part([0, 1, 0, 1]), 2, 2, "median")


def planted_pair(n=8):
    blocks1 = np.repeat([0, 1], n // 2)
    blocks2 = np.zeros(n, dtype=int)
    blocks2[n // 4 : 3 * n // 4] = 1
    return (
        Partition(labels=np.tile(blocks1, 2), c=2),
        Partition(labels=np.tile(blocks2, 2), c=2),
    )


def test_classify_regime_targets():
    planted1, planted2 = planted_pair()
    assert classify_regime(layer_split_partition(8), planted1, planted2) == "layers_split"
    assert classify_regime(planted1, planted1, planted2) == "layer1"
    # relabeled copy of planted2 still classifies as layer2
    flipped = Partition(labels=1 - planted2.labels, c=2)
    assert classify_regime(flipped, planted1, planted2) == "layer2"


def test_classify_regime_other_for_random_labels():
    planted1, planted2 = planted_pair(100)
    rng = np.random.default_rng(0)
    part = Partition(labels=rng.integers(0, 2, size=200), c=2)
    assert classify_regime(part, planted1, planted2) == "other"


def test_overlap_coupling_rows_are_convex_mixes():
    coupling = overlap_coupling(0.9, 0.1, 3)
    np.testing.assert_allclose(coupling.diag[0, 0], 0.9)  # 1 - q
    np.testing.assert_allclose(coupling.diag[0, 1], 0.1)  # q
    np.testing.assert_allclose(coupling.diag[1, 0], 0.9)  # p
    np.testing.assert_allclose(coupling.diag[1, 1], 0.1)  # 1 - p
    with pytest.raises(ExperimentError):
        overlap_coupling(1.2, 0.0, 3)


def test_kway_target_shape():
    target = kway_target_partition(8)
    assert target.c == 4 and len(target) == 16
    assert target.used_clusters == 4


def tiny_er(jobs=1, seed=123):
    return run_experiment("er", 3, "both", seed, jobs, p=[0.3], k=[2], n=[10], w=[1.0])


def test_er_sweep_row_structure():
    result = tiny_er()
    # 2 models x 1 p x 1 k x 3 instances x 3 metrics
    assert len(result.rows) == 2 * 3 * 3
    per_metric = [r for r in result.rows if r.metric == "frac_copies"]
    assert len(per_metric) == 6
    for row in result.rows:
        assert 0 <= row.instance < 3
        assert dict(row.params)["n"] == "10"


def test_sweep_determinism_and_jobs():
    a, b = tiny_er(), tiny_er()
    assert a.rows == b.rows
    c = tiny_er(jobs=2)
    assert a.rows == c.rows
    d = tiny_er(seed=124)
    assert a.rows != d.rows


def _blas_thread_counts() -> list:
    """Thread count of each bundled OpenBLAS of numpy and scipy."""
    counts = []
    for module, symbol in ((np, "scipy_openblas_get_num_threads64_"),
                           (scipy, "scipy_openblas_get_num_threads")):
        libs = Path(module.__file__).parent.parent / f"{module.__name__}.libs"
        for path in libs.glob("libscipy_openblas*"):
            get_threads = getattr(ctypes.CDLL(str(path)), symbol)
            get_threads.argtypes, get_threads.restype = [], ctypes.c_int
            counts.append(get_threads())
    return counts


def test_sweep_workers_run_blas_at_one_thread(monkeypatch):
    before = _blas_thread_counts()
    if not before:
        pytest.skip("numpy and scipy bundle no OpenBLAS here")
    initializers = []

    def recording(*args, **kwargs):
        initializers.append(kwargs.get("initializer"))
        return ProcessPoolExecutor(*args, **kwargs)

    monkeypatch.setattr(experiments, "ProcessPoolExecutor", recording)
    assert tiny_er(jobs=2).rows == tiny_er(jobs=1).rows
    assert initializers == [experiments._single_thread_blas]
    with ProcessPoolExecutor(1, initializer=experiments._single_thread_blas) as pool:
        assert pool.submit(_blas_thread_counts).result() == [1] * len(before)
    # the calling process keeps its own setting
    assert _blas_thread_counts() == before


def test_import_sets_no_environment_variable():
    probe = ("import os; before = dict(os.environ); import mxspec, mxspec.cli; "
             "print(dict(os.environ) == before)")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "True"


def test_er_supra_csv_identical_at_one_and_two_blas_threads(tmp_path):
    # supra k = 5, w = 1: the Fiedler eigenvalue is the repeated layer-split
    # value k*w on many of these nets, and LAPACK's basis of its eigenspace
    # moves with the BLAS thread count
    outputs = []
    for threads in ("1", "2"):
        out = tmp_path / f"er{threads}.csv"
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(sys.path))
        subprocess.run([sys.executable, "-m", "mxspec.cli", "experiment", "er", "--seed", "1",
                        "--model", "supra", "--k-grid", "5", "--p-grid", "0.15,0.25,0.35,0.45",
                        "--instances", "5", "--jobs", "1", "--out", str(out)],
                       env=env, check=True)
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]


def test_rows_recomputable_from_seed_and_params():
    result = tiny_er()
    for row in result.rows:
        metrics = dict(compute_instance(row.experiment, dict(row.params), row.seed))
        assert metrics[row.metric] == row.value


def test_adding_grid_points_preserves_existing_rows():
    small = run_experiment("er", 2, "supra", 5, p=[0.3], k=[2], n=[10], w=[1.0])
    bigger = run_experiment("er", 3, "supra", 5, p=[0.3, 0.4], k=[2], n=[10], w=[1.0])
    small_set = set(small.rows)
    assert small_set <= set(bigger.rows)


def test_aggregates_are_exact_instance_means():
    result = tiny_er()
    aggregates = {(agg.params, agg.metric): agg.value for agg in result.aggregates()}
    groups = {}
    for row in result.rows:
        if row.metric == "frac_copies":
            groups.setdefault(row.params, []).append(float(row.value))
    for params, values in groups.items():
        agg = aggregates[(params, "mean:frac_copies")]
        assert agg == pytest.approx(sum(values) / len(values), abs=1e-12)


def test_fixed_sbm_sweep_dynamic_and_supra_rows():
    result = run_fixed_sbm_experiment(
        p_grid=[0.2], w_grid=[1.0], k_grid=[2], instances=2, seed=9, n=8
    )
    models = {dict(r.params)["model"] for r in result.rows}
    assert models == {"dynamic", "supra"}
    recovered = result.metric_values("recovered", model="dynamic", p=0.2)
    assert len(recovered) == 2 and set(recovered) <= {"0", "1"}
    # dynamic rows carry an empty w column
    dyn_row = next(r for r in result.rows if dict(r.params)["model"] == "dynamic")
    assert dict(dyn_row.params)["w"] == ""


def test_overlap_sweep_emits_regimes():
    result = run_experiment("overlap", 2, seed=11, p=[0.05], q=[0.05], n=[8],
                            intra=[1.0], inter=[0.0])
    regimes = result.metric_values("regime", p=0.05, q=0.05)
    assert len(regimes) == 2
    assert set(regimes) <= {"layers_split", "layer1", "layer2", "other"}
    frac = result.regime_fraction("layers_split", p=0.05, q=0.05)
    assert 0.0 <= frac <= 1.0


def test_overlap_supra_sweep():
    result = run_experiment("overlap-supra", 2, seed=12, w=[0.5], n=[8],
                            intra=[1.0], inter=[0.0])
    assert len(result.metric_values("regime", w=0.5)) == 2


def test_overlap_kway_sweep():
    result = run_overlap_kway("supra", instances=2, seed=13, w_grid=[5.0], n=8,
                              intra=1.0, inter=0.0)
    matches = result.metric_values("kway_match", w=5.0)
    assert len(matches) == 2
    effective = result.metric_values("effective_clusters", w=5.0)
    assert all(v == "4" for v in effective)
    with pytest.raises(ExperimentError):
        run_overlap_kway("supra", instances=1, seed=13, w_grid=None)


def test_er_supra_small_p_groups_copies_in_lopsided_clusters():
    # sparse layers, supra w=1: copies bind, but mostly because one cluster
    # is much larger than the other
    result = run_experiment("er", 10, "supra", 31, p=[0.05], k=[2], n=[100], w=[1.0])
    fractions = [float(v) for v in result.metric_values("frac_copies", p=0.05)]
    assert np.mean(fractions) >= 0.5
    sizes = []
    from mxspec.core import DynamicCoupling
    from mxspec.generators import gen_er_multiplex
    from mxspec.operators import build_supra
    from mxspec.spectral import fiedler_bipartition
    for row in result.rows:
        if row.metric != "frac_copies":
            continue
        net = gen_er_multiplex(100, 2, 0.05, RngSeed(row.seed).spawn("net"))
        part, _, _ = fiedler_bipartition(build_supra(net, 1.0).laplacian)
        sizes.append(max(np.bincount(part.labels, minlength=2)) / 200)
    assert np.mean(sizes) >= 0.7


def test_kway_high_weight_collapses_to_three_major_clusters():
    supra = run_overlap_kway("supra", instances=10, seed=31, w_grid=[30.0], n=100)
    majors = [int(v) for v in supra.metric_values("major_clusters", w=30.0)]
    assert sorted(majors)[len(majors) // 2] == 3  # modal/median value
    dynamic = run_overlap_kway("dynamic", instances=10, seed=31,
                               p_grid=[0.5], q_grid=[0.5], n=100)
    majors = [int(v) for v in dynamic.metric_values("major_clusters", p=0.5, q=0.5)]
    assert sorted(majors)[len(majors) // 2] == 3


def test_results_csv_round_trip(tmp_path):
    result = tiny_er()
    path = tmp_path / "results.csv"
    write_results_csv(result, path)
    param_names, rows = read_results_csv(path)
    assert param_names == result.param_names
    assert rows == result.rows
    agg_path = tmp_path / "agg.csv"
    write_aggregate_csv(result, agg_path)
    assert agg_path.read_text().startswith("experiment,param:model")


def test_heatmap_numeric_mean_and_modal_labels():
    def row(p, q, metric, value, inst):
        return InstanceRow("overlap", (("p", p), ("q", q)), inst, 0, metric, value)

    rows = [
        row("0.1", "0.2", "score", "1.0", 0),
        row("0.1", "0.2", "score", "2.0", 1),
        row("0.3", "0.2", "score", "5.0", 0),
        row("0.1", "0.2", "regime", "layer1", 0),
        row("0.1", "0.2", "regime", "layer2", 1),
        row("0.3", "0.2", "regime", "other", 0),
    ]
    xs, ys, grid = heatmap_grid(rows, "p", "q", "score")
    assert xs == ["0.1", "0.3"] and ys == ["0.2"]
    assert grid == [["1.5", "5.0"]]
    # modal with lexicographic tie-break: layer1 beats layer2 at count 1-1
    xs, ys, grid = heatmap_grid(rows, "p", "q", "regime")
    assert grid == [["layer1", "other"]]
    with pytest.raises(ExperimentError):
        heatmap_grid(rows, "p", "q", "missing")
    with pytest.raises(ExperimentError):
        heatmap_grid(rows, "nope", "q", "score")


def largest_k_point(name, grid):
    """The table's grids of `name` at the desk or --full scale, cut to one
    point: the largest k (n and k set the operator's order n k) and the
    middle value of every other parameter (fixed-sbm's first p, 0, is
    disconnected and reaches no eigensolve)."""
    spec = experiments.EXPERIMENTS[name]
    grids = {**spec.desk, **(spec.full if grid == "full" else {})}
    return {param: [max(values)] if param == "k" else [values[len(values) // 2]]
            for param, values in grids.items()}


@pytest.mark.parametrize("grid", ["desk", "full"])
def test_kway_sweeps_stay_below_their_lanczos_order(monkeypatch, grid):
    # spectral_kway's labels on the Lanczos path are not certified, so the
    # overlap-kway sweeps keep the dense solve: record the order and count
    # of what the sweep hands spectral_kway, as `mxspec experiment` runs it
    calls = []
    real = experiments.spectral_kway

    def recording(lap, c, seed):
        calls.append((lap.shape[0], c))
        return real(lap, c, seed)

    monkeypatch.setattr(experiments, "spectral_kway", recording)
    experiments.run_experiment("overlap-kway", 1, "both", 1, 1, **largest_k_point("overlap-kway", grid))
    assert calls == [(200, 4)]
    assert max(order for order, _ in calls) < spectral.LANCZOS_MIN


@pytest.mark.parametrize("grid", ["desk", "full"])
@pytest.mark.parametrize("name", ["er", "fixed-sbm"])
def test_bipartition_sweeps_keep_their_rows_on_the_lanczos_path(monkeypatch, name, grid):
    # the largest-k points reach FIEDLER_LANCZOS_MIN (m = 500 for er and 600
    # for fixed-sbm at the desk, 1000 with --full): their rows are the same
    # whether eig_sym may take the certified Lanczos path or not
    verdicts = []
    real = spectral._certified_lanczos

    def spied(*args):
        values, vectors = real(*args)
        verdicts.append(values is not None)
        return values, vectors

    monkeypatch.setattr(spectral, "_certified_lanczos", spied)
    point = largest_k_point(name, grid)
    assert point["k"][0] * point["n"][0] >= spectral.FIEDLER_LANCZOS_MIN
    rows = {}
    for lanczos in (False, True):
        with monkeypatch.context() as patch:
            if not lanczos:
                patch.setattr(spectral, "FIEDLER_LANCZOS_MIN", sys.maxsize)
            del verdicts[:]
            rows[lanczos] = experiments.run_experiment(name, 2, "both", 1, 1, **point).rows
            assert any(verdicts) is lanczos, lanczos
    assert rows[True] == rows[False]
