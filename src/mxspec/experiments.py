"""Seeded parameter sweeps over the three synthetic experiment families.

Each experiment is a grid of parameter points; every (point, instance)
pair gets its own 64-bit seed derived by hashing (master seed, experiment
id, parameter point, instance index), so adding grid points or instances
never perturbs existing rows, and any row is recomputable from its stored
(seed, parameter point) alone via :func:`compute_instance`.

Instances are independent jobs: with jobs > 1 they run in a process pool,
but rows are always emitted in deterministic (parameter point, instance)
order, so the CSV bytes do not depend on the job count.

Experiments, one :data:`EXPERIMENTS` entry each (every parameter with its
default grid, the model column and the per-instance function):

* ``er`` - k random layers with no structure; measures how often node
  copies stay grouped under bipartition, for both operator models.
* ``fixed-sbm`` - every layer carries the same planted two-block
  structure; measures exact recovery of the planted partition.
* ``overlap`` / ``overlap-supra`` / ``overlap-kway`` - two layers with
  different overlapping planted structures; classifies which partition
  the clustering finds (regime map), for the dynamic coupling knobs
  (p, q) or the supra weight w, with 2-way or 4-way clustering.
"""

from __future__ import annotations

import contextlib
import csv
import ctypes
import itertools
from collections.abc import Callable
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy

from .core import DynamicCoupling, read_lines
from .errors import ExperimentError, ParseError
from .generators import (
    RngSeed,
    canon,
    derive_key,
    gen_er_multiplex,
    gen_fixed_sbm_multiplex,
    gen_overlap_multiplex,
    overlap_block_labels,
)
from .operators import build_dynamic, build_supra
from .spectral import Partition, fiedler_bipartition, match_partitions, spectral_kway

DEFAULT_SEED = 0xD15EA5E

REGIME_LABELS = ("layers_split", "layer1", "layer2", "other")


def fraction_copies_together(part: Partition, n: int, k: int, mode: str = "all") -> float:
    """Fraction of nodes whose copies share a cluster.

    mode "all" (default): a node counts only if all k copies carry one
    label.  mode "pairwise": per node, the fraction of copy pairs sharing
    a label, averaged over nodes.  Both are 1.0 when copies always bind
    and 0.0 when two layers split apart.
    """
    if len(part) != n * k:
        raise ExperimentError(f"partition covers {len(part)} copies, expected {n * k}")
    labels = part.labels.reshape(k, n)
    if k == 1:
        return 1.0
    if mode == "all":
        return float(np.all(labels == labels[0], axis=0).mean())
    if mode == "pairwise":
        pairs = k * (k - 1) // 2
        same = np.zeros(n)
        for a in range(k):
            for b in range(a + 1, k):
                same += labels[a] == labels[b]
        return float((same / pairs).mean())
    raise ExperimentError(f"unknown mode {mode!r}")


def layer_split_partition(n: int) -> Partition:
    """The bipartition separating layer 1's copies from layer 2's."""
    return Partition(labels=np.repeat([0, 1], n), c=2)


def classify_regime(part: Partition, planted1: Partition, planted2: Partition) -> str:
    """Name the outcome of a two-layer bipartition: layers_split when it
    equals the layer-vs-layer split, layer1/layer2 when it equals a planted
    partition lifted to all copies, other otherwise (all up to relabeling)."""
    n = len(part) // 2
    for label, target in (
        ("layers_split", layer_split_partition(n)),
        ("layer1", planted1),
        ("layer2", planted2),
    ):
        equal, _ = match_partitions(part, target)
        if equal:
            return label
    return "other"


def overlap_coupling(p: float, q: float, n: int) -> DynamicCoupling:
    """Dynamic coupling for the overlap experiment.

    p is the weight with which layer 1's structure is mirrored into layer
    2's block row, q the reverse; each block row stays a convex mix of the
    two layer adjacencies (row 1 = (1-q) A1 + q A2, row 2 = p A1 + (1-p) A2).
    Raising p above q tilts the operator toward layer 1's planted structure.
    """
    if not (0.0 <= p <= 1.0 and 0.0 <= q <= 1.0):
        raise ExperimentError(f"coupling knobs must lie in [0, 1], got p={p}, q={q}")
    return DynamicCoupling.uniform([[1.0 - q, q], [p, 1.0 - p]], n)


def kway_target_partition(n: int) -> Partition:
    """The layers-times-communities 4-way partition of the overlap nets:
    layer 1 copies split by layer 1's planted blocks (labels 0/1), layer 2
    copies by layer 2's blocks (labels 2/3)."""
    blocks1, blocks2 = overlap_block_labels(n)
    return Partition(labels=np.concatenate([blocks1, blocks2 + 2]), c=4)


# ---------------------------------------------------------------------------
# sweep engine
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class InstanceRow:
    experiment: str
    params: tuple  # of (name, value-as-string), fixed order per experiment
    instance: int
    seed: int
    metric: str
    value: str


@dataclass(frozen=True)
class AggregateRow:
    experiment: str
    params: tuple
    metric: str
    value: float


def _mean(values) -> float | None:
    """Mean of metric value strings, None when they are labels."""
    try:
        numeric = [float(v) for v in values]
    except ValueError:
        return None
    return sum(numeric) / len(numeric)


@dataclass
class SweepResult:
    """Instance rows in deterministic order plus their per-point means."""

    experiment: str
    param_names: tuple
    rows: list

    def aggregates(self) -> list:
        """Mean per (parameter point, metric).  Label-valued metrics expand
        into one fraction row per label (metric ``frac:<label>``)."""
        groups: dict = {}
        for row in self.rows:
            groups.setdefault((row.params, row.metric), []).append(row.value)
        out = []
        for (params, metric), values in groups.items():
            mean = _mean(values)
            if mean is not None:
                out.append(AggregateRow(self.experiment, params, f"mean:{metric}", mean))
                continue
            for label in REGIME_LABELS:
                frac = sum(1 for v in values if v == label) / len(values)
                out.append(AggregateRow(self.experiment, params, f"frac:{label}", frac))
        return out

    def metric_values(self, metric: str, **param_filter) -> list:
        """Raw string values of one metric at rows matching the filter."""
        wanted = {name: canon(value) for name, value in param_filter.items()}
        out = []
        for row in self.rows:
            if row.metric != metric:
                continue
            params = dict(row.params)
            if all(params.get(name) == value for name, value in wanted.items()):
                out.append(row.value)
        return out

    def mean_metric(self, metric: str, **param_filter) -> float:
        values = [float(v) for v in self.metric_values(metric, **param_filter)]
        if not values:
            raise ExperimentError(f"no rows for metric {metric!r} under {param_filter}")
        return sum(values) / len(values)

    def regime_fraction(self, label: str, **param_filter) -> float:
        values = self.metric_values("regime", **param_filter)
        if not values:
            raise ExperimentError(f"no regime rows under {param_filter}")
        return sum(1 for v in values if v == label) / len(values)


def instance_seed(master_seed: int, experiment: str, params: tuple, instance: int) -> int:
    """64-bit per-instance seed hashed from the master seed, experiment id,
    parameter point, and instance index."""
    stream = (experiment,) + tuple(f"{k}={v}" for k, v in params) + ("instance", instance)
    return derive_key(master_seed, stream) & ((1 << 64) - 1)


def compute_instance(experiment: str, params: dict, seed: int) -> list:
    """Recompute one instance's metrics from its parameter point and seed.

    `params` maps parameter names to their string form exactly as stored
    in the results CSV.  Returns [(metric, value-string), ...].
    """
    if experiment not in EXPERIMENTS:
        raise ExperimentError(f"unknown experiment {experiment!r}")
    return EXPERIMENTS[experiment].compute(params, RngSeed(seed))


def _run_task(task):
    experiment, params, instance, seed = task
    return compute_instance(experiment, dict(params), seed)


def run_experiment(experiment: str, instances: int, model: str = "both",
                   seed: int = DEFAULT_SEED, jobs: int = 1, **grids) -> SweepResult:
    """Run every (point, instance) task of one EXPERIMENTS entry and collect
    its rows in task order.

    `grids` maps each parameter to its values; a fixed parameter such as n
    is a one-value list.  `model` is "both", "supra" or "dynamic"; "both"
    runs the entry's `models`, and an entry without a model column takes
    "both" alone.  A grid may name only a parameter of the entry.  Every
    parameter the selected models use needs a non-empty grid that repeats
    no value (compared by `canon`, so 0.3 and 0.30 are one value),
    `instances` (per grid point) must be >= 0 and `jobs` >= 1.
    """
    spec = EXPERIMENTS[experiment]
    unknown = sorted(grids.keys() - spec.desk.keys())
    if unknown:
        raise ExperimentError(f"{experiment} has no parameter {unknown[0]}")
    if model not in ("both", "supra", "dynamic"):
        raise ExperimentError(f"unknown model {model!r}")
    if instances < 0:
        raise ExperimentError(f"instances must be >= 0, got {instances}")
    if jobs < 1:
        raise ExperimentError(f"jobs must be >= 1, got {jobs}")
    tasks = []
    for current in spec.runs(model):
        axes = []
        for name in spec.params:
            if name == "model":
                values = [current]
            elif name in spec.empty.get(current, ()):
                values = [""]
            else:
                values = [] if grids.get(name) is None else [canon(v) for v in grids[name]]
                if not values or len(set(values)) < len(values):
                    raise ExperimentError(f"{experiment} sweep needs a non-empty {name} grid "
                                          f"with no repeated value, got {grids.get(name)}")
            axes.append(values)
        for point in itertools.product(*axes):
            params = tuple(zip(spec.params, point))
            for instance in range(instances):
                tasks.append((experiment, params, instance,
                              instance_seed(seed, experiment, params, instance)))
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs, initializer=_single_thread_blas) as pool:
            metric_lists = list(pool.map(_run_task, tasks, chunksize=4))
    else:
        metric_lists = [_run_task(task) for task in tasks]
    rows = [InstanceRow(experiment, params, instance, task_seed, metric, value)
            for (_, params, instance, task_seed), metrics in zip(tasks, metric_lists)
            for metric, value in metrics]
    return SweepResult(experiment=experiment, param_names=spec.params, rows=rows)


def _single_thread_blas() -> None:
    """Run the OpenBLAS that numpy and scipy each bundle at one thread in
    this process.  Sweep workers call it first, so that `jobs` workers do
    not each start a BLAS thread per core.  A build without these
    libraries or their symbols is left as it is."""
    for module, symbol in ((np, "scipy_openblas_set_num_threads64_"),
                           (scipy, "scipy_openblas_set_num_threads")):
        libs = Path(module.__file__).parent.parent / f"{module.__name__}.libs"
        for path in libs.glob("libscipy_openblas*"):
            with contextlib.suppress(OSError, AttributeError):
                set_threads = getattr(ctypes.CDLL(str(path)), symbol)
                set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
                set_threads(1)


def _operator(net, params: dict):
    """The instance's operator: supra with weight w, dynamic with the overlap
    coupling when the point carries the knob q, else dynamic with C = I.
    A family without a model column is supra exactly when it sweeps w."""
    model = params.get("model") or ("supra" if "w" in params else "dynamic")
    if model == "supra":
        return build_supra(net, float(params["w"]))
    if "q" in params:
        return build_dynamic(net, overlap_coupling(float(params["p"]), float(params["q"]), net.n))
    return build_dynamic(net, DynamicCoupling.identity(net.n, net.k))


def _er_instance(params: dict, rng: RngSeed) -> list:
    n, k = int(params["n"]), int(params["k"])
    net = gen_er_multiplex(n, k, float(params["p"]), rng.spawn("net"))
    part, _, degenerate = fiedler_bipartition(_operator(net, params))
    return [
        ("frac_copies", canon(fraction_copies_together(part, n, k, "all"))),
        ("frac_copies_pairwise", canon(fraction_copies_together(part, n, k, "pairwise"))),
        ("degenerate", canon(degenerate)),
    ]


def _fixed_sbm_instance(params: dict, rng: RngSeed) -> list:
    net, planted = gen_fixed_sbm_multiplex(
        int(params["n"]), int(params["k"]), float(params["p"]), rng.spawn("net"))
    part, _, degenerate = fiedler_bipartition(_operator(net, params))
    equal, _ = match_partitions(part, planted)
    return [("recovered", canon(equal)), ("degenerate", canon(degenerate))]


def _regime_instance(params: dict, rng: RngSeed) -> list:
    net, planted1, planted2 = gen_overlap_multiplex(
        int(params["n"]), float(params["intra"]), float(params["inter"]), rng.spawn("net"))
    part, _, degenerate = fiedler_bipartition(_operator(net, params))
    return [("regime", classify_regime(part, planted1, planted2)),
            ("degenerate", canon(degenerate))]


def _kway_instance(params: dict, rng: RngSeed) -> list:
    net, _, _ = gen_overlap_multiplex(
        int(params["n"]), float(params["intra"]), float(params["inter"]), rng.spawn("net"))
    part = spectral_kway(_operator(net, params), 4, rng.spawn("cluster"))
    equal, _ = match_partitions(part, kway_target_partition(net.n))
    # used_clusters is always 4 after empty-cluster repair; major_clusters
    # (>= 5% of elements) is what collapses when the embedding only
    # supports fewer groups
    sizes = np.bincount(part.labels, minlength=4)
    major = int(np.sum(sizes >= max(1, len(part) // 20)))
    return [
        ("kway_match", canon(equal)),
        ("effective_clusters", canon(part.used_clusters)),
        ("major_clusters", canon(major)),
    ]


@dataclass(frozen=True)
class Experiment:
    """One sweep family: its parameters and their default grids, its model
    column and its instance function."""

    desk: dict  # every parameter in CSV order -> its default grid
    full: dict  # the grids that --full replaces
    compute: Callable  # (params, RngSeed) -> [(metric, value-string), ...]
    models: tuple = ()  # model-column values that model "both" runs, in row order
    empty: dict = field(default_factory=dict)  # model -> parameters it leaves blank

    @property
    def params(self) -> tuple:
        """The parameter columns in CSV order: model first when it has one."""
        return ("model",) * bool(self.models) + tuple(self.desk)

    def runs(self, model: str) -> tuple:
        """The model-column values that `model` ("both", "supra" or
        "dynamic") runs, in row order: `models` for "both", and (None,) for
        "both" on an entry without a model column, whose one model is fixed
        by its parameters; any other `model` raises ExperimentError there."""
        if not self.models and model != "both":
            columned = ", ".join(name for name, spec in EXPERIMENTS.items() if spec.models)
            raise ExperimentError(f"--model {model} needs an experiment with a model column "
                                  f"({columned})")
        return (self.models if model == "both" else (model,)) or (None,)


EXPERIMENTS = {
    "er": Experiment(
        models=("supra", "dynamic"),
        desk=dict(p=[0.05, 0.15, 0.25, 0.35, 0.45], k=[2, 3, 5], n=[100], w=[1.0]),
        full=dict(p=[round(0.05 + 0.01 * i, 2) for i in range(46)], k=list(range(2, 11))),
        compute=_er_instance,
    ),
    "fixed-sbm": Experiment(
        models=("dynamic", "supra"),
        empty={"dynamic": ("w",)},
        desk=dict(p=[round(0.1 * i, 1) for i in range(11)], w=[0.1, 1.0, 2.0, 5.0], k=[2, 6],
                  n=[100]),
        full=dict(w=[round(0.1 * i, 1) for i in range(51)], k=list(range(2, 11))),
        compute=_fixed_sbm_instance,
    ),
    "overlap": Experiment(
        desk=dict(p=[0.05, 0.1, 0.5, 0.9], q=[0.05, 0.1, 0.5, 0.9], n=[100], intra=[0.9],
                  inter=[0.1]),
        full=dict(
            p=[round(0.05 * i, 2) for i in range(1, 20)],
            q=[round(0.05 * i, 2) for i in range(1, 20)],
        ),
        compute=_regime_instance,
    ),
    "overlap-supra": Experiment(
        desk=dict(w=[0.5, 1.0, 2.0, 3.0, 5.0], n=[100], intra=[0.9], inter=[0.1]),
        full=dict(w=[round(0.1 * i, 1) for i in range(1, 51)]),
        compute=_regime_instance,
    ),
    "overlap-kway": Experiment(
        models=("supra",),
        empty={"supra": ("p", "q"), "dynamic": ("w",)},
        desk=dict(w=[2.0, 5.0, 30.0], p=[0.3, 0.5, 0.7], q=[0.3, 0.5, 0.7], n=[100],
                  intra=[0.9], inter=[0.1]),
        full=dict(w=[round(0.5 * i, 1) for i in range(1, 61)]),
        compute=_kway_instance,
    ),
}


# ---------------------------------------------------------------------------
# experiment runners
# ---------------------------------------------------------------------------

def run_fixed_sbm_experiment(
    p_grid, w_grid, k_grid, instances: int, model: str = "both",
    seed: int = DEFAULT_SEED, n: int = 100, jobs: int = 1,
) -> SweepResult:
    """Identical planted two-block structure on every layer; exact recovery
    of the planted partition.  The supra model sweeps (p, w, k); the dynamic
    model (C = I) sweeps (p, k) with an empty w column."""
    return run_experiment("fixed-sbm", instances, model, seed, jobs,
                          p=p_grid, w=w_grid, k=k_grid, n=[n])


def run_overlap_kway(
    model: str, instances: int, seed: int = DEFAULT_SEED,
    w_grid=None, p_grid=None, q_grid=None,
    n: int = 100, intra: float = 0.9, inter: float = 0.1, jobs: int = 1,
) -> SweepResult:
    """4-way spectral clustering on the overlap nets: match against the
    layers-times-communities partition and count effective clusters.  The
    supra model sweeps w, the dynamic model the overlap knobs (p, q)."""
    return run_experiment("overlap-kway", instances, model, seed, jobs, w=w_grid,
                          p=p_grid, q=q_grid, n=[n], intra=[intra], inter=[inter])

# ---------------------------------------------------------------------------
# CSV emission
# ---------------------------------------------------------------------------

def _write_table(path, param_names: tuple, columns: list, records) -> None:
    """A CSV of experiment, param:<name> columns and `columns`, one line
    per (experiment, params, values) record."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["experiment"] + [f"param:{name}" for name in param_names] + columns)
        for experiment, params, values in records:
            params = dict(params)
            writer.writerow([experiment] + [params[name] for name in param_names] + values)


def write_results_csv(result: SweepResult, path) -> None:
    """results.csv: experiment, param:<name> columns, instance, seed,
    metric, value."""
    _write_table(path, result.param_names, ["instance", "seed", "metric", "value"],
                 ((row.experiment, row.params, [row.instance, row.seed, row.metric, row.value])
                  for row in result.rows))


def write_aggregate_csv(result: SweepResult, path) -> None:
    """Per-point means: experiment, param:<name> columns, metric, value."""
    _write_table(path, result.param_names, ["metric", "value"],
                 ((agg.experiment, agg.params, [agg.metric, canon(agg.value)])
                  for agg in result.aggregates()))


def read_results_csv(path) -> tuple:
    """Read a results.csv back into (param_names, rows); ParseError naming
    the file, and the line of a malformed row."""
    reader = csv.reader(read_lines(path))
    rows = []
    try:
        header = next(reader, None)
        if header is None:
            raise ParseError(f"{path}: empty file, expected a results CSV header")
        param_names = tuple(col[len("param:"):] for col in header if col.startswith("param:"))
        for record in reader:
            fields = dict(zip(header, record))
            rows.append(InstanceRow(
                experiment=fields["experiment"],
                params=tuple((name, fields[f"param:{name}"]) for name in param_names),
                instance=int(fields["instance"]),
                seed=int(fields["seed"]),
                metric=fields["metric"],
                value=fields["value"],
            ))
    except (csv.Error, KeyError, ValueError) as exc:
        detail = f"no {exc} field" if isinstance(exc, KeyError) else str(exc)
        raise ParseError(f"{path}: line {reader.line_num}: malformed results row: {detail}") from exc
    return param_names, rows


def heatmap_grid(rows, x: str, y: str, metric: str) -> tuple:
    """Aggregate instance rows into a dense (y, x) grid of one metric.

    Numeric metrics aggregate to their mean; label-valued metrics to the
    modal label (ties break lexicographically).  Returns (x_values,
    y_values, grid).  Each axis lists its non-numeric values first, in text
    order (so a blank value leads), then its numbers in numeric order.
    """
    cells: dict = {}
    for row in rows:
        if row.metric != metric:
            continue
        params = dict(row.params)
        if x not in params or y not in params:
            raise ExperimentError(f"rows carry no parameters named {x!r}/{y!r}")
        cells.setdefault((params[x], params[y]), []).append(row.value)
    if not cells:
        raise ExperimentError(f"no rows with metric {metric!r}")

    def _axis(values):
        numbers = {value for value in values if _mean([value]) is not None}
        return sorted(values - numbers) + sorted(numbers, key=float)

    x_values = _axis({key[0] for key in cells})
    y_values = _axis({key[1] for key in cells})
    grid = []
    for yv in y_values:
        line = []
        for xv in x_values:
            bucket = cells.get((xv, yv))
            mean = None if bucket is None else _mean(bucket)
            if bucket is None:
                line.append("")
            elif mean is not None:
                line.append(canon(mean))
            else:  # the modal label, ties broken lexicographically
                line.append(min(set(bucket), key=lambda lab: (-bucket.count(lab), lab)))
        grid.append(line)
    return x_values, y_values, grid


def write_heatmap_csv(rows, x: str, y: str, metric: str, out) -> None:
    """Write heatmap_grid's grid as CSV to `out`, a path or an open text
    stream (left open)."""
    x_values, y_values, grid = heatmap_grid(rows, x, y, metric)
    with (contextlib.nullcontext(out) if hasattr(out, "write")
          else open(out, "w", encoding="utf-8", newline="")) as fh:
        writer = csv.writer(fh)
        writer.writerow([f"{y}\\{x}"] + list(x_values))
        for yv, line in zip(y_values, grid):
            writer.writerow([yv] + line)
