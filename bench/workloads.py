"""The benchmark's workloads.

Each workload is a closed loop with one client: the next op starts when
the previous one returns.  A workload builds its inputs from the seed in
``setup`` and then runs repetitions.  A repetition is a fixed batch of
ops on the same inputs every time, so every run has the same op mix
whatever its length, and each op is measured once per repetition.
Every op's output is checked against its domain and against the same
op's output in the first repetition; an op that fails either check
counts as failed.  The first repetition writes the workload's reference
outputs, whose SHA-256 the run prints so that a change in outputs shows.

Inputs come only from the seed; the program receives generated networks,
grids and per-sweep master seeds.
"""

from __future__ import annotations

import csv
import hashlib
import math
import shutil
import sys
import time
import traceback
from dataclasses import dataclass, field

import numpy as np

from mxspec import cli, core, cuts, experiments, generators, operators, spectral

from spans import patched

clock = time.perf_counter


def derived_seed(seed: int, *parts) -> int:
    """63-bit seed for one named input of one workload."""
    text = "/".join(str(p) for p in (seed,) + parts)
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:8], "little") >> 1


@dataclass
class RepResult:
    """One repetition.  Ops come in the same order in every repetition, on
    the same inputs, so op j of one repetition repeats op j of another."""

    latencies: list = field(default_factory=list)  # seconds per op
    sizes: list = field(default_factory=list)      # m = n*k of each op
    outputs: list = field(default_factory=list)    # per op: checked output, None if bad
    busy: float = 0.0                               # seconds inside program calls
    files: list = field(default_factory=list)       # reference outputs (first repetition)


def _report_failure(what: str) -> None:
    print(f"op failed: {what}", file=sys.stderr)
    traceback.print_exc(file=sys.stderr)


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------

def _canon(value) -> str:
    """Parameter value as compared with the results CSV: numbers by value."""
    try:
        return repr(float(value))
    except ValueError:
        return str(value)


class _Sweep:
    """A workload whose ops are the compute_instance calls of public sweep
    runners.  Subclasses list the sweep calls of one repetition as
    (runner name, kwargs, expected parameter points, instances)."""

    metric_names: frozenset = frozenset()
    expected_kinds = (
        "experiments.sweep", "experiments.instance", "generators", "operators.build",
        "spectral.select", "spectral.eig", "experiments.score",
    )

    def setup(self, seed: int, workdir) -> None:
        self.master = derived_seed(seed, self.name)
        self.workdir = workdir
        # warm-up: the first and last grid point of every sweep call
        for name, kwargs, points, _ in self.calls(derived_seed(seed, "warm-up")):
            getattr(experiments, name)  # a renamed runner fails here, not as failed ops
            for point in (points[0], points[-1]):
                params = {k: v if isinstance(v, str) else repr(v) for k, v in point.items()}
                experiments.compute_instance(self.experiment, params, kwargs["seed"])

    def calls(self, master: int) -> list:
        raise NotImplementedError

    def check_instance(self, params: dict, metrics: dict) -> bool:
        raise NotImplementedError

    def rep(self, first: bool, tracer) -> RepResult:
        out = RepResult()
        record = []

        def op_clock(fn):
            def timed(experiment, params, seed):
                start = clock()
                try:
                    return fn(experiment, params, seed)
                finally:
                    record.append((clock() - start,
                                   int(params["n"]) * int(params.get("k", 2))))
            return timed

        with patched("mxspec.experiments", "compute_instance", op_clock):
            for call, (name, kwargs, points, instances) in enumerate(self.calls(self.master)):
                start = clock()
                try:
                    result = getattr(experiments, name)(**kwargs)
                except Exception:
                    out.busy += clock() - start
                    out.outputs += [None] * (len(points) * instances)
                    _report_failure(name)
                    continue
                out.busy += clock() - start
                out.outputs += self._instance_outputs(result, points, instances)
                if first:
                    path = self.workdir / f"{self.name}-{call}.csv"
                    experiments.write_results_csv(result, path)
                    out.files.append(path)
        out.latencies = [t for t, _ in record]
        out.sizes = [m for _, m in record]
        return out

    def _instance_outputs(self, result, points, instances) -> list:
        """Per expected (point, instance): its metrics if every metric is
        present and in its domain, else None."""
        groups: dict = {}
        for row in result.rows:
            key = (tuple(sorted((k, _canon(v)) for k, v in row.params)), row.instance)
            groups.setdefault(key, {})[row.metric] = row.value
        out = []
        for point in points:
            params = tuple(sorted((k, _canon(v)) for k, v in point.items()))
            for instance in range(instances):
                metrics = groups.get((params, instance))
                ok = (metrics is not None and set(metrics) == self.metric_names
                      and self.check_instance(dict(params), metrics))
                out.append(tuple(sorted(metrics.items())) if ok else None)
        return out


class SbmSweep(_Sweep):
    """Fixed-SBM recovery sweep, both models, n = 100, k in {2, 6}.

    One repetition is two sweeps: k = 2 with three instances per point and
    k = 6 with one, 64 ops of which a quarter are m = 600.  A short
    repetition gives each op many samples for its best time.  Measured op
    times are about 6-15 ms at m = 200 and 70-160 ms at m = 600; with this
    mix the median lies among the m = 200 ops and the 90th percentile
    among the m = 600 ops, away from the gap between the two modes.
    """

    name = "sbm-sweep"
    experiment = "fixed-sbm"
    metric_names = frozenset({"recovered", "degenerate"})
    expected_kinds = _Sweep.expected_kinds + ("operators.components",)
    # p = 0.0: the layers fall apart into the two blocks and the
    # component fallback runs; p = 0.9: the community eigenvalue is in
    # the spectral bulk
    P_GRID = (0.0, 0.3, 0.6, 0.9)
    W_GRID = (0.1, 1.0, 5.0)
    INSTANCES = {2: 3, 6: 1}
    N = 100

    def calls(self, master: int) -> list:
        out = []
        for k, instances in self.INSTANCES.items():
            points = [dict(model="dynamic", p=p, w="", k=k, n=self.N) for p in self.P_GRID]
            points += [dict(model="supra", p=p, w=w, k=k, n=self.N)
                       for p in self.P_GRID for w in self.W_GRID]
            kwargs = dict(p_grid=self.P_GRID, w_grid=self.W_GRID, k_grid=[k],
                          instances=instances, model="both",
                          seed=derived_seed(master, "k", k), n=self.N, jobs=1)
            out.append(("run_fixed_sbm_experiment", kwargs, points, instances))
        return out

    def check_instance(self, params: dict, metrics: dict) -> bool:
        if metrics["recovered"] not in ("0", "1"):
            return False
        # connected exactly when blocks are linked (p > 0); at p = 0 the
        # component split is the planted partition
        if float(params["p"]) == 0.0:
            return metrics["degenerate"] == "1" and metrics["recovered"] == "1"
        return metrics["degenerate"] == "0"


class KwaySweep(_Sweep):
    """4-way overlap sweep on the supra w grid and the dynamic (p, q) grid,
    n = 100 (m = 200), 54 ops a repetition.  Each op embeds into 4
    eigenvectors and runs 10-restart k-means in Python."""

    name = "kway-sweep"
    experiment = "overlap-kway"
    metric_names = frozenset({"kway_match", "effective_clusters", "major_clusters"})
    W_GRID = (2.0, 5.0, 30.0)
    PQ_GRID = (0.3, 0.5, 0.7)
    N, INTRA, INTER = 100, 0.9, 0.1
    SUPRA_INSTANCES, DYNAMIC_INSTANCES = 6, 4

    def calls(self, master: int) -> list:
        common = dict(n=self.N, intra=self.INTRA, inter=self.INTER)
        supra_points = [dict(model="supra", w=w, p="", q="", **common) for w in self.W_GRID]
        dynamic_points = [dict(model="dynamic", w="", p=p, q=q, **common)
                          for p in self.PQ_GRID for q in self.PQ_GRID]
        return [
            ("run_overlap_kway",
             dict(model="supra", instances=self.SUPRA_INSTANCES,
                  seed=derived_seed(master, "supra"), w_grid=self.W_GRID, jobs=1, **common),
             supra_points, self.SUPRA_INSTANCES),
            ("run_overlap_kway",
             dict(model="dynamic", instances=self.DYNAMIC_INSTANCES,
                  seed=derived_seed(master, "dynamic"), p_grid=self.PQ_GRID,
                  q_grid=self.PQ_GRID, jobs=1, **common),
             dynamic_points, self.DYNAMIC_INSTANCES),
        ]

    def check_instance(self, params: dict, metrics: dict) -> bool:
        try:
            effective = int(metrics["effective_clusters"])
            major = int(metrics["major_clusters"])
        except ValueError:
            return False
        return (metrics["kway_match"] in ("0", "1")
                and 1 <= effective <= 4 and 0 <= major <= effective)


# ---------------------------------------------------------------------------
# single-network CLI path
# ---------------------------------------------------------------------------

class ClusterLarge:
    """``mxspec cluster`` called in process on two generated .mpx files of
    m = 2000 copies: a supra net (n = 200, k = 10) and a dynamic net
    (n = 400, k = 5).  One repetition clusters each file once."""

    name = "cluster-large"
    expected_kinds = ("cli", "core.load", "operators.build", "spectral.select",
                      "spectral.eig")
    # (label, model, n, k); w = 5 puts the layer-split eigenvalue k*w
    # above the community eigenvalue, so the Fiedler vector is unique
    NETS = (("supra", "supra", 200, 10), ("dynamic", "dynamic", 400, 5))
    P, SUPRA_WEIGHT = 0.1, 5.0

    def setup(self, seed: int, workdir) -> None:
        self.workdir = workdir
        self.jobs = []
        for label, model, n, k in self.NETS:
            path = workdir / f"{label}.mpx"
            self._generate(n, k, derived_seed(seed, label), path)
            argv = ["cluster", "--input", str(path), "--model", model,
                    "--clusters", "2", "--seed", str(derived_seed(seed, "cluster")),
                    "--out", str(workdir / f"{label}.csv")]
            if model == "supra":
                argv += ["--supra-weight", repr(self.SUPRA_WEIGHT)]
            self.jobs.append((label, argv, n, k))
        # warm-up on a small net of each model
        small = workdir / "warm-up.mpx"
        self._generate(20, 2, derived_seed(seed, "warm-up"), small)
        for _, argv, _, _ in self.jobs:
            warm = list(argv)
            warm[warm.index("--input") + 1] = str(small)
            warm[warm.index("--out") + 1] = str(workdir / "warm-up.csv")
            if cli.main(warm) != 0:
                raise RuntimeError(f"warm-up cluster call failed: {warm}")

    def _generate(self, n, k, seed, path) -> None:
        argv = ["generate", "--type", "sbm-fixed", "--n", str(n), "--k", str(k),
                "--p", repr(self.P), "--seed", str(seed), "--out", str(path)]
        if cli.main(argv) != 0:
            raise RuntimeError(f"generate failed: {argv}")

    def rep(self, first: bool, tracer) -> RepResult:
        out = RepResult()
        for label, argv, n, k in self.jobs:
            start = clock()
            try:
                code = cli.main(argv)
            except Exception:
                code = None
                _report_failure(f"cluster {label}")
            elapsed = clock() - start
            out.busy += elapsed
            out.latencies.append(elapsed)
            out.sizes.append(n * k)
            path = argv[argv.index("--out") + 1]
            if code != 0 or not self._assignment_ok(path, n, k):
                print(f"op failed: cluster {label} exit {code}", file=sys.stderr)
                out.outputs.append(None)
                continue
            with open(path, "rb") as fh:
                out.outputs.append(hashlib.sha256(fh.read()).hexdigest())
            if first:
                reference = self.workdir / f"{label}.reference.csv"
                shutil.copyfile(path, reference)
                out.files.append(reference)
        return out

    @staticmethod
    def _assignment_ok(path, n, k) -> bool:
        """Metadata line with lambda2 > 0 and no degeneracy, the header,
        and one row per copy in layer-major order with labels {0, 1}."""
        with open(path, "r", encoding="utf-8", newline="") as fh:
            meta = fh.readline()
            rows = list(csv.reader(fh))
        if not meta.startswith("% "):
            return False
        try:
            fields = dict(tok.split("=", 1) for tok in meta[2:].split())
            lambda2 = float(fields["fiedler_value"])
            degenerate = int(fields["degenerate"])
            multiplicity = int(fields["fiedler_multiplicity"])
        except (KeyError, ValueError):
            return False
        if not (math.isfinite(lambda2) and lambda2 > 0 and degenerate == 0
                and multiplicity >= 1):
            return False
        if not rows or rows[0] != ["copy_index", "layer", "node", "cluster"]:
            return False
        body = rows[1:]
        if len(body) != n * k:
            return False
        labels = set()
        for idx, row in enumerate(body):
            if row[:3] != [str(idx), str(idx // n), str(idx % n)] or len(row) != 4:
                return False
            labels.add(row[3])
        return labels == {"0", "1"}


# ---------------------------------------------------------------------------
# cut oracle
# ---------------------------------------------------------------------------

class CutOracle:
    """Brute-force minimum cut, cut identities and decompositions on seeded
    nets of 18 copies, both models.  One repetition is 8 cases of about
    25-40 ms each, all at m = 18, so the op times have one mode.

    The oracle streams arrays of a few MB, so it slows more than the other
    workloads when the host is busy.  Short ops repeated many times let
    the best of the repetitions of each op reach the uncontended time: in
    alternating 12-18 s runs on a shared 2-core host, 8 cases at m = 18
    spread 0.05 (quartile distance over median of ops_per_s) where 16 cases
    spread 0.11, and 16 cases with 12 at m = 20 (about 150 ms) spread 0.32.
    """

    name = "cut-oracle"
    expected_kinds = ("operators.build", "cuts.brute", "cuts.identity",
                      "spectral.select", "spectral.eig")
    # (n, k, model, count)
    SHAPES = ((9, 2, "supra", 2), (9, 2, "dynamic", 2), (6, 3, "supra", 2), (6, 3, "dynamic", 2))

    def setup(self, seed: int, workdir) -> None:
        self.workdir = workdir
        self.cases = []
        for n, k, model, count in self.SHAPES:
            for copy in range(count):
                rng = np.random.default_rng(derived_seed(seed, n, k, model, copy))
                net = generators.gen_er_multiplex(
                    n, k, float(rng.uniform(0.3, 0.6)),
                    generators.RngSeed(derived_seed(seed, "net", n, k, model, copy)))
                if model == "supra":
                    coupling = float(rng.uniform(0.2, 2.0))
                else:
                    coupling = core.DynamicCoupling(rng.uniform(0.0, 1.0, size=(k, k, n)))
                self.cases.append((f"{model}-n{n}-k{k}-{copy}", model, net, coupling))
        for case in self.cases[:2]:
            self._run_case(case)

    @staticmethod
    def _run_case(case) -> tuple:
        _, model, net, coupling = case
        if model == "supra":
            op = operators.build_supra(net, coupling)
        else:
            op = operators.build_dynamic(net, coupling)
        best, best_cost = cuts.brute_force_min_cut(op)
        part, _, _ = spectral.fiedler_bipartition(op.laplacian)
        fiedler_cut = cuts.cut_cost(op, part)
        form = cuts.quadratic_form(op, part)
        if model == "supra":
            report = cuts.decompose_supra(net, coupling, part)
        else:
            report = cuts.decompose_dynamic(net, coupling, part)
        best_recomputed = cuts.cut_cost(op, best)
        return op, best, best_cost, fiedler_cut, form, report, best_recomputed

    def rep(self, first: bool, tracer) -> RepResult:
        out = RepResult()
        for case in self.cases:
            if tracer is not None:
                tracer.begin_op()
            start = clock()
            try:
                result = self._run_case(case)
            except Exception:
                result = None
                _report_failure(f"cut oracle {case[0]}")
            elapsed = clock() - start
            out.busy += elapsed
            out.latencies.append(elapsed)
            out.sizes.append(case[2].num_copies)
            if result is None or not self._identities_hold(*result):
                print(f"op failed: cut oracle {case[0]}", file=sys.stderr)
                out.outputs.append(None)
                continue
            op, best, best_cost, fiedler_cut, form, report, _ = result
            out.outputs.append((case[0], op.num_copies, "".join(map(str, best.labels.tolist())),
                                repr(best_cost), repr(fiedler_cut), repr(form),
                                repr(report.terms_sum)))
        if first:
            path = self.workdir / "cut-oracle.csv"
            with open(path, "w", encoding="utf-8", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow(["case", "copies", "min_cut_labels", "min_cut",
                                 "fiedler_cut", "quadratic_form", "terms_sum"])
                writer.writerows(line for line in out.outputs if line is not None)
            out.files.append(path)
        return out

    @staticmethod
    def _identities_hold(op, best, best_cost, fiedler_cut, form, report, best_recomputed) -> bool:
        """cut == (1/2) s'Ls, decomposition terms sum to s'Ls, and the
        exhaustive minimum is no larger than the Fiedler cut."""
        tol = 1e-9 * max(1.0, float(np.abs(op.adjacency).sum()))
        return (abs(fiedler_cut - form) <= tol
                and abs(report.total - fiedler_cut) <= tol
                and abs(report.quadratic_form - form) <= tol
                and abs(report.terms_sum - 2.0 * form) <= tol
                and abs(best_recomputed - best_cost) <= tol
                and best_cost <= fiedler_cut + tol)


WORKLOADS = {cls.name: cls for cls in (SbmSweep, KwaySweep, ClusterLarge, CutOracle)}
