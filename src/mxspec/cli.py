"""Command-line entry point.

Subcommands: generate, cluster, cut, experiment, heatmap.  Exit codes:
0 success, 1 usage error, 2 data/model error.  Data/model errors print a
single machine-parsable line ``error[<module>]: <message>`` to stderr.

All randomness flows from one seed: ``--seed`` if given, else the
MXSPEC_SEED environment variable, else the documented default 0xD15EA5E.
"""

from __future__ import annotations

import argparse
import csv
import os
import sys

import numpy as np

from . import experiments as xp
from .core import DynamicCoupling, load_network, read_lines, save_network
from .errors import ExperimentError, MxspecError, ParseError
from .generators import (
    RngSeed,
    gen_er_multiplex,
    gen_fixed_sbm_multiplex,
    gen_overlap_multiplex,
)
from .operators import build_dynamic, build_supra, laplacian, load_coupling, symmetrize
from .spectral import RESTARTS, Partition, eig_sym, fiedler_bipartition, spectral_kway
from .cuts import cut_cost, decompose, quadratic_form

class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; the CLI contract wants 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error[cli]: {message}", file=sys.stderr)
        raise SystemExit(1)


def _float_list(text: str) -> list:
    return [float(tok) for tok in text.split(",") if tok != ""]


def _int_list(text: str) -> list:
    return [int(tok) for tok in text.split(",") if tok != ""]


def _resolve_seed(args) -> int:
    if args.seed is not None:
        return args.seed
    env = os.environ.get("MXSPEC_SEED")
    if env is not None:
        try:
            return int(env, 0)
        except ValueError:
            raise ParseError(f"MXSPEC_SEED is not an integer: {env!r}")
    return xp.DEFAULT_SEED


def _build_parser() -> _Parser:
    parser = _Parser(prog="mxspec", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="generate a synthetic multiplex network")
    gen.add_argument("--type", required=True, choices=["er", "sbm-fixed", "sbm-overlap"])
    gen.add_argument("--n", type=int, default=100, help="nodes per layer")
    # --k and --p are read by er and sbm-fixed, --intra and --inter by
    # sbm-overlap; their defaults are set in _cmd_generate (_read_flags)
    gen.add_argument("--k", type=int, default=argparse.SUPPRESS, help="number of layers")
    gen.add_argument("--p", type=float, default=argparse.SUPPRESS,
                     help="ER wiring probability / SBM inter-block probability")
    gen.add_argument("--intra", type=float, default=argparse.SUPPRESS,
                     help="overlap SBM intra-block probability")
    gen.add_argument("--inter", type=float, default=argparse.SUPPRESS,
                     help="overlap SBM inter-block probability")
    gen.add_argument("--seed", type=int, default=None)
    gen.add_argument("--out", required=True, help="output .mpx path")

    clu = sub.add_parser("cluster", help="spectral clustering of a .mpx network")
    _model_flags(clu, ["supra", "dynamic", "aggregate"])
    clu.add_argument("--input", required=True)
    clu.add_argument("--clusters", type=int, default=2)
    clu.add_argument("--seed", type=int, default=None)
    clu.add_argument("--out", required=True, help="output assignment CSV")

    cut = sub.add_parser("cut", help="cut cost of a partition, with optional decomposition")
    # cut analysis is defined on the full operators only
    _model_flags(cut, ["supra", "dynamic"])
    cut.add_argument("--input", required=True)
    cut.add_argument("--partition", required=True, help="assignment CSV (copy_index, cluster)")
    cut.add_argument("--decompose", action="store_true",
                     help="also print the layer/coupling decomposition terms")

    exp = sub.add_parser("experiment", help="run a seeded parameter sweep")
    exp.add_argument("name", choices=list(xp.EXPERIMENTS))
    exp.add_argument("--seed", type=int, default=None)
    exp.add_argument("--instances", type=int, default=None,
                     help="instances per grid point (default: 20, or 100 with --full)")
    exp.add_argument("--n", type=int, default=None, help="nodes per layer")
    exp.add_argument("--model", default="both", choices=["both", "supra", "dynamic"],
                     help="operator model (er, fixed-sbm, overlap-kway)")
    exp.add_argument("--p-grid", type=_float_list, default=None, help="comma-separated values")
    exp.add_argument("--q-grid", type=_float_list, default=None)
    exp.add_argument("--w-grid", type=_float_list, default=None)
    exp.add_argument("--k-grid", type=_int_list, default=None)
    exp.add_argument("--intra", type=float, default=None)
    exp.add_argument("--inter", type=float, default=None)
    exp.add_argument("--full", action="store_true",
                     help="paper-scale grids and 100 instances instead of desk-scale defaults")
    exp.add_argument("--jobs", type=int, default=os.cpu_count() or 1,
                     help="parallel worker processes (output is order-deterministic; "
                          "default: available parallelism)")
    exp.add_argument("--out", required=True, help="results CSV path")
    exp.add_argument("--aggregate", default=None, help="optional per-point means CSV path")

    heat = sub.add_parser("heatmap", help="dense grid CSV from a results CSV")
    heat.add_argument("results", help="results CSV produced by `mxspec experiment`")
    heat.add_argument("--x", required=True, help="parameter name for columns")
    heat.add_argument("--y", required=True, help="parameter name for rows")
    heat.add_argument("--metric", required=True,
                      help="metric to aggregate (mean for numeric, modal label otherwise)")
    heat.add_argument("--out", default=None, help="output path (default: stdout)")
    return parser


def _model_flags(parser, models: list) -> None:
    parser.add_argument("--model", required=True, choices=models)
    # each read by one model; the defaults are set in _model_args (_read_flags)
    parser.add_argument("--supra-weight", type=float, default=argparse.SUPPRESS,
                        help="inter-layer weight w (supra model; default 1.0)")
    parser.add_argument("--coupling", default=argparse.SUPPRESS,
                        help=".cpl coupling file (dynamic model; default C = I)")


def _read_flags(args, option: str, reads: dict) -> argparse.Namespace:
    """`args` with the defaults of the flags that the value of --`option`
    reads, `reads[value]` ({dest: default}), set where not given.  Every
    flag that `reads` names is parsed with argparse.SUPPRESS, so it is in
    `args` only when given; one given that the value does not read raises
    MxspecError, before any file is read or written."""
    value = getattr(args, option)
    unread = sorted(vars(args).keys() & set().union(*reads.values()) - reads[value].keys())
    if unread:
        flag = unread[0].replace("_", "-")
        raise MxspecError(f"{args.command} --{option} {value} reads no --{flag}")
    return argparse.Namespace(**{**reads[value], **vars(args)})


def _model_args(args) -> argparse.Namespace:
    """cluster's and cut's `args`: --supra-weight (default 1.0) is read by
    supra, --coupling (default C = I) by dynamic, neither by aggregate
    (which only cluster takes)."""
    return _read_flags(args, "model", dict(supra=dict(supra_weight=1.0),
                                           dynamic=dict(coupling=None), aggregate={}))


def _build_operator(args, net):
    if args.model == "supra":
        return build_supra(net, args.supra_weight)
    coupling = (
        load_coupling(args.coupling, net.n, net.k)
        if args.coupling
        else DynamicCoupling.identity(net.n, net.k)
    )
    return build_dynamic(net, coupling)


def _cmd_generate(args) -> int:
    args = _read_flags(args, "type", {"er": dict(k=2, p=0.1), "sbm-fixed": dict(k=2, p=0.1),
                                      "sbm-overlap": dict(intra=0.9, inter=0.1)})
    seed = RngSeed(_resolve_seed(args), ("generate", args.type))
    planted = []
    if args.type == "er":
        net = gen_er_multiplex(args.n, args.k, args.p, seed)
    elif args.type == "sbm-fixed":
        net, *planted = gen_fixed_sbm_multiplex(args.n, args.k, args.p, seed)
    else:
        net, *planted = gen_overlap_multiplex(args.n, args.intra, args.inter, seed)
    save_network(net, args.out)
    base = args.out[:-4] if args.out.endswith(".mpx") else args.out
    for idx, part in enumerate(planted):
        suffix = ".planted.csv" if idx == 0 else f".planted{idx + 1}.csv"
        with open(base + suffix, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["copy_index", "cluster"])
            for copy_index, cluster in enumerate(part.labels.tolist()):
                writer.writerow([copy_index, cluster])
    return 0


def _cmd_cluster(args) -> int:
    args = _model_args(args)
    net = load_network(args.input)
    seed = RngSeed(_resolve_seed(args), ("cluster",))
    if args.model == "aggregate":
        # J^T L J of the supra operator at any w, built from the n x n layers;
        # a sum past the float range is left as inf for laplacian to reject
        with np.errstate(over="ignore"):
            lap = laplacian(sum(symmetrize(layer) for layer in net.layers))
    else:
        lap = _build_operator(args, net)  # the operator: its build validated L
    if args.clusters == 2:
        system = eig_sym(lap, 2)
        part, _, degenerate = fiedler_bipartition(lap, system)
        # the smallest eigenvalue above zero, also when the operator is
        # disconnected and fiedler_bipartition returns 0.0
        meta = (f"% fiedler_value={system.fiedler_value!r} degenerate={int(degenerate)} "
                f"fiedler_multiplicity={system.fiedler_multiplicity}")
    else:
        part = spectral_kway(lap, args.clusters, seed)
        meta = f"% clusters={args.clusters} restarts={RESTARTS}"
    labels = part.labels
    if args.model == "aggregate":
        labels = np.tile(labels, net.k)  # node clusters lifted to every copy
    with open(args.out, "w", encoding="utf-8", newline="") as fh:
        fh.write(meta + "\n")
        writer = csv.writer(fh)
        writer.writerow(["copy_index", "layer", "node", "cluster"])
        for copy_index, cluster in enumerate(labels.tolist()):
            writer.writerow([copy_index, copy_index // net.n, copy_index % net.n, cluster])
    return 0


def _read_partition_csv(path, expected: int) -> Partition:
    labels = np.zeros(expected, dtype=int)
    assigned = np.zeros(expected, dtype=bool)
    reader = csv.DictReader(line for line in read_lines(path) if not line.startswith("%"))
    if reader.fieldnames is None or "copy_index" not in reader.fieldnames \
            or "cluster" not in reader.fieldnames:
        raise ParseError(f"{path}: expected columns copy_index, cluster")
    for record in reader:
        try:
            idx, cluster = int(record["copy_index"]), int(record["cluster"])
        except (ValueError, TypeError):
            raise ParseError(f"{path}: bad assignment row {record!r}")
        if not 0 <= idx < expected:
            raise ParseError(f"{path}: copy_index {idx} out of range [0, {expected})")
        if assigned[idx]:
            raise ParseError(f"{path}: copy_index {idx} assigned more than once")
        if cluster < 0:
            raise ParseError(f"{path}: negative cluster {cluster} for copy_index {idx}")
        if cluster > np.iinfo(labels.dtype).max:
            raise ParseError(f"{path}: cluster {cluster} for copy_index {idx} is past int64")
        assigned[idx] = True
        labels[idx] = cluster
    if not assigned.all():
        raise ParseError(f"{path}: no cluster assigned to copy_index {np.argmin(assigned)}")
    return Partition(labels=labels, c=int(labels.max()) + 1)


def _cmd_cut(args) -> int:
    args = _model_args(args)
    op = _build_operator(args, load_network(args.input))
    part = _read_partition_csv(args.partition, op.num_copies)
    if args.decompose:
        report = decompose(op, part)
        rows = [("total", report.total), ("quadratic_form", report.quadratic_form),
                *report.terms]
    else:
        rows = [("total", cut_cost(op, part))]
        if part.c == 2:
            rows.append(("quadratic_form", quadratic_form(op, part)))
    writer = csv.writer(sys.stdout)
    writer.writerow(["term", "value"])
    writer.writerows([name, repr(value)] for name, value in rows)
    return 0


def _cmd_experiment(args) -> int:
    seed = _resolve_seed(args)
    spec = xp.EXPERIMENTS[args.name]
    instances = (100 if args.full else 20) if args.instances is None else args.instances
    given = dict(p=args.p_grid, q=args.q_grid, w=args.w_grid, k=args.k_grid,
                 n=[args.n], intra=[args.intra], inter=[args.inter])
    given = {name: value for name, value in given.items() if value not in (None, [None])}
    # a parameter that every model of the run leaves blank reads no grid
    unread = sorted(set(given).intersection(*(spec.empty.get(model, ())
                                              for model in spec.runs(args.model))))
    if unread:
        raise ExperimentError(f"{args.name} --model {args.model} reads no {unread[0]} grid")
    grids = {**spec.desk, **(spec.full if args.full else {}), **given}  # the table's defaults
    result = xp.run_experiment(args.name, instances, args.model, seed, args.jobs, **grids)
    xp.write_results_csv(result, args.out)
    if args.aggregate:
        xp.write_aggregate_csv(result, args.aggregate)
    return 0


def _cmd_heatmap(args) -> int:
    _, rows = xp.read_results_csv(args.results)
    xp.write_heatmap_csv(rows, args.x, args.y, args.metric, args.out or sys.stdout)
    return 0


_COMMANDS = {
    "generate": _cmd_generate,
    "cluster": _cmd_cluster,
    "cut": _cmd_cut,
    "experiment": _cmd_experiment,
    "heatmap": _cmd_heatmap,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except MxspecError as exc:
        print(f"error[{exc.module}]: {exc.message}", file=sys.stderr)
        return 2
    except OSError as exc:  # a read fails as ParseError, so a named file is an output
        reason = f"cannot write {exc.filename}: {exc.strerror}" if exc.filename else exc
        print(f"error[cli]: {reason}", file=sys.stderr)
        return 2
    except Exception as exc:  # malformed input must never escape as a traceback
        print(f"error[cli]: unexpected {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
